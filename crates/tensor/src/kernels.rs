//! Chunked reduction and GEMM kernels shared by [`crate::Vector`],
//! [`crate::Matrix`] and the batched training path in `asyncfl-ml`.
//!
//! The naive `zip().map().sum()` reductions form one serial dependency
//! chain of float additions, which LLVM must preserve (float addition is
//! not associative) — so they never vectorize. These kernels instead run
//! eight independent accumulators over `chunks_exact(8)` blocks and fold
//! them in a *fixed* tree order, which LLVM auto-vectorizes to SIMD adds
//! while still producing bit-identical results on every run: the summation
//! order is a deterministic function of the slice length alone.
//!
//! The slice-level GEMM entry points ([`gemm_nt`], [`gemm_nn`],
//! [`gemm_tn_acc`], [`add_row_broadcast`]) exist so callers that keep
//! *flat* parameter storage (the `asyncfl-ml` models) can run whole
//! minibatches as matrix products without materializing `Matrix` views.
//! They are built from the same [`dot`]/[`axpy`] primitives, so batched
//! and per-sample code paths produce bit-identical accumulations: every
//! output element sees its per-sample contributions in the same order
//! either way.
//!
//! # SIMD-width dispatch
//!
//! The distance kernels (`dot`, `norm_squared`, `distance_squared`,
//! `lerp_norm_squared`) and the 1-D k-means DP cell (`kmeans_dp_argmin`)
//! additionally go through runtime ISA dispatch on
//! x86-64: the portable `*_impl` body is compiled once per instruction-set
//! level (baseline / AVX2 / AVX-512F) via `#[target_feature]` wrappers,
//! and the level is detected once and cached. This changes *register
//! width only* — the eight-lane accumulator layout and the fixed
//! `reduce` tree are the same source code in every wrapper, and rustc
//! emits no FMA contraction or reassociation, so every level produces
//! bit-identical results (pinned by tests). Non-x86-64 targets compile
//! the portable body directly.

/// Accumulator width. Eight `f64` lanes = two AVX2 registers / one
/// AVX-512 register; also fine on NEON (four 2-wide registers).
const LANES: usize = 8;

/// Folds the lane accumulators plus the scalar tail in a fixed tree order.
#[inline(always)]
fn reduce(acc: [f64; LANES], tail: f64) -> f64 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// Portable body of [`dot`]; `#[inline(always)]` so each
/// `#[target_feature]` wrapper compiles its own copy at that ISA level.
#[inline(always)]
fn dot_impl(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0_f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce(acc, tail)
}

/// Dot product `Σ aᵢ·bᵢ` over equal-length slices.
///
/// The reduction order is a fixed function of the slice length, so the
/// result is bit-identical run to run (and across ISA levels — see the
/// module docs on SIMD-width dispatch).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dispatch::dot(a, b)
}

/// Portable body of [`norm_squared`].
#[inline(always)]
fn norm_squared_impl(a: &[f64]) -> f64 {
    let mut acc = [0.0_f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    for xa in &mut ca {
        for l in 0..LANES {
            acc[l] += xa[l] * xa[l];
        }
    }
    let mut tail = 0.0;
    for x in ca.remainder() {
        tail += x * x;
    }
    reduce(acc, tail)
}

/// Squared ℓ2 norm `Σ aᵢ²`.
#[inline]
pub(crate) fn norm_squared(a: &[f64]) -> f64 {
    dispatch::norm_squared(a)
}

/// Portable body of [`distance_squared`].
#[inline(always)]
fn distance_squared_impl(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0_f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    reduce(acc, tail)
}

/// Fused squared ℓ2 distance `Σ (aᵢ − bᵢ)²` over equal-length slices.
#[inline]
pub(crate) fn distance_squared(a: &[f64], b: &[f64]) -> f64 {
    dispatch::distance_squared(a, b)
}

/// Portable body of [`lerp_norm_squared`].
#[inline(always)]
fn lerp_norm_squared_impl(a: &mut [f64], b: &[f64], t: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0_f64; LANES];
    let mut ca = a.chunks_exact_mut(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            let v = (1.0 - t) * xa[l] + t * xb[l];
            xa[l] = v;
            acc[l] += v * v;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
        let v = (1.0 - t) * *x + t * y;
        *x = v;
        tail += v * v;
    }
    reduce(acc, tail)
}

/// Fused interpolate-and-measure: `a ← (1−t)·a + t·b` element-wise,
/// returning the updated `‖a‖²` from the same traversal.
///
/// The write-back is exactly `Vector::lerp`'s formula and the
/// accumulation runs in exactly [`norm_squared`]'s lane-and-tail order,
/// so the result is **bit-identical** to a `lerp` followed by a
/// standalone `norm_squared` — in one pass over the data instead of two.
/// This is what lets AsyncFilter keep its `‖MA‖²` cache exact across
/// `absorb` without re-reducing the estimate (DESIGN.md §10).
#[inline]
pub(crate) fn lerp_norm_squared(a: &mut [f64], b: &[f64], t: f64) -> f64 {
    dispatch::lerp_norm_squared(a, b, t)
}

/// Portable body of [`kmeans_dp_argmin`]. Lane `l` scans the candidates
/// `m ≡ lo + l (mod LANES)` and keeps its own first minimum under strict
/// `<`; the merge then takes the smallest value, ties going to the
/// smallest index, which is exactly the first minimum of one strict-`<`
/// scan over `lo..j`. Every cell is the scalar formula verbatim, so only
/// the scan order of independent cells changes, never a value.
#[inline(always)]
fn kmeans_dp_argmin_impl(
    prev: &[f64],
    pref: &[f64],
    pref_sq: &[f64],
    lo: usize,
    j: usize,
) -> (f64, usize) {
    let (pj, qj) = (pref[j], pref_sq[j]);
    let (prev, pref, pref_sq) = (&prev[lo..j], &pref[lo..j], &pref_sq[lo..j]);
    let mut best = [f64::INFINITY; LANES];
    // Interval length `j − m` of each lane's current candidate, stepped
    // down by `LANES` per block: exact, since both are integers < 2⁵³, so
    // it equals the scalar `(j − m) as f64` bit for bit. Each lane's
    // argmin is kept as its length too, so the select stays in f64 lanes.
    let mut len = [0.0_f64; LANES];
    for (l, x) in len.iter_mut().enumerate() {
        *x = (j - lo).saturating_sub(l) as f64;
    }
    let mut best_len = len;
    let mut cv = prev.chunks_exact(LANES);
    let mut cp = pref.chunks_exact(LANES);
    let mut cq = pref_sq.chunks_exact(LANES);
    for ((xv, xp), xq) in (&mut cv).zip(&mut cp).zip(&mut cq) {
        for l in 0..LANES {
            let s = pj - xp[l];
            let cost = xv[l] + ((qj - xq[l]) - s * s / len[l]).max(0.0);
            let better = cost < best[l];
            best[l] = if better { cost } else { best[l] };
            best_len[l] = if better { len[l] } else { best_len[l] };
            len[l] -= LANES as f64;
        }
    }
    let mut min = (f64::INFINITY, 0);
    for l in 0..LANES {
        let m = j - best_len[l] as usize;
        // A lane that never went below +∞ holds no candidate.
        if best[l] < min.0 || (best[l] == min.0 && best[l] < f64::INFINITY && m < min.1) {
            min = (best[l], m);
        }
    }
    // The tail's indices exceed every lane's, so a strict-`<` scan
    // continuing from the merged minimum keeps the first minimum.
    let tail_lo = j - cv.remainder().len();
    let tail = cv
        .remainder()
        .iter()
        .zip(cp.remainder())
        .zip(cq.remainder());
    for (i, ((v, p), q)) in tail.enumerate() {
        let m = tail_lo + i;
        let s = pj - p;
        let cost = v + ((qj - q) - s * s / (j - m) as f64).max(0.0);
        if cost < min.0 {
            min = (cost, m);
        }
    }
    min
}

/// One cell of the exact 1-D k-means dynamic program: the first minimum
/// `(value, m)` of `prev[m] + cost(m, j)` over `m ∈ lo..j`, where
/// `cost(m, j) = ((pref_sq[j] − pref_sq[m]) − s·s/(j − m)).max(0.0)` with
/// `s = pref[j] − pref[m]` is the within-cluster sum of squares of the
/// sorted points `m..j` from their prefix sums.
///
/// "First" means the smallest `m` among equal minima — the result of a
/// strict-`<` scan seeded with `(+∞, 0)`, which is also what comes back
/// when no candidate is below `+∞`. Bit-identical to that scalar scan at
/// every ISA level (see the module docs on SIMD-width dispatch).
///
/// # Panics
///
/// Panics if `lo > j` or `j` is out of bounds for any of the three slices.
#[inline]
pub fn kmeans_dp_argmin(
    prev: &[f64],
    pref: &[f64],
    pref_sq: &[f64],
    lo: usize,
    j: usize,
) -> (f64, usize) {
    dispatch::kmeans_dp_argmin(prev, pref, pref_sq, lo, j)
}

/// Runtime ISA dispatch for the distance and DP kernels (x86-64): the portable
/// `*_impl` bodies are recompiled per instruction-set level through
/// `#[target_feature]` wrappers — wider registers, same source, same
/// fixed reduction tree, bit-identical results. The `unsafe` here is
/// exactly the `#[target_feature]` calling contract, discharged by the
/// cached runtime detection; no pointers are touched.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod dispatch {
    use super::{
        distance_squared_impl, dot_impl, kmeans_dp_argmin_impl, lerp_norm_squared_impl,
        norm_squared_impl,
    };
    use std::sync::OnceLock;

    /// Detected level, cached once per process: 0 = baseline (whatever
    /// the target was compiled for), 1 = AVX2, 2 = AVX-512F.
    fn level() -> u8 {
        static LEVEL: OnceLock<u8> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            if is_x86_feature_detected!("avx512f") {
                2
            } else if is_x86_feature_detected!("avx2") {
                1
            } else {
                0
            }
        })
    }

    #[target_feature(enable = "avx2")]
    unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
        dot_impl(a, b)
    }
    #[target_feature(enable = "avx512f")]
    unsafe fn dot_avx512(a: &[f64], b: &[f64]) -> f64 {
        dot_impl(a, b)
    }
    pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
        match level() {
            // SAFETY: level() verified the feature on this CPU.
            2 => unsafe { dot_avx512(a, b) },
            1 => unsafe { dot_avx2(a, b) },
            _ => dot_impl(a, b),
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn norm_squared_avx2(a: &[f64]) -> f64 {
        norm_squared_impl(a)
    }
    #[target_feature(enable = "avx512f")]
    unsafe fn norm_squared_avx512(a: &[f64]) -> f64 {
        norm_squared_impl(a)
    }
    pub(super) fn norm_squared(a: &[f64]) -> f64 {
        match level() {
            // SAFETY: level() verified the feature on this CPU.
            2 => unsafe { norm_squared_avx512(a) },
            1 => unsafe { norm_squared_avx2(a) },
            _ => norm_squared_impl(a),
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn distance_squared_avx2(a: &[f64], b: &[f64]) -> f64 {
        distance_squared_impl(a, b)
    }
    #[target_feature(enable = "avx512f")]
    unsafe fn distance_squared_avx512(a: &[f64], b: &[f64]) -> f64 {
        distance_squared_impl(a, b)
    }
    pub(super) fn distance_squared(a: &[f64], b: &[f64]) -> f64 {
        match level() {
            // SAFETY: level() verified the feature on this CPU.
            2 => unsafe { distance_squared_avx512(a, b) },
            1 => unsafe { distance_squared_avx2(a, b) },
            _ => distance_squared_impl(a, b),
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn lerp_norm_squared_avx2(a: &mut [f64], b: &[f64], t: f64) -> f64 {
        lerp_norm_squared_impl(a, b, t)
    }
    #[target_feature(enable = "avx512f")]
    unsafe fn lerp_norm_squared_avx512(a: &mut [f64], b: &[f64], t: f64) -> f64 {
        lerp_norm_squared_impl(a, b, t)
    }
    pub(super) fn lerp_norm_squared(a: &mut [f64], b: &[f64], t: f64) -> f64 {
        match level() {
            // SAFETY: level() verified the feature on this CPU.
            2 => unsafe { lerp_norm_squared_avx512(a, b, t) },
            1 => unsafe { lerp_norm_squared_avx2(a, b, t) },
            _ => lerp_norm_squared_impl(a, b, t),
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn kmeans_dp_argmin_avx2(
        prev: &[f64],
        pref: &[f64],
        pref_sq: &[f64],
        lo: usize,
        j: usize,
    ) -> (f64, usize) {
        kmeans_dp_argmin_impl(prev, pref, pref_sq, lo, j)
    }
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn kmeans_dp_argmin_avx512(
        prev: &[f64],
        pref: &[f64],
        pref_sq: &[f64],
        lo: usize,
        j: usize,
    ) -> (f64, usize) {
        kmeans_dp_argmin_impl(prev, pref, pref_sq, lo, j)
    }
    pub(super) fn kmeans_dp_argmin(
        prev: &[f64],
        pref: &[f64],
        pref_sq: &[f64],
        lo: usize,
        j: usize,
    ) -> (f64, usize) {
        match level() {
            // SAFETY: level() verified the feature on this CPU.
            2 => unsafe { kmeans_dp_argmin_avx512(prev, pref, pref_sq, lo, j) },
            1 => unsafe { kmeans_dp_argmin_avx2(prev, pref, pref_sq, lo, j) },
            _ => kmeans_dp_argmin_impl(prev, pref, pref_sq, lo, j),
        }
    }

    /// Every body of [`super::kmeans_dp_argmin`] this CPU can run,
    /// baseline first — the explicit per-level calls the dispatched
    /// entry point would only ever make one of.
    #[cfg(test)]
    pub(super) fn kmeans_dp_argmin_each_level(
        prev: &[f64],
        pref: &[f64],
        pref_sq: &[f64],
        lo: usize,
        j: usize,
    ) -> Vec<(f64, usize)> {
        let mut out = vec![kmeans_dp_argmin_impl(prev, pref, pref_sq, lo, j)];
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on this CPU just above.
            out.push(unsafe { kmeans_dp_argmin_avx2(prev, pref, pref_sq, lo, j) });
        }
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F was detected on this CPU just above.
            out.push(unsafe { kmeans_dp_argmin_avx512(prev, pref, pref_sq, lo, j) });
        }
        out
    }
}

/// Non-x86-64 targets: the portable bodies *are* the dispatch.
#[cfg(not(target_arch = "x86_64"))]
mod dispatch {
    pub(super) use super::distance_squared_impl as distance_squared;
    pub(super) use super::dot_impl as dot;
    pub(super) use super::kmeans_dp_argmin_impl as kmeans_dp_argmin;
    pub(super) use super::lerp_norm_squared_impl as lerp_norm_squared;
    pub(super) use super::norm_squared_impl as norm_squared;

    /// The portable body is the only level on this target.
    #[cfg(test)]
    pub(super) fn kmeans_dp_argmin_each_level(
        prev: &[f64],
        pref: &[f64],
        pref_sq: &[f64],
        lo: usize,
        j: usize,
    ) -> Vec<(f64, usize)> {
        vec![super::kmeans_dp_argmin_impl(prev, pref, pref_sq, lo, j)]
    }
}

/// Plain sum `Σ aᵢ`.
#[inline]
pub(crate) fn sum(a: &[f64]) -> f64 {
    let mut acc = [0.0_f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    for xa in &mut ca {
        for l in 0..LANES {
            acc[l] += xa[l];
        }
    }
    let mut tail = 0.0;
    for x in ca.remainder() {
        tail += x;
    }
    reduce(acc, tail)
}

/// Absolute-value sum `Σ |aᵢ|` (ℓ1 norm).
#[inline]
pub(crate) fn sum_abs(a: &[f64]) -> f64 {
    let mut acc = [0.0_f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    for xa in &mut ca {
        for l in 0..LANES {
            acc[l] += xa[l].abs();
        }
    }
    let mut tail = 0.0;
    for x in ca.remainder() {
        tail += x.abs();
    }
    reduce(acc, tail)
}

/// In-place `y ← y + α·x` over equal-length slices.
///
/// Purely element-wise, so the result equals the scalar loop exactly.
#[inline]
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    let mut cy = y.chunks_exact_mut(LANES);
    let mut cx = x.chunks_exact(LANES);
    for (ya, xa) in (&mut cy).zip(&mut cx) {
        for l in 0..LANES {
            ya[l] += alpha * xa[l];
        }
    }
    for (yv, xv) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yv += alpha * xv;
    }
}

/// Reduction-dimension tile for the blocked GEMM loops below. 32 columns
/// of `f64` per row block keeps four B-row panels (`GEMM_TILE_K` × 8 B)
/// comfortably inside L1 alongside the A row and output tile.
const GEMM_TILE_K: usize = 32;

/// Four dot products sharing one traversal of `a`: registers hold four
/// accumulator blocks while `a` streams through once, quartering the
/// `a`-side memory traffic of four [`dot`] calls. Each of the four results
/// accumulates in *exactly* [`dot`]'s lane-and-tail order, so every output
/// is bit-identical to the corresponding standalone `dot(a, bX)` call.
#[inline]
fn dot4(a: &[f64], b0: &[f64], b1: &[f64], b2: &[f64], b3: &[f64]) -> [f64; 4] {
    debug_assert!(
        a.len() == b0.len() && a.len() == b1.len() && a.len() == b2.len() && a.len() == b3.len()
    );
    let mut acc = [[0.0_f64; LANES]; 4];
    let blocks = a.len() / LANES * LANES;
    let mut base = 0;
    while base < blocks {
        for l in 0..LANES {
            let x = a[base + l];
            acc[0][l] += x * b0[base + l];
            acc[1][l] += x * b1[base + l];
            acc[2][l] += x * b2[base + l];
            acc[3][l] += x * b3[base + l];
        }
        base += LANES;
    }
    let mut tail = [0.0_f64; 4];
    for i in blocks..a.len() {
        let x = a[i];
        tail[0] += x * b0[i];
        tail[1] += x * b1[i];
        tail[2] += x * b2[i];
        tail[3] += x * b3[i];
    }
    [
        reduce(acc[0], tail[0]),
        reduce(acc[1], tail[1]),
        reduce(acc[2], tail[2]),
        reduce(acc[3], tail[3]),
    ]
}

/// GEMM (no-transpose × transpose): `out ← A·Bᵀ` where `A` is `m×k`,
/// `B` is `n×k` and `out` is `m×n`, all row-major.
///
/// Every output element is one [`dot`] of a row of `A` with a row of `B` —
/// the cache-friendly orientation for row-major storage, and bit-identical
/// to the per-sample `matvec` it batches. Output columns are processed
/// four at a time through `dot4`, which streams the `A` row through the
/// cache once per four `B` rows instead of once per row; `dot4` preserves
/// `dot`'s exact per-element accumulation order, so blocking changes only
/// *when* each output is computed, never its bits.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given shape.
pub fn gemm_nt(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_nt: A is not {m}x{k}");
    assert_eq!(b.len(), n * k, "gemm_nt: B is not {n}x{k}");
    assert_eq!(out.len(), m * n, "gemm_nt: out is not {m}x{n}");
    for (i, out_row) in out.chunks_exact_mut(n.max(1)).enumerate().take(m) {
        let a_row = &a[i * k..(i + 1) * k];
        let mut j = 0;
        while j + 4 <= n {
            let d = dot4(
                a_row,
                &b[j * k..(j + 1) * k],
                &b[(j + 1) * k..(j + 2) * k],
                &b[(j + 2) * k..(j + 3) * k],
                &b[(j + 3) * k..(j + 4) * k],
            );
            out_row[j..j + 4].copy_from_slice(&d);
            j += 4;
        }
        while j < n {
            out_row[j] = dot(a_row, &b[j * k..(j + 1) * k]);
            j += 1;
        }
    }
}

/// GEMM (no-transpose × no-transpose): `out ← A·B` where `A` is `m×k`,
/// `B` is `k×n` and `out` is `m×n`, all row-major.
///
/// Each output row is accumulated as `Σⱼ A[i][j]·B.row(j)` via [`axpy`],
/// so per-element additions happen in ascending `j` order — the same
/// order as the transposed mat-vec loop it batches. The `j` loop is tiled
/// in `GEMM_TILE_K`-row blocks of `B` with the row loop inside, so each
/// `B` panel stays cache-resident across all `m` output rows; for a fixed
/// output row the blocks still arrive in ascending `j` order, so the
/// accumulation order (and hence every bit) is unchanged.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given shape.
pub fn gemm_nn(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_nn: A is not {m}x{k}");
    assert_eq!(b.len(), k * n, "gemm_nn: B is not {k}x{n}");
    assert_eq!(out.len(), m * n, "gemm_nn: out is not {m}x{n}");
    out.fill(0.0);
    let mut j0 = 0;
    while j0 < k {
        let j1 = (j0 + GEMM_TILE_K).min(k);
        for (i, out_row) in out.chunks_exact_mut(n.max(1)).enumerate().take(m) {
            for j in j0..j1 {
                axpy(out_row, a[i * k + j], &b[j * n..(j + 1) * n]);
            }
        }
        j0 = j1;
    }
}

/// Accumulating GEMM (transpose × no-transpose): `out += Aᵀ·B` where `A`
/// is `m×k`, `B` is `m×n` and `out` is `k×n`, all row-major.
///
/// This is batched rank-1 accumulation — the gradient of a linear layer
/// over a minibatch (`∂L/∂W += δᵀ·inputs`). Samples (rows of `A`/`B`) are
/// walked in order, so each output element sees its per-sample
/// contributions in exactly the order a per-sample `rank1_update` loop
/// would produce. The output rows are tiled in `GEMM_TILE_K`-row blocks
/// with the sample loop inside, so each output panel stays cache-resident
/// across the whole minibatch; within one output element the sample order
/// is still ascending `i`, so the accumulated bits are unchanged.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given shape.
pub fn gemm_tn_acc(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_tn_acc: A is not {m}x{k}");
    assert_eq!(b.len(), m * n, "gemm_tn_acc: B is not {m}x{n}");
    assert_eq!(out.len(), k * n, "gemm_tn_acc: out is not {k}x{n}");
    let mut j0 = 0;
    while j0 < k {
        let j1 = (j0 + GEMM_TILE_K).min(k);
        for i in 0..m {
            let b_row = &b[i * n..(i + 1) * n];
            for j in j0..j1 {
                axpy(&mut out[j * n..(j + 1) * n], a[i * k + j], b_row);
            }
        }
        j0 = j1;
    }
}

/// Row-broadcast addition: adds `bias` to every `bias.len()`-wide row of
/// the row-major buffer `out`.
///
/// # Panics
///
/// Panics if `bias` is empty while `out` is not, or `out.len()` is not a
/// multiple of `bias.len()`.
pub fn add_row_broadcast(out: &mut [f64], bias: &[f64]) {
    if out.is_empty() {
        return;
    }
    assert!(
        !bias.is_empty() && out.len().is_multiple_of(bias.len()),
        "add_row_broadcast: buffer length {} is not a multiple of bias length {}",
        out.len(),
        bias.len()
    );
    for row in out.chunks_exact_mut(bias.len()) {
        axpy(row, 1.0, bias);
    }
}

/// Sequential left-to-right sum — the sanctioned home for every scalar
/// float reduction outside this module (lint rule `F3`).
///
/// Deliberately NOT the chunked tree: this is bit-identical to the
/// `Iterator::sum` left fold that the workspace's goldens were recorded
/// under, so migrating an ad-hoc `xs.iter().sum::<f64>()` call here changes
/// where the reduction lives without changing a single bit of its result.
/// New throughput-critical code should prefer [`dot`] / the tree kernels;
/// this entry point exists to make reduction *order* auditable in one
/// place, not to make summation fast.
#[inline]
pub fn sum_seq(values: impl IntoIterator<Item = f64>) -> f64 {
    // std's `Sum<f64>` identity is -0.0 (so an empty sum is -0.0, and a
    // sum of negative zeros stays -0.0); seed identically or the
    // bit-for-bit claim above is false in exactly those edge cases.
    let mut acc = -0.0_f64;
    for v in values {
        acc += v;
    }
    acc
}

/// Arithmetic mean via [`sum_seq`] (empty input → `0.0`).
///
/// Same order contract as [`sum_seq`]: bit-identical to the
/// `xs.iter().sum::<f64>() / xs.len() as f64` idiom it replaces.
#[inline]
pub fn mean_seq(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sum_seq(values.iter().copied()) / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn data(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        (a, b)
    }

    #[test]
    fn kernels_match_naive_reductions() {
        // Cover empty, sub-lane, exact-lane, and lane+tail lengths.
        for n in [0, 1, 7, 8, 9, 16, 63, 64, 65, 330] {
            let (a, b) = data(n);
            let tol = 1e-12 * (n.max(1) as f64);
            assert!((dot(&a, &b) - naive_dot(&a, &b)).abs() < tol, "dot n={n}");
            assert!(
                (norm_squared(&a) - naive_dot(&a, &a)).abs() < tol,
                "norm_squared n={n}"
            );
            let naive_dist: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>();
            assert!(
                (distance_squared(&a, &b) - naive_dist).abs() < tol,
                "distance_squared n={n}"
            );
            assert!((sum(&a) - a.iter().sum::<f64>()).abs() < tol, "sum n={n}");
            assert!(
                (sum_abs(&a) - a.iter().map(|x| x.abs()).sum::<f64>()).abs() < tol,
                "sum_abs n={n}"
            );
        }
    }

    #[test]
    fn kernels_are_run_to_run_deterministic() {
        // Same input → bit-identical output: the reduction order is fixed.
        let (a, b) = data(1001);
        let first = dot(&a, &b);
        for _ in 0..8 {
            assert_eq!(first.to_bits(), dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn simd_dispatch_is_bit_identical_to_portable_bodies() {
        // The public entry points run whatever ISA level the host
        // supports; the `*_impl` calls are the baseline bodies. Wider
        // registers may only change speed, never a single bit.
        for n in [0usize, 1, 7, 8, 9, 16, 63, 64, 65, 330, 1001] {
            let (a, b) = data(n);
            assert_eq!(dot(&a, &b).to_bits(), dot_impl(&a, &b).to_bits(), "n={n}");
            assert_eq!(
                norm_squared(&a).to_bits(),
                norm_squared_impl(&a).to_bits(),
                "n={n}"
            );
            assert_eq!(
                distance_squared(&a, &b).to_bits(),
                distance_squared_impl(&a, &b).to_bits(),
                "n={n}"
            );
            let mut fast = a.clone();
            let mut slow = a.clone();
            let fast_n = lerp_norm_squared(&mut fast, &b, 0.2);
            let slow_n = lerp_norm_squared_impl(&mut slow, &b, 0.2);
            assert_eq!(fast_n.to_bits(), slow_n.to_bits(), "n={n}");
            for (x, y) in fast.iter().zip(&slow) {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n}");
            }
        }
    }

    /// The strict-`<` scan `kmeans_dp_argmin` replaces, cell for cell.
    fn kmeans_dp_argmin_scan(
        prev: &[f64],
        pref: &[f64],
        pref_sq: &[f64],
        lo: usize,
        j: usize,
    ) -> (f64, usize) {
        let mut min = (f64::INFINITY, 0);
        for m in lo..j {
            let len = (j - m) as f64;
            let s = pref[j] - pref[m];
            let cost = prev[m] + ((pref_sq[j] - pref_sq[m]) - s * s / len).max(0.0);
            if cost < min.0 {
                min = (cost, m);
            }
        }
        min
    }

    #[test]
    fn kmeans_dp_argmin_levels_are_bit_identical_to_the_scalar_scan() {
        // Prefix sums of continuous, few-level (exactly tied costs) and
        // overflowing (∞ − ∞ cells) inputs, with a DP row that holds
        // repeated values and +∞. Every (lo, j) window length from empty
        // through several lane blocks plus each tail length is covered.
        let n = 80;
        let inputs: [Vec<f64>; 3] = [
            (0..n).map(|i| (i as f64 * 0.37).sin()).collect(),
            (0..n).map(|i| f64::from(i as u32 % 3)).collect(),
            (0..n)
                .map(|i| if i % 7 == 3 { 1e200 } else { 0.5 })
                .collect(),
        ];
        for xs in &inputs {
            let mut pref = vec![0.0; n + 1];
            let mut pref_sq = vec![0.0; n + 1];
            for i in 0..n {
                pref[i + 1] = pref[i] + xs[i];
                pref_sq[i + 1] = pref_sq[i] + xs[i] * xs[i];
            }
            let prev: Vec<f64> = (0..=n)
                .map(|m| match m % 11 {
                    0 => f64::INFINITY,
                    1 | 2 => 0.25,
                    _ => (m as f64 * 0.11).cos().abs(),
                })
                .collect();
            for lo in [0, 1, 3, 8] {
                for j in lo..=n {
                    let want = kmeans_dp_argmin_scan(&prev, &pref, &pref_sq, lo, j);
                    let levels =
                        dispatch::kmeans_dp_argmin_each_level(&prev, &pref, &pref_sq, lo, j);
                    let got = kmeans_dp_argmin(&prev, &pref, &pref_sq, lo, j);
                    for (level, r) in levels.iter().chain(std::iter::once(&got)).enumerate() {
                        assert_eq!(
                            (r.0.to_bits(), r.1),
                            (want.0.to_bits(), want.1),
                            "level {level} lo={lo} j={j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lerp_norm_squared_fuses_without_changing_bits() {
        // The fused kernel must equal lerp-then-norm exactly: same
        // element-wise formula, same lane-and-tail accumulation order.
        for n in [0usize, 1, 7, 8, 9, 16, 65, 330] {
            let (a, b) = data(n);
            for t in [0.0, 0.2, 0.5, 1.0, -0.25, 1.5] {
                let mut fused = a.clone();
                let fused_norm = lerp_norm_squared(&mut fused, &b, t);
                let two_pass: Vec<f64> = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| (1.0 - t) * x + t * y)
                    .collect();
                for (x, y) in fused.iter().zip(&two_pass) {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} t={t}");
                }
                assert_eq!(
                    fused_norm.to_bits(),
                    norm_squared(&two_pass).to_bits(),
                    "n={n} t={t}"
                );
            }
        }
    }

    fn naive_gemm(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    out[i * n + j] += a[i * k + l] * b[l * n + j];
                }
            }
        }
        out
    }

    fn transpose(a: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        let mut out = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = a[r * cols + c];
            }
        }
        out
    }

    #[test]
    fn gemm_variants_agree_with_naive_products() {
        for (m, k, n) in [(1, 1, 1), (3, 4, 2), (5, 8, 7), (2, 17, 9), (4, 1, 3)] {
            let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.13).sin()).collect();
            let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.29).cos()).collect();
            let want = naive_gemm(&a, &b, m, k, n);
            let tol = 1e-12 * (k as f64);

            let mut nn = vec![0.0; m * n];
            gemm_nn(&mut nn, &a, &b, m, k, n);
            let mut nt = vec![0.0; m * n];
            gemm_nt(&mut nt, &a, &transpose(&b, k, n), m, k, n);
            let mut tn = vec![0.0; m * n];
            gemm_tn_acc(&mut tn, &transpose(&a, m, k), &b, k, m, n);
            for i in 0..m * n {
                assert!((nn[i] - want[i]).abs() < tol, "gemm_nn {m}x{k}x{n} @{i}");
                assert!((nt[i] - want[i]).abs() < tol, "gemm_nt {m}x{k}x{n} @{i}");
                assert!(
                    (tn[i] - want[i]).abs() < tol,
                    "gemm_tn_acc {m}x{k}x{n} @{i}"
                );
            }
        }
    }

    #[test]
    fn gemm_tn_acc_accumulates_instead_of_overwriting() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        // m=2 samples, k=1, n=1: out += Σ aᵢ·bᵢ = 11.
        let mut out = [100.0];
        gemm_tn_acc(&mut out, &a, &b, 2, 1, 1);
        assert_eq!(out[0], 111.0);
    }

    #[test]
    fn gemm_nt_batches_the_per_row_dot() {
        // One row of gemm_nt must equal dot() bit-for-bit: the batched
        // forward pass may not perturb the per-sample arithmetic.
        let a: Vec<f64> = (0..23).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..23).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut out = [0.0];
        gemm_nt(&mut out, &a, &b, 1, 23, 1);
        assert_eq!(out[0].to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn dot4_matches_dot_bitwise() {
        for len in [0usize, 1, 3, 8, 9, 16, 70, 257] {
            let (a, b0) = data(len);
            let b1: Vec<f64> = b0.iter().map(|x| x * 1.5 - 0.25).collect();
            let b2: Vec<f64> = b0.iter().map(|x| -x * 0.75).collect();
            let b3: Vec<f64> = b0.iter().map(|x| x + 0.125).collect();
            let got = dot4(&a, &b0, &b1, &b2, &b3);
            for (g, b) in got.iter().zip([&b0, &b1, &b2, &b3]) {
                assert_eq!(g.to_bits(), dot(&a, b).to_bits(), "len={len}");
            }
        }
    }

    /// The tiled/blocked GEMMs must be bit-identical to the untiled loops
    /// they replaced — blocking may only reorder which output element is
    /// computed when, never the accumulation order within one element.
    /// Shapes straddle both blocking factors (4-wide dot4 columns,
    /// `GEMM_TILE_K`-deep reduction tiles).
    #[test]
    fn gemm_tiling_is_bit_identical_to_untiled_loops() {
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 4),
            (2, 31, 5),
            (3, 32, 9),
            (2, 33, 11),
            (4, 70, 6),
            (5, 64, 3),
        ] {
            let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.13).sin()).collect();
            let b_kn: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.29).cos()).collect();
            let b_nk = transpose(&b_kn, k, n);

            // gemm_nt vs. one dot per output element.
            let mut nt = vec![0.0; m * n];
            gemm_nt(&mut nt, &a, &b_nk, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let want = dot(&a[i * k..(i + 1) * k], &b_nk[j * k..(j + 1) * k]);
                    assert_eq!(
                        nt[i * n + j].to_bits(),
                        want.to_bits(),
                        "gemm_nt {m}x{k}x{n} @({i},{j})"
                    );
                }
            }

            // gemm_nn vs. the untiled ascending-j axpy loop.
            let mut nn = vec![0.0; m * n];
            gemm_nn(&mut nn, &a, &b_kn, m, k, n);
            let mut nn_ref = vec![0.0; m * n];
            for i in 0..m {
                for j in 0..k {
                    axpy(
                        &mut nn_ref[i * n..(i + 1) * n],
                        a[i * k + j],
                        &b_kn[j * n..(j + 1) * n],
                    );
                }
            }
            for (got, want) in nn.iter().zip(&nn_ref) {
                assert_eq!(got.to_bits(), want.to_bits(), "gemm_nn {m}x{k}x{n}");
            }

            // gemm_tn_acc vs. the untiled ascending-sample axpy loop,
            // including a nonzero starting accumulator.
            let a_t = transpose(&a, m, k);
            let b_mn: Vec<f64> = (0..m * n).map(|i| (i as f64 * 0.41).sin()).collect();
            let seed: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.07).cos()).collect();
            let mut tn = seed.clone();
            gemm_tn_acc(&mut tn, &a_t, &b_mn, m, k, n);
            let mut tn_ref = seed;
            for i in 0..m {
                let b_row = &b_mn[i * n..(i + 1) * n];
                for j in 0..k {
                    axpy(&mut tn_ref[j * n..(j + 1) * n], a_t[i * k + j], b_row);
                }
            }
            for (got, want) in tn.iter().zip(&tn_ref) {
                assert_eq!(got.to_bits(), want.to_bits(), "gemm_tn_acc {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let mut out = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        add_row_broadcast(&mut out, &[10.0, 20.0]);
        assert_eq!(out, [11.0, 22.0, 13.0, 24.0, 15.0, 26.0]);
        let mut empty: [f64; 0] = [];
        add_row_broadcast(&mut empty, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "gemm_nn: A is not")]
    fn gemm_nn_shape_mismatch_panics() {
        let mut out = [0.0; 4];
        gemm_nn(&mut out, &[1.0; 3], &[1.0; 4], 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "gemm_nt: B is not")]
    fn gemm_nt_shape_mismatch_panics() {
        let mut out = [0.0; 4];
        gemm_nt(&mut out, &[1.0; 4], &[1.0; 3], 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "gemm_tn_acc: out is not")]
    fn gemm_tn_acc_shape_mismatch_panics() {
        let mut out = [0.0; 3];
        gemm_tn_acc(&mut out, &[1.0; 4], &[1.0; 4], 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "multiple of bias length")]
    fn add_row_broadcast_ragged_panics() {
        let mut out = [0.0; 5];
        add_row_broadcast(&mut out, &[1.0, 2.0]);
    }

    #[test]
    fn sum_seq_matches_iterator_sum_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 65, 330] {
            let (a, _) = data(n);
            let theirs: f64 = a.iter().sum();
            assert_eq!(
                sum_seq(a.iter().copied()).to_bits(),
                theirs.to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn mean_seq_matches_naive_idiom_bitwise() {
        assert_eq!(mean_seq(&[]), 0.0);
        for n in [1usize, 7, 8, 9, 65, 330] {
            let (a, _) = data(n);
            let naive = a.iter().sum::<f64>() / a.len() as f64;
            assert_eq!(mean_seq(&a).to_bits(), naive.to_bits(), "n={n}");
        }
    }

    #[test]
    fn axpy_matches_scalar_loop() {
        for n in [0, 1, 7, 8, 9, 65, 330] {
            let (a, b) = data(n);
            let mut fast = a.clone();
            axpy(&mut fast, 0.75, &b);
            let slow: Vec<f64> = a.iter().zip(&b).map(|(y, x)| y + 0.75 * x).collect();
            // Element-wise op: must be *exactly* the same, not just close.
            assert_eq!(fast, slow, "axpy n={n}");
        }
    }
}
