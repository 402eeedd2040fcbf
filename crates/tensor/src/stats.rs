//! Summary statistics over scalars and collections of vectors.
//!
//! The robust-aggregation baselines (coordinate-wise Median and Trimmed-Mean,
//! Yin et al. 2018) are thin wrappers over these kernels; the attack
//! implementations (LIE, Min-Max, Min-Sum) use the per-coordinate mean and
//! standard deviation of benign updates.

use crate::{kernels, Vector};

/// Arithmetic mean of a scalar slice; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        kernels::sum_seq(xs.iter().copied()) / xs.len() as f64
    }
}

/// Population variance of a scalar slice; `0.0` for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    kernels::sum_seq(xs.iter().map(|x| (x - m) * (x - m))) / xs.len() as f64
}

/// Population standard deviation of a scalar slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median of a scalar slice; `0.0` for an empty slice. Uses the midpoint of
/// the two central order statistics for even lengths. NaNs sort to the high
/// end under `total_cmp` rather than panicking.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2] // lint:allow(P2) -- n >= 1 after the empty guard, so n/2 < n
    } else {
        // lint:allow(P2) -- even n here is >= 2, so n/2 - 1 and n/2 are in bounds
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Mean vector of a collection of equal-dimension vectors.
///
/// Returns `None` for an empty collection.
///
/// # Panics
///
/// Panics if the vectors have differing dimensions.
pub fn mean_vector(vectors: &[Vector]) -> Option<Vector> {
    let first = vectors.first()?;
    let mut acc = Vector::zeros(first.len());
    for v in vectors {
        acc.axpy(1.0, v);
    }
    acc.scale(1.0 / vectors.len() as f64);
    Some(acc)
}

/// Coordinate-wise standard deviation of a collection of vectors.
///
/// Returns `None` for an empty collection. With a single vector the result is
/// the zero vector.
///
/// # Panics
///
/// Panics if the vectors have differing dimensions.
pub fn std_vector(vectors: &[Vector]) -> Option<Vector> {
    let mu = mean_vector(vectors)?;
    let n = vectors.len() as f64;
    let mut acc = Vector::zeros(mu.len());
    for v in vectors {
        let d = v - &mu;
        acc.axpy(1.0, &d.hadamard(&d));
    }
    acc.scale(1.0 / n);
    acc.map_in_place(f64::sqrt);
    Some(acc)
}

/// Coordinate-wise median of a collection of vectors (the Median aggregation
/// rule of Yin et al. 2018).
///
/// Accepts any iterator of borrowed vectors, like [`trimmed_mean_vector`].
///
/// Returns `None` for an empty collection.
///
/// # Panics
///
/// Panics if the vectors have differing dimensions or contain NaN.
pub fn median_vector<'a, I>(vectors: I) -> Option<Vector>
where
    I: IntoIterator<Item = &'a Vector>,
{
    let vectors: Vec<&Vector> = vectors.into_iter().collect();
    let first = vectors.first()?;
    let dim = first.len();
    let mut column = vec![0.0; vectors.len()];
    let mut out = Vector::zeros(dim);
    for (d, o) in out.iter_mut().enumerate() {
        for (c, v) in column.iter_mut().zip(&vectors) {
            *c = v[d]; // lint:allow(P2) -- equal dims are this function's documented contract
        }
        *o = median(&column);
    }
    Some(out)
}

/// Coordinate-wise β-trimmed mean (the Trimmed-Mean aggregation rule of Yin
/// et al. 2018): for each coordinate, drop the `trim` largest and `trim`
/// smallest values, then average the rest.
///
/// Accepts any iterator of *borrowed* vectors (`&[Vector]`, a `Vec<&Vector>`,
/// or a `map` over update fields), so hot-path callers never clone full
/// parameter vectors just to build the input slice — only an O(n) buffer of
/// references is gathered internally.
///
/// Returns `None` for an empty collection.
///
/// Values are ordered by `f64::total_cmp`, so NaNs sort to the high end
/// (negative-signed NaNs to the low end) and land in the trimmed tails
/// whenever `trim > 0`. Each coordinate costs two selections plus a sort of
/// the kept middle only, and that middle is summed in ascending order — the
/// exact result of sorting the whole column and summing its middle.
///
/// Columns are gathered eight coordinates at a time: one sweep over the
/// vectors reads a block of contiguous coordinates from each (one cache
/// line) into an `8 × n` key buffer, and each of the block's columns is
/// then selected and sorted as above.
///
/// # Panics
///
/// Panics if `2 * trim >= vectors.len()` (nothing would remain) or if the
/// vectors have differing dimensions.
pub fn trimmed_mean_vector<'a, I>(vectors: I, trim: usize) -> Option<Vector>
where
    I: IntoIterator<Item = &'a Vector>,
{
    let vectors: Vec<&Vector> = vectors.into_iter().collect();
    let first = vectors.first()?;
    let n = vectors.len();
    assert!(
        2 * trim < n,
        "trimmed_mean: trim {trim} leaves no samples out of {n}"
    );
    let dim = first.len();
    let kept = n - 2 * trim;
    // Column `j` of the current block is `keys[j·n .. (j+1)·n]`.
    let mut keys = vec![0u64; TRIM_GATHER_BLOCK * n];
    let mut out = Vector::zeros(dim);
    for (lo, out_block) in (0..)
        .step_by(TRIM_GATHER_BLOCK)
        .zip(out.as_mut_slice().chunks_mut(TRIM_GATHER_BLOCK))
    {
        let width = out_block.len();
        for (i, v) in vectors.iter().enumerate() {
            // lint:allow(P2) -- equal dims are this function's documented contract
            let coords = &v.as_slice()[lo..lo + width];
            for (j, &x) in coords.iter().enumerate() {
                keys[j * n + i] = order_key(x); // lint:allow(P2) -- j < TRIM_GATHER_BLOCK and i < n
            }
        }
        for (column, o) in keys.chunks_exact_mut(n).zip(out_block.iter_mut()) {
            if trim > 0 {
                // The `trim` largest keys to the top, then the `trim`
                // smallest of the rest to the bottom.
                column.select_nth_unstable(n - trim);
                // lint:allow(P2) -- 2·trim < n (asserted above), so trim < n − trim ≤ n
                column[..n - trim].select_nth_unstable(trim);
            }
            // lint:allow(P2) -- 2·trim < n (asserted above)
            let middle = &mut column[trim..n - trim];
            // Equal keys are equal bit patterns, so an unstable sort leaves
            // the same sequence as a stable one.
            middle.sort_unstable();
            *o = kernels::sum_seq(middle.iter().map(|&k| from_order_key(k))) / kept as f64;
        }
    }
    Some(out)
}

/// Coordinates [`trimmed_mean_vector`] gathers per sweep over its input
/// vectors: eight `f64`, one 64-byte cache line of each vector.
const TRIM_GATHER_BLOCK: usize = 8;

/// Maps `x` to a `u64` whose unsigned order is `f64::total_cmp` order:
/// flip every bit of a negative value (so larger magnitudes sort lower)
/// and only the sign bit of a positive one (so it sorts above every
/// negative).
#[inline]
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    let sign_fill = ((bits as i64) >> 63) as u64;
    bits ^ (sign_fill | (1 << 63))
}

/// Inverse of [`order_key`].
#[inline]
fn from_order_key(k: u64) -> f64 {
    let negative_fill = (((!k) as i64) >> 63) as u64;
    f64::from_bits(k ^ (negative_fill | (1 << 63)))
}

/// Coordinates per block of [`weighted_mean_vector`]'s stack accumulator:
/// 8 KiB of `f64`, so the accumulator stays in L1 while every input
/// vector's slice of the block streams through it once.
pub const WEIGHTED_MEAN_BLOCK: usize = 1024;

/// `base + Σᵢ (wᵢ/W)·vᵢ` with `W = Σᵢ wᵢ`: the weighted mean of `vectors`
/// added to `base` — a FedBuff-style server's next global model from its
/// accepted deltas.
///
/// Accepts any iterator of borrowed vectors, like [`trimmed_mean_vector`].
/// Weights are normalized internally; a total weight `W ≤ 0` contributes
/// nothing, so every coordinate is `base[j] + 0.0`. Returns `None` for an
/// empty collection.
///
/// Works one [`WEIGHTED_MEAN_BLOCK`] of coordinates at a time: a zeroed
/// stack accumulator receives `acc += (wᵢ/W)·vᵢ` for each vector in
/// order, then `base[j] + acc[j]` goes into the output. Every coordinate
/// therefore sees the same float operations, in the same order, as
/// accumulating whole vectors into a zero vector and adding it to `base`,
/// while the output is the only allocation proportional to the dimension.
///
/// # Panics
///
/// Panics if `weights.len()` differs from the number of vectors, or if
/// any vector's dimension differs from `base`'s.
pub fn weighted_mean_vector<'a, I>(base: &Vector, vectors: I, weights: &[f64]) -> Option<Vector>
where
    I: IntoIterator<Item = &'a Vector>,
{
    let vectors: Vec<&Vector> = vectors.into_iter().collect();
    if vectors.is_empty() {
        return None;
    }
    assert_eq!(
        vectors.len(),
        weights.len(),
        "weighted_mean: {} vectors but {} weights",
        vectors.len(),
        weights.len()
    );
    let dim = base.len();
    for v in &vectors {
        assert_eq!(
            v.len(),
            dim,
            "weighted_mean: dimension mismatch ({} vs {dim})",
            v.len()
        );
    }
    let total = kernels::sum_seq(weights.iter().copied());
    // `W ≤ 0` leaves the accumulator zero; a NaN `W` is not skipped, so it
    // reaches the output through the weights.
    let contributes = total > 0.0 || total.is_nan();
    let mut out = Vec::with_capacity(dim);
    let mut acc = [0.0; WEIGHTED_MEAN_BLOCK];
    for (lo, base_block) in (0..)
        .step_by(WEIGHTED_MEAN_BLOCK)
        .zip(base.as_slice().chunks(WEIGHTED_MEAN_BLOCK))
    {
        let hi = lo + base_block.len();
        // lint:allow(P2) -- a chunk holds at most WEIGHTED_MEAN_BLOCK coordinates
        let block = &mut acc[..base_block.len()];
        block.fill(0.0);
        if contributes {
            for (v, &w) in vectors.iter().zip(weights) {
                // lint:allow(P2) -- every vector has `dim` coordinates (asserted above)
                kernels::axpy(block, w / total, &v.as_slice()[lo..hi]);
            }
        }
        out.extend(base_block.iter().zip(block.iter()).map(|(g, a)| g + a));
    }
    Some(Vector::from(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vecs(rows: &[&[f64]]) -> Vec<Vector> {
        rows.iter().map(|r| Vector::from(*r)).collect()
    }

    #[test]
    fn scalar_stats() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn mean_vector_basics() {
        assert_eq!(mean_vector(&[]), None);
        let m = mean_vector(&vecs(&[&[1.0, 0.0], &[3.0, 2.0]])).unwrap();
        assert_eq!(m.as_slice(), &[2.0, 1.0]);
    }

    #[test]
    fn std_vector_basics() {
        assert_eq!(std_vector(&[]), None);
        let s = std_vector(&vecs(&[&[1.0, 5.0], &[3.0, 5.0]])).unwrap();
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert_eq!(s[1], 0.0);
    }

    #[test]
    fn median_vector_resists_outlier() {
        let vs = vecs(&[&[1.0], &[2.0], &[1000.0]]);
        let m = median_vector(&vs).unwrap();
        assert_eq!(m[0], 2.0);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let vs = vecs(&[&[-100.0], &[1.0], &[2.0], &[3.0], &[100.0]]);
        let m = trimmed_mean_vector(&vs, 1).unwrap();
        assert_eq!(m[0], 2.0);
    }

    #[test]
    #[should_panic(expected = "trim")]
    fn trimmed_mean_overtrim_panics() {
        let vs = vecs(&[&[1.0], &[2.0]]);
        let _ = trimmed_mean_vector(&vs, 1);
    }

    #[test]
    fn weighted_mean_normalizes() {
        let vs = vecs(&[&[0.0], &[10.0]]);
        let zero = Vector::zeros(1);
        let m = weighted_mean_vector(&zero, &vs, &[1.0, 3.0]).unwrap();
        assert!((m[0] - 7.5).abs() < 1e-12);
        let z = weighted_mean_vector(&zero, &vs, &[0.0, 0.0]).unwrap();
        assert_eq!(z[0], 0.0);
        assert_eq!(weighted_mean_vector(&zero, &[], &[]), None);
        let shifted = weighted_mean_vector(&Vector::from(vec![2.0]), &vs, &[1.0, 3.0]).unwrap();
        assert!((shifted[0] - 9.5).abs() < 1e-12);
    }

    /// The sort-everything trimmed mean `trimmed_mean_vector` replaced:
    /// a stable `total_cmp` sort per coordinate, middle summed in order.
    fn trimmed_mean_by_sorting(vectors: &[Vector], trim: usize) -> Vector {
        let n = vectors.len();
        let mut out = Vector::zeros(vectors[0].len());
        for (d, o) in out.iter_mut().enumerate() {
            let mut column: Vec<f64> = vectors.iter().map(|v| v[d]).collect();
            column.sort_by(f64::total_cmp);
            *o = kernels::sum_seq(column.iter().skip(trim).take(n - 2 * trim).copied())
                / (n - 2 * trim) as f64;
        }
        out
    }

    /// Signed zeros, subnormals, infinities, NaNs with both signs and
    /// distinct payloads, extremes and ordinary values.
    fn awkward_values() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_dead_beef),
            f64::from_bits(0x7ff8_0000_0000_002a),
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            0.1,
            -2.5,
            1e-300,
            -7e300,
        ]
    }

    #[test]
    fn order_key_sorts_like_total_cmp_and_round_trips() {
        let mut xs = awkward_values();
        xs.extend((0..64).map(|i| (f64::from(i) * 1.7).sin() * 10f64.powi(i % 9 - 4)));
        for &a in &xs {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits());
            for &b in &xs {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    #[test]
    fn trimmed_mean_matches_full_sort_bitwise() {
        // Every n in 1..=40 at every legal trim, over columns mixing the
        // awkward values with duplicates and ordinary values; NaN and ∞
        // results must carry the same bits too.
        let pool = awkward_values();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 1..=40 {
            let vectors: Vec<Vector> = (0..n)
                .map(|_| {
                    Vector::from_fn(12, |d| match next() % 4 {
                        // Coordinate 0 draws from a few values only, so its
                        // column is full of exact duplicates.
                        _ if d == 0 => f64::from((next() % 3) as u32) - 1.0,
                        0 | 1 => pool[(next() % pool.len() as u64) as usize],
                        _ => (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                    })
                })
                .collect();
            for trim in 0..=(n - 1) / 2 {
                let fast = trimmed_mean_vector(&vectors, trim).unwrap();
                let reference = trimmed_mean_by_sorting(&vectors, trim);
                for (a, b) in fast.iter().zip(reference.iter()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "n={n} trim={trim}: {a:e} vs {b:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_gather_matches_the_per_coordinate_reference_bitwise() {
        // Dimensions below, at and across the gather block, and the paper
        // model's 330; columns with exact ties (a three-value coordinate),
        // NaN, infinities and signed zeros.
        let pool = awkward_values();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for dim in [1, 7, 8, 9, 330] {
            for n in [1, 2, 5, 16, 33] {
                let vectors: Vec<Vector> = (0..n)
                    .map(|_| {
                        Vector::from_fn(dim, |d| match next() % 4 {
                            _ if d % 3 == 0 => f64::from((next() % 3) as u32) - 1.0,
                            0 => pool[(next() % pool.len() as u64) as usize],
                            _ => (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                        })
                    })
                    .collect();
                for trim in [0, (n - 1) / 4, (n - 1) / 2] {
                    let fast = trimmed_mean_vector(&vectors, trim).unwrap();
                    let reference = trimmed_mean_by_sorting(&vectors, trim);
                    assert_eq!(fast.len(), dim);
                    for (d, (a, b)) in fast.iter().zip(reference.iter()).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "dim={dim} n={n} trim={trim} coordinate {d}: {a:e} vs {b:e}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_median_between_min_max(xs in proptest::collection::vec(-1e6..1e6f64, 1..64)) {
            let m = median(&xs);
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo && m <= hi);
        }

        #[test]
        fn prop_mean_vector_is_minimizer_gradient_zero(
            rows in proptest::collection::vec(
                proptest::collection::vec(-100.0..100.0f64, 4), 1..16),
        ) {
            // The mean minimizes sum of squared distances: gradient Σ (m - xᵢ) = 0.
            let vs: Vec<Vector> = rows.into_iter().map(Vector::from).collect();
            let m = mean_vector(&vs).unwrap();
            let mut grad = Vector::zeros(4);
            for v in &vs {
                grad += &(&m - v);
            }
            prop_assert!(grad.norm() < 1e-6);
        }

        #[test]
        fn prop_trimmed_mean_trim_zero_equals_mean(
            rows in proptest::collection::vec(
                proptest::collection::vec(-100.0..100.0f64, 3), 1..16),
        ) {
            let vs: Vec<Vector> = rows.into_iter().map(Vector::from).collect();
            let a = trimmed_mean_vector(&vs, 0).unwrap();
            let b = mean_vector(&vs).unwrap();
            prop_assert!(a.distance(&b) < 1e-9);
        }

        #[test]
        fn prop_weighted_mean_uniform_weights_equals_mean(
            rows in proptest::collection::vec(
                proptest::collection::vec(-100.0..100.0f64, 3), 1..16),
        ) {
            let vs: Vec<Vector> = rows.into_iter().map(Vector::from).collect();
            let w = vec![1.0; vs.len()];
            let a = weighted_mean_vector(&Vector::zeros(3), &vs, &w).unwrap();
            let b = mean_vector(&vs).unwrap();
            prop_assert!(a.distance(&b) < 1e-9);
        }
    }
}
