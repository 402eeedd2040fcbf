//! Exact one-dimensional k-means via dynamic programming.
//!
//! One-dimensional k-means has optimal clusterings whose clusters are
//! contiguous intervals of the sorted input. Dynamic programming over the
//! sorted values therefore finds the *global* optimum in `O(k·n²)`: about
//! `(k−2)·n²/2` interval-cost evaluations plus `O(k·n)` for `k ≥ 2`, since
//! the last DP row needs only its final cell — `n²/2` at AsyncFilter's
//! `k = 3`, and `O(n)` at FLDetector's `k = 2`. Each DP cell is one call of
//! [`kernels::kmeans_dp_argmin`], which evaluates eight candidate splits
//! per step (one division each, so division throughput bounds it) and is
//! bit-identical to the scalar scan. At paper buffer sizes (Ω ≤ a few
//! hundred) a call takes microseconds; at the million-client workload's
//! Ω = 8192 it is 33.5 M cells, ~27 ms on one AVX-512 Xeon core. Unlike
//! Lloyd iterations it is fully deterministic, which the reproducible-mode
//! guarantees inherited from the paper's PLATO setup need.

use asyncfl_tensor::kernels;

/// Result of an exact 1-D k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans1dResult {
    /// Cluster index per input point (same order as the input), with cluster
    /// indices ordered by ascending centroid: cluster `0` has the smallest
    /// mean, cluster `k−1` the largest.
    pub assignments: Vec<usize>,
    /// Cluster means, ascending.
    pub centroids: Vec<f64>,
    /// Number of points per cluster.
    pub sizes: Vec<usize>,
    /// Total within-cluster sum of squared deviations.
    pub inertia: f64,
}

impl KMeans1dResult {
    /// Index of the cluster with the largest centroid that is non-empty.
    ///
    /// All clusters produced by [`kmeans_1d`] are non-empty when
    /// `k <= number of distinct values`; with fewer distinct values,
    /// higher clusters may be empty and are skipped.
    pub fn highest_cluster(&self) -> usize {
        (0..self.centroids.len())
            .rev()
            .find(|&c| self.sizes[c] > 0)
            .unwrap_or(0)
    }

    /// Index of the non-empty cluster with the smallest centroid.
    pub fn lowest_cluster(&self) -> usize {
        (0..self.centroids.len())
            .find(|&c| self.sizes[c] > 0)
            .unwrap_or(0)
    }

    /// Number of clusters requested (including any empty ones).
    pub fn k(&self) -> usize {
        self.centroids.len()
    }
}

/// Exact k-means on scalars.
///
/// Returns globally optimal clusters (minimum within-cluster sum of squares).
/// If there are fewer distinct values than `k`, the surplus clusters are
/// empty (size 0, centroid `NaN`-free: set to the overall maximum).
///
/// # Panics
///
/// Panics if `values` is empty, `k == 0`, or any value is non-finite.
///
/// ```
/// use asyncfl_clustering::one_dim::kmeans_1d;
/// let r = kmeans_1d(&[1.0, 1.1, 5.0, 5.1], 2);
/// assert_eq!(r.assignments, vec![0, 0, 1, 1]);
/// assert!(r.inertia < 0.02);
/// ```
#[allow(clippy::needless_range_loop)] // DP tables are indexed in lockstep
pub fn kmeans_1d(values: &[f64], k: usize) -> KMeans1dResult {
    assert!(!values.is_empty(), "kmeans_1d: empty input");
    assert!(k > 0, "kmeans_1d: k must be positive");
    assert!(
        values.iter().all(|v| v.is_finite()),
        "kmeans_1d: non-finite value in input"
    );
    let n = values.len();
    // Sort once, remembering original positions.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();

    // Prefix sums for O(1) interval cost queries.
    let mut pref = vec![0.0; n + 1];
    let mut pref_sq = vec![0.0; n + 1];
    for i in 0..n {
        pref[i + 1] = pref[i] + sorted[i];
        pref_sq[i + 1] = pref_sq[i] + sorted[i] * sorted[i];
    }
    // Cost of clustering sorted[i..j] (half-open) into one cluster.
    let interval_cost = |i: usize, j: usize| -> f64 {
        if j <= i {
            return 0.0;
        }
        let len = (j - i) as f64;
        let sum = pref[j] - pref[i];
        ((pref_sq[j] - pref_sq[i]) - sum * sum / len).max(0.0)
    };

    let kk = k.min(n);
    // dp[c][j] = min cost of clustering the first j points into c+1 clusters.
    let mut dp = vec![vec![f64::INFINITY; n + 1]; kk];
    let mut cut = vec![vec![0usize; n + 1]; kk];
    for j in 0..=n {
        dp[0][j] = interval_cost(0, j);
    }
    for c in 1..kk {
        // Boundary recovery reads only `dp[kk-1][n]`, so the last row
        // computes that one cell.
        let first_j = if c + 1 == kk { n } else { c + 1 };
        let (done, rest) = dp.split_at_mut(c);
        let (prev, row) = (&done[c - 1], &mut rest[0]);
        for j in first_j..=n {
            // Last cluster covers sorted[m..j] with interval_cost(m, j);
            // m >= c so earlier clusters are non-empty.
            (row[j], cut[c][j]) = kernels::kmeans_dp_argmin(prev, &pref, &pref_sq, c, j);
        }
    }

    // Recover boundaries for kk clusters over all n points.
    let mut boundaries = vec![0usize; kk + 1];
    boundaries[kk] = n;
    let mut j = n;
    for c in (1..kk).rev() {
        j = cut[c][j];
        boundaries[c] = j;
    }

    let mut assignments_sorted = vec![0usize; n];
    let mut centroids = Vec::with_capacity(k);
    let mut sizes = Vec::with_capacity(k);
    let mut inertia = 0.0;
    for c in 0..kk {
        let (lo, hi) = (boundaries[c], boundaries[c + 1]);
        for a in assignments_sorted.iter_mut().take(hi).skip(lo) {
            *a = c;
        }
        let len = hi - lo;
        centroids.push(if len > 0 {
            (pref[hi] - pref[lo]) / len as f64
        } else {
            sorted[n - 1]
        });
        sizes.push(len);
        inertia += interval_cost(lo, hi); // lint:allow(F3) -- fused with the centroid/size construction per interval
    }
    // Pad empty clusters when k > distinct values.
    while centroids.len() < k {
        centroids.push(sorted[n - 1]);
        sizes.push(0);
    }
    // The DP clusters contiguous sorted intervals, so non-empty centroids
    // must come out in nondecreasing order — AsyncFilter's low < mid < high
    // cluster reading (§4.3) depends on it.
    debug_assert!(
        centroids[..kk].windows(2).all(|w| w[0] <= w[1] + 1e-9),
        "kmeans_1d centroids out of order: {centroids:?}"
    );

    // Map back to the original input order.
    let mut assignments = vec![0usize; n];
    for (sorted_pos, &orig) in order.iter().enumerate() {
        assignments[orig] = assignments_sorted[sorted_pos];
    }

    KMeans1dResult {
        assignments,
        centroids,
        sizes,
        inertia,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-table DP `kmeans_1d` replaced: every cell of every row,
    /// including the last row's unread columns. The bit-identity reference.
    #[allow(clippy::needless_range_loop)]
    fn kmeans_1d_full_table(values: &[f64], k: usize) -> KMeans1dResult {
        let n = values.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        let mut pref = vec![0.0; n + 1];
        let mut pref_sq = vec![0.0; n + 1];
        for i in 0..n {
            pref[i + 1] = pref[i] + sorted[i];
            pref_sq[i + 1] = pref_sq[i] + sorted[i] * sorted[i];
        }
        let interval_cost = |i: usize, j: usize| -> f64 {
            if j <= i {
                return 0.0;
            }
            let len = (j - i) as f64;
            let sum = pref[j] - pref[i];
            ((pref_sq[j] - pref_sq[i]) - sum * sum / len).max(0.0)
        };
        let kk = k.min(n);
        let mut dp = vec![vec![f64::INFINITY; n + 1]; kk];
        let mut cut = vec![vec![0usize; n + 1]; kk];
        for j in 0..=n {
            dp[0][j] = interval_cost(0, j);
        }
        for c in 1..kk {
            for j in (c + 1)..=n {
                for m in c..j {
                    let cost = dp[c - 1][m] + interval_cost(m, j);
                    if cost < dp[c][j] {
                        dp[c][j] = cost;
                        cut[c][j] = m;
                    }
                }
            }
        }
        let mut boundaries = vec![0usize; kk + 1];
        boundaries[kk] = n;
        let mut j = n;
        for c in (1..kk).rev() {
            j = cut[c][j];
            boundaries[c] = j;
        }
        let mut assignments_sorted = vec![0usize; n];
        let mut centroids = Vec::with_capacity(k);
        let mut sizes = Vec::with_capacity(k);
        let mut inertia = 0.0;
        for c in 0..kk {
            let (lo, hi) = (boundaries[c], boundaries[c + 1]);
            for a in assignments_sorted.iter_mut().take(hi).skip(lo) {
                *a = c;
            }
            let len = hi - lo;
            centroids.push(if len > 0 {
                (pref[hi] - pref[lo]) / len as f64
            } else {
                sorted[n - 1]
            });
            sizes.push(len);
            inertia += interval_cost(lo, hi);
        }
        while centroids.len() < k {
            centroids.push(sorted[n - 1]);
            sizes.push(0);
        }
        let mut assignments = vec![0usize; n];
        for (sorted_pos, &orig) in order.iter().enumerate() {
            assignments[orig] = assignments_sorted[sorted_pos];
        }
        KMeans1dResult {
            assignments,
            centroids,
            sizes,
            inertia,
        }
    }

    /// Bitwise equality of two results (`==` on `f64` would let `-0.0`
    /// match `0.0`).
    fn bit_identical(a: &KMeans1dResult, b: &KMeans1dResult) -> bool {
        let bits = |r: &KMeans1dResult| -> Vec<u64> {
            r.centroids
                .iter()
                .chain(std::iter::once(&r.inertia))
                .map(|x| x.to_bits())
                .collect()
        };
        a.assignments == b.assignments && a.sizes == b.sizes && bits(a) == bits(b)
    }

    #[test]
    fn single_cluster_mean() {
        let r = kmeans_1d(&[1.0, 2.0, 3.0], 1);
        assert_eq!(r.assignments, vec![0, 0, 0]);
        assert!((r.centroids[0] - 2.0).abs() < 1e-12);
        assert!((r.inertia - 2.0).abs() < 1e-12);
        assert_eq!(r.k(), 1);
    }

    #[test]
    fn three_well_separated_groups() {
        let values = [0.0, 0.1, 5.0, 5.1, 10.0, 10.1];
        let r = kmeans_1d(&values, 3);
        assert_eq!(r.assignments, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(r.sizes, vec![2, 2, 2]);
        assert!((r.centroids[0] - 0.05).abs() < 1e-9);
        assert!((r.centroids[2] - 10.05).abs() < 1e-9);
        assert_eq!(r.highest_cluster(), 2);
        assert_eq!(r.lowest_cluster(), 0);
    }

    #[test]
    fn input_order_does_not_matter() {
        let shuffled = [10.0, 0.1, 5.1, 0.0, 10.1, 5.0];
        let r = kmeans_1d(&shuffled, 3);
        assert_eq!(r.assignments, vec![2, 0, 1, 0, 2, 1]);
    }

    #[test]
    fn fewer_distinct_values_than_k() {
        let r = kmeans_1d(&[1.0, 1.0, 1.0], 3);
        assert!(r.sizes.iter().sum::<usize>() == 3);
        assert_eq!(r.centroids.len(), 3);
        assert!(r.inertia < 1e-12);
        // With identical values the split is arbitrary but every centroid
        // equals the common value.
        assert!(r.centroids.iter().all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn k_larger_than_n() {
        let r = kmeans_1d(&[3.0, 1.0], 5);
        assert_eq!(r.centroids.len(), 5);
        assert_eq!(r.sizes.iter().sum::<usize>(), 2);
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn outlier_is_isolated() {
        // The attacker-identification pattern: one big score should form its
        // own top cluster.
        let scores = [0.1, 0.11, 0.12, 0.13, 0.95];
        let r = kmeans_1d(&scores, 3);
        assert_eq!(r.assignments[4], r.highest_cluster());
        assert_eq!(r.sizes[r.highest_cluster()], 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        let _ = kmeans_1d(&[], 2);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_input_panics() {
        let _ = kmeans_1d(&[0.0, f64::NAN], 2);
    }

    #[test]
    fn optimality_against_brute_force() {
        // Exhaustively verify on a small instance: DP must match the best of
        // all contiguous 2-splits.
        let values = [0.2, 1.1, 1.15, 3.0, 3.05, 3.1, 7.0];
        let r = kmeans_1d(&values, 2);
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let cost = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
        };
        let best = (1..sorted.len())
            .map(|cut| cost(&sorted[..cut]) + cost(&sorted[cut..]))
            .fold(f64::INFINITY, f64::min);
        assert!((r.inertia - best).abs() < 1e-9);
    }

    #[test]
    fn lane_blocked_dp_matches_full_table_at_scale() {
        // Sizes straddle the DP kernel's eight-lane blocks (a lone tail,
        // no tail, one past) up to AsyncFilter's widest buffer, Ω = 8192.
        // Inputs: continuous (scores-like), few-level (duplicates and
        // exactly tied split costs) and constant (every candidate ties, so
        // the first index must win).
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for n in [7, 8, 9, 63, 64, 65, 1000, 8192] {
            let continuous: Vec<f64> = (0..n)
                .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 * 0.05)
                .collect();
            let few_level: Vec<f64> = (0..n).map(|_| f64::from((next() % 4) as u32)).collect();
            let constant = vec![0.5; n];
            // The full table is O(k·n²): the widest size runs the one
            // continuous input at AsyncFilter's and FLDetector's k only.
            let cases: Vec<(&[f64], &[usize])> = if n < 8192 {
                vec![
                    (&continuous, &[2, 3, 4, 5]),
                    (&few_level, &[2, 3, 4, 5]),
                    (&constant, &[2, 3, 4, 5]),
                ]
            } else {
                vec![(&continuous, &[2, 3])]
            };
            for (values, ks) in cases {
                for &k in ks {
                    let fast = kmeans_1d(values, k);
                    let reference = kmeans_1d_full_table(values, k);
                    assert!(bit_identical(&fast, &reference), "n={n} k={k}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_last_row_single_cell_matches_full_table(
            levels in 1u32..6,
            picks in proptest::collection::vec((0u32..12, -4.0..4.0f64), 1..64),
        ) {
            // Mostly a few equally spaced levels — duplicates, fewer distinct
            // values than k, and exactly tied split costs — plus the odd
            // continuous value. Every prefix is checked at every k.
            let values: Vec<f64> = picks
                .iter()
                .map(|&(idx, x)| if idx == 0 { x } else { f64::from(idx % levels) })
                .collect();
            for n in 1..=values.len() {
                for k in 1..=5 {
                    let fast = kmeans_1d(&values[..n], k);
                    let reference = kmeans_1d_full_table(&values[..n], k);
                    prop_assert!(
                        bit_identical(&fast, &reference),
                        "{:?} k={k}: {fast:?} vs {reference:?}",
                        &values[..n]
                    );
                }
            }
        }

        #[test]
        fn prop_clusters_are_intervals(
            mut values in proptest::collection::vec(-100.0..100.0f64, 2..40),
            k in 1usize..5,
        ) {
            let r = kmeans_1d(&values, k);
            // Sort (value, cluster) pairs by value; cluster ids must be
            // non-decreasing — clusters are contiguous intervals.
            let mut pairs: Vec<(f64, usize)> = values
                .drain(..)
                .zip(r.assignments.iter().copied())
                .collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in pairs.windows(2) {
                prop_assert!(w[0].1 <= w[1].1);
            }
        }

        #[test]
        fn prop_centroids_ascending_and_sizes_sum(
            values in proptest::collection::vec(-100.0..100.0f64, 1..40),
            k in 1usize..6,
        ) {
            let r = kmeans_1d(&values, k);
            prop_assert_eq!(r.sizes.iter().sum::<usize>(), values.len());
            for w in r.centroids.windows(2) {
                // Ascending among non-empty; padded clusters use the max value.
                prop_assert!(w[0] <= w[1] + 1e-9);
            }
            prop_assert!(r.inertia >= 0.0);
        }

        #[test]
        fn prop_more_clusters_never_increase_inertia(
            values in proptest::collection::vec(-100.0..100.0f64, 3..30),
        ) {
            let r1 = kmeans_1d(&values, 1);
            let r2 = kmeans_1d(&values, 2);
            let r3 = kmeans_1d(&values, 3);
            prop_assert!(r2.inertia <= r1.inertia + 1e-9);
            prop_assert!(r3.inertia <= r2.inertia + 1e-9);
        }

        #[test]
        fn prop_assignment_matches_nearest_centroid_for_nonempty(
            values in proptest::collection::vec(0.0..1.0f64, 2..30),
        ) {
            // Global optimum implies each point is in the cluster of its
            // nearest (non-empty) centroid.
            let r = kmeans_1d(&values, 3);
            for (i, &v) in values.iter().enumerate() {
                let assigned = r.assignments[i];
                let d_assigned = (v - r.centroids[assigned]).abs();
                for c in 0..3 {
                    if r.sizes[c] > 0 {
                        prop_assert!(d_assigned <= (v - r.centroids[c]).abs() + 1e-9);
                    }
                }
            }
        }
    }
}
