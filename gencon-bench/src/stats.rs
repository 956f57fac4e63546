//! Percentiles, quartiles and the log-linear histogram the node-side
//! decorators keep (and the parent merges across nodes).

/// Sub-buckets per power of two: 16 gives ~6% bucket width; values are
/// interpolated within a bucket, so percentiles are not snapped to bucket
/// edges.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets needed to cover every `u64`.
pub const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// The histogram bucket of `v`: exact below 16, then 16 per power of two.
pub fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let log = 63 - v.leading_zeros();
    let shift = log - SUB_BITS;
    let sub = (v >> shift) - SUB;
    (SUB + u64::from(shift) * SUB + sub) as usize
}

/// `[lo, hi)` of bucket `b`.
pub fn bucket_range(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < SUB {
        return (b as f64, (b + 1) as f64);
    }
    let shift = (b - SUB) / SUB;
    let sub = (b - SUB) % SUB;
    let lo = ((SUB + sub) << shift) as f64;
    (lo, lo + (1u64 << shift) as f64)
}

/// The `p`-quantile (0..=1) of a sparse histogram given as
/// `(bucket, count)` pairs in any order, interpolated linearly within the
/// bucket that holds the rank. 0 for an empty histogram.
pub fn hist_quantile(pairs: &[(usize, u64)], p: f64) -> f64 {
    let mut sorted: Vec<(usize, u64)> = pairs.iter().copied().filter(|&(_, c)| c > 0).collect();
    sorted.sort_unstable();
    let total: u64 = sorted.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for &(b, c) in &sorted {
        if (below + c) as f64 >= rank {
            let (lo, hi) = bucket_range(b);
            let within = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
            return lo + (hi - lo) * within;
        }
        below += c;
    }
    bucket_range(sorted.last().expect("non-empty").0).1
}

/// The `p`-quantile (0..=1) of sorted samples, nearest rank.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The percentiles a timing may report, highest last.
const LADDER: [(f64, &str); 6] = [
    (0.50, "p50"),
    (0.90, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
    (0.99999, "p99.999"),
];

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it, as `(label, value)`; `None` below 20 samples.
pub fn highest_supported(sorted: &[f64]) -> Option<(&'static str, f64)> {
    let n = sorted.len() as f64;
    LADDER
        .iter()
        .rev()
        .find(|&&(p, _)| n * (1.0 - p) >= 10.0 - 1e-9)
        .map(|&(p, label)| (label, quantile(sorted, p)))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// A small deterministic generator (SplitMix64): the same seed yields the
/// same workload on every machine.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_in_order() {
        let mut last = 0;
        for v in (0..5_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "v {v} -> {b}");
            let (lo, hi) = bucket_range(b);
            assert!(
                lo <= v as f64 && (v as f64) < hi || v > 1 << 52,
                "v {v} in [{lo},{hi})"
            );
            last = b;
        }
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut counts = std::collections::HashMap::new();
        for v in 1..=1_000u64 {
            *counts.entry(bucket_of(v)).or_insert(0u64) += 1;
        }
        let pairs: Vec<_> = counts.into_iter().collect();
        let p50 = hist_quantile(&pairs, 0.5);
        let p99 = hist_quantile(&pairs, 0.99);
        assert!((p50 - 500.0).abs() < 20.0, "p50 {p50}");
        assert!((p99 - 990.0).abs() < 40.0, "p99 {p99}");
    }

    #[test]
    fn percentile_helper_picks_the_highest_with_ten_beyond() {
        let sorted = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        assert_eq!(highest_supported(&sorted(19)), None);
        assert_eq!(highest_supported(&sorted(20)).unwrap().0, "p50");
        assert_eq!(highest_supported(&sorted(99)).unwrap().0, "p50");
        assert_eq!(highest_supported(&sorted(100)).unwrap().0, "p90");
        assert_eq!(highest_supported(&sorted(1_000)), Some(("p99", 990.0)));
        assert_eq!(highest_supported(&sorted(9_999)).unwrap().0, "p99");
        assert_eq!(highest_supported(&sorted(10_000)).unwrap().0, "p99.9");
        assert_eq!(highest_supported(&sorted(250_000)).unwrap().0, "p99.99");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
