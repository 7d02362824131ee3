//! Order statistics and the seeded generator the workloads draw from.

/// Samples that must lie strictly above a reported tail percentile. A
/// percentile with fewer samples beyond it is mostly one or two outliers.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `v` (mean of the two middle values for even lengths).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Nearest-rank percentile `q` (in `0..1`) of ascending `sorted`: the
/// value at 1-based rank `ceil(q * n)`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Smallest sample count whose percentile `q` keeps [`TAIL_SAMPLES`]
/// samples beyond it (1000 for p99).
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= TAIL_SAMPLES)
        .expect("q < 1")
}

/// Percentile `q` of ascending `sorted`, refused (`None`) when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (samples_beyond(sorted.len(), q) >= TAIL_SAMPLES).then(|| percentile(sorted, q))
}

/// SplitMix64: a small, fast generator with a full 64-bit period. The
/// benchmark's inputs depend on nothing but the seed fed to it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// An independent stream for one part of the input (stable under
    /// changes to how many numbers other parts draw).
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng(self.next_u64() ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The `k` stratum midpoints of the log-uniform distribution on
/// `[lo, hi]`, ascending: the `(s + 1/2) / k` quantiles. Workloads take
/// their sizes and condition numbers from this grid rather than drawing
/// them, so the cost of a round does not move with the seed.
pub fn log_grid(lo: f64, hi: f64, k: usize) -> Vec<f64> {
    let (a, b) = (lo.ln(), hi.ln());
    (0..k)
        .map(|s| (a + (b - a) * (s as f64 + 0.5) / k as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(min_samples_for(0.5), 20);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
    }

    #[test]
    fn nearest_rank_and_median() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.51), 3.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn log_grid_takes_stratum_midpoints() {
        let xs = log_grid(64.0, 65536.0, 10);
        // 1024 = 2^10: one octave per stratum, midpoints at 64 * 2^(s+1/2).
        for (s, x) in xs.iter().enumerate() {
            let want = 64.0 * 2f64.powf(s as f64 + 0.5);
            assert!((x / want - 1.0).abs() < 1e-12, "{s}: {x} vs {want}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(42), Rng::new(42));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }
}
