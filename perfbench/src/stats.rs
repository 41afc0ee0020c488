//! Percentiles with their sample counts, and the seeded generator every
//! input of the benchmark is drawn from.

/// A percentile together with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The interpolated percentile value.
    pub value: f64,
    /// How many samples it was computed from.
    pub n: usize,
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of `samples`, the
/// same definition as NumPy's default. `None` when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64);
    Some(Pct {
        value,
        n: sorted.len(),
    })
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5).map(|p| p.value)
}

/// SplitMix64: a small, fast, well-mixed generator. The benchmark's
/// inputs depend only on `--seed` through it, never on the host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit mix, also used to hash
/// `(seed, host, timestamp)` into per-point noise.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_reports_its_sample_count() {
        let samples = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&samples, 0.5), Some(Pct { value: 3.0, n: 5 }));
        assert_eq!(percentile(&samples, 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&samples, 1.0).unwrap().value, 5.0);
        // Between ranks: pos = 0.9 * 4 = 3.6 -> 4 + 0.6 * (5 - 4).
        let p90 = percentile(&samples, 0.9).unwrap();
        assert!((p90.value - 4.6).abs() < 1e-12, "{p90:?}");
        assert_eq!(p90.n, 5);
    }

    #[test]
    fn percentile_of_nothing_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 1.5), None);
        assert_eq!(percentile(&[7.0], 0.9), Some(Pct { value: 7.0, n: 1 }));
        assert_eq!(median(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }
}
