//! Seeded randomness and order statistics.

/// SplitMix64: every input the benchmark generates derives from one of
/// these, seeded from `--seed`, so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A child generator for one independent stream (a client, a pass).
    pub fn fork(&self, stream: u64) -> Rng {
        Rng(self.0 ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (0..=1) of `v` by linear interpolation between the
/// closest ranks. `v` need not be sorted; empty input gives 0.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut x: Vec<u32> = (0..20).collect();
        let mut y = x.clone();
        a.shuffle(&mut x);
        b.shuffle(&mut y);
        assert_eq!(x, y);
        assert_ne!(
            Rng::new(7).fork(1).next_u64(),
            Rng::new(7).fork(2).next_u64()
        );
    }
}
