//! Deterministic pseudo-random number generation.
//!
//! Every experiment in the reproduction must be bit-for-bit repeatable
//! from a single `u64` seed, independent of external crate version churn,
//! so the workspace carries its own generator: a Xoshiro256++ core seeded
//! through SplitMix64 (the initialisation recommended by the Xoshiro
//! authors). Both algorithms are public domain reference algorithms.

use crate::Matrix;

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
#[inline]
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Unnormalised non-negative sampling weights with their sum taken
/// once, so a table drawn from many times (the generator's Zipf shop
/// ranks, `weights[k] = (k + 1)^-s`; brand ranks; category shares)
/// pays one sum per table instead of one per draw.
#[derive(Clone, Debug)]
pub struct WeightTable {
    weights: Vec<f64>,
    total: f64,
}

impl WeightTable {
    /// Sums `weights` in order.
    ///
    /// # Panics
    /// Panics if the weights are empty or sum to zero, infinity or NaN.
    #[must_use]
    pub fn new(weights: Vec<f64>) -> Self {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "WeightTable: bad weight sum {total}"
        );
        WeightTable { weights, total }
    }

    /// The weights, in draw-index order.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// A Xoshiro256++ generator.
///
/// Period 2^256 − 1; passes BigCrush. Not cryptographically secure (and
/// does not need to be: it drives synthetic data and weight init).
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second Box–Muller variate.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator; children with distinct
    /// `stream` values produce decorrelated sequences. Used so that e.g.
    /// weight init and data generation never share a stream.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> Self {
        let base = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        Rng::seed_from(base)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform() as f32
    }

    /// Uniform integer in `[0, n)` via Lemire's rejection method
    /// (unbiased).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng::below: n must be positive");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let l = m as u64;
            if l >= n {
                return (m >> 64) as usize;
            }
            // l < n: possibly biased region, re-check threshold.
            let t = n.wrapping_neg() % n;
            if l >= t {
                return (m >> 64) as usize;
            }
        }
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal variate via Box–Muller (cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Avoid ln(0).
        let u1 = loop {
            let u = self.uniform();
            if u > 1e-300 {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal() as f32
    }

    /// Matrix of i.i.d. normal variates.
    #[must_use]
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, mean: f32, std: f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        m.as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = self.normal_with(mean, std));
        m
    }

    /// Matrix of i.i.d. uniform variates in `[lo, hi)`.
    #[must_use]
    pub fn uniform_matrix(&mut self, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        m.as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = self.uniform_in(lo, hi));
        m
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (partial Fisher–Yates).
    ///
    /// # Panics
    /// Panics if `k > n`.
    #[must_use]
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx = Vec::with_capacity(n);
        self.sample_distinct_into(n, k, &mut idx);
        idx
    }

    /// [`Rng::sample_distinct`] into `idx`'s reused buffer (its old
    /// contents are discarded); the draws are the same.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_distinct_into(&mut self, n: usize, k: usize, idx: &mut Vec<usize>) {
        assert!(k <= n, "Rng::sample_distinct: k={k} > n={n}");
        idx.clear();
        idx.extend(0..n);
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
    }

    /// Samples an index according to a [`WeightTable`]: one `uniform()`
    /// scaled by the table's weight sum, then the weights are
    /// subtracted in order until the target goes negative.
    pub fn weighted_index(&mut self, table: &WeightTable) -> usize {
        let mut target = self.uniform() * table.total;
        for (i, &w) in table.weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        table.weights.len() - 1 // fp rounding fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_decorrelated() {
        let mut root = Rng::seed_from(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::seed_from(4);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let i = rng.below(7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from(5);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from(6);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn sample_distinct_unique() {
        let mut rng = Rng::seed_from(8);
        for _ in 0..100 {
            let s = rng.sample_distinct(10, 4);
            let mut t = s.clone();
            t.sort_unstable();
            t.dedup();
            assert_eq!(t.len(), 4);
            assert!(s.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Rng::seed_from(9);
        let table = WeightTable::new(vec![1.0, 2.0, 7.0]);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&table)] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let p2 = counts[2] as f64 / 30_000.0;
        assert!((p2 - 0.7).abs() < 0.02, "p2 {p2}");
    }

    /// The direct inverse-CDF Zipf sampler over ranks `1..=n`, kept as
    /// the reference for precomputed weights: rank weights `k^-s`
    /// summed, then subtracted in order from one scaled uniform.
    fn zipf_direct(rng: &mut Rng, n: usize, s: f64) -> usize {
        let h: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let mut target = rng.uniform() * h;
        for k in 1..=n {
            target -= (k as f64).powf(-s);
            if target < 0.0 {
                return k;
            }
        }
        n
    }

    #[test]
    fn precomputed_zipf_weights_reproduce_direct_draws() {
        for (n, s) in [(10usize, 1.2f64), (400, 1.05)] {
            let weights = WeightTable::new((1..=n).map(|k| (k as f64).powf(-s)).collect());
            let mut direct = Rng::seed_from(10);
            let mut table = Rng::seed_from(10);
            let mut counts = vec![0usize; n];
            for draw in 0..10_000 {
                let rank = zipf_direct(&mut direct, n, s);
                assert_eq!(
                    table.weighted_index(&weights) + 1,
                    rank,
                    "draw {draw} of Zipf({n}, {s})"
                );
                counts[rank - 1] += 1;
            }
            assert!(counts[0] > counts[1] && counts[1] > counts[4], "{counts:?}");
        }
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = Rng::seed_from(11);
        let hits = (0..20_000).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }
}
