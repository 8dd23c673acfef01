//! Per-category brand universes with category-specific concentration.
//!
//! Paper Sec. 3 / Fig. 3: in their log, the "Electronics" category
//! concentrates the top 80% of sales into ~2% of brands while "Sports"
//! spreads it over ~10%. We reproduce that by giving each top-category a
//! Zipf popularity exponent drawn from its semantic class: electronics
//! analogs are steep, fashion/sports analogs are flat.

use amoe_tensor::{Rng, WeightTable};

use crate::hierarchy::{CategoryHierarchy, SemanticClass, TcId};

/// Brand popularity and quality per top-category.
///
/// Brand ids are global: brand `b` of TC `t` has id `t * brands_per_tc + b`.
#[derive(Clone, Debug)]
pub struct BrandUniverse {
    brands_per_tc: usize,
    /// Per-TC Zipf exponent for brand popularity.
    exponents: Vec<f64>,
    /// Per-TC sampling weights over local brand ranks (precomputed CDF
    /// numerators and their sum).
    weights: Vec<WeightTable>,
    /// Global-brand-id → latent quality (how much the brand lifts the
    /// purchase logit; correlated with popularity so that popular brands
    /// really do sell more).
    quality: Vec<f32>,
}

impl BrandUniverse {
    /// Builds the universe; deterministic in the RNG state.
    #[must_use]
    pub fn build(hierarchy: &CategoryHierarchy, brands_per_tc: usize, rng: &mut Rng) -> Self {
        let mut exponents = Vec::with_capacity(hierarchy.num_tc());
        let mut weights = Vec::with_capacity(hierarchy.num_tc());
        let mut quality = Vec::with_capacity(hierarchy.num_tc() * brands_per_tc);
        for tc in 0..hierarchy.num_tc() {
            // Concentrated electronics, dispersed fashion, middling daily
            // necessities; small per-TC jitter.
            let base = match hierarchy.tc_class(tc) {
                SemanticClass::Electronics => 1.45,
                SemanticClass::DailyNecessities => 1.05,
                SemanticClass::Fashion => 0.72,
            };
            let s = base + rng.uniform_in(-0.06, 0.06) as f64;
            exponents.push(s);
            let w: Vec<f64> = (1..=brands_per_tc).map(|r| (r as f64).powf(-s)).collect();
            // Quality correlates with popularity rank: top brands are
            // genuinely better on average, plus idiosyncratic noise.
            for (rank0, _) in w.iter().enumerate() {
                let rank_strength = 1.0 - (rank0 as f32 / brands_per_tc as f32); // 1 → 0
                quality.push(1.2 * rank_strength + rng.normal_with(0.0, 0.35));
            }
            weights.push(WeightTable::new(w));
        }
        BrandUniverse {
            brands_per_tc,
            exponents,
            weights,
            quality,
        }
    }

    /// Brands per top-category.
    #[must_use]
    pub fn brands_per_tc(&self) -> usize {
        self.brands_per_tc
    }

    /// Total (global) brand vocabulary size.
    #[must_use]
    pub fn vocab(&self) -> usize {
        self.quality.len()
    }

    /// Zipf exponent of a top-category.
    #[must_use]
    pub fn exponent(&self, tc: TcId) -> f64 {
        self.exponents[tc]
    }

    /// Samples a global brand id for a product in `tc`, following the
    /// TC's popularity law.
    pub fn sample_brand(&self, tc: TcId, rng: &mut Rng) -> usize {
        let local = rng.weighted_index(&self.weights[tc]);
        tc * self.brands_per_tc + local
    }

    /// Latent quality (logit contribution before the per-TC brand
    /// strength multiplier) of a global brand id.
    #[must_use]
    pub fn quality(&self, global_brand: usize) -> f32 {
        self.quality[global_brand]
    }

    /// Popularity weight (unnormalised) of a global brand id within its TC.
    #[must_use]
    pub fn popularity(&self, global_brand: usize) -> f64 {
        let tc = global_brand / self.brands_per_tc;
        let local = global_brand % self.brands_per_tc;
        self.weights[tc].weights()[local]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CategoryHierarchy, BrandUniverse) {
        let h = CategoryHierarchy::default();
        let mut rng = Rng::seed_from(99);
        let b = BrandUniverse::build(&h, 50, &mut rng);
        (h, b)
    }

    #[test]
    fn vocab_size() {
        let (h, b) = setup();
        assert_eq!(b.vocab(), h.num_tc() * 50);
    }

    #[test]
    fn electronics_steeper_than_fashion() {
        let (h, b) = setup();
        let phone = h.tc_by_name("Mobile Phone").unwrap();
        let sports = h.tc_by_name("Sports").unwrap();
        assert!(b.exponent(phone) > b.exponent(sports) + 0.3);
    }

    #[test]
    fn sampled_brands_stay_in_tc_block() {
        let (_h, b) = setup();
        let mut rng = Rng::seed_from(5);
        for tc in [0usize, 3, 11] {
            for _ in 0..200 {
                let g = b.sample_brand(tc, &mut rng);
                assert_eq!(g / 50, tc);
            }
        }
    }

    #[test]
    fn top_rank_most_popular() {
        let (_h, b) = setup();
        let mut rng = Rng::seed_from(6);
        let mut counts = vec![0usize; 50];
        for _ in 0..5000 {
            counts[b.sample_brand(0, &mut rng) % 50] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[49]);
    }

    #[test]
    fn quality_correlates_with_rank() {
        let (_h, b) = setup();
        // Average quality of the top 10 ranks beats the bottom 10, per TC 0.
        let top: f32 = (0..10).map(|i| b.quality(i)).sum::<f32>() / 10.0;
        let bottom: f32 = (40..50).map(|i| b.quality(i)).sum::<f32>() / 10.0;
        assert!(top > bottom);
    }
}
