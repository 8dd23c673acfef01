//! Generator configuration.

/// All knobs of the synthetic search-log generator.
///
/// The defaults produce roughly 120k training and 24k test examples —
/// the paper's 26.7M-example log scaled to a 2-core host while
/// preserving the category skew, feature structure and session shape.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Master seed; all randomness forks from it.
    pub seed: u64,
    /// Sub-categories per top-category (paper: ~92 avg; ours: 8).
    pub subs_per_tc: usize,
    /// Number of distinct queries to synthesise.
    pub n_queries: usize,
    /// Training sessions to generate.
    pub train_sessions: usize,
    /// Test sessions to generate.
    pub test_sessions: usize,
    /// Minimum candidate items per session.
    pub min_items_per_session: usize,
    /// Maximum candidate items per session.
    pub max_items_per_session: usize,
    /// Target marginal purchase rate (positives fraction).
    pub target_purchase_rate: f64,
    /// Accuracy of the query→SC classifier channel (paper's GRU model
    /// is trained on 100k human-annotated queries; a production model
    /// of that kind sits around 90%).
    pub classifier_accuracy: f64,
    /// Of the classifier's errors, the fraction confused with a sibling
    /// SC (rather than a random SC anywhere in the tree).
    pub classifier_sibling_confusion: f64,
    /// Brands per top-category.
    pub brands_per_tc: usize,
    /// Number of shops (global).
    pub n_shops: usize,
    /// Number of user segments.
    pub n_user_segments: usize,
    /// Number of price buckets.
    pub n_price_buckets: usize,
    /// Std of the per-SC perturbation around the parent TC's ground-truth
    /// feature weights (small ⇒ siblings similar; Fig. 2b).
    pub sibling_weight_noise: f32,
    /// Std of observation noise added to the informative numeric features.
    pub feature_noise: f32,
    /// Std of the unexplained (irreducible) label noise on the logit.
    pub label_noise: f32,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 20_210_407, // ICDE 2021 week; any constant works
            subs_per_tc: 12,
            n_queries: 3_000,
            train_sessions: 8_000,
            test_sessions: 1_600,
            min_items_per_session: 8,
            max_items_per_session: 24,
            target_purchase_rate: 0.12,
            classifier_accuracy: 0.78,
            classifier_sibling_confusion: 0.9,
            brands_per_tc: 120,
            n_shops: 400,
            n_user_segments: 8,
            n_price_buckets: 10,
            sibling_weight_noise: 0.12,
            feature_noise: 0.45,
            label_noise: 0.55,
        }
    }
}

impl GeneratorConfig {
    /// Scales the data volume (sessions and queries) by `factor`,
    /// keeping everything else fixed. Used by experiment binaries'
    /// `--scale` flag and by fast test configs.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "GeneratorConfig::scaled: factor must be > 0");
        self.train_sessions = ((self.train_sessions as f64 * factor).round() as usize).max(16);
        self.test_sessions = ((self.test_sessions as f64 * factor).round() as usize).max(8);
        self.n_queries = ((self.n_queries as f64 * factor).round() as usize).max(32);
        self
    }

    /// A small config for unit tests (hundreds of examples, fast).
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            n_queries: 120,
            train_sessions: 120,
            test_sessions: 40,
            brands_per_tc: 20,
            n_shops: 50,
            ..Default::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics on contradictory settings (used by `generate`).
    pub fn validate(&self) {
        assert!(self.subs_per_tc > 0, "subs_per_tc must be > 0");
        assert!(self.n_queries > 0, "n_queries must be > 0");
        assert!(
            self.min_items_per_session >= 2,
            "sessions need >= 2 items for ranking metrics"
        );
        assert!(self.max_items_per_session >= self.min_items_per_session);
        assert!((0.0..1.0).contains(&self.target_purchase_rate));
        assert!((0.0..=1.0).contains(&self.classifier_accuracy));
        assert!((0.0..=1.0).contains(&self.classifier_sibling_confusion));
        assert!(self.brands_per_tc > 1);
        assert!(self.n_shops > 0 && self.n_user_segments > 0 && self.n_price_buckets > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        GeneratorConfig::default().validate();
        GeneratorConfig::tiny(1).validate();
    }

    #[test]
    fn scaled_scales_counts() {
        let c = GeneratorConfig::default().scaled(0.5);
        assert_eq!(c.train_sessions, 4_000);
        assert_eq!(c.test_sessions, 800);
        c.validate();
    }

    #[test]
    fn scaled_has_floor() {
        let c = GeneratorConfig::default().scaled(1e-9);
        assert!(c.train_sessions >= 16);
        assert!(c.test_sessions >= 8);
    }

    #[test]
    #[should_panic(expected = "sessions need")]
    fn invalid_session_size_panics() {
        let c = GeneratorConfig {
            min_items_per_session: 1,
            ..Default::default()
        };
        c.validate();
    }
}
