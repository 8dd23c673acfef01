//! The search-log generator: queries, sessions, items and labels.

use amoe_tensor::{ops, Rng, WeightTable};

use crate::brands::BrandUniverse;
use crate::config::GeneratorConfig;
use crate::data::{Dataset, DatasetMeta, Example, Split, N_NUMERIC};
use crate::hierarchy::CategoryHierarchy;
use crate::query_model::QueryClassifier;
use crate::truth::GroundTruth;

/// A synthesised query: its true category, the classifier's prediction
/// (fixed per query, as a deployed classifier would be) and a popularity
/// weight for session sampling.
struct Query {
    true_sc: usize,
    pred_sc: usize,
    popularity: f64,
}

/// Index of `sales_volume` in the numeric features.
pub(crate) const F_SALES: usize = 1;
/// Index of `price_z` in the numeric features.
pub(crate) const F_PRICE: usize = 0;

/// Zipf exponent of shop popularity: shop rank `k` (1-based) is drawn
/// with weight `k^-1.05`.
const SHOP_ZIPF_EXPONENT: f64 = 1.05;

/// The shop-rank weights, built once per split or drift world so each
/// draw is one [`Rng::weighted_index`] (index = rank − 1) rather than
/// `n_shops` `powf` calls and a sum.
pub(crate) fn shop_weights(n_shops: usize) -> WeightTable {
    WeightTable::new(
        (1..=n_shops)
            .map(|k| (k as f64).powf(-SHOP_ZIPF_EXPONENT))
            .collect(),
    )
}

/// Generates a complete dataset from the configuration.
///
/// Determinism: two calls with equal configs produce identical datasets.
///
/// # Panics
/// Panics if the configuration is invalid (see
/// [`GeneratorConfig::validate`]).
#[must_use]
pub fn generate(config: &GeneratorConfig) -> Dataset {
    let _stage = amoe_obs::StageScope::enter("dataset.generate");
    config.validate();
    let mut root = Rng::seed_from(config.seed);
    let mut world_rng = root.fork(1);
    let mut query_rng = root.fork(2);
    let mut calib_rng = root.fork(3);
    let mut train_rng = root.fork(4);
    let mut test_rng = root.fork(5);

    let hierarchy = CategoryHierarchy::with_subs(config.subs_per_tc);
    let brands = BrandUniverse::build(&hierarchy, config.brands_per_tc, &mut world_rng);
    let mut truth = GroundTruth::build(&hierarchy, config.sibling_weight_noise, &mut world_rng);

    // --- queries -------------------------------------------------------
    let classifier = QueryClassifier::new(
        config.classifier_accuracy,
        config.classifier_sibling_confusion,
    );
    let sc_shares = WeightTable::new(hierarchy.sc_shares().to_vec());
    let queries: Vec<Query> = (0..config.n_queries)
        .map(|_| {
            let true_sc = query_rng.weighted_index(&sc_shares);
            let pred_sc = classifier.predict(&hierarchy, true_sc, &mut query_rng);
            // Head-heavy query popularity, as in real logs.
            let popularity = (1.0 - query_rng.uniform()).powf(2.0) + 0.05;
            Query {
                true_sc,
                pred_sc,
                popularity,
            }
        })
        .collect();
    let query_weights = WeightTable::new(queries.iter().map(|q| q.popularity).collect());

    // --- purchase-rate calibration --------------------------------------
    // Probe the logit distribution and bisect on the global bias so the
    // marginal sigmoid hits the target rate.
    let probe: Vec<f32> = (0..4000)
        .map(|_| {
            let sc = calib_rng.weighted_index(&sc_shares);
            let tc = hierarchy.parent(sc);
            let brand = brands.sample_brand(tc, &mut calib_rng);
            let latent = sample_latent(&brands, brand, &mut calib_rng);
            truth.logit(sc, &latent, brands.quality(brand))
                + calib_rng.normal_with(0.0, config.label_noise)
        })
        .collect();
    let bias = calibrate_bias(&probe, config.target_purchase_rate);
    truth.set_bias(bias);

    // --- splits ----------------------------------------------------------
    let (train, train_queries) = generate_split(
        config,
        config.train_sessions,
        &hierarchy,
        &brands,
        &truth,
        &queries,
        &query_weights,
        &mut train_rng,
    );
    let (test, test_queries) = generate_split(
        config,
        config.test_sessions,
        &hierarchy,
        &brands,
        &truth,
        &queries,
        &query_weights,
        &mut test_rng,
    );

    let meta = DatasetMeta {
        sc_vocab: hierarchy.num_sc(),
        tc_vocab: hierarchy.num_tc(),
        brand_vocab: brands.vocab(),
        shop_vocab: config.n_shops,
        user_segment_vocab: config.n_user_segments,
        price_bucket_vocab: config.n_price_buckets,
        query_vocab: config.n_queries,
        n_numeric: N_NUMERIC,
    };

    Dataset {
        train,
        test,
        hierarchy,
        brands,
        truth,
        meta,
        train_queries,
        test_queries,
    }
}

/// Latent (pre-observation-noise) numeric features for a product of the
/// given brand. Sales volume is tied to brand popularity so that the
/// brand-concentration analysis (Fig. 3) sees realistic sales skew.
fn sample_latent(brands: &BrandUniverse, brand: usize, rng: &mut Rng) -> [f32; N_NUMERIC] {
    let mut latent = [0f32; N_NUMERIC];
    for v in &mut latent {
        *v = rng.normal() as f32;
    }
    // Popularity weight is rank^-s in (0, 1]; map to a roughly standard
    // z-score so it composes with the unit-variance features.
    let pop_z = (brands.popularity(brand).ln() as f32 + 2.5) * 0.6;
    latent[F_SALES] = 0.8 * pop_z + 0.6 * latent[F_SALES];
    latent
}

#[allow(clippy::too_many_arguments)]
fn generate_split(
    config: &GeneratorConfig,
    n_sessions: usize,
    hierarchy: &CategoryHierarchy,
    brands: &BrandUniverse,
    truth: &GroundTruth,
    queries: &[Query],
    query_weights: &WeightTable,
    rng: &mut Rng,
) -> (Split, usize) {
    let mut examples = Vec::new();
    let mut sessions = Vec::new();
    let mut seen_queries = vec![false; queries.len()];
    let shop_weights = shop_weights(config.n_shops);
    let span = config.max_items_per_session - config.min_items_per_session + 1;

    for session_id in 0..n_sessions {
        let qid = rng.weighted_index(query_weights);
        seen_queries[qid] = true;
        let query = &queries[qid];
        let n_items = config.min_items_per_session + rng.below(span);
        let user_segment = rng.below(config.n_user_segments);
        let start = examples.len();
        for _ in 0..n_items {
            // Retrieval returns items from the query's category, with a
            // minority from sibling sub-categories.
            let true_sc = if rng.bernoulli(0.85) {
                query.true_sc
            } else {
                let sibs = hierarchy.subs_of(hierarchy.parent(query.true_sc));
                sibs.start + rng.below(sibs.len())
            };
            let true_tc = hierarchy.parent(true_sc);
            let brand = brands.sample_brand(true_tc, rng);
            let latent = sample_latent(brands, brand, rng);

            let logit = truth.logit(true_sc, &latent, brands.quality(brand))
                + rng.normal_with(0.0, config.label_noise);
            let label = rng.bernoulli(ops::sigmoid_scalar(logit) as f64);

            // Observed features: latent plus observation noise.
            let mut numeric = [0f32; N_NUMERIC];
            for (obs, &lat) in numeric.iter_mut().zip(&latent) {
                *obs = lat + rng.normal_with(0.0, config.feature_noise);
            }

            // Price bucket from the observed price's normal CDF.
            let price_cdf = normal_cdf(numeric[F_PRICE]);
            let price_bucket = ((price_cdf * config.n_price_buckets as f32) as usize)
                .min(config.n_price_buckets - 1);

            // Sales volume itself (for Fig. 3): popularity times log-normal
            // demand noise.
            let raw_sales =
                (brands.popularity(brand) as f32) * (rng.normal_with(0.0, 0.4)).exp() * 1000.0;

            examples.push(Example {
                session: session_id as u32,
                query: qid as u32,
                true_sc,
                true_tc,
                pred_sc: query.pred_sc,
                pred_tc: hierarchy.parent(query.pred_sc),
                brand,
                shop: rng.weighted_index(&shop_weights),
                user_segment,
                price_bucket,
                numeric,
                label,
                raw_sales,
            });
        }
        sessions.push(start..examples.len());
    }
    let n_queries_seen = seen_queries.iter().filter(|&&s| s).count();
    (Split { examples, sessions }, n_queries_seen)
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
pub(crate) fn normal_cdf(x: f32) -> f32 {
    let t = 1.0 / (1.0 + 0.2316419 * x.abs());
    let d = 0.3989423 * (-x * x / 2.0).exp();
    let p =
        d * t * (0.3193815 + t * (-0.3565638 + t * (1.781478 + t * (-1.821256 + t * 1.330274))));
    if x >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Bisects on a constant logit shift so that the mean sigmoid over the
/// probe logits equals `target`.
pub(crate) fn calibrate_bias(probe_logits: &[f32], target: f64) -> f32 {
    let rate = |b: f64| -> f64 {
        probe_logits
            .iter()
            .map(|&l| 1.0 / (1.0 + (-(f64::from(l) + b)).exp()))
            .sum::<f64>()
            / probe_logits.len() as f64
    };
    let (mut lo, mut hi) = (-20.0f64, 20.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if rate(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = GeneratorConfig::tiny(42);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.train.len(), b.train.len());
        for (x, y) in a.train.examples.iter().zip(&b.train.examples) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.brand, y.brand);
            assert_eq!(x.numeric, y.numeric);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig::tiny(1));
        let b = generate(&GeneratorConfig::tiny(2));
        let same = a
            .train
            .examples
            .iter()
            .zip(&b.train.examples)
            .filter(|(x, y)| x.numeric == y.numeric)
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn purchase_rate_near_target() {
        let cfg = GeneratorConfig {
            train_sessions: 2_000,
            ..GeneratorConfig::tiny(7)
        };
        let d = generate(&cfg);
        let rate = d.train.positive_rate();
        assert!(
            (rate - cfg.target_purchase_rate).abs() < 0.03,
            "rate {rate} vs target {}",
            cfg.target_purchase_rate
        );
    }

    #[test]
    fn sessions_tile_examples() {
        let d = generate(&GeneratorConfig::tiny(3));
        let mut covered = 0usize;
        for (i, r) in d.train.sessions.iter().enumerate() {
            assert_eq!(r.start, covered, "session {i} not contiguous");
            covered = r.end;
        }
        assert_eq!(covered, d.train.len());
    }

    #[test]
    fn session_sizes_in_bounds() {
        let cfg = GeneratorConfig::tiny(4);
        let d = generate(&cfg);
        for r in &d.train.sessions {
            let n = r.len();
            assert!(n >= cfg.min_items_per_session && n <= cfg.max_items_per_session);
        }
    }

    #[test]
    fn sessions_are_tc_pure() {
        // All items of a session come from the query's top-category
        // (its SC or a sibling), which Table 3 / Fig. 5 rely on.
        let d = generate(&GeneratorConfig::tiny(5));
        for r in &d.train.sessions {
            let tc = d.train.examples[r.start].true_tc;
            assert!(d.train.examples[r.clone()].iter().all(|e| e.true_tc == tc));
        }
    }

    #[test]
    fn pred_tc_consistent_with_pred_sc() {
        let d = generate(&GeneratorConfig::tiny(6));
        for e in d.train.examples.iter().chain(&d.test.examples) {
            assert_eq!(e.pred_tc, d.hierarchy.parent(e.pred_sc));
        }
    }

    #[test]
    fn ids_within_vocab() {
        let d = generate(&GeneratorConfig::tiny(8));
        let m = &d.meta;
        for e in d.train.examples.iter().chain(&d.test.examples) {
            assert!(e.pred_sc < m.sc_vocab);
            assert!(e.pred_tc < m.tc_vocab);
            assert!(e.brand < m.brand_vocab);
            assert!(e.shop < m.shop_vocab);
            assert!(e.user_segment < m.user_segment_vocab);
            assert!(e.price_bucket < m.price_bucket_vocab);
        }
    }

    #[test]
    fn category_sizes_skewed() {
        let cfg = GeneratorConfig {
            train_sessions: 3_000,
            ..GeneratorConfig::tiny(9)
        };
        let d = generate(&cfg);
        let counts = d.train.tc_counts(d.hierarchy.num_tc());
        let clothing = counts[d.hierarchy.tc_by_name("Clothing").unwrap()];
        let books = counts[d.hierarchy.tc_by_name("Books").unwrap()];
        assert!(books > clothing, "books {books} clothing {clothing}");
    }

    #[test]
    fn normal_cdf_sane() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-3);
        assert!(normal_cdf(3.0) > 0.99);
        assert!(normal_cdf(-3.0) < 0.01);
        let diffs = normal_cdf(1.0) + normal_cdf(-1.0);
        assert!((diffs - 1.0).abs() < 1e-3);
    }

    #[test]
    fn calibration_hits_target() {
        let mut rng = Rng::seed_from(11);
        let probe: Vec<f32> = (0..5000).map(|_| rng.normal_with(1.0, 2.0)).collect();
        let b = calibrate_bias(&probe, 0.25);
        let rate: f64 = probe
            .iter()
            .map(|&l| 1.0 / (1.0 + (-(f64::from(l) + f64::from(b))).exp()))
            .sum::<f64>()
            / probe.len() as f64;
        assert!((rate - 0.25).abs() < 1e-3);
    }
}
