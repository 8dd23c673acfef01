//! Distribution drift over the synthetic log: a streaming session
//! source whose generating process changes over discrete ticks.
//!
//! The static [`crate::generate`] snapshot answers "train once,
//! evaluate once". The online-learning loop needs the opposite: an
//! unbounded stream whose distribution moves under the model's feet,
//! so staleness has a measurable cost. [`DriftWorld`] provides that
//! stream with three seeded, deterministic drift mechanisms:
//!
//! 1. **Emerging sub-categories** — a fixed set of tail SCs per TC has
//!    zero traffic share before a scheduled activation tick and a
//!    boosted share afterwards. The *vocabulary never changes* (new SCs
//!    exist in the schema from tick 0), so every checkpoint along the
//!    stream stays RELOAD-compatible with a server started on the seed
//!    snapshot; what changes is which ids actually carry traffic.
//! 2. **Brand-popularity shift** — each TC's Zipf popularity vector
//!    blends linearly from the seed ranking toward a permuted target
//!    ranking: yesterday's head brands decay, tail brands rise. Sales
//!    features and raw sales follow the *current* popularity, so the
//!    sales↔popularity correlation the models exploit drifts too.
//! 3. **Seasonal feature-weight rotation** — each TC rotates its
//!    ground-truth weight vector in a fixed two-feature plane by an
//!    angle that oscillates sinusoidally over ticks. Norms are
//!    preserved; *which* feature matters changes with the season.
//!
//! Every window is a pure function of `(GeneratorConfig, DriftConfig,
//! tick)`: [`DriftWorld::window`] takes `&self`, derives a fresh RNG
//! stream per tick, and never mutates world state — so streams are
//! bit-identical across runs, replay order, and `AMOE_THREADS`.

use std::ops::Range;

use amoe_tensor::{ops, Rng, WeightTable};

use crate::brands::BrandUniverse;
use crate::config::GeneratorConfig;
use crate::data::{DatasetMeta, Example, Split, N_NUMERIC};
use crate::generator::{calibrate_bias, normal_cdf, shop_weights, F_SALES};
use crate::hierarchy::{CategoryHierarchy, ScId, TcId};
use crate::query_model::QueryClassifier;
use crate::truth::GroundTruth;

/// Offset added to the per-tick RNG stream id so window streams never
/// collide with the static generator's streams 1–5.
const WINDOW_STREAM_BASE: u64 = 0x00D7_1F70;

/// Seeded drift schedule parameters. All drift is a deterministic
/// function of this config plus the tick index.
#[derive(Clone, Debug)]
pub struct DriftConfig {
    /// Seed for the drift schedule (activation ticks, target brand
    /// permutations, rotation planes/phases). Independent of the world
    /// seed so the same world can be replayed under different drifts.
    pub seed: u64,
    /// Number of tail sub-categories per top-category that start with
    /// zero traffic and activate mid-stream.
    pub emerging_per_tc: usize,
    /// Earliest tick at which an emerging SC may activate.
    pub activation_start: u64,
    /// Activation ticks are staggered uniformly over
    /// `[activation_start, activation_start + activation_span)`.
    pub activation_span: u64,
    /// Traffic-share multiplier an emerging SC receives once active
    /// (new categories arrive hot, which is what makes staleness hurt).
    pub emerging_boost: f64,
    /// Per-tick progress of the brand-popularity blend; the mix hits
    /// 100% target ranking at tick `1 / brand_shift_per_tick`.
    pub brand_shift_per_tick: f64,
    /// Ticks per full seasonal cycle of the weight rotation.
    pub season_period: f64,
    /// Peak rotation angle in radians.
    pub season_amplitude: f32,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            seed: 7,
            emerging_per_tc: 3,
            activation_start: 2,
            activation_span: 6,
            emerging_boost: 3.0,
            brand_shift_per_tick: 0.08,
            season_period: 16.0,
            season_amplitude: 1.1,
        }
    }
}

impl DriftConfig {
    /// Panics on nonsensical settings.
    pub fn validate(&self) {
        assert!(self.activation_span >= 1, "activation_span must be >= 1");
        assert!(self.emerging_boost > 0.0, "emerging_boost must be > 0");
        assert!(
            self.brand_shift_per_tick >= 0.0,
            "brand_shift_per_tick must be >= 0"
        );
        assert!(self.season_period > 0.0, "season_period must be > 0");
    }
}

/// One timestamped window of the drifting stream.
#[derive(Clone, Debug)]
pub struct SessionWindow {
    /// Logical timestamp: the stream tick this window was emitted at.
    pub tick: u64,
    /// The window's sessions, in the standard split layout.
    pub split: Split,
}

/// A query in the stream's fixed query universe (identical to the
/// static generator's: same RNG stream, same classifier channel).
#[derive(Clone, Debug)]
struct StreamQuery {
    true_sc: ScId,
    pred_sc: ScId,
    popularity: f64,
}

/// A drifting world: the static world model (hierarchy, brands, ground
/// truth, query universe — built exactly like [`crate::generate`]'s,
/// so the schema and seed distribution match the snapshot trained on)
/// plus a precomputed drift schedule.
pub struct DriftWorld {
    config: GeneratorConfig,
    drift: DriftConfig,
    hierarchy: CategoryHierarchy,
    brands: BrandUniverse,
    truth: GroundTruth,
    queries: Vec<StreamQuery>,
    meta: DatasetMeta,
    /// Per-SC activation tick; 0 = carried traffic from the start.
    activation: Vec<u64>,
    /// Per-TC target (fully-shifted) brand popularity vectors.
    brand_target: Vec<Vec<f64>>,
    /// Per-TC rotation plane (two distinct feature indices).
    season_plane: Vec<(usize, usize)>,
    /// Per-TC seasonal phase offset.
    season_phase: Vec<f32>,
    /// Zipf shop-rank weights (shop popularity does not drift).
    shop_weights: WeightTable,
}

impl DriftWorld {
    /// Builds the world and drift schedule. Deterministic in
    /// `(config, drift)`.
    ///
    /// # Panics
    /// Panics if either config is invalid, or if `emerging_per_tc`
    /// does not leave at least one always-active SC per TC.
    #[must_use]
    pub fn new(config: &GeneratorConfig, drift: &DriftConfig) -> Self {
        config.validate();
        drift.validate();
        assert!(
            drift.emerging_per_tc < config.subs_per_tc,
            "emerging_per_tc ({}) must leave at least one always-active SC per TC ({})",
            drift.emerging_per_tc,
            config.subs_per_tc
        );

        // Mirror `generate`'s stream forks so hierarchy/brands/truth —
        // and therefore the schema and calibrated bias — are identical
        // to the seed snapshot a frozen model was trained on.
        let mut root = Rng::seed_from(config.seed);
        let mut world_rng = root.fork(1);
        let mut query_rng = root.fork(2);
        let mut calib_rng = root.fork(3);

        let hierarchy = CategoryHierarchy::with_subs(config.subs_per_tc);
        let brands = BrandUniverse::build(&hierarchy, config.brands_per_tc, &mut world_rng);
        let mut truth = GroundTruth::build(&hierarchy, config.sibling_weight_noise, &mut world_rng);

        let classifier = QueryClassifier::new(
            config.classifier_accuracy,
            config.classifier_sibling_confusion,
        );
        let sc_shares = WeightTable::new(hierarchy.sc_shares().to_vec());
        let queries: Vec<StreamQuery> = (0..config.n_queries)
            .map(|_| {
                let true_sc = query_rng.weighted_index(&sc_shares);
                let pred_sc = classifier.predict(&hierarchy, true_sc, &mut query_rng);
                let popularity = (1.0 - query_rng.uniform()).powf(2.0) + 0.05;
                StreamQuery {
                    true_sc,
                    pred_sc,
                    popularity,
                }
            })
            .collect();

        let probe: Vec<f32> = (0..4000)
            .map(|_| {
                let sc = calib_rng.weighted_index(&sc_shares);
                let tc = hierarchy.parent(sc);
                let brand = brands.sample_brand(tc, &mut calib_rng);
                let latent = sample_latent_with(brands.popularity(brand), &mut calib_rng);
                truth.logit(sc, &latent, brands.quality(brand))
                    + calib_rng.normal_with(0.0, config.label_noise)
            })
            .collect();
        truth.set_bias(calibrate_bias(&probe, config.target_purchase_rate));

        // --- drift schedule (own seed, own streams) ---------------------
        let mut drift_root = Rng::seed_from(drift.seed);
        let mut sched_rng = drift_root.fork(1);

        let mut activation = vec![0u64; hierarchy.num_sc()];
        for tc in 0..hierarchy.num_tc() {
            let subs = hierarchy.subs_of(tc);
            for k in 0..drift.emerging_per_tc {
                let sc = subs.end - 1 - k;
                activation[sc] =
                    drift.activation_start + sched_rng.below(drift.activation_span as usize) as u64;
            }
        }

        let bpt = brands.brands_per_tc();
        let brand_target: Vec<Vec<f64>> = (0..hierarchy.num_tc())
            .map(|tc| {
                let mut w: Vec<f64> = (0..bpt).map(|r| brands.popularity(tc * bpt + r)).collect();
                sched_rng.shuffle(&mut w);
                w
            })
            .collect();

        let season_plane: Vec<(usize, usize)> = (0..hierarchy.num_tc())
            .map(|_| {
                let i = sched_rng.below(N_NUMERIC);
                let mut j = sched_rng.below(N_NUMERIC - 1);
                if j >= i {
                    j += 1;
                }
                (i, j)
            })
            .collect();
        let season_phase: Vec<f32> = (0..hierarchy.num_tc())
            .map(|_| sched_rng.uniform_in(0.0, std::f32::consts::TAU))
            .collect();

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

        DriftWorld {
            config: config.clone(),
            drift: drift.clone(),
            hierarchy,
            brands,
            truth,
            queries,
            meta,
            activation,
            brand_target,
            season_plane,
            season_phase,
            shop_weights: shop_weights(config.n_shops),
        }
    }

    /// Schema of every window (fixed for the stream's whole lifetime).
    #[must_use]
    pub fn meta(&self) -> &DatasetMeta {
        &self.meta
    }

    /// The category tree behind the stream.
    #[must_use]
    pub fn hierarchy(&self) -> &CategoryHierarchy {
        &self.hierarchy
    }

    /// The base generator configuration.
    #[must_use]
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// The drift schedule parameters.
    #[must_use]
    pub fn drift(&self) -> &DriftConfig {
        &self.drift
    }

    /// Whether `sc` carries traffic at `tick`.
    #[must_use]
    pub fn sc_active(&self, sc: ScId, tick: u64) -> bool {
        tick >= self.activation[sc]
    }

    /// The tick at which `sc` starts carrying traffic (0 = always on).
    #[must_use]
    pub fn activation_tick(&self, sc: ScId) -> u64 {
        self.activation[sc]
    }

    /// Blend factor of the brand-popularity shift at `tick`: 0 = seed
    /// ranking, 1 = fully permuted target ranking.
    #[must_use]
    pub fn brand_mix(&self, tick: u64) -> f64 {
        (tick as f64 * self.drift.brand_shift_per_tick).min(1.0)
    }

    /// Effective (unnormalised) popularity of local brand rank `local`
    /// in `tc` at `tick`.
    #[must_use]
    pub fn brand_weight(&self, tc: TcId, local: usize, tick: u64) -> f64 {
        let alpha = self.brand_mix(tick);
        let base = self
            .brands
            .popularity(tc * self.brands.brands_per_tc() + local);
        (1.0 - alpha) * base + alpha * self.brand_target[tc][local]
    }

    /// Seasonal rotation angle of `tc`'s weight plane at `tick`.
    #[must_use]
    pub fn season_angle(&self, tc: TcId, tick: u64) -> f32 {
        let t = tick as f64 / self.drift.season_period;
        self.drift.season_amplitude
            * ((std::f64::consts::TAU * t) as f32 + self.season_phase[tc]).sin()
    }

    /// The effective ground-truth weight vector of `sc` at `tick`: the
    /// seed weights rotated by [`Self::season_angle`] in the TC's
    /// drift plane. Norm-preserving; equals the seed weights whenever
    /// the angle is zero.
    #[must_use]
    pub fn drift_weight(&self, sc: ScId, tick: u64) -> [f32; N_NUMERIC] {
        let tc = self.hierarchy.parent(sc);
        let mut w = *self.truth.sc_weight(sc);
        let (i, j) = self.season_plane[tc];
        let theta = self.season_angle(tc, tick);
        let (sin, cos) = theta.sin_cos();
        let (wi, wj) = (w[i], w[j]);
        w[i] = cos * wi - sin * wj;
        w[j] = sin * wi + cos * wj;
        w
    }

    /// Purchase logit at `tick`: the seed ground truth with the
    /// seasonally rotated weight vector.
    #[must_use]
    pub fn drift_logit(
        &self,
        sc: ScId,
        latent: &[f32; N_NUMERIC],
        brand_quality: f32,
        tick: u64,
    ) -> f32 {
        let tc = self.hierarchy.parent(sc);
        let w = self.drift_weight(sc, tick);
        let dot: f32 = w.iter().zip(latent).map(|(a, b)| a * b).sum();
        let iw = self.truth.sc_interaction(sc);
        let ix1 = (latent[0] * latent[4]).clamp(-3.0, 3.0);
        let ix2 = (latent[1] * latent[5]).clamp(-3.0, 3.0);
        dot + iw[0] * ix1
            + iw[1] * ix2
            + self.truth.brand_strength(tc) * brand_quality
            + self.truth.bias()
    }

    /// Emits the session window for `tick`. Pure: same `(world, tick,
    /// n_sessions)` → bit-identical window, independent of call order
    /// and thread count.
    ///
    /// # Panics
    /// Panics if `n_sessions` is zero.
    #[must_use]
    pub fn window(&self, tick: u64, n_sessions: usize) -> SessionWindow {
        assert!(n_sessions > 0, "DriftWorld::window: n_sessions must be > 0");
        let _stage = amoe_obs::StageScope::enter("dataset.window");
        let mut root = Rng::seed_from(self.config.seed);
        let mut rng = root.fork(WINDOW_STREAM_BASE ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        // Query traffic at this tick: base popularity, gated on the
        // target SC being active and boosted while it is "new".
        let query_weights = WeightTable::new(
            self.queries
                .iter()
                .map(|q| {
                    let act = self.activation[q.true_sc];
                    if tick < act {
                        0.0
                    } else if act > 0 {
                        q.popularity * self.drift.emerging_boost
                    } else {
                        q.popularity
                    }
                })
                .collect(),
        );

        // Per-TC effective brand popularity and active sibling sets.
        let bpt = self.brands.brands_per_tc();
        let brand_weights: Vec<WeightTable> = (0..self.hierarchy.num_tc())
            .map(|tc| WeightTable::new((0..bpt).map(|r| self.brand_weight(tc, r, tick)).collect()))
            .collect();
        let active_subs: Vec<Vec<ScId>> = (0..self.hierarchy.num_tc())
            .map(|tc| {
                self.hierarchy
                    .subs_of(tc)
                    .filter(|&sc| self.sc_active(sc, tick))
                    .collect()
            })
            .collect();

        let span = self.config.max_items_per_session - self.config.min_items_per_session + 1;
        let mut examples = Vec::new();
        let mut sessions: Vec<Range<usize>> = Vec::with_capacity(n_sessions);
        for session_id in 0..n_sessions {
            let qid = rng.weighted_index(&query_weights);
            let query = &self.queries[qid];
            let n_items = self.config.min_items_per_session + rng.below(span);
            let user_segment = rng.below(self.config.n_user_segments);
            let start = examples.len();
            for _ in 0..n_items {
                let true_sc = if rng.bernoulli(0.85) {
                    query.true_sc
                } else {
                    let sibs = &active_subs[self.hierarchy.parent(query.true_sc)];
                    sibs[rng.below(sibs.len())]
                };
                let true_tc = self.hierarchy.parent(true_sc);
                let local = rng.weighted_index(&brand_weights[true_tc]);
                let brand = true_tc * bpt + local;
                let popularity = brand_weights[true_tc].weights()[local];
                let latent = sample_latent_with(popularity, &mut rng);

                let logit = self.drift_logit(true_sc, &latent, self.brands.quality(brand), tick)
                    + rng.normal_with(0.0, self.config.label_noise);
                let label = rng.bernoulli(ops::sigmoid_scalar(logit) as f64);

                let mut numeric = [0f32; N_NUMERIC];
                for (obs, &lat) in numeric.iter_mut().zip(&latent) {
                    *obs = lat + rng.normal_with(0.0, self.config.feature_noise);
                }
                let price_cdf = normal_cdf(numeric[crate::generator::F_PRICE]);
                let price_bucket = ((price_cdf * self.config.n_price_buckets as f32) as usize)
                    .min(self.config.n_price_buckets - 1);
                let raw_sales = (popularity as f32) * (rng.normal_with(0.0, 0.4)).exp() * 1000.0;

                examples.push(Example {
                    session: session_id as u32,
                    query: qid as u32,
                    true_sc,
                    true_tc,
                    pred_sc: query.pred_sc,
                    pred_tc: self.hierarchy.parent(query.pred_sc),
                    brand,
                    shop: rng.weighted_index(&self.shop_weights),
                    user_segment,
                    price_bucket,
                    numeric,
                    label,
                    raw_sales,
                });
            }
            sessions.push(start..examples.len());
        }
        SessionWindow {
            tick,
            split: Split { examples, sessions },
        }
    }
}

/// Latent numeric features for a product with the given (effective)
/// popularity weight — the drift-aware analog of the static
/// generator's latent sampler: sales track the popularity *current at
/// the tick*, not the seed ranking.
fn sample_latent_with(popularity: f64, rng: &mut Rng) -> [f32; N_NUMERIC] {
    let mut latent = [0f32; N_NUMERIC];
    for v in &mut latent {
        *v = rng.normal() as f32;
    }
    let pop_z = (popularity.ln() as f32 + 2.5) * 0.6;
    latent[F_SALES] = 0.8 * pop_z + 0.6 * latent[F_SALES];
    latent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn world() -> DriftWorld {
        DriftWorld::new(&GeneratorConfig::tiny(42), &DriftConfig::default())
    }

    #[test]
    fn windows_are_deterministic() {
        let w1 = world();
        let w2 = world();
        for tick in [0u64, 3, 9] {
            let a = w1.window(tick, 20);
            let b = w2.window(tick, 20);
            assert_eq!(a.split.len(), b.split.len());
            for (x, y) in a.split.examples.iter().zip(&b.split.examples) {
                assert_eq!(x.numeric, y.numeric);
                assert_eq!(x.label, y.label);
                assert_eq!(x.brand, y.brand);
                assert_eq!(x.true_sc, y.true_sc);
            }
        }
    }

    #[test]
    fn window_independent_of_emission_order() {
        let w = world();
        let late_first = w.window(7, 15);
        let _ = w.window(0, 15);
        let late_again = w.window(7, 15);
        for (x, y) in late_first
            .split
            .examples
            .iter()
            .zip(&late_again.split.examples)
        {
            assert_eq!(x.numeric, y.numeric);
            assert_eq!(x.label, y.label);
        }
    }

    #[test]
    fn schema_matches_static_generator() {
        let cfg = GeneratorConfig::tiny(42);
        let d = generate(&cfg);
        let w = DriftWorld::new(&cfg, &DriftConfig::default());
        assert_eq!(*w.meta(), d.meta);
    }

    #[test]
    fn emerging_scs_silent_before_activation() {
        let w = world();
        let emerging: Vec<ScId> = (0..w.meta().sc_vocab)
            .filter(|&sc| w.activation_tick(sc) > 0)
            .collect();
        assert_eq!(
            emerging.len(),
            w.hierarchy().num_tc() * w.drift().emerging_per_tc
        );
        // Before any activation tick, no emerging SC appears.
        let early = w.window(0, 60);
        for e in &early.split.examples {
            assert!(
                w.sc_active(e.true_sc, 0),
                "inactive sc {} emitted at tick 0",
                e.true_sc
            );
        }
        // Well past the activation span, emerging SCs carry traffic.
        let horizon = w.drift().activation_start + w.drift().activation_span + 2;
        let late = w.window(horizon, 400);
        let seen = late
            .split
            .examples
            .iter()
            .filter(|e| w.activation_tick(e.true_sc) > 0)
            .count();
        assert!(seen > 0, "no emerging-SC traffic at tick {horizon}");
    }

    #[test]
    fn brand_mix_progresses_and_saturates() {
        let w = world();
        assert_eq!(w.brand_mix(0), 0.0);
        assert!(w.brand_mix(5) > 0.0 && w.brand_mix(5) < 1.0);
        assert_eq!(w.brand_mix(1_000), 1.0);
        // Blended weights stay positive (valid sampling weights).
        for tc in 0..w.hierarchy().num_tc() {
            for local in 0..w.config().brands_per_tc {
                assert!(w.brand_weight(tc, local, 6) > 0.0);
            }
        }
    }

    #[test]
    fn seasonal_rotation_preserves_norm_and_moves_weights() {
        let w = world();
        let sc = 0;
        let base = w
            .drift_weight(sc, 0)
            .iter()
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt();
        let mut max_delta = 0f32;
        for tick in 0..20u64 {
            let rot = w.drift_weight(sc, tick);
            let norm = rot.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - base).abs() < 1e-4, "norm drift at tick {tick}");
            let delta: f32 = rot
                .iter()
                .zip(w.drift_weight(sc, 0).iter())
                .map(|(a, b)| (a - b).abs())
                .sum();
            max_delta = max_delta.max(delta);
        }
        assert!(max_delta > 0.1, "rotation never moved the weights");
    }

    #[test]
    fn windows_have_sessions_and_both_label_classes() {
        let w = world();
        let win = w.window(4, 120);
        assert_eq!(win.tick, 4);
        let mut covered = 0usize;
        for r in &win.split.sessions {
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, win.split.len());
        let rate = win.split.positive_rate();
        assert!(rate > 0.01 && rate < 0.6, "positive rate {rate}");
        for e in &win.split.examples {
            assert!(e.true_sc < w.meta().sc_vocab);
            assert!(e.brand < w.meta().brand_vocab);
            assert!(e.price_bucket < w.meta().price_bucket_vocab);
        }
    }

    #[test]
    fn different_drift_seeds_change_the_schedule() {
        let cfg = GeneratorConfig::tiny(42);
        let a = DriftWorld::new(
            &cfg,
            &DriftConfig {
                seed: 1,
                ..DriftConfig::default()
            },
        );
        let b = DriftWorld::new(
            &cfg,
            &DriftConfig {
                seed: 2,
                ..DriftConfig::default()
            },
        );
        let differ =
            (0..a.meta().sc_vocab).any(|sc| a.activation_tick(sc) != b.activation_tick(sc));
        assert!(differ, "activation schedules identical across drift seeds");
    }
}
