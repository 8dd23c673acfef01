//! Tape-free sparse serving for the MoE family.
//!
//! The paper's motivating constraint (Sec. 1, Sec. 4.2) is that only the
//! top-K expert towers are computed at serving time, so capacity can grow
//! with `N` at constant cost. [`ServingMoe`] implements that path:
//! expert-major batching — for each expert, gather the examples that
//! routed to it, run one batched MLP forward, and scatter the weighted
//! outputs back. No autograd tape, no per-op value cloning.
//!
//! It is the one inference path: evaluation scores through it too
//! (`Ranker::predict` for [`MoeModel`] calls [`ServingMoe::predict`]),
//! so every table's AUC comes from the code that serves. Each row's cut
//! is [`amoe_tensor::topk::top_k_softmax`], which rounds exactly as the
//! dense tape's masked softmax does, so the logits equal the oracle
//! [`MoeModel::predict_logits_dense`] (every tower on every row) bit
//! for bit: the tower GEMMs accumulate each row the same way at any
//! batch shape, and the scatter adds a row's K weighted outputs in
//! ascending expert order, the order of the dense row sum, whose other
//! `N − K` terms are ±0.
//!
//! The top-K cut runs serially on the caller and fills a top-K mask and
//! a masked-probability matrix, the two matrices training's gate gives
//! it; the rows each expert serves come from the same CSR training
//! routes with (`ExpertRoutes`). The per-expert forwards are one
//! [`amoe_tensor::pool::map_tasks`] region. The scatter that mixes
//! expert outputs back into the ensemble logit runs serially in expert
//! order, which keeps the floating-point accumulation order — and
//! therefore the logits — bit-identical for every `AMOE_THREADS` value.
//!
//! `examples/serving.rs` demonstrates the constant-cost property by
//! sweeping `N` at fixed `K`; `tests/determinism.rs` holds the logits
//! bit-identical across thread counts at `N` = 8 and 32.
//!
//! Each expert tower runs [`amoe_nn::Mlp::infer`] on the model's own
//! f32 weights, the ones training updates, so loading or swapping a
//! checkpoint builds nothing serving-specific.
//!
//! # Telemetry
//!
//! The three phases (gate, expert dispatch, scatter) are timed by
//! [`amoe_obs::Stage`] from four clock readings per call: gate start,
//! gate end, which is also experts start, experts end, which is also
//! scatter start, and scatter end. Each phase's one duration reaches
//! the returned [`Stats`], the `serving.gate` / `serving.experts` /
//! `serving.scatter` histograms when `AMOE_OBS` is set, and — when
//! request tracing is active ([`amoe_obs::trace`]) and the caller (the
//! `amoe-serve` batcher) has claimed an active batch — the `gate` and
//! `scatter` trace events tagged with that batch id. `AMOE_OBS` also
//! gets one `serving_predict` JSONL event per call. A traced batch
//! additionally records one `expert` event per expert task, and an
//! expert phase that runs on more than one lane shows up as a
//! `pool.region` stage. All of it is observation only, never touching
//! the data path, so scores stay bit-identical with telemetry on.

use std::time::Duration;

use amoe_dataset::Batch;
use amoe_obs::{trace, Stage};
use amoe_tensor::{ops, pool, topk, Matrix};

use crate::gating::ExpertRoutes;
use crate::models::MoeModel;

/// Lightweight instrumentation of one sparse-serving call.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Number of examples scored.
    pub examples: usize,
    /// Lanes the expert phase actually used:
    /// `min(pool budget, n_experts)`. A 64-thread budget dispatching 8
    /// experts still runs 8 lanes, and that is the number reported here.
    pub threads: usize,
    /// Wall time encoding inputs, computing gate logits, cutting each
    /// row's top-K with its softmax and building the routing CSR.
    pub gate_time: Duration,
    /// Wall time of the parallel per-expert gather + MLP forwards.
    pub expert_time: Duration,
    /// Wall time of the serial weighted scatter.
    pub scatter_time: Duration,
    /// Examples routed to each expert (length `N`; sums to ≈ `K·examples`).
    pub dispatch: Vec<usize>,
}

impl Stats {
    /// Total wall time across the instrumented phases.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.gate_time + self.expert_time + self.scatter_time
    }

    /// End-to-end throughput in examples per second.
    ///
    /// Contract: the result is always **finite and non-negative**, so
    /// it can flow into JSONL records (whose schema forbids non-finite
    /// numbers). When the instrumented phases are below clock
    /// resolution the rate is unmeasurable and reads `0.0` — callers
    /// should treat zero as "too fast to measure", not as stalled.
    #[must_use]
    pub fn examples_per_sec(&self) -> f64 {
        let secs = self.total_time().as_secs_f64();
        if secs > 0.0 {
            self.examples as f64 / secs
        } else {
            0.0
        }
    }

    /// Number of experts that received at least one example.
    #[must_use]
    pub fn active_experts(&self) -> usize {
        self.dispatch.iter().filter(|&&n| n > 0).count()
    }

    /// The `serving_predict` telemetry record for this call (phase
    /// nanoseconds, throughput, per-expert dispatch histogram).
    #[must_use]
    pub fn to_event(&self) -> amoe_obs::Event {
        amoe_obs::Event::new("serving_predict")
            .u64("examples", self.examples as u64)
            .u64("threads", self.threads as u64)
            .u64("gate_ns", self.gate_time.as_nanos() as u64)
            .u64("expert_ns", self.expert_time.as_nanos() as u64)
            .u64("scatter_ns", self.scatter_time.as_nanos() as u64)
            .u64("total_ns", self.total_time().as_nanos() as u64)
            .f64("examples_per_sec", self.examples_per_sec())
            .u64("active_experts", self.active_experts() as u64)
            .u64_array("dispatch", self.dispatch.iter().map(|&d| d as u64))
    }

    /// Emits [`Stats::to_event`] to the JSONL sink (no-op when
    /// telemetry is off).
    pub fn emit_event(&self) {
        amoe_obs::emit(&self.to_event());
    }
}

/// A frozen, inference-only view of a trained [`MoeModel`].
///
/// Borrows the model; build it after training (weights are read through
/// the model's parameter set on every call, so no state is copied).
pub struct ServingMoe<'m> {
    model: &'m MoeModel,
}

impl<'m> ServingMoe<'m> {
    /// Wraps a trained model.
    #[must_use]
    pub fn new(model: &'m MoeModel) -> Self {
        ServingMoe { model }
    }

    /// Predicted purchase probabilities, computing only the top-K experts
    /// per example.
    #[must_use]
    pub fn predict(&self, batch: &Batch) -> Vec<f32> {
        ops::sigmoid(&Matrix::from_vec(
            batch.len(),
            1,
            self.predict_logits(batch),
        ))
        .into_vec()
    }

    /// Raw ensemble logits (pre-sigmoid) via the sparse path.
    #[must_use]
    pub fn predict_logits(&self, batch: &Batch) -> Vec<f32> {
        self.predict_logits_with_stats(batch).0
    }

    /// Scores several independent requests in **one** model call and
    /// scatters the results back per request — the micro-batching
    /// primitive behind `amoe-serve`.
    ///
    /// The coalesced call is bit-identical to predicting each part on
    /// its own: every stage of the sparse path treats rows
    /// independently (per-row top-K gating, row-blocked matmuls whose
    /// per-row accumulation order is shape-invariant, and a scatter
    /// that only ever accumulates into a row's own slot in fixed expert
    /// order). The loopback parity test in `tests/serve_loopback.rs`
    /// asserts this end-to-end over TCP for several thread budgets.
    ///
    /// # Panics
    /// Panics if `parts` is empty (batches are never empty by
    /// construction).
    #[must_use]
    pub fn predict_many(&self, parts: &[&Batch]) -> Vec<Vec<f32>> {
        self.predict_many_with_stats(parts).0
    }

    /// [`ServingMoe::predict_many`] plus the [`Stats`] of the single
    /// coalesced forward, so callers can attribute gate/expert/scatter
    /// time per batch without a second instrumentation pass.
    ///
    /// # Panics
    /// Panics if `parts` is empty (batches are never empty by
    /// construction).
    #[must_use]
    pub fn predict_many_with_stats(&self, parts: &[&Batch]) -> (Vec<Vec<f32>>, Stats) {
        assert!(!parts.is_empty(), "predict_many: no request parts");
        let merged;
        let whole: &Batch = if parts.len() == 1 {
            parts[0]
        } else {
            merged = Batch::concat(parts);
            &merged
        };
        let (logits, stats) = self.predict_logits_with_stats(whole);
        let scores = ops::sigmoid(&Matrix::from_vec(whole.len(), 1, logits)).into_vec();
        let mut out = Vec::with_capacity(parts.len());
        let mut offset = 0;
        for p in parts {
            out.push(scores[offset..offset + p.len()].to_vec());
            offset += p.len();
        }
        (out, stats)
    }

    /// Raw ensemble logits plus per-call instrumentation.
    #[must_use]
    pub fn predict_logits_with_stats(&self, batch: &Batch) -> (Vec<f32>, Stats) {
        let model = self.model;
        let params = model.params();
        let cfg = model.config();
        let b = batch.len();
        let n_experts = model.experts().len();
        let mut stats = Stats {
            examples: b,
            threads: pool::effective_workers(n_experts),
            dispatch: vec![0; n_experts],
            ..Stats::default()
        };
        if b == 0 {
            return (Vec::new(), stats);
        }
        // Non-zero only while the batcher computes a traced batch: the
        // forward path tags its stage events with that batch id without
        // any id plumbed through the call chain.
        let tb = trace::active_batch();

        let gate = Stage::start()
            .metric("serving.gate")
            .trace("gate", 0, tb, b as u64);
        // Dense input once; gating from the SC embedding.
        let x = model.encoder_input_infer(batch);
        let gate_in = model.gate_input_infer(batch);
        let logits = model.gate_logits_infer(&gate_in);
        // The serial top-K cut fills the two matrices the tape's
        // `GateOutput` gives training: the 0/1 top-K mask and the
        // masked probabilities (zero outside the top K).
        let mut mask = Matrix::zeros(b, n_experts);
        let mut probs = Matrix::zeros(b, n_experts);
        for r in 0..b {
            let (idx, w) = topk::top_k_softmax(logits.row(r), cfg.top_k);
            for (&e_idx, &p) in idx.iter().zip(&w) {
                mask[(r, e_idx)] = 1.0;
                probs[(r, e_idx)] = p;
            }
        }
        let routes = ExpertRoutes::new(&mask, None);
        let (gate_end, gate_time) = gate.end();

        // One pool region for the per-expert gather + batched MLP
        // forwards, the dominant cost; outputs come back in expert order.
        let experts = Stage::at(gate_end).metric("serving.experts");
        let outputs: Vec<Option<Matrix>> = pool::map_tasks(n_experts, |e_idx| {
            let trace_t0 = (tb != 0).then(trace::now_ns);
            let rows = routes.rows(e_idx);
            let ye = (!rows.is_empty())
                .then(|| model.experts()[e_idx].infer(params, x.gather_rows(rows)));
            if let Some(t0) = trace_t0 {
                trace::record(0, tb, "expert", t0, trace::now_ns(), e_idx as u64);
            }
            ye
        });
        let (experts_end, expert_time) = experts.end();

        // Serial scatter in expert order: every thread count accumulates
        // each `out[r]` in the same order, so logits are bit-identical.
        let scatter = Stage::at(experts_end)
            .metric("serving.scatter")
            .trace("scatter", 0, tb, b as u64);
        let mut out = vec![0f32; b];
        for (e_idx, ye) in outputs.iter().enumerate() {
            let rows = routes.rows(e_idx);
            stats.dispatch[e_idx] = rows.len();
            let Some(ye) = ye else { continue };
            for (i, &r) in rows.iter().enumerate() {
                out[r] += probs[(r, e_idx)] * ye[(i, 0)];
            }
        }
        let (_, scatter_time) = scatter.end();
        stats.gate_time = gate_time;
        stats.expert_time = expert_time;
        stats.scatter_time = scatter_time;
        if amoe_obs::enabled() {
            stats.emit_event();
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MoeConfig, TowerConfig};
    use crate::ranker::{OptimConfig, Ranker};
    use amoe_dataset::{generate, GeneratorConfig};

    fn trained_model() -> (amoe_dataset::Dataset, MoeModel) {
        let d = generate(&GeneratorConfig::tiny(41));
        let cfg = MoeConfig {
            n_experts: 6,
            top_k: 2,
            tower: TowerConfig {
                hidden: vec![12, 6],
            },
            ..MoeConfig::default()
        };
        let mut m = MoeModel::new(&d.meta, cfg, OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..128).collect::<Vec<_>>());
        for _ in 0..10 {
            m.train_step(&batch);
        }
        (d, m)
    }

    /// The oracle's probabilities: the dense tape forward's logits
    /// through the same sigmoid, as bits.
    fn dense_probs_bits(m: &MoeModel, batch: &Batch) -> Vec<u32> {
        let logits = Matrix::from_vec(batch.len(), 1, m.predict_logits_dense(batch));
        bits(ops::sigmoid(&logits).as_slice())
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sparse_serving_matches_dense_training_path() {
        let (d, m) = trained_model();
        let batch = Batch::from_split(&d.test, &(0..50).collect::<Vec<_>>());
        let dense = dense_probs_bits(&m, &batch);
        assert_eq!(bits(&ServingMoe::new(&m).predict(&batch)), dense);
        assert_eq!(bits(&m.predict(&batch)), dense, "evaluation scores");
    }

    #[test]
    fn sparse_serving_matches_dense_for_every_gate_input() {
        use crate::config::GateInput;
        let d = generate(&GeneratorConfig::tiny(43));
        for which in [
            GateInput::Sc,
            GateInput::TcSc,
            GateInput::QueryTcSc,
            GateInput::UserTcSc,
            GateInput::All,
        ] {
            for (n_experts, top_k) in [(4, 2), (10, 4), (8, 1), (6, 6)] {
                let cfg = MoeConfig {
                    n_experts,
                    top_k,
                    gate_input: which,
                    tower: TowerConfig { hidden: vec![8] },
                    ..MoeConfig::default()
                };
                let mut m = MoeModel::new(&d.meta, cfg, OptimConfig::default());
                let batch = Batch::from_split(&d.train, &(0..64).collect::<Vec<_>>());
                for _ in 0..4 {
                    m.train_step(&batch);
                }
                let probe = Batch::from_split(&d.test, &(0..32).collect::<Vec<_>>());
                assert_eq!(
                    bits(&ServingMoe::new(&m).predict_logits(&probe)),
                    bits(&m.predict_logits_dense(&probe)),
                    "{which:?} N={n_experts} K={top_k}"
                );
            }
        }
    }

    #[test]
    fn predict_many_with_stats_is_bit_identical_to_predict_many() {
        let (d, m) = trained_model();
        let a = Batch::from_split(&d.test, &(0..7).collect::<Vec<_>>());
        let b = Batch::from_split(&d.test, &(7..19).collect::<Vec<_>>());
        let serving = ServingMoe::new(&m);
        let plain = serving.predict_many(&[&a, &b]);
        let (with_stats, stats) = serving.predict_many_with_stats(&[&a, &b]);
        assert_eq!(plain, with_stats);
        assert_eq!(stats.examples, 19);
    }

    #[test]
    fn serving_logits_finite() {
        let (d, m) = trained_model();
        let batch = Batch::from_split(&d.test, &(0..20).collect::<Vec<_>>());
        let logits = ServingMoe::new(&m).predict_logits(&batch);
        assert_eq!(logits.len(), 20);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn stats_account_for_dispatch() {
        let (d, m) = trained_model();
        let batch = Batch::from_split(&d.test, &(0..40).collect::<Vec<_>>());
        let (logits, stats) = ServingMoe::new(&m).predict_logits_with_stats(&batch);
        assert_eq!(logits.len(), 40);
        assert_eq!(stats.examples, 40);
        assert_eq!(stats.dispatch.len(), m.config().n_experts);
        // Every example activates exactly K experts.
        let routed: usize = stats.dispatch.iter().sum();
        assert_eq!(routed, 40 * m.config().top_k);
        assert!(stats.active_experts() >= 1);
        assert!(stats.threads >= 1);
        assert!(stats.examples_per_sec() > 0.0);
    }

    #[test]
    fn predict_many_is_bit_identical_to_per_request_predict() {
        let (d, m) = trained_model();
        let serving = ServingMoe::new(&m);
        // Mixed-size request parts, including a single-row request.
        let parts: Vec<Batch> = [&[0usize, 1, 2][..], &[3], &[4, 5, 6, 7, 8], &[9, 10]]
            .iter()
            .map(|idx| Batch::from_split(&d.test, idx))
            .collect();
        let refs: Vec<&Batch> = parts.iter().collect();
        let coalesced = serving.predict_many(&refs);
        assert_eq!(coalesced.len(), parts.len());
        for (part, scores) in parts.iter().zip(&coalesced) {
            assert_eq!(scores, &serving.predict(part), "coalesced scores differ");
        }
    }

    #[test]
    fn logits_identical_across_thread_counts() {
        let (d, m) = trained_model();
        let batch = Batch::from_split(&d.test, &(0..60).collect::<Vec<_>>());
        let serving = ServingMoe::new(&m);
        amoe_tensor::pool::set_threads(1);
        let reference = serving.predict_logits(&batch);
        for t in [2usize, 4, 8] {
            amoe_tensor::pool::set_threads(t);
            assert_eq!(
                serving.predict_logits(&batch),
                reference,
                "logits diverged at {t} threads"
            );
        }
        amoe_tensor::pool::clear_threads_override();
    }
}
