//! Epoch-based training and session-level evaluation.
//!
//! # Telemetry
//!
//! Each epoch produces one structured `train_epoch` event carrying the
//! loss decomposition (CE / HSC / AdvLoss / load-balance), and — for
//! gated models while `AMOE_OBS` is set — the mean gate entropy and
//! per-expert dispatch counts. The same event backs both outputs: the
//! JSONL sink (machine-readable, see `amoe_obs`) and the `verbose`
//! stderr line (human-readable), so the two can never drift apart.

use amoe_dataset::{Batch, Batcher, Split};
use amoe_metrics::{log_loss, roc_auc, session_auc, session_ndcg, SessionEval};
use amoe_tensor::pool;

use crate::ranker::{Ranker, StepStats};

/// Training-loop configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffling seed.
    pub seed: u64,
    /// Batch size used when scoring the evaluation split.
    pub eval_batch_size: usize,
    /// Print per-epoch progress to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 2,
            batch_size: 256,
            seed: 4242,
            eval_batch_size: 1024,
            verbose: false,
        }
    }
}

/// Evaluation-metric bundle (the columns of the paper's Table 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalReport {
    /// Mean per-session AUC.
    pub auc: f64,
    /// Mean per-session NDCG over the full ranked list.
    pub ndcg: f64,
    /// Mean per-session NDCG over the top 10 positions.
    pub ndcg_at_10: f64,
    /// Global (pooled) AUC, a secondary diagnostic.
    pub global_auc: f64,
    /// Mean binary log-loss.
    pub log_loss: f64,
    /// Number of sessions that contributed to the session metrics.
    pub sessions: usize,
}

/// Drives a [`Ranker`] through training epochs and evaluations.
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    #[must_use]
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `model` on `train` for the configured number of epochs.
    /// Returns the mean loss decomposition of the final epoch.
    ///
    /// Per-step stats are batch means, so the epoch mean weights each
    /// step by its batch's example count. An unweighted mean over steps
    /// would over-weight the trailing partial batch whenever the split
    /// size is not a multiple of `batch_size` — every example counts
    /// once here, regardless of which batch it landed in.
    pub fn fit(&self, model: &mut dyn Ranker, train: &Split) -> StepStats {
        self.fit_epochs(model, train, self.config.epochs)
    }

    /// Refits `model` on a sliding `window` of recent sessions with an
    /// explicit epoch count — the online loop's warm-start entry
    /// point, where the per-refit budget (often a single pass over a
    /// small window) is decoupled from the offline `epochs` setting.
    pub fn fit_window(&self, model: &mut dyn Ranker, window: &Split, epochs: usize) -> StepStats {
        self.fit_epochs(model, window, epochs)
    }

    fn fit_epochs(&self, model: &mut dyn Ranker, train: &Split, epochs: usize) -> StepStats {
        let mut batcher = Batcher::new(train, self.config.batch_size, self.config.seed);
        let mut last = StepStats::default();
        for epoch in 0..epochs {
            let epoch_stage = amoe_obs::Stage::start().metric("trainer.epoch");
            let mut sum = StepStats::default();
            let mut examples = 0usize;
            // next_batch returns None exactly once per epoch boundary.
            while let Some(idx) = batcher.next_batch() {
                let batch = Batch::from_split(train, idx);
                let w = batch.len() as f32;
                let s = model.train_step(&batch);
                sum.loss += s.loss * w;
                sum.ce += s.ce * w;
                sum.hsc += s.hsc * w;
                sum.adv += s.adv * w;
                sum.load_balance += s.load_balance * w;
                examples += batch.len();
            }
            let inv = 1.0 / examples.max(1) as f32;
            last = StepStats {
                loss: sum.loss * inv,
                ce: sum.ce * inv,
                hsc: sum.hsc * inv,
                adv: sum.adv * inv,
                load_balance: sum.load_balance * inv,
            };
            let (_, epoch_time) = epoch_stage.end();
            if self.config.verbose || amoe_obs::enabled() {
                self.report_epoch(model, epoch, epochs, &last, epoch_time);
            }
        }
        last
    }

    /// Builds the `train_epoch` event for one finished epoch and routes
    /// it to the JSONL sink and/or the verbose stderr line.
    fn report_epoch(
        &self,
        model: &mut dyn Ranker,
        epoch: usize,
        epochs: usize,
        stats: &StepStats,
        epoch_time: std::time::Duration,
    ) {
        let mut event = amoe_obs::Event::new("train_epoch")
            .str("model", model.name())
            .u64("epoch", epoch as u64 + 1)
            .u64("epochs", epochs as u64)
            .f64("epoch_secs", epoch_time.as_secs_f64())
            .f64("loss", f64::from(stats.loss))
            .f64("ce", f64::from(stats.ce))
            .f64("hsc", f64::from(stats.hsc))
            .f64("adv", f64::from(stats.adv))
            .f64("load_balance", f64::from(stats.load_balance));
        if let Some(gate) = model.take_gate_telemetry() {
            event = event
                .f64("gate_entropy", gate.mean_entropy())
                .u64_array("dispatch", gate.dispatch.iter().copied());
        }
        amoe_obs::emit(&event);
        if self.config.verbose {
            eprintln!("{}", event.to_human());
        }
    }

    /// Scores every example of `split` in evaluation batches.
    ///
    /// Batches are independent (evaluation mode is stateless), so they
    /// shard across the [`amoe_tensor::pool`] runtime; per-batch score
    /// vectors are concatenated in batch order, which keeps the output
    /// identical to the serial sweep for every `AMOE_THREADS` value.
    #[must_use]
    pub fn score_split(&self, model: &dyn Ranker, split: &Split) -> Vec<f32> {
        let _stage = amoe_obs::StageScope::enter("trainer.score_split");
        let bs = self.config.eval_batch_size.max(1);
        let n_batches = split.len().div_ceil(bs);
        let per_batch = pool::map_tasks(n_batches, |bi| {
            let start = bi * bs;
            let end = (start + bs).min(split.len());
            let idx: Vec<usize> = (start..end).collect();
            let batch = Batch::from_split(split, &idx);
            model.predict(&batch)
        });
        let mut scores = Vec::with_capacity(split.len());
        for s in per_batch {
            scores.extend(s);
        }
        scores
    }

    /// Evaluates `model` on `split` with the paper's session-level
    /// protocol.
    #[must_use]
    pub fn evaluate(&self, model: &dyn Ranker, split: &Split) -> EvalReport {
        let scores = self.score_split(model, split);
        evaluate_scores(&scores, split)
    }
}

/// Computes the metric bundle from precomputed example scores.
///
/// # Panics
/// Panics if `scores.len() != split.len()`.
#[must_use]
pub fn evaluate_scores(scores: &[f32], split: &Split) -> EvalReport {
    assert_eq!(
        scores.len(),
        split.len(),
        "evaluate_scores: {} scores for {} examples",
        scores.len(),
        split.len()
    );
    let labels: Vec<bool> = split.examples.iter().map(|e| e.label).collect();
    let sessions: Vec<SessionEval<'_>> = split
        .sessions
        .iter()
        .map(|r| SessionEval {
            scores: &scores[r.clone()],
            labels: &labels[r.clone()],
        })
        .collect();
    let contributing = sessions
        .iter()
        .filter(|s| s.labels.iter().any(|&l| l) && s.labels.iter().any(|&l| !l))
        .count();
    EvalReport {
        auc: session_auc(&sessions).unwrap_or(0.5),
        ndcg: session_ndcg(&sessions, None).unwrap_or(0.0),
        ndcg_at_10: session_ndcg(&sessions, Some(10)).unwrap_or(0.0),
        global_auc: roc_auc(scores, &labels).unwrap_or(0.5),
        log_loss: log_loss(scores, &labels),
        sessions: contributing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MoeConfig, TowerConfig};
    use crate::models::{DnnModel, MoeModel};
    use crate::ranker::OptimConfig;
    use amoe_dataset::{generate, GeneratorConfig};

    fn fast_cfg() -> MoeConfig {
        MoeConfig {
            n_experts: 4,
            top_k: 2,
            tower: TowerConfig {
                hidden: vec![12, 6],
            },
            ..MoeConfig::default()
        }
    }

    #[test]
    fn fit_and_evaluate_dnn_beats_random() {
        let d = generate(&GeneratorConfig {
            train_sessions: 700,
            test_sessions: 200,
            ..GeneratorConfig::tiny(31)
        });
        let mut model = DnnModel::new(&d.meta, &fast_cfg(), OptimConfig::default());
        let trainer = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 128,
            ..Default::default()
        });
        trainer.fit(&mut model, &d.train);
        let report = trainer.evaluate(&model, &d.test);
        assert!(report.auc > 0.55, "AUC {:.4} not above chance", report.auc);
        assert!(report.ndcg > 0.0 && report.ndcg <= 1.0);
        assert!(report.ndcg_at_10 <= report.ndcg + 1e-9);
        assert!(report.sessions > 0);
    }

    #[test]
    fn fit_moe_learns() {
        let d = generate(&GeneratorConfig {
            train_sessions: 700,
            test_sessions: 200,
            ..GeneratorConfig::tiny(32)
        });
        let mut model = MoeModel::new(&d.meta, fast_cfg(), OptimConfig::default());
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 128,
            ..Default::default()
        });
        let stats = trainer.fit(&mut model, &d.train);
        assert!(stats.loss.is_finite());
        let report = trainer.evaluate(&model, &d.test);
        assert!(report.auc > 0.55, "AUC {:.4}", report.auc);
    }

    #[test]
    fn score_split_covers_every_example() {
        let d = generate(&GeneratorConfig::tiny(33));
        let model = DnnModel::new(&d.meta, &fast_cfg(), OptimConfig::default());
        let trainer = Trainer::new(TrainConfig::default());
        let scores = trainer.score_split(&model, &d.test);
        assert_eq!(scores.len(), d.test.len());
    }

    #[test]
    fn evaluate_scores_perfect_oracle() {
        // Scores equal to labels give AUC = NDCG = 1 on every session
        // containing both classes.
        let d = generate(&GeneratorConfig::tiny(34));
        let scores: Vec<f32> = d
            .test
            .examples
            .iter()
            .map(|e| if e.label { 0.9 } else { 0.1 })
            .collect();
        let r = evaluate_scores(&scores, &d.test);
        assert!((r.auc - 1.0).abs() < 1e-9);
        assert!((r.ndcg - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "evaluate_scores")]
    fn evaluate_scores_length_mismatch_panics() {
        let d = generate(&GeneratorConfig::tiny(35));
        let _ = evaluate_scores(&[0.5], &d.test);
    }

    /// Stub ranker whose per-step loss is the batch's mean label — a
    /// genuine per-example mean, like the real models'. The weighted
    /// epoch mean must then equal the split's overall label mean no
    /// matter how the epoch was batched.
    struct MeanLabelRanker;

    impl Ranker for MeanLabelRanker {
        fn name(&self) -> String {
            "mean-label-stub".into()
        }
        fn train_step(&mut self, batch: &Batch) -> StepStats {
            let pos = batch.labels.as_slice().iter().sum::<f32>();
            StepStats {
                loss: pos / batch.len() as f32,
                ..StepStats::default()
            }
        }
        fn predict(&self, batch: &Batch) -> Vec<f32> {
            vec![0.5; batch.len()]
        }
        fn num_parameters(&self) -> usize {
            0
        }
    }

    #[test]
    fn epoch_mean_weights_trailing_partial_batch_by_size() {
        let d = generate(&GeneratorConfig::tiny(36));
        let n = d.train.len();
        // A batch size that leaves a small trailing remainder, so the
        // last batch holds fewer examples than the rest. An unweighted
        // mean over steps would over-weight that remainder.
        let batch_size = (n - 3) / 2;
        assert!(
            !n.is_multiple_of(batch_size),
            "test needs a partial trailing batch"
        );
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            batch_size,
            ..Default::default()
        });
        let stats = trainer.fit(&mut MeanLabelRanker, &d.train);
        let overall = d.train.examples.iter().filter(|e| e.label).count() as f32 / n as f32;
        assert!(
            (stats.loss - overall).abs() < 1e-6,
            "epoch mean {} != split label mean {}",
            stats.loss,
            overall
        );
    }
}
