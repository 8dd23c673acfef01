//! The online trainer daemon: sliding window → warm-started refit →
//! atomic export → `RELOAD` push.
//!
//! [`OnlineLoop`] consumes one [`SessionWindow`] per tick. Each tick it
//! optionally *probes* a live server with rows from the fresh window
//! (measuring that the server answers every admitted request through
//! model swaps), appends the window to a bounded sliding buffer, and —
//! every `refit_every` ticks once the buffer holds data — refits:
//!
//! 1. warm-start from the previous generation's exported checkpoint
//!    (the very first refit warm-starts from the seed checkpoint when
//!    one is configured, otherwise from fresh initialisation);
//! 2. run [`Trainer::fit_window`] over the concatenated window;
//! 3. export `gen-NNNNNN.amoe` + `.spec` atomically via
//!    [`CheckpointStore`]; and
//! 4. push `RELOAD` to the server, timing the swap.
//!
//! The loop can also run without a server (`serve_addr: None`) — the
//! staleness bench drives it that way, scoring the in-process model
//! directly while a separate harness owns the serving side.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

use amoe_core::ranker::OptimConfig;
use amoe_core::{MoeConfig, MoeModel, TrainConfig, Trainer};
use amoe_dataset::drift::{DriftConfig, SessionWindow};
use amoe_dataset::{GeneratorConfig, Split};
use amoe_serve::{Client, FeatureRow, ModelSpec, ServeError};

use crate::export::CheckpointStore;
use crate::stream::SessionStream;

/// Everything the loop needs to run.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Static world the drifting stream is derived from. Must describe
    /// the same world the serving model was trained on, or the schemas
    /// will not match.
    pub base: GeneratorConfig,
    /// Drift schedule layered on top of `base`.
    pub drift: DriftConfig,
    /// Sessions emitted per stream tick.
    pub sessions_per_tick: usize,
    /// Sliding-window length in ticks; older windows fall off.
    pub window_ticks: usize,
    /// Refit cadence: train + export + reload every this many ticks.
    pub refit_every: u64,
    /// Epochs per refit (small: the window is small and fresh).
    pub refit_epochs: usize,
    /// Trainer configuration (batching, shuffling seed).
    pub train: TrainConfig,
    /// Architecture of the model being kept fresh.
    pub model: MoeConfig,
    /// Optimiser for refits (optimizer state is not checkpointed; each
    /// refit starts it fresh).
    pub optim: OptimConfig,
    /// Directory receiving `gen-NNNNNN.amoe` / `.spec` exports.
    pub export_dir: PathBuf,
    /// Checkpoint to warm-start generation 1 from (usually the
    /// serving model's own boot checkpoint). `None` → random init.
    pub seed_checkpoint: Option<PathBuf>,
    /// Live server to probe and push `RELOAD` to. `None` → offline
    /// mode (no probes, no pushes; exports still happen).
    pub serve_addr: Option<String>,
    /// Rows per probe request sent each tick (0 disables probing).
    pub probe_rows: usize,
}

impl OnlineConfig {
    /// Defaults sized for the loopback demo: small windows, refit
    /// every 3 ticks, probes on.
    #[must_use]
    pub fn demo(base: GeneratorConfig, export_dir: impl Into<PathBuf>) -> Self {
        OnlineConfig {
            base,
            drift: DriftConfig::default(),
            sessions_per_tick: 24,
            window_ticks: 4,
            refit_every: 3,
            refit_epochs: 2,
            train: TrainConfig {
                batch_size: 64,
                verbose: false,
                ..TrainConfig::default()
            },
            model: MoeConfig::default(),
            optim: OptimConfig::default(),
            export_dir: export_dir.into(),
            seed_checkpoint: None,
            serve_addr: None,
            probe_rows: 32,
        }
    }
}

/// What one refit did.
#[derive(Clone, Debug)]
pub struct RefitReport {
    /// Generation number of the exported checkpoint (1-based).
    pub generation: u64,
    /// Stream tick the refit ran at.
    pub tick: u64,
    /// Sessions in the training window.
    pub window_sessions: usize,
    /// Examples in the training window.
    pub window_examples: usize,
    /// Final-epoch mean training loss.
    pub loss: f32,
    /// Wall time of the fit, milliseconds.
    pub fit_ms: f64,
    /// Absolute path of the exported checkpoint.
    pub export_path: PathBuf,
    /// `RELOAD` round-trip in microseconds, when a server is attached.
    pub reload_us: Option<u64>,
}

/// What one tick did.
#[derive(Clone, Debug)]
pub struct TickReport {
    /// The tick processed.
    pub tick: u64,
    /// Probe rows scored against the server this tick.
    pub probe_rows: usize,
    /// Probe round-trip in microseconds (0 when no probe ran).
    pub probe_us: u64,
    /// Probes the server shed with `OVERLOADED` this tick.
    pub overloaded: u64,
    /// The refit, on refit-boundary ticks.
    pub refit: Option<RefitReport>,
}

/// Loop-lifetime counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopStats {
    /// Ticks processed.
    pub ticks: u64,
    /// Refits completed.
    pub refits: u64,
    /// Successful `RELOAD` pushes.
    pub reloads: u64,
    /// Probe requests answered with scores.
    pub probes_ok: u64,
    /// Probe requests shed with `OVERLOADED` (admission control, not
    /// a failure: the client is told to back off and nothing is lost).
    pub probes_overloaded: u64,
    /// Probe or reload requests that *failed* — an accepted request
    /// with no answer, a server error, a protocol violation. The
    /// continuous-availability check is `failed == 0`.
    pub failed: u64,
    /// Sum of reload round-trips, microseconds.
    pub reload_us_total: u64,
    /// Worst reload round-trip, microseconds.
    pub reload_us_max: u64,
}

/// The online trainer daemon. See the module docs for the lifecycle.
pub struct OnlineLoop {
    config: OnlineConfig,
    stream: SessionStream,
    trainer: Trainer,
    model: MoeModel,
    store: CheckpointStore,
    window: VecDeque<SessionWindow>,
    client: Option<Client>,
    generation: u64,
    last_export: Option<PathBuf>,
    stats: LoopStats,
}

impl OnlineLoop {
    /// Builds the loop: derives the drifting stream, initialises the
    /// model (from `seed_checkpoint` when set), and opens the export
    /// store. Does not touch the network — call [`Self::connect`] to
    /// attach the server.
    pub fn new(config: OnlineConfig) -> Result<OnlineLoop, String> {
        assert!(config.window_ticks > 0, "window_ticks must be > 0");
        assert!(config.refit_every > 0, "refit_every must be > 0");
        let stream = SessionStream::new(&config.base, &config.drift, config.sessions_per_tick);
        let meta = stream.meta().clone();
        let model = match &config.seed_checkpoint {
            Some(path) => {
                MoeModel::from_checkpoint(&meta, config.model.clone(), config.optim, path)
                    .map_err(|e| format!("seed checkpoint {}: {e}", path.display()))?
            }
            None => MoeModel::new(&meta, config.model.clone(), config.optim),
        };
        let spec = ModelSpec {
            meta,
            config: config.model.clone(),
            serve_quantized: false,
        };
        let store = CheckpointStore::new(&config.export_dir, spec)
            .map_err(|e| format!("export dir {}: {e}", config.export_dir.display()))?;
        let trainer = Trainer::new(config.train.clone());
        Ok(OnlineLoop {
            config,
            stream,
            trainer,
            model,
            store,
            window: VecDeque::new(),
            client: None,
            generation: 0,
            last_export: None,
            stats: LoopStats::default(),
        })
    }

    /// Connects to `serve_addr` (no-op when the loop is offline).
    pub fn connect(&mut self) -> Result<(), String> {
        if let Some(addr) = &self.config.serve_addr {
            let client =
                Client::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
            self.client = Some(client);
        }
        Ok(())
    }

    /// The loop's stream (replay, schema access).
    #[must_use]
    pub fn stream(&self) -> &SessionStream {
        &self.stream
    }

    /// The current in-process model (generation [`Self::generation`]).
    #[must_use]
    pub fn model(&self) -> &MoeModel {
        &self.model
    }

    /// Generation of the latest export (0 before the first refit).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Lifetime counters so far.
    #[must_use]
    pub fn stats(&self) -> LoopStats {
        self.stats
    }

    /// The export store (paths, spec).
    #[must_use]
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Pulls the next window off the internal stream and processes it.
    pub fn step(&mut self) -> Result<TickReport, String> {
        let window = self.stream.next_window();
        self.step_window(&window)
    }

    /// Processes one externally supplied window — the entry point the
    /// staleness bench uses, so the bench and the daemon share the
    /// exact same refit path while the bench owns the stream.
    pub fn step_window(&mut self, window: &SessionWindow) -> Result<TickReport, String> {
        let tick = window.tick;
        let (probe_rows, probe_us, overloaded) = self.probe(window)?;
        self.window.push_back(window.clone());
        while self.window.len() > self.config.window_ticks {
            self.window.pop_front();
        }
        self.stats.ticks += 1;
        let refit = if (tick + 1).is_multiple_of(self.config.refit_every) {
            Some(self.refit(tick)?)
        } else {
            None
        };
        Ok(TickReport {
            tick,
            probe_rows,
            probe_us,
            overloaded,
            refit,
        })
    }

    /// Runs `ticks` steps against the internal stream.
    pub fn run(&mut self, ticks: u64) -> Result<Vec<TickReport>, String> {
        let mut reports = Vec::with_capacity(ticks as usize);
        for _ in 0..ticks {
            reports.push(self.step()?);
        }
        Ok(reports)
    }

    /// Scores a slice of the fresh window against the live server.
    /// `OVERLOADED` is counted but tolerated; any other failure is
    /// fatal to the loop (the availability contract is broken).
    fn probe(&mut self, window: &SessionWindow) -> Result<(usize, u64, u64), String> {
        let Some(client) = self.client.as_mut() else {
            return Ok((0, 0, 0));
        };
        if self.config.probe_rows == 0 || window.split.is_empty() {
            return Ok((0, 0, 0));
        }
        let n = self.config.probe_rows.min(window.split.len());
        let rows: Vec<FeatureRow> = window.split.examples[..n].iter().map(feature_row).collect();
        let start = Instant::now();
        match client.score(&rows) {
            Ok(scores) => {
                let probe_us = start.elapsed().as_micros() as u64;
                if scores.len() != rows.len() {
                    self.stats.failed += 1;
                    return Err(format!(
                        "probe returned {} scores for {} rows",
                        scores.len(),
                        rows.len()
                    ));
                }
                self.stats.probes_ok += 1;
                if amoe_obs::enabled() {
                    amoe_obs::counter_add("online.probes", 1);
                    amoe_obs::histogram_record("online.probe_us", probe_us as f64);
                }
                Ok((n, probe_us, 0))
            }
            Err(ServeError::Overloaded) => {
                self.stats.probes_overloaded += 1;
                if amoe_obs::enabled() {
                    amoe_obs::counter_add("online.probes_overloaded", 1);
                }
                Ok((n, 0, 1))
            }
            Err(e) => {
                self.stats.failed += 1;
                Err(format!("probe failed at tick {}: {e}", window.tick))
            }
        }
    }

    /// Warm-start → fit → export → reload.
    fn refit(&mut self, tick: u64) -> Result<RefitReport, String> {
        let split = concat_windows(&self.window);
        if split.is_empty() {
            return Err(format!("refit at tick {tick} with an empty window"));
        }
        // Warm-start from the last exported generation: the refit
        // resumes the *deployed* weights, not whatever the in-process
        // model drifted to, so daemon restarts are equivalent to
        // continuous runs.
        if let Some(path) = &self.last_export {
            self.model = MoeModel::from_checkpoint(
                self.stream.meta(),
                self.config.model.clone(),
                self.config.optim,
                path,
            )
            .map_err(|e| format!("warm-start {}: {e}", path.display()))?;
        }
        let fit_start = Instant::now();
        let stats = self
            .trainer
            .fit_window(&mut self.model, &split, self.config.refit_epochs);
        let fit_ms = fit_start.elapsed().as_secs_f64() * 1e3;

        let generation = self.generation + 1;
        let export_path = self
            .store
            .export(generation, self.model.params())
            .map_err(|e| format!("export generation {generation}: {e}"))?;
        self.generation = generation;
        self.last_export = Some(export_path.clone());
        self.stats.refits += 1;

        let reload_us = match self.client.as_mut() {
            Some(client) => {
                let path = export_path
                    .to_str()
                    .ok_or_else(|| format!("non-utf8 export path {}", export_path.display()))?;
                let start = Instant::now();
                client.reload(path).map_err(|e| {
                    self.stats.failed += 1;
                    format!("reload generation {generation}: {e}")
                })?;
                let us = start.elapsed().as_micros() as u64;
                self.stats.reloads += 1;
                self.stats.reload_us_total += us;
                self.stats.reload_us_max = self.stats.reload_us_max.max(us);
                Some(us)
            }
            None => None,
        };

        if amoe_obs::enabled() {
            amoe_obs::counter_add("online.refits", 1);
            amoe_obs::gauge_set("online.generation", generation as f64);
            if let Some(us) = reload_us {
                amoe_obs::histogram_record("online.reload_us", us as f64);
            }
            amoe_obs::emit(
                &amoe_obs::Event::new("online_refit")
                    .u64("tick", tick)
                    .u64("generation", generation)
                    .u64("window_sessions", split.sessions.len() as u64)
                    .u64("window_examples", split.len() as u64)
                    .f64("loss", f64::from(stats.loss))
                    .f64("fit_ms", fit_ms)
                    .u64("reload_us", reload_us.unwrap_or(0))
                    .str("export", export_path.display().to_string()),
            );
        }

        Ok(RefitReport {
            generation,
            tick,
            window_sessions: split.sessions.len(),
            window_examples: split.len(),
            loss: stats.loss,
            fit_ms,
            export_path,
            reload_us,
        })
    }
}

/// Wire-format row for an example, with the query-predicted categories
/// as the gate inputs (same mapping the serving loader uses).
#[must_use]
pub fn feature_row(e: &amoe_dataset::Example) -> FeatureRow {
    FeatureRow {
        sc: e.pred_sc as u32,
        tc: e.pred_tc as u32,
        brand: e.brand as u32,
        shop: e.shop as u32,
        user_segment: e.user_segment as u32,
        price_bucket: e.price_bucket as u32,
        query: e.query,
        numeric: e.numeric.to_vec(),
    }
}

/// Concatenates the sliding window into one training [`Split`],
/// re-basing session ids and example ranges so the result is
/// session-contiguous like any generated split.
#[must_use]
pub fn concat_windows(windows: &VecDeque<SessionWindow>) -> Split {
    let total: usize = windows.iter().map(|w| w.split.len()).sum();
    let mut examples = Vec::with_capacity(total);
    let mut sessions = Vec::new();
    let mut next_session = 0u32;
    for w in windows {
        for range in &w.split.sessions {
            let start = examples.len();
            for e in &w.split.examples[range.clone()] {
                let mut e = e.clone();
                e.session = next_session;
                examples.push(e);
            }
            sessions.push(start..examples.len());
            next_session += 1;
        }
    }
    Split { examples, sessions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoe_dataset::drift::DriftWorld;

    fn config(dir: &str) -> OnlineConfig {
        let mut cfg = OnlineConfig::demo(
            GeneratorConfig::tiny(31),
            std::env::temp_dir().join(format!("{dir}-{}", std::process::id())),
        );
        cfg.sessions_per_tick = 8;
        cfg.refit_epochs = 1;
        cfg.model = MoeConfig {
            n_experts: 4,
            top_k: 2,
            tower: amoe_core::TowerConfig { hidden: vec![8, 4] },
            ..MoeConfig::default()
        };
        cfg
    }

    #[test]
    fn concat_rebases_sessions_contiguously() {
        let cfg = GeneratorConfig::tiny(31);
        let world = DriftWorld::new(&cfg, &DriftConfig::default());
        let mut windows = VecDeque::new();
        windows.push_back(world.window(0, 5));
        windows.push_back(world.window(1, 5));
        let split = concat_windows(&windows);
        assert_eq!(split.sessions.len(), 10);
        let mut expect = 0usize;
        for (sid, range) in split.sessions.iter().enumerate() {
            assert_eq!(range.start, expect, "session ranges must be contiguous");
            expect = range.end;
            for e in &split.examples[range.clone()] {
                assert_eq!(e.session as usize, sid);
            }
        }
        assert_eq!(expect, split.examples.len());
    }

    #[test]
    fn offline_loop_refits_and_exports_generations() {
        let mut cfg = config("amoe-online-loop");
        cfg.refit_every = 2;
        let _ = std::fs::remove_dir_all(&cfg.export_dir);
        let export_dir = cfg.export_dir.clone();
        let mut lp = OnlineLoop::new(cfg).unwrap();
        let reports = lp.run(6).unwrap();
        assert_eq!(reports.len(), 6);
        let refits: Vec<&RefitReport> = reports.iter().filter_map(|r| r.refit.as_ref()).collect();
        assert_eq!(refits.len(), 3, "refit every 2 ticks over 6 ticks");
        assert_eq!(lp.generation(), 3);
        assert_eq!(lp.stats().refits, 3);
        assert_eq!(lp.stats().reloads, 0, "no server attached");
        assert_eq!(lp.stats().failed, 0);
        for (i, r) in refits.iter().enumerate() {
            assert_eq!(r.generation, i as u64 + 1);
            assert!(r.export_path.exists());
            assert!(r.window_examples > 0);
            assert!(r.loss.is_finite());
        }
        // Each export is loadable back into a model.
        let last = refits.last().unwrap();
        let spec = ModelSpec::load(lp.store().spec_path(last.generation)).unwrap();
        let restored = MoeModel::from_checkpoint(
            &spec.meta,
            spec.config,
            OptimConfig::default(),
            &last.export_path,
        );
        assert!(restored.is_ok());
        let _ = std::fs::remove_dir_all(&export_dir);
    }

    #[test]
    fn sliding_window_is_bounded() {
        let mut cfg = config("amoe-online-window");
        cfg.window_ticks = 2;
        cfg.refit_every = 100; // never refit; watch the buffer only
        let _ = std::fs::remove_dir_all(&cfg.export_dir);
        let export_dir = cfg.export_dir.clone();
        let mut lp = OnlineLoop::new(cfg).unwrap();
        lp.run(5).unwrap();
        assert_eq!(lp.window.len(), 2);
        let ticks: Vec<u64> = lp.window.iter().map(|w| w.tick).collect();
        assert_eq!(ticks, vec![3, 4], "oldest windows fall off");
        let _ = std::fs::remove_dir_all(&export_dir);
    }
}
