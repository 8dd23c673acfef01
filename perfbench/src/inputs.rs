//! Everything a run feeds the program, derived from the workload seed:
//! the synthetic search log, the trained checkpoint, the request stream
//! (whole query sessions from the test split) and the drifting stream
//! the refit loop consumes.

use std::path::{Path, PathBuf};

use amoe_core::ranker::OptimConfig;
use amoe_core::serving::ServingMoe;
use amoe_core::{MoeConfig, MoeModel, Ranker, TrainConfig};
use amoe_dataset::{generate, Batch, Dataset, DatasetMeta, DriftConfig, GeneratorConfig, Split};
use amoe_online::daemon::feature_row;
use amoe_online::OnlineConfig;
use amoe_serve::{FeatureRow, ModelSpec};
use amoe_tensor::Rng;

/// Share of the generator's default log volume. A quarter keeps set-up
/// around a second while the test split still holds hundreds of
/// sessions to draw requests from.
const LOG_SCALE: f64 = 0.25;
/// Fixed training budget of the served model.
const TRAIN_STEPS: usize = 120;
const TRAIN_BATCH: usize = 256;
/// Probe sessions scored through the server and checked bit for bit.
const PROBE_SESSIONS: usize = 8;

/// Refit-loop shape shared by every workload.
pub const SESSIONS_PER_TICK: usize = 64;
pub const WINDOW_TICKS: usize = 4;
pub const REFIT_EVERY: u64 = 3;
pub const REFIT_EPOCHS: usize = 2;

/// Independent RNG streams forked off the workload seed.
pub mod stream {
    pub const TRAIN: u64 = 1;
    pub const PROBES: u64 = 2;
    pub const SCHEDULE: u64 = 3;
    pub const BURST: u64 = 4;
}

/// A forked RNG stream of the workload seed.
pub fn rng(seed: u64, stream: u64) -> Rng {
    Rng::seed_from(seed).fork(stream)
}

/// The search-log configuration for a seed.
pub fn log_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        seed,
        ..GeneratorConfig::default()
    }
    .scaled(LOG_SCALE)
}

/// The paper's best model, `Adv & HSC-MoE` (N=10, K=4, towers [32,16]).
pub fn model_config(seed: u64) -> MoeConfig {
    MoeConfig::adv_hsc_moe().with_seed(seed)
}

/// Generates the log and trains the served model for a fixed number of
/// steps over seeded shuffled batches.
pub fn train(seed: u64) -> (Dataset, MoeModel) {
    let data = generate(&log_config(seed));
    let mut model = MoeModel::new(&data.meta, model_config(seed), OptimConfig::default());
    let mut order: Vec<usize> = (0..data.train.len()).collect();
    rng(seed, stream::TRAIN).shuffle(&mut order);
    for chunk in order.chunks(TRAIN_BATCH).cycle().take(TRAIN_STEPS) {
        model.train_step(&Batch::from_split(&data.train, chunk));
    }
    (data, model)
}

/// Writes `dir/model.amoe` and `dir/model.spec`; returns both paths.
pub fn export(dir: &Path, data: &Dataset, model: &MoeModel) -> Result<(PathBuf, PathBuf), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ckpt = dir.join("model.amoe");
    let spec = dir.join("model.spec");
    model
        .params()
        .save_atomic(&ckpt)
        .map_err(|e| format!("save {}: {e}", ckpt.display()))?;
    ModelSpec {
        meta: data.meta.clone(),
        config: model.config().clone(),
        serve_quantized: false,
    }
    .save_atomic(&spec)
    .map_err(|e| format!("save {}: {e}", spec.display()))?;
    Ok((ckpt, spec))
}

/// Loads a checkpoint into an in-process model of the served shape.
pub fn load(meta: &DatasetMeta, seed: u64, ckpt: &Path) -> Result<MoeModel, String> {
    MoeModel::from_checkpoint(meta, model_config(seed), OptimConfig::default(), ckpt)
        .map_err(|e| format!("load {}: {e}", ckpt.display()))
}

/// One request: a whole query session (every row shares its SC id).
pub struct Session {
    /// Wire rows.
    pub rows: Vec<FeatureRow>,
    /// The same rows as a model batch.
    pub batch: Batch,
}

/// Every test-split session, in generation order (drawing uniformly
/// from them keeps the generator's category skew).
pub fn sessions(test: &Split) -> Vec<Session> {
    test.sessions
        .iter()
        .map(|r| {
            let idx: Vec<usize> = r.clone().collect();
            Session {
                rows: test.examples[r.clone()].iter().map(feature_row).collect(),
                batch: Batch::from_split(test, &idx),
            }
        })
        .collect()
}

/// The fixed probe set: seeded distinct session indices.
pub fn probes(n_sessions: usize, seed: u64) -> Vec<usize> {
    rng(seed, stream::PROBES).sample_distinct(n_sessions, PROBE_SESSIONS.min(n_sessions))
}

/// `ServingMoe::predict` of each listed session on `model`.
pub fn expected(model: &MoeModel, sessions: &[Session], which: &[usize]) -> Vec<Vec<f32>> {
    let serving = ServingMoe::new(model);
    which
        .iter()
        .map(|&i| serving.predict(&sessions[i].batch))
        .collect()
}

/// The refit loop: warm-started from the served checkpoint, pushing
/// `RELOAD`s to `addr`. Its own per-tick probes are off; the benchmark
/// checks scores itself after every swap.
pub fn online_config(seed: u64, export_dir: PathBuf, served: &Path, addr: &str) -> OnlineConfig {
    let mut cfg = OnlineConfig::demo(log_config(seed), export_dir);
    cfg.drift = DriftConfig {
        seed,
        ..DriftConfig::default()
    };
    cfg.sessions_per_tick = SESSIONS_PER_TICK;
    cfg.window_ticks = WINDOW_TICKS;
    cfg.refit_every = REFIT_EVERY;
    cfg.refit_epochs = REFIT_EPOCHS;
    cfg.train = TrainConfig {
        batch_size: 64,
        seed,
        verbose: false,
        ..TrainConfig::default()
    };
    cfg.model = model_config(seed);
    cfg.seed_checkpoint = Some(served.to_path_buf());
    cfg.serve_addr = Some(addr.to_string());
    cfg.probe_rows = 0;
    cfg
}
