//! Heap held while a model loads from a checkpoint.
//!
//! `MoeModel::from_params` builds the model around the loaded set's own
//! buffers: no initialiser runs and no gradient buffer exists until a
//! first training step. So the live heap at its peak during a load is
//! the checkpoint's tensors once, plus a small constant; during a hot
//! swap, with the previous model still alive, it is twice that. Built
//! the other way (a random-initialised model with a zeroed gradient per
//! tensor, the loaded set with its own, values copied over) a load
//! peaks near four times the tensors and a swap near six.
//!
//! The model's vocabularies are widened so its embedding tables
//! dominate, as in a production ranker. This binary installs a global
//! allocator that tracks live and peak bytes, so it holds only these
//! tests (integration test files are separate binaries).

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use adv_hsc_moe::dataset::{generate, Batch, Dataset, DatasetMeta, GeneratorConfig};
use adv_hsc_moe::moe::ranker::OptimConfig;
use adv_hsc_moe::moe::{MoeConfig, MoeModel, Ranker};
use adv_hsc_moe::nn::{ParamId, ParamSet};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the moment both blocks may be live.
        grew(new_size);
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        out
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// The counters are process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Room for everything a model holds besides its tensors (names, layer
/// handles, the step workspace's empty buffers) and for the loader's
/// read buffer.
const SLACK_BYTES: usize = 256 << 10;

/// The tiny log's schema with brand and shop vocabularies widened to
/// 40,000 each: its two tables then hold about 2.5 MiB of the model's
/// weights.
fn widened(d: &Dataset) -> DatasetMeta {
    DatasetMeta {
        brand_vocab: 40_000,
        shop_vocab: 40_000,
        ..d.meta.clone()
    }
}

/// Writes a freshly initialised model's checkpoint and returns its path
/// and its tensors' bytes.
fn checkpoint(meta: &DatasetMeta, name: &str) -> (PathBuf, usize) {
    let model = MoeModel::new(meta, MoeConfig::adv_hsc_moe(), OptimConfig::default());
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    model.params().save(&path).expect("write the checkpoint");
    (
        path,
        model.params().num_scalars() * std::mem::size_of::<f32>(),
    )
}

fn load(meta: &DatasetMeta, path: &PathBuf) -> MoeModel {
    let params = ParamSet::load(path).expect("read the checkpoint");
    MoeModel::from_params(
        meta,
        MoeConfig::adv_hsc_moe(),
        OptimConfig::default(),
        params,
    )
    .expect("the checkpoint fits the config")
}

/// Runs `f` and returns its result and the peak live heap above the
/// level before it.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - start)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / f64::from(1u32 << 20)
}

#[test]
fn a_load_holds_the_checkpoint_tensors_once() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let d = generate(&GeneratorConfig::tiny(3));
    let meta = widened(&d);
    let (path, bytes) = checkpoint(&meta, "load_once.amoe");
    assert!(
        bytes > 2 << 20,
        "the widened tables dominate ({bytes} bytes)"
    );

    let (model, peak) = peak_above_start(|| load(&meta, &path));
    let budget = bytes + bytes / 10 + SLACK_BYTES;
    assert!(
        peak <= budget,
        "loading {:.2} MiB of tensors peaked at {:.2} MiB of live heap (budget {:.2} MiB)",
        mib(bytes),
        mib(peak),
        mib(budget)
    );
    assert_eq!(
        model.params().num_scalars() * std::mem::size_of::<f32>(),
        bytes
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_swap_holds_the_old_and_the_new_tensors_and_nothing_else() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let d = generate(&GeneratorConfig::tiny(3));
    let meta = widened(&d);
    let (path, bytes) = checkpoint(&meta, "swap.amoe");

    // Measured from before the serving model exists, as a server's
    // heap holds it through the whole swap.
    let (models, peak) = peak_above_start(|| {
        let serving = load(&meta, &path);
        let swapped_in = load(&meta, &path);
        (serving, swapped_in)
    });
    let budget = 2 * bytes + bytes / 10 + SLACK_BYTES;
    assert!(
        peak <= budget,
        "a swap of {:.2} MiB models peaked at {:.2} MiB of live heap (budget {:.2} MiB)",
        mib(bytes),
        mib(peak),
        mib(budget)
    );
    drop(models);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_loaded_model_allocates_its_gradients_at_its_first_train_step() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    adv_hsc_moe::obs::set_enabled(false);
    let d = generate(&GeneratorConfig::tiny(3));
    let meta = widened(&d);
    let (path, bytes) = checkpoint(&meta, "first_step.amoe");
    let batch = Batch::from_split(&d.train, &(0..64).collect::<Vec<_>>());

    let mut model = load(&meta, &path);
    // Serving touches no gradient: scoring leaves nothing table-sized
    // behind.
    let before = LIVE.load(Ordering::Relaxed);
    let scores = model.predict(&batch);
    let after_predict = LIVE.load(Ordering::Relaxed);
    assert!(
        after_predict < before + bytes / 10,
        "scoring left {} bytes live",
        after_predict.saturating_sub(before)
    );
    drop(scores);

    // The first step sizes a gradient per tensor, and the optimiser
    // its two moments: three times the tensors' bytes.
    model.train_step(&batch);
    let after_step = LIVE.load(Ordering::Relaxed);
    assert!(
        after_step >= before + 3 * bytes,
        "the first train_step left {:.2} MiB live for {:.2} MiB of tensors",
        mib(after_step.saturating_sub(before)),
        mib(bytes)
    );
    let table = ParamId::from_index(0);
    assert_eq!(
        model.params().grad(table).shape(),
        model.params().value(table).shape()
    );
    std::fs::remove_file(&path).ok();
}
