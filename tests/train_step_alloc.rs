//! Allocation budget of a warmed-up training step, and the reuse of its
//! workspace across batch sizes.
//!
//! `MoeModel` keeps its step buffers (the gate/loss tape, every
//! tower's activations, cotangents and gradients, the GEMM pack
//! buffers) from one `train_step` to the next, so once they have grown
//! to a batch's shapes a step allocates only a few small per-step
//! values (the gating noise and masks, one parameter binding). This
//! test binary installs a counting global allocator, so it holds only
//! these tests (integration test files are separate binaries).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use adv_hsc_moe::dataset::{generate, Batch, Dataset, GeneratorConfig};
use adv_hsc_moe::moe::ranker::OptimConfig;
use adv_hsc_moe::moe::{MoeConfig, MoeModel, Ranker};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The counter is process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn rows(d: &Dataset, range: std::ops::Range<usize>) -> Batch {
    Batch::from_split(&d.train, &range.collect::<Vec<_>>())
}

/// The paper's best model (N = 10, K = 4, towers [32, 16]).
fn model(d: &Dataset) -> MoeModel {
    MoeModel::new(&d.meta, MoeConfig::adv_hsc_moe(), OptimConfig::default())
}

#[test]
fn warmed_up_train_step_stays_under_the_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    adv_hsc_moe::obs::set_enabled(false);
    let d = generate(&GeneratorConfig::tiny(49));
    for n in [256usize, 64] {
        let batch = rows(&d, 0..n);
        let mut model = model(&d);
        for _ in 0..4 {
            model.train_step(&batch);
        }
        for step in 0..3 {
            let before = ALLOCS.load(Ordering::Relaxed);
            model.train_step(&batch);
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert!(
                allocs < 100,
                "{n}-row train_step {step} after warm-up made {allocs} allocations"
            );
        }
    }
}

/// FNV-1a (64-bit) over every parameter's f32 bits, in registration
/// order.
fn param_hash(model: &MoeModel) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (_, m) in model.params().iter() {
        for &v in m.as_slice() {
            for byte in u64::from(v.to_bits()).to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

#[test]
fn workspace_reused_across_batch_sizes_leaks_no_rows() {
    // Each step shrinks or grows every buffer the step before left: a
    // reused buffer that kept a longer batch's rows, or an accumulator
    // that did not restart from +0.0, moves the parameters. The
    // constant was taken before the training step kept a workspace.
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let d = generate(&GeneratorConfig::tiny(49));
    let mut model = model(&d);
    for range in [0..256, 256..259, 259..323, 323..579] {
        model.train_step(&rows(&d, range));
    }
    assert_eq!(
        param_hash(&model),
        0x12DE_12FC_ABE7_600E,
        "trained parameters moved"
    );
}
