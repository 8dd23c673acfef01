//! No-op-mode cost test: with telemetry disabled, the obs entry points
//! must perform **zero heap allocations**, and a `ServingMoe::predict`
//! call must allocate exactly as much as an identical call would —
//! i.e. disabled telemetry adds nothing to the hot path.
//!
//! This test binary installs a counting global allocator, so it holds
//! only this test (integration test files are separate binaries).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adv_hsc_moe::dataset::{generate, Batch, GeneratorConfig};
use adv_hsc_moe::moe::ranker::OptimConfig;
use adv_hsc_moe::moe::serving::ServingMoe;
use adv_hsc_moe::moe::{MoeConfig, MoeModel, Ranker};
use adv_hsc_moe::tensor::pool;

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

fn alloc_count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn disabled_telemetry_allocates_nothing() {
    adv_hsc_moe::obs::set_enabled(false);

    // Primitive entry points: strictly zero allocations when off.
    let ((), n) = alloc_count(|| {
        adv_hsc_moe::obs::counter_add("noalloc.counter", 1);
        adv_hsc_moe::obs::gauge_set("noalloc.gauge", 1.0);
        adv_hsc_moe::obs::histogram_record("noalloc.hist", 1.0);
        let _scope = adv_hsc_moe::obs::StageScope::enter("noalloc.scope");
    });
    assert_eq!(n, 0, "disabled obs primitives allocated {n} times");

    // Trace entry points: same contract as the metrics gate — when
    // tracing is off, recording, id allocation and the active-batch
    // marker are a relaxed load and nothing else.
    adv_hsc_moe::obs::trace::set_enabled(false);
    let ((), n) = alloc_count(|| {
        adv_hsc_moe::obs::trace::record(1, 1, "noalloc.stage", 0, 10, 0);
        adv_hsc_moe::obs::trace::record_instant(1, 1, "noalloc.stage", 0);
        assert_eq!(adv_hsc_moe::obs::trace::next_trace_id(), None);
        assert!(!adv_hsc_moe::obs::trace::try_claim_active_batch(7));
        adv_hsc_moe::obs::trace::release_active_batch(7);
        assert_eq!(adv_hsc_moe::obs::trace::active_batch(), 0);
    });
    assert_eq!(n, 0, "disabled trace entry points allocated {n} times");

    // The stage timer with both gates off: its two clock readings and
    // nothing else, even with a histogram and a trace tag attached.
    let ((), n) = alloc_count(|| {
        let (boundary, _) = adv_hsc_moe::obs::Stage::start()
            .metric("noalloc.stage")
            .trace("noalloc", 1, 1, 0)
            .end();
        let (_, _) = adv_hsc_moe::obs::Stage::at(boundary)
            .metric("noalloc.next_stage")
            .end();
    });
    assert_eq!(n, 0, "disabled stage timer allocated {n} times");

    // Serving hot path: the predict-call allocation count with
    // telemetry off must be exactly reproducible — if the disabled
    // telemetry path allocated anything data-dependent or leaked
    // per-call state, the two counts would drift.
    let d = generate(&GeneratorConfig::tiny(55));
    let cfg = MoeConfig {
        n_experts: 6,
        top_k: 2,
        ..MoeConfig::default()
    };
    let mut model = MoeModel::new(&d.meta, cfg, OptimConfig::default());
    let batch = Batch::from_split(&d.train, &(0..64).collect::<Vec<_>>());
    for _ in 0..3 {
        model.train_step(&batch);
    }
    // One configured thread: the pool runs serially, so thread-spawn
    // allocations cannot blur the count.
    pool::set_threads(1);
    let serving = ServingMoe::new(&model);
    let (_warm, _) = alloc_count(|| serving.predict(&batch));
    let (out_a, n_a) = alloc_count(|| serving.predict(&batch));
    let (out_b, n_b) = alloc_count(|| serving.predict(&batch));
    pool::clear_threads_override();
    assert_eq!(out_a, out_b);
    assert_eq!(
        n_a, n_b,
        "predict alloc count not reproducible with telemetry off ({n_a} vs {n_b})"
    );
    assert!(n_a > 0, "sanity: predict itself does allocate");
}
