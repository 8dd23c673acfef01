//! Persistent-worker parallel runtime over `std::thread`.
//!
//! The workspace must build offline with no external crates, so it
//! carries its own fork/join primitives instead of rayon. The design
//! constraints, in priority order:
//!
//! 1. **Determinism.** Results must be bit-identical for every thread
//!    count. Workers therefore only ever write to *disjoint* output
//!    regions (contiguous row blocks, or per-task slots merged in task
//!    order); there is no atomic float accumulation and no
//!    reduction whose association depends on scheduling.
//! 2. **Cheap regions.** Worker threads are created lazily on the first
//!    parallel region, then parked on a condvar and reused: entering a
//!    region is a wake, not a `thread::spawn`. The PR-2 `pool.spawn_ns`
//!    histograms showed scoped spawn (~10–20 µs per region on Linux)
//!    dominating small regions; a condvar wake is an order of magnitude
//!    cheaper, which is what lets training and serving fan out
//!    per-expert work.
//! 3. **Graceful degradation.** With one configured thread (or one
//!    task) every helper degenerates to the plain serial loop — same
//!    code path, zero wakes. Regions started from inside another
//!    region (a worker, or the caller's own task closure) also run
//!    inline serially, so nesting can never deadlock the pool.
//!
//! # Region protocol
//!
//! One region runs at a time (a process-wide region slot; concurrent
//! callers queue on it, measured by the `pool.queue_wait_ns`
//! histogram). The calling thread is itself one of the region's lanes:
//! a region with budget `W` uses the caller plus `W - 1` parked
//! workers. Tasks are claimed from an atomic cursor, so uneven task
//! costs balance dynamically; determinism is preserved because each
//! task writes only its own slot or block, and merges happen in task
//! order on the caller.
//!
//! # Thread budget
//!
//! The budget comes from, in order: [`set_threads`], the `AMOE_THREADS`
//! environment variable, and [`std::thread::available_parallelism`].
//! The environment is resolved **once** (the first [`threads`] call)
//! and cached; changing `AMOE_THREADS` after that has no effect.
//! [`set_threads`] may be called at any time, including after the pool
//! has started: the worker set grows lazily to match the largest budget
//! a region actually needs, and a smaller budget simply leaves the
//! extra workers parked (they are never torn down).
//!
//! # Safety
//!
//! Task closures borrow the caller's stack (models, matrices, result
//! slots), while the persistent workers are `'static` threads — the
//! one combination safe Rust cannot express, and the reason every
//! persistent work-sharing runtime (rayon, crossbeam) contains a
//! lifetime-erasure site. This module keeps exactly **one** `unsafe`
//! expression (`erase`), made sound by the region protocol: the
//! caller never returns (or unwinds) past the region until every
//! worker has detached, so the erased borrow cannot outlive the frame
//! it points into. See `erase` for the full argument; everything
//! else — slot writes, parking, panic propagation — is safe code.
//!
//! # Telemetry
//!
//! When [`amoe_obs`] telemetry is enabled (`AMOE_OBS=...`), every
//! parallel region records its wall time (`pool.region` /
//! `pool.row_blocks` histograms, nanoseconds), the time
//! spent queueing for the region slot (`pool.queue_wait_ns`), and
//! running `pool.regions` / `pool.tasks` / `pool.workers_started` /
//! `pool.region_reuse` counters — the reuse counter is the direct
//! replacement for PR-2's spawn-centric `pool.spawn_ns` question:
//! steady-state, every region should be a reuse. Independently, when
//! request tracing is active and the serving batcher has claimed an
//! active batch ([`amoe_obs::trace`]), each region records one trace
//! event under its histogram name, tagged with that batch id. The
//! region histogram and trace event come from one [`amoe_obs::Stage`],
//! so they report the same duration; with telemetry and tracing off
//! the instrumentation is three clock reads and a few relaxed atomic
//! loads per region, and never allocates.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use amoe_obs::Stage;

/// Thread-count override; 0 means "not set, consult the environment".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The environment-derived budget, resolved once per process.
static ENV_BUDGET: OnceLock<usize> = OnceLock::new();

/// The number of threads parallel regions may use.
///
/// Resolution order: [`set_threads`] override, then `AMOE_THREADS`
/// (ignored unless it parses to a positive integer), then
/// [`std::thread::available_parallelism`], then 1. The environment is
/// consulted exactly once per process and cached; later changes to
/// `AMOE_THREADS` are invisible (use [`set_threads`] to retune at
/// runtime).
#[must_use]
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *ENV_BUDGET.get_or_init(|| {
        if let Ok(v) = std::env::var("AMOE_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Forces the thread budget for subsequent parallel regions (overrides
/// `AMOE_THREADS`). Intended for benches sweeping thread counts and for
/// determinism tests; production code should prefer the environment.
///
/// May be called before or after the pool's first region: raising the
/// budget makes the next region that needs them spawn additional
/// persistent workers; lowering it leaves existing workers parked and
/// unused. It never tears a worker down.
///
/// # Panics
/// Panics if `n == 0`.
pub fn set_threads(n: usize) {
    assert!(n > 0, "pool::set_threads: thread count must be positive");
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Clears a [`set_threads`] override, returning control to the
/// (cached) environment budget.
pub fn clear_threads_override() {
    THREAD_OVERRIDE.store(0, Ordering::Relaxed);
}

/// The number of lanes (caller + workers) a region of `n_tasks` tasks
/// actually uses: `min(threads(), n_tasks)`, at least 1. This is the
/// honest parallelism figure for instrumentation — a 64-thread budget
/// dispatching 8 experts still runs 8 lanes.
#[must_use]
pub fn effective_workers(n_tasks: usize) -> usize {
    threads().min(n_tasks).max(1)
}

/// Number of persistent worker threads currently alive (parked or
/// working). Grows lazily with demand; never shrinks. Diagnostic /
/// test accessor.
#[must_use]
pub fn workers_alive() -> usize {
    shared().state.lock().map_or(0, |st| st.workers)
}

// ---------------------------------------------------------------------------
// Public task helpers
// ---------------------------------------------------------------------------

/// Runs `f(task_index)` for every task in `0..n_tasks` and returns the
/// results **in task order**, regardless of which lane ran what.
///
/// Tasks are distributed dynamically (an atomic cursor), so uneven task
/// costs balance across lanes; determinism is preserved because each
/// result lands in its task's slot, not in arrival order.
pub fn map_tasks<T, F>(n_tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if effective_workers(n_tasks) <= 1 || !outside_region() {
        return (0..n_tasks).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        *lock(&slots[i]) = Some(f(i));
    };
    run_region("pool.region", n_tasks, &task);
    slots
        .into_iter()
        .map(|s| lock_owned(s).expect("pool::map_tasks: every task must produce a value"))
        .collect()
}

/// Runs `f(task_index)` for every task in `0..n_tasks` for its side
/// effects. Same scheduling as [`map_tasks`], but with no result slots
/// and **zero allocation** on the caller: the closure is handed to the
/// region as-is.
pub fn for_each_task<F>(n_tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if effective_workers(n_tasks) <= 1 || !outside_region() {
        for i in 0..n_tasks {
            f(i);
        }
        return;
    }
    run_region("pool.region", n_tasks, &f);
}

/// Splits the row-major buffer `out` (logically `rows x row_len`) into
/// one contiguous row block per lane and runs `f(first_row,
/// block_slice)` on each block in parallel.
///
/// Blocks are disjoint `&mut` slices, so no synchronisation of the
/// output is needed and the result is bit-identical to running `f` over
/// the whole buffer serially (callers must make `f` compute a row from
/// inputs and the row's own slice only).
///
/// # Panics
/// Panics if `out.len() != rows * row_len`.
pub fn par_row_blocks<F>(out: &mut [f32], rows: usize, row_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(
        out.len(),
        rows * row_len,
        "pool::par_row_blocks: buffer is not rows x row_len"
    );
    let workers = threads().min(rows).max(1);
    if workers <= 1 || !outside_region() {
        f(0, out);
        return;
    }
    let rows_per_block = rows.div_ceil(workers);
    let blocks = out
        .chunks_mut(rows_per_block * row_len)
        .enumerate()
        .map(|(b, chunk)| (b * rows_per_block, chunk));
    run_owned("pool.row_blocks", blocks, |_, (first_row, block)| {
        f(first_row, block);
    });
}

/// Runs `f(index, &mut items[index])` for every item, in parallel when
/// the budget allows: each lane gets disjoint `&mut` slots, the way
/// [`par_row_blocks`] hands out row blocks, so per-task scratch that
/// lives across calls (a model's step workspace) is written in place
/// instead of returned through per-call result slots. Same scheduling
/// as [`for_each_task`].
pub fn for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if effective_workers(items.len()) <= 1 || !outside_region() {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    run_owned("pool.region", items.iter_mut(), f);
}

/// Hands each of `items` to one task of a region: task `i` takes item
/// `i` out of its take-once slot and runs `f(i, item)`.
fn run_owned<T, F>(name: &'static str, items: impl Iterator<Item = T>, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = items.map(|item| Mutex::new(Some(item))).collect();
    let task = |i: usize| {
        let item = lock(&slots[i])
            .take()
            .expect("pool: task slot claimed twice");
        f(i, item);
    };
    run_region(name, slots.len(), &task);
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// The erased (`'static`) task closure stored in a [`RegionJob`].
type TaskFn = dyn Fn(usize) + Sync + 'static;

/// A borrowed task closure as passed in by callers; the only type that
/// crosses the caller/worker boundary (after [`erase`]).
type TaskRef<'a> = &'a (dyn Fn(usize) + Sync + 'a);

/// Where the current thread stands relative to the pool. Regions only
/// start from `Outside`; anything else runs inline serially.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ctx {
    /// Not involved in any region.
    Outside,
    /// Driving a region (and executing its tasks).
    Caller,
    /// A persistent pool worker.
    Worker,
}

thread_local! {
    static CTX: Cell<Ctx> = const { Cell::new(Ctx::Outside) };
}

fn outside_region() -> bool {
    CTX.with(|c| c.get() == Ctx::Outside)
}

/// One parallel region's shared bookkeeping. Reached by workers
/// through an `Arc` handed out under the pool state lock.
struct RegionJob {
    /// The task closure (lifetime-erased; see [`erase`]).
    f: &'static TaskFn,
    n: usize,
    cursor: AtomicUsize,
    done: AtomicUsize,
    /// Stop claiming tasks (caller unwind or worker panic).
    cancelled: AtomicBool,
    /// A lane's task closure panicked; the caller re-raises.
    panicked: AtomicBool,
    /// Guards `done_cv`.
    sync: Mutex<()>,
    /// The caller waits here for the tasks to finish.
    done_cv: Condvar,
}

impl RegionJob {
    fn new(f: &'static TaskFn, n: usize) -> Self {
        RegionJob {
            f,
            n,
            cursor: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            sync: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }
}

/// Pool-wide state guarded by one mutex.
struct PoolState {
    /// The active region, if any.
    job: Option<Arc<RegionJob>>,
    /// Bumped per region so a worker attaches at most once per region.
    epoch: u64,
    /// How many more workers may still attach to the active region.
    attach_budget: usize,
    /// Workers currently attached to the active region.
    active: usize,
    /// Persistent workers alive (parked or working).
    workers: usize,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a region.
    work_cv: Condvar,
    /// The caller's quiescence wait (all workers detached).
    done_cv: Condvar,
    /// One region at a time; concurrent callers queue here.
    region_lock: Mutex<()>,
}

static SHARED: OnceLock<Arc<Shared>> = OnceLock::new();

fn shared() -> &'static Arc<Shared> {
    SHARED.get_or_init(|| {
        Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                attach_budget: 0,
                active: 0,
                workers: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            region_lock: Mutex::new(()),
        })
    })
}

/// Mutex lock that shrugs off poisoning: the pool's own invariants are
/// maintained by atomics and the quiescence protocol, not by the data
/// behind these mutexes, so a panicked lane must not wedge the pool.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Consumes a slot mutex (poison-tolerant `into_inner`).
fn lock_owned<T>(m: Mutex<Option<T>>) -> Option<T> {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Erases the lifetime of a borrowed task closure so it can be shared
/// with the persistent (`'static`) worker threads.
///
/// # Safety
///
/// The caller must guarantee the referent outlives every use of the
/// returned reference. [`run_region`] upholds this with its
/// quiescence protocol:
///
/// * the erased reference is reachable only through the pool's job
///   slot and the `Arc<RegionJob>` clones held by attached workers;
/// * a worker increments `active` (under the state lock) *before* it
///   can observe the job, and decrements it only after its last use of
///   the closure (the `Arc` is dropped first — dropping a reference is
///   not a use);
/// * [`RegionGuard`] — which runs on normal return *and* unwind —
///   cancels the region, blocks until `active == 0`, and clears the
///   job slot before the caller's frame (and with it the referent) can
///   die.
///
/// Hence no worker can dereference the erased borrow after
/// `run_region` returns, which is exactly the scope of the original
/// lifetime. This is the module's single `unsafe` expression.
unsafe fn erase<'a>(f: TaskRef<'a>) -> &'static TaskFn {
    // SAFETY: see above; lifetime-only transmute of a fat reference.
    unsafe { std::mem::transmute::<TaskRef<'a>, &'static TaskFn>(f) }
}

/// Drives one region: installs the job, participates as a lane, waits
/// for every task, and quiesces. It runs on `min(threads(), n_tasks)`
/// lanes (caller + parked workers), which must be ≥ 2.
fn run_region(name: &'static str, n_tasks: usize, f: TaskRef<'_>) {
    let workers = threads().min(n_tasks);
    debug_assert!(workers >= 2, "run_region: serial paths stay inline");
    // One reading opens both the region and its wait for the region
    // slot. When the serving batcher claimed an active traced batch,
    // the region also shows up in the request trace under its name.
    let region =
        Stage::start()
            .metric(name)
            .trace(name, 0, amoe_obs::trace::active_batch(), n_tasks as u64);
    amoe_obs::counter_add("pool.regions", 1);
    amoe_obs::counter_add("pool.tasks", n_tasks as u64);
    let shared = shared();
    let _region_slot = lock(&shared.region_lock);
    Stage::at(region.started())
        .metric("pool.queue_wait_ns")
        .end();
    ensure_workers(shared, workers - 1);

    // SAFETY: `RegionGuard` below quiesces all workers before this
    // frame is left, on return and on unwind alike — see `erase`.
    let job = Arc::new(RegionJob::new(unsafe { erase(f) }, n_tasks));
    {
        let mut st = lock(&shared.state);
        st.job = Some(Arc::clone(&job));
        st.epoch = st.epoch.wrapping_add(1);
        st.attach_budget = workers - 1;
    }
    shared.work_cv.notify_all();

    // From here to RegionGuard::drop the caller counts as inside the
    // region: a nested region started by one of its own tasks (e.g. a
    // matmul inside an expert closure) must run inline, not re-enter
    // the region slot this thread already holds.
    CTX.with(|c| c.set(Ctx::Caller));
    let _quiesce = RegionGuard { shared, job: &job };
    // The caller is lane zero.
    claim_loop(&job);
    wait_done(&job);
    drop(_quiesce);
    region.end();
    if job.panicked.load(Ordering::SeqCst) {
        panic!("pool: worker panicked in parallel region");
    }
}

/// Spawns persistent workers until at least `extra` exist.
fn ensure_workers(shared: &'static Arc<Shared>, extra: usize) {
    let mut st = lock(&shared.state);
    if st.workers >= extra {
        amoe_obs::counter_add("pool.region_reuse", 1);
        return;
    }
    let need = extra - st.workers;
    for _ in 0..need {
        let sh = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("amoe-pool-{}", st.workers))
            .spawn(move || worker_main(&sh))
            .expect("pool: failed to spawn persistent worker");
        st.workers += 1;
    }
    amoe_obs::counter_add("pool.workers_started", need as u64);
}

/// Claims tasks off the job's cursor until the queue is drained or the
/// region is cancelled. Each successful task bumps `done`.
fn claim_loop(job: &RegionJob) {
    loop {
        if job.cancelled.load(Ordering::SeqCst) {
            return;
        }
        let i = job.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= job.n {
            return;
        }
        (job.f)(i);
        job.done.fetch_add(1, Ordering::SeqCst);
    }
}

/// Caller-side wait for `done == n` (or cancellation).
fn wait_done(job: &RegionJob) {
    if job.done.load(Ordering::SeqCst) >= job.n {
        return;
    }
    let mut g = lock(&job.sync);
    while job.done.load(Ordering::SeqCst) < job.n && !job.cancelled.load(Ordering::SeqCst) {
        g = wait(&job.done_cv, g);
    }
}

/// Wakes the caller's wait and stops further claims.
fn cancel(job: &RegionJob) {
    job.cancelled.store(true, Ordering::SeqCst);
    signal_done(job);
}

/// Region cleanup that runs on return and unwind: cancel (a no-op for
/// a completed region), wait until every worker detached, clear the
/// job slot, restore the thread context. Only after this may the
/// caller's frame — which the erased closures borrow — be left.
struct RegionGuard<'a> {
    shared: &'a Shared,
    job: &'a Arc<RegionJob>,
}

impl Drop for RegionGuard<'_> {
    fn drop(&mut self) {
        cancel(self.job);
        let mut st = lock(&self.shared.state);
        while st.active > 0 {
            st = wait(&self.shared.done_cv, st);
        }
        st.attach_budget = 0;
        st.job = None;
        drop(st);
        CTX.with(|c| c.set(Ctx::Outside));
    }
}

/// The persistent worker body: park, attach to at most one region per
/// epoch, drain its tasks, detach, repeat forever.
fn worker_main(shared: &Arc<Shared>) {
    CTX.with(|c| c.set(Ctx::Worker));
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.epoch != last_epoch && st.attach_budget > 0 {
                    if let Some(j) = st.job.clone() {
                        st.attach_budget -= 1;
                        st.active += 1;
                        last_epoch = st.epoch;
                        break j;
                    }
                }
                st = wait(&shared.work_cv, st);
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            claim_loop(&job);
            signal_done(&job);
        }));
        if outcome.is_err() {
            job.panicked.store(true, Ordering::SeqCst);
            cancel(&job);
        }
        // Last use of the erased closure was above; drop our handle
        // before detaching so the caller's quiescence wait is exact.
        drop(job);
        {
            let mut st = lock(&shared.state);
            st.active -= 1;
        }
        shared.done_cv.notify_all();
    }
}

/// Wakes the caller's wait (lock/unlock pairs with `wait_done` to close
/// the missed-wakeup window).
fn signal_done(job: &RegionJob) {
    drop(lock(&job.sync));
    job.done_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }

    #[test]
    fn map_tasks_preserves_order() {
        set_threads(4);
        let out = map_tasks(100, |i| i * i);
        clear_threads_override();
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_tasks_serial_matches_parallel() {
        set_threads(1);
        let serial = map_tasks(33, |i| (i as f32).sin());
        set_threads(8);
        let parallel = map_tasks(33, |i| (i as f32).sin());
        clear_threads_override();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn map_tasks_empty_and_single() {
        assert_eq!(map_tasks(0, |i| i), Vec::<usize>::new());
        assert_eq!(map_tasks(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn for_each_task_covers_all_tasks() {
        set_threads(3);
        let hits: Vec<AtomicUsize> = (0..57).map(|_| AtomicUsize::new(0)).collect();
        for_each_task(57, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        clear_threads_override();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_row_blocks_disjoint_and_complete() {
        let (rows, cols) = (37, 5);
        for t in [1usize, 2, 4, 16] {
            set_threads(t);
            let mut buf = vec![0f32; rows * cols];
            par_row_blocks(&mut buf, rows, cols, |first_row, block| {
                for (local, row) in block.chunks_mut(cols).enumerate() {
                    let r = first_row + local;
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = (r * cols + c) as f32;
                    }
                }
            });
            clear_threads_override();
            let expect: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            assert_eq!(buf, expect, "thread count {t}");
        }
    }

    #[test]
    #[should_panic(expected = "rows x row_len")]
    fn par_row_blocks_rejects_bad_shape() {
        let mut buf = vec![0f32; 7];
        par_row_blocks(&mut buf, 2, 4, |_, _| {});
    }

    #[test]
    fn nested_region_from_task_runs_inline() {
        set_threads(4);
        let hits: Vec<AtomicUsize> = (0..12).map(|_| AtomicUsize::new(0)).collect();
        let out = map_tasks(4, |outer| {
            // A nested region (as matmul inside an expert task would
            // start) must degrade to the serial loop, not deadlock.
            let inner = map_tasks(3, |i| outer * 3 + i);
            for &v in &inner {
                hits[v].fetch_add(1, Ordering::SeqCst);
            }
            inner.iter().sum::<usize>()
        });
        clear_threads_override();
        assert_eq!(out.len(), 4);
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn workers_survive_across_regions() {
        set_threads(3);
        let _ = map_tasks(16, |i| i);
        let alive_after_first = workers_alive();
        assert!(alive_after_first >= 2, "expected persistent workers");
        for _ in 0..5 {
            let _ = map_tasks(16, |i| i + 1);
        }
        // Reuse, not respawn: the worker set did not grow.
        assert_eq!(workers_alive(), alive_after_first.max(workers_alive()));
        assert!(workers_alive() >= alive_after_first);
        clear_threads_override();
    }

    #[test]
    fn set_threads_after_first_use_resizes() {
        set_threads(2);
        let _ = map_tasks(8, |i| i);
        let before = workers_alive();
        set_threads(4);
        let _ = map_tasks(8, |i| i);
        assert!(
            workers_alive() >= before && workers_alive() >= 3,
            "budget raise must grow the worker set ({} -> {})",
            before,
            workers_alive()
        );
        clear_threads_override();
    }

    #[test]
    fn worker_panic_propagates_and_pool_recovers() {
        set_threads(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for_each_task(64, |i| {
                assert!(i != 13, "boom");
            });
        }));
        assert!(caught.is_err(), "task panic must propagate to the caller");
        // The pool must remain usable after a panicked region.
        let out = map_tasks(32, |i| i * 2);
        clear_threads_override();
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }
}
