//! The TCP server: accept loop, one pipelined handler per connection
//! (a reader that admits requests and a writer thread that sends
//! replies in completion order), one admission queue feeding one
//! batcher thread, checkpoint hot-swap and graceful drain.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use amoe_core::ranker::OptimConfig;
use amoe_core::serving::ServingModel;
use amoe_core::{MoeConfig, MoeModel};
use amoe_dataset::{Batch, DatasetMeta};
use amoe_nn::ParamSet;
use amoe_obs::registry::Histogram;
use amoe_obs::trace;
use amoe_obs::WindowedHistogram;
use amoe_tensor::Matrix;

use crate::batcher::{self, Pending, ScoreDone, WriterMsg};
use crate::config::ServeConfig;
use crate::protocol::{self, FeatureRow, Request, Response};
use crate::queue::{PushError, RequestQueue};

/// Sliding-window stage histograms behind [`WindowedStats`] and the
/// `/metrics` window families. Always on (a handful of histogram
/// increments per request), independent of the `AMOE_OBS` telemetry
/// gate. Traced requests leave an [`amoe_obs::Exemplar`] in each
/// window (the max-value traced sample per slot), surfaced as
/// OpenMetrics exemplars on `/metrics` so a quantile spike links to
/// its trace.
pub(crate) struct StageWindows {
    /// End-to-end request latency (admission → reply written), µs.
    pub request_latency_us: WindowedHistogram,
    /// Admission-queue wait per request, µs.
    pub queue_wait_us: WindowedHistogram,
    /// Model compute per batch, µs.
    pub compute_us: WindowedHistogram,
    /// Reply serialisation + socket write per request, µs.
    pub reply_write_us: WindowedHistogram,
    /// Queue depth observed at every push/pop of the admission queue.
    pub queue_depth: WindowedHistogram,
}

impl StageWindows {
    fn new(window: Duration) -> Self {
        let mk = || WindowedHistogram::new(window, amoe_obs::window::DEFAULT_SLOTS);
        StageWindows {
            request_latency_us: mk(),
            queue_wait_us: mk(),
            compute_us: mk(),
            reply_write_us: mk(),
            queue_depth: mk(),
        }
    }
}

/// Point-in-time server counters ([`Server::stats`], `/vars`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Score requests received (before admission control).
    pub requests: u64,
    /// Feature rows received across all score requests.
    pub rows: u64,
    /// Score requests answered with scores.
    pub ok: u64,
    /// Score requests rejected by admission control.
    pub overloaded: u64,
    /// Requests answered with an error (validation or internal).
    pub errors: u64,
    /// Model calls made by the batcher.
    pub batches: u64,
    /// Successful checkpoint hot-swaps.
    pub reloads: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
}

/// Count + p50/p95/p99 readout of one sliding-window histogram.
/// Quantiles inherit the log-bucket relative error bound
/// (`2^(1/4) − 1 ≈ 19%`); all values are finite by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QuantileSummary {
    /// Samples inside the window.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl QuantileSummary {
    /// Reads a summary off a (merged sliding-window) histogram.
    #[must_use]
    pub fn from_histogram(h: &Histogram) -> QuantileSummary {
        QuantileSummary {
            count: h.count(),
            p50: h.quantile(0.5),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        }
    }
}

/// Stage-broken-down sliding-window quantiles ([`Server::window_stats`],
/// `/vars` `window`): what the last `window_secs` of traffic looked
/// like, split into the pipeline stages a request passes through
/// (queue wait vs batch compute vs reply write, plus end-to-end latency
/// and queue depth).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowedStats {
    /// Window length the summaries cover, seconds.
    pub window_secs: f64,
    /// End-to-end request latency (admission → reply written), µs.
    pub request_latency_us: QuantileSummary,
    /// Time spent waiting in the admission queue, µs.
    pub queue_wait_us: QuantileSummary,
    /// Model compute per batch (gate + experts + scatter), µs.
    pub compute_us: QuantileSummary,
    /// Reply serialisation + socket write, µs.
    pub reply_write_us: QuantileSummary,
    /// Queue depth observed at every push/pop.
    pub queue_depth: QuantileSummary,
}

/// Monotonic service counters, updated lock-free by handler threads
/// and the batcher, plus the sliding-window stage histograms.
pub struct ServerStats {
    pub(crate) requests: AtomicU64,
    pub(crate) rows: AtomicU64,
    pub(crate) ok: AtomicU64,
    pub(crate) overloaded: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) reloads: AtomicU64,
    /// Allocator for trace batch ids (`fetch_add + 1`, so ids start at
    /// 1 and 0 stays "no batch").
    batch_seq: AtomicU64,
    pub(crate) windows: Mutex<StageWindows>,
}

impl ServerStats {
    fn new(window: Duration) -> Self {
        ServerStats {
            requests: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            batch_seq: AtomicU64::new(0),
            windows: Mutex::new(StageWindows::new(window)),
        }
    }

    /// Allocates the next trace batch id (≥ 1).
    pub(crate) fn next_batch_id(&self) -> u64 {
        self.batch_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(crate) fn snapshot(&self, queue_depth: usize) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            queue_depth: queue_depth as u64,
        }
    }

    /// Folds the sliding windows into one quantile block.
    pub(crate) fn window_stats(&self) -> WindowedStats {
        let mut w = self.windows.lock().unwrap();
        let summary = |h: &mut WindowedHistogram| QuantileSummary::from_histogram(&h.merged());
        WindowedStats {
            window_secs: w.request_latency_us.window().as_secs_f64(),
            request_latency_us: summary(&mut w.request_latency_us),
            queue_wait_us: summary(&mut w.queue_wait_us),
            compute_us: summary(&mut w.compute_us),
            reply_write_us: summary(&mut w.reply_write_us),
            queue_depth: summary(&mut w.queue_depth),
        }
    }
}

/// State shared by the accept loop, handler threads and the batcher.
pub(crate) struct Shared {
    /// The serving bundle (model + optional int8 expert snapshot,
    /// quantized once at load). Handlers swap the `Arc` on RELOAD; the
    /// batcher clones it per batch, so in-flight batches finish on
    /// the model they started with.
    pub model: Mutex<Arc<ServingModel>>,
    /// Schema the server validates incoming ids against.
    pub meta: DatasetMeta,
    /// Architecture used to rebuild models on RELOAD.
    pub model_config: MoeConfig,
    /// The bounded admission queue; the batcher is its only consumer.
    pub queue: RequestQueue<Pending>,
    /// Tuning knobs.
    pub config: ServeConfig,
    /// Set once SHUTDOWN is received — the **first** store of
    /// [`initiate_shutdown`], before the queue closes, so `/readyz`
    /// flips to 503 at drain start while in-flight requests (and
    /// `/healthz`) keep being served.
    pub shutdown: AtomicBool,
    /// Server start time, behind `amoe_uptime_seconds` and `/vars`.
    pub started: Instant,
    /// Checkpoint generation currently live: 0 for the boot model,
    /// +1 on every successful RELOAD. Behind `amoe_model_generation`.
    pub model_generation: AtomicU64,
    /// Instant of the last successful model swap (start time until
    /// the first RELOAD). Behind `amoe_model_age_seconds` — the
    /// freshness signal the online train→reload loop is judged by.
    pub model_swapped: Mutex<Instant>,
    /// Service counters (`Arc` so the queue's depth observer can hold
    /// a reference without a cycle through `Shared`).
    pub stats: Arc<ServerStats>,
    /// Read-half handles of every open connection, keyed by accept
    /// order, so shutdown can unblock handler threads parked in
    /// `read_frame` on idle connections (their write halves stay open
    /// for in-flight replies). A handler removes its own entry when it
    /// finishes.
    pub conns: Mutex<HashMap<u64, TcpStream>>,
}

/// A running inference service.
///
/// Dropping the handle does **not** stop the server; send `SHUTDOWN`
/// (e.g. via [`crate::client::Client::shutdown`]) and then
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    batcher_thread: Option<JoinHandle<()>>,
    /// The HTTP observability listener, when `obs_addr` is configured.
    obs: Option<crate::http::ObsListener>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop and the batcher thread. Every gate-input
    /// configuration is servable (the tape-free path mirrors the
    /// training encoder for each variant).
    ///
    /// # Errors
    /// Fails on bind or thread-spawn errors.
    pub fn start(
        addr: impl ToSocketAddrs,
        model: MoeModel,
        meta: DatasetMeta,
        config: ServeConfig,
    ) -> io::Result<Server> {
        config.validate();
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stats = Arc::new(ServerStats::new(config.stats_window));
        let mut queue = RequestQueue::new(config.queue_cap);
        {
            // Depth accounting runs inside the queue lock, so the
            // published depth is exact even under concurrent pops
            // (a read-then-set from outside the lock can go stale).
            let stats = Arc::clone(&stats);
            queue.set_depth_observer(move |depth| {
                stats
                    .windows
                    .lock()
                    .unwrap()
                    .queue_depth
                    .record(depth as f64);
                if amoe_obs::enabled() {
                    amoe_obs::gauge_set("serve.queue_depth", depth as f64);
                }
            });
        }
        let shared = Arc::new(Shared {
            model_config: model.config().clone(),
            model: Mutex::new(Arc::new(ServingModel::new(model, config.quantized))),
            meta,
            queue,
            config,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            model_generation: AtomicU64::new(0),
            model_swapped: Mutex::new(Instant::now()),
            stats,
            conns: Mutex::new(HashMap::new()),
        });
        // The observability listener binds before the batcher spawns so
        // a bind failure aborts startup instead of leaving a half-dead
        // server that scores but cannot be scraped.
        let obs = match shared.config.obs_addr.clone() {
            Some(addr) => Some(crate::http::ObsListener::start(&addr, Arc::clone(&shared))?),
            None => None,
        };

        let batcher_thread = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("amoe-serve-batcher".into())
                .spawn(move || batcher::run(&shared))?
        };
        let accept_thread = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("amoe-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Server {
            addr: local,
            shared,
            accept_thread: Some(accept_thread),
            batcher_thread: Some(batcher_thread),
            obs,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The HTTP observability listener's bound address (resolves
    /// ephemeral ports); `None` when no `obs_addr` was configured.
    #[must_use]
    pub fn obs_addr(&self) -> Option<SocketAddr> {
        self.obs.as_ref().map(crate::http::ObsListener::local_addr)
    }

    /// Current service counters (the `/vars` top-level counters).
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot(self.shared.queue.len())
    }

    /// Sliding-window stage quantiles (the `/vars` `window` block).
    #[must_use]
    pub fn window_stats(&self) -> WindowedStats {
        self.shared.stats.window_stats()
    }

    /// Blocks until the server has shut down (all connections
    /// answered, the queue drained, threads exited). Only
    /// returns after a `SHUTDOWN` request.
    ///
    /// The observability listener is stopped **last**: `/healthz`
    /// answers 200 (and `/readyz` 503) throughout the drain, so a load
    /// balancer sees "alive but not ready" until the process is
    /// actually done.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.batcher_thread.take() {
            let _ = t.join();
        }
        if let Some(obs) = self.obs.take() {
            obs.stop();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for (conn_id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap().insert(conn_id, clone);
        }
        let shared = Arc::clone(shared);
        let handle = thread::Builder::new()
            .name("amoe-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(&stream, &shared);
                // Dropping the registered clone and `stream` closes the
                // socket: the writer's half was joined above.
                shared.conns.lock().unwrap().remove(&conn_id);
            });
        // A finished handler has answered everything it admitted, so
        // only running handlers need joining at drain; dropping the
        // rest keeps a long-lived server from holding one handle per
        // past connection.
        handlers.retain(|h| !h.is_finished());
        if let Ok(h) = handle {
            handlers.push(h);
        }
    }
    // Drain phase. Handlers parked in read_frame on connections the
    // client left open would block join forever; half-closing the read
    // side (sticky, so it also covers handlers that re-enter
    // read_frame later) turns their next read into EOF while replies
    // still flow out the write half. This sweep is complete because
    // this thread is the only registrar and has stopped accepting.
    for conn in shared.conns.lock().unwrap().values() {
        let _ = conn.shutdown(std::net::Shutdown::Read);
    }
    // Connections that raced the shutdown sit un-accepted in the
    // backlog; their clients would hang awaiting a handshake. Accept
    // and drop them so they see EOF instead.
    if listener.set_nonblocking(true).is_ok() {
        while let Ok((s, _)) = listener.accept() {
            drop(s);
        }
    }
    // Every admitted request must be answered before join() returns,
    // so wait for all connection threads (each handler in turn joins
    // its writer, which drains every in-flight completion).
    for h in handlers {
        let _ = h.join();
    }
    // With every request answered, the trace ring is final: export it
    // to the `AMOE_TRACE` path, if one is configured.
    if let Some((path, n)) = trace::dump_if_env() {
        eprintln!("amoe-serve: wrote {n} trace events to {}", path.display());
    }
}

/// The one connection handler. A hello with another version is
/// refused: the peer gets this server's hello back, then the caller
/// closes the connection (a hello with another magic gets no reply at
/// all). Otherwise the reader (this thread) decodes requests and admits
/// scores without waiting for their completions, while a dedicated
/// writer thread owns the write half and sends replies in whatever
/// order they complete.
fn handle_connection(mut stream: &TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    // Replies must not sit in the kernel waiting for an ACK.
    let _ = stream.set_nodelay(true);
    let offered = protocol::read_hello(&mut stream)?;
    protocol::write_hello(&mut stream, protocol::VERSION)?;
    protocol::negotiate(offered)?;
    let write_half = stream.try_clone()?;
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let writer = {
        let shared = Arc::clone(shared);
        thread::Builder::new()
            .name("amoe-serve-writer".into())
            .spawn(move || writer_loop(write_half, &rx, &shared))?
    };
    let result = read_loop(stream, shared, &tx);
    // Dropping the reader's sender lets the writer drain and exit:
    // every in-flight Pending holds its own sender clone, so the
    // channel only closes once each admitted request has been
    // answered (or its batch dropped the reply). That join IS the
    // per-connection drain guarantee.
    drop(tx);
    let _ = writer.join();
    result
}

fn read_loop(
    mut stream: &TcpStream,
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<WriterMsg>,
) -> io::Result<()> {
    loop {
        let payload = match protocol::read_frame(&mut stream) {
            Ok(p) => p,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                // No request id survived decoding, so this cannot ride
                // SCORE_ERROR; it is answered in admin order.
                let _ = tx.send(WriterMsg::Admin(Response::Error {
                    message: format!("malformed request: {e}"),
                }));
                continue;
            }
        };
        match request {
            Request::Score {
                request_id,
                trace_id,
                rows,
            } => {
                let t0 = Instant::now();
                if let Err(r) = admit_score(shared, request_id, trace_id, &rows, t0, tx.clone()) {
                    let _ = tx.send(WriterMsg::Admin(Response::ScoreError {
                        request_id,
                        overloaded: r.overloaded,
                        message: r.message,
                    }));
                }
            }
            Request::Reload { path } => {
                let _ = tx.send(WriterMsg::Admin(reload_response(shared, &path)));
            }
            Request::Shutdown => {
                initiate_shutdown(stream, shared)?;
                let _ = tx.send(WriterMsg::Admin(Response::Ok));
                return Ok(());
            }
        }
    }
}

/// The per-connection reply writer: single owner of the
/// connection's write half. Completions arrive from the batcher;
/// admission errors and admin responses arrive from the reader in
/// request order, so they can overtake earlier scores still queued. Runs until every sender (the reader plus one clone
/// per in-flight request) is gone. Write errors don't stop the drain:
/// remaining completions still need their accounting, and their
/// writes fail fast on the dead socket.
fn writer_loop(mut stream: TcpStream, rx: &mpsc::Receiver<WriterMsg>, shared: &Arc<Shared>) {
    for msg in rx.iter() {
        let _ = match msg {
            WriterMsg::Done(done) => write_score_reply(&mut stream, shared, done),
            WriterMsg::Admin(resp) => reply(&mut stream, &resp),
        };
    }
}

/// Why a score request was not admitted to the queue.
struct ScoreReject {
    /// True when admission control shed it (`SCORE_ERROR{overloaded}`),
    /// false for validation/shutdown errors.
    overloaded: bool,
    message: String,
}

/// Validates a score request and enqueues it. On success the request's
/// reply lane travels with it to the batcher.
fn admit_score(
    shared: &Arc<Shared>,
    request_id: u64,
    client_trace_id: u64,
    rows: &[FeatureRow],
    t0: Instant,
    reply: mpsc::Sender<WriterMsg>,
) -> Result<(), ScoreReject> {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .rows
        .fetch_add(rows.len() as u64, Ordering::Relaxed);
    // A client-supplied id is an explicit ask to trace this request, so
    // it bypasses sampling; server-assigned ids keep 1-in-N. 0 means
    // untraced (including whenever tracing is off).
    let trace_id = if client_trace_id != 0 && trace::enabled() {
        client_trace_id
    } else {
        trace::next_trace_id().unwrap_or(0)
    };
    let n_rows_in = rows.len() as u64;

    let batch = match rows_to_batch(rows, &shared.meta) {
        Ok(b) => b,
        Err(message) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            return Err(ScoreReject {
                overloaded: false,
                message,
            });
        }
    };
    if trace_id != 0 {
        trace::record(
            trace_id,
            0,
            "admitted",
            trace::instant_ns(t0),
            trace::now_ns(),
            n_rows_in,
        );
    }

    let pending = Pending {
        batch,
        request_id,
        trace_id,
        reply,
        enqueued: t0,
    };
    match shared.queue.push(pending, shared.config.overload) {
        Ok(()) => {}
        Err(PushError::Full) => {
            shared.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            if amoe_obs::enabled() {
                amoe_obs::counter_add("serve.overloaded", 1);
            }
            return Err(ScoreReject {
                overloaded: true,
                message: "admission queue full".into(),
            });
        }
        Err(PushError::Closed) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            return Err(ScoreReject {
                overloaded: false,
                message: "server is shutting down".into(),
            });
        }
    }
    // The queue-depth gauge is published by the queue's depth observer,
    // under the queue lock — not here, where a concurrent pop could
    // already have made the depth stale.
    if trace_id != 0 {
        trace::record_instant(trace_id, 0, "enqueued", n_rows_in);
    }
    Ok(())
}

/// Writes one completed score and records the per-request completion
/// telemetry, exactly once per request.
fn write_score_reply(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    done: ScoreDone,
) -> io::Result<()> {
    shared.stats.ok.fetch_add(1, Ordering::Relaxed);
    let n_rows = done.scores.len();
    let write_t0 = Instant::now();
    let result = reply(
        stream,
        &Response::Scores {
            request_id: done.request_id,
            scores: done.scores,
        },
    );
    let reply_us = write_t0.elapsed().as_micros() as f64;
    let latency_us = done.enqueued.elapsed().as_micros() as u64;
    {
        // Always-on windowed stage accounting behind the `/vars`
        // quantiles and the /metrics window families: a couple of
        // histogram increments per request. Traced requests double as
        // exemplar candidates.
        let mut w = shared.stats.windows.lock().unwrap();
        w.reply_write_us.record_traced(reply_us, done.trace_id);
        w.request_latency_us
            .record_traced(latency_us as f64, done.trace_id);
    }
    if done.trace_id != 0 {
        trace::record(
            done.trace_id,
            done.batch_id,
            "reply_written",
            trace::instant_ns(write_t0),
            trace::now_ns(),
            n_rows as u64,
        );
    }
    if amoe_obs::enabled() {
        amoe_obs::counter_add("serve.requests", 1);
        amoe_obs::histogram_record("serve.request_latency_us", latency_us as f64);
        amoe_obs::emit(
            &amoe_obs::Event::new("serve_request")
                .u64("request_id", done.request_id)
                .u64("rows", n_rows as u64)
                .u64("latency_us", latency_us)
                .u64("queue_depth", shared.queue.len() as u64),
        );
    }
    result
}

fn reload_response(shared: &Arc<Shared>, path: &str) -> Response {
    let swapped = ParamSet::load(path)
        .map_err(|e| format!("checkpoint load failed: {e}"))
        .and_then(|params| {
            MoeModel::from_params(
                &shared.meta,
                shared.model_config.clone(),
                OptimConfig::default(),
                &params,
            )
            .map_err(|e| format!("checkpoint incompatible with serving config: {e}"))
        });
    match swapped {
        Ok(new_model) => {
            // Quantization policy survives the swap: the bundle is
            // rebuilt with the server's configured mode.
            *shared.model.lock().unwrap() =
                Arc::new(ServingModel::new(new_model, shared.config.quantized));
            shared.stats.reloads.fetch_add(1, Ordering::Relaxed);
            let generation = shared.model_generation.fetch_add(1, Ordering::Relaxed) + 1;
            *shared.model_swapped.lock().unwrap() = Instant::now();
            if amoe_obs::enabled() {
                amoe_obs::counter_add("serve.reloads", 1);
                amoe_obs::gauge_set("serve.model_generation", generation as f64);
                amoe_obs::emit(
                    &amoe_obs::Event::new("serve_reload")
                        .str("path", path)
                        .u64("generation", generation)
                        .u64("ok", 1),
                );
            }
            Response::Ok
        }
        Err(message) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            if amoe_obs::enabled() {
                amoe_obs::emit(
                    &amoe_obs::Event::new("serve_reload")
                        .str("path", path)
                        .u64("ok", 0),
                );
            }
            Response::Error { message }
        }
    }
}

/// Flips the shutdown flag, closes the queue (admitted requests drain,
/// new ones are refused) and wakes the accept loop. The caller still
/// owes the client its `OK` reply.
fn initiate_shutdown(stream: &TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    shared.shutdown.store(true, Ordering::SeqCst);
    // Close the queue first: the batcher exits once it is empty, so
    // every admitted request is still answered.
    shared.queue.close();
    // Wake the accept loop (it blocks in accept()) with a throwaway
    // connection to our own listening address; the shutdown flag makes
    // it break out instead of serving it. The accept loop then
    // half-closes idle connections and drains the backlog.
    let _ = TcpStream::connect(stream.local_addr()?);
    Ok(())
}

fn reply(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    protocol::write_frame(stream, &response.encode())
}

/// Validates feature rows against the schema and assembles the model
/// batch. Returns a client-facing message on the first violation.
pub(crate) fn rows_to_batch(rows: &[FeatureRow], meta: &DatasetMeta) -> Result<Batch, String> {
    if rows.is_empty() {
        return Err("no rows".into());
    }
    let b = rows.len();
    let mut numeric = Matrix::zeros(b, meta.n_numeric);
    let mut sc = Vec::with_capacity(b);
    let mut tc = Vec::with_capacity(b);
    let mut brand = Vec::with_capacity(b);
    let mut shop = Vec::with_capacity(b);
    let mut user_segment = Vec::with_capacity(b);
    let mut price_bucket = Vec::with_capacity(b);
    let mut query = Vec::with_capacity(b);
    for (i, row) in rows.iter().enumerate() {
        for (field, id, vocab) in [
            ("sc", row.sc, meta.sc_vocab),
            ("tc", row.tc, meta.tc_vocab),
            ("brand", row.brand, meta.brand_vocab),
            ("shop", row.shop, meta.shop_vocab),
            ("user_segment", row.user_segment, meta.user_segment_vocab),
            ("price_bucket", row.price_bucket, meta.price_bucket_vocab),
            ("query", row.query, meta.query_vocab),
        ] {
            if id as usize >= vocab {
                return Err(format!(
                    "row {i}: {field} id {id} out of range (vocab {vocab})"
                ));
            }
        }
        if row.numeric.len() != meta.n_numeric {
            return Err(format!(
                "row {i}: {} numeric features, schema wants {}",
                row.numeric.len(),
                meta.n_numeric
            ));
        }
        if let Some(v) = row.numeric.iter().find(|v| !v.is_finite()) {
            return Err(format!("row {i}: non-finite numeric feature {v}"));
        }
        numeric.row_mut(i).copy_from_slice(&row.numeric);
        sc.push(row.sc as usize);
        tc.push(row.tc as usize);
        brand.push(row.brand as usize);
        shop.push(row.shop as usize);
        user_segment.push(row.user_segment as usize);
        price_bucket.push(row.price_bucket as usize);
        query.push(row.query as usize);
    }
    Ok(Batch {
        numeric,
        labels: Matrix::zeros(b, 1),
        sc,
        tc,
        brand,
        shop,
        user_segment,
        price_bucket,
        query,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> DatasetMeta {
        DatasetMeta {
            sc_vocab: 10,
            tc_vocab: 3,
            brand_vocab: 20,
            shop_vocab: 5,
            user_segment_vocab: 4,
            price_bucket_vocab: 5,
            query_vocab: 40,
            n_numeric: 2,
        }
    }

    fn ok_row() -> FeatureRow {
        FeatureRow {
            sc: 1,
            tc: 2,
            brand: 3,
            shop: 4,
            user_segment: 0,
            price_bucket: 0,
            query: 7,
            numeric: vec![0.1, -0.2],
        }
    }

    #[test]
    fn valid_rows_become_a_batch() {
        let batch = rows_to_batch(&[ok_row(), ok_row()], &meta()).expect("valid");
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.numeric.row(1), &[0.1, -0.2]);
        assert_eq!(batch.sc, vec![1, 1]);
    }

    #[test]
    fn out_of_vocab_id_rejected() {
        let mut row = ok_row();
        row.brand = 99;
        let err = rows_to_batch(&[row], &meta()).unwrap_err();
        assert!(err.contains("brand"), "unexpected message: {err}");
    }

    #[test]
    fn wrong_numeric_width_rejected() {
        let mut row = ok_row();
        row.numeric = vec![0.0; 5];
        assert!(rows_to_batch(&[row], &meta()).is_err());
    }

    #[test]
    fn non_finite_numeric_rejected() {
        let mut row = ok_row();
        row.numeric[0] = f32::NAN;
        let err = rows_to_batch(&[row], &meta()).unwrap_err();
        assert!(err.contains("non-finite"), "unexpected message: {err}");
    }

    #[test]
    fn finished_connections_leave_no_registered_socket() {
        let meta = meta();
        let config = MoeConfig {
            n_experts: 2,
            top_k: 1,
            tower: amoe_core::TowerConfig { hidden: vec![4] },
            ..MoeConfig::default()
        };
        let model = MoeModel::new(&meta, config, OptimConfig::default());
        let server = Server::start("127.0.0.1:0", model, meta, ServeConfig::default())
            .expect("server start");
        for _ in 0..50 {
            drop(crate::Client::connect(server.local_addr()).expect("connect"));
        }
        // Each handler deregisters its socket once the client hangs up.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut open = usize::MAX;
        while Instant::now() < deadline {
            open = server.shared.conns.lock().unwrap().len();
            if open == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(open, 0, "closed connections still hold registered sockets");
        crate::Client::connect(server.local_addr())
            .and_then(|mut admin| admin.shutdown())
            .expect("shutdown");
        server.join();
    }
}
