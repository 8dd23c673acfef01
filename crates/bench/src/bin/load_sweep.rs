//! Load generator and latency harness for the `amoe-serve` service.
//!
//! By default the binary is fully self-contained: it trains a small
//! model on the synthetic dataset, starts an in-process [`Server`] on
//! an ephemeral loopback port, and drives it over real TCP through
//! six stages:
//!
//! 1. **closed-loop sweep** — N client threads, each firing the next
//!    request as soon as the previous reply lands; reports p50/p95/p99
//!    latency and throughput per client count;
//! 2. **open-loop stage** — paced senders at a fixed aggregate request
//!    rate (arrival process independent of service time);
//! 3. **reload-under-load** — a `RELOAD` hot-swap is issued while the
//!    closed-loop clients run; every in-flight request must succeed;
//! 4. **scrape-under-load** — a server with the HTTP observability
//!    listener enabled takes identical open-loop passes with and
//!    without a concurrent 20 Hz `/metrics` scraper; every scrape must
//!    return 200 and pass the Prometheus exposition linter, scrape
//!    latency is bounded, and the best-of-N throughput delta between
//!    the two configurations must stay under 1 % (the scrape overhead
//!    contract);
//! 5. **overload burst** — a second server with a tiny queue and a
//!    throttled batcher takes a burst that must shed load with
//!    `OVERLOADED` replies;
//! 6. **quantized serving** — a server with `quantized: true` scores
//!    the probe rows; TCP-returned scores must stay within the
//!    documented tolerance of a local f32 oracle on identical weights
//!    (emitted as a `quant_parity` record), and a closed-loop pass
//!    reports int8-path latency.
//!
//! Each stage prints a human line and emits a `load_sweep_row` JSONL
//! event. When `AMOE_OBS` is set the run ends by flushing the sink and
//! validating the emitted `serve_request` records with the same
//! schema checks as `obs_smoke` (exit 1 on violation). Pass
//! `--addr HOST:PORT` to drive an external server instead (stages 3-6
//! and the JSONL validation are skipped: they need server-side
//! control). `--smoke` / `AMOE_BENCH_SMOKE=1` shrinks the workload for
//! CI.

use std::path::Path;
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amoe_bench::obs_check;
use amoe_core::ranker::OptimConfig;
use amoe_core::serving::{ServingMoe, QUANT_SCORE_TOLERANCE};
use amoe_core::{MoeConfig, MoeModel, Ranker, TowerConfig};
use amoe_dataset::{generate, Batch, Dataset, Example, GeneratorConfig};
use amoe_serve::{Client, FeatureRow, ModelSpec, OverloadPolicy, ServeConfig, ServeError, Server};

fn fail(msg: &str) -> ! {
    eprintln!("load_sweep: FAIL: {msg}");
    exit(1);
}

fn smoke() -> bool {
    std::env::var("AMOE_BENCH_SMOKE").is_ok_and(|v| v.trim() == "1")
        || std::env::args().any(|a| a == "--smoke")
}

fn arg_value(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn to_feature_row(e: &Example) -> FeatureRow {
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

fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

struct StageResult {
    latencies_us: Vec<u64>,
    wall: Duration,
    sent: u64,
    overloaded: u64,
}

/// Runs `clients` closed-loop threads, each sending `requests`
/// score calls of `rows_per_req` rows. `OVERLOADED` replies are
/// counted and retried-as-skipped; any other failure aborts.
fn closed_loop(
    addr: std::net::SocketAddr,
    pool: &Arc<Vec<FeatureRow>>,
    clients: usize,
    requests: usize,
    rows_per_req: usize,
) -> StageResult {
    let overloaded = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let pool = Arc::clone(pool);
        let overloaded = Arc::clone(&overloaded);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr)
                .unwrap_or_else(|e| fail(&format!("client {c}: connect: {e}")));
            let mut latencies = Vec::with_capacity(requests);
            for r in 0..requests {
                let start = (c * requests + r) * rows_per_req % (pool.len() - rows_per_req);
                let rows = &pool[start..start + rows_per_req];
                let t = Instant::now();
                match client.score(rows) {
                    Ok(scores) => {
                        if scores.len() != rows_per_req {
                            fail(&format!("client {c}: wrong score count"));
                        }
                        latencies.push(t.elapsed().as_micros() as u64);
                    }
                    Err(ServeError::Overloaded) => {
                        overloaded.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => fail(&format!("client {c}: request {r}: {e}")),
                }
            }
            latencies
        }));
    }
    let mut latencies_us = Vec::new();
    for h in handles {
        latencies_us.extend(h.join().unwrap_or_else(|_| fail("client thread panicked")));
    }
    latencies_us.sort_unstable();
    StageResult {
        latencies_us,
        wall: t0.elapsed(),
        sent: (clients * requests) as u64,
        overloaded: overloaded.load(Ordering::Relaxed),
    }
}

/// Paced senders at `rate_rps` aggregate, split across `clients`
/// threads. Send times follow a fixed schedule, so queueing delay
/// shows up in latency rather than shifting the arrival process.
fn open_loop(
    addr: std::net::SocketAddr,
    pool: &Arc<Vec<FeatureRow>>,
    clients: usize,
    requests: usize,
    rows_per_req: usize,
    rate_rps: f64,
) -> StageResult {
    let per_client_interval = Duration::from_secs_f64(clients as f64 / rate_rps);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let pool = Arc::clone(pool);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr)
                .unwrap_or_else(|e| fail(&format!("open-loop client {c}: connect: {e}")));
            let base = Instant::now();
            let mut latencies = Vec::with_capacity(requests);
            for r in 0..requests {
                let due = base + per_client_interval.mul_f64(r as f64);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let start = (c * requests + r) * rows_per_req % (pool.len() - rows_per_req);
                let t = Instant::now();
                match client.score(&pool[start..start + rows_per_req]) {
                    Ok(_) => latencies.push(t.elapsed().as_micros() as u64),
                    Err(ServeError::Overloaded) => {}
                    Err(e) => fail(&format!("open-loop client {c}: {e}")),
                }
            }
            latencies
        }));
    }
    let mut latencies_us = Vec::new();
    for h in handles {
        latencies_us.extend(h.join().unwrap_or_else(|_| fail("client thread panicked")));
    }
    latencies_us.sort_unstable();
    StageResult {
        latencies_us,
        wall: t0.elapsed(),
        sent: (clients * requests) as u64,
        overloaded: 0,
    }
}

fn report(mode: &str, clients: usize, rows_per_req: usize, result: &StageResult) {
    if result.latencies_us.is_empty() {
        fail(&format!("{mode}: no successful requests"));
    }
    let p50 = percentile_us(&result.latencies_us, 0.50);
    let p95 = percentile_us(&result.latencies_us, 0.95);
    let p99 = percentile_us(&result.latencies_us, 0.99);
    let throughput = result.latencies_us.len() as f64 / result.wall.as_secs_f64();
    if !(p50.is_finite() && p95.is_finite() && p99.is_finite() && throughput.is_finite()) {
        fail(&format!("{mode}: non-finite latency statistics"));
    }
    if throughput <= 0.0 {
        fail(&format!("{mode}: zero throughput"));
    }
    println!(
        "load_sweep[{mode}] clients={clients} rows/req={rows_per_req} \
         ok={} overloaded={} p50={p50:.0}us p95={p95:.0}us p99={p99:.0}us {throughput:.0} req/s",
        result.latencies_us.len(),
        result.overloaded,
    );
    amoe_obs::emit(
        &amoe_obs::Event::new("load_sweep_row")
            .str("mode", mode)
            .u64("clients", clients as u64)
            .u64("rows_per_req", rows_per_req as u64)
            .u64("sent", result.sent)
            .u64("ok", result.latencies_us.len() as u64)
            .u64("overloaded", result.overloaded)
            .f64("p50_us", p50)
            .f64("p95_us", p95)
            .f64("p99_us", p99)
            .f64("throughput_rps", throughput),
    );
}

fn build_model(dataset: &Dataset, steps: usize) -> (MoeModel, MoeConfig) {
    let config = MoeConfig {
        n_experts: 6,
        top_k: 2,
        tower: TowerConfig {
            hidden: vec![12, 6],
        },
        ..MoeConfig::default()
    };
    let mut model = MoeModel::new(&dataset.meta, config.clone(), OptimConfig::default());
    let n = dataset.train.len().min(256);
    let batch = Batch::from_split(&dataset.train, &(0..n).collect::<Vec<_>>());
    for _ in 0..steps {
        model.train_step(&batch);
    }
    (model, config)
}

fn main() {
    let smoke = smoke();
    let rows_per_req: usize = arg_value("--rows")
        .map(|v| v.parse().unwrap_or_else(|_| fail("--rows: bad integer")))
        .unwrap_or(4);
    let requests: usize = arg_value("--requests")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail("--requests: bad integer"))
        })
        .unwrap_or(if smoke { 40 } else { 400 });
    let client_counts: Vec<usize> = if smoke { vec![1, 4] } else { vec![1, 2, 4, 8] };

    // The request pool comes from the synthetic test split, so ids are
    // always in-vocabulary for the self-spawned server.
    let dataset = generate(&GeneratorConfig::tiny(41));
    let pool: Arc<Vec<FeatureRow>> =
        Arc::new(dataset.test.examples.iter().map(to_feature_row).collect());
    if pool.len() <= rows_per_req {
        fail("request pool smaller than --rows");
    }

    let external = arg_value("--addr");
    if let Some(addr) = external {
        // External mode: closed- and open-loop only.
        let addr: std::net::SocketAddr = addr
            .parse()
            .unwrap_or_else(|_| fail("--addr: expected HOST:PORT"));
        for &clients in &client_counts {
            let result = closed_loop(addr, &pool, clients, requests, rows_per_req);
            report("closed", clients, rows_per_req, &result);
        }
        let result = open_loop(addr, &pool, 2, requests, rows_per_req, 200.0);
        report("open", 2, rows_per_req, &result);
        println!("load_sweep: OK (external server)");
        return;
    }

    // ---- self-contained mode ----------------------------------------
    let (model, config) = build_model(&dataset, if smoke { 6 } else { 20 });

    // A second checkpoint (a few more steps) for the hot-swap stage.
    let ckpt_dir = Path::new("target/load_sweep");
    std::fs::create_dir_all(ckpt_dir).unwrap_or_else(|e| fail(&format!("mkdir: {e}")));
    let ckpt_b = ckpt_dir.join("model_b.amoe");
    {
        let (mut model_b, _) = build_model(&dataset, if smoke { 6 } else { 20 });
        let batch = Batch::from_split(&dataset.train, &(0..64).collect::<Vec<_>>());
        model_b.train_step(&batch);
        model_b
            .params()
            .save(&ckpt_b)
            .unwrap_or_else(|e| fail(&format!("save checkpoint: {e}")));
        ModelSpec {
            meta: dataset.meta.clone(),
            config: config.clone(),
            serve_quantized: false,
        }
        .save(ckpt_dir.join("model_b.spec"))
        .unwrap_or_else(|e| fail(&format!("save spec: {e}")));
    }

    let server = Server::start(
        "127.0.0.1:0",
        model,
        dataset.meta.clone(),
        ServeConfig::default(),
    )
    .unwrap_or_else(|e| fail(&format!("server start: {e}")));
    let addr = server.local_addr();
    println!("load_sweep: serving on {addr}");

    for &clients in &client_counts {
        let result = closed_loop(addr, &pool, clients, requests, rows_per_req);
        report("closed", clients, rows_per_req, &result);
    }

    let result = open_loop(addr, &pool, 2, requests, rows_per_req, 200.0);
    report("open", 2, rows_per_req, &result);

    // Reload under load: swap checkpoints while closed-loop clients
    // hammer the server. closed_loop() aborts on any non-OVERLOADED
    // error, so surviving this stage is the zero-failures check.
    {
        let reloader = {
            let ckpt = ckpt_b.to_string_lossy().into_owned();
            std::thread::spawn(move || {
                let mut admin =
                    Client::connect(addr).unwrap_or_else(|e| fail(&format!("admin connect: {e}")));
                std::thread::sleep(Duration::from_millis(5));
                admin
                    .reload(&ckpt)
                    .unwrap_or_else(|e| fail(&format!("reload: {e}")));
            })
        };
        let result = closed_loop(addr, &pool, 4, requests, rows_per_req);
        reloader
            .join()
            .unwrap_or_else(|_| fail("reloader panicked"));
        report("reload", 4, rows_per_req, &result);
    }

    let stats = server.stats();
    Client::connect(addr)
        .and_then(|mut admin| admin.shutdown())
        .unwrap_or_else(|e| fail(&format!("shutdown: {e}")));
    server.join();
    if stats.reloads != 1 {
        fail(&format!(
            "expected 1 reload, server counted {}",
            stats.reloads
        ));
    }

    // Scrape-under-load: the observability listener must not cost
    // serving throughput. Identical open-loop schedules run with and
    // without a concurrent ~20 Hz /metrics scraper; open-loop arrivals
    // are schedule-determined, so comparing the best-of-N throughput
    // of each configuration isolates the listener's cost from
    // scheduler noise. Every scraped page must be a 200 that passes
    // the Prometheus exposition linter.
    {
        let (model, _) = build_model(&dataset, if smoke { 6 } else { 20 });
        let obs_server = Server::start(
            "127.0.0.1:0",
            model,
            dataset.meta.clone(),
            ServeConfig {
                obs_addr: Some("127.0.0.1:0".into()),
                ..ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| fail(&format!("scrape server start: {e}")));
        let s_addr = obs_server.local_addr();
        let obs_addr = obs_server
            .obs_addr()
            .unwrap_or_else(|| fail("scrape server did not start an obs listener"));

        for path in ["/healthz", "/readyz"] {
            let (status, _) = amoe_serve::http_get(obs_addr, path, Duration::from_secs(5))
                .unwrap_or_else(|e| fail(&format!("GET {path}: {e}")));
            if status != 200 {
                fail(&format!("GET {path}: HTTP {status}, expected 200"));
            }
        }
        // One warm-up scrape with family spot-checks before the timed
        // passes: the page must carry the build-info gauge and the
        // windowed latency family the dashboards key on.
        let (status, page) = amoe_serve::http_get(obs_addr, "/metrics", Duration::from_secs(5))
            .unwrap_or_else(|e| fail(&format!("GET /metrics: {e}")));
        if status != 200 {
            fail(&format!("GET /metrics: HTTP {status}"));
        }
        obs_check::validate_exposition(&page)
            .unwrap_or_else(|e| fail(&format!("/metrics fails exposition lint: {e}")));
        for family in [
            "amoe_build_info{",
            "amoe_uptime_seconds",
            "amoe_serve_window_request_latency_seconds_bucket",
        ] {
            if !page.contains(family) {
                fail(&format!("/metrics page is missing {family}"));
            }
        }

        let rate = if smoke { 100.0 } else { 200.0 };
        let trials = if smoke { 2 } else { 3 };
        let mut best_base = 0.0f64;
        let mut best_scraped = 0.0f64;
        let mut scrape_lat_us: Vec<u64> = Vec::new();
        for _ in 0..trials {
            let base = open_loop(s_addr, &pool, 2, requests, rows_per_req, rate);
            best_base = best_base.max(base.latencies_us.len() as f64 / base.wall.as_secs_f64());

            let stop = Arc::new(AtomicBool::new(false));
            let scraper = {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut lat = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        let (status, body) =
                            amoe_serve::http_get(obs_addr, "/metrics", Duration::from_secs(5))
                                .unwrap_or_else(|e| fail(&format!("scrape /metrics: {e}")));
                        lat.push(t.elapsed().as_micros() as u64);
                        if status != 200 {
                            fail(&format!("scrape /metrics under load: HTTP {status}"));
                        }
                        obs_check::validate_exposition(&body).unwrap_or_else(|e| {
                            fail(&format!("scraped page fails exposition lint: {e}"))
                        });
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    lat
                })
            };
            let scraped = open_loop(s_addr, &pool, 2, requests, rows_per_req, rate);
            stop.store(true, Ordering::Relaxed);
            scrape_lat_us.extend(
                scraper
                    .join()
                    .unwrap_or_else(|_| fail("scraper thread panicked")),
            );
            best_scraped =
                best_scraped.max(scraped.latencies_us.len() as f64 / scraped.wall.as_secs_f64());
        }
        if scrape_lat_us.is_empty() {
            fail("scrape stage performed no scrapes under load");
        }
        scrape_lat_us.sort_unstable();
        let scrape_p99_us = percentile_us(&scrape_lat_us, 0.99);
        // Rendering is a lock-snapshot plus string formatting; half a
        // second of p99 headroom on loopback only trips on pathological
        // lock contention or O(page) blow-ups.
        if scrape_p99_us > 500_000.0 {
            fail(&format!("scrape p99 {scrape_p99_us:.0}us exceeds 500ms"));
        }
        let overhead = (best_base - best_scraped) / best_base;
        if overhead >= 0.01 {
            fail(&format!(
                "scraping costs {:.2}% throughput (contract: <1%): \
                 baseline {best_base:.1} rps vs scraped {best_scraped:.1} rps",
                overhead * 100.0
            ));
        }
        println!(
            "load_sweep[scrape] {} scrapes p99={scrape_p99_us:.0}us \
             baseline={best_base:.0} rps scraped={best_scraped:.0} rps delta={:+.2}%",
            scrape_lat_us.len(),
            overhead * 100.0,
        );
        amoe_obs::emit(
            &amoe_obs::Event::new("scrape_row")
                .u64("scrapes", scrape_lat_us.len() as u64)
                .f64("scrape_p99_us", scrape_p99_us)
                .f64("baseline_rps", best_base)
                .f64("scraped_rps", best_scraped)
                .f64("overhead_frac", overhead),
        );

        let mut admin =
            Client::connect(s_addr).unwrap_or_else(|e| fail(&format!("scrape admin connect: {e}")));
        admin
            .shutdown()
            .unwrap_or_else(|e| fail(&format!("scrape shutdown: {e}")));
        obs_server.join();
        // join() stops the listener last; afterwards the obs port must
        // actually be closed, not leaked.
        if amoe_serve::http_get(obs_addr, "/healthz", Duration::from_millis(500)).is_ok() {
            fail("obs listener still answering after Server::join()");
        }
    }

    // Overload burst: tiny queue + throttled batcher guarantees the
    // queue fills; the burst must see OVERLOADED, not errors or hangs.
    {
        let (model, _) = build_model(&dataset, 2);
        let over_server = Server::start(
            "127.0.0.1:0",
            model,
            dataset.meta.clone(),
            ServeConfig {
                max_batch_rows: 4,
                queue_cap: 2,
                overload: OverloadPolicy::Reject,
                batcher_delay: Some(Duration::from_millis(30)),
                ..ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| fail(&format!("overload server start: {e}")));
        let over_addr = over_server.local_addr();
        let result = closed_loop(over_addr, &pool, 8, if smoke { 6 } else { 12 }, 1);
        report("overload", 8, 1, &result);
        let stats = over_server.stats();
        Client::connect(over_addr)
            .and_then(|mut admin| admin.shutdown())
            .unwrap_or_else(|e| fail(&format!("overload shutdown: {e}")));
        over_server.join();
        if result.overloaded == 0 || stats.overloaded == 0 {
            fail("overload burst produced no OVERLOADED replies");
        }
        println!(
            "load_sweep[overload] server counted {} overloaded / {} requests",
            stats.overloaded, stats.requests
        );
    }

    // Quantized serving: a server with int8 expert weights must return
    // scores within the documented tolerance of a local f32 oracle on
    // identical weights. build_model is deterministic, so rebuilding
    // with the same step count reproduces the first server's weights;
    // the oracle is computed locally before the model moves into the
    // server.
    {
        let steps = if smoke { 6 } else { 20 };
        let (model_q, _) = build_model(&dataset, steps);
        let probe_rows = 32.min(pool.len() - 1);
        let probe_batch = Batch::from_split(&dataset.test, &(0..probe_rows).collect::<Vec<_>>());
        let f32_scores = ServingMoe::new(&model_q).predict(&probe_batch);

        let q_server = Server::start(
            "127.0.0.1:0",
            model_q,
            dataset.meta.clone(),
            ServeConfig {
                quantized: true,
                ..ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| fail(&format!("quantized server start: {e}")));
        let q_addr = q_server.local_addr();

        let mut probe = Client::connect(q_addr)
            .unwrap_or_else(|e| fail(&format!("quantized probe connect: {e}")));
        let served = probe
            .score(&pool[..probe_rows])
            .unwrap_or_else(|e| fail(&format!("quantized probe score: {e}")));
        if served.len() != probe_rows {
            fail("quantized probe: wrong score count");
        }
        let max_abs_err = f32_scores
            .iter()
            .zip(&served)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        if max_abs_err > QUANT_SCORE_TOLERANCE {
            fail(&format!(
                "quantized scores drift {max_abs_err} from f32 oracle \
                 (tolerance {QUANT_SCORE_TOLERANCE})"
            ));
        }
        println!(
            "load_sweep[quant] {probe_rows} probe rows within tolerance: \
             max|dscore| {max_abs_err:.2e} <= {QUANT_SCORE_TOLERANCE}"
        );
        amoe_obs::emit(
            &amoe_obs::Event::new("quant_parity")
                .u64("rows", probe_rows as u64)
                .f64("max_abs_err", f64::from(max_abs_err))
                .f64("tolerance", f64::from(QUANT_SCORE_TOLERANCE)),
        );

        let result = closed_loop(q_addr, &pool, 2, requests, rows_per_req);
        report("quant", 2, rows_per_req, &result);

        probe
            .shutdown()
            .unwrap_or_else(|e| fail(&format!("quantized shutdown: {e}")));
        q_server.join();
    }

    // When telemetry is on, the run log must honour the sink contract
    // and contain well-formed serve_request records.
    if let Ok(path) = std::env::var("AMOE_OBS") {
        amoe_obs::sink::set_sink_path(None); // flush + close
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let records = obs_check::validate_jsonl(&body).unwrap_or_else(|e| fail(&e));
        let mut serve_requests = 0usize;
        let mut quant_parity = 0usize;
        let mut scrape_rows = 0usize;
        for r in &records {
            let checked = match r.kind.as_str() {
                "serve_request" => {
                    serve_requests += 1;
                    obs_check::require_fields(
                        &r.value,
                        "serve_request",
                        &["request_id", "rows", "latency_us", "queue_depth"],
                    )
                }
                "serve_batch" => obs_check::require_fields(
                    &r.value,
                    "serve_batch",
                    &["requests", "rows", "queue_wait_us_max", "queue_depth"],
                ),
                "load_sweep_row" => obs_check::require_fields(
                    &r.value,
                    "load_sweep_row",
                    &[
                        "mode",
                        "clients",
                        "p50_us",
                        "p95_us",
                        "p99_us",
                        "throughput_rps",
                    ],
                ),
                "quant_parity" => {
                    quant_parity += 1;
                    obs_check::require_fields(
                        &r.value,
                        "quant_parity",
                        &["rows", "max_abs_err", "tolerance"],
                    )
                }
                "scrape_row" => {
                    scrape_rows += 1;
                    obs_check::require_fields(
                        &r.value,
                        "scrape_row",
                        &[
                            "scrapes",
                            "scrape_p99_us",
                            "baseline_rps",
                            "scraped_rps",
                            "overhead_frac",
                        ],
                    )
                }
                _ => Ok(()),
            };
            checked.unwrap_or_else(|e| fail(&e));
        }
        if serve_requests == 0 {
            fail(&format!("no serve_request record in {path}"));
        }
        if quant_parity == 0 {
            fail(&format!("no quant_parity record in {path}"));
        }
        if scrape_rows == 0 {
            fail(&format!("no scrape_row record in {path}"));
        }
        println!(
            "load_sweep: OK — {} JSONL records ({} serve_request) validated in {path}",
            records.len(),
            serve_requests,
        );
    } else {
        println!("load_sweep: OK");
    }
}
