//! End-to-end tests for the HTTP observability listener: readiness
//! semantics across a graceful drain, scrape correctness under
//! concurrent admin traffic, exemplar round-trips from `/metrics` to
//! the trace export, and protocol robustness against malformed HTTP.
//!
//! Each test starts its own in-process [`Server`] on an ephemeral
//! loopback port with `obs_addr` enabled, so the tests exercise the
//! real TCP + HTTP stack rather than the parser in isolation.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use amoe_core::ranker::{OptimConfig, Ranker};
use amoe_core::{MoeConfig, MoeModel, TowerConfig};
use amoe_dataset::{generate, Batch, Dataset, GeneratorConfig};
use amoe_obs::json::Value;
use amoe_obs::trace;
use amoe_serve::{http_get, Client, FeatureRow, ServeConfig, Server};

const GET_TIMEOUT: Duration = Duration::from_secs(5);

fn trained_model(d: &Dataset) -> MoeModel {
    let cfg = MoeConfig {
        n_experts: 6,
        top_k: 2,
        tower: TowerConfig {
            hidden: vec![12, 6],
        },
        ..MoeConfig::default()
    };
    let mut model = MoeModel::new(&d.meta, cfg, OptimConfig::default());
    let batch = Batch::from_split(&d.train, &(0..128).collect::<Vec<_>>());
    for _ in 0..5 {
        model.train_step(&batch);
    }
    model
}

fn feature_rows(d: &Dataset, n: usize) -> Vec<FeatureRow> {
    d.test.examples[..n]
        .iter()
        .map(|e| FeatureRow {
            sc: e.pred_sc as u32,
            tc: e.pred_tc as u32,
            brand: e.brand as u32,
            shop: e.shop as u32,
            user_segment: e.user_segment as u32,
            price_bucket: e.price_bucket as u32,
            query: e.query,
            numeric: e.numeric.to_vec(),
        })
        .collect()
}

fn start_server(d: &Dataset, config: ServeConfig) -> Server {
    let config = ServeConfig {
        obs_addr: Some("127.0.0.1:0".into()),
        ..config
    };
    Server::start("127.0.0.1:0", trained_model(d), d.meta.clone(), config).expect("server start")
}

/// `/readyz` must flip to 503 at drain *start* — while the already
/// admitted in-flight request still completes — and `/healthz` must
/// stay 200 until `join()` tears the listener down.
#[test]
fn readyz_flips_at_drain_start_while_inflight_completes() {
    let d = generate(&GeneratorConfig::tiny(41));
    // A throttled batcher keeps the submitted request in flight long
    // enough to observe the draining state around it.
    let server = start_server(
        &d,
        ServeConfig {
            batcher_delay: Some(Duration::from_millis(150)),
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();
    let obs = server.obs_addr().expect("obs listener is configured");

    let rows = feature_rows(&d, 4);
    let mut pipelined = Client::connect(addr).expect("connect");
    let (status, _) = http_get(obs, "/healthz", GET_TIMEOUT).expect("healthz");
    assert_eq!(status, 200);
    let (status, body) = http_get(obs, "/readyz", GET_TIMEOUT).expect("readyz");
    assert_eq!(status, 200);
    assert_eq!(body, "ready\n");

    // Admit one request, then ask for a drain while it is in flight.
    let id = pipelined.submit(&rows).expect("submit");
    let mut admin = Client::connect(addr).expect("admin connect");
    admin.shutdown().expect("shutdown");

    // Readiness flips as soon as the drain flag is up; poll briefly to
    // absorb scheduling between the SHUTDOWN ack and the HTTP read.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, body) = http_get(obs, "/readyz", GET_TIMEOUT).expect("readyz during drain");
        if status == 503 {
            assert_eq!(body, "draining\n");
            break;
        }
        assert!(Instant::now() < deadline, "/readyz never reported draining");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Liveness is not readiness: the process is healthy mid-drain.
    let (status, _) = http_get(obs, "/healthz", GET_TIMEOUT).expect("healthz during drain");
    assert_eq!(status, 200);

    // The admitted request must still be answered by the drain.
    let scores = pipelined.wait(id).expect("in-flight request answered");
    assert_eq!(scores.len(), rows.len());

    server.join();
    // join() stops the listener last; the port must now be closed.
    assert!(
        http_get(obs, "/healthz", Duration::from_millis(500)).is_err(),
        "obs listener still answering after join()"
    );
}

/// Scraping `/metrics` concurrently with a checkpoint hot-swap must
/// never see a malformed page, and the reload itself must succeed.
#[test]
fn concurrent_scrape_during_reload_stays_clean() {
    let d = generate(&GeneratorConfig::tiny(41));
    let server = start_server(&d, ServeConfig::default());
    let addr = server.local_addr();
    let obs = server.obs_addr().expect("obs listener is configured");

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_http");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("reload.amoe");
    trained_model(&d).params().save(&ckpt).expect("save ckpt");

    let scraper = std::thread::spawn(move || {
        let mut pages = 0usize;
        for _ in 0..30 {
            let (status, body) = http_get(obs, "/metrics", GET_TIMEOUT).expect("scrape");
            assert_eq!(status, 200);
            amoe_obs::expose::validate_exposition(&body)
                .unwrap_or_else(|e| panic!("scraped page fails lint: {e}"));
            pages += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        pages
    });

    let rows = feature_rows(&d, 4);
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..5 {
        client.score(&rows).expect("score before reload");
    }
    // The boot model is generation 0 until the first successful swap.
    let (_, page) = http_get(obs, "/metrics", GET_TIMEOUT).expect("metrics before reload");
    assert!(
        page.contains("amoe_model_generation 0"),
        "boot model should expose generation 0"
    );
    client
        .reload(&ckpt.to_string_lossy())
        .expect("reload under scrape");
    for _ in 0..5 {
        client.score(&rows).expect("score after reload");
    }
    // Freshness gauges move on the successful RELOAD: the generation
    // increments and the model age restarts from the swap instant.
    let (_, page) = http_get(obs, "/metrics", GET_TIMEOUT).expect("metrics after reload");
    assert!(
        page.contains("amoe_model_generation 1"),
        "reload did not advance amoe_model_generation"
    );
    assert!(
        page.contains("amoe_model_age_seconds"),
        "missing amoe_model_age_seconds gauge"
    );

    assert_eq!(scraper.join().expect("scraper panicked"), 30);
    assert_eq!(server.stats().reloads, 1);
    client.shutdown().expect("shutdown");
    server.join();
}

/// The `/metrics` page must lint clean, and a windowed-quantile
/// exemplar's trace id must resolve to events in the `/trace` export —
/// the spike-to-trace workflow the exemplars exist for.
#[test]
fn metrics_exemplar_trace_id_round_trips_to_trace_export() {
    const TRACE_ID: u64 = 777_001;
    trace::set_enabled(true);
    trace::set_sample(1);

    let d = generate(&GeneratorConfig::tiny(41));
    let server = start_server(&d, ServeConfig::default());
    let addr = server.local_addr();
    let obs = server.obs_addr().expect("obs listener is configured");

    let rows = feature_rows(&d, 4);
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..3 {
        client.score_traced(&rows, TRACE_ID).expect("traced score");
    }

    let (status, page) = http_get(obs, "/metrics", GET_TIMEOUT).expect("metrics");
    assert_eq!(status, 200);
    let samples = amoe_obs::expose::validate_exposition(&page)
        .unwrap_or_else(|e| panic!("/metrics fails lint: {e}"));
    assert!(samples > 0);
    assert!(page.contains("amoe_build_info{"), "missing build info");
    assert!(
        page.contains("amoe_serve_window_request_latency_seconds_bucket"),
        "missing windowed latency family"
    );
    assert!(
        page.contains("amoe_model_generation"),
        "missing model freshness generation gauge"
    );
    assert!(
        page.contains("amoe_model_age_seconds"),
        "missing model age gauge"
    );
    // Every windowed sample this server saw carried our trace id, so
    // the retained max-value exemplar must too.
    let needle = format!("# {{trace_id=\"{TRACE_ID}\"}}");
    assert!(
        page.contains(&needle),
        "no exemplar with trace id {TRACE_ID} on the page"
    );

    let (status, body) = http_get(obs, "/trace", GET_TIMEOUT).expect("trace");
    assert_eq!(status, 200);
    let doc = amoe_obs::json::parse(&body).expect("trace export parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    let matched = events
        .iter()
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Value::as_f64)
                == Some(TRACE_ID as f64)
        })
        .count();
    assert!(
        matched > 0,
        "exemplar trace id {TRACE_ID} has no events in the /trace export"
    );

    client.shutdown().expect("shutdown");
    server.join();
    trace::set_enabled(false);
}

/// With the `AMOE_OBS` registry on, `/metrics` renders the registry
/// next to the native series without a clash: the page lints clean,
/// the one requests counter is the native received count that `/vars`
/// reports, and the registry adds no second model-generation gauge.
#[test]
fn metrics_with_registry_on_carry_one_series_per_fact() {
    amoe_obs::set_enabled(true);
    let d = generate(&GeneratorConfig::tiny(41));
    let server = start_server(&d, ServeConfig::default());
    let addr = server.local_addr();
    let obs = server.obs_addr().expect("obs listener is configured");

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_http");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("registry_on.amoe");
    trained_model(&d).params().save(&ckpt).expect("save ckpt");
    let rows = feature_rows(&d, 4);
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..3 {
        client.score(&rows).expect("score");
    }
    client.reload(&ckpt.to_string_lossy()).expect("reload");

    let (status, page) = http_get(obs, "/metrics", GET_TIMEOUT).expect("metrics");
    let (_, vars) = http_get(obs, "/vars", GET_TIMEOUT).expect("vars");
    client.shutdown().expect("shutdown");
    server.join();
    amoe_obs::set_enabled(false);

    assert_eq!(status, 200);
    amoe_obs::expose::validate_exposition(&page)
        .unwrap_or_else(|e| panic!("/metrics fails lint: {e}"));
    let requests_total: Vec<&str> = page
        .lines()
        .filter_map(|l| l.strip_prefix("amoe_serve_requests_total "))
        .collect();
    let vars = amoe_obs::json::parse(&vars).expect("/vars parses");
    let received = vars
        .get("requests")
        .and_then(Value::as_f64)
        .expect("/vars requests");
    assert_eq!(requests_total, [received.to_string()]);
    assert!(
        !page.contains("amoe_serve_model_generation"),
        "the registry shadows the native generation gauge"
    );
}

/// Raw-socket robustness: garbage gets 400 then a closed connection,
/// oversized headers get 431, unknown paths 404, non-GET 405 — and
/// none of it disturbs the serving path.
#[test]
fn malformed_http_is_rejected_without_harming_the_server() {
    let d = generate(&GeneratorConfig::tiny(41));
    let server = start_server(&d, ServeConfig::default());
    let addr = server.local_addr();
    let obs = server.obs_addr().expect("obs listener is configured");

    // Binary garbage: one 400, then the server closes the connection.
    {
        let mut s = TcpStream::connect(obs).expect("connect obs");
        s.write_all(b"\x01\x02\x7fnot http at all\r\n\r\n")
            .expect("write garbage");
        let mut reply = String::new();
        s.read_to_string(&mut reply).expect("read until close");
        assert!(reply.starts_with("HTTP/1.1 400 "), "garbage got: {reply:?}");
    }

    // Headers past the cap: 431 without waiting for a terminator.
    {
        let mut s = TcpStream::connect(obs).expect("connect obs");
        // One write holding the whole >8 KiB head (and no terminator),
        // so the server's reply-and-close cannot race a later write
        // into an RST that discards the 431.
        let head = format!("GET /metrics HTTP/1.1\r\nX-Junk: {}\r\n", "a".repeat(9000));
        s.write_all(head.as_bytes()).expect("write oversized head");
        let mut reply = String::new();
        s.read_to_string(&mut reply).expect("read until close");
        assert!(
            reply.starts_with("HTTP/1.1 431 "),
            "oversized head got: {reply:?}"
        );
    }

    let (status, _) = http_get(obs, "/definitely-not-a-route", GET_TIMEOUT).expect("404 route");
    assert_eq!(status, 404);

    // Non-GET methods are rejected and the connection closed.
    {
        let mut s = TcpStream::connect(obs).expect("connect obs");
        s.write_all(b"POST /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("write POST");
        let mut reply = String::new();
        s.read_to_string(&mut reply).expect("read until close");
        assert!(reply.starts_with("HTTP/1.1 405 "), "POST got: {reply:?}");
    }

    // The protocol port is unaffected by the HTTP abuse.
    let rows = feature_rows(&d, 4);
    let mut client = Client::connect(addr).expect("connect");
    let scores = client.score(&rows).expect("score after HTTP abuse");
    assert_eq!(scores.len(), rows.len());
    client.shutdown().expect("shutdown");
    server.join();
}

/// The listener never reads request bodies, so a head that declares one
/// is answered with `Connection: close` and then EOF: the body is never
/// parsed as the next head, so a valid request pipelined behind it gets
/// no 400. The same holds for a bodiless 405.
#[test]
fn request_with_a_body_is_answered_then_the_connection_closes() {
    let d = generate(&GeneratorConfig::tiny(41));
    let server = start_server(&d, ServeConfig::default());
    let obs = server.obs_addr().expect("obs listener is configured");

    for (request, status) in [
        (
            &b"POST /vars HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n"
                [..],
            405,
        ),
        (
            b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n",
            200,
        ),
        (
            b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            200,
        ),
        (
            b"DELETE /vars HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
            405,
        ),
    ] {
        let mut s = TcpStream::connect(obs).expect("connect obs");
        // One write, so the server has read every byte before it closes
        // (unread bytes would turn its close into an RST).
        s.write_all(request).expect("write request");
        let mut reply = String::new();
        s.read_to_string(&mut reply).expect("read until EOF");
        assert!(
            reply.starts_with(&format!("HTTP/1.1 {status} ")),
            "{request:?} got: {reply:?}"
        );
        assert!(
            reply.contains("\r\nConnection: close\r\n"),
            "{request:?} got: {reply:?}"
        );
        assert_eq!(
            reply.matches("HTTP/1.1 ").count(),
            1,
            "the body was parsed as a request: {reply:?}"
        );
    }

    // A bodiless GET still keeps the connection alive for the next one.
    let mut s = TcpStream::connect(obs).expect("connect obs");
    s.write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("write two requests");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read until EOF");
    assert_eq!(reply.matches("HTTP/1.1 200 ").count(), 2, "got: {reply:?}");
    Client::connect(server.local_addr())
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.join();
}
