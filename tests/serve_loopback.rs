//! End-to-end tests of the `amoe-serve` service over loopback TCP:
//! batched scores must be **bit-identical** to direct in-process
//! `ServingMoe::predict` at every pool width, overload must
//! surface as `OVERLOADED`, a hot-swap under load must not fail a
//! single in-flight request, `SHUTDOWN` must drain every admitted
//! request before the server exits, and lying frames or hellos of
//! another protocol version must be refused without disturbing
//! scoring.
//!
//! The tests share one process, and the pool thread-override is a
//! process-wide global, so each test sets it explicitly where it
//! matters and restores the default before returning.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adv_hsc_moe::dataset::{generate, Batch, Dataset, GeneratorConfig};
use adv_hsc_moe::moe::config::TowerConfig;
use adv_hsc_moe::moe::ranker::{OptimConfig, Ranker};
use adv_hsc_moe::moe::serving::ServingMoe;
use adv_hsc_moe::moe::{MoeConfig, MoeModel};
use adv_hsc_moe::online::daemon::feature_row;
use adv_hsc_moe::serve::protocol::{self, Request, Response};
use adv_hsc_moe::serve::{
    Client, FeatureRow, ModelSpec, OverloadPolicy, ServeConfig, ServeError, Server,
};
use adv_hsc_moe::tensor::pool;

fn trained_model(seed: u64, steps: usize) -> (Dataset, MoeModel) {
    let d = generate(&GeneratorConfig::tiny(41));
    let cfg = MoeConfig {
        n_experts: 6,
        top_k: 2,
        tower: TowerConfig {
            hidden: vec![12, 6],
        },
        seed,
        ..MoeConfig::default()
    };
    let mut m = MoeModel::new(&d.meta, cfg, OptimConfig::default());
    let batch = Batch::from_split(&d.train, &(0..128).collect::<Vec<_>>());
    for _ in 0..steps {
        m.train_step(&batch);
    }
    (d, m)
}

fn feature_rows(d: &Dataset, range: std::ops::Range<usize>) -> Vec<FeatureRow> {
    d.test.examples[range].iter().map(feature_row).collect()
}

/// Batched serving over TCP returns exactly the scores the model
/// produces in-process — bitwise, for every pool width, even though
/// concurrent requests are coalesced into shared micro-batches.
#[test]
fn scores_over_tcp_are_bit_identical_to_direct_predict() {
    // Mixed-size concurrent requests, one expected score vector each.
    let spans: Vec<std::ops::Range<usize>> = vec![0..3, 3..4, 4..11, 11..16, 16..17, 17..25];

    for threads in [1usize, 2, 4] {
        pool::set_threads(threads);
        let (d, model) = trained_model(900, 8);
        let expected: Vec<Vec<f32>> = spans
            .iter()
            .map(|s| {
                let batch = Batch::from_split(&d.test, &s.clone().collect::<Vec<_>>());
                ServingMoe::new(&model).predict(&batch)
            })
            .collect();
        let server = Server::start(
            "127.0.0.1:0",
            model,
            d.meta.clone(),
            ServeConfig {
                // Hold each batch so the requests that arrive meanwhile
                // queue up and coalesce into the next one.
                batcher_delay: Some(Duration::from_millis(50)),
                ..ServeConfig::default()
            },
        )
        .expect("server start");
        let addr = server.local_addr();

        let handles: Vec<_> = spans
            .iter()
            .cloned()
            .map(|span| {
                let rows = feature_rows(&d, span);
                std::thread::spawn(move || {
                    Client::connect(addr)
                        .expect("connect")
                        .score(&rows)
                        .expect("score")
                })
            })
            .collect();
        let got: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                g, e,
                "threads={threads}: request {i} scores differ from direct predict"
            );
        }
        let stats = server.stats();
        assert_eq!(stats.ok, spans.len() as u64, "threads={threads}");
        assert_eq!(stats.errors, 0, "threads={threads}");
        assert!(
            stats.batches < spans.len() as u64,
            "threads={threads}: {} requests ran in {} batches, none coalesced",
            spans.len(),
            stats.batches
        );
        let mut admin = Client::connect(addr).expect("admin connect");
        admin.shutdown().expect("shutdown");
        server.join();
    }
    pool::clear_threads_override();
}

/// A full queue with a throttled batcher rejects with `OVERLOADED`
/// (and counts it) instead of erroring or hanging.
#[test]
fn full_queue_returns_overloaded() {
    let (d, model) = trained_model(901, 2);
    let server = Server::start(
        "127.0.0.1:0",
        model,
        d.meta.clone(),
        ServeConfig {
            queue_cap: 2,
            max_batch_rows: 2,
            overload: OverloadPolicy::Reject,
            batcher_delay: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr();

    let overloaded = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let rows = feature_rows(&d, i..i + 1);
            let overloaded = Arc::clone(&overloaded);
            std::thread::spawn(
                move || match Client::connect(addr).expect("connect").score(&rows) {
                    Ok(scores) => assert_eq!(scores.len(), 1),
                    Err(ServeError::Overloaded) => {
                        overloaded.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                },
            )
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        overloaded.load(Ordering::Relaxed) > 0,
        "8 concurrent requests against a queue of 2 should shed load"
    );
    let stats = server.stats();
    assert_eq!(
        stats.overloaded,
        overloaded.load(Ordering::Relaxed) as u64,
        "server-side overload count disagrees with clients"
    );
    let mut admin = Client::connect(addr).expect("admin connect");
    admin.shutdown().expect("shutdown");
    server.join();
}

/// `SHUTDOWN` drains: requests admitted before the shutdown arrives
/// are all answered with real scores, never dropped.
#[test]
fn shutdown_drains_admitted_requests() {
    let (d, model) = trained_model(902, 2);
    let server = Server::start(
        "127.0.0.1:0",
        model,
        d.meta.clone(),
        ServeConfig {
            queue_cap: 64,
            // Slow batches so the queue still holds requests when the
            // shutdown lands.
            batcher_delay: Some(Duration::from_millis(20)),
            max_batch_rows: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr();

    let answered = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..10)
        .map(|i| {
            let rows = feature_rows(&d, i..i + 1);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let scores = Client::connect(addr)
                    .expect("connect")
                    .score(&rows)
                    .expect("admitted request must be answered during drain");
                assert_eq!(scores.len(), 1);
                answered.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    // Wait until all 10 requests have reached the server (the slow
    // batcher guarantees a backlog remains), then shut down mid-drain.
    while server.stats().requests < 10 {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(5));
    let mut admin = Client::connect(addr).expect("admin connect");
    admin.shutdown().expect("shutdown");
    for h in handles {
        h.join().unwrap();
    }
    server.join();
    assert_eq!(answered.load(Ordering::Relaxed), 10);
}

/// RELOAD under load: every response is bitwise one of {old-model
/// scores, new-model scores}, nothing fails, and the swap is counted.
#[test]
fn reload_hot_swaps_without_failing_requests() {
    let (d, model_a) = trained_model(903, 4);
    let (_, model_b) = trained_model(904, 9);
    let dir = std::env::temp_dir().join(format!("amoe_serve_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("model_b.amoe");
    model_b.params().save(&ckpt).expect("save checkpoint");
    ModelSpec {
        meta: d.meta.clone(),
        config: model_b.config().clone(),
        serve_quantized: false,
    }
    .save(dir.join("model_b.spec"))
    .expect("save spec");

    let span = 0..6;
    let batch = Batch::from_split(&d.test, &span.clone().collect::<Vec<_>>());
    let scores_a = ServingMoe::new(&model_a).predict(&batch);
    let scores_b = ServingMoe::new(&model_b).predict(&batch);
    assert_ne!(scores_a, scores_b, "models must actually differ");

    let server = Server::start(
        "127.0.0.1:0",
        model_a,
        d.meta.clone(),
        ServeConfig::default(),
    )
    .expect("server start");
    let addr = server.local_addr();

    let rows = feature_rows(&d, span);
    let saw_b = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let rows = rows.clone();
            let (scores_a, scores_b) = (scores_a.clone(), scores_b.clone());
            let saw_b = Arc::clone(&saw_b);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..40 {
                    let got = client.score(&rows).expect("score during reload");
                    if got == scores_b {
                        saw_b.fetch_add(1, Ordering::Relaxed);
                    } else {
                        assert_eq!(got, scores_a, "response matches neither model");
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    let mut admin = Client::connect(addr).expect("admin connect");
    admin
        .reload(ckpt.to_str().expect("utf-8 path"))
        .expect("reload");
    for w in workers {
        w.join().unwrap();
    }
    // After the swap acknowledgement, fresh requests use the new model.
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.score(&rows).expect("score"), scores_b);
    let stats = server.stats();
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.errors, 0);
    admin.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bad RELOAD (missing file, incompatible checkpoint) keeps the old
/// model serving and reports an error.
#[test]
fn failed_reload_keeps_serving_old_model() {
    let (d, model) = trained_model(905, 3);
    let rows = feature_rows(&d, 0..4);
    let batch = Batch::from_split(&d.test, &(0..4).collect::<Vec<_>>());
    let expected = ServingMoe::new(&model).predict(&batch);

    let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
        .expect("server start");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    match client.reload("/nonexistent/amoe_serve_missing.amoe") {
        Err(ServeError::Server(msg)) => {
            assert!(msg.contains("checkpoint load failed"), "message: {msg}")
        }
        other => panic!("expected server error, got {other:?}"),
    }
    assert_eq!(client.score(&rows).expect("score"), expected);
    assert_eq!(server.stats().reloads, 0);
    client.shutdown().expect("shutdown");
    server.join();
}

/// A held batcher coalesces every request queued behind the batch it
/// is computing, up to `max_batch_rows` and no further: the request
/// that would overflow the budget opens the next batch.
#[test]
fn held_batcher_coalesces_what_is_queued_up_to_the_row_budget() {
    let (d, model) = trained_model(914, 2);
    // A 5-row request, then five 2-row requests.
    let spans: Vec<std::ops::Range<usize>> = vec![0..5, 5..7, 7..9, 9..11, 11..13, 13..15];
    let expected: Vec<Vec<f32>> = spans
        .iter()
        .map(|s| {
            let batch = Batch::from_split(&d.test, &s.clone().collect::<Vec<_>>());
            ServingMoe::new(&model).predict(&batch)
        })
        .collect();
    let server = Server::start(
        "127.0.0.1:0",
        model,
        d.meta.clone(),
        ServeConfig {
            max_batch_rows: 5,
            batcher_delay: Some(Duration::from_millis(200)),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    // The 5-row request fills the budget, so it runs alone and holds
    // the batcher while the rest queue behind it.
    for span in &spans {
        client
            .submit(&feature_rows(&d, span.clone()))
            .expect("submit");
    }
    for _ in &spans {
        let done = client.poll().expect("poll");
        let scores = done.result.expect("score");
        assert_eq!(scores, expected[done.request_id as usize - 1]);
    }
    // Two 2-row requests fit the 5-row budget, a third would not:
    // [1] [2, 3] [4, 5] [6].
    let stats = server.stats();
    assert_eq!((stats.ok, stats.batches), (6, 4));
    client.shutdown().expect("shutdown");
    server.join();
}

/// One pipelined connection completes out of submission order: a
/// request rejected at admission is answered straight from the reader,
/// so its `SCORE_ERROR` overtakes earlier requests still queued behind
/// a held batcher — and every good completion still carries the right
/// scores.
#[test]
fn pipelined_connection_completes_out_of_order() {
    let (d, model) = trained_model(911, 2);
    const GOOD: usize = 4;
    let expected: Vec<Vec<f32>> = (0..GOOD)
        .map(|i| {
            let batch = Batch::from_split(&d.test, &[i]);
            ServingMoe::new(&model).predict(&batch)
        })
        .collect();
    let server = Server::start(
        "127.0.0.1:0",
        model,
        d.meta.clone(),
        ServeConfig {
            // One request per batch, each held for the delay: the last
            // good request completes about GOOD delays after submission.
            max_batch_rows: 1,
            queue_cap: 64,
            batcher_delay: Some(Duration::from_millis(40)),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut ids: Vec<u64> = (0..GOOD)
        .map(|i| {
            client
                .submit(&feature_rows(&d, i..i + 1))
                .expect("pipelined submit")
        })
        .collect();
    let mut bad = feature_rows(&d, GOOD..GOOD + 1);
    bad[0].query = u32::MAX;
    let bad_id = client.submit(&bad).expect("pipelined submit");
    ids.push(bad_id);
    assert_eq!(ids, (1..=GOOD as u64 + 1).collect::<Vec<_>>());
    assert_eq!(client.in_flight(), GOOD + 1);

    let mut order = Vec::new();
    for _ in 0..=GOOD {
        let done = client.poll().expect("poll");
        if done.request_id == bad_id {
            match done.result {
                Err(ServeError::Server(msg)) => assert!(msg.contains("query"), "message: {msg}"),
                other => panic!("bad request: expected a score error, got {other:?}"),
            }
        } else {
            let scores = done.result.expect("pipelined score");
            assert_eq!(
                scores,
                expected[done.request_id as usize - 1],
                "request {} scored wrong",
                done.request_id
            );
        }
        order.push(done.request_id);
    }
    assert_eq!(client.in_flight(), 0);
    // The rejection needs no batch, so it lands before the good
    // requests submitted ahead of it have all been computed.
    assert_ne!(
        order.last(),
        Some(&bad_id),
        "the admission error should overtake earlier queued requests: completion order {order:?}"
    );
    client.shutdown().expect("shutdown");
    server.join();
}

/// Every gate-input ablation is servable (PR 8 lifted the old
/// `GateInput::Sc`-only restriction): the server starts, and TCP
/// scores stay bit-identical to direct predicts for each variant.
#[test]
fn non_sc_gate_inputs_are_servable_bit_identical() {
    use adv_hsc_moe::moe::config::GateInput;
    for which in [GateInput::TcSc, GateInput::QueryTcSc, GateInput::All] {
        let d = generate(&GeneratorConfig::tiny(41));
        let cfg = MoeConfig {
            n_experts: 4,
            top_k: 2,
            tower: TowerConfig { hidden: vec![8] },
            gate_input: which,
            seed: 913,
            ..MoeConfig::default()
        };
        let mut model = MoeModel::new(&d.meta, cfg, OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..128).collect::<Vec<_>>());
        for _ in 0..2 {
            model.train_step(&batch);
        }
        let probe = Batch::from_split(&d.test, &(0..9).collect::<Vec<_>>());
        let expected = ServingMoe::new(&model).predict(&probe);

        let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
            .unwrap_or_else(|e| panic!("{which:?}: server start: {e}"));
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let got = client
            .score(&feature_rows(&d, 0..9))
            .unwrap_or_else(|e| panic!("{which:?}: score: {e}"));
        assert_eq!(
            got, expected,
            "{which:?}: TCP scores differ from direct predict"
        );
        client.shutdown().expect("shutdown");
        server.join();
    }
}

/// Schema violations (out-of-vocabulary ids) are rejected per request
/// with a message naming the field, and the connection stays usable.
#[test]
fn out_of_vocab_request_is_rejected_not_fatal() {
    let (d, model) = trained_model(906, 2);
    let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
        .expect("server start");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    let mut bad = feature_rows(&d, 0..1);
    bad[0].shop = u32::MAX;
    match client.score(&bad) {
        Err(ServeError::Server(msg)) => assert!(msg.contains("shop"), "message: {msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Same connection still serves valid requests afterwards.
    let good = feature_rows(&d, 0..2);
    assert_eq!(client.score(&good).expect("score").len(), 2);
    client.shutdown().expect("shutdown");
    server.join();
}

/// Opens a raw connection (10 s read timeout, so a regression fails
/// instead of hanging) and sends a hello offering `version`; the server
/// must answer with its own.
fn raw_hello(addr: std::net::SocketAddr, version: u32) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    protocol::write_hello(&mut s, version).expect("hello");
    assert_eq!(
        protocol::read_hello(&mut s).expect("server hello"),
        protocol::VERSION,
        "v{version}: the server answers with its own version"
    );
    s
}

/// A `SCORE` header whose row count times row width wraps to zero in
/// 64-bit arithmetic (2^31 rows of 7 + (2^31 − 7) values, no body) is
/// answered with `ERROR` instead of a 120 GB allocation, and the same
/// connection goes on scoring bit-identically. Both the 17-byte frame
/// (no trace id) and the current 25-byte layout are sent.
#[test]
fn wrapping_score_counts_get_an_error_and_the_server_keeps_scoring() {
    let (d, model) = trained_model(907, 2);
    let batch = Batch::from_split(&d.test, &(0..3).collect::<Vec<_>>());
    let expected = ServingMoe::new(&model).predict(&batch);
    let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
        .expect("server start");
    let addr = server.local_addr();
    let mut s = raw_hello(addr, protocol::VERSION);

    for with_trace_id in [false, true] {
        let mut frame = vec![protocol::TAG_SCORE];
        frame.extend_from_slice(&1u64.to_le_bytes());
        if with_trace_id {
            frame.extend_from_slice(&0u64.to_le_bytes());
        }
        frame.extend_from_slice(&(1u32 << 31).to_le_bytes());
        frame.extend_from_slice(&((1u32 << 31) - 7).to_le_bytes());
        assert_eq!(frame.len(), if with_trace_id { 25 } else { 17 });
        protocol::write_frame(&mut s, &frame).expect("write lying frame");
        let reply = protocol::read_frame(&mut s).expect("the server must answer, not crash");
        match Response::decode(&reply).expect("decode reply") {
            Response::Error { message } => {
                assert!(message.contains("malformed request"), "message: {message}")
            }
            other => panic!("expected ERROR, got {other:?}"),
        }
    }

    let score = Request::Score {
        request_id: 9,
        trace_id: 0,
        rows: feature_rows(&d, 0..3),
    };
    protocol::write_frame(&mut s, &score.encode()).expect("write score");
    let reply = protocol::read_frame(&mut s).expect("scores");
    assert_eq!(
        Response::decode(&reply).expect("decode scores"),
        Response::Scores {
            request_id: 9,
            scores: expected.clone(),
        }
    );
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(
        client.score(&feature_rows(&d, 0..3)).expect("score"),
        expected
    );
    assert_eq!(server.stats().errors, 2);
    client.shutdown().expect("shutdown");
    server.join();
}

/// Asserts the server closed `s` without sending anything more.
fn assert_closed(s: &mut TcpStream, what: &str) {
    let mut rest = Vec::new();
    match s.read_to_end(&mut rest) {
        Ok(_) => {}
        // A reset is a close too; a timeout means the server left the
        // refused connection open.
        Err(e) => assert!(
            !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{what}: connection still open: {e}"
        ),
    }
    assert!(rest.is_empty(), "{what}: {} unexpected bytes", rest.len());
}

/// There is one protocol version. Hellos from older protocol versions
/// (1–3) and from an unknown one get the server's own hello back and a
/// closed connection; a hello with the wrong magic gets no reply at
/// all. None of it disturbs the server, which keeps scoring a client
/// of this version bit-identically.
#[test]
fn old_and_foreign_hellos_are_refused() {
    let (d, model) = trained_model(908, 2);
    let batch = Batch::from_split(&d.test, &(0..5).collect::<Vec<_>>());
    let expected = ServingMoe::new(&model).predict(&batch);
    let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
        .expect("server start");
    let addr = server.local_addr();

    for version in [1, 2, 3, u32::MAX] {
        assert_closed(&mut raw_hello(addr, version), &format!("v{version}"));
    }
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    s.write_all(b"HTTP\x04\0\0\0").expect("foreign hello");
    assert_closed(&mut s, "wrong magic");

    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(
        client.score(&feature_rows(&d, 0..5)).expect("score"),
        expected
    );
    let stats = server.stats();
    assert_eq!((stats.requests, stats.ok, stats.errors), (1, 1, 0));
    client.shutdown().expect("shutdown");
    server.join();
}
