//! The load the workloads put on the server: a seeded open-loop
//! trickle, a saturating closed loop, and refit-loop steps, plus the
//! probe check that holds the server's scores to the in-process model.

use std::collections::HashMap;
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::time::{Duration, Instant};

use amoe_dataset::DatasetMeta;
use amoe_online::OnlineLoop;
use amoe_serve::protocol::{self, Request, Response};
use amoe_serve::Client;

use crate::inputs::{self, Session};
use crate::stats::us;
use crate::trace::{Span, Tracer};

/// Open-loop arrival rate of the trickle, sessions per second.
pub const TRICKLE_RATE: f64 = 200.0;
/// Closed-loop shape of the saturating workload: connections, and
/// sessions each keeps in flight.
pub const BURST_CONNECTIONS: usize = 2;
pub const BURST_DEPTH: usize = 16;
/// A reply slower than this counts as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Thread numbers in the trace.
const TID_MAIN: u32 = 0;
const TID_SENDER: u32 = 1;
const TID_RECEIVER: u32 = 2;
const TID_CONN0: u32 = 10;

/// Requests attempted and failed (error, `OVERLOADED`, missing reply or
/// wrong score), with the first few reasons.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, n: u64, reason: impl Into<String>) {
        self.failed += n;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// How a reply's scores are checked.
#[derive(Clone, Copy)]
pub enum Check<'a> {
    /// Bit for bit against precomputed scores, one vector per session.
    Exact(&'a [Vec<f32>]),
    /// One finite probability per row (the served generation changes
    /// under the request stream; probes check those bits instead).
    Plausible,
}

impl Check<'_> {
    fn verify(self, session: usize, rows: usize, scores: &[f32]) -> Result<(), String> {
        match self {
            Check::Exact(expected) => {
                let want = &expected[session];
                let same = want.len() == scores.len()
                    && want
                        .iter()
                        .zip(scores)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if same {
                    Ok(())
                } else {
                    Err(format!(
                        "session {session}: scores differ from ServingMoe::predict"
                    ))
                }
            }
            Check::Plausible => {
                if scores.len() == rows && scores.iter().all(|s| (0.0..=1.0).contains(s)) {
                    Ok(())
                } else {
                    Err(format!(
                        "session {session}: {} implausible scores",
                        scores.len()
                    ))
                }
            }
        }
    }
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Phase {
    /// Client-observed latency per answered request, µs.
    pub latency_us: Vec<f64>,
    /// When each of those requests was due (open loop) or submitted.
    pub sent_at: Vec<Instant>,
    /// Open loop: how late each send left versus its due time. Closed
    /// loop: the gap from a reply to the submit that replaces it. µs.
    pub late_us: Vec<f64>,
    /// Rows answered inside the measured interval.
    pub rows: u64,
    /// Length of the measured interval, s.
    pub seconds: f64,
    pub tally: Tally,
    /// Refit-loop steps run during the phase (drift workload only).
    pub refits: RefitLog,
}

fn per_request(mut s: Span) -> Span {
    s.per_request = true;
    s
}

/// The trickle's seeded arrival schedule: a Poisson process at
/// [`TRICKLE_RATE`] over `duration`, conditioned on its expected count
/// (that many uniform arrival times, sorted) so every seed offers the
/// same number of sessions; each names a session drawn uniformly.
pub fn schedule(seed: u64, n_sessions: usize, duration: Duration) -> Vec<(Duration, usize)> {
    let mut rng = inputs::rng(seed, inputs::stream::SCHEDULE);
    let n = (TRICKLE_RATE * duration.as_secs_f64()).round() as usize;
    let mut at: Vec<f64> = (0..n)
        .map(|_| rng.uniform() * duration.as_secs_f64())
        .collect();
    at.sort_by(f64::total_cmp);
    at.into_iter()
        .map(|t| (Duration::from_secs_f64(t), rng.below(n_sessions)))
        .collect()
}

enum Msg {
    Sent {
        id: u64,
        due: Instant,
        session: usize,
        span: u64,
    },
    Done,
}

#[derive(Default)]
struct Received {
    latency_us: Vec<f64>,
    sent_at: Vec<Instant>,
    rows: u64,
    tally: Tally,
    spans: Vec<Span>,
}

fn connect_raw(addr: &str) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    protocol::write_hello(&mut stream, protocol::VERSION).map_err(|e| e.to_string())?;
    let offered = protocol::read_hello(&mut stream).map_err(|e| e.to_string())?;
    let version = protocol::negotiate(offered).map_err(|e| e.to_string())?;
    if version < 3 {
        return Err(format!(
            "server speaks protocol v{version}; pipelining needs v3"
        ));
    }
    Ok(stream)
}

/// Open loop on one connection: sends each session when it is due,
/// whatever is still in flight, and times it from its due time. The
/// `Client` cannot be read from a second thread, so the sender does
/// what `Client::submit` does (encode a `SCORE`, write the frame) and a
/// reader thread collects the replies.
pub fn open_loop(
    addr: &str,
    sessions: &[Session],
    check: Check<'_>,
    schedule: &[(Duration, usize)],
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let mut stream = connect_raw(addr)?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel();
    let origin = Instant::now() + Duration::from_millis(5);
    let mut phase = Phase::default();
    let mut spans = Vec::new();
    let received = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(reader, rx, sessions, check, tracer));
        for (i, &(offset, session)) in schedule.iter().enumerate() {
            let id = i as u64 + 1;
            let due = origin + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let span = tracer.map_or(0, Tracer::new_id);
            phase.tally.attempted += 1;
            // Announced before the write, so the reply can never beat it.
            if tx
                .send(Msg::Sent {
                    id,
                    due,
                    session,
                    span,
                })
                .is_err()
            {
                phase.tally.fail(1, "reply reader stopped early");
                break;
            }
            let t0 = Instant::now();
            let request = Request::Score {
                request_id: id,
                trace_id: 0,
                rows: sessions[session].rows.clone(),
            };
            let sent = protocol::write_frame(&mut stream, &request.encode());
            let t1 = Instant::now();
            if let Err(e) = sent {
                // The reader counts the announced request as missing.
                phase.tally.reasons.push(format!("send failed: {e}"));
                break;
            }
            phase.late_us.push(us(t0.saturating_duration_since(due)));
            if let Some(t) = tracer {
                spans.push(per_request(t.span(
                    0,
                    span,
                    "loadgen.late",
                    id,
                    TID_SENDER,
                    due,
                    t0,
                )));
                spans.push(per_request(t.span(
                    0,
                    span,
                    "client.submit",
                    id,
                    TID_SENDER,
                    t0,
                    t1,
                )));
            }
        }
        let _ = tx.send(Msg::Done);
        receiver.join().expect("reply reader panicked")
    });
    phase.latency_us = received.latency_us;
    phase.sent_at = received.sent_at;
    phase.rows = received.rows;
    phase.tally.merge(received.tally);
    if let Some(t) = tracer {
        t.extend(spans);
        t.extend(received.spans);
    }
    Ok(phase)
}

fn receive(
    mut reader: TcpStream,
    rx: Receiver<Msg>,
    sessions: &[Session],
    check: Check<'_>,
    tracer: Option<&Tracer>,
) -> Received {
    let mut out = Received::default();
    let mut pending: HashMap<u64, (Instant, usize, u64)> = HashMap::new();
    let (mut sent, mut answered, mut done) = (0u64, 0u64, false);
    let absorb = |m: Msg, pending: &mut HashMap<_, _>, sent: &mut u64, done: &mut bool| match m {
        Msg::Sent {
            id,
            due,
            session,
            span,
        } => {
            pending.insert(id, (due, session, span));
            *sent += 1;
        }
        Msg::Done => *done = true,
    };
    loop {
        loop {
            match rx.try_recv() {
                Ok(m) => absorb(m, &mut pending, &mut sent, &mut done),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    done = true;
                    break;
                }
            }
        }
        if answered == sent {
            if done {
                break;
            }
            // Nothing in flight: wait for the sender, not the socket.
            match rx.recv() {
                Ok(m) => absorb(m, &mut pending, &mut sent, &mut done),
                Err(_) => done = true,
            }
            continue;
        }
        let frame = match protocol::read_frame(&mut reader) {
            Ok(f) => f,
            Err(e) => {
                out.tally.fail(
                    sent - answered,
                    format!("{} replies missing: {e}", sent - answered),
                );
                break;
            }
        };
        let at = Instant::now();
        let (request_id, result) = match Response::decode(&frame) {
            Ok(Response::Scores { request_id, scores }) => (request_id, Ok(scores)),
            Ok(Response::ScoreError {
                request_id,
                overloaded,
                message,
            }) => (
                request_id,
                Err(if overloaded {
                    "OVERLOADED".to_string()
                } else {
                    message
                }),
            ),
            Ok(other) => {
                out.tally
                    .fail(sent - answered, format!("unexpected reply {other:?}"));
                break;
            }
            Err(e) => {
                out.tally
                    .fail(sent - answered, format!("undecodable reply: {e}"));
                break;
            }
        };
        while !pending.contains_key(&request_id) && !done {
            match rx.recv() {
                Ok(m) => absorb(m, &mut pending, &mut sent, &mut done),
                Err(_) => done = true,
            }
        }
        let Some((due, session, span)) = pending.remove(&request_id) else {
            out.tally
                .fail(0, format!("reply for unknown request {request_id}"));
            continue;
        };
        answered += 1;
        match result.and_then(|scores| {
            check.verify(session, sessions[session].rows.len(), &scores)?;
            Ok(scores.len())
        }) {
            Ok(rows) => {
                out.rows += rows as u64;
                out.latency_us.push(us(at - due));
                out.sent_at.push(due);
            }
            Err(e) => out.tally.fail(1, e),
        }
        if let Some(t) = tracer {
            out.spans.push(per_request(t.span(
                span,
                0,
                "request",
                request_id,
                TID_RECEIVER,
                due,
                at,
            )));
        }
    }
    out
}

/// Closed loop: `connections` clients, each keeping `depth` sessions in
/// flight with `Client::submit`/`poll` until `duration` has passed.
pub fn closed_loop(
    addr: &str,
    sessions: &[Session],
    check: Check<'_>,
    seed: u64,
    duration: Duration,
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let start = Instant::now();
    let end = start + duration;
    let parts: Vec<Result<Phase, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..BURST_CONNECTIONS)
            .map(|c| s.spawn(move || connection(addr, c, sessions, check, seed, end, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for part in parts {
        let part = part?;
        phase.latency_us.extend(part.latency_us);
        phase.sent_at.extend(part.sent_at);
        phase.late_us.extend(part.late_us);
        phase.rows += part.rows;
        phase.tally.merge(part.tally);
    }
    Ok(phase)
}

fn connection(
    addr: &str,
    c: usize,
    sessions: &[Session],
    check: Check<'_>,
    seed: u64,
    end: Instant,
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rng = inputs::rng(seed, inputs::stream::BURST).fork(c as u64);
    let tid = TID_CONN0 + c as u32;
    let mut out = Phase::default();
    let mut spans = Vec::new();
    let mut inflight: HashMap<u64, (Instant, usize, u64)> = HashMap::new();
    let mut submit = |client: &mut Client,
                      out: &mut Phase,
                      spans: &mut Vec<Span>,
                      inflight: &mut HashMap<u64, (Instant, usize, u64)>,
                      freed: Option<Instant>| {
        let session = rng.below(sessions.len());
        let span = tracer.map_or(0, Tracer::new_id);
        out.tally.attempted += 1;
        let t0 = Instant::now();
        match client.submit(&sessions[session].rows) {
            Ok(id) => {
                let t1 = Instant::now();
                inflight.insert(id, (t0, session, span));
                if let Some(f) = freed {
                    out.late_us.push(us(t0 - f));
                }
                if let Some(t) = tracer {
                    if let Some(f) = freed {
                        spans.push(per_request(t.span(0, span, "loadgen.late", id, tid, f, t0)));
                    }
                    spans.push(per_request(t.span(
                        0,
                        span,
                        "client.submit",
                        id,
                        tid,
                        t0,
                        t1,
                    )));
                }
            }
            Err(e) => out.tally.fail(1, format!("submit: {e}")),
        }
    };
    for _ in 0..BURST_DEPTH {
        submit(&mut client, &mut out, &mut spans, &mut inflight, None);
    }
    while !inflight.is_empty() {
        let done = match client.poll() {
            Ok(d) => d,
            Err(e) => {
                let n = inflight.len() as u64;
                out.tally.fail(n, format!("{n} replies missing: {e}"));
                break;
            }
        };
        let at = Instant::now();
        let Some((t0, session, span)) = inflight.remove(&done.request_id) else {
            out.tally.fail(
                0,
                format!("completion for unknown request {}", done.request_id),
            );
            continue;
        };
        let verdict = done.result.map_err(|e| e.to_string()).and_then(|scores| {
            check.verify(session, sessions[session].rows.len(), &scores)?;
            Ok(scores.len())
        });
        match verdict {
            Ok(rows) => {
                out.latency_us.push(us(at - t0));
                out.sent_at.push(t0);
                if at <= end {
                    out.rows += rows as u64;
                }
            }
            Err(e) => out.tally.fail(1, e),
        }
        if let Some(t) = tracer {
            spans.push(per_request(t.span(
                span,
                0,
                "request",
                done.request_id,
                tid,
                t0,
                at,
            )));
        }
        if at < end {
            submit(&mut client, &mut out, &mut spans, &mut inflight, Some(at));
        }
    }
    if let Some(t) = tracer {
        t.extend(spans);
    }
    Ok(out)
}

/// Scores the fixed probe set through the server and compares every
/// bit with `ServingMoe::predict` in this process.
pub struct Prober<'a> {
    client: Client,
    sessions: &'a [Session],
    probes: Vec<usize>,
    meta: DatasetMeta,
    seed: u64,
}

impl<'a> Prober<'a> {
    pub fn connect(
        addr: &str,
        sessions: &'a [Session],
        meta: DatasetMeta,
        seed: u64,
    ) -> Result<Self, String> {
        Ok(Prober {
            client: Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            sessions,
            probes: inputs::probes(sessions.len(), seed),
            meta,
            seed,
        })
    }

    /// Checks the server against a checkpoint loaded here.
    pub fn check(&mut self, ckpt: &Path, tally: &mut Tally) -> Result<(), String> {
        let model = inputs::load(&self.meta, self.seed, ckpt)?;
        let expected = inputs::expected(&model, self.sessions, &self.probes);
        for (want, &i) in expected.iter().zip(&self.probes) {
            tally.attempted += 1;
            match self.client.score(&self.sessions[i].rows) {
                Ok(got)
                    if got
                        .iter()
                        .map(|s| s.to_bits())
                        .eq(want.iter().map(|s| s.to_bits())) => {}
                Ok(_) => tally.fail(
                    1,
                    format!("probe session {i} differs from ServingMoe::predict"),
                ),
                Err(e) => tally.fail(1, format!("probe session {i}: {e}")),
            }
        }
        Ok(())
    }
}

/// What the refit loop did.
#[derive(Default)]
pub struct RefitLog {
    /// Wall time of each refitting `OnlineLoop::step`, ms.
    pub refit_step_ms: Vec<f64>,
    /// Wall time of each step without a refit, ms.
    pub tick_ms: Vec<f64>,
    /// `RefitReport::fit_ms` of each refit.
    pub fit_ms: Vec<f64>,
    /// `RefitReport::reload_us` of each refit, ms.
    pub reload_ms: Vec<f64>,
    /// Window examples × epochs fitted per second, per refit.
    pub examples_per_s: Vec<f64>,
}

/// One `OnlineLoop::step`; after a refit, the probe set is checked
/// against the generation just exported.
pub fn step(
    lp: &mut OnlineLoop,
    prober: &mut Prober<'_>,
    log: &mut RefitLog,
    tally: &mut Tally,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let report = lp.step();
    let t1 = Instant::now();
    let report = report.inspect_err(|e| tally.fail(1, e.clone()))?;
    if let Some(t) = tracer {
        t.push(t.span(0, 0, "online.step", report.tick, TID_MAIN, t0, t1));
    }
    let Some(refit) = report.refit else {
        log.tick_ms.push((t1 - t0).as_secs_f64() * 1e3);
        return Ok(());
    };
    tally.attempted += 1;
    log.refit_step_ms.push((t1 - t0).as_secs_f64() * 1e3);
    log.fit_ms.push(refit.fit_ms);
    log.reload_ms
        .push(refit.reload_us.ok_or("refit ran without a server")? as f64 / 1e3);
    log.examples_per_s
        .push((refit.window_examples * inputs::REFIT_EPOCHS) as f64 / (refit.fit_ms / 1e3));
    let t2 = Instant::now();
    prober.check(&refit.export_path, tally)?;
    if let Some(t) = tracer {
        t.push(t.span(
            0,
            0,
            "probe.check",
            report.tick,
            TID_MAIN,
            t2,
            Instant::now(),
        ));
    }
    Ok(())
}

/// The drift workload's phase: refit-loop steps for `duration` while
/// the trickle schedule runs on its own connection.
pub fn drift(
    addr: &str,
    sessions: &[Session],
    schedule: &[(Duration, usize)],
    lp: &mut OnlineLoop,
    prober: &mut Prober<'_>,
    duration: Duration,
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let end = Instant::now() + duration;
    let mut log = RefitLog::default();
    let mut tally = Tally::default();
    let (steps, trickle) = std::thread::scope(|s| {
        let trickle = s.spawn(|| open_loop(addr, sessions, Check::Plausible, schedule, tracer));
        let mut steps = Ok(());
        while Instant::now() < end {
            steps = step(lp, prober, &mut log, &mut tally, tracer);
            if steps.is_err() {
                break;
            }
        }
        (steps, trickle.join().expect("trickle thread panicked"))
    });
    steps?;
    let mut phase = trickle?;
    phase.tally.merge(tally);
    phase.refits = log;
    Ok(phase)
}
