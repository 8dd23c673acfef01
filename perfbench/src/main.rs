//! One benchmark for the amoe serving stack, end to end and layer by
//! layer.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --server-bin PATH --run-dir DIR
//!           [--commit ID] [--source-digest HEX]
//! ```
//!
//! `run.py` next to this package builds the deployed `amoe-serve`
//! binary and this one, then runs this with the right paths. Each run
//! generates its inputs from the seed, trains and exports a checkpoint
//! of `Adv & HSC-MoE`, starts `amoe-serve serve` as a child process
//! (default `ServeConfig`, observability listener on) and drives one
//! workload over loopback TCP:
//!
//! * `session-trickle`: open loop, one connection, Poisson arrivals at
//!   200 sessions/s, latency timed from each request's due time.
//! * `burst-saturate`: closed loop, 2 connections each keeping 16
//!   sessions in flight, latency timed from submit.
//! * `drift-refit`: `OnlineLoop::step` on a drifting stream (refit and
//!   `RELOAD` every 3 ticks) while the trickle schedule runs on a second
//!   connection.
//!
//! Every score is checked: against `ServingMoe::predict` bit for bit
//! where the served generation is fixed, and through a probe set after
//! every `RELOAD` otherwise. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it (`descriptor {...}`) records the host and build
//! the numbers belong to; results from different hosts or thread
//! budgets are not comparable.

mod alloc;
mod inputs;
mod load;
mod replay;
mod server;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use amoe_obs::json::{write_f64, write_str};
use amoe_online::OnlineLoop;

use load::{Check, Phase, Prober, RefitLog, Tally};
use server::{ServerProc, Vars};
use stats::{median, quantile};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Sessions sent (4 in flight) to warm a fresh server up.
const WARMUP_SESSIONS: usize = 64;
const WARMUP_DEPTH: usize = 4;
/// Refit-loop ticks the traced run of a serving workload adds after its
/// measured phases (20 refit→swap cycles on the then idle server): a
/// traced run reports every per-layer metric, `online.*` included.
const IDLE_TICKS: usize = 60;
/// An open-loop generator whose p99 send lateness exceeds this fell
/// behind its schedule; the run is flagged.
const LATE_LIMIT_US: f64 = 1000.0;
/// Events of the traced run's export checked by the workspace's Chrome
/// trace validator.
const VALIDATED_EVENTS: usize = 1000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    SessionTrickle,
    BurstSaturate,
    DriftRefit,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "session-trickle" => Ok(Workload::SessionTrickle),
            "burst-saturate" => Ok(Workload::BurstSaturate),
            "drift-refit" => Ok(Workload::DriftRefit),
            other => Err(format!(
                "unknown workload {other:?} (session-trickle, burst-saturate, drift-refit)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SessionTrickle => "session-trickle",
            Workload::BurstSaturate => "burst-saturate",
            Workload::DriftRefit => "drift-refit",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
    run_dir: PathBuf,
    commit: String,
    source_digest: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |key: &str| -> Option<&str> {
            argv.iter()
                .position(|a| a == key)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
        };
        let need = |key: &str| get(key).ok_or_else(|| format!("{key} is required"));
        let num = |key: &str| -> Result<u64, String> {
            need(key)?
                .parse()
                .map_err(|_| format!("{key} needs a whole number"))
        };
        let seconds = num("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: Workload::parse(need("--workload")?)?,
            seed: num("--seed")?,
            seconds,
            trace: match need("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            server_bin: PathBuf::from(need("--server-bin")?),
            run_dir: PathBuf::from(need("--run-dir")?),
            commit: get("--commit").unwrap_or("unknown").to_string(),
            source_digest: get("--source-digest").unwrap_or("unknown").to_string(),
        })
    }
}

/// Named metric values with units, in insertion order, plus unitless
/// notes that go to the descriptor only.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, f64)>,
}

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    fn json(&self) -> Result<String, String> {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.values.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if i > 0 {
                s.push(',');
            }
            write_str(&mut s, name);
            s.push_str(":{\"value\":");
            write_f64(&mut s, *value);
            s.push_str(",\"unit\":");
            write_str(&mut s, unit);
            s.push('}');
        }
        s.push('}');
        Ok(s)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = args.run_dir.join(format!(
        "{}-s{}-p{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(out) => {
            println!("descriptor {}", out.descriptor);
            println!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
                out.tally.failed == 0,
                out.tally.attempted,
                out.tally.failed,
                out.metrics
            );
            if out.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                for r in &out.tally.reasons {
                    eprintln!("perfbench: failed: {r}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Outcome {
    descriptor: String,
    tally: Tally,
    metrics: String,
}

/// Scores `WARMUP_SESSIONS` test sessions, a few in flight at a time.
fn warm_up(addr: &str, sessions: &[inputs::Session]) -> Result<Tally, String> {
    let mut client =
        amoe_serve::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut tally = Tally::default();
    let mut next = 0;
    let mut inflight = std::collections::HashMap::new();
    while next < WARMUP_SESSIONS || !inflight.is_empty() {
        while next < WARMUP_SESSIONS && inflight.len() < WARMUP_DEPTH {
            let i = next % sessions.len();
            tally.attempted += 1;
            match client.submit(&sessions[i].rows) {
                Ok(id) => {
                    inflight.insert(id, i);
                }
                Err(e) => tally.fail(1, format!("warm-up submit: {e}")),
            }
            next += 1;
        }
        if inflight.is_empty() {
            continue;
        }
        let done = client.poll().map_err(|e| format!("warm-up: {e}"))?;
        let i = inflight.remove(&done.request_id).unwrap_or(0);
        match done.result {
            Ok(scores) if scores.len() == sessions[i].rows.len() => {}
            Ok(_) => tally.fail(1, "warm-up: wrong score count"),
            Err(e) => tally.fail(1, format!("warm-up: {e}")),
        }
    }
    Ok(tally)
}

/// One set-up: generate the log, train, export, start the server and
/// warm it up.
struct Setup {
    data: amoe_dataset::Dataset,
    sessions: Vec<inputs::Session>,
    ckpt: PathBuf,
    server: ServerProc,
    tally: Tally,
}

fn set_up(args: &Args, dir: &Path) -> Result<Setup, String> {
    let (data, model) = inputs::train(args.seed);
    let (ckpt, spec) = inputs::export(dir, &data, &model)?;
    let server = ServerProc::spawn(&args.server_bin, &ckpt, &spec)?;
    let sessions = inputs::sessions(&data.test);
    let tally = warm_up(&server.addr, &sessions)?;
    Ok(Setup {
        data,
        sessions,
        ckpt,
        server,
        tally,
    })
}

#[allow(clippy::too_many_arguments)]
fn measure(
    workload: Workload,
    addr: &str,
    sessions: &[inputs::Session],
    expected: &[Vec<f32>],
    schedule: &[(Duration, usize)],
    seed: u64,
    duration: Duration,
    lp: Option<&mut OnlineLoop>,
    prober: &mut Prober<'_>,
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let mut phase = match workload {
        Workload::SessionTrickle => {
            load::open_loop(addr, sessions, Check::Exact(expected), schedule, tracer)?
        }
        Workload::BurstSaturate => load::closed_loop(
            addr,
            sessions,
            Check::Exact(expected),
            seed,
            duration,
            tracer,
        )?,
        Workload::DriftRefit => {
            let lp = lp.expect("drift-refit runs the loop");
            load::drift(addr, sessions, schedule, lp, prober, duration, tracer)?
        }
    };
    phase.seconds = duration.as_secs_f64();
    Ok(phase)
}

fn open_online(args: &Args, dir: &Path, ckpt: &Path, addr: &str) -> Result<OnlineLoop, String> {
    let cfg = inputs::online_config(args.seed, dir.join("gens"), ckpt, addr);
    let mut lp = OnlineLoop::new(cfg)?;
    lp.connect()?;
    Ok(lp)
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("no samples for {what}"))
}

#[allow(clippy::too_many_lines)]
fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut tally = Tally::default();

    // Set up several times and keep the last server; earlier ones only
    // time the set-up.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for i in 0..SETUPS {
        if let Some(prev) = setup.take() {
            let Setup { server, .. } = prev;
            server.shutdown()?;
        }
        let t0 = Instant::now();
        let s = set_up(args, &dir.join(format!("setup-{i}")))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let Setup {
        data,
        sessions,
        ckpt,
        server,
        tally: warm,
    } = setup.expect("at least one set-up");
    tally.merge(warm);
    let addr = server.addr.clone();

    // The served checkpoint, loaded here: the oracle for every score.
    let served = inputs::load(&data.meta, args.seed, &ckpt)?;
    let all: Vec<usize> = (0..sessions.len()).collect();
    let expected = inputs::expected(&served, &sessions, &all);
    let mut prober = Prober::connect(&addr, &sessions, data.meta.clone(), args.seed)?;
    prober.check(&ckpt, &mut tally)?;

    let duration = Duration::from_secs(args.seconds);
    let schedule = load::schedule(args.seed, sessions.len(), duration);
    let mut lp = match args.workload {
        Workload::DriftRefit => Some(open_online(args, dir, &ckpt, &addr)?),
        _ => None,
    };

    let vars_start = server.vars()?;
    let mut plain = measure(
        args.workload,
        &addr,
        &sessions,
        &expected,
        &schedule,
        args.seed,
        duration,
        lp.as_mut(),
        &mut prober,
        None,
    )?;
    let tracer = args.trace.then(|| Tracer::new(Instant::now()));
    let mut traced = match &tracer {
        Some(t) => {
            let before = server.vars()?;
            let phase = measure(
                args.workload,
                &addr,
                &sessions,
                &expected,
                &schedule,
                args.seed,
                duration,
                lp.as_mut(),
                &mut prober,
                Some(t),
            )?;
            Some((phase, before, server.vars()?))
        }
        None => None,
    };
    let vars_end = server.vars()?;

    // The end check, against the generation now being served.
    let now_serving = match &lp {
        Some(l) if l.generation() > 0 => l.store().checkpoint_path(l.generation()),
        _ => ckpt.clone(),
    };
    prober.check(&now_serving, &mut tally)?;

    // In the traced run the serving workloads also price the refit→swap
    // loop, on the then idle server.
    let idle = match args.workload {
        Workload::DriftRefit => None,
        _ if !args.trace => None,
        _ => {
            let mut l = open_online(args, dir, &ckpt, &addr)?;
            let mut log = RefitLog::default();
            for _ in 0..IDLE_TICKS {
                load::step(&mut l, &mut prober, &mut log, &mut tally, tracer.as_ref())?;
            }
            Some(log)
        }
    };
    let peak_rss = server.peak_rss_mib()?;
    drop(prober);
    drop(lp);
    server.shutdown()?;

    tally.merge(std::mem::take(&mut plain.tally));
    if let Some((phase, _, _)) = traced.as_mut() {
        tally.merge(std::mem::take(&mut phase.tally));
    }
    let late_p99 = quantile(&plain.late_us, 0.99).unwrap_or(0.0);
    let generator_behind = args.workload != Workload::BurstSaturate && late_p99 > LATE_LIMIT_US;
    if generator_behind {
        eprintln!(
            "perfbench: the open-loop generator fell behind (p99 lateness {late_p99:.0} us); \
             latency is timed from due times, so this run is slow, not fast"
        );
    }
    let (p99, beyond_p99) =
        stats::windowed_p99(&plain.sent_at, &plain.latency_us).ok_or("no latency samples")?;
    if beyond_p99 < 10 {
        eprintln!("perfbench: a tail window holds only {beyond_p99} samples beyond its p99; lengthen --seconds");
    }

    let rows_per_s = plain.rows as f64 / plain.seconds;
    let mut m = Metrics::default();
    if let Some((phase, before, after)) = &traced {
        let t = tracer.as_ref().expect("traced phase has a tracer");
        layer_metrics(
            args,
            dir,
            &data,
            &sessions,
            &served,
            &ckpt,
            &plain,
            phase,
            before,
            after,
            idle.as_ref(),
            t,
            &mut m,
        )?;
    } else {
        m.add("setup_s", need(median(&setup_s), "set-up")?, "s");
        m.add(
            "latency_p50_us",
            need(quantile(&plain.latency_us, 0.5), "latency")?,
            "us",
        );
        // On the open-loop workloads every scheduled session is sent and
        // answered, so rows per second is the offered load, not a
        // measurement; it goes to the descriptor only.
        if args.workload == Workload::BurstSaturate {
            m.add("throughput_rows_per_s", rows_per_s, "rows/s");
        }
        m.add("peak_rss_mb", peak_rss, "MiB");
    }

    let mut d = String::from("{");
    let mut field = |key: &str, value: &str| {
        if d.len() > 1 {
            d.push(',');
        }
        write_str(&mut d, key);
        d.push(':');
        d.push_str(value);
    };
    let quoted = |v: &str| {
        let mut s = String::new();
        write_str(&mut s, v);
        s
    };
    field("workload", &quoted(args.workload.name()));
    field("seed", &args.seed.to_string());
    field("seconds", &args.seconds.to_string());
    field("trace", &u8::from(args.trace).to_string());
    field("nproc", &nproc.to_string());
    field("pool_threads", &vars_start.threads.to_string());
    field("git_commit", &quoted(&args.commit));
    field("source_digest", &quoted(&args.source_digest));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    field("build_profile", &quoted(profile));
    field("setup_s", &format!("{setup_s:?}"));
    field("latency_samples", &plain.latency_us.len().to_string());
    field(
        "latency_p95_us",
        &format!("{:?}", quantile(&plain.latency_us, 0.95).unwrap_or(0.0)),
    );
    field("samples_beyond_p99", &beyond_p99.to_string());
    field("latency_p99_us", &format!("{p99:?}"));
    field(
        "loadgen_late_p50_us",
        &format!("{:?}", quantile(&plain.late_us, 0.5).unwrap_or(0.0)),
    );
    field("loadgen_late_p99_us", &format!("{late_p99:?}"));
    field("generator_behind", &generator_behind.to_string());
    field("rows_per_s", &format!("{rows_per_s:?}"));
    field(
        "server_requests",
        &(vars_end.requests - vars_start.requests).to_string(),
    );
    for (k, v) in &m.notes {
        field(k, &format!("{v:?}"));
    }
    d.push('}');

    if let Some(t) = &tracer {
        let path = args.run_dir.join(format!(
            "trace-{}-s{}.json",
            args.workload.name(),
            args.seed
        ));
        // The workspace validator's parser is quadratic in document
        // size, so it checks a prefix document built by the same writer.
        amoe_bench::obs_check::validate_chrome_trace(&t.chrome_json(&d, VALIDATED_EVENTS))
            .map_err(|e| format!("trace export is invalid: {e}"))?;
        std::fs::write(&path, t.chrome_json(&d, usize::MAX))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
    }

    Ok(Outcome {
        descriptor: d,
        tally,
        metrics: m.json()?,
    })
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    args: &Args,
    dir: &Path,
    data: &amoe_dataset::Dataset,
    sessions: &[inputs::Session],
    served: &amoe_core::MoeModel,
    ckpt: &Path,
    plain: &Phase,
    traced: &Phase,
    before: &Vars,
    after: &Vars,
    idle: Option<&RefitLog>,
    t: &Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let self_q = |name: &str, q: f64| need(quantile(&t.self_times_us(name), q), name);
    let late_p99 = self_q("loadgen.late", 0.99)?;
    let submit_p50 = self_q("client.submit", 0.5)?;
    m.add("loadgen.late_p99_us", late_p99, "us");
    m.add("client.submit_p50_us", submit_p50, "us");
    let (tail, _) = stats::windowed_p99(&traced.sent_at, &traced.latency_us)
        .ok_or("no traced latency samples")?;
    m.add("client.latency_p99_us", tail, "us");

    let batches = after.batches - before.batches;
    if batches <= 0.0 {
        return Err("the server ran no batches during the traced phase".into());
    }
    let requests_per_batch = (after.requests - before.requests) / batches;
    let rows_per_batch = (after.rows - before.rows) / batches;
    m.add("serve.rows_per_batch", rows_per_batch, "rows");
    m.add("serve.requests_per_batch", requests_per_batch, "requests");
    m.add("serve.queue_wait_p50_us", after.queue_wait_us.p50, "us");
    m.add("serve.queue_wait_p99_us", after.queue_wait_us.p99, "us");
    m.add("serve.compute_p50_us", after.compute_us.p50, "us");
    m.add("serve.reply_write_p50_us", after.reply_write_us.p50, "us");
    m.add(
        "serve.request_latency_p50_us",
        after.request_latency_us.p50,
        "us",
    );
    m.add("serve.queue_depth_p99", after.queue_depth.p99, "requests");
    m.add(
        "serve.overloaded",
        after.overloaded - before.overloaded,
        "count",
    );

    let ctx = replay::Ctx {
        meta: &data.meta,
        seed: args.seed,
        ckpt,
        model: served,
        test: &data.test,
        sessions,
        requests_per_batch,
        rows_per_batch,
        dir,
    };
    replay::run(&ctx, t, m)?;

    let refits = idle.unwrap_or(&traced.refits);
    m.add(
        "online.refit_to_swap_ms",
        need(median(&refits.refit_step_ms), "refits")?,
        "ms",
    );
    m.add(
        "online.train_examples_per_s",
        need(median(&refits.examples_per_s), "refit fits")?,
        "ex/s",
    );
    m.add(
        "online.fit_ms",
        need(median(&refits.fit_ms), "refit fits")?,
        "ms",
    );
    m.add(
        "online.reload_ms",
        need(median(&refits.reload_ms), "reloads")?,
        "ms",
    );
    m.add(
        "online.tick_ms",
        need(median(&refits.tick_ms), "plain ticks")?,
        "ms",
    );

    // Reconciliation: the blocking path's stage medians against the
    // client-observed median (reported, not gated).
    let traced_p50 = need(quantile(&traced.latency_us, 0.5), "traced latency")?;
    let plain_p50 = need(quantile(&plain.latency_us, 0.5), "latency")?;
    let blocking =
        submit_p50 + after.queue_wait_us.p50 + after.compute_us.p50 + after.reply_write_us.p50;
    m.add("trace.unattributed_frac", 1.0 - blocking / traced_p50, "1");
    m.add("trace.overhead_frac", traced_p50 / plain_p50 - 1.0, "1");
    Ok(())
}
