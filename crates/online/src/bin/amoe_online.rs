//! Online trainer daemon CLI.
//!
//! ```text
//! amoe-online run --addr HOST:PORT --spec FILE [--seed-ckpt FILE]
//!                 [--export-dir DIR] [--seed N] [--drift-seed N]
//!                 [--ticks N] [--refit-every N] [--epochs N]
//!                 [--sessions-per-tick N] [--window-ticks N]
//!                 [--probe-rows N] [--min-reloads N] [--offline]
//!     Run the continuous train→reload loop against a live amoe-serve.
//!     Reads FILE (the server's ModelSpec) for the architecture and
//!     schema, derives the drifting session stream from `--seed`
//!     (which must be the seed the server's model was exported with,
//!     so the schemas match), and every `--refit-every` ticks refits
//!     on the sliding window, exports `gen-NNNNNN.amoe` + `.spec`
//!     into `--export-dir`, and pushes RELOAD. Each tick also probes
//!     the server with `--probe-rows` rows from the fresh window.
//!
//!     Exits non-zero if any probe or reload *failed* (OVERLOADED
//!     shedding is tolerated and counted separately), or if fewer
//!     than `--min-reloads` reloads succeeded. `--offline` runs the
//!     loop without a server (exports only; `--addr` unused).
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use amoe_dataset::{DriftConfig, DriftWorld, GeneratorConfig};
use amoe_online::{OnlineConfig, OnlineLoop};
use amoe_serve::ModelSpec;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        _ => {
            eprintln!("usage: amoe-online run [options]");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("amoe-online: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` option lookup; repeated keys take the last value.
fn opt(args: &[String], key: &str) -> Result<Option<String>, String> {
    let mut found = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == key {
            match it.next() {
                Some(v) => found = Some(v.clone()),
                None => return Err(format!("{key} needs a value")),
            }
        }
    }
    Ok(found)
}

fn opt_parse<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    match opt(args, key)? {
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{key}: cannot parse {v:?}")),
        None => Ok(None),
    }
}

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

fn run(args: &[String]) -> Result<(), String> {
    let spec_path = opt(args, "--spec")?.ok_or("run: --spec FILE is required")?;
    let offline = flag(args, "--offline");
    let addr = opt(args, "--addr")?;
    if !offline && addr.is_none() {
        return Err("run: --addr HOST:PORT is required (or pass --offline)".into());
    }
    let seed: u64 = opt_parse(args, "--seed")?.unwrap_or(41);
    let drift_seed: u64 = opt_parse(args, "--drift-seed")?.unwrap_or(7);
    let ticks: u64 = opt_parse(args, "--ticks")?.unwrap_or(12);
    let refit_every: u64 = opt_parse(args, "--refit-every")?.unwrap_or(3);
    let epochs: usize = opt_parse(args, "--epochs")?.unwrap_or(2);
    let sessions_per_tick: usize = opt_parse(args, "--sessions-per-tick")?.unwrap_or(24);
    let window_ticks: usize = opt_parse(args, "--window-ticks")?.unwrap_or(4);
    let probe_rows: usize = opt_parse(args, "--probe-rows")?.unwrap_or(32);
    let min_reloads: u64 = opt_parse(args, "--min-reloads")?.unwrap_or(0);
    let export_dir: PathBuf = opt(args, "--export-dir")?
        .unwrap_or_else(|| "target/online".into())
        .into();
    let seed_ckpt: Option<PathBuf> = opt(args, "--seed-ckpt")?.map(PathBuf::from);

    let spec = ModelSpec::load(&spec_path).map_err(|e| format!("load {spec_path}: {e}"))?;
    let base = GeneratorConfig::tiny(seed);
    let drift = DriftConfig {
        seed: drift_seed,
        ..DriftConfig::default()
    };

    // Fail fast on schema mismatch: the drifting world derived from
    // --seed must describe the exact vocabulary the serving model was
    // built for, or every RELOADed checkpoint would be rejected.
    let world_meta = DriftWorld::new(&base, &drift).meta().clone();
    if world_meta != spec.meta {
        return Err(format!(
            "schema mismatch: stream from --seed {seed} does not match {spec_path} \
             (was the server's model exported with a different seed?)"
        ));
    }

    let mut config = OnlineConfig::demo(base, export_dir);
    config.drift = drift;
    config.sessions_per_tick = sessions_per_tick;
    config.window_ticks = window_ticks;
    config.refit_every = refit_every;
    config.refit_epochs = epochs;
    config.model = spec.config.clone();
    config.seed_checkpoint = seed_ckpt;
    config.serve_addr = if offline { None } else { addr };
    config.probe_rows = probe_rows;

    let mut lp = OnlineLoop::new(config)?;
    lp.connect()?;

    for _ in 0..ticks {
        let report = lp.step()?;
        if let Some(r) = &report.refit {
            println!(
                "refit tick={} gen={} sessions={} examples={} loss={:.4} fit_ms={:.1} reload_us={}",
                r.tick,
                r.generation,
                r.window_sessions,
                r.window_examples,
                r.loss,
                r.fit_ms,
                r.reload_us.map_or_else(|| "-".into(), |us| us.to_string()),
            );
        }
    }

    let stats = lp.stats();
    println!(
        "online done: ticks={} refits={} reloads={} probes_ok={} overloaded={} failed={} \
         reload_us_max={}",
        stats.ticks,
        stats.refits,
        stats.reloads,
        stats.probes_ok,
        stats.probes_overloaded,
        stats.failed,
        stats.reload_us_max,
    );

    if stats.failed > 0 {
        return Err(format!(
            "{} request(s) failed — server availability contract broken",
            stats.failed
        ));
    }
    if stats.reloads < min_reloads {
        return Err(format!(
            "only {} reload(s) succeeded, --min-reloads {min_reloads}",
            stats.reloads
        ));
    }
    Ok(())
}
