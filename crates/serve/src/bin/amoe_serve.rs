//! Standalone inference server.
//!
//! ```text
//! amoe-serve demo-export --out DIR [--seed N] [--steps N]
//!     Train a small model on the synthetic dataset and write
//!     DIR/model.amoe (weights) + DIR/model.spec (architecture).
//!
//! amoe-serve serve --ckpt FILE --spec FILE [--addr HOST:PORT]
//!                  [--obs-addr HOST:PORT] [--max-batch-rows N]
//!                  [--queue-cap N] [--block-ms N] [--quantized]
//!     Serve the checkpoint over TCP. Prints the bound address on
//!     stdout, then blocks until a SHUTDOWN request. Any other argument
//!     is an error. One batcher drains one `--queue-cap`-deep admission
//!     queue; `AMOE_THREADS` sizes the pool that runs its forwards.
//!     `--quantized` (or `serve_quantized=true` in the spec) serves
//!     int8 expert weights; see DESIGN.md for the error contract.
//!     `--obs-addr` starts the HTTP observability listener (GET
//!     /metrics /healthz /readyz /vars /trace) on a second port,
//!     printed as an `obs HOST:PORT` line after the protocol address.
//!     It is the only way to read the server's state; see `scrape`.
//!
//! amoe-serve shutdown --addr HOST:PORT
//!     Ask the server to drain gracefully: the queue closes, every
//!     admitted request is answered, then the process exits.
//!
//! amoe-serve scrape --obs-addr HOST:PORT [--path /metrics] [--lint]
//!     Fetch one observability endpoint with the in-repo HTTP client
//!     and print the body. `--path /vars` prints counters and windowed
//!     stage quantiles as JSON;
//!     `--path /trace` prints the trace ring as Chrome trace-event
//!     JSON (load in ui.perfetto.dev). `--lint` additionally runs the
//!     Prometheus exposition linter on the response (exit 1 on
//!     violations) — the CI smoke stage's scrape-correctness gate.
//! ```

use std::process::ExitCode;
use std::time::Duration;

use amoe_core::ranker::OptimConfig;
use amoe_core::{MoeConfig, MoeModel, Ranker, TowerConfig};
use amoe_dataset::{generate, Batch, GeneratorConfig};
use amoe_nn::ParamSet;
use amoe_serve::{Client, ModelSpec, OverloadPolicy, ServeConfig, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("demo-export") => demo_export(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("shutdown") => shutdown(&args[1..]),
        Some("scrape") => scrape(&args[1..]),
        _ => {
            eprintln!("usage: amoe-serve <demo-export|serve|shutdown|scrape> [options]");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("amoe-serve: {message}");
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

/// Rejects any argument that is neither one of `valued` (skipping the
/// value after it) nor one of `switches`, naming the first offender.
fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if valued.contains(&a) {
            it.next();
        } else if !switches.contains(&a) {
            return Err(format!("unknown argument {a}"));
        }
    }
    Ok(())
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

fn demo_export(args: &[String]) -> Result<(), String> {
    let out = opt(args, "--out")?.ok_or("demo-export: --out DIR is required")?;
    let seed: u64 = opt_parse(args, "--seed")?.unwrap_or(41);
    let steps: usize = opt_parse(args, "--steps")?.unwrap_or(20);

    let dataset = generate(&GeneratorConfig::tiny(seed));
    let config = MoeConfig {
        n_experts: 6,
        top_k: 2,
        tower: TowerConfig {
            hidden: vec![12, 6],
        },
        seed,
        ..MoeConfig::default()
    };
    let mut model = MoeModel::new(&dataset.meta, config.clone(), OptimConfig::default());
    let n = dataset.train.len().min(256);
    let batch = Batch::from_split(&dataset.train, &(0..n).collect::<Vec<_>>());
    for _ in 0..steps {
        model.train_step(&batch);
    }

    std::fs::create_dir_all(&out).map_err(|e| format!("create {out}: {e}"))?;
    let ckpt = format!("{out}/model.amoe");
    let spec_path = format!("{out}/model.spec");
    model
        .params()
        .save(&ckpt)
        .map_err(|e| format!("save {ckpt}: {e}"))?;
    ModelSpec {
        meta: dataset.meta.clone(),
        config,
        serve_quantized: false,
    }
    .save(&spec_path)
    .map_err(|e| format!("save {spec_path}: {e}"))?;
    println!("{ckpt}");
    println!("{spec_path}");
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "--ckpt",
            "--spec",
            "--addr",
            "--obs-addr",
            "--max-batch-rows",
            "--queue-cap",
            "--block-ms",
        ],
        &["--quantized"],
    )
    .map_err(|e| format!("serve: {e}"))?;
    let ckpt = opt(args, "--ckpt")?.ok_or("serve: --ckpt FILE is required")?;
    let spec_path = opt(args, "--spec")?.ok_or("serve: --spec FILE is required")?;
    let addr = opt(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:0".into());

    let mut config = ServeConfig::default();
    if let Some(v) = opt_parse::<usize>(args, "--max-batch-rows")? {
        config.max_batch_rows = v;
    }
    if let Some(v) = opt_parse::<usize>(args, "--queue-cap")? {
        config.queue_cap = v;
    }
    if let Some(v) = opt_parse::<u64>(args, "--block-ms")? {
        config.overload = OverloadPolicy::Block(Duration::from_millis(v));
    }
    config.obs_addr = opt(args, "--obs-addr")?;

    let spec = ModelSpec::load(&spec_path).map_err(|e| format!("load {spec_path}: {e}"))?;
    // Either side may opt in: the operator's flag or the checkpoint's
    // deployment hint.
    config.quantized = args.iter().any(|a| a == "--quantized") || spec.serve_quantized;
    let params = ParamSet::load(&ckpt).map_err(|e| format!("load {ckpt}: {e}"))?;
    let model = MoeModel::from_params(
        &spec.meta,
        spec.config.clone(),
        OptimConfig::default(),
        &params,
    )
    .map_err(|e| format!("checkpoint does not match spec: {e}"))?;

    let server =
        Server::start(&addr, model, spec.meta, config).map_err(|e| format!("bind {addr}: {e}"))?;
    // The load generator (and humans) read the bound address from the
    // first stdout line; ephemeral ports make parallel runs safe. The
    // observability port, when enabled, follows on a second line.
    println!("{}", server.local_addr());
    if let Some(obs) = server.obs_addr() {
        println!("obs {obs}");
    }
    server.join();
    Ok(())
}

fn scrape(args: &[String]) -> Result<(), String> {
    let addr = opt(args, "--obs-addr")?.ok_or("scrape: --obs-addr HOST:PORT is required")?;
    let path = opt(args, "--path")?.unwrap_or_else(|| "/metrics".into());
    let lint = args.iter().any(|a| a == "--lint");
    let (status, body) = amoe_serve::http_get(&addr, &path, Duration::from_secs(10))
        .map_err(|e| format!("GET {addr}{path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {addr}{path}: HTTP {status}"));
    }
    print!("{body}");
    if lint {
        let samples = amoe_obs::expose::validate_exposition(&body)
            .map_err(|e| format!("exposition lint failed: {e}"))?;
        eprintln!("scrape: {samples} samples, lint clean");
    }
    Ok(())
}

fn shutdown(args: &[String]) -> Result<(), String> {
    let addr = opt(args, "--addr")?.ok_or("shutdown: --addr HOST:PORT is required")?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    println!("server at {addr} draining");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn serve_rejects_an_unknown_flag_by_name() {
        for (line, bad) in [
            ("--ckpt m --spec s --deadline-us 1", "--deadline-us"),
            ("--ckpt m --spec s --shards 2", "--shards"),
            ("--ckpt m --spec s --quantised", "--quantised"),
            ("--ckpt m stray --spec s", "stray"),
        ] {
            let err = serve(&args(line)).unwrap_err();
            assert_eq!(err, format!("serve: unknown argument {bad}"));
        }
    }

    #[test]
    fn serve_accepts_every_known_flag() {
        // Known flags pass the check, so `serve` gets as far as loading
        // the (missing) spec file.
        let line = "--ckpt missing.amoe --spec missing.spec --addr 127.0.0.1:0 \
                    --obs-addr 127.0.0.1:0 --queue-cap 8 \
                    --max-batch-rows 64 --block-ms 5 --quantized";
        let err = serve(&args(line)).unwrap_err();
        assert!(err.starts_with("load missing.spec"), "{err}");
    }
}
