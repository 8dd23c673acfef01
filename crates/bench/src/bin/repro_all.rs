//! Runs the reproduction. With no experiment name it regenerates every
//! table and figure, sharing one trained model zoo where the paper
//! reuses the same models; with a name it runs that one experiment.
//!
//! ```text
//! repro_all [<experiment>] [flags]
//!
//! <experiment>       one of EXPERIMENTS below (default: all but ablations)
//! --seed <u64>       dataset seed            (default 20210407)
//! --model-seed <u64> model-init seed         (default 17)
//! --scale <f64>      dataset volume factor   (default 1.0)
//! --epochs <usize>   training epochs         (default 2)
//! --batch <usize>    mini-batch size         (default 256)
//! --out <dir>        CSV output directory    (default results)
//! --quiet            suppress progress logs
//! ```
use std::path::{Path, PathBuf};

use amoe_experiments::{
    ablations, case_study, fig2, fig3, fig5, fig6, fig7, table1, table2, table3, table5, table6,
    SuiteConfig,
};

/// The experiments that run on their own, by name.
const EXPERIMENTS: [&str; 12] = [
    "table1",
    "table2",
    "table3",
    "table5",
    "table6",
    "table7_fig8",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "ablations",
];

/// Parsed command line.
struct Cli {
    /// The experiment to run alone, or `None` for the whole set.
    experiment: Option<String>,
    /// The suite configuration implied by the flags.
    config: SuiteConfig,
    /// Output directory for CSV artefacts.
    out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: repro_all [<experiment>] [--seed u64] [--model-seed u64] [--scale f64] \
         [--epochs n] [--batch n] [--out dir] [--quiet]\n\
         experiments: {}",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

/// Parses `std::env::args`, exiting with a usage message on error.
fn parse_cli() -> Cli {
    let mut config = SuiteConfig {
        verbose: true,
        ..SuiteConfig::default()
    };
    let mut out_dir = PathBuf::from("results");
    let mut experiment = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need_value = |i: usize| -> &str {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--seed" => {
                config.data_seed = need_value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--model-seed" => {
                config.model_seed = need_value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--scale" => {
                config.scale = need_value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--epochs" => {
                config.epochs = need_value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--batch" => {
                config.batch_size = need_value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--out" => {
                out_dir = need_value(i).into();
                i += 2;
            }
            "--quiet" => {
                config.verbose = false;
                i += 1;
            }
            "--help" | "-h" => usage(),
            name if EXPERIMENTS.contains(&name) && experiment.is_none() => {
                experiment = Some(name.to_string());
                i += 1;
            }
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
    }
    Cli {
        experiment,
        config,
        out_dir,
    }
}

fn write_fig6_csv(fig: &fig6::Fig6, out_dir: &Path) {
    match fig.write_csv(out_dir) {
        Ok(()) => eprintln!("2-D points written to {}/fig6_*.csv", out_dir.display()),
        Err(e) => eprintln!("could not write fig6 CSVs: {e}"),
    }
}

/// Every table and figure, training the 7-model zoo once for Table 2,
/// Fig. 5, Fig. 6 and the case study.
fn run_all(cfg: &SuiteConfig, out_dir: &Path) {
    let t0 = std::time::Instant::now();

    println!("{}\n", table1::run(cfg));
    println!("{}\n", fig2::run(cfg));
    println!("{}\n", fig3::run(cfg));

    eprintln!("== training the 7-model zoo ({} seed(s)) ==", cfg.n_seeds);
    let (t2, zoo) = table2::run_with_zoo(cfg);
    println!("{t2}\n");
    println!("{}\n", fig5::evaluate(cfg, &zoo));
    let f6 = fig6::evaluate(cfg, &zoo);
    println!("{f6}\n");
    write_fig6_csv(&f6, out_dir);
    println!("{}\n", case_study::evaluate(&zoo));

    println!("{}\n", table3::run(cfg));
    println!("{}\n", table5::run(cfg));
    println!("{}\n", table6::run(cfg));
    println!("{}\n", fig7::run(cfg));

    eprintln!(
        "total reproduction time: {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}

fn main() {
    let cli = parse_cli();
    let cfg = &cli.config;
    let Some(name) = cli.experiment.as_deref() else {
        run_all(cfg, &cli.out_dir);
        return;
    };
    match name {
        "table1" => println!("{}", table1::run(cfg)),
        "table2" => println!("{}", table2::run(cfg)),
        "table3" => println!("{}", table3::run(cfg)),
        "table5" => println!("{}", table5::run(cfg)),
        "table6" => println!("{}", table6::run(cfg)),
        "table7_fig8" => println!("{}", case_study::run(cfg)),
        "fig2" => println!("{}", fig2::run(cfg)),
        "fig3" => println!("{}", fig3::run(cfg)),
        "fig5" => println!("{}", fig5::run(cfg)),
        "fig6" => {
            let fig = fig6::run(cfg);
            println!("{fig}");
            write_fig6_csv(&fig, &cli.out_dir);
        }
        "fig7" => println!("{}", fig7::run(cfg)),
        "ablations" => println!("{}", ablations::run(cfg)),
        _ => unreachable!("parse_cli accepts only names in EXPERIMENTS"),
    }
}
