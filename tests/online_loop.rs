//! End-to-end test of the continuous train→reload loop over loopback
//! TCP: a server boots from a frozen seed checkpoint, an
//! [`OnlineLoop`] consumes the drifting stream, probes the server
//! every tick, and refits/exports/RELOADs on its cadence. The
//! acceptance contract from the online subsystem:
//!
//! * at least three automatic drift-driven refit/RELOAD cycles land;
//! * the server stays continuously available — every admitted probe
//!   is answered, zero failed requests, zero `OVERLOADED` sheds at
//!   this offered load;
//! * after the reloads, the server's scores are bit-identical to the
//!   loop's in-process model (the export→reload→serve path preserves
//!   the weights exactly);
//! * the refreshed model's windowed AUC beats the frozen seed model's
//!   over the post-first-swap windows (the loop is not just alive, it
//!   is *worth running*).

use adv_hsc_moe::dataset::{generate, Batch, DriftConfig, GeneratorConfig, Split};
use adv_hsc_moe::metrics::roc_auc;
use adv_hsc_moe::moe::config::TowerConfig;
use adv_hsc_moe::moe::ranker::{OptimConfig, Ranker};
use adv_hsc_moe::moe::serving::ServingMoe;
use adv_hsc_moe::moe::{MoeConfig, MoeModel, TrainConfig, Trainer};
use adv_hsc_moe::online::daemon::feature_row;
use adv_hsc_moe::online::{OnlineConfig, OnlineLoop};
use adv_hsc_moe::serve::{Client, ServeConfig, Server};

fn model_config(seed: u64) -> MoeConfig {
    MoeConfig {
        n_experts: 6,
        top_k: 2,
        tower: TowerConfig {
            hidden: vec![12, 6],
        },
        seed,
        ..MoeConfig::default()
    }
}

fn window_auc(trainer: &Trainer, model: &dyn Ranker, split: &Split) -> Option<f64> {
    let scores = trainer.score_split(model, split);
    let labels: Vec<bool> = split.examples.iter().map(|e| e.label).collect();
    roc_auc(&scores, &labels)
}

#[test]
fn continuous_loop_survives_three_reload_cycles_and_beats_frozen() {
    let seed = 41u64;
    let base = GeneratorConfig::tiny(seed);
    let drift = DriftConfig {
        emerging_boost: 4.0,
        brand_shift_per_tick: 0.12,
        season_amplitude: 1.3,
        ..DriftConfig::default()
    };

    // Frozen deployment: trained once on the static snapshot.
    let dataset = generate(&base);
    let trainer = Trainer::new(TrainConfig {
        batch_size: 64,
        verbose: false,
        ..TrainConfig::default()
    });
    let mut frozen = MoeModel::new(&dataset.meta, model_config(seed), OptimConfig::default());
    trainer.fit(&mut frozen, &dataset.train);

    let export_dir = std::env::temp_dir().join(format!("amoe-online-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&export_dir);
    std::fs::create_dir_all(&export_dir).expect("export dir");
    let seed_ckpt = export_dir.join("gen-000000.amoe");
    frozen
        .params()
        .save_atomic(&seed_ckpt)
        .expect("seed export");

    let boot = MoeModel::from_checkpoint(
        &dataset.meta,
        model_config(seed),
        OptimConfig::default(),
        &seed_ckpt,
    )
    .expect("boot model");
    let server = Server::start(
        "127.0.0.1:0",
        boot,
        dataset.meta.clone(),
        ServeConfig::default(),
    )
    .expect("server start");
    let addr = server.local_addr();

    let mut config = OnlineConfig::demo(base, &export_dir);
    config.drift = drift;
    config.sessions_per_tick = 16;
    config.refit_every = 3;
    config.refit_epochs = 2;
    config.model = model_config(seed);
    config.seed_checkpoint = Some(seed_ckpt);
    config.serve_addr = Some(addr.to_string());
    config.probe_rows = 16;
    let mut lp = OnlineLoop::new(config).expect("loop");
    lp.connect().expect("connect");

    let ticks = 9u64;
    let mut frozen_aucs = Vec::new();
    let mut fresh_aucs = Vec::new();
    for tick in 0..ticks {
        let window = lp.stream().window_at(tick);
        let gen_before = lp.generation();
        let f = window_auc(&trainer, &frozen, &window.split);
        let g = window_auc(&trainer, lp.model(), &window.split);
        let report = lp.step().expect("tick must not fail");
        assert_eq!(report.tick, tick);
        assert!(report.probe_rows > 0, "every tick probes the server");
        if gen_before > 0 {
            if let (Some(f), Some(g)) = (f, g) {
                frozen_aucs.push(f);
                fresh_aucs.push(g);
            }
        }
    }

    // ≥ 3 automatic refit/RELOAD cycles, continuous availability.
    let stats = lp.stats();
    assert_eq!(stats.ticks, ticks);
    assert_eq!(stats.refits, 3, "refit every 3 ticks over 9 ticks");
    assert_eq!(stats.reloads, 3, "every refit deploys");
    assert_eq!(stats.failed, 0, "every admitted request answered");
    assert_eq!(
        stats.probes_overloaded, 0,
        "no OVERLOADED shedding at this offered load"
    );
    assert_eq!(stats.probes_ok, ticks, "one successful probe per tick");
    assert_eq!(lp.generation(), 3);

    // The server agrees it swapped three times, and now serves exactly
    // the loop's latest weights: TCP scores bit-identical to direct
    // in-process predict on `lp.model()`.
    let mut admin = Client::connect(addr).expect("admin connect");
    let snapshot = server.stats();
    assert_eq!(snapshot.reloads, 3, "server-side reload counter");
    assert_eq!(snapshot.errors, 0, "no server-side request errors");

    let window = lp.stream().window_at(ticks);
    let n = window.split.len().min(64);
    let rows: Vec<_> = window.split.examples[..n].iter().map(feature_row).collect();
    let batch = Batch::from_split(&window.split, &(0..n).collect::<Vec<_>>());
    let direct = ServingMoe::new(lp.model()).predict(&batch);
    let via_tcp = admin.score(&rows).expect("score");
    assert_eq!(
        via_tcp, direct,
        "served weights must equal exported weights"
    );

    // The loop must be worth running: refreshed model beats the frozen
    // seed on the drifted windows it was refit for.
    assert!(
        frozen_aucs.len() >= 4,
        "expected several comparable post-swap windows, got {}",
        frozen_aucs.len()
    );
    let frozen_mean = frozen_aucs.iter().sum::<f64>() / frozen_aucs.len() as f64;
    let fresh_mean = fresh_aucs.iter().sum::<f64>() / fresh_aucs.len() as f64;
    assert!(
        fresh_mean > frozen_mean,
        "staleness margin must be positive: fresh {fresh_mean:.4} vs frozen {frozen_mean:.4}"
    );

    admin.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&export_dir);
}

#[test]
fn offline_loop_exports_are_reloadable_by_a_live_server() {
    // The offline daemon (no server attached) must still produce
    // exports any server can hot-swap to — the bench relies on this.
    let base = GeneratorConfig::tiny(41);
    let dataset = generate(&base);
    let export_dir =
        std::env::temp_dir().join(format!("amoe-online-export-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&export_dir);

    let mut config = OnlineConfig::demo(base, &export_dir);
    config.sessions_per_tick = 8;
    config.refit_every = 2;
    config.refit_epochs = 1;
    config.model = model_config(41);
    let mut lp = OnlineLoop::new(config).expect("loop");
    let reports = lp.run(2).expect("run");
    let refit = reports[1].refit.as_ref().expect("refit on tick 1");

    let boot = MoeModel::new(&dataset.meta, model_config(41), OptimConfig::default());
    let server = Server::start(
        "127.0.0.1:0",
        boot,
        dataset.meta.clone(),
        ServeConfig::default(),
    )
    .expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .reload(refit.export_path.to_str().expect("utf8 path"))
        .expect("reload of offline export");

    // Served scores now match the offline loop's in-process model.
    let window = lp.stream().window_at(5);
    let n = window.split.len().min(32);
    let rows: Vec<_> = window.split.examples[..n].iter().map(feature_row).collect();
    let batch = Batch::from_split(&window.split, &(0..n).collect::<Vec<_>>());
    let direct = ServingMoe::new(lp.model()).predict(&batch);
    assert_eq!(client.score(&rows).expect("score"), direct);

    client.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&export_dir);
}
