//! Thread-count determinism: the parallel runtime must be an
//! implementation detail, invisible in the numbers. Same seed + same
//! data ⇒ bit-identical serving logits and an identical `EvalReport`
//! for `AMOE_THREADS` ∈ {1, 2, 4, 8}.
//!
//! The guarantee comes from the pool's reduction discipline — workers
//! write disjoint output regions and merges happen in task order — so
//! these tests compare with exact equality, not tolerances. The sweep
//! lives in a single `#[test]` because the thread budget is process
//! global state.

use adv_hsc_moe::dataset::buckets::equal_count_task_buckets;
use adv_hsc_moe::dataset::{generate, Batch, DriftConfig, DriftWorld, GeneratorConfig, Split};
use adv_hsc_moe::moe::finetune::FineTuner;
use adv_hsc_moe::moe::ranker::{OptimConfig, Ranker};
use adv_hsc_moe::moe::serving::ServingMoe;
use adv_hsc_moe::moe::{DnnModel, GateInput, MmoeModel, MoeConfig, MoeModel, TrainConfig, Trainer};
use adv_hsc_moe::nn::ParamSet;
use adv_hsc_moe::online::SessionStream;
use adv_hsc_moe::tensor::matmul::{self, reference};
use adv_hsc_moe::tensor::{pool, Rng};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

#[test]
fn eval_report_and_serving_logits_identical_across_thread_counts() {
    let d = generate(&GeneratorConfig {
        train_sessions: 300,
        test_sessions: 120,
        ..GeneratorConfig::tiny(47)
    });
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 128,
        eval_batch_size: 64, // several eval shards even on the tiny split
        ..TrainConfig::default()
    });

    // A wide untrained model (N=32, K=2) on a 128-row batch: four
    // times the experts of the trained one, so each thread budget
    // splits a longer expert fan-out across its lanes.
    let wide = MoeModel::new(
        &d.meta,
        MoeConfig {
            n_experts: 32,
            top_k: 2,
            ..MoeConfig::default()
        },
        OptimConfig::default(),
    );
    let wide_batch = Batch::from_split(&d.test, &(0..128.min(d.test.len())).collect::<Vec<_>>());

    let mut reports = Vec::new();
    let mut all_logits = Vec::new();
    let mut all_wide_logits = Vec::new();
    let mut all_scores = Vec::new();
    for &threads in &THREAD_SWEEP {
        pool::set_threads(threads);
        all_wide_logits.push(ServingMoe::new(&wide).predict_logits(&wide_batch));
        // Fresh model per thread count: training itself goes through the
        // (parallel) matmul kernels, so this also covers the claim that
        // identical seeds give identical *trained weights*.
        let mut model = MoeModel::new(
            &d.meta,
            MoeConfig {
                n_experts: 8,
                top_k: 2,
                ..MoeConfig::adv_hsc_moe()
            },
            OptimConfig::default(),
        );
        trainer.fit(&mut model, &d.train);
        let report = trainer.evaluate(&model, &d.test);
        let scores = trainer.score_split(&model, &d.test);
        let batch = Batch::from_split(&d.test, &(0..100.min(d.test.len())).collect::<Vec<_>>());
        let logits = ServingMoe::new(&model).predict_logits(&batch);
        reports.push((threads, report));
        all_scores.push(scores);
        all_logits.push(logits);
    }
    pool::clear_threads_override();

    let (_, r0) = reports[0];
    for &(threads, r) in &reports[1..] {
        // EvalReport holds f64 aggregates; determinism means exact bits.
        assert!(
            r.auc == r0.auc
                && r.ndcg == r0.ndcg
                && r.ndcg_at_10 == r0.ndcg_at_10
                && r.global_auc == r0.global_auc
                && r.log_loss == r0.log_loss
                && r.sessions == r0.sessions,
            "EvalReport diverged at {threads} threads: {r:?} vs {r0:?}"
        );
    }
    for (i, &threads) in THREAD_SWEEP.iter().enumerate().skip(1) {
        assert_eq!(
            all_scores[i], all_scores[0],
            "eval scores diverged at {threads} threads"
        );
        assert_eq!(
            all_logits[i], all_logits[0],
            "serving logits diverged at {threads} threads"
        );
        assert_eq!(
            all_wide_logits[i], all_wide_logits[0],
            "N=32 serving logits diverged at {threads} threads"
        );
    }
}

#[test]
fn train_step_losses_identical_across_thread_counts() {
    // The split-graph training path fans per-expert forwards/backwards
    // across the pool; every loss component must still be bit-identical
    // for every thread budget, step by step.
    let d = generate(&GeneratorConfig::tiny(49));
    let batch = Batch::from_split(&d.train, &(0..96.min(d.train.len())).collect::<Vec<_>>());
    // Losses can match while a gradient differs, so the sweep also
    // compares the trained parameters' fingerprints, the two baselines'
    // (DNN and a 4-task MMoE, which share one step) among them.
    let task_of_tc = equal_count_task_buckets(&d.train, d.hierarchy.num_tc(), 4);
    let sweep = |threads: usize| -> (Vec<[f32; 5]>, [u64; 3]) {
        pool::set_threads(threads);
        let mut model = MoeModel::new(
            &d.meta,
            MoeConfig {
                n_experts: 8,
                top_k: 2,
                ..MoeConfig::adv_hsc_moe()
            },
            OptimConfig::default(),
        );
        let losses = (0..6)
            .map(|_| {
                let s = model.train_step(&batch);
                [s.loss, s.ce, s.hsc, s.adv, s.load_balance]
            })
            .collect();
        let mut dnn = DnnModel::new(&d.meta, &MoeConfig::default(), OptimConfig::default());
        let mut mmoe = MmoeModel::new(
            &d.meta,
            &MoeConfig::default(),
            8,
            task_of_tc.clone(),
            OptimConfig::default(),
        );
        for _ in 0..6 {
            dnn.train_step(&batch);
            mmoe.train_step(&batch);
        }
        let hashes = [model.params(), dnn.params(), mmoe.params()].map(param_hash);
        (losses, hashes)
    };
    let reference = sweep(1);
    assert!(reference.0.iter().flatten().all(|v| v.is_finite()));
    for threads in [2usize, 4, 8] {
        assert_eq!(
            sweep(threads),
            reference,
            "train_step losses or parameters diverged at {threads} threads"
        );
    }
    pool::clear_threads_override();
}

/// FNV-1a (64-bit) state, fed one `u64` at a time as little-endian
/// bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// FNV-1a over every parameter's f32 bits, in registration order.
fn param_hash(params: &ParamSet) -> u64 {
    let mut h = Fnv::new();
    for (_, m) in params.iter() {
        for &v in m.as_slice() {
            h.eat(u64::from(v.to_bits()));
        }
    }
    h.0
}

#[test]
fn trained_parameters_match_pinned_fingerprints() {
    // The constants were taken from the training step that ran every
    // expert tower on every row. Any change to the step — which rows a
    // tower sees, the order gradients merge in, the RNG draw order —
    // moves them, so a rewrite of the step must keep every parameter
    // bit for bit. The cases cover both regularisers, a model with
    // neither, every idle expert adversarial, the widest gate input,
    // and a 3-row batch at K = 1 where some experts get no rows.
    let d = generate(&GeneratorConfig::tiny(49));
    let batch = |rows: usize| Batch::from_split(&d.train, &(0..rows).collect::<Vec<_>>());
    let trained = |config: MoeConfig, rows: usize| {
        let batch = batch(rows);
        let mut model = MoeModel::new(&d.meta, config, OptimConfig::default());
        for _ in 0..6 {
            model.train_step(&batch);
        }
        param_hash(model.params())
    };
    let narrow = |config: MoeConfig| MoeConfig {
        n_experts: 8,
        top_k: 2,
        ..config
    };
    let hashes = [
        trained(narrow(MoeConfig::adv_hsc_moe()), 96),
        trained(MoeConfig::moe(), 96),
        trained(
            MoeConfig {
                n_adversarial: 6,
                ..narrow(MoeConfig::adv_moe())
            },
            96,
        ),
        trained(
            MoeConfig {
                gate_input: GateInput::All,
                ..narrow(MoeConfig::adv_hsc_moe())
            },
            96,
        ),
        trained(
            MoeConfig {
                top_k: 1,
                ..MoeConfig::adv_hsc_moe()
            },
            3,
        ),
    ];
    // One fine-tuning step on two experts: the frozen parameters'
    // gradients are zeroed before the update, so this pins the tuned
    // towers' gradients on their own.
    let mut model = MoeModel::new(
        &d.meta,
        narrow(MoeConfig::adv_hsc_moe()),
        OptimConfig::default(),
    );
    FineTuner::for_experts(&model, &[1, 5], 1e-2).step(&mut model, &batch(96));
    let finetuned = param_hash(model.params());
    assert_eq!(
        hashes,
        [
            0x5A6E_038F_3487_8192,
            0xF1BF_F959_857E_5894,
            0x81F8_B13B_70B1_C5E5,
            0xA8EC_6451_2166_D8B0,
            0x32F1_DC01_D502_4B71,
        ],
        "trained parameters moved"
    );
    assert_eq!(
        finetuned, 0x6DDC_7FCF_A65E_C07E,
        "fine-tuned parameters moved"
    );

    // The embedding gradients' scatter order: the TC table read by both
    // the gate input and the constraint gate (and the user-segment and
    // query tables by the gate input), tables much larger than the
    // batch, and the two baselines that share the encoder.
    let wide = generate(&GeneratorConfig {
        brands_per_tc: 2_000,
        n_shops: 5_000,
        ..GeneratorConfig::tiny(49)
    });
    let mut wide_model = MoeModel::new(
        &wide.meta,
        narrow(MoeConfig::adv_hsc_moe()),
        OptimConfig::default(),
    );
    let wide_batch = Batch::from_split(&wide.train, &(0..96).collect::<Vec<_>>());
    for _ in 0..6 {
        wide_model.train_step(&wide_batch);
    }
    let mut dnn = DnnModel::new(&d.meta, &MoeConfig::default(), OptimConfig::default());
    let task_of_tc = equal_count_task_buckets(&d.train, d.hierarchy.num_tc(), 4);
    let mut mmoe = MmoeModel::new(
        &d.meta,
        &MoeConfig::default(),
        8,
        task_of_tc,
        OptimConfig::default(),
    );
    for _ in 0..6 {
        dnn.train_step(&batch(96));
        mmoe.train_step(&batch(96));
    }
    let gate_input = |gate_input: GateInput| MoeConfig {
        gate_input,
        ..narrow(MoeConfig::adv_hsc_moe())
    };
    assert_eq!(
        [
            trained(gate_input(GateInput::TcSc), 96),
            trained(gate_input(GateInput::UserTcSc), 96),
            trained(gate_input(GateInput::QueryTcSc), 96),
            param_hash(wide_model.params()),
            param_hash(dnn.params()),
            param_hash(mmoe.params()),
        ],
        [
            0xA10F_2B92_8E3A_0A55,
            0xA152_FFDE_1431_201A,
            0x7108_E538_F51E_315A,
            0x3BFC_3CAF_0680_0998,
            0xF145_F5E8_8C82_5928,
            0x17CC_368C_AE63_28F6,
        ],
        "embedding-gradient cases moved"
    );
}

#[test]
fn blocked_gemm_bit_identical_to_serial_oracle_across_thread_counts() {
    // The cache-blocked packed kernels promise *exact* equality with the
    // naive serial reference — blocking and row-splitting must never
    // re-associate an accumulation chain. A KC-crossing depth (300 >
    // 256) above the parallel threshold exercises both mechanisms.
    let mut rng = Rng::seed_from(51);
    let a = rng.normal_matrix(48, 300, 0.0, 1.0);
    let b = rng.normal_matrix(300, 40, 0.0, 1.0);
    let at = rng.normal_matrix(300, 48, 0.0, 1.0);
    let bt = rng.normal_matrix(40, 300, 0.0, 1.0);
    let oracle = (
        reference::matmul(&a, &b),
        reference::matmul_tn(&at, &b),
        reference::matmul_nt(&a, &bt),
    );
    for &threads in &THREAD_SWEEP {
        pool::set_threads(threads);
        assert_eq!(
            matmul::matmul(&a, &b),
            oracle.0,
            "blocked nn kernel diverged from oracle at {threads} threads"
        );
        assert_eq!(
            matmul::matmul_tn(&at, &b),
            oracle.1,
            "blocked tn kernel diverged from oracle at {threads} threads"
        );
        assert_eq!(
            matmul::matmul_nt(&a, &bt),
            oracle.2,
            "blocked nt kernel diverged from oracle at {threads} threads"
        );
    }
    pool::clear_threads_override();
}

#[test]
fn repeated_runs_same_seed_identical() {
    // Control: two identical runs under the same (default) thread budget
    // must agree bit-for-bit — rules out hidden global state.
    let run = || {
        let d = generate(&GeneratorConfig::tiny(48));
        let mut model = MoeModel::new(
            &d.meta,
            MoeConfig {
                n_experts: 6,
                top_k: 2,
                ..MoeConfig::default()
            },
            OptimConfig::default(),
        );
        let batch = Batch::from_split(&d.train, &(0..64).collect::<Vec<_>>());
        for _ in 0..5 {
            model.train_step(&batch);
        }
        ServingMoe::new(&model).predict_logits(&batch)
    };
    assert_eq!(run(), run());
}

/// Every field of every example in a drift window, with floats as raw
/// bits so equality is exact.
#[allow(clippy::type_complexity)]
fn drift_fingerprint(world: &DriftWorld, ticks: &[u64], sessions: usize) -> Vec<Vec<u64>> {
    ticks
        .iter()
        .map(|&t| {
            let w = world.window(t, sessions);
            let mut fp = Vec::with_capacity(w.split.len() * 12);
            fp.push(w.tick);
            fp.push(w.split.sessions.len() as u64);
            for e in &w.split.examples {
                fp.push(u64::from(e.session));
                fp.push(u64::from(e.query));
                fp.push(e.true_sc as u64);
                fp.push(e.pred_sc as u64);
                fp.push(e.brand as u64);
                fp.push(e.shop as u64);
                fp.push(e.user_segment as u64);
                fp.push(e.price_bucket as u64);
                fp.push(u64::from(e.label));
                fp.push(u64::from(e.raw_sales.to_bits()));
                for v in e.numeric {
                    fp.push(u64::from(v.to_bits()));
                }
            }
            fp
        })
        .collect()
}

#[test]
fn drift_stream_windows_identical_across_runs_and_thread_counts() {
    // The drifting session stream feeds the online train→reload loop;
    // if it wobbled with the thread budget, "replay the same stream"
    // benchmarks would compare different workloads. Same seed + same
    // drift schedule ⇒ bit-identical windows for every AMOE_THREADS,
    // for repeated construction, and for out-of-order window access.
    let base = GeneratorConfig::tiny(47);
    let drift = DriftConfig::default();
    let ticks = [0u64, 1, 2, 5, 9];

    let reference = drift_fingerprint(&DriftWorld::new(&base, &drift), &ticks, 12);
    assert!(
        reference.iter().any(|fp| fp.len() > 2),
        "fingerprint must cover real examples"
    );

    for &threads in &THREAD_SWEEP {
        pool::set_threads(threads);
        let world = DriftWorld::new(&base, &drift);
        assert_eq!(
            drift_fingerprint(&world, &ticks, 12),
            reference,
            "drift stream diverged at {threads} threads"
        );
        // Windows are pure functions of (world, tick): reading the
        // stream backwards must reproduce the forward read exactly.
        let mut reversed: Vec<u64> = ticks.to_vec();
        reversed.reverse();
        let mut back = drift_fingerprint(&world, &reversed, 12);
        back.reverse();
        assert_eq!(
            back, reference,
            "out-of-order window access diverged at {threads} threads"
        );
    }
    pool::clear_threads_override();

    // A different drift seed must actually change the stream (the
    // schedule is not vestigial).
    let other = DriftWorld::new(
        &base,
        &DriftConfig {
            seed: drift.seed + 1,
            ..drift
        },
    );
    assert_ne!(
        drift_fingerprint(&other, &ticks, 12),
        reference,
        "drift schedule seed must matter"
    );
}

/// FNV-1a over the session ranges and every field of every example of
/// a split, with floats as raw bits.
fn split_hash(split: &Split) -> u64 {
    let mut h = Fnv::new();
    let mut eat = |v: u64| h.eat(v);
    for r in &split.sessions {
        eat(r.start as u64);
        eat(r.end as u64);
    }
    for e in &split.examples {
        eat(u64::from(e.session));
        eat(u64::from(e.query));
        eat(e.true_sc as u64);
        eat(e.true_tc as u64);
        eat(e.pred_sc as u64);
        eat(e.pred_tc as u64);
        eat(e.brand as u64);
        eat(e.shop as u64);
        eat(e.user_segment as u64);
        eat(e.price_bucket as u64);
        for v in e.numeric {
            eat(u64::from(v.to_bits()));
        }
        eat(u64::from(e.label));
        eat(u64::from(e.raw_sales.to_bits()));
    }
    h.0
}

#[test]
fn generated_data_matches_pinned_fingerprints() {
    // The constants were taken from the generator that drew each shop
    // with the direct inverse-CDF Zipf sampler. Any change to how the
    // log or a drift window is drawn — sampler, draw order, float
    // chain — moves them, so sampler rewrites must keep every example
    // bit for bit.
    let static_log: Vec<(u64, u64)> = [1u64, 2]
        .iter()
        .map(|&seed| {
            let d = generate(&GeneratorConfig::tiny(seed));
            (split_hash(&d.train), split_hash(&d.test))
        })
        .collect();
    let stream = SessionStream::new(&GeneratorConfig::tiny(47), &DriftConfig::default(), 12);
    let window = stream.window_at(5);
    let drift_window = (window.tick, split_hash(&window.split));
    assert_eq!(
        static_log,
        [
            (0xCE44_29FB_F283_D293, 0xE3AC_F40F_E999_A900),
            (0x3710_C487_6E7E_1E29, 0x2909_F27F_6ACE_EA8D),
        ],
        "static log moved"
    );
    assert_eq!(
        drift_window,
        (5, 0x450A_15CF_450C_7A98),
        "drift window moved"
    );
}
