//! End-to-end integration tests: dataset → training → evaluation →
//! checkpointing → serving, across crate boundaries.

use adv_hsc_moe::dataset::{generate, Batch, GeneratorConfig};
use adv_hsc_moe::moe::ranker::OptimConfig;
use adv_hsc_moe::moe::serving::ServingMoe;
use adv_hsc_moe::moe::{DnnModel, MmoeModel, MoeConfig, MoeModel, Ranker, TrainConfig, Trainer};
use adv_hsc_moe::nn::ParamSet;
use adv_hsc_moe::tensor::{ops, Matrix};

fn small_data(seed: u64) -> adv_hsc_moe::dataset::Dataset {
    generate(&GeneratorConfig {
        seed,
        train_sessions: 600,
        test_sessions: 150,
        ..GeneratorConfig::default()
    })
}

fn small_cfg() -> MoeConfig {
    MoeConfig {
        n_experts: 6,
        top_k: 2,
        ..MoeConfig::default()
    }
}

fn trainer() -> Trainer {
    Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 256,
        ..TrainConfig::default()
    })
}

#[test]
fn every_model_beats_chance_end_to_end() {
    let data = small_data(1);
    let t = trainer();
    let optim = OptimConfig::default();

    let mut models: Vec<Box<dyn Ranker>> = vec![
        Box::new(DnnModel::new(&data.meta, &small_cfg(), optim)),
        Box::new(MoeModel::new(&data.meta, small_cfg(), optim)),
        Box::new(MoeModel::new(
            &data.meta,
            MoeConfig {
                adversarial: true,
                hsc: true,
                ..small_cfg()
            },
            optim,
        )),
        Box::new(MmoeModel::new(
            &data.meta,
            &small_cfg(),
            4,
            adv_hsc_moe::dataset::buckets::equal_count_task_buckets(
                &data.train,
                data.hierarchy.num_tc(),
                4,
            ),
            optim,
        )),
    ];
    for model in &mut models {
        t.fit(model.as_mut(), &data.train);
        let r = t.evaluate(model.as_ref(), &data.test);
        assert!(
            r.auc > 0.6,
            "{} end-to-end AUC {:.4} too low",
            model.name(),
            r.auc
        );
        assert!(
            r.log_loss < 0.6,
            "{} log-loss {:.3}",
            model.name(),
            r.log_loss
        );
    }
}

#[test]
fn checkpoint_roundtrip_preserves_predictions() {
    let data = small_data(2);
    let t = trainer();
    let mut model = MoeModel::new(
        &data.meta,
        MoeConfig {
            adversarial: true,
            hsc: true,
            ..small_cfg()
        },
        OptimConfig::default(),
    );
    t.fit(&mut model, &data.train);
    let batch = Batch::from_split(&data.test, &(0..64).collect::<Vec<_>>());
    let before = model.predict(&batch);

    let path = std::env::temp_dir().join(format!("amoe_e2e_{}.ckpt", std::process::id()));
    model.params().save(&path).unwrap();

    // A freshly initialised model predicts differently; after restoring
    // the checkpoint it must agree bit-for-bit.
    let mut fresh = MoeModel::new(
        &data.meta,
        MoeConfig {
            adversarial: true,
            hsc: true,
            ..small_cfg()
        },
        OptimConfig::default(),
    );
    assert_ne!(before, fresh.predict(&batch));
    let loaded = ParamSet::load(&path).unwrap();
    fresh.params_mut().load_values_from(&loaded).unwrap();
    assert_eq!(before, fresh.predict(&batch));
    std::fs::remove_file(&path).ok();
}

#[test]
fn serving_path_agrees_after_training() {
    let data = small_data(3);
    let t = trainer();
    let mut model = MoeModel::new(&data.meta, small_cfg(), OptimConfig::default());
    t.fit(&mut model, &data.train);
    let batch = Batch::from_split(&data.test, &(0..100).collect::<Vec<_>>());
    let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let dense = ops::sigmoid(&Matrix::from_vec(
        batch.len(),
        1,
        model.predict_logits_dense(&batch),
    ));
    let dense = bits(dense.as_slice());
    assert_eq!(bits(&ServingMoe::new(&model).predict(&batch)), dense);
    assert_eq!(bits(&model.predict(&batch)), dense, "evaluation scores");
}

#[test]
fn training_is_deterministic_given_seeds() {
    let run = || {
        let data = small_data(4);
        let t = trainer();
        let mut model = MoeModel::new(
            &data.meta,
            MoeConfig {
                adversarial: true,
                hsc: true,
                seed: 7,
                ..small_cfg()
            },
            OptimConfig::default(),
        );
        t.fit(&mut model, &data.train);
        let batch = Batch::from_split(&data.test, &(0..32).collect::<Vec<_>>());
        model.predict(&batch)
    };
    assert_eq!(run(), run(), "same seeds must give identical models");
}

#[test]
fn different_model_seeds_give_different_models() {
    let data = small_data(5);
    let t = trainer();
    let predict_with = |seed: u64| {
        let mut model = MoeModel::new(
            &data.meta,
            MoeConfig {
                seed,
                ..small_cfg()
            },
            OptimConfig::default(),
        );
        t.fit(&mut model, &data.train);
        let batch = Batch::from_split(&data.test, &(0..32).collect::<Vec<_>>());
        model.predict(&batch)
    };
    assert_ne!(predict_with(1), predict_with(2));
}

#[test]
fn semi_oracle_upper_bounds_trained_models() {
    // The generating weights applied to observed features should beat
    // any model trained from scratch on this few examples.
    let data = small_data(6);
    let t = trainer();
    let mut model = MoeModel::new(&data.meta, small_cfg(), OptimConfig::default());
    t.fit(&mut model, &data.train);
    let trained = t.evaluate(&model, &data.test);

    let oracle_scores: Vec<f32> = data
        .test
        .examples
        .iter()
        .map(|e| {
            data.truth
                .logit(e.true_sc, &e.numeric, data.brands.quality(e.brand))
        })
        .collect();
    let oracle = adv_hsc_moe::moe::trainer::evaluate_scores(&oracle_scores, &data.test);
    assert!(
        oracle.auc > trained.auc,
        "oracle {:.4} should exceed trained {:.4}",
        oracle.auc,
        trained.auc
    );
}
