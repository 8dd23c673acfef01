//! Sparse/dense parity: the tape-free top-K path — the one that serves
//! and that `Ranker::predict` evaluates through — must reproduce the
//! training-graph dense forward (all experts computed, evaluation mode)
//! bit for bit for every model variant of the paper — vanilla MoE,
//! Adv-MoE, HSC-MoE, Adv & HSC-MoE — including the `K = N` edge case
//! where the "sparse" path runs every expert. Both sides cut each row's
//! top-K with the same rounding (`topk::top_k_softmax` equals the tape's
//! masked `softmax_rows`), add the weighted tower outputs in ascending
//! expert order, and run row-shape-invariant GEMMs.

use adv_hsc_moe::dataset::{generate, Batch, GeneratorConfig};
use adv_hsc_moe::moe::config::TowerConfig;
use adv_hsc_moe::moe::ranker::{OptimConfig, Ranker};
use adv_hsc_moe::moe::serving::ServingMoe;
use adv_hsc_moe::moe::{MoeConfig, MoeModel};
use adv_hsc_moe::tensor::{ops, Matrix};

fn small(cfg: MoeConfig) -> MoeConfig {
    MoeConfig {
        n_experts: 6,
        top_k: 2,
        tower: TowerConfig {
            hidden: vec![12, 6],
        },
        ..cfg
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|v| v.to_bits()).collect()
}

/// Trains briefly (so weights are away from init) and asserts the two
/// paths agree on raw logits, bit for bit.
fn assert_parity(cfg: MoeConfig, label: &str) {
    let d = generate(&GeneratorConfig::tiny(43));
    let mut model = MoeModel::new(&d.meta, cfg, OptimConfig::default());
    let train_batch = Batch::from_split(&d.train, &(0..128).collect::<Vec<_>>());
    for _ in 0..8 {
        model.train_step(&train_batch);
    }
    let batch = Batch::from_split(&d.test, &(0..64).collect::<Vec<_>>());
    let dense = model.predict_logits_dense(&batch);
    let sparse = ServingMoe::new(&model).predict_logits(&batch);
    assert_eq!(
        bits(&dense),
        bits(&sparse),
        "{label}: dense vs sparse logits"
    );
}

#[test]
fn parity_vanilla_moe() {
    assert_parity(small(MoeConfig::moe()), "MoE");
}

#[test]
fn parity_adv_moe() {
    assert_parity(small(MoeConfig::adv_moe()), "Adv-MoE");
}

#[test]
fn parity_hsc_moe() {
    assert_parity(small(MoeConfig::hsc_moe()), "HSC-MoE");
}

#[test]
fn parity_adv_hsc_moe() {
    assert_parity(small(MoeConfig::adv_hsc_moe()), "Adv & HSC-MoE");
}

#[test]
fn parity_k_equals_n_edge_case() {
    // With K = N the gate's masked softmax covers the full support and
    // every expert receives every example; the paths must still agree.
    // (Adversarial training is excluded here by construction: it needs
    // N - K ≥ 1 idle experts to disagree, and the config validates that.)
    let cfg = MoeConfig {
        top_k: 6,
        ..small(MoeConfig::hsc_moe())
    };
    assert_eq!(cfg.top_k, cfg.n_experts);
    assert_parity(cfg, "HSC-MoE, K=N");
}

#[test]
fn parity_k_one_edge_case() {
    // The opposite extreme: a single active expert per example.
    let cfg = MoeConfig {
        top_k: 1,
        ..small(MoeConfig::moe())
    };
    assert_parity(cfg, "MoE, K=1");
}

#[test]
fn parity_probabilities_too() {
    // End-to-end: sigmoid outputs (what the ranker actually serves).
    let d = generate(&GeneratorConfig::tiny(44));
    let mut model = MoeModel::new(
        &d.meta,
        small(MoeConfig::adv_hsc_moe()),
        OptimConfig::default(),
    );
    let train_batch = Batch::from_split(&d.train, &(0..128).collect::<Vec<_>>());
    for _ in 0..8 {
        model.train_step(&train_batch);
    }
    let batch = Batch::from_split(&d.test, &(0..50).collect::<Vec<_>>());
    let dense = ops::sigmoid(&Matrix::from_vec(
        batch.len(),
        1,
        model.predict_logits_dense(&batch),
    ));
    let dense = bits(dense.as_slice());
    assert_eq!(bits(&ServingMoe::new(&model).predict(&batch)), dense);
    assert_eq!(bits(&model.predict(&batch)), dense, "evaluation scores");
}
