//! Finite-difference verification of the *complete* combined objective
//! (Eq. 14): CE + λ₁·HSC − λ₂·AdvLoss over a miniature MoE built from
//! scratch — embeddings, two-layer experts, both gates, masked top-K
//! softmax. This is the strongest correctness statement in the
//! reproduction: every gradient the training loop uses is validated
//! against numerics, including the paper's routing rules.

use amoe_autograd::gradcheck::assert_gradients;
use amoe_autograd::{Tape, Var};
use amoe_core::losses::{adversarial_loss, hsc_loss, sample_adversarial_mask};
use amoe_tensor::{matmul, topk, Matrix, Rng};

const B: usize = 4; // batch
const N: usize = 5; // experts
const K: usize = 2; // top-k
const D: usize = 2; // adversarial
const EMB: usize = 3;
const IN: usize = 6; // model input width (emb + numeric)
const H: usize = 4; // expert hidden width

struct Fixture {
    sc_table: Matrix,
    tc_table: Matrix,
    w_gate: Matrix,
    w_cgate: Matrix,
    expert_w1: Vec<Matrix>,
    expert_w2: Vec<Matrix>,
    numeric: Matrix,
    labels: Matrix,
    sc_idx: Vec<usize>,
    tc_idx: Vec<usize>,
    topk_mask: Matrix,
    adv_mask: Matrix,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = Rng::seed_from(seed);
    let sc_table = rng.normal_matrix(7, EMB, 0.0, 0.5);
    let tc_table = rng.normal_matrix(3, EMB, 0.0, 0.5);
    let w_gate = rng.normal_matrix(EMB, N, 0.0, 0.8);
    let w_cgate = rng.normal_matrix(EMB, N, 0.0, 0.8);
    let expert_w1: Vec<Matrix> = (0..N).map(|_| rng.normal_matrix(IN, H, 0.0, 0.6)).collect();
    let expert_w2: Vec<Matrix> = (0..N).map(|_| rng.normal_matrix(H, 1, 0.0, 0.6)).collect();
    let numeric = rng.normal_matrix(B, IN - EMB, 0.0, 1.0);
    let labels = Matrix::from_vec(
        B,
        1,
        (0..B).map(|i| f32::from(u8::from(i % 2 == 0))).collect(),
    );
    let sc_idx = vec![0usize, 3, 3, 6];
    let tc_idx = vec![0usize, 1, 1, 2];

    // Fix the gating masks from the unperturbed weights so that finite
    // differences never cross a top-K boundary (the masks are constants
    // in the training loop too — they come from the noisy forward pass).
    let sc_emb = sc_table.gather_rows(&sc_idx);
    let logits = matmul::matmul(&sc_emb, &w_gate);
    let topk_mask = topk::row_topk_mask(&logits, K);
    let adv_mask = sample_adversarial_mask(&topk_mask, D, &mut rng);

    Fixture {
        sc_table,
        tc_table,
        w_gate,
        w_cgate,
        expert_w1,
        expert_w2,
        numeric,
        labels,
        sc_idx,
        tc_idx,
        topk_mask,
        adv_mask,
    }
}

/// Builds the full Eq. 14 objective on a tape from parameter leaves.
/// Input order: sc_table, tc_table, w_gate, w_cgate, then per expert
/// (w1, w2).
fn build_loss<'t>(
    f: &Fixture,
    tape: &'t Tape,
    v: &[Var<'t>],
    lambda1: f32,
    lambda2: f32,
) -> Var<'t> {
    let (sc_table, tc_table, w_gate, w_cgate) = (v[0], v[1], v[2], v[3]);
    // An embedding lookup is a constant one-hot matrix times the table.
    let lookup = |table: Var<'t>, idx: &[usize]| {
        let mut one_hot = Matrix::zeros(idx.len(), table.shape().0);
        for (r, &i) in idx.iter().enumerate() {
            one_hot[(r, i)] = 1.0;
        }
        tape.leaf(one_hot).matmul(table)
    };
    let sc_emb = lookup(sc_table, &f.sc_idx);
    let tc_emb = lookup(tc_table, &f.tc_idx);
    let numeric = tape.leaf(f.numeric.clone()).detach();
    let x = Var::concat_cols(&[sc_emb, numeric]);

    let gate_logits = sc_emb.matmul(w_gate);
    let probs = gate_logits.masked_softmax_rows(&f.topk_mask);

    let outs: Vec<Var<'t>> = (0..N)
        .map(|e| {
            let w1 = v[4 + 2 * e];
            let w2 = v[5 + 2 * e];
            x.matmul(w1).relu().matmul(w2)
        })
        .collect();
    let experts = Var::concat_cols(&outs);
    let logit = (probs * experts).row_sum();
    let ce = logit.bce_with_logits(&f.labels);

    let c_logits = tc_emb.matmul(w_cgate);
    let hsc = hsc_loss(gate_logits, c_logits, &f.topk_mask);
    let adv = adversarial_loss(experts, &f.topk_mask, &f.adv_mask, K, D);

    (ce + hsc.scale(lambda1) - adv.scale(lambda2)).mean_all()
}

fn inputs(f: &Fixture) -> Vec<Matrix> {
    let mut ins = vec![
        f.sc_table.clone(),
        f.tc_table.clone(),
        f.w_gate.clone(),
        f.w_cgate.clone(),
    ];
    for e in 0..N {
        ins.push(f.expert_w1[e].clone());
        ins.push(f.expert_w2[e].clone());
    }
    ins
}

#[test]
fn combined_objective_gradcheck() {
    let f = fixture(2024);
    let ins = inputs(&f);
    assert_gradients(
        |tape, v| build_loss(&f, tape, v, 0.5, 0.3).into(),
        &ins,
        5e-3,
        3e-2,
    );
}

#[test]
fn ce_only_gradcheck() {
    let f = fixture(77);
    let ins = inputs(&f);
    assert_gradients(
        |tape, v| build_loss(&f, tape, v, 0.0, 0.0).into(),
        &ins,
        5e-3,
        3e-2,
    );
}

#[test]
fn hsc_gradient_routing_matches_eq15() {
    // Eq. 15: expert weights receive no HSC gradient. Compare expert
    // gradients with λ₁ = 0 vs λ₁ large — they must be identical, while
    // the gate gradients must differ.
    let f = fixture(99);
    let ins = inputs(&f);

    let grads_for = |lambda1: f32| -> Vec<Matrix> {
        let tape = Tape::new();
        let vars: Vec<Var<'_>> = ins.iter().map(|m| tape.leaf(m.clone())).collect();
        let loss = build_loss(&f, &tape, &vars, lambda1, 0.0);
        let grads = tape.backward(loss);
        vars.iter()
            .map(|&v| {
                let (r, c) = v.shape();
                grads.get_or_zeros(v, r, c)
            })
            .collect()
    };

    let g0 = grads_for(0.0);
    let g1 = grads_for(10.0);

    // Expert tower weights: identical gradients (no HSC flow).
    for e in 0..N {
        for slot in [4 + 2 * e, 5 + 2 * e] {
            amoe_tensor::assert_close(&g0[slot], &g1[slot], 1e-5, 1e-6);
        }
    }
    // Inference gate and constraint gate: gradients must change.
    let diff_gate = amoe_tensor::ops::sub(&g0[2], &g1[2]).frob_norm();
    let diff_cgate = amoe_tensor::ops::sub(&g0[3], &g1[3]).frob_norm();
    assert!(diff_gate > 1e-4, "inference gate unaffected by HSC");
    assert!(diff_cgate > 1e-4, "constraint gate unaffected by HSC");
}

#[test]
fn adv_gradient_reaches_both_expert_sets() {
    // Eq. 12/15: the adversarial term must push gradients into top-K
    // experts AND the sampled disagreeing experts, but not into experts
    // outside both sets.
    let f = fixture(123);
    let ins = inputs(&f);

    let grads_for = |lambda2: f32| -> Vec<Matrix> {
        let tape = Tape::new();
        let vars: Vec<Var<'_>> = ins.iter().map(|m| tape.leaf(m.clone())).collect();
        let loss = build_loss(&f, &tape, &vars, 0.0, lambda2);
        let grads = tape.backward(loss);
        vars.iter()
            .map(|&v| {
                let (r, c) = v.shape();
                grads.get_or_zeros(v, r, c)
            })
            .collect()
    };
    let g0 = grads_for(0.0);
    let g1 = grads_for(5.0);

    // Classify experts by whether any example selects them in either mask.
    for e in 0..N {
        let in_topk = (0..B).any(|r| f.topk_mask[(r, e)] == 1.0);
        let in_adv = (0..B).any(|r| f.adv_mask[(r, e)] == 1.0);
        let diff = amoe_tensor::ops::sub(&g0[4 + 2 * e], &g1[4 + 2 * e]).frob_norm();
        if in_topk || in_adv {
            assert!(
                diff > 1e-6,
                "expert {e} (topk={in_topk}, adv={in_adv}) got no adv gradient"
            );
        } else {
            assert!(
                diff < 1e-6,
                "untouched expert {e} received adv gradient {diff}"
            );
        }
    }
}
