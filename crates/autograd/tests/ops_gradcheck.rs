//! Finite-difference verification of every differentiable op's backward
//! pass. These tests are the correctness foundation for all training code
//! in the workspace.

use amoe_autograd::gradcheck::{assert_gradients, f32to_loss::LossId};
use amoe_autograd::{Tape, Var};
use amoe_tensor::{topk, Matrix, Rng};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

fn rand(rows: usize, cols: usize, seed: u64) -> Matrix {
    Rng::seed_from(seed).normal_matrix(rows, cols, 0.0, 1.0)
}

fn check(inputs: &[Matrix], f: impl Fn(&Tape, &[Var<'_>]) -> LossId) {
    assert_gradients(f, inputs, EPS, TOL);
}

#[test]
fn grad_add_sub() {
    check(&[rand(2, 3, 1), rand(2, 3, 2)], |_, v| {
        ((v[0] + v[1]).sum_all()).into()
    });
    check(&[rand(2, 3, 3), rand(2, 3, 4)], |_, v| {
        ((v[0] - v[1]).square().sum_all()).into()
    });
}

#[test]
fn grad_mul_div() {
    check(&[rand(2, 3, 5), rand(2, 3, 6)], |_, v| {
        ((v[0] * v[1]).sum_all()).into()
    });
    // Keep denominators away from zero for the divide check.
    let mut denom = rand(2, 3, 7);
    denom
        .as_mut_slice()
        .iter_mut()
        .for_each(|x| *x = 2.0 + x.abs());
    check(&[rand(2, 3, 8), denom], |_, v| {
        ((v[0] / v[1]).sum_all()).into()
    });
}

#[test]
fn grad_neg_scale_add_scalar() {
    check(&[rand(2, 2, 9)], |_, v| ((-v[0]).sum_all()).into());
    check(&[rand(2, 2, 10)], |_, v| (v[0].scale(3.5).sum_all()).into());
    check(&[rand(2, 2, 11)], |_, v| {
        (v[0].add_scalar(-1.25).square().sum_all()).into()
    });
}

#[test]
fn grad_matmul() {
    check(&[rand(3, 4, 12), rand(4, 2, 13)], |_, v| {
        (v[0].matmul(v[1]).square().sum_all()).into()
    });
}

#[test]
fn grad_matmul_chain() {
    check(&[rand(2, 3, 14), rand(3, 3, 15), rand(3, 1, 16)], |_, v| {
        (v[0].matmul(v[1]).relu().matmul(v[2]).sum_all()).into()
    });
}

#[test]
fn grad_row_broadcast_bias() {
    check(&[rand(4, 3, 17), rand(1, 3, 18)], |_, v| {
        (v[0].add_row(v[1]).square().sum_all()).into()
    });
}

#[test]
fn grad_col_broadcast() {
    check(&[rand(4, 3, 19), rand(4, 1, 20)], |_, v| {
        (v[0].mul_col(v[1]).square().sum_all()).into()
    });
}

#[test]
fn grad_activations() {
    // Shift ReLU inputs away from the kink at 0 for finite differences.
    let mut x = rand(3, 3, 21);
    x.as_mut_slice().iter_mut().for_each(|v| {
        if v.abs() < 0.1 {
            *v += 0.3;
        }
    });
    check(&[x], |_, v| (v[0].relu().square().sum_all()).into());
    check(&[rand(3, 3, 22)], |_, v| {
        (v[0].sigmoid().square().sum_all()).into()
    });
    check(&[rand(3, 3, 23)], |_, v| {
        (v[0].tanh().square().sum_all()).into()
    });
    check(&[rand(3, 3, 24)], |_, v| (v[0].softplus().sum_all()).into());
}

#[test]
fn grad_exp_ln() {
    check(&[rand(2, 3, 25)], |_, v| (v[0].exp().sum_all()).into());
    let mut pos = rand(2, 3, 26);
    pos.as_mut_slice()
        .iter_mut()
        .for_each(|x| *x = 1.0 + x.abs());
    check(&[pos], |_, v| (v[0].ln().sum_all()).into());
}

#[test]
fn grad_softmax_rows() {
    check(&[rand(3, 5, 27)], |_, v| {
        // Weighted sum makes the softmax Jacobian non-trivial.
        let w = Matrix::from_rows(&[&[1.0, -2.0, 0.5, 3.0, -1.0]]);
        (v[0].softmax_rows().mul_const(&w.gather_rows(&[0, 0, 0])))
            .sum_all()
            .into()
    });
}

#[test]
fn grad_masked_softmax_rows() {
    // Masks must stay fixed across perturbations: precompute from the
    // unperturbed logits and keep eps below the top-k margin.
    let x = rand(3, 6, 28);
    let mask = topk::row_topk_mask(&x, 3);
    let weight = rand(3, 6, 29);
    check(&[x], move |_, v| {
        (v[0].masked_softmax_rows(&mask).mul_const(&weight))
            .sum_all()
            .into()
    });
}

#[test]
fn grad_reductions() {
    check(&[rand(3, 4, 30)], |_, v| {
        (v[0].row_sum().square().sum_all()).into()
    });
    check(&[rand(3, 4, 31)], |_, v| {
        (v[0].col_sum().square().sum_all()).into()
    });
    check(&[rand(3, 4, 32)], |_, v| {
        (v[0].mean_all().square().sum_all()).into()
    });
}

#[test]
fn grad_concat_slice() {
    check(&[rand(3, 2, 34), rand(3, 3, 35)], |_, v| {
        let c = Var::concat_cols(&[v[0], v[1]]);
        (c.square().sum_all()).into()
    });
    check(&[rand(3, 5, 36)], |_, v| {
        (v[0].slice_cols(1, 4).square().sum_all()).into()
    });
}

#[test]
fn grad_mul_add_const() {
    let k = rand(3, 3, 37);
    let k2 = rand(3, 3, 38);
    check(&[rand(3, 3, 39)], move |_, v| {
        (v[0].mul_const(&k).add_const(&k2).square().sum_all()).into()
    });
}

#[test]
fn grad_bce_with_logits() {
    let targets = Matrix::from_rows(&[&[1.0, 0.0, 1.0, 0.0]]);
    check(&[rand(1, 4, 40)], move |_, v| {
        (v[0].bce_with_logits(&targets).mean_all()).into()
    });
}

#[test]
fn grad_detach_stops_flow() {
    // loss = sum(x * detach(x)); gradient must be detach(x) = x, NOT 2x.
    let x = Matrix::from_rows(&[&[2.0, -3.0]]);
    let tape = Tape::new();
    let v = tape.leaf(x.clone());
    let loss = (v * v.detach()).sum_all();
    let grads = tape.backward(loss);
    let g = grads.get(v).unwrap();
    assert!((g[(0, 0)] - 2.0).abs() < 1e-6);
    assert!((g[(0, 1)] + 3.0).abs() < 1e-6);
}

#[test]
fn grad_deep_mlp_composite() {
    // A realistic two-layer MLP head with bias, sigmoid output and BCE.
    let targets = Matrix::from_rows(&[&[1.0], &[0.0], &[1.0]]);
    check(
        &[
            rand(3, 4, 41), // x
            rand(4, 5, 42), // w1
            rand(1, 5, 43), // b1
            rand(5, 1, 44), // w2
            rand(1, 1, 45), // b2
        ],
        move |_, v| {
            let h = v[0].matmul(v[1]).add_row(v[2]).tanh();
            let logits = h.matmul(v[3]).add_row(v[4]);
            (logits.bce_with_logits(&targets).mean_all()).into()
        },
    );
}

#[test]
fn grad_moe_style_mixture() {
    // Miniature MoE: gate softmax over 3 "experts", weighted sum of
    // expert outputs, BCE — the exact composition pattern used by
    // amoe-core, gradient-checked end to end.
    let targets = Matrix::from_rows(&[&[1.0], &[0.0]]);
    check(
        &[
            rand(2, 3, 46), // gate logits
            rand(2, 1, 47), // expert 0 output
            rand(2, 1, 48), // expert 1 output
            rand(2, 1, 49), // expert 2 output
        ],
        move |_, v| {
            let p = v[0].softmax_rows();
            let e = Var::concat_cols(&[v[1], v[2], v[3]]);
            let logit = (p * e).row_sum();
            (logit.bce_with_logits(&targets).mean_all()).into()
        },
    );
}
