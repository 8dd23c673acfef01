//! The paper's training-loss components.
//!
//! * [`hsc_loss`] — Hierarchical Soft Constraint (Eq. 9–11).
//! * [`adversarial_loss`] — disagreement reward between top-K and sampled
//!   idle experts (Eq. 12).
//! * [`load_balance_loss`] — Shazeer-style importance CV² regulariser,
//!   inherited from the paper's ref \[24\].
//! * [`sample_adversarial_mask`] — the per-example random choice of `D`
//!   disagreeing experts with `U_d ∩ U_topK = ∅`.

use amoe_autograd::Var;
use amoe_tensor::{Matrix, Rng};

/// Hierarchical Soft Constraint (Eq. 9–11):
///
/// ```text
/// p_I = softmax(G_I(x_sc))        (full support)
/// p_C = softmax(G_C(x_tc))        (full support)
/// HSC  = Σ_{i ∈ U_topK} (p_I[i] − p_C[i])²     per example
/// ```
///
/// Returns the per-example `B x 1` penalty. Both gates receive gradients
/// (Eq. 16); the expert towers cannot, because no expert output enters
/// the expression (Eq. 15).
#[must_use]
pub fn hsc_loss<'t>(
    inference_logits: Var<'t>,
    constraint_logits: Var<'t>,
    topk_mask: &Matrix,
) -> Var<'t> {
    let p_i = inference_logits.softmax_rows();
    let p_c = constraint_logits.softmax_rows();
    let gap = p_i - p_c;
    (gap * gap).mul_const(topk_mask).row_sum()
}

/// Samples the adversarial (disagreeing) expert mask: for each row, `d`
/// ones placed uniformly at random on coordinates where `topk_mask` is
/// zero (`U_d ∩ U_topK = ∅` by construction).
///
/// # Panics
/// Panics if any row has fewer than `d` idle experts.
#[must_use]
pub fn sample_adversarial_mask(topk_mask: &Matrix, d: usize, rng: &mut Rng) -> Matrix {
    let (rows, cols) = topk_mask.shape();
    let mut mask = Matrix::zeros(rows, cols);
    let mut idle: Vec<usize> = Vec::with_capacity(cols);
    let mut picks: Vec<usize> = Vec::with_capacity(cols);
    for r in 0..rows {
        idle.clear();
        idle.extend((0..cols).filter(|&c| topk_mask[(r, c)] == 0.0));
        assert!(
            idle.len() >= d,
            "sample_adversarial_mask: row {r} has {} idle experts, need {d}",
            idle.len()
        );
        rng.sample_distinct_into(idle.len(), d, &mut picks);
        for &pick in &picks {
            mask[(r, idle[pick])] = 1.0;
        }
    }
    mask
}

/// Adversarial loss (Eq. 12):
///
/// ```text
/// AdvLoss = Σ_{i ∈ U_topK} Σ_{j ∈ U_d} (σ(E_i(X)) − σ(E_j(X)))²
/// ```
///
/// computed per example over the `B x N` matrix of expert logits via the
/// mask-algebra expansion
///
/// ```text
/// Σ_{i∈M} Σ_{j∈A} (s_i − s_j)²
///   = |A|·Σ_M s² − 2·(Σ_M s)(Σ_A s) + |M|·Σ_A s²
/// ```
///
/// which keeps the whole expression differentiable w.r.t. every involved
/// expert (both the top-K and the disagreeing ones) while the masks stay
/// constants. Returns the per-example `B x 1` reward (subtracted from
/// the objective, Eq. 14).
///
/// # Panics
/// Panics if the masks' shapes differ from the expert matrix.
#[must_use]
pub fn adversarial_loss<'t>(
    expert_logits: Var<'t>,
    topk_mask: &Matrix,
    adv_mask: &Matrix,
    k: usize,
    d: usize,
) -> Var<'t> {
    assert_eq!(expert_logits.shape(), topk_mask.shape());
    assert_eq!(expert_logits.shape(), adv_mask.shape());
    let s = expert_logits.sigmoid();
    let s2 = s * s;
    let sum_m = s.mul_const(topk_mask).row_sum();
    let sum_a = s.mul_const(adv_mask).row_sum();
    let sum_m2 = s2.mul_const(topk_mask).row_sum();
    let sum_a2 = s2.mul_const(adv_mask).row_sum();
    sum_m2.scale(d as f32) - (sum_m * sum_a).scale(2.0) + sum_a2.scale(k as f32)
}

/// Load-balancing loss over the batch: the squared coefficient of
/// variation of per-expert importance (column sums of the gate
/// probabilities), `CV²(imp) = N·Σimp² / (Σimp)² − 1`.
///
/// Returns a scalar (`1 x 1`) node.
#[must_use]
pub fn load_balance_loss<'t>(probs: Var<'t>) -> Var<'t> {
    let n = probs.shape().1 as f32;
    let imp = probs.col_sum();
    let sum_sq = (imp * imp).sum_all();
    let sq_sum = {
        let s = imp.sum_all();
        s * s
    };
    (sum_sq / sq_sum).scale(n).add_scalar(-1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoe_autograd::gradcheck::assert_gradients;
    use amoe_autograd::Tape;
    use amoe_tensor::topk;

    #[test]
    fn hsc_zero_when_gates_agree() {
        let tape = Tape::new();
        let logits = Matrix::from_rows(&[&[1.0, 2.0, 0.5, -1.0]]);
        let a = tape.leaf(logits.clone());
        let b = tape.leaf(logits.clone());
        let mask = topk::row_topk_mask(&logits, 2);
        let h = hsc_loss(a, b, &mask);
        assert!(h.value()[(0, 0)].abs() < 1e-7);
    }

    #[test]
    fn hsc_positive_when_gates_disagree() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_rows(&[&[3.0, 0.0, 0.0]]));
        let b = tape.leaf(Matrix::from_rows(&[&[0.0, 3.0, 0.0]]));
        let mask = Matrix::from_rows(&[&[1.0, 1.0, 0.0]]);
        let h = hsc_loss(a, b, &mask).value()[(0, 0)];
        assert!(h > 0.1, "h = {h}");
    }

    #[test]
    fn hsc_only_counts_topk_coordinates() {
        let tape = Tape::new();
        // Gates agree on coordinate 0, disagree on 2; mask selects only 0.
        let a = tape.leaf(Matrix::from_rows(&[&[2.0, 0.0, -5.0]]));
        let b = tape.leaf(Matrix::from_rows(&[&[2.0, 0.0, 5.0]]));
        let mask = Matrix::from_rows(&[&[1.0, 0.0, 0.0]]);
        let h = hsc_loss(a, b, &mask).value()[(0, 0)];
        // Probabilities still differ on coordinate 0 because softmax is
        // normalised over all coordinates — but the gap is modest.
        let full_mask = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        let tape2 = Tape::new();
        let a2 = tape2.leaf(Matrix::from_rows(&[&[2.0, 0.0, -5.0]]));
        let b2 = tape2.leaf(Matrix::from_rows(&[&[2.0, 0.0, 5.0]]));
        let h_full = hsc_loss(a2, b2, &full_mask).value()[(0, 0)];
        assert!(h < h_full);
    }

    #[test]
    fn hsc_gradcheck() {
        let mut rng = Rng::seed_from(1);
        let gi = rng.normal_matrix(3, 5, 0.0, 1.0);
        let gc = rng.normal_matrix(3, 5, 0.0, 1.0);
        let mask = topk::row_topk_mask(&gi, 2);
        assert_gradients(
            move |_t, v| hsc_loss(v[0], v[1], &mask).mean_all().into(),
            &[gi.clone(), gc],
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn adversarial_mask_disjoint_and_sized() {
        let mut rng = Rng::seed_from(2);
        let logits = rng.normal_matrix(20, 10, 0.0, 1.0);
        let m = topk::row_topk_mask(&logits, 4);
        let a = sample_adversarial_mask(&m, 2, &mut rng);
        for r in 0..20 {
            let ones: f32 = a.row(r).iter().sum();
            assert_eq!(ones, 2.0, "row {r}");
            for c in 0..10 {
                assert!(
                    !(m[(r, c)] == 1.0 && a[(r, c)] == 1.0),
                    "overlap at ({r},{c})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "idle experts")]
    fn adversarial_mask_panics_when_no_idle() {
        let m = Matrix::ones(1, 4); // everything selected
        let mut rng = Rng::seed_from(3);
        let _ = sample_adversarial_mask(&m, 1, &mut rng);
    }

    #[test]
    fn adversarial_loss_matches_naive_double_sum() {
        let mut rng = Rng::seed_from(4);
        let logits = rng.normal_matrix(6, 8, 0.0, 1.5);
        let m = topk::row_topk_mask(&logits, 3);
        let a = sample_adversarial_mask(&m, 2, &mut rng);
        let tape = Tape::new();
        let e = tape.leaf(logits.clone());
        let fast = adversarial_loss(e, &m, &a, 3, 2).value();
        // Naive reference.
        for r in 0..6 {
            let mut naive = 0.0f32;
            for i in 0..8 {
                for j in 0..8 {
                    if m[(r, i)] == 1.0 && a[(r, j)] == 1.0 {
                        let si = amoe_tensor::ops::sigmoid_scalar(logits[(r, i)]);
                        let sj = amoe_tensor::ops::sigmoid_scalar(logits[(r, j)]);
                        naive += (si - sj) * (si - sj);
                    }
                }
            }
            assert!(
                (fast[(r, 0)] - naive).abs() < 1e-4,
                "row {r}: {} vs {naive}",
                fast[(r, 0)]
            );
        }
    }

    #[test]
    fn adversarial_loss_gradcheck() {
        let mut rng = Rng::seed_from(5);
        let logits = rng.normal_matrix(3, 6, 0.0, 1.0);
        let m = topk::row_topk_mask(&logits, 2);
        let a = sample_adversarial_mask(&m, 2, &mut rng);
        assert_gradients(
            move |_t, v| adversarial_loss(v[0], &m, &a, 2, 2).mean_all().into(),
            std::slice::from_ref(&logits),
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn adversarial_loss_zero_when_experts_identical() {
        let tape = Tape::new();
        let e = tape.leaf(Matrix::filled(2, 5, 0.7));
        let m = Matrix::from_rows(&[&[1., 1., 0., 0., 0.], &[0., 1., 1., 0., 0.]]);
        let a = Matrix::from_rows(&[&[0., 0., 1., 0., 0.], &[0., 0., 0., 1., 0.]]);
        let v = adversarial_loss(e, &m, &a, 2, 1).value();
        assert!(v.as_slice().iter().all(|x| x.abs() < 1e-7));
    }

    #[test]
    fn load_balance_zero_when_uniform() {
        let tape = Tape::new();
        let p = tape.leaf(Matrix::filled(4, 5, 0.2));
        let l = load_balance_loss(p).value()[(0, 0)];
        assert!(l.abs() < 1e-6, "l = {l}");
    }

    #[test]
    fn load_balance_positive_when_skewed() {
        let tape = Tape::new();
        let p = tape.leaf(Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[1.0, 0.0, 0.0]]));
        let l = load_balance_loss(p).value()[(0, 0)];
        assert!(l > 1.0, "l = {l}");
    }

    #[test]
    fn load_balance_gradcheck() {
        let mut rng = Rng::seed_from(6);
        // Positive probabilities (softmax output in practice).
        let logits = rng.normal_matrix(4, 5, 0.0, 1.0);
        assert_gradients(
            move |_t, v| load_balance_loss(v[0].softmax_rows()).into(),
            std::slice::from_ref(&logits),
            1e-2,
            2e-2,
        );
    }
}
