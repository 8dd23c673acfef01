//! Noisy Top-K gating (paper Sec. 4.2–4.3.1, following Shazeer et al.
//! 2017, the paper's ref \[24\]).
//!
//! The inference gate is a single linear map from the gate input (the
//! sub-category embedding by default) to `N` expert logits (Eq. 5).
//! During training, Gaussian noise scaled by a *learned* softplus term is
//! added before the top-K cut (Noisy Top-K Gating), which smooths expert
//! assignment and lets gradient information reach near-miss experts.
//! The top-K logits go through a masked softmax (Eq. 6–7); the rest get
//! exactly zero probability.

use amoe_autograd::Var;
use amoe_nn::{Bound, Init, ParamId, ParamSet};
use amoe_tensor::{Matrix, Rng};

/// A linear gate with optional trainable noise.
pub struct NoisyTopKGate {
    w: ParamId,
    w_noise: Option<ParamId>,
    n_experts: usize,
}

/// Everything downstream consumers need from one gating pass.
pub struct GateOutput<'t> {
    /// Raw (noise-free) gate logits `G(x) = x · W` — the input to the
    /// full-support softmax used by the HSC terms (Eq. 9–10).
    pub clean_logits: Var<'t>,
    /// Noisy logits actually used for expert selection (equal to
    /// `clean_logits` when noise is off).
    pub noisy_logits: Var<'t>,
    /// Masked-softmax probabilities over the top-K (Eq. 7); zero outside.
    pub probs: Var<'t>,
    /// The 0/1 top-K selection mask (constant, non-differentiable).
    pub topk_mask: Matrix,
}

impl NoisyTopKGate {
    /// Registers the gate parameters (`name.w`, and `name.w_noise` when
    /// `noisy`): both `in_dim x n_experts` linear maps without bias,
    /// matching Eq. 5.
    #[must_use]
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_dim: usize,
        n_experts: usize,
        noisy: bool,
        rng: &mut Rng,
    ) -> Self {
        let w = params.add_with(format!("{name}.w"), in_dim, n_experts, || {
            Init::XavierUniform.sample(in_dim, n_experts, rng)
        });
        // Noise weights start at zero: training begins deterministic and
        // learns where exploration noise helps (Shazeer's initialisation).
        let w_noise = noisy.then(|| {
            params.add_with(format!("{name}.w_noise"), in_dim, n_experts, || {
                Matrix::zeros(in_dim, n_experts)
            })
        });
        NoisyTopKGate {
            w,
            w_noise,
            n_experts,
        }
    }

    /// The gate's weight parameter.
    #[must_use]
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// Every parameter handle of this gate (`w`, plus `w_noise` when the
    /// gate is noisy). Used to bind the gate/loss tape of the
    /// split-graph training path to exactly the gate's weights.
    #[must_use]
    pub fn param_ids(&self) -> Vec<ParamId> {
        std::iter::once(self.w).chain(self.w_noise).collect()
    }

    /// Runs the gate. `noise_rng` enables the noisy path (training);
    /// `None` evaluates deterministically (serving / eval / Fig. 6).
    ///
    /// # Panics
    /// Panics if `k` is out of `1..=n_experts`.
    #[must_use]
    pub fn forward<'t>(
        &self,
        bound: &Bound<'t>,
        gate_input: Var<'t>,
        k: usize,
        noise_rng: Option<&mut Rng>,
    ) -> GateOutput<'t> {
        assert!(
            k >= 1 && k <= self.n_experts,
            "NoisyTopKGate: k={k} out of 1..={}",
            self.n_experts
        );
        let clean_logits = gate_input.matmul(bound.var(self.w));
        let noisy_logits = match (self.w_noise, noise_rng) {
            (Some(wn), Some(rng)) => {
                // H(x) = G(x) + ε ⊙ softplus(x · W_noise), ε ~ N(0, 1).
                let (rows, cols) = clean_logits.shape();
                let eps = rng.normal_matrix(rows, cols, 0.0, 1.0);
                let noise_scale = gate_input.matmul(bound.var(wn)).softplus();
                clean_logits + noise_scale.mul_const(&eps)
            }
            _ => clean_logits,
        };
        let (probs, topk_mask) = noisy_logits.topk_softmax_rows(k);
        GateOutput {
            clean_logits,
            noisy_logits,
            probs,
            topk_mask,
        }
    }

    /// Tape-free gate logits for serving.
    #[must_use]
    pub fn logits_infer(&self, params: &ParamSet, gate_input: &Matrix) -> Matrix {
        amoe_tensor::matmul::matmul(gate_input, params.value(self.w))
    }
}

/// Which batch rows each expert runs on, as one flat CSR: expert `e`
/// gets `rows[offsets[e]..offsets[e + 1]]`, ascending. Training routes
/// the top-K ∪ adversarial rows through it, serving the top-K rows.
#[derive(Default)]
pub(crate) struct ExpertRoutes {
    offsets: Vec<usize>,
    rows: Vec<usize>,
    /// Fill cursors, kept so a reused router allocates nothing.
    cursor: Vec<usize>,
}

impl ExpertRoutes {
    /// Routes row `r` to expert `e` iff the top-K mask or the
    /// adversarial mask is set at `(r, e)`: every other row has gate
    /// probability 0 and mask entries 0, so its contribution is ±0.
    pub(crate) fn new(topk_mask: &Matrix, adv_mask: Option<&Matrix>) -> Self {
        let mut routes = Self::default();
        routes.route(topk_mask, adv_mask);
        routes
    }

    /// [`ExpertRoutes::new`] into this router's reused buffers.
    pub(crate) fn route(&mut self, topk_mask: &Matrix, adv_mask: Option<&Matrix>) {
        let (b, n) = topk_mask.shape();
        let routed = |r: usize, e: usize| {
            topk_mask[(r, e)] != 0.0 || adv_mask.is_some_and(|m| m[(r, e)] != 0.0)
        };
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for r in 0..b {
            for e in 0..n {
                if routed(r, e) {
                    offsets[e + 1] += 1;
                }
            }
        }
        for e in 0..n {
            offsets[e + 1] += offsets[e];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&offsets[..n]);
        self.rows.clear();
        self.rows.resize(offsets[n], 0);
        for r in 0..b {
            for e in 0..n {
                if routed(r, e) {
                    self.rows[self.cursor[e]] = r;
                    self.cursor[e] += 1;
                }
            }
        }
    }

    /// The rows routed to expert `e`, ascending.
    pub(crate) fn rows(&self, e: usize) -> &[usize] {
        &self.rows[self.offsets[e]..self.offsets[e + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoe_autograd::Tape;
    use amoe_tensor::reduce;

    fn setup(noisy: bool) -> (ParamSet, NoisyTopKGate) {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(3);
        let gate = NoisyTopKGate::new(&mut ps, "gate", 6, 8, noisy, &mut rng);
        (ps, gate)
    }

    #[test]
    fn probs_are_topk_distributions() {
        let (ps, gate) = setup(false);
        let mut rng = Rng::seed_from(4);
        let x = rng.normal_matrix(5, 6, 0.0, 1.0);
        let tape = Tape::new();
        let bound = ps.bind_subset(&tape, &gate.param_ids());
        let out = gate.forward(&bound, tape.leaf(x), 3, None);
        let p = out.probs.value();
        for r in 0..5 {
            let nonzero = p.row(r).iter().filter(|&&v| v > 0.0).count();
            assert_eq!(nonzero, 3, "row {r}");
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Mask agrees with the nonzero pattern.
        for r in 0..5 {
            for c in 0..8 {
                assert_eq!(out.topk_mask[(r, c)] > 0.0, p[(r, c)] > 0.0);
            }
        }
    }

    /// Checks the CSR against the masks it was built from: each expert's
    /// rows ascend, and `(r, e)` is listed exactly once when either mask
    /// is set there and not at all otherwise.
    fn assert_routes_match(routes: &ExpertRoutes, topk: &Matrix, adv: Option<&Matrix>) {
        let (b, n) = topk.shape();
        for e in 0..n {
            let rows = routes.rows(e);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "expert {e}: {rows:?}");
            for r in 0..b {
                let set = topk[(r, e)] != 0.0 || adv.is_some_and(|m| m[(r, e)] != 0.0);
                let hits = rows.iter().filter(|&&x| x == r).count();
                assert_eq!(hits, usize::from(set), "row {r}, expert {e}");
            }
        }
    }

    #[test]
    fn expert_routes_list_each_masked_row_once_in_order() {
        let (ps, gate) = setup(false);
        let x = Rng::seed_from(8).normal_matrix(40, 6, 0.0, 1.0);
        let tape = Tape::new();
        let bound = ps.bind_subset(&tape, &gate.param_ids());
        let topk = gate.forward(&bound, tape.leaf(x), 3, None).topk_mask;
        // Serving: the top-K rows alone, K per row.
        let routes = ExpertRoutes::new(&topk, None);
        assert_routes_match(&routes, &topk, None);
        let routed: usize = (0..8).map(|e| routes.rows(e).len()).sum();
        assert_eq!(routed, 40 * 3);
        // Training: top-K ∪ two adversarial experts per row.
        let adv = crate::losses::sample_adversarial_mask(&topk, 2, &mut Rng::seed_from(9));
        let routes = ExpertRoutes::new(&topk, Some(&adv));
        assert_routes_match(&routes, &topk, Some(&adv));
        let routed: usize = (0..8).map(|e| routes.rows(e).len()).sum();
        assert_eq!(routed, 40 * (3 + 2));
    }

    #[test]
    fn eval_mode_deterministic() {
        let (ps, gate) = setup(true);
        let mut rng = Rng::seed_from(5);
        let x = rng.normal_matrix(3, 6, 0.0, 1.0);
        let run = || {
            let tape = Tape::new();
            let bound = ps.bind_subset(&tape, &gate.param_ids());
            gate.forward(&bound, tape.leaf(x.clone()), 2, None)
                .probs
                .value()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn noise_perturbs_selection_sometimes() {
        let (mut ps, gate) = setup(true);
        // Give the noise weights some magnitude so the noisy path is live.
        let wn = ps.find("gate.w_noise").unwrap();
        ps.value_mut(wn).fill(0.8);
        let mut rng = Rng::seed_from(6);
        let x = Rng::seed_from(7).normal_matrix(16, 6, 0.0, 0.2);
        let tape = Tape::new();
        let bound = ps.bind_subset(&tape, &gate.param_ids());
        let clean = gate
            .forward(&bound, tape.leaf(x.clone()), 2, None)
            .topk_mask;
        let noisy = gate
            .forward(&bound, tape.leaf(x), 2, Some(&mut rng))
            .topk_mask;
        assert_ne!(clean, noisy, "noise never changed the top-k selection");
    }

    #[test]
    fn clean_logits_unaffected_by_noise() {
        let (mut ps, gate) = setup(true);
        let wn = ps.find("gate.w_noise").unwrap();
        ps.value_mut(wn).fill(1.0);
        let mut rng = Rng::seed_from(8);
        let x = Rng::seed_from(9).normal_matrix(4, 6, 0.0, 1.0);
        let tape = Tape::new();
        let bound = ps.bind_subset(&tape, &gate.param_ids());
        let out = gate.forward(&bound, tape.leaf(x), 2, Some(&mut rng));
        // Clean logits equal x·W regardless of the noise branch.
        let expect = amoe_tensor::matmul::matmul(&out.clean_logits.value(), &Matrix::eye(8));
        amoe_tensor::assert_close(&out.clean_logits.value(), &expect, 1e-6, 1e-7);
        assert_ne!(out.clean_logits.value(), out.noisy_logits.value());
    }

    #[test]
    fn gate_receives_gradients() {
        let (mut ps, gate) = setup(false);
        let mut rng = Rng::seed_from(10);
        let x = rng.normal_matrix(4, 6, 0.0, 1.0);
        let tape = Tape::new();
        let bound = ps.bind_subset(&tape, &gate.param_ids());
        let out = gate.forward(&bound, tape.leaf(x), 2, None);
        let weight = rng.normal_matrix(4, 8, 0.0, 1.0);
        let loss = out.probs.mul_const(&weight).sum_all();
        let grads = tape.backward(loss);
        ps.collect_grads(&bound, &grads);
        assert!(ps.grad(gate.weight()).frob_norm() > 0.0);
    }

    #[test]
    fn infer_matches_clean_logits() {
        let (ps, gate) = setup(false);
        let mut rng = Rng::seed_from(11);
        let x = rng.normal_matrix(3, 6, 0.0, 1.0);
        let tape = Tape::new();
        let bound = ps.bind_subset(&tape, &gate.param_ids());
        let out = gate.forward(&bound, tape.leaf(x.clone()), 2, None);
        amoe_tensor::assert_close(
            &gate.logits_infer(&ps, &x),
            &out.clean_logits.value(),
            1e-6,
            1e-7,
        );
    }

    #[test]
    fn importance_concentrates_without_balance() {
        // Sanity: column sums of probs define the importance vector used
        // by the load-balance loss.
        let (ps, gate) = setup(false);
        let mut rng = Rng::seed_from(12);
        let x = rng.normal_matrix(32, 6, 0.0, 1.0);
        let tape = Tape::new();
        let bound = ps.bind_subset(&tape, &gate.param_ids());
        let out = gate.forward(&bound, tape.leaf(x), 2, None);
        let imp = reduce::col_sum(&out.probs.value());
        let total: f32 = imp.as_slice().iter().sum();
        assert!((total - 32.0).abs() < 1e-3); // probabilities sum to 1/row
    }
}
