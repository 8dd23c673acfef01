//! First-order optimizers.
//!
//! The paper trains every model with AdamW (Loshchilov & Hutter 2017,
//! their ref \[17\]); SGD, momentum-SGD and plain Adam are provided for the
//! ablation benches comparing optimizer choice.

use amoe_tensor::Matrix;

use crate::ParamSet;

/// A first-order optimizer updating a [`ParamSet`] in place from its
/// accumulated gradients. Callers `zero_grads()` between steps.
pub trait Optimizer {
    /// Applies one update step.
    ///
    /// # Panics
    /// Panics if a gradient buffer was never sized: a step with no
    /// gradient pass before it is a caller's bug, not a no-op.
    fn step(&mut self, params: &mut ParamSet);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Overrides the learning rate (used by schedules).
    fn set_lr(&mut self, lr: f32);
}

/// Stochastic gradient descent, optionally with classical momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Plain SGD.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with momentum `mu` (velocity `v ← mu·v + g`, `w ← w − lr·v`).
    #[must_use]
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "Sgd: lr must be positive");
        assert!((0.0..1.0).contains(&momentum), "Sgd: momentum in [0,1)");
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamSet) {
        if self.momentum == 0.0 {
            for (value, grad) in params.values_and_grads() {
                value
                    .as_mut_slice()
                    .iter_mut()
                    .zip(grad.as_slice())
                    .for_each(|(w, &g)| *w -= self.lr * g);
            }
            return;
        }
        if self.velocity.is_empty() {
            self.velocity = params
                .entries
                .iter()
                .map(|e| Matrix::zeros(e.value.rows(), e.value.cols()))
                .collect();
        }
        for ((value, grad), v) in params.values_and_grads().zip(&mut self.velocity) {
            for ((w, &g), vel) in value
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice())
                .zip(v.as_mut_slice())
            {
                *vel = self.momentum * *vel + g;
                *w -= self.lr * *vel;
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam / AdamW. With `weight_decay > 0` the decay is *decoupled*
/// (applied directly to the weights, not through the moments), which is
/// the AdamW variant the paper uses.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Plain Adam with the canonical betas (0.9, 0.999).
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Self::adamw(lr, 0.0)
    }

    /// AdamW with decoupled weight decay.
    #[must_use]
    pub fn adamw(lr: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "Adam: lr must be positive");
        assert!(weight_decay >= 0.0, "Adam: weight_decay must be >= 0");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet) {
        if self.m.is_empty() {
            self.m = params
                .entries
                .iter()
                .map(|e| Matrix::zeros(e.value.rows(), e.value.cols()))
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (((value, grad), m), v) in params.values_and_grads().zip(&mut self.m).zip(&mut self.v) {
            for (((w, &g), mi), vi) in value
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice())
                .zip(m.as_mut_slice())
                .zip(v.as_mut_slice())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                // Decoupled decay (AdamW): shrink the weight directly.
                *w -= self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * *w);
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_setup() -> ParamSet {
        let mut ps = ParamSet::new();
        ps.add("w", Matrix::from_rows(&[&[5.0, -3.0]]));
        ps
    }

    /// Loss = 0.5 * ||w||^2 so grad = w; all optimizers must drive w to 0.
    fn fill_grad(ps: &mut ParamSet) {
        let g = ps.entries[0].value.clone();
        ps.entries[0].grad = Some(g);
    }

    fn run<O: Optimizer>(mut opt: O, steps: usize) -> f32 {
        let mut ps = quadratic_setup();
        for _ in 0..steps {
            ps.zero_grads();
            fill_grad(&mut ps);
            opt.step(&mut ps);
        }
        ps.value(ps.find("w").unwrap()).frob_norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(run(Sgd::new(0.1), 200) < 1e-3);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        assert!(run(Sgd::with_momentum(0.05, 0.9), 300) < 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(run(Adam::new(0.1), 400) < 1e-2);
    }

    #[test]
    fn adamw_decay_shrinks_weights_without_gradient() {
        let mut ps = quadratic_setup();
        let before = ps.value(ps.find("w").unwrap()).frob_norm();
        let mut opt = Adam::adamw(0.01, 0.1);
        // Zero gradients: only the decoupled decay acts.
        for _ in 0..50 {
            ps.zero_grads();
            opt.step(&mut ps);
        }
        let after = ps.value(ps.find("w").unwrap()).frob_norm();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    #[should_panic(expected = "before any gradient pass")]
    fn adam_step_without_a_gradient_pass_panics() {
        // A freshly registered (or loaded) set has no gradient buffers;
        // stepping it must fail loudly, not update from nothing.
        let mut ps = quadratic_setup();
        Adam::new(0.1).step(&mut ps);
    }

    #[test]
    fn set_lr_roundtrip() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.lr(), 0.1);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
    }
}
