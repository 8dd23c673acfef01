//! Flat parameter storage decoupled from the autograd tape.

use amoe_autograd::{Grads, Tape, Var};
use amoe_tensor::{ops, Matrix};

/// Opaque handle to one parameter tensor inside a [`ParamSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Reconstructs a handle from a raw index (`0..len`). Intended for
    /// callers iterating a whole set; out-of-range ids panic on use.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        ParamId(index)
    }

    /// The raw index of this handle within its set.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

pub(crate) struct ParamEntry {
    pub(crate) name: String,
    pub(crate) value: Matrix,
    pub(crate) grad: Matrix,
}

/// All trainable tensors of a model, with their accumulated gradients.
///
/// Names must be unique; they key serialisation and debugging output.
#[derive(Default)]
pub struct ParamSet {
    pub(crate) entries: Vec<ParamEntry>,
}

impl ParamSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an initial value.
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let name = name.into();
        assert!(
            !self.entries.iter().any(|e| e.name == name),
            "ParamSet::add: duplicate parameter name {name:?}"
        );
        let grad = Matrix::zeros(value.rows(), value.cols());
        let id = ParamId(self.entries.len());
        self.entries.push(ParamEntry { name, value, grad });
        id
    }

    /// Number of registered tensors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total scalar parameter count (for model-capacity reporting).
    #[must_use]
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Immutable view of a parameter's current value.
    #[must_use]
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].value
    }

    /// Mutable view of a parameter's current value (tests, custom init).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.entries[id.0].value
    }

    /// Immutable view of a parameter's accumulated gradient.
    #[must_use]
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].grad
    }

    /// Mutable view of a parameter's accumulated gradient (used by
    /// fine-tuning to freeze parameters by zeroing their gradients).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.entries[id.0].grad
    }

    /// Name of a parameter.
    #[must_use]
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Looks a parameter up by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(ParamId)
    }

    /// Iterator over `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.entries.iter().map(|e| (e.name.as_str(), &e.value))
    }

    /// Inserts every parameter as a leaf on `tape`, returning the binding
    /// used to reference them while building the loss and to collect
    /// gradients afterwards.
    #[must_use]
    pub fn bind<'t>(&self, tape: &'t Tape) -> Bound<'t> {
        Bound {
            vars: self
                .entries
                .iter()
                .map(|e| Some(tape.leaf(e.value.clone())))
                .collect(),
        }
    }

    /// Like [`ParamSet::bind`] but inserts only the parameters named by
    /// `ids` as leaves. The split-graph training path uses this to give
    /// its encoder tape and its gate/loss tape just the weights each
    /// one reads instead of cloning the whole model onto both.
    ///
    /// Reading an unbound parameter through [`Bound::var`] panics;
    /// [`ParamSet::collect_grads`] skips unbound entries.
    ///
    /// # Panics
    /// Panics if `ids` contains a duplicate (it would silently drop the
    /// first leaf's gradient).
    #[must_use]
    pub fn bind_subset<'t>(&self, tape: &'t Tape, ids: &[ParamId]) -> Bound<'t> {
        let mut vars: Vec<Option<Var<'t>>> = vec![None; self.entries.len()];
        for &id in ids {
            assert!(
                vars[id.0].is_none(),
                "ParamSet::bind_subset: duplicate id for {:?}",
                self.entries[id.0].name
            );
            vars[id.0] = Some(tape.leaf(self.entries[id.0].value.clone()));
        }
        Bound { vars }
    }

    /// Accumulates (`+=`) the gradients computed by a backward pass into
    /// this set. Parameters the loss does not touch are left unchanged,
    /// supporting gradient accumulation across micro-batches.
    pub fn collect_grads(&mut self, bound: &Bound<'_>, grads: &Grads) {
        for (entry, var) in self.entries.iter_mut().zip(&bound.vars) {
            if let Some(g) = var.and_then(|v| grads.get(v)) {
                ops::add_assign(&mut entry.grad, g);
            }
        }
    }

    /// Resets all accumulated gradients to zero.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad.fill(0.0);
        }
    }

    /// Global L2 norm over all gradients.
    #[must_use]
    pub fn grad_global_norm(&self) -> f32 {
        self.entries
            .iter()
            .map(|e| {
                let n = e.grad.frob_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so their global norm does not exceed
    /// `max_norm`. Returns the pre-clip norm.
    pub fn clip_grad_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for e in &mut self.entries {
                e.grad.as_mut_slice().iter_mut().for_each(|v| *v *= s);
            }
        }
        norm
    }

    /// True if every parameter and gradient is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.value.all_finite() && e.grad.all_finite())
    }
}

impl std::fmt::Debug for ParamSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_map();
        for e in &self.entries {
            d.entry(
                &e.name,
                &format_args!("{}x{}", e.value.rows(), e.value.cols()),
            );
        }
        d.finish()
    }
}

/// Tape-bound views of parameters for one forward/backward pass.
///
/// Produced by [`ParamSet::bind`] (every parameter) or
/// [`ParamSet::bind_subset`] (a selection; the rest stay `None`).
pub struct Bound<'t> {
    pub(crate) vars: Vec<Option<Var<'t>>>,
}

impl<'t> Bound<'t> {
    /// The tape variable bound to `id`.
    ///
    /// # Panics
    /// Panics if `id` was not part of the binding (subset bindings only
    /// carry the parameters they were built with).
    #[must_use]
    pub fn var(&self, id: ParamId) -> Var<'t> {
        self.vars[id.0].expect("Bound::var: parameter not part of this binding")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Matrix::ones(2, 3));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.num_scalars(), 6);
        assert_eq!(ps.name(w), "w");
        assert_eq!(ps.find("w"), Some(w));
        assert_eq!(ps.find("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut ps = ParamSet::new();
        ps.add("w", Matrix::ones(1, 1));
        ps.add("w", Matrix::ones(1, 1));
    }

    #[test]
    fn bind_collect_roundtrip() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Matrix::from_rows(&[&[2.0, -1.0]]));
        let tape = Tape::new();
        let bound = ps.bind(&tape);
        let loss = bound.var(w).square().sum_all();
        let grads = tape.backward(loss);
        ps.collect_grads(&bound, &grads);
        // d/dw sum(w^2) = 2w
        assert_eq!(ps.grad(w).row(0), &[4.0, -2.0]);
        // Accumulation: second pass doubles the gradient.
        let tape2 = Tape::new();
        let b2 = ps.bind(&tape2);
        let loss2 = b2.var(w).square().sum_all();
        let g2 = tape2.backward(loss2);
        ps.collect_grads(&b2, &g2);
        assert_eq!(ps.grad(w).row(0), &[8.0, -4.0]);
        ps.zero_grads();
        assert_eq!(ps.grad(w).row(0), &[0.0, 0.0]);
    }

    #[test]
    fn bind_subset_binds_only_requested() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Matrix::from_rows(&[&[2.0, -1.0]]));
        let u = ps.add("u", Matrix::from_rows(&[&[5.0]]));
        let tape = Tape::new();
        let bound = ps.bind_subset(&tape, &[w]);
        // Only one leaf on the tape, and grads flow only into `w`.
        assert_eq!(tape.len(), 1);
        let loss = bound.var(w).square().sum_all();
        let grads = tape.backward(loss);
        ps.collect_grads(&bound, &grads);
        assert_eq!(ps.grad(w).row(0), &[4.0, -2.0]);
        assert_eq!(ps.grad(u).row(0), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "not part of this binding")]
    fn bind_subset_rejects_unbound_read() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Matrix::ones(1, 1));
        let u = ps.add("u", Matrix::ones(1, 1));
        let tape = Tape::new();
        let bound = ps.bind_subset(&tape, &[w]);
        let _ = bound.var(u);
    }

    #[test]
    #[should_panic(expected = "duplicate id")]
    fn bind_subset_rejects_duplicates() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Matrix::ones(1, 1));
        let tape = Tape::new();
        let _ = ps.bind_subset(&tape, &[w, w]);
    }

    #[test]
    fn clip_global_norm() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Matrix::ones(1, 2));
        ps.entries[0].grad = Matrix::from_rows(&[&[3.0, 4.0]]); // norm 5
        let pre = ps.clip_grad_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((ps.grad(w).frob_norm() - 1.0).abs() < 1e-6);
        // Under the cap: untouched.
        let pre2 = ps.clip_grad_global_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-6);
        assert!((ps.grad(w).frob_norm() - 1.0).abs() < 1e-6);
    }
}
