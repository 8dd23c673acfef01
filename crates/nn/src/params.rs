//! Flat parameter storage decoupled from the autograd tape.

use amoe_autograd::{Grads, Tape, Var};
use amoe_tensor::{ops, Matrix};

use crate::serialize::Fill;

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
    /// `None` until a training step first writes it.
    pub(crate) grad: Option<Matrix>,
}

/// All trainable tensors of a model, with their accumulated gradients.
///
/// A gradient buffer is allocated on first use: [`ParamSet::zero_grads`],
/// which starts every training step, sizes them all, and
/// [`ParamSet::grad_mut`] and [`ParamSet::collect_grads`] size the ones
/// they write. A set that is only loaded, served, evaluated or
/// extracted holds its values and nothing else.
///
/// Names must be unique; they key serialisation and debugging output.
#[derive(Default)]
pub struct ParamSet {
    pub(crate) entries: Vec<ParamEntry>,
    /// The checkpoint a [`ParamSet::fill_from`] registration claims its
    /// tensors from; `None` outside one.
    pub(crate) fill: Option<Fill>,
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
        let (rows, cols) = value.shape();
        self.add_with(name, rows, cols, || value)
    }

    /// Registers a `rows x cols` parameter whose initial value `init`
    /// makes. Inside [`ParamSet::fill_from`] the value is the
    /// checkpoint's tensor of that name instead, moved in, and `init`
    /// never runs.
    ///
    /// # Panics
    /// Panics if `name` is already registered, or if `init` makes a
    /// value of another shape.
    pub fn add_with(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        init: impl FnOnce() -> Matrix,
    ) -> ParamId {
        let name = name.into();
        assert!(
            !self.entries.iter().any(|e| e.name == name),
            "ParamSet::add: duplicate parameter name {name:?}"
        );
        let value = match &mut self.fill {
            Some(fill) => fill.claim(&name, rows, cols),
            None => {
                let value = init();
                assert_eq!(
                    value.shape(),
                    (rows, cols),
                    "ParamSet::add_with: {name:?} initialised to the wrong shape"
                );
                value
            }
        };
        let id = ParamId(self.entries.len());
        self.entries.push(ParamEntry {
            name,
            value,
            grad: None,
        });
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
    ///
    /// # Panics
    /// Panics if no training step has sized the buffer yet.
    #[must_use]
    pub fn grad(&self, id: ParamId) -> &Matrix {
        let e = &self.entries[id.0];
        e.grad.as_ref().unwrap_or_else(|| {
            panic!(
                "ParamSet::grad: {:?} has no gradient yet (no training step ran)",
                e.name
            )
        })
    }

    /// Mutable view of a parameter's accumulated gradient (used by
    /// fine-tuning to freeze parameters by zeroing their gradients),
    /// sized and zeroed on first use.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.entries[id.0].grad_mut()
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

    /// Inserts the parameters named by `ids` as leaves on `tape`,
    /// returning the binding used to reference them while building the
    /// loss and to collect gradients afterwards. A tape holds only what
    /// its graph reads: training binds just the gates' weights, never
    /// the towers or the embedding tables, which train without a tape.
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
            vars[id.0] = Some(tape.leaf_from(&self.entries[id.0].value));
        }
        Bound { vars }
    }

    /// Accumulates (`+=`) the gradients computed by a backward pass into
    /// this set. Parameters the loss does not touch are left unchanged,
    /// supporting gradient accumulation across micro-batches.
    pub fn collect_grads(&mut self, bound: &Bound<'_>, grads: &Grads<'_>) {
        for (entry, var) in self.entries.iter_mut().zip(&bound.vars) {
            if let Some(g) = var.and_then(|v| grads.get(v)) {
                ops::add_assign(entry.grad_mut(), g);
            }
        }
    }

    /// Resets all accumulated gradients to zero, first sizing every
    /// buffer no step has used yet.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad_mut().fill(0.0);
        }
    }

    /// Every value with its gradient, for an optimiser's update.
    ///
    /// # Panics
    /// Panics if a gradient was never sized: an update needs a
    /// gradient pass ([`ParamSet::zero_grads`] starts every one) first.
    pub(crate) fn values_and_grads(&mut self) -> impl Iterator<Item = (&mut Matrix, &Matrix)> {
        // Checked up front, so a failed step updates nothing.
        if let Some(e) = self.entries.iter().find(|e| e.grad.is_none()) {
            panic!(
                "optimiser step on {:?} before any gradient pass (zero_grads never ran)",
                e.name
            );
        }
        self.entries
            .iter_mut()
            .map(|e| (&mut e.value, e.grad.as_ref().expect("checked above")))
    }

    /// Global L2 norm over all gradients; a buffer no step has sized
    /// counts as zero.
    #[must_use]
    pub fn grad_global_norm(&self) -> f32 {
        self.entries
            .iter()
            .filter_map(|e| e.grad.as_ref())
            .map(|g| {
                let n = g.frob_norm();
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
            for g in self.entries.iter_mut().filter_map(|e| e.grad.as_mut()) {
                g.as_mut_slice().iter_mut().for_each(|v| *v *= s);
            }
        }
        norm
    }

    /// True if every parameter and every sized gradient is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.value.all_finite() && e.grad.iter().all(Matrix::all_finite))
    }
}

impl ParamEntry {
    /// The gradient buffer, sized and zeroed on first use.
    fn grad_mut(&mut self) -> &mut Matrix {
        let (rows, cols) = self.value.shape();
        self.grad.get_or_insert_with(|| Matrix::zeros(rows, cols))
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
/// Produced by [`ParamSet::bind_subset`]; unbound parameters stay
/// `None`.
pub struct Bound<'t> {
    pub(crate) vars: Vec<Option<Var<'t>>>,
}

impl<'t> Bound<'t> {
    /// The tape variable bound to `id`.
    ///
    /// # Panics
    /// Panics if `id` was not part of the binding (a binding carries
    /// only the parameters it was built with).
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
    fn gradients_are_sized_on_first_use() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Matrix::ones(2, 3));
        let u = ps.add("u", Matrix::ones(1, 2));
        assert!(ps.entries.iter().all(|e| e.grad.is_none()));
        assert_eq!(ps.grad_global_norm(), 0.0);
        assert!(ps.all_finite());
        ps.grad_mut(u)[(0, 1)] = 2.0;
        assert!(ps.entries[w.0].grad.is_none());
        assert_eq!(ps.grad(u).row(0), &[0.0, 2.0]);
        ps.zero_grads();
        assert_eq!(ps.grad(w), &Matrix::zeros(2, 3));
        assert_eq!(ps.grad(u), &Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "no gradient yet")]
    fn reading_an_unsized_gradient_panics() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Matrix::ones(1, 1));
        let _ = ps.grad(w);
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
        let bound = ps.bind_subset(&tape, &[w]);
        let loss = bound.var(w).square().sum_all();
        let grads = tape.backward(loss);
        ps.collect_grads(&bound, &grads);
        // d/dw sum(w^2) = 2w
        assert_eq!(ps.grad(w).row(0), &[4.0, -2.0]);
        // Accumulation: second pass doubles the gradient.
        let tape2 = Tape::new();
        let b2 = ps.bind_subset(&tape2, &[w]);
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
        ps.zero_grads();
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
        ps.entries[0].grad = Some(Matrix::from_rows(&[&[3.0, 4.0]])); // norm 5
        let pre = ps.clip_grad_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((ps.grad(w).frob_norm() - 1.0).abs() < 1e-6);
        // Under the cap: untouched.
        let pre2 = ps.clip_grad_global_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-6);
        assert!((ps.grad(w).frob_norm() - 1.0).abs() < 1e-6);
    }
}
