//! Layers: linear, embedding and MLP towers.

use amoe_tensor::{matmul, ops, reduce, Matrix, Rng};

use crate::{Init, ParamId, ParamSet};

/// A fully-connected layer `y = x·W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers the layer's parameters under `name.w` / `name.b`.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        init: Init,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let w = ps.add_with(format!("{name}.w"), in_dim, out_dim, || {
            init.sample(in_dim, out_dim, rng)
        });
        let b = bias.then(|| {
            ps.add_with(format!("{name}.b"), 1, out_dim, || {
                Matrix::zeros(1, out_dim)
            })
        });
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight parameter handle.
    #[must_use]
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// Bias parameter handle, if the layer has one.
    #[must_use]
    pub fn bias(&self) -> Option<ParamId> {
        self.b
    }
}

/// A lookup table mapping ids to dense rows.
#[derive(Clone, Debug)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers the table under `name.table`; rows are N(0, 0.05) as is
    /// conventional for sparse-feature embeddings.
    pub fn new(ps: &mut ParamSet, name: &str, vocab: usize, dim: usize, rng: &mut Rng) -> Self {
        let table = ps.add_with(format!("{name}.table"), vocab, dim, || {
            Init::Normal(0.05).sample(vocab, dim, rng)
        });
        Embedding { table, vocab, dim }
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Table parameter handle.
    #[must_use]
    pub fn table(&self) -> ParamId {
        self.table
    }

    /// The table's value, once every index is checked to be in
    /// vocabulary: the source a caller gathers its rows from.
    ///
    /// # Panics
    /// Panics if an index is out of vocabulary.
    #[must_use]
    pub fn checked_table<'p>(&self, ps: &'p ParamSet, indices: &[usize]) -> &'p Matrix {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.vocab) {
            panic!(
                "Embedding: index {bad} out of vocabulary (size {})",
                self.vocab
            );
        }
        ps.value(self.table)
    }
}

/// A multi-layer perceptron: ReLU hidden layers and a linear output
/// layer — the structure of the paper's expert towers and DNN baseline
/// (`512 x 256 x 1`, ReLU).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths. `dims` must contain the
    /// input width followed by each layer's output width, e.g.
    /// `[n, 512, 256, 1]`. Hidden layers use He init; the output layer
    /// uses Xavier.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new(ps: &mut ParamSet, name: &str, dims: &[usize], rng: &mut Rng) -> Self {
        assert!(dims.len() >= 2, "Mlp::new: need at least [in, out] dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let init = if i == dims.len() - 2 {
                Init::XavierUniform
            } else {
                Init::HeNormal
            };
            layers.push(Linear::new(
                ps,
                &format!("{name}.l{i}"),
                dims[i],
                dims[i + 1],
                init,
                true,
                rng,
            ));
        }
        Mlp { layers }
    }

    /// Input width.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// The constituent linear layers.
    #[must_use]
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Tape-free forward pass for serving and scoring; layer 0 reads
    /// `x` in place.
    #[must_use]
    pub fn infer(&self, ps: &ParamSet, x: &Matrix) -> Matrix {
        let mut outs = vec![Matrix::scalar(0.0); self.layers.len()];
        layers_forward(x, |i| self.layer_params(ps, i), &mut outs);
        outs.pop().expect("the tower output")
    }

    /// Tape-free forward pass for training: the output plus each
    /// layer's input (`x` first), which [`Mlp::backward`] consumes.
    #[must_use]
    pub fn forward_train(&self, ps: &ParamSet, x: Matrix) -> (Vec<Matrix>, Matrix) {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x);
        self.forward_into(ps, &mut acts);
        let out = acts.pop().expect("the tower output");
        (acts, out)
    }

    /// The tape-free forward into reused buffers: `acts[0]` holds the
    /// input, and [`tower_forward`] leaves layer `i`'s input in
    /// `acts[i]` and the output last.
    ///
    /// # Panics
    /// Panics if `acts` is empty.
    pub fn forward_into(&self, ps: &ParamSet, acts: &mut Vec<Matrix>) {
        tower_forward(self.layers.len(), |i| self.layer_params(ps, i), acts);
    }

    /// Layer `i`'s weight and bias values.
    fn layer_params<'p>(&self, ps: &'p ParamSet, i: usize) -> (&'p Matrix, &'p Matrix) {
        let layer = &self.layers[i];
        let bias = layer.bias().expect("Mlp layers have biases");
        (ps.value(layer.weight()), ps.value(bias))
    }

    /// Backward pass from the layer inputs of [`Mlp::forward_train`]
    /// and the output cotangent `d_out`: returns the input cotangent and
    /// every weight and bias gradient.
    ///
    /// It runs the tape's kernels in the tape's order, so each result is
    /// bit for bit what [`Tape::backward`](amoe_autograd::Tape::backward)
    /// gives for the same layers on a tape (`x·W + b`, then a ReLU on
    /// every layer but the last). The ReLU mask is read off the next
    /// layer's input, its output: `max(v, 0) > 0` holds exactly when
    /// `v > 0`, NaN included.
    ///
    /// # Panics
    /// Panics if `inputs` does not hold one matrix per layer.
    #[must_use]
    pub fn backward(
        &self,
        ps: &ParamSet,
        inputs: &[Matrix],
        d_out: &Matrix,
    ) -> (Matrix, Vec<(ParamId, Matrix)>) {
        let mut grads = MlpGrads::default();
        self.backward_into(ps, inputs, d_out, &mut grads);
        (grads.d_x, grads.params)
    }

    /// [`Mlp::backward`] into reused buffers: every kernel writes into
    /// `grads`, whose matrices keep their capacity from call to call.
    ///
    /// # Panics
    /// Panics if `inputs` does not hold one matrix per layer.
    pub fn backward_into(
        &self,
        ps: &ParamSet,
        inputs: &[Matrix],
        d_out: &Matrix,
        grads: &mut MlpGrads,
    ) {
        let n = self.layers.len();
        assert_eq!(inputs.len(), n, "Mlp::backward: one input per layer");
        let MlpGrads {
            d_x,
            params,
            hidden,
        } = grads;
        params.resize_with(2 * n, || (self.layers[0].weight(), Matrix::scalar(0.0)));
        // `cur` holds the cotangent of the layer being walked, `next`
        // receives the one below it.
        let [mut cur, mut next] = hidden.each_mut();
        for (i, (layer, input)) in self.layers.iter().zip(inputs).enumerate().rev() {
            let g: &Matrix = if i + 1 == n { d_out } else { cur };
            let (w, b) = (
                layer.weight(),
                layer.bias().expect("Mlp layers have biases"),
            );
            let slot = 2 * (n - 1 - i);
            params[slot].0 = b;
            reduce::col_sum_into(g, &mut params[slot].1);
            params[slot + 1].0 = w;
            matmul::matmul_tn_into(input, g, &mut params[slot + 1].1);
            if i == 0 {
                matmul::matmul_nt_into(g, ps.value(w), d_x);
            } else {
                matmul::matmul_nt_into(g, ps.value(w), next);
                ops::zip_map_assign(next, input, |d, v| d * if v > 0.0 { 1.0 } else { 0.0 });
                std::mem::swap(&mut cur, &mut next);
            }
        }
    }
}

/// The one tower layer loop behind [`Mlp::infer`], training's
/// [`Mlp::forward_into`] and any tower held as bare matrices (an
/// extracted category model): `layer(i)` gives layer `i`'s weight and
/// bias, `acts[0]` holds the input, and layer `i` writes
/// `acts[i + 1] = acts[i]·W + b` into a reused buffer, then the ReLU
/// in place on every layer but the last. The output ends up last.
///
/// # Panics
/// Panics if `acts` is empty or a shape disagrees.
pub fn tower_forward<'a>(
    n_layers: usize,
    layer: impl Fn(usize) -> (&'a Matrix, &'a Matrix),
    acts: &mut Vec<Matrix>,
) {
    assert!(
        !acts.is_empty(),
        "tower_forward: acts[0] must hold the input"
    );
    acts.truncate(n_layers + 1);
    while acts.len() < n_layers + 1 {
        acts.push(Matrix::scalar(0.0));
    }
    let (x, outs) = acts.split_first_mut().expect("checked non-empty");
    layers_forward(x, layer, outs);
}

/// The layer loop itself: layer `i` reads `x` (layer 0) or `outs[i - 1]`
/// and writes `outs[i]`, one layer per buffer of `outs`.
fn layers_forward<'a>(
    x: &Matrix,
    layer: impl Fn(usize) -> (&'a Matrix, &'a Matrix),
    outs: &mut [Matrix],
) {
    let n_layers = outs.len();
    for i in 0..n_layers {
        let (w, b) = layer(i);
        let (below, above) = outs.split_at_mut(i);
        let input = below.last().unwrap_or(x);
        let y = &mut above[0];
        matmul::matmul_into(input, w, y);
        ops::add_row_assign(y, b);
        if i + 1 < n_layers {
            ops::map_assign(y, ops::relu_scalar);
        }
    }
}

/// Buffers one tower's backward reuses from call to call: the input
/// cotangent, every parameter gradient and the hidden cotangents.
pub struct MlpGrads {
    d_x: Matrix,
    params: Vec<(ParamId, Matrix)>,
    hidden: [Matrix; 2],
}

impl Default for MlpGrads {
    fn default() -> Self {
        MlpGrads {
            d_x: Matrix::scalar(0.0),
            params: Vec::new(),
            hidden: [Matrix::scalar(0.0), Matrix::scalar(0.0)],
        }
    }
}

impl MlpGrads {
    /// The tower input's cotangent.
    #[must_use]
    pub fn d_x(&self) -> &Matrix {
        &self.d_x
    }

    /// Every weight and bias gradient, each layer's bias then weight,
    /// from the last layer to the first.
    #[must_use]
    pub fn params(&self) -> &[(ParamId, Matrix)] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bound;
    use amoe_autograd::{Tape, Var};

    /// Binds every weight and bias of `mlp` onto `tape`.
    fn bind_mlp<'t>(ps: &ParamSet, mlp: &Mlp, tape: &'t Tape) -> Bound<'t> {
        let ids: Vec<ParamId> = mlp
            .layers()
            .iter()
            .flat_map(|l| [l.weight(), l.bias().expect("bias")])
            .collect();
        ps.bind_subset(tape, &ids)
    }

    /// The tower forward as a tape graph, `x·W + b` per layer and a
    /// ReLU on every layer but the last: the oracle that
    /// [`Mlp::forward_train`] and [`Mlp::backward`] are pinned to.
    fn tape_forward<'t>(mlp: &Mlp, bound: &Bound<'t>, x: Var<'t>) -> Var<'t> {
        let n = mlp.layers().len();
        mlp.layers().iter().enumerate().fold(x, |h, (i, layer)| {
            let b = layer.bias().expect("bias");
            let y = h.matmul(bound.var(layer.weight())).add_row(bound.var(b));
            if i + 1 < n {
                y.relu()
            } else {
                y
            }
        })
    }

    #[test]
    fn linear_without_bias() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(2);
        let lin = Linear::new(&mut ps, "l", 2, 2, Init::XavierUniform, false, &mut rng);
        assert!(lin.bias().is_none());
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn embedding_lookup_and_oov_panic() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(3);
        let emb = Embedding::new(&mut ps, "e", 5, 4, &mut rng);
        let table = emb.checked_table(&ps, &[0, 4, 0]);
        assert_eq!(table.shape(), (5, 4));
        assert_eq!(table, ps.value(emb.table()));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = emb.checked_table(&ps, &[0, 5]);
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn mlp_shapes_and_consistency() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(4);
        let mlp = Mlp::new(&mut ps, "m", &[6, 8, 4, 1], &mut rng);
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 1);
        assert_eq!(mlp.layers().len(), 3);
        let x = rng.normal_matrix(5, 6, 0.0, 1.0);
        let tape = Tape::new();
        let bound = bind_mlp(&ps, &mlp, &tape);
        let y_tape = tape_forward(&mlp, &bound, tape.leaf(x.clone())).value();
        assert_eq!(y_tape, mlp.infer(&ps, &x));
    }

    #[test]
    fn mlp_trains_toward_target() {
        // One gradient step on MSE should reduce the loss.
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(5);
        let mlp = Mlp::new(&mut ps, "m", &[2, 8, 1], &mut rng);
        let x = rng.normal_matrix(16, 2, 0.0, 1.0);
        let y = Matrix::filled(16, 1, 0.7);
        let before;
        {
            let tape = Tape::new();
            let bound = bind_mlp(&ps, &mlp, &tape);
            let pred = tape_forward(&mlp, &bound, tape.leaf(x.clone()));
            let diff = pred.add_const(&amoe_tensor::ops::scale(&y, -1.0));
            let loss = diff.square().mean_all();
            before = loss.value()[(0, 0)];
            let grads = tape.backward(loss);
            ps.collect_grads(&bound, &grads);
        }
        // Manual SGD step.
        for i in 0..ps.len() {
            let g = ps.grad(ParamId::from_index(i)).clone();
            amoe_tensor::ops::axpy(&mut ps.entries[i].value, -0.1, &g);
        }
        let tape = Tape::new();
        let bound = bind_mlp(&ps, &mlp, &tape);
        let pred = tape_forward(&mlp, &bound, tape.leaf(x.clone()));
        let diff = pred.add_const(&amoe_tensor::ops::scale(&y, -1.0));
        let after = diff.square().mean_all().value()[(0, 0)];
        assert!(after < before);
    }

    #[test]
    fn mlp_backward_matches_tape_bit_for_bit() {
        // `==` on f32 equates +0.0 and -0.0; compare the bits.
        fn bits(m: &Matrix) -> Vec<u32> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        }
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(6);
        let mlp = Mlp::new(&mut ps, "m", &[6, 9, 5, 1], &mut rng);
        // Hidden unit 2 of the first layer is dead on every row.
        let b0 = mlp.layers()[0].bias().expect("bias");
        ps.value_mut(b0)[(0, 2)] = -1e3;
        for rows in [1, 17] {
            let x = rng.normal_matrix(rows, 6, 0.0, 1.0);
            let mut d_out = rng.normal_matrix(rows, 1, 0.0, 1.0);
            for r in (0..rows).step_by(3) {
                d_out[(r, 0)] = if r % 2 == 0 { 0.0 } else { -0.0 };
            }

            let tape = Tape::new();
            let bound = bind_mlp(&ps, &mlp, &tape);
            let x_leaf = tape.leaf(x.clone());
            let out = tape_forward(&mlp, &bound, x_leaf);
            let oracle = tape.backward_multi(vec![(out, d_out.clone())]);

            let (inputs, y) = mlp.forward_train(&ps, x);
            assert_eq!(bits(&y), bits(&out.value()));
            assert!((0..rows).all(|r| inputs[1][(r, 2)] == 0.0));
            let (d_x, grads) = mlp.backward(&ps, &inputs, &d_out);
            assert_eq!(bits(&d_x), bits(oracle.get(x_leaf).expect("x cotangent")));
            assert_eq!(grads.len(), ps.len());
            for i in 0..ps.len() {
                let id = ParamId::from_index(i);
                let mine: Vec<&Matrix> = grads
                    .iter()
                    .filter(|(p, _)| *p == id)
                    .map(|(_, g)| g)
                    .collect();
                assert_eq!(mine.len(), 1, "{}: one gradient", ps.name(id));
                let want = oracle.get(bound.var(id)).expect("parameter gradient");
                assert_eq!(bits(mine[0]), bits(want), "{} at {rows} rows", ps.name(id));
            }
        }
    }
}
