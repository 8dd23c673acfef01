//! Layers: linear, embedding and MLP towers.

use amoe_autograd::Var;
use amoe_tensor::{matmul, ops, Matrix, Rng};

use crate::{Bound, Init, ParamId, ParamSet};

/// Hidden-layer activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// max(x, 0) — used by the paper's expert towers.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    fn apply<'t>(self, x: Var<'t>) -> Var<'t> {
        match self {
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Identity => x,
        }
    }

    /// Tape-free application, used by [`Mlp::infer`].
    #[must_use]
    fn apply_matrix(self, x: &Matrix) -> Matrix {
        match self {
            Activation::Relu => ops::relu(x),
            Activation::Tanh => ops::map(x, f32::tanh),
            Activation::Sigmoid => ops::sigmoid(x),
            Activation::Identity => x.clone(),
        }
    }
}

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
        let w = ps.add(format!("{name}.w"), init.sample(in_dim, out_dim, rng));
        let b = bias.then(|| ps.add(format!("{name}.b"), Matrix::zeros(1, out_dim)));
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

    /// Tape forward pass.
    #[must_use]
    pub fn forward<'t>(&self, bound: &Bound<'t>, x: Var<'t>) -> Var<'t> {
        let y = x.matmul(bound.var(self.w));
        match self.b {
            Some(b) => y.add_row(bound.var(b)),
            None => y,
        }
    }

    /// Tape-free forward pass for serving.
    #[must_use]
    pub fn infer(&self, ps: &ParamSet, x: &Matrix) -> Matrix {
        let y = matmul::matmul(x, ps.value(self.w));
        match self.b {
            Some(b) => ops::add_row_broadcast(&y, ps.value(b)),
            None => y,
        }
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
        let table = ps.add(
            format!("{name}.table"),
            Init::Normal(0.05).sample(vocab, dim, rng),
        );
        Embedding { table, vocab, dim }
    }

    /// Vocabulary size.
    #[must_use]
    pub fn vocab(&self) -> usize {
        self.vocab
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

    /// Tape forward: one output row per index.
    ///
    /// # Panics
    /// Panics if an index is out of vocabulary.
    #[must_use]
    pub fn forward<'t>(&self, bound: &Bound<'t>, indices: &[usize]) -> Var<'t> {
        self.check(indices);
        bound.var(self.table).embed(indices)
    }

    /// Tape-free forward pass for serving.
    #[must_use]
    pub fn infer(&self, ps: &ParamSet, indices: &[usize]) -> Matrix {
        self.check(indices);
        ps.value(self.table).gather_rows(indices)
    }

    fn check(&self, indices: &[usize]) {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.vocab) {
            panic!(
                "Embedding: index {bad} out of vocabulary (size {})",
                self.vocab
            );
        }
    }
}

/// A multi-layer perceptron: hidden layers with a shared activation and a
/// linear output layer — the structure of the paper's expert towers and
/// DNN baseline (`512 x 256 x 1`, ReLU).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths. `dims` must contain the
    /// input width followed by each layer's output width, e.g.
    /// `[n, 512, 256, 1]`. Hidden layers use He init (ReLU default);
    /// the output layer uses Xavier.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        dims: &[usize],
        activation: Activation,
        rng: &mut Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp::new: need at least [in, out] dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let is_last = i == dims.len() - 2;
            let init = if is_last || activation != Activation::Relu {
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
        Mlp { layers, activation }
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

    /// Every parameter handle of this MLP (weights and biases, layer
    /// order). The split-graph training path uses this to bind one
    /// expert tower onto its own tape via [`ParamSet::bind_subset`].
    #[must_use]
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.layers
            .iter()
            .flat_map(|l| std::iter::once(l.weight()).chain(l.bias()))
            .collect()
    }

    /// Tape forward: activation after every layer except the last.
    #[must_use]
    pub fn forward<'t>(&self, bound: &Bound<'t>, x: Var<'t>) -> Var<'t> {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(bound, h);
            if i + 1 < self.layers.len() {
                h = self.activation.apply(h);
            }
        }
        h
    }

    /// Tape-free forward pass for serving.
    #[must_use]
    pub fn infer(&self, ps: &ParamSet, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.infer(ps, &h);
            if i + 1 < self.layers.len() {
                h = self.activation.apply_matrix(&h);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoe_autograd::Tape;
    use amoe_tensor::assert_close;

    #[test]
    fn linear_forward_matches_infer() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(1);
        let lin = Linear::new(&mut ps, "l", 3, 2, Init::XavierUniform, true, &mut rng);
        let x = rng.normal_matrix(4, 3, 0.0, 1.0);
        let tape = Tape::new();
        let bound = ps.bind(&tape);
        let y_tape = lin.forward(&bound, tape.leaf(x.clone())).value();
        let y_infer = lin.infer(&ps, &x);
        assert_close(&y_tape, &y_infer, 1e-6, 1e-7);
        assert_eq!(y_tape.shape(), (4, 2));
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
        let out = emb.infer(&ps, &[0, 4, 0]);
        assert_eq!(out.shape(), (3, 4));
        assert_eq!(out.row(0), out.row(2));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = emb.infer(&ps, &[5]);
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn mlp_shapes_and_consistency() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(4);
        let mlp = Mlp::new(&mut ps, "m", &[6, 8, 4, 1], Activation::Relu, &mut rng);
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 1);
        assert_eq!(mlp.layers().len(), 3);
        let x = rng.normal_matrix(5, 6, 0.0, 1.0);
        let tape = Tape::new();
        let bound = ps.bind(&tape);
        let y_tape = mlp.forward(&bound, tape.leaf(x.clone())).value();
        assert_close(&y_tape, &mlp.infer(&ps, &x), 1e-5, 1e-6);
    }

    #[test]
    fn mlp_trains_toward_target() {
        // One gradient step on MSE should reduce the loss.
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(5);
        let mlp = Mlp::new(&mut ps, "m", &[2, 8, 1], Activation::Tanh, &mut rng);
        let x = rng.normal_matrix(16, 2, 0.0, 1.0);
        let y = Matrix::filled(16, 1, 0.7);
        let before;
        {
            let tape = Tape::new();
            let bound = ps.bind(&tape);
            let pred = mlp.forward(&bound, tape.leaf(x.clone()));
            let diff = pred.add_const(&amoe_tensor::ops::scale(&y, -1.0));
            let loss = diff.square().mean_all();
            before = loss.value()[(0, 0)];
            let grads = tape.backward(loss);
            ps.collect_grads(&bound, &grads);
        }
        // Manual SGD step.
        for i in 0..ps.len() {
            let g = ps.entries[i].grad.clone();
            amoe_tensor::ops::axpy(&mut ps.entries[i].value, -0.1, &g);
        }
        let tape = Tape::new();
        let bound = ps.bind(&tape);
        let pred = mlp.forward(&bound, tape.leaf(x.clone()));
        let diff = pred.add_const(&amoe_tensor::ops::scale(&y, -1.0));
        let after = diff.square().mean_all().value()[(0, 0)];
        assert!(after < before);
    }
}
