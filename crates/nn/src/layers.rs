//! Layers: linear, embedding and MLP towers.

use std::borrow::Cow;

use amoe_autograd::Var;
use amoe_tensor::{matmul, ops, reduce, Matrix, Rng};

use crate::{Bound, Init, ParamId, ParamSet};

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

    /// Tape forward: ReLU after every layer except the last.
    #[must_use]
    pub fn forward<'t>(&self, bound: &Bound<'t>, x: Var<'t>) -> Var<'t> {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(bound, h);
            if i + 1 < self.layers.len() {
                h = h.relu();
            }
        }
        h
    }

    /// Tape-free forward pass for serving and scoring.
    #[must_use]
    pub fn infer(&self, ps: &ParamSet, x: Matrix) -> Matrix {
        self.run(ps, x, drop)
    }

    /// Tape-free forward pass for training: the output plus each
    /// layer's input (`x` first), which [`Mlp::backward`] consumes.
    #[must_use]
    pub fn forward_train(&self, ps: &ParamSet, x: Matrix) -> (Vec<Matrix>, Matrix) {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let out = self.run(ps, x, |h| inputs.push(h));
        (inputs, out)
    }

    /// The one layer loop behind [`Mlp::infer`] and
    /// [`Mlp::forward_train`]: hands each layer's input to `keep` once
    /// the layer has consumed it.
    fn run(&self, ps: &ParamSet, x: Matrix, mut keep: impl FnMut(Matrix)) -> Matrix {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.infer(ps, &h);
            if i + 1 < self.layers.len() {
                y = ops::relu(&y);
            }
            keep(std::mem::replace(&mut h, y));
        }
        h
    }

    /// Backward pass from the layer inputs of [`Mlp::forward_train`]
    /// and the output cotangent `d_out`: returns the input cotangent and
    /// every weight and bias gradient.
    ///
    /// It runs the tape's kernels in the tape's order, so each result is
    /// bit for bit what [`Tape::backward`](amoe_autograd::Tape::backward)
    /// gives for [`Mlp::forward`]. The ReLU mask is read off the next
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
        assert_eq!(
            inputs.len(),
            self.layers.len(),
            "Mlp::backward: one input per layer"
        );
        let mut grads = Vec::with_capacity(2 * self.layers.len());
        let mut g = Cow::Borrowed(d_out);
        for (i, (layer, input)) in self.layers.iter().zip(inputs).enumerate().rev() {
            if let Some(b) = layer.bias() {
                grads.push((b, reduce::col_sum(&g)));
            }
            grads.push((layer.weight(), matmul::matmul_tn(input, &g)));
            let d_in = matmul::matmul_nt(&g, ps.value(layer.weight()));
            g = Cow::Owned(if i == 0 {
                d_in
            } else {
                let mask = ops::map(input, |v| if v > 0.0 { 1.0 } else { 0.0 });
                ops::mul(&d_in, &mask)
            });
        }
        (g.into_owned(), grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoe_autograd::Tape;

    #[test]
    fn linear_forward_matches_infer() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(1);
        let lin = Linear::new(&mut ps, "l", 3, 2, Init::XavierUniform, true, &mut rng);
        let x = rng.normal_matrix(4, 3, 0.0, 1.0);
        let tape = Tape::new();
        let bound = ps.bind(&tape);
        let y_tape = lin.forward(&bound, tape.leaf(x.clone())).value();
        assert_eq!(y_tape, lin.infer(&ps, &x));
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
        let mlp = Mlp::new(&mut ps, "m", &[6, 8, 4, 1], &mut rng);
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 1);
        assert_eq!(mlp.layers().len(), 3);
        let x = rng.normal_matrix(5, 6, 0.0, 1.0);
        let tape = Tape::new();
        let bound = ps.bind(&tape);
        let y_tape = mlp.forward(&bound, tape.leaf(x.clone())).value();
        assert_eq!(y_tape, mlp.infer(&ps, x));
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
            let bound = ps.bind(&tape);
            let x_leaf = tape.leaf(x.clone());
            let out = mlp.forward(&bound, x_leaf);
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
