//! The shared feature encoder (paper Eq. 2): sparse feature embeddings
//! concatenated with normalised numeric features.

use amoe_autograd::{Tape, Var};
use amoe_dataset::{Batch, DatasetMeta};
use amoe_nn::{Bound, Embedding, ParamSet};
use amoe_tensor::{Matrix, Rng};

use crate::config::{GateInput, MoeConfig};

/// Embedding tables for every sparse feature plus assembly of the input
/// vector `X` and the gate inputs `x_sc` / `x_tc`.
///
/// The sub-category table is shared between the main input and the
/// inference gate, exactly as in the paper ("`x_sc ∈ X` is \[the\] SC
/// embedding vector, a part of \[the\] input vector").
pub struct FeatureEncoder {
    sc: Embedding,
    tc: Embedding,
    brand: Embedding,
    shop: Embedding,
    user_segment: Embedding,
    price_bucket: Embedding,
    /// Only instantiated for the `QueryTcSc` gate ablation.
    query: Option<Embedding>,
    n_numeric: usize,
}

impl FeatureEncoder {
    /// Registers all embedding tables on `params`.
    #[must_use]
    pub fn new(
        params: &mut ParamSet,
        meta: &DatasetMeta,
        config: &MoeConfig,
        rng: &mut Rng,
    ) -> Self {
        let d = config.emb_dim;
        let query = matches!(config.gate_input, GateInput::QueryTcSc)
            .then(|| Embedding::new(params, "emb.query", meta.query_vocab, d, rng));
        FeatureEncoder {
            sc: Embedding::new(params, "emb.sc", meta.sc_vocab, d, rng),
            tc: Embedding::new(params, "emb.tc", meta.tc_vocab, d, rng),
            brand: Embedding::new(params, "emb.brand", meta.brand_vocab, d, rng),
            shop: Embedding::new(params, "emb.shop", meta.shop_vocab, d, rng),
            user_segment: Embedding::new(
                params,
                "emb.user_segment",
                meta.user_segment_vocab,
                d,
                rng,
            ),
            price_bucket: Embedding::new(
                params,
                "emb.price_bucket",
                meta.price_bucket_vocab,
                d,
                rng,
            ),
            query,
            n_numeric: meta.n_numeric,
        }
    }

    /// Builds the model input `X` (Eq. 2) for a batch on the tape:
    /// `[x_sc, x_brand, x_shop, x_user, x_price, numeric]`.
    #[must_use]
    pub fn input<'t>(&self, tape: &'t Tape, bound: &Bound<'t>, batch: &Batch) -> Var<'t> {
        let numeric = tape.leaf_from(&batch.numeric).detach();
        Var::concat_cols(&[
            self.sc.forward(bound, &batch.sc),
            self.brand.forward(bound, &batch.brand),
            self.shop.forward(bound, &batch.shop),
            self.user_segment.forward(bound, &batch.user_segment),
            self.price_bucket.forward(bound, &batch.price_bucket),
            numeric,
        ])
    }

    /// Tape-free input assembly for serving.
    #[must_use]
    pub fn input_infer(&self, params: &ParamSet, batch: &Batch) -> Matrix {
        Matrix::hcat(&[
            &self.sc.infer(params, &batch.sc),
            &self.brand.infer(params, &batch.brand),
            &self.shop.infer(params, &batch.shop),
            &self.user_segment.infer(params, &batch.user_segment),
            &self.price_bucket.infer(params, &batch.price_bucket),
            &batch.numeric,
        ])
    }

    /// Sub-category embedding rows (the inference gate's default input).
    #[must_use]
    pub fn sc_embedding<'t>(&self, bound: &Bound<'t>, batch: &Batch) -> Var<'t> {
        self.sc.forward(bound, &batch.sc)
    }

    /// Top-category embedding rows (the constraint gate's input).
    #[must_use]
    pub fn tc_embedding<'t>(&self, bound: &Bound<'t>, batch: &Batch) -> Var<'t> {
        self.tc.forward(bound, &batch.tc)
    }

    /// The inference-gate input under a [`GateInput`] ablation setting.
    #[must_use]
    pub fn gate_input<'t>(
        &self,
        tape: &'t Tape,
        bound: &Bound<'t>,
        batch: &Batch,
        which: GateInput,
    ) -> Var<'t> {
        match which {
            GateInput::Sc => self.sc_embedding(bound, batch),
            GateInput::TcSc => Var::concat_cols(&[
                self.tc_embedding(bound, batch),
                self.sc_embedding(bound, batch),
            ]),
            GateInput::QueryTcSc => {
                let q = self
                    .query
                    .as_ref()
                    .expect("FeatureEncoder: query embedding not built for this config")
                    .forward(bound, &batch.query);
                Var::concat_cols(&[
                    q,
                    self.tc_embedding(bound, batch),
                    self.sc_embedding(bound, batch),
                ])
            }
            GateInput::UserTcSc => Var::concat_cols(&[
                self.user_segment.forward(bound, &batch.user_segment),
                self.tc_embedding(bound, batch),
                self.sc_embedding(bound, batch),
            ]),
            GateInput::All => Var::concat_cols(&[
                self.input(tape, bound, batch),
                self.tc_embedding(bound, batch),
            ]),
        }
    }

    /// Tape-free inference-gate input under a [`GateInput`] setting,
    /// column-for-column identical to [`FeatureEncoder::gate_input`]
    /// evaluated on the same parameters. This is what lets the serving
    /// path score every gate-input ablation, not just `Sc`.
    #[must_use]
    pub fn gate_input_infer(&self, params: &ParamSet, batch: &Batch, which: GateInput) -> Matrix {
        match which {
            GateInput::Sc => self.sc.infer(params, &batch.sc),
            GateInput::TcSc => Matrix::hcat(&[
                &self.tc.infer(params, &batch.tc),
                &self.sc.infer(params, &batch.sc),
            ]),
            GateInput::QueryTcSc => {
                let q = self
                    .query
                    .as_ref()
                    .expect("FeatureEncoder: query embedding not built for this config")
                    .infer(params, &batch.query);
                Matrix::hcat(&[
                    &q,
                    &self.tc.infer(params, &batch.tc),
                    &self.sc.infer(params, &batch.sc),
                ])
            }
            GateInput::UserTcSc => Matrix::hcat(&[
                &self.user_segment.infer(params, &batch.user_segment),
                &self.tc.infer(params, &batch.tc),
                &self.sc.infer(params, &batch.sc),
            ]),
            GateInput::All => Matrix::hcat(&[
                &self.input_infer(params, batch),
                &self.tc.infer(params, &batch.tc),
            ]),
        }
    }

    /// Number of numeric features.
    #[must_use]
    pub fn n_numeric(&self) -> usize {
        self.n_numeric
    }

    /// Every parameter handle the encoder owns (all embedding tables).
    /// Used to bind the shared-prefix tape of the split-graph training
    /// path to exactly the encoder's weights.
    #[must_use]
    pub fn param_ids(&self) -> Vec<amoe_nn::ParamId> {
        let mut ids = vec![
            self.sc.table(),
            self.tc.table(),
            self.brand.table(),
            self.shop.table(),
            self.user_segment.table(),
            self.price_bucket.table(),
        ];
        if let Some(q) = &self.query {
            ids.push(q.table());
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoe_dataset::{generate, GeneratorConfig};
    use amoe_tensor::assert_close;

    fn setup() -> (amoe_dataset::Dataset, MoeConfig) {
        (generate(&GeneratorConfig::tiny(1)), MoeConfig::default())
    }

    #[test]
    fn input_shape_matches_config() {
        let (d, cfg) = setup();
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(1);
        let enc = FeatureEncoder::new(&mut ps, &d.meta, &cfg, &mut rng);
        let batch = Batch::from_split(&d.train, &[0, 1, 2]);
        let tape = Tape::new();
        let bound = ps.bind(&tape);
        let x = enc.input(&tape, &bound, &batch);
        assert_eq!(x.shape(), (3, cfg.input_dim(&d.meta)));
    }

    #[test]
    fn infer_matches_tape() {
        let (d, cfg) = setup();
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(2);
        let enc = FeatureEncoder::new(&mut ps, &d.meta, &cfg, &mut rng);
        let batch = Batch::from_split(&d.train, &[3, 7]);
        let tape = Tape::new();
        let bound = ps.bind(&tape);
        let x_tape = enc.input(&tape, &bound, &batch).value();
        let x_inf = enc.input_infer(&ps, &batch);
        assert_close(&x_tape, &x_inf, 1e-6, 1e-7);
    }

    #[test]
    fn gate_input_widths() {
        let (d, _) = setup();
        for (which, factor) in [
            (GateInput::Sc, 1usize),
            (GateInput::TcSc, 2),
            (GateInput::QueryTcSc, 3),
            (GateInput::UserTcSc, 3),
        ] {
            let cfg = MoeConfig {
                gate_input: which,
                ..Default::default()
            };
            let mut ps = ParamSet::new();
            let mut rng = Rng::seed_from(3);
            let enc = FeatureEncoder::new(&mut ps, &d.meta, &cfg, &mut rng);
            let batch = Batch::from_split(&d.train, &[0, 1]);
            let tape = Tape::new();
            let bound = ps.bind(&tape);
            let g = enc.gate_input(&tape, &bound, &batch, which);
            assert_eq!(g.shape(), (2, factor * cfg.emb_dim), "{which:?}");
        }
    }

    #[test]
    fn all_gate_input_includes_everything() {
        let (d, _) = setup();
        let cfg = MoeConfig {
            gate_input: GateInput::All,
            ..Default::default()
        };
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(4);
        let enc = FeatureEncoder::new(&mut ps, &d.meta, &cfg, &mut rng);
        let batch = Batch::from_split(&d.train, &[0]);
        let tape = Tape::new();
        let bound = ps.bind(&tape);
        let g = enc.gate_input(&tape, &bound, &batch, GateInput::All);
        assert_eq!(g.shape().1, cfg.gate_input_dim(&d.meta));
    }

    #[test]
    fn gate_input_infer_matches_tape_for_every_variant() {
        let (d, _) = setup();
        for which in [
            GateInput::Sc,
            GateInput::TcSc,
            GateInput::QueryTcSc,
            GateInput::UserTcSc,
            GateInput::All,
        ] {
            let cfg = MoeConfig {
                gate_input: which,
                ..Default::default()
            };
            let mut ps = ParamSet::new();
            let mut rng = Rng::seed_from(6);
            let enc = FeatureEncoder::new(&mut ps, &d.meta, &cfg, &mut rng);
            let batch = Batch::from_split(&d.train, &[2, 5, 9]);
            let tape = Tape::new();
            let bound = ps.bind(&tape);
            let on_tape = enc.gate_input(&tape, &bound, &batch, which).value();
            let inferred = enc.gate_input_infer(&ps, &batch, which);
            assert_close(&on_tape, &inferred, 1e-6, 1e-7);
        }
    }

    #[test]
    fn numeric_features_are_detached() {
        // Gradients must not flow into the raw numeric leaf (it is data,
        // not a parameter); verify backward succeeds and embeddings get
        // gradients while the batch numeric leaf does not explode.
        let (d, cfg) = setup();
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from(5);
        let enc = FeatureEncoder::new(&mut ps, &d.meta, &cfg, &mut rng);
        let batch = Batch::from_split(&d.train, &[0, 1]);
        let tape = Tape::new();
        let bound = ps.bind(&tape);
        let x = enc.input(&tape, &bound, &batch);
        let loss = x.square().sum_all();
        let grads = tape.backward(loss);
        ps.collect_grads(&bound, &grads);
        let sc_grad = ps.grad(ps.find("emb.sc.table").unwrap());
        assert!(sc_grad.frob_norm() > 0.0);
    }
}
