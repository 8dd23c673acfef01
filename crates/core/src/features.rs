//! The shared feature encoder (paper Eq. 2): sparse feature embeddings
//! concatenated with normalised numeric features.
//!
//! There is no tape here. Training and serving run one forward, which
//! gathers table rows straight into a caller's buffer (`X`, the gate
//! input, the TC rows), and [`FeatureEncoder::backward`] scatter-adds
//! their cotangents into the tables' gradients in a tape's order. No
//! table is copied per step: the work grows with the batch, not the
//! vocabulary.

use amoe_dataset::{Batch, DatasetMeta};
use amoe_nn::{Embedding, ParamSet};
use amoe_tensor::{Matrix, Rng};

use crate::config::{GateInput, MoeConfig};

/// Embedding tables for every sparse feature plus assembly of the input
/// vector `X` and the gate inputs `x_sc` / `x_tc`.
///
/// The sub-category table is shared between the main input and the
/// inference gate, exactly as in the paper ("`x_sc ∈ X` is \[the\] SC
/// embedding vector, a part of \[the\] input vector").
#[derive(Clone)]
pub struct FeatureEncoder {
    sc: Embedding,
    tc: Embedding,
    brand: Embedding,
    shop: Embedding,
    user_segment: Embedding,
    price_bucket: Embedding,
    /// Only instantiated for the `QueryTcSc` gate ablation.
    query: Option<Embedding>,
    /// The inference gate's input layout.
    gate_input: GateInput,
}

/// One column block of an encoder output: a feature's table rows at
/// the batch's ids, or the batch's numeric features.
#[derive(Clone, Copy)]
enum Block {
    Sc,
    Tc,
    Brand,
    Shop,
    UserSegment,
    PriceBucket,
    Query,
    Numeric,
}

use Block::{Brand, Numeric, PriceBucket, Query, Sc, Shop, Tc, UserSegment};

/// The blocks of `X` (Eq. 2).
const INPUT: &[Block] = &[Sc, Brand, Shop, UserSegment, PriceBucket, Numeric];

/// The constraint gate's input: the TC rows.
const TC: &[Block] = &[Tc];

/// The blocks of the inference gate's input under each [`GateInput`].
fn gate_blocks(which: GateInput) -> &'static [Block] {
    match which {
        GateInput::Sc => &[Sc],
        GateInput::TcSc => &[Tc, Sc],
        GateInput::QueryTcSc => &[Query, Tc, Sc],
        GateInput::UserTcSc => &[UserSegment, Tc, Sc],
        GateInput::All => &[Sc, Brand, Shop, UserSegment, PriceBucket, Numeric, Tc],
    }
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
        // Registration order is parameter order: query first, if any.
        let mut table =
            |name: &str, vocab| Embedding::new(params, name, vocab, config.emb_dim, rng);
        let query = matches!(config.gate_input, GateInput::QueryTcSc)
            .then(|| table("emb.query", meta.query_vocab));
        FeatureEncoder {
            sc: table("emb.sc", meta.sc_vocab),
            tc: table("emb.tc", meta.tc_vocab),
            brand: table("emb.brand", meta.brand_vocab),
            shop: table("emb.shop", meta.shop_vocab),
            user_segment: table("emb.user_segment", meta.user_segment_vocab),
            price_bucket: table("emb.price_bucket", meta.price_bucket_vocab),
            query,
            gate_input: config.gate_input,
        }
    }

    /// The model input `X` (Eq. 2) for a batch:
    /// `[x_sc, x_brand, x_shop, x_user, x_price, numeric]`.
    #[must_use]
    pub fn input_infer(&self, params: &ParamSet, batch: &Batch) -> Matrix {
        let mut out = Matrix::scalar(0.0);
        self.input_into(params, batch, &mut out);
        out
    }

    /// [`FeatureEncoder::input_infer`] into `out`'s reused buffer.
    pub fn input_into(&self, params: &ParamSet, batch: &Batch, out: &mut Matrix) {
        self.gather_into(params, batch, INPUT, out);
    }

    /// The inference gate's input under the configured [`GateInput`]
    /// (every variant is servable, not just `Sc`).
    #[must_use]
    pub fn gate_input_infer(&self, params: &ParamSet, batch: &Batch) -> Matrix {
        let mut out = Matrix::scalar(0.0);
        self.gate_input_into(params, batch, &mut out);
        out
    }

    /// [`FeatureEncoder::gate_input_infer`] into `out`'s reused buffer.
    pub fn gate_input_into(&self, params: &ParamSet, batch: &Batch, out: &mut Matrix) {
        self.gather_into(params, batch, gate_blocks(self.gate_input), out);
    }

    /// Top-category embedding rows (the constraint gate's input) into
    /// `out`'s reused buffer.
    pub fn tc_into(&self, params: &ParamSet, batch: &Batch, out: &mut Matrix) {
        self.gather_into(params, batch, TC, out);
    }

    /// Adds the gradients of the tables, given the cotangents of `X`, of
    /// the gate input and of the TC rows, to `params`' gradient slots.
    /// `order` is a batch-sized scratch, reused across calls.
    ///
    /// The sums are a tape's. Each lookup sums the cotangents of one
    /// table row in ascending batch order from +0.0; the lookups of one
    /// table then add in the reverse of the order the model reads them:
    /// the TC rows, the gate input, then `X`. On zeroed slots this is
    /// the tape's gradient bit for bit, as a sum from +0.0 is never
    /// −0.0. Numeric columns have no table; their cotangent is dropped.
    ///
    /// # Panics
    /// Panics if a cotangent's shape differs from its output's.
    pub fn backward(
        &self,
        params: &mut ParamSet,
        batch: &Batch,
        d_x: &Matrix,
        d_gate_in: Option<&Matrix>,
        d_tc: Option<&Matrix>,
        order: &mut Vec<(usize, usize)>,
    ) {
        // Whether an earlier output read a block's table, by block.
        let mut read = [false; 8];
        let outputs = [
            (TC, d_tc),
            (gate_blocks(self.gate_input), d_gate_in),
            (INPUT, Some(d_x)),
        ];
        for (blocks, d) in outputs {
            let Some(d) = d else { continue };
            assert_eq!(
                d.shape(),
                (batch.len(), self.width(batch, blocks)),
                "FeatureEncoder::backward: cotangent shape"
            );
            let mut off = 0;
            for &block in blocks {
                let Some((emb, ids)) = self.lookup(block, batch) else {
                    off += batch.numeric.cols();
                    continue;
                };
                // A table's first lookup adds each row straight into the
                // zeroed slot. A later one first sums each table row's
                // cotangents from +0.0 (`order` sorted by id), then adds.
                let later = std::mem::replace(&mut read[block as usize], true);
                order.clear();
                order.extend(ids.iter().copied().zip(0..));
                if later {
                    order.sort_unstable();
                }
                let grad = params.grad_mut(emb.table());
                for rows in order.chunk_by(|a, b| later && a.0 == b.0) {
                    for (c, g) in grad.row_mut(rows[0].0).iter_mut().enumerate() {
                        *g += rows.iter().fold(0.0, |sum, &(_, r)| sum + d[(r, off + c)]);
                    }
                }
                off += emb.dim();
            }
        }
    }

    /// The tables `X` reads, in its column order.
    pub(crate) fn input_tables(&self) -> impl Iterator<Item = &Embedding> {
        INPUT.iter().filter_map(|&block| self.embedding(block))
    }

    /// The table behind an embedding block; `None` for the numeric
    /// block.
    fn embedding(&self, block: Block) -> Option<&Embedding> {
        Some(match block {
            Sc => &self.sc,
            Tc => &self.tc,
            Brand => &self.brand,
            Shop => &self.shop,
            UserSegment => &self.user_segment,
            PriceBucket => &self.price_bucket,
            Query => self
                .query
                .as_ref()
                .expect("FeatureEncoder: query embedding not built for this config"),
            Numeric => return None,
        })
    }

    /// The table behind an embedding block and the batch's ids into it;
    /// `None` for the numeric block.
    fn lookup<'a>(
        &'a self,
        block: Block,
        batch: &'a Batch,
    ) -> Option<(&'a Embedding, &'a [usize])> {
        let ids = match block {
            Sc => &batch.sc,
            Tc => &batch.tc,
            Brand => &batch.brand,
            Shop => &batch.shop,
            UserSegment => &batch.user_segment,
            PriceBucket => &batch.price_bucket,
            Query => &batch.query,
            Numeric => return None,
        };
        Some((self.embedding(block)?, ids))
    }

    fn width(&self, batch: &Batch, blocks: &[Block]) -> usize {
        blocks
            .iter()
            .map(|&block| {
                self.lookup(block, batch)
                    .map_or(batch.numeric.cols(), |(emb, _)| emb.dim())
            })
            .sum()
    }

    /// Writes `blocks` side by side into `out`, one row per batch row.
    fn gather_into(&self, params: &ParamSet, batch: &Batch, blocks: &[Block], out: &mut Matrix) {
        let b = batch.len();
        out.resize_zeroed(b, self.width(batch, blocks));
        let mut off = 0;
        for &block in blocks {
            let (src, ids) = match self.lookup(block, batch) {
                Some((emb, ids)) => (emb.checked_table(params, ids), Some(ids)),
                None => (&batch.numeric, None),
            };
            let w = src.cols();
            for r in 0..b {
                let row = src.row(ids.map_or(r, |ids| ids[r]));
                out.row_mut(r)[off..off + w].copy_from_slice(row);
            }
            off += w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoe_dataset::{generate, GeneratorConfig};

    fn setup() -> (amoe_dataset::Dataset, MoeConfig) {
        (generate(&GeneratorConfig::tiny(1)), MoeConfig::default())
    }

    fn encoder(
        d: &amoe_dataset::Dataset,
        cfg: &MoeConfig,
        seed: u64,
    ) -> (ParamSet, FeatureEncoder) {
        let mut ps = ParamSet::new();
        let enc = FeatureEncoder::new(&mut ps, &d.meta, cfg, &mut Rng::seed_from(seed));
        (ps, enc)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn input_shape_matches_config() {
        let (d, cfg) = setup();
        let (ps, enc) = encoder(&d, &cfg, 1);
        let batch = Batch::from_split(&d.train, &[0, 1, 2]);
        let x = enc.input_infer(&ps, &batch);
        assert_eq!(x.shape(), (3, cfg.input_dim(&d.meta)));
    }

    #[test]
    fn input_is_the_tables_rows_then_the_numeric_features() {
        let (d, cfg) = setup();
        let (ps, enc) = encoder(&d, &cfg, 2);
        let batch = Batch::from_split(&d.train, &[3, 7]);
        let table = |name: &str| ps.value(ps.find(name).unwrap());
        let want = Matrix::hcat(&[
            &table("emb.sc.table").gather_rows(&batch.sc),
            &table("emb.brand.table").gather_rows(&batch.brand),
            &table("emb.shop.table").gather_rows(&batch.shop),
            &table("emb.user_segment.table").gather_rows(&batch.user_segment),
            &table("emb.price_bucket.table").gather_rows(&batch.price_bucket),
            &batch.numeric,
        ]);
        assert_eq!(enc.input_infer(&ps, &batch), want);
    }

    #[test]
    fn into_forms_ignore_the_old_output() {
        // A buffer left by a wider output and a longer batch must be
        // rewritten in full.
        let (d, _) = setup();
        let cfg = MoeConfig {
            gate_input: GateInput::All,
            hsc: true,
            ..Default::default()
        };
        let (ps, enc) = encoder(&d, &cfg, 3);
        let long = Batch::from_split(&d.train, &[0, 1, 2, 3, 4, 5]);
        let short = Batch::from_split(&d.train, &[9, 4]);
        let mut out = Matrix::filled(1, 1, f32::NAN);
        enc.gate_input_into(&ps, &long, &mut out);
        enc.input_into(&ps, &short, &mut out);
        assert_eq!(out, enc.input_infer(&ps, &short));
        enc.tc_into(&ps, &short, &mut out);
        assert_eq!(
            out,
            ps.value(ps.find("emb.tc.table").unwrap())
                .gather_rows(&short.tc)
        );
        enc.gate_input_into(&ps, &short, &mut out);
        assert_eq!(out, enc.gate_input_infer(&ps, &short));
    }

    #[test]
    fn gate_input_is_the_configured_blocks_for_every_variant() {
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
            let (ps, enc) = encoder(&d, &cfg, 6);
            let batch = Batch::from_split(&d.train, &[2, 5, 9]);
            let rows = |name: &str, ids: &[usize]| {
                ps.value(ps.find(&format!("emb.{name}.table")).unwrap())
                    .gather_rows(ids)
            };
            let (sc, tc) = (rows("sc", &batch.sc), rows("tc", &batch.tc));
            let want = match which {
                GateInput::Sc => sc,
                GateInput::TcSc => Matrix::hcat(&[&tc, &sc]),
                GateInput::QueryTcSc => Matrix::hcat(&[&rows("query", &batch.query), &tc, &sc]),
                GateInput::UserTcSc => {
                    Matrix::hcat(&[&rows("user_segment", &batch.user_segment), &tc, &sc])
                }
                GateInput::All => Matrix::hcat(&[&enc.input_infer(&ps, &batch), &tc]),
            };
            let got = enc.gate_input_infer(&ps, &batch);
            assert_eq!(got.shape(), (3, cfg.gate_input_dim(&d.meta)), "{which:?}");
            assert_eq!(got, want, "{which:?}");
        }
    }

    #[test]
    fn backward_sums_repeated_rows_in_batch_order() {
        // Five lookups of rows [0, 2, 2, 4, 0]: each row's gradient is
        // its cotangents summed from +0.0 in ascending batch order, and
        // rows no lookup reads stay +0.0.
        let (d, cfg) = setup();
        let (mut ps, enc) = encoder(&d, &cfg, 7);
        let mut batch = Batch::from_split(&d.train, &[0, 1, 2, 3, 4]);
        batch.brand = vec![0, 2, 2, 4, 0];
        let mut rng = Rng::seed_from(8);
        let d_x = rng.normal_matrix(5, cfg.input_dim(&d.meta), 0.0, 1.0);
        enc.backward(&mut ps, &batch, &d_x, None, None, &mut Vec::new());

        let e = cfg.emb_dim;
        let brand = &d_x.slice_cols(e, 2 * e);
        let mut want = Matrix::zeros(d.meta.brand_vocab, e);
        for (row, batch_rows) in [(0, &[0, 4][..]), (2, &[1, 2]), (4, &[3])] {
            for c in 0..e {
                want[(row, c)] = batch_rows.iter().fold(0.0, |s, &r| s + brand[(r, c)]);
            }
        }
        let grad = ps.grad(ps.find("emb.brand.table").unwrap());
        assert_eq!(bits(grad), bits(&want));
    }

    #[test]
    fn backward_adds_lookups_of_one_table_tc_then_gate_then_input() {
        // Under `TcSc` the SC table is read by the gate input and by
        // `X`, and the TC table by the TC rows and the gate input. Each
        // lookup's sum is added to the table gradient in that order.
        let (d, _) = setup();
        let cfg = MoeConfig {
            gate_input: GateInput::TcSc,
            ..Default::default()
        };
        let (mut ps, enc) = encoder(&d, &cfg, 9);
        let mut batch = Batch::from_split(&d.train, &[0, 1, 2, 3, 4, 5]);
        batch.sc = vec![3, 1, 3, 3, 1, 0];
        batch.tc = vec![2, 2, 0, 2, 1, 0];
        let mut rng = Rng::seed_from(10);
        let e = cfg.emb_dim;
        let d_x = rng.normal_matrix(6, cfg.input_dim(&d.meta), 0.0, 1.0);
        let d_gate = rng.normal_matrix(6, 2 * e, 0.0, 1.0);
        let d_tc = rng.normal_matrix(6, e, 0.0, 1.0);
        enc.backward(
            &mut ps,
            &batch,
            &d_x,
            Some(&d_gate),
            Some(&d_tc),
            &mut Vec::new(),
        );

        // One lookup's sum for table row `row`, column `c`.
        let sum = |d: &Matrix, off: usize, ids: &[usize], row: usize, c: usize| {
            (0..ids.len())
                .filter(|&r| ids[r] == row)
                .fold(0.0f32, |s, r| s + d[(r, off + c)])
        };
        let (sc_grad, tc_grad) = (
            ps.grad(ps.find("emb.sc.table").unwrap()),
            ps.grad(ps.find("emb.tc.table").unwrap()),
        );
        for row in 0..4 {
            for c in 0..e {
                let sc = sum(&d_gate, e, &batch.sc, row, c) + sum(&d_x, 0, &batch.sc, row, c);
                assert_eq!(sc_grad[(row, c)].to_bits(), sc.to_bits(), "sc row {row}");
                let tc = sum(&d_tc, 0, &batch.tc, row, c) + sum(&d_gate, 0, &batch.tc, row, c);
                assert_eq!(tc_grad[(row, c)].to_bits(), tc.to_bits(), "tc row {row}");
            }
        }
    }

    #[test]
    fn numeric_cotangent_reaches_no_table() {
        // Numeric features are data, not parameters: a cotangent on
        // their columns alone leaves every table gradient zero, and one
        // on the SC columns reaches the SC table.
        let (d, cfg) = setup();
        let (mut ps, enc) = encoder(&d, &cfg, 5);
        let batch = Batch::from_split(&d.train, &[0, 1]);
        let width = cfg.input_dim(&d.meta);
        let mut d_x = Matrix::zeros(2, width);
        for c in 5 * cfg.emb_dim..width {
            d_x[(0, c)] = 1.0;
        }
        enc.backward(&mut ps, &batch, &d_x, None, None, &mut Vec::new());
        assert_eq!(ps.grad_global_norm(), 0.0);
        d_x[(1, 0)] = 1.0;
        enc.backward(&mut ps, &batch, &d_x, None, None, &mut Vec::new());
        assert!(ps.grad(ps.find("emb.sc.table").unwrap()).frob_norm() > 0.0);
    }
}
