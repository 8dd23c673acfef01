//! Category-dedicated model extraction.
//!
//! The paper's introduction motivates transparent expert↔category
//! assignment because it "opens up the possibility for subsequent
//! extraction and tweaking of category-dedicated models from the unified
//! ensemble". This module implements that: [`extract_category_model`]
//! reads the trained inference gate's distribution for one sub-category,
//! freezes the top-K experts and their mixture weights, and yields a
//! compact standalone scorer ([`CategoryModel`]) that serves that
//! category without the gate networks or the other `N − K` towers.
//!
//! The mixture comes from the same top-K cut as every other MoE score,
//! [`amoe_tensor::topk::top_k_softmax`], so the retained
//! [`CategoryModel::expert_indices`] are in ascending order, and the
//! frozen scorer adds its towers in the serving scatter's order: its
//! scores equal the full ensemble's bit for bit.

use amoe_dataset::Batch;
use amoe_nn::{tower_forward, ParamId, ParamSet};
use amoe_tensor::{ops, reduce, topk, Matrix};

use crate::features::FeatureEncoder;
use crate::models::MoeModel;

/// A compact, frozen, single-category scorer extracted from a trained
/// [`MoeModel`]: the K experts the gate assigns to the category plus
/// their (renormalised) mixture weights.
pub struct CategoryModel {
    /// The sub-category this model is dedicated to.
    pub sc: usize,
    /// Indices of the retained experts in the source ensemble, ascending.
    pub expert_indices: Vec<usize>,
    /// Mixture weight per retained expert (sums to 1).
    pub weights: Vec<f32>,
    /// Expert tower weights: for each retained expert, its layers as
    /// `(w, b)` matrices, in forward order.
    layers: Vec<Vec<(Matrix, Matrix)>>,
    /// The model's encoder, which builds `X` from `tables`.
    encoder: FeatureEncoder,
    /// Snapshot of the model's embedding tables, under the model's ids.
    tables: ParamSet,
}

/// Panics unless the model gates on the SC embedding alone: only then
/// does each sub-category have one gate value, and only then does the
/// SC table fit the gate's input width.
fn assert_sc_gate(model: &MoeModel) {
    assert!(
        matches!(model.config().gate_input, crate::config::GateInput::Sc),
        "extraction requires the SC-only gate input (the deployed configuration)"
    );
}

/// Extracts a dedicated model for sub-category `sc` from a trained MoE.
///
/// The gate is evaluated once on the SC embedding (its true input in the
/// deployed configuration); its top-K cut ([`topk::top_k_softmax`], the
/// one every MoE score uses) becomes the fixed mixture. Since the
/// paper's gate depends only on the query's sub-category, this
/// reproduces the ensemble's scores for that category bit for bit (gate
/// noise is off at inference time).
///
/// # Panics
/// Panics if the model uses a non-SC gate input (no single per-category
/// gate value exists then) or `sc` is out of vocabulary.
#[must_use]
pub fn extract_category_model(model: &MoeModel, sc: usize) -> CategoryModel {
    assert_sc_gate(model);
    let params = model.params();
    let sc_table = params
        .find("emb.sc.table")
        .expect("SC embedding table exists");
    let sc_vocab = params.value(sc_table).rows();
    assert!(
        sc < sc_vocab,
        "sub-category {sc} out of vocabulary {sc_vocab}"
    );

    // Gate distribution for this SC.
    let sc_emb = params.value(sc_table).gather_rows(&[sc]);
    let logits = model.gate_logits_infer(&sc_emb);
    let (expert_indices, weights) = topk::top_k_softmax(logits.row(0), model.config().top_k);

    // Snapshot retained expert towers.
    let layers = expert_indices
        .iter()
        .map(|&e| {
            model.experts()[e]
                .layers()
                .iter()
                .map(|l| {
                    let w = params.value(l.weight()).clone();
                    let b = l
                        .bias()
                        .map(|b| params.value(b).clone())
                        .expect("expert layers have biases");
                    (w, b)
                })
                .collect()
        })
        .collect();

    // The encoder registers its tables first, so copying the parameters
    // up to the last table `X` reads keeps every table's id.
    let encoder = model.encoder().clone();
    let last = encoder.input_tables().map(|e| e.table().index()).max();
    let mut tables = ParamSet::new();
    for id in (0..=last.expect("X reads a table")).map(ParamId::from_index) {
        let name = params.name(id);
        assert!(
            name.starts_with("emb."),
            "extraction: parameter {name:?} sits among the encoder's tables"
        );
        tables.add(name, params.value(id).clone());
    }
    CategoryModel {
        sc,
        expert_indices,
        weights,
        layers,
        encoder,
        tables,
    }
}

impl CategoryModel {
    /// Scalar parameter count of the extracted model (for comparing
    /// against the full ensemble).
    #[must_use]
    pub fn num_parameters(&self) -> usize {
        let towers: usize = self
            .layers
            .iter()
            .flat_map(|t| t.iter().map(|(w, b)| w.len() + b.len()))
            .sum();
        let emb: usize = self
            .encoder
            .input_tables()
            .map(|e| self.tables.value(e.table()).len())
            .sum();
        towers + emb
    }

    /// Predicted purchase probabilities for a batch of candidates in the
    /// dedicated category.
    #[must_use]
    pub fn predict(&self, batch: &Batch) -> Vec<f32> {
        ops::sigmoid(&Matrix::from_vec(
            batch.len(),
            1,
            self.predict_logits(batch),
        ))
        .into_vec()
    }

    /// Raw ensemble logits under the frozen mixture.
    #[must_use]
    pub fn predict_logits(&self, batch: &Batch) -> Vec<f32> {
        let x = self.encoder.input_infer(&self.tables, batch);
        let mut out = Matrix::zeros(batch.len(), 1);
        // `acts[0]` stays `x`; each tower rewrites the layers above it.
        let mut acts = vec![x];
        for (tower, &w) in self.layers.iter().zip(&self.weights) {
            tower_forward(tower.len(), |i| (&tower[i].0, &tower[i].1), &mut acts);
            ops::axpy(&mut out, w, acts.last().expect("the tower output"));
        }
        out.into_vec()
    }

    /// Mean mixture entropy — a diagnostic for how decisively the gate
    /// assigned this category (low entropy = concentrated on few experts).
    #[must_use]
    pub fn mixture_entropy(&self) -> f64 {
        -self
            .weights
            .iter()
            .filter(|&&w| w > 0.0)
            .map(|&w| f64::from(w) * f64::from(w).ln())
            .sum::<f64>()
    }
}

/// Agreement between the extracted model and the full ensemble on a
/// batch from the dedicated category: maximum absolute score difference.
#[must_use]
pub fn extraction_fidelity(model: &MoeModel, extracted: &CategoryModel, batch: &Batch) -> f32 {
    use crate::ranker::Ranker as _;
    let full = model.predict(batch);
    let compact = extracted.predict(batch);
    full.iter()
        .zip(&compact)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max)
}

/// Convenience: per-expert usage share across a set of categories —
/// `reduce::col_mean` of the gate's top-K cut over all SC embeddings.
/// Useful for auditing which experts a deployment could prune.
///
/// # Panics
/// Panics if the model uses a non-SC gate input, like
/// [`extract_category_model`].
#[must_use]
pub fn expert_usage(model: &MoeModel) -> Vec<f32> {
    assert_sc_gate(model);
    let params = model.params();
    let sc_table = params.find("emb.sc.table").expect("SC table");
    let logits = model.gate_logits_infer(params.value(sc_table));
    let mut probs = Matrix::zeros(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let (idx, w) = topk::top_k_softmax(logits.row(r), model.config().top_k);
        for (c, w) in idx.into_iter().zip(w) {
            probs[(r, c)] = w;
        }
    }
    reduce::col_mean(&probs).into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MoeConfig, TowerConfig};
    use crate::ranker::{OptimConfig, Ranker};
    use amoe_dataset::{generate, GeneratorConfig};

    fn trained() -> (amoe_dataset::Dataset, MoeModel) {
        let d = generate(&GeneratorConfig::tiny(55));
        let cfg = MoeConfig {
            n_experts: 6,
            top_k: 2,
            tower: TowerConfig {
                hidden: vec![12, 6],
            },
            ..MoeConfig::default()
        };
        let mut m = MoeModel::new(&d.meta, cfg, OptimConfig::default());
        let batch = amoe_dataset::Batch::from_split(&d.train, &(0..256).collect::<Vec<_>>());
        for _ in 0..8 {
            m.train_step(&batch);
        }
        (d, m)
    }

    /// Examples from the test split whose *predicted* SC (the gate
    /// input) equals `sc`.
    fn batch_for_sc(d: &amoe_dataset::Dataset, sc: usize) -> Option<amoe_dataset::Batch> {
        let idx: Vec<usize> = d
            .test
            .examples
            .iter()
            .enumerate()
            .filter(|(_, e)| e.pred_sc == sc)
            .map(|(i, _)| i)
            .take(40)
            .collect();
        (idx.len() >= 5).then(|| amoe_dataset::Batch::from_split(&d.test, &idx))
    }

    #[test]
    fn extraction_matches_full_model_exactly() {
        let (d, m) = trained();
        // Pick an SC that actually occurs in the test split.
        let sc = d.test.examples[0].pred_sc;
        let extracted = extract_category_model(&m, sc);
        let batch = batch_for_sc(&d, sc).expect("SC occurs in test data");
        let fid = extraction_fidelity(&m, &extracted, &batch);
        assert_eq!(fid, 0.0, "extracted model diverges by {fid}");
    }

    #[test]
    fn extraction_is_smaller_than_ensemble() {
        let (d, m) = trained();
        let sc = d.test.examples[0].pred_sc;
        let extracted = extract_category_model(&m, sc);
        assert!(extracted.num_parameters() < m.num_parameters());
        assert_eq!(extracted.expert_indices.len(), m.config().top_k);
        let wsum: f32 = extracted.weights.iter().sum();
        assert!((wsum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mixture_entropy_bounded() {
        let (d, m) = trained();
        let sc = d.test.examples[0].pred_sc;
        let extracted = extract_category_model(&m, sc);
        let h = extracted.mixture_entropy();
        let max_h = (m.config().top_k as f64).ln();
        assert!(
            h >= 0.0 && h <= max_h + 1e-9,
            "entropy {h} out of [0, {max_h}]"
        );
    }

    #[test]
    fn expert_usage_is_distribution() {
        let (_d, m) = trained();
        let usage = expert_usage(&m);
        assert_eq!(usage.len(), m.config().n_experts);
        let total: f32 = usage.iter().sum();
        assert!((total - 1.0).abs() < 1e-4, "usage sums to {total}");
    }

    #[test]
    #[should_panic(expected = "requires the SC-only gate input")]
    fn expert_usage_rejects_non_sc_gate() {
        let d = generate(&GeneratorConfig::tiny(55));
        let cfg = MoeConfig {
            gate_input: crate::config::GateInput::All,
            ..MoeConfig::default()
        };
        let m = MoeModel::new(&d.meta, cfg, OptimConfig::default());
        let _ = expert_usage(&m);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn bad_sc_panics() {
        let (_d, m) = trained();
        let _ = extract_category_model(&m, 10_000);
    }
}
