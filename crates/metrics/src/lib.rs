#![warn(missing_docs)]

//! Evaluation metrics for the reproduction.
//!
//! All ranking metrics follow the paper's protocol (Sec. 5.1.2): they are
//! computed **per session** and averaged over sessions; sessions without
//! both a positive and a negative label are skipped for AUC (undefined)
//! and sessions without a positive are skipped for NDCG.

pub mod auc;
pub mod concentration;
pub mod feature_importance;
pub mod logloss;
pub mod ndcg;
pub mod silhouette;

pub use auc::{roc_auc, session_auc};
pub use concentration::{brand_concentration, BrandConcentration};
pub use feature_importance::feature_importance;
pub use logloss::log_loss;
pub use ndcg::{ndcg, session_ndcg};
pub use silhouette::silhouette_score;

/// Scores and labels for one ranked session.
#[derive(Clone, Debug)]
pub struct SessionEval<'a> {
    /// Model scores, one per item.
    pub scores: &'a [f32],
    /// Binary labels, one per item.
    pub labels: &'a [bool],
}
