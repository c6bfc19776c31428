//! # gbm-eval
//!
//! Metrics and experiment runners: everything needed to regenerate the
//! paper's tables and figures on the synthetic datasets.
//!
//! * [`metrics`] — precision/recall/F1 (§IV-E), threshold sweeps (Fig. 3),
//!   validation-based threshold selection for uncalibrated baselines,
//! * [`harness`] — the shared experiment pipeline (dataset → artifacts →
//!   graphs → tokenizer → pairs → training → evaluation), built on cached
//!   graph embeddings (encode once, score many),
//! * [`retrieval`] — ranked binary→source search over cached embeddings
//!   with MRR / recall@k reporting, monolithic
//!   ([`retrieve`](retrieval::retrieve)) or through the `gbm-serve`
//!   sharded top-K index
//!   ([`retrieve_topk_sharded`](retrieval::retrieve_topk_sharded), same
//!   rankings — asserted),
//! * [`experiments`] — one runner per table/figure (I, III–VIII, Fig. 3/4).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod retrieval;

pub use harness::{
    run_experiment, DatasetKind, ExperimentResult, ExperimentSpec, HarnessConfig, MethodScore, Side,
};
pub use metrics::{best_threshold, sweep, Confusion, Prf, SweepPoint};
pub use retrieval::{
    rank_candidates, retrieval_metrics, retrieve, retrieve_topk_sharded, RankBy, RankedQuery,
    RetrievalConfig, RetrievalMetrics,
};
