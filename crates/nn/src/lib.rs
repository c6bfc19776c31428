//! # gbm-nn
//!
//! Neural-network layers and the Graph Binary Matching Similarity Neural
//! Network (the paper's model, §III-D), built on the `gbm-tensor` autograd
//! engine:
//!
//! * [`layers`] — Linear, Embedding, LayerNorm, Dropout,
//! * [`gatv2`] — single-head GATv2 convolution with positional edge features
//!   and the heterogeneous stack-&-max wrapper,
//! * [`pooling`] — SimGNN-style global attention pooling (per-graph and
//!   segment-batched),
//! * [`model`] — the Siamese [`GraphBinMatch`] network, split into the
//!   pair-independent [`GraphEncoder`] and the pairwise [`MatchHead`],
//! * [`batch`] — [`GraphBatch`]: disjoint-union mini-batches so the encoder
//!   runs one B-fold-larger kernel per layer instead of B small ones,
//! * [`embeddings`] — the [`EmbeddingStore`]: parallel batched encode-once
//!   caching so many-pair inference costs one encoder forward per unique
//!   graph (and one *batched* forward per chunk of them),
//! * [`objective`] — pluggable [`TrainObjective`]s over the shared batch
//!   embedding matrix: pairwise BCE (the paper's loss), XLIR-style triplet
//!   with in-batch hard-negative mining, and InfoNCE,
//! * `sampler` / `step` (internal) — minibatch assembly and the per-step
//!   gather → batched forward → objective → optimizer pipeline,
//! * [`trainer`] — the Adam training loop over any objective, plus batch
//!   prediction.

#![forbid(unsafe_code)]

pub mod batch;
pub mod embeddings;
pub mod gatv2;
pub mod layers;
pub mod model;
pub mod objective;
pub mod pooling;
pub(crate) mod sampler;
pub mod spec;
pub(crate) mod step;
pub mod trainer;

pub use batch::{GraphBatch, UniqueIndex};
pub use embeddings::EmbeddingStore;
pub use gatv2::{Fusion, Gatv2Conv, HeteroConv, PreparedRelation, Relation};
pub use layers::{Dropout, Embedding, LayerNorm, Linear};
pub use model::{
    encode_graph, EncodedGraph, GraphBinMatch, GraphBinMatchConfig, GraphEncoder, MatchHead,
    PoolKind,
};
pub use objective::{Scoring, TrainObjective};
pub use pooling::AttentionPooling;
pub use spec::ModelSpec;
pub use trainer::{
    predict, predict_scored, train, EpochStats, PairExample, PairSet, PairSetError, TrainConfig,
};
