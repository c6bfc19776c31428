//! # gbm-tensor
//!
//! A compact CPU tensor engine with reverse-mode automatic differentiation,
//! written for the GraphBinMatch reproduction. There is no mature GNN stack in
//! Rust, so this crate provides the numeric substrate the paper's model needs:
//!
//! * [`Tensor`] — an immutable, cheaply-clonable (`Arc`-backed) `f32` tensor
//!   with 1-D/2-D/3-D shapes and rayon-parallel kernels,
//! * [`Graph`] — an autograd tape; every differentiable op lives on it and
//!   records a backward closure,
//! * [`Param`] / [`ParamStore`] — trainable parameters with gradient sinks,
//! * [`Adam`] — the optimizer the paper trains with (plus plain SGD),
//! * [`gradcheck`] — finite-difference gradient verification used across the
//!   test suite.
//!
//! Design notes:
//! * Kernels parallelize *inside* ops with rayon (data parallelism as in the
//!   Rayon guide); the tape itself is single-threaded, which keeps autograd
//!   free of locks on the hot path.
//! * Graph-neural-network primitives (`gather_rows`, `segment_sum`,
//!   `segment_mean`, `segment_max`, `seq_max`) are first-class ops so message
//!   passing needs no per-edge allocation. Segment ops keyed by a per-node
//!   `graph_id` vector also implement node→graph pooling for batched
//!   (disjoint-union) encoding.
//! * Kernel outputs and tensor buffers cycle through a thread-local scratch
//!   pool (`scratch`): dropping a tensor recycles its capacity, so hot batch
//!   loops stop round-tripping the global allocator.
//!
//! ```
//! use gbm_tensor::{Graph, Tensor, Param, Adam, Optimizer};
//!
//! // Fit y = 2x with one weight.
//! let w = Param::new("w", Tensor::from_vec(vec![0.0], &[1, 1]));
//! let mut opt = Adam::with_lr(0.1);
//! for _ in 0..200 {
//!     let g = Graph::new();
//!     let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]));
//!     let y = g.constant(Tensor::from_vec(vec![2.0, 4.0, 6.0], &[3, 1]));
//!     let pred = g.matmul(x, g.param(&w));
//!     let diff = g.sub(pred, y);
//!     let loss = g.mean_all(g.mul(diff, diff));
//!     g.backward(loss);
//!     opt.step(&[w.clone()]);
//! }
//! assert!((w.value().data()[0] - 2.0).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]

mod centdist;
mod graph;
mod init;
mod intdot;
mod kernels;
mod merge;
mod ops;
mod optim;
mod param;
mod scratch;
#[cfg(test)]
mod segment_props;
mod select;
#[cfg(test)]
mod select_props;
mod shape;
mod tensor;

pub mod gradcheck;

pub use centdist::{centroid_sq_dists, dot_f32_blocked};
pub use graph::{Graph, Var};
pub use init::{glorot_uniform, normal, uniform};
pub use intdot::dot_i8_blocked;
pub use merge::merge_ranked;
pub use optim::{clip_grad_norm, Adam, Optimizer, Sgd};
pub use param::{Param, ParamStore};
pub use select::top_k;
pub use shape::Shape;
pub use tensor::Tensor;
