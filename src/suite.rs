//! Umbrella library for the GraphBinMatch reproduction workspace.
//!
//! This crate exists so that the workspace root can host `examples/` and
//! `tests/` that span every member crate. The real public API lives in the
//! [`graphbinmatch`] facade crate; see the README for a tour.

#![forbid(unsafe_code)]

pub use graphbinmatch as api;
