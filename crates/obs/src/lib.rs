//! # gbm-obs
//!
//! The observability spine of the serving stack: what every other crate
//! reports *through*, and deliberately a leaf — std-only, no dependency on
//! the rest of the workspace, so `gbm-serve`, `gbm-quant`, `gbm-store`,
//! and `gbm-bench` can all instrument themselves without cycles.
//!
//! Three pieces:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s, and atomic
//!   [`Histogram`] recorders. Registration is locked and rare; recording
//!   is lock-free relaxed atomics on handles cached at construction.
//!   [`MetricsSnapshot`] renders text and JSON expositions with stable
//!   ordering, and its histograms are plain [`LatencyHistogram`] values —
//!   mergeable across threads, processes, or probe runs.
//! * [`TraceSpan`] / [`Tracer`] — per-request stage timelines (coalescer
//!   wait, encode forward, per-shard scan, merge) behind an every-N-th
//!   sampling gate; `every = 0` (the default) costs one branch per
//!   request. Timestamps come from the injected [`Clock`], so traces are
//!   bit-reproducible under a [`VirtualClock`].
//! * [`Clock`] / [`VirtualClock`] / [`WallClock`] — injected time, moved
//!   here from `gbm-serve` (which re-exports them unchanged): the same
//!   capability that makes coalescer flush schedules deterministic now
//!   also timestamps traces.
//!
//! [`ObsConfig`] carries the two observability knobs (`metrics` on/off,
//! `trace_sample` every-N-th) as plain fields; the environment mapping
//! (`GBM_METRICS` / `GBM_TRACE_SAMPLE`, warn-and-fall-back) lives with
//! the other serving knobs in `gbm-serve`.

#![forbid(unsafe_code)]

pub mod clock;
pub mod hist;
pub mod names;
pub mod registry;
pub mod trace;

pub use clock::{Clock, VirtualClock, WallClock};
pub use hist::LatencyHistogram;
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use trace::{TraceSpan, TraceStage, Tracer, TRACE_BUFFER};

/// Observability policy for a pipeline: metrics on/off and the trace
/// sampling rate. Plain data — consumers (the serving layer) decide how
/// environment knobs map onto it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Register and record metrics (`false` = fully instrumented-out: no
    /// registry, no atomic traffic — the bench baseline).
    pub metrics: bool,
    /// Trace every N-th request (`0` = tracing off, the near-zero-cost
    /// default).
    pub trace_sample: u64,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            metrics: true,
            trace_sample: 0,
        }
    }
}
