//! The six workloads. Each is one function from a [`Ctx`] to an
//! [`Outcome`]: set-up (timed, repeated), checks before timing, warm-up,
//! the timed window, checks on what the window answered, and — in the
//! traced run only — the per-layer probes.

mod bin2src;
mod ingest_churn;
mod scan;
mod serve_open;
mod train_step;

use std::time::Instant;

use crate::report::{Ctx, Layers, Outcome, Workload};
use crate::spans::{self, Span};

/// Runs one workload in this process.
pub fn run(workload: Workload, ctx: &Ctx) -> Outcome {
    let mut outcome = match workload {
        Workload::Bin2src => bin2src::run(ctx),
        Workload::ServeOpen => serve_open::run(ctx),
        Workload::ScanExact => scan::run(ctx, false),
        Workload::ScanIvf => scan::run(ctx, true),
        Workload::IngestChurn => ingest_churn::run(ctx),
        Workload::TrainStep => train_step::run(ctx),
    };
    outcome
        .layers
        .set("host.cores", crate::host::cores() as f64);
    outcome
}

/// Sets up `times` times, so that `setup_s` is a median and not one draw
/// (callers pass `ctx.size(n, 1)`: once in smoke mode), dropping each state
/// before building the next so peak memory stays that of one. Returns the
/// last state and every set-up's wall time in seconds.
fn repeat_setup<S>(times: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut state = None;
    for _ in 0..times.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (state.expect("set up at least once"), secs)
}

/// The ledger of a window's spans, as per-layer metrics.
fn ledger_layers(spans: &[Span], layers: &mut Layers) {
    let l = spans::ledger(spans);
    layers.set("ledger.op_us", l.op_us);
    layers.set("ledger.covered_pct", l.covered_pct);
    layers.set("ledger.compiler_side_pct", l.compiler_side_pct);
    layers.set("ledger.encode_pct", l.encode_pct);
    layers.set("ledger.scan_pct", l.scan_pct);
    layers.set("ledger.write_path_pct", l.write_path_pct);
}

/// Writes the window's spans to `<state dir>/trace-<workload>.jsonl`.
fn write_trace(workload: &str, spans: &[Span]) {
    let path = crate::host::state_dir().join(format!("trace-{workload}.jsonl"));
    if let Err(e) = spans::write_jsonl(&path, spans) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
