//! The benchmark's vocabulary: workload and metric names, what one run of a
//! workload hands back, and how that becomes the printed metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::oracle::Oracle;
use crate::spans::{SpanBuf, OP};
use crate::stats;

/// The six workloads. Names are final; later issues refer to them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Bin2src,
    ServeOpen,
    ScanExact,
    ScanIvf,
    IngestChurn,
    TrainStep,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Bin2src,
        Workload::ServeOpen,
        Workload::ScanExact,
        Workload::ScanIvf,
        Workload::IngestChurn,
        Workload::TrainStep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bin2src => "bin2src",
            Workload::ServeOpen => "serve_open",
            Workload::ScanExact => "scan_exact",
            Workload::ScanIvf => "scan_ivf",
            Workload::IngestChurn => "ingest_churn",
            Workload::TrainStep => "train_step",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether `quality` is the share of answers identical to a reference,
    /// which must be 1: any drop is a regression, whatever the bound.
    /// (`bin2src` reports an MRR, `scan_ivf` a recall with a floor,
    /// `train_step` an F1.)
    pub fn quality_must_be_one(self) -> bool {
        matches!(
            self,
            Workload::ServeOpen | Workload::ScanExact | Workload::IngestChurn
        )
    }
}

/// The percentile `op_tail_ms` reports, on every workload. The issue named
/// p95 and p99 per workload and said to step down, not widen the bound,
/// where a percentile does not repeat; on the reference host none above p90
/// repeated (quartile distance over median, ten seeds, pooled over the
/// window: p99 47–610 %, p95 16–330 %, p90 10–30 % with one workload at
/// 137 %).
pub const TAIL_Q: f64 = 0.90;

/// End-to-end metrics every workload reports, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("quality", "score"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, with units. A metric a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 71] = [
    // compiler side
    ("frontends.compile_us", "us"),
    ("binary.optimize_us", "us"),
    ("binary.codegen_us", "us"),
    ("binary.object_decode_us", "us"),
    ("binary.decompile_us", "us"),
    ("progml.build_graph_us", "us"),
    ("tokenizer.encode_graph_us", "us"),
    ("progml.nodes_per_graph", "count"),
    ("progml.edges_per_graph", "count"),
    ("tokenizer.train_ms", "ms"),
    // encoder
    ("nn.embed_single_ms", "ms"),
    ("nn.embed_batch8_ms", "ms"),
    ("nn.embed_paper_single_ms", "ms"),
    ("nn.embed_paper_batch8_ms", "ms"),
    ("nn.forward_count_per_op", "count"),
    ("nn.forward_flops_per_graph", "flop"),
    ("nn.forward_gflops", "Gflop/s"),
    ("nn.train_epoch_ms", "ms"),
    ("nn.fwdbwd_pair_ms", "ms"),
    ("tensor.matmul_gflops", "Gflop/s"),
    ("tensor.dot_i8_gbps", "GB/s"),
    ("tensor.top_k_us", "us"),
    // serve, encode side
    ("serve.encode_rtt_ms", "ms"),
    ("serve.coalesce_wait_ms", "ms"),
    ("serve.batch_fill", "count"),
    ("serve.encode_forward_ms", "ms"),
    ("serve.encode_other_ms", "ms"),
    // serve, scan side
    ("serve.query_us", "us"),
    ("serve.fanout_overhead_us", "us"),
    ("serve.merge_us", "us"),
    ("serve.scan_rows_per_query", "count"),
    ("serve.scan_bytes_per_query", "bytes"),
    ("serve.cells_probed_per_query", "count"),
    ("serve.survivors_per_query", "count"),
    ("serve.scan_f32_us", "us"),
    ("serve.scan_int8_us", "us"),
    ("serve.scan_ivf_us", "us"),
    ("serve.scan_mapped_us", "us"),
    ("quant.margin_admit_share", "ratio"),
    ("host.memcpy_gbps", "GB/s"),
    ("serve.scan_f32_roof_frac", "ratio"),
    ("serve.scan_int8_roof_frac", "ratio"),
    // quantizer
    ("quant.int8_build_ms", "ms"),
    ("quant.ivf_train_ms", "ms"),
    ("quant.scan_bytes_ratio", "ratio"),
    // write path and restart
    ("serve.insert_ack_ms", "ms"),
    ("serve.remove_ack_us", "us"),
    ("store.wal_append_us", "us"),
    ("store.wal_fsync_us", "us"),
    ("store.wal_bytes_per_insert", "bytes"),
    ("store.checkpoint_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("store.snapshot_bytes", "bytes"),
    ("artifact.publish_ms", "ms"),
    ("artifact.open_us", "us"),
    ("artifact.verify_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("serve.restart_first_answer_ms", "ms"),
    // ledger
    ("ledger.op_us", "us"),
    ("ledger.covered_pct", "%"),
    ("ledger.compiler_side_pct", "%"),
    ("ledger.encode_pct", "%"),
    ("ledger.scan_pct", "%"),
    ("ledger.write_path_pct", "%"),
    // load generator and host
    ("loadgen.samples", "count"),
    ("loadgen.sched_lag_p99_ms", "ms"),
    ("loadgen.backlog_end", "count"),
    ("loadgen.over_limit_share", "ratio"),
    ("loadgen.repeated_input_share", "ratio"),
    ("loadgen.trace_overhead_pct", "%"),
    ("host.cores", "count"),
];

/// What `run` was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans and run the per-layer probes.
    pub trace: bool,
    /// Tiny sizes and windows: drives every path once, numbers discarded.
    pub smoke: bool,
}

impl Ctx {
    /// Untimed warm-up before the window: 5 % of it, but never so short
    /// that caches and lazy set-up have not settled.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.05).max(if self.smoke { 0.02 } else { 0.5 }))
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// `full` normally, `smoke` in smoke mode.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Per-layer values of one run, keyed by names from [`PER_LAYER`].
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a metric; an unknown name is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One completed op of the timed window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// When it completed, nanoseconds into the window.
    pub at_ns: u64,
    pub lat_ns: u64,
    /// Which kind of input it served, where kinds differ in cost by
    /// construction (`bin2src`: the language the binary was compiled
    /// from); `0` elsewhere. `op_p50_ms` is balanced over classes.
    pub class: u8,
    /// Whether it ran in a traced slice. The traced run alternates traced
    /// and untraced slices inside one window, so the two medians are
    /// measured under the same drift and their ratio is the tracing
    /// overhead.
    pub traced: bool,
}

/// The completed and failed ops of a window.
#[derive(Default)]
pub struct Recorder {
    pub samples: Vec<Sample>,
    pub failed: u64,
}

impl Recorder {
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    pub fn completed(&self) -> usize {
        self.samples.len()
    }

    /// One unit of work per completed op, at its completion time.
    pub fn work_per_op(&self) -> Vec<(u64, f64)> {
        self.samples.iter().map(|s| (s.at_ns, 1.0)).collect()
    }

    /// Traced over untraced median latency, as a percentage above 1: the
    /// ratio within each pair of neighbouring slices of a `window`, one
    /// untraced and one traced, and the median over the pairs. (Pooled
    /// over the window instead, the two medians sat in different spells of
    /// the host: spans that cost nanoseconds read −8 % to +5 %.)
    pub fn trace_overhead_pct(&self, window: Duration) -> f64 {
        let pair_ns = (window.as_nanos() as u64 * 2 / TRACE_SLICES as u64).max(1);
        let mut pairs: BTreeMap<u64, [Vec<(u8, u64)>; 2]> = BTreeMap::new();
        for s in &self.samples {
            pairs.entry(s.at_ns / pair_ns).or_default()[s.traced as usize]
                .push((s.class, s.lat_ns));
        }
        let ratios: Vec<f64> = pairs
            .values()
            .filter(|[untraced, traced]| !untraced.is_empty() && !traced.is_empty())
            .map(|[untraced, traced]| {
                stats::balanced_median(traced) / stats::balanced_median(untraced) - 1.0
            })
            .collect();
        100.0 * stats::median(&ratios)
    }
}

/// Slices a traced window alternates through, untraced first.
const TRACE_SLICES: u32 = 40;

/// Decides, from the time into the window, whether an op starting now is
/// in a traced slice: forty alternating slices, untraced first. Short
/// slices, because the host drifts over seconds: with eight, the "overhead"
/// of spans that cost nanoseconds read anywhere from −20 % to +12 %.
#[derive(Clone, Copy)]
pub struct Slices {
    start: Instant,
    slice: Duration,
    trace: bool,
}

impl Slices {
    pub fn new(ctx: &Ctx, start: Instant) -> Slices {
        Slices {
            start,
            slice: ctx.window() / TRACE_SLICES,
            trace: ctx.trace,
        }
    }

    pub fn traced(&self, now: Instant) -> bool {
        self.trace
            && (now.duration_since(self.start).as_nanos() / self.slice.as_nanos().max(1)) % 2 == 1
    }
}

/// What a closed-loop op is told about itself.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Position in the run's op sequence, warm-up included.
    pub id: u64,
    /// Id of the op's root span when it runs in a traced slice.
    pub root: Option<u64>,
    /// False during warm-up.
    pub timed: bool,
}

/// One client, one op at a time: warm up, then run `op` back to back for
/// the window. `op` returns its input's class ([`Sample::class`]) when it
/// succeeded. Returns the recorder and the window's length in seconds.
pub fn closed_loop(
    ctx: &Ctx,
    tr: &mut SpanBuf,
    mut op: impl FnMut(&mut SpanBuf, Op) -> Option<u8>,
) -> (Recorder, f64) {
    let mut next_op = 0u64;
    tr.set_on(false);
    let warm_until = Instant::now() + ctx.warmup();
    while Instant::now() < warm_until {
        op(
            tr,
            Op {
                id: next_op,
                root: None,
                timed: false,
            },
        );
        next_op += 1;
    }
    let mut rec = Recorder::default();
    let start = Instant::now();
    let slices = Slices::new(ctx, start);
    let window = ctx.window();
    loop {
        let t0 = Instant::now();
        if t0.duration_since(start) >= window {
            break;
        }
        let traced = slices.traced(t0);
        tr.set_on(traced);
        let root = traced.then(|| tr.reserve());
        let begin = tr.now();
        let class = op(
            tr,
            Op {
                id: next_op,
                root,
                timed: true,
            },
        );
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(root) = root {
            tr.record_as(root, OP, next_op, None, begin, begin + ns);
        }
        match class {
            Some(class) => rec.push(Sample {
                at_ns: t0.duration_since(start).as_nanos() as u64 + ns,
                lat_ns: ns,
                class,
                traced,
            }),
            None => rec.failed += 1,
        }
        next_op += 1;
    }
    tr.set_on(false);
    (rec, start.elapsed().as_secs_f64())
}

/// What one run of a workload hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The window's completed ops.
    pub samples: Vec<Sample>,
    /// Completed work the workload counts for `ops_per_s`: when, in
    /// nanoseconds into the window, and how many units.
    pub work: Vec<(u64, f64)>,
    pub window_s: f64,
    pub quality: f64,
    /// One sample per repeated set-up.
    pub setup_s: Vec<f64>,
    pub layers: Layers,
    pub digest: u64,
    pub oracle: Oracle,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.oracle.is_correct() && self.failed == 0
    }

    /// Every latency of the window, ascending, nanoseconds.
    pub fn latencies(&self) -> Vec<u64> {
        stats::sorted(self.samples.iter().map(|s| s.lat_ns).collect())
    }

    /// Slices the window is cut into for the three timing metrics.
    pub fn slices(&self) -> usize {
        stats::slice_count(self.samples.len())
    }

    /// `op_p50_ms`, `op_tail_ms` and `ops_per_s`: each computed on every
    /// slice of the window (latencies of the ops that completed in it, work
    /// per second between its first and last completion), the median over
    /// slices reported. A host that stalls for part of a window then moves
    /// the tail and the throughput no more than it moves the median (on
    /// `scan_exact`, over six seeds, the pooled p90 spread 19 % and the
    /// median of slice p90s 4 %).
    fn timings(&self) -> [f64; 3] {
        let k = self.slices();
        let window_ns = (self.window_s * 1e9) as u64;
        let mut lat: Vec<Vec<(u8, u64)>> = vec![Vec::new(); k];
        for s in &self.samples {
            lat[stats::slice_of(s.at_ns, window_ns, k)].push((s.class, s.lat_ns));
        }
        let mut work: Vec<Vec<(u64, f64)>> = vec![Vec::new(); k];
        for &event in &self.work {
            work[stats::slice_of(event.0, window_ns, k)].push(event);
        }
        let lat: Vec<_> = lat.into_iter().filter(|l| !l.is_empty()).collect();
        let p50: Vec<f64> = lat.iter().map(|l| stats::balanced_median(l)).collect();
        let tail: Vec<f64> = lat
            .iter()
            .map(|l| {
                let pooled = stats::sorted(l.iter().map(|&(_, ns)| ns).collect());
                stats::percentile(&pooled, TAIL_Q) as f64
            })
            .collect();
        let rate: Vec<f64> = work.iter().map(|w| stats::completion_rate(w)).collect();
        [
            stats::median(&p50) / 1e6,
            stats::median(&tail) / 1e6,
            stats::median(&rate),
        ]
    }

    /// The six end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let [p50, tail, rate] = self.timings();
        vec![
            p50,
            tail,
            rate,
            self.quality,
            stats::median(&self.setup_s),
            crate::host::peak_rss_mib(),
        ]
    }

    /// The `metrics` object of the result line: end-to-end metrics of an
    /// untraced run, per-layer metrics of a traced one.
    pub fn metrics_json(&self, trace: bool) -> Json {
        if trace {
            Json::obj(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit)| (name, Json::metric(self.layers.get(name), unit))),
            )
        } else {
            Json::obj(
                END_TO_END
                    .iter()
                    .zip(self.end_to_end())
                    .map(|(&(name, unit), v)| (name, Json::metric(v, unit))),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip_and_metric_names_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        let mut names: Vec<&str> = PER_LAYER.iter().chain(&END_TO_END).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are used once");
    }

    #[test]
    fn slices_alternate_and_stay_off_without_trace() {
        let start = Instant::now();
        let mut ctx = Ctx {
            seed: 1,
            seconds: 40.0,
            trace: true,
            smoke: false,
        };
        let s = Slices::new(&ctx, start);
        let at = |secs: f64| start + Duration::from_secs_f64(secs);
        assert!(
            !s.traced(at(0.5)) && s.traced(at(1.5)) && !s.traced(at(2.1)) && s.traced(at(39.9))
        );
        ctx.trace = false;
        assert!(!Slices::new(&ctx, start).traced(at(1.5)));
    }

    fn sample(at_ns: u64, lat_ns: u64, class: u8, traced: bool) -> Sample {
        Sample {
            at_ns,
            lat_ns,
            class,
            traced,
        }
    }

    #[test]
    fn recorder_overhead_is_the_median_ratio_over_slice_pairs() {
        // a 40 s window: pairs of one untraced and one traced second; the
        // host runs three times slower through the second pair
        let window = Duration::from_secs(40);
        let mut r = Recorder::default();
        for (pair, slow, overhead) in [(0, 1, 105), (1, 3, 105), (2, 1, 107), (3, 1, 90)] {
            for i in 0..3 {
                let at = |second: u64| (2 * pair + second) * 1_000_000_000 + i;
                r.push(sample(at(0), 100 * slow, 0, false));
                r.push(sample(at(1), overhead * slow, 0, true));
            }
        }
        // ratios 1.05, 1.05, 1.07, 0.90: the median is 1.05, slow pair or not
        assert!((r.trace_overhead_pct(window) - 5.0).abs() < 1e-9);
        assert_eq!(r.work_per_op().len(), 24);
        assert_eq!(Recorder::default().trace_overhead_pct(window), 0.0);
        r.samples.retain(|s| !s.traced);
        assert_eq!(r.trace_overhead_pct(window), 0.0, "nothing traced");
    }

    /// 1200 ops over a 12 s window, one every 10 ms, a fifth of them dear;
    /// the host runs five times slower through the last two seconds. The pooled p90 and the
    /// overall rate would move; the medians over slices do not.
    #[test]
    fn timing_metrics_are_medians_over_slices() {
        let mut samples = Vec::new();
        for i in 0..1200u64 {
            let stalled = i >= 1000;
            let lat_ns = if i % 5 == 4 { 3_000_000 } else { 1_000_000 } * (1 + 4 * stalled as u64);
            samples.push(sample((i + 1) * 10_000_000, lat_ns, 0, false));
        }
        let work = samples.iter().map(|s| (s.at_ns, 2.0)).collect();
        let outcome = Outcome {
            attempted: 1200,
            failed: 0,
            samples,
            work,
            window_s: 12.0,
            quality: 1.0,
            setup_s: vec![3.0, 1.0, 2.0],
            layers: Layers::default(),
            digest: 0,
            oracle: Oracle::default(),
        };
        assert_eq!(outcome.slices(), 12);
        let e2e = outcome.end_to_end();
        assert_eq!(e2e[0], 1.0, "median of slice medians, ms");
        assert_eq!(e2e[1], 3.0, "median of slice p90s, ms");
        assert!((e2e[2] - 200.0).abs() < 1e-9, "2 units × 100 ops/s");
        assert_eq!(e2e[4], 2.0, "set-up: the median of its repeats");
        assert_eq!(stats::percentile(&outcome.latencies(), 0.90), 5_000_000);
    }

    #[test]
    fn closed_loop_counts_and_traces_only_traced_slices() {
        let ctx = Ctx {
            seed: 1,
            seconds: 0.08,
            trace: true,
            smoke: true,
        };
        let mut tr = SpanBuf::new(Instant::now(), 0, true);
        let mut calls = 0u64;
        let (rec, secs) = closed_loop(&ctx, &mut tr, |tr, op| {
            calls += 1;
            tr.time("serve.query", op.id, op.root, || {
                std::thread::sleep(Duration::from_micros(200))
            });
            (op.id % 50 != 7).then_some(0)
        });
        assert!(secs >= 0.08);
        let traced = rec.samples.iter().filter(|s| s.traced).count();
        assert!(traced > 0 && traced < rec.completed());
        assert!(rec
            .samples
            .windows(2)
            .all(|w| w[0].at_ns < w[1].at_ns && w[1].at_ns <= (secs * 1e9) as u64));
        assert!(
            rec.completed() as u64 + rec.failed < calls,
            "warm-up ops are not recorded"
        );
        let spans = tr.into_spans();
        let roots = spans.iter().filter(|s| s.name == OP).count();
        assert_eq!(roots as u64, traced as u64 + spans_failed(&spans));
        assert_eq!(
            spans.len(),
            2 * roots,
            "one child per traced op, none elsewhere"
        );
    }

    /// Traced ops that failed still leave their root span.
    fn spans_failed(spans: &[crate::spans::Span]) -> u64 {
        spans
            .iter()
            .filter(|s| s.name == OP && s.op % 50 == 7)
            .count() as u64
    }
}
