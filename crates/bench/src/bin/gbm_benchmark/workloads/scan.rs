//! `scan_exact` and `scan_ivf`: the scan, quantizer and merge layers on a
//! pool larger than the host's caches, the encoder nowhere in the op.
//!
//! One client blocks in `Server::query` while the scan workers run, so no
//! more than `nproc` threads are ever runnable: two workers on
//! `scan_exact`; on `scan_ivf` one, on the client's core.

use gbm_bench::{synth_clustered_rows, synth_unit_rows};
use gbm_serve::{IndexConfig, ScanPrecision, Server, ServerConfig};

use crate::inputs::{near_row_queries, Digest, CORPUS_SEED};
use crate::oracle::{brute_force_top_k, recall, Oracle, Ranking};
use crate::probes::{self, MetricsDelta};
use crate::report::{closed_loop, Ctx, Layers, Outcome};
use crate::spans::SpanBuf;

const HIDDEN: usize = 128;
const SHARDS: usize = 8;
const K: usize = 10;
/// Centres of the clustered pool, as in the gated `serve_query` bench.
const CLUSTERS: usize = 64;
/// The probe settings of the gated `serve_query` `scan_ivf` entry.
const IVF: ScanPrecision = ScanPrecision::Ivf {
    nprobe: 4,
    widen: 4,
};
/// IVF is approximate by contract; this is the contract.
const RECALL_FLOOR: f64 = 0.95;
/// Queries whose answers are checked against the brute-force scan.
const CHECKED: usize = 32;
/// Per-coordinate amplitude of the noise that moves a query off its row.
const QUERY_NOISE: f32 = 0.02;

struct Setup {
    rows: Vec<f32>,
    server: Server,
    cfg: ServerConfig,
    queries: Vec<Vec<f32>>,
    digest: u64,
}

fn setup(ctx: &Ctx, ivf: bool) -> Setup {
    let n = ctx.size(65_536, 4096);
    let mut digest = Digest::default();
    let rows = if ivf {
        synth_clustered_rows(n, HIDDEN, CLUSTERS, CORPUS_SEED)
    } else {
        synth_unit_rows(n, HIDDEN, CORPUS_SEED)
    };
    let cfg = ServerConfig {
        // An IVF query here is 0.3 ms of scanning. Split over two workers its
        // time depended on whether the scheduler woke them on two cores or
        // on one: slices of one window read 0.30 or 0.60 ms, flipping by the
        // second, and ten seeds' medians 0.30–0.50 ms. The fan-out is
        // `scan_exact`'s to measure.
        scan_workers: if ivf { 1 } else { 2 },
        index: IndexConfig {
            num_shards: SHARDS,
            precision: if ivf {
                IVF
            } else {
                ScanPrecision::Int8 { widen: 1 }
            },
            ..IndexConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::from_rows(&rows, HIDDEN, cfg, probes::wall_clock());
    let queries = near_row_queries(
        &rows,
        HIDDEN,
        ctx.size(2048, 128),
        QUERY_NOISE,
        ctx.seed,
        &mut digest,
    );
    Setup {
        rows,
        server,
        cfg,
        queries,
        digest: digest.finish(),
    }
}

pub fn run(ctx: &Ctx, ivf: bool) -> Outcome {
    // `scan_ivf`: the client and its one worker take turns, so they share a
    // core. Left to the scheduler, whole runs sat at 0.49 ms (worker woken
    // on the other core) or at 0.63 ms (on the client's); pinned, ten seeds
    // read 0.57–0.64.
    let _one_cpu = ivf.then(crate::host::pin_to_one_cpu);
    let (mut s, setup_s) =
        super::repeat_setup(ctx.size(if ivf { 3 } else { 7 }, 1), || setup(ctx, ivf));
    let mut oracle = Oracle::default();
    let mut layers = Layers::default();

    // before timing: the exact tier must equal the brute-force scan bit
    // for bit; the approximate tier must meet its recall floor
    let checked = CHECKED.min(s.queries.len());
    let exact: Vec<Ranking> = s.queries[..checked]
        .iter()
        .map(|q| brute_force_top_k(&s.rows, HIDDEN, q, K))
        .collect();
    let expected: Vec<Ranking> = s.queries[..checked]
        .iter()
        .map(|q| s.server.query(q, K))
        .collect();
    let quality = if ivf {
        let mean_recall = exact
            .iter()
            .zip(&expected)
            .map(|(e, a)| recall(e, a))
            .sum::<f64>()
            / checked as f64;
        oracle.check("scan_ivf.recall_floor", mean_recall >= RECALL_FLOOR, || {
            format!("recall@{K} {mean_recall:.4} is below {RECALL_FLOOR}")
        });
        mean_recall
    } else {
        let pairs: Vec<_> = expected.iter().cloned().zip(exact).collect();
        oracle.identical_share("scan_exact.before_timing", &pairs)
    };

    let before = s.server.metrics();
    let mut tr = SpanBuf::new(std::time::Instant::now(), 0, ctx.trace);
    // every answer the window gives to a checked query is compared on the spot
    let (mut sampled, mut same) = (0usize, 0usize);
    let mut first_diff: Option<(Ranking, usize)> = None;
    let nq = s.queries.len();
    let (rec, window_s) = closed_loop(ctx, &mut tr, |tr, op| {
        let qi = op.id as usize % nq;
        let answer = tr.time("serve.query", op.id, op.root, || {
            s.server.query(&s.queries[qi], K)
        });
        let ok = (answer.len() == K).then_some(0);
        if op.timed && qi < checked {
            sampled += 1;
            if answer == expected[qi] {
                same += 1;
            } else if first_diff.is_none() {
                first_diff = Some((answer, qi));
            }
        }
        ok
    });
    let delta = MetricsDelta {
        before,
        after: s.server.metrics(),
    };
    let share = oracle.share("scan.window_answers", same, sampled, || {
        let (got, qi) = first_diff.as_ref().expect("a differing answer was kept");
        format!("first: query {qi} got {got:?}, want {:?}", expected[*qi])
    });
    let quality = if ivf { quality } else { quality.min(share) };

    let spans = tr.into_spans();
    if ctx.trace {
        delta.scan_layers(&mut layers);
        super::ledger_layers(&spans, &mut layers);
        probes::scan_tiers(
            &s.server,
            &s.rows,
            HIDDEN,
            s.cfg.index,
            &s.queries,
            ctx.smoke,
            &mut layers,
        );
        probes::kernels(256, HIDDEN, &mut layers);
        layers.set(
            "loadgen.trace_overhead_pct",
            rec.trace_overhead_pct(ctx.window()),
        );
        super::write_trace(if ivf { "scan_ivf" } else { "scan_exact" }, &spans);
    }
    s.rows = Vec::new();
    oracle.shutdown(&s.server.shutdown(), false);

    layers.set("loadgen.samples", rec.completed() as f64);
    Outcome {
        attempted: rec.completed() as u64 + rec.failed,
        failed: rec.failed,
        work: rec.work_per_op(),
        samples: rec.samples,
        window_s,
        quality,
        setup_s,
        layers,
        digest: s.digest,
        oracle,
    }
}
