//! `serve_open`: requests that arrive on a schedule, whether or not the
//! server keeps up — the only workload where the coalescer can fill a
//! batch and a queue can form.
//!
//! A generator thread submits pre-lowered graphs at seeded, independent
//! arrival times with a fixed mean rate; a
//! completer thread waits for each embedding and runs the top-k query.
//! Every op is timed from the instant it was *due*, so a stall is charged
//! to every request it delays. Two load threads, one encode worker, one
//! scan worker; the generator sleeps between sends.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use gbm_nn::EncodedGraph;
use gbm_serve::{EncodeHandle, Server, ServerConfig, ShardedIndex};
use gbm_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::host::pace_until;
use crate::inputs::{self, Corpus, Digest, CORPUS_SEED};
use crate::oracle::{Oracle, Ranking};
use crate::probes::{self, MetricsDelta};
use crate::report::{Ctx, Layers, Outcome, Recorder, Sample, Slices};
use crate::spans::{self, SpanBuf, OP};
use crate::stats;

const K: usize = 10;
/// Offered load, requests per second: the largest of {125, 250, 500, 1000,
/// 2000} that keeps the encode worker at most 60 % busy *while the host
/// runs at half speed*, which the reference host does for minutes at a
/// time (busy at full speed: 125/s 23 %, 250/s 46 %, 500/s 64 %). At 250/s
/// a slow spell saturates the worker and the open loop's queue grows
/// without bound — median latency went from 4.4 ms to 1.7 s in two of ten
/// runs. Frozen; `BENCHMARK.json` states it in the workload's `why`.
pub const RATE_PER_S: u64 = 125;
/// An op later than this, from its due time, counts as over the limit.
const LIMIT: Duration = Duration::from_millis(20);
/// Every this-many-th timed answer, from the first, is kept and re-derived
/// after the window.
const SAMPLE_EVERY: u64 = 32;

struct Setup {
    corpus: Corpus,
    model: gbm_nn::GraphBinMatch,
    server: Server,
    cfg: ServerConfig,
    queries: Vec<EncodedGraph>,
    binaries: Vec<Vec<u8>>,
    digest: Digest,
}

fn setup(ctx: &Ctx) -> Setup {
    let mut digest = Digest::default();
    let corpus = inputs::corpus(ctx.size(16, 4), ctx.size(40, 5), CORPUS_SEED, &mut digest);
    let split = corpus.ds.split(CORPUS_SEED + 1);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let model = inputs::standard_model(corpus.tok.vocab_size(), CORPUS_SEED + 3);
    let cfg = ServerConfig {
        scan_workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::new(&model, cfg, probes::wall_clock());
    let handles: Vec<_> = corpus
        .pool
        .iter()
        .enumerate()
        .map(|(i, g)| server.insert(i as u64, g.clone()))
        .collect();
    handles.into_iter().for_each(|h| h.wait());

    let binaries = inputs::binary_queries(
        &corpus.ds,
        &split.test,
        ctx.size(1024, 32),
        &mut rng,
        &mut digest,
    );
    let mut off = SpanBuf::new(Instant::now(), 0, false);
    let queries = binaries
        .iter()
        .map(|b| {
            inputs::lower_binary(&b.bytes, &corpus.tok, &mut off, 0, None)
                .expect("encoded object files decode")
        })
        .collect();
    Setup {
        corpus,
        model,
        server,
        cfg,
        queries,
        binaries: binaries.into_iter().map(|b| b.bytes).collect(),
        digest,
    }
}

/// One request on its way from the generator to the completer.
struct InFlight {
    seq: u64,
    due: Instant,
    submitted: Instant,
    accepted: Instant,
    handle: EncodeHandle,
}

/// When ops are due and which of them count.
#[derive(Clone, Copy)]
struct Schedule {
    /// Due time of the first (warm-up) op.
    first_due: Instant,
    /// The timed window; ops due before `start` are warm-up.
    start: Instant,
    /// Ops that finish after `end` are the backlog.
    end: Instant,
    /// Zero of the span timestamps.
    epoch: Instant,
    slices: Slices,
}

/// Arrival times, as offsets from the first: independent arrivals at
/// `RATE_PER_S` on average, i.e. exponential gaps, for `span`. (A strict
/// period would alias with the server's millisecond clock tick and poll:
/// every request of a run then waits the same share of the flush deadline,
/// and two runs of one seed differed by 47 % in median latency.) The
/// schedule comes from `CORPUS_SEED`: like the rate it is part of the
/// workload's definition, and `--seed` picks what arrives on it. Seeded by
/// `--seed`, the largest burst of a run set the largest batch and with it
/// `peak_rss_mb`, which then spread 11 % over ten seeds.
fn arrivals(span: Duration, digest: &mut Digest) -> Vec<Duration> {
    let mean_gap_s = 1.0 / RATE_PER_S as f64;
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED + 11);
    let mut at = 0.0f64;
    let mut out = Vec::new();
    while at < span.as_secs_f64() {
        out.push(Duration::from_secs_f64(at));
        digest.word(at.to_bits());
        at -= mean_gap_s * (1.0 - rng.random_range(0.0..1.0f64)).ln();
    }
    out
}

/// The generator: one submit per scheduled arrival.
fn generate(
    server: &Server,
    queries: &[EncodedGraph],
    at: Schedule,
    arrivals: &[Duration],
    tx: mpsc::Sender<InFlight>,
) {
    for (seq, offset) in arrivals.iter().enumerate() {
        let (seq, due) = (seq as u64, at.first_due + *offset);
        pace_until(due);
        let submitted = Instant::now();
        let handle = server.submit(queries[seq as usize % queries.len()].clone());
        let sent = tx.send(InFlight {
            seq,
            due,
            submitted,
            accepted: Instant::now(),
            handle,
        });
        if sent.is_err() {
            break;
        }
    }
}

/// What the completer saw of the window.
struct Completed {
    rec: Recorder,
    spans: Vec<spans::Span>,
    /// How late each submit started, nanoseconds.
    lag_ns: Vec<u64>,
    samples: Vec<(Tensor, Ranking)>,
    /// Ops that finished after the window closed.
    backlog_end: u64,
    over_limit: u64,
    /// When each op that finished inside the window did, ns into it.
    in_time: Vec<(u64, f64)>,
}

/// The completer: embedding → top-k, in arrival order, until the generator
/// hangs up.
fn complete(server: &Server, at: Schedule, rx: mpsc::Receiver<InFlight>) -> Completed {
    let mut tr = SpanBuf::new(at.epoch, 1, false);
    let ns = |t: Instant| t.duration_since(at.epoch).as_nanos() as u64;
    let mut out = Completed {
        rec: Recorder::default(),
        spans: Vec::new(),
        lag_ns: Vec::new(),
        samples: Vec::new(),
        backlog_end: 0,
        over_limit: 0,
        in_time: Vec::new(),
    };
    for req in rx {
        let emb = req.handle.wait();
        let encoded = Instant::now();
        let answer = server.query(emb.data(), K);
        let done = Instant::now();
        if req.due < at.start {
            continue; // warm-up
        }
        let traced = at.slices.traced(req.due);
        let at_ns = done.duration_since(at.start).as_nanos() as u64;
        if answer.len() == K {
            out.rec.push(Sample {
                at_ns,
                lat_ns: done.duration_since(req.due).as_nanos() as u64,
                class: 0,
                traced,
            });
        } else {
            out.rec.failed += 1;
        }
        out.lag_ns
            .push(req.submitted.duration_since(req.due).as_nanos() as u64);
        if done > at.end {
            out.backlog_end += 1;
        } else {
            out.in_time.push((at_ns, 1.0));
        }
        out.over_limit += (done.duration_since(req.due) > LIMIT) as u64;
        if (out.rec.completed() as u64 + out.rec.failed) % SAMPLE_EVERY == 1 {
            out.samples.push((emb, answer));
        }
        tr.set_on(traced);
        if traced {
            let root = tr.reserve();
            let mut child = |name, from: Instant, to: Instant| {
                tr.record(name, req.seq, Some(root), ns(from), ns(to))
            };
            child("loadgen.sched_lag", req.due, req.submitted);
            child("serve.submit", req.submitted, req.accepted);
            child("serve.encode_rtt", req.accepted, encoded);
            child("serve.query", encoded, done);
            tr.record_as(root, OP, req.seq, None, ns(req.due), ns(done));
        }
    }
    out.spans = tr.into_spans();
    out
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (s, setup_s) = super::repeat_setup(ctx.size(3, 1), || setup(ctx));
    let mut oracle = Oracle::default();
    let mut layers = Layers::default();

    // the single-threaded reference every sampled answer must equal
    let (rows, hidden) = probes::pool_rows(&s.server);
    let mut reference = ShardedIndex::new(s.cfg.index);
    for (id, row) in rows.chunks_exact(hidden).enumerate() {
        reference.insert_row(id as u64, row);
    }
    let answer_of = |graph: &EncodedGraph| -> (Tensor, Ranking) {
        let emb = s.server.submit(graph.clone()).wait();
        let answer = s.server.query(emb.data(), K);
        (emb, answer)
    };
    let first: Vec<_> = s.queries[..8.min(s.queries.len())]
        .iter()
        .map(|g| {
            let (emb, got) = answer_of(g);
            (got, reference.query(emb.data(), K))
        })
        .collect();
    oracle.identical_share("serve_open.before_timing", &first);

    let warmup = ctx.warmup();
    let mut digest = s.digest;
    let arrivals = arrivals(warmup + ctx.window(), &mut digest);
    let epoch = Instant::now();
    let start = epoch + Duration::from_millis(5) + warmup;
    let end = start + ctx.window();
    let slices = Slices::new(ctx, start);
    let before = s.server.metrics();

    let schedule = Schedule {
        first_due: start - warmup,
        start,
        end,
        epoch,
        slices,
    };
    let (tx, rx) = mpsc::channel::<InFlight>();
    let (server, queries, arrivals) = (&s.server, &s.queries, &arrivals);
    let Completed {
        rec,
        spans,
        lag_ns,
        samples,
        backlog_end,
        over_limit,
        in_time,
    } = std::thread::scope(|scope| {
        scope.spawn(move || generate(server, queries, schedule, arrivals, tx));
        let completer = scope.spawn(move || complete(server, schedule, rx));
        completer
            .join()
            .expect("the completer thread does not panic")
    });
    let window_s = ctx.window().as_secs_f64();
    let delta = MetricsDelta {
        before,
        after: s.server.metrics(),
    };

    // after timing: every sampled answer is the single-threaded answer
    let pairs: Vec<_> = samples
        .into_iter()
        .map(|(emb, got)| (got, reference.query(emb.data(), K)))
        .collect();
    let quality = oracle.identical_share("serve_open.window_answers", &pairs);

    if ctx.trace {
        let binaries: Vec<&[u8]> = s.binaries.iter().take(64).map(Vec::as_slice).collect();
        probes::binary_lowering(&binaries, &s.corpus.tok, &mut layers);
        delta.encode_layers(
            Some(spans::mean_ns(&spans, "serve.encode_rtt") / 1e6),
            &mut layers,
        );
        delta.scan_layers(&mut layers);
        super::ledger_layers(&spans, &mut layers);
        let (nodes, edges) = s.corpus.graph_shape();
        layers.set("progml.nodes_per_graph", nodes);
        layers.set("progml.edges_per_graph", edges);
        layers.set("tokenizer.train_ms", s.corpus.tokenizer_train_ms);
        layers.set(
            "nn.forward_count_per_op",
            delta.counter("serve.encode.graphs") / delta.counter("serve.queries").max(1.0),
        );
        probes::encoder(&s.model, &s.queries, ctx.smoke, &mut layers);
        probes::scan_tiers(
            &s.server,
            &rows,
            hidden,
            s.cfg.index,
            &probes::rows_as_queries(&rows, hidden, 37),
            ctx.smoke,
            &mut layers,
        );
        layers.set(
            "loadgen.sched_lag_p99_ms",
            stats::percentile(&stats::sorted(lag_ns), 0.99) as f64 / 1e6,
        );
        layers.set("loadgen.backlog_end", backlog_end as f64);
        layers.set(
            "loadgen.over_limit_share",
            over_limit as f64 / (rec.completed() as u64 + rec.failed).max(1) as f64,
        );
        layers.set(
            "loadgen.trace_overhead_pct",
            rec.trace_overhead_pct(ctx.window()),
        );
        let busy = delta.hist_mean("serve.encode.forward_us")
            * delta.counter("serve.encode.flushes")
            / (window_s + ctx.warmup().as_secs_f64())
            / 1e6;
        println!(
            "serve_open: offered {RATE_PER_S}/s, encode worker {:.1} % busy",
            100.0 * busy
        );
        super::write_trace("serve_open", &spans);
    }
    oracle.shutdown(&s.server.shutdown(), false);

    layers.set("loadgen.samples", rec.completed() as f64);
    Outcome {
        attempted: rec.completed() as u64 + rec.failed,
        failed: rec.failed,
        work: in_time,
        samples: rec.samples,
        window_s,
        quality,
        setup_s,
        layers,
        digest: digest.finish(),
        oracle,
    }
}
