//! `ingest_churn`: writes beside reads on a durable server, then a restart.
//!
//! A writer thread lowers new source text, inserts eight graphs, waits for
//! the eight acks and removes the eight oldest ids, so the pool stays
//! bounded while the int8 mirror and the WAL churn. A reader thread runs
//! paced queries beside it. After the window the server is shut down,
//! checkpointed, recovered, published as an artifact and mapped; the
//! recovered and the mapped index must rank exactly as the live server did.
//! Two load threads, one encode worker, one scan worker; the reader sleeps
//! between queries and the writer blocks while the encoder works.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gbm_datasets::{clcdsa, DatasetConfig};
use gbm_frontends::SourceLang;
use gbm_nn::{GraphBinMatch, ModelSpec};
use gbm_serve::{
    checkpoint, publish_index_artifact, recover, DurabilityConfig, GraphId, IndexConfig,
    ReadOnlyIndex, ScanPrecision, Server, ServerConfig,
};
use gbm_store::{FileStorage, Storage, WAL_FILE};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::host::pace_until;
use crate::inputs::{self, Corpus, Digest, CORPUS_SEED};
use crate::oracle::{Oracle, Ranking};
use crate::probes::{self, MetricsDelta};
use crate::report::{Ctx, Layers, Outcome, Recorder, Sample, Slices};
use crate::spans::{SpanBuf, OP};
use crate::stats;

const K: usize = 10;
/// Inserts outstanding before the writer waits, and ids removed after.
const BURST: usize = 8;
/// Reader pace, queries per second.
const READ_RATE_PER_S: u64 = 500;
/// Rankings compared across the restart.
const RESTART_PROBES: usize = 32;

struct Setup {
    corpus: Corpus,
    model: GraphBinMatch,
    server: Server,
    cfg: ServerConfig,
    dir: std::path::PathBuf,
    storage: Arc<dyn Storage>,
    /// Source text the writer ingests, in order.
    fresh: Vec<(SourceLang, String)>,
    /// Pre-encoded reader queries.
    queries: Vec<Vec<f32>>,
    wal_bytes_per_insert: f64,
    digest: u64,
}

fn index_config() -> IndexConfig {
    IndexConfig {
        // exact, so the restart identity holds, with a mirror to maintain
        precision: ScanPrecision::Int8 { widen: 1 },
        ..IndexConfig::default()
    }
}

/// Builds the durable server in `dir`, wiping what an earlier set-up left.
fn setup(ctx: &Ctx, dir: &std::path::Path) -> Setup {
    let _ = std::fs::remove_dir_all(dir);
    let mut digest = Digest::default();
    let corpus = inputs::corpus(ctx.size(16, 4), ctx.size(64, 8), CORPUS_SEED, &mut digest);
    let model = inputs::standard_model(corpus.tok.vocab_size(), CORPUS_SEED + 3);
    let fresh: Vec<(SourceLang, String)> = clcdsa(DatasetConfig {
        num_tasks: ctx.size(16, 4),
        solutions_per_task: ctx.size(160, 16),
        seed: ctx.seed.wrapping_add(1000),
    })
    .solutions
    .into_iter()
    .map(|s| (s.lang, s.source))
    .collect();
    fresh
        .iter()
        .for_each(|(_, src)| digest.bytes(src.as_bytes()));

    let storage: Arc<dyn Storage> = Arc::new(FileStorage::new());
    let cfg = ServerConfig {
        scan_workers: 1,
        index: index_config(),
        ..ServerConfig::default()
    };
    let boot = recover(Arc::clone(&storage), &DurabilityConfig::new(dir), cfg.index)
        .expect("an empty directory recovers to an empty index");
    let server = Server::durable(
        Some(&model),
        boot.index,
        cfg,
        probes::wall_clock(),
        boot.wal,
    );
    let handles: Vec<_> = corpus
        .pool
        .iter()
        .enumerate()
        .map(|(i, g)| server.insert(i as GraphId, g.clone()))
        .collect();
    for h in handles {
        h.result()
            .expect("the scratch directory accepts WAL appends");
    }
    // only inserts are in the log so far: its length is the insert record size
    let wal_len = std::fs::metadata(dir.join(WAL_FILE)).map_or(0, |m| m.len());
    let wal_bytes_per_insert = wal_len as f64 / corpus.pool.len() as f64;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let queries = (0..ctx.size(256, 32))
        .map(|_| {
            let id = rng.random_range(0..corpus.pool.len()) as GraphId;
            digest.word(id);
            let row = server.embedding(id).expect("the pool was inserted");
            row.data().to_vec()
        })
        .collect();
    Setup {
        corpus,
        model,
        server,
        cfg,
        dir: dir.to_path_buf(),
        storage,
        fresh,
        queries,
        wal_bytes_per_insert,
        digest: digest.finish(),
    }
}

/// An acked write, in ack order.
#[derive(Clone, Copy)]
enum Logged {
    Insert(GraphId),
    Remove(GraphId),
}

struct Written {
    spans: Vec<crate::spans::Span>,
    log: Vec<Logged>,
    /// When each insert acked inside the window was, ns into it.
    acked_in_window: Vec<(u64, f64)>,
    failed: u64,
    insert_ack_ns: Vec<f64>,
    remove_ack_ns: Vec<f64>,
}

/// The writer: lower eight new solutions, insert them, wait for the acks,
/// remove the eight oldest ids; until `end`.
#[allow(clippy::too_many_arguments)]
fn writer(
    server: &Server,
    tok: &gbm_tokenizer::Tokenizer,
    fresh: &[(SourceLang, String)],
    pool: usize,
    epoch: Instant,
    start: Instant,
    end: Instant,
    slices: Slices,
) -> Written {
    let mut tr = SpanBuf::new(epoch, 2, false);
    let mut out = Written {
        spans: Vec::new(),
        log: Vec::new(),
        acked_in_window: Vec::new(),
        failed: 0,
        insert_ack_ns: Vec::new(),
        remove_ack_ns: Vec::new(),
    };
    let (mut next_new, mut next_id, mut oldest) = (0usize, pool as GraphId, 0 as GraphId);
    let mut cycle = 0u64;
    while Instant::now() < end {
        let begun = Instant::now();
        let traced = begun >= start && slices.traced(begun);
        tr.set_on(traced);
        let root = traced.then(|| tr.reserve());
        let t0 = tr.now();
        let graphs: Vec<_> = (0..BURST)
            .filter_map(|_| {
                let (lang, source) = &fresh[next_new % fresh.len()];
                next_new += 1;
                let g = inputs::lower_source(*lang, source, tok, &mut tr, cycle, root);
                out.failed += g.is_none() as u64;
                g
            })
            .collect();
        let t_insert = tr.now();
        let pending: Vec<_> = graphs
            .into_iter()
            .map(|g| {
                next_id += 1;
                (next_id - 1, Instant::now(), server.insert(next_id - 1, g))
            })
            .collect();
        for (id, sent, handle) in pending {
            match handle.result() {
                Ok(()) => {
                    let acked = Instant::now();
                    out.insert_ack_ns
                        .push(acked.duration_since(sent).as_nanos() as f64);
                    if acked >= start && acked <= end {
                        let at_ns = acked.duration_since(start).as_nanos() as u64;
                        out.acked_in_window.push((at_ns, 1.0));
                    }
                    out.log.push(Logged::Insert(id));
                }
                Err(_) => out.failed += 1,
            }
        }
        let t_remove = tr.now();
        let pending: Vec<_> = (0..BURST as GraphId)
            .map(|j| (oldest + j, Instant::now(), server.remove(oldest + j)))
            .collect();
        oldest += BURST as GraphId;
        for (id, sent, handle) in pending {
            match handle.result() {
                Ok(_) => {
                    out.remove_ack_ns.push(sent.elapsed().as_nanos() as f64);
                    out.log.push(Logged::Remove(id));
                }
                Err(_) => out.failed += 1,
            }
        }
        let t_end = tr.now();
        if let Some(root) = root {
            tr.record("serve.insert_ack", cycle, Some(root), t_insert, t_remove);
            tr.record("serve.remove_ack", cycle, Some(root), t_remove, t_end);
            tr.record_as(root, OP, cycle, None, t0, t_end);
        }
        cycle += 1;
    }
    out.spans = tr.into_spans();
    out
}

struct Read {
    rec: Recorder,
    spans: Vec<crate::spans::Span>,
    lag_ns: Vec<u64>,
}

/// The reader: one caller that sends a query every `1 / READ_RATE_PER_S`
/// and waits for the answer — a paced closed loop, so each query is timed
/// from when it was sent. How late the pacing ran is reported on its own
/// (`loadgen.sched_lag_p99_ms`): timed from due time, one starved timeslice
/// on this two-core host became fifty late queries and the tail's spread
/// over ten seeds was 137 %.
fn reader(
    server: &Server,
    queries: &[Vec<f32>],
    epoch: Instant,
    first_due: Instant,
    start: Instant,
    end: Instant,
    slices: Slices,
) -> Read {
    let period = Duration::from_nanos(1_000_000_000 / READ_RATE_PER_S);
    let mut tr = SpanBuf::new(epoch, 1, false);
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let (mut rec, mut lag_ns) = (Recorder::default(), Vec::new());
    for seq in 0u32.. {
        let due = first_due + period * seq;
        if due >= end {
            break;
        }
        pace_until(due);
        let begun = Instant::now();
        let answer = server.query(&queries[seq as usize % queries.len()], K);
        let done = Instant::now();
        if due < start {
            continue; // warm-up
        }
        let traced = slices.traced(due);
        if answer.len() == K {
            rec.push(Sample {
                at_ns: done.duration_since(start).as_nanos() as u64,
                lat_ns: done.duration_since(begun).as_nanos() as u64,
                class: 0,
                traced,
            });
        } else {
            rec.failed += 1;
        }
        lag_ns.push(begun.duration_since(due).as_nanos() as u64);
        tr.set_on(traced);
        tr.record("reader.query", seq as u64, None, ns(begun), ns(done));
    }
    Read {
        rec,
        spans: tr.into_spans(),
        lag_ns,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let dir = crate::host::scratch_dir("ingest_churn");
    let (s, setup_s) = super::repeat_setup(ctx.size(3, 1), || setup(ctx, &dir));
    let mut oracle = Oracle::default();
    let mut layers = Layers::default();
    let pool = s.corpus.pool.len();
    oracle.check(
        "ingest_churn.pool_size",
        s.server.num_encoded() == pool,
        || format!("{} rows for {pool} solutions", s.server.num_encoded()),
    );

    let warmup = ctx.warmup();
    let epoch = Instant::now();
    let start = epoch + Duration::from_millis(5) + warmup;
    let end = start + ctx.window();
    let slices = Slices::new(ctx, start);
    let before = s.server.metrics();
    let forwards_before = s.model.encoder().forward_count();
    let (server, tok, fresh, queries) = (&s.server, &s.corpus.tok, &s.fresh, &s.queries);
    let (written, read) = std::thread::scope(|scope| {
        let w = scope.spawn(move || writer(server, tok, fresh, pool, epoch, start, end, slices));
        let r =
            scope.spawn(move || reader(server, queries, epoch, start - warmup, start, end, slices));
        (
            w.join().expect("the writer thread does not panic"),
            r.join().expect("the reader thread does not panic"),
        )
    });
    let window_s = ctx.window().as_secs_f64();
    let delta = MetricsDelta {
        before,
        after: s.server.metrics(),
    };
    let forwards = s.model.encoder().forward_count() - forwards_before;

    // the state the restart must reproduce
    let mut expected_ids: BTreeSet<GraphId> = (0..pool as GraphId).collect();
    for op in &written.log {
        match *op {
            Logged::Insert(id) => expected_ids.insert(id),
            Logged::Remove(id) => expected_ids.remove(&id),
        };
    }
    let expected_ids: Vec<GraphId> = expected_ids.into_iter().collect();
    oracle.check(
        "ingest_churn.live_ids",
        s.server.ids() == expected_ids,
        || "the live id set is not the op-log replay".into(),
    );
    let probes_q = &s.queries[..RESTART_PROBES.min(s.queries.len())];
    let live: Vec<Ranking> = probes_q.iter().map(|q| s.server.query(q, K)).collect();
    let report = s.server.shutdown();
    oracle.shutdown(&report, true);

    // shutdown → checkpoint → recover → publish → map + verify
    let dcfg = DurabilityConfig::new(&s.dir);
    let recover_now =
        || recover(Arc::clone(&s.storage), &dcfg, s.cfg.index).expect("a clean shutdown recovers");
    let mut from_wal = recover_now();
    let t = Instant::now();
    let snapshot = checkpoint(
        Arc::clone(&s.storage),
        &dcfg,
        &from_wal.index,
        Some(&s.corpus.tok),
        Some(&ModelSpec::capture(&s.model)),
        &mut from_wal.wal,
    )
    .expect("the scratch directory accepts a snapshot");
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(from_wal);
    let t = Instant::now();
    let recovered = recover_now();
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let artifact = publish_index_artifact(&recovered.index, &s.dir.join("artifact"), 1)
        .expect("the scratch directory accepts an artifact");
    let publish_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mapped = ReadOnlyIndex::open(&artifact, true).expect("a just-published artifact opens");
    let open_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let verified = mapped.verify();
    let verify_ms = t.elapsed().as_secs_f64() * 1e3;
    oracle.check("ingest_churn.artifact_verifies", verified.is_ok(), || {
        format!("{verified:?}")
    });
    oracle.check(
        "ingest_churn.recovered_ids",
        recovered.index.ids() == expected_ids,
        || "the recovered id set is not the op-log replay".into(),
    );
    let agrees = |answer: &dyn Fn(&[f32]) -> Ranking| -> Vec<bool> {
        probes_q
            .iter()
            .zip(&live)
            .map(|(q, want)| answer(q) == *want)
            .collect()
    };
    let recovered_ok = agrees(&|q| recovered.index.query(q, K));
    let mapped_ok = agrees(&|q| mapped.query(q, K));
    let both = recovered_ok
        .iter()
        .zip(&mapped_ok)
        .filter(|(r, m)| **r && **m)
        .count();
    let quality = oracle.share("ingest_churn.restart_rankings", both, live.len(), || {
        let count = |ok: &[bool]| ok.iter().filter(|b| **b).count();
        format!(
            "recovered equal on {}, mapped equal on {}",
            count(&recovered_ok),
            count(&mapped_ok)
        )
    });
    drop(mapped);

    // a restarted server answers its first query
    let t = Instant::now();
    let reboot = recover_now();
    let restarted = Server::durable(
        Some(&s.model),
        reboot.index,
        s.cfg,
        probes::wall_clock(),
        reboot.wal,
    );
    let first_answer = restarted.query(&probes_q[0], K);
    let restart_first_answer_ms = t.elapsed().as_secs_f64() * 1e3;
    oracle.check(
        "ingest_churn.restarted_answer",
        first_answer == live[0],
        || format!("got {first_answer:?}, want {:?}", live[0]),
    );

    if ctx.trace {
        let mut spans = written.spans;
        probes::lowering_layers(&spans, &mut layers);
        delta.encode_layers(None, &mut layers);
        delta.scan_layers(&mut layers);
        super::ledger_layers(&spans, &mut layers);
        let (nodes, edges) = s.corpus.graph_shape();
        layers.set("progml.nodes_per_graph", nodes);
        layers.set("progml.edges_per_graph", edges);
        layers.set("tokenizer.train_ms", s.corpus.tokenizer_train_ms);
        layers.set(
            "nn.forward_count_per_op",
            forwards as f64 / written.insert_ack_ns.len().max(1) as f64,
        );
        layers.set(
            "serve.insert_ack_ms",
            stats::mean(&written.insert_ack_ns) / 1e6,
        );
        layers.set(
            "serve.remove_ack_us",
            stats::mean(&written.remove_ack_ns) / 1e3,
        );
        layers.set("store.wal_append_us", delta.hist_mean("wal.append_us"));
        layers.set(
            "store.wal_fsync_us",
            report.wal.as_ref().map_or(0.0, |w| w.sync_us as f64),
        );
        layers.set("store.wal_bytes_per_insert", s.wal_bytes_per_insert);
        layers.set("store.checkpoint_ms", checkpoint_ms);
        layers.set("store.recover_ms", recover_ms);
        let file_len = |p: &std::path::Path| std::fs::metadata(p).map_or(0.0, |m| m.len() as f64);
        layers.set("store.snapshot_bytes", file_len(&snapshot));
        layers.set("artifact.publish_ms", publish_ms);
        layers.set("artifact.open_us", open_us);
        layers.set("artifact.verify_ms", verify_ms);
        layers.set("artifact.bytes", file_len(&artifact));
        layers.set("serve.restart_first_answer_ms", restart_first_answer_ms);
        probes::encoder(&s.model, &s.corpus.pool, ctx.smoke, &mut layers);
        let (rows, hidden) = probes::pool_rows(&restarted);
        probes::scan_tiers(
            &restarted,
            &rows,
            hidden,
            s.cfg.index,
            &s.queries,
            ctx.smoke,
            &mut layers,
        );
        layers.set(
            "loadgen.sched_lag_p99_ms",
            stats::percentile(&stats::sorted(read.lag_ns), 0.99) as f64 / 1e6,
        );
        layers.set(
            "loadgen.trace_overhead_pct",
            read.rec.trace_overhead_pct(ctx.window()),
        );
        spans.extend(read.spans);
        super::write_trace("ingest_churn", &spans);
    }
    oracle.shutdown(&restarted.shutdown(), true);
    let _ = std::fs::remove_dir_all(&s.dir);

    layers.set("loadgen.samples", read.rec.completed() as f64);
    let failed = read.rec.failed + written.failed;
    Outcome {
        attempted: read.rec.completed() as u64 + written.insert_ack_ns.len() as u64 + failed,
        failed,
        work: written.acked_in_window,
        samples: read.rec.samples,
        window_s,
        quality,
        setup_s,
        layers,
        digest: s.digest,
        oracle,
    }
}
