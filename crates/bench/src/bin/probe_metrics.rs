//! probe_metrics: mixed load against an instrumented server, ending in the
//! metrics-registry exposition — the smoke test for `gbm-obs` wired through
//! the full serving + durability stack.
//!
//! The drill (state under `target/probe_metrics-state/`, wiped first):
//!
//! 1. **Seed session** — a durable model-backed server encodes and inserts
//!    half a MiniC pool (every op WAL-logged), then shuts down cleanly.
//! 2. **Recovery** — `recover()` replays the seed session's WAL; its stats
//!    seed the `recover.*` counters of the next server via
//!    [`Server::record_recovery`].
//! 3. **Observed session** — a second durable server (trace sampling on)
//!    inserts the remaining half through the coalesced encode path, answers
//!    a query sweep, then loses a poisoned scan worker and keeps answering
//!    through the inline-failover path.
//! 4. **Exposition** — the run ends by printing
//!    [`Server::metrics`](gbm_serve::Server::metrics) as the text
//!    exposition (`--json` embeds the JSON snapshot instead) plus the first
//!    sampled [`TraceSpan`] renders. Every metric family the registry
//!    promises — encode, scan, merge, WAL, recovery, failover — is asserted
//!    non-zero before printing, so a silently dead counter fails the probe
//!    rather than shipping an all-zero dashboard.
//! 5. **Traced scan comparison** (text mode only) — the same query traced
//!    on the clustered 16384×128 scan pool behind exact int8 and behind
//!    IVF, the stage-by-stage walk EXPERIMENTS.md §Observability records.
//!
//! `GBM_METRICS` / `GBM_TRACE_SAMPLE` are honoured via
//! [`ServerConfig::with_env`] (metrics off turns the assertions off too —
//! the probe then demonstrates the instrumented-out exposition is empty).
//!
//! ```text
//! cargo run --release -p gbm-bench --bin probe_metrics [-- --json]
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use gbm_nn::{GraphBinMatch, GraphBinMatchConfig};
use gbm_serve::persist::{recover, DurabilityConfig};
use gbm_serve::{
    CoalescerConfig, GraphId, IndexConfig, ScanPrecision, Server, ServerConfig, VirtualClock,
    WallClock,
};
use gbm_store::{FileStorage, Storage};
use rand::rngs::StdRng;
use rand::SeedableRng;

const POOL: usize = 24;
const SHARDS: usize = 4;
const K: usize = 5;

fn state_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/probe_metrics-state")
}

fn main() {
    let json = gbm_bench::probe_args().json;
    let (tok, pool) = gbm_bench::minic_pool(POOL);
    let mut rng = StdRng::seed_from_u64(11);
    let model = GraphBinMatch::new(GraphBinMatchConfig::tiny(tok.vocab_size()), &mut rng);
    let queries: Vec<Vec<f32>> = pool
        .iter()
        .step_by(3)
        .map(|g| model.encoder().embed(g).data().to_vec())
        .collect();

    let dir = state_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let storage: Arc<dyn Storage> = Arc::new(FileStorage::new());
    let dcfg = DurabilityConfig::new(&dir);
    let icfg = IndexConfig {
        num_shards: SHARDS,
        encode_batch: 4,
        ..Default::default()
    };
    let mut scfg = ServerConfig {
        scan_workers: 2,
        coalescer: CoalescerConfig { max_batch: 4 },
        index: icfg,
        ..Default::default()
    };
    scfg.obs.trace_sample = 3; // every 3rd query leaves a TraceSpan
    let scfg = scfg.with_env();

    // seed session: WAL half the pool through the encode path, clean stop
    let rec = recover(Arc::clone(&storage), &dcfg, icfg).expect("fresh boot");
    let server = Server::durable(
        Some(&model),
        rec.index,
        scfg,
        Arc::new(VirtualClock::new()),
        rec.wal,
    );
    // submit the whole half up front so batches can form behind the first
    // forward; every handle resolving proves every op was WAL-acked
    let handles: Vec<_> = pool
        .iter()
        .take(POOL / 2)
        .enumerate()
        .map(|(i, g)| server.insert(i as GraphId, g.clone()))
        .collect();
    for h in handles {
        h.result().expect("seed insert WAL-acked");
    }
    let report = server.shutdown();
    assert!(report.is_drained() && report.is_durable(), "{report:?}");

    // recovery replays the seed session's WAL; its stats seed `recover.*`
    let rec = recover(Arc::clone(&storage), &dcfg, icfg).expect("replay seed WAL");
    let rstats = rec.stats();
    assert_eq!(rstats.replayed_ops, POOL / 2, "seed ops all WAL-logged");

    // observed session: encodes, queries, then failover under fire
    let server = Server::durable(
        Some(&model),
        rec.index,
        scfg,
        Arc::new(VirtualClock::new()),
        rec.wal,
    );
    server.record_recovery(rstats);
    let handles: Vec<_> = pool
        .iter()
        .enumerate()
        .skip(POOL / 2)
        .map(|(i, g)| server.insert(i as GraphId, g.clone()))
        .collect();
    for h in handles {
        h.result().expect("observed insert WAL-acked");
    }
    for q in &queries {
        let top = server.query(q, K);
        assert_eq!(top.len(), K, "full pool always fills k");
    }
    server.poison_scan_worker(1);
    for q in queries.iter().take(3) {
        let top = server.query(q, K);
        assert_eq!(top.len(), K, "failover path still fills k");
    }

    let metrics = server.metrics();
    let traces = server.take_traces();
    let report = server.shutdown();
    assert!(report.is_drained() && report.is_durable(), "{report:?}");

    if metrics.counter("serve.queries").is_some() {
        // every family the exposition promises must be live under this load
        for name in [
            "serve.queries",
            "serve.scan.rows",
            "serve.encode.flushes",
            "serve.encode.graphs",
            "serve.failover.inline_scans",
            "serve.workers.panics",
            "wal.appends",
            "recover.replayed_ops",
            "recover.replay_us",
        ] {
            assert!(
                metrics.counter(name).unwrap_or(0) > 0,
                "counter {name} stayed zero under mixed load"
            );
        }
        for name in [
            "serve.query_us",
            "serve.merge_us",
            "serve.encode.forward_us",
            "wal.append_us",
        ] {
            assert!(
                metrics.histogram(name).is_some_and(|h| h.count() > 0),
                "histogram {name} stayed empty under mixed load"
            );
        }
        assert!(!traces.is_empty(), "trace sampling on but no spans kept");
    }

    if json {
        println!("{{");
        println!(
            "  \"meta\": {{\"pool\": {POOL}, \"shards\": {SHARDS}, \"k\": {K}, \
             \"queries\": {}, \"traces\": {}}},",
            queries.len() + 3,
            traces.len()
        );
        println!("  \"metrics\": {}", metrics.to_json());
        println!("}}");
        return;
    }
    println!("=== metrics exposition under mixed load (MiniC pool) ===");
    println!(
        "pool={POOL} graphs, {SHARDS} shards, 2 scan workers (1 poisoned mid-run); \
         {} queries + {POOL} coalesced encode inserts, WAL on",
        queries.len() + 3
    );
    println!("\n--- registry exposition ---");
    print!("{}", metrics.to_text());
    println!(
        "\n--- sampled traces ({} kept, first 2 shown) ---",
        traces.len()
    );
    for span in traces.iter().take(2) {
        print!("{}", span.render());
    }
    traced_scan_comparison();
}

/// The EXPERIMENTS.md §Observability walk-through: the same query traced
/// on the clustered 16384×128 scan pool behind the exact int8 tier and
/// behind IVF. The trace fields show *where* IVF saves the work (cells
/// probed instead of whole shards, rows scanned, scan bytes); the
/// `serve.query_us` histogram shows what that buys in wall time. Text
/// mode only — `--json` (the CI drill) skips the pool build.
fn traced_scan_comparison() {
    const ROWS: usize = 16384;
    const HIDDEN: usize = 128;
    const SCAN_K: usize = 10;
    let all = gbm_bench::synth_clustered_rows(ROWS + 1, HIDDEN, 64, 42);
    let (rows, query) = all.split_at(ROWS * HIDDEN);

    println!(
        "\n--- traced scan: clustered {ROWS}×{HIDDEN} pool, k={SCAN_K}, \
         exact int8 vs IVF ---"
    );
    for (name, precision) in [
        ("int8_exact", ScanPrecision::Int8 { widen: 4 }),
        (
            "ivf_nprobe4",
            ScanPrecision::Ivf {
                nprobe: 4,
                widen: 4,
            },
        ),
    ] {
        let mut cfg = ServerConfig {
            scan_workers: 2,
            index: IndexConfig {
                num_shards: 4,
                encode_batch: 8,
                precision,
                ..Default::default()
            },
            ..Default::default()
        };
        cfg.obs.trace_sample = 1; // trace every query (ticks = WallClock ms)
        let server = Server::from_rows(rows, HIDDEN, cfg, Arc::new(WallClock::new()));
        for _ in 0..8 {
            let top = server.query(query, SCAN_K);
            assert_eq!(top.len(), SCAN_K);
        }
        let metrics = server.metrics();
        let traces = server.take_traces();
        server.shutdown();
        let h = metrics
            .histogram("serve.query_us")
            .expect("query histogram live");
        println!(
            "\n[{name}] p50 {} µs  (8 queries; total rows scanned {}, \
             cells probed {}, survivors re-ranked {}, scan bytes {})",
            h.p50(),
            metrics.counter("serve.scan.rows").unwrap_or(0),
            metrics.counter("serve.scan.cells_probed").unwrap_or(0),
            metrics.counter("serve.scan.survivors").unwrap_or(0),
            metrics.counter("serve.scan.bytes").unwrap_or(0),
        );
        print!("{}", traces[0].render());
    }
}
