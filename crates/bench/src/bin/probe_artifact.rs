//! probe_artifact: the persistence drill over real files and real
//! processes — the v2 artifact's three promises, measured and asserted.
//!
//! **1. Cold start is a map, not a decode.** A MiniC pool is encoded once
//! and published as a v2 artifact; the probe then times
//! `ReadOnlyIndex::open` (header + TOC checksum, structural validation,
//! zero payload decode) against re-encoding the same pool through the GNN
//! encoder — the only way to rebuild the index without persisted state —
//! and asserts the ≥10× speedup the format exists for.
//!
//! **2. A durable server survives a crash-kill.** Session 1 boots a
//! durable server on an empty directory, inserts the first half of the
//! pool's embeddings (every op WAL-logged), shuts down cleanly and
//! checkpoints offline (an artifact generation + WAL compaction). Session 2
//! boots from that checkpoint, inserts the second half, removes every 5th
//! id, and is dropped without shutdown with torn junk appended to the WAL,
//! as a kill mid-append leaves it. A timed `recover()` (newest verifying
//! generation + WAL tail replay) must be rank-identical — ids, scores, tie
//! order — to a never-crashed serial replay of every acked op, and ≥10×
//! faster than re-encoding the pool.
//!
//! **3. Readers survive a writer kill mid-publish.** The probe re-execs
//! itself as one *writer* process (publishes generations of a growing
//! synthetic index in a tight loop: tmp → fsync → rename, then the
//! `CURRENT` pointer) and several *reader* processes (each maps `CURRENT`,
//! polls for newer generations, serves a fixed query). The parent
//! SIGKILLs the writer mid-loop — so with high probability mid-publish —
//! then stops the readers. Each reader prints the generation it landed on
//! and its ranking as exact f32 bits; the parent rebuilds the same
//! generation in-process and asserts the rankings are **bit-identical**,
//! proving no reader ever observed a torn or half-published artifact.
//!
//! EXPERIMENTS.md records a run of this probe.
//!
//! ```text
//! cargo run --release -p gbm-bench --bin probe_artifact [-- --json]
//! ```

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gbm_nn::{GraphBinMatch, GraphBinMatchConfig};
use gbm_obs::names;
use gbm_serve::{
    checkpoint, publish_index_artifact, recover, ArtifactConfig, ArtifactReader, DurabilityConfig,
    GraphId, IndexConfig, MetricsRegistry, ReadOnlyIndex, ScanPrecision, Server, ServerConfig,
    ShardedIndex, VirtualClock,
};
use gbm_store::{FileStorage, Storage, WAL_FILE};
use rand::rngs::StdRng;
use rand::SeedableRng;

const POOL: usize = 48;
const SHARDS: usize = 4;
const HIDDEN: usize = 8;
const READERS: usize = 3;
/// Generations the writer publishes before idling (the parent kills it
/// long before it gets there).
const MAX_GENS: u64 = 200;
/// The parent lets the writer reach at least this generation before the
/// kill, so readers have real swaps to survive.
const KILL_AFTER_GEN: u64 = 3;
const TOP_K: usize = 10;

fn drill_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/probe_artifact-state")
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn synth_matrix(n: usize, hidden: usize, mut state: u64) -> Vec<f32> {
    let mut rows = Vec::with_capacity(n * hidden);
    for _ in 0..n * hidden {
        state = splitmix64(state);
        rows.push((state % 2000) as f32 / 1000.0 - 1.0);
    }
    rows
}

/// Generation `g` of the drill index: a pure function of `g`, so the
/// writer process and the parent's verification rebuild the exact same
/// index without any channel between them. Each generation grows the pool
/// (new rows under fresh ids) — the realistic "writer keeps ingesting"
/// shape.
fn generation_index(g: u64) -> ShardedIndex {
    let n = 64 + (g as usize) * 16;
    let rows = synth_matrix(n, HIDDEN, 1000 + g);
    ShardedIndex::from_rows(
        &rows,
        HIDDEN,
        IndexConfig {
            num_shards: SHARDS,
            precision: ScanPrecision::Int8 { widen: 2 },
            ..Default::default()
        },
    )
}

/// The fixed query every process scores — deterministic, unrelated to any
/// generation's rows.
fn drill_query() -> Vec<f32> {
    synth_matrix(1, HIDDEN, 424_242)
}

/// `id:bits` pairs — exact f32 representation, no formatting loss.
fn ranking_line(ranked: &[(u64, f32)]) -> String {
    ranked
        .iter()
        .map(|&(id, s)| format!("{id}:{:08x}", s.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Writer role: publish generations as fast as the disk allows until
/// killed. Every publish is atomic (tmp → fsync → rename for the artifact,
/// then for `CURRENT`), which is exactly what the parent's kill tests.
fn run_writer(dir: &Path) {
    for g in 1..=MAX_GENS {
        let index = generation_index(g);
        publish_index_artifact(&index, dir, g).expect("publish");
    }
}

/// Reader role: map `CURRENT`, keep polling and serving until the stop
/// file appears, then report the final generation, ranking, and metrics.
fn run_reader(dir: &Path, stop: &Path) {
    let registry = MetricsRegistry::new();
    let cfg = ArtifactConfig::new(dir);
    // the writer may not have published generation 1 yet: retry like a
    // real reader waiting for its first artifact
    let reader = loop {
        match ArtifactReader::with_metrics(cfg.clone(), Some(&registry)) {
            Ok(r) => break r,
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    let query = drill_query();
    let mut ranked = reader.current().query(&query, TOP_K);
    while !stop.exists() {
        // poll errors (e.g. CURRENT mid-swing) leave the reader serving
        // its mapped generation — that is the contract under test
        let _ = reader.poll();
        ranked = reader.current().query(&query, TOP_K);
        std::thread::sleep(Duration::from_millis(1));
    }
    let snap = registry.snapshot();
    println!(
        "gen={} maps={} remaps={} open_errors={} ranking={}",
        reader.generation(),
        snap.counter(names::ARTIFACT_MAPS).unwrap_or(0),
        snap.counter(names::ARTIFACT_REMAPS).unwrap_or(0),
        snap.counter(names::ARTIFACT_OPEN_ERRORS).unwrap_or(0),
        ranking_line(&ranked),
    );
}

/// What the crash-kill drill measured.
struct CrashReport {
    snapshot_seq: u64,
    replayed_ops: usize,
    torn_bytes: usize,
    recovery: Duration,
}

/// Part 2: checkpoint, crash mid-append, recover — asserted rank-identical
/// to a never-crashed serial replay of every acked op.
fn crash_drill(dir: &Path, rows: &[Vec<f32>], icfg: IndexConfig) -> CrashReport {
    let storage: Arc<dyn Storage> = Arc::new(FileStorage::new());
    let dcfg = DurabilityConfig::new(dir);
    let scfg = ServerConfig {
        scan_workers: 2,
        index: icfg,
        ..Default::default()
    };
    let boot = |rec: gbm_serve::Recovery| {
        Server::durable(
            None,
            rec.index,
            scfg,
            Arc::new(VirtualClock::new()),
            rec.wal,
        )
    };

    // session 1: first half of the pool, clean shutdown, offline checkpoint
    let server = boot(recover(Arc::clone(&storage), &dcfg, icfg).expect("fresh boot"));
    for (i, row) in rows.iter().take(POOL / 2).enumerate() {
        server.insert_row(i as GraphId, row.clone()).wait();
    }
    let report = server.shutdown();
    assert!(report.is_drained() && report.is_durable(), "{report:?}");
    let mut rec = recover(Arc::clone(&storage), &dcfg, icfg).expect("reload for checkpoint");
    checkpoint(
        Arc::clone(&storage),
        &dcfg,
        &rec.index,
        None,
        None,
        &mut rec.wal,
    )
    .expect("checkpoint");

    // session 2: second half + removals, then crash-kill mid-append
    let server = boot(rec);
    for (i, row) in rows.iter().enumerate().skip(POOL / 2) {
        server.insert_row(i as GraphId, row.clone()).wait();
    }
    for id in (0..POOL as GraphId).step_by(5) {
        server.remove(id).wait();
    }
    drop(server); // kill: no shutdown, no final sync
    storage
        .append(&dir.join(WAL_FILE), &[0xDE, 0xAD, 0xBE])
        .expect("simulate a torn mid-append kill");

    let t0 = Instant::now();
    let rec = recover(Arc::clone(&storage), &dcfg, icfg).expect("crash recovery");
    let recovery = t0.elapsed();

    // never-crashed reference: serial replay of every acked op
    let mut reference = ShardedIndex::new(icfg);
    for (i, row) in rows.iter().enumerate() {
        reference.insert_row(i as GraphId, row);
    }
    for id in (0..POOL as GraphId).step_by(5) {
        reference.remove(id);
    }
    assert_eq!(rec.index.ids(), reference.ids(), "recovered id set");
    for q in rows.iter().step_by(7) {
        for k in [1usize, 5, POOL] {
            assert_eq!(
                rec.index.query(q, k),
                reference.query(q, k),
                "recovered rankings must be exact"
            );
        }
    }
    let report = CrashReport {
        snapshot_seq: rec.snapshot_seq,
        replayed_ops: rec.replayed_ops,
        torn_bytes: rec.torn_bytes,
        recovery,
    };

    // the recovered state resumes serving and shuts down clean
    let server = boot(rec);
    server.insert_row(1_000_000, rows[0].clone()).wait();
    let shutdown = server.shutdown();
    assert!(
        shutdown.is_drained() && shutdown.is_durable(),
        "{shutdown:?}"
    );
    report
}

/// One reader's parsed report.
struct ReaderReport {
    gen: u64,
    maps: u64,
    remaps: u64,
    ranking: String,
}

fn parse_report(line: &str) -> ReaderReport {
    let field = |name: &str| {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("reader line missing {name}=: {line}"))
            .to_string()
    };
    ReaderReport {
        gen: field("gen").parse().expect("gen"),
        maps: field("maps").parse().expect("maps"),
        remaps: field("remaps").parse().expect("remaps"),
        ranking: field("ranking"),
    }
}

fn main() {
    let args = gbm_bench::probe_args();
    let dir = drill_dir();
    match args.flag_value("role") {
        Some("writer") => return run_writer(&dir),
        Some("reader") => return run_reader(&dir, &dir.join("STOP")),
        Some(other) => panic!("unknown --role {other}"),
        None => {}
    }

    // ---- part 1: cold start — map an artifact vs re-encode the pool ----
    let (tok, pool) = gbm_bench::minic_pool(POOL);
    let mut rng = StdRng::seed_from_u64(7);
    let model = GraphBinMatch::new(GraphBinMatchConfig::tiny(tok.vocab_size()), &mut rng);
    let _ = model.encoder().embed(&pool[0]); // warm scratch buffers

    let t0 = Instant::now();
    let index = ShardedIndex::build(
        &model,
        &pool,
        IndexConfig {
            num_shards: SHARDS,
            encode_batch: 8,
            precision: ScanPrecision::Int8 { widen: 2 },
            ..Default::default()
        },
    );
    let reencode = t0.elapsed();
    let hidden = index.hidden();

    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create drill dir");
    let path = publish_index_artifact(&index, &dir, 1).expect("publish minic artifact");
    let t0 = Instant::now();
    let ro = ReadOnlyIndex::open(&path, true).expect("cold open");
    let cold_open = t0.elapsed();
    let map_kind = format!("{:?}", ro.map_kind());

    // the mapped index must answer exactly like the one that published it
    let query = model.encoder().embed(&pool[0]);
    for k in [1usize, 5, POOL] {
        assert_eq!(
            ro.query(query.data(), k),
            index.query(query.data(), k),
            "mapped minic rankings must be bit-identical (k={k})"
        );
    }
    let speedup = reencode.as_secs_f64() / cold_open.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 10.0,
        "cold start from a mapped artifact must be ≥10× faster than re-encoding \
         (got {speedup:.1}×: open {cold_open:?} vs re-encode {reencode:?})"
    );
    drop(ro);

    // ---- part 2: crash-kill recovery drill ----
    let rows: Vec<Vec<f32>> = (0..POOL as GraphId)
        .map(|id| index.embedding(id).expect("built pool row").data().to_vec())
        .collect();
    let crash = crash_drill(&dir.join("durable"), &rows, index.config());
    let recover_speedup = reencode.as_secs_f64() / crash.recovery.as_secs_f64().max(1e-9);
    assert!(
        recover_speedup >= 10.0,
        "cold start from checkpoint+WAL must be ≥10× faster than re-encoding \
         (got {recover_speedup:.1}×: recover {:?} vs re-encode {reencode:?})",
        crash.recovery
    );

    // ---- part 3: writer-kill drill across real processes ----
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("reset drill dir");
    let exe = std::env::current_exe().expect("current exe");
    let mut readers: Vec<std::process::Child> = (0..READERS)
        .map(|_| {
            Command::new(&exe)
                .args(["--role", "reader"])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn reader")
        })
        .collect();
    let mut writer = Command::new(&exe)
        .args(["--role", "writer"])
        .spawn()
        .expect("spawn writer");

    // let the writer publish a few generations, then SIGKILL it mid-loop
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(Some((seq, _))) = gbm_artifact::read_current(&dir) {
            if seq >= KILL_AFTER_GEN {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "writer never reached generation {KILL_AFTER_GEN}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    writer.kill().expect("kill writer");
    let _ = writer.wait();
    let killed_at = gbm_artifact::read_current(&dir)
        .expect("CURRENT readable after kill")
        .expect("at least one published generation")
        .0;

    // give the readers a beat to observe the final generation, then stop
    std::thread::sleep(Duration::from_millis(50));
    std::fs::write(dir.join("STOP"), b"stop").expect("write stop file");
    let reports: Vec<ReaderReport> = readers
        .iter_mut()
        .map(|child| {
            let out = child.stdout.take().expect("reader stdout");
            let line = BufReader::new(out)
                .lines()
                .next()
                .expect("reader printed a report")
                .expect("read reader line");
            let status = child.wait().expect("reader exit");
            assert!(status.success(), "reader exited cleanly: {status:?}");
            parse_report(&line)
        })
        .collect();

    // every reader landed on a complete published generation and its
    // ranking is bit-identical to the in-process index of that generation
    let q = drill_query();
    for (i, r) in reports.iter().enumerate() {
        assert!(
            r.gen >= 1 && r.gen <= killed_at,
            "reader {i} on generation {} outside 1..={killed_at}",
            r.gen
        );
        let expect = ranking_line(&generation_index(r.gen).query(&q, TOP_K));
        assert_eq!(
            r.ranking, expect,
            "reader {i} (generation {}): ranking must be bit-identical",
            r.gen
        );
        assert!(r.maps >= 1, "reader {i} mapped at least once");
        assert_eq!(
            r.maps,
            r.remaps + 1,
            "reader {i}: every map after the first is a generation swap"
        );
    }
    let final_gens = reports.iter().filter(|r| r.gen == killed_at).count();
    let total_remaps: u64 = reports.iter().map(|r| r.remaps).sum();

    if args.json {
        println!("{{");
        println!(
            "  \"meta\": {{\"pool\": {POOL}, \"shards\": {SHARDS}, \"hidden\": {hidden}, \
             \"readers\": {READERS}, \"map_kind\": \"{map_kind}\"}},"
        );
        println!(
            "  \"cold_start\": {{\"open_us\": {}, \"reencode_us\": {}, \"speedup\": {:.1}}},",
            cold_open.as_micros(),
            reencode.as_micros(),
            speedup
        );
        println!(
            "  \"crash\": {{\"snapshot_seq\": {}, \"replayed_ops\": {}, \"torn_bytes\": {}, \
             \"recover_us\": {}, \"speedup\": {recover_speedup:.1}}},",
            crash.snapshot_seq,
            crash.replayed_ops,
            crash.torn_bytes,
            crash.recovery.as_micros()
        );
        println!(
            "  \"drill\": {{\"killed_at_gen\": {killed_at}, \"readers_on_final_gen\": \
             {final_gens}, \"total_remaps\": {total_remaps}}}"
        );
        println!("}}");
        return;
    }
    println!("=== v2 artifact persistence drill (real files, real processes) ===");
    println!(
        "pool={POOL} graphs, hidden={hidden}, shards={SHARDS}, int8 index; \
         state under target/probe_artifact-state/"
    );
    println!(
        "cold start  : map+validate {:.2?} vs re-encode {:.2?}  ({speedup:.0}x faster, {map_kind})",
        cold_open, reencode
    );
    println!("rankings    : mapped index bit-identical to the publishing index");
    println!(
        "crash-kill  : checkpoint at seq {}, {} WAL ops replayed, {} torn bytes dropped; \
         recover {:.2?} ({recover_speedup:.0}x faster than re-encode), rank-identical \
         to a never-crashed replay",
        crash.snapshot_seq, crash.replayed_ops, crash.torn_bytes, crash.recovery
    );
    println!(
        "writer kill : SIGKILL mid-publish at generation {killed_at}; every reader \
         still on a complete generation"
    );
    for (i, r) in reports.iter().enumerate() {
        println!(
            "reader {i}    : generation {} ({} maps, {} swaps), ranking verified bit-exact",
            r.gen, r.maps, r.remaps
        );
    }
    println!(
        "readers     : {final_gens}/{READERS} caught the final generation before the stop; \
         {total_remaps} live swaps served without a dropped query"
    );
}
