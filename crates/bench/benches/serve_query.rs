//! Serving-path query latency: coalesced batch encode + sharded top-K scan
//! vs the unbatched per-query encode + scan baselines.
//!
//! Every variant answers the same Q "unknown binary" queries against the
//! same pre-encoded candidate pool, end to end (query-graph encode
//! included — candidates are pre-encoded in both paths, as any serving
//! system would have them):
//!
//! * `per_query_head_scan` — the repo's pre-serve *default* retrieval path
//!   (`rank_candidates` under `RankBy::Head`, the shape
//!   `examples/binary_search.rs` ships): one model replica + one encoder
//!   forward per query, then a match-head score for **every** candidate
//!   (each ~hidden² flops on its own tape) and a full sort. This is the
//!   path the serving layer retires — the head leaves the hot loop.
//! * `per_query_cosine_scan` — the strongest unbatched baseline
//!   (contrastively-trained models, `RankBy::Cosine`): per-query replica +
//!   encode, then materialize every candidate's cosine and fully sort.
//! * `serve_bB_sS` — the `gbm-serve` path: queries coalesce through an
//!   `EncodeCoalescer` (batch B, one disjoint-union forward per flush) and
//!   each embedding answers through a `ShardedIndex` over S shards
//!   (blocked per-shard top-K partial select + k-way merge). Identical
//!   rankings to `per_query_cosine_scan`'s top-K (asserted before timing).
//! * `serve_rerank_b8_sS` — the same, plus a match-head re-rank of the
//!   merged top-K (the retrieve-then-rerank shape for BCE-trained models):
//!   K head evaluations per query instead of pool-size many.
//! * `serve_q8_b8_s4` — the serve path with `ScanPrecision::Int8`: int8
//!   coarse scan + exact f32 re-rank of the error-margin-widened
//!   candidates. On this pool of near-duplicate MiniC programs (cosines
//!   packed tighter than the int8 resolution) the margin admits most rows,
//!   so this entry documents the *degenerate* regime — correctness kept,
//!   speed ≈ f32. Informational, not gated.
//! * `scan_f32` / `scan_i8_w4` (own `serve_query_scan*` group) — the scan
//!   kernels isolated, over a synthetic spread pool at serving scale
//!   (`ShardedIndex::from_rows`, unit-norm rows, 16384×128 full /
//!   4096×64 quick) where the f32 scan is memory-bound and the margin
//!   zone is a handful of rows. *This* pair carries the quantization
//!   acceptance gate: `f32_vs_i8_scan` ≥ 1.5×, checked against
//!   `BENCH_serve_query.json` like the other ratios. Rankings are
//!   asserted identical before timing.
//! * `scan_ivf` (`serve_query_scan_clus*` groups) — a *clustered*
//!   synthetic pool (64 centers; the distribution real embedding pools
//!   have — uniform random vectors are IVF's provably hostile regime,
//!   documented by probe_quant's spread-pool sweep) behind
//!   `ScanPrecision::Ivf { nprobe: 4, widen: 4 }` (auto ≈√rows cells per
//!   shard): probe the 4 nearest cells over the int8 mirror, exact-f32
//!   re-rank the widened survivors. Approximate by contract, so instead
//!   of rank identity the bench asserts recall@10 ≥ 0.95 against the f32
//!   ranking before timing and prints the measured recall
//!   (`<group>/recall_ivf: …`) for `check_bench_regression.py`, which
//!   gates `i8_vs_ivf_scan` (the sub-linear win over the full int8 scan
//!   on the same pool) and both floors.
//!
//! * `server_metrics_on` / `server_metrics_off` (`serve_query_obs_*`
//!   groups) — the concurrent [`Server`] query fan-out over the spread
//!   pool with the `gbm-obs` registry enabled (tracing off — the shipped
//!   default) vs instrumented out (`ObsConfig { metrics: false }`, every
//!   record site a dead `if let` branch). `check_bench_regression.py`
//!   gates `on/off ≤ meta.metrics_overhead.max_ratio` (3%) — the
//!   "metrics are free enough to leave on" contract.
//!
//! Scale: `GBM_BENCH_SCALE=quick` runs the CI smoke subset (128-graph
//! pool); the default covers the 1024-graph pool of the acceptance
//! criterion. Baselines live in `BENCH_serve_query.json`;
//! `scripts/check_bench_regression.py --bench serve_query` gates the
//! speedup ratios (head baseline vs reranked serve, cosine baseline vs
//! cosine serve, f32 scan vs int8 scan) plus the metrics-overhead
//! ceiling.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use gbm_nn::{EmbeddingStore, EncodedGraph, GraphBinMatch, GraphBinMatchConfig};
use gbm_serve::{
    CoalescerConfig, EncodeCoalescer, IndexConfig, ObsConfig, ScanPrecision, Server, ServerConfig,
    ShardedIndex, VirtualClock,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_mode() -> bool {
    matches!(std::env::var("GBM_BENCH_SCALE").as_deref(), Ok("quick"))
}

/// The cosine baseline's scan: every candidate scored, full sort, truncate.
fn full_cosine_top_k(store: &EmbeddingStore, query: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut scores: Vec<(usize, f32)> = (0..store.len())
        .map(|c| {
            let e = store.embedding(c).data();
            (c, e.iter().zip(query.iter()).map(|(x, y)| x * y).sum())
        })
        .collect();
    scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scores.truncate(k);
    scores
}

/// The head baseline's scan: the `rank_candidates` `RankBy::Head` shape —
/// one match-head forward per candidate, full sort, truncate.
fn full_head_top_k(
    model: &GraphBinMatch,
    store: &EmbeddingStore,
    query: &gbm_tensor::Tensor,
    k: usize,
) -> Vec<(usize, f32)> {
    let mut scores: Vec<(usize, f32)> = (0..store.len())
        .map(|c| (c, model.head().score_embeddings(query, store.embedding(c))))
        .collect();
    scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scores.truncate(k);
    scores
}

/// Runs all Q queries through the serve path once; `rerank` re-scores the
/// merged top-K through the match head (retrieve-then-rerank).
fn serve_queries(
    model: &GraphBinMatch,
    index: &ShardedIndex,
    queries: &[EncodedGraph],
    batch: usize,
    k: usize,
    rerank: bool,
) -> Vec<Vec<(u64, f32)>> {
    let clock = VirtualClock::new();
    let mut coalescer = EncodeCoalescer::new(CoalescerConfig { max_batch: batch });
    let tickets: Vec<_> = queries
        .iter()
        .map(|g| coalescer.submit(model, g.clone(), &clock))
        .collect();
    coalescer.flush(model); // drain the sub-batch remainder
    tickets
        .into_iter()
        .map(|t| {
            let emb = coalescer.poll(t).expect("flushed");
            let mut top = index.query(emb.data(), k);
            if rerank {
                for (id, score) in top.iter_mut() {
                    let ce = index.embedding(*id).expect("ranked id is indexed");
                    *score = model.head().score_embeddings(&emb, &ce);
                }
                top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            }
            top
        })
        .collect()
}

fn bench_pool(c: &mut Criterion, label: &str, pool_size: usize, num_queries: usize) {
    const K: usize = 10;
    let (tok, all) = gbm_bench::minic_pool(pool_size + num_queries);
    let (candidates, queries) = all.split_at(pool_size);
    let queries = queries.to_vec();
    let mut rng = StdRng::seed_from_u64(7);
    let model = GraphBinMatch::new(GraphBinMatchConfig::tiny(tok.vocab_size()), &mut rng);
    let store = EmbeddingStore::build(&model, candidates);

    let shard_counts: &[usize] = if quick_mode() { &[4] } else { &[1, 4, 8] };
    let extra_batches: &[usize] = if quick_mode() { &[] } else { &[16, 32] };
    let indexes: Vec<(usize, ShardedIndex)> = shard_counts
        .iter()
        .map(|&s| {
            (
                s,
                ShardedIndex::build(
                    &model,
                    candidates,
                    IndexConfig {
                        num_shards: s,
                        encode_batch: 8,
                        ..Default::default()
                    },
                ),
            )
        })
        .collect();

    // correctness gate before timing: the serve path must rank exactly like
    // the monolithic cosine scan
    for (s, index) in &indexes {
        let served = serve_queries(&model, index, &queries[..1], 8, K, false);
        let emb = model.replica().encoder().embed(&queries[0]);
        let scanned = full_cosine_top_k(&store, emb.data(), K);
        let served: Vec<(usize, f32)> = served[0].iter().map(|&(id, x)| (id as usize, x)).collect();
        assert_eq!(
            served, scanned,
            "shards={s}: serve path must rank identically"
        );
    }

    let mut g = c.benchmark_group(format!("serve_query_{label}"));
    g.sample_size(10);

    g.bench_function("per_query_head_scan", |b| {
        b.iter(|| {
            let rankings: Vec<Vec<(usize, f32)>> = queries
                .iter()
                .map(|qg| {
                    let replica = model.replica();
                    let emb = replica.encoder().embed(qg);
                    full_head_top_k(&replica, &store, &emb, K)
                })
                .collect();
            black_box(rankings)
        })
    });

    g.bench_function("per_query_cosine_scan", |b| {
        b.iter(|| {
            let rankings: Vec<Vec<(usize, f32)>> = queries
                .iter()
                .map(|qg| {
                    let replica = model.replica();
                    let emb = replica.encoder().embed(qg);
                    full_cosine_top_k(&store, emb.data(), K)
                })
                .collect();
            black_box(rankings)
        })
    });

    for &(s, ref index) in &indexes {
        g.bench_function(format!("serve_b8_s{s}"), |b| {
            b.iter(|| black_box(serve_queries(&model, index, &queries, 8, K, false)))
        });
        g.bench_function(format!("serve_rerank_b8_s{s}"), |b| {
            b.iter(|| black_box(serve_queries(&model, index, &queries, 8, K, true)))
        });
    }
    if let Some((_, index4)) = indexes.iter().find(|(s, _)| *s == 4).or(indexes.first()) {
        for &bsz in extra_batches {
            g.bench_function(format!("serve_b{bsz}_s4"), |b| {
                b.iter(|| black_box(serve_queries(&model, index4, &queries, bsz, K, false)))
            });
        }
    }

    // the quantized serve path on this pool: near-duplicate programs are
    // the margin's degenerate regime (most rows stay candidates), so this
    // entry documents correctness-preserving degradation, not a win — the
    // gated quantization speedup lives in the `scan` group below
    let q8_index = ShardedIndex::build(
        &model,
        candidates,
        IndexConfig {
            num_shards: 4,
            encode_batch: 8,
            precision: ScanPrecision::Int8 { widen: 4 },
            ..Default::default()
        },
    );
    {
        let served = serve_queries(&model, &q8_index, &queries[..1], 8, K, false);
        let emb = model.replica().encoder().embed(&queries[0]);
        let scanned = full_cosine_top_k(&store, emb.data(), K);
        let served: Vec<(usize, f32)> = served[0].iter().map(|&(id, x)| (id as usize, x)).collect();
        assert_eq!(served, scanned, "int8 serve path must rank identically");
    }
    g.bench_function("serve_q8_b8_s4", |b| {
        b.iter(|| black_box(serve_queries(&model, &q8_index, &queries, 8, K, false)))
    });

    g.finish();
}

/// The isolated scan comparison: identical `ShardedIndex::query` calls over
/// the same rows, one index scanning f32, one scanning int8 codes with the
/// exact re-rank — plus, when `gate_ivf` is set, the IVF approximate scan
/// with its recall-floor contract. The spread pool (random unit vectors)
/// carries the exact-scan gates: the margin zone is small and the int8
/// path's 4×-smaller scan footprint pays off, but uniform vectors have no
/// cluster structure for IVF to exploit (see probe_quant's sweep), so the
/// IVF gate runs on the clustered pool instead.
fn bench_scan(
    c: &mut Criterion,
    label: &str,
    rows: Vec<f32>,
    queries: Vec<Vec<f32>>,
    hidden: usize,
    gate_ivf: bool,
) {
    const K: usize = 10;
    let mk = |precision| {
        ShardedIndex::from_rows(
            &rows,
            hidden,
            IndexConfig {
                num_shards: 4,
                encode_batch: 8,
                precision,
                ..Default::default()
            },
        )
    };
    let f32_index = mk(ScanPrecision::F32);
    let i8_indexes: Vec<(usize, ShardedIndex)> = [1usize, 4]
        .iter()
        .map(|&w| (w, mk(ScanPrecision::Int8 { widen: w })))
        .collect();

    // correctness gate before timing: int8 must rank exactly like f32,
    // at every widen factor (the margin, not the floor, carries exactness)
    for q in &queries {
        let expect = f32_index.query(q, K);
        for (w, idx) in &i8_indexes {
            assert_eq!(
                idx.query(q, K),
                expect,
                "widen={w}: int8 scan must reproduce the f32 ranking exactly"
            );
        }
    }

    // the shipped approximate config: probe the 4 nearest of the ~√rows
    // auto cells per shard, exact-re-rank the widened survivors. Its
    // contract is a recall floor, not rank identity: asserted here so a
    // recall regression fails the bench outright, and printed in a form
    // check_bench_regression.py re-checks against the baseline floor
    let group = format!("serve_query_scan_{label}");
    let ivf_index = gate_ivf.then(|| {
        mk(ScanPrecision::Ivf {
            nprobe: 4,
            widen: 4,
        })
    });
    if let Some(ivf_index) = &ivf_index {
        let mut recall_sum = 0.0f64;
        for q in &queries {
            let exact = f32_index.query(q, K);
            let approx = ivf_index.query(q, K);
            let hits = exact
                .iter()
                .filter(|(id, _)| approx.iter().any(|(a, _)| a == id))
                .count();
            recall_sum += hits as f64 / exact.len() as f64;
        }
        let recall = recall_sum / queries.len() as f64;
        assert!(
            recall >= 0.95,
            "IVF recall@{K} {recall:.3} fell below the 0.95 floor"
        );
        println!("{group}/recall_ivf: {recall:.4}");
    }

    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("scan_f32", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(f32_index.query(q, K));
            }
        })
    });
    for (w, idx) in &i8_indexes {
        g.bench_function(format!("scan_i8_w{w}"), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(idx.query(q, K));
                }
            })
        });
    }
    if let Some(ivf_index) = &ivf_index {
        g.bench_function("scan_ivf", |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(ivf_index.query(q, K));
                }
            })
        });
    }
    g.finish();
}

/// The metrics-overhead pair: the same concurrent [`Server`] query sweep
/// with the `gbm-obs` registry enabled (tracing off — the shipped default
/// `ObsConfig`) vs instrumented out (`metrics: false`, which leaves every
/// record site a dead `if let` branch). Identical rankings are asserted
/// before timing; `check_bench_regression.py` gates the on/off time ratio
/// against `meta.metrics_overhead.max_ratio` in `BENCH_serve_query.json`.
///
/// Measured outside criterion as *interleaved adjacent sweeps* (on, off,
/// on, off, …) with per-side medians, printed in the harness's row format.
/// Two separate measurement windows seconds apart would let host load
/// drift land asymmetrically on one side and swamp a 3% ceiling on a
/// shared CI box; interleaving puts any slowdown on both sides of each
/// round, so it cancels in the ratio the gate checks, and the median
/// discards transient spikes entirely.
fn bench_metrics_overhead(label: &str, rows: &[f32], queries: &[Vec<f32>], hidden: usize) {
    const K: usize = 10;
    let mk = |metrics: bool| {
        Server::from_rows(
            rows,
            hidden,
            ServerConfig {
                scan_workers: 2,
                index: IndexConfig {
                    num_shards: 4,
                    encode_batch: 8,
                    ..Default::default()
                },
                obs: ObsConfig {
                    metrics,
                    trace_sample: 0,
                },
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
        )
    };
    let on = mk(true);
    let off = mk(false);
    for q in queries {
        assert_eq!(
            on.query(q, K),
            off.query(q, K),
            "instrumentation must not change rankings"
        );
    }

    const ROUNDS: usize = 30;
    let sweep = |server: &Server| {
        let t = std::time::Instant::now();
        for q in queries {
            black_box(server.query(q, K));
        }
        t.elapsed().as_nanos() as u64
    };
    for _ in 0..3 {
        sweep(&on);
        sweep(&off);
    }
    let mut on_ns = Vec::with_capacity(ROUNDS);
    let mut off_ns = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        on_ns.push(sweep(&on));
        off_ns.push(sweep(&off));
    }
    on_ns.sort_unstable();
    off_ns.sort_unstable();
    let median_ms = |ns: &[u64]| ns[ns.len() / 2] as f64 / 1e6;
    let group = format!("serve_query_obs_{label}");
    println!("== {group} ==");
    println!(
        "{group}/server_metrics_on          time: {:>10.3} ms/iter  ({ROUNDS} iters, interleaved median)",
        median_ms(&on_ns)
    );
    println!(
        "{group}/server_metrics_off         time: {:>10.3} ms/iter  ({ROUNDS} iters, interleaved median)",
        median_ms(&off_ns)
    );
    on.shutdown();
    off.shutdown();
}

/// The spread scan pool: `n` random unit rows plus out-of-pool queries.
fn spread_pool(n: usize, hidden: usize, num_queries: usize) -> (Vec<f32>, Vec<Vec<f32>>) {
    let rows = gbm_bench::synth_unit_rows(n, hidden, 42);
    let queries = (0..num_queries)
        .map(|i| gbm_bench::synth_unit_rows(1, hidden, 1000 + i as u64))
        .collect();
    (rows, queries)
}

/// The clustered scan pool: 64 cluster centers, in-distribution queries
/// split off the tail (same generator, not pool members).
fn clustered_pool(n: usize, hidden: usize, num_queries: usize) -> (Vec<f32>, Vec<Vec<f32>>) {
    let all = gbm_bench::synth_clustered_rows(n + num_queries, hidden, 64, 42);
    let (rows, tail) = all.split_at(n * hidden);
    let queries = tail.chunks_exact(hidden).map(<[f32]>::to_vec).collect();
    (rows.to_vec(), queries)
}

fn bench_serve_query(c: &mut Criterion) {
    if quick_mode() {
        bench_pool(c, "tiny_128", 128, 16);
        let (rows, queries) = spread_pool(4096, 64, 8);
        bench_metrics_overhead("4k_h64", &rows, &queries, 64);
        bench_scan(c, "4k_h64", rows, queries, 64, false);
        let (rows, queries) = clustered_pool(4096, 64, 8);
        bench_scan(c, "clus4k_h64", rows, queries, 64, true);
    } else {
        bench_pool(c, "tiny_1k", 1024, 32);
        let (rows, queries) = spread_pool(16384, 128, 16);
        bench_metrics_overhead("16k_h128", &rows, &queries, 128);
        bench_scan(c, "16k_h128", rows, queries, 128, false);
        let (rows, queries) = clustered_pool(16384, 128, 16);
        bench_scan(c, "clus16k_h128", rows, queries, 128, true);
    }
}

criterion_group!(benches, bench_serve_query);
criterion_main!(benches);
