//! Per-layer probes of the traced run. Each one measures a layer *from
//! outside*, through its public functions, on the shapes and pools the
//! workload itself uses; none runs inside a timed window.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gbm_binary::{compile_module, optimize};
use gbm_datasets::Dataset;
use gbm_frontends::compile;
use gbm_nn::{EncodedGraph, GraphBinMatch, GraphBinMatchConfig};
use gbm_serve::{
    publish_index_artifact, IndexConfig, MetricsSnapshot, ReadOnlyIndex, ScanPrecision, Server,
    ShardedIndex,
};
use gbm_tensor::{dot_i8_blocked, top_k, Graph, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Layers;
use crate::stats;

/// Mean wall time of `f` in nanoseconds: repeats until `budget_ms` is
/// spent, at least `min_iters` times.
pub fn mean_ns(budget_ms: u64, min_iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut iters = 0usize;
    while iters < min_iters || start.elapsed().as_millis() < budget_ms as u128 {
        f();
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Two `Server::metrics()` snapshots around a window: counters and
/// histogram means of just that window.
pub struct MetricsDelta {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl MetricsDelta {
    pub fn counter(&self, name: &str) -> f64 {
        let of = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
        of(&self.after).saturating_sub(of(&self.before)) as f64
    }

    /// Mean of the samples a histogram gained between the snapshots.
    pub fn hist_mean(&self, name: &str) -> f64 {
        let of = |s: &MetricsSnapshot| {
            s.histogram(name).map_or((0.0, 0.0), |h| {
                (h.mean() * h.count() as f64, h.count() as f64)
            })
        };
        let (sum_a, n_a) = of(&self.after);
        let (sum_b, n_b) = of(&self.before);
        if n_a > n_b {
            (sum_a - sum_b) / (n_a - n_b)
        } else {
            0.0
        }
    }

    /// The scan-side split the server already keeps, per query.
    pub fn scan_layers(&self, layers: &mut Layers) {
        let queries = self.counter("serve.queries").max(1.0);
        layers.set("serve.query_us", self.hist_mean("serve.query_us"));
        layers.set("serve.merge_us", self.hist_mean("serve.merge_us"));
        layers.set(
            "serve.scan_rows_per_query",
            self.counter("serve.scan.rows") / queries,
        );
        layers.set(
            "serve.scan_bytes_per_query",
            self.counter("serve.scan.bytes") / queries,
        );
        layers.set(
            "serve.cells_probed_per_query",
            self.counter("serve.scan.cells_probed") / queries,
        );
        layers.set(
            "serve.survivors_per_query",
            self.counter("serve.scan.survivors") / queries,
        );
    }

    /// The encode-side split the server already keeps. `encode_rtt_ms` is
    /// the benchmark's own span around submit → embedding, where the
    /// workload has one; what neither the coalescer wait nor the forward
    /// explains of it is `encode_other_ms`.
    pub fn encode_layers(&self, encode_rtt_ms: Option<f64>, layers: &mut Layers) {
        // WallClock ticks are milliseconds
        let wait_ms = self.hist_mean("serve.encode.wait_ticks");
        let forward_ms = self.hist_mean("serve.encode.forward_us") / 1e3;
        layers.set("serve.coalesce_wait_ms", wait_ms);
        layers.set(
            "serve.batch_fill",
            self.hist_mean("serve.encode.batch_fill"),
        );
        layers.set("serve.encode_forward_ms", forward_ms);
        if let Some(rtt_ms) = encode_rtt_ms {
            layers.set("serve.encode_rtt_ms", rtt_ms);
            layers.set("serve.encode_other_ms", rtt_ms - wait_ms - forward_ms);
        }
    }
}

/// Front-end, optimiser and code generator on a sample of the corpus.
pub fn compiler_side(ds: &Dataset, layers: &mut Layers) {
    let sample: Vec<_> = ds
        .solutions
        .iter()
        .step_by(ds.solutions.len().div_ceil(64))
        .collect();
    let mut rng = StdRng::seed_from_u64(1);
    let (mut compile_ns, mut optimize_ns, mut codegen_ns) = (Vec::new(), Vec::new(), Vec::new());
    for sol in sample {
        let (compiler, level) = crate::inputs::pick_toolchain(&mut rng);
        let t = Instant::now();
        let module = black_box(compile(sol.lang, "probe", &sol.source)).expect("corpus compiles");
        compile_ns.push(t.elapsed().as_nanos() as f64);
        let mut optimized = module.clone();
        let t = Instant::now();
        optimize(&mut optimized, level);
        optimize_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        black_box(compile_module(&optimized, compiler)).expect("corpus generates code");
        codegen_ns.push(t.elapsed().as_nanos() as f64);
    }
    layers.set("frontends.compile_us", stats::mean(&compile_ns) / 1e3);
    layers.set("binary.optimize_us", stats::mean(&optimize_ns) / 1e3);
    layers.set("binary.codegen_us", stats::mean(&codegen_ns) / 1e3);
}

/// Binary-side lowering stages on `binaries`, for workloads whose op does
/// not run them inside the window.
pub fn binary_lowering(binaries: &[&[u8]], tok: &gbm_tokenizer::Tokenizer, layers: &mut Layers) {
    let mut tr = crate::spans::SpanBuf::new(Instant::now(), 0, true);
    for (i, bytes) in binaries.iter().enumerate() {
        black_box(crate::inputs::lower_binary(
            bytes, tok, &mut tr, i as u64, None,
        ));
    }
    lowering_layers(&tr.into_spans(), layers);
}

/// Per-stage means of the lowering spans a window (or probe) recorded.
pub fn lowering_layers(spans: &[crate::spans::Span], layers: &mut Layers) {
    for (span, metric) in [
        ("frontends.compile", "frontends.compile_us"),
        ("binary.object_decode", "binary.object_decode_us"),
        ("binary.decompile", "binary.decompile_us"),
        ("progml.build_graph", "progml.build_graph_us"),
        ("tokenizer.encode_graph", "tokenizer.encode_graph_us"),
    ] {
        let ns = crate::spans::mean_ns(spans, span);
        if ns > 0.0 {
            layers.set(metric, ns / 1e3);
        }
    }
}

/// Encoder forward FLOPs for one graph, *computed from shapes* (not
/// counted by the kernels): input projection, two `hidden × hidden` linears
/// and the attention/aggregation arithmetic per relation per layer (edges
/// include the self-loop the conv adds per node), and the pooling read-out.
pub fn forward_flops(cfg: &GraphBinMatchConfig, g: &EncodedGraph) -> f64 {
    let (n, e, h) = (
        g.n_nodes as f64,
        cfg.embed_dim as f64,
        cfg.hidden_dim as f64,
    );
    let per_layer: f64 = g
        .relations
        .iter()
        .map(|r| 4.0 * n * h * h + 7.0 * (r.len() as f64 + n) * h)
        .sum();
    2.0 * n * e * h + cfg.num_layers as f64 * per_layer + 2.0 * h * h + 4.0 * n * h
}

/// Single and batch-of-8 encoder forwards on the workload's own graphs, at
/// the harness-standard size and (fewer iterations) at the paper's size,
/// where `batch8 > 8 × single` is the recorded batching anomaly.
pub fn encoder(model: &GraphBinMatch, graphs: &[EncodedGraph], smoke: bool, layers: &mut Layers) {
    let refs: Vec<&EncodedGraph> = graphs.iter().take(64).collect();
    let (budget, min_iters) = if smoke { (1, 1) } else { (150, 2) };
    let time_pair = |m: &GraphBinMatch, budget_ms: u64| {
        let mut i = 0;
        let single = mean_ns(budget_ms, min_iters, || {
            black_box(m.encoder().embed(refs[i % refs.len()]));
            i += 1;
        });
        let mut i = 0;
        let batch8 = mean_ns(budget_ms, min_iters, || {
            let batch: Vec<&EncodedGraph> = (0..8).map(|j| refs[(i + j) % refs.len()]).collect();
            black_box(m.encoder().embed_batch(&batch));
            i += 8;
        });
        (single / 1e6, batch8 / 1e6)
    };
    let (single_ms, batch8_ms) = time_pair(model, budget);
    layers.set("nn.embed_single_ms", single_ms);
    layers.set("nn.embed_batch8_ms", batch8_ms);
    let flops = stats::mean(
        &refs
            .iter()
            .map(|g| forward_flops(model.config(), g))
            .collect::<Vec<_>>(),
    );
    layers.set("nn.forward_flops_per_graph", flops);
    layers.set("nn.forward_gflops", flops / (single_ms * 1e6));

    let mut rng = StdRng::seed_from_u64(7);
    let paper = GraphBinMatch::new(
        GraphBinMatchConfig::paper(model.config().vocab_size),
        &mut rng,
    );
    let (single_ms, batch8_ms) = time_pair(&paper, budget * 2);
    layers.set("nn.embed_paper_single_ms", single_ms);
    layers.set("nn.embed_paper_batch8_ms", batch8_ms);
}

/// One pair forward + backward through the match head, as a training step
/// does per pair (replica weights: the probe must not train the model).
pub fn fwdbwd_pair(
    model: &GraphBinMatch,
    graphs: &[EncodedGraph],
    smoke: bool,
    layers: &mut Layers,
) {
    let replica = model.replica();
    let mut rng = StdRng::seed_from_u64(3);
    let target = Tensor::from_vec(vec![1.0], &[1, 1]);
    let mut i = 0;
    let ns = mean_ns(if smoke { 1 } else { 150 }, 2, || {
        let (a, b) = (&graphs[i % graphs.len()], &graphs[(i + 1) % graphs.len()]);
        let tape = Graph::new();
        let logit = replica.forward_pair(&tape, a, b, true, &mut rng);
        let loss = tape.bce_with_logits(logit, &target);
        tape.backward(loss);
        replica.store.zero_grad();
        black_box(tape.value(loss).item());
        i += 2;
    });
    layers.set("nn.fwdbwd_pair_ms", ns / 1e6);
}

/// The public kernels at the shapes the workloads use: a node-feature
/// matmul (`nodes × hidden · hidden × hidden`), the int8 dot over a code
/// matrix, and the per-block top-k select.
pub fn kernels(nodes: usize, hidden: usize, layers: &mut Layers) {
    let mut rng = StdRng::seed_from_u64(5);
    let a = Tensor::rand_uniform(&mut rng, &[nodes, hidden], -1.0, 1.0);
    let b = Tensor::rand_uniform(&mut rng, &[hidden, hidden], -1.0, 1.0);
    let ns = mean_ns(20, 8, || {
        let g = Graph::new();
        let (va, vb) = (g.constant(a.clone()), g.constant(b.clone()));
        black_box(g.value(g.matmul(va, vb)));
    });
    layers.set(
        "tensor.matmul_gflops",
        2.0 * (nodes * hidden * hidden) as f64 / ns,
    );

    const ROWS: usize = 8192;
    const WIDTH: usize = 128;
    let codes: Vec<i8> = (0..ROWS * WIDTH).map(|i| (i * 31 % 251) as i8).collect();
    let query: Vec<i8> = (0..WIDTH).map(|i| (i * 17 % 127) as i8).collect();
    let ns = mean_ns(20, 4, || {
        let mut acc = 0i32;
        for row in codes.chunks_exact(WIDTH) {
            acc = acc.wrapping_add(dot_i8_blocked(row, &query));
        }
        black_box(acc);
    });
    layers.set("tensor.dot_i8_gbps", (ROWS * WIDTH) as f64 / ns);

    let scores: Vec<f32> = (0..256).map(|i| ((i * 97 % 256) as f32) / 256.0).collect();
    let ns = mean_ns(10, 64, || {
        black_box(top_k(black_box(&scores), 10));
    });
    layers.set("tensor.top_k_us", ns / 1e3);
}

/// All scan tiers side by side on one pool: `rows` (row `i` has id `i`)
/// under `base` sharding. Measures each tier's single-call latency, what
/// the quantizer and IVF training add to an index build, the int8 margin
/// zone, the mapped artifact path, the server's fan-out cost over an
/// inline scan, and the f32/int8 scans as a fraction of the copy roof.
pub fn scan_tiers(
    server: &Server,
    rows: &[f32],
    hidden: usize,
    base: IndexConfig,
    queries: &[Vec<f32>],
    smoke: bool,
    layers: &mut Layers,
) {
    const K: usize = 10;
    let queries = &queries[..queries.len().min(32)];
    let build = |precision| {
        let t = Instant::now();
        let index = ShardedIndex::from_rows(rows, hidden, IndexConfig { precision, ..base });
        (index, t.elapsed().as_secs_f64() * 1e3)
    };
    let per_query_us = |f: &mut dyn FnMut(&[f32])| {
        let mut i = 0;
        mean_ns(if smoke { 1 } else { 100 }, queries.len(), || {
            f(&queries[i % queries.len()]);
            i += 1;
        }) / 1e3
    };
    let bytes_per_query = |index: &ShardedIndex| {
        let total: u64 = queries
            .iter()
            .map(|q| index.query_stats(q, K).1.scan_bytes)
            .sum();
        total as f64 / queries.len() as f64
    };
    let roof = crate::host::memcpy_gbps(if smoke { 1 << 20 } else { 64 << 20 });
    layers.set("host.memcpy_gbps", roof);

    let (f32_index, f32_build_ms) = build(ScanPrecision::F32);
    let f32_us = per_query_us(&mut |q| {
        black_box(f32_index.query(q, K));
    });
    layers.set("serve.scan_f32_us", f32_us);
    layers.set(
        "serve.scan_f32_roof_frac",
        bytes_per_query(&f32_index) / (f32_us * 1e3) / roof,
    );
    let f32_bytes = f32_index.scan_bytes() as f64;
    drop(f32_index);

    let (int8_index, int8_build_ms) = build(ScanPrecision::Int8 { widen: 1 });
    let int8_us = per_query_us(&mut |q| {
        black_box(int8_index.query(q, K));
    });
    layers.set("serve.scan_int8_us", int8_us);
    layers.set(
        "serve.scan_int8_roof_frac",
        bytes_per_query(&int8_index) / (int8_us * 1e3) / roof,
    );
    layers.set(
        "quant.int8_build_ms",
        (int8_build_ms - f32_build_ms).max(0.0),
    );
    layers.set(
        "quant.scan_bytes_ratio",
        int8_index.scan_bytes() as f64 / f32_bytes,
    );
    let survivors: u64 = queries
        .iter()
        .map(|q| int8_index.query_stats(q, K).1.survivors)
        .sum();
    layers.set(
        "quant.margin_admit_share",
        survivors as f64 / (queries.len() * rows.len() / hidden) as f64,
    );
    drop(int8_index);

    let (ivf_index, ivf_build_ms) = build(ScanPrecision::Ivf {
        nprobe: 4,
        widen: 4,
    });
    layers.set(
        "serve.scan_ivf_us",
        per_query_us(&mut |q| {
            black_box(ivf_index.query(q, K));
        }),
    );
    layers.set(
        "quant.ivf_train_ms",
        (ivf_build_ms - int8_build_ms).max(0.0),
    );
    drop(ivf_index);

    // the workload's own tier: inline over the same shards vs the server's
    // fan-out, then published and served from the mapping
    let (own, _) = build(base.precision);
    let inline_us = per_query_us(&mut |q| {
        black_box(own.query_shards(0..own.num_shards(), q, K));
    });
    let server_us = per_query_us(&mut |q| {
        black_box(server.query(q, K));
    });
    layers.set("serve.fanout_overhead_us", server_us - inline_us);
    let dir = crate::host::scratch_dir("tiers");
    let path = publish_index_artifact(&own, &dir, 1).expect("the scratch directory is writable");
    drop(own);
    let mapped = ReadOnlyIndex::open(&path, true).expect("a just-published artifact opens");
    layers.set(
        "serve.scan_mapped_us",
        per_query_us(&mut |q| {
            black_box(mapped.query(q, K));
        }),
    );
    drop(mapped);
    let _ = std::fs::remove_dir_all(dir);
}

/// A server's pool as row-major rows in ascending id order, and the width.
pub fn pool_rows(server: &Server) -> (Vec<f32>, usize) {
    let mut rows = Vec::new();
    let mut hidden = 0;
    for id in server.ids() {
        let row = server.embedding(id).expect("a listed id has a row");
        hidden = row.data().len();
        rows.extend_from_slice(row.data());
    }
    (rows, hidden)
}

/// Every `step`-th row of a pool, as queries for the tier probes.
pub fn rows_as_queries(rows: &[f32], hidden: usize, step: usize) -> Vec<Vec<f32>> {
    rows.chunks_exact(hidden)
        .step_by(step)
        .map(<[f32]>::to_vec)
        .collect()
}

/// The real-time clock every workload's server runs on.
pub fn wall_clock() -> Arc<dyn gbm_serve::Clock> {
    Arc::new(gbm_serve::WallClock::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_follow_the_shapes() {
        let cfg = GraphBinMatchConfig::small(100);
        let mut g = EncodedGraph {
            tokens: vec![],
            n_nodes: 10,
            seq_len: 4,
            relations: Default::default(),
        };
        let base = forward_flops(&cfg, &g);
        // by hand: 2·10·24·32 + 2 layers · 3 relations · (4·10·32² + 7·10·32)
        //          + 2·32² + 4·10·32
        assert_eq!(base, 15360.0 + 6.0 * (40960.0 + 2240.0) + 2048.0 + 1280.0);
        g.relations[0].src = vec![0; 5];
        assert_eq!(forward_flops(&cfg, &g) - base, 2.0 * 7.0 * 5.0 * 32.0);
    }

    #[test]
    fn delta_reads_only_the_window() {
        let reg = gbm_serve::MetricsRegistry::new();
        let (c, h) = (
            reg.counter("serve.queries"),
            reg.histogram("serve.query_us"),
        );
        c.add(5);
        h.record(1000);
        let before = reg.snapshot();
        c.add(3);
        h.record(10);
        h.record(30);
        let d = MetricsDelta {
            before,
            after: reg.snapshot(),
        };
        assert_eq!(d.counter("serve.queries"), 3.0);
        assert_eq!(d.hist_mean("serve.query_us"), 20.0);
        assert_eq!(d.hist_mean("absent"), 0.0);
    }

    #[test]
    fn kernel_probe_reports_positive_rates() {
        let mut layers = Layers::default();
        kernels(16, 8, &mut layers);
        for m in [
            "tensor.matmul_gflops",
            "tensor.dot_i8_gbps",
            "tensor.top_k_us",
        ] {
            assert!(layers.get(m) > 0.0, "{m}");
        }
        let mut n = 0;
        assert!(mean_ns(0, 3, || n += 1) >= 0.0);
        assert_eq!(n, 3);
    }
}
