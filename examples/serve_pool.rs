//! The serving layer end to end: a sharded embedding index over a source
//! corpus, queries (decompiled binaries) coalescing through the batch
//! encoder, exact top-K cosine answers, and live pool updates.
//!
//! This is `examples/binary_search.rs` rebuilt on `gbm-serve`: instead of a
//! monolithic `EmbeddingStore` + full per-query scan, candidates live in a
//! [`ShardedIndex`] (stable-hash partitioning, batched encode) and query
//! graphs flow through an [`EncodeCoalescer`] — one disjoint-union forward
//! per flush, per-row results by ticket. The `serve_query` bench measures
//! the speedup; this example shows the moving parts.
//!
//! ```text
//! cargo run --release --example serve_pool
//! ```

use std::sync::Arc;

use gbm_nn::{encode_graph, EncodedGraph, GraphBinMatch, GraphBinMatchConfig};
use gbm_progml::{build_graph, NodeTextMode};
use gbm_serve::{
    CoalescerConfig, EncodeCoalescer, IndexConfig, ScanPrecision, Server, ServerConfig,
    ShardedIndex, VirtualClock,
};
use gbm_tokenizer::{Tokenizer, TokenizerConfig};
use graphbinmatch::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // ── candidate corpus: 8 tasks × {MiniC, MiniJava} ───────────────────
    let tasks: Vec<usize> = (0..8).collect();
    let mut corpus: Vec<(String, Module)> = Vec::new();
    for &t in &tasks {
        for (lang, tag) in [(SourceLang::MiniC, "c"), (SourceLang::MiniJava, "java")] {
            let src = gbm_datasets::tasks::emit(
                t,
                lang,
                &mut gbm_datasets::style::Style::new(7 + t as u64),
            );
            let name = format!("{}.{tag}", gbm_datasets::tasks::TASK_NAMES[t]);
            corpus.push((
                name,
                Pipeline::compile_source(lang, &src).expect("task compiles"),
            ));
        }
    }

    // ── queries: three "unknown" optimized binaries, decompiled ─────────
    let query_tasks = [2usize, 5, 7];
    let unknowns: Vec<Module> = query_tasks
        .iter()
        .map(|&t| {
            let src = gbm_datasets::tasks::emit(
                t,
                SourceLang::MiniC,
                &mut gbm_datasets::style::Style::new(99 + t as u64),
            );
            let m = Pipeline::compile_source(SourceLang::MiniC, &src).unwrap();
            let obj = Pipeline::compile_to_binary(&m, Compiler::Gcc, OptLevel::O2).unwrap();
            Pipeline::decompile(&obj)
        })
        .collect();

    // shared tokenizer over everything the encoder will ever see
    let graphs: Vec<gbm_progml::ProgramGraph> = corpus
        .iter()
        .map(|(_, m)| build_graph(m))
        .chain(unknowns.iter().map(build_graph))
        .collect();
    let refs: Vec<&gbm_progml::ProgramGraph> = graphs.iter().collect();
    let tok = Tokenizer::train_on_graphs(&refs, NodeTextMode::FullText, TokenizerConfig::default());
    let encoded: Vec<EncodedGraph> = graphs
        .iter()
        .map(|g| encode_graph(g, &tok, NodeTextMode::FullText))
        .collect();
    let (cand_graphs, query_graphs) = encoded.split_at(corpus.len());

    let mut rng = StdRng::seed_from_u64(0);
    let model = GraphBinMatch::new(GraphBinMatchConfig::small(tok.vocab_size()), &mut rng);

    // ── the index: 4 hash shards, batched encode ────────────────────────
    let mut index = ShardedIndex::build(
        &model,
        cand_graphs,
        IndexConfig {
            num_shards: 4,
            encode_batch: 8,
            ..Default::default()
        },
    );
    println!(
        "indexed {} candidates over {} shards (sizes {:?}), {} encoder forwards",
        index.num_encoded(),
        index.num_shards(),
        index.shard_sizes(),
        model.encoder().forward_count()
    );

    // ── queries coalesce: 3 requests, ONE batched forward ───────────────
    let clock = VirtualClock::new();
    let mut coalescer = EncodeCoalescer::new(CoalescerConfig { max_batch: 8 });
    let tickets: Vec<_> = query_graphs
        .iter()
        .map(|g| coalescer.submit(&model, g.clone(), &clock))
        .collect();
    // nothing else is arriving: flush what queued instead of holding it
    // (the Server's encode worker does this whenever its channel is empty)
    coalescer.flush(&model);
    println!(
        "\ncoalesced {} queries into {} batched forward(s) (mean fill {:.1})",
        coalescer.stats().encoded,
        coalescer.stats().flushes,
        coalescer.stats().mean_batch_fill()
    );

    for (qi, t) in tickets.into_iter().enumerate() {
        let emb = coalescer.poll(t).expect("flushed");
        let top = index.query(emb.data(), 3);
        println!(
            "\ntop-3 for unknown binary of task {} (truth: {}):",
            query_tasks[qi],
            corpus[query_tasks[qi] * 2].0
        );
        for (rank, (id, score)) in top.iter().enumerate() {
            println!(
                "  {:>2}. {:<24} cosine {score:.3}",
                rank + 1,
                corpus[*id as usize].0
            );
        }
    }

    // ── the pool is live: insert a fresh solution, retire an old one ────
    let new_src = gbm_datasets::tasks::emit(
        2,
        SourceLang::MiniJava,
        &mut gbm_datasets::style::Style::new(123),
    );
    let new_mod = Pipeline::compile_source(SourceLang::MiniJava, &new_src).unwrap();
    let new_graph = encode_graph(&build_graph(&new_mod), &tok, NodeTextMode::FullText);
    let new_id = corpus.len() as u64;
    index.insert(&model, new_id, new_graph);
    index.flush(&model); // pending batch → one batched forward
    index.remove(0);
    println!(
        "\nafter insert+remove: {} candidates (shard sizes {:?})",
        index.num_encoded(),
        index.shard_sizes()
    );
    // ── int8 scans: same answers, a quarter of the scan footprint ───────
    let int8_index = ShardedIndex::build(
        &model,
        cand_graphs,
        IndexConfig {
            num_shards: 4,
            encode_batch: 8,
            precision: ScanPrecision::Int8 { widen: 2 },
            ..Default::default()
        },
    );
    let f32_index = ShardedIndex::build(
        &model,
        cand_graphs,
        IndexConfig {
            num_shards: 4,
            encode_batch: 8,
            ..Default::default()
        },
    );
    let probe = model.replica().encoder().embed(&query_graphs[0]);
    assert_eq!(
        int8_index.query(probe.data(), 5),
        f32_index.query(probe.data(), 5),
        "int8 coarse scan + exact f32 re-rank returns the identical ranking"
    );
    println!(
        "\nint8 scan precision: identical top-5, scan footprint {} B vs {} B f32 ({:.1}x)",
        int8_index.scan_bytes(),
        f32_index.scan_bytes(),
        f32_index.scan_bytes() as f64 / int8_index.scan_bytes() as f64
    );

    // ── the concurrent server is instrumented end to end ────────────────
    // Replay the three queries through a `Server` over the same pool and
    // end on the gbm-obs registry exposition — the per-query scan work,
    // merge latency, and query counters the serving stack reports for free.
    let rows: Vec<f32> = (0..corpus.len() as u64)
        .flat_map(|id| {
            f32_index
                .embedding(id)
                .expect("candidate is indexed")
                .data()
                .to_vec()
        })
        .collect();
    let server = Server::from_rows(
        &rows,
        f32_index.hidden(),
        ServerConfig {
            scan_workers: 2,
            index: IndexConfig {
                num_shards: 4,
                ..Default::default()
            },
            ..Default::default()
        },
        Arc::new(VirtualClock::new()),
    );
    for g in query_graphs {
        let emb = model.replica().encoder().embed(g);
        let _ = server.query(emb.data(), 3);
    }
    let snapshot = server.metrics();
    server.shutdown();
    println!("\n--- server metrics exposition (text format) ---");
    print!("{}", snapshot.to_text());

    println!("\n(untrained model — scores are illustrative; contrastively-trained");
    println!(" models make this cosine ranking the real retrieval path)");
}
