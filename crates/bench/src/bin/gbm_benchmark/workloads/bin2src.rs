//! `bin2src`: the paper's task as a live query — object-file bytes in,
//! the ten nearest source programs out — through every layer the repository
//! has. One closed-loop client; one encode worker and one scan worker
//! behind it, so two threads at most are runnable at once.

use gbm_datasets::{group_pairs_by_anchor, make_pairs};
use gbm_nn::{train, GraphBinMatch, TrainConfig, TrainObjective};
use gbm_serve::{Server, ServerConfig};
use gbm_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{self, BinaryQuery, Corpus, Digest, Stream, CORPUS_SEED};
use crate::oracle::{brute_force_top_k, Oracle, Ranking};
use crate::probes::{self, MetricsDelta};
use crate::report::{closed_loop, Ctx, Layers, Op, Outcome};
use crate::spans::{self, SpanBuf};

const K: usize = 10;
/// Training budget: positives kept (as many negatives pad their batches)
/// and passes over them. Fixed, so `setup_s` moves only when training gets
/// cheaper or dearer.
const TRAIN_POSITIVES: usize = 192;
const TRAIN_EPOCHS: usize = 6;
const BATCH: usize = 8;
/// Held-out binaries whose answers make up `quality`: every test-split
/// solution once. The list comes from `CORPUS_SEED`, like the model it
/// scores, so `quality` reads the same on every seed and moves only when
/// the program does (scored on 256 seeded stream positions it spread 5 %
/// over ten seeds, more than the bound a 0.02 drop has to be seen under).
const QUALITY_OPS: usize = 256;
/// Every this-many-th timed answer is kept and re-derived after the window.
const SAMPLE_EVERY: u64 = 16;
/// Share of ops that resubmit an earlier binary.
const REPEAT_SHARE: f64 = 0.10;

struct Setup {
    corpus: Corpus,
    model: GraphBinMatch,
    server: Server,
    cfg: ServerConfig,
    queries: Vec<BinaryQuery>,
    quality_queries: Vec<BinaryQuery>,
    train_epoch_ms: Vec<f64>,
    digest: Digest,
}

fn setup(ctx: &Ctx) -> Setup {
    let mut digest = Digest::default();
    let corpus = inputs::corpus(ctx.size(16, 4), ctx.size(40, 5), CORPUS_SEED, &mut digest);
    let split = corpus.ds.split(CORPUS_SEED + 1);

    // train on binary↔source pairs of the training split
    let model = inputs::standard_model(corpus.tok.vocab_size(), CORPUS_SEED + 3);
    let pairs = make_pairs(
        &corpus.ds,
        &split.train,
        &split.train,
        CORPUS_SEED + 4,
        ctx.size(TRAIN_POSITIVES, 16),
    );
    let pairs = group_pairs_by_anchor(&pairs, BATCH, CORPUS_SEED + 5);
    let mut train_rng = StdRng::seed_from_u64(CORPUS_SEED + 2);
    let train_set = inputs::binary_source_pairs(&corpus, &pairs, &mut train_rng, &mut digest);
    let mut train_epoch_ms = Vec::new();
    let mut last = std::time::Instant::now();
    train(
        &model,
        &train_set,
        &TrainConfig {
            lr: 5e-3,
            epochs: ctx.size(TRAIN_EPOCHS, 1),
            batch_size: BATCH,
            grad_clip: 5.0,
            seed: CORPUS_SEED + 6,
            // in-batch softmax, not the triplet loss: at this budget triplet
            // left MRR@10 at 0.21–0.41, astride the 2× chance floor (0.32)
            objective: TrainObjective::info_nce(),
        },
        |_, _| {
            train_epoch_ms.push(last.elapsed().as_secs_f64() * 1e3);
            last = std::time::Instant::now();
        },
    );

    // the pool: the source side of every solution, inserted through the server
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

    let quality_queries = inputs::binary_queries(
        &corpus.ds,
        &split.test,
        ctx.size(QUALITY_OPS, 24).min(split.test.len()),
        &mut StdRng::seed_from_u64(CORPUS_SEED + 7),
        &mut digest,
    );
    // queries: held-out solutions as binaries, chosen and compiled by the seed
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let queries = inputs::binary_queries(
        &corpus.ds,
        &split.test,
        ctx.size(4096, 64),
        &mut rng,
        &mut digest,
    );
    Setup {
        corpus,
        model,
        server,
        cfg,
        queries,
        quality_queries,
        train_epoch_ms,
        digest,
    }
}

/// Expected reciprocal rank, cut at `k`, of the first of `relevant` items
/// among `n` in a uniformly random order.
fn chance_mrr(n: usize, relevant: usize, k: usize) -> f64 {
    let (n, r) = (n as f64, relevant as f64);
    let mut none_before = 1.0; // P(no relevant item in the first rank-1 places)
    let mut mrr = 0.0;
    for rank in 1..=k.min(n as usize) {
        let left = n - (rank - 1) as f64;
        let hit = (r / left).min(1.0);
        mrr += none_before * hit / rank as f64;
        none_before *= 1.0 - hit;
    }
    mrr
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (mut s, setup_s) = super::repeat_setup(1, || setup(ctx));
    let mut oracle = Oracle::default();
    let mut layers = Layers::default();
    let task_of: Vec<usize> = s.corpus.ds.solutions.iter().map(|sol| sol.task).collect();
    let (rows, hidden) = probes::pool_rows(&s.server);
    oracle.check(
        "bin2src.pool_size",
        s.server.num_encoded() == task_of.len(),
        || {
            format!(
                "{} rows for {} solutions",
                s.server.num_encoded(),
                task_of.len()
            )
        },
    );

    let stream_seed = ctx.seed.wrapping_add(7);
    let mut preview = Stream::new(s.queries.len(), REPEAT_SHARE, stream_seed);
    (0..64).for_each(|_| s.digest.word(preview.next().0 as u64));
    let mut stream = Stream::new(s.queries.len(), REPEAT_SHARE, stream_seed);
    let (mut timed_ops, mut repeated_ops) = (0u64, 0u64);

    // bytes → decode → decompile → graph → tokens → coalesced encode → scan;
    // hands back the embedding the server computed and its answer
    let answer = |tr: &mut SpanBuf, op: Op, query: &BinaryQuery| -> Option<(Tensor, Ranking)> {
        let graph = inputs::lower_binary(&query.bytes, &s.corpus.tok, tr, op.id, op.root)?;
        let embedding = tr.time("serve.encode_rtt", op.id, op.root, || {
            s.server.submit(graph).wait()
        });
        let answer = tr.time("serve.query", op.id, op.root, || {
            s.server.query(embedding.data(), K)
        });
        (answer.len() == K).then_some((embedding, answer))
    };
    let untimed = Op {
        id: 0,
        root: None,
        timed: false,
    };
    let rederive = |samples: Vec<(Tensor, Ranking)>| -> Vec<(Ranking, Ranking)> {
        samples
            .into_iter()
            .map(|(emb, got)| (got, brute_force_top_k(&rows, hidden, emb.data(), K)))
            .collect()
    };

    // before timing: the quality list, through the op's own path; its
    // first answers must be the brute-force answers
    let mut tr = SpanBuf::new(std::time::Instant::now(), 0, false);
    let mut first = Vec::new();
    let mut reciprocal_ranks = Vec::with_capacity(s.quality_queries.len());
    for query in &s.quality_queries {
        let Some((embedding, ranking)) = answer(&mut tr, untimed, query) else {
            reciprocal_ranks.push(0.0);
            continue;
        };
        let hit = ranking
            .iter()
            .position(|&(id, _)| task_of[id as usize] == query.task);
        reciprocal_ranks.push(hit.map_or(0.0, |p| 1.0 / (p + 1) as f64));
        if first.len() < 8 {
            first.push((embedding, ranking));
        }
    }
    oracle.identical_share("bin2src.before_timing", &rederive(first));
    let mrr = reciprocal_ranks.iter().sum::<f64>() / reciprocal_ranks.len().max(1) as f64;
    let per_task = task_of.len() / s.corpus.ds.num_tasks;
    let chance = chance_mrr(task_of.len(), per_task, K);
    oracle.check(
        "bin2src.mrr_over_chance",
        ctx.smoke || mrr > 2.0 * chance,
        || format!("MRR@{K} {mrr:.4} does not exceed twice chance ({chance:.4})"),
    );

    let before = s.server.metrics();
    let forwards_before = s.model.encoder().forward_count();
    let mut samples: Vec<(Tensor, Ranking)> = Vec::new();
    let (rec, window_s) = closed_loop(ctx, &mut tr, |tr, o| {
        let (qi, seen) = stream.next();
        if o.timed {
            timed_ops += 1;
            repeated_ops += seen as u64;
        }
        let query = &s.queries[qi];
        let sample = answer(tr, o, query)?;
        if o.timed && o.id % SAMPLE_EVERY == 0 {
            samples.push(sample);
        }
        Some(query.class)
    });
    let forwards = s.model.encoder().forward_count() - forwards_before;
    let delta = MetricsDelta {
        before,
        after: s.server.metrics(),
    };
    let served = delta.counter("serve.queries");
    oracle.identical_share("bin2src.window_answers", &rederive(samples));
    let forward_count_per_op = forwards as f64 / served.max(1.0);
    oracle.check(
        "bin2src.one_forward_per_op",
        (forward_count_per_op - 1.0).abs() < 1e-9,
        || format!("{forwards} forwards for {served} ops"),
    );

    let spans = tr.into_spans();
    if ctx.trace {
        probes::lowering_layers(&spans, &mut layers);
        probes::compiler_side(&s.corpus.ds, &mut layers);
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
        layers.set("nn.train_epoch_ms", crate::stats::mean(&s.train_epoch_ms));
        layers.set("nn.forward_count_per_op", forward_count_per_op);
        probes::encoder(&s.model, &s.corpus.pool, ctx.smoke, &mut layers);
        probes::fwdbwd_pair(&s.model, &s.corpus.pool, ctx.smoke, &mut layers);
        probes::kernels(nodes as usize, hidden, &mut layers);
        let queries = probes::rows_as_queries(&rows, hidden, 37);
        probes::scan_tiers(
            &s.server,
            &rows,
            hidden,
            s.cfg.index,
            &queries,
            ctx.smoke,
            &mut layers,
        );
        layers.set(
            "loadgen.repeated_input_share",
            repeated_ops as f64 / timed_ops.max(1) as f64,
        );
        layers.set(
            "loadgen.trace_overhead_pct",
            rec.trace_overhead_pct(ctx.window()),
        );
        super::write_trace("bin2src", &spans);
    }
    oracle.shutdown(&s.server.shutdown(), false);

    layers.set("loadgen.samples", rec.completed() as f64);
    Outcome {
        attempted: rec.completed() as u64 + rec.failed,
        failed: rec.failed,
        work: rec.work_per_op(),
        samples: rec.samples,
        window_s,
        quality: mrr,
        setup_s,
        layers,
        digest: s.digest.finish(),
        oracle,
    }
}

#[cfg(test)]
mod tests {
    use super::chance_mrr;

    #[test]
    fn chance_mrr_matches_hand_computation() {
        // one relevant of two, cut at two: 1/2 · 1 + 1/2 · 1/2
        assert!((chance_mrr(2, 1, 2) - 0.75).abs() < 1e-12);
        // everything relevant: always rank one
        assert!((chance_mrr(5, 5, 10) - 1.0).abs() < 1e-12);
        // 1 of 3, cut at 1: only a first-place hit counts
        assert!((chance_mrr(3, 1, 1) - 1.0 / 3.0).abs() < 1e-12);
    }
}
