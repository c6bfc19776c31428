//! The concurrent serving front-end: pipelined encode/scan workers over the
//! sharded index.
//!
//! [`Server`] turns the passive building blocks of this crate — the
//! [`EncodeCoalescer`]'s two-phase flush seam and the [`ShardedIndex`]'s
//! shard-range scan entry point — into a running multi-threaded pipeline:
//!
//! ```text
//!  submit/insert/remove ──► encode worker ──────────► Arc<RwLock<index>>
//!  (any thread, channel)    owns coalescer+replica         ▲ write (brief)
//!                           embed_batch OFF-lock           │
//!                                                          │ read
//!  query (any thread) ──► scan workers (shard-pinned) ◄────┘
//!                     ◄── partial top-K per worker, caller k-way merges
//! ```
//!
//! * **One encode worker** owns the model replica and the coalescer. Every
//!   write (encode request, row publish, remove) flows through its channel,
//!   so index mutation is single-writer by construction. The worker drives
//!   the coalescer's caller-side flush policy, which is work-conserving:
//!   it blocks on its channel (an idle server makes no wakeups), handles
//!   the request that woke it, drains the burst queued behind it — full
//!   flush at `max_batch` — and when the channel runs empty flushes
//!   whatever is pending *now* (idle flush). A lone request is encoded at
//!   once; under load batches form from what arrived while the previous
//!   forward was in flight. The expensive batched forward runs *without
//!   holding any lock*: only the final O(hidden) row publish takes the
//!   index write lock. Scans overlap encodes; that is the pipelining.
//! * **N scan workers**, each pinned to a contiguous shard range. A query
//!   fans out one [`ShardedIndex::query_shards`] job per worker, collects
//!   the sorted partials, and k-way merges them with
//!   [`gbm_tensor::merge_ranked`]. Because the ranked merge is associative
//!   over shard groupings, the fanned-out answer is **exactly** — ids,
//!   scores, tie order — the single-threaded [`ShardedIndex::query`] answer
//!   for every worker count (equivalence-tested across shard counts and
//!   scan precisions).
//! * **Oneshot replies**: submissions return handles backed by rendezvous
//!   channels, not polled tickets. [`EncodeHandle::wait`] blocks until the
//!   flush that carries its row completes; inserts and removes ack the same
//!   way. A remove that lands while its id's insert is still coalescing
//!   cancels the pending ticket and still resolves the insert's handle —
//!   nothing ever hangs and no ticket leaks ([`ServerReport`] proves it at
//!   shutdown).
//! * **Durability** ([`Server::durable`]): the encode worker tees every
//!   acked mutation through a `gbm-store` write-ahead log *before* applying
//!   it to the index. A failed append retries with backoff up to
//!   [`WAL_RETRIES`] times (the WAL repairs its own torn tail between
//!   attempts); a terminal failure surfaces as a typed
//!   [`ServeError::Durability`] on the caller's handle and the index is
//!   left untouched — an acked op is always recoverable, an unrecoverable
//!   op is never acked. Shutdown force-syncs and reports the final
//!   [`WalState`], so a dirty exit (unsynced records) is visible in the
//!   [`ServerReport`], never silently claimed clean.
//! * **Fault isolation**: a panicking scan worker is caught
//!   (`catch_unwind`), marked failed, and retired — its shard range fails
//!   over to an inline scan on the querying thread. Because the ranked
//!   merge is associative, degraded answers stay *exact*; the degradation
//!   is observable ([`ServerReport::degraded_scan_workers`]) but never
//!   changes a ranking. Index writes are unaffected (the encode worker is
//!   a different thread).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use gbm_nn::{EncodedGraph, GraphBinMatch, ModelSpec};
use gbm_obs::{MetricsSnapshot, ObsConfig, TraceSpan};
use gbm_store::{StoreError, Wal, WalOp, WalState};
use gbm_tensor::Tensor;

use crate::coalesce::{CoalescerConfig, CoalescerStats, EncodeCoalescer, FlushTrigger, Ticket};
use crate::index::{GraphId, IndexConfig, ScanStats, ShardedIndex};
use crate::metrics::{ServeMetrics, ServerObs};
use crate::persist::RecoveryStats;
use gbm_obs::clock::Clock;

/// Worker topology and flush policy for a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Scan worker threads (clamped at construction to
    /// `1..=index.num_shards` — a worker with no shards would answer
    /// nothing).
    pub scan_workers: usize,
    /// Encode coalescing policy (the encode worker drives it).
    pub coalescer: CoalescerConfig,
    /// Sharding and scan precision of the index being served.
    pub index: IndexConfig,
    /// Observability policy: metrics on/off and the trace sampling rate
    /// ([`Server::metrics`] / [`Server::take_traces`]).
    pub obs: ObsConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            scan_workers: 2,
            coalescer: CoalescerConfig::default(),
            index: IndexConfig::default(),
            obs: ObsConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Applies the serving environment knobs on top of this config:
    /// `GBM_SERVE_WORKERS` (scan worker threads), `GBM_METRICS` (0
    /// disables the metrics registry — the instrumented-out baseline),
    /// `GBM_TRACE_SAMPLE` (trace every N-th query; 0 = off) and, via
    /// [`IndexConfig::with_env`], `GBM_IVF_CELLS` / `GBM_SCAN_NPROBE`.
    /// Invalid values warn on stderr and leave the built-in defaults in
    /// force.
    pub fn with_env(mut self) -> ServerConfig {
        if let Some(w) =
            crate::env::env_knob::<usize>("GBM_SERVE_WORKERS", "a scan worker thread count")
        {
            self.scan_workers = w;
        }
        if let Some(on) = crate::env::env_knob::<u64>("GBM_METRICS", "0 (off) or nonzero (on)") {
            self.obs.metrics = on != 0;
        }
        if let Some(n) =
            crate::env::env_knob::<u64>("GBM_TRACE_SAMPLE", "a trace sampling interval (0 = off)")
        {
            self.obs.trace_sample = n;
        }
        self.index = self.index.with_env();
        self
    }
}

/// End-of-life accounting from [`Server::shutdown`]. A clean run reports
/// every gauge zero: the final forced flush drained the queue, every row
/// reached its reply handle or publish, and no ticket was left behind —
/// the stress tests assert exactly that.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Coalescer behaviour over the server's lifetime (flush counts by
    /// trigger, batch fill).
    pub coalescer: CoalescerStats,
    /// Requests still queued un-encoded at exit (leak if nonzero).
    pub pending: usize,
    /// Tickets caught between `begin_flush` and `complete_flush` at exit
    /// (leak if nonzero).
    pub in_flight: usize,
    /// Encoded rows never delivered to a handle (leak if nonzero).
    pub ready: usize,
    /// Reply destinations never resolved (a lost reply if nonzero).
    pub unresolved: usize,
    /// Final WAL writer state on a durable server (`None` when the server
    /// ran without a WAL): `unsynced == 0` is a clean shutdown, anything
    /// else means the tail may not have reached disk.
    pub wal: Option<WalState>,
    /// Scan workers that panicked and were retired; their shard ranges
    /// failed over to inline scans (answers stayed exact throughout).
    pub degraded_scan_workers: usize,
}

impl ServerReport {
    /// True when nothing leaked: no queued work, no in-flight tickets, no
    /// undelivered rows, no unresolved reply handles.
    pub fn is_drained(&self) -> bool {
        self.pending == 0 && self.in_flight == 0 && self.ready == 0 && self.unresolved == 0
    }

    /// True when a WAL was attached and every record it accepted was
    /// fsynced by shutdown — the persisted log provably carries every
    /// acked op. Always false on a non-durable server.
    pub fn is_durable(&self) -> bool {
        self.wal.as_ref().is_some_and(|w| w.unsynced == 0)
    }
}

/// A serving-side failure surfaced on a caller's handle.
#[derive(Debug)]
pub enum ServeError {
    /// The WAL rejected an op even after [`WAL_RETRIES`] attempts; the op
    /// was **not** applied to the index (write-ahead means un-logged is
    /// un-applied).
    Durability {
        /// Append attempts made before giving up.
        attempts: u32,
        /// The storage error from the final attempt.
        source: StoreError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Durability { attempts, source } => write!(
                f,
                "WAL append failed after {attempts} attempts, op not applied: {source}"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Durability { source, .. } => Some(source),
        }
    }
}

/// Everything a worker thread needs to rebuild the (non-`Send`) model:
/// the persistable [`ModelSpec`] (config + flat weights — the same image
/// snapshots carry) and the shared forward counter. The replica is
/// constructed *inside* the thread.
struct WorkerModel {
    spec: ModelSpec,
    counter: Arc<AtomicUsize>,
}

/// Where a flushed embedding row goes.
enum EncodeDest {
    /// Hand the row to the submitting caller.
    Reply(SyncSender<Tensor>),
    /// Publish the row into the index under `id`, then ack (or report the
    /// WAL failure that blocked the publish).
    Publish {
        id: GraphId,
        done: SyncSender<Result<(), ServeError>>,
    },
}

enum Request {
    Encode {
        graph: Box<EncodedGraph>,
        /// Clock tick at submit: coalescer wait is measured from here, so
        /// it covers the time queued behind an in-flight forward.
        at: u64,
        dest: EncodeDest,
    },
    InsertRow {
        id: GraphId,
        row: Vec<f32>,
        done: SyncSender<Result<(), ServeError>>,
    },
    Remove {
        id: GraphId,
        done: SyncSender<Result<bool, ServeError>>,
    },
    Shutdown {
        report: SyncSender<ServerReport>,
    },
}

/// One worker's sorted shard-range partial top-K, plus the scan-work
/// accounting behind it.
type Partial = (Vec<(GraphId, f32)>, ScanStats);

enum ScanJob {
    Query {
        query: Arc<[f32]>,
        k: usize,
        reply: SyncSender<Partial>,
    },
    /// Test-only: make the worker panic inside its job handler, exercising
    /// the retire-and-fail-over path deterministically.
    #[cfg(any(test, feature = "test-fixtures"))]
    Poison,
}

/// Blocks until the submitted graph's coalescer batch flushes, then yields
/// its embedding row.
pub struct EncodeHandle {
    rx: Receiver<Tensor>,
}

impl EncodeHandle {
    /// The `[1, hidden]` embedding of the submitted graph. Blocks until
    /// its batch flushes (full, idle, or shutdown).
    pub fn wait(self) -> Tensor {
        self.rx.recv().expect("server encode worker exited early")
    }

    /// The embedding if its batch has already flushed; `None` while it is
    /// still coalescing.
    pub fn try_wait(&self) -> Option<Tensor> {
        self.rx.try_recv().ok()
    }
}

/// Resolves when the inserted graph's row is published into the index —
/// or when a concurrent remove cancels the still-coalescing insert (the
/// handle never hangs either way).
pub struct InsertHandle {
    rx: Receiver<Result<(), ServeError>>,
}

impl InsertHandle {
    /// Blocks until the insert is published (or cancelled by a remove),
    /// returning the durability outcome. Only a durable server ever
    /// returns `Err` — and only after the WAL rejected the op through
    /// every retry, in which case the index was left untouched.
    pub fn result(self) -> Result<(), ServeError> {
        self.rx.recv().expect("server encode worker exited early")
    }

    /// Blocks until the insert is published (or cancelled by a remove).
    /// Panics on a durability failure; use [`result`](Self::result) on
    /// durable servers to handle it typed.
    pub fn wait(self) {
        self.result().expect("durable insert failed");
    }
}

/// Resolves with whether the removed id existed (encoded or pending).
pub struct RemoveHandle {
    rx: Receiver<Result<bool, ServeError>>,
}

impl RemoveHandle {
    /// Blocks until the remove is applied, returning whether the id
    /// existed — or the durability failure that blocked the remove (the
    /// index keeps the row in that case; un-logged is un-applied).
    pub fn result(self) -> Result<bool, ServeError> {
        self.rx.recv().expect("server encode worker exited early")
    }

    /// Blocks until the remove is applied; true when the id existed.
    /// Panics on a durability failure; use [`result`](Self::result) on
    /// durable servers to handle it typed.
    pub fn wait(self) -> bool {
        self.result().expect("durable remove failed")
    }
}

/// The running pipeline: one encode worker, N shard-pinned scan workers,
/// the shared index between them. `Sync` — share it behind an [`Arc`] and
/// hit it from as many threads as the load offers.
pub struct Server {
    index: Arc<RwLock<ShardedIndex>>,
    encode_tx: Option<Sender<Request>>,
    encode_worker: Option<JoinHandle<()>>,
    scan_txs: Vec<Sender<ScanJob>>,
    scan_workers: Vec<JoinHandle<()>>,
    worker_ranges: Vec<Range<usize>>,
    worker_failed: Arc<Vec<AtomicBool>>,
    obs: Arc<ServerObs>,
    has_model: bool,
}

impl Server {
    /// Starts a server encoding with (a replica of) `model` over an
    /// initially-empty index. The clock stamps coalescer queueing waits
    /// and trace stages (it never decides *when* to flush) —
    /// [`WallClock`](crate::WallClock) in production, a shared
    /// [`VirtualClock`](crate::VirtualClock) in tests and load probes.
    pub fn new(model: &GraphBinMatch, cfg: ServerConfig, clock: Arc<dyn Clock>) -> Server {
        let worker_model = WorkerModel {
            spec: ModelSpec::capture(model),
            counter: model.encoder().counter(),
        };
        Server::start(
            Some(worker_model),
            ShardedIndex::new(cfg.index),
            cfg,
            clock,
            None,
        )
    }

    /// Starts a **durable** server over recovered state: `index` and `wal`
    /// come from [`recover`](crate::persist::recover) (or a fresh
    /// [`Wal::create`] on first boot). Every acked insert/remove is
    /// appended to the WAL before it touches the index, so a crash at any
    /// point recovers rank-identically to the acked history. Pass a model
    /// to serve encodes too, or `None` for a row-publish/query server.
    pub fn durable(
        model: Option<&GraphBinMatch>,
        index: ShardedIndex,
        cfg: ServerConfig,
        clock: Arc<dyn Clock>,
        wal: Wal,
    ) -> Server {
        let worker_model = model.map(|m| WorkerModel {
            spec: ModelSpec::capture(m),
            counter: m.encoder().counter(),
        });
        Server::start(worker_model, index, cfg, clock, Some(wal))
    }

    /// Starts a server over precomputed unit-norm rows (row `i` gets id
    /// `i`) with no model attached: [`query`](Self::query),
    /// [`insert_row`](Self::insert_row) and [`remove`](Self::remove) serve
    /// normally, while [`submit`](Self::submit)/[`insert`](Self::insert)
    /// panic — there is nothing to encode with.
    pub fn from_rows(
        rows: &[f32],
        hidden: usize,
        cfg: ServerConfig,
        clock: Arc<dyn Clock>,
    ) -> Server {
        Server::start(
            None,
            ShardedIndex::from_rows(rows, hidden, cfg.index),
            cfg,
            clock,
            None,
        )
    }

    fn start(
        model: Option<WorkerModel>,
        index: ShardedIndex,
        cfg: ServerConfig,
        clock: Arc<dyn Clock>,
        wal: Option<Wal>,
    ) -> Server {
        let has_model = model.is_some();
        let index = Arc::new(RwLock::new(index));
        let num_shards = index.read().unwrap().num_shards();
        let workers = cfg.scan_workers.clamp(1, num_shards);
        let obs = Arc::new(ServerObs::new(cfg.obs, clock));
        let worker_failed: Arc<Vec<AtomicBool>> =
            Arc::new((0..workers).map(|_| AtomicBool::new(false)).collect());
        let mut scan_txs = Vec::with_capacity(workers);
        let mut scan_workers = Vec::with_capacity(workers);
        let mut worker_ranges = Vec::with_capacity(workers);
        for w in 0..workers {
            // contiguous near-even ranges covering 0..num_shards exactly
            let range = (w * num_shards / workers)..((w + 1) * num_shards / workers);
            let (tx, rx) = mpsc::channel::<ScanJob>();
            let idx = Arc::clone(&index);
            let failed = Arc::clone(&worker_failed);
            let shards = range.clone();
            let wobs = Arc::clone(&obs);
            worker_ranges.push(range);
            scan_txs.push(tx);
            scan_workers.push(std::thread::spawn(move || {
                scan_worker_loop(rx, idx, shards, failed, w, wobs)
            }));
        }
        let (encode_tx, encode_rx) = mpsc::channel::<Request>();
        let idx = Arc::clone(&index);
        let coalescer = cfg.coalescer;
        let eobs = Arc::clone(&obs);
        let encode_worker = std::thread::spawn(move || {
            encode_worker_loop(encode_rx, model, idx, coalescer, wal, eobs)
        });
        Server {
            index,
            encode_tx: Some(encode_tx),
            encode_worker: Some(encode_worker),
            scan_txs,
            scan_workers,
            worker_ranges,
            worker_failed,
            obs,
            has_model,
        }
    }

    fn send(&self, req: Request) {
        self.encode_tx
            .as_ref()
            .expect("server already shut down")
            .send(req)
            .expect("encode worker alive while the server holds its sender");
    }

    /// Submits a graph for coalesced encoding; the handle resolves with
    /// its embedding row when the batch flushes. Panics on a model-less
    /// ([`from_rows`](Self::from_rows)) server.
    pub fn submit(&self, graph: EncodedGraph) -> EncodeHandle {
        assert!(
            self.has_model,
            "submit requires a server built with a model"
        );
        let (tx, rx) = mpsc::sync_channel(1);
        self.send(Request::Encode {
            graph: Box::new(graph),
            at: self.obs.clock.now(),
            dest: EncodeDest::Reply(tx),
        });
        EncodeHandle { rx }
    }

    /// Encodes `graph` through the coalescer and publishes its row into
    /// the index under `id` (replacing any existing row — id routing is
    /// the index's stable hash). Panics on a model-less server.
    pub fn insert(&self, id: GraphId, graph: EncodedGraph) -> InsertHandle {
        assert!(
            self.has_model,
            "insert requires a server built with a model"
        );
        let (tx, rx) = mpsc::sync_channel(1);
        self.send(Request::Encode {
            graph: Box::new(graph),
            at: self.obs.clock.now(),
            dest: EncodeDest::Publish { id, done: tx },
        });
        InsertHandle { rx }
    }

    /// Publishes a precomputed embedding row under `id` — no encode, but
    /// still routed through the encode worker so index writes stay
    /// single-writer and ordered with coalescing inserts for the same id.
    pub fn insert_row(&self, id: GraphId, row: Vec<f32>) -> InsertHandle {
        let (tx, rx) = mpsc::sync_channel(1);
        self.send(Request::InsertRow { id, row, done: tx });
        InsertHandle { rx }
    }

    /// Removes `id`: cancels a still-coalescing insert for it (resolving
    /// that insert's handle) and deletes its encoded row. The handle
    /// resolves with whether the id existed.
    pub fn remove(&self, id: GraphId) -> RemoveHandle {
        let (tx, rx) = mpsc::sync_channel(1);
        self.send(Request::Remove { id, done: tx });
        RemoveHandle { rx }
    }

    /// Exact top-K cosine neighbours of `query`, served by the scan-worker
    /// fan-out: one shard-range partial per worker, k-way merged here.
    /// Identical — ids, scores, tie order — to
    /// [`ShardedIndex::query`] on the same index state. A retired
    /// (panicked) worker's shard range fails over to an inline scan on
    /// this thread; merge associativity keeps the degraded answer exact.
    pub fn query(&self, query: &[f32], k: usize) -> Vec<(GraphId, f32)> {
        let wall = std::time::Instant::now();
        let sampled = self.obs.tracer.sample();
        let t_fan = self.obs.clock.now();
        let q: Arc<[f32]> = query.into();
        let mut replies: Vec<Option<Receiver<Partial>>> = Vec::with_capacity(self.scan_txs.len());
        for (w, tx) in self.scan_txs.iter().enumerate() {
            if self.worker_failed[w].load(Ordering::SeqCst) {
                replies.push(None); // known dead: scan its range inline
                continue;
            }
            let (rtx, rrx) = mpsc::sync_channel(1);
            let sent = tx.send(ScanJob::Query {
                query: Arc::clone(&q),
                k,
                reply: rtx,
            });
            match sent {
                Ok(()) => replies.push(Some(rrx)),
                Err(_) => {
                    // the worker hung up mid-retirement; remember and fail over
                    self.worker_failed[w].store(true, Ordering::SeqCst);
                    replies.push(None);
                }
            }
        }
        let mut inline_scans = 0u64;
        let partials: Vec<Partial> = replies
            .into_iter()
            .enumerate()
            .map(|(w, rx)| match rx.map(|rx| rx.recv()) {
                Some(Ok(partial)) => partial,
                answered => {
                    if answered.is_some() {
                        // died between accepting the job and replying
                        self.worker_failed[w].store(true, Ordering::SeqCst);
                    }
                    inline_scans += 1;
                    self.index.read().unwrap().query_shards_stats(
                        self.worker_ranges[w].clone(),
                        &q,
                        k,
                    )
                }
            })
            .collect();
        let t_merge = self.obs.clock.now();
        let merge_wall = std::time::Instant::now();
        let (lists, stats): (Vec<_>, Vec<_>) = partials.into_iter().unzip();
        let merged = gbm_tensor::merge_ranked(&lists, k);
        if let Some(m) = &self.obs.metrics {
            let mut total = ScanStats::default();
            for s in &stats {
                total.merge(s);
            }
            m.queries.inc();
            m.record_scan(&total);
            m.failover_inline_scans.add(inline_scans);
            m.merge_us.record(merge_wall.elapsed().as_micros() as u64);
            m.query_us.record(wall.elapsed().as_micros() as u64);
        }
        if let Some(seq) = sampled {
            // stage timestamps come from the injected clock, so a probe
            // driving a VirtualClock gets bit-reproducible spans
            let t_end = self.obs.clock.now();
            let mut span = TraceSpan::new("query", seq, t_fan);
            for (w, s) in stats.iter().enumerate() {
                span.stage(&format!("scan.worker{w}"), t_fan, t_merge)
                    .field("shards", s.shards)
                    .field("rows_scanned", s.rows_scanned)
                    .field("cells_probed", s.cells_probed)
                    .field("survivors", s.survivors)
                    .field("scan_bytes", s.scan_bytes);
            }
            span.stage("merge", t_merge, t_end)
                .field("partials", stats.len() as u64)
                .field("k", k as u64)
                .field("inline_failovers", inline_scans);
            span.finish(t_end);
            self.obs.tracer.record(span);
        }
        merged
    }

    /// A point-in-time snapshot of every serving + durability metric:
    /// encode flushes and forward latency, scan work (rows, IVF cells,
    /// survivors, bytes), merge and whole-query latency, WAL append/fsync
    /// timings and retries, recovery replay stats, and worker failover
    /// counters. Empty sections when the server was built with
    /// [`ObsConfig::metrics`] = false.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.registry.snapshot()
    }

    /// Drains every trace span sampled so far (oldest first). Empty unless
    /// the server was built with a nonzero [`ObsConfig::trace_sample`].
    pub fn take_traces(&self) -> Vec<TraceSpan> {
        self.obs.tracer.take()
    }

    /// Seeds the `recover.*` metrics from the recovery this server was
    /// booted from (capture [`Recovery::stats`] before moving its
    /// `index`/`wal` into [`durable`](Self::durable)), so one exposition
    /// snapshot tells the whole story: what replay cost at startup plus
    /// everything served since.
    pub fn record_recovery(&self, stats: RecoveryStats) {
        if let Some(m) = &self.obs.metrics {
            m.recover_replayed_ops.add(stats.replayed_ops as u64);
            m.recover_torn_bytes.add(stats.torn_bytes as u64);
            m.recover_replay_us.add(stats.replay_us);
        }
    }

    /// Test-only: injects a panic into scan worker `w`'s job handler,
    /// driving the retire-and-fail-over path deterministically.
    #[cfg(any(test, feature = "test-fixtures"))]
    pub fn poison_scan_worker(&self, w: usize) {
        let _ = self.scan_txs[w].send(ScanJob::Poison);
    }

    /// Encoded (searchable) rows right now.
    pub fn num_encoded(&self) -> usize {
        self.index.read().unwrap().num_encoded()
    }

    /// Every encoded id, ascending.
    pub fn ids(&self) -> Vec<GraphId> {
        self.index.read().unwrap().ids()
    }

    /// The published embedding row of `id`, if present.
    pub fn embedding(&self, id: GraphId) -> Option<Tensor> {
        self.index.read().unwrap().embedding(id)
    }

    /// Scan worker threads actually running (after clamping to the shard
    /// count).
    pub fn scan_worker_count(&self) -> usize {
        self.scan_txs.len()
    }

    /// Gracefully stops the pipeline: the encode worker force-flushes
    /// whatever is still coalescing (resolving every outstanding handle),
    /// reports its end-of-life accounting, and every thread joins.
    pub fn shutdown(mut self) -> ServerReport {
        let (tx, rx) = mpsc::sync_channel(1);
        self.send(Request::Shutdown { report: tx });
        let mut report = rx.recv().expect("encode worker reports before exiting");
        report.degraded_scan_workers = self
            .worker_failed
            .iter()
            .filter(|f| f.load(Ordering::SeqCst))
            .count();
        self.join_workers();
        report
    }

    fn join_workers(&mut self) {
        // dropping the senders is the stop signal; join for a clean exit
        drop(self.encode_tx.take());
        if let Some(h) = self.encode_worker.take() {
            let _ = h.join();
        }
        self.scan_txs.clear();
        for h in self.scan_workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    /// Dropping without [`shutdown`](Self::shutdown) still drains: the
    /// worker force-flushes on disconnect, then everything joins.
    fn drop(&mut self) {
        self.join_workers();
    }
}

fn scan_worker_loop(
    rx: Receiver<ScanJob>,
    index: Arc<RwLock<ShardedIndex>>,
    shards: Range<usize>,
    failed: Arc<Vec<AtomicBool>>,
    me: usize,
    obs: Arc<ServerObs>,
) {
    while let Ok(job) = rx.recv() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match job {
            ScanJob::Query { query, k, reply } => {
                let partial = index
                    .read()
                    .unwrap()
                    .query_shards_stats(shards.clone(), &query, k);
                // a caller that gave up on the query just drops its receiver
                let _ = reply.send(partial);
            }
            // resume_unwind (vs panic!) skips the panic hook's backtrace
            // noise — the unwind itself is the injected fault
            #[cfg(any(test, feature = "test-fixtures"))]
            ScanJob::Poison => std::panic::resume_unwind(Box::new("injected scan-worker fault")),
        }));
        if outcome.is_err() {
            // retire this worker: queries fail over to inline scans of its
            // shard range (only a *read* lock was held — no lock poisoning,
            // the index stays healthy for everyone else)
            failed[me].store(true, Ordering::SeqCst);
            if let Some(m) = &obs.metrics {
                m.worker_panics.inc();
                m.workers_degraded.add(1);
            }
            return;
        }
    }
}

/// Append attempts per op before a WAL failure becomes terminal; the tail
/// self-repairs (truncate to the durable frontier) between attempts.
pub const WAL_RETRIES: u32 = 3;

/// Backoff before the first retry; quadruples per subsequent attempt.
const WAL_RETRY_BACKOFF: Duration = Duration::from_micros(100);

/// Appends `op` with bounded retry-with-backoff. `Ok` means the op is in
/// the log (write-ahead: the caller may now apply it); `Err` means it
/// never made it and must not be applied. Successful appends record their
/// cumulative append/fsync time deltas into the WAL histograms; every
/// failed attempt counts one `wal.append_retries`.
fn durable_append(
    wal: &mut Option<Wal>,
    op: &WalOp,
    metrics: Option<&ServeMetrics>,
) -> Result<(), ServeError> {
    let Some(w) = wal.as_mut() else {
        return Ok(()); // non-durable server: every op "logs" trivially
    };
    let before = w.state();
    let mut backoff = WAL_RETRY_BACKOFF;
    let mut last: Option<StoreError> = None;
    for attempt in 0..WAL_RETRIES {
        match w.append(op) {
            Ok(_) => {
                if let Some(m) = metrics {
                    let after = w.state();
                    m.wal_appends.inc();
                    m.wal_append_us
                        .record(after.append_us.saturating_sub(before.append_us));
                    m.wal_sync_us
                        .record(after.sync_us.saturating_sub(before.sync_us));
                }
                return Ok(());
            }
            Err(e) => {
                last = Some(e);
                if let Some(m) = metrics {
                    m.wal_append_retries.inc();
                }
                if attempt + 1 < WAL_RETRIES {
                    std::thread::sleep(backoff);
                    backoff *= 4;
                }
            }
        }
    }
    Err(ServeError::Durability {
        attempts: WAL_RETRIES,
        source: last.expect("loop ran at least once"),
    })
}

fn encode_worker_loop(
    rx: Receiver<Request>,
    model: Option<WorkerModel>,
    index: Arc<RwLock<ShardedIndex>>,
    cfg: CoalescerConfig,
    mut wal: Option<Wal>,
    obs: Arc<ServerObs>,
) {
    // the replica is built here, inside the worker thread: the model's
    // parameter store is not Send, so it crosses the boundary as a
    // (config, weight snapshot) ModelSpec plus the shared counter and is
    // reconstituted on arrival
    let replica = model.map(|m| {
        m.spec
            .build(Arc::clone(&m.counter))
            .expect("a spec captured from a live model rebuilds")
    });
    let mut co = EncodeCoalescer::new(cfg);
    let max_batch = co.config().max_batch;
    let mut dests: HashMap<Ticket, EncodeDest> = HashMap::new();
    // the live publish ticket per id, so a remove (or a replacing insert)
    // can cancel a still-coalescing insert for the same id
    let mut publish_ticket: HashMap<GraphId, Ticket> = HashMap::new();

    // One coalescer flush: drain the queue, run the batched forward with NO
    // lock held (scans keep serving), then publish/reply row by row — only
    // the O(hidden) insert_row takes the write lock.
    #[allow(clippy::too_many_arguments)]
    fn flush(
        co: &mut EncodeCoalescer,
        trigger: FlushTrigger,
        replica: &Option<GraphBinMatch>,
        dests: &mut HashMap<Ticket, EncodeDest>,
        publish_ticket: &mut HashMap<GraphId, Ticket>,
        index: &RwLock<ShardedIndex>,
        wal: &mut Option<Wal>,
        obs: &ServerObs,
    ) {
        let Some(batch) = co.begin_flush() else {
            return;
        };
        co.note_flush_trigger(trigger);
        let model = replica
            .as_ref()
            .expect("encode requests only reach a server built with a model");
        let flush_tick = obs.clock.now();
        let enqueued = batch.enqueued_at();
        let forward_wall = std::time::Instant::now();
        let rows = model.encoder().embed_batch(&batch.graphs());
        let forward_us = forward_wall.elapsed().as_micros() as u64;
        if let Some(m) = &obs.metrics {
            m.encode_flushes.inc();
            m.encode_graphs.add(batch.len() as u64);
            m.encode_forward_us.record(forward_us);
            m.encode_batch_fill.record(batch.len() as u64);
            for &at in &enqueued {
                m.encode_wait_ticks.record(flush_tick.saturating_sub(at));
            }
        }
        if let Some(seq) = obs.tracer.sample() {
            let mut span = TraceSpan::new("encode_flush", seq, flush_tick);
            let oldest = enqueued.iter().copied().min().unwrap_or(flush_tick);
            span.stage("coalesce.wait", oldest, flush_tick)
                .field("batch_size", enqueued.len() as u64)
                .field(
                    "longest_wait_ticks",
                    enqueued
                        .iter()
                        .map(|&at| flush_tick.saturating_sub(at))
                        .max()
                        .unwrap_or(0),
                );
            span.stage("encode.forward", flush_tick, obs.clock.now())
                .field("forward_us", forward_us);
            span.finish(obs.clock.now());
            obs.tracer.record(span);
        }
        let tickets = batch.tickets();
        co.complete_flush(batch, rows);
        for t in tickets {
            let Some(dest) = dests.remove(&t) else {
                continue; // cancelled earlier; its handle already resolved
            };
            let row = co.poll(t);
            match dest {
                EncodeDest::Reply(tx) => {
                    if let Some(row) = row {
                        // a caller that dropped its handle just loses the row
                        let _ = tx.send(row);
                    }
                }
                EncodeDest::Publish { id, done } => {
                    let result = match row {
                        Some(row) => {
                            if publish_ticket.get(&id) == Some(&t) {
                                publish_ticket.remove(&id);
                            }
                            // write-ahead: the row only lands in the index
                            // once the WAL has it
                            let op = WalOp::Insert {
                                id,
                                row: row.data().to_vec(),
                            };
                            durable_append(wal, &op, obs.metrics.as_ref()).map(|()| {
                                index.write().unwrap().insert_row(id, row.data());
                            })
                        }
                        None => Ok(()), // cancelled between flush phases
                    };
                    let _ = done.send(result);
                }
            }
        }
    }

    // a cancelled publish still resolves its insert handle — nothing hangs
    fn cancel_publish(
        co: &mut EncodeCoalescer,
        dests: &mut HashMap<Ticket, EncodeDest>,
        ticket: Ticket,
    ) {
        co.cancel(ticket);
        if let Some(EncodeDest::Publish { done, .. }) = dests.remove(&ticket) {
            // a cancelled insert never reached the WAL or the index: that
            // is a successful no-op, not a durability failure
            let _ = done.send(Ok(()));
        }
    }

    let mut shutdown_report: Option<SyncSender<ServerReport>> = None;
    // blocks while idle — no periodic wakeups; a hung-up channel ends the loop
    'serve: while let Ok(mut req) = rx.recv() {
        // handle the request that woke us, then drain the burst behind it
        loop {
            match req {
                Request::Encode { graph, at, dest } => {
                    let t = co.enqueue(*graph, at);
                    if let EncodeDest::Publish { id, .. } = &dest {
                        if let Some(old) = publish_ticket.insert(*id, t) {
                            // replaced while still coalescing: the newer
                            // insert wins, the older handle resolves now
                            cancel_publish(&mut co, &mut dests, old);
                        }
                    }
                    dests.insert(t, dest);
                    if co.pending_len() >= max_batch {
                        flush(
                            &mut co,
                            FlushTrigger::Full,
                            &replica,
                            &mut dests,
                            &mut publish_ticket,
                            &index,
                            &mut wal,
                            &obs,
                        );
                    }
                }
                Request::InsertRow { id, row, done } => {
                    if let Some(old) = publish_ticket.remove(&id) {
                        cancel_publish(&mut co, &mut dests, old);
                    }
                    // write-ahead: log first, apply only on success
                    let op = WalOp::Insert { id, row };
                    let result = durable_append(&mut wal, &op, obs.metrics.as_ref()).map(|()| {
                        let WalOp::Insert { row, .. } = &op else {
                            unreachable!("op constructed as Insert above")
                        };
                        index.write().unwrap().insert_row(id, row);
                    });
                    let _ = done.send(result);
                }
                Request::Remove { id, done } => {
                    // write-ahead: a remove that cannot be logged is not
                    // applied (and does not cancel a pending insert either)
                    let result =
                        durable_append(&mut wal, &WalOp::Remove { id }, obs.metrics.as_ref()).map(
                            |()| {
                                let mut existed = false;
                                if let Some(t) = publish_ticket.remove(&id) {
                                    cancel_publish(&mut co, &mut dests, t);
                                    existed = true;
                                }
                                existed | index.write().unwrap().remove(id)
                            },
                        );
                    let _ = done.send(result);
                }
                Request::Shutdown { report } => {
                    shutdown_report = Some(report);
                    break 'serve;
                }
            }
            match rx.try_recv() {
                Ok(next) => req = next,
                Err(_) => break,
            }
        }
        // the channel is empty, so the worker is idle by construction:
        // encode what is pending now rather than hold it for company.
        // Under load the next batch forms behind this forward.
        flush(
            &mut co,
            FlushTrigger::Idle,
            &replica,
            &mut dests,
            &mut publish_ticket,
            &index,
            &mut wal,
            &obs,
        );
    }
    // final drain: whatever is still coalescing flushes now, so every
    // outstanding handle resolves before the worker exits
    flush(
        &mut co,
        FlushTrigger::Forced,
        &replica,
        &mut dests,
        &mut publish_ticket,
        &index,
        &mut wal,
        &obs,
    );
    // final sync: a failure leaves `unsynced` nonzero in the reported
    // state — a visibly dirty shutdown, never one silently claimed clean
    if let Some(w) = wal.as_mut() {
        let _ = w.sync();
    }
    if let Some(report) = shutdown_report {
        let _ = report.send(ServerReport {
            coalescer: co.stats().clone(),
            pending: co.pending_len(),
            in_flight: co.in_flight_len(),
            ready: co.ready_len(),
            unresolved: dests.len(),
            wal: wal.as_ref().map(|w| w.state()),
            degraded_scan_workers: 0, // filled in by Server::shutdown
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantized::ScanPrecision;
    use crate::testfix::{model, toy};
    use gbm_obs::clock::VirtualClock;

    fn synth_rows(n: usize, hidden: usize, seed: u64) -> Vec<f32> {
        // splitmix64, the same mixer the index routes with
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n * hidden)
            .map(|_| (next() % 2000) as f32 / 1000.0 - 1.0)
            .collect()
    }

    /// The headline acceptance criterion: the fanned-out concurrent query
    /// answers **exactly** — ids, scores, tie order — like the
    /// single-threaded `ShardedIndex::query`, for every shard count ×
    /// precision × worker count combination.
    #[test]
    fn concurrent_query_equals_single_threaded_across_shards_and_precisions() {
        let hidden = 8;
        let n = 500;
        let rows = synth_rows(n, hidden, 21);
        let queries = [
            rows[..hidden].to_vec(),
            rows[40 * hidden..41 * hidden].to_vec(),
        ];
        for shards in [1usize, 2, 7] {
            for precision in [
                ScanPrecision::F32,
                ScanPrecision::Int8 { widen: 2 },
                // approximate, but deterministic: the concurrent fan-out
                // must still equal the single-threaded scan bit for bit
                ScanPrecision::Ivf {
                    nprobe: 2,
                    widen: 2,
                },
            ] {
                let icfg = IndexConfig {
                    num_shards: shards,
                    encode_batch: 8,
                    precision,
                    ..Default::default()
                };
                let reference = ShardedIndex::from_rows(&rows, hidden, icfg);
                for workers in [1usize, 2, 3] {
                    let server = Server::from_rows(
                        &rows,
                        hidden,
                        ServerConfig {
                            scan_workers: workers,
                            index: icfg,
                            ..Default::default()
                        },
                        Arc::new(VirtualClock::new()),
                    );
                    assert_eq!(server.scan_worker_count(), workers.min(shards));
                    for q in &queries {
                        for k in [1usize, 10, n + 3] {
                            assert_eq!(
                                server.query(q, k),
                                reference.query(q, k),
                                "shards={shards} workers={workers} k={k} \
                                 precision={precision:?}"
                            );
                        }
                    }
                    let report = server.shutdown();
                    assert!(report.is_drained(), "query-only server leaks: {report:?}");
                }
            }
        }
    }

    /// Every flush has exactly one trigger, whatever batches the arrival
    /// timing happened to form.
    fn assert_flush_triggers_add_up(report: &ServerReport) {
        let c = &report.coalescer;
        assert_eq!(
            c.full_flushes + c.idle_flushes + c.forced_flushes,
            c.flushes,
            "{report:?}"
        );
    }

    /// Oneshot semantics: `submit` resolves with the same row a direct
    /// solo encode produces (to batching tolerance — how the four requests
    /// split into batches depends on arrival timing, and embeddings are
    /// only tolerance-equal across splits), without the clock moving.
    #[test]
    fn submit_resolves_with_the_coalesced_embedding() {
        let (pool, vocab) = toy(4);
        let m = model(vocab, 31);
        let server = Server::new(
            &m,
            ServerConfig {
                coalescer: CoalescerConfig { max_batch: 4 },
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
        );
        let handles: Vec<EncodeHandle> = pool.iter().map(|g| server.submit(g.clone())).collect();
        for (i, h) in handles.into_iter().enumerate() {
            let got = h.wait();
            let solo = m.encoder().embed(&pool[i]);
            for (a, b) in got.data().iter().zip(solo.data().iter()) {
                assert!((a - b).abs() < 1e-4, "graph {i}: coalesced {a} vs solo {b}");
            }
        }
        let report = server.shutdown();
        assert!(report.is_drained(), "{report:?}");
        assert_flush_triggers_add_up(&report);
        assert_eq!(report.coalescer.encoded, 4);
    }

    /// The work-conserving policy: a lone `submit` and a lone `insert`
    /// resolve on a virtual clock that **never advances** — the worker
    /// flushes because it is idle, not because a deadline passed. The
    /// wall-clock timeout turns a worker that waits for the clock (the
    /// deadline policy this replaced) into a failure instead of a hang.
    #[test]
    fn lone_requests_resolve_without_the_clock_advancing() {
        let (pool, vocab) = toy(2);
        let m = model(vocab, 32);
        let server = Arc::new(Server::new(
            &m,
            ServerConfig {
                coalescer: CoalescerConfig { max_batch: 100 },
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
        ));
        let (tx, rx) = mpsc::channel();
        let client = {
            let (server, pool) = (Arc::clone(&server), pool.clone());
            std::thread::spawn(move || {
                let row = server.submit(pool[0].clone()).wait();
                server.insert(7, pool[1].clone()).wait();
                let _ = tx.send(row);
            })
        };
        let row = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a lone request flushes when the worker goes idle");
        client.join().expect("client thread panicked");
        assert_eq!(row.data(), m.encoder().embed(&pool[0]).data(), "batch of 1");
        assert!(server.embedding(7).is_some());
        let server = Arc::into_inner(server).expect("client joined");
        let report = server.shutdown();
        assert!(report.is_drained(), "{report:?}");
        let c = &report.coalescer;
        assert_eq!(
            (c.idle_flushes, c.flushes, c.encoded),
            (2, 2, 2),
            "each lone request was its own idle flush"
        );
    }

    /// Insert/remove lifecycle through the server: publish, replace,
    /// remove-of-encoded, remove-of-pending (which must cancel the ticket
    /// AND resolve the insert handle), and remove-of-absent.
    #[test]
    fn insert_remove_lifecycle_never_hangs_or_leaks() {
        let (pool, vocab) = toy(5);
        let m = model(vocab, 33);
        let server = Server::new(
            &m,
            ServerConfig {
                coalescer: CoalescerConfig { max_batch: 2 },
                index: IndexConfig {
                    num_shards: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
        );
        // two inserts publish (as one full batch or two lone ones)
        let h0 = server.insert(0, pool[0].clone());
        let h1 = server.insert(1, pool[1].clone());
        h0.wait();
        h1.wait();
        assert_eq!(server.ids(), vec![0, 1]);
        // a query served by the worker fan-out sees the published rows
        let q = server.embedding(0).unwrap();
        let top = server.query(q.data(), 1);
        assert_eq!(top[0].0, 0, "a row is its own nearest neighbour");
        // re-insert replaces: same id, still two rows
        let h = server.insert(1, pool[2].clone());
        let h2 = server.insert(2, pool[3].clone());
        h.wait();
        h2.wait();
        assert_eq!(server.ids(), vec![0, 1, 2]);
        // remove of an encoded row
        assert!(server.remove(1).wait());
        assert_eq!(server.ids(), vec![0, 2]);
        assert!(!server.remove(1).wait(), "double remove reports absence");
        // remove racing a lone insert: if the insert is still coalescing
        // the remove cancels it (and resolves its handle), if it already
        // published the remove deletes the row — either way the id existed,
        // the handle resolves, and the row is gone
        let pending = server.insert(9, pool[4].clone());
        assert!(server.remove(9).wait(), "pending insert counts as existing");
        pending.wait();
        assert!(server.embedding(9).is_none(), "removed row is not served");
        // a replacing insert resolves the handle it replaces, by cancel or
        // by publish
        let old = server.insert(5, pool[0].clone());
        let new = server.insert(5, pool[1].clone());
        old.wait();
        let report = server.shutdown(); // drains whatever is still queued
        drop(new);
        assert!(report.is_drained(), "{report:?}");
        assert_flush_triggers_add_up(&report);
    }

    /// `insert_row` publishes precomputed rows through the same
    /// single-writer path, usable on a model-less server.
    #[test]
    fn insert_row_serves_on_a_model_less_server() {
        let hidden = 4;
        let rows = synth_rows(6, hidden, 44);
        let server = Server::from_rows(
            &rows,
            hidden,
            ServerConfig::default(),
            Arc::new(VirtualClock::new()),
        );
        assert_eq!(server.num_encoded(), 6);
        server.insert_row(100, rows[..hidden].to_vec()).wait();
        assert_eq!(server.num_encoded(), 7);
        let top = server.query(&rows[..hidden], 2);
        // id 0 and id 100 share the same row: exact tie, id order decides
        assert_eq!(top[0].1, top[1].1);
        assert!(server.remove(100).wait());
        let report = server.shutdown();
        assert!(report.is_drained(), "{report:?}");
        assert_eq!(report.coalescer.flushes, 0, "no encodes ever ran");
    }

    /// The seeded concurrency stress: submitter threads (disjoint id
    /// spaces), a remover pass, and querier threads hammer one shared
    /// server. Afterwards: no ticket leaks, no lost replies (every handle
    /// resolved), and the final index state equals a serially-replayed
    /// reference — ids exactly, rows within batched-encode tolerance.
    #[test]
    fn concurrent_stress_replay_matches_serial() {
        let (pool, vocab) = toy(6);
        let m = model(vocab, 35);
        let server = Arc::new(Server::new(
            &m,
            ServerConfig {
                scan_workers: 2,
                coalescer: CoalescerConfig { max_batch: 4 },
                index: IndexConfig {
                    num_shards: 3,
                    encode_batch: 4,
                    ..Default::default()
                },
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
        ));
        const PER_THREAD: usize = 12;
        let mut threads = Vec::new();
        for t in 0..3u64 {
            let server = Arc::clone(&server);
            let pool = pool.clone();
            threads.push(std::thread::spawn(move || {
                // insert a private id range, then remove every third id;
                // per-thread state is deterministic whatever the schedule
                let ids: Vec<GraphId> = (0..PER_THREAD as u64).map(|i| t * 1000 + i).collect();
                let handles: Vec<InsertHandle> = ids
                    .iter()
                    .map(|&id| server.insert(id, pool[id as usize % pool.len()].clone()))
                    .collect();
                for h in handles {
                    h.wait();
                }
                for &id in ids.iter().step_by(3) {
                    assert!(server.remove(id).wait(), "own insert must exist");
                }
            }));
        }
        for q in 0..2usize {
            let server = Arc::clone(&server);
            threads.push(std::thread::spawn(move || {
                for i in 0..40 {
                    // queries against whatever is published right now must
                    // stay well-formed: ranked, no duplicates, len ≤ k
                    if let Some(row) = server.embedding((i % 5) as GraphId) {
                        let k = 3 + q;
                        let top = server.query(row.data(), k);
                        assert!(top.len() <= k);
                        for w in top.windows(2) {
                            assert!(w[0].1 >= w[1].1, "ranked");
                            assert_ne!(w[0].0, w[1].0, "no duplicate ids");
                        }
                    }
                    std::thread::yield_now();
                }
            }));
        }
        // the virtual clock never moves: every flush below is full, idle
        // or forced — nothing waits on time
        for th in threads {
            th.join().expect("stress thread panicked");
        }
        let server = Arc::into_inner(server).expect("all thread clones joined");
        let got_ids = server.ids();
        let got_rows: Vec<Tensor> = got_ids
            .iter()
            .map(|&id| server.embedding(id).expect("listed id has a row"))
            .collect();
        let report = server.shutdown();
        assert!(report.is_drained(), "leaked state at shutdown: {report:?}");
        assert_flush_triggers_add_up(&report);
        assert_eq!(
            report.coalescer.encoded,
            3 * PER_THREAD,
            "every insert was encoded exactly once (cancelled-before-encode \
             would under-count, duplicates would over-count)"
        );
        // serial replay: disjoint per-thread id spaces make the final state
        // independent of the interleaving, so one fixed order reproduces it
        let mut reference = ShardedIndex::new(IndexConfig {
            num_shards: 3,
            encode_batch: 4,
            ..Default::default()
        });
        for t in 0..3u64 {
            for i in 0..PER_THREAD as u64 {
                let id = t * 1000 + i;
                reference.insert(&m, id, pool[id as usize % pool.len()].clone());
            }
        }
        reference.flush(&m);
        for t in 0..3u64 {
            for i in (0..PER_THREAD as u64).step_by(3) {
                assert!(reference.remove(t * 1000 + i));
            }
        }
        assert_eq!(got_ids, reference.ids(), "final id set matches the replay");
        for (id, row) in got_ids.iter().zip(&got_rows) {
            let want = reference.embedding(*id).unwrap();
            for (a, b) in row.data().iter().zip(want.data().iter()) {
                // both sides batched-encode, with different batch splits:
                // rows agree to batching tolerance, not bitwise
                assert!(
                    (a - b).abs() < 5e-4,
                    "id {id}: server row {a} vs replay row {b}"
                );
            }
        }
    }

    use crate::persist::{recover, DurabilityConfig};
    use gbm_store::{FaultPlan, FaultStorage, MemStorage, Storage};

    /// The durable lifecycle: boot from an empty directory, ack writes,
    /// die without shutdown (the "kill"), and recover rank-identical to a
    /// never-crashed serial replay of the acked ops; then resume serving
    /// on the recovered state and shut down provably clean.
    #[test]
    fn durable_server_survives_kill_and_recovers_rank_identical() {
        let hidden = 4;
        let rows = synth_rows(12, hidden, 77);
        let row = |i: usize| rows[i * hidden..(i + 1) * hidden].to_vec();
        let icfg = IndexConfig {
            num_shards: 3,
            encode_batch: 4,
            precision: ScanPrecision::Int8 { widen: 2 },
            ..Default::default()
        };
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let dcfg = DurabilityConfig::new("/srv");
        let rec = recover(Arc::clone(&storage), &dcfg, icfg).unwrap();
        let server = Server::durable(
            None,
            rec.index,
            ServerConfig {
                scan_workers: 2,
                index: icfg,
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
            rec.wal,
        );
        for i in 0..12usize {
            server.insert_row(i as GraphId, row(i)).wait();
        }
        assert!(server.remove(3).wait());
        assert!(!server.remove(99).wait(), "absent id still logs its remove");
        let served = server.query(&row(0), 5);
        // kill: drop without shutdown — acked ops are already in the WAL
        drop(server);

        let rec = recover(Arc::clone(&storage), &dcfg, icfg).unwrap();
        assert_eq!(rec.snapshot_seq, 0, "no checkpoint was ever taken");
        assert_eq!(rec.replayed_ops, 14, "12 inserts + 2 removes");
        let mut reference = ShardedIndex::new(icfg);
        for i in 0..12usize {
            reference.insert_row(i as GraphId, &row(i));
        }
        reference.remove(3);
        assert_eq!(rec.index.ids(), reference.ids());
        for k in [1usize, 5, 20] {
            assert_eq!(rec.index.query(&row(0), k), reference.query(&row(0), k));
        }
        assert_eq!(rec.index.query(&row(0), 5), served, "recovered = as-served");

        // resume serving on the recovered state; this time exit cleanly
        let server = Server::durable(
            None,
            rec.index,
            ServerConfig {
                index: icfg,
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
            rec.wal,
        );
        server.insert_row(50, row(0)).wait();
        let report = server.shutdown();
        assert!(report.is_drained(), "{report:?}");
        assert!(report.is_durable(), "clean shutdown syncs the WAL");
        let wal = report.wal.expect("durable server reports WAL state");
        assert_eq!(wal.next_seq, 16, "numbering continued across the crash");
        assert_eq!((wal.unsynced, wal.append_failures), (0, 0));
        assert_eq!(report.degraded_scan_workers, 0);
    }

    /// WAL fault handling end to end: a transient append failure is
    /// absorbed by the bounded retry; a persistent one surfaces as a typed
    /// [`ServeError::Durability`] on the handle and the index is left
    /// untouched (write-ahead: un-logged is un-applied); clearing the
    /// fault resumes service on the self-repaired tail, and recovery sees
    /// exactly the acked ops.
    #[test]
    fn wal_faults_retry_then_surface_typed_errors() {
        let hidden = 4;
        let rows = synth_rows(4, hidden, 88);
        let row = |i: usize| rows[i * hidden..(i + 1) * hidden].to_vec();
        let icfg = IndexConfig {
            num_shards: 2,
            encode_batch: 4,
            precision: ScanPrecision::F32,
            ..Default::default()
        };
        let faulty = Arc::new(FaultStorage::new(Arc::new(MemStorage::new())));
        let storage: Arc<dyn Storage> = Arc::clone(&faulty) as Arc<dyn Storage>;
        let dcfg = DurabilityConfig::new("/srv");
        let rec = recover(Arc::clone(&storage), &dcfg, icfg).unwrap();
        let server = Server::durable(
            None,
            rec.index,
            ServerConfig {
                index: icfg,
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
            rec.wal,
        );
        // one injected failure: the retry absorbs it, the caller sees Ok
        faulty.set_plan(FaultPlan {
            fail_next_appends: 1,
            ..Default::default()
        });
        server
            .insert_row(0, row(0))
            .result()
            .expect("retry succeeds");
        assert_eq!(server.num_encoded(), 1);
        // persistent failure: typed error, nothing applied
        faulty.set_plan(FaultPlan {
            fail_next_appends: u64::MAX,
            ..Default::default()
        });
        let err = server.insert_row(1, row(1)).result().unwrap_err();
        let ServeError::Durability { attempts, source } = err;
        assert_eq!(attempts, WAL_RETRIES);
        assert!(!source.is_corruption(), "an injected I/O fault, not rot");
        assert_eq!(server.num_encoded(), 1, "failed insert never lands");
        let err = server.remove(0).result().unwrap_err();
        assert!(matches!(err, ServeError::Durability { .. }));
        assert_eq!(server.num_encoded(), 1, "failed remove never applies");
        // fault cleared: the dirty tail self-repairs, service resumes
        faulty.set_plan(FaultPlan::default());
        server.insert_row(2, row(2)).wait();
        let report = server.shutdown();
        assert!(report.is_drained(), "{report:?}");
        assert!(report.is_durable());
        let wal = report.wal.unwrap();
        assert_eq!(
            wal.append_failures,
            1 + 2 * u64::from(WAL_RETRIES),
            "1 retried + 2 terminal ops' worth of failed attempts"
        );
        // recovery sees the acked ops and only those
        let rec = recover(storage, &dcfg, icfg).unwrap();
        assert_eq!(rec.index.ids(), vec![0, 2]);
        assert_eq!(rec.replayed_ops, 2);
    }

    /// A failing final fsync must be a *visibly* dirty shutdown.
    #[test]
    fn failed_final_sync_reports_a_dirty_shutdown() {
        let hidden = 4;
        let rows = synth_rows(1, hidden, 91);
        let icfg = IndexConfig::default();
        let faulty = Arc::new(FaultStorage::new(Arc::new(MemStorage::new())));
        let storage: Arc<dyn Storage> = Arc::clone(&faulty) as Arc<dyn Storage>;
        let rec = recover(storage, &DurabilityConfig::new("/srv"), icfg).unwrap();
        let server = Server::durable(
            None,
            rec.index,
            ServerConfig::default(),
            Arc::new(VirtualClock::new()),
            rec.wal,
        );
        server.insert_row(0, rows.clone()).wait();
        faulty.set_plan(FaultPlan {
            fail_next_syncs: 1,
            ..Default::default()
        });
        let report = server.shutdown();
        assert!(report.is_drained(), "drained is orthogonal to durable");
        assert!(!report.is_durable(), "failed fsync cannot claim clean");
        assert!(report.wal.unwrap().unsynced > 0);
    }

    /// Worker fault isolation: poisoned scan workers retire, their shard
    /// ranges fail over to inline scans, and every degraded answer stays
    /// **exactly** equal to the healthy single-threaded scan — down to
    /// losing all workers. Writes are unaffected, and the degradation is
    /// visible in the shutdown report.
    #[test]
    fn poisoned_scan_workers_fail_over_with_exact_rankings() {
        let hidden = 6;
        let n = 200;
        let rows = synth_rows(n, hidden, 99);
        let icfg = IndexConfig {
            num_shards: 7,
            encode_batch: 8,
            precision: ScanPrecision::Int8 { widen: 2 },
            ..Default::default()
        };
        let reference = ShardedIndex::from_rows(&rows, hidden, icfg);
        let server = Server::from_rows(
            &rows,
            hidden,
            ServerConfig {
                scan_workers: 3,
                index: icfg,
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
        );
        let q = rows[..hidden].to_vec();
        assert_eq!(server.query(&q, 10), reference.query(&q, 10), "healthy");
        server.poison_scan_worker(1);
        for k in [1usize, 10, n + 5] {
            assert_eq!(server.query(&q, k), reference.query(&q, k), "k={k}");
        }
        // losing every worker still serves (all ranges inline)
        server.poison_scan_worker(0);
        server.poison_scan_worker(2);
        assert_eq!(server.query(&q, 10), reference.query(&q, 10), "all dead");
        // the write path is a different thread: unaffected
        server.insert_row(5000, q.clone()).wait();
        assert!(server.remove(5000).wait());
        let report = server.shutdown();
        assert!(report.is_drained(), "{report:?}");
        assert_eq!(report.degraded_scan_workers, 3);
        assert!(report.wal.is_none(), "no WAL was attached");
        assert!(!report.is_durable(), "durability never claimed without one");
    }

    /// The tentpole acceptance criterion: one `Server::metrics()` snapshot
    /// covers encode, scan, merge, WAL, recovery, and failover — every
    /// counter and histogram the pipeline claims to record is present and
    /// consistent with the load that was driven through it.
    #[test]
    fn metrics_snapshot_covers_encode_scan_merge_wal_and_failover() {
        let (pool, vocab) = toy(6);
        let m = model(vocab, 51);
        let icfg = IndexConfig {
            num_shards: 4,
            encode_batch: 4,
            precision: ScanPrecision::Int8 { widen: 2 },
            ..Default::default()
        };
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let dcfg = DurabilityConfig::new("/srv");
        let rec = recover(Arc::clone(&storage), &dcfg, icfg).unwrap();
        let rstats = rec.stats();
        let server = Server::durable(
            Some(&m),
            rec.index,
            ServerConfig {
                scan_workers: 2,
                coalescer: CoalescerConfig { max_batch: 3 },
                index: icfg,
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
            rec.wal,
        );
        server.record_recovery(rstats);
        // encode path: six inserts through the coalescer + WAL, in however
        // many batches of at most 3 the arrival timing forms
        let handles: Vec<InsertHandle> = (0..6)
            .map(|i| server.insert(i as GraphId, pool[i].clone()))
            .collect();
        for h in handles {
            h.result().unwrap();
        }
        // scan + merge path: a few queries
        let q = server.embedding(0).unwrap();
        for _ in 0..3 {
            server.query(q.data(), 4);
        }
        // failover path: retire a worker, then query through the gap
        server.poison_scan_worker(1);
        server.query(q.data(), 4);
        server.query(q.data(), 4);

        let snap = server.metrics();
        // scan + merge
        assert_eq!(snap.counter("serve.queries"), Some(5));
        assert!(snap.counter("serve.scan.rows").unwrap() > 0);
        assert!(snap.counter("serve.scan.survivors").unwrap() > 0, "int8");
        assert!(snap.counter("serve.scan.bytes").unwrap() > 0);
        assert_eq!(snap.counter("serve.scan.cells_probed"), Some(0), "no IVF");
        assert_eq!(snap.histogram("serve.query_us").unwrap().count(), 5);
        assert_eq!(snap.histogram("serve.merge_us").unwrap().count(), 5);
        // encode
        let flushes = snap.counter("serve.encode.flushes").unwrap();
        assert!((2..=6).contains(&flushes), "6 graphs, max_batch 3");
        assert_eq!(snap.counter("serve.encode.graphs"), Some(6));
        let fill = snap.histogram("serve.encode.batch_fill").unwrap();
        assert_eq!(fill.count(), flushes);
        assert!(fill.max() <= 3, "max_batch bounds every fill");
        assert_eq!(
            snap.histogram("serve.encode.wait_ticks").unwrap().count(),
            6,
            "one wait sample per request"
        );
        assert_eq!(
            snap.histogram("serve.encode.forward_us").unwrap().count(),
            flushes
        );
        // WAL (write-ahead of every publish)
        assert_eq!(snap.counter("wal.appends"), Some(6));
        assert_eq!(snap.counter("wal.append_retries"), Some(0));
        assert_eq!(snap.histogram("wal.append_us").unwrap().count(), 6);
        // failover / degradation
        assert_eq!(snap.counter("serve.workers.panics"), Some(1));
        assert_eq!(snap.gauge("serve.workers.degraded"), Some(1));
        assert!(
            snap.counter("serve.failover.inline_scans").unwrap() >= 2,
            "both degraded queries failed over worker 1's range inline"
        );
        // recovery seeding (a fresh boot: zeros, but the names are live)
        assert_eq!(snap.counter("recover.replayed_ops"), Some(0));
        assert_eq!(snap.counter("recover.torn_bytes"), Some(0));
        // exposition renders and embeds
        let text = snap.to_text();
        assert!(text.contains("serve.queries 5"));
        let json = snap.to_json();
        assert!(json.contains("\"wal.appends\": 6"));
        server.shutdown();

        // and a recovery with real work seeds nonzero counters
        let rec = recover(storage, &dcfg, icfg).unwrap();
        assert_eq!(rec.replayed_ops, 6);
        let rstats = rec.stats();
        let server = Server::durable(
            None,
            rec.index,
            ServerConfig {
                index: icfg,
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
            rec.wal,
        );
        server.record_recovery(rstats);
        let snap = server.metrics();
        assert_eq!(snap.counter("recover.replayed_ops"), Some(6));
        server.shutdown();
    }

    /// `ObsConfig { metrics: false }` is the instrumented-out baseline:
    /// the registry stays empty (no atomics registered, the record sites
    /// are dead branches) while serving is unaffected.
    #[test]
    fn disabled_metrics_serve_identically_with_an_empty_registry() {
        let hidden = 4;
        let rows = synth_rows(20, hidden, 13);
        let server = Server::from_rows(
            &rows,
            hidden,
            ServerConfig {
                obs: ObsConfig {
                    metrics: false,
                    trace_sample: 0,
                },
                ..Default::default()
            },
            Arc::new(VirtualClock::new()),
        );
        let reference = ShardedIndex::from_rows(&rows, hidden, IndexConfig::default());
        let q = &rows[..hidden];
        assert_eq!(server.query(q, 5), reference.query(q, 5));
        let snap = server.metrics();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(server.take_traces().is_empty(), "tracing defaults off");
        server.shutdown();
    }

    /// The trace determinism acceptance criterion: identical request
    /// sequences against a virtual clock produce bit-identical span
    /// streams — stage names, tick ranges, and every scan-stats field.
    #[test]
    fn sampled_traces_are_deterministic_under_a_virtual_clock() {
        let run = || {
            let hidden = 6;
            let rows = synth_rows(64, hidden, 29);
            let clock = Arc::new(VirtualClock::new());
            let server = Server::from_rows(
                &rows,
                hidden,
                ServerConfig {
                    scan_workers: 2,
                    index: IndexConfig {
                        num_shards: 4,
                        precision: ScanPrecision::Int8 { widen: 2 },
                        ..Default::default()
                    },
                    obs: ObsConfig {
                        metrics: true,
                        trace_sample: 2, // every other query
                    },
                    ..Default::default()
                },
                Arc::clone(&clock) as Arc<dyn Clock>,
            );
            for i in 0..6usize {
                clock.advance(3);
                server.query(&rows[i * hidden..(i + 1) * hidden], 5);
            }
            let traces = server.take_traces();
            server.shutdown();
            traces
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), 3, "every 2nd of 6 queries sampled");
        assert_eq!(a, b, "virtual-clock traces are bit-reproducible");
        // span shape: one stage per worker plus the merge
        let span = &a[0];
        assert_eq!(span.label, "query");
        assert_eq!(span.stages.len(), 3, "2 scan workers + merge");
        assert_eq!(span.stages[0].name, "scan.worker0");
        assert_eq!(span.stages[2].name, "merge");
        let fields: Vec<&str> = span.stages[0]
            .fields
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            fields,
            [
                "shards",
                "rows_scanned",
                "cells_probed",
                "survivors",
                "scan_bytes"
            ]
        );
        let rows_scanned: u64 = a
            .iter()
            .flat_map(|s| &s.stages)
            .flat_map(|st| &st.fields)
            .filter(|(k, _)| k == "rows_scanned")
            .map(|&(_, v)| v)
            .sum();
        assert!(rows_scanned > 0, "sampled scans recorded their work");
    }
}
