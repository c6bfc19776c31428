//! Request coalescing: many arriving encode requests, few encoder forwards.
//!
//! A serving front-end receives graphs one at a time, but the encoder is at
//! its best running a disjoint-union [`GraphBatch`](gbm_nn::GraphBatch)
//! forward over many graphs at once (the PR 2 batching win). The
//! [`EncodeCoalescer`] sits between the two: requests queue until either
//! `max_batch` graphs are waiting (*full flush*) or whoever drives the
//! coalescer finds itself with nothing else to do (*idle flush*), then one
//! batched forward encodes the whole queue and each caller collects its own
//! `[1, hidden]` row by [`Ticket`].
//!
//! The policy is work-conserving: there is no flush deadline. A request
//! never waits for company that may not come — batches form only from what
//! queued while the previous forward was in flight, which is the only
//! batching a deadline ever bought (batch-8 costs 0.52 ms/graph against
//! 0.50 ms single at harness scale, so holding a lone request back to fill
//! a batch is latency spent on nothing). The coalescer itself cannot know
//! when its driver is idle, so the idle decision lives with the caller: the
//! server's encode worker flushes when its channel runs empty.
//!
//! Enqueue time comes from an injected [`Clock`], so the recorded wait
//! (`flush tick − enqueue tick`: real queueing behind an in-flight forward)
//! is reproducible under a [`VirtualClock`](crate::VirtualClock).
//! Steady-state allocation stays flat: the batched forward draws its
//! buffers from `gbm-tensor`'s thread-local scratch pool, and the queue
//! itself recycles its capacity.

use std::collections::{HashMap, HashSet};

use gbm_nn::{EncodedGraph, GraphBinMatch};
use gbm_tensor::Tensor;

use gbm_obs::clock::Clock;

/// Flush policy for an [`EncodeCoalescer`].
#[derive(Clone, Copy, Debug)]
pub struct CoalescerConfig {
    /// Flush as soon as this many requests are queued (one batched forward
    /// encodes them all). Also the upper bound on batch fill.
    pub max_batch: usize,
}

impl Default for CoalescerConfig {
    fn default() -> CoalescerConfig {
        CoalescerConfig {
            max_batch: gbm_nn::embeddings::DEFAULT_ENCODE_BATCH,
        }
    }
}

/// What caused a caller-driven flush — bookkeeping for the two-phase
/// [`EncodeCoalescer::begin_flush`]/[`EncodeCoalescer::complete_flush`] API,
/// where the trigger decision lives with the caller (a server worker loop)
/// rather than inside `submit`/`flush`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The queue reached `max_batch`.
    Full,
    /// The driver ran out of other work with requests still queued.
    Idle,
    /// An unconditional drain (shutdown / test path).
    Forced,
}

/// Handle to one submitted encode request; redeem it with
/// [`EncodeCoalescer::poll`] after a flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Aggregate coalescer behaviour — the load-probe observables.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoalescerStats {
    /// Batched forwards run.
    pub flushes: usize,
    /// Graphs encoded across all flushes.
    pub encoded: usize,
    /// Flushes triggered by the queue reaching `max_batch`.
    pub full_flushes: usize,
    /// Flushes triggered by the driver going idle with requests queued.
    pub idle_flushes: usize,
    /// Unconditional flushes ([`EncodeCoalescer::flush`] called directly).
    pub forced_flushes: usize,
}

impl CoalescerStats {
    /// Mean graphs per batched forward — the coalescing quality metric
    /// (1.0 = no coalescing happened, `max_batch` = every flush was full).
    pub fn mean_batch_fill(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.encoded as f64 / self.flushes as f64
        }
    }
}

struct PendingRequest {
    ticket: Ticket,
    graph: EncodedGraph,
    enqueued_at: u64,
}

/// A drained flush batch whose encode is *in flight*: produced by
/// [`EncodeCoalescer::begin_flush`], redeemed by
/// [`EncodeCoalescer::complete_flush`]. Splitting the flush in two is the
/// worker-thread integration point (the encoder forward can run outside
/// the coalescer's owner), and it makes the mid-flight window first-class:
/// a ticket cancelled while its batch is in flight has its row *dropped*
/// at completion instead of leaking into the ready map.
///
/// Dropping a `FlushBatch` without completing it abandons its requests:
/// their tickets never resolve (poll returns `None` forever).
pub struct FlushBatch {
    requests: Vec<(Ticket, EncodedGraph, u64)>,
}

impl FlushBatch {
    /// The graphs to encode, in ticket order (row `i` of the batched
    /// forward must answer ticket `i`).
    pub fn graphs(&self) -> Vec<&EncodedGraph> {
        self.requests.iter().map(|(_, g, _)| g).collect()
    }

    /// Requests in this batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the batch carries no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The tickets of this batch, in row order (ticket `i` is answered by
    /// row `i` of the batched forward) — what a worker loop needs to route
    /// each row to its reply handle after
    /// [`complete_flush`](EncodeCoalescer::complete_flush).
    pub fn tickets(&self) -> Vec<Ticket> {
        self.requests.iter().map(|(t, _, _)| *t).collect()
    }

    /// The clock tick each request was enqueued at, in row order — what an
    /// instrumented worker needs to account per-request coalescer wait
    /// (`flush_tick - enqueued_at`) without a side lookup.
    pub fn enqueued_at(&self) -> Vec<u64> {
        self.requests.iter().map(|(_, _, at)| *at).collect()
    }
}

/// Queues encode requests and flushes them through one batched encoder
/// forward per batch. Single-owner by design: the tape underneath is
/// single-threaded, so a server wraps this in its own synchronization while
/// tests drive it directly.
pub struct EncodeCoalescer {
    cfg: CoalescerConfig,
    pending: Vec<PendingRequest>,
    ready: HashMap<Ticket, Tensor>,
    /// Tickets whose batch is between [`begin_flush`](Self::begin_flush)
    /// and [`complete_flush`](Self::complete_flush).
    in_flight: HashSet<Ticket>,
    /// In-flight tickets cancelled mid-flight: their rows are dropped at
    /// completion instead of entering `ready`.
    cancelled_in_flight: HashSet<Ticket>,
    next_ticket: u64,
    stats: CoalescerStats,
}

impl EncodeCoalescer {
    /// An empty coalescer with the given flush policy (`max_batch` is
    /// clamped to at least 1).
    pub fn new(cfg: CoalescerConfig) -> EncodeCoalescer {
        EncodeCoalescer {
            cfg: CoalescerConfig {
                max_batch: cfg.max_batch.max(1),
            },
            pending: Vec::new(),
            ready: HashMap::new(),
            in_flight: HashSet::new(),
            cancelled_in_flight: HashSet::new(),
            next_ticket: 0,
            stats: CoalescerStats::default(),
        }
    }

    /// Queues `graph` for encoding at the clock's current tick and returns
    /// the ticket its embedding will be filed under. Reaching `max_batch`
    /// queued requests flushes immediately (a *full flush*).
    pub fn submit(
        &mut self,
        model: &GraphBinMatch,
        graph: EncodedGraph,
        clock: &dyn Clock,
    ) -> Ticket {
        let ticket = self.enqueue(graph, clock.now());
        if self.pending.len() >= self.cfg.max_batch {
            self.note_flush_trigger(FlushTrigger::Full);
            self.run_flush(model);
        }
        ticket
    }

    /// Queues `graph` *without* flushing, whatever the queue length — the
    /// submission half of the two-phase worker API. `enqueued_at` is the
    /// tick the request entered the system (a server stamps it at submit,
    /// before its channel, so the recorded wait covers the time spent
    /// queued behind an in-flight forward). The caller owns the
    /// flush policy: check [`pending_len`](Self::pending_len) against
    /// `max_batch`, flush what is left when it goes idle, and drive
    /// [`begin_flush`](Self::begin_flush)/
    /// [`complete_flush`](Self::complete_flush) itself (recording the
    /// trigger via [`note_flush_trigger`](Self::note_flush_trigger)).
    pub fn enqueue(&mut self, graph: EncodedGraph, enqueued_at: u64) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.pending.push(PendingRequest {
            ticket,
            graph,
            enqueued_at,
        });
        ticket
    }

    /// Records what caused a caller-driven flush in [`CoalescerStats`]
    /// (`begin_flush` itself counts nothing — the trigger decision belongs
    /// to whoever made it).
    pub fn note_flush_trigger(&mut self, trigger: FlushTrigger) {
        match trigger {
            FlushTrigger::Full => self.stats.full_flushes += 1,
            FlushTrigger::Idle => self.stats.idle_flushes += 1,
            FlushTrigger::Forced => self.stats.forced_flushes += 1,
        }
    }

    /// Unconditionally encodes everything queued (shutdown / test path).
    pub fn flush(&mut self, model: &GraphBinMatch) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        self.note_flush_trigger(FlushTrigger::Forced);
        self.run_flush(model)
    }

    /// The flush policy this coalescer was built with.
    pub fn config(&self) -> CoalescerConfig {
        self.cfg
    }

    fn run_flush(&mut self, model: &GraphBinMatch) -> usize {
        let Some(batch) = self.begin_flush() else {
            return 0;
        };
        // one disjoint-union forward for the whole flush; row i belongs to
        // submission i (embed_batch preserves input order)
        let rows = model.encoder().embed_batch(&batch.graphs());
        self.complete_flush(batch, rows)
    }

    /// Drains the queue into a [`FlushBatch`] and marks its tickets *in
    /// flight* (`None` when nothing is queued). The caller owns the encode:
    /// run `model.encoder().embed_batch(&batch.graphs())` — on a worker
    /// thread if it likes — and hand the rows back through
    /// [`complete_flush`](Self::complete_flush). Flush-trigger stats
    /// (`full`/`idle`/`forced`) are the trigger's business; this counts
    /// nothing.
    pub fn begin_flush(&mut self) -> Option<FlushBatch> {
        if self.pending.is_empty() {
            return None;
        }
        // drain (not take) so the queue keeps its capacity across flushes
        let requests: Vec<(Ticket, EncodedGraph, u64)> = self
            .pending
            .drain(..)
            .map(|r| {
                self.in_flight.insert(r.ticket);
                (r.ticket, r.graph, r.enqueued_at)
            })
            .collect();
        Some(FlushBatch { requests })
    }

    /// Files the encoded rows of `batch` (row `i` answers ticket `i` —
    /// `embed_batch` preserves input order; length mismatch panics).
    /// Tickets cancelled while the batch was in flight have their rows
    /// dropped here — the embedding never enters the ready map, so a
    /// timed-out caller leaks nothing. Returns the number of rows encoded.
    pub fn complete_flush(&mut self, batch: FlushBatch, rows: Vec<Tensor>) -> usize {
        assert_eq!(
            batch.requests.len(),
            rows.len(),
            "one encoded row per flushed request"
        );
        self.stats.flushes += 1;
        let encoded = batch.requests.len();
        self.stats.encoded += encoded;
        for ((ticket, _, _), row) in batch.requests.into_iter().zip(rows) {
            self.in_flight.remove(&ticket);
            if !self.cancelled_in_flight.remove(&ticket) {
                self.ready.insert(ticket, row);
            }
        }
        encoded
    }

    /// Collects (and removes) the embedding for `ticket`, if its batch has
    /// flushed. A second poll of the same ticket returns `None`.
    pub fn poll(&mut self, ticket: Ticket) -> Option<Tensor> {
        self.ready.remove(&ticket)
    }

    /// Abandons `ticket`: drops it from the queue (never encoded), marks it
    /// cancelled if its batch is mid-flight (the encoded row is dropped at
    /// [`complete_flush`](Self::complete_flush) — it never reaches the
    /// ready map), or evicts it from the ready map (embedding discarded).
    /// A front-end that times a request out must call this, or the
    /// unredeemed embedding stays in `ready` for the coalescer's lifetime.
    /// Returns whether the ticket still existed (a second cancel of the
    /// same ticket reports `false`).
    pub fn cancel(&mut self, ticket: Ticket) -> bool {
        if let Some(pos) = self.pending.iter().position(|r| r.ticket == ticket) {
            self.pending.remove(pos);
            return true;
        }
        if self.in_flight.contains(&ticket) {
            // first cancel wins; a repeat finds it already in the set
            return self.cancelled_in_flight.insert(ticket);
        }
        self.ready.remove(&ticket).is_some()
    }

    /// Requests queued but not yet encoded.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Tickets whose flush batch is between `begin_flush` and
    /// `complete_flush` (always 0 when using the one-shot
    /// `submit`/`flush` API, which encodes synchronously).
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Encoded embeddings awaiting collection.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Behaviour counters since construction.
    pub fn stats(&self) -> &CoalescerStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix::{model, toy};
    use gbm_obs::clock::VirtualClock;

    #[test]
    fn full_queue_flushes_immediately() {
        let (pool, vocab) = toy(4);
        let model = model(vocab, 1);
        let clock = VirtualClock::new();
        let mut co = EncodeCoalescer::new(CoalescerConfig { max_batch: 4 });
        let tickets: Vec<Ticket> = pool
            .iter()
            .map(|g| co.submit(&model, g.clone(), &clock))
            .collect();
        // the 4th submit crossed max_batch: everything encoded in ONE forward
        assert_eq!(co.pending_len(), 0);
        assert_eq!(model.encoder().forward_count(), 4);
        assert_eq!(co.stats().flushes, 1);
        assert_eq!(co.stats().full_flushes, 1);
        assert_eq!(co.stats().mean_batch_fill(), 4.0);
        for t in tickets {
            assert!(co.poll(t).is_some());
            assert!(co.poll(t).is_none(), "tickets redeem exactly once");
        }
    }

    #[test]
    fn rows_route_to_their_tickets_and_match_single_graph_encoding() {
        let (pool, vocab) = toy(5);
        let model = model(vocab, 3);
        let clock = VirtualClock::new();
        let mut co = EncodeCoalescer::new(CoalescerConfig { max_batch: 3 });
        // submit out of pool order so row routing is actually exercised
        let order = [3usize, 0, 4, 2, 1];
        let tickets: Vec<(usize, Ticket)> = order
            .iter()
            .map(|&i| (i, co.submit(&model, pool[i].clone(), &clock)))
            .collect();
        co.flush(&model); // drain the 2-request remainder
        assert_eq!(co.stats().flushes, 2);
        assert_eq!(co.stats().full_flushes, 1);
        assert_eq!(co.stats().forced_flushes, 1);
        for (i, t) in tickets {
            let got = co.poll(t).expect("all batches flushed");
            let solo = model.encoder().embed(&pool[i]);
            for (a, b) in got.data().iter().zip(solo.data().iter()) {
                assert!((a - b).abs() < 1e-4, "graph {i}: coalesced {a} vs solo {b}");
            }
        }
    }

    #[test]
    fn cancel_evicts_pending_and_ready_tickets() {
        let (pool, vocab) = toy(3);
        let model = model(vocab, 6);
        let clock = VirtualClock::new();
        let mut co = EncodeCoalescer::new(CoalescerConfig { max_batch: 8 });
        // pending cancel: the request never encodes
        let t0 = co.submit(&model, pool[0].clone(), &clock);
        assert!(co.cancel(t0));
        assert_eq!(co.pending_len(), 0);
        co.flush(&model);
        assert_eq!(model.encoder().forward_count(), 0);
        assert!(co.poll(t0).is_none());
        // ready cancel: an abandoned embedding leaves the map
        let t1 = co.submit(&model, pool[1].clone(), &clock);
        let t2 = co.submit(&model, pool[2].clone(), &clock);
        co.flush(&model);
        assert_eq!(co.ready_len(), 2);
        assert!(co.cancel(t1));
        assert_eq!(co.ready_len(), 1);
        assert!(co.poll(t1).is_none());
        assert!(co.poll(t2).is_some(), "other tickets are untouched");
        assert!(!co.cancel(t1), "double cancel reports absence");
    }

    /// The mid-flight cancel regression: a ticket cancelled between
    /// `begin_flush` and `complete_flush` must have its result dropped at
    /// completion — not filed into `ready` (where an abandoned caller
    /// would leak it forever) — and must not leave tracking residue.
    #[test]
    fn cancel_mid_flight_drops_the_result_without_leaking() {
        let (pool, vocab) = toy(3);
        let model = model(vocab, 7);
        let clock = VirtualClock::new();
        let mut co = EncodeCoalescer::new(CoalescerConfig { max_batch: 8 });
        let t0 = co.submit(&model, pool[0].clone(), &clock);
        let t1 = co.submit(&model, pool[1].clone(), &clock);
        let batch = co.begin_flush().expect("two requests queued");
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(co.pending_len(), 0, "begin_flush drains the queue");
        assert_eq!(co.in_flight_len(), 2);
        // the batch is mid-flight: cancel must succeed, exactly once
        assert!(co.cancel(t0), "mid-flight cancel reports the ticket live");
        assert!(!co.cancel(t0), "double mid-flight cancel reports absence");
        let rows = model.encoder().embed_batch(&batch.graphs());
        assert_eq!(co.complete_flush(batch, rows), 2, "both rows were encoded");
        // cancelled row dropped, surviving row filed, nothing leaked
        assert_eq!(co.in_flight_len(), 0);
        assert_eq!(co.ready_len(), 1, "cancelled embedding never enters ready");
        assert!(co.poll(t0).is_none());
        assert!(co.poll(t1).is_some());
        assert!(
            !co.cancel(t0),
            "post-completion cancel finds no residue (no ticket leak)"
        );
        assert_eq!(co.stats().flushes, 1);
        assert_eq!(co.stats().encoded, 2);
        // a fresh submit after the cycle behaves normally
        let t2 = co.submit(&model, pool[2].clone(), &clock);
        co.flush(&model);
        assert!(co.poll(t2).is_some());
    }

    /// The worker-loop API: `enqueue` never flushes (even past `max_batch`),
    /// no amount of clock movement flushes either (there is no deadline —
    /// the caller decides when it is idle), and the caller-driven two-phase
    /// flush routes every row by `tickets()` and reports the queueing wait
    /// by `enqueued_at()`.
    #[test]
    fn enqueue_leaves_the_flush_policy_to_the_caller() {
        let (pool, vocab) = toy(5);
        let model = model(vocab, 9);
        let clock = VirtualClock::new();
        let mut co = EncodeCoalescer::new(CoalescerConfig { max_batch: 2 });
        let tickets: Vec<Ticket> = pool
            .iter()
            .map(|g| {
                clock.advance(1);
                co.enqueue(g.clone(), clock.now())
            })
            .collect();
        clock.advance(1_000);
        assert_eq!(co.pending_len(), 5, "enqueue ignores max_batch and time");
        assert_eq!(model.encoder().forward_count(), 0);
        co.note_flush_trigger(FlushTrigger::Idle);
        let batch = co.begin_flush().expect("queue is non-empty");
        assert_eq!(batch.tickets(), tickets, "tickets come back in row order");
        assert_eq!(batch.enqueued_at(), [1, 2, 3, 4, 5], "enqueue ticks kept");
        let rows = model.encoder().embed_batch(&batch.graphs());
        assert_eq!(co.complete_flush(batch, rows), 5);
        assert_eq!(co.pending_len(), 0);
        let stats = co.stats();
        assert_eq!((stats.idle_flushes, stats.flushes), (1, 1));
        for t in tickets {
            assert!(co.poll(t).is_some());
        }
    }

    #[test]
    fn begin_flush_on_empty_queue_is_none() {
        let (_, vocab) = toy(1);
        let _model = model(vocab, 8);
        let mut co = EncodeCoalescer::new(CoalescerConfig::default());
        assert!(co.begin_flush().is_none());
        assert_eq!(co.in_flight_len(), 0);
    }

    #[test]
    fn flush_of_empty_queue_is_a_no_op() {
        let (_, vocab) = toy(1);
        let model = model(vocab, 4);
        let mut co = EncodeCoalescer::new(CoalescerConfig::default());
        assert_eq!(co.flush(&model), 0);
        assert_eq!(co.stats(), &CoalescerStats::default());
        assert_eq!(co.stats().mean_batch_fill(), 0.0);
    }

    #[test]
    fn max_batch_of_zero_degrades_to_one() {
        let (pool, vocab) = toy(1);
        let model = model(vocab, 5);
        let clock = VirtualClock::new();
        let mut co = EncodeCoalescer::new(CoalescerConfig { max_batch: 0 });
        let t = co.submit(&model, pool[0].clone(), &clock);
        assert!(co.poll(t).is_some(), "batch size 1: submit flushes at once");
    }
}
