//! probe_serve: coalescer behaviour under load, on the virtual clock.
//!
//! Simulates request arrivals at a range of rates (requests per tick,
//! deterministic fractional accumulator — no RNG, so every run is
//! identical) into a model of the server's encode worker: a request channel
//! in front of an [`EncodeCoalescer`] with `max_batch = 8`, and a worker
//! that is busy for `FORWARD_TICKS` virtual ticks per batched forward. The
//! policy is the server's, work-conserving: a free worker drains the
//! channel, flushes full at `max_batch`, and flushes whatever is left the
//! moment the channel is empty — batches form only from what arrived while
//! the previous forward was in flight. Reports per rate:
//!
//! * mean batch fill (graphs per batched forward) and the full/idle flush
//!   split — fill tracks the arrival rate (≈ rate × forward ticks, capped
//!   at `max_batch`) with no deadline holding lone requests back;
//! * heap allocations per encoded graph over successive simulation
//!   windows, counted by a wrapping global allocator — flat across windows
//!   means the steady state recycles buffers (the `gbm-tensor` scratch
//!   pool) instead of growing.
//!
//! EXPERIMENTS.md records a run of this probe.
//!
//! ```text
//! cargo run --release -p gbm-bench --bin probe_serve [-- --json]
//! ```
//!
//! `--json` emits the same per-rate records as a JSON document (one
//! `rates` array, fields named like the table columns), so
//! allocation-per-graph and batch-fill trends can be diffed across PRs the
//! way the `BENCH_*.json` baselines are.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use gbm_nn::{GraphBinMatch, GraphBinMatchConfig};
use gbm_serve::{Clock, CoalescerConfig, EncodeCoalescer, FlushTrigger, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts every heap allocation on top of the system allocator — the
/// direct observable for "steady-state allocation is flat".
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const MAX_BATCH: usize = 8;
/// Virtual ticks the modelled worker is busy per batched forward.
const FORWARD_TICKS: u64 = 4;
const TICKS: u64 = 400;
const WINDOWS: usize = 4;

/// One arrival rate's observables — a row of the table, a record of the
/// `--json` document.
struct RateRecord {
    rate: f64,
    requests: usize,
    flushes: usize,
    full_flushes: usize,
    idle_flushes: usize,
    mean_fill: f64,
    allocs_per_graph: Vec<f64>,
}

fn main() {
    let json = gbm_bench::probe_args().json;
    let (tok, requests) = gbm_bench::minic_pool(32);
    let vocab = tok.vocab_size();
    let mut rng = StdRng::seed_from_u64(1);
    let model = GraphBinMatch::new(GraphBinMatchConfig::tiny(vocab), &mut rng);
    // warm the scratch pool / embeddings once so window 1 isn't all cold-start
    let _ = model.encoder().embed(&requests[0]);

    let mut records: Vec<RateRecord> = Vec::new();
    if !json {
        println!("=== coalescer under load (virtual clock) ===");
        println!(
            "max_batch={MAX_BATCH} forward_ticks={FORWARD_TICKS} ticks={TICKS}; \
             allocs/graph over {WINDOWS} equal windows (flat = steady state)"
        );
        println!(
            "{:>9} {:>9} {:>8} {:>6} {:>6} {:>10}  allocs/graph per window",
            "rate", "requests", "flushes", "full", "idle", "mean fill"
        );
        println!("{}", "-".repeat(88));
    }

    for &rate in &[0.25f64, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let clock = VirtualClock::new();
        let mut co = EncodeCoalescer::new(CoalescerConfig {
            max_batch: MAX_BATCH,
        });
        // the server's request channel: arrivals wait here while the worker
        // is inside a forward
        let mut channel = VecDeque::new();
        let mut busy_until = 0u64;
        let mut acc = 0.0f64;
        let mut submitted = 0usize;
        let mut window_allocs: Vec<f64> = Vec::new();
        let mut window_start_allocs = ALLOCS.load(Ordering::Relaxed);
        let mut window_start_encoded = 0usize;
        for tick in 0..TICKS {
            // deterministic arrivals: `rate` requests per tick on average
            acc += rate;
            while acc >= 1.0 {
                acc -= 1.0;
                channel.push_back((requests[submitted % requests.len()].clone(), clock.now()));
                submitted += 1;
            }
            if clock.now() >= busy_until && !channel.is_empty() {
                // a free worker drains the channel up to one full batch, or
                // to empty — at which point it is idle and flushes anyway
                let take = channel.len().min(MAX_BATCH);
                let tickets: Vec<_> = channel
                    .drain(..take)
                    .map(|(g, arrived)| co.enqueue(g, arrived))
                    .collect();
                co.note_flush_trigger(if take == MAX_BATCH {
                    FlushTrigger::Full
                } else {
                    FlushTrigger::Idle
                });
                let batch = co.begin_flush().expect("just enqueued");
                let rows = model.encoder().embed_batch(&batch.graphs());
                co.complete_flush(batch, rows);
                for t in tickets {
                    co.poll(t).expect("every row of the flush is ready");
                }
                busy_until = clock.now() + FORWARD_TICKS;
            }
            clock.advance(1);
            if (tick + 1) % (TICKS / WINDOWS as u64) == 0 {
                let allocs_now = ALLOCS.load(Ordering::Relaxed);
                let encoded_now = co.stats().encoded;
                let graphs = (encoded_now - window_start_encoded).max(1);
                window_allocs.push((allocs_now - window_start_allocs) as f64 / graphs as f64);
                window_start_allocs = allocs_now;
                window_start_encoded = encoded_now;
            }
        }
        let s = co.stats().clone();
        records.push(RateRecord {
            rate,
            requests: submitted,
            flushes: s.flushes,
            full_flushes: s.full_flushes,
            idle_flushes: s.idle_flushes,
            mean_fill: s.mean_batch_fill(),
            allocs_per_graph: window_allocs,
        });
    }

    if json {
        print_json(&records);
        return;
    }
    for r in &records {
        let windows: Vec<String> = r
            .allocs_per_graph
            .iter()
            .map(|a| format!("{a:>7.0}"))
            .collect();
        println!(
            "{:>9.2} {:>9} {:>8} {:>6} {:>6} {:>10.2}  {}",
            r.rate,
            r.requests,
            r.flushes,
            r.full_flushes,
            r.idle_flushes,
            r.mean_fill,
            windows.join(" ")
        );
    }
    println!(
        "\n(arrivals are a fractional accumulator — rate 0.5 = one request every \
         2 ticks; the\n virtual clock makes every row bit-reproducible. The worker encodes at most \
         {MAX_BATCH} per\n {FORWARD_TICKS} ticks: faster arrivals back up in the channel and \
         every flush is full)"
    );
}

/// Hand-rolled JSON (no serde in the workspace): stable key order, one
/// record per rate, floats with enough digits to diff meaningfully.
fn print_json(records: &[RateRecord]) {
    println!("{{");
    println!(
        "  \"meta\": {{\"max_batch\": {MAX_BATCH}, \"forward_ticks\": {FORWARD_TICKS}, \
         \"ticks\": {TICKS}, \"windows\": {WINDOWS}}},"
    );
    println!("  \"rates\": [");
    for (i, r) in records.iter().enumerate() {
        let windows: Vec<String> = r
            .allocs_per_graph
            .iter()
            .map(|a| format!("{a:.1}"))
            .collect();
        let comma = if i + 1 < records.len() { "," } else { "" };
        println!(
            "    {{\"rate\": {:.2}, \"requests\": {}, \"flushes\": {}, \"full_flushes\": {}, \
             \"idle_flushes\": {}, \"mean_fill\": {:.3}, \"allocs_per_graph\": [{}]}}{comma}",
            r.rate,
            r.requests,
            r.flushes,
            r.full_flushes,
            r.idle_flushes,
            r.mean_fill,
            windows.join(", ")
        );
    }
    println!("  ]");
    println!("}}");
}
