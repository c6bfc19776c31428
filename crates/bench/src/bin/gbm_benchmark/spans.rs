//! Spans the benchmark records *around* its calls into each layer.
//!
//! One [`SpanBuf`] per load-generating thread, no lock on the hot path;
//! buffers are merged after the window, turned into the per-layer means
//! and the ledger, and written to `trace-<workload>.jsonl`. With tracing
//! off a buffer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one op share `op`; `parent` is the `id` of
/// the span that caused this one.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread's span recorder. All buffers of a run share one `epoch`, so
/// their timestamps are comparable.
pub struct SpanBuf {
    epoch: Instant,
    thread: u64,
    next: u64,
    on: bool,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer for `thread`; `on = false` makes every call a no-op.
    pub fn new(epoch: Instant, thread: u64, on: bool) -> SpanBuf {
        SpanBuf {
            epoch,
            thread,
            next: 0,
            on,
            spans: Vec::new(),
        }
    }

    /// Switches recording (the traced run alternates traced and untraced
    /// slices inside one window to measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the shared epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves the id of a span that will be recorded later (a root span
    /// whose children need its id first).
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 48) | self.next
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                op,
                id,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            let id = self.reserve();
            self.record_as(id, name, op, parent, start_ns, end_ns);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, op, parent, start, end);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// The four layer groups the ledger attributes an op to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    CompilerSide,
    Encode,
    Scan,
    WritePath,
}

/// Which group a child span of an op belongs to (`None`: counted as
/// covered, attributed to no group — load-generator waits, training).
pub fn group_of(name: &str) -> Option<Group> {
    match name {
        "frontends.compile"
        | "binary.object_decode"
        | "binary.decompile"
        | "progml.build_graph"
        | "tokenizer.encode_graph" => Some(Group::CompilerSide),
        "serve.encode_rtt" => Some(Group::Encode),
        "serve.query" => Some(Group::Scan),
        "serve.insert_ack" | "serve.remove_ack" => Some(Group::WritePath),
        _ => None,
    }
}

/// Name of every op's root span.
pub const OP: &str = "op";

/// Where an op's time went, as shares of the mean op.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ledger {
    pub ops: usize,
    pub op_us: f64,
    pub covered_pct: f64,
    pub compiler_side_pct: f64,
    pub encode_pct: f64,
    pub scan_pct: f64,
    pub write_path_pct: f64,
}

/// Builds the ledger from root spans named [`OP`] and the self times of
/// their direct children.
pub fn ledger(spans: &[Span]) -> Ledger {
    let selfs = self_times(spans);
    let roots: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == OP && s.parent.is_none())
        .map(|s| (s.id, s.dur_ns()))
        .collect();
    let op_total: u64 = roots.values().sum();
    if op_total == 0 {
        return Ledger::default();
    }
    let mut covered = 0u64;
    let mut by_group = [0u64; 4];
    for s in spans {
        if s.parent.is_some_and(|p| roots.contains_key(&p)) {
            let t = selfs[&s.id];
            covered += t;
            if let Some(g) = group_of(s.name) {
                by_group[g as usize] += t;
            }
        }
    }
    let pct = |ns: u64| 100.0 * ns as f64 / op_total as f64;
    Ledger {
        ops: roots.len(),
        op_us: op_total as f64 / roots.len() as f64 / 1e3,
        covered_pct: pct(covered),
        compiler_side_pct: pct(by_group[Group::CompilerSide as usize]),
        encode_pct: pct(by_group[Group::Encode as usize]),
        scan_pct: pct(by_group[Group::Scan as usize]),
        write_path_pct: pct(by_group[Group::WritePath as usize]),
    }
}

/// Mean duration of the spans called `name`, in nanoseconds (`0` if none).
pub fn mean_ns(spans: &[Span], name: &str) -> f64 {
    let (sum, n) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(sum, n), s| (sum + s.dur_ns(), n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.id, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            id,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(OP, 1, None, 0, 100),
            span("binary.decompile", 2, Some(1), 10, 40),
            // overlaps the first child by 10 and runs past the parent's end
            span("serve.query", 3, Some(1), 30, 120),
            // grandchild: only its own parent's self time shrinks
            span("inner", 4, Some(2), 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 90, "children cover [10, 100)");
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 90);
        assert_eq!(selfs[&4], 5);
    }

    #[test]
    fn ledger_attributes_child_self_times_to_groups() {
        let spans = vec![
            span(OP, 1, None, 0, 1000),
            span("binary.decompile", 2, Some(1), 0, 100),
            span("serve.encode_rtt", 3, Some(1), 100, 800),
            span("serve.query", 4, Some(1), 800, 950),
            span(OP, 5, None, 2000, 3000),
            span("serve.insert_ack", 6, Some(5), 2000, 2500),
            span("loadgen.wait", 7, Some(5), 2500, 2600),
        ];
        let l = ledger(&spans);
        assert_eq!(l.ops, 2);
        assert_eq!(l.op_us, 1.0);
        assert!((l.covered_pct - 100.0 * 1550.0 / 2000.0).abs() < 1e-9);
        assert!((l.compiler_side_pct - 5.0).abs() < 1e-9);
        assert!((l.encode_pct - 35.0).abs() < 1e-9);
        assert!((l.scan_pct - 7.5).abs() < 1e-9);
        assert!((l.write_path_pct - 25.0).abs() < 1e-9);
        assert_eq!(ledger(&[]), Ledger::default());
        assert_eq!(mean_ns(&spans, OP), 1000.0);
        assert_eq!(mean_ns(&spans, "absent"), 0.0);
    }

    #[test]
    fn a_buffer_that_is_off_records_nothing() {
        let mut buf = SpanBuf::new(Instant::now(), 3, false);
        assert_eq!(buf.time("x", 0, None, || 7), 7);
        buf.record("y", 0, None, 1, 2);
        buf.set_on(true);
        let root = buf.reserve();
        buf.time("child", 9, Some(root), || ());
        let end = buf.now();
        buf.record_as(root, OP, 9, None, 0, end);
        let spans = buf.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(root));
        assert_eq!(spans[1].id, root);
        assert_eq!(root >> 48, 3, "ids carry the thread tag");
    }
}
