//! Per-layer aggregation of the spans one traced operation produced, and
//! the span dump written when the run ends.
//!
//! A layer's self time is its span's duration minus the union of the
//! intervals its children cover; the union matters because the parallel
//! engine's worker spans overlap.

use crate::node::{Kind, NodeSpan};
use crate::stats::{median, quantile, ratio};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The engine call of one traced operation.
#[derive(Debug)]
pub struct Window {
    pub start: u64,
    pub end: u64,
    /// Stage ends reported by the engine's stage observer (empty for the
    /// chaos engine, whose stages cannot be observed from outside).
    pub stage_ends: Vec<u64>,
    /// Stages executed: observed stage ends, or the chaos report's count.
    pub stages: u64,
    pub workers: usize,
}

impl Window {
    /// `[start, end]` cut at every stage end: one segment per stage plus
    /// the tail after the last one.
    fn segments(&self) -> Vec<(u64, u64)> {
        let mut edges = vec![self.start];
        edges.extend(
            self.stage_ends
                .iter()
                .copied()
                .filter(|&t| t > self.start && t < self.end),
        );
        edges.push(self.end);
        edges.windows(2).map(|w| (w[0], w[1])).collect()
    }

    fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Work counts, summed over operations.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    ops: u64,
    handle_calls: u64,
    entries_in: u64,
    emits: u64,
    event_calls: u64,
    reset_calls: u64,
    wire_calls: u64,
    wire_bytes: u64,
    stages: u64,
}

impl Counts {
    fn absorb(&mut self, o: &Counts) {
        self.ops += o.ops;
        self.handle_calls += o.handle_calls;
        self.entries_in += o.entries_in;
        self.emits += o.emits;
        self.event_calls += o.event_calls;
        self.reset_calls += o.reset_calls;
        self.wire_calls += o.wire_calls;
        self.wire_bytes += o.wire_bytes;
        self.stages += o.stages;
    }

    fn per_op(&self, value: u64) -> f64 {
        ratio(value as f64, self.ops as f64)
    }
}

/// Everything the traced operations of one run add up to.
#[derive(Debug, Default)]
pub struct Layers {
    /// Counts of every operation (for ratios).
    all: Counts,
    /// Counts of the canonical operations only: the first run of each
    /// graph or plan, or the first events of the churn stream. These
    /// repeat exactly for a seed, whatever the run length.
    canon: Counts,
    handle_ns: Vec<f64>,
    handle_s: Vec<f64>,
    control_s: Vec<f64>,
    engine_s: Vec<f64>,
    self_s: Vec<f64>,
    wire_s: Vec<f64>,
    handle_total: u64,
    wire_total: u64,
    engine_total: u64,
    self_total: u64,
    serial_total: u64,
    pool_capacity: f64,
    busiest: f64,
    even_share: f64,
}

impl Layers {
    /// Folds the spans of one operation's engine call.
    pub fn add(&mut self, w: &Window, spans: &[NodeSpan], canonical: bool) {
        let mut c = Counts {
            ops: 1,
            stages: w.stages,
            ..Counts::default()
        };
        let (mut handle, mut control, mut wire) = (0u64, 0u64, 0u64);
        for s in spans {
            match s.kind {
                Kind::Handle => {
                    c.handle_calls += 1;
                    c.entries_in += u64::from(s.count);
                    c.emits += u64::from(s.emitted);
                    handle += s.nanos();
                    self.handle_ns.push(s.nanos() as f64);
                }
                Kind::Wire => {
                    c.wire_calls += 1;
                    c.wire_bytes += u64::from(s.count);
                    wire += s.nanos();
                }
                Kind::Event | Kind::Reset | Kind::Start | Kind::FullTable => {
                    c.event_calls += u64::from(s.kind == Kind::Event);
                    c.reset_calls += u64::from(s.kind == Kind::Reset);
                    control += s.nanos();
                }
            }
        }
        let all_spans: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
        let handle_spans: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.kind == Kind::Handle)
            .map(|s| (s.start, s.end))
            .collect();
        let wall = w.nanos();
        let self_ns = wall - covered(all_spans, w.start, w.end);
        self.serial_total += wall - covered(handle_spans, w.start, w.end);

        for (lo, hi) in w.segments() {
            let mut per_thread: BTreeMap<u32, u64> = BTreeMap::new();
            for s in spans.iter().filter(|s| s.kind == Kind::Handle) {
                if s.start >= lo && s.start < hi {
                    *per_thread.entry(s.thread).or_default() += s.nanos();
                }
            }
            let total: u64 = per_thread.values().sum();
            self.busiest += per_thread.values().copied().max().unwrap_or(0) as f64;
            self.even_share += total as f64 / w.workers as f64;
        }

        self.handle_s.push(handle as f64 / 1e9);
        self.control_s.push(control as f64 / 1e9);
        self.wire_s.push(wire as f64 / 1e9);
        self.engine_s.push(wall as f64 / 1e9);
        self.self_s.push(self_ns as f64 / 1e9);
        self.handle_total += handle;
        self.wire_total += wire;
        self.engine_total += wall;
        self.self_total += self_ns;
        self.pool_capacity += (w.workers as u64 * wall) as f64;
        self.all.absorb(&c);
        if canonical {
            self.canon.absorb(&c);
        }
    }

    /// The `node`, `engine`, `pool` and `wire` metrics, in
    /// `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let (all, canon) = (&self.all, &self.canon);
        let engine = self.engine_total as f64;
        vec![
            ("node.handle_calls", canon.per_op(canon.handle_calls)),
            ("node.entries_in", canon.per_op(canon.entries_in)),
            ("node.handle_s", median(&self.handle_s)),
            ("node.handle_us_p50", quantile(&self.handle_ns, 0.5) / 1e3),
            ("node.handle_us_p99", quantile(&self.handle_ns, 0.99) / 1e3),
            (
                "node.ns_per_entry",
                ratio(self.handle_total as f64, all.entries_in as f64),
            ),
            (
                "node.emit_ratio",
                ratio(all.emits as f64, all.handle_calls as f64),
            ),
            ("node.share", ratio(self.handle_total as f64, engine)),
            ("node.control_s", median(&self.control_s)),
            ("node.event_calls", canon.per_op(canon.event_calls)),
            ("node.reset_calls", canon.per_op(canon.reset_calls)),
            ("engine.stage_s", median(&self.engine_s)),
            ("engine.self_s", median(&self.self_s)),
            ("engine.self_frac", ratio(self.self_total as f64, engine)),
            (
                "engine.receiving_per_stage",
                ratio(canon.handle_calls as f64, canon.stages as f64),
            ),
            ("engine.stages_per_op", canon.per_op(canon.stages)),
            (
                "pool.busy_frac",
                ratio(self.handle_total as f64, self.pool_capacity),
            ),
            ("pool.imbalance", ratio(self.busiest, self.even_share)),
            ("pool.serial_frac", ratio(self.serial_total as f64, engine)),
            ("wire.encode_calls", canon.per_op(canon.wire_calls)),
            ("wire.bytes_v2", canon.per_op(canon.wire_bytes)),
            ("wire.encode_s", median(&self.wire_s)),
            (
                "wire.ns_per_byte",
                ratio(self.wire_total as f64, all.wire_bytes as f64),
            ),
        ]
    }
}

/// The spans of the first few traced operations, written out as JSON
/// lines (`id`, `parent`, `name`, `thread`, `start_ns`, `end_ns`) when the
/// run ends.
#[derive(Debug, Default)]
pub struct SpanDump {
    out: String,
    next_id: u64,
    ops: usize,
}

impl SpanDump {
    /// Operations whose spans are kept; later ones only feed [`Layers`].
    const KEEP_OPS: usize = 4;

    fn push(&mut self, parent: u64, name: &str, thread: u32, start: u64, end: u64) -> u64 {
        self.next_id += 1;
        let _ = writeln!(
            self.out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{name}\",\"thread\":{thread},\"start_ns\":{start},\"end_ns\":{end}}}",
            self.next_id
        );
        self.next_id
    }

    /// Records one operation: its whole extent `op`, the engine call with
    /// its stages and node spans, and the outcome extraction, if any.
    pub fn record(
        &mut self,
        op: (u64, u64),
        w: &Window,
        spans: &[NodeSpan],
        extract: Option<(u64, u64)>,
    ) {
        if self.ops >= Self::KEEP_OPS {
            return;
        }
        self.ops += 1;
        let main = crate::node::thread_index();
        let root = self.push(0, "op", main, op.0, op.1);
        let engine = self.push(root, "engine", main, w.start, w.end);
        let segments: Vec<(u64, (u64, u64))> = w
            .segments()
            .into_iter()
            .map(|(lo, hi)| (self.push(engine, "engine.stage", main, lo, hi), (lo, hi)))
            .collect();
        for s in spans {
            let parent = segments
                .iter()
                .find(|(_, (lo, hi))| s.start >= *lo && s.start < *hi)
                .map_or(engine, |(id, _)| *id);
            self.push(parent, s.kind.name(), s.thread, s.start, s.end);
        }
        if let Some((lo, hi)) = extract {
            self.push(root, "extract", main, lo, hi);
        }
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, &self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::covered;

    #[test]
    fn covered_counts_overlaps_once_and_clips_to_the_window() {
        let spans = vec![(5, 15), (0, 4), (10, 20), (12, 13), (30, 40)];
        assert_eq!(covered(spans, 2, 35), 2 + 15 + 5);
        assert_eq!(covered(Vec::new(), 0, 10), 0);
    }
}
