//! The metric names `BENCHMARK.json` declares, and the result printer.

use crate::layers::Layers;
use crate::reference::Reference;
use crate::stats::{mean, median, ratio};
use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("stages_per_op", "count"),
    ("messages_per_op", "count"),
    ("wire_bytes_v2_per_op", "bytes"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("netgraph.build_s", "s"),
    ("node.handle_calls", "count"),
    ("node.entries_in", "count"),
    ("node.handle_s", "s"),
    ("node.handle_us_p50", "us"),
    ("node.handle_us_p99", "us"),
    ("node.ns_per_entry", "ns"),
    ("node.emit_ratio", "ratio"),
    ("node.share", "ratio"),
    ("node.control_s", "s"),
    ("node.event_calls", "count"),
    ("node.reset_calls", "count"),
    ("node.state_entries", "count"),
    ("node.rss_bytes_per_pair", "bytes"),
    ("engine.stage_s", "s"),
    ("engine.self_s", "s"),
    ("engine.self_frac", "ratio"),
    ("engine.receiving_per_stage", "count"),
    ("engine.stages_per_op", "count"),
    ("pool.busy_frac", "ratio"),
    ("pool.imbalance", "ratio"),
    ("pool.serial_frac", "ratio"),
    ("wire.encode_calls", "count"),
    ("wire.bytes_v2", "bytes"),
    ("wire.encode_s", "s"),
    ("wire.ns_per_byte", "ns"),
    ("extract.s", "s"),
    ("telemetry.events", "count"),
    ("telemetry.overhead_frac", "ratio"),
    ("chaos.retransmits", "count"),
    ("chaos.frames_dropped", "count"),
    ("chaos.session_resets", "count"),
    ("chaos.recovery_stages", "count"),
    ("chaos.retransmit_ratio", "ratio"),
    ("lcp.all_pairs_s", "s"),
    ("lcp.avoidance_s", "s"),
    ("vcg.compute_s", "s"),
    ("vcg.ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One timed operation and whether every check on it passed.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub seconds: f64,
    pub ok: bool,
}

/// Metrics of layers that only one workload runs.
pub const TELEMETRY_ONLY: [&str; 2] = ["telemetry.events", "telemetry.overhead_frac"];
pub const CHAOS_ONLY: [&str; 5] = [
    "chaos.retransmits",
    "chaos.frames_dropped",
    "chaos.session_resets",
    "chaos.recovery_stages",
    "chaos.retransmit_ratio",
];

/// What the traced run of a workload measured, for the per-layer metrics
/// every workload derives the same way.
#[derive(Debug)]
pub struct LayerRun<'a> {
    pub layers: &'a Layers,
    /// `netgraph` samples: graph generation plus validation.
    pub build_s: &'a [f64],
    /// Σ `StateSnapshot::total_cells` at convergence, per graph or plan.
    pub state_entries: &'a [f64],
    pub nodes: usize,
    /// Engines the traced process holds at once.
    pub engines: usize,
    pub extract_s: &'a [f64],
    pub reference: &'a Reference,
    /// Untraced and traced operation times, on the same inputs.
    pub plain_s: &'a [f64],
    pub traced_s: &'a [f64],
}

/// One run's result: failure accounting, metrics, and human-readable
/// notes printed above the JSON line.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(
            self.values.insert(name, value).is_none(),
            "{name} set twice"
        );
    }

    /// Sets metrics of layers this workload does not run.
    pub fn set_zero(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
        }
    }

    /// Sets the end-to-end metrics from the set-up samples, the operation
    /// times, and the exact per-operation counts `[stages, messages, wire
    /// bytes]`.
    pub fn set_end_to_end(&mut self, setup_s: &[f64], op_s: &[f64], per_op: [f64; 3]) {
        self.set("setup_s", median(setup_s));
        self.set("op_ms_p50", median(op_s) * 1e3);
        self.set("ops_per_s", ratio(op_s.len() as f64, op_s.iter().sum()));
        self.set("peak_rss_mb", peak_rss_mb());
        self.set("stages_per_op", per_op[0]);
        self.set("messages_per_op", per_op[1]);
        self.set("wire_bytes_v2_per_op", per_op[2]);
    }

    pub fn set_layers(&mut self, run: LayerRun<'_>) {
        for (name, value) in run.layers.metrics() {
            self.set(name, value);
        }
        let op_s = median(run.plain_s);
        self.set("netgraph.build_s", median(run.build_s));
        self.set("node.state_entries", mean(run.state_entries));
        self.set(
            "node.rss_bytes_per_pair",
            peak_rss_mb() * 1024.0 * 1024.0 / (run.engines * run.nodes * run.nodes) as f64,
        );
        self.set("extract.s", median(run.extract_s));
        run.reference.set_metrics(self, op_s);
        self.set("trace.overhead_frac", median(run.traced_s) / op_s - 1.0);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Notes the exact per-operation counts `[stages, messages, wire
    /// bytes]`, which traced operations must repeat.
    pub fn note_counts(&mut self, per_op: [f64; 3]) {
        self.note(format!(
            "per operation: stages = {}, messages = {}, wire_bytes_v2 = {} (exact; traced operations repeat them)",
            per_op[0], per_op[1], per_op[2]
        ));
    }

    /// Prints the notes, one line per metric, and then — as the last line
    /// of standard output — the JSON result.
    ///
    /// # Panics
    ///
    /// Panics if the metrics set differ from the declared list.
    pub fn print(&self, traced: bool) {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut names: Vec<&str> = self.values.keys().copied().collect();
        let mut want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want, "metrics set differ from the declared list");

        for note in &self.notes {
            println!("{note}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_frac = {failed_frac} ratio ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let mut json = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = self.values[name];
            println!("{name} = {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            json.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        );
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}
