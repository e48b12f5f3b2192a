//! Repeated cold pricing convergences: `cold-ba256` (bare serial engine)
//! and `observed-hier256` (two workers with the observer stack attached).
//!
//! One operation is `run_to_convergence` on a freshly built engine plus
//! `outcome_from_nodes`, the work `protocol::run_sync` does. Engine
//! construction is set-up and is not timed with the operation.

use crate::gen::SetupTimes;
use crate::layers::{Layers, SpanDump, Window};
use crate::node::{Epoch, TimedNode};
use crate::reference::Reference;
use crate::report::{LayerRun, Op, Report, CHAOS_ONLY, TELEMETRY_ONLY};
use crate::stats::{mean, median, ratio};
use crate::Args;
use bgpvcg_bench::families::Family;
use bgpvcg_bgp::engine::{RunReport, SyncEngine};
use bgpvcg_bgp::ProtocolNode;
use bgpvcg_core::{protocol, PricingBgpNode, RoutingOutcome};
use bgpvcg_netgraph::AsGraph;
use bgpvcg_telemetry::{HealthConfig, RingBufferSink, Telemetry};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    family: Family,
    nodes: usize,
    /// Graphs per run; operations cycle through them, which averages out
    /// how much one seed's graph happens to cost.
    graphs: usize,
    workers: usize,
    observed: bool,
}

/// BA n=256 on the bare serial engine: the deepest convergence (about
/// ten stages) with full tables and long price arrays, where the `node`
/// layer does nearly all the work and the pool, telemetry and chaos
/// layers do none.
pub const COLD_BA256: Spec = Spec {
    family: Family::BarabasiAlbert,
    nodes: 256,
    graphs: 4,
    workers: 1,
    observed: false,
};

/// A two-tier hierarchy n=256 on two workers with a ring trace sink, the
/// health monitor and the span profiler attached: shallow and wide, the
/// only workload that runs the worker pool, the serial merge and the
/// observer stack.
pub const OBSERVED_HIER256: Spec = Spec {
    family: Family::Hierarchy,
    nodes: 256,
    graphs: 3,
    workers: 2,
    observed: true,
};

/// Set-ups timed per graph; `setup_s` is their median.
const SETUP_REPS: usize = 10;
const RING_CAPACITY: usize = 1 << 16;

/// How one operation is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The workload as users run it.
    Plain,
    /// Same, with the engine's own observers detached (the baseline of
    /// `telemetry.overhead_frac`).
    Bare,
    /// Same as `Plain`, with every node call timed.
    Traced,
}

struct Unit {
    graph: AsGraph,
    reference: RoutingOutcome,
    /// The first plain run's report; every later run must repeat it.
    report: Option<RunReport>,
    traced: bool,
}

/// Attaches the workload's observers for `mode`; returns the trace ring.
fn observe<N: ProtocolNode>(
    engine: &mut SyncEngine<N>,
    spec: Spec,
    mode: Mode,
) -> Option<Arc<RingBufferSink>> {
    if !spec.observed || mode == Mode::Bare {
        return None;
    }
    let (telemetry, ring) = Telemetry::ring(RING_CAPACITY);
    engine.attach_telemetry(&telemetry);
    engine.attach_health(HealthConfig::default());
    engine.attach_profiler();
    Some(ring)
}

fn health_findings<N: ProtocolNode>(engine: &SyncEngine<N>) -> usize {
    engine.health_sink().map_or(0, |h| h.findings().len())
}

fn plain_op(unit: &mut Unit, spec: Spec, mode: Mode) -> Op {
    let mut engine = protocol::build_sync_engine_parallel(&unit.graph, spec.workers)
        .expect("graph validated in set-up");
    let _ring = observe(&mut engine, spec, mode);
    let t0 = Instant::now();
    let report = engine.run_to_convergence();
    let engine_s = t0.elapsed().as_secs_f64();
    let findings = health_findings(&engine);
    let t1 = Instant::now();
    let nodes = engine.into_nodes();
    let outcome = protocol::outcome_from_nodes(&nodes);
    let seconds = engine_s + t1.elapsed().as_secs_f64();
    drop(nodes);
    let expected = *unit.report.get_or_insert(report);
    Op {
        seconds,
        ok: report.converged
            && findings == 0
            && report == expected
            && outcome.is_ok_and(|o| o == unit.reference),
    }
}

/// What a traced operation adds to the run's layer metrics.
#[derive(Default)]
struct Extra {
    extract_s: Vec<f64>,
    state_entries: Vec<f64>,
    telemetry_events: Vec<f64>,
}

fn traced_op(
    unit: &mut Unit,
    spec: Spec,
    epoch: Epoch,
    layers: &mut Layers,
    dump: &mut SpanDump,
    extra: &mut Extra,
) -> Op {
    let nodes = TimedNode::wrap(PricingBgpNode::from_graph(&unit.graph), epoch);
    let mut engine = SyncEngine::new(&unit.graph, nodes).with_parallelism(spec.workers);
    let ring = observe(&mut engine, spec, Mode::Traced);
    let stage_ends = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&stage_ends);
    engine.set_stage_observer(Box::new(move |_, _| {
        sink.lock().expect("stage clock poisoned").push(epoch.now());
    }));

    let t0 = epoch.now();
    let report = engine.run_to_convergence();
    let t1 = epoch.now();
    let findings = health_findings(&engine);
    let canonical = !unit.traced;
    unit.traced = true;
    if canonical {
        let cells: usize = engine
            .state_snapshots()
            .iter()
            .map(|s| s.total_cells())
            .sum();
        extra.state_entries.push(cells as f64);
        if let Some(ring) = &ring {
            extra.telemetry_events.push(ring.total_recorded() as f64);
        }
    }
    let mut spans = Vec::new();
    engine.nodes().for_each(|n| n.drain(&mut spans));

    let t2 = epoch.now();
    let nodes: Vec<PricingBgpNode> = engine
        .into_nodes()
        .into_iter()
        .map(TimedNode::into_inner)
        .collect();
    let t3 = epoch.now();
    let outcome = protocol::outcome_from_nodes(&nodes);
    let t4 = epoch.now();
    drop(nodes);

    let stage_ends = std::mem::take(&mut *stage_ends.lock().expect("stage clock poisoned"));
    let window = Window {
        start: t0,
        end: t1,
        stages: stage_ends.len() as u64,
        stage_ends,
        workers: spec.workers,
    };
    layers.add(&window, &spans, canonical);
    dump.record((t0, t4), &window, &spans, Some((t3, t4)));
    extra.extract_s.push((t4 - t3) as f64 / 1e9);
    // Transparency: the wrapped run must repeat the plain run exactly.
    let expected = *unit.report.get_or_insert(report);
    Op {
        seconds: ((t1 - t0) + (t4 - t2)) as f64 / 1e9,
        ok: report.converged
            && findings == 0
            && report == expected
            && outcome.is_ok_and(|o| o == unit.reference),
    }
}

/// Sets up every graph of the workload `SETUP_REPS` times; returns the
/// graphs and the set-up times.
pub fn set_up(spec: Spec, seed: u64) -> (Vec<AsGraph>, SetupTimes) {
    let mut setup = SetupTimes::default();
    let graphs = (0..spec.graphs)
        .map(|i| {
            let key = (spec.family, spec.nodes, seed, i);
            setup
                .set_up(key, SETUP_REPS, |g| {
                    protocol::build_sync_engine_parallel(g, spec.workers).expect("graph validated")
                })
                .0
        })
        .collect();
    (graphs, setup)
}

pub fn run(spec: Spec, args: &Args) -> Report {
    let mut report = Report::default();
    let mut reference = Reference::default();
    let (graphs, mut setup) = set_up(spec, args.seed);
    if !args.trace {
        setup.setup_s.extend(crate::probe_set_ups(args));
    }
    // References only after every set-up, so no set-up pays for freeing
    // one.
    let mut units: Vec<Unit> = graphs
        .into_iter()
        .map(|graph| Unit {
            reference: reference.compute(&graph, args.trace),
            graph,
            report: None,
            traced: false,
        })
        .collect();

    let epoch = Epoch::new();
    let mut layers = Layers::default();
    let mut dump = SpanDump::default();
    let mut extra = Extra::default();
    let mut times: Vec<(Mode, f64)> = Vec::new();
    let modes: &[Mode] = match (args.trace, spec.observed) {
        (false, _) => &[Mode::Plain],
        (true, false) => &[Mode::Plain, Mode::Traced],
        (true, true) => &[Mode::Plain, Mode::Traced, Mode::Bare],
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut i = 0;
    while i < units.len() || start.elapsed() < budget {
        let unit = &mut units[i % spec.graphs];
        // Rotate which mode runs first, so none always runs on a cache
        // the previous one warmed.
        for k in 0..modes.len() {
            let mode = modes[(i + k) % modes.len()];
            let op = match mode {
                Mode::Traced => traced_op(unit, spec, epoch, &mut layers, &mut dump, &mut extra),
                _ => plain_op(unit, spec, mode),
            };
            report.check(op.ok);
            times.push((mode, op.seconds));
        }
        i += 1;
    }
    let seconds_of =
        |m: Mode| -> Vec<f64> { times.iter().filter(|t| t.0 == m).map(|t| t.1).collect() };
    let plain = seconds_of(Mode::Plain);
    let op_p50 = median(&plain);
    let pairs = (spec.nodes * (spec.nodes - 1)) as f64;
    let name = if spec.observed { "observed" } else { "cold" };
    report.note(format!(
        "{name}: {} ops on {} graphs; converge_s_p50 = {op_p50} s (n={}); pairs_per_s = {} 1/s",
        plain.len(),
        spec.graphs,
        plain.len(),
        ratio(pairs * plain.len() as f64, plain.iter().sum())
    ));

    let per_graph = |f: fn(&RunReport) -> usize| -> f64 {
        mean(
            &units
                .iter()
                .filter_map(|u| u.report.as_ref())
                .map(|r| f(r) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let per_op = [
        per_graph(|r| r.stages),
        per_graph(|r| r.messages),
        per_graph(|r| r.bytes_v2),
    ];
    report.note_counts(per_op);
    if !args.trace {
        report.set_end_to_end(&setup.setup_s, &plain, per_op);
        return report;
    }

    if let Some(path) = &args.spans_out {
        dump.write(path).expect("span dump is writable");
    }
    report.set_layers(LayerRun {
        layers: &layers,
        build_s: &setup.build_s,
        state_entries: &extra.state_entries,
        nodes: spec.nodes,
        engines: 1,
        extract_s: &extra.extract_s,
        reference: &reference,
        plain_s: &plain,
        traced_s: &seconds_of(Mode::Traced),
    });
    if spec.observed {
        report.set("telemetry.events", mean(&extra.telemetry_events));
        report.set(
            "telemetry.overhead_frac",
            op_p50 / median(&seconds_of(Mode::Bare)) - 1.0,
        );
    } else {
        report.set_zero(&TELEMETRY_ONLY);
    }
    report.set_zero(&CHAOS_ONLY);
    report
}
