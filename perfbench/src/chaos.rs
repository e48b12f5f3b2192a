//! `chaos-er64`: self-stabilization under seeded fault plans.
//!
//! Each plan is `FaultPlan::lossy` (drops, duplicates and delays until
//! stage 24) plus one crash and restart, on an Erdős–Rényi n=64 graph.
//! One operation is `run_to_stable` plus `outcome_from_nodes`, the work
//! `protocol::run_chaos` does. Session sequencing, retransmits, resets and
//! crash recovery dominate; it is the only workload that runs
//! `bgp::chaos`.

use crate::gen::{self, SetupTimes};
use crate::layers::{Layers, SpanDump, Window};
use crate::node::{Epoch, TimedNode};
use crate::reference::Reference;
use crate::report::{LayerRun, Op, Report, TELEMETRY_ONLY};
use crate::stats::{mean, median, ratio};
use crate::Args;
use bgpvcg_bench::families::Family;
use bgpvcg_bgp::{ChaosEngine, ChaosReport, FaultPlan, ProtocolNode};
use bgpvcg_core::{protocol, PricingBgpNode, RoutingOutcome};
use bgpvcg_netgraph::AsGraph;
use std::time::{Duration, Instant};

const NODES: usize = 64;
/// Graphs and plans per run; operations cycle through all of them, which
/// averages out how much one seed's instance happens to cost.
const GRAPHS: usize = 6;
const PLANS_PER_GRAPH: usize = 2;
/// Set-ups timed per graph; `setup_s` is their median.
const SETUP_REPS: usize = 10;
/// Stage budget of one `run_to_stable`; every plan stabilizes far sooner.
const MAX_STAGES: u64 = 5_000;

struct Unit {
    graph: usize,
    plan: FaultPlan,
    /// The first plain run's report; every later run must repeat it.
    report: Option<ChaosReport>,
    traced: bool,
}

fn plain_op(unit: &mut Unit, graph: &AsGraph, reference: &RoutingOutcome) -> Op {
    let mut engine =
        protocol::build_chaos_engine(graph, unit.plan.clone()).expect("graph validated in set-up");
    let t = Instant::now();
    let report = engine.run_to_stable(MAX_STAGES);
    let nodes = engine.into_nodes();
    let outcome = protocol::outcome_from_nodes(&nodes);
    let seconds = t.elapsed().as_secs_f64();
    drop(nodes);
    let expected = *unit.report.get_or_insert(report);
    Op {
        seconds,
        ok: report.converged && report == expected && outcome.is_ok_and(|o| o == *reference),
    }
}

#[derive(Default)]
struct Extra {
    extract_s: Vec<f64>,
    state_entries: Vec<f64>,
}

fn traced_op(
    unit: &mut Unit,
    graph: &AsGraph,
    reference: &RoutingOutcome,
    epoch: Epoch,
    layers: &mut Layers,
    dump: &mut SpanDump,
    extra: &mut Extra,
) -> Op {
    let nodes = TimedNode::wrap(PricingBgpNode::from_graph(graph), epoch);
    let mut engine = ChaosEngine::new(graph, nodes, unit.plan.clone());
    let t0 = epoch.now();
    let report = engine.run_to_stable(MAX_STAGES);
    let t1 = epoch.now();
    let canonical = !unit.traced;
    unit.traced = true;
    if canonical {
        let cells: usize = engine.nodes().map(|n| n.state().total_cells()).sum();
        extra.state_entries.push(cells as f64);
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

    let window = Window {
        start: t0,
        end: t1,
        stage_ends: Vec::new(),
        stages: report.stages,
        workers: 1,
    };
    layers.add(&window, &spans, canonical);
    dump.record((t0, t4), &window, &spans, Some((t3, t4)));
    extra.extract_s.push((t4 - t3) as f64 / 1e9);
    // Transparency: the wrapped run must repeat the plain run exactly.
    let expected = *unit.report.get_or_insert(report);
    Op {
        seconds: ((t1 - t0) + (t4 - t2)) as f64 / 1e9,
        ok: report.converged && report == expected && outcome.is_ok_and(|o| o == *reference),
    }
}

/// Every graph with its fault plans, each graph set up `SETUP_REPS` times,
/// and the set-up times.
pub fn set_up(seed: u64) -> (Vec<(AsGraph, Vec<FaultPlan>)>, SetupTimes) {
    let mut times = SetupTimes::default();
    let graphs = (0..GRAPHS)
        .map(|g| {
            let plans: Vec<FaultPlan> = (0..PLANS_PER_GRAPH)
                .map(|p| gen::chaos_plan(seed, g * PLANS_PER_GRAPH + p, NODES))
                .collect();
            let key = (Family::ErdosRenyi, NODES, seed, g);
            let (graph, _) = times.set_up(key, SETUP_REPS, |graph| {
                protocol::build_chaos_engine(graph, plans[0].clone()).expect("graph validated")
            });
            (graph, plans)
        })
        .collect();
    (graphs, times)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut reference = Reference::default();
    let (set_up_graphs, mut times) = set_up(args.seed);
    if !args.trace {
        times.setup_s.extend(crate::probe_set_ups(args));
    }
    let mut units = Vec::new();
    let mut graphs = Vec::new();
    // References only after every set-up, so no set-up pays for freeing
    // one.
    for (g, (graph, plans)) in set_up_graphs.into_iter().enumerate() {
        let outcome = reference.compute(&graph, args.trace);
        graphs.push((graph, outcome));
        units.extend(plans.into_iter().map(|plan| Unit {
            graph: g,
            plan,
            report: None,
            traced: false,
        }));
    }

    let epoch = Epoch::new();
    let mut layers = Layers::default();
    let mut dump = SpanDump::default();
    let mut extra = Extra::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut i = 0;
    while i < units.len() || start.elapsed() < budget {
        let count = units.len();
        let unit = &mut units[i % count];
        let (graph, expected) = &graphs[unit.graph];
        // Alternate which runs first, so neither always runs on a heap the
        // other just warmed.
        let order: &[bool] = match (args.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            _ => &[true, false],
        };
        for &traced in order {
            let op = if traced {
                traced_op(
                    unit,
                    graph,
                    expected,
                    epoch,
                    &mut layers,
                    &mut dump,
                    &mut extra,
                )
            } else {
                plain_op(unit, graph, expected)
            };
            report.check(op.ok);
            if traced {
                traced_s.push(op.seconds);
            } else {
                plain_s.push(op.seconds);
            }
        }
        i += 1;
    }

    let op_p50 = median(&plain_s);
    report.note(format!(
        "chaos: {} recoveries over {} plans; recover_s_p50 = {op_p50} s (n={})",
        plain_s.len(),
        units.len(),
        plain_s.len()
    ));
    let per_plan = |f: fn(&ChaosReport) -> u64| -> f64 {
        let reports: Vec<f64> = units
            .iter()
            .filter_map(|u| u.report.as_ref())
            .map(|r| f(r) as f64)
            .collect();
        mean(&reports)
    };
    let per_op = [
        per_plan(|r| r.stages),
        per_plan(|r| r.messages),
        per_plan(|r| r.bytes_v2),
    ];
    report.note_counts(per_op);
    if !args.trace {
        report.set_end_to_end(&times.setup_s, &plain_s, per_op);
        return report;
    }

    if let Some(path) = &args.spans_out {
        dump.write(path).expect("span dump is writable");
    }
    report.set_layers(LayerRun {
        layers: &layers,
        build_s: &times.build_s,
        state_entries: &extra.state_entries,
        nodes: NODES,
        engines: 1,
        extract_s: &extra.extract_s,
        reference: &reference,
        plain_s: &plain_s,
        traced_s: &traced_s,
    });
    report.set_zero(&TELEMETRY_ONLY);
    report.set("chaos.retransmits", per_plan(|r| r.retransmits));
    report.set("chaos.frames_dropped", per_plan(|r| r.frames_dropped));
    report.set("chaos.session_resets", per_plan(|r| r.session_resets));
    report.set("chaos.recovery_stages", per_plan(|r| r.recovery_stages));
    report.set(
        "chaos.retransmit_ratio",
        ratio(per_plan(|r| r.retransmits), per_plan(|r| r.messages)),
    );
    report
}
