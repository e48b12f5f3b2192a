//! `churn-ba128`: seeded streams of topology events on warm serial
//! engines.
//!
//! Set-up is one cold convergence per BA n=128 graph. Each operation is
//! one `try_apply_event` — inject the event and reconverge — on a warm
//! engine. The stream exercises the incremental dirty-set path: the
//! `node` layer touches small dirty sets, so per-event and per-stage
//! fixed costs in the `engine` layer weigh far more than in
//! `cold-ba256`. A change that speeds full-table builds but slows
//! incremental updates shows here.

use crate::gen::{self, ChurnStream, SetupTimes};
use crate::layers::{Layers, SpanDump, Window};
use crate::node::{Epoch, NodeSpan, TimedNode};
use crate::reference::Reference;
use crate::report::{LayerRun, Report, CHAOS_ONLY, TELEMETRY_ONLY};
use crate::stats::{median, quantile, ratio};
use crate::Args;
use bgpvcg_bench::families::Family;
use bgpvcg_bgp::engine::{RunReport, SyncEngine};
use bgpvcg_bgp::{ProtocolNode, TopologyEvent};
use bgpvcg_core::{protocol, PricingBgpNode, RoutingOutcome};
use bgpvcg_netgraph::AsGraph;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const NODES: usize = 128;
/// Events every run applies, however long it takes: enough that the 99th
/// percentile has ten samples beyond it. Work counts are averaged over
/// exactly these events, so they repeat for a seed.
const MIN_EVENTS: usize = 1000;
/// Graphs per run, each with its own warm engine and event stream; events
/// go to them in turn. Several graphs average out how much one seed's
/// graph happens to cost.
const GRAPHS: usize = 4;

fn outcome_of<'a>(nodes: impl Iterator<Item = &'a PricingBgpNode>) -> Option<RoutingOutcome> {
    let nodes: Vec<PricingBgpNode> = nodes.cloned().collect();
    protocol::outcome_from_nodes(&nodes).ok()
}

/// Whether a warm engine holds exactly the state of a cold convergence on
/// the final topology: same outcome and same per-node state sizes.
fn matches_cold<N: ProtocolNode>(
    warm: &SyncEngine<N>,
    warm_outcome: Option<RoutingOutcome>,
    graph: &AsGraph,
) -> bool {
    let Ok(mut cold) = protocol::build_sync_engine(graph) else {
        return false;
    };
    let report = cold.run_to_convergence();
    let snapshots = cold.state_snapshots();
    report.converged
        && warm.state_snapshots() == snapshots
        && warm_outcome.is_some()
        && warm_outcome == protocol::outcome_from_nodes(&cold.into_nodes()).ok()
}

/// The traced twin of the plain engine: wrapped nodes and a stage clock.
struct Traced {
    engine: SyncEngine<TimedNode>,
    stage_ends: Arc<Mutex<Vec<u64>>>,
    epoch: Epoch,
}

impl Traced {
    fn new(graph: &AsGraph, epoch: Epoch) -> Self {
        let nodes = TimedNode::wrap(PricingBgpNode::from_graph(graph), epoch);
        let mut engine = SyncEngine::new(graph, nodes);
        let stage_ends = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&stage_ends);
        engine.set_stage_observer(Box::new(move |_, _| {
            sink.lock().expect("stage clock poisoned").push(epoch.now());
        }));
        engine.run_to_convergence();
        let mut traced = Traced {
            engine,
            stage_ends,
            epoch,
        };
        traced.take_spans();
        traced
    }

    fn take_spans(&mut self) -> (Vec<NodeSpan>, Vec<u64>) {
        let mut spans = Vec::new();
        self.engine.nodes().for_each(|n| n.drain(&mut spans));
        let ends = std::mem::take(&mut *self.stage_ends.lock().expect("stage clock poisoned"));
        (spans, ends)
    }

    fn apply(
        &mut self,
        event: TopologyEvent,
        canonical: bool,
        layers: &mut Layers,
        dump: &mut SpanDump,
    ) -> (Option<RunReport>, f64) {
        let t0 = self.epoch.now();
        let result = self.engine.try_apply_event(event);
        let t1 = self.epoch.now();
        let (spans, stage_ends) = self.take_spans();
        let window = Window {
            start: t0,
            end: t1,
            stages: stage_ends.len() as u64,
            stage_ends,
            workers: 1,
        };
        layers.add(&window, &spans, canonical);
        dump.record((t0, t1), &window, &spans, None);
        (result.ok(), (t1 - t0) as f64 / 1e9)
    }
}

/// One graph's warm engines and the event stream they share.
struct Lane {
    stream: ChurnStream,
    plain: SyncEngine<PricingBgpNode>,
    traced: Option<Traced>,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut reference = Reference::default();
    let mut times = SetupTimes::default();
    // One set-up per graph: each engine is kept, so none pays for freeing
    // another.
    let warm: Vec<_> = (0..GRAPHS)
        .map(|g| {
            times.set_up((Family::BarabasiAlbert, NODES, args.seed, g), 1, |graph| {
                let mut engine = protocol::build_sync_engine(graph).expect("graph validated");
                let initial = engine.run_to_convergence();
                (engine, initial)
            })
        })
        .collect();
    let epoch = Epoch::new();
    let mut lanes = Vec::new();
    for (g, (graph, (plain, initial))) in warm.into_iter().enumerate() {
        let expected = reference.compute(&graph, args.trace);
        report.check(initial.converged && outcome_of(plain.nodes()) == Some(expected));
        lanes.push(Lane {
            traced: args.trace.then(|| Traced::new(&graph, epoch)),
            stream: ChurnStream::new(graph, gen::mix(args.seed, g as u64)),
            plain,
        });
    }

    let mut layers = Layers::default();
    let mut dump = SpanDump::default();
    let mut extract_s = Vec::new();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut stages, mut messages, mut bytes) = (0usize, 0usize, 0usize);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut index = 0;
    while index < MIN_EVENTS || start.elapsed() < budget {
        let Lane {
            stream,
            plain,
            traced,
        } = &mut lanes[index % GRAPHS];
        let event = stream.next_event();
        let canonical = index < MIN_EVENTS;
        let mut plain_apply = || {
            let t = Instant::now();
            let result = plain.try_apply_event(event).ok();
            (result, t.elapsed().as_secs_f64())
        };
        let (result, traced_result) = match traced.as_mut() {
            None => (plain_apply(), None),
            // Each lane alternates which engine applies the event first.
            Some(tr) if (index / GRAPHS).is_multiple_of(2) => {
                let p = plain_apply();
                (p, Some(tr.apply(event, canonical, &mut layers, &mut dump)))
            }
            Some(tr) => {
                let t = tr.apply(event, canonical, &mut layers, &mut dump);
                (plain_apply(), Some(t))
            }
        };
        let (result, seconds) = result;
        plain_s.push(seconds);
        let converged = result.is_some_and(|r| r.converged);
        if canonical {
            if let Some(r) = result {
                stages += r.stages;
                messages += r.messages;
                bytes += r.bytes_v2;
            }
        }
        let sample =
            gen::sampled(args.seed, index).then(|| reference.compute(stream.graph(), args.trace));
        let ok = converged
            && sample
                .as_ref()
                .is_none_or(|want| outcome_of(plain.nodes()).as_ref() == Some(want));
        report.check(ok);
        if let (Some(tr), Some((traced_report, seconds))) = (traced.as_ref(), traced_result) {
            traced_s.push(seconds);
            // Transparency: the wrapped engine must repeat the plain one.
            let mut ok = traced_report.is_some() && traced_report == result;
            if let Some(want) = &sample {
                let nodes: Vec<PricingBgpNode> =
                    tr.engine.nodes().map(|n| n.inner().clone()).collect();
                let t = Instant::now();
                let outcome = protocol::outcome_from_nodes(&nodes);
                extract_s.push(t.elapsed().as_secs_f64());
                ok &= outcome.ok().as_ref() == Some(want);
            }
            report.check(ok);
        }
        index += 1;
    }

    let mut final_cells = Vec::new();
    for lane in &lanes {
        let final_graph = lane.stream.graph();
        report.check(matches_cold(
            &lane.plain,
            outcome_of(lane.plain.nodes()),
            final_graph,
        ));
        if let Some(tr) = &lane.traced {
            let outcome = outcome_of(tr.engine.nodes().map(TimedNode::inner));
            report.check(matches_cold(&tr.engine, outcome, final_graph));
            let cells: usize = tr
                .engine
                .state_snapshots()
                .iter()
                .map(|s| s.total_cells())
                .sum();
            final_cells.push(cells as f64);
        }
    }

    let op_p50 = median(&plain_s);
    let total: f64 = plain_s.iter().sum();
    report.note(format!(
        "churn: {index} events on {GRAPHS} graphs; reconverge_ms_p50 = {} ms, reconverge_ms_p99 = {} ms (n={index}); events_per_s = {} 1/s",
        op_p50 * 1e3,
        quantile(&plain_s, 0.99) * 1e3,
        ratio(index as f64, total),
    ));
    let per_op = [stages, messages, bytes].map(|c| c as f64 / MIN_EVENTS as f64);
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
        state_entries: &final_cells,
        nodes: NODES,
        // A plain and a traced engine per graph.
        engines: 2 * GRAPHS,
        extract_s: &extract_s,
        reference: &reference,
        plain_s: &plain_s,
        traced_s: &traced_s,
    });
    report.set_zero(&TELEMETRY_ONLY);
    report.set_zero(&CHAOS_ONLY);
    report
}
