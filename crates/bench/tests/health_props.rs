//! Convergence health monitor properties over the benchmark families.
//!
//! The streaming SLO analyzer (`bgpvcg_telemetry::health`) must hold
//! three contracts under sweep pressure: honest converged runs raise
//! *zero* findings on every family, size, and seed (the monitor is a
//! zero-false-positive detector, like the online auditor); the verdict is
//! a pure function of the deterministic event stream, so serial and
//! parallel engines at any worker count produce byte-identical health
//! reports; and the mergeable quantile sketch the latency SLOs ride on is
//! order- and associativity-insensitive, so sweep-merged reports equal
//! single-pass ones.
//!
//! Observation itself must be inert and order-free: an engine with the
//! whole observer bundle attached (telemetry, flight recorder, health
//! monitor, profiler) ends in exactly the state of a bare one, and
//! attaching the health monitor and flight recorder before telemetry
//! watches a run exactly as the documented order does.

use bgpvcg_bench::families::Family;
use bgpvcg_bgp::chaos::{ChaosEngine, ChaosReport, FaultPlan};
use bgpvcg_bgp::engine::{RunReport, SyncEngine};
use bgpvcg_bgp::{PlainBgpNode, ProtocolNode, StateSnapshot};
use bgpvcg_core::{protocol, PricingBgpNode, RoutingOutcome};
use bgpvcg_netgraph::generators::structured::{fig1, Fig1};
use bgpvcg_netgraph::{AsGraph, AsId};
use bgpvcg_telemetry::{flight, HealthConfig, QuantileSketch, Telemetry, TraceEvent};
use proptest::prelude::*;
use std::path::PathBuf;

/// A fresh per-process scratch path for a flight artifact.
fn flight_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "bgpvcg-health-props-{}-{name}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Either order of attaching the observers to one engine.
#[derive(Clone, Copy)]
enum AttachOrder {
    /// Telemetry, then flight recorder, then health monitor.
    TelemetryFirst,
    /// Health monitor, then flight recorder, then telemetry.
    TelemetryLast,
}

/// What an observed stalled run leaves behind: its event stream, the
/// health monitor's report, and the health-stall post-mortem.
#[derive(Debug, PartialEq)]
struct Watched {
    events: Vec<TraceEvent>,
    stalled: bool,
    health: String,
    post_mortem: String,
}

/// Attaches telemetry, a flight recorder at `path` and a health monitor
/// with `health` to an engine in `order`, through the engine's own
/// `attach_*` methods.
macro_rules! attach_in_order {
    ($engine:expr, $order:expr, $telemetry:expr, $path:expr, $health:expr) => {
        match $order {
            AttachOrder::TelemetryFirst => {
                $engine.attach_telemetry($telemetry);
                $engine.attach_flight_recorder($path, 64);
                $engine.attach_health($health);
            }
            AttachOrder::TelemetryLast => {
                $engine.attach_health($health);
                $engine.attach_flight_recorder($path, 64);
                $engine.attach_telemetry($telemetry);
            }
        }
    };
}

/// Reads back what a stalled run left behind and removes the artifact.
fn watched(
    ring: &bgpvcg_telemetry::RingBufferSink,
    health: &bgpvcg_telemetry::HealthSink,
    path: &std::path::Path,
) -> Watched {
    let post_mortem = std::fs::read_to_string(path).unwrap_or_default();
    let _ = std::fs::remove_file(path);
    Watched {
        events: ring.events(),
        stalled: health.stalled(),
        health: health.to_json(),
        post_mortem,
    }
}

/// Fig. 1 on the synchronous engine with a zero-stage stall threshold:
/// the first stage already counts as a stall, so the engine writes its
/// health post-mortem.
fn sync_stall(order: AttachOrder, name: &str) -> Watched {
    let g = fig1();
    let path = flight_path(name);
    let (telemetry, ring) = Telemetry::ring(1 << 12);
    let mut engine = SyncEngine::new(&g, PricingBgpNode::from_graph(&g));
    let health = HealthConfig {
        stall_stages: 0,
        ..HealthConfig::default()
    };
    attach_in_order!(engine, order, &telemetry, &path, health);
    assert!(engine.run_to_convergence().converged);
    watched(&ring, engine.health_sink().expect("health attached"), &path)
}

/// The obs_smoke stall: a permanent B–D flap starves a chaos run on
/// Fig. 1 of progress until the stall detector fires.
fn chaos_stall(order: AttachOrder, name: &str) -> Watched {
    let g = fig1();
    let path = flight_path(name);
    let (telemetry, ring) = Telemetry::ring(1 << 14);
    let plan = FaultPlan::quiet().with_flap(5, 10_000, Fig1::B, Fig1::D);
    let mut engine = ChaosEngine::new(&g, PlainBgpNode::from_graph(&g), plan);
    let health = HealthConfig {
        stall_stages: 24,
        ..HealthConfig::default()
    };
    attach_in_order!(engine, order, &telemetry, &path, health);
    assert!(!engine.run_to_stable(160).converged);
    watched(&ring, engine.health_sink().expect("health attached"), &path)
}

#[test]
fn sync_attach_order_does_not_matter() {
    let documented = sync_stall(AttachOrder::TelemetryFirst, "sync-documented");
    assert!(documented.post_mortem.contains(flight::REASON_HEALTH_STALL));
    assert!(documented.stalled);
    let reversed = sync_stall(AttachOrder::TelemetryLast, "sync-reversed");
    assert_eq!(documented, reversed);
}

#[test]
fn chaos_attach_order_does_not_matter() {
    let documented = chaos_stall(AttachOrder::TelemetryFirst, "chaos-documented");
    assert!(documented.post_mortem.contains(flight::REASON_HEALTH_STALL));
    assert!(documented.stalled);
    let reversed = chaos_stall(AttachOrder::TelemetryLast, "chaos-reversed");
    assert_eq!(documented, reversed);
}

/// What an engine ends in: its report, every node's state and the outcome.
type EndState<R> = (R, Vec<StateSnapshot>, RoutingOutcome);

/// Attaches the whole observer bundle: ring telemetry, a flight recorder
/// at `path`, the health monitor and the span profiler.
macro_rules! attach_all {
    ($engine:expr, $path:expr) => {{
        $engine.attach_telemetry(&Telemetry::ring(1 << 10).0);
        $engine.attach_flight_recorder($path, 64);
        $engine.attach_health(HealthConfig::default());
        $engine.attach_profiler();
    }};
}

fn sync_end_state(graph: &AsGraph, workers: usize, observed: bool) -> EndState<RunReport> {
    let mut engine = protocol::build_sync_engine_parallel(graph, workers)
        .expect("benchmark families satisfy the mechanism preconditions");
    if observed {
        attach_all!(engine, &flight_path("sync-observed"));
    }
    let report = engine.run_to_convergence();
    let snapshots = engine.state_snapshots();
    let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).expect("converged");
    (report, snapshots, outcome)
}

fn chaos_end_state(graph: &AsGraph, plan: &FaultPlan, observed: bool) -> EndState<ChaosReport> {
    let mut engine = protocol::build_chaos_engine(graph, plan.clone())
        .expect("benchmark families satisfy the mechanism preconditions");
    if observed {
        attach_all!(engine, &flight_path("chaos-observed"));
    }
    let report = engine.run_to_stable(2_000);
    let snapshots = engine.nodes().map(ProtocolNode::state).collect();
    let outcome = protocol::outcome_from_nodes(&engine.into_nodes()).expect("stabilized");
    (report, snapshots, outcome)
}

/// Runs the pricing protocol on `graph` with the health monitor attached
/// and returns the monitor's full JSON report.
fn health_report(
    graph: &bgpvcg_netgraph::AsGraph,
    workers: usize,
) -> Result<String, TestCaseError> {
    let mut engine = if workers <= 1 {
        protocol::build_sync_engine(graph)
    } else {
        protocol::build_sync_engine_parallel(graph, workers)
    }
    .expect("benchmark families satisfy the mechanism preconditions");
    engine.attach_health(HealthConfig::default());
    prop_assert!(engine.run_to_convergence().converged);
    let sink = engine.health_sink().expect("health attached");
    let monitor = sink.snapshot();
    prop_assert!(
        monitor.findings().is_empty(),
        "honest run raised findings: {:?}",
        monitor.findings()
    );
    prop_assert!(!monitor.stalled());
    prop_assert!(monitor.stages_seen() > 0);
    prop_assert!(
        !monitor.latency().is_empty(),
        "a converged run must record convergence latencies"
    );
    Ok(monitor.to_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Honest converged runs are the SLO baseline: zero findings, no
    /// stall, non-empty per-destination latency sketches — on every
    /// family, size, and seed.
    #[test]
    fn honest_runs_raise_zero_findings(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0xB10C_ED11);
        health_report(&graph, 1)?;
    }

    /// The health verdict is a function of the (deterministic) event
    /// stream, not of the execution strategy: the parallel engine's
    /// report is byte-identical to the serial one at every worker count.
    #[test]
    fn verdict_is_worker_count_invariant(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..14,
        seed in 0u64..u64::MAX,
        workers in 2usize..9,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0x9EA1_7447);
        let serial = health_report(&graph, 1)?;
        let parallel = health_report(&graph, workers)?;
        prop_assert_eq!(
            serial,
            parallel,
            "{} n={n} workers={workers}: health report depends on worker count",
            family.name()
        );
    }

    /// Observation is inert: with every observer attached, the sync
    /// engine (serial and on two workers) and the chaos engine (lossy
    /// channels plus a crash and restart) end in exactly the report, node
    /// state and outcome of the bare engine.
    #[test]
    fn fully_observed_engines_match_bare_engines(
        family_idx in 0usize..Family::ALL.len(),
        n in 8usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let family = Family::ALL[family_idx];
        let graph = family.build(n, seed ^ 0x0B5E_77ED);
        let bare = sync_end_state(&graph, 1, false);
        for workers in [1usize, 2] {
            let observed = sync_end_state(&graph, workers, true);
            prop_assert!(bare == observed, "{} n={n} workers={workers}", family.name());
        }
        let victim = AsId::new((seed % n as u64) as u32);
        let plan = FaultPlan::lossy(seed, 24).with_crash(6, victim, 14);
        let bare = chaos_end_state(&graph, &plan, false);
        let observed = chaos_end_state(&graph, &plan, true);
        prop_assert!(bare == observed, "{} n={n} chaos", family.name());
    }

    /// Sketch merging is associative and agrees with single-pass
    /// recording: however a sweep shards its observations, the merged
    /// sketch reports the same count, sum, max, and quantiles.
    #[test]
    fn sketch_merge_is_associative(
        values in proptest::collection::vec(0u64..1 << 48, 0..256),
        cut_a in 0usize..257,
        cut_b in 0usize..257,
    ) {
        let (cut_a, cut_b) = {
            let a = cut_a.min(values.len());
            let b = cut_b.min(values.len());
            (a.min(b), a.max(b))
        };
        let record = |slice: &[u64]| {
            let mut sketch = QuantileSketch::new();
            for &v in slice {
                sketch.record(v);
            }
            sketch
        };
        let (a, b, c) = (
            record(&values[..cut_a]),
            record(&values[cut_a..cut_b]),
            record(&values[cut_b..]),
        );

        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut right_tail = b.clone();
        right_tail.merge(&c);
        let mut right = a.clone();
        right.merge(&right_tail);
        // Single pass over everything.
        let single = record(&values);

        for sketch in [&left, &right] {
            prop_assert_eq!(sketch.count(), single.count());
            prop_assert_eq!(sketch.sum(), single.sum());
            prop_assert_eq!(sketch.max(), single.max());
            for permille in [0, 100, 500, 900, 990, 1000] {
                prop_assert_eq!(
                    sketch.quantile_permille(permille),
                    single.quantile_permille(permille),
                    "p{permille} diverges under merge"
                );
            }
        }
        prop_assert_eq!(left.to_json(), right.to_json());
        prop_assert_eq!(left.to_json(), single.to_json());
    }
}
