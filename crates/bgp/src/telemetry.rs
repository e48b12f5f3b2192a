//! Telemetry glue: turning protocol [`Update`]s into typed trace events
//! and shared-registry metrics.
//!
//! Both engines drive the same [`UpdateTracer`]: it watches every broadcast
//! UPDATE and narrates it as [`TraceEvent`]s — `RouteSelected` / `Withdrawn`
//! per advertisement, and `PriceRelaxed` per price-entry change, diffed
//! against a shadow copy of the last value traced per
//! `(node, destination, transit)` cell (absent cells read as `∞`, matching
//! the paper's "prices start at ∞ and relax downward").

use crate::message::{RouteInfo, Update};
use bgpvcg_netgraph::Cost;
use bgpvcg_telemetry::flight::{self, FlightRecorder, StateSnapshot as FlightSnapshot};
use bgpvcg_telemetry::profile::span;
use bgpvcg_telemetry::{
    Clock, Counter, HealthConfig, HealthSink, SpanId, SpanProfiler, SystemClock, Telemetry,
    TraceEvent, TraceSink, INFINITE,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Canonical metric names shared by the engines and every experiment
/// binary, so `--metrics-out` expositions are comparable across runs.
pub mod metric {
    /// UPDATE broadcasts (one per advertising node per change, not per
    /// link).
    pub const UPDATES_SENT: &str = "bgp_updates_sent_total";
    /// Messages delivered (one update crossing one link).
    pub const MESSAGES: &str = "bgp_messages_total";
    /// Routing-table entries carried by all delivered messages.
    pub const ENTRIES: &str = "bgp_entries_total";
    /// Bytes under the [`wire`](crate::wire) model.
    pub const BYTES: &str = "bgp_bytes_total";
    /// Reachable-route advertisements (route newly selected or changed).
    pub const ROUTES_SELECTED: &str = "bgp_routes_selected_total";
    /// Withdrawal advertisements (routes flapped away).
    pub const ROUTES_WITHDRAWN: &str = "bgp_routes_withdrawn_total";
    /// Price-entry relaxations applied (one per changed `p^k` cell).
    pub const PRICE_RELAXATIONS: &str = "bgp_price_relaxations_total";
    /// Gauge: last stage with advertised-state changes in the most recent
    /// synchronous run (the quantity the paper bounds by `max(d, d′)`).
    pub const STAGES_TO_QUIESCENCE: &str = "bgp_stages_to_quiescence";
    /// Histogram: wall nanoseconds per executed synchronous stage.
    pub const STAGE_WALL_NANOS: &str = "bgp_stage_wall_nanos";
}

/// Raw trace encoding of a cost: the finite value, or `u64::MAX` for `∞`.
pub fn cost_raw(cost: Cost) -> u64 {
    cost.finite().unwrap_or(INFINITE)
}

/// Diffs a stream of broadcast [`Update`]s into trace events and event
/// counters. One tracer observes one run; engines create it internally when
/// telemetry is attached.
#[derive(Debug)]
pub struct UpdateTracer {
    telemetry: Telemetry,
    /// Last price value traced per `(node, dest, transit)` — absent = `∞`.
    prices: BTreeMap<(u32, u32, u32), u64>,
    /// Last path traced per `(node, dest)`, as `(hop, cumulative cost)`
    /// pairs — absent = no route advertised (or last ad was a withdrawal).
    routes: BTreeMap<(u32, u32), Vec<(u32, u64)>>,
    routes_selected: Counter,
    routes_withdrawn: Counter,
    price_relaxations: Counter,
}

impl UpdateTracer {
    /// Creates a tracer recording through `telemetry`'s sink and registry.
    pub fn new(telemetry: &Telemetry) -> Self {
        UpdateTracer {
            routes_selected: telemetry.counter(metric::ROUTES_SELECTED),
            routes_withdrawn: telemetry.counter(metric::ROUTES_WITHDRAWN),
            price_relaxations: telemetry.counter(metric::PRICE_RELAXATIONS),
            prices: BTreeMap::new(),
            routes: BTreeMap::new(),
            telemetry: telemetry.clone(),
        }
    }

    /// Narrates one broadcast UPDATE at the given stage (or async delivery
    /// sequence). Callers must only feed *change* advertisements (broadcast
    /// updates), not full-table session syncs. A pricing node re-advertises
    /// a destination's entry whenever its route **or any price** for it
    /// changed, so both event streams are diffed against shadow copies of
    /// the last traced value: `RouteSelected` fires only when the advertised
    /// path (hops or costs) changed, `PriceRelaxed` only when the `p^k` cell
    /// changed. `Withdrawn` is unconditional — the protocol only withdraws
    /// previously-advertised routes.
    pub fn observe_update(&mut self, update: &Update, stage: u64) {
        let node = update.from.raw();
        let effect = update.id;
        for (i, ad) in update.advertisements.iter().enumerate() {
            let dest = ad.destination.raw();
            let cause = update.cause_of(i);
            match &ad.info {
                RouteInfo::Reachable {
                    path,
                    path_cost,
                    prices,
                } => {
                    let shadow: Vec<(u32, u64)> = path
                        .iter()
                        .map(|e| (e.node.raw(), cost_raw(e.cost)))
                        .collect();
                    if self.routes.get(&(node, dest)) != Some(&shadow) {
                        self.routes.insert((node, dest), shadow);
                        self.routes_selected.inc();
                        self.telemetry.record(&TraceEvent::RouteSelected {
                            node,
                            dest,
                            stage,
                            hops: path.len() as u32,
                            path_cost: cost_raw(*path_cost),
                            cause,
                            effect,
                        });
                    }
                    // Transit nodes are path[1..len-1], in path order —
                    // the same order the price array uses.
                    if path.len() >= 3 {
                        for (entry, price) in path[1..path.len() - 1].iter().zip(prices) {
                            let key = (node, dest, entry.node.raw());
                            let new = cost_raw(*price);
                            let old = self.prices.get(&key).copied().unwrap_or(INFINITE);
                            if new != old {
                                self.prices.insert(key, new);
                                self.price_relaxations.inc();
                                self.telemetry.record(&TraceEvent::PriceRelaxed {
                                    node,
                                    dest,
                                    k: entry.node.raw(),
                                    stage,
                                    old,
                                    new,
                                    cause,
                                    effect,
                                });
                            }
                        }
                    }
                }
                RouteInfo::PriceDelta { entries, .. } => {
                    // A delta re-states the retained path and patches price
                    // cells. The shadow route maps each price index `i` to
                    // transit node `path[i + 1]`; a delta only ever follows
                    // a full advertisement over the same session, so the
                    // shadow is present — if it is not (defensive), the
                    // cells cannot be attributed and the ad is skipped.
                    let Some(shadow) = self.routes.get(&(node, dest)) else {
                        continue;
                    };
                    for &(index, price) in entries {
                        let Some(&(transit, _)) = shadow.get(usize::from(index) + 1) else {
                            continue;
                        };
                        let key = (node, dest, transit);
                        let new = cost_raw(price);
                        let old = self.prices.get(&key).copied().unwrap_or(INFINITE);
                        if new != old {
                            self.prices.insert(key, new);
                            self.price_relaxations.inc();
                            self.telemetry.record(&TraceEvent::PriceRelaxed {
                                node,
                                dest,
                                k: transit,
                                stage,
                                old,
                                new,
                                cause,
                                effect,
                            });
                        }
                    }
                }
                RouteInfo::Withdrawn => {
                    self.routes.remove(&(node, dest));
                    self.routes_withdrawn.inc();
                    self.telemetry.record(&TraceEvent::Withdrawn {
                        node,
                        dest,
                        stage,
                        cause,
                        effect,
                    });
                }
            }
        }
    }
}

/// Cached handles for the `bgp_*` traffic counters (see [`metric`]).
#[derive(Debug)]
struct TrafficCounters {
    updates_sent: Counter,
    messages: Counter,
    entries: Counter,
    bytes: Counter,
}

impl TrafficCounters {
    /// Registers (or looks up) the counters in `telemetry`'s registry.
    pub fn new(telemetry: &Telemetry) -> Self {
        TrafficCounters {
            updates_sent: telemetry.counter(metric::UPDATES_SENT),
            messages: telemetry.counter(metric::MESSAGES),
            entries: telemetry.counter(metric::ENTRIES),
            bytes: telemetry.counter(metric::BYTES),
        }
    }

    /// Adds `updates` broadcasts and their per-link traffic.
    pub fn add(&self, updates: u64, messages: u64, entries: u64, bytes: u64) {
        self.updates_sent.add(updates);
        self.messages.add(messages);
        self.entries.add(entries);
        self.bytes.add(bytes);
    }
}

/// Everything an engine uses to watch a run: the caller's telemetry, the
/// flight recorder and health monitor teed into it, the update tracer with
/// its traffic counters, and the span profiler with its clock. Every part
/// starts detached (`Default` allocates nothing), and detached parts cost
/// nothing.
///
/// The recording handle is rebuilt from the parts on every attach —
/// telemetry, then the flight recorder's sink, then the health sink — so
/// the order in which callers attach them does not matter. Without
/// telemetry, the recorder and monitor still see every event through a
/// private handle.
#[derive(Debug, Default)]
pub(crate) struct Observers {
    /// The caller's handle, as given to `attach_telemetry`.
    base: Option<Telemetry>,
    /// `base` teed with the flight and health sinks: the handle every event
    /// is recorded through. `None` when nothing is attached.
    telemetry: Option<Telemetry>,
    tracer: Option<UpdateTracer>,
    /// Whether broadcasts feed the `bgp_*` traffic counters. The chaos
    /// engine's traffic is frames, accounted in its own report, so it
    /// leaves the counters unregistered.
    counts_traffic: bool,
    traffic: Option<TrafficCounters>,
    flight: Option<FlightRecorder>,
    health: Option<Arc<HealthSink>>,
    /// Whether the one-shot health-stall post-mortem has been written.
    stall_dumped: bool,
    profiler: Option<SpanProfiler>,
    clock: Option<Arc<dyn Clock>>,
}

// The methods here and on `TrafficCounters` are `pub` on a crate-private
// type: `cargo xtask analyze` does not parse `pub(crate) fn` items, and
// these run on the engines' hot paths, so they must stay in its call graph.
impl Observers {
    /// A detached bundle whose broadcasts also feed the `bgp_*` traffic
    /// counters once telemetry is attached.
    pub fn counting_traffic() -> Self {
        Observers {
            counts_traffic: true,
            ..Observers::default()
        }
    }

    /// Attaches the caller's telemetry handle (metrics registry, trace
    /// sink and clock).
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.base = Some(telemetry.clone());
        self.rebuild();
    }

    /// Attaches a divergence flight recorder retaining the last `capacity`
    /// events, dumped to `path`.
    pub fn attach_flight_recorder(&mut self, path: &Path, capacity: usize) {
        self.flight = Some(FlightRecorder::new(path.to_path_buf(), capacity));
        self.rebuild();
    }

    /// Attaches the streaming health monitor.
    pub fn attach_health(&mut self, config: HealthConfig) {
        self.health = Some(Arc::new(HealthSink::new(config)));
        self.rebuild();
    }

    /// Attaches a fresh span profiler over the engine spans.
    pub fn attach_profiler(&mut self) {
        self.profiler = Some(SpanProfiler::engine());
        self.sync_clock();
    }

    /// Re-tees the recording handle from the attached parts and restarts
    /// the tracer on it.
    fn rebuild(&mut self) {
        let mut sinks = self.flight.iter().map(FlightRecorder::sink).chain(
            self.health
                .iter()
                .map(|h| Arc::clone(h) as Arc<dyn TraceSink>),
        );
        let root = match &self.base {
            Some(base) => Some(base.clone()),
            None => sinks.next().map(Telemetry::new),
        };
        self.telemetry = root.map(|root| sinks.fold(root, |t, sink| t.tee(sink)));
        self.tracer = self.telemetry.as_ref().map(UpdateTracer::new);
        self.traffic = (self.telemetry.as_ref())
            .filter(|_| self.counts_traffic)
            .map(TrafficCounters::new);
        self.sync_clock();
    }

    /// Points the profiler at the recording handle's clock (so tests can
    /// script it), or a fresh [`SystemClock`] when nothing records.
    fn sync_clock(&mut self) {
        self.clock = self.profiler.as_ref().map(|_| match &self.telemetry {
            Some(t) => t.clock_handle(),
            None => Arc::new(SystemClock::new()) as Arc<dyn Clock>,
        });
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// The attached health monitor, if any.
    pub fn health_sink(&self) -> Option<&Arc<HealthSink>> {
        self.health.as_ref()
    }

    /// The attached span profiler's current totals, if any.
    pub fn profiler(&self) -> Option<&SpanProfiler> {
        self.profiler.as_ref()
    }

    /// Detaches and returns the span profiler.
    pub fn take_profiler(&mut self) -> Option<SpanProfiler> {
        self.clock = None;
        self.profiler.take()
    }

    /// The recording handle, if anything is attached.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Opens span `id` on the attached profiler (no-op when detached).
    pub fn enter(&mut self, id: SpanId) {
        if let (Some(profiler), Some(clock)) = (self.profiler.as_mut(), self.clock.as_ref()) {
            profiler.enter(id, clock.now_nanos());
        }
    }

    /// Closes the innermost open span (no-op when detached).
    pub fn exit(&mut self) {
        if let (Some(profiler), Some(clock)) = (self.profiler.as_mut(), self.clock.as_ref()) {
            profiler.exit(clock.now_nanos());
        }
    }

    /// Records one trace event.
    pub fn record(&self, event: &TraceEvent) {
        if let Some(t) = &self.telemetry {
            t.record(event);
        }
    }

    /// Narrates one broadcast's route and price events, without counting
    /// its traffic.
    pub fn trace(&mut self, update: &Update, stage: u64) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.observe_update(update, stage);
        }
    }

    /// Accounts one broadcast: its per-link traffic plus its events.
    pub fn on_broadcast(
        &mut self,
        update: &Update,
        stage: u64,
        messages: usize,
        entries: usize,
        bytes: usize,
    ) {
        if let Some(traffic) = &self.traffic {
            traffic.add(1, messages as u64, entries as u64, bytes as u64);
        }
        self.trace(update, stage);
    }

    /// Accounts a session-establishment unicast (full table): traffic only,
    /// no events — a full table re-states unchanged routes, which the
    /// tracer's change semantics must not misreport as reselections.
    pub fn on_unicast(&mut self, messages: usize, entries: usize, bytes: usize) {
        if let Some(traffic) = &self.traffic {
            traffic.add(0, messages as u64, entries as u64, bytes as u64);
        }
    }

    /// Writes a flight post-mortem to the attached recorder, if any, with
    /// at most 64 of `snapshots` so the artifact stays bounded on huge
    /// topologies (the summary still carries the totals). Best-effort: the
    /// recorder is advisory and must not take a failing run further down,
    /// so I/O errors are swallowed.
    pub fn dump_flight(
        &self,
        reason: &str,
        stage: u64,
        summary: &[(&str, u64)],
        snapshots: impl Iterator<Item = FlightSnapshot>,
    ) {
        if let Some(recorder) = &self.flight {
            let snapshots: Vec<FlightSnapshot> = snapshots.take(64).collect();
            let _ = recorder.dump(reason, stage, summary, &snapshots);
        }
    }

    /// Polls the health monitor's stall verdict between stages (inside the
    /// health-fold span) and, at the first stall, writes the one-shot
    /// [`flight::REASON_HEALTH_STALL`] post-mortem: the finding count and
    /// the caller's run `counters` as summary, the fired findings as
    /// snapshots.
    pub fn poll_health_stall(&mut self, stage: u64, counters: &[(&str, u64)]) {
        self.enter(span::HEALTH_FOLD);
        if let Some(health) = self
            .health
            .as_ref()
            .filter(|h| !self.stall_dumped && h.stalled())
        {
            let findings = health.findings();
            let mut summary = vec![("findings", findings.len() as u64)];
            summary.extend_from_slice(counters);
            self.dump_flight(
                flight::REASON_HEALTH_STALL,
                stage,
                &summary,
                findings.iter().map(|f| FlightSnapshot {
                    node: f.node,
                    fields: vec![
                        ("detector", u64::from(f.detector)),
                        ("stage", f.stage),
                        ("dest", u64::from(f.dest)),
                        ("count", f.count),
                        ("threshold", f.threshold),
                    ],
                }),
            );
            self.stall_dumped = true;
        }
        self.exit();
    }

    /// Whether the health-stall post-mortem has been written; engines then
    /// skip their generic budget-exhaustion dump, the stall dump being the
    /// richer artifact.
    pub fn stall_dumped(&self) -> bool {
        self.stall_dumped
    }

    /// Ends a run: records freshly fired health findings as `HealthVerdict`
    /// events and the profiler's cumulative per-span totals as
    /// `SpanSummary` events, stamped with `stage`, then flushes.
    pub fn finish_run(&self, stage: u64) {
        let Some(telemetry) = &self.telemetry else {
            return;
        };
        if let Some(health) = &self.health {
            for finding in health.drain_new_findings() {
                telemetry.record(&finding.to_event());
            }
        }
        if let Some(profiler) = &self.profiler {
            for event in profiler.summary_events(stage) {
                telemetry.record(&event);
            }
        }
        telemetry.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{PathEntry, RouteAdvertisement};
    use bgpvcg_netgraph::AsId;

    fn entry(raw: u32, cost: u64) -> PathEntry {
        PathEntry {
            node: AsId::new(raw),
            cost: Cost::new(cost),
        }
    }

    fn priced_update(prices: Vec<Cost>, id: u64, cause: u64) -> Update {
        Update {
            from: AsId::new(0),
            sender_costs: Vec::new(),
            advertisements: vec![RouteAdvertisement {
                destination: AsId::new(3),
                info: RouteInfo::Reachable {
                    path: vec![entry(0, 1), entry(1, 2), entry(2, 1), entry(3, 4)].into(),
                    path_cost: Cost::new(3),
                    prices,
                },
            }],
            id,
            causes: vec![cause],
        }
    }

    #[test]
    fn price_changes_diff_against_infinity_then_previous_value() {
        let (telemetry, ring) = Telemetry::ring(64);
        let mut tracer = UpdateTracer::new(&telemetry);
        tracer.observe_update(&priced_update(vec![Cost::new(5), Cost::INFINITE], 1, 0), 1);
        // Second advertisement relaxes the ∞ entry and lowers the first.
        tracer.observe_update(&priced_update(vec![Cost::new(4), Cost::new(7)], 2, 1), 2);
        // Re-advertising identical prices is silent on the price stream.
        tracer.observe_update(&priced_update(vec![Cost::new(4), Cost::new(7)], 3, 2), 3);
        let relaxations: Vec<_> = ring
            .events()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::PriceRelaxed { .. }))
            .collect();
        assert_eq!(
            relaxations,
            vec![
                TraceEvent::PriceRelaxed {
                    node: 0,
                    dest: 3,
                    k: 1,
                    stage: 1,
                    old: INFINITE,
                    new: 5,
                    cause: 0,
                    effect: 1
                },
                TraceEvent::PriceRelaxed {
                    node: 0,
                    dest: 3,
                    k: 1,
                    stage: 2,
                    old: 5,
                    new: 4,
                    cause: 1,
                    effect: 2
                },
                TraceEvent::PriceRelaxed {
                    node: 0,
                    dest: 3,
                    k: 2,
                    stage: 2,
                    old: INFINITE,
                    new: 7,
                    cause: 1,
                    effect: 2
                },
            ],
            "∞ entries never trace; finite changes trace once each"
        );
        assert_eq!(telemetry.snapshot().counters[metric::PRICE_RELAXATIONS], 3);
        // The path never changed, so only the first ad selects a route —
        // the later two were price-only re-advertisements.
        assert_eq!(telemetry.snapshot().counters[metric::ROUTES_SELECTED], 1);
    }

    #[test]
    fn withdrawals_trace_and_count() {
        let (telemetry, ring) = Telemetry::ring(8);
        let mut tracer = UpdateTracer::new(&telemetry);
        let update = Update {
            from: AsId::new(4),
            sender_costs: Vec::new(),
            advertisements: vec![RouteAdvertisement {
                destination: AsId::new(2),
                info: RouteInfo::Withdrawn,
            }],
            id: 6,
            causes: vec![5],
        };
        tracer.observe_update(&update, 9);
        assert_eq!(
            ring.events(),
            vec![TraceEvent::Withdrawn {
                node: 4,
                dest: 2,
                stage: 9,
                cause: 5,
                effect: 6
            }]
        );
        assert_eq!(telemetry.snapshot().counters[metric::ROUTES_WITHDRAWN], 1);
    }

    #[test]
    fn cost_raw_maps_infinity_to_the_trace_sentinel() {
        assert_eq!(cost_raw(Cost::INFINITE), INFINITE);
        assert_eq!(cost_raw(Cost::new(17)), 17);
    }
}
