//! The protocol-node abstraction and the plain (price-free) BGP node.

use crate::dynamics::LocalEvent;
use crate::message::{RouteAdvertisement, RouteInfo, Update};
use crate::selector::{DirtyDests, RouteSelector, SelectedRoute};
use crate::stats::StateSnapshot;
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use std::sync::Arc;

/// The behaviour an AS must implement to be driven by either engine.
///
/// A node is a pure state machine: the engine feeds it messages and local
/// events; the node answers with the UPDATE it wants broadcast to its
/// neighbors (or `None` when its advertised state did not change — the
/// paper's "routing-table exchanges only occur when a change is detected").
pub trait ProtocolNode: Send {
    /// This node's AS number.
    fn id(&self) -> AsId;

    /// Called once before the first stage: the node's initial advertisement
    /// (at minimum, its origin route to itself).
    fn start(&mut self) -> Option<Update>;

    /// Ingests a batch of UPDATEs delivered this stage and returns the
    /// resulting broadcast, if anything changed. Updates arrive as shared
    /// [`Arc`]s so the engines can fan one broadcast out to many inboxes
    /// without copying the payload per link.
    fn handle(&mut self, updates: &[Arc<Update>]) -> Option<Update>;

    /// Applies a local topology event and returns the resulting broadcast,
    /// if anything changed. For [`LocalEvent::LinkUp`] the engine delivers
    /// the returned update (the full table) to the *new neighbor only*, not
    /// as a broadcast.
    fn apply_event(&mut self, event: LocalEvent) -> Option<Update>;

    /// The node's full table as an update — what a real BGP speaker sends
    /// when a new session is established.
    fn full_table(&self) -> Option<Update>;

    /// Forgets all learned state, returning the node to its
    /// just-constructed condition — same id, declared cost, and current
    /// link set, but empty RIBs and change-suppression memory. The chaos
    /// harness calls this to model a crash followed by a restart; the node
    /// relearns everything through session re-establishment afterwards.
    fn reset(&mut self);

    /// Sizes of the node's protocol state, for the E5 experiment.
    fn state(&self) -> StateSnapshot;

    /// Enables or disables price-delta advertisement emission (wire v2's
    /// compression hook). Default: no-op, for node types without the
    /// optimization; implementors with an adj-RIB-out forward this to
    /// their `set_delta_encoding` inherent method.
    fn configure_delta_encoding(&mut self, _on: bool) {}
}

/// The adj-RIB-out: what a node last advertised per destination, for
/// change suppression ("routing-table exchanges only occur when a change
/// is detected").
///
/// Destination-indexed; each entry always holds the *full* route state —
/// when a compressed [`RouteInfo::PriceDelta`] goes out on the wire, the
/// entry records the reassembled `Reachable` it stands for. A withdrawal
/// and "never advertised" are the same empty entry: silence means the same
/// thing as an initial withdrawal and costs nothing.
#[derive(Debug, Clone)]
pub struct AdjRibOut {
    node_count: usize,
    sent: Vec<Option<RouteInfo>>,
    /// Whether change advertisements may be compressed to
    /// [`RouteInfo::PriceDelta`] when only price entries moved on an
    /// unchanged path (the monotone-relaxation common case of Sect. 6).
    delta_encoding: bool,
}

impl AdjRibOut {
    /// An empty adj-RIB-out for a network of `node_count` ASes, with delta
    /// encoding on. Allocates nothing until the first advertisement.
    pub fn new(node_count: usize) -> Self {
        AdjRibOut {
            node_count,
            sent: Vec::new(),
            delta_encoding: true,
        }
    }

    /// Enables or disables [`RouteInfo::PriceDelta`] compression.
    pub fn set_delta_encoding(&mut self, on: bool) {
        self.delta_encoding = on;
    }

    /// Forgets everything advertised (crash/restart).
    pub fn clear(&mut self) {
        self.sent.clear();
    }

    /// Compares `dest`'s current state — its selected route (if any) with
    /// the price entries aligned to its transit nodes — against what was
    /// last advertised. Returns the wire form announcing the change and
    /// records the new state, or `None` when nothing changed. The
    /// comparison runs on borrowed state; an advertisement is built only
    /// for an actual change.
    pub fn advertise(
        &mut self,
        dest: AsId,
        route: Option<&SelectedRoute>,
        prices: &[Cost],
    ) -> Option<RouteInfo> {
        if route.is_some() && self.sent.len() < self.node_count {
            self.sent.resize_with(self.node_count, || None);
        }
        let entry = self.sent.get_mut(dest.index());
        let (Some(entry), Some(route)) = (entry, route) else {
            // No route now: withdraw whatever was advertised before.
            return self
                .sent
                .get_mut(dest.index())
                .and_then(Option::take)
                .map(|_| RouteInfo::Withdrawn);
        };
        if let Some(RouteInfo::Reachable {
            path,
            path_cost,
            prices: sent_prices,
        }) = entry
        {
            if *path == route.path && *path_cost == route.cost {
                if sent_prices[..] == *prices {
                    return None;
                }
                // Only price entries moved on an unchanged path: send a
                // compressed delta against the previous advertisement; the
                // receiver patches its retained copy.
                let delta = self
                    .delta_encoding
                    .then(|| RouteInfo::price_delta(&route.path, sent_prices, prices))
                    .flatten();
                if let Some(delta) = delta {
                    sent_prices.copy_from_slice(prices);
                    return Some(delta);
                }
            }
        }
        let info = route.advertisement(prices);
        *entry = Some(info.clone());
        Some(info)
    }
}

/// A plain lowest-cost-path BGP speaker: route selection and advertisement,
/// no prices. This is the baseline protocol the paper extends; experiments
/// E5/E6 compare its state and traffic against the pricing extension.
///
/// # Example
///
/// ```
/// use bgpvcg_netgraph::generators::structured::fig1;
/// use bgpvcg_bgp::PlainBgpNode;
///
/// let g = fig1();
/// let nodes = PlainBgpNode::from_graph(&g);
/// assert_eq!(nodes.len(), g.node_count());
/// ```
#[derive(Debug, Clone)]
pub struct PlainBgpNode {
    selector: RouteSelector,
    /// What we last advertised per destination, so we only send changes.
    /// Plain BGP carries no prices, so its delta switch is inert and exists
    /// for API symmetry with the pricing node.
    rib_out: AdjRibOut,
    /// Per-inbox scratch: touched destinations and their causes.
    dirty: DirtyDests,
}

impl PlainBgpNode {
    /// Creates a node for AS `id` of the given graph.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the graph.
    pub fn new(graph: &AsGraph, id: AsId) -> Self {
        let n = graph.node_count();
        PlainBgpNode {
            selector: RouteSelector::new(
                id,
                graph.cost(id),
                n,
                graph.neighbors(id).iter().copied(),
            ),
            rib_out: AdjRibOut::new(n),
            dirty: DirtyDests::default(),
        }
    }

    /// Enables or disables [`RouteInfo::PriceDelta`] compression of change
    /// advertisements (on by default). The delta-stream equivalence
    /// proptests run both settings and assert identical fixpoints.
    pub fn set_delta_encoding(&mut self, on: bool) {
        self.rib_out.set_delta_encoding(on);
    }

    /// Creates one node per AS of the graph, in AS order — ready to hand to
    /// an engine.
    pub fn from_graph(graph: &AsGraph) -> Vec<Self> {
        graph
            .nodes()
            .map(|id| PlainBgpNode::new(graph, id))
            .collect()
    }

    /// Read access to the decision process (selected routes, Rib-In).
    pub fn selector(&self) -> &RouteSelector {
        &self.selector
    }

    /// Builds the outgoing update for the given destinations (ascending),
    /// comparing against what was last advertised; records what is sent.
    /// `cause` names, per destination, the [`Update::id`] of the inbound
    /// update that made it change (0 = environment: start, local events),
    /// and the emitted update's `causes` vector is built in lockstep with
    /// its advertisements.
    fn emit(
        &mut self,
        dests: impl IntoIterator<Item = AsId>,
        cause: impl Fn(AsId) -> u64,
    ) -> Option<Update> {
        let mut ads = Vec::new();
        let mut causes = Vec::new();
        for dest in dests {
            if let Some(info) = self
                .rib_out
                .advertise(dest, self.selector.selected(dest), &[])
            {
                ads.push(RouteAdvertisement {
                    destination: dest,
                    info,
                });
                causes.push(cause(dest));
            }
        }
        let mut update = Update::if_nonempty(self.selector.id(), ads)?;
        update.causes = causes;
        Some(update)
    }
}

impl ProtocolNode for PlainBgpNode {
    fn id(&self) -> AsId {
        self.selector.id()
    }

    fn configure_delta_encoding(&mut self, on: bool) {
        self.set_delta_encoding(on);
    }

    fn start(&mut self) -> Option<Update> {
        self.emit([self.selector.id()], |_| 0)
    }

    fn handle(&mut self, updates: &[Arc<Update>]) -> Option<Update> {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.ingest(&mut self.selector, updates);
        dirty.retain(|dest| self.selector.decide(dest));
        let out = self.emit(dirty.dests().iter().copied(), |dest| dirty.cause(dest));
        self.dirty = dirty;
        out
    }

    fn apply_event(&mut self, event: LocalEvent) -> Option<Update> {
        match event {
            LocalEvent::LinkDown(neighbor) => {
                let covered = self.selector.link_down(neighbor);
                let changed = covered.iter().filter(|(_, changed)| *changed);
                self.emit(changed.map(|&(dest, _)| dest), |_| 0)
            }
            LocalEvent::LinkUp(neighbor) => {
                self.selector.link_up(neighbor);
                None // the engine sends `full_table` to the new neighbor
            }
            LocalEvent::CostChange(cost) => {
                // Only the destinations whose table entry actually restamped
                // are re-advertised — `set_declared_cost` reports them, and a
                // no-op change (same cost) reports none.
                let changed = self.selector.set_declared_cost(cost);
                self.emit(changed, |_| 0)
            }
        }
    }

    fn full_table(&self) -> Option<Update> {
        let ads: Vec<RouteAdvertisement> = self
            .selector
            .destinations()
            .filter_map(|dest| {
                Some(RouteAdvertisement {
                    destination: dest,
                    info: self.selector.selected(dest)?.advertisement(&[]),
                })
            })
            .collect();
        Update::if_nonempty(self.selector.id(), ads)
    }

    fn reset(&mut self) {
        self.selector.reset();
        self.rib_out.clear();
    }

    fn state(&self) -> StateSnapshot {
        self.selector.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_netgraph::generators::structured::{fig1, Fig1};

    #[test]
    fn start_advertises_origin_only() {
        let g = fig1();
        let mut node = PlainBgpNode::new(&g, Fig1::D);
        let update = node.start().expect("origin must be advertised");
        assert_eq!(update.entry_count(), 1);
        assert_eq!(update.advertisements[0].destination, Fig1::D);
        let info = &update.advertisements[0].info;
        assert_eq!(info.path().unwrap().len(), 1);
        assert_eq!(info.path().unwrap()[0].cost, Cost::new(1));
    }

    #[test]
    fn handle_learns_and_forwards() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        let z_origin = Arc::new(z.start().unwrap());
        let out = d.handle(&[z_origin]).expect("new route must be advertised");
        // D now advertises its route to Z (D, Z with cost 0) besides having
        // learned it.
        assert!(out
            .advertisements
            .iter()
            .any(|ad| ad.destination == Fig1::Z));
        assert_eq!(
            d.selector().route_cost(Fig1::Z),
            Cost::ZERO,
            "one-hop route has no transit"
        );
    }

    #[test]
    fn duplicate_updates_produce_silence() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        let z_origin = Arc::new(z.start().unwrap());
        assert!(d.handle(std::slice::from_ref(&z_origin)).is_some());
        assert!(
            d.handle(&[z_origin]).is_none(),
            "re-delivery of identical state must not re-advertise"
        );
    }

    #[test]
    fn full_table_covers_all_destinations() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        d.handle(&[Arc::new(z.start().unwrap())]);
        let table = d.full_table().unwrap();
        assert_eq!(table.entry_count(), 2); // D itself and Z
    }

    #[test]
    fn link_down_withdraws_lost_routes() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        d.handle(&[Arc::new(z.start().unwrap())]);
        let out = d
            .apply_event(LocalEvent::LinkDown(Fig1::Z))
            .expect("losing the only route must produce a withdrawal");
        let ad = out
            .advertisements
            .iter()
            .find(|ad| ad.destination == Fig1::Z)
            .expect("withdrawal for Z");
        assert_eq!(ad.info, RouteInfo::Withdrawn);
    }

    #[test]
    fn cost_change_readvertises_table() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        d.start();
        let out = d
            .apply_event(LocalEvent::CostChange(Cost::new(42)))
            .expect("cost change must re-advertise");
        let info = &out.advertisements[0].info;
        assert_eq!(info.path().unwrap()[0].cost, Cost::new(42));
    }

    #[test]
    fn reset_restores_just_constructed_behaviour() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        d.start();
        let z_origin = Arc::new(z.start().unwrap());
        d.handle(std::slice::from_ref(&z_origin));
        d.reset();
        // Learned route is gone; the node behaves exactly like a fresh one:
        // start() re-advertises the origin, and re-delivery of Z's origin is
        // a change again (the suppression memory was wiped).
        assert_eq!(d.selector().route_cost(Fig1::Z), Cost::INFINITE);
        assert!(d.start().is_some(), "restart re-advertises the origin");
        assert!(d.handle(&[z_origin]).is_some());
    }

    #[test]
    fn adj_rib_out_suppresses_compresses_and_withdraws() {
        use crate::message::PathEntry;
        let entry = |node, cost| PathEntry {
            node: AsId::new(node),
            cost: Cost::new(cost),
        };
        let route = SelectedRoute {
            path: vec![entry(0, 1), entry(4, 2), entry(3, 1), entry(2, 0)].into(),
            cost: Cost::new(3),
        };
        let dest = AsId::new(2);
        let mut out = AdjRibOut::new(5);
        // Nothing advertised yet and no route: silence.
        assert_eq!(out.advertise(dest, None, &[]), None);
        let first = [Cost::new(9), Cost::new(8)];
        assert_eq!(
            out.advertise(dest, Some(&route), &first),
            Some(route.advertisement(&first))
        );
        assert_eq!(out.advertise(dest, Some(&route), &first), None, "unchanged");
        let relaxed = [Cost::new(9), Cost::new(5)];
        assert_eq!(
            out.advertise(dest, Some(&route), &relaxed),
            Some(RouteInfo::PriceDelta {
                base_path_hash: route.path.hash64(),
                entries: vec![(1, Cost::new(5))],
            })
        );
        // The delta was recorded as the full state it stands for.
        assert_eq!(out.advertise(dest, Some(&route), &relaxed), None);
        out.set_delta_encoding(false);
        assert_eq!(
            out.advertise(dest, Some(&route), &first),
            Some(route.advertisement(&first)),
            "delta encoding off sends full advertisements"
        );
        assert_eq!(out.advertise(dest, None, &[]), Some(RouteInfo::Withdrawn));
        assert_eq!(out.advertise(dest, None, &[]), None, "withdrawn once");
    }

    #[test]
    fn state_snapshot_counts_entries() {
        let g = fig1();
        let mut d = PlainBgpNode::new(&g, Fig1::D);
        let mut z = PlainBgpNode::new(&g, Fig1::Z);
        d.handle(&[Arc::new(z.start().unwrap())]);
        let snap = d.state();
        assert_eq!(snap.table_entries, 2);
        assert_eq!(snap.table_path_nodes, 1 + 2);
        assert_eq!(snap.rib_entries, 1);
        assert_eq!(snap.price_entries, 0);
    }
}
