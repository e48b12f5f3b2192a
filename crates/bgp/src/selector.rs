//! Route selection: the per-node path-vector decision process.

use crate::message::{PathEntry, RouteInfo, SharedPath, Update};
use crate::stats::StateSnapshot;
use bgpvcg_lcp::Route;
use bgpvcg_netgraph::{AsId, Cost};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A selected routing-table entry: the chosen path (cost-annotated) and its
/// transit cost.
///
/// The path is a [`SharedPath`]: the same interned handle flows into every
/// advertisement built from this entry, so re-advertising an unchanged
/// route never copies path bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectedRoute {
    /// The path from this node (first entry) to the destination (last
    /// entry), each node annotated with its declared cost as learned from
    /// advertisements.
    pub path: SharedPath,
    /// Transit cost of the path.
    pub cost: Cost,
}

impl SelectedRoute {
    /// Converts to an [`Route`] for inspection and comparison.
    pub fn as_route(&self) -> Route {
        Route::from_parts(self.path.iter().map(|e| e.node).collect(), self.cost)
    }

    /// The next hop (second node), or `None` for the trivial route.
    pub fn next_hop(&self) -> Option<AsId> {
        self.path.get(1).map(|e| e.node)
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }

    /// The transit nodes' entries: the path without its two endpoints
    /// (empty for routes of fewer than three nodes).
    pub fn transit(&self) -> &[PathEntry] {
        self.path
            .get(1..self.path.len().saturating_sub(1))
            .unwrap_or(&[])
    }

    /// The full advertisement of this route carrying `prices` (aligned
    /// with [`Self::transit`]; empty for plain BGP).
    pub fn advertisement(&self, prices: &[Cost]) -> RouteInfo {
        RouteInfo::Reachable {
            path: self.path.clone(),
            path_cost: self.cost,
            prices: prices.to_vec(),
        }
    }
}

/// Structural validity of an incoming reachable advertisement in a network
/// of `node_count` ASes: the path is non-empty, starts at the advertiser,
/// ends at the destination, names only ASes below `node_count`, repeats no
/// node, and carries at most one price slot per transit node. Everything a
/// receiver later indexes into is covered — AS numbers become row and table
/// indices, so an out-of-range one would otherwise become an allocation
/// size — and a malformed message is dropped here once instead of defended
/// against everywhere.
fn well_formed(from: AsId, destination: AsId, info: &RouteInfo, node_count: usize) -> bool {
    let RouteInfo::Reachable { path, prices, .. } = info else {
        // Withdrawals carry no structure; price deltas are validated
        // against the retained route at application time (see `ingest`).
        return true;
    };
    let (Some(first), Some(last)) = (path.first(), path.last()) else {
        return false;
    };
    // A path longer than the network must repeat a node, so the bound also
    // caps the quadratic duplicate scan below at `node_count²` probes
    // (honest paths are a handful of hops).
    if first.node != from
        || last.node != destination
        || destination.index() >= node_count
        || path.len() > node_count
        || path.iter().any(|e| e.node.index() >= node_count)
    {
        return false;
    }
    let repeats = path.iter().enumerate().any(|(i, e)| {
        path.get(..i)
            .is_some_and(|seen| seen.iter().any(|s| s.node == e.node))
    });
    !repeats && prices.len() <= path.len().saturating_sub(2)
}

/// The best candidate seen so far by [`RouteSelector::decide`], borrowed
/// from the Rib-In: the advertised path, the cost the advertiser's own
/// entry carries once extended by this node, and the candidate's transit
/// cost.
struct Candidate<'a> {
    path: &'a [PathEntry],
    head_cost: Cost,
    cost: Cost,
}

impl Candidate<'_> {
    /// The deterministic route order `(transit cost, hop count,
    /// lexicographic AS path)`. Every candidate path starts with this node,
    /// so comparing the advertised suffixes orders the extended paths.
    fn cmp(&self, other: &Candidate<'_>) -> Ordering {
        self.cost
            .cmp(&other.cost)
            .then_with(|| self.path.len().cmp(&other.path.len()))
            .then_with(|| {
                self.path
                    .iter()
                    .map(|e| e.node)
                    .cmp(other.path.iter().map(|e| e.node))
            })
    }

    /// Whether `route` is this candidate extended by `head` (this node's
    /// own entry), compared without building the extended path.
    fn is_route(&self, head: PathEntry, route: &SelectedRoute) -> bool {
        let (Some(first), Some(advertiser)) = (self.path.first(), route.path.get(1)) else {
            return false;
        };
        route.cost == self.cost
            && route.path.len() == self.path.len() + 1
            && route.path.first() == Some(&head)
            && advertiser.node == first.node
            && advertiser.cost == self.head_cost
            && route.path.get(2..) == self.path.get(1..)
    }

    /// The extended path, interned.
    fn into_route(self, head: PathEntry) -> SelectedRoute {
        let mut path = Vec::with_capacity(self.path.len() + 1);
        path.push(head);
        path.extend(self.path.iter().copied());
        if let Some(advertiser) = path.get_mut(1) {
            advertiser.cost = self.head_cost;
        }
        SelectedRoute {
            path: path.into(),
            cost: self.cost,
        }
    }
}

/// The path-vector decision process of one AS: Rib-In (the last routes each
/// neighbor advertised), route selection under the deterministic order, and
/// the selected routing table.
///
/// All per-destination state is addressed by the dense AS index (`0..n`):
/// the Rib-In is one destination-indexed row per neighbor slot and the
/// table is one destination-indexed vector, so every probe is an index
/// instead of a tree walk. Rows and table grow to `n` on first use, so a
/// freshly built selector allocates nothing network-sized.
///
/// `RouteSelector` is deliberately protocol-logic only — no I/O — so the
/// synchronous and asynchronous engines, and the pricing extension in
/// `bgpvcg-core`, all drive the same code (the paper's mechanism is an
/// extension of BGP, so the BGP decision process must be shared, not
/// duplicated).
#[derive(Debug, Clone)]
pub struct RouteSelector {
    id: AsId,
    /// This node's own declared transit cost (what it stamps into path
    /// entries it originates or extends).
    declared_cost: Cost,
    /// Number of ASes in the network; every destination and path node
    /// index is below it.
    node_count: usize,
    /// Current physical neighbors, ascending; position = neighbor slot.
    neighbors: Vec<AsId>,
    /// Per-slot Rib-In rows: `rows[s][dest]` is the last route
    /// `neighbors[s]` advertised for `dest` (always `Reachable`:
    /// withdrawals empty the cell, deltas patch it). Trailing slots whose
    /// neighbor has advertised nothing yet may have no row.
    rows: Vec<Vec<Option<RouteInfo>>>,
    /// Receive-cost vectors advertised by neighbors (per-neighbor cost
    /// model only; empty in the paper's base model). `vectors[a][u]` is the
    /// cost `a` incurs receiving a transit packet from `u`.
    neighbor_vectors: BTreeMap<AsId, BTreeMap<AsId, Cost>>,
    /// The selected routing table, destination-indexed; the own
    /// destination's slot stays empty (see `own`).
    table: Vec<Option<SelectedRoute>>,
    /// The permanent trivial route to this node itself.
    own: SelectedRoute,
}

impl RouteSelector {
    /// Creates a selector for node `id` of a network of `node_count` ASes,
    /// with the given declared cost and physical neighbors.
    pub fn new<I: IntoIterator<Item = AsId>>(
        id: AsId,
        declared_cost: Cost,
        node_count: usize,
        neighbors: I,
    ) -> Self {
        let mut neighbors: Vec<AsId> = neighbors.into_iter().collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        RouteSelector {
            id,
            declared_cost,
            node_count,
            neighbors,
            rows: Vec::new(),
            neighbor_vectors: BTreeMap::new(),
            table: Vec::new(),
            own: SelectedRoute {
                path: vec![PathEntry {
                    node: id,
                    cost: declared_cost,
                }]
                .into(),
                cost: Cost::ZERO,
            },
        }
    }

    /// This node's AS number.
    pub fn id(&self) -> AsId {
        self.id
    }

    /// This node's declared cost.
    pub fn declared_cost(&self) -> Cost {
        self.declared_cost
    }

    /// Number of ASes in the network this selector was built for.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Changes this node's declared cost (a strategic deviation or dynamic
    /// re-declaration). Every selected route's first path entry carries the
    /// declared cost, so all of them are restamped; the returned
    /// destinations (ascending) are exactly those whose table entry changed
    /// (none for a no-op re-declaration of the same cost), so the caller
    /// re-advertises only those instead of rescanning the table.
    pub fn set_declared_cost(&mut self, cost: Cost) -> Vec<AsId> {
        if cost == self.declared_cost {
            return Vec::new();
        }
        self.declared_cost = cost;
        // Interned paths are immutable: restamping the declared cost mints
        // a fresh handle (re-declaration is rare; sharing wins on the
        // per-stage re-advertisement path).
        let restamp = |route: &mut SelectedRoute| {
            let mut entries = route.path.to_vec();
            if let Some(head) = entries.first_mut() {
                head.cost = cost;
            }
            route.path = entries.into();
        };
        restamp(&mut self.own);
        self.table.iter_mut().flatten().for_each(restamp);
        self.destinations().collect()
    }

    /// Current physical neighbors, ascending.
    pub fn neighbors(&self) -> impl Iterator<Item = AsId> + '_ {
        self.neighbors.iter().copied()
    }

    /// The slot of neighbor `a`, if `a` is currently a neighbor.
    fn slot(&self, a: AsId) -> Option<usize> {
        self.neighbors.binary_search(&a).ok()
    }

    /// Returns `true` if `a` is currently a neighbor.
    pub fn has_neighbor(&self, a: AsId) -> bool {
        self.slot(a).is_some()
    }

    /// The route `a` last advertised for `dest`, if any.
    pub fn rib(&self, a: AsId, dest: AsId) -> Option<&RouteInfo> {
        self.rows.get(self.slot(a)?)?.get(dest.index())?.as_ref()
    }

    /// The Rib-In entries for `dest` across all current neighbors, ascending
    /// by neighbor. This is the candidate set both route selection and the
    /// pricing relaxation pass iterate; exposing it lets callers hoist the
    /// per-neighbor lookup out of their inner loops.
    pub fn rib_for(&self, dest: AsId) -> impl Iterator<Item = (AsId, &RouteInfo)> + '_ {
        self.neighbors
            .iter()
            .zip(&self.rows)
            .filter_map(move |(&a, row)| Some((a, row.get(dest.index())?.as_ref()?)))
    }

    /// The declared cost of neighbor `a` as learned from its advertisements
    /// (the first path entry of anything it sends is itself), or `None`
    /// before `a` has advertised anything.
    pub fn neighbor_cost(&self, a: AsId) -> Option<Cost> {
        self.rows
            .get(self.slot(a)?)?
            .iter()
            .flatten()
            .find_map(|info| info.path().and_then(|p| p.first()).map(|e| e.cost))
    }

    /// The receive-cost vector neighbor `a` last advertised (per-neighbor
    /// cost model), if any.
    pub fn neighbor_vector(&self, a: AsId) -> Option<&BTreeMap<AsId, Cost>> {
        self.neighbor_vectors.get(&a)
    }

    /// The cost neighbor `a` incurs receiving a transit packet *from this
    /// node*, per `a`'s advertised vector (per-neighbor model only).
    pub fn recv_cost_from(&self, a: AsId) -> Option<Cost> {
        self.neighbor_vectors.get(&a)?.get(&self.id).copied()
    }

    /// The selected route to `dest` (trivial for `dest == id`).
    pub fn selected(&self, dest: AsId) -> Option<&SelectedRoute> {
        if dest == self.id {
            return Some(&self.own);
        }
        self.table.get(dest.index())?.as_ref()
    }

    /// The selected route to `dest` as an [`Route`].
    pub fn route(&self, dest: AsId) -> Option<Route> {
        self.selected(dest).map(SelectedRoute::as_route)
    }

    /// The selected route's transit cost `c(self, dest)`, or
    /// [`Cost::INFINITE`] if no route is known.
    pub fn route_cost(&self, dest: AsId) -> Cost {
        self.selected(dest).map_or(Cost::INFINITE, |r| r.cost)
    }

    /// All destinations with a selected route, ascending.
    pub fn destinations(&self) -> impl Iterator<Item = AsId> + '_ {
        let own = self.id.index();
        (0..self.table.len().max(own + 1))
            .filter(move |&i| i == own || self.table.get(i).is_some_and(Option::is_some))
            .map(|i| AsId::new(i as u32))
    }

    /// Sizes of the routing table and the Rib-In (the price fields stay
    /// zero; pricing nodes add their own arrays). Rib-In entries are
    /// counted for selected destinations only.
    pub fn state(&self) -> StateSnapshot {
        let mut snapshot = StateSnapshot::default();
        for dest in self.destinations() {
            if let Some(route) = self.selected(dest) {
                snapshot.table_entries += 1;
                snapshot.table_path_nodes += route.path.len();
            }
        }
        for row in &self.rows {
            for (dest, info) in row.iter().enumerate() {
                let selected =
                    dest == self.id.index() || self.table.get(dest).is_some_and(Option::is_some);
                if let (Some(info), true) = (info, selected) {
                    snapshot.rib_entries += 1;
                    snapshot.rib_path_nodes += info.path().map_or(0, <[_]>::len);
                }
            }
        }
        snapshot
    }

    /// Ingests an UPDATE from a neighbor into the Rib-In, pushing onto
    /// `affected` every destination whose advertised state changed (a
    /// destination may be pushed more than once; callers deduplicate).
    /// Messages from non-neighbors (possible transiently around link
    /// failures in the asynchronous engine) are ignored.
    pub fn ingest(&mut self, update: &Update, affected: &mut Vec<AsId>) {
        let from = update.from;
        let Some(slot) = self.slot(from) else {
            return;
        };
        if self.rows.len() <= slot {
            self.rows.resize_with(self.neighbors.len(), Vec::new);
        }
        let node_count = self.node_count;
        let Some(row) = self.rows.get_mut(slot) else {
            return; // unreachable: rows cover every slot after the resize
        };
        if !update.sender_costs.is_empty() {
            let vector: BTreeMap<AsId, Cost> = update.sender_costs.iter().copied().collect();
            let previous = self.neighbor_vectors.insert(from, vector);
            if previous.as_ref() != self.neighbor_vectors.get(&from) {
                // A changed cost vector re-prices every candidate through
                // this neighbor.
                affected.extend(
                    row.iter()
                        .enumerate()
                        .filter(|(_, info)| info.is_some())
                        .map(|(dest, _)| AsId::new(dest as u32)),
                );
            }
        }
        for ad in &update.advertisements {
            let cell = row.get_mut(ad.destination.index());
            match &ad.info {
                RouteInfo::Withdrawn => {
                    if cell.and_then(Option::take).is_some() {
                        affected.push(ad.destination);
                    }
                }
                RouteInfo::PriceDelta {
                    base_path_hash,
                    entries,
                } => {
                    // Patch the retained full advertisement in place. Any
                    // mismatch — no retained route, a path other than the
                    // one the delta was computed against, or an out-of-range
                    // price index — drops the delta silently: the sender's
                    // next full advertisement (session resynchronization
                    // always sends one) restores the state.
                    let Some(Some(RouteInfo::Reachable { path, prices, .. })) = cell else {
                        continue;
                    };
                    if path.hash64() != *base_path_hash
                        || entries
                            .iter()
                            .any(|&(idx, _)| usize::from(idx) >= prices.len())
                    {
                        continue;
                    }
                    let mut touched = false;
                    for &(idx, value) in entries {
                        if let Some(cell) = prices.get_mut(usize::from(idx)) {
                            touched |= *cell != value;
                            *cell = value;
                        }
                    }
                    if touched {
                        affected.push(ad.destination);
                    }
                }
                reachable => {
                    // Drop structurally malformed advertisements instead of
                    // trusting them: a misbehaving or buggy neighbor must
                    // not be able to crash this node (the paper's Sect. 7
                    // notes the agents themselves run the algorithm).
                    if !well_formed(from, ad.destination, reachable, node_count) {
                        continue;
                    }
                    if row.len() < node_count {
                        row.resize_with(node_count, || None);
                    }
                    let Some(cell) = row.get_mut(ad.destination.index()) else {
                        continue; // unreachable: well_formed bounds the index
                    };
                    if cell.as_ref() == Some(reachable) {
                        continue;
                    }
                    overwrite(cell, reachable);
                    affected.push(ad.destination);
                }
            }
        }
    }

    /// Re-runs route selection for one destination; returns `true` if the
    /// selected route changed (including becoming unreachable).
    ///
    /// Selection: over all neighbors `a` whose Rib-In holds a route for
    /// `dest` not containing this node (loop suppression), extend that route
    /// by this node and keep the minimum under the deterministic order.
    pub fn decide(&mut self, dest: AsId) -> bool {
        if dest == self.id {
            return false; // the trivial route is permanent
        }
        // Candidates are compared on borrowed Rib-In fields; only the
        // winning route — and only when it differs from the table entry —
        // is built and interned into a SharedPath, so the content hash is
        // computed once per actual route change, never per candidate.
        let mut best: Option<Candidate<'_>> = None;
        for (a, info) in self.rib_for(dest) {
            let RouteInfo::Reachable {
                path, path_cost, ..
            } = info
            else {
                continue;
            };
            let Some(advertiser) = path.first() else {
                continue;
            };
            if info.contains(self.id) {
                continue; // loop suppression
            }
            // Extending by ourselves turns the advertiser into a transit
            // node (unless it is the destination, which stays an endpoint).
            // In the base model the advertiser's cost is the first path
            // entry; in the per-neighbor model it is the advertiser's
            // receive cost *from us*, taken from its advertised vector, and
            // the advertiser's entry is restamped for its new predecessor.
            let vector_cost = self.recv_cost_from(a);
            let added = if a == dest {
                Cost::ZERO
            } else {
                vector_cost.unwrap_or(advertiser.cost)
            };
            let candidate = Candidate {
                path,
                head_cost: if vector_cost.is_some() {
                    added
                } else {
                    advertiser.cost
                },
                cost: *path_cost + added,
            };
            if best
                .as_ref()
                .is_none_or(|b| candidate.cmp(b) == Ordering::Less)
            {
                best = Some(candidate);
            }
        }
        let head = PathEntry {
            node: self.id,
            cost: self.declared_cost,
        };
        let old = self.table.get(dest.index()).and_then(Option::as_ref);
        let changed = match (&best, old) {
            (Some(candidate), Some(old)) => !candidate.is_route(head, old),
            (None, None) => false,
            _ => true,
        };
        if changed {
            let route = best.map(|candidate| candidate.into_route(head));
            if route.is_some() && self.table.len() < self.node_count {
                self.table.resize_with(self.node_count, || None);
            }
            if let Some(slot) = self.table.get_mut(dest.index()) {
                *slot = route;
            }
        }
        changed
    }

    /// Re-runs selection for every destination mentioned anywhere in the
    /// Rib-In or currently in the table; returns those whose selection
    /// changed, ascending.
    pub fn decide_all(&mut self) -> Vec<AsId> {
        let width = self.rows.iter().map(Vec::len).max().unwrap_or(0);
        (0..width.max(self.table.len()))
            .map(|i| AsId::new(i as u32))
            .filter(|&dest| self.decide(dest))
            .collect()
    }

    /// Handles a link to `a` coming up: adds the neighbor with an empty
    /// Rib-In. Idempotent.
    pub fn link_up(&mut self, a: AsId) {
        if let Err(slot) = self.neighbors.binary_search(&a) {
            self.neighbors.insert(slot, a);
            if slot < self.rows.len() {
                self.rows.insert(slot, Vec::new());
            }
        }
    }

    /// Forgets everything learned from the network — Rib-In contents,
    /// neighbor cost vectors, and every non-trivial table entry — returning
    /// the selector to its just-constructed condition with the same id,
    /// declared cost, and current neighbor set. This models a crash followed
    /// by a restart: the process loses its RIBs but keeps its configuration
    /// (who it is, what it charges, which links are physically attached).
    pub fn reset(&mut self) {
        self.rows.clear();
        self.neighbor_vectors.clear();
        self.table.clear();
    }

    /// Handles the link to `a` going down: drops its Rib-In row and
    /// re-decides the destinations it covered. Returns those destinations,
    /// ascending, each with whether its selection changed.
    ///
    /// Removing neighbor `a` only removes candidates, and only for the
    /// destinations `a` had advertised — every other destination's candidate
    /// set (and therefore its selection) is untouched, so re-deciding the
    /// dropped row's destinations is equivalent to a full `decide_all`
    /// rescan.
    pub fn link_down(&mut self, a: AsId) -> Vec<(AsId, bool)> {
        let Some(slot) = self.slot(a) else {
            return Vec::new();
        };
        self.neighbors.remove(slot);
        self.neighbor_vectors.remove(&a);
        if slot >= self.rows.len() {
            return Vec::new(); // `a` never advertised anything
        }
        let dropped = self.rows.remove(slot);
        dropped
            .iter()
            .enumerate()
            .filter(|(_, info)| info.is_some())
            .map(|(dest, _)| {
                let dest = AsId::new(dest as u32);
                (dest, self.decide(dest))
            })
            .collect()
    }
}

/// Stores `reachable` into a Rib-In cell, reusing the cell's price buffer
/// when it already holds a route.
fn overwrite(cell: &mut Option<RouteInfo>, reachable: &RouteInfo) {
    match (cell.as_mut(), reachable) {
        (
            Some(RouteInfo::Reachable {
                path,
                path_cost,
                prices,
            }),
            RouteInfo::Reachable {
                path: new_path,
                path_cost: new_cost,
                prices: new_prices,
            },
        ) => {
            path.clone_from(new_path);
            *path_cost = *new_cost;
            prices.clone_from(new_prices);
        }
        _ => *cell = Some(reachable.clone()),
    }
}

/// The destinations one inbox touched, deduplicated, each attributed to the
/// last update (in inbox order) whose ingestion touched it.
///
/// Node types own one of these and reuse it across stages: deduplication
/// and provenance live in destination-indexed stamp arrays that grow to `n`
/// on first use, so a stage allocates nothing per call.
#[derive(Debug, Clone, Default)]
pub struct DirtyDests {
    /// Touched destinations, ascending once [`Self::ingest`] returns.
    dests: Vec<AsId>,
    /// Raw destinations the selector reports for one update.
    raw: Vec<AsId>,
    /// `stamp[d] == generation` iff `d` is already in `dests`.
    stamp: Vec<u32>,
    /// `cause[d]`: [`Update::id`] of the last update that touched `d`.
    cause: Vec<u64>,
    generation: u32,
}

impl DirtyDests {
    /// Ingests `updates` in inbox order into `selector`, replacing the
    /// held destinations with those whose Rib-In state changed.
    pub fn ingest(&mut self, selector: &mut RouteSelector, updates: &[Arc<Update>]) {
        self.dests.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        for update in updates {
            self.raw.clear();
            selector.ingest(update, &mut self.raw);
            for &dest in &self.raw {
                if self.stamp.len() <= dest.index() {
                    let width = selector.node_count().max(dest.index() + 1);
                    self.stamp.resize(width, 0);
                    self.cause.resize(width, 0);
                }
                let (Some(stamp), Some(cause)) = (
                    self.stamp.get_mut(dest.index()),
                    self.cause.get_mut(dest.index()),
                ) else {
                    continue; // unreachable: both arrays were just widened
                };
                if *stamp != self.generation {
                    *stamp = self.generation;
                    self.dests.push(dest);
                }
                *cause = update.id;
            }
        }
        self.dests.sort_unstable();
    }

    /// The touched destinations, ascending.
    pub fn dests(&self) -> &[AsId] {
        &self.dests
    }

    /// Keeps only the destinations for which `keep` returns `true`,
    /// visiting them in ascending order.
    pub fn retain(&mut self, mut keep: impl FnMut(AsId) -> bool) {
        self.dests.retain(|&dest| keep(dest));
    }

    /// The provenance of a held destination: the id of the last update
    /// whose ingestion touched it (0 for any other destination).
    pub fn cause(&self, dest: AsId) -> u64 {
        match self.stamp.get(dest.index()) {
            Some(&stamp) if stamp == self.generation => {
                self.cause.get(dest.index()).copied().unwrap_or(0)
            }
            _ => 0,
        }
    }
}

impl fmt::Display for RouteSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RouteSelector for {}:", self.id)?;
        for dest in self.destinations() {
            if let Some(route) = self.selected(dest) {
                writeln!(f, "  {dest}: {}", route.as_route())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RouteAdvertisement;
    use std::collections::BTreeSet;

    /// Ingests one update and returns the destinations it touched.
    fn touched(s: &mut RouteSelector, u: &Update) -> BTreeSet<AsId> {
        let mut affected = Vec::new();
        s.ingest(u, &mut affected);
        affected.into_iter().collect()
    }

    fn entry(raw: u32, cost: u64) -> PathEntry {
        PathEntry {
            node: AsId::new(raw),
            cost: Cost::new(cost),
        }
    }

    fn ad(dest: u32, path: Vec<PathEntry>, cost: u64) -> RouteAdvertisement {
        RouteAdvertisement {
            destination: AsId::new(dest),
            info: RouteInfo::Reachable {
                path: path.into(),
                path_cost: Cost::new(cost),
                prices: vec![],
            },
        }
    }

    fn update(from: u32, ads: Vec<RouteAdvertisement>) -> Update {
        Update {
            from: AsId::new(from),
            sender_costs: Vec::new(),
            advertisements: ads,
            id: 0,
            causes: Vec::new(),
        }
    }

    /// A selector for node 0 of a 10-node network, with neighbors 1 and 2.
    fn selector() -> RouteSelector {
        RouteSelector::new(AsId::new(0), Cost::new(5), 10, [AsId::new(1), AsId::new(2)])
    }

    #[test]
    fn starts_with_trivial_route_only() {
        let s = selector();
        assert_eq!(s.route_cost(AsId::new(0)), Cost::ZERO);
        assert_eq!(s.route_cost(AsId::new(9)), Cost::INFINITE);
        assert_eq!(s.destinations().count(), 1);
        assert_eq!(
            s.neighbors().collect::<Vec<_>>(),
            vec![AsId::new(1), AsId::new(2)]
        );
    }

    #[test]
    fn ingest_and_decide_selects_direct_route() {
        let mut s = selector();
        // Neighbor 1 (cost 3) advertises itself.
        let affected = touched(&mut s, &update(1, vec![ad(1, vec![entry(1, 3)], 0)]));
        assert_eq!(affected, BTreeSet::from([AsId::new(1)]));
        assert!(s.decide(AsId::new(1)));
        let route = s.selected(AsId::new(1)).unwrap();
        assert_eq!(route.cost, Cost::ZERO, "destination is an endpoint");
        assert_eq!(route.hops(), 1);
        assert_eq!(route.next_hop(), Some(AsId::new(1)));
    }

    #[test]
    fn decide_prefers_cheaper_transit() {
        let mut s = selector();
        // Route to 9 via neighbor 1 (1 declares cost 3): transit = 3 + 4.
        touched(
            &mut s,
            &update(
                1,
                vec![ad(9, vec![entry(1, 3), entry(7, 4), entry(9, 2)], 4)],
            ),
        );
        // Route to 9 via neighbor 2 (2 declares cost 1): transit = 1 + 0.
        touched(
            &mut s,
            &update(2, vec![ad(9, vec![entry(2, 1), entry(9, 2)], 0)]),
        );
        s.decide(AsId::new(9));
        let route = s.selected(AsId::new(9)).unwrap();
        assert_eq!(route.cost, Cost::new(1));
        assert_eq!(route.next_hop(), Some(AsId::new(2)));
    }

    #[test]
    fn loop_suppression_skips_paths_containing_self() {
        let mut s = selector();
        touched(
            &mut s,
            &update(
                1,
                vec![ad(9, vec![entry(1, 3), entry(0, 5), entry(9, 2)], 5)],
            ),
        );
        s.decide(AsId::new(9));
        assert!(s.selected(AsId::new(9)).is_none(), "only candidate loops");
    }

    #[test]
    fn withdrawal_removes_route() {
        let mut s = selector();
        touched(&mut s, &update(1, vec![ad(1, vec![entry(1, 3)], 0)]));
        s.decide(AsId::new(1));
        assert!(s.selected(AsId::new(1)).is_some());
        let affected = touched(
            &mut s,
            &update(
                1,
                vec![RouteAdvertisement {
                    destination: AsId::new(1),
                    info: RouteInfo::Withdrawn,
                }],
            ),
        );
        assert_eq!(affected, BTreeSet::from([AsId::new(1)]));
        assert!(s.decide(AsId::new(1)));
        assert!(s.selected(AsId::new(1)).is_none());
    }

    #[test]
    fn ingest_from_stranger_is_ignored() {
        let mut s = selector();
        let affected = touched(&mut s, &update(77, vec![ad(1, vec![entry(77, 1)], 0)]));
        assert!(affected.is_empty());
    }

    #[test]
    fn reingest_of_same_route_reports_no_change() {
        let mut s = selector();
        let u = update(1, vec![ad(1, vec![entry(1, 3)], 0)]);
        assert!(!touched(&mut s, &u).is_empty());
        assert!(touched(&mut s, &u).is_empty(), "identical re-advertisement");
    }

    #[test]
    fn neighbor_cost_learned_from_any_advertisement() {
        let mut s = selector();
        assert_eq!(s.neighbor_cost(AsId::new(1)), None);
        touched(
            &mut s,
            &update(1, vec![ad(9, vec![entry(1, 3), entry(9, 2)], 0)]),
        );
        assert_eq!(s.neighbor_cost(AsId::new(1)), Some(Cost::new(3)));
    }

    #[test]
    fn link_down_drops_routes_via_neighbor() {
        let mut s = selector();
        touched(&mut s, &update(1, vec![ad(1, vec![entry(1, 3)], 0)]));
        touched(&mut s, &update(2, vec![ad(2, vec![entry(2, 1)], 0)]));
        s.decide_all();
        let covered = s.link_down(AsId::new(1));
        assert_eq!(covered, vec![(AsId::new(1), true)]);
        assert!(s.selected(AsId::new(1)).is_none());
        assert!(s.selected(AsId::new(2)).is_some());
        assert!(!s.has_neighbor(AsId::new(1)));
        // Idempotent on a second call.
        assert!(s.link_down(AsId::new(1)).is_empty());
    }

    #[test]
    fn link_up_registers_neighbor() {
        let mut s = selector();
        s.link_up(AsId::new(7));
        assert!(s.has_neighbor(AsId::new(7)));
        let affected = touched(&mut s, &update(7, vec![ad(7, vec![entry(7, 2)], 0)]));
        assert!(!affected.is_empty());
    }

    #[test]
    fn set_declared_cost_updates_own_entry() {
        let mut s = selector();
        s.set_declared_cost(Cost::new(11));
        assert_eq!(s.declared_cost(), Cost::new(11));
        let own = s.selected(AsId::new(0)).unwrap();
        assert_eq!(own.path[0].cost, Cost::new(11));
    }

    #[test]
    fn tie_break_on_equal_cost_prefers_fewer_hops_then_lex() {
        let mut s = selector();
        // Two candidates to dest 9, both transit cost 2.
        touched(
            &mut s,
            &update(1, vec![ad(9, vec![entry(1, 2), entry(9, 0)], 0)]),
        ); // 0,1,9: cost 2, 2 hops
        touched(
            &mut s,
            &update(
                2,
                vec![ad(9, vec![entry(2, 0), entry(3, 2), entry(9, 0)], 2)],
            ),
        ); // 0,2,3,9: cost 2, 3 hops
        s.decide(AsId::new(9));
        assert_eq!(
            s.selected(AsId::new(9)).unwrap().next_hop(),
            Some(AsId::new(1))
        );
    }

    #[test]
    fn sender_vector_overrides_first_entry_cost() {
        // Per-neighbor model: neighbor 1 declares "receiving from node 0
        // costs 7" via its vector; the base path entry says 3. The
        // candidate must be priced (and restamped) with 7.
        let mut s = selector();
        let u = update(1, vec![ad(9, vec![entry(1, 3), entry(9, 2)], 0)]).with_sender_costs(vec![
            (AsId::new(0), Cost::new(7)),
            (AsId::new(9), Cost::new(1)),
        ]);
        touched(&mut s, &u);
        s.decide(AsId::new(9));
        let route = s.selected(AsId::new(9)).unwrap();
        assert_eq!(route.cost, Cost::new(7));
        assert_eq!(
            route.path[1].cost,
            Cost::new(7),
            "entry restamped for its predecessor"
        );
        assert_eq!(s.recv_cost_from(AsId::new(1)), Some(Cost::new(7)));
        assert!(s.neighbor_vector(AsId::new(1)).is_some());
    }

    #[test]
    fn changed_vector_marks_all_neighbor_dests_affected() {
        let mut s = selector();
        let u1 = update(1, vec![ad(9, vec![entry(1, 3), entry(9, 2)], 0)])
            .with_sender_costs(vec![(AsId::new(0), Cost::new(7))]);
        touched(&mut s, &u1);
        s.decide(AsId::new(9));
        // Same routes, different vector: destination 9 must be re-decided.
        let u2 = update(1, vec![]).with_sender_costs(vec![(AsId::new(0), Cost::new(2))]);
        // if_nonempty refuses empty ad lists; build directly.
        let u2 = Update {
            from: AsId::new(1),
            sender_costs: u2.sender_costs,
            advertisements: vec![],
            id: 0,
            causes: Vec::new(),
        };
        let affected = touched(&mut s, &u2);
        assert!(affected.contains(&AsId::new(9)), "{affected:?}");
        s.decide(AsId::new(9));
        assert_eq!(s.selected(AsId::new(9)).unwrap().cost, Cost::new(2));
    }

    #[test]
    fn link_down_drops_neighbor_vector() {
        let mut s = selector();
        let u = update(1, vec![ad(1, vec![entry(1, 3)], 0)])
            .with_sender_costs(vec![(AsId::new(0), Cost::new(7))]);
        touched(&mut s, &u);
        assert!(s.neighbor_vector(AsId::new(1)).is_some());
        s.link_down(AsId::new(1));
        assert!(s.neighbor_vector(AsId::new(1)).is_none());
        assert_eq!(s.recv_cost_from(AsId::new(1)), None);
    }

    #[test]
    fn malformed_advertisements_are_dropped() {
        let mut s = selector();
        // Wrong first node (claims to be node 7 but sent by 1).
        let bad_first = update(1, vec![ad(9, vec![entry(7, 1), entry(9, 2)], 0)]);
        assert!(touched(&mut s, &bad_first).is_empty());
        // Path does not end at the destination.
        let bad_last = update(1, vec![ad(9, vec![entry(1, 1), entry(8, 2)], 0)]);
        assert!(touched(&mut s, &bad_last).is_empty());
        // Repeated node.
        let looped = update(
            1,
            vec![ad(
                9,
                vec![entry(1, 1), entry(4, 2), entry(1, 1), entry(9, 2)],
                0,
            )],
        );
        assert!(touched(&mut s, &looped).is_empty());
        // Too many prices.
        let overpriced = Update {
            from: AsId::new(1),
            sender_costs: vec![],
            advertisements: vec![crate::message::RouteAdvertisement {
                destination: AsId::new(9),
                info: RouteInfo::Reachable {
                    path: vec![entry(1, 1), entry(9, 2)].into(),
                    path_cost: Cost::ZERO,
                    prices: vec![Cost::new(1)],
                },
            }],
            id: 0,
            causes: Vec::new(),
        };
        assert!(touched(&mut s, &overpriced).is_empty());
        // Empty path.
        let empty = Update {
            from: AsId::new(1),
            sender_costs: vec![],
            advertisements: vec![crate::message::RouteAdvertisement {
                destination: AsId::new(9),
                info: RouteInfo::Reachable {
                    path: Vec::new().into(),
                    path_cost: Cost::ZERO,
                    prices: vec![],
                },
            }],
            id: 0,
            causes: Vec::new(),
        };
        assert!(touched(&mut s, &empty).is_empty());
    }

    #[test]
    fn reset_forgets_learned_state_but_keeps_identity() {
        let mut s = selector();
        let u = update(1, vec![ad(9, vec![entry(1, 3), entry(9, 2)], 0)])
            .with_sender_costs(vec![(AsId::new(0), Cost::new(7))]);
        touched(&mut s, &u);
        s.decide_all();
        assert!(s.selected(AsId::new(9)).is_some());
        s.reset();
        assert_eq!(s.id(), AsId::new(0));
        assert_eq!(s.declared_cost(), Cost::new(5));
        assert_eq!(
            s.neighbors().collect::<Vec<_>>(),
            vec![AsId::new(1), AsId::new(2)],
            "physical links survive a restart"
        );
        assert!(s.selected(AsId::new(9)).is_none());
        assert!(s.rib(AsId::new(1), AsId::new(9)).is_none());
        assert!(s.neighbor_vector(AsId::new(1)).is_none());
        assert_eq!(s.destinations().count(), 1, "only the trivial route");
        assert_eq!(s.route_cost(AsId::new(0)), Cost::ZERO);
    }

    #[test]
    fn decide_all_reports_only_changes() {
        let mut s = selector();
        touched(&mut s, &update(1, vec![ad(1, vec![entry(1, 3)], 0)]));
        let first = s.decide_all();
        assert_eq!(first, vec![AsId::new(1)]);
        let second = s.decide_all();
        assert!(second.is_empty());
    }

    /// A priced full advertisement from neighbor 1 for destination 9
    /// (transit node 4), retained so deltas have a base to patch.
    fn priced_base(s: &mut RouteSelector) -> crate::message::SharedPath {
        let path: crate::message::SharedPath = vec![entry(1, 1), entry(4, 2), entry(9, 0)].into();
        let full = Update {
            from: AsId::new(1),
            sender_costs: vec![],
            advertisements: vec![RouteAdvertisement {
                destination: AsId::new(9),
                info: RouteInfo::Reachable {
                    path: path.clone(),
                    path_cost: Cost::new(2),
                    prices: vec![Cost::new(7)],
                },
            }],
            id: 0,
            causes: Vec::new(),
        };
        assert!(!touched(s, &full).is_empty());
        path
    }

    fn delta_update(hash: u64, entries: Vec<(u16, Cost)>) -> Update {
        Update {
            from: AsId::new(1),
            sender_costs: vec![],
            advertisements: vec![RouteAdvertisement {
                destination: AsId::new(9),
                info: RouteInfo::PriceDelta {
                    base_path_hash: hash,
                    entries,
                },
            }],
            id: 0,
            causes: Vec::new(),
        }
    }

    #[test]
    fn price_delta_patches_retained_route() {
        let mut s = selector();
        let path = priced_base(&mut s);
        let affected = touched(
            &mut s,
            &delta_update(path.hash64(), vec![(0, Cost::new(4))]),
        );
        assert_eq!(affected, BTreeSet::from([AsId::new(9)]));
        let patched = s.rib(AsId::new(1), AsId::new(9)).unwrap();
        assert_eq!(patched.price_of(AsId::new(4)), Some(Cost::new(4)));
        assert_eq!(
            patched.path_cost(),
            Some(Cost::new(2)),
            "path and cost survive the patch"
        );
        // A delta repeating the current value changes nothing.
        let again = touched(
            &mut s,
            &delta_update(path.hash64(), vec![(0, Cost::new(4))]),
        );
        assert!(again.is_empty());
    }

    #[test]
    fn price_delta_mismatches_are_dropped() {
        let mut s = selector();
        let path = priced_base(&mut s);
        // Wrong base hash: the retained route must stay untouched.
        assert!(touched(
            &mut s,
            &delta_update(path.hash64() ^ 1, vec![(0, Cost::new(4))])
        )
        .is_empty());
        // Out-of-range price index.
        assert!(touched(
            &mut s,
            &delta_update(path.hash64(), vec![(5, Cost::new(4))])
        )
        .is_empty());
        let retained = s.rib(AsId::new(1), AsId::new(9)).unwrap();
        assert_eq!(retained.price_of(AsId::new(4)), Some(Cost::new(7)));
        // No retained route at all (fresh selector).
        let mut fresh = selector();
        assert!(touched(
            &mut fresh,
            &delta_update(path.hash64(), vec![(0, Cost::new(4))])
        )
        .is_empty());
    }

    #[test]
    fn out_of_range_ids_are_dropped_without_growing_rows() {
        let mut s = selector();
        // A destination far outside the 10-node network.
        let far = AsId::new(u32::MAX - 1);
        let far_dest = Update {
            from: AsId::new(1),
            sender_costs: vec![],
            advertisements: vec![RouteAdvertisement {
                destination: far,
                info: RouteInfo::Reachable {
                    path: vec![
                        entry(1, 1),
                        PathEntry {
                            node: far,
                            cost: Cost::ZERO,
                        },
                    ]
                    .into(),
                    path_cost: Cost::ZERO,
                    prices: vec![],
                },
            }],
            id: 0,
            causes: Vec::new(),
        };
        assert!(touched(&mut s, &far_dest).is_empty());
        // An in-range destination reached through an out-of-range transit
        // node.
        let far_transit = update(
            1,
            vec![ad(9, vec![entry(1, 1), entry(10, 2), entry(9, 0)], 2)],
        );
        assert!(touched(&mut s, &far_transit).is_empty());
        assert!(
            s.rows.iter().all(|row| row.capacity() == 0),
            "a dropped advertisement must not allocate a row"
        );
        assert!(s.table.is_empty());
        assert!(s.rib(AsId::new(1), far).is_none());
        assert!(s.rib(AsId::new(1), AsId::new(9)).is_none());
        assert!(!s.decide(far), "nothing to select");
    }

    #[test]
    fn construction_allocates_no_network_sized_state() {
        let s = RouteSelector::new(
            AsId::new(3),
            Cost::new(1),
            1 << 20,
            [AsId::new(7), AsId::new(2)],
        );
        assert!(s.rows.is_empty() && s.table.is_empty());
        assert_eq!(
            s.neighbors().collect::<Vec<_>>(),
            vec![AsId::new(2), AsId::new(7)]
        );
        assert_eq!(s.destinations().collect::<Vec<_>>(), vec![AsId::new(3)]);
    }

    #[test]
    fn state_counts_table_and_rib_for_selected_destinations() {
        let mut s = selector();
        touched(
            &mut s,
            &update(
                1,
                vec![
                    ad(1, vec![entry(1, 3)], 0),
                    ad(9, vec![entry(1, 3), entry(9, 2)], 0),
                ],
            ),
        );
        touched(
            &mut s,
            &update(
                2,
                vec![ad(9, vec![entry(2, 1), entry(0, 5), entry(9, 2)], 5)],
            ),
        );
        s.decide(AsId::new(1));
        let before = s.state();
        assert_eq!(before.table_entries, 2, "own route and 1");
        assert_eq!(before.table_path_nodes, 1 + 2);
        assert_eq!(
            before.rib_entries, 1,
            "rib entries for unselected 9 are not counted"
        );
        assert_eq!(before.rib_path_nodes, 1);
        s.decide(AsId::new(9));
        let after = s.state();
        assert_eq!(after.table_entries, 3);
        assert_eq!(after.rib_entries, 3);
        assert_eq!(after.rib_path_nodes, 1 + 2 + 3);
        assert_eq!(after.price_entries, 0);
    }

    #[test]
    fn dirty_dests_dedup_sort_and_attribute_the_last_cause() {
        let mut s = selector();
        let mut first = update(
            2,
            vec![
                ad(9, vec![entry(2, 1), entry(9, 2)], 0),
                ad(2, vec![entry(2, 1)], 0),
            ],
        );
        first.id = 11;
        let mut second = update(1, vec![ad(9, vec![entry(1, 1), entry(9, 2)], 0)]);
        second.id = 12;
        // Re-sending an unchanged route touches nothing, so the cause of 2
        // stays with the first update.
        let mut third = update(2, vec![ad(2, vec![entry(2, 1)], 0)]);
        third.id = 13;
        let mut dirty = DirtyDests::default();
        dirty.ingest(
            &mut s,
            &[Arc::new(first), Arc::new(second), Arc::new(third)],
        );
        assert_eq!(dirty.dests(), &[AsId::new(2), AsId::new(9)]);
        assert_eq!(dirty.cause(AsId::new(2)), 11);
        assert_eq!(dirty.cause(AsId::new(9)), 12);
        assert_eq!(dirty.cause(AsId::new(1)), 0, "untouched");
        dirty.retain(|dest| dest == AsId::new(9));
        assert_eq!(dirty.dests(), &[AsId::new(9)]);
        // The next inbox starts from an empty set.
        dirty.ingest(&mut s, &[]);
        assert!(dirty.dests().is_empty());
        assert_eq!(dirty.cause(AsId::new(9)), 0);
    }
}
