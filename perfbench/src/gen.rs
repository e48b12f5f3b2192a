//! Seeded, valid-by-construction workload inputs.
//!
//! Everything a workload runs is derived from the `--seed` argument
//! through [`mix`]; the engines under test receive only the generated
//! graphs, events and fault plans.

use bgpvcg_bench::families::Family;
use bgpvcg_bgp::{FaultPlan, TopologyEvent};
use bgpvcg_netgraph::{AsGraph, AsId, Cost};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A well-spread 64-bit value for stream `salt` of `seed` (SplitMix64).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th graph of a workload: `family` at `n` nodes, biconnected by
/// construction.
fn graph(family: Family, n: usize, seed: u64, i: usize) -> AsGraph {
    family.build(n, mix(seed, i as u64))
}

/// Set-up times of a workload, in seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Graph generation plus engine construction, which validates.
    pub setup_s: Vec<f64>,
    /// `netgraph` alone: graph generation plus `validate_for_mechanism`.
    pub build_s: Vec<f64>,
}

impl SetupTimes {
    /// Sets up the `i`-th graph of a workload `reps` times — generate it,
    /// validate it, build its engine with `engine` — and returns the graph
    /// and the last engine. Each engine is dropped before the next set-up
    /// starts, so every set-up after the first runs on a warm heap.
    pub fn set_up<E>(
        &mut self,
        (family, n, seed, i): (Family, usize, u64, usize),
        reps: usize,
        engine: impl Fn(&AsGraph) -> E,
    ) -> (AsGraph, E) {
        let mut last = None;
        for _ in 0..reps {
            drop(last.take());
            let t0 = Instant::now();
            let g = graph(family, n, seed, i);
            let generated = t0.elapsed();
            g.validate_for_mechanism()
                .expect("generated graphs are biconnected");
            self.build_s.push(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let e = engine(&g);
            self.setup_s.push((generated + t1.elapsed()).as_secs_f64());
            last = Some((g, e));
        }
        last.expect("at least one set-up")
    }
}

/// An endless stream of topology events, each valid in the topology the
/// previous ones left. Events come in turn as a cost change to a new value
/// in `[1, 10]`, and a link failure that keeps the graph biconnected
/// followed by the same link's recovery.
///
/// Nodes and links are visited in a seeded shuffled order, so every node
/// changes cost once before any changes twice. The per-event cost is
/// heavy-tailed: one hub failure costs as much as dozens of leaf events.
/// Visiting nodes and links in turn, rather than drawing them with
/// replacement, keeps the mean over a run from hinging on how many hubs
/// one seed happens to draw.
#[derive(Debug)]
pub struct ChurnStream {
    rng: StdRng,
    graph: AsGraph,
    nodes: Vec<AsId>,
    links: Vec<(AsId, AsId)>,
    next_node: usize,
    next_link: usize,
    link_turn: bool,
    pending_up: Option<(AsId, AsId)>,
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

impl ChurnStream {
    pub fn new(graph: AsGraph, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0xC4));
        let mut nodes: Vec<AsId> = graph.nodes().collect();
        let mut links: Vec<(AsId, AsId)> = graph.links().iter().map(|l| (l.a(), l.b())).collect();
        shuffle(&mut nodes, &mut rng);
        shuffle(&mut links, &mut rng);
        ChurnStream {
            rng,
            graph,
            nodes,
            links,
            next_node: 0,
            next_link: 0,
            link_turn: false,
            pending_up: None,
        }
    }

    /// The topology after the last event returned.
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    pub fn next_event(&mut self) -> TopologyEvent {
        if let Some((a, b)) = self.pending_up.take() {
            self.graph = self
                .graph
                .with_link(a, b)
                .expect("the link was taken down just before");
            return TopologyEvent::LinkUp(a, b);
        }
        self.link_turn = !self.link_turn;
        if self.link_turn {
            // Every failure is followed by its recovery, so the link set
            // is the original one again whenever a failure is drawn.
            for _ in 0..self.links.len() {
                let (a, b) = self.links[self.next_link % self.links.len()];
                self.next_link += 1;
                if let Ok(rest) = self.graph.without_link(a, b) {
                    if rest.is_biconnected() {
                        self.graph = rest;
                        self.pending_up = Some((a, b));
                        return TopologyEvent::LinkDown(a, b);
                    }
                }
            }
        }
        let k = self.nodes[self.next_node % self.nodes.len()];
        self.next_node += 1;
        let old = self.graph.cost(k);
        let cost = loop {
            let c = Cost::new(self.rng.gen_range(1..=10u64));
            if c != old {
                break c;
            }
        };
        self.graph = self.graph.with_cost(k, cost);
        TopologyEvent::CostChange(k, cost)
    }
}

/// Whether churn event `index` gets the full check against `vcg::compute`
/// (about one in 64, fixed by the seed).
pub fn sampled(seed: u64, index: usize) -> bool {
    mix(seed, 0x5A_0000 + index as u64).is_multiple_of(64)
}

/// Fault plan `i` for an `n`-node graph: the lossy channel of
/// `FaultPlan::lossy` until stage 24, plus one crash that restarts
/// before the channel heals.
pub fn chaos_plan(seed: u64, i: usize, n: usize) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xFA_0000 + i as u64));
    let at = rng.gen_range(2..=14u64);
    let node = AsId::new(rng.gen_range(0..n as u32));
    let restart = at + rng.gen_range(2..=8u64);
    FaultPlan::lossy(rng.gen(), 24).with_crash(at, node, restart)
}
