//! The `node` layer's timing wrapper: a [`ProtocolNode`] that forwards
//! every trait method to a [`PricingBgpNode`] and logs one span per call.
//!
//! Each wrapper keeps its own log, so worker threads of the parallel
//! engine record without sharing anything. After every `Some(update)` the
//! wrapper also encodes the update with the v2 codec, outside the node
//! span, which gives the `wire` layer its own span.

use bgpvcg_bgp::wire::encode_update_v2_into;
use bgpvcg_bgp::{LocalEvent, ProtocolNode, StateSnapshot, Update};
use bgpvcg_core::PricingBgpNode;
use bgpvcg_netgraph::AsId;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which entry point a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Handle,
    Start,
    Event,
    Reset,
    FullTable,
    /// `wire::encode_update_v2_into` on the update the call returned.
    Wire,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Handle => "node.handle",
            Kind::Start => "node.start",
            Kind::Event => "node.apply_event",
            Kind::Reset => "node.reset",
            Kind::FullTable => "node.full_table",
            Kind::Wire => "wire.encode_v2",
        }
    }
}

/// One timed call, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpan {
    pub kind: Kind,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
    /// Advertisements received (`Handle`) or bytes encoded (`Wire`).
    pub count: u32,
    /// Whether the call returned an update.
    pub emitted: bool,
}

impl NodeSpan {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The nanosecond clock every span of a run is read from.
#[derive(Debug, Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    pub fn new() -> Self {
        Epoch(Instant::now())
    }

    pub fn now(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A small per-thread number, so pool metrics can group spans by worker.
pub fn thread_index() -> u32 {
    THREAD.with(|t| *t)
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<NodeSpan>,
    scratch: Vec<u8>,
}

impl Log {
    fn record(&mut self, epoch: Epoch, mut span: NodeSpan, out: Option<&Update>) {
        span.emitted = out.is_some();
        self.spans.push(span);
        if let Some(update) = out {
            let start = epoch.now();
            self.scratch.clear();
            encode_update_v2_into(&mut self.scratch, update);
            self.spans.push(NodeSpan {
                kind: Kind::Wire,
                thread: span.thread,
                start,
                end: epoch.now(),
                count: self.scratch.len() as u32,
                emitted: false,
            });
        }
    }
}

/// A pricing node whose every call is timed.
#[derive(Debug)]
pub struct TimedNode {
    inner: PricingBgpNode,
    epoch: Epoch,
    log: Mutex<Log>,
}

impl TimedNode {
    pub fn wrap(nodes: Vec<PricingBgpNode>, epoch: Epoch) -> Vec<TimedNode> {
        nodes
            .into_iter()
            .map(|inner| TimedNode {
                inner,
                epoch,
                log: Mutex::new(Log::default()),
            })
            .collect()
    }

    pub fn inner(&self) -> &PricingBgpNode {
        &self.inner
    }

    pub fn into_inner(self) -> PricingBgpNode {
        self.inner
    }

    /// Moves this node's spans into `into`.
    pub fn drain(&self, into: &mut Vec<NodeSpan>) {
        let mut log = self
            .log
            .lock()
            .expect("span log poisoned by a panicking worker");
        into.append(&mut log.spans);
    }

    fn timed(
        &mut self,
        kind: Kind,
        count: u32,
        call: impl FnOnce(&mut PricingBgpNode) -> Option<Update>,
    ) -> Option<Update> {
        let start = self.epoch.now();
        let out = call(&mut self.inner);
        let span = NodeSpan {
            kind,
            thread: thread_index(),
            start,
            end: self.epoch.now(),
            count,
            emitted: false,
        };
        self.log
            .get_mut()
            .expect("span log poisoned by a panicking worker")
            .record(self.epoch, span, out.as_ref());
        out
    }
}

impl ProtocolNode for TimedNode {
    fn id(&self) -> AsId {
        self.inner.id()
    }

    fn start(&mut self) -> Option<Update> {
        self.timed(Kind::Start, 0, ProtocolNode::start)
    }

    fn handle(&mut self, updates: &[Arc<Update>]) -> Option<Update> {
        let entries: usize = updates.iter().map(|u| u.advertisements.len()).sum();
        self.timed(Kind::Handle, entries as u32, |n| n.handle(updates))
    }

    fn apply_event(&mut self, event: LocalEvent) -> Option<Update> {
        self.timed(Kind::Event, 0, |n| n.apply_event(event))
    }

    fn full_table(&self) -> Option<Update> {
        let start = self.epoch.now();
        let out = self.inner.full_table();
        let span = NodeSpan {
            kind: Kind::FullTable,
            thread: thread_index(),
            start,
            end: self.epoch.now(),
            count: 0,
            emitted: false,
        };
        self.log
            .lock()
            .expect("span log poisoned by a panicking worker")
            .record(self.epoch, span, out.as_ref());
        out
    }

    fn reset(&mut self) {
        self.timed(Kind::Reset, 0, |n| {
            n.reset();
            None
        });
    }

    fn state(&self) -> StateSnapshot {
        self.inner.state()
    }

    fn configure_delta_encoding(&mut self, on: bool) {
        self.inner.configure_delta_encoding(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_bench::families::Family;
    use bgpvcg_bgp::engine::{RunReport, SyncEngine};

    fn converge(delta: bool, wrapped: bool) -> RunReport {
        let graph = Family::BarabasiAlbert.build(48, 3);
        let nodes = PricingBgpNode::from_graph(&graph);
        if wrapped {
            let mut engine = SyncEngine::new(&graph, TimedNode::wrap(nodes, Epoch::new()));
            engine.set_delta_encoding(delta);
            engine.run_to_convergence()
        } else {
            let mut engine = SyncEngine::new(&graph, nodes);
            engine.set_delta_encoding(delta);
            engine.run_to_convergence()
        }
    }

    /// The engine's delta switch reaches nodes only through
    /// `configure_delta_encoding`; a wrapper that dropped it would send
    /// different bytes from the node it wraps.
    #[test]
    fn wrapper_forwards_the_delta_switch() {
        assert_ne!(
            converge(true, false).bytes_v2,
            converge(false, false).bytes_v2
        );
        for delta in [true, false] {
            assert_eq!(converge(delta, true), converge(delta, false));
        }
    }
}
