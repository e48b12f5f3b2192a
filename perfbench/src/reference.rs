//! The centralized reference every distributed outcome is checked
//! against (`lcp` + `core::vcg`), timed part by part.

use crate::report::Report;
use crate::stats::median;
use bgpvcg_core::{vcg, RoutingOutcome};
use bgpvcg_lcp::avoiding::AvoidanceTable;
use bgpvcg_lcp::AllPairsLcp;
use bgpvcg_netgraph::AsGraph;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Default)]
pub struct Reference {
    all_pairs_s: Vec<f64>,
    avoidance_s: Vec<f64>,
    vcg_s: Vec<f64>,
}

impl Reference {
    /// `vcg::compute(graph)`; with `timed`, also times its two `lcp`
    /// parts on their own.
    pub fn compute(&mut self, graph: &AsGraph, timed: bool) -> RoutingOutcome {
        if timed {
            let t = Instant::now();
            let lcp = AllPairsLcp::compute(graph);
            self.all_pairs_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            black_box(AvoidanceTable::compute_fast(graph, &lcp));
            self.avoidance_s.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let outcome =
            vcg::compute(graph).expect("generated graphs meet the mechanism's preconditions");
        self.vcg_s.push(t.elapsed().as_secs_f64());
        outcome
    }

    /// Sets the `lcp.*` and `vcg.*` metrics; `op_s_p50` is the median
    /// untraced operation the `vcg.ratio` yardstick divides.
    pub fn set_metrics(&self, report: &mut Report, op_s_p50: f64) {
        let vcg_s = median(&self.vcg_s);
        report.set("lcp.all_pairs_s", median(&self.all_pairs_s));
        report.set("lcp.avoidance_s", median(&self.avoidance_s));
        report.set("vcg.compute_s", vcg_s);
        report.set("vcg.ratio", crate::stats::ratio(op_s_p50, vcg_s));
    }
}
