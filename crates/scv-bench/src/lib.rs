//! Shared workload builders for the benchmark and experiment harness.
//!
//! Every table and figure of the reproduction (see `EXPERIMENTS.md`) is
//! regenerated either by a Criterion bench in `benches/` or by the
//! `experiments` binary in `src/bin/`, both of which build their inputs
//! here so that measurements and tables use identical workloads. Time to
//! verdict — the repository's one performance yardstick — is measured by
//! the separate `verdictbench` package, not here.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use scv_descriptor::{encode, Descriptor};
use scv_graph::baseline::Witness;
use scv_graph::random::{random_witnessed_trace, WorkloadConfig};
use scv_graph::saturated_graph;
use scv_observer::Observer;
use scv_protocol::{Protocol, Run, Runner};
use scv_types::{Params, Trace};

/// A random SC workload: trace, ground-truth witness, and its saturated
/// constraint graph encoded at (bandwidth + slack).
pub struct ScWorkload {
    /// The trace.
    pub trace: Trace,
    /// The ground-truth witness.
    pub witness: Witness,
    /// The encoded descriptor.
    pub descriptor: Descriptor,
    /// The graph's exact node bandwidth.
    pub bandwidth: usize,
}

/// Build a deterministic random SC workload.
///
/// `window` controls how far operations drift from their serial positions
/// (larger windows → larger constraint-graph bandwidth).
pub fn sc_workload(len: usize, window: usize, seed: u64) -> ScWorkload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cfg = WorkloadConfig::new(Params::new(4, 4, 4), len);
    let wt = random_witnessed_trace(&cfg, window, &mut rng);
    let g = saturated_graph(&wt.trace, &wt.witness);
    let bandwidth = g.bandwidth();
    let descriptor = encode(&g, bandwidth.max(1) as u32).expect("exact bandwidth");
    ScWorkload {
        trace: wt.trace,
        witness: wt.witness,
        descriptor,
        bandwidth,
    }
}

/// Produce a deterministic random run of a protocol plus its observer
/// descriptor.
pub fn protocol_run<P: Protocol + Clone>(p: &P, steps: usize, seed: u64) -> (Run, Descriptor) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut runner = Runner::new(p.clone());
    runner.run_random(steps, 0.5, &mut rng);
    let run = runner.into_run();
    let d = Observer::observe_run(p, &run);
    (run, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scv_checker::ScChecker;
    use scv_protocol::MsiProtocol;

    #[test]
    fn workloads_are_deterministic_and_verify() {
        let w1 = sc_workload(200, 8, 1);
        let w2 = sc_workload(200, 8, 1);
        assert_eq!(w1.trace, w2.trace);
        assert_eq!(w1.descriptor, w2.descriptor);
        assert_eq!(ScChecker::check(&w1.descriptor), Ok(()));
    }

    #[test]
    fn bandwidth_grows_with_window() {
        let narrow = sc_workload(400, 2, 3);
        let wide = sc_workload(400, 32, 3);
        assert!(wide.bandwidth >= narrow.bandwidth);
    }

    #[test]
    fn protocol_runs_verify() {
        let p = MsiProtocol::new(Params::new(2, 2, 2));
        let (run, d) = protocol_run(&p, 80, 5);
        assert!(!run.is_empty());
        assert_eq!(ScChecker::check(&d), Ok(()));
    }
}
