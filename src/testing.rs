//! Runtime testing of single runs — the paper's §5 extension.
//!
//! > "our method can also be used for testing that a particular run of a
//! > protocol does not violate sequential consistency […] The finite-state
//! > observer and checker could be simulated together with detailed
//! > implementation descriptions that are too complex for formal
//! > verification."
//!
//! [`RunMonitor`] couples an automatically generated observer with the
//! streaming SC checker and consumes protocol steps *online*: feed it each
//! executed step of an implementation (simulator, emulator, RTL testbench
//! shim) as it happens, and it flags the first step whose witness graph
//! stops being an acyclic constraint graph — in memory bounded by the
//! protocol's location count, not by the run length.

use scv_checker::{ScChecker, ScError, ScVerdict};
use scv_descriptor::{Descriptor, Symbol};
use scv_observer::{Observer, ObserverConfig};
use scv_protocol::{Protocol, Step};

/// Online sequential-consistency monitor for a single run.
pub struct RunMonitor {
    observer: Observer,
    checker: ScChecker,
    steps: usize,
    failed: Option<ScError>,
    /// When recording, every symbol fed to the checker (for
    /// [`RunMonitor::explain`]); empty otherwise.
    recorded: Option<Vec<Symbol>>,
}

/// Outcome of feeding one step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MonitorStep {
    /// The run is still consistent with some serial reordering.
    Consistent,
    /// The witness graph became invalid at this step.
    Violation(ScError),
}

impl RunMonitor {
    /// Build a monitor for the given protocol (uses only its metadata:
    /// parameters, locations, ST order policy).
    pub fn new<P: Protocol>(protocol: &P) -> Self {
        let observer = Observer::new(ObserverConfig::from_protocol(protocol));
        let checker = ScChecker::new(observer.k());
        RunMonitor {
            observer,
            checker,
            steps: 0,
            failed: None,
            recorded: None,
        }
    }

    /// Like [`RunMonitor::new`], but additionally record the descriptor
    /// symbol stream so a violation can be explained afterwards with
    /// [`RunMonitor::explain`]. Memory grows with the run length (one
    /// symbol record per descriptor symbol), unlike the plain monitor.
    pub fn new_recording<P: Protocol>(protocol: &P) -> Self {
        let mut m = Self::new(protocol);
        m.recorded = Some(Vec::new());
        m
    }

    /// The descriptor recorded so far (monitor must have been built with
    /// [`RunMonitor::new_recording`]). The end-of-run flush symbols are
    /// appended only if no mid-stream violation fired, mirroring what
    /// [`RunMonitor::probe`] checks.
    pub fn recorded_descriptor(&self) -> Option<Descriptor> {
        let recorded = self.recorded.as_ref()?;
        let mut d = Descriptor::new(self.observer.k());
        d.symbols = recorded.clone();
        if self.failed.is_none() {
            let mut obs = self.observer.clone();
            let mut trailing = Vec::new();
            obs.finish(&mut trailing);
            d.symbols.extend(trailing);
        }
        Some(d)
    }

    /// Explain the violation the recorded run triggers, if any: decoded
    /// constraint-graph window, highlighted cycle, annotated DOT, and
    /// narration. Returns `None` when not recording or when the recorded
    /// run (including end-of-run checks) passes.
    pub fn explain(&self) -> Option<crate::explain::Explanation> {
        let d = self.recorded_descriptor()?;
        crate::explain::explain_descriptor(&d).ok()
    }

    /// Number of steps consumed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Has a violation already been flagged?
    pub fn is_violated(&self) -> bool {
        self.failed.is_some()
    }

    /// Record a divergence in the telemetry stream: the step index where
    /// the run stopped matching any serial reordering, the symbol under
    /// examination, and the checker's diagnosis.
    fn report_divergence(steps: usize, symbol: String, error: &ScError) {
        if !scv_telemetry::enabled() {
            return;
        }
        scv_telemetry::event(scv_telemetry::Event::MonitorDivergence {
            step_index: steps.saturating_sub(1) as u64,
            symbol,
            detail: error.to_string(),
        });
    }

    /// Feed one executed protocol step. Once a violation is reported, the
    /// monitor stays in the violated state.
    pub fn feed(&mut self, step: &Step) -> MonitorStep {
        if let Some(e) = &self.failed {
            return MonitorStep::Violation(e.clone());
        }
        let _t = scv_telemetry::timer(scv_telemetry::Phase::Replay);
        self.steps += 1;
        let mut syms = Vec::new();
        self.observer.step(step, &mut syms);
        if let Some(rec) = &mut self.recorded {
            rec.extend(syms.iter().cloned());
        }
        for sym in &syms {
            if let Err(e) = self.checker.step(sym) {
                Self::report_divergence(self.steps, sym.to_string(), &e);
                self.failed = Some(e.clone());
                return MonitorStep::Violation(e);
            }
        }
        MonitorStep::Consistent
    }

    /// Finish the run: emit the observer's trailing symbols (pending store
    /// serializations) and run the checker's end-of-string checks.
    pub fn finish(mut self) -> ScVerdict {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let _t = scv_telemetry::timer(scv_telemetry::Phase::Replay);
        let mut syms = Vec::new();
        self.observer.finish(&mut syms);
        for sym in &syms {
            if let Err(e) = self.checker.step(sym) {
                Self::report_divergence(self.steps, sym.to_string(), &e);
                return Err(e);
            }
        }
        let steps = self.steps;
        let verdict = self.checker.finish();
        if let Err(e) = &verdict {
            Self::report_divergence(steps, "end-of-run".to_string(), e);
        }
        verdict
    }

    /// Probe whether the run *as executed so far* would pass the
    /// end-of-string checks, without consuming the monitor (runs are
    /// prefix-closed, so this is a valid intermediate query).
    pub fn probe(&self) -> ScVerdict {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let mut obs = self.observer.clone();
        let mut chk = self.checker.clone();
        let mut syms = Vec::new();
        obs.finish(&mut syms);
        for sym in &syms {
            chk.step(sym)?;
        }
        chk.finish()
    }
}

/// Monitor a complete recorded run in one call: feed every step and run
/// the end-of-string checks. Equivalent to a `feed` loop followed by
/// [`RunMonitor::finish`], returning the first violation either way.
pub fn monitor_run<P: Protocol>(protocol: &P, run: &scv_protocol::Run) -> ScVerdict {
    let mut m = RunMonitor::new(protocol);
    for step in &run.steps {
        if let MonitorStep::Violation(e) = m.feed(step) {
            return Err(e);
        }
    }
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn monitor_accepts_msi_runs() {
        let p = MsiProtocol::new(Params::new(2, 2, 2));
        let mut rng = SmallRng::seed_from_u64(71);
        let mut runner = Runner::new(p.clone());
        let mut monitor = RunMonitor::new(&p);
        for _ in 0..200 {
            if !runner.step_random(&mut rng) {
                break;
            }
            let step = runner.run().steps.last().unwrap();
            assert_eq!(monitor.feed(step), MonitorStep::Consistent);
        }
        assert!(monitor.finish().is_ok());
    }

    #[test]
    fn monitor_run_matches_the_fuzz_drive_oracle() {
        // The online monitor and the fuzzer's batch drive are independent
        // paths over the same observer + checker; verdicts must agree on
        // runs of randomly generated protocols, mutated or not.
        let mut rng = SmallRng::seed_from_u64(73);
        for i in 0..12 {
            let cfg = if i % 2 == 0 {
                crate::fuzz::GenConfig::sample(&mut rng)
            } else {
                crate::fuzz::GenConfig::sample_mutated(&mut rng)
            };
            let proto = crate::fuzz::GenProtocol::new(cfg);
            let mut runner = Runner::new(proto.clone());
            runner.run_random(30, 0.5, &mut rng);
            let online = monitor_run(&proto, runner.run());
            let batch = crate::fuzz::drive(&proto, runner.run()).verdict;
            assert_eq!(online, batch, "paths split on {cfg}");
        }
    }

    #[test]
    fn monitor_probe_is_reusable() {
        let p = SerialMemory::new(Params::new(2, 1, 2));
        let mut rng = SmallRng::seed_from_u64(72);
        let mut runner = Runner::new(p.clone());
        let mut monitor = RunMonitor::new(&p);
        for _ in 0..50 {
            runner.step_random(&mut rng);
            monitor.feed(runner.run().steps.last().unwrap());
            assert!(monitor.probe().is_ok(), "every serial-memory prefix passes");
        }
    }

    #[test]
    fn monitor_flags_the_tso_litmus() {
        let p = StoreBufferTso::new(Params::new(2, 2, 1), 2);
        let mut runner = Runner::new(p.clone());
        let mut monitor = RunMonitor::new(&p);
        let mut take = |want: &dyn Fn(&Action) -> bool| {
            let t = runner
                .enabled()
                .into_iter()
                .find(|t| want(&t.action))
                .expect("enabled");
            runner.take(t);
        };
        take(&|a| a.op() == Some(Op::store(ProcId(1), BlockId(1), Value(1))));
        take(&|a| a.op() == Some(Op::store(ProcId(2), BlockId(2), Value(1))));
        take(&|a| a.op() == Some(Op::load(ProcId(1), BlockId(2), Value::BOTTOM)));
        take(&|a| a.op() == Some(Op::load(ProcId(2), BlockId(1), Value::BOTTOM)));
        take(&|a| matches!(a, Action::Internal("Drain", 1)));
        take(&|a| matches!(a, Action::Internal("Drain", 2)));
        let mut violated = false;
        for step in &runner.run().steps {
            if let MonitorStep::Violation(_) = monitor.feed(step) {
                violated = true;
                break;
            }
        }
        // The violation surfaces at latest on the second drain (when the
        // store order cycle closes) or at finish.
        if !violated {
            assert!(monitor.finish().is_err());
        }
    }

    #[test]
    fn violated_monitor_stays_violated() {
        let p = StoreBufferTso::new(Params::new(2, 2, 1), 2);
        let mut runner = Runner::new(p.clone());
        let mut monitor = RunMonitor::new(&p);
        let mut take = |want: &dyn Fn(&Action) -> bool| {
            let t = runner
                .enabled()
                .into_iter()
                .find(|t| want(&t.action))
                .expect("enabled");
            runner.take(t);
        };
        take(&|a| a.op() == Some(Op::store(ProcId(1), BlockId(1), Value(1))));
        take(&|a| a.op() == Some(Op::store(ProcId(2), BlockId(2), Value(1))));
        take(&|a| a.op() == Some(Op::load(ProcId(1), BlockId(2), Value::BOTTOM)));
        take(&|a| a.op() == Some(Op::load(ProcId(2), BlockId(1), Value::BOTTOM)));
        take(&|a| matches!(a, Action::Internal("Drain", 1)));
        take(&|a| matches!(a, Action::Internal("Drain", 2)));
        let steps = runner.run().steps.clone();
        for step in &steps {
            monitor.feed(step);
        }
        let was = monitor.is_violated();
        // Whether it tripped inline or not, probing reports the failure...
        assert!(monitor.probe().is_err());
        // ...and feeding more steps never un-violates.
        if was {
            let extra = steps[0].clone();
            assert!(matches!(monitor.feed(&extra), MonitorStep::Violation(_)));
        }
    }
}
