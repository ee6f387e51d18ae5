//! High-level verification facade.
//!
//! [`Verifier`] is the one front door over the two lower-level entry
//! points of [`scv_mc`]: the convenience function
//! [`scv_mc::verify_protocol`] and the reusable product system
//! [`scv_mc::VerifySystem`]. It owns the single construction site where
//! the options (including the requested [`SymmetryMode`]) meet the
//! protocol, and — when telemetry is installed — emits one
//! [`scv_telemetry::RunReport`] per [`Verifier::run`] so every caller
//! gets the same structured record the `scv` CLI writes.
//!
//! ```
//! use sc_verify::prelude::*;
//!
//! let outcome = Verifier::new(MsiProtocol::new(Params::new(2, 1, 2)))
//!     .max_states(3_000)
//!     .threads(1)
//!     .symmetry(SymmetryMode::Full)
//!     .run();
//! assert!(!matches!(outcome, Outcome::Violation { .. }));
//! ```

use scv_mc::{
    Budget, CancelToken, CheckpointError, Outcome, SymmetryMode, VerifyOptions, VerifySystem,
};
use scv_protocol::Symmetry;
use scv_types::SymPerm;
use std::path::PathBuf;
use std::time::Duration;

pub use scv_mc::RejectReason;

/// Canonical short verdict string for an [`Outcome`] — the single
/// spelling shared by the `verify/…` telemetry reports, the CLI summary
/// lines, and the fuzz harness.
pub fn verdict_str(out: &Outcome) -> &'static str {
    match out {
        Outcome::Verified { .. } => "verified",
        Outcome::Violation { .. } => "violation",
        Outcome::Bounded { .. } => "bounded",
        Outcome::Inconclusive { .. } => "inconclusive",
    }
}

/// What a `VERIFIED` verdict adds about its hash compaction: the seen set
/// keeps 128-bit fingerprints, so a proof over `states` states holds
/// unless two of them collided, with probability at most
/// `states² / 2¹²⁹` ([`scv_mc::fp_collision_bound`]). The `scv verify`
/// CLI appends this to its verdict line.
pub fn collision_bound_note(states: usize) -> String {
    format!(
        "fingerprint collision bound n²/2¹²⁹ = {:.1e}",
        scv_mc::fp_collision_bound(states)
    )
}

/// The symmetry quotient a run under `mode` uses: the dimensions it
/// quotients by, the group order |G|, and any dimension the group cap
/// dropped. The `scv verify` and `scv trace` CLIs print this line before
/// searching; the run report carries the dropped dimensions as its
/// `symmetry_dropped` param.
pub fn symmetry_note<P: Symmetry>(protocol: &P, mode: SymmetryMode) -> String {
    let params = protocol.params();
    let (kept, dropped) = mode.effective_dims(params, protocol.symmetry_dims());
    let order = SymPerm::group_order(params, kept);
    let mut note = format!("symmetry {mode:?}: quotient by {kept}, |G| = {order}");
    if dropped.any() {
        note += &format!("; group cap dropped {dropped}");
    }
    note
}

/// Builder-style facade over the product construction and search.
///
/// Construction is deferred: option setters only record the request, and
/// [`Verifier::run`] builds the [`VerifySystem`] (which is where the
/// symmetry group is enumerated) and drives the search. This keeps one
/// place where `VerifyOptions::symmetry` and
/// [`VerifySystem::with_symmetry`] are guaranteed to agree.
pub struct Verifier<P: Symmetry> {
    protocol: P,
    options: VerifyOptions,
}

impl<P: Symmetry + Sync> Verifier<P>
where
    P::State: Send + Sync + 'static,
{
    /// Start from the default options (sequential search, 200k-state cap,
    /// no symmetry reduction).
    pub fn new(protocol: P) -> Self {
        Self::with_options(protocol, VerifyOptions::default())
    }

    /// Start from pre-built options (e.g. parsed from a CLI).
    pub fn with_options(protocol: P, options: VerifyOptions) -> Self {
        Verifier { protocol, options }
    }

    /// The options the next [`Verifier::run`] will use.
    pub fn options(&self) -> &VerifyOptions {
        &self.options
    }

    /// Cap the number of explored product states.
    pub fn max_states(mut self, n: usize) -> Self {
        self.options = self.options.max_states(n);
        self
    }

    /// Cap the BFS depth.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.options = self.options.max_depth(d);
        self
    }

    /// Number of worker threads: 1 runs sequential BFS, more run the
    /// work-stealing engine.
    pub fn threads(mut self, n: usize) -> Self {
        self.options = self.options.threads(n);
        self
    }

    /// Work-stealing batch granularity.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.options = self.options.batch_size(n);
        self
    }

    /// Symmetry reduction mode (intersected with what the protocol
    /// declares sound).
    pub fn symmetry(mut self, mode: SymmetryMode) -> Self {
        self.options = self.options.symmetry(mode);
        self
    }

    /// Resource budget (wall clock, admitted states, resident memory).
    /// Tripping yields [`Outcome::Inconclusive`] rather than `Bounded`.
    pub fn budget(mut self, b: Budget) -> Self {
        self.options = self.options.budget(b);
        self
    }

    /// Wall-clock deadline, measured from the start of the run.
    pub fn timeout(mut self, d: Duration) -> Self {
        self.options = self.options.timeout(d);
        self
    }

    /// Cooperative cancellation token polled at admission boundaries.
    pub fn cancel_token(mut self, t: CancelToken) -> Self {
        self.options = self.options.cancel_token(t);
        self
    }

    /// Write a checkpoint this often (requires [`Verifier::checkpoint_to`]).
    pub fn checkpoint_every(mut self, d: Duration) -> Self {
        self.options = self.options.checkpoint_every(d);
        self
    }

    /// Where periodic and budget-trip checkpoints are written.
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.options = self.options.checkpoint_to(path);
        self
    }

    /// Resume from a checkpoint file instead of starting fresh.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.options = self.options.resume_from(path);
        self
    }

    /// Build the product system and run the search to an [`Outcome`].
    ///
    /// Panics if checkpoint I/O fails or a resume file does not match the
    /// system; [`Verifier::run_controlled`] surfaces those as errors.
    ///
    /// With telemetry installed, one `RunReport` named
    /// `verify/<protocol>` is emitted with the verdict and search stats.
    pub fn run(self) -> Outcome {
        match self.run_controlled() {
            Ok(out) => out,
            Err(e) => panic!("checkpoint error (use run_controlled to handle): {e}"),
        }
    }

    /// Build the product system and run the search, surfacing checkpoint
    /// errors (I/O failures, corrupt or mismatched resume files) instead
    /// of panicking.
    ///
    /// This is the blessed entry point for run-controlled verification:
    /// budgets, cancellation, periodic checkpointing, and resume all pass
    /// through here, and the emitted `RunReport` carries the interrupt
    /// reason and coverage for inconclusive runs.
    pub fn run_controlled(self) -> Result<Outcome, CheckpointError> {
        let name = self.protocol.name().to_string();
        let params = self.protocol.params();
        let system = VerifySystem::with_symmetry(self.protocol, self.options.symmetry);
        let out = system.try_search(&self.options)?;
        if scv_telemetry::enabled() {
            let s = out.stats();
            let verdict = verdict_str(&out);
            let (_, dropped) = self
                .options
                .symmetry
                .effective_dims(params, system.protocol().symmetry_dims());
            let mut report = scv_telemetry::RunReport::new(format!("verify/{name}"))
                .param("protocol", &name)
                .param("p", params.p.to_string())
                .param("b", params.b.to_string())
                .param("v", params.v.to_string())
                .param("threads", self.options.threads.to_string())
                .param("batch", self.options.batch_size.to_string())
                .param("max_states", self.options.bfs.max_states.to_string())
                .param("symmetry", format!("{:?}", self.options.symmetry))
                .param("symmetry_group", system.symmetry_group_order().to_string())
                .param("symmetry_dropped", dropped.to_string())
                .with_verdict(verdict)
                .metric("states", s.states as f64)
                .metric("transitions", s.transitions as f64)
                .metric("depth", s.depth as f64)
                .metric("elapsed_secs", s.elapsed.as_secs_f64())
                .metric("states_per_sec", s.states_per_sec())
                .metric("peak_frontier", s.peak_frontier as f64);
            // Sequential BFS neither steals nor batches seen-set inserts:
            // omit the fields rather than report a zero that means "not
            // measured".
            if self.options.threads > 1 {
                report = report
                    .metric("steals", s.steals as f64)
                    .metric("seen_batches", s.seen_batches as f64);
            }
            // Omitted (not zero) when the platform can't report it.
            if let Some(rss) = scv_telemetry::peak_rss_bytes() {
                report = report.metric("peak_rss_bytes", rss as f64);
            }
            if let Outcome::Verified { .. } = &out {
                report = report.metric("fp_collision_bound", scv_mc::fp_collision_bound(s.states));
            }
            if let Outcome::Inconclusive {
                reason, coverage, ..
            } = &out
            {
                report = report
                    .param("interrupt", reason.to_string())
                    .metric("frontier", coverage.frontier as f64);
            }
            scv_telemetry::emit_report(report);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scv_protocol::MsiProtocol;
    use scv_types::Params;

    #[test]
    fn verdict_strings_are_stable() {
        let bounded = Verifier::new(MsiProtocol::new(Params::new(2, 1, 2)))
            .max_states(100)
            .run();
        assert_eq!(verdict_str(&bounded), "bounded");
        let verified = Verifier::new(MsiProtocol::new(Params::new(1, 1, 1)))
            .max_states(500_000)
            .run();
        assert_eq!(verdict_str(&verified), "verified");
    }

    #[test]
    fn verified_runs_state_their_collision_bound() {
        // 61 064 states is the serial-memory (2,1,1) proof under full
        // symmetry: 61064² / 2¹²⁹ ≈ 5.48e-30.
        assert_eq!(
            collision_bound_note(61_064),
            "fingerprint collision bound n²/2¹²⁹ = 5.5e-30"
        );
        let session = scv_telemetry::TestSession::start();
        let verified = Verifier::new(MsiProtocol::new(Params::new(1, 1, 1)))
            .max_states(500_000)
            .run();
        let events = session.events();
        drop(session);
        assert_eq!(verdict_str(&verified), "verified");
        // Other tests may report into the same session: check every
        // verified report, and that ours is among them.
        let mut checked = 0;
        for e in events {
            let scv_telemetry::Event::Report(r) = e else {
                continue;
            };
            if r.verdict != "verified" {
                assert_eq!(r.get_metric("fp_collision_bound"), None);
                continue;
            }
            let n = r.get_metric("states").expect("states metric");
            assert_eq!(
                r.get_metric("fp_collision_bound"),
                Some(n * n / 2f64.powi(129))
            );
            checked += 1;
        }
        assert!(checked >= 1, "a verified run records its collision bound");
    }

    #[test]
    fn a_group_order_past_usize_is_capped_not_wrapped() {
        // 255! overflows usize: the order saturates, so the cap drops the
        // values dimension rather than enumerate a wrapped "small" group.
        let sys = scv_mc::VerifySystem::with_symmetry(
            scv_protocol::SerialMemory::new(Params::new(1, 1, 255)),
            SymmetryMode::Full,
        );
        assert!(sys.symmetry_group_order() <= 1024);
        let note = symmetry_note(sys.protocol(), SymmetryMode::Full);
        let dropped = note.split("group cap dropped ").nth(1).unwrap_or("");
        assert!(dropped.contains("values"), "{note}");
    }

    fn param<'a>(r: &'a scv_telemetry::RunReport, key: &str) -> Option<&'a str> {
        r.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The `verify/msi` reports a session collected for `p` processors.
    fn msi_reports(events: &[scv_telemetry::Event], p: u8) -> Vec<&scv_telemetry::RunReport> {
        events
            .iter()
            .filter_map(|e| match e {
                scv_telemetry::Event::Report(r) if r.name == "verify/msi" => Some(r),
                _ => None,
            })
            .filter(|r| param(r, "p") == Some(p.to_string().as_str()))
            .collect()
    }

    #[test]
    fn verdicts_name_the_dimensions_the_group_cap_dropped() {
        // msi (6,2,2) under full symmetry: 6!·2!·2! = 2880 > 1024, so the
        // cap drops values, then blocks, and quotients by processors alone.
        let big = MsiProtocol::new(Params::new(6, 2, 2));
        assert_eq!(
            symmetry_note(&big, SymmetryMode::Full),
            "symmetry Full: quotient by procs, |G| = 720; group cap dropped blocks+values"
        );
        // msi (6,1,2): 6!·1!·2! = 1440; dropping the one block shrinks
        // nothing, so the cap drops values alone.
        assert_eq!(
            symmetry_note(&MsiProtocol::new(Params::new(6, 1, 2)), SymmetryMode::Full),
            "symmetry Full: quotient by procs+blocks, |G| = 720; group cap dropped values"
        );
        let small = MsiProtocol::new(Params::new(2, 1, 2));
        assert_eq!(
            symmetry_note(&small, SymmetryMode::Full),
            "symmetry Full: quotient by procs+blocks+values, |G| = 4"
        );

        let session = scv_telemetry::TestSession::start();
        for p in [big, small] {
            Verifier::new(p)
                .max_states(50)
                .symmetry(SymmetryMode::Full)
                .run();
        }
        let events = session.events();
        drop(session);
        for (p, group, dropped) in [(6, "720", "blocks+values"), (2, "4", "none")] {
            let full: Vec<_> = msi_reports(&events, p)
                .into_iter()
                .filter(|r| param(r, "symmetry") == Some("Full"))
                .collect();
            assert!(!full.is_empty(), "msi p={p} emitted a report");
            for r in full {
                assert_eq!(param(r, "symmetry_group"), Some(group), "p={p}");
                assert_eq!(param(r, "symmetry_dropped"), Some(dropped), "p={p}");
            }
        }
    }

    #[test]
    fn run_report_omits_peak_rss_rather_than_reporting_zero() {
        let session = scv_telemetry::TestSession::start();
        Verifier::new(MsiProtocol::new(Params::new(3, 1, 1)))
            .max_states(50)
            .run();
        let reading = scv_telemetry::peak_rss_bytes();
        let events = session.events();
        drop(session);
        let reports = msi_reports(&events, 3);
        assert!(!reports.is_empty(), "the run emitted a report");
        for r in reports {
            let rss = r.get_metric("peak_rss_bytes");
            assert_eq!(rss.is_some(), reading.is_some(), "present iff readable");
            assert_ne!(rss, Some(0.0), "never a fake zero");
        }
    }

    #[test]
    fn facade_matches_verify_protocol() {
        let opts = VerifyOptions::new().max_states(3_000);
        let via_facade =
            Verifier::with_options(MsiProtocol::new(Params::new(2, 1, 2)), opts.clone()).run();
        let direct = scv_mc::verify_protocol(MsiProtocol::new(Params::new(2, 1, 2)), opts);
        assert_eq!(via_facade.stats().states, direct.stats().states);
        assert!(matches!(via_facade, Outcome::Bounded { .. }));
    }

    #[test]
    fn run_controlled_surfaces_inconclusive_runs() {
        let out = Verifier::new(MsiProtocol::new(Params::new(2, 1, 2)))
            .max_states(100_000)
            .budget(Budget::unlimited().states(500))
            .run_controlled()
            .unwrap();
        assert_eq!(verdict_str(&out), "inconclusive");
        let cov = out.coverage().unwrap();
        assert!(cov.explored >= 500);

        // A bad resume path is an error, not a panic.
        let err = Verifier::new(MsiProtocol::new(Params::new(2, 1, 2)))
            .resume_from("/nonexistent/scv.ckpt")
            .run_controlled()
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn facade_applies_symmetry() {
        // Depth-limited sweep: both searches cover the same frontier, so
        // the quotient count is strictly smaller (a shared state cap would
        // instead be hit by both and tie).
        let sweep = || {
            Verifier::new(MsiProtocol::new(Params::new(2, 1, 2)))
                .max_states(500_000)
                .max_depth(6)
        };
        let off = sweep().run();
        let on = sweep().symmetry(SymmetryMode::Full).run();
        assert!(
            on.stats().states < off.stats().states,
            "{} vs {}",
            on.stats().states,
            off.stats().states
        );
    }
}
