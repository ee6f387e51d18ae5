//! Property battery for the admission-gated lazy expansion path.
//!
//! The gate fingerprints a candidate through `FpParts` (protocol
//! component iff unsealed, then the canonical encoding) *before* the
//! product state exists. That shortcut must be invisible: the
//! fingerprint the admission probe saw has to equal the fingerprint of
//! the state the engine then materializes and stores.
//!
//! Neither fingerprint is directly observable from outside the crate, but a
//! single wrong fingerprint is: it either drops a reachable state
//! (probe says "seen" for a state that isn't) or double-counts one
//! (probe admits a duplicate), so the lazy path and the trait-default
//! materialize-then-filter path (selected by the [`Eager`] wrapper)
//! diverge in `(verdict, states, transitions)` on a deterministic
//! sequential search. These properties drive randomly parameterized zoo
//! protocols through both paths and require exact agreement.
//!
//! The vendored proptest is deterministic (cases seeded from the test
//! name), so failures reproduce exactly.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use scv_mc::{bfs, BfsOptions, SearchResult, SymmetryMode, TransitionSystem, VerifySystem};
use scv_protocol::{
    DirectoryProtocol, LazyCaching, MesiProtocol, MsiProtocol, SerialMemory, Symmetry,
};
use scv_types::Params;

/// The materialize-then-filter reference: delegates `initial`,
/// `successors` and `violation` only, so `expand_admitted` is the trait
/// default (every successor cloned and encoded before the seen-set probe).
struct Eager<'a, T>(&'a T);

impl<T: TransitionSystem> TransitionSystem for Eager<'_, T> {
    type State = T::State;
    type Label = T::Label;
    type Violation = T::Violation;

    fn initial(&self) -> T::State {
        self.0.initial()
    }
    fn successors(&self, s: &T::State) -> Vec<(T::Label, T::State)> {
        self.0.successors(s)
    }
    fn violation(&self, s: &T::State) -> Option<T::Violation> {
        self.0.violation(s)
    }
}

fn verdict<L, V>(r: &SearchResult<L, V>) -> &'static str {
    match r {
        SearchResult::Safe(_) => "Verified",
        SearchResult::Unsafe(..) => "Violation",
        SearchResult::Bounded(_) => "Bounded",
    }
}

/// Sequential BFS through both expansion paths, as `(verdict, states,
/// transitions)` for the eager reference and then the lazy path.
fn both_paths<P>(proto: P, sym: SymmetryMode, cap: usize) -> [(&'static str, usize, usize); 2]
where
    P: Symmetry + Sync,
    P::State: Send + Sync + 'static,
{
    let sys = VerifySystem::with_symmetry(proto, sym);
    let opts = BfsOptions::new().max_states(cap);
    let summary = |r: SearchResult<_, _>| (verdict(&r), r.stats().states, r.stats().transitions);
    [summary(bfs(&Eager(&sys), opts)), summary(bfs(&sys, opts))]
}

/// Run one configuration through both expansion paths and demand exact
/// sequential agreement.
fn assert_parity(
    proto: u8,
    p: u8,
    b: u8,
    v: u8,
    sym: SymmetryMode,
    cap: usize,
) -> Result<(), TestCaseError> {
    let params = Params::new(p, b, v);
    let [eager, lazy] = match proto {
        0 => both_paths(SerialMemory::new(params), sym, cap),
        1 => both_paths(MsiProtocol::new(params), sym, cap),
        2 => both_paths(MesiProtocol::new(params), sym, cap),
        3 => both_paths(DirectoryProtocol::new(params), sym, cap),
        _ => both_paths(LazyCaching::new(params, 1, 1), sym, cap),
    };
    prop_assert_eq!(
        eager.0,
        lazy.0,
        "verdict diverged (proto {} {:?} {:?} cap {})",
        proto,
        params,
        sym,
        cap
    );
    prop_assert_eq!(
        (eager.1, eager.2),
        (lazy.1, lazy.2),
        "counts diverged (proto {} {:?} {:?} cap {})",
        proto,
        params,
        sym,
        cap
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random zoo configurations across every symmetry mode: the lazy
    /// path's pre-materialization fingerprint must never change what the
    /// search explores.
    #[test]
    fn lazy_eager_parity_random_configs(
        proto in 0u8..5,
        p in 1u8..=2,
        b in 1u8..=2,
        v in 1u8..=2,
        sym_pick in 0u8..3,
        cap in 300usize..1500,
    ) {
        let sym = match sym_pick {
            0 => SymmetryMode::Off,
            1 => SymmetryMode::Proc,
            _ => SymmetryMode::Full,
        };
        assert_parity(proto, p, b, v, sym, cap)?;
    }

    /// Full-symmetry configurations with a group of order >= 4 (p = 2
    /// and v = 2), where canonicalization walks residual candidates: a
    /// lazy fingerprint that disagreed with the materialized state's
    /// would drop or duplicate an orbit and break the count equality.
    #[test]
    fn group_order_four_never_changes_a_fingerprint(
        proto in 0u8..5,
        b in 1u8..=2,
        cap in 300usize..1500,
    ) {
        assert_parity(proto, 2, b, 2, SymmetryMode::Full, cap)?;
    }
}
