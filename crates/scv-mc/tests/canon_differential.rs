//! Differential battery for the sort-based symmetry canonicalizer.
//!
//! [`SymmetryMode::Full`] computes orbit minima via sort-based refinement,
//! residual-subgroup enumeration, and observer-section key extensions;
//! [`SymmetryMode::FullEnum`] is the brute-force reference that walks the
//! entire capped group. The two must be *byte-identical* on every state —
//! fingerprints, canonical state counts, and checkpoints all hash through
//! the encoding, so a single diverging word silently corrupts the
//! quotient. These tests drive both canonicalizers over reachable states
//! of every zoo protocol (deterministic BFS prefixes and proptest-driven
//! random walks) and demand exact equality via
//! [`VerifySystem::canonical_encoding_of`], which bypasses every seal
//! cache. Tie counts are checked too: the fast path prunes interchangeable
//! elements out of the residual enumeration and multiplies its tie count
//! instead, so the orbit sizes and canon hits both record must match.
//!
//! Every test holds the telemetry test lock: the tie-count test enables
//! the process-wide registry, and a concurrent canonicalization would
//! record into it.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use scv_mc::{SymmetryMode, TransitionSystem, VerifyOptions, VerifySystem};
use scv_protocol::{
    DirectoryProtocol, LazyCaching, MesiProtocol, MsiProtocol, SerialMemory, Symmetry,
};
use scv_telemetry::{registry, Hist, HistSnapshot, Metric, TestSession};
use scv_types::Params;

/// Keep other tests' canonicalizations out of an enabled registry.
fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
    scv_telemetry::test_mutex()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// BFS the `Full` system to a bounded frontier and check every reached
/// state's canonical encoding against the `FullEnum` reference.
fn assert_agreement<P>(mk: impl Fn() -> P, cap: usize, label: &str)
where
    P: Symmetry,
    P::State: Clone + std::hash::Hash + Eq + Send + 'static,
{
    let _lock = telemetry_lock();
    let fast = VerifySystem::with_symmetry(mk(), SymmetryMode::Full);
    let reference = VerifySystem::with_symmetry(mk(), SymmetryMode::FullEnum);
    let mut frontier = vec![fast.initial()];
    let mut seen = std::collections::HashSet::new();
    let mut checked = 0usize;
    while let Some(s) = frontier.pop() {
        let enc_fast = fast.canonical_encoding_of(&s);
        let enc_ref = reference.canonical_encoding_of(&s);
        assert_eq!(
            enc_fast, enc_ref,
            "canonical encodings diverged on {label} after {checked} states"
        );
        checked += 1;
        if checked >= cap {
            break;
        }
        if seen.insert(enc_fast) {
            for (_, next) in fast.successors(&s) {
                frontier.push(next);
            }
        }
    }
    assert!(checked > 1, "walk of {label} explored nothing");
}

#[test]
fn fast_matches_full_enum_on_zoo_bfs_prefixes() {
    // Small params keep the FullEnum reference affordable while still
    // exercising multi-dimension groups (procs x blocks x values).
    let p = Params::new(3, 2, 2);
    assert_agreement(|| SerialMemory::new(p), 150, "serial");
    assert_agreement(|| MsiProtocol::new(p), 150, "msi");
    assert_agreement(|| MesiProtocol::new(p), 150, "mesi");
    assert_agreement(|| DirectoryProtocol::new(p), 150, "directory");
    assert_agreement(|| LazyCaching::new(p, 1, 1), 150, "lazy");
}

#[test]
fn fast_matches_full_enum_under_group_cap_degradation() {
    // p = 6 overflows GROUP_CAP, so the group drops to a single dimension
    // (procs, 720 elements) — the capped plan must still agree with the
    // reference walking the same capped group.
    let p = Params::new(6, 2, 2);
    assert_agreement(|| MsiProtocol::new(p), 60, "msi p=6 (capped group)");
    assert_agreement(|| SerialMemory::new(p), 60, "serial p=6 (capped group)");
}

/// BFS `cap` states of the `Full` system, then canonicalize all of them
/// once per mode with telemetry on: the orbit-size histograms and canon
/// hits must be identical.
fn assert_tie_parity<P>(mk: impl Fn() -> P, cap: usize, label: &str)
where
    P: Symmetry,
    P::State: Clone + std::hash::Hash + Eq + Send + 'static,
{
    let fast = VerifySystem::with_symmetry(mk(), SymmetryMode::Full);
    let reference = VerifySystem::with_symmetry(mk(), SymmetryMode::FullEnum);
    let mut states = Vec::new();
    let mut frontier = std::collections::VecDeque::from([fast.initial()]);
    let mut seen = std::collections::HashSet::new();
    while let Some(s) = frontier.pop_front() {
        if states.len() >= cap {
            break;
        }
        if seen.insert(fast.canonical_encoding_of(&s)) {
            for (_, next) in fast.successors(&s) {
                frontier.push_back(next);
            }
            states.push(s);
        }
    }
    let measure = |sys: &VerifySystem<P>| {
        registry().reset();
        for s in &states {
            sys.canonical_encoding_of(s);
        }
        (
            registry().hist(Hist::SymOrbitSize),
            registry().get(Metric::SymCanonHits),
        )
    };
    let (orbit_fast, hits_fast) = measure(&fast);
    let (orbit_ref, hits_ref) = measure(&reference);
    assert_eq!(
        orbit_fast.count,
        states.len() as u64,
        "{label}: one orbit size per state"
    );
    assert_eq!(
        orbit_fast, orbit_ref,
        "{label}: orbit-size histograms differ"
    );
    assert_eq!(hits_fast, hits_ref, "{label}: canon hits differ");
}

/// The same parity over a capped sequential search, which also seals
/// states without the identity encoding and reaches deeper states, where
/// label orders other than the first tie with more than one class
/// permutation each. Returns the fast path's residual-size histogram (the
/// size before class pruning).
fn assert_search_tie_parity<P>(mk: impl Fn() -> P, cap: usize, label: &str) -> HistSnapshot
where
    P: Symmetry + Sync,
    P::State: Clone + std::hash::Hash + Eq + Send + Sync + 'static,
{
    let measure = |mode| {
        registry().reset();
        let sys = VerifySystem::with_symmetry(mk(), mode);
        let stats = sys
            .search(&VerifyOptions::new().max_states(cap).threads(1))
            .stats();
        (
            (stats.states, stats.transitions),
            registry().hist(Hist::SymOrbitSize),
            registry().get(Metric::SymCanonHits),
            registry().hist(Hist::SymResidualGroupSize),
        )
    };
    let (counts_fast, orbit_fast, hits_fast, residual): (_, HistSnapshot, _, _) =
        measure(SymmetryMode::Full);
    let (counts_ref, orbit_ref, hits_ref, _) = measure(SymmetryMode::FullEnum);
    assert_eq!(
        counts_fast, counts_ref,
        "{label}: searches explored different states"
    );
    assert!(orbit_fast.count > 0, "{label}: nothing canonicalized");
    assert_eq!(
        orbit_fast, orbit_ref,
        "{label}: orbit-size histograms differ"
    );
    assert_eq!(hits_fast, hits_ref, "{label}: canon hits differ");
    residual
}

#[test]
fn tie_counts_match_full_enum() {
    let _session = TestSession::start();
    // (4,1,1) keeps the whole 4! process group under the cap, and with one
    // block and one value it is the only (outer) block, so a recorded
    // residual of at least 3! = 6 means a tied run of three or more
    // elements — where class pruning multiplies the tie count.
    let p = Params::new(4, 1, 1);
    assert_tie_parity(|| MsiProtocol::new(p), 200, "msi (4,1,1)");
    assert_tie_parity(|| SerialMemory::new(p), 200, "serial (4,1,1)");
    for (label, residual) in [
        (
            "msi",
            assert_search_tie_parity(|| MsiProtocol::new(p), 3_000, "msi (4,1,1)"),
        ),
        (
            "serial",
            assert_search_tie_parity(|| SerialMemory::new(p), 3_000, "serial (4,1,1)"),
        ),
    ] {
        assert!(
            residual.max >= 6,
            "{label} (4,1,1) never reached a tied run of size >= 3"
        );
    }
    // Multi-dimension groups (outer blocks × values) at small params.
    let p = Params::new(3, 2, 2);
    assert_tie_parity(|| MsiProtocol::new(p), 120, "msi (3,2,2)");
    assert_tie_parity(|| LazyCaching::new(p, 1, 1), 120, "lazy (3,2,2)");
}

/// Two *distinct* concrete states in the same orbit must canonicalize to
/// byte-identical encodings under `Full` — this is the property that lets
/// the model checker merge them. Pinned on MSI: walk the unquotiented
/// system, bucket states by their `Full` encoding, and demand a bucket
/// holding at least two states whose identity encodings differ.
#[test]
fn same_orbit_states_encode_identically() {
    let _lock = telemetry_lock();
    let params = Params::new(3, 1, 2);
    let plain = VerifySystem::with_symmetry(MsiProtocol::new(params), SymmetryMode::Off);
    let full = VerifySystem::with_symmetry(MsiProtocol::new(params), SymmetryMode::Full);
    let reference = VerifySystem::with_symmetry(MsiProtocol::new(params), SymmetryMode::FullEnum);
    let mut frontier = std::collections::VecDeque::from([plain.initial()]);
    let mut buckets: std::collections::HashMap<Vec<u64>, Vec<Vec<u64>>> =
        std::collections::HashMap::new();
    let mut visited = std::collections::HashSet::new();
    let mut found = false;
    let protocol = MsiProtocol::new(params);
    // Breadth-first: symmetric siblings (p0 acted vs p1 acted) sit at the
    // same depth, so a pair surfaces within the first few levels.
    while let Some(s) = frontier.pop_front() {
        // Identity key distinguishing concrete states: the injective
        // protocol encoding plus the unquotiented observer/checker
        // encoding (the Off-mode seal alone omits the protocol part — it
        // hashes it natively alongside).
        let mut identity = Vec::new();
        protocol.encode_state(&s.proto, &mut identity);
        identity.extend(plain.canonical_encoding_of(&s));
        if !visited.insert(identity.clone()) || visited.len() > 400 {
            continue;
        }
        let canon = full.canonical_encoding_of(&s);
        assert_eq!(
            canon,
            reference.canonical_encoding_of(&s),
            "fast/reference disagreement inside the orbit probe"
        );
        let bucket = buckets.entry(canon).or_default();
        if !bucket.contains(&identity) {
            bucket.push(identity);
            if bucket.len() >= 2 {
                found = true;
                break;
            }
        }
        for (_, next) in plain.successors(&s) {
            frontier.push_back(next);
        }
    }
    assert!(
        found,
        "no two distinct same-orbit states found in 400 MSI states — \
         the quotient would be vacuous"
    );
}

/// One random walk through the `Full` system, checking the reference at
/// every step. Steps are chosen by index from the successor list, so a
/// failing case shrinks to a minimal reproducing path.
fn assert_walk_agreement(proto: u8, p: u8, b: u8, v: u8, path: &[u8]) -> Result<(), TestCaseError> {
    let _lock = telemetry_lock();
    let params = Params::new(p, b, v);
    macro_rules! drive {
        ($mk:expr) => {{
            let fast = VerifySystem::with_symmetry($mk, SymmetryMode::Full);
            let reference = VerifySystem::with_symmetry($mk, SymmetryMode::FullEnum);
            let mut s = fast.initial();
            for &pick in path {
                let enc_fast = fast.canonical_encoding_of(&s);
                let enc_ref = reference.canonical_encoding_of(&s);
                prop_assert_eq!(
                    enc_fast,
                    enc_ref,
                    "diverged (proto {} {:?} path {:?})",
                    proto,
                    params,
                    path
                );
                let succ = fast.successors(&s);
                if succ.is_empty() {
                    break;
                }
                s = succ[pick as usize % succ.len()].1.clone();
            }
        }};
    }
    match proto {
        0 => drive!(SerialMemory::new(params)),
        1 => drive!(MsiProtocol::new(params)),
        2 => drive!(MesiProtocol::new(params)),
        3 => drive!(DirectoryProtocol::new(params)),
        _ => drive!(LazyCaching::new(params, 1, 1)),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random states of random zoo configurations: the sort-based
    /// canonicalizer and the brute-force reference must agree everywhere,
    /// not just on BFS prefixes (deep states exercise the observer key
    /// extension's heirs/owner gates).
    #[test]
    fn canonical_encodings_agree_on_random_states(
        proto in 0u8..5,
        p in 1u8..=3,
        b in 1u8..=2,
        v in 1u8..=2,
        path in proptest::collection::vec(0u8..=255, 1..24),
    ) {
        assert_walk_agreement(proto, p, b, v, &path)?;
    }
}
