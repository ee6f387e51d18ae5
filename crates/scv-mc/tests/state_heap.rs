//! Bytes per product state.
//!
//! The checker's and observer's per-state tables must be sized by the
//! descriptor IDs that are live, not by the ID space `k` — `k` only bounds
//! which IDs are legal. Every frontier state carries one observer and one
//! checker, so a table proportional to `k` is paid once per state.
//!
//! A per-thread counting allocator measures the heap bytes of clones:
//!
//! * a fresh checker, and a fresh observer, cost the same at `k ≈ 30` and
//!   at `k ≈ 10 000` (the observer's location-owner table grows with `L`,
//!   which the comparison subtracts; nothing grows with the aux pool);
//! * a fresh observer's clone makes at most two allocations under either
//!   ST-order policy (its immutable configuration is shared, not copied);
//! * a product state's inline record stays under a fixed size;
//! * after a 5 000-state BFS of msi (6,2,2) with symmetry off, a frontier
//!   state's clone heap plus its packed canonical encoding (which clones
//!   share, so the allocator does not see it) averages under 480 B, and
//!   the packed encoding alone under 160 B.
//!
//! With `SCV_STRESS=1` the frontier check also runs msi, directory and
//! lazy caching at (6,2,2) to a 30 000-state cap, each under 896 B.

use scv_checker::ScChecker;
use scv_mc::{SymmetryMode, TransitionSystem, VerifyState, VerifySystem};
use scv_observer::{Observer, ObserverConfig};
use scv_protocol::{
    DirectoryProtocol, LazyCaching, MsiProtocol, Protocol, StOrderPolicy, Symmetry,
};
use scv_types::Params;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashSet, VecDeque};

/// Counts the bytes and the allocations each thread makes (tests run on
/// parallel threads, so a process-wide counter would mix their
/// measurements).
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes allocated by one clone of `x` (the clone is dropped after
/// the count is read).
fn clone_bytes<T: Clone>(x: &T) -> usize {
    let before = ALLOCATED.with(Cell::get);
    let copy = x.clone();
    let used = ALLOCATED.with(Cell::get) - before;
    drop(copy);
    used
}

/// Bound on `size_of::<VerifyState<_>>()` for msi, directory and lazy
/// caching (424, 472 and 472 B).
const INLINE_BOUND: usize = 512;

/// Bound on the mean heap bytes of an msi (6,2,2) frontier state's clone
/// plus its packed encoding at the 5 000-state cap (327 + 73 = 400 B with
/// the 48-byte checker node record; the clone alone was 449 B before it).
const FRONTIER_BOUND: f64 = 480.0;

/// Bound on the mean packed canonical encoding of the same frontier
/// (73 B; 512 B unpacked).
const PACKED_BOUND: f64 = 160.0;

/// The `FRONTIER_BOUND` figure for every row of the 30 000-state stress
/// run (lazy caching, the largest, measures 642 + 129 = 771 B).
const FRONTIER_STRESS_BOUND: f64 = 896.0;

/// Heap allocations made by one clone of `x`.
fn clone_allocations<T: Clone>(x: &T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let copy = x.clone();
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(copy);
    made
}

/// An observer for `locations` locations at (2,2,2): `k = 4L + 24`.
fn observer(locations: u32) -> Observer {
    Observer::new(ObserverConfig {
        params: Params::new(2, 2, 2),
        locations,
        policy: StOrderPolicy::RealTime,
    })
}

#[test]
fn fresh_tables_do_not_scale_with_k() {
    let (small, large) = (observer(2), observer(2500));
    assert!(
        small.k() <= 40 && large.k() >= 10_000,
        "k = {} / {}",
        small.k(),
        large.k()
    );

    let chk = |k: u32| clone_bytes(&ScChecker::new(k));
    assert_eq!(chk(small.k()), chk(large.k()), "checker clone grows with k");

    // The one table a fresh observer sizes by a parameter of `k` is its
    // location-owner section (one 32-bit node reference per location).
    let owner_table = |o: &Observer| {
        o.location_count() as usize * std::mem::size_of::<Option<std::num::NonZeroU32>>()
    };
    assert_eq!(
        clone_bytes(&small) - owner_table(&small),
        clone_bytes(&large) - owner_table(&large),
        "observer clone grows with the aux pool"
    );
}

#[test]
fn fresh_observer_clone_allocates_at_most_twice() {
    let params = Params::new(6, 2, 2);
    let real_time = Observer::new(ObserverConfig::from_protocol(&MsiProtocol::new(params)));
    let lazy = LazyCaching::new(params, 1, 1);
    assert!(matches!(
        lazy.st_order_policy(),
        StOrderPolicy::Serialization { .. }
    ));
    let serialization = Observer::new(ObserverConfig::from_protocol(&lazy));
    for (name, obs) in [("real time", real_time), ("serialization", serialization)] {
        let made = clone_allocations(&obs);
        assert!(
            made <= 2,
            "{name}: a fresh observer clone made {made} allocations"
        );
    }
}

/// A product state's inline size: the frontier holds one per state, so
/// every inline byte is paid per state before any heap block.
#[test]
fn product_state_inline_size_is_bounded() {
    use std::mem::size_of;
    let rows = [
        (
            "msi",
            size_of::<VerifyState<<MsiProtocol as Protocol>::State>>(),
        ),
        (
            "directory",
            size_of::<VerifyState<<DirectoryProtocol as Protocol>::State>>(),
        ),
        (
            "lazy",
            size_of::<VerifyState<<LazyCaching as Protocol>::State>>(),
        ),
    ];
    for (name, bytes) in rows {
        assert!(
            bytes <= INLINE_BOUND,
            "{name}: VerifyState is {bytes} B inline"
        );
    }
}

/// What a frontier state holds, averaged over the frontier.
struct Frontier {
    /// Heap bytes one clone of the state allocates.
    heap: f64,
    /// Bytes of the state's packed canonical encoding, which a clone shares
    /// instead of copying (so `heap` leaves it out).
    packed: f64,
    /// Bytes the same encoding takes unpacked, 8 per word.
    unpacked: f64,
}

/// Mean bytes per frontier state after a BFS over `cap` distinct states
/// (symmetry off).
fn frontier_bytes_per_state<P>(proto: P, cap: usize) -> Frontier
where
    P: Symmetry,
    P::State: Clone + std::hash::Hash + Eq + Send + 'static,
{
    let sys = VerifySystem::with_symmetry(proto, SymmetryMode::Off);
    let init = sys.initial();
    let mut seen: HashSet<VerifyState<P::State>> = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(init.clone());
    queue.push_back(init);
    'bfs: while let Some(s) = queue.pop_front() {
        for (_, t) in sys.successors(&s) {
            if seen.len() >= cap {
                queue.push_front(s);
                break 'bfs;
            }
            if seen.insert(t.clone()) {
                queue.push_back(t);
            }
        }
    }
    assert!(!queue.is_empty(), "the search finished before the cap");
    let n = queue.len() as f64;
    let heap: usize = queue.iter().map(clone_bytes).sum();
    let packed: usize = queue.iter().map(VerifyState::packed_encoding_len).sum();
    let words: usize = queue.iter().map(|s| s.encoding().len()).sum();
    Frontier {
        heap: heap as f64 / n,
        packed: packed as f64 / n,
        unpacked: (8 * words) as f64 / n,
    }
}

#[test]
fn frontier_states_stay_small() {
    let f = frontier_bytes_per_state(MsiProtocol::new(Params::new(6, 2, 2)), 5_000);
    assert!(
        f.packed < PACKED_BOUND,
        "msi (6,2,2): {:.0} packed encoding bytes per frontier state ({:.0} unpacked)",
        f.packed,
        f.unpacked
    );
    assert!(
        f.heap + f.packed < FRONTIER_BOUND,
        "msi (6,2,2): {:.0} heap + {:.0} encoding bytes per frontier state",
        f.heap,
        f.packed
    );
}

#[test]
fn frontier_states_stay_small_stress() {
    if std::env::var_os("SCV_STRESS").is_none() {
        return;
    }
    let params = Params::new(6, 2, 2);
    let rows = [
        (
            "msi",
            frontier_bytes_per_state(MsiProtocol::new(params), 30_000),
        ),
        (
            "directory",
            frontier_bytes_per_state(DirectoryProtocol::new(params), 30_000),
        ),
        (
            "lazy",
            frontier_bytes_per_state(LazyCaching::new(params, 1, 1), 30_000),
        ),
    ];
    for (name, f) in rows {
        eprintln!(
            "{name} (6,2,2): {:.0} heap + {:.0} encoding bytes per frontier state \
             ({:.0} unpacked)",
            f.heap, f.packed, f.unpacked
        );
        assert!(
            f.heap + f.packed < FRONTIER_STRESS_BOUND,
            "{name} (6,2,2): {:.0} heap + {:.0} encoding bytes per frontier state",
            f.heap,
            f.packed
        );
    }
}
