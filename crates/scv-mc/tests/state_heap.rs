//! Heap bytes per product state.
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
//! * after a 5 000-state BFS of msi (6,2,2) with symmetry off, a frontier
//!   state's clone averages under 2 KB of heap.
//!
//! With `SCV_STRESS=1` the second check also runs msi, directory and lazy
//! caching at (6,2,2) to a 30 000-state cap.

use scv_checker::ScChecker;
use scv_mc::{SymmetryMode, TransitionSystem, VerifyState, VerifySystem};
use scv_observer::{Observer, ObserverConfig};
use scv_protocol::{DirectoryProtocol, LazyCaching, MsiProtocol, StOrderPolicy, Symmetry};
use scv_types::Params;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashSet, VecDeque};

/// Counts the bytes each thread allocates (tests run on parallel threads,
/// so a process-wide counter would mix their measurements).
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
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
    // location-owner table (one `Option<u64>` per location).
    let owner_table =
        |o: &Observer| o.location_count() as usize * std::mem::size_of::<Option<u64>>();
    assert_eq!(
        clone_bytes(&small) - owner_table(&small),
        clone_bytes(&large) - owner_table(&large),
        "observer clone grows with the aux pool"
    );
}

/// Mean heap bytes of cloning a frontier state after a BFS over `cap`
/// distinct states (symmetry off).
fn frontier_heap_per_state<P>(proto: P, cap: usize) -> f64
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
    let total: usize = queue.iter().map(clone_bytes).sum();
    total as f64 / queue.len() as f64
}

#[test]
fn frontier_states_stay_small() {
    let per_state = frontier_heap_per_state(MsiProtocol::new(Params::new(6, 2, 2)), 5_000);
    assert!(
        per_state < 2048.0,
        "msi (6,2,2): {per_state:.0} heap bytes per frontier state"
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
            frontier_heap_per_state(MsiProtocol::new(params), 30_000),
        ),
        (
            "directory",
            frontier_heap_per_state(DirectoryProtocol::new(params), 30_000),
        ),
        (
            "lazy",
            frontier_heap_per_state(LazyCaching::new(params, 1, 1), 30_000),
        ),
    ];
    for (name, per_state) in rows {
        eprintln!("{name} (6,2,2): {per_state:.0} heap bytes per frontier state");
        assert!(
            per_state < 2048.0,
            "{name} (6,2,2): {per_state:.0} heap bytes per frontier state"
        );
    }
}
