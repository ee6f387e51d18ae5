//! Bytes per product state.
//!
//! The checker's and observer's per-state tables must be sized by the
//! descriptor IDs that are live, not by the ID space `k` — `k` only bounds
//! which IDs are legal. Every frontier state carries one observer and one
//! checker, so a table proportional to `k` is paid once per state.
//!
//! A per-thread counting allocator measures the heap bytes of clones and
//! of the packed frontier:
//!
//! * a fresh checker, and a fresh observer, cost the same at `k ≈ 30` and
//!   at `k ≈ 10 000` (the observer's location-owner table grows with `L`,
//!   which the comparison subtracts; nothing grows with the aux pool);
//! * a fresh observer's clone makes at most two allocations under either
//!   ST-order policy (its immutable configuration is shared, not copied);
//! * a product state's inline size stays under a fixed bound (live states
//!   still fill the expansion buffers);
//! * after a 5 000-state BFS of msi (6,2,2) with symmetry off, the packed
//!   frontier allocates under 280 B per queued state — record header and
//!   chunk slack included — at most half of what the same states cost
//!   queued live (inline, clone heap, packed encoding and the queue's
//!   fingerprint and depth); the packed encoding alone stays under 160 B.
//!
//! With `SCV_STRESS=1` the frontier check also runs msi, directory and
//! lazy caching at (6,2,2) to a 30 000-state cap, each under 448 B a
//! record and at most half its live cost.

use scv_checker::ScChecker;
use scv_mc::{Frontier, SymmetryMode, TransitionSystem, VerifyState, VerifySystem};
use scv_observer::{Observer, ObserverConfig};
use scv_protocol::{
    DirectoryProtocol, LazyCaching, MsiProtocol, Protocol, StOrderPolicy, Symmetry,
};
use scv_types::{Pack, Params};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashSet, VecDeque};
use std::mem::size_of;

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

/// Bound on the mean bytes the packed frontier allocates per msi (6,2,2)
/// state at the 5 000-state cap (211 B; the same states queued live took
/// 856 B).
const RECORD_BOUND: f64 = 280.0;

/// Bound on the mean packed canonical encoding of the same frontier
/// (73 B; 512 B unpacked).
const PACKED_BOUND: f64 = 160.0;

/// The `RECORD_BOUND` figure for every row of the 30 000-state stress run
/// (lazy caching, the largest, measures 333 B; live it took 1 275 B).
const RECORD_STRESS_BOUND: f64 = 448.0;

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

/// A product state's inline size: the expansion buffers hold live states
/// (the frontier holds records), so every inline byte is paid per buffered
/// successor before any heap block.
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

/// What a frontier state costs, averaged over the frontier.
struct Cost {
    /// Bytes the packed frontier allocates per queued state: its record
    /// (fingerprint, depth, length, packed state) and its share of the
    /// chunks' spare room and bookkeeping.
    record: f64,
    /// The same state queued live, as the frontier held it before it held
    /// records: the inline `VerifyState`, the heap one clone of it
    /// allocates (its packed encoding, which each clone owns, included),
    /// and the queue's fingerprint and depth beside it.
    live: f64,
    /// The record's parts: protocol, observer, checker, packed encoding
    /// (with its length), and the rest — the record header (fingerprint,
    /// depth, length) and the chunks' share.
    parts: [f64; 5],
    /// Bytes of the packed canonical encoding alone.
    packed: f64,
    /// Bytes the same encoding takes unpacked, 8 per word.
    unpacked: f64,
}

/// Bytes of `x`'s record.
fn packed_len<T: Pack>(x: &T) -> usize {
    let mut out = Vec::new();
    x.pack(&mut out);
    out.len()
}

/// Mean bytes per frontier state after a BFS over `cap` distinct states
/// (symmetry off).
fn frontier_cost<P>(proto: P, cap: usize) -> Cost
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
    let mean = |bytes: usize| bytes as f64 / n;

    let before = ALLOCATED.with(Cell::get);
    let mut frontier = Frontier::new();
    for s in &queue {
        frontier.push(s, 0, 0);
    }
    let record = ALLOCATED.with(Cell::get) - before;
    assert_eq!(frontier.len(), queue.len());

    let inline = size_of::<VerifyState<P::State>>() + size_of::<(u128, usize)>();
    let heap: usize = queue.iter().map(clone_bytes).sum();
    let packed: usize = queue.iter().map(VerifyState::packed_encoding_len).sum();
    let words: usize = queue.iter().map(|s| s.encoding().len()).sum();
    let proto: usize = queue.iter().map(|s| packed_len(&s.proto)).sum();
    let obs: usize = queue.iter().map(|s| packed_len(&s.obs)).sum();
    let chk: usize = queue.iter().map(|s| packed_len(&s.chk)).sum();
    let whole: usize = queue.iter().map(packed_len).sum();
    let records: usize = frontier.iter().map(|r| r.state.len()).sum();
    assert_eq!(records, whole, "a record holds exactly the packed state");
    let enc = whole - proto - obs - chk;
    Cost {
        record: mean(record),
        live: inline as f64 + mean(heap),
        parts: [
            mean(proto),
            mean(obs),
            mean(chk),
            mean(enc),
            mean(record - whole),
        ],
        packed: mean(packed),
        unpacked: mean(8 * words),
    }
}

/// One cost row, as the tests print it.
fn report(name: &str, c: &Cost) -> String {
    let [proto, obs, chk, enc, rest] = c.parts;
    format!(
        "{name} (6,2,2): {:.0} B per frontier state as a record \
         (protocol {proto:.0}, observer {obs:.0}, checker {chk:.0}, encoding {enc:.0}, \
         header and chunk {rest:.0}); {:.0} B live; encoding {:.0} B packed, {:.0} B unpacked",
        c.record, c.live, c.packed, c.unpacked
    )
}

#[test]
fn frontier_records_stay_small() {
    let c = frontier_cost(MsiProtocol::new(Params::new(6, 2, 2)), 5_000);
    eprintln!("{}", report("msi", &c));
    assert!(
        c.packed < PACKED_BOUND,
        "msi (6,2,2): {:.0} packed encoding bytes per frontier state ({:.0} unpacked)",
        c.packed,
        c.unpacked
    );
    assert!(c.record < RECORD_BOUND, "{}", report("msi", &c));
    assert!(2.0 * c.record <= c.live, "{}", report("msi", &c));
}

#[test]
fn frontier_records_stay_small_stress() {
    if std::env::var_os("SCV_STRESS").is_none() {
        return;
    }
    let params = Params::new(6, 2, 2);
    let rows = [
        ("msi", frontier_cost(MsiProtocol::new(params), 30_000)),
        (
            "directory",
            frontier_cost(DirectoryProtocol::new(params), 30_000),
        ),
        (
            "lazy",
            frontier_cost(LazyCaching::new(params, 1, 1), 30_000),
        ),
    ];
    for (name, c) in rows {
        eprintln!("{}", report(name, &c));
        assert!(c.record < RECORD_STRESS_BOUND, "{}", report(name, &c));
        assert!(2.0 * c.record <= c.live, "{}", report(name, &c));
    }
}
