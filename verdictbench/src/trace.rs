//! Per-layer attribution, measured from outside the program.
//!
//! Two parts, neither of which changes code inside the verifier:
//!
//! 1. Transparent wrappers time the search. [`Traced`] wraps a protocol
//!    and delegates every `Protocol`/`Symmetry` method, timing the step
//!    (`transitions`, `transitions_into`) and the symmetry hooks
//!    (`encode_state`, `permute_state`, `permute_loc`, `sort_keys`).
//!    [`TracedSystem`] wraps the product system and times `initial`,
//!    expansion (with the engine's `admit` callback timed separately) and
//!    `violation`. Spans nest through a per-thread stack, so every layer
//!    gets both inclusive and self (exclusive) time. Totals stay in memory
//!    — one cache-padded slot per thread — until the run reads them.
//! 2. [`replay`] times the layers that run *inside* the product system
//!    (observer step, checker step, canonical encodings, orbit
//!    canonicalization) per call, on reachable states sampled from the same
//!    workload by [`Sampler`].

use sc_verify::checker::ScChecker;
use sc_verify::descriptor::{IdCanon, Symbol};
use sc_verify::mc::{ExpandScratch, Fingerprinter, TransitionSystem, VerifyState, VerifySystem};
use sc_verify::observer::Observer;
use sc_verify::protocol::{LocId, Protocol, StOrderPolicy, Step, Symmetry, Transition};
use sc_verify::types::{Params, SortKeyBuf, SymDim, SymDims, SymPerm};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// A wrapped call boundary.
#[derive(Clone, Copy)]
pub enum Layer {
    /// `TransitionSystem::initial`.
    Initial,
    /// `expand_admitted` (and the materializing `successors*` paths).
    Expand,
    /// `TransitionSystem::violation` — the checker's end-of-run check.
    Violation,
    /// `Protocol::transitions` / `transitions_into`.
    Step,
    /// The `Symmetry` hooks.
    Sym,
    /// The engine's seen-set `admit` callback.
    Admit,
}
const LAYERS: usize = 6;

/// A count recorded at a wrapped boundary.
#[derive(Clone, Copy)]
pub enum Count {
    /// Fingerprints passed to `admit`.
    Probed,
    /// Fingerprints `admit` let through.
    Admitted,
}
const COUNTS: usize = 2;

/// Totals of one thread; written only by that thread.
#[repr(align(128))]
struct Slot {
    calls: [AtomicU64; LAYERS],
    incl_ns: [AtomicU64; LAYERS],
    self_ns: [AtomicU64; LAYERS],
    counts: [AtomicU64; COUNTS],
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            calls: [const { AtomicU64::new(0) }; LAYERS],
            incl_ns: [const { AtomicU64::new(0) }; LAYERS],
            self_ns: [const { AtomicU64::new(0) }; LAYERS],
            counts: [const { AtomicU64::new(0) }; COUNTS],
        }
    }
}

/// More than every search here uses (the main thread plus two workers).
const MAX_THREADS: usize = 16;
static SLOTS: [Slot; MAX_THREADS] = [const { Slot::new() }; MAX_THREADS];
static GENERATION: AtomicU64 = AtomicU64::new(1);
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

struct Frame {
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static SLOT: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// This thread's slot for the current generation.
fn slot() -> &'static Slot {
    let generation = GENERATION.load(Relaxed);
    let idx = SLOT.with(|c| {
        let (g, i) = c.get();
        if g == generation {
            return i;
        }
        let i = NEXT_SLOT.fetch_add(1, Relaxed);
        assert!(i < MAX_THREADS, "more traced threads than slots");
        c.set((generation, i));
        i
    });
    &SLOTS[idx]
}

/// Single-writer add: each slot is written by its own thread only, and
/// read after the search's threads have been joined.
fn bump(a: &AtomicU64, n: u64) {
    a.store(a.load(Relaxed) + n, Relaxed);
}

/// Zero every total and hand out fresh slots. Call between searches, never
/// while a traced search runs.
pub fn reset() {
    for s in &SLOTS {
        for a in s
            .calls
            .iter()
            .chain(&s.incl_ns)
            .chain(&s.self_ns)
            .chain(&s.counts)
        {
            a.store(0, Relaxed);
        }
    }
    NEXT_SLOT.store(0, Relaxed);
    GENERATION.fetch_add(1, Relaxed);
}

/// A span guard: records its layer's inclusive and self time on drop.
pub struct Span(Layer);

pub fn span(layer: Layer) -> Span {
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            start: Instant::now(),
            child_ns: 0,
        })
    });
    Span(layer)
}

impl Drop for Span {
    fn drop(&mut self) {
        let popped = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let f = s.pop()?;
            let dur = f.start.elapsed().as_nanos() as u64;
            if let Some(parent) = s.last_mut() {
                parent.child_ns += dur;
            }
            Some((dur, f.child_ns))
        });
        if let Some((dur, child)) = popped {
            let s = slot();
            let i = self.0 as usize;
            bump(&s.calls[i], 1);
            bump(&s.incl_ns[i], dur);
            bump(&s.self_ns[i], dur.saturating_sub(child));
        }
    }
}

pub fn count(c: Count, n: usize) {
    bump(&slot().counts[c as usize], n as u64);
}

/// Totals summed over every thread since the last [`reset`].
#[derive(Clone, Copy, Default)]
pub struct Totals {
    calls: [u64; LAYERS],
    incl_ns: [u64; LAYERS],
    self_ns: [u64; LAYERS],
    counts: [u64; COUNTS],
}

impl Totals {
    pub fn read() -> Totals {
        let mut t = Totals::default();
        for s in &SLOTS {
            for i in 0..LAYERS {
                t.calls[i] += s.calls[i].load(Relaxed);
                t.incl_ns[i] += s.incl_ns[i].load(Relaxed);
                t.self_ns[i] += s.self_ns[i].load(Relaxed);
            }
            for i in 0..COUNTS {
                t.counts[i] += s.counts[i].load(Relaxed);
            }
        }
        t
    }

    pub fn calls(&self, l: Layer) -> u64 {
        self.calls[l as usize]
    }

    pub fn incl_s(&self, l: Layer) -> f64 {
        self.incl_ns[l as usize] as f64 / 1e9
    }

    pub fn self_s(&self, l: Layer) -> f64 {
        self.self_ns[l as usize] as f64 / 1e9
    }

    pub fn count(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }
}

/// A protocol that delegates every method to `P`, timing the step and the
/// symmetry hooks.
#[derive(Clone)]
pub struct Traced<P>(pub P);

impl<P: Protocol> Protocol for Traced<P> {
    type State = P::State;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn params(&self) -> Params {
        self.0.params()
    }

    fn locations(&self) -> u32 {
        self.0.locations()
    }

    fn initial(&self) -> P::State {
        self.0.initial()
    }

    fn transitions(&self, s: &P::State) -> Vec<Transition<P::State>> {
        let _g = span(Layer::Step);
        self.0.transitions(s)
    }

    fn transitions_into(&self, s: &P::State, out: &mut Vec<Transition<P::State>>) {
        let _g = span(Layer::Step);
        self.0.transitions_into(s, out)
    }

    fn st_order_policy(&self) -> StOrderPolicy {
        self.0.st_order_policy()
    }
}

impl<P: Symmetry> Symmetry for Traced<P> {
    fn symmetry_dims(&self) -> SymDims {
        self.0.symmetry_dims()
    }

    fn permute_state(&self, s: &P::State, perm: &SymPerm) -> P::State {
        let _g = span(Layer::Sym);
        self.0.permute_state(s, perm)
    }

    fn permute_loc(&self, loc: LocId, perm: &SymPerm) -> LocId {
        let _g = span(Layer::Sym);
        self.0.permute_loc(loc, perm)
    }

    fn encode_state(&self, s: &P::State, out: &mut Vec<u64>) {
        let _g = span(Layer::Sym);
        self.0.encode_state(s, out)
    }

    fn sort_keys(&self, s: &P::State, dim: SymDim, keys: &mut SortKeyBuf) -> Option<usize> {
        let _g = span(Layer::Sym);
        self.0.sort_keys(s, dim, keys)
    }
}

/// Sampled reachable states kept for [`replay`]: every `STRIDE`-th
/// admitted state is offered to a reservoir of `CAP` states.
pub struct Sampler<S> {
    inner: Mutex<(u64, Vec<S>)>,
}

const STRIDE: u64 = 16;
const CAP: usize = 384;

thread_local! {
    static OFFERED: Cell<u64> = const { Cell::new(0) };
}

impl<S: Clone> Sampler<S> {
    pub fn new() -> Self {
        Sampler {
            inner: Mutex::new((0, Vec::new())),
        }
    }

    fn offer<L>(&self, admitted: &[(L, S, u128)]) {
        for (_, s, _) in admitted {
            let n = OFFERED.with(|c| {
                c.set(c.get() + 1);
                c.get()
            });
            if !n.is_multiple_of(STRIDE) {
                continue;
            }
            let mut g = self.inner.lock().expect("sampler lock poisoned");
            let (seen, kept) = &mut *g;
            *seen += 1;
            if kept.len() < CAP {
                kept.push(s.clone());
            } else {
                let j = (splitmix(*seen) % *seen) as usize;
                if j < CAP {
                    kept[j] = s.clone();
                }
            }
        }
    }

    pub fn take(self) -> Vec<S> {
        self.inner.into_inner().expect("sampler lock poisoned").1
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A transition system that delegates to `inner`, timing every call the
/// engines make into it.
pub struct TracedSystem<'a, T: TransitionSystem> {
    pub inner: &'a T,
    pub sampler: &'a Sampler<T::State>,
}

impl<T: TransitionSystem> TransitionSystem for TracedSystem<'_, T>
where
    T::State: Clone,
{
    type State = T::State;
    type Label = T::Label;
    type Violation = T::Violation;

    fn initial(&self) -> T::State {
        let _g = span(Layer::Initial);
        self.inner.initial()
    }

    fn successors(&self, s: &T::State) -> Vec<(T::Label, T::State)> {
        let _g = span(Layer::Expand);
        self.inner.successors(s)
    }

    fn violation(&self, s: &T::State) -> Option<T::Violation> {
        let _g = span(Layer::Violation);
        self.inner.violation(s)
    }

    fn successors_into(&self, s: &T::State, out: &mut Vec<(T::Label, T::State)>) {
        let _g = span(Layer::Expand);
        self.inner.successors_into(s, out)
    }

    fn expand_scratch(&self) -> ExpandScratch {
        self.inner.expand_scratch()
    }

    fn expand_admitted(
        &self,
        s: &T::State,
        scratch: &mut ExpandScratch,
        fper: &Fingerprinter,
        admit: &mut dyn FnMut(&[u128], &mut Vec<bool>),
        out: &mut Vec<(T::Label, T::State, u128)>,
    ) {
        let before = out.len();
        {
            let _g = span(Layer::Expand);
            let mut timed = |fps: &[u128], keep: &mut Vec<bool>| {
                {
                    let _a = span(Layer::Admit);
                    admit(fps, keep);
                }
                count(Count::Probed, fps.len());
                count(Count::Admitted, keep.iter().filter(|k| **k).count());
            };
            self.inner
                .expand_admitted(s, scratch, fper, &mut timed, out);
        }
        self.sampler.offer(&out[before..]);
    }
}

/// Per-call costs measured by [`replay`], as totals so several searches
/// can be pooled.
#[derive(Clone, Copy, Default)]
pub struct Replay {
    pub obs_ns: f64,
    pub obs_steps: u64,
    pub chk_ns: f64,
    pub chk_symbols: u64,
    pub encode_ns: f64,
    pub encodes: u64,
    pub canon_ns: f64,
    pub canons: u64,
}

impl Replay {
    pub fn add(&mut self, o: &Replay) {
        self.obs_ns += o.obs_ns;
        self.obs_steps += o.obs_steps;
        self.chk_ns += o.chk_ns;
        self.chk_symbols += o.chk_symbols;
        self.encode_ns += o.encode_ns;
        self.encodes += o.encodes;
        self.canon_ns += o.canon_ns;
        self.canons += o.canons;
    }

    pub fn per_call(total_ns: f64, calls: u64) -> f64 {
        if calls == 0 {
            0.0
        } else {
            total_ns / calls as f64
        }
    }
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Time the product system's inner layers per call on `states`: one
/// observer step per enabled transition, the checker on the symbols each
/// step emits, the aux-ID-canonical observer+checker encoding, and (under
/// symmetry) `canonical_encoding_of`, which bypasses the seal caches.
/// Copies the timed calls consume are made before each timed loop.
pub fn replay<P: Symmetry>(sys: &VerifySystem<P>, states: &[VerifyState<P::State>]) -> Replay {
    let proto = sys.protocol();
    let live: Vec<&VerifyState<P::State>> = states.iter().filter(|s| s.error.is_none()).collect();
    let mut r = Replay::default();

    let mut parent = Vec::new();
    let mut steps = Vec::new();
    for (i, s) in live.iter().enumerate() {
        for t in proto.transitions(&s.proto) {
            parent.push(i);
            steps.push(Step {
                action: t.action,
                tracking: t.tracking,
            });
        }
    }
    let mut observers: Vec<Observer> = parent.iter().map(|&i| live[i].obs.clone()).collect();
    let mut emitted: Vec<Vec<Symbol>> = (0..steps.len()).map(|_| Vec::with_capacity(16)).collect();
    let t = Instant::now();
    for ((obs, step), out) in observers.iter_mut().zip(&steps).zip(&mut emitted) {
        obs.step(step, out);
    }
    r.obs_ns = ns_since(t);
    r.obs_steps = steps.len() as u64;
    black_box(&observers);

    let mut checkers: Vec<ScChecker> = parent.iter().map(|&i| live[i].chk.clone()).collect();
    let t = Instant::now();
    let mut symbols = 0u64;
    for (chk, syms) in checkers.iter_mut().zip(&emitted) {
        for sym in syms {
            symbols += 1;
            if chk.step(sym).is_err() {
                break;
            }
        }
    }
    r.chk_ns = ns_since(t);
    r.chk_symbols = symbols;
    black_box(&checkers);

    let mut enc = Vec::with_capacity(512);
    let t = Instant::now();
    for s in &live {
        let mut ids = IdCanon::new(s.obs.location_count());
        enc.clear();
        s.obs.canonical_encoding(&mut enc, &mut ids);
        s.chk.canonical_encoding(&mut enc, &mut ids);
        black_box(&enc);
    }
    r.encode_ns = ns_since(t);
    r.encodes = live.len() as u64;

    if sys.symmetry_group_order() > 1 {
        // `canonical_encoding_of` reseals from owned copies; time the
        // copies alone and charge only the difference to canonicalization.
        let t = Instant::now();
        for s in &live {
            black_box(sys.canonical_encoding_of(s));
        }
        let with_copies = ns_since(t);
        let t = Instant::now();
        for s in &live {
            black_box((s.proto.clone(), s.obs.clone(), s.chk.clone()));
        }
        r.canon_ns = (with_copies - ns_since(t)).max(0.0);
        r.canons = live.len() as u64;
    }
    r
}
