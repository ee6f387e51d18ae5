//! The §3.4 verification method as a transition system: protocol ⊗
//! observer ⊗ checker, optionally explored modulo the protocol's
//! symmetry group.

use crate::canon::{self, CanonScratch, FastPlan};
use crate::checkpoint::{CheckpointError, CheckpointFile, CheckpointHeader};
use crate::control::{Budget, CancelToken, Coverage, InterruptReason, RunControl};
use crate::frontier::Frontier;
use crate::mc::{
    bfs_controlled, eager_expand, BfsOptions, Checkpoints, ControlledSearch, ExpandScratch,
    Fingerprinter, McStats, SearchCheckpoint, SearchResult, Snapshot, TransitionSystem,
};
use crate::ws::ws_search_controlled;
use scv_checker::{ScChecker, ScError};
use scv_descriptor::Symbol;
use scv_observer::{Observer, ObserverConfig};
use scv_protocol::{location_maps, Action, Step, Symmetry, Transition};
use scv_types::pack::{pack_into, put_varint, take_bytes, take_varint, unpack};
use scv_types::{Op, Pack, Params, SymDims, SymPerm, Trace};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Why a product state was rejected — the typed replacement for the old
/// stringly error channel. [`fmt::Display`] reproduces the exact text the
/// strings used to carry ("rejected at symbol {p}: {kind:?}" for
/// mid-stream rejections, prefixed with "at run end: " for end-of-string
/// ones), so log-diffing across versions stays stable while callers can
/// now match on [`scv_checker::ScErrorKind`] structurally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// The checker rejected a descriptor symbol mid-stream: some prefix of
    /// the run already has no acyclic-constraint-graph witness.
    Stream(ScError),
    /// The run's symbols were accepted but the end-of-string conditions
    /// failed (order totality, outstanding forced obligations), possibly
    /// after replaying pending serializations.
    RunEnd(ScError),
}

impl RejectReason {
    /// The underlying checker error, whichever stage raised it.
    pub fn error(&self) -> &ScError {
        match self {
            RejectReason::Stream(e) | RejectReason::RunEnd(e) => e,
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Stream(e) => write!(f, "{e}"),
            RejectReason::RunEnd(e) => write!(f, "at run end: {e}"),
        }
    }
}

/// How much of the protocol's declared symmetry group the search quotients
/// by (CLI: `--symmetry=off|proc|full|full-enum`).
///
/// The *effective* group is always the intersection of what is requested
/// here with what the protocol declares sound via
/// [`Symmetry::symmetry_dims`] — requesting `Full` on a protocol that only
/// declares processor symmetry quotients by processors alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SymmetryMode {
    /// No reduction: explore the raw product space.
    #[default]
    Off,
    /// Processor permutations only.
    Proc,
    /// Everything the protocol declares: processors, blocks, and values.
    Full,
    /// The same quotient as [`SymmetryMode::Full`], computed by the
    /// brute-force reference canonicalizer (one renamed encoding per group
    /// element) instead of the sort-based fast path. Canonical encodings —
    /// and therefore fingerprints, state counts, and checkpoints — are
    /// byte-identical to `Full`; this mode exists as the differential
    /// oracle the fast path is tested against, and as the baseline arm of
    /// the canonicalization benchmarks.
    FullEnum,
}

impl SymmetryMode {
    /// The dimensions this mode requests (before intersecting with the
    /// protocol's declaration).
    pub fn requested_dims(self) -> SymDims {
        match self {
            SymmetryMode::Off => SymDims::NONE,
            SymmetryMode::Proc => SymDims::PROCS,
            SymmetryMode::Full | SymmetryMode::FullEnum => SymDims::FULL,
        }
    }

    /// The dimensions this mode quotients a protocol by, and the ones
    /// [`GROUP_CAP`] dropped: the requested dimensions the protocol
    /// declares sound (`declared`), shrunk by [`SymPerm::capped_dims`]
    /// until the group fits the cap. The group order is
    /// [`SymPerm::group_order`] of the first.
    pub fn effective_dims(self, params: Params, declared: SymDims) -> (SymDims, SymDims) {
        let dims = self.requested_dims().intersect(declared);
        let kept = SymPerm::capped_dims(params, dims, GROUP_CAP);
        (kept, dims.difference(kept))
    }

    /// The single-byte encoding used by the checkpoint file format.
    pub fn as_byte(self) -> u8 {
        match self {
            SymmetryMode::Off => 0,
            SymmetryMode::Proc => 1,
            SymmetryMode::Full => 2,
            SymmetryMode::FullEnum => 3,
        }
    }

    /// Inverse of [`SymmetryMode::as_byte`].
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(SymmetryMode::Off),
            1 => Some(SymmetryMode::Proc),
            2 => Some(SymmetryMode::Full),
            3 => Some(SymmetryMode::FullEnum),
            _ => None,
        }
    }
}

/// Upper bound on the symmetry-group order the checker will enumerate per
/// state seal. [`SymPerm::group`] drops whole dimensions (values, then
/// blocks, then processors) until the order fits, which keeps the
/// remaining set a true subgroup — required for soundness of the
/// orbit-minimum representative.
const GROUP_CAP: usize = 1024;

/// A product state: the protocol state paired with the live observer and
/// checker. Equality and hashing go through the canonical encodings, so
/// two product states that behave identically compare equal — this is
/// what makes the composed state space finite. Under symmetry reduction
/// the encoding is additionally the *orbit minimum* over the symmetry
/// group, so all members of an orbit compare equal; the stored components
/// remain the genuinely reached member (not the representative), which
/// keeps counterexample paths valid runs of the unreduced system.
#[derive(Clone)]
pub struct VerifyState<PS> {
    /// The protocol component.
    pub proto: PS,
    /// The observer component.
    pub obs: Observer,
    /// The checker component.
    pub chk: ScChecker,
    /// Rejection raised while reaching this state, if any (boxed: rare,
    /// and absorbing, so it costs an accepted state one pointer).
    pub error: Option<Box<RejectReason>>,
    /// The canonical encoding, packed ([`pack_into`]). Equality compares
    /// these bytes, which is the same relation as comparing the words.
    enc: Vec<u8>,
    /// True when `enc` is an orbit-canonical encoding that already covers
    /// the protocol component (hash/eq then ignore `proto`).
    sym: bool,
}

impl<PS> VerifyState<PS> {
    /// The canonical encoding this state hashes and compares through,
    /// unpacked.
    pub fn encoding(&self) -> Vec<u64> {
        unpack(&self.enc).collect()
    }

    /// Bytes the packed canonical encoding occupies (one byte for each
    /// `u64::MAX` sentinel word).
    pub fn packed_encoding_len(&self) -> usize {
        self.enc.len()
    }
}

/// The hashable projection of a product state that the admission gate
/// fingerprints *before* materializing it: protocol component iff the
/// encoding is not symmetry-sealed, then the canonical encoding. Must
/// hash exactly like [`VerifyState`] (same field order, and `&[u64]`
/// hashes identically to the packed bytes it stands in for) —
/// `tests/lazy_expand_props.rs` pins this equivalence.
struct FpParts<'a, PS> {
    proto: Option<&'a PS>,
    enc: &'a [u64],
}

impl<PS: Hash> Hash for FpParts<'_, PS> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        if let Some(p) = self.proto {
            p.hash(state);
        }
        self.enc.hash(state);
    }
}

/// A queued state's record: protocol, observer and checker records, then
/// the packed canonical encoding. The symmetry flag is the system's, so
/// unpack into a state of the same system (its initial state, for one);
/// the unpacked state hashes and compares exactly as the packed one did.
/// A state with a rejection is a counterexample, never queued, so a
/// record has no room for one.
impl<PS: Pack> Pack for VerifyState<PS> {
    fn pack(&self, out: &mut Vec<u8>) {
        assert!(self.error.is_none(), "a rejected state is never packed");
        self.proto.pack(out);
        self.obs.pack(out);
        self.chk.pack(out);
        put_varint(out, self.enc.len() as u64);
        out.extend_from_slice(&self.enc);
    }

    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        self.proto.unpack_from(bytes);
        self.obs.unpack_from(bytes);
        self.chk.unpack_from(bytes);
        let len = take_varint(bytes) as usize;
        self.enc.clear();
        self.enc.extend_from_slice(take_bytes(bytes, len));
        self.error = None;
    }
}

impl<PS: Eq> PartialEq for VerifyState<PS> {
    fn eq(&self, other: &Self) -> bool {
        debug_assert_eq!(self.sym, other.sym, "mixed-seal comparison");
        let base = self.enc == other.enc && self.error == other.error;
        if self.sym {
            base
        } else {
            base && self.proto == other.proto
        }
    }
}

impl<PS: Eq> Eq for VerifyState<PS> {}

impl<PS: Hash> Hash for VerifyState<PS> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        if !self.sym {
            self.proto.hash(state);
        }
        // Stream the words exactly as `<[u64]>::hash` does (length prefix,
        // then the words' bytes), so a state hashes as its `FpParts` did.
        // One word ends at each byte without the continuation bit.
        state.write_usize(self.enc.iter().filter(|&&b| b < 0x80).count());
        for w in unpack(&self.enc) {
            state.write(&w.to_ne_bytes());
        }
    }
}

/// One precomputed symmetry-group element: the identity renaming plus the
/// location maps it induces through [`Symmetry::permute_loc`].
pub(crate) struct PermEntry {
    pub(crate) perm: SymPerm,
    pub(crate) locs: Vec<u32>,
    pub(crate) locs_inv: Vec<u32>,
}

/// One replay slot of the lazy expansion scratch: the observer/checker
/// copies (and protocol successor) for a single candidate transition,
/// plus where its canonical encoding landed in the scratch arena.
///
/// `proto`/`obs`/`chk` are `Option` so an admitted candidate's components
/// can be *moved* into the materialized state with no extra copy; the
/// next expansion re-fills an emptied slot with a fresh clone, and a
/// still-full slot through allocation-reusing `clone_from`.
struct CandSlot<PS> {
    action: Action,
    proto: Option<PS>,
    obs: Option<Observer>,
    chk: Option<ScChecker>,
    /// The transition emitted no symbols, so the candidate's checker state
    /// *is* the parent's: the slot's `chk` copy was skipped (encoding read
    /// the parent directly) and materialization clones the parent instead.
    chk_is_parent: bool,
    error: Option<Box<RejectReason>>,
    /// Where the candidate's canonical encoding sits in the scratch
    /// arena (words).
    enc_start: usize,
    enc_len: usize,
}

/// Work buffers of [`VerifySystem::encode_into`], reused across
/// canonicalizations: one per worker inside [`SealScratch`], and one per
/// thread for states sealed outside the admission gate.
struct EncodeScratch {
    /// Aux-ID renaming of the identity encoding (no location map —
    /// `'static` is the no-borrow case).
    ids: scv_descriptor::IdCanon<'static>,
    /// Orbit-minimization incumbent and candidate.
    best: Vec<u64>,
    cand: Vec<u64>,
    /// Sort-based canonicalization work buffers.
    canon: CanonScratch,
}

impl EncodeScratch {
    fn new() -> Self {
        EncodeScratch {
            ids: scv_descriptor::IdCanon::new(0),
            best: Vec::with_capacity(160),
            cand: Vec::with_capacity(160),
            canon: CanonScratch::new(),
        }
    }
}

thread_local! {
    static ENCODE_SCRATCH: RefCell<EncodeScratch> = RefCell::new(EncodeScratch::new());
}

/// Per-worker scratch for admission-gated lazy expansion, carried by the
/// engines inside an opaque [`ExpandScratch`]. Everything here is reused
/// across expansions: the replay slots and the symbol and encoding
/// buffers.
pub(crate) struct SealScratch<PS> {
    slots: Vec<CandSlot<PS>>,
    syms: Vec<Symbol>,
    /// Reused transition-enumeration buffer (fed to
    /// [`scv_protocol::Protocol::transitions_into`]).
    trans: Vec<Transition<PS>>,
    /// Concatenated candidate encodings for the current expansion.
    enc: Vec<u64>,
    /// Candidate fingerprints and the admission verdicts they received.
    fps: Vec<u128>,
    keep: Vec<bool>,
    /// One admitted encoding, packed, before it is copied out at exact
    /// size.
    packed: Vec<u8>,
    encode: EncodeScratch,
}

impl<PS> SealScratch<PS> {
    fn new() -> Self {
        SealScratch {
            slots: Vec::new(),
            syms: Vec::new(),
            trans: Vec::new(),
            enc: Vec::with_capacity(1024),
            fps: Vec::new(),
            keep: Vec::new(),
            packed: Vec::with_capacity(256),
            encode: EncodeScratch::new(),
        }
    }
}

/// The product transition system for a protocol.
///
/// Built plain ([`VerifySystem::new`]) or with symmetry reduction
/// ([`VerifySystem::with_symmetry`]); the reduction canonicalizes each
/// product state to its orbit-minimum encoding before the seen-set sees
/// its fingerprint, in every search engine.
pub struct VerifySystem<P: Symmetry> {
    protocol: P,
    /// Identity-first symmetry group; empty when reduction is off or the
    /// effective group is trivial.
    perms: Vec<PermEntry>,
    /// The sort-based canonicalization plan; `None` selects the
    /// full-enumeration reference path ([`SymmetryMode::FullEnum`], or a
    /// protocol with no sortable dimension).
    fast: Option<FastPlan>,
    /// The mode the system was built with (recorded in checkpoint files so
    /// a resume under a different quotient is rejected up front).
    mode: SymmetryMode,
}

impl<P: Symmetry> VerifySystem<P> {
    /// Build the product system without symmetry reduction.
    pub fn new(protocol: P) -> Self {
        Self::with_symmetry(protocol, SymmetryMode::Off)
    }

    /// Build the product system, quotienting by the protocol's symmetry
    /// group as far as `mode` requests and the protocol declares sound.
    pub fn with_symmetry(protocol: P, mode: SymmetryMode) -> Self {
        let (dims, _) = mode.effective_dims(protocol.params(), protocol.symmetry_dims());
        let mut perms = Vec::new();
        let mut fast = None;
        if dims.any() {
            let group = SymPerm::group(protocol.params(), dims, GROUP_CAP);
            if group.len() > 1 {
                debug_assert!(group[0].is_identity(), "group must lead with identity");
                perms = group
                    .into_iter()
                    .map(|perm| {
                        let (locs, locs_inv) = location_maps(&protocol, &perm);
                        PermEntry {
                            perm,
                            locs,
                            locs_inv,
                        }
                    })
                    .collect();
                if mode != SymmetryMode::FullEnum {
                    fast = FastPlan::build(&protocol, dims, &perms);
                }
            }
        }
        VerifySystem {
            protocol,
            perms,
            fast,
            mode,
        }
    }

    /// The wrapped protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Order of the effective symmetry group (1 = no reduction).
    pub fn symmetry_group_order(&self) -> usize {
        self.perms.len().max(1)
    }

    /// Seal a product state: compute the canonical encoding its hash and
    /// equality go through, and pack it.
    fn seal(
        &self,
        proto: P::State,
        obs: Observer,
        chk: ScChecker,
        error: Option<Box<RejectReason>>,
    ) -> VerifyState<P::State> {
        let mut enc = Vec::new();
        pack_into(&self.canonical_encoding(&proto, &obs, &chk), &mut enc);
        VerifyState {
            proto,
            obs,
            chk,
            error,
            enc,
            sym: !self.perms.is_empty(),
        }
    }

    /// The canonical encoding of a product state's components, computed
    /// on this thread's scratch.
    fn canonical_encoding(&self, proto: &P::State, obs: &Observer, chk: &ScChecker) -> Vec<u64> {
        let mut enc = Vec::with_capacity(160);
        ENCODE_SCRATCH.with_borrow_mut(|es| self.encode_into(proto, obs, chk, es, &mut enc));
        enc
    }

    /// Recompute the canonical encoding of a product state from scratch —
    /// the differential-testing and benchmarking hook: two systems over
    /// the same protocol must produce byte-identical results here whether
    /// they canonicalize via the sort-based fast path
    /// ([`SymmetryMode::Full`]) or the brute-force reference
    /// ([`SymmetryMode::FullEnum`]).
    pub fn canonical_encoding_of(&self, s: &VerifyState<P::State>) -> Vec<u64> {
        self.canonical_encoding(&s.proto, &s.obs, &s.chk)
    }

    /// Append the canonical encoding of a product state's components to
    /// `out`: the one routine behind every seal, materialized or
    /// admission-gated, so a state's encoding depends on the state alone.
    ///
    /// Without symmetry this is the aux-ID-canonical encoding of observer
    /// and checker under one [`scv_descriptor::IdCanon`], so auxiliary
    /// descriptor IDs are renamed consistently across both (the protocol
    /// state is hashed natively alongside). With symmetry it is the
    /// lexicographic minimum, over every group element `g`, of the
    /// injective protocol encoding followed by the observer and checker
    /// encodings of `g · (proto, obs, chk)`, computed without
    /// materialising any renamed structure: by [`canon::fast_min`] when a
    /// sort-based plan exists, else by walking the whole group from the
    /// identity encoding ([`SymmetryMode::FullEnum`]).
    fn encode_into(
        &self,
        proto: &P::State,
        obs: &Observer,
        chk: &ScChecker,
        es: &mut EncodeScratch,
        out: &mut Vec<u64>,
    ) {
        let base = obs.location_count();
        if self.perms.is_empty() {
            let _t = scv_telemetry::timer_sampled(scv_telemetry::Phase::DescriptorEncode);
            es.ids.reset_with(base);
            obs.canonical_encoding(out, &mut es.ids);
            chk.canonical_encoding(out, &mut es.ids);
            return;
        }
        let _t = scv_telemetry::timer_sampled(scv_telemetry::Phase::Canonicalize);
        let best = &mut es.best;
        best.clear();
        self.protocol.encode_state(proto, best);
        let proto_len = best.len();
        match &self.fast {
            Some(plan) => canon::fast_min(
                &self.protocol,
                plan,
                &self.perms,
                proto,
                obs,
                chk,
                base,
                proto_len,
                best,
                &mut es.cand,
                &mut es.canon,
            ),
            None => {
                es.ids.reset_with(base);
                obs.canonical_encoding(best, &mut es.ids);
                chk.canonical_encoding(best, &mut es.ids);
                self.orbit_min(proto, obs, chk, base, proto_len, best, &mut es.cand);
            }
        }
        out.extend_from_slice(best);
    }

    /// The full-enumeration orbit minimization
    /// ([`SymmetryMode::FullEnum`]). On entry `best` holds the identity
    /// candidate (injective protocol prefix of `proto_len` words, then the
    /// plain canonical encodings); on exit it holds the lexicographic
    /// minimum over the whole group, computed without materialising any
    /// renamed structure.
    #[allow(clippy::too_many_arguments)]
    fn orbit_min(
        &self,
        proto: &P::State,
        obs: &Observer,
        chk: &ScChecker,
        base: u32,
        proto_len: usize,
        best: &mut Vec<u64>,
        cand: &mut Vec<u64>,
    ) {
        let mut ties = 1usize; // group elements mapping this state to the current minimum
        let mut beaten = false;
        // One renaming map reused across the whole group enumeration.
        let mut ids = scv_descriptor::IdCanon::new(base);
        for e in &self.perms[1..] {
            cand.clear();
            let ps = self.protocol.permute_state(proto, &e.perm);
            self.protocol.encode_state(&ps, cand);
            // Lexicographic fast path: if the renamed protocol prefix
            // already exceeds the current minimum's, the full candidate
            // cannot win or tie — skip the observer/checker walk.
            if cand.as_slice() > &best[..proto_len] {
                continue;
            }
            let view = scv_descriptor::SymView {
                perm: &e.perm,
                loc: &e.locs,
                loc_inv: &e.locs_inv,
            };
            ids.reset();
            ids.set_locs(&e.locs);
            obs.canonical_encoding_into(cand, &mut ids, Some(&view));
            chk.canonical_encoding_into(cand, &mut ids, Some(&view));
            match (*cand).cmp(best) {
                std::cmp::Ordering::Less => {
                    std::mem::swap(best, cand);
                    ties = 1;
                    beaten = true;
                }
                std::cmp::Ordering::Equal => ties += 1,
                std::cmp::Ordering::Greater => {}
            }
        }
        if scv_telemetry::enabled() {
            use scv_telemetry::{Hist, Metric};
            scv_telemetry::add(Metric::SymCanonicalized, 1);
            scv_telemetry::add(Metric::SymCanonHits, beaten as u64);
            // Orbit-stabilizer: |orbit| = |G| / |{g : E(g·s) = min}|.
            scv_telemetry::record(Hist::SymOrbitSize, (self.perms.len() / ties) as u64);
        }
    }
}

impl<P: Symmetry> TransitionSystem for VerifySystem<P>
where
    P::State: Send + 'static,
{
    type State = VerifyState<P::State>;
    type Label = Action;
    type Violation = RejectReason;

    fn initial(&self) -> Self::State {
        let obs = Observer::new(ObserverConfig::from_protocol(&self.protocol));
        let chk = ScChecker::new(obs.k());
        self.seal(self.protocol.initial(), obs, chk, None)
    }

    fn successors(&self, s: &Self::State) -> Vec<(Action, Self::State)> {
        let mut out = Vec::new();
        self.successors_into(s, &mut out);
        out
    }

    // Checkpoint replay and the materialize-first reference path
    // (`eager_expand`) expand through this; the search engines use
    // `expand_admitted`.
    fn successors_into(&self, s: &Self::State, out: &mut Vec<(Action, Self::State)>) {
        if s.error.is_some() {
            return; // rejection is absorbing
        }
        let _t = scv_telemetry::timer(scv_telemetry::Phase::Expand);
        let mut syms = Vec::new(); // hoisted: one symbol buffer per expansion
        for t in self.protocol.transitions(&s.proto) {
            let Transition {
                action,
                next,
                tracking,
            } = t;
            let mut obs = s.obs.clone();
            let mut chk = s.chk.clone();
            syms.clear();
            obs.step(&Step { action, tracking }, &mut syms);
            let mut error = None;
            {
                let _t = scv_telemetry::timer_sampled(scv_telemetry::Phase::CheckerStep);
                for sym in &syms {
                    if let Err(e) = chk.step(sym) {
                        error = Some(Box::new(RejectReason::Stream(e)));
                        break;
                    }
                }
            }
            out.push((action, self.seal(next, obs, chk, error)));
        }
    }

    fn expand_scratch(&self) -> ExpandScratch {
        ExpandScratch::new(SealScratch::<P::State>::new())
    }

    // The admission-gated hot path: replay each candidate transition into
    // reused scratch copies, seal only as far as a fingerprint, let the
    // engine's `admit` probe reject duplicates, and materialize (move out
    // of the scratch slots + pack the encoding) only what survived. In
    // dense product graphs the majority of candidates are duplicates, so
    // the majority of clone/alloc work is skipped — `mc.clones_avoided`
    // counts exactly how much.
    fn expand_admitted(
        &self,
        s: &Self::State,
        scratch: &mut ExpandScratch,
        fper: &Fingerprinter,
        admit: &mut dyn FnMut(&[u128], &mut Vec<bool>),
        out: &mut Vec<(Action, Self::State, u128)>,
    ) {
        if s.error.is_some() {
            return; // rejection is absorbing
        }
        let Some(sc) = scratch.get_mut::<SealScratch<P::State>>() else {
            // A foreign scratch: some engine didn't thread ours through.
            // The reference path is always correct.
            eager_expand(self, s, fper, admit, out);
            return;
        };
        let _t = scv_telemetry::timer(scv_telemetry::Phase::Expand);
        let sym = !self.perms.is_empty();
        // Taken out of the scratch so the loop can mutate `sc` while
        // draining it; the allocation is handed back at the end.
        let mut trans = std::mem::take(&mut sc.trans);
        trans.clear();
        self.protocol.transitions_into(&s.proto, &mut trans);
        let n = trans.len();
        if n == 0 {
            sc.trans = trans;
            return;
        }
        sc.enc.clear();
        sc.fps.clear();
        for (i, t) in trans.drain(..).enumerate() {
            let Transition {
                action,
                next,
                tracking,
            } = t;
            if sc.slots.len() <= i {
                sc.slots.push(CandSlot {
                    action,
                    proto: None,
                    obs: None,
                    chk: None,
                    chk_is_parent: false,
                    error: None,
                    enc_start: 0,
                    enc_len: 0,
                });
            }
            let slot = &mut sc.slots[i];
            slot.action = action;
            slot.error = None;
            slot.proto = Some(next);
            // Replay into the slot's scratch copies: `clone_from` reuses
            // the previous round's allocations; only an emptied slot (its
            // components were moved into an admitted state) pays a fresh
            // clone — which the materialize-first path (`successors`) pays
            // for *every* candidate.
            sc.syms.clear();
            copy_into(&mut slot.obs, &s.obs).step(&Step { action, tracking }, &mut sc.syms);
            // A transition with no symbols (an internal protocol action)
            // leaves the checker untouched: skip the checker copy and
            // encode through the parent's checker directly. Materializing
            // such a candidate clones the parent checker then — but only
            // for admitted candidates, where the materialize-first path
            // clones it for every one.
            slot.chk_is_parent = sc.syms.is_empty();
            if !slot.chk_is_parent {
                let chk = copy_into(&mut slot.chk, &s.chk);
                let _t = scv_telemetry::timer_sampled(scv_telemetry::Phase::CheckerStep);
                for symbol in &sc.syms {
                    if let Err(e) = chk.step(symbol) {
                        slot.error = Some(Box::new(RejectReason::Stream(e)));
                        break;
                    }
                }
            }
            // Fingerprint-only seal: canonical encoding into the scratch
            // arena, no state construction.
            let obs = slot.obs.as_ref().expect("slot.obs filled above");
            let chk = if slot.chk_is_parent {
                &s.chk
            } else {
                slot.chk.as_ref().expect("slot.chk filled above")
            };
            let proto_next = slot.proto.as_ref().expect("slot.proto filled above");
            let start = sc.enc.len();
            self.encode_into(proto_next, obs, chk, &mut sc.encode, &mut sc.enc);
            let fp = fper.fp(&FpParts {
                proto: (!sym).then_some(proto_next),
                enc: &sc.enc[start..],
            });
            slot.enc_start = start;
            slot.enc_len = sc.enc.len() - start;
            sc.fps.push(fp);
        }
        sc.trans = trans; // drained; hand the allocation back

        admit(&sc.fps, &mut sc.keep);
        debug_assert_eq!(sc.keep.len(), n);
        let admitted = sc.keep.iter().filter(|k| **k).count();
        if scv_telemetry::enabled() {
            scv_telemetry::add(
                scv_telemetry::Metric::McClonesAvoided,
                (n - admitted) as u64,
            );
        }
        if admitted == 0 {
            return;
        }

        for i in 0..n {
            if !sc.keep[i] {
                continue;
            }
            let slot = &mut sc.slots[i];
            sc.packed.clear();
            pack_into(
                &sc.enc[slot.enc_start..slot.enc_start + slot.enc_len],
                &mut sc.packed,
            );
            if scv_telemetry::enabled() {
                scv_telemetry::add(
                    scv_telemetry::Metric::McArenaAllocBytes,
                    sc.packed.len() as u64,
                );
            }
            out.push((
                slot.action,
                VerifyState {
                    proto: slot.proto.take().expect("admitted slot has proto"),
                    obs: slot.obs.take().expect("admitted slot has obs"),
                    chk: if slot.chk_is_parent {
                        s.chk.clone()
                    } else {
                        slot.chk.take().expect("admitted slot has chk")
                    },
                    error: slot.error.take(),
                    enc: sc.packed.clone(),
                    sym,
                },
                sc.fps[i],
            ));
        }
    }

    fn violation(&self, s: &Self::State) -> Option<RejectReason> {
        if let Some(e) = &s.error {
            return Some(RejectReason::clone(e));
        }
        let _t = scv_telemetry::timer_sampled(scv_telemetry::Phase::CheckerEnd);
        // Traces are prefix-closed: every reachable state is a possible
        // end of run, so the end-of-string conditions (order totality,
        // outstanding forced obligations) must hold here too.
        if !s.obs.has_pending() {
            // Nothing left to serialize: probe the checker in place.
            return s.chk.check_end().err().map(RejectReason::RunEnd);
        }
        // Pending serializations: replay the observer's trailing symbols
        // on this thread's copies.
        END_PROBE.with_borrow_mut(|p| {
            p.syms.clear();
            copy_into(&mut p.obs, &s.obs).finish(&mut p.syms);
            let chk = copy_into(&mut p.chk, &s.chk);
            for sym in &p.syms {
                if let Err(e) = chk.step(sym) {
                    return Some(RejectReason::RunEnd(e));
                }
            }
            chk.check_end().err().map(RejectReason::RunEnd)
        })
    }
}

/// `src` copied into `slot`: through allocation-reusing `clone_from` when
/// the slot is full, a fresh clone when it is empty.
fn copy_into<'a, T: Clone>(slot: &'a mut Option<T>, src: &T) -> &'a mut T {
    match slot {
        Some(x) => {
            x.clone_from(src);
            x
        }
        None => slot.insert(src.clone()),
    }
}

/// Replay copies for [`VerifySystem::violation`]'s pending-serialization
/// probe, reused across calls on one thread.
#[derive(Default)]
struct EndProbe {
    obs: Option<Observer>,
    chk: Option<ScChecker>,
    syms: Vec<Symbol>,
}

thread_local! {
    static END_PROBE: RefCell<EndProbe> = RefCell::new(EndProbe::default());
}

/// Limits and parallelism for [`verify_protocol`].
///
/// Construct with the chained builder:
///
/// ```
/// use scv_mc::{SymmetryMode, VerifyOptions};
/// let opts = VerifyOptions::new()
///     .threads(4)
///     .max_states(500_000)
///     .symmetry(SymmetryMode::Full);
/// # assert_eq!(opts.threads, 4);
/// ```
///
/// The struct is `#[non_exhaustive]`, so literal construction outside this
/// crate no longer compiles; `VerifyOptions::default()` remains as an
/// escape hatch (fields stay public for reading and in-place mutation)
/// for one release while callers migrate.
///
/// Run control rides along here too: a [`Budget`] and [`CancelToken`]
/// bound the run (tripping yields [`Outcome::Inconclusive`], not
/// `Bounded`), and the checkpoint fields make interrupted searches
/// resumable — see [`VerifySystem::try_search`]. These fields made the
/// struct `Clone`-but-not-`Copy`.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct VerifyOptions {
    /// BFS limits.
    pub bfs: BfsOptions,
    /// Worker threads: 1 runs sequential BFS, more run the work-stealing
    /// engine.
    pub threads: usize,
    /// Work-stealing batch granularity: states per deque chunk and
    /// fingerprints claimed per seen-set lock acquisition (ignored by
    /// sequential BFS).
    pub batch_size: usize,
    /// Symmetry reduction: quotient the product space by the protocol's
    /// declared symmetry group.
    pub symmetry: SymmetryMode,
    /// Resource budget for the run (wall clock, admitted states, resident
    /// memory). Tripping yields [`Outcome::Inconclusive`].
    pub budget: Budget,
    /// Cooperative cancellation handle polled at admission boundaries.
    pub cancel: CancelToken,
    /// Write a checkpoint this often while the run is in progress: a
    /// snapshot of the live search at the engine's next consistent point,
    /// due this long after the previous write finished. Without
    /// [`VerifyOptions::checkpoint_path`] it does nothing.
    pub checkpoint_every: Option<Duration>,
    /// Where periodic and final (budget-trip) checkpoints are written.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume a previous run from this checkpoint file instead of
    /// starting fresh. The file must match the protocol, parameters,
    /// symmetry mode, and initial state, or the search fails with
    /// [`CheckpointError::Mismatch`].
    pub resume_from: Option<PathBuf>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            bfs: BfsOptions::new().max_states(200_000),
            threads: 1,
            batch_size: 128,
            symmetry: SymmetryMode::Off,
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
            checkpoint_every: None,
            checkpoint_path: None,
            resume_from: None,
        }
    }
}

impl VerifyOptions {
    /// Default options (sequential, 200k-state cap, no symmetry); chain
    /// builder methods to adjust.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker threads: 1 runs sequential BFS, more run the work-stealing
    /// engine.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Stop after visiting this many states.
    pub fn max_states(mut self, n: usize) -> Self {
        self.bfs.max_states = n;
        self
    }

    /// Explore at most this many BFS levels.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.bfs.max_depth = d;
        self
    }

    /// Replace the whole [`BfsOptions`] block.
    pub fn bfs(mut self, bfs: BfsOptions) -> Self {
        self.bfs = bfs;
        self
    }

    /// Work-stealing batch granularity.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = n;
        self
    }

    /// Symmetry reduction mode.
    pub fn symmetry(mut self, m: SymmetryMode) -> Self {
        self.symmetry = m;
        self
    }

    /// Resource budget for the run.
    pub fn budget(mut self, b: Budget) -> Self {
        self.budget = b;
        self
    }

    /// Wall-clock deadline, measured from the start of the run. Shorthand
    /// for `budget(self.budget.deadline(d))`.
    pub fn timeout(mut self, d: Duration) -> Self {
        self.budget = self.budget.deadline(d);
        self
    }

    /// Cancellation token the engines poll at admission boundaries.
    pub fn cancel_token(mut self, t: CancelToken) -> Self {
        self.cancel = t;
        self
    }

    /// Write a checkpoint to [`VerifyOptions::checkpoint_path`] this often
    /// (an interval under 1 ms counts as 1 ms).
    pub fn checkpoint_every(mut self, d: Duration) -> Self {
        self.checkpoint_every = Some(d);
        self
    }

    /// Where checkpoints (periodic and budget-trip) are written.
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Resume from a checkpoint file instead of starting fresh.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }
}

/// Outcome of verifying a protocol.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Every reachable observer run describes an acyclic constraint graph:
    /// the observer is a witness and the protocol is **sequentially
    /// consistent** (Theorem 3.1).
    Verified {
        /// Search statistics.
        stats: McStats,
    },
    /// Some run's witness graph is not an acyclic constraint graph: the
    /// protocol is not in the class Γ for the generated tracking labels
    /// and ST order generator (for real protocols this means a genuine SC
    /// violation; the run is returned for inspection).
    Violation {
        /// The actions of the violating run.
        run: Vec<Action>,
        /// The memory operations of the violating run.
        trace: Trace,
        /// The checker's diagnosis.
        reason: RejectReason,
        /// Search statistics.
        stats: McStats,
    },
    /// A search limit was reached with no violation found.
    Bounded {
        /// Search statistics.
        stats: McStats,
    },
    /// The run was interrupted — budget tripped or cancel requested —
    /// before reaching a verdict. Unlike `Bounded` ("the space is bigger
    /// than I was asked to cover"), an inconclusive run is *resumable*: if
    /// a checkpoint path was configured, the partial search is on disk and
    /// [`VerifyOptions::resume_from`] continues it exactly.
    Inconclusive {
        /// Which limit stopped the run.
        reason: InterruptReason,
        /// How much of the state space was covered before the interrupt.
        coverage: Coverage,
        /// Search statistics at the interrupt point.
        stats: McStats,
    },
}

impl Outcome {
    /// Search statistics regardless of outcome.
    pub fn stats(&self) -> McStats {
        match self {
            Outcome::Verified { stats }
            | Outcome::Violation { stats, .. }
            | Outcome::Bounded { stats }
            | Outcome::Inconclusive { stats, .. } => *stats,
        }
    }

    /// Did verification succeed exhaustively?
    pub fn is_verified(&self) -> bool {
        matches!(self, Outcome::Verified { .. })
    }

    /// Was the run interrupted before reaching a verdict?
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Outcome::Inconclusive { .. })
    }

    /// The typed violation diagnosis, if this outcome is a violation.
    ///
    /// Borrowing, so the caller can match on [`scv_checker::ScErrorKind`]
    /// structurally instead of parsing text. The message text is
    /// `reason.to_string()` (its `Display` is pinned by the
    /// `options_and_reasons` test battery).
    pub fn reject_reason(&self) -> Option<&RejectReason> {
        match self {
            Outcome::Violation { reason, .. } => Some(reason),
            _ => None,
        }
    }

    /// Coverage of an interrupted run, if this outcome is inconclusive.
    pub fn coverage(&self) -> Option<Coverage> {
        match self {
            Outcome::Inconclusive { coverage, .. } => Some(*coverage),
            _ => None,
        }
    }
}

impl<P> VerifySystem<P>
where
    P: Symmetry + Sync,
    P::State: Send + Sync + 'static,
{
    /// Run a search over this product system, honouring every
    /// [`VerifyOptions`] knob including run control and checkpointing.
    ///
    /// Panics if checkpoint I/O fails or a resume file does not match
    /// this system; use [`VerifySystem::try_search`] to handle those.
    pub fn search(&self, opts: &VerifyOptions) -> Outcome {
        match self.try_search(opts) {
            Ok(out) => out,
            Err(e) => panic!("checkpoint error (use try_search to handle): {e}"),
        }
    }

    /// Run a search over this product system.
    ///
    /// 1. If [`VerifyOptions::resume_from`] is set, load the checkpoint
    ///    file, validate it against this system (protocol name,
    ///    parameters, symmetry mode, initial-state fingerprint), and
    ///    rebuild the in-memory search state — frontier states are
    ///    reconstructed by replaying their parent chains of actions from
    ///    the initial state, fingerprint-checking every step.
    /// 2. Run the configured engine once. With
    ///    [`VerifyOptions::checkpoint_path`] set, the engine writes a
    ///    snapshot of the live search there at its next consistent point
    ///    each time [`VerifyOptions::checkpoint_every`] has passed since
    ///    the last write finished, and goes on; and once more if a budget
    ///    trips or a cancel arrives. The interval alone arms nothing.
    /// 3. A verdict maps to `Verified`/`Violation`/`Bounded`; a tripped
    ///    budget or cancel returns [`Outcome::Inconclusive`] with the
    ///    reason and coverage counts.
    ///
    /// The resume path is exact: verdicts and state counts match an
    /// uninterrupted run (the engines drain to a consistent point before
    /// checkpointing; see `crate::control`).
    pub fn try_search(&self, opts: &VerifyOptions) -> Result<Outcome, CheckpointError> {
        let run_start = Instant::now();
        // The budget's deadline runs from here: loading a resume file
        // counts against it.
        let ctrl = RunControl::new(&opts.budget, opts.cancel.clone());
        let resume = match &opts.resume_from {
            Some(path) => Some(self.rebuild_checkpoint(CheckpointFile::load(path)?)?),
            None => None,
        };
        let mut write = opts
            .checkpoint_path
            .as_deref()
            .map(|path| move |snap: Snapshot<'_, Action>| self.write_checkpoint(path, snap));
        let every = opts.checkpoint_every;
        let mut checkpoints = write.as_mut().map(|w| Checkpoints::new(every, w));
        let result = if opts.threads > 1 {
            let (threads, batch, to) = (opts.threads, opts.batch_size, checkpoints.as_mut());
            ws_search_controlled(self, opts.bfs, threads, batch, &ctrl, resume, to).0
        } else {
            // The work-stealing engine times its search span
            // internally; sequential BFS does not, so `try_search` does.
            let _t = scv_telemetry::timer(scv_telemetry::Phase::Search);
            bfs_controlled(self, opts.bfs, &ctrl, resume, checkpoints.as_mut())
        };
        if let Some(e) = checkpoints.and_then(Checkpoints::error) {
            return Err(e);
        }
        let mut stats = result.stats();
        stats.elapsed = run_start.elapsed();
        Ok(match result {
            ControlledSearch::Finished(SearchResult::Safe(_)) => Outcome::Verified { stats },
            ControlledSearch::Finished(SearchResult::Bounded(_)) => Outcome::Bounded { stats },
            ControlledSearch::Finished(SearchResult::Unsafe(ce, _)) => {
                let ops: Vec<Op> = ce.path.iter().filter_map(|a| a.op()).collect();
                Outcome::Violation {
                    run: ce.path,
                    trace: Trace::from_ops(ops),
                    reason: ce.reason,
                    stats,
                }
            }
            ControlledSearch::Interrupted {
                reason, checkpoint, ..
            } => Outcome::Inconclusive {
                reason,
                coverage: Coverage {
                    explored: stats.states,
                    frontier: checkpoint.frontier.len(),
                    depth: stats.depth,
                },
                stats,
            },
        })
    }

    /// Stream a snapshot of a search to `path` in the portable file form.
    fn write_checkpoint(
        &self,
        path: &std::path::Path,
        snap: Snapshot<'_, Action>,
    ) -> Result<(), CheckpointError> {
        let p = self.protocol.params();
        let header = CheckpointHeader {
            protocol: self.protocol.name().to_string(),
            dims: (p.p, p.b, p.v),
            symmetry: self.mode.as_byte(),
            seeds: snap.seeds,
            transitions: snap.transitions as u64,
            depth: snap.depth as u64,
            init_fp: snap.init_fp,
        };
        let frontier = snap.frontier.map(|(fp, d)| (fp, d as u32));
        let bytes = header.save(path, snap.parents, frontier)?;
        if scv_telemetry::recorder_enabled() {
            scv_telemetry::recorder::instant(
                scv_telemetry::recorder::InstantKind::Checkpoint,
                bytes,
            );
        }
        Ok(())
    }

    /// Validate a checkpoint file against this system and rebuild the
    /// in-memory [`SearchCheckpoint`], rematerializing every frontier
    /// state by replaying its parent chain from the initial state, and
    /// packing it into the frontier's record.
    fn rebuild_checkpoint(
        &self,
        file: CheckpointFile,
    ) -> Result<SearchCheckpoint<VerifyState<P::State>, Action>, CheckpointError> {
        let head = &file.header;
        let name = self.protocol.name();
        if head.protocol != name {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is for protocol {:?}, not {name:?}",
                head.protocol
            )));
        }
        let p = self.protocol.params();
        if head.dims != (p.p, p.b, p.v) {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint parameters {:?} do not match ({}, {}, {})",
                head.dims, p.p, p.b, p.v
            )));
        }
        if head.symmetry != self.mode.as_byte() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint symmetry byte {} does not match mode {:?}",
                head.symmetry, self.mode
            )));
        }
        let fper = Fingerprinter::from_seeds(head.seeds);
        let init = self.initial();
        let init_fp = fper.fp(&init);
        if init_fp != head.init_fp {
            return Err(CheckpointError::Mismatch(
                "initial-state fingerprint does not match (different system?)".into(),
            ));
        }
        // Parent edges keyed by child fingerprint, for chain walking. The
        // log is the admitted set, so the state count the engines derive
        // from it holds only if no state is named twice.
        let mut up: HashMap<u128, (u128, Action)> = HashMap::with_capacity(file.parents.len());
        for &(child, parent, action) in &file.parents {
            if child == init_fp {
                return Err(CheckpointError::Corrupt(
                    "the initial state is named as a parent edge's child".into(),
                ));
            }
            if up.insert(child, (parent, action)).is_some() {
                return Err(CheckpointError::Corrupt(format!(
                    "state {child:#034x} is the child of two parent edges"
                )));
            }
        }
        // Replayed states are cached by fingerprint, packed, so frontier
        // states sharing a prefix walk it only once. A rejected state is
        // not cached (nor packable): it has no successors, so no chain
        // goes on from it, and it is refused below if the frontier names
        // it.
        let mut cache: HashMap<u128, Box<[u8]>> = HashMap::new();
        let mut packed = Vec::new();
        init.pack(&mut packed);
        cache.insert(init_fp, packed.as_slice().into());
        let mut state = init;
        let mut frontier = Frontier::new();
        let mut succs = Vec::new();
        for &(fp, depth) in &file.frontier {
            let mut chain = Vec::new();
            let mut cur = fp;
            while !cache.contains_key(&cur) {
                let Some(&(parent, action)) = up.get(&cur) else {
                    return Err(CheckpointError::Corrupt(format!(
                        "frontier fingerprint {cur:#034x} has no parent chain to the initial state"
                    )));
                };
                chain.push((cur, action));
                if chain.len() > file.parents.len() {
                    return Err(CheckpointError::Corrupt("parent-edge cycle".into()));
                }
                cur = parent;
            }
            state.unpack_from(&mut &cache[&cur][..]);
            for &(child_fp, action) in chain.iter().rev() {
                succs.clear();
                self.successors_into(&state, &mut succs);
                let next = succs
                    .drain(..)
                    .find(|(a, s)| *a == action && fper.fp(s) == child_fp);
                let Some((_, s)) = next else {
                    return Err(CheckpointError::Mismatch(format!(
                        "replaying {action:?} did not reproduce fingerprint {child_fp:#034x} \
                         (protocol behaviour changed since the checkpoint?)"
                    )));
                };
                state = s;
                if state.error.is_none() {
                    packed.clear();
                    state.pack(&mut packed);
                    cache.insert(child_fp, packed.as_slice().into());
                }
            }
            if state.error.is_some() {
                return Err(CheckpointError::Corrupt(format!(
                    "frontier state {fp:#034x} is rejected, so no search queued it"
                )));
            }
            frontier.push(&state, fp, depth as usize);
        }
        Ok(SearchCheckpoint {
            seeds: head.seeds,
            init_fp,
            frontier,
            transitions: head.transitions as usize,
            depth: head.depth as usize,
            parents: file.parents,
        })
    }
}

/// Run the complete §3.4 method on a protocol.
pub fn verify_protocol<P>(protocol: P, opts: VerifyOptions) -> Outcome
where
    P: Symmetry + Sync,
    P::State: Send + Sync + 'static,
{
    let sys = VerifySystem::with_symmetry(protocol, opts.symmetry);
    sys.search(&opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scv_protocol::{Fig4Protocol, LazyCaching, MsiProtocol, SerialMemory, StoreBufferTso};
    use scv_types::Params;

    fn opts(max_states: usize) -> VerifyOptions {
        VerifyOptions::new().max_states(max_states)
    }

    /// "Safe within the cap": either fully verified, or the cap was hit
    /// with no violation — never a violation. Product spaces here run to
    /// millions of states even for tiny protocols (see DESIGN.md §6), so
    /// most positive tests assert bounded safety and only the smallest
    /// configuration is proved exhaustively.
    fn safe_within(out: &Outcome) -> bool {
        !matches!(out, Outcome::Violation { .. })
    }

    #[test]
    #[ignore = "exhaustive proof (~120k product states): run with `cargo test --release -- --ignored`"]
    fn serial_memory_2_1_1_verifies_exhaustively() {
        let out = verify_protocol(SerialMemory::new(Params::new(2, 1, 1)), opts(400_000));
        assert!(
            out.is_verified(),
            "serial memory must verify: {:?}",
            out.stats()
        );
        assert!(
            out.stats().states > 50_000,
            "the product is genuinely large"
        );
    }

    #[test]
    fn serial_memory_2_1_1_safe_within_cap() {
        let out = verify_protocol(SerialMemory::new(Params::new(2, 1, 1)), opts(30_000));
        assert!(safe_within(&out), "{:?}", out.stats());
    }

    #[test]
    fn serial_memory_2_1_2_safe_within_cap() {
        let out = verify_protocol(SerialMemory::new(Params::new(2, 1, 2)), opts(60_000));
        assert!(
            safe_within(&out),
            "no violation may appear: {:?}",
            out.stats()
        );
    }

    #[test]
    fn msi_safe_within_cap() {
        let out = verify_protocol(MsiProtocol::new(Params::new(2, 1, 2)), opts(60_000));
        assert!(safe_within(&out), "MSI must not violate: {:?}", out.stats());
    }

    #[test]
    fn lazy_caching_safe_within_cap() {
        let out = verify_protocol(LazyCaching::new(Params::new(2, 1, 1), 1, 1), opts(60_000));
        assert!(
            safe_within(&out),
            "lazy caching must not violate: {:?}",
            out.stats()
        );
    }

    #[test]
    fn buggy_msi_violates() {
        let out = verify_protocol(MsiProtocol::buggy(Params::new(2, 2, 1)), opts(2_000_000));
        match out {
            Outcome::Violation { trace, reason, .. } => {
                // The violating run's trace must itself be non-SC — the
                // bug is real, not a verification artifact.
                assert!(
                    !scv_graph::has_serial_reordering(&trace),
                    "counterexample trace should violate SC: {trace} ({reason})"
                );
            }
            o => panic!("expected Violation, got {:?}", o.stats()),
        }
    }

    #[test]
    fn tso_violates() {
        let out = verify_protocol(
            StoreBufferTso::new(Params::new(2, 2, 1), 1),
            opts(2_000_000),
        );
        match out {
            Outcome::Violation { trace, .. } => {
                assert!(!scv_graph::has_serial_reordering(&trace));
            }
            o => panic!("expected Violation, got {:?}", o.stats()),
        }
    }

    #[test]
    fn fig4_not_verified() {
        // The Get-Shared protocol is outside the class Γ for the real-time
        // ST order generator (stale views re-fetched via Get-Shared make
        // the real-time store order wrong), so verification must fail.
        // Note the *shortest* rejected run may still have an SC trace —
        // rejection means "no witness under this generator", and the
        // protocol also has genuinely non-SC traces (shown in
        // scv-protocol's fig4 tests).
        let out = verify_protocol(Fig4Protocol::new(Params::new(2, 1, 2), 1), opts(2_000_000));
        assert!(
            matches!(out, Outcome::Violation { .. }),
            "expected Violation, got {:?}",
            out.stats()
        );
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        // Verdicts must agree on a violation hunt (counterexamples are
        // found quickly in parallel too).
        let seq = verify_protocol(MsiProtocol::buggy(Params::new(2, 2, 1)), opts(2_000_000));
        assert!(matches!(seq, Outcome::Violation { .. }));
        let par = verify_protocol(
            MsiProtocol::buggy(Params::new(2, 2, 1)),
            opts(2_000_000).threads(4),
        );
        assert!(matches!(par, Outcome::Violation { .. }));
    }

    #[test]
    fn bounded_outcome_on_tiny_limit() {
        let out = verify_protocol(MsiProtocol::new(Params::new(2, 2, 2)), opts(50));
        assert!(matches!(out, Outcome::Bounded { .. }));
    }

    #[test]
    fn symmetry_reduces_msi_with_same_verdict() {
        // Depth-bounded so both runs cut the same frontier: the quotient
        // must explore at least 2× fewer states (the (2,1,2) group has
        // order 4) and reach the same verdict.
        let depth = 8;
        let base = opts(500_000).max_depth(depth);
        let off = verify_protocol(MsiProtocol::new(Params::new(2, 1, 2)), base.clone());
        let on = verify_protocol(
            MsiProtocol::new(Params::new(2, 1, 2)),
            base.symmetry(SymmetryMode::Full),
        );
        assert_eq!(
            matches!(off, Outcome::Bounded { .. }),
            matches!(on, Outcome::Bounded { .. }),
            "verdicts must agree"
        );
        assert!(!matches!(off, Outcome::Violation { .. }));
        assert!(!matches!(on, Outcome::Violation { .. }));
        let (s_off, s_on) = (off.stats().states, on.stats().states);
        assert!(
            s_on * 2 <= s_off,
            "symmetry must at least halve the explored states: {s_on} vs {s_off}"
        );
    }

    #[test]
    fn symmetry_preserves_buggy_msi_violation() {
        let out = verify_protocol(
            MsiProtocol::buggy(Params::new(2, 2, 1)),
            opts(2_000_000).symmetry(SymmetryMode::Full),
        );
        match out {
            Outcome::Violation { trace, reason, .. } => {
                assert!(
                    !scv_graph::has_serial_reordering(&trace),
                    "reduced-search counterexample must still be a real violation: {trace} ({reason})"
                );
            }
            o => panic!("expected Violation, got {:?}", o.stats()),
        }
    }

    /// Unique temp path for checkpoint tests.
    fn tmp_ckpt(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("scv-verify-{}-{name}.ckpt", std::process::id()));
        p
    }

    #[test]
    fn state_budget_trip_is_inconclusive_with_coverage() {
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys.search(&opts(100_000).budget(Budget::unlimited().states(1_000)));
        match out {
            Outcome::Inconclusive {
                reason,
                coverage,
                stats,
            } => {
                assert_eq!(reason, InterruptReason::StateBudget);
                assert!(coverage.explored >= 1_000, "{coverage}");
                assert!(coverage.frontier > 0, "{coverage}");
                assert_eq!(coverage.explored, stats.states);
            }
            o => panic!("expected Inconclusive, got {:?}", o.stats()),
        }
    }

    #[test]
    fn zero_timeout_is_inconclusive_deadline() {
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys.search(&opts(100_000).timeout(std::time::Duration::ZERO));
        assert!(
            matches!(
                out,
                Outcome::Inconclusive {
                    reason: InterruptReason::Deadline,
                    ..
                }
            ),
            "got {:?}",
            out.stats()
        );
    }

    #[test]
    fn cancelled_search_is_inconclusive() {
        let token = CancelToken::new();
        token.cancel();
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys.search(&opts(100_000).cancel_token(token));
        assert!(matches!(
            out,
            Outcome::Inconclusive {
                reason: InterruptReason::Cancelled,
                ..
            }
        ));
    }

    #[test]
    fn driver_checkpoint_resume_matches_clean_run() {
        let clean = verify_protocol(SerialMemory::new(Params::new(2, 1, 1)), opts(30_000));
        assert!(matches!(clean, Outcome::Bounded { .. }));
        let clean_stats = clean.stats();

        let path = tmp_ckpt("resume-parity");
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys
            .try_search(
                &opts(30_000)
                    .budget(Budget::unlimited().states(2_000))
                    .checkpoint_to(&path),
            )
            .unwrap();
        assert!(out.is_inconclusive(), "{:?}", out.stats());

        // The file on disk round-trips through the codec.
        let file = CheckpointFile::load(&path).unwrap();
        assert_eq!(file.header.protocol, "serial-memory");
        assert!(file.parents.len() + 1 >= 2_000);

        // Resuming finishes the run with the clean run's verdict and —
        // for the deterministic sequential engine — its exact totals.
        let resumed = sys.try_search(&opts(30_000).resume_from(&path)).unwrap();
        assert!(
            matches!(resumed, Outcome::Bounded { .. }),
            "{:?}",
            resumed.stats()
        );
        assert_eq!(resumed.stats().states, clean_stats.states);

        // A different engine may overshoot the cap differently, but the
        // verdict and the cap itself must hold.
        let resumed_ws = sys
            .try_search(&opts(30_000).threads(4).resume_from(&path))
            .unwrap();
        assert!(
            matches!(resumed_ws, Outcome::Bounded { .. }),
            "{:?}",
            resumed_ws.stats()
        );
        assert!(resumed_ws.stats().states >= 30_000);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_mismatched_system() {
        let path = tmp_ckpt("mismatch");
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys
            .try_search(
                &opts(30_000)
                    .budget(Budget::unlimited().states(500))
                    .checkpoint_to(&path),
            )
            .unwrap();
        assert!(out.is_inconclusive());

        // Wrong protocol.
        let err = VerifySystem::new(MsiProtocol::new(Params::new(2, 1, 1)))
            .try_search(&opts(30_000).resume_from(&path))
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");

        // Wrong parameters.
        let err = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 2)))
            .try_search(&opts(30_000).resume_from(&path))
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");

        // Wrong symmetry mode.
        let err = VerifySystem::with_symmetry(
            SerialMemory::new(Params::new(2, 1, 1)),
            SymmetryMode::Full,
        )
        .try_search(&opts(30_000).resume_from(&path))
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// The state count is derived from the parent log, so a sealed file
    /// whose log names a state twice, names the initial state as a child,
    /// or leaves a frontier state without an edge must be refused as
    /// corrupt, never resumed and never a panic.
    #[test]
    fn resume_rejects_a_parent_log_that_is_not_the_admitted_set() {
        let path = tmp_ckpt("bad-log");
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys
            .try_search(
                &opts(30_000)
                    .budget(Budget::unlimited().states(500))
                    .checkpoint_to(&path),
            )
            .unwrap();
        assert!(out.is_inconclusive());
        let good = CheckpointFile::load(&path).unwrap();
        let init_fp = good.header.init_fp;
        let (_, parent, action) = good.parents[1];

        let mut repeated = good.clone();
        repeated.parents.push(good.parents[1]);
        let mut init_as_child = good.clone();
        init_as_child.parents.push((init_fp, parent, action));
        let mut orphan = good.clone();
        orphan.frontier.push((init_fp ^ 0x5eed, 3));

        for (what, bad) in [
            ("repeated child", repeated),
            ("initial state as a child", init_as_child),
            ("frontier state without an edge", orphan),
        ] {
            std::fs::write(&path, bad.encode()).unwrap();
            match sys.try_search(&opts(30_000).resume_from(&path)) {
                Err(CheckpointError::Corrupt(_)) => {}
                Err(e) => panic!("{what}: expected Corrupt, got {e}"),
                Ok(o) => panic!("{what}: resumed to {:?}", o.stats()),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reject_reason_accessor_borrows_the_typed_reason() {
        let out = verify_protocol(MsiProtocol::buggy(Params::new(2, 2, 1)), opts(2_000_000));
        let Outcome::Violation { reason: owned, .. } = &out else {
            panic!("buggy MSI violates");
        };
        let reason = out.reject_reason().expect("buggy MSI violates");
        assert!(
            std::ptr::eq(reason, owned),
            "the accessor borrows the outcome's reason"
        );
        assert!(
            verify_protocol(SerialMemory::new(Params::new(2, 1, 1)), opts(5_000))
                .reject_reason()
                .is_none()
        );
    }

    #[test]
    fn symmetry_mode_byte_roundtrip() {
        for mode in [
            SymmetryMode::Off,
            SymmetryMode::Proc,
            SymmetryMode::Full,
            SymmetryMode::FullEnum,
        ] {
            assert_eq!(SymmetryMode::from_byte(mode.as_byte()), Some(mode));
        }
        assert_eq!(SymmetryMode::from_byte(4), None);
    }

    #[test]
    fn proc_mode_intersects_with_protocol_dims() {
        // Buggy MSI declares blocks+values only, so requesting Proc yields
        // the trivial group and Full yields blocks·values.
        let sys = VerifySystem::with_symmetry(
            MsiProtocol::buggy(Params::new(2, 2, 2)),
            SymmetryMode::Proc,
        );
        assert_eq!(sys.symmetry_group_order(), 1);
        let sys = VerifySystem::with_symmetry(
            MsiProtocol::buggy(Params::new(2, 2, 2)),
            SymmetryMode::Full,
        );
        assert_eq!(sys.symmetry_group_order(), 4); // 2! blocks × 2! values
    }
}
