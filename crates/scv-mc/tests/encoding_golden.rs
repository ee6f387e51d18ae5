//! Byte-identity oracle for the product-state encodings.
//!
//! Fingerprints, seen-set membership, state counts and checkpoints all go
//! through [`VerifyState::encoding`], so an encoder or checker-layout
//! change that moves a single word silently changes the explored quotient.
//! These tests run a deterministic BFS over [`VerifySystem::successors`],
//! deduplicating on the state's own `Eq`/`Hash` (set membership does not
//! depend on the hasher), and pin, for the first [`PREFIX`] distinct
//! states of each config:
//!
//! * how many states the prefix holds,
//! * the total number of encoding words,
//! * an FNV-1a-64 checksum over every encoding word (little-endian bytes,
//!   in BFS order), computed here so no library hasher is involved.
//!
//! The pins were generated before the encoders were optimised; any change
//! to them means the encoding bytes changed.

use scv_mc::{SymmetryMode, TransitionSystem, VerifyState, VerifySystem};
use scv_protocol::{LazyCaching, MsiProtocol, SerialMemory, Symmetry};
use scv_types::Params;
use std::collections::{HashSet, VecDeque};

/// Distinct states pinned per config.
const PREFIX: usize = 2000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// What one config's BFS prefix pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    states: usize,
    words: usize,
    fnv: u64,
}

fn pin(states: usize, words: usize, fnv: u64) -> Pin {
    Pin { states, words, fnv }
}

fn fnv1a(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// BFS the first [`PREFIX`] distinct states and fold their encodings.
fn pin_of<P>(proto: P, mode: SymmetryMode) -> Pin
where
    P: Symmetry,
    P::State: Clone + std::hash::Hash + Eq + Send + 'static,
{
    let sys = VerifySystem::with_symmetry(proto, mode);
    let init = sys.initial();
    let mut seen: HashSet<VerifyState<P::State>> = HashSet::new();
    let mut queue = VecDeque::new();
    let mut pin = Pin {
        states: 0,
        words: 0,
        fnv: FNV_OFFSET,
    };
    let visit = |s: &VerifyState<P::State>, pin: &mut Pin| {
        pin.states += 1;
        pin.words += s.encoding().len();
        pin.fnv = fnv1a(pin.fnv, &s.encoding());
    };
    visit(&init, &mut pin);
    seen.insert(init.clone());
    queue.push_back(init);
    'bfs: while let Some(s) = queue.pop_front() {
        for (_, t) in sys.successors(&s) {
            if pin.states >= PREFIX {
                break 'bfs;
            }
            if seen.contains(&t) {
                continue;
            }
            visit(&t, &mut pin);
            seen.insert(t.clone());
            queue.push_back(t);
        }
    }
    pin
}

#[test]
fn serial_211_full_symmetry() {
    let got = pin_of(SerialMemory::new(Params::new(2, 1, 1)), SymmetryMode::Full);
    assert_eq!(got, pin(2000, 201_054, 0x848c_5b5a_a9ec_0217));
}

#[test]
fn msi_321_no_symmetry() {
    let got = pin_of(MsiProtocol::new(Params::new(3, 2, 1)), SymmetryMode::Off);
    assert_eq!(got, pin(2000, 111_756, 0x43e8_62f0_3a07_6d34));
}

#[test]
fn msi_buggy_221_no_symmetry() {
    let got = pin_of(MsiProtocol::buggy(Params::new(2, 2, 1)), SymmetryMode::Off);
    assert_eq!(got, pin(2000, 113_547, 0xfcc8_5220_4a5a_4c45));
}

#[test]
fn lazy_322_q11_full_symmetry() {
    let got = pin_of(
        LazyCaching::new(Params::new(3, 2, 2), 1, 1),
        SymmetryMode::Full,
    );
    assert_eq!(got, pin(2000, 201_412, 0x329f_d8d3_c8f6_0aa4));
}
