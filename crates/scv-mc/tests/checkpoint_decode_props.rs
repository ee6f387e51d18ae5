//! `CheckpointFile::decode` against hostile input.
//!
//! Every mutated file below is re-sealed with a correct SipHash-1-3
//! integrity word, so decode gets past the checksum and has to survive the parser
//! itself. Three families:
//!
//! * truncation of the body at every length — always an error;
//! * single-bit flips anywhere in the body — an error, or a file that
//!   re-encodes to exactly the mutated bytes (a flip inside a seed or a
//!   fingerprint yields another well-formed file);
//! * oversized `count` fields (parents, frontier) — always an error.
//!
//! None may panic, and none may allocate more than a small multiple of
//! the buffer: a per-thread counting allocator measures every decode.

use proptest::prelude::*;
use scv_mc::{CheckpointError, CheckpointFile, CheckpointHeader, SipHasher13};
use scv_protocol::Action;
use scv_types::{BlockId, Op, ProcId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread allocates (tests run on parallel threads,
/// so a process-wide counter would mix their decodes).
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

/// Decode `bytes`, asserting it neither panics nor allocates beyond a
/// constant factor of the buffer.
fn decode_bounded(bytes: &[u8]) -> Result<CheckpointFile, CheckpointError> {
    let before = ALLOCATED.with(Cell::get);
    let r = std::panic::catch_unwind(|| CheckpointFile::decode(bytes))
        .unwrap_or_else(|_| panic!("decode panicked on a {}-byte file", bytes.len()));
    let used = ALLOCATED.with(Cell::get) - before;
    assert!(
        used <= 4 * bytes.len() + 4096,
        "decode of {} bytes allocated {used} bytes",
        bytes.len()
    );
    r
}

/// Append the integrity word to a body.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = SipHasher13::hash_bytes(0, 0, &body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

fn sample() -> CheckpointFile {
    CheckpointFile {
        header: CheckpointHeader {
            protocol: "msi".into(),
            dims: (2, 2, 1),
            symmetry: 0,
            seeds: [11, 22, 33, 44],
            transitions: 9,
            depth: 2,
            init_fp: 0x1111,
        },
        parents: vec![
            (
                0x2222,
                0x1111,
                Action::Mem(Op::load(ProcId(1), BlockId(1), Value(0))),
            ),
            (0x3333, 0x2222, Action::Internal("evict", 7)),
            (
                u128::MAX,
                0x2222,
                Action::Mem(Op::store(ProcId(2), BlockId(2), Value(1))),
            ),
        ],
        frontier: vec![(0x3333, 2), (u128::MAX, 2)],
    }
}

/// The body (integrity word stripped) of the sample file.
fn body() -> Vec<u8> {
    let mut b = sample().encode();
    b.truncate(b.len() - 8);
    b
}

/// Byte offsets of the two `count` fields in [`body`].
fn count_offsets() -> [usize; 2] {
    let f = sample();
    // magic, version, name, dims, symmetry, seeds, trans/depth, init_fp.
    let parents = 8 + 4 + 4 + f.header.protocol.len() + 3 + 1 + 32 + 16 + 16;
    let parent_bytes: usize = f
        .parents
        .iter()
        .map(|(_, _, a)| {
            32 + match a {
                Action::Mem(_) => 5,
                Action::Internal(name, _) => 1 + 2 + name.len() + 4,
            }
        })
        .sum();
    let frontier = parents + 8 + parent_bytes;
    [parents, frontier]
}

#[test]
fn count_offsets_match_the_encoder() {
    let b = body();
    let f = sample();
    let [p, fr] = count_offsets();
    let at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
    assert_eq!(at(p), f.parents.len() as u64);
    assert_eq!(at(fr), f.frontier.len() as u64);
    assert_eq!(fr + 8 + 20 * f.frontier.len(), b.len());
    decode_bounded(&seal(b)).expect("the unmutated sample decodes");
}

#[test]
fn every_truncation_is_an_error() {
    let b = body();
    for len in 0..b.len() {
        let r = decode_bounded(&seal(b[..len].to_vec()));
        assert!(r.is_err(), "truncation to {len} bytes decoded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn single_bit_flips_error_or_roundtrip(pos in 0usize..1_000_000, bit in 0u8..8) {
        let mut b = body();
        let at = pos % b.len();
        b[at] ^= 1 << bit;
        if let Ok(f) = decode_bounded(&seal(b.clone())) {
            prop_assert_eq!(seal(b), f.encode(), "flip at {} bit {}", at, bit);
        }
    }

    #[test]
    fn oversized_counts_are_errors(which in 0usize..2, count in 5u64..=u64::MAX) {
        let mut b = body();
        let at = count_offsets()[which];
        b[at..at + 8].copy_from_slice(&count.to_le_bytes());
        prop_assert!(
            matches!(decode_bounded(&seal(b)), Err(CheckpointError::Corrupt(_))),
            "count {} in field {} decoded", count, which
        );
    }
}
