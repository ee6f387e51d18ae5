//! A keyed, *seed-extractable* SipHash implementation for state
//! fingerprinting.
//!
//! The fingerprinters used to be built on `std::hash::RandomState`, whose
//! keys cannot be read back — fine for a single search, fatal for
//! checkpoint/resume, where the resumed search must reproduce the exact
//! fingerprints of the interrupted one (the seen-set, the parent logs, and
//! the frontier are all keyed by fingerprint). This module provides the
//! same algorithm family (SipHash-1-3, what `RandomState` uses) with
//! explicit 128-bit keys that can be serialized into a checkpoint and fed
//! back through [`SipBuild::new`].
//!
//! The implementation is generic over the round counts so the test suite
//! can validate the compression/finalization structure against the
//! published SipHash-2-4 reference vectors; production fingerprinting uses
//! the faster 1-3 variant, matching the standard library's choice for
//! hash tables. Besides the usual 64-bit output it implements the
//! reference 128-bit output mode ([`Sip::new_128`] + [`Sip::finish_128`]),
//! which yields a full state fingerprint from a single pass.
//!
//! [`FpBuild`] is the other half of the story: maps whose keys are
//! *already* keyed uniform hashes (fingerprints, seal-cache keys) fold the
//! key instead of hashing it a second time.

use std::hash::{BuildHasher, Hasher};

/// A [`BuildHasher`] over [`SipHasher13`] with an explicit, extractable
/// 128-bit key.
#[derive(Clone, Copy, Debug)]
pub struct SipBuild {
    k0: u64,
    k1: u64,
}

impl SipBuild {
    /// Build from an explicit key pair.
    pub fn new(k0: u64, k1: u64) -> Self {
        SipBuild { k0, k1 }
    }

    /// The key pair this builder hashes under.
    pub fn keys(&self) -> (u64, u64) {
        (self.k0, self.k1)
    }
}

impl BuildHasher for SipBuild {
    type Hasher = SipHasher13;

    #[inline]
    fn build_hasher(&self) -> SipHasher13 {
        Sip::new(self.k0, self.k1)
    }
}

/// SipHash-1-3: one compression round per message word, three finalization
/// rounds — the variant the standard library uses for hash tables.
pub type SipHasher13 = Sip<1, 3>;

/// SipHash with `C` compression rounds and `D` finalization rounds.
///
/// Message words are assembled little-endian, so byte streams hash
/// identically on every platform (multi-byte `Hasher::write_*` calls go
/// through an explicit little-endian path for the same reason).
#[derive(Clone, Debug)]
pub struct Sip<const C: usize, const D: usize> {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Bytes hashed so far (mod 256 is what finalization needs).
    len: usize,
    /// Pending bytes that don't yet fill a message word, packed LE.
    tail: u64,
    ntail: usize,
}

#[inline]
fn sipround(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

/// The little-endian word of up to eight bytes, zero-padded.
#[inline]
fn load_le(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

impl<const C: usize, const D: usize> Sip<C, D> {
    /// Fresh hasher under the key `(k0, k1)`.
    #[inline]
    pub fn new(k0: u64, k1: u64) -> Self {
        Sip {
            v0: k0 ^ 0x736f6d6570736575,
            v1: k1 ^ 0x646f72616e646f6d,
            v2: k0 ^ 0x6c7967656e657261,
            v3: k1 ^ 0x7465646279746573,
            len: 0,
            tail: 0,
            ntail: 0,
        }
    }

    /// Fresh hasher in the reference 128-bit output mode (`v1 ^= 0xee` at
    /// initialization). Finish it with [`Sip::finish_128`]; `finish` on
    /// such a hasher is not a reference SipHash output.
    #[inline]
    pub fn new_128(k0: u64, k1: u64) -> Self {
        let mut h = Self::new(k0, k1);
        h.v1 ^= 0xee;
        h
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        for _ in 0..C {
            sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        }
        self.v0 ^= m;
    }

    /// Append the low `n` (0..=8) bytes of `x` to the message — the byte
    /// stream `write(&x.to_le_bytes()[..n])` appends, without a byte loop.
    /// Every typed `write_*` goes through here, so hashing a derived-`Hash`
    /// struct (a protocol state: small integers and enum discriminants)
    /// costs a shift and an OR per field.
    #[inline]
    fn push_bytes(&mut self, x: u64, n: usize) {
        self.len = self.len.wrapping_add(n);
        let x = if n < 8 {
            x & ((1u64 << (8 * n)) - 1)
        } else {
            x
        };
        let fill = self.ntail;
        self.tail |= x << (8 * fill);
        if fill + n < 8 {
            self.ntail = fill + n;
            return;
        }
        let m = self.tail;
        self.compress(m);
        // The bytes of `x` that did not fit the completed word.
        self.tail = if fill == 0 { 0 } else { x >> (8 * (8 - fill)) };
        self.ntail = fill + n - 8;
    }

    /// Hash a whole byte string in one call (used for self-tests and
    /// one-shot keyed hashing).
    pub fn hash_bytes(k0: u64, k1: u64, data: &[u8]) -> u64 {
        let mut h = Self::new(k0, k1);
        h.write(data);
        h.finish()
    }

    /// One-shot 128-bit keyed hash of a byte string.
    pub fn hash_bytes_128(k0: u64, k1: u64, data: &[u8]) -> u128 {
        let mut h = Self::new_128(k0, k1);
        h.write(data);
        h.finish_128()
    }

    /// Compress the final (length-tagged) message word: the finalization
    /// prefix both output modes share.
    #[inline]
    fn last_block(&self) -> [u64; 4] {
        let [mut v0, mut v1, mut v2, mut v3] = [self.v0, self.v1, self.v2, self.v3];
        let b = ((self.len as u64 & 0xff) << 56) | self.tail;
        v3 ^= b;
        for _ in 0..C {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^= b;
        [v0, v1, v2, v3]
    }

    /// The reference 128-bit output of a hasher built with
    /// [`Sip::new_128`]: `v2 ^= 0xee` and `D` rounds give the low half,
    /// then `v1 ^= 0xdd` and `D` more rounds the high half (so the
    /// little-endian bytes of the result are the reference output bytes).
    #[inline]
    pub fn finish_128(&self) -> u128 {
        let [mut v0, mut v1, mut v2, mut v3] = self.last_block();
        v2 ^= 0xee;
        for _ in 0..D {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        let lo = v0 ^ v1 ^ v2 ^ v3;
        v1 ^= 0xdd;
        for _ in 0..D {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        let hi = v0 ^ v1 ^ v2 ^ v3;
        (hi as u128) << 64 | lo as u128
    }
}

impl<const C: usize, const D: usize> Hasher for Sip<C, D> {
    #[inline]
    fn write(&mut self, mut msg: &[u8]) {
        if self.ntail > 0 {
            let take = (8 - self.ntail).min(msg.len());
            self.push_bytes(load_le(&msg[..take]), take);
            msg = &msg[take..];
            if self.ntail > 0 {
                return; // `msg` did not complete the pending word
            }
        }
        self.len = self.len.wrapping_add(msg.len());
        let mut words = msg.chunks_exact(8);
        for w in &mut words {
            self.compress(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.tail = load_le(rest);
        self.ntail = rest.len();
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.push_bytes(x as u64, 1);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.push_bytes(x as u64, 2);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.push_bytes(x as u64, 4);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.push_bytes(x, 8);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.push_bytes(x as u64, 8);
    }

    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.push_bytes(x as u64, 8);
        self.push_bytes((x >> 64) as u64, 8);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let [mut v0, mut v1, mut v2, mut v3] = self.last_block();
        v2 ^= 0xff;
        for _ in 0..D {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^ v1 ^ v2 ^ v3
    }
}

/// A [`BuildHasher`] for maps keyed by values that are already keyed,
/// uniform hashes — 128-bit fingerprints and 64-bit seal-cache keys. The
/// hasher folds the key (the two halves of a `u128`, or a `u64` as is)
/// instead of running SipHash over it a second time.
#[derive(Clone, Copy, Debug, Default)]
pub struct FpBuild;

impl BuildHasher for FpBuild {
    type Hasher = FpFold;

    #[inline]
    fn build_hasher(&self) -> FpFold {
        FpFold(0)
    }
}

/// The pass-through hasher behind [`FpBuild`].
#[derive(Clone, Copy, Debug)]
pub struct FpFold(u64);

impl Hasher for FpFold {
    /// Generic fallback (no fingerprint key hashes through here): fold
    /// the bytes in little-endian 8-byte words.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            self.write_u64(load_le(chunk));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = self.0.rotate_left(5) ^ x;
    }

    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64 ^ (x >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    /// The reference test key from the SipHash paper: bytes 00..0f.
    const K0: u64 = 0x0706050403020100;
    const K1: u64 = 0x0f0e0d0c0b0a0908;

    #[test]
    fn sip24_matches_reference_vectors() {
        // `vectors_sip64` from the SipHash reference implementation:
        // SipHash-2-4 over the message 00 01 02 … (n-1) under the key
        // above. Getting these right validates the initialization,
        // compression, tail packing, and finalization all at once.
        let expected: [(usize, u64); 4] = [
            (0, 0x726fdb47dd0e0e31),
            (1, 0x74f839c593dc67fd),
            (2, 0x0d6c8009d9a94f5a),
            (3, 0x85676696d7fb7e2d),
        ];
        for (n, want) in expected {
            let msg: Vec<u8> = (0..n as u8).collect();
            let got = Sip::<2, 4>::hash_bytes(K0, K1, &msg);
            assert_eq!(got, want, "SipHash-2-4 vector for {n}-byte message");
        }
    }

    #[test]
    fn sip24_128_matches_reference_vectors() {
        // The first entries of `vectors_sip128` from the SipHash reference
        // implementation (SipHash-2-4, 128-bit output, same key and
        // messages as above), as output bytes.
        let expected: [(usize, [u8; 16]); 2] = [
            (
                0,
                [
                    0xa3, 0x81, 0x7f, 0x04, 0xba, 0x25, 0xa8, 0xe6, 0x6d, 0xf6, 0x72, 0x14, 0xc7,
                    0x55, 0x02, 0x93,
                ],
            ),
            (
                1,
                [
                    0xda, 0x87, 0xc1, 0xd8, 0x6b, 0x99, 0xaf, 0x44, 0x34, 0x76, 0x59, 0x11, 0x9b,
                    0x22, 0xfc, 0x45,
                ],
            ),
        ];
        for (n, want) in expected {
            let msg: Vec<u8> = (0..n as u8).collect();
            let got = Sip::<2, 4>::hash_bytes_128(K0, K1, &msg);
            assert_eq!(
                got.to_le_bytes(),
                want,
                "SipHash-2-4-128 vector for {n}-byte message"
            );
        }
    }

    #[test]
    fn fp_build_folds_instead_of_hashing() {
        let b = FpBuild;
        let x: u128 = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        assert_eq!(b.hash_one(x), 0x0123_4567_89ab_cdef ^ 0xfedc_ba98_7654_3210);
        assert_eq!(b.hash_one(42u64), 42);
        let mut m = std::collections::HashMap::with_hasher(FpBuild);
        for k in 0..1000u128 {
            m.insert(k << 64 | k.wrapping_mul(0x9e37_79b9), k);
        }
        assert!((0..1000u128).all(|k| m[&(k << 64 | k.wrapping_mul(0x9e37_79b9))] == k));
    }

    #[test]
    fn write_u64_fast_path_matches_byte_path() {
        for (pre, xs) in [
            (&b""[..], vec![0u64, 1, u64::MAX, 0x0123456789abcdef]),
            (&b"abc"[..], vec![42u64, u64::MAX / 3]),
        ] {
            let mut fast: SipHasher13 = Sip::new(K0, K1);
            let mut slow: SipHasher13 = Sip::new(K0, K1);
            fast.write(pre);
            slow.write(pre);
            for &x in &xs {
                fast.write_u64(x);
                slow.write(&x.to_le_bytes());
            }
            assert_eq!(fast.finish(), slow.finish(), "prefix {pre:?}");
        }
    }

    /// SipHash-1-3 straight from the specification: the whole message,
    /// zero-padded, with the length byte in the last word.
    fn spec_sip13(k0: u64, k1: u64, msg: &[u8]) -> u64 {
        let mut v = [
            k0 ^ 0x736f6d6570736575,
            k1 ^ 0x646f72616e646f6d,
            k0 ^ 0x6c7967656e657261,
            k1 ^ 0x7465646279746573,
        ];
        let mut padded = msg.to_vec();
        while padded.len() % 8 != 7 {
            padded.push(0);
        }
        padded.push(msg.len() as u8);
        for w in padded.chunks(8) {
            let m = u64::from_le_bytes(w.try_into().unwrap());
            v[3] ^= m;
            let [a, b, c, d] = &mut v;
            sipround(a, b, c, d);
            v[0] ^= m;
        }
        v[2] ^= 0xff;
        for _ in 0..3 {
            let [a, b, c, d] = &mut v;
            sipround(a, b, c, d);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }

    #[test]
    fn writes_match_the_specification() {
        let data: Vec<u8> = (0..80u8).map(|b| b.wrapping_mul(101)).collect();
        for n in 0..data.len() {
            let want = spec_sip13(K0, K1, &data[..n]);
            assert_eq!(
                Sip::<1, 3>::hash_bytes(K0, K1, &data[..n]),
                want,
                "{n} bytes"
            );
            // The same bytes fed as a mix of typed writes and slices.
            let mut h: SipHasher13 = Sip::new(K0, K1);
            let mut rest = &data[..n];
            let mut i = 0;
            while !rest.is_empty() {
                let k = [1usize, 2, 4, 8, 3, 16][i % 6].min(rest.len());
                let (head, tail) = rest.split_at(k);
                match k {
                    1 => h.write_u8(head[0]),
                    2 => h.write_u16(u16::from_le_bytes(head.try_into().unwrap())),
                    4 => h.write_u32(u32::from_le_bytes(head.try_into().unwrap())),
                    8 => h.write_u64(u64::from_le_bytes(head.try_into().unwrap())),
                    16 => h.write_u128(u128::from_le_bytes(head.try_into().unwrap())),
                    _ => h.write(head),
                }
                rest = tail;
                i += 1;
            }
            assert_eq!(h.finish(), want, "{n} bytes via typed writes");
        }
    }

    #[test]
    fn build_hasher_is_deterministic_per_key() {
        let a = SipBuild::new(1, 2);
        let b = SipBuild::new(1, 2);
        let c = SipBuild::new(1, 3);
        let v = vec![1u64, 2, 3];
        assert_eq!(a.hash_one(&v), b.hash_one(&v));
        assert_ne!(a.hash_one(&v), c.hash_one(&v), "different keys differ");
        assert_eq!(a.keys(), (1, 2));
    }

    #[test]
    fn tail_handling_across_split_writes() {
        // Hashing a byte string in arbitrary split points must agree with
        // hashing it whole.
        let data: Vec<u8> = (0..64u8).collect();
        let whole = Sip::<1, 3>::hash_bytes(K0, K1, &data);
        for split in [1, 3, 7, 8, 9, 15, 33] {
            let mut h: SipHasher13 = Sip::new(K0, K1);
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn struct_hashing_differs_between_values() {
        #[derive(Hash)]
        struct S(u8, u64, Vec<u32>);
        let b = SipBuild::new(7, 9);
        assert_ne!(b.hash_one(S(1, 2, vec![3])), b.hash_one(S(1, 2, vec![4])));
    }
}
