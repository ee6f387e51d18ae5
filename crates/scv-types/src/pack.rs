//! Compact byte records for queued search states.
//!
//! A model checker's frontier holds every admitted-but-unexpanded state.
//! Kept live, each one pays its inline size plus a heap block per vector
//! it owns, and the allocator's header and rounding on each block.
//! [`Pack`] writes a state as one run of bytes instead, the way SPIN's
//! state compression stores its queue (Holzmann 1997): the search packs a
//! state once it is admitted, and unpacks it into one reused state when
//! it dequeues it.
//!
//! Integers go out as LEB128 varints ([`put_varint`]), since the fields
//! of a state are mostly small counts, indexes and IDs. The records never
//! leave the process that wrote them, so the format carries no version,
//! and a malformed record is a bug: [`Pack::unpack_from`] panics on one.

use crate::{BlockId, Op, OpKind, ProcId, Value};

/// A value that packs into bytes and unpacks back in place.
///
/// `unpack_from` restores exactly what `pack` wrote — the unpacked value
/// compares equal to, and hashes like, the packed one — and reuses `self`'s
/// allocations where it can, the way `clone_from` refills a slot. It
/// consumes the bytes it reads from the front of `bytes`, so records of
/// several fields unpack one field after the other.
pub trait Pack {
    /// Append this value's record to `out`.
    fn pack(&self, out: &mut Vec<u8>);

    /// Overwrite `self` with the record at the front of `bytes`, and
    /// advance `bytes` past it.
    fn unpack_from(&mut self, bytes: &mut &[u8]);
}

/// Append `x` as an LEB128 varint: seven bits a byte, low first, the high
/// bit set on every byte but the last.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Read the varint [`put_varint`] wrote at the front of `bytes`.
#[inline]
pub fn take_varint(bytes: &mut &[u8]) -> u64 {
    let mut x = 0u64;
    let mut shift = 0;
    loop {
        let (&b, rest) = bytes
            .split_first()
            .expect("a packed record ends mid-varint");
        *bytes = rest;
        x |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return x;
        }
        shift += 7;
    }
}

/// Take the first `n` bytes of `bytes`.
#[inline]
pub fn take_bytes<'a>(bytes: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    head
}

/// Append `words` packed: each word `w` as the varint of
/// `w.wrapping_add(1)`, so the `u64::MAX` "none" sentinel — over half the
/// words of a typical product-state encoding — takes a single byte, and
/// small counts, ranks and IDs take one or two. The code is prefix-free
/// and every word has exactly one encoding, so two packed byte strings are
/// equal iff their word sequences are.
pub fn pack_into(words: &[u64], out: &mut Vec<u8>) {
    for &w in words {
        put_varint(out, w.wrapping_add(1));
    }
}

/// The words of a byte string written by [`pack_into`].
pub fn unpack(mut bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    std::iter::from_fn(move || (!bytes.is_empty()).then(|| take_varint(&mut bytes).wrapping_sub(1)))
}

/// A varint.
impl Pack for u32 {
    #[inline]
    fn pack(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }

    #[inline]
    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        *self = take_varint(bytes) as u32;
    }
}

impl Pack for u8 {
    #[inline]
    fn pack(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    #[inline]
    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        *self = take_bytes(bytes, 1)[0];
    }
}

impl Pack for bool {
    #[inline]
    fn pack(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    #[inline]
    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        *self = take_bytes(bytes, 1)[0] != 0;
    }
}

impl Pack for Value {
    #[inline]
    fn pack(&self, out: &mut Vec<u8>) {
        out.push(self.0);
    }

    #[inline]
    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        self.0 = take_bytes(bytes, 1)[0];
    }
}

/// Four bytes: kind, processor, block, value.
impl Pack for Op {
    #[inline]
    fn pack(&self, out: &mut Vec<u8>) {
        let kind = match self.kind {
            OpKind::Load => 0,
            OpKind::Store => 1,
        };
        out.extend_from_slice(&[kind, self.proc.0, self.block.0, self.value.0]);
    }

    #[inline]
    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        let b = take_bytes(bytes, 4);
        self.kind = if b[0] == 0 {
            OpKind::Load
        } else {
            OpKind::Store
        };
        self.proc = ProcId(b[1]);
        self.block = BlockId(b[2]);
        self.value = Value(b[3]);
    }
}

/// A presence byte, then the value if there is one.
impl<T: Pack + Default> Pack for Option<T> {
    #[inline]
    fn pack(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.pack(out);
            }
        }
    }

    #[inline]
    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        if take_bytes(bytes, 1)[0] == 0 {
            *self = None;
        } else {
            self.get_or_insert_with(T::default).unpack_from(bytes);
        }
    }
}

/// The length, then each element. Unpacking refills the elements already
/// there in place and makes new ones only past the old length.
impl<T: Pack + Default> Pack for Vec<T> {
    fn pack(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for x in self {
            x.pack(out);
        }
    }

    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        let n = take_varint(bytes) as usize;
        self.truncate(n);
        for x in self.iter_mut() {
            x.unpack_from(bytes);
        }
        while self.len() < n {
            let mut x = T::default();
            x.unpack_from(bytes);
            self.push(x);
        }
    }
}

impl<A: Pack, B: Pack> Pack for (A, B) {
    #[inline]
    fn pack(&self, out: &mut Vec<u8>) {
        self.0.pack(out);
        self.1.pack(out);
    }

    #[inline]
    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        self.0.unpack_from(bytes);
        self.1.unpack_from(bytes);
    }
}

impl<A: Pack, B: Pack, C: Pack> Pack for (A, B, C) {
    #[inline]
    fn pack(&self, out: &mut Vec<u8>) {
        self.0.pack(out);
        self.1.pack(out);
        self.2.pack(out);
    }

    #[inline]
    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        self.0.unpack_from(bytes);
        self.1.unpack_from(bytes);
        self.2.unpack_from(bytes);
    }
}

/// Implement [`Pack`] for a fieldless `Copy` enum as one byte, its
/// variant's index; list the variants in declaration order.
#[macro_export]
macro_rules! pack_enum {
    ($t:ty { $($v:ident),* $(,)? }) => {
        impl $crate::Pack for $t {
            #[inline]
            fn pack(&self, out: &mut Vec<u8>) {
                out.push(*self as u8);
            }

            #[inline]
            fn unpack_from(&mut self, bytes: &mut &[u8]) {
                const ALL: &[$t] = &[$(<$t>::$v),*];
                *self = ALL[$crate::pack::take_bytes(bytes, 1)[0] as usize];
            }
        }
    };
}

/// Implement [`Pack`] for a struct as its listed fields, in order.
#[macro_export]
macro_rules! pack_struct {
    ($t:ty { $($f:ident),* $(,)? }) => {
        impl $crate::Pack for $t {
            fn pack(&self, out: &mut Vec<u8>) {
                $($crate::Pack::pack(&self.$f, out);)*
            }

            fn unpack_from(&mut self, bytes: &mut &[u8]) {
                $($crate::Pack::unpack_from(&mut self.$f, bytes);)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Pack + Default + PartialEq + std::fmt::Debug>(x: &T) {
        let mut bytes = Vec::new();
        x.pack(&mut bytes);
        let mut y = T::default();
        let mut rest = bytes.as_slice();
        y.unpack_from(&mut rest);
        assert!(rest.is_empty(), "{x:?} left {} bytes", rest.len());
        assert_eq!(&y, x);
    }

    #[test]
    fn varints_roundtrip_at_every_width() {
        for x in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, x);
            assert_eq!(
                out.len(),
                (64 - x.leading_zeros() as usize).div_ceil(7).max(1)
            );
            let mut rest = out.as_slice();
            assert_eq!(take_varint(&mut rest), x);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn packed_words_roundtrip_and_sentinels_take_one_byte() {
        let words = [u64::MAX, 0, 1, 300, u64::MAX - 1, u64::MAX];
        let mut out = Vec::new();
        pack_into(&words, &mut out);
        assert_eq!(out[0], 0, "the sentinel packs to one zero byte");
        assert_eq!(unpack(&out).collect::<Vec<_>>(), words);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&vec![Some((3u8, Value(2))), None, Some((0, Value::BOTTOM))]);
        roundtrip(&vec![(Value(1), Value(0), true)]);
        roundtrip(&(Value(4), Value(5)));
        let op = Op::store(ProcId(2), BlockId(1), Value(3));
        let mut bytes = Vec::new();
        op.pack(&mut bytes);
        let mut back = Op::load(ProcId(1), BlockId(1), Value::BOTTOM);
        back.unpack_from(&mut bytes.as_slice());
        assert_eq!(back, op);
        roundtrip(&vec![u32::MAX, 0, 77]);
    }

    #[test]
    fn unpacking_refills_a_longer_vector() {
        let mut bytes = Vec::new();
        vec![Value(1)].pack(&mut bytes);
        let mut v = vec![Value(9); 8];
        v.unpack_from(&mut bytes.as_slice());
        assert_eq!(v, [Value(1)]);
    }
}
