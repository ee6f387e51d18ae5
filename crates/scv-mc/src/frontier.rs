//! The search frontier as packed byte records.
//!
//! Both engines queue each admitted-but-unexpanded state as one record
//! instead of a live state: the engine [`Pack`]s the state once the
//! safety predicate has accepted it, and a worker unpacks a dequeued
//! record into one reused parent state. A record is
//!
//! ```text
//! fingerprint  16 bytes, little-endian
//! depth        varint
//! length       varint (bytes of the state that follow)
//! state        Pack::pack
//! ```
//!
//! Records sit back to back in chunks: sequential BFS appends to
//! 64 KiB chunks and frees each one once it has read it out; the
//! work-stealing engine queues, steals and hands back chunks of up to its
//! batch size in records. A [`Frontier`] is a FIFO of chunks, which is
//! also the form an interrupted search hands back in its checkpoint.

use scv_types::pack::{put_varint, take_bytes, take_varint};
use scv_types::Pack;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

/// Bytes sequential BFS reserves per frontier chunk.
const BLOCK: usize = 64 << 10;

/// One record's header and state, as read from a chunk.
pub struct Record<'a> {
    /// The state's fingerprint.
    pub fp: u128,
    /// The state's BFS depth.
    pub depth: usize,
    /// The packed state: unpack it with [`Pack::unpack_from`] into a
    /// state of the same system (its initial state, for one).
    pub state: &'a [u8],
}

/// Read the record at the front of `bytes` and advance past it.
fn take_record<'a>(bytes: &mut &'a [u8]) -> Record<'a> {
    let fp = u128::from_le_bytes(take_bytes(bytes, 16).try_into().expect("16 bytes"));
    let depth = take_varint(bytes) as usize;
    let len = take_varint(bytes) as usize;
    Record {
        fp,
        depth,
        state: take_bytes(bytes, len),
    }
}

/// Records back to back, read front to back: `bytes[at..]` holds the
/// `count` not yet read.
#[derive(Clone, Default)]
pub(crate) struct Chunk {
    bytes: Vec<u8>,
    at: usize,
    count: usize,
}

impl Chunk {
    /// An empty chunk that takes `bytes` bytes before it reallocates.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Chunk {
            bytes: Vec::with_capacity(bytes),
            ..Chunk::default()
        }
    }

    /// Records not yet read.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append a record of the already packed `state`.
    pub(crate) fn push(&mut self, fp: u128, depth: usize, state: &[u8]) {
        self.bytes.extend_from_slice(&fp.to_le_bytes());
        put_varint(&mut self.bytes, depth as u64);
        put_varint(&mut self.bytes, state.len() as u64);
        self.bytes.extend_from_slice(state);
        self.count += 1;
    }

    /// Unpack the next record into `state`; its fingerprint and depth.
    pub(crate) fn pop_into<S: Pack>(&mut self, state: &mut S) -> Option<(u128, usize)> {
        if self.count == 0 {
            return None;
        }
        let mut rest = &self.bytes[self.at..];
        let before = rest.len();
        let rec = take_record(&mut rest);
        let mut packed = rec.state;
        state.unpack_from(&mut packed);
        debug_assert!(packed.is_empty(), "a record unpacked short");
        self.at += before - rest.len();
        self.count -= 1;
        Some((rec.fp, rec.depth))
    }

    /// The unread records, front first.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record<'_>> {
        let mut rest = &self.bytes[self.at..];
        (0..self.count).map(move |_| take_record(&mut rest))
    }

    /// A copy of the unread records that holds no spare capacity, and
    /// this chunk emptied for reuse.
    pub(crate) fn take_exact(&mut self) -> Chunk {
        let out = Chunk {
            bytes: self.bytes[self.at..].to_vec(),
            at: 0,
            count: self.count,
        };
        self.bytes.clear();
        self.at = 0;
        self.count = 0;
        out
    }

    /// The unread records in chunks of at most `n` records each.
    fn split(&self, n: usize) -> Vec<Chunk> {
        let mut out = Vec::with_capacity(self.count.div_ceil(n));
        let mut rest = &self.bytes[self.at..];
        while !rest.is_empty() {
            let before = rest;
            let mut count = 0;
            while count < n && !rest.is_empty() {
                take_record(&mut rest);
                count += 1;
            }
            out.push(Chunk {
                bytes: before[..before.len() - rest.len()].to_vec(),
                at: 0,
                count,
            });
        }
        out
    }
}

/// A FIFO of packed frontier records: `(state, fingerprint, depth)`
/// triples of `S`, each stored as one byte record (see the module docs).
pub struct Frontier<S> {
    chunks: VecDeque<Chunk>,
    len: usize,
    /// Where [`Frontier::push`] packs a state before it knows its length.
    stage: Vec<u8>,
    state: PhantomData<fn() -> S>,
}

impl<S> Default for Frontier<S> {
    fn default() -> Self {
        Frontier {
            chunks: VecDeque::new(),
            len: 0,
            stage: Vec::new(),
            state: PhantomData,
        }
    }
}

impl<S> Clone for Frontier<S> {
    fn clone(&self) -> Self {
        Frontier {
            chunks: self.chunks.clone(),
            len: self.len,
            stage: Vec::new(),
            state: PhantomData,
        }
    }
}

impl<S> Frontier<S> {
    /// An empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// States queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is nothing queued?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `state` at the back, packed.
    pub fn push(&mut self, state: &S, fp: u128, depth: usize)
    where
        S: Pack,
    {
        self.stage.clear();
        state.pack(&mut self.stage);
        // Header bound: the fingerprint plus two varints.
        let need = 16 + 10 + 10 + self.stage.len();
        let tail = match self.chunks.back_mut() {
            Some(c) if c.bytes.capacity() - c.bytes.len() >= need => c,
            _ => {
                self.chunks.push_back(Chunk::with_capacity(need.max(BLOCK)));
                self.chunks.back_mut().expect("just pushed")
            }
        };
        tail.push(fp, depth, &self.stage);
        self.len += 1;
    }

    /// Unpack the front record into `state` and drop it from the queue;
    /// its fingerprint and depth.
    pub fn pop_into(&mut self, state: &mut S) -> Option<(u128, usize)>
    where
        S: Pack,
    {
        let front = self.chunks.front_mut()?;
        let popped = front.pop_into(state);
        if front.is_empty() {
            self.chunks.pop_front();
        }
        self.len -= 1;
        popped
    }

    /// The queued records, front first.
    pub fn iter(&self) -> impl Iterator<Item = Record<'_>> {
        self.chunks.iter().flat_map(Chunk::records)
    }

    /// A frontier of these chunks, in order.
    pub(crate) fn from_chunks(chunks: impl IntoIterator<Item = Chunk>) -> Self {
        let chunks: VecDeque<Chunk> = chunks.into_iter().filter(|c| !c.is_empty()).collect();
        Frontier {
            len: chunks.iter().map(Chunk::len).sum(),
            chunks,
            stage: Vec::new(),
            state: PhantomData,
        }
    }

    /// The queued records in chunks of at most `n` records each, front
    /// first; each chunk of this frontier is freed once it is split.
    pub(crate) fn into_chunks(self, n: usize) -> impl Iterator<Item = Chunk> {
        self.chunks.into_iter().flat_map(move |c| c.split(n))
    }
}

impl<S> fmt::Debug for Frontier<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frontier")
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_come_back_in_order() {
        let mut f = Frontier::new();
        for i in 0..5_000u32 {
            f.push(&i, i as u128 * 3, i as usize % 7);
        }
        assert_eq!(f.len(), 5_000);
        assert!(f.chunks.len() > 1, "5 000 records span several chunks");
        let fps: Vec<u128> = f.iter().map(|r| r.fp).collect();
        assert_eq!(fps.len(), 5_000);
        let mut s = 0u32;
        for i in 0..5_000u32 {
            assert_eq!(f.pop_into(&mut s), Some((i as u128 * 3, i as usize % 7)));
            assert_eq!(s, i);
        }
        assert!(f.is_empty() && f.chunks.is_empty());
        assert_eq!(f.pop_into(&mut s), None);
    }

    #[test]
    fn rechunking_keeps_every_record() {
        let mut f = Frontier::new();
        for i in 0..1_000u32 {
            f.push(&i, i as u128, 0);
        }
        let chunks: Vec<Chunk> = f.into_chunks(64).collect();
        assert!(chunks.iter().all(|c| c.len() <= 64));
        let g = Frontier::<u32>::from_chunks(chunks);
        assert_eq!(g.len(), 1_000);
        let fps: Vec<u128> = g.iter().map(|r| r.fp).collect();
        assert_eq!(fps, (0..1_000u128).collect::<Vec<_>>());
    }
}
