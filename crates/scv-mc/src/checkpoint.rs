//! Versioned on-disk snapshots of an interrupted verification search
//! (`scv checkpoint` format).
//!
//! A checkpoint file carries everything needed to resume a product-system
//! search exactly: the protocol identity (name + parameters + symmetry
//! mode, so a mismatched resume is rejected up front), the fingerprint
//! seeds, the running totals, the parent-edge log, and the frontier as
//! `(fingerprint, depth)` pairs. The parent log doubles as the admitted
//! set: every admitted state but the initial one is the child of exactly
//! one edge, so the set is `{init_fp}` plus the edges' children and the
//! state count is `parents.len() + 1`. Frontier *states* are not
//! serialized — product states hold observer/checker machines and arena
//! encodings whose layout is an implementation detail; instead resume
//! reconstructs each frontier state by replaying its parent chain of
//! [`Action`]s from the initial state (see `VerifySystem` in the verify
//! layer), fingerprint-checking every replayed step.
//!
//! ## Wire format
//!
//! Everything is little-endian; `u128` values are written as two `u64`
//! halves (low, then high), so the encoding is identical on every
//! platform. Layout:
//!
//! ```text
//! magic      8  b"SCVCKPT1"
//! version    u32             (3)
//! protocol   u32 len + UTF-8 bytes
//! p, b, v    u8 × 3          (protocol parameters)
//! symmetry   u8              (SymmetryMode encoding)
//! seeds      u64 × 4         (Fingerprinter keys)
//! trans      u64
//! depth      u64
//! init_fp    u128
//! parents    u64 count + count × (child u128, parent u128, action)
//! frontier   u64 count + count × (fp u128, depth u32)
//! integrity  u64             (SipHash-1-3 under key (0, 0) of every
//!                             preceding byte)
//! ```
//!
//! Actions encode as `0, kind, proc, block, value` for memory operations
//! and `1, name-len u16, name bytes, payload u32` for internal actions
//! (decoded names are interned into leaked `&'static str`s — bounded by
//! the number of distinct action names a protocol has).
//!
//! The encoder streams: [`CheckpointHeader::save`] writes the engine's
//! parent log and frontier to the file in 64 KiB blocks, feeding the
//! integrity hash the same blocks as they go out, and syncs the file before
//! renaming it into place. Decode checks the shape and the integrity word;
//! the verify layer checks the parent log names each admitted state once.

use crate::sip::SipHasher13;
use scv_protocol::Action;
use scv_types::{BlockId, Op, OpKind, ProcId, Value};
use std::collections::HashSet;
use std::fmt;
use std::hash::Hasher;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File magic: "SCVCKPT1".
pub const MAGIC: [u8; 8] = *b"SCVCKPT1";
/// Current format version. Version 2 changed the fingerprint function
/// (one SipHash-1-3 pass in the 128-bit output mode instead of two 64-bit
/// passes). Version 3 dropped the seen list and the state count, which
/// repeated the parent log (the admitted set is `init_fp` plus every
/// edge's child), and seals the file with SipHash-1-3 instead of XXH64.
/// Decode rejects every other version.
pub const VERSION: u32 = 3;

/// Why a checkpoint could not be written, read, or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(io::Error),
    /// The bytes are not a well-formed checkpoint (bad magic, truncated,
    /// integrity word mismatch, unknown version, a parent log that names
    /// a state twice…).
    Corrupt(String),
    /// The checkpoint is well-formed but belongs to a different search
    /// (wrong protocol, parameters, symmetry mode, or initial state).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Everything in a checkpoint file before the parent log: which search it
/// belongs to, and its running totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Protocol name the search was running (e.g. `"msi"`).
    pub protocol: String,
    /// Protocol parameters `(p, b, v)`.
    pub dims: (u8, u8, u8),
    /// Symmetry-mode byte (see the verify layer's encoding).
    pub symmetry: u8,
    /// Fingerprinter seeds.
    pub seeds: [u64; 4],
    /// Transitions explored so far.
    pub transitions: u64,
    /// Deepest BFS level admitted so far.
    pub depth: u64,
    /// Fingerprint of the initial product state.
    pub init_fp: u128,
}

/// The decoded contents of a checkpoint file. This is the *portable* form:
/// fingerprints, actions, and counts — no materialized product states.
#[derive(Clone, Debug)]
pub struct CheckpointFile {
    /// Search identity and running totals.
    pub header: CheckpointHeader,
    /// Parent edges `(child_fp, parent_fp, action)`, one per admitted
    /// state other than the initial one.
    pub parents: Vec<(u128, u128, Action)>,
    /// Unexpanded frontier as `(fingerprint, depth)` pairs.
    pub frontier: Vec<(u128, u32)>,
}

// ---------------------------------------------------------------------------
// Little-endian byte codec: a sealing sink to write, a cursor to read.

/// Bytes [`Sealed`] stages before it hashes them and hands them to its
/// sink in one write.
const STAGE: usize = 64 << 10;

/// The encoder's sink: every byte goes to `out` and into the integrity
/// hash, so the file is sealed as it streams out. The fields are staged in
/// blocks of [`STAGE`] bytes: fed a few bytes at a time, the hash and the
/// writer cost several times what the copy does.
struct Sealed<W> {
    out: W,
    sip: SipHasher13,
    len: u64,
    stage: Vec<u8>,
}

impl<W: Write> Sealed<W> {
    fn new(out: W) -> Self {
        Sealed {
            out,
            sip: SipHasher13::new(0, 0),
            len: 0,
            stage: Vec::with_capacity(STAGE),
        }
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.stage.len() + bytes.len() > STAGE {
            self.flush()?;
        }
        self.stage.extend_from_slice(bytes);
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Hash and write out the staged bytes.
    fn flush(&mut self) -> io::Result<()> {
        self.out.write_all(&self.stage)?;
        self.sip.write(&self.stage);
        self.stage.clear();
        Ok(())
    }

    fn u16(&mut self, x: u16) -> io::Result<()> {
        self.put(&x.to_le_bytes())
    }

    fn u32(&mut self, x: u32) -> io::Result<()> {
        self.put(&x.to_le_bytes())
    }

    fn u64(&mut self, x: u64) -> io::Result<()> {
        self.put(&x.to_le_bytes())
    }

    /// `u128` goes out as two `u64` halves, low first — bit-identical to
    /// the 16-byte little-endian encoding of the whole value (pinned in
    /// tests, so the file reads the same on every platform).
    fn u128(&mut self, x: u128) -> io::Result<()> {
        self.u64(x as u64)?;
        self.u64((x >> 64) as u64)
    }

    fn action(&mut self, a: &Action) -> io::Result<()> {
        match a {
            Action::Mem(op) => {
                let kind = match op.kind {
                    OpKind::Load => 0,
                    OpKind::Store => 1,
                };
                self.put(&[0, kind, op.proc.0, op.block.0, op.value.0])
            }
            Action::Internal(name, payload) => {
                let bytes = name.as_bytes();
                debug_assert!(bytes.len() <= u16::MAX as usize);
                self.put(&[1])?;
                self.u16(bytes.len() as u16)?;
                self.put(bytes)?;
                self.u32(*payload)
            }
        }
    }

    /// Append the integrity word; returns the total bytes written.
    fn seal(mut self) -> io::Result<u64> {
        self.flush()?;
        let sum = self.sip.finish();
        self.out.write_all(&sum.to_le_bytes())?;
        Ok(self.len + 8)
    }
}

/// Cursor over a checkpoint byte buffer; every read is bounds-checked so a
/// truncated file surfaces as [`CheckpointError::Corrupt`], never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.buf.len() - self.at {
            return Err(CheckpointError::Corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, file has {}",
                self.at,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("u16")))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("u32")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("u64")))
    }

    fn u128(&mut self) -> Result<u128, CheckpointError> {
        let lo = self.u64()? as u128;
        let hi = self.u64()? as u128;
        Ok(hi << 64 | lo)
    }

    /// A length prefix that will be used to reserve memory: sanity-cap it
    /// against the bytes actually remaining so a corrupt length can't
    /// drive a huge allocation.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()? as usize;
        let remaining = self.buf.len() - self.at;
        if n.saturating_mul(min_item_bytes) > remaining {
            return Err(CheckpointError::Corrupt(format!(
                "count {n} impossible with {remaining} bytes remaining"
            )));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Action decoding (the encoder is `Sealed::action`).

/// Intern a decoded action name into a `&'static str`. `Action::Internal`
/// holds static strings by design (names come from string literals in
/// protocol code); decoding leaks each *distinct* name once, which is
/// bounded by the protocol's action vocabulary.
fn intern_name(name: &str) -> &'static str {
    static NAMES: Mutex<Option<HashSet<&'static str>>> = Mutex::new(None);
    let mut guard = NAMES.lock().unwrap();
    let set = guard.get_or_insert_with(HashSet::new);
    if let Some(&s) = set.get(name) {
        return s;
    }
    let s: &'static str = Box::leak(name.to_owned().into_boxed_str());
    set.insert(s);
    s
}

fn get_action(cur: &mut Cursor<'_>) -> Result<Action, CheckpointError> {
    match cur.u8()? {
        0 => {
            let kind = match cur.u8()? {
                0 => OpKind::Load,
                1 => OpKind::Store,
                k => return Err(CheckpointError::Corrupt(format!("bad op kind {k}"))),
            };
            let proc = ProcId(cur.u8()?);
            let block = BlockId(cur.u8()?);
            let value = Value(cur.u8()?);
            Ok(Action::Mem(Op {
                kind,
                proc,
                block,
                value,
            }))
        }
        1 => {
            let len = cur.u16()? as usize;
            let bytes = cur.take(len)?;
            let name = std::str::from_utf8(bytes)
                .map_err(|_| CheckpointError::Corrupt("non-UTF-8 action name".into()))?;
            let payload = cur.u32()?;
            Ok(Action::Internal(intern_name(name), payload))
        }
        t => Err(CheckpointError::Corrupt(format!("bad action tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// File encode / decode.

impl CheckpointHeader {
    /// Stream a checkpoint — this header, `parents`, then `frontier` —
    /// into `out` and seal it. Returns the number of bytes written.
    fn write_to<'a, W: Write>(
        &self,
        out: W,
        parents: impl ExactSizeIterator<Item = (u128, u128, &'a Action)>,
        frontier: impl ExactSizeIterator<Item = (u128, u32)>,
    ) -> io::Result<u64> {
        let mut w = Sealed::new(out);
        w.put(&MAGIC)?;
        w.u32(VERSION)?;
        w.u32(self.protocol.len() as u32)?;
        w.put(self.protocol.as_bytes())?;
        w.put(&[self.dims.0, self.dims.1, self.dims.2, self.symmetry])?;
        for s in self.seeds {
            w.u64(s)?;
        }
        w.u64(self.transitions)?;
        w.u64(self.depth)?;
        w.u128(self.init_fp)?;
        w.u64(parents.len() as u64)?;
        for (child, parent, action) in parents {
            w.u128(child)?;
            w.u128(parent)?;
            w.action(action)?;
        }
        w.u64(frontier.len() as u64)?;
        for (fp, depth) in frontier {
            w.u128(fp)?;
            w.u32(depth)?;
        }
        w.seal()
    }

    /// Write a checkpoint to `path` atomically: stream it into a temp file
    /// in the same directory, sync that to disk, then rename. Returns the
    /// number of bytes written.
    ///
    /// The temp file is `path` with `.tmp` appended to the whole name, so
    /// two checkpoints that differ only in their extension (`msi.a`,
    /// `msi.b`) never stage through the same file.
    pub fn save<'a>(
        &self,
        path: &Path,
        parents: impl ExactSizeIterator<Item = (u128, u128, &'a Action)>,
        frontier: impl ExactSizeIterator<Item = (u128, u32)>,
    ) -> Result<u64, CheckpointError> {
        let tmp = staging_path(path);
        let mut out = std::fs::File::create(&tmp)?;
        let bytes = self.write_to(&mut out, parents, frontier)?;
        out.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(bytes)
    }
}

/// A stored parent log in the form [`CheckpointHeader::save`] streams.
fn edges(parents: &[(u128, u128, Action)]) -> impl ExactSizeIterator<Item = (u128, u128, &Action)> {
    parents.iter().map(|(c, p, a)| (*c, *p, a))
}

/// The temp file [`CheckpointHeader::save`] streams `path` into: `.tmp`
/// appended to the whole file name.
fn staging_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    tmp.into()
}

impl CheckpointFile {
    /// Serialize to the wire format, integrity word included.
    pub fn encode(&self) -> Vec<u8> {
        let (mut out, frontier) = (Vec::new(), self.frontier.iter().copied());
        self.header
            .write_to(&mut out, edges(&self.parents), frontier)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Parse and integrity-check the wire format.
    pub fn decode(buf: &[u8]) -> Result<Self, CheckpointError> {
        if buf.len() < MAGIC.len() + 4 + 8 {
            return Err(CheckpointError::Corrupt("file too short".into()));
        }
        let (body, sum_bytes) = buf.split_at(buf.len() - 8);
        let mut cur = Cursor { buf: body, at: 0 };
        if cur.take(MAGIC.len())? != MAGIC {
            return Err(CheckpointError::Corrupt("bad magic".into()));
        }
        // The version goes first: older files are sealed differently, and
        // "unsupported version" is the useful answer for them.
        let version = cur.u32()?;
        if version != VERSION {
            return Err(CheckpointError::Corrupt(format!(
                "unsupported version {version} (this build reads {VERSION})"
            )));
        }
        let want = u64::from_le_bytes(sum_bytes.try_into().expect("sum"));
        let got = SipHasher13::hash_bytes(0, 0, body);
        if want != got {
            return Err(CheckpointError::Corrupt(format!(
                "integrity word mismatch: file says {want:#018x}, contents hash to {got:#018x}"
            )));
        }
        let name_len = cur.u32()? as usize;
        let protocol = std::str::from_utf8(cur.take(name_len)?)
            .map_err(|_| CheckpointError::Corrupt("non-UTF-8 protocol name".into()))?
            .to_owned();
        let dims = (cur.u8()?, cur.u8()?, cur.u8()?);
        let symmetry = cur.u8()?;
        let mut seeds = [0u64; 4];
        for s in &mut seeds {
            *s = cur.u64()?;
        }
        let header = CheckpointHeader {
            protocol,
            dims,
            symmetry,
            seeds,
            transitions: cur.u64()?,
            depth: cur.u64()?,
            init_fp: cur.u128()?,
        };
        let n_parents = cur.count(33)?;
        let mut parents = Vec::with_capacity(n_parents);
        for _ in 0..n_parents {
            let child = cur.u128()?;
            let parent = cur.u128()?;
            let action = get_action(&mut cur)?;
            parents.push((child, parent, action));
        }
        let n_frontier = cur.count(20)?;
        let mut frontier = Vec::with_capacity(n_frontier);
        for _ in 0..n_frontier {
            let fp = cur.u128()?;
            let depth = cur.u32()?;
            frontier.push((fp, depth));
        }
        if cur.at != body.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after frontier",
                body.len() - cur.at
            )));
        }
        Ok(CheckpointFile {
            header,
            parents,
            frontier,
        })
    }

    /// Read and decode `path`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u128_halves_equal_le_bytes() {
        // The encoder's (lo u64, hi u64) halves must be bit-identical to
        // the 16-byte LE encoding, and the decoder must read them back.
        for x in [0u128, 1, u128::MAX, 0x0123456789ABCDEF_FEDCBA9876543210] {
            let mut w = Sealed::new(Vec::new());
            w.u128(x).unwrap();
            w.flush().unwrap();
            assert_eq!(w.out.as_slice(), &x.to_le_bytes());
            let mut cur = Cursor { buf: &w.out, at: 0 };
            assert_eq!(cur.u128().unwrap(), x);
        }
    }

    fn sample() -> CheckpointFile {
        CheckpointFile {
            header: CheckpointHeader {
                protocol: "msi".into(),
                dims: (2, 1, 1),
                symmetry: 2,
                seeds: [1, 2, 3, 4],
                transitions: 5000,
                depth: 12,
                init_fp: 1,
            },
            parents: vec![
                (2, 1, Action::Mem(Op::load(ProcId(1), BlockId(1), Value(0)))),
                (
                    u128::MAX,
                    2,
                    Action::Mem(Op::store(ProcId(2), BlockId(1), Value(1))),
                ),
                (7, u128::MAX, Action::Internal("evict", 3)),
            ],
            frontier: vec![(u128::MAX, 3), (7, 4)],
        }
    }

    #[test]
    fn file_roundtrip() {
        let f = sample();
        let bytes = f.encode();
        let g = CheckpointFile::decode(&bytes).expect("decode");
        assert_eq!(g.header, f.header);
        assert_eq!(g.frontier, f.frontier);
        assert_eq!(
            g.parents, f.parents,
            "actions must compare equal after decode"
        );
    }

    /// The exact bytes and seal of [`sample`]: a change to the encoder
    /// (how it stages and hashes the fields) must leave the file as it was.
    #[test]
    fn sample_file_bytes_are_pinned() {
        const HEX: &str = concat!(
            "534356434b50543103000000030000006d736902010102010000000000000002",
            "000000000000000300000000000000040000000000000088130000000000000c",
            "0000000000000001000000000000000000000000000000030000000000000002",
            "0000000000000000000000000000000100000000000000000000000000000000",
            "00010100ffffffffffffffffffffffffffffffff020000000000000000000000",
            "00000000000102010107000000000000000000000000000000ffffffffffffff",
            "ffffffffffffffffff0105006576696374030000000200000000000000ffffff",
            "ffffffffffffffffffffffffff03000000070000000000000000000000000000",
            "00040000007bc3796e0903a1c7",
        );
        const SEAL: u64 = 0xc7a1_0309_6e79_c37b;
        let bytes = sample().encode();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, HEX);
        let (_, sum) = bytes.split_at(bytes.len() - 8);
        assert_eq!(u64::from_le_bytes(sum.try_into().unwrap()), SEAL);
    }

    #[test]
    fn seal_is_the_sip13_hash_of_the_body() {
        let bytes = sample().encode();
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        assert_eq!(
            u64::from_le_bytes(sum.try_into().unwrap()),
            SipHasher13::hash_bytes(0, 0, body),
            "the streamed seal equals the one-shot hash"
        );
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().encode();
        // Flip one byte anywhere in the body: the integrity word fails.
        for at in [0usize, 8, 20, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(
                matches!(
                    CheckpointFile::decode(&bad),
                    Err(CheckpointError::Corrupt(_))
                ),
                "flip at {at} must be caught"
            );
        }
        // Truncation too.
        assert!(matches!(
            CheckpointFile::decode(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            CheckpointFile::decode(&bytes[..4]),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn version_1_files_are_rejected() {
        // Well-formed, correctly sealed files of versions 1 and 2 must not
        // resume: v1 fingerprints were hashed differently, and both carry
        // the seen list and state count v3 dropped.
        for old in [1u32, 2] {
            let mut bytes = sample().encode();
            bytes.truncate(bytes.len() - 8);
            bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&old.to_le_bytes());
            let sum = SipHasher13::hash_bytes(0, 0, &bytes);
            bytes.extend_from_slice(&sum.to_le_bytes());
            match CheckpointFile::decode(&bytes) {
                Err(CheckpointError::Corrupt(m)) => {
                    assert!(m.contains(&format!("unsupported version {old}")), "{m}")
                }
                r => panic!("a v{old} file must be rejected, got {r:?}"),
            }
        }
    }

    #[test]
    fn save_and_load_via_tempfile() {
        let dir = std::env::temp_dir().join(format!("scv-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckpt");
        let f = sample();
        let written = f
            .header
            .save(&path, edges(&f.parents), f.frontier.iter().copied())
            .expect("save");
        assert_eq!(written, f.encode().len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), f.encode());
        assert!(!dir.join("t.ckpt.tmp").exists(), "the temp file is renamed");
        let g = CheckpointFile::load(&path).expect("load");
        assert_eq!(g.parents, f.parents);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Names that differ only after the last dot used to share one temp
    /// file, so one run's rename could install the other's snapshot. Two
    /// writers saving such names side by side must each read back their
    /// own file.
    #[test]
    fn names_differing_in_extension_save_independently() {
        let dir = std::env::temp_dir().join(format!("scv-ckpt-ext-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path_a, path_b) = (dir.join("msi.a"), dir.join("msi.b"));
        assert_ne!(staging_path(&path_a), staging_path(&path_b));
        assert_eq!(staging_path(&dir.join("t.ckpt")), dir.join("t.ckpt.tmp"));
        let a = sample();
        let mut b = sample();
        b.header.protocol = "mesi".into();
        b.frontier.push((9, 5));
        std::thread::scope(|scope| {
            for (path, f) in [(&path_a, &a), (&path_b, &b)] {
                scope.spawn(move || {
                    for _ in 0..20 {
                        f.header
                            .save(path, edges(&f.parents), f.frontier.iter().copied())
                            .expect("save");
                    }
                });
            }
        });
        for (path, f) in [(&path_a, &a), (&path_b, &b)] {
            let g = CheckpointFile::load(path).expect("load");
            assert_eq!(g.header, f.header, "{}", path.display());
            assert_eq!(g.frontier, f.frontier, "{}", path.display());
            assert!(!staging_path(path).exists(), "the temp file is renamed");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interned_internal_actions_compare_equal() {
        let a = Action::Internal("fetch-exclusive", 9);
        let mut w = Sealed::new(Vec::new());
        w.action(&a).unwrap();
        w.flush().unwrap();
        let buf = w.out;
        let mut cur = Cursor { buf: &buf, at: 0 };
        let b = get_action(&mut cur).unwrap();
        assert_eq!(a, b);
        // Interning: decoding the same name twice yields the same pointer.
        let mut cur = Cursor { buf: &buf, at: 0 };
        let c = get_action(&mut cur).unwrap();
        match (b, c) {
            (Action::Internal(n1, _), Action::Internal(n2, _)) => {
                assert_eq!(n1.as_ptr(), n2.as_ptr(), "names are interned");
            }
            _ => unreachable!(),
        }
    }
}
