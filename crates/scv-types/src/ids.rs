//! Identifiers for the protocol parameters `p`, `b`, `v` of section 2.1.
//!
//! The paper indexes processors, blocks, and values from 1; we do the same so
//! that printed operations match the paper's notation (`ST(P1,B2,1)`), and so
//! that [`Value::BOTTOM`] (the initial value `⊥`) can be represented as 0.

use std::fmt;

/// A processor identifier `P` with `1 <= P <= p`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u8);

/// A memory-block identifier `B` with `1 <= B <= b`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u8);

/// A data value `V` with `1 <= V <= v`, or [`Value::BOTTOM`] (`⊥`, encoded
/// as 0), the initial value of every block (and the default).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(pub u8);

impl ProcId {
    /// Zero-based index, for array addressing.
    #[inline]
    pub fn idx(self) -> usize {
        debug_assert!(self.0 >= 1, "processor ids are 1-based");
        (self.0 - 1) as usize
    }

    /// Construct from a zero-based index.
    #[inline]
    pub fn from_idx(i: usize) -> Self {
        ProcId(i as u8 + 1)
    }
}

impl BlockId {
    /// Zero-based index, for array addressing.
    #[inline]
    pub fn idx(self) -> usize {
        debug_assert!(self.0 >= 1, "block ids are 1-based");
        (self.0 - 1) as usize
    }

    /// Construct from a zero-based index.
    #[inline]
    pub fn from_idx(i: usize) -> Self {
        BlockId(i as u8 + 1)
    }
}

impl Value {
    /// The initial value `⊥` of every memory block.
    pub const BOTTOM: Value = Value(0);

    /// Is this the initial value `⊥`?
    #[inline]
    pub fn is_bottom(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bottom() {
            write!(f, "⊥")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The size parameters `(p, b, v)` of a protocol (section 2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Params {
    /// Number of processors.
    pub p: u8,
    /// Number of memory blocks.
    pub b: u8,
    /// Number of distinct (non-`⊥`) data values per block.
    pub v: u8,
}

impl Params {
    /// Construct parameters; all of `p`, `b`, `v` must be at least 1.
    pub fn new(p: u8, b: u8, v: u8) -> Self {
        assert!(p >= 1 && b >= 1 && v >= 1, "params must be >= 1");
        Params { p, b, v }
    }

    /// Iterator over all processor ids `P1..=Pp`.
    pub fn procs(&self) -> impl Iterator<Item = ProcId> {
        (1..=self.p).map(ProcId)
    }

    /// Iterator over all block ids `B1..=Bb`.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> {
        (1..=self.b).map(BlockId)
    }

    /// Iterator over all storable (non-`⊥`) values `1..=v`.
    pub fn values(&self) -> impl Iterator<Item = Value> {
        (1..=self.v).map(Value)
    }

    /// `ceil(log2(n))` as used by the paper's size bounds (`lg` in §4.4);
    /// `lg(1) = 0`.
    pub fn lg(n: u64) -> u32 {
        if n <= 1 {
            0
        } else {
            64 - (n - 1).leading_zeros()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_based_index_roundtrip() {
        for i in 0..16 {
            assert_eq!(ProcId::from_idx(i).idx(), i);
            assert_eq!(BlockId::from_idx(i).idx(), i);
        }
    }

    #[test]
    fn bottom_is_zero_and_displays_as_bottom() {
        assert!(Value::BOTTOM.is_bottom());
        assert!(!Value(1).is_bottom());
        assert_eq!(Value::BOTTOM.to_string(), "⊥");
        assert_eq!(Value(3).to_string(), "3");
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(ProcId(1).to_string(), "P1");
        assert_eq!(BlockId(2).to_string(), "B2");
    }

    #[test]
    fn params_iterators_cover_ranges() {
        let p = Params::new(3, 2, 4);
        assert_eq!(p.procs().count(), 3);
        assert_eq!(p.blocks().count(), 2);
        assert_eq!(p.values().count(), 4);
        assert_eq!(p.procs().next(), Some(ProcId(1)));
        assert_eq!(p.values().last(), Some(Value(4)));
    }

    #[test]
    fn lg_is_ceiling_log2() {
        assert_eq!(Params::lg(1), 0);
        assert_eq!(Params::lg(2), 1);
        assert_eq!(Params::lg(3), 2);
        assert_eq!(Params::lg(4), 2);
        assert_eq!(Params::lg(5), 3);
        assert_eq!(Params::lg(8), 3);
        assert_eq!(Params::lg(9), 4);
    }

    #[test]
    #[should_panic(expected = "params must be >= 1")]
    fn zero_params_rejected() {
        let _ = Params::new(0, 1, 1);
    }
}
