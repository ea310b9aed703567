//! The symmetric heap: one equal-sized region of atomic words per PE.
//!
//! A [`SymAddr`] is a *word offset* valid in every PE's region — the
//! defining property of symmetric allocation in the PGAS model
//! (Figure 1 of the paper): the same address names storage on every PE,
//! and pairing it with a PE id selects whose instance you touch.

use std::sync::atomic::AtomicU64;

/// A symmetric address: a word offset into every PE's heap region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymAddr(pub u32);

impl SymAddr {
    /// Address `n` words further along (array indexing).
    #[inline]
    pub fn offset(self, n: usize) -> SymAddr {
        SymAddr(self.0 + n as u32)
    }

    /// The raw word index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One PE's partition of the global address space.
pub(crate) struct Heap {
    words: Box<[AtomicU64]>,
}

impl Heap {
    pub(crate) fn new(words: usize) -> Self {
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        Heap { words: v.into_boxed_slice() }
    }

    /// The atomic word at `addr`. Panics (with a LOLCODE-flavoured
    /// message) on out-of-bounds access — the simulator's equivalent of
    /// a segfault on the device.
    #[inline]
    pub(crate) fn word(&self, addr: SymAddr) -> &AtomicU64 {
        match self.words.get(addr.index()) {
            Some(w) => w,
            None => panic!("{}", crate::diag::heap_bound(addr, self.words.len())),
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }
}

/// Conversions between the value types the language stores in symmetric
/// words. `f64` travels as raw bits; `i64` as two's complement.
#[inline]
pub fn f64_to_word(f: f64) -> u64 {
    f.to_bits()
}

/// Inverse of [`f64_to_word`].
#[inline]
pub fn word_to_f64(w: u64) -> f64 {
    f64::from_bits(w)
}

/// Two's-complement encoding of an `i64` in a heap word.
#[inline]
pub fn i64_to_word(i: i64) -> u64 {
    i as u64
}

/// Inverse of [`i64_to_word`].
#[inline]
pub fn word_to_i64(w: u64) -> i64 {
    w as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn sym_addr_offset() {
        let a = SymAddr(10);
        assert_eq!(a.offset(5), SymAddr(15));
        assert_eq!(a.offset(0), a);
        assert_eq!(a.index(), 10);
    }

    #[test]
    fn heap_starts_zeroed() {
        let h = Heap::new(16);
        assert_eq!(h.len(), 16);
        for i in 0..16 {
            assert_eq!(h.word(SymAddr(i)).load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn heap_store_load() {
        let h = Heap::new(4);
        h.word(SymAddr(2)).store(0xDEAD_BEEF, Ordering::Relaxed);
        assert_eq!(h.word(SymAddr(2)).load(Ordering::Relaxed), 0xDEAD_BEEF);
        assert_eq!(h.word(SymAddr(1)).load(Ordering::Relaxed), 0);
    }

    #[test]
    #[should_panic(expected = "OUTSIDE DA HEAP")]
    fn heap_oob_panics() {
        let h = Heap::new(4);
        h.word(SymAddr(4)).load(Ordering::Relaxed);
    }

    #[test]
    fn word_conversions_roundtrip() {
        for i in [0i64, 1, -1, i64::MAX, i64::MIN, 42] {
            assert_eq!(word_to_i64(i64_to_word(i)), i);
        }
        for f in [0.0f64, -0.0, 1.5, -2.25, f64::INFINITY, f64::MIN_POSITIVE] {
            assert_eq!(word_to_f64(f64_to_word(f)).to_bits(), f.to_bits());
        }
        // NaN payload is preserved bit-exactly.
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        assert_eq!(word_to_f64(f64_to_word(nan)).to_bits(), nan.to_bits());
    }
}
