//! A deque in the style of Greenwald's first DCAS algorithm.
//!
//! Section 1.1 of the paper critiques Greenwald's array deque (pages
//! 196–197 of his PhD thesis): it keeps **both** end pointers in a single
//! memory word and DCASes on that word plus a value cell, "using the
//! two-word DCAS as if it were a three-word operation". The paper notes
//! two consequences: the index range is cut to a fraction of a word, and
//! — the important one — **concurrent access to the two deque ends is
//! impossible**, because every operation on either end must CAS the same
//! index word.
//!
//! This module reproduces that design point as a baseline: `(l, r, count)`
//! are packed into one word (20 bits each — the range reduction the paper
//! mentions), every operation DCASes `(indices, cell)`, and boundary
//! detection is trivial because one atomic read yields both ends.
//! `tests/cross_end_interference.rs` counts the failed DCASes this costs
//! when two threads work opposite ends, against the paper's algorithm.

use std::marker::PhantomData;

use crossbeam_utils::CachePadded;
use dcas::{Backoff, DcasStrategy, DcasWord, HarrisMcas};
use dcas_deque::reserved::NULL;
use dcas_deque::value::{Boxed, WordValue};
use dcas_deque::{ConcurrentDeque, Full};

const FIELD_BITS: u32 = 20;
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;

/// Maximum capacity imposed by the packed index encoding.
pub const MAX_CAPACITY: usize = (FIELD_MASK as usize) - 1;

#[inline]
fn enc(l: usize, r: usize, count: usize) -> u64 {
    debug_assert!(l as u64 <= FIELD_MASK && r as u64 <= FIELD_MASK && count as u64 <= FIELD_MASK);
    (((l as u64) << (2 * FIELD_BITS)) | ((r as u64) << FIELD_BITS) | count as u64) << 2
}

#[inline]
fn dec(w: u64) -> (usize, usize, usize) {
    let w = w >> 2;
    (
        ((w >> (2 * FIELD_BITS)) & FIELD_MASK) as usize,
        ((w >> FIELD_BITS) & FIELD_MASK) as usize,
        (w & FIELD_MASK) as usize,
    )
}

/// Word-level Greenwald-style deque; use [`GreenwaldDeque`] for arbitrary
/// element types.
pub struct RawGreenwaldDeque<V: WordValue, S: DcasStrategy> {
    strategy: S,
    /// `(L, R, count)` packed into one word — the design the paper
    /// critiques.
    lr: CachePadded<DcasWord>,
    slots: Box<[DcasWord]>,
    _marker: PhantomData<fn(V) -> V>,
}

impl<V: WordValue, S: DcasStrategy> RawGreenwaldDeque<V, S> {
    /// Creates a deque with capacity `length`.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0` or `length > MAX_CAPACITY`.
    pub fn new(length: usize) -> Self {
        assert!(length >= 1, "capacity must be at least 1");
        assert!(length <= MAX_CAPACITY, "packed indices limit capacity to {MAX_CAPACITY}");
        RawGreenwaldDeque {
            strategy: S::default(),
            lr: CachePadded::new(DcasWord::new(enc(0, 1 % length, 0))),
            slots: (0..length).map(|_| DcasWord::new(NULL)).collect(),
            _marker: PhantomData,
        }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The DCAS strategy instance (for [`dcas::Counting`] statistics).
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    #[inline]
    fn add1(&self, i: usize) -> usize {
        (i + 1) % self.slots.len()
    }

    #[inline]
    fn sub1(&self, i: usize) -> usize {
        (i + self.slots.len() - 1) % self.slots.len()
    }

    /// Pushes at the right end.
    pub fn push_right(&self, v: V) -> Result<(), Full<V>> {
        let val = v.encode();
        let mut backoff = Backoff::new();
        loop {
            let old = self.strategy.load(&self.lr);
            let (l, r, count) = dec(old);
            if count == self.slots.len() {
                // One atomic read of the packed word suffices to decide
                // fullness — Greenwald's advantage.
                // SAFETY: `val` encoded above, unconsumed.
                return Err(Full(unsafe { V::decode(val) }));
            }
            let new = enc(l, self.add1(r), count + 1);
            if self.strategy.dcas(&self.lr, &self.slots[r], old, NULL, new, val) {
                return Ok(());
            }
            backoff.snooze();
        }
    }

    /// Pushes at the left end.
    pub fn push_left(&self, v: V) -> Result<(), Full<V>> {
        let val = v.encode();
        let mut backoff = Backoff::new();
        loop {
            let old = self.strategy.load(&self.lr);
            let (l, r, count) = dec(old);
            if count == self.slots.len() {
                // SAFETY: as above.
                return Err(Full(unsafe { V::decode(val) }));
            }
            let new = enc(self.sub1(l), r, count + 1);
            if self.strategy.dcas(&self.lr, &self.slots[l], old, NULL, new, val) {
                return Ok(());
            }
            backoff.snooze();
        }
    }

    /// Pops from the right end.
    pub fn pop_right(&self) -> Option<V> {
        let mut backoff = Backoff::new();
        loop {
            let old = self.strategy.load(&self.lr);
            let (l, r, count) = dec(old);
            if count == 0 {
                return None;
            }
            let slot = self.sub1(r);
            let old_s = self.strategy.load(&self.slots[slot]);
            if old_s == NULL {
                backoff.snooze(); // torn view; the DCAS would fail anyway
                continue;
            }
            let new = enc(l, slot, count - 1);
            if self.strategy.dcas(&self.lr, &self.slots[slot], old, old_s, new, NULL) {
                // SAFETY: successful DCAS transfers ownership.
                return Some(unsafe { V::decode(old_s) });
            }
            backoff.snooze();
        }
    }

    /// Pops from the left end.
    pub fn pop_left(&self) -> Option<V> {
        let mut backoff = Backoff::new();
        loop {
            let old = self.strategy.load(&self.lr);
            let (l, r, count) = dec(old);
            if count == 0 {
                return None;
            }
            let slot = self.add1(l);
            let old_s = self.strategy.load(&self.slots[slot]);
            if old_s == NULL {
                backoff.snooze();
                continue;
            }
            let new = enc(slot, r, count - 1);
            if self.strategy.dcas(&self.lr, &self.slots[slot], old, old_s, new, NULL) {
                // SAFETY: as above.
                return Some(unsafe { V::decode(old_s) });
            }
            backoff.snooze();
        }
    }

    /// Quiescent element count.
    pub fn len_quiescent(&self) -> usize {
        dec(self.strategy.load(&self.lr)).2
    }
}

impl<V: WordValue, S: DcasStrategy> Drop for RawGreenwaldDeque<V, S> {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            let w = slot.unsync_load();
            if w != NULL {
                // SAFETY: exclusive access; slot holds an unconsumed value.
                unsafe { V::drop_encoded(w) };
            }
        }
    }
}

/// Typed Greenwald-style bounded deque (heap-boxed elements).
pub struct GreenwaldDeque<T: Send, S: DcasStrategy = HarrisMcas> {
    raw: RawGreenwaldDeque<Boxed<T>, S>,
}

impl<T: Send, S: DcasStrategy> GreenwaldDeque<T, S> {
    /// Creates a deque with capacity `length`.
    pub fn new(length: usize) -> Self {
        GreenwaldDeque { raw: RawGreenwaldDeque::new(length) }
    }
}

impl<T: Send, S: DcasStrategy> ConcurrentDeque<T> for GreenwaldDeque<T, S> {
    fn push_right(&self, v: T) -> Result<(), Full<T>> {
        self.raw.push_right(Boxed::new(v)).map_err(|Full(b)| Full(b.into_inner()))
    }

    fn push_left(&self, v: T) -> Result<(), Full<T>> {
        self.raw.push_left(Boxed::new(v)).map_err(|Full(b)| Full(b.into_inner()))
    }

    fn pop_right(&self) -> Option<T> {
        self.raw.pop_right().map(Boxed::into_inner)
    }

    fn pop_left(&self) -> Option<T> {
        self.raw.pop_left().map(Boxed::into_inner)
    }

    fn impl_name(&self) -> &'static str {
        "greenwald-one-word"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcas::GlobalLock;

    #[test]
    fn encoding_roundtrip() {
        for (l, r, c) in [(0, 1, 0), (5, 5, 3), (1_000_000, 999_999, 1_000_000)] {
            assert_eq!(dec(enc(l, r, c)), (l, r, c));
        }
    }

    #[test]
    fn paper_running_example() {
        let d = RawGreenwaldDeque::<u32, GlobalLock>::new(8);
        d.push_right(1).unwrap();
        d.push_left(2).unwrap();
        d.push_right(3).unwrap();
        assert_eq!(d.pop_left(), Some(2));
        assert_eq!(d.pop_left(), Some(1));
        assert_eq!(d.pop_left(), Some(3));
        assert_eq!(d.pop_left(), None);
    }

    #[test]
    fn full_and_empty_boundaries() {
        let d = RawGreenwaldDeque::<u32, GlobalLock>::new(2);
        assert_eq!(d.pop_right(), None);
        d.push_right(1).unwrap();
        d.push_left(2).unwrap();
        assert!(d.push_right(3).is_err());
        assert!(d.push_left(3).is_err());
        assert_eq!(d.pop_right(), Some(1));
        assert_eq!(d.pop_right(), Some(2));
        assert_eq!(d.pop_right(), None);
    }

    #[test]
    fn wraparound() {
        let d = RawGreenwaldDeque::<u32, GlobalLock>::new(3);
        d.push_right(0).unwrap();
        d.push_right(1).unwrap();
        for i in 2..50 {
            d.push_right(i).unwrap();
            assert_eq!(d.pop_left(), Some(i - 2));
        }
    }

    #[test]
    fn typed_wrapper() {
        let d: GreenwaldDeque<String, GlobalLock> = GreenwaldDeque::new(4);
        d.push_left("x".into()).unwrap();
        assert_eq!(d.pop_right().as_deref(), Some("x"));
    }

    #[test]
    fn capacity_validation() {
        assert!(std::panic::catch_unwind(|| RawGreenwaldDeque::<u32, GlobalLock>::new(0)).is_err());
    }
}
