//! The shared memory word type operated on by all DCAS strategies.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A 64-bit shared memory word that may participate in DCAS operations.
///
/// `DcasWord` deliberately does **not** expose raw atomic accessors: all
/// reads and writes must go through a [`DcasStrategy`](crate::DcasStrategy)
/// so that strategies which tag in-flight descriptors into words (the
/// lock-free [`HarrisMcas`](crate::HarrisMcas)) can intercept them. The
/// `pub(crate)` accessors below are the escape hatch used by strategy
/// implementations themselves.
///
/// Payload values must satisfy the crate-wide reserved-bits contract: the
/// low [`RESERVED_BITS`](crate::RESERVED_BITS) bits must be clear.
#[repr(transparent)]
pub struct DcasWord {
    cell: AtomicU64,
}

impl DcasWord {
    /// Creates a new word holding `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` violates the payload contract.
    #[inline]
    pub const fn new(v: u64) -> Self {
        assert!(crate::is_valid_payload(v), "DcasWord payload has reserved low bits set");
        DcasWord { cell: AtomicU64::new(v) }
    }

    /// Raw load, visible only to strategy implementations.
    #[inline]
    pub(crate) fn raw_load(&self, order: Ordering) -> u64 {
        self.cell.load(order)
    }

    /// Raw store, visible only to strategy implementations.
    #[inline]
    pub(crate) fn raw_store(&self, v: u64, order: Ordering) {
        self.cell.store(v, order)
    }

    /// Raw compare-exchange, visible only to strategy implementations.
    #[inline]
    pub(crate) fn raw_compare_exchange(
        &self,
        old: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.cell.compare_exchange(old, new, success, failure)
    }

    /// Address of this word, used for lock ordering and identity checks.
    #[inline]
    pub(crate) fn addr(&self) -> usize {
        self as *const DcasWord as usize
    }

    /// Unsynchronized store for words that are **not yet shared** (e.g.
    /// initializing the fields of a node before it is published by a
    /// DCAS). The publishing DCAS provides the release edge that makes
    /// these writes visible to readers that acquire the published pointer.
    ///
    /// Must not be used on a word that another thread may access
    /// concurrently; use [`DcasStrategy::store`](crate::DcasStrategy::store)
    /// for that.
    #[inline]
    pub fn init_store(&self, v: u64) {
        debug_assert!(crate::is_valid_payload(v), "payload has reserved low bits set");
        self.cell.store(v, Ordering::Relaxed)
    }

    /// Unsynchronized load for words to which the caller has **exclusive
    /// access** (e.g. tearing down a structure through `&mut self`, when
    /// no operation can be in flight and therefore no strategy descriptor
    /// can be installed).
    #[inline]
    pub fn unsync_load(&mut self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Like [`unsync_load`](Self::unsync_load) but through a shared
    /// reference, for callers that can prove quiescence without holding
    /// `&mut` (e.g. `Drop` implementations walking linked nodes).
    ///
    /// # Safety
    ///
    /// No other thread may concurrently write this word.
    #[inline]
    pub unsafe fn unsync_load_shared(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl Default for DcasWord {
    fn default() -> Self {
        DcasWord::new(0)
    }
}

impl fmt::Debug for DcasWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A raw relaxed load is fine for debugging; the printed value may be
        // a descriptor tag if a lock-free DCAS is in flight.
        write!(f, "DcasWord({:#x})", self.raw_load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_raw_roundtrip() {
        let w = DcasWord::new(40);
        assert_eq!(w.raw_load(Ordering::SeqCst), 40);
        w.raw_store(8, Ordering::SeqCst);
        assert_eq!(w.raw_load(Ordering::SeqCst), 8);
    }

    #[test]
    fn raw_compare_exchange_semantics() {
        let w = DcasWord::new(4);
        assert_eq!(w.raw_compare_exchange(4, 8, Ordering::SeqCst, Ordering::SeqCst), Ok(4));
        assert_eq!(w.raw_compare_exchange(4, 12, Ordering::SeqCst, Ordering::SeqCst), Err(8));
    }

    #[test]
    #[should_panic(expected = "reserved low bits")]
    fn new_rejects_tagged_payload() {
        let _ = DcasWord::new(3);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(DcasWord::default().raw_load(Ordering::SeqCst), 0);
    }

    #[test]
    fn addresses_are_distinct() {
        let a = DcasWord::new(0);
        let b = DcasWord::new(0);
        assert_ne!(a.addr(), b.addr());
    }
}
