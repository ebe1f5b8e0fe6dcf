//! Encodings of user values into DCAS payload words.
//!
//! The paper's deques store abstract values from a set `val` in single
//! memory words, with a handful of distinguished non-`val` constants:
//! `null` (both algorithms) and `sentL`/`sentR` (the linked-list
//! algorithm). This module defines the encoding contract and three
//! concrete encodings:
//!
//! * [`Boxed<T>`] — heap-boxes an arbitrary `T` and stores the (16-byte
//!   aligned) pointer; the encoding behind the typed array deque.
//! * `NodeValue<T>` — the encoding of the three typed list deques
//!   ([`ListDeque`](crate::ListDeque), [`DummyListDeque`](crate::DummyListDeque),
//!   [`LfrcListDeque`](crate::LfrcListDeque)). When `T` fits a machine word (at most 8 bytes, aligned to
//!   at most 8) it sets [`WordValue::IN_NODE`], and the list keeps `T`
//!   itself in its node's spare word: one allocation per element, the
//!   node. Larger `T` (the executor's 16-byte tasks, `String`) is boxed.
//! * `u32` — stored inline with a shift-and-offset; the zero-allocation
//!   encoding used by benchmarks and stress tests.

use crate::reserved;

/// A value that can be stored directly in a [`DcasWord`](dcas::DcasWord)
/// inside a deque slot or node value field.
///
/// # Safety
///
/// Implementations must guarantee that [`encode`](WordValue::encode)
/// returns a word that
///
/// * satisfies the DCAS payload contract (low two bits clear),
/// * is **at least [`reserved::MIN_VALUE`]**, so it is distinct from the
///   deque-internal constants `NULL` (0), `SENTL` (4) and `SENTR` (8), and
/// * round-trips: `decode(encode(v))` yields a value equivalent to `v`,
///   and distinct live values encode to distinct words.
///
/// `decode` and `drop_encoded` take logical ownership of the encoded word;
/// each encoded word must be consumed exactly once by one of them.
pub unsafe trait WordValue: Send + Sized {
    /// `true` if a linked-list deque may keep the value itself in its
    /// node's spare word instead of calling [`encode`](Self::encode); the
    /// node's value word then holds a token (the node's own address).
    /// Requires `size_of::<Self>() <= 8` and `align_of::<Self>() <= 8`,
    /// which the list checks at compile time. Deques without a spare node
    /// word ignore the flag and use `encode`, so an `IN_NODE` encoding
    /// must still meet the contract above.
    const IN_NODE: bool = false;

    /// Consumes the value, producing its word encoding.
    fn encode(self) -> u64;

    /// Reconstitutes a value from its encoding, taking ownership.
    ///
    /// # Safety
    ///
    /// `w` must be a word previously produced by [`encode`](Self::encode)
    /// on this type and not yet consumed.
    unsafe fn decode(w: u64) -> Self;

    /// Releases the resources of an encoded word without reconstituting
    /// the value (used when a deque containing values is dropped).
    ///
    /// # Safety
    ///
    /// Same contract as [`decode`](Self::decode).
    unsafe fn drop_encoded(w: u64) {
        // SAFETY: forwarded caller contract.
        drop(unsafe { Self::decode(w) });
    }
}

/// A value that can report a stable `u64` identity for op tracing.
///
/// Observability wrappers (`dcas_obs::Recorded`) record the identity of
/// every pushed and popped element so captured traces can be replayed
/// against the sequential deque specification. The identity must be
/// **stable across the push/pop round-trip** (popping the element yields
/// the same id that was recorded at push time) and should be unique per
/// live element for the audit to be meaningful — a deque holding two
/// elements with equal ids still traces, but the linearizability verdict
/// weakens to "some element with this id".
///
/// Unlike [`WordValue`] this trait is safe: ids are telemetry, never
/// dereferenced.
pub trait TraceId {
    /// The value's trace identity.
    fn trace_id(&self) -> u64;
}

macro_rules! trace_id_uint {
    ($($t:ty),*) => {$(
        impl TraceId for $t {
            #[inline]
            fn trace_id(&self) -> u64 {
                *self as u64
            }
        }
    )*};
}

trace_id_uint!(u8, u16, u32, u64, usize);

/// Force 16-byte alignment so that boxed-value pointers leave the low four
/// bits clear (two for the DCAS substrate, one for the deleted flag, one
/// spare).
#[repr(align(16))]
struct Align16<T>(T);

/// Heap-boxed encoding of an arbitrary `T`.
///
/// `Boxed<T>` is how the typed deque APIs ([`ArrayDeque`](crate::ArrayDeque),
/// plus the list deques for `T` wider than a word) store arbitrary
/// element types: `push`
/// allocates one box, `pop` frees it. This mirrors the paper's model, in
/// which values are machine words and anything larger lives behind a
/// pointer managed by the garbage-collected host (Lisp / Java).
pub struct Boxed<T>(Box<Align16<T>>);

impl<T> Boxed<T> {
    /// Boxes `v`.
    pub fn new(v: T) -> Self {
        Boxed(Box::new(Align16(v)))
    }

    /// Unwraps the inner value.
    pub fn into_inner(self) -> T {
        self.0 .0
    }
}

impl<T: TraceId> TraceId for Boxed<T> {
    fn trace_id(&self) -> u64 {
        self.0 .0.trace_id()
    }
}

// SAFETY: `Box` pointers are non-null, unique, and 16-byte aligned thanks
// to `Align16`, hence >= MIN_VALUE and payload-valid; decode/encode
// round-trip through `Box::into_raw`/`Box::from_raw`.
unsafe impl<T: Send> WordValue for Boxed<T> {
    fn encode(self) -> u64 {
        let w = Box::into_raw(self.0) as u64;
        debug_assert!(w >= reserved::MIN_VALUE && w.is_multiple_of(16));
        w
    }

    unsafe fn decode(w: u64) -> Self {
        debug_assert!(w >= reserved::MIN_VALUE);
        // SAFETY: `w` came from `Box::into_raw` in `encode` (caller
        // contract) and ownership is transferred exactly once.
        Boxed(unsafe { Box::from_raw(w as *mut Align16<T>) })
    }
}

/// The typed list deques' encoding of an arbitrary `T`: the value itself,
/// kept in the list node's spare word, when `T` fits a word; a
/// [`Boxed<T>`] pointer otherwise (and whenever a deque without a spare
/// node word stores it).
#[repr(transparent)]
pub(crate) struct NodeValue<T>(pub(crate) T);

// SAFETY: `encode`/`decode` are exactly `Boxed<T>`'s; `IN_NODE` is set
// only when `NodeValue<T>` (layout-identical to `T`) fits the node's
// 8-byte spare word.
unsafe impl<T: Send> WordValue for NodeValue<T> {
    const IN_NODE: bool =
        std::mem::size_of::<T>() <= 8 && std::mem::align_of::<T>() <= 8;

    fn encode(self) -> u64 {
        Boxed::new(self.0).encode()
    }

    unsafe fn decode(w: u64) -> Self {
        // SAFETY: forwarded caller contract; `w` came from `encode`.
        NodeValue(unsafe { Boxed::<T>::decode(w) }.into_inner())
    }
}

// SAFETY: the affine map `v * 4 + MIN_VALUE` is injective, keeps the low
// two bits clear, and its range starts at MIN_VALUE.
unsafe impl WordValue for u32 {
    fn encode(self) -> u64 {
        (self as u64) * 4 + reserved::MIN_VALUE
    }

    unsafe fn decode(w: u64) -> Self {
        debug_assert!(w >= reserved::MIN_VALUE && w.is_multiple_of(4));
        ((w - reserved::MIN_VALUE) / 4) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        for v in [0u32, 1, 2, 3, 1000, u32::MAX] {
            let w = v.encode();
            assert!(w >= reserved::MIN_VALUE);
            assert_eq!(w % 4, 0);
            assert_eq!(unsafe { u32::decode(w) }, v);
        }
    }

    #[test]
    fn u32_distinct_values_distinct_words() {
        assert_ne!(0u32.encode(), 1u32.encode());
        assert_ne!(0u32.encode(), reserved::NULL);
        assert_ne!(0u32.encode(), reserved::SENTL);
        assert_ne!(0u32.encode(), reserved::SENTR);
    }

    #[test]
    fn boxed_roundtrip() {
        let b = Boxed::new(String::from("hello"));
        let w = b.encode();
        assert!(w >= reserved::MIN_VALUE);
        assert_eq!(w % 16, 0);
        let back = unsafe { Boxed::<String>::decode(w) };
        assert_eq!(back.into_inner(), "hello");
    }

    #[test]
    fn node_value_in_node_only_when_it_fits_a_word() {
        const {
            assert!(NodeValue::<u64>::IN_NODE);
            assert!(NodeValue::<std::sync::Arc<u8>>::IN_NODE);
            assert!(NodeValue::<()>::IN_NODE);
            assert!(!NodeValue::<u128>::IN_NODE);
            assert!(!NodeValue::<String>::IN_NODE);
            assert!(!u32::IN_NODE && !Boxed::<u8>::IN_NODE);
        }
        // The boxed fallback still round-trips for deques that need it.
        let w = NodeValue(7u64).encode();
        assert_eq!(unsafe { NodeValue::<u64>::decode(w) }.0, 7);
    }

    #[test]
    fn boxed_drop_encoded_releases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let w = Boxed::new(Probe).encode();
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        unsafe { Boxed::<Probe>::drop_encoded(w) };
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }
}
