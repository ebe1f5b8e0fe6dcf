//! The two DCAS-based concurrent deques of Agesen, Detlefs, Flood,
//! Garthwaite, Martin, Moir, Shavit & Steele, *DCAS-Based Concurrent
//! Deques* (SPAA 2000), implemented faithfully in Rust over the software
//! DCAS emulations of the [`dcas`] crate.
//!
//! * [`ArrayDeque`] — the array-based **bounded** deque of Section 3
//!   (Figures 2, 3, 30, 31). Both ends can be operated concurrently; the
//!   empty and full boundary cases are detected without atomically
//!   comparing the two end indices, using the paper's key observation that
//!   the state is determined by *one* index plus the content of the cell
//!   it points at.
//! * [`ListDeque`] — the linked-list-based **unbounded** deque of
//!   Section 4 (Figures 11, 13, 17, 32, 33, 34), the first non-blocking
//!   unbounded-memory deque. Pops are *split* into a logical deletion
//!   (null the value, set a deleted bit in the sentinel pointer) and a
//!   physical deletion (splice the node out), at the cost of one extra
//!   DCAS per pop. Node reclamation uses epoch-based reclamation
//!   (`crossbeam-epoch`) in place of the paper's assumed garbage
//!   collector.
//! * [`DummyListDeque`] — the variant sketched in the paper's footnote 4 /
//!   Figure 10, which replaces the deleted *bit* by per-side dummy
//!   indirection nodes.
//! * [`LfrcListDeque`] — the list deque transformed to run **without a
//!   garbage collector** via the authors' DCAS-based Lock-Free Reference
//!   Counting methodology (Section 1.1 of the paper; reference \[12\]).
//!
//! All deques are **linearizable** and, when instantiated with the
//! lock-free [`HarrisMcas`] strategy, **non-blocking**
//! end-to-end. Each deque is generic over the DCAS emulation
//! ([`dcas::DcasStrategy`]). The lock-free strategy's feature-gated
//! operation counters are re-exported here as [`StrategyStats`] (build
//! with `dcas/stats` to enable them).
//!
//! # Quickstart
//!
//! ```
//! use dcas_deque::{ArrayDeque, ListDeque, ConcurrentDeque};
//!
//! // A bounded deque holding up to 8 strings.
//! let d: ArrayDeque<String> = ArrayDeque::new(8);
//! d.push_right("b".into()).unwrap();
//! d.push_left("a".into()).unwrap();
//! assert_eq!(d.pop_right().as_deref(), Some("b"));
//! assert_eq!(d.pop_left().as_deref(), Some("a"));
//! assert_eq!(d.pop_left(), None); // empty
//!
//! // An unbounded deque.
//! let d: ListDeque<i64> = ListDeque::new();
//! for i in 0..100 {
//!     d.push_right(i).unwrap();
//! }
//! assert_eq!(d.pop_left(), Some(0));
//! assert_eq!(d.pop_right(), Some(99));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod array;
pub(crate) mod end;
pub(crate) mod guard;
pub mod list;
pub mod list_dummy;
pub mod list_lfrc;
pub mod value;

pub use array::ArrayDeque;
pub use list::ListDeque;
pub use list_dummy::DummyListDeque;
pub use list_lfrc::LfrcListDeque;
pub use value::{Boxed, TraceId, WordValue};

// The default lock-free DCAS emulation and its observability, re-exported
// so deque users need not depend on the `dcas` crate directly.
pub use dcas::{HarrisMcas, StrategyStats};

/// Maximum number of elements a batched deque operation moves in **one**
/// atomic transition.
///
/// The batched operations ([`ConcurrentDeque::push_right_n`] and friends)
/// accept any number of elements but split them into chunks of at most
/// this many; each chunk commits with a single CASN built from the
/// [`dcas`] substrate, so the chunk's elements appear (or vanish)
/// together at one linearization point. The bound is set by
/// [`dcas::MAX_CASN_WORDS`]: the widest chunk CASN (a batched list pop)
/// needs `k + 3` words.
pub const MAX_BATCH: usize = 8;

/// The word constants the paper's algorithms distinguish from user values.
pub mod reserved {
    /// The distinguished "null" value (denoted `0` in the paper's figures).
    pub const NULL: u64 = 0;
    /// The left sentinel's distinguished value (`sentL`).
    pub const SENTL: u64 = 4;
    /// The right sentinel's distinguished value (`sentR`).
    pub const SENTR: u64 = 8;
    /// Smallest word an encoded user value may occupy; everything below is
    /// reserved.
    pub const MIN_VALUE: u64 = 16;
}

/// Error returned by push operations on a full bounded deque. Carries the
/// rejected value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct Full<T>(pub T);

impl<T> Full<T> {
    /// Recovers the value that could not be pushed.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> std::fmt::Display for Full<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deque is full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for Full<T> {}

/// Common interface over every deque in this workspace (the two paper
/// algorithms, the dummy-node variant, and the baseline comparators), used
/// by the stress harness, the work-stealing scheduler and the benches.
///
/// Push operations return `Err(Full(v))` when a bounded implementation is
/// at capacity (unbounded implementations never fail); pop operations
/// return `None` when the deque is observed empty.
pub trait ConcurrentDeque<T>: Send + Sync {
    /// Appends `v` at the right end.
    fn push_right(&self, v: T) -> Result<(), Full<T>>;
    /// Appends `v` at the left end.
    fn push_left(&self, v: T) -> Result<(), Full<T>>;
    /// Removes and returns the rightmost value, or `None` if empty.
    fn pop_right(&self) -> Option<T>;
    /// Removes and returns the leftmost value, or `None` if empty.
    fn pop_left(&self) -> Option<T>;
    /// Short implementation name for reporting.
    fn impl_name(&self) -> &'static str;

    /// Pushes every value of `vals` at the right end, in order — as if by
    /// repeated [`push_right`](Self::push_right) calls. On a full bounded
    /// deque the unpushed tail is handed back in `Full`.
    ///
    /// The default implementation is a per-element loop and therefore
    /// **not** atomic: concurrent operations may interleave between
    /// elements. The paper deques override it with chunk-atomic batches
    /// of up to [`MAX_BATCH`] elements per transition.
    fn push_right_n(&self, vals: Vec<T>) -> Result<(), Full<Vec<T>>> {
        push_each(vals, |v| self.push_right(v))
    }

    /// Pushes every value of `vals` at the left end, in order — as if by
    /// repeated [`push_left`](Self::push_left) calls (so the **last**
    /// element of `vals` ends up leftmost). Same atomicity caveats and
    /// overrides as [`push_right_n`](Self::push_right_n).
    fn push_left_n(&self, vals: Vec<T>) -> Result<(), Full<Vec<T>>> {
        push_each(vals, |v| self.push_left(v))
    }

    /// Removes up to `n` values from the right end, rightmost first — as
    /// if by repeated [`pop_right`](Self::pop_right) calls, stopping early
    /// when the deque is observed empty.
    ///
    /// The default implementation is a per-element loop; the paper deques
    /// override it with chunk-atomic batches.
    fn pop_right_n(&self, n: usize) -> Vec<T> {
        pop_each(n, || self.pop_right())
    }

    /// Removes up to `n` values from the left end, leftmost first — as if
    /// by repeated [`pop_left`](Self::pop_left) calls, stopping early when
    /// the deque is observed empty. Same atomicity caveats and overrides
    /// as [`pop_right_n`](Self::pop_right_n).
    fn pop_left_n(&self, n: usize) -> Vec<T> {
        pop_each(n, || self.pop_left())
    }
}

/// The per-element loop behind the default batch pushes: pushes `vals`
/// in order, handing back the unpushed tail on the first `Full`.
pub(crate) fn push_each<T>(
    vals: Vec<T>,
    push: impl Fn(T) -> Result<(), Full<T>>,
) -> Result<(), Full<Vec<T>>> {
    let mut it = vals.into_iter();
    while let Some(v) = it.next() {
        if let Err(Full(v)) = push(v) {
            let mut rest = vec![v];
            rest.extend(it);
            return Err(Full(rest));
        }
    }
    Ok(())
}

/// The per-element loop behind the default batch pops: up to `n` pops,
/// stopping at the first `None`.
pub(crate) fn pop_each<T>(n: usize, pop: impl Fn() -> Option<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        match pop() {
            Some(v) => out.push(v),
            None => break,
        }
    }
    out
}
