//! Software emulations of the **double compare-and-swap** (DCAS) primitive.
//!
//! The SPAA 2000 paper *DCAS-Based Concurrent Deques* (Agesen, Detlefs,
//! Flood, Garthwaite, Martin, Moir, Shavit, Steele) assumes a machine
//! operation `DCAS(a1, a2, o1, o2, n1, n2)` that atomically compares two
//! independent memory words against expected values and, if both match,
//! writes two new values. The hardware the paper anticipated never shipped,
//! so this crate provides the substitute the paper itself sanctions
//! (Section 2.1): DCAS "through hardware support, through a non-blocking
//! software emulation, or via a blocking software emulation".
//!
//! Two interchangeable strategies implement the [`DcasStrategy`] trait,
//! one from each family the paper allows:
//!
//! * [`GlobalLock`] — the blocking emulation: one process-wide mutex
//!   serializes every DCAS (cf. Agesen & Cartwright's
//!   platform-independent DCAS patent, reference \[2\] of the paper).
//! * [`HarrisMcas`] — a genuinely **lock-free** emulation built from
//!   single-word CAS using RDCSS + a two-entry CASN (after Harris, Fraser
//!   & Pratt, *A Practical Multi-Word Compare-and-Swap Operation*, DISC
//!   2002), with one reused descriptor per thread. Using this strategy,
//!   the deques in the companion crates are non-blocking end-to-end.
//!
//! Two forms of DCAS are provided, mirroring Figure 1 of the paper:
//! [`DcasStrategy::dcas`] returns only a success flag, while
//! [`DcasStrategy::dcas_strong`] additionally stores an **atomic view** of
//! the two locations into the caller's expected-value slots when the
//! comparison fails. The paper's array-based deque uses the strong form
//! only for one optimization (lines 17–18 of its Figure 2); the
//! [`DcasStrategy::HAS_CHEAP_STRONG`] constant lets clients gate that
//! optimization on whether the strong form is cheap for the chosen
//! strategy.
//!
//! # The reserved-bits contract
//!
//! Every value stored in a [`DcasWord`] must have its **low two bits
//! clear** (`value % 4 == 0`). The lock-free strategy marks words that
//! hold in-flight descriptor tags with those bits; the blocking strategy `debug_assert`s
//! the invariant so code written against one strategy is portable to the
//! other. See [`PAYLOAD_ALIGN`].
//!
//! # Example
//!
//! ```
//! use dcas::{DcasWord, DcasStrategy, HarrisMcas};
//!
//! let s = HarrisMcas::new();
//! let a = DcasWord::new(0);
//! let b = DcasWord::new(4);
//! // Swap both words atomically.
//! assert!(s.dcas(&a, &b, 0, 4, 8, 12));
//! assert_eq!(s.load(&a), 8);
//! assert_eq!(s.load(&b), 12);
//! // A stale expected value fails without modifying anything.
//! assert!(!s.dcas(&a, &b, 0, 4, 16, 20));
//! assert_eq!(s.load(&a), 8);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc;
mod backoff;
mod desc;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod global_lock;
mod mcas;
pub mod reclaim;
mod stats;
pub mod stripe;
mod strategy;
mod word;
mod wrappers;

/// Expands to a [`fault::hit`] call with the `fault-inject` feature on,
/// and to nothing at all otherwise — the release hot path carries no
/// trace of the hooks. The second argument asserts whether the
/// in-flight operation is still *effect-free* at this point (no state
/// published, no value ownership transferred); panic kills are only
/// delivered at effect-free hits.
macro_rules! fault_point {
    ($point:ident, $effect_free:expr) => {
        #[cfg(feature = "fault-inject")]
        $crate::fault::hit($crate::fault::FaultPoint::$point, $effect_free);
    };
}
pub(crate) use fault_point;

pub use alloc::NodePool;
pub use backoff::Backoff;
#[cfg(feature = "fault-inject")]
pub use fault::{FaultInjecting, FaultLog, FaultPlan, FaultPoint, Kill, KillKind, StallGate};
pub use global_lock::GlobalLock;
pub use desc::descriptor_slots;
pub use mcas::{HarrisMcas, HarrisMcasHazard};
pub use reclaim::hazard::HazardReclaimer;
pub use reclaim::{EpochReclaimer, ReclaimGuard, Reclaimer};
pub use stats::StrategyStats;
pub use strategy::{CasnEntry, DcasStrategy, MAX_CASN_WORDS};
pub use word::DcasWord;
pub use wrappers::{Counting, DcasStats, Yielding};

/// Number of low bits of every [`DcasWord`] payload reserved by the
/// substrate (used by [`HarrisMcas`] to tag words with descriptors).
pub const RESERVED_BITS: u32 = 2;

/// Required alignment of payload values: every stored/compared value must
/// be a multiple of this (equivalently, have [`RESERVED_BITS`] low zero
/// bits).
pub const PAYLOAD_ALIGN: u64 = 1 << RESERVED_BITS;

/// Returns `true` if `v` satisfies the payload contract (low two bits
/// clear).
#[inline]
pub const fn is_valid_payload(v: u64) -> bool {
    v & (PAYLOAD_ALIGN - 1) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_validity() {
        assert!(is_valid_payload(0));
        assert!(is_valid_payload(4));
        assert!(is_valid_payload(1 << 63));
        assert!(!is_valid_payload(1));
        assert!(!is_valid_payload(2));
        assert!(!is_valid_payload(3));
        assert!(!is_valid_payload(7));
    }
}
