//! Baseline deque implementations the paper's algorithms are measured
//! against.
//!
//! * [`MutexDeque`] — `VecDeque` behind a `parking_lot` mutex: the
//!   blocking comparator.
//! * [`AbpDeque`] — the CAS-only work-stealing deque of Arora, Blumofe &
//!   Plaxton (the paper's reference \[4\]): one end restricted to a single
//!   owner, the other to pops only. The paper cites it as the elegant
//!   special case its general deques relax.
//! * [`GreenwaldDeque`] — a deque in the style of Greenwald's first
//!   algorithm (PhD thesis pp. 196–197, discussed in the paper's
//!   Section 1.1): both end indices packed into **one** memory word, so a
//!   two-word DCAS acts like a three-word operation. It is correct, but
//!   every operation — on either end — contends on the shared index word,
//!   which is precisely the drawback the paper's algorithms remove
//!   (`tests/cross_end_interference.rs` counts it).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod abp;
pub mod greenwald;
pub mod locked;

pub use abp::{AbpDeque, Steal};
pub use greenwald::{GreenwaldDeque, RawGreenwaldDeque};
pub use locked::MutexDeque;
