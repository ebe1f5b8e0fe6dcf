//! The two ends of a deque as types, so that one operation body serves
//! both.
//!
//! The paper prints every left-end operation as a listing of its own
//! that mirrors a right-end one: Figures 30–31 mirror Figures 2–3 (the
//! array) and Figures 32–34 mirror Figures 11, 13 and 17 (the list).
//! Two of its known errata are slips made in that mirroring (DESIGN.md,
//! "Known errata"). Here each operation is written once, generic over
//! an [`End`], and what differs between the ends is read off the end
//! type. [`Left`] and [`Right`] are zero-sized and every choice below is
//! a constant, so each end still compiles to its own straight-line code.

use dcas::DcasWord;

use crate::reserved::{SENTL, SENTR};

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Left {}
    impl Sealed for super::Right {}
}

/// A node with a left and a right link word.
pub trait Links {
    /// The `(l, r)` link words.
    fn links(&self) -> (&DcasWord, &DcasWord);
}

/// One end of a deque. Sealed: [`Left`] and [`Right`] are the only ends.
pub trait End: sealed::Sealed + 'static {
    /// `true` at [`Right`].
    const RIGHT: bool;
    /// The far sentinel's value, which a pop at this end reads when the
    /// deque is empty (`SENTL` at `Right`).
    const FAR_SENT: u64;

    /// This end's member of a `(left, right)` pair: its sentinel, its
    /// index word.
    #[inline(always)]
    fn near<T>(left: T, right: T) -> T {
        if Self::RIGHT {
            right
        } else {
            left
        }
    }

    /// The other member of a `(left, right)` pair: the opposite
    /// sentinel.
    #[inline(always)]
    fn far<T>(left: T, right: T) -> T {
        Self::near(right, left)
    }

    /// `n`'s link toward this end (`r` at `Right`).
    #[inline(always)]
    fn outward<N: Links>(n: &N) -> &DcasWord {
        let (l, r) = n.links();
        Self::near(l, r)
    }

    /// `n`'s link away from this end (`l` at `Right`).
    #[inline(always)]
    fn inward<N: Links>(n: &N) -> &DcasWord {
        let (l, r) = n.links();
        Self::far(l, r)
    }

    /// Ring index `n` cells from `i` toward this end (the array's
    /// `add1` at `Right`, `sub1` at `Left`), for `n <= len`.
    #[inline(always)]
    fn step_out(i: usize, n: usize, len: usize) -> usize {
        if Self::RIGHT {
            (i + n) % len
        } else {
            (i + len - n) % len
        }
    }

    /// Ring index `n` cells from `i` away from this end (`sub1` at
    /// `Right`), for `n <= len`.
    #[inline(always)]
    fn step_in(i: usize, n: usize, len: usize) -> usize {
        if Self::RIGHT {
            (i + len - n) % len
        } else {
            (i + n) % len
        }
    }
}

/// The left end (`L`, `SL`).
pub(crate) struct Left;

/// The right end (`R`, `SR`).
pub(crate) struct Right;

impl End for Left {
    const RIGHT: bool = false;
    const FAR_SENT: u64 = SENTR;
}

impl End for Right {
    const RIGHT: bool = true;
    const FAR_SENT: u64 = SENTL;
}
