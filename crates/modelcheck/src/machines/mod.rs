//! Step-machine encodings of the paper's algorithms.
//!
//! Each machine re-expresses one algorithm with explicit program counters
//! at the granularity of **shared-memory accesses**: every atomic read of
//! a shared word and every DCAS is one step (local computation rides along
//! with the access that feeds it, exactly as in the paper's model, where
//! only `Read`, `Write` and `DCAS` are machine operations). Program
//! counters are named after the line numbers of the paper's figures so
//! the encodings can be audited against the listings.

pub mod abp;
pub mod array;
pub mod chaselev;
pub mod dummy;
pub mod greenwald;
pub mod lfrc;
pub mod list;

use dcas_linearize::DequeOp;

pub use abp::AbpMachine;
pub use array::ArrayMachine;
pub use chaselev::ChaseLevMachine;
pub use dummy::DummyMachine;
pub use greenwald::GreenwaldMachine;
pub use lfrc::LfrcMachine;
pub use list::ListMachine;

/// Which end an operation works on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The right end (`R`).
    Right,
    /// The left end (`L`).
    Left,
}

/// A pointer word of the list machines: (arena index, deleted bit).
pub type PtrW = (usize, bool);

/// A modeled list node's two link words, as `(l, r)`.
pub(crate) trait Linked {
    /// The `(l, r)` link words.
    fn links(&self) -> (PtrW, PtrW);
    /// The `(l, r)` link words, for writing.
    fn links_mut(&mut self) -> (&mut PtrW, &mut PtrW);
}

/// Arena index of the left sentinel in the list machines.
pub(crate) const SL: usize = 0;
/// Arena index of the right sentinel.
pub(crate) const SR: usize = 1;

impl Side {
    /// The end `op` works on.
    pub(crate) fn of(op: DequeOp) -> Side {
        match op {
            DequeOp::PushRight(_) | DequeOp::PopRight => Side::Right,
            DequeOp::PushLeft(_) | DequeOp::PopLeft => Side::Left,
            // The exhaustive machines model per-element transitions only;
            // batched chunk CASNs are covered by the linearizability
            // stress tests (scripts here never contain them).
            _ => panic!("batched ops are not modelled"),
        }
    }

    /// The opposite end.
    pub(crate) fn other(self) -> Side {
        match self {
            Side::Right => Side::Left,
            Side::Left => Side::Right,
        }
    }

    /// The sentinel this end's operations work at (`SR` for right ops).
    pub(crate) fn sent(self) -> usize {
        match self {
            Side::Right => SR,
            Side::Left => SL,
        }
    }

    /// The sentinel at the opposite end.
    pub(crate) fn other_sent(self) -> usize {
        self.other().sent()
    }

    // The link vocabulary of `dcas-deque`'s `End`, so that the list
    // machines' steps read like the deque body they model.

    /// This end's member of an `(l, r)` pair (`r` at `Right`).
    fn near<T>(self, l: T, r: T) -> T {
        match self {
            Side::Right => r,
            Side::Left => l,
        }
    }

    /// `n`'s link toward this end (`r` at `Right`).
    pub(crate) fn outward<N: Linked>(self, n: &N) -> PtrW {
        let (l, r) = n.links();
        self.near(l, r)
    }

    /// `n`'s link away from this end (`l` at `Right`).
    pub(crate) fn inward<N: Linked>(self, n: &N) -> PtrW {
        self.other().outward(n)
    }

    /// Sets `n`'s link toward this end.
    pub(crate) fn set_outward<N: Linked>(self, n: &mut N, w: PtrW) {
        let (l, r) = n.links_mut();
        *self.near(l, r) = w;
    }

    /// Sets `n`'s link away from this end.
    pub(crate) fn set_inward<N: Linked>(self, n: &mut N, w: PtrW) {
        self.other().set_outward(n, w);
    }

    /// This end's sentinel's inward word (`SR->L` at `Right`).
    pub(crate) fn sent_inward<N: Linked>(self, nodes: &[N]) -> PtrW {
        self.inward(&nodes[self.sent()])
    }

    /// Sets this end's sentinel's inward word.
    pub(crate) fn set_sent_inward<N: Linked>(self, nodes: &mut [N], w: PtrW) {
        self.set_inward(&mut nodes[self.sent()], w);
    }
}
