//! The *dummy-node* variant of the linked-list deque (footnote 4 and
//! Figure 10 of the paper).
//!
//! The published algorithm packs a **deleted bit** into each sentinel's
//! inward pointer word. The paper notes that "one can altogether eliminate
//! the need for a 'deleted' bit by introducing a special dummy type
//! 'delete-bit' node, distinguishable from regular nodes, in place of the
//! bit ... pointing to a node indirectly via its dummy node represents a
//! bit value of true, and pointing directly represents false."
//!
//! This module implements that variant:
//!
//! * A *dummy* node is an ordinary `Node` whose value word holds the
//!   distinguished `DUMMY` constant and whose `l` field holds the real
//!   target; regular nodes can never hold `DUMMY` as a value.
//! * A sentinel pointer word therefore needs no spare bits at all — a
//!   useful property on machines without alignment to spare, which is the
//!   footnote's motivation.
//! * The paper suggests each processor reuses two preallocated dummies;
//!   we instead allocate a fresh dummy per logical deletion and retire it
//!   at physical deletion. Reuse would re-introduce an ABA window on the
//!   sentinel word (two deletions of different nodes through the same
//!   dummy produce identical words), which the footnote does not address;
//!   fresh allocation sidesteps it and is what a GC-hosted implementation
//!   would do anyway. The cost is one extra allocation per pop, measured
//!   against the deleted-bit variant in bench `e5_array_vs_list`.
//!
//! # The policy hooks
//!
//! The deque runs the one Figure 11–17 body of [`list`](crate::list)
//! under this module's link policy, which implements:
//!
//! * `load`: a sentinel word is resolved through at most one dummy,
//!   with the word's node protected at one hazard slot and the dummy's
//!   target at the next;
//! * `mark`: a fresh dummy naming the victim, freed again if the
//!   logical-deletion DCAS fails;
//! * `unlinked`: a winning splice retires each node it unlinks together
//!   with the dummy that marked it.
//!
//! A dummy's target is always its `l` word, whichever end made it.

use dcas::{DcasStrategy, DcasWord, HarrisMcas, NodePool, ReclaimGuard};

use crate::end::End;
use crate::list::{
    alloc_node, pack, ptr_of, At, GuardOf, Link, LinkPolicy, ListDeque, ListLayout, Mark, Node,
    RawListDeque,
};
use crate::value::WordValue;

#[cfg(test)]
mod tests;

/// The distinguished value marking a dummy "delete-bit" node.
const DUMMY: u64 = 12;

mod policy {
    /// The dummy-node link policy (footnote 4, Figure 10).
    #[derive(Default)]
    pub struct Dummy;

    /// An unpublished dummy node, freed on drop unless the logical-deletion
    /// DCAS published it. Covers both the ordinary retry path (the DCAS
    /// lost a race) and an unwinding strategy call.
    pub struct PendingDummy {
        pub(super) node: *const super::Node<Dummy>,
    }
}
pub(crate) use policy::{Dummy, PendingDummy};

/// Page pool for this module's nodes and dummies (sentinels stay boxed).
static NODE_POOL: NodePool = NodePool::new("list_dummy", std::mem::size_of::<Node<Dummy>>(), 16);

/// This module's node page pool (read-only; for allocator gauges).
pub fn node_pool() -> &'static NodePool {
    &NODE_POOL
}

/// Quiescent structural snapshot (see the deleted-bit variant's
/// [`ListLayout`] for field meanings); dummies are resolved away.
pub type DummyLayout = ListLayout;

/// Word-level dummy-node deque; use [`DummyListDeque`] for arbitrary
/// element types.
pub type RawDummyListDeque<V, S> = RawListDeque<V, S, Dummy>;

/// The dummy-node ("delete-bit"-free) unbounded deque variant of the
/// paper's footnote 4 / Figure 10, for arbitrary element types.
pub type DummyListDeque<T, S = HarrisMcas> = ListDeque<T, S, Dummy>;

impl Mark for PendingDummy {
    fn word(&self) -> u64 {
        pack(self.node, false)
    }

    fn published(self) {
        std::mem::forget(self);
    }
}

impl Drop for PendingDummy {
    fn drop(&mut self) {
        // SAFETY: unpublished, uniquely owned; dummies hold no value.
        unsafe { Dummy::free(self.node as *mut u8) };
    }
}

/// Allocates a dummy node indirecting to `target` (Figure 10).
fn make_dummy(target: *const Node<Dummy>) -> PendingDummy {
    let d = alloc_node(&Dummy);
    // SAFETY: unpublished.
    unsafe {
        (*d).value.init_store(DUMMY);
        (*d).l.init_store(pack(target, false));
    }
    PendingDummy { node: d }
}

impl<V: WordValue, S: DcasStrategy> RawListDeque<V, S, Dummy> {
    /// Loads and resolves a sentinel pointer word: a word aiming at a
    /// dummy node represents (target, deleted = true). Leaves the node
    /// the word names protected at `slot` and (through a dummy) the real
    /// target at `slot + 1`. Both announcements validate against a
    /// re-read of `src`: the word names a node/dummy pair only until
    /// the splice that retires them rewrites it (and retired nodes are
    /// never relinked), and a dummy's target word is immutable, so an
    /// unchanged sentinel proves both announces landed while the pair
    /// was live.
    fn load_resolved(&self, g: &GuardOf<S>, src: &DcasWord, slot: usize) -> Link<Dummy> {
        loop {
            let w = self.strategy.load(src);
            let n = ptr_of::<Node<Dummy>>(w);
            if Self::NP {
                g.protect(slot, n as u64);
                if self.strategy.load(src) != w {
                    continue;
                }
            }
            // SAFETY: `n` is protected (or epoch-pinned).
            if self.strategy.load(unsafe { &(*n).value }) == DUMMY {
                // SAFETY: as above; dummy targets are immutable.
                let real = ptr_of(self.strategy.load(unsafe { &(*n).l }));
                if Self::NP {
                    g.protect(slot + 1, real as u64);
                    if self.strategy.load(src) != w {
                        g.clear(slot + 1);
                        continue;
                    }
                }
                return Link { w, node: real, deleted: true };
            }
            return Link::of(w);
        }
    }
}

impl LinkPolicy for Dummy {
    const NAME: &'static str = "list-dummy-dcas";
    type Extra = ();
    type Mark = PendingDummy;

    fn pool() -> &'static NodePool {
        &NODE_POOL
    }

    #[inline]
    fn load<V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        src: &DcasWord,
        at: At,
    ) -> Link<Self> {
        match at {
            At::Near => d.load_resolved(g, src, 0),
            At::Far => d.load_resolved(g, src, 3),
            // A link word never names a dummy.
            At::Neighbour => Link::of(d.strategy.load(src)),
        }
    }

    #[inline]
    fn load_inward<V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        src: &DcasWord,
        end: &DcasWord,
        old: u64,
    ) -> Option<Link<Self>> {
        d.load_validated(g, src, end, old, 2)
    }

    fn peek<V: WordValue, S: DcasStrategy>(d: &RawListDeque<V, S, Self>, w: u64) -> Link<Self> {
        let n = ptr_of::<Node<Dummy>>(w);
        // SAFETY: quiescent; dummy nodes are immutable after publication.
        if d.strategy.load(unsafe { &(*n).value }) == DUMMY {
            let real = ptr_of(d.strategy.load(unsafe { &(*n).l }));
            return Link { w, node: real, deleted: true };
        }
        Link::of(w)
    }

    #[inline]
    fn mark(&self, cur: *const Node<Self>) -> PendingDummy {
        make_dummy(cur)
    }

    #[inline]
    unsafe fn unlinked<E: End, V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        old: &Link<Self>,
        far: Option<&Link<Self>>,
    ) {
        // SAFETY: forwarded caller contract: each node went out with the
        // dummy that marked it.
        unsafe {
            d.retire(old.node, g);
            d.retire(ptr_of(old.w), g);
            if let Some(far) = far {
                d.retire(far.node, g);
                d.retire(ptr_of(far.w), g);
            }
        }
    }
}
