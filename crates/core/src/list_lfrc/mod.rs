//! The linked-list deque transformed to run **without a garbage
//! collector**, via DCAS-based lock-free reference counting (LFRC).
//!
//! The paper notes (Section 1.1): "we have also shown how these
//! algorithms can be transformed into equivalent ones that do not depend
//! on garbage collection, using our Lock-Free Reference Counting (LFRC)
//! methodology \[12\]" (Detlefs, Martin, Moir & Steele, PODC 2001). This
//! module carries out that transformation on the Section 4 deque —
//! fittingly, LFRC is itself built on DCAS, so the whole stack still
//! bottoms out in the one primitive the paper studies.
//!
//! # The methodology, as applied here
//!
//! Every node carries a reference count (`rc`) that tallies (a) shared
//! pointer slots targeting the node (sentinel inward words and neighbor
//! link fields) and (b) live local references held by in-flight
//! operations.
//!
//! * **`load_ptr` (LFRCLoad)** — reading a pointer slot acquires a local
//!   reference with one DCAS: `DCAS(slot, &target.rc, w, rc, w, rc+1)`
//!   succeeds only if the slot *still* points at the target, which
//!   guarantees the target is alive (the slot itself holds a counted
//!   reference).
//! * **`release` (LFRCDestroy)** — dropping a reference decrements with a
//!   single CAS; the thread that takes the count to zero releases the
//!   node's own outgoing references (recursively) and retires the node.
//! * **DCASes that overwrite pointer slots** pre-increment the counts of
//!   the new targets and, on success, decrement those of the overwritten
//!   targets (LFRCDCAS).
//!
//! ABA safety without epochs: a node is recycled only when its count is
//! zero, i.e. when no slot points at it **and** no operation holds a
//! local reference — and every DCAS expectation in the algorithm is a
//! word obtained from `load_ptr` whose reference is still held at DCAS
//! time.
//!
//! # Where the pluggable [`Reclaimer`](dcas::Reclaimer) comes in
//!
//! LFRC decides *when* a node is dead (count zero) without any epoch or
//! hazard machinery — but `load_ptr` performs one **speculative** read
//! of the candidate's count word before its validating DCAS, and that
//! read must land on mapped memory even if the node just died. Dead
//! nodes are therefore retired on the operation's guard and freed after
//! the grace period (epoch backend) or hazard drain (hazard backend,
//! where `load_ptr` announces and revalidates the candidate before the
//! speculative read). The backend covers exactly that one-window
//! access; every other dereference rides on a counted reference.
//!
//! # The policy hooks
//!
//! The deque runs the one Figure 11–17 body of [`list`](crate::list)
//! under this module's link policy, which implements:
//!
//! * `load` as `load_ptr` (LFRCLoad), and `drop` as `release`
//!   (LFRCDestroy);
//! * `store` into the pushed node's inward link as a counted store;
//! * `dcas` as LFRCDCAS: count the new targets, then on success release
//!   the overwritten ones and on failure the new ones (the logical
//!   deletion and the identity DCAS keep their targets and stay plain);
//! * `unlinked`: nothing for a splice, whose counts free the node; after
//!   a two-null double splice, `break_cycle`.
//!
//! Compared with the deleted-bit [`ListDeque`], pops
//! and pushes execute extra count-maintenance CASes (measured in bench
//! `e5_array_vs_list` and the `boundary_cases` example); the payoff is
//! that reclamation *decisions* are immediate and deterministic — the
//! paper's footnote 2 caveat, discharged. Nodes come from this
//! module's page pool ([`node_pool`]), like the other linked deques'.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dcas::{DcasStrategy, DcasWord, HarrisMcas, NodePool, ReclaimGuard};

use crate::end::End;
use crate::list::{pack, ptr_of, At, GuardOf, Link, LinkPolicy, ListDeque, Node, RawListDeque};
use crate::reserved::NULL;
use crate::value::WordValue;

#[cfg(test)]
mod tests;

/// Hazard slot used by `load_ptr` for the speculative count-word access.
/// Only one slot is ever live: every other dereference is backed by a
/// counted reference, which blocks retirement outright.
const SLOT_LOAD: usize = 0;

/// Per-deque allocation audit. Every live (not yet freed) node holds
/// one `Arc` reference, so `Arc::strong_count - 1` *is* the
/// outstanding-node gauge — and keeps the audit block alive for
/// retire dtors that run after the deque itself is dropped.
struct NodeAudit {
    /// Total nodes this deque ever allocated.
    allocated: AtomicU64,
}

mod policy {
    use std::sync::Arc;

    use dcas::DcasWord;

    /// The LFRC link policy; its state is the deque's audit block.
    pub struct Lfrc {
        pub(super) audit: Arc<super::NodeAudit>,
    }

    /// The two words an LFRC node carries beyond the shared four.
    pub struct Counted {
        /// Reference count, stored shifted left by two (payload contract).
        pub(super) rc: DcasWord,
        /// Raw `Arc<NodeAudit>` handle, released when the node is freed.
        pub(super) audit: *const super::NodeAudit,
    }
}
pub(crate) use policy::{Counted, Lfrc};

impl Default for Lfrc {
    fn default() -> Self {
        Lfrc { audit: Arc::new(NodeAudit { allocated: AtomicU64::new(0) }) }
    }
}

impl Default for Counted {
    fn default() -> Self {
        Counted { rc: DcasWord::new(0), audit: std::ptr::null() }
    }
}

/// Page pool for this module's nodes (sentinels stay boxed).
static NODE_POOL: NodePool = NodePool::new("list_lfrc", std::mem::size_of::<Node<Lfrc>>(), 16);

/// This module's node page pool (read-only; for allocator gauges).
pub fn node_pool() -> &'static NodePool {
    &NODE_POOL
}

/// One reference, in the shifted encoding.
const ONE: u64 = 4;

/// Words a `release` cascade holds inline before it spills to the heap.
/// A cascade grows by one word per node it frees (two links pushed, one
/// word popped), so only a chain of more than this many nodes dying at
/// once spills.
const CASCADE_INLINE: usize = 16;

/// The LIFO work list of a `release` cascade: an inline stack that
/// spills to a `Vec` only when a cascade outgrows it. The spill is
/// empty whenever the inline part has room, so spilled words are newer
/// than every inline one and popping the spill first keeps the order
/// LIFO.
struct Cascade {
    inline: [u64; CASCADE_INLINE],
    len: usize,
    spill: Vec<u64>,
}

impl Cascade {
    fn push(&mut self, w: u64) {
        if self.len < CASCADE_INLINE {
            self.inline[self.len] = w;
            self.len += 1;
        } else {
            self.spill.push(w);
        }
    }

    fn pop(&mut self) -> Option<u64> {
        if let Some(w) = self.spill.pop() {
            return Some(w);
        }
        self.len = self.len.checked_sub(1)?;
        Some(self.inline[self.len])
    }
}

/// Diagnostics snapshot of the census and the reclamation audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfrcStats {
    /// Nodes currently linked in the deque (including logically deleted).
    pub linked: usize,
    /// Total nodes ever allocated by this deque.
    pub allocated: u64,
    /// Nodes allocated but not yet freed: linked nodes plus retirements
    /// the backend has not drained yet. Zero after drain + flush means
    /// the drop-count audit balances.
    pub outstanding: u64,
}

/// Word-level LFRC deque; use [`LfrcListDeque`] for arbitrary element
/// types.
pub type RawLfrcListDeque<V, S> = RawListDeque<V, S, Lfrc>;

/// The GC-free unbounded deque: Section 4's algorithm under the LFRC
/// transformation, for arbitrary element types.
pub type LfrcListDeque<T, S = HarrisMcas> = ListDeque<T, S, Lfrc>;

impl<V: WordValue, S: DcasStrategy> RawListDeque<V, S, Lfrc> {
    /// Sentinels are owned by the deque and never counted.
    #[inline]
    fn is_sentinel(&self, n: *const Node<Lfrc>) -> bool {
        n == self.slp() || n == self.srp()
    }

    /// LFRC *addToRC*: takes one additional reference to the target of
    /// `w`. The caller must already hold a reference to that target (or
    /// it must be a sentinel).
    fn add_ref(&self, w: u64) {
        let n = ptr_of::<Node<Lfrc>>(w);
        if n.is_null() || self.is_sentinel(n) {
            return;
        }
        loop {
            // SAFETY: caller holds a reference, so `n` is alive.
            let rc = self.strategy.load(unsafe { &(*n).extra.rc });
            debug_assert!(rc >= ONE);
            if self.strategy.cas(unsafe { &(*n).extra.rc }, rc, rc + ONE) {
                return;
            }
        }
    }

    /// LFRC *LFRCDestroy*: drops one reference to the target of `w`; the
    /// dropper of the last reference releases the node's outgoing links
    /// and retires it on `g` (freed after the backend's grace period).
    fn release(&self, g: &GuardOf<S>, w: u64) {
        let mut stack = Cascade { inline: [w; CASCADE_INLINE], len: 1, spill: Vec::new() };
        while let Some(w) = stack.pop() {
            let n = ptr_of::<Node<Lfrc>>(w);
            if n.is_null() || self.is_sentinel(n) {
                continue;
            }
            loop {
                // SAFETY: the reference being dropped keeps `n` alive
                // until the CAS below commits the decrement.
                let rc = self.strategy.load(unsafe { &(*n).extra.rc });
                debug_assert!(rc >= ONE, "reference-count underflow");
                if self.strategy.cas(unsafe { &(*n).extra.rc }, rc, rc - ONE) {
                    if rc == ONE {
                        // Last reference: no slot points here and no
                        // operation holds it. Release children, retire.
                        // SAFETY: exclusive access now; stale `load_ptr`
                        // snoops of the count word are covered by their
                        // own guards until the dtor actually runs.
                        unsafe {
                            debug_assert_eq!(
                                (*n).value.unsync_load_shared(),
                                NULL,
                                "only logically deleted nodes can die"
                            );
                            stack.push((*n).l.unsync_load_shared());
                            stack.push((*n).r.unsync_load_shared());
                            g.retire(
                                n as *mut u8,
                                std::mem::size_of::<Node<Lfrc>>(),
                                Lfrc::free,
                            );
                        }
                    }
                    break;
                }
            }
        }
    }

    /// LFRC *LFRCLoad*: atomically reads pointer slot `a` and acquires a
    /// reference to its target. Returns the word read; the caller owns
    /// one reference to `ptr_of(word)` and must `release` it.
    ///
    /// The count-word access before the validating DCAS is speculative:
    /// the node may have died after `a` was read. The epoch backend
    /// covers it by pinning; the hazard backend announces the candidate
    /// at [`SLOT_LOAD`] and revalidates `a` first, and the DCAS then
    /// fails if the slot moved on. Once the DCAS lands, the acquired
    /// count itself blocks retirement, so the slot is cleared.
    ///
    /// # Safety
    ///
    /// `a` must be a live pointer slot of this deque (a sentinel inward
    /// word, or a link field of a node the caller holds a reference to).
    unsafe fn load_ptr(&self, g: &GuardOf<S>, a: &DcasWord) -> u64 {
        loop {
            let w = self.strategy.load(a);
            let n = ptr_of::<Node<Lfrc>>(w);
            if n.is_null() || self.is_sentinel(n) {
                return w;
            }
            if Self::NP {
                g.protect(SLOT_LOAD, n as u64);
                if self.strategy.load(a) != w {
                    // Announcement not validated: the slot moved on, so
                    // the hazard may have raced the scanner. Start over.
                    continue;
                }
            }
            // SAFETY: pinned (epoch) or announced-and-validated
            // (hazard) — the count word is readable even if `n` died.
            let rc = self.strategy.load(unsafe { &(*n).extra.rc });
            let ok = rc >= ONE
                && self
                    .strategy
                    .dcas(a, unsafe { &(*n).extra.rc }, w, rc, w, rc + ONE);
            if Self::NP {
                g.clear(SLOT_LOAD);
            }
            if ok {
                return w;
            }
        }
    }

    /// Breaks the mutual-reference cycle between the two null nodes a
    /// two-null double splice unlinks: retargets `left.r` (which points at
    /// `right`) and `right.l` (which points at `left`) to the sentinels,
    /// releasing the counted references those dead links held. Only the
    /// thread that won the double-splice DCAS calls this, and both nodes
    /// are already unreachable from the structure, so each link is
    /// rewritten at most once. The sentinels are always valid and
    /// uncounted, so stale readers, which revalidate with DCAS, are
    /// unharmed.
    fn break_cycle(&self, g: &GuardOf<S>, right: *const Node<Lfrc>, left: *const Node<Lfrc>) {
        // SAFETY: we hold references to both nodes (caller's locals).
        unsafe {
            let rl = self.strategy.load(&(*right).l);
            if ptr_of(rl) == left && self.strategy.cas(&(*right).l, rl, pack(self.slp(), false))
            {
                self.release(g, rl);
            }
            let lr = self.strategy.load(&(*left).r);
            if ptr_of(lr) == right && self.strategy.cas(&(*left).r, lr, pack(self.srp(), false))
            {
                self.release(g, lr);
            }
        }
    }

    /// Census and reclamation-audit diagnostics (quiescent).
    pub fn stats(&self) -> LfrcStats {
        LfrcStats {
            linked: self.layout().cells.len(),
            allocated: self.policy.audit.allocated.load(Ordering::Relaxed),
            // The deque's own handle is the `- 1`.
            outstanding: Arc::strong_count(&self.policy.audit) as u64 - 1,
        }
    }
}

impl<T: Send, S: DcasStrategy> ListDeque<T, S, Lfrc> {
    /// Census and reclamation-audit diagnostics.
    pub fn stats(&self) -> LfrcStats {
        self.raw.stats()
    }
}

impl LinkPolicy for Lfrc {
    const NAME: &'static str = "list-lfrc-dcas";
    type Extra = Counted;
    type Mark = u64;

    fn pool() -> &'static NodePool {
        &NODE_POOL
    }

    /// Counts the node's creator as its first reference and gives the
    /// node a strong audit reference.
    fn init_node(&self, n: *mut Node<Self>) {
        self.audit.allocated.fetch_add(1, Ordering::Relaxed);
        // SAFETY: unpublished; `audit` is a plain field never read by
        // in-flight validators.
        unsafe {
            (*n).extra.rc.init_store(ONE);
            (*n).extra.audit = Arc::into_raw(Arc::clone(&self.audit));
        }
    }

    /// Frees a dead node: runs as the retire dtor (on any thread,
    /// possibly after the deque is gone) and from teardown for nodes
    /// still linked. The audit backlink is read out *before* the slot
    /// returns to the pool (a recycler may overwrite it immediately).
    unsafe fn free(p: *mut u8) {
        // SAFETY: per the function contract; exclusive access until dealloc.
        let audit = unsafe { (*p.cast::<Node<Lfrc>>()).extra.audit };
        // SAFETY: `p` came from the node pool; runs once, post-scan.
        unsafe { NodePool::dealloc(p) };
        // SAFETY: `audit` holds the strong reference `init_node` leaked.
        unsafe { drop(Arc::from_raw(audit)) };
    }

    #[inline]
    fn load<V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        src: &DcasWord,
        _at: At,
    ) -> Link<Self> {
        // SAFETY: the body loads only sentinel words and links of nodes
        // it holds a reference to.
        Link::of(unsafe { d.load_ptr(g, src) })
    }

    #[inline]
    fn load_inward<V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        src: &DcasWord,
        _end: &DcasWord,
        _old: u64,
    ) -> Option<Link<Self>> {
        Some(Self::load(d, g, src, At::Neighbour))
    }

    #[inline]
    fn mark(&self, cur: *const Node<Self>) -> u64 {
        // The end word keeps targeting `cur`: no count changes.
        pack(cur, true)
    }

    #[inline]
    fn dcas<V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        a: (&DcasWord, &DcasWord),
        old: (u64, u64),
        new: (u64, u64),
        unlinked: impl FnOnce(),
    ) -> bool {
        d.add_ref(new.0);
        d.add_ref(new.1);
        if d.strategy.dcas(a.0, a.1, old.0, old.1, new.0, new.1) {
            unlinked();
            d.release(g, old.0);
            d.release(g, old.1);
            true
        } else {
            d.release(g, new.0);
            d.release(g, new.1);
            false
        }
    }

    #[inline]
    fn store<V: WordValue, S: DcasStrategy>(d: &RawListDeque<V, S, Self>, slot: &DcasWord, w: u64) {
        d.add_ref(w);
        slot.init_store(w);
    }

    #[inline]
    fn drop<V: WordValue, S: DcasStrategy>(d: &RawListDeque<V, S, Self>, g: &GuardOf<S>, w: u64) {
        d.release(g, w);
    }

    /// A splice frees nothing here (the counts do); the two-null double
    /// splice leaves the two unlinked null nodes referencing each other,
    /// a dead cycle that counting cannot reclaim, so it breaks the cycle.
    unsafe fn unlinked<E: End, V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        old: &Link<Self>,
        far: Option<&Link<Self>>,
    ) {
        // `old.node` is the right node at `Right`, the left one at `Left`.
        if let Some(far) = far {
            d.break_cycle(g, E::near(far.node, old.node), E::far(far.node, old.node));
        }
    }
}
