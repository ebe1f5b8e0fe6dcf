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
//! # Where the pluggable [`Reclaimer`] comes in
//!
//! LFRC decides *when* a node is dead (count zero) without any epoch or
//! hazard machinery — but `load_ptr` performs one **speculative** read
//! of the candidate's count word before its validating DCAS, and that
//! read must land on mapped memory even if the node just died. The
//! original implementation bought this with a type-stable node pool
//! that never returned memory to the allocator while the deque lived.
//! This module now routes the end of a node's life through the
//! strategy's pluggable [`Reclaimer`] instead: dead nodes are retired
//! on the operation's guard and genuinely freed after the grace period
//! (epoch backend) or hazard drain (hazard backend, where `load_ptr`
//! announces and revalidates the candidate before the speculative
//! read). The backend covers exactly that one-window access; every
//! other dereference rides on a counted reference.
//!
//! Compared with the epoch-based [`ListDeque`](crate::ListDeque), pops
//! and pushes execute extra count-maintenance CASes (measured in bench
//! `e5_array_vs_list` and the `boundary_cases` example); the payoff is
//! that reclamation *decisions* are immediate and deterministic — the
//! paper's footnote 2 caveat, discharged. Nodes come from this
//! module's page pool ([`node_pool`]), like the other linked deques'.

// Nested `if`s mirror the paper's listing structure; do not collapse.
#![allow(clippy::collapsible_if)]

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use dcas::{DcasStrategy, DcasWord, HarrisMcas, NodePool, ReclaimGuard, Reclaimer};

use crate::reserved::{NULL, SENTL, SENTR};
use crate::value::{Boxed, WordValue};
use crate::{ConcurrentDeque, Full};

#[cfg(test)]
mod tests;

/// The reclaim guard type of a strategy's backend.
type GuardOf<S> = <<S as DcasStrategy>::Reclaimer as Reclaimer>::Guard;

/// Hazard slot used by [`RawLfrcListDeque::load_ptr`] for the
/// speculative count-word access. Only one slot is ever live: every
/// other dereference is backed by a counted reference, which blocks
/// retirement outright.
const SLOT_LOAD: usize = 0;

/// Per-deque allocation audit. Every live (not yet freed) node holds
/// one `Arc` reference, so `Arc::strong_count - 1` *is* the
/// outstanding-node gauge — and keeps the audit block alive for
/// retire dtors that run after the deque itself is dropped.
struct NodeAudit {
    /// Total nodes this deque ever allocated.
    allocated: AtomicU64,
}

/// A node: the paper's three words plus the LFRC reference count and
/// the audit backlink.
#[repr(align(16))]
pub(crate) struct Node {
    l: DcasWord,
    r: DcasWord,
    value: DcasWord,
    /// Reference count, stored shifted left by two (payload contract).
    rc: DcasWord,
    /// Raw `Arc<NodeAudit>` handle, released when the node is freed.
    audit: *const NodeAudit,
}

impl Node {
    pub(crate) fn new_blank() -> Node {
        Node {
            l: DcasWord::new(0),
            r: DcasWord::new(0),
            value: DcasWord::new(NULL),
            rc: DcasWord::new(0),
            audit: std::ptr::null(),
        }
    }
}

/// Frees a dead node: runs as the [`ReclaimGuard::retire`] dtor (on any
/// thread, possibly after the deque is gone) and from `Drop` for nodes
/// still linked at teardown. The audit backlink is read out *before*
/// the slot returns to the pool (a recycler may overwrite it
/// immediately).
///
/// # Safety
///
/// `p` must come from [`RawLfrcListDeque::alloc_node`] and be
/// unreachable; runs exactly once per node.
unsafe fn free_node(p: *mut u8) {
    // SAFETY: per the function contract; exclusive access until dealloc.
    let audit = unsafe { (*p.cast::<Node>()).audit };
    // SAFETY: `p` came from the node pool; runs once, post-scan.
    unsafe { NodePool::dealloc(p) };
    // SAFETY: `audit` holds the strong reference `alloc_node` leaked.
    unsafe { drop(Arc::from_raw(audit)) };
}

/// Page pool for this module's nodes (sentinels stay boxed).
static NODE_POOL: NodePool = NodePool::new("list_lfrc", std::mem::size_of::<Node>(), 16);

/// This module's node page pool (read-only; for allocator gauges).
pub fn node_pool() -> &'static NodePool {
    &NODE_POOL
}

const DELETED_BIT: u64 = 0b100;
/// One reference, in the shifted encoding.
const ONE: u64 = 4;

#[inline]
fn pack(ptr: *const Node, deleted: bool) -> u64 {
    let p = ptr as u64;
    debug_assert_eq!(p & 0xF, 0);
    p | if deleted { DELETED_BIT } else { 0 }
}

#[inline]
fn ptr_of(w: u64) -> *const Node {
    (w & !0xF) as *const Node
}

#[inline]
fn deleted_of(w: u64) -> bool {
    w & DELETED_BIT != 0
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
pub struct RawLfrcListDeque<V: WordValue, S: DcasStrategy> {
    strategy: S,
    audit: Arc<NodeAudit>,
    sl: Box<CachePadded<Node>>,
    sr: Box<CachePadded<Node>>,
    _marker: PhantomData<fn(V) -> V>,
}

// SAFETY: shared-word accesses go through the strategy; node lifetime is
// governed by the reference-counting protocol, with the speculative
// window covered by the strategy's reclaim guard.
unsafe impl<V: WordValue, S: DcasStrategy> Send for RawLfrcListDeque<V, S> {}
unsafe impl<V: WordValue, S: DcasStrategy> Sync for RawLfrcListDeque<V, S> {}

impl<V: WordValue, S: DcasStrategy> Default for RawLfrcListDeque<V, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: WordValue, S: DcasStrategy> RawLfrcListDeque<V, S> {
    /// Const-folds to `false` for the epoch backend, where pinning alone
    /// protects the speculative count-word read.
    const NP: bool = <GuardOf<S> as ReclaimGuard>::NEEDS_PROTECT;

    /// Creates an empty deque.
    pub fn new() -> Self {
        let sl = Box::new(CachePadded::new(Node::new_blank()));
        let sr = Box::new(CachePadded::new(Node::new_blank()));
        let slp: *const Node = &**sl as *const Node;
        let srp: *const Node = &**sr as *const Node;
        sl.value.init_store(SENTL);
        sr.value.init_store(SENTR);
        sl.r.init_store(pack(srp, false));
        sr.l.init_store(pack(slp, false));
        // Sentinels are owned by the deque and never reclaimed; their
        // counts are maintained uniformly but ignored.
        sl.rc.init_store(ONE);
        sr.rc.init_store(ONE);
        RawLfrcListDeque {
            strategy: S::default(),
            audit: Arc::new(NodeAudit { allocated: AtomicU64::new(0) }),
            sl,
            sr,
            _marker: PhantomData,
        }
    }

    #[inline]
    fn slp(&self) -> *const Node {
        &**self.sl as *const Node
    }

    #[inline]
    fn srp(&self) -> *const Node {
        &**self.sr as *const Node
    }

    #[inline]
    fn is_sentinel(&self, n: *const Node) -> bool {
        n == self.slp() || n == self.srp()
    }

    /// The DCAS strategy instance.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Allocates a blank node carrying a strong audit reference.
    fn alloc_node(&self) -> *mut Node {
        self.audit.allocated.fetch_add(1, Ordering::Relaxed);
        let n = NODE_POOL.alloc().cast::<Node>();
        // SAFETY: type-stable pool slot, reinitialized through the
        // atomic fields per the pool's quarantine contract; `audit` is a
        // plain field never read by in-flight validators. Unpublished.
        unsafe {
            (*n).l.init_store(0);
            (*n).r.init_store(0);
            (*n).value.init_store(NULL);
            (*n).rc.init_store(0);
            (*n).audit = Arc::into_raw(Arc::clone(&self.audit));
        }
        n
    }

    /// LFRC *addToRC*: takes one additional reference to the target of
    /// `w`. The caller must already hold a reference to that target (or
    /// it must be a sentinel).
    fn add_ref(&self, w: u64) {
        let n = ptr_of(w);
        if n.is_null() || self.is_sentinel(n) {
            return;
        }
        loop {
            // SAFETY: caller holds a reference, so `n` is alive.
            let rc = self.strategy.load(unsafe { &(*n).rc });
            debug_assert!(rc >= ONE);
            if self.strategy.cas(unsafe { &(*n).rc }, rc, rc + ONE) {
                return;
            }
        }
    }

    /// LFRC *LFRCDestroy*: drops one reference to the target of `w`; the
    /// dropper of the last reference releases the node's outgoing links
    /// and retires it on `g` (freed after the backend's grace period).
    fn release(&self, g: &GuardOf<S>, w: u64) {
        let mut stack = vec![w];
        while let Some(w) = stack.pop() {
            let n = ptr_of(w);
            if n.is_null() || self.is_sentinel(n) {
                continue;
            }
            loop {
                // SAFETY: the reference being dropped keeps `n` alive
                // until the CAS below commits the decrement.
                let rc = self.strategy.load(unsafe { &(*n).rc });
                debug_assert!(rc >= ONE, "reference-count underflow");
                if self.strategy.cas(unsafe { &(*n).rc }, rc, rc - ONE) {
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
                                n as *mut Node as *mut u8,
                                std::mem::size_of::<Node>(),
                                free_node,
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
            let n = ptr_of(w);
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
            let rc = self.strategy.load(unsafe { &(*n).rc });
            let ok = rc >= ONE
                && self
                    .strategy
                    .dcas(a, unsafe { &(*n).rc }, w, rc, w, rc + ONE);
            if Self::NP {
                g.clear(SLOT_LOAD);
            }
            if ok {
                return w;
            }
        }
    }

    /// `popRight`, LFRC-transformed.
    pub fn pop_right(&self) -> Option<V> {
        let g = S::Reclaimer::pin();
        loop {
            // SAFETY: the sentinel word is always live.
            let old_l = unsafe { self.load_ptr(&g, &self.sr.l) }; // ref: olp
            let olp = ptr_of(old_l);
            // SAFETY: reference held.
            let v = self.strategy.load(unsafe { &(*olp).value });
            if v == SENTL {
                self.release(&g, old_l);
                return None;
            }
            if deleted_of(old_l) {
                self.delete_right(&g);
                self.release(&g, old_l);
                continue;
            }
            if v == NULL {
                // Identity DCAS: no slot retargets, no count changes.
                // SAFETY: reference held.
                let ok = self.strategy.dcas(
                    &self.sr.l,
                    unsafe { &(*olp).value },
                    old_l,
                    v,
                    old_l,
                    v,
                );
                self.release(&g, old_l);
                if ok {
                    return None;
                }
                continue;
            }
            // Logical deletion: the sentinel slot keeps targeting `olp`
            // (only the deleted bit flips), so counts are unchanged.
            // SAFETY: reference held.
            let ok = self.strategy.dcas(
                &self.sr.l,
                unsafe { &(*olp).value },
                old_l,
                v,
                pack(olp, true),
                NULL,
            );
            self.release(&g, old_l);
            if ok {
                // SAFETY: the DCAS moved the value out; unique ownership.
                return Some(unsafe { V::decode(v) });
            }
        }
    }

    /// `pushRight`, LFRC-transformed.
    pub fn push_right(&self, v: V) -> Result<(), Full<V>> {
        let g = S::Reclaimer::pin();
        let node = self.alloc_node();
        let val = v.encode();
        // Creator's local reference.
        // SAFETY: fresh node, unpublished: exclusive access.
        unsafe { (*node).rc.init_store(ONE) };
        loop {
            // SAFETY: sentinel word.
            let old_l = unsafe { self.load_ptr(&g, &self.sr.l) }; // ref: olp
            if deleted_of(old_l) {
                self.delete_right(&g);
                self.release(&g, old_l);
                continue;
            }
            let olp = ptr_of(old_l);
            // SAFETY: unpublished node.
            unsafe {
                (*node).l.init_store(old_l);
                (*node).r.init_store(pack(self.srp(), false));
                (*node).value.init_store(val);
            }
            // Prospective new counted slots: SR->L -> node, olp.r -> node
            // (two refs to node) and node.l -> olp (one ref to olp).
            let nw = pack(node, false);
            self.add_ref(nw);
            self.add_ref(nw);
            self.add_ref(pack(olp, false));
            // SAFETY: reference to olp held.
            if self.strategy.dcas(
                &self.sr.l,
                unsafe { &(*olp).r },
                old_l,
                pack(self.srp(), false),
                nw,
                nw,
            ) {
                // Overwritten slots: SR->L targeted olp (release); olp.r
                // targeted SR (sentinel, no-op).
                self.release(&g, pack(olp, false));
                // Creator's local reference to the now-published node.
                self.release(&g, nw);
                self.release(&g, old_l);
                return Ok(());
            }
            // Undo the prospective counts and retry.
            self.release(&g, nw);
            self.release(&g, nw);
            self.release(&g, pack(olp, false));
            self.release(&g, old_l);
        }
    }

    /// `deleteRight`, LFRC-transformed.
    fn delete_right(&self, g: &GuardOf<S>) {
        loop {
            // SAFETY: sentinel word.
            let old_l = unsafe { self.load_ptr(g, &self.sr.l) }; // ref: olp
            if !deleted_of(old_l) {
                self.release(g, old_l);
                return;
            }
            let olp = ptr_of(old_l);
            // SAFETY: reference to olp held; its link field is live.
            let old_ll_w = unsafe { self.load_ptr(g, &(*olp).l) }; // ref: oll
            let oll = ptr_of(old_ll_w);
            // SAFETY: reference to oll held.
            let v = self.strategy.load(unsafe { &(*oll).value });
            if v != NULL {
                // SAFETY: reference to oll held.
                let old_llr = unsafe { self.load_ptr(g, &(*oll).r) }; // ref: t
                if ptr_of(old_llr) == olp {
                    // Splice: SR->L -> oll (new counted slot), oll.r -> SR
                    // (sentinel).
                    self.add_ref(pack(oll, false));
                    // SAFETY: references held.
                    if self.strategy.dcas(
                        &self.sr.l,
                        unsafe { &(*oll).r },
                        old_l,
                        old_llr,
                        pack(oll, false),
                        pack(self.srp(), false),
                    ) {
                        // Overwritten slots both targeted olp.
                        self.release(g, pack(olp, false));
                        self.release(g, pack(olp, false));
                        self.release(g, old_llr); // local (t == olp)
                        self.release(g, old_ll_w);
                        self.release(g, old_l);
                        return;
                    }
                    self.release(g, pack(oll, false)); // undo
                }
                self.release(g, old_llr);
                self.release(g, old_ll_w);
                self.release(g, old_l);
            } else {
                // Two null nodes: double splice toward the sentinels, once
                // `SL->R` names the null neighbour `oll` (DESIGN.md,
                // "Known errata").
                // SAFETY: sentinel word.
                let old_r = unsafe { self.load_ptr(g, &self.sl.r) }; // ref: orp
                let orp = ptr_of(old_r);
                if deleted_of(old_r) && orp == oll {
                    // New slot targets are both sentinels: no pre-counts.
                    if self.strategy.dcas(
                        &self.sr.l,
                        &self.sl.r,
                        old_l,
                        old_r,
                        pack(self.slp(), false),
                        pack(self.srp(), false),
                    ) {
                        // The two unlinked null nodes reference each other
                        // (olp.l -> orp, orp.r -> olp): a dead cycle that
                        // reference counting cannot reclaim. The winner
                        // breaks it by retargeting the dead links at the
                        // (always-valid, uncounted) sentinels — harmless
                        // for stale readers, which revalidate with DCAS.
                        self.break_cycle(g, olp, orp);
                        // Overwritten: SR->L targeted olp, SL->R targeted
                        // orp.
                        self.release(g, pack(olp, false));
                        self.release(g, pack(orp, false));
                        self.release(g, old_r);
                        self.release(g, old_ll_w);
                        self.release(g, old_l);
                        return;
                    }
                }
                self.release(g, old_r);
                self.release(g, old_ll_w);
                self.release(g, old_l);
            }
        }
    }

    /// Breaks the mutual-reference cycle between the two null nodes a
    /// two-null double splice unlinks: retargets `left.r` (which points at
    /// `right`) and `right.l` (which points at `left`) to the sentinels,
    /// releasing the counted references those dead links held. Only the
    /// thread that won the double-splice DCAS calls this, and both nodes
    /// are already unreachable from the structure, so each link is
    /// rewritten at most once.
    fn break_cycle(&self, g: &GuardOf<S>, right: *const Node, left: *const Node) {
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

    /// `popLeft`, LFRC-transformed (mirror of `pop_right`).
    pub fn pop_left(&self) -> Option<V> {
        let g = S::Reclaimer::pin();
        loop {
            // SAFETY: sentinel word.
            let old_r = unsafe { self.load_ptr(&g, &self.sl.r) }; // ref: orp
            let orp = ptr_of(old_r);
            // SAFETY: reference held.
            let v = self.strategy.load(unsafe { &(*orp).value });
            if v == SENTR {
                self.release(&g, old_r);
                return None;
            }
            if deleted_of(old_r) {
                self.delete_left(&g);
                self.release(&g, old_r);
                continue;
            }
            if v == NULL {
                // SAFETY: reference held.
                let ok = self.strategy.dcas(
                    &self.sl.r,
                    unsafe { &(*orp).value },
                    old_r,
                    v,
                    old_r,
                    v,
                );
                self.release(&g, old_r);
                if ok {
                    return None;
                }
                continue;
            }
            // SAFETY: reference held.
            let ok = self.strategy.dcas(
                &self.sl.r,
                unsafe { &(*orp).value },
                old_r,
                v,
                pack(orp, true),
                NULL,
            );
            self.release(&g, old_r);
            if ok {
                // SAFETY: unique ownership via the DCAS.
                return Some(unsafe { V::decode(v) });
            }
        }
    }

    /// `pushLeft`, LFRC-transformed (mirror of `push_right`).
    pub fn push_left(&self, v: V) -> Result<(), Full<V>> {
        let g = S::Reclaimer::pin();
        let node = self.alloc_node();
        let val = v.encode();
        // SAFETY: unpublished node.
        unsafe { (*node).rc.init_store(ONE) };
        loop {
            // SAFETY: sentinel word.
            let old_r = unsafe { self.load_ptr(&g, &self.sl.r) }; // ref: orp
            if deleted_of(old_r) {
                self.delete_left(&g);
                self.release(&g, old_r);
                continue;
            }
            let orp = ptr_of(old_r);
            // SAFETY: unpublished node.
            unsafe {
                (*node).r.init_store(old_r);
                (*node).l.init_store(pack(self.slp(), false));
                (*node).value.init_store(val);
            }
            let nw = pack(node, false);
            self.add_ref(nw);
            self.add_ref(nw);
            self.add_ref(pack(orp, false));
            // SAFETY: reference to orp held.
            if self.strategy.dcas(
                &self.sl.r,
                unsafe { &(*orp).l },
                old_r,
                pack(self.slp(), false),
                nw,
                nw,
            ) {
                self.release(&g, pack(orp, false));
                self.release(&g, nw);
                self.release(&g, old_r);
                return Ok(());
            }
            self.release(&g, nw);
            self.release(&g, nw);
            self.release(&g, pack(orp, false));
            self.release(&g, old_r);
        }
    }

    /// `deleteLeft`, LFRC-transformed (mirror of `delete_right`).
    fn delete_left(&self, g: &GuardOf<S>) {
        loop {
            // SAFETY: sentinel word.
            let old_r = unsafe { self.load_ptr(g, &self.sl.r) }; // ref: orp
            if !deleted_of(old_r) {
                self.release(g, old_r);
                return;
            }
            let orp = ptr_of(old_r);
            // SAFETY: reference held.
            let old_rr_w = unsafe { self.load_ptr(g, &(*orp).r) }; // ref: orr
            let orr = ptr_of(old_rr_w);
            // SAFETY: reference held.
            let v = self.strategy.load(unsafe { &(*orr).value });
            if v != NULL {
                // SAFETY: reference held.
                let old_rrl = unsafe { self.load_ptr(g, &(*orr).l) }; // ref: t
                if ptr_of(old_rrl) == orp {
                    self.add_ref(pack(orr, false));
                    // SAFETY: references held.
                    if self.strategy.dcas(
                        &self.sl.r,
                        unsafe { &(*orr).l },
                        old_r,
                        old_rrl,
                        pack(orr, false),
                        pack(self.slp(), false),
                    ) {
                        self.release(g, pack(orp, false));
                        self.release(g, pack(orp, false));
                        self.release(g, old_rrl);
                        self.release(g, old_rr_w);
                        self.release(g, old_r);
                        return;
                    }
                    self.release(g, pack(orr, false));
                }
                self.release(g, old_rrl);
                self.release(g, old_rr_w);
                self.release(g, old_r);
            } else {
                // SAFETY: sentinel word.
                let old_l = unsafe { self.load_ptr(g, &self.sr.l) }; // ref: olp
                let olp = ptr_of(old_l);
                // Mirror of `delete_right`'s two-null check.
                if deleted_of(old_l) && olp == orr {
                    if self.strategy.dcas(
                        &self.sl.r,
                        &self.sr.l,
                        old_r,
                        old_l,
                        pack(self.srp(), false),
                        pack(self.slp(), false),
                    ) {
                        self.break_cycle(g, olp, orp);
                        self.release(g, pack(orp, false));
                        self.release(g, pack(olp, false));
                        self.release(g, old_l);
                        self.release(g, old_rr_w);
                        self.release(g, old_r);
                        return;
                    }
                }
                self.release(g, old_l);
                self.release(g, old_rr_w);
                self.release(g, old_r);
            }
        }
    }

    /// Quiescent structural snapshot, comparable with
    /// [`ListLayout`](crate::list::ListLayout).
    pub fn layout(&self) -> crate::list::ListLayout {
        let mut cells = Vec::new();
        let mut cur = ptr_of(self.strategy.load(&self.sl.r));
        while cur != self.srp() {
            // SAFETY: quiescent per the method contract.
            let v = self.strategy.load(unsafe { &(*cur).value });
            cells.push((v != NULL).then_some(v));
            cur = ptr_of(self.strategy.load(unsafe { &(*cur).r }));
        }
        crate::list::ListLayout {
            cells,
            left_deleted: deleted_of(self.strategy.load(&self.sl.r)),
            right_deleted: deleted_of(self.strategy.load(&self.sr.l)),
        }
    }

    /// Census and reclamation-audit diagnostics (quiescent).
    pub fn stats(&self) -> LfrcStats {
        LfrcStats {
            linked: self.layout().cells.len(),
            allocated: self.audit.allocated.load(Ordering::Relaxed),
            // The deque's own handle is the `- 1`.
            outstanding: Arc::strong_count(&self.audit) as u64 - 1,
        }
    }
}

impl<V: WordValue, S: DcasStrategy> Drop for RawLfrcListDeque<V, S> {
    fn drop(&mut self) {
        // Exclusive access: free still-linked nodes (and their values)
        // directly. Nodes already dead went through `retire` and are
        // freed by the backend — their dtors only touch the pool slot
        // and the `Arc`-kept audit block, both of which outlive us.
        // SAFETY: quiescence.
        unsafe {
            let mut cur = ptr_of(self.sl.r.unsync_load_shared());
            while cur != self.srp() {
                let next = ptr_of((*cur).r.unsync_load_shared());
                let v = (*cur).value.unsync_load_shared();
                if v != NULL {
                    V::drop_encoded(v);
                }
                free_node(cur as *mut Node as *mut u8);
                cur = next;
            }
        }
    }
}

/// The GC-free unbounded deque: Section 4's algorithm under the LFRC
/// transformation, for arbitrary element types.
pub struct LfrcListDeque<T: Send, S: DcasStrategy = HarrisMcas> {
    raw: RawLfrcListDeque<Boxed<T>, S>,
}

impl<T: Send, S: DcasStrategy> Default for LfrcListDeque<T, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send, S: DcasStrategy> LfrcListDeque<T, S> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        LfrcListDeque { raw: RawLfrcListDeque::new() }
    }

    /// The DCAS strategy instance (for counter snapshots).
    pub fn strategy(&self) -> &S {
        self.raw.strategy()
    }

    /// Appends `v` at the right end. Never fails.
    pub fn push_right(&self, v: T) -> Result<(), Full<T>> {
        self.raw
            .push_right(Boxed::new(v))
            .map_err(|Full(b)| Full(b.into_inner()))
    }

    /// Appends `v` at the left end. Never fails.
    pub fn push_left(&self, v: T) -> Result<(), Full<T>> {
        self.raw
            .push_left(Boxed::new(v))
            .map_err(|Full(b)| Full(b.into_inner()))
    }

    /// Removes and returns the rightmost value, or `None` if empty.
    pub fn pop_right(&self) -> Option<T> {
        self.raw.pop_right().map(Boxed::into_inner)
    }

    /// Removes and returns the leftmost value, or `None` if empty.
    pub fn pop_left(&self) -> Option<T> {
        self.raw.pop_left().map(Boxed::into_inner)
    }

    /// Quiescent layout snapshot.
    pub fn layout(&self) -> crate::list::ListLayout {
        self.raw.layout()
    }

    /// Census and reclamation-audit diagnostics.
    pub fn stats(&self) -> LfrcStats {
        self.raw.stats()
    }
}

impl<T: Send, S: DcasStrategy> ConcurrentDeque<T> for LfrcListDeque<T, S> {
    fn push_right(&self, v: T) -> Result<(), Full<T>> {
        LfrcListDeque::push_right(self, v)
    }

    fn push_left(&self, v: T) -> Result<(), Full<T>> {
        LfrcListDeque::push_left(self, v)
    }

    fn pop_right(&self) -> Option<T> {
        LfrcListDeque::pop_right(self)
    }

    fn pop_left(&self) -> Option<T> {
        LfrcListDeque::pop_left(self)
    }

    fn impl_name(&self) -> &'static str {
        "list-lfrc-dcas"
    }
}
