//! The linked-list-based unbounded deque of Section 4 of the paper —
//! the first non-blocking unbounded-memory deque.
//!
//! The deque is a doubly-linked list between two fixed *sentinel* nodes
//! `SL` and `SR` whose value fields hold the distinguished `sentL` /
//! `sentR` constants. The central idea is to **split pop into two atomic
//! steps**:
//!
//! 1. *logical deletion* — one DCAS simultaneously swaps the victim's
//!    value to `null` and sets a **deleted bit** packed into the
//!    sentinel's inward pointer (Figure 12);
//! 2. *physical deletion* — a later DCAS splices the null node out of the
//!    list and clears the bit (Figure 15), performed by whichever
//!    operation on that side encounters the set bit (`deleteRight` /
//!    `deleteLeft`, Figures 17/34).
//!
//! If a processor is suspended between the two steps, any other processor
//! can complete (or work around) the physical deletion, which is what
//! makes the algorithm non-blocking. The subtle case is a deque holding
//! exactly two logically-deleted nodes with a `deleteLeft` and a
//! `deleteRight` racing (Figure 16): both attempt DCASes that overlap on
//! a sentinel pointer, so exactly one wins, and the paper's proof (and our
//! model checker) shows either outcome leaves a consistent list.
//!
//! The cost of splitting is one extra DCAS per pop; the benefit is that
//! no operation ever needs to synchronize on *both* sentinel pointers at
//! once, so the two ends don't interfere while the deque is non-empty.
//!
//! # Memory reclamation
//!
//! The paper assumes a garbage collector (its computation model is
//! Lisp/Java). We substitute the strategy's pluggable reclamation
//! backend ([`DcasStrategy::Reclaimer`]): every operation runs pinned,
//! and the thread whose DCAS physically splices a node out retires it;
//! the node is freed only once no operation can still hold a reference.
//! This preserves the property the algorithms need from GC — a node is
//! never recycled while a processor can reach it — and therefore rules
//! out ABA on node pointers.
//!
//! Under the epoch backend (the default) pinning alone suffices. Under
//! the hazard-pointer backend every traversal dereference follows the
//! announce-and-validate protocol: announce a hazard on the candidate
//! node, then re-read the word it was loaded from and retry on
//! mismatch. Validation against a *sentinel* word is self-contained
//! (sentinels never move). Validation one step out — a neighbor loaded
//! from a protected node's link word — must also confirm the protected
//! node itself is still in the list (its value word still live, or the
//! sentinel word unchanged), because the link words of an
//! already-spliced-out node are frozen and can keep naming a neighbor
//! that has since been freed. Every removal that could free a walked-to
//! node writes one of the validated words first (the splice DCASes
//! rewrite the neighbor links; the batch CASNs null every victim's
//! value and tombstone the boundary link), so a successful dual
//! validation proves the announce landed before any such removal.
//!
//! # Values in the node
//!
//! A value that fits a word ([`WordValue::IN_NODE`], which the typed
//! [`ListDeque`] sets for any `T` of at most 8 bytes) lives in the node's
//! spare payload word, and the value word holds the node's own address
//! as a token. The token behaves exactly like a boxed-value pointer —
//! payload-valid, unique while the node lives, swapped to `NULL` once —
//! so the algorithm is unchanged; see DESIGN.md, "Value tokens".
//!
//! # Corrected errata
//!
//! The paper's Figure 32 line 4 reads `oldL.ptr->value` where symmetry
//! with Figure 11 requires `oldR.ptr->value`, and Figure 33 line 10 reads
//! `newR.ptr->L.ptr = SR` where the left-side push must write `SL`. The
//! two-null branch of Figures 17/34 must also check that the other
//! sentinel names the null neighbour before its double splice, or it can
//! unlink a live node. All three are corrected here (see DESIGN.md,
//! "Known errata").

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};

use crossbeam_utils::CachePadded;
use dcas::{
    Backoff, CasnEntry, DcasStrategy, DcasWord, HarrisMcas, NodePool, ReclaimGuard, Reclaimer,
};

/// The guard type of a strategy's reclamation backend.
type GuardOf<S> = <<S as DcasStrategy>::Reclaimer as Reclaimer>::Guard;

use crate::reserved::{NULL, SENTL, SENTR};
use crate::value::{NodeValue, WordValue};
use crate::{ConcurrentDeque, Full, MAX_BATCH};

#[cfg(test)]
mod tests;

/// A list node: two pointer words and a value word (the paper's `node`
/// typedef), plus the payload word that 16-byte alignment would leave
/// as padding anyway. The alignment keeps the low four bits of node
/// addresses clear for the substrate tag bits and the deleted flag.
#[repr(align(16))]
struct Node {
    /// Left pointer word (`ptr | deleted-bit`).
    l: DcasWord,
    /// Right pointer word.
    r: DcasWord,
    /// `NULL`, `SENTL`, `SENTR`, or a user value word: the encoding, or
    /// for [`WordValue::IN_NODE`] values the node's own address (its
    /// value token).
    value: DcasWord,
    /// The value itself when `V::IN_NODE`. Written by the push before
    /// the publishing DCAS; moved out only by the operation whose DCAS
    /// or CASN swaps the token to `NULL`, while it still protects the
    /// node. Never touched by the DCAS substrate or stale readers.
    payload: UnsafeCell<MaybeUninit<u64>>,
}

impl Node {
    fn new_blank() -> Node {
        Node {
            l: DcasWord::new(0),
            r: DcasWord::new(0),
            value: DcasWord::new(NULL),
            payload: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

/// Moves `v` into unpublished node `n` and returns the word `n`'s value
/// field must hold. An [`IN_NODE`](WordValue::IN_NODE) value goes into
/// the payload word and the token is `n`'s address: 16-byte aligned
/// (payload-valid, `>= MIN_VALUE`), unique while `n` is live, and
/// swapped to `NULL` exactly once per lifetime — so the value DCASes,
/// the batch CASNs and the reclamation argument against ABA treat it
/// exactly like a boxed-value pointer. Any other value is encoded.
///
/// # Safety
///
/// `n` is unpublished and its payload holds no value.
#[inline]
unsafe fn put_value<V: WordValue>(n: *mut Node, v: V) -> u64 {
    const { assert!(!V::IN_NODE || (size_of::<V>() <= 8 && align_of::<V>() <= 8)) };
    if V::IN_NODE {
        // SAFETY: caller contract; the payload is 8 bytes, 8-aligned.
        unsafe { (*n).payload.get().cast::<V>().write(v) };
        n as u64
    } else {
        v.encode()
    }
}

/// Takes ownership of the value behind value word `w`.
///
/// # Safety
///
/// The caller uniquely owns `w`'s value: its DCAS or CASN swapped `w`
/// to `NULL`, or the node is private. For `IN_NODE` values the node must still be protected (or
/// private) for the duration of the call.
#[inline]
unsafe fn take_value<V: WordValue>(w: u64) -> V {
    if V::IN_NODE {
        // SAFETY: `w` is the token, the node's own address; caller
        // contract for the rest.
        unsafe { (*(w as *const Node)).payload.get().cast::<V>().read() }
    } else {
        // SAFETY: caller contract.
        unsafe { V::decode(w) }
    }
}

/// Releases the value behind value word `w` without returning it.
///
/// # Safety
///
/// As for [`take_value`].
#[inline]
unsafe fn drop_value<V: WordValue>(w: u64) {
    if V::IN_NODE {
        // SAFETY: as in `take_value`.
        unsafe { (*(w as *mut Node)).payload.get().cast::<V>().drop_in_place() }
    } else {
        // SAFETY: caller contract.
        unsafe { V::drop_encoded(w) }
    }
}

/// Page pool for this module's nodes (sentinels stay boxed: they live
/// for the deque's lifetime and want their `CachePadded` wrapper).
static NODE_POOL: NodePool = NodePool::new("list", std::mem::size_of::<Node>(), 16);

/// This module's node page pool (read-only; for allocator gauges).
pub fn node_pool() -> &'static NodePool {
    &NODE_POOL
}

/// Allocates a blank node from the page pool.
fn alloc_node() -> *mut Node {
    let n = NODE_POOL.alloc().cast::<Node>();
    // SAFETY: pool slots are type-stable Node memory; per the pool's
    // quarantine contract a recycled slot is reinitialized through
    // the node's atomic fields (`init_store` is a relaxed atomic
    // store), so a stale validator's probe never races non-atomically.
    unsafe {
        (*n).l.init_store(0);
        (*n).r.init_store(0);
        (*n).value.init_store(NULL);
    }
    n
}

/// Immediately frees a node (unpublished or quiescent nodes only —
/// concurrent frees go through `retire`).
///
/// # Safety
///
/// `n` must have come from [`alloc_node`], be freed exactly once, and
/// be unreachable by other threads.
unsafe fn free_node_now(n: *mut Node) {
    unsafe { NodePool::dealloc(n.cast()) };
}

/// Bit 2 of a pointer word marks the pointed-to node as logically deleted
/// (bits 0–1 are reserved for the DCAS substrate).
const DELETED_BIT: u64 = 0b100;

/// Packs the paper's `pointer` struct (`node *ptr; boolean deleted`) into
/// one word.
#[inline]
fn pack(ptr: *const Node, deleted: bool) -> u64 {
    let p = ptr as u64;
    debug_assert_eq!(p & 0xF, 0, "node pointers must be 16-byte aligned");
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

/// An unpublished node plus its value word, owned by a push from
/// allocation to the splicing DCAS.
/// Dropping it — which happens only if a strategy call unwinds, e.g. a
/// fault-injected kill — releases the value and frees the node; the
/// strategy unwinding contract guarantees nothing was published.
struct PendingNode<V: WordValue> {
    node: *mut Node,
    val: u64,
    _marker: PhantomData<V>,
}

impl<V: WordValue> PendingNode<V> {
    fn new(v: V) -> Self {
        let node = alloc_node();
        // SAFETY: freshly allocated, unpublished.
        let val = unsafe { put_value(node, v) };
        PendingNode { node, val, _marker: PhantomData }
    }

    /// The splicing DCAS published the node (which holds the value).
    fn published(self) {
        std::mem::forget(self);
    }
}

impl<V: WordValue> Drop for PendingNode<V> {
    fn drop(&mut self) {
        // SAFETY: reached only by unwinding before publication — the
        // node is private and its value unconsumed (released before
        // the node, which may hold it).
        unsafe {
            drop_value::<V>(self.val);
            free_node_now(self.node);
        }
    }
}

/// An unpublished chain of nodes built by a batched push, linked
/// `first .. last` through their `l`/`r` words, owned until the single
/// splicing DCAS succeeds. Dropping it (a panicking value iterator or
/// an unwinding strategy call) walks the chain, releasing every value
/// and freeing every node.
struct Chain<V: WordValue> {
    first: *mut Node,
    last: *mut Node,
    _marker: PhantomData<V>,
}

impl<V: WordValue> Chain<V> {
    fn new(v: V) -> Self {
        let n = alloc_node();
        // SAFETY: unpublished, exclusive access (and in the methods
        // below likewise: the chain is private until `publish`).
        unsafe { (*n).value.init_store(put_value(n, v)) };
        Chain { first: n, last: n, _marker: PhantomData }
    }

    /// Links `v`'s node after `last` (push-right order).
    fn append(&mut self, v: V) {
        let n = alloc_node();
        // SAFETY: see `new`.
        unsafe {
            (*n).value.init_store(put_value(n, v));
            (*n).l.init_store(pack(self.last, false));
            (*self.last).r.init_store(pack(n, false));
        }
        self.last = n;
    }

    /// Links `v`'s node before `first` (push-left order).
    fn prepend(&mut self, v: V) {
        let n = alloc_node();
        // SAFETY: see `new`.
        unsafe {
            (*n).value.init_store(put_value(n, v));
            (*n).r.init_store(pack(self.first, false));
            (*self.first).l.init_store(pack(n, false));
        }
        self.first = n;
    }

    /// The splicing DCAS linked `first..last` into the list.
    fn publish(self) {
        std::mem::forget(self);
    }
}

impl<V: WordValue> Drop for Chain<V> {
    fn drop(&mut self) {
        let mut cur = self.first;
        loop {
            let at_last = cur == self.last;
            // SAFETY: reached only by unwinding before `publish`; the
            // chain is private, every node holds an unconsumed value,
            // and interior `r` links (set by `append`/`prepend`)
            // connect `first..last`.
            unsafe {
                let next = ptr_of((*cur).r.unsync_load_shared()) as *mut Node;
                drop_value::<V>((*cur).value.unsync_load_shared());
                free_node_now(cur);
                if at_last {
                    break;
                }
                cur = next;
            }
        }
    }
}

/// Quiescent snapshot of the list structure, for diagnostics and the
/// Figure 9/12/14/15 reproduction tests. Only meaningful while no
/// operations are in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListLayout {
    /// Value words of the interior (non-sentinel) nodes, left to right;
    /// `None` represents the `null` value of a logically deleted node.
    pub cells: Vec<Option<u64>>,
    /// The deleted bit of the left sentinel's right pointer.
    pub left_deleted: bool,
    /// The deleted bit of the right sentinel's left pointer.
    pub right_deleted: bool,
}

impl ListLayout {
    /// Number of interior nodes still physically linked.
    pub fn linked_nodes(&self) -> usize {
        self.cells.len()
    }

    /// Number of live (non-deleted) values.
    pub fn live_values(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }
}

/// Word-level linked-list deque: the paper's algorithm verbatim, storing
/// [`WordValue`]-encoded values. Use [`ListDeque`] for arbitrary element
/// types.
pub struct RawListDeque<V: WordValue, S: DcasStrategy> {
    strategy: S,
    /// Left sentinel (`SL`), at a fixed address for the deque's lifetime.
    sl: Box<CachePadded<Node>>,
    /// Right sentinel (`SR`).
    sr: Box<CachePadded<Node>>,
    _marker: PhantomData<fn(V) -> V>,
}

// SAFETY: the deque is a shared concurrent structure; all shared-word
// accesses go through the `DcasStrategy`, values are transferred between
// threads (hence `V: Send`, implied by `WordValue`), and the raw node
// pointers are managed by the strategy's reclamation backend.
unsafe impl<V: WordValue, S: DcasStrategy> Send for RawListDeque<V, S> {}
unsafe impl<V: WordValue, S: DcasStrategy> Sync for RawListDeque<V, S> {}

impl<V: WordValue, S: DcasStrategy> Default for RawListDeque<V, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: WordValue, S: DcasStrategy> RawListDeque<V, S> {
    /// Creates an empty deque (the paper's `make_deque` without a length:
    /// unbounded).
    pub fn new() -> Self {
        let sl = Box::new(CachePadded::new(Node::new_blank()));
        let sr = Box::new(CachePadded::new(Node::new_blank()));
        let slp: *const Node = &**sl as *const Node;
        let srp: *const Node = &**sr as *const Node;
        // Initially SR->L == SL and SL->R == SR (Figure 9, top); the
        // sentinels' outward pointers are never used.
        sl.value.init_store(SENTL);
        sr.value.init_store(SENTR);
        sl.r.init_store(pack(srp, false));
        sr.l.init_store(pack(slp, false));
        RawListDeque {
            strategy: S::default(),
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

    /// The DCAS strategy instance (for [`dcas::Counting`] statistics).
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// `true` if the strategy's backend requires the announce-and-
    /// validate protocol before dereferencing traversed nodes (hazard
    /// pointers); `false` folds every protection to a no-op (epoch).
    const NP: bool = <GuardOf<S> as ReclaimGuard>::NEEDS_PROTECT;

    /// Retires a spliced-out node through the strategy's reclamation
    /// backend.
    ///
    /// # Safety
    ///
    /// `node` must have been allocated by this deque's push path and must
    /// have just been physically unlinked by a successful DCAS performed
    /// by the calling thread (so it is retired exactly once).
    unsafe fn retire(&self, node: *const Node, guard: &GuardOf<S>) {
        // SAFETY: the node is unreachable from the list, so no new
        // operation can find it; operations that already hold a
        // reference are pinned (epoch) or have it announced (hazard).
        // The pool frees it once, after the grace period / hazard scan.
        unsafe {
            guard.retire(node as *mut u8, std::mem::size_of::<Node>(), NodePool::dealloc);
        }
    }

    /// Strategy load of a sentinel inward pointer (`SL->R` / `SR->L`)
    /// that leaves the pointed-to node protected at `slot` before the
    /// caller dereferences it. A sentinel word is a validation root:
    /// a node is only retired after a splice rewrites the sentinel word
    /// naming it (and retired nodes are never relinked), so announce +
    /// unchanged re-read proves the node was live after the announce.
    fn load_end_protected(&self, g: &GuardOf<S>, w: &DcasWord, slot: usize) -> u64 {
        let mut v = self.strategy.load(w);
        if Self::NP {
            loop {
                g.protect(slot, ptr_of(v) as u64);
                let v2 = self.strategy.load(w);
                if v2 == v {
                    break;
                }
                v = v2;
            }
        }
        v
    }

    /// One protected step of a chunk walk: loads `link` (the `r`/`l`
    /// word of an already-protected node), announces hazard `slot` on
    /// the next node, and validates both that the link still names it
    /// and that the walked-from node is still in the list (`value`
    /// still non-null — removals null it first, and a nulled value
    /// never reverts). Returns `None` when a race is detected; the
    /// caller restarts the scan.
    fn protected_step(
        &self,
        g: &GuardOf<S>,
        link: &DcasWord,
        value: &DcasWord,
        slot: usize,
    ) -> Option<*const Node> {
        let next = ptr_of(self.strategy.load(link));
        if !Self::NP {
            return Some(next);
        }
        g.protect(slot, next as u64);
        if ptr_of(self.strategy.load(link)) != next || self.strategy.load(value) == NULL {
            g.clear(slot);
            return None;
        }
        Some(next)
    }

    /// `popRight` — Figure 11.
    pub fn pop_right(&self) -> Option<V> {
        let guard = S::Reclaimer::pin();
        loop {
            let old_l = self.load_end_protected(&guard, &self.sr.l, 0); // line 3
            let olp = ptr_of(old_l);
            // SAFETY: `olp` was linked at line 3 and is pinned/protected,
            // so the node cannot have been freed.
            let v = self.strategy.load(unsafe { &(*olp).value }); // line 4
            if v == SENTL {
                return None; // line 5: "empty"
            }
            if deleted_of(old_l) {
                self.delete_right(&guard); // lines 6-7
            } else if v == NULL {
                // Lines 8-12: the node was deleted by a popLeft; the deque
                // is empty if nothing changed — confirm with an identity
                // DCAS over (SR->L, node value).
                // SAFETY: as above.
                if self.strategy.dcas(
                    &self.sr.l,
                    unsafe { &(*olp).value },
                    old_l,
                    v,
                    old_l,
                    v,
                ) {
                    return None;
                }
            } else {
                // Lines 13-19: logically delete — swap the value to null
                // and set the deleted bit in SR->L, in one DCAS
                // (Figure 12).
                let new_l = pack(olp, true);
                // SAFETY: as above.
                if self.strategy.dcas(
                    &self.sr.l,
                    unsafe { &(*olp).value },
                    old_l,
                    v,
                    new_l,
                    NULL,
                ) {
                    // SAFETY: the successful DCAS moved the value out of
                    // the node; we are its unique owner, and `olp` is
                    // still pinned/protected.
                    return Some(unsafe { take_value(v) });
                }
            }
        }
    }

    /// `pushRight` — Figure 13.
    pub fn push_right(&self, v: V) -> Result<(), Full<V>> {
        let guard = S::Reclaimer::pin();
        // Lines 2-4: allocate the new node. (The paper returns "full" if
        // the allocator fails; Rust's global allocator aborts instead, so
        // the push path never reports full — matching the unbounded deque
        // specification of Section 2.2.) The pending guard owns node and
        // value until published; an unwinding strategy call frees both.
        let pending = PendingNode::<V>::new(v);
        let (node, val) = (pending.node, pending.val);
        loop {
            let old_l = self.load_end_protected(&guard, &self.sr.l, 0); // line 6
            if deleted_of(old_l) {
                self.delete_right(&guard); // lines 7-8
            } else {
                let olp = ptr_of(old_l);
                // Lines 10-13: initialize the unpublished node. These are
                // plain stores; the publishing DCAS below provides the
                // release edge.
                // SAFETY: `node` is not yet published, we have exclusive
                // access.
                unsafe {
                    (*node).r.init_store(pack(self.srp(), false));
                    (*node).l.init_store(old_l);
                    (*node).value.init_store(val);
                }
                let old_lr = pack(self.srp(), false); // lines 14-15
                // Lines 16-18: splice in by redirecting SR->L and the old
                // neighbor's R pointer to the new node (Figure 14).
                // SAFETY: `olp` reachable at line 6, pinned.
                if self.strategy.dcas(
                    &self.sr.l,
                    unsafe { &(*olp).r },
                    old_l,
                    old_lr,
                    pack(node, false),
                    pack(node, false),
                ) {
                    pending.published();
                    return Ok(()); // "okay"
                }
            }
        }
    }

    /// `deleteRight` — Figure 17: completes a pending physical deletion on
    /// the right-hand side.
    fn delete_right(&self, guard: &GuardOf<S>) {
        loop {
            let old_l = self.load_end_protected(guard, &self.sr.l, 0); // line 3
            if !deleted_of(old_l) {
                return; // line 4: someone else finished the deletion
            }
            let olp = ptr_of(old_l);
            // SAFETY (this and subsequent derefs): `olp` is protected via
            // the sentinel root above; `old_ll` via the dual validation
            // below. See the module docs' reclamation section.
            let old_ll = ptr_of(self.strategy.load(unsafe { &(*olp).l })); // line 5
            if Self::NP {
                guard.protect(1, old_ll as u64);
                // `olp`'s link words freeze once it is spliced out, so a
                // link re-read alone cannot prove `old_ll` is alive; the
                // sentinel re-read pins `olp` as still-linked (retired
                // nodes are never relinked, so no ABA), and any removal
                // of `old_ll` while `olp` is linked rewrites `olp->L`.
                if ptr_of(self.strategy.load(unsafe { &(*olp).l })) != old_ll
                    || self.strategy.load(&self.sr.l) != old_l
                {
                    guard.clear(1);
                    continue;
                }
            }
            let v = self.strategy.load(unsafe { &(*old_ll).value }); // line 6
            if v != NULL {
                // Lines 6-14: the left neighbor is live (or is the left
                // sentinel); splice out the null node by pointing SR and
                // that neighbor at each other (Figure 15).
                let old_llr = self.strategy.load(unsafe { &(*old_ll).r }); // line 7
                // A deleted bit on a neighbor's R pointer is a batch-pop
                // tombstone: `old_ll` is retired, so the splice below must
                // not resurrect it (re-read and take the other path).
                if olp == ptr_of(old_llr) && !deleted_of(old_llr) {
                    // lines 8-13
                    let new_r = pack(self.srp(), false);
                    if self.strategy.dcas(
                        &self.sr.l,
                        unsafe { &(*old_ll).r },
                        old_l,
                        old_llr,
                        pack(old_ll, false),
                        new_r,
                    ) {
                        // SAFETY: our DCAS unlinked `olp`.
                        unsafe { self.retire(olp, guard) };
                        return;
                    }
                }
            } else {
                // Lines 16-26: two null items — both remaining nodes are
                // logically deleted. Point the sentinels at each other,
                // racing any concurrent deleteLeft (Figure 16).
                let old_r = self.strategy.load(&self.sl.r); // line 17
                // Line 18, plus a check the paper omits: `SL->R` must name
                // the null neighbour read at line 5. Otherwise the left
                // end moved in between and a live node may sit between
                // the two null ones (DESIGN.md, "Known errata").
                if deleted_of(old_r) && ptr_of(old_r) == old_ll {
                    let new_l = pack(self.slp(), false);
                    let new_r = pack(self.srp(), false);
                    if self.strategy.dcas(
                        &self.sr.l,
                        &self.sl.r,
                        old_l,
                        old_r,
                        new_l,
                        new_r,
                    ) {
                        // SAFETY: our DCAS unlinked both null nodes.
                        unsafe {
                            self.retire(olp, guard);
                            self.retire(old_ll, guard);
                        }
                        return;
                    }
                }
            }
        }
    }

    /// `popLeft` — Figure 32 (with the paper's line-4 typo corrected).
    pub fn pop_left(&self) -> Option<V> {
        let guard = S::Reclaimer::pin();
        loop {
            let old_r = self.load_end_protected(&guard, &self.sl.r, 0); // line 3
            let orp = ptr_of(old_r);
            // SAFETY: as in `pop_right`.
            let v = self.strategy.load(unsafe { &(*orp).value }); // line 4 (corrected)
            if v == SENTR {
                return None; // line 5
            }
            if deleted_of(old_r) {
                self.delete_left(&guard); // lines 6-7
            } else if v == NULL {
                // SAFETY: as above.
                if self.strategy.dcas(
                    &self.sl.r,
                    unsafe { &(*orp).value },
                    old_r,
                    v,
                    old_r,
                    v,
                ) {
                    return None;
                }
            } else {
                let new_r = pack(orp, true);
                // SAFETY: as above.
                if self.strategy.dcas(
                    &self.sl.r,
                    unsafe { &(*orp).value },
                    old_r,
                    v,
                    new_r,
                    NULL,
                ) {
                    // SAFETY: unique ownership via successful DCAS;
                    // `orp` still pinned/protected.
                    return Some(unsafe { take_value(v) });
                }
            }
        }
    }

    /// `pushLeft` — Figure 33 (with the paper's line-10 typo corrected:
    /// the new node's left pointer aims at `SL`, not `SR`).
    pub fn push_left(&self, v: V) -> Result<(), Full<V>> {
        let guard = S::Reclaimer::pin();
        // Guarded as in `push_right`.
        let pending = PendingNode::<V>::new(v);
        let (node, val) = (pending.node, pending.val);
        loop {
            let old_r = self.load_end_protected(&guard, &self.sl.r, 0); // line 6
            if deleted_of(old_r) {
                self.delete_left(&guard); // lines 7-8
            } else {
                let orp = ptr_of(old_r);
                // SAFETY: unpublished node, exclusive access.
                unsafe {
                    (*node).l.init_store(pack(self.slp(), false)); // corrected
                    (*node).r.init_store(old_r);
                    (*node).value.init_store(val);
                }
                let old_rl = pack(self.slp(), false);
                // SAFETY: `orp` reachable at line 6, pinned.
                if self.strategy.dcas(
                    &self.sl.r,
                    unsafe { &(*orp).l },
                    old_r,
                    old_rl,
                    pack(node, false),
                    pack(node, false),
                ) {
                    pending.published();
                    return Ok(());
                }
            }
        }
    }

    /// `deleteLeft` — Figure 34.
    fn delete_left(&self, guard: &GuardOf<S>) {
        loop {
            let old_r = self.load_end_protected(guard, &self.sl.r, 0); // line 3
            if !deleted_of(old_r) {
                return; // line 4
            }
            let orp = ptr_of(old_r);
            // SAFETY: as in `delete_right` (mirrored dual validation).
            let old_rr = ptr_of(self.strategy.load(unsafe { &(*orp).r })); // line 5
            if Self::NP {
                guard.protect(1, old_rr as u64);
                if ptr_of(self.strategy.load(unsafe { &(*orp).r })) != old_rr
                    || self.strategy.load(&self.sl.r) != old_r
                {
                    guard.clear(1);
                    continue;
                }
            }
            let v = self.strategy.load(unsafe { &(*old_rr).value }); // line 6
            if v != NULL {
                let old_rrl = self.strategy.load(unsafe { &(*old_rr).l }); // line 7
                // Deleted bit here = batch-pop tombstone on a retired
                // node's L pointer; see `delete_right`.
                if orp == ptr_of(old_rrl) && !deleted_of(old_rrl) {
                    // lines 8-14
                    let new_l = pack(self.slp(), false);
                    if self.strategy.dcas(
                        &self.sl.r,
                        unsafe { &(*old_rr).l },
                        old_r,
                        old_rrl,
                        pack(old_rr, false),
                        new_l,
                    ) {
                        // SAFETY: our DCAS unlinked `orp`.
                        unsafe { self.retire(orp, guard) };
                        return;
                    }
                }
            } else {
                // Lines 16-26: two null items.
                let old_l = self.strategy.load(&self.sr.l); // line 17
                // Line 22, plus the mirror of `delete_right`'s check that
                // `SR->L` names the null neighbour read at line 5.
                if deleted_of(old_l) && ptr_of(old_l) == old_rr {
                    let new_r = pack(self.srp(), false);
                    let new_l = pack(self.slp(), false);
                    if self.strategy.dcas(
                        &self.sl.r,
                        &self.sr.l,
                        old_r,
                        old_l,
                        new_r,
                        new_l,
                    ) {
                        // SAFETY: our DCAS unlinked both null nodes.
                        unsafe {
                            self.retire(orp, guard);
                            self.retire(old_rr, guard);
                        }
                        return;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Batched operations (not in the paper). Pushes build a private
    // chain of nodes and splice it with the same single DCAS the
    // one-node push uses — batching is free on the push side. Pops
    // combine the logical and physical deletion of up to MAX_BATCH
    // leftmost/rightmost nodes into one CASN that validates the chain
    // and nulls every popped value at a single linearization point.
    // ------------------------------------------------------------------

    /// Pushes all of `vals` at the right end in **one** DCAS, in order
    /// (the last element ends up rightmost). Builds the private chain
    /// `m_1 .. m_k` off-list, then splices it exactly like the one-node
    /// push of Figure 13: `DCAS(SR->L, m_left_neighbor->R)`.
    pub fn push_right_n<I>(&self, vals: I) -> Result<(), Full<Vec<V>>>
    where
        I: IntoIterator<Item = V>,
    {
        let mut it = vals.into_iter();
        let Some(v0) = it.next() else { return Ok(()) };
        let guard = S::Reclaimer::pin();
        // Build the chain left-to-right in push order, linking each node
        // as the iterator yields it — no intermediate buffers. The chain
        // guard owns every node and value until the splice: a panicking
        // iterator or an unwinding strategy call releases the partial
        // chain instead of leaking it.
        let mut chain = Chain::new(v0);
        for v in it {
            chain.append(v);
        }
        let (first, last) = (chain.first, chain.last);
        // SAFETY: the chain is unpublished; we have exclusive access.
        unsafe { (*last).r.init_store(pack(self.srp(), false)) };
        let mut backoff = Backoff::new();
        loop {
            let old_l = self.load_end_protected(&guard, &self.sr.l, 0);
            if deleted_of(old_l) {
                self.delete_right(&guard);
            } else {
                let olp = ptr_of(old_l);
                // SAFETY: `first` is still unpublished.
                unsafe { (*first).l.init_store(old_l) };
                let old_lr = pack(self.srp(), false);
                // SAFETY: `olp` reachable above, pinned.
                if self.strategy.dcas(
                    &self.sr.l,
                    unsafe { &(*olp).r },
                    old_l,
                    old_lr,
                    pack(last, false),
                    pack(first, false),
                ) {
                    chain.publish();
                    return Ok(());
                }
                backoff.snooze();
            }
        }
    }

    /// Pushes all of `vals` at the left end in **one** DCAS, in order
    /// (the last element ends up leftmost). Mirror of
    /// [`push_right_n`](Self::push_right_n).
    pub fn push_left_n<I>(&self, vals: I) -> Result<(), Full<Vec<V>>>
    where
        I: IntoIterator<Item = V>,
    {
        let mut it = vals.into_iter();
        let Some(v0) = it.next() else { return Ok(()) };
        let guard = S::Reclaimer::pin();
        // Chain left-to-right holds the values in reverse push order, so
        // that the sequence behaves like repeated pushLeft calls: each
        // yielded value's node is *prepended* to the unpublished chain.
        // Guarded as in `push_right_n`.
        let mut chain = Chain::new(v0);
        for v in it {
            chain.prepend(v);
        }
        let (first, last) = (chain.first, chain.last);
        // SAFETY: the chain is unpublished; we have exclusive access.
        unsafe { (*first).l.init_store(pack(self.slp(), false)) };
        let mut backoff = Backoff::new();
        loop {
            let old_r = self.load_end_protected(&guard, &self.sl.r, 0);
            if deleted_of(old_r) {
                self.delete_left(&guard);
            } else {
                let orp = ptr_of(old_r);
                // SAFETY: `last` is still unpublished.
                unsafe { (*last).r.init_store(old_r) };
                let old_rl = pack(self.slp(), false);
                // SAFETY: `orp` reachable above, pinned.
                if self.strategy.dcas(
                    &self.sl.r,
                    unsafe { &(*orp).l },
                    old_r,
                    old_rl,
                    pack(first, false),
                    pack(last, false),
                ) {
                    chain.publish();
                    return Ok(());
                }
                backoff.snooze();
            }
        }
    }

    /// Pops up to `k` leftmost values in one CASN, appending them to
    /// `out` and returning whether the deque was exhausted. The CASN
    /// covers:
    ///
    /// * `SL->R`: swung directly past the `j` victims to their right
    ///   neighbor `n_{j+1}` (logical + physical deletion fused);
    /// * each victim's value word, swapped to null — without these a
    ///   concurrent pop could return the same value twice;
    /// * `n_j->R`, **tombstoned** (deleted bit set, pointer kept). This
    ///   both validates that nothing was spliced in or out beyond `n_j`
    ///   between our scan and the CASN, and — crucially — *changes* the
    ///   word: a concurrent `delete_right` that captured
    ///   `(SR->L, n_j->R)` as its DCAS expectations before our CASN
    ///   would otherwise still succeed afterwards and re-link the
    ///   retired `n_j` into `SR->L` (the delete helpers reject
    ///   tombstoned neighbor pointers for the same reason);
    /// * `n_{j+1}->L`, redirected to `SL`.
    ///
    /// Success with `j < k` certifies the deque held exactly `j` values
    /// at the linearization instant (the chain `SL -> n_1 .. n_j ->
    /// n_{j+1}` with `n_{j+1}` the sentinel or a logically-deleted null
    /// node is pinned by the entries plus the fact that a value word
    /// never leaves null once set).
    fn pop_left_chunk(&self, k: usize, out: &mut Vec<V>, guard: &GuardOf<S>) -> bool {
        debug_assert!((1..=MAX_BATCH).contains(&k));
        let mut backoff = Backoff::new();
        loop {
            let old_r = self.load_end_protected(guard, &self.sl.r, 0);
            if deleted_of(old_r) {
                self.delete_left(guard);
                continue;
            }
            let orp = ptr_of(old_r);
            // SAFETY (this and subsequent derefs): `orp` is protected via
            // the sentinel root; every further node the walk reaches is
            // protected by `protected_step` before it is dereferenced
            // (node at walk position `i` holds slot `i`).
            let v1 = self.strategy.load(unsafe { &(*orp).value });
            if v1 == SENTR {
                return true; // empty at the SL->R read
            }
            if v1 == NULL {
                // Deleted from the right side; empty if nothing changed —
                // confirm exactly as the single pop does.
                if self.strategy.dcas(
                    &self.sl.r,
                    unsafe { &(*orp).value },
                    old_r,
                    NULL,
                    old_r,
                    NULL,
                ) {
                    return true;
                }
                backoff.snooze();
                continue;
            }
            // Collect up to k live nodes left-to-right; `next` ends as
            // n_{j+1} (SR, a null node, or the first node past the batch).
            let mut nodes = [std::ptr::null::<Node>(); MAX_BATCH];
            let mut vals = [0u64; MAX_BATCH];
            nodes[0] = orp;
            vals[0] = v1;
            let mut j = 1;
            // SAFETY: `orp` (and below, each `next` once stored into
            // `nodes`) is protected; see the loop-head comment.
            let Some(mut next) = self.protected_step(
                guard,
                unsafe { &(*orp).r },
                unsafe { &(*orp).value },
                1,
            ) else {
                backoff.snooze();
                continue;
            };
            let mut raced = false;
            while j < k {
                // SAFETY: `next` was protected by the step that found it.
                let v = self.strategy.load(unsafe { &(*next).value });
                if v == SENTR || v == NULL {
                    break;
                }
                nodes[j] = next;
                vals[j] = v;
                j += 1;
                // SAFETY: as above.
                let step = self.protected_step(
                    guard,
                    unsafe { &(*next).r },
                    unsafe { &(*next).value },
                    j,
                );
                match step {
                    Some(n) => next = n,
                    None => {
                        raced = true;
                        break;
                    }
                }
            }
            if raced {
                backoff.snooze();
                continue;
            }
            // A stale traversal can in principle walk retired pointers;
            // duplicate words in a CASN are invalid, so reject and retry.
            if nodes[..j].contains(&next)
                || (1..j).any(|i| nodes[..i].contains(&nodes[i]))
            {
                backoff.snooze();
                continue;
            }
            let n_j = nodes[j - 1];
            let mut entries = [CasnEntry::new(&self.sl.r, NULL, NULL); MAX_BATCH + 3];
            entries[0] = CasnEntry::new(&self.sl.r, old_r, pack(next, false));
            // SAFETY: `n_j` and `next` were reachable during the scan.
            entries[1] = CasnEntry::new(
                unsafe { &(*n_j).r },
                pack(next, false),
                pack(next, true), // tombstone (see doc comment)
            );
            entries[2] = CasnEntry::new(
                unsafe { &(*next).l },
                pack(n_j, false),
                pack(self.slp(), false),
            );
            for i in 0..j {
                entries[3 + i] =
                    CasnEntry::new(unsafe { &(*nodes[i]).value }, vals[i], NULL);
            }
            if self.strategy.casn(&mut entries[..j + 3]) {
                // SAFETY: each value was moved out of its node by our
                // CASN; we are its unique owner. Every payload is read
                // before the retire loop, while the walk's hazards or
                // pin still cover the nodes.
                out.extend(vals[..j].iter().map(|&w| unsafe { take_value(w) }));
                for &n in &nodes[..j] {
                    // SAFETY: our CASN unlinked the chain `n_1..n_j`.
                    unsafe { self.retire(n, guard) };
                }
                return j < k;
            }
            backoff.snooze();
        }
    }

    /// Mirror of [`pop_left_chunk`](Self::pop_left_chunk) for the right
    /// end: walks leftward from `SR->L`, returns rightmost first.
    fn pop_right_chunk(&self, k: usize, out: &mut Vec<V>, guard: &GuardOf<S>) -> bool {
        debug_assert!((1..=MAX_BATCH).contains(&k));
        let mut backoff = Backoff::new();
        loop {
            let old_l = self.load_end_protected(guard, &self.sr.l, 0);
            if deleted_of(old_l) {
                self.delete_right(guard);
                continue;
            }
            let olp = ptr_of(old_l);
            // SAFETY: as in `pop_left_chunk` (protected walk, mirrored).
            let v1 = self.strategy.load(unsafe { &(*olp).value });
            if v1 == SENTL {
                return true;
            }
            if v1 == NULL {
                if self.strategy.dcas(
                    &self.sr.l,
                    unsafe { &(*olp).value },
                    old_l,
                    NULL,
                    old_l,
                    NULL,
                ) {
                    return true;
                }
                backoff.snooze();
                continue;
            }
            let mut nodes = [std::ptr::null::<Node>(); MAX_BATCH];
            let mut vals = [0u64; MAX_BATCH];
            nodes[0] = olp;
            vals[0] = v1;
            let mut j = 1;
            // SAFETY: `olp` and each stored `next` are protected; see
            // `pop_left_chunk`.
            let Some(mut next) = self.protected_step(
                guard,
                unsafe { &(*olp).l },
                unsafe { &(*olp).value },
                1,
            ) else {
                backoff.snooze();
                continue;
            };
            let mut raced = false;
            while j < k {
                // SAFETY: `next` was protected by the step that found it.
                let v = self.strategy.load(unsafe { &(*next).value });
                if v == SENTL || v == NULL {
                    break;
                }
                nodes[j] = next;
                vals[j] = v;
                j += 1;
                // SAFETY: as above.
                let step = self.protected_step(
                    guard,
                    unsafe { &(*next).l },
                    unsafe { &(*next).value },
                    j,
                );
                match step {
                    Some(n) => next = n,
                    None => {
                        raced = true;
                        break;
                    }
                }
            }
            if raced {
                backoff.snooze();
                continue;
            }
            if nodes[..j].contains(&next)
                || (1..j).any(|i| nodes[..i].contains(&nodes[i]))
            {
                backoff.snooze();
                continue;
            }
            let n_j = nodes[j - 1];
            let mut entries = [CasnEntry::new(&self.sr.l, NULL, NULL); MAX_BATCH + 3];
            entries[0] = CasnEntry::new(&self.sr.l, old_l, pack(next, false));
            // SAFETY: `n_j` and `next` were reachable during the scan.
            entries[1] = CasnEntry::new(
                unsafe { &(*n_j).l },
                pack(next, false),
                pack(next, true), // tombstone (see `pop_left_chunk`)
            );
            entries[2] = CasnEntry::new(
                unsafe { &(*next).r },
                pack(n_j, false),
                pack(self.srp(), false),
            );
            for i in 0..j {
                entries[3 + i] =
                    CasnEntry::new(unsafe { &(*nodes[i]).value }, vals[i], NULL);
            }
            if self.strategy.casn(&mut entries[..j + 3]) {
                // SAFETY: as in `pop_left_chunk` (payloads first).
                out.extend(vals[..j].iter().map(|&w| unsafe { take_value(w) }));
                for &n in &nodes[..j] {
                    // SAFETY: our CASN unlinked the chain.
                    unsafe { self.retire(n, guard) };
                }
                return j < k;
            }
            backoff.snooze();
        }
    }

    /// Pops up to `n` values from the left end, leftmost first, in
    /// atomic chunks of up to [`MAX_BATCH`]; stops early at a chunk that
    /// certified the deque exhausted.
    pub fn pop_left_n(&self, n: usize) -> Vec<V> {
        let guard = S::Reclaimer::pin();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let k = (n - out.len()).min(MAX_BATCH);
            if self.pop_left_chunk(k, &mut out, &guard) {
                break;
            }
        }
        out
    }

    /// Pops up to `n` values from the right end, rightmost first, in
    /// atomic chunks. See [`pop_left_n`](Self::pop_left_n).
    pub fn pop_right_n(&self, n: usize) -> Vec<V> {
        let guard = S::Reclaimer::pin();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let k = (n - out.len()).min(MAX_BATCH);
            if self.pop_right_chunk(k, &mut out, &guard) {
                break;
            }
        }
        out
    }

    /// Quiescent snapshot of the list structure (see [`ListLayout`]).
    pub fn layout(&self) -> ListLayout {
        let _guard = S::Reclaimer::pin();
        let mut cells = Vec::new();
        let mut cur = ptr_of(self.strategy.load(&self.sl.r));
        while cur != self.srp() {
            // SAFETY: quiescent per the method contract; nodes linked from
            // SL are alive.
            let v = self.strategy.load(unsafe { &(*cur).value });
            cells.push((v != NULL).then_some(v));
            cur = ptr_of(self.strategy.load(unsafe { &(*cur).r }));
        }
        ListLayout {
            cells,
            left_deleted: deleted_of(self.strategy.load(&self.sl.r)),
            right_deleted: deleted_of(self.strategy.load(&self.sr.l)),
        }
    }
}

impl<V: WordValue, S: DcasStrategy> Drop for RawListDeque<V, S> {
    fn drop(&mut self) {
        // Exclusive access: no operation in flight, no descriptors
        // installed. Walk the physical list, freeing interior nodes and
        // any unconsumed values. Nodes already retired to the
        // reclamation backend are no longer linked and are freed by
        // their queued destructors.
        // SAFETY: quiescence per `&mut self`.
        unsafe {
            let mut cur = ptr_of(self.sl.r.unsync_load_shared());
            while cur != self.srp() {
                let node = cur as *mut Node;
                let v = (*node).value.unsync_load_shared();
                if v != NULL {
                    drop_value::<V>(v);
                }
                cur = ptr_of((*node).r.unsync_load_shared());
                free_node_now(node);
            }
        }
    }
}

/// The linked-list-based unbounded deque of the paper's Section 4, for
/// arbitrary element types `T` and any DCAS strategy `S` (lock-free
/// [`HarrisMcas`] by default).
///
/// A `T` of at most 8 bytes (and alignment at most 8) lives in its list
/// node's spare word, so each element costs one allocation, the node;
/// a larger `T` is heap-boxed per element. The choice is made at
/// compile time from `T`'s layout.
///
/// See the [module documentation](self) for the algorithm and
/// [`RawListDeque`] for the word-level API used by benches.
pub struct ListDeque<T: Send, S: DcasStrategy = HarrisMcas> {
    raw: RawListDeque<NodeValue<T>, S>,
}

impl<T: Send, S: DcasStrategy> Default for ListDeque<T, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send, S: DcasStrategy> ListDeque<T, S> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        ListDeque { raw: RawListDeque::new() }
    }

    /// The DCAS strategy instance (for counter snapshots).
    pub fn strategy(&self) -> &S {
        self.raw.strategy()
    }

    /// Appends `v` at the right end. Never fails (the deque is unbounded).
    pub fn push_right(&self, v: T) -> Result<(), Full<T>> {
        self.raw.push_right(NodeValue(v)).map_err(|Full(b)| Full(b.0))
    }

    /// Appends `v` at the left end. Never fails.
    pub fn push_left(&self, v: T) -> Result<(), Full<T>> {
        self.raw.push_left(NodeValue(v)).map_err(|Full(b)| Full(b.0))
    }

    /// Removes and returns the rightmost value, or `None` if empty.
    pub fn pop_right(&self) -> Option<T> {
        self.raw.pop_right().map(|b| b.0)
    }

    /// Removes and returns the leftmost value, or `None` if empty.
    pub fn pop_left(&self) -> Option<T> {
        self.raw.pop_left().map(|b| b.0)
    }

    /// Pushes all of `vals` at the right end in **one** DCAS splice (see
    /// [`RawListDeque::push_right_n`]). Never fails.
    pub fn push_right_n<I>(&self, vals: I) -> Result<(), Full<Vec<T>>>
    where
        I: IntoIterator<Item = T>,
    {
        self.raw
            .push_right_n(vals.into_iter().map(NodeValue))
            .map_err(|Full(rest)| Full(rest.into_iter().map(|b| b.0).collect()))
    }

    /// Pushes all of `vals` at the left end in **one** DCAS splice (the
    /// last element ends up leftmost). Never fails.
    pub fn push_left_n<I>(&self, vals: I) -> Result<(), Full<Vec<T>>>
    where
        I: IntoIterator<Item = T>,
    {
        self.raw
            .push_left_n(vals.into_iter().map(NodeValue))
            .map_err(|Full(rest)| Full(rest.into_iter().map(|b| b.0).collect()))
    }

    /// Pops up to `n` values from the right end, rightmost first, in
    /// atomic chunks of up to [`MAX_BATCH`].
    pub fn pop_right_n(&self, n: usize) -> Vec<T> {
        self.raw.pop_right_n(n).into_iter().map(|b| b.0).collect()
    }

    /// Pops up to `n` values from the left end, leftmost first, in atomic
    /// chunks.
    pub fn pop_left_n(&self, n: usize) -> Vec<T> {
        self.raw.pop_left_n(n).into_iter().map(|b| b.0).collect()
    }

    /// Quiescent layout snapshot (see [`RawListDeque::layout`]).
    pub fn layout(&self) -> ListLayout {
        self.raw.layout()
    }
}

impl<T: Send, S: DcasStrategy> ConcurrentDeque<T> for ListDeque<T, S> {
    fn push_right(&self, v: T) -> Result<(), Full<T>> {
        ListDeque::push_right(self, v)
    }

    fn push_left(&self, v: T) -> Result<(), Full<T>> {
        ListDeque::push_left(self, v)
    }

    fn pop_right(&self) -> Option<T> {
        ListDeque::pop_right(self)
    }

    fn pop_left(&self) -> Option<T> {
        ListDeque::pop_left(self)
    }

    fn push_right_n(&self, vals: Vec<T>) -> Result<(), Full<Vec<T>>> {
        ListDeque::push_right_n(self, vals)
    }

    fn push_left_n(&self, vals: Vec<T>) -> Result<(), Full<Vec<T>>> {
        ListDeque::push_left_n(self, vals)
    }

    fn pop_right_n(&self, n: usize) -> Vec<T> {
        ListDeque::pop_right_n(self, n)
    }

    fn pop_left_n(&self, n: usize) -> Vec<T> {
        ListDeque::pop_left_n(self, n)
    }

    fn impl_name(&self) -> &'static str {
        "list-dcas"
    }
}
