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
//! Here that extra DCAS is paid only when a *pop* finds the deletion
//! pending. A push that finds it pending hands its unpublished node to
//! `delete`, whose splice DCAS links the node in place of the null
//! node(s) it unlinks: the splice and the push in one DCAS, over the same
//! two words (the argument is at `delete`, and in DESIGN.md, "Beyond
//! the paper's listings"). So push → pop → push at one end costs three
//! DCASes, not four, while pop → pop still costs the paper's extra one.
//!
//! # One body per end
//!
//! The paper prints each left-end operation as its own listing,
//! mirroring a right-end one. Here each operation is written once,
//! generic over the end it works at: one `pop` body is Figure 11 at the
//! right end and Figure 32 at the left, `push` is Figures 13 and 33,
//! `delete` is Figures 17 and 34, and the batch operations fold the
//! same way. The end supplies its own sentinel and the opposite one,
//! the far sentinel's value (what an empty pop reads), and which of a
//! node's two links points inward (away from the end) and which
//! outward. Both ends monomorphize to their own straight-line code.
//!
//! # One body per family
//!
//! The same bodies also serve the paper's two list variants, the
//! dummy-node deque ([`list_dummy`](crate::list_dummy)) and the GC-free
//! deque ([`list_lfrc`](crate::list_lfrc)). Each is a crate-private link
//! policy that supplies only what it does differently: how a link word
//! is loaded and protected, the word that marks a node deleted, the
//! pointer DCAS, stores into the pushed node, giving back a reference,
//! and what a winning splice frees. This module's own policy keeps the
//! deleted bit in the sentinel word and retires what a splice unlinks;
//! see `link.rs` for the hooks side by side. The batch operations below
//! use the deleted bit's tombstones and exist under this policy only.
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
//! "Known errata"). The two mirroring slips cannot come back on one end
//! only, since both ends run the same body, and the two-null check is
//! written once.

use std::marker::PhantomData;
use std::mem::{align_of, size_of};

use crossbeam_utils::CachePadded;
use dcas::{
    Backoff, CasnEntry, DcasStrategy, DcasWord, HarrisMcas, NodePool, ReclaimGuard, Reclaimer,
};

/// The guard type of a strategy's reclamation backend.
pub(crate) type GuardOf<S> = <<S as DcasStrategy>::Reclaimer as Reclaimer>::Guard;

use crate::end::{End, Left, Right};
use crate::reserved::{NULL, SENTL, SENTR};
use crate::value::{NodeValue, WordValue};
use crate::{pop_each, push_each, ConcurrentDeque, Full, MAX_BATCH};

mod link;

pub(crate) use link::{At, Link, LinkPolicy, Mark, Node};
use link::Bit;

#[cfg(test)]
mod tests;

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
unsafe fn put_value<V: WordValue, P: LinkPolicy>(n: *mut Node<P>, v: V) -> u64 {
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
/// to `NULL`, or the node is private. For `IN_NODE` values the node
/// must still be protected (or counted, or private) for the duration of
/// the call.
#[inline]
unsafe fn take_value<V: WordValue, P: LinkPolicy>(w: u64) -> V {
    if V::IN_NODE {
        // SAFETY: `w` is the token, the node's own address; caller
        // contract for the rest.
        unsafe { (*(w as *const Node<P>)).payload.get().cast::<V>().read() }
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
unsafe fn drop_value<V: WordValue, P: LinkPolicy>(w: u64) {
    if V::IN_NODE {
        // SAFETY: as in `take_value`.
        unsafe { (*(w as *mut Node<P>)).payload.get().cast::<V>().drop_in_place() }
    } else {
        // SAFETY: caller contract.
        unsafe { V::drop_encoded(w) }
    }
}

/// Page pool for the deleted-bit deque's nodes (sentinels stay boxed:
/// they live for the deque's lifetime and want their `CachePadded`
/// wrapper).
static NODE_POOL: NodePool = NodePool::new("list", size_of::<Node<Bit>>(), 16);

/// This module's node page pool (read-only; for allocator gauges).
pub fn node_pool() -> &'static NodePool {
    &NODE_POOL
}

/// Allocates a blank node from `P`'s page pool.
pub(crate) fn alloc_node<P: LinkPolicy>(policy: &P) -> *mut Node<P> {
    let n = P::pool().alloc().cast::<Node<P>>();
    // SAFETY: pool slots are type-stable Node memory; per the pool's
    // quarantine contract a recycled slot is reinitialized through
    // the node's atomic fields (`init_store` is a relaxed atomic
    // store), so a stale validator's probe never races non-atomically.
    unsafe {
        (*n).l.init_store(0);
        (*n).r.init_store(0);
        (*n).value.init_store(NULL);
    }
    policy.init_node(n);
    n
}

/// Bit 2 of a pointer word marks the pointed-to node as logically deleted
/// (bits 0–1 are reserved for the DCAS substrate).
const DELETED_BIT: u64 = 0b100;

/// Packs the paper's `pointer` struct (`node *ptr; boolean deleted`) into
/// one word.
#[inline]
pub(crate) fn pack<N>(ptr: *const N, deleted: bool) -> u64 {
    let p = ptr as u64;
    debug_assert_eq!(p & 0xF, 0, "node pointers must be 16-byte aligned");
    p | if deleted { DELETED_BIT } else { 0 }
}

#[inline]
pub(crate) fn ptr_of<N>(w: u64) -> *const N {
    (w & !0xF) as *const N
}

#[inline]
pub(crate) fn deleted_of(w: u64) -> bool {
    w & DELETED_BIT != 0
}

/// An unpublished node plus its value word, owned by a push from
/// allocation to the splicing DCAS.
/// Dropping it — which happens only if a strategy call unwinds, e.g. a
/// fault-injected kill — releases the value and frees the node; the
/// strategy unwinding contract guarantees nothing was published.
struct PendingNode<V: WordValue, P: LinkPolicy> {
    node: *mut Node<P>,
    val: u64,
    _marker: PhantomData<V>,
}

impl<V: WordValue, P: LinkPolicy> PendingNode<V, P> {
    fn new(policy: &P, v: V) -> Self {
        let node = alloc_node(policy);
        // SAFETY: freshly allocated, unpublished.
        let val = unsafe { put_value(node, v) };
        PendingNode { node, val, _marker: PhantomData }
    }

    /// The splicing DCAS published the node (which holds the value).
    fn published(self) {
        std::mem::forget(self);
    }
}

impl<V: WordValue, P: LinkPolicy> Drop for PendingNode<V, P> {
    fn drop(&mut self) {
        // SAFETY: reached only by unwinding before publication — the
        // node is private and its value unconsumed (released before
        // the node, which may hold it).
        unsafe {
            drop_value::<V, P>(self.val);
            P::free(self.node.cast());
        }
    }
}

/// An unpublished chain of nodes built by a batched push, linked
/// `first .. last` through their `l`/`r` words, owned until the single
/// splicing DCAS succeeds. Dropping it (a panicking value iterator or
/// an unwinding strategy call) walks the chain, releasing every value
/// and freeing every node.
struct Chain<V: WordValue> {
    first: *mut Node<Bit>,
    last: *mut Node<Bit>,
    _marker: PhantomData<V>,
}

impl<V: WordValue> Chain<V> {
    fn new(v: V) -> Self {
        let n = alloc_node(&Bit);
        // SAFETY: unpublished, exclusive access (and in the methods
        // below likewise: the chain is private until `publish`).
        unsafe { (*n).value.init_store(put_value(n, v)) };
        Chain { first: n, last: n, _marker: PhantomData }
    }

    /// The chain node nearest end `E` (`last` at `Right`).
    fn outer<E: End>(&self) -> *mut Node<Bit> {
        E::near(self.first, self.last)
    }

    /// The chain node farthest from end `E` (`first` at `Right`).
    fn inner<E: End>(&self) -> *mut Node<Bit> {
        E::far(self.first, self.last)
    }

    /// Links `v`'s node outside the chain at end `E`: after `last` at
    /// `Right` (push-right order), before `first` at `Left`.
    fn insert<E: End>(&mut self, v: V) {
        let n = alloc_node(&Bit);
        let outer = self.outer::<E>();
        // SAFETY: see `new`.
        unsafe {
            (*n).value.init_store(put_value(n, v));
            E::inward(&*n).init_store(pack(outer, false));
            E::outward(&*outer).init_store(pack(n, false));
        }
        *E::near(&mut self.first, &mut self.last) = n;
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
            // and interior `r` links (set by `insert`)
            // connect `first..last`.
            unsafe {
                let next = ptr_of::<Node<Bit>>((*cur).r.unsync_load_shared()) as *mut Node<Bit>;
                drop_value::<V, Bit>((*cur).value.unsync_load_shared());
                Bit::free(cur.cast());
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
    /// The deleted bit of the left sentinel's right pointer (through a
    /// dummy, for the dummy-node deque).
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
/// [`WordValue`]-encoded values, under link policy `P` (the deleted bit
/// by default; [`RawDummyListDeque`](crate::list_dummy::RawDummyListDeque)
/// and [`RawLfrcListDeque`](crate::list_lfrc::RawLfrcListDeque) name the
/// other two). Use [`ListDeque`] for arbitrary element types.
pub struct RawListDeque<V: WordValue, S: DcasStrategy, P: LinkPolicy = Bit> {
    pub(crate) strategy: S,
    /// The policy's per-deque state (LFRC's audit block).
    pub(crate) policy: P,
    /// Left sentinel (`SL`), at a fixed address for the deque's lifetime.
    sl: Box<CachePadded<Node<P>>>,
    /// Right sentinel (`SR`).
    sr: Box<CachePadded<Node<P>>>,
    _marker: PhantomData<fn(V) -> V>,
}

// SAFETY: the deque is a shared concurrent structure; all shared-word
// accesses go through the `DcasStrategy`, values are transferred between
// threads (hence `V: Send`, implied by `WordValue`), and the raw node
// pointers are managed by the strategy's reclamation backend (and, under
// LFRC, by the counts).
unsafe impl<V: WordValue, S: DcasStrategy, P: LinkPolicy> Send for RawListDeque<V, S, P> {}
unsafe impl<V: WordValue, S: DcasStrategy, P: LinkPolicy> Sync for RawListDeque<V, S, P> {}

impl<V: WordValue, S: DcasStrategy, P: LinkPolicy> Default for RawListDeque<V, S, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: WordValue, S: DcasStrategy, P: LinkPolicy> RawListDeque<V, S, P> {
    /// Creates an empty deque (the paper's `make_deque` without a length:
    /// unbounded).
    pub fn new() -> Self {
        let sl = Box::new(CachePadded::new(Node::new_blank()));
        let sr = Box::new(CachePadded::new(Node::new_blank()));
        // Initially SR->L == SL and SL->R == SR (Figure 9, top); the
        // sentinels' outward pointers are never used.
        sl.value.init_store(SENTL);
        sr.value.init_store(SENTR);
        sl.r.init_store(pack::<Node<P>>(&**sr, false));
        sr.l.init_store(pack::<Node<P>>(&**sl, false));
        RawListDeque {
            strategy: S::default(),
            policy: P::default(),
            sl,
            sr,
            _marker: PhantomData,
        }
    }

    /// The left sentinel `SL`.
    #[inline]
    pub(crate) fn slp(&self) -> *const Node<P> {
        &**self.sl
    }

    /// The right sentinel `SR`.
    #[inline]
    pub(crate) fn srp(&self) -> *const Node<P> {
        &**self.sr
    }

    /// End `E`'s sentinel (`SR` at `Right`).
    #[inline]
    fn sent<E: End>(&self) -> &Node<P> {
        E::near(&**self.sl, &**self.sr)
    }

    /// The sentinel opposite end `E` (`SL` at `Right`).
    #[inline]
    fn opp<E: End>(&self) -> &Node<P> {
        E::far(&**self.sl, &**self.sr)
    }

    /// End `E`'s sentinel inward word (`SR->L` at `Right`), where the
    /// deleted bit lives.
    #[inline]
    fn end_word<E: End>(&self) -> &DcasWord {
        E::inward(self.sent::<E>())
    }

    /// The DCAS strategy instance (for [`dcas::Counting`] statistics).
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// `true` if the strategy's backend requires the announce-and-
    /// validate protocol before dereferencing traversed nodes (hazard
    /// pointers); `false` folds every protection to a no-op (epoch).
    pub(crate) const NP: bool = <GuardOf<S> as ReclaimGuard>::NEEDS_PROTECT;

    /// Retires a spliced-out node through the strategy's reclamation
    /// backend.
    ///
    /// # Safety
    ///
    /// `node` must have been allocated by this deque and must have just
    /// been physically unlinked by a successful DCAS performed by the
    /// calling thread (so it is retired exactly once).
    pub(crate) unsafe fn retire(&self, node: *const Node<P>, guard: &GuardOf<S>) {
        // SAFETY: the node is unreachable from the list, so no new
        // operation can find it; operations that already hold a
        // reference are pinned (epoch) or have it announced (hazard).
        // The pool frees it once, after the grace period / hazard scan.
        unsafe { guard.retire(node as *mut u8, size_of::<Node<P>>(), P::free) }
    }

    /// Strategy load of a sentinel inward pointer (`SL->R` / `SR->L`)
    /// that leaves the pointed-to node protected at `slot` before the
    /// caller dereferences it. A sentinel word is a validation root:
    /// a node is only retired after a splice rewrites the sentinel word
    /// naming it (and retired nodes are never relinked), so announce +
    /// unchanged re-read proves the node was live after the announce.
    pub(crate) fn load_end_protected(&self, g: &GuardOf<S>, w: &DcasWord, slot: usize) -> u64 {
        let mut v = self.strategy.load(w);
        if Self::NP {
            loop {
                g.protect(slot, ptr_of::<Node<P>>(v) as u64);
                let v2 = self.strategy.load(w);
                if v2 == v {
                    break;
                }
                v = v2;
            }
        }
        v
    }

    /// Loads `src`, the inward link of the node `cur` that `old` names
    /// in end word `end`, and protects the neighbour it names at `slot`.
    /// `cur`'s link words freeze once it is spliced out, so a link
    /// re-read alone cannot prove the neighbour is alive; the re-read of
    /// `end` pins `cur` as still linked (retired nodes are never
    /// relinked, so no ABA), and any removal of the neighbour while
    /// `cur` is linked rewrites `cur`'s link. `None`: retry.
    pub(crate) fn load_validated(
        &self,
        g: &GuardOf<S>,
        src: &DcasWord,
        end: &DcasWord,
        old: u64,
        slot: usize,
    ) -> Option<Link<P>> {
        let nb = Link::of(self.strategy.load(src));
        if Self::NP {
            g.protect(slot, nb.node as u64);
            if ptr_of::<Node<P>>(self.strategy.load(src)) != nb.node
                || self.strategy.load(end) != old
            {
                g.clear(slot);
                return None;
            }
        }
        Some(nb)
    }

    /// `popRight` — Figure 11.
    pub fn pop_right(&self) -> Option<V> {
        self.pop::<Right>()
    }

    /// `popLeft` — Figure 32 (with the paper's line-4 typo corrected).
    pub fn pop_left(&self) -> Option<V> {
        self.pop::<Left>()
    }

    /// `pushRight` — Figure 13.
    pub fn push_right(&self, v: V) -> Result<(), Full<V>> {
        self.push::<Right>(v)
    }

    /// `pushLeft` — Figure 33 (with the paper's line-10 typo corrected:
    /// the new node's left pointer aims at `SL`, not `SR`).
    pub fn push_left(&self, v: V) -> Result<(), Full<V>> {
        self.push::<Left>(v)
    }

    // Register names in the bodies below are end-neutral: `old` is the
    // end sentinel's inward word (Figure 11's `oldL`, Figure 32's
    // `oldR`) and `cur` the node it names; `nb` is that node's inward
    // neighbour (Figure 17's `oldLL`, Figure 34's `oldRR`) and `nb_out`
    // the neighbour's outward link (`oldLLR`, `oldRRL`). Every word a
    // policy `load` or `store` took is given back with `P::drop` before
    // the word goes out of scope (a no-op except under LFRC).

    /// Figure 11 at `Right`, Figure 32 at `Left`.
    fn pop<E: End>(&self) -> Option<V> {
        let guard = S::Reclaimer::pin();
        let end = self.end_word::<E>();
        loop {
            let old = P::load(self, &guard, end, At::Near); // line 3
            let cur = old.node;
            // SAFETY: `cur` was linked at line 3 and is protected by the
            // policy's load, so the node cannot have been freed.
            let v = self.strategy.load(unsafe { &(*cur).value }); // line 4
            if v == E::FAR_SENT {
                P::drop(self, &guard, old.w);
                return None; // line 5: "empty"
            }
            if old.deleted {
                self.delete::<E>(&guard, None); // lines 6-7
            } else if v == NULL {
                // Lines 8-12: the node was deleted by a pop at the other
                // end; the deque is empty if nothing changed — confirm
                // with an identity DCAS over (end word, node value). No
                // link changes target, so it is a plain DCAS.
                // SAFETY: as above.
                if self.strategy.dcas(end, unsafe { &(*cur).value }, old.w, v, old.w, v) {
                    P::drop(self, &guard, old.w);
                    return None;
                }
            } else {
                // Lines 13-19: logically delete — swap the value to null
                // and mark the end word, in one DCAS (Figure 12). The
                // mark still names `cur` (directly or through a dummy).
                let mark = self.policy.mark(cur);
                // SAFETY: as above.
                let value = unsafe { &(*cur).value };
                if self.strategy.dcas(end, value, old.w, v, mark.word(), NULL) {
                    mark.published();
                    // SAFETY: the successful DCAS moved the value out of
                    // the node; we are its unique owner, and `cur` is
                    // still protected.
                    let v = unsafe { take_value::<V, P>(v) };
                    P::drop(self, &guard, old.w);
                    return Some(v);
                }
            }
            P::drop(self, &guard, old.w);
        }
    }

    /// Figure 13 at `Right`, Figure 33 at `Left`.
    fn push<E: End>(&self, v: V) -> Result<(), Full<V>> {
        let guard = S::Reclaimer::pin();
        // Lines 2-4: allocate the new node. (The paper returns "full" if
        // the allocator fails; Rust's global allocator aborts instead, so
        // the push path never reports full — matching the unbounded deque
        // specification of Section 2.2.) The pending guard owns node and
        // value until published; an unwinding strategy call frees both.
        let pending = PendingNode::<V, P>::new(&self.policy, v);
        let end = self.end_word::<E>();
        let sent = pack(self.sent::<E>(), false);
        let nw = pack(pending.node, false);
        loop {
            let old = P::load(self, &guard, end, At::Near); // line 6
            if old.deleted {
                // Lines 7-8, with the push folded into the splice: if
                // `delete` links the node itself, the push is done.
                if self.delete::<E>(&guard, Some(&pending)) {
                    pending.published();
                    P::drop(self, &guard, nw); // the creator's reference
                    P::drop(self, &guard, old.w);
                    return Ok(()); // "okay"
                }
            } else {
                // Lines 10-13: initialize the unpublished node (see
                // `fill`); its inward link names the node line 6 read.
                self.fill::<E>(&pending, old.w);
                // Lines 14-18: splice in by redirecting the end word and
                // the old neighbor's outward pointer (expected to name
                // the sentinel) to the new node (Figure 14).
                // SAFETY: `old.node` reachable at line 6, protected.
                let cur_out = E::outward(unsafe { &*old.node });
                if P::dcas(self, &guard, (end, cur_out), (old.w, sent), (nw, nw), || ()) {
                    pending.published();
                    P::drop(self, &guard, nw); // the creator's reference
                    P::drop(self, &guard, old.w);
                    return Ok(()); // "okay"
                }
                // The node's inward link is stored afresh on the retry.
                P::drop(self, &guard, old.w);
            }
            P::drop(self, &guard, old.w);
        }
    }

    /// Figure 13/33 lines 10-13: initializes the unpublished node of a
    /// push at end `E` so that it may be linked as the outermost node at
    /// `E`. Its outward link names this end's own sentinel (the
    /// Figure 33 correction), its inward link names `inward` (counted by
    /// `P::store`; the caller gives that count back with `P::drop` if
    /// the DCAS that would publish the node fails). These are plain
    /// stores; the publishing DCAS provides the release edge. Returns
    /// the word that names the node.
    fn fill<E: End>(&self, pending: &PendingNode<V, P>, inward: u64) -> u64 {
        let node = pending.node;
        // SAFETY: `node` is not yet published; the pushing thread has
        // exclusive access.
        unsafe {
            E::outward(&*node).init_store(pack(self.sent::<E>(), false));
            P::store(self, E::inward(&*node), inward);
            (*node).value.init_store(pending.val);
        }
        pack(node, false)
    }

    /// Figure 17 (`deleteRight`) at `Right`, Figure 34 (`deleteLeft`) at
    /// `Left`: completes a pending physical deletion at end `E`.
    ///
    /// A pop passes no `fill`. A push passes its unpublished node, and
    /// then the winning splice DCAS links that node in place of what it
    /// unlinks and returns `true`: the push is done, and that DCAS is its
    /// linearization point. `false` means the deletion was completed and
    /// the node, if any, is still unpublished.
    ///
    /// # Why one DCAS may do both
    ///
    /// Each fused DCAS is exactly the old splice DCAS followed by the
    /// push DCAS (Figure 13/33 lines 14-18) that would succeed right
    /// after it:
    ///
    /// * Figure 15, neighbour `nb` live or the far sentinel: the splice
    ///   `(end, nb.outward): (marked cur, cur) → (nb, sent)` leaves the
    ///   end word naming `nb` unmarked and `nb.outward` naming the
    ///   sentinel. A push that then reads `nb` at line 6 stores `nb` in
    ///   the node's inward link and runs `(end, nb.outward): (nb, sent)
    ///   → (node, node)`, which succeeds if no step fell in between.
    ///   Composed: `(marked cur, cur) → (node, node)`, with the node's
    ///   inward link naming `nb`.
    /// * Figure 16, two nulls: the double splice `(end, far): (marked
    ///   cur, marked nb) → (opp, sent)` leaves the deque empty. A push
    ///   that then reads `opp` at line 6 stores `opp` in the node's
    ///   inward link and runs `(end, far): (opp, sent) → (node, node)`,
    ///   since `far` is `opp`'s outward link. Composed: `(marked cur,
    ///   marked nb) → (node, node)`, the node's inward link naming `opp`.
    ///
    /// The intermediate state is never visible, and every check before
    /// the fused DCAS is the splice's own, so every run of this code is a
    /// run of the paper's in which no other step falls between the two
    /// DCASes: the splice is not a linearization point, so the push
    /// linearizes at the fused DCAS. The nodes unlinked, and so
    /// `P::unlinked`, are the splice's. Under LFRC the node's inward link
    /// counts `nb` once through `P::store`, where the splice counted it
    /// for the end word; the new end-word and link targets are the node
    /// itself, counted by `P::dcas` as the push's DCAS counts them. The
    /// list, dummy and LFRC step machines of `dcas-modelcheck` check
    /// the fused step (`DelSpliceDcas` and `DelTwoNullDcas` with a push).
    fn delete<E: End>(&self, guard: &GuardOf<S>, fill: Option<&PendingNode<V, P>>) -> bool {
        let end = self.end_word::<E>();
        loop {
            let old = P::load(self, guard, end, At::Near); // line 3
            if !old.deleted {
                P::drop(self, guard, old.w);
                return false; // line 4: someone else finished the deletion
            }
            let cur = old.node;
            // SAFETY (this and subsequent derefs): `cur` is protected via
            // the sentinel root above; `nb` by the policy's inward load.
            // See the module docs' reclamation section.
            let src = E::inward(unsafe { &*cur });
            let Some(nb) = P::load_inward(self, guard, src, end, old.w) else {
                P::drop(self, guard, old.w);
                continue; // line 5 raced a splice; restart
            };
            let v = self.strategy.load(unsafe { &(*nb.node).value }); // line 6
            if v != NULL {
                // Lines 6-14: the neighbor is live (or is the far
                // sentinel); splice out the null node by pointing this
                // end's sentinel and that neighbor at each other
                // (Figure 15), or both at the filled node between them.
                let nb_link = E::outward(unsafe { &*nb.node });
                let nb_out = P::load(self, guard, nb_link, At::Neighbour); // line 7
                // A deleted bit on a neighbor's outward pointer is a
                // batch-pop tombstone: `nb` is retired, so the splice
                // below must not resurrect it (re-read and take the
                // other path).
                if nb_out.node == cur
                    && !nb_out.deleted
                    // Lines 8-13 (Figure 34: 8-14).
                    && self.splice::<E>(
                        guard,
                        (end, nb_link),
                        (old.w, nb_out.w),
                        pack(nb.node, false),
                        fill,
                        // SAFETY: our DCAS unlinked `cur`.
                        || unsafe { P::unlinked::<E, V, S>(self, guard, &old, None) },
                    )
                {
                    P::drop(self, guard, nb_out.w);
                    P::drop(self, guard, nb.w);
                    P::drop(self, guard, old.w);
                    return fill.is_some();
                }
                P::drop(self, guard, nb_out.w);
            } else {
                // Lines 16-26: two null items — both remaining nodes are
                // logically deleted. Point the sentinels at each other
                // (or both at the filled node), racing any concurrent
                // delete at the other end (Figure 16).
                let far = E::outward(self.opp::<E>());
                let far_old = P::load(self, guard, far, At::Far); // line 17
                // Line 18 (Figure 34: line 22), plus a check the paper
                // omits: the far sentinel's word must name the null
                // neighbour read at line 5. Otherwise the other end moved
                // in between and a live node may sit between the two null
                // ones (DESIGN.md, "Known errata").
                if far_old.deleted
                    && far_old.node == nb.node
                    // Lines 19-25.
                    && self.splice::<E>(
                        guard,
                        (end, far),
                        (old.w, far_old.w),
                        pack(self.opp::<E>(), false),
                        fill,
                        // SAFETY: our DCAS unlinked both null nodes.
                        || unsafe { P::unlinked::<E, V, S>(self, guard, &old, Some(&far_old)) },
                    )
                {
                    P::drop(self, guard, far_old.w);
                    P::drop(self, guard, nb.w);
                    P::drop(self, guard, old.w);
                    return fill.is_some();
                }
                P::drop(self, guard, far_old.w);
            }
            P::drop(self, guard, nb.w);
            P::drop(self, guard, old.w);
        }
    }

    /// One splice DCAS of `delete` over `words`, expecting `old`. The
    /// paper writes `to` (the end word's new target) and this end's
    /// sentinel into them. With a `fill`, both words name the filled node
    /// instead, whose inward link names `to` and outward link the
    /// sentinel: the splice and the push that would follow it, in one
    /// DCAS. A failed fill gives back the count its inward link took.
    fn splice<E: End>(
        &self,
        guard: &GuardOf<S>,
        words: (&DcasWord, &DcasWord),
        old: (u64, u64),
        to: u64,
        fill: Option<&PendingNode<V, P>>,
        unlinked: impl FnOnce(),
    ) -> bool {
        let Some(f) = fill else {
            return P::dcas(self, guard, words, old, (to, pack(self.sent::<E>(), false)), unlinked);
        };
        let nw = self.fill::<E>(f, to);
        let won = P::dcas(self, guard, words, old, (nw, nw), unlinked);
        if !won {
            P::drop(self, guard, to);
        }
        won
    }

    /// Quiescent snapshot of the list structure (see [`ListLayout`]);
    /// dummies are resolved away, so every policy reports the same
    /// layout for the same history.
    pub fn layout(&self) -> ListLayout {
        let _guard = S::Reclaimer::pin();
        let left = P::peek(self, self.strategy.load(&self.sl.r));
        let right = P::peek(self, self.strategy.load(&self.sr.l));
        let mut cells = Vec::new();
        let mut cur = left.node;
        while cur != self.srp() {
            // SAFETY: quiescent per the method contract; nodes linked from
            // SL are alive.
            let v = self.strategy.load(unsafe { &(*cur).value });
            cells.push((v != NULL).then_some(v));
            cur = ptr_of(self.strategy.load(unsafe { &(*cur).r }));
        }
        ListLayout { cells, left_deleted: left.deleted, right_deleted: right.deleted }
    }
}

impl<V: WordValue, S: DcasStrategy> RawListDeque<V, S, Bit> {
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
    ) -> Option<*const Node<Bit>> {
        let next = ptr_of(self.strategy.load(link));
        if !Self::NP {
            return Some(next);
        }
        g.protect(slot, next as u64);
        if ptr_of::<Node<Bit>>(self.strategy.load(link)) != next
            || self.strategy.load(value) == NULL
        {
            g.clear(slot);
            return None;
        }
        Some(next)
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
        self.push_n::<Right, _>(vals)
    }

    /// Pushes all of `vals` at the left end in **one** DCAS, in order
    /// (the last element ends up leftmost). Mirror of
    /// [`push_right_n`](Self::push_right_n).
    pub fn push_left_n<I>(&self, vals: I) -> Result<(), Full<Vec<V>>>
    where
        I: IntoIterator<Item = V>,
    {
        self.push_n::<Left, _>(vals)
    }

    fn push_n<E: End, I>(&self, vals: I) -> Result<(), Full<Vec<V>>>
    where
        I: IntoIterator<Item = V>,
    {
        let mut it = vals.into_iter();
        let Some(v0) = it.next() else { return Ok(()) };
        let guard = S::Reclaimer::pin();
        // Build the chain in push order, linking each node as the
        // iterator yields it — no intermediate buffers. Each node goes
        // outside the previous one, so the chain reads like repeated
        // one-node pushes at `E`. The chain guard owns every node and
        // value until the splice: a panicking iterator or an unwinding
        // strategy call releases the partial chain instead of leaking it.
        let mut chain = Chain::new(v0);
        for v in it {
            chain.insert::<E>(v);
        }
        let (inner, outer) = (chain.inner::<E>(), chain.outer::<E>());
        let end = self.end_word::<E>();
        let sent = pack(self.sent::<E>(), false);
        // SAFETY: the chain is unpublished; we have exclusive access.
        unsafe { E::outward(&*outer).init_store(sent) };
        let mut backoff = Backoff::new();
        loop {
            let old = self.load_end_protected(&guard, end, 0);
            if deleted_of(old) {
                self.delete::<E>(&guard, None);
            } else {
                let cur = ptr_of::<Node<Bit>>(old);
                // SAFETY: `inner` is still unpublished.
                unsafe { E::inward(&*inner).init_store(old) };
                // SAFETY: `cur` reachable above, pinned.
                if self.strategy.dcas(
                    end,
                    E::outward(unsafe { &*cur }),
                    old,
                    sent,
                    pack(outer, false),
                    pack(inner, false),
                ) {
                    chain.publish();
                    return Ok(());
                }
                backoff.snooze();
            }
        }
    }

    /// Pops up to `k` values nearest end `E` in one CASN, appending them
    /// to `out` (nearest first; `out` first reserves room for `total` in
    /// all, only once there is a value to hold) and returning whether
    /// the deque was exhausted. The walk goes inward from the end word.
    /// At `Left` the CASN covers (mirrored at `Right`):
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
    fn pop_chunk<E: End>(
        &self,
        k: usize,
        total: usize,
        out: &mut Vec<V>,
        guard: &GuardOf<S>,
    ) -> bool {
        debug_assert!((1..=MAX_BATCH).contains(&k));
        let end = self.end_word::<E>();
        let mut backoff = Backoff::new();
        loop {
            let old = self.load_end_protected(guard, end, 0);
            if deleted_of(old) {
                self.delete::<E>(guard, None);
                continue;
            }
            let cur = ptr_of::<Node<Bit>>(old);
            // SAFETY (this and subsequent derefs): `cur` is protected via
            // the sentinel root; every further node the walk reaches is
            // protected by `protected_step` before it is dereferenced
            // (node at walk position `i` holds slot `i`).
            let v1 = self.strategy.load(unsafe { &(*cur).value });
            if v1 == E::FAR_SENT {
                return true; // empty at the end-word read
            }
            if v1 == NULL {
                // Deleted from the other end; empty if nothing changed —
                // confirm exactly as the single pop does.
                if self.strategy.dcas(end, unsafe { &(*cur).value }, old, NULL, old, NULL) {
                    return true;
                }
                backoff.snooze();
                continue;
            }
            // Collect up to k live nodes inward; `next` ends as n_{j+1}
            // (the far sentinel, a null node, or the first node past the
            // batch).
            let mut nodes = [std::ptr::null::<Node<Bit>>(); MAX_BATCH];
            let mut vals = [0u64; MAX_BATCH];
            nodes[0] = cur;
            vals[0] = v1;
            let mut j = 1;
            // SAFETY: `cur` (and below, each `next` once stored into
            // `nodes`) is protected; see the loop-head comment.
            let Some(mut next) = self.protected_step(
                guard,
                E::inward(unsafe { &*cur }),
                unsafe { &(*cur).value },
                1,
            ) else {
                backoff.snooze();
                continue;
            };
            let mut raced = false;
            while j < k {
                // SAFETY: `next` was protected by the step that found it.
                let v = self.strategy.load(unsafe { &(*next).value });
                if v == E::FAR_SENT || v == NULL {
                    break;
                }
                nodes[j] = next;
                vals[j] = v;
                j += 1;
                // SAFETY: as above.
                let step = self.protected_step(
                    guard,
                    E::inward(unsafe { &*next }),
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
            let mut entries = [CasnEntry::new(end, NULL, NULL); MAX_BATCH + 3];
            entries[0] = CasnEntry::new(end, old, pack(next, false));
            // SAFETY: `n_j` and `next` were reachable during the scan.
            entries[1] = CasnEntry::new(
                E::inward(unsafe { &*n_j }),
                pack(next, false),
                pack(next, true), // tombstone (see doc comment)
            );
            entries[2] = CasnEntry::new(
                E::outward(unsafe { &*next }),
                pack(n_j, false),
                pack(self.sent::<E>(), false),
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
                out.reserve(total - out.len());
                out.extend(vals[..j].iter().map(|&w| unsafe { take_value::<V, Bit>(w) }));
                for &n in &nodes[..j] {
                    // SAFETY: our CASN unlinked the chain `n_1..n_j`.
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
        self.pop_n::<Left>(n)
    }

    /// Pops up to `n` values from the right end, rightmost first, in
    /// atomic chunks. See [`pop_left_n`](Self::pop_left_n).
    pub fn pop_right_n(&self, n: usize) -> Vec<V> {
        self.pop_n::<Right>(n)
    }

    /// An empty deque costs no allocation: `out` stays unallocated
    /// until a chunk yields values, and then reserves room for all `n`.
    fn pop_n<E: End>(&self, n: usize) -> Vec<V> {
        let guard = S::Reclaimer::pin();
        let mut out = Vec::new();
        while out.len() < n {
            let k = (n - out.len()).min(MAX_BATCH);
            if self.pop_chunk::<E>(k, n, &mut out, &guard) {
                break;
            }
        }
        out
    }
}

impl<V: WordValue, S: DcasStrategy, P: LinkPolicy> Drop for RawListDeque<V, S, P> {
    fn drop(&mut self) {
        // Exclusive access: no operation in flight, no descriptors
        // installed. Walk the physical list, freeing interior nodes and
        // any unconsumed values. Nodes already retired to the
        // reclamation backend are no longer linked and are freed by
        // their queued destructors.
        // SAFETY: quiescence per `&mut self`.
        unsafe {
            let left = P::peek(self, self.sl.r.unsync_load_shared());
            let right = P::peek(self, self.sr.l.unsync_load_shared());
            // A sentinel word naming a node other than the one it
            // resolves to names a dummy standing in for the deleted bit.
            for end in [&left, &right] {
                if ptr_of::<Node<P>>(end.w) != end.node {
                    P::free(ptr_of::<Node<P>>(end.w) as *mut u8);
                }
            }
            let mut cur = left.node;
            while cur != self.srp() {
                let node = cur as *mut Node<P>;
                let v = (*node).value.unsync_load_shared();
                if v != NULL {
                    drop_value::<V, P>(v);
                }
                cur = ptr_of((*node).r.unsync_load_shared());
                P::free(node.cast());
            }
        }
    }
}

/// The linked-list-based unbounded deque of the paper's Section 4, for
/// arbitrary element types `T` and any DCAS strategy `S` (lock-free
/// [`HarrisMcas`] by default), under link policy `P`: the deleted bit
/// by default, or the dummy-node and GC-free variants as
/// [`DummyListDeque`](crate::DummyListDeque) and
/// [`LfrcListDeque`](crate::LfrcListDeque).
///
/// A `T` of at most 8 bytes (and alignment at most 8) lives in its list
/// node's spare word, so each element costs one allocation, the node;
/// a larger `T` is heap-boxed per element. The choice is made at
/// compile time from `T`'s layout.
///
/// See the [module documentation](self) for the algorithm and
/// [`RawListDeque`] for the word-level API used by benches.
pub struct ListDeque<T: Send, S: DcasStrategy = HarrisMcas, P: LinkPolicy = Bit> {
    pub(crate) raw: RawListDeque<NodeValue<T>, S, P>,
}

impl<T: Send, S: DcasStrategy, P: LinkPolicy> Default for ListDeque<T, S, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send, S: DcasStrategy, P: LinkPolicy> ListDeque<T, S, P> {
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

    /// Quiescent layout snapshot (see [`RawListDeque::layout`]).
    pub fn layout(&self) -> ListLayout {
        self.raw.layout()
    }
}

impl<T: Send, S: DcasStrategy> ListDeque<T, S, Bit> {
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
}

/// The batch operations run chunk-atomic under the bit policy and one
/// element at a time under the other two.
impl<T: Send, S: DcasStrategy, P: LinkPolicy> ConcurrentDeque<T> for ListDeque<T, S, P> {
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
        match P::batched(self) {
            Some(d) => d.push_right_n(vals),
            None => push_each(vals, |v| self.push_right(v)),
        }
    }

    fn push_left_n(&self, vals: Vec<T>) -> Result<(), Full<Vec<T>>> {
        match P::batched(self) {
            Some(d) => d.push_left_n(vals),
            None => push_each(vals, |v| self.push_left(v)),
        }
    }

    fn pop_right_n(&self, n: usize) -> Vec<T> {
        match P::batched(self) {
            Some(d) => d.pop_right_n(n),
            None => pop_each(n, || self.pop_right()),
        }
    }

    fn pop_left_n(&self, n: usize) -> Vec<T> {
        match P::batched(self) {
            Some(d) => d.pop_left_n(n),
            None => pop_each(n, || self.pop_left()),
        }
    }

    fn impl_name(&self) -> &'static str {
        P::NAME
    }
}
