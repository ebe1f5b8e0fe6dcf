//! The Sundell–Tsigas lock-free deque — the **CAS-only competitor** to
//! the paper's DCAS algorithms ("Lock-Free and Practical Deques and
//! Doubly Linked Lists using Single-Word Compare-And-Swap", Sundell &
//! Tsigas; see PAPERS.md).
//!
//! The 2000 DCAS paper argues deques are impractical with single-word
//! CAS; this algorithm is the later refutation. It is a doubly-linked
//! list between two sentinels in which the `next` chain is
//! authoritative and `prev` pointers are lagging hints, repaired on
//! demand:
//!
//! * **Push** is a two-step insert: one CAS publishes the node into the
//!   predecessor's `next` word, then `push_common` (helpable) swings the
//!   successor's `prev` word back to it.
//! * **Pop** marks the victim's own `next` word (logical deletion — the
//!   unique mark winner owns the value), then `help_delete` splices the
//!   node out of the `next` chain and `help_insert` repairs the
//!   successor's `prev` hint. Any thread that encounters a marked node
//!   can complete both repairs, which is what makes the deque lock-free.
//!
//! No descriptors and no DCAS anywhere: every shared-word transition is
//! one single-word CAS through [`DcasStrategy::cas`], so the strategy's
//! DCAS/CASN machinery is never exercised. Wired into the same
//! [`ConcurrentDeque`] surface as the DCAS deques, this is the repo's
//! CAS-only comparison arm for them.
//!
//! # Memory reclamation
//!
//! The original algorithm leans on lock-free reference counting. We keep
//! the counting idea but route the actual retirement through the
//! pluggable [`Reclaimer`] backend (PR 8), so the deque runs under both
//! the epoch and the hazard-pointer reclaimers:
//!
//! * Every node carries a **link count**: the number of shared words
//!   (`head.next`/`tail.prev` and live or dead nodes' `prev`/`next`
//!   words) currently naming it, plus in-flight installation
//!   reservations. The invariant is that *any* shared word naming a
//!   non-sentinel node implies its count is at least one.
//! * A CAS that installs a pointer first **reserves** the target
//!   (increment-from-nonzero; zero is terminal, so a retired node can
//!   never be resurrected) and releases the displaced pointer's unit on
//!   success. Mark-only CASes leave the pointer part unchanged and need
//!   no accounting.
//! * When a count hits zero the node **dies**: each of its link words is
//!   taken over (CAS loop — a racing helper may still install a reserved
//!   unit, which the takeover then releases) and retargeted to a marked
//!   sentinel, the displaced targets are released (cascading deaths run
//!   off a worklist, not recursion), and the node's memory is retired
//!   through the reclamation guard.
//! * `remove_cross_reference` (run by each pop on its own node)
//!   retargets the dead node's outgoing links past already-deleted
//!   neighbors, which orders dead-node references by deletion time and
//!   thus keeps the dead-node graph acyclic — every dead chain collapses
//!   once its newest member is unreferenced.
//!
//! Under the hazard backend every dereference follows the same
//! announce-and-validate protocol as the DCAS list deque: protect the
//! candidate, re-read the word it came from, and retry on mismatch — a
//! stable re-read proves the count was nonzero (the word named it) and
//! hence the node unretired when the hazard landed.
//!
//! A thread killed between reserving and installing leaks that unit, so
//! a node reachable only through it is never retired: bounded,
//! kill-proportional *node-memory* garbage (values are always owned by
//! the mark winner, so value conservation is unaffected — the torture
//! suite asserts exactly this).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use dcas::{Backoff, DcasStrategy, DcasWord, HarrisMcas, NodePool, ReclaimGuard, Reclaimer};

use crate::reserved::{SENTL, SENTR};
use crate::value::{Boxed, WordValue};
use crate::{ConcurrentDeque, Full};

#[cfg(test)]
mod tests;

/// The guard type of a strategy's reclamation backend.
type GuardOf<S> = <<S as DcasStrategy>::Reclaimer as Reclaimer>::Guard;

/// Fault-injection hooks at the algorithm's own decision points. The
/// deque never takes the strategy's DCAS/CASN paths, so the MCAS
/// protocol's hooks can't reach it; these mirror them: `PreInstall`
/// before a push's publish CAS, `MidHelping` inside every retry/helping
/// loop (`$ef` records whether the in-flight op has published state or
/// taken value ownership — the panic-kill precondition), `PreRelease` at
/// op exit.
#[cfg(feature = "fault-inject")]
macro_rules! fault_hit {
    ($p:ident, $ef:expr) => {
        dcas::fault::hit(dcas::FaultPoint::$p, $ef)
    };
}
#[cfg(not(feature = "fault-inject"))]
macro_rules! fault_hit {
    ($p:ident, $ef:expr) => {{
        let _ = $ef;
    }};
}

/// A deque node: two link words, the immutable-after-publish value word,
/// and the link count. 16-byte alignment keeps the low bits of node
/// addresses clear for the substrate tag bits and the deleted flag.
#[repr(align(16))]
struct Node {
    /// `⟨ptr, mark⟩` to the left neighbor (lagging hint). A set mark
    /// means **this** node is logically deleted.
    prev: DcasWord,
    /// `⟨ptr, mark⟩` to the right neighbor (authoritative chain).
    next: DcasWord,
    /// Encoded user value; written once before publication.
    value: DcasWord,
    /// Shared-word reference count (see the module docs). Zero is
    /// terminal.
    links: AtomicU64,
}

impl Node {
    fn new_blank() -> Node {
        Node {
            prev: DcasWord::new(0),
            next: DcasWord::new(0),
            value: DcasWord::new(0),
            links: AtomicU64::new(0),
        }
    }
}

/// Page pool for this module's nodes (sentinels stay boxed).
static NODE_POOL: NodePool = NodePool::new("sundell", std::mem::size_of::<Node>(), 16);

/// This module's node page pool (read-only; for allocator gauges).
pub fn node_pool() -> &'static NodePool {
    &NODE_POOL
}

/// Allocates a blank node (with `links` birth units) from the page pool.
fn alloc_node(links: u64) -> *mut Node {
    let n = NODE_POOL.alloc().cast::<Node>();
    // SAFETY: type-stable pool slot, reinitialized through the atomic
    // fields per the pool's quarantine contract (`init_store` and
    // `store(Relaxed)` are atomic stores).
    unsafe {
        (*n).prev.init_store(0);
        (*n).next.init_store(0);
        (*n).value.init_store(0);
        (*n).links.store(links, Ordering::Relaxed);
    }
    n
}

/// Immediately frees an unpublished or quiescent node.
///
/// # Safety
///
/// `n` must come from [`alloc_node`], be freed once, and be unreachable
/// by other threads.
unsafe fn free_node_now(n: *mut Node) {
    unsafe { NodePool::dealloc(n.cast()) };
}

/// Bit 2 of a link word marks the word's **owner** as logically deleted
/// (bits 0–1 are reserved for the DCAS substrate).
const DELETED_BIT: u64 = 0b100;

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

/// An unpublished node plus its encoded value, owned by a push from
/// allocation to the publish CAS. Dropping it — only by unwinding out of
/// a strategy call or a fault hook — frees both; nothing was published.
struct Pending<V: WordValue> {
    node: *mut Node,
    val: u64,
    _marker: PhantomData<V>,
}

impl<V: WordValue> Pending<V> {
    fn new(v: V) -> Self {
        // Born with one unit: consumed by the predecessor's `next` word
        // at the publish CAS.
        let node = alloc_node(1);
        let val = v.encode();
        // SAFETY: the node is private until published.
        unsafe { (*node).value.init_store(val) };
        Pending { node, val, _marker: PhantomData }
    }

    fn published(self) {
        std::mem::forget(self);
    }
}

impl<V: WordValue> Drop for Pending<V> {
    fn drop(&mut self) {
        // SAFETY: reached only before publication — node private, value
        // unconsumed.
        unsafe {
            free_node_now(self.node);
            V::drop_encoded(self.val);
        }
    }
}

// Hazard-slot layout (disjoint roles; at most 7 live protections per op).
const SLOT_OP: usize = 0;
const SLOT_PREV: usize = 1;
const SLOT_NODE2: usize = 2;
const SLOT_LAST: usize = 3;
const SLOT_TMP: usize = 4;
const SLOT_RCR_A: usize = 5;
const SLOT_RCR_B: usize = 6;

/// Word-level Sundell–Tsigas deque storing [`WordValue`]-encoded values.
/// Use [`SundellDeque`] for arbitrary element types.
pub struct RawSundellDeque<V: WordValue, S: DcasStrategy> {
    strategy: S,
    /// Left sentinel; its `next` word is the authoritative list head.
    head: Box<CachePadded<Node>>,
    /// Right sentinel; its `prev` word is the (lagging) list tail hint.
    tail: Box<CachePadded<Node>>,
    _marker: PhantomData<fn(V) -> V>,
}

// SAFETY: all shared-word accesses go through the `DcasStrategy`, link
// counts are atomic, values are `Send` (implied by `WordValue`), and
// node lifetimes are governed by the count + reclamation protocol.
unsafe impl<V: WordValue, S: DcasStrategy> Send for RawSundellDeque<V, S> {}
unsafe impl<V: WordValue, S: DcasStrategy> Sync for RawSundellDeque<V, S> {}

impl<V: WordValue, S: DcasStrategy> Default for RawSundellDeque<V, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: WordValue, S: DcasStrategy> RawSundellDeque<V, S> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        let head = Box::new(CachePadded::new(Node::new_blank()));
        let tail = Box::new(CachePadded::new(Node::new_blank()));
        let hp: *const Node = &**head;
        let tp: *const Node = &**tail;
        head.value.init_store(SENTL);
        tail.value.init_store(SENTR);
        head.next.init_store(pack(tp, false));
        tail.prev.init_store(pack(hp, false));
        // The sentinels' outward words stay null and unmarked.
        RawSundellDeque { strategy: S::default(), head, tail, _marker: PhantomData }
    }

    /// The DCAS strategy instance (for counter snapshots).
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    #[inline]
    fn headp(&self) -> *const Node {
        &**self.head
    }

    #[inline]
    fn tailp(&self) -> *const Node {
        &**self.tail
    }

    /// Sentinels (and null) are never counted or retired.
    #[inline]
    fn uncounted(&self, p: *const Node) -> bool {
        p.is_null() || p == self.headp() || p == self.tailp()
    }

    /// Whether the backend requires announce-and-validate before
    /// dereferencing traversed nodes.
    const NP: bool = <GuardOf<S> as ReclaimGuard>::NEEDS_PROTECT;

    /// Protected load of a link word `w` (which must itself be readable:
    /// a sentinel word or a field of a node protected at another slot).
    /// Announces `slot` on the named node and re-reads until stable; a
    /// stable re-read proves the node was named by a shared word — hence
    /// count ≥ 1, hence unretired — after the announce.
    fn load_link(&self, g: &GuardOf<S>, w: &DcasWord, slot: usize) -> u64 {
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

    /// Moves the protection at `slot` to the node named by `w` (a field
    /// of the node currently protected at `slot`, which stays protected
    /// via `SLOT_TMP` until the new announce is validated). Returns the
    /// stable word.
    fn step(&self, g: &GuardOf<S>, w: &DcasWord, slot: usize) -> u64 {
        let v = self.load_link(g, w, SLOT_TMP);
        if Self::NP {
            g.protect(slot, ptr_of(v) as u64);
            g.clear(SLOT_TMP);
        }
        v
    }

    /// Adds one reservation to `p`'s link count; `false` if the count is
    /// already zero (the node is dead — zero is terminal, so a reserve
    /// can never resurrect it). The caller must hold `p` readable
    /// (protected or pinned).
    fn reserve(&self, p: *const Node) -> bool {
        if self.uncounted(p) {
            return true;
        }
        // SAFETY: readable per the method contract.
        let links = unsafe { &(*p).links };
        let mut c = links.load(Ordering::Acquire);
        loop {
            if c == 0 {
                return false;
            }
            match links.compare_exchange_weak(c, c + 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return true,
                Err(cur) => c = cur,
            }
        }
    }

    /// Releases one unit of `p` (a displaced shared-word reference or a
    /// canceled reservation). A count hitting zero kills the node: its
    /// link words are taken over (CAS loop, so a concurrently installed
    /// reserved unit is released rather than leaked) and retargeted to
    /// marked sentinels, the displaced targets are released in turn
    /// (worklist — deaths cascade), and the memory is retired through
    /// the reclamation guard.
    fn release(&self, p: *const Node, guard: &GuardOf<S>) {
        let mut work = vec![p];
        while let Some(p) = work.pop() {
            if self.uncounted(p) {
                continue;
            }
            // SAFETY: `p` was named by a shared word (or a reservation)
            // the caller just gave up, so it was unretired at that
            // instant; it is not retired until below, after this unique
            // zero-transition.
            let node = unsafe { &*p };
            if node.links.fetch_sub(1, Ordering::AcqRel) != 1 {
                continue;
            }
            let takeovers: [(&DcasWord, u64); 2] = [
                (&node.prev, pack(self.headp(), true)),
                (&node.next, pack(self.tailp(), true)),
            ];
            for (w, repl) in takeovers {
                loop {
                    let v = self.strategy.load(w);
                    if self.strategy.cas(w, v, repl) {
                        work.push(ptr_of(v));
                        break;
                    }
                }
            }
            // SAFETY: count is zero and terminal — no shared word names
            // the node and none ever will again; retire exactly once.
            unsafe { self.retire(p, guard) };
        }
    }

    /// Retires a dead node through the strategy's reclamation backend.
    ///
    /// # Safety
    ///
    /// `p` must have been allocated by this deque's push path and have
    /// just taken its unique link-count zero transition.
    unsafe fn retire(&self, p: *const Node, guard: &GuardOf<S>) {
        // SAFETY: per the method contract; threads that can still reach
        // the memory are pinned (epoch) or have it announced (hazard).
        // The pool frees the node once, post-scan.
        unsafe { guard.retire(p as *mut u8, std::mem::size_of::<Node>(), NodePool::dealloc) };
    }

    /// Marks `w`'s owner deleted (idempotent; pointer part untouched, so
    /// no accounting).
    fn set_mark(&self, w: &DcasWord) {
        loop {
            let v = self.strategy.load(w);
            if deleted_of(v) || self.strategy.cas(w, v, pack(ptr_of(v), true)) {
                return;
            }
        }
    }

    /// `PushLeft`. The publish CAS moves `head.next` from the old first
    /// node to the new one; the displaced unit transfers to the new
    /// node's `next` word (set just before), so no reservation is
    /// needed.
    pub fn push_left(&self, v: V) -> Result<(), Full<V>> {
        let guard = S::Reclaimer::pin();
        let pending = Pending::<V>::new(v);
        let node = pending.node;
        if Self::NP {
            // Trivially valid: the node is still private.
            guard.protect(SLOT_OP, node as u64);
        }
        let mut backoff = Backoff::new();
        loop {
            fault_hit!(PreInstall, true);
            let next_w = self.load_link(&guard, &self.head.next, SLOT_NODE2);
            let next = ptr_of(next_w);
            // SAFETY: `node` is private; re-initializing on retry is fine.
            unsafe {
                (*node).prev.init_store(pack(self.headp(), false));
                (*node).next.init_store(pack(next, false));
            }
            if self
                .strategy
                .cas(&self.head.next, pack(next, false), pack(node, false))
            {
                pending.published();
                self.push_common(&guard, node, next);
                fault_hit!(PreRelease, false);
                return Ok(());
            }
            // Lost the publish race: nothing shared yet, so this retry
            // point is effect-free (an unwinding kill frees `pending`).
            fault_hit!(PreRelease, true);
            backoff.snooze();
        }
    }

    /// `PushRight`. `tail.prev` is only a hint, so the rightmost node is
    /// validated by its own `next` word; the publish CAS installs the
    /// node into `prev.next`, with `prev` reserved for the new node's
    /// `prev` backlink.
    pub fn push_right(&self, v: V) -> Result<(), Full<V>> {
        let guard = S::Reclaimer::pin();
        let pending = Pending::<V>::new(v);
        let node = pending.node;
        if Self::NP {
            guard.protect(SLOT_OP, node as u64);
        }
        let mut backoff = Backoff::new();
        loop {
            fault_hit!(PreInstall, true);
            let prev_w = self.load_link(&guard, &self.tail.prev, SLOT_PREV);
            let prev = ptr_of(prev_w);
            // SAFETY: `prev` is protected at SLOT_PREV (or is the head
            // sentinel).
            let pn = self.strategy.load(unsafe { &(*prev).next });
            if pn != pack(self.tailp(), false) {
                // `prev` is not the rightmost live node (deleted, or the
                // hint lags); repair `tail.prev` and retry.
                if deleted_of(pn) && !self.uncounted(prev) {
                    self.help_insert(&guard, self.headp(), self.tailp(), true);
                } else {
                    self.help_insert(&guard, prev, self.tailp(), true);
                }
                continue;
            }
            // SAFETY: `node` is private until the CAS below.
            unsafe {
                (*node).prev.init_store(pack(prev, false));
                (*node).next.init_store(pack(self.tailp(), false));
            }
            if !self.reserve(prev) {
                continue; // `prev` died under us; re-read the hint
            }
            // SAFETY: `prev` protected as above.
            if self.strategy.cas(
                unsafe { &(*prev).next },
                pack(self.tailp(), false),
                pack(node, false),
            ) {
                pending.published();
                self.push_common(&guard, node, self.tailp());
                fault_hit!(PreRelease, false);
                return Ok(());
            }
            self.release(prev, &guard);
            // Publish race lost and the reservation returned: effect-free.
            fault_hit!(PreRelease, true);
            backoff.snooze();
        }
    }

    /// Second insert step (helpable): swing `next.prev` back to `node`.
    /// `node` must be protected at [`SLOT_OP`] and `next` at
    /// [`SLOT_NODE2`] (or be a sentinel).
    fn push_common(&self, guard: &GuardOf<S>, node: *const Node, next: *const Node) {
        let mut backoff = Backoff::new();
        loop {
            fault_hit!(MidHelping, false);
            // SAFETY: `next` is protected/sentinel per the contract;
            // `node` is protected at SLOT_OP.
            let link1 = self.strategy.load(unsafe { &(*next).prev });
            if deleted_of(link1)
                || self.strategy.load(unsafe { &(*node).next }) != pack(next, false)
            {
                // `next` is being deleted, or `node` is no longer (or was
                // never observed) adjacent — the repair is someone
                // else's.
                return;
            }
            if !self.reserve(node) {
                return; // node already popped and fully unlinked
            }
            if self
                .strategy
                .cas(unsafe { &(*next).prev }, link1, pack(node, false))
            {
                self.release(ptr_of(link1), guard);
                // SAFETY: as above.
                if deleted_of(self.strategy.load(unsafe { &(*node).prev })) {
                    // Our node was deleted while we repaired: re-point
                    // `next.prev` past it.
                    self.help_insert(guard, self.headp(), next, false);
                }
                return;
            }
            self.release(node, guard);
            backoff.snooze();
        }
    }

    /// `PopLeft`. Marking the first node's `next` word is the logical
    /// deletion; the unique mark winner owns the value. The op may
    /// linearize at its `head.next` read (where the node was provably
    /// leftmost) — the mark only certifies no *same-node* interference.
    pub fn pop_left(&self) -> Option<V> {
        let guard = S::Reclaimer::pin();
        let mut backoff = Backoff::new();
        loop {
            fault_hit!(MidHelping, true);
            let node_w = self.load_link(&guard, &self.head.next, SLOT_OP);
            let node = ptr_of(node_w);
            if node == self.tailp() {
                fault_hit!(PreRelease, true);
                return None;
            }
            // SAFETY: `node` is protected at SLOT_OP.
            let link1 = self.strategy.load(unsafe { &(*node).next });
            if deleted_of(link1) {
                self.help_delete(&guard, node, true);
                continue;
            }
            // SAFETY: as above.
            if self.strategy.cas(
                unsafe { &(*node).next },
                link1,
                pack(ptr_of(link1), true),
            ) {
                // SAFETY: the value word is immutable after publish and
                // the mark win makes us its unique owner.
                let v = self.strategy.load(unsafe { &(*node).value });
                self.help_delete(&guard, node, false);
                let next_w = self.load_link(&guard, unsafe { &(*node).next }, SLOT_NODE2);
                self.help_insert(&guard, self.headp(), ptr_of(next_w), false);
                self.remove_cross_reference(&guard, node);
                fault_hit!(PreRelease, false);
                // SAFETY: unique ownership via the mark CAS.
                return Some(unsafe { V::decode(v) });
            }
            // Mark race lost: no ownership taken — effect-free retry.
            fault_hit!(PreRelease, true);
            backoff.snooze();
        }
    }

    /// `PopRight`. The mark CAS expects `⟨tail, unmarked⟩`, so success
    /// atomically certifies the node was rightmost — a static
    /// linearization point.
    pub fn pop_right(&self) -> Option<V> {
        let guard = S::Reclaimer::pin();
        let mut backoff = Backoff::new();
        loop {
            fault_hit!(MidHelping, true);
            let node_w = self.load_link(&guard, &self.tail.prev, SLOT_OP);
            let node = ptr_of(node_w);
            // SAFETY: `node` is protected at SLOT_OP (or the head
            // sentinel).
            let nn = self.strategy.load(unsafe { &(*node).next });
            if nn != pack(self.tailp(), false) {
                if deleted_of(nn) && !self.uncounted(node) {
                    self.help_delete(&guard, node, true);
                } else {
                    // The hint lags; walk it forward. `node` is already
                    // protected at SLOT_OP, so the extra announce is
                    // backed.
                    if Self::NP {
                        guard.protect(SLOT_PREV, node as u64);
                    }
                    self.help_insert(&guard, node, self.tailp(), true);
                }
                continue;
            }
            if node == self.headp() {
                fault_hit!(PreRelease, true);
                return None;
            }
            // SAFETY: as above.
            if self.strategy.cas(
                unsafe { &(*node).next },
                pack(self.tailp(), false),
                pack(self.tailp(), true),
            ) {
                // SAFETY: unique mark winner (see `pop_left`).
                let v = self.strategy.load(unsafe { &(*node).value });
                self.help_delete(&guard, node, false);
                let prev_w = self.load_link(&guard, unsafe { &(*node).prev }, SLOT_PREV);
                self.help_insert(&guard, ptr_of(prev_w), self.tailp(), false);
                self.remove_cross_reference(&guard, node);
                fault_hit!(PreRelease, false);
                // SAFETY: as above.
                return Some(unsafe { V::decode(v) });
            }
            // Mark race lost: effect-free retry.
            fault_hit!(PreRelease, true);
            backoff.snooze();
        }
    }

    /// Splices the marked `node` (protected at [`SLOT_OP`]) out of the
    /// `next` chain. Any thread may help; `effect_free` reports whether
    /// the *calling op* has published state or taken ownership yet.
    fn help_delete(&self, g: &GuardOf<S>, node: *const Node, effect_free: bool) {
        // SAFETY: `node` protected at SLOT_OP per the contract.
        self.set_mark(unsafe { &(*node).prev });
        let mut last: *const Node = std::ptr::null();
        let mut prev = ptr_of(self.load_link(g, unsafe { &(*node).prev }, SLOT_PREV));
        let mut next = ptr_of(self.load_link(g, unsafe { &(*node).next }, SLOT_NODE2));
        loop {
            fault_hit!(MidHelping, effect_free);
            if prev == next {
                return;
            }
            // SAFETY: `next` is protected at SLOT_NODE2 (or a sentinel;
            // the tail's null `next` word reads as unmarked).
            if deleted_of(self.strategy.load(unsafe { &(*next).next })) {
                // `next` is deleted too; skip past it.
                next = ptr_of(self.step(g, unsafe { &(*next).next }, SLOT_NODE2));
                continue;
            }
            // SAFETY: `prev` is protected at SLOT_PREV (or a sentinel).
            let prev2 = self.strategy.load(unsafe { &(*prev).next });
            if deleted_of(prev2) {
                // `prev` is itself deleted: splice it out of `last` (or
                // backtrack if we have no predecessor for it).
                if !last.is_null() {
                    // SAFETY: as above.
                    self.set_mark(unsafe { &(*prev).prev });
                    // Only `prev.next` names `target`: announce it,
                    // validated against that word, before `reserve`
                    // touches its count.
                    let target = ptr_of(self.load_link(g, unsafe { &(*prev).next }, SLOT_TMP));
                    if self.reserve(target) {
                        // SAFETY: `last` stays protected at SLOT_LAST.
                        if self.strategy.cas(
                            unsafe { &(*last).next },
                            pack(prev, false),
                            pack(target, false),
                        ) {
                            self.release(prev, g);
                        } else {
                            self.release(target, g);
                        }
                    }
                    if Self::NP {
                        g.clear(SLOT_TMP);
                        g.protect(SLOT_PREV, last as u64);
                        g.clear(SLOT_LAST);
                    }
                    prev = last;
                    last = std::ptr::null();
                } else {
                    prev = ptr_of(self.step(g, unsafe { &(*prev).prev }, SLOT_PREV));
                }
                continue;
            }
            if ptr_of(prev2) != node {
                // Walk right toward `node`, remembering the predecessor.
                if Self::NP {
                    g.protect(SLOT_LAST, prev as u64);
                }
                last = prev;
                prev = ptr_of(self.step(g, unsafe { &(*prev).next }, SLOT_PREV));
                continue;
            }
            // `prev.next` names `node` unmarked: splice.
            if !self.reserve(next) {
                continue; // `next` died; its takeover redirects us above
            }
            // SAFETY: as above.
            if self.strategy.cas(
                unsafe { &(*prev).next },
                pack(node, false),
                pack(next, false),
            ) {
                self.release(node, g);
                return;
            }
            self.release(next, g);
        }
    }

    /// Repairs `node.prev` to name a live predecessor, starting the walk
    /// at `prev`. `prev` must be protected at [`SLOT_PREV`] (or be a
    /// sentinel) and `node` at [`SLOT_NODE2`] (or be a sentinel); uses
    /// [`SLOT_LAST`]/[`SLOT_TMP`] internally.
    fn help_insert(
        &self,
        g: &GuardOf<S>,
        mut prev: *const Node,
        node: *const Node,
        effect_free: bool,
    ) {
        let mut last: *const Node = std::ptr::null();
        loop {
            fault_hit!(MidHelping, effect_free);
            // SAFETY: `node` is protected at SLOT_NODE2 per the contract
            // (or a sentinel).
            let link1 = self.strategy.load(unsafe { &(*node).prev });
            if deleted_of(link1) {
                return; // node deleted — nothing to repair
            }
            // SAFETY: `prev` is protected at SLOT_PREV/SLOT_LAST moves
            // (or a sentinel).
            let prev2 = self.strategy.load(unsafe { &(*prev).next });
            if deleted_of(prev2) {
                if !last.is_null() {
                    // SAFETY: as above.
                    self.set_mark(unsafe { &(*prev).prev });
                    // Only `prev.next` names `target`: announce it,
                    // validated against that word, before `reserve`
                    // touches its count.
                    let target = ptr_of(self.load_link(g, unsafe { &(*prev).next }, SLOT_TMP));
                    if self.reserve(target) {
                        // SAFETY: `last` protected at SLOT_LAST.
                        if self.strategy.cas(
                            unsafe { &(*last).next },
                            pack(prev, false),
                            pack(target, false),
                        ) {
                            self.release(prev, g);
                        } else {
                            self.release(target, g);
                        }
                    }
                    if Self::NP {
                        g.clear(SLOT_TMP);
                        g.protect(SLOT_PREV, last as u64);
                        g.clear(SLOT_LAST);
                    }
                    prev = last;
                    last = std::ptr::null();
                } else {
                    prev = ptr_of(self.step(g, unsafe { &(*prev).prev }, SLOT_PREV));
                }
                continue;
            }
            let prev2p = ptr_of(prev2);
            if prev2p != node {
                if prev2p.is_null() {
                    // Ran off the end of the chain: `prev` is the tail
                    // sentinel, so the walk is past `node` (the step
                    // below keeps it from walking onto `node`, but
                    // nothing else bounds a stale walk). Walking on
                    // from here or from `last` would spin alone forever
                    // once the other threads go quiet; `node` is still
                    // unmarked, hence still reachable from the head.
                    if Self::NP {
                        g.clear(SLOT_LAST);
                    }
                    prev = self.headp();
                    last = std::ptr::null();
                    continue;
                }
                if Self::NP {
                    g.protect(SLOT_LAST, prev as u64);
                }
                let stepped = ptr_of(self.step(g, unsafe { &(*prev).next }, SLOT_PREV));
                if stepped == node {
                    // `step` re-reads `prev.next`, and a splice since
                    // `prev2` was read swung it to `node`: `prev` is the
                    // predecessor now. Stepping onto `node` would walk
                    // past it to the tail. (`last`'s announce was just
                    // overwritten, so forget it.)
                    if Self::NP {
                        g.protect(SLOT_PREV, prev as u64);
                        g.clear(SLOT_LAST);
                    }
                    last = std::ptr::null();
                    continue;
                }
                last = prev;
                prev = stepped;
                continue;
            }
            if ptr_of(link1) == prev {
                return; // already correct
            }
            if !self.reserve(prev) {
                // `prev` died between the adjacency read and here.
                prev = ptr_of(self.step(g, unsafe { &(*node).prev }, SLOT_PREV));
                continue;
            }
            // SAFETY: as above.
            if self
                .strategy
                .cas(unsafe { &(*node).prev }, link1, pack(prev, false))
            {
                self.release(ptr_of(link1), g);
                // SAFETY: as above.
                if deleted_of(self.strategy.load(unsafe { &(*prev).prev })) {
                    continue; // prev got deleted — repair once more
                }
                return;
            }
            self.release(prev, g);
        }
    }

    /// Retargets the popped `node`'s own links past already-deleted
    /// neighbors (keeping its marks), so dead nodes never pin each
    /// other: post-retarget references always point at nodes that were
    /// undeleted at retarget time, ordering the dead-node graph by
    /// deletion time (acyclic — every dead chain collapses).
    /// `node` must be protected at [`SLOT_OP`].
    fn remove_cross_reference(&self, g: &GuardOf<S>, node: *const Node) {
        // SAFETY throughout: `node` is protected at SLOT_OP; `p` is
        // protected at SLOT_RCR_A before dereference (validated against
        // the word that named it), and the reserve target at SLOT_RCR_B.
        unsafe {
            loop {
                let pw = self.load_link(g, &(*node).prev, SLOT_RCR_A);
                let p = ptr_of(pw);
                if self.uncounted(p) {
                    break;
                }
                if !deleted_of(self.strategy.load(&(*p).next)) {
                    break; // target still live — fine to keep
                }
                let p2w = self.load_link(g, &(*p).prev, SLOT_RCR_B);
                let p2 = ptr_of(p2w);
                if !self.reserve(p2) {
                    continue;
                }
                if self
                    .strategy
                    .cas(&(*node).prev, pw, pack(p2, deleted_of(pw)))
                {
                    self.release(p, g);
                } else {
                    self.release(p2, g);
                }
            }
            loop {
                let nw = self.load_link(g, &(*node).next, SLOT_RCR_A);
                let n = ptr_of(nw);
                if self.uncounted(n) {
                    break;
                }
                if !deleted_of(self.strategy.load(&(*n).next)) {
                    break;
                }
                let n2w = self.load_link(g, &(*n).next, SLOT_RCR_B);
                let n2 = ptr_of(n2w);
                if !self.reserve(n2) {
                    continue;
                }
                if self
                    .strategy
                    .cas(&(*node).next, nw, pack(n2, deleted_of(nw)))
                {
                    self.release(n, g);
                } else {
                    self.release(n2, g);
                }
            }
        }
    }

    /// Quiescent snapshot of the live values' words, left to right (for
    /// tests and diagnostics; only meaningful with no ops in flight).
    pub fn live_words(&self) -> Vec<u64> {
        let _guard = S::Reclaimer::pin();
        let mut out = Vec::new();
        let mut cur = ptr_of(self.strategy.load(&self.head.next));
        while cur != self.tailp() {
            // SAFETY: quiescent per the method contract; nodes linked
            // from the head are alive.
            unsafe {
                let nw = self.strategy.load(&(*cur).next);
                if !deleted_of(nw) {
                    out.push(self.strategy.load(&(*cur).value));
                }
                cur = ptr_of(nw);
            }
        }
        out
    }
}

impl<V: WordValue, S: DcasStrategy> Drop for RawSundellDeque<V, S> {
    fn drop(&mut self) {
        // Exclusive access: walk the physical `next` chain. On-chain
        // nodes are named by their predecessor (count ≥ 1), so they were
        // never retired — free them here; a marked node's value belongs
        // to the popper that marked it. Spliced-out nodes were retired
        // by the death cascade and are freed by their queued destructors.
        // SAFETY: quiescence per `&mut self`.
        unsafe {
            let mut cur = ptr_of(self.head.next.unsync_load_shared());
            while cur != self.tailp() {
                let node = cur as *mut Node;
                let nw = (*node).next.unsync_load_shared();
                if !deleted_of(nw) {
                    V::drop_encoded((*node).value.unsync_load_shared());
                }
                cur = ptr_of(nw);
                free_node_now(node);
            }
        }
    }
}

/// The Sundell–Tsigas CAS-only deque for arbitrary element types `T`
/// (heap-boxed per element) and any [`DcasStrategy`] `S` — of which it
/// uses only `load`/`store`/`cas`, never DCAS or CASN.
///
/// See the [module documentation](self) for the algorithm and
/// [`RawSundellDeque`] for the word-level API used by benches.
pub struct SundellDeque<T: Send, S: DcasStrategy = HarrisMcas> {
    raw: RawSundellDeque<Boxed<T>, S>,
}

impl<T: Send, S: DcasStrategy> Default for SundellDeque<T, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send, S: DcasStrategy> SundellDeque<T, S> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        SundellDeque { raw: RawSundellDeque::new() }
    }

    /// The DCAS strategy instance (for counter snapshots).
    pub fn strategy(&self) -> &S {
        self.raw.strategy()
    }

    /// Appends `v` at the right end. Never fails (unbounded).
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
}

impl<T: Send, S: DcasStrategy> ConcurrentDeque<T> for SundellDeque<T, S> {
    fn push_right(&self, v: T) -> Result<(), Full<T>> {
        SundellDeque::push_right(self, v)
    }

    fn push_left(&self, v: T) -> Result<(), Full<T>> {
        SundellDeque::push_left(self, v)
    }

    fn pop_right(&self) -> Option<T> {
        SundellDeque::pop_right(self)
    }

    fn pop_left(&self) -> Option<T> {
        SundellDeque::pop_left(self)
    }

    // Batched ops inherit the per-element default loops (like the
    // dummy-node deque): this algorithm has no multi-word transition to
    // make a chunk atomic with.

    fn impl_name(&self) -> &'static str {
        "sundell-cas"
    }
}
