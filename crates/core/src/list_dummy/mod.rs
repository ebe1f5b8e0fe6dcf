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
//! As in the deleted-bit variant, each operation is one body generic
//! over the end it works at: `pop` is Figure 11 at the right end and
//! Figure 32 at the left, `push` Figures 13 and 33, `delete` Figures 17
//! and 34. A dummy's target is always its `l` word, whichever end made
//! it.

// Nested `if`s mirror the paper's listing structure; do not collapse.
#![allow(clippy::collapsible_if)]

use std::marker::PhantomData;

use crossbeam_utils::CachePadded;
use dcas::{DcasStrategy, DcasWord, HarrisMcas, NodePool, ReclaimGuard, Reclaimer};

use crate::end::{End, Left, Links, Right};
use crate::reserved::{NULL, SENTL, SENTR};
use crate::value::{Boxed, WordValue};
use crate::{ConcurrentDeque, Full};

/// The guard type of a strategy's reclamation backend.
type GuardOf<S> = <<S as DcasStrategy>::Reclaimer as Reclaimer>::Guard;

#[cfg(test)]
mod tests;

/// The distinguished value marking a dummy "delete-bit" node.
const DUMMY: u64 = 12;

#[repr(align(16))]
struct Node {
    /// Left pointer word; in a dummy node, the real target pointer.
    l: DcasWord,
    /// Right pointer word (unused in dummy nodes).
    r: DcasWord,
    /// `NULL`, `SENTL`, `SENTR`, `DUMMY`, or an encoded user value.
    value: DcasWord,
}

impl Links for Node {
    #[inline(always)]
    fn links(&self) -> (&DcasWord, &DcasWord) {
        (&self.l, &self.r)
    }
}

impl Node {
    fn new_blank() -> Node {
        Node { l: DcasWord::new(0), r: DcasWord::new(0), value: DcasWord::new(NULL) }
    }
}

/// Page pool for this module's nodes and dummies (sentinels stay boxed).
static NODE_POOL: NodePool = NodePool::new("list_dummy", std::mem::size_of::<Node>(), 16);

/// This module's node page pool (read-only; for allocator gauges).
pub fn node_pool() -> &'static NodePool {
    &NODE_POOL
}

/// Allocates a blank node from the page pool.
fn alloc_node() -> *mut Node {
    let n = NODE_POOL.alloc().cast::<Node>();
    // SAFETY: type-stable pool slot, reinitialized through the atomic
    // fields per the pool's quarantine contract (`init_store` is a
    // relaxed atomic store).
    unsafe {
        (*n).l.init_store(0);
        (*n).r.init_store(0);
        (*n).value.init_store(NULL);
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

#[inline]
fn direct(ptr: *const Node) -> u64 {
    let p = ptr as u64;
    debug_assert_eq!(p & 0xF, 0);
    p
}

#[inline]
fn node_of(w: u64) -> *const Node {
    w as *const Node
}

/// An unpublished node plus its encoded value, owned by a push until
/// the splicing DCAS succeeds (the dummy-variant twin of the guard in
/// [`list`](crate::list)). Dropping it — only possible by unwinding out
/// of a strategy call, which per the strategy contract had no effect —
/// frees the node and releases the value.
struct PendingNode<V: WordValue> {
    node: *mut Node,
    val: u64,
    _marker: PhantomData<V>,
}

impl<V: WordValue> PendingNode<V> {
    fn new(v: V) -> Self {
        PendingNode { node: alloc_node(), val: v.encode(), _marker: PhantomData }
    }

    fn published(self) {
        std::mem::forget(self);
    }
}

impl<V: WordValue> Drop for PendingNode<V> {
    fn drop(&mut self) {
        // SAFETY: reached only by unwinding before publication — the
        // node is private and the encoded value unconsumed.
        unsafe {
            free_node_now(self.node);
            V::drop_encoded(self.val);
        }
    }
}

/// An unpublished dummy node, freed on drop unless the logical-deletion
/// DCAS published it. Covers both the ordinary retry path (the DCAS
/// lost a race) and an unwinding strategy call.
struct PendingDummy {
    node: *const Node,
}

impl PendingDummy {
    fn published(self) {
        std::mem::forget(self);
    }
}

impl Drop for PendingDummy {
    fn drop(&mut self) {
        // SAFETY: unpublished, uniquely owned; dummies hold no value.
        unsafe { free_node_now(self.node as *mut Node) };
    }
}

/// A sentinel pointer word resolved through at most one dummy node.
struct Resolved {
    /// The real node pointed at (through the dummy if present).
    real: *const Node,
    /// Whether the word went through a dummy (the "deleted bit").
    deleted: bool,
}

/// Quiescent structural snapshot (see the deleted-bit variant's
/// [`ListLayout`](crate::list::ListLayout) for field meanings).
pub type DummyLayout = crate::list::ListLayout;

/// Word-level dummy-node deque; use [`DummyListDeque`] for arbitrary
/// element types.
pub struct RawDummyListDeque<V: WordValue, S: DcasStrategy> {
    strategy: S,
    sl: Box<CachePadded<Node>>,
    sr: Box<CachePadded<Node>>,
    _marker: PhantomData<fn(V) -> V>,
}

// SAFETY: as for `RawListDeque` — all shared accesses go through the
// strategy and node lifetime is governed by the strategy's reclamation
// backend.
unsafe impl<V: WordValue, S: DcasStrategy> Send for RawDummyListDeque<V, S> {}
unsafe impl<V: WordValue, S: DcasStrategy> Sync for RawDummyListDeque<V, S> {}

impl<V: WordValue, S: DcasStrategy> Default for RawDummyListDeque<V, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: WordValue, S: DcasStrategy> RawDummyListDeque<V, S> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        let sl = Box::new(CachePadded::new(Node::new_blank()));
        let sr = Box::new(CachePadded::new(Node::new_blank()));
        let slp: *const Node = &**sl as *const Node;
        let srp: *const Node = &**sr as *const Node;
        sl.value.init_store(SENTL);
        sr.value.init_store(SENTR);
        sl.r.init_store(direct(srp));
        sr.l.init_store(direct(slp));
        RawDummyListDeque { strategy: S::default(), sl, sr, _marker: PhantomData }
    }

    #[inline]
    fn srp(&self) -> *const Node {
        &**self.sr as *const Node
    }

    /// End `E`'s sentinel (`SR` at `Right`).
    #[inline]
    fn sent<E: End>(&self) -> &Node {
        E::near(&**self.sl, &**self.sr)
    }

    /// The sentinel opposite end `E` (`SL` at `Right`).
    #[inline]
    fn opp<E: End>(&self) -> &Node {
        E::far(&**self.sl, &**self.sr)
    }

    /// End `E`'s sentinel inward word (`SR->L` at `Right`).
    #[inline]
    fn end_word<E: End>(&self) -> &DcasWord {
        E::inward(self.sent::<E>())
    }

    /// The DCAS strategy instance.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// `true` if the strategy's backend requires announce-and-validate
    /// protection before traversal dereferences (hazard pointers).
    const NP: bool = <GuardOf<S> as ReclaimGuard>::NEEDS_PROTECT;

    /// Resolves a sentinel pointer word: a word aiming at a dummy node
    /// represents (target, deleted = true).
    ///
    /// # Safety
    ///
    /// Quiescent use only (`layout`, teardown): concurrent operations
    /// must go through [`load_resolved`](Self::load_resolved), which
    /// protects what it dereferences.
    unsafe fn resolve(&self, w: u64) -> Resolved {
        let n = node_of(w);
        // SAFETY: node reachable from a sentinel, quiescent per contract.
        if self.strategy.load(unsafe { &(*n).value }) == DUMMY {
            // SAFETY: dummy nodes are immutable after publication.
            let real = node_of(self.strategy.load(unsafe { &(*n).l }));
            Resolved { real, deleted: true }
        } else {
            Resolved { real: n, deleted: false }
        }
    }

    /// Loads and resolves a sentinel pointer word, leaving the node the
    /// word names protected at `slot` and (through a dummy) the real
    /// target at `slot + 1`. Both announcements validate against a
    /// re-read of `src`: the word names a node/dummy pair only until
    /// the splice that retires them rewrites it (and retired nodes are
    /// never relinked), and a dummy's target word is immutable, so an
    /// unchanged sentinel proves both announces landed while the pair
    /// was live.
    fn load_resolved(&self, g: &GuardOf<S>, src: &DcasWord, slot: usize) -> (u64, Resolved) {
        loop {
            let w = self.strategy.load(src);
            let n = node_of(w);
            if Self::NP {
                g.protect(slot, n as u64);
                if self.strategy.load(src) != w {
                    continue;
                }
            }
            // SAFETY: `n` is protected (or epoch-pinned).
            if self.strategy.load(unsafe { &(*n).value }) == DUMMY {
                // SAFETY: as above; dummy targets are immutable.
                let real = node_of(self.strategy.load(unsafe { &(*n).l }));
                if Self::NP {
                    g.protect(slot + 1, real as u64);
                    if self.strategy.load(src) != w {
                        g.clear(slot + 1);
                        continue;
                    }
                }
                return (w, Resolved { real, deleted: true });
            }
            return (w, Resolved { real: n, deleted: false });
        }
    }

    /// Allocates a dummy node indirecting to `target` (Figure 10).
    fn make_dummy(&self, target: *const Node) -> *const Node {
        let d = alloc_node();
        // SAFETY: unpublished.
        unsafe {
            (*d).value.init_store(DUMMY);
            (*d).l.init_store(direct(target));
        }
        d
    }

    /// # Safety
    ///
    /// As for `RawListDeque::retire`.
    unsafe fn retire(&self, node: *const Node, guard: &GuardOf<S>) {
        // SAFETY: forwarded contract; the pool frees the node once,
        // post-scan.
        unsafe {
            guard.retire(node as *mut u8, std::mem::size_of::<Node>(), NodePool::dealloc);
        }
    }

    /// `popRight` with dummy-node indirection in place of the deleted bit.
    pub fn pop_right(&self) -> Option<V> {
        self.pop::<Right>()
    }

    /// `popLeft` with dummy-node indirection.
    pub fn pop_left(&self) -> Option<V> {
        self.pop::<Left>()
    }

    /// `pushRight` with dummy-node indirection.
    pub fn push_right(&self, v: V) -> Result<(), Full<V>> {
        self.push::<Right>(v)
    }

    /// `pushLeft` with dummy-node indirection.
    pub fn push_left(&self, v: V) -> Result<(), Full<V>> {
        self.push::<Left>(v)
    }

    // Register names follow the deleted-bit variant's bodies: `old` is
    // the end word, `cur` what it resolves to, `nb` the victim's inward
    // neighbour and `nb_out` that neighbour's outward link.

    /// Figure 11 at `Right`, Figure 32 at `Left`, with a dummy in place
    /// of the deleted bit.
    fn pop<E: End>(&self) -> Option<V> {
        let guard = S::Reclaimer::pin();
        let end = self.end_word::<E>();
        loop {
            let (old, cur) = self.load_resolved(&guard, end, 0);
            // SAFETY: `cur.real` is protected by `load_resolved`.
            let v = self.strategy.load(unsafe { &(*cur.real).value });
            if v == E::FAR_SENT {
                return None;
            }
            if cur.deleted {
                self.delete::<E>(&guard);
            } else if v == NULL {
                // SAFETY: as above.
                if self.strategy.dcas(end, unsafe { &(*cur.real).value }, old, v, old, v) {
                    return None;
                }
            } else {
                let dummy = PendingDummy { node: self.make_dummy(cur.real) };
                // SAFETY: as above.
                if self.strategy.dcas(
                    end,
                    unsafe { &(*cur.real).value },
                    old,
                    v,
                    direct(dummy.node),
                    NULL,
                ) {
                    dummy.published();
                    // SAFETY: successful DCAS transfers value ownership.
                    return Some(unsafe { V::decode(v) });
                }
                // Not published: `dummy` drops and frees the node.
            }
        }
    }

    /// Figure 13 at `Right`, Figure 33 at `Left`, with dummy-node
    /// indirection.
    fn push<E: End>(&self, v: V) -> Result<(), Full<V>> {
        let guard = S::Reclaimer::pin();
        // The pending guard owns node and value until published; an
        // unwinding strategy call frees both.
        let pending = PendingNode::<V>::new(v);
        let (node, val) = (pending.node, pending.val);
        let end = self.end_word::<E>();
        let sent = direct(self.sent::<E>());
        loop {
            let (old, cur) = self.load_resolved(&guard, end, 0);
            if cur.deleted {
                self.delete::<E>(&guard);
            } else {
                // SAFETY: unpublished node.
                unsafe {
                    E::outward(&*node).init_store(sent);
                    E::inward(&*node).init_store(direct(cur.real));
                    (*node).value.init_store(val);
                }
                // SAFETY: as above.
                if self.strategy.dcas(
                    end,
                    E::outward(unsafe { &*cur.real }),
                    old,
                    sent,
                    direct(node),
                    direct(node),
                ) {
                    pending.published();
                    return Ok(());
                }
            }
        }
    }

    /// Figure 17 at `Right`, Figure 34 at `Left`, with dummy-node
    /// indirection: a splice also retires the dummies it unlinks.
    fn delete<E: End>(&self, guard: &GuardOf<S>) {
        let end = self.end_word::<E>();
        loop {
            let (old, cur) = self.load_resolved(guard, end, 0);
            if !cur.deleted {
                return;
            }
            let victim = cur.real;
            // SAFETY: `victim` is protected by `load_resolved`; `nb` by
            // the dual validation below (the victim's link words freeze
            // once it is spliced out, so the sentinel re-read is needed
            // to pin the victim as still-linked — see the deleted-bit
            // variant's `delete`).
            let nb = node_of(self.strategy.load(E::inward(unsafe { &*victim })));
            if Self::NP {
                guard.protect(2, nb as u64);
                if node_of(self.strategy.load(E::inward(unsafe { &*victim }))) != nb
                    || self.strategy.load(end) != old
                {
                    guard.clear(2);
                    continue;
                }
            }
            let v = self.strategy.load(unsafe { &(*nb).value });
            if v != NULL {
                let nb_out = self.strategy.load(E::outward(unsafe { &*nb }));
                if victim == node_of(nb_out) {
                    if self.strategy.dcas(
                        end,
                        E::outward(unsafe { &*nb }),
                        old,
                        nb_out,
                        direct(nb),
                        direct(self.sent::<E>()),
                    ) {
                        // SAFETY: our DCAS unlinked the victim and its dummy.
                        unsafe {
                            self.retire(victim, guard);
                            self.retire(node_of(old), guard);
                        }
                        return;
                    }
                }
            } else {
                // Two null items: race the other end for the double
                // splice, once the far sentinel's word resolves to the
                // null neighbour read above (DESIGN.md, "Known errata").
                let far = E::outward(self.opp::<E>());
                let (far_old, f) = self.load_resolved(guard, far, 3);
                if f.deleted && f.real == nb {
                    if self.strategy.dcas(
                        end,
                        far,
                        old,
                        far_old,
                        direct(self.opp::<E>()),
                        direct(self.sent::<E>()),
                    ) {
                        // SAFETY: both nodes and both dummies unlinked.
                        unsafe {
                            self.retire(victim, guard);
                            self.retire(node_of(old), guard);
                            self.retire(f.real, guard);
                            self.retire(node_of(far_old), guard);
                        }
                        return;
                    }
                }
            }
        }
    }

    /// Quiescent structural snapshot; dummies are resolved away so the
    /// layout is comparable with the deleted-bit variant's.
    pub fn layout(&self) -> DummyLayout {
        let _guard = S::Reclaimer::pin();
        // SAFETY: quiescent per the method contract.
        unsafe {
            let left = self.resolve(self.strategy.load(&self.sl.r));
            let right = self.resolve(self.strategy.load(&self.sr.l));
            let mut cells = Vec::new();
            // Walk right from the leftmost real node.
            let mut cur = left.real;
            while cur != self.srp() {
                let v = self.strategy.load(&(*cur).value);
                cells.push((v != NULL).then_some(v));
                cur = node_of(self.strategy.load(&(*cur).r));
            }
            DummyLayout { cells, left_deleted: left.deleted, right_deleted: right.deleted }
        }
    }
}

impl<V: WordValue, S: DcasStrategy> Drop for RawDummyListDeque<V, S> {
    fn drop(&mut self) {
        // SAFETY: exclusive access. Resolve the leftmost real node before
        // freeing the sentinel dummies (a dummy's target is read through
        // the dummy), then walk and free the physical chain.
        unsafe {
            let ln = node_of(self.sl.r.unsync_load_shared());
            let start = if (*ln).value.unsync_load_shared() == DUMMY {
                let target = node_of((*ln).l.unsync_load_shared());
                free_node_now(ln as *mut Node);
                target
            } else {
                ln
            };
            let rn = node_of(self.sr.l.unsync_load_shared());
            if (*rn).value.unsync_load_shared() == DUMMY {
                free_node_now(rn as *mut Node);
            }
            let mut cur = start;
            while cur != self.srp() {
                let node = cur as *mut Node;
                let v = (*node).value.unsync_load_shared();
                if v != NULL {
                    V::drop_encoded(v);
                }
                cur = node_of((*node).r.unsync_load_shared());
                free_node_now(node);
            }
        }
    }
}

/// The dummy-node ("delete-bit"-free) unbounded deque variant of the
/// paper's footnote 4 / Figure 10, for arbitrary element types.
pub struct DummyListDeque<T: Send, S: DcasStrategy = HarrisMcas> {
    raw: RawDummyListDeque<Boxed<T>, S>,
}

impl<T: Send, S: DcasStrategy> Default for DummyListDeque<T, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send, S: DcasStrategy> DummyListDeque<T, S> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        DummyListDeque { raw: RawDummyListDeque::new() }
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
    pub fn layout(&self) -> DummyLayout {
        self.raw.layout()
    }
}

impl<T: Send, S: DcasStrategy> ConcurrentDeque<T> for DummyListDeque<T, S> {
    fn push_right(&self, v: T) -> Result<(), Full<T>> {
        DummyListDeque::push_right(self, v)
    }

    fn push_left(&self, v: T) -> Result<(), Full<T>> {
        DummyListDeque::push_left(self, v)
    }

    fn pop_right(&self) -> Option<T> {
        DummyListDeque::pop_right(self)
    }

    fn pop_left(&self) -> Option<T> {
        DummyListDeque::pop_left(self)
    }

    fn impl_name(&self) -> &'static str {
        "list-dummy-dcas"
    }
}
