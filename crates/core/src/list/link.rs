//! The link policy: what the three list families do differently inside
//! the one Figure 11–17 body.
//!
//! The paper presents its list variants as transformations of one
//! algorithm. The dummy-node deque (footnote 4, Figure 10) re-encodes
//! the deleted bit as an indirection through a dummy node. The GC-free
//! deque (Section 1.1, LFRC) wraps every pointer load, store and DCAS in
//! fixed reference-count steps. A [`LinkPolicy`] supplies exactly those
//! differences, and the body in [`super`] calls it at each link access:
//!
//! | hook       | bit ([`Bit`])           | dummy                     | LFRC                        |
//! |------------|-------------------------|---------------------------|-----------------------------|
//! | `load`     | hazard-protected load   | resolve through a dummy   | counted load (`LFRCLoad`)   |
//! | `mark`     | `pack(cur, true)`       | a fresh dummy naming `cur`| `pack(cur, true)`           |
//! | `dcas`     | plain DCAS              | plain DCAS                | `LFRCDCAS`                  |
//! | `store`    | plain store             | plain store               | counted store               |
//! | `drop`     | nothing                 | nothing                   | `LFRCDestroy`               |
//! | `unlinked` | retire the node(s)      | retire node(s) and dummies| two-null: break the cycle   |
//!
//! Like [`End`], the trait is sealed: it is public only inside a private
//! module, so no type outside this crate can implement or name it. Every
//! hook is a constant choice per policy, so each family monomorphizes to
//! its own straight-line code.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

use dcas::{DcasStrategy, DcasWord, NodePool};

use super::{deleted_of, pack, ptr_of, GuardOf, RawListDeque, NODE_POOL};
use crate::end::{End, Links};
use crate::reserved::NULL;
use crate::value::WordValue;

/// A list node: two pointer words and a value word (the paper's `node`
/// typedef), plus the payload word that 16-byte alignment would leave
/// as padding anyway, plus the policy's own words (none, except LFRC's
/// count and audit link, which fill exactly one more 16-byte line). The
/// alignment keeps the low four bits of node addresses clear for the
/// substrate tag bits and the deleted flag.
#[repr(align(16))]
pub struct Node<P: LinkPolicy> {
    /// Left pointer word (`ptr | deleted-bit`; a dummy's target).
    pub(crate) l: DcasWord,
    /// Right pointer word.
    pub(crate) r: DcasWord,
    /// `NULL`, `SENTL`, `SENTR`, the dummy marker, or a user value word:
    /// the encoding, or for [`WordValue::IN_NODE`] values the node's own
    /// address (its value token).
    pub(crate) value: DcasWord,
    /// The value itself when `V::IN_NODE`. Written by the push before
    /// the publishing DCAS; moved out only by the operation whose DCAS
    /// or CASN swaps the token to `NULL`, while it still protects the
    /// node. Never touched by the DCAS substrate or stale readers.
    pub(crate) payload: UnsafeCell<MaybeUninit<u64>>,
    /// The policy's own words.
    pub(crate) extra: P::Extra,
}

impl<P: LinkPolicy> Links for Node<P> {
    #[inline(always)]
    fn links(&self) -> (&DcasWord, &DcasWord) {
        (&self.l, &self.r)
    }
}

impl<P: LinkPolicy> Node<P> {
    pub(crate) fn new_blank() -> Self {
        Node {
            l: DcasWord::new(0),
            r: DcasWord::new(0),
            value: DcasWord::new(NULL),
            payload: UnsafeCell::new(MaybeUninit::uninit()),
            extra: P::Extra::default(),
        }
    }
}

/// A link word as the body sees it: the word itself (what a DCAS
/// expects), the node it names and its deleted flag. Under the dummy
/// policy a deleted word names a dummy and `node` is the dummy's target.
pub struct Link<P: LinkPolicy> {
    /// The word as read.
    pub w: u64,
    /// The node it names.
    pub node: *const Node<P>,
    /// Whether the word marks `node` logically deleted.
    pub deleted: bool,
}

impl<P: LinkPolicy> Link<P> {
    /// Decodes a word in which the deleted flag is bit 2.
    #[inline(always)]
    pub fn of(w: u64) -> Self {
        Link { w, node: ptr_of(w), deleted: deleted_of(w) }
    }
}

/// Which word a [`LinkPolicy::load`] reads, which decides how the policy
/// protects the node behind it.
#[derive(Clone, Copy)]
pub enum At {
    /// This end's sentinel word (Figure 11 line 3, Figure 13 line 6,
    /// Figure 17 line 3): the node it names is dereferenced.
    Near,
    /// The far sentinel's word, read by the two-null check (Figure 17
    /// line 17) and compared with the null neighbour.
    Far,
    /// A live neighbour's outward link (Figure 17 line 7), compared but
    /// never dereferenced.
    Neighbour,
}

/// A logical-deletion word (Figure 12) plus whatever must be freed if
/// the DCAS that would publish it fails.
pub trait Mark {
    /// The word the end word takes.
    fn word(&self) -> u64;
    /// The DCAS published the word.
    fn published(self);
}

impl Mark for u64 {
    #[inline(always)]
    fn word(&self) -> u64 {
        *self
    }

    #[inline(always)]
    fn published(self) {}
}

/// How one list family loads, marks, swaps, stores and frees links. The
/// defaults are the deleted-bit deque's: plain words, no counts.
pub trait LinkPolicy: Default + Sized + 'static {
    /// The typed deque's [`impl_name`](crate::ConcurrentDeque::impl_name).
    const NAME: &'static str;

    /// Words a node carries beyond the shared four (LFRC's count and
    /// audit link).
    type Extra: Default;

    /// What [`mark`](Self::mark) returns.
    type Mark: Mark;

    /// The family's node page pool.
    fn pool() -> &'static NodePool;

    /// Finishes a freshly allocated node (LFRC: the creator's reference
    /// and the audit link).
    #[inline(always)]
    fn init_node(&self, _n: *mut Node<Self>) {}

    /// Frees an unreachable node: the retire destructor, and the
    /// immediate free of private or quiescent nodes.
    ///
    /// # Safety
    ///
    /// `p` came from the family's pool, is unreachable and is freed once.
    #[inline(always)]
    unsafe fn free(p: *mut u8) {
        // SAFETY: forwarded caller contract.
        unsafe { NodePool::dealloc(p) }
    }

    /// Loads a sentinel or neighbour word `src`, leaving what the body
    /// may dereference protected (or counted, for LFRC, which the caller
    /// gives back with [`drop`](Self::drop)).
    fn load<V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        src: &DcasWord,
        at: At,
    ) -> Link<Self>;

    /// Loads `src`, the inward link of the node named by `old` in end
    /// word `end` (Figure 17 line 5), protecting the neighbour it names.
    /// `None` means the protection could not be validated: retry.
    fn load_inward<V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        src: &DcasWord,
        end: &DcasWord,
        old: u64,
    ) -> Option<Link<Self>>;

    /// Decodes word `w` of a quiescent deque (`layout`, teardown).
    #[inline(always)]
    fn peek<V: WordValue, S: DcasStrategy>(_d: &RawListDeque<V, S, Self>, w: u64) -> Link<Self> {
        Link::of(w)
    }

    /// The word that logically deletes `cur`.
    fn mark(&self, cur: *const Node<Self>) -> Self::Mark;

    /// The pointer DCAS: `DCAS(a.0, a.1, old.0, old.1, new.0, new.1)`,
    /// running `unlinked` on success. LFRC counts the new targets first,
    /// then on success runs `unlinked` and releases the overwritten
    /// targets, and on failure releases the new ones.
    #[inline(always)]
    fn dcas<V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        _g: &GuardOf<S>,
        a: (&DcasWord, &DcasWord),
        old: (u64, u64),
        new: (u64, u64),
        unlinked: impl FnOnce(),
    ) -> bool {
        let ok = d.strategy.dcas(a.0, a.1, old.0, old.1, new.0, new.1);
        if ok {
            unlinked();
        }
        ok
    }

    /// Stores `w` into a link of an unpublished node (LFRC counts it).
    #[inline(always)]
    fn store<V: WordValue, S: DcasStrategy>(
        _d: &RawListDeque<V, S, Self>,
        slot: &DcasWord,
        w: u64,
    ) {
        slot.init_store(w);
    }

    /// Gives back the reference a [`load`](Self::load) or
    /// [`store`](Self::store) took on `w`'s node (LFRC only).
    #[inline(always)]
    fn drop<V: WordValue, S: DcasStrategy>(
        _d: &RawListDeque<V, S, Self>,
        _g: &GuardOf<S>,
        _w: u64,
    ) {
    }

    /// Frees what a winning splice at end `E` unlinked: the node `old`
    /// names, and with `far` (the two-null double splice) the one `far`
    /// names too.
    ///
    /// # Safety
    ///
    /// The caller's DCAS just unlinked them, and runs this once.
    unsafe fn unlinked<E: End, V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        old: &Link<Self>,
        far: Option<&Link<Self>>,
    );

    /// The bit policy's own deque, for the batch operations only it has.
    #[inline(always)]
    fn batched<T: Send, S: DcasStrategy>(
        _d: &super::ListDeque<T, S, Self>,
    ) -> Option<&super::ListDeque<T, S, Bit>> {
        None
    }
}

/// The paper's own policy: the deleted flag is bit 2 of the sentinel
/// word, and nodes are retired to the strategy's reclaimer.
#[derive(Default)]
pub struct Bit;

impl LinkPolicy for Bit {
    const NAME: &'static str = "list-dcas";
    type Extra = ();
    type Mark = u64;

    #[inline(always)]
    fn pool() -> &'static NodePool {
        &NODE_POOL
    }

    #[inline(always)]
    fn load<V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        src: &DcasWord,
        at: At,
    ) -> Link<Self> {
        Link::of(match at {
            At::Near => d.load_end_protected(g, src, 0),
            // Compared only, never dereferenced: no hazard needed.
            At::Far | At::Neighbour => d.strategy.load(src),
        })
    }

    #[inline(always)]
    fn load_inward<V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        src: &DcasWord,
        end: &DcasWord,
        old: u64,
    ) -> Option<Link<Self>> {
        d.load_validated(g, src, end, old, 1)
    }

    #[inline(always)]
    fn mark(&self, cur: *const Node<Self>) -> u64 {
        pack(cur, true)
    }

    #[inline(always)]
    unsafe fn unlinked<E: End, V: WordValue, S: DcasStrategy>(
        d: &RawListDeque<V, S, Self>,
        g: &GuardOf<S>,
        old: &Link<Self>,
        far: Option<&Link<Self>>,
    ) {
        // SAFETY: forwarded caller contract.
        unsafe {
            d.retire(old.node, g);
            if let Some(far) = far {
                d.retire(far.node, g);
            }
        }
    }

    #[inline(always)]
    fn batched<T: Send, S: DcasStrategy>(
        d: &super::ListDeque<T, S, Self>,
    ) -> Option<&super::ListDeque<T, S, Bit>> {
        Some(d)
    }
}
