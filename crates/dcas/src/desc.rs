//! Per-thread DCAS descriptors, reused for every operation.
//!
//! Every thread that runs a [`HarrisMcas`](crate::HarrisMcas) operation
//! owns one CASN descriptor and one RDCSS descriptor for as long as it
//! lives, and reuses them for each operation and each install instead of
//! taking a fresh descriptor and retiring it afterwards: "Reuse, don't
//! Recycle" (Arbel-Raviv & Brown, DISC 2017), which they applied to the
//! same Harris–Fraser–Pratt protocol this crate emulates DCAS with. No
//! descriptor is ever retired, so a DCAS costs the reclamation backend
//! nothing; the backends retire only the deques' nodes.
//!
//! # The slot table
//!
//! Descriptors live in *slots* of a process-wide table of
//! [`MAX_SLOTS`] entries. A slot is allocated the first time some thread
//! needs one and is never freed: descriptor memory is immortal, so a
//! helper may read any slot at any time, however stale the tag that led
//! it there. A thread claims a free slot (one CAS on its `in_use` flag,
//! or one CAS publishing a fresh slot into an empty entry) on its first
//! operation and gives it back when it exits; the next thread to claim
//! the slot keeps counting its sequence numbers from where the last
//! owner stopped. Claiming takes no lock.
//!
//! The table is sized for the most threads that hold descriptors *at
//! once*, a million, far beyond any thread count a process gets from its
//! kernel; a thread beyond that panics. Its entries are allocated lazily
//! in chunks of [`CHUNK`], so a process pays for the slots its threads
//! use, plus a 32 KiB top-level array.
//!
//! # Tags and sequence numbers
//!
//! A tagged [`DcasWord`] value names `(slot, seq)` in its 62 payload bits
//! rather than an address: [`SLOT_BITS`] bits of slot index and the
//! low [`SEQ_BITS`] bits of the descriptor's sequence number, above the
//! two tag bits. The sequence number counts the descriptor's
//! *incarnations*: the owner bumps it before it rewrites the fields for
//! a new operation (CASN) or a new install (RDCSS), so a tag names one
//! incarnation and no other.
//!
//! A CASN descriptor keeps its sequence number in its status word,
//! `seq << 2 | state`. Every status comparison in the protocol compares
//! the whole word, so a helper holding a stale tag can neither decide nor
//! mistake the state of a later incarnation. An RDCSS descriptor keeps
//! its number in a `seq` field of its own.
//!
//! # Validation: the seqlock read
//!
//! A helper that found a tag reads the descriptor's fields and then
//! re-reads the sequence number (the CASN status, or the RDCSS `seq`).
//! A match proves that every field it read belongs to the tagged
//! incarnation. A mismatch means that incarnation is over — decided, and
//! already removed from the word the tag came from — so the helper
//! re-reads the word.
//!
//! The happens-before argument for the pair, which is why the field
//! accesses need only release/acquire:
//!
//! 1. *Writer.* The owner stores the new sequence number (relaxed), then
//!    each field with `Release`. Each field store is therefore ordered
//!    after the sequence store for any thread that acquires it.
//! 2. *Reader.* The helper loads each field with `Acquire`, then loads
//!    the sequence number. If any field load read a value of a later
//!    incarnation, it synchronized with that field's release store, so
//!    the later sequence store happens-before the helper's sequence load,
//!    which by coherence returns that number or a later one: a mismatch.
//!    So a match means no field load saw a later incarnation.
//! 3. *Not an earlier one either.* The tag reached the helper through a
//!    chain of `SeqCst` compare-exchanges and loads on target words, each
//!    a release/acquire pair, that starts with the publishing install,
//!    which the owner made after writing the fields. Those field writes
//!    therefore happen-before the helper's field loads, which return them
//!    or later values.
//!
//! The status word and the target words stay `SeqCst`: the protocol's
//! linearization argument (phase 1 installs, the decision CAS, the
//! status reads of RDCSS completion) is the Harris–Fraser–Pratt one and
//! relies on a single total order over those accesses. The only accesses
//! relaxed below `SeqCst` are the descriptor's field stores and loads and
//! the owner's sequence-number store, on the argument above. On x86-64
//! that removes one locked exchange per field store from every
//! operation; the loads cost the same either way.
//!
//! # Why a stale helper cannot hurt a later incarnation
//!
//! Validation is the early exit, not the only guard: every write a
//! helper makes is a compare-exchange whose expected value carries the
//! sequence number (a CASN or RDCSS tag, or a status word), except the
//! RDCSS install, whose effect is undone by its own completion unless
//! the status still reads undecided for the tagged incarnation — in
//! which case the fields the helper read were that incarnation's (point
//! 3 above). The module docs of [`mcas`](crate::HarrisMcas) give the
//! rule that keeps a CASN tag out of every word once its owner returns.

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crate::strategy::MAX_CASN_WORDS;
use crate::DcasWord;

/// Tag bits of a [`DcasWord`] value: `00` payload, `01` RDCSS, `10` CASN.
pub(crate) const TAG_MASK: u64 = 0b11;
pub(crate) const RDCSS_TAG: u64 = 0b01;
pub(crate) const CASN_TAG: u64 = 0b10;

/// Bits of a tag naming the descriptor slot.
const SLOT_BITS: u32 = 20;

/// The most threads that can hold descriptors at once.
pub(crate) const MAX_SLOTS: usize = 1 << SLOT_BITS;

/// Slots per lazily allocated chunk of the table.
const CHUNK_BITS: u32 = 8;
const CHUNK: usize = 1 << CHUNK_BITS;

/// Bits of a tag naming the incarnation: the 62 payload bits that the
/// slot index leaves. A descriptor incarnates once per operation (CASN)
/// or install (RDCSS), about 110 ns apart on one uncontended thread, so
/// it takes days to wrap, and a stale tag is only confused with a live
/// one if its holder sleeps through an exact multiple of that.
const SEQ_BITS: u32 = 62 - SLOT_BITS;

const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// CASN states, in the low two bits of a status word.
pub(crate) const UNDECIDED: u64 = 0;
pub(crate) const SUCCEEDED: u64 = 1;
pub(crate) const FAILED: u64 = 2;
const STATE_MASK: u64 = 0b11;

/// The tagged word value naming incarnation `seq` of slot `slot`'s
/// descriptor of `kind` ([`RDCSS_TAG`] or [`CASN_TAG`]).
#[inline]
pub(crate) fn tag(slot: usize, seq: u64, kind: u64) -> u64 {
    ((seq << SLOT_BITS | slot as u64) << 2) | kind
}

/// The slot index a tag names.
#[inline]
pub(crate) fn tag_slot(t: u64) -> usize {
    (t >> 2) as usize & (MAX_SLOTS - 1)
}

/// The incarnation a tag names.
#[inline]
pub(crate) fn tag_seq(t: u64) -> u64 {
    t >> (2 + SLOT_BITS)
}

/// The status word of incarnation `seq` in `state`.
#[inline]
pub(crate) fn status(seq: u64, state: u64) -> u64 {
    seq << 2 | state
}

/// The incarnation a status word belongs to.
#[inline]
pub(crate) fn status_seq(st: u64) -> u64 {
    st >> 2
}

/// The status word `st` with its state bits cleared: the undecided
/// status of `st`'s incarnation.
#[inline]
pub(crate) fn undecided_of(st: u64) -> u64 {
    st & !STATE_MASK
}

/// The sequence number after `seq`, wrapping inside the tag's field.
#[inline]
pub(crate) fn next_seq(seq: u64) -> u64 {
    (seq + 1) & SEQ_MASK
}

/// One target word of a CASN descriptor. Atomic, like every descriptor
/// field, because helpers read it while the owner may already be
/// rewriting it for its next operation (module docs, "Validation").
pub(crate) struct WordDesc {
    pub(crate) word: AtomicPtr<DcasWord>,
    pub(crate) old: AtomicU64,
    pub(crate) new: AtomicU64,
}

/// A CASN descriptor: up to [`MAX_CASN_WORDS`] entries, of which the
/// first `len` belong to the current incarnation, sorted by address, and
/// the status word `seq << 2 | state`.
pub(crate) struct CasnDesc {
    pub(crate) status: AtomicU64,
    pub(crate) len: AtomicUsize,
    pub(crate) entries: [WordDesc; MAX_CASN_WORDS],
}

/// An RDCSS descriptor: "install `casn` into the word that holds this
/// descriptor's tag iff that word held `old` and the CASN `casn` names
/// is still undecided". The target word is the one the tag sits in, so
/// it needs no field.
pub(crate) struct RdcssDesc {
    pub(crate) seq: AtomicU64,
    pub(crate) old: AtomicU64,
    pub(crate) casn: AtomicU64,
}

/// One thread's descriptors. Cache-line aligned so two threads' slots
/// never share a line.
#[repr(align(128))]
pub(crate) struct Slot {
    in_use: AtomicBool,
    pub(crate) casn: CasnDesc,
    pub(crate) rdcss: RdcssDesc,
}

impl Slot {
    /// A slot claimed by its creator, at sequence number 0 (the first
    /// operation and the first install each use 1).
    fn claimed() -> Self {
        Slot {
            in_use: AtomicBool::new(true),
            casn: CasnDesc {
                status: AtomicU64::new(status(0, UNDECIDED)),
                len: AtomicUsize::new(0),
                entries: std::array::from_fn(|_| WordDesc {
                    word: AtomicPtr::new(ptr::null_mut()),
                    old: AtomicU64::new(0),
                    new: AtomicU64::new(0),
                }),
            },
            rdcss: RdcssDesc {
                seq: AtomicU64::new(0),
                old: AtomicU64::new(0),
                casn: AtomicU64::new(0),
            },
        }
    }
}

/// One chunk of table entries: slot pointers, null until allocated.
type Chunk = [AtomicPtr<Slot>; CHUNK];

/// The table, chunk by chunk; null until a slot in the chunk is needed.
/// Chunks, like slots, are never freed.
static TABLE: [AtomicPtr<Chunk>; MAX_SLOTS / CHUNK] =
    [const { AtomicPtr::new(ptr::null_mut()) }; MAX_SLOTS / CHUNK];

/// The table entry for slot `index`, allocating its chunk on first use.
fn entry(index: usize) -> &'static AtomicPtr<Slot> {
    let top = &TABLE[index >> CHUNK_BITS];
    let mut chunk = top.load(Ordering::Acquire);
    if chunk.is_null() {
        let fresh: *mut Chunk =
            Box::into_raw(Box::new([const { AtomicPtr::new(ptr::null_mut()) }; CHUNK]));
        match top.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => chunk = fresh,
            Err(other) => {
                // SAFETY: `fresh` was never published.
                drop(unsafe { Box::from_raw(fresh) });
                chunk = other;
            }
        }
    }
    // SAFETY: chunks are leaked on allocation and never freed.
    unsafe { &(*chunk)[index & (CHUNK - 1)] }
}

/// Slots ever allocated.
static CREATED: AtomicUsize = AtomicUsize::new(0);

/// The slot a tag (or an owner's hazard announcement) names.
///
/// Any index read from a tag is allocated, chunk and slot: both were
/// published into the table before the slot's owner wrote its first
/// tag, and the tag reached the caller through the release/acquire chain
/// that starts there.
#[inline]
pub(crate) fn slot(index: usize) -> &'static Slot {
    let chunk = TABLE[index >> CHUNK_BITS].load(Ordering::Acquire);
    debug_assert!(!chunk.is_null(), "tag names unallocated descriptor slot {index}");
    // SAFETY: chunks and slots are leaked on allocation and never freed;
    // the index names an allocated slot (doc comment above).
    unsafe {
        let p = (*chunk)[index & (CHUNK - 1)].load(Ordering::Acquire);
        debug_assert!(!p.is_null(), "tag names unallocated descriptor slot {index}");
        &*p
    }
}

/// Descriptor slots allocated so far, process-wide: one CASN and one
/// RDCSS descriptor each. Slots are never freed (immortal memory), so
/// this is also the high-water mark of threads holding descriptors at
/// once. Exported as
/// [`StrategyStats::descriptor_slots`](crate::StrategyStats).
pub fn descriptor_slots() -> u64 {
    CREATED.load(Ordering::Relaxed) as u64
}

/// The calling thread's claim on a slot. Dropping it (at thread exit)
/// hands the slot to the next thread that needs one.
pub(crate) struct Mine {
    pub(crate) index: usize,
    pub(crate) slot: &'static Slot,
    /// No operation has prepared this claim's CASN descriptor yet.
    fresh: Cell<bool>,
}

impl Mine {
    /// Claims the first free slot, allocating one if every allocated
    /// slot is taken. Lock-free: each retry follows another thread's
    /// successful claim or allocation.
    fn claim() -> Mine {
        for index in 0..MAX_SLOTS {
            let entry = entry(index);
            let mut p = entry.load(Ordering::Acquire);
            if p.is_null() {
                let fresh: *mut Slot = Box::into_raw(Box::new(Slot::claimed()));
                match entry.compare_exchange(
                    ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        CREATED.fetch_add(1, Ordering::Relaxed);
                        // SAFETY: just published; never freed.
                        return Mine::new(index, unsafe { &*fresh });
                    }
                    Err(other) => {
                        // SAFETY: `fresh` was never published.
                        drop(unsafe { Box::from_raw(fresh) });
                        p = other;
                    }
                }
            }
            // SAFETY: allocated slots are never freed.
            let s = unsafe { &*p };
            // Acquire pairs with the last owner's release in `drop`, so
            // the sequence numbers read next continue from its last ones.
            if s.in_use
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return Mine::new(index, s);
            }
        }
        panic!("more than {MAX_SLOTS} threads hold DCAS descriptors at once");
    }

    fn new(index: usize, slot: &'static Slot) -> Mine {
        Mine { index, slot, fresh: Cell::new(true) }
    }

    /// Whether this is the claim's first operation (which is when a
    /// thread "creates" its descriptor, for the strategy's stats).
    #[inline]
    pub(crate) fn take_fresh(&self) -> bool {
        self.fresh.replace(false)
    }
}

impl Drop for Mine {
    fn drop(&mut self) {
        // No tag of this slot is live: each operation and each install
        // finished before its owner returned.
        self.slot.in_use.store(false, Ordering::Release);
    }
}

thread_local! {
    static MINE: Mine = Mine::claim();
}

/// Runs `f` with the calling thread's descriptor slot, claiming it on
/// the thread's first call. During thread teardown, after the slot has
/// gone back to the table, `f` runs on a slot claimed for this call
/// alone.
#[inline]
pub(crate) fn with_mine<T>(f: impl FnOnce(&Mine) -> T) -> T {
    let mut f = Some(f);
    match MINE.try_with(|m| f.take().map(|f| f(m))) {
        Ok(Some(t)) => t,
        _ => f.take().expect("closure ran")(&Mine::claim()),
    }
}

/// Pushes the target-word addresses of slot `index`'s CASN descriptor
/// into `out`: the hazard scanner's expansion of an owner's
/// [`EXPAND_DESC`](crate::reclaim::EXPAND_DESC) announcement. Memory
/// safe at any time, since slots are immortal and every field is atomic;
/// a snapshot that races the owner's next operation yields that
/// operation's words too, which only keeps a few blocks for one more
/// scan.
pub(crate) fn expand_descriptor_hazard(index: usize, out: &mut Vec<usize>) {
    let d = &slot(index).casn;
    let len = d.len.load(Ordering::Acquire).min(MAX_CASN_WORDS);
    for e in &d.entries[..len] {
        let w = e.word.load(Ordering::Acquire);
        if !w.is_null() {
            out.push(w as usize);
        }
    }
}

#[cfg(test)]
pub(crate) fn my_index() -> usize {
    with_mine(|m| m.index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip_slot_and_seq() {
        for (slot_i, seq) in [(0, 0), (1, 1), (MAX_SLOTS - 1, SEQ_MASK), (77, 123_456_789)] {
            for kind in [RDCSS_TAG, CASN_TAG] {
                let t = tag(slot_i, seq, kind);
                assert_eq!(t & TAG_MASK, kind);
                assert_eq!((tag_slot(t), tag_seq(t)), (slot_i, seq));
            }
        }
        assert_eq!(next_seq(SEQ_MASK), 0, "the sequence wraps inside its tag field");
        let st = status(42, FAILED);
        assert_eq!((status_seq(st), undecided_of(st)), (42, status(42, UNDECIDED)));
    }

    #[test]
    fn an_exited_threads_slot_is_reused_and_its_seq_keeps_counting() {
        // A thread moves its slot's sequence number on and exits; the
        // next claim of that slot continues from it. Threads of other
        // tests claim slots concurrently, so the claiming thread takes
        // free slots in index order until it reaches ours, and if another
        // thread got there first, that thread's claim is the reuse.
        let (index, seq) = std::thread::spawn(|| {
            with_mine(|m| {
                let st = m.slot.casn.status.load(Ordering::Relaxed);
                m.slot.casn.status.store(status(status_seq(st) + 5, UNDECIDED), Ordering::Relaxed);
                (m.index, status_seq(st) + 5)
            })
        })
        .join()
        .unwrap();
        let seen = std::thread::spawn(move || {
            let mut held = Vec::new();
            loop {
                let m = Mine::claim();
                if m.index >= index {
                    return status_seq(slot(index).casn.status.load(Ordering::Relaxed));
                }
                held.push(m);
            }
        })
        .join()
        .unwrap();
        assert!(seen >= seq, "the reused slot's sequence number went back: {seen} < {seq}");
    }

    #[test]
    fn a_claim_past_the_first_chunk_gets_a_working_slot() {
        // Hold claims until one lands in the second chunk of the table
        // (other tests' threads may hold some of the first chunk's).
        let mut held = Vec::new();
        let m = loop {
            let m = Mine::claim();
            if m.index >= CHUNK {
                break m;
            }
            held.push(m);
        };
        assert!(ptr::eq(slot(m.index), m.slot));
        let t = tag(m.index, 7, CASN_TAG);
        assert!(ptr::eq(slot(tag_slot(t)), m.slot));
        assert_eq!(tag_seq(t), 7);
    }

    #[test]
    fn expansion_names_the_current_entries() {
        std::thread::spawn(|| {
            let (a, b) = (DcasWord::new(0), DcasWord::new(0));
            let index = with_mine(|m| {
                let d = &m.slot.casn;
                d.entries[0].word.store(&a as *const _ as *mut _, Ordering::Release);
                d.entries[1].word.store(&b as *const _ as *mut _, Ordering::Release);
                d.len.store(2, Ordering::Release);
                m.index
            });
            let mut out = Vec::new();
            expand_descriptor_hazard(index, &mut out);
            assert_eq!(out, vec![a.addr(), b.addr()]);
        })
        .join()
        .unwrap();
    }
}
