//! Michael-style hazard pointers: the bounded-garbage backend.
//!
//! Each thread owns a hazard record — a fixed array of
//! [`SLOTS`] hazard slots plus a private retired list — registered in a
//! process-wide lock-free list. Readers *announce* a pointer in a slot
//! before dereferencing it and **validate** by re-reading the word the
//! pointer came from; writers retire blocks into their own list and,
//! every [`SCAN_THRESHOLD`] retirements, *scan*: snapshot every
//! announced hazard, then free exactly the retired blocks no hazard
//! points into. The amortized cost is O(1) per retirement, and the
//! garbage a frozen thread can strand is bounded by what its slots (and
//! everyone's unscanned tails) can name:
//!
//! ```text
//! live ≤ records × (SCAN_THRESHOLD + SLOTS × (1 + MAX_CASN_WORDS))
//! ```
//!
//! — the bound `tests/reclaim_torture.rs` asserts while a victim thread
//! is frozen mid-operation. The `MAX_CASN_WORDS` factor comes from
//! *descriptor expansion*: a slot flagged [`super::EXPAND_DESC`] names a
//! DCAS descriptor slot instead of an address, and the scanner protects
//! the target words that descriptor names (see
//! `desc::expand_descriptor_hazard`). The only blocks retired through
//! this backend are the deques' nodes: DCAS descriptors are reused by
//! their threads, never retired.
//!
//! # Why descriptor expansion is safe to read
//!
//! The scanner reads the descriptor a flagged slot names. That read
//! races with the owner starting its next operation, so it must stay
//! safe against a *stale* snapshot — which it is, because descriptor
//! memory is **immortal**: descriptor slots are allocated once and never
//! freed (`desc`), and every field the scanner reads is an atomic. A
//! snapshot that races the owner's next operation yields that
//! operation's words, and the scan merely keeps a few blocks
//! conservatively for one round.
//!
//! # What a stale helper may touch
//!
//! A DCAS owner announces its own descriptor, expanded, from before it
//! publishes an operation until after its phase 2 has closed it (`mcas`
//! module docs): for as long as any thread can find the operation's tag
//! in a word, a scan protects every node holding one of its target
//! words. A helper can still act on an operation after its owner has
//! returned and dropped that announcement, if it read the tag or the
//! descriptor before then. Every access such a stale helper makes to a
//! target word is one of these:
//!
//! 1. *A load, or a compare-exchange whose expected value is a tag.* The
//!    phase-2 resolution and the completion of an RDCSS expect a tag of
//!    the finished incarnation or of an RDCSS the helper found in the
//!    word. No word holds a tag of the finished incarnation after the
//!    owner's phase 2, and a free slot's first word holds a free-list
//!    link that equals no tag ([`alloc`](crate::alloc), "Free slots
//!    match no DCAS expectation"). So these fail, or complete an RDCSS
//!    that is still live, which is the protocol itself. A load that
//!    finds another operation's tag leads the helper to help that
//!    operation.
//! 2. *The RDCSS install*, which expects the entry's old value: a
//!    payload, which a freed or reused node word could hold again. So
//!    before each install a helper announces the target word in a hazard
//!    slot of its own, then re-reads the operation's status, and installs
//!    only if it is still undecided. Undecided means the owner had not
//!    returned, so the owner's announcement still covered the word when
//!    the helper's took over, and the helper's covers it until the helper
//!    announces its next word: the node is not freed under the install
//!    or its completion. For a stale helper the status is decided by
//!    the time the completion reads it, so the completion writes the old
//!    value back and the word's value is as it was. Until the completion
//!    lands, a thread that reads the word through a strategy finds an
//!    RDCSS tag whose descriptor is the helper's own, still live, and
//!    completes it the same way.
//!
//! Reads made *around* a strategy could see that transient tag in a node
//! that is retired but not yet freed. The LFRC deque's `release`
//! therefore reads a dying node's words through its strategy. The
//! deques' teardown walks cannot meet one: a helper only helps
//! operations whose tag it found in a word of the deque it is itself
//! operating on, so no helper acts on a deque that is being dropped.
//!
//! The hand-off in 2 is Michael's validation with "still undecided" in
//! place of "still linked", and it has that validation's reach: it
//! covers a node retired after the helper announced it. A node already
//! retired while an undecided operation named it (a DCAS published on
//! expected values that no longer hold, before it fails) stays covered
//! while the owner runs, but a scan that read the helper's slot before
//! the announcement and the owner's slots after it returned could free
//! it. The free-list link encoding keeps such a late install out of
//! the allocator's free lists; in a reused node's other words it would
//! be value-preserving, as above. Under epochs the helper's pin plays
//! the announcement's part, with the same reach: it covers every node
//! retired after the helper pinned.
//!
//! The garbage bound covers these announcements: each is one address
//! in one slot of the helper's own record, and the bound counts every
//! slot.
//!
//! [`NodePool`]: crate::NodePool

//! # Scan ordering
//!
//! A scan (1) takes its own retired list (plus any orphans it can
//! opportunistically claim), **then** (2) snapshots hazards, then (3)
//! frees the unprotected blocks. The order is load-bearing: a block
//! retired after (2) cannot be in the list taken at (1), so every block
//! a scan frees was retired — hence unlinked — before the snapshot, and
//! any reader that announced it *before* the unlink is in the snapshot
//! while any reader announcing *after* fails its validation re-read.
//!
//! A scan reuses two scratch buffers that live in the record (the
//! candidates and the hazard snapshot), so once they have grown to
//! their steady-state size a scan allocates nothing. The snapshot is
//! still taken afresh on every scan; only its capacity carries over.
//!
//! Thread exit clears the slots, runs a final scan, parks whatever is
//! still hazard-protected on the global orphan list (drained by other
//! threads' scans), and releases the record for reuse by future
//! threads.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use super::{Gauge, ReclaimGuard, Reclaimer, EXPAND_DESC};
use crate::desc::expand_descriptor_hazard;

/// Hazard slots per thread record. A guard window uses one slot per
/// simultaneously protected pointer: the deque chunk walks need
/// `MAX_BATCH + 2`, nested strategy helping a handful more, so 64
/// leaves generous headroom; exceeding it is a bug and panics.
pub const SLOTS: usize = 64;

/// Retire this many blocks between scans. Amortizes the O(records ×
/// SLOTS) snapshot over many retirements while keeping each thread's
/// unscanned tail — one term of the static garbage bound — small.
pub const SCAN_THRESHOLD: usize = 128;

/// One retired block awaiting a hazard-free scan.
struct Retired {
    ptr: *mut u8,
    len: usize,
    dtor: unsafe fn(*mut u8),
    /// Gauge stripe of the retiring thread, credited by the free.
    stripe: usize,
}

// SAFETY: a `Retired` is an exclusively owned unlinked block (retire
// contract); moving it between threads (orphan list) moves that
// ownership.
unsafe impl Send for Retired {}

/// Per-thread hazard record, registered in the global list for the
/// process lifetime (records are leaked and reused, never freed, so
/// scanners can traverse the list without synchronization).
pub(crate) struct HazardRecord {
    /// Announced hazards; `0` = empty. Written by the owner, read by
    /// every scanner.
    slots: [AtomicU64; SLOTS],
    /// Claimed by a live thread. Cleared on thread exit, re-claimed by
    /// a CAS from later threads.
    in_use: AtomicBool,
    /// Next record in the append-only registry list.
    next: AtomicPtr<HazardRecord>,
    /// First free slot (owner-only); guards open LIFO windows above it.
    top: Cell<usize>,
    /// This thread's retired blocks (owner-only).
    retired: RefCell<Vec<Retired>>,
    /// Scan scratch (owner-only): the blocks under test, of which the
    /// protected ones go back to `retired`.
    candidates: Cell<Vec<Retired>>,
    /// Scan scratch (owner-only): the hazard snapshot.
    hazards: Cell<Vec<usize>>,
}

// SAFETY: `slots`/`in_use`/`next` are atomics; `top`, `retired` and the
// scan scratch are accessed only by the owning thread (the TLS
// destructor included).
unsafe impl Send for HazardRecord {}
unsafe impl Sync for HazardRecord {}

static HEAD: AtomicPtr<HazardRecord> = AtomicPtr::new(std::ptr::null_mut());

/// Retired blocks of exited threads, still hazard-protected at exit
/// time; drained opportunistically by scans.
fn orphans() -> &'static Mutex<Vec<Retired>> {
    static ORPHANS: OnceLock<Mutex<Vec<Retired>>> = OnceLock::new();
    ORPHANS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Gauge for all hazard-backend retirements.
pub(crate) static HAZARD_GAUGE: Gauge = Gauge::new();

/// Claims a free record from the registry or registers a fresh one.
fn acquire_record() -> &'static HazardRecord {
    let mut cur = HEAD.load(Ordering::Acquire);
    while !cur.is_null() {
        // SAFETY: records are leaked; any pointer in the list is live.
        let rec = unsafe { &*cur };
        if rec
            .in_use
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            return rec;
        }
        cur = rec.next.load(Ordering::Acquire);
    }
    let rec: &'static HazardRecord = Box::leak(Box::new(HazardRecord {
        slots: [const { AtomicU64::new(0) }; SLOTS],
        in_use: AtomicBool::new(true),
        next: AtomicPtr::new(std::ptr::null_mut()),
        top: Cell::new(0),
        retired: RefCell::new(Vec::new()),
        candidates: Cell::new(Vec::new()),
        hazards: Cell::new(Vec::new()),
    }));
    let mut head = HEAD.load(Ordering::Acquire);
    loop {
        rec.next.store(head, Ordering::Release);
        match HEAD.compare_exchange(
            head,
            rec as *const _ as *mut _,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return rec,
            Err(h) => head = h,
        }
    }
}

/// Number of records ever registered (in use or parked). The static
/// garbage bound scales with this, not with live threads: a frozen
/// thread's record stays claimed.
pub fn registered_records() -> usize {
    let mut n = 0;
    let mut cur = HEAD.load(Ordering::Acquire);
    while !cur.is_null() {
        n += 1;
        // SAFETY: records are leaked; list pointers are always live.
        cur = unsafe { (*cur).next.load(Ordering::Acquire) };
    }
    n
}

/// The static bound on hazard-backend live garbage given the current
/// registry size (module docs): every record can strand its unscanned
/// tail plus whatever its slots (with descriptor expansion) can name.
pub fn static_garbage_bound() -> u64 {
    let per_record = SCAN_THRESHOLD + SLOTS * (1 + crate::MAX_CASN_WORDS);
    (registered_records() as u64).saturating_mul(per_record as u64).max(1)
}

/// Snapshots every announced hazard into `hazards` (cleared first),
/// expanded, sorted, deduplicated.
fn snapshot_hazards(hazards: &mut Vec<usize>) {
    hazards.clear();
    let mut cur = HEAD.load(Ordering::Acquire);
    while !cur.is_null() {
        // SAFETY: records are leaked; list pointers are always live.
        let rec = unsafe { &*cur };
        for slot in &rec.slots {
            let v = slot.load(Ordering::SeqCst);
            if v == 0 {
                continue;
            }
            if v & EXPAND_DESC != 0 {
                // A descriptor slot, not an address: protect the words
                // it names (module docs: slots are immortal).
                expand_descriptor_hazard((v >> 2) as usize, hazards);
            } else {
                hazards.push(v as usize);
            }
        }
        cur = rec.next.load(Ordering::Acquire);
    }
    hazards.sort_unstable();
    hazards.dedup();
}

/// `true` if any hazard address falls inside `[ptr, ptr + len)`.
fn protected(hazards: &[usize], ptr: *mut u8, len: usize) -> bool {
    let lo = ptr as usize;
    let idx = hazards.partition_point(|&h| h < lo);
    idx < hazards.len() && hazards[idx] < lo + len
}

/// One scan: take the caller's retired list (plus claimable orphans),
/// snapshot hazards, free every unprotected block, keep the rest.
fn scan(rec: &HazardRecord) {
    // The scratch buffers are taken out, not borrowed: a dtor that
    // retires (and so may scan again) finds them empty and allocates
    // its own.
    let mut candidates = rec.candidates.take();
    candidates.append(&mut rec.retired.borrow_mut());
    if let Ok(mut orphaned) = orphans().try_lock() {
        candidates.append(&mut orphaned);
    }
    if !candidates.is_empty() {
        let mut hazards = rec.hazards.take();
        snapshot_hazards(&mut hazards);
        candidates.retain(|r| {
            if protected(&hazards, r.ptr, r.len) {
                return true;
            }
            // SAFETY: `r` was retired (unlinked before our hazard
            // snapshot — scan-ordering argument in the module docs) and
            // no snapshot hazard covers it, so no thread can still hold
            // a validated reference; the dtor runs exactly once.
            unsafe { (r.dtor)(r.ptr) };
            HAZARD_GAUGE.on_free(r.stripe);
            false
        });
        rec.retired.borrow_mut().append(&mut candidates);
        rec.hazards.set(hazards);
    }
    rec.candidates.set(candidates);
}

/// Owner-side TLS handle. The destructor empties what it can, orphans
/// the rest, and releases the record for reuse.
struct ThreadRec(&'static HazardRecord);

impl Drop for ThreadRec {
    fn drop(&mut self) {
        let rec = self.0;
        for slot in &rec.slots {
            slot.store(0, Ordering::SeqCst);
        }
        rec.top.set(0);
        scan(rec);
        let leftovers: Vec<Retired> = rec.retired.borrow_mut().drain(..).collect();
        if !leftovers.is_empty() {
            orphans().lock().unwrap().extend(leftovers);
        }
        rec.in_use.store(false, Ordering::Release);
    }
}

thread_local! {
    static REC: ThreadRec = ThreadRec(acquire_record());
}

/// Hazard-pointer backend: garbage bounded by
/// [`static_garbage_bound`] even under frozen threads.
#[derive(Default)]
pub struct HazardReclaimer;

/// A LIFO window of the calling thread's hazard slots, opened at
/// [`HazardReclaimer::pin`]. `protect(i, _)` maps to absolute slot
/// `base + i`; dropping the guard clears the window. Guards must drop
/// in reverse creation order per thread (they do: every call path opens
/// and closes them in strict stack order).
pub struct HazardGuard {
    rec: &'static HazardRecord,
    base: usize,
}

impl Reclaimer for HazardReclaimer {
    type Guard = HazardGuard;
    const BACKEND: &'static str = "hazard";
    const MCAS_NAME: &'static str = "harris-mcas-hazard";

    fn pin() -> HazardGuard {
        REC.with(|r| HazardGuard { rec: r.0, base: r.0.top.get() })
    }

    fn flush() {
        REC.with(|r| scan(r.0));
    }

    fn live_garbage() -> u64 {
        HAZARD_GAUGE.live()
    }

    fn garbage_high_water() -> u64 {
        HAZARD_GAUGE.high_water()
    }
}

impl ReclaimGuard for HazardGuard {
    const NEEDS_PROTECT: bool = true;

    #[inline]
    fn protect(&self, slot: usize, addr: u64) {
        let idx = self.base + slot;
        assert!(
            idx < SLOTS,
            "hazard slot overflow: window base {} + slot {slot} exceeds {SLOTS} \
             (helping recursion deeper than the record can announce)",
            self.base
        );
        self.rec.slots[idx].store(addr, Ordering::SeqCst);
        if idx + 1 > self.rec.top.get() {
            self.rec.top.set(idx + 1);
        }
    }

    #[inline]
    fn clear(&self, slot: usize) {
        let idx = self.base + slot;
        debug_assert!(idx < SLOTS);
        self.rec.slots[idx].store(0, Ordering::SeqCst);
    }

    unsafe fn retire(&self, ptr: *mut u8, len: usize, dtor: unsafe fn(*mut u8)) {
        let stripe = HAZARD_GAUGE.on_retire();
        let over = {
            let mut retired = self.rec.retired.borrow_mut();
            retired.push(Retired { ptr, len, dtor, stripe });
            retired.len() >= SCAN_THRESHOLD
        };
        if over {
            scan(self.rec);
        }
    }
}

impl Drop for HazardGuard {
    fn drop(&mut self) {
        for idx in self.base..self.rec.top.get() {
            self.rec.slots[idx].store(0, Ordering::SeqCst);
        }
        self.rec.top.set(self.base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    unsafe fn free_u64(p: *mut u8) {
        // SAFETY: test blocks below come from `Box::into_raw::<u64>`.
        drop(unsafe { Box::from_raw(p.cast::<u64>()) });
    }

    #[test]
    fn reclaim_hazard_unprotected_block_freed_on_flush() {
        static FREED: AtomicUsize = AtomicUsize::new(0);
        unsafe fn counted_free(p: *mut u8) {
            // SAFETY: `p` came from `Box::into_raw::<u64>`.
            drop(unsafe { Box::from_raw(p.cast::<u64>()) });
            FREED.fetch_add(1, Ordering::SeqCst);
        }
        let g = HazardReclaimer::pin();
        let b = Box::into_raw(Box::new(1u64));
        // SAFETY: `b` is unreachable elsewhere.
        unsafe { g.retire(b.cast(), std::mem::size_of::<u64>(), counted_free) };
        drop(g);
        HazardReclaimer::flush();
        assert_eq!(FREED.load(Ordering::SeqCst), 1, "unprotected block not freed by flush");
    }

    #[test]
    fn reclaim_hazard_protected_block_survives_scan() {
        static FREED: AtomicUsize = AtomicUsize::new(0);
        unsafe fn counted_free(p: *mut u8) {
            // SAFETY: `p` came from `Box::into_raw::<u64>`.
            drop(unsafe { Box::from_raw(p.cast::<u64>()) });
            FREED.fetch_add(1, Ordering::SeqCst);
        }
        let b = Box::into_raw(Box::new(2u64));
        let addr = b as u64;
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let g = HazardReclaimer::pin();
            g.protect(0, addr);
            tx.send(()).unwrap();
            done_rx.recv().unwrap();
            drop(g);
        });
        rx.recv().unwrap();
        let g = HazardReclaimer::pin();
        // SAFETY: retired exactly once; the holder only reads.
        unsafe { g.retire(b.cast(), std::mem::size_of::<u64>(), counted_free) };
        drop(g);
        for _ in 0..4 {
            HazardReclaimer::flush();
        }
        assert_eq!(FREED.load(Ordering::SeqCst), 0, "hazard-protected block was freed");
        done_tx.send(()).unwrap();
        holder.join().unwrap();
        for _ in 0..100 {
            HazardReclaimer::flush();
            if FREED.load(Ordering::SeqCst) == 1 {
                return;
            }
            std::thread::yield_now();
        }
        panic!("block not freed after hazard cleared");
    }

    #[test]
    fn reclaim_hazard_interior_pointer_protects_block() {
        // A hazard may point into the middle of an allocation (entry
        // target words live inside nodes); the range check must cover it.
        let b: *mut [u64; 4] = Box::into_raw(Box::new([0u64; 4]));
        let interior = unsafe { (b as *mut u64).add(2) } as usize;
        let hazards = vec![interior];
        assert!(protected(&hazards, b.cast(), std::mem::size_of::<[u64; 4]>()));
        assert!(!protected(&hazards, unsafe { b.add(1) }.cast(), 32));
        drop(unsafe { Box::from_raw(b) });
    }

    #[test]
    fn reclaim_hazard_guard_windows_nest_lifo() {
        let outer = HazardReclaimer::pin();
        outer.protect(0, 0x100);
        outer.protect(1, 0x200);
        {
            let inner = HazardReclaimer::pin();
            inner.protect(0, 0x300);
            REC.with(|r| {
                assert_eq!(r.0.slots[r.0.top.get() - 1].load(Ordering::SeqCst), 0x300);
            });
        }
        REC.with(|r| {
            // Inner window cleared, outer still announced.
            let base = r.0.top.get() - 2;
            assert_eq!(r.0.slots[base].load(Ordering::SeqCst), 0x100);
            assert_eq!(r.0.slots[base + 1].load(Ordering::SeqCst), 0x200);
        });
        drop(outer);
    }

    #[test]
    fn reclaim_hazard_exited_thread_record_is_reusable_and_orphans_drain() {
        static FREED: AtomicUsize = AtomicUsize::new(0);
        unsafe fn counted_free(p: *mut u8) {
            // SAFETY: `p` came from `Box::into_raw::<u64>`.
            drop(unsafe { Box::from_raw(p.cast::<u64>()) });
            FREED.fetch_add(1, Ordering::SeqCst);
        }
        // Hold a hazard here so the exiting thread cannot free its own
        // retired block and must orphan it.
        let b = Box::into_raw(Box::new(3u64));
        let addr = b as u64;
        let holder = HazardReclaimer::pin();
        holder.protect(0, addr);
        let b_usize = b as usize;
        std::thread::spawn(move || {
            let g = HazardReclaimer::pin();
            // SAFETY: retired exactly once.
            unsafe {
                g.retire(b_usize as *mut u8, std::mem::size_of::<u64>(), counted_free)
            };
        })
        .join()
        .unwrap();
        assert_eq!(FREED.load(Ordering::SeqCst), 0);
        drop(holder);
        for _ in 0..100 {
            HazardReclaimer::flush();
            if FREED.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(FREED.load(Ordering::SeqCst), 1, "orphaned block never drained");
        assert!(registered_records() >= 1);
        assert!(static_garbage_bound() >= SCAN_THRESHOLD as u64);
    }

    #[test]
    fn reclaim_hazard_bound_holds_under_churn() {
        // Pure-reclaim churn (no DCAS): many threads retire boxes as
        // fast as they can; live garbage must respect the static bound.
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = vec![];
        for _ in 0..4 {
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let g = HazardReclaimer::pin();
                    for _ in 0..64 {
                        let b = Box::into_raw(Box::new(9u64));
                        // SAFETY: unreachable elsewhere; retired once.
                        unsafe { g.retire(b.cast(), std::mem::size_of::<u64>(), free_u64) };
                    }
                }
            }));
        }
        for _ in 0..200 {
            assert!(
                HazardReclaimer::live_garbage() <= static_garbage_bound(),
                "live garbage {} exceeded static bound {}",
                HazardReclaimer::live_garbage(),
                static_garbage_bound()
            );
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
