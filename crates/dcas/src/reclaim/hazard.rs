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
//! *descriptor expansion*: a slot flagged
//! [`super::EXPAND_DESC`] or
//! [`super::EXPAND_ENTRY`] additionally protects the
//! entry target words the descriptor names (see
//! `mcas::expand_descriptor_hazard`), which is what keeps helper-side
//! phase-2 CASes on already-unlinked nodes safe.
//!
//! # Why descriptor expansion is safe to read
//!
//! The scanner dereferences a flagged slot value to read the
//! descriptor's `len`/entry addresses. That read races with slot
//! clears, so it must stay safe even against a *stale* snapshot — which
//! it is, because descriptor memory is **immortal**: under this backend
//! every descriptor free goes back to the descriptor pool's
//! freelists or their global reserve, never to the allocator, so a
//! once-valid descriptor address always points at a live
//! `DcasDescriptor` allocation whose `len` and entry-address fields are
//! atomics. A recycled descriptor yields garbage addresses — the scan
//! merely keeps a few blocks conservatively for one round.
//!
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
//! Thread exit clears the slots, runs a final scan, parks whatever is
//! still hazard-protected on the global orphan list (drained by other
//! threads' scans), and releases the record for reuse by future
//! threads.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use super::{Gauge, ReclaimGuard, Reclaimer, EXPAND_DESC, EXPAND_ENTRY, EXPAND_MASK};
use crate::mcas::{expand_descriptor_hazard, expand_entry_hazard};

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
}

// SAFETY: `slots`/`in_use`/`next` are atomics; `top` and `retired` are
// accessed only by the owning thread (the TLS destructor included).
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

/// Snapshot every announced hazard, expanded, sorted, deduplicated.
fn snapshot_hazards() -> Vec<usize> {
    let mut hazards = Vec::with_capacity(64);
    let mut cur = HEAD.load(Ordering::Acquire);
    while !cur.is_null() {
        // SAFETY: records are leaked; list pointers are always live.
        let rec = unsafe { &*cur };
        for slot in &rec.slots {
            let v = slot.load(Ordering::SeqCst);
            if v == 0 {
                continue;
            }
            let addr = (v & !EXPAND_MASK) as usize;
            hazards.push(addr);
            if v & EXPAND_DESC != 0 {
                // SAFETY: flagged values are descriptor addresses and
                // descriptor memory is immortal under this backend
                // (module docs), so the atomic field reads inside are
                // always in-bounds of a live allocation.
                unsafe { expand_descriptor_hazard(addr as *const u8, &mut hazards) };
            } else if v & EXPAND_ENTRY != 0 {
                // SAFETY: as above — entries are embedded in immortal
                // descriptor memory.
                unsafe { expand_entry_hazard(addr as *const u8, &mut hazards) };
            }
        }
        cur = rec.next.load(Ordering::Acquire);
    }
    hazards.sort_unstable();
    hazards.dedup();
    hazards
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
    let mut candidates: Vec<Retired> = rec.retired.borrow_mut().drain(..).collect();
    if let Ok(mut orphaned) = orphans().try_lock() {
        candidates.append(&mut orphaned);
    }
    if candidates.is_empty() {
        return;
    }
    let hazards = snapshot_hazards();
    let mut kept = Vec::new();
    for r in candidates {
        if protected(&hazards, r.ptr, r.len) {
            kept.push(r);
        } else {
            // SAFETY: `r` was retired (unlinked before our hazard
            // snapshot — scan-ordering argument in the module docs) and
            // no snapshot hazard covers it, so no thread can still hold
            // a validated reference; the dtor runs exactly once.
            unsafe { (r.dtor)(r.ptr) };
            HAZARD_GAUGE.on_free();
        }
    }
    rec.retired.borrow_mut().extend(kept);
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
        HAZARD_GAUGE.on_retire();
        let over = {
            let mut retired = self.rec.retired.borrow_mut();
            retired.push(Retired { ptr, len, dtor });
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
