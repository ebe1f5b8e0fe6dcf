//! Lock-free DCAS emulation from single-word CAS.
//!
//! This module implements the restricted double-compare single-swap
//! (RDCSS) and a two-entry multi-word CAS (CASN) in the style of Harris,
//! Fraser & Pratt, *A Practical Multi-Word Compare-and-Swap Operation*
//! (DISC 2002) — the "non-blocking software emulation" family the paper
//! cites as references \[8, 30\]. With this strategy the deque algorithms
//! built on top are non-blocking end-to-end.
//!
//! # How it works
//!
//! A DCAS acquires a *descriptor* recording both (address, old, new)
//! entries plus a status word (`UNDECIDED` → `SUCCEEDED`/`FAILED`).
//!
//! * **Phase 1** installs a tagged pointer to the descriptor into each
//!   target word (in ascending address order, to bound mutual helping)
//!   using RDCSS, which atomically refuses the installation once the
//!   status has been decided.
//! * The status is then decided with a single CAS.
//! * **Phase 2** replaces each tagged pointer by the new value (on
//!   success) or the old value (on failure).
//!
//! Any thread that encounters a tagged word *helps* the operation it
//! belongs to before retrying its own, which is what makes the emulation
//! lock-free: a stalled thread's operation is finished by whoever trips
//! over it.
//!
//! # Descriptor pooling
//!
//! The descriptor for each operation comes from a per-thread freelist
//! ([`pool`](crate::pool)) rather than a fresh `Box`, so a steady-state
//! `dcas`/`dcas_strong` performs **zero heap allocations**: the epoch
//! collector that runs the deferred releases reuses its buffers too, and
//! `tests/steady_state_alloc.rs` counts every allocation to hold it to
//! that (a miss — cold cache, or releases still aging through the grace
//! period — falls back to `Box::new`, preserving lock-freedom). Managing
//! descriptor memory costs no lock and no shared write: only relaxed
//! increments of the calling thread's own gauge stripes (the descriptor
//! gauge and the reclaimer's garbage gauge, see
//! [`reclaim`](crate::reclaim)). The hazard backend holds to "zero
//! allocations" as well: each scan takes a fresh hazard snapshot, but
//! into candidate and snapshot buffers that live in the thread's hazard
//! record and keep their capacity from scan to scan. Because the RDCSS
//! descriptor of each target word (`Entry`) is embedded in its parent
//! `DcasDescriptor`, recycling the parent recycles the RDCSS descriptors
//! with it. A freshly boxed descriptor joins the pool when it is retired.
//!
//! # Owner fast-path installation
//!
//! RDCSS exists to stop a *helper* from (re)installing a descriptor
//! after its status has been decided. The owner's very first
//! installation needs no such guard: until that CAS lands, the
//! descriptor is private — no other thread can have observed it, so no
//! thread can have decided its status, which is therefore still
//! `UNDECIDED` exactly as the owner wrote it. The owner may thus install
//! the first (lowest-address) entry with one plain CAS instead of a full
//! RDCSS (install CAS + status check + payload CAS), and when that CAS
//! fails on a value mismatch the descriptor was *never published* and
//! goes straight back to the freelist with no grace period. Helpers —
//! and the second entry, installed after publication — always use RDCSS.
//!
//! # Contention management
//!
//! Retry loops — helping chains in [`HarrisMcas::load`]-style reads, CAS
//! conflicts in `store`/`cas`, install conflicts inside CASN, and the
//! outer `dcas_strong` loop — apply [`Backoff`](crate::Backoff)
//! (exponential spin, then yield) *after* first helping whichever
//! operation was found in the way. Help-then-back-off keeps the protocol
//! lock-free (the conflicting operation is driven forward before we
//! sleep on it) while stopping retry storms from saturating the
//! contended cache line.
//!
//! # Tagging and reclamation
//!
//! The two reserved low bits of every [`DcasWord`] distinguish payloads
//! (`00`) from RDCSS descriptors (`01`) and DCAS descriptors (`10`).
//! Descriptor lifetime is managed by a pluggable
//! [`Reclaimer`](crate::reclaim::Reclaimer) backend: `HarrisMcas<R>` is
//! generic over it, with [`EpochReclaimer`] (the vendored
//! `crossbeam-epoch` shim) as the default and
//! [`HazardReclaimer`](crate::reclaim::hazard::HazardReclaimer) — alias
//! [`HarrisMcasHazard`] — as the bounded-garbage alternative.
//!
//! Under epochs, every public operation runs inside one pinned guard and
//! the descriptor is retired by its owner after phase 2; a helper only
//! acts within a pinned section whose guard predates that retirement, so
//! the epoch cannot advance far enough to recycle a descriptor while any
//! thread can still observe a tagged pointer to it.
//!
//! Under hazard pointers (`NEEDS_PROTECT == true`), every dereference of
//! a tagged value is preceded by an *announce-and-validate*: the pointer
//! is stored in a hazard slot (with an
//! [`EXPAND_DESC`](crate::reclaim::EXPAND_DESC)/
//! [`EXPAND_ENTRY`](crate::reclaim::EXPAND_ENTRY) flag so the scanner
//! also protects the descriptor's *target words*), then the source word
//! is re-read; a mismatch means the announcement may be too late, and
//! the caller retries from a fresh read. The owner additionally
//! announces its own descriptor (slot 0) for the whole operation, so a
//! thread frozen mid-operation keeps its target words protected — that
//! self-hazard, plus validated helper hazards, is the induction that
//! keeps every tagged pointer covered from publication to the last
//! transient helper re-installation. Recycled descriptor memory is
//! *immortal* (it returns to the [`pool`](crate::pool), never the
//! allocator — see the pool docs), which is what makes the scanner's
//! expansion reads and the single-phase announce/validate protocol
//! memory-safe even against stale announcements.

use std::marker::PhantomData;
use std::ptr::{self, addr_of_mut};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crate::backoff::Backoff;
use crate::fault_point;
use crate::pool;
use crate::reclaim::hazard::HazardReclaimer;
use crate::reclaim::{EpochReclaimer, ReclaimGuard, Reclaimer, EXPAND_DESC, EXPAND_ENTRY};
use crate::stats::{Counters, StrategyStats};
use crate::strategy::{validate_args, validate_casn, MAX_CASN_WORDS};
use crate::{CasnEntry, DcasStrategy, DcasWord};

const TAG_MASK: u64 = 0b11;
const RDCSS_TAG: u64 = 0b01;
const DCAS_TAG: u64 = 0b10;

const UNDECIDED: u64 = 0;
const SUCCEEDED: u64 = 1;
const FAILED: u64 = 2;

#[inline]
fn is_rdcss(v: u64) -> bool {
    v & TAG_MASK == RDCSS_TAG
}

#[inline]
fn is_dcas(v: u64) -> bool {
    v & TAG_MASK == DCAS_TAG
}

/// One target word of a DCAS, together with a back-pointer to its
/// descriptor. A tagged pointer to an `Entry` doubles as the RDCSS
/// descriptor for installing the parent into `addr`: all RDCSS fields
/// (control address = parent status, expected control = `UNDECIDED`,
/// new value = tagged parent) are derivable from it and immutable for
/// the lifetime of the parent's publication.
///
/// `addr` is atomic because the hazard scanner reads it from descriptors
/// it knows only by address — possibly a recycled incarnation — so the
/// read must never race with the next owner's (re-)initialization.
/// `parent`/`old`/`new` stay plain: they are written while the
/// descriptor is private and read only under a validated hazard or an
/// epoch pin, both of which exclude recycling.
struct Entry {
    parent: *const DcasDescriptor,
    addr: AtomicPtr<DcasWord>,
    old: u64,
    new: u64,
}

impl Entry {
    /// Placeholder contents for a descriptor sitting in the pool.
    const fn vacant() -> Self {
        Entry {
            parent: ptr::null(),
            addr: AtomicPtr::new(ptr::null_mut()),
            old: 0,
            new: 0,
        }
    }
}

/// A CASN descriptor holding up to [`MAX_CASN_WORDS`] entries, of which
/// the first `len` are live for the current operation (a plain `dcas`
/// uses 2; the deques' batch operations use up to the maximum). Live
/// entries are sorted by target address. `len` is atomic for the same
/// scanner-vs-recycle reason as `Entry::addr`; helpers observe the
/// owner's value via the publishing SeqCst CAS.
/// `pub(crate)` so the [`pool`](crate::pool) freelists can name the type.
#[repr(align(8))]
pub(crate) struct DcasDescriptor {
    status: AtomicU64,
    len: AtomicUsize,
    entries: [Entry; MAX_CASN_WORDS],
}

impl DcasDescriptor {
    pub(crate) fn vacant() -> Self {
        DcasDescriptor {
            status: AtomicU64::new(UNDECIDED),
            len: AtomicUsize::new(0),
            entries: std::array::from_fn(|_| Entry::vacant()),
        }
    }
}

// The raw pointers inside a descriptor refer to (a) the descriptor itself
// and (b) `DcasWord`s that the caller guarantees outlive the operation;
// descriptors are shared across helping threads by design.
unsafe impl Send for DcasDescriptor {}
unsafe impl Sync for DcasDescriptor {}

/// Pushes the target-word addresses named by the descriptor at `d` into
/// `out` — the hazard scanner's *expansion* of an
/// [`EXPAND_DESC`]-flagged slot. Reads only the atomic fields (`len`,
/// clamped, and each entry's `addr`), so a stale or recycled descriptor
/// yields at worst conservative spurious hazards.
///
/// # Safety
///
/// `d` must point at a `DcasDescriptor` allocation that is still live —
/// guaranteed for every once-published descriptor because descriptor
/// memory is immortal under the hazard backend (pool docs).
pub(crate) unsafe fn expand_descriptor_hazard(d: *const u8, out: &mut Vec<usize>) {
    let d = d.cast::<DcasDescriptor>();
    // SAFETY: live allocation per caller contract; atomic loads only.
    let len = unsafe { (*d).len.load(Ordering::SeqCst) }.min(MAX_CASN_WORDS);
    for i in 0..len {
        // SAFETY: as above; `i < MAX_CASN_WORDS` by the clamp.
        let a = unsafe { (*d).entries[i].addr.load(Ordering::SeqCst) };
        if !a.is_null() {
            out.push(a as usize);
        }
    }
}

/// [`expand_descriptor_hazard`] for a single [`EXPAND_ENTRY`]-flagged
/// entry pointer: pushes just that entry's target-word address (the
/// range check on the entry address itself already covers the parent
/// descriptor's allocation, since entries are embedded in it).
///
/// # Safety
///
/// `e` must point into a live `DcasDescriptor` allocation (same
/// immortality argument as [`expand_descriptor_hazard`]).
pub(crate) unsafe fn expand_entry_hazard(e: *const u8, out: &mut Vec<usize>) {
    let e = e.cast::<Entry>();
    // SAFETY: live allocation per caller contract; atomic load only.
    let a = unsafe { (*e).addr.load(Ordering::SeqCst) };
    if !a.is_null() {
        out.push(a as usize);
    }
}

/// Initializes one live entry of a **private** (unpublished) descriptor
/// field by field, never forming a reference to the `Entry` or the
/// descriptor: hazard scanners may concurrently read the *atomic*
/// fields of a recycled descriptor, and a `&mut` would assert exclusive
/// access the scanner violates. The plain-field raw writes race with
/// nothing (helpers hold validated protection, which excludes
/// recycling; scanners read only atomics).
///
/// # Safety
///
/// `d` must be exclusively owned by the caller (acquired, not yet
/// published) and `i < MAX_CASN_WORDS`.
unsafe fn init_entry(d: *mut DcasDescriptor, i: usize, w: &DcasWord, old: u64, new: u64) {
    // SAFETY: `d` private per caller contract; projections stay in
    // bounds; no reference to non-atomic fields is ever shared.
    unsafe {
        let e = addr_of_mut!((*d).entries[i]);
        addr_of_mut!((*e).parent).write(d);
        addr_of_mut!((*e).old).write(old);
        addr_of_mut!((*e).new).write(new);
        (*e).addr.store(w as *const DcasWord as *mut DcasWord, Ordering::Relaxed);
    }
}

#[inline]
fn tagged_entry(e: *const Entry) -> u64 {
    e as u64 | RDCSS_TAG
}

#[inline]
fn tagged_desc(d: *const DcasDescriptor) -> u64 {
    d as u64 | DCAS_TAG
}

/// Lock-free DCAS emulation (RDCSS + two-entry CASN), generic over the
/// memory-reclamation backend `R`.
///
/// See the module-level documentation for the protocol. All public
/// operations are lock-free. Descriptors are pooled — a steady-state
/// epoch-backed `dcas` performs **zero heap allocations** (a mismatch
/// detected by the preliminary read fails without even touching the
/// pool; module docs for the hazard backend's scans) — and
/// retry/helping loops use exponential backoff.
///
/// `HarrisMcas` (no parameter) is the epoch-backed default;
/// [`HarrisMcasHazard`] is the same protocol over hazard pointers, whose
/// garbage stays bounded even under frozen threads.
pub struct HarrisMcas<R: Reclaimer = EpochReclaimer> {
    counters: Counters,
    _backend: PhantomData<R>,
}

impl<R: Reclaimer> Default for HarrisMcas<R> {
    fn default() -> Self {
        HarrisMcas { counters: Counters::default(), _backend: PhantomData }
    }
}

impl HarrisMcas {
    /// Creates a fresh epoch-backed instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<R: Reclaimer> HarrisMcas<R> {
    /// Whether the backend requires announce-and-validate protection
    /// (`true` for hazard pointers). Const, so the epoch instantiation
    /// folds every validation re-read away.
    const NP: bool = <R::Guard as ReclaimGuard>::NEEDS_PROTECT;

    /// Snapshot of this instance's operation counters. All-zero unless
    /// the crate is built with the `stats` feature — except
    /// [`descriptor_orphans`](StrategyStats::descriptor_orphans) and the
    /// reclamation gauges
    /// ([`live_descriptors`](StrategyStats::live_descriptors),
    /// [`retired_pending`](StrategyStats::retired_pending),
    /// [`garbage_high_water`](StrategyStats::garbage_high_water),
    /// [`stalled_collections`](StrategyStats::stalled_collections)),
    /// which audit correctness-relevant events and are reported
    /// unconditionally. Those are process-global (per backend), like the
    /// thread-local descriptor pools they audit. The node-pool census
    /// gauges ([`pool_pages`](StrategyStats::pool_pages),
    /// [`pool_nodes_outstanding`](StrategyStats::pool_nodes_outstanding),
    /// [`pool_remote_frees`](StrategyStats::pool_remote_frees)) are
    /// likewise unconditional and process-global, summed over every
    /// registered [`NodePool`](crate::NodePool).
    pub fn stats(&self) -> StrategyStats {
        let mut s = self.counters.snapshot();
        s.descriptor_orphans = pool::orphan_count();
        s.live_descriptors = pool::live_descriptors();
        s.retired_pending = R::live_garbage();
        s.garbage_high_water = R::garbage_high_water();
        s.stalled_collections = R::stalled_collections();
        s.pool_pages = crate::alloc::pages_allocated();
        s.pool_nodes_outstanding = crate::alloc::nodes_outstanding();
        s.pool_remote_frees = crate::alloc::remote_frees();
        s
    }

    /// Takes a descriptor for a new operation: recycled from the calling
    /// thread's freelist when available, freshly boxed otherwise. The
    /// result is exclusively owned until published.
    fn acquire_descriptor(&self) -> *mut DcasDescriptor {
        pool::note_alloc();
        let d = match pool::acquire() {
            Some(d) => {
                self.counters.inc_descriptor_reuse();
                d
            }
            None => {
                self.counters.inc_descriptor_alloc();
                Box::into_raw(Box::new(DcasDescriptor::vacant()))
            }
        };
        // Mark the descriptor as the one this thread would orphan if it
        // died before the release paths below; a panic kill sweeps it
        // into the quarantine instead of leaking or double-freeing it.
        #[cfg(feature = "fault-inject")]
        pool::track_inflight(d);
        d
    }

    /// Retires a published descriptor after phase 2: back to a freelist
    /// once the backend's grace period / hazard drain elapses.
    ///
    /// # Safety
    ///
    /// `d` must have been returned by [`Self::acquire_descriptor`] and be
    /// retired exactly once (only the owner executes this).
    unsafe fn retire_descriptor(&self, g: &R::Guard, d: *mut DcasDescriptor) {
        #[cfg(feature = "fault-inject")]
        pool::clear_inflight();
        unsafe fn dtor(p: *mut u8) {
            // SAFETY: the retire contract hands the dtor exclusive
            // ownership of the block.
            unsafe { pool::release(p.cast()) };
        }
        // SAFETY: phase 2 removed every tagged pointer to `d` from the
        // target words (transient helper re-installations are covered by
        // the re-installer's own pin/validated hazard — module docs), so
        // `d` is unreachable to threads that pin afterwards; the dtor
        // runs once per the caller contract.
        unsafe { g.retire(d.cast(), std::mem::size_of::<DcasDescriptor>(), dtor) };
    }

    /// Disposes of a descriptor that was **never published**: no thread
    /// can have seen it, so it goes back to the freelist immediately,
    /// with no grace period.
    ///
    /// # Safety
    ///
    /// `d` must have been returned by [`Self::acquire_descriptor`] and no
    /// tagged pointer to it (or its entries) may ever have been stored in
    /// a [`DcasWord`] since.
    unsafe fn dispose_unpublished(&self, d: *mut DcasDescriptor) {
        #[cfg(feature = "fault-inject")]
        pool::clear_inflight();
        // SAFETY: `d` is still private, hence exclusively owned.
        unsafe { pool::release(d) };
    }

    /// Completes (or reverts) a pending RDCSS installation.
    ///
    /// # Safety
    ///
    /// `e` must be protected for the whole call: under the epoch backend
    /// a pin predating any possible retirement of the parent descriptor;
    /// under the hazard backend a **validated** announcement covering
    /// the parent's allocation (the entry itself via [`EXPAND_ENTRY`] —
    /// the scanner's range check covers the parent — or the parent via
    /// [`EXPAND_DESC`]). The entry's target word is dereferenceable for
    /// the same reason: the announcement expands to it, and epoch pins
    /// cover node grace periods.
    unsafe fn rdcss_complete(&self, e: *const Entry) {
        // SAFETY: `e` protected per the caller contract, so the parent
        // cannot be recycled mid-read and the plain fields are stable.
        let (parent, old, w) =
            unsafe { ((*e).parent, (*e).old, &*(*e).addr.load(Ordering::Relaxed)) };
        // SAFETY: `parent` alive under the same protection.
        let new = if unsafe { &*parent }.status.load(Ordering::SeqCst) == UNDECIDED {
            tagged_desc(parent)
        } else {
            old
        };
        let _ = w.raw_compare_exchange(tagged_entry(e), new, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Attempts to install `tagged_desc(e.parent)` into `*e.addr` iff the
    /// word holds `e.old` and the parent status is still `UNDECIDED`.
    ///
    /// Returns `e.old` if the installation took place (possibly already
    /// reverted because the status was decided), or the conflicting value
    /// otherwise. Never returns an RDCSS-tagged value.
    ///
    /// # Safety
    ///
    /// The parent descriptor of `e` must be protected per
    /// [`Self::rdcss_complete`]; `slot` (and above) must be free scratch
    /// slots of `g`'s window.
    unsafe fn rdcss(&self, g: &R::Guard, e: &Entry, slot: usize) -> u64 {
        // SAFETY: target word protected via the parent's hazard
        // expansion / the epoch pin (caller contract).
        let w = unsafe { &*e.addr.load(Ordering::Relaxed) };
        let mut backoff = Backoff::new();
        loop {
            match w.raw_compare_exchange(e.old, tagged_entry(e), Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    // SAFETY: our own entry, still protected by the caller.
                    unsafe { self.rdcss_complete(e) };
                    return e.old;
                }
                Err(seen) if is_rdcss(seen) => {
                    // Help the conflicting RDCSS finish, then retry ours.
                    self.counters.inc_help();
                    // Not effect-free: earlier entries of our own
                    // descriptor may already be installed.
                    fault_point!(MidHelping, false);
                    let other = (seen & !TAG_MASK) as *const Entry;
                    g.protect(slot, other as u64 | EXPAND_ENTRY);
                    if Self::NP && w.raw_load(Ordering::SeqCst) != seen {
                        // Announced too late — the word moved on; retry
                        // from a fresh read.
                        g.clear(slot);
                        continue;
                    }
                    // SAFETY: announced-and-validated (hazard) or pinned
                    // (epoch) — `other`'s parent cannot be recycled.
                    unsafe { self.rdcss_complete(other) };
                    g.clear(slot);
                    backoff.snooze();
                }
                Err(seen) => return seen,
            }
        }
    }

    /// Drives descriptor `d` to completion (both phases). Returns whether
    /// the DCAS succeeded. Reentrant: called both by the owner and by
    /// helpers.
    ///
    /// # Safety
    ///
    /// `d` must be protected for the whole call (owner self-hazard, a
    /// validated helper hazard at a slot below `slot`, or an epoch pin);
    /// `slot` and above must be free scratch slots of `g`'s window.
    unsafe fn casn_help(&self, g: &R::Guard, d: *const DcasDescriptor, slot: usize) -> bool {
        // SAFETY: forwarded caller contract.
        unsafe { self.casn_run(g, d, 0, slot) }
    }

    /// [`Self::casn_help`] with the first `skip` entries assumed already
    /// installed — the owner passes 1 after a fast-path direct install
    /// (helpers always pass 0). Phase 2 resolves *all* entries regardless.
    ///
    /// # Safety
    ///
    /// Same as [`Self::casn_help`]; additionally, for every skipped entry
    /// the caller must have successfully stored `tagged_desc(d)` into the
    /// entry's target word while `d.status` was `UNDECIDED`.
    unsafe fn casn_run(
        &self,
        g: &R::Guard,
        d: *const DcasDescriptor,
        skip: usize,
        slot: usize,
    ) -> bool {
        // SAFETY: `d` protected per the caller contract.
        let d_ref = unsafe { &*d };
        let me = tagged_desc(d);
        let len = d_ref.len.load(Ordering::SeqCst).min(MAX_CASN_WORDS);
        if d_ref.status.load(Ordering::SeqCst) == UNDECIDED {
            let mut status = SUCCEEDED;
            let mut backoff = Backoff::new();
            'install: for e in &d_ref.entries[skip..len] {
                loop {
                    // SAFETY: parent protected; `slot` free scratch.
                    let val = unsafe { self.rdcss(g, e, slot) };
                    if val == me || val == e.old {
                        // Our descriptor is (or was, before the status got
                        // decided) installed in this word.
                        break;
                    }
                    if is_dcas(val) {
                        // A different DCAS holds this word: help it first,
                        // then back off before re-contending the line.
                        self.counters.inc_help();
                        // Not effect-free: `d` may be our own descriptor
                        // with earlier entries already installed.
                        fault_point!(MidHelping, false);
                        let other = (val & !TAG_MASK) as *const DcasDescriptor;
                        g.protect(slot, other as u64 | EXPAND_DESC);
                        // SAFETY: target word protected via `d`'s own
                        // expansion / the epoch pin.
                        let w = unsafe { &*e.addr.load(Ordering::Relaxed) };
                        if Self::NP && w.raw_load(Ordering::SeqCst) != val {
                            // The conflicting descriptor already left the
                            // word; re-read it via a fresh rdcss.
                            g.clear(slot);
                            continue;
                        }
                        // SAFETY: announced-and-validated / pinned; the
                        // recursion scratches strictly above `slot`, so
                        // our announcement of `other` stays standing.
                        unsafe { self.casn_help(g, other, slot + 1) };
                        g.clear(slot);
                        backoff.snooze();
                        continue;
                    }
                    status = FAILED;
                    break 'install;
                }
            }
            let _ = d_ref
                .status
                .compare_exchange(UNDECIDED, status, Ordering::SeqCst, Ordering::SeqCst);
        }
        let succeeded = d_ref.status.load(Ordering::SeqCst) == SUCCEEDED;
        for e in &d_ref.entries[..len] {
            let resolved = if succeeded { e.new } else { e.old };
            // SAFETY: target word protected via `d`'s expansion / pin.
            let w = unsafe { &*e.addr.load(Ordering::Relaxed) };
            let _ = w.raw_compare_exchange(me, resolved, Ordering::SeqCst, Ordering::SeqCst);
        }
        succeeded
    }

    /// Helps the in-flight operation a tagged word value belongs to
    /// (RDCSS completion or CASN help). Returns `false` when `v` is a
    /// plain payload, i.e. there was nothing to help. A `true` return
    /// means the caller must re-read the word — either the operation was
    /// helped, or (hazard backend) the announcement failed validation
    /// and the value is stale either way.
    ///
    /// Only for callers whose own operation is still effect-free — the
    /// fault point here asserts as much.
    ///
    /// # Safety
    ///
    /// `v` must have been read from `w` under `g`; `slot` and above must
    /// be free scratch slots of `g`'s window.
    unsafe fn help_tagged(&self, g: &R::Guard, w: &DcasWord, v: u64, slot: usize) -> bool {
        if is_rdcss(v) {
            self.counters.inc_help();
            // Effect-free: the caller owns nothing published; unwinding
            // here loses no state.
            fault_point!(MidHelping, true);
            let e = (v & !TAG_MASK) as *const Entry;
            g.protect(slot, e as u64 | EXPAND_ENTRY);
            if Self::NP && w.raw_load(Ordering::SeqCst) != v {
                g.clear(slot);
                return true;
            }
            // SAFETY: announced-and-validated / pinned.
            unsafe { self.rdcss_complete(e) };
            g.clear(slot);
            true
        } else if is_dcas(v) {
            self.counters.inc_help();
            fault_point!(MidHelping, true);
            let d = (v & !TAG_MASK) as *const DcasDescriptor;
            g.protect(slot, d as u64 | EXPAND_DESC);
            if Self::NP && w.raw_load(Ordering::SeqCst) != v {
                g.clear(slot);
                return true;
            }
            // SAFETY: announced-and-validated / pinned; recursion
            // scratches above `slot`, keeping our announcement standing.
            unsafe { self.casn_help(g, d, slot + 1) };
            g.clear(slot);
            true
        } else {
            false
        }
    }

    /// Descriptor-aware atomic read. Helps any operation found in-flight
    /// at `w` until a plain payload value is visible.
    ///
    /// # Safety
    ///
    /// `slot` and above must be free scratch slots of `g`'s window.
    unsafe fn read(&self, g: &R::Guard, w: &DcasWord, slot: usize) -> u64 {
        let mut backoff = Backoff::new();
        loop {
            let v = w.raw_load(Ordering::SeqCst);
            // SAFETY: `v` freshly read from `w` under `g`.
            if !unsafe { self.help_tagged(g, w, v, slot) } {
                return v;
            }
            backoff.snooze();
        }
    }

    /// The descriptor slow path shared by `dcas` and the `dcas_strong`
    /// snapshot: acquires a descriptor, runs both CASN phases, retires
    /// it. No preliminary mismatch check — callers have already read the
    /// pair.
    ///
    /// # Safety
    ///
    /// `g` must guard the current thread for the whole call, with its
    /// whole slot window free.
    #[allow(clippy::too_many_arguments)]
    unsafe fn dcas_publish(
        &self,
        g: &R::Guard,
        a1: &DcasWord,
        a2: &DcasWord,
        o1: u64,
        o2: u64,
        n1: u64,
        n2: u64,
    ) -> bool {
        // Entries sorted by address so concurrent DCAS operations help one
        // another in a consistent order.
        let ((w1, ov1, nv1), (w2, ov2, nv2)) = if a1.addr() < a2.addr() {
            ((a1, o1, n1), (a2, o2, n2))
        } else {
            ((a2, o2, n2), (a1, o1, n1))
        };
        let d = self.acquire_descriptor();
        // SAFETY: `d` is exclusively owned until published; a recycled
        // descriptor is past its grace period / hazard drain, so no
        // helper of a previous incarnation can observe these writes
        // (scanners read only the atomic fields, which stay sound).
        unsafe {
            (*d).status.store(UNDECIDED, Ordering::Relaxed);
            (*d).len.store(2, Ordering::Relaxed);
            init_entry(d, 0, w1, ov1, nv1);
            init_entry(d, 1, w2, ov2, nv2);
        }
        // SAFETY: forwarded caller contract; entries and len written above.
        unsafe { self.publish_run_retire(g, d) }
    }

    /// Publishes a fully prepared descriptor (status `UNDECIDED`, `len`
    /// live entries sorted by address), drives both CASN phases, and
    /// retires it. Shared tail of `dcas_publish` and `casn`.
    ///
    /// Entry 0 is installed by one plain CAS while the descriptor is
    /// still private (the owner fast path, module docs); a plain-value
    /// mismatch there fails the operation with the descriptor never
    /// published, so it is recycled with no grace period.
    ///
    /// The owner announces its own descriptor in slot 0 (with target-word
    /// expansion) for the whole operation — the base case of the hazard
    /// protection induction, and what keeps a thread frozen anywhere in
    /// here from stranding unprotected target words. Helping and the CASN
    /// phases scratch from slot 1 up.
    ///
    /// # Safety
    ///
    /// `g` must guard the current thread for the whole call with its slot
    /// window free; `d` must come from [`Self::acquire_descriptor`] with
    /// its status, `len`, and first `len` entries initialized, and never
    /// have been published.
    unsafe fn publish_run_retire(&self, g: &R::Guard, d: *mut DcasDescriptor) -> bool {
        g.protect(0, d as u64 | EXPAND_DESC);
        // Effect-free: `d` is still private — nobody has seen it, and a
        // panic kill sweeps it into the quarantine. (A freeze here holds
        // the slot-0 self-announcement, which is the point.)
        fault_point!(PreInstall, true);
        // SAFETY: `d` is still private, so reading its entry is safe.
        let (w0, ov0) = unsafe {
            let e = &(*d).entries[0];
            (&*e.addr.load(Ordering::Relaxed), e.old)
        };
        let me = tagged_desc(d);
        let mut backoff = Backoff::new();
        loop {
            match w0.raw_compare_exchange(ov0, me, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(seen) if is_rdcss(seen) => {
                    self.counters.inc_help();
                    // Effect-free: our own descriptor is still private
                    // (the fast install did not land).
                    fault_point!(MidHelping, true);
                    let other = (seen & !TAG_MASK) as *const Entry;
                    g.protect(1, other as u64 | EXPAND_ENTRY);
                    if Self::NP && w0.raw_load(Ordering::SeqCst) != seen {
                        g.clear(1);
                        continue;
                    }
                    // SAFETY: announced-and-validated / pinned.
                    unsafe { self.rdcss_complete(other) };
                    g.clear(1);
                }
                Err(seen) if is_dcas(seen) => {
                    self.counters.inc_help();
                    fault_point!(MidHelping, true);
                    let other = (seen & !TAG_MASK) as *const DcasDescriptor;
                    g.protect(1, other as u64 | EXPAND_DESC);
                    if Self::NP && w0.raw_load(Ordering::SeqCst) != seen {
                        g.clear(1);
                        continue;
                    }
                    // SAFETY: announced-and-validated / pinned; recursion
                    // scratches from slot 2.
                    unsafe { self.casn_help(g, other, 2) };
                    g.clear(1);
                }
                Err(_) => {
                    // Plain value mismatch: the operation fails without
                    // the descriptor ever having been published — recycle
                    // it immediately, no grace period needed.
                    // Effect-free: unpublished, and the op failed.
                    fault_point!(PreRelease, true);
                    g.clear(0);
                    // SAFETY: `d` from `acquire_descriptor`, still private.
                    unsafe { self.dispose_unpublished(d) };
                    return false;
                }
            }
            backoff.snooze();
        }

        // SAFETY: guarded; `d` protected by our slot-0 announcement
        // (owner-owned under epochs); entry 0 installed by the CAS above
        // while the status was UNDECIDED; scratch from slot 1.
        let ok = unsafe { self.casn_run(g, d, 1, 1) };
        // Effect-free only if the operation failed: on success the writes
        // are committed and the caller owns their outcome, so a panic here
        // would lose it (a freeze is fine — the thread resumes, retires,
        // and returns normally).
        fault_point!(PreRelease, !ok);
        // Drop the self-announcement before retiring, so our own scan can
        // free the descriptor once helpers are done. Helpers that can
        // still observe a tagged pointer to it hold guards (or validated
        // hazards) that predate this retirement.
        g.clear(0);
        // SAFETY: `d` came from `acquire_descriptor` and only the owner
        // executes this line.
        unsafe { self.retire_descriptor(g, d) };
        ok
    }

    /// Uncounted `dcas` body (also the forward arm of `dcas_strong`).
    fn dcas_inner(&self, a1: &DcasWord, a2: &DcasWord, o1: u64, o2: u64, n1: u64, n2: u64) -> bool {
        let g = R::pin();

        // Fast path: a preliminary atomic read that observes a mismatch is
        // a legal linearization of a failed DCAS and costs neither an
        // allocation nor a pool access. The `||` short-circuits, covering
        // both orderings: a first-word mismatch never touches the second.
        // SAFETY: guarded; slot 0 free (help_tagged restores it).
        if unsafe { self.read(&g, a1, 0) } != o1 || unsafe { self.read(&g, a2, 0) } != o2 {
            return false;
        }

        // SAFETY: `g` guards us for the whole call, window free again.
        unsafe { self.dcas_publish(&g, a1, a2, o1, o2, n1, n2) }
    }

    /// One snapshot attempt for `dcas_strong`: under a single guard, reads
    /// the pair and certifies the observed values with an identity DCAS.
    /// Returns the certified atomic view, or `None` if another thread's
    /// successful operation invalidated it mid-certification.
    fn snapshot(&self, a1: &DcasWord, a2: &DcasWord) -> Option<(u64, u64)> {
        let g = R::pin();
        // SAFETY: guarded.
        let v1 = unsafe { self.read(&g, a1, 0) };
        let v2 = unsafe { self.read(&g, a2, 0) };
        // SAFETY: `g` guards us for the whole call.
        if unsafe { self.dcas_publish(&g, a1, a2, v1, v2, v1, v2) } {
            Some((v1, v2))
        } else {
            None
        }
    }
}

impl<R: Reclaimer> DcasStrategy for HarrisMcas<R> {
    type Reclaimer = R;
    const IS_LOCK_FREE: bool = true;
    const HAS_CHEAP_STRONG: bool = false;
    const NAME: &'static str = R::MCAS_NAME;

    #[inline]
    fn load(&self, w: &DcasWord) -> u64 {
        self.counters.inc_op();
        let g = R::pin();
        // SAFETY: guarded for the duration of the read.
        unsafe { self.read(&g, w, 0) }
    }

    fn store(&self, w: &DcasWord, v: u64) {
        debug_assert!(crate::is_valid_payload(v));
        self.counters.inc_op();
        let g = R::pin();
        let mut backoff = Backoff::new();
        loop {
            // SAFETY: guarded.
            let cur = unsafe { self.read(&g, w, 0) };
            if w.raw_compare_exchange(cur, v, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
            backoff.snooze();
        }
    }

    fn cas(&self, w: &DcasWord, old: u64, new: u64) -> bool {
        debug_assert!(crate::is_valid_payload(old) && crate::is_valid_payload(new));
        self.counters.inc_op();
        let g = R::pin();
        let mut backoff = Backoff::new();
        loop {
            match w.raw_compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                // Effect-free helping: our CAS has not landed.
                // SAFETY: `seen` read from `w` under our guard.
                Err(seen) if unsafe { self.help_tagged(&g, w, seen, 0) } => {}
                Err(_) => return false,
            }
            backoff.snooze();
        }
    }

    fn dcas(&self, a1: &DcasWord, a2: &DcasWord, o1: u64, o2: u64, n1: u64, n2: u64) -> bool {
        validate_args(a1, a2, &[o1, o2, n1, n2]);
        self.counters.inc_op();
        self.counters.inc_dcas();
        let ok = self.dcas_inner(a1, a2, o1, o2, n1, n2);
        if !ok {
            self.counters.inc_dcas_failure();
        }
        ok
    }

    fn dcas_strong(
        &self,
        a1: &DcasWord,
        a2: &DcasWord,
        o1: &mut u64,
        o2: &mut u64,
        n1: u64,
        n2: u64,
    ) -> bool {
        // The paper's own trick (Figure 2, lines 8-9): an identity DCAS
        // that succeeds yields an atomic snapshot of the pair. On failure
        // of the real DCAS we loop snapshotting until we either obtain a
        // consistent view to report or discover the expected values are
        // back (in which case the outer swap is retried). Lock-free: every
        // inner retry is caused by another operation's successful DCAS.
        //
        // The forward attempt's preliminary read short-circuits on the
        // first mismatching word (both orderings), so a doomed attempt
        // builds no descriptor at all; the identity snapshots draw from
        // the pool, so the whole failure path is allocation-free in the
        // steady state.
        self.counters.inc_op();
        self.counters.inc_dcas();
        let mut backoff = Backoff::new();
        loop {
            if self.dcas_inner(a1, a2, *o1, *o2, n1, n2) {
                return true;
            }
            loop {
                match self.snapshot(a1, a2) {
                    Some((v1, v2)) if v1 == *o1 && v2 == *o2 => {
                        // The expected pair is observable again; retry the
                        // swap.
                        break;
                    }
                    Some((v1, v2)) => {
                        *o1 = v1;
                        *o2 = v2;
                        self.counters.inc_dcas_failure();
                        return false;
                    }
                    None => {
                        // Lost the certification race to another writer.
                        backoff.snooze();
                    }
                }
            }
            backoff.snooze();
        }
    }

    fn casn(&self, entries: &mut [CasnEntry<'_>]) -> bool {
        validate_casn(entries);
        self.counters.inc_op();
        self.counters.inc_casn();
        let g = R::pin();

        // Preliminary read fast path, as in `dcas_inner`: a mismatch seen
        // by an atomic read is a legal linearization of the failed CASN
        // and never touches the descriptor pool.
        for e in entries.iter() {
            // SAFETY: guarded.
            if unsafe { self.read(&g, e.word, 0) } != e.old {
                self.counters.inc_casn_failure();
                return false;
            }
        }

        // Sort by address so concurrent CASNs over overlapping word sets
        // help one another in a consistent order (same argument as the
        // two-entry case, extended to n).
        entries.sort_unstable_by_key(|e| e.word.addr());

        let d = self.acquire_descriptor();
        // SAFETY: `d` is exclusively owned until published; a recycled
        // descriptor is past its grace period / hazard drain (see
        // `dcas_publish`).
        unsafe {
            (*d).status.store(UNDECIDED, Ordering::Relaxed);
            (*d).len.store(entries.len(), Ordering::Relaxed);
            for (i, e) in entries.iter().enumerate() {
                init_entry(d, i, e.word, e.old, e.new);
            }
        }
        // SAFETY: `g` guards us for the whole call; `d` prepared above.
        let ok = unsafe { self.publish_run_retire(&g, d) };
        if !ok {
            self.counters.inc_casn_failure();
        }
        ok
    }
}

/// [`HarrisMcas`] over the hazard-pointer backend
/// ([`HazardReclaimer`]): identical protocol and semantics, but retired
/// garbage — descriptors here, nodes in the deque crates — stays under
/// the static bound `reclaim::hazard::static_garbage_bound()` even while
/// threads are frozen mid-operation, where the epoch default grows
/// without bound. Reports [`DcasStrategy::NAME`] `"harris-mcas-hazard"`.
pub type HarrisMcasHazard = HarrisMcas<HazardReclaimer>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_success_and_failure() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        assert!(s.dcas(&a, &b, 0, 4, 8, 12));
        assert_eq!((s.load(&a), s.load(&b)), (8, 12));
        assert!(!s.dcas(&a, &b, 0, 4, 16, 16));
        assert_eq!((s.load(&a), s.load(&b)), (8, 12));
        let (mut o1, mut o2) = (0, 0);
        assert!(!s.dcas_strong(&a, &b, &mut o1, &mut o2, 16, 16));
        assert_eq!((o1, o2), (8, 12));
    }

    #[test]
    fn identity_dcas_succeeds_and_changes_nothing() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(40);
        let b = DcasWord::new(80);
        assert!(s.dcas(&a, &b, 40, 80, 40, 80));
        assert_eq!((s.load(&a), s.load(&b)), (40, 80));
    }

    #[test]
    fn address_order_is_input_order_independent() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(0);
        let b = DcasWord::new(0);
        assert!(s.dcas(&b, &a, 0, 0, 4, 8));
        assert_eq!((s.load(&b), s.load(&a)), (4, 8));
    }

    #[test]
    fn strong_form_snapshot_on_failure() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(100);
        let b = DcasWord::new(200);
        let (mut o1, mut o2) = (0, 0);
        assert!(!s.dcas_strong(&a, &b, &mut o1, &mut o2, 4, 4));
        assert_eq!((o1, o2), (100, 200));
        assert!(s.dcas_strong(&a, &b, &mut o1, &mut o2, 4, 8));
        assert_eq!((s.load(&a), s.load(&b)), (4, 8));
    }

    #[test]
    fn store_clobbers_any_value() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(4);
        s.store(&a, 12);
        assert_eq!(s.load(&a), 12);
    }

    fn conservation_under_transfers<R: Reclaimer>(
        s: Arc<HarrisMcas<R>>,
        threads: u64,
        iters: u64,
    ) {
        // Two words whose sum is invariant under transfer DCASes; a torn
        // or non-atomic DCAS would break conservation.
        let words = Arc::new((DcasWord::new(1 << 20), DcasWord::new(1 << 20)));
        let total = (1u64 << 20) * 2;
        let mut handles = vec![];
        for t in 0..threads {
            let (s, words) = (s.clone(), words.clone());
            handles.push(std::thread::spawn(move || {
                for i in 0..iters {
                    loop {
                        let v1 = s.load(&words.0);
                        let v2 = s.load(&words.1);
                        let delta = 4 * ((i + t) % 64);
                        if v1 < delta {
                            break;
                        }
                        if s.dcas(&words.0, &words.1, v1, v2, v1 - delta, v2 + delta) {
                            break;
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.load(&words.0) + s.load(&words.1), total);
    }

    #[test]
    fn concurrent_counters_preserve_sum() {
        conservation_under_transfers(Arc::new(HarrisMcas::new()), 8, 20_000);
    }

    #[test]
    fn overlapping_pairs_stress() {
        // Three words, threads DCAS random adjacent pairs; checks the sum
        // invariant across overlapping DCAS pairs (the helping path).
        let s = Arc::new(HarrisMcas::new());
        let words: Arc<Vec<DcasWord>> =
            Arc::new((0..3).map(|_| DcasWord::new(1 << 16)).collect());
        let total = (1u64 << 16) * 3;
        let mut handles = vec![];
        for t in 0..6u64 {
            let (s, words) = (s.clone(), words.clone());
            handles.push(std::thread::spawn(move || {
                let mut x = t + 1;
                for _ in 0..30_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let i = (x >> 33) as usize % 2; // pair (i, i+1): overlaps on word 1
                    let v1 = s.load(&words[i]);
                    let v2 = s.load(&words[i + 1]);
                    if v1 >= 4 {
                        let _ = s.dcas(&words[i], &words[i + 1], v1, v2, v1 - 4, v2 + 4);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let sum: u64 = (0..3).map(|i| s.load(&words[i])).sum();
        assert_eq!(sum, total);
    }

    #[test]
    #[allow(clippy::drop_non_drop)] // drop(s) marks where the strategy's lifetime must end
    fn pool_survives_instance_drop_with_inflight_garbage() {
        // Dropping the strategy while epoch-deferred releases are still
        // queued must be safe: the deferred closures capture only the
        // descriptor pointer and release into the thread-global freelist,
        // which owns nothing of the dropped instance.
        let s = HarrisMcas::new();
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        for i in 0..64u64 {
            assert!(s.dcas(&a, &b, i * 8, i * 8 + 4, (i + 1) * 8, (i + 1) * 8 + 4));
        }
        drop(s); // any queued releases now own the only pool references
        EpochReclaimer::flush();
    }

    #[test]
    fn reclaim_hazard_mcas_basic_semantics() {
        let s = HarrisMcasHazard::default();
        assert_eq!(<HarrisMcasHazard as DcasStrategy>::NAME, "harris-mcas-hazard");
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        assert!(s.dcas(&a, &b, 0, 4, 8, 12));
        assert_eq!((s.load(&a), s.load(&b)), (8, 12));
        assert!(!s.dcas(&a, &b, 0, 4, 16, 16));
        let (mut o1, mut o2) = (0, 0);
        assert!(!s.dcas_strong(&a, &b, &mut o1, &mut o2, 16, 16));
        assert_eq!((o1, o2), (8, 12));
        let c = DcasWord::new(16);
        let mut entries = [
            CasnEntry::new(&a, 8, 20),
            CasnEntry::new(&b, 12, 24),
            CasnEntry::new(&c, 16, 28),
        ];
        assert!(s.casn(&mut entries));
        assert_eq!((s.load(&a), s.load(&b), s.load(&c)), (20, 24, 28));
        s.store(&a, 4);
        assert!(s.cas(&a, 4, 8));
        assert_eq!(s.load(&a), 8);
    }

    #[test]
    fn reclaim_hazard_mcas_concurrent_counters_preserve_sum() {
        // The conservation stress on the hazard arm: exercises the
        // announce/validate helping protocol (including descriptor
        // recycling through the immortal pool) under real contention.
        conservation_under_transfers(Arc::new(HarrisMcasHazard::default()), 4, 10_000);
    }

    #[test]
    fn reclaim_hazard_mcas_garbage_stays_bounded() {
        // After descriptor churn on the hazard arm, live garbage must
        // respect the static bound (the frozen-victim variant lives in
        // tests/reclaim_torture.rs).
        let s = HarrisMcasHazard::default();
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        for i in 0..2_000u64 {
            assert!(s.dcas(&a, &b, i * 8, i * 8 + 4, (i + 1) * 8, (i + 1) * 8 + 4));
        }
        let bound = crate::reclaim::hazard::static_garbage_bound();
        let live = HazardReclaimer::live_garbage();
        assert!(live <= bound, "hazard live garbage {live} exceeds static bound {bound}");
    }

    #[cfg(feature = "stats")]
    #[test]
    fn stats_count_ops_and_failures() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        assert!(s.dcas(&a, &b, 0, 4, 8, 12));
        assert!(!s.dcas(&a, &b, 0, 4, 16, 16));
        let st = s.stats();
        assert_eq!(st.dcas_ops, 2);
        assert_eq!(st.dcas_failures, 1);
        assert_eq!(st.ops, 2);
        assert_eq!((st.pair_hits, st.pair_fallbacks), (0, 0));
        // The failed dcas exited on the preliminary read: exactly one
        // descriptor was ever needed (freshly boxed or drawn from the
        // process-wide reserve, depending on sibling tests).
        assert_eq!(st.descriptor_allocs + st.descriptor_reuses, 1);
    }
}
