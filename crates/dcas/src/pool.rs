//! Per-thread descriptor freelists for the lock-free DCAS strategy.
//!
//! The seed implementation of [`HarrisMcas`](crate::HarrisMcas) paid one
//! `Box` allocation per `dcas` that reached the descriptor slow path and
//! freed it through `crossbeam-epoch` after a grace period. Sundell &
//! Tsigas identify exactly this per-operation allocator round-trip as one
//! of the two dominant costs of software multi-word CAS (the other being
//! retry storms; see [`backoff`](crate::backoff)). This module removes
//! it: descriptors are *recycled* through the same epoch machinery
//! instead of freed, so a steady-state `dcas` touches no allocator and
//! no lock to obtain its descriptor. The only atomic it pays is one
//! relaxed increment of the calling thread's own stripe of the
//! [`live_descriptors`] gauge, a line no other thread writes while at
//! most [`STRIPES`](crate::stripe::STRIPES) threads run.
//!
//! Because the RDCSS descriptor of each target word (an `Entry` record)
//! is embedded inside its parent DCAS descriptor, pooling the parent
//! pools the RDCSS descriptors with it — one freelist covers both
//! descriptor kinds the protocol uses.
//!
//! # Why a thread-local freelist
//!
//! The cache is a plain `thread_local!` `Vec` of recycled descriptors,
//! in the spirit of the node page pool (`alloc.rs`) but specialized
//! for the hot path: descriptor churn is symmetric (every retire is
//! preceded by an acquire on the same thread, and epoch-deferred
//! releases run on the thread that queued them when it next collects),
//! so inventory naturally stays where it is consumed and no cross-thread
//! freelist — with its locks or CAS loops — is needed. A miss (cold
//! thread, or releases still sitting out a grace period) falls back to
//! `Box::new`; an overflow past [`CACHE_CAP`] frees to the allocator, so
//! idle memory per thread is bounded. Descriptors are interchangeable
//! memory once recycled, so the cache is shared by all `HarrisMcas`
//! instances on the thread; leftover inventory is freed by the TLS
//! destructor at thread exit.
//!
//! The pool can never block and never loops: the strategy's
//! *lock-freedom argument is unchanged*, and correctness never depends
//! on a pool hit (the reserve refill below uses `try_lock` only).
//!
//! # Descriptor memory is immortal
//!
//! Overflow past [`CACHE_CAP`] and thread-exit leftovers spill into a
//! process-wide *reserve* (drawn down by cold caches) instead of going
//! back to the allocator. This is load-bearing for the hazard-pointer
//! backend ([`reclaim::hazard`](crate::reclaim::hazard)): its scanner
//! dereferences descriptor addresses taken from a point-in-time hazard
//! snapshot, possibly after the announcing thread has already moved on
//! — safe only if a once-published descriptor address points at a live
//! `DcasDescriptor` allocation *forever*. Recycling through freelists
//! preserves that; freeing would not. The memory cost is bounded by the
//! peak number of simultaneously checked-out descriptors, which the
//! [`live_descriptors`] gauge measures.
//!
//! # Why recycling is as safe as freeing
//!
//! The seed retired a descriptor with `guard.defer_unchecked(|| drop(box))`
//! — the epoch collector guarantees the closure runs only after every
//! thread that could still hold a tagged pointer to the descriptor has
//! unpinned. Releasing the descriptor *into a freelist* at that same
//! moment is strictly no more visible than freeing it: once the grace
//! period has elapsed no thread can dereference the old incarnation, so
//! the next [`acquire`] may overwrite the memory at will. The owner
//! resets the status word and rewrites the entries while the descriptor
//! is still private, and publication happens through the same SeqCst
//! installation CAS as for a freshly boxed descriptor.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::mcas::DcasDescriptor;
use crate::stripe::Striped;

/// Maximum idle descriptors retained per thread; releases beyond this
/// spill to the global reserve. 512
/// [`MAX_CASN_WORDS`](crate::MAX_CASN_WORDS)-entry descriptors
/// ≈ 200 KiB per thread — still noise, while comfortably absorbing the ~2
/// epochs of in-flight retirements that are always aging toward release.
const CACHE_CAP: usize = 512;

/// The freelist, wrapped so the TLS destructor spills leftover
/// inventory into the process-wide reserve (module docs: descriptor
/// memory is immortal).
struct Cache(Vec<*mut DcasDescriptor>);

impl Drop for Cache {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            let mut reserve = reserve().lock().unwrap();
            reserve.extend(self.0.drain(..).map(|p| p as usize));
        }
    }
}

thread_local! {
    static CACHE: RefCell<Cache> = const { RefCell::new(Cache(Vec::new())) };
}

/// Process-wide overflow reserve, as addresses so the `Vec` is `Send`
/// without further argument. Descriptors parked here are exclusively
/// owned by the reserve until re-acquired.
fn reserve() -> &'static Mutex<Vec<usize>> {
    static RESERVE: OnceLock<Mutex<Vec<usize>>> = OnceLock::new();
    RESERVE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Pops a recycled descriptor, exclusively owned by the caller. `None`
/// on a cold cache (or during thread teardown). A cold cache first
/// tries (without blocking) to draw from the global reserve.
pub(crate) fn acquire() -> Option<*mut DcasDescriptor> {
    let local = CACHE.try_with(|c| c.borrow_mut().0.pop()).ok().flatten();
    if local.is_some() {
        return local;
    }
    let from_reserve = reserve().try_lock().ok().and_then(|mut r| r.pop());
    from_reserve.map(|addr| addr as *mut DcasDescriptor)
}

/// Returns a descriptor to the calling thread's freelist — or to the
/// global reserve, if the cache is full or already torn down. Never
/// frees (module docs: descriptor memory is immortal).
///
/// # Safety
///
/// `p` must come from `Box::into_raw`, be exclusively owned by the
/// caller, and never be released twice. For descriptor recycling this
/// means: call either from a reclaimer-deferred destructor (after the
/// grace period / hazard drain for the descriptor's last publication)
/// or with a descriptor that was never published.
pub(crate) unsafe fn release(p: *mut DcasDescriptor) {
    note_free();
    let pooled = CACHE
        .try_with(|c| {
            let mut cache = c.borrow_mut();
            if cache.0.len() < CACHE_CAP {
                cache.0.push(p);
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    if !pooled {
        reserve().lock().unwrap().push(p as usize);
    }
}

// ---------------------------------------------------------------------
// Checked-out descriptor gauge.
// ---------------------------------------------------------------------

// Both counters are per-thread stripes: the acquire and the release each
// bump the calling thread's own line, and only the reader sums.
static ACQUIRED: Striped<AtomicU64> = Striped::zero();
static RELEASED: Striped<AtomicU64> = Striped::zero();

/// Records one descriptor checked out to an operation (pool hit or
/// fresh allocation alike).
#[inline]
pub(crate) fn note_alloc() {
    ACQUIRED.inc();
}

/// Records one descriptor returned (to a freelist or the reserve).
#[inline]
fn note_free() {
    RELEASED.inc();
}

/// Descriptors currently checked out to operations (or aging through a
/// reclamation grace period), process-wide: the stripe sums, so the
/// value is exact once the writers are quiet. Exported as
/// [`StrategyStats::live_descriptors`](crate::StrategyStats).
pub fn live_descriptors() -> u64 {
    // Releases first: each release follows its acquire, so a reading
    // that races the writers errs towards more checked-out descriptors.
    let released = RELEASED.sum();
    ACQUIRED.sum().saturating_sub(released)
}

// ---------------------------------------------------------------------
// Orphan accounting.
//
// A thread killed mid-operation (fault injection; in production, a
// thread that dies inside a signal handler or is cancelled) never
// reaches the epoch-deferred `release` of its in-flight descriptor.
// Freeing that descriptor would be unsound — helpers may still hold
// tagged pointers to it and probe its status word arbitrarily late —
// and returning it to a freelist would be a use-after-recycle for the
// same reason. The honest lock-free answer is *quarantine*: the
// descriptor is parked forever (bounded by the number of kills, i.e.
// one per dead thread), stays readable, and is counted so the harness
// can audit that every orphan is accounted for rather than double-freed
// or silently leaked into the freelist.
// ---------------------------------------------------------------------

/// Process-wide count of quarantined orphan descriptors. Reported as
/// [`StrategyStats::descriptor_orphans`](crate::StrategyStats); global,
/// like the thread-local pools it audits.
static ORPHANS: AtomicU64 = AtomicU64::new(0);

/// Number of descriptors quarantined because their owning thread was
/// killed mid-operation. Never decreases.
pub fn orphan_count() -> u64 {
    ORPHANS.load(Ordering::Relaxed)
}

#[cfg(feature = "fault-inject")]
mod inflight {
    use super::*;
    use std::cell::Cell;
    use std::ptr;
    use std::sync::{Mutex, OnceLock};

    thread_local! {
        /// The descriptor the current operation would leak if the
        /// thread died right now. At most one: operations do not nest.
        static INFLIGHT: Cell<*mut DcasDescriptor> = const { Cell::new(ptr::null_mut()) };
    }

    /// Quarantined descriptors, kept (not freed — see module comment)
    /// as addresses so the list is `Send` without further argument.
    fn quarantine() -> &'static Mutex<Vec<usize>> {
        static Q: OnceLock<Mutex<Vec<usize>>> = OnceLock::new();
        Q.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Marks `p` as the calling thread's in-flight descriptor.
    pub(crate) fn track_inflight(p: *mut DcasDescriptor) {
        let _ = INFLIGHT.try_with(|c| c.set(p));
    }

    /// The in-flight descriptor reached its normal release path.
    pub(crate) fn clear_inflight() {
        let _ = INFLIGHT.try_with(|c| c.set(std::ptr::null_mut()));
    }

    /// Moves the calling thread's in-flight descriptor (if any) into
    /// the permanent quarantine; called by the fault injector on the
    /// way out of a panic kill. Returns whether one was quarantined.
    pub fn quarantine_inflight() -> bool {
        let p = INFLIGHT.try_with(|c| c.replace(ptr::null_mut())).unwrap_or(ptr::null_mut());
        if p.is_null() {
            return false;
        }
        quarantine().lock().unwrap().push(p as usize);
        ORPHANS.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Quarantine length, for auditing against [`orphan_count`].
    pub fn quarantine_len() -> usize {
        quarantine().lock().unwrap().len()
    }
}

#[cfg(feature = "fault-inject")]
pub(crate) use inflight::{clear_inflight, track_inflight};
#[cfg(feature = "fault-inject")]
pub use inflight::{quarantine_inflight, quarantine_len};

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> *mut DcasDescriptor {
        Box::into_raw(Box::new(DcasDescriptor::vacant()))
    }

    /// Returns every descriptor in `ps` to the pool: once released, a
    /// descriptor is immortal (module docs) and must never go back to
    /// the allocator, even in tests.
    fn give_back(ps: impl IntoIterator<Item = *mut DcasDescriptor>) {
        for p in ps {
            unsafe { release(p) };
        }
    }

    #[test]
    fn release_then_acquire_recycles_lifo() {
        // Drain anything left by other tests on this thread first.
        let mut drained = vec![];
        while let Some(p) = acquire() {
            drained.push(p);
        }
        let (p1, p2) = (fresh(), fresh());
        unsafe {
            release(p1);
            release(p2);
        }
        // The local cache is LIFO; it is consulted before the shared
        // reserve, so these two pops are deterministic even with other
        // test threads spilling into the reserve concurrently.
        assert_eq!(acquire(), Some(p2));
        assert_eq!(acquire(), Some(p1));
        give_back([p1, p2]);
        give_back(drained);
    }

    #[test]
    fn caches_are_per_thread() {
        let mut drained = vec![];
        while let Some(p) = acquire() {
            drained.push(p);
        }
        let p = fresh();
        unsafe { release(p) };
        // Another thread's cache is independent: whatever it may pull
        // from the shared reserve, it can never see our local `p`.
        let ours = p as usize;
        std::thread::spawn(move || {
            let got = acquire();
            assert_ne!(got.map(|q| q as usize), Some(ours));
            give_back(got);
        })
        .join()
        .unwrap();
        assert_eq!(acquire(), Some(p));
        give_back([p]);
        give_back(drained);
    }

    #[test]
    fn live_descriptor_gauge_moves() {
        let (a0, r0) = (ACQUIRED.sum(), RELEASED.sum());
        let mine = |c: &Striped<AtomicU64>| c.mine().load(Ordering::Relaxed);
        let (mine_a0, mine_r0) = (mine(&ACQUIRED), mine(&RELEASED));
        note_alloc();
        note_alloc();
        note_free();
        assert!(ACQUIRED.sum() >= a0 + 2);
        assert!(RELEASED.sum() > r0);
        // Both counts landed on the caller's own stripe.
        assert!(mine(&ACQUIRED) >= mine_a0 + 2);
        assert!(mine(&RELEASED) > mine_r0);
        let _ = live_descriptors(); // saturating — never panics
    }

    /// A killed thread's in-flight descriptor lands in the quarantine —
    /// not in the freelist, not in the allocator — and the freelist
    /// keeps recycling consistently afterwards.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn pool_orphan() {
        let orphans_before = orphan_count();
        let quarantined = std::thread::spawn(|| {
            let p = fresh();
            track_inflight(p);
            // Simulate the thread dying mid-operation: the descriptor
            // is quarantined, never released.
            assert!(quarantine_inflight());
            // A second sweep finds nothing — no double-quarantine, and
            // hence no path to a double-free.
            assert!(!quarantine_inflight());
            p as usize
        })
        .join()
        .unwrap();
        assert_eq!(orphan_count(), orphans_before + 1);
        assert!(quarantine_len() as u64 >= orphan_count() - orphans_before);
        // The freelist stays consistent: recycling on this thread never
        // hands out the quarantined descriptor.
        let (p1, p2) = (fresh(), fresh());
        unsafe {
            release(p1);
            release(p2);
        }
        for _ in 0..3 {
            let a = acquire().unwrap();
            let b = acquire().unwrap();
            assert_ne!(a as usize, quarantined);
            assert_ne!(b as usize, quarantined);
            unsafe {
                release(a);
                release(b);
            }
        }
    }

    /// The normal release path of a tracked descriptor clears the
    /// in-flight mark, so a later kill has nothing to quarantine.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn cleared_inflight_is_not_quarantined() {
        std::thread::spawn(|| {
            let p = fresh();
            track_inflight(p);
            clear_inflight();
            assert!(!quarantine_inflight());
            drop(unsafe { Box::from_raw(p) });
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cap_overflow_spills_to_reserve_instead_of_growing() {
        // Overflow past CACHE_CAP goes to the shared reserve, never the
        // allocator (module docs: immortality). The local cache stays
        // capped, and at least the capped inventory is re-acquirable
        // (the 32 reserve spills may be claimed by concurrent test
        // threads — the reserve is process-global).
        let mut drained = vec![];
        while let Some(p) = acquire() {
            drained.push(p);
        }
        for _ in 0..(CACHE_CAP + 32) {
            unsafe { release(fresh()) };
        }
        let mut got = vec![];
        while let Some(p) = acquire() {
            got.push(p);
        }
        assert!(got.len() >= CACHE_CAP, "capped inventory lost: {}", got.len());
        give_back(got);
        give_back(drained);
    }
}
