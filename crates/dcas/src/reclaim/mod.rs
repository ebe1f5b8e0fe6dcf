//! Pluggable memory reclamation for the lock-free strategies.
//!
//! Every retirement in this workspace — DCAS descriptors in
//! [`mcas`](crate::HarrisMcas), nodes in the `deque-core` linked deques —
//! used to go straight to `crossbeam-epoch`. Epochs are fast, but a
//! thread frozen inside a pinned section pins the global epoch forever
//! and lets garbage grow **without bound** (exactly the adversary the
//! `fault-inject` `Freeze` kill delivers). This module abstracts the
//! scheme behind the [`Reclaimer`] trait so the same strategy and deque
//! code runs against either backend:
//!
//! * [`EpochReclaimer`] — the existing epoch shim. Unbounded garbage
//!   under a frozen thread, but no per-access announcement cost.
//! * [`hazard::HazardReclaimer`] — Michael-style hazard pointers.
//!   Garbage is bounded by `O(threads × slots)` even when a thread
//!   stalls indefinitely, at the cost of a protect/validate store+load
//!   per pointer traversal.
//!
//! Both backends meter themselves through a per-thread gauge, so "how
//! much garbage is live right now" is a measured quantity — per Aksenov
//! et al., *Memory Bounds for Concurrent Bounded Queues* — rather than
//! an assumption. `tests/reclaim_torture.rs` freezes a victim thread and
//! compares the two curves.
//!
//! # Gauge readings
//!
//! Measuring garbage must not cost a contended cache line per retire, so
//! each thread keeps a stripe (a padded line of live count and peak):
//! a retire bumps the caller's own stripe and raises its own peak, and
//! the free credits the stripe that retired the block. Nothing on that
//! path reads or writes another thread's line.
//!
//! * [`Reclaimer::live_garbage`] sums the stripes' live counts: the
//!   exact number of retired-but-unfreed blocks (as a racy snapshot).
//! * [`Reclaimer::garbage_high_water`] sums the stripes' **peaks**. That
//!   sum is an *upper bound* on the true process-wide peak, not the peak
//!   itself: stripes that peaked at different times still add up. A
//!   dead thread's stripe keeps its peak, and threads past the eighth
//!   share stripes round-robin.
//!
//! # Guard protocol
//!
//! [`Reclaimer::pin`] returns a [`ReclaimGuard`]. For epochs the guard
//! is the pin itself and [`ReclaimGuard::protect`] is a no-op
//! (`NEEDS_PROTECT == false`, so callers' validation re-reads
//! const-fold away). For hazard pointers the guard is a window of the
//! calling thread's hazard-slot array: `protect(i, addr)` announces
//! `addr` in the i-th slot of the window, and the caller must
//! **validate** (re-read the word the pointer came from) before
//! dereferencing — the announce/validate/deref dance documented at each
//! call site. Guards nest strictly LIFO per thread.
//!
//! Descriptor hazards carry one of two low flag bits
//! ([`EXPAND_DESC`]/[`EXPAND_ENTRY`]) telling the hazard scanner to
//! *expand* the announcement to the descriptor's entry target words,
//! which closes the helper-side phase-2 window (see
//! `mcas::expand_descriptor_hazard`).

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_epoch as epoch;
use crossbeam_utils::CachePadded;

use crate::stripe::{self, Striped, STRIPES};

pub mod hazard;

/// Flag bit on a hazard-slot value: the protected address is a
/// `DcasDescriptor`; the scanner also protects every entry target word
/// the descriptor names. Descriptors are 8-aligned so the low bits are
/// free.
pub const EXPAND_DESC: u64 = 0b01;

/// Flag bit on a hazard-slot value: the protected address is a single
/// descriptor `Entry`; the scanner also protects that entry's target
/// word (and the range check on the entry address itself covers the
/// parent descriptor's allocation, since entries are embedded in it).
pub const EXPAND_ENTRY: u64 = 0b10;

/// Mask clearing both expansion flags off a hazard-slot value.
pub const EXPAND_MASK: u64 = 0b11;

/// A pluggable reclamation backend. All methods are static: backends
/// are process-wide (per-thread state lives in TLS inside the backend),
/// so strategies carry the backend as a type parameter, not a field.
pub trait Reclaimer: Send + Sync + Default + 'static {
    /// The pin/hazard guard type.
    type Guard: ReclaimGuard;

    /// Short backend name for benches and reports.
    const BACKEND: &'static str;

    /// The [`DcasStrategy::NAME`](crate::DcasStrategy::NAME) a
    /// `HarrisMcas` parameterized by this backend reports, so test
    /// matrices and bench tables distinguish the arms.
    const MCAS_NAME: &'static str;

    /// Pins the calling thread (epoch) or opens a hazard-slot window.
    fn pin() -> Self::Guard;

    /// Eagerly attempts to reclaim pending garbage (epoch: an
    /// advance-and-collect cycle; hazard: an immediate scan). Test and
    /// teardown convenience; never required for progress.
    fn flush();

    /// Blocks retired through this backend and not yet freed,
    /// process-wide.
    fn live_garbage() -> u64;

    /// Upper bound on the high-water mark of
    /// [`live_garbage`](Self::live_garbage) since process start: the sum
    /// of per-thread peaks (module docs, "Gauge readings").
    fn garbage_high_water() -> u64;

    /// Collection attempts that could not advance (epoch: the global
    /// epoch was stuck — the frozen-thread signature — while the local
    /// queue was over threshold). Always `0` for backends without the
    /// failure mode.
    fn stalled_collections() -> u64 {
        0
    }
}

/// The per-operation guard of a [`Reclaimer`]. Dropping the guard ends
/// the protected section (epoch: unpin; hazard: clear the slot window).
pub trait ReclaimGuard {
    /// `true` if traversals must announce-and-validate pointers before
    /// dereferencing. `false` lets callers const-fold the protection
    /// code away (epochs protect by pinning alone).
    const NEEDS_PROTECT: bool;

    /// Announces `addr` (with optional [`EXPAND_DESC`]/[`EXPAND_ENTRY`]
    /// flag bits) in slot `slot` of this guard's window. The caller
    /// must re-validate the source word before relying on the
    /// protection. No-op when `NEEDS_PROTECT` is `false`.
    fn protect(&self, slot: usize, addr: u64);

    /// Clears slot `slot` of this guard's window.
    fn clear(&self, slot: usize);

    /// Retires a block: `dtor(ptr)` runs once no thread can still hold
    /// a protected reference to any address in `[ptr, ptr + len)`.
    ///
    /// # Safety
    ///
    /// `ptr` must be unreachable to threads that pin afterwards (the
    /// block was unlinked from every shared word), `dtor` must be safe
    /// to run exactly once on `ptr` after the grace period / hazard
    /// drain, including on a different thread, and `len` must be the
    /// exact size of the allocation.
    unsafe fn retire(&self, ptr: *mut u8, len: usize, dtor: unsafe fn(*mut u8));
}

// ---------------------------------------------------------------------
// Per-thread garbage gauges.
// ---------------------------------------------------------------------

/// One gauge stripe: the blocks its threads retired that are not yet
/// freed, and the highest value that count ever reached.
struct GaugeLine {
    live: AtomicU64,
    peak: AtomicU64,
}

impl GaugeLine {
    const fn new() -> Self {
        GaugeLine { live: AtomicU64::new(0), peak: AtomicU64::new(0) }
    }
}

/// Live-garbage gauge, one static instance per backend. A retire
/// writes only the retiring thread's stripe, and the matching free
/// credits that same stripe, so the hot path never reads or writes
/// another thread's line. Readers fold the stripes (module docs: the
/// high-water is a sum of per-stripe peaks).
pub(crate) struct Gauge(Striped<GaugeLine>);

impl Gauge {
    pub(crate) const fn new() -> Self {
        Gauge(Striped::new([const { CachePadded::new(GaugeLine::new()) }; STRIPES]))
    }

    /// Counts one retired block on the caller's stripe and raises that
    /// stripe's peak if the new count exceeds it. Returns the stripe,
    /// which the block's [`on_free`](Self::on_free) must credit.
    #[inline]
    pub(crate) fn on_retire(&self) -> usize {
        let stripe = stripe::index();
        let line = self.0.line(stripe);
        let live = line.live.fetch_add(1, Ordering::Relaxed) + 1;
        // `fetch_max`, not a store: threads past the first `STRIPES`
        // share lines, and the peak must never move down.
        if live > line.peak.load(Ordering::Relaxed) {
            line.peak.fetch_max(live, Ordering::Relaxed);
        }
        stripe
    }

    /// Counts one freed block against `stripe`, the value its
    /// [`on_retire`](Self::on_retire) returned. The free happens after
    /// that retire, so a stripe's count never drops below zero.
    #[inline]
    pub(crate) fn on_free(&self, stripe: usize) {
        self.0.line(stripe).live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Retired-but-not-freed blocks right now (racy sum of exact
    /// per-stripe counts).
    pub(crate) fn live(&self) -> u64 {
        self.0.lines().map(|l| l.live.load(Ordering::Relaxed)).sum()
    }

    /// Sum of the per-stripe peaks: never below the process-wide peak of
    /// [`live`](Self::live), and above it when stripes peaked at
    /// different times.
    pub(crate) fn high_water(&self) -> u64 {
        self.0.lines().map(|l| l.peak.load(Ordering::Relaxed)).sum()
    }
}

/// Gauge for all epoch-backend retirements (descriptors and nodes).
pub(crate) static EPOCH_GAUGE: Gauge = Gauge::new();

// ---------------------------------------------------------------------
// Epoch backend: the shim, adapted to the trait.
// ---------------------------------------------------------------------

/// The default backend: the vendored `crossbeam-epoch` shim. Fast (one
/// pin per operation, no per-pointer announcements), but a frozen
/// pinned thread stops the epoch and garbage grows with op count — the
/// trade the hazard backend exists to close.
#[derive(Default)]
pub struct EpochReclaimer;

/// An epoch pin. Protection is implicit (the pin blocks the grace
/// period), so `protect`/`clear` are no-ops and `NEEDS_PROTECT` is
/// `false`.
pub struct EpochGuard {
    guard: epoch::Guard,
}

impl Reclaimer for EpochReclaimer {
    type Guard = EpochGuard;
    const BACKEND: &'static str = "epoch";
    const MCAS_NAME: &'static str = "harris-mcas";

    #[inline]
    fn pin() -> EpochGuard {
        EpochGuard { guard: epoch::pin() }
    }

    fn flush() {
        epoch::pin().flush();
    }

    fn live_garbage() -> u64 {
        EPOCH_GAUGE.live()
    }

    fn garbage_high_water() -> u64 {
        EPOCH_GAUGE.high_water()
    }

    fn stalled_collections() -> u64 {
        epoch::stalled_collections()
    }
}

impl ReclaimGuard for EpochGuard {
    const NEEDS_PROTECT: bool = false;

    #[inline]
    fn protect(&self, _slot: usize, _addr: u64) {}

    #[inline]
    fn clear(&self, _slot: usize) {}

    unsafe fn retire(&self, ptr: *mut u8, _len: usize, dtor: unsafe fn(*mut u8)) {
        let stripe = EPOCH_GAUGE.on_retire();
        // The closure captures three words (ptr, fn pointer, stripe):
        // exactly the shim's inline capacity, so deferring allocates
        // nothing (`tests/steady_state_alloc.rs` counts).
        // SAFETY: forwarded caller contract — after the grace period the
        // block is unreachable and `dtor` runs exactly once.
        unsafe {
            self.guard.defer_unchecked(move || {
                dtor(ptr);
                EPOCH_GAUGE.on_free(stripe);
            })
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_epoch_until(cond: impl Fn() -> bool) {
        for _ in 0..100_000 {
            if cond() {
                return;
            }
            EpochReclaimer::flush();
            std::thread::yield_now();
        }
        panic!("epoch reclamation did not converge");
    }

    #[test]
    fn reclaim_epoch_gauge_counts_retire_and_free() {
        let before_hw = EpochReclaimer::garbage_high_water();
        let g = EpochReclaimer::pin();
        let b = Box::into_raw(Box::new(7u64));
        unsafe fn free_u64(p: *mut u8) {
            // SAFETY: `p` came from `Box::into_raw::<u64>` below.
            drop(unsafe { Box::from_raw(p.cast::<u64>()) });
        }
        // SAFETY: `b` is unreachable to any other thread.
        unsafe { g.retire(b.cast(), std::mem::size_of::<u64>(), free_u64) };
        drop(g);
        assert!(EpochReclaimer::garbage_high_water() >= before_hw.max(1));
        // Other tests retire concurrently; all we can assert is
        // convergence of our own block (tracked via the shared gauge
        // reaching a freed state at some point).
        drive_epoch_until(|| EpochReclaimer::live_garbage() == 0);
    }

    #[test]
    fn reclaim_gauge_striped_sums() {
        let g = Gauge::new();
        let (s1, s2) = (g.on_retire(), g.on_retire());
        // Both retires landed on the caller's own stripe.
        assert_eq!((s1, s2), (stripe::index(), stripe::index()));
        assert_eq!(g.live(), 2);
        g.on_free(s1);
        assert_eq!(g.live(), 1);
        assert_eq!(g.high_water(), 2);
        // A free on another thread credits the retiring stripe, so the
        // sum returns to zero and the peak stays.
        std::thread::scope(|t| {
            t.spawn(|| g.on_free(s2));
        });
        assert_eq!(g.live(), 0);
        assert_eq!(g.high_water(), 2);
        // The peak rises only past its old value.
        let s3 = g.on_retire();
        assert_eq!(g.high_water(), 2);
        g.on_free(s3);
    }

    #[test]
    fn reclaim_epoch_guard_needs_no_protect() {
        const { assert!(!EpochGuard::NEEDS_PROTECT) };
        let g = EpochReclaimer::pin();
        g.protect(0, 0xdead_bee8);
        g.clear(0);
    }
}
