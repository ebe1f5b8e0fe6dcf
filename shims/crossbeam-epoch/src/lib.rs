//! Offline vendored shim of `crossbeam-epoch`: epoch-based memory
//! reclamation supporting the API subset this workspace uses —
//! [`pin`] returning a [`Guard`], and [`Guard::defer_unchecked`].
//!
//! The build container has no access to crates.io, so the workspace
//! patches `crossbeam-epoch` to this path crate. The implementation is a
//! textbook three-epoch collector, not a port of upstream internals:
//!
//! * A global epoch counter advances only when **every pinned thread**
//!   has observed the current epoch.
//! * [`pin`] records `(epoch, active)` in a per-thread record registered
//!   in a global list; pins nest (only the outermost publishes).
//! * [`Guard::defer_unchecked`] queues a closure tagged with the global
//!   epoch at defer time; a deferred closure runs only after the global
//!   epoch has advanced **twice** past its tag.
//!
//! The two-advance rule gives the grace-period guarantee callers rely
//! on: any thread that could have observed a pointer retired at epoch
//! `e` was pinned at some epoch `≤ e`, and such a pin blocks the global
//! epoch from reaching `e + 2`; therefore when garbage tagged `e` is
//! freed, no such pin can still exist. This matches the contract the
//! callers (descriptor retirement in `dcas`, node retirement in the
//! list deques) were written against.
//!
//! Threads that exit with pending garbage migrate it to a global orphan
//! list drained by other threads' collections; their records are
//! removed from the registry so a dead thread never blocks the epoch.

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Collect (attempt an epoch advance and run ripe deferred closures)
/// after this many new defers since the last collection, and also every
/// `PINS_BETWEEN_COLLECT` outermost pins. The counter-based trigger
/// matters: thresholding on the *length* of the garbage queue would run
/// a full collection on every defer once the steady-state queue exceeds
/// the threshold (two in-flight epochs of garbage easily do), putting
/// two mutex acquisitions and a registry scan on the caller's hot path.
const COLLECT_EVERY_DEFERS: u64 = 64;
const PINS_BETWEEN_COLLECT: u64 = 128;

/// Collections that found the scheme *stuck*: the global epoch could not
/// advance (some thread is pinned at a stale epoch) while the collecting
/// thread's own deferred queue was already over the
/// [`COLLECT_EVERY_DEFERS`] threshold. A monotonically growing value here
/// is the signature of a frozen/stalled pinned thread holding the whole
/// process's garbage hostage — the unbounded-memory failure mode the
/// hazard-pointer backend in `dcas::reclaim` exists to avoid.
static STALLED: AtomicU64 = AtomicU64::new(0);

/// Number of collection attempts so far that were *stalled*: the epoch
/// did not move even though the collecting thread had a full defer
/// queue. Process-global, monotonic; exported through
/// `dcas::StrategyStats::stalled_collections` for observability.
pub fn stalled_collections() -> u64 {
    STALLED.load(Ordering::Relaxed)
}

/// Inline closure words of a [`Deferred`]. Mirrors upstream: deferring a
/// small closure (a pointer and a couple of words of context — every
/// closure this workspace queues) must not itself allocate, since
/// `defer_unchecked` sits on hot paths whose whole point is avoiding the
/// allocator.
const DEFERRED_WORDS: usize = 3;

/// A deferred closure, stored inline when it fits in `DEFERRED_WORDS`
/// words and boxed otherwise. Stored closures may be executed by a
/// different thread than the one that queued them (only after the grace
/// period, and for exiting threads' leftovers) — that cross-thread move
/// is part of the `defer_unchecked` safety contract, so the `Send` here
/// is the caller's promise, not ours.
///
/// Like upstream, dropping a `Deferred` without calling it leaks the
/// closure; the collector always either runs or keeps queued closures.
struct Deferred {
    call: unsafe fn(*mut u8),
    data: MaybeUninit<[usize; DEFERRED_WORDS]>,
}

unsafe impl Send for Deferred {}

impl Deferred {
    fn new<F: FnOnce()>(f: F) -> Self {
        let mut data = MaybeUninit::<[usize; DEFERRED_WORDS]>::uninit();
        if std::mem::size_of::<F>() <= std::mem::size_of::<[usize; DEFERRED_WORDS]>()
            && std::mem::align_of::<F>() <= std::mem::align_of::<[usize; DEFERRED_WORDS]>()
        {
            unsafe fn call_inline<F: FnOnce()>(raw: *mut u8) {
                // SAFETY: `raw` is the `data` of a Deferred built in the
                // inline branch for this exact `F`, consumed exactly once.
                let f: F = unsafe { raw.cast::<F>().read() };
                f();
            }
            // SAFETY: size/align checked above; `data` is exclusively ours.
            unsafe { data.as_mut_ptr().cast::<F>().write(f) };
            Deferred { call: call_inline::<F>, data }
        } else {
            unsafe fn call_boxed<F: FnOnce()>(raw: *mut u8) {
                // SAFETY: `raw` holds a `*mut F` from `Box::into_raw`,
                // written by the boxed branch, consumed exactly once.
                let b: Box<F> = unsafe { Box::from_raw(raw.cast::<*mut F>().read()) };
                (*b)();
            }
            // SAFETY: a pointer always fits the inline words.
            unsafe { data.as_mut_ptr().cast::<*mut F>().write(Box::into_raw(Box::new(f))) };
            Deferred { call: call_boxed::<F>, data }
        }
    }

    fn call(mut self) {
        // SAFETY: `data` was initialized by `new` for this `call` and is
        // consumed exactly once (by-value receiver, no Drop impl).
        unsafe { (self.call)(self.data.as_mut_ptr().cast()) }
    }
}

/// Per-thread participant record.
struct Local {
    /// `(epoch << 1) | active`, written only by the owner, read by any
    /// thread attempting an epoch advance.
    state: AtomicU64,
    /// Pin nesting depth (owner-only).
    depth: Cell<usize>,
    /// Outermost-pin counter used to throttle collection (owner-only).
    pins: Cell<u64>,
    /// Defers since the last collection (owner-only; see
    /// `COLLECT_EVERY_DEFERS`).
    defers: Cell<u64>,
    /// Garbage queued by this thread: `(epoch_at_defer, closure)`
    /// (owner-only; moved wholesale to the orphan list on thread exit).
    garbage: RefCell<Vec<(u64, Deferred)>>,
    /// Scratch buffer a collection moves ripe closures into before
    /// running them (owner-only; empty between collections). Reusing it
    /// keeps a steady-state collection free of heap allocations.
    ripe: RefCell<Vec<Deferred>>,
}

// SAFETY: `state` is atomic; every other field is accessed only by the
// owning thread (the TLS destructor also runs on the owning thread).
unsafe impl Send for Local {}
unsafe impl Sync for Local {}

struct Global {
    epoch: AtomicU64,
    registry: Mutex<Vec<Arc<Local>>>,
    /// Garbage left behind by exited threads.
    orphans: Mutex<Vec<(u64, Deferred)>>,
    /// Whether `orphans` may be non-empty. Set and cleared only under
    /// the `orphans` lock, read without it: a collection skips the lock
    /// while no thread has exited with garbage, which is nearly always.
    has_orphans: AtomicBool,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: AtomicU64::new(2),
        registry: Mutex::new(Vec::new()),
        orphans: Mutex::new(Vec::new()),
        has_orphans: AtomicBool::new(false),
    })
}

impl Global {
    /// Advances the global epoch if every active participant has
    /// observed the current one. Returns the (possibly new) epoch.
    fn try_advance(&self) -> u64 {
        let epoch = self.epoch.load(Ordering::SeqCst);
        {
            let registry = self.registry.lock().unwrap();
            for local in registry.iter() {
                let s = local.state.load(Ordering::SeqCst);
                if s & 1 == 1 && s >> 1 != epoch {
                    return epoch;
                }
            }
        }
        // Multiple threads may race here; compare_exchange keeps the
        // epoch from skipping (a skip would shorten the grace period).
        let _ = self.epoch.compare_exchange(
            epoch,
            epoch + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.epoch.load(Ordering::SeqCst)
    }
}

thread_local! {
    static LOCAL: LocalHandle = LocalHandle::register();
}

/// Owner-side handle; the TLS destructor deregisters and orphans any
/// garbage that has not yet ripened.
struct LocalHandle {
    local: Arc<Local>,
}

impl LocalHandle {
    fn register() -> Self {
        let local = Arc::new(Local {
            state: AtomicU64::new(0),
            depth: Cell::new(0),
            pins: Cell::new(0),
            defers: Cell::new(0),
            garbage: RefCell::new(Vec::new()),
            ripe: RefCell::new(Vec::new()),
        });
        global().registry.lock().unwrap().push(local.clone());
        LocalHandle { local }
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        let g = global();
        let leftovers: Vec<(u64, Deferred)> =
            self.local.garbage.borrow_mut().drain(..).collect();
        if !leftovers.is_empty() {
            let mut orphans = g.orphans.lock().unwrap();
            orphans.extend(leftovers);
            g.has_orphans.store(true, Ordering::Release);
        }
        let mut registry = g.registry.lock().unwrap();
        registry.retain(|l| !Arc::ptr_eq(l, &self.local));
    }
}

/// A pinned-epoch guard. While any `Guard` exists on a thread, memory
/// retired by other threads after this thread's pin cannot be freed.
pub struct Guard {
    /// Raw pointer back to the thread's record; `Guard` is `!Send` as a
    /// consequence, matching upstream.
    local: *const Local,
}

/// Pins the current thread, returning a guard.
///
/// Pins nest: only the outermost pin publishes an epoch, inner pins are
/// a counter increment.
pub fn pin() -> Guard {
    LOCAL.with(|h| {
        let local = &h.local;
        let depth = local.depth.get();
        local.depth.set(depth + 1);
        if depth == 0 {
            let g = global();
            // Publish (epoch, active) and re-check: if the epoch moved
            // between the read and the store, a concurrent try_advance
            // may have ignored the stale record, so re-publish until the
            // value we advertise is the current epoch.
            loop {
                let e = g.epoch.load(Ordering::SeqCst);
                local.state.store(e << 1 | 1, Ordering::SeqCst);
                if g.epoch.load(Ordering::SeqCst) == e {
                    break;
                }
            }
            let pins = local.pins.get().wrapping_add(1);
            local.pins.set(pins);
            if pins % PINS_BETWEEN_COLLECT == 0 {
                collect(local);
            }
        }
        Guard { local: Arc::as_ptr(&h.local) }
    })
}

/// Returns `true` if the current thread is pinned.
pub fn is_pinned() -> bool {
    LOCAL.with(|h| h.local.depth.get() > 0)
}

/// Moves the closures whose tag is two epochs stale into `ripe` (order
/// within the queue is not preserved; ripeness only depends on the tag).
fn drain_ripe(queue: &mut Vec<(u64, Deferred)>, epoch: u64, ripe: &mut Vec<Deferred>) {
    let mut i = 0;
    while i < queue.len() {
        if queue[i].0 + 2 <= epoch {
            ripe.push(queue.swap_remove(i).1);
        } else {
            i += 1;
        }
    }
}

/// Attempts an epoch advance, then runs this thread's and orphaned
/// closures that are two epochs stale.
fn collect(local: &Local) {
    let g = global();
    let before = g.epoch.load(Ordering::SeqCst);
    let epoch = g.try_advance();
    if epoch == before && local.garbage.borrow().len() >= COLLECT_EVERY_DEFERS as usize {
        // The epoch is pinned in place while we sit on a full queue:
        // record the stall so monitoring can tell "quiet" from "stuck".
        STALLED.fetch_add(1, Ordering::Relaxed);
    }
    // Take the buffer out rather than borrow it across the calls: a
    // closure that re-enters `collect` then finds an empty buffer.
    let mut ripe = local.ripe.take();
    drain_ripe(&mut local.garbage.borrow_mut(), epoch, &mut ripe);
    // The flag is only a hint to skip the lock: a set that this load
    // misses was made by an exit that raced this collection, and the
    // next collection sees it.
    if g.has_orphans.load(Ordering::Acquire) {
        let mut orphans = g.orphans.lock().unwrap();
        drain_ripe(&mut orphans, epoch, &mut ripe);
        if orphans.is_empty() {
            g.has_orphans.store(false, Ordering::Relaxed);
        }
    }
    // Run outside every lock and borrow: closures may take unrelated
    // locks or defer more garbage.
    for d in ripe.drain(..) {
        d.call();
    }
    local.ripe.replace(ripe);
}

impl Guard {
    /// Defers `f` until no thread pinned at or before the current epoch
    /// remains pinned (the two-advance grace period).
    ///
    /// # Safety
    ///
    /// The caller must guarantee that running `f` after the grace period
    /// is sound (the classic epoch contract: the protected object is
    /// unreachable to threads that pin afterwards), including if `f`
    /// runs on another thread.
    pub unsafe fn defer_unchecked<F, R>(&self, f: F)
    where
        F: FnOnce() -> R + 'static,
    {
        // SAFETY: a Guard never outlives its thread's LocalHandle (it is
        // !Send, and TLS destruction cannot run while the thread still
        // holds a Guard on its stack).
        let local = unsafe { &*self.local };
        let epoch = global().epoch.load(Ordering::SeqCst);
        local.garbage.borrow_mut().push((
            epoch,
            Deferred::new(move || {
                let _ = f();
            }),
        ));
        let defers = local.defers.get() + 1;
        local.defers.set(defers);
        if defers >= COLLECT_EVERY_DEFERS {
            local.defers.set(0);
            collect(local);
        }
    }

    /// Eagerly attempts an advance-and-collect cycle (upstream calls
    /// this `flush`; handy in tests).
    pub fn flush(&self) {
        // SAFETY: same as in defer_unchecked.
        let local = unsafe { &*self.local };
        collect(local);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // SAFETY: same as in defer_unchecked.
        let local = unsafe { &*self.local };
        let depth = local.depth.get();
        local.depth.set(depth - 1);
        if depth == 1 {
            local.state.store(0, Ordering::SeqCst);
            // With the queue over threshold, try to collect *now* that
            // our own pin no longer blocks the advance. Without this, a
            // thread that stops calling defer_unchecked (its workload
            // moved on) would strand a full queue until its next
            // `PINS_BETWEEN_COLLECT`-th pin — or forever, if it never
            // pins again on a structure using this collector.
            if local.garbage.borrow().len() >= COLLECT_EVERY_DEFERS as usize {
                collect(local);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    /// Repeatedly flushes until `cond` holds (tests run concurrently in
    /// one process, so a fixed number of advance attempts would race
    /// with other tests' transient pins).
    fn drive_until(cond: impl Fn() -> bool) {
        for _ in 0..100_000 {
            if cond() {
                return;
            }
            pin().flush();
            std::thread::yield_now();
        }
        panic!("collection did not converge");
    }

    #[test]
    fn deferred_runs_eventually_and_not_while_pinned_elsewhere() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let guard = pin();
            let ran2 = ran.clone();
            unsafe {
                guard.defer_unchecked(move || {
                    ran2.fetch_add(1, Ordering::SeqCst);
                })
            };
        }
        let ran2 = ran.clone();
        drive_until(move || ran2.load(Ordering::SeqCst) == 1);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_pins_count_as_one() {
        let a = pin();
        assert!(is_pinned());
        let b = pin();
        drop(a);
        assert!(is_pinned());
        drop(b);
        assert!(!is_pinned());
    }

    #[test]
    fn grace_period_blocks_on_remote_pin() {
        use std::sync::mpsc;
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let (pinned_tx, pinned_rx) = mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let _g = pin();
            pinned_tx.send(()).unwrap();
            hold_rx.recv().unwrap();
        });
        pinned_rx.recv().unwrap();

        let freed = Arc::new(AtomicUsize::new(0));
        {
            let g = pin();
            let freed2 = freed.clone();
            unsafe {
                g.defer_unchecked(move || {
                    freed2.fetch_add(1, Ordering::SeqCst);
                })
            };
        }
        for _ in 0..64 {
            pin().flush();
        }
        // The remote thread has been pinned since before the defer: no
        // amount of flushing may run the closure.
        assert_eq!(freed.load(Ordering::SeqCst), 0);
        hold_tx.send(()).unwrap();
        holder.join().unwrap();
        let freed2 = freed.clone();
        drive_until(move || freed2.load(Ordering::SeqCst) == 1);
        assert_eq!(freed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn exiting_thread_orphans_garbage() {
        std::thread::spawn(|| {
            let g = pin();
            unsafe {
                g.defer_unchecked(|| {
                    DROPS.fetch_add(1, Ordering::SeqCst);
                })
            };
        })
        .join()
        .unwrap();
        drive_until(|| DROPS.load(Ordering::SeqCst) == 1);
    }

    #[test]
    fn orphan_flag_tracks_the_orphan_list() {
        std::thread::spawn(|| {
            let g = pin();
            unsafe { g.defer_unchecked(|| {}) };
        })
        .join()
        .unwrap();
        // The exit parked its unripe closure and raised the flag; the
        // collections that drain the list lower it again. Other tests'
        // exiting threads may raise it meanwhile, so only the pairing
        // "flag down implies list empty" is exact.
        drive_until(|| !global().has_orphans.load(Ordering::Acquire));
        let orphans = global().orphans.lock().unwrap();
        assert!(
            orphans.is_empty() || global().has_orphans.load(Ordering::Acquire),
            "orphans parked with the flag down"
        );
    }

    #[test]
    fn stalled_collections_counts_stuck_epoch_with_full_queue() {
        use std::sync::mpsc;
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let (pinned_tx, pinned_rx) = mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let _g = pin();
            pinned_tx.send(()).unwrap();
            hold_rx.recv().unwrap();
        });
        pinned_rx.recv().unwrap();

        let before = stalled_collections();
        {
            let g = pin();
            for _ in 0..COLLECT_EVERY_DEFERS as usize + 8 {
                unsafe { g.defer_unchecked(|| {}) };
            }
            // The holder pins an epoch the advance cannot leave behind,
            // so with a full local queue each flush is a stalled
            // collection. (The epoch may advance once past the holder's
            // pin, hence several flushes.)
            for _ in 0..4 {
                g.flush();
            }
        }
        assert!(
            stalled_collections() > before,
            "no stall recorded despite a frozen pin and a full queue"
        );
        hold_tx.send(()).unwrap();
        holder.join().unwrap();
    }

    #[test]
    fn unpin_collects_over_threshold_queue_without_explicit_flush() {
        let freed = Arc::new(AtomicUsize::new(0));
        let freed2 = freed.clone();
        let n = COLLECT_EVERY_DEFERS as usize + 8;
        std::thread::spawn(move || {
            {
                let g = pin();
                for _ in 0..n {
                    let f = freed2.clone();
                    unsafe {
                        g.defer_unchecked(move || {
                            f.fetch_add(1, Ordering::SeqCst);
                        })
                    };
                }
            }
            // Only bare pin/unpin cycles from here: the over-threshold
            // queue must drain via the unpin-time collection (each drop
            // attempts one epoch advance; two suffice absent
            // interference, more under concurrent test pins).
            for _ in 0..100_000 {
                if freed2.load(Ordering::SeqCst) == n {
                    return;
                }
                drop(pin());
                std::thread::yield_now();
            }
            panic!("unpin-time collection never drained the queue");
        })
        .join()
        .unwrap();
        assert_eq!(freed.load(Ordering::SeqCst), n);
    }

    #[test]
    fn large_closures_take_the_boxed_path() {
        // 64 bytes of captured state exceeds the inline words, forcing
        // the boxed Deferred branch.
        let payload = [7u8; 64];
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let g = pin();
            let ran2 = ran.clone();
            unsafe {
                g.defer_unchecked(move || {
                    assert!(payload.iter().all(|&b| b == 7));
                    ran2.fetch_add(1, Ordering::SeqCst);
                })
            };
        }
        let ran2 = ran.clone();
        drive_until(move || ran2.load(Ordering::SeqCst) == 1);
    }

    #[test]
    fn stress_defer_free_boxes() {
        let mut handles = vec![];
        for _ in 0..4 {
            handles.push(std::thread::spawn(|| {
                for i in 0..10_000u64 {
                    let g = pin();
                    let b = Box::into_raw(Box::new(i));
                    unsafe {
                        g.defer_unchecked(move || drop(Box::from_raw(b)));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for _ in 0..16 {
            pin().flush();
        }
    }
}
