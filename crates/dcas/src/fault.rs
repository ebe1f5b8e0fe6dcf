//! Deterministic fault injection for the DCAS substrate
//! (`fault-inject` feature).
//!
//! The paper's central progress claim is that the deques are
//! *non-blocking*: a processor stalled or killed at any point inside an
//! operation can never prevent other processors from completing theirs,
//! because any thread that encounters the orphaned DCAS descriptor helps
//! it to completion. Clean executions never exercise that claim. This
//! module manufactures the adversarial schedules deterministically:
//!
//! * [`FaultPlan`] — a seeded, replayable description of *what goes
//!   wrong*: spurious weak-DCAS/CASN failures, bounded stalls at the
//!   named [`FaultPoint`]s inside [`HarrisMcas`](crate::HarrisMcas), and
//!   at most one *kill* (a permanent freeze on a [`StallGate`], or a
//!   panic that unwinds out of the operation).
//! * [`arm`] — attaches a plan to the **calling thread**; only armed
//!   threads experience faults, so victims and survivors can share one
//!   strategy instance.
//! * [`FaultInjecting`] — a [`DcasStrategy`] wrapper that injects the
//!   plan's spurious failures into the weak `dcas`/`casn` paths (legal:
//!   callers of the weak form must tolerate failure and retry), while
//!   the `fault_point!` hooks compiled into `mcas.rs` deliver the
//!   stalls and kills inside the helping protocol itself.
//!
//! Determinism: every probabilistic decision comes from a per-thread
//! splitmix64 stream seeded from `(plan.seed, thread_index)`, so a run
//! is replayed exactly by re-arming the same plan on the same thread
//! topology. The torture harness prints the seed of every run for this
//! reason.
//!
//! # Kill semantics
//!
//! A [`KillKind::Freeze`] parks the victim on its gate at the Nth hit of
//! the chosen point — *any* hit, because a frozen thread resumes when
//! the gate is released and completes its operation normally, exactly
//! like a descheduled processor. A [`KillKind::Panic`] unwinds instead,
//! and is delivered only at a hit flagged *effect-free* (the in-flight
//! strategy operation has not yet published state nor transferred value
//! ownership), so an unwinding operation is indistinguishable from one
//! that returned failure. Nothing needs cleaning up on the way out: at
//! an effect-free hit no word holds a tag of the thread's descriptor
//! (its current incarnation is unpublished, and none of its own installs
//! is pending), so the thread keeps its descriptor and its next
//! operation simply starts a new incarnation. A thread that unwinds all
//! the way out gives its descriptor slot back like any exiting thread.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::strategy::{validate_args, validate_casn};
use crate::word::DcasWord;
use crate::{CasnEntry, DcasStrategy};

/// Named injection points: three inside the Harris MCAS protocol (the
/// `fault_point!` hooks in `mcas.rs`) plus one scheduler-level point in
/// the tiered work deque's spill path (hooked directly by
/// `dcas-workstealing` behind its own `fault-inject` feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// On entry to descriptor publication, before phase 1 installs the
    /// descriptor into any target word.
    PreInstall,
    /// Inside a helping branch: the thread just encountered a foreign
    /// in-flight descriptor (during its own installation, a read, or a
    /// single-word CAS) and is about to help it.
    MidHelping,
    /// After resolution, immediately before the operation returns (and
    /// its descriptor becomes free for the thread's next operation).
    PreRelease,
    /// In a tiered work deque's spill: the batch has been drained from
    /// the owner-private tier into the staging buffer but not yet
    /// pushed to the shared level — the death-flush recovery window.
    SpillStaged,
}

/// The MCAS-protocol injection points, for iterating a torture matrix
/// over strategy operations. [`FaultPoint::SpillStaged`] is deliberately
/// excluded: it only fires inside the work-stealing spill path, so a
/// matrix arm waiting for it during plain deque traffic would hang.
pub const FAULT_POINTS: [FaultPoint; 3] =
    [FaultPoint::PreInstall, FaultPoint::MidHelping, FaultPoint::PreRelease];

/// Every injection point, indexed by [`FaultPoint::index`].
const ALL_POINTS: [FaultPoint; 4] = [
    FaultPoint::PreInstall,
    FaultPoint::MidHelping,
    FaultPoint::PreRelease,
    FaultPoint::SpillStaged,
];

impl FaultPoint {
    #[inline]
    fn index(self) -> usize {
        match self {
            FaultPoint::PreInstall => 0,
            FaultPoint::MidHelping => 1,
            FaultPoint::PreRelease => 2,
            FaultPoint::SpillStaged => 3,
        }
    }

    /// Short stable name, used in diagnostics and replay lines.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::PreInstall => "pre-install",
            FaultPoint::MidHelping => "mid-helping",
            FaultPoint::PreRelease => "pre-release",
            FaultPoint::SpillStaged => "spill-staged",
        }
    }
}

/// A gate a frozen thread parks on until the harness releases it —
/// the "suspended processor" of the paper's progress argument, with a
/// resume button for orderly test teardown.
pub struct StallGate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl StallGate {
    /// Creates a closed gate.
    pub fn new() -> Arc<StallGate> {
        Arc::new(StallGate { open: Mutex::new(false), cv: Condvar::new() })
    }

    /// Blocks until [`release`](Self::release) is called (returns
    /// immediately if it already was).
    pub fn park(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    /// Opens the gate, resuming every parked thread.
    pub fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// What happens to the victim thread when its kill triggers.
#[derive(Clone)]
pub enum KillKind {
    /// Park on the gate: a descheduled thread that eventually resumes
    /// (at test teardown) and completes its operation.
    Freeze(Arc<StallGate>),
    /// Unwind out of the operation: a thread killed mid-operation.
    /// Delivered only at an effect-free hit of the chosen point (see
    /// module docs).
    Panic,
}

/// A single kill: at which point, after how many prior hits, and how.
#[derive(Clone)]
pub struct Kill {
    /// The injection point the kill triggers at.
    pub point: FaultPoint,
    /// Number of hits of `point` to let pass before triggering.
    pub after_hits: u64,
    /// Freeze or panic.
    pub kind: KillKind,
}

/// A seeded, replayable description of the faults one thread suffers.
#[derive(Clone)]
pub struct FaultPlan {
    /// Seed of the per-thread decision stream (combined with the
    /// thread index passed to [`arm`]).
    pub seed: u64,
    /// Probability, in ‰, that a weak `dcas`/`casn` through
    /// [`FaultInjecting`] spuriously fails without reaching the inner
    /// strategy.
    pub spurious_per_mille: u32,
    /// Probability, in ‰, that a `fault_point!` hit spins for
    /// [`stall_spins`](Self::stall_spins) iterations (a bounded
    /// preemption).
    pub stall_per_mille: u32,
    /// Length of a bounded stall, in spin-loop hints.
    pub stall_spins: u32,
    /// At most one permanent kill.
    pub kill: Option<Kill>,
}

impl FaultPlan {
    /// A plan with no faults; add them with the builder methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, spurious_per_mille: 0, stall_per_mille: 0, stall_spins: 0, kill: None }
    }

    /// Enables spurious weak-DCAS/CASN failures at the given per-mille
    /// rate.
    pub fn spurious(mut self, per_mille: u32) -> Self {
        self.spurious_per_mille = per_mille;
        self
    }

    /// Enables bounded stalls at the given per-mille rate and length.
    pub fn stalls(mut self, per_mille: u32, spins: u32) -> Self {
        self.stall_per_mille = per_mille;
        self.stall_spins = spins;
        self
    }

    /// Schedules the thread's kill.
    pub fn kill(mut self, point: FaultPoint, after_hits: u64, kind: KillKind) -> Self {
        self.kill = Some(Kill { point, after_hits, kind });
        self
    }
}

/// Shared, lock-free record of what an armed thread has experienced;
/// the watchdog reads it to produce a stuck-thread diagnostic.
#[derive(Default)]
pub struct FaultLog {
    hits: [AtomicU64; 4],
    /// `point.index() + 1` of the most recent hit; 0 = none yet.
    last_point: AtomicU64,
    spurious: AtomicU64,
    stalls: AtomicU64,
    frozen: AtomicBool,
    panicked: AtomicBool,
}

impl FaultLog {
    /// Hits recorded at `point`.
    pub fn hits(&self, point: FaultPoint) -> u64 {
        self.hits[point.index()].load(Ordering::Relaxed)
    }

    /// Total hits across all points.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }

    /// The most recently hit injection point, if any.
    pub fn last_point(&self) -> Option<FaultPoint> {
        match self.last_point.load(Ordering::Relaxed) {
            0 => None,
            n => Some(ALL_POINTS[n as usize - 1]),
        }
    }

    /// Spurious weak-DCAS/CASN failures injected so far.
    pub fn spurious_failures(&self) -> u64 {
        self.spurious.load(Ordering::Relaxed)
    }

    /// Bounded stalls delivered so far.
    pub fn bounded_stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Whether the thread is (or was) parked on its freeze gate.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Relaxed)
    }

    /// Whether the thread's panic kill was delivered.
    pub fn is_panicked(&self) -> bool {
        self.panicked.load(Ordering::Relaxed)
    }

    /// Whether either kill kind was delivered.
    pub fn is_killed(&self) -> bool {
        self.is_frozen() || self.is_panicked()
    }

    /// One-line diagnostic summary for the watchdog dump.
    pub fn describe(&self) -> String {
        format!(
            "last-point={} hits=[pre-install:{} mid-helping:{} pre-release:{} spill-staged:{}] \
             spurious={} stalls={} frozen={} panicked={}",
            self.last_point().map_or("none", |p| p.name()),
            self.hits(FaultPoint::PreInstall),
            self.hits(FaultPoint::MidHelping),
            self.hits(FaultPoint::PreRelease),
            self.hits(FaultPoint::SpillStaged),
            self.spurious_failures(),
            self.bounded_stalls(),
            self.is_frozen(),
            self.is_panicked(),
        )
    }
}

/// Per-thread armed state.
struct Active {
    plan: FaultPlan,
    rng: u64,
    log: Arc<FaultLog>,
    /// The (single) kill has not fired yet.
    kill_pending: bool,
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
}

/// Disarms the calling thread when dropped (end of the victim's scoped
/// run). `!Send`: faults are a property of the thread that armed them.
pub struct ArmedGuard {
    log: Arc<FaultLog>,
    _not_send: PhantomData<*const ()>,
}

impl ArmedGuard {
    /// The log shared with the harness/watchdog.
    pub fn log(&self) -> Arc<FaultLog> {
        Arc::clone(&self.log)
    }
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        let _ = ACTIVE.try_with(|a| a.borrow_mut().take());
    }
}

/// Arms the calling thread with `plan`. The decision stream is seeded
/// from `(plan.seed, thread_index)` so distinct victim threads of one
/// run draw independent, replayable streams. Returns the disarm guard;
/// its [`log`](ArmedGuard::log) is live immediately.
pub fn arm(plan: &FaultPlan, thread_index: u64) -> ArmedGuard {
    let log = Arc::new(FaultLog::default());
    let mut rng = plan.seed ^ thread_index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // Warm the stream so nearby seeds diverge immediately.
    splitmix64(&mut rng);
    ACTIVE.with(|a| {
        *a.borrow_mut() = Some(Active {
            plan: plan.clone(),
            rng,
            log: Arc::clone(&log),
            kill_pending: plan.kill.is_some(),
        });
    });
    ArmedGuard { log, _not_send: PhantomData }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

enum Action {
    None,
    Stall(u32),
    Freeze(Arc<StallGate>),
    Panic,
}

/// The `fault_point!` hook body: records the hit and delivers whatever
/// the calling thread's plan owes at this point. No-op on unarmed
/// threads. `effect_free` asserts that the in-flight strategy operation
/// has neither published state nor transferred value ownership — the
/// precondition for delivering a panic here.
pub fn hit(point: FaultPoint, effect_free: bool) {
    // Decide under the TLS borrow, act after releasing it: parking or
    // unwinding while the RefCell is borrowed would poison re-entry.
    let action = ACTIVE
        .try_with(|a| {
            let mut a = a.borrow_mut();
            let Some(active) = a.as_mut() else { return Action::None };
            let n = active.log.hits[point.index()].fetch_add(1, Ordering::Relaxed) + 1;
            active.log.last_point.store(point.index() as u64 + 1, Ordering::Relaxed);
            if active.kill_pending {
                if let Some(kill) = &active.plan.kill {
                    if kill.point == point && n > kill.after_hits {
                        match &kill.kind {
                            KillKind::Freeze(gate) => {
                                active.kill_pending = false;
                                active.log.frozen.store(true, Ordering::SeqCst);
                                return Action::Freeze(Arc::clone(gate));
                            }
                            // A panic must wait for an effect-free hit
                            // of its point; see module docs.
                            KillKind::Panic if effect_free => {
                                active.kill_pending = false;
                                active.log.panicked.store(true, Ordering::SeqCst);
                                return Action::Panic;
                            }
                            KillKind::Panic => {}
                        }
                    }
                }
            }
            if active.plan.stall_per_mille > 0
                && splitmix64(&mut active.rng) % 1000 < active.plan.stall_per_mille as u64
            {
                active.log.stalls.fetch_add(1, Ordering::Relaxed);
                return Action::Stall(active.plan.stall_spins);
            }
            Action::None
        })
        .unwrap_or(Action::None);
    match action {
        Action::None => {}
        Action::Stall(spins) => {
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
        Action::Freeze(gate) => gate.park(),
        Action::Panic => panic!("fault-injected kill at {}", point.name()),
    }
}

/// Rolls the armed thread's spurious-failure die. `false` on unarmed
/// threads.
fn spurious_failure() -> bool {
    ACTIVE
        .try_with(|a| {
            let mut a = a.borrow_mut();
            let Some(active) = a.as_mut() else { return false };
            if active.plan.spurious_per_mille > 0
                && splitmix64(&mut active.rng) % 1000 < active.plan.spurious_per_mille as u64
            {
                active.log.spurious.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            false
        })
        .unwrap_or(false)
}

/// A [`DcasStrategy`] decorator that injects the calling thread's
/// [`FaultPlan`] spurious failures into the **weak** `dcas`/`casn`
/// paths. Weak-form callers must already tolerate failure-and-retry, so
/// a fabricated `false` (with the inner strategy never invoked — the
/// words are untouched) is always linearizable: it is a DCAS that
/// "lost a race". `dcas_strong` is deliberately passed through — its
/// callers consume the failure snapshot, and fabricating one would
/// invent a memory state that never existed.
///
/// Threads that never called [`arm`] pass through unchanged, so one
/// wrapped strategy instance serves victims and survivors alike.
#[derive(Default)]
pub struct FaultInjecting<S: DcasStrategy> {
    inner: S,
}

impl<S: DcasStrategy> FaultInjecting<S> {
    /// The wrapped strategy.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: DcasStrategy> DcasStrategy for FaultInjecting<S> {
    type Reclaimer = S::Reclaimer;
    const IS_LOCK_FREE: bool = S::IS_LOCK_FREE;
    const HAS_CHEAP_STRONG: bool = S::HAS_CHEAP_STRONG;
    const NAME: &'static str = "fault-injecting";

    #[inline]
    fn load(&self, w: &DcasWord) -> u64 {
        self.inner.load(w)
    }

    #[inline]
    fn store(&self, w: &DcasWord, v: u64) {
        self.inner.store(w, v)
    }

    #[inline]
    fn cas(&self, w: &DcasWord, old: u64, new: u64) -> bool {
        self.inner.cas(w, old, new)
    }

    #[inline]
    fn dcas(&self, a1: &DcasWord, a2: &DcasWord, o1: u64, o2: u64, n1: u64, n2: u64) -> bool {
        // Keep the trait's validation panics even when the inner
        // strategy is skipped.
        validate_args(a1, a2, &[o1, o2, n1, n2]);
        if spurious_failure() {
            return false;
        }
        self.inner.dcas(a1, a2, o1, o2, n1, n2)
    }

    #[inline]
    fn dcas_strong(
        &self,
        a1: &DcasWord,
        a2: &DcasWord,
        o1: &mut u64,
        o2: &mut u64,
        n1: u64,
        n2: u64,
    ) -> bool {
        self.inner.dcas_strong(a1, a2, o1, o2, n1, n2)
    }

    #[inline]
    fn casn(&self, entries: &mut [CasnEntry<'_>]) -> bool {
        validate_casn(entries);
        if spurious_failure() {
            return false;
        }
        self.inner.casn(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HarrisMcas;
    use std::time::{Duration, Instant};

    #[test]
    fn unarmed_thread_is_transparent() {
        let s = FaultInjecting::<HarrisMcas>::default();
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        assert!(s.dcas(&a, &b, 0, 4, 8, 12));
        assert_eq!((s.load(&a), s.load(&b)), (8, 12));
        assert!(!s.dcas(&a, &b, 0, 4, 16, 20));
        let mut entries =
            [CasnEntry::new(&a, 8, 16), CasnEntry::new(&b, 12, 20)];
        assert!(s.casn(&mut entries));
        assert_eq!((s.load(&a), s.load(&b)), (16, 20));
    }

    #[test]
    fn certain_spurious_failure_never_reaches_inner() {
        let s = FaultInjecting::<HarrisMcas>::default();
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        let guard = arm(&FaultPlan::new(7).spurious(1000), 0);
        for _ in 0..64 {
            // Would succeed against the real strategy; must fail and
            // leave both words untouched.
            assert!(!s.dcas(&a, &b, 0, 4, 8, 12));
        }
        assert_eq!((s.load(&a), s.load(&b)), (0, 4));
        assert_eq!(guard.log().spurious_failures(), 64);
        drop(guard);
        // Disarmed: back to the real semantics.
        assert!(s.dcas(&a, &b, 0, 4, 8, 12));
    }

    #[test]
    fn same_seed_same_decisions() {
        fn stream(seed: u64, index: u64) -> Vec<bool> {
            let _guard = arm(&FaultPlan::new(seed).spurious(500), index);
            (0..256).map(|_| spurious_failure()).collect()
        }
        let a = stream(42, 3);
        let b = stream(42, 3);
        let c = stream(42, 4);
        assert_eq!(a, b, "same (seed, index) must replay identically");
        assert_ne!(a, c, "distinct thread indices must diverge");
        // The rate is in the right ballpark for 500‰.
        let hits = a.iter().filter(|&&x| x).count();
        assert!((64..192).contains(&hits), "got {hits}/256 at 500 per mille");
    }

    #[test]
    fn freeze_parks_until_released() {
        let gate = StallGate::new();
        let plan =
            FaultPlan::new(1).kill(FaultPoint::PreInstall, 0, KillKind::Freeze(gate.clone()));
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let guard = arm(&plan, 0);
            tx.send(guard.log()).unwrap();
            let s = HarrisMcas::new();
            let a = DcasWord::new(0);
            let b = DcasWord::new(4);
            // Reaches descriptor publication, hits PreInstall, parks.
            assert!(s.dcas(&a, &b, 0, 4, 8, 12));
            (s.load(&a), s.load(&b))
        });
        let log = rx.recv().unwrap();
        let start = Instant::now();
        while !log.is_frozen() {
            assert!(start.elapsed() < Duration::from_secs(10), "victim never froze");
            std::thread::yield_now();
        }
        assert!(!handle.is_finished(), "frozen thread must not make progress");
        gate.release();
        // Resumed: the operation completes normally.
        assert_eq!(handle.join().unwrap(), (8, 12));
    }

    #[test]
    fn panic_kill_unwinds_and_keeps_a_usable_descriptor() {
        let plan = FaultPlan::new(2).kill(FaultPoint::PreInstall, 0, KillKind::Panic);
        let (log, result) = std::thread::spawn(move || {
            let guard = arm(&plan, 0);
            let log = guard.log();
            let s = HarrisMcas::new();
            let a = DcasWord::new(0);
            let b = DcasWord::new(4);
            let slot = crate::desc::my_index();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.dcas(&a, &b, 0, 4, 8, 12)
            }));
            // Effect-free: the words are untouched after the unwind, and
            // the thread goes on with the same descriptor slot.
            assert_eq!((s.load(&a), s.load(&b)), (0, 4));
            assert!(s.dcas(&a, &b, 0, 4, 8, 12));
            assert_eq!((s.load(&a), s.load(&b)), (8, 12));
            assert!(s.dcas(&a, &b, 8, 12, 16, 20));
            assert_eq!(crate::desc::my_index(), slot, "the unwound thread lost its descriptor");
            (log, result.map_err(drop))
        })
        .join()
        .unwrap();
        assert!(result.is_err(), "the kill must unwind out of dcas");
        assert!(log.is_panicked());
    }

    #[test]
    fn panic_kill_waits_for_effect_free_hit() {
        // MidHelping hits with effect_free = false must not deliver the
        // panic; the kill stays pending.
        let plan = FaultPlan::new(3).kill(FaultPoint::MidHelping, 0, KillKind::Panic);
        let guard = arm(&plan, 0);
        hit(FaultPoint::MidHelping, false);
        hit(FaultPoint::MidHelping, false);
        assert!(!guard.log().is_panicked());
        let r = std::panic::catch_unwind(|| hit(FaultPoint::MidHelping, true));
        assert!(r.is_err());
        assert!(guard.log().is_panicked());
    }
}
