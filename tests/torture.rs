//! Crash/stall torture: the paper's non-blocking progress claim, tested
//! by actually killing threads mid-operation.
//!
//! Each run hammers one deque (array, list, or dummy-list over
//! [`FaultInjecting<HarrisMcas>`]) from four threads. Thread 0 is the
//! **victim**: armed with a seeded [`FaultPlan`] of spurious CASN
//! failures, bounded stalls, and exactly one *kill* — a permanent freeze
//! (parked on a [`StallGate`], like a descheduled processor) or a panic
//! (an unwinding "killed" thread) — delivered at a chosen injection
//! point inside the Harris MCAS protocol. The three **survivors** then
//! must each complete a full op quota *after* the kill lands: that is
//! lock-freedom, observed rather than assumed.
//!
//! Every run also audits conservation three ways:
//!
//! 1. **Value exactness** — the union of popped and drained values
//!    equals the set of successfully pushed values, no duplicates.
//! 2. **Leak freedom** — values are drop-counted ([`Counted`]); the
//!    live count returns to zero once the deque is dropped, even when
//!    the victim unwound out of a half-built batch (the push-path
//!    unwind guards).
//! 3. **Life after the kill** — a victim whose panic kill unwound it out
//!    of an operation completes one more operation on the same thread:
//!    the kill lands only at effect-free points, so the thread's DCAS
//!    descriptor (which it keeps for life) is named by no word and is
//!    ready for its next operation.
//!
//! All randomness flows from one seed printed at the start of every
//! test (override with `TORTURE_SEED=<n> cargo test --test torture`),
//! and every run is guarded by the shared [`Watchdog`]: a wedged run
//! aborts with the victim's fault log, the descriptor-slot count, and per-thread
//! progress, plus the replay command.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dcas::fault::{self, FaultLog, FAULT_POINTS};
use dcas::{FaultInjecting, FaultPlan, FaultPoint, HarrisMcas, KillKind, StallGate};
use dcas_deques::deque::{ArrayDeque, ConcurrentDeque, DummyListDeque, ListDeque, SundellDeque};
use dcas_deques::harness::{torture_seed, Watchdog};

type Fis = FaultInjecting<HarrisMcas>;

/// Drop-counted value: `live` tracks every `Counted` in existence, so a
/// leak (or double-free) anywhere — deque internals, unwound batches —
/// shows up as a nonzero count after teardown.
struct Counted {
    v: u64,
    live: Arc<AtomicI64>,
}

impl Counted {
    fn new(v: u64, live: &Arc<AtomicI64>) -> Counted {
        live.fetch_add(1, Ordering::Relaxed);
        Counted { v, live: Arc::clone(live) }
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One worker's op loop: random single and batched pushes/pops, with
/// every accepted value's id recorded in `pushed` and every obtained
/// value's id in `popped`.
///
/// `atomic_batches` gates the batched ops: they are only exact under a
/// mid-operation kill when the deque overrides them with chunk-atomic
/// CASN batches (array and list deques). The dummy-variant inherits the
/// per-element default loops, where an unwinding kill legitimately
/// leaves a committed *prefix* the caller cannot observe — sound (no
/// leak, no corruption; the leak audit still covers it) but not
/// attributable, so the exact-conservation matrix sticks to single ops
/// there.
#[allow(clippy::too_many_arguments)]
fn one_op<D: ConcurrentDeque<Counted>>(
    deque: &D,
    rng: &mut u64,
    tid: u64,
    counter: &mut u64,
    live: &Arc<AtomicI64>,
    pushed: &mut Vec<u64>,
    popped: &mut Vec<u64>,
    atomic_batches: bool,
) {
    let fresh = |counter: &mut u64| {
        let v = (tid << 40) | *counter;
        *counter += 1;
        v
    };
    let die = splitmix64(rng) % if atomic_batches { 8 } else { 6 };
    match die {
        0 | 4 => {
            let v = fresh(counter);
            if deque.push_right(Counted::new(v, live)).is_ok() {
                pushed.push(v);
            }
        }
        1 | 5 => {
            let v = fresh(counter);
            if deque.push_left(Counted::new(v, live)).is_ok() {
                pushed.push(v);
            }
        }
        2 => {
            if let Some(c) = deque.pop_right() {
                popped.push(c.v);
            }
        }
        3 => {
            if let Some(c) = deque.pop_left() {
                popped.push(c.v);
            }
        }
        6 => {
            // Batched push: exercises the chunk-CASN path (and its
            // unwind guards, when the victim dies inside it).
            let ids: Vec<u64> = (0..3).map(|_| fresh(counter)).collect();
            let batch: Vec<Counted> = ids.iter().map(|&v| Counted::new(v, live)).collect();
            let accepted = match deque.push_right_n(batch) {
                Ok(()) => ids.len(),
                Err(tail) => ids.len() - tail.into_inner().len(),
            };
            pushed.extend(&ids[..accepted]);
        }
        _ => {
            for c in deque.pop_left_n(2) {
                popped.push(c.v);
            }
        }
    }
}

enum Kill {
    Freeze,
    Panic,
}

/// Ops each survivor must complete *after* the victim's kill lands.
const QUOTA: u64 = 600;

/// The core torture run: 1 armed victim + 3 survivors on one deque.
/// See the module docs for the properties asserted.
fn torture_run<D, F>(
    label: &str,
    make_deque: F,
    point: FaultPoint,
    kill: Kill,
    seed: u64,
    atomic_batches: bool,
)
where
    D: ConcurrentDeque<Counted> + 'static,
    F: FnOnce() -> D,
{
    let live = Arc::new(AtomicI64::new(0));
    let deque = Arc::new(make_deque());
    let gate = StallGate::new();
    let kind = match kill {
        Kill::Freeze => KillKind::Freeze(Arc::clone(&gate)),
        Kill::Panic => KillKind::Panic,
    };
    let plan = FaultPlan::new(seed)
        .spurious(40)
        .stalls(40, 300)
        .kill(point, 3, kind);
    let recovered = AtomicBool::new(false);

    let stop = Arc::new(AtomicBool::new(false));
    let pushed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let popped: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let survivor_ops = Arc::new(AtomicU64::new(0));

    let watchdog = Watchdog::arm(label, seed, Duration::from_secs(120));
    {
        let ops = Arc::clone(&survivor_ops);
        watchdog.diagnostic("survivor post-kill ops", move || {
            format!("{} (quota {} x3)", ops.load(Ordering::Relaxed), QUOTA)
        });
        watchdog.diagnostic("descriptor slots", || dcas::descriptor_slots().to_string());
    }

    let victim_log: Arc<FaultLog> = std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel::<Arc<FaultLog>>();

        // Victim: thread index 0.
        {
            let deque = Arc::clone(&deque);
            let live = Arc::clone(&live);
            let stop = Arc::clone(&stop);
            let pushed = Arc::clone(&pushed);
            let popped = Arc::clone(&popped);
            let plan = plan.clone();
            let recovered = &recovered;
            s.spawn(move || {
                let guard = fault::arm(&plan, 0);
                let log = guard.log();
                tx.send(Arc::clone(&log)).unwrap();
                let mut rng = seed ^ 0xD1CE;
                let mut counter = 0u64;
                let mut my_pushed = Vec::new();
                let mut my_popped = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    // A panic kill unwinds out of the op; the unwind
                    // guards guarantee the in-flight value was released,
                    // so an unwound push is simply "not pushed".
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        one_op(
                            &*deque,
                            &mut rng,
                            0,
                            &mut counter,
                            &live,
                            &mut my_pushed,
                            &mut my_popped,
                            atomic_batches,
                        )
                    }));
                    if r.is_err() {
                        // The unwound thread keeps working: one more op
                        // on the same thread (and, over `HarrisMcas`, the
                        // same descriptor) before it retires.
                        one_op(
                            &*deque,
                            &mut rng,
                            0,
                            &mut counter,
                            &live,
                            &mut my_pushed,
                            &mut my_popped,
                            atomic_batches,
                        );
                        recovered.store(true, Ordering::Release);
                        break;
                    }
                }
                pushed.lock().unwrap().extend(my_pushed);
                popped.lock().unwrap().extend(my_popped);
            });
        }
        let log = rx.recv().unwrap();
        {
            let log = Arc::clone(&log);
            watchdog.diagnostic("victim fault log", move || log.describe());
        }

        // Survivors: thread indices 1..=3, armed with stalls and
        // spurious failures but no kill. Each runs until it has
        // completed QUOTA ops *after* observing the victim's death.
        let mut handles = Vec::new();
        for tid in 1u64..=3 {
            let deque = Arc::clone(&deque);
            let live = Arc::clone(&live);
            let pushed = Arc::clone(&pushed);
            let popped = Arc::clone(&popped);
            let log = Arc::clone(&log);
            let ops = Arc::clone(&survivor_ops);
            let plan = FaultPlan::new(seed).spurious(25).stalls(25, 150);
            handles.push(s.spawn(move || {
                let _guard = fault::arm(&plan, tid);
                let mut rng = seed ^ (tid << 8);
                let mut counter = 0u64;
                let mut my_pushed = Vec::new();
                let mut my_popped = Vec::new();
                let mut post_kill = 0u64;
                while post_kill < QUOTA {
                    one_op(
                        &*deque,
                        &mut rng,
                        tid,
                        &mut counter,
                        &live,
                        &mut my_pushed,
                        &mut my_popped,
                        atomic_batches,
                    );
                    if log.is_killed() {
                        post_kill += 1;
                        ops.fetch_add(1, Ordering::Relaxed);
                    }
                }
                pushed.lock().unwrap().extend(my_pushed);
                popped.lock().unwrap().extend(my_popped);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        // Survivors met their quota with the victim dead or frozen:
        // lock-freedom held. Tear down: stop (and, for a freeze,
        // resume) the victim so it can finish its interrupted op and
        // report its records.
        assert!(log.is_killed(), "{label}: victim was never killed");
        stop.store(true, Ordering::Release);
        gate.release();
        log
    });

    match kill {
        Kill::Freeze => assert!(victim_log.is_frozen(), "{label}: wrong kill kind delivered"),
        Kill::Panic => {
            assert!(victim_log.is_panicked(), "{label}: wrong kill kind delivered");
            assert!(
                recovered.load(Ordering::Acquire),
                "{label}: the unwound victim did not complete an op afterwards"
            );
        }
    }

    // Exact conservation: popped ∪ drained == pushed, duplicate-free.
    let mut drained = Vec::new();
    while let Some(c) = deque.pop_left() {
        drained.push(c.v);
    }
    assert!(deque.pop_right().is_none(), "{label}: drain left residue");
    let pushed = pushed.lock().unwrap();
    let popped = popped.lock().unwrap();
    let mut seen: HashSet<u64> = HashSet::with_capacity(pushed.len());
    for &v in popped.iter().chain(drained.iter()) {
        assert!(seen.insert(v), "{label}: value {v:#x} popped twice");
    }
    let expect: HashSet<u64> = pushed.iter().copied().collect();
    assert_eq!(
        seen, expect,
        "{label}: conservation violated ({} in, {} out)",
        expect.len(),
        seen.len()
    );

    // Leak audit: with the deque gone, every Counted ever created must
    // have been dropped — including values the victim abandoned.
    let deque = Arc::try_unwrap(deque).unwrap_or_else(|_| panic!("{label}: deque still shared"));
    drop(deque);
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "{label}: drop-count leak audit failed"
    );
    watchdog.disarm();
}

/// Runs the full 3-point matrix for one deque and kill kind, with a
/// per-run seed derived from the printed base seed. `atomic_batches` is
/// as in [`one_op`]: true where batched ops are chunk-atomic CASN
/// overrides, false for per-element batch loops (the dummy-node and the
/// CAS-only sundell deques).
fn torture_matrix<D, F>(test: &str, make_deque: F, kill: fn() -> Kill, atomic_batches: bool)
where
    D: ConcurrentDeque<Counted> + 'static,
    F: Fn() -> D,
{
    let base = torture_seed(test);
    for (i, point) in FAULT_POINTS.iter().enumerate() {
        let label = format!("{test}[{}]", point.name());
        let mut seed = base ^ (i as u64) << 32;
        splitmix64(&mut seed);
        torture_run(&label, &make_deque, *point, kill(), seed, atomic_batches);
    }
}

// `Arc::try_unwrap` above needs `D`, not `Arc<D>`; the matrix closures
// build fresh deques so each run's leak audit is isolated.

#[test]
fn array_deque_survives_frozen_thread() {
    torture_matrix(
        "array_deque_survives_frozen_thread",
        || ArrayDeque::<Counted, Fis>::new(8),
        || Kill::Freeze,
        true,
    );
}

#[test]
fn array_deque_survives_panicked_thread() {
    torture_matrix(
        "array_deque_survives_panicked_thread",
        || ArrayDeque::<Counted, Fis>::new(8),
        || Kill::Panic,
        true,
    );
}

#[test]
fn list_deque_survives_frozen_thread() {
    torture_matrix(
        "list_deque_survives_frozen_thread",
        ListDeque::<Counted, Fis>::new,
        || Kill::Freeze,
        true,
    );
}

#[test]
fn list_deque_survives_panicked_thread() {
    torture_matrix(
        "list_deque_survives_panicked_thread",
        ListDeque::<Counted, Fis>::new,
        || Kill::Panic,
        true,
    );
}

#[test]
fn dummy_list_deque_survives_frozen_thread() {
    torture_matrix(
        "dummy_list_deque_survives_frozen_thread",
        DummyListDeque::<Counted, Fis>::new,
        || Kill::Freeze,
        // Per-element default batch loops: not kill-attributable.
        false,
    );
}

#[test]
fn dummy_list_deque_survives_panicked_thread() {
    torture_matrix(
        "dummy_list_deque_survives_panicked_thread",
        DummyListDeque::<Counted, Fis>::new,
        || Kill::Panic,
        false,
    );
}

/// No kill: all four threads armed with heavy spurious failures and
/// bounded stalls. Everything must still terminate and conserve — the
/// bounded-adversity baseline of the matrix, run on the list deque.
#[test]
fn list_deque_survives_stall_chaos() {
    let test = "list_deque_survives_stall_chaos";
    let seed = torture_seed(test);
    let live = Arc::new(AtomicI64::new(0));
    let deque = Arc::new(ListDeque::<Counted, Fis>::new());
    let pushed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let popped: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let watchdog = Watchdog::arm(test, seed, Duration::from_secs(120));

    std::thread::scope(|s| {
        for tid in 0u64..4 {
            let deque = Arc::clone(&deque);
            let live = Arc::clone(&live);
            let pushed = Arc::clone(&pushed);
            let popped = Arc::clone(&popped);
            let plan = FaultPlan::new(seed).spurious(120).stalls(120, 400);
            s.spawn(move || {
                let _guard = fault::arm(&plan, tid);
                let mut rng = seed ^ (tid << 8);
                let mut counter = 0u64;
                let mut my_pushed = Vec::new();
                let mut my_popped = Vec::new();
                for _ in 0..2_000 {
                    one_op(
                        &*deque,
                        &mut rng,
                        tid,
                        &mut counter,
                        &live,
                        &mut my_pushed,
                        &mut my_popped,
                        true,
                    );
                }
                pushed.lock().unwrap().extend(my_pushed);
                popped.lock().unwrap().extend(my_popped);
            });
        }
    });

    let mut drained = Vec::new();
    while let Some(c) = deque.pop_left() {
        drained.push(c.v);
    }
    let pushed = pushed.lock().unwrap();
    let popped = popped.lock().unwrap();
    let mut seen: HashSet<u64> = HashSet::new();
    for &v in popped.iter().chain(drained.iter()) {
        assert!(seen.insert(v), "value {v:#x} popped twice");
    }
    let expect: HashSet<u64> = pushed.iter().copied().collect();
    assert_eq!(seen, expect, "conservation violated under stall chaos");
    drop(drained);
    let deque = Arc::try_unwrap(deque).unwrap_or_else(|_| panic!("deque still shared"));
    drop(deque);
    assert_eq!(live.load(Ordering::SeqCst), 0, "leak under stall chaos");
    watchdog.disarm();
}

/// The motivating application under fire: a work-stealing run where a
/// randomly chosen subset of tasks panic. Each panic kills its worker,
/// but the dead workers' deques stay stealable, so the survivors finish
/// every non-panicking task.
#[test]
fn workstealing_scheduler_survives_dead_workers() {
    use dcas_deques::workstealing::{ListWorkDeque, Scheduler};

    let test = "workstealing_scheduler_survives_dead_workers";
    let base = torture_seed(test);
    let watchdog = Watchdog::arm(test, base, Duration::from_secs(120));

    for round in 0u64..4 {
        let mut seed = base ^ round;
        splitmix64(&mut seed);
        // 3 panicking tasks among 4 workers: at least one worker
        // survives to drain everything.
        let doomed: Vec<u64> = {
            let mut s = seed;
            let mut d = HashSet::new();
            while d.len() < 3 {
                d.insert(splitmix64(&mut s) % 4_000);
            }
            d.into_iter().collect()
        };
        let completed = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(4);
        let c = Arc::clone(&completed);
        let doomed2 = doomed.clone();
        let report = sched.run_report(move |w| {
            for i in 0..4_000u64 {
                let c = Arc::clone(&c);
                let die = doomed2.contains(&i);
                w.spawn(move |_| {
                    if die {
                        panic!("torture task kill");
                    }
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(report.panics, 3, "round {round}: wrong panic count");
        assert_eq!(report.dropped, 0, "round {round}: survivors dropped work");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            4_000 - 3,
            "round {round}: lost tasks"
        );
    }
    watchdog.disarm();
}

// ---------------------------------------------------------------------
// Mid-spill kills: the tiered deque's staged-chunk window
// ---------------------------------------------------------------------

/// Kills the owner of a [`TieredDeque`] *between* the private-tier drain
/// and the shared-level publish — the `SpillStaged` fault point, where a
/// batch of values lives only in the owner's staging buffer. The
/// death-flush (`flush_local`, what the scheduler's `abandon` runs on a
/// poisoned worker) must publish the partial chunk, and conservation
/// must be exact to the element.
fn tiered_mid_spill_run(label: &str, seed: u64, with_thief: bool, skip_spills: u64) {
    use dcas_deques::workstealing::{TieredDeque, RING_CAP};

    let live = Arc::new(AtomicI64::new(0));
    let deque: Arc<TieredDeque<Counted, ListDeque<Counted>>> =
        Arc::new(TieredDeque::new(ListDeque::new()));
    let watchdog = Watchdog::arm(label, seed, Duration::from_secs(120));

    let stop = Arc::new(AtomicBool::new(false));
    let pushed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let stolen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|s| {
        if with_thief {
            let deque = Arc::clone(&deque);
            let stop = Arc::clone(&stop);
            let stolen = Arc::clone(&stolen);
            s.spawn(move || {
                let mut haul = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    for c in deque.steal_half() {
                        haul.push(c.v);
                    }
                    std::hint::spin_loop();
                }
                stolen.lock().unwrap().extend(haul);
            });
        }

        // Owner: armed to die inside a spill's staging window after
        // surviving `skip_spills` earlier spills.
        let deque2 = Arc::clone(&deque);
        let live2 = Arc::clone(&live);
        let pushed2 = Arc::clone(&pushed);
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            let plan =
                FaultPlan::new(seed).kill(FaultPoint::SpillStaged, skip_spills, KillKind::Panic);
            let guard = fault::arm(&plan, 0);
            let log = guard.log();
            let mut my_pushed = Vec::new();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                for v in 0..(6 * RING_CAP as u64) {
                    // Recorded *before* the call: `push` inserts into the
                    // private tier before it spills, so a value entering
                    // `push` is conserved even when the spill kills us.
                    my_pushed.push(v);
                    let _ = deque2.push(Counted::new(v, &live2));
                }
            }));
            assert!(outcome.is_err(), "{}: owner was never killed", "mid-spill");
            assert!(log.is_panicked(), "wrong kill kind delivered");
            // Death-flush, exactly as the scheduler's `abandon` would:
            // publishes the staged chunk and the private tier remnant.
            let rejects = deque2.flush_local();
            assert!(rejects.is_empty(), "unbounded shared level rejected values");
            stop2.store(true, Ordering::Release);
            pushed2.lock().unwrap().extend(my_pushed);
        });
    });

    // Everything the owner accepted must now be visible in the shared
    // level (or already in the thief's haul) — exactly once each.
    let mut drained = Vec::new();
    while let Some(c) = deque.shared().pop_left() {
        drained.push(c.v);
    }
    let pushed = pushed.lock().unwrap();
    let stolen = stolen.lock().unwrap();
    let mut seen: HashSet<u64> = HashSet::with_capacity(pushed.len());
    for &v in stolen.iter().chain(drained.iter()) {
        assert!(seen.insert(v), "{label}: value {v} surfaced twice");
    }
    let expect: HashSet<u64> = pushed.iter().copied().collect();
    assert_eq!(
        seen,
        expect,
        "{label}: mid-spill conservation violated ({} in, {} out)",
        expect.len(),
        seen.len()
    );

    let deque = Arc::try_unwrap(deque).unwrap_or_else(|_| panic!("{label}: deque still shared"));
    drop(deque);
    assert_eq!(live.load(Ordering::SeqCst), 0, "{label}: leak after mid-spill kill");
    watchdog.disarm();
}

#[test]
fn tiered_chaselev_mid_spill_kill_conserves_values() {
    let test = "tiered_chaselev_mid_spill_kill_conserves_values";
    let seed = torture_seed(test);
    // A live thief steals from both levels while the owner dies
    // mid-spill: the staged chunk is invisible to the thief (owner
    // private), so the flush must still deliver it. Kill on the *first*
    // spill — the tier only restocks an empty shared level, so later
    // spills depend on thief timing, but the first (shared level starts
    // empty) always fires.
    tiered_mid_spill_run(test, seed, true, 0);
}

/// The same window under the real scheduler: a worker dies *inside* a
/// spill (tasks parked in the staging buffer), and the poisoned-worker
/// death-flush must hand every already-spawned task to the survivors.
#[test]
fn tiered_scheduler_survives_mid_spill_kill() {
    use dcas_deques::workstealing::{Scheduler, TieredChaseLevWorkDeque};

    let test = "tiered_scheduler_survives_mid_spill_kill";
    let base = torture_seed(test);
    let watchdog = Watchdog::arm(test, base, Duration::from_secs(120));

    for round in 0u64..3 {
        let mut seed = base ^ round;
        splitmix64(&mut seed);
        let attempted = Arc::new(AtomicU64::new(0));
        let completed = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<TieredChaseLevWorkDeque> = Scheduler::new(4);
        let (a, c) = (Arc::clone(&attempted), Arc::clone(&completed));
        let report = sched.run_report(move |w| {
            // Park the three other workers in gate tasks first. Thieves
            // may steal straight from the Chase–Lev tier, so with them
            // running the tier can stay under RING_CAP for the whole
            // burst and no spill fires. Gated, they cannot steal: the
            // 33rd spawn deterministically overflows the tier into the
            // empty shared level, and the kill lands in that first
            // spill. The gates open when the root unwinds, so the
            // survivors race the dying worker's death-flush.
            let running = Arc::new(AtomicU64::new(0));
            let open = Arc::new(AtomicBool::new(false));
            for _ in 0..3 {
                let (running, open) = (Arc::clone(&running), Arc::clone(&open));
                w.spawn(move |_| {
                    running.fetch_add(1, Ordering::AcqRel);
                    while !open.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                });
            }
            while running.load(Ordering::Acquire) < 3 {
                std::thread::yield_now();
            }
            struct OpenOnDrop(Arc<AtomicBool>);
            impl Drop for OpenOnDrop {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let _gates = OpenOnDrop(open);
            // Arm on this worker's thread and leak the guard so the plan
            // outlives the root task.
            let plan = FaultPlan::new(seed).kill(FaultPoint::SpillStaged, 0, KillKind::Panic);
            std::mem::forget(fault::arm(&plan, 0));
            for _ in 0..4_000u64 {
                // Counted before the spawn: the task enters the private
                // tier before the spill that kills us, so every counted
                // attempt must eventually execute.
                a.fetch_add(1, Ordering::Relaxed);
                let c = Arc::clone(&c);
                w.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            panic!("root must die inside a spill before spawning everything");
        });
        assert_eq!(report.panics, 1, "round {round}: wrong panic count");
        assert_eq!(report.dropped, 0, "round {round}: tasks dropped");
        let a = attempted.load(Ordering::SeqCst);
        let c = completed.load(Ordering::SeqCst);
        assert!(a >= 33, "round {round}: kill fired before the first spill?");
        assert!(a < 4_000, "round {round}: kill never fired");
        assert_eq!(c, a, "round {round}: spawned tasks lost in the staging window");
    }
    watchdog.disarm();
}

// ---------------------------------------------------------------------
// Reclamation-backend matrix: the same kill torture under hazard
// pointers
// ---------------------------------------------------------------------

/// The fault-injecting strategy over the hazard-pointer-reclaimed MCAS.
type FisH = FaultInjecting<dcas::HarrisMcasHazard>;

#[test]
fn list_deque_survives_panicked_thread_hazard_reclaim() {
    // Same panic-kill matrix as the epoch-backed run: the victim's
    // post-unwind op and the drop-count leak audit must hold regardless
    // of which backend retires the nodes.
    torture_matrix(
        "list_deque_survives_panicked_thread_hazard_reclaim",
        ListDeque::<Counted, FisH>::new,
        || Kill::Panic,
        true,
    );
}

#[test]
fn list_deque_survives_frozen_thread_hazard_reclaim() {
    // A frozen victim parks while holding announced hazard slots; the
    // survivors' scans simply skip whatever it protects, so progress
    // and conservation are unaffected (the bounded-garbage claim for
    // this scenario is measured separately in reclaim_torture.rs).
    torture_matrix(
        "list_deque_survives_frozen_thread_hazard_reclaim",
        ListDeque::<Counted, FisH>::new,
        || Kill::Freeze,
        true,
    );
}

#[test]
fn dummy_list_deque_survives_panicked_thread_hazard_reclaim() {
    torture_matrix(
        "dummy_list_deque_survives_panicked_thread_hazard_reclaim",
        DummyListDeque::<Counted, FisH>::new,
        || Kill::Panic,
        // Per-element default batch loops: not kill-attributable.
        false,
    );
}

// ---------------------------------------------------------------------
// The CAS-only competitor: the Sundell–Tsigas deque under the same kill
// matrix, on both reclamation backends
// ---------------------------------------------------------------------
//
// The sundell deque never enters the MCAS protocol (single-word CAS
// only), so the kill lands at the deque's *own* fault hooks: `PreInstall`
// at the top of each push's retry loop, `MidHelping` inside the pop and
// helping loops, `PreRelease` at op exit. Panic kills fire only at
// effect-free hits — before the publish CAS, before a mark CAS, or after
// all side effects — so exact value conservation must survive them; the
// drop-count audit additionally proves the unwound `Pending` node and
// value were freed. Its batches are per-element loops (`atomic_batches`
// false).

#[test]
fn sundell_deque_survives_frozen_thread() {
    torture_matrix(
        "sundell_deque_survives_frozen_thread",
        SundellDeque::<Counted, Fis>::new,
        || Kill::Freeze,
        false,
    );
}

#[test]
fn sundell_deque_survives_panicked_thread() {
    torture_matrix(
        "sundell_deque_survives_panicked_thread",
        SundellDeque::<Counted, Fis>::new,
        || Kill::Panic,
        false,
    );
}

#[test]
fn sundell_deque_survives_frozen_thread_hazard_reclaim() {
    // Freezing mid-traversal parks the victim with hazard slots
    // announced and possibly a link-count reservation held; survivors'
    // scans skip those nodes and every other node keeps being reclaimed
    // (the garbage bound for this scenario is measured in
    // reclaim_torture.rs).
    torture_matrix(
        "sundell_deque_survives_frozen_thread_hazard_reclaim",
        SundellDeque::<Counted, FisH>::new,
        || Kill::Freeze,
        false,
    );
}

#[test]
fn sundell_deque_survives_panicked_thread_hazard_reclaim() {
    torture_matrix(
        "sundell_deque_survives_panicked_thread_hazard_reclaim",
        SundellDeque::<Counted, FisH>::new,
        || Kill::Panic,
        false,
    );
}
