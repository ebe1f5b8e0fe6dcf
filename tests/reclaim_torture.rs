//! Bounded-garbage audit under a frozen thread: the observable
//! difference between the two reclamation backends.
//!
//! Both arms run the same scenario: a victim thread is frozen
//! mid-operation (parked on a [`StallGate`] at the `PreInstall` fault
//! point, like a descheduled processor) while worker threads churn a
//! linked-list deque, retiring one node per pop plus the descriptors
//! behind every CASN.
//!
//! * **Epoch arm** — the victim froze while *pinned*, so the global
//!   epoch can never advance past it. Every retire after the freeze
//!   stays deferred: live garbage grows linearly with the op count
//!   (sampled at two checkpoints), and the shim's
//!   `stalled_collections` diagnostic counter rises as collections
//!   keep failing against a full queue.
//! * **Hazard arm** — the frozen victim holds at most its own
//!   announced hazard slots. Scans by the survivors skip only those
//!   entries, so the high-water mark of live garbage stays under the
//!   **static** bound `registered_records × (SCAN_THRESHOLD + SLOTS ×
//!   (1 + MAX_CASN_WORDS))` no matter how many operations run.
//!
//! * **Epoch quiescent arm** — the victim blocks *between* operations,
//!   unpinned, holding no guard. Nothing stops the epoch, so pool-page
//!   growth under the churn must stay under a static bound: a blocked
//!   thread that is not inside an operation must not hold memory.
//!
//! The arms share one `#[test]` because the epoch state, the garbage
//! gauges and the pool-page gauges are process-global: the epoch arm
//! must release its frozen pin and flush before the hazard arm starts
//! measuring. The first two arms' curves and the page audits were
//! recorded as data by the E15 and E17 harnesses (EXPERIMENTS.md §E15
//! and §E17; `BENCH_e15.json` and `BENCH_e17.json` at commit
//! `2720b06`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dcas::fault::{self};
use dcas::{
    EpochReclaimer, FaultInjecting, FaultPlan, FaultPoint, HarrisMcas, HarrisMcasHazard,
    HazardReclaimer, KillKind, Reclaimer, StallGate,
};
use dcas_deques::deque::{ConcurrentDeque, ListDeque};
use dcas_deques::harness::{torture_seed, Watchdog};

/// Worker threads churning the deque while the victim is frozen.
const WORKERS: u64 = 3;
/// Push+pop pairs per worker between the two epoch-arm checkpoints.
const CHECKPOINT_OPS: u64 = 2_000;
/// Rounds of push+pop pairs per worker in the epoch quiescent arm.
const QUIESCENT_ROUNDS: u64 = 6;
const QUIESCENT_OPS_PER_ROUND: u64 = 8_000;
/// Static allowance, in nodes, for garbage the epoch backend may hold
/// between collections while nobody is frozen-pinned (per-thread
/// deferred queues plus collect lag).
const EPOCH_ALLOWANCE_NODES: u64 = 16_384;

/// Freezes a victim mid-operation on `deque` (at the `PreInstall` fault
/// point, inside the MCAS protocol), runs `rounds ×
/// CHECKPOINT_OPS` push/pop pairs per worker, sampling `garbage()` after
/// each round. Returns the samples. The victim is released and joined
/// before the function returns.
fn frozen_victim_churn<D>(
    label: &str,
    deque: &Arc<D>,
    seed: u64,
    rounds: usize,
    garbage: fn() -> u64,
) -> Vec<u64>
where
    D: ConcurrentDeque<u64> + 'static,
{
    let gate = StallGate::new();
    let plan = FaultPlan::new(seed).kill(
        FaultPoint::PreInstall,
        3,
        KillKind::Freeze(Arc::clone(&gate)),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let mut samples = Vec::with_capacity(rounds);

    std::thread::scope(|s| {
        // Victim: churns until the freeze lands mid-operation.
        let (tx, rx) = std::sync::mpsc::channel();
        let victim = {
            let deque = Arc::clone(deque);
            let stop = Arc::clone(&stop);
            let plan = plan.clone();
            s.spawn(move || {
                let guard = fault::arm(&plan, 0);
                let log = guard.log();
                tx.send(Arc::clone(&log)).unwrap();
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    deque.push_right(i << 3).unwrap();
                    deque.pop_left();
                    i += 1;
                }
                log
            })
        };

        // Wait for the kill to land before measuring anything.
        let log = rx.recv().unwrap();
        while !log.is_killed() {
            std::hint::spin_loop();
        }

        // Churn workers: all retirement traffic happens with the
        // victim frozen.
        let mut handles = Vec::new();
        let done_rounds = Arc::new(std::sync::Barrier::new(WORKERS as usize + 1));
        for t in 1..=WORKERS {
            let deque = Arc::clone(deque);
            let barrier = Arc::clone(&done_rounds);
            handles.push(s.spawn(move || {
                let mut i = 0u64;
                for _ in 0..rounds {
                    for _ in 0..CHECKPOINT_OPS {
                        deque.push_right((t << 48) | (i << 3)).unwrap();
                        deque.pop_left();
                        i += 1;
                    }
                    barrier.wait();
                    // Main samples the gauge here.
                    barrier.wait();
                }
            }));
        }
        for _ in 0..rounds {
            done_rounds.wait();
            samples.push(garbage());
            done_rounds.wait();
        }
        for h in handles {
            h.join().unwrap();
        }

        // Tear down: release the frozen victim so it can finish its
        // interrupted operation and exit.
        stop.store(true, Ordering::Release);
        gate.release();
        let log = victim.join().unwrap();
        assert!(log.is_frozen(), "{label}: victim was never frozen");
    });
    samples
}

/// Churns a pooled list deque with `WORKERS` threads while a victim that
/// did 512 push/pop pairs first sits blocked *between* operations —
/// unpinned, holding no guard. Returns the list pool's page growth over
/// the churn.
fn quiescent_victim_churn() -> u64 {
    let pool = dcas_deques::deque::list::node_pool();
    let pages_before = pool.pages_allocated();
    let deque: Arc<ListDeque<u64, HarrisMcas>> = Arc::new(ListDeque::new());
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let frozen = Arc::new(AtomicBool::new(false));
        {
            let deque = Arc::clone(&deque);
            let frozen = Arc::clone(&frozen);
            s.spawn(move || {
                for i in 0..512u64 {
                    deque.push_right(i << 3).unwrap();
                    deque.pop_left();
                }
                frozen.store(true, Ordering::Release);
                let _ = release_rx.recv();
            });
        }
        while !frozen.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let workers: Vec<_> = (1..=WORKERS)
            .map(|t| {
                let deque = Arc::clone(&deque);
                s.spawn(move || {
                    for i in 0..QUIESCENT_ROUNDS * QUIESCENT_OPS_PER_ROUND {
                        deque.push_right((t << 48) | (i << 3)).unwrap();
                        deque.pop_left();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        release_tx.send(()).unwrap();
    });
    pool.pages_allocated() - pages_before
}

/// Page allowance on top of a garbage bound: each participating thread
/// (workers, victim, main) can strand a partially-used page in its
/// local cache or carve window, plus fixed slack for batch granularity.
fn pages_bound(garbage_nodes: u64) -> u64 {
    let per_page = dcas_deques::deque::list::node_pool().nodes_per_page();
    garbage_nodes.div_ceil(per_page) + (WORKERS + 2) * 2 + 8
}

#[test]
fn reclaim_frozen_victim_epoch_grows_hazard_bounded() {
    let test = "reclaim_frozen_victim_epoch_grows_hazard_bounded";
    let seed = torture_seed(test);
    let watchdog = Watchdog::arm(test, seed, Duration::from_secs(240));

    // Pool-page gauges for the allocator-facing claims below. Pages are
    // never unmapped, so `pages_allocated` is a live-memory high-water
    // mark; `nodes_outstanding` is the alloc/free balance.
    let pages_start = dcas::alloc::pages_allocated();
    let outstanding_start = dcas::alloc::nodes_outstanding();

    // ---------------- Epoch arm ----------------
    let stalled_before = EpochReclaimer::stalled_collections();
    let epoch_deque: Arc<ListDeque<u64, FaultInjecting<HarrisMcas>>> = Arc::new(ListDeque::new());
    let samples = frozen_victim_churn("epoch arm", &epoch_deque, seed, 4, || {
        EpochReclaimer::live_garbage()
    });
    let (first, last) = (samples[0], *samples.last().unwrap());
    // Linear growth: 4x the ops must hold at least ~3x the garbage of
    // the first checkpoint (exact linearity is blurred by per-thread
    // queues, so leave slack — the point is unbounded growth).
    assert!(
        last >= first.saturating_mul(2),
        "epoch arm: garbage did not grow with op count under a frozen pin \
         (samples: {samples:?})"
    );
    // ... and past the hazard backend's *static* bound, so the two
    // arms are not just different constants.
    assert!(
        last > dcas::reclaim::hazard::static_garbage_bound(),
        "epoch arm: garbage {last} never exceeded the hazard static bound \
         {} — churn too small to discriminate",
        dcas::reclaim::hazard::static_garbage_bound()
    );
    // The shim noticed it was spinning its wheels.
    assert!(
        EpochReclaimer::stalled_collections() > stalled_before,
        "epoch arm: stalled_collections never fired with a stuck epoch"
    );
    // Unbounded epoch garbage is unbounded *pages*: the nodes the stuck
    // pin kept live could not be recycled, so the pool had to grow.
    assert!(
        dcas::alloc::pages_allocated() > pages_start,
        "epoch arm: frozen pin held garbage but pool pages never grew \
         (pages {pages_start} -> {})",
        dcas::alloc::pages_allocated()
    );
    // The victim is unfrozen now: repeated flushes age everything out.
    for _ in 0..6 {
        EpochReclaimer::flush();
    }
    drop(epoch_deque);

    // ---------------- Hazard arm ----------------
    // Bounded hazard garbage must translate into bounded pool-page
    // growth — and the epoch arm's flushed pages must be recycled, not
    // leaked, so the hazard arm's growth stays under the static bound.
    let pages_before_hazard = dcas::alloc::pages_allocated();
    let hazard_deque: Arc<ListDeque<u64, FaultInjecting<HarrisMcasHazard>>> =
        Arc::new(ListDeque::new());
    let samples = frozen_victim_churn("hazard arm", &hazard_deque, seed ^ 0xA5A5, 4, || {
        HazardReclaimer::live_garbage()
    });
    // The bound is computed *after* the run, when every record the run
    // registered is counted.
    let bound = dcas::reclaim::hazard::static_garbage_bound();
    let hwm = HazardReclaimer::garbage_high_water();
    assert!(
        hwm <= bound,
        "hazard arm: high-water {hwm} exceeded the static bound {bound} \
         (samples: {samples:?})"
    );
    // Every per-round sample individually respects the bound too.
    for (i, &g) in samples.iter().enumerate() {
        assert!(
            g <= bound,
            "hazard arm: round {i} garbage {g} over bound {bound}"
        );
    }
    HazardReclaimer::flush();
    assert!(
        HazardReclaimer::live_garbage() <= bound,
        "hazard arm: post-flush garbage over bound"
    );
    let hazard_pages_grown = dcas::alloc::pages_allocated() - pages_before_hazard;
    assert!(
        hazard_pages_grown <= pages_bound(bound),
        "hazard arm: pool grew {hazard_pages_grown} pages under a frozen \
         victim, over the {} page bound — recycled epoch-arm pages were \
         not reused",
        pages_bound(bound)
    );

    // ---------------- Epoch quiescent arm ----------------
    // A victim blocked *between* operations holds no pin, so the epoch
    // keeps advancing and retired nodes keep recycling: the list pool
    // grows by at most the epoch allowance in pages, however long the
    // churn. Earlier arms pre-grew the pool, so this is the
    // steady-state increment.
    let quiescent_pages_grown = quiescent_victim_churn();
    assert!(
        quiescent_pages_grown <= pages_bound(EPOCH_ALLOWANCE_NODES),
        "epoch quiescent arm: pool grew {quiescent_pages_grown} pages with an \
         unpinned victim, over the {} page bound",
        pages_bound(EPOCH_ALLOWANCE_NODES)
    );

    // ---------------- Alloc/free balance ----------------
    // With every deque dropped and both backends flushed, every node
    // the whole test churned must be back in the pool: outstanding
    // returns to the baseline (small slack for deferred-queue
    // stragglers another thread sealed but nothing ever collected).
    drop(hazard_deque);
    for _ in 0..6 {
        EpochReclaimer::flush();
        HazardReclaimer::flush();
    }
    let outstanding_end = dcas::alloc::nodes_outstanding();
    assert!(
        outstanding_end <= outstanding_start + 256,
        "alloc balance: {outstanding_end} nodes still outstanding after \
         teardown (started at {outstanding_start}) — pooled frees were lost"
    );
    watchdog.disarm();
}
