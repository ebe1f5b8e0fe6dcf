//! Record-and-verify: the real deques, traced by [`Recorded`], audited
//! by the real linearizability checker.
//!
//! The model checker (`crates/modelcheck`) proves the paper's
//! linearization-point arguments over abstract machines; this suite
//! closes the loop on the *implementations*. Every test drives one of
//! the four deques from multiple threads through the [`Recorded`]
//! wrapper, then converts the captured per-thread rings into a
//! `dcas-linearize` history and requires it to linearize from the empty
//! deque — windowed at quiescent cuts, so runs of tens of thousands of
//! operations stay checkable.
//!
//! The workload is *pulsed*: threads synchronize on a barrier every few
//! operations. Windowed auditing can only close a window at a real-time
//! point with no operation in flight; a workload that saturates the
//! deque for its whole lifetime has no such point and would force the
//! checker to buffer the entire trace. The per-round record budget keeps
//! every window within the checker's cap.
//!
//! Seeds: `TRACE_SEED=<n> cargo test --test recorded_linearizability`
//! replays any failure exactly (the seed is printed at the start of
//! every test, torture-style). Runs are guarded by the shared
//! [`Watchdog`], with the recorder tail attached: a wedged run aborts
//! showing the last operations of every thread.

#![cfg(feature = "obs")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use dcas_deques::deque::{
    ArrayDeque, ConcurrentDeque, DummyListDeque, LfrcListDeque, ListDeque, MAX_BATCH,
};
use dcas_deques::harness::{trace_seed, Watchdog};
use dcas_deques::linearize::{SeqDeque, WindowedChecker};
use dcas_deques::obs::{audit, completed_history, BatchTracing, OnlineAuditor, Recorded};

/// Checker window cap (the monolithic checker handles ≤ 64 ops; stay
/// under it so every round fits in one window with slack).
const MAX_WINDOW: usize = 48;
/// Barrier pulses per thread count.
const ROUNDS: usize = 60;
/// Trace-ring slots per thread: an upper bound on one thread's records
/// (`MAX_WINDOW` per round is the whole-run budget, split per thread).
const RING_CAPACITY: usize = ROUNDS * MAX_WINDOW;
/// Capacity of the bounded array deque under test (≥ [`MAX_BATCH`], as
/// chunk-atomic recording requires).
const ARRAY_CAPACITY: usize = 16;

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One thread's pulsed op loop. `budget` bounds the *records* (not
/// calls) emitted per round: a per-element-traced batch of `n` counts
/// as `n`, so the whole round — across all threads — fits in one
/// checker window even in the worst case.
fn pulsed_worker<D: ConcurrentDeque<u64>>(
    deque: &Recorded<D>,
    barrier: &Barrier,
    seed: u64,
    tid: u64,
    budget: usize,
    batches: bool,
) {
    let mut rng = seed ^ (tid << 16) ^ 0xA5A5;
    let mut next = tid * 1_000_000;
    let fresh = |n: u64, next: &mut u64| -> Vec<u64> {
        let vals: Vec<u64> = (*next..*next + n).collect();
        *next += n;
        vals
    };
    for _ in 0..ROUNDS {
        barrier.wait();
        let mut used = 0usize;
        while used < budget {
            let die = splitmix64(&mut rng) % if batches { 8 } else { 4 };
            match die {
                0 => {
                    let _ = deque.push_right(fresh(1, &mut next)[0]);
                    used += 1;
                }
                1 => {
                    let _ = deque.push_left(fresh(1, &mut next)[0]);
                    used += 1;
                }
                2 => {
                    let _ = deque.pop_right();
                    used += 1;
                }
                3 => {
                    let _ = deque.pop_left();
                    used += 1;
                }
                die => {
                    let room = (budget - used).min(MAX_BATCH);
                    let n = 1 + (splitmix64(&mut rng) as usize) % room;
                    match die {
                        4 => {
                            let _ = deque.push_right_n(fresh(n as u64, &mut next));
                        }
                        5 => {
                            let _ = deque.push_left_n(fresh(n as u64, &mut next));
                        }
                        6 => {
                            let _ = deque.pop_right_n(n);
                        }
                        _ => {
                            let _ = deque.pop_left_n(n);
                        }
                    }
                    used += n;
                }
            }
        }
    }
}

/// Runs the full {2, 4, 8}-thread matrix for one deque: pulsed recorded
/// workload, then the post-hoc windowed audit from the empty deque.
fn matrix<D, F, I>(test: &str, make: F, initial: I, tracing: BatchTracing, batches: bool)
where
    D: ConcurrentDeque<u64> + 'static,
    F: Fn() -> D,
    I: Fn() -> SeqDeque,
{
    let seed = trace_seed(test);
    let dog = Watchdog::arm_with_seed_var(test, "TRACE_SEED", seed, Duration::from_secs(120));
    for &threads in &[2usize, 4, 8] {
        let deque = Recorded::with_batch_tracing(make(), threads, RING_CAPACITY, tracing);
        dog.attach_recorder(deque.recorder(), 6);
        let budget = (MAX_WINDOW / threads).max(1);
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads as u64 {
                let deque = &deque;
                let barrier = &barrier;
                s.spawn(move || {
                    pulsed_worker(deque, barrier, seed ^ (threads as u64), t, budget, batches)
                });
            }
        });
        let report = audit(deque.recorder(), initial(), MAX_WINDOW).unwrap_or_else(|e| {
            panic!("{test} x{threads} [{}]: audit failed: {e}", deque.inner().impl_name())
        });
        assert!(
            report.window.ops_checked >= threads * ROUNDS,
            "{test} x{threads}: only {} ops recorded",
            report.window.ops_checked
        );
        assert_eq!(report.trace.in_flight_excluded, 0, "{test} x{threads}: ops left in flight");
    }
    dog.disarm();
}

#[test]
fn array_deque_single_ops_linearize() {
    matrix(
        "array_deque_single_ops_linearize",
        || ArrayDeque::<u64>::new(ARRAY_CAPACITY),
        || SeqDeque::bounded(ARRAY_CAPACITY),
        BatchTracing::Atomic,
        false,
    );
}

#[test]
fn array_deque_batched_ops_linearize() {
    // Chunk-atomic CASN batches: traced as single multi-element ops.
    matrix(
        "array_deque_batched_ops_linearize",
        || ArrayDeque::<u64>::new(ARRAY_CAPACITY),
        || SeqDeque::bounded(ARRAY_CAPACITY),
        BatchTracing::Atomic,
        true,
    );
}

#[test]
fn list_deque_single_ops_linearize() {
    matrix(
        "list_deque_single_ops_linearize",
        ListDeque::<u64>::new,
        SeqDeque::unbounded,
        BatchTracing::Atomic,
        false,
    );
}

#[test]
fn list_deque_batched_ops_linearize() {
    matrix(
        "list_deque_batched_ops_linearize",
        ListDeque::<u64>::new,
        SeqDeque::unbounded,
        BatchTracing::Atomic,
        true,
    );
}

#[test]
fn list_deque_hazard_single_ops_linearize() {
    // Same audit with the hazard-pointer reclaimer underneath: the
    // announce-and-validate reads must not perturb linearizability.
    matrix(
        "list_deque_hazard_single_ops_linearize",
        ListDeque::<u64, dcas::HarrisMcasHazard>::new,
        SeqDeque::unbounded,
        BatchTracing::Atomic,
        false,
    );
}

#[test]
fn dummy_list_deque_single_ops_linearize() {
    matrix(
        "dummy_list_deque_single_ops_linearize",
        DummyListDeque::<u64>::new,
        SeqDeque::unbounded,
        BatchTracing::PerElement,
        false,
    );
}

#[test]
fn dummy_list_deque_batched_ops_linearize() {
    // The dummy-node deque inherits the per-element batch loops, so its
    // batches are traced element-by-element — each element a sound
    // single-op record.
    matrix(
        "dummy_list_deque_batched_ops_linearize",
        DummyListDeque::<u64>::new,
        SeqDeque::unbounded,
        BatchTracing::PerElement,
        true,
    );
}

#[test]
fn lfrc_list_deque_single_ops_linearize() {
    matrix(
        "lfrc_list_deque_single_ops_linearize",
        LfrcListDeque::<u64>::new,
        SeqDeque::unbounded,
        BatchTracing::PerElement,
        false,
    );
}

#[test]
fn lfrc_list_deque_batched_ops_linearize() {
    matrix(
        "lfrc_list_deque_batched_ops_linearize",
        LfrcListDeque::<u64>::new,
        SeqDeque::unbounded,
        BatchTracing::PerElement,
        true,
    );
}

/// The online auditor runs *while* the workload does, closing windows
/// as quiescent cuts appear — a violation would surface mid-run.
fn live_audit<D: ConcurrentDeque<u64> + Sync>(test: &str, inner: D, spec: SeqDeque) {
    let seed = trace_seed(test);
    let dog = Watchdog::arm_with_seed_var(test, "TRACE_SEED", seed, Duration::from_secs(120));

    let threads = 4usize;
    let deque = Recorded::with_atomic_batches(inner, threads, RING_CAPACITY);
    dog.attach_recorder(deque.recorder(), 6);
    let budget = MAX_WINDOW / threads;
    let barrier = Barrier::new(threads);
    let done = AtomicBool::new(false);

    let (report, live_windows) = std::thread::scope(|s| {
        let mut workers = Vec::new();
        for t in 0..threads as u64 {
            let deque = &deque;
            let barrier = &barrier;
            workers.push(s.spawn(move || pulsed_worker(deque, barrier, seed, t, budget, true)));
        }
        let auditor = {
            let rec = Arc::clone(deque.recorder());
            let done = &done;
            s.spawn(move || {
                let mut auditor = OnlineAuditor::new(rec, spec, MAX_WINDOW);
                let mut live_windows = 0usize;
                while !done.load(Ordering::Acquire) {
                    let poll = auditor.poll().expect("live trace must stay linearizable");
                    live_windows += poll.windows_checked;
                    std::thread::sleep(Duration::from_micros(300));
                }
                (auditor.finish().expect("final audit must pass"), live_windows)
            })
        };
        for w in workers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        auditor.join().unwrap()
    });

    assert!(
        report.window.ops_checked >= threads * ROUNDS,
        "only {} ops audited",
        report.window.ops_checked
    );
    assert!(report.window.windows > 0, "auditor never closed a window");
    // `live_windows` counts windows closed while workers were still
    // running; on a very fast machine the whole run can land between
    // two polls, so it is reported but not asserted.
    eprintln!("{test}: {live_windows} windows closed live, {} total", report.window.windows);
    dog.disarm();
}

#[test]
fn online_auditor_follows_a_live_run() {
    live_audit(
        "online_auditor_follows_a_live_run",
        ArrayDeque::<u64>::new(ARRAY_CAPACITY),
        SeqDeque::bounded(ARRAY_CAPACITY),
    );
}

/// The unbounded list deque: windows close live while pushes and pops
/// race the deferred splices at both ends.
#[test]
fn online_auditor_follows_a_live_list_run() {
    live_audit(
        "online_auditor_follows_a_live_list_run",
        ListDeque::<u64>::new(),
        SeqDeque::unbounded(),
    );
}

/// The negative control demanded of any checker: record a *real* trace,
/// corrupt it (swap the values two pops returned), and require the
/// auditor to reject it. A checker that passes everything would sail
/// through the whole matrix above — this proves it has teeth.
#[test]
fn corrupted_recorded_trace_is_rejected() {
    use dcas_deques::linearize::DequeRet;

    let test = "corrupted_recorded_trace_is_rejected";
    let seed = trace_seed(test);
    let dog = Watchdog::arm_with_seed_var(test, "TRACE_SEED", seed, Duration::from_secs(120));

    // Two threads, FIFO discipline (pushRight / popLeft) so element
    // order is fully constrained — any value swap is a violation.
    let threads = 2usize;
    let deque = Recorded::with_atomic_batches(ArrayDeque::<u64>::new(64), threads, RING_CAPACITY);
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        // Thread 0 pushes 0..200 rightward; thread 1 pops leftward.
        {
            let deque = &deque;
            let barrier = &barrier;
            s.spawn(move || {
                for v in 0..200u64 {
                    barrier.wait();
                    deque.push_right(v).unwrap();
                }
            });
        }
        {
            let deque = &deque;
            let barrier = &barrier;
            s.spawn(move || {
                for _ in 0..200 {
                    barrier.wait();
                    let _ = deque.pop_left();
                }
            });
        }
    });

    let (ops, _) = completed_history(deque.recorder()).expect("trace must extract");

    // The untampered trace passes.
    let mut clean = WindowedChecker::new(SeqDeque::bounded(64), MAX_WINDOW);
    clean.feed(ops.clone());
    clean.finish().expect("the real trace must linearize");

    // Swap the values of the first two value-returning pops.
    let mut tampered = ops;
    let value_pops: Vec<usize> = tampered
        .iter()
        .enumerate()
        .filter_map(|(i, c)| match c.ret {
            DequeRet::Value(_) => Some(i),
            _ => None,
        })
        .collect();
    assert!(value_pops.len() >= 2, "workload produced too few successful pops");
    let (a, b) = (value_pops[0], value_pops[1]);
    let (ra, rb) = (tampered[a].ret, tampered[b].ret);
    assert_ne!(ra, rb, "swap must change the history");
    tampered[a].ret = rb;
    tampered[b].ret = ra;

    let mut checker = WindowedChecker::new(SeqDeque::bounded(64), MAX_WINDOW);
    checker.feed(tampered);
    checker
        .finish()
        .expect_err("value-swapped trace must be rejected");
    dog.disarm();
}
