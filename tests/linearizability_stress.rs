//! End-to-end linearizability checking of every deque implementation
//! under every DCAS strategy (Theorems 3.1 / 4.1, tested on the real
//! implementations rather than the models).
//!
//! Each case runs hundreds of short contended rounds, records complete
//! histories, and feeds them to the Wing & Gong checker against the
//! paper's sequential specification. Every case runs under a
//! [`Watchdog`], so a case that stops making progress aborts the run
//! with a dump and a replay line instead of stalling it.

use std::time::Duration;

use dcas::{DcasStrategy, GlobalLock, HarrisMcas, Yielding};
use dcas_deques::baselines::{GreenwaldDeque, MutexDeque};
use dcas_deques::deque::{
    ArrayDeque, ConcurrentDeque, DummyListDeque, LfrcListDeque, ListDeque,
};
use dcas_deques::harness::Watchdog;
use dcas_deques::linearize::{stress_and_check, StressConfig};

/// The seed every case's schedule derives from.
const SEED: u64 = 0xD0C5;

/// How long one case may run before the watchdog aborts it. In a debug
/// build on two cores every case has finished within the suite's first
/// minute.
const DEADLINE: Duration = Duration::from_secs(120);

fn config(capacity: Option<usize>) -> StressConfig {
    StressConfig {
        threads: 4,
        ops_per_thread: 5,
        rounds: 150,
        capacity,
        push_bias: 55,
        seed: SEED,
        max_batch: 0,
    }
}

/// Stress-runs `d` and checks every recorded history, under a watchdog
/// named after the running test (libtest names each test's thread after
/// it), so the abort banner's replay line selects this case.
fn check<D: ConcurrentDeque<u64>>(d: &D, config: StressConfig) {
    let name = std::thread::current().name().unwrap_or("linearizability_stress").to_owned();
    let dog = Watchdog::arm(&name, SEED, DEADLINE);
    let deque = d.impl_name();
    dog.diagnostic("deque", move || deque.to_owned());
    dog.diagnostic("config", move || format!("{config:?}"));
    stress_and_check(d, config).unwrap_or_else(|e| panic!("{name}: {e}"));
    dog.disarm();
}

fn check_array<S: DcasStrategy>() {
    check(&ArrayDeque::<u64, S>::new(4), config(Some(4)));
}

fn check_list<S: DcasStrategy>() {
    check(&ListDeque::<u64, S>::new(), config(None));
}

fn check_dummy_list<S: DcasStrategy>() {
    check(&DummyListDeque::<u64, S>::new(), config(None));
}

fn check_lfrc_list<S: DcasStrategy>() {
    check(&LfrcListDeque::<u64, S>::new(), config(None));
}

fn check_greenwald<S: DcasStrategy>() {
    check(&GreenwaldDeque::<u64, S>::new(4), config(Some(4)));
}

macro_rules! strategy_matrix {
    ($name:ident, $check:ident) => {
        mod $name {
            use super::*;

            #[test]
            fn global_lock() {
                $check::<GlobalLock>();
            }

            #[test]
            fn harris_mcas() {
                $check::<HarrisMcas>();
            }

            #[test]
            fn harris_mcas_with_yield_injection() {
                // Yielding around every DCAS widens race windows,
                // exercising helping paths and (for the list deques) the
                // suspended-between-logical-and-physical-delete states.
                $check::<Yielding<HarrisMcas>>();
            }
        }
    };
}

strategy_matrix!(array_deque, check_array);
strategy_matrix!(list_deque, check_list);
strategy_matrix!(dummy_list_deque, check_dummy_list);
strategy_matrix!(lfrc_list_deque, check_lfrc_list);
strategy_matrix!(greenwald_deque, check_greenwald);

#[test]
fn list_deque_hazard_backend_is_linearizable() {
    // The list deque under the hazard-pointer reclaimer: every DCAS and
    // every neighbour read runs the announce-and-validate protocol
    // mid-history.
    let d: ListDeque<u64, dcas::HarrisMcasHazard> = ListDeque::new();
    check(&d, config(None));
}

#[test]
fn array_capacity_one_boundary_storm() {
    // Capacity 1: every operation is a boundary case.
    let d: ArrayDeque<u64, GlobalLock> = ArrayDeque::new(1);
    check(&d, StressConfig { capacity: Some(1), push_bias: 50, rounds: 200, ..config(Some(1)) });
}

#[test]
fn lock_based_baselines_are_linearizable() {
    let d: MutexDeque<u64> = MutexDeque::bounded(4);
    check(&d, config(Some(4)));
    let d: MutexDeque<u64> = MutexDeque::new();
    check(&d, config(None));
}

#[test]
fn pop_heavy_workload_hits_empty_paths() {
    let d: ListDeque<u64, HarrisMcas> = ListDeque::new();
    check(&d, StressConfig { push_bias: 25, rounds: 150, ..config(None) });
}

#[test]
fn push_heavy_workload_hits_full_paths() {
    let d: ArrayDeque<u64, HarrisMcas> = ArrayDeque::new(3);
    check(&d, StressConfig { push_bias: 80, rounds: 150, ..config(Some(3)) });
}

// --- Batched operations (PR 2): one recorded `PushRightN`/`PopLeftN` op
// maps onto exactly one chunk CASN, so the checker proves each batch is a
// single atomic multi-element transition of the Section 2.2 machine.
// Array capacity must be >= max_batch for that one-op-one-chunk mapping
// (`push_right_n` splits batches wider than the capacity into chunks).

#[test]
fn array_deque_batched_ops_linearizable() {
    let d: ArrayDeque<u64, HarrisMcas> = ArrayDeque::new(8);
    check(&d, StressConfig { max_batch: 8, ..config(Some(8)) });
}

#[test]
fn array_deque_batched_ops_linearizable_with_yield_injection() {
    let d: ArrayDeque<u64, Yielding<HarrisMcas>> = ArrayDeque::new(8);
    check(&d, StressConfig { max_batch: 8, ..config(Some(8)) });
}

#[test]
fn array_deque_batched_full_paths_linearizable() {
    // Push-heavy at exactly max_batch capacity: batched pushes routinely
    // hit the all-or-nothing `Full` path mid-history.
    let d: ArrayDeque<u64, HarrisMcas> = ArrayDeque::new(8);
    check(&d, StressConfig { push_bias: 80, max_batch: 8, ..config(Some(8)) });
}

#[test]
fn list_deque_batched_ops_linearizable() {
    let d: ListDeque<u64, HarrisMcas> = ListDeque::new();
    check(&d, StressConfig { max_batch: 8, ..config(None) });
}

#[test]
fn list_deque_batched_ops_linearizable_with_yield_injection() {
    // Yields inside the multi-word CASN suspend batches between their
    // logical and physical effects; helpers must keep them atomic.
    let d: ListDeque<u64, Yielding<HarrisMcas>> = ListDeque::new();
    check(&d, StressConfig { max_batch: 8, ..config(None) });
}
