//! Record-and-verify for the two-level scheduler deque: every transfer
//! between a [`TieredDeque`]'s private Chase–Lev tier and its shared
//! level is traced by [`Recorded`] and audited for linearizability.
//!
//! The tiered deque's correctness story is that all inter-thread
//! traffic either crosses the paper's linearizable deque in
//! chunk-atomic batches or is a Chase–Lev steal from the tier's top.
//! This suite checks the first half of that boundary: the shared level
//! is a `Recorded<ListDeque<u64>>`, so the captured history is
//! precisely the spill (`push_right_n`), refill (`pop_right_n`), and
//! steal (`pop_left_n`) batches, and the windowed checker requires them
//! to linearize from the empty deque. Thieves also steal straight from
//! the owner's tier — traffic the recorder does not see, by design, as
//! it is not shared-level traffic — so conservation is verified
//! end-to-end at the element level over both exits combined.
//!
//! The workload is pulsed on a barrier (like `recorded_linearizability`)
//! so the audit finds quiescent cuts: one owner thread pushes and pops
//! through the tier while thief threads run `steal_half` — the
//! scheduler's exact access pattern.

#![cfg(feature = "obs")]

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::time::Duration;

use dcas_deques::deque::ListDeque;
use dcas_deques::harness::{trace_seed, Watchdog};
use dcas_deques::linearize::SeqDeque;
use dcas_deques::obs::{audit, Recorded};
use dcas_deques::workstealing::{TieredDeque, RING_CAP};

/// Checker window cap (matches `recorded_linearizability`).
const MAX_WINDOW: usize = 48;
/// Barrier pulses.
const ROUNDS: usize = 40;
/// Trace-ring slots per thread.
const RING_CAPACITY: usize = ROUNDS * MAX_WINDOW;

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn run_tiered_recorded(test: &str) {
    let seed = trace_seed(test);
    let dog = Watchdog::arm_with_seed_var(test, "TRACE_SEED", seed, Duration::from_secs(120));
    for &thieves in &[1usize, 3] {
        let threads = thieves + 1;
        let shared: Recorded<ListDeque<u64>> =
            Recorded::with_atomic_batches(ListDeque::new(), threads, RING_CAPACITY);
        dog.attach_recorder(shared.recorder(), 6);
        let tiered = TieredDeque::new(shared);
        let barrier = Barrier::new(threads);
        // Every value each thread removed, for end-to-end conservation.
        let taken: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let mut pushed = 0u64;

        std::thread::scope(|s| {
            // Thieves: steal_half pulses against both levels.
            for t in 0..thieves as u64 {
                let (tiered, barrier, taken) = (&tiered, &barrier, &taken);
                s.spawn(move || {
                    let mut rng = seed ^ (t << 24) ^ 0x7EEF;
                    let mut got = Vec::new();
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        for _ in 0..1 + splitmix64(&mut rng) % 3 {
                            got.extend(tiered.steal_half());
                        }
                        barrier.wait();
                    }
                    taken.lock().unwrap().extend(got);
                });
            }
            // Owner: pushes bursts (spilling past RING_CAP whenever the
            // shared level is empty) and pops (forcing refills once the
            // tier drains), owner-only by contract. Runs on this scope thread so `pushed` and the
            // final drain need no extra synchronisation.
            let mut rng = seed ^ 0xACE5;
            let mut owner_got = Vec::new();
            for _ in 0..ROUNDS {
                barrier.wait();
                let burst = (RING_CAP / 2) + (splitmix64(&mut rng) as usize % RING_CAP);
                for _ in 0..burst {
                    tiered.push(pushed).expect("unbounded shared level");
                    pushed += 1;
                }
                for _ in 0..splitmix64(&mut rng) as usize % burst {
                    owner_got.extend(tiered.pop());
                }
                barrier.wait();
            }
            // Drain: publish the tier, then steal everything back (the
            // owner acting as its own thief keeps the trace shape to
            // shared-level batches only).
            assert!(tiered.flush_local().is_empty());
            loop {
                let chunk = tiered.steal_half();
                if chunk.is_empty() {
                    break;
                }
                owner_got.extend(chunk);
            }
            taken.lock().unwrap().extend(owner_got);
        });

        // Conservation: every pushed value came out exactly once.
        let taken = taken.into_inner().unwrap();
        assert_eq!(taken.len() as u64, pushed, "x{threads}: lost or duplicated elements");
        let distinct: HashSet<u64> = taken.iter().copied().collect();
        assert_eq!(distinct.len() as u64, pushed, "x{threads}: duplicated elements");
        assert!(distinct.iter().all(|&v| v < pushed));

        // Linearizability of the recorded shared-level traffic.
        let report = audit(tiered.shared().recorder(), SeqDeque::unbounded(), MAX_WINDOW)
            .unwrap_or_else(|e| panic!("{test} x{threads}: audit failed: {e}"));
        assert!(
            report.window.ops_checked > 0,
            "x{threads}: no spill/refill/steal traffic recorded"
        );
        assert_eq!(report.trace.in_flight_excluded, 0, "x{threads}: ops left in flight");
    }
    dog.disarm();
}

#[test]
fn tiered_chaselev_spill_refill_and_steals_linearize() {
    run_tiered_recorded("tiered_chaselev_spill_refill_and_steals_linearize");
}
