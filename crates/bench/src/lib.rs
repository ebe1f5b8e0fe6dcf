//! Shared workload drivers for the benchmark harness.
//!
//! Each bench target regenerates one experiment row of `EXPERIMENTS.md`.
//! The drivers here time *contended multithreaded phases* with scoped
//! threads and a barrier, returning the wall-clock duration so Criterion's
//! `iter_custom` can aggregate it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dcas_deque::ConcurrentDeque;

/// Balanced two-end workload: half the threads work the left end, half
/// the right; each does `ops` push/pop pairs. Returns total wall time.
///
/// This is the paper's headline scenario: "uninterrupted concurrent
/// access to both ends of the deque".
pub fn two_end_phase<D: ConcurrentDeque<u64>>(deque: &D, threads: usize, ops: u64) -> Duration {
    assert!(threads >= 2);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let barrier = &barrier;
            let deque = &deque;
            s.spawn(move || {
                barrier.wait();
                if t % 2 == 0 {
                    for i in 0..ops {
                        let _ = deque.push_left(i);
                        if i % 2 == 1 {
                            let _ = deque.pop_left();
                            let _ = deque.pop_left();
                        }
                    }
                } else {
                    for i in 0..ops {
                        let _ = deque.push_right(i);
                        if i % 2 == 1 {
                            let _ = deque.pop_right();
                            let _ = deque.pop_right();
                        }
                    }
                }
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        start.elapsed()
    })
}

/// Boundary churn: the deque oscillates around empty (or around full if
/// pre-filled), so nearly every operation runs the paper's boundary
/// detection.
pub fn boundary_phase<D: ConcurrentDeque<u64>>(deque: &D, threads: usize, ops: u64) -> Duration {
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let barrier = &barrier;
            let deque = &deque;
            s.spawn(move || {
                barrier.wait();
                for i in 0..ops {
                    if (t + i as usize).is_multiple_of(2) {
                        let _ = deque.push_right(i);
                    } else {
                        let _ = deque.pop_left();
                    }
                }
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        start.elapsed()
    })
}

/// Producer/consumer phase with explicit roles, used by the Greenwald
/// comparison: left threads only push/pop left, right threads only
/// push/pop right, so a structure that serializes the two ends shows its
/// bottleneck.
pub fn split_role_phase<D: ConcurrentDeque<u64>>(
    deque: &D,
    pairs: usize,
    ops: u64,
) -> Duration {
    let threads = pairs * 2;
    let barrier = Barrier::new(threads + 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..threads {
            let barrier = &barrier;
            let deque = &deque;
            let stop = &stop;
            s.spawn(move || {
                barrier.wait();
                if t % 2 == 0 {
                    // Left-end worker: push then pop at the left.
                    for i in 0..ops {
                        let _ = deque.push_left(i);
                        let _ = deque.pop_left();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                } else {
                    for i in 0..ops {
                        let _ = deque.push_right(i);
                        let _ = deque.pop_right();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                }
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        start.elapsed()
    })
}

/// Sequential push/pop cycles through a quarter-full deque; measures the
/// uncontended per-op cost including allocation (E5).
pub fn sequential_churn<D: ConcurrentDeque<u64>>(deque: &D, ops: u64) {
    for i in 0..64 {
        let _ = deque.push_right(i);
    }
    for i in 0..ops {
        let _ = deque.push_right(i);
        let _ = deque.pop_left();
    }
    while deque.pop_left().is_some() {}
}
