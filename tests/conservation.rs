//! Large-scale conservation stress: every value pushed is popped exactly
//! once, across all deque implementations, strategies, and thread mixes.
//!
//! Complements the linearizability tests (which keep histories short so
//! the checker stays fast) with much longer runs checking a weaker —
//! but still sharp — global property.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dcas::{GlobalLock, HarrisMcas};
use dcas_deques::baselines::GreenwaldDeque;
use dcas_deques::deque::{ArrayDeque, ConcurrentDeque, DummyListDeque, LfrcListDeque, ListDeque};
use dcas_deques::harness::Watchdog;

/// Arms the shared progress watchdog for one conservation run: if the
/// run wedges (livelock, lost wakeup), the watchdog dumps the per-side
/// progress counters and aborts instead of hanging the test runner.
fn arm_watchdog(
    deque_name: &'static str,
    push_count: &Arc<AtomicU64>,
    pop_count: &Arc<AtomicU64>,
) -> Watchdog {
    let dog = Watchdog::arm(deque_name, 0, Duration::from_secs(180));
    let pushes = Arc::clone(push_count);
    let pops = Arc::clone(pop_count);
    dog.diagnostic("pushes completed", move || {
        pushes.load(Ordering::Relaxed).to_string()
    });
    dog.diagnostic("pops completed", move || {
        pops.load(Ordering::Relaxed).to_string()
    });
    dog
}

/// Pushers feed unique values from both ends while poppers drain both
/// ends; afterwards, the union of popped and remaining values must be
/// exactly the set of successfully pushed values.
fn conservation<D: ConcurrentDeque<u64>>(deque: D, pushers: usize, poppers: usize, per: u64) {
    let deque = Arc::new(deque);
    let done = Arc::new(AtomicBool::new(false));
    let popped: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let pushed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let push_count = Arc::new(AtomicU64::new(0));
    let pop_count = Arc::new(AtomicU64::new(0));
    let watchdog = arm_watchdog(deque.impl_name(), &push_count, &pop_count);

    std::thread::scope(|s| {
        let mut push_handles = Vec::new();
        for p in 0..pushers {
            let deque = Arc::clone(&deque);
            let pushed = Arc::clone(&pushed);
            let push_count = Arc::clone(&push_count);
            push_handles.push(s.spawn(move || {
                let mut mine = Vec::new();
                for i in 0..per {
                    let v = p as u64 * per + i;
                    let res = if v.is_multiple_of(2) { deque.push_right(v) } else { deque.push_left(v) };
                    if res.is_ok() {
                        mine.push(v);
                        push_count.fetch_add(1, Ordering::Relaxed);
                    }
                }
                pushed.lock().unwrap().extend(mine);
            }));
        }
        for _ in 0..poppers {
            let deque = Arc::clone(&deque);
            let done = Arc::clone(&done);
            let popped = Arc::clone(&popped);
            let pop_count = Arc::clone(&pop_count);
            s.spawn(move || {
                let mut mine = Vec::new();
                let mut spin = 0u32;
                loop {
                    let v = if spin.is_multiple_of(2) { deque.pop_left() } else { deque.pop_right() };
                    match v {
                        Some(v) => {
                            mine.push(v);
                            pop_count.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if done.load(Ordering::Acquire) {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                    spin = spin.wrapping_add(1);
                }
                popped.lock().unwrap().extend(mine);
            });
        }
        for h in push_handles {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
    });

    // Drain the residue.
    let mut remaining = Vec::new();
    while let Some(v) = deque.pop_left() {
        remaining.push(v);
    }

    let pushed = pushed.lock().unwrap();
    let popped = popped.lock().unwrap();
    let mut seen: HashSet<u64> = HashSet::with_capacity(pushed.len());
    for &v in popped.iter().chain(remaining.iter()) {
        assert!(seen.insert(v), "{}: value {v} popped twice", deque.impl_name());
    }
    let expect: HashSet<u64> = pushed.iter().copied().collect();
    assert_eq!(
        seen.len(),
        expect.len(),
        "{}: {} values in, {} out",
        deque.impl_name(),
        expect.len(),
        seen.len()
    );
    assert_eq!(seen, expect, "{}: value sets differ", deque.impl_name());
    watchdog.disarm();
}

const PER: u64 = 8_000;

#[test]
fn list_deque_mcas() {
    conservation(ListDeque::<u64, HarrisMcas>::new(), 3, 3, PER);
}

#[test]
fn list_deque_global_lock() {
    conservation(ListDeque::<u64, GlobalLock>::new(), 3, 3, PER);
}

#[test]
fn dummy_list_deque_mcas() {
    conservation(DummyListDeque::<u64, HarrisMcas>::new(), 3, 3, PER);
}

#[test]
fn lfrc_list_deque_mcas() {
    conservation(LfrcListDeque::<u64, HarrisMcas>::new(), 3, 3, PER);
}

#[test]
fn lfrc_list_deque_global_lock() {
    conservation(LfrcListDeque::<u64, GlobalLock>::new(), 3, 3, PER);
}

#[test]
fn array_deque_mcas_large() {
    conservation(ArrayDeque::<u64, HarrisMcas>::new(1 << 16), 3, 3, PER);
}

#[test]
fn array_deque_global_lock_small_capacity() {
    // Tiny capacity: most pushes bounce off "full", so the conservation
    // argument also covers rejected pushes.
    conservation(ArrayDeque::<u64, GlobalLock>::new(8), 3, 3, PER);
}

#[test]
fn greenwald_deque_mcas() {
    conservation(GreenwaldDeque::<u64, HarrisMcas>::new(1 << 12), 2, 2, PER / 2);
}

#[test]
fn single_pusher_single_popper_fifo_like() {
    conservation(ListDeque::<u64, HarrisMcas>::new(), 1, 1, PER * 2);
}

#[test]
fn many_threads_small_array() {
    conservation(ArrayDeque::<u64, HarrisMcas>::new(4), 4, 4, PER / 2);
}

// --- Batched operations (PR 2): same conservation property, but moving
// values through the chunk-CASN batch paths with varying batch widths,
// including partially-accepted pushes on the bounded deque.

/// Like [`conservation`], but pushers submit `push_{left,right}_n`
/// batches of cycling widths and poppers drain with `pop_{left,right}_n`.
/// Rejected tails (bounded deques) are subtracted from the pushed set via
/// the prefix-acceptance contract: `Err(tail)` means exactly
/// `batch.len() - tail.len()` leading values went in.
fn conservation_batched<D: ConcurrentDeque<u64>>(deque: D, pushers: usize, poppers: usize, per: u64) {
    let deque = Arc::new(deque);
    let done = Arc::new(AtomicBool::new(false));
    let popped: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let pushed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let push_count = Arc::new(AtomicU64::new(0));
    let pop_count = Arc::new(AtomicU64::new(0));
    let watchdog = arm_watchdog(deque.impl_name(), &push_count, &pop_count);

    std::thread::scope(|s| {
        let mut push_handles = Vec::new();
        for p in 0..pushers {
            let deque = Arc::clone(&deque);
            let pushed = Arc::clone(&pushed);
            let push_count = Arc::clone(&push_count);
            push_handles.push(s.spawn(move || {
                let mut mine: Vec<u64> = Vec::new();
                let mut i = 0u64;
                let mut width = 1usize;
                while i < per {
                    let k = width.min((per - i) as usize);
                    let batch: Vec<u64> = (0..k as u64).map(|j| p as u64 * per + i + j).collect();
                    let res = if width.is_multiple_of(2) {
                        deque.push_right_n(batch.clone())
                    } else {
                        deque.push_left_n(batch.clone())
                    };
                    let accepted = match res {
                        Ok(()) => k,
                        Err(tail) => k - tail.into_inner().len(),
                    };
                    mine.extend(&batch[..accepted]);
                    push_count.fetch_add(accepted as u64, Ordering::Relaxed);
                    i += k as u64;
                    width = width % 9 + 1; // cycle 1..=9: straddles MAX_BATCH
                }
                pushed.lock().unwrap().extend(mine);
            }));
        }
        for _ in 0..poppers {
            let deque = Arc::clone(&deque);
            let done = Arc::clone(&done);
            let popped = Arc::clone(&popped);
            let pop_count = Arc::clone(&pop_count);
            s.spawn(move || {
                let mut mine: Vec<u64> = Vec::new();
                let mut spin = 0u32;
                loop {
                    let k = (spin % 9 + 1) as usize;
                    let got = if spin.is_multiple_of(2) {
                        deque.pop_left_n(k)
                    } else {
                        deque.pop_right_n(k)
                    };
                    if got.is_empty() {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        std::hint::spin_loop();
                    } else {
                        pop_count.fetch_add(got.len() as u64, Ordering::Relaxed);
                        mine.extend(got);
                    }
                    spin = spin.wrapping_add(1);
                }
                popped.lock().unwrap().extend(mine);
            });
        }
        for h in push_handles {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
    });

    let mut remaining = Vec::new();
    loop {
        let l = deque.pop_left_n(3);
        let r = deque.pop_right_n(3);
        if l.is_empty() && r.is_empty() {
            break;
        }
        remaining.extend(l);
        remaining.extend(r);
    }

    let pushed = pushed.lock().unwrap();
    let popped = popped.lock().unwrap();
    let mut seen: HashSet<u64> = HashSet::with_capacity(pushed.len());
    for &v in popped.iter().chain(remaining.iter()) {
        assert!(seen.insert(v), "{}: value {v} popped twice", deque.impl_name());
    }
    let expect: HashSet<u64> = pushed.iter().copied().collect();
    assert_eq!(seen, expect, "{}: value sets differ", deque.impl_name());
    watchdog.disarm();
}

#[test]
fn batched_list_deque_mcas() {
    conservation_batched(ListDeque::<u64, HarrisMcas>::new(), 3, 3, PER);
}

#[test]
fn batched_list_deque_global_lock() {
    conservation_batched(ListDeque::<u64, GlobalLock>::new(), 3, 3, PER);
}

#[test]
fn batched_array_deque_mcas_large() {
    conservation_batched(ArrayDeque::<u64, HarrisMcas>::new(1 << 16), 3, 3, PER);
}

#[test]
fn batched_array_deque_mcas_small_capacity() {
    // Capacity below the widest batch: chunking clamps to the capacity
    // and pushes are routinely part-accepted.
    conservation_batched(ArrayDeque::<u64, HarrisMcas>::new(6), 3, 3, PER / 2);
}

#[test]
fn batched_pushers_only_then_drain() {
    // No concurrent poppers: everything lands in the deque and the final
    // batched two-end drain must recover the exact pushed set.
    conservation_batched(ListDeque::<u64, HarrisMcas>::new(), 3, 0, PER);
}
