//! The Section 1.1 critique, measured algorithmically (not by wall
//! clock): with threads working strictly on opposite ends of a half-full
//! deque, the paper's array deque performs (nearly) zero failed DCASes,
//! while the Greenwald-style one-word-indices deque — in which every
//! operation CASes the same index register — suffers cross-end
//! interference and must retry.
//!
//! The `Yielding` wrapper forces a scheduler switch around every DCAS,
//! so the interleavings that expose interference occur deterministically
//! even on a single-CPU host (where timing alone would produce almost no
//! overlap).

use std::sync::Barrier;

use dcas::{Counting, GlobalLock, Yielding};
use dcas_deques::baselines::greenwald::RawGreenwaldDeque;
use dcas_deques::deque::array::RawArrayDeque;

const OPS: u64 = 10_000;
const CAP: usize = 1 << 10;

/// Runs one left-end worker and one right-end worker doing push/pop pairs
/// on their own end; returns (dcas_attempts, dcas_successes).
fn run_two_ends<D: Sync>(
    deque: &D,
    push_left: impl Fn(&D, u32) + Sync,
    pop_left: impl Fn(&D) -> Option<u32> + Sync,
    push_right: impl Fn(&D, u32) + Sync,
    pop_right: impl Fn(&D) -> Option<u32> + Sync,
) {
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            barrier.wait();
            for i in 0..OPS as u32 {
                push_left(deque, i);
                pop_left(deque);
            }
        });
        s.spawn(|| {
            barrier.wait();
            for i in 0..OPS as u32 {
                push_right(deque, i);
                pop_right(deque);
            }
        });
    });
}

#[test]
fn cross_end_interference() {
    // Our array deque, half full so the ends never physically meet.
    let ours = RawArrayDeque::<u32, Counting<Yielding<GlobalLock>>>::new(CAP);
    for i in 0..(CAP / 2) as u32 {
        ours.push_right(i).unwrap();
    }
    ours.strategy().reset();
    run_two_ends(
        &ours,
        |d, v| {
            let _ = d.push_left(v);
        },
        |d| d.pop_left(),
        |d, v| {
            let _ = d.push_right(v);
        },
        |d| d.pop_right(),
    );
    let ours_stats = ours.strategy().stats();

    // The Greenwald-style deque under the same workload.
    let gw = RawGreenwaldDeque::<u32, Counting<Yielding<GlobalLock>>>::new(CAP);
    for i in 0..(CAP / 2) as u32 {
        gw.push_right(i).unwrap();
    }
    gw.strategy().reset();
    run_two_ends(
        &gw,
        |d, v| {
            let _ = d.push_left(v);
        },
        |d| d.pop_left(),
        |d, v| {
            let _ = d.push_right(v);
        },
        |d| d.pop_right(),
    );
    let gw_stats = gw.strategy().stats();

    let ours_fail_rate = ours_stats.dcas_failures() as f64 / ours_stats.dcas_attempts as f64;
    let gw_fail_rate = gw_stats.dcas_failures() as f64 / gw_stats.dcas_attempts as f64;
    println!(
        "ours: {} attempts, {:.4}% failed; greenwald: {} attempts, {:.4}% failed",
        ours_stats.dcas_attempts,
        ours_fail_rate * 100.0,
        gw_stats.dcas_attempts,
        gw_fail_rate * 100.0
    );

    // Ours: disjoint ends touch disjoint words — essentially no failures.
    assert!(
        ours_fail_rate < 0.001,
        "unexpected cross-end interference in the paper's deque: {ours_fail_rate}"
    );
    // Greenwald: every op contends on the index register; under two-end
    // load a visible fraction of DCASes must retry.
    assert!(
        gw_fail_rate > ours_fail_rate * 10.0,
        "expected the one-word-indices deque to interfere: ours {ours_fail_rate}, \
         greenwald {gw_fail_rate}"
    );
}

#[test]
fn batched_ops_do_not_interfere_across_ends() {
    // PR 2: the chunk CASN of a batched operation touches one hub word
    // plus k cells at *its own* end, so two threads doing opposite-end
    // batched push/pop pairs on a half-full deque should see essentially
    // no failed CASNs — the same disjointness argument as the
    // single-element case, now over wider atomic footprints.
    const K: usize = 4;
    let ours = RawArrayDeque::<u32, Counting<Yielding<GlobalLock>>>::new(CAP);
    for i in 0..(CAP / 2) as u32 {
        ours.push_right(i).unwrap();
    }
    ours.strategy().reset();
    run_two_ends(
        &ours,
        |d, v| {
            let _ = d.push_left_n((0..K as u32).map(|j| v + j));
        },
        |d| d.pop_left_n(K).into_iter().next(),
        |d, v| {
            let _ = d.push_right_n((0..K as u32).map(|j| v + j));
        },
        |d| d.pop_right_n(K).into_iter().next(),
    );
    let stats = ours.strategy().stats();
    assert!(stats.casn_attempts > 0, "batched ops should go through the CASN primitive");
    let fail_rate = stats.casn_failures() as f64 / stats.casn_attempts as f64;
    println!("batched: {} CASN attempts, {:.4}% failed", stats.casn_attempts, fail_rate * 100.0);
    assert!(
        fail_rate < 0.001,
        "unexpected cross-end interference between batched ops: {fail_rate}"
    );
}
