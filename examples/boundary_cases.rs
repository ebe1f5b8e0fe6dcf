//! The boundary cases that make this paper's algorithms interesting:
//! empty and full detection under contention, plus DCAS cost accounting.
//!
//! Run with `cargo run --release --example boundary_cases`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dcas::{Counting, GlobalLock};
use dcas_deques::deque::array::RawArrayDeque;
use dcas_deques::deque::list::RawListDeque;

fn main() {
    dcas_cost_accounting();
    empty_full_oscillation();
    steal_contest();
}

/// Validate the paper's cost claims by counting DCASes, not cycles.
fn dcas_cost_accounting() {
    println!("=== DCAS cost per operation (uncontended) ===");

    let array = RawArrayDeque::<u32, Counting<GlobalLock>>::new(128);
    for i in 0..100 {
        array.push_right(i).unwrap();
    }
    for _ in 0..100 {
        array.pop_left().unwrap();
    }
    let s = array.strategy().stats();
    println!(
        "array deque: {} ops, {} DCAS attempts ({} successful) -> {:.2} DCAS/op",
        200,
        s.dcas_attempts,
        s.dcas_successes,
        s.dcas_attempts as f64 / 200.0
    );

    // Pop → pop: every pop after the first finds the previous one's
    // physical deletion pending and pays its splice DCAS.
    let list = RawListDeque::<u32, Counting<GlobalLock>>::new();
    for i in 0..100 {
        list.push_right(i).unwrap();
    }
    for _ in 0..100 {
        list.pop_left().unwrap();
    }
    let pops = list.strategy().stats().dcas_attempts;
    println!(
        "list deque, pop -> pop:  {} ops, {} DCAS attempts -> {:.2} DCAS/op",
        200,
        pops,
        pops as f64 / 200.0
    );
    println!(
        "             (the paper, Section 1.2: \"The cost of this splitting \
         technique is an extra DCAS per pop operation.\")"
    );
    // 99 splices + 100 logical deletions + 100 pushes.
    assert_eq!(pops, 299, "pop -> pop pays the deferred splice");

    // Pop → push: each push finds the pop's deletion pending and links
    // its node with the splice DCAS itself, so the splice costs nothing
    // extra.
    let list = RawListDeque::<u32, Counting<GlobalLock>>::new();
    for i in 0..100 {
        list.push_right(i).unwrap();
        assert_eq!(list.pop_right(), Some(i));
    }
    let pushes = list.strategy().stats().dcas_attempts;
    println!(
        "list deque, pop -> push: {} ops, {} DCAS attempts -> {:.2} DCAS/op",
        200,
        pushes,
        pushes as f64 / 200.0
    );
    println!("             (the push's DCAS is also the pending splice)\n");
    assert_eq!(pushes, 200, "pop -> push folds the splice into the push");
}

/// Hammer an almost-always-empty and almost-always-full deque: every
/// operation exercises the boundary detection.
fn empty_full_oscillation() {
    println!("=== Empty/full oscillation under 4 threads ===");
    let d = Arc::new(RawArrayDeque::<u32, GlobalLock>::new(2));
    let pushed = Arc::new(AtomicU64::new(0));
    let popped = Arc::new(AtomicU64::new(0));
    let fulls = Arc::new(AtomicU64::new(0));
    let empties = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for t in 0..4u32 {
            let (d, pushed, popped, fulls, empties) = (
                Arc::clone(&d),
                Arc::clone(&pushed),
                Arc::clone(&popped),
                Arc::clone(&fulls),
                Arc::clone(&empties),
            );
            s.spawn(move || {
                for i in 0..50_000u32 {
                    if (t + i) % 2 == 0 {
                        match if t % 2 == 0 { d.push_right(i) } else { d.push_left(i) } {
                            Ok(()) => pushed.fetch_add(1, Ordering::Relaxed),
                            Err(_) => fulls.fetch_add(1, Ordering::Relaxed),
                        };
                    } else {
                        match if t % 2 == 0 { d.pop_left() } else { d.pop_right() } {
                            Some(_) => popped.fetch_add(1, Ordering::Relaxed),
                            None => empties.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                }
            });
        }
    });

    let mut remaining = 0;
    while d.pop_left().is_some() {
        remaining += 1;
    }
    let (p, q) = (pushed.load(Ordering::SeqCst), popped.load(Ordering::SeqCst));
    println!("pushes ok: {p}, pops ok: {q}, full: {}, empty: {}", fulls.load(Ordering::SeqCst), empties.load(Ordering::SeqCst));
    println!("conservation: pushed - popped = {} == remaining {}", p - q, remaining);
    assert_eq!(p - q, remaining);
    println!();
}

/// Figure 6 live: two threads race to pop the single element, thousands
/// of times; exactly one must win each round.
fn steal_contest() {
    println!("=== Figure 6 live: racing pops for the last element ===");
    let d = Arc::new(RawListDeque::<u32, GlobalLock>::new());
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let mut right_wins = 0u32;
    let mut left_wins = 0u32;

    for round in 0..10_000 {
        d.push_right(round).unwrap();
        let d2 = Arc::clone(&d);
        let b2 = Arc::clone(&barrier);
        let right = std::thread::spawn(move || {
            b2.wait();
            d2.pop_right()
        });
        barrier.wait();
        let left = d.pop_left();
        let right = right.join().unwrap();
        match (left, right) {
            (Some(v), None) | (None, Some(v)) => {
                assert_eq!(v, round);
                if left.is_some() {
                    left_wins += 1;
                } else {
                    right_wins += 1;
                }
            }
            other => panic!("both or neither won round {round}: {other:?}"),
        }
    }
    println!("10000 rounds: popLeft won {left_wins}, popRight won {right_wins}");
    println!("every round had exactly one winner and one 'empty'");
}
