//! Work-stealing load balancing — the application that motivates deques
//! in the paper's introduction (via Arora–Blumofe–Plaxton).
//!
//! Builds an irregular task tree with the executor's fork-join API:
//! each node forks its children through [`WorkerHandle::join`], which
//! runs one side inline and publishes the other for theft, then *joins*
//! the results — no shared accumulator, no `Arc`; values flow back up
//! the tree like plain function returns. Runs the tree on the tiered
//! Chase–Lev executor (the paper's list deque is its shared level),
//! evaluates the same tree sequentially, and checks that the two agree.
//!
//! Run with `cargo run --release --example work_stealing`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dcas_deques::workstealing::{DynDeque, Scheduler, TieredChaseLevWorkDeque, WorkerHandle};

/// A node's simulated work: a short checksum loop over its seed. The
/// low byte of the result is the node's value, the result mod 3 picks
/// its skewed fan-out (1..=3), so load balancing actually matters, and
/// child `i` is seeded with the result plus `i`.
fn node_work(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..200 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    }
    x
}

/// The tree's checksum on the executor. The forked half's result comes
/// back over the join slot, stolen or not.
fn irregular_tree(w: &WorkerHandle<'_, DynDeque>, depth: u32, seed: u64) -> u64 {
    let x = node_work(seed);
    let leaf = x & 0xFF;
    if depth == 0 {
        return leaf;
    }
    // Two children fork as a pair; a third nests inside the right branch.
    let below = match 1 + x % 3 {
        1 => irregular_tree(w, depth - 1, x),
        2 => {
            let (a, b) = w.join(
                |w| irregular_tree(w, depth - 1, x),
                |w| irregular_tree(w, depth - 1, x.wrapping_add(1)),
            );
            a + b
        }
        _ => {
            let (a, (b, c)) = w.join(
                |w| irregular_tree(w, depth - 1, x),
                |w| {
                    w.join(
                        |w| irregular_tree(w, depth - 1, x.wrapping_add(1)),
                        |w| irregular_tree(w, depth - 1, x.wrapping_add(2)),
                    )
                },
            );
            a + b + c
        }
    };
    leaf + below
}

/// The same tree's checksum, evaluated on one thread.
fn irregular_tree_seq(depth: u32, seed: u64) -> u64 {
    let x = node_work(seed);
    let leaf = x & 0xFF;
    if depth == 0 {
        return leaf;
    }
    leaf + (0..1 + x % 3).map(|i| irregular_tree_seq(depth - 1, x.wrapping_add(i))).sum::<u64>()
}

fn main() {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
    let (depth, seed) = (13, 42);
    println!("fork-join irregular tree, depth {depth}, {workers} workers\n");

    let out = Arc::new(AtomicU64::new(0));
    let sched: Scheduler<TieredChaseLevWorkDeque> = Scheduler::new(workers);
    let root_out = Arc::clone(&out);
    let start = Instant::now();
    let report = sched.run_report(move |w| {
        root_out.store(irregular_tree(w, depth, seed), Ordering::SeqCst);
    });
    let parallel_time = start.elapsed();
    let parallel = out.load(Ordering::SeqCst);
    assert_eq!((report.panics, report.dropped), (0, 0), "no task may panic or be dropped");

    let start = Instant::now();
    let sequential = irregular_tree_seq(depth, seed);
    let sequential_time = start.elapsed();

    println!("{:<16} {:>12} {:>14}", "evaluation", "checksum", "wall time");
    println!("{:<16} {:>12} {:>14?}", "tiered-chaselev", parallel, parallel_time);
    println!("{:<16} {:>12} {:>14?}", "sequential", sequential, sequential_time);
    println!(
        "steals: {} from private tiers, {} from shared list deques",
        report.stats.steals_private_tier, report.stats.steals_shared_tier
    );

    assert_eq!(parallel, sequential, "the executor must compute the sequential checksum");
    println!("\nthe executor computed the sequential checksum — work conserved");
}
