//! Quickstart: both deques of the paper, sequentially and shared across
//! threads.
//!
//! Run with `cargo run --example quickstart`.

use std::sync::Arc;

use dcas_deques::prelude::*;

fn main() {
    banner("Sequential walkthrough (the paper's Section 2.2 example)");
    sequential();

    banner("Bounded array deque: empty/full boundaries");
    boundaries();

    banner("Concurrent access to both ends (8 threads)");
    concurrent();

    banner("Choosing the DCAS emulation");
    strategies();
}

fn banner(s: &str) {
    println!("\n=== {s} ===");
}

fn sequential() {
    // The unbounded linked-list deque (Section 4 of the paper).
    let d: ListDeque<i64> = ListDeque::new();
    d.push_right(1).unwrap();
    d.push_left(2).unwrap();
    d.push_right(3).unwrap();
    println!("after pushRight(1), pushLeft(2), pushRight(3): <2, 1, 3>");
    println!("popLeft  -> {:?} (expected 2)", d.pop_left());
    println!("popLeft  -> {:?} (expected 1)", d.pop_left());
    println!("popRight -> {:?} (expected 3)", d.pop_right());
    println!("popLeft  -> {:?} (empty)", d.pop_left());
}

fn boundaries() {
    // The bounded array deque (Section 3): capacity is fixed up front and
    // push reports Full, with the rejected value handed back.
    let d: ArrayDeque<String> = ArrayDeque::new(2);
    d.push_right("a".into()).unwrap();
    d.push_left("b".into()).unwrap();
    match d.push_right("c".into()) {
        Err(Full(v)) => println!("deque full; '{v}' returned to caller"),
        Ok(()) => unreachable!(),
    }
    println!("popRight -> {:?}", d.pop_right());
    println!("popRight -> {:?}", d.pop_right());
    println!("popRight -> {:?} (empty)", d.pop_right());
}

fn concurrent() {
    let d: Arc<ListDeque<u64>> = Arc::new(ListDeque::new());
    let per_thread = 10_000u64;
    let threads = 8;

    std::thread::scope(|s| {
        for t in 0..threads {
            let d = Arc::clone(&d);
            s.spawn(move || {
                for i in 0..per_thread {
                    let v = t * per_thread + i;
                    if v.is_multiple_of(2) {
                        d.push_right(v).unwrap();
                    } else {
                        d.push_left(v).unwrap();
                    }
                    if i % 3 == 0 {
                        // Mix pops from both ends while pushes continue.
                        let _ = if v.is_multiple_of(4) { d.pop_left() } else { d.pop_right() };
                    }
                }
            });
        }
    });

    let mut drained = 0u64;
    while d.pop_left().is_some() {
        drained += 1;
    }
    println!(
        "{} threads x {} ops ran; {} values remained and drained cleanly",
        threads, per_thread, drained
    );
}

fn strategies() {
    // Every deque is generic over the DCAS emulation. HarrisMcas (the
    // default) is lock-free; GlobalLock is the blocking emulation.
    let lock_free: ListDeque<u32, HarrisMcas> = ListDeque::new();
    let blocking: ListDeque<u32, GlobalLock> = ListDeque::new();

    for (name, d) in [
        (<HarrisMcas>::NAME, &lock_free as &dyn ConcurrentDeque<u32>),
        (GlobalLock::NAME, &blocking),
    ] {
        d.push_right(7).unwrap();
        let popped = d.pop_left();
        println!("{name:>16}: pushRight(7), popLeft -> {popped:?}");
        assert_eq!(popped, Some(7));
    }
}
