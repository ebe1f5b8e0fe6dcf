//! The GC-free deque: Section 4's algorithm under the Lock-Free
//! Reference Counting (LFRC) transformation the authors describe in
//! Section 1.1 — reclamation *decisions* made by reference counts the
//! moment a node's count drops to zero (no epochs involved in the
//! decision), with the freed memory routed through the strategy's
//! pluggable `Reclaimer` backend.
//!
//! Run with `cargo run --release --example gc_free`.

use std::sync::Arc;

use dcas::{DcasStrategy, GlobalLock, HarrisMcas, Reclaimer};
use dcas_deques::deque::list_lfrc::RawLfrcListDeque;
use dcas_deques::deque::LfrcListDeque;

fn main() {
    recycling_demo();
    concurrent_demo();
    cycle_demo();
    census_demo();
}

/// The allocator's own view of everything the demos above churned: the
/// LFRC counts decide *when* a node dies, but the memory itself cycles
/// through the per-family page pools, and their gauges must agree with
/// the deque-level audits — every page still resident, zero slots
/// outstanding at quiescence.
fn census_demo() {
    println!("\n=== Node-pool census ===");
    for (name, pages, outstanding, remote_frees) in dcas::alloc::census() {
        println!(
            "pool {name:<12} pages {pages:>5} ({:>6} KiB resident)  \
             outstanding {outstanding:>6}  remote frees {remote_frees:>8}",
            pages * 4
        );
    }
    assert_eq!(
        dcas::alloc::nodes_outstanding(),
        0,
        "pool census disagrees with the deque audits"
    );
}

/// Flushes the reclamation backend until every dead node has actually
/// been freed, then returns the outstanding count (must be zero at
/// quiescence with the deque drained).
fn drain_backend<S: DcasStrategy>(d: &RawLfrcListDeque<u32, S>) -> u64 {
    for _ in 0..1_000 {
        if d.stats().outstanding == 0 {
            break;
        }
        S::Reclaimer::flush();
        // Recently-exited threads may still be migrating their retirement
        // queues to the collector (scope() returns before TLS teardown
        // finishes); yielding lets them get there.
        std::thread::yield_now();
    }
    d.stats().outstanding
}

fn recycling_demo() {
    println!("=== Immediate death, deferred free: the allocation audit ===");
    let d = RawLfrcListDeque::<u32, GlobalLock>::new();
    for round in 0..5 {
        for i in 0..1000 {
            d.push_right(i).unwrap();
        }
        for _ in 0..1000 {
            d.pop_left().unwrap();
        }
        // Quiesce: flush logically-deleted stragglers.
        assert_eq!(d.pop_left(), None);
        assert_eq!(d.pop_right(), None);
        let outstanding = drain_backend(&d);
        let s = d.stats();
        println!(
            "round {round}: {} nodes allocated so far, {outstanding} still unfreed \
             (audit balanced: {})",
            s.allocated,
            outstanding == 0
        );
    }
    assert_eq!(drain_backend(&d), 0, "leak detected");
    println!(
        "every one of the {} allocated nodes was freed\n",
        d.stats().allocated
    );
}

fn concurrent_demo() {
    println!("=== Concurrent use, then a full census ===");
    let d: Arc<LfrcListDeque<u64>> = Arc::new(LfrcListDeque::new());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let d = Arc::clone(&d);
            s.spawn(move || {
                for i in 0..10_000u64 {
                    let v = t * 10_000 + i;
                    if v.is_multiple_of(2) {
                        d.push_right(v).unwrap();
                    } else {
                        d.push_left(v).unwrap();
                    }
                    if i % 2 == 1 {
                        let _ = d.pop_left();
                        let _ = d.pop_right();
                    }
                }
            });
        }
    });
    let mut drained = 0;
    while d.pop_left().is_some() {
        drained += 1;
    }
    let _ = d.pop_right();
    let _ = d.pop_left();
    let mut s = d.stats();
    for _ in 0..1_000 {
        if s.outstanding == 0 {
            break;
        }
        <HarrisMcas as DcasStrategy>::Reclaimer::flush();
        // See drain_backend: give exiting worker threads a chance to
        // hand their retirement queues to the collector.
        std::thread::yield_now();
        s = d.stats();
    }
    println!(
        "drained {drained} leftovers; {} allocated, {} outstanding — audit balanced: {}\n",
        s.allocated,
        s.outstanding,
        s.outstanding == 0
    );
    assert_eq!(s.outstanding, 0);
}

fn cycle_demo() {
    println!("=== The two-null dead cycle, broken and reclaimed ===");
    // Popping one element from each side of a 2-element deque leaves two
    // logically-deleted nodes that reference each other. Pure reference
    // counting could never reclaim that cycle; the double-splice winner
    // breaks it explicitly (see list_lfrc::break_cycle).
    let d = RawLfrcListDeque::<u32, GlobalLock>::new();
    for round in 0..10_000 {
        d.push_left(1).unwrap();
        d.push_right(2).unwrap();
        assert_eq!(d.pop_right(), Some(2));
        assert_eq!(d.pop_left(), Some(1));
        assert_eq!(d.pop_right(), None); // triggers the double splice
        let _ = round;
    }
    let outstanding = drain_backend(&d);
    let s = d.stats();
    println!(
        "10000 two-null rounds: {} nodes allocated, {outstanding} unfreed — no cycle leak",
        s.allocated
    );
    assert_eq!(outstanding, 0);
}
