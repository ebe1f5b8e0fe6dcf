//! Tests for the LFRC (GC-free) list deque. Beyond functional
//! correctness, these verify the reference-counting discipline itself:
//! after draining to quiescence and flushing the reclamation backend,
//! every node ever allocated must have been freed (drop-count audit
//! balances — no leaks, including the two-null mutual-reference cycle).

use dcas::{GlobalLock, HarrisMcas, HarrisMcasHazard, Reclaimer};

use super::{Cascade, LfrcListDeque, RawLfrcListDeque, CASCADE_INLINE};
use crate::value::WordValue;

/// Flushes the strategy's reclamation backend until the deque's
/// drop-count audit balances (`outstanding - linked == 0` among
/// reclaimable nodes; here callers have drained, so `outstanding == 0`).
/// Panics if it has not within [`AUDIT_DEADLINE`].
///
/// The wait is wall-clock, not a round count: a parallel test thread
/// pinned in the epoch backend holds back the grace period of every
/// node retired meanwhile, for as long as that test runs.
fn assert_audit_balances<V: WordValue, S: dcas::DcasStrategy>(d: &RawLfrcListDeque<V, S>) {
    let deadline = std::time::Instant::now() + AUDIT_DEADLINE;
    while d.stats().outstanding != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "drop-count audit never balanced: {:?}",
            d.stats()
        );
        S::Reclaimer::flush();
        std::thread::yield_now();
    }
}

/// How long [`assert_audit_balances`] waits for the backend to free
/// every retired node.
const AUDIT_DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);

#[test]
fn nodes_are_recycled_not_leaked() {
    let d = RawLfrcListDeque::<u32, GlobalLock>::new();
    for round in 0..50 {
        for i in 0..20 {
            d.push_right(round * 100 + i).unwrap();
        }
        for _ in 0..20 {
            assert!(d.pop_left().is_some());
        }
        // Flush lingering logically-deleted nodes.
        assert_eq!(d.pop_left(), None);
        assert_eq!(d.pop_right(), None);
    }
    let stats = d.stats();
    assert_eq!(stats.linked, 0);
    // Allocation happens exactly once per push (outside the retry loop).
    assert_eq!(stats.allocated, 1000);
    // Every allocated node reaches the backend and is freed: the
    // drop-count audit balances.
    assert_audit_balances(&d);
}

#[test]
fn two_null_cycle_is_broken_and_reclaimed() {
    // The regression test for the dead two-node reference cycle: pop one
    // element from each side of a two-element deque, trigger the double
    // splice, and verify both nodes are retired and freed.
    let d = RawLfrcListDeque::<u32, GlobalLock>::new();
    for _ in 0..100 {
        d.push_left(1).unwrap();
        d.push_right(2).unwrap();
        assert_eq!(d.pop_right(), Some(2));
        assert_eq!(d.pop_left(), Some(1));
        // Both nodes are now logically deleted; the next op runs the
        // two-null double splice.
        assert_eq!(d.pop_right(), None);
        assert_eq!(d.layout().cells, vec![]);
    }
    assert_eq!(d.stats().allocated, 200);
    assert_audit_balances(&d);
}

#[test]
fn layout_matches_epoch_variant() {
    let a = crate::list::RawListDeque::<u32, GlobalLock>::new();
    let b = RawLfrcListDeque::<u32, GlobalLock>::new();
    let ops: Vec<(u8, u32)> = vec![
        (0, 1),
        (1, 2),
        (0, 3),
        (2, 0),
        (3, 0),
        (1, 4),
        (2, 0),
        (2, 0),
        (3, 0),
        (3, 0),
        (0, 5),
    ];
    for (op, v) in ops {
        match op {
            0 => {
                a.push_right(v).unwrap();
                b.push_right(v).unwrap();
            }
            1 => {
                a.push_left(v).unwrap();
                b.push_left(v).unwrap();
            }
            2 => assert_eq!(a.pop_right(), b.pop_right()),
            _ => assert_eq!(a.pop_left(), b.pop_left()),
        }
        let (la, lb) = (a.layout(), b.layout());
        assert_eq!(la.cells, lb.cells);
        assert_eq!(la.left_deleted, lb.left_deleted);
        assert_eq!(la.right_deleted, lb.right_deleted);
    }
}

/// The ISSUE-mandated regression for the reclamation migration: under
/// concurrent churn on each MCAS backend (epoch-pinned and hazard),
/// popped values are conserved AND the drop-count audit balances — every
/// node the deque ever allocated is freed by the pluggable [`Reclaimer`]
/// once the backend drains, with nothing left outstanding.
#[test]
fn reclaimer_audit_balances_across_backends() {
    fn churn<S: dcas::DcasStrategy>() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let d = Arc::new(RawLfrcListDeque::<u32, S>::new());
        let done = Arc::new(AtomicBool::new(false));
        let pushes_per_thread = 2_000u32;
        let pushers = 2u32;

        let popped_sum = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..2 {
                let d = Arc::clone(&d);
                let done = Arc::clone(&done);
                handles.push(s.spawn(move || {
                    let mut sum = 0u64;
                    loop {
                        let v = if t == 0 { d.pop_left() } else { d.pop_right() };
                        match v {
                            Some(v) => sum += v as u64,
                            None => {
                                if done.load(Ordering::Acquire) {
                                    return sum;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                }));
            }
            std::thread::scope(|inner| {
                for t in 0..pushers {
                    let d = Arc::clone(&d);
                    inner.spawn(move || {
                        for i in 0..pushes_per_thread {
                            let v = t * pushes_per_thread + i;
                            if v.is_multiple_of(2) {
                                d.push_right(v).unwrap();
                            } else {
                                d.push_left(v).unwrap();
                            }
                        }
                    });
                }
            });
            done.store(true, Ordering::Release);
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        });

        let mut residue = 0u64;
        while let Some(v) = d.pop_left() {
            residue += v as u64;
        }
        let total = u64::from(pushers * pushes_per_thread);
        assert_eq!(popped_sum + residue, (0..total).sum::<u64>(), "{}", S::NAME);
        // Quiesce (flush logically-deleted stragglers) and audit.
        assert_eq!(d.pop_left(), None);
        assert_eq!(d.pop_right(), None);
        let stats = d.stats();
        assert_eq!(stats.linked, 0, "{}", S::NAME);
        assert_eq!(stats.allocated, total, "{}", S::NAME);
        assert_audit_balances(&d);
    }
    churn::<HarrisMcas>();
    churn::<HarrisMcasHazard>();
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        PushRight(u32),
        PushLeft(u32),
        PopRight,
        PopLeft,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..1000).prop_map(Op::PushRight),
            (0u32..1000).prop_map(Op::PushLeft),
            Just(Op::PopRight),
            Just(Op::PopLeft),
        ]
    }

    proptest! {
        #[test]
        fn no_leaks_after_any_op_sequence(
            ops in proptest::collection::vec(op_strategy(), 0..150),
        ) {
            let d = RawLfrcListDeque::<u32, GlobalLock>::new();
            let mut pushes = 0u64;
            for op in &ops {
                match *op {
                    Op::PushRight(v) => { d.push_right(v).unwrap(); pushes += 1; }
                    Op::PushLeft(v) => { d.push_left(v).unwrap(); pushes += 1; }
                    Op::PopRight => { d.pop_right(); }
                    Op::PopLeft => { d.pop_left(); }
                }
            }
            // Drain and quiesce.
            while d.pop_left().is_some() {}
            let _ = d.pop_right();
            let _ = d.pop_left();
            let stats = d.stats();
            prop_assert_eq!(stats.linked, 0);
            prop_assert_eq!(stats.allocated, pushes);
            assert_audit_balances(&d);
        }
    }
}

/// Page-pool nodes behind the deque semantics: interleaved two-ended
/// traffic drains to the exact push count. Named `pooled_` so CI's
/// allocator suite selects the per-family pool units.
#[test]
fn pooled_nodes_drain_to_push_count() {
    let d = LfrcListDeque::<u32>::new();
    for i in 0..200u32 {
        if i % 2 == 0 {
            d.push_right(i).unwrap();
        } else {
            d.push_left(i).unwrap();
        }
    }
    let mut got = 0;
    while d.pop_left().is_some() || d.pop_right().is_some() {
        got += 1;
    }
    assert_eq!(got, 200);
}

#[test]
fn release_cascade_stays_lifo_across_the_spill() {
    // Rounds of pushes past the inline part and pops back into it: the
    // pops must come back newest first throughout, as from one `Vec`.
    let mut c = Cascade { inline: [0; CASCADE_INLINE], len: 0, spill: Vec::new() };
    let mut model = Vec::new();
    let mut next = 0u64;
    for _ in 0..3 {
        for _ in 0..CASCADE_INLINE + 4 {
            c.push(next);
            model.push(next);
            next += 1;
        }
        for _ in 0..12 {
            assert_eq!(c.pop(), model.pop());
        }
    }
    while let Some(w) = model.pop() {
        assert_eq!(c.pop(), Some(w));
    }
    assert_eq!(c.pop(), None);
}
