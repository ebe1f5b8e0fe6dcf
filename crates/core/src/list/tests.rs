//! Unit and figure-reproduction tests for the linked-list deque.

use dcas::{
    Counting, DcasStrategy, GlobalLock, GlobalSeqLock, HarrisMcas, HarrisMcasHazard, StripedLock,
};

use super::{ListDeque, RawListDeque};

fn for_all_strategies(f: impl Fn(Box<dyn Fn() -> Box<dyn DynDeque>>)) {
    f(Box::new(
        || Box::new(RawListDeque::<u32, GlobalLock>::new()),
    ));
    f(Box::new(|| {
        Box::new(RawListDeque::<u32, GlobalSeqLock>::new())
    }));
    f(Box::new(|| {
        Box::new(RawListDeque::<u32, StripedLock>::new())
    }));
    f(Box::new(
        || Box::new(RawListDeque::<u32, HarrisMcas>::new()),
    ));
    f(Box::new(|| {
        Box::new(RawListDeque::<u32, HarrisMcasHazard>::new())
    }));
}

trait DynDeque {
    fn push_right(&self, v: u32);
    fn push_left(&self, v: u32);
    fn pop_right(&self) -> Option<u32>;
    fn pop_left(&self) -> Option<u32>;
}

impl<S: DcasStrategy> DynDeque for RawListDeque<u32, S> {
    fn push_right(&self, v: u32) {
        RawListDeque::push_right(self, v).unwrap();
    }
    fn push_left(&self, v: u32) {
        RawListDeque::push_left(self, v).unwrap();
    }
    fn pop_right(&self) -> Option<u32> {
        RawListDeque::pop_right(self)
    }
    fn pop_left(&self) -> Option<u32> {
        RawListDeque::pop_left(self)
    }
}

#[test]
fn paper_running_example() {
    for_all_strategies(|mk| {
        let d = mk();
        d.push_right(1);
        d.push_left(2);
        d.push_right(3);
        assert_eq!(d.pop_left(), Some(2));
        assert_eq!(d.pop_left(), Some(1));
        assert_eq!(d.pop_left(), Some(3));
        assert_eq!(d.pop_left(), None);
    });
}

#[test]
fn fig9_initial_empty_deque() {
    // Figure 9 (top): SR->L == SL, SL->R == SR, no interior nodes, both
    // deleted bits false.
    let d = RawListDeque::<u32, GlobalSeqLock>::new();
    let lay = d.layout();
    assert_eq!(lay.cells, vec![]);
    assert!(!lay.left_deleted);
    assert!(!lay.right_deleted);
    assert_eq!(d.pop_left(), None);
    assert_eq!(d.pop_right(), None);
}

#[test]
fn fig9_empty_with_right_deleted_cell() {
    // Figure 9 (second): one logically deleted node remains linked with
    // the right sentinel's deleted bit set — reached by popping the only
    // element from the right (physical deletion is deferred to the next
    // right-side operation).
    let d = RawListDeque::<u32, GlobalSeqLock>::new();
    d.push_right(7).unwrap();
    assert_eq!(d.pop_right(), Some(7));
    let lay = d.layout();
    assert_eq!(lay.cells, vec![None]);
    assert!(lay.right_deleted);
    assert!(!lay.left_deleted);
    // The deque is empty for both ends despite the lingering node.
    assert_eq!(d.pop_left(), None);
    assert_eq!(d.pop_right(), None);
}

#[test]
fn fig9_empty_with_left_deleted_cell() {
    // Figure 9 (third): mirror image via popLeft.
    let d = RawListDeque::<u32, GlobalSeqLock>::new();
    d.push_left(7).unwrap();
    assert_eq!(d.pop_left(), Some(7));
    let lay = d.layout();
    assert_eq!(lay.cells, vec![None]);
    assert!(lay.left_deleted);
    assert!(!lay.right_deleted);
    assert_eq!(d.pop_right(), None);
}

#[test]
fn fig9_empty_with_two_deleted_cells() {
    // Figure 9 (bottom): two logically deleted nodes, both sentinel
    // deleted bits set — one pop from each side of a two-element deque.
    let d = RawListDeque::<u32, GlobalSeqLock>::new();
    d.push_left(1).unwrap();
    d.push_right(2).unwrap();
    assert_eq!(d.pop_right(), Some(2));
    assert_eq!(d.pop_left(), Some(1));
    let lay = d.layout();
    assert_eq!(lay.cells, vec![None, None]);
    assert!(lay.left_deleted);
    assert!(lay.right_deleted);
    // Any subsequent operation completes the physical deletions.
    assert_eq!(d.pop_right(), None);
    let lay = d.layout();
    assert_eq!(lay.cells, vec![]);
    assert!(!lay.left_deleted);
    assert!(!lay.right_deleted);
}

#[test]
fn fig12_pop_right_marks_node() {
    // Figure 12: popRight nulls the value and sets SR's deleted bit; the
    // node stays physically linked.
    let d = RawListDeque::<u32, GlobalSeqLock>::new();
    d.push_right(10).unwrap();
    d.push_right(11).unwrap();
    assert_eq!(d.pop_right(), Some(11));
    let lay = d.layout();
    assert_eq!(lay.cells, vec![Some(10u32.encode_for_test()), None]);
    assert!(lay.right_deleted);
}

#[test]
fn fig14_push_right_appends_before_sentinel() {
    // Figure 14: pushRight splices the new node between the old rightmost
    // node and SR.
    let d = RawListDeque::<u32, GlobalSeqLock>::new();
    d.push_right(1).unwrap();
    let before = d.layout();
    assert_eq!(before.cells.len(), 1);
    d.push_right(2).unwrap();
    let after = d.layout();
    assert_eq!(after.cells.len(), 2);
    assert_eq!(after.cells[0], before.cells[0]);
    assert_eq!(after.cells[1], Some(2u32.encode_for_test()));
}

#[test]
fn fig15_delete_right_splices_null_node() {
    // Figure 15: after a popRight leaves a null node, the next right-side
    // operation physically deletes it.
    let d = RawListDeque::<u32, GlobalSeqLock>::new();
    d.push_right(1).unwrap();
    d.push_right(2).unwrap();
    assert_eq!(d.pop_right(), Some(2));
    assert_eq!(d.layout().cells.len(), 2); // null node lingers
    assert!(d.layout().right_deleted);
    // The next pushRight first completes the deletion, then appends.
    d.push_right(3).unwrap();
    let lay = d.layout();
    assert_eq!(lay.cells.len(), 2);
    assert_eq!(lay.cells[0], Some(1u32.encode_for_test()));
    assert_eq!(lay.cells[1], Some(3u32.encode_for_test()));
    assert!(!lay.right_deleted);
}

/// Helper so tests can state expected encoded cell words readably.
trait EncodeForTest {
    fn encode_for_test(self) -> u64;
}

impl EncodeForTest for u32 {
    fn encode_for_test(self) -> u64 {
        use crate::value::WordValue;
        self.encode()
    }
}

#[test]
fn pop_on_deleted_side_first_completes_deletion() {
    // popRight must work when SR's deleted bit is set and more values
    // remain.
    let d = RawListDeque::<u32, GlobalSeqLock>::new();
    d.push_right(1).unwrap();
    d.push_right(2).unwrap();
    d.push_right(3).unwrap();
    assert_eq!(d.pop_right(), Some(3)); // leaves deleted bit set
    assert_eq!(d.pop_right(), Some(2)); // completes deletion, pops again
    assert_eq!(d.pop_right(), Some(1));
    assert_eq!(d.pop_right(), None);
}

#[test]
fn single_element_popped_from_far_side() {
    // A node marked by popRight is observed as null by popLeft, which
    // must report empty (the identity-DCAS path, lines 8-12 of Fig 32).
    for_all_strategies(|mk| {
        let d = mk();
        d.push_right(9);
        assert_eq!(d.pop_right(), Some(9));
        assert_eq!(d.pop_left(), None);
        assert_eq!(d.pop_left(), None);
    });
}

#[test]
fn lifo_from_each_end() {
    for_all_strategies(|mk| {
        let d = mk();
        for i in 0..50 {
            d.push_right(i);
        }
        for i in (0..50).rev() {
            assert_eq!(d.pop_right(), Some(i));
        }
        for i in 0..50 {
            d.push_left(i);
        }
        for i in (0..50).rev() {
            assert_eq!(d.pop_left(), Some(i));
        }
    });
}

#[test]
fn fifo_across_ends() {
    for_all_strategies(|mk| {
        let d = mk();
        for i in 0..50 {
            d.push_right(i);
        }
        for i in 0..50 {
            assert_eq!(d.pop_left(), Some(i));
        }
        for i in 0..50 {
            d.push_left(i);
        }
        for i in 0..50 {
            assert_eq!(d.pop_right(), Some(i));
        }
        assert_eq!(d.pop_right(), None);
        assert_eq!(d.pop_left(), None);
    });
}

#[test]
fn alternating_push_pop_both_sides() {
    for_all_strategies(|mk| {
        let d = mk();
        for round in 0..20 {
            d.push_left(round * 2);
            d.push_right(round * 2 + 1);
            assert_eq!(d.pop_left(), Some(round * 2));
            assert_eq!(d.pop_right(), Some(round * 2 + 1));
            assert_eq!(d.pop_right(), None);
        }
    });
}

#[test]
fn extra_dcas_per_pop_claim() {
    // Section 1.2: "The cost of this splitting technique is an extra DCAS
    // per pop operation." An uncontended push costs one DCAS; a pop costs
    // one DCAS now plus one deferred deleteRight DCAS in the next
    // same-side operation.
    let d = RawListDeque::<u32, Counting<GlobalLock>>::new();
    d.push_right(1).unwrap(); // 1 DCAS
    assert_eq!(d.strategy().stats().dcas_attempts, 1);
    assert_eq!(d.pop_right(), Some(1)); // 1 DCAS (logical delete)
    assert_eq!(d.strategy().stats().dcas_attempts, 2);
    d.push_right(2).unwrap(); // deleteRight (1) + push (1)
    let s = d.strategy().stats();
    assert_eq!(s.dcas_attempts, 4);
    assert_eq!(s.dcas_successes, 4);
}

#[test]
fn typed_deque_with_strings() {
    let d: ListDeque<String> = ListDeque::new();
    d.push_right("b".into()).unwrap();
    d.push_left("a".into()).unwrap();
    d.push_right("c".into()).unwrap();
    assert_eq!(d.pop_left().as_deref(), Some("a"));
    assert_eq!(d.pop_right().as_deref(), Some("c"));
    assert_eq!(d.pop_right().as_deref(), Some("b"));
    assert_eq!(d.pop_right(), None);
}

#[test]
fn drop_releases_remaining_values_and_nodes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    #[derive(Debug)]
    struct Probe;
    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    DROPS.store(0, Ordering::SeqCst);
    {
        let d: ListDeque<Probe, GlobalLock> = ListDeque::new();
        for _ in 0..6 {
            d.push_right(Probe).unwrap();
        }
        drop(d.pop_left().unwrap());
        drop(d.pop_right().unwrap());
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
        // 4 values remain, plus two lingering null nodes.
    }
    assert_eq!(DROPS.load(Ordering::SeqCst), 6);
}

#[test]
fn drop_with_pending_deleted_nodes() {
    // Dropping while deleted bits are set must not double-free.
    let d = RawListDeque::<u32, GlobalLock>::new();
    d.push_left(1).unwrap();
    d.push_right(2).unwrap();
    assert_eq!(d.pop_left(), Some(1));
    assert_eq!(d.pop_right(), Some(2));
    let lay = d.layout();
    assert_eq!(lay.cells, vec![None, None]);
    drop(d);
}

mod properties {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

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
        fn matches_vecdeque_model(
            ops in proptest::collection::vec(op_strategy(), 0..300),
        ) {
            let d = RawListDeque::<u32, GlobalSeqLock>::new();
            let mut model: VecDeque<u32> = VecDeque::new();
            for op in &ops {
                match *op {
                    Op::PushRight(v) => {
                        d.push_right(v).unwrap();
                        model.push_back(v);
                    }
                    Op::PushLeft(v) => {
                        d.push_left(v).unwrap();
                        model.push_front(v);
                    }
                    Op::PopRight => prop_assert_eq!(d.pop_right(), model.pop_back()),
                    Op::PopLeft => prop_assert_eq!(d.pop_left(), model.pop_front()),
                }
            }
            prop_assert_eq!(d.layout().live_values(), model.len());
        }

        #[test]
        fn structural_invariants_hold(
            ops in proptest::collection::vec(op_strategy(), 0..150),
        ) {
            // Sequential slice of the representation invariant of
            // Figures 24-25: at most one null node per side, null nodes
            // are adjacent to their sentinel, and a null node on a side
            // implies that side's deleted bit... except transiently when
            // the opposite side's pop created it (checked loosely: nulls
            // only ever at the extremities).
            let d = RawListDeque::<u32, GlobalLock>::new();
            for op in &ops {
                match *op {
                    Op::PushRight(v) => { d.push_right(v).unwrap(); }
                    Op::PushLeft(v) => { d.push_left(v).unwrap(); }
                    Op::PopRight => { d.pop_right(); }
                    Op::PopLeft => { d.pop_left(); }
                }
                let lay = d.layout();
                let n = lay.cells.len();
                let nulls = lay.cells.iter().filter(|c| c.is_none()).count();
                prop_assert!(nulls <= 2, "more than two null nodes: {:?}", lay);
                for (i, c) in lay.cells.iter().enumerate() {
                    if c.is_none() {
                        prop_assert!(
                            i == 0 || i == n - 1,
                            "interior null node at {} in {:?}", i, lay
                        );
                    }
                }
                // A set deleted bit points at a null node.
                if lay.right_deleted {
                    prop_assert_eq!(lay.cells.last().copied(), Some(None));
                }
                if lay.left_deleted {
                    prop_assert_eq!(lay.cells.first().copied(), Some(None));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Batched operations.
// ---------------------------------------------------------------------

fn for_all_strategies_batch(f: impl Fn(Box<dyn Fn() -> Box<dyn DynBatchDeque>>)) {
    f(Box::new(
        || Box::new(RawListDeque::<u32, GlobalLock>::new()),
    ));
    f(Box::new(|| {
        Box::new(RawListDeque::<u32, GlobalSeqLock>::new())
    }));
    f(Box::new(|| {
        Box::new(RawListDeque::<u32, StripedLock>::new())
    }));
    f(Box::new(
        || Box::new(RawListDeque::<u32, HarrisMcas>::new()),
    ));
    f(Box::new(|| {
        Box::new(RawListDeque::<u32, HarrisMcasHazard>::new())
    }));
}

/// Object-safe facade over the batched API (list pushes never fail).
trait DynBatchDeque: Send + Sync {
    fn push_right_n(&self, vals: Vec<u32>);
    fn push_left_n(&self, vals: Vec<u32>);
    fn pop_right_n(&self, n: usize) -> Vec<u32>;
    fn pop_left_n(&self, n: usize) -> Vec<u32>;
    fn pop_right1(&self) -> Option<u32>;
    fn pop_left1(&self) -> Option<u32>;
}

impl<S: DcasStrategy> DynBatchDeque for RawListDeque<u32, S> {
    fn push_right_n(&self, vals: Vec<u32>) {
        RawListDeque::push_right_n(self, vals).unwrap();
    }
    fn push_left_n(&self, vals: Vec<u32>) {
        RawListDeque::push_left_n(self, vals).unwrap();
    }
    fn pop_right_n(&self, n: usize) -> Vec<u32> {
        RawListDeque::pop_right_n(self, n)
    }
    fn pop_left_n(&self, n: usize) -> Vec<u32> {
        RawListDeque::pop_left_n(self, n)
    }
    fn pop_right1(&self) -> Option<u32> {
        RawListDeque::pop_right(self)
    }
    fn pop_left1(&self) -> Option<u32> {
        RawListDeque::pop_left(self)
    }
}

#[test]
fn batch_order_matches_repeated_singles() {
    for_all_strategies_batch(|mk| {
        let d = mk();
        d.push_right_n(vec![1, 2, 3]); // <1,2,3>
        d.push_left_n(vec![4, 5]); // <5,4,1,2,3>
        assert_eq!(d.pop_left_n(2), vec![5, 4]);
        assert_eq!(d.pop_right_n(2), vec![3, 2]);
        assert_eq!(d.pop_left_n(9), vec![1]); // short pop
        assert_eq!(d.pop_left_n(4), Vec::<u32>::new());
        assert_eq!(d.pop_right_n(4), Vec::<u32>::new());
    });
}

#[test]
fn batch_spans_multiple_chunks() {
    for_all_strategies_batch(|mk| {
        let d = mk();
        let vals: Vec<u32> = (1..=30).collect();
        d.push_right_n(vals.clone());
        assert_eq!(d.pop_left_n(64), vals);
        d.push_left_n(vals.clone());
        let mut rev = vals.clone();
        rev.reverse();
        assert_eq!(d.pop_left_n(64), rev);
        // Batch pushes interleave correctly with single ops.
        d.push_right_n(vec![1, 2]);
        d.push_left_n(vec![3]);
        assert_eq!(d.pop_right1(), Some(2));
        assert_eq!(d.pop_left1(), Some(3));
        assert_eq!(d.pop_right_n(5), vec![1]);
    });
}

#[test]
fn batch_pop_straddles_null_nodes() {
    // A half-finished single pop (logically deleted, not yet spliced)
    // never blocks a batch pop: pop_left leaves a null node adjacent to
    // the sentinel which the chunk walk must step over via delete_left.
    for_all_strategies_batch(|mk| {
        let d = mk();
        d.push_right_n((1..=6).collect());
        assert_eq!(d.pop_left1(), Some(1));
        assert_eq!(d.pop_left_n(3), vec![2, 3, 4]);
        assert_eq!(d.pop_right1(), Some(6));
        assert_eq!(d.pop_right_n(3), vec![5]);
    });
}

#[test]
fn batch_matches_vecdeque_model() {
    use std::collections::VecDeque;
    for_all_strategies_batch(|mk| {
        let d = mk();
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut x = 0xFEEDu64;
        let mut nextv = 1u32;
        for _ in 0..2_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = 1 + (x >> 18) as usize % 11;
            match (x >> 60) % 4 {
                0 => {
                    let vals: Vec<u32> = (nextv..nextv + k as u32).collect();
                    nextv += k as u32;
                    d.push_right_n(vals.clone());
                    model.extend(&vals);
                }
                1 => {
                    let vals: Vec<u32> = (nextv..nextv + k as u32).collect();
                    nextv += k as u32;
                    d.push_left_n(vals.clone());
                    vals.iter().for_each(|&v| model.push_front(v));
                }
                2 => {
                    let got = d.pop_right_n(k);
                    let want: Vec<u32> = (0..k).filter_map(|_| model.pop_back()).collect();
                    assert_eq!(got, want);
                }
                _ => {
                    let got = d.pop_left_n(k);
                    let want: Vec<u32> = (0..k).filter_map(|_| model.pop_front()).collect();
                    assert_eq!(got, want);
                }
            }
        }
    });
}

#[test]
fn batch_concurrent_conservation() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    for_all_strategies_batch(|mk| {
        let d = mk();
        let popped = Mutex::new(Vec::<u32>::new());
        let produced = AtomicU64::new(0);
        const PER: u32 = 3_000;
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let d = &d;
                let produced = &produced;
                s.spawn(move || {
                    let mut v = t * PER + 1;
                    let end = (t + 1) * PER;
                    let mut k = 1usize;
                    while v <= end {
                        let hi = (v + k as u32 - 1).min(end);
                        let batch: Vec<u32> = (v..=hi).collect();
                        if t == 0 {
                            d.push_right_n(batch);
                        } else {
                            d.push_left_n(batch);
                        }
                        produced.fetch_add((hi - v + 1) as u64, Ordering::Relaxed);
                        v = hi + 1;
                        k = k % 9 + 1;
                    }
                });
            }
            for t in 0..2u32 {
                let d = &d;
                let popped = &popped;
                let produced = &produced;
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut k = 1usize;
                    loop {
                        let vals = if t == 0 {
                            d.pop_left_n(k)
                        } else {
                            d.pop_right_n(k)
                        };
                        let drained = vals.is_empty();
                        got.extend(vals);
                        k = k % 9 + 1;
                        if drained && produced.load(Ordering::Relaxed) == 2 * PER as u64 {
                            let l = d.pop_left_n(crate::MAX_BATCH);
                            let r = d.pop_right_n(crate::MAX_BATCH);
                            let done = l.is_empty() && r.is_empty();
                            got.extend(l);
                            got.extend(r);
                            if done {
                                break;
                            }
                        }
                    }
                    popped.lock().unwrap().extend(got);
                });
            }
        });
        let mut all = popped.into_inner().unwrap();
        all.sort_unstable();
        assert_eq!(all.len(), 2 * PER as usize, "values lost or duplicated");
        all.dedup();
        assert_eq!(all.len(), 2 * PER as usize, "duplicate values popped");
    });
}

#[test]
fn batch_push_panicking_iterator_leaks_nothing() {
    // The batched list push builds its whole private chain before the
    // single splicing DCAS; a value iterator that panics mid-chain
    // (modeling a throwing `Clone`) must free every chain node and
    // value, leaving the list untouched and fully operational.
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicIsize, Ordering};
    use std::sync::Arc;

    use crate::value::Boxed;

    struct Counted(Arc<AtomicIsize>);
    impl Counted {
        fn new(live: &Arc<AtomicIsize>) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Counted(live.clone())
        }
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    let live = Arc::new(AtomicIsize::new(0));
    let d: RawListDeque<Boxed<Counted>, HarrisMcas> = RawListDeque::new();
    for _ in 0..2 {
        assert!(d.push_right(Boxed::new(Counted::new(&live))).is_ok());
    }

    for left in [false, true] {
        let l2 = live.clone();
        let res = catch_unwind(AssertUnwindSafe(|| {
            let vals = (0..10).map(|i| {
                if i == 5 {
                    panic!("mid-chain");
                }
                Boxed::new(Counted::new(&l2))
            });
            if left {
                d.push_left_n(vals)
            } else {
                d.push_right_n(vals)
            }
        }));
        assert!(res.is_err());
        assert_eq!(live.load(Ordering::SeqCst), 2, "chain values leaked");
        let layout = d.layout();
        assert_eq!(layout.live_values(), 2, "partial chain reached the list");
    }

    // Still fully operational.
    assert!(d.push_left(Boxed::new(Counted::new(&live))).is_ok());
    assert_eq!(live.load(Ordering::SeqCst), 3);
    while d.pop_right().is_some() {}
    drop(d);
    assert_eq!(live.load(Ordering::SeqCst), 0);
}

#[test]
fn reclaim_hazard_list_concurrent_mixed_ops_conserve_values() {
    // Mixed single/batch traffic on the hazard-backed list: every
    // pushed value is popped exactly once, and after a final flush the
    // backend's live garbage sits under its static bound (nothing
    // leaked into an unbounded queue).
    use std::sync::Arc;

    use dcas::{HazardReclaimer, Reclaimer};

    let d: Arc<ListDeque<u64, HarrisMcasHazard>> = Arc::new(ListDeque::new());
    let threads = 4u64;
    let per = 300u64;
    let mut handles = vec![];
    for t in 0..threads {
        let d = Arc::clone(&d);
        handles.push(std::thread::spawn(move || {
            let mut popped = 0usize;
            for i in 0..per {
                let v = t * per + i;
                match i % 4 {
                    0 => d.push_left(v).unwrap(),
                    1 => d.push_right(v).unwrap(),
                    2 => d.push_right_n([v, v, v]).unwrap(),
                    _ => d.push_left_n([v, v]).unwrap(),
                }
                match i % 3 {
                    0 => popped += usize::from(d.pop_left().is_some()),
                    1 => popped += usize::from(d.pop_right().is_some()),
                    _ => popped += d.pop_right_n(2).len(),
                }
            }
            popped
        }));
    }
    let popped: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let mut rest = 0usize;
    while d.pop_left().is_some() {
        rest += 1;
    }
    let pushed_per: usize = (0..per)
        .map(|i| match i % 4 {
            0 | 1 => 1,
            2 => 3,
            _ => 2,
        })
        .sum();
    assert_eq!(popped + rest, threads as usize * pushed_per);
    HazardReclaimer::flush();
    assert!(
        HazardReclaimer::live_garbage() <= dcas::reclaim::hazard::static_garbage_bound(),
        "hazard live garbage exceeds the static bound after flush"
    );
}

/// Page-pool nodes behind the deque semantics: interleaved two-ended
/// traffic drains to the exact push count. Named `pooled_` so CI's
/// allocator suite selects the per-family pool units.
#[test]
fn pooled_nodes_drain_to_push_count() {
    let d = ListDeque::<u32>::new();
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

// ---------------------------------------------------------------------
// Values stored in the node's payload word (`WordValue::IN_NODE`).
// ---------------------------------------------------------------------

/// The payload word fills what was alignment padding: a node stays 32
/// bytes, so the page pool's slot size (and page count) is unchanged.
const _: () = assert!(std::mem::size_of::<super::Node>() == 32);

/// An 8-byte `Drop` value for the exactly-once audit. Each one holds a
/// clone of the audit's `Arc`, so the strong count is exactly 1 + the
/// number of live values: a leaked value keeps it up, a value dropped
/// or popped twice pulls it down.
#[derive(Debug)]
struct Counted {
    _audit: std::sync::Arc<()>,
}

fn live(audit: &std::sync::Arc<()>) -> usize {
    std::sync::Arc::strong_count(audit) - 1
}

/// Every path that moves an in-node payload — single and batch push and
/// pop, a panicking batch iterator unwinding `Chain`, contended
/// same-end traffic, and dropping a non-empty deque — drops each value
/// exactly once, under both reclaimers.
#[test]
fn in_node_payloads_drop_exactly_once() {
    const { assert!(<super::NodeValue<Counted> as crate::value::WordValue>::IN_NODE) };
    in_node_audit::<HarrisMcas>();
    in_node_audit::<HarrisMcasHazard>();
}

fn in_node_audit<S: DcasStrategy>() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    let audit = Arc::new(());
    let mk = || Counted { _audit: audit.clone() };
    let d: ListDeque<Counted, S> = ListDeque::new();

    // Single push/pop at both ends.
    for _ in 0..4 {
        d.push_right(mk()).unwrap();
        d.push_left(mk()).unwrap();
    }
    assert_eq!(live(&audit), 8);
    for _ in 0..3 {
        drop(d.pop_right().unwrap());
        drop(d.pop_left().unwrap());
    }
    assert_eq!(live(&audit), 2);

    // Batch push/pop, across chunk boundaries.
    d.push_right_n((0..11).map(|_| mk())).unwrap();
    d.push_left_n((0..9).map(|_| mk())).unwrap();
    assert_eq!(live(&audit), 22);
    assert_eq!(d.pop_left_n(10).len(), 10);
    assert_eq!(d.pop_right_n(7).len(), 7);
    assert_eq!(live(&audit), 5);

    // A panicking iterator unwinds the private chain.
    for left in [false, true] {
        let res = catch_unwind(AssertUnwindSafe(|| {
            let vals = (0..10).map(|i| {
                assert!(i != 6, "mid-chain");
                mk()
            });
            if left {
                d.push_left_n(vals)
            } else {
                d.push_right_n(vals)
            }
        }));
        assert!(res.is_err());
        assert_eq!(live(&audit), 5, "chain values leaked or double-dropped");
        assert_eq!(d.layout().live_values(), 5, "partial chain reached the list");
    }

    // Leave a null node lingering at each end, then drop the non-empty
    // deque.
    drop(d.pop_right().unwrap());
    drop(d.pop_left().unwrap());
    assert_eq!(live(&audit), 3);
    drop(d);
    assert_eq!(live(&audit), 0, "drop of a non-empty deque");

    // And under real contention: same-end pushers and poppers, then a
    // drop of the rest.
    let d: ListDeque<Counted, S> = ListDeque::new();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..500 {
                    d.push_left(mk()).unwrap();
                }
            });
            s.spawn(|| {
                for _ in 0..500 {
                    drop(d.pop_left());
                }
            });
        }
    });
    drop(d);
    assert_eq!(live(&audit), 0, "contended same-end traffic");
}
