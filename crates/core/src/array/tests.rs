//! Unit and figure-reproduction tests for the array-based deque.

use dcas::{Counting, DcasStrategy, GlobalLock, HarrisMcas};

use super::{ArrayDeque, RawArrayDeque};
use crate::{Full, MAX_BATCH};

/// Runs `f` against both strategies: `GlobalLock` runs lines 17–18 of
/// the paper's figures, `HarrisMcas` (no cheap strong DCAS) skips them.
fn for_all_variants(f: impl Fn(&dyn Fn(usize) -> Box<dyn DynDeque>)) {
    fn mk<S: DcasStrategy>() -> impl Fn(usize) -> Box<dyn DynDeque> {
        |n| Box::new(RawArrayDeque::<u32, S>::new(n))
    }
    f(&mk::<GlobalLock>());
    f(&mk::<HarrisMcas>());
}

/// Object-safe facade so tests can sweep strategies.
trait DynDeque {
    fn push_right(&self, v: u32) -> Result<(), u32>;
    fn push_left(&self, v: u32) -> Result<(), u32>;
    fn pop_right(&self) -> Option<u32>;
    fn pop_left(&self) -> Option<u32>;
}

impl<S: DcasStrategy> DynDeque for RawArrayDeque<u32, S> {
    fn push_right(&self, v: u32) -> Result<(), u32> {
        RawArrayDeque::push_right(self, v).map_err(|Full(v)| v)
    }
    fn push_left(&self, v: u32) -> Result<(), u32> {
        RawArrayDeque::push_left(self, v).map_err(|Full(v)| v)
    }
    fn pop_right(&self) -> Option<u32> {
        RawArrayDeque::pop_right(self)
    }
    fn pop_left(&self) -> Option<u32> {
        RawArrayDeque::pop_left(self)
    }
}

#[test]
fn paper_running_example() {
    // Section 2.2's worked example: pushRight(1), pushLeft(2),
    // pushRight(3) => <2,1,3>; popLeft -> 2; popLeft -> 1.
    for_all_variants(|mk| {
        let d = mk(8);
        d.push_right(1).unwrap();
        d.push_left(2).unwrap();
        d.push_right(3).unwrap();
        assert_eq!(d.pop_left(), Some(2));
        assert_eq!(d.pop_left(), Some(1));
        assert_eq!(d.pop_left(), Some(3));
        assert_eq!(d.pop_left(), None);
    });
}

#[test]
fn fig4_empty_initial_layout() {
    // Figure 4 (top): the initial empty deque has L == 0, R == 1 and all
    // cells null.
    let d = RawArrayDeque::<u32, GlobalLock>::new(14);
    let lay = d.layout();
    assert_eq!(lay.l, 0);
    assert_eq!(lay.r, 1);
    assert!(lay.occupied.iter().all(|&o| !o));
}

#[test]
fn fig4_full_layout() {
    // Figure 4 (bottom): a full deque has every cell occupied and
    // (L + 1) mod n == R.
    let d = RawArrayDeque::<u32, GlobalLock>::new(14);
    for i in 0..14 {
        d.push_right(i).unwrap();
    }
    let lay = d.layout();
    assert!(lay.occupied.iter().all(|&o| o));
    assert_eq!((lay.l + 1) % 14, lay.r);
    assert_eq!(d.push_right(99), Err(Full(99)));
    assert_eq!(d.push_left(99), Err(Full(99)));
}

#[test]
fn fig5_successful_pop_right() {
    // Figure 5: popRight decrements R and nulls S[R-1], returning the
    // value.
    let d = RawArrayDeque::<u32, GlobalLock>::new(8);
    d.push_right(10).unwrap();
    d.push_right(11).unwrap();
    let before = d.layout();
    assert_eq!(d.pop_right(), Some(11));
    let after = d.layout();
    assert_eq!(after.r, (before.r + 8 - 1) % 8);
    assert_eq!(after.l, before.l);
    assert!(!after.occupied[after.r]);
}

#[test]
fn fig7_push_right_into_empty() {
    // Figure 7: pushRight on the empty deque writes S[R] and advances R;
    // L does not move.
    let d = RawArrayDeque::<u32, GlobalLock>::new(8);
    let before = d.layout();
    d.push_right(42).unwrap();
    let after = d.layout();
    assert_eq!(after.l, before.l);
    assert_eq!(after.r, (before.r + 1) % 8);
    assert!(after.occupied[before.r]);
    assert_eq!(after.occupied.iter().filter(|&&o| o).count(), 1);
}

#[test]
fn fig8_filling_wraps_and_crosses() {
    // Figure 8: an almost-full deque; a left push leaves one free cell
    // with L wrapped "to the right of" R; a right push fills it and the
    // indices cross again.
    let n = 14;
    let d = RawArrayDeque::<u32, GlobalLock>::new(n);
    // Fill to n-2 from the right: two free cells remain.
    for i in 0..(n as u32 - 2) {
        d.push_right(i).unwrap();
    }
    let lay = d.layout();
    assert_eq!(lay.occupied.iter().filter(|&&o| o).count(), n - 2);

    // Left push: exactly one free cell remains, and both indices point at
    // it — L has wrapped all the way around to meet R.
    d.push_left(100).unwrap();
    let lay = d.layout();
    assert_eq!(lay.occupied.iter().filter(|&&o| !o).count(), 1);
    assert_eq!(lay.l, lay.r);
    assert!(!lay.occupied[lay.l]);

    // Right push: full, and (L + 1) mod n == R once more.
    d.push_right(200).unwrap();
    let lay = d.layout();
    assert!(lay.occupied.iter().all(|&o| o));
    assert_eq!((lay.l + 1) % n, lay.r);
    assert_eq!(d.push_right(1), Err(Full(1)));

    // Drain and verify order: 100 was the leftmost, 200 the rightmost.
    assert_eq!(d.pop_left(), Some(100));
    assert_eq!(d.pop_right(), Some(200));
}

#[test]
fn capacity_one_deque() {
    for_all_variants(|mk| {
        let d = mk(1);
        assert_eq!(d.pop_left(), None);
        assert_eq!(d.pop_right(), None);
        d.push_right(7).unwrap();
        assert_eq!(d.push_right(8), Err(8));
        assert_eq!(d.push_left(9), Err(9));
        assert_eq!(d.pop_left(), Some(7));
        assert_eq!(d.pop_left(), None);
        d.push_left(5).unwrap();
        assert_eq!(d.pop_right(), Some(5));
    });
}

#[test]
fn empty_returns_none_from_both_ends() {
    for_all_variants(|mk| {
        let d = mk(4);
        assert_eq!(d.pop_left(), None);
        assert_eq!(d.pop_right(), None);
        d.push_left(1).unwrap();
        assert_eq!(d.pop_right(), Some(1));
        assert_eq!(d.pop_right(), None);
        assert_eq!(d.pop_left(), None);
    });
}

#[test]
fn lifo_from_each_end() {
    for_all_variants(|mk| {
        let d = mk(16);
        for i in 0..10 {
            d.push_right(i).unwrap();
        }
        for i in (0..10).rev() {
            assert_eq!(d.pop_right(), Some(i));
        }
        for i in 0..10 {
            d.push_left(i).unwrap();
        }
        for i in (0..10).rev() {
            assert_eq!(d.pop_left(), Some(i));
        }
    });
}

#[test]
fn fifo_across_ends() {
    for_all_variants(|mk| {
        let d = mk(16);
        for i in 0..10 {
            d.push_right(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(d.pop_left(), Some(i));
        }
        for i in 0..10 {
            d.push_left(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(d.pop_right(), Some(i));
        }
    });
}

#[test]
fn wraparound_many_revolutions() {
    // Run a window of 3 items around the ring many times in both
    // directions; exercises the modular index arithmetic.
    for_all_variants(|mk| {
        let d = mk(5);
        d.push_right(0).unwrap();
        d.push_right(1).unwrap();
        d.push_right(2).unwrap();
        for i in 3..100 {
            d.push_right(i).unwrap();
            assert_eq!(d.pop_left(), Some(i - 3));
        }
        for i in (0..97).rev() {
            d.push_left(i).unwrap();
            assert_eq!(d.pop_right(), Some(i + 3));
        }
    });
}

#[test]
fn full_then_pop_then_push_again() {
    for_all_variants(|mk| {
        let d = mk(3);
        d.push_right(1).unwrap();
        d.push_left(2).unwrap();
        d.push_right(3).unwrap();
        assert_eq!(d.push_right(4), Err(4));
        assert_eq!(d.pop_left(), Some(2));
        d.push_right(4).unwrap();
        assert_eq!(d.push_left(5), Err(5));
        assert_eq!(d.pop_right(), Some(4));
        assert_eq!(d.pop_right(), Some(3));
        assert_eq!(d.pop_right(), Some(1));
        assert_eq!(d.pop_right(), None);
    });
}

#[test]
fn typed_deque_boxes_values() {
    let d: ArrayDeque<String> = ArrayDeque::new(4);
    d.push_right("one".to_string()).unwrap();
    d.push_left("zero".to_string()).unwrap();
    assert_eq!(d.pop_left().as_deref(), Some("zero"));
    assert_eq!(d.pop_left().as_deref(), Some("one"));
    assert_eq!(d.pop_left(), None);
}

#[test]
fn typed_deque_full_returns_value() {
    let d: ArrayDeque<String, GlobalLock> = ArrayDeque::new(1);
    d.push_right("kept".to_string()).unwrap();
    let Full(v) = d.push_right("bounced".to_string()).unwrap_err();
    assert_eq!(v, "bounced");
}

#[test]
fn drop_releases_remaining_values() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    #[derive(Debug)]
    struct Probe;
    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    {
        let d: ArrayDeque<Probe, GlobalLock> = ArrayDeque::new(8);
        for _ in 0..5 {
            d.push_right(Probe).unwrap();
        }
        drop(d.pop_left().unwrap());
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }
    assert_eq!(DROPS.load(Ordering::SeqCst), 5);
}

#[test]
fn dcas_cost_one_per_uncontended_op() {
    // Uncontended pushes and pops complete in exactly one DCAS each (no
    // retries), and an empty pop costs exactly one (identity) DCAS.
    let d = RawArrayDeque::<u32, Counting<GlobalLock>>::new(8);
    d.push_right(1).unwrap();
    d.push_left(2).unwrap();
    assert_eq!(d.strategy().stats().dcas_attempts, 2);
    assert_eq!(d.strategy().stats().dcas_successes, 2);
    d.pop_right().unwrap();
    d.pop_left().unwrap();
    assert_eq!(d.strategy().stats().dcas_attempts, 4);
    assert_eq!(d.pop_left(), None);
    assert_eq!(d.strategy().stats().dcas_attempts, 5);
    assert_eq!(d.strategy().stats().dcas_successes, 5);
}

#[test]
#[should_panic(expected = "length_S >= 1")]
fn zero_capacity_rejected() {
    let _ = RawArrayDeque::<u32, GlobalLock>::new(0);
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

    /// Applies `ops` to both the implementation and a `VecDeque` model
    /// with the paper's sequential semantics, asserting equal outcomes.
    fn check_against_model<S: DcasStrategy>(cap: usize, ops: &[Op]) {
        let d = RawArrayDeque::<u32, S>::new(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match *op {
                Op::PushRight(v) => {
                    let expect = if model.len() < cap {
                        model.push_back(v);
                        Ok(())
                    } else {
                        Err(Full(v))
                    };
                    assert_eq!(d.push_right(v), expect);
                }
                Op::PushLeft(v) => {
                    let expect = if model.len() < cap {
                        model.push_front(v);
                        Ok(())
                    } else {
                        Err(Full(v))
                    };
                    assert_eq!(d.push_left(v), expect);
                }
                Op::PopRight => assert_eq!(d.pop_right(), model.pop_back()),
                Op::PopLeft => assert_eq!(d.pop_left(), model.pop_front()),
            }
        }
        assert_eq!(d.len_quiescent(), model.len());
    }

    proptest! {
        #[test]
        fn matches_vecdeque_model(
            cap in 1usize..12,
            ops in proptest::collection::vec(op_strategy(), 0..200),
        ) {
            check_against_model::<GlobalLock>(cap, &ops);
        }

        #[test]
        fn matches_vecdeque_model_without_strong_check(
            cap in 1usize..12,
            ops in proptest::collection::vec(op_strategy(), 0..200),
        ) {
            check_against_model::<HarrisMcas>(cap, &ops);
        }

        #[test]
        fn layout_invariant_contiguity(
            cap in 1usize..10,
            ops in proptest::collection::vec(op_strategy(), 0..120),
        ) {
            // The paper's representation invariant (Figure 18): the
            // non-null cells form a contiguous circular segment from
            // (L+1) to (R-1) inclusive.
            let d = RawArrayDeque::<u32, GlobalLock>::new(cap);
            for op in &ops {
                match *op {
                    Op::PushRight(v) => { let _ = d.push_right(v); }
                    Op::PushLeft(v) => { let _ = d.push_left(v); }
                    Op::PopRight => { let _ = d.pop_right(); }
                    Op::PopLeft => { let _ = d.pop_left(); }
                }
                let lay = d.layout();
                let count = lay.occupied.iter().filter(|&&o| o).count();
                // Walk from L+1 rightwards: the first `count` cells must
                // be exactly the occupied ones.
                for k in 0..cap {
                    let idx = (lay.l + 1 + k) % cap;
                    let expect = k < count;
                    prop_assert_eq!(
                        lay.occupied[idx], expect,
                        "non-contiguous occupancy {:?}", lay
                    );
                }
                // And R must close the segment.
                prop_assert_eq!((lay.l + 1 + count) % cap, lay.r);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Batched operations.
// ---------------------------------------------------------------------

fn for_all_strategies_batch(f: impl Fn(&dyn Fn(usize) -> BatchArray)) {
    fn mk<S: DcasStrategy + 'static>() -> impl Fn(usize) -> BatchArray {
        |n| Box::new(RawArrayDeque::<u32, S>::new(n))
    }
    f(&mk::<GlobalLock>());
    f(&mk::<HarrisMcas>());
}

type BatchArray = Box<dyn DynBatchDeque>;

/// Object-safe facade over the batched API.
trait DynBatchDeque: Send + Sync {
    fn push_right_n(&self, vals: Vec<u32>) -> Result<(), Vec<u32>>;
    fn push_left_n(&self, vals: Vec<u32>) -> Result<(), Vec<u32>>;
    fn pop_right_n(&self, n: usize) -> Vec<u32>;
    fn pop_left_n(&self, n: usize) -> Vec<u32>;
}

impl<S: DcasStrategy> DynBatchDeque for RawArrayDeque<u32, S> {
    fn push_right_n(&self, vals: Vec<u32>) -> Result<(), Vec<u32>> {
        RawArrayDeque::push_right_n(self, vals).map_err(|Full(r)| r)
    }
    fn push_left_n(&self, vals: Vec<u32>) -> Result<(), Vec<u32>> {
        RawArrayDeque::push_left_n(self, vals).map_err(|Full(r)| r)
    }
    fn pop_right_n(&self, n: usize) -> Vec<u32> {
        RawArrayDeque::pop_right_n(self, n)
    }
    fn pop_left_n(&self, n: usize) -> Vec<u32> {
        RawArrayDeque::pop_left_n(self, n)
    }
}

#[test]
fn batch_order_matches_repeated_singles() {
    // push_right_n([1,2,3]) == three pushRights => <1,2,3>;
    // push_left_n([4,5]) == two pushLefts => <5,4,1,2,3>.
    for_all_strategies_batch(|mk| {
        let d = mk(16);
        d.push_right_n(vec![1, 2, 3]).unwrap();
        d.push_left_n(vec![4, 5]).unwrap();
        assert_eq!(d.pop_left_n(2), vec![5, 4]);
        assert_eq!(d.pop_right_n(2), vec![3, 2]);
        // Short pop returns what's there.
        assert_eq!(d.pop_left_n(9), vec![1]);
        assert_eq!(d.pop_left_n(4), Vec::<u32>::new());
    });
}

#[test]
fn batch_spans_multiple_chunks() {
    for_all_strategies_batch(|mk| {
        let d = mk(64);
        let vals: Vec<u32> = (1..=30).collect();
        d.push_right_n(vals.clone()).unwrap();
        assert_eq!(d.pop_left_n(64), vals);
        d.push_left_n(vals.clone()).unwrap();
        let mut rev = vals.clone();
        rev.reverse();
        assert_eq!(d.pop_left_n(64), rev);
    });
}

#[test]
fn batch_full_hands_back_the_tail() {
    for_all_strategies_batch(|mk| {
        // Capacity 6: the ring holds at most 6 values.
        let d = mk(6);
        let res = d.push_right_n((1..=10).collect());
        let rest = res.unwrap_err();
        // Whatever was not pushed comes back, in order, and what was
        // pushed is still there, in order.
        let pushed = d.pop_left_n(10);
        let mut all = pushed.clone();
        all.extend(&rest);
        assert_eq!(all, (1..=10).collect::<Vec<u32>>());
        assert!(pushed.len() <= 6);
    });
}

#[test]
fn batch_on_capacity_one_deque() {
    for_all_strategies_batch(|mk| {
        let d = mk(1);
        let rest = d.push_right_n(vec![1, 2, 3]).unwrap_err();
        assert_eq!(rest, vec![2, 3]);
        assert_eq!(d.pop_right_n(3), vec![1]);
        assert_eq!(d.pop_left_n(1), Vec::<u32>::new());
    });
}

#[test]
fn batch_matches_vecdeque_model() {
    use std::collections::VecDeque;
    for_all_strategies_batch(|mk| {
        let d = mk(32);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut x = 0xB00Fu64;
        let mut nextv = 1u32;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = 1 + (x >> 18) as usize % 11;
            match (x >> 60) % 4 {
                0 => {
                    let vals: Vec<u32> = (nextv..nextv + k as u32).collect();
                    nextv += k as u32;
                    match d.push_right_n(vals.clone()) {
                        Ok(()) => model.extend(&vals),
                        Err(rest) => {
                            let pushed = vals.len() - rest.len();
                            model.extend(&vals[..pushed]);
                            assert_eq!(rest, vals[pushed..]);
                        }
                    }
                }
                1 => {
                    let vals: Vec<u32> = (nextv..nextv + k as u32).collect();
                    nextv += k as u32;
                    match d.push_left_n(vals.clone()) {
                        Ok(()) => vals.iter().for_each(|&v| model.push_front(v)),
                        Err(rest) => {
                            let pushed = vals.len() - rest.len();
                            vals[..pushed].iter().for_each(|&v| model.push_front(v));
                            assert_eq!(rest, vals[pushed..]);
                        }
                    }
                }
                2 => {
                    let got = d.pop_right_n(k);
                    let want: Vec<u32> =
                        (0..k).filter_map(|_| model.pop_back()).collect();
                    assert_eq!(got, want);
                }
                _ => {
                    let got = d.pop_left_n(k);
                    let want: Vec<u32> =
                        (0..k).filter_map(|_| model.pop_front()).collect();
                    assert_eq!(got, want);
                }
            }
        }
    });
}

#[test]
fn batch_concurrent_conservation() {
    // Unique values flow through batched pushes and pops from many
    // threads; every value must come out exactly once.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    for_all_strategies_batch(|mk| {
        let d = mk(64);
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
                        let mut batch: Vec<u32> = (v..=hi).collect();
                        loop {
                            match if t == 0 {
                                d.push_right_n(batch)
                            } else {
                                d.push_left_n(batch)
                            } {
                                Ok(()) => break,
                                Err(rest) => {
                                    batch = rest;
                                    std::thread::yield_now();
                                }
                            }
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
                        let vals = if t == 0 { d.pop_left_n(k) } else { d.pop_right_n(k) };
                        let drained = vals.is_empty();
                        got.extend(vals);
                        k = k % 9 + 1;
                        if drained && produced.load(Ordering::Relaxed) == 2 * PER as u64 {
                            // All pushes have committed; one final sweep of
                            // both ends (keeping anything found) confirms
                            // emptiness at a single linearization point.
                            let l = d.pop_left_n(MAX_BATCH);
                            let r = d.pop_right_n(MAX_BATCH);
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
fn same_end_push_pop_races_conserve() {
    use std::sync::Mutex;
    // Same-end push/pop races on a small deque (constant boundary
    // traffic): every pushed value is popped exactly once.
    let d = RawArrayDeque::<u32, HarrisMcas>::new(8);
    let popped = Mutex::new(Vec::<u32>::new());
    // Poppers must outlive the pushers: an idle-countdown exit can fire
    // while the pushers are descheduled on a single CPU, after which the
    // pushers spin on Full forever. `done` flips only once every push
    // has completed, so a None popped afterwards proves empty-forever.
    let done = std::sync::atomic::AtomicBool::new(false);
    const PER: u32 = 20_000;
    std::thread::scope(|s| {
        let mut pushers = Vec::new();
        for t in 0..2u32 {
            let d = &d;
            pushers.push(s.spawn(move || {
                for v in (t * PER + 1)..=(t + 1) * PER {
                    let mut v = v;
                    loop {
                        match RawArrayDeque::push_right(d, v) {
                            Ok(()) => break,
                            Err(Full(back)) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        for _ in 0..2 {
            let d = &d;
            let popped = &popped;
            let done = &done;
            s.spawn(move || {
                let mut got = Vec::new();
                loop {
                    match RawArrayDeque::pop_right(d) {
                        Some(v) => got.push(v),
                        None => {
                            if done.load(std::sync::atomic::Ordering::Acquire) {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                popped.lock().unwrap().extend(got);
            });
        }
        for p in pushers {
            p.join().unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Release);
    });
    let mut rest = d.pop_left_n(16);
    let mut all = popped.into_inner().unwrap();
    all.append(&mut rest);
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "duplicate values popped");
    assert_eq!(all.len(), 2 * PER as usize, "values lost");
}

#[test]
fn batch_push_panicking_iterator_leaks_nothing() {
    // A value iterator that panics mid-chunk (modeling a throwing
    // `Clone`) must release every value it already encoded and leave
    // the deque exactly as it was — no leaked boxes, no claimed cells.
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
    let d: RawArrayDeque<Boxed<Counted>, HarrisMcas> = RawArrayDeque::new(32);
    for _ in 0..2 {
        assert!(d.push_right(Boxed::new(Counted::new(&live))).is_ok());
    }
    assert_eq!(live.load(Ordering::SeqCst), 2);

    // Panics while the first chunk is still being encoded: nothing from
    // the batch may be pushed or leaked.
    let l2 = live.clone();
    let res = catch_unwind(AssertUnwindSafe(|| {
        d.push_right_n((0..6).map(|i| {
            if i == 4 {
                panic!("mid-batch");
            }
            Boxed::new(Counted::new(&l2))
        }))
    }));
    assert!(res.is_err());
    assert_eq!(live.load(Ordering::SeqCst), 2, "encoded batch values leaked");
    assert_eq!(d.len_quiescent(), 2, "partial chunk reached the deque");

    // Panics after the first full chunk: that chunk committed (it is a
    // prefix, exactly as if the iterator ended there), the partial
    // second chunk is released.
    let l3 = live.clone();
    let res = catch_unwind(AssertUnwindSafe(|| {
        d.push_left_n((0..MAX_BATCH + 3).map(|i| {
            if i == MAX_BATCH + 2 {
                panic!("cross-chunk");
            }
            Boxed::new(Counted::new(&l3))
        }))
    }));
    assert!(res.is_err());
    assert_eq!(live.load(Ordering::SeqCst), 2 + MAX_BATCH as isize);
    assert_eq!(d.len_quiescent(), 2 + MAX_BATCH);

    // The deque remains fully operational afterwards.
    assert!(d.push_right(Boxed::new(Counted::new(&live))).is_ok());
    while d.pop_left().is_some() {}
    assert_eq!(d.len_quiescent(), 0);
    drop(d);
    assert_eq!(live.load(Ordering::SeqCst), 0);
}
