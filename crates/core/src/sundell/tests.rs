//! Unit tests for the Sundell–Tsigas CAS-only deque: sequential
//! semantics across every strategy, a VecDeque model check, value/node
//! accounting on drop, and concurrent conservation smokes under both
//! reclamation backends.

use dcas::{Counting, DcasStrategy, GlobalLock, HarrisMcas, HarrisMcasHazard};

use super::{RawSundellDeque, SundellDeque};

fn for_all_strategies(f: impl Fn(Box<dyn Fn() -> Box<dyn DynDeque>>)) {
    f(Box::new(|| {
        Box::new(RawSundellDeque::<u32, GlobalLock>::new())
    }));
    f(Box::new(|| {
        Box::new(RawSundellDeque::<u32, HarrisMcas>::new())
    }));
    f(Box::new(|| {
        Box::new(RawSundellDeque::<u32, HarrisMcasHazard>::new())
    }));
}

trait DynDeque {
    fn push_right(&self, v: u32);
    fn push_left(&self, v: u32);
    fn pop_right(&self) -> Option<u32>;
    fn pop_left(&self) -> Option<u32>;
}

impl<S: DcasStrategy> DynDeque for RawSundellDeque<u32, S> {
    fn push_right(&self, v: u32) {
        RawSundellDeque::push_right(self, v).unwrap();
    }
    fn push_left(&self, v: u32) {
        RawSundellDeque::push_left(self, v).unwrap();
    }
    fn pop_right(&self) -> Option<u32> {
        RawSundellDeque::pop_right(self)
    }
    fn pop_left(&self) -> Option<u32> {
        RawSundellDeque::pop_left(self)
    }
}

#[test]
fn running_example() {
    for_all_strategies(|mk| {
        let d = mk();
        d.push_right(1);
        d.push_left(2);
        d.push_right(3);
        assert_eq!(d.pop_left(), Some(2));
        assert_eq!(d.pop_left(), Some(1));
        assert_eq!(d.pop_left(), Some(3));
        assert_eq!(d.pop_left(), None);
        assert_eq!(d.pop_right(), None);
    });
}

#[test]
fn single_element_popped_from_far_side() {
    for_all_strategies(|mk| {
        let d = mk();
        d.push_right(9);
        assert_eq!(d.pop_right(), Some(9));
        assert_eq!(d.pop_left(), None);
        assert_eq!(d.pop_left(), None);
        d.push_left(4);
        assert_eq!(d.pop_right(), Some(4));
        assert_eq!(d.pop_right(), None);
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
fn cas_only_claim() {
    // The whole point of the algorithm: no DCAS, no CASN, ever. The
    // counting wrapper proves the multi-word paths stay cold.
    use crate::value::WordValue;
    let d = RawSundellDeque::<u32, Counting<GlobalLock>>::new();
    for i in 0..20 {
        d.push_right(i).unwrap();
        d.push_left(i).unwrap();
    }
    for _ in 0..10 {
        d.pop_left();
        d.pop_right();
    }
    // Left half <9..0> from the push_lefts, right half <0..9> from the
    // push_rights.
    assert_eq!(
        d.live_words(),
        (0..10)
            .rev()
            .chain(0..10)
            .map(|v: u32| v.encode())
            .collect::<Vec<_>>()
    );
    let s = d.strategy().stats();
    assert_eq!(s.dcas_attempts, 0, "sundell must never issue a DCAS");
    assert!(s.cas_attempts > 0);
}

#[test]
fn typed_deque_with_strings() {
    let d: SundellDeque<String> = SundellDeque::new();
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
        let d: SundellDeque<Probe, GlobalLock> = SundellDeque::new();
        for _ in 0..6 {
            d.push_right(Probe).unwrap();
        }
        drop(d.pop_left().unwrap());
        drop(d.pop_right().unwrap());
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
    assert_eq!(DROPS.load(Ordering::SeqCst), 6);
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
            use crate::value::WordValue;
            let d = RawSundellDeque::<u32, GlobalLock>::new();
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
            let want: Vec<u64> = model.iter().map(|&v| v.encode()).collect();
            prop_assert_eq!(d.live_words(), want);
        }
    }
}

/// Mixed-ends concurrent conservation: every pushed value pops exactly
/// once, across both ends, for the given strategy.
fn concurrent_conservation<S: DcasStrategy + 'static>() {
    use std::sync::Arc;
    use std::sync::Mutex;
    let d: Arc<RawSundellDeque<u32, S>> = Arc::new(RawSundellDeque::new());
    let popped = Mutex::new(Vec::<u32>::new());
    const PER: u32 = 5_000;
    std::thread::scope(|s| {
        for t in 0..2u32 {
            let d = Arc::clone(&d);
            s.spawn(move || {
                for v in (t * PER)..(t + 1) * PER {
                    if v % 2 == 0 {
                        d.push_right(v).unwrap();
                    } else {
                        d.push_left(v).unwrap();
                    }
                }
            });
        }
        for t in 0..2u32 {
            let d = Arc::clone(&d);
            let popped = &popped;
            s.spawn(move || {
                let mut got = Vec::new();
                let mut idle = 0;
                while idle < 20_000 {
                    let v = if t == 0 { d.pop_left() } else { d.pop_right() };
                    match v {
                        Some(v) => {
                            got.push(v);
                            idle = 0;
                        }
                        None => idle += 1,
                    }
                }
                popped.lock().unwrap().extend(got);
            });
        }
    });
    let mut all = popped.into_inner().unwrap();
    while let Some(v) = d.pop_left() {
        all.push(v);
    }
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "duplicate values popped");
    assert_eq!(all.len(), 2 * PER as usize, "values lost");
}

#[test]
fn concurrent_conservation_epoch() {
    concurrent_conservation::<HarrisMcas>();
    // The epoch backend drains its deferred queue on demand.
    use dcas::{EpochReclaimer, Reclaimer};
    for _ in 0..4 {
        EpochReclaimer::flush();
    }
}

#[test]
fn concurrent_conservation_hazard() {
    concurrent_conservation::<HarrisMcasHazard>();
    use dcas::{HazardReclaimer, Reclaimer};
    HazardReclaimer::flush();
    assert!(
        HazardReclaimer::live_garbage() <= dcas::reclaim::hazard::static_garbage_bound(),
        "hazard live garbage exceeds the static bound after flush"
    );
}

#[test]
fn concurrent_conservation_locked() {
    concurrent_conservation::<GlobalLock>();
}

/// Page-pool nodes behind the deque semantics: interleaved two-ended
/// traffic drains to the exact push count. Named `pooled_` so CI's
/// allocator suite selects the per-family pool units.
#[test]
fn pooled_nodes_drain_to_push_count() {
    let d = SundellDeque::<u32>::new();
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
