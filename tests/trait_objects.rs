//! The `ConcurrentDeque` trait is object-safe: all implementations can be
//! driven uniformly behind `dyn` — the pattern the stress driver and
//! examples rely on.

use dcas::{GlobalLock, HarrisMcas};
use dcas_deques::baselines::{GreenwaldDeque, MutexDeque};
use dcas_deques::deque::{ArrayDeque, DummyListDeque, LfrcListDeque, ListDeque};
use dcas_deques::prelude::ConcurrentDeque;

fn all_deques() -> Vec<Box<dyn ConcurrentDeque<u64>>> {
    vec![
        Box::new(ArrayDeque::<u64, HarrisMcas>::new(64)),
        Box::new(ArrayDeque::<u64, GlobalLock>::new(64)),
        Box::new(ListDeque::<u64, HarrisMcas>::new()),
        Box::new(DummyListDeque::<u64, HarrisMcas>::new()),
        Box::new(LfrcListDeque::<u64, HarrisMcas>::new()),
        Box::new(GreenwaldDeque::<u64, HarrisMcas>::new(64)),
        Box::new(MutexDeque::<u64>::new()),
    ]
}

#[test]
fn names_are_distinct() {
    let deques = all_deques();
    let mut names: Vec<&str> = deques.iter().map(|d| d.impl_name()).collect();
    let before = names.len();
    names.sort();
    names.dedup();
    // Two array-deque strategy instantiations share a name; all algorithm
    // families are distinct.
    assert!(names.len() >= before - 1, "too many duplicate names: {names:?}");
}

#[test]
fn uniform_semantics_through_dyn() {
    for d in all_deques() {
        let name = d.impl_name();
        // The paper's worked example through the trait object.
        d.push_right(1).unwrap();
        d.push_left(2).unwrap();
        d.push_right(3).unwrap();
        assert_eq!(d.pop_left(), Some(2), "{name}");
        assert_eq!(d.pop_left(), Some(1), "{name}");
        assert_eq!(d.pop_right(), Some(3), "{name}");
        assert_eq!(d.pop_right(), None, "{name}");
        assert_eq!(d.pop_left(), None, "{name}");
    }
}

#[test]
fn mixed_fifo_order_through_dyn() {
    for d in all_deques() {
        let name = d.impl_name();
        for i in 0..40 {
            d.push_right(i).unwrap();
        }
        for i in 0..40 {
            assert_eq!(d.pop_left(), Some(i), "{name}");
        }
    }
}

fn roomy_deques() -> Vec<Box<dyn ConcurrentDeque<u64>>> {
    vec![
        Box::new(ArrayDeque::<u64, HarrisMcas>::new(1024)),
        Box::new(ListDeque::<u64, HarrisMcas>::new()),
        Box::new(DummyListDeque::<u64, HarrisMcas>::new()),
        Box::new(LfrcListDeque::<u64, HarrisMcas>::new()),
        Box::new(GreenwaldDeque::<u64, HarrisMcas>::new(1024)),
        Box::new(MutexDeque::<u64>::new()),
    ]
}

#[test]
fn shared_across_threads_as_dyn() {
    for d in roomy_deques() {
        let d: std::sync::Arc<dyn ConcurrentDeque<u64>> = d.into();
        let name = d.impl_name();
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let d = d.clone();
                s.spawn(move || {
                    for i in 0..200 {
                        d.push_right(t * 1000 + i).unwrap();
                    }
                });
            }
        });
        let mut count = 0;
        while d.pop_left().is_some() {
            count += 1;
        }
        assert_eq!(count, 600, "{name}");
        // A drained deque answers empty at the other end too.
        assert_eq!(d.pop_right(), None, "{name}");
    }
}
