//! Sequential cross-implementation agreement: every deque in the
//! workspace, driven through the same randomized operation sequences,
//! must return exactly the same results (with capacity-aware expectations
//! for the bounded ones). This pins all six implementations to one
//! another and to `VecDeque`, complementing the per-implementation
//! property tests.

use std::collections::VecDeque;

use dcas::{GlobalLock, HarrisMcas};
use dcas_deques::baselines::{GreenwaldDeque, MutexDeque};
use dcas_deques::deque::{ArrayDeque, DummyListDeque, LfrcListDeque, ListDeque};
use dcas_deques::prelude::ConcurrentDeque;

const CAP: usize = 8;

fn bounded_impls() -> Vec<Box<dyn ConcurrentDeque<u64>>> {
    vec![
        Box::new(ArrayDeque::<u64, HarrisMcas>::new(CAP)),
        Box::new(ArrayDeque::<u64, GlobalLock>::new(CAP)),
        Box::new(GreenwaldDeque::<u64, HarrisMcas>::new(CAP)),
        Box::new(MutexDeque::<u64>::bounded(CAP)),
    ]
}

fn unbounded_impls() -> Vec<Box<dyn ConcurrentDeque<u64>>> {
    vec![
        Box::new(ListDeque::<u64, HarrisMcas>::new()),
        Box::new(ListDeque::<u64, GlobalLock>::new()),
        Box::new(ListDeque::<u64, dcas::HarrisMcasHazard>::new()),
        Box::new(DummyListDeque::<u64, HarrisMcas>::new()),
        Box::new(LfrcListDeque::<u64, HarrisMcas>::new()),
        Box::new(MutexDeque::<u64>::new()),
    ]
}

#[inline]
fn split_mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Drives `deques` and a `VecDeque` model through one random sequence.
fn drive(deques: Vec<Box<dyn ConcurrentDeque<u64>>>, cap: Option<usize>, seed: u64, ops: u32) {
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut rng = seed;
    for i in 0..ops {
        let r = split_mix(&mut rng);
        let v = i as u64;
        match r % 4 {
            0 => {
                let expect_ok = cap.is_none_or(|c| model.len() < c);
                if expect_ok {
                    model.push_back(v);
                }
                for d in &deques {
                    let got = d.push_right(v).is_ok();
                    assert_eq!(got, expect_ok, "{} pushRight({v}) @op{i}", d.impl_name());
                }
            }
            1 => {
                let expect_ok = cap.is_none_or(|c| model.len() < c);
                if expect_ok {
                    model.push_front(v);
                }
                for d in &deques {
                    let got = d.push_left(v).is_ok();
                    assert_eq!(got, expect_ok, "{} pushLeft({v}) @op{i}", d.impl_name());
                }
            }
            2 => {
                let expect = model.pop_back();
                for d in &deques {
                    assert_eq!(d.pop_right(), expect, "{} popRight @op{i}", d.impl_name());
                }
            }
            _ => {
                let expect = model.pop_front();
                for d in &deques {
                    assert_eq!(d.pop_left(), expect, "{} popLeft @op{i}", d.impl_name());
                }
            }
        }
    }
    // Drain everything and compare the final contents.
    loop {
        let expect = model.pop_front();
        for d in &deques {
            assert_eq!(d.pop_left(), expect, "{} final drain", d.impl_name());
        }
        if expect.is_none() {
            break;
        }
    }
}

#[test]
fn bounded_implementations_agree() {
    for seed in [1u64, 42, 0xDEC, 0xFEED, 31_337] {
        drive(bounded_impls(), Some(CAP), seed, 600);
    }
}

#[test]
fn unbounded_implementations_agree() {
    for seed in [2u64, 43, 0xDED, 0xBEEF, 31_338] {
        drive(unbounded_impls(), None, seed, 600);
    }
}

#[test]
fn push_heavy_fills_bounded_to_capacity() {
    // A push-only prefix drives every bounded impl to Full at the same
    // instant.
    let deques = bounded_impls();
    for i in 0..(CAP as u64) {
        for d in &deques {
            d.push_right(i).unwrap();
        }
    }
    for d in &deques {
        assert!(d.push_right(99).is_err(), "{} should be full", d.impl_name());
        assert!(d.push_left(99).is_err(), "{} should be full", d.impl_name());
    }
    for i in 0..(CAP as u64) {
        for d in &deques {
            assert_eq!(d.pop_left(), Some(i), "{}", d.impl_name());
        }
    }
}
