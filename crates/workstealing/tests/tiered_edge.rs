//! Edge-case tests for [`TieredDeque`]: the seams between the private
//! tier, the staging buffer, and the shared linearizable level.
//!
//! The interesting states all live at tier boundaries — a tier exactly
//! at its spill threshold, a refill racing a thief, an empty tier
//! falling through to the shared level, a bounded shared level
//! rejecting a spill — and a property test checks the whole
//! single-owner surface against a sequential `VecDeque` oracle.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use dcas_baselines::MutexDeque;
use dcas_deque::{ArrayDeque, ConcurrentDeque, ListDeque, MAX_BATCH};
use dcas_workstealing::{TieredDeque, RING_CAP};
use proptest::prelude::*;

fn tiered() -> TieredDeque<u64, ListDeque<u64>> {
    TieredDeque::new(ListDeque::new())
}

// ---------------------------------------------------------------------
// Deterministic boundary cases
// ---------------------------------------------------------------------

#[test]
fn empty_tier_pop_falls_through_to_shared() {
    // Work sitting only in the shared level (as after a cross-worker
    // steal_half re-queue... or here, planted directly) must be
    // reachable through `pop` via the refill path.
    let d = tiered();
    for v in 0..10u64 {
        d.shared().push_right(v).unwrap();
    }
    // Refill pulls a chunk from the shared right end; pop order within
    // what was a right-end run is newest-first (LIFO), and conservation
    // is exact.
    let mut got = Vec::new();
    while let Some(v) = d.pop() {
        got.push(v);
    }
    got.sort_unstable();
    assert_eq!(got, (0..10).collect::<Vec<_>>());
}

#[test]
fn capacity_boundary_spill_preserves_oldest_first() {
    // Pushing one past RING_CAP into an empty shared level must spill
    // exactly one MAX_BATCH chunk of the *oldest* values, leaving the
    // newest in the tier.
    let d = tiered();
    for v in 0..(RING_CAP as u64 + 1) {
        d.push(v).unwrap();
    }
    // The shared level now holds the oldest chunk, oldest at the left.
    let spilled = d.shared().pop_left_n(MAX_BATCH);
    assert_eq!(spilled, (0..MAX_BATCH as u64).collect::<Vec<_>>());
    assert!(d.shared().pop_left().is_none(), "exactly one chunk spills");
    // Owner still pops the rest LIFO.
    assert_eq!(d.pop(), Some(RING_CAP as u64));
}

#[test]
fn chaselev_tier_steal_without_spill() {
    // The whole point of the Chase-Lev tier: work is stealable *before*
    // any spill. Oldest value first, provenance counted as private.
    let d = tiered();
    for v in 0..4u64 {
        d.push(v).unwrap();
    }
    assert_eq!(d.steal(), Some(0));
    assert_eq!(d.steal(), Some(1));
    let (private, shared) = d.tier_steals();
    assert_eq!((private, shared), (2, 0));
    assert_eq!(d.pop(), Some(3), "owner end untouched by steals");
}

#[test]
fn tiny_bounded_shared_level_rejects_spill_and_conserves() {
    // A capacity-2 shared level accepts 2 of a spilled batch and
    // rejects the rest: `push` must hand one value back (the newest)
    // for the caller to run inline, return the other rejects to the
    // tier, and lose nothing.
    let d: TieredDeque<u64, ArrayDeque<u64>> = TieredDeque::new(ArrayDeque::new(2));
    let mut kept = Vec::new();
    let mut out = Vec::new();
    let mut next = 0u64;
    for round in 0..4 {
        // Push until a spill into the (empty) shared level is rejected.
        loop {
            let v = next;
            next += 1;
            match d.push(v) {
                Ok(()) => kept.push(v),
                Err(back) => {
                    assert_eq!(back, v, "round {round}: the newest value comes back");
                    break;
                }
            }
            assert!(next < 100 * RING_CAP as u64, "round {round}: no spill was rejected");
        }
        // The shared level holds the 2 values it accepted; stealing
        // them empties it, so the next round spills into it again.
        let before = d.tier_steals();
        let stolen: Vec<u64> = std::iter::from_fn(|| d.steal()).take(2).collect();
        assert_eq!(d.tier_steals(), (before.0, before.1 + 2), "round {round}");
        if round == 0 {
            assert_eq!(next, RING_CAP as u64 + 1, "the first spill fires past RING_CAP");
            assert_eq!(stolen, vec![0, 1], "the spill takes the oldest values");
        }
        out.extend(stolen);
    }
    while let Some(v) = d.pop() {
        out.push(v);
    }
    out.sort_unstable();
    assert_eq!(out, kept, "values lost or duplicated around rejected spills");
}

#[test]
fn steal_half_prefers_shared_then_private() {
    let d = tiered();
    let n = (RING_CAP + MAX_BATCH) as u64;
    for v in 0..n {
        d.push(v).unwrap();
    }
    // At least one chunk spilled; the first steal_half must come from
    // the shared level (oldest work), later ones from the private tier.
    let first = d.steal_half();
    assert!(!first.is_empty());
    assert_eq!(first[0], 0, "shared level holds the oldest value");
    let mut seen: HashSet<u64> = first.into_iter().collect();
    loop {
        let batch = d.steal_half();
        if batch.is_empty() {
            break;
        }
        for v in batch {
            assert!(seen.insert(v), "value {v} delivered twice");
        }
    }
    let (private, shared) = d.tier_steals();
    assert!(private > 0, "some steals must hit the private tier");
    assert!(shared > 0, "some steals must hit the shared level");
    assert_eq!(private + shared, seen.len() as u64);
    assert_eq!(seen.len() as u64, n, "every value stolen exactly once");
}

#[test]
fn steal_races_inflight_refill_conserves_values() {
    // One owner cycles values through push/pop (triggering spills and
    // refills at the ring boundary) while a thief steals continuously.
    // Every value must come out exactly once, across both exits.
    for trial in 0..20u64 {
        let d = tiered();
        let n = 4 * RING_CAP as u64;
        let stop = AtomicBool::new(false);
        let start = Barrier::new(2);
        let (owner_got, thief_got) = std::thread::scope(|s| {
            let owner = s.spawn(|| {
                let mut got = Vec::new();
                start.wait();
                for v in 0..n {
                    d.push(v + trial * n).unwrap();
                    // Pop roughly half back, creating refill traffic.
                    if v % 2 == 0 {
                        if let Some(x) = d.pop() {
                            got.push(x);
                        }
                    }
                }
                // Drain what's left from the owner end.
                while let Some(x) = d.pop() {
                    got.push(x);
                }
                stop.store(true, Ordering::Release);
                got
            });
            let thief = s.spawn(|| {
                let mut got = Vec::new();
                start.wait();
                while !stop.load(Ordering::Acquire) {
                    got.extend(d.steal_half());
                }
                got
            });
            (owner.join().unwrap(), thief.join().unwrap())
        });
        // Post-join sweep: values can be parked in the shared level or
        // the tier after the owner's last pop returned None (a thief
        // may have re-ordered the race).
        let mut rest = d.flush_local();
        loop {
            let batch = d.steal_half();
            if batch.is_empty() {
                break;
            }
            rest.extend(batch);
        }
        let mut all: Vec<u64> = owner_got;
        all.extend(thief_got);
        all.extend(rest);
        all.sort_unstable();
        let expect: Vec<u64> = (trial * n..(trial + 1) * n).collect();
        assert_eq!(all, expect, "trial {trial}: conservation violated");
    }
}

// ---------------------------------------------------------------------
// Property test: single-owner surface vs a sequential oracle
// ---------------------------------------------------------------------

/// With no thieves, a `TieredDeque` is observationally a plain LIFO
/// stack for the owner, whatever the internal spill/refill traffic.
/// The oracle is a sequential `VecDeque` used stack-wise.
#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    Pop,
    /// Drain the deque through `flush_local` + shared pops and compare
    /// the *set* of survivors, then stop (terminal op).
    FlushCompare,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Unweighted union: repeat arms to bias (4 push : 2 pop : 1 flush).
    prop_oneof![
        any::<u64>().prop_map(Op::Push),
        any::<u64>().prop_map(Op::Push),
        any::<u64>().prop_map(Op::Push),
        any::<u64>().prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::FlushCompare),
    ]
}

fn run_against_oracle(d: &TieredDeque<u64, MutexDeque<u64>>, ops: &[Op]) {
    let mut oracle: Vec<u64> = Vec::new();
    for op in ops {
        match op {
            Op::Push(v) => {
                d.push(*v).unwrap();
                oracle.push(*v);
            }
            Op::Pop => {
                // Single-owner, no thieves: pop must agree with LIFO.
                assert_eq!(d.pop(), oracle.pop());
            }
            Op::FlushCompare => {
                let mut rest = d.flush_local();
                rest.extend(std::iter::from_fn(|| d.shared().pop_left()));
                rest.sort_unstable();
                oracle.sort_unstable();
                assert_eq!(rest, oracle, "drain mismatch");
                return;
            }
        }
    }
    // Final conservation check even without an explicit flush op.
    let mut rest = d.flush_local();
    rest.extend(std::iter::from_fn(|| d.shared().pop_left()));
    rest.sort_unstable();
    oracle.sort_unstable();
    assert_eq!(rest, oracle, "final drain mismatch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chaselev_tier_matches_sequential_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        let d: TieredDeque<u64, MutexDeque<u64>> = TieredDeque::new(MutexDeque::new());
        run_against_oracle(&d, &ops);
    }
}
