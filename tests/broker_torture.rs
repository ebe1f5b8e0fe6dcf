//! Broker shard death through the *real* fault machinery: a consumer
//! thread arms a PR 3 `FaultPlan` that panics out of an MCAS operation
//! mid-consume, the broker's panic guard retires the shard it was
//! touching, rescues its contents onto survivors, and the system keeps
//! serving — with exact conservation provable from the outside.
//!
//! `faulted_consumer_retires_shard_and_conserves` is the organic kill:
//! nothing calls kill explicitly; the shard dies because a strategy
//! operation genuinely unwound through it.
//! `killed_shard_mid_run_conserves_and_survivor_linearizes` takes the
//! administrative `kill_shard` path instead, in the middle of a pulsed
//! run with consumers racing the rescue, and audits a surviving shard's
//! recorded trace for linearizability.
//!
//! The root package's dev-dependencies enable `dcas/fault-inject`, so
//! the `ListDeque<_, HarrisMcas>` shards here carry live fault points.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use dcas::fault::{self, FaultLog};
use dcas::{FaultPlan, FaultPoint, KillKind};
use dcas_deques::prelude::*;

const SHARDS: usize = 4;
const TOTAL: u64 = 4_096;
const CONSUMERS: usize = 2;

#[test]
fn faulted_consumer_retires_shard_and_conserves() {
    let broker: ShardedBroker<u64, _> = ShardedBroker::unbounded_list(SHARDS);

    // Fill all shards round-robin before any fault is armed, so the
    // victim shard (whichever one the doomed consumer is touching when
    // the kill fires) is guaranteed to hold rescuable values.
    let mut p = broker.producer();
    for v in 0..TOTAL {
        p.send(v).expect("unbounded shards never backpressure");
    }
    drop(p); // flush the final partial batch

    let consumed = AtomicU64::new(0);
    let (values, kill_log) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..CONSUMERS as u64 {
            let (broker, consumed) = (&broker, &consumed);
            handles.push(s.spawn(move || {
                // Thread 0 is doomed: after 40 effect-free PreInstall
                // hits (a handful of consume batches), its next MCAS
                // unwinds. The broker's guard catches the panic, marks
                // the shard it was operating on dead, and rescues.
                let plan = if tid == 0 {
                    FaultPlan::new(0xB40C).kill(FaultPoint::PreInstall, 40, KillKind::Panic)
                } else {
                    FaultPlan::new(0xB40C)
                };
                let guard = fault::arm(&plan, tid);
                let mut c = broker.consumer();
                let mut got = Vec::new();
                loop {
                    match c.recv() {
                        Some(v) => {
                            got.push(v);
                            consumed.fetch_add(1, Ordering::AcqRel);
                        }
                        None => {
                            if consumed.load(Ordering::Acquire) == TOTAL {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                (got, guard.log())
            }));
        }
        let mut values: Vec<u64> = Vec::new();
        let mut kill_log: Option<Arc<FaultLog>> = None;
        for (tid, h) in handles.into_iter().enumerate() {
            let (got, log) = h.join().expect("consumer threads never unwind — the guard eats the kill");
            values.extend(got);
            if tid == 0 {
                kill_log = Some(log);
            }
        }
        (values, kill_log.unwrap())
    });

    // The kill actually fired and was delivered as a panic...
    assert!(kill_log.is_panicked(), "fault plan never delivered: {}", kill_log.describe());
    // ...and the broker translated it into exactly one shard death.
    let stats = broker.stats();
    assert_eq!(stats.shard_deaths, 1, "panic did not retire a shard");
    assert_eq!(broker.alive_shards(), SHARDS - 1);

    // Exact conservation across the death: every value exactly once.
    assert_eq!(values.len() as u64, TOTAL, "lost or duplicated values across shard death");
    let distinct: HashSet<u64> = values.iter().copied().collect();
    assert_eq!(distinct.len() as u64, TOTAL, "duplicated values across shard death");
    assert!(values.iter().all(|&v| v < TOTAL));

    // Survivors keep serving: a fresh batch routes around the corpse.
    let mut p = broker.producer();
    for v in 0..64u64 {
        p.send(TOTAL + v).expect("survivors must accept");
    }
    drop(p);
    let mut c = broker.consumer();
    let mut after = 0;
    while c.recv().is_some() {
        after += 1;
    }
    drop(c);
    assert_eq!(after, 64, "survivors failed to serve after the death");
}

/// Shard count of the administrative kill run.
const KILL_SHARDS: usize = 4;
/// Pulsed rounds of the administrative kill run; the kill lands at the
/// midpoint.
const KILL_ROUNDS: usize = 40;
/// Values each producer sends per round.
const PER_ROUND: usize = 24;
/// Producer and consumer threads of the administrative kill run.
const KILL_PRODUCERS: usize = 2;
const KILL_CONSUMERS: usize = 2;
/// Checker window cap (matches `recorded_linearizability`).
const MAX_WINDOW: usize = 48;

/// Pulsed unique-value traffic over 4 `Recorded` list shards; shard 1
/// is administratively killed in the middle of the run, and the rescue
/// races the next round's consumers. Every value must be served exactly
/// once, the kill must have rescued a real backlog, and shard 0's
/// recorded trace (producer batches, consumer batch-pops, any rescue
/// republish that landed there) must linearize.
#[cfg(feature = "obs")]
#[test]
fn killed_shard_mid_run_conserves_and_survivor_linearizes() {
    use dcas_deques::broker::FlatShard;
    use dcas_deques::linearize::SeqDeque;
    use dcas_deques::obs::{audit, Recorded};

    // Threads touching any one shard: producers + consumers + the main
    // thread (kill/rescue + final drain).
    let threads = KILL_PRODUCERS + KILL_CONSUMERS + 1;
    let ring_capacity = KILL_ROUNDS * 4 * MAX_WINDOW;
    let broker: ShardedBroker<u64, FlatShard<Recorded<ListDeque<u64>>>> =
        ShardedBroker::with_shards(KILL_SHARDS, |_| {
            FlatShard(Recorded::with_atomic_batches(ListDeque::new(), threads, ring_capacity))
        });

    let kill_round = KILL_ROUNDS / 2;
    let barrier = Barrier::new(KILL_PRODUCERS + KILL_CONSUMERS + 1);
    let mut consumed: Vec<u64> = std::thread::scope(|s| {
        let mut consumer_handles = Vec::new();
        for _ in 0..KILL_CONSUMERS {
            let (broker, barrier) = (&broker, &barrier);
            consumer_handles.push(s.spawn(move || {
                let mut c = broker.consumer();
                let mut got = Vec::new();
                for round in 0..KILL_ROUNDS {
                    barrier.wait();
                    // Before the kill, consumers under-serve (3/4 of the
                    // arrival rate) so every shard — the victim included —
                    // holds a backlog when the kill lands and the rescue
                    // has real work to move. Afterwards they over-serve
                    // to drain it.
                    let attempts = if round < kill_round {
                        PER_ROUND * 3 / 4
                    } else {
                        PER_ROUND * 2
                    };
                    for _ in 0..attempts {
                        got.extend(c.recv());
                    }
                    barrier.wait();
                }
                // The consumer returns its stash to the broker on drop;
                // the final drain below collects it.
                got
            }));
        }
        for p in 0..KILL_PRODUCERS as u64 {
            let (broker, barrier) = (&broker, &barrier);
            s.spawn(move || {
                let mut prod = broker.producer();
                let mut next = p << 32;
                for _ in 0..KILL_ROUNDS {
                    barrier.wait();
                    for _ in 0..PER_ROUND {
                        prod.send(next).expect("unbounded shard backpressured");
                        next += 1;
                    }
                    prod.flush().expect("unbounded shard backpressured");
                    barrier.wait();
                }
            });
        }
        // Main: pulse the rounds; kill shard 1 inside the quiescent gap
        // of the middle round, so the rescue races the next pulse's
        // consumers while the shard traces keep their quiescent cuts at
        // the barriers.
        for round in 0..KILL_ROUNDS {
            barrier.wait();
            if round == kill_round {
                broker.kill_shard(1);
            }
            barrier.wait();
        }
        consumer_handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    // Survivors keep serving after the kill: a fresh producer's values
    // must come back out.
    let mut post = broker.producer();
    for v in 0..64u64 {
        post.send((1 << 60) | v).expect("survivors must accept");
    }
    post.flush().expect("survivors must accept");
    drop(post);
    consumed.extend(broker.drain_remaining());

    let sent = (KILL_PRODUCERS * KILL_ROUNDS * PER_ROUND) as u64 + 64;
    let distinct: HashSet<u64> = consumed.iter().copied().collect();
    assert_eq!(consumed.len() as u64, sent, "kill lost or duplicated values");
    assert_eq!(distinct.len() as u64, sent, "kill duplicated values");
    let stats = broker.stats();
    assert_eq!(stats.shard_deaths, 1);
    assert_eq!(broker.alive_shards(), KILL_SHARDS - 1);
    assert!(
        stats.rescued > 0,
        "kill landed on an empty shard — the under-serving pacing should \
         guarantee a victim backlog"
    );

    let report = audit(broker.shard(0).0.recorder(), SeqDeque::unbounded(), MAX_WINDOW)
        .unwrap_or_else(|e| panic!("audit failed on surviving shard 0: {e}"));
    assert!(report.window.ops_checked > 0, "shard 0 recorded no traffic");
    assert_eq!(report.trace.in_flight_excluded, 0, "ops left in flight");
}
