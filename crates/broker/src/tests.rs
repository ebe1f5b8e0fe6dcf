use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use super::*;

#[test]
fn fib_routing_is_stable_and_spreads() {
    let broker: ShardedBroker<u64, _> = ShardedBroker::unbounded_list(8);
    let mut hits = [0usize; 8];
    for key in 0..4096u64 {
        let a = broker.route(key);
        let b = broker.route(key);
        assert_eq!(a, b, "routing must be deterministic");
        hits[a] += 1;
    }
    // Fibonacci hashing scatters consecutive keys near-evenly: every
    // shard gets within 2x of the fair share.
    for (i, &h) in hits.iter().enumerate() {
        assert!(
            h > 256 && h < 1024,
            "shard {i} got {h}/4096 — routing is lumpy: {hits:?}"
        );
    }
}

#[test]
fn keyed_sends_stay_on_one_shard() {
    let broker: ShardedBroker<u64, _> = ShardedBroker::unbounded_list(4);
    let mut p = broker.producer();
    for v in 0..100u64 {
        p.send_keyed(7, v).unwrap();
    }
    p.flush().unwrap();
    let target = broker.route(7);
    // All 100 values sit on the routed shard, in FIFO order.
    let mut all = Vec::new();
    loop {
        let more = broker.shard(target).consume_batch(MAX_BATCH);
        if more.is_empty() {
            break;
        }
        all.extend(more);
    }
    assert_eq!(all, (0..100u64).collect::<Vec<_>>());
    for i in 0..4 {
        if i != target {
            assert!(broker.shard(i).consume_one().is_none());
        }
    }
}

#[test]
fn round_robin_spreads_and_drains_conserve() {
    let broker: ShardedBroker<u64, _> = ShardedBroker::unbounded_list(4);
    let mut p = broker.producer();
    for v in 0..1000u64 {
        p.send(v).unwrap();
    }
    p.flush().unwrap();
    // Every shard saw traffic.
    for i in 0..4 {
        assert!(
            broker.shard(i).consume_one().is_some(),
            "shard {i} never targeted by round-robin"
        );
    }
    let drained = broker.drain_remaining();
    assert_eq!(drained.len(), 1000 - 4);
    let stats = broker.stats();
    assert_eq!(stats.sent, 1000);
    assert!(stats.sent_batches >= 1000 / MAX_BATCH as u64);
}

#[test]
fn consumer_prefers_home_then_rebalances() {
    let broker: ShardedBroker<u64, _> = ShardedBroker::unbounded_list(2);
    let mut p = broker.producer();
    for v in 0..64u64 {
        p.send(v).unwrap();
    }
    p.flush().unwrap();
    let mut c = broker.consumer();
    assert_eq!(c.home_shard(), 0);
    let mut got = Vec::new();
    while let Some(v) = c.recv() {
        got.push(v);
    }
    got.sort_unstable();
    assert_eq!(got, (0..64).collect::<Vec<_>>());
    let stats = broker.stats();
    assert!(stats.recv_home > 0, "home shard never drained");
    assert!(stats.recv_rebalanced > 0, "rebalance never kicked in");
    assert_eq!(stats.received, 64);
}

#[test]
fn backpressure_carries_every_rejected_value() {
    let broker: ShardedBroker<u64, _> = ShardedBroker::bounded_array(2, 16);
    let mut p = broker.producer();
    let mut accepted = 0u64;
    let mut rejected = Vec::new();
    for v in 0..100u64 {
        match p.send(v) {
            Ok(()) => {}
            Err(bp) => rejected.extend(bp.into_inner()),
        }
    }
    match p.flush() {
        Ok(()) => {}
        Err(bp) => rejected.extend(bp.into_inner()),
    }
    let mut drained = broker.drain_remaining();
    accepted += drained.len() as u64;
    assert!(
        !rejected.is_empty(),
        "two 16-capacity shards cannot absorb 100 values"
    );
    // Exact conservation: accepted + rejected == sent, no duplicates.
    assert_eq!(accepted + rejected.len() as u64, 100);
    drained.extend(rejected);
    let unique: HashSet<u64> = drained.iter().copied().collect();
    assert_eq!(unique.len(), 100);
    assert!(broker.stats().backpressure_events > 0);
}

#[test]
fn blocking_send_waits_for_consumer() {
    let broker: Arc<ShardedBroker<u64, _>> = Arc::new(ShardedBroker::bounded_array(1, 8));
    let done = Arc::new(AtomicBool::new(false));
    let b2 = Arc::clone(&broker);
    let d2 = Arc::clone(&done);
    let producer = thread::spawn(move || {
        let mut p = b2.producer();
        for v in 0..256u64 {
            p.send_blocking(v);
        }
        p.flush_blocking();
        d2.store(true, Ordering::Release);
    });
    let mut got = Vec::new();
    let mut c = broker.consumer();
    while got.len() < 256 {
        match c.recv() {
            Some(v) => got.push(v),
            None => thread::yield_now(),
        }
    }
    producer.join().unwrap();
    assert!(done.load(Ordering::Acquire));
    got.sort_unstable();
    assert_eq!(got, (0..256).collect::<Vec<_>>());
}

#[test]
fn kill_shard_conserves_and_survivors_serve() {
    let broker: ShardedBroker<u64, _> = ShardedBroker::unbounded_list(4);
    let mut p = broker.producer();
    for v in 0..1000u64 {
        p.send(v).unwrap();
    }
    p.flush().unwrap();

    let rescued = broker.kill_shard(1);
    assert!(rescued > 0, "a round-robin-fed shard cannot be empty");
    assert_eq!(broker.alive_shards(), 3);
    assert!(!broker.is_alive(1));
    // Idempotent: second kill is a no-op.
    assert_eq!(broker.kill_shard(1), 0);
    assert_eq!(broker.stats().shard_deaths, 1);
    assert_eq!(broker.stats().rescued, rescued as u64);

    // The broker keeps serving: new sends avoid the dead shard...
    for v in 1000..1100u64 {
        p.send(v).unwrap();
    }
    p.flush().unwrap();
    assert!(
        broker.shard(1).consume_one().is_none(),
        "dead shard received new traffic"
    );
    // ...and every value (old and new) is still served exactly once.
    let mut got = broker.drain_remaining();
    got.sort_unstable();
    assert_eq!(got, (0..1100u64).collect::<Vec<_>>());
}

#[test]
fn panicking_shard_is_retired_in_flight() {
    // A shard whose consume side panics once (the PR 3 kill shape):
    // the broker must catch it, mark the shard dead, rescue, and keep
    // serving — the consumer's recv() call itself must not unwind.
    struct Bomb {
        inner: FlatShard<ListDeque<u64, HarrisMcas>>,
        armed: AtomicBool,
    }
    impl BrokerShard<u64> for Bomb {
        const PRODUCER_EXCLUSIVE: bool = false;
        fn produce_batch(&self, vals: Vec<u64>) -> Result<(), Vec<u64>> {
            self.inner.produce_batch(vals)
        }
        fn produce_one(&self, v: u64) -> Result<(), u64> {
            self.inner.produce_one(v)
        }
        fn consume_one(&self) -> Option<u64> {
            self.inner.consume_one()
        }
        fn consume_batch(&self, max: usize) -> Vec<u64> {
            if self.armed.swap(false, Ordering::AcqRel) {
                panic!("injected shard death");
            }
            self.inner.consume_batch(max)
        }
        fn requeue_front(&self, v: u64) -> Result<(), u64> {
            self.inner.requeue_front(v)
        }
        fn name(&self) -> &'static str {
            "bomb"
        }
    }

    let broker: ShardedBroker<u64, Bomb> = ShardedBroker::with_shards(3, |i| Bomb {
        inner: FlatShard(ListDeque::new()),
        armed: AtomicBool::new(i == 0),
    });
    let mut p = broker.producer();
    for v in 0..300u64 {
        p.send(v).unwrap();
    }
    p.flush().unwrap();

    let mut c = broker.consumer();
    let mut got = Vec::new();
    while let Some(v) = c.recv() {
        got.push(v);
    }
    assert_eq!(broker.alive_shards(), 2, "panicked shard not retired");
    assert_eq!(broker.stats().shard_deaths, 1);
    got.sort_unstable();
    assert_eq!(got, (0..300u64).collect::<Vec<_>>(), "kill lost or duped values");
}

#[test]
fn tiered_exclusive_binds_one_producer_per_shard() {
    let broker: Arc<ShardedBroker<u64, TieredShard<u64>>> =
        Arc::new(ShardedBroker::tiered_chaselev(2));
    let barrier = Arc::new(Barrier::new(3));
    let mut handles = Vec::new();
    for t in 0..2u64 {
        let b = Arc::clone(&broker);
        let bar = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            let mut p = b.producer();
            bar.wait();
            for v in 0..500u64 {
                p.send(t * 1000 + v).unwrap();
            }
            // Producer drop runs the death-flush here, publishing the
            // Chase-Lev tier to the shared level.
        }));
    }
    barrier.wait();
    for h in handles {
        h.join().unwrap();
    }
    // A third producer must be refused.
    let over = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let _ = broker.producer();
    }));
    assert!(over.is_err(), "third producer bound to a 2-shard tiered broker");

    let mut got = broker.drain_remaining();
    got.sort_unstable();
    let want: Vec<u64> = (0..500).chain(1000..1500).collect();
    assert_eq!(got, want, "tier flush lost values");
}

#[test]
fn tiered_consumers_steal_concurrently() {
    let broker: Arc<ShardedBroker<u64, TieredShard<u64>>> =
        Arc::new(ShardedBroker::tiered_chaselev(2));
    let total = 4000u64;
    let stop = Arc::new(AtomicBool::new(false));
    let mut consumers = Vec::new();
    for _ in 0..2 {
        let b = Arc::clone(&broker);
        let s = Arc::clone(&stop);
        consumers.push(thread::spawn(move || {
            let mut c = b.consumer();
            let mut got = Vec::new();
            loop {
                match c.recv() {
                    Some(v) => got.push(v),
                    None if s.load(Ordering::Acquire) => break,
                    None => thread::yield_now(),
                }
            }
            got
        }));
    }
    let mut producers = Vec::new();
    for t in 0..2u64 {
        let b = Arc::clone(&broker);
        producers.push(thread::spawn(move || {
            let mut p = b.producer();
            for v in 0..total / 2 {
                p.send(t * total + v).unwrap();
            }
        }));
    }
    for h in producers {
        h.join().unwrap();
    }
    // Give consumers a moment to drain what the death-flush published,
    // then stop them and sweep the remainder ourselves.
    thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Release);
    let mut got: Vec<u64> = consumers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    got.extend(broker.drain_remaining());
    got.sort_unstable();
    let want: Vec<u64> = (0..total / 2).chain(total..total + total / 2).collect();
    assert_eq!(got, want, "concurrent tiered consume lost or duped values");
    let stats = broker.stats();
    assert!(
        stats.tier_steals_private + stats.tier_steals_shared > 0,
        "steal provenance never incremented"
    );
}

#[test]
fn requeue_serves_next() {
    let broker: ShardedBroker<u64, _> = ShardedBroker::unbounded_list(1);
    let mut p = broker.producer();
    for v in 0..10u64 {
        p.send(v).unwrap();
    }
    p.flush().unwrap();
    let mut c = broker.consumer();
    let first = c.recv().unwrap();
    assert_eq!(first, 0);
    c.requeue(first);
    // Requeued value must come back before anything behind it. The
    // consumer stash may hold 1..8 already, so drain the stash-ordered
    // prefix and check 0 precedes 9 (the value deepest in line).
    let mut order = Vec::new();
    while let Some(v) = c.recv() {
        order.push(v);
    }
    let pos0 = order.iter().position(|&v| v == 0).unwrap();
    let pos9 = order.iter().position(|&v| v == 9).unwrap();
    assert!(pos0 < pos9, "requeued value lost its place: {order:?}");
    assert_eq!(order.len(), 10);
    assert_eq!(broker.stats().requeued, 1);
}

#[test]
fn consumer_drop_returns_stash() {
    let broker: ShardedBroker<u64, _> = ShardedBroker::unbounded_list(2);
    let mut p = broker.producer();
    for v in 0..32u64 {
        p.send(v).unwrap();
    }
    p.flush().unwrap();
    {
        let mut c = broker.consumer();
        let _ = c.recv().unwrap();
        assert!(c.stashed() > 0, "batch consume should leave a stash");
        // Drop with a warm stash: values must go back to the broker.
    }
    let drained = broker.drain_remaining();
    assert_eq!(drained.len(), 31, "consumer drop leaked its stash");
}

#[test]
fn zero_shards_rounds_up() {
    let broker: ShardedBroker<u64, _> = ShardedBroker::unbounded_list(0);
    assert_eq!(broker.num_shards(), 1);
    let mut p = broker.producer();
    p.send(42).unwrap();
    p.flush().unwrap();
    let mut c = broker.consumer();
    assert_eq!(c.recv(), Some(42));
}

#[test]
fn stats_sum_the_stripes_of_producer_and_consumer_threads() {
    // The producer and the consumer bump counters on their own threads'
    // stripes; `stats` must add the stripes back up.
    const N: u64 = 100_000;
    let broker: ShardedBroker<u64, _> = ShardedBroker::unbounded_list(2);
    thread::scope(|s| {
        s.spawn(|| {
            let mut p = broker.producer();
            for v in 0..N {
                p.send(v).unwrap();
            }
            p.flush().unwrap();
        });
        s.spawn(|| {
            let mut c = broker.consumer();
            let mut got = 0;
            while got < N {
                match c.recv() {
                    Some(_) => got += 1,
                    None => thread::yield_now(),
                }
            }
        });
    });
    let st = broker.stats();
    assert_eq!((st.sent, st.received), (N, N));
    assert_eq!(st.recv_home + st.recv_rebalanced, N);
}
