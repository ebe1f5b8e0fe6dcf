//! Sharded job broker over the DCAS deques — the ROADMAP item-2
//! "millions of users" layer.
//!
//! A [`ShardedBroker<T, S>`] fans one produce/consume API across N
//! deque shards (N defaults to [`default_shards`], i.e.
//! `available_parallelism`). Each shard is anything implementing
//! [`BrokerShard`]: the paper's unbounded list deque, the bounded array
//! deque (whose capacity surfaces as typed [`Backpressure`]), a
//! `Recorded<_>` wrapper for audited runs, or the two-level tiered
//! Chase–Lev deque for single-owner-per-shard ingestion.
//!
//! The moving parts, each reusing a prior PR's machinery:
//!
//! * **Routing** — [`Producer::send_keyed`] Fibonacci-hashes the key
//!   over the shard count (multiply-shift by 2⁶⁴/φ, so consecutive keys
//!   scatter); [`Producer::send`] round-robins from a per-producer
//!   cursor. Dead shards are probed past.
//! * **Batching** — producers buffer up to [`MAX_BATCH`] values per
//!   shard and hand them over with one chunk-atomic `push_right_n`
//!   CASN (the PR 2 batched ops), one descriptor per 8 values.
//! * **Rebalance** — consumers drain their home shard first and then
//!   scan the others with batch `consume_batch` (the `steal_half`
//!   discipline on tiered shards, with its provenance counters
//!   surfaced in [`BrokerStats`]).
//! * **Backpressure** — a bounded shard's rejected tail comes back as
//!   [`Backpressure`] carrying the values; `*_blocking` variants retry
//!   under the adaptive [`Backoff`] from PR 1.
//! * **Shard death** — every shard call is panic-guarded. A panic (in
//!   anger: the PR 3 fault-injection kill) marks the shard dead,
//!   drains its contents through the thief-safe consume path plus the
//!   death-flush, and republishes them on the survivors; the broker
//!   keeps serving on the remaining shards. Consumers keep scanning
//!   dead shards (take-only) so no value can strand.
//! * **Counters** — the nine operation counters behind
//!   [`ShardedBroker::stats`] live in a `dcas::stripe::Striped` block:
//!   each thread bumps them on its own cache line (all nine fit one),
//!   so a producer's per-value `sent` and a consumer's per-value
//!   `received` never bounce one line between them. `stats` sums the
//!   lines.
//!
//! Cross-shard ordering is unspecified — the classic sharding
//! trade-off. Each individual shard serves FIFO (and a keyed stream
//! stays on one shard, so per-key order holds while the shard lives).

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use dcas::stripe::Striped;
use dcas::{Backoff, HarrisMcas};
use dcas_deque::{ArrayDeque, ListDeque, MAX_BATCH};

pub mod shard;

pub use shard::{BrokerShard, FlatShard, TieredShard};

/// 2⁶⁴ / φ — the Fibonacci hashing multiplier. Multiplying a key and
/// taking the high bits scatters consecutive keys maximally evenly
/// across shards (Knuth vol. 3 §6.4).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Default shard count: `available_parallelism`, or 1 when the host
/// will not say.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A bounded broker rejected these values: every value the caller
/// tried to hand over that did not fit, in order. Nothing is dropped —
/// re-offer them (e.g. via [`Producer::send_blocking`]) or shed them
/// deliberately.
pub struct Backpressure<T>(pub Vec<T>);

impl<T> Backpressure<T> {
    /// The rejected values, in the order they were offered.
    pub fn into_inner(self) -> Vec<T> {
        self.0
    }

    /// How many values were rejected.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the rejection carried no values (possible when a shard
    /// died mid-handoff and the in-flight values were rescued).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<T> std::fmt::Debug for Backpressure<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Backpressure({} values)", self.0.len())
    }
}

impl<T> std::fmt::Display for Backpressure<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "broker backpressure: {} values rejected", self.0.len())
    }
}

/// One stripe's operation counters: all nine share one padded line of
/// the broker's [`Striped`] block, so each thread's bumps (the
/// producer's `sent` per value, the consumer's `received` per value)
/// stay on a line no other stripe writes. Relaxed and informational —
/// conservation proofs count actual values, not these.
#[derive(Default)]
struct BrokerCounters {
    sent: AtomicU64,
    sent_batches: AtomicU64,
    backpressure_events: AtomicU64,
    received: AtomicU64,
    recv_home: AtomicU64,
    recv_rebalanced: AtomicU64,
    requeued: AtomicU64,
    shard_deaths: AtomicU64,
    rescued: AtomicU64,
}

/// Snapshot of the broker's counters plus aggregate steal provenance.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrokerStats {
    /// Values accepted by `send`/`send_keyed` (including still-buffered).
    pub sent: u64,
    /// Chunk-atomic batches handed to shards.
    pub sent_batches: u64,
    /// Backpressure rejections surfaced to producers.
    pub backpressure_events: u64,
    /// Values returned to consumers.
    pub received: u64,
    /// Values pulled from consumers' home shards.
    pub recv_home: u64,
    /// Values pulled while rebalancing from other shards.
    pub recv_rebalanced: u64,
    /// Values put back at the front of the line.
    pub requeued: u64,
    /// Shards marked dead (panic or [`ShardedBroker::kill_shard`]).
    pub shard_deaths: u64,
    /// Values drained from dead shards and republished on survivors.
    pub rescued: u64,
    /// Steal provenance summed over shards: values consumers took from
    /// owner-private tiers vs shared levels (tiered shards only).
    pub tier_steals_private: u64,
    /// See [`tier_steals_private`](Self::tier_steals_private).
    pub tier_steals_shared: u64,
}

impl BrokerStats {
    /// `(name, value)` pairs for metrics export, mirroring
    /// `SchedStats::fields`.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("sent", self.sent),
            ("sent_batches", self.sent_batches),
            ("backpressure_events", self.backpressure_events),
            ("received", self.received),
            ("recv_home", self.recv_home),
            ("recv_rebalanced", self.recv_rebalanced),
            ("requeued", self.requeued),
            ("shard_deaths", self.shard_deaths),
            ("rescued", self.rescued),
            ("tier_steals_private", self.tier_steals_private),
            ("tier_steals_shared", self.tier_steals_shared),
        ]
    }
}

struct Slot<S> {
    inner: S,
    alive: AtomicBool,
}

/// N deque shards behind one produce/consume API. See the crate docs
/// for the architecture; see [`Producer`] / [`Consumer`] for the
/// per-thread handles.
pub struct ShardedBroker<T: Send, S: BrokerShard<T>> {
    shards: Vec<CachePadded<Slot<S>>>,
    alive_count: AtomicUsize,
    /// Producers bound so far — exclusive shards admit one each.
    producers_bound: AtomicUsize,
    consumers_bound: AtomicUsize,
    /// One line of counters per thread stripe; `stats` sums them.
    counters: Striped<BrokerCounters>,
    _values: PhantomData<fn(T) -> T>,
}

impl<T: Send, S: BrokerShard<T>> ShardedBroker<T, S> {
    /// A broker over `n` shards built by `factory(shard_index)`.
    /// `n == 0` is rounded up to one shard.
    pub fn with_shards(n: usize, mut factory: impl FnMut(usize) -> S) -> Self {
        let n = n.max(1);
        ShardedBroker {
            shards: (0..n)
                .map(|i| {
                    CachePadded::new(Slot {
                        inner: factory(i),
                        alive: AtomicBool::new(true),
                    })
                })
                .collect(),
            alive_count: AtomicUsize::new(n),
            producers_bound: AtomicUsize::new(0),
            consumers_bound: AtomicUsize::new(0),
            counters: Striped::default(),
            _values: PhantomData,
        }
    }

    /// Total shard count (alive and dead).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shards still serving.
    pub fn alive_shards(&self) -> usize {
        self.alive_count.load(Ordering::Acquire)
    }

    /// Whether shard `i` is still alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.shards[i].alive.load(Ordering::Acquire)
    }

    /// Direct access to a shard (e.g. to read a `Recorded` shard's
    /// recorder). Respect the shard's own safety contract — in
    /// particular the owner-only produce side of exclusive shards.
    pub fn shard(&self, i: usize) -> &S {
        &self.shards[i].inner
    }

    /// Counter snapshot, summed over the stripes, plus per-shard steal
    /// provenance.
    pub fn stats(&self) -> BrokerStats {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut st = BrokerStats::default();
        for c in self.counters.lines() {
            st.sent += get(&c.sent);
            st.sent_batches += get(&c.sent_batches);
            st.backpressure_events += get(&c.backpressure_events);
            st.received += get(&c.received);
            st.recv_home += get(&c.recv_home);
            st.recv_rebalanced += get(&c.recv_rebalanced);
            st.requeued += get(&c.requeued);
            st.shard_deaths += get(&c.shard_deaths);
            st.rescued += get(&c.rescued);
        }
        for s in &self.shards {
            let (p, sh) = s.inner.steal_provenance();
            st.tier_steals_private += p;
            st.tier_steals_shared += sh;
        }
        st
    }

    /// A producer handle. Panics for exclusive shard types (e.g.
    /// [`TieredShard`]) once every shard already has its producer —
    /// those brokers support exactly `num_shards` producers, each bound
    /// to (and owning the push side of) its own shard.
    pub fn producer(&self) -> Producer<'_, T, S> {
        let idx = self.producers_bound.fetch_add(1, Ordering::AcqRel);
        if S::PRODUCER_EXCLUSIVE {
            assert!(
                idx < self.shards.len(),
                "exclusive shards admit one producer each: {} producers \
                 already bound to {} shards",
                idx,
                self.shards.len()
            );
        }
        Producer {
            broker: self,
            bufs: (0..self.shards.len()).map(|_| Vec::new()).collect(),
            home: idx % self.shards.len(),
            cursor: idx % self.shards.len(),
        }
    }

    /// A consumer handle. Consumers stagger their home shards
    /// round-robin in binding order.
    pub fn consumer(&self) -> Consumer<'_, T, S> {
        let idx = self.consumers_bound.fetch_add(1, Ordering::AcqRel);
        let home = idx % self.shards.len();
        Consumer {
            broker: self,
            stash: VecDeque::new(),
            home,
            scan: home,
            last: home,
        }
    }

    /// Fibonacci-hash `key` to a shard index.
    fn route(&self, key: u64) -> usize {
        let h = key.wrapping_mul(FIB);
        (((h as u128) * (self.shards.len() as u128)) >> 64) as usize
    }

    /// First alive shard at or after `from` (wrapping); `from` itself
    /// when none are alive — a dead shard still stores values, and
    /// consumers still drain it.
    fn next_alive(&self, from: usize) -> usize {
        let n = self.shards.len();
        for k in 0..n {
            let i = (from + k) % n;
            if self.shards[i].alive.load(Ordering::Acquire) {
                return i;
            }
        }
        from % n
    }

    /// Runs `f` against shard `i`, converting a panic into shard death
    /// plus rescue. `None` means the shard just died under this call.
    fn guarded<R>(&self, i: usize, f: impl FnOnce(&S) -> R) -> Option<R> {
        match catch_unwind(AssertUnwindSafe(|| f(&self.shards[i].inner))) {
            Ok(r) => Some(r),
            Err(_) => {
                self.on_shard_panic(i);
                None
            }
        }
    }

    fn on_shard_panic(&self, i: usize) {
        if self.mark_dead(i) {
            self.rescue(i);
        }
    }

    /// Marks shard `i` dead; returns whether this call did the
    /// transition (the transitioning thread owns the rescue).
    fn mark_dead(&self, i: usize) -> bool {
        let was_alive = self.shards[i].alive.swap(false, Ordering::AcqRel);
        if was_alive {
            self.alive_count.fetch_sub(1, Ordering::AcqRel);
            self.counters.mine().shard_deaths.fetch_add(1, Ordering::Relaxed);
        }
        was_alive
    }

    /// Administrative shard death: marks shard `i` dead and rescues its
    /// contents onto the survivors. Returns how many values were moved.
    /// Idempotent; the second kill of the same shard rescues nothing.
    ///
    /// With exclusive shards the dead shard's *owner-private* tier
    /// remains reachable through the thief-safe consume path, and the
    /// rest is published when its bound [`Producer`] drops (the
    /// death-flush) — so administrative death never strands values
    /// either way.
    pub fn kill_shard(&self, i: usize) -> usize {
        if self.mark_dead(i) {
            self.rescue(i)
        } else {
            0
        }
    }

    /// Drains a dead shard through the (thief-safe) consume path and
    /// republishes everything on the survivors. Runs on whichever
    /// thread transitioned the shard to dead.
    fn rescue(&self, i: usize) -> usize {
        let mut moved = 0;
        loop {
            // The consume side may panic once more if a second fault is
            // armed; give up on the remainder then — consumers still
            // scan dead shards, so nothing is lost, just not rehomed.
            let batch = match catch_unwind(AssertUnwindSafe(|| {
                self.shards[i].inner.consume_batch(MAX_BATCH)
            })) {
                Ok(b) => b,
                Err(_) => break,
            };
            if batch.is_empty() {
                break;
            }
            moved += batch.len();
            self.park(i, batch);
        }
        self.counters.mine().rescued.fetch_add(moved as u64, Ordering::Relaxed);
        moved
    }

    /// Republishes `vals` on any shard, preferring alive ones after
    /// `after`, falling back (bounded survivors all full) to the source
    /// shard itself — values never drop, and consumers drain dead
    /// shards too.
    fn park(&self, after: usize, mut vals: Vec<T>) {
        let n = self.shards.len();
        let mut backoff = Backoff::new();
        loop {
            for k in 1..=n {
                let i = (after + k) % n;
                if i != after && !self.shards[i].alive.load(Ordering::Acquire) {
                    continue;
                }
                match catch_unwind(AssertUnwindSafe(|| {
                    self.shards[i].inner.rescue_publish(vals)
                })) {
                    Ok(Ok(())) => return,
                    Ok(Err(rest)) => vals = rest,
                    // The values moved into the panicking call are
                    // gone with it; nothing left to park. (Only a
                    // second armed fault can trigger this.)
                    Err(_) => {
                        self.on_shard_panic(i);
                        return;
                    }
                }
            }
            // Every shard rejected (all bounded, all full). Wait for
            // consumers to make room rather than dropping values.
            backoff.snooze();
        }
    }

    /// Thread-safe broker-level insert used by the blocking send path:
    /// offers `vals` to every alive shard once (via the thread-safe
    /// rescue path), returning what none of them would take.
    fn offer_any(&self, start: usize, mut vals: Vec<T>) -> Result<(), Vec<T>> {
        let n = self.shards.len();
        for k in 0..n {
            let i = (start + k) % n;
            if !self.shards[i].alive.load(Ordering::Acquire) {
                continue;
            }
            match self.guarded(i, |s| s.rescue_publish(vals)) {
                Some(Ok(())) => return Ok(()),
                Some(Err(rest)) => vals = rest,
                None => return Ok(()),
            }
        }
        if vals.is_empty() {
            Ok(())
        } else {
            Err(vals)
        }
    }

    /// Drains every shard (alive and dead) through the consume path
    /// until all are observed empty. Teardown/audit helper — with
    /// exclusive shards, drop the producers first so their death-flush
    /// publishes the private tiers.
    pub fn drain_remaining(&self) -> Vec<T> {
        let mut out = Vec::new();
        loop {
            let mut got = false;
            for i in 0..self.shards.len() {
                if let Some(batch) = self.guarded(i, |s| s.consume_batch(MAX_BATCH)) {
                    if !batch.is_empty() {
                        got = true;
                        out.extend(batch);
                    }
                }
            }
            if !got {
                return out;
            }
        }
    }
}

impl<T: Send> ShardedBroker<T, FlatShard<ListDeque<T, HarrisMcas>>> {
    /// `n` unbounded list-deque shards (the paper's linked-list deque
    /// under the pooled Harris MCAS): never backpressures.
    pub fn unbounded_list(n: usize) -> Self {
        Self::with_shards(n, |_| FlatShard(ListDeque::new()))
    }
}

impl<T: Send> ShardedBroker<T, FlatShard<ArrayDeque<T, HarrisMcas>>> {
    /// `n` bounded array-deque shards of `capacity` values each; a full
    /// shard surfaces as [`Backpressure`].
    pub fn bounded_array(n: usize, capacity: usize) -> Self {
        Self::with_shards(n, |_| FlatShard(ArrayDeque::new(capacity)))
    }
}

impl<T: Send> ShardedBroker<T, TieredShard<T>> {
    /// `n` two-level tiered shards (stealable Chase–Lev private tier
    /// over the unbounded list deque). One producer per shard, bound at
    /// [`producer`](ShardedBroker::producer) time.
    pub fn tiered_chaselev(n: usize) -> Self {
        Self::with_shards(n, |_| TieredShard::new())
    }
}

/// A producer handle: buffers values per shard and hands them over in
/// chunk-atomic batches of [`MAX_BATCH`].
///
/// Dropping the producer flushes its buffers — and, for an exclusive
/// shard, runs the owner-side death-flush so the private tier's
/// contents become reachable by consumers. For bounded brokers the drop
/// flush parks unplaceable values wherever they fit (including dead
/// shards) rather than dropping them; call
/// [`flush`](Producer::flush) explicitly to observe backpressure.
pub struct Producer<'b, T: Send, S: BrokerShard<T>> {
    broker: &'b ShardedBroker<T, S>,
    /// Per-shard pending values (non-exclusive mode).
    bufs: Vec<Vec<T>>,
    /// Bound shard in exclusive mode; also this producer's rebalance
    /// origin and round-robin stagger.
    home: usize,
    cursor: usize,
}

impl<T: Send, S: BrokerShard<T>> Producer<'_, T, S> {
    /// Produces one value, round-robin across alive shards *per batch*:
    /// the current target's buffer fills to one [`MAX_BATCH`] chunk,
    /// goes over as a single CASN, and only then does the cursor move —
    /// one routing decision and one chunk handoff per eight values.
    /// `Err` carries every rejected value back (bounded shard full).
    pub fn send(&mut self, v: T) -> Result<(), Backpressure<T>> {
        self.broker.counters.mine().sent.fetch_add(1, Ordering::Relaxed);
        if S::PRODUCER_EXCLUSIVE {
            return self.send_home(v);
        }
        let i = self.broker.next_alive(self.cursor);
        self.cursor = i;
        self.bufs[i].push(v);
        if self.bufs[i].len() >= MAX_BATCH {
            let flushed = self.flush_shard(i);
            self.cursor = (i + 1) % self.broker.num_shards();
            flushed?;
        }
        Ok(())
    }

    /// Produces one value routed by Fibonacci-hashing `key`: every
    /// value with the same key lands on the same shard (FIFO per key)
    /// while the shard lives. Dead shards are probed past, which is
    /// when a key's order can change hands.
    ///
    /// On an exclusive-shard broker the producer owns exactly one
    /// shard, so the key degenerates to the home shard (per-key order
    /// then holds per *producer*).
    pub fn send_keyed(&mut self, key: u64, v: T) -> Result<(), Backpressure<T>> {
        self.broker.counters.mine().sent.fetch_add(1, Ordering::Relaxed);
        if S::PRODUCER_EXCLUSIVE {
            return self.send_home(v);
        }
        let i = self.broker.next_alive(self.broker.route(key));
        self.bufs[i].push(v);
        if self.bufs[i].len() >= MAX_BATCH {
            self.flush_shard(i)?;
        }
        Ok(())
    }

    /// Exclusive mode: push straight onto the owned shard (the tier
    /// batches the spill internally, so producer-side buffering would
    /// only double it).
    fn send_home(&mut self, v: T) -> Result<(), Backpressure<T>> {
        match self.broker.guarded(self.home, |s| s.produce_one(v)) {
            Some(Ok(())) | None => Ok(()),
            Some(Err(v)) => {
                self.broker.counters.mine().backpressure_events.fetch_add(1, Ordering::Relaxed);
                Err(Backpressure(vec![v]))
            }
        }
    }

    /// Hands shard `i`'s buffer over as one batch. On backpressure the
    /// rejected tail is offered to the other alive shards before being
    /// returned to the caller.
    fn flush_shard(&mut self, i: usize) -> Result<(), Backpressure<T>> {
        if self.bufs[i].is_empty() {
            return Ok(());
        }
        // A fresh buffer with room for a whole batch: one allocation
        // per batch instead of regrowing from empty.
        let batch = std::mem::replace(&mut self.bufs[i], Vec::with_capacity(MAX_BATCH));
        match self.broker.guarded(i, |s| s.produce_batch(batch)) {
            Some(Ok(())) | None => {
                self.broker.counters.mine().sent_batches.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Some(Err(rest)) => {
                self.broker.counters.mine().backpressure_events.fetch_add(1, Ordering::Relaxed);
                match self.broker.offer_any((i + 1) % self.broker.num_shards(), rest) {
                    Ok(()) => {
                        self.broker.counters.mine().sent_batches.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    }
                    Err(rest) => Err(Backpressure(rest)),
                }
            }
        }
    }

    /// Flushes every buffered value. `Err` carries all values no shard
    /// would take.
    pub fn flush(&mut self) -> Result<(), Backpressure<T>> {
        let mut rejected = Vec::new();
        for i in 0..self.bufs.len() {
            if let Err(bp) = self.flush_shard(i) {
                rejected.extend(bp.into_inner());
            }
        }
        if rejected.is_empty() {
            Ok(())
        } else {
            Err(Backpressure(rejected))
        }
    }

    /// [`send`](Producer::send), but on backpressure parks and retries
    /// under [`Backoff`] until a consumer makes room. Only a broker
    /// with no consumers can block forever.
    pub fn send_blocking(&mut self, v: T) {
        let mut vals = match self.send(v) {
            Ok(()) => return,
            Err(bp) => bp.into_inner(),
        };
        let mut backoff = Backoff::new();
        loop {
            match self.broker.offer_any(self.cursor, vals) {
                Ok(()) => return,
                Err(rest) => vals = rest,
            }
            backoff.snooze();
        }
    }

    /// [`flush`](Producer::flush), but blocks under [`Backoff`] until
    /// every buffered value is placed.
    pub fn flush_blocking(&mut self) {
        let mut vals = match self.flush() {
            Ok(()) => return,
            Err(bp) => bp.into_inner(),
        };
        let mut backoff = Backoff::new();
        loop {
            match self.broker.offer_any(self.cursor, vals) {
                Ok(()) => return,
                Err(rest) => vals = rest,
            }
            backoff.snooze();
        }
    }

    /// This producer's bound shard (exclusive mode) or round-robin
    /// stagger origin.
    pub fn home_shard(&self) -> usize {
        self.home
    }
}

impl<T: Send, S: BrokerShard<T>> Drop for Producer<'_, T, S> {
    fn drop(&mut self) {
        // Publish buffered values. Backpressure here parks values
        // wherever they fit (conservation over placement) — a full
        // bounded broker with zero consumers is the one case that can
        // spin, same as any blocked send.
        let mut leftover: Vec<T> = self.bufs.iter_mut().flat_map(std::mem::take).collect();
        if S::PRODUCER_EXCLUSIVE {
            // Owner-side death-flush: make the private tier reachable.
            if let Some(rest) = self
                .broker
                .guarded(self.home, |s| s.flush_local())
            {
                leftover.extend(rest);
            }
        }
        if !leftover.is_empty() {
            self.broker.park(self.home, leftover);
        }
    }
}

/// A consumer handle: pulls batches from the shards with a rotating
/// scan, and keeps a small local stash so one `consume_batch` serves
/// several `recv` calls.
///
/// The scan starts at this consumer's home shard but advances one
/// position past each successful pull, so every shard gets equal
/// service — a sticky home would let far shards build unbounded
/// backlogs whenever the near ones stay non-empty (work-conserving
/// fairness over locality).
///
/// Dropping the consumer republishes its stash on the broker.
pub struct Consumer<'b, T: Send, S: BrokerShard<T>> {
    broker: &'b ShardedBroker<T, S>,
    stash: VecDeque<T>,
    home: usize,
    /// Rotating scan origin for the next pull.
    scan: usize,
    /// Shard of the most recent pull — where a requeue goes back to.
    last: usize,
}

impl<T: Send, S: BrokerShard<T>> Consumer<'_, T, S> {
    /// Takes the next value, or `None` when every shard was observed
    /// empty. Scans dead shards too — rescue parks values there only
    /// when every survivor is full, and they must remain reachable.
    pub fn recv(&mut self) -> Option<T> {
        if let Some(v) = self.stash.pop_front() {
            self.broker.counters.mine().received.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        let n = self.broker.num_shards();
        for k in 0..n {
            let i = (self.scan + k) % n;
            if let Some(batch) = self.broker.guarded(i, |s| s.consume_batch(MAX_BATCH)) {
                if !batch.is_empty() {
                    let c = self.broker.counters.mine();
                    let from = if i == self.home { &c.recv_home } else { &c.recv_rebalanced };
                    from.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    c.received.fetch_add(1, Ordering::Relaxed);
                    self.last = i;
                    self.scan = (i + 1) % n;
                    self.stash.extend(batch);
                    return self.stash.pop_front();
                }
            }
        }
        None
    }

    /// [`recv`](Consumer::recv), but waits under [`Backoff`] up to
    /// `timeout` for a value to arrive.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::new();
        loop {
            if let Some(v) = self.recv() {
                return Some(v);
            }
            if Instant::now() >= deadline {
                return None;
            }
            backoff.snooze();
        }
    }

    /// Puts `v` back at the *front* of the line on the shard it was
    /// last pulled from — the deque-powered requeue: a retried value is
    /// served next, not after everything behind it. Falls back to the
    /// local stash when that shard cannot take it (exclusive shards'
    /// steal end is take-only; full bounded shards), which preserves
    /// next-up ordering for *this* consumer.
    pub fn requeue(&mut self, v: T) {
        self.broker.counters.mine().requeued.fetch_add(1, Ordering::Relaxed);
        if let Some(Err(v)) = self.broker.guarded(self.last, |s| s.requeue_front(v)) { self.stash.push_front(v) }
    }

    /// Values currently stashed locally (taken from shards, not yet
    /// returned from [`recv`](Consumer::recv)).
    pub fn stashed(&self) -> usize {
        self.stash.len()
    }

    /// This consumer's home shard.
    pub fn home_shard(&self) -> usize {
        self.home
    }
}

impl<T: Send, S: BrokerShard<T>> Drop for Consumer<'_, T, S> {
    fn drop(&mut self) {
        let stash: Vec<T> = self.stash.drain(..).collect();
        if !stash.is_empty() {
            self.broker.park(self.home, stash);
        }
    }
}

#[cfg(test)]
mod tests;
