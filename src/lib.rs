//! Umbrella crate for the reproduction of *DCAS-Based Concurrent Deques*
//! (Agesen, Detlefs, Flood, Garthwaite, Martin, Moir, Shavit, Steele —
//! SPAA 2000).
//!
//! This crate re-exports the workspace's public surface:
//!
//! * [`dcas`] — software DCAS emulations (blocking and lock-free).
//! * [`deque`] — the paper's array-based and linked-list deques, plus the
//!   dummy-node variant.
//! * [`baselines`] — comparators: a lock-based deque, the
//!   Arora–Blumofe–Plaxton CAS deque, a Greenwald-style one-word-indices
//!   deque.
//! * [`linearize`] — sequential specification, history recording, and a
//!   Wing & Gong linearizability checker.
//! * [`modelcheck`] — exhaustive interleaving exploration with the
//!   paper's proof obligations checked on every transition.
//! * [`workstealing`] — the motivating load-balancing application.
//! * [`broker`] — the sharded job broker: N-shard fan-out with
//!   Fibonacci-hashed routing, batch-8 ingestion, consumer-side
//!   rebalance, typed backpressure, and fault-tolerant shard death.
//! * [`obs`] (feature `obs`, on by default) — record-and-verify
//!   observability: lock-free op tracing via the `Recorded` wrapper,
//!   metrics export, and online linearizability auditing of live runs.
//! * [`harness`] — progress watchdog and replayable torture seeds shared
//!   by the stress and fault-injection test suites.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the reproduction results.

pub mod harness;

pub use dcas;
pub use dcas_baselines as baselines;
pub use dcas_broker as broker;
pub use dcas_deque as deque;
pub use dcas_linearize as linearize;
pub use dcas_modelcheck as modelcheck;
#[cfg(feature = "obs")]
pub use dcas_obs as obs;
pub use dcas_workstealing as workstealing;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use dcas::{DcasStrategy, DcasWord, GlobalLock, HarrisMcas};
    pub use dcas_broker::{Backpressure, BrokerShard, ShardedBroker};
    pub use dcas_deque::{
        ArrayDeque, ConcurrentDeque, DummyListDeque, Full, ListDeque, MAX_BATCH,
    };
}
