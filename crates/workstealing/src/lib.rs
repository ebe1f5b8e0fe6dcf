//! A fork-join work-stealing scheduler, generic over the deque.
//!
//! The paper motivates deques as the structure "currently used in load
//! balancing algorithms \[4\]" (Arora–Blumofe–Plaxton). This crate builds
//! that application: each worker owns a deque of tasks, pushes and pops
//! spawned work at its *owner* end (LIFO, for locality), and steals from
//! other workers' *thief* ends (FIFO, taking the oldest — largest —
//! work first).
//!
//! The scheduler is generic over [`WorkDeque`]. Its implementation
//! here is [`TieredChaseLevWorkDeque`], an owner-biased two-level
//! [`TieredDeque`]: the owner's push/pop run on a private, growable
//! [`ChaseLev`] deque that thieves can steal from directly, and work
//! moves to/from the paper's [`ListDeque`](dcas_deque::ListDeque) in
//! chunk-atomic batches, so the shared level stays linearizable.
//!
//! The scheduler is a real fork-join executor: tasks may
//! [`spawn`](WorkerHandle::spawn) further tasks,
//! [`join`](WorkerHandle::join) two closures with the joiner helping
//! run other work while it waits, and chain dependencies with
//! [`Continuation`] countdown counters — so fib, quicksort and
//! tree-walk workloads run natively.
//!
//! The `forkjoin-fib` workload of the end-to-end benchmark
//! (`e2ebench/`) runs the tiered deque under this executor;
//! `examples/work_stealing.rs` runs an irregular fork-join tree on it
//! and checks the result against a sequential evaluation.
//!
//! # Example
//!
//! ```
//! use dcas_workstealing::{Scheduler, TieredChaseLevWorkDeque, WorkerHandle};
//! use dcas_workstealing::Task;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! // Count the leaves of a binary tree of depth 10 by forking a task per
//! // node across 4 workers.
//! fn count(
//!     w: &WorkerHandle<'_, dcas_workstealing::DynDeque>,
//!     depth: u32,
//!     leaves: Arc<AtomicU64>,
//! ) {
//!     if depth == 0 {
//!         leaves.fetch_add(1, Ordering::Relaxed);
//!         return;
//!     }
//!     let l = leaves.clone();
//!     w.spawn(move |w| count(w, depth - 1, l));
//!     let r = leaves.clone();
//!     w.spawn(move |w| count(w, depth - 1, r));
//! }
//!
//! let leaves = Arc::new(AtomicU64::new(0));
//! let sched: Scheduler<TieredChaseLevWorkDeque> = Scheduler::new(4);
//! let root_leaves = leaves.clone();
//! sched.run(move |w| count(w, 10, root_leaves));
//! assert_eq!(leaves.load(Ordering::SeqCst), 1 << 10);
//! ```

#![warn(missing_docs)]

pub mod chaselev;
mod deques;
mod scheduler;

pub use chaselev::{ChaseLev, Steal as ChaseLevSteal};
pub use deques::{StealOutcome, TieredChaseLevWorkDeque, TieredDeque, WorkDeque, RING_CAP};
pub use scheduler::{
    Continuation, DynDeque, RunReport, SchedStats, Scheduler, Task, WorkerHandle,
};
