//! Drop-count balance for the page-pool node allocator: every node a
//! pooled deque allocates must come back to the pool by the time the
//! deque is dropped and the reclaimers have flushed.
//!
//! One `#[test]` covers all four linked families because the pool
//! gauges (`nodes_outstanding`, `pages_allocated`) are process-global
//! per family pool: interleaved tests would see each other's churn. Each family runs the
//! same scenario **twice** — the first round may grow the pool (pages
//! are immortal), the second must be served entirely from recycled
//! slots, which is the allocation-free steady-state claim of the
//! allocator at test granularity.

use std::time::Duration;

use dcas::{EpochReclaimer, HazardReclaimer, NodePool, Reclaimer};
use dcas_deques::deque::{
    list, list_dummy, list_lfrc, sundell, ConcurrentDeque, DummyListDeque, LfrcListDeque,
    ListDeque, SundellDeque,
};
use dcas_deques::harness::{torture_seed, Watchdog};

/// Elements pushed per round (half are popped before the drop, so the
/// deque's own Drop impl frees the other half).
const ELEMS: u64 = 4_000;

/// Pushes [`ELEMS`], pops half, and drops the deque with the rest still
/// linked, returning nothing: the caller checks the gauges.
fn churn_and_drop<D: ConcurrentDeque<u64>>(deque: D) {
    for i in 0..ELEMS {
        deque.push_right(i << 3).unwrap();
    }
    for _ in 0..ELEMS / 2 {
        assert!(deque.pop_left().is_some());
    }
    drop(deque);
    for _ in 0..6 {
        EpochReclaimer::flush();
        HazardReclaimer::flush();
    }
}

/// Runs `make`'s deque through [`churn_and_drop`] twice, asserting the
/// alloc/free balance of the family's `pool` after each round and zero
/// page growth in the second (recycled-slot) round.
fn balance<D: ConcurrentDeque<u64>>(family: &str, pool: &NodePool, make: fn() -> D) {
    let outstanding_before = pool.nodes_outstanding();
    churn_and_drop(make());
    assert_eq!(
        pool.nodes_outstanding(),
        outstanding_before,
        "{family}: nodes outstanding after first churn+drop round"
    );
    let pages_before = pool.pages_allocated();
    churn_and_drop(make());
    assert_eq!(
        pool.nodes_outstanding(),
        outstanding_before,
        "{family}: nodes outstanding after second churn+drop round"
    );
    assert_eq!(
        pool.pages_allocated(),
        pages_before,
        "{family}: second round allocated fresh pages instead of \
         recycling the first round's slots"
    );
}

#[test]
fn pooled_deques_balance_allocs_and_recycle_pages() {
    let test = "pooled_deques_balance_allocs_and_recycle_pages";
    let watchdog = Watchdog::arm(test, torture_seed(test), Duration::from_secs(120));

    balance("list-dcas", list::node_pool(), ListDeque::<u64>::new);
    balance("list-dummy", list_dummy::node_pool(), DummyListDeque::<u64>::new);
    balance("list-lfrc", list_lfrc::node_pool(), LfrcListDeque::<u64>::new);
    balance("sundell-cas", sundell::node_pool(), SundellDeque::<u64>::new);

    watchdog.disarm();
}
