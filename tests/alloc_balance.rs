//! Drop-count balance for the page-pool node allocator: every node a
//! pooled deque allocates must come back to the pool by the time the
//! deque is dropped and the reclaimers have flushed.
//!
//! One `#[test]` covers all three linked families because the pool
//! gauges (`nodes_outstanding`, `pages_allocated`) are process-global
//! per family pool: interleaved tests would see each other's churn. Each family runs the
//! same scenario **twice** — the first round may grow the pool (pages
//! are immortal), the second must be served entirely from recycled
//! slots, which is the allocation-free steady-state claim of the
//! allocator at test granularity. The same test also takes the census
//! of a push that completes a two-null deletion (Figure 16) in its own
//! DCAS, on each list family under each strategy.

use std::time::Duration;

use dcas::{
    EpochReclaimer, GlobalLock, HarrisMcas, HarrisMcasHazard, HazardReclaimer, NodePool, Reclaimer,
};
use dcas_deques::deque::{
    list, list_dummy, list_lfrc, ConcurrentDeque, DummyListDeque, LfrcListDeque, ListDeque,
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
    flush();
}

/// Drains both reclamation backends' garbage.
fn flush() {
    for _ in 0..6 {
        EpochReclaimer::flush();
        HazardReclaimer::flush();
    }
}

/// Leaves two logically deleted nodes (one pop from each end of a
/// two-element deque), then pushes at the left end: the push's node
/// goes in with the double-splice DCAS, which unlinks both null nodes.
/// Once the backends drain, the pushed node must be the only one
/// outstanding: both nulls (and, for the dummy family, the dummies that
/// marked them) retired.
fn two_null_push_census<D: ConcurrentDeque<u64>>(family: &str, pool: &NodePool, make: fn() -> D) {
    let before = pool.nodes_outstanding();
    let deque = make();
    deque.push_left(1 << 3).unwrap();
    deque.push_right(2 << 3).unwrap();
    assert_eq!(deque.pop_left(), Some(1 << 3));
    assert_eq!(deque.pop_right(), Some(2 << 3));
    deque.push_left(3 << 3).unwrap();
    flush();
    assert_eq!(
        pool.nodes_outstanding(),
        before + 1,
        "{family}: the two-null push left nodes unretired"
    );
    assert_eq!(deque.pop_right(), Some(3 << 3));
    assert_eq!(deque.pop_left(), None);
    drop(deque);
    flush();
    assert_eq!(pool.nodes_outstanding(), before, "{family}: two-null push, after the drop");
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

    two_null_push_census("list-dcas", list::node_pool(), ListDeque::<u64, GlobalLock>::new);
    two_null_push_census("list-dcas", list::node_pool(), ListDeque::<u64, HarrisMcas>::new);
    two_null_push_census("list-dcas", list::node_pool(), ListDeque::<u64, HarrisMcasHazard>::new);
    let dummy = list_dummy::node_pool();
    two_null_push_census("list-dummy", dummy, DummyListDeque::<u64, GlobalLock>::new);
    two_null_push_census("list-dummy", dummy, DummyListDeque::<u64, HarrisMcas>::new);
    two_null_push_census("list-dummy", dummy, DummyListDeque::<u64, HarrisMcasHazard>::new);
    let lfrc = list_lfrc::node_pool();
    two_null_push_census("list-lfrc", lfrc, LfrcListDeque::<u64, GlobalLock>::new);
    two_null_push_census("list-lfrc", lfrc, LfrcListDeque::<u64, HarrisMcas>::new);
    two_null_push_census("list-lfrc", lfrc, LfrcListDeque::<u64, HarrisMcasHazard>::new);

    watchdog.disarm();
}
