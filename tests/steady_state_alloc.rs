//! Heap-allocation count on the hot paths that promise none, on one
//! thread: a steady-state `HarrisMcas::dcas` and `ListDeque` push/pop
//! over the epoch backend, a steady-state `HarrisMcasHazard::dcas` over
//! the hazard-pointer backend, `RawLfrcListDeque` push/pop over the
//! epoch backend, and batch pops (`pop_left_n`) that find a `ListDeque`
//! or an `ArrayDeque` empty — a broker consumer's idle poll.
//!
//! The binary installs a counting `#[global_allocator]`, which is why it
//! is a test binary of its own: the override stays local to this
//! process. The count is per thread, so the harness's own allocations
//! on other threads do not show. Anything on the measured path that
//! reaches the allocator fails the test: a second DCAS descriptor for
//! the thread, a node-pool miss, the epoch collector building a fresh buffer per
//! collection, a deferred closure (such as the garbage gauge's) that
//! outgrows the collector's inline words and gets boxed, a hazard scan
//! building fresh candidate or snapshot buffers, an LFRC `release`
//! cascade building its work list on the heap, or a batch pop
//! allocating its result before it knows there is anything to return.
//!
//! One `#[test]` runs all phases in order on the same thread. Separate
//! tests would run on separate harness threads, and one thread's exit
//! hands its unripe epoch garbage to whichever thread collects next.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcas::{
    DcasStrategy, DcasWord, EpochReclaimer, HarrisMcas, HarrisMcasHazard, HazardReclaimer,
    Reclaimer,
};
use dcas_deques::deque::list_lfrc::RawLfrcListDeque;
use dcas_deques::deque::{ArrayDeque, ListDeque, MAX_BATCH};

struct CountingAlloc;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs during TLS teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded caller contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Ages every queued deferred closure past the grace period.
fn flush_epochs() {
    for _ in 0..4 {
        EpochReclaimer::flush();
    }
}

const DCAS_OPS: u64 = 100_000;
const DEQUE_OPS: u64 = 400_000;
const EMPTY_POLLS: u64 = 100_000;

#[test]
fn pooled_steady_state_dcas_and_list_deque_make_no_heap_allocations() {
    // Phase 1: `dcas`. The warmup creates the thread's descriptor (its
    // one allocation) and grows every buffer on the path to its
    // steady-state capacity.
    let s = HarrisMcas::new();
    let (a, b) = (DcasWord::new(0), DcasWord::new(4));
    let mut x = 0u64;
    let mut step = |s: &HarrisMcas| {
        assert!(s.dcas(&a, &b, x, x + 4, x + 8, x + 12));
        x += 8;
    };
    for _ in 0..DCAS_OPS {
        step(&s);
    }
    flush_epochs();
    let n = allocations_during(|| {
        for _ in 0..DCAS_OPS {
            step(&s);
        }
    });
    assert_eq!(
        n, 0,
        "{DCAS_OPS} steady-state dcas calls made {n} heap allocations"
    );

    // Phase 2: `ListDeque` push/pop, one value in flight, alternating
    // ends so both ends' DCAS and node-retire paths run.
    let d: ListDeque<u64> = ListDeque::new();
    let churn = |ops: u64| {
        for i in 0..ops / 4 {
            d.push_right(i << 3).unwrap();
            assert_eq!(d.pop_left(), Some(i << 3));
            d.push_left(i << 3).unwrap();
            assert_eq!(d.pop_right(), Some(i << 3));
        }
    };
    churn(DEQUE_OPS);
    flush_epochs();
    let n = allocations_during(|| churn(DEQUE_OPS));
    assert_eq!(
        n, 0,
        "{DEQUE_OPS} steady-state ListDeque ops made {n} heap allocations"
    );

    // Phase 3: `dcas` over the hazard-pointer backend, which announces
    // the thread's descriptor slot for each operation and retires
    // nothing; the warmup has the backend claim its thread record.
    let s = HarrisMcasHazard::default();
    let (a, b) = (DcasWord::new(0), DcasWord::new(4));
    let mut x = 0u64;
    let mut step = |s: &HarrisMcasHazard| {
        assert!(s.dcas(&a, &b, x, x + 4, x + 8, x + 12));
        x += 8;
    };
    for _ in 0..DCAS_OPS {
        step(&s);
    }
    HazardReclaimer::flush();
    let n = allocations_during(|| {
        for _ in 0..DCAS_OPS {
            step(&s);
        }
    });
    assert_eq!(
        n, 0,
        "{DCAS_OPS} steady-state hazard dcas calls made {n} heap allocations"
    );

    // Phase 4: LFRC push/pop over both ends: every pop's node dies in a
    // `release` cascade.
    let d: RawLfrcListDeque<u32, HarrisMcas> = RawLfrcListDeque::new();
    let churn = |ops: u64| {
        for i in 0..(ops / 4) as u32 {
            d.push_right(i).unwrap();
            assert_eq!(d.pop_left(), Some(i));
            d.push_left(i).unwrap();
            assert_eq!(d.pop_right(), Some(i));
        }
    };
    churn(DEQUE_OPS);
    flush_epochs();
    let n = allocations_during(|| churn(DEQUE_OPS));
    assert_eq!(
        n, 0,
        "{DEQUE_OPS} steady-state RawLfrcListDeque ops made {n} heap allocations"
    );

    // Phase 5: batch pops on empty deques. Most of a broker consumer's
    // polls find its shard empty; such a poll returns an empty `Vec`
    // and must not allocate one.
    let list: ListDeque<u64> = ListDeque::new();
    let array: ArrayDeque<u64> = ArrayDeque::new(64);
    let poll = || {
        for _ in 0..EMPTY_POLLS {
            assert!(list.pop_left_n(MAX_BATCH).is_empty());
            assert!(array.pop_left_n(MAX_BATCH).is_empty());
        }
    };
    poll();
    let n = allocations_during(poll);
    assert_eq!(
        n, 0,
        "{EMPTY_POLLS} empty pop_left_n calls per deque made {n} heap allocations"
    );
}
