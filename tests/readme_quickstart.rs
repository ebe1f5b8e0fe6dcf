//! Keeps the README quickstart honest: this test mirrors the snippet in
//! `README.md` — if the public API drifts, this fails before the docs lie.

use dcas_deques::prelude::*;

#[test]
fn readme_quickstart_compiles_and_runs() {
    // Bounded array deque (Section 3), capacity fixed up front.
    let d: ArrayDeque<String> = ArrayDeque::new(8);
    d.push_right("b".into()).unwrap();
    d.push_left("a".into()).unwrap();
    assert_eq!(d.pop_right().as_deref(), Some("b"));

    // Unbounded linked-list deque (Section 4).
    let d: ListDeque<i64> = ListDeque::new();
    d.push_left(1).unwrap();
    assert_eq!(d.pop_right(), Some(1));
    assert_eq!(d.pop_right(), None); // "empty"

    // Pick the DCAS emulation per deque.
    let d: ListDeque<i64, GlobalSeqLock> = ListDeque::new();
    drop(d);

    // Batched operations: up to MAX_BATCH elements per transition, a
    // full deque accepts a prefix and hands back the rejected tail.
    assert_eq!(MAX_BATCH, 8);
    let d: ArrayDeque<u64> = ArrayDeque::new(8);
    d.push_right_n(vec![1, 2, 3, 4]).unwrap();
    assert_eq!(d.pop_left_n(3), vec![1, 2, 3]);

    // The worked example from the paper's Section 2.2, via the trait.
    let d: DummyListDeque<u32> = DummyListDeque::new();
    ConcurrentDeque::push_right(&d, 1).unwrap();
    ConcurrentDeque::push_left(&d, 2).unwrap();
    ConcurrentDeque::push_right(&d, 3).unwrap();
    assert_eq!(ConcurrentDeque::pop_left(&d), Some(2));
    assert_eq!(ConcurrentDeque::pop_left(&d), Some(1));
    assert_eq!(ConcurrentDeque::pop_left(&d), Some(3));

    // Full reports return the rejected value.
    let d: ArrayDeque<&'static str> = ArrayDeque::new(1);
    d.push_right("kept").unwrap();
    let Full(v) = d.push_left("bounced").unwrap_err();
    assert_eq!(v, "bounced");
}
