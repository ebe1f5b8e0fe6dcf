//! Tests for the dummy-node variant (footnote 4 / Figure 10).

use dcas::{GlobalLock, GlobalSeqLock, HarrisMcas};

use super::{DummyListDeque, RawDummyListDeque};
use crate::value::WordValue;

#[test]
fn paper_running_example() {
    let d = RawDummyListDeque::<u32, GlobalSeqLock>::new();
    d.push_right(1).unwrap();
    d.push_left(2).unwrap();
    d.push_right(3).unwrap();
    assert_eq!(d.pop_left(), Some(2));
    assert_eq!(d.pop_left(), Some(1));
    assert_eq!(d.pop_left(), Some(3));
    assert_eq!(d.pop_left(), None);
}

#[test]
fn fig10_dummy_marks_deletion_instead_of_bit() {
    // Figure 10: "Empty Deque with one deleted cell marked by a right
    // dummy node" — after popping the only element from the right, the
    // sentinel indirects through a dummy (layout resolves it to
    // right_deleted = true) and one null node lingers.
    let d = RawDummyListDeque::<u32, GlobalSeqLock>::new();
    d.push_right(5).unwrap();
    assert_eq!(d.pop_right(), Some(5));
    let lay = d.layout();
    assert_eq!(lay.cells, vec![None]);
    assert!(lay.right_deleted);
    assert!(!lay.left_deleted);
    // Subsequent operations behave as empty and clean up.
    assert_eq!(d.pop_right(), None);
    let lay = d.layout();
    assert_eq!(lay.cells, vec![]);
    assert!(!lay.right_deleted);
}

#[test]
fn four_empty_states_mirror_fig9() {
    // The dummy variant reaches the same four observable empty states as
    // Figure 9 of the deleted-bit variant.
    let d = RawDummyListDeque::<u32, GlobalLock>::new();
    assert_eq!(d.layout().cells, vec![]);

    d.push_left(1).unwrap();
    assert_eq!(d.pop_left(), Some(1));
    let lay = d.layout();
    assert!(lay.left_deleted && !lay.right_deleted);
    assert_eq!(d.pop_left(), None);

    d.push_right(2).unwrap();
    assert_eq!(d.pop_right(), Some(2));
    let lay = d.layout();
    assert!(!lay.left_deleted && lay.right_deleted);
    assert_eq!(d.pop_right(), None);

    d.push_left(3).unwrap();
    d.push_right(4).unwrap();
    assert_eq!(d.pop_left(), Some(3));
    assert_eq!(d.pop_right(), Some(4));
    let lay = d.layout();
    assert!(lay.left_deleted && lay.right_deleted);
    assert_eq!(lay.cells, vec![None, None]);
    assert_eq!(d.pop_left(), None);
    assert_eq!(d.layout().cells, vec![]);
}

#[test]
fn fifo_and_lifo_semantics() {
    let d = RawDummyListDeque::<u32, HarrisMcas>::new();
    for i in 0..40 {
        d.push_right(i).unwrap();
    }
    for i in 0..20 {
        assert_eq!(d.pop_left(), Some(i));
    }
    for i in (20..40).rev() {
        assert_eq!(d.pop_right(), Some(i));
    }
    assert_eq!(d.pop_right(), None);
}

#[test]
fn interleaved_boundary_churn() {
    let d = RawDummyListDeque::<u32, GlobalSeqLock>::new();
    for round in 0..30 {
        d.push_left(round).unwrap();
        assert_eq!(d.pop_right(), Some(round));
        d.push_right(round).unwrap();
        assert_eq!(d.pop_left(), Some(round));
        assert_eq!(d.pop_left(), None);
        assert_eq!(d.pop_right(), None);
    }
}

#[test]
fn typed_deque_and_drop() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    #[derive(Debug)]
    struct Probe;
    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    {
        let d: DummyListDeque<Probe, GlobalLock> = DummyListDeque::new();
        for _ in 0..4 {
            d.push_right(Probe).unwrap();
        }
        drop(d.pop_right().unwrap()); // leaves a dummy on the sentinel
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }
    assert_eq!(DROPS.load(Ordering::SeqCst), 4);
}

#[test]
fn layout_matches_deleted_bit_variant() {
    // Drive both variants through the same op sequence; resolved layouts
    // must agree.
    let a = crate::list::RawListDeque::<u32, GlobalLock>::new();
    let b = RawDummyListDeque::<u32, GlobalLock>::new();
    let ops: Vec<(u8, u32)> = vec![
        (0, 1),
        (1, 2),
        (0, 3),
        (2, 0),
        (3, 0),
        (1, 4),
        (2, 0),
        (2, 0),
        (3, 0),
        (3, 0),
    ];
    for (op, v) in ops {
        match op {
            0 => {
                a.push_right(v).unwrap();
                b.push_right(v).unwrap();
            }
            1 => {
                a.push_left(v).unwrap();
                b.push_left(v).unwrap();
            }
            2 => assert_eq!(a.pop_right(), b.pop_right()),
            _ => assert_eq!(a.pop_left(), b.pop_left()),
        }
        let (la, lb) = (a.layout(), b.layout());
        assert_eq!(la.cells, lb.cells);
        assert_eq!(la.left_deleted, lb.left_deleted);
        assert_eq!(la.right_deleted, lb.right_deleted);
    }
}

#[test]
fn value_encoding_visible_in_layout() {
    let d = RawDummyListDeque::<u32, GlobalLock>::new();
    d.push_right(7).unwrap();
    assert_eq!(d.layout().cells, vec![Some(7u32.encode())]);
}

#[test]
fn reclaim_hazard_dummy_variant_sequential_semantics() {
    // The dummy variant under the hazard backend: same observable
    // behaviour, including the dummy-resolution paths that the
    // protected `load_resolved` guards.
    let d = RawDummyListDeque::<u32, dcas::HarrisMcasHazard>::new();
    for i in 0..40 {
        d.push_right(i).unwrap();
    }
    for i in 0..20 {
        assert_eq!(d.pop_left(), Some(i));
    }
    for i in (20..40).rev() {
        assert_eq!(d.pop_right(), Some(i));
    }
    assert_eq!(d.pop_right(), None);
    // Exercise the dummy-marked empty states.
    for round in 0..30 {
        d.push_left(round).unwrap();
        assert_eq!(d.pop_right(), Some(round));
        d.push_right(round).unwrap();
        assert_eq!(d.pop_left(), Some(round));
        assert_eq!(d.pop_left(), None);
        assert_eq!(d.pop_right(), None);
    }
}

#[test]
fn reclaim_hazard_dummy_variant_concurrent_churn_conserves_values() {
    // Concurrent boundary churn on the hazard-backed dummy variant —
    // the hardest case for hazard validation, since every pop may have
    // to chase a dummy indirection while the node it names is being
    // retired. Value conservation plus the static garbage bound must
    // both hold.
    use std::sync::Arc;

    use dcas::{HazardReclaimer, Reclaimer};

    let d: Arc<DummyListDeque<u64, dcas::HarrisMcasHazard>> = Arc::new(DummyListDeque::new());
    let threads = 4u64;
    let per = 400u64;
    let mut handles = vec![];
    for t in 0..threads {
        let d = Arc::clone(&d);
        handles.push(std::thread::spawn(move || {
            let mut popped = 0u64;
            for i in 0..per {
                let v = t * per + i;
                if i % 2 == 0 {
                    d.push_left(v).unwrap();
                } else {
                    d.push_right(v).unwrap();
                }
                if i % 3 == 0 {
                    popped += u64::from(d.pop_right().is_some());
                } else {
                    popped += u64::from(d.pop_left().is_some());
                }
            }
            popped
        }));
    }
    let popped: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let mut rest = 0u64;
    while d.pop_left().is_some() {
        rest += 1;
    }
    assert_eq!(popped + rest, threads * per);
    HazardReclaimer::flush();
    assert!(
        HazardReclaimer::live_garbage() <= dcas::reclaim::hazard::static_garbage_bound(),
        "hazard live garbage exceeds the static bound after flush"
    );
}

/// Page-pool nodes behind the deque semantics: interleaved two-ended
/// traffic drains to the exact push count. Named `pooled_` so CI's
/// allocator suite selects the per-family pool units.
#[test]
fn pooled_nodes_drain_to_push_count() {
    let d = DummyListDeque::<u32>::new();
    for i in 0..200u32 {
        if i % 2 == 0 {
            d.push_right(i).unwrap();
        } else {
            d.push_left(i).unwrap();
        }
    }
    let mut got = 0;
    while d.pop_left().is_some() || d.pop_right().is_some() {
        got += 1;
    }
    assert_eq!(got, 200);
}
