//! Descriptor reuse invariants (requires `--features stats`): a thread's
//! first DCAS creates its descriptor, every later one reuses it, and a
//! thread that exits hands its descriptor slot to the next thread. A
//! regression that takes a second descriptor per thread, or per
//! operation, shows up here as a nonzero `descriptor_allocs` delta or a
//! growing `descriptor_slots` gauge.
#![cfg(feature = "stats")]

use std::sync::Mutex;

use dcas::{descriptor_slots, DcasStrategy, DcasWord, HarrisMcas, HarrisMcasHazard, Reclaimer};

/// Serializes the tests: the slot gauge is process-global.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` on a thread of its own, so it starts without a descriptor.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().unwrap()
}

fn first_dcas_creates_later_ones_reuse<R: Reclaimer>() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    on_fresh_thread(|| {
        let s = HarrisMcas::<R>::default();
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        assert!(s.dcas(&a, &b, 0, 4, 8, 12));
        let first = s.stats();
        assert_eq!((first.descriptor_allocs, first.descriptor_reuses), (1, 0));

        const STEADY_OPS: u64 = 10_000;
        let mut x = 8;
        for _ in 0..STEADY_OPS {
            assert!(s.dcas(&a, &b, x, x + 4, x + 8, x + 12));
            x += 8;
        }
        let delta = s.stats().since(&first);
        assert_eq!(delta.dcas_ops, STEADY_OPS);
        assert_eq!(
            delta.descriptor_allocs, 0,
            "{}: a later dcas created a descriptor (reuses={}, allocs={})",
            R::BACKEND,
            delta.descriptor_reuses,
            delta.descriptor_allocs
        );
        assert_eq!(delta.descriptor_reuses, STEADY_OPS);
        assert_eq!(delta.reuse_rate(), Some(1.0));
        // Nothing was retired for those operations either.
        assert_eq!(delta.retired_pending, 0);
    });
}

#[test]
fn first_dcas_creates_the_descriptor_and_later_ones_reuse_it() {
    first_dcas_creates_later_ones_reuse::<dcas::EpochReclaimer>();
}

#[test]
fn reclaim_hazard_first_dcas_creates_the_descriptor_and_later_ones_reuse_it() {
    first_dcas_creates_later_ones_reuse::<dcas::HazardReclaimer>();
}

#[test]
fn dcas_strong_failure_path_reuses_the_descriptor() {
    // The strong form's failure path certifies an atomic view with an
    // identity DCAS; that runs on the thread's descriptor too.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    on_fresh_thread(|| {
        let s = HarrisMcasHazard::default();
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        assert!(s.dcas(&a, &b, 0, 4, 8, 12));
        let before = s.stats();
        const STEADY_OPS: u64 = 5_000;
        for _ in 0..STEADY_OPS {
            // Stale expected values on purpose: every call fails and
            // reports the snapshot (one identity DCAS each).
            let (mut o1, mut o2) = (1 << 40, 1 << 40);
            assert!(!s.dcas_strong(&a, &b, &mut o1, &mut o2, 16, 20));
            assert_eq!((o1, o2), (8, 12));
        }
        let delta = s.stats().since(&before);
        assert_eq!(delta.descriptor_allocs, 0);
        assert_eq!(delta.descriptor_reuses, STEADY_OPS);
    });
}

#[test]
fn an_exited_threads_slot_goes_to_the_next_thread() {
    // Twenty threads in turn, each running DCASes and exiting: each
    // claims the slot the one before gave back, so the table grows by
    // at most one slot however many threads come and go.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = descriptor_slots();
    for t in 0..20u64 {
        on_fresh_thread(move || {
            let s = HarrisMcas::new();
            let a = DcasWord::new(t * 8);
            let b = DcasWord::new(4);
            assert!(s.dcas(&a, &b, t * 8, 4, t * 8 + 8, 12));
            assert!(s.dcas(&a, &b, t * 8 + 8, 12, t * 8, 4));
            let st = s.stats();
            assert_eq!((st.descriptor_allocs, st.descriptor_reuses), (1, 1));
        });
    }
    assert!(
        descriptor_slots() <= before + 1,
        "20 successive threads took {} new descriptor slots",
        descriptor_slots() - before
    );
}
