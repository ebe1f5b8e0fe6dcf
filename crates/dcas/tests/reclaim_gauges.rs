//! The garbage and descriptor gauges under concurrency, for both
//! reclamation backends.
//!
//! Sixteen threads, twice the gauges' stripe count so that stripes are
//! shared, churn `dcas` calls and node-sized retires while a sampler
//! thread reads `live_garbage()`. The gauges are process-global, which
//! is why this is a test binary of its own and why its two tests run one
//! at a time. Each test asserts:
//!
//! * `garbage_high_water()` is at least every sampled `live_garbage()`
//!   (it sums per-stripe peaks, an upper bound on the true peak), and
//!   rose by no more than the run's retires;
//! * after join and flush, `live_garbage()` and `live_descriptors()` are
//!   back at their pre-run values: every retire and every descriptor
//!   checkout was credited back, whichever thread or stripe ran it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use dcas::{
    live_descriptors, DcasStrategy, DcasWord, EpochReclaimer, HarrisMcas, HazardReclaimer,
    ReclaimGuard, Reclaimer,
};

const THREADS: usize = 16;
const ROUNDS: u64 = 5_000;

/// A block the size of a list-deque node.
type Node = [u64; 4];

unsafe fn free_node(p: *mut u8) {
    // SAFETY: every retired block below comes from `Box::<Node>::into_raw`.
    drop(unsafe { Box::from_raw(p.cast::<Node>()) });
}

/// Serializes the tests: both read the process-global descriptor gauge.
static SERIAL: Mutex<()> = Mutex::new(());

/// Flushes until both gauges read `garbage`/`descriptors` again.
fn settle<R: Reclaimer>(garbage: u64, descriptors: u64) {
    for _ in 0..100_000 {
        if R::live_garbage() == garbage && live_descriptors() == descriptors {
            return;
        }
        R::flush();
        std::thread::yield_now();
    }
}

fn churn_keeps_gauges_consistent<R: Reclaimer>() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    settle::<R>(0, 0);
    let (garbage0, descriptors0, hwm0) = (
        R::live_garbage(),
        live_descriptors(),
        R::garbage_high_water(),
    );

    let strategy = Arc::new(HarrisMcas::<R>::default());
    // One pair every thread fights over (failures, helping) and one
    // private pair per thread (uncontended successes).
    let shared = Arc::new((DcasWord::new(0), DcasWord::new(0)));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                samples.push(R::live_garbage());
                std::thread::yield_now();
            }
            samples
        })
    };
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (strategy, shared) = (strategy.clone(), shared.clone());
            std::thread::spawn(move || {
                let (a, b) = (DcasWord::new(0), DcasWord::new(0));
                for i in 0..ROUNDS {
                    let (x, y) = (strategy.load(&shared.0), strategy.load(&shared.1));
                    strategy.dcas(&shared.0, &shared.1, x, y, x + 4, y + 4);
                    assert!(strategy.dcas(&a, &b, i * 4, i * 4, i * 4 + 4, i * 4 + 4));
                    let g = R::pin();
                    let node = Box::into_raw(Box::new(Node::default()));
                    // SAFETY: the block was never shared; retired once.
                    unsafe { g.retire(node.cast(), std::mem::size_of::<Node>(), free_node) };
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let samples = sampler.join().unwrap();

    let hwm = R::garbage_high_water();
    let max_sample = samples.iter().copied().max().unwrap_or(0);
    // Every thread holds up to a collection's worth of garbage, so a
    // sampler that saw none is not testing anything.
    assert!(
        max_sample > garbage0,
        "{}: sampler never saw garbage",
        R::BACKEND
    );
    assert!(
        hwm >= max_sample,
        "{}: high-water {hwm} below a sampled live count {max_sample}",
        R::BACKEND
    );
    // At most two descriptors and one node retired per round.
    let retires = THREADS as u64 * ROUNDS * 3;
    assert!(
        hwm <= hwm0 + retires,
        "{}: high-water rose from {hwm0} to {hwm}, by more than the run's {retires} retires",
        R::BACKEND
    );

    settle::<R>(garbage0, descriptors0);
    assert_eq!(
        R::live_garbage(),
        garbage0,
        "{}: live garbage did not return",
        R::BACKEND
    );
    assert_eq!(
        live_descriptors(),
        descriptors0,
        "{}: checked-out descriptors did not return",
        R::BACKEND
    );
}

#[test]
fn reclaim_epoch_gauges_survive_shared_stripes() {
    churn_keeps_gauges_consistent::<EpochReclaimer>();
}

#[test]
fn reclaim_hazard_gauges_survive_shared_stripes() {
    churn_keeps_gauges_consistent::<HazardReclaimer>();
}
