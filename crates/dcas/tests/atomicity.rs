//! Cross-strategy atomicity stress tests (experiment F1).
//!
//! Every strategy must make DCAS appear indivisible. These tests encode
//! invariants that any torn, lost, or duplicated DCAS would violate, and
//! hammer them from many threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dcas::{DcasStrategy, DcasWord, GlobalLock, HarrisMcas};

/// Bank-transfer conservation: the sum across a vector of accounts is
/// invariant under transfer DCASes.
fn conservation<S: DcasStrategy>() {
    const ACCOUNTS: usize = 8;
    const INIT: u64 = 1 << 16;
    let s = Arc::new(S::default());
    let accounts: Arc<Vec<DcasWord>> = Arc::new((0..ACCOUNTS).map(|_| DcasWord::new(INIT)).collect());

    let mut handles = vec![];
    for t in 0..4u64 {
        let (s, accounts) = (s.clone(), accounts.clone());
        handles.push(std::thread::spawn(move || {
            let mut x = t + 99;
            for _ in 0..25_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let i = (x >> 20) as usize % ACCOUNTS;
                let j = (x >> 40) as usize % ACCOUNTS;
                if i == j {
                    continue;
                }
                let amount = 4 * ((x >> 8) % 16);
                loop {
                    let vi = s.load(&accounts[i]);
                    let vj = s.load(&accounts[j]);
                    if vi < amount {
                        break;
                    }
                    if s.dcas(&accounts[i], &accounts[j], vi, vj, vi - amount, vj + amount) {
                        break;
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let sum: u64 = accounts.iter().map(|a| s.load(a)).sum();
    assert_eq!(sum, INIT * ACCOUNTS as u64, "strategy {} lost money", S::NAME);
}

/// Exactly-once semantics: N threads race one DCAS with identical expected
/// values; exactly one must win.
fn exactly_one_winner<S: DcasStrategy>() {
    for round in 0..200u64 {
        let s = Arc::new(S::default());
        let pair = Arc::new((DcasWord::new(0), DcasWord::new(0)));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let mut handles = vec![];
        for t in 1..=4u64 {
            let (s, pair, barrier) = (s.clone(), pair.clone(), barrier.clone());
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                s.dcas(&pair.0, &pair.1, 0, 0, t * 4, (round + 1) * 4)
            }));
        }
        let winners = handles.into_iter().filter(|_| true).map(|h| h.join().unwrap());
        let count = winners.filter(|&w| w).count();
        assert_eq!(count, 1, "strategy {}: {count} winners in round {round}", S::NAME);
        assert_eq!(s.load(&pair.1), (round + 1) * 4);
        assert!(s.load(&pair.0) % 4 == 0 && s.load(&pair.0) > 0);
    }
}

/// Monotone even/odd protocol: word A holds a counter, word B holds 4*A.
/// Every successful DCAS advances both consistently, so readers must never
/// observe B != 4*A *through a successful identity DCAS* (the paper's
/// atomic-view trick).
fn pair_view_consistency<S: DcasStrategy>() {
    let s = Arc::new(S::default());
    let pair = Arc::new((DcasWord::new(0), DcasWord::new(0)));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let (s, pair, stop) = (s.clone(), pair.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (a, b) = (k * 4, k * 16);
                let (na, nb) = ((k + 1) * 4, (k + 1) * 16);
                assert!(s.dcas(&pair.0, &pair.1, a, b, na, nb));
                k += 1;
            }
        })
    };

    let mut snapshots = 0;
    while snapshots < 2_000 {
        // Take an atomic snapshot via identity DCAS.
        let v1 = s.load(&pair.0);
        let v2 = s.load(&pair.1);
        if s.dcas(&pair.0, &pair.1, v1, v2, v1, v2) {
            assert_eq!(v2, v1 * 4, "strategy {}: torn snapshot ({v1}, {v2})", S::NAME);
            snapshots += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

/// Strong-form DCAS must return a coherent pair on failure.
fn strong_view_coherent<S: DcasStrategy>() {
    let s = Arc::new(S::default());
    let pair = Arc::new((DcasWord::new(0), DcasWord::new(0)));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let (s, pair, stop) = (s.clone(), pair.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                assert!(s.dcas(&pair.0, &pair.1, k * 4, k * 16, (k + 1) * 4, (k + 1) * 16));
                k += 1;
            }
        })
    };

    for _ in 0..2_000 {
        // Expected values that can never occur (not multiples of the
        // protocol) force the strong form down its failure path.
        let (mut o1, mut o2) = (!3u64, !3u64);
        let ok = s.dcas_strong(&pair.0, &pair.1, &mut o1, &mut o2, 4, 4);
        assert!(!ok);
        assert_eq!(o2, o1 * 4, "strategy {}: incoherent strong view ({o1}, {o2})", S::NAME);
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

macro_rules! strategy_tests {
    ($mod_name:ident, $ty:ty) => {
        mod $mod_name {
            use super::*;

            #[test]
            fn conservation_under_contention() {
                conservation::<$ty>();
            }

            #[test]
            fn exactly_one_dcas_winner() {
                exactly_one_winner::<$ty>();
            }

            #[test]
            fn snapshot_pairs_are_consistent() {
                pair_view_consistency::<$ty>();
            }

            #[test]
            fn strong_failure_view_is_coherent() {
                strong_view_coherent::<$ty>();
            }
        }
    };
}

strategy_tests!(global_lock, GlobalLock);
strategy_tests!(harris_mcas, HarrisMcas);
