//! Cross-strategy CASN (multi-word CAS) semantics and stress tests.
//!
//! [`DcasStrategy::casn`] is the primitive underneath the batched deque
//! operations: one linearization point over up to
//! [`MAX_CASN_WORDS`](dcas::MAX_CASN_WORDS) independent words. These
//! tests pin its contract on every strategy: all-or-nothing effect, a
//! failure that leaves every word untouched, and conservation under
//! contention with overlapping word sets.

use std::sync::Arc;

use dcas::{
    CasnEntry, DcasStrategy, DcasWord, GlobalLock, HarrisMcas, HarrisMcasHazard, MAX_CASN_WORDS,
};

/// A successful CASN writes every word; a failed one writes none.
fn all_or_nothing<S: DcasStrategy>() {
    for n in 1..=MAX_CASN_WORDS {
        let s = S::default();
        let words: Vec<DcasWord> = (0..n).map(|i| DcasWord::new(i as u64 * 4)).collect();

        // Success: every word advances.
        let mut entries: Vec<CasnEntry<'_>> = words
            .iter()
            .enumerate()
            .map(|(i, w)| CasnEntry::new(w, i as u64 * 4, i as u64 * 4 + 400))
            .collect();
        assert!(s.casn(&mut entries), "{}: casn/{n} should succeed", S::NAME);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(s.load(w), i as u64 * 4 + 400, "{}: word {i} of {n}", S::NAME);
        }

        // Failure (last word stale): no word moves.
        let mut entries: Vec<CasnEntry<'_>> = words
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let old = if i == n - 1 { 0 } else { i as u64 * 4 + 400 };
                CasnEntry::new(w, old, 8000)
            })
            .collect();
        assert!(!s.casn(&mut entries), "{}: stale casn/{n} should fail", S::NAME);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(
                s.load(w),
                i as u64 * 4 + 400,
                "{}: failed casn/{n} touched word {i}",
                S::NAME
            );
        }
    }
}

/// A 1-entry CASN degenerates to a single-word CAS.
fn single_entry_is_cas<S: DcasStrategy>() {
    let s = S::default();
    let w = DcasWord::new(4);
    assert!(s.casn(&mut [CasnEntry::new(&w, 4, 8)]));
    assert_eq!(s.load(&w), 8);
    assert!(!s.casn(&mut [CasnEntry::new(&w, 4, 12)]));
    assert_eq!(s.load(&w), 8);
}

/// Multi-account transfers through CASN conserve the total even when the
/// word sets of concurrent CASNs partially overlap.
fn conservation_under_contention<S: DcasStrategy>() {
    const ACCOUNTS: usize = 12;
    const INIT: u64 = 1 << 16;
    let s = Arc::new(S::default());
    let accounts: Arc<Vec<DcasWord>> =
        Arc::new((0..ACCOUNTS).map(|_| DcasWord::new(INIT)).collect());

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (s, accounts) = (s.clone(), accounts.clone());
            scope.spawn(move || {
                let mut x = t + 7;
                for _ in 0..10_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    // Move `amount` from each of k source accounts into one
                    // sink: a (k+1)-word CASN with k in 1..=5.
                    let k = 1 + (x >> 16) as usize % 5;
                    let sink = (x >> 24) as usize % ACCOUNTS;
                    let mut idx: Vec<usize> = vec![sink];
                    let mut seed = x;
                    while idx.len() < k + 1 {
                        seed = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
                        let i = (seed >> 33) as usize % ACCOUNTS;
                        if !idx.contains(&i) {
                            idx.push(i);
                        }
                    }
                    let amount = 4 * ((x >> 8) % 8);
                    loop {
                        let vals: Vec<u64> = idx.iter().map(|&i| s.load(&accounts[i])).collect();
                        if vals[1..].iter().any(|&v| v < amount) {
                            break;
                        }
                        let mut entries: Vec<CasnEntry<'_>> = idx
                            .iter()
                            .zip(&vals)
                            .enumerate()
                            .map(|(pos, (&i, &v))| {
                                let new = if pos == 0 {
                                    v + amount * k as u64
                                } else {
                                    v - amount
                                };
                                CasnEntry::new(&accounts[i], v, new)
                            })
                            .collect();
                        if s.casn(&mut entries) {
                            break;
                        }
                    }
                }
            });
        }
    });
    let sum: u64 = accounts.iter().map(|a| s.load(a)).sum();
    assert_eq!(sum, INIT * ACCOUNTS as u64, "strategy {} lost money", S::NAME);
}

/// CASN must linearize correctly against plain DCAS traffic on the same
/// words (the deques mix both).
fn casn_vs_dcas_interop<S: DcasStrategy>() {
    const INIT: u64 = 1 << 16;
    let s = Arc::new(S::default());
    let words: Arc<Vec<DcasWord>> = Arc::new((0..4).map(|_| DcasWord::new(INIT)).collect());

    std::thread::scope(|scope| {
        // Two threads do 4-word CASN rotations (conserving the sum).
        for t in 0..2u64 {
            let (s, words) = (s.clone(), words.clone());
            scope.spawn(move || {
                let mut x = t + 13;
                for _ in 0..8_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let amount = 4 * ((x >> 8) % 8);
                    loop {
                        let vals: Vec<u64> = words.iter().map(|w| s.load(w)).collect();
                        if vals[0] < amount {
                            break;
                        }
                        let mut entries: Vec<CasnEntry<'_>> = words
                            .iter()
                            .zip(&vals)
                            .enumerate()
                            .map(|(i, (w, &v))| {
                                let new = match i {
                                    0 => v - amount,
                                    3 => v + amount,
                                    _ => v,
                                };
                                CasnEntry::new(w, v, new)
                            })
                            .collect();
                        if s.casn(&mut entries) {
                            break;
                        }
                    }
                }
            });
        }
        // Two threads do plain DCAS transfers between words 1 and 2.
        for t in 0..2u64 {
            let (s, words) = (s.clone(), words.clone());
            scope.spawn(move || {
                let mut x = t + 31;
                for _ in 0..8_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let amount = 4 * ((x >> 8) % 8);
                    loop {
                        let v1 = s.load(&words[1]);
                        let v2 = s.load(&words[2]);
                        if v1 < amount {
                            break;
                        }
                        if s.dcas(&words[1], &words[2], v1, v2, v1 - amount, v2 + amount) {
                            break;
                        }
                    }
                }
            });
        }
    });
    let sum: u64 = words.iter().map(|w| s.load(w)).sum();
    assert_eq!(sum, INIT * 4, "strategy {}: casn/dcas interop lost money", S::NAME);
}

macro_rules! strategy_tests {
    ($mod_name:ident, $ty:ty) => {
        mod $mod_name {
            use super::*;

            #[test]
            fn casn_is_all_or_nothing() {
                all_or_nothing::<$ty>();
            }

            #[test]
            fn casn_single_entry_is_cas() {
                single_entry_is_cas::<$ty>();
            }

            #[test]
            fn casn_conserves_under_contention() {
                conservation_under_contention::<$ty>();
            }

            #[test]
            fn casn_interoperates_with_dcas() {
                casn_vs_dcas_interop::<$ty>();
            }
        }
    };
}

strategy_tests!(global_lock, GlobalLock);
strategy_tests!(harris_mcas, HarrisMcas);
strategy_tests!(harris_mcas_hazard, HarrisMcasHazard);
