//! Adaptive contention backoff shared by the DCAS strategies and the
//! baseline deques.
//!
//! Retry loops in lock-free (and spin-lock) code waste cycles and — far
//! worse — memory bandwidth when every contender hammers the same cache
//! line. Sundell & Tsigas observe that naive retry storms are one of the
//! two dominant costs of software-emulated multi-word CAS (the other
//! being per-operation descriptor management; see `desc`). The fix is classical
//! exponential backoff: spin a doubling number of `spin_loop` hints,
//! and once the spin budget is exhausted, yield the OS scheduler so a
//! preempted lease-holder (or, for [`HarrisMcas`](crate::HarrisMcas),
//! the operation we just helped) can run.
//!
//! One [`Backoff`] value lives on the stack of one retry loop; it is
//! deliberately `!Sync` (plain `Cell`-free `&mut` use) and costs nothing
//! when the loop exits on the first attempt.

/// Exponential spin-then-yield backoff for retry loops.
///
/// Mirrors the shape of `crossbeam_utils::Backoff`: the first
/// [`SPIN_LIMIT`](Backoff::SPIN_LIMIT) steps spin `2^step` cpu-relax
/// hints; later steps yield to the OS scheduler. [`Backoff::snooze`]
/// never blocks, so using it inside a lock-free retry loop preserves
/// lock-freedom (it only bounds how *often* a contender re-attempts, not
/// whether it can).
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Steps that spin (step `k` spins `2^k` relax hints).
    pub const SPIN_LIMIT: u32 = 6;

    /// Steps after which the backoff stops growing (a `snooze` beyond
    /// this is a single yield).
    pub const YIELD_LIMIT: u32 = 10;

    /// A fresh backoff (first wait is a single relax hint).
    #[inline]
    pub const fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Resets to the initial state (call after a successful attempt if
    /// the value is reused).
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Busy-spins without ever yielding; for very short expected waits
    /// (e.g. a test-and-test-and-set lock holder in its critical
    /// section). Grows exponentially up to `2^SPIN_LIMIT` hints.
    #[inline]
    pub fn spin(&mut self) {
        for _ in 0..1u32 << self.step.min(Self::SPIN_LIMIT) {
            std::hint::spin_loop();
        }
        if self.step <= Self::SPIN_LIMIT {
            self.step += 1;
        }
    }

    /// Backs off once: spins while the budget lasts, then yields the OS
    /// scheduler. The method of choice for DCAS retry and helping loops.
    #[inline]
    pub fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if self.step <= Self::YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// `true` once backoff has reached the yielding regime — callers
    /// that have an alternative to spinning (e.g. parking) can switch
    /// strategies here.
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step > Self::YIELD_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_to_completion() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..=Backoff::YIELD_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }

    #[test]
    fn spin_caps_at_spin_limit() {
        let mut b = Backoff::new();
        for _ in 0..64 {
            b.spin(); // must terminate quickly even after many calls
        }
        assert!(!b.is_completed()); // spin() never enters the yield regime
    }

    #[test]
    fn snooze_under_contention_makes_progress() {
        // Two threads increment a shared counter through a CAS loop with
        // backoff; the loop must complete (sanity check that snooze
        // never deadlocks or sleeps unboundedly).
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = n.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let mut b = Backoff::new();
                        loop {
                            let v = n.load(Ordering::Relaxed);
                            if n.compare_exchange(v, v + 1, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
                                break;
                            }
                            b.snooze();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::Relaxed), 20_000);
    }
}
