//! The Arora–Blumofe–Plaxton CAS-only work-stealing deque.
//!
//! Reference \[4\] of the paper (*Thread scheduling for multiprogrammed
//! multiprocessors*, SPAA 1998). The paper describes it as "an elegant
//! CAS-based deque with applications in job-stealing algorithms" in which
//! "one side of the deque is accessed by only a single processor, and the
//! other side allows only pop operations" — restrictions the DCAS deques
//! remove. We implement it as a CAS-only baseline; its step machine
//! (`dcas_modelcheck::machines::AbpMachine`) checks every history against
//! the same sequential deque specification as the DCAS deques.
//!
//! The implementation follows the original pseudocode: a bounded array, a
//! `bot` index only the owner moves, and an `age` word packing `(tag,
//! top)` so that the thieves' CAS is ABA-safe across the owner's resets.
//!
//! Values are machine words (use the [`dcas_deque::value::WordValue`]
//! encodings for richer types); slots are atomic so a racing thief never
//! performs a torn read.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

/// Result of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; retry elsewhere.
    Abort,
    /// Stole a value.
    Success(u64),
}

#[inline]
fn pack_age(tag: u32, top: u32) -> u64 {
    ((tag as u64) << 32) | top as u64
}

#[inline]
fn age_top(age: u64) -> u32 {
    age as u32
}

#[inline]
fn age_tag(age: u64) -> u32 {
    (age >> 32) as u32
}

/// The ABP deque. The *bottom* end is owner-only (`push_bottom`,
/// `pop_bottom`); the *top* end supports only [`steal`](AbpDeque::steal).
pub struct AbpDeque {
    /// `(tag, top)` in one CAS-able word.
    age: CachePadded<AtomicU64>,
    /// Next free bottom slot; written only by the owner.
    bot: CachePadded<AtomicUsize>,
    deck: Box<[AtomicU64]>,
}

impl AbpDeque {
    /// Creates a deque with capacity `length`.
    pub fn new(length: usize) -> Self {
        assert!(length >= 1);
        AbpDeque {
            age: CachePadded::new(AtomicU64::new(0)),
            bot: CachePadded::new(AtomicUsize::new(0)),
            deck: (0..length).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.deck.len()
    }

    /// Owner-only: pushes `v` at the bottom. Returns `false` if the array
    /// is exhausted.
    pub fn push_bottom(&self, v: u64) -> bool {
        let b = self.bot.load(Ordering::Relaxed);
        if b == self.deck.len() {
            return false;
        }
        self.deck[b].store(v, Ordering::Relaxed);
        // Publish the slot before advancing bot (release pairs with the
        // thieves' acquire of bot).
        self.bot.store(b + 1, Ordering::Release);
        true
    }

    /// Owner-only: pops from the bottom.
    pub fn pop_bottom(&self) -> Option<u64> {
        let b = self.bot.load(Ordering::Relaxed);
        if b == 0 {
            return None;
        }
        let b = b - 1;
        self.bot.store(b, Ordering::SeqCst);
        let v = self.deck[b].load(Ordering::SeqCst);
        let old_age = self.age.load(Ordering::SeqCst);
        if b > age_top(old_age) as usize {
            return Some(v);
        }
        // The popped slot is also the top: race the thieves.
        self.bot.store(0, Ordering::SeqCst);
        let new_age = pack_age(age_tag(old_age).wrapping_add(1), 0);
        if b == age_top(old_age) as usize
            && self
                .age
                .compare_exchange(old_age, new_age, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            return Some(v);
        }
        // A thief got it; reset for the next epoch.
        self.age.store(new_age, Ordering::SeqCst);
        None
    }

    /// Any thread: attempts to steal from the top.
    pub fn steal(&self) -> Steal {
        let old_age = self.age.load(Ordering::SeqCst);
        let b = self.bot.load(Ordering::Acquire);
        let top = age_top(old_age) as usize;
        if b <= top {
            return Steal::Empty;
        }
        let v = self.deck[top].load(Ordering::SeqCst);
        let new_age = pack_age(age_tag(old_age), age_top(old_age) + 1);
        if self
            .age
            .compare_exchange(old_age, new_age, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            Steal::Success(v)
        } else {
            Steal::Abort
        }
    }

    /// Observed size (racy; diagnostic only).
    pub fn len_approx(&self) -> usize {
        let b = self.bot.load(Ordering::Relaxed);
        let t = age_top(self.age.load(Ordering::Relaxed)) as usize;
        b.saturating_sub(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn owner_lifo() {
        let d = AbpDeque::new(16);
        for i in 1..=5 {
            assert!(d.push_bottom(i * 4));
        }
        for i in (1..=5).rev() {
            assert_eq!(d.pop_bottom(), Some(i * 4));
        }
        assert_eq!(d.pop_bottom(), None);
    }

    #[test]
    fn thief_fifo() {
        let d = AbpDeque::new(16);
        for i in 1..=5 {
            assert!(d.push_bottom(i * 4));
        }
        for i in 1..=5 {
            assert_eq!(d.steal(), Steal::Success(i * 4));
        }
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn capacity_limit() {
        let d = AbpDeque::new(2);
        assert!(d.push_bottom(4));
        assert!(d.push_bottom(8));
        assert!(!d.push_bottom(12));
    }

    #[test]
    fn owner_and_thief_race_for_last() {
        // After the owner drains, steal sees empty; after thieves drain,
        // owner sees empty.
        let d = AbpDeque::new(4);
        d.push_bottom(4);
        assert_eq!(d.pop_bottom(), Some(4));
        assert_eq!(d.steal(), Steal::Empty);
        d.push_bottom(8);
        assert_eq!(d.steal(), Steal::Success(8));
        assert_eq!(d.pop_bottom(), None);
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        const N: u64 = 50_000;
        let d = Arc::new(AbpDeque::new(N as usize));
        let seen = Arc::new((0..N).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut thieves = vec![];
        for _ in 0..3 {
            let (d, seen, stop) = (d.clone(), seen.clone(), stop.clone());
            thieves.push(std::thread::spawn(move || {
                let mut backoff = dcas::Backoff::new();
                loop {
                    match d.steal() {
                        Steal::Success(v) => {
                            seen[(v / 4) as usize].fetch_add(1, Ordering::SeqCst);
                            backoff.reset();
                        }
                        Steal::Empty if stop.load(Ordering::SeqCst) => return,
                        _ => backoff.snooze(),
                    }
                }
            }));
        }

        // Owner: pushes everything, popping a few along the way.
        for i in 0..N {
            let mut backoff = dcas::Backoff::new();
            while !d.push_bottom(i * 4) {
                backoff.snooze();
            }
            if i % 7 == 0 {
                if let Some(v) = d.pop_bottom() {
                    seen[(v / 4) as usize].fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        while let Some(v) = d.pop_bottom() {
            seen[(v / 4) as usize].fetch_add(1, Ordering::SeqCst);
        }
        stop.store(true, Ordering::SeqCst);
        for t in thieves {
            t.join().unwrap();
        }
        // Drain any residue after thieves halted.
        while let Some(v) = d.pop_bottom() {
            seen[(v / 4) as usize].fetch_add(1, Ordering::SeqCst);
        }
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "value {i} seen wrong number of times");
        }
    }
}
