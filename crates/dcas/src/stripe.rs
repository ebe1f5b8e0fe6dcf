//! Per-thread counter stripes: the one layout every hot-path counter in
//! this workspace uses (descriptor gauge, garbage gauges, node-pool
//! census and `stats` counters here; the scheduler's telemetry and the
//! broker's counters in the crates above).
//!
//! A counter that every thread read-modify-writes is one cache line
//! bouncing between cores on every operation — measuring the hot path
//! would slow it down. Each thread instead takes a stripe index
//! round-robin on first use and writes only its own line of a
//! [`Striped`] block; readers fold the lines. The first eight threads
//! get private lines and later ones share them round-robin, which is
//! why writers still use atomic RMWs on their line.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

/// Lines per [`Striped`] block. A power of two so the per-thread index
/// is a mask; eight 128-byte lines keep a block at 1 KiB.
pub(crate) const STRIPES: usize = 8;

/// The calling thread's stripe, fixed for the thread's lifetime.
#[inline]
pub(crate) fn index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
    }
    IDX.try_with(|i| *i).unwrap_or(0)
}

/// Eight cache-line-padded copies of `T`, one per thread stripe: a
/// thread writes [`mine`](Self::mine), readers fold
/// [`lines`](Self::lines).
#[derive(Debug)]
pub struct Striped<T>([CachePadded<T>; STRIPES]);

impl<T> Striped<T> {
    /// Wraps `lines`; usable in `static` initializers.
    pub(crate) const fn new(lines: [CachePadded<T>; STRIPES]) -> Self {
        Striped(lines)
    }

    /// The line of stripe `i` (an [`index`] taken earlier, possibly on
    /// another thread).
    #[inline]
    pub(crate) fn line(&self, i: usize) -> &T {
        &self.0[i]
    }

    /// The calling thread's line.
    #[inline]
    pub fn mine(&self) -> &T {
        self.line(index())
    }

    /// Every line, for readers that fold them.
    pub fn lines(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|l| &**l)
    }
}

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Striped(std::array::from_fn(|_| CachePadded::default()))
    }
}

impl Striped<AtomicU64> {
    /// An all-zero striped counter.
    pub(crate) const fn zero() -> Self {
        Striped::new([const { CachePadded::new(AtomicU64::new(0)) }; STRIPES])
    }

    /// Adds one on the caller's line.
    #[inline]
    pub(crate) fn inc(&self) {
        self.mine().fetch_add(1, Ordering::Relaxed);
    }

    /// Sum over the lines (racy against concurrent writers).
    pub(crate) fn sum(&self) -> u64 {
        self.lines().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_stable_and_in_range() {
        let i = index();
        assert!(i < STRIPES);
        assert_eq!(index(), i);
    }

    #[test]
    fn counter_lines_are_padded_and_sum_across_threads() {
        assert_eq!(std::mem::size_of::<Striped<AtomicU64>>(), STRIPES * 128);
        let c = std::sync::Arc::new(Striped::zero());
        let handles: Vec<_> = (0..2 * STRIPES)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || (0..1000).for_each(|_| c.inc()))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.sum(), 2 * STRIPES as u64 * 1000);
    }
}
