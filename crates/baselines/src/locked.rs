//! The lock-based baseline deque.

use std::collections::VecDeque;

use dcas_deque::{ConcurrentDeque, Full};
use parking_lot::Mutex;

/// `VecDeque` behind a `parking_lot::Mutex`: the conventional blocking
/// implementation every non-blocking claim is measured against.
pub struct MutexDeque<T> {
    capacity: Option<usize>,
    inner: Mutex<VecDeque<T>>,
}

impl<T> MutexDeque<T> {
    /// Unbounded variant.
    pub fn new() -> Self {
        MutexDeque { capacity: None, inner: Mutex::new(VecDeque::new()) }
    }

    /// Bounded variant with capacity `length` (for apples-to-apples
    /// comparison with the array deque).
    pub fn bounded(length: usize) -> Self {
        assert!(length >= 1);
        MutexDeque { capacity: Some(length), inner: Mutex::new(VecDeque::with_capacity(length)) }
    }
}

impl<T> Default for MutexDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ConcurrentDeque<T> for MutexDeque<T> {
    fn push_right(&self, v: T) -> Result<(), Full<T>> {
        let mut g = self.inner.lock();
        if self.capacity.is_some_and(|c| g.len() == c) {
            return Err(Full(v));
        }
        g.push_back(v);
        Ok(())
    }

    fn push_left(&self, v: T) -> Result<(), Full<T>> {
        let mut g = self.inner.lock();
        if self.capacity.is_some_and(|c| g.len() == c) {
            return Err(Full(v));
        }
        g.push_front(v);
        Ok(())
    }

    fn pop_right(&self) -> Option<T> {
        self.inner.lock().pop_back()
    }

    fn pop_left(&self) -> Option<T> {
        self.inner.lock().pop_front()
    }

    fn impl_name(&self) -> &'static str {
        "mutex-vecdeque"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<D: ConcurrentDeque<u64>>(d: &D, bounded_at: Option<usize>) {
        d.push_right(1).unwrap();
        d.push_left(2).unwrap();
        d.push_right(3).unwrap();
        if let Some(cap) = bounded_at {
            assert_eq!(cap, 3);
            assert_eq!(d.push_right(4).unwrap_err().into_inner(), 4);
        }
        assert_eq!(d.pop_left(), Some(2));
        assert_eq!(d.pop_right(), Some(3));
        assert_eq!(d.pop_right(), Some(1));
        assert_eq!(d.pop_right(), None);
        assert_eq!(d.pop_left(), None);
    }

    #[test]
    fn mutex_deque_semantics() {
        exercise(&MutexDeque::new(), None);
        exercise(&MutexDeque::bounded(3), Some(3));
    }

    #[test]
    fn mutex_deque_concurrent_sum() {
        use std::sync::Arc;
        let d = Arc::new(MutexDeque::new());
        let mut handles = vec![];
        for t in 0..4u64 {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                let mut popped = 0u64;
                for i in 0..10_000u64 {
                    d.push_right(t * 10_000 + i).unwrap();
                    if i % 2 == 0 {
                        if let Some(v) = d.pop_left() {
                            popped += v;
                        }
                    }
                }
                popped
            }));
        }
        let mut total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        while let Some(v) = d.pop_left() {
            total += v;
        }
        let expect: u64 = (0..40_000u64).sum();
        assert_eq!(total, expect);
    }
}
