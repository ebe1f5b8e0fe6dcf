//! Step machine for the Greenwald-style one-word-indices deque (the
//! Section 1.1 comparison baseline implemented in `dcas-baselines`).
//!
//! Every operation reads the packed `(L, R, count)` word and then DCASes
//! it together with one value cell. Model checking serves two purposes:
//!
//! 1. verify that our baseline is itself linearizable (so the E8
//!    performance comparison is apples-to-apples between *correct*
//!    implementations), and
//! 2. make the paper's critique concrete: every DCAS of every operation
//!    compares the same packed index register, so cross-end operations
//!    always conflict — the serialization the paper's algorithms remove
//!    (quantified at runtime by the `cross_end_interference` integration
//!    test and bench E8).

use dcas_linearize::{DequeOp, DequeRet};

use crate::explore::{StepEvent, System};

use super::Side;

/// Shared state: the packed index register modeled as a struct, plus the
/// cells. (Packing is an encoding detail; the model keeps the fields
/// separate but updates them in the single atomic step a real packed word
/// provides.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GreenwaldShared {
    /// Next left insertion index.
    pub l: usize,
    /// Next right insertion index.
    pub r: usize,
    /// Element count (the packed word's third field).
    pub count: usize,
    /// The circular array (0 = null).
    pub slots: Vec<u64>,
}

/// Program counters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    /// Read the packed index word.
    Start,
    /// Pop: read the target cell, then attempt the DCAS.
    PopReadSlot { l: usize, r: usize, count: usize },
    /// Pop: the DCAS on (indices, cell).
    PopDcas { l: usize, r: usize, count: usize, old_s: u64 },
    /// Push: the DCAS on (indices, cell) expecting the cell null.
    PushDcas { l: usize, r: usize, count: usize },
}

/// Per-thread control state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GreenwaldLocal {
    tid: usize,
    op_idx: usize,
    pc: Pc,
}

/// The machine: capacity plus per-thread scripts.
pub struct GreenwaldMachine {
    /// Array capacity.
    pub capacity: usize,
    /// Per-thread operation scripts.
    pub scripts: Vec<Vec<DequeOp>>,
    /// Values present initially.
    pub initial_items: Vec<u64>,
}

impl GreenwaldMachine {
    /// Builds a machine.
    pub fn new(capacity: usize, scripts: Vec<Vec<DequeOp>>) -> Self {
        GreenwaldMachine { capacity, scripts, initial_items: Vec::new() }
    }

    /// Adds initial content.
    pub fn with_initial(mut self, items: Vec<u64>) -> Self {
        assert!(items.len() <= self.capacity);
        self.initial_items = items;
        self
    }


    fn add1(&self, i: usize) -> usize {
        (i + 1) % self.capacity
    }

    fn sub1(&self, i: usize) -> usize {
        (i + self.capacity - 1) % self.capacity
    }
}

impl System for GreenwaldMachine {
    type Shared = GreenwaldShared;
    type Local = GreenwaldLocal;

    fn initial_shared(&self) -> GreenwaldShared {
        let mut sh = GreenwaldShared {
            l: 0,
            r: 1 % self.capacity,
            count: 0,
            slots: vec![0; self.capacity],
        };
        for &v in &self.initial_items {
            sh.slots[sh.r] = v;
            sh.r = (sh.r + 1) % self.capacity;
            sh.count += 1;
        }
        sh
    }

    fn initial_locals(&self) -> Vec<GreenwaldLocal> {
        (0..self.scripts.len())
            .map(|tid| GreenwaldLocal { tid, op_idx: 0, pc: Pc::Start })
            .collect()
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.capacity)
    }

    fn step(&self, sh: &mut GreenwaldShared, local: &mut GreenwaldLocal) -> Option<StepEvent> {
        let op = *self.scripts[local.tid].get(local.op_idx)?;
        let side = Side::of(op);
        let is_pop = matches!(op, DequeOp::PopRight | DequeOp::PopLeft);

        let finish = |local: &mut GreenwaldLocal, ret: DequeRet| {
            local.op_idx += 1;
            local.pc = Pc::Start;
            StepEvent::Linearize(op, ret)
        };

        Some(match std::mem::replace(&mut local.pc, Pc::Start) {
            // One atomic read of the packed word decides empty/full
            // immediately — Greenwald's advantage.
            Pc::Start => {
                let (l, r, count) = (sh.l, sh.r, sh.count);
                if is_pop && count == 0 {
                    return Some(finish(local, DequeRet::Empty));
                }
                if !is_pop && count == self.capacity {
                    return Some(finish(local, DequeRet::Full));
                }
                local.pc = if is_pop {
                    Pc::PopReadSlot { l, r, count }
                } else {
                    Pc::PushDcas { l, r, count }
                };
                StepEvent::Internal
            }

            Pc::PopReadSlot { l, r, count } => {
                let slot = match side {
                    Side::Right => self.sub1(r),
                    Side::Left => self.add1(l),
                };
                let old_s = sh.slots[slot];
                local.pc = if old_s == 0 {
                    Pc::Start // torn view; retry
                } else {
                    Pc::PopDcas { l, r, count, old_s }
                };
                StepEvent::Internal
            }

            Pc::PopDcas { l, r, count, old_s } => {
                let slot = match side {
                    Side::Right => self.sub1(r),
                    Side::Left => self.add1(l),
                };
                if (sh.l, sh.r, sh.count) == (l, r, count) && sh.slots[slot] == old_s {
                    match side {
                        Side::Right => sh.r = slot,
                        Side::Left => sh.l = slot,
                    }
                    sh.count -= 1;
                    sh.slots[slot] = 0;
                    finish(local, DequeRet::Value(old_s))
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            Pc::PushDcas { l, r, count } => {
                let v = match op {
                    DequeOp::PushRight(v) | DequeOp::PushLeft(v) => v,
                    _ => unreachable!(),
                };
                let slot = match side {
                    Side::Right => r,
                    Side::Left => l,
                };
                if (sh.l, sh.r, sh.count) == (l, r, count) && sh.slots[slot] == 0 {
                    match side {
                        Side::Right => sh.r = self.add1(r),
                        Side::Left => sh.l = self.sub1(l),
                    }
                    sh.count += 1;
                    sh.slots[slot] = v;
                    finish(local, DequeRet::Okay)
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }
        })
    }

    fn rep_invariant(&self, sh: &GreenwaldShared) -> Result<(), String> {
        let n = self.capacity;
        if sh.l >= n || sh.r >= n || sh.count > n {
            return Err(format!("indices out of range: {sh:?}"));
        }
        if (sh.l + 1 + sh.count) % n != sh.r && !(sh.count == n && (sh.l + 1) % n == sh.r) {
            return Err(format!("index/count mismatch: {sh:?}"));
        }
        for k in 0..n {
            let idx = (sh.l + 1 + k) % n;
            let occupied = sh.slots[idx] != 0;
            if occupied != (k < sh.count) {
                return Err(format!("occupancy not contiguous at {idx}: {sh:?}"));
            }
        }
        Ok(())
    }

    fn abstraction(&self, sh: &GreenwaldShared) -> Vec<u64> {
        (0..sh.count)
            .map(|k| sh.slots[(sh.l + 1 + k) % self.capacity])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;

    #[test]
    fn sequential_semantics() {
        let m = GreenwaldMachine::new(
            2,
            vec![vec![
                DequeOp::PopRight,      // empty
                DequeOp::PushRight(5),  // okay
                DequeOp::PushLeft(6),   // okay
                DequeOp::PushRight(7),  // full
                DequeOp::PopLeft,       // 6
                DequeOp::PopLeft,       // 5
            ]],
        );
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![]]);
        assert_eq!(report.linearizations, 6);
    }

    #[test]
    fn concurrent_two_ends_verifies() {
        let m = GreenwaldMachine::new(
            3,
            vec![
                vec![DequeOp::PushRight(5), DequeOp::PopLeft],
                vec![DequeOp::PushLeft(6), DequeOp::PopRight],
            ],
        );
        Explorer::default().explore(&m, |_| {}).unwrap();
    }

    #[test]
    fn steal_race_verifies() {
        let m = GreenwaldMachine::new(3, vec![vec![DequeOp::PopRight], vec![DequeOp::PopLeft]])
            .with_initial(vec![7]);
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![]]);
    }

    #[test]
    fn random_walks_larger_config() {
        let m = GreenwaldMachine::new(
            4,
            vec![
                vec![DequeOp::PushRight(10), DequeOp::PopLeft, DequeOp::PushRight(11)],
                vec![DequeOp::PopRight, DequeOp::PushLeft(20), DequeOp::PopLeft],
            ],
        )
        .with_initial(vec![5]);
        Explorer::default().random_walks(&m, 2_000, 0x6133).unwrap();
    }
}
