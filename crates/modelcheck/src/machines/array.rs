//! Step machine for the array-based deque (Figures 2, 3, 30, 31).

use dcas_linearize::{DequeOp, DequeRet};

use crate::explore::{StepEvent, System};

use super::Side;

/// Shared state: the two indices and the circular array (`0` is the
/// distinguished null).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayShared {
    /// The left index `L`.
    pub l: usize,
    /// The right index `R`.
    pub r: usize,
    /// The circular array `S`.
    pub slots: Vec<u64>,
}

/// Program counters, named for the figure lines they model. Registers
/// (the paper's `oldR`/`oldL`, `oldS`, `saveR`/`saveL`) are carried in
/// the variants.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    /// About to start the current op (line 2/3 loop head).
    Start,
    /// Pop line 5: read `S[newIdx]`, having read the index as `old_i`.
    PopReadSlot { old_i: usize },
    /// Pop line 7: optional re-read of the index.
    PopRevalidate { old_i: usize },
    /// Pop lines 8-10: the empty-confirming identity DCAS.
    PopEmptyDcas { old_i: usize },
    /// Pop lines 14-18: the main DCAS (strong or weak form).
    PopMainDcas { old_i: usize, old_s: u64 },
    /// Push line 5: read `S[old_i]`.
    PushReadSlot { old_i: usize },
    /// Push line 7: optional re-read of the index.
    PushRevalidate { old_i: usize, old_s: u64 },
    /// Push lines 8-10: the full-confirming identity DCAS.
    PushFullDcas { old_i: usize, old_s: u64 },
    /// Push lines 14-18: the main DCAS.
    PushMainDcas { old_i: usize },
}

/// Per-thread control state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayLocal {
    tid: usize,
    op_idx: usize,
    pc: Pc,
}

/// The array-deque step machine: a capacity, the optional-fragment
/// configuration (Section 3), and one operation script per thread.
pub struct ArrayMachine {
    /// `length_S`.
    pub capacity: usize,
    /// Include line 7 (index revalidation before boundary DCAS).
    pub revalidate_index: bool,
    /// Include lines 17-18 (strong-DCAS failure analysis).
    pub strong_failure_check: bool,
    /// **Unsound variant** for demonstrating the checker: report "empty"
    /// directly from the line-5 slot read instead of confirming with the
    /// identity DCAS of lines 8-10. The paper's central point is that the
    /// boundary cases need an *instantaneous* view of the index and the
    /// adjacent cell; this flag removes that and the explorer finds the
    /// resulting non-linearizable execution.
    pub naive_empty_check: bool,
    /// Per-thread operation scripts.
    pub scripts: Vec<Vec<DequeOp>>,
    /// Values present initially (pushed from the right before the run).
    pub initial_items: Vec<u64>,
}

impl ArrayMachine {
    /// Machine with the paper's published configuration.
    pub fn new(capacity: usize, scripts: Vec<Vec<DequeOp>>) -> Self {
        ArrayMachine {
            capacity,
            revalidate_index: true,
            strong_failure_check: true,
            naive_empty_check: false,
            scripts,
            initial_items: Vec::new(),
        }
    }

    /// Adds initial content.
    pub fn with_initial(mut self, items: Vec<u64>) -> Self {
        assert!(items.len() <= self.capacity);
        self.initial_items = items;
        self
    }

    /// Disables both optional fragments (the weak-DCAS-only variant).
    pub fn minimal(mut self) -> Self {
        self.revalidate_index = false;
        self.strong_failure_check = false;
        self
    }


    fn idx(&self, sh: &ArrayShared, side: Side) -> usize {
        match side {
            Side::Right => sh.r,
            Side::Left => sh.l,
        }
    }

    fn set_idx(&self, sh: &mut ArrayShared, side: Side, v: usize) {
        match side {
            Side::Right => sh.r = v,
            Side::Left => sh.l = v,
        }
    }

    /// The slot a pop reads (`R-1` / `L+1`), which is also the new index.
    fn pop_target(&self, side: Side, old_i: usize) -> usize {
        match side {
            Side::Right => (old_i + self.capacity - 1) % self.capacity,
            Side::Left => (old_i + 1) % self.capacity,
        }
    }

    /// The index a successful push advances to (`R+1` / `L-1`).
    fn push_new_idx(&self, side: Side, old_i: usize) -> usize {
        match side {
            Side::Right => (old_i + 1) % self.capacity,
            Side::Left => (old_i + self.capacity - 1) % self.capacity,
        }
    }

    /// Element count implied by the indices, resolving the empty/full
    /// ambiguity by occupancy (the paper's key observation is precisely
    /// that the indices alone cannot distinguish these two cases).
    fn count(&self, sh: &ArrayShared) -> usize {
        let n = self.capacity;
        let c = (sh.r + n - sh.l - 1) % n;
        if c == 0 {
            // r == l+1: empty or full.
            if sh.slots.iter().all(|&s| s != 0) {
                n
            } else {
                0
            }
        } else {
            c
        }
    }
}

impl System for ArrayMachine {
    type Shared = ArrayShared;
    type Local = ArrayLocal;

    fn initial_shared(&self) -> ArrayShared {
        let mut sh =
            ArrayShared { l: 0, r: 1 % self.capacity, slots: vec![0; self.capacity] };
        for &v in &self.initial_items {
            sh.slots[sh.r] = v;
            sh.r = (sh.r + 1) % self.capacity;
        }
        sh
    }

    fn initial_locals(&self) -> Vec<ArrayLocal> {
        (0..self.scripts.len())
            .map(|tid| ArrayLocal { tid, op_idx: 0, pc: Pc::Start })
            .collect()
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.capacity)
    }

    fn step(&self, sh: &mut ArrayShared, local: &mut ArrayLocal) -> Option<StepEvent> {
        let op = *self.scripts[local.tid].get(local.op_idx)?;
        let side = Side::of(op);
        let is_pop = matches!(op, DequeOp::PopRight | DequeOp::PopLeft);

        let finish = |local: &mut ArrayLocal, ret: DequeRet| {
            local.op_idx += 1;
            local.pc = Pc::Start;
            StepEvent::Linearize(op, ret)
        };

        Some(match std::mem::replace(&mut local.pc, Pc::Start) {
            // Line 3: read the end index.
            Pc::Start => {
                let old_i = self.idx(sh, side);
                local.pc = if is_pop {
                    Pc::PopReadSlot { old_i }
                } else {
                    Pc::PushReadSlot { old_i }
                };
                StepEvent::Internal
            }

            // Pop line 5: read S[newIdx].
            Pc::PopReadSlot { old_i } => {
                let target = self.pop_target(side, old_i);
                let old_s = sh.slots[target];
                if old_s == 0 && self.naive_empty_check {
                    // Unsound shortcut: conclude emptiness from the bare
                    // slot read. The explorer exhibits the interleaving
                    // that falsifies this (see tests).
                    return Some(finish(local, DequeRet::Empty));
                }
                local.pc = if old_s == 0 {
                    if self.revalidate_index {
                        Pc::PopRevalidate { old_i }
                    } else {
                        Pc::PopEmptyDcas { old_i }
                    }
                } else {
                    Pc::PopMainDcas { old_i, old_s }
                };
                StepEvent::Internal
            }

            // Pop line 7: re-read the index; if moved, retry the loop.
            Pc::PopRevalidate { old_i } => {
                local.pc = if self.idx(sh, side) == old_i {
                    Pc::PopEmptyDcas { old_i }
                } else {
                    Pc::Start
                };
                StepEvent::Internal
            }

            // Pop lines 8-10: identity DCAS confirming emptiness.
            Pc::PopEmptyDcas { old_i } => {
                let target = self.pop_target(side, old_i);
                if self.idx(sh, side) == old_i && sh.slots[target] == 0 {
                    finish(local, DequeRet::Empty)
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            // Pop lines 14-18: the main DCAS.
            Pc::PopMainDcas { old_i, old_s } => {
                let target = self.pop_target(side, old_i);
                let cur_i = self.idx(sh, side);
                let cur_s = sh.slots[target];
                if cur_i == old_i && cur_s == old_s {
                    self.set_idx(sh, side, target);
                    sh.slots[target] = 0;
                    finish(local, DequeRet::Value(old_s))
                } else if self.strong_failure_check && cur_i == old_i && cur_s == 0 {
                    // Lines 17-18: the strong DCAS's atomic failure view
                    // shows the index unmoved and the slot null — a
                    // competing pop on the other side stole the last item
                    // (Figure 6). Linearize "empty" at this failed DCAS.
                    finish(local, DequeRet::Empty)
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            // Push line 5: read S[old_i].
            Pc::PushReadSlot { old_i } => {
                let old_s = sh.slots[old_i];
                local.pc = if old_s != 0 {
                    if self.revalidate_index {
                        Pc::PushRevalidate { old_i, old_s }
                    } else {
                        Pc::PushFullDcas { old_i, old_s }
                    }
                } else {
                    Pc::PushMainDcas { old_i }
                };
                StepEvent::Internal
            }

            // Push line 7.
            Pc::PushRevalidate { old_i, old_s } => {
                local.pc = if self.idx(sh, side) == old_i {
                    Pc::PushFullDcas { old_i, old_s }
                } else {
                    Pc::Start
                };
                StepEvent::Internal
            }

            // Push lines 8-10: identity DCAS confirming fullness.
            Pc::PushFullDcas { old_i, old_s } => {
                if self.idx(sh, side) == old_i && sh.slots[old_i] == old_s {
                    finish(local, DequeRet::Full)
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            // Push lines 14-18: the main DCAS.
            Pc::PushMainDcas { old_i } => {
                let v = match op {
                    DequeOp::PushRight(v) | DequeOp::PushLeft(v) => v,
                    _ => unreachable!(),
                };
                let cur_i = self.idx(sh, side);
                if cur_i == old_i && sh.slots[old_i] == 0 {
                    sh.slots[old_i] = v;
                    self.set_idx(sh, side, self.push_new_idx(side, old_i));
                    finish(local, DequeRet::Okay)
                } else if self.strong_failure_check && cur_i == old_i {
                    // Lines 17-18: index unmoved, so the cell is occupied:
                    // the deque is full at this instant.
                    finish(local, DequeRet::Full)
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }
        })
    }

    /// Figure 18: indices in range and the non-null cells form the
    /// contiguous circular segment `(L+1 ..= R-1)`, with the `r == l+1`
    /// case split into all-null (empty) and all-non-null (full).
    fn rep_invariant(&self, sh: &ArrayShared) -> Result<(), String> {
        let n = self.capacity;
        if n == 0 {
            return Err("PhysQueueSize: capacity is zero".into());
        }
        if sh.l >= n || sh.r >= n {
            return Err(format!("RInRange/LInRange: l={} r={} n={}", sh.l, sh.r, n));
        }
        let c = self.count(sh);
        for k in 0..n {
            let idx = (sh.l + 1 + k) % n;
            let occupied = sh.slots[idx] != 0;
            if occupied != (k < c) {
                return Err(format!(
                    "occupancy not contiguous: l={} r={} count={c} slot[{idx}]={} \
                     (slots={:?})",
                    sh.l, sh.r, sh.slots[idx], sh.slots
                ));
            }
        }
        if (sh.l + 1 + c) % n != sh.r && c != n {
            return Err(format!(
                "index/count mismatch: l={} r={} count={c}",
                sh.l, sh.r
            ));
        }
        Ok(())
    }

    /// Figures 19-20: the sequence of values from `L+1` through `R-1`.
    fn abstraction(&self, sh: &ArrayShared) -> Vec<u64> {
        let c = self.count(sh);
        (0..c).map(|k| sh.slots[(sh.l + 1 + k) % self.capacity]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;

    #[test]
    fn sequential_push_pop() {
        let m = ArrayMachine::new(
            3,
            vec![vec![
                DequeOp::PushRight(5),
                DequeOp::PushLeft(6),
                DequeOp::PopRight,
                DequeOp::PopLeft,
                DequeOp::PopLeft,
            ]],
        );
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![]]);
        assert_eq!(report.linearizations, 5);
    }

    #[test]
    fn sequential_full_and_empty() {
        let m = ArrayMachine::new(
            1,
            vec![vec![
                DequeOp::PopRight,          // empty
                DequeOp::PushRight(5),      // okay
                DequeOp::PushLeft(6),       // full
                DequeOp::PopLeft,           // 5
            ]],
        );
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![]]);
    }

    #[test]
    fn two_thread_push_race() {
        let m = ArrayMachine::new(
            4,
            vec![vec![DequeOp::PushRight(5)], vec![DequeOp::PushRight(6)]],
        );
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        let mut finals = report.final_abstracts.clone();
        finals.sort();
        assert_eq!(finals, vec![vec![5, 6], vec![6, 5]]);
    }

    #[test]
    fn initial_items_are_represented() {
        let m = ArrayMachine::new(4, vec![]).with_initial(vec![7, 8, 9]);
        let sh = m.initial_shared();
        assert_eq!(m.abstraction(&sh), vec![7, 8, 9]);
        m.rep_invariant(&sh).unwrap();
    }

    #[test]
    fn minimal_config_also_checks() {
        let m = ArrayMachine::new(
            2,
            vec![vec![DequeOp::PushRight(5), DequeOp::PopLeft], vec![DequeOp::PopRight]],
        )
        .minimal();
        Explorer::default().explore(&m, |_| {}).unwrap();
    }
}
