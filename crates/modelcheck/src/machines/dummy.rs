//! Step machine for the **dummy-node** variant of the linked-list deque
//! (the paper's footnote 4 / Figure 10).
//!
//! The paper only sketches this variant in a footnote; the concrete
//! algorithm in `dcas-deque`'s `list_dummy` module is our realization of
//! that sketch (fresh dummy per logical deletion, retired at physical
//! deletion). Because the design is an *interpretation* rather than a
//! transcription, exhaustively model checking it matters even more than
//! for the published listings: this machine mirrors `list_dummy`
//! step-for-step and runs under the same proof obligations.
//!
//! Modeling notes (beyond those of the [`list`](super::list) machine):
//!
//! * Pointer words carry no deleted bit; "deleted" is represented by the
//!   word targeting a *dummy* node whose value field holds the
//!   distinguished `DUMMY` constant and whose `l` field holds the real
//!   target.
//! * Resolving a sentinel word therefore takes an extra shared read (the
//!   candidate's value field), modeled as its own step; the subsequent
//!   read of a dummy's target field is folded into that step because a
//!   dummy's fields are immutable once published.
//! * Each pop operation owns a preassigned dummy arena slot (it may
//!   allocate one dummy per *successful* logical deletion).
//! * As in the list machine, a push's `delete` links the push's node with
//!   its splice DCAS (`DelSpliceDcas`, Figure 15) or its two-null double
//!   splice (`DelTwoNullDcas`, Figure 16), which retire the unlinked
//!   nodes with their dummies and linearize the push.

use std::collections::HashMap;

use dcas_linearize::{DequeOp, DequeRet};

use crate::explore::{StepEvent, System};

use super::{Side, SL, SR};
use super::list::{NodeM, NodeState};

const SENTL_VAL: u64 = 1;
const SENTR_VAL: u64 = 2;
/// The distinguished dummy marker value.
const DUMMY_VAL: u64 = 3;

/// Shared state: the node arena (sentinels, regular nodes, dummies).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DummyShared {
    /// The arena; indices are the model's pointers.
    pub nodes: Vec<NodeM>,
}

impl DummyShared {
    /// Resolves a sentinel word: `(real target, via-dummy?)`.
    fn resolve(&self, w: usize) -> (usize, bool) {
        if self.nodes[w].value == DUMMY_VAL {
            (self.nodes[w].l.0, true)
        } else {
            (w, false)
        }
    }

    /// The interior chain of *real* nodes, left to right.
    pub fn chain(&self) -> Result<Vec<usize>, String> {
        let (start, _) = self.resolve(self.nodes[SL].r.0);
        let mut out = Vec::new();
        let mut cur = start;
        let mut hops = 0;
        while cur != SR {
            if cur == SL {
                return Err("chain loops back to SL".into());
            }
            if hops > self.nodes.len() {
                return Err("chain does not terminate".into());
            }
            out.push(cur);
            cur = self.nodes[cur].r.0;
            hops += 1;
        }
        Ok(out)
    }

    /// Whether the right sentinel indirects through a dummy.
    pub fn right_deleted(&self) -> bool {
        self.resolve(self.nodes[SR].l.0).1
    }

    /// Whether the left sentinel indirects through a dummy.
    pub fn left_deleted(&self) -> bool {
        self.resolve(self.nodes[SL].r.0).1
    }
}

/// Program counters; registers inline. `w` is the raw sentinel word read,
/// `real`/`del` its resolution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    Start,
    /// Read the candidate's value field to resolve dummy-ness, then
    /// dispatch (pop path).
    PopResolve { w: usize },
    /// As `PopResolve`, for push.
    PushResolve { w: usize },
    /// Pop: the sentinel pointed (directly) at the opposite sentinel —
    /// already linearized empty at the read; verify stability.
    PopSentinelConfirm { w: usize },
    /// Pop: read the real node's value (when resolution was direct, this
    /// is the same read; when via dummy, the victim's value).
    PopReadVal { w: usize, real: usize, del: bool },
    /// Pop: identity DCAS confirming emptiness.
    PopEmptyDcas { w: usize, real: usize },
    /// Pop: install a fresh dummy + null the value.
    PopMarkDcas { w: usize, real: usize, v: u64 },
    /// Push: splice-in DCAS.
    PushDcas { w: usize, real: usize },
    /// Delete: re-read sentinel word.
    DelReadSent,
    /// Delete: resolve the sentinel word.
    DelResolve { w: usize },
    /// Delete: read victim's inward pointer.
    DelReadNbr { w: usize, victim: usize },
    /// Delete: read neighbor's value.
    DelReadNbrVal { w: usize, victim: usize, nbr: usize },
    /// Delete: read neighbor's outward pointer, compare.
    DelReadNbrOut { w: usize, victim: usize, nbr: usize },
    /// Delete: splice-out DCAS.
    DelSpliceDcas { w: usize, victim: usize, nbr: usize, nbr_out: usize },
    /// Delete: read the other sentinel word (two-null candidate).
    DelReadOtherSent { w: usize, victim: usize, nbr: usize },
    /// Delete: resolve the other sentinel word; it must resolve to the
    /// null neighbour `nbr` (the erratum fix, DESIGN.md "Known errata").
    DelResolveOther { w: usize, victim: usize, nbr: usize, ow: usize },
    /// Delete: two-null double splice.
    DelTwoNullDcas { w: usize, victim: usize, ow: usize, ovictim: usize },
}

/// Per-thread control state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DummyLocal {
    tid: usize,
    op_idx: usize,
    pc: Pc,
}

/// The dummy-node deque step machine.
pub struct DummyMachine {
    /// Per-thread operation scripts.
    pub scripts: Vec<Vec<DequeOp>>,
    /// Values present initially.
    pub initial_items: Vec<u64>,
    node_for_push: HashMap<(usize, usize), usize>,
    dummy_for_pop: HashMap<(usize, usize), usize>,
    total_nodes: usize,
    /// The two-null branch checks that the far sentinel names the null
    /// neighbour (off only in the negative control).
    two_null_check: bool,
    /// A fused splice points the filled node's inward link at the node
    /// beyond what it unlinks (off only in the negative control).
    fill_relink: bool,
}

impl DummyMachine {
    /// Builds a machine (push values must be `>= 4` here — `3` is the
    /// dummy marker).
    pub fn new(scripts: Vec<Vec<DequeOp>>) -> Self {
        Self::with_initial(scripts, Vec::new())
    }

    /// Builds a machine with initial deque content.
    pub fn with_initial(scripts: Vec<Vec<DequeOp>>, initial_items: Vec<u64>) -> Self {
        let mut node_for_push = HashMap::new();
        let mut dummy_for_pop = HashMap::new();
        let mut next = 2 + initial_items.len();
        for (tid, script) in scripts.iter().enumerate() {
            for (op_idx, op) in script.iter().enumerate() {
                match op {
                    DequeOp::PushRight(v) | DequeOp::PushLeft(v) => {
                        assert!(*v >= 4, "push values must be >= 4 in the dummy model");
                        node_for_push.insert((tid, op_idx), next);
                        next += 1;
                    }
                    DequeOp::PopRight | DequeOp::PopLeft => {
                        dummy_for_pop.insert((tid, op_idx), next);
                        next += 1;
                    }
                    _ => panic!("batched ops are not modelled"),
                }
            }
        }
        for v in &initial_items {
            assert!(*v >= 4);
        }
        DummyMachine {
            scripts,
            initial_items,
            node_for_push,
            dummy_for_pop,
            total_nodes: next,
            two_null_check: true,
            fill_relink: true,
        }
    }

    /// Drops the neighbour check from the two-null branch, as the paper
    /// prints it (DESIGN.md, "Known errata"): the negative control that
    /// the script sweep must catch.
    pub fn without_two_null_check(mut self) -> Self {
        self.two_null_check = false;
        self
    }

    /// Leaves the filled node's inward link naming the spliced victim
    /// instead of the node beyond it: the negative control for the fused
    /// step, which the script sweep must catch.
    pub fn without_fill_relink(mut self) -> Self {
        self.fill_relink = false;
        self
    }

    /// The preassigned node and value of the push at `(tid, op_idx)`, if
    /// `op` is a push: what its `delete` links in.
    fn fill(&self, op: DequeOp, tid: usize, op_idx: usize) -> Option<(usize, u64)> {
        match op {
            DequeOp::PushRight(v) | DequeOp::PushLeft(v) => {
                Some((self.node_for_push[&(tid, op_idx)], v))
            }
            _ => None,
        }
    }
}

impl System for DummyMachine {
    type Shared = DummyShared;
    type Local = DummyLocal;

    fn initial_shared(&self) -> DummyShared {
        let blank = NodeM { l: (0, false), r: (0, false), value: 0, state: NodeState::Unallocated };
        let mut nodes = vec![blank; self.total_nodes];
        nodes[SL] = NodeM { l: (SL, false), r: (SR, false), value: SENTL_VAL, state: NodeState::Live };
        nodes[SR] = NodeM { l: (SL, false), r: (SR, false), value: SENTR_VAL, state: NodeState::Live };
        let k = self.initial_items.len();
        for (i, &v) in self.initial_items.iter().enumerate() {
            let id = 2 + i;
            let left = if i == 0 { SL } else { id - 1 };
            let right = if i == k - 1 { SR } else { id + 1 };
            nodes[id] = NodeM { l: (left, false), r: (right, false), value: v, state: NodeState::Live };
        }
        if k > 0 {
            nodes[SL].r = (2, false);
            nodes[SR].l = (2 + k - 1, false);
        }
        DummyShared { nodes }
    }

    fn initial_locals(&self) -> Vec<DummyLocal> {
        (0..self.scripts.len())
            .map(|tid| DummyLocal { tid, op_idx: 0, pc: Pc::Start })
            .collect()
    }

    fn capacity(&self) -> Option<usize> {
        None
    }

    fn step(&self, sh: &mut DummyShared, local: &mut DummyLocal) -> Option<StepEvent> {
        let op = *self.scripts[local.tid].get(local.op_idx)?;
        let side = Side::of(op);
        let is_pop = matches!(op, DequeOp::PopRight | DequeOp::PopLeft);
        let sent = side.sent();
        let other = side.other_sent();

        let finish = |local: &mut DummyLocal, ret: DequeRet| {
            local.op_idx += 1;
            local.pc = Pc::Start;
            StepEvent::Linearize(op, ret)
        };

        Some(match std::mem::replace(&mut local.pc, Pc::Start) {
            // Read the sentinel inward word.
            Pc::Start => {
                let w = side.sent_inward(&sh.nodes).0;
                if is_pop && w == other {
                    // Directly at the opposite sentinel: linearize empty
                    // at this read (same argument as the bit variant).
                    local.pc = Pc::PopSentinelConfirm { w };
                    StepEvent::Linearize(op, DequeRet::Empty)
                } else {
                    local.pc = if is_pop { Pc::PopResolve { w } } else { Pc::PushResolve { w } };
                    StepEvent::Internal
                }
            }

            Pc::PopSentinelConfirm { w } => {
                let v = sh.nodes[w].value;
                let expect = if side == Side::Right { SENTL_VAL } else { SENTR_VAL };
                assert_eq!(v, expect, "sentinel-stability claim violated in dummy variant");
                local.op_idx += 1;
                local.pc = Pc::Start;
                StepEvent::Internal
            }

            // Read the candidate's value field: dummy or real?
            Pc::PopResolve { w } => {
                let val = sh.nodes[w].value;
                if val == DUMMY_VAL {
                    // Dummy fields are immutable once published: fold the
                    // target read.
                    let real = sh.nodes[w].l.0;
                    local.pc = Pc::PopReadVal { w, real, del: true };
                } else {
                    local.pc = Pc::PopReadVal { w, real: w, del: false };
                }
                StepEvent::Internal
            }

            Pc::PushResolve { w } => {
                let val = sh.nodes[w].value;
                if val == DUMMY_VAL {
                    local.pc = Pc::DelReadSent;
                } else {
                    local.pc = Pc::PushDcas { w, real: w };
                }
                StepEvent::Internal
            }

            Pc::PopReadVal { w, real, del } => {
                let v = sh.nodes[real].value;
                if del {
                    local.pc = Pc::DelReadSent;
                } else if v == if side == Side::Right { SENTL_VAL } else { SENTR_VAL } {
                    // Raced: the word resolved to the opposite sentinel
                    // after an intermediate state change; cannot happen
                    // when resolution was direct (Start handled it), but
                    // a dummy can never target a sentinel either.
                    unreachable!("dummy resolution led to a sentinel value");
                } else if v == 0 {
                    local.pc = Pc::PopEmptyDcas { w, real };
                } else {
                    local.pc = Pc::PopMarkDcas { w, real, v };
                }
                StepEvent::Internal
            }

            Pc::PopEmptyDcas { w, real } => {
                if side.sent_inward(&sh.nodes).0 == w && sh.nodes[real].value == 0 {
                    finish(local, DequeRet::Empty)
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            // Install a fresh dummy targeting `real`, null the value.
            Pc::PopMarkDcas { w, real, v } => {
                if side.sent_inward(&sh.nodes).0 == w && sh.nodes[real].value == v {
                    let dummy = self.dummy_for_pop[&(local.tid, local.op_idx)];
                    debug_assert_eq!(sh.nodes[dummy].state, NodeState::Unallocated);
                    sh.nodes[dummy] = NodeM {
                        l: (real, false),
                        r: (0, false),
                        value: DUMMY_VAL,
                        state: NodeState::Live,
                    };
                    side.set_sent_inward(&mut sh.nodes, (dummy, false));
                    sh.nodes[real].value = 0;
                    finish(local, DequeRet::Value(v))
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            Pc::PushDcas { w, real } => {
                let (node, v) = self.fill(op, local.tid, local.op_idx).expect("a push");
                if side.sent_inward(&sh.nodes).0 == w && side.outward(&sh.nodes[real]).0 == sent {
                    sh.nodes[node].init_pushed(side, v, (real, false));
                    side.set_sent_inward(&mut sh.nodes, (node, false));
                    side.set_outward(&mut sh.nodes[real], (node, false));
                    finish(local, DequeRet::Okay)
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            Pc::DelReadSent => {
                let w = side.sent_inward(&sh.nodes).0;
                local.pc = Pc::DelResolve { w };
                StepEvent::Internal
            }

            Pc::DelResolve { w } => {
                if sh.nodes[w].value == DUMMY_VAL {
                    let victim = sh.nodes[w].l.0;
                    local.pc = Pc::DelReadNbr { w, victim };
                } else {
                    local.pc = Pc::Start; // deletion already completed
                }
                StepEvent::Internal
            }

            Pc::DelReadNbr { w, victim } => {
                let nbr = side.inward(&sh.nodes[victim]).0;
                local.pc = Pc::DelReadNbrVal { w, victim, nbr };
                StepEvent::Internal
            }

            Pc::DelReadNbrVal { w, victim, nbr } => {
                let v = sh.nodes[nbr].value;
                // The neighbor is reached via the victim's *own* link
                // field, never via a sentinel word, so it cannot be a
                // dummy.
                debug_assert_ne!(v, DUMMY_VAL);
                local.pc = if v != 0 {
                    Pc::DelReadNbrOut { w, victim, nbr }
                } else {
                    Pc::DelReadOtherSent { w, victim, nbr }
                };
                StepEvent::Internal
            }

            Pc::DelReadNbrOut { w, victim, nbr } => {
                let nbr_out = side.outward(&sh.nodes[nbr]).0;
                local.pc = if nbr_out == victim {
                    Pc::DelSpliceDcas { w, victim, nbr, nbr_out }
                } else {
                    Pc::DelReadSent
                };
                StepEvent::Internal
            }

            // Figure 15's splice; run by a push, it links the push's
            // node between `nbr` and the sentinel in the same DCAS
            // (Figures 13/33 lines 14-18 on the words the splice wrote)
            // and linearizes the push.
            Pc::DelSpliceDcas { w, victim, nbr, nbr_out } => {
                if side.sent_inward(&sh.nodes).0 == w && side.outward(&sh.nodes[nbr]).0 == nbr_out
                {
                    sh.nodes[victim].state = NodeState::Freed;
                    sh.nodes[w].state = NodeState::Freed; // the dummy
                    if let Some((node, v)) = self.fill(op, local.tid, local.op_idx) {
                        let inward = if self.fill_relink { nbr } else { victim };
                        sh.nodes[node].init_pushed(side, v, (inward, false));
                        side.set_sent_inward(&mut sh.nodes, (node, false));
                        side.set_outward(&mut sh.nodes[nbr], (node, false));
                        return Some(finish(local, DequeRet::Okay));
                    }
                    side.set_sent_inward(&mut sh.nodes, (nbr, false));
                    side.set_outward(&mut sh.nodes[nbr], (sent, false));
                    local.pc = Pc::Start;
                } else {
                    local.pc = Pc::DelReadSent;
                }
                StepEvent::Internal
            }

            Pc::DelReadOtherSent { w, victim, nbr } => {
                let other_side = side.other();
                let ow = other_side.sent_inward(&sh.nodes).0;
                local.pc = Pc::DelResolveOther { w, victim, nbr, ow };
                StepEvent::Internal
            }

            Pc::DelResolveOther { w, victim, nbr, ow } => {
                let ovictim = sh.nodes[ow].l.0;
                if sh.nodes[ow].value == DUMMY_VAL && (ovictim == nbr || !self.two_null_check) {
                    local.pc = Pc::DelTwoNullDcas { w, victim, ow, ovictim };
                } else {
                    local.pc = Pc::DelReadSent;
                }
                StepEvent::Internal
            }

            // Figure 16's double splice; run by a push, it points both
            // sentinel words at the push's node instead (the push into
            // the empty deque on the words the splice wrote) and
            // linearizes the push.
            Pc::DelTwoNullDcas { w, victim, ow, ovictim } => {
                let other_side = side.other();
                if side.sent_inward(&sh.nodes).0 == w
                    && other_side.sent_inward(&sh.nodes).0 == ow
                {
                    assert_ne!(victim, ovictim, "two-null splice on a single node");
                    sh.nodes[victim].state = NodeState::Freed;
                    sh.nodes[ovictim].state = NodeState::Freed;
                    sh.nodes[w].state = NodeState::Freed;
                    sh.nodes[ow].state = NodeState::Freed;
                    if let Some((node, v)) = self.fill(op, local.tid, local.op_idx) {
                        let inward = if self.fill_relink { other } else { victim };
                        sh.nodes[node].init_pushed(side, v, (inward, false));
                        side.set_sent_inward(&mut sh.nodes, (node, false));
                        other_side.set_sent_inward(&mut sh.nodes, (node, false));
                        return Some(finish(local, DequeRet::Okay));
                    }
                    side.set_sent_inward(&mut sh.nodes, (other, false));
                    other_side.set_sent_inward(&mut sh.nodes, (sent, false));
                    local.pc = Pc::Start;
                } else {
                    local.pc = Pc::DelReadSent;
                }
                StepEvent::Internal
            }
        })
    }

    fn rep_invariant(&self, sh: &DummyShared) -> Result<(), String> {
        if sh.nodes[SL].value != SENTL_VAL || sh.nodes[SR].value != SENTR_VAL {
            return Err("sentinel values corrupted".into());
        }
        let chain = sh.chain()?;

        // Sentinel words resolve into the chain.
        let (right_real, right_del) = sh.resolve(sh.nodes[SR].l.0);
        let (left_real, left_del) = sh.resolve(sh.nodes[SL].r.0);
        let rightmost = chain.last().copied().unwrap_or(SL);
        let leftmost = chain.first().copied().unwrap_or(SR);
        if right_real != rightmost {
            return Err(format!("SR->L resolves to {right_real}, rightmost is {rightmost}"));
        }
        if left_real != leftmost {
            return Err(format!("SL->R resolves to {left_real}, leftmost is {leftmost}"));
        }

        // Chain nodes: live, doubly linked, non-sentinel non-dummy values.
        for (i, &id) in chain.iter().enumerate() {
            let node = &sh.nodes[id];
            if node.state != NodeState::Live {
                return Err(format!("chain node {id} is {:?}", node.state));
            }
            if node.value == SENTL_VAL || node.value == SENTR_VAL || node.value == DUMMY_VAL {
                return Err(format!("interior node {id} holds a reserved value"));
            }
            let left_expect = if i == 0 { SL } else { chain[i - 1] };
            let right_expect = if i == chain.len() - 1 { SR } else { chain[i + 1] };
            if node.l.0 != left_expect || node.r.0 != right_expect {
                return Err(format!("node {id} links are inconsistent"));
            }
        }

        // Deleted-marking rules, as in the bit variant.
        if right_del {
            if chain.is_empty() {
                return Err("right dummy with empty chain".into());
            }
            if sh.nodes[rightmost].value != 0 {
                return Err("right dummy but rightmost non-null".into());
            }
        }
        if left_del {
            if chain.is_empty() {
                return Err("left dummy with empty chain".into());
            }
            if sh.nodes[leftmost].value != 0 {
                return Err("left dummy but leftmost non-null".into());
            }
        }
        for (i, &id) in chain.iter().enumerate() {
            if sh.nodes[id].value == 0 {
                let first_ok = i == 0 && left_del;
                let last_ok = i == chain.len() - 1 && right_del;
                if !first_ok && !last_ok {
                    return Err(format!("null node {id} without adjacent dummy marking"));
                }
            }
        }

        // Dummy census: live dummies are exactly those the sentinel words
        // go through.
        for (id, node) in sh.nodes.iter().enumerate().skip(2) {
            if node.state == NodeState::Live && node.value == DUMMY_VAL {
                let is_right = sh.nodes[SR].l.0 == id;
                let is_left = sh.nodes[SL].r.0 == id;
                if !is_right && !is_left {
                    return Err(format!("orphaned live dummy {id}"));
                }
            }
            if node.state == NodeState::Live
                && node.value != DUMMY_VAL
                && !chain.contains(&id)
            {
                return Err(format!("live node {id} is not linked"));
            }
            if node.state == NodeState::Freed && chain.contains(&id) {
                return Err(format!("freed node {id} still linked"));
            }
        }
        Ok(())
    }

    fn abstraction(&self, sh: &DummyShared) -> Vec<u64> {
        sh.chain()
            .expect("abstraction called on state violating R")
            .into_iter()
            .map(|id| sh.nodes[id].value)
            .filter(|&v| v != 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;

    #[test]
    fn sequential_ops() {
        let m = DummyMachine::new(vec![vec![
            DequeOp::PushRight(5),
            DequeOp::PushLeft(6),
            DequeOp::PopRight,
            DequeOp::PopRight,
            DequeOp::PopRight,
            DequeOp::PopLeft,
        ]]);
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![]]);
        assert_eq!(report.linearizations, 6);
    }

    #[test]
    fn fig10_state_reachable() {
        // "Empty deque with one deleted cell marked by a right dummy node".
        let m = DummyMachine::with_initial(vec![vec![DequeOp::PopRight]], vec![5]);
        let mut seen = false;
        Explorer::default()
            .explore(&m, |sh: &DummyShared| {
                let chain = sh.chain().unwrap();
                if chain.len() == 1
                    && sh.nodes[chain[0]].value == 0
                    && sh.right_deleted()
                    && !sh.left_deleted()
                {
                    seen = true;
                }
            })
            .unwrap();
        assert!(seen, "Figure 10 state not reached");
    }

    #[test]
    fn two_thread_mixed() {
        let m = DummyMachine::new(vec![
            vec![DequeOp::PushRight(5), DequeOp::PopLeft],
            vec![DequeOp::PushLeft(6), DequeOp::PopRight],
        ]);
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert!(report.states > 30);
    }

    #[test]
    fn contending_deletes_both_outcomes() {
        // The Figure 16 race, dummy-variant edition.
        let m = DummyMachine::with_initial(
            vec![
                vec![DequeOp::PopRight, DequeOp::PopRight],
                vec![DequeOp::PopLeft, DequeOp::PopLeft],
            ],
            vec![5, 6],
        );
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![]]);
    }

    #[test]
    fn random_walks_larger_config() {
        let m = DummyMachine::with_initial(
            vec![
                vec![DequeOp::PushRight(10), DequeOp::PopLeft, DequeOp::PopRight],
                vec![DequeOp::PopRight, DequeOp::PushLeft(20), DequeOp::PopLeft],
            ],
            vec![5, 6],
        );
        Explorer::default().random_walks(&m, 2_000, 0xD117).unwrap();
    }

    #[test]
    fn fused_two_null_push() {
        // Two nulls, then a push at the right end: on one thread its
        // deleteRight can only take the two-null branch, and the double
        // splice links the push's node. Every other node ends freed.
        // Without the relink the filled node's inward link names a
        // spliced node, which the invariant must reject.
        let script = vec![vec![
            DequeOp::PushLeft(5),
            DequeOp::PushRight(6),
            DequeOp::PopRight,
            DequeOp::PopLeft,
            DequeOp::PushRight(7),
        ]];
        let report = Explorer::default().explore(&DummyMachine::new(script.clone()), |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![7]]);
        for sh in &report.final_shared {
            let chain = sh.chain().unwrap();
            for (id, n) in sh.nodes.iter().enumerate().skip(2) {
                let want = if chain == [id] { NodeState::Live } else { NodeState::Freed };
                assert_eq!(n.state, want, "node {id}");
            }
        }
        assert!(Explorer::default()
            .explore(&DummyMachine::new(script).without_fill_relink(), |_| {})
            .is_err());
    }
}
