//! Step machine for the linked-list deque (Figures 11, 13, 17, 32, 33,
//! 34).
//!
//! # Modeling choices
//!
//! * Nodes live in a fixed arena: index 0 is `SL`, index 1 is `SR`,
//!   index `2..2+k` hold the initial items, and each push operation of
//!   each thread owns one **preassigned** arena slot. Preassignment makes
//!   node identity deterministic across interleavings, which keeps the
//!   visited-state deduplication effective.
//! * Pointer words are `(node index, deleted bit)` pairs; values are
//!   `0 = null`, `1 = sentL`, `2 = sentR`, `>= 3` = user values.
//! * Physical deletion marks a node `Freed` but **retains its fields**:
//!   this is precisely the garbage-collection semantics the paper assumes
//!   (a processor that still holds a reference can keep reading a node
//!   that has been unlinked; the memory is not recycled). Freed nodes are
//!   never reused, so there is no ABA on node identity — again matching
//!   the GC assumption.
//! * The linearization point of a pop that returns "empty" after seeing
//!   the opposite sentinel (line 5 of Figures 11/32) is the **read at
//!   line 3**, exactly as assigned in Section 5.2; the machine then
//!   *verifies* the paper's supporting claim — that the value read at
//!   line 4 is necessarily the sentinel value — instead of assuming it.
//! * A push that finds its end marked runs `delete` (Figures 17/34) with
//!   its own node as the *fill*: the splice DCAS (`DelSpliceDcas`,
//!   Figure 15) or the two-null double splice (`DelTwoNullDcas`,
//!   Figure 16) then links the push's preassigned node in place of what
//!   it unlinks, and is the push's linearization point. That fused step is the splice DCAS
//!   followed by the push DCAS of Figures 13/33 lines 14-18 (Figure 14)
//!   with no step between them; a pop's `delete` keeps the paper's
//!   splices.

use std::collections::HashMap;

use dcas_linearize::{DequeOp, DequeRet};

use crate::explore::{StepEvent, System};

use super::{Linked, Side, SL, SR};

pub use super::PtrW;

/// Allocation state of an arena slot (models the GC'd heap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeState {
    /// Not yet allocated by its owning push.
    Unallocated,
    /// Linked (or at least published) in the structure.
    Live,
    /// Physically deleted; fields frozen, never reused.
    Freed,
}

/// One modeled node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeM {
    /// Left pointer word.
    pub l: PtrW,
    /// Right pointer word.
    pub r: PtrW,
    /// Value word (0 null, 1 sentL, 2 sentR, >= 3 user).
    pub value: u64,
    /// Heap state.
    pub state: NodeState,
}

impl NodeM {
    /// Figures 13/33 lines 10-13: makes this push node hold `v`, with an
    /// outward link to `side`'s sentinel and an inward link to `inward`.
    /// The DCAS step that calls this publishes it.
    pub(super) fn init_pushed(&mut self, side: Side, v: u64, inward: PtrW) {
        debug_assert_eq!(self.state, NodeState::Unallocated);
        self.value = v;
        self.state = NodeState::Live;
        side.set_outward(self, (side.sent(), false));
        side.set_inward(self, inward);
    }
}

impl Linked for NodeM {
    fn links(&self) -> (PtrW, PtrW) {
        (self.l, self.r)
    }

    fn links_mut(&mut self) -> (&mut PtrW, &mut PtrW) {
        (&mut self.l, &mut self.r)
    }
}

const SENTL_VAL: u64 = 1;
const SENTR_VAL: u64 = 2;

/// Shared state: the node arena (sentinels included).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ListShared {
    /// The arena; indices are the model's pointers.
    pub nodes: Vec<NodeM>,
}

impl ListShared {
    /// The interior chain (node indices) from left to right, if
    /// well-formed.
    pub fn chain(&self) -> Result<Vec<usize>, String> {
        let mut out = Vec::new();
        let mut cur = self.nodes[SL].r.0;
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

    /// The deleted bit of the right sentinel's inward pointer.
    pub fn right_deleted(&self) -> bool {
        self.nodes[SR].l.1
    }

    /// The deleted bit of the left sentinel's inward pointer.
    pub fn left_deleted(&self) -> bool {
        self.nodes[SL].r.1
    }
}

/// Program counters (registers inline), shared by both sides; the side is
/// recovered from the current operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    /// Op loop head: read the operating sentinel's inward pointer
    /// (pop line 3 / push line 6 / nothing pending).
    Start,
    /// Pop line 4 after the line-3 read already linearized "empty":
    /// verify the stability claim and return.
    PopSentinelConfirm { old_p: PtrW },
    /// Pop line 4: read the victim's value.
    PopReadVal { old_p: PtrW },
    /// Pop lines 9-11: identity DCAS confirming emptiness.
    PopEmptyDcas { old_p: PtrW },
    /// Pop lines 14-18: the logical-deletion DCAS.
    PopMarkDcas { old_p: PtrW, v: u64 },
    /// Push lines 10-18: initialize the unpublished node and attempt the
    /// splice-in DCAS.
    PushDcas { old_p: PtrW },
    /// Delete line 3: (re)read the sentinel inward pointer.
    DelReadSent,
    /// Delete line 5: read the victim's inward pointer.
    DelReadNbr { old_p: PtrW },
    /// Delete line 6: read the neighbor's value.
    DelReadNbrVal { old_p: PtrW, nbr: usize },
    /// Delete lines 7-8: read the neighbor's outward pointer and compare.
    DelReadNbrOut { old_p: PtrW, nbr: usize },
    /// Delete lines 9-13: the splice-out DCAS.
    DelSpliceDcas { old_p: PtrW, nbr: usize, nbr_out: PtrW },
    /// Delete line 17(-18/22): read the *other* sentinel's inward pointer
    /// and check it names the null neighbour `nbr` read at line 5 (the
    /// erratum fix; see DESIGN.md "Known errata").
    DelReadOtherSent { old_p: PtrW, nbr: usize },
    /// Delete lines 19-25: the two-null double-splice DCAS (Figure 16).
    DelTwoNullDcas { old_p: PtrW, other: PtrW },
}

/// Per-thread control state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ListLocal {
    tid: usize,
    op_idx: usize,
    pc: Pc,
}

/// The linked-list deque step machine.
pub struct ListMachine {
    /// Per-thread operation scripts.
    pub scripts: Vec<Vec<DequeOp>>,
    /// Values present initially.
    pub initial_items: Vec<u64>,
    /// Arena slot owned by each push op.
    node_for_push: HashMap<(usize, usize), usize>,
    total_nodes: usize,
    /// The two-null branch checks that the far sentinel names the null
    /// neighbour (off only in the negative control).
    two_null_check: bool,
    /// A fused splice points the filled node's inward link at the node
    /// beyond what it unlinks (off only in the negative control).
    fill_relink: bool,
}

impl ListMachine {
    /// Builds a machine for the given scripts (all push values must be
    /// `>= 3` and, for meaningful checking, distinct).
    pub fn new(scripts: Vec<Vec<DequeOp>>) -> Self {
        Self::with_initial(scripts, Vec::new())
    }

    /// Builds a machine with initial deque content.
    pub fn with_initial(scripts: Vec<Vec<DequeOp>>, initial_items: Vec<u64>) -> Self {
        let mut node_for_push = HashMap::new();
        let mut next = 2 + initial_items.len();
        for (tid, script) in scripts.iter().enumerate() {
            for (op_idx, op) in script.iter().enumerate() {
                match op {
                    DequeOp::PushRight(v) | DequeOp::PushLeft(v) => {
                        assert!(*v >= 3, "push values must be >= 3 in the model");
                        node_for_push.insert((tid, op_idx), next);
                        next += 1;
                    }
                    _ => {}
                }
            }
        }
        for v in &initial_items {
            assert!(*v >= 3);
        }
        ListMachine {
            scripts,
            initial_items,
            node_for_push,
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

    /// Leaves the filled node's inward link naming the spliced node `cur`
    /// (the word the push read at line 6) instead of the node beyond it:
    /// the negative control for the fused step, which the script sweep
    /// must catch.
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

impl System for ListMachine {
    type Shared = ListShared;
    type Local = ListLocal;

    fn initial_shared(&self) -> ListShared {
        let blank = NodeM { l: (0, false), r: (0, false), value: 0, state: NodeState::Unallocated };
        let mut nodes = vec![blank; self.total_nodes];
        nodes[SL] = NodeM {
            l: (SL, false), // unused, per the paper
            r: (SR, false),
            value: SENTL_VAL,
            state: NodeState::Live,
        };
        nodes[SR] = NodeM {
            l: (SL, false),
            r: (SR, false), // unused
            value: SENTR_VAL,
            state: NodeState::Live,
        };
        // Wire the initial chain SL <-> 2 <-> 3 <-> ... <-> SR.
        let k = self.initial_items.len();
        for (i, &v) in self.initial_items.iter().enumerate() {
            let id = 2 + i;
            let left = if i == 0 { SL } else { id - 1 };
            let right = if i == k - 1 { SR } else { id + 1 };
            nodes[id] = NodeM {
                l: (left, false),
                r: (right, false),
                value: v,
                state: NodeState::Live,
            };
        }
        if k > 0 {
            nodes[SL].r = (2, false);
            nodes[SR].l = (2 + k - 1, false);
        }
        ListShared { nodes }
    }

    fn initial_locals(&self) -> Vec<ListLocal> {
        (0..self.scripts.len())
            .map(|tid| ListLocal { tid, op_idx: 0, pc: Pc::Start })
            .collect()
    }

    fn capacity(&self) -> Option<usize> {
        None
    }

    fn step(&self, sh: &mut ListShared, local: &mut ListLocal) -> Option<StepEvent> {
        let op = *self.scripts[local.tid].get(local.op_idx)?;
        let side = Side::of(op);
        let is_pop = matches!(op, DequeOp::PopRight | DequeOp::PopLeft);
        let sent = side.sent();
        let other = side.other_sent();

        let finish = |local: &mut ListLocal, ret: DequeRet| {
            local.op_idx += 1;
            local.pc = Pc::Start;
            StepEvent::Linearize(op, ret)
        };

        Some(match std::mem::replace(&mut local.pc, Pc::Start) {
            // Pop line 3 / push line 6: read the sentinel inward pointer.
            Pc::Start => {
                let old_p = side.sent_inward(&sh.nodes);
                if is_pop {
                    if old_p.0 == other && !old_p.1 {
                        // The read that observes "sentinel points to
                        // sentinel" is the linearization point of the
                        // empty pop (Section 5.2, Figure 28).
                        local.pc = Pc::PopSentinelConfirm { old_p };
                        StepEvent::Linearize(op, DequeRet::Empty)
                    } else {
                        local.pc = Pc::PopReadVal { old_p };
                        StepEvent::Internal
                    }
                } else if old_p.1 {
                    // Push lines 7-8: complete the pending deletion, with
                    // this push's node as the fill.
                    local.pc = Pc::DelReadSent;
                    StepEvent::Internal
                } else {
                    local.pc = Pc::PushDcas { old_p };
                    StepEvent::Internal
                }
            }

            // Pop line 4, on the already-linearized empty path: the paper
            // argues the value must still be the (stable) sentinel value.
            Pc::PopSentinelConfirm { old_p } => {
                let v = sh.nodes[old_p.0].value;
                let expect = if side == Side::Right { SENTL_VAL } else { SENTR_VAL };
                assert_eq!(
                    v, expect,
                    "paper's sentinel-stability claim violated: the value read at \
                     line 4 after observing the opposite sentinel at line 3 was {v}"
                );
                local.op_idx += 1;
                local.pc = Pc::Start;
                StepEvent::Internal
            }

            // Pop line 4: read the victim's value.
            Pc::PopReadVal { old_p } => {
                let v = sh.nodes[old_p.0].value;
                assert_ne!(v, if side == Side::Right { SENTL_VAL } else { SENTR_VAL },
                    "non-sentinel pointer led to a sentinel value");
                if old_p.1 {
                    // Line 6: pending deletion on this side.
                    local.pc = Pc::DelReadSent;
                } else if v == 0 {
                    local.pc = Pc::PopEmptyDcas { old_p };
                } else {
                    local.pc = Pc::PopMarkDcas { old_p, v };
                }
                StepEvent::Internal
            }

            // Pop lines 9-11: identity DCAS on (sentinel word, value).
            Pc::PopEmptyDcas { old_p } => {
                if side.sent_inward(&sh.nodes) == old_p && sh.nodes[old_p.0].value == 0 {
                    finish(local, DequeRet::Empty)
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            // Pop lines 14-18: the logical deletion (Figure 12).
            Pc::PopMarkDcas { old_p, v } => {
                if side.sent_inward(&sh.nodes) == old_p && sh.nodes[old_p.0].value == v {
                    side.set_sent_inward(&mut sh.nodes, (old_p.0, true));
                    sh.nodes[old_p.0].value = 0;
                    finish(local, DequeRet::Value(v))
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            // Push lines 10-18: initialize the unpublished node (local
            // writes, folded into this step per the paper's footnote 7)
            // and attempt the two-pointer splice-in (Figure 14).
            Pc::PushDcas { old_p } => {
                let (node, v) = self.fill(op, local.tid, local.op_idx).expect("a push");
                if side.sent_inward(&sh.nodes) == old_p
                    && side.outward(&sh.nodes[old_p.0]) == (sent, false)
                {
                    sh.nodes[node].init_pushed(side, v, old_p);
                    side.set_sent_inward(&mut sh.nodes, (node, false));
                    side.set_outward(&mut sh.nodes[old_p.0], (node, false));
                    finish(local, DequeRet::Okay)
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            // Delete line 3.
            Pc::DelReadSent => {
                let old_p = side.sent_inward(&sh.nodes);
                local.pc = if !old_p.1 {
                    Pc::Start // line 4: deletion already completed
                } else {
                    Pc::DelReadNbr { old_p }
                };
                StepEvent::Internal
            }

            // Delete line 5: read the victim's inward pointer. (The
            // victim may already be Freed — reading its frozen fields is
            // exactly what the GC assumption permits.)
            Pc::DelReadNbr { old_p } => {
                let nbr = side.inward(&sh.nodes[old_p.0]).0;
                local.pc = Pc::DelReadNbrVal { old_p, nbr };
                StepEvent::Internal
            }

            // Delete line 6.
            Pc::DelReadNbrVal { old_p, nbr } => {
                let v = sh.nodes[nbr].value;
                local.pc = if v != 0 {
                    Pc::DelReadNbrOut { old_p, nbr }
                } else {
                    Pc::DelReadOtherSent { old_p, nbr }
                };
                StepEvent::Internal
            }

            // Delete lines 7-8.
            Pc::DelReadNbrOut { old_p, nbr } => {
                let nbr_out = side.outward(&sh.nodes[nbr]);
                local.pc = if nbr_out.0 == old_p.0 {
                    Pc::DelSpliceDcas { old_p, nbr, nbr_out }
                } else {
                    Pc::DelReadSent
                };
                StepEvent::Internal
            }

            // Delete lines 9-13: splice the null node out (Figure 15).
            // Not a linearization point: the explorer checks A unchanged
            // (the paper's Figure 29 verification condition). Run by a
            // push, the same DCAS links the push's node between `nbr` and
            // the sentinel instead — Figure 15's splice, then Figure 14's
            // push on the words it just wrote, `(sent word, nbr.outward):
            // (nbr, sent) → (node, node)` (Figures 13/33 lines 14-18) —
            // and is the push's linearization point.
            Pc::DelSpliceDcas { old_p, nbr, nbr_out } => {
                if side.sent_inward(&sh.nodes) == old_p
                    && side.outward(&sh.nodes[nbr]) == nbr_out
                {
                    sh.nodes[old_p.0].state = NodeState::Freed;
                    if let Some((node, v)) = self.fill(op, local.tid, local.op_idx) {
                        let inward = if self.fill_relink { nbr } else { old_p.0 };
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

            // Delete line 17 (+ the deleted-bit test and the neighbour check).
            Pc::DelReadOtherSent { old_p, nbr } => {
                let other_w = side.other().sent_inward(&sh.nodes);
                local.pc = if other_w.1 && (other_w.0 == nbr || !self.two_null_check) {
                    Pc::DelTwoNullDcas { old_p, other: other_w }
                } else {
                    Pc::DelReadSent
                };
                StepEvent::Internal
            }

            // Delete lines 19-25: both remaining nodes are null; point the
            // sentinels at each other (the Figure 16 race). Run by a push,
            // the same DCAS points both at the push's node instead — the
            // double splice, then the push into the empty deque on the
            // words it just wrote, `(sent word, other word): (other,
            // sent) → (node, node)` — and is the push's linearization
            // point.
            Pc::DelTwoNullDcas { old_p, other: other_w } => {
                let other_side = side.other();
                if side.sent_inward(&sh.nodes) == old_p
                    && other_side.sent_inward(&sh.nodes) == other_w
                {
                    assert_ne!(old_p.0, other_w.0, "two-null splice on a single node");
                    sh.nodes[old_p.0].state = NodeState::Freed;
                    sh.nodes[other_w.0].state = NodeState::Freed;
                    if let Some((node, v)) = self.fill(op, local.tid, local.op_idx) {
                        let inward = if self.fill_relink { other } else { old_p.0 };
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

    /// The representation invariant of Figures 24-25, recast over the
    /// arena model.
    fn rep_invariant(&self, sh: &ListShared) -> Result<(), String> {
        // Sentinels are fixed and hold their distinguished values.
        if sh.nodes[SL].value != SENTL_VAL || sh.nodes[SR].value != SENTR_VAL {
            return Err("LeftSent/RightSent: sentinel values corrupted".into());
        }
        if sh.nodes[SL].state != NodeState::Live || sh.nodes[SR].state != NodeState::Live {
            return Err("sentinels must stay live".into());
        }

        // The chain is finite and acyclic (DistinctNodes / SeqLength).
        let chain = sh.chain()?;

        // Interior nodes are live; doubly-linked pointers agree
        // (RightPointers / LeftPointers); no deleted bits on interior
        // words.
        for (i, &id) in chain.iter().enumerate() {
            let node = &sh.nodes[id];
            if node.state != NodeState::Live {
                return Err(format!("chain node {id} is {:?}", node.state));
            }
            let left_expect = if i == 0 { SL } else { chain[i - 1] };
            let right_expect = if i == chain.len() - 1 { SR } else { chain[i + 1] };
            if node.l != (left_expect, false) {
                return Err(format!(
                    "LeftPointers: node {id} has l={:?}, expected ({left_expect}, false)",
                    node.l
                ));
            }
            if node.r != (right_expect, false) {
                return Err(format!(
                    "RightPointers: node {id} has r={:?}, expected ({right_expect}, false)",
                    node.r
                ));
            }
            // Interior values are null or real (never sentinels).
            if node.value == SENTL_VAL || node.value == SENTR_VAL {
                return Err(format!("interior node {id} holds a sentinel value"));
            }
        }

        // Sentinel inward words close the chain.
        let sr_l = sh.nodes[SR].l;
        let sl_r = sh.nodes[SL].r;
        let rightmost = chain.last().copied().unwrap_or(SL);
        let leftmost = chain.first().copied().unwrap_or(SR);
        if sr_l.0 != rightmost {
            return Err(format!("SR->L points to {} but rightmost is {rightmost}", sr_l.0));
        }
        if sl_r.0 != leftmost {
            return Err(format!("SL->R points to {} but leftmost is {leftmost}", sl_r.0));
        }

        // Deleted bits imply an adjacent null node (and vice versa):
        // the four NonDelNonSentNodesHaveRealVals conjuncts of Figure 25.
        if sr_l.1 {
            if chain.is_empty() {
                return Err("SR->L deleted but the chain is empty".into());
            }
            if sh.nodes[rightmost].value != 0 {
                return Err("SR->L deleted but the rightmost node is non-null".into());
            }
        }
        if sl_r.1 {
            if chain.is_empty() {
                return Err("SL->R deleted but the chain is empty".into());
            }
            if sh.nodes[leftmost].value != 0 {
                return Err("SL->R deleted but the leftmost node is non-null".into());
            }
        }
        for (i, &id) in chain.iter().enumerate() {
            if sh.nodes[id].value == 0 {
                let first_ok = i == 0 && sl_r.1;
                let last_ok = i == chain.len() - 1 && sr_l.1;
                if !first_ok && !last_ok {
                    return Err(format!(
                        "null node {id} is not adjacent to a deleted-marked sentinel \
                         (chain {chain:?}, sl_r={sl_r:?}, sr_l={sr_l:?})"
                    ));
                }
            }
        }

        // Freed and unallocated nodes are outside the chain and hold no
        // live value.
        for (id, node) in sh.nodes.iter().enumerate().skip(2) {
            match node.state {
                NodeState::Unallocated => {
                    if node.value != 0 {
                        return Err(format!("unallocated node {id} has a value"));
                    }
                }
                NodeState::Freed => {
                    if chain.contains(&id) {
                        return Err(format!("freed node {id} is still linked"));
                    }
                    if node.value != 0 {
                        return Err(format!(
                            "freed node {id} still holds value {} (only null nodes are \
                             physically deleted)",
                            node.value
                        ));
                    }
                }
                NodeState::Live => {
                    if !chain.contains(&id) {
                        return Err(format!("live node {id} is not linked"));
                    }
                }
            }
        }
        Ok(())
    }

    /// The abstraction function: the non-null interior values, left to
    /// right.
    fn abstraction(&self, sh: &ListShared) -> Vec<u64> {
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
        let m = ListMachine::new(vec![vec![
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
    fn initial_items_abstraction() {
        let m = ListMachine::with_initial(vec![], vec![7, 8, 9]);
        let sh = m.initial_shared();
        m.rep_invariant(&sh).unwrap();
        assert_eq!(m.abstraction(&sh), vec![7, 8, 9]);
    }

    #[test]
    fn two_thread_opposite_pushes() {
        let m = ListMachine::new(vec![vec![DequeOp::PushRight(5)], vec![DequeOp::PushLeft(6)]]);
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![6, 5]]);
    }

    #[test]
    fn pop_after_remote_mark_sees_empty() {
        // Push then pop right leaves a right-deleted null node; a popLeft
        // script must linearize Empty through the identity DCAS.
        let m = ListMachine::new(vec![vec![
            DequeOp::PushRight(5),
            DequeOp::PopRight,
            DequeOp::PopLeft,
        ]]);
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![]]);
    }

    #[test]
    fn two_null_cleanup_runs() {
        // One element popped from each side leaves two nulls; the next op
        // must double-splice (sequentially deterministic).
        let m = ListMachine::new(vec![vec![
            DequeOp::PushLeft(5),
            DequeOp::PushRight(6),
            DequeOp::PopRight,
            DequeOp::PopLeft,
            DequeOp::PopRight,
        ]]);
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![]]);
        // All four non-sentinel nodes end up freed.
        for sh in &report.final_shared {
            for node in sh.nodes.iter().skip(2) {
                assert_eq!(node.state, NodeState::Freed);
            }
        }
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
        let report = Explorer::default().explore(&ListMachine::new(script.clone()), |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![7]]);
        for sh in &report.final_shared {
            let chain = sh.chain().unwrap();
            for (id, n) in sh.nodes.iter().enumerate().skip(2) {
                let want = if chain == [id] { NodeState::Live } else { NodeState::Freed };
                assert_eq!(n.state, want, "node {id}");
            }
        }
        assert!(Explorer::default()
            .explore(&ListMachine::new(script).without_fill_relink(), |_| {})
            .is_err());
    }
}
