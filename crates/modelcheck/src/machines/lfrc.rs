//! Step machine for the **LFRC (GC-free) list deque** — an exhaustive
//! audit of the reference-counting transformation in
//! `dcas-deque::list_lfrc`.
//!
//! # What is modeled, and at what granularity
//!
//! The LFRC primitives are modeled at *primitive* granularity rather than
//! word granularity:
//!
//! * `load_ptr` (LFRCLoad) is one atomic step. This is a sound
//!   abstraction: the implementation's `DCAS(slot, &target.rc, w, rc, w,
//!   rc+1)` succeeds only when the slot is unchanged, so a successful
//!   `load_ptr` is observationally an atomic "read slot + increment its
//!   target's count", and failures are pure internal retries.
//! * `add_ref` / `release` are one atomic step each (single-word CAS
//!   loops whose failures have no external effect). A `release` that
//!   drops the last reference performs the reclamation cascade within
//!   the step — the cascade only touches nodes that have no other
//!   references, so no interleaving is hidden.
//! * The algorithm's DCASes are one step each, as in the other machines.
//!
//! # The audited invariant
//!
//! The machine tracks a **ghost count** per node: every step that
//! acquires or drops a *local* reference also updates the ghost, so the
//! representation invariant can check, in every reachable state,
//!
//! ```text
//! rc(n) == #{ live pointer slots targeting n } + ghost_local_refs(n)
//! ```
//!
//! exactly — plus: `Freed ⇒ rc == 0`, freed exactly once, values only
//! dying on null nodes, and no dead two-node cycle surviving (the
//! explicit cycle-break is modeled too). Any accounting slip — a missed
//! increment, a double release, a leak, a premature free — fails the
//! invariant at the first state where it occurs, with a replayable
//! schedule.
//!
//! # The fused push
//!
//! As in the list machine, a push's `delete` (Figures 17/34) links the
//! push's node with its splice DCAS (`DelSpliceDcas`, Figure 15) or its
//! two-null double splice (`DelTwoNullDcas`, Figure 16), and that step
//! linearizes the push. Its counts are the implementation's: the node's
//! inward link counts its target once (the counted store), the two
//! words the DCAS writes count the node, the overwritten words release
//! their targets, and the creator's reference is dropped.

use std::collections::HashMap;

use dcas_linearize::{DequeOp, DequeRet};

use crate::explore::{StepEvent, System};

use super::{Linked, Side, SL, SR};

const SENTL_VAL: u64 = 1;
const SENTR_VAL: u64 = 2;

pub use super::PtrW;

/// Node lifecycle in the type-stable pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Life {
    /// Owned by its future push op; untouched.
    Unallocated,
    /// Allocated (published or about to be).
    Live,
    /// Count reached zero; recycled to the pool. Fields cleared.
    Freed,
}

/// One modeled node, with its reference count and the ghost tally of
/// local references (updated in lockstep by the machine itself).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeL {
    /// Left pointer word.
    pub l: PtrW,
    /// Right pointer word.
    pub r: PtrW,
    /// Value word (0 null, 1 sentL, 2 sentR, >= 3 user).
    pub value: u64,
    /// The implementation-visible reference count.
    pub rc: u32,
    /// Ghost: local references currently held by in-flight operations.
    pub ghost_local: u32,
    /// Lifecycle.
    pub life: Life,
}

impl Linked for NodeL {
    fn links(&self) -> (PtrW, PtrW) {
        (self.l, self.r)
    }

    fn links_mut(&mut self) -> (&mut PtrW, &mut PtrW) {
        (&mut self.l, &mut self.r)
    }
}

/// Shared state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LfrcShared {
    /// Arena: 0 = SL, 1 = SR, then initial items, then per-push slots.
    pub nodes: Vec<NodeL>,
}

impl LfrcShared {
    /// The interior chain.
    pub fn chain(&self) -> Result<Vec<usize>, String> {
        let mut out = Vec::new();
        let mut cur = self.nodes[SL].r.0;
        let mut hops = 0;
        while cur != SR {
            if cur == SL || hops > self.nodes.len() {
                return Err("malformed chain".into());
            }
            out.push(cur);
            cur = self.nodes[cur].r.0;
            hops += 1;
        }
        Ok(out)
    }
}

/// Program counters; each variant names the LFRC-transformed step it
/// models. Words held in registers carry counted local references that
/// the machine releases (and un-ghosts) on every exit path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    Start,
    /// Pop: the pointer read observed the opposite sentinel and already
    /// linearized "empty"; verify the stability claim and retire the op.
    PopSentinelConfirm { w: PtrW },
    PopReadVal { w: PtrW },
    PopEmptyDcas { w: PtrW },
    PopMarkDcas { w: PtrW, v: u64 },
    PushPrepare { w: PtrW },
    PushDcas { w: PtrW },
    DelReadSent,
    DelReadNbr { w: PtrW },
    DelReadNbrVal { w: PtrW, nbr_w: PtrW },
    DelReadNbrOut { w: PtrW, nbr_w: PtrW },
    DelSpliceDcas { w: PtrW, nbr_w: PtrW, nbr_out: PtrW },
    DelReadOtherSent { w: PtrW, nbr_w: PtrW },
    DelTwoNullDcas { w: PtrW, nbr_w: PtrW, ow: PtrW },
}

/// Per-thread control state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LfrcLocal {
    tid: usize,
    op_idx: usize,
    pc: Pc,
    /// Whether this thread's pending push has taken its creator ref yet.
    push_initialized: bool,
}

/// The LFRC deque step machine.
pub struct LfrcMachine {
    /// Per-thread operation scripts.
    pub scripts: Vec<Vec<DequeOp>>,
    /// Values present initially.
    pub initial_items: Vec<u64>,
    /// Disable the two-null cycle break to demonstrate (in the negative
    /// tests) the dead-cycle leak that plain reference counting cannot
    /// collect.
    pub break_cycle_enabled: bool,
    node_for_push: HashMap<(usize, usize), usize>,
    total_nodes: usize,
    /// The two-null branch checks that the far sentinel names the null
    /// neighbour (off only in the negative control).
    two_null_check: bool,
    /// A fused splice points the filled node's inward link at the node
    /// beyond what it unlinks (off only in the negative control).
    fill_relink: bool,
}

impl LfrcMachine {
    /// Builds a machine (push values `>= 3`).
    pub fn new(scripts: Vec<Vec<DequeOp>>) -> Self {
        Self::with_initial(scripts, Vec::new())
    }

    /// Builds a machine with initial content.
    pub fn with_initial(scripts: Vec<Vec<DequeOp>>, initial_items: Vec<u64>) -> Self {
        let mut node_for_push = HashMap::new();
        let mut next = 2 + initial_items.len();
        for (tid, script) in scripts.iter().enumerate() {
            for (op_idx, op) in script.iter().enumerate() {
                if let DequeOp::PushRight(v) | DequeOp::PushLeft(v) = op {
                    assert!(*v >= 3);
                    node_for_push.insert((tid, op_idx), next);
                    next += 1;
                }
            }
        }
        LfrcMachine {
            scripts,
            initial_items,
            break_cycle_enabled: true,
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

    /// Leaves the filled node's inward link naming the spliced node
    /// instead of the node beyond it (counted like any link): the
    /// negative control for the fused step, which the script sweep must
    /// catch.
    pub fn without_fill_relink(mut self) -> Self {
        self.fill_relink = false;
        self
    }

    /// The preassigned node and value of `local`'s current op, if `op`
    /// is a push, staged with its creator's local reference on first
    /// use.
    fn fill(&self, sh: &mut LfrcShared, local: &mut LfrcLocal, op: DequeOp) -> Option<(usize, u64)> {
        let (DequeOp::PushRight(v) | DequeOp::PushLeft(v)) = op else {
            return None;
        };
        let node = self.node_for_push[&(local.tid, local.op_idx)];
        if !local.push_initialized {
            assert_eq!(sh.nodes[node].life, Life::Unallocated);
            sh.nodes[node].life = Life::Live;
            sh.nodes[node].rc = 1;
            sh.nodes[node].ghost_local = 1;
            local.push_initialized = true;
        }
        Some((node, v))
    }

    /// Figures 13/33 lines 10-13 plus the counts of the DCAS that
    /// publishes the node: gives staged push node `node` value `v`, an
    /// outward link to `side`'s sentinel and a counted inward link to
    /// `inward`, and counts the two words the DCAS points at it. The
    /// caller writes those words.
    fn init_pushed(sh: &mut LfrcShared, side: Side, node: usize, v: u64, inward: usize) {
        sh.nodes[node].value = v;
        side.set_outward(&mut sh.nodes[node], (side.sent(), false));
        side.set_inward(&mut sh.nodes[node], (inward, false));
        if !Self::is_sentinel(inward) {
            sh.nodes[inward].rc += 1;
        }
        sh.nodes[node].rc += 2;
    }

    /// Drops the creator's local reference to a published push node.
    fn drop_creator(sh: &mut LfrcShared, node: usize) {
        sh.nodes[node].rc -= 1;
        sh.nodes[node].ghost_local -= 1;
    }

    fn is_sentinel(n: usize) -> bool {
        n == SL || n == SR
    }

    /// Acquire one local reference (LFRCLoad's increment / addToRC) and
    /// record it in the ghost.
    fn acquire_local(sh: &mut LfrcShared, n: usize) {
        if Self::is_sentinel(n) {
            return;
        }
        assert_eq!(sh.nodes[n].life, Life::Live, "acquiring a ref to node {n} that is {:?}", sh.nodes[n].life);
        sh.nodes[n].rc += 1;
        sh.nodes[n].ghost_local += 1;
    }

    /// Drop one local reference; reclaim on zero. A dying node's
    /// outgoing links are *slot* references and cascade as such.
    fn release_local(sh: &mut LfrcShared, w: PtrW) {
        let n = w.0;
        if Self::is_sentinel(n) {
            return;
        }
        assert!(sh.nodes[n].rc >= 1, "rc underflow on node {n}");
        assert!(sh.nodes[n].ghost_local >= 1, "ghost underflow on node {n}");
        sh.nodes[n].rc -= 1;
        sh.nodes[n].ghost_local -= 1;
        if sh.nodes[n].rc == 0 {
            let mut children = Vec::new();
            Self::reclaim(sh, n, &mut children);
            Self::cascade_slot_releases(sh, children);
        }
    }

    /// Drop one *slot* reference (an overwritten pointer slot's count).
    fn release_slot(sh: &mut LfrcShared, n: usize) {
        Self::cascade_slot_releases(sh, vec![n]);
    }

    /// Releases a batch of slot references, reclaiming and cascading.
    fn cascade_slot_releases(sh: &mut LfrcShared, seed: Vec<usize>) {
        let mut stack = seed;
        while let Some(c) = stack.pop() {
            if Self::is_sentinel(c) {
                continue;
            }
            assert!(sh.nodes[c].rc >= 1, "slot rc underflow on node {c}");
            sh.nodes[c].rc -= 1;
            if sh.nodes[c].rc == 0 {
                Self::reclaim(sh, c, &mut stack);
            }
        }
    }

    fn reclaim(sh: &mut LfrcShared, n: usize, children: &mut Vec<usize>) {
        assert_eq!(sh.nodes[n].ghost_local, 0, "node {n} freed while locals outstanding");
        assert_eq!(sh.nodes[n].value, 0, "node {n} freed holding a value");
        assert_eq!(sh.nodes[n].life, Life::Live, "double free of node {n}");
        children.push(sh.nodes[n].l.0);
        children.push(sh.nodes[n].r.0);
        sh.nodes[n].life = Life::Freed;
        sh.nodes[n].l = (SL, false);
        sh.nodes[n].r = (SL, false);
    }

    /// The post-double-splice cycle break (mirrors
    /// `RawLfrcListDeque::break_cycle`).
    fn break_cycle(sh: &mut LfrcShared, right: usize, left: usize) {
        if sh.nodes[right].l.0 == left {
            sh.nodes[right].l = (SL, false);
            Self::release_slot(sh, left);
        }
        if sh.nodes[left].r.0 == right {
            sh.nodes[left].r = (SR, false);
            Self::release_slot(sh, right);
        }
    }
}

impl System for LfrcMachine {
    type Shared = LfrcShared;
    type Local = LfrcLocal;

    fn initial_shared(&self) -> LfrcShared {
        let blank = NodeL {
            l: (SL, false),
            r: (SL, false),
            value: 0,
            rc: 0,
            ghost_local: 0,
            life: Life::Unallocated,
        };
        let mut nodes = vec![blank.clone(); self.total_nodes];
        nodes[SL] = NodeL {
            l: (SL, false),
            r: (SR, false),
            value: SENTL_VAL,
            rc: 0,
            ghost_local: 0,
            life: Life::Live,
        };
        nodes[SR] = NodeL {
            l: (SL, false),
            r: (SR, false),
            value: SENTR_VAL,
            rc: 0,
            ghost_local: 0,
            life: Life::Live,
        };
        let k = self.initial_items.len();
        for (i, &v) in self.initial_items.iter().enumerate() {
            let id = 2 + i;
            let left = if i == 0 { SL } else { id - 1 };
            let right = if i == k - 1 { SR } else { id + 1 };
            // Slot references: one from each neighbor's link (sentinel
            // slots included — slot refs are counted regardless of who
            // holds the slot; only *sentinel targets* are uncounted).
            nodes[id] = NodeL {
                l: (left, false),
                r: (right, false),
                value: v,
                rc: 2,
                ghost_local: 0,
                life: Life::Live,
            };
        }
        if k > 0 {
            nodes[SL].r = (2, false);
            nodes[SR].l = (2 + k - 1, false);
        }
        LfrcShared { nodes }
    }

    fn initial_locals(&self) -> Vec<LfrcLocal> {
        (0..self.scripts.len())
            .map(|tid| LfrcLocal { tid, op_idx: 0, pc: Pc::Start, push_initialized: false })
            .collect()
    }

    fn capacity(&self) -> Option<usize> {
        None
    }

    fn step(&self, sh: &mut LfrcShared, local: &mut LfrcLocal) -> Option<StepEvent> {
        let op = *self.scripts[local.tid].get(local.op_idx)?;
        let side = Side::of(op);
        let is_pop = matches!(op, DequeOp::PopRight | DequeOp::PopLeft);
        let sent = side.sent();
        let other = side.other_sent();

        let finish = |local: &mut LfrcLocal, ret: DequeRet| {
            local.op_idx += 1;
            local.pc = Pc::Start;
            local.push_initialized = false;
            StepEvent::Linearize(op, ret)
        };

        Some(match std::mem::replace(&mut local.pc, Pc::Start) {
            // load_ptr of the sentinel inward word: atomic read+acquire.
            Pc::Start => {
                let w = side.sent_inward(&sh.nodes);
                Self::acquire_local(sh, w.0);
                if is_pop && w.0 == other && !w.1 {
                    // The pointer read observing the opposite sentinel is
                    // the linearization point of the empty pop (the same
                    // Section 5.2 argument as the published algorithm).
                    local.pc = Pc::PopSentinelConfirm { w };
                    StepEvent::Linearize(op, DequeRet::Empty)
                } else {
                    local.pc =
                        if is_pop { Pc::PopReadVal { w } } else { Pc::PushPrepare { w } };
                    StepEvent::Internal
                }
            }

            Pc::PopSentinelConfirm { w } => {
                let v = sh.nodes[w.0].value;
                let expect = if side == Side::Right { SENTL_VAL } else { SENTR_VAL };
                assert_eq!(v, expect, "sentinel-stability claim violated in the LFRC variant");
                Self::release_local(sh, w);
                local.op_idx += 1;
                local.pc = Pc::Start;
                local.push_initialized = false;
                StepEvent::Internal
            }

            Pc::PopReadVal { w } => {
                let v = sh.nodes[w.0].value;
                assert_ne!(
                    v,
                    if side == Side::Right { SENTL_VAL } else { SENTR_VAL },
                    "non-sentinel pointer led to a sentinel value"
                );
                if w.1 {
                    // Deleted: run the delete subroutine, then retry.
                    Self::release_local(sh, w);
                    local.pc = Pc::DelReadSent;
                    StepEvent::Internal
                } else if v == 0 {
                    local.pc = Pc::PopEmptyDcas { w };
                    StepEvent::Internal
                } else {
                    local.pc = Pc::PopMarkDcas { w, v };
                    StepEvent::Internal
                }
            }

            Pc::PopEmptyDcas { w } => {
                let ok = side.sent_inward(&sh.nodes) == w && sh.nodes[w.0].value == 0;
                Self::release_local(sh, w);
                if ok {
                    finish(local, DequeRet::Empty)
                } else {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            Pc::PopMarkDcas { w, v } => {
                if side.sent_inward(&sh.nodes) == w && sh.nodes[w.0].value == v {
                    // Pointer target unchanged; only the bit flips. No
                    // count adjustments.
                    side.set_sent_inward(&mut sh.nodes, (w.0, true));
                    sh.nodes[w.0].value = 0;
                    Self::release_local(sh, w);
                    finish(local, DequeRet::Value(v))
                } else {
                    Self::release_local(sh, w);
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            // Push: after the sentinel load, check deleted and stage the
            // node (creator ref + field init folded into the DCAS step's
            // predecessor, as unpublished-node writes are local).
            Pc::PushPrepare { w } => {
                if w.1 {
                    Self::release_local(sh, w);
                    local.pc = Pc::DelReadSent;
                } else {
                    local.pc = Pc::PushDcas { w };
                }
                StepEvent::Internal
            }

            Pc::PushDcas { w } => {
                // Stage the node on first arrival: creator's local ref.
                let (node, v) = self.fill(sh, local, op).expect("a push");
                if side.sent_inward(&sh.nodes) == w && side.outward(&sh.nodes[w.0]) == (sent, false)
                {
                    // Initialize fields (unpublished), pre-count the two
                    // slot refs to the node and one to w.0 (node's
                    // inward link), then the DCAS resolves them into
                    // real slots.
                    Self::init_pushed(sh, side, node, v, w.0);
                    side.set_sent_inward(&mut sh.nodes, (node, false));
                    side.set_outward(&mut sh.nodes[w.0], (node, false));
                    // Overwritten: the sentinel's slot ref to w.0.
                    Self::release_slot(sh, w.0);
                    Self::drop_creator(sh, node);
                    Self::release_local(sh, w);
                    finish(local, DequeRet::Okay)
                } else {
                    Self::release_local(sh, w);
                    local.pc = Pc::Start;
                    StepEvent::Internal
                }
            }

            Pc::DelReadSent => {
                let w = side.sent_inward(&sh.nodes);
                if !w.1 {
                    local.pc = Pc::Start;
                    StepEvent::Internal
                } else {
                    Self::acquire_local(sh, w.0);
                    local.pc = Pc::DelReadNbr { w };
                    StepEvent::Internal
                }
            }

            Pc::DelReadNbr { w } => {
                let nbr_w = side.inward(&sh.nodes[w.0]);
                Self::acquire_local(sh, nbr_w.0);
                local.pc = Pc::DelReadNbrVal { w, nbr_w };
                StepEvent::Internal
            }

            Pc::DelReadNbrVal { w, nbr_w } => {
                let v = sh.nodes[nbr_w.0].value;
                local.pc = if v != 0 || Self::is_sentinel(nbr_w.0) {
                    Pc::DelReadNbrOut { w, nbr_w }
                } else {
                    Pc::DelReadOtherSent { w, nbr_w }
                };
                StepEvent::Internal
            }

            Pc::DelReadNbrOut { w, nbr_w } => {
                let nbr_out = side.outward(&sh.nodes[nbr_w.0]);
                Self::acquire_local(sh, nbr_out.0);
                local.pc = if nbr_out.0 == w.0 {
                    Pc::DelSpliceDcas { w, nbr_w, nbr_out }
                } else {
                    Self::release_local(sh, nbr_out);
                    Self::release_local(sh, nbr_w);
                    Self::release_local(sh, w);
                    Pc::DelReadSent
                };
                StepEvent::Internal
            }

            // Figure 15's splice; run by a push, it links the push's
            // node between `nbr` and the sentinel in the same DCAS
            // (Figures 13/33 lines 14-18 on the words the splice wrote)
            // and linearizes the push.
            Pc::DelSpliceDcas { w, nbr_w, nbr_out } => {
                let fill = self.fill(sh, local, op);
                if side.sent_inward(&sh.nodes) == w
                    && side.outward(&sh.nodes[nbr_w.0]) == nbr_out
                {
                    if let Some((node, v)) = fill {
                        let inward = if self.fill_relink { nbr_w.0 } else { w.0 };
                        Self::init_pushed(sh, side, node, v, inward);
                        side.set_sent_inward(&mut sh.nodes, (node, false));
                        side.set_outward(&mut sh.nodes[nbr_w.0], (node, false));
                        // Overwritten slots both targeted w.0.
                        Self::release_slot(sh, w.0);
                        Self::release_slot(sh, w.0);
                        Self::release_local(sh, nbr_out);
                        Self::release_local(sh, nbr_w);
                        Self::release_local(sh, w);
                        Self::drop_creator(sh, node);
                        return Some(finish(local, DequeRet::Okay));
                    }
                    // New slot: sentinel -> nbr.
                    if !Self::is_sentinel(nbr_w.0) {
                        sh.nodes[nbr_w.0].rc += 1;
                    }
                    side.set_sent_inward(&mut sh.nodes, (nbr_w.0, false));
                    side.set_outward(&mut sh.nodes[nbr_w.0], (sent, false));
                    // Overwritten slots both targeted w.0.
                    Self::release_slot(sh, w.0);
                    Self::release_slot(sh, w.0);
                    Self::release_local(sh, nbr_out); // t == w.0
                    Self::release_local(sh, nbr_w);
                    Self::release_local(sh, w);
                    local.pc = Pc::Start;
                } else {
                    Self::release_local(sh, nbr_out);
                    Self::release_local(sh, nbr_w);
                    Self::release_local(sh, w);
                    local.pc = Pc::DelReadSent;
                }
                StepEvent::Internal
            }

            Pc::DelReadOtherSent { w, nbr_w } => {
                let other_side = side.other();
                let ow = other_side.sent_inward(&sh.nodes);
                Self::acquire_local(sh, ow.0);
                // The erratum fix: the other sentinel must name the null
                // neighbour (DESIGN.md "Known errata").
                local.pc = if ow.1 && (ow.0 == nbr_w.0 || !self.two_null_check) {
                    Pc::DelTwoNullDcas { w, nbr_w, ow }
                } else {
                    Self::release_local(sh, ow);
                    Self::release_local(sh, nbr_w);
                    Self::release_local(sh, w);
                    Pc::DelReadSent
                };
                StepEvent::Internal
            }

            // Figure 16's double splice; run by a push, it points both
            // sentinel words at the push's node instead (the push into
            // the empty deque on the words the splice wrote) and
            // linearizes the push.
            Pc::DelTwoNullDcas { w, nbr_w, ow } => {
                let other_side = side.other();
                let fill = self.fill(sh, local, op);
                if side.sent_inward(&sh.nodes) == w && other_side.sent_inward(&sh.nodes) == ow {
                    match fill {
                        Some((node, v)) => {
                            let inward = if self.fill_relink { other } else { w.0 };
                            Self::init_pushed(sh, side, node, v, inward);
                            side.set_sent_inward(&mut sh.nodes, (node, false));
                            other_side.set_sent_inward(&mut sh.nodes, (node, false));
                        }
                        None => {
                            side.set_sent_inward(&mut sh.nodes, (other, false));
                            other_side.set_sent_inward(&mut sh.nodes, (sent, false));
                        }
                    }
                    // Break the two-node dead cycle, as the
                    // implementation does.
                    if self.break_cycle_enabled {
                        let (right, left) =
                            if side == Side::Right { (w.0, ow.0) } else { (ow.0, w.0) };
                        Self::break_cycle(sh, right, left);
                    }
                    // Overwritten sentinel slots.
                    Self::release_slot(sh, w.0);
                    Self::release_slot(sh, ow.0);
                    Self::release_local(sh, ow);
                    Self::release_local(sh, nbr_w);
                    Self::release_local(sh, w);
                    if let Some((node, _)) = fill {
                        Self::drop_creator(sh, node);
                        return Some(finish(local, DequeRet::Okay));
                    }
                    local.pc = Pc::Start;
                } else {
                    Self::release_local(sh, ow);
                    Self::release_local(sh, nbr_w);
                    Self::release_local(sh, w);
                    local.pc = Pc::DelReadSent;
                }
                StepEvent::Internal
            }
        })
    }

    /// The audited invariant: exact reference-count accounting, plus the
    /// structural invariant of the underlying algorithm.
    fn rep_invariant(&self, sh: &LfrcShared) -> Result<(), String> {
        // Count slot references per node: sentinel inward words + link
        // fields of live non-sentinel nodes.
        let mut slot_refs = vec![0u32; sh.nodes.len()];
        let mut count_slot = |w: PtrW| {
            if !Self::is_sentinel(w.0) {
                slot_refs[w.0] += 1;
            }
        };
        count_slot(sh.nodes[SL].r);
        count_slot(sh.nodes[SR].l);
        for (id, n) in sh.nodes.iter().enumerate().skip(2) {
            if n.life == Life::Live {
                if !Self::is_sentinel(n.l.0) {
                    slot_refs[n.l.0] += 1;
                }
                if !Self::is_sentinel(n.r.0) {
                    slot_refs[n.r.0] += 1;
                }
            }
            let _ = id;
        }

        for (id, n) in sh.nodes.iter().enumerate().skip(2) {
            match n.life {
                Life::Unallocated => {
                    if n.rc != 0 || n.ghost_local != 0 {
                        return Err(format!("unallocated node {id} has counts: {n:?}"));
                    }
                }
                Life::Freed => {
                    if n.rc != 0 {
                        return Err(format!("freed node {id} has rc {}", n.rc));
                    }
                    if n.ghost_local != 0 {
                        return Err(format!("freed node {id} has outstanding locals"));
                    }
                    if slot_refs[id] != 0 {
                        return Err(format!("freed node {id} still targeted by a slot"));
                    }
                }
                Life::Live => {
                    let expect = slot_refs[id] + n.ghost_local;
                    if n.rc != expect {
                        return Err(format!(
                            "COUNT AUDIT FAILED on node {id}: rc={} but slots={} + \
                             locals={} (nodes: {:?})",
                            n.rc, slot_refs[id], n.ghost_local, sh.nodes
                        ));
                    }
                }
            }
        }

        // Structural invariant of the chain (as in the bit-variant
        // machine, minus interior-pointer strictness relaxed to what the
        // LFRC variant maintains — which is the same).
        let chain = sh.chain()?;
        for (i, &id) in chain.iter().enumerate() {
            let node = &sh.nodes[id];
            if node.life != Life::Live {
                return Err(format!("chain node {id} is {:?}", node.life));
            }
            let left_expect = if i == 0 { SL } else { chain[i - 1] };
            let right_expect = if i == chain.len() - 1 { SR } else { chain[i + 1] };
            if node.l != (left_expect, false) || node.r != (right_expect, false) {
                return Err(format!("node {id} links inconsistent"));
            }
            if node.value == SENTL_VAL || node.value == SENTR_VAL {
                return Err(format!("interior node {id} holds a sentinel value"));
            }
        }
        let sr_l = sh.nodes[SR].l;
        let sl_r = sh.nodes[SL].r;
        let rightmost = chain.last().copied().unwrap_or(SL);
        let leftmost = chain.first().copied().unwrap_or(SR);
        if sr_l.0 != rightmost || sl_r.0 != leftmost {
            return Err("sentinel words do not close the chain".into());
        }
        if sr_l.1 && (chain.is_empty() || sh.nodes[rightmost].value != 0) {
            return Err("right deleted bit inconsistent".into());
        }
        if sl_r.1 && (chain.is_empty() || sh.nodes[leftmost].value != 0) {
            return Err("left deleted bit inconsistent".into());
        }
        for (i, &id) in chain.iter().enumerate() {
            if sh.nodes[id].value == 0 {
                let first_ok = i == 0 && sl_r.1;
                let last_ok = i == chain.len() - 1 && sr_l.1;
                if !first_ok && !last_ok {
                    return Err(format!("null node {id} without adjacent deleted mark"));
                }
            }
        }
        Ok(())
    }

    fn abstraction(&self, sh: &LfrcShared) -> Vec<u64> {
        sh.chain()
            .expect("abstraction on state violating R")
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
    fn sequential_ops_and_full_recycling() {
        let m = LfrcMachine::new(vec![vec![
            DequeOp::PushRight(5),
            DequeOp::PushLeft(6),
            DequeOp::PopRight,
            DequeOp::PopLeft,
            DequeOp::PopRight,
            DequeOp::PopLeft,
        ]]);
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![]]);
        for sh in &report.final_shared {
            for (id, n) in sh.nodes.iter().enumerate().skip(2) {
                assert_eq!(n.life, Life::Freed, "node {id} not recycled: {n:?}");
            }
        }
    }

    #[test]
    fn two_null_cycle_fully_reclaimed() {
        // The dead-cycle scenario: one pop from each side, then a
        // cleanup op. Terminal states must show both nodes Freed (the
        // audit invariant would already have caught any leak mid-way).
        let m = LfrcMachine::with_initial(
            vec![
                vec![DequeOp::PopRight, DequeOp::PopRight],
                vec![DequeOp::PopLeft, DequeOp::PopLeft],
            ],
            vec![5, 6],
        );
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![]]);
        // In every terminal state, all interior nodes whose physical
        // delete completed are Freed with zero counts; at worst a node is
        // still linked (logically deleted) awaiting cleanup.
        for sh in &report.final_shared {
            for n in sh.nodes.iter().skip(2) {
                match n.life {
                    Life::Freed => assert_eq!(n.rc, 0),
                    Life::Live => assert_eq!(n.value, 0, "live terminal node must be null"),
                    Life::Unallocated => {}
                }
            }
        }
    }

    #[test]
    fn concurrent_push_pop_audit() {
        let m = LfrcMachine::new(vec![
            vec![DequeOp::PushRight(5), DequeOp::PopLeft],
            vec![DequeOp::PushLeft(6), DequeOp::PopRight],
        ]);
        let report = Explorer::default().explore(&m, |_| {}).unwrap();
        assert!(report.states > 30);
    }

    #[test]
    fn steal_race_audit() {
        let m = LfrcMachine::with_initial(
            vec![vec![DequeOp::PopRight], vec![DequeOp::PopLeft]],
            vec![7],
        );
        Explorer::default().explore(&m, |_| {}).unwrap();
    }

    #[test]
    fn random_walks_audit_larger_config() {
        let m = LfrcMachine::with_initial(
            vec![
                vec![DequeOp::PushRight(10), DequeOp::PopLeft, DequeOp::PopRight],
                vec![DequeOp::PopRight, DequeOp::PushLeft(20), DequeOp::PopLeft],
            ],
            vec![5, 6],
        );
        Explorer::default().random_walks(&m, 2_000, 0x1F2C).unwrap();
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
        let report = Explorer::default().explore(&LfrcMachine::new(script.clone()), |_| {}).unwrap();
        assert_eq!(report.final_abstracts, vec![vec![7]]);
        for sh in &report.final_shared {
            let chain = sh.chain().unwrap();
            for (id, n) in sh.nodes.iter().enumerate().skip(2) {
                let want = if chain == [id] { Life::Live } else { Life::Freed };
                assert_eq!(n.life, want, "node {id}");
            }
        }
        assert!(Explorer::default()
            .explore(&LfrcMachine::new(script).without_fill_relink(), |_| {})
            .is_err());
    }
}
