//! Step machine for the Sundell–Tsigas CAS-only deque
//! (`dcas-deque`'s `sundell` module): a doubly-linked list where the
//! `next` chain is authoritative, deletion is a mark bit set on the
//! *owner's* `next` word, and every structural update is a single-word
//! CAS.
//!
//! Two protocol windows make this deque interesting to interleave and
//! both are modelled as genuine multi-step regions:
//!
//! * **Two-step insert** — the publish CAS (`prev.next` swings to the
//!   new node; the push's linearization point) and the backlink repair
//!   (`next.prev` swings back) are separate steps, so any other
//!   operation can run between them and observe the lagging `prev`
//!   hint. The repair bails out when it finds the neighbour's `prev`
//!   word marked — the race with a concurrent deletion that forces
//!   `HelpInsert` in the implementation.
//! * **Logical deletion + HelpDelete** — a pop first marks the victim's
//!   `next` word (the unique mark winner owns the value; the pop's
//!   linearization point), then marks the victim's `prev` word, then
//!   splices the victim out of its predecessor's `next` chain — three
//!   separate steps. Any thread that trips over the half-deleted node
//!   performs the same mark-prev + splice sequence as a helper.
//!
//! Like ABP and Chase–Lev, `popLeft`'s linearization point is not a
//! fixed instruction: when the mark CAS succeeds on a node that a
//! concurrent `pushLeft` has since displaced from the front, the pop
//! linearizes back at its `head.next` read. The machine is therefore
//! verified through the explorer's **history mode**
//! ([`Explorer::explore_histories`](crate::Explorer::explore_histories));
//! the per-step `explore` obligations (which demand statically placed
//! linearization points) do not apply.
//!
//! Faithfulness notes (where the model folds the implementation):
//!
//! * Every CAS is one atomic step (witness read + conditional write),
//!   exactly as in the other machines; the interleaving windows live
//!   *between* program counters.
//! * Helper traversals (finding a marked node's live predecessor or the
//!   rightmost live node) are folded into the step that consumes them
//!   (`Pc::Heal`, `Pc::DelSplice`). Every `Heal` step either
//!   splices out one marked node or repairs the `tail.prev` hint, and
//!   is only ever entered from a state where one of the two applies —
//!   so each retry consumes monotone progress (marks are one-way,
//!   splices are never undone) and the path DFS terminates.
//! * Spliced-out nodes stay in the arena forever and stale program
//!   counters may still read them — mirroring deferred reclamation,
//!   like the retired buffer generations kept by the Chase–Lev model.
//! * Backlink *values* of interior nodes are maintained but unused
//!   (the model finds predecessors by walking the authoritative `next`
//!   chain); their mark bits, however, carry the real protocol duty of
//!   aborting a backlink repair racing a deletion. `tail.prev` is used
//!   as the right-end hint and may lag, exercising the repair paths.
//!
//! The machine doubles as its own negative control:
//! [`SundellMachine::with_broken_splice`] makes every help-splice skip
//! one *live* successor, silently dropping an element — the history
//! checker must flag the resulting run as non-linearizable.

use dcas_linearize::{DequeOp, DequeRet};

use crate::explore::{StepEvent, System};

/// Arena index of the head sentinel.
const HEAD: usize = 0;
/// Arena index of the tail sentinel.
const TAIL: usize = 1;

/// A link word: `(target index, mark)`. A set mark means the word's
/// *owner* node is logically deleted.
type Link = (usize, bool);

/// One node in the arena. Nodes are never removed (deferred
/// reclamation): splicing only redirects links.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeM {
    /// Backlink hint; authoritative only for `tail.prev`.
    pub prev: Link,
    /// Authoritative forward link; mark = owner deleted.
    pub next: Link,
    /// The element (sentinel values are never observed).
    pub value: u64,
}

/// Shared state: the node arena. Index 0 is the head sentinel, 1 the
/// tail sentinel; pushes append fresh nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SdShared {
    /// All nodes ever allocated; spliced-out nodes stay in the arena.
    pub nodes: Vec<NodeM>,
}

impl SdShared {
    /// Walks the `next` chain from `head`, yielding node indices up to
    /// (not including) `TAIL`. Panics on a cycle — a model bug that
    /// must be loud.
    fn chain(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.nodes[HEAD].next.0;
        while cur != TAIL {
            out.push(cur);
            cur = self.nodes[cur].next.0;
            assert!(out.len() <= self.nodes.len(), "next chain does not terminate");
        }
        out
    }
}

/// Program counters, one step per shared-memory access. Helper
/// traversal + CAS pairs are folded per the module notes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    Start,
    /// pushLeft: `head.next` read as `⟨next, F⟩`; publish CAS next.
    PushLeftCas { v: u64, next: usize },
    /// pushRight: `tail.prev` hint read as `prev`; validate-and-publish
    /// CAS on `prev.next` next.
    PushRightCas { v: u64, prev: usize },
    /// Both pushes: second insert step — swing `next.prev` to `node`.
    PushFixPrev { node: usize, next: usize },
    /// popLeft: `head.next` read as `node`; read `node.next` next.
    PopLeftRead { node: usize },
    /// popLeft: mark CAS on `node.next`, expecting `⟨nxt, F⟩`.
    PopLeftMark { node: usize, nxt: usize },
    /// popRight: `tail.prev` hint read as `node`; mark CAS (or the
    /// empty check when `node` is the head sentinel) next.
    PopRightMark { node: usize },
    /// Observed a half-deleted node or a lagging hint: perform one
    /// helping step (splice one marked node, else repair `tail.prev`),
    /// then retry the operation from scratch.
    Heal,
    /// Mark winner's cleanup, step 1: mark `node.prev`.
    DelMarkPrev { node: usize },
    /// Mark winner's cleanup, step 2: splice `node` out of its
    /// predecessor's `next` chain (no-op if a helper got there first).
    DelSplice { node: usize },
}

/// Per-thread control state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SdLocal {
    tid: usize,
    op_idx: usize,
    pc: Pc,
}

/// The Sundell–Tsigas machine.
pub struct SundellMachine {
    /// Operation scripts, one per thread; any thread may use any end.
    pub scripts: Vec<Vec<DequeOp>>,
    /// Values present initially (pushed right before the run).
    pub initial_items: Vec<u64>,
    /// Negative control: help-splices skip one live successor.
    pub broken_splice: bool,
}

impl SundellMachine {
    /// Builds a machine over single-element deque operations.
    pub fn new(scripts: Vec<Vec<DequeOp>>) -> Self {
        for script in &scripts {
            for op in script {
                match op {
                    DequeOp::PushLeft(_)
                    | DequeOp::PushRight(_)
                    | DequeOp::PopLeft
                    | DequeOp::PopRight => {}
                    _ => panic!("batched ops are not modelled"),
                }
            }
        }
        SundellMachine { scripts, initial_items: Vec::new(), broken_splice: false }
    }

    /// Adds initial content (left to right).
    pub fn with_initial(mut self, items: Vec<u64>) -> Self {
        self.initial_items = items;
        self
    }

    /// Sabotages every help-splice to skip one live successor, silently
    /// unlinking an element. Used to prove the checker catches a broken
    /// `HelpDelete`.
    pub fn with_broken_splice(mut self) -> Self {
        self.broken_splice = true;
        self
    }

    /// First node at-or-after `node`'s successor whose own `next` word
    /// is unmarked (or `TAIL`) — the splice target. The broken variant
    /// skips one live node.
    fn splice_target(&self, sh: &SdShared, node: usize) -> usize {
        let skip_marked = |mut s: usize| {
            while s != TAIL && sh.nodes[s].next.1 {
                s = sh.nodes[s].next.0;
            }
            s
        };
        let mut s = skip_marked(sh.nodes[node].next.0);
        if self.broken_splice && s != TAIL {
            s = skip_marked(sh.nodes[s].next.0);
        }
        s
    }

    /// One helping step: splice out the first marked node that still
    /// has an unmarked incoming link, or failing that repair the
    /// `tail.prev` hint to the rightmost live node.
    fn heal(&self, sh: &mut SdShared) {
        let mut p = HEAD;
        loop {
            let (c, pm) = sh.nodes[p].next;
            if c == TAIL {
                break;
            }
            if !pm && sh.nodes[c].next.1 {
                // `c` is logically deleted but physically linked: mark
                // its backlink, then splice (the helper half of
                // HelpDelete).
                sh.nodes[c].prev.1 = true;
                sh.nodes[p].next = (self.splice_target(sh, c), false);
                return;
            }
            p = c;
        }
        // No splicing left to do; the chain is clean, so the rightmost
        // live node is the one whose `next` names the tail unmarked.
        let mut r = HEAD;
        for c in sh.chain() {
            if !sh.nodes[c].next.1 {
                r = c;
            }
        }
        if sh.nodes[TAIL].prev != (r, false) {
            sh.nodes[TAIL].prev = (r, false);
        }
    }
}

impl System for SundellMachine {
    type Shared = SdShared;
    type Local = SdLocal;

    fn initial_shared(&self) -> SdShared {
        let n = self.initial_items.len();
        let idx = |i: usize| 2 + i; // arena index of the i-th item
        let mut nodes = vec![
            NodeM {
                prev: (HEAD, false),
                next: (if n == 0 { TAIL } else { idx(0) }, false),
                value: 0,
            },
            NodeM {
                prev: (if n == 0 { HEAD } else { idx(n - 1) }, false),
                next: (TAIL, false),
                value: 0,
            },
        ];
        for (i, &v) in self.initial_items.iter().enumerate() {
            nodes.push(NodeM {
                prev: (if i == 0 { HEAD } else { idx(i - 1) }, false),
                next: (if i + 1 == n { TAIL } else { idx(i + 1) }, false),
                value: v,
            });
        }
        SdShared { nodes }
    }

    fn initial_locals(&self) -> Vec<SdLocal> {
        (0..self.scripts.len())
            .map(|tid| SdLocal { tid, op_idx: 0, pc: Pc::Start })
            .collect()
    }

    fn capacity(&self) -> Option<usize> {
        None
    }

    fn step(&self, sh: &mut SdShared, local: &mut SdLocal) -> Option<StepEvent> {
        // Linearization points are emitted mid-operation (at the
        // publish/mark CAS); the remaining cleanup steps run with the
        // *next* script slot already current, so cleanup program
        // counters are dispatched before the script is consulted.
        let lin = |local: &mut SdLocal, op: DequeOp, ret: DequeRet| {
            local.op_idx += 1;
            StepEvent::Linearize(op, ret)
        };

        Some(match std::mem::replace(&mut local.pc, Pc::Start) {
            Pc::Start => {
                let op = *self.scripts[local.tid].get(local.op_idx)?;
                match op {
                    DequeOp::PushLeft(v) => {
                        local.pc = Pc::PushLeftCas { v, next: sh.nodes[HEAD].next.0 };
                        StepEvent::Internal
                    }
                    DequeOp::PushRight(v) => {
                        local.pc = Pc::PushRightCas { v, prev: sh.nodes[TAIL].prev.0 };
                        StepEvent::Internal
                    }
                    DequeOp::PopLeft => {
                        let node = sh.nodes[HEAD].next.0;
                        if node == TAIL {
                            lin(local, op, DequeRet::Empty)
                        } else {
                            local.pc = Pc::PopLeftRead { node };
                            StepEvent::Internal
                        }
                    }
                    DequeOp::PopRight => {
                        local.pc = Pc::PopRightMark { node: sh.nodes[TAIL].prev.0 };
                        StepEvent::Internal
                    }
                    _ => unreachable!("batched ops rejected in new()"),
                }
            }

            Pc::PushLeftCas { v, next } => {
                // Publish CAS on `head.next` (never marked: sentinels
                // are never deleted). Pointer recurrence is genuine ABA
                // and genuinely benign: the expected first node being
                // first *again* revalidates the install.
                if sh.nodes[HEAD].next == (next, false) {
                    let node = sh.nodes.len();
                    sh.nodes.push(NodeM {
                        prev: (HEAD, false),
                        next: (next, false),
                        value: v,
                    });
                    sh.nodes[HEAD].next = (node, false);
                    local.pc = Pc::PushFixPrev { node, next };
                    lin(local, DequeOp::PushLeft(v), DequeRet::Okay)
                } else {
                    // Lost the publish race; nothing shared, plain retry.
                    StepEvent::Internal
                }
            }

            Pc::PushRightCas { v, prev } => {
                // The hint is validated by the CAS itself: success on
                // `prev.next: ⟨tail, F⟩ → ⟨node, F⟩` atomically
                // certifies `prev` was the rightmost live node.
                if sh.nodes[prev].next == (TAIL, false) {
                    let node = sh.nodes.len();
                    sh.nodes.push(NodeM {
                        prev: (prev, false),
                        next: (TAIL, false),
                        value: v,
                    });
                    sh.nodes[prev].next = (node, false);
                    local.pc = Pc::PushFixPrev { node, next: TAIL };
                    lin(local, DequeOp::PushRight(v), DequeRet::Okay)
                } else {
                    // Deleted or lagging hint: help, then retry.
                    local.pc = Pc::Heal;
                    StepEvent::Internal
                }
            }

            Pc::PushFixPrev { node, next } => {
                // Second insert step: swing `next.prev` back to `node`.
                // Bails if `next` is being deleted (marked backlink) or
                // `node` is no longer adjacent — that repair belongs to
                // whoever moved the state on.
                let link1 = sh.nodes[next].prev;
                if !link1.1 && sh.nodes[node].next == (next, false) && link1.0 != node {
                    sh.nodes[next].prev = (node, false);
                }
                StepEvent::Internal
            }

            Pc::PopLeftRead { node } => {
                let (nxt, marked) = sh.nodes[node].next;
                if marked {
                    // Half-deleted first node: help, then retry.
                    local.pc = Pc::Heal;
                } else {
                    local.pc = Pc::PopLeftMark { node, nxt };
                }
                StepEvent::Internal
            }

            Pc::PopLeftMark { node, nxt } => {
                // Logical deletion: the unique mark winner owns the
                // value. If a pushLeft displaced `node` from the front
                // meanwhile, the op linearizes back at its `head.next`
                // read — which is inside this op's history interval, so
                // history mode absorbs it.
                if sh.nodes[node].next == (nxt, false) {
                    sh.nodes[node].next = (nxt, true);
                    let v = sh.nodes[node].value;
                    local.pc = Pc::DelMarkPrev { node };
                    lin(local, DequeOp::PopLeft, DequeRet::Value(v))
                } else {
                    // Mark race lost; retry from scratch.
                    StepEvent::Internal
                }
            }

            Pc::PopRightMark { node } => {
                if node == HEAD {
                    // Empty only if the authoritative chain agrees.
                    if sh.nodes[HEAD].next == (TAIL, false) {
                        lin(local, DequeOp::PopRight, DequeRet::Empty)
                    } else {
                        local.pc = Pc::Heal;
                        StepEvent::Internal
                    }
                } else if sh.nodes[node].next == (TAIL, false) {
                    // Static linearization: the mark CAS expecting
                    // `⟨tail, F⟩` certifies `node` was rightmost.
                    sh.nodes[node].next = (TAIL, true);
                    let v = sh.nodes[node].value;
                    local.pc = Pc::DelMarkPrev { node };
                    lin(local, DequeOp::PopRight, DequeRet::Value(v))
                } else {
                    // Deleted or lagging hint: help, then retry.
                    local.pc = Pc::Heal;
                    StepEvent::Internal
                }
            }

            Pc::Heal => {
                self.heal(sh);
                StepEvent::Internal
            }

            Pc::DelMarkPrev { node } => {
                sh.nodes[node].prev.1 = true;
                local.pc = Pc::DelSplice { node };
                StepEvent::Internal
            }

            Pc::DelSplice { node } => {
                // Splice `node` out of whichever live predecessor still
                // names it unmarked; a helper may already have done it.
                if let Some(p) = (0..sh.nodes.len())
                    .find(|&p| sh.nodes[p].next == (node, false))
                {
                    sh.nodes[p].next = (self.splice_target(sh, node), false);
                }
                StepEvent::Internal
            }
        })
    }

    /// Minimal sanity only: history mode carries the real obligation.
    fn rep_invariant(&self, sh: &SdShared) -> Result<(), String> {
        if sh.nodes[HEAD].next.1 || sh.nodes[TAIL].prev.1 {
            return Err("a sentinel link word is marked".into());
        }
        let mut cur = sh.nodes[HEAD].next.0;
        let mut hops = 0;
        while cur != TAIL {
            if cur == HEAD || cur >= sh.nodes.len() {
                return Err(format!("next chain reached bad index {cur}"));
            }
            cur = sh.nodes[cur].next.0;
            hops += 1;
            if hops > sh.nodes.len() {
                return Err("next chain does not terminate".into());
            }
        }
        Ok(())
    }

    fn abstraction(&self, sh: &SdShared) -> Vec<u64> {
        sh.chain()
            .into_iter()
            .filter(|&c| !sh.nodes[c].next.1)
            .map(|c| sh.nodes[c].value)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;

    #[test]
    fn sequential_all_four_ops() {
        let m = SundellMachine::new(vec![vec![
            DequeOp::PushLeft(5),
            DequeOp::PushRight(6),
            DequeOp::PushLeft(4),
            DequeOp::PopRight,
            DequeOp::PopLeft,
            DequeOp::PopLeft,
            DequeOp::PopRight,
        ]]);
        let report = Explorer::default().explore_histories(&m, 100).unwrap();
        assert_eq!(report.paths, 1);
        assert_eq!(report.operations, 7);
    }

    #[test]
    fn opposite_end_pops_race_for_last() {
        // One element, a popLeft and a popRight: both mark CASes target
        // the same `next` word, so exactly one wins on every path and
        // the loser must help the winner's splice before observing
        // empty.
        let m = SundellMachine::new(vec![vec![DequeOp::PopLeft], vec![DequeOp::PopRight]])
            .with_initial(vec![7]);
        let report = Explorer::default().explore_histories(&m, 100_000).unwrap();
        assert!(report.paths > 5, "expected several interleavings, got {}", report.paths);
    }

    #[test]
    fn push_right_races_pop_right_through_the_insert_window() {
        // The two-step insert window at the right end: pops that run
        // between the publish CAS and the backlink repair see a lagging
        // `tail.prev` hint and must heal it before they can mark.
        let m = SundellMachine::new(vec![
            vec![DequeOp::PushRight(8), DequeOp::PopRight],
            vec![DequeOp::PopRight],
        ])
        .with_initial(vec![5]);
        let report = Explorer::default().explore_histories(&m, 1_000_000).unwrap();
        assert!(report.paths > 50, "insert window underexplored: {} paths", report.paths);
    }

    #[test]
    fn push_left_races_pop_left_on_the_same_node() {
        // popLeft's dynamic linearization: a concurrent pushLeft can
        // displace the observed first node before the mark lands, so
        // some paths pop a node that is no longer leftmost — all must
        // still linearize (at the earlier `head.next` read).
        let m = SundellMachine::new(vec![
            vec![DequeOp::PushLeft(9), DequeOp::PopLeft],
            vec![DequeOp::PopLeft],
        ])
        .with_initial(vec![5]);
        let report = Explorer::default().explore_histories(&m, 1_000_000).unwrap();
        assert!(report.paths > 50, "mark race underexplored: {} paths", report.paths);
    }

    #[test]
    fn mixed_ends_with_helping() {
        // Pops from both ends over a two-element deque while a push
        // lands on the left: crosses every helping path (mark-prev
        // windows, splice races, hint repairs).
        let m = SundellMachine::new(vec![
            vec![DequeOp::PopLeft],
            vec![DequeOp::PopRight],
            vec![DequeOp::PushLeft(3)],
        ])
        .with_initial(vec![5, 6]);
        Explorer::default().explore_histories(&m, 5_000_000).unwrap();
    }

    #[test]
    fn pops_race_on_empty_deque() {
        // Empty observations racing a push: each pop either sees the
        // pushed value or a legitimately empty deque.
        let m = SundellMachine::new(vec![
            vec![DequeOp::PushRight(9), DequeOp::PopLeft],
            vec![DequeOp::PopRight],
        ]);
        Explorer::default().explore_histories(&m, 1_000_000).unwrap();
    }

    #[test]
    fn broken_help_splice_is_caught() {
        // Negative control: a help-splice that skips one live successor
        // silently drops an element, so a later pop claims empty while
        // a pushed value was never returned — non-linearizable, and the
        // checker must say so. The identical healthy run passes.
        let script = vec![vec![DequeOp::PopLeft, DequeOp::PopLeft, DequeOp::PopLeft]];
        let healthy = SundellMachine::new(script.clone()).with_initial(vec![1, 2]);
        Explorer::default().explore_histories(&healthy, 100).unwrap();

        let broken = SundellMachine::new(script)
            .with_initial(vec![1, 2])
            .with_broken_splice();
        let err = Explorer::default().explore_histories(&broken, 100).unwrap_err();
        assert!(err.contains("non-linearizable"), "unexpected error: {err}");
    }

    #[test]
    fn broken_help_splice_is_caught_under_concurrency() {
        let m = SundellMachine::new(vec![vec![DequeOp::PopLeft], vec![DequeOp::PopLeft]])
            .with_initial(vec![1, 2, 3])
            .with_broken_splice();
        let err = Explorer::default().explore_histories(&m, 1_000_000).unwrap_err();
        assert!(err.contains("non-linearizable"), "unexpected error: {err}");
    }
}
