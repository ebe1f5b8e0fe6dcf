//! A Wing & Gong linearizability checker with Lowe-style memoization.
//!
//! Given a complete history (every operation has returned), the checker
//! searches for a total order of the operations that (a) extends the
//! real-time partial order and (b) is a legal execution of the sequential
//! deque specification producing exactly the recorded responses. This is
//! the *definition* of linearizability from Herlihy & Wing, which the
//! paper adopts as its correctness condition.
//!
//! The search is exponential in the worst case but fast in practice for
//! the history sizes our stress driver produces; visited
//! (linearized-set, abstract-state) pairs are memoized so equivalent
//! search prefixes are explored once (P. G. Lowe, *Testing for
//! linearizability*, 2017). A candidate's response is compared before
//! its successor state is built, so rejected candidates cost no
//! allocation.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::history::Completed;
use crate::spec::SeqDeque;

/// Result of a failed check, for diagnostics.
#[derive(Debug)]
pub struct Violation {
    /// Index (into the completed-op list) of operations linearized on the
    /// deepest path the search reached before exhausting candidates.
    pub deepest_prefix: Vec<usize>,
}

/// Checks whether `ops` (a complete history) is linearizable with respect
/// to the sequential deque `initial`.
///
/// Returns `Ok(())` with a witness existing, or `Err(Violation)` if no
/// linearization exists.
pub fn check_linearizable(initial: SeqDeque, ops: &[Completed]) -> Result<(), Violation> {
    let mut found = false;
    let deepest = search(&[initial], ops, |_| {
        found = true;
        true
    });
    if found {
        Ok(())
    } else {
        Err(Violation { deepest_prefix: deepest })
    }
}

/// Enumerates **every** abstract state the sequential specification can be
/// left in by a linearization of `ops`, starting from *any* of the
/// `initials` states.
///
/// This is the carry primitive of the windowed (online) checking mode:
/// when a long history is audited window by window, the state at a window
/// boundary is generally not unique — e.g. two concurrent `pushLeft`s
/// admit two witness orders with different final sequences — so the next
/// window must be checked from the full set of reachable states, not the
/// first witness found. Returns the deduplicated set (never empty) or the
/// same [`Violation`] diagnostics as [`check_linearizable`] if **no**
/// initial state admits a linearization.
///
/// Complexity: same memoized search as [`check_linearizable`], but
/// without the early exit on the first witness; the memo table bounds the
/// work by the number of distinct (linearized-set, state) pairs.
pub fn linearization_final_states(
    initials: &[SeqDeque],
    ops: &[Completed],
) -> Result<Vec<SeqDeque>, Violation> {
    assert!(!initials.is_empty(), "need at least one initial state");
    let mut finals: Vec<SeqDeque> = Vec::new();
    let mut seen: FxHashSet<SeqDeque> = FxHashSet::default();
    let deepest = search(initials, ops, |state| {
        if seen.insert(state.clone()) {
            finals.push(state.clone());
        }
        false
    });
    if finals.is_empty() {
        Err(Violation { deepest_prefix: deepest })
    } else {
        Ok(finals)
    }
}

/// The memoized depth-first search behind both entry points. Calls
/// `on_final` with the final state of every complete linearization it
/// reaches (each distinct (linearized-set, state) pair is expanded once,
/// so a final state may be reported more than once from different
/// initials) and stops as soon as `on_final` returns `true`. Returns the
/// deepest linearized prefix reached, for diagnostics.
fn search(
    initials: &[SeqDeque],
    ops: &[Completed],
    mut on_final: impl FnMut(&SeqDeque) -> bool,
) -> Vec<usize> {
    // The memo key packs the linearized set into a u64 bitmask. Check
    // longer histories in windows at the driver level instead.
    assert!(ops.len() <= 64, "checker supports at most 64 operations per history, got {}", ops.len());
    let all_mask: u64 = if ops.len() == 64 { !0 } else { (1u64 << ops.len()) - 1 };

    struct Frame {
        state: SeqDeque,
        mask: u64,
        /// Minimal response timestamp among the ops not in `mask`. An op
        /// may linearize next iff its invocation precedes it.
        min_resp: u64,
        next_candidate: usize,
    }
    let frame = |state: SeqDeque, mask: u64| Frame {
        min_resp: ops
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) == 0)
            .map(|(_, c)| c.respond_ts)
            .min()
            .unwrap_or(u64::MAX),
        state,
        mask,
        next_candidate: 0,
    };

    // Shared across initial states: a (mask, state) pair reached from two
    // different initials has identical continuations.
    let mut memo: FxHashMap<u64, FxHashSet<SeqDeque>> = FxHashMap::default();
    let mut deepest: Vec<usize> = Vec::new();
    let mut path: Vec<usize> = Vec::new();
    for initial in initials {
        let mut stack = vec![frame(initial.clone(), 0)];
        while let Some(top) = stack.last_mut() {
            if top.mask == all_mask {
                if on_final(&top.state) {
                    return deepest;
                }
                stack.pop();
                path.pop();
                continue;
            }
            let mut child = None;
            while top.next_candidate < ops.len() {
                let i = top.next_candidate;
                top.next_candidate += 1;
                let c = &ops[i];
                if top.mask & (1 << i) != 0
                    || c.invoke_ts > top.min_resp
                    || top.state.response(c.op) != c.ret
                {
                    continue;
                }
                let mut next = top.state.clone();
                next.apply(c.op);
                let mask = top.mask | (1 << i);
                let seen = memo.entry(mask).or_default();
                if seen.contains(&next) {
                    continue;
                }
                seen.insert(next.clone());
                child = Some((i, frame(next, mask)));
                break;
            }
            match child {
                Some((i, f)) => {
                    path.push(i);
                    if path.len() > deepest.len() {
                        deepest.clone_from(&path);
                    }
                    stack.push(f);
                }
                None => {
                    stack.pop();
                    path.pop();
                }
            }
        }
    }
    deepest
}

/// A multiply-rotate hasher (the Firefox/rustc "Fx" hash): far cheaper
/// than SipHash on the short integer sequences the memo hashes, and
/// nothing here needs HashDoS resistance.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;
type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DequeOp, DequeRet};

    fn op(invoke_ts: u64, respond_ts: u64, op: DequeOp, ret: DequeRet) -> Completed {
        Completed { invoke_ts, respond_ts, op, ret }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_linearizable(SeqDeque::unbounded(), &[]).is_ok());
    }

    #[test]
    fn sequential_legal_history() {
        let ops = vec![
            op(0, 1, DequeOp::PushRight(5), DequeRet::Okay),
            op(2, 3, DequeOp::PopLeft, DequeRet::Value(5)),
            op(4, 5, DequeOp::PopLeft, DequeRet::Empty),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_ok());
    }

    #[test]
    fn sequential_illegal_history() {
        // Pop returns a value that was never pushed.
        let ops = vec![
            op(0, 1, DequeOp::PushRight(5), DequeRet::Okay),
            op(2, 3, DequeOp::PopLeft, DequeRet::Value(6)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());
    }

    #[test]
    fn real_time_order_is_respected() {
        // Sequentially: pop (returns empty) strictly before push. A
        // checker ignoring real time would reorder them.
        let ops = vec![
            op(0, 1, DequeOp::PopLeft, DequeRet::Value(5)),
            op(2, 3, DequeOp::PushRight(5), DequeRet::Okay),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());
    }

    #[test]
    fn overlapping_ops_may_reorder() {
        // The same pair, but overlapping: pop(→5) concurrent with
        // push(5) is linearizable as push;pop.
        let ops = vec![
            op(0, 3, DequeOp::PopLeft, DequeRet::Value(5)),
            op(1, 2, DequeOp::PushRight(5), DequeRet::Okay),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_ok());
    }

    #[test]
    fn stolen_last_element_scenario() {
        // Figure 6 of the paper: popRight and popLeft race for the last
        // element; one gets it, the other reports empty.
        let ops = vec![
            op(0, 1, DequeOp::PushRight(7), DequeRet::Okay),
            op(2, 5, DequeOp::PopRight, DequeRet::Empty),
            op(3, 4, DequeOp::PopLeft, DequeRet::Value(7)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_ok());
        // But both claiming the single element is a violation.
        let ops = vec![
            op(0, 1, DequeOp::PushRight(7), DequeRet::Okay),
            op(2, 5, DequeOp::PopRight, DequeRet::Value(7)),
            op(3, 4, DequeOp::PopLeft, DequeRet::Value(7)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());
    }

    #[test]
    fn full_boundary_with_bounded_spec() {
        let ops = vec![
            op(0, 1, DequeOp::PushRight(1), DequeRet::Okay),
            op(2, 3, DequeOp::PushLeft(2), DequeRet::Full),
            op(4, 5, DequeOp::PopRight, DequeRet::Value(1)),
            op(6, 7, DequeOp::PushLeft(2), DequeRet::Okay),
        ];
        assert!(check_linearizable(SeqDeque::bounded(1), &ops).is_ok());
        // The same history against capacity 2 is a violation (the Full
        // response is impossible).
        assert!(check_linearizable(SeqDeque::bounded(2), &ops).is_err());
    }

    #[test]
    fn lost_element_detected() {
        // Two concurrent pushes, but only one value ever pops out and the
        // deque then claims empty forever: the second push was lost.
        let ops = vec![
            op(0, 3, DequeOp::PushRight(1), DequeRet::Okay),
            op(1, 2, DequeOp::PushRight(2), DequeRet::Okay),
            op(4, 5, DequeOp::PopLeft, DequeRet::Value(1)),
            op(6, 7, DequeOp::PopLeft, DequeRet::Empty),
            op(8, 9, DequeOp::PopRight, DequeRet::Empty),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());
    }

    #[test]
    fn duplicated_element_detected() {
        let ops = vec![
            op(0, 1, DequeOp::PushRight(9), DequeRet::Okay),
            op(2, 5, DequeOp::PopRight, DequeRet::Value(9)),
            op(3, 4, DequeOp::PopLeft, DequeRet::Value(9)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());
    }

    #[test]
    fn final_states_enumerates_all_witness_orders() {
        // Two fully-concurrent pushLefts: both <1,2> and <2,1> are
        // reachable, and a checker that carried only one of them would
        // mis-judge a later window.
        let ops = vec![
            op(0, 10, DequeOp::PushLeft(1), DequeRet::Okay),
            op(1, 9, DequeOp::PushLeft(2), DequeRet::Okay),
        ];
        let finals =
            linearization_final_states(&[SeqDeque::unbounded()], &ops).unwrap();
        let mut seqs: Vec<Vec<u64>> =
            finals.iter().map(|s| s.items().collect()).collect();
        seqs.sort();
        assert_eq!(seqs, vec![vec![1, 2], vec![2, 1]]);
    }

    #[test]
    fn final_states_from_multiple_initials() {
        // popLeft -> 7 linearizes from the initial state <7> but not from
        // <8>; the union keeps only the reachable outcome.
        let mut with7 = SeqDeque::unbounded();
        with7.apply(DequeOp::PushRight(7));
        let mut with8 = SeqDeque::unbounded();
        with8.apply(DequeOp::PushRight(8));
        let ops = vec![op(0, 1, DequeOp::PopLeft, DequeRet::Value(7))];
        let finals = linearization_final_states(&[with7, with8.clone()], &ops).unwrap();
        assert_eq!(finals.len(), 1);
        assert!(finals[0].is_empty());
        // From <8> alone the history is a violation.
        assert!(linearization_final_states(&[with8], &ops).is_err());
    }

    #[test]
    fn final_states_empty_history_returns_initials() {
        let a = SeqDeque::unbounded();
        let finals = linearization_final_states(&[a.clone(), a], &[]).unwrap();
        assert_eq!(finals.len(), 1);
    }

    #[test]
    fn final_states_rejects_what_checker_rejects() {
        let ops = vec![
            op(0, 1, DequeOp::PushRight(5), DequeRet::Okay),
            op(2, 3, DequeOp::PopLeft, DequeRet::Value(6)),
        ];
        assert!(linearization_final_states(&[SeqDeque::unbounded()], &ops).is_err());
    }

    #[test]
    fn wide_concurrency_window_searches() {
        // Fully-overlapping ops stress the memoized search. (Kept small:
        // a non-linearizable fully-overlapping history forces the checker
        // to exhaust an intrinsically factorial space.)
        let mut ops = Vec::new();
        for i in 0..7u64 {
            ops.push(op(0, 100, DequeOp::PushRight(i), DequeRet::Okay));
        }
        for _ in 0..7 {
            ops.push(op(0, 100, DequeOp::PopLeft, DequeRet::Value(0)));
        }
        // Only value 0 pops — impossible since all seven distinct values
        // were pushed.
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_err());

        let mut ops = Vec::new();
        for i in 0..10u64 {
            ops.push(op(0, 100, DequeOp::PushRight(i), DequeRet::Okay));
            ops.push(op(0, 100, DequeOp::PopLeft, DequeRet::Value(i)));
        }
        assert!(check_linearizable(SeqDeque::unbounded(), &ops).is_ok());
    }
}
