//! Windowed (bounded, online-capable) linearizability checking.
//!
//! The Wing & Gong search of [`checker`](crate::checker) is exponential,
//! so it caps histories at 64 operations. Long recorded runs — and *live*
//! runs, audited while the deque is still being hammered — are instead
//! checked window by window:
//!
//! 1. completed operations are buffered in invocation order;
//! 2. the buffer is split at **quiescent cuts** — timestamps that no
//!    operation's interval spans. Because every thread runs its
//!    operations sequentially, at most `threads` operations are open at
//!    any instant and such cuts occur constantly in practice;
//! 3. each window of at most `max_window` operations is checked by
//!    [`linearization_final_states`], carrying the **full set** of
//!    abstract states reachable at the cut into the next window (a
//!    single witness would make the split unsound: concurrent operations
//!    inside a window can leave the deque in several distinct states).
//!    The set is kept factored as a [`StateSet`], so ambiguity left deep
//!    inside a long deque does not multiply from window to window.
//!
//! Splitting at quiescent cuts with full state-set carry is exact: the
//! windowed check accepts a history **iff** the monolithic check does.
//! The online caveat is operations still in flight — a cut is only taken
//! below `safe_ts`, the caller's bound on the earliest timestamp a
//! not-yet-buffered invocation might carry.
//!
//! A preempted thread can leave an operation open across far more than
//! `max_window` others. When no quiescent cut fits, the checker cuts
//! where the fewest operations cross (at most [`MAX_CROSSING`]) and
//! branches: each crossing operation is linearized either before the
//! cut or after it, carried into the next window. The branches are
//! exact for the same reason the split is — any order extending real
//! time places each operation at a point inside its own interval, and a
//! crossing operation's interval straddles the cut — so a branch that
//! dies is dropped and the survivors' state sets are merged by which
//! carried operations they still owe.
//!
//! [`linearization_final_states`]: crate::checker::linearization_final_states

use crate::checker::Violation;
use crate::history::Completed;
use crate::spec::SeqDeque;
use crate::stateset::StateSet;

/// Why a windowed check failed or could not proceed.
#[derive(Debug)]
pub enum WindowError {
    /// A window admitted no linearization from any carried state.
    Violation {
        /// Zero-based index of the offending window.
        window: usize,
        /// The operations of the offending window.
        ops: Vec<Completed>,
        /// Diagnostics from the underlying checker.
        violation: Violation,
    },
    /// More than `max_window` buffered operations accumulated without a
    /// cut that at most one operation crosses (pathological overlap
    /// chain); raise `max_window` or lower the contention of the
    /// recorded run.
    Overflow {
        /// Operations buffered (or carried across the last cut) when the
        /// limit was hit.
        buffered: usize,
        /// The configured window limit.
        max_window: usize,
    },
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::Violation { window, ops, violation } => write!(
                f,
                "window {window} of {} ops is NOT linearizable (deepest prefix \
                 {:?});\nops: {:#?}",
                ops.len(),
                violation.deepest_prefix,
                ops
            ),
            WindowError::Overflow { buffered, max_window } => write!(
                f,
                "no cut crossed by at most one op within {buffered} \
                 buffered ops (max_window {max_window})"
            ),
        }
    }
}

/// Summary of a completed windowed check.
#[derive(Debug)]
pub struct WindowReport {
    /// Windows checked.
    pub windows: usize,
    /// Total operations checked across all windows.
    pub ops_checked: usize,
    /// Abstract states reachable after the final window.
    pub final_states: StateSet,
}

/// Most operations a cut may cross; each one doubles the branches
/// carried across it.
pub const MAX_CROSSING: usize = 3;

/// Incremental windowed checker. Feed completed operations as they are
/// observed; call [`advance`](WindowedChecker::advance) to check every
/// window already closed by a cut, and
/// [`finish`](WindowedChecker::finish) once the run is over.
#[derive(Debug)]
pub struct WindowedChecker {
    /// The operations crossing the last cut (at most [`MAX_CROSSING`]).
    carried: Vec<Completed>,
    /// Reachable states, by which carried operations are still owed
    /// (bit `i`: `carried[i]` is not yet linearized). Never empty.
    branches: Vec<(u32, StateSet)>,
    buf: Vec<Completed>,
    max_window: usize,
    windows: usize,
    ops_checked: usize,
}

impl WindowedChecker {
    /// Creates a checker starting from `initial` that checks windows of
    /// at most `max_window` operations (capped at the underlying
    /// checker's limit of 64).
    pub fn new(initial: SeqDeque, max_window: usize) -> Self {
        let max_window = max_window.clamp(1, 64);
        WindowedChecker {
            carried: Vec::new(),
            branches: vec![(0, StateSet::single(initial))],
            buf: Vec::new(),
            max_window,
            windows: 0,
            ops_checked: 0,
        }
    }

    /// Buffers completed operations (any order; they are sorted by
    /// invocation timestamp internally).
    pub fn feed<I: IntoIterator<Item = Completed>>(&mut self, ops: I) {
        self.buf.extend(ops);
        self.buf.sort_by_key(|c| c.invoke_ts);
    }

    /// Operations buffered but not yet absorbed into a checked window.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Windows checked so far.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Operations checked so far.
    pub fn ops_checked(&self) -> usize {
        self.ops_checked
    }

    /// Checks every buffered window closed by a quiescent cut whose cut
    /// timestamp lies strictly below `safe_ts`.
    ///
    /// `safe_ts` is the caller's guarantee that every operation *not yet
    /// fed* (in flight, or completed but unread) has an invocation
    /// timestamp `>= safe_ts`; pass the minimum invocation timestamp of
    /// the currently pending operations, or `u64::MAX` after the run has
    /// quiesced. Returns the number of windows checked by this call.
    pub fn advance(&mut self, safe_ts: u64) -> Result<usize, WindowError> {
        let mut checked = 0;
        loop {
            match self.find_cut(safe_ts)? {
                None => return Ok(checked),
                Some(cut) => {
                    self.check_window(cut)?;
                    checked += 1;
                }
            }
        }
    }

    /// Consumes the checker after the run has quiesced (every operation
    /// fed), checking all remaining buffered operations.
    pub fn finish(mut self) -> Result<WindowReport, WindowError> {
        loop {
            match self.find_cut(u64::MAX)? {
                None => break,
                Some(cut) => self.check_window(cut)?,
            }
        }
        // Only a cut with a next operation is crossed, and the last
        // window ends at the tail, so nothing is owed past it.
        debug_assert!(self.carried.is_empty() && self.branches.len() == 1);
        let (_, final_states) = self.branches.pop().expect("branches are never empty");
        Ok(WindowReport { windows: self.windows, ops_checked: self.ops_checked, final_states })
    }

    /// Finds the smallest prefix `buf[..end]` closed by a quiescent cut:
    /// every prefix operation (and every carried one) responded before
    /// both (a) the next buffered operation's invocation and (b)
    /// `safe_ts`. The `safe_ts` bound alone closes the tail of the
    /// buffer — no yet-unseen operation can overlap it. If none fits in
    /// the window, falls back to the cut the fewest operations cross.
    ///
    /// `Overflow` is only raised when a **certified** cutless stretch
    /// exceeds the window: more than `max_window` operations all
    /// responded below `safe_ts` with no usable cut among them. Buffered
    /// operations at or beyond `safe_ts` never count toward overflow —
    /// a still-unseen invocation may yet land between them and produce
    /// a cut once `safe_ts` advances, so a live poll mid-burst merely
    /// keeps buffering instead of failing spuriously.
    fn find_cut(&self, safe_ts: u64) -> Result<Option<Cut>, WindowError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        let cap = self.max_window.saturating_sub(self.carried.len());
        let mut max_respond = self.carried.iter().map(|c| c.respond_ts).max().unwrap_or(0);
        let scan = self.buf.len().min(cap + 1);
        let mut stable = 0usize;
        for i in 0..scan {
            max_respond = max_respond.max(self.buf[i].respond_ts);
            if max_respond >= safe_ts {
                break;
            }
            stable = i + 1;
            let cut = self.buf.get(i + 1).is_none_or(|c| max_respond < c.invoke_ts);
            if cut && i < cap {
                return Ok(Some(Cut { end: i + 1, crossing: Vec::new() }));
            }
        }
        if stable > cap {
            if let Some(cut) = self.narrow_cut(cap, safe_ts) {
                return Ok(Some(cut));
            }
            return Err(WindowError::Overflow {
                buffered: self.buf.len() + self.carried.len(),
                max_window: self.max_window,
            });
        }
        Ok(None)
    }

    /// The first of the cuts within `cap` buffered operations, strictly
    /// below `safe_ts`, that the fewest operations (buffered or carried)
    /// cross — if that is at most [`MAX_CROSSING`].
    fn narrow_cut(&self, cap: usize, safe_ts: u64) -> Option<Cut> {
        let mut best: Option<Cut> = None;
        for end in 1..=self.buf.len().min(cap) {
            let Some(next) = self.buf.get(end).map(|c| c.invoke_ts) else { break };
            if next >= safe_ts {
                break;
            }
            let crossing: Vec<Crossing> = (0..self.carried.len())
                .filter(|&i| self.carried[i].respond_ts >= next)
                .map(Crossing::Carried)
                .chain((0..end).filter(|&j| self.buf[j].respond_ts >= next).map(Crossing::Buffered))
                .collect();
            if crossing.len() <= MAX_CROSSING
                && best.as_ref().is_none_or(|b| crossing.len() < b.crossing.len())
            {
                let single = crossing.len() == 1;
                best = Some(Cut { end, crossing });
                if single {
                    break;
                }
            }
        }
        best
    }

    fn check_window(&mut self, cut: Cut) -> Result<(), WindowError> {
        let window: Vec<Completed> = self.buf.drain(..cut.end).collect();
        let carried = std::mem::take(&mut self.carried);
        let crossing: Vec<Completed> = cut
            .crossing
            .iter()
            .map(|c| match *c {
                Crossing::Carried(i) => carried[i],
                Crossing::Buffered(j) => window[j],
            })
            .collect();
        let mut next: Vec<(u32, StateSet)> = Vec::new();
        let mut violation = None;
        for (owed, states) in std::mem::take(&mut self.branches) {
            // This branch owes the window and its still-owed carried
            // operations; it may defer any crossing operation it owes.
            let mut ops = window.clone();
            ops.extend((0..carried.len()).filter(|&i| owed & (1 << i) != 0).map(|i| carried[i]));
            let deferrable: Vec<(usize, usize)> = cut
                .crossing
                .iter()
                .enumerate()
                .filter_map(|(k, c)| match *c {
                    Crossing::Buffered(j) => Some((k, j)),
                    Crossing::Carried(i) => (owed & (1 << i) != 0).then(|| {
                        (k, window.len() + (owed & ((1 << i) - 1)).count_ones() as usize)
                    }),
                })
                .collect();
            for defer in 0u32..(1 << deferrable.len()) {
                let mut next_owed = 0u32;
                let mut skip = vec![false; ops.len()];
                for (b, &(k, at)) in deferrable.iter().enumerate() {
                    if defer & (1 << b) != 0 {
                        next_owed |= 1 << k;
                        skip[at] = true;
                    }
                }
                let now: Vec<Completed> =
                    ops.iter().zip(&skip).filter(|(_, &s)| !s).map(|(c, _)| *c).collect();
                match states.after(&now) {
                    Ok(s) => match next.iter().position(|(o, _)| *o == next_owed) {
                        Some(at) => {
                            let (_, prev) = next.swap_remove(at);
                            next.push((next_owed, prev.union(s)));
                        }
                        None => next.push((next_owed, s)),
                    },
                    Err(v) => violation = Some(v),
                }
            }
        }
        if next.is_empty() {
            let mut ops = window;
            ops.extend(carried);
            return Err(WindowError::Violation {
                window: self.windows,
                ops,
                violation: violation.expect("a dead branch reports its violation"),
            });
        }
        // Carry only the crossing operations some branch still owes.
        let owed_any = next.iter().fold(0u32, |m, (o, _)| m | o);
        let kept: Vec<usize> = (0..crossing.len()).filter(|&k| owed_any & (1 << k) != 0).collect();
        for (owed, _) in &mut next {
            *owed = kept.iter().enumerate().fold(0, |m, (b, &k)| m | (((*owed >> k) & 1) << b));
        }
        self.carried = kept.iter().map(|&k| crossing[k]).collect();
        self.branches = next;
        self.windows += 1;
        self.ops_checked += window.len();
        Ok(())
    }
}

/// Where a window ends, and the operations crossing that point.
#[derive(Debug)]
struct Cut {
    end: usize,
    crossing: Vec<Crossing>,
}

/// An operation crossing a cut: the `i`-th carried across the previous
/// cut, or the `j`-th of the window.
#[derive(Debug, Clone, Copy)]
enum Crossing {
    Carried(usize),
    Buffered(usize),
}

/// One-shot convenience: windowed check of a complete history.
pub fn check_windowed(
    initial: SeqDeque,
    ops: &[Completed],
    max_window: usize,
) -> Result<WindowReport, WindowError> {
    let mut w = WindowedChecker::new(initial, max_window);
    w.feed(ops.iter().copied());
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DequeOp, DequeRet};

    fn op(invoke_ts: u64, respond_ts: u64, op: DequeOp, ret: DequeRet) -> Completed {
        Completed { invoke_ts, respond_ts, op, ret }
    }

    #[test]
    fn long_sequential_history_checks_in_many_windows() {
        // 300 ops — far beyond the monolithic checker's 64-op cap.
        let mut ops = Vec::new();
        let mut ts = 0;
        for i in 0..150u64 {
            ops.push(op(ts, ts + 1, DequeOp::PushRight(i), DequeRet::Okay));
            ts += 2;
        }
        for i in 0..150u64 {
            ops.push(op(ts, ts + 1, DequeOp::PopLeft, DequeRet::Value(i)));
            ts += 2;
        }
        let report = check_windowed(SeqDeque::unbounded(), &ops, 8).unwrap();
        assert_eq!(report.ops_checked, 300);
        assert!(report.windows >= 300 / 8);
        assert_eq!(report.final_states.iter().count(), 1);
        assert!(report.final_states.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn ambiguous_cut_state_is_carried_exactly() {
        // Window 1: two concurrent pushLefts (final state <1,2> or
        // <2,1>). Window 2 resolves the ambiguity to <2,1>: a checker
        // carrying a single witness state would flag a false violation
        // roughly half the time.
        let ops = vec![
            op(0, 10, DequeOp::PushLeft(1), DequeRet::Okay),
            op(1, 9, DequeOp::PushLeft(2), DequeRet::Okay),
            op(20, 21, DequeOp::PopLeft, DequeRet::Value(2)),
            op(22, 23, DequeOp::PopLeft, DequeRet::Value(1)),
            op(24, 25, DequeOp::PopLeft, DequeRet::Empty),
        ];
        // max_window 2 forces the cut between the push pair and the pops.
        let report = check_windowed(SeqDeque::unbounded(), &ops, 2).unwrap();
        assert!(report.windows >= 2);
        assert_eq!(report.final_states.iter().count(), 1);
        assert!(report.final_states.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn violation_in_a_late_window_is_reported() {
        let mut ops = Vec::new();
        let mut ts = 0;
        for i in 0..40u64 {
            ops.push(op(ts, ts + 1, DequeOp::PushRight(i), DequeRet::Okay));
            ts += 2;
        }
        // Pop a value that was never pushed.
        ops.push(op(ts, ts + 1, DequeOp::PopLeft, DequeRet::Value(999)));
        let err = check_windowed(SeqDeque::unbounded(), &ops, 8).unwrap_err();
        match err {
            WindowError::Violation { window, .. } => assert!(window >= 4),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn overflow_without_quiescent_cut() {
        // Five pairwise-overlapping ops with max_window 4: no cut exists.
        let ops: Vec<Completed> = (0..5u64)
            .map(|i| op(i, 100 + i, DequeOp::PushRight(i), DequeRet::Okay))
            .collect();
        let err = check_windowed(SeqDeque::unbounded(), &ops, 4).unwrap_err();
        assert!(matches!(err, WindowError::Overflow { buffered: 5, max_window: 4 }));
    }

    #[test]
    fn operation_open_across_many_cuts_is_carried() {
        // A preempted pushRight(7) spans 30 sequential ops: no quiescent
        // cut fits in 8, but every gap is crossed by that one op alone.
        let mut ops = vec![op(0, 200, DequeOp::PushRight(7), DequeRet::Okay)];
        let mut ts = 1;
        let mut step = |o: DequeOp, r: DequeRet| {
            ops.push(op(ts, ts + 1, o, r));
            ts += 2;
        };
        for i in 0..10u64 {
            step(DequeOp::PushLeft(100 + i), DequeRet::Okay);
            step(DequeOp::PopLeft, DequeRet::Value(100 + i));
        }
        step(DequeOp::PopRight, DequeRet::Empty);
        for i in 0..4u64 {
            step(DequeOp::PushLeft(200 + i), DequeRet::Okay);
        }
        // 7 landed after the empty pop and before the next push: it is
        // the rightmost value.
        step(DequeOp::PopRight, DequeRet::Value(7));
        let report = check_windowed(SeqDeque::unbounded(), &ops, 8).unwrap();
        assert_eq!(report.ops_checked, ops.len());
        let finals: Vec<Vec<u64>> = report.final_states.iter().map(|s| s.items().collect()).collect();
        assert_eq!(finals, vec![vec![203, 202, 201, 200]]);
        // 7 popped early (the long push may already have landed) and
        // again at the end: a duplicate, whichever branch is taken.
        let mut bad = ops.clone();
        bad[2].ret = DequeRet::Empty;
        bad[1] = op(1, 2, DequeOp::PopLeft, DequeRet::Value(7));
        assert!(check_windowed(SeqDeque::unbounded(), &bad, 8).is_err());
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest::proptest! {
        /// Windowed checking through carried operations agrees with the
        /// monolithic checker: a sequential run of the spec with short
        /// intervals, two of which are stretched across many others,
        /// and sometimes one response corrupted.
        #[test]
        fn carried_operations_match_monolithic(seed in proptest::prelude::any::<u64>()) {
            use crate::checker::check_linearizable;
            let mut rng = seed;
            let capacity = splitmix(&mut rng).is_multiple_of(2).then_some(4);
            let initial = capacity.map_or_else(SeqDeque::unbounded, SeqDeque::bounded);
            let mut d = initial.clone();
            let n = 20 + splitmix(&mut rng) % 20;
            let mut ops = Vec::new();
            for k in 0..n {
                let o = match splitmix(&mut rng) % 4 {
                    0 => DequeOp::PushLeft(k),
                    1 => DequeOp::PushRight(k),
                    2 => DequeOp::PopLeft,
                    _ => DequeOp::PopRight,
                };
                let ret = d.apply(o);
                ops.push(op(10 * k + 1000, 10 * k + 1004, o, ret));
            }
            for _ in 0..2 {
                let j = (splitmix(&mut rng) % n) as usize;
                ops[j].invoke_ts -= 10 * (splitmix(&mut rng) % 15);
                ops[j].respond_ts += 10 * (splitmix(&mut rng) % 15);
            }
            if splitmix(&mut rng).is_multiple_of(3) {
                let j = (splitmix(&mut rng) % n) as usize;
                ops[j].ret = match ops[j].ret {
                    DequeRet::Value(v) => DequeRet::Value(v + 1),
                    DequeRet::Empty => DequeRet::Value(0),
                    DequeRet::Okay => DequeRet::Full,
                    _ => DequeRet::Okay,
                };
            }
            let whole = check_linearizable(initial.clone(), &ops).is_ok();
            match check_windowed(initial, &ops, 6) {
                Err(WindowError::Overflow { .. }) => {}
                windowed => assert_eq!(windowed.is_ok(), whole, "seed {seed}: {ops:#?}"),
            }
        }
    }

    #[test]
    fn advance_respects_safe_ts() {
        let mut w = WindowedChecker::new(SeqDeque::unbounded(), 8);
        w.feed([op(0, 1, DequeOp::PushRight(1), DequeRet::Okay)]);
        // An unread op may still carry invoke_ts >= 1: no cut usable.
        assert_eq!(w.advance(1).unwrap(), 0);
        assert_eq!(w.buffered(), 1);
        // Once the caller vouches for ts < 10, the window closes.
        assert_eq!(w.advance(10).unwrap(), 1);
        assert_eq!(w.buffered(), 0);
        let report = w.finish().unwrap();
        assert_eq!(report.ops_checked, 1);
    }

    #[test]
    fn windowed_agrees_with_monolithic_on_small_histories() {
        use crate::checker::check_linearizable;
        // The stolen-last-element shapes from the checker tests.
        let good = vec![
            op(0, 1, DequeOp::PushRight(7), DequeRet::Okay),
            op(2, 5, DequeOp::PopRight, DequeRet::Empty),
            op(3, 4, DequeOp::PopLeft, DequeRet::Value(7)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &good).is_ok());
        assert!(check_windowed(SeqDeque::unbounded(), &good, 64).is_ok());
        let bad = vec![
            op(0, 1, DequeOp::PushRight(7), DequeRet::Okay),
            op(2, 5, DequeOp::PopRight, DequeRet::Value(7)),
            op(3, 4, DequeOp::PopLeft, DequeRet::Value(7)),
        ];
        assert!(check_linearizable(SeqDeque::unbounded(), &bad).is_err());
        assert!(check_windowed(SeqDeque::unbounded(), &bad, 64).is_err());
    }
}
