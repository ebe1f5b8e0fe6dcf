//! Trace→history bridge: converts captured recorder rings into
//! `dcas-linearize` histories and audits them — post-hoc over a whole
//! run, or *online* in bounded windows while the run is still going.
//!
//! The conversion is mechanical: every completed [`RecordedOp`] becomes
//! one [`Completed`] with the conservative `[invoke_ts, respond_ts]`
//! interval stamped by the recorder's global clock. In-flight
//! operations (a thread killed mid-operation by the fault injector, or
//! simply caught mid-call by an online poll) have no response and are
//! excluded — the caller decides whether exclusions are acceptable
//! (they are for the fault injector's *effect-free* panic kills, whose
//! crashed op by construction did not change the deque).

use std::sync::Arc;

use dcas_linearize::window::{WindowError, WindowReport, WindowedChecker};
use dcas_linearize::{Batch, Completed, DequeOp, DequeRet, SeqDeque};

use crate::recorder::{OpKind, OpRecorder, Outcome, RecordedOp, SlotRead};

/// Why a trace could not be captured faithfully.
#[derive(Debug)]
pub enum TraceError {
    /// The ring wrapped before this operation was read: the trace has a
    /// hole and cannot be audited. Size rings for the run, or poll the
    /// online auditor more often.
    Truncated {
        /// Ring (thread) index.
        thread: usize,
        /// First sequence number whose slot was recycled unread.
        first_lost: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Truncated { thread, first_lost } => write!(
                f,
                "trace truncated: thread {thread} op #{first_lost} was \
                 overwritten before it could be read"
            ),
        }
    }
}

/// Why an audit failed.
#[derive(Debug)]
pub enum AuditError {
    /// The trace itself was unusable.
    Trace(TraceError),
    /// The trace is **not linearizable** against the deque spec.
    Violation(WindowError),
}

impl From<TraceError> for AuditError {
    fn from(e: TraceError) -> Self {
        AuditError::Trace(e)
    }
}

impl From<WindowError> for AuditError {
    fn from(e: WindowError) -> Self {
        AuditError::Violation(e)
    }
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Trace(e) => write!(f, "{e}"),
            AuditError::Violation(e) => write!(f, "{e}"),
        }
    }
}

/// Converts one completed recorder entry into a spec-level operation.
///
/// # Panics
///
/// Panics on a malformed record (e.g. a completed op whose outcome is
/// still `Pending`) — these indicate recorder bugs, not workload
/// behaviour.
pub fn to_completed(op: &RecordedOp) -> Completed {
    let respond_ts =
        op.respond_ts.expect("to_completed requires a completed record");
    let (deque_op, ret) = match op.kind {
        OpKind::PushRight | OpKind::PushLeft => {
            let v = op.vals()[0];
            let o = if op.kind == OpKind::PushRight {
                DequeOp::PushRight(v)
            } else {
                DequeOp::PushLeft(v)
            };
            let ret = match op.outcome {
                Outcome::Okay => DequeRet::Okay,
                Outcome::Full => DequeRet::Full,
                other => panic!("push completed with outcome {other:?}"),
            };
            (o, ret)
        }
        OpKind::PopRight | OpKind::PopLeft => {
            let o = if op.kind == OpKind::PopRight { DequeOp::PopRight } else { DequeOp::PopLeft };
            let ret = match op.outcome {
                Outcome::Okay => DequeRet::Value(op.vals()[0]),
                Outcome::Empty => DequeRet::Empty,
                other => panic!("pop completed with outcome {other:?}"),
            };
            (o, ret)
        }
        OpKind::PushRightN | OpKind::PushLeftN => {
            let b = Batch::new(op.vals());
            let o = if op.kind == OpKind::PushRightN {
                DequeOp::PushRightN(b)
            } else {
                DequeOp::PushLeftN(b)
            };
            let ret = match op.outcome {
                Outcome::Okay => DequeRet::Okay,
                Outcome::Full => DequeRet::Full,
                other => panic!("batch push completed with outcome {other:?}"),
            };
            (o, ret)
        }
        OpKind::PopRightN | OpKind::PopLeftN => {
            let o = if op.kind == OpKind::PopRightN {
                DequeOp::PopRightN(op.requested)
            } else {
                DequeOp::PopLeftN(op.requested)
            };
            (o, DequeRet::Values(Batch::new(op.vals())))
        }
    };
    Completed { invoke_ts: op.invoke_ts, respond_ts, op: deque_op, ret }
}

/// Capture statistics of a trace extraction.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceStats {
    /// Completed operations extracted.
    pub completed: usize,
    /// Operations excluded because they never responded (crashed thread
    /// or caught mid-call).
    pub in_flight_excluded: usize,
}

/// Extracts every completed operation from the recorder's rings, sorted
/// by invocation timestamp. In-flight operations are counted in
/// [`TraceStats::in_flight_excluded`].
pub fn completed_history(
    rec: &OpRecorder,
) -> Result<(Vec<Completed>, TraceStats), TraceError> {
    let mut out = Vec::new();
    let mut stats = TraceStats::default();
    for t in 0..rec.threads() {
        let ring = rec.ring(t);
        let started = ring.started();
        for seq in 0..started {
            match ring.read(t, seq) {
                SlotRead::Completed(op) => {
                    out.push(to_completed(&op));
                    stats.completed += 1;
                }
                SlotRead::InFlight(_) => {
                    stats.in_flight_excluded += 1;
                }
                SlotRead::Overwritten => {
                    return Err(TraceError::Truncated { thread: t, first_lost: seq })
                }
                SlotRead::NotYetStable => {
                    // A slot can only stay unstable while its owner is
                    // mid-call; for a quiesced post-hoc capture that
                    // means a crashed writer — treat as in-flight.
                    stats.in_flight_excluded += 1;
                }
            }
        }
    }
    out.sort_by_key(|c| c.invoke_ts);
    Ok((out, stats))
}

/// Result of a successful audit.
#[derive(Debug)]
pub struct AuditReport {
    /// The windowed-checker summary.
    pub window: WindowReport,
    /// Capture statistics (how many ops were checked / excluded).
    pub trace: TraceStats,
}

/// Post-hoc audit: extracts the recorder's trace and checks it
/// linearizable from `initial`, windowing at quiescent cuts with at
/// most `max_window` operations per window.
///
/// Call after the recorded run has quiesced (worker threads joined, or
/// dead). Crashed threads' pending operations are excluded — sound for
/// the fault injector's effect-free panic kills.
pub fn audit(
    rec: &OpRecorder,
    initial: SeqDeque,
    max_window: usize,
) -> Result<AuditReport, AuditError> {
    let (ops, trace) = completed_history(rec)?;
    let mut checker = WindowedChecker::new(initial, max_window);
    checker.feed(ops);
    let window = checker.finish()?;
    Ok(AuditReport { window, trace })
}

/// Outcome of one [`OnlineAuditor::poll`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PollReport {
    /// Completed operations consumed by this poll.
    pub fed: usize,
    /// Windows closed and checked by this poll.
    pub windows_checked: usize,
}

/// Incremental auditor for a *live* run: periodically [`poll`]s the
/// rings, feeds newly completed operations to a [`WindowedChecker`],
/// and checks every window already closed by a quiescent cut — so a
/// linearizability violation surfaces **during** the run, bounded by
/// the window size, instead of after a post-hoc capture.
///
/// [`poll`]: OnlineAuditor::poll
pub struct OnlineAuditor {
    rec: Arc<OpRecorder>,
    consumed: Vec<u64>,
    checker: WindowedChecker,
    in_flight_excluded: usize,
}

impl OnlineAuditor {
    /// Creates an auditor over `rec` starting from `initial`, checking
    /// windows of at most `max_window` operations.
    pub fn new(rec: Arc<OpRecorder>, initial: SeqDeque, max_window: usize) -> Self {
        let threads = rec.threads();
        OnlineAuditor {
            rec,
            consumed: vec![0; threads],
            checker: WindowedChecker::new(initial, max_window),
            in_flight_excluded: 0,
        }
    }

    /// Operations checked so far.
    pub fn ops_checked(&self) -> usize {
        self.checker.ops_checked()
    }

    /// Windows checked so far.
    pub fn windows(&self) -> usize {
        self.checker.windows()
    }

    /// Consumes newly completed operations and checks every
    /// quiescent-cut window that is now safely closed.
    ///
    /// Safe-timestamp rule: the global clock is read **before** the
    /// rings are scanned, so every operation invoked after the scan
    /// carries a later stamp; the windows advanced here can never be
    /// invalidated by an operation the scan missed.
    pub fn poll(&mut self) -> Result<PollReport, AuditError> {
        // Clock first — see the doc comment.
        let clock_bound = self.rec.clock_now();
        let mut safe_ts = clock_bound;
        let mut fed = 0;
        for t in 0..self.rec.threads() {
            let ring = self.rec.ring(t);
            let started = ring.started();
            while self.consumed[t] < started {
                let seq = self.consumed[t];
                match ring.read(t, seq) {
                    SlotRead::Completed(op) => {
                        self.checker.feed([to_completed(&op)]);
                        self.consumed[t] += 1;
                        fed += 1;
                    }
                    SlotRead::InFlight(op) => {
                        // At most one per ring (ops are sequential per
                        // thread), always the newest.
                        safe_ts = safe_ts.min(op.invoke_ts);
                        break;
                    }
                    SlotRead::Overwritten => {
                        return Err(TraceError::Truncated { thread: t, first_lost: seq }.into())
                    }
                    SlotRead::NotYetStable => {
                        // Mid-transition (owner inside begin/finish) and
                        // its invocation stamp is unreadable: freeze
                        // window advancement this round rather than risk
                        // cutting past it. Transient — the next poll
                        // reads it.
                        safe_ts = 0;
                        break;
                    }
                }
            }
        }
        let windows_checked = self.checker.advance(safe_ts)?;
        Ok(PollReport { fed, windows_checked })
    }

    /// Final drain and check, to call after the run has quiesced
    /// (threads joined or confirmed dead). Operations still pending are
    /// excluded as crashed and counted in the report.
    pub fn finish(mut self) -> Result<AuditReport, AuditError> {
        // Drain whatever completed since the last poll.
        self.poll()?;
        // Any op still unconsumed is in-flight forever (crashed).
        for t in 0..self.rec.threads() {
            self.in_flight_excluded +=
                (self.rec.ring(t).started() - self.consumed[t]) as usize;
        }
        let in_flight_excluded = self.in_flight_excluded;
        let completed = self.checker.ops_checked() + self.checker.buffered();
        let window = self.checker.finish()?;
        Ok(AuditReport {
            window,
            trace: TraceStats { completed, in_flight_excluded },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorded::Recorded;
    use dcas_deque::{ConcurrentDeque, ListDeque};

    #[test]
    fn sequential_trace_audits_clean() {
        let d: Recorded<ListDeque<u32>> = Recorded::new(ListDeque::new(), 1, 256);
        for i in 0..50 {
            d.push_right(i).unwrap();
        }
        for i in 0..50 {
            assert_eq!(d.pop_left(), Some(i));
        }
        let report = audit(d.recorder(), SeqDeque::unbounded(), 16).unwrap();
        assert_eq!(report.window.ops_checked, 100);
        assert_eq!(report.trace.in_flight_excluded, 0);
        assert!(report.window.final_states.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn crashed_op_is_excluded_not_fatal() {
        let rec = Arc::new(OpRecorder::new(1, 16));
        rec.begin(OpKind::PushRight, 0, &[5]);
        rec.finish(Outcome::Okay, &[]);
        rec.begin(OpKind::PopLeft, 0, &[]); // never finishes: "crashed"
        let report = audit(&rec, SeqDeque::unbounded(), 8).unwrap();
        assert_eq!(report.trace.completed, 1);
        assert_eq!(report.trace.in_flight_excluded, 1);
    }

    #[test]
    fn truncated_trace_is_rejected() {
        let d: Recorded<ListDeque<u32>> = Recorded::new(ListDeque::new(), 1, 4);
        for i in 0..20 {
            d.push_right(i).unwrap();
        }
        match audit(d.recorder(), SeqDeque::unbounded(), 8) {
            Err(AuditError::Trace(TraceError::Truncated { thread: 0, .. })) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn online_auditor_checks_during_the_run() {
        let d: Recorded<ListDeque<u32>> = Recorded::new(ListDeque::new(), 1, 64);
        let mut auditor =
            OnlineAuditor::new(d.recorder().clone(), SeqDeque::unbounded(), 8);
        let mut polled_windows = 0;
        for round in 0..8u32 {
            for i in 0..8 {
                d.push_right(round * 8 + i).unwrap();
            }
            for _ in 0..8 {
                d.pop_left().unwrap();
            }
            let r = auditor.poll().unwrap();
            polled_windows += r.windows_checked;
        }
        assert!(polled_windows > 0, "online mode must close windows mid-run");
        let report = auditor.finish().unwrap();
        assert_eq!(report.window.ops_checked, 128);
        assert_eq!(report.trace.in_flight_excluded, 0);
    }

    #[test]
    fn corrupted_trace_is_rejected() {
        // A genuine recorded trace, then values of two pops swapped: a
        // FIFO history claiming LIFO observations must be refused.
        let d: Recorded<ListDeque<u32>> = Recorded::new(ListDeque::new(), 1, 64);
        d.push_right(1).unwrap();
        d.push_right(2).unwrap();
        assert_eq!(d.pop_left(), Some(1));
        assert_eq!(d.pop_left(), Some(2));
        let (mut ops, _) = completed_history(d.recorder()).unwrap();
        assert!(matches!(ops[2].ret, DequeRet::Value(1)));
        ops[2].ret = DequeRet::Value(2);
        ops[3].ret = DequeRet::Value(1);
        let mut checker = WindowedChecker::new(SeqDeque::unbounded(), 64);
        checker.feed(ops);
        assert!(
            matches!(checker.finish(), Err(WindowError::Violation { .. })),
            "swapped pop values must fail the audit"
        );
    }
}
