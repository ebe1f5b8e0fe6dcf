//! Lock-free DCAS emulation from single-word CAS.
//!
//! This module implements the restricted double-compare single-swap
//! (RDCSS) and a two-entry multi-word CAS (CASN) in the style of Harris,
//! Fraser & Pratt, *A Practical Multi-Word Compare-and-Swap Operation*
//! (DISC 2002) — the "non-blocking software emulation" family the paper
//! cites as references \[8, 30\]. With this strategy the deque algorithms
//! built on top are non-blocking end-to-end.
//!
//! # How it works
//!
//! A DCAS fills in a *descriptor* recording both (address, old, new)
//! entries plus a status word (`UNDECIDED` → `SUCCEEDED`/`FAILED`).
//!
//! * **Phase 1** installs a tag naming the descriptor into each target
//!   word (in ascending address order, to bound mutual helping) using
//!   RDCSS, which atomically refuses the installation once the status has
//!   been decided.
//! * The status is then decided with a single CAS.
//! * **Phase 2** replaces each tag by the new value (on success) or the
//!   old value (on failure).
//!
//! Any thread that encounters a tagged word *helps* the operation it
//! belongs to before retrying its own, which is what makes the emulation
//! lock-free: a stalled thread's operation is finished by whoever trips
//! over it.
//!
//! # One reused descriptor per thread
//!
//! Each thread owns one CASN descriptor and one RDCSS descriptor for its
//! whole life ([`desc`](crate::desc) has the slot table, the tag
//! encoding and the seqlock validation): every operation of the thread
//! rewrites the same CASN descriptor under a new sequence number, and
//! every install — for its own operation or while helping another
//! thread's — goes through its own RDCSS descriptor. Nothing is taken
//! from a pool and nothing is retired, so a steady-state `dcas` performs
//! **zero heap allocations** and hands the reclamation backend no work
//! (`tests/steady_state_alloc.rs` counts every allocation). A word holds
//! `(slot, seq)` tags, not addresses, and a helper checks the sequence
//! number after reading a descriptor's fields; a mismatch means the
//! tagged incarnation is over and the helper re-reads the word.
//!
//! Helpers install through their *own* RDCSS descriptor, never through
//! the owner's: an install that a helper leaves half done (tag in the
//! word, completion not yet run) names a descriptor that stays live until
//! that helper completes it, so anyone who meets it can complete it from
//! that descriptor — the protocol stays lock-free — and the owner can
//! reuse its CASN descriptor without waiting for any helper.
//!
//! # The owner's phase 2 closes the incarnation
//!
//! Reuse needs one rule the garbage-collected original does not: once
//! the owner returns, no word may ever again hold a tag of the finished
//! incarnation, since nobody could resolve it. Such a tag can only be
//! written by an RDCSS completion whose status read still saw the
//! incarnation undecided, so its RDCSS tag was installed before the
//! decision. The owner's phase 2 therefore does not stop at a failed
//! CAS: when a word holds an RDCSS tag that installs this incarnation,
//! the owner completes it (the status is decided, so the completion
//! writes the old value back) and tries again. An RDCSS installed before
//! the decision that is not in the word when the owner looks has already
//! been completed, and one installed after the decision can only
//! complete to its old value. So after the owner's phase 2 the
//! incarnation's tags are gone for good, and a helper that reads such a
//! tag finds the owner has not returned yet.
//!
//! # Owner fast-path installation
//!
//! RDCSS exists to stop a *helper* from (re)installing a descriptor
//! after its status has been decided. The owner's very first
//! installation needs no such guard: until that CAS lands, the
//! descriptor's new incarnation is private — no other thread can have
//! its tag, so no thread can have decided its status, which is therefore
//! still `UNDECIDED` exactly as the owner wrote it. The owner may thus
//! install the first (lowest-address) entry with one plain CAS instead of
//! a full RDCSS (install CAS + status check + completion CAS), and when
//! that CAS fails on a value mismatch the incarnation was *never
//! published* and the operation simply returns. Helpers — and the second
//! entry, installed after publication — always use RDCSS.
//!
//! # Contention management
//!
//! Retry loops — helping chains in [`HarrisMcas::load`]-style reads, CAS
//! conflicts in `store`/`cas`, install conflicts inside CASN, and the
//! outer `dcas_strong` loop — apply [`Backoff`](crate::Backoff)
//! (exponential spin, then yield) *after* first helping whichever
//! operation was found in the way. Help-then-back-off keeps the protocol
//! lock-free (the conflicting operation is driven forward before we
//! sleep on it) while stopping retry storms from saturating the
//! contended cache line.
//!
//! A thread whose own operation is still effect-free (a read, a
//! single-word CAS, the owner's first install) is *patient* first: it
//! re-reads the word for up to [`HELP_PATIENCE`] spins of doubling
//! length before it helps, since the owner of a tag is usually running
//! and about to remove it. Helping a running owner makes two threads
//! fight over the same lines for the same result; waiting a moment lets
//! the owner finish alone. The wait is bounded, so a stalled owner is
//! still helped and the protocol stays lock-free. A thread whose own
//! operation is published helps at once: it holds tags of its own.
//!
//! # Tagging and reclamation
//!
//! The two reserved low bits of every [`DcasWord`] distinguish payloads
//! (`00`) from RDCSS tags (`01`) and CASN tags (`10`). Descriptors need
//! no reclamation (their memory is immortal), but the words they name
//! do: `HarrisMcas<R>` is generic over a
//! [`Reclaimer`](crate::reclaim::Reclaimer) backend whose guard every
//! public operation holds, with [`EpochReclaimer`] (the vendored
//! `crossbeam-epoch` shim) as the default and
//! [`HazardReclaimer`](crate::reclaim::hazard::HazardReclaimer) — alias
//! [`HarrisMcasHazard`] — as the bounded-garbage alternative. The guard
//! protects the deque nodes whose words a DCAS and its helpers touch.
//!
//! Under epochs the pin does this by itself. Under hazard pointers
//! (`NEEDS_PROTECT == true`) the owner announces its own descriptor slot
//! (slot 0, with the [`EXPAND_DESC`](crate::reclaim::EXPAND_DESC) flag)
//! from before publication until after its phase 2, so the scanner
//! protects every target word of the operation while anyone can find
//! its tag — also while the owner is frozen mid-operation. A helper's
//! one write that expects a payload, its RDCSS install, is made under an
//! announcement of its own: it announces the target word, then sees the
//! operation still undecided (so the owner's announcement still stood),
//! and only then installs. Its other accesses expect tags, which no
//! freed node word holds. [`reclaim::hazard`](crate::reclaim::hazard)
//! ("What a stale helper may touch") and [`alloc`](crate::alloc) give
//! the argument.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::backoff::Backoff;
use crate::desc::{self, Mine, CASN_TAG, FAILED, RDCSS_TAG, SUCCEEDED, TAG_MASK};
use crate::fault_point;
use crate::reclaim::hazard::HazardReclaimer;
use crate::reclaim::{EpochReclaimer, ReclaimGuard, Reclaimer, EXPAND_DESC};
use crate::stats::{Counters, StrategyStats};
use crate::strategy::{validate_args, validate_casn, MAX_CASN_WORDS};
use crate::{CasnEntry, DcasStrategy, DcasWord};

/// Spins (of 1, 2, 4, … pause hints, 63 in all) an effect-free thread
/// waits for a tag to leave a word before it helps the tag's operation
/// (module docs, "Contention management").
const HELP_PATIENCE: u32 = 6;

#[inline]
fn is_rdcss(v: u64) -> bool {
    v & TAG_MASK == RDCSS_TAG
}

#[inline]
fn is_casn(v: u64) -> bool {
    v & TAG_MASK == CASN_TAG
}

/// One target word of an operation, as its owner wrote it or a helper
/// read (and validated) it from the owner's descriptor.
#[derive(Clone, Copy)]
struct Entry {
    word: *const DcasWord,
    old: u64,
    new: u64,
}

impl Entry {
    const VACANT: Entry = Entry { word: ptr::null(), old: 0, new: 0 };

    fn of(word: &DcasWord, old: u64, new: u64) -> Entry {
        Entry { word, old, new }
    }

    #[inline]
    fn word(&self) -> &DcasWord {
        // SAFETY: entries name words the operation's caller keeps alive
        // for the call; a helper that outlives the call touches a
        // type-stable word (module docs, "Tagging and reclamation").
        unsafe { &*self.word }
    }
}

/// Who drives an operation through [`HarrisMcas::casn_run`].
enum Driver<'g, G> {
    /// The owner. Its fast path has installed entry 0, and its slot-0
    /// announcement protects every target word under hazard pointers.
    Owner,
    /// A helper, installing from entry 0. Under hazard pointers it
    /// announces each target word in `window` and re-checks that the
    /// operation is undecided before it installs there; under epochs the
    /// window is `None`.
    Helper { window: Option<&'g G> },
}

/// One incarnation of a CASN descriptor, as the protocol drives it.
struct Op<'a> {
    /// The CASN tag naming this incarnation in a word.
    tag: u64,
    /// The descriptor's status word.
    status: &'static AtomicU64,
    /// The status value meaning "this incarnation is undecided".
    undecided: u64,
    /// The entries, sorted by target address.
    entries: &'a [Entry],
}

/// Lock-free DCAS emulation (RDCSS + two-entry CASN), generic over the
/// memory-reclamation backend `R`.
///
/// See the module-level documentation for the protocol. All public
/// operations are lock-free. Each thread reuses one descriptor — a
/// steady-state `dcas` performs **zero heap allocations** and retires
/// nothing (a mismatch detected by the preliminary read fails without
/// touching the descriptor) — and retry/helping loops use exponential
/// backoff.
///
/// `HarrisMcas` (no parameter) is the epoch-backed default;
/// [`HarrisMcasHazard`] is the same protocol over hazard pointers, whose
/// garbage stays bounded even under frozen threads.
pub struct HarrisMcas<R: Reclaimer = EpochReclaimer> {
    counters: Counters,
    /// Negative control for the stale-helper test: helpers skip the
    /// sequence re-check and act on whatever incarnation the descriptor
    /// holds.
    #[cfg(test)]
    skip_seq_check: bool,
    /// Negative control for the freed-target test: helpers announce no
    /// hazard before they install.
    #[cfg(test)]
    skip_helper_hazard: bool,
    _backend: PhantomData<R>,
}

impl<R: Reclaimer> Default for HarrisMcas<R> {
    fn default() -> Self {
        HarrisMcas {
            counters: Counters::default(),
            #[cfg(test)]
            skip_seq_check: false,
            #[cfg(test)]
            skip_helper_hazard: false,
            _backend: PhantomData,
        }
    }
}

impl HarrisMcas {
    /// Creates a fresh epoch-backed instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<R: Reclaimer> HarrisMcas<R> {
    /// Snapshot of this instance's operation counters. All-zero unless
    /// the crate is built with the `stats` feature — except the
    /// descriptor and reclamation gauges
    /// ([`descriptor_slots`](StrategyStats::descriptor_slots),
    /// [`retired_pending`](StrategyStats::retired_pending),
    /// [`garbage_high_water`](StrategyStats::garbage_high_water),
    /// [`stalled_collections`](StrategyStats::stalled_collections)),
    /// which are reported unconditionally and are process-global (per
    /// backend for the garbage gauges). The node-pool census gauges
    /// ([`pool_pages`](StrategyStats::pool_pages),
    /// [`pool_nodes_outstanding`](StrategyStats::pool_nodes_outstanding),
    /// [`pool_remote_frees`](StrategyStats::pool_remote_frees)) are
    /// likewise unconditional and process-global, summed over every
    /// registered [`NodePool`](crate::NodePool).
    pub fn stats(&self) -> StrategyStats {
        let mut s = self.counters.snapshot();
        s.descriptor_slots = desc::descriptor_slots();
        s.retired_pending = R::live_garbage();
        s.garbage_high_water = R::garbage_high_water();
        s.stalled_collections = R::stalled_collections();
        s.pool_pages = crate::alloc::pages_allocated();
        s.pool_nodes_outstanding = crate::alloc::nodes_outstanding();
        s.pool_remote_frees = crate::alloc::remote_frees();
        s
    }

    /// Starts a new incarnation of the calling thread's CASN descriptor
    /// for `entries` (sorted by address) and returns it, still private.
    ///
    /// The status store opens the seqlock write and the entry stores
    /// release it: a helper holding the previous incarnation's tag that
    /// reads any of the new fields reads the new status after them
    /// ([`desc`](crate::desc), "Validation").
    fn prepare<'a>(&self, mine: &Mine, entries: &'a [Entry]) -> Op<'a> {
        if mine.take_fresh() {
            self.counters.inc_descriptor_alloc();
        } else {
            self.counters.inc_descriptor_reuse();
        }
        let d = &mine.slot.casn;
        // Only the owner changes the sequence bits, so this load sees
        // the last incarnation's number whatever state helpers left.
        let seq = desc::next_seq(desc::status_seq(d.status.load(Ordering::Relaxed)));
        let undecided = desc::status(seq, desc::UNDECIDED);
        d.status.store(undecided, Ordering::Relaxed);
        d.len.store(entries.len(), Ordering::Release);
        for (f, e) in d.entries.iter().zip(entries) {
            f.word.store(e.word.cast_mut(), Ordering::Release);
            f.old.store(e.old, Ordering::Release);
            f.new.store(e.new, Ordering::Release);
        }
        Op { tag: desc::tag(mine.index, seq, CASN_TAG), status: &d.status, undecided, entries }
    }

    /// Completes an RDCSS whose tag `rtag` sits in `w`: installs `casn`
    /// if `status` still reads `undecided`, else writes `old` back.
    #[inline]
    fn rdcss_complete(w: &DcasWord, rtag: u64, status: &AtomicU64, undecided: u64, casn: u64, old: u64) {
        let new = if status.load(Ordering::SeqCst) == undecided { casn } else { old };
        let _ = w.raw_compare_exchange(rtag, new, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Completes the RDCSS whose tag `rtag` was read from `w`, from its
    /// owner's RDCSS descriptor. Returns the CASN tag that RDCSS
    /// installs, or `None` when it has already finished (its owner moved
    /// on, so the tag has left `w`): re-read the word.
    fn complete_rdcss(w: &DcasWord, rtag: u64) -> Option<u64> {
        let r = &desc::slot(desc::tag_slot(rtag)).rdcss;
        let old = r.old.load(Ordering::Acquire);
        let casn = r.casn.load(Ordering::Acquire);
        // Seqlock read: ordered after the acquire loads above.
        if r.seq.load(Ordering::Relaxed) != desc::tag_seq(rtag) {
            return None;
        }
        let status = &desc::slot(desc::tag_slot(casn)).casn.status;
        let undecided = desc::status(desc::tag_seq(casn), desc::UNDECIDED);
        Self::rdcss_complete(w, rtag, status, undecided, casn, old);
        Some(casn)
    }

    /// Installs `op.tag` into `e`'s word iff the word holds `e.old` and
    /// `op` is still undecided, through the calling thread's own RDCSS
    /// descriptor (a new incarnation of it per call).
    ///
    /// Returns `e.old` if the installation took place (possibly already
    /// reverted because the status was decided), or the conflicting value
    /// otherwise. Never returns an RDCSS tag. When it returns, no tag of
    /// this RDCSS incarnation is left in any word, so the next call may
    /// reuse the descriptor.
    fn rdcss(&self, mine: &Mine, op: &Op<'_>, e: &Entry) -> u64 {
        let r = &mine.slot.rdcss;
        let seq = desc::next_seq(r.seq.load(Ordering::Relaxed));
        // Seqlock write: sequence first, then the released fields.
        r.seq.store(seq, Ordering::Relaxed);
        r.old.store(e.old, Ordering::Release);
        r.casn.store(op.tag, Ordering::Release);
        let rtag = desc::tag(mine.index, seq, RDCSS_TAG);
        let w = e.word();
        let mut backoff = Backoff::new();
        loop {
            match w.raw_compare_exchange(e.old, rtag, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => {
                    Self::rdcss_complete(w, rtag, op.status, op.undecided, op.tag, e.old);
                    return e.old;
                }
                Err(seen) if is_rdcss(seen) => {
                    // Help the conflicting RDCSS finish, then retry ours.
                    self.counters.inc_help();
                    // Not effect-free: earlier entries of our own
                    // operation may already be installed.
                    fault_point!(MidHelping, false);
                    let _ = Self::complete_rdcss(w, seen);
                    backoff.snooze();
                }
                Err(seen) => return seen,
            }
        }
    }

    /// Helps the CASN incarnation `tag` names, found in some word: reads
    /// its descriptor, validates the read against the sequence number
    /// and, if it is still that incarnation, drives it through both
    /// phases. On a mismatch the incarnation is over and its tag has
    /// left the word, so there is nothing to do.
    fn help_casn(&self, tag: u64) {
        let d = &desc::slot(desc::tag_slot(tag)).casn;
        let len = d.len.load(Ordering::Acquire).min(MAX_CASN_WORDS);
        let mut entries = [Entry::VACANT; MAX_CASN_WORDS];
        for (e, f) in entries.iter_mut().zip(&d.entries[..len]) {
            *e = Entry {
                word: f.word.load(Ordering::Acquire),
                old: f.old.load(Ordering::Acquire),
                new: f.new.load(Ordering::Acquire),
            };
        }
        // Seqlock read: the status carries the sequence number.
        let st = d.status.load(Ordering::SeqCst);
        #[cfg(test)]
        let skip_check = self.skip_seq_check;
        #[cfg(not(test))]
        let skip_check = false;
        if desc::status_seq(st) != desc::tag_seq(tag) && !skip_check {
            return;
        }
        let op = Op {
            tag,
            status: &d.status,
            undecided: desc::undecided_of(st),
            entries: &entries[..len],
        };
        // One hazard slot, re-announced for each target word in turn.
        #[cfg(test)]
        let announce = <R::Guard as ReclaimGuard>::NEEDS_PROTECT && !self.skip_helper_hazard;
        #[cfg(not(test))]
        let announce = <R::Guard as ReclaimGuard>::NEEDS_PROTECT;
        let window = announce.then(R::pin);
        desc::with_mine(|mine| self.casn_run(mine, &op, Driver::Helper { window: window.as_ref() }));
    }

    /// Drives `op` to completion (both phases) and returns whether it
    /// succeeded. Reentrant: called both by the owner and by helpers.
    ///
    /// The owner starts phase 1 at entry 1, its fast path having
    /// installed entry 0; helpers start at entry 0. Phase 2 resolves
    /// *all* entries regardless, and closes the incarnation (module
    /// docs, "The owner's phase 2 closes the incarnation").
    ///
    /// A helper's install is the one write that expects a payload rather
    /// than a tag, so it is the one a helper must not make into a freed
    /// node: under hazard pointers the helper announces the target word
    /// first and then sees the operation still undecided, so the owner's
    /// announcement still covered the word when the helper's own took
    /// over (module docs, "Tagging and reclamation").
    fn casn_run(&self, mine: &Mine, op: &Op<'_>, driver: Driver<'_, R::Guard>) -> bool {
        if op.status.load(Ordering::SeqCst) == op.undecided {
            let mut state = SUCCEEDED;
            let mut backoff = Backoff::new();
            let skip = match driver {
                Driver::Owner => 1,
                Driver::Helper { .. } => 0,
            };
            'install: for e in &op.entries[skip..] {
                if let Driver::Helper { window } = driver {
                    if let Some(g) = window {
                        g.protect(0, e.word as u64);
                        if op.status.load(Ordering::SeqCst) != op.undecided {
                            // Decided meanwhile: nothing left to install,
                            // and the decision CAS below fails.
                            break 'install;
                        }
                    }
                    // A helper about to install another thread's entry.
                    // Not effect-free: it may be helping from inside its
                    // own published operation.
                    fault_point!(MidHelping, false);
                }
                loop {
                    let val = self.rdcss(mine, op, e);
                    if val == op.tag || val == e.old {
                        // Our tag is (or was, before the status got
                        // decided) installed in this word.
                        break;
                    }
                    if is_casn(val) {
                        // A different CASN holds this word: help it first,
                        // then back off before re-contending the line.
                        self.counters.inc_help();
                        // Not effect-free: this may be our own operation
                        // with earlier entries already installed.
                        fault_point!(MidHelping, false);
                        self.help_casn(val);
                        backoff.snooze();
                        continue;
                    }
                    state = FAILED;
                    break 'install;
                }
            }
            let _ = op.status.compare_exchange(
                op.undecided,
                op.undecided | state,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        let succeeded = op.status.load(Ordering::SeqCst) == op.undecided | SUCCEEDED;
        for e in op.entries {
            let resolved = if succeeded { e.new } else { e.old };
            let w = e.word();
            loop {
                match w.raw_compare_exchange(op.tag, resolved, Ordering::SeqCst, Ordering::SeqCst) {
                    // An RDCSS that installs this incarnation (the status
                    // is decided, so completing it writes its old value
                    // back), or one that finished meanwhile: look again.
                    Err(seen) if is_rdcss(seen) => match Self::complete_rdcss(w, seen) {
                        Some(casn) if casn != op.tag => break,
                        _ => {}
                    },
                    _ => break,
                }
            }
        }
        succeeded
    }

    /// Helps the in-flight operation a tagged word value belongs to
    /// (RDCSS completion or CASN help), after giving its owner a moment
    /// to finish it. Returns `false` when `v` is a plain payload, i.e.
    /// there was nothing to help. A `true` return means the caller must
    /// re-read the word.
    ///
    /// Only for callers whose own operation is still effect-free — the
    /// fault point here asserts as much.
    fn help_tagged(&self, w: &DcasWord, v: u64) -> bool {
        if !is_rdcss(v) && !is_casn(v) {
            return false;
        }
        let mut patience = Backoff::new();
        for _ in 0..HELP_PATIENCE {
            patience.spin();
            if w.raw_load(Ordering::SeqCst) != v {
                return true;
            }
        }
        self.counters.inc_help();
        // Effect-free: the caller owns nothing published; unwinding here
        // loses no state.
        fault_point!(MidHelping, true);
        if is_rdcss(v) {
            let _ = Self::complete_rdcss(w, v);
        } else {
            self.help_casn(v);
        }
        true
    }

    /// Descriptor-aware atomic read. Helps any operation found in-flight
    /// at `w` until a plain payload value is visible.
    fn read(&self, w: &DcasWord) -> u64 {
        let mut backoff = Backoff::new();
        loop {
            let v = w.raw_load(Ordering::SeqCst);
            if !self.help_tagged(w, v) {
                return v;
            }
            backoff.snooze();
        }
    }

    /// The descriptor slow path shared by `dcas` and the `dcas_strong`
    /// snapshot: prepares the thread's descriptor and runs both CASN
    /// phases. No preliminary mismatch check — callers have already read
    /// the pair.
    #[allow(clippy::too_many_arguments)]
    fn dcas_publish(
        &self,
        g: &R::Guard,
        a1: &DcasWord,
        a2: &DcasWord,
        o1: u64,
        o2: u64,
        n1: u64,
        n2: u64,
    ) -> bool {
        // Entries sorted by address so concurrent DCAS operations help one
        // another in a consistent order.
        let entries = if a1.addr() < a2.addr() {
            [Entry::of(a1, o1, n1), Entry::of(a2, o2, n2)]
        } else {
            [Entry::of(a2, o2, n2), Entry::of(a1, o1, n1)]
        };
        desc::with_mine(|mine| {
            let op = self.prepare(mine, &entries);
            self.publish(g, mine, &op)
        })
    }

    /// Publishes a prepared incarnation, drives both CASN phases, and
    /// returns whether it succeeded. Shared tail of `dcas_publish` and
    /// `casn`.
    ///
    /// Entry 0 is installed by one plain CAS while the incarnation is
    /// still private (the owner fast path, module docs); a plain-value
    /// mismatch there fails the operation with the incarnation never
    /// published.
    ///
    /// The owner announces its own descriptor slot in hazard slot 0 (with
    /// target-word expansion) for the whole operation, so the scanner
    /// protects its target words for as long as its tag can be found —
    /// also while this thread is frozen anywhere in here.
    fn publish(&self, g: &R::Guard, mine: &Mine, op: &Op<'_>) -> bool {
        g.protect(0, (mine.index as u64) << 2 | EXPAND_DESC);
        // Effect-free: the incarnation is still private — nobody has its
        // tag, and the next operation simply starts a new one. (A freeze
        // here holds the slot-0 announcement, which is the point.)
        fault_point!(PreInstall, true);
        let e0 = &op.entries[0];
        let w0 = e0.word();
        let mut backoff = Backoff::new();
        loop {
            match w0.raw_compare_exchange(e0.old, op.tag, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                // Effect-free helping: our incarnation is still private
                // (the fast install did not land).
                Err(seen) if self.help_tagged(w0, seen) => {}
                Err(_) => {
                    // Plain value mismatch: the operation fails without
                    // the incarnation ever having been published.
                    fault_point!(PreRelease, true);
                    g.clear(0);
                    return false;
                }
            }
            backoff.snooze();
        }

        // Entry 0 installed by the CAS above while the status was
        // undecided.
        let ok = self.casn_run(mine, op, Driver::Owner);
        // Effect-free only if the operation failed: on success the writes
        // are committed and the caller owns their outcome, so a panic here
        // would lose it (a freeze is fine — the thread resumes and returns
        // normally).
        fault_point!(PreRelease, !ok);
        g.clear(0);
        ok
    }

    /// Uncounted `dcas` body (also the forward arm of `dcas_strong`).
    fn dcas_inner(&self, a1: &DcasWord, a2: &DcasWord, o1: u64, o2: u64, n1: u64, n2: u64) -> bool {
        let g = R::pin();

        // Fast path: a preliminary atomic read that observes a mismatch is
        // a legal linearization of a failed DCAS and does not touch the
        // descriptor. The `||` short-circuits, covering both orderings: a
        // first-word mismatch never touches the second.
        if self.read(a1) != o1 || self.read(a2) != o2 {
            return false;
        }

        self.dcas_publish(&g, a1, a2, o1, o2, n1, n2)
    }

    /// One snapshot attempt for `dcas_strong`: under a single guard, reads
    /// the pair and certifies the observed values with an identity DCAS.
    /// Returns the certified atomic view, or `None` if another thread's
    /// successful operation invalidated it mid-certification.
    fn snapshot(&self, a1: &DcasWord, a2: &DcasWord) -> Option<(u64, u64)> {
        let g = R::pin();
        let v1 = self.read(a1);
        let v2 = self.read(a2);
        if self.dcas_publish(&g, a1, a2, v1, v2, v1, v2) {
            Some((v1, v2))
        } else {
            None
        }
    }
}

impl<R: Reclaimer> DcasStrategy for HarrisMcas<R> {
    type Reclaimer = R;
    const IS_LOCK_FREE: bool = true;
    const HAS_CHEAP_STRONG: bool = false;
    const NAME: &'static str = R::MCAS_NAME;

    #[inline]
    fn load(&self, w: &DcasWord) -> u64 {
        self.counters.inc_op();
        let _g = R::pin();
        self.read(w)
    }

    fn store(&self, w: &DcasWord, v: u64) {
        debug_assert!(crate::is_valid_payload(v));
        self.counters.inc_op();
        let _g = R::pin();
        let mut backoff = Backoff::new();
        loop {
            let cur = self.read(w);
            if w.raw_compare_exchange(cur, v, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
            backoff.snooze();
        }
    }

    fn cas(&self, w: &DcasWord, old: u64, new: u64) -> bool {
        debug_assert!(crate::is_valid_payload(old) && crate::is_valid_payload(new));
        self.counters.inc_op();
        let _g = R::pin();
        let mut backoff = Backoff::new();
        loop {
            match w.raw_compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                // Effect-free helping: our CAS has not landed.
                Err(seen) if self.help_tagged(w, seen) => {}
                Err(_) => return false,
            }
            backoff.snooze();
        }
    }

    fn dcas(&self, a1: &DcasWord, a2: &DcasWord, o1: u64, o2: u64, n1: u64, n2: u64) -> bool {
        validate_args(a1, a2, &[o1, o2, n1, n2]);
        self.counters.inc_op();
        self.counters.inc_dcas();
        let ok = self.dcas_inner(a1, a2, o1, o2, n1, n2);
        if !ok {
            self.counters.inc_dcas_failure();
        }
        ok
    }

    fn dcas_strong(
        &self,
        a1: &DcasWord,
        a2: &DcasWord,
        o1: &mut u64,
        o2: &mut u64,
        n1: u64,
        n2: u64,
    ) -> bool {
        // The paper's own trick (Figure 2, lines 8-9): an identity DCAS
        // that succeeds yields an atomic snapshot of the pair. On failure
        // of the real DCAS we loop snapshotting until we either obtain a
        // consistent view to report or discover the expected values are
        // back (in which case the outer swap is retried). Lock-free: every
        // inner retry is caused by another operation's successful DCAS.
        //
        // The forward attempt's preliminary read short-circuits on the
        // first mismatching word (both orderings), so a doomed attempt
        // prepares no descriptor at all; the identity snapshots reuse the
        // thread's descriptor, so the whole failure path is
        // allocation-free.
        self.counters.inc_op();
        self.counters.inc_dcas();
        let mut backoff = Backoff::new();
        loop {
            if self.dcas_inner(a1, a2, *o1, *o2, n1, n2) {
                return true;
            }
            loop {
                match self.snapshot(a1, a2) {
                    Some((v1, v2)) if v1 == *o1 && v2 == *o2 => {
                        // The expected pair is observable again; retry the
                        // swap.
                        break;
                    }
                    Some((v1, v2)) => {
                        *o1 = v1;
                        *o2 = v2;
                        self.counters.inc_dcas_failure();
                        return false;
                    }
                    None => {
                        // Lost the certification race to another writer.
                        backoff.snooze();
                    }
                }
            }
            backoff.snooze();
        }
    }

    fn casn(&self, entries: &mut [CasnEntry<'_>]) -> bool {
        validate_casn(entries);
        self.counters.inc_op();
        self.counters.inc_casn();
        let g = R::pin();

        // Preliminary read fast path, as in `dcas_inner`: a mismatch seen
        // by an atomic read is a legal linearization of the failed CASN
        // and never touches the descriptor.
        for e in entries.iter() {
            if self.read(e.word) != e.old {
                self.counters.inc_casn_failure();
                return false;
            }
        }

        // Sort by address so concurrent CASNs over overlapping word sets
        // help one another in a consistent order (same argument as the
        // two-entry case, extended to n).
        entries.sort_unstable_by_key(|e| e.word.addr());
        let mut sorted = [Entry::VACANT; MAX_CASN_WORDS];
        for (s, e) in sorted.iter_mut().zip(entries.iter()) {
            *s = Entry::of(e.word, e.old, e.new);
        }
        let ok = desc::with_mine(|mine| {
            let op = self.prepare(mine, &sorted[..entries.len()]);
            self.publish(&g, mine, &op)
        });
        if !ok {
            self.counters.inc_casn_failure();
        }
        ok
    }
}

/// [`HarrisMcas`] over the hazard-pointer backend
/// ([`HazardReclaimer`]): identical protocol and semantics, but retired
/// garbage — the deque crates' nodes — stays under the static bound
/// `reclaim::hazard::static_garbage_bound()` even while threads are
/// frozen mid-operation, where the epoch default grows without bound.
/// Reports [`DcasStrategy::NAME`] `"harris-mcas-hazard"`.
pub type HarrisMcasHazard = HarrisMcas<HazardReclaimer>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_success_and_failure() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        assert!(s.dcas(&a, &b, 0, 4, 8, 12));
        assert_eq!((s.load(&a), s.load(&b)), (8, 12));
        assert!(!s.dcas(&a, &b, 0, 4, 16, 16));
        assert_eq!((s.load(&a), s.load(&b)), (8, 12));
        let (mut o1, mut o2) = (0, 0);
        assert!(!s.dcas_strong(&a, &b, &mut o1, &mut o2, 16, 16));
        assert_eq!((o1, o2), (8, 12));
    }

    #[test]
    fn identity_dcas_succeeds_and_changes_nothing() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(40);
        let b = DcasWord::new(80);
        assert!(s.dcas(&a, &b, 40, 80, 40, 80));
        assert_eq!((s.load(&a), s.load(&b)), (40, 80));
    }

    #[test]
    fn address_order_is_input_order_independent() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(0);
        let b = DcasWord::new(0);
        assert!(s.dcas(&b, &a, 0, 0, 4, 8));
        assert_eq!((s.load(&b), s.load(&a)), (4, 8));
    }

    #[test]
    fn strong_form_snapshot_on_failure() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(100);
        let b = DcasWord::new(200);
        let (mut o1, mut o2) = (0, 0);
        assert!(!s.dcas_strong(&a, &b, &mut o1, &mut o2, 4, 4));
        assert_eq!((o1, o2), (100, 200));
        assert!(s.dcas_strong(&a, &b, &mut o1, &mut o2, 4, 8));
        assert_eq!((s.load(&a), s.load(&b)), (4, 8));
    }

    #[test]
    fn store_clobbers_any_value() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(4);
        s.store(&a, 12);
        assert_eq!(s.load(&a), 12);
    }

    fn conservation_under_transfers<R: Reclaimer>(
        s: Arc<HarrisMcas<R>>,
        threads: u64,
        iters: u64,
    ) {
        // Two words whose sum is invariant under transfer DCASes; a torn
        // or non-atomic DCAS would break conservation.
        let words = Arc::new((DcasWord::new(1 << 20), DcasWord::new(1 << 20)));
        let total = (1u64 << 20) * 2;
        let mut handles = vec![];
        for t in 0..threads {
            let (s, words) = (s.clone(), words.clone());
            handles.push(std::thread::spawn(move || {
                for i in 0..iters {
                    loop {
                        let v1 = s.load(&words.0);
                        let v2 = s.load(&words.1);
                        let delta = 4 * ((i + t) % 64);
                        if v1 < delta {
                            break;
                        }
                        if s.dcas(&words.0, &words.1, v1, v2, v1 - delta, v2 + delta) {
                            break;
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.load(&words.0) + s.load(&words.1), total);
    }

    #[test]
    fn concurrent_counters_preserve_sum() {
        conservation_under_transfers(Arc::new(HarrisMcas::new()), 8, 20_000);
    }

    #[test]
    fn overlapping_pairs_stress() {
        // Three words, threads DCAS random adjacent pairs; checks the sum
        // invariant across overlapping DCAS pairs (the helping path).
        let s = Arc::new(HarrisMcas::new());
        let words: Arc<Vec<DcasWord>> =
            Arc::new((0..3).map(|_| DcasWord::new(1 << 16)).collect());
        let total = (1u64 << 16) * 3;
        let mut handles = vec![];
        for t in 0..6u64 {
            let (s, words) = (s.clone(), words.clone());
            handles.push(std::thread::spawn(move || {
                let mut x = t + 1;
                for _ in 0..30_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let i = (x >> 33) as usize % 2; // pair (i, i+1): overlaps on word 1
                    let v1 = s.load(&words[i]);
                    let v2 = s.load(&words[i + 1]);
                    if v1 >= 4 {
                        let _ = s.dcas(&words[i], &words[i + 1], v1, v2, v1 - 4, v2 + 4);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let sum: u64 = (0..3).map(|i| s.load(&words[i])).sum();
        assert_eq!(sum, total);
    }

    #[test]
    fn a_thread_reuses_one_descriptor_across_instances() {
        // Every operation of a thread rewrites the same descriptor slot,
        // whichever strategy instance runs it, under a new sequence
        // number each time.
        std::thread::spawn(|| {
            let (s1, s2) = (HarrisMcas::new(), HarrisMcasHazard::default());
            let a = DcasWord::new(0);
            let b = DcasWord::new(4);
            let slot = desc::my_index();
            let seq = || {
                desc::status_seq(desc::slot(slot).casn.status.load(Ordering::Relaxed))
            };
            let before = seq();
            for i in 0..50u64 {
                assert!(s1.dcas(&a, &b, i * 16, i * 16 + 4, i * 16 + 8, i * 16 + 12));
                assert!(s2.dcas(&a, &b, i * 16 + 8, i * 16 + 12, i * 16 + 16, i * 16 + 20));
            }
            assert_eq!(desc::my_index(), slot);
            assert_eq!(seq(), before + 100, "one incarnation per published operation");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn reclaim_hazard_mcas_basic_semantics() {
        let s = HarrisMcasHazard::default();
        assert_eq!(<HarrisMcasHazard as DcasStrategy>::NAME, "harris-mcas-hazard");
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        assert!(s.dcas(&a, &b, 0, 4, 8, 12));
        assert_eq!((s.load(&a), s.load(&b)), (8, 12));
        assert!(!s.dcas(&a, &b, 0, 4, 16, 16));
        let (mut o1, mut o2) = (0, 0);
        assert!(!s.dcas_strong(&a, &b, &mut o1, &mut o2, 16, 16));
        assert_eq!((o1, o2), (8, 12));
        let c = DcasWord::new(16);
        let mut entries = [
            CasnEntry::new(&a, 8, 20),
            CasnEntry::new(&b, 12, 24),
            CasnEntry::new(&c, 16, 28),
        ];
        assert!(s.casn(&mut entries));
        assert_eq!((s.load(&a), s.load(&b), s.load(&c)), (20, 24, 28));
        s.store(&a, 4);
        assert!(s.cas(&a, 4, 8));
        assert_eq!(s.load(&a), 8);
    }

    #[test]
    fn reclaim_hazard_mcas_concurrent_counters_preserve_sum() {
        // The conservation stress on the hazard arm: exercises helping
        // and descriptor reuse with the owner's expanded announcement
        // under real contention.
        conservation_under_transfers(Arc::new(HarrisMcasHazard::default()), 4, 10_000);
    }

    #[test]
    fn reclaim_hazard_mcas_garbage_stays_bounded() {
        // After DCAS churn on the hazard arm, live garbage must respect
        // the static bound (the frozen-victim variant lives in
        // tests/reclaim_torture.rs); DCAS itself retires nothing.
        let s = HarrisMcasHazard::default();
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        for i in 0..2_000u64 {
            assert!(s.dcas(&a, &b, i * 8, i * 8 + 4, (i + 1) * 8, (i + 1) * 8 + 4));
        }
        let bound = crate::reclaim::hazard::static_garbage_bound();
        let live = HazardReclaimer::live_garbage();
        assert!(live <= bound, "hazard live garbage {live} exceeds static bound {bound}");
    }

    #[cfg(feature = "stats")]
    #[test]
    fn stats_count_ops_and_failures() {
        let s = HarrisMcas::new();
        let a = DcasWord::new(0);
        let b = DcasWord::new(4);
        assert!(s.dcas(&a, &b, 0, 4, 8, 12));
        assert!(!s.dcas(&a, &b, 0, 4, 16, 16));
        let st = s.stats();
        assert_eq!(st.dcas_ops, 2);
        assert_eq!(st.dcas_failures, 1);
        assert_eq!(st.ops, 2);
        assert_eq!((st.pair_hits, st.pair_fallbacks), (0, 0));
        // The failed dcas exited on the preliminary read: exactly one
        // descriptor use (the thread's first, or a reuse, depending on
        // which sibling test ran on this harness thread before).
        assert_eq!(st.descriptor_allocs + st.descriptor_reuses, 1);
    }

    /// Stale-helper regression. A helper reads the owner's CASN tag from
    /// a word and freezes at `MidHelping` before acting on it. The owner
    /// finishes that operation, reuses its descriptor on the same two
    /// words for a second one, and starts a third, which freezes at
    /// `PreInstall`: prepared in the reused descriptor, undecided, not
    /// yet published. Then the helper resumes. It must find the
    /// sequence number moved on and re-read the word, leaving both
    /// words at the owner's second values and failing its own DCAS
    /// (whose expected values were overwritten long ago). A helper that
    /// skipped the re-check would drive the unpublished third operation
    /// through under the stale tag instead.
    ///
    /// Returns the words after the helper finished, the helper's result,
    /// the words after the owner resumed, and the owner's third result.
    #[cfg(feature = "fault-inject")]
    fn stale_helper_round<R: Reclaimer>(skip_seq_check: bool) -> ([u64; 2], bool, [u64; 2], bool) {
        use crate::fault::{self, FaultPlan, FaultPoint, KillKind, StallGate};
        use std::sync::mpsc;
        use std::time::{Duration, Instant};

        let wait = |cond: &dyn Fn() -> bool, what: &str| {
            let start = Instant::now();
            while !cond() {
                assert!(start.elapsed() < Duration::from_secs(20), "{what} never happened");
                std::thread::yield_now();
            }
        };
        let s = Arc::new(HarrisMcas::<R> { skip_seq_check, ..Default::default() });
        // An array, so words[0] has the lower address and is entry 0.
        let words = Arc::new([DcasWord::new(0), DcasWord::new(4)]);
        let raw = |w: &[DcasWord; 2]| [0, 1].map(|i| w[i].raw_load(Ordering::SeqCst));

        let (owner_gate, helper_gate) = (StallGate::new(), StallGate::new());
        let (staged_tx, staged_rx) = mpsc::channel::<Arc<fault::FaultLog>>();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let owner = {
            let (s, words, gate) = (s.clone(), words.clone(), owner_gate.clone());
            std::thread::spawn(move || {
                // The second operation passes PreInstall, the third
                // freezes there.
                let plan = FaultPlan::new(1).kill(FaultPoint::PreInstall, 1, KillKind::Freeze(gate));
                let armed = fault::arm(&plan, 0);
                desc::with_mine(|mine| {
                    // First operation, (0, 4) -> (8, 12): published by the
                    // fast-path install of entry 0, then held there.
                    let entries = [Entry::of(&words[0], 0, 8), Entry::of(&words[1], 4, 12)];
                    let op = s.prepare(mine, &entries);
                    words[0].raw_store(op.tag, Ordering::SeqCst);
                    staged_tx.send(armed.log()).unwrap();
                    go_rx.recv().unwrap();
                    assert!(s.casn_run(mine, &op, Driver::Owner));
                });
                assert!(s.dcas(&words[0], &words[1], 8, 12, 16, 20));
                s.dcas(&words[0], &words[1], 16, 20, 24, 28)
            })
        };
        let owner_log = staged_rx.recv().unwrap();
        let helper = {
            let (s, words, gate) = (s.clone(), words.clone(), helper_gate.clone());
            let (log_tx, log_rx) = mpsc::channel();
            let h = std::thread::spawn(move || {
                let plan = FaultPlan::new(2).kill(FaultPoint::MidHelping, 0, KillKind::Freeze(gate));
                let armed = fault::arm(&plan, 1);
                log_tx.send(armed.log()).unwrap();
                // Its preliminary read meets the first operation's tag.
                s.dcas(&words[0], &words[1], 0, 4, 100, 104)
            });
            let log = log_rx.recv().unwrap();
            wait(&|| log.is_frozen(), "the helper's freeze");
            h
        };
        go_tx.send(()).unwrap();
        wait(&|| owner_log.is_frozen(), "the owner's freeze before its third operation");
        helper_gate.release();
        let helped = helper.join().unwrap();
        let after_helper = raw(&words);
        owner_gate.release();
        let third = owner.join().unwrap();
        (after_helper, helped, raw(&words), third)
    }

    #[cfg(feature = "fault-inject")]
    fn assert_stale_helper_is_harmless<R: Reclaimer>(skip_seq_check: bool) {
        let (after_helper, helped, after_owner, third) = stale_helper_round::<R>(skip_seq_check);
        assert_eq!(after_helper, [16, 20], "the stale helper changed the owner's second values");
        assert!(!helped, "the helper's DCAS succeeded on values it could not have seen");
        assert_eq!((after_owner, third), ([24, 28], true), "the owner's third DCAS went wrong");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn stale_helper_leaves_a_reused_descriptor_alone() {
        assert_stale_helper_is_harmless::<EpochReclaimer>(false);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn reclaim_hazard_stale_helper_leaves_a_reused_descriptor_alone() {
        assert_stale_helper_is_harmless::<HazardReclaimer>(false);
    }

    /// Freed-target regression. A helper validates the owner's
    /// operation and freezes at `MidHelping` just before it installs the
    /// second entry, whose word is the first word of a pool node. The
    /// owner finishes, and the test retires that node and flushes the
    /// backend. The node must stay allocated while the helper is frozen:
    /// its install expects a payload, which a freed and reused node could
    /// hold again. Under hazard pointers the helper's own announcement
    /// keeps it, under epochs the helper's pin.
    ///
    /// `pool` is the test's own, so its census counts only these two
    /// nodes. Returns whether the node survived the flush while the
    /// helper was frozen, whether it was freed once the helper finished,
    /// and the helper's DCAS result.
    #[cfg(feature = "fault-inject")]
    fn freed_target_round<R: Reclaimer>(
        pool: &'static crate::NodePool,
        skip_helper_hazard: bool,
    ) -> (bool, bool, bool) {
        use crate::fault::{self, FaultPlan, FaultPoint, KillKind, StallGate};
        use std::sync::mpsc;
        use std::time::{Duration, Instant};

        let s = Arc::new(HarrisMcas::<R> { skip_helper_hazard, ..Default::default() });
        // Two nodes, each a DcasWord in its first word; `hi` (the higher
        // address) is entry 1.
        let (a, b) = (pool.alloc() as usize, pool.alloc() as usize);
        let (lo, hi) = (a.min(b), a.max(b));
        let word = |n: usize| unsafe { &*(n as *const DcasWord) };
        word(lo).raw_store(0, Ordering::SeqCst);
        word(hi).raw_store(4, Ordering::SeqCst);
        let outstanding = || pool.nodes_outstanding();
        assert_eq!(outstanding(), 2);

        let gate = StallGate::new();
        let (staged_tx, staged_rx) = mpsc::channel::<()>();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let owner = {
            let s = s.clone();
            std::thread::spawn(move || {
                desc::with_mine(|mine| {
                    let entries = [Entry::of(word(lo), 0, 8), Entry::of(word(hi), 4, 12)];
                    let op = s.prepare(mine, &entries);
                    word(lo).raw_store(op.tag, Ordering::SeqCst);
                    staged_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    assert!(s.casn_run(mine, &op, Driver::Owner));
                });
            })
        };
        staged_rx.recv().unwrap();
        let (log_tx, log_rx) = mpsc::channel();
        let helper = {
            let (s, gate) = (s.clone(), gate.clone());
            std::thread::spawn(move || {
                // Hit 0 is the preliminary read meeting the tag, hit 1
                // the (redundant) install of entry 0, hit 2 entry 1's.
                let plan = FaultPlan::new(3).kill(FaultPoint::MidHelping, 2, KillKind::Freeze(gate));
                let armed = fault::arm(&plan, 1);
                log_tx.send(armed.log()).unwrap();
                s.dcas(word(lo), word(hi), 1000, 1004, 0, 0)
            })
        };
        let log = log_rx.recv().unwrap();
        let start = Instant::now();
        while !log.is_frozen() {
            assert!(start.elapsed() < Duration::from_secs(20), "the helper never froze");
            std::thread::yield_now();
        }
        go_tx.send(()).unwrap();
        owner.join().unwrap();
        assert_eq!(word(lo).raw_load(Ordering::SeqCst), 8);
        assert_eq!(word(hi).raw_load(Ordering::SeqCst), 12);

        // SAFETY: the node is unlinked from everything but the finished
        // operation's descriptor, and freed by its own pool.
        unsafe { R::pin().retire(hi as *mut u8, 16, crate::NodePool::dealloc) };
        for _ in 0..4 {
            R::flush();
        }
        let kept = outstanding() == 2;
        gate.release();
        let helped = helper.join().unwrap();
        let start = Instant::now();
        while outstanding() != 1 && start.elapsed() < Duration::from_secs(20) {
            R::flush();
            std::thread::yield_now();
        }
        let freed = outstanding() == 1;
        // SAFETY: no operation names `lo` any more.
        unsafe { crate::NodePool::dealloc(lo as *mut u8) };
        (kept, freed, helped)
    }

    #[cfg(feature = "fault-inject")]
    fn assert_frozen_helper_keeps_its_target<R: Reclaimer>(
        pool: &'static crate::NodePool,
        skip_helper_hazard: bool,
    ) {
        let (kept, freed, helped) = freed_target_round::<R>(pool, skip_helper_hazard);
        assert!(kept, "a node was freed while a frozen helper could still install into it");
        assert!(freed, "the node was not freed after the helper finished");
        assert!(!helped, "the helper's DCAS succeeded on values it never saw");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn frozen_helper_keeps_its_target_node() {
        static POOL: crate::NodePool = crate::NodePool::new("t-freed-target-epoch", 16, 16);
        assert_frozen_helper_keeps_its_target::<EpochReclaimer>(&POOL, false);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn reclaim_hazard_frozen_helper_keeps_its_target_node() {
        static POOL: crate::NodePool = crate::NodePool::new("t-freed-target-hazard", 16, 16);
        assert_frozen_helper_keeps_its_target::<HazardReclaimer>(&POOL, false);
    }

    /// Negative control: a helper that announces nothing before its
    /// install leaves the node to the flush, and the test above must
    /// catch it.
    #[cfg(feature = "fault-inject")]
    #[test]
    #[should_panic(expected = "a node was freed while a frozen helper could still install into it")]
    fn reclaim_hazard_helper_without_announcement_is_caught() {
        static POOL: crate::NodePool = crate::NodePool::new("t-freed-target-control", 16, 16);
        assert_frozen_helper_keeps_its_target::<HazardReclaimer>(&POOL, true);
    }

    /// Negative control: without the sequence re-check the stale helper
    /// adopts the reused descriptor's third operation, and the test
    /// above must catch it.
    #[cfg(feature = "fault-inject")]
    #[test]
    #[should_panic(expected = "the stale helper changed the owner's second values")]
    fn stale_helper_without_seq_check_is_caught() {
        assert_stale_helper_is_harmless::<EpochReclaimer>(true);
    }
}
