//! Feature-gated per-strategy operation counters.
//!
//! With the `stats` feature enabled, [`HarrisMcas`](crate::HarrisMcas)
//! (and any other strategy that opts in) counts operations, DCAS
//! failures, helping events, and descriptor pool traffic, exposed as a
//! [`StrategyStats`] snapshot. With the feature disabled every counter
//! method is an empty `#[inline]` body and the counter block is a
//! zero-sized struct, so the hot path pays nothing.
//!
//! The counters use `Relaxed` increments: they are monotonic telemetry,
//! not synchronization, and a torn *view* across fields is acceptable
//! (a snapshot taken while threads run is approximate by nature).
//!
//! # Layout: striped, cache-line-padded lines
//!
//! A naive counter block is a single cache line that every thread's
//! every hot-path op RMWs — enabling stats would *add* a globally
//! contended line to the very operations being measured. The block is
//! therefore a [`Striped`](crate::stripe::Striped) block of
//! cache-line-padded lines; each thread writes only its own stripe's
//! line, so threads on different stripes never share a counter cache
//! line. [`Counters::snapshot`] sums across stripes. One line (eight
//! `u64`s) fits a single 128-byte padded slot, so the whole block is
//! [`STRIPES`](crate::stripe::STRIPES) lines regardless of how many
//! counters exist.

#[cfg(feature = "stats")]
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(feature = "stats")]
use crate::stripe::Striped;

/// Point-in-time snapshot of a strategy's counters.
///
/// All fields are zero when the `stats` feature is disabled, so callers
/// (benches, diagnostics) can be written unconditionally.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StrategyStats {
    /// Public operations started (`load` + `store` + `cas` + `dcas` +
    /// `dcas_strong`).
    pub ops: u64,
    /// `dcas`/`dcas_strong` invocations.
    pub dcas_ops: u64,
    /// `dcas`/`dcas_strong` invocations that returned `false`.
    pub dcas_failures: u64,
    /// Always 0; kept only for e2ebench's `dcas.pair_hit_rate` until a
    /// benchmark change retires it.
    pub pair_hits: u64,
    /// Always 0; kept only for e2ebench's `dcas.pair_hit_rate` until a
    /// benchmark change retires it.
    pub pair_fallbacks: u64,
    /// Times this strategy helped another thread's in-flight operation
    /// (RDCSS completion or CASN help on a foreign descriptor).
    pub helps: u64,
    /// Descriptors taken from the pool freelist (recycled).
    pub descriptor_reuses: u64,
    /// Descriptors created with a fresh heap allocation (pool miss).
    pub descriptor_allocs: u64,
    /// Multi-word `casn` invocations (the batch-operation primitive).
    pub casn_ops: u64,
    /// `casn` invocations that returned `false`.
    pub casn_failures: u64,
    /// Descriptors quarantined because their owning thread was killed
    /// mid-operation (see [`orphan_count`](crate::orphan_count)).
    /// Process-global — like the thread-local descriptor pools it
    /// audits — and reported regardless of the `stats` feature, since
    /// it tracks a correctness-relevant event, not hot-path telemetry.
    pub descriptor_orphans: u64,
    /// Descriptors currently checked out to operations (or aging through
    /// a reclamation grace period / hazard drain). A snapshot-time gauge
    /// read from the process-global pool accounting
    /// ([`live_descriptors`](crate::live_descriptors)), reported
    /// regardless of the `stats` feature.
    pub live_descriptors: u64,
    /// Blocks retired through this strategy's reclamation backend and
    /// not yet freed (descriptors and client nodes alike). Snapshot-time
    /// gauge, process-global per backend, reported regardless of the
    /// `stats` feature.
    pub retired_pending: u64,
    /// Upper bound on the high-water mark of
    /// [`retired_pending`](Self::retired_pending) since process start:
    /// the sum of per-thread peaks, which is at least the true
    /// process-wide peak and above it when threads peaked at different
    /// times; a dead thread's peak stays in the sum (see
    /// [`reclaim`](crate::reclaim), "Gauge readings"). It is the number
    /// the bounded-memory audit (`tests/reclaim_torture.rs`) compares
    /// against the hazard backend's static bound. Snapshot-time gauge,
    /// reported regardless of the `stats` feature.
    pub garbage_high_water: u64,
    /// Collection attempts that found the backend stuck (epoch: the
    /// global epoch could not advance while the local deferred queue was
    /// over threshold — the frozen-thread signature). `0` for backends
    /// without the failure mode. Snapshot-time gauge, reported
    /// regardless of the `stats` feature.
    pub stalled_collections: u64,
    /// Pages currently held by the node page pool
    /// ([`alloc`](crate::alloc)), summed over every registered pool.
    /// Pages are never unmapped (type stability), so this is also the
    /// pool-memory high-water mark. Snapshot-time gauge, process-global,
    /// reported regardless of the `stats` feature.
    pub pool_pages: u64,
    /// Pool node slots handed out and not yet returned (allocs minus
    /// frees across every pool). Snapshot-time gauge, process-global,
    /// reported regardless of the `stats` feature.
    pub pool_nodes_outstanding: u64,
    /// Node frees that landed on a foreign page's MPSC return stack
    /// (the popper retired a node the pusher's thread allocated).
    /// Monotonic, process-global, reported regardless of the `stats`
    /// feature.
    pub pool_remote_frees: u64,
}

impl StrategyStats {
    /// Fraction of descriptor acquisitions served by the freelist, in
    /// `[0, 1]`; `1.0` means the steady state allocates nothing. `None`
    /// when no descriptor was ever acquired.
    pub fn reuse_rate(&self) -> Option<f64> {
        let total = self.descriptor_reuses + self.descriptor_allocs;
        (total != 0).then(|| self.descriptor_reuses as f64 / total as f64)
    }

    /// Fraction of failed DCAS invocations, in `[0, 1]`; `None` when no
    /// DCAS ran.
    pub fn failure_rate(&self) -> Option<f64> {
        (self.dcas_ops != 0).then(|| self.dcas_failures as f64 / self.dcas_ops as f64)
    }

    /// Name/value pairs for every counter, in declaration order — the
    /// stable iteration surface for exporters (e.g. `crates/obs`'
    /// metrics registry), so adding a counter here automatically reaches
    /// every report format.
    pub fn fields(&self) -> [(&'static str, u64); 16] {
        [
            ("ops", self.ops),
            ("dcas_ops", self.dcas_ops),
            ("dcas_failures", self.dcas_failures),
            ("helps", self.helps),
            ("descriptor_reuses", self.descriptor_reuses),
            ("descriptor_allocs", self.descriptor_allocs),
            ("casn_ops", self.casn_ops),
            ("casn_failures", self.casn_failures),
            ("descriptor_orphans", self.descriptor_orphans),
            ("live_descriptors", self.live_descriptors),
            ("retired_pending", self.retired_pending),
            ("garbage_high_water", self.garbage_high_water),
            ("stalled_collections", self.stalled_collections),
            ("pool_pages", self.pool_pages),
            ("pool_nodes_outstanding", self.pool_nodes_outstanding),
            ("pool_remote_frees", self.pool_remote_frees),
        ]
    }

    /// Field-wise difference (`self - earlier`), for measuring a phase.
    ///
    /// The gauge fields (`live_descriptors`, `retired_pending`,
    /// `garbage_high_water`, `stalled_collections`) are not monotonic
    /// deltas like the counters, so their difference saturates at zero
    /// rather than wrapping when the later snapshot is smaller.
    pub fn since(&self, earlier: &StrategyStats) -> StrategyStats {
        StrategyStats {
            ops: self.ops - earlier.ops,
            dcas_ops: self.dcas_ops - earlier.dcas_ops,
            dcas_failures: self.dcas_failures - earlier.dcas_failures,
            pair_hits: self.pair_hits - earlier.pair_hits,
            pair_fallbacks: self.pair_fallbacks - earlier.pair_fallbacks,
            helps: self.helps - earlier.helps,
            descriptor_reuses: self.descriptor_reuses - earlier.descriptor_reuses,
            descriptor_allocs: self.descriptor_allocs - earlier.descriptor_allocs,
            casn_ops: self.casn_ops - earlier.casn_ops,
            casn_failures: self.casn_failures - earlier.casn_failures,
            descriptor_orphans: self.descriptor_orphans - earlier.descriptor_orphans,
            live_descriptors: self.live_descriptors.saturating_sub(earlier.live_descriptors),
            retired_pending: self.retired_pending.saturating_sub(earlier.retired_pending),
            garbage_high_water: self
                .garbage_high_water
                .saturating_sub(earlier.garbage_high_water),
            stalled_collections: self
                .stalled_collections
                .saturating_sub(earlier.stalled_collections),
            pool_pages: self.pool_pages.saturating_sub(earlier.pool_pages),
            pool_nodes_outstanding: self
                .pool_nodes_outstanding
                .saturating_sub(earlier.pool_nodes_outstanding),
            pool_remote_frees: self.pool_remote_frees - earlier.pool_remote_frees,
        }
    }
}

/// One stripe's worth of counters: eight adjacent `u64`s, deliberately
/// *within* a single padded line — only threads hashed to the same
/// stripe share it.
#[cfg(feature = "stats")]
#[derive(Debug, Default)]
struct CounterLine {
    ops: AtomicU64,
    dcas_ops: AtomicU64,
    dcas_failures: AtomicU64,
    helps: AtomicU64,
    descriptor_reuses: AtomicU64,
    descriptor_allocs: AtomicU64,
    casn_ops: AtomicU64,
    casn_failures: AtomicU64,
}

/// Internal counter block embedded in a strategy. Zero-sized (and all
/// methods no-ops) unless the `stats` feature is on; with it, a striped
/// array of cache-line-padded counter lines (module docs).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    #[cfg(feature = "stats")]
    stripes: Striped<CounterLine>,
}

macro_rules! counter_inc {
    ($(#[$doc:meta] $inc:ident => $field:ident;)*) => {$(
        #[$doc]
        #[inline]
        pub(crate) fn $inc(&self) {
            #[cfg(feature = "stats")]
            self.stripes.mine().$field.fetch_add(1, Ordering::Relaxed);
        }
    )*};
}

impl Counters {
    counter_inc! {
        /// One public operation started.
        inc_op => ops;
        /// One `dcas`/`dcas_strong` invocation.
        inc_dcas => dcas_ops;
        /// One failed `dcas`/`dcas_strong`.
        inc_dcas_failure => dcas_failures;
        /// Helped a foreign in-flight operation.
        inc_help => helps;
        /// Descriptor served from the pool freelist.
        inc_descriptor_reuse => descriptor_reuses;
        /// Descriptor freshly heap-allocated.
        inc_descriptor_alloc => descriptor_allocs;
        /// One multi-word `casn` invocation.
        inc_casn => casn_ops;
        /// One failed `casn`.
        inc_casn_failure => casn_failures;
    }

    /// Snapshot (all-zero without the `stats` feature): the per-stripe
    /// lines summed field-wise.
    pub(crate) fn snapshot(&self) -> StrategyStats {
        #[cfg(feature = "stats")]
        {
            let mut s = StrategyStats::default();
            for line in self.stripes.lines() {
                s.ops += line.ops.load(Ordering::Relaxed);
                s.dcas_ops += line.dcas_ops.load(Ordering::Relaxed);
                s.dcas_failures += line.dcas_failures.load(Ordering::Relaxed);
                s.helps += line.helps.load(Ordering::Relaxed);
                s.descriptor_reuses += line.descriptor_reuses.load(Ordering::Relaxed);
                s.descriptor_allocs += line.descriptor_allocs.load(Ordering::Relaxed);
                s.casn_ops += line.casn_ops.load(Ordering::Relaxed);
                s.casn_failures += line.casn_failures.load(Ordering::Relaxed);
            }
            // descriptor_orphans is global, not per-counter-block: filled
            // in by the strategies that own pooled descriptors
            // (`HarrisMcas`).
            s
        }
        #[cfg(not(feature = "stats"))]
        StrategyStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "stats")]
    use crate::stripe::STRIPES;

    #[test]
    fn snapshot_roundtrip() {
        let c = Counters::default();
        c.inc_op();
        c.inc_dcas();
        c.inc_dcas_failure();
        c.inc_help();
        c.inc_descriptor_reuse();
        c.inc_descriptor_reuse();
        c.inc_descriptor_alloc();
        let s = c.snapshot();
        #[cfg(feature = "stats")]
        {
            assert_eq!(s.ops, 1);
            assert_eq!(s.dcas_ops, 1);
            assert_eq!(s.dcas_failures, 1);
            assert_eq!(s.helps, 1);
            assert_eq!(s.descriptor_reuses, 2);
            assert_eq!(s.descriptor_allocs, 1);
            assert_eq!(s.reuse_rate(), Some(2.0 / 3.0));
            assert_eq!(s.failure_rate(), Some(1.0));
            let d = s.since(&StrategyStats { descriptor_reuses: 1, ..Default::default() });
            assert_eq!(d.descriptor_reuses, 1);
        }
        #[cfg(not(feature = "stats"))]
        {
            assert_eq!(s, StrategyStats::default());
            assert_eq!(s.reuse_rate(), None);
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn stripes_sum_across_threads() {
        // Increments from many threads land on (up to) as many stripes;
        // the snapshot must see every one exactly once.
        use std::sync::Arc;
        let c = Arc::new(Counters::default());
        let mut handles = vec![];
        for _ in 0..2 * STRIPES {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc_op();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.snapshot().ops, 2 * STRIPES as u64 * 1000);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn counter_lines_are_padded_and_single_line() {
        // Each stripe occupies its own 128-byte slot (no false sharing
        // between stripes), and one line's counters all fit within it.
        assert!(std::mem::size_of::<CounterLine>() <= 128);
        assert_eq!(std::mem::size_of::<Counters>(), STRIPES * 128);
    }
}
