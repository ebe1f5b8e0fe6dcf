//! The strategy trait every DCAS emulation implements.

use crate::DcasWord;

/// Maximum number of target words a single [`DcasStrategy::casn`] may
/// cover. Sized for the deques' batch operations: a batch of up to
/// eight elements (the deque crate's `MAX_BATCH`) plus the index/link/
/// terminator words each algorithm adds.
pub const MAX_CASN_WORDS: usize = 12;

/// One target word of a multi-word CAS ([`DcasStrategy::casn`]).
#[derive(Clone, Copy)]
pub struct CasnEntry<'a> {
    /// The word to compare and (on success) swap.
    pub word: &'a DcasWord,
    /// Expected current value.
    pub old: u64,
    /// Replacement value written iff every entry's comparison holds.
    pub new: u64,
}

impl<'a> CasnEntry<'a> {
    /// Convenience constructor.
    #[inline]
    pub fn new(word: &'a DcasWord, old: u64, new: u64) -> Self {
        CasnEntry { word, old, new }
    }
}

/// A software (or, hypothetically, hardware) implementation of DCAS.
///
/// A strategy instance owns whatever auxiliary state its emulation needs
/// (locks, sequence words, an epoch collector). A data structure built on
/// DCAS holds one strategy instance and routes **every** access to its
/// shared words through it — including plain loads and stores — because
/// lock-free emulations may leave descriptor tags in words
/// mid-operation, and blocking emulations may require reads to synchronize
/// with in-flight writers.
///
/// # Semantics (Figure 1 of the paper)
///
/// `dcas(a1, a2, o1, o2, n1, n2)` atomically performs
///
/// ```text
/// if *a1 == o1 && *a2 == o2 { *a1 = n1; *a2 = n2; true } else { false }
/// ```
///
/// `dcas_strong` is the second form of Figure 1: on failure it stores the
/// values of `*a1`/`*a2` — read atomically as a pair, at the linearization
/// point of the failed DCAS — through the `o1`/`o2` slots.
///
/// # Contract
///
/// * `a1` and `a2` must be **distinct** words. Implementations
///   `debug_assert` this.
/// * All payload values must satisfy [`is_valid_payload`](crate::is_valid_payload).
/// * All operations are linearizable: every `load`, `store`, `dcas` and
///   `dcas_strong` appears to take effect atomically at some instant
///   between invocation and response.
///
/// # Unwinding
///
/// A strategy call that unwinds (panics) must guarantee the operation
/// had **no effect**: no target word was modified and no value
/// ownership was transferred, so an unwinding `dcas`/`casn` is
/// indistinguishable from one that returned `false`. The deques rely on
/// this to stay linearizable and leak-free under fault injection (the
/// `fault-inject` feature's `FaultInjecting` wrapper and the
/// `fault_point!` kill hooks honor it: panics are delivered only at
/// effect-free points).
pub trait DcasStrategy: Send + Sync + Default + 'static {
    /// The memory-reclamation backend this strategy retires through.
    /// Clients that retire their own blocks (the linked deques retire
    /// nodes) pin and retire via `Self::Reclaimer` so strategy and
    /// client garbage share one scheme — and one garbage gauge — per
    /// structure. Blocking strategies never retire anything and use the
    /// epoch backend purely as the (cheap) default.
    type Reclaimer: crate::reclaim::Reclaimer;

    /// `true` if the emulation is non-blocking (a stalled thread cannot
    /// prevent others from completing operations).
    const IS_LOCK_FREE: bool;

    /// `true` if [`dcas_strong`](Self::dcas_strong) costs essentially the
    /// same as [`dcas`](Self::dcas). Clients use this to gate optimizations
    /// that the paper says need only the strong form (array deque, Figure 2
    /// lines 17–18).
    const HAS_CHEAP_STRONG: bool;

    /// Short human-readable name, used by benches and test output.
    const NAME: &'static str;

    /// Atomically reads `w`.
    fn load(&self, w: &DcasWord) -> u64;

    /// Atomically writes `v` to `w`.
    ///
    /// Unconditional stores are intended for initialization and teardown
    /// paths; the deque algorithms themselves mutate shared words only via
    /// DCAS.
    fn store(&self, w: &DcasWord, v: u64);

    /// Single-word compare-and-swap, protocol-aware (a lock-free
    /// emulation helps any in-flight DCAS at `w` before deciding).
    ///
    /// Not used by the paper's deque algorithms themselves — they
    /// synchronize exclusively through DCAS — but needed by clients such
    /// as the lock-free reference-counting transformation, whose
    /// count adjustments are single-word CASes.
    fn cas(&self, w: &DcasWord, old: u64, new: u64) -> bool;

    /// The weak DCAS of Figure 1: returns whether the double comparison
    /// succeeded (and hence whether the two writes occurred).
    fn dcas(&self, a1: &DcasWord, a2: &DcasWord, o1: u64, o2: u64, n1: u64, n2: u64) -> bool;

    /// The strong DCAS of Figure 1: like [`dcas`](Self::dcas), but on
    /// failure stores an atomic snapshot of the two locations through
    /// `o1`/`o2`.
    fn dcas_strong(
        &self,
        a1: &DcasWord,
        a2: &DcasWord,
        o1: &mut u64,
        o2: &mut u64,
        n1: u64,
        n2: u64,
    ) -> bool;

    /// Multi-word CAS over `1..=MAX_CASN_WORDS` **distinct** words: iff
    /// every entry's comparison holds simultaneously, every new value is
    /// written, all at a single linearization point.
    ///
    /// This is the primitive behind the deques' batch operations: a
    /// *k*-element push/pop is one CASN over the end index (or sentinel
    /// link) plus the *k* affected cells. `dcas` remains the specialized
    /// two-word fast path; `casn` generalizes the same protocol.
    ///
    /// Implementations may **reorder the `entries` slice** (lock-free
    /// emulations sort by address to bound mutual helping); the values
    /// are not otherwise modified.
    ///
    /// # Panics
    ///
    /// Panics (in all build profiles) if `entries` is empty, exceeds
    /// [`MAX_CASN_WORDS`], or names the same word twice — a duplicated
    /// word would make the helping protocol self-conflict.
    fn casn(&self, entries: &mut [CasnEntry<'_>]) -> bool;
}

/// Debug-mode validation shared by strategy implementations.
#[inline]
pub(crate) fn validate_args(a1: &DcasWord, a2: &DcasWord, vals: &[u64]) {
    debug_assert_ne!(
        a1.addr(),
        a2.addr(),
        "DCAS requires two distinct memory words"
    );
    for &v in vals {
        debug_assert!(
            crate::is_valid_payload(v),
            "DCAS payload {v:#x} has reserved low bits set"
        );
    }
}

/// Validation shared by `casn` implementations. The entry-count bound
/// and pairwise distinctness are hard assertions: the descriptor
/// capacity is fixed, and a duplicated word would make the sorted
/// helping protocol install the same address twice and self-conflict
/// (livelock or corrupted resolution) with no diagnostic — and at
/// `MAX_CASN_WORDS` entries the O(n²) address scan is a handful of
/// compares. The payload check stays debug-only like [`validate_args`].
#[inline]
pub(crate) fn validate_casn(entries: &[CasnEntry<'_>]) {
    assert!(
        !entries.is_empty() && entries.len() <= MAX_CASN_WORDS,
        "CASN takes 1..={MAX_CASN_WORDS} entries, got {}",
        entries.len()
    );
    for (i, e) in entries.iter().enumerate() {
        debug_assert!(
            crate::is_valid_payload(e.old) && crate::is_valid_payload(e.new),
            "CASN payload has reserved low bits set"
        );
        for other in &entries[i + 1..] {
            assert_ne!(
                e.word.addr(),
                other.word.addr(),
                "CASN requires pairwise distinct memory words"
            );
        }
    }
}
