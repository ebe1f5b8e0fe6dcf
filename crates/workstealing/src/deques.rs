//! The work-deque abstraction and its implementations.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use dcas::HarrisMcas;
use dcas_baselines::{AbpDeque, MutexDeque, Steal};
use dcas_deque::value::{Boxed, WordValue};
use dcas_deque::{ArrayDeque, ConcurrentDeque, ListDeque, MAX_BATCH};

use crate::chaselev::{ChaseLev, Steal as ClSteal};
use crate::scheduler::Task;

/// Result of a steal attempt.
pub enum StealOutcome {
    /// The victim's deque was observed empty.
    Empty,
    /// Lost a race; try another victim.
    Retry,
    /// A task was stolen.
    Stolen(Task),
}

/// A per-worker deque of tasks. `push`/`pop` are called only by the
/// owning worker; `steal`/`steal_half` by anyone.
pub trait WorkDeque: Send + Sync + 'static {
    /// Creates a deque able to hold at least `capacity` tasks (bounded
    /// implementations may refuse pushes beyond it).
    fn with_capacity(capacity: usize) -> Self;
    /// Owner: pushes a task; returns it back if the deque is full (the
    /// caller then runs it inline).
    fn push(&self, t: Task) -> Result<(), Task>;
    /// Owner: pops the most recently pushed task (LIFO, for locality).
    fn pop(&self) -> Option<Task>;
    /// Thief: takes the oldest task (FIFO, largest work first).
    fn steal(&self) -> StealOutcome;
    /// Implementation name for reporting.
    fn name() -> &'static str;

    /// Thief: takes up to roughly **half** of the victim's tasks, oldest
    /// first, amortising the steal's synchronisation over several tasks
    /// (the "steal-half" policy of Hendler & Shavit's non-blocking
    /// steal-half work queues).
    ///
    /// Returns stolen tasks oldest-first; empty means nothing was taken
    /// (empty victim or lost race). The default degenerates to a single
    /// [`steal`](Self::steal); the batched deques override it with one
    /// chunk-atomic multi-pop.
    fn steal_half(&self) -> Vec<Task> {
        match self.steal() {
            StealOutcome::Stolen(t) => vec![t],
            _ => Vec::new(),
        }
    }

    /// Owner: pushes a batch of tasks in order, returning any rejected
    /// tail (bounded implementations at capacity; the caller runs those
    /// inline). Used by the scheduler to re-queue the surplus of a
    /// [`steal_half`](Self::steal_half).
    fn push_batch(&self, tasks: Vec<Task>) -> Vec<Task> {
        let mut it = tasks.into_iter();
        let mut rejected = Vec::new();
        while let Some(t) = it.next() {
            if let Err(t) = self.push(t) {
                rejected.push(t);
                rejected.extend(it);
                break;
            }
        }
        rejected
    }

    /// Owner: publishes any privately buffered tasks into steal-visible
    /// storage, returning the ones that could not be published (bounded
    /// shared level at capacity; the caller must run those itself).
    ///
    /// Flat deques have no private buffer, so the default is a no-op;
    /// [`TieredChaseLevWorkDeque`] overrides it. The scheduler calls
    /// this when a worker dies so the tasks in its private tier and
    /// staging buffer reach the shared level instead of stranding
    /// `pending` above zero.
    fn flush_local(&self) -> Vec<Task> {
        Vec::new()
    }

    /// Steal provenance since construction: `(tasks thieves took from
    /// the owner-private tier, tasks thieves took from the shared
    /// level)`. Flat deques have a single level and report zeros.
    fn tier_steals(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Best-effort size hint maintained *outside* the deque: the owner and
/// thieves bump it around their operations, so it lags reality by the
/// operations in flight. That is fine — `steal_half` only needs an
/// estimate to size its batch, and clamps to `1..=MAX_BATCH` anyway.
struct LenHint(AtomicUsize);

impl LenHint {
    fn new() -> Self {
        LenHint(AtomicUsize::new(0))
    }

    fn add(&self, n: usize) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn sub(&self, n: usize) {
        // Saturating: a racing pop may decrement before the matching
        // push's increment lands.
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(n))
        });
    }

    /// Batch size for stealing about half the (estimated) content.
    fn half_batch(&self) -> usize {
        (self.0.load(Ordering::Relaxed) / 2).clamp(1, MAX_BATCH)
    }

    /// Whether the hinted size is zero. A hint, not truth: a stale
    /// nonzero reading merely skips one restock (thieves can still
    /// reach the private tier directly), a stale zero merely spills one
    /// batch early.
    fn is_empty_hint(&self) -> bool {
        self.0.load(Ordering::Relaxed) == 0
    }
}

/// Work deque over the paper's unbounded linked-list deque.
pub struct ListWorkDeque {
    inner: ListDeque<Task, HarrisMcas>,
    len: LenHint,
}

impl WorkDeque for ListWorkDeque {
    fn with_capacity(_capacity: usize) -> Self {
        ListWorkDeque { inner: ListDeque::new(), len: LenHint::new() }
    }

    fn push(&self, t: Task) -> Result<(), Task> {
        self.inner.push_right(t).map_err(|e| e.into_inner())?;
        self.len.add(1);
        Ok(())
    }

    fn pop(&self) -> Option<Task> {
        let t = self.inner.pop_right()?;
        self.len.sub(1);
        Some(t)
    }

    fn steal(&self) -> StealOutcome {
        match self.inner.pop_left() {
            Some(t) => {
                self.len.sub(1);
                StealOutcome::Stolen(t)
            }
            None => StealOutcome::Empty,
        }
    }

    fn steal_half(&self) -> Vec<Task> {
        let tasks = self.inner.pop_left_n(self.len.half_batch());
        self.len.sub(tasks.len());
        tasks
    }

    fn push_batch(&self, tasks: Vec<Task>) -> Vec<Task> {
        let n = tasks.len();
        match self.inner.push_right_n(tasks) {
            Ok(()) => {
                self.len.add(n);
                Vec::new()
            }
            Err(full) => {
                let rest = full.into_inner();
                self.len.add(n - rest.len());
                rest
            }
        }
    }

    fn name() -> &'static str {
        "list-dcas"
    }
}

/// Work deque over the paper's bounded array deque.
pub struct ArrayWorkDeque {
    inner: ArrayDeque<Task, HarrisMcas>,
    len: LenHint,
}

impl WorkDeque for ArrayWorkDeque {
    fn with_capacity(capacity: usize) -> Self {
        ArrayWorkDeque { inner: ArrayDeque::new(capacity.max(1)), len: LenHint::new() }
    }

    fn push(&self, t: Task) -> Result<(), Task> {
        self.inner.push_right(t).map_err(|e| e.into_inner())?;
        self.len.add(1);
        Ok(())
    }

    fn pop(&self) -> Option<Task> {
        let t = self.inner.pop_right()?;
        self.len.sub(1);
        Some(t)
    }

    fn steal(&self) -> StealOutcome {
        match self.inner.pop_left() {
            Some(t) => {
                self.len.sub(1);
                StealOutcome::Stolen(t)
            }
            None => StealOutcome::Empty,
        }
    }

    fn steal_half(&self) -> Vec<Task> {
        let tasks = self.inner.pop_left_n(self.len.half_batch());
        self.len.sub(tasks.len());
        tasks
    }

    fn push_batch(&self, tasks: Vec<Task>) -> Vec<Task> {
        let n = tasks.len();
        match self.inner.push_right_n(tasks) {
            Ok(()) => {
                self.len.add(n);
                Vec::new()
            }
            Err(full) => {
                let rest = full.into_inner();
                self.len.add(n - rest.len());
                rest
            }
        }
    }

    fn name() -> &'static str {
        "array-dcas"
    }
}

/// Number of tasks the owner-private tier of a [`TieredDeque`] holds
/// before it spills a batch into an empty shared level. Sized at 4×
/// [`MAX_BATCH`] so the owner absorbs fork bursts privately and the
/// spill/refill traffic moves whole chunk-atomic batches.
pub const RING_CAP: usize = 4 * MAX_BATCH;

/// Two-level owner-biased work deque: a [`ChaseLev`] deque as the
/// owner-private tier, backed by one of the paper's linearizable DCAS
/// deques as the shared level.
///
/// The fork-join access pattern is overwhelmingly owner-local — a worker
/// pushes a task and pops it back moments later — yet the flat adapters
/// pay a full DCAS (descriptor install + helping protocol under the
/// Harris substrate) for every one of those operations. Here the owner
/// touches only the Chase–Lev tier: one release fence per push. Thieves
/// prefer the shared deque's left end (the globally oldest published
/// work) and fall back to the tier's top, so a burst of forked work is
/// stealable without waiting for a spill. Spilling therefore has one
/// job left: keep the shared linearizable level *stocked* as the
/// preferred steal channel. Once the tier holds more than [`RING_CAP`]
/// tasks and the shared level is observed empty, the **oldest**
/// [`MAX_BATCH`] tasks move to the shared deque's right end with a
/// single chunk-atomic `push_right_n` CASN. Refill is symmetric: an
/// empty tier pulls the newest [`MAX_BATCH`] tasks back with one
/// `pop_right_n`.
///
/// Ordering invariant (absent rejected spills): the shared deque
/// (left→right) followed by the tier (oldest→newest) is
/// oldest→newest, because spills move the tier's *oldest* prefix to
/// the shared *right* end and refills take the shared *newest* suffix
/// back. Owner pops are globally LIFO; steals drain the shared level
/// FIFO, then the tier oldest-first.
///
/// Spills stage their chunk in an owner-private `staged` buffer between
/// draining the tier and the shared-level push, so a worker killed
/// mid-spill strands nothing: [`flush_local`](Self::flush_local)
/// publishes `staged` along with the tier.
///
/// # Safety contract
///
/// `push`/`pop`/`flush_local` are owner-only (the [`WorkDeque`]
/// contract), with cross-thread ownership handoff (scheduler
/// startup/teardown) synchronised by thread spawn/join.
/// `steal`/`steal_half` touch only the shared level and the tier's
/// thief-safe top end.
pub struct TieredDeque<T, D> {
    private: ChaseLev<T>,
    /// Mid-spill staging: the chunk drained from the private tier but
    /// not yet pushed to the shared level. Owner-only, like the tier's
    /// bottom end.
    staged: std::cell::UnsafeCell<Vec<T>>,
    shared: D,
    /// Size hint for the shared level only.
    len: LenHint,
    /// Steal provenance: tasks thieves took from the private tier vs
    /// the shared level (relaxed counters, surfaced in `SchedStats`).
    steals_private: AtomicU64,
    steals_shared: AtomicU64,
}

// SAFETY: `staged` is owner-only per the `WorkDeque` contract (see the
// type-level safety contract above); everything else is `Send + Sync`.
unsafe impl<T: Send, D: Send + Sync> Send for TieredDeque<T, D> {}
unsafe impl<T: Send, D: Send + Sync> Sync for TieredDeque<T, D> {}

impl<T: Send, D: ConcurrentDeque<T>> TieredDeque<T, D> {
    /// Wraps `shared` as the steal-visible level under a fresh, empty
    /// Chase–Lev tier.
    pub fn new(shared: D) -> Self {
        TieredDeque {
            private: ChaseLev::new(),
            staged: std::cell::UnsafeCell::new(Vec::new()),
            shared,
            len: LenHint::new(),
            steals_private: AtomicU64::new(0),
            steals_shared: AtomicU64::new(0),
        }
    }

    /// The shared level (e.g. to read its recorder or stats).
    pub fn shared(&self) -> &D {
        &self.shared
    }

    /// Steal provenance counters: `(from the private tier, from the
    /// shared level)`.
    pub fn tier_steals(&self) -> (u64, u64) {
        (
            self.steals_private.load(Ordering::Relaxed),
            self.steals_shared.load(Ordering::Relaxed),
        )
    }

    /// Owner-only: the mid-spill staging buffer.
    #[allow(clippy::mut_from_ref)]
    fn staged(&self) -> &mut Vec<T> {
        // SAFETY: owner-only methods are never called concurrently (see
        // the type-level safety contract).
        unsafe { &mut *self.staged.get() }
    }

    /// Takes the tier's oldest value. Retries lost index races, so
    /// `None` means the tier was observed empty.
    fn steal_private(&self) -> Option<T> {
        loop {
            match self.private.steal() {
                ClSteal::Stolen(v) => return Some(v),
                ClSteal::Retry => std::hint::spin_loop(),
                ClSteal::Empty => return None,
            }
        }
    }

    /// Owner-only: removes up to `n` of the tier's **oldest** values,
    /// oldest-first. The owner drains itself through the thief protocol
    /// (top end); a lost race means a concurrent thief won an index, so
    /// the loop is livelock-free.
    fn take_oldest(&self, n: usize) -> Vec<T> {
        let mut out = Vec::new();
        while out.len() < n {
            match self.steal_private() {
                Some(v) => out.push(v),
                None => break,
            }
        }
        out
    }

    /// Owner-only: pushes `batch` at the shared right end, returning
    /// what a bounded shared level rejected.
    fn publish(&self, batch: Vec<T>) -> Vec<T> {
        let n = batch.len();
        let rest = match self.shared.push_right_n(batch) {
            Ok(()) => Vec::new(),
            Err(full) => full.into_inner(),
        };
        self.len.add(n - rest.len());
        rest
    }

    /// Owner-only: spills the tier's oldest batch to the shared right
    /// end (it is newer than everything already there, so global order
    /// holds). Returns what a bounded shared level rejected.
    fn spill(&self) -> Vec<T> {
        let staged = self.staged();
        debug_assert!(staged.is_empty());
        *staged = self.take_oldest(MAX_BATCH);
        // Death-flush window: a worker killed between the drain above
        // and the shared push below leaves the chunk in `staged`, which
        // `flush_local` publishes — no task is stranded.
        #[cfg(feature = "fault-inject")]
        dcas::fault::hit(dcas::fault::FaultPoint::SpillStaged, true);
        self.publish(std::mem::take(staged))
    }

    /// Owner-only: pushes a value, spilling the tier's oldest batch
    /// when the tier exceeds [`RING_CAP`] and the shared level looks
    /// empty. An owner-local burst therefore stays in the Chase–Lev
    /// arrays (which grow) instead of paying one DCAS round-trip per
    /// [`MAX_BATCH`] pushes.
    ///
    /// `Err` hands a task back when the shared level is bounded and
    /// rejects the spill (normally the one just pushed; under a thief
    /// race, the newest remaining one) — the caller runs it inline, the
    /// standard overflow policy.
    pub fn push(&self, t: T) -> Result<(), T> {
        self.private.push(t);
        if self.private.len() > RING_CAP && self.len.is_empty_hint() {
            let rest = self.spill();
            if !rest.is_empty() {
                // Bounded shared level at capacity: reclaim the newest
                // task for the caller to run inline and return the
                // rejected values to the tier. They re-enter at the
                // bottom, so their relative age is scrambled, but every
                // value stays in the deque (conservation over ordering).
                let give_back = self.private.pop();
                for v in rest {
                    self.private.push(v);
                }
                match give_back {
                    Some(t) => return Err(t),
                    // Thieves drained the tier past the value we just
                    // pushed; it is already on its way to execution.
                    None => return Ok(()),
                }
            }
        }
        Ok(())
    }

    /// Owner-only: pops the newest value (globally LIFO), refilling the
    /// tier from the shared level's newest batch when empty.
    pub fn pop(&self) -> Option<T> {
        if let Some(t) = self.private.pop() {
            return Some(t);
        }
        // Tier empty: pull the newest shared batch back. `pop_right_n`
        // returns rightmost (newest) first; reversed, the chunk enters
        // the tier oldest→newest so its newest end stays the global
        // newest task.
        let chunk = self.shared.pop_right_n(MAX_BATCH);
        self.len.sub(chunk.len());
        for v in chunk.into_iter().rev() {
            self.private.push(v);
        }
        // The refilled tasks are immediately fair game for thieves, so
        // this pop can still come back empty — the caller retries or
        // steals elsewhere, same as any lost race.
        self.private.pop()
    }

    /// Thief: takes the globally oldest *published* value, falling back
    /// to the top of the private tier when the shared level is empty.
    pub fn steal(&self) -> Option<T> {
        if let Some(t) = self.shared.pop_left() {
            self.len.sub(1);
            self.steals_shared.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        let t = self.steal_private()?;
        self.steals_private.fetch_add(1, Ordering::Relaxed);
        Some(t)
    }

    /// Thief: takes about half of the shared level, oldest first; when
    /// that is empty, up to half of the private tier.
    pub fn steal_half(&self) -> Vec<T> {
        let tasks = self.shared.pop_left_n(self.len.half_batch());
        if !tasks.is_empty() {
            self.len.sub(tasks.len());
            self.steals_shared.fetch_add(tasks.len() as u64, Ordering::Relaxed);
            return tasks;
        }
        let out = self.take_oldest((self.private.len() / 2).clamp(1, MAX_BATCH));
        if !out.is_empty() {
            self.steals_private.fetch_add(out.len() as u64, Ordering::Relaxed);
        }
        out
    }

    /// Owner-only: publishes any staged mid-spill chunk plus the whole
    /// private tier to the shared level, returning whatever a bounded
    /// shared level rejects.
    pub fn flush_local(&self) -> Vec<T> {
        let mut batch = std::mem::take(self.staged());
        batch.extend(self.take_oldest(usize::MAX));
        if batch.is_empty() {
            return Vec::new();
        }
        self.publish(batch)
    }
}

/// Two-level work deque: a [`ChaseLev`] private tier over the paper's
/// unbounded list deque ([`TieredDeque`]). Owner ops stay (nearly)
/// free, and thieves steal the Chase–Lev top directly once the shared
/// level runs dry.
pub struct TieredChaseLevWorkDeque(TieredDeque<Task, ListDeque<Task, HarrisMcas>>);

impl WorkDeque for TieredChaseLevWorkDeque {
    fn with_capacity(_capacity: usize) -> Self {
        TieredChaseLevWorkDeque(TieredDeque::new(ListDeque::new()))
    }

    fn push(&self, t: Task) -> Result<(), Task> {
        self.0.push(t)
    }

    fn pop(&self) -> Option<Task> {
        self.0.pop()
    }

    fn steal(&self) -> StealOutcome {
        match self.0.steal() {
            Some(t) => StealOutcome::Stolen(t),
            None => StealOutcome::Empty,
        }
    }

    fn steal_half(&self) -> Vec<Task> {
        self.0.steal_half()
    }

    fn flush_local(&self) -> Vec<Task> {
        self.0.flush_local()
    }

    fn tier_steals(&self) -> (u64, u64) {
        self.0.tier_steals()
    }

    fn name() -> &'static str {
        "tiered-chaselev"
    }
}

/// Work deque over the CAS-only ABP deque (the baseline built for this
/// exact access pattern).
pub struct AbpWorkDeque(AbpDeque);

impl WorkDeque for AbpWorkDeque {
    fn with_capacity(capacity: usize) -> Self {
        AbpWorkDeque(AbpDeque::new(capacity.max(1)))
    }

    fn push(&self, t: Task) -> Result<(), Task> {
        let w = Boxed::new(t).encode();
        if self.0.push_bottom(w) {
            Ok(())
        } else {
            // SAFETY: `w` was just encoded and rejected; we reclaim it.
            Err(unsafe { Boxed::<Task>::decode(w) }.into_inner())
        }
    }

    fn pop(&self) -> Option<Task> {
        // SAFETY: words in the deque are exactly the `Boxed<Task>`
        // encodings pushed above, consumed once.
        self.0.pop_bottom().map(|w| unsafe { Boxed::<Task>::decode(w) }.into_inner())
    }

    fn steal(&self) -> StealOutcome {
        match self.0.steal() {
            // SAFETY: as above.
            Steal::Success(w) => {
                StealOutcome::Stolen(unsafe { Boxed::<Task>::decode(w) }.into_inner())
            }
            Steal::Empty => StealOutcome::Empty,
            Steal::Abort => StealOutcome::Retry,
        }
    }

    fn name() -> &'static str {
        "abp-cas"
    }
}

impl Drop for AbpWorkDeque {
    fn drop(&mut self) {
        // Reclaim any tasks left behind (scheduler aborts, panics).
        while let Some(w) = self.0.pop_bottom() {
            // SAFETY: as in `pop`.
            drop(unsafe { Boxed::<Task>::decode(w) });
        }
    }
}

/// Work deque over the lock-based baseline.
pub struct MutexWorkDeque(MutexDeque<Task>);

impl WorkDeque for MutexWorkDeque {
    fn with_capacity(_capacity: usize) -> Self {
        MutexWorkDeque(MutexDeque::new())
    }

    fn push(&self, t: Task) -> Result<(), Task> {
        ConcurrentDeque::push_right(&self.0, t).map_err(|e| e.into_inner())
    }

    fn pop(&self) -> Option<Task> {
        ConcurrentDeque::pop_right(&self.0)
    }

    fn steal(&self) -> StealOutcome {
        match ConcurrentDeque::pop_left(&self.0) {
            Some(t) => StealOutcome::Stolen(t),
            None => StealOutcome::Empty,
        }
    }

    fn name() -> &'static str {
        "mutex"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> Task {
        Box::new(|_| {})
    }

    /// All tasks pushed are retrieved exactly once through a mix of
    /// `steal_half` and owner pops, across every implementation.
    fn steal_half_conserves<D: WorkDeque>() {
        let d = D::with_capacity(64);
        for _ in 0..20 {
            assert!(d.push(noop()).is_ok(), "{}", D::name());
        }
        let stolen = d.steal_half();
        assert!(
            !stolen.is_empty() && stolen.len() <= MAX_BATCH,
            "{}: steal_half took {}",
            D::name(),
            stolen.len()
        );
        let mut total = stolen.len();
        loop {
            let s = d.steal_half();
            if s.is_empty() {
                break;
            }
            total += s.len();
        }
        while d.pop().is_some() {
            total += 1;
        }
        assert_eq!(total, 20, "{}: tasks lost or duplicated", D::name());
    }

    #[test]
    fn steal_half_conserves_all_impls() {
        steal_half_conserves::<ListWorkDeque>();
        steal_half_conserves::<ArrayWorkDeque>();
        steal_half_conserves::<AbpWorkDeque>();
        steal_half_conserves::<MutexWorkDeque>();
    }

    /// A tiered deque's tasks are stealable from both levels, and
    /// steals plus owner pops conserve every task.
    #[test]
    fn tiered_conserves() {
        let d = TieredChaseLevWorkDeque::with_capacity(256);
        const N: usize = 100;
        for _ in 0..N {
            assert!(d.push(noop()).is_ok());
        }
        let mut total = 0;
        loop {
            let s = d.steal_half();
            if s.is_empty() {
                break;
            }
            assert!(s.len() <= MAX_BATCH);
            total += s.len();
        }
        assert!(total > 0, "pushed tasks must be stealable");
        while d.pop().is_some() {
            total += 1;
        }
        assert_eq!(total, N, "tasks lost or duplicated");
    }

    #[test]
    fn chaselev_tier_is_stealable_before_any_spill() {
        let d = TieredChaseLevWorkDeque::with_capacity(0);
        for _ in 0..4 {
            assert!(d.push(noop()).is_ok());
        }
        // Nothing has spilled (4 < RING_CAP), yet a thief finds work
        // straight from the Chase–Lev tier.
        assert!(matches!(d.steal(), StealOutcome::Stolen(_)));
        assert_eq!(d.tier_steals(), (1, 0));
        let mut total = 1;
        while d.pop().is_some() {
            total += 1;
        }
        assert_eq!(total, 4);
    }

    #[test]
    fn tiered_steal_provenance_counts_both_levels() {
        let d = TieredChaseLevWorkDeque::with_capacity(0);
        // Enough pushes to force at least one spill, with a remainder
        // left in the private tier.
        let n = RING_CAP + MAX_BATCH;
        for _ in 0..n {
            assert!(d.push(noop()).is_ok());
        }
        let mut stolen = 0usize;
        loop {
            let s = d.steal_half();
            if s.is_empty() {
                break;
            }
            stolen += s.len();
        }
        assert_eq!(stolen, n, "steals must drain both levels");
        let (private, shared) = d.tier_steals();
        assert_eq!(private + shared, stolen as u64);
        assert!(shared > 0, "spilled tasks come from the shared level");
        assert!(private > 0, "unspilled tasks come from the chaselev tier");
    }

    #[test]
    fn tiered_spill_and_flush_publish_to_the_shared_level() {
        let d = TieredChaseLevWorkDeque::with_capacity(0);
        // Up to RING_CAP nothing reaches the shared level…
        for _ in 0..RING_CAP {
            assert!(d.push(noop()).is_ok());
        }
        assert!(d.0.shared().pop_left().is_none());
        // …the next push spills exactly one batch of the oldest tasks…
        assert!(d.push(noop()).is_ok());
        let spilled = d.0.shared().pop_left_n(MAX_BATCH);
        assert_eq!(spilled.len(), MAX_BATCH);
        assert!(d.0.shared().pop_left().is_none(), "exactly one batch spills");
        // …and flush_local publishes the rest of the tier, so every
        // later steal comes from the shared level.
        let leftover = d.flush_local();
        assert!(leftover.is_empty(), "unbounded shared level never rejects");
        let mut total = spilled.len();
        loop {
            let s = d.steal_half();
            if s.is_empty() {
                break;
            }
            total += s.len();
        }
        assert_eq!(total, RING_CAP + 1);
        assert_eq!(d.tier_steals().0, 0, "flushed tier left nothing private");
        assert!(d.pop().is_none());
    }

    #[test]
    fn tiered_pop_refills_from_shared_in_lifo_order() {
        // Tasks are opaque closures, so order is observed through a
        // drop-guard each task captures: popping and dropping a task
        // appends its index to the log.
        use std::sync::{Arc, Mutex};
        struct Tag(usize, Arc<Mutex<Vec<usize>>>);
        impl Drop for Tag {
            fn drop(&mut self) {
                self.1.lock().unwrap().push(self.0);
            }
        }
        let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let tagged = |i: usize| -> Task {
            let guard = Tag(i, log.clone());
            Box::new(move |_| {
                let _ = &guard;
            })
        };
        let d = TieredChaseLevWorkDeque::with_capacity(0);
        const N: usize = RING_CAP + 2 * MAX_BATCH;
        for i in 0..N {
            assert!(d.push(tagged(i)).is_ok());
        }
        // Owner pops must return newest-first across the spill boundary:
        // the tier drains, then a refill pulls the spilled batch back.
        while let Some(t) = d.pop() {
            drop(t);
        }
        assert_eq!(*log.lock().unwrap(), (0..N).rev().collect::<Vec<_>>());
    }

    #[test]
    fn push_batch_returns_overflow() {
        let d = ArrayWorkDeque::with_capacity(16);
        let rejected = d.push_batch((0..30).map(|_| noop()).collect());
        let mut held = 0;
        while d.pop().is_some() {
            held += 1;
        }
        assert_eq!(held + rejected.len(), 30, "tasks lost in push_batch");
        assert!(held <= 16);
        // Unbounded list deque never rejects.
        let d = ListWorkDeque::with_capacity(0);
        assert!(d.push_batch((0..30).map(|_| noop()).collect()).is_empty());
        let mut held = 0;
        while d.pop().is_some() {
            held += 1;
        }
        assert_eq!(held, 30);
    }

    #[test]
    fn steal_half_scales_with_size_hint() {
        let d = ListWorkDeque::with_capacity(0);
        // Two tasks: half is one.
        assert!(d.push(noop()).is_ok());
        assert!(d.push(noop()).is_ok());
        assert_eq!(d.steal_half().len(), 1);
        // A big pile: half clamps to MAX_BATCH.
        for _ in 0..100 {
            assert!(d.push(noop()).is_ok());
        }
        assert_eq!(d.steal_half().len(), MAX_BATCH);
    }
}
