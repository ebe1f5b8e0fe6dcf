//! The fork-join scheduler.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam_utils::CachePadded;

use crate::deques::WorkDeque;

/// A unit of work. Tasks receive a [`WorkerHandle`] through which they
/// spawn subtasks, [`join`](WorkerHandle::join) forked pairs, and
/// complete [`Continuation`]s.
pub type Task = Box<dyn for<'a> FnOnce(&WorkerHandle<'a, DynDeque>) + Send>;

/// A [`Task`] whose closure may still borrow from the spawning frame;
/// erased to `Task` only under `join`'s outlives proof.
type ScopedTask<'x> = Box<dyn for<'b> FnOnce(&WorkerHandle<'b, DynDeque>) + Send + 'x>;

/// Type-erasure point: the scheduler is generic over `D`, but tasks are
/// monomorphic over this alias so `Task` stays a simple boxed closure.
/// `DynDeque` is substituted per scheduler instantiation via transmute-free
/// indirection below.
pub struct DynDeque(());

// The public scheduler is generic over D; internally tasks close over a
// handle whose deque type is erased behind the `WorkerCtx` object: the
// handle exposes only operations that do not depend on D's type at the
// call site.

/// What a running task can ask of its worker, with the deque type
/// erased: queue a task, run other people's work while waiting, name
/// the worker.
trait WorkerCtx {
    /// The executing worker's index.
    fn worker_id(&self) -> usize;
    /// Queues `t` on this worker's deque; a bounded deque at capacity
    /// executes it inline instead (the standard overflow policy).
    fn spawn_task(&self, t: Task);
    /// Runs queued and stolen tasks until `done` reads `true` — the
    /// joiner's side of [`WorkerHandle::join`]: instead of blocking, the
    /// worker keeps the system busy (and may well execute the very task
    /// it is waiting for).
    fn help_until(&self, done: &AtomicBool);
}

/// Handle given to running tasks for spawning subtasks and inspecting the
/// worker.
pub struct WorkerHandle<'a, D: ?Sized> {
    ctx: &'a dyn WorkerCtx,
    _marker: std::marker::PhantomData<fn(&D)>,
}

impl<'a, D: ?Sized> WorkerHandle<'a, D> {
    fn new(ctx: &'a dyn WorkerCtx) -> WorkerHandle<'a, D> {
        WorkerHandle { ctx, _marker: std::marker::PhantomData }
    }

    /// The executing worker's index.
    pub fn worker_id(&self) -> usize {
        self.ctx.worker_id()
    }

    /// Schedules `f` for execution (on this worker's deque; other workers
    /// may steal it).
    pub fn spawn<F>(&self, f: F)
    where
        F: for<'b> FnOnce(&WorkerHandle<'b, DynDeque>) + Send + 'static,
    {
        self.ctx.spawn_task(Box::new(f));
    }

    /// Runs `a` and `b`, potentially in parallel, and returns both
    /// results — the fork-join primitive. `b` is forked onto this
    /// worker's deque (so any worker may steal it) while `a` runs
    /// inline; the joiner then *helps* — executing queued and stolen
    /// tasks, very possibly `b` itself — until `b` has finished.
    ///
    /// Unlike [`spawn`](Self::spawn), the closures may borrow from the
    /// caller's stack (`join` does not return until both are done, so
    /// the borrows stay valid — the same contract as
    /// `std::thread::scope`), which is what lets quicksort fork
    /// `&mut` halves of a shared slice.
    ///
    /// If either closure panics, the panic propagates out of `join`
    /// after **both** have come to rest (`a`'s panic wins if both
    /// fail), so borrowed data is never touched by a task that outlives
    /// its frame.
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce(&WorkerHandle<'_, DynDeque>) -> RA + Send,
        B: FnOnce(&WorkerHandle<'_, DynDeque>) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        struct JoinSlot<R> {
            done: AtomicBool,
            result: Mutex<Option<std::thread::Result<R>>>,
        }
        /// Captured by value into the forked task: sets `done` when the
        /// closure frame ends — or when the task is dropped unexecuted,
        /// so the joiner can never hang on a task that will never run.
        struct SignalOnDrop<'x>(&'x AtomicBool);
        impl Drop for SignalOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }

        let slot: JoinSlot<RB> =
            JoinSlot { done: AtomicBool::new(false), result: Mutex::new(None) };
        let slot_ref = &slot;
        let signal = SignalOnDrop(&slot.done);
        let task: ScopedTask<'_> = Box::new(move |w| {
                // `signal` is dropped last (reverse declaration order),
                // after the result is stored.
                let _signal = signal;
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b(w)));
                *slot_ref.result.lock().unwrap() = Some(r);
            });
        // SAFETY: the task borrows `b` and `slot` from this frame, and
        // `Task` demands 'static. The transmute only erases that
        // lifetime, which is sound because this frame provably outlives
        // the task: `help_until` below does not return until `done` is
        // set, and `done` is set exactly when the task's closure frame
        // ends (or the task is dropped unexecuted — `SignalOnDrop` is
        // captured by value), after its last access to the borrows.
        let task: Task = unsafe { std::mem::transmute::<ScopedTask<'_>, Task>(task) };
        self.ctx.spawn_task(task);

        // Run `a` inline; hold any panic until `b` is at rest, because
        // unwinding now would invalidate `b`'s borrows while it may
        // still be running on another worker.
        let inline = WorkerHandle::new(self.ctx);
        let ra = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a(&inline)));
        self.ctx.help_until(&slot.done);
        let rb = slot.result.lock().unwrap().take();
        let ra = match ra {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        match rb {
            Some(Ok(v)) => (ra, v),
            Some(Err(payload)) => std::panic::resume_unwind(payload),
            None => panic!("join: forked task was dropped unexecuted"),
        }
    }

}

/// A countdown dependency: after `dependencies` calls to
/// [`finish`](Continuation::finish), the stored task is spawned. This is
/// the non-blocking way to express "run C once A and B are both done"
/// without a worker parked in [`join`](WorkerHandle::join):
///
/// ```
/// use dcas_workstealing::{Continuation, ListWorkDeque, Scheduler};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let total = Arc::new(AtomicU64::new(0));
/// let sched: Scheduler<ListWorkDeque> = Scheduler::new(2);
/// let t = total.clone();
/// sched.run(move |w| {
///     let t2 = t.clone();
///     let cont = Continuation::new(2, move |_w| {
///         t2.fetch_add(100, Ordering::Relaxed);
///     });
///     for _ in 0..2 {
///         let (t, cont) = (t.clone(), cont.clone());
///         w.spawn(move |w| {
///             t.fetch_add(1, Ordering::Relaxed);
///             cont.finish(w);
///         });
///     }
/// });
/// assert_eq!(total.load(Ordering::SeqCst), 102);
/// ```
pub struct Continuation {
    remaining: AtomicUsize,
    task: Mutex<Option<Task>>,
}

impl Continuation {
    /// A continuation that spawns `f` after `dependencies` completions.
    pub fn new<F>(dependencies: usize, f: F) -> Arc<Continuation>
    where
        F: for<'b> FnOnce(&WorkerHandle<'b, DynDeque>) + Send + 'static,
    {
        assert!(dependencies >= 1, "a continuation needs at least one dependency");
        Arc::new(Continuation {
            remaining: AtomicUsize::new(dependencies),
            task: Mutex::new(Some(Box::new(f))),
        })
    }

    /// Records one dependency completion; the final one spawns the
    /// stored task on `w`'s deque.
    pub fn finish<D: ?Sized>(self: &Arc<Self>, w: &WorkerHandle<'_, D>) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let task =
                self.task.lock().unwrap().take().expect("continuation finished too many times");
            w.ctx.spawn_task(task);
        }
    }
}

/// A fork-join work-stealing scheduler with one deque per worker.
pub struct Scheduler<D: WorkDeque> {
    workers: usize,
    capacity_per_worker: usize,
    _marker: std::marker::PhantomData<fn(&D)>,
}

/// Point-in-time scheduler telemetry, surfaced on [`RunReport::stats`].
///
/// The worker-loop counters (`tasks_executed` through
/// `overflow_inline`) are zero unless the crate's `stats` feature is
/// enabled — they compile to nothing otherwise, so release builds
/// without the feature pay no cost in the worker loop. The two steal
/// **provenance** counters are read from the deques themselves
/// ([`WorkDeque::tier_steals`]) after the run and are live whenever the
/// deque maintains them (the tiered deque always does; flat deques
/// report zero).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks executed to completion or panic (includes inline overflow
    /// execution).
    pub tasks_executed: u64,
    /// Successful steal attempts (at least one task taken).
    pub steals: u64,
    /// Total tasks transferred by successful steals (`steal_half`
    /// batches).
    pub stolen_tasks: u64,
    /// Steal attempts that found the victim's deque empty.
    pub steal_misses: u64,
    /// Tasks executed inline because the worker's bounded deque was full.
    pub overflow_inline: u64,
    /// Tasks thieves took directly from owners' private Chase–Lev tiers.
    pub steals_private_tier: u64,
    /// Tasks thieves took from the shared linearizable level of the
    /// tiered deque.
    pub steals_shared_tier: u64,
}

impl SchedStats {
    /// Name/value pairs for every counter, in declaration order — the
    /// stable iteration surface for exporters (e.g. `crates/obs`).
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("tasks_executed", self.tasks_executed),
            ("steals", self.steals),
            ("stolen_tasks", self.stolen_tasks),
            ("steal_misses", self.steal_misses),
            ("overflow_inline", self.overflow_inline),
            ("steals_private_tier", self.steals_private_tier),
            ("steals_shared_tier", self.steals_shared_tier),
        ]
    }
}

/// Number of cache-line-padded counter lines in a [`SchedCounters`]
/// block. Every worker's every task bumps `tasks_executed`, so a single
/// shared line would put one guaranteed-contended cache line into the
/// per-task hot path whenever stats are on; striping by thread keeps
/// each worker's increments on its own line (same layout treatment as
/// the DCAS strategy counters in `dcas::stats`).
#[cfg(feature = "stats")]
const SCHED_STRIPES: usize = 8;

/// One stripe's counters (all five fit one padded line).
#[cfg(feature = "stats")]
#[derive(Debug, Default)]
struct SchedCounterLine {
    tasks_executed: std::sync::atomic::AtomicU64,
    steals: std::sync::atomic::AtomicU64,
    stolen_tasks: std::sync::atomic::AtomicU64,
    steal_misses: std::sync::atomic::AtomicU64,
    overflow_inline: std::sync::atomic::AtomicU64,
}

/// The calling thread's stripe, assigned round-robin on first use.
#[cfg(feature = "stats")]
#[inline]
fn sched_stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    IDX.with(|i| *i) & (SCHED_STRIPES - 1)
}

/// Internal counter block; zero-sized and all-no-op without `stats`,
/// a striped array of padded per-thread lines with it.
#[derive(Debug, Default)]
struct SchedCounters {
    #[cfg(feature = "stats")]
    stripes: [CachePadded<SchedCounterLine>; SCHED_STRIPES],
}

macro_rules! sched_counter_add {
    ($($inc:ident => $field:ident;)*) => {$(
        #[inline]
        #[allow(unused_variables)]
        fn $inc(&self, n: u64) {
            #[cfg(feature = "stats")]
            self.stripes[sched_stripe_index()].$field.fetch_add(n, Ordering::Relaxed);
        }
    )*};
}

impl SchedCounters {
    sched_counter_add! {
        add_task_executed => tasks_executed;
        add_steal => steals;
        add_stolen_tasks => stolen_tasks;
        add_steal_miss => steal_misses;
        add_overflow_inline => overflow_inline;
    }

    fn snapshot(&self) -> SchedStats {
        #[cfg(feature = "stats")]
        {
            let mut s = SchedStats::default();
            for line in self.stripes.iter() {
                s.tasks_executed += line.tasks_executed.load(Ordering::Relaxed);
                s.steals += line.steals.load(Ordering::Relaxed);
                s.stolen_tasks += line.stolen_tasks.load(Ordering::Relaxed);
                s.steal_misses += line.steal_misses.load(Ordering::Relaxed);
                s.overflow_inline += line.overflow_inline.load(Ordering::Relaxed);
            }
            s
        }
        #[cfg(not(feature = "stats"))]
        SchedStats::default()
    }
}

struct Shared<D> {
    deques: Vec<CachePadded<D>>,
    /// Tasks spawned but not yet finished executing.
    pending: CachePadded<AtomicUsize>,
    /// Tasks that panicked during this run.
    panics: CachePadded<AtomicUsize>,
    /// First panic payload, rethrown by [`Scheduler::run`].
    first_panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Telemetry counters (`stats` feature; zero-sized otherwise).
    counters: SchedCounters,
}

impl<D> Shared<D> {
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.panics.fetch_add(1, Ordering::AcqRel);
        let mut slot = self.first_panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// Outcome of a [`Scheduler::run_report`] call.
pub struct RunReport {
    /// Tasks that panicked. Each panic killed its worker thread; the
    /// survivors finished the run (stealing from the dead worker's
    /// deque as needed).
    pub panics: usize,
    /// Tasks dropped unexecuted because every worker had died. Always
    /// zero while at least one worker survives.
    pub dropped: usize,
    /// Scheduler telemetry for the run (all zero unless the `stats`
    /// feature is enabled).
    pub stats: SchedStats,
    first_panic: Option<Box<dyn Any + Send>>,
}

impl RunReport {
    /// The payload of the first panic, if any (consumes the report; use
    /// with [`std::panic::resume_unwind`] to rethrow).
    pub fn into_first_panic(self) -> Option<Box<dyn Any + Send>> {
        self.first_panic
    }
}

impl std::fmt::Debug for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunReport")
            .field("panics", &self.panics)
            .field("dropped", &self.dropped)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<D: WorkDeque> Scheduler<D> {
    /// Creates a scheduler with `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, 1 << 16)
    }

    /// Creates a scheduler whose per-worker deques hold at least
    /// `capacity_per_worker` tasks (bounded deque implementations execute
    /// overflow inline).
    pub fn with_capacity(workers: usize, capacity_per_worker: usize) -> Self {
        assert!(workers >= 1);
        Scheduler {
            workers,
            capacity_per_worker,
            _marker: std::marker::PhantomData,
        }
    }

    /// Runs `root` (plus everything it transitively spawns) to
    /// completion, then returns. Tasks still queued when the run drains
    /// are guaranteed executed.
    ///
    /// If any task panics, the panic is rethrown here after the run
    /// finishes — the surviving workers first complete every remaining
    /// task (see [`run_report`](Self::run_report) to observe panics
    /// without unwinding).
    pub fn run<F>(&self, root: F)
    where
        F: for<'a> FnOnce(&WorkerHandle<'a, DynDeque>) + Send + 'static,
    {
        let report = self.run_report(root);
        if let Some(payload) = report.into_first_panic() {
            std::panic::resume_unwind(payload);
        }
    }

    /// Like [`run`](Self::run), but a panicking task kills only its own
    /// worker: the panic is caught and recorded, the worker thread exits,
    /// and the dead worker's deque remains stealable so survivors finish
    /// the remaining work. Returns a [`RunReport`] instead of unwinding.
    ///
    /// Only when *every* worker has died are leftover tasks dropped
    /// unexecuted (and counted in [`RunReport::dropped`]).
    pub fn run_report<F>(&self, root: F) -> RunReport
    where
        F: for<'a> FnOnce(&WorkerHandle<'a, DynDeque>) + Send + 'static,
    {
        let shared = Arc::new(Shared {
            deques: (0..self.workers)
                .map(|_| CachePadded::new(D::with_capacity(self.capacity_per_worker)))
                .collect(),
            pending: CachePadded::new(AtomicUsize::new(1)),
            panics: CachePadded::new(AtomicUsize::new(0)),
            first_panic: Mutex::new(None),
            counters: SchedCounters::default(),
        });
        // Seed worker 0.
        let root: Task = Box::new(root);
        shared.deques[0].push(root).unwrap_or_else(|t| {
            // A zero-capacity deque: degenerate but legal; run inline via
            // the worker loop by requeueing. In practice capacity >= 1.
            drop(t);
            panic!("work deque rejected the root task");
        });

        std::thread::scope(|s| {
            for id in 0..self.workers {
                let shared = shared.clone();
                s.spawn(move || worker_loop::<D>(id, shared));
            }
        });

        // If every worker died, tasks may be stranded in the deques.
        // Drop them (the closures' captures still run their destructors)
        // and account for them so `pending` balances.
        let mut dropped = 0usize;
        for d in &shared.deques {
            while let Some(task) = d.pop() {
                drop(task);
                dropped += 1;
                shared.pending.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let panics = shared.panics.load(Ordering::SeqCst);
        debug_assert!(
            panics > 0
                || (dropped == 0 && shared.pending.load(Ordering::SeqCst) == 0),
            "pending-task accounting drifted without any panic"
        );
        let first_panic = shared.first_panic.lock().unwrap().take();
        let mut stats = shared.counters.snapshot();
        // Steal provenance lives on the deques (always on — it is not a
        // worker-loop hot-path counter), summed here across workers.
        for d in shared.deques.iter() {
            let (private, shared_level) = d.tier_steals();
            stats.steals_private_tier += private;
            stats.steals_shared_tier += shared_level;
        }
        RunReport { panics, dropped, stats, first_panic }
    }
}

/// The per-worker [`WorkerCtx`]: the deque type lives here, behind the
/// trait object the handles carry. One `Ctx` exists per worker thread
/// per `execute` frame; `poisoned` latches panics from tasks run
/// *inside* the frame (inline overflow, help-loop work) that cannot
/// unwind out through the `&dyn` boundary as a return value.
struct Ctx<'s, D: WorkDeque> {
    id: usize,
    shared: &'s Shared<D>,
    poisoned: &'s AtomicBool,
    /// xorshift state for help-loop victim selection.
    rng: Cell<u64>,
}

impl<D: WorkDeque> Ctx<'_, D> {
    fn run_one(&self, task: Task) {
        if !run_task(self.shared, task, &WorkerHandle::new(self)) {
            self.poisoned.store(true, Ordering::Release);
        }
    }
}

impl<D: WorkDeque> WorkerCtx for Ctx<'_, D> {
    fn worker_id(&self) -> usize {
        self.id
    }

    fn spawn_task(&self, t: Task) {
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        if let Err(t) = self.shared.deques[self.id].push(t) {
            // Bounded deque full: run inline (standard overflow policy).
            // The inline task spawns through this same ctx, so its own
            // children retry the deque first.
            self.shared.counters.add_overflow_inline(1);
            self.run_one(t);
        }
    }

    fn help_until(&self, done: &AtomicBool) {
        let n = self.shared.deques.len();
        while !done.load(Ordering::Acquire) {
            // Own deque first (LIFO) — the awaited task is most likely
            // still right here.
            if let Some(task) = self.shared.deques[self.id].pop() {
                self.run_one(task);
                continue;
            }
            // Otherwise steal, exactly like the worker loop's policy.
            let mut rng = self.rng.get();
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            self.rng.set(rng);
            let victim = (rng as usize) % n;
            if victim == self.id {
                std::hint::spin_loop();
                continue;
            }
            let mut stolen = self.shared.deques[victim].steal_half().into_iter();
            match stolen.next() {
                None => {
                    self.shared.counters.add_steal_miss(1);
                    std::hint::spin_loop();
                }
                Some(first) => {
                    let mut rest: Vec<Task> = stolen.collect();
                    self.shared.counters.add_steal(1);
                    self.shared.counters.add_stolen_tasks(1 + rest.len() as u64);
                    let mut overflow = Vec::new();
                    if !rest.is_empty() {
                        rest.reverse();
                        overflow = self.shared.deques[self.id].push_batch(rest);
                    }
                    self.run_one(first);
                    // Rejected surplus is in nobody's deque: run it now,
                    // reversed back to oldest-first, even if `done` flipped.
                    for task in overflow.into_iter().rev() {
                        self.run_one(task);
                    }
                }
            }
        }
    }
}

fn worker_loop<D: WorkDeque>(id: usize, shared: Arc<Shared<D>>) {
    let mut rng: u64 = 0x9E3779B97F4A7C15u64.wrapping_mul(id as u64 + 1) | 1;
    let n = shared.deques.len();
    loop {
        // Drain own deque first (LIFO). A panicking task poisons this
        // worker: it exits immediately, leaving its deque for thieves.
        while let Some(task) = shared.deques[id].pop() {
            if !execute::<D>(id, &shared, task) {
                abandon::<D>(id, &shared);
                return;
            }
        }
        // Steal from a random victim.
        if shared.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let victim = (rng as usize) % n;
        if victim != id {
            // Steal up to half the victim's tasks in one batch, run the
            // oldest, and queue the surplus locally so the next pops (and
            // rival thieves) find work without another steal.
            let mut stolen = shared.deques[victim].steal_half().into_iter();
            match stolen.next() {
                None => {
                    shared.counters.add_steal_miss(1);
                    std::hint::spin_loop();
                }
                Some(first) => {
                    let mut rest: Vec<Task> = stolen.collect();
                    shared.counters.add_steal(1);
                    shared.counters.add_stolen_tasks(1 + rest.len() as u64);
                    let mut overflow = Vec::new();
                    if !rest.is_empty() {
                        // Reversed, so the owner's LIFO pops run the
                        // re-queued tasks oldest-first (preserving the
                        // FIFO order they were stolen in).
                        rest.reverse();
                        overflow = shared.deques[id].push_batch(rest);
                    }
                    let mut alive = execute::<D>(id, &shared, first);
                    // Bounded deque full: run the rejected tail inline,
                    // after `first` and reversed back to oldest-first, so
                    // the stolen half still executes oldest-first. Even a
                    // poisoned worker finishes the batch it already popped
                    // — these tasks are in nobody's deque, so dying here
                    // would silently drop them.
                    for task in overflow.into_iter().rev() {
                        alive &= execute::<D>(id, &shared, task);
                    }
                    if !alive {
                        abandon::<D>(id, &shared);
                        return;
                    }
                }
            }
        }
    }
}

/// Publishes a dying worker's privately buffered tasks (two-level
/// deques' tiers, plus any mid-spill staged chunk) so survivors can
/// steal them — otherwise `pending` never reaches zero and the other
/// workers spin forever. Tasks the shared level rejects (bounded and
/// full) are in nobody's deque, so even a poisoned worker must run them
/// before exiting, mirroring the stolen-batch overflow policy above.
fn abandon<D: WorkDeque>(id: usize, shared: &Arc<Shared<D>>) {
    for task in shared.deques[id].flush_local() {
        shared.counters.add_overflow_inline(1);
        let _ = execute::<D>(id, shared, task);
    }
}

/// Runs one task, converting a panic into a recorded death. Returns
/// `false` if the task panicked. `pending` is decremented either way:
/// the task is *finished*, just not successfully.
fn run_task<D>(
    shared: &Shared<D>,
    task: Task,
    handle: &WorkerHandle<'_, DynDeque>,
) -> bool {
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(handle)));
    shared.pending.fetch_sub(1, Ordering::AcqRel);
    shared.counters.add_task_executed(1);
    match outcome {
        Ok(()) => true,
        Err(payload) => {
            shared.record_panic(payload);
            false
        }
    }
}

/// Executes `task` on worker `id`. Returns `false` if `task` — or any
/// subtask it forced inline through a full bounded deque, or ran while
/// helping a `join` — panicked, in which case the caller must treat the
/// worker as dead.
fn execute<D: WorkDeque>(id: usize, shared: &Arc<Shared<D>>, task: Task) -> bool {
    let poisoned = AtomicBool::new(false);
    let ctx = Ctx {
        id,
        shared,
        poisoned: &poisoned,
        rng: Cell::new(0x9E3779B97F4A7C15u64.wrapping_mul(id as u64 + 1) | 1),
    };
    let ok = run_task(shared, task, &WorkerHandle::new(&ctx));
    ok && !poisoned.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deques::{
        AbpWorkDeque, ArrayWorkDeque, ListWorkDeque, MutexWorkDeque, TieredChaseLevWorkDeque,
    };
    use std::sync::atomic::AtomicU64;

    fn tree_count<D: WorkDeque>(workers: usize, depth: u32) -> u64 {
        let leaves = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<D> = Scheduler::new(workers);
        let l = leaves.clone();
        sched.run(move |w| spawn_tree(w, depth, l));
        leaves.load(Ordering::SeqCst)
    }

    fn spawn_tree(
        w: &WorkerHandle<'_, DynDeque>,
        depth: u32,
        leaves: Arc<AtomicU64>,
    ) {
        if depth == 0 {
            leaves.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let l = leaves.clone();
        w.spawn(move |w| spawn_tree(w, depth - 1, l));
        let r = leaves.clone();
        w.spawn(move |w| spawn_tree(w, depth - 1, r));
    }

    #[test]
    fn list_deque_tree() {
        assert_eq!(tree_count::<ListWorkDeque>(4, 12), 1 << 12);
    }

    #[test]
    fn array_deque_tree() {
        assert_eq!(tree_count::<ArrayWorkDeque>(4, 12), 1 << 12);
    }

    #[test]
    fn abp_deque_tree() {
        assert_eq!(tree_count::<AbpWorkDeque>(4, 12), 1 << 12);
    }

    #[test]
    fn mutex_deque_tree() {
        assert_eq!(tree_count::<MutexWorkDeque>(4, 12), 1 << 12);
    }

    #[test]
    fn single_worker_runs_everything() {
        assert_eq!(tree_count::<ListWorkDeque>(1, 10), 1 << 10);
    }

    #[test]
    fn tiered_single_worker_runs_everything() {
        assert_eq!(tree_count::<TieredChaseLevWorkDeque>(1, 10), 1 << 10);
    }

    #[test]
    fn tiered_worker_death_publishes_ring() {
        // Worker poisoning must not strand tier-buffered tasks: one task
        // panics after forking a deep tree; the run still terminates and
        // counts every remaining leaf. (Without the death-flush this
        // hangs: `pending` can never reach zero.)
        let leaves = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<TieredChaseLevWorkDeque> = Scheduler::new(3);
        let l = leaves.clone();
        let report = sched.run_report(move |w| {
            for _ in 0..4 {
                let l = l.clone();
                w.spawn(move |w| spawn_tree(w, 8, l));
            }
            w.spawn(|_| panic!("poison this worker"));
        });
        assert_eq!(report.panics, 1);
        assert_eq!(leaves.load(Ordering::SeqCst), 4 << 8);
    }

    #[test]
    fn tiny_bounded_deque_overflows_inline() {
        // Capacity 2 forces the inline-overflow path constantly.
        let leaves = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<ArrayWorkDeque> = Scheduler::with_capacity(3, 2);
        let l = leaves.clone();
        sched.run(move |w| spawn_tree(w, 10, l));
        assert_eq!(leaves.load(Ordering::SeqCst), 1 << 10);
    }

    #[test]
    fn sequential_dependencies_respected() {
        // A chain of tasks each appending to a shared log; the scheduler
        // guarantees all complete before `run` returns (order is free).
        let log = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(2);
        let l = log.clone();
        sched.run(move |w| {
            for _ in 0..100 {
                let l = l.clone();
                w.spawn(move |_| {
                    l.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(log.load(Ordering::SeqCst), 100);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::deques::{AbpWorkDeque, ListWorkDeque};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn worker_ids_are_in_range() {
        let seen = Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(3);
        let s2 = seen.clone();
        sched.run(move |w| {
            for _ in 0..200 {
                let s3 = s2.clone();
                w.spawn(move |w| {
                    s3[w.worker_id()].fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        let total: usize = seen.iter().map(|c| c.load(Ordering::SeqCst)).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn deeply_sequential_chain() {
        // A chain where each task spawns exactly one successor: no
        // parallelism to exploit, but the scheduler must still terminate
        // with the full count.
        let count = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<AbpWorkDeque> = Scheduler::new(4);
        let c = count.clone();
        fn link(w: &WorkerHandle<'_, DynDeque>, left: u64, c: Arc<AtomicU64>) {
            c.fetch_add(1, Ordering::Relaxed);
            if left > 0 {
                w.spawn(move |w| link(w, left - 1, c));
            }
        }
        sched.run(move |w| link(w, 5_000, c));
        assert_eq!(count.load(Ordering::SeqCst), 5_001);
    }

    #[test]
    fn wide_flat_fanout() {
        // One root spawning many leaves: exercises stealing from a single
        // victim.
        let count = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(4);
        let c = count.clone();
        sched.run(move |w| {
            for _ in 0..20_000 {
                let c = c.clone();
                w.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 20_000);
    }

    #[test]
    fn panicking_task_kills_only_its_worker() {
        // One task panics; the survivors must still finish all other
        // work, and run_report must count exactly one panic.
        let count = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(4);
        let c = count.clone();
        let report = sched.run_report(move |w| {
            for i in 0..2_000 {
                let c = c.clone();
                w.spawn(move |_| {
                    if i == 700 {
                        panic!("injected task panic");
                    }
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(report.panics, 1);
        assert_eq!(report.dropped, 0, "survivors must drain all work");
        assert_eq!(count.load(Ordering::SeqCst), 1_999);
        let payload = report.into_first_panic().expect("payload recorded");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "injected task panic");
    }

    #[test]
    fn run_rethrows_first_panic() {
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sched.run(|w| {
                w.spawn(|_| panic!("boom from task"));
            });
        }))
        .expect_err("run must rethrow the task panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom from task");
    }

    #[test]
    fn all_workers_dead_drops_remaining_tasks() {
        // A single worker that panics on its first task strands the
        // rest; run_report must count (and destruct) the strays rather
        // than hang or leak.
        let count = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(1);
        let c = count.clone();
        let report = sched.run_report(move |w| {
            for _ in 0..10 {
                let c = c.clone();
                w.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            panic!("root dies after spawning");
        });
        assert_eq!(report.panics, 1);
        // LIFO pops mean the 10 spawned tasks were still queued when the
        // root panicked and the lone worker died.
        assert_eq!(report.dropped, 10);
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn multiple_panics_all_counted() {
        let count = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<AbpWorkDeque> = Scheduler::new(4);
        let c = count.clone();
        let report = sched.run_report(move |w| {
            for i in 0..1_000 {
                let c = c.clone();
                w.spawn(move |_| {
                    if i % 400 == 7 {
                        panic!("recurring fault");
                    }
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        // i = 7, 407, 807 panic; up to 3 workers may die, but the fourth
        // survives and completes everything else.
        assert_eq!(report.panics, 3);
        assert_eq!(report.dropped, 0);
        assert_eq!(count.load(Ordering::SeqCst), 997);
    }

    #[test]
    fn run_report_stats_count_tasks() {
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(4);
        let report = sched.run_report(|w| {
            for _ in 0..500 {
                w.spawn(|_| {});
            }
        });
        assert_eq!(report.panics, 0);
        #[cfg(feature = "stats")]
        {
            // Root + 500 spawned tasks, each executed exactly once.
            assert_eq!(report.stats.tasks_executed, 501);
            assert_eq!(
                report.stats.fields()[0],
                ("tasks_executed", report.stats.tasks_executed)
            );
        }
        #[cfg(not(feature = "stats"))]
        assert_eq!(report.stats, SchedStats::default());
    }

    #[test]
    fn run_twice_reuses_scheduler() {
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(2);
        for round in 0..3u64 {
            let count = Arc::new(AtomicU64::new(0));
            let c = count.clone();
            sched.run(move |w| {
                for _ in 0..100 {
                    let c = c.clone();
                    w.spawn(move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(count.load(Ordering::SeqCst), 100, "round {round}");
        }
    }
}

#[cfg(test)]
mod forkjoin_tests {
    use super::*;
    use crate::deques::{ListWorkDeque, TieredChaseLevWorkDeque};
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    fn fib_seq(n: u64) -> u64 {
        if n < 2 { n } else { fib_seq(n - 1) + fib_seq(n - 2) }
    }

    fn fib(w: &WorkerHandle<'_, DynDeque>, n: u64) -> u64 {
        if n < 10 {
            return fib_seq(n);
        }
        let (a, b) = w.join(|w| fib(w, n - 1), |w| fib(w, n - 2));
        a + b
    }

    #[test]
    fn join_fib_on_list_deque() {
        let out = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(4);
        let o = out.clone();
        sched.run(move |w| {
            o.store(fib(w, 20), Ordering::SeqCst);
        });
        assert_eq!(out.load(Ordering::SeqCst), 6765);
    }

    #[test]
    fn join_fib_on_chaselev_tier() {
        let out = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<TieredChaseLevWorkDeque> = Scheduler::new(4);
        let o = out.clone();
        sched.run(move |w| {
            o.store(fib(w, 22), Ordering::SeqCst);
        });
        assert_eq!(out.load(Ordering::SeqCst), 17711);
    }

    #[test]
    fn chaselev_tier_tree() {
        // The classic spawn-tree also runs on the Chase-Lev tier.
        let leaves = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<TieredChaseLevWorkDeque> = Scheduler::new(4);
        let l = leaves.clone();
        fn tree(w: &WorkerHandle<'_, DynDeque>, depth: u32, l: Arc<AtomicU64>) {
            if depth == 0 {
                l.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let a = l.clone();
            w.spawn(move |w| tree(w, depth - 1, a));
            let b = l;
            w.spawn(move |w| tree(w, depth - 1, b));
        }
        sched.run(move |w| tree(w, 12, l));
        assert_eq!(leaves.load(Ordering::SeqCst), 1 << 12);
    }

    fn quicksort(w: &WorkerHandle<'_, DynDeque>, v: &mut [u64]) {
        if v.len() <= 16 {
            v.sort_unstable();
            return;
        }
        let pivot = v[v.len() / 2];
        // Lomuto partition: `[0, i)` < pivot, `[i, len)` >= pivot.
        let mut i = 0;
        for j in 0..v.len() {
            if v[j] < pivot {
                v.swap(i, j);
                i += 1;
            }
        }
        if i == 0 {
            // Pivot is the minimum: park every copy of it at the front
            // (already in final position) so the recursion shrinks.
            for j in 0..v.len() {
                if v[j] == pivot {
                    v.swap(i, j);
                    i += 1;
                }
            }
            quicksort(w, &mut v[i..]);
            return;
        }
        let (lo, hi) = v.split_at_mut(i);
        w.join(|w| quicksort(w, lo), |w| quicksort(w, hi));
    }

    #[test]
    fn join_quicksort_borrowed_slices() {
        // join's scoped closures let the two halves borrow disjoint
        // &mut sub-slices of one Vec — only the root task needs 'static,
        // so the Vec rides in behind an Arc<Mutex<..>> and every split
        // below it is a plain reborrow.
        let v: Vec<u64> =
            (0..4096u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 32).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        let data = Arc::new(std::sync::Mutex::new(v));
        let sched: Scheduler<TieredChaseLevWorkDeque> = Scheduler::new(4);
        let d = data.clone();
        sched.run(move |w| {
            let mut guard = d.lock().unwrap();
            quicksort(w, &mut guard[..]);
        });
        assert_eq!(*data.lock().unwrap(), expect);
    }

    #[test]
    fn join_runs_both_closures_once() {
        let a_runs = Arc::new(AtomicUsize::new(0));
        let b_runs = Arc::new(AtomicUsize::new(0));
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(2);
        let (ar, br) = (a_runs.clone(), b_runs.clone());
        sched.run(move |w| {
            let (ra, rb) = w.join(
                |_| {
                    ar.fetch_add(1, Ordering::Relaxed);
                    11u32
                },
                |_| {
                    br.fetch_add(1, Ordering::Relaxed);
                    22u32
                },
            );
            assert_eq!((ra, rb), (11, 22));
        });
        assert_eq!(a_runs.load(Ordering::SeqCst), 1);
        assert_eq!(b_runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn join_propagates_b_panic_to_joiner() {
        // A panic in the forked side must surface in the joiner's task,
        // not kill a random helper, and be counted exactly once.
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(3);
        let report = sched.run_report(|w| {
            let _ = w.join(|_| 1u32, |_| -> u32 { panic!("b dies") });
            unreachable!("join must rethrow b's panic");
        });
        assert_eq!(report.panics, 1);
    }

    #[test]
    fn join_prefers_a_panic_over_b() {
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(2);
        let report = sched.run_report(|w| {
            let _ = w.join(
                |_| -> u32 { panic!("a dies") },
                |_| -> u32 { panic!("b dies") },
            );
        });
        // Exactly one task records a panic: b's unwinds into the join
        // slot (never reaching the scheduler), and the joiner rethrows
        // a's payload after waiting for b to come to rest.
        assert_eq!(report.panics, 1);
        let payload = report.into_first_panic().expect("payload recorded");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "a dies", "joiner must rethrow a's panic first");
    }

    #[test]
    fn join_nested_under_dead_workers() {
        // Poison two of four workers, then run a join-heavy workload on
        // the survivors; it must still complete with the right answer.
        let out = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<TieredChaseLevWorkDeque> = Scheduler::new(4);
        let o = out.clone();
        let report = sched.run_report(move |w| {
            w.spawn(|_| panic!("die 1"));
            w.spawn(|_| panic!("die 2"));
            let r = fib(w, 18);
            o.store(r, Ordering::SeqCst);
        });
        assert_eq!(report.panics, 2);
        assert_eq!(out.load(Ordering::SeqCst), 2584);
    }

    #[test]
    fn continuation_diamond() {
        // Diamond dependency: two parallel arms, a continuation that runs
        // only after both finish.
        let sum = Arc::new(AtomicU64::new(0));
        let after = Arc::new(AtomicU64::new(0));
        let sched: Scheduler<ListWorkDeque> = Scheduler::new(3);
        let (s, a) = (sum.clone(), after.clone());
        sched.run(move |w| {
            let s2 = s.clone();
            let a2 = a.clone();
            let cont = Continuation::new(2, move |_| {
                // Both arms are done: their sum is stable.
                a2.store(s2.load(Ordering::SeqCst), Ordering::SeqCst);
            });
            for add in [3u64, 39] {
                let s = s.clone();
                let cont = cont.clone();
                w.spawn(move |w| {
                    s.fetch_add(add, Ordering::SeqCst);
                    cont.finish(w);
                });
            }
        });
        assert_eq!(after.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn continuation_many_dependencies() {
        let fired = Arc::new(AtomicUsize::new(0));
        let sched: Scheduler<TieredChaseLevWorkDeque> = Scheduler::new(4);
        let f = fired.clone();
        sched.run(move |w| {
            let f2 = f.clone();
            let cont = Continuation::new(64, move |_| {
                f2.fetch_add(1, Ordering::SeqCst);
            });
            for _ in 0..64 {
                let cont = cont.clone();
                w.spawn(move |w| cont.finish(w));
            }
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }
}
