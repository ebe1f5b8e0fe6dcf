//! Type-stable page-pool node allocator: allocation-free node churn.
//!
//! PR 1 took the global heap off the MCAS *descriptor* path; this module
//! does the same for the linked deques' *nodes*, modeled on the
//! `free_access` per-thread page-pool allocator. Every pool hands out
//! fixed-size slots carved from 4096-byte, 4096-aligned **pages**:
//!
//! * **Page-local free lists.** A freed slot goes back onto *its own
//!   page's* free list (an intrusive stack threaded through the slots'
//!   first words), and each thread allocates from one page at a time —
//!   fresh pages are carved by a bump cursor, recycled pages are
//!   consumed until dry before moving on. Keeping recycling
//!   page-granular is what preserves address locality under churn:
//!   nodes allocated together stay together, the way `malloc`'s
//!   consolidation re-carves freed chunks sequentially. (The first cut
//!   of this module used one flat free stack per thread; it scrambled
//!   slot order permanently, and on DRAM-resident working sets the
//!   pool *lost* to `malloc` by 40%.)
//! * **Cross-thread frees.** Deque nodes are allocated by the pusher but
//!   retired on the popper's thread. A free whose slot belongs to a page
//!   owned by another thread is pushed onto that page's MPSC **remote
//!   return stack**, and the first push onto an empty stack enqueues the
//!   page on the pool's **pending stack** (flag-guarded so a page holds
//!   at most one ticket). A refill pops the pending stack and drains
//!   exactly the notified pages — O(pages with remote frees), not
//!   O(pages owned), which matters once a long-lived thread owns
//!   thousands of pages.
//! * **Page registry + orphan adoption.** Every page is pushed onto its
//!   pool's lock-free registry at birth and lives forever (pages are
//!   never returned to the OS — that immortality is what makes the
//!   memory *type-stable*). When a thread exits, its TLS destructor
//!   parks its page-local free slots (and the unbroken carve window) on
//!   their pages' remote stacks and pushes the pages onto an orphan
//!   stack; any thread that misses a refill adopts an orphan before
//!   allocating a fresh page.
//! * **Census gauges.** `pages_allocated` (monotonic — pages are
//!   immortal, so the count *is* the high-water mark), striped
//!   `nodes_outstanding` alloc/free counters, and a `remote_frees`
//!   counter, per pool and aggregated over all pools for
//!   [`StrategyStats`](crate::StrategyStats) export.
//!
//! # Quarantine: why recycling is sound under hazard validation
//!
//! The deques free nodes exclusively through
//! [`ReclaimGuard::retire`](crate::ReclaimGuard::retire), so a slot
//! re-enters circulation only after the backend's grace period (epoch)
//! or a hazard scan proves no protected reference remains — exactly the
//! point at which `Box::from_raw` would have been legal. Recycling
//! therefore introduces no lifetime race a heap-allocated node would
//! not already have. What it *does* introduce is benign ABA reads: a hazard
//! validator may hold a stale pointer into a slot that has since been
//! recycled and republished, and its announce-and-validate probe reads
//! the slot's link/value words before discovering the mismatch. Two
//! invariants keep those reads defined behavior:
//!
//! 1. pages are never unmapped, so the stale pointer always targets
//!    live memory of the same node type (type stability), and
//! 2. every word a validator can touch is only ever accessed
//!    atomically — including this module's intrusive remote-stack
//!    links, which are written through `AtomicUsize` so a store racing
//!    a stale validator's load is a race by contract, not UB.
//!
//! Callers must uphold (2) on their side: reinitialize recycled slots
//! through the node's own atomic fields (or fields no validator reads),
//! never via a non-atomic `ptr::write` over the whole node.

use std::alloc::Layout;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crate::stripe::Striped;

/// Size and alignment of every pool page. The power-of-two alignment is
/// load-bearing: [`NodePool::dealloc`] recovers a slot's page header
/// by masking the slot address with `!(PAGE_SIZE - 1)`.
pub const PAGE_SIZE: usize = 4096;

/// Bytes reserved at the start of each page for the [`PageHeader`];
/// slots start at this offset. 128 keeps the first slot cache-line
/// aligned for any node alignment the deques use (all ≤ 128 and all
/// powers of two, so they divide 128).
const HEADER_RESERVED: usize = 128;

/// Maximum number of distinct pools a process can create. Four deque
/// node pools exist in product code; the headroom is for tests.
pub const MAX_POOLS: usize = 16;

const UNASSIGNED: usize = usize::MAX;
const CLAIMING: usize = usize::MAX - 1;

/// Owner id marking a page whose owning thread has exited; the page is
/// (or is about to be) on the orphan stack awaiting adoption.
const ORPHAN: u64 = u64::MAX;

// ---------------------------------------------------------------------
// Pages.
// ---------------------------------------------------------------------

/// Metadata at the head of every page. Reached from any slot pointer by
/// address masking, so frees need no context beyond the pointer itself —
/// which is what lets a pool free run inside a context-free
/// `unsafe fn(*mut u8)` reclaimer dtor.
struct PageHeader {
    /// Back-pointer to the owning pool (always a `&'static`).
    pool: *const NodePool,
    /// Monotonic id of the owning thread, or [`ORPHAN`].
    owner: AtomicU64,
    /// Head of the MPSC remote-free Treiber stack (slot addresses, next
    /// links threaded through the slots' first words).
    remote_head: AtomicUsize,
    /// Head of the page-local free stack (same intrusive encoding).
    /// Owner-only, so plain `Relaxed` loads and stores suffice; it is
    /// still an atomic because ownership hands over on adoption.
    local_head: AtomicUsize,
    /// Whether the page currently sits in its owner's `partial` list.
    /// Owner-only (the owner's alloc and local-free paths are the only
    /// writers, and they run on one thread).
    in_partial: bool,
    /// Whether the page currently holds a ticket in (or popped from)
    /// the pool's pending stack; see [`remote_push`] for the protocol.
    pending: AtomicBool,
    /// Intrusive link in the pool's pending stack. Only the ticket
    /// holder may relink it, so single-ticket keeps it unaliased.
    pending_next: AtomicUsize,
    /// Intrusive link in the pool's all-pages registry (set once).
    registry_next: AtomicUsize,
    /// Intrusive link in the pool's orphan stack.
    orphan_next: AtomicUsize,
}

// ---------------------------------------------------------------------
// Thread-local caches.
// ---------------------------------------------------------------------

struct LocalCache {
    /// Pool this slot of the cache array belongs to (null until used).
    pool: *const NodePool,
    /// Owned pages with (possibly) non-empty local free lists; alloc
    /// consumes the most recently pushed page until it runs dry.
    partial: Vec<*mut PageHeader>,
    /// Bump cursor into the current fresh page (`carve == carve_end`
    /// when exhausted); fresh slots are handed out address-ascending.
    carve: *mut u8,
    carve_end: *mut u8,
    /// Every page this thread owns (orphaned wholesale on TLS death).
    owned: Vec<*mut PageHeader>,
}

impl LocalCache {
    const fn new() -> Self {
        LocalCache {
            pool: std::ptr::null(),
            partial: Vec::new(),
            carve: std::ptr::null_mut(),
            carve_end: std::ptr::null_mut(),
            owned: Vec::new(),
        }
    }
}

struct LocalCaches {
    thread_id: u64,
    caches: [LocalCache; MAX_POOLS],
}

impl LocalCaches {
    fn new() -> Self {
        /// Monotonic, never reused: a dead thread's id can never be
        /// confused with a live one during the owner check in `dealloc`.
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
        LocalCaches {
            thread_id: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            caches: [const { LocalCache::new() }; MAX_POOLS],
        }
    }
}

impl Drop for LocalCaches {
    fn drop(&mut self) {
        for cache in &mut self.caches {
            if cache.pool.is_null() {
                continue;
            }
            let pool = unsafe { &*cache.pool };
            // Park the unbroken carve window on its page's remote stack
            // so the adopter finds it.
            while cache.carve < cache.carve_end {
                unsafe { remote_push(page_of(cache.carve), cache.carve) };
                cache.carve = unsafe { cache.carve.add(pool.stride) };
            }
            // Move each page's local free list to its remote stack
            // (local lists are owner-only and the owner is dying), then
            // orphan the pages themselves.
            for &page in &cache.owned {
                let mut cur = unsafe { (*page).local_head.load(Ordering::Relaxed) };
                unsafe { (*page).local_head.store(0, Ordering::Relaxed) };
                while cur != 0 {
                    let next = unsafe { (*(cur as *const AtomicUsize)).load(Ordering::Relaxed) };
                    unsafe { remote_push(page, cur as *mut u8) };
                    cur = next;
                }
                unsafe { (*page).in_partial = false };
                unsafe { (*page).owner.store(ORPHAN, Ordering::Release) };
                pool.push_orphan(page);
            }
        }
    }
}

thread_local! {
    static CACHES: RefCell<LocalCaches> = RefCell::new(LocalCaches::new());
}

#[inline]
fn page_of(slot: *mut u8) -> *mut PageHeader {
    ((slot as usize) & !(PAGE_SIZE - 1)) as *mut PageHeader
}

/// Pushes `slot` onto `page`'s remote-free MPSC stack and, if the page
/// does not already hold a pending ticket, enqueues it on the pool's
/// pending stack so the owner's next refill finds it without scanning.
///
/// The flag/ticket protocol (Vyukov-style): a pusher that flips
/// `pending` false→true pushes the one ticket; a refill that pops the
/// ticket for a page it owns clears the flag **before** draining, so a
/// racing pusher either gets its slot drained or sees the cleared flag
/// and issues a fresh ticket. A ticket popped for a page owned by
/// someone else (or mid-adoption) is re-pushed untouched — the flag
/// stays true, so the page never holds two tickets and the intrusive
/// `pending_next` link is never aliased.
///
/// # Safety
///
/// `slot` must be a quarantined slot of `page`: no thread may allocate
/// it concurrently, and any stale reader still probing it must do so
/// atomically (the type-stability contract).
unsafe fn remote_push(page: *mut PageHeader, slot: *mut u8) {
    // The intrusive next link lives in the slot's first word and is
    // written atomically: a stale hazard validator may concurrently
    // (and harmlessly) load this word as the node's first field.
    let link = unsafe { &*(slot as *const AtomicUsize) };
    let head = unsafe { &(*page).remote_head };
    let mut cur = head.load(Ordering::Relaxed);
    loop {
        link.store(cur, Ordering::Relaxed);
        match head.compare_exchange_weak(cur, slot as usize, Ordering::Release, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => cur = actual,
        }
    }
    if !unsafe { &(*page).pending }.swap(true, Ordering::SeqCst) {
        unsafe { &*(*page).pool }.push_pending(page);
    }
}

/// Claims `page`'s remote-free stack as its local free list (one
/// pointer move — the intrusive encodings are identical).
///
/// # Safety
///
/// Caller must own `page` (be its `owner`, or hold it exclusively
/// before publication), so no other thread drains concurrently, and the
/// page's local list must be empty.
unsafe fn remote_splice(page: *mut PageHeader) -> bool {
    let batch = unsafe { (*page).remote_head.swap(0, Ordering::SeqCst) };
    if batch == 0 {
        return false;
    }
    debug_assert_eq!(unsafe { (*page).local_head.load(Ordering::Relaxed) }, 0);
    unsafe { (*page).local_head.store(batch, Ordering::Relaxed) };
    true
}

// ---------------------------------------------------------------------
// The pool.
// ---------------------------------------------------------------------

/// Registry of every pool that has allocated at least once, indexed by
/// pool id — the aggregation surface for the global census.
static POOLS: [AtomicPtr<NodePool>; MAX_POOLS] =
    [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_POOLS];

/// A fixed-slot-size, type-stable page-pool allocator.
///
/// One static instance per node type; see the module docs for the
/// design. `alloc`/`dealloc` are the whole hot-path API — everything
/// else is census.
pub struct NodePool {
    /// Short name for census/debug output.
    name: &'static str,
    /// Slot stride: node size rounded up to node alignment.
    stride: usize,
    /// Index into the TLS cache array and [`POOLS`]; assigned on first
    /// allocation.
    id: AtomicUsize,
    /// All-pages registry head (push-only Treiber stack).
    registry: AtomicUsize,
    /// Pages with un-drained remote frees (ticketed; see [`remote_push`]).
    pending: AtomicUsize,
    /// Orphaned-pages stack head.
    orphans: AtomicUsize,
    /// Pages ever allocated. Monotonic: pages are immortal, so this is
    /// also the pages high-water mark.
    pages: AtomicU64,
    allocs: Striped<AtomicU64>,
    frees: Striped<AtomicU64>,
    remote: Striped<AtomicU64>,
}

// SAFETY: the raw page pointers inside are only ever dereferenced
// through the atomics in their headers or under the ownership protocol
// described in the module docs.
unsafe impl Sync for NodePool {}

impl NodePool {
    /// Creates a pool for slots of `size` bytes aligned to `align`.
    ///
    /// # Panics
    ///
    /// Const-panics unless `8 ≤ align ≤ 128`, both are powers of two
    /// constraints the deque node types all satisfy, and a page fits at
    /// least one slot.
    pub const fn new(name: &'static str, size: usize, align: usize) -> Self {
        assert!(align.is_power_of_two() && align >= 8 && align <= HEADER_RESERVED);
        // Round the stride up so consecutive slots stay aligned; the
        // first word of a slot doubles as the remote-stack link, hence
        // the ≥ 8 floor.
        let stride = size.div_ceil(align) * align;
        assert!(stride >= 8 && stride <= PAGE_SIZE - HEADER_RESERVED);
        NodePool {
            name,
            stride,
            id: AtomicUsize::new(UNASSIGNED),
            registry: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            orphans: AtomicUsize::new(0),
            pages: AtomicU64::new(0),
            allocs: Striped::zero(),
            frees: Striped::zero(),
            remote: Striped::zero(),
        }
    }

    /// Pool name (census/debug).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Slots carved from each page after the header.
    pub fn nodes_per_page(&self) -> u64 {
        ((PAGE_SIZE - HEADER_RESERVED) / self.stride) as u64
    }

    /// Slot stride in bytes: the node size rounded up to its alignment.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Pages this pool has ever allocated. Pages are immortal, so this
    /// is simultaneously the current count and the high-water mark.
    pub fn pages_allocated(&self) -> u64 {
        self.pages.load(Ordering::Relaxed)
    }

    /// Slots currently allocated out of this pool (racy snapshot).
    pub fn nodes_outstanding(&self) -> u64 {
        self.allocs.sum().saturating_sub(self.frees.sum())
    }

    /// Frees that landed on a remote page's return stack instead of the
    /// freeing thread's local list.
    pub fn remote_frees(&self) -> u64 {
        self.remote.sum()
    }

    /// Allocates one slot.
    ///
    /// The returned memory is **not** fresh: it is zeroed on the page's
    /// first grab and thereafter retains whatever the previous occupant
    /// left (minus the first word, which the remote-return path may
    /// have overwritten). Callers must reinitialize every field, and —
    /// per the module-level quarantine contract — must do so through
    /// the node's atomic fields for any word a stale validator could
    /// probe.
    pub fn alloc(&'static self) -> *mut u8 {
        self.allocs.inc();
        CACHES
            .try_with(|c| match c.try_borrow_mut() {
                Ok(mut caches) => Some(self.alloc_cached(&mut caches)),
                Err(_) => None,
            })
            .unwrap_or(None)
            // TLS gone (thread teardown) or re-entered: take the
            // orphan-page slow path, which needs no thread identity.
            .unwrap_or_else(|| self.alloc_orphan_slow())
    }

    fn alloc_cached(&'static self, caches: &mut LocalCaches) -> *mut u8 {
        let thread_id = caches.thread_id;
        let cache = &mut caches.caches[self.id()];
        if cache.pool.is_null() {
            cache.pool = self;
        }
        debug_assert!(std::ptr::eq(cache.pool, self));
        // Fast path 1: recycled slots, one page at a time (most recently
        // refilled page first — its slots are the warmest).
        while let Some(&page) = cache.partial.last() {
            let slot = unsafe { (*page).local_head.load(Ordering::Relaxed) };
            if slot != 0 {
                let next = unsafe { (*(slot as *const AtomicUsize)).load(Ordering::Relaxed) };
                unsafe { (*page).local_head.store(next, Ordering::Relaxed) };
                return slot as *mut u8;
            }
            unsafe { (*page).in_partial = false };
            cache.partial.pop();
        }
        // Fast path 2: bump-carve the current fresh page.
        if cache.carve < cache.carve_end {
            let slot = cache.carve;
            cache.carve = unsafe { cache.carve.add(self.stride) };
            return slot;
        }
        // Refill 1: drain the pages whose remote stacks were ticketed
        // non-empty — exactly those, never a scan of everything owned.
        let mut ticket = self.pending.swap(0, Ordering::SeqCst);
        while ticket != 0 {
            let page = ticket as *mut PageHeader;
            ticket = unsafe { (*page).pending_next.load(Ordering::Relaxed) };
            if unsafe { (*page).owner.load(Ordering::Relaxed) } == thread_id {
                // Clear before draining: a pusher racing the drain
                // either lands in the batch or re-tickets the page.
                unsafe { (*page).pending.store(false, Ordering::SeqCst) };
                if unsafe { remote_splice(page) } && !unsafe { (*page).in_partial } {
                    unsafe { (*page).in_partial = true };
                    cache.partial.push(page);
                }
            } else {
                // Someone else's notification (another owner, or a page
                // awaiting adoption): pass the ticket along untouched.
                self.push_pending(page);
            }
        }
        if let Some(&page) = cache.partial.last() {
            let slot = unsafe { (*page).local_head.load(Ordering::Relaxed) };
            debug_assert_ne!(slot, 0, "ticketed page spliced an empty batch");
            let next = unsafe { (*(slot as *const AtomicUsize)).load(Ordering::Relaxed) };
            unsafe { (*page).local_head.store(next, Ordering::Relaxed) };
            return slot as *mut u8;
        }
        // Refill 2: adopt orphaned pages (their remote stacks hold the
        // free slots their dead owner parked there). The orphan's
        // pending ticket, if any, keeps circulating until it reaches
        // us — adoption drains without touching the flag.
        while let Some(page) = self.pop_orphan() {
            unsafe { (*page).owner.store(thread_id, Ordering::Release) };
            cache.owned.push(page);
            if unsafe { remote_splice(page) } {
                unsafe { (*page).in_partial = true };
                cache.partial.push(page);
                let slot = unsafe { (*page).local_head.load(Ordering::Relaxed) };
                let next = unsafe { (*(slot as *const AtomicUsize)).load(Ordering::Relaxed) };
                unsafe { (*page).local_head.store(next, Ordering::Relaxed) };
                return slot as *mut u8;
            }
        }
        // Refill 3: a fresh page, carved by the bump cursor.
        let page = self.new_page(thread_id);
        cache.owned.push(page);
        let base = (page as usize + HEADER_RESERVED) as *mut u8;
        cache.carve = unsafe { base.add(self.stride) };
        cache.carve_end = unsafe { base.add(self.nodes_per_page() as usize * self.stride) };
        base
    }

    /// Allocation without thread identity: carve a fresh page, keep one
    /// slot, park the rest on the page's own remote stack, and orphan
    /// the page so a live thread adopts it later. Only reached during
    /// thread teardown, so the page-per-call cost cannot recur hotly.
    fn alloc_orphan_slow(&'static self) -> *mut u8 {
        let page = self.new_page(ORPHAN);
        let mut keep: *mut u8 = std::ptr::null_mut();
        self.for_each_slot(page, |slot| {
            if keep.is_null() {
                keep = slot;
            } else {
                unsafe { remote_push(page, slot) };
            }
        });
        self.push_orphan(page);
        keep
    }

    /// Frees a slot previously returned by [`Self::alloc`] on any pool.
    ///
    /// An associated function, not a method: the owning pool is
    /// recovered from the pointer itself (page-mask → header), so this
    /// fits the `Reclaimer` dtor shape `unsafe fn(*mut u8)`.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from [`Self::alloc`], must not be freed
    /// twice, and must be quarantined: no thread may still acquire new
    /// references to it (stale atomic probes are fine — that is the
    /// type-stability contract).
    pub unsafe fn dealloc(ptr: *mut u8) {
        let page = page_of(ptr);
        let pool = unsafe { &*(*page).pool };
        pool.frees.inc();
        let owner = unsafe { (*page).owner.load(Ordering::Relaxed) };
        let local = CACHES
            .try_with(|c| match c.try_borrow_mut() {
                Ok(mut caches) if owner == caches.thread_id => {
                    // Owner check is stable: only this thread (or its
                    // TLS destructor, which is not concurrent with us)
                    // can change the owner of a page it owns. Push the
                    // slot back onto its own page's free list so
                    // recycling stays page-clustered.
                    let cache = &mut caches.caches[pool.id()];
                    let head = unsafe { (*page).local_head.load(Ordering::Relaxed) };
                    unsafe { (*(ptr as *const AtomicUsize)).store(head, Ordering::Relaxed) };
                    unsafe { (*page).local_head.store(ptr as usize, Ordering::Relaxed) };
                    if !unsafe { (*page).in_partial } {
                        unsafe { (*page).in_partial = true };
                        cache.partial.push(page);
                    }
                    true
                }
                _ => false,
            })
            .unwrap_or(false);
        if !local {
            unsafe { remote_push(page, ptr) };
            pool.remote.inc();
        }
    }

    /// This pool's id, assigning (and registering the pool) on first use.
    fn id(&'static self) -> usize {
        let id = self.id.load(Ordering::Acquire);
        if id < MAX_POOLS {
            return id;
        }
        self.assign_id()
    }

    #[cold]
    fn assign_id(&'static self) -> usize {
        static NEXT_POOL: AtomicUsize = AtomicUsize::new(0);
        if self
            .id
            .compare_exchange(UNASSIGNED, CLAIMING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let id = NEXT_POOL.fetch_add(1, Ordering::Relaxed);
            assert!(id < MAX_POOLS, "more than {MAX_POOLS} node pools created");
            POOLS[id].store(self as *const _ as *mut NodePool, Ordering::Release);
            self.id.store(id, Ordering::Release);
            return id;
        }
        // Another thread is assigning; wait for the real id.
        loop {
            let id = self.id.load(Ordering::Acquire);
            if id < MAX_POOLS {
                return id;
            }
            std::hint::spin_loop();
        }
    }

    fn new_page(&'static self, owner: u64) -> *mut PageHeader {
        // PAGE_SIZE alignment so slot pointers mask back to the header.
        let layout = Layout::from_size_align(PAGE_SIZE, PAGE_SIZE).expect("static page layout");
        // Zeroed: every slot word must be a valid atomic value from the
        // moment the page can be probed (type stability).
        let mem = unsafe { std::alloc::alloc_zeroed(layout) };
        assert!(!mem.is_null(), "page-pool page allocation failed");
        let page = mem.cast::<PageHeader>();
        unsafe {
            page.write(PageHeader {
                pool: self,
                owner: AtomicU64::new(owner),
                remote_head: AtomicUsize::new(0),
                local_head: AtomicUsize::new(0),
                in_partial: false,
                pending: AtomicBool::new(false),
                pending_next: AtomicUsize::new(0),
                registry_next: AtomicUsize::new(0),
                orphan_next: AtomicUsize::new(0),
            });
        }
        // Publish into the all-pages registry (push-only).
        let mut head = self.registry.load(Ordering::Relaxed);
        loop {
            unsafe { (*page).registry_next.store(head, Ordering::Relaxed) };
            match self.registry.compare_exchange_weak(
                head,
                page as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => head = actual,
            }
        }
        self.pages.fetch_add(1, Ordering::Relaxed);
        page
    }

    fn for_each_slot(&self, page: *mut PageHeader, mut f: impl FnMut(*mut u8)) {
        let base = page as usize + HEADER_RESERVED;
        for i in 0..self.nodes_per_page() as usize {
            f((base + i * self.stride) as *mut u8);
        }
    }

    /// Pushes a ticketed page onto the pending stack. Caller must hold
    /// the page's single ticket (it flipped `pending` false→true, or it
    /// popped the page off this stack and is passing the ticket along).
    fn push_pending(&self, page: *mut PageHeader) {
        let mut head = self.pending.load(Ordering::Relaxed);
        loop {
            unsafe { (*page).pending_next.store(head, Ordering::Relaxed) };
            match self.pending.compare_exchange_weak(
                head,
                page as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    fn push_orphan(&self, page: *mut PageHeader) {
        let mut head = self.orphans.load(Ordering::Relaxed);
        loop {
            unsafe { (*page).orphan_next.store(head, Ordering::Relaxed) };
            match self.orphans.compare_exchange_weak(
                head,
                page as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Pops one orphan. Swap-pop (take the whole stack, keep the head,
    /// reattach the tail with one CAS) rather than a head CAS: a page
    /// can be orphaned more than once in its life, so the classic
    /// Treiber pop would be ABA-prone here.
    fn pop_orphan(&self) -> Option<*mut PageHeader> {
        let head = self.orphans.swap(0, Ordering::Acquire);
        if head == 0 {
            return None;
        }
        let page = head as *mut PageHeader;
        let rest = unsafe { (*page).orphan_next.load(Ordering::Relaxed) };
        if rest != 0 {
            // Find the detached chain's tail, then splice the chain
            // back under whatever was pushed meanwhile.
            let mut tail = rest as *mut PageHeader;
            loop {
                let next = unsafe { (*tail).orphan_next.load(Ordering::Relaxed) };
                if next == 0 {
                    break;
                }
                tail = next as *mut PageHeader;
            }
            let mut cur = self.orphans.load(Ordering::Relaxed);
            loop {
                unsafe { (*tail).orphan_next.store(cur, Ordering::Relaxed) };
                match self.orphans.compare_exchange_weak(
                    cur,
                    rest,
                    Ordering::Release,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
        Some(page)
    }
}

// ---------------------------------------------------------------------
// Global census (aggregated over every registered pool).
// ---------------------------------------------------------------------

fn pools() -> impl Iterator<Item = &'static NodePool> {
    POOLS.iter().filter_map(|p| {
        let ptr = p.load(Ordering::Acquire);
        (!ptr.is_null()).then(|| unsafe { &*ptr })
    })
}

/// Pages allocated across every pool in the process (also the combined
/// high-water mark — pages are immortal).
pub fn pages_allocated() -> u64 {
    pools().map(NodePool::pages_allocated).sum()
}

/// Slots currently allocated across every pool (racy snapshot).
pub fn nodes_outstanding() -> u64 {
    pools().map(NodePool::nodes_outstanding).sum()
}

/// Cross-thread frees across every pool.
pub fn remote_frees() -> u64 {
    pools().map(NodePool::remote_frees).sum()
}

/// Per-pool census rows `(name, pages, outstanding, remote_frees)`,
/// for reports that want the breakdown behind the aggregate gauges.
pub fn census() -> Vec<(&'static str, u64, u64, u64)> {
    pools()
        .map(|p| {
            (
                p.name(),
                p.pages_allocated(),
                p.nodes_outstanding(),
                p.remote_frees(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    // Each test gets its own static pool: census assertions stay exact
    // even though the deque pools churn concurrently in other tests.

    #[test]
    fn same_thread_reuse_is_page_bounded_and_balanced() {
        static P: NodePool = NodePool::new("t-reuse", 32, 16);
        let per_page = P.nodes_per_page();
        assert_eq!(per_page, (PAGE_SIZE as u64 - 128) / 32);

        let n = (2 * per_page + 3) as usize; // forces exactly 3 pages
        let first: Vec<*mut u8> = (0..n).map(|_| P.alloc()).collect();
        let distinct: HashSet<usize> = first.iter().map(|p| *p as usize).collect();
        assert_eq!(distinct.len(), n, "pool handed out a slot twice");
        assert_eq!(P.pages_allocated(), 3);
        assert_eq!(P.nodes_outstanding(), n as u64);

        for &p in &first {
            unsafe { NodePool::dealloc(p) };
        }
        assert_eq!(P.nodes_outstanding(), 0, "leak: alloc/free did not balance");

        // Churn many times the page capacity: every slot is recycled
        // from the free list, no new page is ever needed.
        for _ in 0..10 * per_page {
            let p = P.alloc();
            assert!(
                distinct.contains(&(p as usize)),
                "churn alloc left the original pages"
            );
            unsafe { NodePool::dealloc(p) };
        }
        assert_eq!(P.pages_allocated(), 3, "churn allocated fresh pages");
        assert_eq!(P.nodes_outstanding(), 0);
    }

    #[test]
    fn alignment_and_header_mask() {
        static P: NodePool = NodePool::new("t-align", 40, 16);
        let slots: Vec<*mut u8> = (0..5).map(|_| P.alloc()).collect();
        for &s in &slots {
            assert_eq!(s as usize % 16, 0, "slot violates node alignment");
            assert_ne!(s as usize % PAGE_SIZE, 0, "slot landed on the header");
            let page = page_of(s);
            assert!(std::ptr::eq(unsafe { (*page).pool }, &P));
        }
        for s in slots {
            unsafe { NodePool::dealloc(s) };
        }
    }

    #[test]
    fn cross_thread_free_lands_remote_and_is_drained() {
        static P: NodePool = NodePool::new("t-remote", 32, 16);
        let n = 64usize;
        let slots: Vec<*mut u8> = (0..n).map(|_| P.alloc()).collect();
        let addrs: HashSet<usize> = slots.iter().map(|p| *p as usize).collect();
        let pages_before = P.pages_allocated();

        // Free on another thread: every free must take the remote path
        // (the pages' owner is this thread, which stays alive).
        let sent: Vec<usize> = slots.iter().map(|p| *p as usize).collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                for a in sent {
                    unsafe { NodePool::dealloc(a as *mut u8) };
                }
            });
        });
        assert_eq!(P.remote_frees(), n as u64);
        assert_eq!(P.nodes_outstanding(), 0);

        // The owner's refill drains the remote stacks: allocating a
        // full page's worth again must recycle every remote-freed slot
        // without touching a fresh page.
        let per_page = P.nodes_per_page() as usize;
        let again: Vec<*mut u8> = (0..per_page).map(|_| P.alloc()).collect();
        let again_addrs: HashSet<usize> = again.iter().map(|p| *p as usize).collect();
        assert!(
            addrs.is_subset(&again_addrs),
            "remote-freed slots were not recycled"
        );
        assert_eq!(P.pages_allocated(), pages_before);
        for p in again {
            unsafe { NodePool::dealloc(p) };
        }
    }

    #[test]
    fn dead_threads_pages_are_adopted() {
        static P: NodePool = NodePool::new("t-orphan", 32, 16);
        // A worker allocates (forcing a page it owns), frees locally,
        // and exits — its TLS destructor orphans the page.
        let addr = std::thread::spawn(|| {
            let slots: Vec<*mut u8> = (0..10).map(|_| P.alloc()).collect();
            for &p in &slots {
                unsafe { NodePool::dealloc(p) };
            }
            slots[0] as usize
        })
        .join()
        .unwrap();
        let pages_before = P.pages_allocated();
        assert!(pages_before >= 1);
        assert_eq!(P.nodes_outstanding(), 0);

        // This thread's first refill must adopt the orphan rather than
        // allocate fresh, and the dead thread's slots come back.
        let per_page = P.nodes_per_page() as usize;
        let slots: Vec<*mut u8> = (0..per_page).map(|_| P.alloc()).collect();
        assert_eq!(
            P.pages_allocated(),
            pages_before,
            "orphan page was not adopted"
        );
        assert!(slots.iter().any(|&p| p as usize == addr));
        for p in slots {
            unsafe { NodePool::dealloc(p) };
        }
    }

    #[test]
    fn concurrent_churn_keeps_pages_bounded() {
        static P: NodePool = NodePool::new("t-churn", 32, 16);
        const THREADS: usize = 4;
        const HOLD: usize = 32;
        const ROUNDS: usize = 2_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mut held: Vec<*mut u8> = Vec::new();
                    for _ in 0..ROUNDS {
                        for _ in 0..HOLD {
                            held.push(P.alloc());
                        }
                        for p in held.drain(..) {
                            unsafe { NodePool::dealloc(p) };
                        }
                    }
                });
            }
        });
        assert_eq!(P.nodes_outstanding(), 0);
        // Outstanding never exceeds THREADS × HOLD, so pages stay under
        // a static bound regardless of the 256k churn allocations:
        // one page of live slots per thread plus one private free page
        // per thread, with slack for cross-thread imbalance.
        let bound = 4 * THREADS as u64 + 2;
        assert!(
            P.pages_allocated() <= bound,
            "churn leaked pages: {} > {bound}",
            P.pages_allocated()
        );
    }
}
