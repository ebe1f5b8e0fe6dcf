//! The array-based bounded deque of Section 3 of the paper.
//!
//! The deque lives in a circular array `S[0..length_S-1]` indexed by two
//! counters `L` and `R` that point at the next free cell on each side.
//! Initially `(L + 1) mod length_S == R`; as values are pushed and popped
//! the two indices chase each other around the ring and may "cross"
//! (Figure 8). The paper's key observation is that a processor never needs
//! an atomic view of *both* indices: the deque's emptiness or fullness is
//! determined by one index together with the content of the cell adjacent
//! to it, which is exactly what one DCAS can examine.
//!
//! * `pushRight` inserts at `S[R]` and advances `R` (Figure 3);
//!   `popRight` removes from `S[R-1]` and retreats `R` (Figure 2);
//!   the left-side operations are the mirror images (Figures 30, 31).
//!   Each operation is written once, generic over the end it works at:
//!   one `pop` body is Figure 2 at the right end and Figure 30 at the
//!   left, one `push` body is Figures 3 and 31, and the batch
//!   operations fold the same way. The end supplies its index word and
//!   the direction the index steps (a push moves `R` by `+1` and `L` by
//!   `-1`).
//! * The deque is **empty** when the cell being popped is null, and
//!   **full** when the cell being pushed into is non-null; either
//!   condition is *confirmed* by an identity DCAS that checks, at a single
//!   instant, that the index hasn't moved and the cell still has the
//!   boundary content (lines 8–10 of Figures 2/3).
//!
//! The paper marks two code fragments as optional: "the algorithm would
//! still be correct if line 7, and/or lines 17 and 18, were deleted".
//!
//! * Line 7 (re-read the index before attempting the boundary-confirming
//!   DCAS) always runs.
//! * Lines 17–18 (use the *strong* DCAS that returns an atomic view on
//!   failure, to detect "the deque became empty/full under me" without
//!   retrying) run iff the strategy provides the strong form cheaply
//!   ([`DcasStrategy::HAS_CHEAP_STRONG`]); otherwise a failed DCAS just
//!   retries the loop.
//!
//! The model checker (`dcas-modelcheck`'s `ArrayMachine`) covers all four
//! combinations of the two fragments.

// The nested `if` structure deliberately mirrors the paper's line-numbered
// listings (line 7 gates lines 8-10); do not collapse it.
#![allow(clippy::collapsible_if, clippy::collapsible_else_if)]

use std::marker::PhantomData;

use crossbeam_utils::CachePadded;
use dcas::{Backoff, CasnEntry, DcasStrategy, DcasWord, HarrisMcas};

use crate::end::{End, Left, Right};
use crate::guard::{EncodedChunk, EncodedGuard};
use crate::reserved::NULL;
use crate::value::{Boxed, WordValue};
use crate::{ConcurrentDeque, Full, MAX_BATCH};

#[cfg(test)]
mod tests;

/// A quiescent snapshot of the implementation state, for diagnostics and
/// for the figure-reproduction tests. Only meaningful while no operations
/// are in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayLayout {
    /// Current value of the left index `L`.
    pub l: usize,
    /// Current value of the right index `R`.
    pub r: usize,
    /// For each cell, whether it currently holds a value.
    pub occupied: Vec<bool>,
}

/// Word-level array deque: the paper's algorithm verbatim, storing
/// [`WordValue`]-encoded values. Use [`ArrayDeque`] for an arbitrary
/// element type.
pub struct RawArrayDeque<V: WordValue, S: DcasStrategy> {
    strategy: S,
    /// The right index `R` (stored shifted left by two to satisfy the DCAS
    /// payload contract).
    r: CachePadded<DcasWord>,
    /// The left index `L`.
    l: CachePadded<DcasWord>,
    /// The circular array `S[0..length_S-1]`.
    slots: Box<[DcasWord]>,
    _marker: PhantomData<fn(V) -> V>
}

#[inline]
fn enc_idx(i: usize) -> u64 {
    (i as u64) << 2
}

#[inline]
fn dec_idx(w: u64) -> usize {
    (w >> 2) as usize
}

impl<V: WordValue, S: DcasStrategy> RawArrayDeque<V, S> {
    /// Creates a deque with capacity `length` (the paper's
    /// `make_deque(length_S)`), using a default-constructed strategy.
    /// Line 7 always runs; lines 17–18 (which need the strong DCAS form)
    /// run only when the strategy provides it cheaply
    /// ([`DcasStrategy::HAS_CHEAP_STRONG`]), per the paper's own advice
    /// that both fragments are optional.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0` (the specification requires
    /// `length_S >= 1`) or if `length` exceeds `u32::MAX` cells.
    pub fn new(length: usize) -> Self {
        assert!(length >= 1, "make_deque requires length_S >= 1");
        assert!(length <= u32::MAX as usize, "deque too large");
        let slots = (0..length).map(|_| DcasWord::new(NULL)).collect();
        RawArrayDeque {
            strategy: S::default(),
            // Initially L == 0 and R == 1 mod length_S.
            r: CachePadded::new(DcasWord::new(enc_idx(1 % length))),
            l: CachePadded::new(DcasWord::new(enc_idx(0))),
            slots,
            _marker: PhantomData,
        }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The DCAS strategy instance (for inspecting [`dcas::Counting`]
    /// statistics).
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// End `E`'s index word (`R` at `Right`, `L` at `Left`).
    #[inline]
    fn idx<E: End>(&self) -> &DcasWord {
        E::near(&*self.l, &*self.r)
    }

    /// `popRight` — Figure 2.
    pub fn pop_right(&self) -> Option<V> {
        self.pop::<Right>()
    }

    /// `popLeft` — Figure 30 (mirror image of `popRight`).
    pub fn pop_left(&self) -> Option<V> {
        self.pop::<Left>()
    }

    /// `pushRight` — Figure 3.
    pub fn push_right(&self, v: V) -> Result<(), Full<V>> {
        self.push::<Right>(v)
    }

    /// `pushLeft` — Figure 31 (mirror image of `pushRight`).
    pub fn push_left(&self, v: V) -> Result<(), Full<V>> {
        self.push::<Left>(v)
    }

    /// Figure 2 at `Right`, Figure 30 at `Left`. `old_i` is the paper's
    /// `oldR` (`oldL` in Figure 30); the popped cell is one step inward.
    fn pop<E: End>(&self) -> Option<V> {
        let idx = self.idx::<E>();
        loop {
            let old_i = dec_idx(self.strategy.load(idx)); // line 3
            let new_i = E::step_in(old_i, 1, self.slots.len()); // line 4
            let old_s = self.strategy.load(&self.slots[new_i]); // line 5
            if old_s == NULL {
                // Lines 6-11: the deque may be empty; confirm with an
                // identity DCAS giving an instantaneous view of the index
                // and the cell (`R` and `S[R-1]` at `Right`).
                if dec_idx(self.strategy.load(idx)) == old_i {
                    if self.strategy.dcas(
                        idx,
                        &self.slots[new_i],
                        enc_idx(old_i),
                        NULL,
                        enc_idx(old_i),
                        NULL,
                    ) {
                        return None; // "empty"
                    }
                }
            } else if S::HAS_CHEAP_STRONG {
                // Lines 12-19 with the strong DCAS of Figure 1.
                let save_i = old_i; // line 13
                let mut o1 = enc_idx(old_i);
                let mut o2 = old_s;
                if self.strategy.dcas_strong(
                    idx,
                    &self.slots[new_i],
                    &mut o1,
                    &mut o2,
                    enc_idx(new_i),
                    NULL,
                ) {
                    // SAFETY: the successful DCAS moved the encoded value
                    // out of the slot; we are its unique owner.
                    return Some(unsafe { V::decode(old_s) });
                } else if dec_idx(o1) == save_i {
                    // Line 17: the index did not move, so the slot changed.
                    if o2 == NULL {
                        // Line 18: a competing pop at the other end stole
                        // the last item (Figure 6); the deque was empty at
                        // the DCAS's instant.
                        return None;
                    }
                }
            } else {
                // The weak-DCAS variant: on failure, just retry the loop.
                if self.strategy.dcas(
                    idx,
                    &self.slots[new_i],
                    enc_idx(old_i),
                    old_s,
                    enc_idx(new_i),
                    NULL,
                ) {
                    // SAFETY: as above.
                    return Some(unsafe { V::decode(old_s) });
                }
            }
        }
    }

    /// Figure 3 at `Right`, Figure 31 at `Left`. The pushed cell is the
    /// one the index names; the index then steps outward.
    fn push<E: End>(&self, v: V) -> Result<(), Full<V>> {
        let idx = self.idx::<E>();
        // The guard owns the encoded word until the committing DCAS: an
        // unwinding strategy call releases the value instead of leaking it.
        let val = EncodedGuard::new(v);
        loop {
            let old_i = dec_idx(self.strategy.load(idx)); // line 3
            let new_i = E::step_out(old_i, 1, self.slots.len()); // line 4
            let old_s = self.strategy.load(&self.slots[old_i]); // line 5
            if old_s != NULL {
                // Lines 6-11: the deque may be full; confirm atomically.
                if dec_idx(self.strategy.load(idx)) == old_i {
                    if self.strategy.dcas(
                        idx,
                        &self.slots[old_i],
                        enc_idx(old_i),
                        old_s,
                        enc_idx(old_i),
                        old_s,
                    ) {
                        return Err(Full(val.reclaim())); // "full"
                    }
                }
            } else if S::HAS_CHEAP_STRONG {
                let save_i = old_i; // line 13
                let mut o1 = enc_idx(old_i);
                let mut o2 = NULL;
                if self.strategy.dcas_strong(
                    idx,
                    &self.slots[old_i],
                    &mut o1,
                    &mut o2,
                    enc_idx(new_i),
                    val.word(),
                ) {
                    val.commit();
                    return Ok(()); // "okay"
                } else if dec_idx(o1) == save_i {
                    // Lines 17-18: the index is unchanged, so the cell
                    // turned non-null: the deque is full. (Unlike pop, any
                    // non-null content means full.)
                    return Err(Full(val.reclaim()));
                }
            } else {
                if self.strategy.dcas(
                    idx,
                    &self.slots[old_i],
                    enc_idx(old_i),
                    NULL,
                    enc_idx(new_i),
                    val.word(),
                ) {
                    val.commit();
                    return Ok(());
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Batched operations (not in the paper): each chunk of up to
    // MAX_BATCH elements commits with one CASN over the end index and
    // the chunk's cells, so the whole chunk appears/vanishes at a single
    // linearization point. Soundness rests on the ring invariant the
    // paper's Figure 8 discussion establishes: the free (null) cells
    // always form one contiguous circular segment [R..L], and the
    // occupied cells the complementary segment [L+1..R-1].
    // ------------------------------------------------------------------

    /// Pushes `words.len()` encoded values at end `E` in one CASN: at
    /// `Right`, `[R: r -> r+k]` plus `[S[r+i]: null -> w_i]` for each
    /// value; at `Left`, cells `L, L-1, ..., L-k+1` are claimed and `L`
    /// retreats by `k`. Returns `false` when a confirmed-full state
    /// proves fewer than `k` free cells exist at one instant (nothing is
    /// pushed).
    ///
    /// If all `k` cells are simultaneously null they are a prefix of the
    /// free segment starting at the index, so claiming them preserves
    /// contiguity; conversely a non-null cell at offset `i` (while the
    /// index is unchanged, confirmed by an identity DCAS) proves the
    /// free segment holds at most `i < k` cells.
    fn push_chunk<E: End>(&self, words: &[u64]) -> bool {
        let len = self.slots.len();
        let k = words.len();
        debug_assert!((1..=MAX_BATCH).contains(&k) && k <= len);
        let idx = self.idx::<E>();
        let mut backoff = Backoff::new();
        loop {
            let old_i = dec_idx(self.strategy.load(idx));
            let occupied_at = (0..k)
                .find(|&i| self.strategy.load(&self.slots[E::step_out(old_i, i, len)]) != NULL);
            match occupied_at {
                Some(i) => {
                    // The window is too small; confirm atomically.
                    let cell = E::step_out(old_i, i, len);
                    let old_s = self.strategy.load(&self.slots[cell]);
                    if old_s != NULL
                        && self.strategy.dcas(
                            idx,
                            &self.slots[cell],
                            enc_idx(old_i),
                            old_s,
                            enc_idx(old_i),
                            old_s,
                        )
                    {
                        return false; // "full" (for this chunk size)
                    }
                }
                None => {
                    let new_i = E::step_out(old_i, k, len);
                    // Entries live on the stack (k + 1 <= MAX_BATCH + 1):
                    // a chunk commit allocates nothing.
                    let mut entries = [CasnEntry::new(idx, NULL, NULL); MAX_BATCH + 2];
                    entries[0] = CasnEntry::new(idx, enc_idx(old_i), enc_idx(new_i));
                    for (i, &w) in words.iter().enumerate() {
                        entries[1 + i] =
                            CasnEntry::new(&self.slots[E::step_out(old_i, i, len)], NULL, w);
                    }
                    if self.strategy.casn(&mut entries[..k + 1]) {
                        return true;
                    }
                }
            }
            backoff.snooze();
        }
    }

    /// Pops up to `k` values from end `E` in one CASN, appending the
    /// decoded values to `out` (first reserving room for `total` in
    /// all, only once there is a value to hold) and returning
    /// `exhausted`: whether the deque held fewer than `k` values at the
    /// linearization instant.
    /// The scan walks inward from the index (`L+1, L+2, ...` at `Left`,
    /// `R-1, R-2, ...` at `Right`).
    ///
    /// The CASN moves the index past the `j` scanned values and nulls
    /// their cells. When `j < k`, an **identity entry on the terminating
    /// null cell** is included: at the CASN's instant the occupied
    /// segment starts next to the index and ends before that null cell,
    /// certifying `|deque| == j` — without it, returning a short batch
    /// would not be linearizable as `k` pops (the deque might have held
    /// more).
    fn pop_chunk<E: End>(&self, k: usize, total: usize, out: &mut Vec<V>) -> bool {
        let len = self.slots.len();
        debug_assert!((1..=MAX_BATCH).contains(&k));
        let idx = self.idx::<E>();
        let mut backoff = Backoff::new();
        loop {
            let old_i = dec_idx(self.strategy.load(idx));
            let mut words = [0u64; MAX_BATCH];
            let mut j = 0;
            while j < k.min(len) {
                let w = self.strategy.load(&self.slots[E::step_in(old_i, 1 + j, len)]);
                if w == NULL {
                    break;
                }
                words[j] = w;
                j += 1;
            }
            if j == 0 {
                // Possibly empty; confirm exactly as the single pop does.
                if self.strategy.dcas(
                    idx,
                    &self.slots[E::step_in(old_i, 1, len)],
                    enc_idx(old_i),
                    NULL,
                    enc_idx(old_i),
                    NULL,
                ) {
                    return true;
                }
            } else {
                let new_i = E::step_in(old_i, j, len);
                let mut entries = [CasnEntry::new(idx, NULL, NULL); MAX_BATCH + 2];
                entries[0] = CasnEntry::new(idx, enc_idx(old_i), enc_idx(new_i));
                for (i, &w) in words[..j].iter().enumerate() {
                    entries[1 + i] =
                        CasnEntry::new(&self.slots[E::step_in(old_i, 1 + i, len)], w, NULL);
                }
                let mut n = j + 1;
                if j < k && j < len {
                    entries[n] =
                        CasnEntry::new(&self.slots[E::step_in(old_i, 1 + j, len)], NULL, NULL);
                    n += 1;
                }
                if self.strategy.casn(&mut entries[..n]) {
                    // SAFETY: each word was moved out of its cell by our
                    // CASN; we are its unique owner.
                    out.reserve(total - out.len());
                    out.extend(words[..j].iter().map(|&w| unsafe { V::decode(w) }));
                    return j < k;
                }
            }
            backoff.snooze();
        }
    }

    /// Pushes all of `vals` at the right end, in order, in atomic chunks
    /// of up to [`MAX_BATCH`] elements (each chunk one CASN). When the
    /// deque cannot hold a whole chunk, the unpushed tail is returned in
    /// `Full`; already-committed chunks stay pushed.
    ///
    /// Takes any iterator so callers (e.g. the boxing [`ArrayDeque`]
    /// wrapper) can stream values in without materializing an
    /// intermediate `Vec`; each chunk is encoded into a stack buffer.
    pub fn push_right_n<I>(&self, vals: I) -> Result<(), Full<Vec<V>>>
    where
        I: IntoIterator<Item = V>,
    {
        self.push_n::<Right, _>(vals)
    }

    /// Pushes all of `vals` at the left end, in order (the last element
    /// ends up leftmost), in atomic chunks. See
    /// [`push_right_n`](Self::push_right_n).
    pub fn push_left_n<I>(&self, vals: I) -> Result<(), Full<Vec<V>>>
    where
        I: IntoIterator<Item = V>,
    {
        self.push_n::<Left, _>(vals)
    }

    fn push_n<E: End, I>(&self, vals: I) -> Result<(), Full<Vec<V>>>
    where
        I: IntoIterator<Item = V>,
    {
        let max = MAX_BATCH.min(self.slots.len());
        let mut it = vals.into_iter();
        loop {
            // The chunk guard owns each encoded word from `encode` to
            // the committing CASN: a panicking iterator (a throwing
            // `Clone` mid-batch) or an unwinding strategy call releases
            // the partial chunk instead of leaking it.
            let mut chunk = EncodedChunk::new();
            while chunk.len() < max {
                match it.next() {
                    Some(v) => chunk.push(v),
                    None => break,
                }
            }
            if chunk.is_empty() {
                return Ok(());
            }
            if self.push_chunk::<E>(chunk.words()) {
                chunk.commit();
            } else {
                // The unpushed chunk values re-join the unconsumed
                // iterator tail, in order.
                return Err(Full(chunk.reclaim().into_iter().chain(it).collect()));
            }
        }
    }

    /// Pops up to `n` values from the right end, rightmost first, in
    /// atomic chunks of up to [`MAX_BATCH`]; stops early at a chunk that
    /// certified the deque exhausted.
    pub fn pop_right_n(&self, n: usize) -> Vec<V> {
        self.pop_n::<Right>(n)
    }

    /// Pops up to `n` values from the left end, leftmost first, in
    /// atomic chunks. See [`pop_right_n`](Self::pop_right_n).
    pub fn pop_left_n(&self, n: usize) -> Vec<V> {
        self.pop_n::<Left>(n)
    }

    /// An empty deque costs no allocation: `out` stays unallocated
    /// until a chunk yields values, and then reserves room for all `n`.
    fn pop_n<E: End>(&self, n: usize) -> Vec<V> {
        let mut out = Vec::new();
        while out.len() < n {
            let k = (n - out.len()).min(MAX_BATCH);
            if self.pop_chunk::<E>(k, n, &mut out) {
                break;
            }
        }
        out
    }

    /// Snapshot of `(L, R, occupancy)` for diagnostics and the
    /// figure-reproduction tests. Only meaningful in quiescence (no
    /// concurrent operations).
    pub fn layout(&self) -> ArrayLayout {
        ArrayLayout {
            l: dec_idx(self.strategy.load(&self.l)),
            r: dec_idx(self.strategy.load(&self.r)),
            occupied: self
                .slots
                .iter()
                .map(|s| self.strategy.load(s) != NULL)
                .collect(),
        }
    }

    /// Number of occupied cells, by scanning. Quiescent diagnostic only.
    pub fn len_quiescent(&self) -> usize {
        self.layout().occupied.iter().filter(|&&o| o).count()
    }
}

impl<V: WordValue, S: DcasStrategy> Drop for RawArrayDeque<V, S> {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            let w = slot.unsync_load();
            if w != NULL {
                // SAFETY: `&mut self` means no operation is in flight, so
                // the slot holds an unconsumed encoded value.
                unsafe { V::drop_encoded(w) };
            }
        }
    }
}

/// The array-based bounded deque of the paper's Section 3, for arbitrary
/// element types `T` (heap-boxed per element) and any DCAS strategy `S`
/// (lock-free [`HarrisMcas`] by default).
///
/// See the [module documentation](self) for the algorithm, and
/// [`RawArrayDeque`] for the word-level API.
pub struct ArrayDeque<T: Send, S: DcasStrategy = HarrisMcas> {
    raw: RawArrayDeque<Boxed<T>, S>,
}

impl<T: Send, S: DcasStrategy> ArrayDeque<T, S> {
    /// Creates a deque with capacity `length`.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0`.
    pub fn new(length: usize) -> Self {
        ArrayDeque { raw: RawArrayDeque::new(length) }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// The DCAS strategy instance (for counter snapshots).
    pub fn strategy(&self) -> &S {
        self.raw.strategy()
    }

    /// Appends `v` at the right end; `Err(Full(v))` if the deque is full.
    pub fn push_right(&self, v: T) -> Result<(), Full<T>> {
        self.raw
            .push_right(Boxed::new(v))
            .map_err(|Full(b)| Full(b.into_inner()))
    }

    /// Appends `v` at the left end; `Err(Full(v))` if the deque is full.
    pub fn push_left(&self, v: T) -> Result<(), Full<T>> {
        self.raw
            .push_left(Boxed::new(v))
            .map_err(|Full(b)| Full(b.into_inner()))
    }

    /// Removes and returns the rightmost value, or `None` if empty.
    pub fn pop_right(&self) -> Option<T> {
        self.raw.pop_right().map(Boxed::into_inner)
    }

    /// Removes and returns the leftmost value, or `None` if empty.
    pub fn pop_left(&self) -> Option<T> {
        self.raw.pop_left().map(Boxed::into_inner)
    }

    /// Pushes all of `vals` at the right end in atomic chunks of up to
    /// [`MAX_BATCH`] elements (see [`RawArrayDeque::push_right_n`]).
    pub fn push_right_n(&self, vals: Vec<T>) -> Result<(), Full<Vec<T>>> {
        self.raw
            .push_right_n(vals.into_iter().map(Boxed::new))
            .map_err(|Full(rest)| Full(rest.into_iter().map(Boxed::into_inner).collect()))
    }

    /// Pushes all of `vals` at the left end in atomic chunks (the last
    /// element ends up leftmost).
    pub fn push_left_n(&self, vals: Vec<T>) -> Result<(), Full<Vec<T>>> {
        self.raw
            .push_left_n(vals.into_iter().map(Boxed::new))
            .map_err(|Full(rest)| Full(rest.into_iter().map(Boxed::into_inner).collect()))
    }

    /// Pops up to `n` values from the right end, rightmost first, in
    /// atomic chunks.
    pub fn pop_right_n(&self, n: usize) -> Vec<T> {
        self.raw.pop_right_n(n).into_iter().map(Boxed::into_inner).collect()
    }

    /// Pops up to `n` values from the left end, leftmost first, in atomic
    /// chunks.
    pub fn pop_left_n(&self, n: usize) -> Vec<T> {
        self.raw.pop_left_n(n).into_iter().map(Boxed::into_inner).collect()
    }

    /// Quiescent layout snapshot (see [`RawArrayDeque::layout`]).
    pub fn layout(&self) -> ArrayLayout {
        self.raw.layout()
    }
}

impl<T: Send, S: DcasStrategy> ConcurrentDeque<T> for ArrayDeque<T, S> {
    fn push_right(&self, v: T) -> Result<(), Full<T>> {
        ArrayDeque::push_right(self, v)
    }

    fn push_left(&self, v: T) -> Result<(), Full<T>> {
        ArrayDeque::push_left(self, v)
    }

    fn pop_right(&self) -> Option<T> {
        ArrayDeque::pop_right(self)
    }

    fn pop_left(&self) -> Option<T> {
        ArrayDeque::pop_left(self)
    }

    fn push_right_n(&self, vals: Vec<T>) -> Result<(), Full<Vec<T>>> {
        ArrayDeque::push_right_n(self, vals)
    }

    fn push_left_n(&self, vals: Vec<T>) -> Result<(), Full<Vec<T>>> {
        ArrayDeque::push_left_n(self, vals)
    }

    fn pop_right_n(&self, n: usize) -> Vec<T> {
        ArrayDeque::pop_right_n(self, n)
    }

    fn pop_left_n(&self, n: usize) -> Vec<T> {
        ArrayDeque::pop_left_n(self, n)
    }

    fn impl_name(&self) -> &'static str {
        "array-dcas"
    }
}
