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
//! * The deque is **empty** when the cell being popped is null, and
//!   **full** when the cell being pushed into is non-null; either
//!   condition is *confirmed* by an identity DCAS that checks, at a single
//!   instant, that the index hasn't moved and the cell still has the
//!   boundary content (lines 8–10 of Figures 2/3).
//!
//! Two optional code fragments from the paper are exposed as
//! [`ArrayConfig`] knobs because the paper itself says "experimentation
//! would be required to determine whether either or both of these code
//! fragments should be included" — bench `e7_ablation` runs that
//! experiment:
//!
//! * line 7 (re-read the index before attempting the boundary-confirming
//!   DCAS), and
//! * lines 17–18 (use the *strong* DCAS that returns an atomic view on
//!   failure, to detect "the deque became empty/full under me" without
//!   retrying).

// The nested `if` structure deliberately mirrors the paper's line-numbered
// listings (line 7 gates lines 8-10); do not collapse it.
#![allow(clippy::collapsible_if, clippy::collapsible_else_if)]

use std::marker::PhantomData;

use crossbeam_utils::CachePadded;
use dcas::{Backoff, CasnEntry, DcasStrategy, DcasWord, HarrisMcas};

use crate::guard::{EncodedChunk, EncodedGuard};
use crate::reserved::NULL;
use crate::value::{Boxed, WordValue};
use crate::{ConcurrentDeque, Full, MAX_BATCH};

#[cfg(test)]
mod tests;

/// Toggles for the paper's two optional optimizations (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayConfig {
    /// Line 7 of Figures 2/3 (and the mirrored lines of Figures 30/31):
    /// re-read the end index and skip the boundary-confirming DCAS if it
    /// moved, on the assumption that "a null value is read because another
    /// processor stole the item, and not because the deque is really
    /// empty".
    pub revalidate_index: bool,
    /// Lines 17–18 of Figures 2/3: perform the main DCAS in its strong
    /// form and use the returned atomic view to report `empty`/`full`
    /// immediately instead of retrying the loop. Requires (and is only
    /// exercised with) a strategy for which the strong form exists; on
    /// strategies without [`DcasStrategy::HAS_CHEAP_STRONG`] it still
    /// works but costs extra.
    pub strong_failure_check: bool,
}

impl Default for ArrayConfig {
    /// The paper's published code includes both fragments.
    fn default() -> Self {
        ArrayConfig { revalidate_index: true, strong_failure_check: true }
    }
}

impl ArrayConfig {
    /// Configuration with both optional fragments removed; per the paper,
    /// "the algorithm would still be correct if line 7, and/or lines 17
    /// and 18, were deleted", and this variant needs only the weak DCAS.
    pub fn minimal() -> Self {
        ArrayConfig { revalidate_index: false, strong_failure_check: false }
    }
}

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
    config: ArrayConfig,
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
    /// `make_deque(length_S)`), using a default-constructed strategy and
    /// the paper's published configuration — except that the lines-17-18
    /// fragment (which needs the strong DCAS form) is enabled only when
    /// the strategy provides it cheaply ([`DcasStrategy::HAS_CHEAP_STRONG`]),
    /// per the paper's own advice that the fragment is an optional
    /// optimization.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0` (the specification requires
    /// `length_S >= 1`) or if `length` exceeds `u32::MAX` cells.
    pub fn new(length: usize) -> Self {
        Self::with_config(
            length,
            ArrayConfig { revalidate_index: true, strong_failure_check: S::HAS_CHEAP_STRONG },
        )
    }

    /// Creates a deque with an explicit optimization configuration.
    pub fn with_config(length: usize, config: ArrayConfig) -> Self {
        assert!(length >= 1, "make_deque requires length_S >= 1");
        assert!(length <= u32::MAX as usize, "deque too large");
        let slots = (0..length).map(|_| DcasWord::new(NULL)).collect();
        RawArrayDeque {
            strategy: S::default(),
            config,
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

    #[inline]
    fn add1(&self, i: usize) -> usize {
        (i + 1) % self.slots.len()
    }

    #[inline]
    fn sub1(&self, i: usize) -> usize {
        (i + self.slots.len() - 1) % self.slots.len()
    }

    /// `popRight` — Figure 2.
    pub fn pop_right(&self) -> Option<V> {
        loop {
            let old_r = dec_idx(self.strategy.load(&self.r)); // line 3
            let new_r = self.sub1(old_r); // line 4
            let old_s = self.strategy.load(&self.slots[new_r]); // line 5
            if old_s == NULL {
                // Lines 6-11: the deque may be empty; confirm with an
                // identity DCAS giving an instantaneous view of R and
                // S[R-1].
                if !self.config.revalidate_index
                    || dec_idx(self.strategy.load(&self.r)) == old_r
                {
                    if self.strategy.dcas(
                        &self.r,
                        &self.slots[new_r],
                        enc_idx(old_r),
                        NULL,
                        enc_idx(old_r),
                        NULL,
                    ) {
                        return None; // "empty"
                    }
                }
            } else if self.config.strong_failure_check {
                // Lines 12-19 with the strong DCAS of Figure 1.
                let save_r = old_r; // line 13
                let mut o1 = enc_idx(old_r);
                let mut o2 = old_s;
                if self.strategy.dcas_strong(
                    &self.r,
                    &self.slots[new_r],
                    &mut o1,
                    &mut o2,
                    enc_idx(new_r),
                    NULL,
                ) {
                    // SAFETY: the successful DCAS moved the encoded value
                    // out of the slot; we are its unique owner.
                    return Some(unsafe { V::decode(old_s) });
                } else if dec_idx(o1) == save_r {
                    // Line 17: R did not move, so the slot changed.
                    if o2 == NULL {
                        // Line 18: a competing popLeft stole the last
                        // item (Figure 6); the deque was empty at the
                        // DCAS's instant.
                        return None;
                    }
                }
            } else {
                // The weak-DCAS variant: on failure, just retry the loop.
                if self.strategy.dcas(
                    &self.r,
                    &self.slots[new_r],
                    enc_idx(old_r),
                    old_s,
                    enc_idx(new_r),
                    NULL,
                ) {
                    // SAFETY: as above.
                    return Some(unsafe { V::decode(old_s) });
                }
            }
        }
    }

    /// `pushRight` — Figure 3.
    pub fn push_right(&self, v: V) -> Result<(), Full<V>> {
        // The guard owns the encoded word until the committing DCAS: an
        // unwinding strategy call releases the value instead of leaking it.
        let val = EncodedGuard::new(v);
        loop {
            let old_r = dec_idx(self.strategy.load(&self.r)); // line 3
            let new_r = self.add1(old_r); // line 4
            let old_s = self.strategy.load(&self.slots[old_r]); // line 5
            if old_s != NULL {
                // Lines 6-11: the deque may be full; confirm atomically.
                if !self.config.revalidate_index
                    || dec_idx(self.strategy.load(&self.r)) == old_r
                {
                    if self.strategy.dcas(
                        &self.r,
                        &self.slots[old_r],
                        enc_idx(old_r),
                        old_s,
                        enc_idx(old_r),
                        old_s,
                    ) {
                        return Err(Full(val.reclaim())); // "full"
                    }
                }
            } else if self.config.strong_failure_check {
                let save_r = old_r; // line 13
                let mut o1 = enc_idx(old_r);
                let mut o2 = NULL;
                if self.strategy.dcas_strong(
                    &self.r,
                    &self.slots[old_r],
                    &mut o1,
                    &mut o2,
                    enc_idx(new_r),
                    val.word(),
                ) {
                    val.commit();
                    return Ok(()); // "okay"
                } else if dec_idx(o1) == save_r {
                    // Lines 17-18: R unchanged, so the cell turned
                    // non-null: the deque is full. (Unlike pop, any
                    // non-null content means full.)
                    return Err(Full(val.reclaim()));
                }
            } else {
                if self.strategy.dcas(
                    &self.r,
                    &self.slots[old_r],
                    enc_idx(old_r),
                    NULL,
                    enc_idx(new_r),
                    val.word(),
                ) {
                    val.commit();
                    return Ok(());
                }
            }
        }
    }

    /// `popLeft` — Figure 30 (mirror image of `popRight`).
    pub fn pop_left(&self) -> Option<V> {
        loop {
            let old_l = dec_idx(self.strategy.load(&self.l)); // line 3
            let new_l = self.add1(old_l); // line 4
            let old_s = self.strategy.load(&self.slots[new_l]); // line 5
            if old_s == NULL {
                if !self.config.revalidate_index
                    || dec_idx(self.strategy.load(&self.l)) == old_l
                {
                    if self.strategy.dcas(
                        &self.l,
                        &self.slots[new_l],
                        enc_idx(old_l),
                        NULL,
                        enc_idx(old_l),
                        NULL,
                    ) {
                        return None;
                    }
                }
            } else if self.config.strong_failure_check {
                let save_l = old_l;
                let mut o1 = enc_idx(old_l);
                let mut o2 = old_s;
                if self.strategy.dcas_strong(
                    &self.l,
                    &self.slots[new_l],
                    &mut o1,
                    &mut o2,
                    enc_idx(new_l),
                    NULL,
                ) {
                    // SAFETY: as in `pop_right`.
                    return Some(unsafe { V::decode(old_s) });
                } else if dec_idx(o1) == save_l {
                    if o2 == NULL {
                        return None;
                    }
                }
            } else {
                if self.strategy.dcas(
                    &self.l,
                    &self.slots[new_l],
                    enc_idx(old_l),
                    old_s,
                    enc_idx(new_l),
                    NULL,
                ) {
                    // SAFETY: as in `pop_right`.
                    return Some(unsafe { V::decode(old_s) });
                }
            }
        }
    }

    /// `pushLeft` — Figure 31 (mirror image of `pushRight`).
    pub fn push_left(&self, v: V) -> Result<(), Full<V>> {
        let val = EncodedGuard::new(v);
        loop {
            let old_l = dec_idx(self.strategy.load(&self.l)); // line 3
            let new_l = self.sub1(old_l); // line 4
            let old_s = self.strategy.load(&self.slots[old_l]); // line 5
            if old_s != NULL {
                if !self.config.revalidate_index
                    || dec_idx(self.strategy.load(&self.l)) == old_l
                {
                    if self.strategy.dcas(
                        &self.l,
                        &self.slots[old_l],
                        enc_idx(old_l),
                        old_s,
                        enc_idx(old_l),
                        old_s,
                    ) {
                        return Err(Full(val.reclaim()));
                    }
                }
            } else if self.config.strong_failure_check {
                let save_l = old_l;
                let mut o1 = enc_idx(old_l);
                let mut o2 = NULL;
                if self.strategy.dcas_strong(
                    &self.l,
                    &self.slots[old_l],
                    &mut o1,
                    &mut o2,
                    enc_idx(new_l),
                    val.word(),
                ) {
                    val.commit();
                    return Ok(());
                } else if dec_idx(o1) == save_l {
                    return Err(Full(val.reclaim()));
                }
            } else {
                if self.strategy.dcas(
                    &self.l,
                    &self.slots[old_l],
                    enc_idx(old_l),
                    NULL,
                    enc_idx(new_l),
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

    /// Pushes `words.len()` encoded values at the right end in one CASN:
    /// `[R: r -> r+k]` plus `[S[r+i]: null -> w_i]` for each value.
    /// Returns `false` when a confirmed-full state proves fewer than `k`
    /// free cells exist at one instant (nothing is pushed).
    ///
    /// If all `k` cells are simultaneously null they are a prefix of the
    /// free segment starting at `R`, so claiming them preserves
    /// contiguity; conversely a non-null cell at offset `i` (while `R`
    /// is unchanged, confirmed by an identity DCAS) proves the free
    /// segment holds at most `i < k` cells.
    fn push_chunk_right(&self, words: &[u64]) -> bool {
        let len = self.slots.len();
        let k = words.len();
        debug_assert!((1..=MAX_BATCH).contains(&k) && k <= len);
        let mut backoff = Backoff::new();
        loop {
            let old_r = dec_idx(self.strategy.load(&self.r));
            let occupied_at = (0..k)
                .find(|i| self.strategy.load(&self.slots[(old_r + i) % len]) != NULL);
            match occupied_at {
                Some(i) => {
                    // The window is too small; confirm atomically.
                    let cell = (old_r + i) % len;
                    let old_s = self.strategy.load(&self.slots[cell]);
                    if old_s != NULL
                        && self.strategy.dcas(
                            &self.r,
                            &self.slots[cell],
                            enc_idx(old_r),
                            old_s,
                            enc_idx(old_r),
                            old_s,
                        )
                    {
                        return false; // "full" (for this chunk size)
                    }
                }
                None => {
                    let new_r = (old_r + k) % len;
                    // Entries live on the stack (k + 1 <= MAX_BATCH + 1):
                    // a chunk commit allocates nothing.
                    let mut entries = [CasnEntry::new(&self.r, NULL, NULL); MAX_BATCH + 2];
                    entries[0] = CasnEntry::new(&self.r, enc_idx(old_r), enc_idx(new_r));
                    for (i, &w) in words.iter().enumerate() {
                        entries[1 + i] =
                            CasnEntry::new(&self.slots[(old_r + i) % len], NULL, w);
                    }
                    if self.strategy.casn(&mut entries[..k + 1]) {
                        return true;
                    }
                }
            }
            backoff.snooze();
        }
    }

    /// Mirror of [`push_chunk_right`](Self::push_chunk_right) for the
    /// left end: cells `L, L-1, ..., L-k+1` are claimed and `L`
    /// retreats by `k`.
    fn push_chunk_left(&self, words: &[u64]) -> bool {
        let len = self.slots.len();
        let k = words.len();
        debug_assert!((1..=MAX_BATCH).contains(&k) && k <= len);
        let mut backoff = Backoff::new();
        loop {
            let old_l = dec_idx(self.strategy.load(&self.l));
            let occupied_at = (0..k)
                .find(|i| self.strategy.load(&self.slots[(old_l + len - i) % len]) != NULL);
            match occupied_at {
                Some(i) => {
                    let cell = (old_l + len - i) % len;
                    let old_s = self.strategy.load(&self.slots[cell]);
                    if old_s != NULL
                        && self.strategy.dcas(
                            &self.l,
                            &self.slots[cell],
                            enc_idx(old_l),
                            old_s,
                            enc_idx(old_l),
                            old_s,
                        )
                    {
                        return false;
                    }
                }
                None => {
                    let new_l = (old_l + len - k) % len;
                    let mut entries = [CasnEntry::new(&self.l, NULL, NULL); MAX_BATCH + 2];
                    entries[0] = CasnEntry::new(&self.l, enc_idx(old_l), enc_idx(new_l));
                    for (i, &w) in words.iter().enumerate() {
                        entries[1 + i] =
                            CasnEntry::new(&self.slots[(old_l + len - i) % len], NULL, w);
                    }
                    if self.strategy.casn(&mut entries[..k + 1]) {
                        return true;
                    }
                }
            }
            backoff.snooze();
        }
    }

    /// Pops up to `k` values from the left end in one CASN, appending the
    /// decoded values to `out` and returning `exhausted`: whether the
    /// deque held fewer than `k` values at the linearization instant.
    ///
    /// The CASN advances `L` past the `j` scanned values and nulls their
    /// cells. When `j < k`, an **identity entry on the terminating null
    /// cell** is included: at the CASN's instant the occupied segment
    /// starts at `L+1` and ends before that null cell, certifying
    /// `|deque| == j` — without it, returning a short batch would not be
    /// linearizable as `k` pops (the deque might have held more).
    fn pop_chunk_left(&self, k: usize, out: &mut Vec<V>) -> bool {
        let len = self.slots.len();
        debug_assert!((1..=MAX_BATCH).contains(&k));
        let mut backoff = Backoff::new();
        loop {
            let old_l = dec_idx(self.strategy.load(&self.l));
            let mut words = [0u64; MAX_BATCH];
            let mut j = 0;
            while j < k.min(len) {
                let w = self.strategy.load(&self.slots[(old_l + 1 + j) % len]);
                if w == NULL {
                    break;
                }
                words[j] = w;
                j += 1;
            }
            if j == 0 {
                // Possibly empty; confirm exactly as the single pop does.
                if self.strategy.dcas(
                    &self.l,
                    &self.slots[(old_l + 1) % len],
                    enc_idx(old_l),
                    NULL,
                    enc_idx(old_l),
                    NULL,
                ) {
                    return true;
                }
            } else {
                let new_l = (old_l + j) % len;
                let mut entries = [CasnEntry::new(&self.l, NULL, NULL); MAX_BATCH + 2];
                entries[0] = CasnEntry::new(&self.l, enc_idx(old_l), enc_idx(new_l));
                for (i, &w) in words[..j].iter().enumerate() {
                    entries[1 + i] =
                        CasnEntry::new(&self.slots[(old_l + 1 + i) % len], w, NULL);
                }
                let mut n = j + 1;
                if j < k && j < len {
                    entries[n] =
                        CasnEntry::new(&self.slots[(old_l + 1 + j) % len], NULL, NULL);
                    n += 1;
                }
                if self.strategy.casn(&mut entries[..n]) {
                    // SAFETY: each word was moved out of its cell by our
                    // CASN; we are its unique owner.
                    out.extend(words[..j].iter().map(|&w| unsafe { V::decode(w) }));
                    return j < k;
                }
            }
            backoff.snooze();
        }
    }

    /// Mirror of [`pop_chunk_left`](Self::pop_chunk_left) for the right
    /// end: scans `R-1, R-2, ...` and retreats `R` by `j`.
    fn pop_chunk_right(&self, k: usize, out: &mut Vec<V>) -> bool {
        let len = self.slots.len();
        debug_assert!((1..=MAX_BATCH).contains(&k));
        let mut backoff = Backoff::new();
        loop {
            let old_r = dec_idx(self.strategy.load(&self.r));
            let mut words = [0u64; MAX_BATCH];
            let mut j = 0;
            while j < k.min(len) {
                let w = self.strategy.load(&self.slots[(old_r + len - 1 - j) % len]);
                if w == NULL {
                    break;
                }
                words[j] = w;
                j += 1;
            }
            if j == 0 {
                if self.strategy.dcas(
                    &self.r,
                    &self.slots[(old_r + len - 1) % len],
                    enc_idx(old_r),
                    NULL,
                    enc_idx(old_r),
                    NULL,
                ) {
                    return true;
                }
            } else {
                let new_r = (old_r + len - j) % len;
                let mut entries = [CasnEntry::new(&self.r, NULL, NULL); MAX_BATCH + 2];
                entries[0] = CasnEntry::new(&self.r, enc_idx(old_r), enc_idx(new_r));
                for (i, &w) in words[..j].iter().enumerate() {
                    entries[1 + i] =
                        CasnEntry::new(&self.slots[(old_r + len - 1 - i) % len], w, NULL);
                }
                let mut n = j + 1;
                if j < k && j < len {
                    entries[n] =
                        CasnEntry::new(&self.slots[(old_r + len - 1 - j) % len], NULL, NULL);
                    n += 1;
                }
                if self.strategy.casn(&mut entries[..n]) {
                    // SAFETY: as in `pop_chunk_left`.
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
            if self.push_chunk_right(chunk.words()) {
                chunk.commit();
            } else {
                // The unpushed chunk values re-join the unconsumed
                // iterator tail, in order.
                return Err(Full(chunk.reclaim().into_iter().chain(it).collect()));
            }
        }
    }

    /// Pushes all of `vals` at the left end, in order (the last element
    /// ends up leftmost), in atomic chunks. See
    /// [`push_right_n`](Self::push_right_n).
    pub fn push_left_n<I>(&self, vals: I) -> Result<(), Full<Vec<V>>>
    where
        I: IntoIterator<Item = V>,
    {
        let max = MAX_BATCH.min(self.slots.len());
        let mut it = vals.into_iter();
        loop {
            // Guarded exactly as in `push_right_n`.
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
            if self.push_chunk_left(chunk.words()) {
                chunk.commit();
            } else {
                return Err(Full(chunk.reclaim().into_iter().chain(it).collect()));
            }
        }
    }

    /// Pops up to `n` values from the right end, rightmost first, in
    /// atomic chunks of up to [`MAX_BATCH`]; stops early at a chunk that
    /// certified the deque exhausted.
    pub fn pop_right_n(&self, n: usize) -> Vec<V> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let k = (n - out.len()).min(MAX_BATCH);
            if self.pop_chunk_right(k, &mut out) {
                break;
            }
        }
        out
    }

    /// Pops up to `n` values from the left end, leftmost first, in
    /// atomic chunks. See [`pop_right_n`](Self::pop_right_n).
    pub fn pop_left_n(&self, n: usize) -> Vec<V> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let k = (n - out.len()).min(MAX_BATCH);
            if self.pop_chunk_left(k, &mut out) {
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
/// [`RawArrayDeque`] for the word-level API used by benches.
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

    /// Creates a deque with an explicit optimization configuration.
    pub fn with_config(length: usize, config: ArrayConfig) -> Self {
        ArrayDeque { raw: RawArrayDeque::with_config(length, config) }
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
