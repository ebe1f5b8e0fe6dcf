//! Factored sets of abstract deque states, carried between windows.
//!
//! Exact windowed checking carries every state a window can leave the
//! deque in. Overlapping pushes make that set grow multiplicatively:
//! `k` independent pairs of concurrent `pushLeft`s leave `2^k` orders,
//! most of them deep inside the deque where no operation looks for a
//! long time. A [`StateSet`] stores the set as a **product of
//! segments** — each segment the set of alternatives for one stretch of
//! the sequence — so those `k` pairs cost `2k` short sequences instead
//! of `2^k` long ones.
//!
//! Every state in a set has the same length: each recorded response
//! fixes how many elements its operation added or removed, and all
//! states descend from one initial state.
//!
//! A window whose pops cannot reach the middle of the deque is checked
//! one end at a time, so the segments it cannot touch are never
//! expanded. Windows that branch (see [`crate::window`]) leave a union
//! of such products; small unions are merged back into one.

use std::collections::{HashMap, HashSet};

use crate::checker::{linearization_final_states, Violation};
use crate::history::Completed;
use crate::spec::{DequeOp, SeqDeque};

/// One stretch of the sequence: its distinct alternatives, all of the
/// same non-zero length.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment(Vec<Vec<u64>>);

impl Segment {
    fn width(&self) -> usize {
        self.0[0].len()
    }
}

/// Every concatenation that picks one alternative per segment.
type Product = Vec<Segment>;

/// A union no larger than this many states is re-factored into a single
/// product, so unions built by branching windows stay short.
const MERGE_LIMIT: usize = 4096;

/// A set of deque states, all of one length, stored as a union of
/// products of segments (usually just one product).
#[derive(Debug, Clone)]
pub struct StateSet {
    capacity: Option<usize>,
    products: Vec<Product>,
}

impl StateSet {
    /// The set holding only `state`.
    pub(crate) fn single(state: SeqDeque) -> Self {
        let capacity = state.capacity();
        let items: Vec<u64> = state.items().collect();
        let product = if items.is_empty() { Vec::new() } else { vec![Segment(vec![items])] };
        StateSet { capacity, products: vec![product] }
    }

    /// The set of `states` (non-empty, all of one length and capacity),
    /// factored into the finest single product.
    pub(crate) fn from_states(states: &[SeqDeque]) -> Self {
        StateSet { capacity: states[0].capacity(), products: vec![factor(states)] }
    }

    /// Every state of the set, built one at a time (a state shared by
    /// two products of a union is yielded once per product).
    pub fn iter(&self) -> impl Iterator<Item = SeqDeque> + '_ {
        self.products.iter().flat_map(move |p| {
            product(p).map(move |items| SeqDeque::from_items(self.capacity, items))
        })
    }

    /// Number of states, counted once per product (saturating).
    pub(crate) fn len(&self) -> usize {
        self.products
            .iter()
            .map(|p| p.iter().fold(1usize, |n, s| n.saturating_mul(s.0.len())))
            .fold(0usize, usize::saturating_add)
    }

    /// The union of two sets of the same capacity.
    pub(crate) fn union(mut self, other: StateSet) -> StateSet {
        for p in other.products {
            if !self.products.contains(&p) {
                self.products.push(p);
            }
        }
        if self.products.len() > 1 && self.len() <= MERGE_LIMIT {
            let states: Vec<SeqDeque> = self.iter().collect();
            return StateSet::from_states(&states);
        }
        self
    }

    /// The states the window `ops` can leave the deque in, starting from
    /// any state of this set, or the checker's diagnostics if none
    /// admits a linearization.
    pub(crate) fn after(&self, ops: &[Completed]) -> Result<StateSet, Violation> {
        let mut out: Option<StateSet> = None;
        let mut violation = None;
        for p in &self.products {
            match after_product(self.capacity, p, ops) {
                Ok(next) => {
                    let next = StateSet { capacity: self.capacity, products: vec![next] };
                    out = Some(match out {
                        None => next,
                        Some(o) => o.union(next),
                    });
                }
                Err(v) => violation = Some(v),
            }
        }
        out.ok_or_else(|| violation.expect("a state set has at least one product"))
    }
}

/// [`StateSet::after`] for one product.
///
/// For the unbounded deque, a window whose left pops take at most
/// `need_l` elements and whose right pops at most `need_r`, run on states
/// at least `need_l + need_r` long, never lets a pop see the other end's
/// elements or an empty deque. Left-end and right-end operations then
/// commute, so the window linearizes iff its left-end operations do from
/// the leftmost `need_l` elements and its right-end operations do from
/// the rightmost `need_r` (a total order extends real time iff each
/// operation takes a point inside its own interval, and the two ends'
/// points are chosen independently). The segments between are carried
/// untouched. Otherwise — a short deque or a bounded one, where "full"
/// couples the ends — the window is checked on whole states.
fn after_product(
    capacity: Option<usize>,
    segs: &[Segment],
    ops: &[Completed],
) -> Result<Product, Violation> {
    if capacity.is_none() {
        let (mut left, mut right) = (Vec::new(), Vec::new());
        let (mut need_l, mut need_r) = (0usize, 0usize);
        for (i, c) in ops.iter().enumerate() {
            match c.op {
                DequeOp::PushLeft(_) | DequeOp::PushLeftN(_) => left.push(i),
                DequeOp::PushRight(_) | DequeOp::PushRightN(_) => right.push(i),
                DequeOp::PopLeft => {
                    left.push(i);
                    need_l += 1;
                }
                DequeOp::PopLeftN(k) => {
                    left.push(i);
                    need_l += usize::from(k);
                }
                DequeOp::PopRight => {
                    right.push(i);
                    need_r += 1;
                }
                DequeOp::PopRightN(k) => {
                    right.push(i);
                    need_r += usize::from(k);
                }
            }
        }
        if let Some((mut segs, l_end, r_start)) = split_ends(segs, need_l, need_r) {
            let right_segs = segs.split_off(r_start);
            let middle = segs.split_off(l_end);
            let left_finals = end_finals(&segs, ops, &left)?;
            let right_finals = end_finals(&right_segs, ops, &right)?;
            let mut out = factor(&left_finals);
            out.extend(middle);
            out.extend(factor(&right_finals));
            return Ok(coalesce(out));
        }
    }
    let states: Vec<SeqDeque> =
        product(segs).map(|items| SeqDeque::from_items(capacity, items)).collect();
    let finals = linearization_final_states(&states, ops)?;
    Ok(factor(&finals))
}

/// Re-cuts `segs` so that a leading run of them is at least `need_l`
/// wide and a disjoint trailing run at least `need_r` wide, splitting
/// single-alternative segments where that keeps the runs short. Returns
/// the segments and the bounds of the two runs, or `None` if the states
/// are too short for the runs to be disjoint.
fn split_ends(
    segs: &[Segment],
    need_l: usize,
    need_r: usize,
) -> Option<(Vec<Segment>, usize, usize)> {
    let total: usize = segs.iter().map(Segment::width).sum();
    if need_l + need_r > total {
        return None;
    }
    let cuts = [need_l, total - need_r];
    let mut out = Vec::with_capacity(segs.len() + 2);
    let mut pos = 0;
    for seg in segs {
        let width = seg.width();
        let mut start = 0;
        if seg.0.len() == 1 {
            for &cut in &cuts {
                if cut > pos + start && cut < pos + width {
                    out.push(Segment(vec![seg.0[0][start..cut - pos].to_vec()]));
                    start = cut - pos;
                }
            }
        }
        out.push(if start == 0 { seg.clone() } else { Segment(vec![seg.0[0][start..].to_vec()]) });
        pos += width;
    }
    let (mut l_end, mut covered) = (0, 0);
    while covered < need_l {
        covered += out[l_end].width();
        l_end += 1;
    }
    let (mut r_start, mut covered) = (out.len(), 0);
    while covered < need_r {
        r_start -= 1;
        covered += out[r_start].width();
    }
    (l_end <= r_start).then_some((out, l_end, r_start))
}

/// Final states of one end: the operations `ops[idx]` checked from every
/// concatenation of `segs`. Violation indices are mapped back into `ops`.
fn end_finals(segs: &[Segment], ops: &[Completed], idx: &[usize]) -> Result<Vec<SeqDeque>, Violation> {
    let initials: Vec<SeqDeque> =
        product(segs).map(|items| SeqDeque::from_items(None, items)).collect();
    let end_ops: Vec<Completed> = idx.iter().map(|&i| ops[i]).collect();
    linearization_final_states(&initials, &end_ops).map_err(|v| Violation {
        deepest_prefix: v.deepest_prefix.iter().map(|&j| idx[j]).collect(),
    })
}

/// `states` (non-empty, all of one length) as the finest product of
/// segments.
fn factor(states: &[SeqDeque]) -> Product {
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    let seqs: Vec<Vec<u64>> = states
        .iter()
        .map(|s| s.items().collect::<Vec<u64>>())
        .filter(|s| seen.insert(s.clone()))
        .collect();
    let width = seqs[0].len();
    debug_assert!(seqs.iter().all(|s| s.len() == width), "states differ in length");
    if width == 0 {
        return Vec::new();
    }
    // The set splits at position p iff (#distinct prefixes of length p)
    // * (#distinct suffixes from p) equals its size; splitting at every
    // such p at once is still exact.
    let prefixes = distinct_counts(&seqs, 0..width);
    let suffixes = distinct_counts(&seqs, (0..width).rev());
    let mut cuts: Vec<usize> = (1..width)
        .filter(|&p| prefixes[p - 1] * suffixes[width - 1 - p] == seqs.len())
        .collect();
    cuts.push(width);
    let mut segs = Vec::with_capacity(cuts.len());
    let mut start = 0;
    for end in cuts {
        let mut seen: HashSet<&[u64]> = HashSet::new();
        let alts: Vec<Vec<u64>> = seqs
            .iter()
            .map(|s| &s[start..end])
            .filter(|a| seen.insert(a))
            .map(<[u64]>::to_vec)
            .collect();
        segs.push(Segment(alts));
        start = end;
    }
    coalesce(segs)
}

/// Every concatenation picking one alternative per segment, in odometer
/// order (one empty sequence for no segments).
fn product(segs: &[Segment]) -> impl Iterator<Item = Vec<u64>> + '_ {
    let mut pick = vec![0usize; segs.len()];
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let items: Vec<u64> =
            segs.iter().zip(&pick).flat_map(|(s, &i)| s.0[i].iter().copied()).collect();
        done = true;
        for (p, s) in pick.iter_mut().zip(segs).rev() {
            *p += 1;
            if *p < s.0.len() {
                done = false;
                break;
            }
            *p = 0;
        }
        Some(items)
    })
}

/// `counts[k]`: how many distinct sequences the first `k + 1` of
/// `positions` read out of `seqs` — distinct prefixes of length `k + 1`
/// when walking forwards, distinct suffixes when walking backwards.
fn distinct_counts(seqs: &[Vec<u64>], positions: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut ids = vec![0u32; seqs.len()];
    let mut counts = Vec::new();
    for p in positions {
        let mut intern: HashMap<(u32, u64), u32> = HashMap::new();
        for (s, id) in seqs.iter().zip(ids.iter_mut()) {
            let next = intern.len() as u32;
            *id = *intern.entry((*id, s[p])).or_insert(next);
        }
        counts.push(intern.len());
    }
    counts
}

/// Merges runs of adjacent single-alternative segments into one.
fn coalesce(segs: Vec<Segment>) -> Vec<Segment> {
    let mut out: Vec<Segment> = Vec::with_capacity(segs.len());
    for seg in segs {
        match out.last_mut() {
            Some(last) if last.0.len() == 1 && seg.0.len() == 1 => {
                last.0[0].extend_from_slice(&seg.0[0]);
            }
            _ => out.push(seg),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Batch, DequeRet};
    use proptest::prelude::*;

    fn op(invoke_ts: u64, respond_ts: u64, op: DequeOp, ret: DequeRet) -> Completed {
        Completed { invoke_ts, respond_ts, op, ret }
    }

    fn unbounded(items: &[u64]) -> SeqDeque {
        SeqDeque::from_items(None, items.to_vec())
    }

    fn sorted(states: impl Iterator<Item = SeqDeque>) -> Vec<Vec<u64>> {
        let mut v: Vec<Vec<u64>> = states.map(|s| s.items().collect()).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn independent_choices_factor_into_segments() {
        let states: Vec<SeqDeque> = [[1, 2, 3, 4, 5], [2, 1, 3, 4, 5], [1, 2, 3, 5, 4], [2, 1, 3, 5, 4]]
            .iter()
            .map(|s| unbounded(s))
            .collect();
        let set = StateSet::from_states(&states);
        assert_eq!(set.products[0].len(), 3);
        assert_eq!(set.len(), 4);
        assert_eq!(sorted(set.iter()), sorted(states.into_iter()));
    }

    #[test]
    fn correlated_choices_stay_exact() {
        // Not a product: the first two positions decide the third.
        let states: Vec<SeqDeque> =
            [[1, 2, 3], [2, 1, 4]].iter().map(|s| unbounded(s)).collect();
        let set = StateSet::from_states(&states);
        assert_eq!(set.len(), 2);
        assert_eq!(sorted(set.iter()), sorted(states.into_iter()));
    }

    #[test]
    fn concurrent_push_pairs_grow_segments_not_states() {
        // Window k: two overlapping pushLefts. After 40 windows the set
        // has 2^40 states, held as 40 two-way segments.
        let mut set = StateSet::single(SeqDeque::unbounded());
        for k in 0..40u64 {
            let t = 10 * k;
            set = set
                .after(&[
                    op(t, t + 3, DequeOp::PushLeft(2 * k), DequeRet::Okay),
                    op(t + 1, t + 2, DequeOp::PushLeft(2 * k + 1), DequeRet::Okay),
                ])
                .unwrap();
        }
        assert_eq!(set.len(), 1 << 40);
        assert_eq!(set.products[0].len(), 40);
        // popRight reaches the first pair and resolves its order.
        set = set.after(&[op(500, 501, DequeOp::PopRight, DequeRet::Value(1))]).unwrap();
        assert_eq!(set.len(), 1 << 39);
        let err = set.after(&[op(502, 503, DequeOp::PopRight, DequeRet::Value(1))]);
        assert!(err.is_err(), "a value popped twice must be rejected");
    }

    #[test]
    fn far_end_violation_reports_window_indices() {
        let set = StateSet::single(unbounded(&[1, 2, 3, 4]));
        let ops = [
            op(0, 1, DequeOp::PushLeft(9), DequeRet::Okay),
            op(2, 3, DequeOp::PopRight, DequeRet::Value(4)),
            op(4, 5, DequeOp::PopRight, DequeRet::Value(4)),
        ];
        let v = set.after(&ops).unwrap_err();
        assert!(v.deepest_prefix.iter().all(|&i| i >= 1), "{:?}", v.deepest_prefix);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random history: a sequential run of the spec from a prefilled
    /// state, each operation given an interval around its point, and
    /// sometimes one response corrupted.
    fn history(seed: u64, capacity: Option<usize>) -> (SeqDeque, Vec<Completed>) {
        let mut rng = seed;
        let prefill = (splitmix(&mut rng) % 16) as usize;
        let prefill = capacity.map_or(prefill, |c| prefill.min(c));
        let initial = SeqDeque::from_items(capacity, (1000..1000 + prefill as u64).collect());
        let mut d = initial.clone();
        let mut next = 1u64;
        let n = 4 + splitmix(&mut rng) % 9;
        let mut ops = Vec::new();
        for k in 0..n {
            let width = 1 + splitmix(&mut rng) % 3;
            let vals: Vec<u64> = (next..next + width).collect();
            let dop = match splitmix(&mut rng) % 8 {
                0 => DequeOp::PushLeft(next),
                1 => DequeOp::PushRight(next),
                2 => DequeOp::PopLeft,
                3 => DequeOp::PopRight,
                4 => DequeOp::PushLeftN(Batch::new(&vals)),
                5 => DequeOp::PushRightN(Batch::new(&vals)),
                6 => DequeOp::PopLeftN(width as u8),
                _ => DequeOp::PopRightN(width as u8),
            };
            next += width;
            let ret = d.apply(dop);
            let point = 100 * k + 200;
            let invoke = point - splitmix(&mut rng) % 120;
            let respond = point + splitmix(&mut rng) % 120;
            ops.push(op(invoke, respond, dop, ret));
        }
        if splitmix(&mut rng).is_multiple_of(4) {
            let victim = (splitmix(&mut rng) % n) as usize;
            ops[victim].ret = match ops[victim].ret {
                DequeRet::Value(v) => DequeRet::Value(v ^ 1),
                DequeRet::Empty => DequeRet::Value(1000),
                DequeRet::Okay => DequeRet::Full,
                DequeRet::Full => DequeRet::Okay,
                DequeRet::Values(_) => DequeRet::Values(Batch::new(&[])),
            };
        }
        (initial, ops)
    }

    /// The factored carry and the plain whole-state carry agree, window
    /// after window, on acceptance and on the reachable states.
    fn agrees(seed: u64, capacity: Option<usize>) {
        let (initial, ops) = history(seed, capacity);
        let split = ops.len() / 2;
        let mut plain = vec![initial.clone()];
        let mut factored = StateSet::single(initial);
        for window in [&ops[..split], &ops[split..]] {
            let p = linearization_final_states(&plain, window);
            let f = factored.after(window);
            assert_eq!(p.is_ok(), f.is_ok(), "seed {seed} window {window:?}");
            let (Ok(p), Ok(f)) = (p, f) else { return };
            assert_eq!(sorted(p.iter().cloned()), sorted(f.iter()), "seed {seed}");
            plain = p;
            factored = f;
        }
    }

    proptest! {
        #[test]
        fn factored_carry_matches_whole_states_unbounded(seed in any::<u64>()) {
            agrees(seed, None);
        }

        #[test]
        fn factored_carry_matches_whole_states_bounded(seed in any::<u64>()) {
            agrees(seed, Some(6));
        }
    }
}
