//! Systematic script-space sweeps: instead of hand-picking interesting
//! scenarios, enumerate whole families of scripts and exhaustively
//! model-check each configuration.
//!
//! * Every two-thread two-operation script pair over the full operation
//!   alphabet: 256 script pairs × initial contents × machines.
//! * Every two-thread script with one end per thread (the right thread
//!   works at the right end, the left thread at the left), each thread
//!   non-empty, of total length at most 9: 7,172 scripts per list
//!   machine. This is the family in which the two-null splice erratum
//!   (DESIGN.md, "Known errata") first shows, at 8 operations, and the
//!   negative controls prove the sweep catches it. A second set of
//!   controls proves it catches a push fused into a splice that links
//!   its node to the spliced node instead of the one beyond. It runs in
//!   release only (`cargo test --release -p dcas-modelcheck --test
//!   script_space_sweep`); a debug run skips it.

use dcas_linearize::DequeOp;
use dcas_modelcheck::machines::{ArrayMachine, DummyMachine, LfrcMachine, ListMachine};
use dcas_modelcheck::{Explorer, System};

/// The op alphabet; values are chosen unique per (thread, position) when
/// instantiated.
#[derive(Clone, Copy, Debug)]
enum OpKind {
    PushRight,
    PushLeft,
    PopRight,
    PopLeft,
}

const ALPHABET: [OpKind; 4] = [OpKind::PushRight, OpKind::PushLeft, OpKind::PopRight, OpKind::PopLeft];

fn instantiate(kind: OpKind, unique: u64) -> DequeOp {
    match kind {
        OpKind::PushRight => DequeOp::PushRight(10 + unique * 4),
        OpKind::PushLeft => DequeOp::PushLeft(10 + unique * 4),
        OpKind::PopRight => DequeOp::PopRight,
        OpKind::PopLeft => DequeOp::PopLeft,
    }
}

/// All 256 two-thread scripts of two ops each.
fn all_script_pairs() -> Vec<Vec<Vec<DequeOp>>> {
    let mut out = Vec::new();
    for a0 in ALPHABET {
        for a1 in ALPHABET {
            for b0 in ALPHABET {
                for b1 in ALPHABET {
                    out.push(vec![
                        vec![instantiate(a0, 0), instantiate(a1, 1)],
                        vec![instantiate(b0, 2), instantiate(b1, 3)],
                    ]);
                }
            }
        }
    }
    out
}

#[test]
fn list_machine_full_script_space() {
    for (i, scripts) in all_script_pairs().into_iter().enumerate() {
        for initial in [0usize, 1] {
            let m = ListMachine::with_initial(
                scripts.clone(),
                (0..initial as u64).map(|k| 5 + k * 4).collect(),
            );
            Explorer::default()
                .explore(&m, |_| {})
                .unwrap_or_else(|e| panic!("config {i} (initial {initial}): {e}"));
        }
    }
}

#[test]
fn array_machine_full_script_space() {
    for (i, scripts) in all_script_pairs().into_iter().enumerate() {
        for (cap, initial) in [(1usize, 0usize), (2, 1), (3, 1)] {
            let m = ArrayMachine::new(cap, scripts.clone())
                .with_initial((0..initial as u64).map(|k| 5 + k * 4).collect());
            Explorer::default()
                .explore(&m, |_| {})
                .unwrap_or_else(|e| panic!("config {i} (cap {cap}, initial {initial}): {e}"));
        }
    }
}

#[test]
fn array_machine_minimal_config_full_script_space() {
    // The weak-DCAS-only variant over the same space.
    for (i, scripts) in all_script_pairs().into_iter().enumerate() {
        let m = ArrayMachine::new(2, scripts).minimal().with_initial(vec![5]);
        Explorer::default()
            .explore(&m, |_| {})
            .unwrap_or_else(|e| panic!("config {i}: {e}"));
    }
}

#[test]
fn lfrc_machine_full_script_space() {
    // The GC-free variant with the exact reference-count audit active on
    // every state of every configuration.
    for (i, scripts) in all_script_pairs().into_iter().enumerate() {
        let m = LfrcMachine::with_initial(scripts, vec![5]);
        Explorer::default()
            .explore(&m, |_| {})
            .unwrap_or_else(|e| panic!("config {i}: {e}"));
    }
}

#[test]
fn dummy_machine_full_script_space() {
    for (i, scripts) in all_script_pairs().into_iter().enumerate() {
        let m = DummyMachine::with_initial(scripts, vec![5]);
        Explorer::default()
            .explore(&m, |_| {})
            .unwrap_or_else(|e| panic!("config {i}: {e}"));
    }
}

/// Longest total script length of the one-end sweep.
const ONE_END_MAX: usize = 9;

/// The one-end scripts of one thread with `len` operations: every
/// push/pop sequence at the end `push`/`pop` name, pushes numbered from
/// `first` upward (values stay distinct and at least 4, as every list
/// machine requires).
fn one_end_thread(len: usize, pops: u32, first: u64, right: bool) -> Vec<DequeOp> {
    (0..len)
        .map(|i| {
            let v = first + i as u64;
            match (pops >> i & 1 == 1, right) {
                (true, true) => DequeOp::PopRight,
                (true, false) => DequeOp::PopLeft,
                (false, true) => DequeOp::PushRight(v),
                (false, false) => DequeOp::PushLeft(v),
            }
        })
        .collect()
}

/// Every two-thread script with the right thread at the right end and
/// the left thread at the left, both non-empty, of total length at most
/// `max_total`, shortest first.
fn one_end_scripts(max_total: usize) -> impl Iterator<Item = Vec<Vec<DequeOp>>> {
    (2..=max_total).flat_map(|total| {
        (1..total).flat_map(move |a| {
            let b = total - a;
            (0..1u32 << a).flat_map(move |ra| {
                (0..1u32 << b).map(move |lb| {
                    vec![one_end_thread(a, ra, 10, true), one_end_thread(b, lb, 30, false)]
                })
            })
        })
    })
}

/// Explores every one-end script on the machine `make` builds, returning
/// how many were checked, or the first failure with its script.
fn one_end_sweep<M: System>(make: impl Fn(Vec<Vec<DequeOp>>) -> M) -> Result<usize, String> {
    let mut checked = 0;
    for scripts in one_end_scripts(ONE_END_MAX) {
        let m = make(scripts.clone());
        Explorer::default()
            .explore(&m, |_| {})
            .map_err(|e| format!("script {scripts:?}: {e}"))?;
        checked += 1;
    }
    Ok(checked)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn list_machine_one_end_scripts() {
    assert_eq!(one_end_sweep(ListMachine::new), Ok(7_172));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn dummy_machine_one_end_scripts() {
    assert_eq!(one_end_sweep(DummyMachine::new), Ok(7_172));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn lfrc_machine_one_end_scripts() {
    assert_eq!(one_end_sweep(LfrcMachine::new), Ok(7_172));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn one_end_sweep_catches_list_without_two_null_check() {
    let err = one_end_sweep(|s| ListMachine::new(s).without_two_null_check()).unwrap_err();
    eprintln!("list control: {err}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn one_end_sweep_catches_dummy_without_two_null_check() {
    let err = one_end_sweep(|s| DummyMachine::new(s).without_two_null_check()).unwrap_err();
    eprintln!("dummy control: {err}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn one_end_sweep_catches_lfrc_without_two_null_check() {
    let err = one_end_sweep(|s| LfrcMachine::new(s).without_two_null_check()).unwrap_err();
    eprintln!("lfrc control: {err}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn one_end_sweep_catches_list_without_fill_relink() {
    let err = one_end_sweep(|s| ListMachine::new(s).without_fill_relink()).unwrap_err();
    eprintln!("list fill control: {err}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn one_end_sweep_catches_dummy_without_fill_relink() {
    let err = one_end_sweep(|s| DummyMachine::new(s).without_fill_relink()).unwrap_err();
    eprintln!("dummy fill control: {err}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn one_end_sweep_catches_lfrc_without_fill_relink() {
    let err = one_end_sweep(|s| LfrcMachine::new(s).without_fill_relink()).unwrap_err();
    eprintln!("lfrc fill control: {err}");
}
