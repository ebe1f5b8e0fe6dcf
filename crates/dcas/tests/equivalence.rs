//! Property test: both strategies implement the same DCAS semantics.
//!
//! Any sequential program of loads, stores, CASes and DCASes must produce
//! identical observable results (return values and final memory) under
//! every strategy, and must agree with a direct reference model of
//! Figure 1's semantics.

use dcas::{DcasStrategy, DcasWord, GlobalLock, HarrisMcas};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Load(usize),
    Store(usize, u64),
    Cas(usize, u64, u64),
    Dcas(usize, usize, u64, u64, u64, u64),
    DcasStrong(usize, usize, u64, u64, u64, u64),
}

const WORDS: usize = 4;

fn word_val() -> impl Strategy<Value = u64> {
    // Small value space (multiples of 4) so comparisons hit often.
    (0u64..8).prop_map(|v| v * 4)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let idx = 0..WORDS;
    prop_oneof![
        idx.clone().prop_map(Op::Load),
        (idx.clone(), word_val()).prop_map(|(i, v)| Op::Store(i, v)),
        (idx.clone(), word_val(), word_val()).prop_map(|(i, o, n)| Op::Cas(i, o, n)),
        (idx.clone(), idx.clone(), word_val(), word_val(), word_val(), word_val()).prop_map(
            |(i, j, o1, o2, n1, n2)| Op::Dcas(i, j, o1, o2, n1, n2)
        ),
        (idx.clone(), idx, word_val(), word_val(), word_val(), word_val()).prop_map(
            |(i, j, o1, o2, n1, n2)| Op::DcasStrong(i, j, o1, o2, n1, n2)
        ),
    ]
}

/// Observable trace of a run: every return value, then the final memory.
fn run<S: DcasStrategy>(ops: &[Op]) -> Vec<u64> {
    let s = S::default();
    let words: Vec<DcasWord> = (0..WORDS).map(|_| DcasWord::new(0)).collect();
    let mut trace = Vec::new();
    for op in ops {
        match *op {
            Op::Load(i) => trace.push(s.load(&words[i])),
            Op::Store(i, v) => s.store(&words[i], v),
            Op::Cas(i, o, n) => trace.push(s.cas(&words[i], o, n) as u64),
            Op::Dcas(i, j, o1, o2, n1, n2) => {
                if i != j {
                    trace.push(s.dcas(&words[i], &words[j], o1, o2, n1, n2) as u64);
                }
            }
            Op::DcasStrong(i, j, mut o1, mut o2, n1, n2) => {
                if i != j {
                    trace.push(
                        s.dcas_strong(&words[i], &words[j], &mut o1, &mut o2, n1, n2) as u64,
                    );
                    trace.push(o1);
                    trace.push(o2);
                }
            }
        }
    }
    trace.extend(words.iter().map(|w| s.load(w)));
    trace
}

/// Direct model of Figure 1 over a plain array.
fn run_model(ops: &[Op]) -> Vec<u64> {
    let mut mem = [0u64; WORDS];
    let mut trace = Vec::new();
    for op in ops {
        match *op {
            Op::Load(i) => trace.push(mem[i]),
            Op::Store(i, v) => mem[i] = v,
            Op::Cas(i, o, n) => {
                let ok = mem[i] == o;
                if ok {
                    mem[i] = n;
                }
                trace.push(ok as u64);
            }
            Op::Dcas(i, j, o1, o2, n1, n2) => {
                if i != j {
                    let ok = mem[i] == o1 && mem[j] == o2;
                    if ok {
                        mem[i] = n1;
                        mem[j] = n2;
                    }
                    trace.push(ok as u64);
                }
            }
            Op::DcasStrong(i, j, o1, o2, n1, n2) => {
                if i != j {
                    let ok = mem[i] == o1 && mem[j] == o2;
                    if ok {
                        mem[i] = n1;
                        mem[j] = n2;
                        trace.push(1);
                        trace.push(o1);
                        trace.push(o2);
                    } else {
                        trace.push(0);
                        trace.push(mem[i]);
                        trace.push(mem[j]);
                    }
                }
            }
        }
    }
    trace.extend_from_slice(&mem);
    trace
}

proptest! {
    #[test]
    fn all_strategies_match_the_figure1_model(
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        let expect = run_model(&ops);
        prop_assert_eq!(run::<GlobalLock>(&ops), expect.clone(), "GlobalLock diverged");
        prop_assert_eq!(run::<HarrisMcas>(&ops), expect, "HarrisMcas diverged");
    }
}
