//! Kernel equivalence: every vectorized `map` / `filter` / `fold` kernel
//! against a per-lane reference.
//!
//! The kernels resolve operand shape and element type once per call and
//! then run slice loops that the compiler vectorizes — twice: for the
//! build's baseline target and under AVX2 (`kernels::lanes`). This suite
//! pins what that must never change: for every operation × element type ×
//! operand shape (column×column, column×constant, constant×column) ×
//! [`MapMode`] × [`FilterFlavor`] × with/without a pending selection, over
//! lengths around the block and chunk boundaries and over edge values
//! (NaN, −0.0, ±inf, integer MIN/MAX), the result equals a reference that
//! computes one lane at a time on boxed [`Scalar`]s — `f64` compared by
//! bit pattern. Each kernel call runs on both loop bodies in this process
//! (the `#[doc(hidden)]` `force_baseline` hook), so the AVX2 body, the
//! baseline body and the reference are compared three ways.

use std::sync::Mutex;

use adaptvm::dsl::{FoldFn, ScalarOp};
use adaptvm::kernels::filter::filter_bools;
use adaptvm::kernels::lanes::force_baseline;
use adaptvm::kernels::{filter_cmp, fold_apply, map_apply, FilterFlavor, MapMode, Operand};
use adaptvm::storage::{Array, Scalar, ScalarType, SelVec};

/// Lengths around the trace block (256) and the chunk (1024) boundaries.
const LENS: [usize; 8] = [0, 1, 255, 256, 257, 1023, 1024, 1025];

const NUMERIC: [ScalarType; 5] = [
    ScalarType::I8,
    ScalarType::I16,
    ScalarType::I32,
    ScalarType::I64,
    ScalarType::F64,
];

const ARITH: [ScalarOp; 7] = [
    ScalarOp::Add,
    ScalarOp::Sub,
    ScalarOp::Mul,
    ScalarOp::Div,
    ScalarOp::Rem,
    ScalarOp::Min,
    ScalarOp::Max,
];

const COMPARE: [ScalarOp; 6] = [
    ScalarOp::Eq,
    ScalarOp::Ne,
    ScalarOp::Lt,
    ScalarOp::Le,
    ScalarOp::Gt,
    ScalarOp::Ge,
];

/// `force_baseline` is process-wide: tests that flip it take turns, so a
/// run labelled "AVX2" really is one.
static BODY: Mutex<()> = Mutex::new(());

/// Restores run-time detection even when an assertion unwinds.
struct Baseline;

impl Baseline {
    fn pin() -> Baseline {
        force_baseline(true);
        Baseline
    }
}

impl Drop for Baseline {
    fn drop(&mut self) {
        force_baseline(false);
    }
}

/// Run `f` on the baseline body and on the detected (AVX2 where the CPU
/// has it) body; both must agree. Returns the result.
fn both_bodies<R: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> R) -> R {
    let pinned = Baseline::pin();
    let base = f();
    drop(pinned);
    let wide = f();
    assert_eq!(base, wide, "{what}: baseline and AVX2 bodies disagree");
    wide
}

// ---------------------------------------------------------------------
// Data.
// ---------------------------------------------------------------------

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 17
}

/// Edge values first, then small pseudo-random ones (small, so products
/// and comparisons take every branch; ties are frequent).
fn column(ty: ScalarType, n: usize, seed: u64) -> Array {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let small = |s: &mut u64| (lcg(s) % 23) as i64 - 11;
    match ty {
        ScalarType::I8 => {
            let edge = [i8::MIN, i8::MAX, 0, -1, 1];
            Array::I8(
                (0..n)
                    .map(|i| edge.get(i).copied().unwrap_or(small(&mut s) as i8))
                    .collect(),
            )
        }
        ScalarType::I16 => {
            let edge = [i16::MIN, i16::MAX, 0, -1, 1];
            Array::I16(
                (0..n)
                    .map(|i| edge.get(i).copied().unwrap_or(small(&mut s) as i16))
                    .collect(),
            )
        }
        ScalarType::I32 => {
            let edge = [i32::MIN, i32::MAX, 0, -1, 1];
            Array::I32(
                (0..n)
                    .map(|i| edge.get(i).copied().unwrap_or(small(&mut s) as i32))
                    .collect(),
            )
        }
        ScalarType::I64 => {
            let edge = [i64::MIN, i64::MAX, 0, -1, 1];
            Array::I64(
                (0..n)
                    .map(|i| edge.get(i).copied().unwrap_or(small(&mut s)))
                    .collect(),
            )
        }
        ScalarType::F64 => {
            let edge = [
                f64::NAN,
                -0.0,
                0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN_POSITIVE,
                -1.5,
            ];
            Array::F64(
                (0..n)
                    // The two columns of a binary op are seeded differently,
                    // so rotating by the seed pairs every edge with others.
                    .map(|i| match i < 2 * edge.len() {
                        true => edge[(i + seed as usize) % edge.len()],
                        false => small(&mut s) as f64 * 0.25,
                    })
                    .collect(),
            )
        }
        ScalarType::Bool => Array::Bool((0..n).map(|_| lcg(&mut s).is_multiple_of(3)).collect()),
        ScalarType::Str => Array::Str(
            (0..n)
                .map(|_| ["", "a", "ab", "b", "ba"][lcg(&mut s) as usize % 5].to_string())
                .collect(),
        ),
    }
}

/// Constants to broadcast: an ordinary value and an edge value.
fn constants(ty: ScalarType) -> Vec<Scalar> {
    match ty {
        ScalarType::I8 => vec![Scalar::I8(3), Scalar::I8(i8::MIN), Scalar::I8(0)],
        ScalarType::I16 => vec![Scalar::I16(3), Scalar::I16(i16::MAX), Scalar::I16(0)],
        ScalarType::I32 => vec![Scalar::I32(-2), Scalar::I32(i32::MIN), Scalar::I32(0)],
        ScalarType::I64 => vec![Scalar::I64(-2), Scalar::I64(i64::MAX), Scalar::I64(0)],
        ScalarType::F64 => vec![
            Scalar::F64(0.75),
            Scalar::F64(f64::NAN),
            Scalar::F64(-0.0),
            Scalar::F64(f64::INFINITY),
        ],
        ScalarType::Bool => vec![Scalar::Bool(true), Scalar::Bool(false)],
        ScalarType::Str => vec![Scalar::Str("ab".into()), Scalar::Str(String::new())],
    }
}

/// A selection keeping roughly two lanes in three (empty for `n == 0`).
fn selection(n: usize, seed: u64) -> SelVec {
    SelVec::new(
        (0..n as u32)
            .filter(|i| !(*i as u64 * 7 + seed).is_multiple_of(3))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// The per-lane reference.
// ---------------------------------------------------------------------

fn ref_binary(op: ScalarOp, a: &Scalar, b: &Scalar) -> Scalar {
    use ScalarOp::*;
    macro_rules! int {
        ($variant:ident, $x:expr, $y:expr) => {{
            let (x, y) = ($x, $y);
            match op {
                Add => Scalar::$variant(x.wrapping_add(y)),
                Sub => Scalar::$variant(x.wrapping_sub(y)),
                Mul => Scalar::$variant(x.wrapping_mul(y)),
                Div => Scalar::$variant(if y == 0 { 0 } else { x.wrapping_div(y) }),
                Rem => Scalar::$variant(if y == 0 { 0 } else { x.wrapping_rem(y) }),
                Min => Scalar::$variant(x.min(y)),
                Max => Scalar::$variant(x.max(y)),
                _ => ordered(op, &x, &y),
            }
        }};
    }
    match (a, b) {
        (Scalar::I8(x), Scalar::I8(y)) => int!(I8, *x, *y),
        (Scalar::I16(x), Scalar::I16(y)) => int!(I16, *x, *y),
        (Scalar::I32(x), Scalar::I32(y)) => int!(I32, *x, *y),
        (Scalar::I64(x), Scalar::I64(y)) => int!(I64, *x, *y),
        (Scalar::F64(x), Scalar::F64(y)) => match op {
            Add => Scalar::F64(x + y),
            Sub => Scalar::F64(x - y),
            Mul => Scalar::F64(x * y),
            Div => Scalar::F64(x / y),
            Rem => Scalar::F64(x % y),
            Min => Scalar::F64(x.min(*y)),
            Max => Scalar::F64(x.max(*y)),
            _ => ordered(op, x, y),
        },
        (Scalar::Bool(x), Scalar::Bool(y)) => match op {
            And => Scalar::Bool(*x && *y),
            Or => Scalar::Bool(*x || *y),
            _ => ordered(op, x, y),
        },
        (Scalar::Str(x), Scalar::Str(y)) => ordered(op, x, y),
        other => panic!("reference has no {op:?} for {other:?}"),
    }
}

fn ordered<T: PartialOrd>(op: ScalarOp, x: &T, y: &T) -> Scalar {
    Scalar::Bool(match op {
        ScalarOp::Eq => x == y,
        ScalarOp::Ne => x != y,
        ScalarOp::Lt => x < y,
        ScalarOp::Le => x <= y,
        ScalarOp::Gt => x > y,
        ScalarOp::Ge => x >= y,
        other => panic!("reference has no {other:?} here"),
    })
}

fn ref_unary(op: ScalarOp, a: &Scalar) -> Scalar {
    use adaptvm::kernels::map::hash_i64;
    match (op, a) {
        (ScalarOp::Neg, Scalar::I8(x)) => Scalar::I8(x.wrapping_neg()),
        (ScalarOp::Neg, Scalar::I16(x)) => Scalar::I16(x.wrapping_neg()),
        (ScalarOp::Neg, Scalar::I32(x)) => Scalar::I32(x.wrapping_neg()),
        (ScalarOp::Neg, Scalar::I64(x)) => Scalar::I64(x.wrapping_neg()),
        (ScalarOp::Neg, Scalar::F64(x)) => Scalar::F64(-x),
        (ScalarOp::Abs, Scalar::I8(x)) => Scalar::I8(x.wrapping_abs()),
        (ScalarOp::Abs, Scalar::I16(x)) => Scalar::I16(x.wrapping_abs()),
        (ScalarOp::Abs, Scalar::I32(x)) => Scalar::I32(x.wrapping_abs()),
        (ScalarOp::Abs, Scalar::I64(x)) => Scalar::I64(x.wrapping_abs()),
        (ScalarOp::Abs, Scalar::F64(x)) => Scalar::F64(x.abs()),
        (ScalarOp::Sqrt, x) => Scalar::F64(x.as_f64().expect("numeric").sqrt()),
        (ScalarOp::Not, Scalar::Bool(x)) => Scalar::Bool(!x),
        (ScalarOp::Hash, Scalar::F64(x)) => Scalar::I64(hash_i64(x.to_bits() as i64)),
        (ScalarOp::Hash, Scalar::Bool(x)) => Scalar::I64(hash_i64(*x as i64)),
        (ScalarOp::Hash, x) => Scalar::I64(hash_i64(x.as_i64().expect("integer"))),
        other => panic!("reference has no {other:?}"),
    }
}

fn default_of(ty: ScalarType) -> Scalar {
    match ty {
        ScalarType::F64 => Scalar::F64(0.0),
        ScalarType::Bool => Scalar::Bool(false),
        ScalarType::Str => Scalar::Str(String::new()),
        int => Scalar::int_of_type(0, int),
    }
}

/// Type tag plus one word per lane: floats by bit pattern.
fn canon(a: &Array) -> (ScalarType, Vec<u64>) {
    let words = match a {
        Array::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        Array::Bool(v) => v.iter().map(|&b| b as u64).collect(),
        Array::Str(v) => v.iter().map(|s| s.len() as u64).collect(),
        ints => ints
            .to_i64_vec()
            .expect("integer array")
            .into_iter()
            .map(|x| x as u64)
            .collect(),
    };
    (a.scalar_type(), words)
}

fn canon_scalars(lanes: &[Scalar]) -> (Option<ScalarType>, Vec<u64>) {
    let words = lanes
        .iter()
        .map(|s| match s {
            Scalar::F64(x) => x.to_bits(),
            Scalar::Bool(b) => *b as u64,
            Scalar::Str(s) => s.len() as u64,
            int => int.as_i64().expect("integer") as u64,
        })
        .collect();
    (lanes.first().map(Scalar::scalar_type), words)
}

fn assert_lanes(what: &str, got: &(ScalarType, Vec<u64>), expect: &[Scalar]) {
    let (ety, ewords) = canon_scalars(expect);
    if let Some(ety) = ety {
        assert_eq!(got.0, ety, "{what}: result type");
    }
    assert_eq!(got.1, ewords, "{what}");
}

/// An operand at lane `i`.
fn lane(o: &Operand<'_>, i: usize) -> Scalar {
    match o {
        Operand::Col(a) => a.get(i).expect("lane in range"),
        Operand::Const(s) => s.clone(),
    }
}

/// The three operand shapes of a binary kernel over two columns.
fn shapes<'a>(a: &'a Array, b: &'a Array, c: &Scalar) -> [(&'static str, [Operand<'a>; 2]); 3] {
    [
        ("col×col", [Operand::Col(a), Operand::Col(b)]),
        ("col×const", [Operand::Col(a), Operand::Const(c.clone())]),
        ("const×col", [Operand::Const(c.clone()), Operand::Col(b)]),
    ]
}

/// Every (selection, mode) a map can be called with.
fn map_flavors(sel: &SelVec) -> [(Option<&SelVec>, MapMode); 4] {
    [
        (None, MapMode::Full),
        (None, MapMode::Selective),
        (Some(sel), MapMode::Full),
        (Some(sel), MapMode::Selective),
    ]
}

/// Expected lanes of a map: computed everywhere, except that a selective
/// map over a pending selection leaves unselected lanes at the default.
fn expected_map(
    n: usize,
    sel: Option<&SelVec>,
    mode: MapMode,
    compute: impl Fn(usize) -> Scalar,
) -> Vec<Scalar> {
    match (sel, mode) {
        (Some(s), MapMode::Selective) => {
            let probe = (n > 0).then(|| compute(0));
            let mut out: Vec<Scalar> = (0..n)
                .map(|_| default_of(probe.as_ref().expect("n > 0").scalar_type()))
                .collect();
            for &i in s.indices() {
                out[i as usize] = compute(i as usize);
            }
            out
        }
        _ => (0..n).map(compute).collect(),
    }
}

// ---------------------------------------------------------------------
// map
// ---------------------------------------------------------------------

#[test]
fn binary_maps_match_the_per_lane_reference() {
    let _turn = BODY.lock().unwrap_or_else(|e| e.into_inner());
    let mut types = NUMERIC.to_vec();
    types.push(ScalarType::Bool);
    for n in LENS {
        let sel = selection(n, 1);
        for &ty in &types {
            let (a, b) = (column(ty, n, 3), column(ty, n, 4));
            let ops: Vec<ScalarOp> = match ty {
                ScalarType::Bool => COMPARE
                    .iter()
                    .copied()
                    .chain([ScalarOp::And, ScalarOp::Or])
                    .collect(),
                _ => ARITH.iter().chain(&COMPARE).copied().collect(),
            };
            for c in constants(ty) {
                for (shape, operands) in shapes(&a, &b, &c) {
                    for &op in &ops {
                        for (s, mode) in map_flavors(&sel) {
                            let what = format!(
                                "{op:?} {ty} {shape} c={c:?} n={n} sel={} {mode:?}",
                                s.is_some()
                            );
                            let got = both_bodies(&what, || {
                                canon(&map_apply(op, &operands, s, mode).expect("map kernel"))
                            });
                            let expect = expected_map(n, s, mode, |i| {
                                ref_binary(op, &lane(&operands[0], i), &lane(&operands[1], i))
                            });
                            assert_lanes(&what, &got, &expect);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn unary_maps_match_the_per_lane_reference() {
    let _turn = BODY.lock().unwrap_or_else(|e| e.into_inner());
    for n in LENS {
        let sel = selection(n, 2);
        let cases: Vec<(ScalarType, Vec<ScalarOp>)> = NUMERIC
            .iter()
            .map(|&ty| {
                (
                    ty,
                    vec![ScalarOp::Neg, ScalarOp::Abs, ScalarOp::Sqrt, ScalarOp::Hash],
                )
            })
            .chain([(ScalarType::Bool, vec![ScalarOp::Not, ScalarOp::Hash])])
            .collect();
        for (ty, ops) in cases {
            let a = column(ty, n, 5);
            let operands = [Operand::Col(&a)];
            for op in ops {
                for (s, mode) in map_flavors(&sel) {
                    let what = format!("{op:?} {ty} n={n} sel={} {mode:?}", s.is_some());
                    let got = both_bodies(&what, || {
                        canon(&map_apply(op, &operands, s, mode).expect("map kernel"))
                    });
                    let expect =
                        expected_map(n, s, mode, |i| ref_unary(op, &lane(&operands[0], i)));
                    assert_lanes(&what, &got, &expect);
                }
            }
        }
    }
}

/// Mixed widths go through the widening copy (`Typed::Owned`): the same
/// loops must serve it.
#[test]
fn promoted_operands_match_the_per_lane_reference() {
    let _turn = BODY.lock().unwrap_or_else(|e| e.into_inner());
    for n in LENS {
        let narrow = column(ScalarType::I16, n, 6);
        let wide = column(ScalarType::I64, n, 7);
        let float = column(ScalarType::F64, n, 8);
        for op in ARITH.iter().chain(&COMPARE).copied() {
            let what = format!("{op:?} i16×i64 n={n}");
            let got = both_bodies(&what, || {
                let operands = [Operand::Col(&narrow), Operand::Col(&wide)];
                canon(&map_apply(op, &operands, None, MapMode::Full).expect("map kernel"))
            });
            let expect: Vec<Scalar> = (0..n)
                .map(|i| {
                    let x = narrow.get(i).unwrap().as_i64().unwrap();
                    ref_binary(op, &Scalar::I64(x), &wide.get(i).unwrap())
                })
                .collect();
            assert_lanes(&what, &got, &expect);

            let what = format!("{op:?} i64×f64 n={n}");
            let got = both_bodies(&what, || {
                let operands = [Operand::Col(&wide), Operand::Col(&float)];
                canon(&map_apply(op, &operands, None, MapMode::Full).expect("map kernel"))
            });
            let expect: Vec<Scalar> = (0..n)
                .map(|i| {
                    let x = wide.get(i).unwrap().as_f64().unwrap();
                    ref_binary(op, &Scalar::F64(x), &float.get(i).unwrap())
                })
                .collect();
            assert_lanes(&what, &got, &expect);
        }
    }
}

// ---------------------------------------------------------------------
// filter
// ---------------------------------------------------------------------

#[test]
fn filters_match_the_per_lane_reference_in_every_flavor() {
    let _turn = BODY.lock().unwrap_or_else(|e| e.into_inner());
    let mut types = NUMERIC.to_vec();
    types.extend([ScalarType::Bool, ScalarType::Str]);
    for n in LENS {
        let existing = selection(n, 3);
        for &ty in &types {
            let (a, b) = (column(ty, n, 9), column(ty, n, 10));
            for c in constants(ty) {
                for (shape, operands) in shapes(&a, &b, &c) {
                    for op in COMPARE {
                        for candidates in [None, Some(&existing)] {
                            let expect: Vec<u32> = match candidates {
                                Some(s) => s.indices().to_vec(),
                                None => (0..n as u32).collect(),
                            }
                            .into_iter()
                            .filter(|&i| {
                                let (x, y) = (
                                    lane(&operands[0], i as usize),
                                    lane(&operands[1], i as usize),
                                );
                                ref_binary(op, &x, &y) == Scalar::Bool(true)
                            })
                            .collect();
                            for flavor in FilterFlavor::ALL {
                                let what = format!(
                                    "{op:?} {ty} {shape} c={c:?} n={n} existing={} {flavor:?}",
                                    candidates.is_some()
                                );
                                let got = both_bodies(&what, || {
                                    filter_cmp(op, &operands, candidates, flavor)
                                        .expect("filter kernel")
                                });
                                assert_eq!(got.indices(), &expect[..], "{what}");
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn boolean_column_filters_match_the_per_lane_reference() {
    let _turn = BODY.lock().unwrap_or_else(|e| e.into_inner());
    for n in LENS {
        let existing = selection(n, 4);
        // Densities on both sides of the sparse/dense compaction switch.
        for density in [0usize, 1, 2, 9, 40] {
            let bools: Vec<bool> = (0..n)
                .map(|i| density > 0 && (i * 31 + 7) % 41 < density)
                .collect();
            let column = Array::Bool(bools.clone());
            for candidates in [None, Some(&existing)] {
                let expect: Vec<u32> = match candidates {
                    Some(s) => s.indices().to_vec(),
                    None => (0..n as u32).collect(),
                }
                .into_iter()
                .filter(|&i| bools[i as usize])
                .collect();
                for flavor in FilterFlavor::ALL {
                    let what = format!(
                        "bools n={n} density={density}/41 existing={} {flavor:?}",
                        candidates.is_some()
                    );
                    let got = both_bodies(&what, || {
                        filter_bools(&column, candidates, flavor).expect("filter kernel")
                    });
                    assert_eq!(got.indices(), &expect[..], "{what}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// fold
// ---------------------------------------------------------------------

/// Folds are strict left-to-right reductions from `init` — for `f64` the
/// order is the result, so the reference adds in lane order too.
#[test]
fn folds_match_the_left_to_right_reference() {
    let _turn = BODY.lock().unwrap_or_else(|e| e.into_inner());
    for n in LENS {
        let sel = selection(n, 5);
        for ty in NUMERIC {
            // No infinities in a summed column: once a sum has met
            // `inf + -inf` (the negative default NaN), adding an input NaN
            // keeps whichever NaN the add's operand order favours, which no
            // two code sequences need agree on.
            let a = match column(ty, n, 11) {
                Array::F64(v) => {
                    Array::F64(v.into_iter().map(|x| x.clamp(f64::MIN, f64::MAX)).collect())
                }
                other => other,
            };
            for f in [FoldFn::Sum, FoldFn::Min, FoldFn::Max, FoldFn::Count] {
                let init = match (f, ty) {
                    (FoldFn::Count, _) => Scalar::I64(2),
                    (_, ScalarType::F64) => Scalar::F64(0.5),
                    (_, int) => Scalar::int_of_type(1, int),
                };
                for s in [None, Some(&sel)] {
                    let what = format!("fold {f:?} {ty} n={n} sel={}", s.is_some());
                    let got = both_bodies(&what, || {
                        let r = fold_apply(f, &init, &a, s).expect("fold kernel");
                        (r.scalar_type(), canon_scalars(&[r]).1)
                    });
                    let lanes: Vec<usize> = match s {
                        Some(s) => s.indices().iter().map(|&i| i as usize).collect(),
                        None => (0..n).collect(),
                    };
                    let expect = lanes.iter().fold(init.clone(), |acc, &i| {
                        let v = a.get(i).unwrap();
                        match f {
                            FoldFn::Sum => ref_binary(ScalarOp::Add, &acc, &v),
                            FoldFn::Min => ref_binary(ScalarOp::Min, &acc, &v),
                            FoldFn::Max => ref_binary(ScalarOp::Max, &acc, &v),
                            _ => Scalar::I64(acc.as_i64().unwrap() + 1),
                        }
                    });
                    assert_eq!(
                        got,
                        (expect.scalar_type(), canon_scalars(&[expect]).1),
                        "{what}"
                    );
                }
            }
        }
        let b = column(ScalarType::Bool, n, 12);
        for (f, init) in [(FoldFn::All, true), (FoldFn::Any, false)] {
            for s in [None, Some(&sel)] {
                let got = fold_apply(f, &Scalar::Bool(init), &b, s).expect("fold kernel");
                let bools = b.as_bool().unwrap();
                let mut lanes: Box<dyn Iterator<Item = usize>> = match s {
                    Some(s) => Box::new(s.indices().iter().map(|&i| i as usize)),
                    None => Box::new(0..n),
                };
                let expect = match f {
                    FoldFn::All => lanes.all(|i| bools[i]),
                    _ => lanes.any(|i| bools[i]),
                };
                assert_eq!(got, Scalar::Bool(expect), "fold {f:?} n={n}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// scalar statements
// ---------------------------------------------------------------------

/// Every operator (casts to every type included).
fn all_ops() -> Vec<ScalarOp> {
    use ScalarOp::*;
    let mut ops = vec![
        Add, Sub, Mul, Div, Rem, Sqrt, Abs, Neg, Min, Max, Eq, Ne, Lt, Le, Gt, Ge, And, Or, Not,
        Hash, StrLen, Concat,
    ];
    ops.extend(NUMERIC.iter().map(|&ty| Cast(ty)));
    ops.extend([Cast(ScalarType::Bool), Cast(ScalarType::Str)]);
    ops
}

/// Edge values of every scalar type.
fn edge_scalars() -> Vec<Scalar> {
    let mut out = Vec::new();
    for x in [0i64, 1, -1, 7, i64::MIN, i64::MAX] {
        out.push(Scalar::I64(x));
        for narrow in [ScalarType::I8, ScalarType::I16, ScalarType::I32] {
            out.push(Scalar::int_of_type(x, narrow));
        }
    }
    out.extend(
        [
            0.0,
            -0.0,
            0.75,
            -2.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            9.007199254740993e15,
        ]
        .map(Scalar::F64),
    );
    out.extend([Scalar::Bool(true), Scalar::Bool(false)]);
    out.extend([Scalar::Str("ab".into()), Scalar::Str(String::new())]);
    out
}

/// The all-scalar evaluator of loop statements (`rev := rev + s`,
/// `i >= rows`) is, value for value and error for error, the length-1
/// kernel call it replaced — wrapping, total division, int→float
/// promotion, NaN comparisons and `-0.0` included, `f64` by bit pattern.
#[test]
fn scalar_apply_is_lane_zero_of_the_length_one_kernel_call() {
    use adaptvm::kernels::{scalar_apply, KernelError};
    // The old path: the first operand as a one-lane column, the rest
    // broadcast, lane 0 read back.
    let kernel_call = |op: ScalarOp, args: &[&Scalar]| -> Result<Scalar, KernelError> {
        let first = Array::splat(args[0], 1);
        let mut operands = vec![Operand::Col(&first)];
        operands.extend(args[1..].iter().map(|&s| Operand::Const(s.clone())));
        Ok(map_apply(op, &operands, None, MapMode::Full)?.get(0)?)
    };
    let canon = |r: Result<Scalar, KernelError>| match r {
        Ok(s) => Ok((s.scalar_type(), canon_scalars(&[s]).1)),
        Err(e) => Err(format!("{e:?}")),
    };
    let values = edge_scalars();
    let mut computed = 0usize;
    for op in all_ops() {
        // Every operand count, so arity errors are compared too.
        for a in &values {
            let got = canon(scalar_apply(op, &[a]));
            assert_eq!(got, canon(kernel_call(op, &[a])), "{op:?} {a:?}");
            computed += got.is_ok() as usize;
            for b in &values {
                let got = canon(scalar_apply(op, &[a, b]));
                assert_eq!(got, canon(kernel_call(op, &[a, b])), "{op:?} {a:?} {b:?}");
                computed += got.is_ok() as usize;
            }
        }
    }
    assert!(computed > 10_000, "only {computed} combinations evaluated");
}
