//! Property-based query fuzzer: random **well-typed** DSL programs are
//! printed to concrete syntax, re-parsed, run through the naive
//! tree-walking interpreter oracle ([`adaptvm::dsl::oracle`]), and
//! compared against the engine under every VM strategy × worker count ×
//! memory budget, via the DSL→engine bridge
//! ([`adaptvm::relational::workload::Workload`]).
//!
//! Comparison contract (the oracle's documented contract):
//! * ok-ness must match — if the engine errors, the oracle must error
//!   (variants need not match), and vice versa;
//! * `Ok` results must be **bit-identical** (f64 compared by bits).
//!
//! On a divergence the failing program is shrunk — statements dropped,
//! expressions replaced by their own subexpressions, data halved — to a
//! (locally) minimal reproducer, re-verified at every step with the real
//! typechecker, and printed as DSL text via the printer.
//!
//! `QUERY_FUZZ_CASES` overrides the per-suite case count (default 256;
//! CI's debug job sets a smaller quick-mode count, the release job runs
//! the full default).

use std::collections::HashMap;

use adaptvm::dsl::ast::{
    build, ConflictFn, Expr, FoldFn, Lambda, MergeKind, Program, ScalarOp, Stmt,
};
use adaptvm::dsl::oracle::{Oracle, OracleBuffers};
use adaptvm::dsl::parser::parse_program;
use adaptvm::dsl::printer::print_program;
use adaptvm::dsl::typecheck::{check_program, TypeEnv};
use adaptvm::parallel::{MemoryBudget, Priority, QueryService, Scheduler, ServeConfig};
use adaptvm::relational::parallel::ParallelOpts;
use adaptvm::relational::workload::Workload;
use adaptvm::storage::{Array, Scalar, ScalarType};
use adaptvm::vm::{Strategy, VmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Fixed buffer schema
// ---------------------------------------------------------------------

const SCHEMA: &[(&str, ScalarType)] = &[
    ("xs", ScalarType::I64),
    ("ys", ScalarType::I64),
    ("fs", ScalarType::F64),
    ("bs", ScalarType::Bool),
    ("ss", ScalarType::Str),
    ("sa", ScalarType::I64), // sorted (merge fodder)
    ("sb", ScalarType::I64), // sorted (merge fodder)
    ("oi", ScalarType::I64),
    ("of", ScalarType::F64),
    ("ob", ScalarType::Bool),
    ("os", ScalarType::Str),
];

fn type_env() -> TypeEnv {
    let mut env = TypeEnv::new();
    for (name, ty) in SCHEMA {
        env = env.with_buffer(name, *ty);
    }
    env
}

fn cases() -> usize {
    std::env::var("QUERY_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

// ---------------------------------------------------------------------
// Random input data
// ---------------------------------------------------------------------

fn gen_data(rng: &mut StdRng) -> Vec<(String, Array)> {
    let n = rng.gen_range(8usize..=48);
    let ints = |rng: &mut StdRng, n: usize| {
        Array::from(
            (0..n)
                .map(|_| rng.gen_range(-1000i64..1000))
                .collect::<Vec<_>>(),
        )
    };
    let xs = ints(rng, n);
    let ys = ints(rng, n);
    let fs = Array::from(
        (0..n)
            .map(|_| rng.gen_range(-200i64..200) as f64 * 0.5)
            .collect::<Vec<f64>>(),
    );
    let bs = Array::from((0..n).map(|_| rng.gen_bool(0.5)).collect::<Vec<bool>>());
    let ss = Array::from(
        (0..n)
            .map(|_| {
                let len = rng.gen_range(0usize..4);
                (0..len)
                    .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
                    .collect::<String>()
            })
            .collect::<Vec<String>>(),
    );
    let sorted = |rng: &mut StdRng, n: usize| {
        let mut v: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..50)).collect();
        v.sort_unstable();
        Array::from(v)
    };
    let sa = sorted(rng, n);
    let sb = sorted(rng, n);
    vec![
        ("xs".into(), xs),
        ("ys".into(), ys),
        ("fs".into(), fs),
        ("bs".into(), bs),
        ("ss".into(), ss),
        ("sa".into(), sa),
        ("sb".into(), sb),
    ]
}

// ---------------------------------------------------------------------
// Well-typed program generator
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Ty {
    elem: ScalarType,
    array: bool,
}

#[derive(Clone, Default)]
struct Ctx {
    vars: Vec<(String, Ty)>,
    next_id: usize,
}

impl Ctx {
    fn fresh(&mut self, prefix: &str) -> String {
        let id = self.next_id;
        self.next_id += 1;
        format!("{prefix}{id}")
    }

    fn scalar_var(&self, rng: &mut StdRng, t: ScalarType) -> Option<Expr> {
        let hits: Vec<&String> = self
            .vars
            .iter()
            .filter(|(_, ty)| !ty.array && ty.elem == t)
            .map(|(n, _)| n)
            .collect();
        if hits.is_empty() {
            None
        } else {
            Some(build::var(hits[rng.gen_range(0..hits.len())]))
        }
    }
}

/// Bias knobs per suite: the merge/scatter suite leans on movement
/// skeletons, the general suite on scalar/map/filter/fold shapes.
#[derive(Clone, Copy)]
struct Bias {
    merge_heavy: bool,
}

fn scalar_const(rng: &mut StdRng, t: ScalarType) -> Expr {
    match t {
        ScalarType::F64 => build::float(rng.gen_range(-40i64..40) as f64 * 0.5),
        ScalarType::Bool => build::boolean(rng.gen_bool(0.5)),
        ScalarType::Str => {
            let len = rng.gen_range(0usize..3);
            let s: String = (0..len)
                .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
                .collect();
            Expr::Const(Scalar::Str(s))
        }
        _ => build::int(rng.gen_range(-50i64..50)),
    }
}

fn int_buf(rng: &mut StdRng) -> &'static str {
    ["xs", "ys", "sa", "sb"][rng.gen_range(0usize..4)]
}

fn buf_for(rng: &mut StdRng, t: ScalarType) -> &'static str {
    match t {
        ScalarType::F64 => "fs",
        ScalarType::Bool => "bs",
        ScalarType::Str => "ss",
        _ => int_buf(rng),
    }
}

/// An index array guaranteed in-bounds for every input buffer
/// (`abs(v) % 4`, data lengths are ≥ 8): `map (\g -> abs(g) % 4) xs`.
fn safe_index_array(rng: &mut StdRng, ctx: &mut Ctx) -> Expr {
    let p = ctx.fresh("g");
    build::map(
        Lambda::new(
            vec![&p],
            build::bin(
                ScalarOp::Rem,
                build::un(ScalarOp::Abs, build::var(&p)),
                build::int(4),
            ),
        ),
        vec![build::read(build::int(0), int_buf(rng))],
    )
}

fn numeric_operand_types(rng: &mut StdRng, t: ScalarType) -> (ScalarType, ScalarType) {
    if t == ScalarType::F64 {
        // promote(a, b) must be F64: at least one F64 operand.
        match rng.gen_range(0u8..3) {
            0 => (ScalarType::F64, ScalarType::F64),
            1 => (ScalarType::F64, ScalarType::I64),
            _ => (ScalarType::I64, ScalarType::F64),
        }
    } else {
        (ScalarType::I64, ScalarType::I64)
    }
}

const ARITH: [ScalarOp; 7] = [
    ScalarOp::Add,
    ScalarOp::Sub,
    ScalarOp::Mul,
    ScalarOp::Div,
    ScalarOp::Rem,
    ScalarOp::Min,
    ScalarOp::Max,
];

const CMP: [ScalarOp; 6] = [
    ScalarOp::Eq,
    ScalarOp::Ne,
    ScalarOp::Lt,
    ScalarOp::Le,
    ScalarOp::Gt,
    ScalarOp::Ge,
];

fn gen_scalar(
    rng: &mut StdRng,
    ctx: &mut Ctx,
    t: ScalarType,
    depth: usize,
    bias: Bias,
    lam: bool,
) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        if rng.gen_bool(0.4) {
            if let Some(v) = ctx.scalar_var(rng, t) {
                return v;
            }
        }
        return scalar_const(rng, t);
    }
    let d = depth - 1;
    // Inside lambda bodies (`lam`) the body-shape rule forbids nested
    // skeletons, so the fold and len arms are off the menu there.
    match t {
        ScalarType::I64 => match if lam {
            [0u8, 1, 2, 3, 4, 6][rng.gen_range(0usize..6)]
        } else {
            rng.gen_range(0u8..8)
        } {
            0 | 1 => {
                let op = ARITH[rng.gen_range(0..ARITH.len())];
                build::bin(
                    op,
                    gen_scalar(rng, ctx, ScalarType::I64, d, bias, lam),
                    gen_scalar(rng, ctx, ScalarType::I64, d, bias, lam),
                )
            }
            2 => build::un(
                [ScalarOp::Neg, ScalarOp::Abs][rng.gen_range(0usize..2)],
                gen_scalar(rng, ctx, ScalarType::I64, d, bias, lam),
            ),
            3 => {
                let ht = [
                    ScalarType::I64,
                    ScalarType::F64,
                    ScalarType::Bool,
                    ScalarType::Str,
                ][rng.gen_range(0usize..4)];
                build::un(ScalarOp::Hash, gen_scalar(rng, ctx, ht, d, bias, lam))
            }
            4 => build::un(
                ScalarOp::StrLen,
                gen_scalar(rng, ctx, ScalarType::Str, d, bias, lam),
            ),
            5 => {
                let et = random_elem(rng);
                Expr::Len(Box::new(gen_array(rng, ctx, et, d, true, bias)))
            }
            6 => {
                let st =
                    [ScalarType::I64, ScalarType::F64, ScalarType::Bool][rng.gen_range(0usize..3)];
                build::un(
                    ScalarOp::Cast(ScalarType::I64),
                    gen_scalar(rng, ctx, st, d, bias, lam),
                )
            }
            _ => {
                // A numeric fold or a count.
                if rng.gen_bool(0.4) {
                    let et = random_elem(rng);
                    build::fold(
                        FoldFn::Count,
                        build::int(rng.gen_range(0i64..5)),
                        gen_array(rng, ctx, et, d, true, bias),
                    )
                } else {
                    let f = [FoldFn::Sum, FoldFn::Min, FoldFn::Max][rng.gen_range(0usize..3)];
                    build::fold(
                        f,
                        gen_scalar(rng, ctx, ScalarType::I64, 0, bias, lam),
                        gen_array(rng, ctx, ScalarType::I64, d, true, bias),
                    )
                }
            }
        },
        ScalarType::F64 => match rng.gen_range(0u8..if lam { 3 } else { 4 }) {
            0 | 1 => {
                let op = ARITH[rng.gen_range(0..ARITH.len())];
                let (a, b) = numeric_operand_types(rng, ScalarType::F64);
                build::bin(
                    op,
                    gen_scalar(rng, ctx, a, d, bias, lam),
                    gen_scalar(rng, ctx, b, d, bias, lam),
                )
            }
            2 => {
                let st = [ScalarType::I64, ScalarType::F64][rng.gen_range(0usize..2)];
                build::un(ScalarOp::Sqrt, gen_scalar(rng, ctx, st, d, bias, lam))
            }
            _ => {
                let f = [FoldFn::Sum, FoldFn::Min, FoldFn::Max][rng.gen_range(0usize..3)];
                build::fold(
                    f,
                    scalar_const(rng, ScalarType::F64),
                    gen_array(rng, ctx, ScalarType::F64, d, true, bias),
                )
            }
        },
        ScalarType::Bool => match rng.gen_range(0u8..if lam { 3 } else { 4 }) {
            0 | 1 => {
                let op = CMP[rng.gen_range(0..CMP.len())];
                let str_cmp = rng.gen_bool(0.25);
                let (a, b) = if str_cmp {
                    (ScalarType::Str, ScalarType::Str)
                } else {
                    let nt = [ScalarType::I64, ScalarType::F64][rng.gen_range(0usize..2)];
                    numeric_operand_types(rng, nt)
                };
                build::bin(
                    op,
                    gen_scalar(rng, ctx, a, d, bias, lam),
                    gen_scalar(rng, ctx, b, d, bias, lam),
                )
            }
            2 => {
                if rng.gen_bool(0.5) {
                    build::bin(
                        [ScalarOp::And, ScalarOp::Or][rng.gen_range(0usize..2)],
                        gen_scalar(rng, ctx, ScalarType::Bool, d, bias, lam),
                        gen_scalar(rng, ctx, ScalarType::Bool, d, bias, lam),
                    )
                } else {
                    build::un(
                        ScalarOp::Not,
                        gen_scalar(rng, ctx, ScalarType::Bool, d, bias, lam),
                    )
                }
            }
            _ => build::fold(
                [FoldFn::All, FoldFn::Any][rng.gen_range(0usize..2)],
                build::boolean(rng.gen_bool(0.5)),
                gen_array(rng, ctx, ScalarType::Bool, d, true, bias),
            ),
        },
        _ => {
            // Str
            if rng.gen_bool(0.5) {
                build::bin(
                    ScalarOp::Concat,
                    gen_scalar(rng, ctx, ScalarType::Str, d, bias, lam),
                    gen_scalar(rng, ctx, ScalarType::Str, d, bias, lam),
                )
            } else {
                scalar_const(rng, ScalarType::Str)
            }
        }
    }
}

fn random_elem(rng: &mut StdRng) -> ScalarType {
    [
        ScalarType::I64,
        ScalarType::F64,
        ScalarType::Bool,
        ScalarType::Str,
    ][rng.gen_range(0usize..4)]
}

/// A sorted-by-construction i64 array: reads of the sorted buffers
/// composed under merges (every merge kind preserves sortedness).
fn gen_sorted(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.4) {
        return build::read(build::int(0), ["sa", "sb"][rng.gen_range(0usize..2)]);
    }
    let kind = [
        MergeKind::Union,
        MergeKind::Intersect,
        MergeKind::Diff,
        MergeKind::JoinLeftIdx,
        MergeKind::JoinRightIdx,
    ][rng.gen_range(0usize..5)];
    build::merge(kind, gen_sorted(rng, depth - 1), gen_sorted(rng, depth - 1))
}

fn gen_array(
    rng: &mut StdRng,
    ctx: &mut Ctx,
    t: ScalarType,
    depth: usize,
    aligned: bool,
    bias: Bias,
) -> Expr {
    if depth == 0 || rng.gen_bool(0.25) {
        return build::read(build::int(0), buf_for(rng, t));
    }
    let d = depth - 1;
    if !aligned
        && t == ScalarType::I64
        && (bias.merge_heavy || rng.gen_bool(0.2))
        && rng.gen_bool(0.6)
    {
        return gen_sorted(rng, d.min(2) + 1);
    }
    let max_choice = if aligned { 4 } else { 7 };
    match rng.gen_range(0u8..max_choice) {
        0 => {
            // map, arity 1 or 2
            let arity = if rng.gen_bool(0.3) { 2 } else { 1 };
            let mut params = Vec::new();
            let mut inputs = Vec::new();
            let mut inner = ctx.clone();
            for _ in 0..arity {
                let pt = random_elem(rng);
                let p = ctx.fresh("p");
                inner.vars.push((
                    p.clone(),
                    Ty {
                        elem: pt,
                        array: false,
                    },
                ));
                params.push(p);
                inputs.push(gen_array(rng, ctx, pt, d, true, bias));
            }
            let body = gen_scalar(rng, &mut inner, t, d, bias, true);
            ctx.next_id = ctx.next_id.max(inner.next_id);
            build::map(
                Lambda::new(params.iter().map(|s| s.as_str()).collect(), body),
                inputs,
            )
        }
        1 => {
            // filter over a t-array; sometimes the kernel fast path shape
            // (a bare comparison of the parameter against a constant).
            let flow = gen_array(rng, ctx, t, d, true, bias);
            let p = ctx.fresh("q");
            let body = if rng.gen_bool(0.5) && t.is_numeric() {
                build::bin(
                    CMP[rng.gen_range(0..CMP.len())],
                    build::var(&p),
                    scalar_const(rng, t),
                )
            } else {
                let mut inner = ctx.clone();
                inner.vars.push((
                    p.clone(),
                    Ty {
                        elem: t,
                        array: false,
                    },
                ));
                let b = gen_scalar(rng, &mut inner, ScalarType::Bool, d.min(2), bias, true);
                ctx.next_id = ctx.next_id.max(inner.next_id);
                b
            };
            build::filter(Lambda::new(vec![&p], body), flow)
        }
        2 => {
            // lifted scalar op over arrays (implicit map)
            if t.is_numeric() {
                let op = ARITH[rng.gen_range(0..ARITH.len())];
                let (a, b) = numeric_operand_types(rng, t);
                let left = gen_array(rng, ctx, a, d, true, bias);
                let right = if rng.gen_bool(0.5) {
                    gen_array(rng, ctx, b, d, true, bias)
                } else {
                    gen_scalar(rng, ctx, b, d, bias, false)
                };
                build::bin(op, left, right)
            } else if t == ScalarType::Bool {
                let op = CMP[rng.gen_range(0..CMP.len())];
                let et = [ScalarType::I64, ScalarType::F64][rng.gen_range(0usize..2)];
                build::bin(
                    op,
                    gen_array(rng, ctx, et, d, true, bias),
                    gen_scalar(rng, ctx, et, d, bias, false),
                )
            } else {
                build::bin(
                    ScalarOp::Concat,
                    gen_array(rng, ctx, ScalarType::Str, d, true, bias),
                    gen_scalar(rng, ctx, ScalarType::Str, d, bias, false),
                )
            }
        }
        3 => {
            // gather through a guaranteed-in-bounds index array
            let idx = safe_index_array(rng, ctx);
            build::gather(idx, buf_for(rng, t))
        }
        4 => {
            // gen: f over 0..k (identity fast path included when the
            // body degenerates to the parameter)
            let p = ctx.fresh("i");
            let mut inner = ctx.clone();
            inner.vars.push((
                p.clone(),
                Ty {
                    elem: ScalarType::I64,
                    array: false,
                },
            ));
            let body = if t == ScalarType::I64 && rng.gen_bool(0.25) {
                build::var(&p)
            } else {
                gen_scalar(rng, &mut inner, t, d.min(2), bias, true)
            };
            ctx.next_id = ctx.next_id.max(inner.next_id);
            build::gen(
                Lambda::new(vec![&p], body),
                build::int(rng.gen_range(0i64..12)),
            )
        }
        5 => build::condense(gen_array(rng, ctx, t, d, true, bias)),
        _ => {
            // read at a non-zero offset (length-skew fodder)
            build::read(build::int(rng.gen_range(0i64..3)), buf_for(rng, t))
        }
    }
}

fn out_buf(t: ScalarType) -> &'static str {
    match t {
        ScalarType::F64 => "of",
        ScalarType::Bool => "ob",
        ScalarType::Str => "os",
        _ => "oi",
    }
}

fn gen_write(rng: &mut StdRng, ctx: &mut Ctx, bias: Bias) -> Stmt {
    let t = random_elem(rng);
    let pos = build::int(rng.gen_range(0i64..3));
    let depth = rng.gen_range(1usize..4);
    let value = if rng.gen_bool(0.6) {
        gen_array(rng, ctx, t, depth, false, bias)
    } else {
        gen_scalar(rng, ctx, t, depth, bias, false)
    };
    build::write(out_buf(t), pos, value)
}

fn gen_scatter(rng: &mut StdRng, ctx: &mut Ctx, bias: Bias) -> Stmt {
    let t = random_elem(rng);
    let conflict = if t == ScalarType::Str {
        ConflictFn::LastWins
    } else {
        [
            ConflictFn::LastWins,
            ConflictFn::Add,
            ConflictFn::Min,
            ConflictFn::Max,
        ][rng.gen_range(0usize..4)]
    };
    let indices = safe_index_array(rng, ctx);
    // The engine's scatter-add on integers is a plain (non-wrapping) add:
    // keep integer add values small so debug builds cannot overflow.
    let value = if t == ScalarType::I64 && conflict == ConflictFn::Add {
        let p = ctx.fresh("s");
        build::map(
            Lambda::new(
                vec![&p],
                build::bin(ScalarOp::Rem, build::var(&p), build::int(1000)),
            ),
            vec![build::read(build::int(0), int_buf(rng))],
        )
    } else if rng.gen_bool(0.7) {
        // Same physical length as the index array (both read whole
        // buffers of the common row count).
        let p = ctx.fresh("s");
        let mut inner = ctx.clone();
        inner.vars.push((
            p.clone(),
            Ty {
                elem: ScalarType::I64,
                array: false,
            },
        ));
        let body = gen_scalar(rng, &mut inner, t, 2, bias, true);
        ctx.next_id = ctx.next_id.max(inner.next_id);
        build::map(
            Lambda::new(vec![&p], body),
            vec![build::read(build::int(0), int_buf(rng))],
        )
    } else {
        gen_array(rng, ctx, t, 2, false, bias)
    };
    Stmt::Scatter {
        target: out_buf(t).to_string(),
        indices,
        value,
        conflict,
    }
}

fn gen_stmts(rng: &mut StdRng, ctx: &mut Ctx, budget: usize, bias: Bias) -> Vec<Stmt> {
    let mut out = Vec::new();
    let n = rng.gen_range(1usize..=budget);
    for _ in 0..n {
        let scatter_p = if bias.merge_heavy { 0.35 } else { 0.15 };
        if rng.gen_bool(scatter_p) {
            out.push(gen_scatter(rng, ctx, bias));
        } else if rng.gen_bool(0.2) && budget > 1 {
            // let-bound intermediate (array or scalar)
            let name = ctx.fresh("v");
            let t = random_elem(rng);
            let depth = rng.gen_range(1usize..3);
            let (value, ty) = if rng.gen_bool(0.5) {
                (
                    gen_array(rng, ctx, t, depth, false, bias),
                    Ty {
                        elem: t,
                        array: true,
                    },
                )
            } else {
                (
                    gen_scalar(rng, ctx, t, depth, bias, false),
                    Ty {
                        elem: t,
                        array: false,
                    },
                )
            };
            let mut inner = ctx.clone();
            inner.vars.push((name.clone(), ty));
            let body = gen_stmts(rng, &mut inner, budget - 1, bias);
            ctx.next_id = ctx.next_id.max(inner.next_id);
            out.push(build::let_in(&name, value, body));
        } else if rng.gen_bool(0.15) {
            // if over a scalar bool
            let cond = gen_scalar(rng, ctx, ScalarType::Bool, 2, bias, false);
            let then = vec![gen_write(rng, ctx, bias)];
            let els = if rng.gen_bool(0.5) {
                vec![gen_write(rng, ctx, bias)]
            } else {
                Vec::new()
            };
            out.push(Stmt::If { cond, then, els });
        } else if rng.gen_bool(0.1) {
            // mut + assign, variable visible to later statements
            let name = ctx.fresh("m");
            let t = random_elem(rng);
            let value = gen_scalar(rng, ctx, t, 2, bias, false);
            out.push(build::declare_mut(&name));
            out.push(build::assign(&name, value));
            ctx.vars.push((
                name,
                Ty {
                    elem: t,
                    array: false,
                },
            ));
        } else {
            out.push(gen_write(rng, ctx, bias));
        }
    }
    out
}

fn gen_program(rng: &mut StdRng, bias: Bias) -> Program {
    let mut ctx = Ctx::default();
    Program::new(gen_stmts(rng, &mut ctx, 4, bias))
}

// ---------------------------------------------------------------------
// Oracle-vs-engine comparison
// ---------------------------------------------------------------------

fn arrays_bit_eq(a: &Array, b: &Array) -> bool {
    if a.scalar_type() != b.scalar_type() || a.len() != b.len() {
        return false;
    }
    if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
        return x.iter().zip(y).all(|(l, r)| l.to_bits() == r.to_bits());
    }
    a == b
}

fn maps_bit_eq(a: &HashMap<String, Array>, b: &HashMap<String, Array>) -> Option<String> {
    for (k, av) in a {
        match b.get(k) {
            None => return Some(format!("output {k} missing on one side")),
            Some(bv) if !arrays_bit_eq(av, bv) => {
                return Some(format!("output {k} differs: {av:?} vs {bv:?}"))
            }
            _ => {}
        }
    }
    for k in b.keys() {
        if !a.contains_key(k) {
            return Some(format!("output {k} missing on one side"));
        }
    }
    None
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const STRATEGIES: [Strategy; 3] = [
    Strategy::Interpret,
    Strategy::CompiledPipeline,
    Strategy::Adaptive,
];

/// Run `text` against `data` on oracle and engine matrix. `Ok(())` when
/// every cell agrees with the oracle; `Err(description)` on the first
/// divergence.
fn compare_all(text: &str, data: &[(String, Array)]) -> Result<(), String> {
    let parsed =
        parse_program(text).map_err(|e| format!("printed program fails to reparse: {e}"))?;
    check_program(&parsed, &type_env())
        .map_err(|e| format!("printed program fails to recheck: {e}"))?;

    let mut obuf = OracleBuffers::new();
    for (name, a) in data {
        obuf = obuf.with_input(name, a.clone());
    }
    let oracle_out = Oracle::new(1024).run(&parsed, obuf);

    let workload = match Workload::compile(text, SCHEMA) {
        Ok(w) => w,
        Err(e) => return Err(format!("bridge compile failed after typecheck passed: {e}")),
    };
    let inputs: Vec<(&str, Array)> = data.iter().map(|(n, a)| (n.as_str(), a.clone())).collect();

    let zero = MemoryBudget::bytes(0);
    let tight = MemoryBudget::bytes(256);
    for strategy in STRATEGIES {
        let config = VmConfig {
            strategy,
            ..VmConfig::default()
        };
        for workers in WORKER_COUNTS {
            for budget in [None, Some(&zero), Some(&tight)] {
                let mut opts = ParallelOpts {
                    workers,
                    ..ParallelOpts::default()
                };
                if let Some(b) = budget {
                    opts = opts.with_budget(b);
                }
                let engine = workload.run(&inputs, config.clone(), opts);
                let cell = format!(
                    "strategy={strategy:?} workers={workers} budget={:?}",
                    budget.map(|b| b.limit())
                );
                match (&oracle_out, engine) {
                    (Err(_), Err(_)) => {}
                    (Ok(o), Ok((e, _))) => {
                        if let Some(diff) = maps_bit_eq(o.outputs(), &e) {
                            return Err(format!("[{cell}] {diff}"));
                        }
                    }
                    (Ok(_), Err(e)) => {
                        return Err(format!("[{cell}] engine errored ({e}), oracle succeeded"))
                    }
                    (Err(e), Ok(_)) => {
                        return Err(format!("[{cell}] oracle errored ({e}), engine succeeded"))
                    }
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Shrinking (the proptest shim has no shrinking — greedy structural
// reduction, candidates re-validated with the real typechecker)
// ---------------------------------------------------------------------

fn expr_children(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Const(_) | Expr::Var(_) => Vec::new(),
        Expr::Apply(_, args) => args.clone(),
        Expr::Len(inner) | Expr::Condense(inner) => vec![(**inner).clone()],
        Expr::Map { f, inputs } => {
            let mut v = inputs.clone();
            v.push(f.body.as_ref().clone());
            v
        }
        Expr::Filter { p, inputs } => {
            let mut v = inputs.clone();
            v.push(p.body.as_ref().clone());
            v
        }
        Expr::Fold { init, input, .. } => vec![(**init).clone(), (**input).clone()],
        Expr::Read { pos, len, .. } => {
            let mut v = vec![(**pos).clone()];
            if let Some(l) = len {
                v.push((**l).clone());
            }
            v
        }
        Expr::Gather { indices, .. } => vec![(**indices).clone()],
        Expr::Gen { f, len } => vec![(**len).clone(), f.body.as_ref().clone()],
        Expr::Merge { left, right, .. } => vec![(**left).clone(), (**right).clone()],
    }
}

fn with_child(e: &Expr, idx: usize, new: Expr) -> Expr {
    let mut out = e.clone();
    match &mut out {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Apply(_, args) => args[idx] = new,
        Expr::Len(inner) | Expr::Condense(inner) => **inner = new,
        Expr::Map { f, inputs } => {
            if idx < inputs.len() {
                inputs[idx] = new;
            } else {
                *f.body = new;
            }
        }
        Expr::Filter { p, inputs } => {
            if idx < inputs.len() {
                inputs[idx] = new;
            } else {
                *p.body = new;
            }
        }
        Expr::Fold { init, input, .. } => {
            if idx == 0 {
                **init = new;
            } else {
                **input = new;
            }
        }
        Expr::Read { pos, len, .. } => {
            if idx == 0 {
                **pos = new;
            } else if let Some(l) = len {
                **l = new;
            }
        }
        Expr::Gather { indices, .. } => **indices = new,
        Expr::Gen { f, len } => {
            if idx == 0 {
                **len = new;
            } else {
                *f.body = new;
            }
        }
        Expr::Merge { left, right, .. } => {
            if idx == 0 {
                **left = new;
            } else {
                **right = new;
            }
        }
    }
    out
}

/// All one-step reductions of an expression: replace the node by one of
/// its children, or reduce a child in place.
fn expr_reductions(e: &Expr) -> Vec<Expr> {
    let children = expr_children(e);
    let mut out = children.clone();
    for (i, c) in children.iter().enumerate() {
        for r in expr_reductions(c) {
            out.push(with_child(e, i, r));
        }
    }
    out
}

fn stmt_reductions(s: &Stmt) -> Vec<Stmt> {
    let mut out = Vec::new();
    match s {
        Stmt::Write { target, pos, value } => {
            for r in expr_reductions(pos) {
                out.push(Stmt::Write {
                    target: target.clone(),
                    pos: r,
                    value: value.clone(),
                });
            }
            for r in expr_reductions(value) {
                out.push(Stmt::Write {
                    target: target.clone(),
                    pos: pos.clone(),
                    value: r,
                });
            }
        }
        Stmt::Scatter {
            target,
            indices,
            value,
            conflict,
        } => {
            for r in expr_reductions(indices) {
                out.push(Stmt::Scatter {
                    target: target.clone(),
                    indices: r,
                    value: value.clone(),
                    conflict: *conflict,
                });
            }
            for r in expr_reductions(value) {
                out.push(Stmt::Scatter {
                    target: target.clone(),
                    indices: indices.clone(),
                    value: r,
                    conflict: *conflict,
                });
            }
        }
        Stmt::Assign { name, expr } => {
            for r in expr_reductions(expr) {
                out.push(Stmt::Assign {
                    name: name.clone(),
                    expr: r,
                });
            }
        }
        Stmt::ExprStmt(e) => {
            for r in expr_reductions(e) {
                out.push(Stmt::ExprStmt(r));
            }
        }
        Stmt::Let { name, expr, body } => {
            for r in expr_reductions(expr) {
                out.push(Stmt::Let {
                    name: name.clone(),
                    expr: r,
                    body: body.clone(),
                });
            }
            for b in stmts_reductions(body) {
                out.push(Stmt::Let {
                    name: name.clone(),
                    expr: expr.clone(),
                    body: b,
                });
            }
        }
        Stmt::If { cond, then, els } => {
            for r in expr_reductions(cond) {
                out.push(Stmt::If {
                    cond: r,
                    then: then.clone(),
                    els: els.clone(),
                });
            }
            for b in stmts_reductions(then) {
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then: b,
                    els: els.clone(),
                });
            }
            for b in stmts_reductions(els) {
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then: then.clone(),
                    els: b,
                });
            }
        }
        Stmt::Loop(body) => {
            for b in stmts_reductions(body) {
                out.push(Stmt::Loop(b));
            }
        }
        Stmt::DeclareMut { .. } | Stmt::Break => {}
    }
    out
}

fn stmts_reductions(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for i in 0..stmts.len() {
        let mut removed = stmts.to_vec();
        removed.remove(i);
        out.push(removed);
        for r in stmt_reductions(&stmts[i]) {
            let mut v = stmts.to_vec();
            v[i] = r;
            out.push(v);
        }
    }
    out
}

fn halve_data(data: &[(String, Array)]) -> Option<Vec<(String, Array)>> {
    let n = data.iter().map(|(_, a)| a.len()).max().unwrap_or(0);
    if n <= 4 {
        return None;
    }
    Some(
        data.iter()
            .map(|(name, a)| (name.clone(), a.slice(0, (a.len() / 2).max(4))))
            .collect(),
    )
}

/// Greedy shrink to a fixpoint: keep any candidate (smaller program, or
/// halved data) that still diverges and still typechecks.
fn shrink(
    mut program: Program,
    mut data: Vec<(String, Array)>,
) -> (Program, Vec<(String, Array)>, String) {
    let env = type_env();
    let mut last_err = compare_all(&print_program(&program), &data)
        .expect_err("shrink called on a non-diverging case");
    loop {
        let mut improved = false;
        let before = print_program(&program).len();
        for body in stmts_reductions(&program.stmts) {
            let cand = Program::new(body);
            if check_program(&cand, &env).is_err() {
                continue;
            }
            let text = print_program(&cand);
            if text.len() >= before {
                continue;
            }
            if let Err(e) = compare_all(&text, &data) {
                program = cand;
                last_err = e;
                improved = true;
                break;
            }
        }
        if !improved {
            if let Some(smaller) = halve_data(&data) {
                if let Err(e) = compare_all(&print_program(&program), &smaller) {
                    data = smaller;
                    last_err = e;
                    continue;
                }
            }
            return (program, data, last_err);
        }
    }
}

fn describe_data(data: &[(String, Array)]) -> String {
    data.iter()
        .map(|(n, a)| format!("  {n}: {a:?}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_suite(name: &str, seed_base: u64, bias: Bias) {
    let env = type_env();
    for case in 0..cases() {
        let mut rng = StdRng::seed_from_u64(seed_base.wrapping_add(case as u64));
        let program = gen_program(&mut rng, bias);
        // Generator invariant: every program typechecks as built.
        if let Err(e) = check_program(&program, &env) {
            panic!(
                "{name} case {case}: generator produced an ill-typed program ({e}):\n{}",
                print_program(&program)
            );
        }
        let text = print_program(&program);
        let data = gen_data(&mut rng);
        if let Err(first_err) = compare_all(&text, &data) {
            let (min_p, min_d, min_err) = shrink(program, data);
            panic!(
                "{name} case {case} diverged: {first_err}\n\
                 minimized divergence: {min_err}\n\
                 minimized program:\n{}\nminimized data:\n{}",
                print_program(&min_p),
                describe_data(&min_d)
            );
        }
    }
}

// ---------------------------------------------------------------------
// Suites
// ---------------------------------------------------------------------

#[test]
fn fuzz_general_programs_match_oracle() {
    run_suite("general", 0x51AD_F00D, Bias { merge_heavy: false });
}

#[test]
fn fuzz_merge_scatter_programs_match_oracle() {
    run_suite("merge-scatter", 0xB0B0_CAFE, Bias { merge_heavy: true });
}

/// Reachability audit: across a fixed generator sweep every `ScalarOp`,
/// `FoldFn`, and `MergeKind` arm must occur (Cast counted once).
#[test]
fn every_op_arm_is_reachable() {
    use std::collections::HashSet;
    let mut ops: HashSet<String> = HashSet::new();
    let mut folds: HashSet<String> = HashSet::new();
    let mut merges: HashSet<String> = HashSet::new();

    fn walk_expr(
        e: &Expr,
        ops: &mut HashSet<String>,
        folds: &mut HashSet<String>,
        merges: &mut HashSet<String>,
    ) {
        if let Expr::Apply(op, _) = e {
            let label = match op {
                ScalarOp::Cast(_) => "cast".to_string(),
                other => other.name().to_string(),
            };
            ops.insert(label);
        }
        if let Expr::Fold { r, .. } = e {
            folds.insert(r.name().to_string());
        }
        if let Expr::Merge { kind, .. } = e {
            merges.insert(kind.name().to_string());
        }
        for c in expr_children(e) {
            walk_expr(&c, ops, folds, merges);
        }
    }
    fn walk_stmts(
        stmts: &[Stmt],
        ops: &mut HashSet<String>,
        folds: &mut HashSet<String>,
        merges: &mut HashSet<String>,
    ) {
        for s in stmts {
            match s {
                Stmt::Write { pos, value, .. } => {
                    walk_expr(pos, ops, folds, merges);
                    walk_expr(value, ops, folds, merges);
                }
                Stmt::Scatter { indices, value, .. } => {
                    walk_expr(indices, ops, folds, merges);
                    walk_expr(value, ops, folds, merges);
                }
                Stmt::Assign { expr, .. } | Stmt::ExprStmt(expr) => {
                    walk_expr(expr, ops, folds, merges)
                }
                Stmt::Let { expr, body, .. } => {
                    walk_expr(expr, ops, folds, merges);
                    walk_stmts(body, ops, folds, merges);
                }
                Stmt::If { cond, then, els } => {
                    walk_expr(cond, ops, folds, merges);
                    walk_stmts(then, ops, folds, merges);
                    walk_stmts(els, ops, folds, merges);
                }
                Stmt::Loop(body) => walk_stmts(body, ops, folds, merges),
                Stmt::DeclareMut { .. } | Stmt::Break => {}
            }
        }
    }

    for suite in [Bias { merge_heavy: false }, Bias { merge_heavy: true }] {
        for case in 0..1024u64 {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ case);
            let p = gen_program(&mut rng, suite);
            walk_stmts(&p.stmts, &mut ops, &mut folds, &mut merges);
        }
    }

    let want_ops = [
        "add", "sub", "mul", "div", "rem", "sqrt", "abs", "neg", "min", "max", "eq", "ne", "lt",
        "le", "gt", "ge", "and", "or", "not", "hash", "cast", "strlen", "concat",
    ];
    for w in want_ops {
        assert!(
            ops.contains(w),
            "ScalarOp arm {w} never generated ({ops:?})"
        );
    }
    for w in ["sum", "min", "max", "count", "all", "any"] {
        assert!(
            folds.contains(w),
            "FoldFn arm {w} never generated ({folds:?})"
        );
    }
    for w in ["union", "intersect", "diff", "join_left", "join_right"] {
        assert!(
            merges.contains(w),
            "MergeKind arm {w} never generated ({merges:?})"
        );
    }
}

// ---------------------------------------------------------------------
// Acceptance: one DSL string, every strategy × executor × budget cell
// bit-identical to the interpreter oracle.
// ---------------------------------------------------------------------

#[test]
fn acceptance_one_program_every_strategy_executor_budget_matches_oracle() {
    const SRC: &str = "\
let base = read 0 xs in {
  let idx = map (\\g -> abs(g) % 4) base in {
    let doubled = map (\\x y -> x * 2 + y) base (read 0 ys) in {
      write oi 0 (condense (filter (\\v -> v > 0) doubled))
      write of 0 (map (\\f -> f * 0.5 + 1.0) (read 0 fs))
      write ob 0 (map (\\x -> x > 1) base)
      write oi 100 (merge union (read 0 sa) (read 0 sb))
      write oi 300 (gather idx xs)
      write oi 500 (fold sum 0 doubled)
    }
  }
}
";
    let mut rng = StdRng::seed_from_u64(0xACCE_97ED);
    let data = gen_data(&mut rng);

    let mut obuf = OracleBuffers::new();
    for (name, a) in &data {
        obuf = obuf.with_input(name, a.clone());
    }
    let oracle = Oracle::new(1024)
        .run(&parse_program(SRC).unwrap(), obuf)
        .expect("oracle must run the acceptance program");

    let workload = Workload::compile(SRC, SCHEMA).unwrap();
    let inputs: Vec<(&str, Array)> = data.iter().map(|(n, a)| (n.as_str(), a.clone())).collect();

    let scheduler = Scheduler::new(4);
    let service = QueryService::new(ServeConfig::default());
    let zero = MemoryBudget::bytes(0);
    let tight = MemoryBudget::bytes(256);
    for strategy in STRATEGIES {
        let config = VmConfig {
            strategy,
            ..VmConfig::default()
        };
        for workers in [1usize, 4] {
            for executor in ["scoped", "scheduler", "service"] {
                for budget in [None, Some(&zero), Some(&tight)] {
                    let mut opts = ParallelOpts {
                        workers,
                        ..ParallelOpts::default()
                    };
                    opts = match executor {
                        "scoped" => opts,
                        "scheduler" => opts.with_scheduler(&scheduler),
                        _ => opts.with_service(&service, Priority::Normal),
                    };
                    if let Some(b) = budget {
                        opts = opts.with_budget(b);
                    }
                    let cell = format!(
                        "strategy={strategy:?} workers={workers} \
                         executor={executor} budget={:?}",
                        budget.map(|b| b.limit())
                    );
                    let (out, _) = workload
                        .run(&inputs, config.clone(), opts)
                        .unwrap_or_else(|e| panic!("[{cell}] engine errored: {e}"));
                    if let Some(diff) = maps_bit_eq(oracle.outputs(), &out) {
                        panic!("[{cell}] diverged from oracle: {diff}");
                    }
                }
            }
        }
    }
    assert_eq!(zero.used(), 0, "budget charges must be released");
    assert_eq!(tight.used(), 0, "budget charges must be released");
}
