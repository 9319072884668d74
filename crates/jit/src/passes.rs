//! Trace optimization passes.
//!
//! §III-B motivates *partial* compilation with "optimizer passes tend to
//! take longer with an increasing amount of code" — so this compiler has
//! real passes doing real work, iterated to a fixpoint:
//!
//! * **constant folding** — ops over immediates are evaluated at compile
//!   time,
//! * **algebraic simplification** — `x*1`, `x/1`, and in integer lanes
//!   `x+0`, `x-0`, `x*0`; in float lanes only the IEEE-exact `x-(+0.0)`
//!   and `x+(-0.0)` of those,
//! * **common subexpression elimination** — structurally identical ops
//!   reuse one register,
//! * **dead code elimination** — ops whose result reaches no output,
//!   filter, or live op are dropped.

use adaptvm_dsl::ast::ScalarOp;

use crate::ir::{LaneType, OutputSpec, Src, TraceIr, TraceOp};

/// Statistics of one optimization run (reported by the VM's explain output
/// and asserted in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Constants folded.
    pub folded: usize,
    /// Algebraic identities applied.
    pub simplified: usize,
    /// Subexpressions deduplicated.
    pub cse_hits: usize,
    /// Dead ops removed.
    pub dead_removed: usize,
    /// Fixpoint iterations.
    pub iterations: usize,
}

/// Run all passes to a fixpoint (bounded) and return the optimized trace.
pub fn optimize(mut ir: TraceIr) -> (TraceIr, PassStats) {
    let mut stats = PassStats::default();
    for _ in 0..16 {
        stats.iterations += 1;
        let mut changed = false;
        changed |= const_fold(&mut ir, &mut stats);
        changed |= simplify(&mut ir, &mut stats);
        changed |= cse(&mut ir, &mut stats);
        changed |= dce(&mut ir, &mut stats);
        if !changed {
            break;
        }
    }
    (ir, stats)
}

fn subst_src(s: &mut Src, dst: usize, replacement: Src) {
    if let Src::Reg(r) = s {
        if *r == dst {
            *s = replacement;
        }
    }
}

/// Replace every use of register `dst` with `replacement` throughout.
fn substitute(ir: &mut TraceIr, dst: usize, replacement: Src) {
    for op in ir.pre_ops.iter_mut().chain(ir.post_ops.iter_mut()) {
        for a in &mut op.args {
            subst_src(a, dst, replacement);
        }
    }
    if let Some(fc) = &mut ir.filter {
        subst_src(&mut fc.lhs, dst, replacement);
        subst_src(&mut fc.rhs, dst, replacement);
    }
    for o in &mut ir.outputs {
        match o {
            OutputSpec::Array { src, .. } | OutputSpec::Fold { src, .. } => {
                subst_src(src, dst, replacement)
            }
            OutputSpec::Sel { .. } => {}
        }
    }
}

fn const_of(s: &Src) -> Option<f64> {
    match s {
        Src::ConstI(v) => Some(*v as f64),
        Src::ConstF(v) => Some(*v),
        _ => None,
    }
}

fn eval_const(op: ScalarOp, args: &[Src], is_float: bool) -> Option<Src> {
    if is_float {
        let a = const_of(args.first()?)?;
        let r = match op {
            ScalarOp::Add => a + const_of(&args[1])?,
            ScalarOp::Sub => a - const_of(&args[1])?,
            ScalarOp::Mul => a * const_of(&args[1])?,
            ScalarOp::Div => a / const_of(&args[1])?,
            ScalarOp::Neg => -a,
            ScalarOp::Abs => a.abs(),
            ScalarOp::Sqrt => a.sqrt(),
            ScalarOp::Min => a.min(const_of(&args[1])?),
            ScalarOp::Max => a.max(const_of(&args[1])?),
            _ => return None,
        };
        Some(Src::ConstF(r))
    } else {
        let get = |s: &Src| match s {
            Src::ConstI(v) => Some(*v),
            _ => None,
        };
        let a = get(args.first()?)?;
        let r = match op {
            ScalarOp::Add => a.wrapping_add(get(&args[1])?),
            ScalarOp::Sub => a.wrapping_sub(get(&args[1])?),
            ScalarOp::Mul => a.wrapping_mul(get(&args[1])?),
            ScalarOp::Div => {
                let b = get(&args[1])?;
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            ScalarOp::Rem => {
                let b = get(&args[1])?;
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            ScalarOp::Neg => a.wrapping_neg(),
            ScalarOp::Abs => a.wrapping_abs(),
            ScalarOp::Min => a.min(get(&args[1])?),
            ScalarOp::Max => a.max(get(&args[1])?),
            _ => return None,
        };
        Some(Src::ConstI(r))
    }
}

fn const_fold(ir: &mut TraceIr, stats: &mut PassStats) -> bool {
    let is_float = ir.lane == LaneType::F64;
    let mut changed = false;
    // Apply one replacement at a time: substitutions invalidate any other
    // replacement computed against the pre-substitution state.
    loop {
        let next = ir.pre_ops.iter().chain(ir.post_ops.iter()).find_map(|op| {
            if op.args.iter().all(|a| const_of(a).is_some()) {
                eval_const(op.op, &op.args, is_float).map(|r| (op.dst, r))
            } else {
                None
            }
        });
        match next {
            Some((dst, r)) => {
                remove_op(ir, dst);
                substitute(ir, dst, r);
                stats.folded += 1;
                changed = true;
            }
            None => return changed,
        }
    }
}

fn remove_op(ir: &mut TraceIr, dst: usize) {
    ir.pre_ops.retain(|o| o.dst != dst);
    ir.post_ops.retain(|o| o.dst != dst);
}

fn simplify(ir: &mut TraceIr, stats: &mut PassStats) -> bool {
    let float = ir.lane == LaneType::F64;
    let mut changed = false;
    // One replacement per step (see const_fold for why).
    loop {
        let next = ir
            .pre_ops
            .iter()
            .chain(ir.post_ops.iter())
            .find_map(|op| identity(op, float).map(|r| (op.dst, r)));
        match next {
            Some((dst, r)) => {
                remove_op(ir, dst);
                substitute(ir, dst, r);
                stats.simplified += 1;
                changed = true;
            }
            None => return changed,
        }
    }
}

/// The value `op` reduces to by an algebraic identity that holds for every
/// input of its lane domain. In i64 lanes those are `x * 1`, `x / 1`,
/// `x ± 0` and `x * 0 = 0`. In f64 lanes `x + 0.0` is not `x` at −0.0 and
/// `x * 0.0` is not `0.0` at a negative, infinite or NaN `x`, so only the
/// rewrites exact for every IEEE 754 input remain: `x * 1`, `x / 1`,
/// `x − (+0.0)` and `x + (−0.0)`, with the zeros matched by bit pattern.
fn identity(op: &TraceOp, float: bool) -> Option<Src> {
    let f64_is = |s: &Src, v: f64| f64_bits(s) == Some(v.to_bits());
    match (op.op, op.args.as_slice()) {
        (ScalarOp::Mul, [x, c]) | (ScalarOp::Mul, [c, x]) if is_one(c) => Some(*x),
        (ScalarOp::Div, [x, c]) if is_one(c) => Some(*x),
        _ if float => match (op.op, op.args.as_slice()) {
            (ScalarOp::Add, [x, c]) | (ScalarOp::Add, [c, x]) if f64_is(c, -0.0) => Some(*x),
            (ScalarOp::Sub, [x, c]) if f64_is(c, 0.0) => Some(*x),
            _ => None,
        },
        (ScalarOp::Add, [x, c]) | (ScalarOp::Add, [c, x]) if is_zero(c) => Some(*x),
        (ScalarOp::Sub, [x, c]) if is_zero(c) => Some(*x),
        (ScalarOp::Mul, [_, c]) | (ScalarOp::Mul, [c, _]) if is_zero(c) => Some(Src::ConstI(0)),
        _ => None,
    }
}

/// The bits of an immediate as an f64 lane holds it.
fn f64_bits(s: &Src) -> Option<u64> {
    match s {
        Src::ConstI(v) => Some((*v as f64).to_bits()),
        Src::ConstF(v) => Some(v.to_bits()),
        _ => None,
    }
}

fn is_zero(s: &Src) -> bool {
    matches!(s, Src::ConstI(0)) || matches!(s, Src::ConstF(v) if *v == 0.0)
}

fn is_one(s: &Src) -> bool {
    matches!(s, Src::ConstI(1)) || matches!(s, Src::ConstF(v) if *v == 1.0)
}

fn cse(ir: &mut TraceIr, stats: &mut PassStats) -> bool {
    let mut changed = false;
    // Only within the same phase — a post op must not be hoisted before the
    // filter.
    for phase in [true, false] {
        let ops: &Vec<TraceOp> = if phase { &ir.pre_ops } else { &ir.post_ops };
        let mut seen: Vec<(ScalarOp, Vec<Src>, usize)> = Vec::new();
        let mut dup: Option<(usize, usize)> = None;
        for op in ops {
            if let Some((_, _, canon)) = seen.iter().find(|(o, a, _)| *o == op.op && *a == op.args)
            {
                dup = Some((op.dst, *canon));
                break;
            }
            seen.push((op.op, op.args.clone(), op.dst));
        }
        if let Some((dst, canon)) = dup {
            remove_op(ir, dst);
            substitute(ir, dst, Src::Reg(canon));
            stats.cse_hits += 1;
            changed = true;
        }
    }
    changed
}

fn dce(ir: &mut TraceIr, stats: &mut PassStats) -> bool {
    let mut live = vec![false; ir.n_regs];
    let mark = |live: &mut Vec<bool>, s: &Src| {
        if let Src::Reg(r) = s {
            live[*r] = true;
        }
    };
    for o in &ir.outputs {
        match o {
            OutputSpec::Array { src, .. } | OutputSpec::Fold { src, .. } => mark(&mut live, src),
            OutputSpec::Sel { .. } => {}
        }
    }
    if let Some(fc) = &ir.filter {
        mark(&mut live, &fc.lhs);
        mark(&mut live, &fc.rhs);
    }
    loop {
        let mut grew = false;
        for op in ir.pre_ops.iter().chain(ir.post_ops.iter()) {
            if live[op.dst] {
                for a in &op.args {
                    if let Src::Reg(r) = a {
                        if !live[*r] {
                            live[*r] = true;
                            grew = true;
                        }
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    let before = ir.pre_ops.len() + ir.post_ops.len();
    ir.pre_ops.retain(|o| live[o.dst]);
    ir.post_ops.retain(|o| live[o.dst]);
    let removed = before - (ir.pre_ops.len() + ir.post_ops.len());
    stats.dead_removed += removed;
    removed > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{execute, FilterCheck, LaneType, OutputSpec};
    use adaptvm_storage::array::Array;
    use adaptvm_storage::scalar::ScalarType;

    fn out(src: Src) -> Vec<OutputSpec> {
        vec![OutputSpec::Array {
            name: "out".into(),
            src,
            compacted: false,
            out_ty: ScalarType::I64,
        }]
    }

    fn op(op_: ScalarOp, dst: usize, args: Vec<Src>) -> TraceOp {
        TraceOp { op: op_, dst, args }
    }

    #[test]
    fn folds_constants() {
        let ir = TraceIr {
            lane: LaneType::I64,
            inputs: vec!["x".into()],
            n_regs: 2,
            pre_ops: vec![
                op(ScalarOp::Mul, 0, vec![Src::ConstI(2), Src::ConstI(3)]),
                op(ScalarOp::Add, 1, vec![Src::Input(0), Src::Reg(0)]),
            ],
            filter: None,
            post_ops: vec![],
            outputs: out(Src::Reg(1)),
        };
        let (opt, stats) = optimize(ir);
        assert_eq!(stats.folded, 1);
        assert_eq!(opt.pre_ops.len(), 1);
        assert_eq!(opt.pre_ops[0].args[1], Src::ConstI(6));
        let x = Array::from(vec![10i64]);
        assert_eq!(
            execute(&opt, &[&x], None).unwrap().arrays[0].1,
            Array::from(vec![16i64])
        );
    }

    #[test]
    fn simplifies_identities() {
        let ir = TraceIr {
            lane: LaneType::I64,
            inputs: vec!["x".into()],
            n_regs: 2,
            pre_ops: vec![
                op(ScalarOp::Mul, 0, vec![Src::Input(0), Src::ConstI(1)]),
                op(ScalarOp::Add, 1, vec![Src::Reg(0), Src::ConstI(0)]),
            ],
            filter: None,
            post_ops: vec![],
            outputs: out(Src::Reg(1)),
        };
        let (opt, stats) = optimize(ir);
        assert!(stats.simplified >= 2, "{stats:?}");
        assert!(opt.pre_ops.is_empty());
        assert_eq!(
            opt.outputs[0],
            OutputSpec::Array {
                name: "out".into(),
                src: Src::Input(0),
                compacted: false,
                out_ty: ScalarType::I64
            }
        );
    }

    #[test]
    fn mul_by_zero_collapses() {
        let ir = TraceIr {
            lane: LaneType::I64,
            inputs: vec!["x".into()],
            n_regs: 1,
            pre_ops: vec![op(ScalarOp::Mul, 0, vec![Src::Input(0), Src::ConstI(0)])],
            filter: None,
            post_ops: vec![],
            outputs: out(Src::Reg(0)),
        };
        let (opt, stats) = optimize(ir);
        assert_eq!(stats.simplified, 1);
        assert!(opt.pre_ops.is_empty());
    }

    #[test]
    fn float_lanes_keep_only_ieee_exact_identities() {
        let rewritten = |k: ScalarOp, c: f64| {
            let ir = TraceIr {
                lane: LaneType::F64,
                inputs: vec!["x".into()],
                n_regs: 1,
                pre_ops: vec![op(k, 0, vec![Src::Input(0), Src::ConstF(c)])],
                filter: None,
                post_ops: vec![],
                outputs: out(Src::Reg(0)),
            };
            optimize(ir).1.simplified > 0
        };
        assert!(rewritten(ScalarOp::Mul, 1.0));
        assert!(rewritten(ScalarOp::Div, 1.0));
        assert!(rewritten(ScalarOp::Sub, 0.0));
        assert!(rewritten(ScalarOp::Add, -0.0));
        assert!(!rewritten(ScalarOp::Add, 0.0));
        assert!(!rewritten(ScalarOp::Sub, -0.0));
        assert!(!rewritten(ScalarOp::Mul, 0.0));
        assert!(!rewritten(ScalarOp::Mul, -0.0));
    }

    #[test]
    fn cse_deduplicates() {
        let ir = TraceIr {
            lane: LaneType::I64,
            inputs: vec!["x".into()],
            n_regs: 3,
            pre_ops: vec![
                op(ScalarOp::Mul, 0, vec![Src::Input(0), Src::Input(0)]),
                op(ScalarOp::Mul, 1, vec![Src::Input(0), Src::Input(0)]),
                op(ScalarOp::Add, 2, vec![Src::Reg(0), Src::Reg(1)]),
            ],
            filter: None,
            post_ops: vec![],
            outputs: out(Src::Reg(2)),
        };
        let (opt, stats) = optimize(ir);
        assert_eq!(stats.cse_hits, 1);
        assert_eq!(opt.pre_ops.len(), 2);
        let x = Array::from(vec![3i64]);
        assert_eq!(
            execute(&opt, &[&x], None).unwrap().arrays[0].1,
            Array::from(vec![18i64])
        );
    }

    #[test]
    fn dce_removes_unreachable() {
        let ir = TraceIr {
            lane: LaneType::I64,
            inputs: vec!["x".into()],
            n_regs: 2,
            pre_ops: vec![
                op(ScalarOp::Add, 0, vec![Src::Input(0), Src::ConstI(1)]),
                op(ScalarOp::Mul, 1, vec![Src::Input(0), Src::ConstI(2)]),
            ],
            filter: None,
            post_ops: vec![],
            outputs: out(Src::Reg(1)),
        };
        let (opt, stats) = optimize(ir);
        assert_eq!(stats.dead_removed, 1);
        assert_eq!(opt.pre_ops.len(), 1);
        assert_eq!(opt.pre_ops[0].dst, 1);
    }

    #[test]
    fn filter_keeps_its_operands_alive() {
        let ir = TraceIr {
            lane: LaneType::I64,
            inputs: vec!["x".into()],
            n_regs: 1,
            pre_ops: vec![op(ScalarOp::Mul, 0, vec![Src::Input(0), Src::ConstI(2)])],
            filter: Some(FilterCheck {
                op: ScalarOp::Gt,
                lhs: Src::Reg(0),
                rhs: Src::ConstI(0),
            }),
            post_ops: vec![],
            outputs: vec![OutputSpec::Sel {
                name: "t".into(),
                flow: "x".into(),
            }],
        };
        let (opt, stats) = optimize(ir);
        assert_eq!(stats.dead_removed, 0);
        assert_eq!(opt.pre_ops.len(), 1);
    }

    #[test]
    fn optimization_preserves_semantics() {
        let ir = TraceIr {
            lane: LaneType::I64,
            inputs: vec!["x".into()],
            n_regs: 6,
            pre_ops: vec![
                op(ScalarOp::Mul, 0, vec![Src::Input(0), Src::ConstI(1)]),
                op(ScalarOp::Add, 1, vec![Src::Reg(0), Src::ConstI(0)]),
                op(ScalarOp::Mul, 2, vec![Src::Reg(1), Src::ConstI(2)]),
                op(ScalarOp::Mul, 3, vec![Src::ConstI(3), Src::ConstI(4)]),
                op(ScalarOp::Add, 4, vec![Src::Reg(2), Src::Reg(3)]),
                op(ScalarOp::Sub, 5, vec![Src::Input(0), Src::ConstI(99)]), // dead
            ],
            filter: None,
            post_ops: vec![],
            outputs: out(Src::Reg(4)),
        };
        let x = Array::from(vec![5i64, -1]);
        let before = execute(&ir, &[&x], None).unwrap();
        let (opt, stats) = optimize(ir);
        let after = execute(&opt, &[&x], None).unwrap();
        assert_eq!(before, after);
        assert!(opt.op_count() < 6);
        assert!(stats.iterations >= 2);
        assert!(stats.dead_removed >= 1);
    }

    #[test]
    fn float_folding() {
        let ir = TraceIr {
            lane: LaneType::F64,
            inputs: vec!["x".into()],
            n_regs: 2,
            pre_ops: vec![
                op(ScalarOp::Sqrt, 0, vec![Src::ConstF(16.0)]),
                op(ScalarOp::Mul, 1, vec![Src::Input(0), Src::Reg(0)]),
            ],
            filter: None,
            post_ops: vec![],
            outputs: vec![OutputSpec::Array {
                name: "out".into(),
                src: Src::Reg(1),
                compacted: false,
                out_ty: ScalarType::F64,
            }],
        };
        let (opt, stats) = optimize(ir);
        assert_eq!(stats.folded, 1);
        assert_eq!(opt.pre_ops[0].args[1], Src::ConstF(4.0));
    }
}
