//! The vectorized interpreter (§III-A).
//!
//! Executes (preferably normalized) DSL programs chunk-at-a-time: every
//! skeleton dispatches to a pre-compiled kernel from `adaptvm-kernels`,
//! profiling collects per-site time/calls/tuples, and a [`FlavorPolicy`]
//! picks kernel flavors per site (micro-adaptivity). Non-normalized
//! lambdas are handled by a generic fallback (parameters bound to vectors,
//! scalar ops lifted element-wise), so the interpreter is total over the
//! language even before normalization.

use std::borrow::Cow;
use std::time::Instant;

use adaptvm_dsl::ast::{Expr, Lambda, Program, ScalarOp, Stmt};
use adaptvm_dsl::value::{Value, Vector};
use adaptvm_kernels::movement;
use adaptvm_kernels::{filter_cmp, fold_apply, map_apply, scalar_apply, FilterFlavor, Operand};
use adaptvm_storage::array::Array;
use adaptvm_storage::scalar::Scalar;
use adaptvm_storage::sel::SelVec;
use adaptvm_storage::DEFAULT_CHUNK;

use crate::adaptive::{FixedPolicy, FlavorPolicy};
use crate::env::{Buffers, Env};
use crate::error::VmError;
use crate::profile::Profile;

/// Control-flow result of statement execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Continue with the next statement.
    Normal,
    /// A `break` is propagating to the innermost loop.
    Broke,
}

/// Safety limit on loop iterations (runaway-program guard).
pub const MAX_ITERATIONS: u64 = 1 << 32;

/// The vectorized interpreter.
pub struct Interpreter<'p> {
    /// Chunk length used by `read` without an explicit length.
    pub chunk_size: usize,
    /// Profile sink.
    pub profile: &'p mut Profile,
    /// Flavor selection (micro-adaptivity).
    pub policy: &'p mut dyn FlavorPolicy,
}

impl<'p> Interpreter<'p> {
    /// Interpreter with the given profile and policy.
    pub fn new(
        chunk_size: usize,
        profile: &'p mut Profile,
        policy: &'p mut dyn FlavorPolicy,
    ) -> Interpreter<'p> {
        Interpreter {
            chunk_size,
            profile,
            policy,
        }
    }

    /// Execute statements.
    pub fn exec_stmts(&mut self, stmts: &[Stmt], env: &mut Env) -> Result<Flow, VmError> {
        for s in stmts {
            if self.exec_stmt(s, env)? == Flow::Broke {
                return Ok(Flow::Broke);
            }
        }
        Ok(Flow::Normal)
    }

    /// Execute one statement.
    pub fn exec_stmt(&mut self, s: &Stmt, env: &mut Env) -> Result<Flow, VmError> {
        self.exec_stmt_at(s, None, env)
    }

    /// Execute one statement whose filter site id (see [`filter_site`]) the
    /// caller already holds — the engine derives it once per plan step, so
    /// the chunk loop never prints a predicate.
    pub fn exec_stmt_at(
        &mut self,
        s: &Stmt,
        site: Option<&str>,
        env: &mut Env,
    ) -> Result<Flow, VmError> {
        match s {
            Stmt::DeclareMut { .. } => Ok(Flow::Normal),
            Stmt::Assign { name, expr } => {
                let v = self.eval(expr, env)?;
                env.set(name, v);
                Ok(Flow::Normal)
            }
            Stmt::Let { name, expr, body } => {
                let profiled = !matches!(expr, Expr::Const(_) | Expr::Var(_) | Expr::Apply(..));
                let t0 = Instant::now();
                let v = match (expr, site) {
                    (Expr::Filter { p, inputs }, Some(site)) => {
                        self.eval_filter(p, inputs, site, env)?
                    }
                    _ => self.eval(expr, env)?,
                };
                if profiled {
                    let tuples = v.logical_len();
                    self.profile
                        .record(name, t0.elapsed().as_nanos() as u64, tuples);
                }
                env.set(name, v);
                let flow = self.exec_stmts(body, env)?;
                Ok(flow)
            }
            Stmt::Write { target, pos, value } => {
                let t0 = Instant::now();
                let pos = self.eval_scalar_index(pos, env, "write position")?;
                let data = match &*self.eval_cow(value, env)? {
                    Value::Vector(vec) => vec.condense()?.data,
                    Value::Scalar(s) => Array::splat(s, 1),
                };
                let tuples = data.len();
                env.buffers.write(target, pos, &data)?;
                self.profile.record(
                    &format!("write {target}"),
                    t0.elapsed().as_nanos() as u64,
                    tuples,
                );
                Ok(Flow::Normal)
            }
            Stmt::Scatter {
                target,
                indices,
                value,
                conflict,
            } => {
                let idx = self.eval_vector(indices, env)?.condense()?.data;
                let vals = self.eval_vector(value, env)?.condense()?.data;
                let out = env.buffers.output_mut(target, vals.scalar_type());
                movement::scatter(out, &idx, &vals, *conflict)?;
                Ok(Flow::Normal)
            }
            Stmt::Loop(body) => {
                let mut iterations: u64 = 0;
                loop {
                    iterations += 1;
                    if iterations > MAX_ITERATIONS {
                        return Err(VmError::IterationLimit(MAX_ITERATIONS));
                    }
                    self.profile.iterations += 1;
                    if self.exec_stmts(body, env)? == Flow::Broke {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Break => Ok(Flow::Broke),
            Stmt::If { cond, then, els } => {
                let c = self.eval(cond, env)?;
                let b = c
                    .as_scalar()
                    .and_then(Scalar::as_bool)
                    .ok_or_else(|| VmError::Shape("if condition must be a scalar bool".into()))?;
                if b {
                    self.exec_stmts(then, env)
                } else {
                    self.exec_stmts(els, env)
                }
            }
            Stmt::ExprStmt(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
        }
    }

    /// Evaluate an expression to a value.
    pub fn eval(&mut self, e: &Expr, env: &mut Env) -> Result<Value, VmError> {
        match e {
            Expr::Const(s) => Ok(Value::Scalar(s.clone())),
            Expr::Var(name) => env.get(name).cloned(),
            Expr::Len(inner) => {
                let n = self.eval_cow(inner, env)?.logical_len();
                Ok(Value::Scalar(Scalar::I64(n as i64)))
            }
            Expr::Apply(op, args) => {
                let values = args
                    .iter()
                    .map(|a| self.eval(a, env))
                    .collect::<Result<Vec<_>, _>>()?;
                self.eval_apply(*op, &values)
            }
            Expr::Read { pos, data, len } => {
                let pos = self.eval_scalar_index(pos, env, "read position")?;
                let len = match len {
                    Some(l) => self.eval_scalar_index(l, env, "read length")?,
                    None => self.chunk_size,
                };
                let chunk = env.buffers.read(data, pos, len)?;
                Ok(Value::dense(chunk))
            }
            Expr::Map { f, inputs } => {
                if let Some(result) = map_single_op(f, inputs, env) {
                    return result;
                }
                let values = inputs
                    .iter()
                    .map(|i| self.eval(i, env))
                    .collect::<Result<Vec<_>, _>>()?;
                self.eval_map(f, &values, env, "map")
            }
            Expr::Filter { p, inputs } => self.eval_filter(p, inputs, &filter_site(p), env),
            Expr::Fold { r, init, input } => {
                let init = self
                    .eval(init, env)?
                    .as_scalar()
                    .cloned()
                    .ok_or_else(|| VmError::Shape("fold init must be scalar".into()))?;
                let result = match &*self.eval_cow(input, env)? {
                    Value::Vector(v) => fold_apply(*r, &init, &v.data, v.sel.as_ref())?,
                    Value::Scalar(s) => fold_apply(*r, &init, &Array::splat(s, 1), None)?,
                };
                Ok(Value::Scalar(result))
            }
            Expr::Gather { indices, data } => {
                let idx = self.eval_vector(indices, env)?.condense()?.data;
                Ok(Value::dense(env.buffers.gather(data, &idx)?))
            }
            Expr::Gen { f, len } => {
                let n = self.eval_scalar_index(len, env, "gen length")?;
                let index = Value::dense(movement::gen_index(n));
                if f.params.len() == 1
                    && matches!(f.body.as_ref(), Expr::Var(v) if *v == f.params[0])
                {
                    return Ok(index);
                }
                self.eval_map(f, &[index], env, "gen")
            }
            Expr::Condense(inner) => {
                let v = self.eval_vector(inner, env)?;
                Ok(Value::Vector(v.condense()?))
            }
            Expr::Merge { kind, left, right } => {
                let l = self.eval_vector(left, env)?.condense()?.data;
                let r = self.eval_vector(right, env)?.condense()?.data;
                Ok(Value::dense(adaptvm_kernels::merge::merge_apply(
                    *kind, &l, &r,
                )?))
            }
        }
    }

    fn eval_vector(&mut self, e: &Expr, env: &mut Env) -> Result<Vector, VmError> {
        match self.eval(e, env)? {
            Value::Vector(v) => Ok(v),
            Value::Scalar(s) => Ok(Vector::dense(Array::splat(&s, 1))),
        }
    }

    /// Evaluate without copying when `e` names a variable (the common,
    /// normalized case): the bound value is borrowed from `env`.
    fn eval_cow<'e>(&mut self, e: &Expr, env: &'e mut Env) -> Result<Cow<'e, Value>, VmError> {
        match e {
            Expr::Var(name) => env.get(name).map(Cow::Borrowed),
            other => self.eval(other, env).map(Cow::Owned),
        }
    }

    /// Evaluate a scalar integer expression (positions, lengths).
    pub fn eval_scalar_int(&mut self, e: &Expr, env: &mut Env) -> Result<i64, VmError> {
        self.eval(e, env)?
            .as_i64()
            .ok_or_else(|| VmError::Shape("expected a scalar integer".into()))
    }

    /// Evaluate a position/length operand that must be non-negative
    /// (buffer offsets, chunk lengths, gen lengths) to a `usize`.
    pub fn eval_scalar_index(
        &mut self,
        e: &Expr,
        env: &mut Env,
        what: &str,
    ) -> Result<usize, VmError> {
        let v = self.eval_scalar_int(e, env)?;
        if v < 0 {
            return Err(VmError::Shape(format!("{what} must be non-negative")));
        }
        Ok(v as usize)
    }

    /// Scalar ops over mixed scalar/vector operands: pure-scalar operands
    /// compute directly ([`scalar_apply`]); any vector operand lifts the
    /// op element-wise (the DSL's "scalars are length-1 arrays" rule).
    fn eval_apply(&mut self, op: ScalarOp, values: &[Value]) -> Result<Value, VmError> {
        let scalars: Option<Vec<&Scalar>> = values.iter().map(Value::as_scalar).collect();
        if let Some(scalars) = scalars {
            return Ok(Value::Scalar(scalar_apply(op, &scalars)?));
        }
        // Lifted path: common selection from the vector operands.
        let sel = common_sel(values)?;
        let arrays: Vec<Option<&Array>> = values
            .iter()
            .map(|v| v.as_vector().map(|vec| &vec.data))
            .collect();
        let operands: Vec<Operand<'_>> = values
            .iter()
            .zip(&arrays)
            .map(|(v, a)| match a {
                Some(arr) => Operand::Col(arr),
                None => Operand::Const(v.as_scalar().cloned().expect("scalar")),
            })
            .collect();
        let data = map_apply(op, &operands, sel, adaptvm_kernels::MapMode::Full)?;
        Ok(Value::Vector(Vector {
            data,
            sel: sel.cloned(),
        }))
    }

    /// Evaluate a map by binding parameters and evaluating the body with
    /// lifted scalar ops. Normalized single-op bodies take one kernel call;
    /// composite bodies recurse (still vectorized, with intermediates).
    fn eval_map(
        &mut self,
        f: &Lambda,
        inputs: &[Value],
        env: &mut Env,
        _site: &str,
    ) -> Result<Value, VmError> {
        if f.params.len() != inputs.len() {
            return Err(VmError::Shape(format!(
                "map arity mismatch: {} params, {} inputs",
                f.params.len(),
                inputs.len()
            )));
        }
        let sel = common_sel(inputs)?.cloned();
        // Broadcast scalars are kept as scalars (kernel Const operands).
        let shadowed: Vec<Option<Value>> = f
            .params
            .iter()
            .zip(inputs)
            .map(|(p, v)| {
                let old = if env.contains(p) {
                    Some(env.get(p).expect("contains").clone())
                } else {
                    None
                };
                env.set(p, v.clone());
                old
            })
            .collect();
        let result = self.eval(&f.body, env);
        for (p, old) in f.params.iter().zip(shadowed) {
            match old {
                Some(v) => env.set(p, v),
                None => {
                    // Leave a tombstone-free env: rebinding with a scalar 0
                    // would be wrong; remove by rebuilding is costly. We
                    // simply shadow — normalized programs use fresh names.
                }
            }
        }
        let value = result?;
        match value {
            Value::Vector(v) => Ok(Value::Vector(v)),
            // Constant body: broadcast to the input length.
            Value::Scalar(s) => {
                let n = inputs
                    .iter()
                    .find_map(|v| v.as_vector().map(Vector::len))
                    .unwrap_or(1);
                Ok(Value::Vector(Vector {
                    data: Array::splat(&s, n),
                    sel,
                }))
            }
        }
    }

    /// Evaluate a filter: compute the new selection on the flow carrier.
    /// `site` keys the micro-adaptive arms and the selectivity profile.
    fn eval_filter(
        &mut self,
        p: &Lambda,
        inputs: &[Expr],
        site: &str,
        env: &mut Env,
    ) -> Result<Value, VmError> {
        // Fast path: a normalized comparison predicate runs as one kernel
        // call; over atom inputs (normalized programs) every operand is
        // borrowed straight from the environment.
        let cmp = comparison_shape(p);
        if let (Some((op, args)), true) = (cmp, inputs.iter().all(is_atom)) {
            let values = atoms(inputs, env)?;
            let refs: Vec<&Value> = values.iter().map(|v| &**v).collect();
            return self.filter_compare(p, op, args, &refs, site);
        }
        let values = inputs
            .iter()
            .map(|i| self.eval(i, env))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some((op, args)) = cmp {
            let refs: Vec<&Value> = values.iter().collect();
            return self.filter_compare(p, op, args, &refs, site);
        }
        // Generic path: evaluate the predicate to a bool column.
        let flow = flow_of(values.first())?;
        let flavor = self.policy.filter_flavor(site);
        let t0 = Instant::now();
        let bools = self.eval_map(p, &values, env, "filter-pred")?;
        let bools = bools
            .as_vector()
            .ok_or_else(|| VmError::Shape("predicate must be vectorized".into()))?;
        let sel = adaptvm_kernels::filter::filter_bools(&bools.data, flow.sel.as_ref(), flavor)?;
        Ok(self.finish_filter(site, flavor, t0, flow, sel))
    }

    /// One comparison kernel over borrowed operands.
    fn filter_compare(
        &mut self,
        p: &Lambda,
        op: ScalarOp,
        args: &[Expr],
        inputs: &[&Value],
        site: &str,
    ) -> Result<Value, VmError> {
        let flow = flow_of(inputs.first().copied())?;
        let flavor = self.policy.filter_flavor(site);
        let t0 = Instant::now();
        let operands = args
            .iter()
            .map(|a| predicate_operand(a, p, inputs))
            .collect::<Result<Vec<_>, _>>()?;
        let sel = filter_cmp(op, &operands, flow.sel.as_ref(), flavor)?;
        Ok(self.finish_filter(site, flavor, t0, flow, sel))
    }

    /// Feed the flavor bandit and the selectivity profile, then attach the
    /// new selection to (a copy of) the flow carrier.
    fn finish_filter(
        &mut self,
        site: &str,
        flavor: FilterFlavor,
        t0: Instant,
        flow: &Vector,
        sel: SelVec,
    ) -> Value {
        let elapsed = t0.elapsed().as_nanos() as u64;
        let candidates = flow.selected_len();
        self.policy
            .feedback_filter(site, flavor, elapsed, candidates.max(1));
        let selectivity = if candidates == 0 {
            0.0
        } else {
            sel.len() as f64 / candidates as f64
        };
        self.profile.record_selectivity(site, selectivity);
        Value::Vector(Vector::selected(flow.data.clone(), sel))
    }
}

fn is_atom(e: &Expr) -> bool {
    matches!(e, Expr::Var(_) | Expr::Const(_))
}

/// Resolve atom expressions against the environment without copying any
/// bound value (constants become owned scalars).
fn atoms<'e>(exprs: &[Expr], env: &'e Env) -> Result<Vec<Cow<'e, Value>>, VmError> {
    exprs
        .iter()
        .map(|e| match e {
            Expr::Var(name) => env.get(name).map(Cow::Borrowed),
            Expr::Const(s) => Ok(Cow::Owned(Value::Scalar(s.clone()))),
            _ => Err(VmError::Shape("non-atomic operand".into())),
        })
        .collect()
}

/// `(op, args)` when the predicate is a normalized comparison.
fn comparison_shape(p: &Lambda) -> Option<(ScalarOp, &[Expr])> {
    match p.body.as_ref() {
        Expr::Apply(op, args) if op.is_comparison() && args.iter().all(is_atom) => {
            Some((*op, args.as_slice()))
        }
        _ => None,
    }
}

fn flow_of(first: Option<&Value>) -> Result<&Vector, VmError> {
    first
        .and_then(Value::as_vector)
        .ok_or_else(|| VmError::Shape("filter flow must be a vector".into()))
}

fn predicate_operand<'v>(
    arg: &Expr,
    p: &Lambda,
    inputs: &[&'v Value],
) -> Result<Operand<'v>, VmError> {
    match arg {
        Expr::Const(s) => Ok(Operand::Const(s.clone())),
        Expr::Var(name) => match p.params.iter().position(|x| x == name) {
            Some(i) => Ok(operand_of(inputs[i])),
            None => Err(VmError::Unbound(format!("predicate variable {name}"))),
        },
        _ => Err(VmError::Shape("non-atomic predicate operand".into())),
    }
}

fn operand_of(v: &Value) -> Operand<'_> {
    match v {
        Value::Vector(v) => Operand::Col(&v.data),
        Value::Scalar(s) => Operand::Const(s.clone()),
    }
}

/// The normalized-map fast path: a single-op lambda over atom inputs is
/// one kernel call on operands borrowed from the environment — no vector
/// is copied and no parameter is bound. `None` sends every other shape
/// (composite bodies, non-atom inputs, all-scalar operands, arity errors)
/// down the general path.
fn map_single_op(f: &Lambda, inputs: &[Expr], env: &Env) -> Option<Result<Value, VmError>> {
    let Expr::Apply(op, args) = f.body.as_ref() else {
        return None;
    };
    if f.params.len() != inputs.len() || !inputs.iter().all(is_atom) || !args.iter().all(is_atom) {
        return None;
    }
    let run = || -> Result<Option<Value>, VmError> {
        let bound = atoms(inputs, env)?;
        // As on the general path, inputs must agree on their selection
        // even when the body ignores some of them.
        common_sel(bound.iter().map(|v| &**v))?;
        // A later parameter shadows an earlier one of the same name;
        // anything else is a captured outer variable.
        let operand_values = args
            .iter()
            .map(|a| match a {
                Expr::Var(name) => match f.params.iter().rposition(|x| x == name) {
                    Some(i) => Ok(Cow::Borrowed(&*bound[i])),
                    None => env.get(name).map(Cow::Borrowed),
                },
                Expr::Const(s) => Ok(Cow::Owned(Value::Scalar(s.clone()))),
                _ => unreachable!("checked atom"),
            })
            .collect::<Result<Vec<Cow<'_, Value>>, VmError>>()?;
        if !operand_values.iter().any(|v| v.as_vector().is_some()) {
            return Ok(None);
        }
        let sel = common_sel(operand_values.iter().map(|v| &**v))?;
        let operands: Vec<Operand<'_>> = operand_values.iter().map(|v| operand_of(v)).collect();
        let data = map_apply(*op, &operands, sel, adaptvm_kernels::MapMode::Full)?;
        Ok(Some(Value::Vector(Vector {
            data,
            sel: sel.cloned(),
        })))
    };
    run().transpose()
}

/// A stable site id for a filter predicate (keys the micro-adaptive arms
/// and the selectivity profile). Printing the predicate allocates, so
/// callers on the chunk path derive it once and pass it to
/// [`Interpreter::exec_stmt_at`].
pub fn filter_site(p: &Lambda) -> String {
    format!("filter@{}", adaptvm_dsl::printer::print_expr(&p.body))
}

/// The common pending selection of vector operands (scalars have none).
/// Mixed selections are a shape error — normalization never produces them.
fn common_sel<'v>(
    values: impl IntoIterator<Item = &'v Value>,
) -> Result<Option<&'v SelVec>, VmError> {
    let mut sel: Option<&SelVec> = None;
    for v in values {
        if let Value::Vector(vec) = v {
            match (sel, &vec.sel) {
                (None, Some(s)) => sel = Some(s),
                (Some(a), Some(b)) if a != b => {
                    return Err(VmError::Shape("operands carry different selections".into()))
                }
                _ => {}
            }
        }
    }
    Ok(sel)
}

/// Convenience: run a whole program under plain vectorized interpretation.
pub fn run_interpreted<'a>(
    program: &Program,
    buffers: Buffers<'a>,
    chunk_size: usize,
) -> Result<(Buffers<'a>, Profile), VmError> {
    let mut profile = Profile::new();
    let mut policy = FixedPolicy::default();
    let mut env = Env::new(buffers);
    {
        let mut interp = Interpreter::new(
            if chunk_size == 0 {
                DEFAULT_CHUNK
            } else {
                chunk_size
            },
            &mut profile,
            &mut policy,
        );
        interp.exec_stmts(&program.stmts, &mut env)?;
    }
    Ok((env.buffers, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptvm_dsl::normalize::normalize_program;
    use adaptvm_dsl::parser::parse_program;
    use adaptvm_dsl::programs;

    fn run<'a>(src: &str, buffers: Buffers<'a>) -> Buffers<'a> {
        let p = parse_program(src).unwrap();
        let (buffers, _) = run_interpreted(&p, buffers, 1024).unwrap();
        buffers
    }

    #[test]
    fn negative_positions_are_typed_errors() {
        // Regression: negative read/write positions, read lengths, and gen
        // lengths were cast straight to usize (huge allocations or debug
        // overflow panics) instead of producing typed errors.
        use adaptvm_dsl::ast::build::*;
        use adaptvm_dsl::ast::{Program, ScalarOp};
        let b = || Buffers::new().with_input("xs", Array::from(vec![1i64, 2, 3]));
        for src in [
            "let a = read (0 - 1) xs in { write out 0 a }",
            "let a = read 0 xs in { write out (0 - 2) a }",
            "let g = gen (\\i -> i) (0 - 5) in { write out 0 g }",
        ] {
            let p = parse_program(src).unwrap();
            assert!(
                matches!(run_interpreted(&p, b(), 1024), Err(VmError::Shape(_))),
                "{src}"
            );
        }
        // Negative explicit read length (no concrete syntax; builder only).
        let p = Program::new(vec![adaptvm_dsl::ast::build::let_in(
            "a",
            adaptvm_dsl::ast::Expr::Read {
                pos: Box::new(int(0)),
                data: "xs".into(),
                len: Some(Box::new(bin(ScalarOp::Sub, int(0), int(4)))),
            },
            vec![write("out", int(0), var("a"))],
        )]);
        assert!(matches!(
            run_interpreted(&p, b(), 1024),
            Err(VmError::Shape(_))
        ));
    }

    #[test]
    fn fig2_interprets_correctly() {
        let data: Vec<i64> = (0..5000).map(|i| (i % 5) - 2).collect();
        let buffers = Buffers::new().with_input("some_data", Array::from(data.clone()));
        let (out, profile) = run_interpreted(&programs::fig2_example(), buffers, 1024).unwrap();
        let (v_ref, w_ref) = programs::fig2_reference(&data, 4096);
        assert_eq!(out.output("v").unwrap().to_i64_vec().unwrap(), v_ref);
        assert_eq!(out.output("w").unwrap().to_i64_vec().unwrap(), w_ref);
        // 4096 elements at 1024/chunk = 4 iterations.
        assert_eq!(profile.iterations, 4);
        // Profile captured the map site.
        assert!(profile.op("a").calls >= 4);
    }

    /// Elements the Fig. 2 loop processes: whole chunks until the limit
    /// check fires (the loop tests `i >= limit` only after a full chunk).
    fn fig2_processed(n: usize, chunk: usize, limit: usize) -> usize {
        let mut i = 0;
        while i < limit {
            let take = chunk.min(n - i);
            if take == 0 {
                break;
            }
            i += take;
        }
        i
    }

    #[test]
    fn fig2_chunk_size_invariance() {
        let data: Vec<i64> = (0..5000).map(|i| (i * 7 % 11) - 5).collect();
        for chunk in [1usize, 3, 64, 1024, 4096, 10_000] {
            let processed = fig2_processed(data.len(), chunk, 4096);
            let expected = programs::fig2_reference(&data, processed);
            let buffers = Buffers::new().with_input("some_data", Array::from(data.clone()));
            let (out, _) = run_interpreted(&programs::fig2_example(), buffers, chunk).unwrap();
            assert_eq!(
                out.output("v").unwrap().to_i64_vec().unwrap(),
                expected.0,
                "chunk {chunk}"
            );
            assert_eq!(
                out.output("w").unwrap().to_i64_vec().unwrap(),
                expected.1,
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn normalized_and_raw_programs_agree() {
        let data: Vec<i64> = (-50..50).collect();
        let src = programs::hypot_whole_array();
        let normalized = normalize_program(&src);
        let mk = || {
            Buffers::new()
                .with_input("xs", Array::from(vec![3.0, 6.0, 9.0]))
                .with_input("ys", Array::from(vec![4.0, 8.0, 12.0]))
        };
        let (a, _) = run_interpreted(&src, mk(), 1024).unwrap();
        let (b, _) = run_interpreted(&normalized, mk(), 1024).unwrap();
        assert_eq!(a.output("out"), b.output("out"));
        assert_eq!(
            a.output("out").unwrap(),
            &Array::from(vec![5.0, 10.0, 15.0])
        );
        let _ = data;
    }

    #[test]
    fn filter_sum_accumulates() {
        let data: Vec<i64> = (0..10_000).map(|i| i % 100).collect();
        let buffers = Buffers::new().with_input("xs", Array::from(data.clone()));
        let p = programs::filter_sum(90, 10_000);
        let (_, profile) = {
            let mut profile = Profile::new();
            let mut policy = FixedPolicy::default();
            let mut env = Env::new(buffers);
            {
                let mut i = Interpreter::new(1024, &mut profile, &mut policy);
                i.exec_stmts(&p.stmts, &mut env).unwrap();
            }
            let acc = env.get("acc").unwrap().as_i64().unwrap();
            assert_eq!(acc, programs::filter_sum_reference(&data, 90, 10_000));
            (env, profile)
        };
        // Selectivity of x > 90 over 0..100 is ~0.09.
        let sites: Vec<_> = profile.sel_classes().into_keys().collect();
        assert_eq!(sites.len(), 1);
        let sel = profile.selectivity(&sites[0]).unwrap();
        assert!((sel - 0.09).abs() < 0.02, "sel {sel}");
    }

    #[test]
    fn scatter_and_gather() {
        let b = Buffers::new()
            .with_input("src", Array::from(vec![10i64, 20, 30, 40]))
            .with_input("idx", Array::from(vec![3i64, 0]));
        let out = run(
            "let i = read 0 idx in { let g = gather i src in { write picked 0 g } }",
            b,
        );
        assert_eq!(out.output("picked").unwrap(), &Array::from(vec![40i64, 10]));

        let b = Buffers::new()
            .with_input("vals", Array::from(vec![5i64, 7, 9]))
            .with_input("keys", Array::from(vec![1i64, 1, 0]));
        let out = run(
            "let k = read 0 keys in { let v = read 0 vals in { scatter agg k v add } }",
            b,
        );
        assert_eq!(out.output("agg").unwrap(), &Array::from(vec![9i64, 12]));
    }

    #[test]
    fn merge_and_gen() {
        let b = Buffers::new()
            .with_input("xs", Array::from(vec![1i64, 3, 5]))
            .with_input("ys", Array::from(vec![2i64, 3]));
        let out = run(
            "let a = read 0 xs in { let b = read 0 ys in { let m = merge union a b in { write out 0 m } } }",
            b,
        );
        assert_eq!(
            out.output("out").unwrap(),
            &Array::from(vec![1i64, 2, 3, 3, 5])
        );
        let out = run(
            "let g = gen (\\i -> i * i) 5 in { write sq 0 g }",
            Buffers::new(),
        );
        assert_eq!(
            out.output("sq").unwrap(),
            &Array::from(vec![0i64, 1, 4, 9, 16])
        );
    }

    #[test]
    fn conjunction_predicates_via_generic_path() {
        let b = Buffers::new().with_input("xs", Array::from(vec![1i64, 5, 8, 12]));
        let out = run(
            "let a = read 0 xs in { let t = filter (\\x -> x > 2 && x < 10) a in { write out 0 (condense t) } }",
            b,
        );
        assert_eq!(out.output("out").unwrap(), &Array::from(vec![5i64, 8]));
    }

    #[test]
    fn if_else_and_scalars() {
        let out = run(
            "mut x\nx := 10\nif x > 5 then { x := x * 2 } else { x := 0 }\nlet g = gen (\\i -> i) x in { write out 0 g }",
            Buffers::new(),
        );
        assert_eq!(out.output("out").unwrap().len(), 20);
    }

    #[test]
    fn errors_are_reported() {
        let p = parse_program("write out 0 missing").unwrap();
        let err = run_interpreted(&p, Buffers::new(), 64).unwrap_err();
        assert!(matches!(err, VmError::Unbound(_)));
        let p = parse_program("let a = read 0 nope in { write out 0 a }").unwrap();
        let err = run_interpreted(&p, Buffers::new(), 64).unwrap_err();
        assert!(matches!(err, VmError::UnknownBuffer(_)));
        let p = parse_program("if 5 then { break }").unwrap();
        let err = run_interpreted(&p, Buffers::new(), 64).unwrap_err();
        assert!(matches!(err, VmError::Shape(_)));
    }

    #[test]
    fn saxpy_program() {
        let xs: Vec<i64> = (0..3000).collect();
        let ys: Vec<i64> = (0..3000).map(|i| i * 10).collect();
        let b = Buffers::new()
            .with_input("xs", Array::from(xs.clone()))
            .with_input("ys", Array::from(ys.clone()));
        let (out, _) = run_interpreted(&programs::saxpy(3, 3000), b, 512).unwrap();
        let expected: Vec<i64> = xs.iter().zip(&ys).map(|(x, y)| 3 * x + y).collect();
        assert_eq!(out.output("out").unwrap().to_i64_vec().unwrap(), expected);
    }
}
