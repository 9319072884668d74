//! DSL-driven workloads: text in, any-executor execution out.
//!
//! This module is the end-to-end bridge between the §II DSL front-end and
//! the execution stack. A [`Workload`] is compiled once from DSL *text*
//! (parse → typecheck → normalize → re-check) against a declared buffer
//! schema, and can then be run under **any** VM strategy
//! ([`Strategy::Interpret`], [`Strategy::CompiledPipeline`],
//! [`Strategy::Adaptive`]) crossed with **any** executor via
//! [`ParallelOpts`] — a scoped per-run pool, a shared [`Scheduler`], or an
//! admission-controlled [`QueryService`] with tenant + priority — and an
//! optional [`MemoryBudget`]. The plumbing is the same
//! [`ParallelOpts`] dispatch used by the hand-coded TPC-H pipelines
//! (e.g. [`crate::parallel::q6_parallel`]), so cancellation, deadlines,
//! and per-tenant budgets bind through DSL queries exactly as they do for
//! built-in queries.
//!
//! ## Determinism contract
//!
//! [`Workload::run`] executes the program as a **single task** on the
//! chosen executor: results are bit-identical across strategies,
//! executors, worker counts, and budgets — the executor only decides
//! where the task runs. [`Workload::run_partitioned`] additionally
//! splits the driving buffers into morsels and concatenates per-morsel
//! outputs **in morsel order**, so it too is worker-count independent;
//! it is only meaningful for chunk-local programs (each morsel sees its
//! own slice — programs that fold across the full input should use
//! [`Workload::run`]).
//!
//! ## Budget binding
//!
//! DSL programs do not spill yet. An attached budget (directly or via a
//! tenant's quota, see [`ParallelOpts::effective_budget`]) is bound as
//! **accounting**: the run charges its resident input bytes for its
//! duration so concurrent spillable operators sharing the budget observe
//! the pressure, and releases them afterwards. Charging is best-effort
//! and never changes results — an exhausted budget degrades the
//! accounting, not the query.
//!
//! [`Strategy::Interpret`]: adaptvm_vm::Strategy::Interpret
//! [`Strategy::CompiledPipeline`]: adaptvm_vm::Strategy::CompiledPipeline
//! [`Strategy::Adaptive`]: adaptvm_vm::Strategy::Adaptive
//! [`Scheduler`]: adaptvm_parallel::Scheduler
//! [`QueryService`]: adaptvm_parallel::QueryService
//! [`MemoryBudget`]: adaptvm_parallel::MemoryBudget

use std::collections::HashMap;

use adaptvm_dsl::ast::Program;
use adaptvm_dsl::normalize::normalize_program;
use adaptvm_dsl::parser::parse_program;
use adaptvm_dsl::typecheck::{check_program, TypeEnv};
use adaptvm_dsl::DslError;
use adaptvm_parallel::{run_vm, MemoryBudget, Morsel, MorselPlan, ParallelRunReport};
use adaptvm_storage::scalar::ScalarType;
use adaptvm_storage::Array;
use adaptvm_vm::{Buffers, Prepared, Vm, VmConfig, VmError};

use crate::parallel::ParallelOpts;

/// A compiled DSL workload: the original source, the normalized program,
/// and the buffer schema it was typechecked against.
#[derive(Debug, Clone)]
pub struct Workload {
    source: String,
    program: Program,
    schema: Vec<(String, ScalarType)>,
}

impl Workload {
    /// Compile DSL `source` against a buffer `schema` (every buffer the
    /// program reads or writes, with its element type).
    ///
    /// Pipeline: parse → typecheck → [`normalize_program`] → re-check the
    /// normalized form (normalization must preserve well-typedness; a
    /// failure here is a compiler bug surfaced as a typed error rather
    /// than a downstream panic).
    pub fn compile(source: &str, schema: &[(&str, ScalarType)]) -> Result<Workload, DslError> {
        let parsed = parse_program(source)?;
        let mut env = TypeEnv::new();
        for (name, ty) in schema {
            env = env.with_buffer(name, *ty);
        }
        check_program(&parsed, &env)?;
        let program = normalize_program(&parsed);
        check_program(&program, &env)?;
        Ok(Workload {
            source: source.to_string(),
            program,
            schema: schema.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        })
    }

    /// The DSL text this workload was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The normalized program (what actually runs).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The declared buffer schema.
    pub fn schema(&self) -> &[(String, ScalarType)] {
        &self.schema
    }

    /// Validate provided inputs against the compile-time schema. Every
    /// provided input must be declared with a matching element type;
    /// declared-but-absent names are treated as outputs (reading one
    /// surfaces the VM's typed [`VmError::UnknownBuffer`]).
    fn check(&self, inputs: &[(&str, Array)]) -> Result<(), VmError> {
        for (name, array) in inputs {
            match self.schema.iter().find(|(n, _)| n == name) {
                None => {
                    return Err(VmError::Shape(format!(
                        "input buffer {name} is not declared in the workload schema"
                    )))
                }
                Some((_, ty)) if *ty != array.scalar_type() => {
                    return Err(VmError::Shape(format!(
                        "input buffer {name} is {:?} but the schema declares {ty:?}",
                        array.scalar_type()
                    )))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Prepare the program once for a query over `inputs` (already
    /// validated by [`Workload::check`]); every task of the query runs
    /// the result by reference.
    fn prepare(&self, inputs: &[(&str, Array)]) -> Prepared {
        Vm::prepare(
            &self.program,
            inputs.iter().map(|(name, a)| (*name, a.scalar_type())),
        )
    }

    /// Run sequentially on a plain [`Vm`] with `config`. Returns the
    /// output buffers by name.
    pub fn run_seq(
        &self,
        inputs: &[(&str, Array)],
        config: VmConfig,
    ) -> Result<HashMap<String, Array>, VmError> {
        self.check(inputs)?;
        let vm = Vm::new(config);
        let (out, _report) = vm.run(&self.program, borrow(inputs, |a| (0, a.len())))?;
        Ok(out.into_outputs())
    }

    /// Run the whole program as a **single task** under the executor
    /// selected by `opts` (scoped pool / scheduler / service), with
    /// cancellation checked at the task boundary and any effective budget
    /// charged for the run's resident input bytes.
    ///
    /// Results are bit-identical to [`Workload::run_seq`] with the same
    /// `config` for every executor, worker count, and budget.
    pub fn run(
        &self,
        inputs: &[(&str, Array)],
        config: VmConfig,
        opts: ParallelOpts<'_>,
    ) -> Result<(HashMap<String, Array>, ParallelRunReport), VmError> {
        self.check(inputs)?;
        let buffers = borrow(inputs, |a| (0, a.len()));
        let resident: usize = inputs.iter().map(|(_, a)| a.byte_size()).sum();
        let charged = opts
            .effective_budget()
            .map(|b| (b, charge_up_to(b, resident)));
        let plan = MorselPlan::new(1, 1);
        let prepared = self.prepare(inputs);
        let make = |_m: &Morsel| (&prepared, buffers.clone());
        let result = {
            let _stage = opts.stage("workload");
            run_vm(opts.runner(), config, &plan, opts.cancel, make)
        };
        if let Some((budget, bytes)) = charged {
            budget.release(bytes);
        }
        let (mut outs, report) = result?;
        let out = outs
            .pop()
            .ok_or_else(|| VmError::Shape("workload run produced no task output".into()))?;
        Ok((out.into_outputs(), report))
    }

    /// Run a **chunk-local** program morsel-parallel over `rows` driving
    /// rows: every input array whose length equals `rows` is seen by each
    /// morsel as a window of the morsel's rows, shorter/longer arrays
    /// (parameters, dimension tables) whole, and per-morsel outputs are
    /// concatenated in morsel order — worker-count independent by
    /// construction. No input is copied.
    ///
    /// A program without an explicit chunk loop (`read 0 …`, no
    /// `loop`) processes only the **first chunk** of its morsel's
    /// slice, so such programs must run with `opts.morsel_rows ==
    /// config.chunk_size` (morsel = chunk) to cover every row; leaving
    /// `morsel_rows` elastic (0) makes the covered row set — and thus
    /// the output — depend on the scheduler's adaptive morsel sizing.
    /// Loop-shaped programs (see [`tpch::q6_program`]'s chunked-loop
    /// idiom) consume their whole slice at any morsel size.
    ///
    /// [`tpch::q6_program`]: crate::tpch::q6_program
    pub fn run_partitioned(
        &self,
        rows: usize,
        inputs: &[(&str, Array)],
        config: VmConfig,
        opts: ParallelOpts<'_>,
    ) -> Result<(HashMap<String, Array>, ParallelRunReport), VmError> {
        // Validate names/types once up front (same typed errors as `run`).
        self.check(inputs)?;
        let resident: usize = inputs.iter().map(|(_, a)| a.byte_size()).sum();
        let charged = opts
            .effective_budget()
            .map(|b| (b, charge_up_to(b, resident)));
        let plan = MorselPlan::chunk_aligned(rows, opts.effective_morsel_rows(), config.chunk_size);
        let prepared = self.prepare(inputs);
        let make = |m: &Morsel| {
            let buffers = borrow(inputs, |a| {
                if a.len() == rows {
                    (m.start, m.len)
                } else {
                    (0, a.len())
                }
            });
            (&prepared, buffers)
        };
        let result = {
            let _stage = opts.stage("workload");
            run_vm(opts.runner(), config, &plan, opts.cancel, make)
        };
        if let Some((budget, bytes)) = charged {
            budget.release(bytes);
        }
        let (outs, report) = result?;
        let mut merged: HashMap<String, Array> = HashMap::new();
        for (i, out) in outs.into_iter().enumerate() {
            for (name, array) in out.into_outputs() {
                match merged.entry(name) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(array);
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        e.get_mut().extend(&array).map_err(|err| {
                            VmError::Shape(format!(
                                "morsel {i} output {} cannot be merged: {err}",
                                e.key()
                            ))
                        })?;
                    }
                }
            }
        }
        Ok((merged, report))
    }
}

/// The VM buffers over `inputs`, each borrowed as the window
/// `window(array)` returns as `(start, len)`.
fn borrow<'i>(
    inputs: &'i [(&str, Array)],
    window: impl Fn(&Array) -> (usize, usize),
) -> Buffers<'i> {
    let mut buffers = Buffers::new();
    for (name, array) in inputs {
        let (start, len) = window(array);
        buffers.insert_window(name, array, start, len);
    }
    buffers
}

/// Charge as much of `bytes` as the budget will admit (halving on
/// rejection). Returns the amount actually charged; the caller must
/// `release` exactly that amount. Best-effort: accounting only, never an
/// error.
fn charge_up_to(budget: &MemoryBudget, bytes: usize) -> usize {
    let mut want = bytes.min(budget.remaining());
    while want > 0 {
        if budget.try_charge(want).is_ok() {
            return want;
        }
        want /= 2;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptvm_parallel::{CancelToken, Priority, QueryService, Scheduler, ServeConfig};
    use adaptvm_vm::Strategy;

    fn cfg(strategy: Strategy) -> VmConfig {
        VmConfig {
            strategy,
            ..VmConfig::default()
        }
    }

    const SRC: &str = "mut out\nwrite out 0 (fold sum 0 (map (\\x -> x * 2) (read 0 xs)))\n";

    fn schema() -> Vec<(&'static str, ScalarType)> {
        vec![("xs", ScalarType::I64), ("out", ScalarType::I64)]
    }

    fn xs() -> Array {
        Array::from((0i64..100).collect::<Vec<_>>())
    }

    #[test]
    fn compile_rejects_bad_programs() {
        assert!(matches!(
            Workload::compile("write out 0 (", &schema()),
            Err(DslError::Parse { .. })
        ));
        assert!(matches!(
            Workload::compile("mut out\nwrite out 0 (fold sum 0 nope)\n", &schema()),
            Err(DslError::Unbound(_))
        ));
        // Array-typed fold init: the concrete grammar cannot even express a
        // map arity mismatch (input atoms are counted off the lambda), so
        // this is the canonical text-level type error.
        assert!(matches!(
            Workload::compile(
                "mut out\nwrite out 0 (fold sum (read 0 xs) (read 0 xs))\n",
                &schema()
            ),
            Err(DslError::Type(_))
        ));
    }

    #[test]
    fn undeclared_or_mistyped_inputs_are_typed_errors() {
        let w = Workload::compile(SRC, &schema()).unwrap();
        let err = w.run_seq(&[("zs", xs())], VmConfig::default()).unwrap_err();
        assert!(matches!(err, VmError::Shape(_)), "{err}");
        let err = w
            .run_seq(&[("xs", Array::from(vec![1.0f64]))], VmConfig::default())
            .unwrap_err();
        assert!(matches!(err, VmError::Shape(_)), "{err}");
    }

    #[test]
    fn all_strategies_and_executors_agree() {
        let w = Workload::compile(SRC, &schema()).unwrap();
        let expected: i64 = (0i64..100).map(|x| x * 2).sum();
        let scheduler = Scheduler::new(4);
        let service = QueryService::new(ServeConfig::default());
        let budget = MemoryBudget::bytes(64);
        for strategy in [
            Strategy::Interpret,
            Strategy::CompiledPipeline,
            Strategy::Adaptive,
        ] {
            let seq = w.run_seq(&[("xs", xs())], cfg(strategy)).unwrap();
            assert_eq!(seq["out"], Array::from(vec![expected]));
            for workers in [1usize, 4] {
                let base = ParallelOpts {
                    workers,
                    ..ParallelOpts::default()
                };
                let variants: Vec<ParallelOpts<'_>> = vec![
                    base,
                    base.with_scheduler(&scheduler),
                    base.with_service(&service, Priority::Normal),
                    base.with_budget(&budget),
                ];
                for opts in variants {
                    let (out, _) = w.run(&[("xs", xs())], cfg(strategy), opts).unwrap();
                    assert_eq!(out["out"], Array::from(vec![expected]));
                }
            }
        }
        assert_eq!(budget.used(), 0, "budget charges must be released");
    }

    #[test]
    fn partitioned_concatenates_in_morsel_order() {
        // Chunk-local program: per-morsel doubled copy of the slice.
        let src = "mut out\nwrite out 0 (map (\\x -> x * 2) (read 0 xs))\n";
        let w = Workload::compile(src, &schema()).unwrap();
        let expected: Vec<i64> = (0i64..1000).map(|x| x * 2).collect();
        let data = Array::from((0i64..1000).collect::<Vec<_>>());
        for workers in [1usize, 2, 4, 8] {
            let opts = ParallelOpts {
                workers,
                morsel_rows: 128,
                ..ParallelOpts::default()
            };
            let (out, _) = w
                .run_partitioned(1000, &[("xs", data.clone())], cfg(Strategy::Adaptive), opts)
                .unwrap();
            assert_eq!(out["out"], Array::from(expected.clone()));
        }
    }

    #[test]
    fn cancellation_binds_through_dsl_runs() {
        let w = Workload::compile(SRC, &schema()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let opts = ParallelOpts {
            workers: 2,
            ..ParallelOpts::default()
        }
        .with_cancel(&token);
        let err = w
            .run(&[("xs", xs())], cfg(Strategy::Interpret), opts)
            .unwrap_err();
        assert!(matches!(err, VmError::Cancelled));
    }
}
