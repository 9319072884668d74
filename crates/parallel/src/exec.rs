//! Morsel-parallel execution of DSL programs on the adaptive VM.
//!
//! [`ParallelVm`] runs one program instance per morsel, each on its own
//! [`adaptvm_vm::Env`]/interpreter (workers share **no** mutable query
//! state), while three things are deliberately shared across the whole run:
//!
//! * the **prepared program** ([`adaptvm_vm::Prepared`]): the caller
//!   prepares each distinct program of the query once and every morsel runs
//!   it by reference — including its write-once *hot plan*: the first
//!   morsel to get hot partitions and compiles, every other morsel adopts
//!   the published plan and runs traced from its next chunk (also counted
//!   under `trace_cache_hits`),
//! * the **JIT code cache** ([`adaptvm_jit::CodeCache`]): the first worker
//!   to hit a hot fragment compiles it; every later morsel — on any
//!   worker — injects the cached trace without paying the compile cost
//!   (visible as `trace_cache_hits` in the report),
//! * the **profile**: per-morsel [`Profile`]s are merged in morsel order,
//!   so §III's adaptive decisions see the combined signal of all workers
//!   (many workers feeding one profile sharpens hot-path detection).
//!
//! Results are merged in morsel order, which makes a parallel run's
//! output independent of worker count and scheduling; see the crate docs
//! for the determinism argument.

use std::sync::Arc;

use adaptvm_jit::cache::CacheStats;
use adaptvm_jit::CodeCache;
use adaptvm_vm::{Buffers, Prepared, Profile, RunReport, Vm, VmConfig, VmError};

use crate::dispatch::DispatchStats;
use crate::morsel::{Morsel, MorselPlan};
use crate::pool::run_morsels_with;
use crate::scheduler::{CancelToken, ProfileWindow, RunError, Scheduler};

/// Fold the runner-level error into a [`VmError`]: task errors pass
/// through, cancellation/deadline/rejection become [`VmError::Cancelled`].
fn vm_run_err(e: RunError<VmError>) -> VmError {
    match e {
        RunError::Task(e) => e,
        RunError::Cancelled | RunError::DeadlineExceeded | RunError::Rejected(_) => {
            VmError::Cancelled
        }
    }
}

/// Capacity of the auto-installed shared code cache. Generously sized:
/// a query pipeline yields a handful of fragments; 256 holds many queries'
/// worth of specialized traces.
const SHARED_CACHE_CAPACITY: usize = 256;

/// What one parallel run did, aggregated over all morsels.
#[derive(Debug, Clone, Default)]
pub struct ParallelRunReport {
    /// Worker threads used.
    pub workers: usize,
    /// Morsels executed.
    pub morsels: usize,
    /// Merged run profile (all workers' signal combined).
    pub profile: Profile,
    /// Total chunk-loop iterations across morsels.
    pub iterations: u64,
    /// Traces injected into morsel plans (fresh compiles *and* shared-
    /// cache hits; the hits alone are `trace_cache_hits`).
    pub injected_traces: usize,
    /// Traces injected straight from the shared cache (no compile paid).
    pub trace_cache_hits: u64,
    /// Total modeled compile cost (ns) actually paid (cache hits cost 0).
    pub compile_ns_total: u64,
    /// Trace-step executions across morsels.
    pub trace_executions: u64,
    /// Always 0. Frozen compatibility field: the `benchmark/` crate still
    /// reads it; nothing in the engine writes it.
    #[doc(hidden)]
    pub native_trace_executions: u64,
    /// Interpretation fallbacks across morsels.
    pub fallbacks: u64,
    /// Morsels stolen across worker queues.
    pub steals: u64,
    /// Morsels executed per worker.
    pub per_worker_morsels: Vec<u64>,
    /// Shared-cache statistics at the end of the run.
    pub cache_stats: CacheStats,
    /// Wall-clock nanoseconds for the whole parallel run.
    pub wall_ns: u64,
}

/// A morsel-driven parallel VM: `workers` threads, one shared JIT.
pub struct ParallelVm {
    workers: usize,
    config: VmConfig,
    cache: Arc<CodeCache>,
}

impl ParallelVm {
    /// A parallel VM with `workers` threads over `config`. When the config
    /// carries no code cache, a shared one is installed — every worker
    /// compiles into / injects from the same cache.
    pub fn new(workers: usize, mut config: VmConfig) -> ParallelVm {
        let cache = match &config.code_cache {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(CodeCache::new(SHARED_CACHE_CAPACITY));
                config.code_cache = Some(c.clone());
                c
            }
        };
        ParallelVm {
            workers: workers.max(1),
            config,
            cache,
        }
    }

    /// The shared code cache (inspect its stats, or pass the same cache to
    /// several `ParallelVm`s to share traces across queries).
    pub fn cache(&self) -> &Arc<CodeCache> {
        &self.cache
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The per-worker VM configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Run one program instance per morsel of the plan: `make(morsel)`
    /// hands out the morsel's input buffers and the [`Prepared`] program to
    /// run over them (prepared once per distinct program by the caller —
    /// [`Vm::prepare`] — so morsels share it and its hot plan). Returns
    /// per-morsel output buffers **in morsel order** plus the aggregated
    /// report. The caller merges outputs (ordered reduction) — see
    /// `adaptvm_relational::parallel` for complete pipelines.
    pub fn run_morsels<'p, F>(
        &self,
        plan: &MorselPlan,
        make: F,
    ) -> Result<(Vec<Buffers>, ParallelRunReport), VmError>
    where
        F: Fn(&Morsel) -> (&'p Prepared, Buffers) + Sync,
    {
        self.run_morsels_with(plan, None, make)
    }

    /// [`ParallelVm::run_morsels`] with a cooperative [`CancelToken`]
    /// checked before every morsel: on cancellation/deadline the run
    /// aborts with [`VmError::Cancelled`].
    pub fn run_morsels_with<'p, F>(
        &self,
        plan: &MorselPlan,
        cancel: Option<&CancelToken>,
        make: F,
    ) -> Result<(Vec<Buffers>, ParallelRunReport), VmError>
    where
        F: Fn(&Morsel) -> (&'p Prepared, Buffers) + Sync,
    {
        let wall = std::time::Instant::now();
        let vm = Vm::new(self.config.clone());
        let (outcomes, dispatch) = run_morsels_with(self.workers, plan, cancel, |_w, m| {
            let (prepared, buffers) = make(m);
            run_morsel(&vm, prepared, buffers)
        })
        .map_err(vm_run_err)?;
        Ok(assemble_report(
            outcomes,
            dispatch,
            self.workers,
            plan.len(),
            &self.cache,
            wall,
        ))
    }

    /// Bind this VM to a long-lived [`Scheduler`]: the returned
    /// [`ScheduledVm`] runs the same morsel pipelines on the scheduler's
    /// parked workers instead of spawning scoped threads, and swaps the
    /// VM's JIT world for the scheduler's — the shared code cache (traces
    /// survive across queries) and, for `async_compile` configs, the
    /// shared background [`adaptvm_jit::CompileServer`]. Results are
    /// unchanged (same per-morsel programs, same morsel-ordered merge);
    /// only where the work runs and where traces live differ.
    pub fn on<'a>(&'a self, scheduler: &'a Scheduler) -> ScheduledVm<'a> {
        ScheduledVm {
            vm: self,
            scheduler,
        }
    }
}

/// A [`ParallelVm`] bound to a [`Scheduler`] (see [`ParallelVm::on`]).
pub struct ScheduledVm<'a> {
    vm: &'a ParallelVm,
    scheduler: &'a Scheduler,
}

impl ScheduledVm<'_> {
    /// The scheduler this VM runs on.
    pub fn scheduler(&self) -> &Scheduler {
        self.scheduler
    }

    /// The scheduler flavor of [`ParallelVm::run_morsels`]: identical
    /// outputs, but executed by the long-lived pool, with traces compiled
    /// into the scheduler's shared cache (repeated fragments — later
    /// morsels, later queries — surface as `trace_cache_hits`). After the
    /// run, the merged profile window feeds the scheduler's morsel
    /// elasticity.
    pub fn run_morsels<'p, F>(
        &self,
        plan: &MorselPlan,
        make: F,
    ) -> Result<(Vec<Buffers>, ParallelRunReport), VmError>
    where
        F: Fn(&Morsel) -> (&'p Prepared, Buffers) + Send + Sync,
    {
        self.run_morsels_with(plan, None, make)
    }

    /// [`ScheduledVm::run_morsels`] with a cooperative [`CancelToken`]
    /// checked at every morsel boundary by the scheduler's workers:
    /// cancellation, deadline, or a shut-down pool abort the run with
    /// [`VmError::Cancelled`] — other queries on the scheduler are
    /// untouched.
    pub fn run_morsels_with<'p, F>(
        &self,
        plan: &MorselPlan,
        cancel: Option<&CancelToken>,
        make: F,
    ) -> Result<(Vec<Buffers>, ParallelRunReport), VmError>
    where
        F: Fn(&Morsel) -> (&'p Prepared, Buffers) + Send + Sync,
    {
        let wall = std::time::Instant::now();
        let mut config = self.vm.config().clone();
        config.code_cache = Some(self.scheduler.cache().clone());
        if config.async_compile && config.compile_server.is_none() {
            config.compile_server = Some(self.scheduler.compile_server().clone());
        }
        let vm = Vm::new(config);
        let (outcomes, dispatch) = self
            .scheduler
            .run_with(plan, cancel, |_w, m| {
                let (prepared, buffers) = make(m);
                run_morsel(&vm, prepared, buffers)
            })
            .map_err(vm_run_err)?;
        let (buffers, report) = assemble_report(
            outcomes,
            dispatch,
            self.scheduler.workers(),
            plan.len(),
            self.scheduler.cache(),
            wall,
        );
        self.scheduler.observe_window(&ProfileWindow {
            morsels: report.morsels,
            steals: report.steals,
            trace_executions: report.trace_executions,
            fallbacks: report.fallbacks,
        });
        Ok((buffers, report))
    }
}

/// One morsel's run. Its input slices are released here, on the worker, as
/// soon as the run ends — not held until the whole query has merged: the
/// next morsel's slices then reuse the same (cache-warm) memory instead of
/// the query cycling through a table-sized allocation.
fn run_morsel(
    vm: &Vm,
    prepared: &Prepared,
    buffers: Buffers,
) -> Result<(Buffers, RunReport), VmError> {
    let (out, report) = vm.run_prepared(prepared, buffers)?;
    Ok((out.without_inputs(), report))
}

/// Fold per-morsel `(Buffers, RunReport)` outcomes into the aggregate
/// parallel report (shared by the scoped and scheduled paths).
fn assemble_report(
    outcomes: Vec<(Buffers, RunReport)>,
    dispatch: DispatchStats,
    workers: usize,
    morsels: usize,
    cache: &CodeCache,
    wall: std::time::Instant,
) -> (Vec<Buffers>, ParallelRunReport) {
    let mut report = ParallelRunReport {
        workers,
        morsels,
        ..ParallelRunReport::default()
    };
    let mut buffers = Vec::with_capacity(outcomes.len());
    for (out, run) in outcomes {
        buffers.push(out);
        report.profile.merge(&run.profile);
        report.iterations += run.iterations;
        report.injected_traces += run.injected_traces;
        report.trace_cache_hits += run.trace_cache_hits;
        report.compile_ns_total += run.compile_ns_total;
        report.trace_executions += run.trace_executions;
        report.fallbacks += run.fallbacks;
    }
    report.steals = dispatch.steals;
    report.per_worker_morsels = dispatch.executed;
    report.cache_stats = cache.stats();
    report.wall_ns = wall.elapsed().as_nanos() as u64;
    (buffers, report)
}

impl ParallelRunReport {
    /// The dispatch view of this run.
    pub fn dispatch_stats(&self) -> DispatchStats {
        DispatchStats {
            executed: self.per_worker_morsels.clone(),
            steals: self.steals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptvm_dsl::programs;
    use adaptvm_storage::{Array, ScalarType};
    use adaptvm_vm::Strategy;
    use std::collections::HashMap;

    /// Fig. 2 prepared once per distinct morsel length of the plan (the
    /// length is the program's loop bound).
    fn fig2_prepared(plan: &MorselPlan) -> HashMap<usize, Prepared> {
        let mut prepared = HashMap::new();
        for m in plan.morsels() {
            prepared.entry(m.len).or_insert_with(|| {
                Vm::prepare(
                    &programs::fig2_with_limit(m.len as i64),
                    [("some_data", ScalarType::I64)],
                )
            });
        }
        prepared
    }

    /// Fig. 2 over a morsel: double every element, keep positives.
    fn fig2_task<'p>(
        prepared: &'p HashMap<usize, Prepared>,
        data: &[i64],
        m: &Morsel,
    ) -> (&'p Prepared, Buffers) {
        let slice: Vec<i64> = data[m.start..m.end()].to_vec();
        (
            &prepared[&m.len],
            Buffers::new().with_input("some_data", Array::from(slice)),
        )
    }

    fn reference_v(data: &[i64]) -> Vec<i64> {
        data.iter().map(|&x| 2 * x).collect()
    }

    #[test]
    fn parallel_outputs_merge_in_morsel_order() {
        let data: Vec<i64> = (0..40_000).map(|i| (i % 11) - 5).collect();
        let plan = MorselPlan::new(data.len(), 4096);
        let fig2 = fig2_prepared(&plan);
        for workers in [1, 2, 4] {
            let pvm = ParallelVm::new(
                workers,
                VmConfig {
                    strategy: Strategy::Interpret,
                    ..VmConfig::default()
                },
            );
            let (outs, report) = pvm
                .run_morsels(&plan, |m| fig2_task(&fig2, &data, m))
                .unwrap();
            let mut v = Vec::new();
            for out in &outs {
                v.extend(out.output("v").unwrap().to_i64_vec().unwrap());
            }
            assert_eq!(v, reference_v(&data), "workers={workers}");
            assert_eq!(report.morsels, plan.len());
            assert_eq!(
                report.per_worker_morsels.iter().sum::<u64>(),
                plan.len() as u64
            );
        }
    }

    #[test]
    fn a_morsels_inputs_are_released_with_its_run() {
        let data: Vec<i64> = (0..8192).collect();
        let plan = MorselPlan::new(data.len(), 4096);
        let fig2 = fig2_prepared(&plan);
        let pvm = ParallelVm::new(2, VmConfig::default());
        let (outs, _) = pvm
            .run_morsels(&plan, |m| fig2_task(&fig2, &data, m))
            .unwrap();
        for out in &outs {
            assert_eq!(out.output("v").unwrap().len(), 4096);
            assert!(out.buffer("some_data").is_err(), "input slice retained");
        }
    }

    #[test]
    fn shared_cache_compiles_once_per_fragment() {
        let data: Vec<i64> = (0..131_072).map(|i| (i % 11) - 5).collect();
        // Equal-size morsels → identical programs → identical fragment
        // fingerprints: only the first morsel's regions compile.
        let plan = MorselPlan::new(data.len(), 16_384);
        let fig2 = fig2_prepared(&plan);
        let pvm = ParallelVm::new(
            4,
            VmConfig {
                strategy: Strategy::CompiledPipeline,
                ..VmConfig::default()
            },
        );
        let (_, report) = pvm
            .run_morsels(&plan, |m| fig2_task(&fig2, &data, m))
            .unwrap();
        assert_eq!(plan.len(), 8);
        assert!(
            report.trace_cache_hits >= 1,
            "later morsels must hit the shared cache: {report:?}"
        );
        // Every morsel injects one trace; hits are the subset of those
        // injections that paid no compile.
        assert_eq!(
            report.injected_traces,
            plan.len(),
            "every morsel injects a trace: {report:?}"
        );
        assert!(
            (report.trace_cache_hits as usize) < plan.len(),
            "the first morsel's compile is never a hit: {report:?}"
        );
        // The profile merged signal from every morsel.
        assert_eq!(report.iterations as usize, plan.len() * (16_384 / 1024));
    }

    #[test]
    fn adaptive_strategy_profiles_across_workers() {
        let data: Vec<i64> = (0..65_536).map(|i| (i % 7) - 3).collect();
        let plan = MorselPlan::new(data.len(), 16_384);
        let fig2 = fig2_prepared(&plan);
        let pvm = ParallelVm::new(
            2,
            VmConfig {
                strategy: Strategy::Adaptive,
                hot_threshold: 4,
                ..VmConfig::default()
            },
        );
        let (outs, report) = pvm
            .run_morsels(&plan, |m| fig2_task(&fig2, &data, m))
            .unwrap();
        let total: usize = outs.iter().map(|o| o.output("v").unwrap().len()).sum();
        assert_eq!(total, data.len());
        // Each morsel crossed the hot threshold (16 chunks > 4), so traces
        // were injected, and the merged profile saw every morsel's loop.
        assert!(report.injected_traces > 0);
        assert_eq!(report.iterations, 64);
        assert!(report.profile.iterations == 64);
    }
}
