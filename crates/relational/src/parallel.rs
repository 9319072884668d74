//! Morsel-parallel relational pipelines.
//!
//! Every pipeline here follows the same shape: slice the table into a
//! [`MorselPlan`], run the per-morsel stage on the work-stealing pool
//! ([`adaptvm_parallel`]), and merge the per-morsel results **in morsel
//! order**. The ordered merge is what makes parallel results independent
//! of worker count — and, wherever the sequential implementation already
//! folds per chunk (`q1_vectorized`, [`crate::ops::filter_project_sum`],
//! Q6 through the VM), chunk-aligned morsels make the parallel result
//! **bit-identical to the single-threaded one**, because both sides add
//! the same per-chunk partials in the same order.
//!
//! Exactness ladder (strongest first):
//! * [`q1_parallel_adaptive`], [`q3_parallel`] — integer fixed-point
//!   accumulators: bit-identical to their sequential counterparts
//!   ([`tpch::q1_adaptive`], [`tpch::q3_hash`]) for *any* split,
//! * [`q1_parallel_vectorized`], [`parallel_filter_project_sum`],
//!   [`q6_parallel`] — bit-identical to their sequential counterparts via
//!   per-chunk partials merged in global chunk order,
//! * [`parallel_hash_join`], [`parallel_build_hash_table`] — the
//!   partitioned build merges per-morsel [`JoinPartition`]s in morsel
//!   order, so the shared table and the morsel-ordered probe output are
//!   observably identical to a sequential build + probe (exact: integer
//!   payloads only),
//! * [`q1_parallel_fused`] — deterministic (worker-count independent)
//!   per-morsel merge; equal to the sequential fold up to floating-point
//!   associativity.
//!
//! ## Parallel joins
//!
//! Joins follow the **partitioned build, shared probe** pattern of
//! [`adaptvm_parallel::join`]: each worker hashes its build-side morsels
//! into private [`JoinPartition`]s, the partitions merge (morsel order)
//! into one read-only [`HashTable`], and probe-side morsels then probe it
//! concurrently. [`ParallelJoinChain`] extends this to the §III-C adaptive
//! join chain: every batch is probed morsel-parallel under one order
//! snapshot, per-join selectivity observations are merged across morsels,
//! and only then does the reorder controller see them — one coherent
//! observation per join per batch, scheduling-independent results.

use std::borrow::Cow;
use std::convert::Infallible;

use adaptvm_dsl::ast::ScalarOp;
use adaptvm_kernels::hash::WordMap;
use adaptvm_kernels::{FilterFlavor, MapMode};
use adaptvm_parallel::{
    build_then_probe, run_vm, BuildProbeStats, CancelToken, MemoryBudget, Morsel, MorselPlan,
    ParallelRunReport, Priority, QueryService, RunError, Runner, Scheduler, TenantId, Trace,
};
use adaptvm_storage::scalar::Scalar;
use adaptvm_storage::schema::Table;
use adaptvm_storage::Array;
use adaptvm_vm::reorder::ReorderController;
use adaptvm_vm::{Vm, VmConfig, VmError};

use crate::agg::GroupState;
use crate::join::{
    probe_chunk_with_order_mixed, validate_mixed_columns, ChainResult, HashTable, JoinKey,
    JoinPartition, JoinSide, KeyColumn, StrHashTable,
};
use crate::ops::{self, DenseScan, OpResult};
use crate::tpch::{self, CompactLineitem, JoinStrategy, Q1Row, Q1_GROUPS};

/// How to run a parallel pipeline: worker threads, morsel size, and an
/// optional executor — a long-lived [`Scheduler`], or an
/// admission-controlled [`QueryService`] with a [`Priority`] class.
///
/// With neither attached every pipeline spawns a scoped per-run pool of
/// `workers` threads (the original behavior). With a scheduler attached
/// (see [`ParallelOpts::on`]) the same pipeline is queued on the shared,
/// parked worker set instead — `workers` is then ignored in favor of the
/// pool's size. With a *service* attached (see [`ParallelOpts::served`])
/// the pipeline additionally passes admission control (bounded priority
/// queues, weighted-fair dispatch) before running on the service's
/// scheduler. Results are **identical** on every executor (all of them
/// merge in morsel order) — the executor only decides where and when the
/// work runs. `morsel_rows = 0` defers to the scheduler's
/// elasticity-preferred size (or [`adaptvm_parallel::DEFAULT_MORSEL_ROWS`]
/// without one).
///
/// An attached [`CancelToken`] (see [`ParallelOpts::with_cancel`]) is
/// checked at every morsel boundary on any executor: cancellation or a
/// deadline surfaces as [`adaptvm_kernels::KernelError::Cancelled`] (or
/// [`VmError::Cancelled`] from the VM pipelines), aborting only this
/// pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ParallelOpts<'a> {
    /// Worker threads (clamped to ≥ 1; 1 = inline sequential execution).
    /// Ignored when `scheduler` or `service` is set (the pool's size
    /// wins).
    pub workers: usize,
    /// Rows per morsel (aligned up to the chunk size where it matters);
    /// 0 = let the scheduler's elasticity controller pick.
    pub morsel_rows: usize,
    /// Execute on this long-lived scheduler instead of scoped threads.
    pub scheduler: Option<&'a Scheduler>,
    /// Execute through this admission-controlled service (wins over
    /// `scheduler` when both are set).
    pub service: Option<&'a QueryService>,
    /// Priority class for service admission (ignored without `service`).
    pub priority: Priority,
    /// Tenant the pipeline is attributed to (ignored without `service`;
    /// `None` = anonymous). Tenancy gates *when* the pipeline is admitted
    /// and dispatched, never how it runs — results are bit-identical to
    /// an anonymous submission.
    pub tenant: Option<TenantId>,
    /// Cooperative cancellation, checked at morsel boundaries.
    pub cancel: Option<&'a CancelToken>,
    /// Byte budget the out-of-core joins ([`crate::spill`]) charge for
    /// resident build partitions — partitions that do not fit spill to
    /// disk. `None` = unlimited (nothing spills). Ignored by the purely
    /// in-memory pipelines. When unset and `tenant` is set, the spill
    /// pipelines fall back to the tenant's registered budget — see
    /// [`ParallelOpts::effective_budget`].
    pub memory_budget: Option<&'a MemoryBudget>,
    /// Record this pipeline's execution into a query trace (see
    /// [`adaptvm_parallel::obs`]): every morsel, JIT, spill, budget, and
    /// scratch event it produces lands in the trace's per-worker rings,
    /// ready to merge into an [`adaptvm_parallel::QueryProfile`]. `None`
    /// (the default) leaves tracing off — event sites then cost one
    /// relaxed atomic load. Tracing never changes results: traced runs
    /// are bit-identical to untraced ones.
    pub trace: Option<&'a Trace>,
}

impl Default for ParallelOpts<'_> {
    fn default() -> ParallelOpts<'static> {
        ParallelOpts {
            workers: 4,
            morsel_rows: adaptvm_parallel::DEFAULT_MORSEL_ROWS,
            scheduler: None,
            service: None,
            priority: Priority::Normal,
            tenant: None,
            cancel: None,
            memory_budget: None,
            trace: None,
        }
    }
}

impl<'a> ParallelOpts<'a> {
    /// Scoped-pool options: `workers` threads, `morsel_rows` per morsel.
    pub fn new(workers: usize, morsel_rows: usize) -> ParallelOpts<'a> {
        ParallelOpts {
            workers,
            morsel_rows,
            ..ParallelOpts::default()
        }
    }

    /// Options for running on a long-lived scheduler, at its worker count
    /// and its current elasticity-preferred morsel size.
    pub fn on(scheduler: &'a Scheduler) -> ParallelOpts<'a> {
        ParallelOpts {
            workers: scheduler.workers(),
            morsel_rows: 0,
            scheduler: Some(scheduler),
            ..ParallelOpts::default()
        }
    }

    /// Options for running through an admission-controlled service at
    /// `priority`, at the service scheduler's worker count and elastic
    /// morsel size.
    pub fn served(service: &'a QueryService, priority: Priority) -> ParallelOpts<'a> {
        ParallelOpts {
            workers: service.scheduler().workers(),
            morsel_rows: 0,
            service: Some(service),
            priority,
            ..ParallelOpts::default()
        }
    }

    /// Attach a scheduler to existing options (keeps `morsel_rows`).
    pub fn with_scheduler(mut self, scheduler: &'a Scheduler) -> ParallelOpts<'a> {
        self.workers = scheduler.workers();
        self.scheduler = Some(scheduler);
        self
    }

    /// Attach a service to existing options (keeps `morsel_rows`).
    pub fn with_service(
        mut self,
        service: &'a QueryService,
        priority: Priority,
    ) -> ParallelOpts<'a> {
        self.workers = service.scheduler().workers();
        self.service = Some(service);
        self.priority = priority;
        self
    }

    /// Attach a cancel token to existing options.
    pub fn with_cancel(mut self, cancel: &'a CancelToken) -> ParallelOpts<'a> {
        self.cancel = Some(cancel);
        self
    }

    /// Attach a memory budget governing the out-of-core joins.
    pub fn with_budget(mut self, budget: &'a MemoryBudget) -> ParallelOpts<'a> {
        self.memory_budget = Some(budget);
        self
    }

    /// Attribute the pipeline to a tenant registered with the attached
    /// service. Admission then counts against the tenant's quotas, and
    /// the spill pipelines pick up the tenant's memory budget when no
    /// explicit one is set.
    pub fn with_tenant(mut self, tenant: TenantId) -> ParallelOpts<'a> {
        self.tenant = Some(tenant);
        self
    }

    /// Record this pipeline's execution into `trace`; see
    /// [`ParallelOpts::trace`].
    pub fn with_trace(mut self, trace: &'a Trace) -> ParallelOpts<'a> {
        self.trace = Some(trace);
        self
    }

    /// Enter the attached trace (if any) under `stage`. Pipelines hold
    /// the returned guard for their whole run: workers inherit the scope
    /// when the run is dispatched, so their events carry this label.
    pub(crate) fn stage(&self, stage: &'static str) -> Option<adaptvm_parallel::obs::ScopeGuard> {
        self.trace.map(|t| t.enter_stage(stage))
    }

    /// The memory budget the out-of-core pipelines actually charge: an
    /// explicit [`ParallelOpts::with_budget`] wins; otherwise a
    /// tenant-attributed pipeline uses the tenant's registered budget;
    /// otherwise `None` (unlimited).
    pub fn effective_budget(&self) -> Option<&'a MemoryBudget> {
        if self.memory_budget.is_some() {
            return self.memory_budget;
        }
        match (self.service, self.tenant) {
            (Some(service), Some(id)) => service.tenants().budget(id),
            _ => None,
        }
    }

    /// The executor these options select.
    pub fn runner(&self) -> Runner<'a> {
        match (self.service, self.scheduler) {
            (Some(service), _) => Runner::Service {
                service,
                priority: self.priority,
                tenant: self.tenant,
            },
            (None, Some(s)) => Runner::Scheduler(s),
            (None, None) => Runner::Scoped {
                workers: self.workers,
            },
        }
    }

    /// Worker threads the selected executor actually runs on.
    pub fn effective_workers(&self) -> usize {
        self.runner().workers()
    }

    /// Morsel size with the `0 = elastic` sentinel resolved: the selected
    /// executor's scheduler's elastic size, or
    /// [`adaptvm_parallel::DEFAULT_MORSEL_ROWS`] on a scoped pool.
    pub fn effective_morsel_rows(&self) -> usize {
        if self.morsel_rows > 0 {
            return self.morsel_rows;
        }
        self.runner().scheduler().map_or(
            adaptvm_parallel::DEFAULT_MORSEL_ROWS,
            Scheduler::morsel_rows,
        )
    }
}

/// Fold a runner-level error into the kernel error the pipelines speak:
/// task errors pass through; cancellation, deadline, and admission
/// rejection become [`adaptvm_kernels::KernelError::Cancelled`].
pub(crate) fn kernel_run_err(
    e: RunError<adaptvm_kernels::KernelError>,
) -> adaptvm_kernels::KernelError {
    match e {
        RunError::Task(e) => e,
        RunError::Cancelled | RunError::DeadlineExceeded | RunError::Rejected(_) => {
            adaptvm_kernels::KernelError::Cancelled
        }
    }
}

/// Same fold for pipelines whose per-morsel stage cannot fail.
fn infallible_run_err(e: RunError<Infallible>) -> adaptvm_kernels::KernelError {
    match e {
        RunError::Task(e) => match e {},
        RunError::Cancelled | RunError::DeadlineExceeded | RunError::Rejected(_) => {
            adaptvm_kernels::KernelError::Cancelled
        }
    }
}

/// Run a per-morsel stage over a table and return the per-morsel results
/// in morsel order — the generic scan→…→merge driver every concrete
/// pipeline below builds on.
pub fn parallel_pipeline<T, F>(table: &Table, opts: ParallelOpts<'_>, stage: F) -> OpResult<Vec<T>>
where
    T: Send,
    F: Fn(&Morsel) -> OpResult<T> + Send + Sync,
{
    let _stage = opts.stage("scan");
    let plan = MorselPlan::new(table.rows(), opts.effective_morsel_rows());
    opts.runner()
        .run(&plan, opts.cancel, |_, m| stage(m))
        .map(|(v, _)| v)
        .map_err(kernel_run_err)
}

/// Morsel-parallel select→project→sum (the parallel version of
/// [`ops::filter_project_sum`]): filter `filter_col > threshold`, compute
/// `2 · value_col` over survivors, sum. Per-chunk sums are merged in
/// global chunk order, so the result is bit-identical to the sequential
/// pipeline at the same `chunk_rows`.
#[allow(clippy::too_many_arguments)]
pub fn parallel_filter_project_sum(
    table: &Table,
    filter_col: &str,
    threshold: i64,
    value_col: &str,
    chunk_rows: usize,
    flavor: FilterFlavor,
    mode: MapMode,
    opts: ParallelOpts<'_>,
) -> OpResult<(f64, usize)> {
    let _stage = opts.stage("filter-project-sum");
    let chunk_rows = chunk_rows.max(1);
    let plan = MorselPlan::chunk_aligned(table.rows(), opts.effective_morsel_rows(), chunk_rows);
    let run = opts.runner().run(&plan, opts.cancel, |_, m| {
        // Slice only the columns the pipeline reads, not the whole table.
        let slice = project_slice(table, &[filter_col, value_col], m)?;
        let scan = DenseScan::new(&slice, &[filter_col, value_col], chunk_rows)?;
        let mut parts: Vec<(f64, usize)> = Vec::new();
        for mut chunk in scan {
            ops::select_cmp(&mut chunk, 0, ScalarOp::Gt, Scalar::I64(threshold), flavor)?;
            let doubled = ops::project_binary(
                &mut chunk,
                ScalarOp::Mul,
                1,
                None,
                Some(Scalar::I64(2)),
                mode,
            )?;
            parts.push((ops::sum_f64(&chunk, doubled)?, ops::count(&chunk)));
        }
        Ok::<_, adaptvm_kernels::KernelError>(parts)
    });
    let (per_morsel, _) = run.map_err(kernel_run_err)?;
    // Final merge: fold per-chunk sums in global chunk order.
    let mut total = 0.0;
    let mut rows = 0;
    for parts in per_morsel {
        for (s, c) in parts {
            total += s;
            rows += c;
        }
    }
    Ok((total, rows))
}

/// Extract equal-length build key and integer payload columns (the
/// shared precondition of every partitioned build entry point). Utf8 keys
/// are borrowed, integer keys widened to `i64`.
pub(crate) fn build_rows<'a, K: JoinKey>(
    keys: &'a Array,
    payloads: &Array,
) -> OpResult<(Cow<'a, [K]>, Vec<i64>)> {
    let precondition = adaptvm_kernels::KernelError::Precondition;
    let k = K::column(keys)
        .ok_or_else(|| precondition(format!("join build keys must be {}", K::COLUMN)))?;
    let p = payloads
        .to_i64_vec()
        .ok_or_else(|| precondition("join build payloads must be integer".into()))?;
    if k.len() != p.len() {
        return Err(precondition(format!(
            "build keys and payloads must have equal lengths ({} vs {})",
            k.len(),
            p.len()
        )));
    }
    Ok((k, p))
}

/// Morsel-parallel partitioned hash-table build: every worker hashes its
/// build-side morsels into private [`JoinPartition`]s, merged — in morsel
/// order — into one shared, read-only [`HashTable`]. Observably identical
/// to a sequential [`HashTable::build`] over the same columns (duplicate
/// keys keep every payload, in global build-row order), for any worker
/// count and morsel size.
pub fn parallel_build_hash_table(
    keys: &Array,
    payloads: &Array,
    bloom: bool,
    opts: ParallelOpts<'_>,
) -> OpResult<HashTable> {
    let _stage = opts.stage("build");
    let (k, p) = build_rows::<i64>(keys, payloads)?;
    let plan = MorselPlan::new(k.len(), opts.effective_morsel_rows());
    let run = opts.runner().run(&plan, opts.cancel, |_, m| {
        Ok::<_, Infallible>(JoinPartition::from_rows(
            &k[m.start..m.end()],
            &p[m.start..m.end()],
        ))
    });
    let (partitions, _) = run.map_err(infallible_run_err)?;
    Ok(bloomed(HashTable::from_partitions(partitions), bloom))
}

/// Attach a Bloom pre-filter to `table` iff `bloom`.
pub(crate) fn bloomed<K: JoinKey>(table: HashTable<K>, bloom: bool) -> HashTable<K> {
    if bloom {
        table.with_bloom()
    } else {
        table
    }
}

/// A materialized morsel-parallel hash join: probe indices (global row
/// numbers, one per build match) and the matching payloads, merged in
/// morsel order — identical to [`HashTable::probe`] over the whole probe
/// column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelJoinOutput {
    /// Probe-side row numbers, one per build match, ascending.
    pub indices: Vec<u32>,
    /// The matching build payloads, in build-row order per probe row.
    pub payloads: Vec<i64>,
    /// Per-phase dispatch statistics.
    pub stats: BuildProbeStats,
}

/// Full morsel-parallel hash join over an integer payload column and a
/// key column of either [`JoinKey`] type — `K` follows the probe keys
/// (`&[i64]` or Utf8 `&[String]`): partitioned build (each worker over
/// its build morsels, partitions merged in morsel order into one shared
/// [`HashTable`]) followed by a shared probe over probe-side morsels,
/// outputs merged in morsel order. Returns the shared table and the
/// materialized join output — bit-identical across 1/2/4/8/… workers,
/// and equal to the sequential [`HashTable::build`] +
/// [`HashTable::probe`].
pub fn parallel_hash_join<K: JoinKey>(
    build_keys: &Array,
    build_payloads: &Array,
    probe_keys: &[K],
    bloom: bool,
    opts: ParallelOpts<'_>,
) -> OpResult<(HashTable<K>, ParallelJoinOutput)> {
    let _stage = opts.stage(K::STAGE);
    let (bk, bp) = build_rows::<K>(build_keys, build_payloads)?;
    let build_plan = MorselPlan::new(bk.len(), opts.effective_morsel_rows());
    let probe_plan = MorselPlan::new(probe_keys.len(), opts.effective_morsel_rows());
    let (table, per_morsel, stats) = build_then_probe(
        opts.runner(),
        opts.cancel,
        &build_plan,
        &probe_plan,
        |_, m| {
            Ok::<_, Infallible>(JoinPartition::from_rows(
                &bk[m.start..m.end()],
                &bp[m.start..m.end()],
            ))
        },
        |partitions| bloomed(HashTable::from_partitions(partitions), bloom),
        |_, m, table: &HashTable<K>| {
            let (idx, pay) = table.probe(&probe_keys[m.start..m.end()]);
            Ok((m.start as u32, idx, pay))
        },
    )
    .map_err(infallible_run_err)?;
    let mut indices = Vec::new();
    let mut payloads = Vec::new();
    for (base, idx, pay) in per_morsel {
        indices.extend(idx.into_iter().map(|i| i + base));
        payloads.extend(pay);
    }
    Ok((
        table,
        ParallelJoinOutput {
            indices,
            payloads,
            stats,
        },
    ))
}

/// The §III-C adaptive join chain, probed morsel-parallel.
///
/// Each batch of key columns is sliced into morsels and probed on the
/// work-stealing pool under **one snapshot** of the current order; every
/// morsel records per-join `(input, output, ns)` observations. After the
/// batch, the observations are **merged across morsels (in morsel order)
/// before reordering** — the controller sees one coherent selectivity
/// sample per join per batch, so its decisions are based on whole-batch
/// pass rates, not on whichever morsel finished last.
///
/// Survivor indices and payload sums merge in morsel order: the result is
/// identical to [`crate::join::AdaptiveJoinChain::probe_chunk`] over the
/// same rows for any worker count (survivors of a conjunctive chain do
/// not depend on probe order).
pub struct ParallelJoinChain {
    sides: Vec<JoinSide>,
    controller: ReorderController,
}

impl ParallelJoinChain {
    /// Chain over integer-keyed build sides, re-evaluating order every
    /// `every` batches.
    pub fn new(tables: Vec<HashTable>, every: u64) -> ParallelJoinChain {
        ParallelJoinChain::new_mixed(tables.into_iter().map(JoinSide::Int).collect(), every)
    }

    /// Chain over possibly mixed-key build sides (integer and Utf8 — a
    /// Q3-style plan can chain an `i64 o_orderkey` join with a Utf8
    /// segment-key join), re-evaluating order every `every` batches.
    pub fn new_mixed(sides: Vec<JoinSide>, every: u64) -> ParallelJoinChain {
        let n = sides.len();
        ParallelJoinChain {
            sides,
            controller: ReorderController::new(n, every),
        }
    }

    /// The current probe order.
    pub fn order(&self) -> &[usize] {
        self.controller.current_order()
    }

    /// Times the order changed so far.
    pub fn reorders(&self) -> u64 {
        self.controller.reorders()
    }

    /// Probe one batch of integer key columns (`keys[j]` is the probe key
    /// column for join `j`; all columns must have equal length)
    /// morsel-parallel. Fails only when the batch was cancelled or refused
    /// by its executor (in which case no observation reaches the reorder
    /// controller). Panics if a side is Utf8-keyed — mixed chains probe
    /// through [`Self::probe_batch_mixed`].
    pub fn probe_batch(
        &mut self,
        keys: &[Vec<i64>],
        opts: ParallelOpts<'_>,
    ) -> OpResult<ChainResult> {
        let columns: Vec<KeyColumn<'_>> = keys.iter().map(|k| KeyColumn::Int(k)).collect();
        self.probe_batch_mixed(&columns, opts)
    }

    /// Probe one batch of **mixed** key columns morsel-parallel:
    /// `keys[j]`'s kind must match side `j` (validated up front). The
    /// merge discipline is identical to the integer chain — survivors in
    /// morsel order, one folded observation per join per batch — so
    /// results and learned orders are worker-count independent.
    pub fn probe_batch_mixed(
        &mut self,
        keys: &[KeyColumn<'_>],
        opts: ParallelOpts<'_>,
    ) -> OpResult<ChainResult> {
        let _stage = opts.stage("join-chain");
        let n = validate_mixed_columns(&self.sides, keys);
        let order = self.controller.current_order().to_vec();
        let plan = MorselPlan::new(n, opts.effective_morsel_rows());
        let sides = &self.sides;
        let run = opts.runner().run(&plan, opts.cancel, |_, m| {
            Ok::<_, Infallible>(probe_chunk_with_order_mixed(
                sides,
                &order,
                keys,
                m.start..m.end(),
            ))
        });
        let (per_morsel, _) = run.map_err(infallible_run_err)?;
        // Merge: survivors in morsel order; observations folded across
        // morsels into one (input, output, ns) sample per join.
        let mut indices = Vec::new();
        let mut payload_sum = Vec::new();
        let mut merged = vec![(0usize, 0usize, 0u64); self.sides.len()];
        for (result, observations) in per_morsel {
            indices.extend(result.indices);
            payload_sum.extend(result.payload_sum);
            for o in observations {
                let slot = &mut merged[o.join];
                slot.0 += o.input;
                slot.1 += o.output;
                slot.2 += o.ns;
            }
        }
        for &j in &order {
            let (input, output, ns) = merged[j];
            self.controller.record(j, input, output, ns);
        }
        self.controller.next_order();
        Ok(ChainResult {
            indices,
            payload_sum,
        })
    }
}

/// Morsel-parallel Q3-style join query (see [`tpch::q3_hash`]): the
/// partitioned build filters and hashes orders morsels into partitions
/// merged in morsel order; the shared probe then runs every lineitem
/// morsel through the chosen [`JoinStrategy`], and the exact fixed-point
/// morsel revenues fold in morsel order. Integer accumulators are
/// associative, so the result is **bit-identical to the sequential
/// [`tpch::q3_hash`]** for any worker count, morsel size, and strategy.
pub fn q3_parallel(
    lineitem: &Table,
    orders: &Table,
    date: i64,
    strategy: JoinStrategy,
    chunk_rows: usize,
    bloom: bool,
    opts: ParallelOpts<'_>,
) -> OpResult<(f64, BuildProbeStats)> {
    let _stage = opts.stage("q3");
    let chunk_rows = chunk_rows.max(1);
    let okey = ops::int_column(orders, "o_orderkey")?;
    let odate = ops::int_column(orders, "o_orderdate")?;
    let cols = tpch::Q3Cols::from_table(lineitem)?;
    let build_plan = MorselPlan::new(okey.len(), opts.effective_morsel_rows());
    let probe_plan =
        MorselPlan::chunk_aligned(lineitem.rows(), opts.effective_morsel_rows(), chunk_rows);
    let (_, revenues, stats) = build_then_probe(
        opts.runner(),
        opts.cancel,
        &build_plan,
        &probe_plan,
        |_, m| {
            // Build stage: filter this orders morsel by date, hash the
            // survivors into a private partition.
            let mut keys = Vec::new();
            let mut payloads = Vec::new();
            for i in m.start..m.end() {
                if odate[i] < date {
                    keys.push(okey[i]);
                    payloads.push(odate[i]);
                }
            }
            Ok::<_, Infallible>(JoinPartition::from_rows(&keys, &payloads))
        },
        |partitions| bloomed(HashTable::from_partitions(partitions), bloom),
        |_, m, table: &HashTable| {
            Ok(tpch::q3_probe_range(
                &cols, table, date, strategy, m.start, m.len, chunk_rows,
            ))
        },
    )
    .map_err(infallible_run_err)?;
    Ok((tpch::q3_revenue_f64(revenues.into_iter().sum()), stats))
}

/// A morsel-sized table holding only the named columns.
fn project_slice(table: &Table, columns: &[&str], m: &Morsel) -> OpResult<Table> {
    let fields = columns
        .iter()
        .map(|n| table.schema().field(n).cloned())
        .collect::<Result<Vec<_>, _>>()
        .map_err(adaptvm_kernels::KernelError::Storage)?;
    let arrays = columns
        .iter()
        .map(|n| table.column_by_name(n).map(|c| m.slice_array(c)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(adaptvm_kernels::KernelError::Storage)?;
    Table::new(adaptvm_storage::schema::Schema::new(fields), arrays)
        .map_err(adaptvm_kernels::KernelError::Storage)
}

/// Parallel TPC-H Q1, X100-style vectorized. Per-chunk partial
/// accumulators merged in global chunk order: bit-identical to
/// [`tpch::q1_vectorized`] at the same `chunk_rows`, for any worker
/// count. Fails only on cancellation/rejection by the executor.
pub fn q1_parallel_vectorized(
    table: &Table,
    chunk_rows: usize,
    opts: ParallelOpts<'_>,
) -> OpResult<Vec<Q1Row>> {
    let _stage = opts.stage("q1");
    let chunk_rows = chunk_rows.max(1);
    let plan = MorselPlan::chunk_aligned(table.rows(), opts.effective_morsel_rows(), chunk_rows);
    let run = opts.runner().run(&plan, opts.cancel, |_, m| {
        let mut parts = Vec::with_capacity(m.len.div_ceil(chunk_rows));
        let mut off = m.start;
        while off < m.end() {
            let n = chunk_rows.min(m.end() - off);
            parts.push(tpch::q1_vectorized_chunk(table, off, n));
            off += n;
        }
        Ok::<_, Infallible>(parts)
    });
    let (per_morsel, _) = run.map_err(infallible_run_err)?;
    let mut accs = tpch::new_accs();
    for parts in per_morsel {
        for partial in parts {
            for (a, p) in accs.iter_mut().zip(&partial) {
                a.merge(p);
            }
        }
    }
    Ok(tpch::q1_rows(accs))
}

/// Parallel TPC-H Q1, HyPer-style fused. Per-morsel partials merged in
/// morsel order: deterministic for any worker count; equal to
/// [`tpch::q1_fused`] up to floating-point associativity (counts and
/// integer-valued sums are exact). Fails only on cancellation/rejection.
pub fn q1_parallel_fused(table: &Table, opts: ParallelOpts<'_>) -> OpResult<Vec<Q1Row>> {
    let _stage = opts.stage("q1");
    let plan = MorselPlan::new(table.rows(), opts.effective_morsel_rows());
    let run = opts.runner().run(&plan, opts.cancel, |_, m| {
        Ok::<_, Infallible>(tpch::q1_fused_range(table, m.start, m.len))
    });
    let (partials, _) = run.map_err(infallible_run_err)?;
    let mut accs = tpch::new_accs();
    for partial in partials {
        for (a, p) in accs.iter_mut().zip(&partial) {
            a.merge(p);
        }
    }
    Ok(tpch::q1_rows(accs))
}

/// Parallel TPC-H Q1 with the paper's compact-types + adaptive mix. The
/// accumulators are exact 64-bit integer fixed point — associative — so
/// the result is **bit-identical to [`tpch::q1_adaptive`]** for any
/// worker count and any morsel size. Fails only on
/// cancellation/rejection.
pub fn q1_parallel_adaptive(
    compact: &CompactLineitem,
    chunk_rows: usize,
    opts: ParallelOpts<'_>,
) -> OpResult<Vec<Q1Row>> {
    let _stage = opts.stage("q1");
    let chunk_rows = chunk_rows.max(1);
    let plan =
        MorselPlan::chunk_aligned(compact.qty.len(), opts.effective_morsel_rows(), chunk_rows);
    let run = opts.runner().run(&plan, opts.cancel, |_, m| {
        Ok::<_, Infallible>(tpch::q1_adaptive_range(compact, m.start, m.len, chunk_rows))
    });
    let (partials, _) = run.map_err(infallible_run_err)?;
    let mut iaccs = [[0i64; 5]; Q1_GROUPS as usize];
    for p in &partials {
        tpch::q1_adaptive_merge(&mut iaccs, p);
    }
    Ok(tpch::q1_adaptive_rows(&iaccs))
}

/// Parallel TPC-H Q6 through the full adaptive VM: one prepared program
/// per query, run once per morsel (each worker owns its `Env`/interpreter),
/// all sharing one JIT code cache, revenues folded in morsel order.
///
/// The program is [`tpch::q6_program`] bounded by the longest morsel; a
/// shorter morsel (the plan's tail) ends on its first empty read. So
/// [`Vm::prepare`] runs once, and every morsel, the tail included, adopts
/// the query's hot plan once one morsel has published it.
///
/// With `morsel_rows == config.chunk_size` every morsel is exactly one
/// chunk and the revenue fold reproduces the single-threaded VM's
/// addition tree: the result is bit-identical to running
/// [`tpch::q6_program`] on one thread with the same strategy. Larger
/// (chunk-aligned) morsels remain deterministic for any worker count.
///
/// With a scheduler in `opts`, the run executes on the long-lived pool
/// (see [`run_vm`]): same revenue, but traces live in the scheduler's
/// shared cache (repeat runs report `trace_cache_hits`) and the merged
/// profile window feeds the scheduler's morsel elasticity. With a
/// *service* in `opts` the run additionally passes admission control at
/// `opts.priority` first; cancellation (token or queued-deadline)
/// surfaces as [`VmError::Cancelled`].
pub fn q6_parallel(
    table: &Table,
    date_lo: i64,
    config: VmConfig,
    opts: ParallelOpts<'_>,
) -> Result<(f64, ParallelRunReport), VmError> {
    let _stage = opts.stage("q6");
    let plan = MorselPlan::chunk_aligned(
        table.rows(),
        opts.effective_morsel_rows(),
        config.chunk_size,
    );
    // Resolve the four Q6 columns once; each morsel borrows its rows of
    // these as windows, nothing is copied.
    let inputs = tpch::q6_columns(table)?;
    // One program for the whole query: bounded by the longest morsel, it
    // ends a shorter one on its first empty read. A column of another
    // element type than the Q6 schema's fails the run with
    // `VmError::InputType`.
    let longest = plan.morsels().iter().map(|m| m.len).max().unwrap_or(0);
    let program = Vm::prepare(
        &tpch::q6_program(longest as i64, date_lo),
        tpch::q6_schema(),
    );
    let make = |m: &Morsel| {
        let mut buffers = adaptvm_vm::Buffers::new();
        for &(name, column) in &inputs {
            buffers.insert_window(name, column, m.start, m.len);
        }
        (&program, buffers)
    };
    let (outs, report) = run_vm(opts.runner(), config, &plan, opts.cancel, make)?;
    let mut revenue = 0.0;
    for (i, out) in outs.iter().enumerate() {
        let rev = out
            .output("revenue")
            .and_then(|a| a.as_f64())
            .and_then(|v| v.first().copied())
            .ok_or_else(|| VmError::Shape(format!("morsel {i} produced no f64 revenue output")))?;
        revenue += rev;
    }
    Ok((revenue, report))
}

/// Morsel-parallel TPC-H Q18 (large-volume customer): the big group-by —
/// `sum(l_quantity) by l_orderkey` through the **spillable** parallel
/// aggregate (the core of
/// [`crate::spill::parallel_hash_aggregate_spill`], which binds `opts`'
/// effective memory budget) — feeding a filter (`total > threshold`) and
/// a join back to `orders` for the date.
///
/// Bit-identical to [`tpch::q18_reference`] at every worker count,
/// budget, and executor: the spilling aggregate is bit-identical to the
/// sequential fold, HAVING runs on its unordered groups so only the
/// survivors are sorted by key, and the join is a point lookup per
/// survivor.
pub fn q18_parallel(
    lineitem: &Table,
    orders: &Table,
    threshold: f64,
    opts: ParallelOpts<'_>,
) -> OpResult<(Vec<tpch::Q18Row>, adaptvm_parallel::SpillStats)> {
    let _stage = opts.stage("q18");
    let (mut groups, stats) =
        crate::spill::hash_aggregate_spill_unordered(lineitem, "l_orderkey", "l_quantity", opts)?;
    groups.retain(|(_, g)| g.sum > threshold);
    groups.sort_unstable_by_key(|&(k, _)| k);
    let rows = q18_finish(groups, orders)?;
    Ok((rows, stats))
}

/// The shared tail of the Q18 pipelines: join the key-sorted HAVING
/// survivors back to `orders` for the date.
fn q18_finish(survivors: Vec<(i64, GroupState)>, orders: &Table) -> OpResult<Vec<tpch::Q18Row>> {
    let okey = ops::int_column(orders, "o_orderkey")?;
    let odate = ops::int_column(orders, "o_orderdate")?;
    let dates: WordMap<i64, i64> = okey.iter().copied().zip(odate.iter().copied()).collect();
    Ok(survivors
        .into_iter()
        .filter_map(|(k, g)| {
            dates.get(&k).map(|&d| tpch::Q18Row {
                o_orderkey: k,
                o_orderdate: d,
                total_qty: g.sum,
                line_count: g.count,
            })
        })
        .collect())
}

/// [`q18_parallel`] with the HAVING clause **re-evaluated through the
/// adaptive VM**: the spillable parallel aggregate computes the per-order
/// quantity sums exactly as in [`q18_parallel`], then a Q6-shaped DSL
/// program ([`tpch::q18_having_program`]) recomputes
/// `sum(total where total > threshold)` over those group sums inside the
/// VM — interpreting, tracing, JIT-compiling, or deoptimizing per
/// `config.strategy`. The host still materializes the result rows; the
/// VM's kept-quantity sum must agree **bit-exactly** with the host's
/// (quantities are integer-valued f64 and the sums stay far below 2^53,
/// so addition order cannot matter), and any disagreement surfaces as
/// [`VmError::Shape`].
///
/// The VM leg makes this the engine's one-stop profiling query: a single
/// traced call produces admission, morsel, spill, budget, **and** JIT
/// events in one [`adaptvm_parallel::QueryProfile`].
pub fn q18_parallel_vm(
    lineitem: &Table,
    orders: &Table,
    threshold: f64,
    config: VmConfig,
    opts: ParallelOpts<'_>,
) -> Result<(Vec<tpch::Q18Row>, adaptvm_parallel::SpillStats), VmError> {
    let _stage = opts.stage("q18");
    let (groups, stats) =
        crate::spill::parallel_hash_aggregate_spill(lineitem, "l_orderkey", "l_quantity", opts)
            .map_err(VmError::Kernel)?;
    // HAVING through the VM over the aggregated (key-sorted) group sums.
    // Empty input is degenerate — nothing to filter, nothing to check.
    if !groups.is_empty() {
        let sums: Vec<f64> = groups.iter().map(|(_, g)| g.sum).collect();
        let program = tpch::q18_having_program(sums.len() as i64, threshold);
        let buffers = adaptvm_vm::Buffers::new().with_input("sums", Array::from(sums));
        let (out, _report) = Vm::new(config).run(&program, buffers)?;
        let vm_kept = out
            .output("kept")
            .and_then(|a| a.as_f64())
            .and_then(|v| v.first().copied())
            .ok_or_else(|| VmError::Shape("q18 HAVING program produced no kept output".into()))?;
        let host_kept: f64 = groups
            .iter()
            .map(|(_, g)| g.sum)
            .filter(|&s| s > threshold)
            .sum();
        if vm_kept.to_bits() != host_kept.to_bits() {
            return Err(VmError::Shape(format!(
                "q18 HAVING disagreement: VM kept {vm_kept}, host kept {host_kept}"
            )));
        }
    }
    let survivors = groups
        .into_iter()
        .filter(|(_, g)| g.sum > threshold)
        .collect();
    let rows = q18_finish(survivors, orders).map_err(VmError::Kernel)?;
    Ok((rows, stats))
}

/// Morsel-parallel TPC-H Q9 (product-type profit): a **mixed-key**
/// adaptive join chain — two integer sides (selective part filter,
/// supplier) and one Utf8 side (brand) — probed batch-by-batch under the
/// reorder controller, with exact whole-cent profit grouped by the
/// supplier's nation.
///
/// `batch_rows` sets the reorder observation granularity (one folded
/// observation per join per batch); `bloom` builds every side with a
/// Bloom pre-filter. Results are bit-identical to
/// [`tpch::q9_reference`] for every worker count, batch size, Bloom
/// setting, and executor — survivors merge in morsel order and the
/// profit accumulators are integers. Returns the rows plus the number of
/// join-order changes the controller made.
pub fn q9_parallel(
    data: &tpch::Q9Data,
    batch_rows: usize,
    bloom: bool,
    every: u64,
    opts: ParallelOpts<'_>,
) -> OpResult<(Vec<tpch::Q9Row>, u64)> {
    let _stage = opts.stage("q9");
    let mut part = HashTable::from_rows(&data.part_keys, &data.part_payload);
    let mut supp = HashTable::from_rows(&data.supp_keys, &data.supp_payload);
    let mut brand = StrHashTable::from_rows(&data.brand_keys, &data.brand_payload);
    if bloom {
        part = part.with_bloom();
        supp = supp.with_bloom();
        brand = brand.with_bloom();
    }
    let mut chain = ParallelJoinChain::new_mixed(
        vec![
            JoinSide::Int(part),
            JoinSide::Int(supp),
            JoinSide::Str(brand),
        ],
        every,
    );
    let n = data.l_partkey.len();
    let batch_rows = batch_rows.max(1);
    let mut groups: WordMap<i64, (i64, i64)> = WordMap::default();
    let mut start = 0;
    while start < n {
        let end = (start + batch_rows).min(n);
        let keys = [
            KeyColumn::Int(&data.l_partkey[start..end]),
            KeyColumn::Int(&data.l_suppkey[start..end]),
            KeyColumn::Str(&data.l_brand[start..end]),
        ];
        let result = chain.probe_batch_mixed(&keys, opts)?;
        for (&local, &pay) in result.indices.iter().zip(&result.payload_sum) {
            let g = start + local as usize;
            let nation = data.supp_nation[data.l_suppkey[g] as usize];
            let profit = data.l_price_c[g] - data.l_cost_c[g] + pay;
            let slot = groups.entry(nation).or_default();
            slot.0 += profit;
            slot.1 += 1;
        }
        start = end;
    }
    let mut rows: Vec<tpch::Q9Row> = groups
        .into_iter()
        .map(|(nation, (profit_c, count))| tpch::Q9Row {
            nation,
            profit_c,
            rows: count,
        })
        .collect();
    rows.sort_by_key(|r| r.nation);
    Ok((rows, chain.reorders()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptvm_storage::{ScalarType, DEFAULT_CHUNK};
    use adaptvm_vm::Strategy;

    fn exact_eq(a: &[Q1Row], b: &[Q1Row]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.group == y.group
                    && x.count == y.count
                    && x.sum_qty.to_bits() == y.sum_qty.to_bits()
                    && x.sum_base.to_bits() == y.sum_base.to_bits()
                    && x.sum_disc_price.to_bits() == y.sum_disc_price.to_bits()
                    && x.sum_charge.to_bits() == y.sum_charge.to_bits()
            })
    }

    #[test]
    fn parallel_vectorized_q1_bit_identical_to_sequential() {
        let t = tpch::lineitem(50_000, 11);
        let seq = tpch::q1_vectorized(&t, 1024);
        for workers in [1, 2, 4, 8] {
            let par = q1_parallel_vectorized(
                &t,
                1024,
                ParallelOpts {
                    workers,
                    morsel_rows: 8 * 1024,
                    ..ParallelOpts::default()
                },
            )
            .unwrap();
            assert!(exact_eq(&seq, &par), "workers={workers}");
        }
    }

    #[test]
    fn parallel_adaptive_q1_bit_identical_to_sequential() {
        let t = tpch::lineitem(40_000, 5);
        let compact = CompactLineitem::from_table(&t);
        let seq = tpch::q1_adaptive(&compact, 1024);
        for (workers, morsel) in [(1, 1000), (2, 4096), (4, 7777), (8, 1024)] {
            let par = q1_parallel_adaptive(
                &compact,
                1024,
                ParallelOpts {
                    workers,
                    morsel_rows: morsel,
                    ..ParallelOpts::default()
                },
            )
            .unwrap();
            assert!(exact_eq(&seq, &par), "workers={workers} morsel={morsel}");
        }
    }

    #[test]
    fn parallel_fused_q1_matches_reference() {
        let t = tpch::lineitem(30_000, 3);
        let seq = tpch::q1_fused(&t);
        let one_worker = q1_parallel_fused(
            &t,
            ParallelOpts {
                workers: 1,
                morsel_rows: 4096,
                ..ParallelOpts::default()
            },
        )
        .unwrap();
        for workers in [2, 4, 8] {
            let par = q1_parallel_fused(
                &t,
                ParallelOpts {
                    workers,
                    morsel_rows: 4096,
                    ..ParallelOpts::default()
                },
            )
            .unwrap();
            // Same morsel decomposition ⇒ bit-identical across worker counts.
            assert!(exact_eq(&one_worker, &par), "workers={workers}");
            // And equal to the sequential fused loop within fp tolerance.
            assert!(tpch::q1_results_match(&seq, &par), "workers={workers}");
        }
    }

    #[test]
    fn parallel_filter_project_sum_bit_identical() {
        use adaptvm_storage::gen;
        let t = gen::measurements(20_000, 8, 21);
        let (seq_total, seq_rows) = ops::filter_project_sum(
            &t,
            "group",
            2,
            "value",
            512,
            FilterFlavor::SelVecLoop,
            MapMode::Selective,
        )
        .unwrap();
        for workers in [1, 2, 4] {
            let (total, rows) = parallel_filter_project_sum(
                &t,
                "group",
                2,
                "value",
                512,
                FilterFlavor::SelVecLoop,
                MapMode::Selective,
                ParallelOpts {
                    workers,
                    morsel_rows: 2048,
                    ..ParallelOpts::default()
                },
            )
            .unwrap();
            assert_eq!(rows, seq_rows, "workers={workers}");
            assert_eq!(total.to_bits(), seq_total.to_bits(), "workers={workers}");
        }
    }

    #[test]
    fn parallel_q6_every_strategy_matches_reference() {
        let t = tpch::lineitem(20_000, 9);
        let expected = tpch::q6_reference(&t, 1000);
        for strategy in [
            Strategy::Interpret,
            Strategy::CompiledPipeline,
            Strategy::Adaptive,
        ] {
            let config = VmConfig {
                strategy,
                hot_threshold: 3,
                ..VmConfig::default()
            };
            let (rev, report) = q6_parallel(
                &t,
                1000,
                config,
                ParallelOpts {
                    workers: 4,
                    morsel_rows: 4 * DEFAULT_CHUNK,
                    ..ParallelOpts::default()
                },
            )
            .unwrap();
            assert!(
                (rev - expected).abs() / expected.abs().max(1.0) < 1e-9,
                "{strategy:?}: {rev} vs {expected}"
            );
            assert_eq!(report.morsels, 5, "{strategy:?}");
        }
    }

    #[test]
    fn parallel_build_matches_sequential_build() {
        // Heavy duplication: 20k rows over 500 distinct keys.
        let keys = Array::from((0..20_000).map(|i| i % 500).collect::<Vec<i64>>());
        let pays = Array::from((0..20_000).collect::<Vec<i64>>());
        let sequential = HashTable::build(&keys, &pays).unwrap();
        let probes: Vec<i64> = (-10..510).collect();
        let expected = sequential.probe(&probes);
        for workers in [1, 2, 4, 8] {
            for bloom in [false, true] {
                let par = parallel_build_hash_table(
                    &keys,
                    &pays,
                    bloom,
                    ParallelOpts {
                        workers,
                        morsel_rows: 3_000,
                        ..ParallelOpts::default()
                    },
                )
                .unwrap();
                assert_eq!(par.len(), sequential.len());
                assert_eq!(par.distinct_keys(), sequential.distinct_keys());
                assert_eq!(
                    par.probe(&probes),
                    expected,
                    "workers={workers} bloom={bloom}"
                );
            }
        }
    }

    #[test]
    fn parallel_hash_join_matches_sequential_probe() {
        let build_keys = Array::from((0..5_000).map(|i| i % 400).collect::<Vec<i64>>());
        let build_pays = Array::from((0..5_000).map(|i| i * 3).collect::<Vec<i64>>());
        let probe_keys: Vec<i64> = (0..30_000).map(|i| (i * 7) % 800).collect();
        let table = HashTable::build(&build_keys, &build_pays).unwrap();
        let (seq_idx, seq_pay) = table.probe(&probe_keys);
        for workers in [1, 2, 4, 8] {
            let (_, out) = parallel_hash_join(
                &build_keys,
                &build_pays,
                &probe_keys,
                workers % 2 == 0, // alternate bloom on/off across the sweep
                ParallelOpts {
                    workers,
                    morsel_rows: 4_096,
                    ..ParallelOpts::default()
                },
            )
            .unwrap();
            assert_eq!(out.indices, seq_idx, "workers={workers}");
            assert_eq!(out.payloads, seq_pay, "workers={workers}");
            assert_eq!(
                out.stats.probe.executed.iter().sum::<u64>(),
                30_000u64.div_ceil(4_096),
            );
        }
    }

    #[test]
    fn parallel_join_chain_matches_sequential_chain() {
        use crate::join::AdaptiveJoinChain;
        let mk = |n: i64| {
            let keys: Vec<i64> = (0..n).collect();
            HashTable::build(
                &Array::from(keys.clone()),
                &Array::from(keys.iter().map(|k| k + 1).collect::<Vec<_>>()),
            )
            .unwrap()
        };
        let probes: Vec<i64> = (0..20_000).map(|i| i % 15_000).collect();
        let keys = [probes.clone(), probes.clone()];
        // Sequential reference over the same batches.
        let mut seq = AdaptiveJoinChain::new(vec![mk(10_000), mk(1_000)], 2);
        let seq_results: Vec<ChainResult> = (0..6).map(|_| seq.probe_chunk(&keys)).collect();
        for workers in [1, 2, 4, 8] {
            let mut par = ParallelJoinChain::new(vec![mk(10_000), mk(1_000)], 2);
            for (batch, expected) in seq_results.iter().enumerate() {
                let r = par
                    .probe_batch(
                        &keys,
                        ParallelOpts {
                            workers,
                            morsel_rows: 3_000,
                            ..ParallelOpts::default()
                        },
                    )
                    .unwrap();
                assert_eq!(&r, expected, "workers={workers} batch={batch}");
            }
            assert_eq!(
                par.order(),
                &[1, 0],
                "selective join leads after merged stats (workers={workers})"
            );
        }
    }

    #[test]
    fn parallel_q3_bit_identical_to_sequential_for_every_strategy() {
        let li = tpch::lineitem_q3(25_000, 4_000, 23);
        let ord = tpch::orders(4_000, 23);
        let date = tpch::SHIPDATE_MAX / 2;
        let reference = tpch::q3_reference(&li, &ord, date);
        for strategy in JoinStrategy::ALL {
            let seq = tpch::q3_hash(&li, &ord, date, strategy, 1024, true).unwrap();
            assert!((seq - reference).abs() / reference.abs().max(1.0) < 1e-9);
            for workers in [1, 2, 4, 8] {
                let (rev, stats) = q3_parallel(
                    &li,
                    &ord,
                    date,
                    strategy,
                    1024,
                    true,
                    ParallelOpts {
                        workers,
                        morsel_rows: 5_000,
                        ..ParallelOpts::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    rev.to_bits(),
                    seq.to_bits(),
                    "{strategy:?} diverged at {workers} workers"
                );
                assert_eq!(stats.build_morsels, 4_000usize.div_ceil(5_000));
                // Probe morsels are chunk-aligned: 5_000 → 5_120 rows.
                assert_eq!(stats.probe_morsels, 25_000usize.div_ceil(5_120));
            }
        }
    }

    #[test]
    fn scheduler_entry_points_bit_identical_to_scoped() {
        // One long-lived scheduler serving Q1 (vectorized + adaptive), Q3
        // and Q6: every result must be bit-identical to the scoped-pool
        // path over the same plan.
        let scheduler = Scheduler::new(4);
        let t = tpch::lineitem(30_000, 19);
        let compact = CompactLineitem::from_table(&t);
        let scoped = ParallelOpts::new(4, 5_000);
        let sched = scoped.with_scheduler(&scheduler);

        let q1_scoped = q1_parallel_vectorized(&t, 1024, scoped).unwrap();
        let q1_sched = q1_parallel_vectorized(&t, 1024, sched).unwrap();
        assert!(exact_eq(&q1_scoped, &q1_sched), "vectorized Q1");

        let q1a_scoped = q1_parallel_adaptive(&compact, 1024, scoped).unwrap();
        let q1a_sched = q1_parallel_adaptive(&compact, 1024, sched).unwrap();
        assert!(exact_eq(&q1a_scoped, &q1a_sched), "adaptive Q1");

        let li = tpch::lineitem_q3(20_000, 3_000, 7);
        let ord = tpch::orders(3_000, 7);
        let date = tpch::SHIPDATE_MAX / 2;
        for strategy in JoinStrategy::ALL {
            let (seq, _) = q3_parallel(&li, &ord, date, strategy, 1024, true, scoped).unwrap();
            let (par, stats) = q3_parallel(&li, &ord, date, strategy, 1024, true, sched).unwrap();
            assert_eq!(seq.to_bits(), par.to_bits(), "{strategy:?}");
            assert_eq!(
                stats.probe.executed.len(),
                scheduler.workers(),
                "probe stats come from the scheduler pool"
            );
        }

        let config = VmConfig {
            strategy: Strategy::Adaptive,
            hot_threshold: 3,
            ..VmConfig::default()
        };
        let (rev_scoped, _) = q6_parallel(&t, 1000, config.clone(), scoped).unwrap();
        let (rev_sched, report) = q6_parallel(&t, 1000, config, sched).unwrap();
        assert_eq!(rev_scoped.to_bits(), rev_sched.to_bits(), "Q6");
        assert_eq!(report.workers, scheduler.workers());
    }

    #[test]
    fn scheduler_q6_hits_shared_cache_on_repeat_runs() {
        // The repeated-fragment workload: the same Q6 program shape run
        // twice on one scheduler. The second run's traces come from the
        // scheduler's shared cache — zero additional compiles.
        let scheduler = Scheduler::new(2);
        let t = tpch::lineitem(20_480, 3);
        let config = VmConfig {
            strategy: Strategy::CompiledPipeline,
            ..VmConfig::default()
        };
        let opts = ParallelOpts::new(2, 4 * DEFAULT_CHUNK).with_scheduler(&scheduler);
        let (rev1, r1) = q6_parallel(&t, 1000, config.clone(), opts).unwrap();
        assert!(
            r1.trace_cache_hits >= (r1.morsels as u64) - 1,
            "later morsels of the first run already share the cache: {r1:?}"
        );
        let (rev2, r2) = q6_parallel(&t, 1000, config, opts).unwrap();
        assert_eq!(rev1.to_bits(), rev2.to_bits());
        assert_eq!(
            r2.trace_cache_hits, r2.morsels as u64,
            "every morsel of the repeat run hits: {r2:?}"
        );
        assert_eq!(r2.compile_ns_total, 0, "{r2:?}");
    }

    #[test]
    fn elastic_morsel_sentinel_resolves_and_stays_exact() {
        // morsel_rows = 0 defers to the scheduler's elastic size; the
        // adaptive Q1 fixed-point result is split-independent, so feeding
        // windows that move the size between runs must not change results.
        let scheduler = Scheduler::new(4);
        let t = tpch::lineitem(30_000, 23);
        let compact = CompactLineitem::from_table(&t);
        let seq = tpch::q1_adaptive(&compact, 1024);
        let opts = ParallelOpts::on(&scheduler);
        assert_eq!(
            opts.effective_morsel_rows(),
            scheduler.morsel_rows(),
            "sentinel resolves to the elastic size"
        );
        for round in 0..4 {
            let par = q1_parallel_adaptive(&compact, 1024, opts).unwrap();
            assert!(
                exact_eq(&tpch::q1_adaptive(&compact, 1024), &par),
                "round {round} at morsel_rows={}",
                scheduler.morsel_rows()
            );
            assert!(exact_eq(&seq, &par));
            // Alternate grow/shrink pressure on the controller.
            let window = if round % 2 == 0 {
                adaptvm_parallel::ProfileWindow {
                    morsels: 32,
                    steals: 0,
                    trace_executions: 64,
                    fallbacks: 0,
                }
            } else {
                adaptvm_parallel::ProfileWindow {
                    morsels: 16,
                    steals: 8,
                    trace_executions: 0,
                    fallbacks: 8,
                }
            };
            scheduler.observe_window(&window);
        }
    }

    #[test]
    fn parallel_q6_shares_the_jit_across_morsels() {
        let t = tpch::lineitem(40_960, 2);
        let config = VmConfig {
            strategy: Strategy::CompiledPipeline,
            ..VmConfig::default()
        };
        // Racing morsels wait for the first one's compile and adopt its
        // plan instead of each missing the cache: repeat to catch a race.
        for round in 0..20 {
            let (_, report) = q6_parallel(
                &t,
                1000,
                config.clone(),
                ParallelOpts {
                    workers: 4,
                    morsel_rows: 8 * DEFAULT_CHUNK,
                    ..ParallelOpts::default()
                },
            )
            .unwrap();
            // 5 equal-size morsels share one fragment: one compile, 4 hits.
            assert_eq!(report.morsels, 5);
            assert_eq!(report.cache_stats.misses, 1, "round {round}: {report:?}");
            assert_eq!(report.trace_cache_hits, 4, "round {round}: {report:?}");
        }
    }

    /// `lineitem` with column `name` replaced by `column`, or dropped.
    fn with_column(t: &Table, name: &str, column: Option<Array>) -> Table {
        let (fields, columns): (Vec<_>, Vec<_>) = t
            .schema()
            .fields()
            .iter()
            .zip(t.columns())
            .filter_map(|(f, c)| match (&column, f.name == name) {
                (_, false) => Some((f.clone(), c.clone())),
                (Some(a), true) => Some((
                    adaptvm_storage::schema::Field::new(name, a.scalar_type()),
                    a.clone(),
                )),
                (None, true) => None,
            })
            .unzip();
        Table::new(adaptvm_storage::schema::Schema::new(fields), columns).unwrap()
    }

    #[test]
    fn q6_over_a_wrong_lineitem_is_a_typed_error() {
        let t = tpch::lineitem(4096, 3);
        let opts = ParallelOpts::new(2, 2 * DEFAULT_CHUNK);
        let no_discount = with_column(&t, "l_discount", None);
        let err = q6_parallel(&no_discount, 1000, VmConfig::default(), opts).unwrap_err();
        assert!(
            matches!(&err, VmError::Storage(e) if e.to_string().contains("l_discount")),
            "{err}"
        );
        let qty = t
            .column_by_name("l_quantity")
            .unwrap()
            .cast(ScalarType::F64);
        let f64_qty = with_column(&t, "l_quantity", Some(qty.unwrap()));
        let err = q6_parallel(&f64_qty, 1000, VmConfig::default(), opts).unwrap_err();
        assert_eq!(
            err,
            VmError::InputType {
                buffer: "l_qty".into(),
                expected: ScalarType::I64,
                found: ScalarType::F64,
            }
        );
    }

    #[test]
    fn adaptive_q6_over_borrowed_windows_matches_interpretation_with_a_short_tail() {
        // Not chunk-aligned: the last morsel is short and ends mid-chunk,
        // so its windows clamp where the table ends.
        let t = tpch::lineitem(10 * DEFAULT_CHUNK + 333, 5);
        let config = |strategy| VmConfig {
            strategy,
            hot_threshold: 2,
            ..VmConfig::default()
        };
        for workers in [1usize, 2, 4] {
            let opts = ParallelOpts::new(workers, 4 * DEFAULT_CHUNK);
            let (oracle, _) = q6_parallel(&t, 1000, config(Strategy::Interpret), opts).unwrap();
            let (rev, report) = q6_parallel(&t, 1000, config(Strategy::Adaptive), opts).unwrap();
            assert_eq!(rev.to_bits(), oracle.to_bits(), "workers={workers}");
            assert_eq!(report.morsels, 3, "workers={workers}");
            assert!(report.trace_executions > 0, "{report:?}");
            assert_eq!(report.fallbacks, 0, "{report:?}");
        }
    }

    #[test]
    fn q18_matches_reference_under_both_distributions() {
        for dist in [tpch::KeyDist::Uniform, tpch::KeyDist::Zipf] {
            let li = tpch::lineitem_q18(20_000, 500, dist, 7);
            let orders = tpch::orders(500, 7);
            let expected = tpch::q18_reference(&li, &orders, 900.0);
            assert!(!expected.is_empty(), "threshold must keep some groups");
            for workers in [1usize, 4] {
                let opts = ParallelOpts {
                    workers,
                    morsel_rows: 1024,
                    ..ParallelOpts::default()
                };
                let (rows, _) = q18_parallel(&li, &orders, 900.0, opts).unwrap();
                assert_eq!(rows.len(), expected.len());
                for (a, b) in rows.iter().zip(&expected) {
                    assert_eq!(a.o_orderkey, b.o_orderkey);
                    assert_eq!(a.o_orderdate, b.o_orderdate);
                    assert_eq!(a.line_count, b.line_count);
                    assert_eq!(a.total_qty.to_bits(), b.total_qty.to_bits());
                }
            }
        }
    }

    #[test]
    fn q9_matches_reference_under_both_distributions() {
        for dist in [tpch::KeyDist::Uniform, tpch::KeyDist::Zipf] {
            let data = tpch::q9_data(20_000, 200, 64, 8, dist, 11);
            let expected = tpch::q9_reference(&data);
            assert!(!expected.is_empty());
            for bloom in [false, true] {
                for workers in [1usize, 4] {
                    let opts = ParallelOpts {
                        workers,
                        morsel_rows: 512,
                        ..ParallelOpts::default()
                    };
                    let (rows, _) = q9_parallel(&data, 4096, bloom, 2, opts).unwrap();
                    assert_eq!(
                        rows, expected,
                        "dist={dist:?} bloom={bloom} workers={workers}"
                    );
                }
            }
        }
    }
}
