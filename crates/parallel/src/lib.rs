//! Morsel-driven parallel execution for the adaptive VM.
//!
//! The paper's engine (see [`adaptvm_vm`]) is chunk-at-a-time, which is
//! already morsel-shaped: columnar row ranges are natural work units. This
//! crate adds the missing intra-query parallelism in the style of HyPer's
//! morsel-driven parallelism (Leis et al., SIGMOD 2014):
//!
//! * [`budget`] — [`MemoryBudget`]: the byte-accounted, shareable memory
//!   budget out-of-core operators charge before materializing state (and
//!   spill against when the charge fails typed),
//! * [`morsel`] — [`Morsel`]/[`MorselPlan`]: fixed-size, order-indexed
//!   horizontal slices of tables/columns/selections,
//! * [`dispatch`] — [`Dispatcher`]: contiguous per-worker runs with
//!   back-of-queue work stealing (locality first, no idle workers under
//!   skew),
//! * [`join`] — [`build_then_probe`]: the generic two-phase join driver
//!   (partitioned build merged in morsel order, shared read-only probe),
//! * [`spillable`] — [`SpillableOp`]/[`run_spillable`]: the
//!   **operator-generic out-of-core driver** behind every budgeted
//!   operator (grace-hash joins with probe-side spill, out-of-core
//!   aggregation, external merge sort): morsel-parallel partitioning,
//!   a sequential charge phase that spills what the budget refuses, an
//!   optional consume phase, and a sequential settle phase resolving
//!   spilled runs ([`SpillStats`], with cancellation checked between
//!   spill runs via [`spillable::SpillCheckpoint`]),
//! * [`scratch`] — pooled partition scratch arenas with touched-only
//!   reset (steady-state serving re-partitions spilled runs without
//!   per-frame allocation),
//! * [`pool`] — [`Runner::run`]: **the** blocking way to run a task per
//!   morsel, on scoped worker threads, a long-lived [`Scheduler`], or a
//!   [`QueryService`] — results assembled in morsel order, first error
//!   aborts, cancellation and admission rejection typed ([`RunError`]),
//! * [`scheduler`] — [`Scheduler`]: a **long-lived** worker pool (threads
//!   created once, parked between queries) with a query submission queue,
//!   concurrent multi-query execution, per-query [`CancelToken`]s and
//!   deadlines checked at morsel boundaries, explicit shutdown with typed
//!   submission errors, one shared JIT code cache across all queries, and
//!   profile-driven morsel-size elasticity,
//! * [`serve`] — [`serve::QueryService`]: the **admission-controlled
//!   serving layer** over a scheduler — bounded per-priority queues
//!   (Interactive/Normal/Batch) with typed backpressure, weighted-fair
//!   stride dispatch with aging (Batch never starves, Interactive wins
//!   under load), cancellation and deadlines for queued *and* running
//!   queries, graceful drain, per-priority latency/rejection telemetry —
//!   and **multi-tenancy** ([`serve::tenant`]): per-tenant quotas
//!   (weighted admission share, in-flight and queue-depth caps, shared
//!   [`MemoryBudget`]s), overload shedding (Batch before Normal before
//!   Interactive), elastic concurrency, and a plain-text metrics
//!   exposition ([`serve::telemetry::render_text`]),
//! * [`obs`] — [`Trace`]/[`QueryProfile`]: the opt-in query tracing
//!   subsystem — per-worker lock-free event rings recording typed spans
//!   (morsels, JIT decisions, spill I/O, budget traffic, admission),
//!   merged post-query in deterministic `(lane, seq)` order, exported as
//!   Chrome trace-event JSON or a text summary,
//! * [`exec`] — [`run_vm`]: one program instance per morsel on any
//!   [`Runner`], each on a private `Env`/interpreter, all sharing one JIT
//!   code cache (the scheduler's when there is one — compile once, inject
//!   everywhere, across queries) and merging their profiles into one run
//!   profile.
//!
//! ## Determinism
//!
//! Parallel results are **independent of worker count and scheduling**:
//! a morsel's result depends only on its row range (workers share no
//! mutable query state), and every merge — output buffers, aggregate
//! partials, profiles — happens in morsel order. With chunk-aligned
//! morsels ([`MorselPlan::chunk_aligned`]) a parallel run reproduces the
//! *same chunk boundaries* as a sequential run, so even floating-point
//! accumulations are bit-identical to single-threaded execution; see
//! `adaptvm_relational::parallel` for the TPC-H pipelines built on this.
//!
//! ## What is shared, what is not
//!
//! Shared (thread-safe, `Arc`): the JIT [`adaptvm_jit::CodeCache`], the
//! [`Dispatcher`]. Per-worker: the
//! `Env`, the interpreter, flavor policies, per-morsel buffers. The
//! profile is per-morsel during execution and merged afterwards —
//! contention-free profiling with a single combined signal for the
//! adaptive machinery.

pub mod budget;
pub mod dispatch;
pub mod exec;
pub mod join;
pub mod morsel;
pub mod obs;
pub mod pool;
pub mod scheduler;
pub mod scratch;
pub mod serve;
pub mod spillable;

pub use budget::{BudgetExceeded, BudgetLease, MemoryBudget};
pub use dispatch::{DispatchStats, Dispatcher};
pub use exec::{run_vm, ParallelRunReport};
pub use join::{build_then_probe, BuildProbeStats};
pub use morsel::{Morsel, MorselPlan, DEFAULT_MORSEL_ROWS};
pub use obs::{ClockMode, EventKind, ProfileRollup, QueryProfile, Trace, TraceEvent};
pub use pool::Runner;
pub use scheduler::{
    CancelReason, CancelToken, ElasticityConfig, MorselElasticity, ProfileWindow, QueryError,
    QueryHandle, QueryOutcomeKind, RunError, Scheduler, SchedulerStats, SubmitError, SubmitOptions,
};
pub use scratch::{acquire_scratch, scratch_stats, Scratch, ScratchLease, ScratchStats};
pub use serve::{
    render_text, AdmissionError, DrainReport, GateError, Priority, PriorityStats, QueryService,
    ServeConfig, ServeHandle, ServiceStats, SubmitOpts, TenantId, TenantQuota, TenantRegistry,
    TenantStats,
};
pub use spillable::{run_spillable, SpillCheckpoint, SpillStats, SpillableOp};
