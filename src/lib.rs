//! # adaptvm — an adaptive VM combining vectorized and JIT execution
//!
//! A from-scratch Rust reproduction of *"Designing an adaptive VM that
//! combines vectorized and JIT execution on heterogeneous hardware"*
//! (Tim Gubner, ICDE 2018 PhD symposium).
//!
//! The system, bottom to top:
//!
//! * [`storage`] — columnar arrays, selection vectors/bitmaps, per-block
//!   compression (RLE/dictionary/frame-of-reference/delta), data
//!   generators, and on-disk spill runs (`storage::spill`) for the
//!   out-of-core operators,
//! * [`dsl`] — the data-parallel skeleton language of §II (Table I) with
//!   control flow, a parser/printer, a type checker, normalization,
//!   deforestation/fusion, chunk-size manipulation and the §III-B greedy
//!   dependency-graph partitioner (Fig. 3),
//! * [`kernels`] — pre-compiled vectorized primitives in micro-adaptive
//!   flavors (§III-A, §III-C),
//! * [`jit`] — the fusion JIT: trace IR, real optimization passes,
//!   calibrated compile-cost model, code cache (§III-B),
//! * [`hetsim`] — the simulated heterogeneous device substrate and the
//!   adaptive placement policy over it (§IV target 3); a leaf that the VM
//!   does not use,
//! * [`vm`] — the Fig. 1 state machine engine (every injected trace is
//!   compiled synchronously and runs on the host), profiler,
//!   micro-adaptive bandits and operator reordering (§III),
//! * [`parallel`] — morsel-driven parallel execution: work-stealing morsel
//!   dispatch, per-worker interpreters sharing one JIT code cache and one
//!   merged profile (HyPer-style intra-query parallelism over the
//!   chunk-at-a-time engine), plus a long-lived worker pool + query
//!   scheduler (`parallel::scheduler`) that executes many queries
//!   concurrently over one parked worker set and one shared JIT code
//!   cache — with per-query cancel tokens and
//!   deadlines checked at morsel boundaries and an explicit, typed
//!   shutdown path,
//! * [`parallel::serve`] — the **admission-controlled serving layer**:
//!   `QueryService` fronts a scheduler with bounded per-priority queues
//!   (Interactive / Normal / Batch) and typed backpressure
//!   (`AdmissionError::QueueFull`), weighted-fair stride dispatch with
//!   aging (Interactive wins under load, Batch never starves),
//!   cancellation/deadlines for queued *and* running queries, graceful
//!   `drain`, and per-priority latency/rejection telemetry
//!   (`ServiceStats`) — every `relational::parallel` entry point runs
//!   through it unchanged (`ParallelOpts::with_service`), bit-identical
//!   to direct scheduler submission. The **multi-tenant layer**
//!   (`parallel::serve::tenant`) adds per-tenant quotas (weighted
//!   admission share, in-flight/queue-depth caps, shared memory
//!   budgets), overload shedding (Batch → Normal, never Interactive),
//!   elastic concurrency, and a plain-text metrics exposition
//!   (`parallel::serve::render_text`),
//! * [`relational`] — operators, adaptive aggregation/joins (integer and
//!   Utf8 keys, including mixed-key adaptive chains), compressed scans
//!   and the TPC-H Q1/Q3/Q6 workloads the paper's motivation cites —
//!   each with morsel-parallel variants in `relational::parallel`,
//! * [`relational::spill`] + [`relational::sort`] — the **out-of-core**
//!   regime on the operator-generic `parallel::SpillableOp` protocol:
//!   grace-hash joins (build *and* probe side spilled), out-of-core
//!   hash aggregation, and an external merge sort with budgeted top-k,
//!   all governed by a byte-accounted `parallel::MemoryBudget` (a
//!   tenant's registered budget reaches every operator), partitions
//!   spilling to disk runs and recursively re-partitioning until they
//!   fit — bit-identical to the in-memory operators at every budget
//!   and worker count, with cancellation honored between spill runs.
//!
//! ## Quickstart
//!
//! ```
//! use adaptvm::prelude::*;
//!
//! // The paper's Fig. 2 program: double every input, keep positives.
//! let program = adaptvm::dsl::programs::fig2_with_limit(65_536);
//! let data: Vec<i64> = (0..70_000).map(|i| i - 35_000).collect();
//! let buffers = Buffers::new().with_input("some_data", Array::from(data));
//!
//! let vm = Vm::adaptive(); // interpret → profile → JIT hot regions
//! let (out, report) = vm.run(&program, buffers).unwrap();
//! assert_eq!(out.output("v").unwrap().len(), 65_536);
//! assert!(report.injected_traces > 0); // hot loop got JIT-compiled
//! ```

pub use adaptvm_dsl as dsl;
pub use adaptvm_hetsim as hetsim;
pub use adaptvm_jit as jit;
pub use adaptvm_kernels as kernels;
pub use adaptvm_parallel as parallel;
pub use adaptvm_relational as relational;
pub use adaptvm_storage as storage;
pub use adaptvm_vm as vm;

/// The most common imports in one place.
pub mod prelude {
    pub use adaptvm_dsl::parser::{parse_expr, parse_program};
    pub use adaptvm_dsl::transform::ChunkSize;
    pub use adaptvm_dsl::{Expr, Program, Stmt};
    pub use adaptvm_hetsim::device::DeviceSpec;
    pub use adaptvm_jit::compiler::CostModel;
    pub use adaptvm_kernels::{FilterFlavor, MapMode};
    pub use adaptvm_parallel::{
        CancelToken, MemoryBudget, Morsel, MorselPlan, Priority, QueryService, Runner, Scheduler,
        ServeConfig, TenantQuota, TenantRegistry,
    };
    pub use adaptvm_storage::{Array, Scalar, ScalarType};
    pub use adaptvm_vm::{BanditPolicy, Buffers, RunReport, Strategy, Vm, VmConfig};
}
