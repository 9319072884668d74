//! The benchmark's vocabulary: workloads and metrics by name, with unit,
//! direction and regression bound. `BENCHMARK.json` must say the same
//! (`check` compares them); everything the harness prints is looked up
//! here.

/// Seconds one run measures (`run_seconds`): the driver passes it as
/// `--seconds`, and it is the default without that flag.
pub const RUN_SECONDS: f64 = 15.0;

/// `(name, why)` per workload, in run order.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "q1_scan",
        "TPC-H Q1 vectorized on a scoped pool: kernels + storage scan only; bypasses vm, jit, dsl, serve and spill, so it is the no-change control for every VM/JIT change",
    ),
    (
        "q6_adaptive",
        "TPC-H Q6 through the adaptive VM on one long-lived scheduler with a warm shared code cache: vm interpretation + jit install/execution in steady state",
    ),
    (
        "vm_cold",
        "compile DSL text and run it once over 16 chunks with a fresh code cache at 1/50/99 % selectivity: front end + jit compile dominate; compiling harder helps q6_adaptive and hurts here",
    ),
    (
        "q9_join",
        "TPC-H Q9 mixed-key join chain (two i64 sides, one Utf8 side, Bloom, reordering) under Zipf keys: relational joins only; bypasses vm, jit and spill",
    ),
    (
        "q18_resident",
        "TPC-H Q18 spillable group-by with an unlimited budget: the SpillableOp protocol on its resident path, zero spill bytes; control for spill-path changes",
    ),
    (
        "q18_spill",
        "the same Q18 under a budget that lets half of the partitions stay resident and spills the other half: spill codec, scratch arenas and charge/settle on top of the resident path",
    ),
    (
        "serve_mix",
        "open-loop Poisson arrivals (60 % Q6, 30 % Q1, 10 % budgeted Q18) through one QueryService at 35 % of the capacity measured in the same run: admission, stride dispatch and queueing",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, unit, better, bound)`: what a user of the engine sees. The
/// bound is the share of the parent's median by which the metric may get
/// worse before a change counts as a regression. One bound covers all
/// workloads, so the noisiest sets it, and every bound is the largest the
/// manifest may carry: the reference box is two cores of a shared host
/// whose speed drifts by a fifth within the hour (README, "End-to-end
/// metrics", has the spreads measured on it).
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("latency_p50_ms", "ms", Lower, 0.25),
    ("latency_p95_ms", "ms", Lower, 0.25),
    ("rows_per_s", "rows/s", Higher, 0.25),
    ("setup_s", "s", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.25),
];

/// `(name, unit, better)`: single-layer metrics, no bound. A metric reads
/// 0 on a workload in which its layer does no work.
pub const PER_LAYER: [(&str, &str, Better); 79] = [
    ("storage.scan_gb_per_s", "GB/s", Higher),
    ("storage.spill_write_mb_per_s", "MB/s", Higher),
    ("storage.spill_read_mb_per_s", "MB/s", Higher),
    ("storage.spill_bytes_written", "bytes", Lower),
    ("storage.spill_bytes_read", "bytes", Lower),
    ("storage.spill_amplification", "ratio", Lower),
    ("dsl.parse_us", "us", Lower),
    ("dsl.typecheck_us", "us", Lower),
    ("dsl.normalize_us", "us", Lower),
    ("dsl.fuse_us", "us", Lower),
    ("dsl.frontend_us", "us", Lower),
    ("kernels.filter_ns_per_row", "ns", Lower),
    ("kernels.map_ns_per_row", "ns", Lower),
    ("kernels.fold_ns_per_row", "ns", Lower),
    ("kernels.flavor_spread", "ratio", Lower),
    ("ceiling.mem_bw_gb_per_s", "GB/s", Higher),
    ("ceiling.scalar_loop_ns_per_row", "ns", Lower),
    ("ceiling.e2e_share", "ratio", Higher),
    ("jit.compile_us", "us", Lower),
    ("jit.trace_interp_ns_per_row", "ns", Lower),
    ("jit.trace_native_ns_per_row", "ns", Lower),
    ("jit.compiles", "count", Lower),
    ("jit.cache_hits", "count", Higher),
    ("jit.async_submits", "count", Lower),
    ("jit.deopts", "count", Lower),
    ("jit.native_installs", "count", Lower),
    ("jit.native_deopts", "count", Lower),
    ("jit.trace_executions", "count", Higher),
    ("jit.native_executions", "count", Higher),
    ("jit.installs_per_native_execution", "ratio", Lower),
    ("vm.interpret_ms", "ms", Lower),
    ("vm.compiled_ms", "ms", Lower),
    ("vm.adaptive_ms", "ms", Lower),
    ("vm.adaptive_over_best", "ratio", Higher),
    ("vm.interpreted_nodes", "count", Lower),
    ("vm.injected_traces", "count", Higher),
    ("vm.fallbacks", "count", Lower),
    ("vm.traced_share", "ratio", Higher),
    ("vm.dispatch_ns_per_node", "ns", Lower),
    ("parallel.morsels", "count", Lower),
    ("parallel.stolen_share", "ratio", Lower),
    ("parallel.busy_share", "ratio", Higher),
    ("parallel.speedup", "ratio", Higher),
    ("parallel.submit_us", "us", Lower),
    ("parallel.scratch_reuse_share", "ratio", Higher),
    ("parallel.budget_charges", "count", Lower),
    ("parallel.budget_refusals", "count", Lower),
    ("parallel.resizes", "count", Lower),
    ("serve.admit_us", "us", Lower),
    ("serve.queue_wait_p50_ms", "ms", Lower),
    ("serve.queue_wait_p95_ms", "ms", Lower),
    ("serve.latency_p95_ms.normal", "ms", Lower),
    ("serve.latency_p95_ms.batch", "ms", Lower),
    ("serve.capacity_qps", "1/s", Higher),
    ("serve.offered_qps", "1/s", Higher),
    ("serve.refused", "count", Lower),
    ("serve.shed", "count", Lower),
    ("serve.worker_utilisation", "ratio", Lower),
    ("serve.generator_lag_p95_ms", "ms", Lower),
    ("serve.rate_ok_qps", "1/s", Higher),
    ("relational.join_build_ms", "ms", Lower),
    ("relational.join_probe_ms", "ms", Lower),
    ("relational.reorders", "count", Lower),
    ("relational.agg_ms", "ms", Lower),
    ("relational.finish_ms", "ms", Lower),
    ("relational.partitions_spilled", "count", Lower),
    ("relational.runs_written", "count", Lower),
    ("relational.max_recursion_depth", "count", Lower),
    ("relational.forced_builds", "count", Lower),
    ("trace.overhead_share", "ratio", Lower),
    ("trace.events", "count", Lower),
    ("trace.dropped", "count", Lower),
    ("trace.unattributed_share", "ratio", Lower),
    ("selftime.dsl_ms", "ms", Lower),
    ("selftime.kernels_ms", "ms", Lower),
    ("selftime.vm_ms", "ms", Lower),
    ("selftime.relational_ms", "ms", Lower),
    ("selftime.serve_ms", "ms", Lower),
    ("selftime.bench_ms", "ms", Lower),
];

/// `(layer, metric)`: layers whose spans the traced run records, and the
/// metric that carries each one's blocking-path self time.
pub const SPAN_LAYERS: [(&str, &str); 6] = [
    ("dsl", "selftime.dsl_ms"),
    ("kernels", "selftime.kernels_ms"),
    ("vm", "selftime.vm_ms"),
    ("relational", "selftime.relational_ms"),
    ("serve", "selftime.serve_ms"),
    ("bench", "selftime.bench_ms"),
];

/// Counters that must repeat exactly between two runs of the same seed
/// on a closed-loop workload (`aa` asserts it).
pub const EXACT_COUNTERS: [&str; 4] = [
    "storage.spill_bytes_written",
    "storage.spill_bytes_read",
    "relational.partitions_spilled",
    "parallel.morsels",
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(n, _)| *n == name)
}

/// Unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(n, u, ..)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
