//! Integration tests for the unified query tracing subsystem
//! (`adaptvm::parallel::obs`): the acceptance path (one TPC-H query
//! through the admission-controlled service yields a profile with
//! admission, morsel, JIT, and spill events), a byte-stable Chrome
//! trace-event golden, and the determinism contracts — merged profiles
//! fingerprint-identical across worker counts and repeated runs, and
//! traced runs bit-identical to untraced ones.

use adaptvm::parallel::serve::{QueryService, ServeConfig};
use adaptvm::parallel::{EventKind, MemoryBudget, Priority, ProfileRollup, Trace};
use adaptvm::relational::parallel::{
    q18_parallel, q18_parallel_vm, q1_parallel_vectorized, q3_parallel, q6_parallel, ParallelOpts,
};
use adaptvm::relational::tpch::{self, KeyDist};
use adaptvm::relational::workload::Workload;
use adaptvm::storage::{Array, ScalarType, DEFAULT_CHUNK};
use adaptvm::vm::{Strategy, VmConfig};
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn q18_bits(rows: &[tpch::Q18Row]) -> Vec<(i64, i64, u64, i64)> {
    rows.iter()
        .map(|r| {
            (
                r.o_orderkey,
                r.o_orderdate,
                r.total_qty.to_bits(),
                r.line_count,
            )
        })
        .collect()
}

fn q1_bits(rows: &[tpch::Q1Row]) -> Vec<(i64, i64, u64, u64, u64, u64)> {
    rows.iter()
        .map(|r| {
            (
                r.group,
                r.count,
                r.sum_qty.to_bits(),
                r.sum_base.to_bits(),
                r.sum_disc_price.to_bits(),
                r.sum_charge.to_bits(),
            )
        })
        .collect()
}

/// The acceptance path: TPC-H Q18 through the admission-controlled
/// service, with a budget tight enough to spill and the HAVING clause
/// re-evaluated through the adaptive VM. One traced call must produce
/// admission, morsel, JIT, budget, and spill events in a single merged
/// profile — and the traced result must still match the sequential
/// reference bit for bit.
#[test]
fn traced_q18_through_service_captures_every_family() {
    let service = QueryService::new(
        ServeConfig::default()
            .with_workers(2)
            .with_max_concurrent(2),
    );
    let orders = tpch::orders(256, 7);
    let li = tpch::lineitem_q18(20_000, 256, KeyDist::Zipf, 11);
    let reference = q18_bits(&tpch::q18_reference(&li, &orders, 900.0));
    assert!(!reference.is_empty(), "degenerate reference");

    let budget = MemoryBudget::bytes(4_000);
    let trace = Trace::new();
    // Small chunks over the ~256 group sums give the VM loop enough
    // iterations to cross the hot threshold and JIT the HAVING fragment.
    let config = VmConfig {
        chunk_size: 64,
        strategy: Strategy::Adaptive,
        hot_threshold: 2,
        ..VmConfig::default()
    };
    let opts = ParallelOpts::served(&service, Priority::Normal)
        .with_budget(&budget)
        .with_trace(&trace);
    let (rows, spill) = q18_parallel_vm(&li, &orders, 900.0, config, opts).unwrap();
    assert_eq!(q18_bits(&rows), reference);
    assert!(spill.spilled(), "{spill:?}: the 4 kB budget must spill");

    let profile = trace.profile();
    assert_eq!(profile.dropped, 0, "no lane overflowed");
    let r = profile.rollup();
    assert!(r.submitted >= 1, "service admission recorded: {r:?}");
    assert!(r.admitted >= 1, "{r:?}");
    assert!(r.dispatched >= 1, "{r:?}");
    assert!(r.completed >= 1, "{r:?}");
    assert!(r.morsels > 0, "morsel execution recorded: {r:?}");
    assert!(r.rows > 0, "{r:?}");
    assert!(
        r.jit_compiles + r.jit_cache_hits > 0,
        "the VM leg must compile (or cache-inject) the HAVING fragment: {r:?}"
    );
    assert!(r.budget_refusals > 0, "the tight budget refused: {r:?}");
    assert!(r.spill_writes > 0 && r.spill_reads > 0, "{r:?}");
    assert_eq!(
        r.spill_bytes_written, spill.bytes_written,
        "profile and SpillStats agree on bytes out"
    );
    // Spill I/O carries operator attribution from the aggregate.
    assert!(
        profile.any(|k| matches!(k, EventKind::SpillWrite { op: "agg", .. })),
        "spill writes are attributed to the aggregate"
    );
    assert!(profile.any(|k| matches!(k, EventKind::SpillRead { op: "agg", .. })));
    // The exports render without panicking and carry the event stream.
    let summary = profile.summary();
    assert!(summary.contains("query profile:"), "{summary}");
    let json = profile.chrome_trace();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"cat\":\"spill\""));
    assert!(json.contains("\"cat\":\"serve\""));
    service.shutdown();
}

/// What every served, traced VM pipeline must leave in its rollup: the
/// admission lifecycle, executed morsels, and JIT work.
fn assert_served_and_jitted(r: &ProfileRollup) {
    assert!(r.submitted >= 1, "service admission recorded: {r:?}");
    assert!(r.admitted >= 1, "{r:?}");
    assert!(r.dispatched >= 1, "{r:?}");
    assert!(r.completed >= 1, "{r:?}");
    assert!(r.morsels > 0, "morsel execution recorded: {r:?}");
    assert!(
        r.jit_compiles + r.jit_cache_hits > 0,
        "the hot loop must compile (or cache-inject) a trace: {r:?}"
    );
}

/// The VM pipelines hand the caller's trace to the service: a served,
/// traced `q6_parallel` and a served, traced `Workload::run` record
/// admission, morsel and JIT events into that trace, and their results
/// are bit-identical to untraced scoped runs.
#[test]
fn traced_vm_pipelines_through_service_record_admission_and_jit() {
    let service = QueryService::new(ServeConfig::default().with_workers(2));
    let config = VmConfig {
        strategy: Strategy::Adaptive,
        hot_threshold: 2,
        ..VmConfig::default()
    };
    let scoped = ParallelOpts::new(2, 4 * DEFAULT_CHUNK);
    let served = scoped.with_service(&service, Priority::Normal);

    // Q6: one VM program per morsel; four chunks per morsel go hot.
    let t = tpch::lineitem(16 * DEFAULT_CHUNK, 5);
    let (untraced, _) = q6_parallel(&t, 1000, config.clone(), scoped).unwrap();
    let trace = Trace::new();
    let (traced, _) = q6_parallel(&t, 1000, config.clone(), served.with_trace(&trace)).unwrap();
    assert_eq!(traced.to_bits(), untraced.to_bits(), "Q6 served + traced");
    assert_served_and_jitted(&trace.profile().rollup());

    // A DSL workload: one VM task whose chunk loop goes hot.
    let rows = 8 * DEFAULT_CHUNK;
    let src = format!(
        "mut i\nmut s\ni := 0\ns := 0\nloop {{\n  let x = read i xs in {{\n    \
         let t = fold sum 0 (map (\\a -> a * 3) x) in {{\n      s := s + t\n      \
         i := i + len(x)\n    }}\n  }}\n  if i >= {rows} then {{ break }}\n}}\nwrite out 0 s\n"
    );
    let workload =
        Workload::compile(&src, &[("xs", ScalarType::I64), ("out", ScalarType::I64)]).unwrap();
    let inputs = [("xs", Array::from((0..rows as i64).collect::<Vec<_>>()))];
    let oracle = workload.run_seq(&inputs, config.clone()).unwrap();
    let trace = Trace::new();
    let (out, _) = workload
        .run(&inputs, config, served.with_trace(&trace))
        .unwrap();
    assert_eq!(out, oracle, "Workload::run served + traced");
    assert_served_and_jitted(&trace.profile().rollup());
    service.shutdown();
}

/// The Chrome trace-event export golden: a single-worker Q1 run under a
/// logical clock is a pure function of the plan, so its JSON export is
/// byte-stable. Any change to the export format is a deliberate golden
/// update, not drift.
#[test]
fn chrome_trace_export_matches_golden() {
    let t = tpch::lineitem(4 * DEFAULT_CHUNK, 42);
    let trace = Trace::logical();
    let opts = ParallelOpts::new(1, DEFAULT_CHUNK).with_trace(&trace);
    q1_parallel_vectorized(&t, DEFAULT_CHUNK, opts).unwrap();
    let got = trace.profile().chrome_trace();
    let want = include_str!("golden/obs_chrome_trace.json").trim_end();
    assert_eq!(got, want, "Chrome trace export drifted from the golden");
}

/// Tracing must never change results: traced and untraced runs of Q1,
/// Q3, and (spilling) Q18 are bit-identical.
#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    // Q1: chunk-ordered merge, bit-exact at any worker count.
    let li_q1 = tpch::lineitem(30_000, 42);
    let untraced = q1_bits(
        &q1_parallel_vectorized(&li_q1, DEFAULT_CHUNK, ParallelOpts::new(4, 5_000)).unwrap(),
    );
    let trace = Trace::new();
    let traced = q1_bits(
        &q1_parallel_vectorized(
            &li_q1,
            DEFAULT_CHUNK,
            ParallelOpts::new(4, 5_000).with_trace(&trace),
        )
        .unwrap(),
    );
    assert_eq!(traced, untraced, "Q1 traced vs untraced");
    assert!(
        trace.profile().rollup().morsels > 0,
        "Q1 was actually traced"
    );

    // Q3: integer fixed-point revenue through the partitioned hash join.
    let li_q3 = tpch::lineitem_q3(25_000, 4_000, 77);
    let ord = tpch::orders(4_000, 77);
    let date = tpch::SHIPDATE_MAX / 2;
    let (rev_untraced, _) = q3_parallel(
        &li_q3,
        &ord,
        date,
        tpch::JoinStrategy::Adaptive,
        DEFAULT_CHUNK,
        false,
        ParallelOpts::new(4, 6_000),
    )
    .unwrap();
    let trace = Trace::new();
    let (rev_traced, _) = q3_parallel(
        &li_q3,
        &ord,
        date,
        tpch::JoinStrategy::Adaptive,
        DEFAULT_CHUNK,
        false,
        ParallelOpts::new(4, 6_000).with_trace(&trace),
    )
    .unwrap();
    assert_eq!(
        rev_traced.to_bits(),
        rev_untraced.to_bits(),
        "Q3 traced vs untraced"
    );
    assert!(
        trace.profile().rollup().morsels > 0,
        "Q3 was actually traced"
    );

    // Q18 under a tight budget: the traced run must take the same spill
    // decisions and produce the same rows.
    let orders = tpch::orders(64, 3);
    let li = tpch::lineitem_q18(6_000, 64, KeyDist::Zipf, 4);
    let budget = MemoryBudget::bytes(3_000);
    let (rows_untraced, spill_untraced) = q18_parallel(
        &li,
        &orders,
        120.0,
        ParallelOpts::new(4, 1_024).with_budget(&budget),
    )
    .unwrap();
    let trace = Trace::new();
    let (rows_traced, spill_traced) = q18_parallel(
        &li,
        &orders,
        120.0,
        ParallelOpts::new(4, 1_024)
            .with_budget(&budget)
            .with_trace(&trace),
    )
    .unwrap();
    assert_eq!(q18_bits(&rows_traced), q18_bits(&rows_untraced));
    assert_eq!(
        spill_traced.bytes_written, spill_untraced.bytes_written,
        "tracing must not change spill decisions"
    );
    assert!(
        spill_traced.spilled(),
        "the budget actually forced spilling"
    );
    let r = trace.profile().rollup();
    assert!(r.spill_writes > 0, "Q18 spill traffic was actually traced");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The merged profile's deterministic fingerprint — morsel work,
    /// spill frames, budget traffic, admission outcomes — is identical
    /// across repeated runs at 1, 2, 4, and 8 workers. (Budget and spill
    /// events are deterministic because the spillable driver charges and
    /// settles sequentially in morsel order.)
    #[test]
    fn q18_profile_fingerprint_is_worker_and_run_invariant(seed in 0u64..32) {
        let orders = tpch::orders(64, seed);
        let li = tpch::lineitem_q18(6_000, 64, KeyDist::Zipf, seed.wrapping_add(1));
        let budget = MemoryBudget::bytes(3_000);
        let mut reference: Option<Vec<String>> = None;
        for workers in WORKER_COUNTS {
            for run in 0..2 {
                let trace = Trace::new();
                let opts = ParallelOpts::new(workers, 1_024)
                    .with_budget(&budget)
                    .with_trace(&trace);
                q18_parallel(&li, &orders, 120.0, opts).unwrap();
                let fp = trace.profile().fingerprint();
                prop_assert!(!fp.is_empty(), "empty fingerprint");
                match &reference {
                    None => reference = Some(fp),
                    Some(r) => prop_assert_eq!(
                        &fp, r,
                        "fingerprint diverged at workers={} run={}", workers, run
                    ),
                }
            }
        }
    }

    /// Q1's fingerprint is likewise run- and worker-invariant — the
    /// pure in-memory pipeline records exactly one morsel line per plan
    /// entry, independent of who executed it.
    #[test]
    fn q1_profile_fingerprint_is_worker_and_run_invariant(seed in 0u64..32) {
        let t = tpch::lineitem(8_000, seed);
        let mut reference: Option<Vec<String>> = None;
        for workers in WORKER_COUNTS {
            for _run in 0..2 {
                let trace = Trace::new();
                let opts = ParallelOpts::new(workers, 1_024).with_trace(&trace);
                q1_parallel_vectorized(&t, DEFAULT_CHUNK, opts).unwrap();
                let fp = trace.profile().fingerprint();
                prop_assert_eq!(fp.len(), 8, "8 morsels of 1024 rows");
                match &reference {
                    None => reference = Some(fp),
                    Some(r) => prop_assert_eq!(&fp, r, "workers={}", workers),
                }
            }
        }
    }
}
