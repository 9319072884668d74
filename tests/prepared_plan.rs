//! Prepare once, optimize once: `Vm::prepare` + `Vm::run_prepared` and the
//! hot plan the runs of one query share.
//!
//! * `Vm::run` *is* `prepare` + `run_prepared` — same outputs, same report.
//! * Morsel-parallel queries over one shared `Prepared` stay bit-identical
//!   to the sequential oracle on every strategy × worker count × executor.
//! * Exactly one run of a query optimizes; every later run adopts the
//!   published plan and is traced from its first chunk.
//! * Racing runs publish one plan; nobody observes a torn one.
//! * A run whose adopted trace fails falls back on a private copy; the
//!   published plan is untouched.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use adaptvm::dsl::parser::parse_program;
use adaptvm::dsl::{programs, Program};
use adaptvm::parallel::Scheduler;
use adaptvm::relational::parallel::{q6_parallel, ParallelOpts};
use adaptvm::relational::tpch;
use adaptvm::relational::workload::Workload;
use adaptvm::storage::{Array, ScalarType, Table};
use adaptvm::vm::{Buffers, Prepared, RunReport, Strategy, Vm, VmConfig, VmState};

const STRATEGIES: [Strategy; 3] = [
    Strategy::Interpret,
    Strategy::CompiledPipeline,
    Strategy::Adaptive,
];

const DATE_LO: i64 = 1000;

/// Type tag plus one word per element: floats by bit pattern.
fn canon(a: &Array) -> (ScalarType, Vec<u64>) {
    let words = match a {
        Array::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        Array::Bool(v) => v.iter().map(|&b| b as u64).collect(),
        Array::Str(v) => v.iter().map(|s| s.len() as u64).collect(),
        ints => ints
            .to_i64_vec()
            .expect("integer array")
            .into_iter()
            .map(|x| x as u64)
            .collect(),
    };
    (a.scalar_type(), words)
}

/// Every output buffer, canonicalized, in name order.
fn outputs(buffers: Buffers) -> Vec<(String, (ScalarType, Vec<u64>))> {
    let mut out: Vec<_> = buffers
        .into_outputs()
        .into_iter()
        .map(|(name, a)| (name, canon(&a)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn has(report: &RunReport, state: VmState) -> bool {
    report.transitions.iter().any(|t| t.state == state)
}

/// The Q6 input buffers over rows `start..start + len` of `table`.
fn q6_buffers(table: &Table, start: usize, len: usize) -> Buffers<'static> {
    let column = |name: &str| {
        table
            .column_by_name(name)
            .expect("schema")
            .slice(start, len)
    };
    Buffers::new()
        .with_input("l_price", column("l_extendedprice"))
        .with_input("l_disc", column("l_discount"))
        .with_input("l_qty", column("l_quantity"))
        .with_input("l_ship", column("l_shipdate"))
}

fn q6_prepared(rows: usize) -> Prepared {
    Vm::prepare(
        &tpch::q6_program(rows as i64, DATE_LO),
        [
            ("l_price", ScalarType::F64),
            ("l_disc", ScalarType::F64),
            ("l_qty", ScalarType::I64),
            ("l_ship", ScalarType::I64),
        ],
    )
}

fn revenue_bits(out: &Buffers) -> u64 {
    out.output("revenue")
        .and_then(|a| a.as_f64())
        .and_then(|v| v.first().copied())
        .expect("f64 revenue output")
        .to_bits()
}

// ---------------------------------------------------------------------
// (a) one path
// ---------------------------------------------------------------------

/// Every program of `dsl::programs`, Q6 and the Q18 HAVING program, each
/// with inputs long enough for several chunks.
fn catalogue() -> Vec<(&'static str, Program, Buffers<'static>)> {
    let n = 6000usize;
    let ints: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 201 - 100).collect();
    let floats: Vec<f64> = (0..n).map(|i| (i % 97) as f64 * 0.5 - 7.25).collect();
    let xs = || Buffers::new().with_input("xs", Array::from(ints.clone()));
    let xy = || {
        xs().with_input(
            "ys",
            Array::from(ints.iter().map(|x| x * 3).collect::<Vec<_>>()),
        )
    };
    let table = tpch::lineitem(n, 7);
    vec![
        (
            "fig2_example",
            programs::fig2_example(),
            Buffers::new().with_input("some_data", Array::from(ints.clone())),
        ),
        (
            "fig2_with_limit",
            programs::fig2_with_limit(5000),
            Buffers::new().with_input("some_data", Array::from(ints.clone())),
        ),
        (
            "hypot_whole_array",
            programs::hypot_whole_array(),
            Buffers::new()
                .with_input("xs", Array::from(floats.clone()))
                .with_input("ys", Array::from(floats.clone())),
        ),
        ("saxpy", programs::saxpy(3, n as i64), xy()),
        ("filter_sum", programs::filter_sum(10, n as i64), xs()),
        ("map_chain", programs::map_chain(n as i64), xs()),
        ("sum_of_squares", programs::sum_of_squares(), xs()),
        (
            "q6",
            tpch::q6_program(n as i64, DATE_LO),
            q6_buffers(&table, 0, n),
        ),
        (
            "q18_having",
            tpch::q18_having_program(n as i64, 3.0),
            Buffers::new().with_input("sums", Array::from(floats.clone())),
        ),
    ]
}

#[test]
fn run_is_prepare_plus_run_prepared() {
    for (name, program, buffers) in catalogue() {
        for strategy in STRATEGIES {
            for chunk_size in [256usize, 1024] {
                // `hot_threshold: 1` optimizes before anything was timed,
                // so the partition — and with it every counter — is the
                // same in both runs; 3 partitions under measured costs.
                for hot_threshold in [1u64, 3] {
                    let what =
                        format!("{name} {strategy:?} chunk={chunk_size} hot={hot_threshold}");
                    let vm = Vm::new(VmConfig {
                        strategy,
                        chunk_size,
                        hot_threshold,
                        ..VmConfig::default()
                    });
                    let (out_run, r_run) = vm.run(&program, buffers.clone()).expect(&what);
                    let prepared = Vm::prepare(&program, buffers.input_types());
                    let (out_prep, r_prep) =
                        vm.run_prepared(&prepared, buffers.clone()).expect(&what);
                    assert_eq!(outputs(out_run), outputs(out_prep), "{what}");
                    assert_eq!(r_run.iterations, r_prep.iterations, "{what}");
                    assert_eq!(r_run.state_names(), r_prep.state_names(), "{what}");
                    assert_eq!(
                        r_run.profile.iterations, r_prep.profile.iterations,
                        "{what}"
                    );
                    if strategy == Strategy::Adaptive && hot_threshold > 1 {
                        continue;
                    }
                    assert_eq!(r_run.transitions, r_prep.transitions, "{what}");
                    let counters = |r: &RunReport| {
                        (
                            r.injected_traces,
                            r.trace_executions,
                            r.interpreted_nodes,
                            r.fallbacks,
                            r.trace_cache_hits,
                            r.compile_ns_total,
                        )
                    };
                    assert_eq!(counters(&r_run), counters(&r_prep), "{what}");
                }
            }
        }
    }
}

#[test]
fn a_prepared_program_is_shared_by_reference_across_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Prepared>();
}

// ---------------------------------------------------------------------
// (b) shared across the morsels of a query
// ---------------------------------------------------------------------

#[test]
fn q6_is_bit_identical_on_every_strategy_worker_count_and_executor() {
    let table = tpch::lineitem(40_000, 11);
    let chunk_size = 256;
    let morsel_rows = 16 * chunk_size;
    let config = |strategy| VmConfig {
        strategy,
        chunk_size,
        ..VmConfig::default()
    };
    let (oracle, _) = q6_parallel(
        &table,
        DATE_LO,
        config(Strategy::Interpret),
        ParallelOpts::new(1, morsel_rows),
    )
    .unwrap();
    for workers in [1usize, 2, 4, 8] {
        let scheduler = Scheduler::new(workers);
        for strategy in STRATEGIES {
            let scoped = ParallelOpts::new(workers, morsel_rows);
            for (executor, opts) in [
                ("scoped", scoped),
                ("scheduler", scoped.with_scheduler(&scheduler)),
            ] {
                let (revenue, report) =
                    q6_parallel(&table, DATE_LO, config(strategy), opts).unwrap();
                let what = format!("{strategy:?} workers={workers} {executor}");
                assert_eq!(revenue.to_bits(), oracle.to_bits(), "{what}");
                assert_eq!(report.fallbacks, 0, "{what}: {report:?}");
                if strategy != Strategy::Interpret {
                    assert!(report.trace_executions > 0, "{what}: {report:?}");
                }
            }
        }
    }
}

#[test]
fn q6_prepares_once_and_its_tail_morsel_runs_the_hot_plan() {
    let chunk_size = 256;
    let morsel_rows = 16 * chunk_size;
    let hot_threshold = 8u64;
    // Three full morsels and a tail of two full chunks plus a short one.
    let table = tpch::lineitem(3 * morsel_rows + 2 * chunk_size + 188, 7);
    let config = |strategy| VmConfig {
        strategy,
        chunk_size,
        hot_threshold,
        ..VmConfig::default()
    };
    let opts = ParallelOpts::new(1, morsel_rows);
    let (oracle, _) = q6_parallel(&table, DATE_LO, config(Strategy::Interpret), opts).unwrap();
    let (revenue, report) = q6_parallel(&table, DATE_LO, config(Strategy::Adaptive), opts).unwrap();
    assert_eq!(report.morsels, 4, "{report:?}");
    assert_eq!(report.fallbacks, 0, "{report:?}");
    // One program for the query: only the first morsel's first
    // `hot_threshold - 1` chunks are interpreted; every later chunk, the
    // tail morsel's included, runs the one whole-body trace.
    assert_eq!(
        report.trace_executions,
        report.iterations - (hot_threshold - 1),
        "{report:?}"
    );
    assert_eq!(revenue.to_bits(), oracle.to_bits());
    let reference = tpch::q6_reference(&table, DATE_LO);
    assert!(
        (revenue - reference).abs() <= 1e-9 * reference.abs().max(1.0),
        "{revenue} vs q6_reference {reference}"
    );
}

/// A chunk-local, loop-shaped program: triple-plus-one every row of its
/// slice; stops on the first empty chunk, so it fits any morsel length.
const PARTITIONED_SRC: &str = "
    mut i
    mut n
    i := 0
    n := 1
    loop {
      let x = read i xs in {
        let y = map (\\v -> v * 3 + 1) x in {
          write out i y
          i := i + len(x)
          n := len(x)
        }
      }
      if n == 0 then { break }
    }
";

#[test]
fn partitioned_workloads_are_bit_identical_on_every_worker_count_and_executor() {
    let schema = [("xs", ScalarType::I64), ("out", ScalarType::I64)];
    let workload = Workload::compile(PARTITIONED_SRC, &schema).unwrap();
    let rows = 20_000usize;
    let data = Array::from((0..rows as i64).map(|i| i * 7 - 900).collect::<Vec<_>>());
    let chunk_size = 128;
    let config = |strategy| VmConfig {
        strategy,
        chunk_size,
        hot_threshold: 4,
        ..VmConfig::default()
    };
    let oracle = workload
        .run_seq(&[("xs", data.clone())], config(Strategy::Interpret))
        .unwrap();
    assert_eq!(oracle["out"].len(), rows);
    for workers in [1usize, 2, 4, 8] {
        let scheduler = Scheduler::new(workers);
        for strategy in STRATEGIES {
            let scoped = ParallelOpts::new(workers, 12 * chunk_size);
            for (executor, opts) in [
                ("scoped", scoped),
                ("scheduler", scoped.with_scheduler(&scheduler)),
            ] {
                let (out, report) = workload
                    .run_partitioned(rows, &[("xs", data.clone())], config(strategy), opts)
                    .unwrap();
                let what = format!("{strategy:?} workers={workers} {executor}");
                assert_eq!(canon(&out["out"]), canon(&oracle["out"]), "{what}");
                if strategy != Strategy::Interpret {
                    assert!(report.trace_executions > 0, "{what}: {report:?}");
                }
            }
        }
    }
}

#[test]
fn one_run_optimizes_and_every_later_run_is_traced_from_its_first_chunk() {
    let chunk_size = 256;
    let morsel_rows = 16 * chunk_size;
    let morsels = 6;
    let table = tpch::lineitem(morsels * morsel_rows, 3);
    let hot_threshold = 8u64;
    let vm = Vm::new(VmConfig {
        chunk_size,
        hot_threshold,
        ..VmConfig::default()
    });
    let oracle_vm = Vm::new(VmConfig {
        chunk_size,
        strategy: Strategy::Interpret,
        ..VmConfig::default()
    });
    let prepared = q6_prepared(morsel_rows);
    assert_eq!(prepared.hot_traces(), None);
    let nodes = 16u64; // the normalized Q6 loop body
    let mut reports = Vec::new();
    for m in 0..morsels {
        let buffers = q6_buffers(&table, m * morsel_rows, morsel_rows);
        let (expect, _) = oracle_vm.run_prepared(&prepared, buffers.clone()).unwrap();
        let (out, report) = vm.run_prepared(&prepared, buffers).unwrap();
        assert_eq!(revenue_bits(&out), revenue_bits(&expect), "morsel {m}");
        assert_eq!(report.fallbacks, 0, "morsel {m}: {report:?}");
        reports.push(report);
    }
    // The interpreted oracle runs above never adopt and never publish.
    let first = &reports[0];
    assert_eq!(
        first.state_names(),
        ["interpret", "optimize", "generate_code", "inject_functions"]
    );
    let regions = first.injected_traces;
    assert!(regions > 0, "{first:?}");
    assert_eq!(prepared.hot_traces(), Some(regions));
    let iterations = first.iterations;
    assert_eq!(iterations, 16);
    let traced_iterations = iterations - hot_threshold + 1;
    assert_eq!(first.trace_executions, regions as u64 * traced_iterations);
    // Nodes no region covers, per iteration (Q6: none).
    let warmup = nodes * (hot_threshold - 1);
    assert_eq!((first.interpreted_nodes - warmup) % traced_iterations, 0);
    let uncovered = (first.interpreted_nodes - warmup) / traced_iterations;
    for (m, later) in reports.iter().enumerate().skip(1) {
        assert!(!has(later, VmState::Optimize), "morsel {m}: {later:?}");
        assert_eq!(
            later.state_names(),
            ["interpret", "inject_functions"],
            "morsel {m}"
        );
        assert_eq!(later.transitions[1].iteration, 1, "morsel {m}");
        assert_eq!(later.iterations, iterations, "morsel {m}");
        assert_eq!(later.injected_traces, regions, "morsel {m}");
        assert_eq!(later.trace_cache_hits, regions as u64, "morsel {m}");
        assert_eq!(later.compile_ns_total, 0, "morsel {m}");
        assert_eq!(
            later.trace_executions,
            regions as u64 * iterations,
            "morsel {m}"
        );
        assert_eq!(
            later.interpreted_nodes,
            uncovered * iterations,
            "morsel {m}"
        );
    }
}

// ---------------------------------------------------------------------
// (c) racing publishers
// ---------------------------------------------------------------------

#[test]
fn racing_runs_publish_one_plan_and_never_adopt_a_torn_one() {
    let workers = 8;
    let chunk_size = 64;
    let morsel_rows = 16 * chunk_size;
    let morsels = 48;
    let rounds = if cfg!(debug_assertions) { 10 } else { 400 };
    let hot_threshold = 4u64;
    let table = tpch::lineitem(morsels * morsel_rows, 5);
    let vm = Vm::new(VmConfig {
        chunk_size,
        hot_threshold,
        ..VmConfig::default()
    });
    // Per-morsel oracle: pure interpretation.
    let oracle_vm = Vm::new(VmConfig {
        chunk_size,
        strategy: Strategy::Interpret,
        ..VmConfig::default()
    });
    let oracle_prepared = q6_prepared(morsel_rows);
    let oracle: Vec<u64> = (0..morsels)
        .map(|m| {
            let buffers = q6_buffers(&table, m * morsel_rows, morsel_rows);
            revenue_bits(&oracle_vm.run_prepared(&oracle_prepared, buffers).unwrap().0)
        })
        .collect();
    for round in 0..rounds {
        let prepared = q6_prepared(morsel_rows);
        let next = AtomicUsize::new(0);
        let start = Barrier::new(workers);
        let reports: Vec<(usize, RunReport)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        // Every worker starts its first morsel at once, so
                        // several reach the hot threshold together.
                        start.wait();
                        loop {
                            let m = next.fetch_add(1, Ordering::Relaxed);
                            if m >= morsels {
                                return mine;
                            }
                            let buffers = q6_buffers(&table, m * morsel_rows, morsel_rows);
                            let (out, report) = vm.run_prepared(&prepared, buffers).unwrap();
                            assert_eq!(revenue_bits(&out), oracle[m], "round {round} morsel {m}");
                            mine.push((m, report));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker"))
                .collect()
        });
        assert_eq!(reports.len(), morsels);
        let published = prepared.hot_traces().expect("a run published");
        let mut optimizers = 0;
        for (m, r) in &reports {
            let what = format!("round {round} morsel {m}: {r:?}");
            assert_eq!(r.fallbacks, 0, "{what}");
            let injected_at = r
                .transitions
                .iter()
                .find(|t| t.state == VmState::InjectFunctions)
                .unwrap_or_else(|| panic!("never traced — {what}"))
                .iteration;
            let traced = r.iterations - injected_at + 1;
            if has(r, VmState::Optimize) {
                // Raced to the threshold before anything was published.
                optimizers += 1;
                assert_eq!(injected_at, hot_threshold, "{what}");
                assert_eq!(r.trace_cache_hits, 0, "{what}");
            } else {
                // Adopted — at the threshold at the latest — the one
                // published plan, whole.
                assert!(injected_at <= hot_threshold, "{what}");
                assert_eq!(r.injected_traces, published, "{what}");
                assert_eq!(r.trace_cache_hits, published as u64, "{what}");
                assert_eq!(r.compile_ns_total, 0, "{what}");
            }
            assert_eq!(
                r.trace_executions,
                r.injected_traces as u64 * traced,
                "{what}"
            );
        }
        assert!(
            (1..=workers).contains(&optimizers),
            "round {round}: {optimizers} runs optimized"
        );
    }
}

// ---------------------------------------------------------------------
// (d) a failing adopted trace
// ---------------------------------------------------------------------

/// Two independent pipelines in one loop body. Compiled whole, they share
/// one trace whose inputs must agree in length; interpreted, each map only
/// sees its own input.
fn two_pipelines(rows: usize) -> Program {
    parse_program(&format!(
        "mut i
         i := 0
         loop {{
           let x = read i xs in {{
             let y = read i ys in {{
               let a = map (\\v -> 2 * v) x in {{
                 let b = map (\\v -> 3 * v) y in {{
                   write oa i a
                   write ob i b
                   i := i + len(x)
                 }}
               }}
             }}
           }}
           if i >= {rows} then {{ break }}
         }}"
    ))
    .unwrap()
}

#[test]
fn a_failing_adopted_trace_falls_back_locally_and_leaves_the_published_plan_intact() {
    let chunk_size = 128;
    let rows = 8 * chunk_size;
    let program = two_pipelines(rows);
    let schema = [("xs", ScalarType::I64), ("ys", ScalarType::I64)];
    let config = |strategy| VmConfig {
        strategy,
        chunk_size,
        ..VmConfig::default()
    };
    let vm = Vm::new(config(Strategy::CompiledPipeline));
    let oracle_vm = Vm::new(config(Strategy::Interpret));
    let prepared = Vm::prepare(&program, schema);
    let morsel = |seed: i64, ys_rows: usize| {
        Buffers::new()
            .with_input(
                "xs",
                Array::from((0..rows as i64).map(|i| i + seed).collect::<Vec<_>>()),
            )
            .with_input(
                "ys",
                Array::from((0..ys_rows as i64).map(|i| i - seed).collect::<Vec<_>>()),
            )
    };
    let check = |buffers: Buffers| {
        let oracle = Vm::prepare(&program, schema);
        let (expect, _) = oracle_vm.run_prepared(&oracle, buffers.clone()).unwrap();
        let (out, report) = vm.run_prepared(&prepared, buffers).unwrap();
        assert_eq!(outputs(out), outputs(expect));
        report
    };
    // Morsel 1 compiles the pipeline and publishes it.
    let first = check(morsel(1, rows));
    assert_eq!(first.injected_traces, 1, "{first:?}");
    assert_eq!(first.trace_cache_hits, 0, "{first:?}");
    assert_eq!(first.interpreted_nodes, 0, "{first:?}");
    assert_eq!(prepared.hot_traces(), Some(1));
    // Morsel 2 adopts it, but its `ys` ends five chunks in: there the
    // trace's inputs disagree in length and the run falls back — once, for
    // good, on its own copy of the plan.
    let second = check(morsel(2, 5 * chunk_size - 17));
    assert_eq!(second.injected_traces, 1, "{second:?}");
    assert_eq!(second.trace_cache_hits, 1, "{second:?}");
    assert_eq!(second.fallbacks, 1, "{second:?}");
    assert_eq!(second.trace_executions, 4, "{second:?}");
    assert_eq!(second.interpreted_nodes, 6 * 4, "{second:?}");
    // Morsel 3 finds the published plan as morsel 1 left it.
    assert_eq!(prepared.hot_traces(), Some(1));
    let third = check(morsel(3, rows));
    assert_eq!(third.state_names(), ["interpret", "inject_functions"]);
    assert_eq!(third.injected_traces, 1, "{third:?}");
    assert_eq!(third.fallbacks, 0, "{third:?}");
    assert_eq!(third.trace_executions, third.iterations, "{third:?}");
    assert_eq!(third.interpreted_nodes, 0, "{third:?}");
}
