//! Determinism of the morsel-parallel executor: parallel TPC-H Q1, Q3 and
//! Q6 must return results identical to the single-threaded engine for 1,
//! 2, 4 and 8 workers — bit-identical wherever the merge reproduces the
//! sequential addition tree (chunk-ordered merges, integer fixed point),
//! and within the repo's established float tolerance elsewhere.

use adaptvm::relational::join::{AdaptiveJoinChain, HashTable};
use adaptvm::relational::parallel::{
    parallel_build_hash_table, parallel_hash_join, q1_parallel_adaptive, q1_parallel_fused,
    q1_parallel_vectorized, q3_parallel, q6_parallel, ParallelJoinChain, ParallelOpts,
};
use adaptvm::relational::tpch;
use adaptvm::storage::{Array, DEFAULT_CHUNK};
use adaptvm::vm::{Strategy, Vm, VmConfig};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn rows_bits(rows: &[tpch::Q1Row]) -> Vec<(i64, i64, u64, u64, u64, u64)> {
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

#[test]
fn q1_vectorized_bit_identical_for_all_worker_counts() {
    let t = tpch::lineitem(60_000, 42);
    let sequential = rows_bits(&tpch::q1_vectorized(&t, DEFAULT_CHUNK));
    for workers in WORKER_COUNTS {
        let par = q1_parallel_vectorized(
            &t,
            DEFAULT_CHUNK,
            ParallelOpts {
                workers,
                morsel_rows: 8 * DEFAULT_CHUNK,
                ..ParallelOpts::default()
            },
        )
        .unwrap();
        assert_eq!(
            rows_bits(&par),
            sequential,
            "vectorized Q1 diverged at {workers} workers"
        );
    }
}

#[test]
fn q1_adaptive_bit_identical_for_all_worker_counts() {
    let t = tpch::lineitem(60_000, 42);
    let compact = tpch::CompactLineitem::from_table(&t);
    let sequential = rows_bits(&tpch::q1_adaptive(&compact, DEFAULT_CHUNK));
    for workers in WORKER_COUNTS {
        // Integer fixed-point accumulators: exact for any morsel size.
        let par = q1_parallel_adaptive(
            &compact,
            DEFAULT_CHUNK,
            ParallelOpts {
                workers,
                morsel_rows: 3000 + workers * 1000,
                ..ParallelOpts::default()
            },
        )
        .unwrap();
        assert_eq!(
            rows_bits(&par),
            sequential,
            "adaptive Q1 diverged at {workers} workers"
        );
    }
}

#[test]
fn q1_fused_deterministic_across_worker_counts() {
    let t = tpch::lineitem(60_000, 42);
    let reference_bits = rows_bits(
        &q1_parallel_fused(
            &t,
            ParallelOpts {
                workers: 1,
                morsel_rows: 8192,
                ..ParallelOpts::default()
            },
        )
        .unwrap(),
    );
    for workers in WORKER_COUNTS {
        let par = q1_parallel_fused(
            &t,
            ParallelOpts {
                workers,
                morsel_rows: 8192,
                ..ParallelOpts::default()
            },
        )
        .unwrap();
        // Bit-identical across worker counts (same morsel partials, same
        // ordered merge)…
        assert_eq!(rows_bits(&par), reference_bits, "workers={workers}");
        // …and equal to the sequential fused loop within fp tolerance.
        assert!(
            tpch::q1_results_match(&tpch::q1_fused(&t), &par),
            "fused Q1 diverged at {workers} workers"
        );
    }
}

/// Q6 with one-chunk morsels: the revenue fold reproduces the sequential
/// VM's addition tree, so results are bit-identical to the single-threaded
/// engine under every execution strategy.
#[test]
fn q6_bit_identical_to_single_threaded_engine_every_strategy() {
    let t = tpch::lineitem(30_000, 7);
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
        // Single-threaded engine run.
        let vm = Vm::new(config.clone());
        let (out, _) = vm
            .run(
                &tpch::q6_program(t.rows() as i64, 1000),
                tpch::q6_buffers(&t),
            )
            .unwrap();
        let sequential = out.output("revenue").unwrap().as_f64().unwrap()[0];

        for workers in WORKER_COUNTS {
            let (rev, report) = q6_parallel(
                &t,
                1000,
                config.clone(),
                ParallelOpts {
                    workers,
                    morsel_rows: config.chunk_size,
                    ..ParallelOpts::default()
                },
            )
            .unwrap();
            assert_eq!(
                rev.to_bits(),
                sequential.to_bits(),
                "{strategy:?} Q6 diverged at {workers} workers"
            );
            assert_eq!(
                report.per_worker_morsels.iter().sum::<u64>(),
                report.morsels as u64
            );
        }
    }
}

/// The Q3-style join: exact fixed-point revenue makes the morsel-parallel
/// partitioned hash join bit-identical to the sequential one for every
/// worker count, every probe strategy, and Bloom on/off.
#[test]
fn q3_join_bit_identical_for_all_worker_counts_and_strategies() {
    let li = tpch::lineitem_q3(60_000, 10_000, 42);
    let ord = tpch::orders(10_000, 42);
    let date = tpch::SHIPDATE_MAX / 2;
    let reference = tpch::q3_reference(&li, &ord, date);
    let mut bits: Option<u64> = None;
    for strategy in tpch::JoinStrategy::ALL {
        for bloom in [false, true] {
            let seq = tpch::q3_hash(&li, &ord, date, strategy, DEFAULT_CHUNK, bloom).unwrap();
            assert!(
                (seq - reference).abs() / reference.abs().max(1.0) < 1e-9,
                "{strategy:?} bloom={bloom}: {seq} vs {reference}"
            );
            // One fixed-point total across every strategy/bloom variant.
            match bits {
                None => bits = Some(seq.to_bits()),
                Some(b) => assert_eq!(seq.to_bits(), b, "{strategy:?} bloom={bloom}"),
            }
            for workers in WORKER_COUNTS {
                let (rev, _) = q3_parallel(
                    &li,
                    &ord,
                    date,
                    strategy,
                    DEFAULT_CHUNK,
                    bloom,
                    ParallelOpts {
                        workers,
                        morsel_rows: 7_000 + workers * 500,
                        ..ParallelOpts::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    rev.to_bits(),
                    seq.to_bits(),
                    "{strategy:?} bloom={bloom} diverged at {workers} workers"
                );
            }
        }
    }
}

/// The materialized partitioned hash join (duplicate build keys included)
/// returns exactly the sequential probe output for every worker count.
#[test]
fn partitioned_join_output_bit_identical_for_all_worker_counts() {
    let build_keys = Array::from((0..40_000).map(|i| i % 3_000).collect::<Vec<i64>>());
    let build_pays = Array::from((0..40_000).collect::<Vec<i64>>());
    let probe_keys: Vec<i64> = (0..80_000).map(|i| (i * 13) % 6_000).collect();
    let sequential = HashTable::build(&build_keys, &build_pays).unwrap();
    let (seq_idx, seq_pay) = sequential.probe(&probe_keys);
    for workers in WORKER_COUNTS {
        let built = parallel_build_hash_table(
            &build_keys,
            &build_pays,
            true,
            ParallelOpts {
                workers,
                morsel_rows: 9_000,
                ..ParallelOpts::default()
            },
        )
        .unwrap();
        assert_eq!(built.len(), sequential.len(), "workers={workers}");
        let (_, out) = parallel_hash_join(
            &build_keys,
            &build_pays,
            &probe_keys,
            true,
            ParallelOpts {
                workers,
                morsel_rows: 9_000,
                ..ParallelOpts::default()
            },
        )
        .unwrap();
        assert_eq!(out.indices, seq_idx, "workers={workers}");
        assert_eq!(out.payloads, seq_pay, "workers={workers}");
    }
}

/// The parallel adaptive join chain returns the sequential chain's exact
/// results batch by batch, for every worker count, while its merged
/// selectivity stats still steer the order to the selective join.
#[test]
fn parallel_join_chain_bit_identical_and_still_adaptive() {
    let build = |n: i64| {
        let keys: Vec<i64> = (0..n).collect();
        HashTable::build(
            &Array::from(keys.clone()),
            &Array::from(keys.iter().map(|k| k * 5).collect::<Vec<_>>()),
        )
        .unwrap()
    };
    let probes: Vec<i64> = (0..40_000).map(|i| i % 25_000).collect();
    let keys = [probes.clone(), probes.clone()];
    let mut seq = AdaptiveJoinChain::new(vec![build(20_000), build(2_000)], 2);
    let expected: Vec<_> = (0..8).map(|_| seq.probe_chunk(&keys)).collect();
    assert_eq!(seq.order(), &[1, 0]);
    for workers in WORKER_COUNTS {
        let mut par = ParallelJoinChain::new(vec![build(20_000), build(2_000)], 2);
        for (batch, want) in expected.iter().enumerate() {
            let got = par
                .probe_batch(
                    &keys,
                    ParallelOpts {
                        workers,
                        morsel_rows: 6_000,
                        ..ParallelOpts::default()
                    },
                )
                .unwrap();
            assert_eq!(&got, want, "workers={workers} batch={batch}");
        }
        assert_eq!(par.order(), &[1, 0], "workers={workers}");
    }
}

/// Larger (multi-chunk) morsels: still deterministic — the result depends
/// on the morsel plan, never on the worker count or scheduling.
#[test]
fn q6_worker_count_invariant_with_large_morsels() {
    let t = tpch::lineitem(50_000, 13);
    let expected = tpch::q6_reference(&t, 1000);
    let mut bits: Option<u64> = None;
    for workers in WORKER_COUNTS {
        let config = VmConfig {
            strategy: Strategy::Adaptive,
            hot_threshold: 4,
            ..VmConfig::default()
        };
        let (rev, _) = q6_parallel(
            &t,
            1000,
            config,
            ParallelOpts {
                workers,
                morsel_rows: 16 * DEFAULT_CHUNK,
                ..ParallelOpts::default()
            },
        )
        .unwrap();
        match bits {
            None => bits = Some(rev.to_bits()),
            Some(b) => assert_eq!(rev.to_bits(), b, "workers={workers}"),
        }
        assert!(
            (rev - expected).abs() / expected.abs().max(1.0) < 1e-9,
            "workers={workers}: {rev} vs {expected}"
        );
    }
}

// ---------------------------------------------------------------------------
// Scheduler determinism: every scheduler-based entry point must be
// bit-identical across 1/2/4/8 workers, across interleaved concurrent
// submission of multiple queries, and identical to the scoped-pool path.
// ---------------------------------------------------------------------------

use adaptvm::parallel::Scheduler;

/// Every entry point, scheduler-backed, for every worker count: results
/// bit-identical to the scoped pool over the same plan.
#[test]
fn scheduler_entry_points_bit_identical_across_worker_counts() {
    let t = tpch::lineitem(40_000, 31);
    let compact = tpch::CompactLineitem::from_table(&t);
    let li = tpch::lineitem_q3(30_000, 5_000, 31);
    let ord = tpch::orders(5_000, 31);
    let date = tpch::SHIPDATE_MAX / 2;
    let morsel_rows = 6_000;

    let scoped = ParallelOpts::new(1, morsel_rows);
    let q1v_ref = rows_bits(&q1_parallel_vectorized(&t, DEFAULT_CHUNK, scoped).unwrap());
    let q1a_ref = rows_bits(&q1_parallel_adaptive(&compact, DEFAULT_CHUNK, scoped).unwrap());
    let q1f_ref = rows_bits(&q1_parallel_fused(&t, scoped).unwrap());
    let (q3_ref, _) = q3_parallel(
        &li,
        &ord,
        date,
        tpch::JoinStrategy::Adaptive,
        DEFAULT_CHUNK,
        true,
        scoped,
    )
    .unwrap();

    for workers in WORKER_COUNTS {
        let scheduler = Scheduler::new(workers);
        let opts = ParallelOpts::new(workers, morsel_rows).with_scheduler(&scheduler);
        assert_eq!(
            rows_bits(&q1_parallel_vectorized(&t, DEFAULT_CHUNK, opts).unwrap()),
            q1v_ref,
            "vectorized Q1 diverged at {workers} scheduler workers"
        );
        assert_eq!(
            rows_bits(&q1_parallel_adaptive(&compact, DEFAULT_CHUNK, opts).unwrap()),
            q1a_ref,
            "adaptive Q1 diverged at {workers} scheduler workers"
        );
        assert_eq!(
            rows_bits(&q1_parallel_fused(&t, opts).unwrap()),
            q1f_ref,
            "fused Q1 diverged at {workers} scheduler workers"
        );
        let (q3, _) = q3_parallel(
            &li,
            &ord,
            date,
            tpch::JoinStrategy::Adaptive,
            DEFAULT_CHUNK,
            true,
            opts,
        )
        .unwrap();
        assert_eq!(
            q3.to_bits(),
            q3_ref.to_bits(),
            "Q3 diverged at {workers} scheduler workers"
        );
    }
}

/// Q6 through the VM on a scheduler, every strategy, every worker count:
/// bit-identical to the single-threaded engine (one-chunk morsels make the
/// revenue fold reproduce the sequential addition tree).
#[test]
fn scheduler_q6_bit_identical_to_single_threaded_engine() {
    let t = tpch::lineitem(30_000, 7);
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
        let vm = Vm::new(config.clone());
        let (out, _) = vm
            .run(
                &tpch::q6_program(t.rows() as i64, 1000),
                tpch::q6_buffers(&t),
            )
            .unwrap();
        let sequential = out.output("revenue").unwrap().as_f64().unwrap()[0];
        for workers in WORKER_COUNTS {
            let scheduler = Scheduler::new(workers);
            let opts = ParallelOpts::new(workers, config.chunk_size).with_scheduler(&scheduler);
            let (rev, report) = q6_parallel(&t, 1000, config.clone(), opts).unwrap();
            assert_eq!(
                rev.to_bits(),
                sequential.to_bits(),
                "{strategy:?} Q6 diverged at {workers} scheduler workers"
            );
            assert_eq!(report.workers, workers);
            assert_eq!(
                report.per_worker_morsels.iter().sum::<u64>(),
                report.morsels as u64
            );
        }
    }
}

/// The materialized join and the adaptive join chain on a scheduler:
/// bit-identical to the sequential probe, for every worker count.
#[test]
fn scheduler_joins_bit_identical_to_sequential() {
    let build_keys = Array::from((0..30_000).map(|i| i % 2_000).collect::<Vec<i64>>());
    let build_pays = Array::from((0..30_000).collect::<Vec<i64>>());
    let probe_keys: Vec<i64> = (0..60_000).map(|i| (i * 13) % 4_000).collect();
    let sequential = HashTable::build(&build_keys, &build_pays).unwrap();
    let (seq_idx, seq_pay) = sequential.probe(&probe_keys);

    let chain_build = |n: i64| {
        let keys: Vec<i64> = (0..n).collect();
        HashTable::build(
            &Array::from(keys.clone()),
            &Array::from(keys.iter().map(|k| k * 5).collect::<Vec<_>>()),
        )
        .unwrap()
    };
    let probes: Vec<i64> = (0..30_000).map(|i| i % 20_000).collect();
    let chain_keys = [probes.clone(), probes.clone()];
    let mut seq_chain = AdaptiveJoinChain::new(vec![chain_build(15_000), chain_build(1_500)], 2);
    let chain_expected: Vec<_> = (0..6).map(|_| seq_chain.probe_chunk(&chain_keys)).collect();

    for workers in WORKER_COUNTS {
        let scheduler = Scheduler::new(workers);
        let opts = ParallelOpts::new(workers, 7_000).with_scheduler(&scheduler);
        let built = parallel_build_hash_table(&build_keys, &build_pays, true, opts).unwrap();
        assert_eq!(built.len(), sequential.len(), "workers={workers}");
        let (_, out) =
            parallel_hash_join(&build_keys, &build_pays, &probe_keys, true, opts).unwrap();
        assert_eq!(out.indices, seq_idx, "workers={workers}");
        assert_eq!(out.payloads, seq_pay, "workers={workers}");

        let mut par = ParallelJoinChain::new(vec![chain_build(15_000), chain_build(1_500)], 2);
        for (batch, want) in chain_expected.iter().enumerate() {
            let got = par.probe_batch(&chain_keys, opts).unwrap();
            assert_eq!(&got, want, "workers={workers} batch={batch}");
        }
        assert_eq!(par.order(), seq_chain.order(), "workers={workers}");
    }
}

/// Interleaved concurrent submission: six submitter threads fire Q1/Q3/Q6
/// into ONE shared scheduler at once, twice each. Every concurrent result
/// must be bit-identical to the quiet (single-query) scheduler result and
/// to the scoped-pool result.
#[test]
fn interleaved_concurrent_queries_stay_bit_identical() {
    let scheduler = Scheduler::new(4);
    let t = tpch::lineitem(30_000, 77);
    let compact = tpch::CompactLineitem::from_table(&t);
    let li = tpch::lineitem_q3(25_000, 4_000, 77);
    let ord = tpch::orders(4_000, 77);
    let date = tpch::SHIPDATE_MAX / 2;
    let morsel_rows = 4_000;

    // Quiet references (same scheduler, one query at a time).
    let opts = ParallelOpts::new(4, morsel_rows).with_scheduler(&scheduler);
    let q1_ref = rows_bits(&q1_parallel_vectorized(&t, DEFAULT_CHUNK, opts).unwrap());
    let q1a_ref = rows_bits(&q1_parallel_adaptive(&compact, DEFAULT_CHUNK, opts).unwrap());
    let (q3_ref, _) = q3_parallel(
        &li,
        &ord,
        date,
        tpch::JoinStrategy::Vectorized,
        DEFAULT_CHUNK,
        true,
        opts,
    )
    .unwrap();
    let q6_config = VmConfig {
        strategy: Strategy::Adaptive,
        hot_threshold: 3,
        ..VmConfig::default()
    };
    let (q6_ref, _) = q6_parallel(&t, 1000, q6_config.clone(), opts).unwrap();

    // Interleave: every submitter hammers a different query shape.
    std::thread::scope(|s| {
        for round in 0..2 {
            let mut handles = Vec::new();
            for submitter in 0..6 {
                let scheduler = &scheduler;
                let (t, compact, li, ord) = (&t, &compact, &li, &ord);
                let (q1_ref, q1a_ref) = (&q1_ref, &q1a_ref);
                let q6_config = q6_config.clone();
                handles.push(s.spawn(move || {
                    let opts = ParallelOpts::new(4, morsel_rows).with_scheduler(scheduler);
                    match submitter % 4 {
                        0 => assert_eq!(
                            &rows_bits(&q1_parallel_vectorized(t, DEFAULT_CHUNK, opts).unwrap()),
                            q1_ref,
                            "concurrent vectorized Q1 diverged (round {round})"
                        ),
                        1 => assert_eq!(
                            &rows_bits(
                                &q1_parallel_adaptive(compact, DEFAULT_CHUNK, opts).unwrap()
                            ),
                            q1a_ref,
                            "concurrent adaptive Q1 diverged (round {round})"
                        ),
                        2 => {
                            let (q3, _) = q3_parallel(
                                li,
                                ord,
                                date,
                                tpch::JoinStrategy::Vectorized,
                                DEFAULT_CHUNK,
                                true,
                                opts,
                            )
                            .unwrap();
                            assert_eq!(
                                q3.to_bits(),
                                q3_ref.to_bits(),
                                "concurrent Q3 diverged (round {round})"
                            );
                        }
                        _ => {
                            let (q6, _) = q6_parallel(t, 1000, q6_config.clone(), opts).unwrap();
                            assert_eq!(
                                q6.to_bits(),
                                q6_ref.to_bits(),
                                "concurrent Q6 diverged (round {round})"
                            );
                        }
                    }
                }));
            }
            for h in handles {
                h.join().expect("submitter panicked");
            }
        }
    });
    let stats = scheduler.stats();
    assert_eq!(stats.queries_submitted, stats.queries_completed);
}

// ---------------------------------------------------------------------------
// Q18 / Q9 determinism sweeps (workers × morsel sizes × Bloom × spill
// budgets) and skew regression properties.
// ---------------------------------------------------------------------------

use adaptvm::parallel::MemoryBudget;
use adaptvm::relational::agg::aggregate_rows;
use adaptvm::relational::parallel::{q18_parallel, q9_parallel};
use adaptvm::relational::spill::MAX_SPILL_DEPTH;
use adaptvm::relational::tpch::KeyDist;
use proptest::prelude::*;

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

#[test]
fn q18_bit_identical_across_workers_morsels_and_budgets() {
    for dist in [KeyDist::Uniform, KeyDist::Zipf] {
        let orders = tpch::orders(400, 7);
        let li = tpch::lineitem_q18(30_000, 400, dist, 11);
        let reference = q18_bits(&tpch::q18_reference(&li, &orders, 900.0));
        assert!(!reference.is_empty(), "{dist:?}: degenerate reference");
        for workers in WORKER_COUNTS {
            for morsel_rows in [1_000, 4 * DEFAULT_CHUNK] {
                for budget_bytes in [None, Some(4_000usize), Some(0usize)] {
                    let budget = budget_bytes.map(MemoryBudget::bytes);
                    let mut opts = ParallelOpts::new(workers, morsel_rows);
                    if let Some(b) = budget.as_ref() {
                        opts = opts.with_budget(b);
                    }
                    let label = format!(
                        "{dist:?} workers={workers} morsel={morsel_rows} budget={budget_bytes:?}"
                    );
                    let (rows, spill) = q18_parallel(&li, &orders, 900.0, opts).unwrap();
                    assert_eq!(q18_bits(&rows), reference, "{label}");
                    match budget_bytes {
                        Some(0) => assert!(spill.spilled(), "{label}: {spill:?}"),
                        None => assert!(!spill.spilled(), "{label}: {spill:?}"),
                        _ => {}
                    }
                    assert!(
                        spill.max_recursion_depth <= MAX_SPILL_DEPTH,
                        "{label}: {spill:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn q9_identical_across_workers_bloom_and_batch_sizes() {
    for dist in [KeyDist::Uniform, KeyDist::Zipf] {
        let data = tpch::q9_data(16_000, 200, 64, 8, dist, 23);
        let reference = tpch::q9_reference(&data);
        assert!(!reference.is_empty(), "{dist:?}: degenerate reference");
        for workers in WORKER_COUNTS {
            for bloom in [false, true] {
                for batch_rows in [512, 4_096] {
                    let opts = ParallelOpts::new(workers, 2_048);
                    let (rows, _reorders) = q9_parallel(&data, batch_rows, bloom, 2, opts).unwrap();
                    assert_eq!(
                        rows, reference,
                        "{dist:?} workers={workers} bloom={bloom} batch={batch_rows}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Zipf-skewed Q18 under an arbitrary tight budget: the spill path
    /// must stay exact, and grace-hash recursion must stay within its
    /// hard depth cap no matter how hot the hottest key is.
    #[test]
    fn q18_zipf_skew_spills_stay_exact_and_bounded(
        seed in 0u64..64,
        workers in 1usize..5,
        budget_bytes in 0usize..6_000,
    ) {
        let orders = tpch::orders(64, seed);
        let li = tpch::lineitem_q18(6_000, 64, KeyDist::Zipf, seed.wrapping_add(1));
        let reference = q18_bits(&tpch::q18_reference(&li, &orders, 120.0));
        let budget = MemoryBudget::bytes(budget_bytes);
        let opts = ParallelOpts::new(workers, 1_024).with_budget(&budget);
        let (rows, spill) = q18_parallel(&li, &orders, 120.0, opts).unwrap();
        prop_assert_eq!(q18_bits(&rows), reference);
        prop_assert!(spill.max_recursion_depth <= MAX_SPILL_DEPTH, "{:?}", spill);
        // A forced build happens at most once per unsplittable leaf; with
        // 64 distinct keys the leaves are bounded by the key count.
        prop_assert!(spill.forced_builds <= 64, "{:?}", spill);
    }

    /// The all-duplicate-key extreme: every lineitem hits ONE order. The
    /// hot partition can never be split by rehashing, so a zero budget
    /// must take the forced-build path — and still be bit-identical.
    #[test]
    fn q18_single_hot_key_bit_identical_under_forced_builds(
        seed in 0u64..64,
        workers in 1usize..5,
    ) {
        let orders = tpch::orders(1, seed);
        let li = tpch::lineitem_q18(4_000, 1, KeyDist::Uniform, seed.wrapping_add(1));
        let reference = q18_bits(&tpch::q18_reference(&li, &orders, 0.0));
        prop_assert_eq!(reference.len(), 1);
        let budget = MemoryBudget::bytes(0);
        let opts = ParallelOpts::new(workers, 512).with_budget(&budget);
        let (rows, spill) = q18_parallel(&li, &orders, 0.0, opts).unwrap();
        prop_assert_eq!(q18_bits(&rows), reference);
        prop_assert!(spill.spilled(), "{:?}", spill);
        prop_assert!(spill.forced_builds >= 1, "{:?}", spill);
        prop_assert!(spill.max_recursion_depth <= MAX_SPILL_DEPTH, "{:?}", spill);
    }

    /// Zipf-skewed Q9 with a tiny part domain (hot probe keys): Bloom
    /// filters and worker counts must not change the integer-cents
    /// profit totals.
    #[test]
    fn q9_zipf_skew_matches_reference(
        seed in 0u64..64,
        workers in 1usize..5,
        bloom in any::<bool>(),
    ) {
        let data = tpch::q9_data(4_000, 2, 8, 4, KeyDist::Zipf, seed);
        let reference = tpch::q9_reference(&data);
        let opts = ParallelOpts::new(workers, 512);
        let (rows, _) = q9_parallel(&data, 1_024, bloom, 2, opts).unwrap();
        prop_assert_eq!(rows, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// HAVING runs on the aggregate's unordered groups and only the
    /// survivors are sorted: whatever the keys (some missing from
    /// `orders`), the non-integer quantities, the threshold (no, some or
    /// every group survives), the budget (0 spills everything), the
    /// morsel size and the worker count, Q18 equals the oracle bit for
    /// bit, in strictly ascending order-key order, and the budget
    /// balances.
    #[test]
    fn q18_having_before_sort_matches_reference(
        rows in prop::collection::vec((-20i64..80, -40.0f64..60.0), 0..400),
        threshold_pick in 0usize..3,
        quantile in 0.0f64..1.0,
        budget_pick in 0usize..3,
        budget_limit in 0usize..20_000,
        morsel_rows in 1usize..200,
        workers in 1usize..5,
    ) {
        let (keys, qty): (Vec<i64>, Vec<f64>) = rows.into_iter().unzip();
        let li = Table::new(
            Schema::new(vec![
                Field::new("l_orderkey", ScalarType::I64),
                Field::new("l_quantity", ScalarType::F64),
            ]),
            vec![Array::from(keys.clone()), Array::from(qty.clone())],
        )
        .unwrap();
        let orders = tpch::orders(60, 3);
        let threshold = match threshold_pick {
            0 => f64::NEG_INFINITY,
            1 => {
                let mut sums: Vec<f64> =
                    aggregate_rows(&keys, &qty).iter().map(|(_, g)| g.sum).collect();
                sums.sort_by(f64::total_cmp);
                sums.get((quantile * sums.len() as f64) as usize).copied().unwrap_or(0.0)
            }
            _ => f64::INFINITY,
        };
        let reference = q18_bits(&tpch::q18_reference(&li, &orders, threshold));
        let budget = MemoryBudget::bytes(match budget_pick {
            0 => 0,
            1 => usize::MAX,
            _ => budget_limit,
        });
        let opts = ParallelOpts::new(workers, morsel_rows).with_budget(&budget);
        let (out, _) = q18_parallel(&li, &orders, threshold, opts).unwrap();
        let out = q18_bits(&out);
        prop_assert_eq!(&out, &reference);
        prop_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", out);
        prop_assert_eq!(budget.used(), 0);
    }
}

// ---------------------------------------------------------------------
// Order-by / top-k: external sort sweeps against the stable oracle
// ---------------------------------------------------------------------

use adaptvm::parallel::SpillStats;
use adaptvm::relational::sort::{external_sort, external_top_k, sort_rows};
use adaptvm::relational::workload::Workload;
use adaptvm::storage::{Field, ScalarType, Schema, Table};

/// Duplicate-heavy keys so stability is load-bearing: equal keys must
/// keep input (morsel) order through every merge shape.
fn dup_heavy_rows(n: usize, seed: i64) -> (Vec<i64>, Vec<i64>) {
    let keys: Vec<i64> = (0..n as i64).map(|i| (i * 131 + seed) % 97).collect();
    let payloads: Vec<i64> = (0..n as i64).collect();
    (keys, payloads)
}

fn check_spill(spill: &SpillStats, budget_bytes: Option<usize>, label: &str) {
    match budget_bytes {
        Some(0) => assert!(spill.spilled(), "{label}: {spill:?}"),
        None => assert!(!spill.spilled(), "{label}: {spill:?}"),
        _ => {}
    }
    assert!(
        spill.max_recursion_depth <= MAX_SPILL_DEPTH,
        "{label}: {spill:?}"
    );
}

#[test]
fn order_by_bit_identical_across_workers_morsels_and_budgets() {
    let (keys, payloads) = dup_heavy_rows(20_000, 7);
    let reference = sort_rows(&keys, &payloads);
    for workers in WORKER_COUNTS {
        for morsel_rows in [512, 4 * DEFAULT_CHUNK] {
            for budget_bytes in [None, Some(16_000usize), Some(0usize)] {
                let budget = budget_bytes.map(MemoryBudget::bytes);
                let mut opts = ParallelOpts::new(workers, morsel_rows);
                if let Some(b) = budget.as_ref() {
                    opts = opts.with_budget(b);
                }
                let label =
                    format!("workers={workers} morsel={morsel_rows} budget={budget_bytes:?}");
                let (got, spill) = external_sort(&keys, &payloads, opts).unwrap();
                assert_eq!(got, reference, "{label}");
                check_spill(&spill, budget_bytes, &label);
            }
        }
    }
}

#[test]
fn top_k_is_the_oracle_prefix_across_workers_and_budgets() {
    let (keys, payloads) = dup_heavy_rows(12_000, 3);
    let (ok, op) = sort_rows(&keys, &payloads);
    for workers in WORKER_COUNTS {
        for k in [0usize, 1, 100, keys.len(), 2 * keys.len()] {
            for budget_bytes in [None, Some(0usize)] {
                let budget = budget_bytes.map(MemoryBudget::bytes);
                let mut opts = ParallelOpts::new(workers, 1_000);
                if let Some(b) = budget.as_ref() {
                    opts = opts.with_budget(b);
                }
                let label = format!("workers={workers} k={k} budget={budget_bytes:?}");
                let ((tk, tp), spill) = external_top_k(&keys, &payloads, k, opts).unwrap();
                let cut = k.min(ok.len());
                assert_eq!(tk.as_slice(), &ok[..cut], "{label}");
                assert_eq!(tp.as_slice(), &op[..cut], "{label}");
                check_spill(&spill, budget_bytes, &label);
            }
        }
    }
}

/// TPC-H Q18's ORDER BY total_qty DESC LIMIT 10 tail: aggregate with the
/// spill-capable join, then top-k on the negated (integer-valued) totals.
/// The ranking must be identical at every worker count and budget.
#[test]
fn q18_order_by_total_desc_top_k_matches_oracle() {
    let orders = tpch::orders(400, 7);
    let li = tpch::lineitem_q18(30_000, 400, KeyDist::Zipf, 11);
    let reference_rows = tpch::q18_reference(&li, &orders, 300.0);
    assert!(reference_rows.len() > 10, "degenerate reference");
    // Totals are integer-valued f64 (sums of 1..=50 quantities), so a
    // negated-i64 key gives an exact descending order; payload keeps the
    // orderkey as a stable tiebreak witness.
    let keys: Vec<i64> = reference_rows
        .iter()
        .map(|r| -(r.total_qty as i64))
        .collect();
    let payloads: Vec<i64> = reference_rows.iter().map(|r| r.o_orderkey).collect();
    let oracle = sort_rows(&keys, &payloads);
    for workers in WORKER_COUNTS {
        for budget_bytes in [None, Some(0usize)] {
            let budget = budget_bytes.map(MemoryBudget::bytes);
            let mut opts = ParallelOpts::new(workers, 1_000);
            if let Some(b) = budget.as_ref() {
                opts = opts.with_budget(b);
            }
            let label = format!("workers={workers} budget={budget_bytes:?}");
            let ((tk, tp), spill) = external_top_k(&keys, &payloads, 10, opts).unwrap();
            assert_eq!(tk.as_slice(), &oracle.0[..10], "{label}");
            assert_eq!(tp.as_slice(), &oracle.1[..10], "{label}");
            check_spill(&spill, budget_bytes, &label);
        }
    }
}

/// Order-by over a **DSL-computed** column: the chunked-loop workload
/// computes `3x + 1` per row (through an injected trace once the loop is
/// hot), and the computed column feeds the external sort. End to end the
/// ranking must be bit-identical at every worker count.
#[test]
fn dsl_computed_column_order_by_is_worker_and_tier_invariant() {
    const SCHEMA: &[(&str, ScalarType)] = &[("xs", ScalarType::I64), ("oi", ScalarType::I64)];
    const SRC: &str = "\
mut i
i := 0
loop {
  let x = read i xs in {
    let scaled = map (\\a -> a * 3 + 1) x in {
      write oi i scaled
      i := i + len(x)
    }
  }
  if i >= 8192 then { break }
}
";
    let workload = Workload::compile(SRC, SCHEMA).unwrap();
    let xs: Vec<i64> = (0..8192i64).map(|k| (k * 37) % 193 - 50).collect();
    let inputs = [("xs", Array::from(xs.clone()))];
    let payloads: Vec<i64> = (0..xs.len() as i64).collect();
    let mut reference: Option<(Vec<i64>, Vec<i64>)> = None;
    for workers in WORKER_COUNTS {
        let config = VmConfig {
            strategy: Strategy::Adaptive,
            hot_threshold: 2,
            ..VmConfig::default()
        };
        let opts = ParallelOpts::new(workers, 1_000);
        let (out, _report) = workload.run(&inputs, config, opts).unwrap();
        let keys = out["oi"].to_i64_vec().expect("oi is i64");
        assert_eq!(keys.len(), xs.len(), "workers={workers}");
        let sorted = sort_rows(&keys, &payloads);
        let ((gk, gp), _) =
            external_top_k(&keys, &payloads, 64, ParallelOpts::new(workers, 1_000)).unwrap();
        assert_eq!(gk.as_slice(), &sorted.0[..64], "workers={workers}");
        assert_eq!(gp.as_slice(), &sorted.1[..64], "workers={workers}");
        match &reference {
            None => reference = Some(sorted),
            Some(r) => {
                assert_eq!(&sorted, r, "workers={workers}: ranking diverged")
            }
        }
    }
}
