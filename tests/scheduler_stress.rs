//! Stress the long-lived scheduler: many submitter threads hammering ONE
//! shared worker pool with mixed queries (raw morsel jobs, relational
//! pipelines, adaptive VM runs compiling into the shared code cache),
//! asserting liveness (every join completes within a bound — no deadlock),
//! accounting (no lost jobs, morsels executed == morsels planned per
//! query), and that the shared code cache keeps serving traces under
//! fire.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use adaptvm::parallel::{MorselPlan, Scheduler};
use adaptvm::relational::parallel::{q1_parallel_adaptive, q3_parallel, q6_parallel, ParallelOpts};
use adaptvm::relational::tpch;
use adaptvm::storage::DEFAULT_CHUNK;
use adaptvm::vm::{Strategy, VmConfig};

/// Liveness bound for any single join: generous (CI containers are slow,
/// possibly single-core), but finite — a deadlock fails the test instead
/// of hanging it.
const JOIN_BOUND: Duration = Duration::from_secs(120);

#[test]
fn eight_submitters_mixed_queries_no_deadlock_no_lost_jobs() {
    let scheduler = Scheduler::new(4);
    let submitters = 8;
    let rounds = 3;

    // Shared inputs, generated once.
    let t = tpch::lineitem(16_000, 99);
    let compact = tpch::CompactLineitem::from_table(&t);
    let li = tpch::lineitem_q3(12_000, 2_000, 99);
    let ord = tpch::orders(2_000, 99);
    let date = tpch::SHIPDATE_MAX / 2;
    let morsel_rows = 2_000;

    // Quiet references for result checking under contention.
    let q1_ref = tpch::q1_adaptive(&compact, DEFAULT_CHUNK);
    let q3_ref = tpch::q3_hash(
        &li,
        &ord,
        date,
        tpch::JoinStrategy::Fused,
        DEFAULT_CHUNK,
        true,
    )
    .unwrap();
    let q6_ref = tpch::q6_reference(&t, 1000);

    // Accounting: morsels planned across every query everyone submits.
    let planned = AtomicU64::new(0);

    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for submitter in 0..submitters {
            let scheduler = &scheduler;
            let (t, compact, li, ord) = (&t, &compact, &li, &ord);
            let (q1_ref, q3_ref) = (&q1_ref, &q3_ref);
            let planned = &planned;
            joins.push(s.spawn(move || {
                for round in 0..rounds {
                    let opts = ParallelOpts::new(4, morsel_rows).with_scheduler(scheduler);
                    match (submitter + round) % 4 {
                        // Raw morsel job through the async submit queue,
                        // joined with a bounded deadline.
                        0 => {
                            let rows = 10_000 + submitter * 512;
                            let plan = MorselPlan::new(rows, 256);
                            planned.fetch_add(plan.len() as u64, Ordering::Relaxed);
                            let expected_morsels = plan.len();
                            let handle = scheduler
                                .submit(
                                    plan,
                                    move |_, m| Ok::<usize, ()>(m.len),
                                    |parts, stats| (parts.iter().sum::<usize>(), stats),
                                )
                                .expect("scheduler accepts while alive");
                            let (total, stats) = handle
                                .join_deadline(JOIN_BOUND)
                                .expect("submit join exceeded its deadline (deadlock?)")
                                .unwrap();
                            assert_eq!(total, rows, "lost morsel output");
                            assert_eq!(
                                stats.executed.iter().sum::<u64>(),
                                expected_morsels as u64,
                                "morsels executed != planned for this query"
                            );
                        }
                        // Exact fixed-point Q1 under contention.
                        1 => {
                            let plan_len = MorselPlan::chunk_aligned(
                                compact.qty.len(),
                                morsel_rows,
                                DEFAULT_CHUNK,
                            )
                            .len();
                            planned.fetch_add(plan_len as u64, Ordering::Relaxed);
                            let rows = q1_parallel_adaptive(compact, DEFAULT_CHUNK, opts).unwrap();
                            for (a, b) in rows.iter().zip(q1_ref.iter()) {
                                assert_eq!(
                                    a.sum_disc_price.to_bits(),
                                    b.sum_disc_price.to_bits(),
                                    "Q1 diverged under contention"
                                );
                            }
                        }
                        // Two-phase Q3 join (two scheduler queries: build + probe).
                        2 => {
                            let (rev, stats) = q3_parallel(
                                li,
                                ord,
                                date,
                                tpch::JoinStrategy::Fused,
                                DEFAULT_CHUNK,
                                true,
                                opts,
                            )
                            .unwrap();
                            assert_eq!(rev.to_bits(), q3_ref.to_bits(), "Q3 diverged");
                            planned.fetch_add(
                                (stats.build_morsels + stats.probe_morsels) as u64,
                                Ordering::Relaxed,
                            );
                            assert_eq!(
                                stats.build.executed.iter().sum::<u64>(),
                                stats.build_morsels as u64,
                                "build morsels executed != planned"
                            );
                            assert_eq!(
                                stats.probe.executed.iter().sum::<u64>(),
                                stats.probe_morsels as u64,
                                "probe morsels executed != planned"
                            );
                        }
                        // Adaptive Q6 through the VM, compiling into and
                        // injecting from the scheduler's shared code cache.
                        _ => {
                            let config = VmConfig {
                                strategy: Strategy::Adaptive,
                                hot_threshold: 2,
                                ..VmConfig::default()
                            };
                            let (rev, report) = q6_parallel(t, 1000, config, opts).unwrap();
                            planned.fetch_add(report.morsels as u64, Ordering::Relaxed);
                            assert!(
                                (rev - q6_ref).abs() / q6_ref.abs().max(1.0) < 1e-9,
                                "Q6 diverged under contention: {rev} vs {q6_ref}"
                            );
                            assert_eq!(
                                report.per_worker_morsels.iter().sum::<u64>(),
                                report.morsels as u64,
                                "Q6 morsels executed != planned"
                            );
                        }
                    }
                }
            }));
        }
        for j in joins {
            j.join().expect("submitter thread panicked");
        }
    });

    // Global accounting: nothing lost, nothing double-counted.
    let stats = scheduler.stats();
    assert_eq!(
        stats.queries_submitted, stats.queries_completed,
        "every accepted query must complete: {stats:?}"
    );
    assert_eq!(
        stats.morsels_executed,
        planned.load(Ordering::Relaxed),
        "morsels executed must equal morsels planned across all queries"
    );
    assert_eq!(scheduler.active_queries(), 0, "registry must drain");
}

/// The shared code cache holds up while the pool is saturated: after a
/// storm of concurrent adaptive Q6 queries, the scheduler's cache holds the
/// fragment and a final query injects from it without compiling.
#[test]
fn shared_cache_survives_saturation() {
    let scheduler = Scheduler::new(2);
    let t = tpch::lineitem(12_288, 5);
    let config = VmConfig {
        strategy: Strategy::Adaptive,
        hot_threshold: 2,
        ..VmConfig::default()
    };
    let opts = ParallelOpts::new(2, 2 * DEFAULT_CHUNK).with_scheduler(&scheduler);
    let expected = tpch::q6_reference(&t, 1000);
    // Bit-level oracle: the same morsels interpreted on one scoped worker.
    let (oracle, _) = q6_parallel(
        &t,
        1000,
        VmConfig {
            strategy: Strategy::Interpret,
            ..VmConfig::default()
        },
        ParallelOpts::new(1, 2 * DEFAULT_CHUNK),
    )
    .unwrap();
    assert!((oracle - expected).abs() / expected.abs().max(1.0) < 1e-9);

    // Storm phase: concurrent submitters, all racing the same fragment
    // through the shared code cache (`get_or_compile`).
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (scheduler, t, config) = (&scheduler, &t, config.clone());
            s.spawn(move || {
                for _ in 0..3 {
                    let opts = ParallelOpts::new(2, 2 * DEFAULT_CHUNK).with_scheduler(scheduler);
                    let (rev, report) = q6_parallel(t, 1000, config.clone(), opts).unwrap();
                    assert_eq!(rev.to_bits(), oracle.to_bits(), "Q6 diverged in the storm");
                    assert_eq!(
                        report.per_worker_morsels.iter().sum::<u64>(),
                        report.morsels as u64,
                        "Q6 morsels executed != planned"
                    );
                }
            });
        }
    });

    // Every compile happened inside a storm query, so the cache holds the
    // fragment now, and a fresh query picks it up for free.
    assert!(
        scheduler.cache().stats().entries > 0,
        "the storm's compiles must land in the scheduler cache"
    );
    let (rev, report) = q6_parallel(&t, 1000, config, opts).unwrap();
    assert_eq!(rev.to_bits(), oracle.to_bits());
    assert!(report.injected_traces > 0, "{report:?}");
    assert!(
        report.trace_cache_hits > 0,
        "repeated fragment must hit the shared cache: {report:?}"
    );
    assert_eq!(report.compile_ns_total, 0, "{report:?}");
}
