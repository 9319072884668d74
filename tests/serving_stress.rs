//! Stress and regression tests for the admission-controlled serving
//! layer (`adaptvm_parallel::serve`) and the scheduler features under it:
//!
//! * every relational entry point runs **unchanged** through a
//!   `QueryService` at default priority, bit-identical to direct
//!   scheduler submission;
//! * weighted-fair dispatch favors Interactive without starving Batch;
//! * cancellation mid-query leaves scheduler stats consistent (morsels
//!   executed ≤ planned, no worker wedged) while concurrent queries
//!   complete exactly;
//! * backpressure rejections are counted exactly under concurrent
//!   hammering;
//! * `join_deadline` neither fires early nor hangs (spurious-wakeup
//!   regression);
//! * Drop-vs-explicit-shutdown ordering loses no queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use adaptvm::parallel::serve::{
    AdmissionError, Priority, QueryService, ServeConfig, SubmitOpts as ServeOpts,
};
use adaptvm::parallel::{MorselPlan, QueryError, Runner, Scheduler, SubmitError, SubmitOptions};
use adaptvm::relational::parallel::{
    parallel_filter_project_sum, parallel_hash_join, q1_parallel_adaptive, q1_parallel_vectorized,
    q3_parallel, q6_parallel, ParallelOpts,
};
use adaptvm::relational::tpch;
use adaptvm::storage::{Array, DEFAULT_CHUNK};
use adaptvm::vm::{Strategy, VmConfig};

/// Liveness bound: generous (CI containers are slow, possibly
/// single-core) but finite — a deadlock fails instead of hanging.
const JOIN_BOUND: Duration = Duration::from_secs(120);

fn q1_bits(rows: &[tpch::Q1Row]) -> Vec<(i64, i64, [u64; 4])> {
    rows.iter()
        .map(|r| {
            (
                r.group,
                r.count,
                [
                    r.sum_qty.to_bits(),
                    r.sum_base.to_bits(),
                    r.sum_disc_price.to_bits(),
                    r.sum_charge.to_bits(),
                ],
            )
        })
        .collect()
}

/// Acceptance: all existing `relational::parallel` entry points run
/// unchanged through `QueryService` at default priority with
/// bit-identical results to direct `Scheduler` submission (1/2/4/8
/// workers).
#[test]
fn served_entry_points_bit_identical_to_direct_scheduler() {
    let t = tpch::lineitem(24_000, 77);
    let compact = tpch::CompactLineitem::from_table(&t);
    let li = tpch::lineitem_q3(18_000, 2_500, 77);
    let ord = tpch::orders(2_500, 77);
    let date = tpch::SHIPDATE_MAX / 2;
    let build_keys = Array::from((0..4_000).map(|i| i % 300).collect::<Vec<i64>>());
    let build_pays = Array::from((0..4_000).map(|i| i * 3).collect::<Vec<i64>>());
    let probe_keys: Vec<i64> = (0..20_000).map(|i| (i * 7) % 600).collect();

    for workers in [1usize, 2, 4, 8] {
        let scheduler = Scheduler::new(workers);
        let service = QueryService::new(ServeConfig::default().with_workers(workers));
        let direct = ParallelOpts::new(workers, 5_000).with_scheduler(&scheduler);
        // Default priority (Normal) through the admission-controlled path.
        let served = ParallelOpts::new(workers, 5_000).with_service(&service, Priority::Normal);

        let a = q1_parallel_vectorized(&t, DEFAULT_CHUNK, direct).unwrap();
        let b = q1_parallel_vectorized(&t, DEFAULT_CHUNK, served).unwrap();
        assert_eq!(q1_bits(&a), q1_bits(&b), "vectorized Q1 at {workers}");

        let a = q1_parallel_adaptive(&compact, DEFAULT_CHUNK, direct).unwrap();
        let b = q1_parallel_adaptive(&compact, DEFAULT_CHUNK, served).unwrap();
        assert_eq!(q1_bits(&a), q1_bits(&b), "adaptive Q1 at {workers}");

        let (ra, _) = q3_parallel(
            &li,
            &ord,
            date,
            tpch::JoinStrategy::Fused,
            DEFAULT_CHUNK,
            true,
            direct,
        )
        .unwrap();
        let (rb, _) = q3_parallel(
            &li,
            &ord,
            date,
            tpch::JoinStrategy::Fused,
            DEFAULT_CHUNK,
            true,
            served,
        )
        .unwrap();
        assert_eq!(ra.to_bits(), rb.to_bits(), "Q3 at {workers}");

        let (_, ja) =
            parallel_hash_join(&build_keys, &build_pays, &probe_keys, true, direct).unwrap();
        let (_, jb) =
            parallel_hash_join(&build_keys, &build_pays, &probe_keys, true, served).unwrap();
        assert_eq!(ja.indices, jb.indices, "join at {workers}");
        assert_eq!(ja.payloads, jb.payloads, "join at {workers}");

        let config = VmConfig {
            strategy: Strategy::Adaptive,
            hot_threshold: 3,
            ..VmConfig::default()
        };
        let (qa, _) = q6_parallel(&t, 1000, config.clone(), direct).unwrap();
        let (qb, report) = q6_parallel(&t, 1000, config, served).unwrap();
        assert_eq!(qa.to_bits(), qb.to_bits(), "Q6 at {workers}");
        assert_eq!(report.workers, workers);

        // Every served query was admitted + completed at Normal priority.
        let stats = service.stats();
        let normal = stats.priority(Priority::Normal);
        assert!(normal.completed >= 5, "{normal:?}");
        assert_eq!(normal.rejected(), 0);
        assert_eq!(normal.finished(), normal.admitted);
        let report = service.shutdown();
        assert!(report.clean, "{report:?}");
    }
}

/// Weighted-fair dispatch: with one running slot and both classes
/// backlogged, Interactive completes earlier on average, and Batch still
/// finishes (no starvation).
#[test]
fn interactive_outranks_batch_without_starving_it() {
    let service = QueryService::new(
        ServeConfig::default()
            .with_workers(1)
            .with_max_concurrent(1)
            .with_queue_capacity(16),
    );
    // Plug the running slot so the queues build up behind it.
    let plug = service
        .try_submit(
            ServeOpts::normal(),
            MorselPlan::new(40, 1),
            |_, m| {
                std::thread::sleep(Duration::from_millis(1));
                Ok::<usize, ()>(m.len)
            },
            |parts, _| parts.len(),
        )
        .unwrap();
    let order: &'static Mutex<Vec<Priority>> = Box::leak(Box::new(Mutex::new(Vec::new())));
    let mut handles = Vec::new();
    for i in 0..3 {
        for (opts, p) in [
            (ServeOpts::batch(), Priority::Batch),
            (ServeOpts::interactive(), Priority::Interactive),
        ] {
            let _ = i;
            handles.push(
                service
                    .try_submit(
                        opts,
                        MorselPlan::new(2_000, 100),
                        |_, m| Ok::<usize, ()>(m.len),
                        move |parts, _| {
                            order.lock().unwrap().push(p);
                            parts.iter().sum::<usize>()
                        },
                    )
                    .unwrap(),
            );
        }
    }
    plug.join().unwrap();
    for h in handles {
        assert_eq!(
            h.join_deadline(JOIN_BOUND)
                .expect("serving join exceeded bound")
                .unwrap(),
            2_000
        );
    }
    let order = order.lock().unwrap().clone();
    assert_eq!(order.len(), 6);
    let mean_pos = |p: Priority| {
        let ps: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, q)| **q == p)
            .map(|(i, _)| i)
            .collect();
        ps.iter().sum::<usize>() as f64 / ps.len() as f64
    };
    assert!(
        mean_pos(Priority::Interactive) < mean_pos(Priority::Batch),
        "interactive should complete earlier on average: {order:?}"
    );
    assert_eq!(
        service.stats().priority(Priority::Batch).completed,
        3,
        "batch must not starve"
    );
    service.shutdown();
}

/// Acceptance: `QueryHandle::cancel()` returns with the query's
/// morsels-executed ≤ morsels-planned while concurrent queries complete
/// exactly; the scheduler survives (no wedged worker).
#[test]
fn cancellation_mid_query_keeps_scheduler_stats_consistent() {
    let scheduler = Scheduler::new(2);
    let slow_plan = MorselPlan::new(2_000, 1);
    let planned = slow_plan.len() as u64;
    let slow = scheduler
        .submit_opts(
            slow_plan,
            SubmitOptions::default(),
            |_, m| {
                std::thread::sleep(Duration::from_millis(1));
                Ok::<usize, ()>(m.len)
            },
            |parts, _| parts.len(),
        )
        .unwrap();
    let quick = scheduler
        .submit(
            MorselPlan::new(50_000, 500),
            |_, m| Ok::<usize, ()>(m.len),
            |parts, _| parts.iter().sum::<usize>(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(15));
    slow.cancel();
    let executed_at_cancel = slow.executed();
    assert!(executed_at_cancel <= planned);
    match slow
        .join_deadline(JOIN_BOUND)
        .expect("cancel must not hang")
    {
        Err(QueryError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The concurrent query completes exactly.
    assert_eq!(
        quick
            .join_deadline(JOIN_BOUND)
            .expect("concurrent query hung")
            .unwrap(),
        50_000
    );
    let stats = scheduler.stats();
    assert_eq!(stats.queries_submitted, stats.queries_completed);
    assert!(
        stats.morsels_executed < planned + 100,
        "cancelled query must skip most of its {planned} morsels: {stats:?}"
    );
    // No worker wedged: a follow-up query completes.
    let (v, _) = Runner::Scheduler(&scheduler)
        .run(&MorselPlan::new(100, 10), None, |_, m| {
            Ok::<usize, ()>(m.len)
        })
        .unwrap();
    assert_eq!(v.iter().sum::<usize>(), 100);
}

/// The handle's executed/planned accounting, observed directly.
#[test]
fn cancelled_handle_reports_partial_morsel_accounting() {
    let scheduler = Scheduler::new(2);
    let plan = MorselPlan::new(1_000, 1);
    let planned = plan.len() as u64;
    let handle = scheduler
        .submit(
            plan,
            |_, m| {
                std::thread::sleep(Duration::from_millis(1));
                Ok::<usize, ()>(m.len)
            },
            |parts, _| parts.len(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    handle.cancel();
    // Poll the per-query counter through the handle before joining.
    let executed = handle.executed();
    assert!(executed <= planned);
    match handle.join_deadline(JOIN_BOUND).expect("join hung") {
        Err(QueryError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let final_executed = scheduler.stats().morsels_executed;
    assert!(
        final_executed < planned,
        "morsels executed ({final_executed}) must stay below planned ({planned})"
    );
}

/// Backpressure: under concurrent hammering from many threads, every
/// QueueFull — and every overload shed the sustained QueueFull pressure
/// escalates into — is counted exactly once, and admitted == finished.
#[test]
fn rejections_counted_exactly_under_concurrent_hammering() {
    let service = QueryService::new(
        ServeConfig::default()
            .with_workers(2)
            .with_max_concurrent(1)
            .with_queue_capacity(4),
    );
    let rejected = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let submitted = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..6 {
            let service = &service;
            let (rejected, shed) = (&rejected, &shed);
            let submitted = &submitted;
            s.spawn(move || {
                for _ in 0..25 {
                    submitted.fetch_add(1, Ordering::Relaxed);
                    match service.try_submit(
                        ServeOpts::normal(),
                        MorselPlan::new(2_000, 200),
                        |_, m| Ok::<usize, ()>(m.len),
                        |parts, _| parts.iter().sum::<usize>(),
                    ) {
                        Ok(h) => {
                            assert_eq!(
                                h.join_deadline(JOIN_BOUND)
                                    .expect("admitted query hung")
                                    .unwrap(),
                                2_000
                            );
                        }
                        Err(AdmissionError::QueueFull(Priority::Normal)) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(AdmissionError::Shed(Priority::Normal)) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected admission error: {other}"),
                    }
                }
            });
        }
    });
    let stats = service.stats();
    let normal = stats.priority(Priority::Normal);
    assert_eq!(normal.submitted, submitted.load(Ordering::Relaxed));
    assert_eq!(
        normal.rejected_full,
        rejected.load(Ordering::Relaxed),
        "every QueueFull counted exactly once: {normal:?}"
    );
    assert_eq!(
        normal.shed,
        shed.load(Ordering::Relaxed),
        "every shed counted exactly once: {normal:?}"
    );
    assert_eq!(
        normal.admitted,
        normal.submitted - normal.rejected_full - normal.shed
    );
    assert_eq!(normal.finished(), normal.admitted, "{normal:?}");
    assert_eq!(normal.completed, normal.admitted, "all admitted complete");
    let report = service.drain(JOIN_BOUND);
    assert!(report.clean);
}

/// Regression (spurious wakeups): `join_deadline` recomputes remaining
/// time across `recv_timeout` retries — it must neither fire early on a
/// query that finishes in time, nor hang past its bound on one that
/// doesn't.
#[test]
fn join_deadline_neither_fires_early_nor_hangs() {
    let scheduler = Scheduler::new(2);
    // (a) A query that completes comfortably inside the deadline.
    let quick = scheduler
        .submit(
            MorselPlan::new(200, 10),
            |_, m| {
                std::thread::sleep(Duration::from_millis(1));
                Ok::<usize, ()>(m.len)
            },
            |parts, _| parts.iter().sum::<usize>(),
        )
        .unwrap();
    let t0 = Instant::now();
    let joined = quick.join_deadline(JOIN_BOUND);
    assert_eq!(joined, Some(Ok(200)), "must not fire early");
    assert!(t0.elapsed() < JOIN_BOUND, "and must not wait out the bound");

    // (b) A query that cannot finish inside a short deadline: the join
    // returns None no earlier than the deadline and well before forever.
    let slow = scheduler
        .submit(
            MorselPlan::new(4_000, 1),
            |_, m| {
                std::thread::sleep(Duration::from_millis(1));
                Ok::<usize, ()>(m.len)
            },
            |parts, _| parts.len(),
        )
        .unwrap();
    let deadline = Duration::from_millis(80);
    let t0 = Instant::now();
    let joined = slow.join_deadline(deadline);
    let waited = t0.elapsed();
    assert!(joined.is_none(), "the slow query cannot make this deadline");
    assert!(
        waited >= deadline,
        "deadline fired early: waited {waited:?} of {deadline:?}"
    );
    assert!(
        waited < JOIN_BOUND,
        "deadline hung: waited {waited:?} for a {deadline:?} bound"
    );
    // Scheduler drop below still drains the abandoned slow query —
    // covered by the accounting assertion in Drop ordering tests.
}

/// Drop-vs-explicit-shutdown ordering: both paths finish every accepted
/// query (none lost, none leaked), and submitting after an explicit
/// shutdown is a typed error.
#[test]
fn drop_and_explicit_shutdown_both_drain_accepted_queries() {
    // Explicit shutdown first.
    let scheduler = Scheduler::new(3);
    let handles: Vec<_> = (0..8)
        .map(|i| {
            scheduler
                .submit(
                    MorselPlan::new(3_000 + i * 100, 128),
                    |_, m| Ok::<usize, ()>(m.len),
                    |parts, _| parts.iter().sum::<usize>(),
                )
                .unwrap()
        })
        .collect();
    scheduler.shutdown();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(
            h.join_deadline(JOIN_BOUND).expect("lost query").unwrap(),
            3_000 + i * 100,
            "query {i} lost in shutdown"
        );
    }
    assert_eq!(
        scheduler
            .submit(
                MorselPlan::new(10, 1),
                |_, m| Ok::<usize, ()>(m.len),
                |parts, _| parts.len(),
            )
            .err(),
        Some(SubmitError::ShutDown)
    );
    let stats = scheduler.stats();
    assert_eq!(stats.queries_submitted, stats.queries_completed);
    drop(scheduler); // second teardown is a no-op

    // Pure Drop path: handles must still resolve after the scheduler is
    // gone (Drop finishes in-flight queries before joining workers).
    let handles: Vec<_> = {
        let scheduler = Scheduler::new(2);
        (0..6)
            .map(|_| {
                scheduler
                    .submit(
                        MorselPlan::new(10_000, 256),
                        |_, m| Ok::<usize, ()>(m.len),
                        |parts, _| parts.iter().sum::<usize>(),
                    )
                    .unwrap()
            })
            .collect()
        // scheduler drops here
    };
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(
            h.join_deadline(JOIN_BOUND).expect("lost query").unwrap(),
            10_000,
            "query {i} lost in Drop"
        );
    }
}

/// Cancellation propagates through the relational entry points: a
/// pre-cancelled token aborts the pipeline with the typed kernel/VM
/// error on both the scoped pool and the serving path.
#[test]
fn relational_pipelines_surface_typed_cancellation() {
    use adaptvm::kernels::{FilterFlavor, KernelError, MapMode};
    use adaptvm::parallel::CancelToken;
    use adaptvm::storage::gen;
    use adaptvm::vm::VmError;

    let token = CancelToken::new();
    token.cancel();
    let t = gen::measurements(8_000, 8, 3);
    let scoped = ParallelOpts::new(2, 1_000).with_cancel(&token);
    match parallel_filter_project_sum(
        &t,
        "group",
        2,
        "value",
        512,
        FilterFlavor::SelVecLoop,
        MapMode::Selective,
        scoped,
    ) {
        Err(KernelError::Cancelled) => {}
        other => panic!("expected KernelError::Cancelled, got {other:?}"),
    }

    let li = tpch::lineitem(6_000, 9);
    let service = QueryService::new(ServeConfig::default().with_workers(2));
    let served = ParallelOpts::new(2, 1_000)
        .with_service(&service, Priority::Interactive)
        .with_cancel(&token);
    match q6_parallel(&li, 1000, VmConfig::default(), served) {
        Err(VmError::Cancelled) => {}
        other => panic!("expected VmError::Cancelled, got {:?}", other.map(|_| ())),
    }
    service.shutdown();
}

/// A queued query's deadline resolves promptly — the dispatcher evicts
/// expired entries even while every running slot is taken, instead of
/// waiting for the entry's dispatch turn.
#[test]
fn queued_deadline_resolves_before_the_slot_frees() {
    let service = QueryService::new(
        ServeConfig::default()
            .with_workers(1)
            .with_max_concurrent(1),
    );
    // A plug that holds the only slot for a long time.
    let plug = service
        .try_submit(
            ServeOpts::normal(),
            MorselPlan::new(1_000, 1),
            |_, m| {
                std::thread::sleep(Duration::from_millis(2));
                Ok::<usize, ()>(m.len)
            },
            |parts, _| parts.len(),
        )
        .unwrap();
    let doomed = service
        .try_submit(
            ServeOpts::batch().with_deadline(Duration::from_millis(20)),
            MorselPlan::new(1_000, 100),
            |_, m| Ok::<usize, ()>(m.len),
            |parts, _| parts.iter().sum::<usize>(),
        )
        .unwrap();
    let doomed_token = doomed.cancel_token().clone();
    let t0 = Instant::now();
    match doomed.join_deadline(JOIN_BOUND).expect("join hung") {
        Err(QueryError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "queued deadline must not wait for the ~2 s plug to free the slot \
         (waited {:?})",
        t0.elapsed()
    );
    // The token observed the expiry too.
    assert!(doomed_token.is_cancelled());
    plug.join_deadline(JOIN_BOUND).expect("plug hung").unwrap();
    service.shutdown();
}

/// A panicking gated pipeline releases its dispatch slot (counted as
/// Panicked) instead of wedging the service; drain still completes.
#[test]
fn panicking_gated_run_does_not_leak_its_slot() {
    let service = QueryService::new(
        ServeConfig::default()
            .with_workers(1)
            .with_max_concurrent(1),
    );
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = service.run_gated(ServeOpts::interactive(), |_| {
            panic!("gated pipeline exploded");
        });
    }));
    assert!(boom.is_err());
    assert_eq!(service.stats().priority(Priority::Interactive).panicked, 1);
    // The slot was released: a follow-up query dispatches and completes.
    let h = service
        .try_submit(
            ServeOpts::normal(),
            MorselPlan::new(1_000, 100),
            |_, m| Ok::<usize, ()>(m.len),
            |parts, _| parts.iter().sum::<usize>(),
        )
        .unwrap();
    assert_eq!(
        h.join_deadline(JOIN_BOUND)
            .expect("service wedged")
            .unwrap(),
        1_000
    );
    let report = service.drain(JOIN_BOUND);
    assert!(report.clean, "{report:?}");
}

/// Gated task errors are counted as task errors, not completions.
#[test]
fn gated_task_errors_reach_the_telemetry() {
    use adaptvm::kernels::KernelError;
    let service = QueryService::new(ServeConfig::default().with_workers(2));
    let t = tpch::lineitem(4_000, 5);
    let served = ParallelOpts::new(2, 1_000).with_service(&service, Priority::Normal);
    // A bad column name fails inside the per-morsel stage.
    let r = parallel_filter_project_sum(
        &t,
        "no_such_column",
        2,
        "l_quantity",
        512,
        adaptvm::kernels::FilterFlavor::SelVecLoop,
        adaptvm::kernels::MapMode::Selective,
        served,
    );
    assert!(matches!(
        r,
        Err(KernelError::Storage(_)) | Err(KernelError::Precondition(_))
    ));
    let ps = service.stats();
    let normal = ps.priority(Priority::Normal);
    assert_eq!(normal.task_errors, 1, "{normal:?}");
    assert_eq!(normal.completed, 0, "{normal:?}");
    service.shutdown();
}

/// Mixed-priority load against one service with concurrent submitters:
/// accounting stays exact end to end.
#[test]
fn mixed_priority_load_accounts_exactly() {
    let service = QueryService::new(
        ServeConfig::default()
            .with_workers(2)
            .with_max_concurrent(2)
            .with_queue_capacity(64),
    );
    let compact = tpch::CompactLineitem::from_table(&tpch::lineitem(10_000, 3));
    let reference = q1_bits(&tpch::q1_adaptive(&compact, DEFAULT_CHUNK));
    std::thread::scope(|s| {
        for submitter in 0..4 {
            let service = &service;
            let compact = &compact;
            let reference = &reference;
            s.spawn(move || {
                for round in 0..3 {
                    let priority = Priority::ALL[(submitter + round) % 3];
                    // Borrowing pipeline through the admission gate.
                    let opts = ParallelOpts::new(2, 2_000).with_service(service, priority);
                    let rows = q1_parallel_adaptive(compact, DEFAULT_CHUNK, opts).unwrap();
                    assert_eq!(&q1_bits(&rows), reference, "diverged under load");
                    // Plus an async raw submission at the same priority.
                    let h = service
                        .submit(
                            ServeOpts::new(priority),
                            MorselPlan::new(5_000, 250),
                            |_, m| Ok::<usize, ()>(m.len),
                            |parts, _| parts.iter().sum::<usize>(),
                        )
                        .expect("unbounded submit is admitted");
                    assert_eq!(
                        h.join_deadline(JOIN_BOUND).expect("query hung").unwrap(),
                        5_000
                    );
                }
            });
        }
    });
    let stats = service.stats();
    let mut admitted = 0;
    let mut finished = 0;
    for p in Priority::ALL {
        let ps = stats.priority(p);
        assert_eq!(ps.rejected(), 0, "{p}: no rejections at this load");
        assert_eq!(ps.finished(), ps.admitted, "{p}: {ps:?}");
        admitted += ps.admitted;
        finished += ps.finished();
    }
    assert_eq!(admitted, finished);
    assert_eq!(admitted, 4 * 3 * 2, "2 admissions per round per submitter");
    let sched = stats.scheduler;
    assert_eq!(sched.queries_submitted, sched.queries_completed);
    let report = service.drain(JOIN_BOUND);
    assert!(report.clean, "{report:?}");
}
