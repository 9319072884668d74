//! The one blocking way to run a task per morsel: [`Runner::run`], on a
//! scoped pool, a long-lived [`Scheduler`], or a [`QueryService`] —
//! results **in morsel order** on every arm.
//!
//! In the scoped pool each worker loops on [`Dispatcher::next`] until the
//! plan drains. A worker owns everything mutable it touches (the task
//! builds per-morsel state); only explicitly shared structures (the JIT
//! code cache, the dispatcher) cross threads. `workers = 1` runs inline
//! on the calling thread — *by construction* identical to a sequential
//! loop over the plan, which is the anchor of every determinism guarantee
//! upstairs.

use std::time::Instant;

use crate::dispatch::{DispatchStats, Dispatcher};
use crate::morsel::{Morsel, MorselPlan};
use crate::obs::{self, EventKind};
use crate::scheduler::{CancelReason, CancelToken, QueryOutcomeKind, RunError, Scheduler};
use crate::serve::{Priority, QueryService, SubmitOpts, TenantId};

/// The trace lane for worker `w` (worker ids past the lane budget share
/// the last worker lane).
pub(crate) fn worker_lane(w: usize) -> u16 {
    w.min(obs::MAX_WORKER_LANES - 1) as u16
}

/// Where a morsel plan executes: a scoped per-run pool (threads spawned
/// and joined inside the call), a long-lived [`Scheduler`] (threads
/// created once, queries queued), or an admission-controlled
/// [`QueryService`] (a scheduler behind bounded priority queues). All
/// sides honor the same contract — results in morsel order, first error
/// aborts — so pipelines written against [`Runner::run`] are
/// executor-agnostic and their results are identical on any of them.
#[derive(Clone, Copy)]
pub enum Runner<'a> {
    /// Spawn `workers` scoped threads for this run only.
    Scoped {
        /// Worker threads (clamped to ≥1).
        workers: usize,
    },
    /// Queue the run on a long-lived scheduler.
    Scheduler(&'a Scheduler),
    /// Pass admission control first, then run on the service's scheduler.
    Service {
        /// The serving layer (admission + fairness + telemetry).
        service: &'a QueryService,
        /// Priority class the run is admitted under.
        priority: Priority,
        /// Tenant the run is attributed to (`None` = anonymous). Tenancy
        /// only gates admission and dispatch order — results are
        /// bit-identical either way.
        tenant: Option<TenantId>,
    },
}

impl std::fmt::Debug for Runner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Runner::Scoped { workers } => {
                f.debug_struct("Scoped").field("workers", workers).finish()
            }
            Runner::Scheduler(s) => f
                .debug_struct("Scheduler")
                .field("workers", &s.workers())
                .finish(),
            Runner::Service {
                service,
                priority,
                tenant,
            } => f
                .debug_struct("Service")
                .field("workers", &service.scheduler().workers())
                .field("priority", priority)
                .field("tenant", tenant)
                .finish(),
        }
    }
}

impl<'a> Runner<'a> {
    /// The long-lived scheduler this runner executes on: the scheduler
    /// itself, or the service's; `None` for a scoped pool.
    pub fn scheduler(&self) -> Option<&'a Scheduler> {
        match *self {
            Runner::Scoped { .. } => None,
            Runner::Scheduler(s) => Some(s),
            Runner::Service { service, .. } => Some(service.scheduler()),
        }
    }

    /// Worker threads this runner executes on.
    pub fn workers(&self) -> usize {
        match *self {
            Runner::Scoped { workers } => workers.max(1),
            Runner::Scheduler(s) => s.workers(),
            Runner::Service { service, .. } => service.scheduler().workers(),
        }
    }

    /// Run `task` over every morsel of `plan`; results come back **in
    /// morsel order** with the dispatch stats. The first task error aborts
    /// the run (remaining morsels are skipped) and is returned; task
    /// panics propagate.
    ///
    /// `cancel` is checked before every morsel: on cancellation the
    /// remaining morsels are skipped (in-flight ones finish). Cancellation,
    /// deadlines, and admission rejection (scheduler shut down / service
    /// queue full or draining) surface as typed [`RunError`]s; a task
    /// error still wins if it happened first.
    pub fn run<T, E, F>(
        &self,
        plan: &MorselPlan,
        cancel: Option<&CancelToken>,
        task: F,
    ) -> Result<(Vec<T>, DispatchStats), RunError<E>>
    where
        T: Send,
        E: Send,
        F: Fn(usize, &Morsel) -> Result<T, E> + Send + Sync,
    {
        match self {
            Runner::Scoped { workers } => run_scoped(*workers, plan, cancel, task),
            Runner::Scheduler(s) => s.run(plan, cancel, task),
            Runner::Service {
                service,
                priority,
                tenant,
            } => {
                // No explicit trace: the gate inherits the caller's
                // ambient trace scope, like every other executor.
                let opts = SubmitOpts {
                    priority: *priority,
                    tenant: *tenant,
                    cancel: cancel.cloned(),
                    ..SubmitOpts::default()
                };
                // Classify the run's own result for the service
                // telemetry (a plain run_gated would count task errors
                // as completed).
                let outcome = |r: &Result<(Vec<T>, DispatchStats), RunError<E>>| match r {
                    Ok(_) => QueryOutcomeKind::Completed,
                    Err(RunError::Task(_)) => QueryOutcomeKind::TaskError,
                    Err(RunError::Cancelled | RunError::Rejected(_)) => QueryOutcomeKind::Cancelled,
                    Err(RunError::DeadlineExceeded) => QueryOutcomeKind::DeadlineExceeded,
                };
                match service.run_gated_with(opts, |s| s.run(plan, cancel, task), outcome) {
                    Ok(out) => out,
                    Err(gate) => Err(gate.into_run_error()),
                }
            }
        }
    }
}

/// The scoped pool behind [`Runner::Scoped`]: `workers` threads spawned
/// and joined inside the call; `workers = 1` runs inline.
fn run_scoped<T, E, F>(
    workers: usize,
    plan: &MorselPlan,
    cancel: Option<&CancelToken>,
    task: F,
) -> Result<(Vec<T>, DispatchStats), RunError<E>>
where
    T: Send,
    E: Send,
    F: Fn(usize, &Morsel) -> Result<T, E> + Sync,
{
    let workers = workers.max(1);
    let dispatcher = Dispatcher::new(plan.morsels(), workers);
    // Capture the caller's trace scope (if any) before fanning out, so
    // worker threads inherit it; one relaxed load when tracing is off.
    let scope = obs::current_scope();
    let check = || -> Result<(), CancelReason> {
        match cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    };
    let cancel_err = |reason: CancelReason| -> RunError<E> {
        match reason {
            CancelReason::Cancelled => RunError::Cancelled,
            CancelReason::DeadlineExceeded => RunError::DeadlineExceeded,
        }
    };

    if workers == 1 {
        // Inline sequential execution: the single-threaded reference path.
        let _lane = scope.as_ref().map(|(t, st)| t.enter_lane(0, st));
        let mut results = Vec::with_capacity(plan.len());
        while let Some((m, stolen)) = dispatcher.next_from(0) {
            check().map_err(cancel_err)?;
            let t0 = scope.as_ref().map(|_| Instant::now());
            results.push(task(0, &m).map_err(RunError::Task)?);
            if let Some((trace, _)) = &scope {
                obs::emit(EventKind::Morsel {
                    index: m.index as u32,
                    rows: m.len as u32,
                    stolen,
                    dur_ns: trace.dur_ns(t0.expect("timed when traced").elapsed()),
                });
            }
        }
        return Ok((results, dispatcher.stats()));
    }

    // What each scoped worker hands back: its indexed morsel results, or
    // the first task/cancellation error it hit.
    type WorkerOutput<T, E> = Result<Vec<(usize, T)>, RunError<E>>;
    let stop = std::sync::atomic::AtomicBool::new(false);
    let worker_outputs: Vec<WorkerOutput<T, E>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let dispatcher = &dispatcher;
                let task = &task;
                let stop = &stop;
                let check = &check;
                let scope = scope.clone();
                s.spawn(move || {
                    let _lane = scope
                        .as_ref()
                        .map(|(t, st)| t.enter_lane(worker_lane(w), st));
                    let mut out: Vec<(usize, T)> = Vec::new();
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let Some((m, stolen)) = dispatcher.next_from(w) else {
                            break;
                        };
                        if let Err(reason) = check() {
                            stop.store(true, std::sync::atomic::Ordering::Relaxed);
                            return Err(cancel_err(reason));
                        }
                        let t0 = scope.as_ref().map(|_| Instant::now());
                        match task(w, &m) {
                            Ok(v) => {
                                if let Some((trace, _)) = &scope {
                                    obs::emit(EventKind::Morsel {
                                        index: m.index as u32,
                                        rows: m.len as u32,
                                        stolen,
                                        dur_ns: trace
                                            .dur_ns(t0.expect("timed when traced").elapsed()),
                                    });
                                }
                                out.push((m.index, v));
                            }
                            Err(e) => {
                                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                                return Err(RunError::Task(e));
                            }
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("morsel worker panicked"))
            .collect()
    });

    // Assemble in morsel order (indices are unique and dense on success).
    // A task error outranks a concurrent cancellation: the error happened
    // first (it is what tripped `stop` for the others), so report it.
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(plan.len());
    let mut cancelled: Option<RunError<E>> = None;
    for out in worker_outputs {
        match out {
            Ok(pairs) => indexed.extend(pairs),
            Err(e @ RunError::Task(_)) => return Err(e),
            Err(e) => cancelled = Some(e),
        }
    }
    if let Some(e) = cancelled {
        return Err(e);
    }
    indexed.sort_by_key(|(i, _)| *i);
    Ok((
        indexed.into_iter().map(|(_, v)| v).collect(),
        dispatcher.stats(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeConfig;
    use std::time::Duration;

    /// The one `Runner` contract, checked on every arm: identical
    /// morsel-ordered results, first error aborts typed, a pre-cancelled
    /// token runs nothing, and a shut-down scheduler / draining service
    /// rejects typed (never an inline fallback, never a panic).
    #[test]
    fn every_runner_honors_one_contract() {
        let data: Vec<i64> = (0..50_000).map(|i| (i * 17) % 1000 - 500).collect();
        let plan = MorselPlan::new(data.len(), 1024);
        let sum = |_: usize, m: &Morsel| Ok::<i64, &str>(data[m.start..m.end()].iter().sum());
        let expect: Vec<i64> = plan
            .morsels()
            .iter()
            .map(|m| data[m.start..m.end()].iter().sum())
            .collect();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let scheduler = Scheduler::new(4);
        let service = QueryService::new(ServeConfig::default().with_workers(4));
        let runners = [
            Runner::Scoped { workers: 1 },
            Runner::Scoped { workers: 4 },
            Runner::Scheduler(&scheduler),
            Runner::Service {
                service: &service,
                priority: Priority::Normal,
                tenant: None,
            },
        ];
        for runner in runners {
            let r = runner.run(&plan, None, |w, m| match m.index {
                13 => Err("boom"),
                _ => sum(w, m),
            });
            assert_eq!(r.unwrap_err(), RunError::Task("boom"), "{runner:?}");
            // The executor survives the aborted run.
            let (parts, stats) = runner.run(&plan, None, sum).unwrap();
            assert_eq!(parts, expect, "{runner:?}");
            assert_eq!(
                stats.executed.iter().sum::<u64>(),
                plan.len() as u64,
                "{runner:?}"
            );
            let (parts, stats) = runner.run(&MorselPlan::new(0, 8), None, sum).unwrap();
            assert!(parts.is_empty() && stats.steals == 0, "{runner:?}");
            let r = runner.run(&plan, Some(&cancelled), sum);
            assert_eq!(r.unwrap_err(), RunError::Cancelled, "{runner:?}");
        }
        scheduler.shutdown();
        service.drain(Duration::ZERO);
        for runner in &runners[2..] {
            match runner.run(&plan, None, sum) {
                Err(RunError::Rejected(_)) => {}
                other => panic!("{runner:?}: expected a typed rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn mid_run_cancellation_skips_the_tail() {
        let token = CancelToken::new();
        let plan = MorselPlan::new(200, 1);
        let t = token.clone();
        let executed = std::sync::atomic::AtomicUsize::new(0);
        let r = Runner::Scoped { workers: 2 }.run(&plan, Some(&token), |_, m| {
            executed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if m.index == 5 {
                t.cancel();
            }
            std::thread::sleep(Duration::from_micros(200));
            Ok::<usize, ()>(m.len)
        });
        assert_eq!(r.unwrap_err(), RunError::Cancelled);
        assert!(
            executed.load(std::sync::atomic::Ordering::Relaxed) < plan.len(),
            "cancellation must skip part of the plan"
        );
    }
}
