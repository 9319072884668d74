//! The long-lived worker pool and query scheduler.
//!
//! A scoped pool ([`Runner::Scoped`]) spawns threads per run — fine for a
//! benchmark, wrong for serving: thread spawn/join on every query, no way
//! to overlap two queries, and a fresh JIT world each time. A
//! [`Scheduler`] instead creates its workers **once** and parks them
//! between queries:
//!
//! * [`Scheduler::submit`] enqueues a query — a [`MorselPlan`] plus a task
//!   closure plus a merge closure — and returns a [`QueryHandle`] that
//!   joins on the morsel-ordered, merged result,
//! * [`Runner::Scheduler`] is the borrowing (scoped) flavor of the same
//!   path: [`Runner::run`] blocks the calling thread until the query
//!   drains, which is what lets the task capture plain references (the
//!   relational pipelines and [`crate::exec::run_vm`] use this),
//! * multiple in-flight queries share the worker set morsel-by-morsel:
//!   workers rotate across the active queries, so one long scan cannot
//!   starve a short one,
//! * every query carries a [`CancelToken`] checked at **morsel
//!   boundaries**: [`QueryHandle::cancel`] (or a per-query deadline via
//!   [`SubmitOptions`]) aborts only that query — remaining morsels are
//!   skipped, in-flight ones finish, accounting stays exact, and the
//!   joiner sees [`QueryError::Cancelled`]/[`QueryError::DeadlineExceeded`],
//! * [`Scheduler::shutdown`] is the explicit teardown: new submissions get
//!   a typed [`SubmitError::ShutDown`], in-flight queries finish, workers
//!   join. `Drop` calls the same path, so the silent-drop behavior and the
//!   explicit one are identical,
//! * one [`CodeCache`] is owned by the scheduler and shared by every query
//!   that runs on it: the first morsel to reach a hot fragment compiles it
//!   on its own worker, and later morsels — of the same query or of any
//!   other — inject it from the cache (see
//!   `adaptvm_vm::VmConfig::code_cache`),
//! * a [`MorselElasticity`] controller adapts the preferred morsel size
//!   from merged profile windows: grow while compiled traces dominate and
//!   stealing is rare (fewer per-morsel setups on the fast path), shrink
//!   when steal counts indicate imbalance (finer stealing granularity).
//!
//! The admission-controlled serving front end — bounded priority queues,
//! weighted-fair dispatch, graceful drain, telemetry — lives one layer up
//! in [`crate::serve`].
//!
//! ## Determinism
//!
//! Scheduling changes nothing observable: a morsel's result depends only
//! on its row range, results are stored at their morsel index and handed
//! back **in morsel order**, and the merge closure runs once over that
//! ordered vector. A query's output is therefore identical whatever the
//! worker count, however many queries run beside it, and identical to the
//! scoped pool ([`Runner::Scoped`]) over the same plan.
//!
//! ## Quickstart
//!
//! ```
//! use adaptvm_parallel::{MorselPlan, Runner, Scheduler};
//!
//! let scheduler = Scheduler::new(4); // workers created once, parked when idle
//! let data: Vec<i64> = (0..100_000).collect();
//!
//! // Async submission: handle joins on the morsel-ordered, merged result.
//! let plan = MorselPlan::new(data.len(), 4096);
//! let shared = std::sync::Arc::new(data);
//! let d = shared.clone();
//! let handle = scheduler
//!     .submit(
//!         plan,
//!         move |_worker, m| Ok::<i64, ()>(d[m.start..m.end()].iter().sum()),
//!         |parts, _stats| parts.iter().sum::<i64>(),
//!     )
//!     .expect("scheduler is accepting");
//! assert_eq!(handle.join().unwrap(), (0..100_000).sum::<i64>());
//!
//! // Scoped flavor: borrows freely, blocks until the query completes.
//! let plan = MorselPlan::new(shared.len(), 4096);
//! let (parts, stats) = Runner::Scheduler(&scheduler)
//!     .run(&plan, None, |_w, m| Ok::<i64, ()>(shared[m.start..m.end()].iter().sum()))
//!     .unwrap();
//! assert_eq!(parts.iter().sum::<i64>(), (0..100_000).sum::<i64>());
//! assert_eq!(stats.executed.iter().sum::<u64>(), plan.len() as u64);
//!
//! // Explicit teardown: later submissions get a typed error.
//! scheduler.shutdown();
//! assert!(scheduler
//!     .submit(
//!         MorselPlan::new(8, 1),
//!         |_, m| Ok::<usize, ()>(m.len),
//!         |parts, _| parts.len(),
//!     )
//!     .is_err());
//! ```

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use adaptvm_jit::CodeCache;
use adaptvm_storage::DEFAULT_CHUNK;

use crate::dispatch::{DispatchStats, Dispatcher};
use crate::morsel::{Morsel, MorselPlan, DEFAULT_MORSEL_ROWS};
use crate::obs::{self, EventKind, QueryProfile, Trace};
#[cfg(doc)]
use crate::pool::Runner;

/// Capacity of a JIT code cache the engine creates — the scheduler's
/// shared one, or a scoped VM run's own. Generously sized: a query
/// pipeline yields a handful of fragments; 256 holds many queries' worth
/// of specialized traces.
pub(crate) const CODE_CACHE_CAPACITY: usize = 256;

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// Why a query stopped before completing its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// Someone called [`CancelToken::cancel`] / [`QueryHandle::cancel`].
    Cancelled,
    /// The query's deadline passed.
    DeadlineExceeded,
}

const TOKEN_LIVE: u8 = 0;
const TOKEN_CANCELLED: u8 = 1;
const TOKEN_EXPIRED: u8 = 2;

/// A shared, cloneable cancellation flag, checked **cooperatively at
/// morsel boundaries**: a worker finishes the morsel it holds, then skips
/// every remaining one of the cancelled query. Other queries on the same
/// pool are untouched.
///
/// Tokens are cheap (`Arc<AtomicU8>`); every scheduler query gets one
/// (yours via [`SubmitOptions::cancel`], or a fresh one otherwise) and the
/// [`QueryHandle`] exposes it. The same token can be shared by several
/// queries to cancel them as a group.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
}

impl CancelToken {
    /// A live token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; a token that already expired by
    /// deadline keeps reporting [`CancelReason::DeadlineExceeded`].
    pub fn cancel(&self) {
        let _ = self.state.compare_exchange(
            TOKEN_LIVE,
            TOKEN_CANCELLED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Mark the token expired by deadline (the scheduler does this when a
    /// query's deadline trips, so every holder observes the same state).
    pub(crate) fn expire(&self) {
        let _ = self.state.compare_exchange(
            TOKEN_LIVE,
            TOKEN_EXPIRED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// `Err(reason)` once the token fired — the per-morsel checkpoint.
    pub fn check(&self) -> Result<(), CancelReason> {
        match self.state.load(Ordering::Acquire) {
            TOKEN_CANCELLED => Err(CancelReason::Cancelled),
            TOKEN_EXPIRED => Err(CancelReason::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    /// True once cancelled or expired.
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }

    /// The reason the token fired, if it has.
    pub fn reason(&self) -> Option<CancelReason> {
        self.check().err()
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why the scheduler refused a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// [`Scheduler::shutdown`] ran (or `Drop` began): the pool no longer
    /// accepts queries.
    ShutDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::ShutDown => write!(f, "scheduler is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a joined query produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError<E> {
    /// The query's task returned an error (first error wins).
    Task(E),
    /// The query was cancelled via its [`CancelToken`].
    Cancelled,
    /// The query's deadline passed before it completed.
    DeadlineExceeded,
}

impl<E: fmt::Display> fmt::Display for QueryError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Task(e) => write!(f, "query task failed: {e}"),
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::DeadlineExceeded => write!(f, "query deadline exceeded"),
        }
    }
}

/// Why a blocking [`Runner::run`] returned no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError<E> {
    /// The task returned an error (first error wins).
    Task(E),
    /// The run's [`CancelToken`] fired.
    Cancelled,
    /// The run's deadline passed.
    DeadlineExceeded,
    /// The executor refused the run (scheduler shut down, service
    /// draining, queue full, or admission timed out) — the reason string
    /// is human-readable; the *typed* admission errors live on the
    /// submission APIs themselves ([`SubmitError`],
    /// [`crate::serve::AdmissionError`]).
    Rejected(String),
}

impl<E: fmt::Display> fmt::Display for RunError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Task(e) => write!(f, "task failed: {e}"),
            RunError::Cancelled => write!(f, "run cancelled"),
            RunError::DeadlineExceeded => write!(f, "run deadline exceeded"),
            RunError::Rejected(why) => write!(f, "run rejected: {why}"),
        }
    }
}

/// How a finalized query ended (the argument of the completion hook the
/// serving layer installs via [`SubmitOptions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcomeKind {
    /// Merge ran, result delivered.
    Completed,
    /// The task errored.
    TaskError,
    /// A task or merge panicked (payload re-raised on the joiner).
    Panicked,
    /// Cancelled via token.
    Cancelled,
    /// Deadline passed mid-query.
    DeadlineExceeded,
}

impl QueryOutcomeKind {
    /// Stable lowercase name (trace events, metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            QueryOutcomeKind::Completed => "completed",
            QueryOutcomeKind::TaskError => "task_error",
            QueryOutcomeKind::Panicked => "panicked",
            QueryOutcomeKind::Cancelled => "cancelled",
            QueryOutcomeKind::DeadlineExceeded => "deadline",
        }
    }
}

/// A completion hook: runs exactly once, on the worker that finalizes the
/// query, right after the result is handed to the joiner.
pub(crate) type DoneHook = Box<dyn FnOnce(QueryOutcomeKind) + Send + 'static>;

/// Per-submission options for [`Scheduler::submit_opts`].
#[derive(Default)]
pub struct SubmitOptions {
    /// Cancel this query through an externally held token (a fresh token
    /// is created when absent; the handle exposes it either way).
    pub cancel: Option<CancelToken>,
    /// Abort the query once this much time passes after submission;
    /// checked at morsel boundaries (cooperative, never mid-morsel).
    pub deadline: Option<Duration>,
    /// Record this query's execution into a [`Trace`] (morsel spans, JIT
    /// decisions, spill I/O); read it back via [`QueryHandle::profile`].
    /// When absent, the submitting thread's ambient trace scope (if any)
    /// is inherited.
    pub trace: Option<Trace>,
    /// Completion hook for the serving layer (telemetry + slot release).
    pub(crate) on_done: Option<DoneHook>,
}

impl SubmitOptions {
    /// Attach an external cancel token.
    pub fn with_cancel(mut self, token: CancelToken) -> SubmitOptions {
        self.cancel = Some(token);
        self
    }

    /// Set a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Record this query's execution into `trace`.
    pub fn with_trace(mut self, trace: Trace) -> SubmitOptions {
        self.trace = Some(trace);
        self
    }

    pub(crate) fn with_on_done(mut self, hook: DoneHook) -> SubmitOptions {
        self.on_done = Some(hook);
        self
    }
}

impl fmt::Debug for SubmitOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubmitOptions")
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field("trace", &self.trace.is_some())
            .field("on_done", &self.on_done.is_some())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Elasticity
// ---------------------------------------------------------------------------

/// Bounds and granularity for [`MorselElasticity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticityConfig {
    /// Smallest morsel the controller will shrink to (floor: stealing
    /// granularity).
    pub min_rows: usize,
    /// Largest morsel the controller will grow to (ceiling: merge latency
    /// and steal-ability).
    pub max_rows: usize,
    /// Morsel sizes stay multiples of this (chunk alignment keeps parallel
    /// chunk boundaries identical to sequential ones).
    pub align_rows: usize,
}

impl Default for ElasticityConfig {
    fn default() -> ElasticityConfig {
        ElasticityConfig {
            min_rows: DEFAULT_CHUNK,
            max_rows: 64 * DEFAULT_CHUNK,
            align_rows: DEFAULT_CHUNK,
        }
    }
}

/// One merged observation window: what a completed run (or batch) saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileWindow {
    /// Morsels executed in the window.
    pub morsels: usize,
    /// Morsels obtained by stealing.
    pub steals: u64,
    /// Trace-step executions (compiled-code work).
    pub trace_executions: u64,
    /// Interpretation fallbacks.
    pub fallbacks: u64,
}

/// Profile-driven morsel sizing (the §III adaptivity loop, applied to the
/// scheduling granularity itself).
///
/// After each merged profile window:
/// * **shrink** when steals cover ≥¼ of the window's morsels — heavy
///   stealing means the initial partition was imbalanced, and smaller
///   morsels redistribute more evenly;
/// * **grow** when compiled traces dominate (`trace_executions` strictly
///   positive and ≥ `fallbacks`) *and* stealing is rare (≤⅛ of morsels) —
///   the per-morsel setup cost is pure overhead on a fast compiled path;
/// * otherwise hold.
///
/// Sizes move by powers of two between `min_rows` and `max_rows`, aligned
/// to `align_rows`. The controller only ever changes the size **between**
/// plans, so any individual query still covers every row exactly once (see
/// the `MorselPlan` proptests).
#[derive(Debug)]
pub struct MorselElasticity {
    config: ElasticityConfig,
    rows: AtomicUsize,
}

impl MorselElasticity {
    /// A controller starting at `start_rows` (clamped/aligned to config).
    pub fn new(config: ElasticityConfig, start_rows: usize) -> MorselElasticity {
        let e = MorselElasticity {
            config,
            rows: AtomicUsize::new(0),
        };
        e.rows.store(e.clamp(start_rows), Ordering::Relaxed);
        e
    }

    fn clamp(&self, rows: usize) -> usize {
        let align = self.config.align_rows.max(1);
        let aligned = rows.max(1).div_ceil(align) * align;
        aligned.clamp(
            self.config.min_rows.max(align),
            self.config.max_rows.max(self.config.min_rows).max(align),
        )
    }

    /// The current preferred morsel size.
    pub fn rows(&self) -> usize {
        self.rows.load(Ordering::Relaxed)
    }

    /// Fold one window into the controller; returns the (possibly new)
    /// preferred morsel size.
    pub fn record(&self, window: &ProfileWindow) -> usize {
        let current = self.rows();
        if window.morsels == 0 {
            return current;
        }
        let morsels = window.morsels as u64;
        let next = if window.steals * 4 >= morsels {
            // Imbalance: a quarter or more of the work moved queues.
            self.clamp(current / 2)
        } else if window.trace_executions > 0
            && window.trace_executions >= window.fallbacks
            && window.steals * 8 <= morsels
        {
            // Compiled traces dominate and the partition held: bigger
            // morsels amortize per-morsel setup.
            self.clamp(current.saturating_mul(2))
        } else {
            current
        };
        if next != current {
            obs::morsel_resized(current, next);
        }
        self.rows.store(next, Ordering::Relaxed);
        next
    }
}

// ---------------------------------------------------------------------------
// Query plumbing
// ---------------------------------------------------------------------------

/// Why a query did not produce a result.
enum Abort<E> {
    /// The task returned an error (first error wins).
    Error(E),
    /// A task or merge panicked; the payload is re-raised on join.
    Panic(Box<dyn Any + Send + 'static>),
    /// The query's token fired (cancel or deadline).
    Cancelled(CancelReason),
}

type Outcome<R, E> = Result<R, Abort<E>>;

/// Did `run_unit` find a morsel to account?
enum Unit {
    /// A morsel was executed (or skipped-after-stop) and accounted.
    Ran,
    /// This query's dispatcher is drained; nothing left to hand out.
    Empty,
}

/// Object-safe face of a typed in-flight query.
trait Job: Send + Sync {
    /// Pop and account one morsel for `worker`.
    fn run_unit(&self, worker: usize) -> Unit;
    /// True when no morsel remains to hand out (in-flight ones may still
    /// be executing).
    fn drained(&self) -> bool;
}

/// A boxed per-morsel task (the `'env` lifetime is the borrow scope of
/// whatever the closure captures).
type TaskFn<'env, T, E> = Box<dyn Fn(usize, &Morsel) -> Result<T, E> + Send + Sync + 'env>;

/// A boxed once-only merge over the morsel-ordered results.
type MergeFn<'env, T, R> = Box<dyn FnOnce(Vec<T>, DispatchStats) -> R + Send + 'env>;

/// The merge + completion channel (+ optional completion hook), taken
/// exactly once by the finalizer.
struct Finish<'env, T, E, R> {
    merge: MergeFn<'env, T, R>,
    tx: Sender<Outcome<R, E>>,
    on_done: Option<DoneHook>,
}

/// One in-flight query: its private dispatcher, its result slots, and the
/// bookkeeping that triggers the single finalize. The `'env` lifetime is
/// the task's borrow scope: `'static` for submitted queries, the caller's
/// stack for [`Scheduler::run`].
struct QueryCore<'env, T, E, R> {
    dispatcher: Dispatcher,
    task: TaskFn<'env, T, E>,
    results: Mutex<Vec<Option<T>>>,
    /// Morsels not yet accounted; the worker that takes it to zero
    /// finalizes.
    remaining: AtomicUsize,
    stop: AtomicBool,
    cancel: CancelToken,
    deadline: Option<Instant>,
    /// Morsels whose task actually ran to completion for this query.
    executed: Arc<AtomicU64>,
    failure: Mutex<Option<Abort<E>>>,
    finish: Mutex<Option<Finish<'env, T, E, R>>>,
    counters: Arc<Counters>,
    /// Trace scope workers enter around each morsel of this query
    /// (explicit [`SubmitOptions::trace`] or the submitter's ambient
    /// scope).
    scope: Option<(Trace, &'static str)>,
}

impl<T: Send, E: Send, R: Send> QueryCore<'_, T, E, R> {
    /// Record the first failure and stop handing work to the task.
    fn abort_with(&self, abort: Abort<E>) {
        let mut failure = self.failure.lock().unwrap_or_else(|e| e.into_inner());
        if failure.is_none() {
            *failure = Some(abort);
        }
        drop(failure);
        self.stop.store(true, Ordering::Release);
    }

    /// The morsel-boundary cancellation checkpoint.
    fn cancelled_now(&self) -> Option<CancelReason> {
        if let Err(reason) = self.cancel.check() {
            return Some(reason);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                // Propagate to every token holder (handle, serving layer).
                self.cancel.expire();
                return Some(CancelReason::DeadlineExceeded);
            }
        }
        None
    }

    fn finalize(&self) {
        let Some(Finish { merge, tx, on_done }) =
            self.finish.lock().unwrap_or_else(|e| e.into_inner()).take()
        else {
            return;
        };
        let failure = self
            .failure
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let (outcome, kind) = match failure {
            Some(Abort::Error(e)) => (Err(Abort::Error(e)), QueryOutcomeKind::TaskError),
            Some(Abort::Panic(p)) => (Err(Abort::Panic(p)), QueryOutcomeKind::Panicked),
            Some(Abort::Cancelled(reason)) => (
                Err(Abort::Cancelled(reason)),
                match reason {
                    CancelReason::Cancelled => QueryOutcomeKind::Cancelled,
                    CancelReason::DeadlineExceeded => QueryOutcomeKind::DeadlineExceeded,
                },
            ),
            None => {
                let values: Vec<T> = self
                    .results
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter_mut()
                    .map(|slot| slot.take().expect("all morsels stored on success"))
                    .collect();
                let stats = self.dispatcher.stats();
                match catch_unwind(AssertUnwindSafe(move || merge(values, stats))) {
                    Ok(r) => (Ok(r), QueryOutcomeKind::Completed),
                    Err(p) => (Err(Abort::Panic(p)), QueryOutcomeKind::Panicked),
                }
            }
        };
        self.counters
            .queries_completed
            .fetch_add(1, Ordering::Relaxed);
        // Fire the completion hook *before* unblocking the joiner, so a
        // joiner that immediately reads service telemetry sees this query
        // already accounted.
        if let Some(hook) = on_done {
            hook(kind);
        }
        // A dropped handle is fine: the send just returns an error.
        let _ = tx.send(outcome);
    }
}

impl<T: Send, E: Send, R: Send> Job for QueryCore<'_, T, E, R> {
    fn run_unit(&self, worker: usize) -> Unit {
        let Some((m, stolen)) = self.dispatcher.next_from(worker) else {
            return Unit::Empty;
        };
        if !self.stop.load(Ordering::Acquire) {
            if let Some(reason) = self.cancelled_now() {
                self.abort_with(Abort::Cancelled(reason));
            } else {
                let _lane = self
                    .scope
                    .as_ref()
                    .map(|(t, st)| t.enter_lane(crate::pool::worker_lane(worker), st));
                let t0 = self.scope.as_ref().map(|_| Instant::now());
                match catch_unwind(AssertUnwindSafe(|| (self.task)(worker, &m))) {
                    Ok(Ok(value)) => {
                        if let Some((trace, _)) = &self.scope {
                            obs::emit(EventKind::Morsel {
                                index: m.index as u32,
                                rows: m.len as u32,
                                stolen,
                                dur_ns: trace.dur_ns(t0.expect("timed when traced").elapsed()),
                            });
                        }
                        self.results.lock().unwrap_or_else(|e| e.into_inner())[m.index] =
                            Some(value);
                        self.executed.fetch_add(1, Ordering::Relaxed);
                        self.counters
                            .morsels_executed
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(Err(e)) => self.abort_with(Abort::Error(e)),
                    Err(p) => self.abort_with(Abort::Panic(p)),
                }
            }
        }
        // Account the morsel last: `remaining == 0` must imply every task
        // call has returned and stored its result.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finalize();
        }
        Unit::Ran
    }

    fn drained(&self) -> bool {
        self.dispatcher.queued() == 0
    }
}

/// A handle to a submitted query. Join it to get the merged result; task
/// errors, cancellation and deadlines surface as [`QueryError`]; task or
/// merge panics resume on the joiner.
pub struct QueryHandle<R, E> {
    rx: Receiver<Outcome<R, E>>,
    morsels: usize,
    cancel: CancelToken,
    executed: Arc<AtomicU64>,
    trace: Option<Trace>,
}

impl<R, E> QueryHandle<R, E> {
    /// Morsels the query was planned into.
    pub fn morsels(&self) -> usize {
        self.morsels
    }

    /// Morsels whose task actually ran so far (`≤` [`Self::morsels`];
    /// strictly less when the query was cancelled mid-flight).
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Request cancellation: workers finish the morsels they hold and skip
    /// the rest; the join returns [`QueryError::Cancelled`] (unless the
    /// query had already finished).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The query's cancel token (shareable; see [`CancelToken`]).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The merged execution profile so far (`None` when the query was
    /// submitted without a trace). Non-destructive and callable at any
    /// time; call after [`QueryHandle::join`] for the complete profile.
    pub fn profile(&self) -> Option<QueryProfile> {
        self.trace.as_ref().map(Trace::profile)
    }

    fn map(outcome: Outcome<R, E>) -> Result<R, QueryError<E>> {
        match outcome {
            Ok(r) => Ok(r),
            Err(Abort::Error(e)) => Err(QueryError::Task(e)),
            Err(Abort::Cancelled(CancelReason::Cancelled)) => Err(QueryError::Cancelled),
            Err(Abort::Cancelled(CancelReason::DeadlineExceeded)) => {
                Err(QueryError::DeadlineExceeded)
            }
            Err(Abort::Panic(p)) => resume_unwind(p),
        }
    }

    /// Block until the query completes. A task panic resumes unwinding
    /// here, on the joining thread.
    pub fn join(self) -> Result<R, QueryError<E>> {
        match self.rx.recv() {
            Ok(outcome) => Self::map(outcome),
            Err(_) => unreachable!("scheduler drains every accepted query before exiting"),
        }
    }

    /// Like [`QueryHandle::join`], but give up after `timeout`. `None`
    /// means the query had not completed in time (the handle is consumed;
    /// stress tests use this as their deadlock bound).
    ///
    /// The wait is anchored to an absolute deadline and the remaining time
    /// is recomputed on every retry, so a `recv_timeout` that returns
    /// early (spurious wakeup) neither fires the deadline early nor
    /// extends it.
    pub fn join_deadline(self, timeout: Duration) -> Option<Result<R, QueryError<E>>> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(outcome) => return Some(Self::map(outcome)),
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        return None;
                    }
                    // Woke before the deadline: recompute and wait again.
                }
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("scheduler drains every accepted query before exiting")
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------------

/// Aggregate counters over the scheduler's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Queries accepted by `submit`/`run`.
    pub queries_submitted: u64,
    /// Queries finalized (result, error, or cancellation delivered).
    pub queries_completed: u64,
    /// Morsels whose task ran to completion, across all queries (skipped
    /// morsels of aborted/cancelled queries are *not* counted, so this is
    /// always ≤ the morsels planned).
    pub morsels_executed: u64,
}

#[derive(Default)]
struct Counters {
    queries_submitted: AtomicU64,
    queries_completed: AtomicU64,
    morsels_executed: AtomicU64,
}

struct Registry {
    /// Active queries, in submission order. Entries are removed once their
    /// dispatcher drains (their in-flight morsels finish on the workers
    /// that hold them).
    active: Vec<Arc<dyn Job>>,
    shutdown: bool,
}

struct Shared {
    registry: Mutex<Registry>,
    work_ready: Condvar,
    /// Round-robin cursor so concurrent queries share the workers.
    rr: AtomicUsize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A long-lived worker pool with a query submission queue. See the module
/// docs for the full picture.
pub struct Scheduler {
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    workers: usize,
    cache: Arc<CodeCache>,
    elasticity: MorselElasticity,
    counters: Arc<Counters>,
}

impl Scheduler {
    /// A scheduler with `workers` long-lived threads (clamped to ≥1) and
    /// default elasticity bounds. It spawns no other thread.
    pub fn new(workers: usize) -> Scheduler {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            registry: Mutex::new(Registry {
                active: Vec::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            rr: AtomicUsize::new(0),
        });
        let threads = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("adaptvm-worker-{w}"))
                    .spawn(move || worker_loop(w, &shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            shared,
            threads: Mutex::new(threads),
            workers,
            cache: Arc::new(CodeCache::new(CODE_CACHE_CAPACITY)),
            elasticity: MorselElasticity::new(ElasticityConfig::default(), DEFAULT_MORSEL_ROWS),
            counters: Arc::new(Counters::default()),
        }
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared JIT code cache every query on this scheduler uses.
    pub fn cache(&self) -> &Arc<CodeCache> {
        &self.cache
    }

    /// The elasticity-preferred morsel size right now.
    pub fn morsel_rows(&self) -> usize {
        self.elasticity.rows()
    }

    /// Feed a merged profile window into the elasticity controller (done
    /// automatically by [`crate::exec::run_vm`]; manual pipelines may report
    /// their own windows).
    pub fn observe_window(&self, window: &ProfileWindow) -> usize {
        self.elasticity.record(window)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            queries_submitted: self.counters.queries_submitted.load(Ordering::Relaxed),
            queries_completed: self.counters.queries_completed.load(Ordering::Relaxed),
            morsels_executed: self.counters.morsels_executed.load(Ordering::Relaxed),
        }
    }

    /// Queries currently registered (drained in-flight ones may already be
    /// removed).
    pub fn active_queries(&self) -> usize {
        self.shared.lock().active.len()
    }

    /// True once [`Scheduler::shutdown`] ran (or `Drop` began).
    pub fn is_shut_down(&self) -> bool {
        self.shared.lock().shutdown
    }

    /// Tear the pool down explicitly: new submissions are refused with
    /// [`SubmitError::ShutDown`], every already-accepted query runs to its
    /// finalize (no lost or leaked queries), and the worker threads are
    /// joined before this returns. Idempotent; `Drop` calls the same path,
    /// so dropping without an explicit shutdown behaves identically.
    ///
    /// Must not be called from a scheduler worker (a worker joining its
    /// own pool would deadlock).
    pub fn shutdown(&self) {
        {
            let mut reg = self.shared.lock();
            reg.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        let threads: Vec<_> = {
            let mut guard = self.threads.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for t in threads {
            let _ = t.join();
        }
    }

    /// Admission check + registration under one lock: a query is either
    /// counted *and* visible to workers, or refused — never half-admitted.
    fn admit(&self, job: Option<Arc<dyn Job>>) -> Result<(), SubmitError> {
        let mut reg = self.shared.lock();
        if reg.shutdown {
            return Err(SubmitError::ShutDown);
        }
        self.counters
            .queries_submitted
            .fetch_add(1, Ordering::Relaxed);
        if let Some(job) = job {
            reg.active.push(job);
            drop(reg);
            self.shared.work_ready.notify_all();
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn make_core<'env, T, E, R>(
        &self,
        plan: &MorselPlan,
        cancel: CancelToken,
        deadline: Option<Instant>,
        trace: Option<Trace>,
        on_done: Option<DoneHook>,
        task: TaskFn<'env, T, E>,
        merge: MergeFn<'env, T, R>,
    ) -> (QueryCore<'env, T, E, R>, Receiver<Outcome<R, E>>)
    where
        T: Send,
        E: Send,
        R: Send,
    {
        let (tx, rx) = channel();
        let mut results = Vec::with_capacity(plan.len());
        results.resize_with(plan.len(), || None);
        // An explicit trace wins; otherwise inherit the submitting
        // thread's scope so nested runs land in the enclosing query's
        // profile. One relaxed load when tracing is off.
        let scope = trace.map(|t| (t, "query")).or_else(obs::current_scope);
        let core = QueryCore {
            dispatcher: Dispatcher::new(plan.morsels(), self.workers),
            task,
            results: Mutex::new(results),
            remaining: AtomicUsize::new(plan.len()),
            stop: AtomicBool::new(false),
            cancel,
            deadline,
            executed: Arc::new(AtomicU64::new(0)),
            failure: Mutex::new(None),
            finish: Mutex::new(Some(Finish { merge, tx, on_done })),
            counters: self.counters.clone(),
            scope,
        };
        (core, rx)
    }

    /// Enqueue a query: run `task` over every morsel of `plan` on the
    /// shared workers, then `merge` the morsel-ordered results (on the
    /// worker that completes the last morsel). Returns immediately;
    /// multiple submitted queries execute concurrently. Refused with
    /// [`SubmitError::ShutDown`] after [`Scheduler::shutdown`].
    pub fn submit<T, E, R, F, M>(
        &self,
        plan: MorselPlan,
        task: F,
        merge: M,
    ) -> Result<QueryHandle<R, E>, SubmitError>
    where
        T: Send + 'static,
        E: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &Morsel) -> Result<T, E> + Send + Sync + 'static,
        M: FnOnce(Vec<T>, DispatchStats) -> R + Send + 'static,
    {
        self.submit_opts(plan, SubmitOptions::default(), task, merge)
    }

    /// [`Scheduler::submit`] with per-query [`SubmitOptions`]: an external
    /// cancel token, a deadline, and (internally) a completion hook.
    pub fn submit_opts<T, E, R, F, M>(
        &self,
        plan: MorselPlan,
        opts: SubmitOptions,
        task: F,
        merge: M,
    ) -> Result<QueryHandle<R, E>, SubmitError>
    where
        T: Send + 'static,
        E: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &Morsel) -> Result<T, E> + Send + Sync + 'static,
        M: FnOnce(Vec<T>, DispatchStats) -> R + Send + 'static,
    {
        let morsels = plan.len();
        let SubmitOptions {
            cancel,
            deadline,
            trace,
            on_done,
        } = opts;
        let token = cancel.unwrap_or_default();
        let deadline = deadline.map(|d| Instant::now() + d);
        let (core, rx) = self.make_core(
            &plan,
            token.clone(),
            deadline,
            trace,
            on_done,
            Box::new(task),
            Box::new(merge),
        );
        let executed = core.executed.clone();
        let handle_trace = core.scope.as_ref().map(|(t, _)| t.clone());
        if morsels == 0 {
            // Nothing to dispatch: finalize inline (merge of an empty vec).
            self.admit(None)?;
            core.finalize();
        } else {
            self.admit(Some(Arc::new(core)))?;
        }
        Ok(QueryHandle {
            rx,
            morsels,
            cancel: token,
            executed,
            trace: handle_trace,
        })
    }

    /// Run a query to completion on the pool, **blocking the calling
    /// thread**, with a task that may borrow from the caller's stack —
    /// what [`Runner::Scheduler`] and [`Runner::Service`] execute (the
    /// [`Runner::run`] contract: morsel-ordered results + dispatch stats,
    /// first error aborts, panics propagate, the token is checked at every
    /// morsel boundary, and a shut-down pool rejects typed).
    ///
    /// Do not call from inside a scheduler task: a worker blocking on its
    /// own pool can deadlock once every worker does it.
    pub(crate) fn run<'env, T, E, F>(
        &self,
        plan: &MorselPlan,
        cancel: Option<&CancelToken>,
        task: F,
    ) -> Result<(Vec<T>, DispatchStats), RunError<E>>
    where
        T: Send + 'env,
        E: Send + 'env,
        F: Fn(usize, &Morsel) -> Result<T, E> + Send + Sync + 'env,
    {
        if plan.is_empty() {
            return Ok((
                Vec::new(),
                DispatchStats {
                    executed: vec![0; self.workers],
                    steals: 0,
                },
            ));
        }
        let token = cancel.cloned().unwrap_or_default();
        type ScopedMerge<T> = fn(Vec<T>, DispatchStats) -> (Vec<T>, DispatchStats);
        let merge: ScopedMerge<T> = |values, stats| (values, stats);
        let (core, rx) = self.make_core(
            plan,
            token,
            None,
            None,
            None,
            Box::new(task),
            Box::new(merge),
        );
        let core = Arc::new(core);
        // SAFETY: the registry requires `'static` jobs because workers
        // outlive any particular caller, but this query's task/results only
        // borrow from `'env`. Soundness is restored by the protocol below:
        // (1) `rx.recv()` only returns once `remaining == 0`, i.e. after
        //     every task invocation has returned — no worker calls into the
        //     closure after that point (workers that still see the query
        //     only probe its drained dispatcher);
        // (2) before returning we spin until our `Arc` is the last strong
        //     reference, so no worker even *holds* the erased job once
        //     `'env` data can go out of scope. Workers drop their clone
        //     after every unit, and drained queries leave the registry on
        //     the next scan, so the wait is bounded by one morsel. The
        //     uniqueness check is `Arc::get_mut`, not `strong_count`: the
        //     former pairs an Acquire load with the workers' Release drops,
        //     establishing happens-before between their final accesses to
        //     the job and our return (a relaxed `strong_count` spin would
        //     not).
        // A rejected admission never registers the job, so the transmuted
        // clone drops right here, before `'env` can end.
        let mut core = core;
        let job: Arc<dyn Job + 'env> = core.clone();
        let job: Arc<dyn Job> =
            unsafe { std::mem::transmute::<Arc<dyn Job + 'env>, Arc<dyn Job + 'static>>(job) };
        if self.admit(Some(job)).is_err() {
            while Arc::get_mut(&mut core).is_none() {
                std::thread::yield_now();
            }
            return Err(RunError::Rejected("scheduler is shut down".into()));
        }
        let outcome = rx.recv().expect("query finalizes exactly once");
        while Arc::get_mut(&mut core).is_none() {
            std::thread::yield_now();
        }
        match outcome {
            Ok(r) => Ok(r),
            Err(Abort::Error(e)) => Err(RunError::Task(e)),
            Err(Abort::Cancelled(CancelReason::Cancelled)) => Err(RunError::Cancelled),
            Err(Abort::Cancelled(CancelReason::DeadlineExceeded)) => {
                Err(RunError::DeadlineExceeded)
            }
            Err(Abort::Panic(p)) => resume_unwind(p),
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers)
            .field("active_queries", &self.active_queries())
            .field("morsel_rows", &self.morsel_rows())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The worker main loop: pick an active query round-robin, execute one
/// morsel, repeat; park when the registry is empty; exit on shutdown after
/// the registry drains.
fn worker_loop(worker: usize, shared: &Shared) {
    loop {
        let job: Arc<dyn Job> = {
            let mut reg = shared.lock();
            loop {
                // Retire drained queries first (their in-flight morsels
                // finish on whichever workers hold them).
                reg.active.retain(|j| !j.drained());
                if !reg.active.is_empty() {
                    let idx = shared.rr.fetch_add(1, Ordering::Relaxed) % reg.active.len();
                    break reg.active[idx].clone();
                }
                if reg.shutdown {
                    return;
                }
                reg = shared
                    .work_ready
                    .wait(reg)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // Run one unit then rescan: the rotation keeps concurrent queries
        // progressing together instead of draining one before the next.
        let _ = job.run_unit(worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_joins_merged_result() {
        let scheduler = Scheduler::new(4);
        let data: Arc<Vec<i64>> = Arc::new((0..10_000).collect());
        let plan = MorselPlan::new(data.len(), 256);
        let morsels = plan.len();
        let d = data.clone();
        let handle = scheduler
            .submit(
                plan,
                move |_, m| Ok::<i64, ()>(d[m.start..m.end()].iter().sum()),
                |parts, stats| (parts.iter().sum::<i64>(), stats),
            )
            .unwrap();
        assert_eq!(handle.morsels(), morsels);
        let (total, stats) = handle.join().unwrap();
        assert_eq!(total, data.iter().sum::<i64>());
        assert_eq!(stats.executed.iter().sum::<u64>(), morsels as u64);
    }

    #[test]
    fn concurrent_queries_share_the_pool() {
        let scheduler = Scheduler::new(4);
        let handles: Vec<_> = (0..6)
            .map(|q| {
                let base = q as i64 * 1000;
                scheduler
                    .submit(
                        MorselPlan::new(5_000, 128),
                        move |_, m| Ok::<i64, ()>(base + m.len as i64),
                        |parts, _| parts.iter().sum::<i64>(),
                    )
                    .unwrap()
            })
            .collect();
        for (q, h) in handles.into_iter().enumerate() {
            let morsels = 5_000usize.div_ceil(128) as i64;
            let expect = q as i64 * 1000 * morsels + 5_000;
            assert_eq!(h.join().unwrap(), expect, "query {q}");
        }
        let stats = scheduler.stats();
        assert_eq!(stats.queries_submitted, 6);
        assert_eq!(stats.queries_completed, 6);
        assert_eq!(stats.morsels_executed, 6 * 5_000u64.div_ceil(128));
    }

    #[test]
    fn task_panic_resumes_on_joiner() {
        let scheduler = Scheduler::new(2);
        let plan = MorselPlan::new(16, 1);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = scheduler.run(&plan, None, |_, m| {
                if m.index == 7 {
                    panic!("task exploded");
                }
                Ok::<usize, ()>(m.index)
            });
        }));
        assert!(caught.is_err());
        // Workers are intact afterwards.
        let (v, _) = scheduler
            .run(&MorselPlan::new(4, 1), None, |_, m| {
                Ok::<usize, ()>(m.index)
            })
            .unwrap();
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn empty_plan_completes_immediately() {
        let scheduler = Scheduler::new(2);
        let handle = scheduler
            .submit(
                MorselPlan::new(0, 8),
                |_, _| Ok::<usize, ()>(0),
                |parts, _| parts.len(),
            )
            .unwrap();
        assert_eq!(handle.join().unwrap(), 0);
    }

    #[test]
    fn join_deadline_bounds_the_wait() {
        let scheduler = Scheduler::new(2);
        let handle = scheduler
            .submit(
                MorselPlan::new(1_000, 10),
                |_, m| Ok::<usize, ()>(m.len),
                |parts, _| parts.iter().sum::<usize>(),
            )
            .unwrap();
        let joined = handle.join_deadline(Duration::from_secs(30));
        assert_eq!(joined, Some(Ok(1_000)));
    }

    #[test]
    fn cancel_skips_remaining_morsels_and_surfaces() {
        let scheduler = Scheduler::new(2);
        // A slow query: each morsel sleeps, so cancellation lands while
        // most of the plan is still queued.
        let plan = MorselPlan::new(400, 1);
        let planned = plan.len() as u64;
        let handle = scheduler
            .submit(
                plan,
                |_, m| {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok::<usize, ()>(m.len)
                },
                |parts, _| parts.len(),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        handle.cancel();
        assert!(handle.cancel_token().is_cancelled());
        let executed_view = handle.executed.clone();
        match handle.join() {
            Err(QueryError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(
            executed_view.load(Ordering::Relaxed) < planned,
            "cancellation must skip some of the {planned} morsels"
        );
        // The pool is intact: a follow-up query completes exactly.
        let (v, _) = scheduler
            .run(&MorselPlan::new(10, 2), None, |_, m| {
                Ok::<usize, ()>(m.index)
            })
            .unwrap();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn deadline_aborts_only_the_slow_query() {
        let scheduler = Scheduler::new(2);
        let slow = scheduler
            .submit_opts(
                MorselPlan::new(200, 1),
                SubmitOptions::default().with_deadline(Duration::from_millis(20)),
                |_, m| {
                    std::thread::sleep(Duration::from_millis(3));
                    Ok::<usize, ()>(m.len)
                },
                |parts, _| parts.len(),
            )
            .unwrap();
        let quick = scheduler
            .submit(
                MorselPlan::new(100, 10),
                |_, m| Ok::<usize, ()>(m.len),
                |parts, _| parts.iter().sum::<usize>(),
            )
            .unwrap();
        assert_eq!(quick.join().unwrap(), 100, "concurrent query unaffected");
        match slow.join() {
            Err(QueryError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn submit_after_shutdown_is_a_typed_error() {
        let scheduler = Scheduler::new(2);
        let before = scheduler
            .submit(
                MorselPlan::new(1_000, 50),
                |_, m| Ok::<usize, ()>(m.len),
                |parts, _| parts.iter().sum::<usize>(),
            )
            .unwrap();
        scheduler.shutdown();
        assert!(scheduler.is_shut_down());
        // In-flight work finished (no lost queries), new work is refused.
        assert_eq!(before.join().unwrap(), 1_000);
        let refused = scheduler.submit(
            MorselPlan::new(10, 1),
            |_, m| Ok::<usize, ()>(m.len),
            |parts, _| parts.len(),
        );
        assert_eq!(refused.err(), Some(SubmitError::ShutDown));
        let stats = scheduler.stats();
        assert_eq!(stats.queries_submitted, stats.queries_completed);
        // Shutdown is idempotent and Drop after shutdown is a no-op.
        scheduler.shutdown();
    }

    #[test]
    fn elasticity_grows_and_shrinks_within_bounds() {
        let e = MorselElasticity::new(ElasticityConfig::default(), DEFAULT_MORSEL_ROWS);
        let grow = ProfileWindow {
            morsels: 64,
            steals: 0,
            trace_executions: 100,
            fallbacks: 0,
        };
        let mut last = e.rows();
        for _ in 0..10 {
            let now = e.record(&grow);
            assert!(now >= last);
            assert!(now <= ElasticityConfig::default().max_rows);
            last = now;
        }
        assert_eq!(e.rows(), ElasticityConfig::default().max_rows);
        let shrink = ProfileWindow {
            morsels: 16,
            steals: 8,
            trace_executions: 0,
            fallbacks: 4,
        };
        for _ in 0..12 {
            e.record(&shrink);
        }
        assert_eq!(e.rows(), ElasticityConfig::default().min_rows);
        // Hold: interpreted, balanced window.
        let hold = ProfileWindow {
            morsels: 64,
            steals: 1,
            trace_executions: 0,
            fallbacks: 10,
        };
        let before = e.rows();
        e.record(&hold);
        assert_eq!(e.rows(), before);
    }

    #[test]
    fn scheduler_is_debuggable_and_counts() {
        let scheduler = Scheduler::new(3);
        assert_eq!(scheduler.workers(), 3);
        let _ = format!("{scheduler:?}");
        let (_, stats) = scheduler
            .run(&MorselPlan::new(100, 10), None, |_, m| {
                Ok::<usize, ()>(m.len)
            })
            .unwrap();
        assert_eq!(stats.executed.len(), 3);
        assert_eq!(scheduler.stats().morsels_executed, 10);
    }
}
