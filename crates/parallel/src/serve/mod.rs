//! The admission-controlled query serving layer.
//!
//! [`crate::scheduler::Scheduler`] executes whatever it is given —
//! `submit` accepts unboundedly and every active query shares the workers
//! round-robin. That is the right *execution* substrate and the wrong
//! *serving* front end: a multi-tenant service needs backpressure, tiers
//! of urgency, a way to shed or cancel work, and numbers to watch. A
//! [`QueryService`] wraps one scheduler with exactly that:
//!
//! * **admission control** — one bounded FIFO per [`Priority`] class
//!   ([`Priority::Interactive`], [`Priority::Normal`],
//!   [`Priority::Batch`]); [`QueryService::try_submit`] refuses with a
//!   typed [`AdmissionError::QueueFull`] when the class queue is full
//!   (backpressure), and the blocking [`QueryService::submit`] waits for
//!   space up to [`SubmitOpts::queue_timeout`],
//! * **weighted-fair dispatch with aging** — a stride scheduler over the
//!   three queues (weights 16 / 4 / 1) gives Interactive the pool under
//!   load while *guaranteeing* Batch its proportional share, and an aging
//!   rule promotes any head that waited ≥ `age_rounds` dispatches and is
//!   strictly the oldest, bounding stragglers behind fresh
//!   higher-priority streams (see the `queue` module source for the full argument),
//! * **cancellation & deadlines** — every accepted query carries a
//!   [`crate::CancelToken`] checked at morsel boundaries;
//!   [`ServeHandle::cancel`] (or a [`SubmitOpts::deadline`]) aborts that
//!   query alone, whether it is still queued or already running, with
//!   morsel accounting exact either way,
//! * **graceful drain** — [`QueryService::drain`] rejects new work,
//!   finishes what it can inside the timeout, cancels the rest, then
//!   shuts the scheduler down; [`QueryService::shutdown`] is the
//!   immediate flavor and `Drop` runs the same path,
//! * **telemetry** — per-priority counters, queue-depth gauges, and
//!   queue-wait/latency histograms in one [`ServiceStats`] snapshot.
//!
//! Execution semantics are entirely inherited from the scheduler:
//! results are merged in morsel order, so a query's output through the
//! service is **bit-identical** to direct scheduler submission — the
//! service only decides *when* a query starts, never how it runs.
//!
//! ## Quickstart
//!
//! ```
//! use adaptvm_parallel::serve::{Priority, QueryService, ServeConfig, SubmitOpts};
//! use adaptvm_parallel::MorselPlan;
//!
//! let service = QueryService::new(ServeConfig::default());
//! let handle = service
//!     .try_submit(
//!         SubmitOpts::interactive(),
//!         MorselPlan::new(10_000, 512),
//!         |_worker, m| Ok::<usize, ()>(m.len),
//!         |parts, _stats| parts.iter().sum::<usize>(),
//!     )
//!     .expect("queue has room");
//! assert_eq!(handle.join().unwrap(), 10_000);
//!
//! let stats = service.stats();
//! assert_eq!(stats.priority(Priority::Interactive).completed, 1);
//! assert_eq!(stats.priority(Priority::Interactive).rejected(), 0);
//!
//! let report = service.shutdown();
//! assert!(report.clean);
//! ```

mod queue;
pub mod telemetry;
pub mod tenant;

use std::fmt;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::dispatch::DispatchStats;
use crate::morsel::{Morsel, MorselPlan};
use crate::obs::{self, EventKind, QueryProfile, Trace};
use crate::scheduler::{
    CancelReason, CancelToken, DoneHook, QueryError, QueryHandle, QueryOutcomeKind, RunError,
    Scheduler, SubmitOptions,
};

use queue::FairQueues;
use telemetry::Telemetry;
pub use telemetry::{
    render_text, render_text_with, EngineSnapshot, LatencyHistogram, LatencySnapshot,
    PriorityStats, ServiceStats, TenantStats, HISTOGRAM_BUCKETS,
};
use tenant::TenantSched;
pub use tenant::{TenantId, TenantQuota, TenantRegistry};

// ---------------------------------------------------------------------------
// Priorities, configuration, errors
// ---------------------------------------------------------------------------

/// The three service classes. Dispatch weight (stride share under load)
/// is 16 : 4 : 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive foreground queries.
    Interactive,
    /// The default class.
    #[default]
    Normal,
    /// Throughput-oriented background work.
    Batch,
}

impl Priority {
    /// All classes, in lane order (highest priority first).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Batch];

    /// Stride-scheduler weight (dispatch share under saturation).
    pub fn weight(self) -> u64 {
        match self {
            Priority::Interactive => 16,
            Priority::Normal => 4,
            Priority::Batch => 1,
        }
    }

    /// Lane index (also the index into [`ServiceStats::per_priority`]).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Service construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads in the underlying scheduler (clamped to ≥ 1).
    pub workers: usize,
    /// Capacity of each priority class's queue (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// Queries allowed on the scheduler simultaneously (clamped to ≥ 1).
    /// The scheduler round-robins morsels across them; this bounds how
    /// thin each query's share can get. With elasticity enabled (see
    /// [`ServeConfig::max_concurrent_ceiling`]) this is the *floor* the
    /// limit shrinks back to.
    pub max_concurrent: usize,
    /// Elasticity ceiling for the concurrent-query limit. When above
    /// `max_concurrent`, the dispatcher grows the live limit (doubling,
    /// up to this ceiling) while the backlog is deep and every slot is
    /// busy, and shrinks it (halving, down to `max_concurrent`) once the
    /// queues drain — see `ELASTIC_GROW_BACKLOG_FACTOR`. Values ≤
    /// `max_concurrent` disable elasticity (the default).
    pub max_concurrent_ceiling: usize,
    /// Aging threshold in dispatches (see the `queue` module source).
    pub age_rounds: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            max_concurrent: 4,
            max_concurrent_ceiling: 0,
            age_rounds: 32,
        }
    }
}

impl ServeConfig {
    /// Set the worker count.
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers;
        self
    }

    /// Set the per-class queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Set the concurrent-query bound.
    pub fn with_max_concurrent(mut self, max: usize) -> ServeConfig {
        self.max_concurrent = max;
        self
    }

    /// Enable concurrency elasticity up to `ceiling` (see
    /// [`ServeConfig::max_concurrent_ceiling`]).
    pub fn with_elastic_concurrency(mut self, ceiling: usize) -> ServeConfig {
        self.max_concurrent_ceiling = ceiling;
        self
    }

    /// Set the aging threshold.
    pub fn with_age_rounds(mut self, rounds: u64) -> ServeConfig {
        self.age_rounds = rounds;
        self
    }
}

/// Why a submission was refused at the door. The variants distinguish
/// "the service is overloaded" ([`AdmissionError::QueueFull`],
/// [`AdmissionError::Shed`]) from "*you* exceeded your quota"
/// ([`AdmissionError::TenantQuota`]) — callers back off differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The class queue is at capacity — backpressure; retry, degrade, or
    /// shed.
    QueueFull(Priority),
    /// Refused by the overload-shedding policy: sustained `QueueFull`
    /// pressure sheds Batch before Normal before Interactive (Interactive
    /// is never shed — it only sees its own queue's `QueueFull`).
    Shed(Priority),
    /// The submitting tenant is at its queue-depth quota
    /// ([`TenantQuota::max_queued`]) — the *tenant's* problem, not the
    /// service's.
    TenantQuota(TenantId),
    /// The service is draining or shut down.
    ShuttingDown,
    /// A blocking submission waited `queue_timeout` without space opening.
    Timeout,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull(p) => write!(f, "{p} queue is full"),
            AdmissionError::Shed(p) => write!(f, "{p} query shed under overload"),
            AdmissionError::TenantQuota(t) => write!(f, "{t} is at its queued-query quota"),
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
            AdmissionError::Timeout => write!(f, "timed out waiting for queue space"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Why a gated (borrowing) run produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateError {
    /// Refused at admission.
    Rejected(AdmissionError),
    /// Cancelled while queued.
    Cancelled,
    /// Deadline passed while queued.
    DeadlineExceeded,
}

impl GateError {
    /// Fold into the pipeline-level [`RunError`].
    pub fn into_run_error<E>(self) -> RunError<E> {
        match self {
            GateError::Rejected(a) => RunError::Rejected(a.to_string()),
            GateError::Cancelled => RunError::Cancelled,
            GateError::DeadlineExceeded => RunError::DeadlineExceeded,
        }
    }
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Rejected(a) => write!(f, "admission rejected: {a}"),
            GateError::Cancelled => write!(f, "cancelled while queued"),
            GateError::DeadlineExceeded => write!(f, "deadline passed while queued"),
        }
    }
}

/// Per-submission options: priority class, deadline, external cancel
/// token, and how long a *blocking* submission may wait for queue space.
#[derive(Debug, Clone, Default)]
pub struct SubmitOpts {
    /// The priority class.
    pub priority: Priority,
    /// Total deadline from admission: expiring in the queue refuses the
    /// query; expiring mid-run aborts it at the next morsel boundary.
    pub deadline: Option<Duration>,
    /// Cancel through an externally held token (a fresh one is created
    /// when absent; [`ServeHandle::cancel_token`] exposes it either way).
    pub cancel: Option<CancelToken>,
    /// For [`QueryService::submit`] and [`QueryService::run_gated`]: the
    /// longest wait for queue space (`None` = wait indefinitely).
    /// [`QueryService::try_submit`] never waits.
    pub queue_timeout: Option<Duration>,
    /// The tenant this query is attributed to (`None` = anonymous:
    /// exempt from tenant quotas, dispatched under the weight-1
    /// anonymous pseudo-tenant). Must come from the registry the service
    /// was built with.
    pub tenant: Option<TenantId>,
    /// Record this query's admission lifecycle and execution into a
    /// [`Trace`] (read back via [`ServeHandle::profile`] or
    /// [`Trace::profile`]). When absent, the submitting thread's ambient
    /// trace scope (if any) is inherited.
    pub trace: Option<Trace>,
}

impl SubmitOpts {
    /// Options for the given class.
    pub fn new(priority: Priority) -> SubmitOpts {
        SubmitOpts {
            priority,
            ..SubmitOpts::default()
        }
    }

    /// [`Priority::Interactive`] options.
    pub fn interactive() -> SubmitOpts {
        SubmitOpts::new(Priority::Interactive)
    }

    /// [`Priority::Normal`] options.
    pub fn normal() -> SubmitOpts {
        SubmitOpts::new(Priority::Normal)
    }

    /// [`Priority::Batch`] options.
    pub fn batch() -> SubmitOpts {
        SubmitOpts::new(Priority::Batch)
    }

    /// Set the deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> SubmitOpts {
        self.deadline = Some(deadline);
        self
    }

    /// Attach an external cancel token.
    pub fn with_cancel(mut self, token: CancelToken) -> SubmitOpts {
        self.cancel = Some(token);
        self
    }

    /// Bound the blocking wait for queue space.
    pub fn with_queue_timeout(mut self, timeout: Duration) -> SubmitOpts {
        self.queue_timeout = Some(timeout);
        self
    }

    /// Attribute the query to a registered tenant.
    pub fn with_tenant(mut self, tenant: TenantId) -> SubmitOpts {
        self.tenant = Some(tenant);
        self
    }

    /// Record this query's admission lifecycle and execution into
    /// `trace`.
    pub fn with_trace(mut self, trace: Trace) -> SubmitOpts {
        self.trace = Some(trace);
        self
    }
}

// ---------------------------------------------------------------------------
// Pending queries and the dispatcher
// ---------------------------------------------------------------------------

/// What the dispatcher hands a pending query when its turn comes.
enum Launch<'a> {
    /// Dispatched: submit onto the scheduler (or release the gated
    /// caller). The hook must be invoked exactly once at completion.
    Run {
        scheduler: &'a Scheduler,
        on_done: DoneHook,
    },
    /// Refused while queued (cancelled, deadline passed, or drained).
    Refuse(CancelReason),
}

/// One queued query: the fairness metadata plus a type-erased launcher.
struct PendingQuery {
    priority: Priority,
    /// Tenant scheduling slot (`registry.len()` = anonymous).
    slot: usize,
    cancel: CancelToken,
    deadline: Option<Instant>,
    /// The query's trace (admission events go to its control lane).
    trace: Option<Trace>,
    launch: Box<dyn FnOnce(Launch<'_>) + Send>,
}

/// Record a serve-layer lifecycle event on the query's control lane.
fn serve_event(trace: &Option<Trace>, kind: EventKind) {
    if let Some(t) = trace {
        t.record(obs::CONTROL_LANE, "serve", kind);
    }
}

/// Refusal-reason label for trace events.
fn cancel_reason_name(reason: CancelReason) -> &'static str {
    match reason {
        CancelReason::Cancelled => "cancelled",
        CancelReason::DeadlineExceeded => "deadline",
    }
}

struct ServeState {
    queues: FairQueues<PendingQuery>,
    /// Dispatched-but-unfinished queries: `(id, tenant slot, token)` so
    /// drain can cancel them and completion can release the tenant slot.
    running: Vec<(u64, usize, CancelToken)>,
    /// Per-tenant scheduling state, indexed by slot (last = anonymous).
    tenant_sched: Vec<TenantSched>,
    /// Largest tenant pass dispatched so far (no-banked-credit sync).
    tenant_global_pass: u64,
    /// The live concurrent-query limit (elastic between the config's
    /// `max_concurrent` floor and `max_concurrent_ceiling`).
    concurrent_limit: usize,
    /// Times the elastic limit grew / shrank (telemetry).
    grow_events: u64,
    shrink_events: u64,
    /// Consecutive terminal `QueueFull` rejections since the last
    /// escalation or recovery — the overload-shedding trigger.
    full_streak: u64,
    /// Current shed level: 0 = none, 1 = shed Batch, 2 = shed Batch and
    /// Normal. Interactive is never shed.
    shed_level: u8,
    next_id: u64,
    draining: bool,
    stopped: bool,
}

struct Inner {
    scheduler: Scheduler,
    state: Mutex<ServeState>,
    /// One condvar for every edge: queue space freed, work queued, a
    /// query finished, drain began. Broadcast; waiters re-check their own
    /// predicate.
    cv: Condvar,
    telemetry: Telemetry,
    tenants: TenantRegistry,
    /// Elasticity floor (the config's `max_concurrent`).
    concurrent_base: usize,
    /// Elasticity ceiling (≥ base; == base disables elasticity).
    concurrent_ceiling: usize,
    /// Sum of the three lanes' capacities (shed-recovery threshold).
    queue_capacity_total: usize,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, ServeState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Completion path for a dispatched query (the scheduler's `on_done`
    /// hook, or the gated caller's permit).
    fn complete(
        &self,
        id: u64,
        priority: Priority,
        slot: usize,
        admitted: Instant,
        kind: QueryOutcomeKind,
    ) {
        {
            let mut st = self.lock();
            if let Some(pos) = st.running.iter().position(|(rid, _, _)| *rid == id) {
                st.running.remove(pos);
                st.tenant_sched[slot].in_flight -= 1;
            }
        }
        let latency = admitted.elapsed();
        self.telemetry.record_outcome(priority, kind, latency);
        if let Some(c) = self.tenant_counters(slot) {
            c.record_outcome(kind, latency);
        }
        self.cv.notify_all();
    }

    /// Tenant counter block for a scheduling slot (`None` = anonymous).
    fn tenant_counters(&self, slot: usize) -> Option<&tenant::TenantCounters> {
        self.tenants.counters(slot)
    }

    /// Account a query refused while still queued.
    fn record_refusal(
        &self,
        priority: Priority,
        slot: usize,
        reason: CancelReason,
        admitted: Instant,
    ) {
        let kind = match reason {
            CancelReason::Cancelled => QueryOutcomeKind::Cancelled,
            CancelReason::DeadlineExceeded => QueryOutcomeKind::DeadlineExceeded,
        };
        let latency = admitted.elapsed();
        self.telemetry.record_outcome(priority, kind, latency);
        if let Some(c) = self.tenant_counters(slot) {
            c.record_outcome(kind, latency);
        }
    }
}

/// How long the dispatcher sleeps between sweeps while queries are
/// queued without deadlines: bounds how late a *queued* cancellation is
/// observed when no other event (completion, submission, deadline) wakes
/// the dispatcher. Running queries observe cancellation at morsel
/// boundaries regardless.
const QUEUED_CANCEL_SWEEP: Duration = Duration::from_millis(25);

/// Concurrency-elasticity heuristic (see `ServeConfig::max_concurrent_ceiling`):
/// the live limit **doubles** (up to the ceiling) when the backlog is at
/// least this many times the current limit while every slot is busy, and
/// **halves** (down to the floor) once the queues are empty and at most
/// half the slots are in use. Deep backlog + saturated slots means the
/// admission gate, not the worker pool, is the bottleneck — letting more
/// queries share the workers raises utilization without unbounding
/// memory; draining back keeps each query's share fat when load subsides.
const ELASTIC_GROW_BACKLOG_FACTOR: usize = 2;

/// Overload shedding: this many consecutive terminal `QueueFull`
/// rejections (without an intervening recovery) escalate the shed level
/// one step — level 1 sheds Batch, level 2 sheds Normal too. Interactive
/// is never shed. The level resets to 0 once a submission arrives with
/// the total backlog at or below ¼ of aggregate queue capacity.
const SHED_ESCALATE_AFTER: u64 = 8;

/// Shed-recovery threshold divisor: backlog ≤ capacity / this ⇒ pressure
/// is gone, shedding stops.
const SHED_RECOVER_DIV: usize = 4;

/// The dispatcher thread: adapt the concurrency limit, evict dead queued
/// entries, pop fairly (priority stride × tenant stride, skipping
/// tenants at their in-flight cap), check cancel/deadline, launch.
fn dispatch_loop(inner: &Arc<Inner>) {
    let mut st = inner.lock();
    loop {
        if st.stopped {
            return;
        }
        // Concurrency elasticity (no-op when ceiling == base).
        let backlog = st.queues.total();
        if st.concurrent_limit < inner.concurrent_ceiling
            && st.running.len() >= st.concurrent_limit
            && backlog >= ELASTIC_GROW_BACKLOG_FACTOR * st.concurrent_limit
        {
            st.concurrent_limit = (st.concurrent_limit * 2).min(inner.concurrent_ceiling);
            st.grow_events += 1;
        } else if st.concurrent_limit > inner.concurrent_base
            && backlog == 0
            && st.running.len() * 2 <= st.concurrent_limit
        {
            st.concurrent_limit = (st.concurrent_limit / 2).max(inner.concurrent_base);
            st.shrink_events += 1;
        }
        // Evict queued entries whose token fired or whose deadline
        // passed — from any queue position, even while every running
        // slot is taken — so a queued query's cancellation/deadline
        // resolves promptly instead of at its (possibly distant)
        // dispatch turn.
        let now = Instant::now();
        let dead = st.queues.take_dead(|p: &PendingQuery| {
            p.cancel.is_cancelled() || p.deadline.is_some_and(|dl| now >= dl)
        });
        if !dead.is_empty() {
            let mut refusals = Vec::with_capacity(dead.len());
            for (_, aged) in dead {
                let PendingQuery {
                    priority,
                    slot,
                    cancel,
                    trace,
                    launch,
                    ..
                } = aged.item;
                st.tenant_sched[slot].queued -= 1;
                let reason = match cancel.check() {
                    Err(reason) => reason,
                    Ok(()) => {
                        cancel.expire();
                        CancelReason::DeadlineExceeded
                    }
                };
                inner.record_refusal(priority, slot, reason, aged.enqueued);
                serve_event(
                    &trace,
                    EventKind::Refused {
                        priority: priority.name(),
                        reason: cancel_reason_name(reason),
                    },
                );
                refusals.push((launch, reason));
            }
            drop(st);
            for (launch, reason) in refusals {
                launch(Launch::Refuse(reason));
            }
            inner.cv.notify_all();
            st = inner.lock();
            continue;
        }
        if st.running.len() < st.concurrent_limit {
            // Two-level fair pop: the priority stride picks the lane (see
            // `queue`), and inside it the entry whose tenant has the
            // smallest tenant-pass wins (ties: FIFO). Entries of tenants
            // at their in-flight cap are skipped — they keep their place,
            // other tenants flow past them.
            let popped = {
                let ServeState {
                    queues,
                    tenant_sched,
                    ..
                } = &mut *st;
                queues.pop_where(|_, items| {
                    let mut best: Option<(u64, usize)> = None;
                    for (i, e) in items.iter().enumerate() {
                        let ts = &tenant_sched[e.item.slot];
                        if ts.in_flight >= ts.in_flight_cap {
                            continue;
                        }
                        if best.is_none_or(|(pass, _)| ts.pass < pass) {
                            best = Some((ts.pass, i));
                        }
                    }
                    best.map(|(_, i)| i)
                })
            };
            if let Some((_, aged)) = popped {
                let PendingQuery {
                    priority,
                    slot,
                    cancel,
                    deadline,
                    trace,
                    launch,
                } = aged.item;
                let ts = &mut st.tenant_sched[slot];
                ts.queued -= 1;
                ts.pass += ts.stride;
                st.tenant_global_pass = st.tenant_global_pass.max(st.tenant_sched[slot].pass);
                let admitted = aged.enqueued;
                // Pre-dispatch checkpoint: a query that died in the queue
                // never reaches the scheduler.
                let refuse = cancel.check().err().or_else(|| {
                    deadline.filter(|dl| Instant::now() >= *dl).map(|_| {
                        cancel.expire();
                        CancelReason::DeadlineExceeded
                    })
                });
                match refuse {
                    Some(reason) => {
                        inner.record_refusal(priority, slot, reason, admitted);
                        serve_event(
                            &trace,
                            EventKind::Refused {
                                priority: priority.name(),
                                reason: cancel_reason_name(reason),
                            },
                        );
                        drop(st);
                        launch(Launch::Refuse(reason));
                    }
                    None => {
                        let id = st.next_id;
                        st.next_id += 1;
                        st.running.push((id, slot, cancel.clone()));
                        st.tenant_sched[slot].in_flight += 1;
                        let wait = admitted.elapsed();
                        inner.telemetry.counters(priority).queue_wait.record(wait);
                        if let Some(c) = inner.tenant_counters(slot) {
                            c.queue_wait.record(wait);
                        }
                        if let Some(t) = &trace {
                            t.record(
                                obs::CONTROL_LANE,
                                "serve",
                                EventKind::Dispatched {
                                    priority: priority.name(),
                                    stride_lane: priority.index() as u8,
                                    queue_wait_ns: t.dur_ns(wait),
                                },
                            );
                        }
                        let hook_inner = inner.clone();
                        let hook_trace = trace.clone();
                        let on_done: DoneHook = Box::new(move |kind| {
                            if let Some(t) = &hook_trace {
                                t.record(
                                    obs::CONTROL_LANE,
                                    "serve",
                                    EventKind::Completed {
                                        outcome: kind.name(),
                                        latency_ns: t.dur_ns(admitted.elapsed()),
                                    },
                                );
                            }
                            hook_inner.complete(id, priority, slot, admitted, kind);
                        });
                        drop(st);
                        launch(Launch::Run {
                            scheduler: &inner.scheduler,
                            on_done,
                        });
                    }
                }
                // Queue space freed and/or running set changed.
                inner.cv.notify_all();
                st = inner.lock();
                continue;
            }
        }
        // Wait for the next event, bounded by the earliest queued
        // deadline (so expirations are refused on time) or by the sweep
        // interval while anything at all is queued (so queued
        // cancellations are observed promptly).
        let now = Instant::now();
        let next_deadline = st
            .queues
            .iter()
            .filter_map(|p| p.deadline)
            .min()
            .map(|dl| dl.saturating_duration_since(now));
        let wait = match next_deadline {
            Some(d) => Some(d.min(QUEUED_CANCEL_SWEEP)),
            None if !st.queues.is_empty() => Some(QUEUED_CANCEL_SWEEP),
            None => None,
        };
        st = match wait {
            Some(d) => {
                inner
                    .cv
                    .wait_timeout(st, d.max(Duration::from_millis(1)))
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            None => inner.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
        };
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A handle to a query submitted through the service. Resolves in two
/// stages — dispatch (leaving the admission queue), then execution — both
/// folded into one [`join`](ServeHandle::join).
pub struct ServeHandle<R, E> {
    stage: Receiver<Result<QueryHandle<R, E>, CancelReason>>,
    cancel: CancelToken,
    priority: Priority,
    trace: Option<Trace>,
}

impl<R, E> ServeHandle<R, E> {
    /// The class the query was admitted under.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Request cancellation — effective both while queued (the dispatcher
    /// refuses it) and while running (workers abort at the next morsel
    /// boundary).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The query's cancel token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The merged execution profile so far (`None` when the query was
    /// submitted without a trace and no ambient scope was active).
    /// Non-destructive; call after [`ServeHandle::join`] for the full
    /// admission → completion event stream.
    pub fn profile(&self) -> Option<QueryProfile> {
        self.trace.as_ref().map(Trace::profile)
    }

    fn map_stage(
        stage: Result<QueryHandle<R, E>, CancelReason>,
    ) -> Result<QueryHandle<R, E>, QueryError<E>> {
        match stage {
            Ok(handle) => Ok(handle),
            Err(CancelReason::Cancelled) => Err(QueryError::Cancelled),
            Err(CancelReason::DeadlineExceeded) => Err(QueryError::DeadlineExceeded),
        }
    }

    /// Block until the query completes (or is refused from the queue).
    pub fn join(self) -> Result<R, QueryError<E>> {
        match self.stage.recv() {
            Ok(stage) => Self::map_stage(stage)?.join(),
            Err(_) => unreachable!("the service resolves every accepted submission"),
        }
    }

    /// [`ServeHandle::join`] with a bounded wait spanning both stages;
    /// `None` when the query had not completed in time. Remaining time is
    /// recomputed across retries (spurious-wakeup safe).
    pub fn join_deadline(self, timeout: Duration) -> Option<Result<R, QueryError<E>>> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.stage.recv_timeout(remaining) {
                Ok(stage) => {
                    return match Self::map_stage(stage) {
                        Ok(handle) => {
                            handle.join_deadline(deadline.saturating_duration_since(Instant::now()))
                        }
                        Err(e) => Some(Err(e)),
                    };
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("the service resolves every accepted submission")
                }
            }
        }
    }
}

/// Invokes a gated query's completion hook exactly once — with
/// [`QueryOutcomeKind::Panicked`] when the gated pipeline unwinds before
/// reporting — so the running slot is always released.
struct GateGuard {
    on_done: Option<DoneHook>,
}

impl GateGuard {
    fn finish(mut self, kind: QueryOutcomeKind) {
        if let Some(hook) = self.on_done.take() {
            hook(kind);
        }
    }
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        if let Some(hook) = self.on_done.take() {
            hook(QueryOutcomeKind::Panicked);
        }
    }
}

/// What [`QueryService::drain`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Every queued and running query finished inside the timeout.
    pub clean: bool,
    /// Queued queries refused when the timeout expired.
    pub refused_queued: usize,
    /// Running queries cancelled when the timeout expired.
    pub cancelled_running: usize,
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// How long a blocking admission may wait.
enum Wait {
    No,
    Unbounded,
    Until(Instant),
}

/// The admission-controlled query service. See the [module docs](self)
/// for the full picture and a quickstart.
pub struct QueryService {
    inner: Arc<Inner>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl QueryService {
    /// Build a service (and its scheduler) from `config`, with no
    /// registered tenants (every submission is anonymous).
    pub fn new(config: ServeConfig) -> QueryService {
        QueryService::with_scheduler(Scheduler::new(config.workers), config)
    }

    /// Build a multi-tenant service: quotas, per-tenant fairness, and
    /// telemetry come from `tenants` (see [`TenantRegistry`]; the
    /// registry is immutable once the service owns it).
    pub fn with_tenants(config: ServeConfig, tenants: TenantRegistry) -> QueryService {
        QueryService::build(Scheduler::new(config.workers), config, tenants)
    }

    /// Build a service over an explicitly configured scheduler (the
    /// service takes ownership; it shuts the scheduler down on drain).
    pub fn with_scheduler(scheduler: Scheduler, config: ServeConfig) -> QueryService {
        QueryService::build(scheduler, config, TenantRegistry::new())
    }

    /// [`QueryService::with_scheduler`] plus a tenant registry.
    pub fn with_scheduler_and_tenants(
        scheduler: Scheduler,
        config: ServeConfig,
        tenants: TenantRegistry,
    ) -> QueryService {
        QueryService::build(scheduler, config, tenants)
    }

    fn build(scheduler: Scheduler, config: ServeConfig, tenants: TenantRegistry) -> QueryService {
        let base = config.max_concurrent.max(1);
        let ceiling = config.max_concurrent_ceiling.max(base);
        // One scheduling slot per tenant plus the anonymous pseudo-tenant.
        let tenant_sched: Vec<TenantSched> = tenants
            .ids()
            .map(|id| TenantSched::from_quota(tenants.quota(id)))
            .chain(std::iter::once(TenantSched::anonymous()))
            .collect();
        let inner = Arc::new(Inner {
            scheduler,
            state: Mutex::new(ServeState {
                queues: FairQueues::new(config.queue_capacity, config.age_rounds),
                running: Vec::new(),
                tenant_sched,
                tenant_global_pass: 0,
                concurrent_limit: base,
                grow_events: 0,
                shrink_events: 0,
                full_streak: 0,
                shed_level: 0,
                next_id: 0,
                draining: false,
                stopped: false,
            }),
            cv: Condvar::new(),
            telemetry: Telemetry::default(),
            tenants,
            concurrent_base: base,
            concurrent_ceiling: ceiling,
            queue_capacity_total: config.queue_capacity.max(1) * Priority::ALL.len(),
        });
        let dispatcher = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("adaptvm-serve-dispatch".into())
                .spawn(move || dispatch_loop(&inner))
                .expect("spawn serve dispatcher")
        };
        QueryService {
            inner,
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// The underlying scheduler (for worker count, JIT cache, or direct
    /// non-admitted submission).
    pub fn scheduler(&self) -> &Scheduler {
        &self.inner.scheduler
    }

    /// The tenant registry this service was built with (empty when the
    /// service is single-tenant).
    pub fn tenants(&self) -> &TenantRegistry {
        &self.inner.tenants
    }

    /// Resolve a tenant to its scheduling slot, panicking on a foreign id
    /// (a `TenantId` only ever comes from a registry; using it against a
    /// different service is a caller bug worth failing loudly on).
    fn slot_of(&self, tenant: Option<TenantId>) -> usize {
        match tenant {
            Some(id) => {
                assert!(
                    id.0 < self.inner.tenants.len(),
                    "{id} is not registered with this service's TenantRegistry"
                );
                id.0
            }
            None => self.inner.tenants.len(),
        }
    }

    /// One coherent telemetry snapshot.
    pub fn stats(&self) -> ServiceStats {
        let (queue_depths, running, draining, gauges, limit, grow, shrink, shed) = {
            let st = self.inner.lock();
            (
                [
                    st.queues.depth(Priority::Interactive),
                    st.queues.depth(Priority::Normal),
                    st.queues.depth(Priority::Batch),
                ],
                st.running.len(),
                st.draining,
                st.tenant_sched
                    .iter()
                    .map(|t| (t.queued, t.in_flight))
                    .collect::<Vec<_>>(),
                st.concurrent_limit,
                st.grow_events,
                st.shrink_events,
                st.shed_level,
            )
        };
        let tenants = self
            .inner
            .tenants
            .ids()
            .map(|id| {
                let mut t = self.inner.tenants.snapshot(id);
                (t.queued, t.in_flight) = gauges[id.0];
                t
            })
            .collect();
        ServiceStats {
            per_priority: [
                self.inner
                    .telemetry
                    .snapshot_priority(Priority::Interactive),
                self.inner.telemetry.snapshot_priority(Priority::Normal),
                self.inner.telemetry.snapshot_priority(Priority::Batch),
            ],
            queue_depths,
            running,
            draining,
            tenants,
            concurrent_limit: limit,
            grow_events: grow,
            shrink_events: shrink,
            shed_level: shed,
            scheduler: self.inner.scheduler.stats(),
        }
    }

    /// Enqueue under admission control; `wait` decides what happens when
    /// the class queue (or the tenant's queue quota) is full. Exactly one
    /// terminal counter fires per submission — admitted, rejected
    /// (full/quota/shutdown), shed, or timeout — so per-priority and
    /// per-tenant accounting always balances.
    fn enqueue(&self, mut pending: PendingQuery, wait: Wait) -> Result<(), AdmissionError> {
        use std::sync::atomic::Ordering::Relaxed;
        let inner = &self.inner;
        let p = pending.priority;
        let slot = pending.slot;
        let trace = pending.trace.clone();
        let tc = inner.tenant_counters(slot);
        inner.telemetry.counters(p).submitted.fetch_add(1, Relaxed);
        if let Some(c) = tc {
            c.submitted.fetch_add(1, Relaxed);
        }
        serve_event(&trace, EventKind::Submitted { priority: p.name() });
        let mut st = inner.lock();
        loop {
            if st.draining || st.stopped {
                inner
                    .telemetry
                    .counters(p)
                    .rejected_shutdown
                    .fetch_add(1, Relaxed);
                if let Some(c) = tc {
                    c.rejected_shutdown.fetch_add(1, Relaxed);
                }
                serve_event(
                    &trace,
                    EventKind::Refused {
                        priority: p.name(),
                        reason: "shutdown",
                    },
                );
                return Err(AdmissionError::ShuttingDown);
            }
            // Shed recovery: once the backlog has drained to ≤ ¼ of
            // aggregate capacity, the overload is over.
            if st.shed_level > 0
                && st.queues.total() <= inner.queue_capacity_total / SHED_RECOVER_DIV
            {
                st.shed_level = 0;
                st.full_streak = 0;
            }
            // Overload shedding: Batch first (level ≥ 1), then Normal
            // (level ≥ 2). Interactive only ever sees its own QueueFull.
            let shed_at = match p {
                Priority::Batch => 1,
                Priority::Normal => 2,
                Priority::Interactive => u8::MAX,
            };
            if st.shed_level >= shed_at {
                inner.telemetry.counters(p).shed.fetch_add(1, Relaxed);
                if let Some(c) = tc {
                    c.shed.fetch_add(1, Relaxed);
                }
                serve_event(
                    &trace,
                    EventKind::Refused {
                        priority: p.name(),
                        reason: "shed",
                    },
                );
                return Err(AdmissionError::Shed(p));
            }
            // Tenant queue-depth quota (anonymous slot is uncapped).
            let over_quota = {
                let ts = &st.tenant_sched[slot];
                ts.queued >= ts.queued_cap
            };
            if !over_quota {
                match st.queues.push(p, pending) {
                    Ok(()) => {
                        let global_pass = st.tenant_global_pass;
                        let ts = &mut st.tenant_sched[slot];
                        if ts.queued == 0 {
                            // Re-entry after idleness: no banked credit,
                            // same rule as the priority lanes.
                            ts.pass = ts.pass.max(global_pass);
                        }
                        ts.queued += 1;
                        inner.telemetry.counters(p).admitted.fetch_add(1, Relaxed);
                        if let Some(c) = tc {
                            c.admitted.fetch_add(1, Relaxed);
                        }
                        serve_event(&trace, EventKind::Admitted { priority: p.name() });
                        drop(st);
                        inner.cv.notify_all();
                        return Ok(());
                    }
                    Err(back) => pending = back,
                }
            }
            // No room — either the class queue is full or the tenant is
            // at its quota. Wait (blocking flavors) or refuse typed.
            match wait {
                Wait::No => {
                    return if over_quota {
                        inner
                            .telemetry
                            .counters(p)
                            .rejected_quota
                            .fetch_add(1, Relaxed);
                        if let Some(c) = tc {
                            c.rejected_quota.fetch_add(1, Relaxed);
                        }
                        serve_event(
                            &trace,
                            EventKind::Refused {
                                priority: p.name(),
                                reason: "quota",
                            },
                        );
                        Err(AdmissionError::TenantQuota(TenantId(slot)))
                    } else {
                        // Sustained class-queue pressure escalates the
                        // shed level (see SHED_ESCALATE_AFTER).
                        st.full_streak += 1;
                        if st.full_streak >= SHED_ESCALATE_AFTER {
                            st.shed_level = (st.shed_level + 1).min(2);
                            st.full_streak = 0;
                        }
                        inner
                            .telemetry
                            .counters(p)
                            .rejected_full
                            .fetch_add(1, Relaxed);
                        if let Some(c) = tc {
                            c.rejected_full.fetch_add(1, Relaxed);
                        }
                        serve_event(
                            &trace,
                            EventKind::Refused {
                                priority: p.name(),
                                reason: "full",
                            },
                        );
                        Err(AdmissionError::QueueFull(p))
                    };
                }
                Wait::Unbounded => {
                    st = inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                Wait::Until(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        inner
                            .telemetry
                            .counters(p)
                            .admission_timeouts
                            .fetch_add(1, Relaxed);
                        if let Some(c) = tc {
                            c.admission_timeouts.fetch_add(1, Relaxed);
                        }
                        serve_event(
                            &trace,
                            EventKind::Refused {
                                priority: p.name(),
                                reason: "timeout",
                            },
                        );
                        return Err(AdmissionError::Timeout);
                    }
                    let (guard, _) = inner
                        .cv
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }

    fn make_pending<T, E, R, F, M>(
        &self,
        opts: &SubmitOpts,
        plan: MorselPlan,
        task: F,
        merge: M,
    ) -> (PendingQuery, ServeHandle<R, E>)
    where
        T: Send + 'static,
        E: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &Morsel) -> Result<T, E> + Send + Sync + 'static,
        M: FnOnce(Vec<T>, DispatchStats) -> R + Send + 'static,
    {
        let token = opts.cancel.clone().unwrap_or_default();
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        // An explicit trace wins; otherwise inherit the submitting
        // thread's ambient scope.
        let trace = opts.trace.clone().or_else(obs::current);
        let (stx, srx) = channel();
        let launch_token = token.clone();
        let launch_trace = trace.clone();
        let launch = Box::new(move |launch: Launch<'_>| match launch {
            Launch::Run { scheduler, on_done } => {
                let mut sopts = SubmitOptions::default()
                    .with_cancel(launch_token)
                    .with_on_done(on_done);
                if let Some(dl) = deadline {
                    sopts = sopts.with_deadline(dl.saturating_duration_since(Instant::now()));
                }
                if let Some(t) = launch_trace {
                    sopts = sopts.with_trace(t);
                }
                let handle = scheduler
                    .submit_opts(plan, sopts, task, merge)
                    .expect("the service scheduler outlives its dispatcher");
                let _ = stx.send(Ok(handle));
            }
            Launch::Refuse(reason) => {
                let _ = stx.send(Err(reason));
            }
        });
        let pending = PendingQuery {
            priority: opts.priority,
            slot: self.slot_of(opts.tenant),
            cancel: token.clone(),
            deadline,
            trace: trace.clone(),
            launch,
        };
        let handle = ServeHandle {
            stage: srx,
            cancel: token,
            priority: opts.priority,
            trace,
        };
        (pending, handle)
    }

    /// Submit without waiting: refused immediately with a typed
    /// [`AdmissionError`] when the class queue is full or the service is
    /// draining — the backpressure edge.
    pub fn try_submit<T, E, R, F, M>(
        &self,
        opts: SubmitOpts,
        plan: MorselPlan,
        task: F,
        merge: M,
    ) -> Result<ServeHandle<R, E>, AdmissionError>
    where
        T: Send + 'static,
        E: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &Morsel) -> Result<T, E> + Send + Sync + 'static,
        M: FnOnce(Vec<T>, DispatchStats) -> R + Send + 'static,
    {
        let (pending, handle) = self.make_pending(&opts, plan, task, merge);
        self.enqueue(pending, Wait::No)?;
        Ok(handle)
    }

    /// Submit, blocking while the class queue is full: up to
    /// [`SubmitOpts::queue_timeout`] (then [`AdmissionError::Timeout`]),
    /// or indefinitely when no timeout is set.
    pub fn submit<T, E, R, F, M>(
        &self,
        opts: SubmitOpts,
        plan: MorselPlan,
        task: F,
        merge: M,
    ) -> Result<ServeHandle<R, E>, AdmissionError>
    where
        T: Send + 'static,
        E: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &Morsel) -> Result<T, E> + Send + Sync + 'static,
        M: FnOnce(Vec<T>, DispatchStats) -> R + Send + 'static,
    {
        let wait = match opts.queue_timeout {
            Some(t) => Wait::Until(Instant::now() + t),
            None => Wait::Unbounded,
        };
        let (pending, handle) = self.make_pending(&opts, plan, task, merge);
        self.enqueue(pending, wait)?;
        Ok(handle)
    }

    /// Admission-gate a **borrowing** run: wait (fairly, by priority) for
    /// a dispatch slot, then execute `f` on the calling thread against
    /// the service's scheduler, releasing the slot when `f` returns.
    ///
    /// This is how the relational pipelines — whose tasks borrow tables
    /// from the caller's stack — run through the service: see
    /// `Runner::Service` in [`crate::pool`]. The query's *results* are
    /// whatever `f` produces; the service only delays its start and
    /// counts its outcome. A deadline in `opts` bounds the queue wait;
    /// mid-run aborts are driven by the cancel token (checked at morsel
    /// boundaries inside `f`'s pipeline).
    pub fn run_gated<R>(
        &self,
        opts: SubmitOpts,
        f: impl FnOnce(&Scheduler) -> R,
    ) -> Result<R, GateError> {
        // Without visibility into `R`, the outcome is derived from the
        // cancel token: fired → cancelled/expired, otherwise completed.
        // Callers whose `R` distinguishes success from failure should use
        // [`QueryService::run_gated_with`] so task errors are counted as
        // such.
        let token = opts.cancel.clone().unwrap_or_default();
        let opts = SubmitOpts {
            cancel: Some(token.clone()),
            ..opts
        };
        self.run_gated_with(opts, f, move |_| match token.reason() {
            None => QueryOutcomeKind::Completed,
            Some(CancelReason::Cancelled) => QueryOutcomeKind::Cancelled,
            Some(CancelReason::DeadlineExceeded) => QueryOutcomeKind::DeadlineExceeded,
        })
    }

    /// [`QueryService::run_gated`] with an explicit outcome classifier:
    /// `outcome_of` inspects `f`'s return value and decides what the
    /// telemetry records (completed / task error / cancelled / …). If `f`
    /// panics, the dispatch slot is still released and the query is
    /// counted [`QueryOutcomeKind::Panicked`] before the panic resumes.
    pub fn run_gated_with<R>(
        &self,
        opts: SubmitOpts,
        f: impl FnOnce(&Scheduler) -> R,
        outcome_of: impl FnOnce(&R) -> QueryOutcomeKind,
    ) -> Result<R, GateError> {
        let token = opts.cancel.clone().unwrap_or_default();
        let trace = opts.trace.clone().or_else(obs::current);
        let (gtx, grx) = channel::<Result<DoneHook, CancelReason>>();
        let pending = PendingQuery {
            priority: opts.priority,
            slot: self.slot_of(opts.tenant),
            cancel: token.clone(),
            deadline: opts.deadline.map(|d| Instant::now() + d),
            trace: trace.clone(),
            launch: Box::new(move |launch| match launch {
                Launch::Run { on_done, .. } => {
                    let _ = gtx.send(Ok(on_done));
                }
                Launch::Refuse(reason) => {
                    let _ = gtx.send(Err(reason));
                }
            }),
        };
        let wait = match opts.queue_timeout {
            Some(t) => Wait::Until(Instant::now() + t),
            None => Wait::Unbounded,
        };
        self.enqueue(pending, wait).map_err(GateError::Rejected)?;
        match grx.recv() {
            Ok(Ok(on_done)) => {
                // The guard releases the running slot even if `f`
                // unwinds — a panicking gated pipeline must not wedge
                // drain() by leaking its slot.
                let guard = GateGuard {
                    on_done: Some(on_done),
                };
                // Enter the trace on the calling thread so the pipeline
                // inside `f` (and the scheduler runs it issues) inherits
                // this query's scope.
                let scope = trace.as_ref().map(|t| t.enter());
                let r = f(self.scheduler());
                drop(scope);
                guard.finish(outcome_of(&r));
                Ok(r)
            }
            Ok(Err(CancelReason::Cancelled)) => Err(GateError::Cancelled),
            Ok(Err(CancelReason::DeadlineExceeded)) => Err(GateError::DeadlineExceeded),
            Err(_) => Err(GateError::Rejected(AdmissionError::ShuttingDown)),
        }
    }

    /// Graceful drain: reject new work immediately, keep dispatching and
    /// finishing what was already accepted for up to `timeout`, then
    /// refuse whatever is still queued, cancel whatever is still running
    /// (cooperative — at morsel boundaries), wait for those to finalize,
    /// stop the dispatcher, and shut the scheduler down. Idempotent.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        let inner = &self.inner;
        {
            let mut st = inner.lock();
            st.draining = true;
        }
        inner.cv.notify_all();
        let deadline = Instant::now() + timeout;
        let mut st = inner.lock();
        while !(st.queues.is_empty() && st.running.is_empty()) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = inner
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        let clean = st.queues.is_empty() && st.running.is_empty();
        let mut refused_queued = 0;
        let mut cancelled_running = 0;
        if !clean {
            let leftovers = st.queues.drain();
            refused_queued = leftovers.len();
            for (_, aged) in &leftovers {
                st.tenant_sched[aged.item.slot].queued -= 1;
            }
            for (_, _, token) in &st.running {
                token.cancel();
            }
            cancelled_running = st.running.len();
            drop(st);
            for (priority, aged) in leftovers {
                // Cancel the token too, so handles and shared group
                // tokens observe the same state the refusal reports.
                aged.item.cancel.cancel();
                inner.record_refusal(
                    priority,
                    aged.item.slot,
                    CancelReason::Cancelled,
                    aged.enqueued,
                );
                serve_event(
                    &aged.item.trace,
                    EventKind::Refused {
                        priority: priority.name(),
                        reason: "cancelled",
                    },
                );
                (aged.item.launch)(Launch::Refuse(CancelReason::Cancelled));
            }
            inner.cv.notify_all();
            st = inner.lock();
            // Cancelled queries abort at their next morsel boundary; wait
            // them out (gated runs finish their pipeline normally).
            while !st.running.is_empty() {
                let (guard, _) = inner
                    .cv
                    .wait_timeout(st, Duration::from_millis(20))
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        }
        st.stopped = true;
        drop(st);
        inner.cv.notify_all();
        if let Some(h) = self
            .dispatcher
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = h.join();
        }
        inner.scheduler.shutdown();
        DrainReport {
            clean,
            refused_queued,
            cancelled_running,
        }
    }

    /// [`QueryService::drain`] with a zero timeout: refuse the queue,
    /// cancel the running set, tear down.
    pub fn shutdown(&self) -> DrainReport {
        self.drain(Duration::ZERO)
    }
}

impl fmt::Debug for QueryService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.lock();
        f.debug_struct("QueryService")
            .field("workers", &self.inner.scheduler.workers())
            .field("concurrent_limit", &st.concurrent_limit)
            .field("tenants", &self.inner.tenants.len())
            .field("queued", &st.queues.total())
            .field("running", &st.running.len())
            .field("draining", &st.draining)
            .finish()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        let live = self
            .dispatcher
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some();
        if live {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_query(
        service: &QueryService,
        opts: SubmitOpts,
        rows: usize,
    ) -> Result<ServeHandle<usize, ()>, AdmissionError> {
        service.try_submit(
            opts,
            MorselPlan::new(rows, 128),
            |_, m| Ok::<usize, ()>(m.len),
            |parts, _| parts.iter().sum::<usize>(),
        )
    }

    #[test]
    fn submit_runs_and_counts() {
        let service = QueryService::new(ServeConfig::default().with_workers(2));
        let handle = sum_query(&service, SubmitOpts::normal(), 10_000).unwrap();
        assert_eq!(handle.join().unwrap(), 10_000);
        let stats = service.stats();
        let p = stats.priority(Priority::Normal);
        assert_eq!(p.submitted, 1);
        assert_eq!(p.admitted, 1);
        assert_eq!(p.completed, 1);
        assert_eq!(p.latency.count, 1);
        assert_eq!(p.queue_wait.count, 1);
        assert_eq!(stats.running, 0);
        let report = service.shutdown();
        assert!(report.clean);
    }

    #[test]
    fn queue_full_is_counted_exactly() {
        // One slot running, one queued: every further try_submit must be
        // a counted QueueFull.
        let service = QueryService::new(
            ServeConfig::default()
                .with_workers(1)
                .with_max_concurrent(1)
                .with_queue_capacity(1),
        );
        // Plug the single running slot with a slow query.
        let plug = service
            .try_submit(
                SubmitOpts::normal(),
                MorselPlan::new(64, 1),
                |_, m| {
                    std::thread::sleep(Duration::from_millis(3));
                    Ok::<usize, ()>(m.len)
                },
                |parts, _| parts.len(),
            )
            .unwrap();
        // Fill the queue (dispatch may have already moved one into the
        // running slot, so push until a rejection appears).
        let mut queued = Vec::new();
        let mut rejected = 0;
        for _ in 0..12 {
            match sum_query(&service, SubmitOpts::normal(), 1_000) {
                Ok(h) => queued.push(h),
                Err(AdmissionError::QueueFull(Priority::Normal)) => rejected += 1,
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        assert!(rejected > 0, "bounded queue must reject under overload");
        let stats = service.stats();
        assert_eq!(
            stats.priority(Priority::Normal).rejected_full,
            rejected,
            "every QueueFull must be counted exactly once"
        );
        // Everything admitted still completes.
        assert_eq!(plug.join().unwrap(), 64);
        for h in queued {
            assert_eq!(h.join().unwrap(), 1_000);
        }
        let stats = service.stats();
        assert_eq!(
            stats.priority(Priority::Normal).finished(),
            stats.priority(Priority::Normal).admitted
        );
        service.shutdown();
    }

    #[test]
    fn try_submit_after_drain_is_rejected() {
        let service = QueryService::new(ServeConfig::default().with_workers(1));
        let report = service.drain(Duration::from_secs(5));
        assert!(report.clean);
        match sum_query(&service, SubmitOpts::interactive(), 100) {
            Err(AdmissionError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {:?}", other.err()),
        }
        assert_eq!(
            service
                .stats()
                .priority(Priority::Interactive)
                .rejected_shutdown,
            1
        );
    }

    #[test]
    fn gated_run_admits_and_completes() {
        let service = QueryService::new(ServeConfig::default().with_workers(2));
        let data: Vec<i64> = (0..10_000).collect();
        let plan = MorselPlan::new(data.len(), 512);
        let out = service
            .run_gated(SubmitOpts::interactive(), |s| {
                s.run(&plan, None, |_, m| {
                    Ok::<i64, ()>(data[m.start..m.end()].iter().sum())
                })
            })
            .unwrap()
            .unwrap();
        assert_eq!(out.0.iter().sum::<i64>(), data.iter().sum::<i64>());
        let stats = service.stats();
        assert_eq!(stats.priority(Priority::Interactive).completed, 1);
        service.shutdown();
    }

    #[test]
    fn queued_cancellation_never_reaches_the_scheduler() {
        let service = QueryService::new(
            ServeConfig::default()
                .with_workers(1)
                .with_max_concurrent(1),
        );
        // Plug the slot so the next submission stays queued.
        let plug = service
            .try_submit(
                SubmitOpts::normal(),
                MorselPlan::new(200, 1),
                |_, m| {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok::<usize, ()>(m.len)
                },
                |parts, _| parts.len(),
            )
            .unwrap();
        let scheduler_queries_before = service.scheduler().stats().queries_submitted;
        let queued = sum_query(&service, SubmitOpts::batch(), 5_000).unwrap();
        queued.cancel();
        match queued.join() {
            Err(QueryError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        plug.join().unwrap();
        // Give the dispatcher a beat, then confirm the cancelled query
        // never consumed a scheduler slot.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.stats().running > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(
            service.scheduler().stats().queries_submitted,
            scheduler_queries_before + 1,
            "only the plug reached the scheduler"
        );
        assert_eq!(service.stats().priority(Priority::Batch).cancelled, 1);
        service.shutdown();
    }

    #[test]
    fn drain_timeout_cancels_stragglers() {
        let service = QueryService::new(
            ServeConfig::default()
                .with_workers(1)
                .with_max_concurrent(1),
        );
        let slow = service
            .try_submit(
                SubmitOpts::normal(),
                MorselPlan::new(100_000, 1),
                |_, m| {
                    std::thread::sleep(Duration::from_millis(1));
                    Ok::<usize, ()>(m.len)
                },
                |parts, _| parts.len(),
            )
            .unwrap();
        let queued = sum_query(&service, SubmitOpts::batch(), 1_000).unwrap();
        let report = service.drain(Duration::from_millis(30));
        assert!(!report.clean);
        assert!(report.cancelled_running >= 1 || report.refused_queued >= 1);
        // Both handles resolve — nothing hangs, nothing is lost.
        for outcome in [slow.join(), queued.join()] {
            match outcome {
                Ok(_) | Err(QueryError::Cancelled) | Err(QueryError::DeadlineExceeded) => {}
                Err(QueryError::Task(())) => panic!("unexpected task error"),
            }
        }
        let stats = service.stats();
        assert_eq!(
            stats.scheduler.queries_submitted,
            stats.scheduler.queries_completed
        );
    }

    #[test]
    fn deadline_in_queue_expires_typed() {
        let service = QueryService::new(
            ServeConfig::default()
                .with_workers(1)
                .with_max_concurrent(1),
        );
        let plug = service
            .try_submit(
                SubmitOpts::normal(),
                MorselPlan::new(200, 1),
                |_, m| {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok::<usize, ()>(m.len)
                },
                |parts, _| parts.len(),
            )
            .unwrap();
        let doomed = service
            .try_submit(
                SubmitOpts::batch().with_deadline(Duration::from_millis(1)),
                MorselPlan::new(1_000, 100),
                |_, m| Ok::<usize, ()>(m.len),
                |parts, _| parts.iter().sum::<usize>(),
            )
            .unwrap();
        match doomed.join() {
            Err(QueryError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        plug.join().unwrap();
        assert_eq!(
            service.stats().priority(Priority::Batch).deadline_expired,
            1
        );
        service.shutdown();
    }
}
