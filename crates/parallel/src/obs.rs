//! Unified query tracing: per-worker lock-free event sinks, merged
//! post-query into a [`QueryProfile`].
//!
//! The adaptive strategy lives on runtime feedback — which traces got
//! JIT-compiled, where deopts fired, what spilled, how long queries
//! queued — but that evidence is scattered across per-layer report
//! structs. This module records it as one stream of typed
//! [`TraceEvent`]s per query:
//!
//! * **Opt-in.** Nothing is recorded unless a [`Trace`] is attached to
//!   the query (via `ParallelOpts::trace` in `adaptvm_relational`, or
//!   [`SubmitOptions::with_trace`] / [`SubmitOpts::with_trace`] on the
//!   scheduler/serve layers). The disabled path is **one relaxed atomic
//!   load** per event site ([`emit`] checks a global count of live
//!   traces before touching anything else); the overhead is
//!   bench-asserted in `adaptvm-bench`'s `engine` bench.
//! * **Lock-free sinks.** Each trace owns up to [`MAX_WORKER_LANES`]
//!   worker lanes plus one control lane ([`CONTROL_LANE`]), each a
//!   bounded ring of events. Writers claim a slot with one
//!   `fetch_add`, fill it, and release-publish a ready flag; a full
//!   lane drops new events (counted, never blocking).
//! * **Deterministic merge.** [`Trace::profile`] merges all lanes in
//!   `(lane, seq)` order — each event's `seq` is its slot index, so the
//!   merged order is a pure function of what each lane recorded.
//! * **Determinism-preserving.** Recording never feeds back into
//!   execution: traced runs are bit-identical to untraced runs
//!   (regression-tested in `tests/obs_trace.rs`).
//!
//! Event *sites* in lower crates (`adaptvm_vm` JIT decisions,
//! `adaptvm_storage` spill frame I/O) cannot see this module, so they
//! expose tiny global hooks ([`adaptvm_vm::install_jit_hook`],
//! [`adaptvm_storage::spill::install_io_hook`]); creating the first
//! [`Trace`] installs closures that route those events through [`emit`],
//! which attributes them to the calling thread's current scope — threads
//! not executing a traced query drop them at the gate.
//!
//! ## Clocks and golden tests
//!
//! A trace records wall-clock timestamps by default. [`Trace::logical`]
//! switches to a **logical clock**: timestamps become per-lane sequence
//! numbers and measured durations are suppressed to zero, so a
//! single-worker run produces a byte-stable [Chrome trace-event
//! JSON](QueryProfile::chrome_trace) export — that is what the golden
//! test pins.
//!
//! [`SubmitOptions::with_trace`]: crate::scheduler::SubmitOptions::with_trace
//! [`SubmitOpts::with_trace`]: crate::serve::SubmitOpts::with_trace

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

/// Worker lanes per trace; worker ids at or above this share the last
/// lane (determinism of the merge is unaffected — only attribution
/// coarsens).
pub const MAX_WORKER_LANES: usize = 64;

/// The control lane: admission/dispatch/completion events and everything
/// recorded outside a worker (coordinator phases, budget charges on the
/// calling thread).
pub const CONTROL_LANE: u16 = MAX_WORKER_LANES as u16;

const LANES: usize = MAX_WORKER_LANES + 1;

/// Events one lane can hold before dropping (drops are counted in the
/// profile, recording never blocks).
pub const LANE_CAPACITY: usize = 1 << 14;

/// How a trace stamps time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Nanoseconds since the trace was created.
    #[default]
    Wall,
    /// Per-lane sequence numbers; measured durations suppressed to zero.
    /// Byte-stable exports for golden tests (single-worker runs).
    Logical,
}

/// One typed span/event. `Copy` so the ring slots never allocate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A morsel executed (`dur_ns` is zero under a logical clock).
    Morsel {
        /// Morsel index in plan order.
        index: u32,
        /// Rows in the morsel.
        rows: u32,
        /// Stolen from another worker's queue.
        stolen: bool,
        /// Task wall time, nanoseconds.
        dur_ns: u64,
    },
    /// A fragment was injected from a shared code cache.
    JitCacheHit,
    /// A fragment compiled synchronously (modeled cost).
    JitCompile {
        /// Modeled compile cost, nanoseconds.
        cost_ns: u64,
    },
    /// A fragment was submitted to a background compile server.
    JitSubmit,
    /// A background compile landed and was injected.
    JitPublish {
        /// Modeled compile cost, nanoseconds.
        cost_ns: u64,
    },
    /// A fragment failed to build/compile/run: trace-fallback deopt.
    JitDeopt,
    /// One frame written to a spill run.
    SpillWrite {
        /// Operator label (`join-build`, `agg`, `sort`, …).
        op: &'static str,
        /// Partition / run index within the operator.
        partition: u16,
        /// Recursion level (0 = first spill).
        level: u16,
        /// Encoded frame bytes.
        bytes: u64,
        /// Rows in the frame.
        rows: u64,
    },
    /// One frame read back from a spill run.
    SpillRead {
        /// Operator label.
        op: &'static str,
        /// Partition / run index within the operator.
        partition: u16,
        /// Recursion level.
        level: u16,
        /// Encoded frame bytes.
        bytes: u64,
        /// Rows in the frame.
        rows: u64,
    },
    /// A memory-budget charge succeeded.
    BudgetCharge {
        /// Bytes charged.
        bytes: u64,
    },
    /// A memory-budget charge was refused (the operator will spill).
    BudgetRefused {
        /// Bytes requested.
        bytes: u64,
    },
    /// A memory-budget release.
    BudgetRelease {
        /// Bytes released.
        bytes: u64,
    },
    /// A pooled scratch arena was acquired.
    ScratchAcquire {
        /// Reused from the pool (vs freshly created).
        reused: bool,
    },
    /// The scheduler's morsel elasticity resized the preferred morsel
    /// length.
    MorselResize {
        /// Previous preferred chunks per morsel.
        from: u32,
        /// New preferred chunks per morsel.
        to: u32,
    },
    /// A query was submitted to the serving layer.
    Submitted {
        /// Priority-class name.
        priority: &'static str,
    },
    /// The query entered the admission queue.
    Admitted {
        /// Priority-class name.
        priority: &'static str,
    },
    /// The query was refused (queue full, tenant quota, shed, shutdown,
    /// admission timeout) or evicted while queued.
    Refused {
        /// Priority-class name.
        priority: &'static str,
        /// Refusal reason (`full`, `quota`, `shed`, `shutdown`,
        /// `timeout`, `cancelled`, `deadline`).
        reason: &'static str,
    },
    /// The dispatcher launched the query (`queue_wait_ns` is zero under
    /// a logical clock).
    Dispatched {
        /// Priority-class name.
        priority: &'static str,
        /// Stride-scheduler lane (priority index).
        stride_lane: u8,
        /// Admission → dispatch wait, nanoseconds.
        queue_wait_ns: u64,
    },
    /// The query reached a terminal outcome (`latency_ns` is zero under
    /// a logical clock).
    Completed {
        /// Outcome name (`completed`, `task_error`, `panicked`,
        /// `cancelled`, `deadline`).
        outcome: &'static str,
        /// Admission → completion latency, nanoseconds.
        latency_ns: u64,
    },
}

impl EventKind {
    /// Short stable name (Chrome export, summaries).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Morsel { .. } => "morsel",
            EventKind::JitCacheHit => "jit-cache-hit",
            EventKind::JitCompile { .. } => "jit-compile",
            EventKind::JitSubmit => "jit-submit",
            EventKind::JitPublish { .. } => "jit-publish",
            EventKind::JitDeopt => "jit-deopt",
            EventKind::SpillWrite { .. } => "spill-write",
            EventKind::SpillRead { .. } => "spill-read",
            EventKind::BudgetCharge { .. } => "budget-charge",
            EventKind::BudgetRefused { .. } => "budget-refused",
            EventKind::BudgetRelease { .. } => "budget-release",
            EventKind::ScratchAcquire { .. } => "scratch-acquire",
            EventKind::MorselResize { .. } => "morsel-resize",
            EventKind::Submitted { .. } => "submitted",
            EventKind::Admitted { .. } => "admitted",
            EventKind::Refused { .. } => "refused",
            EventKind::Dispatched { .. } => "dispatched",
            EventKind::Completed { .. } => "completed",
        }
    }

    /// Chrome trace-event category.
    fn category(&self) -> &'static str {
        match self {
            EventKind::Morsel { .. } => "exec",
            EventKind::JitCacheHit
            | EventKind::JitCompile { .. }
            | EventKind::JitSubmit
            | EventKind::JitPublish { .. }
            | EventKind::JitDeopt => "jit",
            EventKind::SpillWrite { .. } | EventKind::SpillRead { .. } => "spill",
            EventKind::BudgetCharge { .. }
            | EventKind::BudgetRefused { .. }
            | EventKind::BudgetRelease { .. } => "budget",
            EventKind::ScratchAcquire { .. } => "scratch",
            EventKind::MorselResize { .. } => "sched",
            EventKind::Submitted { .. }
            | EventKind::Admitted { .. }
            | EventKind::Refused { .. }
            | EventKind::Dispatched { .. }
            | EventKind::Completed { .. } => "serve",
        }
    }
}

/// One merged profile entry: where and when, plus the typed payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Worker lane (or [`CONTROL_LANE`]).
    pub lane: u16,
    /// Slot index within the lane — the per-lane sequence number.
    pub seq: u32,
    /// Timestamp: nanoseconds since trace start, or the sequence number
    /// under a logical clock.
    pub ts_ns: u64,
    /// Pipeline stage active at the event site (`"query"`, `"build"`,
    /// `"probe"`, …).
    pub stage: &'static str,
    /// The typed payload.
    pub kind: EventKind,
}

/// What a lane slot stores (lane and seq are implied by position).
#[derive(Clone, Copy)]
struct Rec {
    ts_ns: u64,
    stage: &'static str,
    kind: EventKind,
}

struct Slot {
    ready: AtomicBool,
    cell: UnsafeCell<MaybeUninit<Rec>>,
}

use std::cell::UnsafeCell;

/// One lane: a bounded lock-free multi-producer ring. Producers claim a
/// slot by `fetch_add`, write it, then release-publish `ready`; slots
/// past the capacity are dropped (counted). Reads ([`Ring::snapshot`])
/// only look at acquire-loaded ready slots, so they race with nothing.
struct Ring {
    next: AtomicUsize,
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let slots = (0..capacity)
            .map(|_| Slot {
                ready: AtomicBool::new(false),
                cell: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Ring {
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots,
        }
    }

    fn push(&self, rec: Rec) {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots[i];
        // Safety: `fetch_add` hands out each index exactly once, so this
        // thread is the only writer of `slot.cell`; readers wait for the
        // release-store of `ready`.
        unsafe { (*slot.cell.get()).write(rec) };
        slot.ready.store(true, Ordering::Release);
    }

    /// Non-destructive read of every published slot, in slot order.
    fn snapshot(&self) -> (Vec<(u32, Rec)>, u64) {
        let n = self.next.load(Ordering::Acquire).min(self.slots.len());
        let mut out = Vec::with_capacity(n);
        for (i, slot) in self.slots.iter().take(n).enumerate() {
            if slot.ready.load(Ordering::Acquire) {
                // Safety: `ready` was release-stored after the write.
                let rec = unsafe { (*slot.cell.get()).assume_init_read() };
                out.push((i as u32, rec));
            }
        }
        (out, self.dropped.load(Ordering::Relaxed))
    }
}

/// Live traces in the process: the [`emit`] gate. Zero ⇒ every event
/// site is one relaxed load and a branch.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide morsel-elasticity resize counters (always on; feed the
/// metrics-v2 `engine_morsel_{grow,shrink}_total` families).
static MORSEL_GROW: AtomicU64 = AtomicU64::new(0);
static MORSEL_SHRINK: AtomicU64 = AtomicU64::new(0);

/// `(grow, shrink)` morsel-elasticity resize totals since process start.
pub fn morsel_resize_counters() -> (u64, u64) {
    (
        MORSEL_GROW.load(Ordering::Relaxed),
        MORSEL_SHRINK.load(Ordering::Relaxed),
    )
}

/// Record a morsel-elasticity resize: bumps the process-wide counters
/// and emits [`EventKind::MorselResize`] into the current scope, if any.
pub fn morsel_resized(from: usize, to: usize) {
    if to > from {
        MORSEL_GROW.fetch_add(1, Ordering::Relaxed);
    } else {
        MORSEL_SHRINK.fetch_add(1, Ordering::Relaxed);
    }
    emit(EventKind::MorselResize {
        from: from as u32,
        to: to as u32,
    });
}

struct TraceShared {
    start: Instant,
    clock: ClockMode,
    lanes: [OnceLock<Ring>; LANES],
}

impl Drop for TraceShared {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A handle to one query's event sinks. Cheap to clone (an `Arc`);
/// attach it to a query via `ParallelOpts::trace`,
/// [`SubmitOptions::with_trace`], or [`SubmitOpts::with_trace`], then
/// read the merged result with [`Trace::profile`].
///
/// [`SubmitOptions::with_trace`]: crate::scheduler::SubmitOptions::with_trace
/// [`SubmitOpts::with_trace`]: crate::serve::SubmitOpts::with_trace
#[derive(Clone)]
pub struct Trace(Arc<TraceShared>);

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("clock", &self.0.clock)
            .finish()
    }
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// A wall-clock trace.
    pub fn new() -> Trace {
        Trace::with_clock(ClockMode::Wall)
    }

    /// A logical-clock trace (byte-stable exports; see the module docs).
    pub fn logical() -> Trace {
        Trace::with_clock(ClockMode::Logical)
    }

    /// A trace with an explicit clock mode.
    pub fn with_clock(clock: ClockMode) -> Trace {
        install_hooks();
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        Trace(Arc::new(TraceShared {
            start: Instant::now(),
            clock,
            lanes: std::array::from_fn(|_| OnceLock::new()),
        }))
    }

    /// The clock mode.
    pub fn clock(&self) -> ClockMode {
        self.0.clock
    }

    /// Convert a measured duration for a payload field: identity on a
    /// wall clock, zero on a logical clock.
    pub fn dur_ns(&self, d: Duration) -> u64 {
        match self.0.clock {
            ClockMode::Wall => d.as_nanos() as u64,
            ClockMode::Logical => 0,
        }
    }

    fn now_ns(&self) -> u64 {
        match self.0.clock {
            // Logical timestamps are assigned at merge time (the slot
            // index); record zero here.
            ClockMode::Logical => 0,
            ClockMode::Wall => self.0.start.elapsed().as_nanos() as u64,
        }
    }

    /// Record an event directly into `lane` (serving-layer control
    /// events use this — no thread-local scope required).
    pub fn record(&self, lane: u16, stage: &'static str, kind: EventKind) {
        let lane = (lane as usize).min(LANES - 1);
        let ring = self.0.lanes[lane].get_or_init(|| Ring::new(LANE_CAPACITY));
        ring.push(Rec {
            ts_ns: self.now_ns(),
            stage,
            kind,
        });
    }

    /// Enter this trace on the current thread (control lane, stage
    /// `"query"`): ambient [`emit`] calls attribute here until the guard
    /// drops.
    pub fn enter(&self) -> ScopeGuard {
        self.enter_lane(CONTROL_LANE, "query")
    }

    /// [`Trace::enter`] with an explicit stage label.
    pub fn enter_stage(&self, stage: &'static str) -> ScopeGuard {
        self.enter_lane(CONTROL_LANE, stage)
    }

    /// Enter this trace on the current thread with an explicit lane
    /// (workers use their worker id).
    pub fn enter_lane(&self, lane: u16, stage: &'static str) -> ScopeGuard {
        let pushed = SCOPES
            .try_with(|s| {
                s.borrow_mut().push(Scope {
                    trace: self.clone(),
                    lane,
                    stage,
                });
            })
            .is_ok();
        ScopeGuard { pushed }
    }

    /// Merge every lane's events in `(lane, seq)` order.
    pub fn profile(&self) -> QueryProfile {
        let mut events = Vec::new();
        let mut dropped = 0;
        for (lane, cell) in self.0.lanes.iter().enumerate() {
            let Some(ring) = cell.get() else { continue };
            let (recs, d) = ring.snapshot();
            dropped += d;
            for (seq, rec) in recs {
                let ts_ns = match self.0.clock {
                    ClockMode::Logical => u64::from(seq),
                    ClockMode::Wall => rec.ts_ns,
                };
                events.push(TraceEvent {
                    lane: lane as u16,
                    seq,
                    ts_ns,
                    stage: rec.stage,
                    kind: rec.kind,
                });
            }
        }
        QueryProfile { events, dropped }
    }
}

/// The thread's scope stack: which trace/lane/stage ambient events
/// attribute to.
struct Scope {
    trace: Trace,
    lane: u16,
    stage: &'static str,
}

thread_local! {
    static SCOPES: RefCell<Vec<Scope>> = const { RefCell::new(Vec::new()) };
    static SPILL_CTX: Cell<SpillCtx> = const {
        Cell::new(SpillCtx { op: "spill", partition: 0, level: 0 })
    };
}

/// RAII guard for an entered scope (see [`Trace::enter_lane`]).
#[must_use = "the scope ends when the guard drops"]
pub struct ScopeGuard {
    pushed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.pushed {
            let _ = SCOPES.try_with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Re-enter the innermost scope under a new stage label (no-op without
/// one). Coordinators bracket pipeline phases with this, so worker-side
/// events inherit the right strategy/stage name.
pub fn stage(stage: &'static str) -> ScopeGuard {
    let pushed = SCOPES
        .try_with(|s| {
            let mut s = s.borrow_mut();
            match s.last() {
                Some(top) => {
                    let scope = Scope {
                        trace: top.trace.clone(),
                        lane: top.lane,
                        stage,
                    };
                    s.push(scope);
                    true
                }
                None => false,
            }
        })
        .unwrap_or(false);
    ScopeGuard { pushed }
}

/// The innermost trace entered on this thread, if any.
pub fn current() -> Option<Trace> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    SCOPES
        .try_with(|s| s.borrow().last().map(|sc| sc.trace.clone()))
        .ok()
        .flatten()
}

/// The innermost `(trace, stage)` on this thread — executors capture
/// this before fanning out to workers.
pub(crate) fn current_scope() -> Option<(Trace, &'static str)> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    SCOPES
        .try_with(|s| s.borrow().last().map(|sc| (sc.trace.clone(), sc.stage)))
        .ok()
        .flatten()
}

/// Record `kind` into the current thread's scope. **The** event site:
/// with no live trace anywhere this is one relaxed load and a branch;
/// with live traces but none on this thread, one thread-local read more.
#[inline]
pub fn emit(kind: EventKind) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    emit_slow(kind);
}

#[cold]
fn emit_slow(kind: EventKind) {
    let _ = SCOPES.try_with(|s| {
        if let Some(scope) = s.borrow().last() {
            scope.trace.record(scope.lane, scope.stage, kind);
        }
    });
}

/// Spill-site attribution: which operator/partition/level the frames
/// the storage layer is about to move belong to.
#[derive(Debug, Clone, Copy)]
struct SpillCtx {
    op: &'static str,
    partition: u16,
    level: u16,
}

/// RAII guard labelling spill I/O (see [`spill_scope`]).
#[must_use = "the spill label ends when the guard drops"]
pub struct SpillScopeGuard {
    prev: SpillCtx,
}

impl Drop for SpillScopeGuard {
    fn drop(&mut self) {
        let _ = SPILL_CTX.try_with(|c| c.set(self.prev));
    }
}

/// Label subsequent spill frame I/O on this thread with an operator
/// name, partition, and recursion level. The out-of-core operators
/// bracket their run writes/reads with this so storage-layer events
/// carry operator attribution.
pub fn spill_scope(op: &'static str, partition: u16, level: u16) -> SpillScopeGuard {
    let ctx = SpillCtx {
        op,
        partition,
        level,
    };
    let prev = SPILL_CTX.try_with(|c| c.replace(ctx)).unwrap_or(SpillCtx {
        op: "spill",
        partition: 0,
        level: 0,
    });
    SpillScopeGuard { prev }
}

/// Install the cross-crate hooks (idempotent; first [`Trace`] wins the
/// race). Events from untraced threads stop at [`emit`]'s gate.
fn install_hooks() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        adaptvm_vm::install_jit_hook(Box::new(|ev| {
            emit(match ev {
                adaptvm_vm::JitEvent::CacheHit => EventKind::JitCacheHit,
                adaptvm_vm::JitEvent::Compile { cost_ns } => EventKind::JitCompile { cost_ns },
                adaptvm_vm::JitEvent::AsyncSubmit => EventKind::JitSubmit,
                adaptvm_vm::JitEvent::Publish { cost_ns } => EventKind::JitPublish { cost_ns },
                adaptvm_vm::JitEvent::Deopt => EventKind::JitDeopt,
            })
        }));
        adaptvm_storage::spill::install_io_hook(Box::new(|ev| {
            if ACTIVE.load(Ordering::Relaxed) == 0 {
                return;
            }
            let ctx = SPILL_CTX.try_with(Cell::get).unwrap_or(SpillCtx {
                op: "spill",
                partition: 0,
                level: 0,
            });
            emit(if ev.write {
                EventKind::SpillWrite {
                    op: ctx.op,
                    partition: ctx.partition,
                    level: ctx.level,
                    bytes: ev.bytes,
                    rows: ev.rows,
                }
            } else {
                EventKind::SpillRead {
                    op: ctx.op,
                    partition: ctx.partition,
                    level: ctx.level,
                    bytes: ev.bytes,
                    rows: ev.rows,
                }
            })
        }));
    });
}

// ---------------------------------------------------------------------------
// The merged profile and its exports
// ---------------------------------------------------------------------------

/// One query's merged event stream, in deterministic `(lane, seq)`
/// order.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// All recorded events.
    pub events: Vec<TraceEvent>,
    /// Events dropped because a lane overflowed.
    pub dropped: u64,
}

/// Single-pass aggregate of a [`QueryProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfileRollup {
    /// Morsels executed.
    pub morsels: u64,
    /// Morsels executed after being stolen.
    pub stolen: u64,
    /// Rows across all morsels.
    pub rows: u64,
    /// Total morsel task time, nanoseconds.
    pub morsel_ns: u64,
    /// Synchronous + published compiles.
    pub jit_compiles: u64,
    /// Code-cache hits.
    pub jit_cache_hits: u64,
    /// Background compile submissions.
    pub jit_submits: u64,
    /// Trace-fallback deopts.
    pub jit_deopts: u64,
    /// Total modeled compile cost, nanoseconds.
    pub compile_ns: u64,
    /// Spill frames written.
    pub spill_writes: u64,
    /// Spill frames read.
    pub spill_reads: u64,
    /// Spill bytes written.
    pub spill_bytes_written: u64,
    /// Spill bytes read.
    pub spill_bytes_read: u64,
    /// Budget charges granted.
    pub budget_charges: u64,
    /// Budget charges refused.
    pub budget_refusals: u64,
    /// Bytes granted across all charges.
    pub budget_bytes: u64,
    /// Scratch arenas acquired fresh.
    pub scratch_created: u64,
    /// Scratch arenas reused from the pool.
    pub scratch_reused: u64,
    /// Morsel-elasticity resizes.
    pub resizes: u64,
    /// Serve-layer submissions.
    pub submitted: u64,
    /// Serve-layer admissions.
    pub admitted: u64,
    /// Serve-layer refusals.
    pub refused: u64,
    /// Serve-layer dispatches.
    pub dispatched: u64,
    /// Terminal outcomes.
    pub completed: u64,
    /// Total admission → dispatch wait, nanoseconds.
    pub queue_wait_ns: u64,
    /// Total admission → completion latency, nanoseconds.
    pub latency_ns: u64,
}

impl QueryProfile {
    /// Aggregate every event into one [`ProfileRollup`].
    pub fn rollup(&self) -> ProfileRollup {
        let mut r = ProfileRollup::default();
        for e in &self.events {
            match e.kind {
                EventKind::Morsel {
                    rows,
                    stolen,
                    dur_ns,
                    ..
                } => {
                    r.morsels += 1;
                    r.stolen += u64::from(stolen);
                    r.rows += u64::from(rows);
                    r.morsel_ns += dur_ns;
                }
                EventKind::JitCacheHit => r.jit_cache_hits += 1,
                EventKind::JitCompile { cost_ns } => {
                    r.jit_compiles += 1;
                    r.compile_ns += cost_ns;
                }
                EventKind::JitSubmit => r.jit_submits += 1,
                EventKind::JitPublish { cost_ns } => {
                    r.jit_compiles += 1;
                    r.compile_ns += cost_ns;
                }
                EventKind::JitDeopt => r.jit_deopts += 1,
                EventKind::SpillWrite { bytes, .. } => {
                    r.spill_writes += 1;
                    r.spill_bytes_written += bytes;
                }
                EventKind::SpillRead { bytes, .. } => {
                    r.spill_reads += 1;
                    r.spill_bytes_read += bytes;
                }
                EventKind::BudgetCharge { bytes } => {
                    r.budget_charges += 1;
                    r.budget_bytes += bytes;
                }
                EventKind::BudgetRefused { .. } => r.budget_refusals += 1,
                EventKind::BudgetRelease { .. } => {}
                EventKind::ScratchAcquire { reused } => {
                    if reused {
                        r.scratch_reused += 1;
                    } else {
                        r.scratch_created += 1;
                    }
                }
                EventKind::MorselResize { .. } => r.resizes += 1,
                EventKind::Submitted { .. } => r.submitted += 1,
                EventKind::Admitted { .. } => r.admitted += 1,
                EventKind::Refused { .. } => r.refused += 1,
                EventKind::Dispatched { queue_wait_ns, .. } => {
                    r.dispatched += 1;
                    r.queue_wait_ns += queue_wait_ns;
                }
                EventKind::Completed { latency_ns, .. } => {
                    r.completed += 1;
                    r.latency_ns += latency_ns;
                }
            }
        }
        r
    }

    /// `true` if any event matches `pred`.
    pub fn any(&self, pred: impl Fn(&EventKind) -> bool) -> bool {
        self.events.iter().any(|e| pred(&e.kind))
    }

    /// Chrome trace-event JSON (load in `chrome://tracing` or Perfetto):
    /// morsels as complete (`"X"`) spans, everything else as instant
    /// (`"i"`) events; `tid` is the lane, timestamps in microseconds.
    /// Deterministic for a given profile — under a logical clock the
    /// whole export is byte-stable and golden-testable.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 160);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ph = match e.kind {
                EventKind::Morsel { .. } => "X",
                _ => "i",
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\
                 \"ts\":{}",
                e.kind.name(),
                e.kind.category(),
                e.lane,
                format_us(e.ts_ns),
            );
            if let EventKind::Morsel { dur_ns, .. } = e.kind {
                let _ = write!(out, ",\"dur\":{}", format_us(dur_ns));
            }
            if ph == "i" {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(",\"args\":{");
            let _ = write!(out, "\"stage\":\"{}\"", escape_json(e.stage));
            write_args(&mut out, &e.kind);
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{}}}}}",
            self.dropped
        );
        out
    }

    /// A human-readable profile summary: totals, per-family rollups, and
    /// the longest morsels.
    pub fn summary(&self) -> String {
        let r = self.rollup();
        let lanes: std::collections::BTreeSet<u16> = self.events.iter().map(|e| e.lane).collect();
        let wall_ns = self.events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query profile: {} events ({} dropped) on {} lanes, span {:.3} ms",
            self.events.len(),
            self.dropped,
            lanes.len(),
            wall_ns as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "  morsels: {} ({} stolen), {} rows, {:.3} ms task time",
            r.morsels,
            r.stolen,
            r.rows,
            r.morsel_ns as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "  jit: {} compiles ({:.3} ms modeled), {} cache hits, {} submits, {} deopts",
            r.jit_compiles,
            r.compile_ns as f64 / 1e6,
            r.jit_cache_hits,
            r.jit_submits,
            r.jit_deopts
        );
        let _ = writeln!(
            out,
            "  spill: {} writes / {} reads, {} B out, {} B in",
            r.spill_writes, r.spill_reads, r.spill_bytes_written, r.spill_bytes_read
        );
        let _ = writeln!(
            out,
            "  budget: {} charges ({} B), {} refusals; scratch: {} created, {} reused",
            r.budget_charges,
            r.budget_bytes,
            r.budget_refusals,
            r.scratch_created,
            r.scratch_reused
        );
        let _ = writeln!(
            out,
            "  serve: {} submitted, {} admitted, {} refused, {} dispatched, {} completed; \
             queue wait {:.3} ms, latency {:.3} ms",
            r.submitted,
            r.admitted,
            r.refused,
            r.dispatched,
            r.completed,
            r.queue_wait_ns as f64 / 1e6,
            r.latency_ns as f64 / 1e6
        );
        let mut top: Vec<&TraceEvent> = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Morsel { .. }))
            .collect();
        top.sort_by_key(|e| match e.kind {
            EventKind::Morsel { dur_ns, .. } => std::cmp::Reverse(dur_ns),
            _ => std::cmp::Reverse(0),
        });
        for e in top.iter().take(5) {
            if let EventKind::Morsel {
                index,
                rows,
                stolen,
                dur_ns,
            } = e.kind
            {
                let _ = writeln!(
                    out,
                    "  top morsel: lane {} #{index} [{}] {rows} rows {:.3} ms{}",
                    e.lane,
                    e.stage,
                    dur_ns as f64 / 1e6,
                    if stolen { " (stolen)" } else { "" }
                );
            }
        }
        out
    }

    /// The canonical **deterministic fingerprint**: one line per event
    /// whose fields are a pure function of the query (morsel index/rows,
    /// spill frames, budget traffic, admission outcomes), sorted —
    /// identical across repeated runs, worker counts, and clock modes.
    /// Timing-dependent fields (worker attribution, steal flags,
    /// queue waits, async-JIT interleavings, cross-query scratch reuse)
    /// are masked.
    pub fn fingerprint(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for e in &self.events {
            match e.kind {
                EventKind::Morsel { index, rows, .. } => {
                    lines.push(format!("morsel {} {index} {rows}", e.stage))
                }
                EventKind::SpillWrite {
                    op,
                    partition,
                    level,
                    bytes,
                    rows,
                } => lines.push(format!(
                    "spill-write {op} {partition} {level} {bytes} {rows}"
                )),
                EventKind::SpillRead {
                    op,
                    partition,
                    level,
                    bytes,
                    rows,
                } => lines.push(format!(
                    "spill-read {op} {partition} {level} {bytes} {rows}"
                )),
                EventKind::BudgetCharge { bytes } => lines.push(format!("budget-charge {bytes}")),
                EventKind::BudgetRefused { bytes } => lines.push(format!("budget-refused {bytes}")),
                EventKind::BudgetRelease { bytes } => lines.push(format!("budget-release {bytes}")),
                EventKind::Submitted { priority } => lines.push(format!("submitted {priority}")),
                EventKind::Admitted { priority } => lines.push(format!("admitted {priority}")),
                EventKind::Refused { priority, reason } => {
                    lines.push(format!("refused {priority} {reason}"))
                }
                EventKind::Completed { outcome, .. } => lines.push(format!("completed {outcome}")),
                // Masked: timing-dependent or cross-query state.
                EventKind::JitCacheHit
                | EventKind::JitCompile { .. }
                | EventKind::JitSubmit
                | EventKind::JitPublish { .. }
                | EventKind::JitDeopt
                | EventKind::ScratchAcquire { .. }
                | EventKind::MorselResize { .. }
                | EventKind::Dispatched { .. } => {}
            }
        }
        lines.sort_unstable();
        lines
    }
}

/// Nanoseconds → microseconds with fixed 3-decimal formatting (stable
/// across platforms; Chrome's `ts`/`dur` unit).
fn format_us(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    format!("{whole}.{frac:03}")
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Append the kind-specific `"args"` fields (leading comma included).
fn write_args(out: &mut String, kind: &EventKind) {
    match *kind {
        EventKind::Morsel {
            index,
            rows,
            stolen,
            ..
        } => {
            let _ = write!(
                out,
                ",\"index\":{index},\"rows\":{rows},\"stolen\":{stolen}"
            );
        }
        EventKind::JitCompile { cost_ns } | EventKind::JitPublish { cost_ns } => {
            let _ = write!(out, ",\"cost_ns\":{cost_ns}");
        }
        EventKind::JitCacheHit | EventKind::JitSubmit | EventKind::JitDeopt => {}
        EventKind::SpillWrite {
            op,
            partition,
            level,
            bytes,
            rows,
        }
        | EventKind::SpillRead {
            op,
            partition,
            level,
            bytes,
            rows,
        } => {
            let _ = write!(
                out,
                ",\"op\":\"{}\",\"partition\":{partition},\"level\":{level},\
                 \"bytes\":{bytes},\"rows\":{rows}",
                escape_json(op)
            );
        }
        EventKind::BudgetCharge { bytes }
        | EventKind::BudgetRefused { bytes }
        | EventKind::BudgetRelease { bytes } => {
            let _ = write!(out, ",\"bytes\":{bytes}");
        }
        EventKind::ScratchAcquire { reused } => {
            let _ = write!(out, ",\"reused\":{reused}");
        }
        EventKind::MorselResize { from, to } => {
            let _ = write!(out, ",\"from\":{from},\"to\":{to}");
        }
        EventKind::Submitted { priority } | EventKind::Admitted { priority } => {
            let _ = write!(out, ",\"priority\":\"{}\"", escape_json(priority));
        }
        EventKind::Refused { priority, reason } => {
            let _ = write!(
                out,
                ",\"priority\":\"{}\",\"reason\":\"{}\"",
                escape_json(priority),
                escape_json(reason)
            );
        }
        EventKind::Dispatched {
            priority,
            stride_lane,
            queue_wait_ns,
        } => {
            let _ = write!(
                out,
                ",\"priority\":\"{}\",\"stride_lane\":{stride_lane},\"queue_wait_ns\":{queue_wait_ns}",
                escape_json(priority)
            );
        }
        EventKind::Completed {
            outcome,
            latency_ns,
        } => {
            let _ = write!(
                out,
                ",\"outcome\":\"{}\",\"latency_ns\":{latency_ns}",
                escape_json(outcome)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_emit_is_a_noop() {
        // No scope on this thread: emit must not panic or record.
        emit(EventKind::JitCacheHit);
    }

    #[test]
    fn scoped_events_merge_in_lane_seq_order() {
        let trace = Trace::new();
        {
            let _g = trace.enter();
            emit(EventKind::BudgetCharge { bytes: 10 });
            emit(EventKind::BudgetRelease { bytes: 10 });
        }
        trace.record(3, "probe", EventKind::JitCacheHit);
        let p = trace.profile();
        assert_eq!(p.events.len(), 3);
        // Lane 3 sorts before the control lane.
        assert_eq!(p.events[0].lane, 3);
        assert_eq!(p.events[1].lane, CONTROL_LANE);
        assert_eq!(p.events[1].seq, 0);
        assert_eq!(p.events[2].seq, 1);
        assert_eq!(p.events[1].stage, "query");
        let r = p.rollup();
        assert_eq!(r.budget_charges, 1);
        assert_eq!(r.jit_cache_hits, 1);
    }

    #[test]
    fn nested_stage_scopes_restore() {
        let trace = Trace::new();
        let _g = trace.enter();
        {
            let _s = stage("build");
            emit(EventKind::JitSubmit);
        }
        emit(EventKind::JitDeopt);
        let p = trace.profile();
        assert_eq!(p.events[0].stage, "build");
        assert_eq!(p.events[1].stage, "query");
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let ring = Ring::new(4);
        for i in 0..10 {
            ring.push(Rec {
                ts_ns: i,
                stage: "t",
                kind: EventKind::JitCacheHit,
            });
        }
        let (recs, dropped) = ring.snapshot();
        assert_eq!(recs.len(), 4);
        assert_eq!(dropped, 6);
    }

    #[test]
    fn concurrent_pushes_keep_every_event_once() {
        let ring = std::sync::Arc::new(Ring::new(LANE_CAPACITY));
        std::thread::scope(|s| {
            for t in 0..4 {
                let ring = std::sync::Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..100 {
                        ring.push(Rec {
                            ts_ns: t * 1000 + i,
                            stage: "t",
                            kind: EventKind::BudgetCharge { bytes: i },
                        });
                    }
                });
            }
        });
        let (recs, dropped) = ring.snapshot();
        assert_eq!(recs.len(), 400);
        assert_eq!(dropped, 0);
        // Slot indices are unique and dense.
        let seqs: std::collections::BTreeSet<u32> = recs.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs.len(), 400);
    }

    #[test]
    fn logical_clock_makes_ts_the_seq() {
        let trace = Trace::logical();
        trace.record(0, "q", EventKind::JitCacheHit);
        trace.record(0, "q", EventKind::JitDeopt);
        let p = trace.profile();
        assert_eq!(p.events[0].ts_ns, 0);
        assert_eq!(p.events[1].ts_ns, 1);
        assert_eq!(
            trace.dur_ns(Duration::from_millis(5)),
            0,
            "logical clocks suppress measured durations"
        );
    }

    #[test]
    fn chrome_trace_shape() {
        let trace = Trace::logical();
        trace.record(
            0,
            "q",
            EventKind::Morsel {
                index: 0,
                rows: 1024,
                stolen: false,
                dur_ns: 0,
            },
        );
        trace.record(
            CONTROL_LANE,
            "q",
            EventKind::Completed {
                outcome: "completed",
                latency_ns: 0,
            },
        );
        let json = trace.profile().chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"rows\":1024"));
        assert!(json.contains("\"outcome\":\"completed\""));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn fingerprint_masks_timing_and_sorts() {
        let trace = Trace::new();
        trace.record(
            2,
            "probe",
            EventKind::Morsel {
                index: 7,
                rows: 100,
                stolen: true,
                dur_ns: 12345,
            },
        );
        trace.record(0, "probe", EventKind::JitCacheHit);
        trace.record(
            CONTROL_LANE,
            "q",
            EventKind::Dispatched {
                priority: "normal",
                stride_lane: 1,
                queue_wait_ns: 55,
            },
        );
        let fp = trace.profile().fingerprint();
        assert_eq!(fp, vec!["morsel probe 7 100".to_string()]);
    }

    #[test]
    fn format_us_is_fixed_point() {
        assert_eq!(format_us(0), "0.000");
        assert_eq!(format_us(1_500), "1.500");
        assert_eq!(format_us(999), "0.999");
        assert_eq!(format_us(2_000_001), "2000.001");
    }
}
