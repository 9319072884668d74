//! Serving-layer telemetry: per-priority **and per-tenant** counters,
//! queue-depth gauges, log-bucketed latency histograms — all lock-free on
//! the record path — plus [`render_text`], the plain-text metrics
//! exposition.
//!
//! Everything here is written by workers/dispatchers with relaxed atomics
//! and read through [`ServiceStats`] snapshots — a snapshot taken while
//! queries are in flight is internally *approximately* consistent (each
//! counter is exact, cross-counter invariants may lag by in-flight
//! updates), and exactly consistent once the service is idle or drained.
//!
//! ## The text exposition format
//!
//! [`render_text`] renders one snapshot as a Prometheus-inspired plain
//! text document with a **stable, versioned line format** (golden-tested
//! so it cannot silently drift):
//!
//! * The first line is exactly `# adaptvm-serve-metrics v2`. No other
//!   comment, `HELP`, or `TYPE` lines are emitted.
//! * Every other line is `name value` or `name{key="value"} escaped`,
//!   with **exactly one** label (`priority="…"` or `tenant="…"`), plus
//!   `le`/`quantile` on histogram lines. Label values escape `\` as
//!   `\\`, `"` as `\"`, and newline as `\n`.
//! * Counters end in `_total`; gauges are bare names; histograms emit
//!   cumulative `name_bucket{…,le="…"}` lines (upper bounds are the
//!   log₂-µs bucket edges rendered in seconds, last bucket `+Inf`),
//!   `quantile="0.5"`/`"0.99"` summary lines (omitted while the
//!   histogram is empty), then `name_sum` (seconds) and `name_count`.
//! * Families appear in a fixed order: service-level gauges, scheduler
//!   counters, per-priority families (lane order: interactive, normal,
//!   batch), per-tenant families in registration order, then the
//!   unlabelled `engine_*` process-wide counters.
//! * Integer values print in decimal; seconds print as Rust's shortest
//!   round-trip `f64` (e.g. `0.000128`, `1.048576`).
//!
//! ## v1 → v2
//!
//! v2 is a byte-stable superset of v1: every line v1 emitted is emitted
//! unchanged and in the same order; v2 appends the `engine_*` family
//! block — JIT compiles/cache hits/deopts, spill bytes written/read,
//! scratch-arena pool activity, and morsel-elasticity resize events —
//! sampled from the process-wide always-on counters (see
//! [`EngineSnapshot`]).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::scheduler::{QueryOutcomeKind, SchedulerStats};

use super::Priority;

/// Histogram buckets: bucket `i` counts latencies in `[2^(i-1), 2^i)`
/// microseconds (bucket 0: `< 1 µs`); the last bucket is open-ended.
/// 28 buckets reach past 2^27 µs ≈ 134 s — beyond any sane query.
pub const HISTOGRAM_BUCKETS: usize = 28;

/// A concurrent log₂-bucketed latency histogram.
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl LatencyHistogram {
    fn bucket_of(d: Duration) -> usize {
        let micros = d.as_micros().min(u128::from(u64::MAX)) as u64;
        if micros == 0 {
            return 0;
        }
        // 1 µs → bucket 1, 2-3 µs → bucket 2, …
        ((64 - micros.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Record one observation.
    pub fn record(&self, d: Duration) {
        self.buckets[Self::bucket_of(d)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// An owned, immutable copy of the current state.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// An owned histogram snapshot with quantile extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Largest observation, nanoseconds.
    pub max_ns: u64,
}

impl Default for LatencySnapshot {
    fn default() -> LatencySnapshot {
        LatencySnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl LatencySnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// where the cumulative count crosses `q · count` — an over-estimate
    /// by at most 2× (the bucket width). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i upper bound: 2^i µs (bucket 0: 1 µs). The open
                // last bucket reports the observed max instead.
                if i == HISTOGRAM_BUCKETS - 1 {
                    return Some(Duration::from_nanos(self.max_ns));
                }
                return Some(Duration::from_micros(1u64 << i));
            }
        }
        Some(Duration::from_nanos(self.max_ns))
    }

    /// Median (see [`LatencySnapshot::quantile`]).
    pub fn p50(&self) -> Option<Duration> {
        self.quantile(0.50)
    }

    /// 99th percentile (see [`LatencySnapshot::quantile`]).
    pub fn p99(&self) -> Option<Duration> {
        self.quantile(0.99)
    }

    /// Arithmetic mean. `None` when empty.
    pub fn mean(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_nanos(self.sum_ns / self.count))
    }

    /// Largest observation.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }
}

/// The atomic per-priority counter block.
#[derive(Default)]
pub(crate) struct PriorityCounters {
    pub submitted: AtomicU64,
    pub admitted: AtomicU64,
    pub rejected_full: AtomicU64,
    pub rejected_quota: AtomicU64,
    pub rejected_shutdown: AtomicU64,
    pub admission_timeouts: AtomicU64,
    pub shed: AtomicU64,
    pub completed: AtomicU64,
    pub task_errors: AtomicU64,
    pub panicked: AtomicU64,
    pub cancelled: AtomicU64,
    pub deadline_expired: AtomicU64,
    pub queue_wait: LatencyHistogram,
    pub latency: LatencyHistogram,
}

/// A snapshot of one priority class's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PriorityStats {
    /// Submissions attempted (accepted or not).
    pub submitted: u64,
    /// Submissions that entered the queue.
    pub admitted: u64,
    /// Submissions refused because the class queue was full.
    pub rejected_full: u64,
    /// Submissions refused because the submitting tenant was at its
    /// queue-depth quota.
    pub rejected_quota: u64,
    /// Submissions refused because the service was draining/stopped.
    pub rejected_shutdown: u64,
    /// Blocking submissions that timed out waiting for queue space.
    pub admission_timeouts: u64,
    /// Submissions refused by the overload-shedding policy (Batch before
    /// Normal before Interactive under sustained `QueueFull`).
    pub shed: u64,
    /// Queries that ran to a merged result.
    pub completed: u64,
    /// Queries whose task errored.
    pub task_errors: u64,
    /// Queries whose task or merge panicked.
    pub panicked: u64,
    /// Queries cancelled (queued or running).
    pub cancelled: u64,
    /// Queries whose deadline passed (queued or running).
    pub deadline_expired: u64,
    /// Time from admission to dispatch.
    pub queue_wait: LatencySnapshot,
    /// Time from admission to completion (any outcome).
    pub latency: LatencySnapshot,
}

impl PriorityStats {
    /// Every terminal outcome recorded so far.
    pub fn finished(&self) -> u64 {
        self.completed + self.task_errors + self.panicked + self.cancelled + self.deadline_expired
    }

    /// Rejections of any kind (full / tenant quota / shutdown). Shed
    /// queries are counted separately — see [`PriorityStats::shed`].
    pub fn rejected(&self) -> u64 {
        self.rejected_full + self.rejected_quota + self.rejected_shutdown
    }

    /// Refused fraction of all submissions — rejections plus sheds (0
    /// when none were attempted).
    pub fn rejection_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.rejected() + self.shed) as f64 / self.submitted as f64
        }
    }
}

/// The whole telemetry block (one counter set per priority).
#[derive(Default)]
pub(crate) struct Telemetry {
    per: [PriorityCounters; 3],
}

impl Telemetry {
    pub fn counters(&self, p: Priority) -> &PriorityCounters {
        &self.per[p.index()]
    }

    pub fn record_outcome(&self, p: Priority, kind: QueryOutcomeKind, latency: Duration) {
        let c = self.counters(p);
        match kind {
            QueryOutcomeKind::Completed => c.completed.fetch_add(1, Ordering::Relaxed),
            QueryOutcomeKind::TaskError => c.task_errors.fetch_add(1, Ordering::Relaxed),
            QueryOutcomeKind::Panicked => c.panicked.fetch_add(1, Ordering::Relaxed),
            QueryOutcomeKind::Cancelled => c.cancelled.fetch_add(1, Ordering::Relaxed),
            QueryOutcomeKind::DeadlineExceeded => {
                c.deadline_expired.fetch_add(1, Ordering::Relaxed)
            }
        };
        c.latency.record(latency);
    }

    pub fn snapshot_priority(&self, p: Priority) -> PriorityStats {
        let c = self.counters(p);
        PriorityStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected_full: c.rejected_full.load(Ordering::Relaxed),
            rejected_quota: c.rejected_quota.load(Ordering::Relaxed),
            rejected_shutdown: c.rejected_shutdown.load(Ordering::Relaxed),
            admission_timeouts: c.admission_timeouts.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            task_errors: c.task_errors.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            queue_wait: c.queue_wait.snapshot(),
            latency: c.latency.snapshot(),
        }
    }
}

/// A snapshot of one tenant's counters, gauges, and latency histograms.
/// Same counter vocabulary as [`PriorityStats`], sliced by *who asked*
/// instead of *how urgent*.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's registered display name (metrics label).
    pub name: String,
    /// Effective stride weight (≥ 1).
    pub weight: u64,
    /// Submissions attempted (accepted or not).
    pub submitted: u64,
    /// Submissions that entered the queue.
    pub admitted: u64,
    /// Submissions refused because the class queue was full.
    pub rejected_full: u64,
    /// Submissions refused by this tenant's own queue-depth quota.
    pub rejected_quota: u64,
    /// Submissions refused because the service was draining/stopped.
    pub rejected_shutdown: u64,
    /// Blocking submissions that timed out waiting for queue space.
    pub admission_timeouts: u64,
    /// Submissions refused by the overload-shedding policy.
    pub shed: u64,
    /// Queries that ran to a merged result.
    pub completed: u64,
    /// Queries whose task errored.
    pub task_errors: u64,
    /// Queries whose task or merge panicked.
    pub panicked: u64,
    /// Queries cancelled (queued or running).
    pub cancelled: u64,
    /// Queries whose deadline passed (queued or running).
    pub deadline_expired: u64,
    /// Live queued submissions across priorities (gauge).
    pub queued: usize,
    /// Live dispatched-but-unfinished queries (gauge).
    pub in_flight: usize,
    /// Time from admission to dispatch.
    pub queue_wait: LatencySnapshot,
    /// Time from admission to completion (any outcome).
    pub latency: LatencySnapshot,
}

impl TenantStats {
    /// Every terminal outcome recorded so far.
    pub fn finished(&self) -> u64 {
        self.completed + self.task_errors + self.panicked + self.cancelled + self.deadline_expired
    }

    /// Rejections of any kind (full / tenant quota / shutdown); sheds are
    /// counted separately in [`TenantStats::shed`].
    pub fn rejected(&self) -> u64 {
        self.rejected_full + self.rejected_quota + self.rejected_shutdown
    }

    /// Refused fraction of all submissions — rejections plus sheds (0
    /// when none were attempted).
    pub fn rejection_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.rejected() + self.shed) as f64 / self.submitted as f64
        }
    }
}

/// One coherent view of the service: per-priority counters and
/// histograms, per-tenant counters, live gauges, and the underlying
/// scheduler's counters.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Counter snapshots indexed by [`Priority::index`].
    pub per_priority: [PriorityStats; 3],
    /// Live queue depth per priority (gauge).
    pub queue_depths: [usize; 3],
    /// Queries currently dispatched onto the scheduler (gauge).
    pub running: usize,
    /// True once `drain`/`shutdown` began.
    pub draining: bool,
    /// The scheduler's own lifetime counters.
    pub scheduler: SchedulerStats,
    /// Per-tenant snapshots in registration order (empty when the service
    /// was built without a registry). Anonymous traffic appears only in
    /// the per-priority counters.
    pub tenants: Vec<TenantStats>,
    /// The live elastic concurrency gate (gauge; between the configured
    /// base and ceiling).
    pub concurrent_limit: usize,
    /// Times the elastic gate doubled under backlog.
    pub grow_events: u64,
    /// Times the elastic gate halved after draining.
    pub shrink_events: u64,
    /// Current shedding escalation: 0 none, 1 Batch shed, 2 Batch and
    /// Normal shed (gauge).
    pub shed_level: u8,
}

impl ServiceStats {
    /// The counter block for one priority class.
    pub fn priority(&self, p: Priority) -> &PriorityStats {
        &self.per_priority[p.index()]
    }

    /// Live queue depth for one priority class.
    pub fn queue_depth(&self, p: Priority) -> usize {
        self.queue_depths[p.index()]
    }

    /// The tenant snapshot with the given registered name (first match).
    pub fn tenant(&self, name: &str) -> Option<&TenantStats> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// A point-in-time sample of the process-wide engine counters rendered
/// as the `engine_*` families of the v2 exposition: JIT activity
/// ([`adaptvm_vm::jit_counters`]), spill I/O byte totals
/// ([`adaptvm_storage::spill::io_counters`]), scratch-arena pool churn
/// ([`crate::scratch_stats`]), and morsel-elasticity resizes
/// ([`crate::obs::morsel_resize_counters`]).
///
/// All sources are monotonic relaxed atomics that are **always on** —
/// they cost one `fetch_add` at each event site whether or not tracing
/// is enabled, so the exposition never needs a [`crate::obs::Trace`].
/// [`render_text`] captures a live snapshot; tests inject a synthetic
/// one through [`render_text_with`] to keep goldens deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Fragments compiled.
    pub jit_compiles: u64,
    /// Fragments injected from a shared cache without compiling.
    pub jit_cache_hits: u64,
    /// Always 0 in a live capture. Frozen compatibility field: the
    /// exposition keeps `engine_jit_async_submits_total` in its pinned
    /// family list.
    #[doc(hidden)]
    pub jit_async_submits: u64,
    /// Build/compile/run failures that fell back to interpretation.
    pub jit_deopts: u64,
    /// Encoded bytes written to spill run files.
    pub spill_bytes_written: u64,
    /// Encoded bytes read back from spill run files.
    pub spill_bytes_read: u64,
    /// Scratch arenas allocated fresh because the pool was empty.
    pub scratch_created: u64,
    /// Scratch arenas handed out from the pool (buffers already warm).
    pub scratch_reused: u64,
    /// Morsel-elasticity resizes that grew the morsel size.
    pub morsel_grow: u64,
    /// Morsel-elasticity resizes that shrank the morsel size.
    pub morsel_shrink: u64,
}

impl EngineSnapshot {
    /// Sample every process-wide engine counter right now.
    pub fn capture() -> EngineSnapshot {
        let jit = adaptvm_vm::jit_counters();
        let io = adaptvm_storage::spill::io_counters();
        let scratch = crate::scratch_stats();
        let (morsel_grow, morsel_shrink) = crate::obs::morsel_resize_counters();
        EngineSnapshot {
            jit_compiles: jit.compiles,
            jit_cache_hits: jit.cache_hits,
            jit_async_submits: jit.async_submits,
            jit_deopts: jit.deopts,
            spill_bytes_written: io.bytes_written,
            spill_bytes_read: io.bytes_read,
            scratch_created: scratch.created,
            scratch_reused: scratch.reused,
            morsel_grow,
            morsel_shrink,
        }
    }
}

/// A named counter family: exposition name plus field accessor.
type CounterFamily<T, V> = (&'static str, fn(&T) -> V);

/// Escape a label value per the exposition format: `\` → `\\`, `"` →
/// `\"`, newline → `\n`.
fn escape_label(v: &str) -> String {
    let mut s = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => s.push_str("\\\\"),
            '"' => s.push_str("\\\""),
            '\n' => s.push_str("\\n"),
            c => s.push(c),
        }
    }
    s
}

/// Emit one labelled histogram family: cumulative `_bucket` lines (upper
/// bounds in seconds, final `+Inf`), `quantile` summary lines when
/// non-empty, then `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, key: &str, value: &str, h: &LatencySnapshot) {
    let v = escape_label(value);
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        cumulative += c;
        if i == HISTOGRAM_BUCKETS - 1 {
            let _ = writeln!(
                out,
                "{name}_bucket{{{key}=\"{v}\",le=\"+Inf\"}} {cumulative}"
            );
        } else {
            let le = (1u64 << i) as f64 / 1e6;
            let _ = writeln!(
                out,
                "{name}_bucket{{{key}=\"{v}\",le=\"{le}\"}} {cumulative}"
            );
        }
    }
    for (q, qlabel) in [(0.50, "0.5"), (0.99, "0.99")] {
        if let Some(d) = h.quantile(q) {
            let _ = writeln!(
                out,
                "{name}{{{key}=\"{v}\",quantile=\"{qlabel}\"}} {}",
                d.as_secs_f64()
            );
        }
    }
    let sum = Duration::from_nanos(h.sum_ns).as_secs_f64();
    let _ = writeln!(out, "{name}_sum{{{key}=\"{v}\"}} {sum}");
    let _ = writeln!(out, "{name}_count{{{key}=\"{v}\"}} {}", h.count);
}

/// Render a [`ServiceStats`] snapshot as the versioned plain-text metrics
/// exposition, sampling the process-wide engine counters live (see the
/// module docs for the format contract). For a deterministic rendering —
/// golden-testable byte for byte — inject the engine sample through
/// [`render_text_with`].
pub fn render_text(stats: &ServiceStats) -> String {
    render_text_with(stats, &EngineSnapshot::capture())
}

/// Render a [`ServiceStats`] snapshot plus an explicit [`EngineSnapshot`]
/// as the versioned plain-text metrics exposition. The output is
/// deterministic for a given pair of snapshots.
pub fn render_text_with(stats: &ServiceStats, engine: &EngineSnapshot) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("# adaptvm-serve-metrics v2\n");

    // Service-level gauges.
    let _ = writeln!(out, "serve_running {}", stats.running);
    let _ = writeln!(out, "serve_draining {}", u8::from(stats.draining));
    let _ = writeln!(out, "serve_concurrent_limit {}", stats.concurrent_limit);
    let _ = writeln!(out, "serve_shed_level {}", stats.shed_level);
    for p in Priority::ALL {
        let _ = writeln!(
            out,
            "serve_queue_depth{{priority=\"{}\"}} {}",
            p.name(),
            stats.queue_depth(p)
        );
    }

    // Scheduler / service-wide counters.
    let _ = writeln!(out, "serve_concurrency_grow_total {}", stats.grow_events);
    let _ = writeln!(
        out,
        "serve_concurrency_shrink_total {}",
        stats.shrink_events
    );
    let _ = writeln!(
        out,
        "scheduler_queries_submitted_total {}",
        stats.scheduler.queries_submitted
    );
    let _ = writeln!(
        out,
        "scheduler_queries_completed_total {}",
        stats.scheduler.queries_completed
    );
    let _ = writeln!(
        out,
        "scheduler_morsels_executed_total {}",
        stats.scheduler.morsels_executed
    );

    // Per-priority counter families, family-major, lanes in order.
    let priority_counters: [CounterFamily<PriorityStats, u64>; 12] = [
        ("serve_submitted_total", |s| s.submitted),
        ("serve_admitted_total", |s| s.admitted),
        ("serve_rejected_full_total", |s| s.rejected_full),
        ("serve_rejected_quota_total", |s| s.rejected_quota),
        ("serve_rejected_shutdown_total", |s| s.rejected_shutdown),
        ("serve_admission_timeouts_total", |s| s.admission_timeouts),
        ("serve_shed_total", |s| s.shed),
        ("serve_completed_total", |s| s.completed),
        ("serve_task_errors_total", |s| s.task_errors),
        ("serve_panicked_total", |s| s.panicked),
        ("serve_cancelled_total", |s| s.cancelled),
        ("serve_deadline_expired_total", |s| s.deadline_expired),
    ];
    for (name, get) in priority_counters {
        for p in Priority::ALL {
            let _ = writeln!(
                out,
                "{name}{{priority=\"{}\"}} {}",
                p.name(),
                get(stats.priority(p))
            );
        }
    }
    for p in Priority::ALL {
        render_histogram(
            &mut out,
            "serve_queue_wait_seconds",
            "priority",
            p.name(),
            &stats.priority(p).queue_wait,
        );
    }
    for p in Priority::ALL {
        render_histogram(
            &mut out,
            "serve_latency_seconds",
            "priority",
            p.name(),
            &stats.priority(p).latency,
        );
    }

    // Per-tenant families, family-major, tenants in registration order.
    for t in &stats.tenants {
        let _ = writeln!(
            out,
            "tenant_weight{{tenant=\"{}\"}} {}",
            escape_label(&t.name),
            t.weight
        );
    }
    let tenant_counters: [CounterFamily<TenantStats, u64>; 12] = [
        ("tenant_submitted_total", |s| s.submitted),
        ("tenant_admitted_total", |s| s.admitted),
        ("tenant_rejected_full_total", |s| s.rejected_full),
        ("tenant_rejected_quota_total", |s| s.rejected_quota),
        ("tenant_rejected_shutdown_total", |s| s.rejected_shutdown),
        ("tenant_admission_timeouts_total", |s| s.admission_timeouts),
        ("tenant_shed_total", |s| s.shed),
        ("tenant_completed_total", |s| s.completed),
        ("tenant_task_errors_total", |s| s.task_errors),
        ("tenant_panicked_total", |s| s.panicked),
        ("tenant_cancelled_total", |s| s.cancelled),
        ("tenant_deadline_expired_total", |s| s.deadline_expired),
    ];
    for (name, get) in tenant_counters {
        for t in &stats.tenants {
            let _ = writeln!(
                out,
                "{name}{{tenant=\"{}\"}} {}",
                escape_label(&t.name),
                get(t)
            );
        }
    }
    let tenant_gauges: [CounterFamily<TenantStats, usize>; 2] = [
        ("tenant_queued", |s| s.queued),
        ("tenant_in_flight", |s| s.in_flight),
    ];
    for (name, get) in tenant_gauges {
        for t in &stats.tenants {
            let _ = writeln!(
                out,
                "{name}{{tenant=\"{}\"}} {}",
                escape_label(&t.name),
                get(t)
            );
        }
    }
    for t in &stats.tenants {
        render_histogram(
            &mut out,
            "tenant_queue_wait_seconds",
            "tenant",
            &t.name,
            &t.queue_wait,
        );
    }
    for t in &stats.tenants {
        render_histogram(
            &mut out,
            "tenant_latency_seconds",
            "tenant",
            &t.name,
            &t.latency,
        );
    }

    // Engine-wide process counters (v2): appended after every v1 family
    // so the v1 prefix of the document stays byte-identical.
    let engine_counters: [CounterFamily<EngineSnapshot, u64>; 10] = [
        ("engine_jit_compiles_total", |e| e.jit_compiles),
        ("engine_jit_cache_hits_total", |e| e.jit_cache_hits),
        ("engine_jit_async_submits_total", |e| e.jit_async_submits),
        ("engine_jit_deopts_total", |e| e.jit_deopts),
        ("engine_spill_bytes_written_total", |e| {
            e.spill_bytes_written
        }),
        ("engine_spill_bytes_read_total", |e| e.spill_bytes_read),
        ("engine_scratch_created_total", |e| e.scratch_created),
        ("engine_scratch_reused_total", |e| e.scratch_reused),
        ("engine_morsel_grow_total", |e| e.morsel_grow),
        ("engine_morsel_shrink_total", |e| e.morsel_shrink),
    ];
    for (name, get) in engine_counters {
        let _ = writeln!(out, "{name} {}", get(engine));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.snapshot().p50(), None);
        // 90 fast observations (~4 µs), 10 slow (~1000 µs).
        for _ in 0..90 {
            h.record(Duration::from_micros(4));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(1000));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 lands in the 4 µs bucket (upper bound 8 µs); p99 in the
        // 1000 µs bucket (upper bound 1024 µs).
        assert_eq!(s.p50(), Some(Duration::from_micros(8)));
        assert_eq!(s.p99(), Some(Duration::from_micros(1024)));
        assert!(s.mean().unwrap() >= Duration::from_micros(4));
        assert!(s.max() >= Duration::from_micros(1000));
    }

    #[test]
    fn histogram_extremes() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(500)); // beyond the last bucket
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        // The open-ended bucket reports the observed max.
        assert_eq!(s.quantile(1.0), Some(Duration::from_secs(500)));
    }

    #[test]
    fn render_text_header_and_label_escaping() {
        let mut stats = ServiceStats::default();
        stats.tenants.push(TenantStats {
            name: "we\"ird\\te\nnant".to_string(),
            weight: 3,
            submitted: 7,
            ..TenantStats::default()
        });
        let text = render_text(&stats);
        assert!(text.starts_with("# adaptvm-serve-metrics v2\n"));
        assert!(text.contains("tenant_weight{tenant=\"we\\\"ird\\\\te\\nnant\"} 3"));
        assert!(text.contains("tenant_submitted_total{tenant=\"we\\\"ird\\\\te\\nnant\"} 7"));
        // Empty histograms emit no quantile lines, but do emit sum/count.
        assert!(!text.contains("quantile"));
        assert!(text.contains("serve_latency_seconds_count{priority=\"interactive\"} 0"));
        // Exactly one header comment line.
        assert_eq!(text.lines().filter(|l| l.starts_with('#')).count(), 1);
    }

    #[test]
    fn render_text_histogram_lines() {
        let mut stats = ServiceStats::default();
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(100));
        stats.per_priority[Priority::Normal.index()].latency = h.snapshot();
        let text = render_text(&stats);
        // 100 µs lands in the (64, 128] bucket: cumulative 1 from le=128 µs on.
        assert!(
            text.contains("serve_latency_seconds_bucket{priority=\"normal\",le=\"0.000064\"} 0")
        );
        assert!(
            text.contains("serve_latency_seconds_bucket{priority=\"normal\",le=\"0.000128\"} 1")
        );
        assert!(text.contains("serve_latency_seconds_bucket{priority=\"normal\",le=\"+Inf\"} 1"));
        assert!(
            text.contains("serve_latency_seconds{priority=\"normal\",quantile=\"0.5\"} 0.000128")
        );
        assert!(text.contains("serve_latency_seconds_sum{priority=\"normal\"} 0.0001"));
        assert!(text.contains("serve_latency_seconds_count{priority=\"normal\"} 1"));
    }

    #[test]
    fn engine_families_append_without_disturbing_v1_lines() {
        let stats = ServiceStats::default();
        let engine = EngineSnapshot {
            jit_compiles: 3,
            spill_bytes_read: 9,
            ..EngineSnapshot::default()
        };
        let text = render_text_with(&stats, &engine);
        assert!(text.contains("\nengine_jit_compiles_total 3\n"));
        assert!(text.contains("\nengine_spill_bytes_read_total 9\n"));
        assert!(text.ends_with("engine_morsel_shrink_total 0\n"));
        // The engine sample only affects the appended block: everything
        // before the first engine_* line is byte-identical across samples.
        let zero = render_text_with(&stats, &EngineSnapshot::default());
        let prefix = |s: &str| s[..s.find("engine_").unwrap()].to_string();
        assert_eq!(prefix(&text), prefix(&zero));
    }

    #[test]
    fn outcome_counters_split_by_kind() {
        let t = Telemetry::default();
        let p = Priority::Batch;
        t.record_outcome(p, QueryOutcomeKind::Completed, Duration::from_micros(5));
        t.record_outcome(p, QueryOutcomeKind::Cancelled, Duration::from_micros(5));
        t.record_outcome(
            p,
            QueryOutcomeKind::DeadlineExceeded,
            Duration::from_micros(5),
        );
        let s = t.snapshot_priority(p);
        assert_eq!(s.completed, 1);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.deadline_expired, 1);
        assert_eq!(s.finished(), 3);
        assert_eq!(s.latency.count, 3);
        // Other priorities untouched.
        assert_eq!(t.snapshot_priority(Priority::Interactive).finished(), 0);
    }
}
