//! The traced run (`--trace 1`): a separate pass after — never during —
//! the end-to-end measurement. Per workload it runs the operation with an
//! engine `Trace` attached and reads the rollup, `RunReport`,
//! `SpillStats`, `ServiceStats` and the process-wide counter deltas, then
//! runs the layer probes on the workload's own inputs. The time given by
//! `--seconds` is split between these parts.

use std::time::{Duration, Instant};

use adaptvm::parallel::{EventKind, Priority, ProfileRollup, SpillStats, Trace};
use adaptvm::storage::spill::io_counters;
use adaptvm::vm::jit_counters;

use crate::e2e::{calibrate_rate, closed_pass, serve_pass, Plan};
use crate::probes::{self, Metrics};
use crate::spans::Recorder;
use crate::spec;
use crate::stats::percentile;
use crate::workloads::serve_mix::{self, ServeMix};
use crate::workloads::{build_closed, Env, OpCtx, VmCounts};

/// Shares of `--seconds` on a closed-loop workload.
const PLAIN_SHARE: f64 = 0.15;
const TRACED_SHARE: f64 = 0.20;
const SINGLE_WORKER_SHARE: f64 = 0.10;
const PROBE_SHARE: f64 = 0.40;

/// Shares of `--seconds` on `serve_mix`; each of the four sweep rates
/// gets `SWEEP_SHARE`.
const SERVE_PLAIN_SHARE: f64 = 0.15;
const SERVE_TRACED_SHARE: f64 = 0.22;
const SWEEP_SHARE: f64 = 0.09;
const SERVE_PROBE_SHARE: f64 = 0.15;
const SWEEP_RATES: [f64; 4] = [0.5, 1.0, 1.5, 2.0];
/// In-flight requests at the last send above which the backlog counts as
/// growing (a sustainable rate leaves a handful).
const BACKLOG_LIMIT: usize = 32;

/// What a traced run produced.
pub struct Layers {
    /// Every per-layer metric, in `spec::PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Layers by total self time over the traced operations, largest
    /// first, in milliseconds per operation.
    pub self_time_ranking: Vec<(&'static str, f64)>,
    pub recorder: Recorder,
}

/// Sums over the traced operations.
#[derive(Default)]
struct Totals {
    ops: u64,
    failed: u64,
    wall_ns: u64,
    rollup_morsels: u64,
    stolen: u64,
    morsel_ns: u64,
    budget_charges: u64,
    budget_refusals: u64,
    scratch_created: u64,
    scratch_reused: u64,
    resizes: u64,
    events: u64,
    dropped: u64,
    vm: VmCounts,
    spill: Option<SpillStats>,
    reorders: u64,
}

impl Totals {
    fn add_rollup(&mut self, r: &ProfileRollup) {
        self.rollup_morsels += r.morsels;
        self.stolen += r.stolen;
        self.morsel_ns += r.morsel_ns;
        self.budget_charges += r.budget_charges;
        self.budget_refusals += r.budget_refusals;
        self.scratch_created += r.scratch_created;
        self.scratch_reused += r.scratch_reused;
        self.resizes += r.resizes;
    }

    fn add_vm(&mut self, vm: Option<VmCounts>) {
        if let Some(vm) = vm {
            self.vm.trace_executions += vm.trace_executions;
            self.vm.native_executions += vm.native_executions;
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counter deltas of the traced pass, per operation, into `m`.
fn counter_metrics(
    m: &mut Metrics,
    t: &Totals,
    jit0: adaptvm::vm::JitCounters,
    io0: adaptvm::storage::spill::SpillIoCounters,
    input_bytes: f64,
) {
    let ops = t.ops.max(1) as f64;
    let jit1 = jit_counters();
    let io1 = io_counters();
    let per_op = |a: u64, b: u64| (a - b) as f64 / ops;
    m.insert("jit.compiles", per_op(jit1.compiles, jit0.compiles));
    m.insert("jit.cache_hits", per_op(jit1.cache_hits, jit0.cache_hits));
    m.insert(
        "jit.async_submits",
        per_op(jit1.async_submits, jit0.async_submits),
    );
    m.insert("jit.deopts", per_op(jit1.deopts, jit0.deopts));
    m.insert(
        "jit.native_installs",
        per_op(jit1.native_installs, jit0.native_installs),
    );
    m.insert(
        "jit.native_deopts",
        per_op(jit1.native_deopts, jit0.native_deopts),
    );
    m.insert("jit.trace_executions", t.vm.trace_executions as f64 / ops);
    m.insert("jit.native_executions", t.vm.native_executions as f64 / ops);
    m.insert(
        "jit.installs_per_native_execution",
        ratio(
            (jit1.native_installs - jit0.native_installs) as f64,
            t.vm.native_executions as f64,
        ),
    );
    let written = per_op(io1.bytes_written, io0.bytes_written);
    m.insert("storage.spill_bytes_written", written);
    m.insert(
        "storage.spill_bytes_read",
        per_op(io1.bytes_read, io0.bytes_read),
    );
    m.insert("storage.spill_amplification", ratio(written, input_bytes));

    m.insert("parallel.morsels", t.rollup_morsels as f64 / ops);
    m.insert(
        "parallel.stolen_share",
        ratio(t.stolen as f64, t.rollup_morsels as f64),
    );
    m.insert(
        "parallel.scratch_reuse_share",
        ratio(
            t.scratch_reused as f64,
            (t.scratch_reused + t.scratch_created) as f64,
        ),
    );
    m.insert("parallel.budget_charges", t.budget_charges as f64 / ops);
    m.insert("parallel.budget_refusals", t.budget_refusals as f64 / ops);
    m.insert("parallel.resizes", t.resizes as f64 / ops);
    m.insert("relational.reorders", t.reorders as f64 / ops);
    if let Some(s) = &t.spill {
        // `SpillStats` of the last traced operation (they repeat exactly).
        m.insert("relational.partitions_spilled", s.partitions_spilled as f64);
        m.insert("relational.runs_written", s.runs_written as f64);
        m.insert(
            "relational.max_recursion_depth",
            s.max_recursion_depth as f64,
        );
        m.insert("relational.forced_builds", s.forced_builds as f64);
    }
    m.insert("trace.events", t.events as f64 / ops);
    m.insert("trace.dropped", t.dropped as f64 / ops);
}

/// Self time per layer and the unattributed share, into `m`.
fn span_metrics(m: &mut Metrics, rec: &Recorder, ops: u64) -> Vec<(&'static str, f64)> {
    let ops = ops.max(1) as f64;
    let ranking: Vec<(&'static str, f64)> = rec
        .self_time_by_layer()
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / 1e6 / ops))
        .collect();
    for (layer, name) in spec::SPAN_LAYERS {
        let ms = ranking
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |r| r.1);
        m.insert(name, ms);
    }
    // Root spans are the harness's own; what they do not delegate to a
    // layer call is time the spans cannot attribute.
    let self_times = rec.self_times();
    let (mut root_self, mut root_total) = (0u64, 0u64);
    for (s, self_ns) in rec.spans().iter().zip(self_times) {
        if s.parent.is_none() {
            root_self += self_ns;
            root_total += s.duration_ns();
        }
    }
    m.insert(
        "trace.unattributed_share",
        ratio(root_self as f64, root_total as f64),
    );
    ranking
}

fn finish(
    m: Metrics,
    attempted: u64,
    failed: u64,
    ranking: Vec<(&'static str, f64)>,
    recorder: Recorder,
) -> Layers {
    Layers {
        metrics: spec::PER_LAYER
            .iter()
            .map(|(name, ..)| (*name, m.get(name).copied().unwrap_or(0.0)))
            .collect(),
        attempted,
        failed,
        self_time_ranking: ranking,
        recorder,
    }
}

pub fn run(workload: &str, env: Env, plan: Plan) -> Result<Layers, String> {
    if workload == "serve_mix" {
        run_serve_mix(env, plan)
    } else {
        run_closed(workload, env, plan)
    }
}

fn run_closed(workload: &str, env: Env, plan: Plan) -> Result<Layers, String> {
    let share = |s: f64| Duration::from_secs_f64(plan.seconds * s);
    let w = build_closed(workload, env)?;
    if !w.op(0, &mut OpCtx::untraced()).ok {
        return Err(format!(
            "{workload}: the first operation failed verification"
        ));
    }
    let mut next_op = 1;
    closed_pass(w.as_ref(), &mut next_op, plan.warmup / 2);

    // Untraced reference: the p50 every share below is relative to.
    let plain = closed_pass(w.as_ref(), &mut next_op, share(PLAIN_SHARE));
    if plain.latencies_ms.is_empty() {
        return Err(format!("{workload}: no operation completed untraced"));
    }
    let plain_p50_ms = plain.p50_ms();

    // Traced operations: one engine trace and one root span each.
    let mut rec = Recorder::new();
    let mut totals = Totals::default();
    let mut traced_ms = Vec::new();
    let jit0 = jit_counters();
    let io0 = io_counters();
    let started = Instant::now();
    while totals.ops == 0 || started.elapsed() < share(TRACED_SHARE) {
        let op = totals.ops as u32;
        let root_start = rec.now_ns();
        let root = rec.add(None, "bench", "operation", root_start..root_start, op, 0);
        let trace = Trace::new();
        let trace_epoch_ns = rec.now_ns();
        let mut ctx = OpCtx {
            trace: Some(&trace),
            spans: Some((&mut rec, root, op)),
            last_call: None,
        };
        let outcome = w.op(next_op, &mut ctx);
        let call = ctx.last_call;
        let end = rec.now_ns();
        rec.close(root, end);
        next_op += 1;
        totals.ops += 1;
        totals.wall_ns += end - root_start;
        if !outcome.ok {
            totals.failed += 1;
            continue;
        }
        traced_ms.push((end - root_start) as f64 / 1e6);

        let profile = trace.profile();
        totals.add_rollup(&profile.rollup());
        totals.events += profile.events.len() as u64;
        totals.dropped += profile.dropped;
        totals.add_vm(outcome.vm);
        totals.reorders += outcome.reorders.unwrap_or(0);
        if outcome.spill.is_some() {
            totals.spill = outcome.spill;
        }
        // The engine says when each morsel ran and on which worker; the
        // workload says whose code runs inside its morsels.
        for e in &profile.events {
            if let EventKind::Morsel { dur_ns, .. } = e.kind {
                let end_ns = trace_epoch_ns + e.ts_ns;
                rec.add(
                    call,
                    w.morsel_layer(),
                    "morsel",
                    end_ns.saturating_sub(dur_ns)..end_ns,
                    op,
                    e.lane + 1,
                );
            }
        }
    }

    let inputs = w.probe_inputs();
    let input_bytes: usize = inputs.scan.iter().map(|c| c.byte_size()).sum();
    let mut m = Metrics::new();
    counter_metrics(&mut m, &totals, jit0, io0, input_bytes as f64);
    let parallel = totals.rollup_morsels > 0;
    m.insert(
        "parallel.busy_share",
        ratio(
            totals.morsel_ns as f64,
            env.workers as f64 * totals.wall_ns as f64,
        ),
    );
    if !traced_ms.is_empty() {
        m.insert(
            "trace.overhead_share",
            (percentile(&traced_ms, 0.5) - plain_p50_ms) / plain_p50_ms,
        );
    }
    let ranking = span_metrics(&mut m, &rec, totals.ops);

    // The same operations on one worker and on every core (second
    // set-ups of the same seed): `1 worker p50 ÷ all-cores p50`.
    if parallel && env.cores > 1 {
        let p50_with = |workers: usize| -> Result<f64, String> {
            if workers == env.workers {
                return Ok(plain_p50_ms);
            }
            let other = build_closed(workload, Env { workers, ..env })?;
            let mut i = 0;
            closed_pass(other.as_ref(), &mut i, share(SINGLE_WORKER_SHARE) / 4);
            let pass = closed_pass(other.as_ref(), &mut i, share(SINGLE_WORKER_SHARE));
            if pass.latencies_ms.is_empty() {
                return Err(format!(
                    "{workload}: no operation completed on {workers} workers"
                ));
            }
            Ok(pass.p50_ms())
        };
        m.insert("parallel.speedup", p50_with(1)? / p50_with(env.cores)?);
    } else if parallel {
        m.insert("parallel.speedup", 1.0);
    }

    m.extend(probes::run_all(&inputs, env.workers, share(PROBE_SHARE)));
    if let Some(&ns_per_row) = m.get("ceiling.scalar_loop_ns_per_row") {
        // The hand-written loop split perfectly over the workers the
        // operation may use, against what the operation takes.
        let lanes = if parallel { env.workers } else { 1 };
        let ceiling_ms = ns_per_row * w.rows_per_op() as f64 / lanes as f64 / 1e6;
        m.insert("ceiling.e2e_share", ceiling_ms / plain_p50_ms);
    }
    if let Some(&agg_ms) = m.get("relational.agg_ms") {
        // HAVING filter + join back to `orders`: Q18 minus its aggregate.
        m.insert("relational.finish_ms", (plain_p50_ms - agg_ms).max(0.0));
    }
    Ok(finish(
        m,
        plain.attempted + totals.ops,
        plain.failed + totals.failed,
        ranking,
        rec,
    ))
}

/// Percentile `p` of `samples`, 0 when there is none.
fn p_ms(samples: Vec<f64>, p: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(&samples, p)
    }
}

fn run_serve_mix(env: Env, plan: Plan) -> Result<Layers, String> {
    let mix = ServeMix::setup(env)?;
    let secs = |share: f64| plan.seconds * share;
    let (capacity, rate) = calibrate_rate(&mix, env.seed, plan);

    let interactive_p50 = |run: &crate::openloop::OpenLoopRun<serve_mix::Outcome>| {
        p_ms(
            run.served
                .iter()
                .filter(|s| s.out.ok && s.arrival.class == serve_mix::INTERACTIVE)
                .map(|s| s.latency_ms())
                .collect(),
            0.5,
        )
    };
    let plain = serve_pass(&mix, env.seed, rate, secs(SERVE_PLAIN_SHARE), false);
    let plain_p50_ms = interactive_p50(&plain);

    // Traced pass at the offered rate: one engine trace per query.
    let stats0 = mix.service().stats();
    let jit0 = jit_counters();
    let io0 = io_counters();
    let run = serve_pass(
        &mix,
        env.seed.wrapping_add(1),
        rate,
        secs(SERVE_TRACED_SHARE),
        true,
    );
    let stats1 = mix.service().stats();

    let mut rec = Recorder::new();
    let epoch = rec.ns_at(run.started);
    let morsel_layer = ["vm", "kernels", "relational"];
    let call_name = ["q6_parallel", "q1_parallel_vectorized", "q18_parallel"];
    let mut totals = Totals::default();
    let mut queue_wait_ms = Vec::new();
    let mut input_bytes = 0.0;
    for (op, s) in run.served.iter().enumerate() {
        totals.ops += 1;
        if !s.out.ok {
            totals.failed += 1;
            continue;
        }
        let Some(t) = &s.out.traced else { continue };
        let class = s.arrival.class;
        let op = op as u32;
        let at = |ns: u64| epoch + ns;
        let root = rec.add(
            None,
            "bench",
            serve_mix::CLASS_NAMES[class],
            at(s.arrival.due_ns)..at(s.end_ns),
            op,
            0,
        );
        let call = rec.add(
            Some(root),
            "relational",
            call_name[class],
            at(s.start_ns)..at(s.end_ns),
            op,
            0,
        );
        // Admission → dispatch, placed at the start of the served call
        // (a query with several gated runs waits several times; the
        // rollup gives their sum).
        rec.add(
            Some(call),
            "serve",
            "queue_wait",
            at(s.start_ns)..at(s.start_ns + t.rollup.queue_wait_ns),
            op,
            0,
        );
        for &(lane, end_ns, dur_ns) in &t.morsels {
            let end_ns = at(s.start_ns + end_ns);
            rec.add(
                Some(call),
                morsel_layer[class],
                "morsel",
                end_ns.saturating_sub(dur_ns)..end_ns,
                op,
                lane + 1,
            );
        }
        totals.add_rollup(&t.rollup);
        totals.events += t.events;
        totals.dropped += t.dropped;
        totals.add_vm(t.vm);
        if class == serve_mix::INTERACTIVE {
            queue_wait_ms.push(t.rollup.queue_wait_ns as f64 / 1e6);
        }
        input_bytes += 8.0 * [4.0, 6.0, 2.0][class] * mix.rows_of(class) as f64;
    }
    totals.wall_ns = run.wall_ns;

    let mut m = Metrics::new();
    let ok_ops = (totals.ops - totals.failed).max(1) as f64;
    counter_metrics(&mut m, &totals, jit0, io0, input_bytes / ok_ops);
    let busy = ratio(
        totals.morsel_ns as f64,
        mix.workers as f64 * run.wall_ns as f64,
    );
    m.insert("parallel.busy_share", busy);
    m.insert("serve.worker_utilisation", busy);
    m.insert("serve.queue_wait_p50_ms", p_ms(queue_wait_ms.clone(), 0.5));
    m.insert("serve.queue_wait_p95_ms", p_ms(queue_wait_ms, 0.95));
    for (class, name) in [
        (serve_mix::NORMAL, "serve.latency_p95_ms.normal"),
        (serve_mix::BATCH, "serve.latency_p95_ms.batch"),
    ] {
        let latencies = run
            .served
            .iter()
            .filter(|s| s.out.ok && s.arrival.class == class)
            .map(|s| s.latency_ms())
            .collect();
        m.insert(name, p_ms(latencies, 0.95));
    }
    let (mut refused, mut shed) = (0, 0);
    for p in Priority::ALL {
        refused += stats1.priority(p).rejected() - stats0.priority(p).rejected();
        shed += stats1.priority(p).shed - stats0.priority(p).shed;
    }
    m.insert("serve.capacity_qps", capacity);
    m.insert("serve.offered_qps", rate);
    m.insert("serve.refused", refused as f64);
    m.insert("serve.shed", shed as f64);
    m.insert(
        "serve.generator_lag_p95_ms",
        p_ms(
            run.served.iter().map(|s| s.generator_lag_ms()).collect(),
            0.95,
        ),
    );
    m.insert(
        "trace.overhead_share",
        ratio(interactive_p50(&run) - plain_p50_ms, plain_p50_ms),
    );
    let ranking = span_metrics(&mut m, &rec, totals.ops - totals.failed);
    let attempted = (plain.served.len() + run.served.len()) as u64;
    let failed = plain.served.iter().filter(|s| !s.out.ok).count() as u64 + totals.failed;

    // The highest of a few multiples of the offered rate that holds the
    // Interactive p95 limit with no failure and no growing backlog.
    let mut rate_ok = 0.0;
    for (step, mult) in SWEEP_RATES.iter().enumerate() {
        let sweep = serve_pass(
            &mix,
            env.seed.wrapping_add(2 + step as u64),
            rate * mult,
            secs(SWEEP_SHARE),
            false,
        );
        let sweep_failed = sweep.served.iter().filter(|s| !s.out.ok).count();
        // Overload is expected at the top rates and tells nothing about
        // correctness, so sweep operations are not counted as attempted.
        let p95 = p_ms(
            sweep
                .served
                .iter()
                .filter(|s| s.out.ok && s.arrival.class == serve_mix::INTERACTIVE)
                .map(|s| s.latency_ms())
                .collect(),
            0.95,
        );
        if sweep_failed == 0
            && p95 <= serve_mix::LATENCY_LIMIT_MS
            && sweep.backlog_at_last_send <= BACKLOG_LIMIT
        {
            rate_ok = rate * mult;
        }
    }
    m.insert("serve.rate_ok_qps", rate_ok);

    let inputs = mix.probe_inputs();
    m.extend(probes::run_all(
        &inputs,
        env.workers,
        Duration::from_secs_f64(secs(SERVE_PROBE_SHARE)),
    ));
    Ok(finish(m, attempted, failed, ranking, rec))
}
