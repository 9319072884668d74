//! The end-to-end pass: set-up (repeated, median reported), a discarded
//! warm-up, then operations back to back for `--seconds` with no `Trace`
//! alive anywhere. The timed operations are cut into rounds of
//! [`ROUND_OPS`] consecutive operations; percentiles are nearest-rank per
//! round, and the reported value is the quartile of the rounds on the
//! fast side ([`crate::stats::fast_quartile`]).

use std::time::{Duration, Instant};

use crate::openloop::{poisson_schedule, run_open_loop, saturated_rate, Arrival, OpenLoopRun};
use crate::spec::Better;
use crate::stats::{fast_quartile, median, percentile};
use crate::workloads::serve_mix::{self, ServeMix};
use crate::workloads::{build_closed, Closed, Env, OpCtx};

/// Operations per round: the p95 of 200 samples leaves ten beyond it.
pub const ROUND_OPS: usize = 200;
/// Discarded warm-up before the first timed operation (a probe on the
/// reference box shows Q1's p50 at 5.3 ms over its first 200 runs and
/// 3.5 ms afterwards).
pub const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per run: at least this many, and more until `SETUP_BUDGET` is
/// spent; `setup_s` is their median (a 3 ms set-up needs many
/// repetitions to read steadily, a 60 ms one few).
pub const SETUPS: usize = 5;
pub const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// How long and how often a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seconds: f64,
    pub round_ops: usize,
    pub warmup: Duration,
    pub setups: usize,
}

impl Plan {
    pub fn new(seconds: f64, smoke: bool) -> Plan {
        if smoke {
            Plan {
                seconds,
                round_ops: ROUND_OPS / 10,
                warmup: Duration::from_millis(100),
                setups: 1,
            }
        } else {
            Plan {
                seconds,
                round_ops: ROUND_OPS,
                warmup: WARMUP,
                setups: SETUPS,
            }
        }
    }
}

/// What an end-to-end pass measured.
pub struct EndToEnd {
    /// Every end-to-end metric, in `spec::END_TO_END` order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples per timed round.
    pub samples_per_round: Vec<usize>,
    /// Median and p95 latency of each timed round, milliseconds.
    pub p50_per_round: Vec<f64>,
    pub p95_per_round: Vec<f64>,
}

/// One stretch of closed-loop operations.
#[derive(Default)]
pub struct Pass {
    /// Latency of every operation that completed and verified.
    pub latencies_ms: Vec<f64>,
    /// When each of those operations ended, seconds after the pass began.
    pub ends_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Pass {
    pub fn p50_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 0.5)
    }
}

/// Issue operations back to back for `duration` (at least one).
pub fn closed_pass(w: &dyn Closed, next_op: &mut u64, duration: Duration) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let outcome = w.op(*next_op, &mut OpCtx::untraced());
        let elapsed = t.elapsed();
        *next_op += 1;
        pass.attempted += 1;
        if outcome.ok {
            pass.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
            pass.ends_s.push(start.elapsed().as_secs_f64());
        } else {
            pass.failed += 1;
        }
        if start.elapsed() >= duration {
            break;
        }
    }
    pass
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timed round: the latencies of its operations and the input rows
/// they read per second of the round's wall time.
pub struct Round {
    pub latencies_ms: Vec<f64>,
    pub rows_per_s: f64,
}

/// Cut `n` samples into rounds of `round_ops`: index ranges. A tail shorter
/// than a round is dropped — unless it is all there is, and then it is the
/// one round.
pub fn round_ranges(n: usize, round_ops: usize) -> Vec<std::ops::Range<usize>> {
    let round_ops = round_ops.clamp(1, n.max(1));
    (0..n / round_ops)
        .map(|r| r * round_ops..(r + 1) * round_ops)
        .collect()
}

fn finish(
    rounds: &[Round],
    setup_s: &[f64],
    attempted: u64,
    failed: u64,
) -> Result<EndToEnd, String> {
    if rounds.iter().all(|r| r.latencies_ms.is_empty()) {
        return Err("no operation completed in the timed rounds".into());
    }
    let per_round = |p: f64| -> Vec<f64> {
        rounds
            .iter()
            .map(|r| percentile(&r.latencies_ms, p))
            .collect()
    };
    let p50_per_round = per_round(0.50);
    let p95_per_round = per_round(0.95);
    let rows_per_round: Vec<f64> = rounds.iter().map(|r| r.rows_per_s).collect();
    Ok(EndToEnd {
        metrics: vec![
            (
                "latency_p50_ms",
                fast_quartile(&p50_per_round, Better::Lower),
            ),
            (
                "latency_p95_ms",
                fast_quartile(&p95_per_round, Better::Lower),
            ),
            ("rows_per_s", fast_quartile(&rows_per_round, Better::Higher)),
            ("setup_s", median(setup_s)),
            ("peak_rss_mb", peak_rss_mb()),
        ],
        attempted,
        failed,
        samples_per_round: rounds.iter().map(|r| r.latencies_ms.len()).collect(),
        p50_per_round,
        p95_per_round,
    })
}

/// Set-up, repeated: data from the seed, the oracle's answer, executors,
/// and the first (cold) verified operation. The previous state is dropped
/// before the next is built, so the memory peak holds one copy.
fn repeat_setup<T>(
    plan: Plan,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut state = None;
    let mut setup_s = Vec::new();
    let started = Instant::now();
    while setup_s.len() < plan.setups
        || (plan.setups > 1 && started.elapsed() < SETUP_BUDGET && setup_s.len() < 1000)
    {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), setup_s))
}

pub fn run(workload: &str, env: Env, plan: Plan) -> Result<EndToEnd, String> {
    if workload == "serve_mix" {
        run_serve_mix(env, plan)
    } else {
        run_closed(workload, env, plan)
    }
}

fn run_closed(workload: &str, env: Env, plan: Plan) -> Result<EndToEnd, String> {
    let (w, setup_s) = repeat_setup(plan, || {
        let w = build_closed(workload, env)?;
        if !w.op(0, &mut OpCtx::untraced()).ok {
            return Err(format!(
                "{workload}: the first operation failed verification"
            ));
        }
        Ok(w)
    })?;

    let mut next_op = 1;
    closed_pass(w.as_ref(), &mut next_op, plan.warmup);
    let pass = closed_pass(
        w.as_ref(),
        &mut next_op,
        Duration::from_secs_f64(plan.seconds),
    );

    // Operations run back to back, so a round lasts from the end of the
    // round before it to the end of its own last operation.
    let rounds: Vec<Round> = round_ranges(pass.latencies_ms.len(), plan.round_ops)
        .into_iter()
        .map(|range| {
            let began_s = range.start.checked_sub(1).map_or(0.0, |i| pass.ends_s[i]);
            let wall_s = pass.ends_s[range.end - 1] - began_s;
            Round {
                rows_per_s: (range.len() as u64 * w.rows_per_op()) as f64 / wall_s,
                latencies_ms: pass.latencies_ms[range].to_vec(),
            }
        })
        .collect();
    finish(&rounds, &setup_s, pass.attempted, pass.failed)
}

/// Seed of the discarded warm-up (any value other than the timed
/// schedule's).
const WARMUP_SEED_MASK: u64 = 0x5eed_0000_0000_0000;

/// One untraced open-loop stretch at `rate_qps`.
pub fn serve_pass(
    mix: &ServeMix,
    seed: u64,
    rate_qps: f64,
    seconds: f64,
    traced: bool,
) -> OpenLoopRun<serve_mix::Outcome> {
    let schedule = poisson_schedule(seed, rate_qps, seconds, &serve_mix::MIX);
    run_open_loop(&schedule, serve_mix::CLIENTS, |a| mix.serve(a, traced))
}

/// The discarded warm-up of `serve_mix`, which doubles as calibration:
/// saturate the service for twice the closed loops' warm-up (4 s: sixteen
/// slices of 0.25 s)
/// and return `(capacity, offered rate)` in queries per second.
pub fn calibrate_rate(mix: &ServeMix, seed: u64, plan: Plan) -> (f64, f64) {
    let capacity = saturated_rate(
        seed ^ WARMUP_SEED_MASK,
        serve_mix::SATURATING_CLIENTS,
        2.0 * plan.warmup.as_secs_f64(),
        &serve_mix::MIX,
        |a| {
            mix.serve(a, false);
        },
    );
    (capacity, capacity * serve_mix::LOAD_SHARE)
}

fn run_serve_mix(env: Env, plan: Plan) -> Result<EndToEnd, String> {
    let (mix, setup_s) = repeat_setup(plan, || {
        let mix = ServeMix::setup(env)?;
        for class in 0..serve_mix::MIX.len() {
            let first = Arrival { due_ns: 0, class };
            if !mix.serve(&first, false).ok {
                return Err(format!(
                    "serve_mix: the first {} query failed verification",
                    serve_mix::CLASS_NAMES[class]
                ));
            }
        }
        Ok(mix)
    })?;
    let (capacity, rate) = calibrate_rate(&mix, env.seed, plan);
    println!("# capacity {capacity:.1} queries/s, offered {rate:.1} queries/s");
    let run = serve_pass(&mix, env.seed, rate, plan.seconds, false);

    // Latency is over Interactive queries only (the other classes are
    // layer metrics); a round is `round_ops` consecutive ones of them, in
    // schedule order. The open loop's throughput is the offered load, so
    // every round reports the whole run's.
    let (mut rows, mut failed) = (0, 0);
    let mut interactive_ms = Vec::new();
    for s in &run.served {
        if !s.out.ok {
            failed += 1;
            continue;
        }
        rows += mix.rows_of(s.arrival.class);
        if s.arrival.class == serve_mix::INTERACTIVE {
            interactive_ms.push(s.latency_ms());
        }
    }
    let rows_per_s = rows as f64 / (run.wall_ns as f64 / 1e9);
    let rounds: Vec<Round> = round_ranges(interactive_ms.len(), plan.round_ops)
        .into_iter()
        .map(|range| Round {
            latencies_ms: interactive_ms[range].to_vec(),
            rows_per_s,
        })
        .collect();
    finish(&rounds, &setup_s, run.served.len() as u64, failed)
}

#[cfg(test)]
mod tests {
    use super::round_ranges;

    #[test]
    fn rounds_are_whole_and_the_short_tail_is_dropped() {
        assert_eq!(round_ranges(450, 200), [0..200, 200..400]);
        assert_eq!(round_ranges(400, 200), [0..200, 200..400]);
    }

    #[test]
    fn no_sample_no_round() {
        assert!(round_ranges(0, 200).is_empty());
    }

    #[test]
    fn a_run_shorter_than_a_round_is_one_round() {
        let rounds = round_ranges(37, 200);
        assert_eq!((rounds.len(), rounds[0].clone()), (1, 0..37));
    }
}
