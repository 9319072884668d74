//! B14 — the first engine-wide perf snapshot plus the tracing overhead
//! contract.
//!
//! Two parts:
//! * the **disabled-path overhead** micro-bench: with no live
//!   [`Trace`](adaptvm_parallel::Trace) anywhere, every `obs::emit`
//!   site must cost one relaxed atomic load and a predictable branch.
//!   Measured directly (median of five trials over a tight emit loop)
//!   and **asserted** under [`DISABLED_EMIT_BOUND_NS`] — the bound the
//!   `obs` module docs promise. A criterion pair (`emit_disabled` vs
//!   `baseline`) shows the same loop with and without the event site.
//! * a **five-query perf snapshot**: Q1/Q3/Q6/Q18/Q9 through the
//!   parallel relational entry points — Q6 and Q18's HAVING leg through
//!   the adaptive VM (JIT activity), Q18 under a spill-forcing 4 kB
//!   budget (spill traffic) — recording queries/sec, p50/p99 latency,
//!   spill bytes and JIT compile/cache-hit deltas per query. The run is
//!   written to `BENCH_engine.json` at the
//!   workspace root alongside `BENCH_serving.json`: the
//!   ROADMAP-item-5 trajectory point.
//!
//! `ADAPTVM_BENCH_QUICK=1` shrinks everything to a CI smoke run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use adaptvm_parallel::{obs, EventKind, MemoryBudget};
use adaptvm_relational::parallel::{
    q18_parallel_vm, q1_parallel_vectorized, q3_parallel, q6_parallel, q9_parallel, ParallelOpts,
};
use adaptvm_relational::tpch::{self, KeyDist};
use adaptvm_storage::DEFAULT_CHUNK;
use adaptvm_vm::{Strategy, VmConfig};

fn quick() -> bool {
    std::env::var_os("ADAPTVM_BENCH_QUICK").is_some()
}

/// The asserted ceiling on one disabled `obs::emit` call, loop overhead
/// included. The real cost is a relaxed load and a branch (~1 ns); the
/// slack absorbs slow shared CI hardware without ever excusing a lock,
/// a TLS read, or an allocation on the disabled path.
const DISABLED_EMIT_BOUND_NS: f64 = 25.0;

/// Nanoseconds per iteration of a tight loop around one disabled event
/// site. Must run while no `Trace` is live anywhere in the process.
fn disabled_emit_ns(iters: u64) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        obs::emit(black_box(EventKind::JitCacheHit));
        black_box(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// One query's figures for the snapshot table and `BENCH_engine.json`.
struct QueryReport {
    name: &'static str,
    rows: usize,
    reps: usize,
    qps: f64,
    p50: Duration,
    p99: Duration,
    spill_bytes_written: u64,
    spill_bytes_read: u64,
    jit_compiles: u64,
    jit_cache_hits: u64,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run `f` once as a warmup, then `reps` timed repetitions bracketed
/// with the process-wide JIT and spill-I/O counters so each query's
/// engine activity is attributed to it.
fn snapshot<F: FnMut()>(name: &'static str, rows: usize, reps: usize, mut f: F) -> QueryReport {
    f();
    let jit0 = adaptvm_vm::jit_counters();
    let io0 = adaptvm_storage::spill::io_counters();
    let mut times = Vec::with_capacity(reps);
    let wall = Instant::now();
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed());
    }
    let wall = wall.elapsed().as_secs_f64();
    let jit1 = adaptvm_vm::jit_counters();
    let io1 = adaptvm_storage::spill::io_counters();
    times.sort();
    QueryReport {
        name,
        rows,
        reps,
        qps: reps as f64 / wall.max(1e-9),
        p50: percentile(&times, 0.50),
        p99: percentile(&times, 0.99),
        spill_bytes_written: io1.bytes_written - io0.bytes_written,
        spill_bytes_read: io1.bytes_read - io0.bytes_read,
        jit_compiles: jit1.compiles - jit0.compiles,
        jit_cache_hits: jit1.cache_hits - jit0.cache_hits,
    }
}

fn bench(c: &mut Criterion) {
    // Part 1: the disabled-path overhead contract. Runs first, before
    // any Trace exists, so the global active-gate is provably zero.
    let iters: u64 = if quick() { 2_000_000 } else { 20_000_000 };
    let mut trials: Vec<f64> = (0..5).map(|_| disabled_emit_ns(iters)).collect();
    trials.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let emit_ns = trials[trials.len() / 2];
    println!(
        "\n-- engine: disabled-path emit overhead\n   {emit_ns:.2} ns/emit \
         (median of 5 × {iters} iters; bound {DISABLED_EMIT_BOUND_NS} ns)"
    );
    assert!(
        emit_ns < DISABLED_EMIT_BOUND_NS,
        "disabled obs::emit cost {emit_ns:.2} ns/site exceeds the \
         {DISABLED_EMIT_BOUND_NS} ns contract — the disabled path must stay \
         one relaxed load and a branch"
    );

    let mut g = c.benchmark_group("obs_emit");
    g.sample_size(10);
    g.bench_function("emit_disabled", |b| {
        b.iter(|| {
            for i in 0..10_000u64 {
                obs::emit(black_box(EventKind::JitCacheHit));
                black_box(i);
            }
        })
    });
    g.bench_function("baseline", |b| {
        b.iter(|| {
            for i in 0..10_000u64 {
                black_box(i);
            }
        })
    });
    g.finish();

    // Part 2: the five-query snapshot.
    let scale = if quick() { 1usize } else { 10 };
    let reps = if quick() { 5usize } else { 20 };
    let workers = 4;

    let mut reports = Vec::new();

    // Q1: vectorized scan-aggregate, chunk-ordered merge.
    let li_q1 = tpch::lineitem(40_000 * scale, 42);
    let q1_rows = li_q1.rows();
    reports.push(snapshot("q1", q1_rows, reps, || {
        let rows = q1_parallel_vectorized(&li_q1, DEFAULT_CHUNK, ParallelOpts::new(workers, 8_192))
            .expect("q1 runs");
        assert!(!rows.is_empty());
        black_box(rows);
    }));

    // Q3: partitioned-build hash join with a Bloom pre-filter.
    let ord_q3 = tpch::orders(4_000 * scale, 77);
    let li_q3 = tpch::lineitem_q3(30_000 * scale, 4_000 * scale, 77);
    let date = tpch::SHIPDATE_MAX / 2;
    reports.push(snapshot("q3", li_q3.rows(), reps, || {
        let (rev, _) = q3_parallel(
            &li_q3,
            &ord_q3,
            date,
            tpch::JoinStrategy::Adaptive,
            DEFAULT_CHUNK,
            true,
            ParallelOpts::new(workers, 8_192),
        )
        .expect("q3 runs");
        black_box(rev);
    }));

    // Q6: the full adaptive VM per morsel — exercises the JIT.
    let li_q6 = tpch::lineitem(40_000 * scale, 7);
    let q6_reference = tpch::q6_reference(&li_q6, 1000);
    reports.push(snapshot("q6", li_q6.rows(), reps, || {
        let config = VmConfig {
            strategy: Strategy::Adaptive,
            ..VmConfig::default()
        };
        let (rev, _) =
            q6_parallel(&li_q6, 1000, config, ParallelOpts::new(workers, 8_192)).expect("q6 runs");
        assert!(
            (rev - q6_reference).abs() / q6_reference.abs().max(1.0) < 1e-9,
            "q6 diverged: {rev} vs {q6_reference}"
        );
        black_box(rev);
    }));

    // Q18: spillable group-by under a 4 kB budget + the HAVING clause
    // through the adaptive VM — spill traffic and JIT in one query.
    let ord_q18 = tpch::orders(256, 7);
    let li_q18 = tpch::lineitem_q18(30_000 * scale, 256, KeyDist::Zipf, 11);
    let budget = MemoryBudget::bytes(4_000);
    reports.push(snapshot("q18", li_q18.rows(), reps, || {
        let config = VmConfig {
            chunk_size: 64,
            strategy: Strategy::Adaptive,
            hot_threshold: 2,
            ..VmConfig::default()
        };
        let (rows, spill) = q18_parallel_vm(
            &li_q18,
            &ord_q18,
            900.0,
            config,
            ParallelOpts::new(workers, 8_192).with_budget(&budget),
        )
        .expect("q18 runs");
        assert!(spill.spilled(), "the 4 kB budget must force spilling");
        black_box(rows);
    }));

    // Q9: three-way mixed-key adaptive join chain under the reorder
    // controller.
    let q9 = tpch::q9_data(16_000 * scale, 200, 64, 8, KeyDist::Zipf, 23);
    let q9_rows = q9.l_partkey.len();
    reports.push(snapshot("q9", q9_rows, reps, || {
        let (rows, _) =
            q9_parallel(&q9, 2_048, true, 2, ParallelOpts::new(workers, 8_192)).expect("q9 runs");
        assert!(!rows.is_empty());
        black_box(rows);
    }));

    let q18_report = reports.iter().find(|r| r.name == "q18").unwrap();
    assert!(
        q18_report.spill_bytes_written > 0 && q18_report.spill_bytes_read > 0,
        "q18 snapshot must show spill traffic"
    );
    assert!(
        q18_report.jit_compiles + q18_report.jit_cache_hits > 0,
        "q18's VM HAVING leg must show JIT activity"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n-- engine: five-query perf snapshot ({workers} workers requested, {cores} cores)");
    println!(
        "   {:<5} {:>9} {:>5} {:>9} {:>9} {:>9}  {:>11} {:>11} {:>5} {:>5}",
        "query",
        "rows",
        "reps",
        "q/s",
        "p50 ms",
        "p99 ms",
        "spill out B",
        "spill in B",
        "jit",
        "hits"
    );
    for r in &reports {
        println!(
            "   {:<5} {:>9} {:>5} {:>9.2} {:>9.2} {:>9.2}  {:>11} {:>11} {:>5} {:>5}",
            r.name,
            r.rows,
            r.reps,
            r.qps,
            r.p50.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
            r.spill_bytes_written,
            r.spill_bytes_read,
            r.jit_compiles,
            r.jit_cache_hits,
        );
    }

    // Machine-readable dump: the ROADMAP-item-5 trajectory point.
    let mut json = String::from("{\n  \"bench\": \"engine\",\n");
    let _ = writeln!(json, "  \"quick\": {},", quick());
    let _ = writeln!(json, "  \"disabled_emit_ns\": {emit_ns:.3},");
    let _ = writeln!(
        json,
        "  \"disabled_emit_bound_ns\": {DISABLED_EMIT_BOUND_NS:.1},"
    );
    json.push_str("  \"queries\": [\n");
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"rows\":{},\"reps\":{},\
                 \"queries_per_second\":{:.2},\
                 \"p50_ms\":{:.3},\"p99_ms\":{:.3},\
                 \"spill_bytes_written\":{},\"spill_bytes_read\":{},\
                 \"jit_compiles\":{},\"jit_cache_hits\":{}}}",
                r.name,
                r.rows,
                r.reps,
                r.qps,
                r.p50.as_secs_f64() * 1e3,
                r.p99.as_secs_f64() * 1e3,
                r.spill_bytes_written,
                r.spill_bytes_read,
                r.jit_compiles,
                r.jit_cache_hits,
            )
        })
        .collect();
    let _ = writeln!(json, "    {}", rows.join(",\n    "));
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("   wrote {path}"),
        Err(e) => println!("   could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
