//! Morsel-parallel partitioned hash joins: the Q3-style
//! `lineitem ⋈ orders` revenue query in all three probe strategies,
//! swept over worker counts, plus the adaptive join chain probed
//! morsel-parallel.
//!
//! Run with: `cargo run --release --example parallel_join [rows] [--scheduler]`
//!
//! Default mode spawns a scoped thread pool per run; `--scheduler` routes
//! every join through ONE long-lived worker pool per worker count.
//!
//! Prints per-strategy wall times and speedups, the two-phase
//! (build/probe) dispatch stats, and verifies that every parallel result
//! is bit-identical to the sequential engine (exact integer fixed-point
//! revenue — the strongest rung of the exactness ladder) and every chain
//! batch to a one-worker run of the same chain. Worker counts
//! printed are the executing pool's own; real speedups additionally need
//! that many hardware cores (see the `available cores` line — on a
//! single-core container every sweep degenerates to ~1×).

use std::time::Instant;

use adaptvm::parallel::Scheduler;
use adaptvm::relational::join::HashTable;
use adaptvm::relational::parallel::{q3_parallel, ParallelJoinChain, ParallelOpts};
use adaptvm::relational::tpch::{self, JoinStrategy};
use adaptvm::storage::{Array, DEFAULT_CHUNK};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scheduler_mode = args.iter().any(|a| a == "--scheduler");
    let rows: usize = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let n_orders = (rows / 4).max(1);
    let workers_sweep = [1usize, 2, 4, 8];
    let morsel_rows = 16 * DEFAULT_CHUNK;
    let date = tpch::SHIPDATE_MAX / 2;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("generating lineitem ({rows} rows) ⋈ orders ({n_orders} rows)…");
    println!(
        "mode: {}  ·  available cores: {cores}{}",
        if scheduler_mode {
            "long-lived scheduler"
        } else {
            "scoped pool per run"
        },
        if cores < 4 {
            "  (too few for real speedups — timings verify overhead only)"
        } else {
            ""
        }
    );
    let lineitem = tpch::lineitem_q3(rows, n_orders, 42);
    let orders = tpch::orders(n_orders, 42);
    let reference = tpch::q3_reference(&lineitem, &orders, date);

    let pools: Vec<Scheduler> = if scheduler_mode {
        workers_sweep.iter().map(|&w| Scheduler::new(w)).collect()
    } else {
        Vec::new()
    };
    let opts_for = |i: usize, workers: usize| {
        if scheduler_mode {
            ParallelOpts::new(workers, morsel_rows).with_scheduler(&pools[i])
        } else {
            ParallelOpts::new(workers, morsel_rows)
        }
    };

    for (name, strategy) in [
        ("vectorized", JoinStrategy::Vectorized),
        ("fused", JoinStrategy::Fused),
        ("adaptive", JoinStrategy::Adaptive),
    ] {
        let t0 = Instant::now();
        let seq = tpch::q3_hash(&lineitem, &orders, date, strategy, DEFAULT_CHUNK, true)
            .expect("sequential q3");
        let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            (seq - reference).abs() / reference.abs().max(1.0) < 1e-9,
            "sequential {name} diverged from the reference"
        );
        println!("\n== parallel Q3 ({name}), morsel = {morsel_rows} rows");
        println!("   sequential: {seq_ms:8.2} ms  (revenue {seq:.2})");
        for (i, workers) in workers_sweep.into_iter().enumerate() {
            let opts = opts_for(i, workers);
            let pool_workers = opts.effective_workers();
            let t0 = Instant::now();
            let (rev, stats) = q3_parallel(
                &lineitem,
                &orders,
                date,
                strategy,
                DEFAULT_CHUNK,
                true,
                opts,
            )
            .expect("parallel q3");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(rev.to_bits(), seq.to_bits(), "diverged!");
            // `stats.probe.executed` has one slot per pool worker — the
            // pool the probe actually ran on.
            assert_eq!(stats.probe.executed.len(), pool_workers);
            println!(
                "   {pool_workers} pool worker(s): {ms:8.2} ms  (speedup {:.2}×)  build {}m/{}st  probe {}m/{}st",
                seq_ms / ms,
                stats.build_morsels,
                stats.build.steals,
                stats.probe_morsels,
                stats.probe.steals,
            );
        }
    }

    // The adaptive join chain, probed morsel-parallel: the selective join
    // (small build side) should lead after a few batches, with per-join
    // stats merged across morsels before every reorder decision.
    println!("\n== parallel adaptive join chain (wide ⋈ selective)");
    let build = |n: i64| {
        let keys: Vec<i64> = (0..n).collect();
        HashTable::build(
            &Array::from(keys.clone()),
            &Array::from(keys.iter().map(|k| k * 3).collect::<Vec<_>>()),
        )
        .expect("integer build")
        .with_bloom()
    };
    let span = rows.min(200_000);
    let probes: Vec<i64> = (0..span as i64).map(|i| i % (span as i64 / 2)).collect();
    let keys = [probes.clone(), probes.clone()];
    // Eight batches of the chain; every batch's survivors and payload
    // sums must equal the one-worker run's, whatever order each run
    // learned.
    let new_chain =
        || ParallelJoinChain::new(vec![build(span as i64 / 2), build(span as i64 / 20)], 2);
    let probe_batches = |chain: &mut ParallelJoinChain, opts: ParallelOpts<'_>| {
        (0..8)
            .map(|_| chain.probe_batch(&keys, opts).expect("chain probe"))
            .collect::<Vec<_>>()
    };
    let one_worker = probe_batches(&mut new_chain(), ParallelOpts::new(1, morsel_rows));
    for (i, workers) in workers_sweep.into_iter().enumerate() {
        let opts = opts_for(i, workers);
        let pool_workers = opts.effective_workers();
        let mut chain = new_chain();
        let t0 = Instant::now();
        let batches = probe_batches(&mut chain, opts);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        for (b, (got, want)) in batches.iter().zip(&one_worker).enumerate() {
            assert_eq!(got.indices, want.indices, "batch {b}: survivors diverged!");
            assert_eq!(
                got.payload_sum, want.payload_sum,
                "batch {b}: payloads diverged!"
            );
        }
        let survivors = batches.last().map_or(0, |r| r.indices.len());
        println!(
            "   {pool_workers} pool worker(s): {ms:8.2} ms  order {:?}  reorders {}  survivors {survivors}",
            chain.order(),
            chain.reorders(),
        );
    }

    if scheduler_mode {
        println!("\n== scheduler lifetime stats");
        for (pool, workers) in pools.iter().zip(workers_sweep) {
            let stats = pool.stats();
            println!(
                "   {workers}-worker pool: {} queries, {} morsels",
                stats.queries_completed, stats.morsels_executed
            );
        }
    }

    println!("\nall parallel joins agree with the single-threaded engine ✓");
}
