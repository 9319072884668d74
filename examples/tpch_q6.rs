//! TPC-H Q6 end to end through the adaptive VM.
//!
//! The revenue query (`sum(price·discount)` under a 4-column predicate) is
//! expressed in the DSL, normalized, and executed three ways: vectorized
//! interpretation, HyPer-style whole-pipeline compilation, and the Fig. 1
//! adaptive state machine. The adaptive run starts interpreted and
//! switches to a fused trace once the loop is hot: Q6's §III-B regions tile
//! its loop body, so that is the one whole-body trace the compiled pipeline
//! runs. The example asserts both: every strategy's revenue matches the
//! reference, and the adaptive run injects exactly one trace.
//!
//! ```sh
//! cargo run --release --example tpch_q6
//! ```

use adaptvm::prelude::*;
use adaptvm::relational::tpch;
use std::time::Instant;

fn main() {
    let rows = 2_000_000;
    println!("generating lineitem with {rows} rows …");
    let table = tpch::lineitem(rows, 42);
    let expected = tpch::q6_reference(&table, 1000);
    println!("reference revenue: {expected:.2}\n");

    println!(
        "{:<20} {:>12} {:>14} {:>12} {:>10}",
        "strategy", "wall ms", "compile ms", "traces", "rev ok"
    );
    for strategy in [
        Strategy::Interpret,
        Strategy::CompiledPipeline,
        Strategy::Adaptive,
    ] {
        let config = VmConfig {
            strategy,
            hot_threshold: 8,
            cost_model: CostModel::default(),
            ..VmConfig::default()
        };
        let vm = Vm::new(config);
        let program = tpch::q6_program(rows as i64, 1000);
        let t0 = Instant::now();
        let (out, report) = vm.run(&program, tpch::q6_buffers(&table)).expect("q6 runs");
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let rev = out
            .output("revenue")
            .expect("written")
            .as_f64()
            .expect("f64")[0];
        let ok = (rev - expected).abs() / expected.abs().max(1.0) < 1e-9;
        println!(
            "{:<20} {:>12.2} {:>14.2} {:>12} {:>10}",
            format!("{strategy:?}"),
            wall,
            report.compile_ns_total as f64 / 1e6,
            report.injected_traces,
            ok
        );
        assert!(
            ok,
            "{strategy:?}: revenue {rev} differs from the reference {expected}"
        );
        if strategy == Strategy::Adaptive {
            assert_eq!(
                report.injected_traces, 1,
                "adaptive Q6 must converge to one trace: {report:?}"
            );
        }
    }

    println!("\nQ1 (three engine styles over the same data):");
    let t0 = Instant::now();
    let vec_rows = tpch::q1_vectorized(&table, 1024);
    let t_vec = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let fused_rows = tpch::q1_fused(&table);
    let t_fused = t0.elapsed().as_secs_f64() * 1e3;
    let compact = tpch::CompactLineitem::from_table(&table); // load-time narrowing
    let t0 = Instant::now();
    let adaptive_rows = tpch::q1_adaptive(&compact, 1024);
    let t_adaptive = t0.elapsed().as_secs_f64() * 1e3;
    println!("  vectorized (X100-style)      : {t_vec:>8.2} ms");
    println!("  fused (HyPer-style codegen)  : {t_fused:>8.2} ms");
    println!("  adaptive (compact + preagg)  : {t_adaptive:>8.2} ms");
    assert!(tpch::q1_results_match(&fused_rows, &vec_rows));
    assert!(tpch::q1_results_match(&fused_rows, &adaptive_rows));
    println!("  all three agree on {} groups ✓", fused_rows.len());
}
