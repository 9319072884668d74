//! Integration tests for the VM's graceful-degradation paths: the paper's
//! "the remaining nodes can either be compiled or interpreted" (§III-B)
//! means every uncompilable shape must still execute correctly through
//! interpretation — with the adaptive machinery engaged, not bypassed.

use adaptvm::dsl::parser::parse_program;
use adaptvm::prelude::*;

fn run<'a>(
    src: &str,
    buffers: Buffers<'a>,
    strategy: Strategy,
) -> (Buffers<'a>, adaptvm::vm::RunReport) {
    let program = parse_program(src).unwrap();
    let config = VmConfig {
        strategy,
        hot_threshold: 2,
        chunk_size: 256,
        ..VmConfig::default()
    };
    Vm::new(config).run(&program, buffers).unwrap()
}

/// A merge skeleton inside the hot loop: the JIT cannot fuse it, so the
/// adaptive VM must record a fallback and interpret — with identical
/// results to pure interpretation.
#[test]
fn merge_regions_fall_back_to_interpretation() {
    let src = r#"
        mut i
        i := 0
        loop {
          let a = read i xs in {
            let b = read i ys in {
              let m = merge union a b in {
                write out i m
                i := i + len(a)
              }
            }
          }
          if i >= 2048 then { break }
        }
    "#;
    let sorted: Vec<i64> = (0..4096).collect();
    let mk = || {
        Buffers::new()
            .with_input("xs", Array::from(sorted.clone()))
            .with_input("ys", Array::from(sorted.clone()))
    };
    let (interp_out, _) = run(src, mk(), Strategy::Interpret);
    let (adaptive_out, report) = run(src, mk(), Strategy::Adaptive);
    assert_eq!(interp_out.output("out"), adaptive_out.output("out"));
    // The merge node could not be compiled.
    assert!(report.fallbacks > 0, "{report:?}");
    // But the (compilable) read regions may still have produced traces —
    // either way the run stayed correct, which is the §III-B contract.
}

/// String operations (excluded by the §III-B heuristics) stay interpreted
/// under the adaptive strategy and still compute correctly.
#[test]
fn string_ops_interpreted_under_adaptive() {
    let src = r#"
        mut i
        i := 0
        loop {
          let names = read i input_names in {
            let lens = map (\s -> strlen(s)) names in {
              write out i lens
              i := i + len(names)
            }
          }
          if i >= 1024 then { break }
        }
    "#;
    let names: Vec<String> = (0..2048).map(|i| "x".repeat(i % 7)).collect();
    let buffers = Buffers::new().with_input("input_names", Array::from(names.clone()));
    let (out, report) = run(src, buffers, Strategy::Adaptive);
    let expected: Vec<i64> = names[..1024].iter().map(|s| s.len() as i64).collect();
    assert_eq!(out.output("out").unwrap().to_i64_vec().unwrap(), expected);
    // No trace should cover the string map (it is an excluded class); the
    // run either compiled nothing or recorded it as unsupported.
    assert_eq!(report.trace_executions, 0, "{report:?}");
}

/// A captured scalar in a lambda (the SAXPY alpha) is uncompilable by the
/// trace builder; the adaptive VM interprets and matches the reference.
#[test]
fn captured_scalars_fall_back() {
    let src = r#"
        mut alpha
        mut i
        alpha := 7
        i := 0
        loop {
          let x = read i xs in {
            let y = map (\v -> alpha * v) x in {
              write out i y
              i := i + len(x)
            }
          }
          if i >= 2048 then { break }
        }
    "#;
    let data: Vec<i64> = (0..4096).collect();
    let buffers = Buffers::new().with_input("xs", Array::from(data.clone()));
    let (out, report) = run(src, buffers, Strategy::Adaptive);
    let expected: Vec<i64> = data[..2048].iter().map(|v| 7 * v).collect();
    assert_eq!(out.output("out").unwrap().to_i64_vec().unwrap(), expected);
    assert!(report.fallbacks > 0, "{report:?}");
}

/// Nested loops cannot be flattened into an iteration plan; the engine
/// falls back to whole-program interpretation and still terminates with
/// the right answer.
#[test]
fn nested_loops_interpret_whole_program() {
    let src = r#"
        mut i
        mut total
        i := 0
        total := 0
        loop {
          mut j
          j := 0
          loop {
            j := j + 1
            if j >= 3 then { break }
          }
          total := total + j
          i := i + 1
          if i >= 5 then { break }
        }
        let g = gen (\k -> k) total in {
          write out 0 g
        }
    "#;
    let (out, report) = run(src, Buffers::new(), Strategy::Adaptive);
    // total = 5 × 3 = 15 → gen produces [0, 15).
    assert_eq!(out.output("out").unwrap().len(), 15);
    assert_eq!(report.injected_traces, 0, "nested loops stay interpreted");
}

/// UCB policy through the VM behaves like the ε-greedy one (correctness is
/// policy-independent).
#[test]
fn ucb_policy_equivalent_results() {
    let src = r#"
        mut i
        mut k
        i := 0
        k := 0
        loop {
          let x = read i xs in {
            let t = filter (\v -> v > 100) x in {
              let b = condense t in {
                write kept k b
                i := i + len(x)
                k := k + len(b)
              }
            }
          }
          if i >= 4096 then { break }
        }
    "#;
    let data: Vec<i64> = (0..8192).map(|i| (i * 31) % 400).collect();
    let program = parse_program(src).unwrap();
    let expected: Vec<i64> = data[..4096].iter().copied().filter(|&v| v > 100).collect();
    for mut policy in [
        BanditPolicy::epsilon_greedy(0.1, 5),
        BanditPolicy::ucb(1.5, 5),
    ] {
        let config = VmConfig {
            strategy: Strategy::Interpret,
            chunk_size: 256,
            ..VmConfig::default()
        };
        let vm = Vm::new(config);
        let buffers = Buffers::new().with_input("xs", Array::from(data.clone()));
        let (out, _) = vm.run_with_policy(&program, buffers, &mut policy).unwrap();
        assert_eq!(out.output("kept").unwrap().to_i64_vec().unwrap(), expected);
    }
}

/// Regression: a trace that fails recoverably on a *partial final chunk*
/// must resume through the rebuilt plan — including scalar alias
/// statements interleaved between the region's nodes. (Previously the
/// fallback interpreted the covered nodes back-to-back, skipping the
/// aliases, so downstream nodes consumed stale full-chunk values and the
/// run died with a length mismatch.)
#[test]
fn recoverable_trace_failure_on_partial_final_chunk() {
    use adaptvm::relational::tpch;
    // 1664 = 1024 + 640: the second (and last) chunk is partial, and with
    // hot_threshold=2 injection lands exactly on it.
    for n in [1664usize, 1700, 2048, 2600] {
        let t = tpch::lineitem(n, 1);
        let reference = tpch::q6_reference(&t, 1000);
        for hot in [2u64, 3] {
            let config = VmConfig {
                strategy: Strategy::Adaptive,
                hot_threshold: hot,
                ..VmConfig::default()
            };
            let (out, _) = Vm::new(config)
                .run(&tpch::q6_program(n as i64, 1000), tpch::q6_buffers(&t))
                .unwrap_or_else(|e| panic!("n={n} hot={hot}: {e:?}"));
            let rev = out.output("revenue").unwrap().as_f64().unwrap()[0];
            assert!(
                (rev - reference).abs() / reference.abs().max(1.0) < 1e-9,
                "n={n} hot={hot}: {rev} vs {reference}"
            );
        }
    }
}
