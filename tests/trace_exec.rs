//! The trace executor: bit-identity of injected traces.
//!
//! An injected trace runs on the packed `jit::ir` executor, which has two
//! loops: a block-at-a-time loop for chunks without a pending selection
//! and a per-lane loop over candidate lanes. The block loop is checked
//! opcode by opcode, operand shape by operand shape, against the per-lane
//! loop at lengths around its block size, together with filtered outputs,
//! every fold kind and the masked-sum `-0.0` contract. A whole DSL
//! workload driven through the engine at 1/2/4/8 workers pins that traced
//! execution is bit-identical whatever the parallelism, and float probes
//! at −0.0, ±inf and NaN pin that the trace optimizer applies only the
//! identities IEEE 754 makes exact.

use std::collections::HashMap;

use adaptvm::dsl::{FoldFn, ScalarOp};
use adaptvm::jit::ir::{self, FilterCheck, OutputSpec, Src, TraceIr, TraceOp};
use adaptvm::jit::LaneType;
use adaptvm::relational::parallel::ParallelOpts;
use adaptvm::relational::workload::Workload;
use adaptvm::storage::{Array, Scalar, ScalarType, SelVec};
use adaptvm::vm::{Strategy, VmConfig};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------------
// Workload fixture: i64 + f64 maps, a filter with compaction, folds.
// ---------------------------------------------------------------------

const SCHEMA: &[(&str, ScalarType)] = &[
    ("xs", ScalarType::I64),
    ("fs", ScalarType::F64),
    ("oi", ScalarType::I64),
    ("of", ScalarType::F64),
    ("oacc", ScalarType::I64),
    ("ofacc", ScalarType::F64),
];

const ROWS: usize = 4096;

/// Chunked-loop shape (the fig2 / TPC-H Q6 idiom) so the loop body gets
/// hot and is traced: i64 map + filter + condense, a guarded fold over the
/// filtered flow, and an f64 map + fold.
const SRC: &str = "\
mut i
mut k
mut acc
mut facc
i := 0
k := 0
acc := 0
facc := 0.0
loop {
  let x = read i xs in {
    let f = read i fs in {
      let scaled = map (\\a -> a * 3 + 1) x in {
        let t = filter (\\v -> v > 40) scaled in {
          let c = condense t in {
            let g = map (\\a -> a * 0.5 + 1.25) f in {
              let s = fold sum 0 t in {
                let m = fold sum 0.0 g in {
                  write oi k c
                  write of i g
                  acc := acc + s
                  facc := facc + m
                  i := i + len(x)
                  k := k + len(c)
                }
              }
            }
          }
        }
      }
    }
  }
  if i >= 4096 then { break }
}
write oacc 0 acc
write ofacc 0 facc
";

fn fixture_inputs(n: usize, seed: i64) -> Vec<(String, Array)> {
    let xs: Vec<i64> = (0..n as i64).map(|k| (k * 37 + seed) % 97 - 20).collect();
    let fs: Vec<f64> = (0..n as i64)
        .map(|k| ((k * 13 + seed) % 61 - 30) as f64 * 0.375)
        .collect();
    vec![
        ("xs".into(), Array::from(xs)),
        ("fs".into(), Array::from(fs)),
    ]
}

/// The fixture in 64-lane chunks and 256-row morsels.
fn run_fixture(workers: usize) -> (HashMap<String, Array>, adaptvm::parallel::ParallelRunReport) {
    let workload = Workload::compile(SRC, SCHEMA).unwrap();
    let data = fixture_inputs(ROWS, 5);
    let inputs: Vec<(&str, Array)> = data.iter().map(|(n, a)| (n.as_str(), a.clone())).collect();
    let config = VmConfig {
        strategy: Strategy::Adaptive,
        hot_threshold: 2,
        chunk_size: 64,
        ..VmConfig::default()
    };
    workload
        .run(
            &inputs,
            config,
            ParallelOpts {
                workers,
                morsel_rows: 256,
                ..ParallelOpts::default()
            },
        )
        .unwrap()
}

fn bits_of(out: &HashMap<String, Array>) -> Vec<(String, Vec<u64>)> {
    let mut v: Vec<(String, Vec<u64>)> = out
        .iter()
        .map(|(k, a)| {
            let bits = match a.as_f64() {
                Some(fs) => fs.iter().map(|f| f.to_bits()).collect(),
                None => a
                    .to_i64_vec()
                    .expect("fixture outputs are numeric")
                    .into_iter()
                    .map(|x| x as u64)
                    .collect(),
            };
            (k.clone(), bits)
        })
        .collect();
    v.sort();
    v
}

// ---------------------------------------------------------------------
// Bit-identity of traced execution across worker counts.
// ---------------------------------------------------------------------

#[test]
fn traced_execution_bit_identical_across_worker_counts() {
    let (reference, _) = run_fixture(1);
    for workers in WORKER_COUNTS {
        let (out, report) = run_fixture(workers);
        assert_eq!(
            bits_of(&reference),
            bits_of(&out),
            "traced execution diverged at {workers} workers"
        );
        assert!(
            report.trace_executions > 0,
            "no trace ever ran at {workers} workers: {report:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The block executor against the per-lane executor.
// ---------------------------------------------------------------------

/// Lengths around the executor's 256-lane block.
const BLOCK_LENS: [usize; 4] = [1, 255, 256, 257];

/// Two input columns led by edge values. `infinities: false` leaves ±inf
/// out: a reduction that meets `inf + -inf` (the negative default NaN)
/// *and* an input NaN keeps whichever NaN the add instruction's operand
/// order favours — not something any two code sequences agree on.
fn lane_inputs(lane: LaneType, n: usize, infinities: bool) -> [Array; 2] {
    let ints = |seed: i64| -> Vec<i64> {
        let edge = [i64::MIN, i64::MAX, 0, -1, 1, 2];
        (0..n)
            .map(|i| match edge.get(i) {
                Some(&e) => e,
                None => (i as i64 * 37 + seed) % 19 - 9,
            })
            .collect()
    };
    let floats = |seed: usize| -> Vec<f64> {
        let (big, small) = match infinities {
            true => (f64::INFINITY, f64::NEG_INFINITY),
            false => (f64::MAX, f64::MIN),
        };
        let edge = [f64::NAN, -0.0, 0.0, big, small, 2.5, -1.0];
        (0..n)
            .map(|i| match i < 2 * edge.len() {
                true => edge[(i + seed) % edge.len()],
                false => ((i * 13 + seed) % 17) as f64 * 0.5 - 4.0,
            })
            .collect()
    };
    match lane {
        LaneType::I64 => [Array::from(ints(3)), Array::from(ints(8))],
        LaneType::F64 => [Array::from(floats(0)), Array::from(floats(3))],
    }
}

/// Every array lane and fold result as raw bits.
fn trace_bits(r: &ir::TraceResult) -> Vec<(String, Vec<u64>)> {
    let array_bits = |a: &Array| -> Vec<u64> {
        match a.as_f64() {
            Some(fs) => fs.iter().map(|f| f.to_bits()).collect(),
            None => match a.as_bool() {
                Some(bs) => bs.iter().map(|&b| b as u64).collect(),
                None => a
                    .to_i64_vec()
                    .expect("numeric")
                    .into_iter()
                    .map(|x| x as u64)
                    .collect(),
            },
        }
    };
    let mut out: Vec<(String, Vec<u64>)> = r
        .arrays
        .iter()
        .map(|(n, a)| (n.clone(), array_bits(a)))
        .collect();
    out.extend(r.sels.iter().map(|(n, _, s)| {
        (
            n.clone(),
            s.indices().iter().map(|&i| i as u64).collect::<Vec<u64>>(),
        )
    }));
    out.extend(r.scalars.iter().map(|(n, s)| {
        let bits = match s {
            Scalar::F64(f) => f.to_bits(),
            other => other.as_i64().expect("numeric fold") as u64,
        };
        (n.clone(), vec![bits])
    }));
    out
}

/// Run a trace on the block executor (no candidates) and on the per-lane
/// executor (every lane a candidate): identical bits.
fn assert_block_matches_per_lane(what: &str, ir: &TraceIr, inputs: &[&Array]) {
    let n = inputs[0].len();
    let blocks = ir::execute(ir, inputs, None).expect("block execution");
    let lanes = ir::execute(ir, inputs, Some(&SelVec::identity(n))).expect("per-lane execution");
    for ((name, block), (_, per_lane)) in trace_bits(&blocks).iter().zip(&trace_bits(&lanes)) {
        assert_eq!(
            block.len(),
            per_lane.len(),
            "{what} n={n}: length of {name}"
        );
        if let Some(i) = (0..block.len()).find(|&i| block[i] != per_lane[i]) {
            panic!(
                "{what} n={n}: {name}[{i}] is {:#x} on the block executor, {:#x} per lane",
                block[i], per_lane[i]
            );
        }
    }
}

/// One op per trace, for every opcode the lane domain implements, in every
/// operand shape the block loops distinguish — including a source that is
/// the destination register.
#[test]
fn every_opcode_block_execution_matches_per_lane() {
    use ScalarOp::*;
    let binary = [
        Add, Sub, Mul, Div, Rem, Min, Max, Eq, Ne, Lt, Le, Gt, Ge, And, Or,
    ];
    let unary = [
        Neg,
        Abs,
        Not,
        Cast(ScalarType::I8),
        Cast(ScalarType::I16),
        Cast(ScalarType::I32),
        Cast(ScalarType::I64),
        Cast(ScalarType::Bool),
    ];
    let dense = |src| OutputSpec::Array {
        name: "out".into(),
        src,
        compacted: false,
        out_ty: ScalarType::I64,
    };
    for lane in [LaneType::I64, LaneType::F64] {
        let constant = match lane {
            LaneType::I64 => Src::ConstI(3),
            LaneType::F64 => Src::ConstF(-0.0),
        };
        let out_ty = match lane {
            LaneType::I64 => ScalarType::I64,
            LaneType::F64 => ScalarType::F64,
        };
        let mut cases: Vec<(ScalarOp, Vec<Src>)> = Vec::new();
        for op in binary {
            cases.push((op, vec![Src::Input(0), Src::Input(1)]));
            cases.push((op, vec![Src::Input(0), constant]));
            cases.push((op, vec![constant, Src::Input(1)]));
        }
        for op in unary {
            cases.push((op, vec![Src::Input(0)]));
        }
        cases.push(match lane {
            LaneType::I64 => (Hash, vec![Src::Input(0)]),
            LaneType::F64 => (Sqrt, vec![Src::Input(0)]),
        });
        for n in BLOCK_LENS {
            let [a, b] = lane_inputs(lane, n, true);
            for (op, args) in &cases {
                let mut output = dense(Src::Reg(0));
                if let OutputSpec::Array { out_ty: t, .. } = &mut output {
                    *t = out_ty;
                }
                let trace = TraceIr {
                    lane,
                    inputs: vec!["a".into(), "b".into()],
                    n_regs: 1,
                    pre_ops: vec![TraceOp {
                        op: *op,
                        dst: 0,
                        args: args.clone(),
                    }],
                    filter: None,
                    post_ops: vec![],
                    outputs: vec![output],
                };
                assert_block_matches_per_lane(
                    &format!("{lane:?} {op:?} {args:?}"),
                    &trace,
                    &[&a, &b],
                );
            }
            // Register operands, one of them the destination itself.
            let mut output = dense(Src::Reg(1));
            if let OutputSpec::Array { out_ty: t, .. } = &mut output {
                *t = out_ty;
            }
            let chained = TraceIr {
                lane,
                inputs: vec!["a".into(), "b".into()],
                n_regs: 2,
                pre_ops: vec![
                    TraceOp {
                        op: Add,
                        dst: 0,
                        args: vec![Src::Input(0), Src::Input(1)],
                    },
                    TraceOp {
                        op: Mul,
                        dst: 1,
                        args: vec![Src::Reg(0), Src::Input(1)],
                    },
                    TraceOp {
                        op: Sub,
                        dst: 1,
                        args: vec![Src::Reg(1), Src::Reg(0)],
                    },
                    TraceOp {
                        op: Max,
                        dst: 1,
                        args: vec![constant, Src::Reg(1)],
                    },
                ],
                filter: None,
                post_ops: vec![],
                outputs: vec![output],
            };
            assert_block_matches_per_lane(&format!("{lane:?} register chain"), &chained, &[&a, &b]);
        }
    }
}

/// Filter masks, compacted outputs, selections and guarded / unguarded
/// folds of every kind, at sparse and dense pass rates.
#[test]
fn filtered_block_execution_matches_per_lane() {
    for lane in [LaneType::I64, LaneType::F64] {
        let (threshold_sparse, threshold_dense, zero, out_ty) = match lane {
            LaneType::I64 => (
                Src::ConstI(7),
                Src::ConstI(-8),
                Scalar::I64(0),
                ScalarType::I64,
            ),
            LaneType::F64 => (
                Src::ConstF(3.5),
                Src::ConstF(-3.5),
                Scalar::F64(0.0),
                ScalarType::F64,
            ),
        };
        let extreme = |hi: bool| match (lane, hi) {
            (LaneType::I64, true) => Scalar::I64(i64::MAX),
            (LaneType::I64, false) => Scalar::I64(i64::MIN),
            (LaneType::F64, true) => Scalar::F64(f64::INFINITY),
            (LaneType::F64, false) => Scalar::F64(f64::NEG_INFINITY),
        };
        for n in BLOCK_LENS.into_iter().chain([1024, 1025]) {
            let [a, b] = lane_inputs(lane, n, false);
            for (cmp, threshold) in [
                (ScalarOp::Gt, threshold_sparse),
                (ScalarOp::Ge, threshold_dense),
                (ScalarOp::Ne, threshold_sparse),
                (ScalarOp::Eq, threshold_dense),
                (ScalarOp::Lt, threshold_dense),
                (ScalarOp::Le, threshold_sparse),
            ] {
                let fold = |name: &str, f, init: Scalar, src, guarded| OutputSpec::Fold {
                    name: name.into(),
                    f,
                    init,
                    src,
                    guarded,
                };
                let trace = TraceIr {
                    lane,
                    inputs: vec!["a".into(), "b".into()],
                    n_regs: 2,
                    pre_ops: vec![TraceOp {
                        op: ScalarOp::Add,
                        dst: 0,
                        args: vec![Src::Input(0), Src::Input(1)],
                    }],
                    filter: Some(FilterCheck {
                        op: cmp,
                        lhs: Src::Input(0),
                        rhs: threshold,
                    }),
                    post_ops: vec![TraceOp {
                        op: ScalarOp::Mul,
                        dst: 1,
                        args: vec![Src::Reg(0), Src::Input(1)],
                    }],
                    outputs: vec![
                        OutputSpec::Array {
                            name: "dense".into(),
                            src: Src::Reg(0),
                            compacted: false,
                            out_ty,
                        },
                        OutputSpec::Array {
                            name: "kept".into(),
                            src: Src::Reg(1),
                            compacted: true,
                            out_ty,
                        },
                        OutputSpec::Sel {
                            name: "sel".into(),
                            flow: "a".into(),
                        },
                        fold("sum", FoldFn::Sum, zero.clone(), Src::Input(1), true),
                        fold("all", FoldFn::Sum, zero.clone(), Src::Input(1), false),
                        fold("lo", FoldFn::Min, extreme(true), Src::Reg(1), true),
                        fold("hi", FoldFn::Max, extreme(false), Src::Reg(0), false),
                        fold("hits", FoldFn::Count, Scalar::I64(0), Src::Input(0), true),
                    ],
                };
                assert_block_matches_per_lane(
                    &format!("{lane:?} filter {cmp:?}"),
                    &trace,
                    &[&a, &b],
                );
            }
        }
    }
}

/// The one place the block and per-lane executors are *meant* to differ:
/// a masked sum adds the lane type's zero for a non-passing lane, so a
/// skipped lane turns a `-0.0` accumulator into `+0.0`; the per-lane
/// executor only ever visits candidates. The block
/// executor adds just the passing lanes and one zero — this pins that the
/// shortcut keeps the defined bits, at every mask density.
#[test]
fn masked_sum_from_negative_zero_adds_a_zero_per_skipped_lane() {
    let sum_of_negative_zeros = |n: usize, keep: &dyn Fn(usize) -> bool| -> u64 {
        let flags: Vec<f64> = (0..n).map(|i| keep(i) as u8 as f64).collect();
        let trace = TraceIr {
            lane: LaneType::F64,
            inputs: vec!["v".into(), "keep".into()],
            n_regs: 0,
            pre_ops: vec![],
            filter: Some(FilterCheck {
                op: ScalarOp::Gt,
                lhs: Src::Input(1),
                rhs: Src::ConstF(0.5),
            }),
            post_ops: vec![],
            outputs: vec![OutputSpec::Fold {
                name: "s".into(),
                f: FoldFn::Sum,
                init: Scalar::F64(-0.0),
                src: Src::Input(0),
                guarded: true,
            }],
        };
        let v = Array::from(vec![-0.0f64; n]);
        let r = ir::execute(&trace, &[&v, &Array::from(flags)], None).expect("block execution");
        match r.scalars[0].1 {
            Scalar::F64(s) => s.to_bits(),
            ref other => panic!("f64 fold produced {other:?}"),
        }
    };
    for n in BLOCK_LENS.into_iter().chain([1024]) {
        // Nothing skipped: the sum of negative zeros stays negative.
        assert_eq!(
            sum_of_negative_zeros(n, &|_| true),
            (-0.0f64).to_bits(),
            "n={n}"
        );
        // Any skipped lane — first, last, most, or all — makes it +0.0.
        if n > 1 {
            for (what, keep) in [
                (
                    "first skipped",
                    (&|i: usize| i != 0) as &dyn Fn(usize) -> bool,
                ),
                ("last skipped", &|i: usize| i + 1 != n),
                ("one kept", &|i: usize| i == n / 2),
                ("all skipped", &|_| false),
            ] {
                assert_eq!(
                    sum_of_negative_zeros(n, keep),
                    0.0f64.to_bits(),
                    "n={n} {what}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Float identities the optimizer may not apply.
// ---------------------------------------------------------------------

/// A partitioned loop writing `map (\a -> E) f` for each probe `E`.
fn float_probe_src(expr: &str) -> String {
    format!(
        "\
mut i
mut n
i := 0
n := 1
loop {{
  let a = read i fs in {{
    let g = map (\\a -> {expr}) a in {{
      write o i g
      i := i + len(a)
      n := len(a)
    }}
  }}
  if n == 0 then {{ break }}
}}
"
    )
}

/// One word per element, every NaN folded to one pattern: NaN-ness must
/// agree, payloads are not compared (two instruction orders may pick
/// different ones).
fn float_bits(a: &Array) -> Vec<u64> {
    let canonical = |x: f64| {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    };
    a.as_f64()
        .expect("f64 probe output")
        .iter()
        .map(|&x| canonical(x))
        .collect()
}

/// `x * 0 = 0` and `x + 0 = x` hold for integers but not for IEEE 754
/// doubles: at −1.5, −0.0 and +inf the rewritten trace would disagree
/// with the interpreter. Every strategy and worker count must compute
/// what pure interpretation computes, bit for bit. `a * 1.0` and
/// `a - 0.0` are exact rewrites and ride along as controls.
#[test]
fn float_traces_keep_signed_zeros_infinities_and_nans() {
    let rows = 1024;
    let cycle = [-1.5, -0.0, f64::INFINITY, f64::NAN, 2.0];
    let fs = Array::from(
        (0..rows)
            .map(|k| cycle[k % cycle.len()])
            .collect::<Vec<f64>>(),
    );
    let schema = [("fs", ScalarType::F64), ("o", ScalarType::F64)];
    let config = |strategy| VmConfig {
        strategy,
        hot_threshold: 2,
        chunk_size: 64,
        ..VmConfig::default()
    };
    for expr in [
        "a * 0.0",
        "a + 0.0",
        "a + 0",
        "(a * 0.0) + 1.0",
        "a * 1.0",
        "a - 0.0",
    ] {
        let workload = Workload::compile(&float_probe_src(expr), &schema).unwrap();
        let oracle = workload
            .run_seq(&[("fs", fs.clone())], config(Strategy::Interpret))
            .unwrap();
        let expected = float_bits(&oracle["o"]);
        assert_eq!(expected.len(), rows, "{expr}");
        for strategy in [
            Strategy::Interpret,
            Strategy::CompiledPipeline,
            Strategy::Adaptive,
        ] {
            for workers in WORKER_COUNTS {
                let (out, report) = workload
                    .run_partitioned(
                        rows,
                        &[("fs", fs.clone())],
                        config(strategy),
                        ParallelOpts::new(workers, 256),
                    )
                    .unwrap();
                let what = format!("{expr}: {strategy:?} at {workers} workers");
                assert_eq!(float_bits(&out["o"]), expected, "{what}");
                if strategy != Strategy::Interpret {
                    assert!(report.trace_executions > 0, "{what}: {report:?}");
                }
            }
        }
    }
}
