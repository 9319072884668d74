//! Native x86-64 JIT tier: deopt stress and bit-identity.
//!
//! The native tier's contract is that it is **invisible** except for
//! speed: every query answer must be bit-identical to the interpreted
//! trace tier, whether native code runs a chunk to completion or guard-
//! deopts half-way through (type guards, output-capacity guards, and the
//! test-only "fail after N lanes" budget hook). These tests drive whole
//! DSL workloads through the engine at 1/2/4/8 workers with the deopt
//! hooks armed and compare against the interpreted tier bit-for-bit,
//! plus a proptest of the linear-scan allocator invariant (two live
//! intervals never share a register).
//!
//! Which tier serves a trace is the trace's own measurement (its first
//! full-size executions time both, then the faster one runs): the tier
//! tests force each verdict in turn and check that nothing but speed
//! depends on it. The packed tier's block executor is checked opcode by
//! opcode against the per-lane executor at lengths around its block size.
//!
//! On hosts without the native backend (non-x86-64, or
//! `ADAPTVM_NATIVE=0`) the engine silently pins the interpreted tier;
//! every test still passes through the fallback path.

use std::collections::HashMap;
use std::sync::Mutex;

use adaptvm::dsl::{FoldFn, ScalarOp};
use adaptvm::jit::ir::{self, FilterCheck, OutputSpec, Src, TraceIr, TraceOp};
use adaptvm::jit::regalloc::{allocate, Interval, Loc};
use adaptvm::jit::{
    force_tier_verdict, set_native_capacity_limit, set_native_guard_budget, LaneType, TraceTier,
};
use adaptvm::relational::parallel::ParallelOpts;
use adaptvm::relational::workload::Workload;
use adaptvm::storage::{Array, Scalar, ScalarType, SelVec};
use adaptvm::vm::{native_available, Strategy, VmConfig};
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The native deopt hooks are process-global; serialize every test that
/// arms them (or depends on them being disarmed).
static HOOKS: Mutex<()> = Mutex::new(());

/// RAII disarm: a panicking assertion must not leave a poisoned budget
/// behind for the next test.
struct Armed;

impl Armed {
    fn guard_budget(lanes: u64) -> Armed {
        set_native_guard_budget(Some(lanes));
        Armed
    }

    fn capacity(limit: u64) -> Armed {
        set_native_capacity_limit(Some(limit));
        Armed
    }

    fn verdict(tier: TraceTier) -> Armed {
        force_tier_verdict(Some(tier));
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        set_native_guard_budget(None);
        set_native_capacity_limit(None);
        force_tier_verdict(None);
    }
}

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
/// hot, is traced, and — with `native: true` on a capable host — runs as
/// machine code: i64 map + filter + condense (array outputs exercise the
/// capacity guard), a guarded fold over the filtered flow (exercises the
/// guard budget), and an f64 map + fold.
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

fn run_fixture(
    native: bool,
    workers: usize,
) -> (HashMap<String, Array>, adaptvm::parallel::ParallelRunReport) {
    run_fixture_chunked(native, workers, 64, 256)
}

/// The fixture at a given chunk / morsel size. Chunks of 64 lanes are
/// below the tier-sampling minimum, so every trace execution goes native
/// (what the deopt tests need); chunks of 256 and up are sampled.
fn run_fixture_chunked(
    native: bool,
    workers: usize,
    chunk_size: usize,
    morsel_rows: usize,
) -> (HashMap<String, Array>, adaptvm::parallel::ParallelRunReport) {
    let workload = Workload::compile(SRC, SCHEMA).unwrap();
    let data = fixture_inputs(ROWS, 5);
    let inputs: Vec<(&str, Array)> = data.iter().map(|(n, a)| (n.as_str(), a.clone())).collect();
    let config = VmConfig {
        strategy: Strategy::Adaptive,
        hot_threshold: 2,
        chunk_size,
        native,
        ..VmConfig::default()
    };
    workload
        .run(
            &inputs,
            config,
            ParallelOpts {
                workers,
                morsel_rows,
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
// Bit-identity: native vs interpreted tier across worker counts.
// ---------------------------------------------------------------------

#[test]
fn native_tier_bit_identical_across_worker_counts() {
    let _lock = HOOKS.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, _) = run_fixture(false, 1);
    for workers in WORKER_COUNTS {
        let (interp, _) = run_fixture(false, workers);
        assert_eq!(
            bits_of(&reference),
            bits_of(&interp),
            "interpreted tier not deterministic at {workers} workers"
        );
        let (native, report) = run_fixture(true, workers);
        assert_eq!(
            bits_of(&reference),
            bits_of(&native),
            "native tier diverged at {workers} workers"
        );
        if native_available() {
            assert!(
                report.native_trace_executions > 0,
                "native tier never dispatched at {workers} workers: {report:?}"
            );
            assert_eq!(report.native_deopts, 0, "unexpected deopt: {report:?}");
        } else {
            assert_eq!(report.native_trace_executions, 0);
        }
    }
}

#[test]
fn interpreted_pin_reports_no_native_activity() {
    let _lock = HOOKS.lock().unwrap_or_else(|e| e.into_inner());
    let (_, report) = run_fixture(false, 4);
    assert_eq!(report.native_trace_executions, 0);
    assert_eq!(report.native_deopts, 0);
}

// ---------------------------------------------------------------------
// Tier choice: whichever tier wins the sampling, only speed may change.
// ---------------------------------------------------------------------

/// Full-size chunks are sampled: the first execution of every trace still
/// goes native, and the answer is the interpreted tier's.
#[test]
fn sampled_runs_start_native_and_stay_bit_identical() {
    let _lock = HOOKS.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, _) = run_fixture_chunked(false, 1, 256, 2048);
    for workers in WORKER_COUNTS {
        let (out, report) = run_fixture_chunked(true, workers, 256, 2048);
        assert_eq!(
            bits_of(&reference),
            bits_of(&out),
            "sampling changed results at {workers} workers"
        );
        assert!(report.trace_executions > 0, "{report:?}");
        if native_available() {
            assert!(
                report.native_trace_executions > 0,
                "the first sample of a trace must be native: {report:?}"
            );
        } else {
            assert_eq!(report.native_trace_executions, 0);
        }
        assert_eq!(report.native_deopts, 0, "{report:?}");
    }
}

/// Force each verdict in turn: outputs and the report's answers are
/// bit-identical, and the executions land on the forced tier.
#[test]
fn either_tier_verdict_is_bit_identical() {
    let _lock = HOOKS.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, base) = run_fixture_chunked(false, 1, 256, 2048);
    for tier in [TraceTier::Native, TraceTier::Interpreted] {
        for workers in WORKER_COUNTS {
            let armed = Armed::verdict(tier);
            let (out, report) = run_fixture_chunked(true, workers, 256, 2048);
            drop(armed);
            assert_eq!(
                bits_of(&reference),
                bits_of(&out),
                "{tier:?} verdict changed results at {workers} workers"
            );
            assert_eq!(report.iterations, base.iterations, "{tier:?}: {report:?}");
            assert_eq!(report.native_deopts, 0, "{tier:?}: {report:?}");
            match tier {
                TraceTier::Native if native_available() => assert!(
                    report.native_trace_executions > 0,
                    "a native verdict must dispatch native code: {report:?}"
                ),
                _ => assert_eq!(
                    report.native_trace_executions, 0,
                    "{tier:?} verdict must not run native code: {report:?}"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Packed tier: the block executor against the per-lane executor.
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
/// a masked sum adds the lane type's zero for a non-passing lane (as the
/// native loop does), so a skipped lane turns a `-0.0` accumulator into
/// `+0.0`; the per-lane executor only ever visits candidates. The block
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
// Deopt stress: every guard fires, the answer never changes.
// ---------------------------------------------------------------------

/// The "fail after N lanes" hook: every native chunk run aborts after 7
/// lanes and re-runs interpreted. Results stay bit-identical at every
/// worker count and the deopts are visible in the report.
#[test]
fn guard_budget_deopt_is_bit_identical_across_worker_counts() {
    let _lock = HOOKS.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, _) = run_fixture(false, 1);
    for workers in WORKER_COUNTS {
        let armed = Armed::guard_budget(7);
        let (out, report) = run_fixture(true, workers);
        drop(armed);
        assert_eq!(
            bits_of(&reference),
            bits_of(&out),
            "guard-budget deopt changed results at {workers} workers"
        );
        if native_available() {
            assert!(
                report.native_deopts > 0,
                "a 7-lane budget must deopt guarded chunks: {report:?}"
            );
        }
    }
}

/// Output-capacity guards: native buffers are capped at 3 entries, so
/// every chunk whose filter passes more than 3 lanes deopts mid-write.
/// The partial native buffers are discarded; results stay bit-identical.
#[test]
fn capacity_guard_deopt_is_bit_identical_across_worker_counts() {
    let _lock = HOOKS.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, _) = run_fixture(false, 1);
    for workers in WORKER_COUNTS {
        let armed = Armed::capacity(3);
        let (out, report) = run_fixture(true, workers);
        drop(armed);
        assert_eq!(
            bits_of(&reference),
            bits_of(&out),
            "capacity deopt changed results at {workers} workers"
        );
        if native_available() {
            assert!(
                report.native_deopts > 0,
                "3-entry capacity must deopt compacting chunks: {report:?}"
            );
        }
    }
}

/// A budget larger than any chunk never fires: full native service, zero
/// deopts, and bit-identity with the armed-but-idle hook in place.
#[test]
fn oversized_guard_budget_never_fires() {
    let _lock = HOOKS.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, _) = run_fixture(false, 1);
    let armed = Armed::guard_budget(1 << 40);
    let (out, report) = run_fixture(true, 2);
    drop(armed);
    assert_eq!(bits_of(&reference), bits_of(&out));
    if native_available() {
        assert_eq!(report.native_deopts, 0, "{report:?}");
        assert!(report.native_trace_executions > 0, "{report:?}");
    }
}

/// Type guards: inputs the native code cannot consume deopt *before* the
/// call and fall back to the interpreter — which reproduces the exact
/// interpreted outcome (here: an error), never a wrong answer.
#[test]
fn type_guard_falls_back_to_interpreted_outcome() {
    let _lock = HOOKS.lock().unwrap_or_else(|e| e.into_inner());
    use adaptvm::dsl::depgraph::{scalar_uses, DepGraph};
    use adaptvm::dsl::partition::Region;
    use adaptvm::dsl::programs;
    use adaptvm::jit::build_fragment;
    use adaptvm::jit::compiler::{compile, CostModel};

    let p = programs::fig2_example();
    let body = programs::loop_body(&p).unwrap();
    let g = DepGraph::from_stmts(body);
    let region = Region {
        nodes: (0..g.len()).collect(),
        seed: 0,
        cost: 0.0,
    };
    let frag = build_fragment(&g, &region, &scalar_uses(body), &HashMap::new()).unwrap();
    let trace = compile(frag, &CostModel::untimed());

    // Numeric input: tiered and interpreted agree bit-for-bit.
    let xs = Array::from(vec![3i64, -7, 12, 0, 44]);
    let interp = trace.run(&[&xs], None).unwrap();
    let (tiered, _) = trace.run_tiered(&[&xs], None, true).unwrap();
    assert_eq!(format!("{interp:?}"), format!("{tiered:?}"));

    // String input: the native tier type-deopts and the interpreter's
    // error surfaces unchanged.
    let ss = Array::from(vec!["a".to_string(), "b".to_string()]);
    let ie = trace.run(&[&ss], None).unwrap_err();
    let te = trace.run_tiered(&[&ss], None, true).unwrap_err();
    assert_eq!(format!("{ie}"), format!("{te}"));
}

// ---------------------------------------------------------------------
// Linear-scan allocator invariant.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the interval shapes and pool size: two simultaneously
    /// live intervals never share a register, and call-crossing
    /// (`needs_stack`) intervals always land on the stack.
    #[test]
    fn linear_scan_never_double_books_a_register(
        pool in 1u8..8,
        raw in prop::collection::vec((0u32..80, 1u32..12, any::<bool>()), 0..60),
    ) {
        let intervals: Vec<Interval> = raw
            .iter()
            .map(|&(start, len, needs_stack)| Interval {
                start,
                end: start + len,
                needs_stack,
            })
            .collect();
        let alloc = allocate(&intervals, pool);
        prop_assert_eq!(alloc.locs.len(), intervals.len());
        for (iv, loc) in intervals.iter().zip(&alloc.locs) {
            if iv.needs_stack {
                prop_assert!(
                    matches!(loc, Loc::Stack(_)),
                    "call-crossing interval {:?} got {:?}", iv, loc
                );
            }
            if let Loc::Reg(r) = loc {
                prop_assert!(*r < pool, "register {} out of pool {}", r, pool);
            }
        }
        for i in 0..intervals.len() {
            for j in i + 1..intervals.len() {
                if let (Loc::Reg(ri), Loc::Reg(rj)) = (alloc.locs[i], alloc.locs[j]) {
                    if intervals[i].overlaps(&intervals[j]) {
                        prop_assert!(
                            ri != rj,
                            "{:?} and {:?} overlap but share r{}",
                            intervals[i], intervals[j], ri
                        );
                    }
                }
            }
        }
    }
}
