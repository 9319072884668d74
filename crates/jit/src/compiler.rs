//! The compiler: optimization + calibrated compile-cost model.
//!
//! §III-B: "The purpose of our partial compilation is to minimize
//! compilation effort (optimizer passes tend to take longer with an
//! increasing amount of code)". The [`CostModel`] reproduces that
//! superlinear behaviour — `base + per_op·n + per_op²·n²` — so the VM's
//! compile-or-interpret decisions face the same trade-off an LLVM backend
//! would impose. The model's time is *real* (the compiler works, then pads
//! to the modeled duration), which keeps wall-clock benchmarks honest, and
//! is also recorded as `cost_ns` for deterministic policy decisions.
//!
//! [`compile`] runs on the caller's thread: the Fig. 1 "generate code"
//! step of the run that reaches the hot path. Runs that share a
//! [`crate::CodeCache`] compile each fragment once
//! ([`crate::CodeCache::get_or_compile`]) and inject it everywhere else.

use std::time::{Duration, Instant};

use crate::builder::{Fragment, ReadSpec, WriteSpec};
use crate::error::JitError;
use crate::ir::{self, PackedProgram, TraceIr, TraceResult, Window};
use crate::passes::{optimize, PassStats};

use adaptvm_storage::array::Array;
use adaptvm_storage::sel::SelVec;

/// Compile-cost model (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed overhead per compilation.
    pub base_ns: u64,
    /// Linear component per trace operation.
    pub per_op_ns: u64,
    /// Quadratic component per (operation)² — the "optimizer passes take
    /// longer with more code" term.
    pub per_op2_ns: u64,
    /// When false, no padding is performed (unit tests use this); the
    /// modeled cost is still reported.
    pub enforce: bool,
}

impl Default for CostModel {
    fn default() -> CostModel {
        // Calibrated to LLVM-ish magnitudes for small fragments: a 4-op
        // fragment costs ~0.4 ms, a 20-op pipeline ~3.2 ms.
        CostModel {
            base_ns: 100_000,
            per_op_ns: 50_000,
            per_op2_ns: 5_000,
            enforce: true,
        }
    }
}

impl CostModel {
    /// A model that reports costs but never sleeps (for tests).
    pub fn untimed() -> CostModel {
        CostModel {
            enforce: false,
            ..CostModel::default()
        }
    }

    /// Modeled cost for a fragment of `n_ops` operations.
    pub fn cost_ns(&self, n_ops: usize) -> u64 {
        let n = n_ops as u64;
        self.base_ns + self.per_op_ns * n + self.per_op2_ns * n * n
    }
}

/// A compiled, optimized, executable trace.
#[derive(Debug)]
pub struct CompiledTrace {
    /// The optimized trace IR.
    pub ir: TraceIr,
    /// Buffer reads the VM performs before invoking the trace.
    pub reads: Vec<ReadSpec>,
    /// Buffer writes the VM performs afterwards.
    pub writes: Vec<WriteSpec>,
    /// Optimization statistics.
    pub stats: PassStats,
    /// Modeled compilation cost in nanoseconds.
    pub cost_ns: u64,
    /// The fragment's fingerprint ([`Fragment::fingerprint`],
    /// pre-optimization).
    pub fingerprint: u64,
    /// The packed (validated, operand-resolved) program — built once here
    /// so execution never re-validates. A pack error is surfaced on the
    /// first run and triggers the VM's interpretation fallback.
    packed: Result<PackedProgram, JitError>,
}

impl CompiledTrace {
    /// Execute over equal-length input windows, read in place (see
    /// [`ir::run_packed`]).
    pub fn run_windows(
        &self,
        inputs: &[Window<'_>],
        candidates: Option<&SelVec>,
    ) -> Result<TraceResult, JitError> {
        match &self.packed {
            Ok(p) => ir::run_packed(&self.ir, p, inputs, candidates),
            Err(e) => Err(e.clone()),
        }
    }

    /// Execute over whole chunk arrays: [`CompiledTrace::run_windows`]
    /// with each array as one window.
    pub fn run(
        &self,
        inputs: &[&Array],
        candidates: Option<&SelVec>,
    ) -> Result<TraceResult, JitError> {
        let windows: Vec<Window<'_>> = inputs.iter().map(|a| Window::whole(a)).collect();
        self.run_windows(&windows, candidates)
    }

    // Frozen compatibility surface: the `benchmark/` crate still names
    // these two; they carry no logic and nothing in the engine calls them.
    #[doc(hidden)]
    pub fn has_native(&self) -> bool {
        false
    }

    #[doc(hidden)]
    pub fn run_tiered(
        &self,
        inputs: &[&Array],
        candidates: Option<&SelVec>,
        _allow_native: bool,
    ) -> Result<TraceResult, JitError> {
        self.run(inputs, candidates)
    }
}

/// Compile a fragment synchronously.
pub fn compile(fragment: Fragment, model: &CostModel) -> CompiledTrace {
    let started = Instant::now();
    let fingerprint = fragment.fingerprint();
    let n_ops = fragment.ir.op_count();
    let (ir, stats) = optimize(fragment.ir);
    let cost = Duration::from_nanos(model.cost_ns(n_ops));
    if model.enforce {
        // Pad real elapsed time up to the modeled cost so wall-clock
        // benchmarks see the LLVM-ish compile latency.
        while started.elapsed() < cost {
            std::hint::spin_loop();
        }
    }
    let packed = ir.pack();
    CompiledTrace {
        ir,
        reads: fragment.reads,
        writes: fragment.writes,
        stats,
        cost_ns: model.cost_ns(n_ops),
        fingerprint,
        packed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptvm_dsl::depgraph::{scalar_uses, DepGraph};
    use adaptvm_dsl::partition::Region;
    use adaptvm_dsl::programs;
    use std::collections::HashMap;

    fn fig2_whole_fragment() -> Fragment {
        let p = programs::fig2_example();
        let body = programs::loop_body(&p).unwrap();
        let g = DepGraph::from_stmts(body);
        let region = Region {
            nodes: (0..g.len()).collect(),
            seed: 0,
            cost: 0.0,
        };
        crate::builder::build_fragment(&g, &region, &scalar_uses(body), &HashMap::new()).unwrap()
    }

    #[test]
    fn cost_model_is_superlinear() {
        let m = CostModel::default();
        let c1 = m.cost_ns(1);
        let c10 = m.cost_ns(10);
        let c100 = m.cost_ns(100);
        assert!(c10 > 10 * (c1 - m.base_ns));
        assert!(c100 - m.base_ns > 10 * (c10 - m.base_ns));
    }

    #[test]
    fn sync_compile_produces_runnable_trace() {
        let trace = compile(fig2_whole_fragment(), &CostModel::untimed());
        assert!(trace.cost_ns > 0);
        let x = Array::from(vec![1i64, -2, 3]);
        let r = trace.run(&[&x], None).unwrap();
        assert!(!r.arrays.is_empty());
    }

    #[test]
    fn enforced_cost_pads_wall_time() {
        let model = CostModel {
            base_ns: 2_000_000, // 2 ms: large enough to measure reliably
            per_op_ns: 0,
            per_op2_ns: 0,
            enforce: true,
        };
        let t0 = Instant::now();
        let _ = compile(fig2_whole_fragment(), &model);
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn run_tiered_forwards_to_run() {
        let trace = compile(fig2_whole_fragment(), &CostModel::untimed());
        let x = Array::from(vec![1i64, -2, 3, 40, -5, 6]);
        let reference = trace.run(&[&x], None).unwrap();
        let tiered = trace.run_tiered(&[&x], None, true).unwrap();
        assert_eq!(format!("{reference:?}"), format!("{tiered:?}"));
    }
}
