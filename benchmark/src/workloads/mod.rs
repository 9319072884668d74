//! The seven workloads. Six are closed loops with one client (this
//! module's [`Closed`] trait); `serve_mix` is the open loop in
//! [`serve_mix`]. Every operation's result is compared with an answer
//! the sequential oracle computed once during set-up.

pub mod q18;
pub mod q1_scan;
pub mod q6_adaptive;
pub mod q9_join;
pub mod serve_mix;
pub mod vm_cold;

use adaptvm::parallel::{SpillStats, Trace};

use crate::probes::ProbeInputs;
use crate::spans::Recorder;

/// Rows per morsel on every closed-loop workload: the engine's default
/// (16 chunks). Fixed rather than elastic so that the summation tree —
/// and with it every floating-point result — is the one the oracle used.
pub const MORSEL_ROWS: usize = adaptvm::parallel::DEFAULT_MORSEL_ROWS;

/// What a run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    pub seed: u64,
    /// Worker threads of the executors under measurement: one fewer than
    /// `cores`, at least one.
    pub workers: usize,
    /// Cores the engine may use, `min(nproc, 4)`: what `parallel.speedup`
    /// compares one worker with.
    pub cores: usize,
    /// `--smoke`: a tenth of the data (CI shape check, not a measurement).
    pub smoke: bool,
}

impl Env {
    /// `rows`, or a tenth of it in smoke mode.
    pub fn scaled(&self, rows: usize) -> usize {
        if self.smoke {
            rows / 10
        } else {
            rows
        }
    }
}

/// Counters one VM-backed operation reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmCounts {
    pub trace_executions: u64,
    pub native_executions: u64,
}

/// What one operation did besides producing its (verified) result.
#[derive(Debug, Clone, Default)]
pub struct OpOutcome {
    /// The result was produced and equals the oracle's answer.
    pub ok: bool,
    pub vm: Option<VmCounts>,
    pub spill: Option<SpillStats>,
    pub reorders: Option<u64>,
}

impl OpOutcome {
    pub fn failed(why: &str) -> OpOutcome {
        report_failure(why);
        OpOutcome::default()
    }
}

/// Print the first few failure reasons; the count goes into `failed`.
pub fn report_failure(why: &str) {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SHOWN: AtomicU32 = AtomicU32::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("operation failed: {why}");
    }
}

/// Per-operation tracing context. Untraced operations carry `None`
/// everywhere, and [`OpCtx::call`] is then a plain call.
pub struct OpCtx<'a> {
    /// Engine trace to attach to the operation (`ParallelOpts::with_trace`).
    pub trace: Option<&'a Trace>,
    /// Span sink, the operation's root span and its operation id.
    pub spans: Option<(&'a mut Recorder, u32, u32)>,
    /// The span of the last layer call — worker-side intervals recovered
    /// from the engine trace become its children.
    pub last_call: Option<u32>,
}

impl OpCtx<'_> {
    pub fn untraced() -> OpCtx<'static> {
        OpCtx {
            trace: None,
            spans: None,
            last_call: None,
        }
    }

    /// Call into a layer's public function, recording a span around it
    /// when the operation is traced.
    pub fn call<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &mut self.spans {
            Some((rec, root, op)) => {
                let (id, r) = rec.time(Some(*root), layer, name, *op, f);
                self.last_call = Some(id);
                r
            }
            None => f(),
        }
    }
}

/// A closed-loop workload: one client issues the next operation when the
/// previous one has been verified.
pub trait Closed {
    /// Input rows one operation reads.
    fn rows_per_op(&self) -> u64;

    /// Run operation number `i` and compare its result with the oracle's.
    fn op(&self, i: u64, ctx: &mut OpCtx<'_>) -> OpOutcome;

    /// The layer that executes inside this workload's morsels (the engine
    /// trace says *that* a morsel ran, not whose code ran in it).
    fn morsel_layer(&self) -> &'static str;

    /// What the layer probes run on: this workload's own inputs.
    fn probe_inputs(&self) -> ProbeInputs<'_>;
}

/// Build a closed-loop workload by name (set-up: generate the data from
/// the seed, compute the oracle answer, start executors, run nothing).
pub fn build_closed(name: &str, env: Env) -> Result<Box<dyn Closed>, String> {
    Ok(match name {
        "q1_scan" => Box::new(q1_scan::Q1Scan::setup(env)?),
        "q6_adaptive" => Box::new(q6_adaptive::Q6Adaptive::setup(env)?),
        "vm_cold" => Box::new(vm_cold::VmCold::setup(env)?),
        "q9_join" => Box::new(q9_join::Q9Join::setup(env)?),
        "q18_resident" => Box::new(q18::Q18::setup(env, false)?),
        "q18_spill" => Box::new(q18::Q18::setup(env, true)?),
        other => return Err(format!("unknown closed-loop workload {other}")),
    })
}
