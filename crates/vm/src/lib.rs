//! The adaptive VM (paper §III).
//!
//! This crate assembles the whole system of the paper:
//!
//! * [`mod@env`] — named buffers and the variable environment programs run in,
//! * [`interp`] — the vectorized interpreter (§III-A): normalized programs,
//!   chunk-at-a-time execution, pre-compiled kernel dispatch,
//! * [`profile`] — per-operation timing/call/tuple/selectivity profiling
//!   and workload-shift detection,
//! * [`adaptive`] — micro-adaptivity (§III-C): bandit selection among
//!   kernel flavors (filter strategies, full-vs-selective maps),
//! * [`engine`] — the Fig. 1 state machine: Interpret → Optimize →
//!   GenerateCode → InjectFunctions → Interpret, multi-trace dispatch and
//!   execution strategies (vectorized / tuple-at-a-time compiled /
//!   column-at-a-time / fully adaptive),
//! * [`reorder`] — on-the-fly reordering of selective operators (§III-C),
//! * [`placement`] — adaptive device placement over the simulated
//!   heterogeneous substrate (§IV target 3).

pub mod adaptive;
pub mod engine;
pub mod env;
pub mod error;
pub mod interp;
pub mod obs;
pub mod placement;
pub mod profile;
pub mod reorder;

pub use adaptive::{BanditPolicy, FixedPolicy, FlavorPolicy};
pub use engine::{Prepared, RunReport, Strategy, Vm, VmConfig, VmState};
pub use env::{Buffers, Env};
pub use error::VmError;
pub use obs::{install_jit_hook, jit_counters, JitCounters, JitEvent};
pub use profile::Profile;

/// Always `false`. Frozen compatibility function: the `benchmark/` crate
/// still calls it; nothing in the engine does.
#[doc(hidden)]
pub fn native_available() -> bool {
    false
}
