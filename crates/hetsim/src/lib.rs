//! Simulated heterogeneous device substrate (§IV target 3).
//!
//! The paper's third research target runs the VM "on multiple hardware
//! platforms, making adaptive decisions which strategy to use … but also on
//! which hardware". This environment has no GPU or FPGA, so the substrate
//! is **simulated** (see DESIGN.md §2): a [`device::DeviceSpec`] describes
//! a platform's parallelism, per-lane throughput, memory bandwidth, kernel
//! launch latency and host link; [`cost`] turns observed work into
//! **virtual nanoseconds** on that device; [`exec`] actually executes the
//! trace (on the host, optionally sharded across host cores) and charges
//! the virtual clock; [`placement`] picks the device for each execution
//! from predicted costs and corrects itself from observed ones.
//!
//! The crate is a leaf: the VM does not depend on it. A driver compiles a
//! trace with `adaptvm_jit`, asks a [`PlacementPolicy`] for a device, runs
//! the trace there with [`run_trace_on`] and feeds the virtual cost back
//! (see `examples/heterogeneous.rs` and the B6 test in
//! `tests/adaptivity.rs`).
//!
//! What the simulation preserves — and what the placement experiments (B6)
//! measure — is the *decision structure*: small inputs lose on launch +
//! PCIe-transfer latency, large streaming inputs win on parallelism and
//! memory bandwidth, and the crossover moves with transfer volume. Those
//! are properties of the cost model, not of real silicon, and they are
//! exactly the inputs the paper's adaptive placement policy needs.

pub mod cost;
pub mod device;
pub mod exec;
pub mod placement;

pub use cost::{CostBreakdown, VirtualClock};
pub use device::{DeviceKind, DeviceSpec};
pub use exec::{run_trace_on, DeviceRun};
pub use placement::PlacementPolicy;
