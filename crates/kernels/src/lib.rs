//! Pre-compiled vectorized primitives (§III-A).
//!
//! The paper's efficient interpreter needs "specialized functions that
//! operate on a chunk of data in a tight loop … generate and compile these
//! functions during startup through our compilation infrastructure, such
//! that they will be available during runtime with near to zero compilation
//! effort". In Rust, "generate at startup" becomes *monomorphize at build
//! time*: every (operation × type × flavor) combination in this crate is a
//! statically compiled tight loop, dispatched once per chunk.
//!
//! Flavors are the micro-adaptivity axis (§III-C):
//! * maps run **full** (compute every lane — branch-free, SIMD-friendly) or
//!   **selective** (compute only selected lanes — wins at low selectivity);
//! * filters produce selections via a **selection-vector** loop, a
//!   **bitmap** pass, or a **compute-all-then-scan** pass.
//!
//! The [`registry`] module enumerates the combinations so the VM can report
//! and bandit-select among them. The [`hash`] module holds the one hasher
//! of the relational layer's per-row hash tables.

pub mod compressed;
pub mod error;
pub mod filter;
pub mod fold;
pub mod hash;
pub mod lanes;
pub mod map;
pub mod merge;
pub mod movement;
pub mod operand;
pub mod registry;

pub use error::KernelError;
pub use filter::{filter_cmp, FilterFlavor};
pub use fold::fold_apply;
pub use map::{map_apply, scalar_apply, MapMode};
pub use operand::Operand;
