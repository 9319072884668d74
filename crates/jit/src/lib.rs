//! The template/fusion JIT (§III-B).
//!
//! This crate turns partitioned dependency-graph regions
//! ([`adaptvm_dsl::partition`]) into **compiled traces**: fused,
//! type-specialized single-pass loops with no per-operation dispatch and no
//! intermediate chunk materialization. A trace executes an entire fragment
//! — maps, an optional filter guard, compacted outputs, fold accumulators —
//! in one pass over the lanes, which is exactly what an LLVM backend would
//! emit for the same fragment (see DESIGN.md §2 for the substitution
//! rationale: the adaptive questions the paper studies are *when* to
//! compile, *what* to fuse and *which* trace to dispatch; the trace
//! executor reproduces the performance structure those decisions see).
//!
//! Pipeline:
//! 1. [`builder`] — region → [`ir::TraceIr`] (SSA over lanes),
//! 2. [`passes`] — constant folding, CSE, algebraic simplification, dead
//!    code elimination (real optimization work, iterated to a fixpoint),
//! 3. [`compiler`] — produces a [`CompiledTrace`] under a calibrated
//!    compile-cost model (superlinear in fragment size, mirroring "optimizer
//!    passes tend to take longer with an increasing amount of code"), either
//!    synchronously or on the [`compiler::CompileServer`] background worker
//!    (the Fig. 1 "generate code … inject functions" path),
//! 4. [`cache`] — code cache keyed by (fragment fingerprint, situation),
//!    the VM's multi-trace store ("each optimized for a specific
//!    situation").
//!
//! [`pipeline`] builds whole-pipeline traces directly from normalized loop
//! bodies — run at chunk size 1 this is HyPer-style tuple-at-a-time
//! compiled execution, the paper's second execution-strategy extreme.

pub mod builder;
pub mod cache;
pub mod compiler;
pub mod error;
pub mod ir;
pub mod passes;
pub mod pipeline;

pub use builder::build_fragment;
pub use cache::CodeCache;
pub use compiler::{compile, CompileServer, CompiledTrace, CostModel};
pub use error::JitError;
pub use ir::{LaneType, TraceIr, TraceResult};
