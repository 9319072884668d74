//! JIT error type.

use std::fmt;

/// Errors produced by fragment building and compilation.
///
/// A `JitError` is *not* fatal for the VM: every error path falls back to
/// vectorized interpretation of the affected region (the paper's "the
/// remaining nodes can either be compiled or interpreted").
#[derive(Debug, Clone, PartialEq)]
pub enum JitError {
    /// The region contains an operation the trace executor cannot fuse
    /// (e.g. merge, gather, string ops).
    Unsupported(String),
    /// The region's types cannot be mapped onto one lane type.
    LaneConflict(String),
    /// The region references a variable the builder cannot resolve.
    Unresolved(String),
    /// Register budget exceeded (fragments this wide should have been
    /// stopped by the TLB heuristic).
    TooWide {
        /// Registers required.
        needed: usize,
        /// Register budget.
        budget: usize,
    },
}

impl fmt::Display for JitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitError::Unsupported(m) => write!(f, "unsupported fragment: {m}"),
            JitError::LaneConflict(m) => write!(f, "lane type conflict: {m}"),
            JitError::Unresolved(m) => write!(f, "unresolved variable: {m}"),
            JitError::TooWide { needed, budget } => {
                write!(f, "fragment needs {needed} registers, budget is {budget}")
            }
        }
    }
}

impl std::error::Error for JitError {}
