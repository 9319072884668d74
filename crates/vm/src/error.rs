//! VM error type.

use std::fmt;

use adaptvm_dsl::DslError;
use adaptvm_jit::JitError;
use adaptvm_kernels::KernelError;
use adaptvm_storage::scalar::ScalarType;
use adaptvm_storage::StorageError;

/// Errors surfaced while executing a program.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// DSL-level failure (parse/type/transform).
    Dsl(DslError),
    /// Kernel dispatch or execution failure.
    Kernel(KernelError),
    /// Storage failure.
    Storage(StorageError),
    /// JIT failure that could not be recovered by interpretation.
    Jit(JitError),
    /// Reference to an unbound variable at runtime.
    Unbound(String),
    /// Reference to an unknown buffer.
    UnknownBuffer(String),
    /// An input buffer's element type differs from the one the program was
    /// prepared for.
    InputType {
        /// The buffer.
        buffer: String,
        /// The element type in the prepared schema.
        expected: ScalarType,
        /// The element type supplied.
        found: ScalarType,
    },
    /// A runtime value had an unexpected shape (e.g. vector where scalar
    /// expected).
    Shape(String),
    /// The iteration safety limit was exceeded (runaway loop).
    IterationLimit(u64),
    /// The run did not complete on its executor: cancelled via a cancel
    /// token, past its deadline, or refused admission by a shut-down /
    /// draining scheduler or service.
    Cancelled,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Dsl(e) => write!(f, "dsl: {e}"),
            VmError::Kernel(e) => write!(f, "kernel: {e}"),
            VmError::Storage(e) => write!(f, "storage: {e}"),
            VmError::Jit(e) => write!(f, "jit: {e}"),
            VmError::Unbound(v) => write!(f, "unbound variable {v}"),
            VmError::UnknownBuffer(b) => write!(f, "unknown buffer {b}"),
            VmError::InputType {
                buffer,
                expected,
                found,
            } => write!(
                f,
                "input buffer {buffer} is {found:?}, but the program was prepared for {expected:?}"
            ),
            VmError::Shape(m) => write!(f, "shape error: {m}"),
            VmError::IterationLimit(n) => write!(f, "loop exceeded {n} iterations"),
            VmError::Cancelled => write!(f, "run cancelled (token, deadline, or admission)"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<DslError> for VmError {
    fn from(e: DslError) -> VmError {
        VmError::Dsl(e)
    }
}
impl From<KernelError> for VmError {
    fn from(e: KernelError) -> VmError {
        VmError::Kernel(e)
    }
}
impl From<StorageError> for VmError {
    fn from(e: StorageError) -> VmError {
        VmError::Storage(e)
    }
}
impl From<JitError> for VmError {
    fn from(e: JitError) -> VmError {
        VmError::Jit(e)
    }
}
