//! Trace IR: the SSA-over-lanes representation of a compiled fragment, and
//! its fused single-pass executor.
//!
//! A trace models what generated machine code for a fragment does:
//!
//! ```text
//! for each lane i (or each selected lane):
//!     r… = pre_ops(inputs[i])          // unguarded computation
//!     if filter(r…) {                  // at most one filter guard
//!         r… = post_ops(r…)            // guarded computation
//!         emit compacted outputs, bump fold accumulators, record i
//!     }
//!     emit dense outputs
//! ```
//!
//! No intermediate chunk ever touches memory — the paper's deforestation
//! payoff — and the filter guard turns the trace into a tuple-at-a-time
//! pipeline when it spans the whole loop body.
//!
//! Lanes are `i64` or `f64` ([`LaneType`]); narrower integer inputs are
//! widened once per chunk on entry, and outputs are narrowed back to their
//! declared type (which is how compact-data-type traces keep their narrow
//! types at the boundaries). Booleans travel as 0/1 in lane domain.

use adaptvm_dsl::ast::{FoldFn, ScalarOp};
use adaptvm_kernels::lanes::for_each_true;
use adaptvm_kernels::map::hash_str;
use adaptvm_storage::array::Array;
use adaptvm_storage::scalar::{Scalar, ScalarType};
use adaptvm_storage::sel::SelVec;

use crate::error::JitError;

/// Numeric lane domain of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneType {
    /// Exact integer lanes.
    I64,
    /// Floating-point lanes.
    F64,
}

/// An operand of a trace operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// The `i`-th trace input (widened to the lane type).
    Input(usize),
    /// An SSA register written by an earlier op.
    Reg(usize),
    /// Integer immediate.
    ConstI(i64),
    /// Float immediate.
    ConstF(f64),
}

/// One lane-wise operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOp {
    /// The scalar operation.
    pub op: ScalarOp,
    /// Destination register.
    pub dst: usize,
    /// Operands (arity matches `op`).
    pub args: Vec<Src>,
}

/// The (single) filter guard of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterCheck {
    /// Comparison operation.
    pub op: ScalarOp,
    /// Left operand.
    pub lhs: Src,
    /// Right operand.
    pub rhs: Src,
}

/// One declared output of a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputSpec {
    /// A computed array, bound to `name` in the VM environment.
    Array {
        /// Binding name.
        name: String,
        /// Value source.
        src: Src,
        /// When true, emit only lanes passing the filter (pre-condensed).
        compacted: bool,
        /// Declared element type (lanes are narrowed to it).
        out_ty: ScalarType,
    },
    /// The filter's selection vector, bound to `name`; the selection
    /// applies to the flow variable `flow`.
    Sel {
        /// Binding name of the filtered flow.
        name: String,
        /// The variable carrying the physical data being selected.
        flow: String,
    },
    /// A fold accumulated over lanes.
    Fold {
        /// Binding name.
        name: String,
        /// Reduction function (sum/min/max/count).
        f: FoldFn,
        /// Initial value.
        init: Scalar,
        /// Value source per lane.
        src: Src,
        /// When true, accumulate only lanes passing the filter (the fold's
        /// input is downstream of the filter); when false, every lane.
        guarded: bool,
    },
}

impl OutputSpec {
    /// The binding name this output produces.
    pub fn name(&self) -> &str {
        match self {
            OutputSpec::Array { name, .. }
            | OutputSpec::Sel { name, .. }
            | OutputSpec::Fold { name, .. } => name,
        }
    }
}

/// A complete trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceIr {
    /// Lane domain.
    pub lane: LaneType,
    /// Input variable names (`Src::Input(i)` refers to `inputs[i]`).
    pub inputs: Vec<String>,
    /// Number of SSA registers.
    pub n_regs: usize,
    /// Unguarded operations.
    pub pre_ops: Vec<TraceOp>,
    /// Optional filter guard.
    pub filter: Option<FilterCheck>,
    /// Operations guarded by the filter.
    pub post_ops: Vec<TraceOp>,
    /// Declared outputs.
    pub outputs: Vec<OutputSpec>,
}

impl TraceIr {
    /// Total operation count (used by the compile-cost model).
    pub fn op_count(&self) -> usize {
        self.pre_ops.len() + self.post_ops.len() + usize::from(self.filter.is_some())
    }

    /// A fingerprint of the whole trace: FNV-1a over its `Debug` rendering,
    /// so every field counts — lane, input names, every operation and
    /// constant, the filter, and each output's kind, name, source and type.
    /// (Stable within a process, which is as far as a code cache lives.)
    pub fn fingerprint(&self) -> u64 {
        hash_str(&format!("{self:?}")) as u64
    }
}

/// The results of one trace execution over a chunk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceResult {
    /// Computed arrays (dense or compacted).
    pub arrays: Vec<(String, Array)>,
    /// Selections: (binding name, flow variable, selection).
    pub sels: Vec<(String, String, SelVec)>,
    /// Fold results.
    pub scalars: Vec<(String, Scalar)>,
}

// ---------------------------------------------------------------------
// Execution.
//
// A trace is **packed once at compile time** — operands resolved to input
// indices / register indices / lane-domain constants, opcodes validated —
// and then executed with a **block-at-a-time fused loop**: lanes are
// processed in L1-resident blocks of [`BLK`] elements. Per block, every
// operation switches on its opcode and operand shape (slice × slice,
// slice × constant, constant × slice) **once** and then runs one plain
// slice loop — straight over the register file and the input views, with
// nothing decided per lane, so the compiler vectorizes it. Filter masks,
// compacted outputs and fold accumulators are applied blockwise (sums in
// strict lane order). This keeps the SIMD friendliness of vectorized
// execution *and* the no-materialization property of compiled code — the
// combination the paper is after (§I: HyPer-style static code "lacks the
// ability to fully take advantage of hardware parallelism such as SIMD").
//
// A pending-selection (`candidates`) execution runs a per-lane loop
// instead ([`run_selected`], one opcode match per lane and op), which is
// exactly the selective regime where gather-style access defeats SIMD
// anyway. Both loops apply the same [`LaneNum::apply`], so they agree bit
// for bit.

/// Lanes per execution block (fits the register file of any realistic
/// fragment in L1).
const BLK: usize = 256;

/// Dense internal opcode (validated at pack time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum K {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    Neg,
    Abs,
    Sqrt,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Not,
    Hash,
    CastI8,
    CastI16,
    CastI32,
    CastBool,
    Ident,
}

/// A packed operand: pre-resolved input index, register index, or constant
/// in the lane domain.
#[derive(Debug, Clone, Copy)]
enum PSrc<T> {
    In(u32),
    Reg(u32),
    Const(T),
}

/// A packed lane operation.
#[derive(Debug, Clone, Copy)]
struct LOp<T> {
    k: K,
    a: PSrc<T>,
    b: PSrc<T>,
    dst: u32,
}

/// A fully packed, validated trace program over one lane type.
#[derive(Debug, Clone)]
/// A packed, validated program over one lane type (opaque).
pub struct Packed<T> {
    pre: Vec<LOp<T>>,
    post: Vec<LOp<T>>,
    filter: Option<(K, PSrc<T>, PSrc<T>)>,
    dense: Vec<(usize, PSrc<T>)>,
    compact: Vec<(usize, PSrc<T>)>,
    sel_slots: Vec<usize>,
    folds: Vec<(usize, FoldFn, PSrc<T>, bool)>,
    inits: Vec<(T, i64)>,
    n_regs: usize,
    arr_count: usize,
    sel_count: usize,
}

/// The packed program, tagged by lane type.
#[derive(Debug, Clone)]
pub enum PackedProgram {
    /// Integer lanes.
    I64(Packed<i64>),
    /// Float lanes.
    F64(Packed<f64>),
}

/// Lane-domain arithmetic, monomorphized per lane type.
pub(crate) trait LaneNum: Copy + Default + PartialOrd + 'static {
    fn from_scalar(s: &Scalar) -> Option<Self>;
    fn from_i64c(v: i64) -> Self;
    fn from_f64c(v: f64) -> Self;
    /// True when this lane domain implements the opcode.
    fn supports(k: K) -> bool;
    /// Apply a (validated) opcode.
    fn apply(k: K, a: Self, b: Self) -> Self;
    fn fold_add(a: Self, b: Self) -> Self;
    fn to_scalar(self, init: &Scalar) -> Scalar;
    fn narrow(v: Vec<Self>, ty: ScalarType) -> Array;
    /// Borrow the payload when the array already has the lane type.
    fn view(a: &Array) -> Option<&[Self]>;
    /// Widen any compatible array to owned lanes.
    fn widen(a: &Array) -> Option<Vec<Self>>;
}

impl LaneNum for i64 {
    #[inline(always)]
    fn from_scalar(s: &Scalar) -> Option<i64> {
        s.as_i64()
    }
    #[inline(always)]
    fn from_i64c(v: i64) -> i64 {
        v
    }
    #[inline(always)]
    fn from_f64c(v: f64) -> i64 {
        v as i64
    }
    fn supports(k: K) -> bool {
        k != K::Sqrt
    }
    #[inline(always)]
    fn apply(k: K, a: i64, b: i64) -> i64 {
        match k {
            K::Add => a.wrapping_add(b),
            K::Sub => a.wrapping_sub(b),
            K::Mul => a.wrapping_mul(b),
            K::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            K::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            K::Min => a.min(b),
            K::Max => a.max(b),
            K::Neg => a.wrapping_neg(),
            K::Abs => a.wrapping_abs(),
            K::Sqrt => unreachable!("validated at pack time"),
            K::Eq => (a == b) as i64,
            K::Ne => (a != b) as i64,
            K::Lt => (a < b) as i64,
            K::Le => (a <= b) as i64,
            K::Gt => (a > b) as i64,
            K::Ge => (a >= b) as i64,
            K::And => ((a != 0) && (b != 0)) as i64,
            K::Or => ((a != 0) || (b != 0)) as i64,
            K::Not => (a == 0) as i64,
            K::Hash => adaptvm_kernels::map::hash_i64(a),
            K::CastI8 => a as i8 as i64,
            K::CastI16 => a as i16 as i64,
            K::CastI32 => a as i32 as i64,
            K::CastBool => (a != 0) as i64,
            K::Ident => a,
        }
    }
    #[inline(always)]
    fn fold_add(a: i64, b: i64) -> i64 {
        a.wrapping_add(b)
    }
    fn to_scalar(self, init: &Scalar) -> Scalar {
        Scalar::int_of_type(
            self,
            init.scalar_type()
                .promote(ScalarType::I64)
                .unwrap_or(ScalarType::I64),
        )
    }
    fn narrow(v: Vec<i64>, ty: ScalarType) -> Array {
        match ty {
            ScalarType::I8 => Array::I8(v.iter().map(|&x| x as i8).collect()),
            ScalarType::I16 => Array::I16(v.iter().map(|&x| x as i16).collect()),
            ScalarType::I32 => Array::I32(v.iter().map(|&x| x as i32).collect()),
            ScalarType::F64 => Array::F64(v.iter().map(|&x| x as f64).collect()),
            ScalarType::Bool => Array::Bool(v.iter().map(|&x| x != 0).collect()),
            _ => Array::I64(v),
        }
    }
    fn view(a: &Array) -> Option<&[i64]> {
        a.as_i64()
    }
    fn widen(a: &Array) -> Option<Vec<i64>> {
        match a {
            Array::Bool(v) => Some(v.iter().map(|&b| b as i64).collect()),
            other => other.to_i64_vec(),
        }
    }
}

/// A boolean in the `f64` lane domain (1.0 / 0.0). A select, not an
/// integer conversion, so block loops lower it to a vector mask-and.
#[inline(always)]
fn truth(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

impl LaneNum for f64 {
    #[inline(always)]
    fn from_scalar(s: &Scalar) -> Option<f64> {
        s.as_f64()
    }
    #[inline(always)]
    fn from_i64c(v: i64) -> f64 {
        v as f64
    }
    #[inline(always)]
    fn from_f64c(v: f64) -> f64 {
        v
    }
    fn supports(k: K) -> bool {
        k != K::Hash
    }
    #[inline(always)]
    fn apply(k: K, a: f64, b: f64) -> f64 {
        match k {
            K::Add => a + b,
            K::Sub => a - b,
            K::Mul => a * b,
            K::Div => a / b,
            K::Rem => a % b,
            K::Min => a.min(b),
            K::Max => a.max(b),
            K::Neg => -a,
            K::Abs => a.abs(),
            K::Sqrt => a.sqrt(),
            K::Eq => truth(a == b),
            K::Ne => truth(a != b),
            K::Lt => truth(a < b),
            K::Le => truth(a <= b),
            K::Gt => truth(a > b),
            K::Ge => truth(a >= b),
            K::And => truth((a != 0.0) && (b != 0.0)),
            K::Or => truth((a != 0.0) || (b != 0.0)),
            K::Not => truth(a == 0.0),
            K::Hash => unreachable!("validated at pack time"),
            K::CastI8 => a as i8 as f64,
            K::CastI16 => a as i16 as f64,
            K::CastI32 => a as i32 as f64,
            K::CastBool => truth(a != 0.0),
            K::Ident => a,
        }
    }
    #[inline(always)]
    fn fold_add(a: f64, b: f64) -> f64 {
        a + b
    }
    fn to_scalar(self, _init: &Scalar) -> Scalar {
        Scalar::F64(self)
    }
    fn narrow(v: Vec<f64>, ty: ScalarType) -> Array {
        match ty {
            ScalarType::I8 => Array::I8(v.iter().map(|&x| x as i8).collect()),
            ScalarType::I16 => Array::I16(v.iter().map(|&x| x as i16).collect()),
            ScalarType::I32 => Array::I32(v.iter().map(|&x| x as i32).collect()),
            ScalarType::I64 => Array::I64(v.iter().map(|&x| x as i64).collect()),
            ScalarType::Bool => Array::Bool(v.iter().map(|&x| x != 0.0).collect()),
            _ => Array::F64(v),
        }
    }
    fn view(a: &Array) -> Option<&[f64]> {
        a.as_f64()
    }
    fn widen(a: &Array) -> Option<Vec<f64>> {
        match a {
            Array::Bool(v) => Some(v.iter().map(|&b| b as i64 as f64).collect()),
            other => other.to_f64_vec(),
        }
    }
}

pub(crate) fn kind_of(op: ScalarOp) -> Result<K, JitError> {
    Ok(match op {
        ScalarOp::Add => K::Add,
        ScalarOp::Sub => K::Sub,
        ScalarOp::Mul => K::Mul,
        ScalarOp::Div => K::Div,
        ScalarOp::Rem => K::Rem,
        ScalarOp::Min => K::Min,
        ScalarOp::Max => K::Max,
        ScalarOp::Neg => K::Neg,
        ScalarOp::Abs => K::Abs,
        ScalarOp::Sqrt => K::Sqrt,
        ScalarOp::Eq => K::Eq,
        ScalarOp::Ne => K::Ne,
        ScalarOp::Lt => K::Lt,
        ScalarOp::Le => K::Le,
        ScalarOp::Gt => K::Gt,
        ScalarOp::Ge => K::Ge,
        ScalarOp::And => K::And,
        ScalarOp::Or => K::Or,
        ScalarOp::Not => K::Not,
        ScalarOp::Hash => K::Hash,
        ScalarOp::Cast(ScalarType::I8) => K::CastI8,
        ScalarOp::Cast(ScalarType::I16) => K::CastI16,
        ScalarOp::Cast(ScalarType::I32) => K::CastI32,
        ScalarOp::Cast(ScalarType::I64) | ScalarOp::Cast(ScalarType::F64) => K::Ident,
        ScalarOp::Cast(ScalarType::Bool) => K::CastBool,
        other => return Err(JitError::Unsupported(format!("{other:?} in trace"))),
    })
}

fn pack_src<T: LaneNum>(s: &Src, n_inputs: usize, n_regs: usize) -> Result<PSrc<T>, JitError> {
    Ok(match s {
        Src::Input(k) => {
            if *k >= n_inputs {
                return Err(JitError::Unresolved(format!("input #{k} out of range")));
            }
            PSrc::In(*k as u32)
        }
        Src::Reg(r) => {
            if *r >= n_regs {
                return Err(JitError::Unresolved(format!("register #{r} out of range")));
            }
            PSrc::Reg(*r as u32)
        }
        Src::ConstI(v) => PSrc::Const(T::from_i64c(*v)),
        Src::ConstF(v) => PSrc::Const(T::from_f64c(*v)),
    })
}

fn pack_ops<T: LaneNum>(
    ops: &[TraceOp],
    n_inputs: usize,
    n_regs: usize,
) -> Result<Vec<LOp<T>>, JitError> {
    ops.iter()
        .map(|op| {
            let k = kind_of(op.op)?;
            if !T::supports(k) {
                return Err(JitError::Unsupported(format!(
                    "{:?} in this lane domain",
                    op.op
                )));
            }
            if op.dst >= n_regs {
                return Err(JitError::Unresolved(format!(
                    "destination register #{} out of range",
                    op.dst
                )));
            }
            let a = pack_src(&op.args[0], n_inputs, n_regs)?;
            let b = match op.args.get(1) {
                Some(s) => pack_src(s, n_inputs, n_regs)?,
                None => PSrc::Const(T::default()),
            };
            Ok(LOp {
                k,
                a,
                b,
                dst: op.dst as u32,
            })
        })
        .collect()
}

fn pack_typed<T: LaneNum>(ir: &TraceIr) -> Result<Packed<T>, JitError> {
    let n_regs = ir.n_regs.max(1);
    let n_inputs = ir.inputs.len();
    let pre = pack_ops::<T>(&ir.pre_ops, n_inputs, n_regs)?;
    let post = pack_ops::<T>(&ir.post_ops, n_inputs, n_regs)?;
    let filter = match &ir.filter {
        None => None,
        Some(fc) => {
            let k = kind_of(fc.op)?;
            if !matches!(k, K::Eq | K::Ne | K::Lt | K::Le | K::Gt | K::Ge) {
                return Err(JitError::Unsupported(format!("filter op {:?}", fc.op)));
            }
            Some((
                k,
                pack_src::<T>(&fc.lhs, n_inputs, n_regs)?,
                pack_src::<T>(&fc.rhs, n_inputs, n_regs)?,
            ))
        }
    };
    let mut packed = Packed {
        pre,
        post,
        filter,
        dense: Vec::new(),
        compact: Vec::new(),
        sel_slots: Vec::new(),
        folds: Vec::new(),
        inits: Vec::new(),
        n_regs,
        arr_count: 0,
        sel_count: 0,
    };
    let mut fold_count = 0usize;
    for o in &ir.outputs {
        match o {
            OutputSpec::Array { src, compacted, .. } => {
                let slot = packed.arr_count;
                packed.arr_count += 1;
                let ps = pack_src(src, n_inputs, n_regs)?;
                if *compacted {
                    packed.compact.push((slot, ps));
                } else {
                    packed.dense.push((slot, ps));
                }
            }
            OutputSpec::Sel { .. } => {
                packed.sel_slots.push(packed.sel_count);
                packed.sel_count += 1;
            }
            OutputSpec::Fold {
                f,
                src,
                guarded,
                init,
                ..
            } => {
                if !matches!(f, FoldFn::Sum | FoldFn::Min | FoldFn::Max | FoldFn::Count) {
                    return Err(JitError::Unsupported(format!("fold {f:?} in trace")));
                }
                let iv = T::from_scalar(init)
                    .ok_or_else(|| JitError::Unsupported(format!("fold init {init:?}")))?;
                packed
                    .folds
                    .push((fold_count, *f, pack_src(src, n_inputs, n_regs)?, *guarded));
                packed.inits.push((iv, init.as_i64().unwrap_or(0)));
                fold_count += 1;
            }
        }
    }
    Ok(packed)
}

impl TraceIr {
    /// Pack and validate the trace for execution (done once at compile
    /// time; [`execute`] packs on the fly for ad-hoc runs).
    pub fn pack(&self) -> Result<PackedProgram, JitError> {
        Ok(match self.lane {
            LaneType::I64 => PackedProgram::I64(pack_typed::<i64>(self)?),
            LaneType::F64 => PackedProgram::F64(pack_typed::<f64>(self)?),
        })
    }
}

/// Read one operand (lane loop).
///
/// # Safety contract (upheld by `pack_typed` + `run_packed`)
/// * every `PSrc::In(k)` has `k < views.len()`, and all views are at least
///   the common chunk length (checked on entry),
/// * every `PSrc::Reg(r)` has `r < regs.len()`.
#[inline(always)]
fn rd<T: LaneNum>(views: &[&[T]], regs: &[T], i: usize, s: PSrc<T>) -> T {
    match s {
        PSrc::In(k) => {
            debug_assert!((k as usize) < views.len() && i < views[k as usize].len());
            // SAFETY: `pack_src` bounds every input operand by the program's
            // input count, `run_packed` checks one view per input, all of
            // the chunk length, and every lane index is below that length.
            unsafe { *views.get_unchecked(k as usize).get_unchecked(i) }
        }
        PSrc::Reg(r) => {
            debug_assert!((r as usize) < regs.len());
            // SAFETY: `pack_src` bounds every register operand by `n_regs`,
            // the length `regs` is allocated with.
            unsafe { *regs.get_unchecked(r as usize) }
        }
        PSrc::Const(c) => c,
    }
}

/// Owned-or-borrowed lane storage for one input.
enum LaneStore<'a, T> {
    Borrowed(&'a [T]),
    Owned(Vec<T>),
}

/// One operand of a block operation, resolved for the whole block.
#[derive(Clone, Copy)]
enum Blk<'a, T> {
    Slice(&'a [T]),
    Const(T),
}

/// The block register file: one [`BLK`]-lane row per SSA register.
type Regs<T> = Vec<[T; BLK]>;

/// Resolve a block operand to a slice (registers/inputs) or a constant.
#[inline(always)]
fn block_operand<'b, T: LaneNum>(
    s: PSrc<T>,
    views: &[&'b [T]],
    regs: &'b [[T; BLK]],
    base: usize,
    len: usize,
) -> Blk<'b, T> {
    match s {
        PSrc::In(k) => Blk::Slice(&views[k as usize][base..base + len]),
        PSrc::Reg(r) => Blk::Slice(&regs[r as usize][..len]),
        PSrc::Const(c) => Blk::Const(c),
    }
}

/// `out[j] = f(a[j], b[j])`: the operand shape is matched once, each arm
/// is a slice loop with nothing to decide per lane.
#[inline(always)]
fn zip_block<T: Copy, R>(out: &mut [R], a: Blk<'_, T>, b: Blk<'_, T>, f: impl Fn(T, T) -> R) {
    match (a, b) {
        (Blk::Slice(a), Blk::Slice(b)) => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
        (Blk::Slice(a), Blk::Const(c)) => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = f(x, c);
            }
        }
        (Blk::Const(c), Blk::Slice(b)) => {
            for (o, &y) in out.iter_mut().zip(b) {
                *o = f(c, y);
            }
        }
        (Blk::Const(c), Blk::Const(d)) => {
            for o in out.iter_mut() {
                *o = f(c, d);
            }
        }
    }
}

/// Switch on the opcode once, then run its slice loop. Every arm applies
/// [`LaneNum::apply`] with a constant opcode (the per-lane match folds
/// away), so block and per-lane execution share one definition of each
/// operation.
#[inline(always)]
fn dispatch_block<T: LaneNum>(k: K, out: &mut [T], a: Blk<'_, T>, b: Blk<'_, T>) {
    macro_rules! arms {
        ($($op:ident)*) => {
            match k {
                $(K::$op => zip_block(out, a, b, |x, y| T::apply(K::$op, x, y)),)*
            }
        };
    }
    arms!(Add Sub Mul Div Rem Min Max Neg Abs Sqrt Eq Ne Lt Le Gt Ge And Or Not Hash
          CastI8 CastI16 CastI32 CastBool Ident)
}

/// Apply one op over a block, reading operands straight from the input
/// views and the register file and writing the destination register.
#[inline(always)]
fn apply_block<T: LaneNum>(
    op: &LOp<T>,
    views: &[&[T]],
    regs: &mut [[T; BLK]],
    base: usize,
    len: usize,
) {
    let d = op.dst as usize;
    // Split the register file around the destination so the sources can
    // be borrowed beside it; a source that *is* the destination (only
    // hand-built IR — the builder emits SSA) is staged through a copy.
    let (lo, rest) = regs.split_at_mut(d);
    let (dst, hi) = rest.split_first_mut().expect("dst validated at pack time");
    let aliased = [op.a, op.b]
        .iter()
        .any(|s| matches!(s, PSrc::Reg(r) if *r as usize == d));
    // (Copied only when aliased: `then_some` would copy a block per op.)
    let staged = if aliased { Some(*dst) } else { None };
    let operand = |s: PSrc<T>| match s {
        PSrc::In(k) => Blk::Slice(&views[k as usize][base..base + len]),
        PSrc::Reg(r) if (r as usize) < d => Blk::Slice(&lo[r as usize][..len]),
        PSrc::Reg(r) if (r as usize) > d => Blk::Slice(&hi[r as usize - d - 1][..len]),
        PSrc::Reg(_) => Blk::Slice(&staged.as_ref().expect("staged when aliased")[..len]),
        PSrc::Const(c) => Blk::Const(c),
    };
    dispatch_block(op.k, &mut dst[..len], operand(op.a), operand(op.b));
}

/// Append `lane(j)` for every lane with `mask[j]`, without a per-lane
/// branch: every lane is written, the cursor only advances on a hit.
#[inline(always)]
fn compact_into<V: Copy + Default>(buf: &mut Vec<V>, mask: &[bool], lane: impl Fn(usize) -> V) {
    let start = buf.len();
    buf.resize(start + mask.len(), V::default());
    let mut k = start;
    for (j, &m) in mask.iter().enumerate() {
        buf[k] = lane(j);
        k += m as usize;
    }
    buf.truncate(k);
}

/// Block-vectorized execution over all lanes (no pending selection),
/// on the widest vector unit the CPU has.
fn run_blocks<T: LaneNum>(ir: &TraceIr, p: &Packed<T>, views: &[&[T]], n: usize) -> TraceResult {
    #[cfg(target_arch = "x86_64")]
    if adaptvm_kernels::lanes::avx2_enabled() {
        // SAFETY: `avx2_enabled()` just observed AVX2 support on this CPU.
        return unsafe { run_blocks_avx2(ir, p, views, n) };
    }
    run_blocks_body(ir, p, views, n)
}

/// [`run_blocks_body`] compiled with AVX2 enabled: the same Rust loops
/// (every helper down to [`LaneNum::apply`] is `#[inline(always)]`, so
/// they are re-vectorized here), hence bit-identical lanes.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_blocks_avx2<T: LaneNum>(
    ir: &TraceIr,
    p: &Packed<T>,
    views: &[&[T]],
    n: usize,
) -> TraceResult {
    run_blocks_body(ir, p, views, n)
}

#[inline(always)]
fn run_blocks_body<T: LaneNum>(
    ir: &TraceIr,
    p: &Packed<T>,
    views: &[&[T]],
    n: usize,
) -> TraceResult {
    let mut regs: Regs<T> = vec![[T::default(); BLK]; p.n_regs];
    let mut mask = [true; BLK];
    let mut arr_bufs: Vec<Vec<T>> = (0..p.arr_count).map(|_| Vec::with_capacity(n)).collect();
    let mut sel_bufs: Vec<Vec<u32>> = (0..p.sel_count).map(|_| Vec::new()).collect();
    let mut accs: Vec<(T, i64)> = p.inits.clone();

    let mut base = 0;
    while base < n {
        let len = BLK.min(n - base);
        for op in &p.pre {
            apply_block(op, views, &mut regs, base, len);
        }
        if let Some((k, lhs, rhs)) = p.filter {
            // Evaluate the mask blockwise (branch-free comparison loop).
            let a = block_operand(lhs, views, &regs, base, len);
            let b = block_operand(rhs, views, &regs, base, len);
            let mask = &mut mask[..len];
            match k {
                K::Eq => zip_block(mask, a, b, |x, y| x == y),
                K::Ne => zip_block(mask, a, b, |x, y| x != y),
                K::Lt => zip_block(mask, a, b, |x, y| x < y),
                K::Le => zip_block(mask, a, b, |x, y| x <= y),
                K::Gt => zip_block(mask, a, b, |x, y| x > y),
                K::Ge => zip_block(mask, a, b, |x, y| x >= y),
                _ => unreachable!("validated at pack time"),
            }
        }
        // Guarded ops run on the whole block branch-free: non-passing
        // lanes compute unused values (division is total, so this is safe).
        for op in &p.post {
            apply_block(op, views, &mut regs, base, len);
        }
        // Dense outputs: straight block append.
        for &(slot, src) in &p.dense {
            match block_operand(src, views, &regs, base, len) {
                Blk::Slice(s) => arr_bufs[slot].extend_from_slice(s),
                Blk::Const(c) => arr_bufs[slot].extend(std::iter::repeat_n(c, len)),
            }
        }
        if p.filter.is_none() {
            for &(slot, src) in &p.compact {
                match block_operand(src, views, &regs, base, len) {
                    Blk::Slice(s) => arr_bufs[slot].extend_from_slice(s),
                    Blk::Const(c) => arr_bufs[slot].extend(std::iter::repeat_n(c, len)),
                }
            }
            for &slot in &p.sel_slots {
                sel_bufs[slot].extend((base..base + len).map(|i| i as u32));
            }
            for &(slot, f, src, _) in &p.folds {
                let src = block_operand(src, views, &regs, base, len);
                fold_block(f, src, len, None, &mut accs[slot]);
            }
        } else {
            let mask = &mask[..len];
            for &(slot, src) in &p.compact {
                match block_operand(src, views, &regs, base, len) {
                    Blk::Slice(s) => compact_into(&mut arr_bufs[slot], mask, |j| s[j]),
                    Blk::Const(c) => compact_into(&mut arr_bufs[slot], mask, |_| c),
                }
            }
            for &slot in &p.sel_slots {
                compact_into(&mut sel_bufs[slot], mask, |j| (base + j) as u32);
            }
            for &(slot, f, src, guarded) in &p.folds {
                let src = block_operand(src, views, &regs, base, len);
                fold_block(f, src, len, guarded.then_some(mask), &mut accs[slot]);
            }
        }
        base += len;
    }
    assemble(ir, arr_bufs, sel_bufs, accs)
}

/// Blockwise fold update, strictly in lane order.
///
/// A masked sum is *defined* as adding the lane type's zero for every
/// non-passing lane, exactly as the per-lane executor does. Adding zero
/// leaves an accumulator unchanged except that it turns `-0.0` into
/// `+0.0`, and a sum can only still be `-0.0` while everything added so
/// far was `-0.0` — so a block adds only its passing lanes (found a word
/// of mask at a time) and then one zero if it skipped any: the same bits,
/// without feeding 256 lanes through the add chain.
#[inline(always)]
fn fold_block<T: LaneNum>(
    f: FoldFn,
    src: Blk<'_, T>,
    len: usize,
    mask: Option<&[bool]>,
    acc: &mut (T, i64),
) {
    let lane = |j: usize| match src {
        Blk::Slice(s) => s[j],
        Blk::Const(c) => c,
    };
    match (f, mask) {
        (FoldFn::Sum, None) => {
            let mut a = acc.0;
            for j in 0..len {
                a = T::fold_add(a, lane(j));
            }
            acc.0 = a;
        }
        (FoldFn::Sum, Some(m)) => {
            let mut a = acc.0;
            let mut hits = 0;
            for_each_true(m, |j| {
                a = T::fold_add(a, lane(j));
                hits += 1;
            });
            if hits < len {
                a = T::fold_add(a, T::default());
            }
            acc.0 = a;
        }
        (FoldFn::Min, m) => {
            for j in 0..len {
                if m.is_none_or(|m| m[j]) && lane(j) < acc.0 {
                    acc.0 = lane(j);
                }
            }
        }
        (FoldFn::Max, m) => {
            for j in 0..len {
                if m.is_none_or(|m| m[j]) && lane(j) > acc.0 {
                    acc.0 = lane(j);
                }
            }
        }
        (FoldFn::Count, None) => acc.1 += len as i64,
        (FoldFn::Count, Some(m)) => {
            acc.1 += m[..len].iter().map(|&b| b as i64).sum::<i64>();
        }
        _ => unreachable!("validated at pack time"),
    }
}

/// Per-lane execution over a pending selection (gathered access pattern).
fn run_selected<T: LaneNum>(
    ir: &TraceIr,
    p: &Packed<T>,
    views: &[&[T]],
    candidates: &SelVec,
) -> TraceResult {
    let mut regs: Vec<T> = vec![T::default(); p.n_regs];
    let mut arr_bufs: Vec<Vec<T>> = (0..p.arr_count)
        .map(|_| Vec::with_capacity(candidates.len()))
        .collect();
    let mut sel_bufs: Vec<Vec<u32>> = (0..p.sel_count).map(|_| Vec::new()).collect();
    let mut accs: Vec<(T, i64)> = p.inits.clone();

    for &iu in candidates.indices() {
        let i = iu as usize;
        for op in &p.pre {
            let a = rd(views, &regs, i, op.a);
            let b = rd(views, &regs, i, op.b);
            debug_assert!((op.dst as usize) < regs.len());
            // SAFETY: `pack_ops` bounds every destination by `n_regs`, the
            // length `regs` is allocated with.
            unsafe { *regs.get_unchecked_mut(op.dst as usize) = T::apply(op.k, a, b) };
        }
        let passes = match p.filter {
            None => true,
            Some((k, lhs, rhs)) => {
                let a = rd(views, &regs, i, lhs);
                let b = rd(views, &regs, i, rhs);
                match k {
                    K::Eq => a == b,
                    K::Ne => a != b,
                    K::Lt => a < b,
                    K::Le => a <= b,
                    K::Gt => a > b,
                    K::Ge => a >= b,
                    _ => unreachable!("validated at pack time"),
                }
            }
        };
        if passes {
            for op in &p.post {
                let a = rd(views, &regs, i, op.a);
                let b = rd(views, &regs, i, op.b);
                debug_assert!((op.dst as usize) < regs.len());
                // SAFETY: `pack_ops` bounds every destination by `n_regs`,
                // the length `regs` is allocated with.
                unsafe { *regs.get_unchecked_mut(op.dst as usize) = T::apply(op.k, a, b) };
            }
            for &(slot, src) in &p.compact {
                let v = rd(views, &regs, i, src);
                arr_bufs[slot].push(v);
            }
            for &slot in &p.sel_slots {
                sel_bufs[slot].push(iu);
            }
        }
        for &(slot, src) in &p.dense {
            let v = rd(views, &regs, i, src);
            arr_bufs[slot].push(v);
        }
        for &(slot, f, src, guarded) in &p.folds {
            if passes || !guarded {
                let v = rd(views, &regs, i, src);
                let acc = &mut accs[slot];
                match f {
                    FoldFn::Sum => acc.0 = T::fold_add(acc.0, v),
                    FoldFn::Min => {
                        if v < acc.0 {
                            acc.0 = v;
                        }
                    }
                    FoldFn::Max => {
                        if v > acc.0 {
                            acc.0 = v;
                        }
                    }
                    FoldFn::Count => acc.1 += 1,
                    _ => unreachable!("validated at pack time"),
                }
            }
        }
    }
    assemble(ir, arr_bufs, sel_bufs, accs)
}

/// Assemble a [`TraceResult`] in output declaration order.
pub(crate) fn assemble<T: LaneNum>(
    ir: &TraceIr,
    mut arr_bufs: Vec<Vec<T>>,
    mut sel_bufs: Vec<Vec<u32>>,
    accs: Vec<(T, i64)>,
) -> TraceResult {
    let mut result = TraceResult::default();
    let (mut ai, mut si, mut fi) = (0usize, 0usize, 0usize);
    for o in &ir.outputs {
        match o {
            OutputSpec::Array { name, out_ty, .. } => {
                let lanes = std::mem::take(&mut arr_bufs[ai]);
                result
                    .arrays
                    .push((name.clone(), T::narrow(lanes, *out_ty)));
                ai += 1;
            }
            OutputSpec::Sel { name, flow } => {
                result.sels.push((
                    name.clone(),
                    flow.clone(),
                    SelVec::new(std::mem::take(&mut sel_bufs[si])),
                ));
                si += 1;
            }
            OutputSpec::Fold { name, f, init, .. } => {
                let (acc, count) = accs[fi];
                let scalar = match f {
                    FoldFn::Count => Scalar::I64(count),
                    _ => acc.to_scalar(init),
                };
                result.scalars.push((name.clone(), scalar));
                fi += 1;
            }
        }
    }
    result
}

/// Run a packed program over chunk inputs.
pub(crate) fn run_packed_typed<T: LaneNum>(
    ir: &TraceIr,
    p: &Packed<T>,
    inputs: &[&Array],
    n: usize,
    candidates: Option<&SelVec>,
) -> Result<TraceResult, JitError> {
    // Widen inputs once per chunk; borrowed views when types already match.
    let stores: Vec<LaneStore<'_, T>> = inputs
        .iter()
        .map(|a| match T::view(a) {
            Some(s) => Ok(LaneStore::Borrowed(s)),
            None => T::widen(a).map(LaneStore::Owned).ok_or_else(|| {
                JitError::LaneConflict(format!("{} in trace lanes", a.scalar_type()))
            }),
        })
        .collect::<Result<_, _>>()?;
    let views: Vec<&[T]> = stores
        .iter()
        .map(|s| match s {
            LaneStore::Borrowed(v) => *v,
            LaneStore::Owned(v) => v.as_slice(),
        })
        .collect();
    Ok(match candidates {
        None => run_blocks(ir, p, &views, n),
        Some(sel) => {
            // Candidate indices must be within the chunk.
            if let Some(&max) = sel.indices().last() {
                if max as usize >= n {
                    return Err(JitError::Unresolved(format!(
                        "candidate index {max} out of chunk of {n}"
                    )));
                }
            }
            run_selected(ir, p, &views, sel)
        }
    })
}

/// Run a packed program (dispatching on the lane tag).
pub fn run_packed(
    ir: &TraceIr,
    packed: &PackedProgram,
    inputs: &[&Array],
    candidates: Option<&SelVec>,
) -> Result<TraceResult, JitError> {
    if inputs.len() != ir.inputs.len() {
        return Err(JitError::Unresolved(format!(
            "trace expects {} inputs, got {}",
            ir.inputs.len(),
            inputs.len()
        )));
    }
    let n = inputs.first().map_or(0, |a| a.len());
    for a in inputs {
        if a.len() != n {
            return Err(JitError::Unresolved("trace input length mismatch".into()));
        }
    }
    match packed {
        PackedProgram::I64(p) => run_packed_typed(ir, p, inputs, n, candidates),
        PackedProgram::F64(p) => run_packed_typed(ir, p, inputs, n, candidates),
    }
}

/// Execute a trace over chunk `inputs` (equal-length arrays matching
/// `ir.inputs`). `candidates` restricts execution to already-selected lanes
/// (a pending selection on the incoming flow).
pub fn execute(
    ir: &TraceIr,
    inputs: &[&Array],
    candidates: Option<&SelVec>,
) -> Result<TraceResult, JitError> {
    let packed = ir.pack()?;
    run_packed(ir, &packed, inputs, candidates)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// out = (x * 2) + 3, dense.
    fn simple_map_ir() -> TraceIr {
        TraceIr {
            lane: LaneType::I64,
            inputs: vec!["x".into()],
            n_regs: 2,
            pre_ops: vec![
                TraceOp {
                    op: ScalarOp::Mul,
                    dst: 0,
                    args: vec![Src::Input(0), Src::ConstI(2)],
                },
                TraceOp {
                    op: ScalarOp::Add,
                    dst: 1,
                    args: vec![Src::Reg(0), Src::ConstI(3)],
                },
            ],
            filter: None,
            post_ops: vec![],
            outputs: vec![OutputSpec::Array {
                name: "out".into(),
                src: Src::Reg(1),
                compacted: false,
                out_ty: ScalarType::I64,
            }],
        }
    }

    #[test]
    fn dense_map_trace() {
        let ir = simple_map_ir();
        let x = Array::from(vec![1i64, 2, 3]);
        let r = execute(&ir, &[&x], None).unwrap();
        assert_eq!(r.arrays[0].1, Array::from(vec![5i64, 7, 9]));
    }

    /// Fig. 2-like: a = 2*x, sel = a > 0, b = condense(a), plus sum(b).
    fn filter_pipeline_ir() -> TraceIr {
        TraceIr {
            lane: LaneType::I64,
            inputs: vec!["input".into()],
            n_regs: 1,
            pre_ops: vec![TraceOp {
                op: ScalarOp::Mul,
                dst: 0,
                args: vec![Src::ConstI(2), Src::Input(0)],
            }],
            filter: Some(FilterCheck {
                op: ScalarOp::Gt,
                lhs: Src::Reg(0),
                rhs: Src::ConstI(0),
            }),
            post_ops: vec![],
            outputs: vec![
                OutputSpec::Array {
                    name: "a".into(),
                    src: Src::Reg(0),
                    compacted: false,
                    out_ty: ScalarType::I64,
                },
                OutputSpec::Sel {
                    name: "t".into(),
                    flow: "a".into(),
                },
                OutputSpec::Array {
                    name: "b".into(),
                    src: Src::Reg(0),
                    compacted: true,
                    out_ty: ScalarType::I64,
                },
                OutputSpec::Fold {
                    name: "s".into(),
                    f: FoldFn::Sum,
                    init: Scalar::I64(0),
                    src: Src::Reg(0),
                    guarded: true,
                },
            ],
        }
    }

    #[test]
    fn fused_filter_pipeline() {
        let ir = filter_pipeline_ir();
        let x = Array::from(vec![1i64, -2, 3, -4]);
        let r = execute(&ir, &[&x], None).unwrap();
        // Dense output a.
        assert_eq!(r.arrays[0].1, Array::from(vec![2i64, -4, 6, -8]));
        // Compacted output b.
        assert_eq!(r.arrays[1].1, Array::from(vec![2i64, 6]));
        // Selection on a.
        assert_eq!(r.sels[0].2.indices(), &[0, 2]);
        assert_eq!(r.sels[0].1, "a");
        // Fold accumulates passing lanes only.
        assert_eq!(r.scalars[0].1, Scalar::I64(8));
    }

    #[test]
    fn candidates_restrict_lanes() {
        let ir = filter_pipeline_ir();
        let x = Array::from(vec![1i64, -2, 3, -4]);
        let sel = SelVec::new(vec![0, 1]);
        let r = execute(&ir, &[&x], Some(&sel)).unwrap();
        // Only lanes 0,1 processed: dense output shrinks accordingly.
        assert_eq!(r.arrays[0].1, Array::from(vec![2i64, -4]));
        assert_eq!(r.arrays[1].1, Array::from(vec![2i64]));
        assert_eq!(r.sels[0].2.indices(), &[0]);
        assert_eq!(r.scalars[0].1, Scalar::I64(2));
    }

    #[test]
    fn f64_lanes_and_sqrt() {
        let ir = TraceIr {
            lane: LaneType::F64,
            inputs: vec!["p".into(), "q".into()],
            n_regs: 4,
            pre_ops: vec![
                TraceOp {
                    op: ScalarOp::Mul,
                    dst: 0,
                    args: vec![Src::Input(0), Src::Input(0)],
                },
                TraceOp {
                    op: ScalarOp::Mul,
                    dst: 1,
                    args: vec![Src::Input(1), Src::Input(1)],
                },
                TraceOp {
                    op: ScalarOp::Add,
                    dst: 2,
                    args: vec![Src::Reg(0), Src::Reg(1)],
                },
                TraceOp {
                    op: ScalarOp::Sqrt,
                    dst: 3,
                    args: vec![Src::Reg(2)],
                },
            ],
            filter: None,
            post_ops: vec![],
            outputs: vec![OutputSpec::Array {
                name: "h".into(),
                src: Src::Reg(3),
                compacted: false,
                out_ty: ScalarType::F64,
            }],
        };
        let p = Array::from(vec![3.0, 5.0]);
        let q = Array::from(vec![4.0, 12.0]);
        let r = execute(&ir, &[&p, &q], None).unwrap();
        assert_eq!(r.arrays[0].1, Array::from(vec![5.0, 13.0]));
        // Integer inputs widen automatically.
        let pi = Array::from(vec![3i64, 5]);
        let qi = Array::from(vec![4i64, 12]);
        let r = execute(&ir, &[&pi, &qi], None).unwrap();
        assert_eq!(r.arrays[0].1, Array::from(vec![5.0, 13.0]));
    }

    #[test]
    fn narrow_output_types() {
        let mut ir = simple_map_ir();
        if let OutputSpec::Array { out_ty, .. } = &mut ir.outputs[0] {
            *out_ty = ScalarType::I16;
        }
        let x = Array::from(vec![1i64, 2]);
        let r = execute(&ir, &[&x], None).unwrap();
        assert_eq!(r.arrays[0].1, Array::I16(vec![5, 7]));
    }

    #[test]
    fn post_ops_guarded_by_filter() {
        // y = x; if x > 0 { z = x * 100 }; fold sum z (passing only).
        let ir = TraceIr {
            lane: LaneType::I64,
            inputs: vec!["x".into()],
            n_regs: 1,
            pre_ops: vec![],
            filter: Some(FilterCheck {
                op: ScalarOp::Gt,
                lhs: Src::Input(0),
                rhs: Src::ConstI(0),
            }),
            post_ops: vec![TraceOp {
                op: ScalarOp::Mul,
                dst: 0,
                args: vec![Src::Input(0), Src::ConstI(100)],
            }],
            outputs: vec![OutputSpec::Fold {
                name: "s".into(),
                f: FoldFn::Sum,
                init: Scalar::I64(0),
                src: Src::Reg(0),
                guarded: true,
            }],
        };
        let x = Array::from(vec![1i64, -5, 2]);
        let r = execute(&ir, &[&x], None).unwrap();
        assert_eq!(r.scalars[0].1, Scalar::I64(300));
    }

    #[test]
    fn fold_kinds() {
        let mk = |f: FoldFn, init: Scalar| TraceIr {
            lane: LaneType::I64,
            inputs: vec!["x".into()],
            n_regs: 0,
            pre_ops: vec![],
            filter: None,
            post_ops: vec![],
            outputs: vec![OutputSpec::Fold {
                name: "r".into(),
                f,
                init,
                src: Src::Input(0),
                guarded: false,
            }],
        };
        let x = Array::from(vec![4i64, -1, 7]);
        let r = execute(&mk(FoldFn::Min, Scalar::I64(i64::MAX)), &[&x], None).unwrap();
        assert_eq!(r.scalars[0].1, Scalar::I64(-1));
        let r = execute(&mk(FoldFn::Max, Scalar::I64(i64::MIN)), &[&x], None).unwrap();
        assert_eq!(r.scalars[0].1, Scalar::I64(7));
        let r = execute(&mk(FoldFn::Count, Scalar::I64(0)), &[&x], None).unwrap();
        assert_eq!(r.scalars[0].1, Scalar::I64(3));
    }

    #[test]
    fn error_paths() {
        let ir = simple_map_ir();
        let x = Array::from(vec![1i64]);
        let y = Array::from(vec![1i64]);
        // Wrong input count.
        assert!(execute(&ir, &[&x, &y], None).is_err());
        // Length mismatch.
        let mut ir2 = simple_map_ir();
        ir2.inputs.push("y".into());
        let short = Array::from(vec![1i64, 2]);
        assert!(execute(&ir2, &[&x, &short], None).is_err());
        // String input cannot widen.
        let s = Array::from(vec!["a".to_string()]);
        assert!(execute(&ir, &[&s], None).is_err());
        // Sqrt in i64 lanes unsupported.
        let mut ir3 = simple_map_ir();
        ir3.pre_ops[0].op = ScalarOp::Sqrt;
        ir3.pre_ops[0].args = vec![Src::Input(0)];
        assert!(matches!(
            execute(&ir3, &[&x], None),
            Err(JitError::Unsupported(_))
        ));
    }

    #[test]
    fn fingerprints_distinguish_structure() {
        let a = simple_map_ir();
        let mut b = simple_map_ir();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.pre_ops[1].args[1] = Src::ConstI(4);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = filter_pipeline_ir();
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Operators that share a name length and first letter.
        let mut lt = filter_pipeline_ir();
        let mut le = filter_pipeline_ir();
        lt.filter.as_mut().unwrap().op = ScalarOp::Lt;
        le.filter.as_mut().unwrap().op = ScalarOp::Le;
        assert_ne!(lt.fingerprint(), le.fingerprint());
        // The same filter, emitted as a selection vs. as compacted lanes
        // under an equally long name.
        let mut sel = filter_pipeline_ir();
        let mut arr = filter_pipeline_ir();
        sel.outputs = vec![OutputSpec::Sel {
            name: "t".into(),
            flow: "a".into(),
        }];
        arr.outputs = vec![OutputSpec::Array {
            name: "b".into(),
            src: Src::Input(0),
            compacted: true,
            out_ty: ScalarType::I64,
        }];
        assert_ne!(sel.fingerprint(), arr.fingerprint());
    }

    #[test]
    fn empty_input_runs() {
        let ir = filter_pipeline_ir();
        let x = Array::from(Vec::<i64>::new());
        let r = execute(&ir, &[&x], None).unwrap();
        assert_eq!(r.arrays[0].1.len(), 0);
        assert_eq!(r.scalars[0].1, Scalar::I64(0));
    }
}
