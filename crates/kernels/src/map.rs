//! `map` kernels: element-wise application of a single scalar operation.
//!
//! These are the pre-compiled functions the vectorized interpreter looks up
//! after normalization (§III-A). Every (operation × type × operand shape)
//! combination is a monomorphized slice loop ([`crate::lanes`]): type and
//! shape are resolved once per call, nothing is decided per lane.
//!
//! [`MapMode`] is a micro-adaptivity flavor (§III-C): `Full` computes every
//! lane (branch-free; what the paper calls "fully evaluate expressions" in
//! the non-selective regime), `Selective` computes only the lanes of the
//! pending selection (cheaper under selective flows, at the cost of a
//! data-dependent access pattern). Results are always full-length so the
//! pending selection's positions stay valid; unselected lanes hold the type
//! default in `Selective` mode.

use adaptvm_dsl::ast::ScalarOp;
use adaptvm_storage::array::Array;
use adaptvm_storage::scalar::{Scalar, ScalarType};
use adaptvm_storage::sel::SelVec;

use crate::error::KernelError;
use crate::lanes::{map1, map2};
use crate::operand::{
    as_bool, as_f64, as_i16, as_i32, as_i64, as_i8, as_str, common_len, Operand, Typed,
};

/// Full vs selective computation (micro-adaptivity flavor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapMode {
    /// Compute every lane.
    Full,
    /// Compute only the selected lanes (others hold the type default).
    Selective,
}

/// One-operand lane loop: the operand's shape is resolved here, once per
/// kernel call, and the loop itself is [`crate::lanes`]' slice loop.
#[inline(always)]
fn unary_loop<T: Copy, R: Copy + Default>(
    n: usize,
    sel: Option<&SelVec>,
    mode: MapMode,
    a: Typed<'_, T>,
    f: impl Fn(T) -> R,
) -> Vec<R> {
    map1(n, sel, mode, a.lanes(), f)
}

/// Two-operand [`unary_loop`].
#[inline(always)]
fn binary_loop<T: Copy, R: Copy + Default>(
    n: usize,
    sel: Option<&SelVec>,
    mode: MapMode,
    a: Typed<'_, T>,
    b: Typed<'_, T>,
    f: impl Fn(T, T) -> R,
) -> Vec<R> {
    map2(n, sel, mode, a.lanes(), b.lanes(), f)
}

fn promoted(operands: &[Operand<'_>], op: ScalarOp) -> Result<ScalarType, KernelError> {
    let mut ty = operands[0].scalar_type();
    for o in &operands[1..] {
        ty = ty
            .promote(o.scalar_type())
            .ok_or_else(|| KernelError::NoKernel {
                op: op.name().into(),
                types: operands.iter().map(Operand::scalar_type).collect(),
            })?;
    }
    Ok(ty)
}

/// 64-bit multiplicative hash (Fibonacci hashing).
#[inline(always)]
pub fn hash_i64(v: i64) -> i64 {
    (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as i64
}

/// FNV-1a over bytes, for string hashing.
#[inline(always)]
pub fn hash_str(s: &str) -> i64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h as i64
}

/// Apply one scalar operation element-wise over operands.
///
/// `sel`/`mode` implement the full-vs-selective flavor choice; the result
/// is always `n` lanes long.
pub fn map_apply(
    op: ScalarOp,
    operands: &[Operand<'_>],
    sel: Option<&SelVec>,
    mode: MapMode,
) -> Result<Array, KernelError> {
    let n = common_len(operands)?;
    if operands.len() != op.arity() {
        return Err(KernelError::NoKernel {
            op: op.name().into(),
            types: operands.iter().map(Operand::scalar_type).collect(),
        });
    }

    macro_rules! arith {
        ($f_int:expr, $f_f64:expr) => {{
            let p = promoted(operands, op)?;
            match p {
                ScalarType::I8 => Ok(Array::I8(binary_loop(
                    n,
                    sel,
                    mode,
                    as_i8(&operands[0])?,
                    as_i8(&operands[1])?,
                    $f_int,
                ))),
                ScalarType::I16 => Ok(Array::I16(binary_loop(
                    n,
                    sel,
                    mode,
                    as_i16(&operands[0])?,
                    as_i16(&operands[1])?,
                    $f_int,
                ))),
                ScalarType::I32 => Ok(Array::I32(binary_loop(
                    n,
                    sel,
                    mode,
                    as_i32(&operands[0])?,
                    as_i32(&operands[1])?,
                    $f_int,
                ))),
                ScalarType::I64 => Ok(Array::I64(binary_loop(
                    n,
                    sel,
                    mode,
                    as_i64(&operands[0])?,
                    as_i64(&operands[1])?,
                    $f_int,
                ))),
                ScalarType::F64 => Ok(Array::F64(binary_loop(
                    n,
                    sel,
                    mode,
                    as_f64(&operands[0])?,
                    as_f64(&operands[1])?,
                    $f_f64,
                ))),
                other => Err(KernelError::NoKernel {
                    op: op.name().into(),
                    types: vec![other],
                }),
            }
        }};
    }

    macro_rules! compare {
        ($f:expr) => {{
            let p = promoted(operands, op)?;
            let bools = match p {
                ScalarType::I8 => binary_loop(
                    n,
                    sel,
                    mode,
                    as_i8(&operands[0])?,
                    as_i8(&operands[1])?,
                    |a, b| $f(&a, &b),
                ),
                ScalarType::I16 => binary_loop(
                    n,
                    sel,
                    mode,
                    as_i16(&operands[0])?,
                    as_i16(&operands[1])?,
                    |a, b| $f(&a, &b),
                ),
                ScalarType::I32 => binary_loop(
                    n,
                    sel,
                    mode,
                    as_i32(&operands[0])?,
                    as_i32(&operands[1])?,
                    |a, b| $f(&a, &b),
                ),
                ScalarType::I64 => binary_loop(
                    n,
                    sel,
                    mode,
                    as_i64(&operands[0])?,
                    as_i64(&operands[1])?,
                    |a, b| $f(&a, &b),
                ),
                ScalarType::F64 => binary_loop(
                    n,
                    sel,
                    mode,
                    as_f64(&operands[0])?,
                    as_f64(&operands[1])?,
                    |a, b| $f(&a, &b),
                ),
                ScalarType::Bool => binary_loop(
                    n,
                    sel,
                    mode,
                    as_bool(&operands[0])?,
                    as_bool(&operands[1])?,
                    |a, b| $f(&a, &b),
                ),
                ScalarType::Str => {
                    let a = as_str(&operands[0])?;
                    let b = as_str(&operands[1])?;
                    (0..n).map(|i| $f(&a.get(i), &b.get(i))).collect()
                }
            };
            Ok(Array::Bool(bools))
        }};
    }

    match op {
        ScalarOp::Add => arith!(|a, b| a.wrapping_add(b), |a, b| a + b),
        ScalarOp::Sub => arith!(|a, b| a.wrapping_sub(b), |a, b| a - b),
        ScalarOp::Mul => arith!(|a, b| a.wrapping_mul(b), |a, b| a * b),
        // Integer division by zero yields 0 (database-style total division;
        // the DSL has no NULLs).
        ScalarOp::Div => arith!(|a, b| if b == 0 { 0 } else { a.wrapping_div(b) }, |a, b| a
            / b),
        ScalarOp::Rem => arith!(|a, b| if b == 0 { 0 } else { a.wrapping_rem(b) }, |a, b| a
            % b),
        ScalarOp::Min => arith!(|a, b| a.min(b), |a: f64, b: f64| a.min(b)),
        ScalarOp::Max => arith!(|a, b| a.max(b), |a: f64, b: f64| a.max(b)),
        ScalarOp::Eq => compare!(|a, b| a == b),
        ScalarOp::Ne => compare!(|a, b| a != b),
        ScalarOp::Lt => compare!(|a, b| a < b),
        ScalarOp::Le => compare!(|a, b| a <= b),
        ScalarOp::Gt => compare!(|a, b| a > b),
        ScalarOp::Ge => compare!(|a, b| a >= b),
        ScalarOp::And => Ok(Array::Bool(binary_loop(
            n,
            sel,
            mode,
            as_bool(&operands[0])?,
            as_bool(&operands[1])?,
            |a, b| a && b,
        ))),
        ScalarOp::Or => Ok(Array::Bool(binary_loop(
            n,
            sel,
            mode,
            as_bool(&operands[0])?,
            as_bool(&operands[1])?,
            |a, b| a || b,
        ))),
        ScalarOp::Not => Ok(Array::Bool(unary_loop(
            n,
            sel,
            mode,
            as_bool(&operands[0])?,
            |a| !a,
        ))),
        ScalarOp::Neg => match operands[0].scalar_type() {
            ScalarType::I8 => Ok(Array::I8(unary_loop(
                n,
                sel,
                mode,
                as_i8(&operands[0])?,
                |a| a.wrapping_neg(),
            ))),
            ScalarType::I16 => Ok(Array::I16(unary_loop(
                n,
                sel,
                mode,
                as_i16(&operands[0])?,
                |a| a.wrapping_neg(),
            ))),
            ScalarType::I32 => Ok(Array::I32(unary_loop(
                n,
                sel,
                mode,
                as_i32(&operands[0])?,
                |a| a.wrapping_neg(),
            ))),
            ScalarType::I64 => Ok(Array::I64(unary_loop(
                n,
                sel,
                mode,
                as_i64(&operands[0])?,
                |a| a.wrapping_neg(),
            ))),
            ScalarType::F64 => Ok(Array::F64(unary_loop(
                n,
                sel,
                mode,
                as_f64(&operands[0])?,
                |a| -a,
            ))),
            other => Err(KernelError::NoKernel {
                op: "neg".into(),
                types: vec![other],
            }),
        },
        ScalarOp::Abs => match operands[0].scalar_type() {
            ScalarType::I8 => Ok(Array::I8(unary_loop(
                n,
                sel,
                mode,
                as_i8(&operands[0])?,
                |a| a.wrapping_abs(),
            ))),
            ScalarType::I16 => Ok(Array::I16(unary_loop(
                n,
                sel,
                mode,
                as_i16(&operands[0])?,
                |a| a.wrapping_abs(),
            ))),
            ScalarType::I32 => Ok(Array::I32(unary_loop(
                n,
                sel,
                mode,
                as_i32(&operands[0])?,
                |a| a.wrapping_abs(),
            ))),
            ScalarType::I64 => Ok(Array::I64(unary_loop(
                n,
                sel,
                mode,
                as_i64(&operands[0])?,
                |a| a.wrapping_abs(),
            ))),
            ScalarType::F64 => Ok(Array::F64(unary_loop(
                n,
                sel,
                mode,
                as_f64(&operands[0])?,
                |a| a.abs(),
            ))),
            other => Err(KernelError::NoKernel {
                op: "abs".into(),
                types: vec![other],
            }),
        },
        ScalarOp::Sqrt => Ok(Array::F64(unary_loop(
            n,
            sel,
            mode,
            as_f64(&operands[0])?,
            |a| a.sqrt(),
        ))),
        ScalarOp::Hash => match operands[0].scalar_type() {
            ScalarType::Str => {
                let a = as_str(&operands[0])?;
                Ok(Array::I64((0..n).map(|i| hash_str(a.get(i))).collect()))
            }
            ScalarType::F64 => Ok(Array::I64(unary_loop(
                n,
                sel,
                mode,
                as_f64(&operands[0])?,
                |a| hash_i64(a.to_bits() as i64),
            ))),
            ScalarType::Bool => {
                let a = as_bool(&operands[0])?;
                Ok(Array::I64(unary_loop(n, sel, mode, a, |a| {
                    hash_i64(a as i64)
                })))
            }
            _ => Ok(Array::I64(unary_loop(
                n,
                sel,
                mode,
                as_i64(&operands[0])?,
                hash_i64,
            ))),
        },
        ScalarOp::Cast(target) => {
            // Cast always runs full: it is cheap and keeping lanes aligned
            // beats skipping work.
            let src = match &operands[0] {
                Operand::Col(a) => (*a).clone(),
                Operand::Const(s) => Array::splat(s, n),
            };
            Ok(src.cast(target)?)
        }
        ScalarOp::StrLen => {
            let a = as_str(&operands[0])?;
            Ok(Array::I64((0..n).map(|i| a.get(i).len() as i64).collect()))
        }
        ScalarOp::Concat => {
            let a = as_str(&operands[0])?;
            let b = as_str(&operands[1])?;
            Ok(Array::Str(
                (0..n)
                    .map(|i| {
                        let mut s = String::with_capacity(a.get(i).len() + b.get(i).len());
                        s.push_str(a.get(i));
                        s.push_str(b.get(i));
                        s
                    })
                    .collect(),
            ))
        }
    }
}

/// Apply one scalar operation to scalars — what a scalar statement of the
/// chunk loop does (`rev := rev + s`, `i := i + len(p)`, `i >= rows`).
///
/// The result is, bit for bit and error for error, lane 0 of
/// [`map_apply`] over a length-1 column of `args[0]` and the remaining
/// `args` broadcast. The shapes loop statements are made of — `i64`, `f64`
/// (mixed pairs promote to `f64`) and `bool` operands of the arithmetic,
/// comparison and logic operators — are computed in place; every other
/// shape (narrow integers, strings, casts, hashes, arity errors) takes
/// that kernel call.
pub fn scalar_apply(op: ScalarOp, args: &[&Scalar]) -> Result<Scalar, KernelError> {
    use Scalar::{Bool, F64, I64};
    use ScalarOp::*;
    macro_rules! ordered {
        ($a:expr, $b:expr) => {
            match op {
                Eq => Some(Bool($a == $b)),
                Ne => Some(Bool($a != $b)),
                Lt => Some(Bool($a < $b)),
                Le => Some(Bool($a <= $b)),
                Gt => Some(Bool($a > $b)),
                Ge => Some(Bool($a >= $b)),
                _ => None,
            }
        };
    }
    let int = |a: i64, b: i64| match op {
        Add => Some(I64(a.wrapping_add(b))),
        Sub => Some(I64(a.wrapping_sub(b))),
        Mul => Some(I64(a.wrapping_mul(b))),
        Div => Some(I64(if b == 0 { 0 } else { a.wrapping_div(b) })),
        Rem => Some(I64(if b == 0 { 0 } else { a.wrapping_rem(b) })),
        Min => Some(I64(a.min(b))),
        Max => Some(I64(a.max(b))),
        _ => ordered!(a, b),
    };
    let float = |a: f64, b: f64| match op {
        Add => Some(F64(a + b)),
        Sub => Some(F64(a - b)),
        Mul => Some(F64(a * b)),
        Div => Some(F64(a / b)),
        Rem => Some(F64(a % b)),
        Min => Some(F64(a.min(b))),
        Max => Some(F64(a.max(b))),
        _ => ordered!(a, b),
    };
    let direct = match args {
        [I64(a), I64(b)] => int(*a, *b),
        [F64(a), F64(b)] => float(*a, *b),
        [I64(a), F64(b)] => float(*a as f64, *b),
        [F64(a), I64(b)] => float(*a, *b as f64),
        [Bool(a), Bool(b)] => match op {
            And => Some(Bool(*a && *b)),
            Or => Some(Bool(*a || *b)),
            _ => ordered!(a, b),
        },
        [I64(a)] => match op {
            Neg => Some(I64(a.wrapping_neg())),
            Abs => Some(I64(a.wrapping_abs())),
            Sqrt => Some(F64((*a as f64).sqrt())),
            _ => None,
        },
        [F64(a)] => match op {
            Neg => Some(F64(-a)),
            Abs => Some(F64(a.abs())),
            Sqrt => Some(F64(a.sqrt())),
            _ => None,
        },
        [Bool(a)] if op == Not => Some(Bool(!a)),
        _ => None,
    };
    if let Some(result) = direct {
        return Ok(result);
    }
    let Some((first, rest)) = args.split_first() else {
        return Err(KernelError::NoArrayOperand);
    };
    let first = Array::splat(first, 1);
    let mut operands = vec![Operand::Col(&first)];
    operands.extend(rest.iter().map(|&s| Operand::Const(s.clone())));
    Ok(map_apply(op, &operands, None, MapMode::Full)?.get(0)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(v: Vec<i64>) -> Array {
        Array::from(v)
    }

    #[test]
    fn arithmetic_same_type() {
        let a = col(vec![1, 2, 3]);
        let b = col(vec![10, 20, 30]);
        let r = map_apply(
            ScalarOp::Add,
            &[Operand::Col(&a), Operand::Col(&b)],
            None,
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, col(vec![11, 22, 33]));
        let r = map_apply(
            ScalarOp::Mul,
            &[Operand::Col(&a), Operand::Const(Scalar::I64(2))],
            None,
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, col(vec![2, 4, 6]));
    }

    #[test]
    fn mixed_width_promotes() {
        let narrow = Array::I16(vec![1, 2]);
        let wide = col(vec![100, 200]);
        let r = map_apply(
            ScalarOp::Add,
            &[Operand::Col(&narrow), Operand::Col(&wide)],
            None,
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, col(vec![101, 202]));
        // int + float promotes to f64.
        let f = Array::from(vec![0.5, 0.5]);
        let r = map_apply(
            ScalarOp::Add,
            &[Operand::Col(&narrow), Operand::Col(&f)],
            None,
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, Array::from(vec![1.5, 2.5]));
    }

    #[test]
    fn narrow_type_native_loops() {
        let a = Array::I8(vec![100, -100]);
        let b = Array::I8(vec![100, -100]);
        let r = map_apply(
            ScalarOp::Add,
            &[Operand::Col(&a), Operand::Col(&b)],
            None,
            MapMode::Full,
        )
        .unwrap();
        // Wrapping arithmetic at the native width.
        assert_eq!(r, Array::I8(vec![-56, 56]));
        assert_eq!(r.scalar_type(), ScalarType::I8);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let a = col(vec![10, 10]);
        let b = col(vec![0, 2]);
        let r = map_apply(
            ScalarOp::Div,
            &[Operand::Col(&a), Operand::Col(&b)],
            None,
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, col(vec![0, 5]));
        let r = map_apply(
            ScalarOp::Rem,
            &[Operand::Col(&a), Operand::Col(&b)],
            None,
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, col(vec![0, 0]));
    }

    #[test]
    fn comparisons() {
        let a = col(vec![1, 5, 3]);
        let r = map_apply(
            ScalarOp::Gt,
            &[Operand::Col(&a), Operand::Const(Scalar::I64(2))],
            None,
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, Array::from(vec![false, true, true]));
        // String comparison.
        let s = Array::from(vec!["apple".to_string(), "pear".to_string()]);
        let r = map_apply(
            ScalarOp::Lt,
            &[Operand::Col(&s), Operand::Const(Scalar::Str("m".into()))],
            None,
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, Array::from(vec![true, false]));
    }

    #[test]
    fn logic_and_not() {
        let a = Array::from(vec![true, true, false]);
        let b = Array::from(vec![true, false, false]);
        let r = map_apply(
            ScalarOp::And,
            &[Operand::Col(&a), Operand::Col(&b)],
            None,
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, Array::from(vec![true, false, false]));
        let r = map_apply(ScalarOp::Not, &[Operand::Col(&a)], None, MapMode::Full).unwrap();
        assert_eq!(r, Array::from(vec![false, false, true]));
    }

    #[test]
    fn unary_math() {
        let a = Array::from(vec![4.0, 9.0]);
        let r = map_apply(ScalarOp::Sqrt, &[Operand::Col(&a)], None, MapMode::Full).unwrap();
        assert_eq!(r, Array::from(vec![2.0, 3.0]));
        let b = col(vec![-3, 3]);
        assert_eq!(
            map_apply(ScalarOp::Abs, &[Operand::Col(&b)], None, MapMode::Full).unwrap(),
            col(vec![3, 3])
        );
        assert_eq!(
            map_apply(ScalarOp::Neg, &[Operand::Col(&b)], None, MapMode::Full).unwrap(),
            col(vec![3, -3])
        );
        // sqrt of ints promotes.
        let c = col(vec![16]);
        assert_eq!(
            map_apply(ScalarOp::Sqrt, &[Operand::Col(&c)], None, MapMode::Full).unwrap(),
            Array::from(vec![4.0])
        );
    }

    #[test]
    fn selective_mode_computes_only_selected() {
        let a = col(vec![1, 2, 3, 4]);
        let sel = SelVec::new(vec![1, 3]);
        let r = map_apply(
            ScalarOp::Mul,
            &[Operand::Col(&a), Operand::Const(Scalar::I64(10))],
            Some(&sel),
            MapMode::Selective,
        )
        .unwrap();
        // Unselected lanes hold the default (0); selected are computed.
        assert_eq!(r, col(vec![0, 20, 0, 40]));
        // Full mode computes everything regardless of selection.
        let r = map_apply(
            ScalarOp::Mul,
            &[Operand::Col(&a), Operand::Const(Scalar::I64(10))],
            Some(&sel),
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, col(vec![10, 20, 30, 40]));
    }

    #[test]
    fn hash_and_strings() {
        let a = col(vec![1, 1, 2]);
        let r = map_apply(ScalarOp::Hash, &[Operand::Col(&a)], None, MapMode::Full).unwrap();
        let h = r.as_i64().unwrap();
        assert_eq!(h[0], h[1]);
        assert_ne!(h[0], h[2]);
        let s = Array::from(vec!["ab".to_string(), "".to_string()]);
        let r = map_apply(ScalarOp::StrLen, &[Operand::Col(&s)], None, MapMode::Full).unwrap();
        assert_eq!(r, col(vec![2, 0]));
        let r = map_apply(
            ScalarOp::Concat,
            &[Operand::Col(&s), Operand::Const(Scalar::Str("!".into()))],
            None,
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, Array::from(vec!["ab!".to_string(), "!".to_string()]));
        let r = map_apply(ScalarOp::Hash, &[Operand::Col(&s)], None, MapMode::Full).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn casts() {
        let a = col(vec![1, 300]);
        let r = map_apply(
            ScalarOp::Cast(ScalarType::I8),
            &[Operand::Col(&a)],
            None,
            MapMode::Full,
        )
        .unwrap();
        assert_eq!(r, Array::I8(vec![1, 44]));
        let r = map_apply(
            ScalarOp::Cast(ScalarType::F64),
            &[Operand::Const(Scalar::I64(7))],
            None,
            MapMode::Full,
        );
        // Constant-only operand set has no lane count.
        assert!(matches!(r, Err(KernelError::NoArrayOperand)));
    }

    #[test]
    fn errors() {
        let a = col(vec![1, 2]);
        let b = col(vec![1, 2, 3]);
        assert!(matches!(
            map_apply(
                ScalarOp::Add,
                &[Operand::Col(&a), Operand::Col(&b)],
                None,
                MapMode::Full
            ),
            Err(KernelError::LengthMismatch { .. })
        ));
        let s = Array::from(vec!["x".to_string(), "y".to_string()]);
        assert!(map_apply(
            ScalarOp::Add,
            &[Operand::Col(&a), Operand::Col(&s)],
            None,
            MapMode::Full
        )
        .is_err());
        // Wrong arity.
        assert!(map_apply(ScalarOp::Add, &[Operand::Col(&a)], None, MapMode::Full).is_err());
    }

    #[test]
    fn min_max() {
        let a = col(vec![1, 9]);
        let b = col(vec![5, 5]);
        assert_eq!(
            map_apply(
                ScalarOp::Min,
                &[Operand::Col(&a), Operand::Col(&b)],
                None,
                MapMode::Full
            )
            .unwrap(),
            col(vec![1, 5])
        );
        assert_eq!(
            map_apply(
                ScalarOp::Max,
                &[Operand::Col(&a), Operand::Col(&b)],
                None,
                MapMode::Full
            )
            .unwrap(),
            col(vec![5, 9])
        );
    }
}
