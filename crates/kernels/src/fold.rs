//! `fold` kernels: reductions over (optionally selected) arrays.
//!
//! Folds carry named reduction functions (sum/min/max/count/all/any) so the
//! kernels can use reassociation-friendly tight loops. Integer sums
//! accumulate in `i64` and narrow to the promoted result type, mirroring
//! the type checker's rule `result = promote(elem, init)`.

use adaptvm_dsl::ast::FoldFn;
use adaptvm_storage::array::Array;
use adaptvm_storage::scalar::{Scalar, ScalarType};
use adaptvm_storage::sel::SelVec;

use crate::error::KernelError;

/// Reduce `input` (restricted to `sel` when present) with `f`, starting
/// from `init`.
pub fn fold_apply(
    f: FoldFn,
    init: &Scalar,
    input: &Array,
    sel: Option<&SelVec>,
) -> Result<Scalar, KernelError> {
    let elem_ty = input.scalar_type();
    match f {
        FoldFn::Count => {
            let base = init.as_i64().unwrap_or(0);
            let n = sel.map_or(input.len(), SelVec::len) as i64;
            Ok(Scalar::I64(base + n))
        }
        FoldFn::All | FoldFn::Any => {
            let bools = input.as_bool().ok_or_else(|| KernelError::NoKernel {
                op: f.name().into(),
                types: vec![elem_ty],
            })?;
            let init_b = init.as_bool().unwrap_or(f == FoldFn::All);
            let result = match (f, sel) {
                (FoldFn::All, Some(s)) => init_b && s.indices().iter().all(|&i| bools[i as usize]),
                (FoldFn::All, None) => init_b && bools.iter().all(|&b| b),
                (FoldFn::Any, Some(s)) => init_b || s.indices().iter().any(|&i| bools[i as usize]),
                (FoldFn::Any, None) => init_b || bools.iter().any(|&b| b),
                _ => unreachable!(),
            };
            Ok(Scalar::Bool(result))
        }
        FoldFn::Sum | FoldFn::Min | FoldFn::Max => {
            if elem_ty == ScalarType::F64 {
                fold_f64(f, init, input.as_f64().expect("checked"), sel)
            } else {
                let result_ty = elem_ty
                    .promote(init.scalar_type())
                    .filter(|t| t.is_numeric())
                    .ok_or_else(|| KernelError::NoKernel {
                        op: f.name().into(),
                        types: vec![elem_ty, init.scalar_type()],
                    })?;
                if result_ty == ScalarType::F64 {
                    let wide = input.to_f64_vec().ok_or_else(|| KernelError::NoKernel {
                        op: f.name().into(),
                        types: vec![elem_ty],
                    })?;
                    return fold_f64(f, init, &wide, sel);
                }
                // Borrow `i64` payloads; only narrower integers are widened.
                let widened;
                let values = match input.as_i64() {
                    Some(v) => v,
                    None => {
                        widened = input.to_i64_vec().ok_or_else(|| KernelError::NoKernel {
                            op: f.name().into(),
                            types: vec![elem_ty],
                        })?;
                        &widened
                    }
                };
                fold_i64(f, init, values, sel, result_ty)
            }
        }
    }
}

fn fold_i64(
    f: FoldFn,
    init: &Scalar,
    values: &[i64],
    sel: Option<&SelVec>,
    result_ty: ScalarType,
) -> Result<Scalar, KernelError> {
    let init_v = init.as_i64().ok_or_else(|| KernelError::NoKernel {
        op: f.name().into(),
        types: vec![init.scalar_type()],
    })?;
    macro_rules! reduce {
        ($op:expr) => {
            match sel {
                Some(s) => s
                    .indices()
                    .iter()
                    .map(|&i| values[i as usize])
                    .fold(init_v, $op),
                None => values.iter().copied().fold(init_v, $op),
            }
        };
    }
    let acc = match f {
        FoldFn::Sum => reduce!(|a: i64, b| a.wrapping_add(b)),
        FoldFn::Min => reduce!(|a: i64, b| a.min(b)),
        FoldFn::Max => reduce!(|a: i64, b| a.max(b)),
        _ => unreachable!("numeric folds only"),
    };
    Ok(Scalar::int_of_type(acc, result_ty))
}

fn fold_f64(
    f: FoldFn,
    init: &Scalar,
    values: &[f64],
    sel: Option<&SelVec>,
) -> Result<Scalar, KernelError> {
    let init_v = init.as_f64().ok_or_else(|| KernelError::NoKernel {
        op: f.name().into(),
        types: vec![init.scalar_type()],
    })?;
    macro_rules! reduce {
        ($op:expr) => {
            match sel {
                Some(s) => s
                    .indices()
                    .iter()
                    .map(|&i| values[i as usize])
                    .fold(init_v, $op),
                None => values.iter().copied().fold(init_v, $op),
            }
        };
    }
    let acc = match f {
        FoldFn::Sum => reduce!(|a, b| a + b),
        FoldFn::Min => reduce!(f64::min),
        FoldFn::Max => reduce!(f64::max),
        _ => unreachable!("numeric folds only"),
    };
    Ok(Scalar::F64(acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums() {
        let a = Array::from(vec![1i64, 2, 3]);
        assert_eq!(
            fold_apply(FoldFn::Sum, &Scalar::I64(10), &a, None).unwrap(),
            Scalar::I64(16)
        );
        let f = Array::from(vec![1.5, 2.5]);
        assert_eq!(
            fold_apply(FoldFn::Sum, &Scalar::F64(0.0), &f, None).unwrap(),
            Scalar::F64(4.0)
        );
        // Narrow elements + narrow init stay narrow.
        let narrow = Array::I8(vec![1, 2, 3]);
        assert_eq!(
            fold_apply(FoldFn::Sum, &Scalar::I8(0), &narrow, None).unwrap(),
            Scalar::I8(6)
        );
        // Narrow elements + wide init promote.
        assert_eq!(
            fold_apply(FoldFn::Sum, &Scalar::I64(0), &narrow, None).unwrap(),
            Scalar::I64(6)
        );
        // Int elements + float init promote to f64.
        assert_eq!(
            fold_apply(FoldFn::Sum, &Scalar::F64(0.5), &a, None).unwrap(),
            Scalar::F64(6.5)
        );
    }

    #[test]
    fn min_max() {
        let a = Array::from(vec![5i64, -2, 9]);
        assert_eq!(
            fold_apply(FoldFn::Min, &Scalar::I64(i64::MAX), &a, None).unwrap(),
            Scalar::I64(-2)
        );
        assert_eq!(
            fold_apply(FoldFn::Max, &Scalar::I64(i64::MIN), &a, None).unwrap(),
            Scalar::I64(9)
        );
        // Init participates.
        assert_eq!(
            fold_apply(FoldFn::Min, &Scalar::I64(-100), &a, None).unwrap(),
            Scalar::I64(-100)
        );
    }

    #[test]
    fn count() {
        let a = Array::from(vec![1i64, 2, 3, 4]);
        assert_eq!(
            fold_apply(FoldFn::Count, &Scalar::I64(0), &a, None).unwrap(),
            Scalar::I64(4)
        );
        let sel = SelVec::new(vec![0, 2]);
        assert_eq!(
            fold_apply(FoldFn::Count, &Scalar::I64(5), &a, Some(&sel)).unwrap(),
            Scalar::I64(7)
        );
    }

    #[test]
    fn selection_restricts_folds() {
        let a = Array::from(vec![10i64, 20, 30, 40]);
        let sel = SelVec::new(vec![1, 3]);
        assert_eq!(
            fold_apply(FoldFn::Sum, &Scalar::I64(0), &a, Some(&sel)).unwrap(),
            Scalar::I64(60)
        );
        assert_eq!(
            fold_apply(FoldFn::Min, &Scalar::I64(i64::MAX), &a, Some(&sel)).unwrap(),
            Scalar::I64(20)
        );
    }

    #[test]
    fn all_any() {
        let b = Array::from(vec![true, true, false]);
        assert_eq!(
            fold_apply(FoldFn::All, &Scalar::Bool(true), &b, None).unwrap(),
            Scalar::Bool(false)
        );
        assert_eq!(
            fold_apply(FoldFn::Any, &Scalar::Bool(false), &b, None).unwrap(),
            Scalar::Bool(true)
        );
        // Selection that excludes the false lane.
        let sel = SelVec::new(vec![0, 1]);
        assert_eq!(
            fold_apply(FoldFn::All, &Scalar::Bool(true), &b, Some(&sel)).unwrap(),
            Scalar::Bool(true)
        );
        // Non-bool input rejected.
        let a = Array::from(vec![1i64]);
        assert!(fold_apply(FoldFn::All, &Scalar::Bool(true), &a, None).is_err());
    }

    #[test]
    fn empty_input_returns_init() {
        let a = Array::empty(ScalarType::I64);
        assert_eq!(
            fold_apply(FoldFn::Sum, &Scalar::I64(42), &a, None).unwrap(),
            Scalar::I64(42)
        );
        assert_eq!(
            fold_apply(FoldFn::Count, &Scalar::I64(0), &a, None).unwrap(),
            Scalar::I64(0)
        );
    }

    #[test]
    fn type_errors() {
        let s = Array::from(vec!["x".to_string()]);
        assert!(fold_apply(FoldFn::Sum, &Scalar::I64(0), &s, None).is_err());
        let b = Array::from(vec![true]);
        assert!(fold_apply(FoldFn::Sum, &Scalar::I64(0), &b, None).is_err());
        let a = Array::from(vec![1i64]);
        assert!(fold_apply(FoldFn::Sum, &Scalar::Str("x".into()), &a, None).is_err());
    }
}
