//! `filter` kernels: compute selections without moving data (Table I).
//!
//! Three flavors implement the §III-C micro-adaptivity choice:
//! * [`FilterFlavor::SelVecLoop`] — one pass over the candidate lanes that
//!   compares and compacts matching indices into a selection vector
//!   (predicated, no per-lane branch); cheapest once an existing selection
//!   has thinned the candidates.
//! * [`FilterFlavor::Bitmap`] — branch-free predicate pass building a
//!   bitmap, then word-at-a-time conversion; wins at high selectivity and
//!   composes with bitmap logic.
//! * [`FilterFlavor::ComputeAll`] — materialize the full boolean column
//!   with the `map` kernel, then scan; the "fully evaluate expressions"
//!   strategy the paper suggests for (close to) non-selective flows.
//!
//! All flavors compose with an existing pending selection and produce
//! identical results — a property-tested invariant.

use adaptvm_dsl::ast::ScalarOp;
use adaptvm_storage::array::Array;
use adaptvm_storage::sel::{Bitmap, SelVec};

use crate::error::KernelError;
use crate::lanes::{select2, true_among, true_lanes};
use crate::map::{map_apply, MapMode};
use crate::operand::{as_bool, as_f64, as_i64, as_str, common_len, Operand};

/// The filter implementation flavors (micro-adaptivity arms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterFlavor {
    /// Compare-and-compact selection-vector loop over the candidates.
    SelVecLoop,
    /// Branch-free bitmap pass + conversion.
    Bitmap,
    /// Materialize all booleans, then scan.
    ComputeAll,
}

impl FilterFlavor {
    /// All flavors, for sweeps and equivalence tests.
    pub const ALL: [FilterFlavor; 3] = [
        FilterFlavor::SelVecLoop,
        FilterFlavor::Bitmap,
        FilterFlavor::ComputeAll,
    ];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FilterFlavor::SelVecLoop => "selvec",
            FilterFlavor::Bitmap => "bitmap",
            FilterFlavor::ComputeAll => "compute_all",
        }
    }
}

/// Evaluate a comparison predicate and return the selection it induces.
///
/// `op` must be a comparison (or `Eq` against a boolean for normalized
/// conjunction predicates). `existing` composes: only already-selected
/// lanes are candidates, and returned indices are positions in the
/// underlying (physical) chunk.
pub fn filter_cmp(
    op: ScalarOp,
    operands: &[Operand<'_>],
    existing: Option<&SelVec>,
    flavor: FilterFlavor,
) -> Result<SelVec, KernelError> {
    if !(op.is_comparison()) {
        return Err(KernelError::NoKernel {
            op: op.name().into(),
            types: operands.iter().map(Operand::scalar_type).collect(),
        });
    }
    let n = common_len(operands)?;
    check_existing(existing, n)?;
    match flavor {
        FilterFlavor::ComputeAll => {
            let bools = map_apply(op, operands, None, MapMode::Full)?;
            filter_bools(&bools, existing, FilterFlavor::SelVecLoop)
        }
        FilterFlavor::Bitmap => {
            let bools = map_apply(op, operands, None, MapMode::Full)?;
            let bm = Bitmap::from_bools(bools.as_bool().expect("comparison yields bools"));
            let bm = match existing {
                Some(sel) => bm.and(&sel.to_bitmap(n))?,
                None => bm,
            };
            Ok(bm.to_selvec())
        }
        FilterFlavor::SelVecLoop => selvec_loop(op, operands, existing, n),
    }
}

/// Selection from an already-computed boolean column.
pub fn filter_bools(
    bools: &Array,
    existing: Option<&SelVec>,
    flavor: FilterFlavor,
) -> Result<SelVec, KernelError> {
    let b = bools.as_bool().ok_or_else(|| KernelError::NoKernel {
        op: "filter-bools".into(),
        types: vec![bools.scalar_type()],
    })?;
    check_existing(existing, b.len())?;
    match flavor {
        FilterFlavor::Bitmap => {
            let bm = Bitmap::from_bools(b);
            let bm = match existing {
                Some(sel) => bm.and(&sel.to_bitmap(b.len()))?,
                None => bm,
            };
            Ok(bm.to_selvec())
        }
        _ => Ok(SelVec::new(match existing {
            Some(sel) => true_among(b, sel.indices()),
            None => true_lanes(b),
        })),
    }
}

/// Every index of a pending selection must address a lane of the filter
/// input. Out-of-range indices (a predicate column shorter than the flow
/// carrier) would otherwise index past the column — and the three flavors
/// would disagree on how. One typed error keeps them identical.
fn check_existing(existing: Option<&SelVec>, n: usize) -> Result<(), KernelError> {
    let Some(sel) = existing else { return Ok(()) };
    // The common case is one max-reduction; the offender is only looked
    // up on the error path.
    if sel.indices().iter().fold(0, |m, &i| m.max(i as usize)) < n {
        return Ok(());
    }
    match sel.indices().iter().find(|&&i| i as usize >= n) {
        Some(i) => Err(KernelError::Precondition(format!(
            "selection index {i} out of range of {n}-lane filter input"
        ))),
        None => Ok(()), // empty selection over an empty input
    }
}

fn selvec_loop(
    op: ScalarOp,
    operands: &[Operand<'_>],
    existing: Option<&SelVec>,
    n: usize,
) -> Result<SelVec, KernelError> {
    macro_rules! run {
        ($a:expr, $b:expr, $pred:expr) => {{
            let (a, b) = ($a, $b);
            Ok(SelVec::new(select2(
                a.lanes(),
                b.lanes(),
                n,
                existing,
                |x, y| $pred(&x, &y),
            )))
        }};
    }
    macro_rules! typed {
        ($pred:expr) => {{
            let ty0 = operands[0].scalar_type();
            let ty1 = operands[1].scalar_type();
            use adaptvm_storage::scalar::ScalarType as T;
            match (ty0, ty1) {
                (T::F64, _) | (_, T::F64) => {
                    run!(as_f64(&operands[0])?, as_f64(&operands[1])?, $pred)
                }
                (T::Str, T::Str) => {
                    let a = as_str(&operands[0])?;
                    let b = as_str(&operands[1])?;
                    let hit = |i: usize| $pred(&a.get(i), &b.get(i));
                    Ok(SelVec::new(match existing {
                        Some(sel) => sel
                            .indices()
                            .iter()
                            .copied()
                            .filter(|&i| hit(i as usize))
                            .collect(),
                        None => (0..n as u32).filter(|&i| hit(i as usize)).collect(),
                    }))
                }
                (T::Bool, T::Bool) => {
                    run!(as_bool(&operands[0])?, as_bool(&operands[1])?, $pred)
                }
                _ => run!(as_i64(&operands[0])?, as_i64(&operands[1])?, $pred),
            }
        }};
    }
    match op {
        ScalarOp::Eq => typed!(|a, b| a == b),
        ScalarOp::Ne => typed!(|a, b| a != b),
        ScalarOp::Lt => typed!(|a, b| a < b),
        ScalarOp::Le => typed!(|a, b| a <= b),
        ScalarOp::Gt => typed!(|a, b| a > b),
        ScalarOp::Ge => typed!(|a, b| a >= b),
        other => Err(KernelError::NoKernel {
            op: other.name().into(),
            types: operands.iter().map(Operand::scalar_type).collect(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptvm_storage::scalar::Scalar;

    fn data() -> Array {
        Array::from(vec![5i64, -3, 0, 7, -1, 2])
    }

    #[test]
    fn flavors_agree_dense() {
        let d = data();
        let ops = [Operand::Col(&d), Operand::Const(Scalar::I64(0))];
        let expected: Vec<u32> = vec![0, 3, 5];
        for flavor in FilterFlavor::ALL {
            let sel = filter_cmp(ScalarOp::Gt, &ops, None, flavor).unwrap();
            assert_eq!(sel.indices(), &expected[..], "flavor {flavor:?}");
        }
    }

    #[test]
    fn flavors_agree_with_existing_selection() {
        let d = data();
        let ops = [Operand::Col(&d), Operand::Const(Scalar::I64(0))];
        let existing = SelVec::new(vec![1, 2, 3, 5]);
        for flavor in FilterFlavor::ALL {
            let sel = filter_cmp(ScalarOp::Gt, &ops, Some(&existing), flavor).unwrap();
            assert_eq!(sel.indices(), &[3, 5], "flavor {flavor:?}");
        }
    }

    #[test]
    fn all_comparison_ops() {
        let d = data();
        let c = Operand::Const(Scalar::I64(0));
        let cases = [
            (ScalarOp::Eq, vec![2u32]),
            (ScalarOp::Ne, vec![0, 1, 3, 4, 5]),
            (ScalarOp::Lt, vec![1, 4]),
            (ScalarOp::Le, vec![1, 2, 4]),
            (ScalarOp::Gt, vec![0, 3, 5]),
            (ScalarOp::Ge, vec![0, 2, 3, 5]),
        ];
        for (op, expected) in cases {
            let sel = filter_cmp(
                op,
                &[Operand::Col(&d), c.clone()],
                None,
                FilterFlavor::SelVecLoop,
            )
            .unwrap();
            assert_eq!(sel.indices(), &expected[..], "{op:?}");
        }
    }

    #[test]
    fn float_and_string_predicates() {
        let f = Array::from(vec![1.5, -0.5, 3.0]);
        let sel = filter_cmp(
            ScalarOp::Gt,
            &[Operand::Col(&f), Operand::Const(Scalar::F64(0.0))],
            None,
            FilterFlavor::SelVecLoop,
        )
        .unwrap();
        assert_eq!(sel.indices(), &[0, 2]);
        let s = Array::from(vec!["b".to_string(), "a".to_string(), "c".to_string()]);
        for flavor in FilterFlavor::ALL {
            let sel = filter_cmp(
                ScalarOp::Ge,
                &[Operand::Col(&s), Operand::Const(Scalar::Str("b".into()))],
                None,
                flavor,
            )
            .unwrap();
            assert_eq!(sel.indices(), &[0, 2], "{flavor:?}");
        }
    }

    #[test]
    fn bool_eq_predicate_for_normalized_conjunctions() {
        let b = Array::from(vec![true, false, true]);
        let sel = filter_cmp(
            ScalarOp::Eq,
            &[Operand::Col(&b), Operand::Const(Scalar::Bool(true))],
            None,
            FilterFlavor::SelVecLoop,
        )
        .unwrap();
        assert_eq!(sel.indices(), &[0, 2]);
    }

    #[test]
    fn filter_bools_flavors_agree() {
        let bools = Array::from(vec![true, false, false, true]);
        let existing = SelVec::new(vec![0, 1, 2]);
        for flavor in FilterFlavor::ALL {
            let sel = filter_bools(&bools, Some(&existing), flavor).unwrap();
            assert_eq!(sel.indices(), &[0], "{flavor:?}");
            let dense = filter_bools(&bools, None, flavor).unwrap();
            assert_eq!(dense.indices(), &[0, 3], "{flavor:?}");
        }
        assert!(filter_bools(&data(), None, FilterFlavor::SelVecLoop).is_err());
    }

    #[test]
    fn non_comparison_rejected() {
        let d = data();
        assert!(filter_cmp(
            ScalarOp::Add,
            &[Operand::Col(&d), Operand::Const(Scalar::I64(0))],
            None,
            FilterFlavor::SelVecLoop
        )
        .is_err());
    }

    #[test]
    fn out_of_range_selection_is_typed_error() {
        // Regression: a pending selection addressing lanes past the
        // predicate column used to panic in ComputeAll and silently
        // mis-compare in SelVecLoop; now every flavor reports the same
        // typed precondition error.
        let sel = SelVec::new(vec![0, 5]);
        let short = Array::from(vec![true, false]);
        for flavor in FilterFlavor::ALL {
            assert!(
                matches!(
                    filter_bools(&short, Some(&sel), flavor),
                    Err(KernelError::Precondition(_))
                ),
                "{flavor:?}"
            );
        }
        let d = Array::from(vec![1i64, 2]);
        let ops = [Operand::Col(&d), Operand::Const(Scalar::I64(0))];
        for flavor in FilterFlavor::ALL {
            assert!(
                matches!(
                    filter_cmp(ScalarOp::Gt, &ops, Some(&sel), flavor),
                    Err(KernelError::Precondition(_))
                ),
                "{flavor:?}"
            );
        }
    }

    #[test]
    fn empty_selection_result() {
        let d = data();
        let sel = filter_cmp(
            ScalarOp::Gt,
            &[Operand::Col(&d), Operand::Const(Scalar::I64(100))],
            None,
            FilterFlavor::Bitmap,
        )
        .unwrap();
        assert!(sel.is_empty());
    }
}
