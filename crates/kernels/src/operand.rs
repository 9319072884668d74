//! Kernel operands: array columns or broadcast scalar constants.

use adaptvm_storage::array::Array;
use adaptvm_storage::scalar::{Scalar, ScalarType};

use crate::error::KernelError;
use crate::lanes::Lanes;

/// One operand of a vectorized kernel.
#[derive(Debug, Clone)]
pub enum Operand<'a> {
    /// A column of values.
    Col(&'a Array),
    /// A scalar broadcast to every lane.
    Const(Scalar),
}

impl<'a> Operand<'a> {
    /// Element type of this operand.
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            Operand::Col(a) => a.scalar_type(),
            Operand::Const(s) => s.scalar_type(),
        }
    }

    /// Length when this is a column.
    pub fn len(&self) -> Option<usize> {
        match self {
            Operand::Col(a) => Some(a.len()),
            Operand::Const(_) => None,
        }
    }

    /// True when this is an empty column (constants are never empty).
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    /// True for the scalar variant.
    pub fn is_const(&self) -> bool {
        matches!(self, Operand::Const(_))
    }
}

/// The common lane count of a set of operands. Errors when two columns
/// disagree or no column exists.
pub fn common_len(operands: &[Operand<'_>]) -> Result<usize, KernelError> {
    let mut len = None;
    for o in operands {
        if let Some(n) = o.len() {
            match len {
                None => len = Some(n),
                Some(m) if m != n => return Err(KernelError::LengthMismatch { left: m, right: n }),
                _ => {}
            }
        }
    }
    len.ok_or(KernelError::NoArrayOperand)
}

/// A typed view of an operand, after coercion to a common type `T`.
/// `Owned` holds widened copies of narrower inputs.
pub enum Typed<'a, T> {
    /// Borrowed slice (operand already had type `T`).
    Slice(&'a [T]),
    /// Owned widened copy.
    Owned(Vec<T>),
    /// Broadcast constant.
    Const(T),
}

impl<T: Copy> Typed<'_, T> {
    /// The operand's shape, resolved once per kernel call (never per
    /// lane): a column slice or a broadcast constant.
    #[inline]
    pub(crate) fn lanes(&self) -> Lanes<'_, T> {
        match self {
            Typed::Slice(s) => Lanes::Col(s),
            Typed::Owned(v) => Lanes::Col(v),
            Typed::Const(c) => Lanes::Const(*c),
        }
    }
}

macro_rules! coerce_int {
    ($name:ident, $t:ty, $variant:ident) => {
        /// Coerce an operand to this integer width (widening only).
        pub fn $name<'a>(o: &Operand<'a>) -> Result<Typed<'a, $t>, KernelError> {
            match o {
                Operand::Col(Array::$variant(v)) => Ok(Typed::Slice(v)),
                Operand::Col(a) => match a.to_i64_vec() {
                    Some(wide) => Ok(Typed::Owned(wide.into_iter().map(|x| x as $t).collect())),
                    None => Err(KernelError::NoKernel {
                        op: "coerce".into(),
                        types: vec![a.scalar_type()],
                    }),
                },
                Operand::Const(s) => match s.as_i64() {
                    Some(v) => Ok(Typed::Const(v as $t)),
                    None => Err(KernelError::NoKernel {
                        op: "coerce".into(),
                        types: vec![s.scalar_type()],
                    }),
                },
            }
        }
    };
}

coerce_int!(as_i8, i8, I8);
coerce_int!(as_i16, i16, I16);
coerce_int!(as_i32, i32, I32);
coerce_int!(as_i64, i64, I64);

/// Coerce an operand to `f64` lanes.
pub fn as_f64<'a>(o: &Operand<'a>) -> Result<Typed<'a, f64>, KernelError> {
    match o {
        Operand::Col(Array::F64(v)) => Ok(Typed::Slice(v)),
        Operand::Col(a) => match a.to_f64_vec() {
            Some(wide) => Ok(Typed::Owned(wide)),
            None => Err(KernelError::NoKernel {
                op: "coerce".into(),
                types: vec![a.scalar_type()],
            }),
        },
        Operand::Const(s) => match s.as_f64() {
            Some(v) => Ok(Typed::Const(v)),
            None => Err(KernelError::NoKernel {
                op: "coerce".into(),
                types: vec![s.scalar_type()],
            }),
        },
    }
}

/// Coerce an operand to boolean lanes.
pub fn as_bool<'a>(o: &Operand<'a>) -> Result<Typed<'a, bool>, KernelError> {
    match o {
        Operand::Col(Array::Bool(v)) => Ok(Typed::Slice(v)),
        Operand::Const(Scalar::Bool(b)) => Ok(Typed::Const(*b)),
        other => Err(KernelError::NoKernel {
            op: "coerce-bool".into(),
            types: vec![other.scalar_type()],
        }),
    }
}

/// A string-typed operand view (strings stay borrowed; no widening).
pub enum TypedStr<'a> {
    /// Borrowed column.
    Slice(&'a [String]),
    /// Broadcast constant.
    Const(&'a str),
}

impl TypedStr<'_> {
    /// Value at lane `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> &str {
        match self {
            TypedStr::Slice(s) => &s[i],
            TypedStr::Const(c) => c,
        }
    }
}

/// Coerce an operand to string lanes.
pub fn as_str<'a>(o: &'a Operand<'a>) -> Result<TypedStr<'a>, KernelError> {
    match o {
        Operand::Col(Array::Str(v)) => Ok(TypedStr::Slice(v)),
        Operand::Const(Scalar::Str(s)) => Ok(TypedStr::Const(s)),
        other => Err(KernelError::NoKernel {
            op: "coerce-str".into(),
            types: vec![other.scalar_type()],
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_len_rules() {
        let a = Array::from(vec![1i64, 2]);
        let b = Array::from(vec![3i64, 4]);
        let c = Array::from(vec![5i64]);
        assert_eq!(
            common_len(&[Operand::Col(&a), Operand::Col(&b)]).unwrap(),
            2
        );
        assert_eq!(
            common_len(&[Operand::Const(Scalar::I64(1)), Operand::Col(&b)]).unwrap(),
            2
        );
        assert!(common_len(&[Operand::Col(&a), Operand::Col(&c)]).is_err());
        assert!(common_len(&[Operand::Const(Scalar::I64(1))]).is_err());
    }

    #[test]
    fn widening_coercion() {
        let narrow = Array::I16(vec![1, 2, 3]);
        let t = as_i64(&Operand::Col(&narrow)).unwrap();
        assert!(matches!(t.lanes(), Lanes::Col([1, 2, 3])));
        let t = as_f64(&Operand::Col(&narrow)).unwrap();
        assert!(matches!(t.lanes(), Lanes::Col(c) if c == [1.0, 2.0, 3.0]));
        // Constants broadcast.
        let t = as_i32(&Operand::Const(Scalar::I64(7))).unwrap();
        assert!(matches!(t.lanes(), Lanes::Const(7)));
        // Bool cannot coerce to ints.
        let b = Array::from(vec![true]);
        assert!(as_i64(&Operand::Col(&b)).is_err());
    }

    #[test]
    fn string_and_bool_views() {
        let s = Array::from(vec!["a".to_string(), "b".to_string()]);
        let op = Operand::Col(&s);
        let t = as_str(&op).unwrap();
        assert_eq!(t.get(1), "b");
        let c = Operand::Const(Scalar::Str("k".into()));
        assert_eq!(as_str(&c).unwrap().get(5), "k");
        let b = Array::from(vec![true, false]);
        assert!(as_bool(&Operand::Col(&b)).is_ok());
        assert!(as_bool(&Operand::Col(&s)).is_err());
    }
}
