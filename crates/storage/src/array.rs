//! Typed, densely stored arrays — the operands of the DSL's data-parallel
//! skeletons.
//!
//! An [`Array`] owns its values; it is the unit the vectorized interpreter
//! and the JIT-compiled traces pass between operations. Arrays are
//! deliberately simple (an enum over `Vec<T>`) so kernels can match once on
//! the type tag and then run a tight monomorphic loop over the payload.

use std::borrow::Cow;

use crate::error::StorageError;
use crate::scalar::{Scalar, ScalarType};

/// A typed array of scalar values.
#[derive(Debug, Clone, PartialEq)]
pub enum Array {
    /// `i8` payload.
    I8(Vec<i8>),
    /// `i16` payload.
    I16(Vec<i16>),
    /// `i32` payload.
    I32(Vec<i32>),
    /// `i64` payload.
    I64(Vec<i64>),
    /// `f64` payload.
    F64(Vec<f64>),
    /// `bool` payload.
    Bool(Vec<bool>),
    /// String payload.
    Str(Vec<String>),
}

macro_rules! for_each_variant {
    ($self:expr, $v:ident => $body:expr) => {
        match $self {
            Array::I8($v) => $body,
            Array::I16($v) => $body,
            Array::I32($v) => $body,
            Array::I64($v) => $body,
            Array::F64($v) => $body,
            Array::Bool($v) => $body,
            Array::Str($v) => $body,
        }
    };
}

impl Array {
    /// Number of elements.
    pub fn len(&self) -> usize {
        for_each_variant!(self, v => v.len())
    }

    /// True when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scalar type of the elements.
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            Array::I8(_) => ScalarType::I8,
            Array::I16(_) => ScalarType::I16,
            Array::I32(_) => ScalarType::I32,
            Array::I64(_) => ScalarType::I64,
            Array::F64(_) => ScalarType::F64,
            Array::Bool(_) => ScalarType::Bool,
            Array::Str(_) => ScalarType::Str,
        }
    }

    /// An empty array of the given type.
    pub fn empty(ty: ScalarType) -> Array {
        Array::with_capacity(ty, 0)
    }

    /// An empty array of the given type with reserved capacity.
    pub fn with_capacity(ty: ScalarType, cap: usize) -> Array {
        match ty {
            ScalarType::I8 => Array::I8(Vec::with_capacity(cap)),
            ScalarType::I16 => Array::I16(Vec::with_capacity(cap)),
            ScalarType::I32 => Array::I32(Vec::with_capacity(cap)),
            ScalarType::I64 => Array::I64(Vec::with_capacity(cap)),
            ScalarType::F64 => Array::F64(Vec::with_capacity(cap)),
            ScalarType::Bool => Array::Bool(Vec::with_capacity(cap)),
            ScalarType::Str => Array::Str(Vec::with_capacity(cap)),
        }
    }

    /// An array of `len` copies of `value`.
    pub fn splat(value: &Scalar, len: usize) -> Array {
        match value {
            Scalar::I8(v) => Array::I8(vec![*v; len]),
            Scalar::I16(v) => Array::I16(vec![*v; len]),
            Scalar::I32(v) => Array::I32(vec![*v; len]),
            Scalar::I64(v) => Array::I64(vec![*v; len]),
            Scalar::F64(v) => Array::F64(vec![*v; len]),
            Scalar::Bool(v) => Array::Bool(vec![*v; len]),
            Scalar::Str(v) => Array::Str(vec![v.clone(); len]),
        }
    }

    /// Element at `idx` as a boxed [`Scalar`].
    pub fn get(&self, idx: usize) -> Result<Scalar, StorageError> {
        if idx >= self.len() {
            return Err(StorageError::OutOfBounds {
                index: idx,
                len: self.len(),
            });
        }
        Ok(match self {
            Array::I8(v) => Scalar::I8(v[idx]),
            Array::I16(v) => Scalar::I16(v[idx]),
            Array::I32(v) => Scalar::I32(v[idx]),
            Array::I64(v) => Scalar::I64(v[idx]),
            Array::F64(v) => Scalar::F64(v[idx]),
            Array::Bool(v) => Scalar::Bool(v[idx]),
            Array::Str(v) => Scalar::Str(v[idx].clone()),
        })
    }

    /// Append a scalar; errors when the types differ.
    pub fn push(&mut self, value: Scalar) -> Result<(), StorageError> {
        match (self, value) {
            (Array::I8(v), Scalar::I8(x)) => v.push(x),
            (Array::I16(v), Scalar::I16(x)) => v.push(x),
            (Array::I32(v), Scalar::I32(x)) => v.push(x),
            (Array::I64(v), Scalar::I64(x)) => v.push(x),
            (Array::F64(v), Scalar::F64(x)) => v.push(x),
            (Array::Bool(v), Scalar::Bool(x)) => v.push(x),
            (Array::Str(v), Scalar::Str(x)) => v.push(x),
            (arr, val) => {
                return Err(StorageError::TypeMismatch {
                    expected: arr.scalar_type(),
                    found: val.scalar_type(),
                })
            }
        }
        Ok(())
    }

    /// A contiguous sub-range `[offset, offset+len)` copied into a new array.
    ///
    /// `len` is clamped to the available tail, mirroring the DSL `read`
    /// skeleton which returns a short final chunk.
    pub fn slice(&self, offset: usize, len: usize) -> Array {
        let end = offset.saturating_add(len).min(self.len());
        let offset = offset.min(self.len());
        match self {
            Array::I8(v) => Array::I8(v[offset..end].to_vec()),
            Array::I16(v) => Array::I16(v[offset..end].to_vec()),
            Array::I32(v) => Array::I32(v[offset..end].to_vec()),
            Array::I64(v) => Array::I64(v[offset..end].to_vec()),
            Array::F64(v) => Array::F64(v[offset..end].to_vec()),
            Array::Bool(v) => Array::Bool(v[offset..end].to_vec()),
            Array::Str(v) => Array::Str(v[offset..end].to_vec()),
        }
    }

    /// Overwrite `self[offset..offset+src.len())` with `src`, growing the
    /// array when needed (the DSL `write` skeleton appends consecutively).
    pub fn write_at(&mut self, offset: usize, src: &Array) -> Result<(), StorageError> {
        if self.scalar_type() != src.scalar_type() {
            return Err(StorageError::TypeMismatch {
                expected: self.scalar_type(),
                found: src.scalar_type(),
            });
        }
        macro_rules! write_impl {
            ($dst:expr, $src:expr) => {{
                let needed = offset + $src.len();
                if $dst.len() < needed {
                    $dst.resize(needed, Default::default());
                }
                $dst[offset..needed].clone_from_slice($src);
            }};
        }
        match (self, src) {
            (Array::I8(d), Array::I8(s)) => write_impl!(d, s),
            (Array::I16(d), Array::I16(s)) => write_impl!(d, s),
            (Array::I32(d), Array::I32(s)) => write_impl!(d, s),
            (Array::I64(d), Array::I64(s)) => write_impl!(d, s),
            (Array::F64(d), Array::F64(s)) => write_impl!(d, s),
            (Array::Bool(d), Array::Bool(s)) => write_impl!(d, s),
            (Array::Str(d), Array::Str(s)) => write_impl!(d, s),
            _ => unreachable!("type equality checked above"),
        }
        Ok(())
    }

    /// Gather `self[indices[i]]` into a new array (DSL `gather` skeleton).
    pub fn take(&self, indices: &[u32]) -> Result<Array, StorageError> {
        let n = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| (i as usize) >= n) {
            return Err(StorageError::OutOfBounds {
                index: bad as usize,
                len: n,
            });
        }
        Ok(match self {
            Array::I8(v) => Array::I8(indices.iter().map(|&i| v[i as usize]).collect()),
            Array::I16(v) => Array::I16(indices.iter().map(|&i| v[i as usize]).collect()),
            Array::I32(v) => Array::I32(indices.iter().map(|&i| v[i as usize]).collect()),
            Array::I64(v) => Array::I64(indices.iter().map(|&i| v[i as usize]).collect()),
            Array::F64(v) => Array::F64(indices.iter().map(|&i| v[i as usize]).collect()),
            Array::Bool(v) => Array::Bool(indices.iter().map(|&i| v[i as usize]).collect()),
            Array::Str(v) => Array::Str(indices.iter().map(|&i| v[i as usize].clone()).collect()),
        })
    }

    /// Append all elements of `other` (same type required).
    pub fn extend(&mut self, other: &Array) -> Result<(), StorageError> {
        let offset = self.len();
        self.write_at(offset, other)
    }

    /// Cast to another scalar type.
    ///
    /// Numeric casts truncate like Rust `as`; integer→bool is `!= 0`;
    /// anything→str uses `Display`. Str→numeric parses and errors on
    /// malformed input.
    pub fn cast(&self, target: ScalarType) -> Result<Array, StorageError> {
        if self.scalar_type() == target {
            return Ok(self.clone());
        }
        macro_rules! num_cast {
            ($v:expr) => {{
                match target {
                    ScalarType::I8 => Array::I8($v.iter().map(|&x| x as i8).collect()),
                    ScalarType::I16 => Array::I16($v.iter().map(|&x| x as i16).collect()),
                    ScalarType::I32 => Array::I32($v.iter().map(|&x| x as i32).collect()),
                    ScalarType::I64 => Array::I64($v.iter().map(|&x| x as i64).collect()),
                    ScalarType::F64 => Array::F64($v.iter().map(|&x| x as f64).collect()),
                    ScalarType::Bool => Array::Bool($v.iter().map(|&x| x as i64 != 0).collect()),
                    ScalarType::Str => Array::Str($v.iter().map(|x| x.to_string()).collect()),
                }
            }};
        }
        Ok(match self {
            Array::I8(v) => num_cast!(v),
            Array::I16(v) => num_cast!(v),
            Array::I32(v) => num_cast!(v),
            Array::I64(v) => num_cast!(v),
            Array::F64(v) => num_cast!(v),
            Array::Bool(v) => match target {
                ScalarType::Str => Array::Str(v.iter().map(|x| x.to_string()).collect()),
                _ => {
                    let ints: Vec<i64> = v.iter().map(|&b| b as i64).collect();
                    return Array::I64(ints).cast(target);
                }
            },
            Array::Str(v) => match target {
                ScalarType::I64 => Array::I64(
                    v.iter()
                        .map(|s| {
                            s.parse::<i64>().map_err(|e| {
                                StorageError::CodecUnsupported(format!("parse {s:?}: {e}"))
                            })
                        })
                        .collect::<Result<_, _>>()?,
                ),
                ScalarType::F64 => Array::F64(
                    v.iter()
                        .map(|s| {
                            s.parse::<f64>().map_err(|e| {
                                StorageError::CodecUnsupported(format!("parse {s:?}: {e}"))
                            })
                        })
                        .collect::<Result<_, _>>()?,
                ),
                other => {
                    return Err(StorageError::TypeMismatch {
                        expected: ScalarType::Str,
                        found: other,
                    })
                }
            },
        })
    }

    /// Borrow the payload as `&[i64]`, if this is an `I64` array.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Array::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the payload as `&[i32]`, if this is an `I32` array.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            Array::I32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the payload as `&[f64]`, if this is an `F64` array.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Array::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the payload as `&[bool]`, if this is a `Bool` array.
    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            Array::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the payload as `&[String]`, if this is a `Str` array.
    pub fn as_str(&self) -> Option<&[String]> {
        match self {
            Array::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Widen any integer array to an owned `Vec<i64>`.
    ///
    /// Used by kernels that accept every integer width, and by the
    /// compact-types machinery when it needs a canonical form.
    pub fn to_i64_vec(&self) -> Option<Vec<i64>> {
        match self {
            Array::I8(v) => Some(v.iter().map(|&x| x as i64).collect()),
            Array::I16(v) => Some(v.iter().map(|&x| x as i64).collect()),
            Array::I32(v) => Some(v.iter().map(|&x| x as i64).collect()),
            Array::I64(v) => Some(v.clone()),
            _ => None,
        }
    }

    /// Any integer array as `i64`s: an `I64` payload borrowed, a
    /// narrower one widened into an owned copy.
    pub fn to_i64_cow(&self) -> Option<Cow<'_, [i64]>> {
        match self {
            Array::I64(v) => Some(Cow::Borrowed(v)),
            other => other.to_i64_vec().map(Cow::Owned),
        }
    }

    /// Widen any numeric array to an owned `Vec<f64>`.
    pub fn to_f64_vec(&self) -> Option<Vec<f64>> {
        match self {
            Array::I8(v) => Some(v.iter().map(|&x| x as f64).collect()),
            Array::I16(v) => Some(v.iter().map(|&x| x as f64).collect()),
            Array::I32(v) => Some(v.iter().map(|&x| x as f64).collect()),
            Array::I64(v) => Some(v.iter().map(|&x| x as f64).collect()),
            Array::F64(v) => Some(v.clone()),
            _ => None,
        }
    }

    /// Heap footprint of the payload in bytes (used by the hetsim transfer
    /// cost model).
    pub fn byte_size(&self) -> usize {
        match self {
            Array::I8(v) => v.len(),
            Array::I16(v) => v.len() * 2,
            Array::I32(v) => v.len() * 4,
            Array::I64(v) => v.len() * 8,
            Array::F64(v) => v.len() * 8,
            Array::Bool(v) => v.len(),
            Array::Str(v) => v.iter().map(|s| s.len() + 24).sum(),
        }
    }
}

impl From<Vec<i32>> for Array {
    fn from(v: Vec<i32>) -> Self {
        Array::I32(v)
    }
}
impl From<Vec<i64>> for Array {
    fn from(v: Vec<i64>) -> Self {
        Array::I64(v)
    }
}
impl From<Vec<f64>> for Array {
    fn from(v: Vec<f64>) -> Self {
        Array::F64(v)
    }
}
impl From<Vec<bool>> for Array {
    fn from(v: Vec<bool>) -> Self {
        Array::Bool(v)
    }
}
impl From<Vec<String>> for Array {
    fn from(v: Vec<String>) -> Self {
        Array::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let a = Array::from(vec![1i64, 2, 3]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(a.scalar_type(), ScalarType::I64);
        assert_eq!(a.get(1).unwrap(), Scalar::I64(2));
        assert!(a.get(3).is_err());
    }

    #[test]
    fn push_type_checked() {
        let mut a = Array::empty(ScalarType::I32);
        a.push(Scalar::I32(7)).unwrap();
        assert_eq!(a.len(), 1);
        let err = a.push(Scalar::I64(7)).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn slice_clamps_to_tail() {
        let a = Array::from(vec![0i64, 1, 2, 3, 4]);
        assert_eq!(a.slice(3, 10), Array::from(vec![3i64, 4]));
        assert_eq!(a.slice(5, 10).len(), 0);
        assert_eq!(a.slice(0, 2), Array::from(vec![0i64, 1]));
        // Regression: offset + len used to overflow usize in debug builds.
        assert_eq!(a.slice(usize::MAX, 5).len(), 0);
        assert_eq!(a.slice(2, usize::MAX), Array::from(vec![2i64, 3, 4]));
    }

    #[test]
    fn write_at_grows() {
        let mut a = Array::empty(ScalarType::I64);
        a.write_at(0, &Array::from(vec![1i64, 2])).unwrap();
        a.write_at(2, &Array::from(vec![3i64])).unwrap();
        assert_eq!(a, Array::from(vec![1i64, 2, 3]));
        // Overwrite in the middle.
        a.write_at(1, &Array::from(vec![9i64])).unwrap();
        assert_eq!(a, Array::from(vec![1i64, 9, 3]));
    }

    #[test]
    fn take_gathers_and_bounds_checks() {
        let a = Array::from(vec![10i64, 20, 30]);
        assert_eq!(
            a.take(&[2, 0, 2]).unwrap(),
            Array::from(vec![30i64, 10, 30])
        );
        assert!(a.take(&[3]).is_err());
        assert_eq!(a.take(&[]).unwrap().len(), 0);
    }

    #[test]
    fn cast_numeric() {
        let a = Array::from(vec![1i64, 300, -5]);
        assert_eq!(
            a.cast(ScalarType::I8).unwrap(),
            Array::I8(vec![1, 44, -5]) // 300 truncates like `as i8`
        );
        assert_eq!(
            a.cast(ScalarType::F64).unwrap(),
            Array::from(vec![1.0, 300.0, -5.0])
        );
        let b = Array::from(vec![true, false]);
        assert_eq!(b.cast(ScalarType::I64).unwrap(), Array::from(vec![1i64, 0]));
    }

    #[test]
    fn cast_str_parses() {
        let a = Array::from(vec!["12".to_string(), "-3".to_string()]);
        assert_eq!(
            a.cast(ScalarType::I64).unwrap(),
            Array::from(vec![12i64, -3])
        );
        let bad = Array::from(vec!["xy".to_string()]);
        assert!(bad.cast(ScalarType::I64).is_err());
    }

    #[test]
    fn splat_and_extend() {
        let mut a = Array::splat(&Scalar::I32(7), 3);
        assert_eq!(a, Array::from(vec![7i32, 7, 7]));
        a.extend(&Array::from(vec![1i32])).unwrap();
        assert_eq!(a.len(), 4);
        assert!(a.extend(&Array::from(vec![1.0f64])).is_err());
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Array::from(vec![1i64, 2]).byte_size(), 16);
        assert_eq!(Array::I8(vec![1, 2, 3]).byte_size(), 3);
        assert!(Array::from(vec!["ab".to_string()]).byte_size() >= 2);
    }

    #[test]
    fn widening_helpers() {
        let a = Array::I16(vec![1, 2]);
        assert_eq!(a.to_i64_vec().unwrap(), vec![1i64, 2]);
        assert_eq!(a.to_f64_vec().unwrap(), vec![1.0, 2.0]);
        assert!(Array::from(vec![true]).to_i64_vec().is_none());
    }
}
