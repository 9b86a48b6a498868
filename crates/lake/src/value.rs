//! Scalar values and their canonical ordering / hashing.
//!
//! Containment in R2D2 is defined on *row tuples*: a table `A` is contained
//! in `B` when every row of `A` (projected onto `A`'s schema) appears in `B`.
//! That requires a canonical, type-aware notion of value equality and
//! hashing, including for floating point numbers (NaN is canonicalised,
//! `-0.0 == 0.0`) so that the same logical value hashes identically whether
//! it was produced by a transformation or read back from storage.

use crate::datatype::DataType;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// A single scalar value in a table cell.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
}

impl Value {
    /// The logical type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Utf8,
            Value::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// Returns `true` if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the value as an `f64` if it is numeric (int, float, timestamp).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Timestamp(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the value as an `i64` if it is an integer or timestamp.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) | Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Canonicalised float bits: all NaNs collapse to one pattern, and
    /// negative zero collapses to positive zero. Used for hashing/equality.
    fn canonical_f64_bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else if v == 0.0 {
            0f64.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Approximate in-memory / on-wire size of the value in bytes. Used by the
    /// catalog to estimate dataset sizes for the cost model.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Timestamp(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() + 4,
        }
    }

    /// Total order used for min/max statistics and sorting.
    ///
    /// Values of different types order by type tag first (NULL smallest);
    /// within a type the natural order is used, with NaN greater than any
    /// other float. Integers and timestamps compare with floats numerically
    /// so that min/max pruning works across int/float column pairs that hold
    /// the same logical quantity.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => {
                    // NaN sorts above everything, mirroring parquet's
                    // "nan_as_max" statistics behaviour.
                    match (x.is_nan(), y.is_nan()) {
                        (true, true) => Ordering::Equal,
                        (true, false) => Ordering::Greater,
                        (false, true) => Ordering::Less,
                        (false, false) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                    }
                }
                // Different, non-numeric-compatible types: order by type tag.
                _ => a.data_type().tag().cmp(&b.data_type().tag()),
            },
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Timestamp(a), Timestamp(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Float(a), Float(b)) => Self::canonical_f64_bits(*a) == Self::canonical_f64_bits(*b),
            // Int/Float cross-type equality is intentional: a derived table
            // that casts an int column to float still holds "the same" data.
            (Int(a), Float(b)) | (Float(b), Int(a)) => (*a as f64) == *b && b.fract() == 0.0,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            Value::Int(v) => {
                // Integers that are exactly representable as floats hash the
                // same as the equivalent float, to keep Eq/Hash consistent
                // with the cross-type equality above.
                state.write_u8(3);
                state.write_u64(Self::canonical_f64_bits(*v as f64));
                state.write_i64(*v);
            }
            Value::Float(v) => {
                state.write_u8(3);
                state.write_u64(Self::canonical_f64_bits(*v));
                if v.fract() == 0.0 && v.abs() < (i64::MAX as f64) {
                    state.write_i64(*v as i64);
                } else {
                    state.write_i64(0x7fff_ffff_ffff_fffe);
                }
            }
            Value::Str(s) => {
                state.write_u8(4);
                state.write(s.as_bytes());
                state.write_u8(0xff);
            }
            Value::Timestamp(v) => {
                state.write_u8(5);
                state.write_i64(*v);
            }
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Timestamp(v) => write!(f, "ts({v})"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_equality_and_ordering() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Null.total_cmp(&Value::Int(1)), Ordering::Less);
        assert_eq!(Value::Int(1).total_cmp(&Value::Null), Ordering::Greater);
    }

    #[test]
    fn float_nan_and_negative_zero_canonicalised() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(
            hash_of(&Value::Float(f64::NAN)),
            hash_of(&Value::Float(f64::NAN))
        );
    }

    #[test]
    fn int_float_cross_equality_hash_consistent() {
        assert_eq!(Value::Int(42), Value::Float(42.0));
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Float(42.0)));
        assert_ne!(Value::Int(42), Value::Float(42.5));
    }

    #[test]
    fn ordering_numeric_cross_type() {
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.5)), Ordering::Less);
        assert_eq!(
            Value::Float(10.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Float(f64::NAN).total_cmp(&Value::Float(1e300)),
            Ordering::Greater
        );
    }

    #[test]
    fn string_ordering() {
        assert_eq!(
            Value::Str("apple".into()).total_cmp(&Value::Str("banana".into())),
            Ordering::Less
        );
    }

    #[test]
    fn as_accessors() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Timestamp(99).as_i64(), Some(99));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_f64(), None);
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Int(0).byte_size(), 8);
        assert_eq!(Value::Str("abcd".into()).byte_size(), 8);
        assert_eq!(Value::Null.byte_size(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Timestamp(5).to_string(), "ts(5)");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("a"), Value::Str("a".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
