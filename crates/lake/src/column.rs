//! Columns: typed value vectors with cached statistics, either in memory or
//! as an undecoded storage page that materializes on first touch.
//!
//! The substrate stores tables column-major, like parquet / Spark's columnar
//! cache, so that statistics can be maintained per column and predicate
//! evaluation touches only the referenced columns. Since R2D2LAKE v4 a
//! column read back from storage stays *lazy*: the encoded page bytes are
//! retained verbatim and only decoded when some caller actually needs the
//! values (statistics, sketches and sizes are served from the footer without
//! touching the page). A materialization is metered as `pages_decoded`; the
//! decode that skipped the page charged `pages_skipped`.

use crate::datatype::DataType;
use crate::error::{LakeError, Result};
use crate::meter::Meter;
use crate::stats::ColumnStats;
use crate::value::Value;
use bytes::Bytes;
use std::sync::OnceLock;

/// A single column of a table: a name-less typed vector of values.
///
/// The name lives in the table's [`crate::schema::Schema`]; a `Column` is
/// purely the data plus cached [`ColumnStats`].
#[derive(Debug, Clone)]
pub struct Column {
    data_type: DataType,
    repr: ColumnRepr,
    stats: ColumnStats,
}

/// How the column's values are held.
#[derive(Debug, Clone)]
enum ColumnRepr {
    /// Values decoded in memory.
    Eager(Vec<Value>),
    /// An undecoded storage page; decoded into the cell on first touch.
    Lazy(LazyColumn),
}

/// An undecoded column page plus everything needed to serve metadata
/// queries (row count, byte size) without decoding it.
#[derive(Debug)]
struct LazyColumn {
    /// The encoded page, exactly as stored (layout tag + payload). Retained
    /// even after materialization so re-encoding reproduces the original
    /// bytes bit-for-bit.
    page: Bytes,
    /// Number of rows in the page.
    rows: usize,
    /// In-memory byte size of the decoded values (from the footer).
    byte_size: usize,
    /// Meter charged with `pages_decoded` when the page materializes.
    meter: Meter,
    /// Decoded values, filled by the first successful materialization.
    cell: OnceLock<Vec<Value>>,
}

impl Clone for LazyColumn {
    fn clone(&self) -> Self {
        let cell = OnceLock::new();
        if let Some(values) = self.cell.get() {
            let _ = cell.set(values.clone());
        }
        LazyColumn {
            page: self.page.clone(),
            rows: self.rows,
            byte_size: self.byte_size,
            meter: self.meter.clone(),
            cell,
        }
    }
}

impl LazyColumn {
    /// Decode the page if it has not been decoded yet. Only the thread that
    /// wins the race charges `pages_decoded`; a decode error leaves the cell
    /// empty (the same error is returned deterministically on every retry).
    fn materialize(&self, data_type: DataType) -> Result<&[Value]> {
        if let Some(values) = self.cell.get() {
            return Ok(values);
        }
        let values = crate::storage::decode_page(&self.page, data_type, self.rows)?;
        if self.cell.set(values).is_ok() {
            self.meter.add_pages_decoded(1);
        }
        Ok(self.cell.get().expect("cell was just filled"))
    }
}

impl Column {
    /// Build a column from values, validating that every non-null value has
    /// the declared type (ints are accepted into float columns, mirroring the
    /// widening Spark applies when unioning frames).
    pub fn new(data_type: DataType, values: Vec<Value>) -> Result<Self> {
        for v in &values {
            if v.is_null() {
                continue;
            }
            let vt = v.data_type();
            let compatible = vt == data_type
                || (data_type == DataType::Float && vt == DataType::Int)
                || (data_type == DataType::Timestamp && vt == DataType::Int);
            if !compatible {
                return Err(LakeError::TypeMismatch {
                    column: String::new(),
                    expected: data_type,
                    actual: vt,
                });
            }
        }
        let stats = ColumnStats::compute(&values);
        Ok(Column {
            data_type,
            repr: ColumnRepr::Eager(values),
            stats,
        })
    }

    /// Assemble a lazy column over an undecoded storage page. `byte_size`
    /// and `stats` come from the file footer; the page only decodes when
    /// the values are first touched, charging `pages_decoded` on `meter`.
    pub(crate) fn from_lazy_page(
        data_type: DataType,
        page: Bytes,
        rows: usize,
        byte_size: usize,
        stats: ColumnStats,
        meter: &Meter,
    ) -> Self {
        Column {
            data_type,
            repr: ColumnRepr::Lazy(LazyColumn {
                page,
                rows,
                byte_size,
                meter: meter.clone(),
                cell: OnceLock::new(),
            }),
            stats,
        }
    }

    /// Build an integer column.
    pub fn from_ints(values: impl IntoIterator<Item = i64>) -> Self {
        let values: Vec<Value> = values.into_iter().map(Value::Int).collect();
        Column::new(DataType::Int, values).expect("ints are always valid")
    }

    /// Build a float column.
    pub fn from_floats(values: impl IntoIterator<Item = f64>) -> Self {
        let values: Vec<Value> = values.into_iter().map(Value::Float).collect();
        Column::new(DataType::Float, values).expect("floats are always valid")
    }

    /// Build a string column.
    pub fn from_strs<S: Into<String>>(values: impl IntoIterator<Item = S>) -> Self {
        let values: Vec<Value> = values.into_iter().map(|s| Value::Str(s.into())).collect();
        Column::new(DataType::Utf8, values).expect("strings are always valid")
    }

    /// Build a timestamp column from microsecond epoch values.
    pub fn from_timestamps(values: impl IntoIterator<Item = i64>) -> Self {
        let values: Vec<Value> = values.into_iter().map(Value::Timestamp).collect();
        Column::new(DataType::Timestamp, values).expect("timestamps are always valid")
    }

    /// Declared data type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }

    /// Number of rows (metadata-only; never decodes a lazy page).
    pub fn len(&self) -> usize {
        match &self.repr {
            ColumnRepr::Eager(values) => values.len(),
            ColumnRepr::Lazy(lazy) => lazy.rows,
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The values, materializing a lazy page on first touch.
    ///
    /// # Panics
    ///
    /// Panics if the column is lazy and its page fails to decode. Read
    /// paths that can encounter corrupt storage go through
    /// [`Column::try_values`] instead; this accessor serves the many
    /// call sites working on columns that were validated at construction.
    pub fn values(&self) -> &[Value] {
        self.try_values().expect("column page corrupt")
    }

    /// The values, materializing a lazy page on first touch. Returns a
    /// [`LakeError::Corrupt`] if the page bytes fail to decode (and will
    /// keep returning the same error on every retry — a failed decode is
    /// never cached as data).
    pub fn try_values(&self) -> Result<&[Value]> {
        match &self.repr {
            ColumnRepr::Eager(values) => Ok(values),
            ColumnRepr::Lazy(lazy) => lazy.materialize(self.data_type),
        }
    }

    /// Value at row `i`, or `None` when out of range *or* when a lazy page
    /// fails to decode (point reads surface corruption as a missing value;
    /// bulk readers use [`Column::try_values`] for the precise error).
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.try_values().ok()?.get(i)
    }

    /// Cached statistics (computed at construction time, or reattached from
    /// the file footer for lazy columns — never requires decoding).
    pub fn stats(&self) -> &ColumnStats {
        &self.stats
    }

    /// The encoded page bytes backing a lazy column, if any. The storage
    /// encoder re-emits these verbatim so a decode → encode round trip is
    /// bit-identical without materializing anything.
    pub(crate) fn lazy_page(&self) -> Option<&Bytes> {
        match &self.repr {
            ColumnRepr::Lazy(lazy) => Some(&lazy.page),
            ColumnRepr::Eager(_) => None,
        }
    }

    /// Whether the column's values are currently decoded in memory (always
    /// true for eagerly built columns).
    pub fn is_materialized(&self) -> bool {
        match &self.repr {
            ColumnRepr::Eager(_) => true,
            ColumnRepr::Lazy(lazy) => lazy.cell.get().is_some(),
        }
    }

    /// Take the rows at the given indices, producing a new column.
    pub fn take(&self, indices: &[usize]) -> Column {
        let values = self.values();
        let values: Vec<Value> = indices.iter().map(|&i| values[i].clone()).collect();
        let stats = ColumnStats::compute(&values);
        Column {
            data_type: self.data_type,
            repr: ColumnRepr::Eager(values),
            stats,
        }
    }

    /// Append another column of the same type (used by the synthetic
    /// "add rows" transformation and by partition concatenation).
    pub fn concat(&self, other: &Column) -> Result<Column> {
        if other.data_type != self.data_type
            && !(self.data_type == DataType::Float && other.data_type == DataType::Int)
        {
            return Err(LakeError::TypeMismatch {
                column: String::new(),
                expected: self.data_type,
                actual: other.data_type,
            });
        }
        let mut values = self.try_values()?.to_vec();
        values.extend(other.try_values()?.iter().cloned());
        Column::new(self.data_type, values)
    }

    /// Approximate byte size of the column data (metadata-only for lazy
    /// columns: the footer records the decoded size, so the answer is
    /// identical whether or not the page has materialized).
    pub fn byte_size(&self) -> usize {
        match &self.repr {
            ColumnRepr::Eager(values) => values.iter().map(Value::byte_size).sum(),
            ColumnRepr::Lazy(lazy) => lazy.byte_size,
        }
    }
}

impl PartialEq for Column {
    /// Content equality: same type, same values. A lazy column equals the
    /// eager column it decodes to (statistics are a pure function of the
    /// values, so they are not compared separately); a column whose page
    /// fails to decode equals nothing.
    fn eq(&self, other: &Self) -> bool {
        if self.data_type != other.data_type {
            return false;
        }
        match (self.try_values(), other.try_values()) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_constructors() {
        assert_eq!(Column::from_ints([1, 2, 3]).data_type(), DataType::Int);
        assert_eq!(Column::from_floats([1.0]).data_type(), DataType::Float);
        assert_eq!(Column::from_strs(["a"]).data_type(), DataType::Utf8);
        assert_eq!(
            Column::from_timestamps([10]).data_type(),
            DataType::Timestamp
        );
    }

    #[test]
    fn type_validation_rejects_mismatch() {
        let err = Column::new(DataType::Int, vec![Value::Str("x".into())]);
        assert!(matches!(err, Err(LakeError::TypeMismatch { .. })));
    }

    #[test]
    fn int_accepted_in_float_column() {
        let c = Column::new(DataType::Float, vec![Value::Int(1), Value::Float(2.5)]).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn nulls_always_accepted() {
        let c = Column::new(DataType::Utf8, vec![Value::Null, Value::Str("a".into())]).unwrap();
        assert_eq!(c.stats().null_count, 1);
    }

    #[test]
    fn stats_cached_at_construction() {
        let c = Column::from_ints([3, 1, 8]);
        assert_eq!(c.stats().min, Some(Value::Int(1)));
        assert_eq!(c.stats().max, Some(Value::Int(8)));
    }

    #[test]
    fn take_reorders_and_recomputes_stats() {
        let c = Column::from_ints([10, 20, 30, 40]);
        let t = c.take(&[3, 0]);
        assert_eq!(t.values(), &[Value::Int(40), Value::Int(10)]);
        assert_eq!(t.stats().min, Some(Value::Int(10)));
        assert_eq!(t.stats().max, Some(Value::Int(40)));
    }

    #[test]
    fn concat_columns() {
        let a = Column::from_ints([1, 2]);
        let b = Column::from_ints([3]);
        let c = a.concat(&b).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().max, Some(Value::Int(3)));
        let s = Column::from_strs(["x"]);
        assert!(a.concat(&s).is_err());
    }

    #[test]
    fn byte_size_sums_values() {
        let c = Column::from_ints([1, 2, 3]);
        assert_eq!(c.byte_size(), 24);
    }

    #[test]
    fn eager_columns_are_materialized_and_pageless() {
        let c = Column::from_ints([1, 2]);
        assert!(c.is_materialized());
        assert!(c.lazy_page().is_none());
        assert_eq!(c.try_values().unwrap().len(), 2);
    }
}
