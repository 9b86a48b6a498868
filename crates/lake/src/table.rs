//! In-memory columnar tables.
//!
//! A [`Table`] is the substrate's unit of data: a [`Schema`] plus one
//! [`Column`] per flattened leaf field, all of equal length. Tables are
//! immutable once built (matching the append-only / copy-on-transform nature
//! of the data lakes the paper targets); transformations produce new tables.

use crate::column::Column;
use crate::error::{LakeError, Result};
use crate::meter::Meter;
use crate::row::{combine_hashes, hash_single, Row, RowHash, RowHashMap};
use crate::schema::Schema;
use crate::stats::ColumnStats;
use crate::value::Value;
use std::collections::HashMap;

/// An immutable, in-memory, column-major table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Build a table from a schema and columns (one per schema field, equal
    /// lengths, matching types).
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(LakeError::InvalidArgument(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        let num_rows = columns.first().map_or(0, Column::len);
        for (f, c) in schema.fields().iter().zip(&columns) {
            if c.len() != num_rows {
                return Err(LakeError::LengthMismatch {
                    expected: num_rows,
                    actual: c.len(),
                });
            }
            // Column type must be at least as wide as the declared field type.
            if c.data_type() != f.data_type {
                return Err(LakeError::TypeMismatch {
                    column: f.name.clone(),
                    expected: f.data_type,
                    actual: c.data_type(),
                });
            }
        }
        Ok(Table {
            schema,
            columns,
            num_rows,
        })
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.data_type, Vec::new()).expect("empty column is valid"))
            .collect();
        Table {
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Column by flattened name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| LakeError::ColumnNotFound(name.to_string()))?;
        Ok(&self.columns[idx])
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Per-column statistics keyed by column name (table-level metadata).
    pub fn column_stats(&self) -> HashMap<String, ColumnStats> {
        self.schema
            .fields()
            .iter()
            .zip(&self.columns)
            .map(|(f, c)| (f.name.clone(), c.stats().clone()))
            .collect()
    }

    /// Materialise row `i`.
    pub fn row(&self, i: usize) -> Option<Row> {
        if i >= self.num_rows {
            return None;
        }
        Some(Row::new(
            self.columns
                .iter()
                .map(|c| c.get(i).cloned().unwrap_or(Value::Null))
                .collect(),
        ))
    }

    /// Iterate over all rows (materialising each).
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.num_rows).map(move |i| self.row(i).expect("index in range"))
    }

    /// Approximate byte size of the table data (the `S_v` of the cost model).
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Project onto a subset of columns (order follows this table's schema).
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let columns = schema
            .fields()
            .iter()
            .map(|f| {
                let idx = self.schema.index_of(&f.name).expect("validated by project");
                self.columns[idx].clone()
            })
            .collect();
        Table::new(schema, columns)
    }

    /// Keep only the rows at `indices` (in the given order).
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        for &i in indices {
            if i >= self.num_rows {
                return Err(LakeError::InvalidArgument(format!(
                    "row index {i} out of bounds ({} rows)",
                    self.num_rows
                )));
            }
        }
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Table::new(self.schema.clone(), columns)
    }

    /// Vertically concatenate another table with an identical schema
    /// (the "add rows" transformation of §6.1.1).
    pub fn concat(&self, other: &Table) -> Result<Table> {
        if other.schema != self.schema {
            return Err(LakeError::InvalidArgument(
                "concat requires identical schemas".to_string(),
            ));
        }
        let columns = self
            .columns
            .iter()
            .zip(&other.columns)
            .map(|(a, b)| a.concat(b))
            .collect::<Result<Vec<_>>>()?;
        Table::new(self.schema.clone(), columns)
    }

    /// Vertically concatenate many same-schema tables in a single pre-sized
    /// pass.
    ///
    /// Unlike folding [`Table::concat`] (which re-clones the accumulated
    /// prefix on every step, i.e. O(P²) values moved for P chunks), this
    /// allocates each output column once at its final size and fills it in
    /// one O(P) sweep. An empty chunk list yields an empty table.
    pub fn concat_many<'a, I>(schema: Schema, chunks: I) -> Result<Table>
    where
        I: IntoIterator<Item = &'a Table>,
        I::IntoIter: Clone,
    {
        let chunks = chunks.into_iter();
        for chunk in chunks.clone() {
            if chunk.schema != schema {
                return Err(LakeError::InvalidArgument(
                    "concat_many requires identical schemas".to_string(),
                ));
            }
        }
        let total: usize = chunks.clone().map(Table::num_rows).sum();
        let columns: Vec<Column> = (0..schema.len())
            .map(|ci| {
                let mut values = Vec::with_capacity(total);
                for chunk in chunks.clone() {
                    values.extend_from_slice(chunk.columns[ci].try_values()?);
                }
                Column::new(schema.fields()[ci].data_type, values)
            })
            .collect::<Result<_>>()?;
        Table::new(schema, columns)
    }

    /// Add a new column (the "add derived columns" transformation of §6.1.1).
    pub fn with_column(&self, field: crate::schema::Field, column: Column) -> Result<Table> {
        if column.len() != self.num_rows {
            return Err(LakeError::LengthMismatch {
                expected: self.num_rows,
                actual: column.len(),
            });
        }
        let mut fields = self.schema.fields().to_vec();
        fields.push(field);
        let schema = Schema::new(fields)?;
        let mut columns = self.columns.clone();
        columns.push(column);
        Table::new(schema, columns)
    }

    /// Drop a column by name.
    pub fn drop_column(&self, name: &str) -> Result<Table> {
        let keep: Vec<&str> = self
            .schema
            .names()
            .into_iter()
            .filter(|n| *n != name)
            .collect();
        if keep.len() == self.schema.len() {
            return Err(LakeError::ColumnNotFound(name.to_string()));
        }
        self.project(&keep)
    }

    /// Return a copy of the table with rows sorted by the given column.
    ///
    /// Spark does not preserve row order, so a sorted and an unsorted copy of
    /// the same data are "the same table" for containment purposes (§2 of the
    /// paper uses exactly this example against block-level dedup). This
    /// helper lets tests and corpora exercise that case.
    pub fn sort_by(&self, column: &str) -> Result<Table> {
        let col = self.column(column)?;
        let mut indices: Vec<usize> = (0..self.num_rows).collect();
        indices.sort_by(|&a, &b| col.values()[a].total_cmp(&col.values()[b]));
        self.take(&indices)
    }

    /// Hash every row, projected onto `columns` (given in any order; the
    /// projection is canonicalised to lexicographic column order so that the
    /// same logical tuple hashes identically in different tables).
    ///
    /// Column-major: each column contributes a vector of per-cell hashes
    /// that [`crate::row::combine_hashes`] folds into row hashes — by
    /// construction identical to hashing each row tuple directly. String
    /// columns dedup through a per-column map so each *distinct* string is
    /// hashed once (`string_hash_ops`) no matter how many cells repeat it
    /// (`string_cells_hashed`); dictionary-compressed pages make such
    /// repetition the common case.
    ///
    /// Scanning and hashing are metered.
    pub fn row_hashes(&self, columns: &[&str], meter: &Meter) -> Result<Vec<RowHash>> {
        let mut names: Vec<&str> = columns.to_vec();
        names.sort_unstable();
        let mut col_refs = Vec::with_capacity(names.len());
        for n in &names {
            col_refs.push(self.column(n)?);
        }
        meter.add_rows_scanned(self.num_rows as u64);
        meter.add_rows_hashed(self.num_rows as u64);
        meter.add_bytes_scanned(col_refs.iter().map(|c| c.byte_size() as u64).sum::<u64>());

        let mut per_column: Vec<Vec<RowHash>> = Vec::with_capacity(col_refs.len());
        for col in &col_refs {
            let values = col.try_values()?;
            let mut hashes = Vec::with_capacity(values.len());
            if col.data_type() == crate::datatype::DataType::Utf8 {
                let mut memo: HashMap<&str, RowHash> = HashMap::new();
                let mut cells = 0u64;
                for v in values {
                    hashes.push(match v {
                        Value::Str(s) => {
                            cells += 1;
                            *memo.entry(s.as_str()).or_insert_with(|| hash_single(v))
                        }
                        other => hash_single(other),
                    });
                }
                meter.add_string_hash_ops(memo.len() as u64);
                meter.add_string_cells_hashed(cells);
            } else {
                for v in values {
                    hashes.push(hash_single(v));
                }
            }
            per_column.push(hashes);
        }

        let mut out = Vec::with_capacity(self.num_rows);
        for i in 0..self.num_rows {
            out.push(combine_hashes(per_column.iter().map(|h| h[i])));
        }
        Ok(out)
    }

    /// Multiset of row hashes (hash → multiplicity) over the given columns.
    pub fn row_hash_multiset(&self, columns: &[&str], meter: &Meter) -> Result<RowHashMap<usize>> {
        let hashes = self.row_hashes(columns, meter)?;
        let mut map = RowHashMap::with_capacity_and_hasher(hashes.len(), Default::default());
        for h in hashes {
            *map.entry(h).or_insert(0) += 1;
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Field;

    fn sample_table() -> Table {
        let schema = Schema::flat(&[
            ("id", DataType::Int),
            ("name", DataType::Utf8),
            ("amount", DataType::Float),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints([1, 2, 3, 4]),
                Column::from_strs(["a", "b", "c", "d"]),
                Column::from_floats([10.0, 20.0, 30.0, 40.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths_and_types() {
        let schema = Schema::flat(&[("id", DataType::Int)]).unwrap();
        assert!(Table::new(schema.clone(), vec![Column::from_strs(["x"])]).is_err());
        assert!(Table::new(
            Schema::flat(&[("id", DataType::Int), ("b", DataType::Int)]).unwrap(),
            vec![Column::from_ints([1]), Column::from_ints([1, 2])]
        )
        .is_err());
        assert!(Table::new(schema, vec![]).is_err());
    }

    #[test]
    fn basic_accessors() {
        let t = sample_table();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.column("id").unwrap().len(), 4);
        assert!(t.column("missing").is_err());
        assert_eq!(t.row(1).unwrap().values()[1], Value::Str("b".to_string()));
        assert!(t.row(99).is_none());
        assert_eq!(t.iter_rows().count(), 4);
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(Schema::flat(&[("x", DataType::Int)]).unwrap());
        assert_eq!(t.num_rows(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn projection_and_take() {
        let t = sample_table();
        let p = t.project(&["amount", "id"]).unwrap();
        assert_eq!(p.schema().names(), vec!["id", "amount"]);
        let s = t.take(&[2, 0]).unwrap();
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.row(0).unwrap().values()[0], Value::Int(3));
        assert!(t.take(&[100]).is_err());
    }

    #[test]
    fn concat_and_with_column_and_drop() {
        let t = sample_table();
        let doubled = t.concat(&t).unwrap();
        assert_eq!(doubled.num_rows(), 8);

        let extra = Column::from_floats([1.0, 2.0, 3.0, 4.0]);
        let wide = t
            .with_column(Field::new("derived", DataType::Float), extra)
            .unwrap();
        assert_eq!(wide.num_columns(), 4);

        let narrow = wide.drop_column("derived").unwrap();
        assert_eq!(narrow.num_columns(), 3);
        assert!(narrow.drop_column("nope").is_err());
    }

    #[test]
    fn with_column_length_validated() {
        let t = sample_table();
        let bad = Column::from_ints([1]);
        assert!(t.with_column(Field::new("x", DataType::Int), bad).is_err());
    }

    #[test]
    fn sort_is_content_preserving() {
        let t = sample_table();
        let sorted = t.sort_by("amount").unwrap();
        let meter = Meter::new();
        let a = t
            .row_hash_multiset(&["id", "name", "amount"], &meter)
            .unwrap();
        let b = sorted
            .row_hash_multiset(&["id", "name", "amount"], &meter)
            .unwrap();
        assert_eq!(a, b, "sorting must not change the row multiset");
    }

    #[test]
    fn row_hashes_are_order_insensitive_in_column_names() {
        let t = sample_table();
        let meter = Meter::new();
        let a = t.row_hashes(&["id", "amount"], &meter).unwrap();
        let b = t.row_hashes(&["amount", "id"], &meter).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn row_hashes_metered() {
        let t = sample_table();
        let meter = Meter::new();
        t.row_hashes(&["id"], &meter).unwrap();
        let s = meter.snapshot();
        assert_eq!(s.rows_scanned, 4);
        assert_eq!(s.rows_hashed, 4);
        assert!(s.bytes_scanned > 0);
    }

    #[test]
    fn byte_size_positive() {
        assert!(sample_table().byte_size() > 0);
    }

    #[test]
    fn column_stats_exposed() {
        let stats = sample_table().column_stats();
        assert_eq!(stats["id"].max, Some(Value::Int(4)));
        assert_eq!(stats["amount"].min, Some(Value::Float(10.0)));
    }
}
