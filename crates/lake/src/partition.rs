//! Partitioned tables with per-partition statistics.
//!
//! Datasets in the paper's enterprise data lake are "partitioned and stored
//! in parquet format"; the columnar minimum and maximum of each partition are
//! available as metadata, which is what makes Min-Max Pruning (§4.2) cheap
//! and lets Content-Level Pruning (§4.3) sample rows without a full table
//! scan when the data is partitioned by the sampled column (e.g. timestamp).
//!
//! A [`PartitionedTable`] holds the same logical data as a [`Table`] but
//! split into horizontal partitions, each carrying its own
//! [`ColumnStats`] metadata, plus merged table-level metadata.
//!
//! A table is immutable once built, so construction also derives a
//! name-sorted **column view** of that metadata ([`ColumnMeta`], served by
//! [`PartitionedTable::column_meta`]): per column, its field, table-level
//! min and max, and sound distinct-count bounds. Min-Max Pruning merge-walks
//! two tables' views instead of looking columns up by name. The view is
//! derived, never persisted: a decoded table rebuilds it from its footer
//! statistics.

use crate::error::{LakeError, Result};
use crate::meter::Meter;
use crate::schema::{Field, Schema};
use crate::stats::ColumnStats;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;

/// How to split a table into partitions.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionSpec {
    /// Fixed-size horizontal chunks of at most `rows_per_partition` rows.
    ByRowCount {
        /// Maximum number of rows per partition (must be > 0).
        rows_per_partition: usize,
    },
    /// Partition by the distinct values of a column, bucketing values into at
    /// most `max_partitions` buckets by hash. This mirrors timestamp/date
    /// partitioning in the enterprise lake.
    ByColumn {
        /// Partitioning column (must exist in the schema).
        column: String,
        /// Upper bound on the number of partitions produced.
        max_partitions: usize,
    },
    /// A single partition holding the whole table.
    Single,
    /// Partition boundaries were supplied explicitly (e.g. read back from
    /// storage, where each stored row group becomes one partition).
    Explicit,
}

/// Metadata of one partition: row count, byte size, per-column stats.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMeta {
    /// Number of rows in the partition.
    pub row_count: usize,
    /// Approximate bytes in the partition.
    pub byte_size: usize,
    /// Per-column statistics, keyed by flattened column name.
    pub column_stats: HashMap<String, ColumnStats>,
}

/// One column of a table's metadata view, borrowed from the table (see
/// [`PartitionedTable::column_meta`]). Reading it costs no row access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnMeta<'a> {
    /// The column's schema field (flattened name and declared type).
    pub field: &'a Field,
    /// Table-level minimum non-null value (`None` for an all-null or empty
    /// column, or one without statistics).
    pub min: Option<&'a Value>,
    /// Table-level maximum non-null value (`None` as for `min`).
    pub max: Option<&'a Value>,
    /// A sound lower bound on the column's distinct non-null values: the
    /// exact table-level count when the table has one, otherwise the best
    /// of the largest per-partition count and the table sketch's popcount
    /// bound ([`crate::sketch::ColumnSketch::min_distinct`]). `0` without
    /// statistics (no evidence, no prune).
    pub distinct_lower: usize,
    /// An upper bound on the column's distinct non-null values: the
    /// table-level count (exact for tables built by
    /// [`PartitionedTable::from_table`], a per-partition sum otherwise), or
    /// `usize::MAX` without statistics.
    pub distinct_upper: usize,
}

/// The owned half of a [`ColumnMeta`]: everything but the borrowed field.
#[derive(Debug, Clone, PartialEq)]
struct ColumnBounds {
    field: usize,
    min: Option<Value>,
    max: Option<Value>,
    distinct_lower: usize,
    distinct_upper: usize,
}

/// A horizontally partitioned table with partition-level metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedTable {
    schema: Schema,
    partitions: Vec<Table>,
    partition_meta: Vec<PartitionMeta>,
    table_stats: HashMap<String, ColumnStats>,
    /// Whether `table_stats`' distinct counts are exact (tables built from a
    /// whole [`Table`], or decoded from a footer written by one) rather than
    /// per-partition sums (upper bounds).
    table_distinct_exact: bool,
    /// The column view, one entry per schema field, sorted by name.
    columns: Vec<ColumnBounds>,
    num_rows: usize,
    spec: PartitionSpec,
}

impl PartitionedTable {
    /// Build a partitioned table from already-split partitions (all sharing
    /// the same schema). Used by the storage layer when reading row groups
    /// back from disk.
    pub fn from_partition_tables(partitions: Vec<Table>) -> Result<Self> {
        let schema = Self::shared_schema(&partitions)?;
        Self::assemble(schema, partitions, PartitionSpec::Explicit, None)
    }

    /// Storage decode hook: [`Self::from_partition_tables`] with the
    /// table-level statistics the table was encoded with (exact distinct
    /// counts and value sketches from the `R2D2LAKE` footer) instead of the
    /// merged per-partition upper bounds.
    pub(crate) fn from_decoded_partitions(
        partitions: Vec<Table>,
        table_stats: HashMap<String, ColumnStats>,
        distinct_exact: bool,
    ) -> Result<Self> {
        let schema = Self::shared_schema(&partitions)?;
        Self::assemble(
            schema,
            partitions,
            PartitionSpec::Explicit,
            Some((table_stats, distinct_exact)),
        )
    }

    /// The schema every partition shares, or an error for no partitions or
    /// mismatched schemas.
    fn shared_schema(partitions: &[Table]) -> Result<Schema> {
        let schema = match partitions.first() {
            Some(p) => p.schema().clone(),
            None => {
                return Err(LakeError::InvalidArgument(
                    "at least one partition is required".to_string(),
                ))
            }
        };
        for p in partitions {
            if p.schema() != &schema {
                return Err(LakeError::InvalidArgument(
                    "all partitions must share the same schema".to_string(),
                ));
            }
        }
        Ok(schema)
    }

    /// Restore hook for [`crate::snapshot`]: re-attach the original
    /// [`PartitionSpec`] to a table whose partitions were read back from
    /// storage (which only records the row groups, not the policy that
    /// produced them). Future appends/deletes rebuild under the original
    /// policy, exactly as the never-persisted table would.
    pub(crate) fn with_spec(mut self, spec: PartitionSpec) -> PartitionedTable {
        self.spec = spec;
        self
    }

    /// Build the table from its partitions. `table_stats` supplies the
    /// table-level statistics and whether their distinct counts are exact;
    /// without it they are merged from the partitions (distinct counts then
    /// being per-partition sums).
    fn assemble(
        schema: Schema,
        partitions: Vec<Table>,
        spec: PartitionSpec,
        table_stats: Option<(HashMap<String, ColumnStats>, bool)>,
    ) -> Result<Self> {
        let partition_meta: Vec<PartitionMeta> = partitions
            .iter()
            .map(|p| PartitionMeta {
                row_count: p.num_rows(),
                byte_size: p.byte_size(),
                column_stats: p.column_stats(),
            })
            .collect();

        let (table_stats, table_distinct_exact) =
            table_stats.unwrap_or_else(|| (merge_partition_stats(&partition_meta), false));
        let columns = column_bounds(&schema, &partition_meta, &table_stats, table_distinct_exact);
        let num_rows = partitions.iter().map(Table::num_rows).sum();
        Ok(PartitionedTable {
            schema,
            partitions,
            partition_meta,
            table_stats,
            table_distinct_exact,
            columns,
            num_rows,
            spec,
        })
    }

    /// Partition a table according to `spec`.
    ///
    /// The table-level statistics are taken from the source table's columns
    /// verbatim, so the table-level `distinct_count` is **exact** (the
    /// merged per-partition figure is only an upper bound) — the tighter
    /// parent bound the distinct-count containment gate relies on. The
    /// table-level sketch is identical either way (the OR of the partition
    /// sketches is the sketch of the union).
    pub fn from_table(table: Table, spec: PartitionSpec) -> Result<Self> {
        let exact_stats = table.column_stats();
        let schema = table.schema().clone();
        let partitions: Vec<Table> = match &spec {
            PartitionSpec::Single | PartitionSpec::Explicit => vec![table],
            PartitionSpec::ByRowCount { rows_per_partition } => {
                if *rows_per_partition == 0 {
                    return Err(LakeError::InvalidArgument(
                        "rows_per_partition must be positive".to_string(),
                    ));
                }
                let mut parts = Vec::new();
                let n = table.num_rows();
                let mut start = 0;
                while start < n {
                    let end = (start + rows_per_partition).min(n);
                    let idx: Vec<usize> = (start..end).collect();
                    parts.push(table.take(&idx)?);
                    start = end;
                }
                if parts.is_empty() {
                    parts.push(table);
                }
                parts
            }
            PartitionSpec::ByColumn {
                column,
                max_partitions,
            } => {
                if *max_partitions == 0 {
                    return Err(LakeError::InvalidArgument(
                        "max_partitions must be positive".to_string(),
                    ));
                }
                let col = table.column(column)?;
                let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); *max_partitions];
                for (i, v) in col.values().iter().enumerate() {
                    let h = crate::row::hash_values(&[v]).0;
                    let b = (h % (*max_partitions as u128)) as usize;
                    buckets[b].push(i);
                }
                let mut parts = Vec::new();
                for idx in buckets.into_iter().filter(|b| !b.is_empty()) {
                    parts.push(table.take(&idx)?);
                }
                if parts.is_empty() {
                    parts.push(table);
                }
                parts
            }
        };

        Self::assemble(schema, partitions, spec, Some((exact_stats, true)))
    }

    /// The schema shared by every partition.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total row count.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Total approximate byte size.
    pub fn byte_size(&self) -> usize {
        self.partition_meta.iter().map(|m| m.byte_size).sum()
    }

    /// The partition spec the table was built with.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// The partitions themselves. Reading rows from these directly bypasses
    /// the meter — query code should use [`crate::query`] instead.
    pub fn partitions(&self) -> &[Table] {
        &self.partitions
    }

    /// Partition metadata, one entry per partition.
    pub fn partition_meta(&self) -> &[PartitionMeta] {
        &self.partition_meta
    }

    /// Merged (table-level) per-column statistics.
    pub fn table_stats(&self) -> &HashMap<String, ColumnStats> {
        &self.table_stats
    }

    /// The column view: one [`ColumnMeta`] per schema field, in ascending
    /// (byte-wise) name order, so two tables' common columns are found by
    /// one merge-walk. Built once with the table; reading it touches no row
    /// and costs no meter charge (callers charge the lookups they model).
    pub fn column_meta(&self) -> impl ExactSizeIterator<Item = ColumnMeta<'_>> + '_ {
        let fields = self.schema.fields();
        self.columns.iter().map(move |c| ColumnMeta {
            field: &fields[c.field],
            min: c.min.as_ref(),
            max: c.max.as_ref(),
            distinct_lower: c.distinct_lower,
            distinct_upper: c.distinct_upper,
        })
    }

    /// Whether the table-level distinct counts are exact (rather than
    /// per-partition sums).
    pub fn table_distinct_exact(&self) -> bool {
        self.table_distinct_exact
    }

    /// The table-level value sketch of a column (the OR of every
    /// partition's sketch — it contains every non-null value of the column,
    /// with no false negatives), or `None` for a column without statistics.
    pub fn column_sketch(&self, column: &str) -> Option<&crate::sketch::ColumnSketch> {
        self.table_stats.get(column).map(|s| &s.sketch)
    }

    /// Concatenate all partitions back into a single [`Table`]. This is a
    /// full materialisation and is metered as a full scan.
    pub fn to_table(&self, meter: &Meter) -> Result<Table> {
        meter.add_rows_scanned(self.num_rows as u64);
        meter.add_bytes_scanned(self.byte_size() as u64);
        meter.add_partitions_scanned(self.partitions.len() as u64);
        Table::concat_many(self.schema.clone(), self.partitions.iter())
    }

    /// Convenience: wrap a table as a single partition.
    pub fn single(table: Table) -> Self {
        Self::from_table(table, PartitionSpec::Single).expect("single partition cannot fail")
    }
}

/// Table-level statistics merged from the partitions' (distinct counts
/// become per-partition sums, i.e. upper bounds).
fn merge_partition_stats(partition_meta: &[PartitionMeta]) -> HashMap<String, ColumnStats> {
    let mut table_stats: HashMap<String, ColumnStats> = HashMap::new();
    for meta in partition_meta {
        for (name, stats) in &meta.column_stats {
            table_stats
                .entry(name.clone())
                .and_modify(|s| *s = s.merge(stats))
                .or_insert_with(|| stats.clone());
        }
    }
    table_stats
}

/// Derive the column view (see [`PartitionedTable::column_meta`]).
fn column_bounds(
    schema: &Schema,
    partition_meta: &[PartitionMeta],
    table_stats: &HashMap<String, ColumnStats>,
    distinct_exact: bool,
) -> Vec<ColumnBounds> {
    let mut columns: Vec<ColumnBounds> = schema
        .fields()
        .iter()
        .enumerate()
        .map(|(field, f)| {
            let stats = table_stats.get(&f.name);
            let table_distinct = stats.map(|s| s.distinct_count);
            let distinct_lower = if distinct_exact {
                // The exact figure is its own (tight) lower bound.
                table_distinct.unwrap_or(0)
            } else {
                // The table holds at least every value one partition holds,
                // and at least as many as its sketch's popcount bound.
                let from_partitions = partition_meta
                    .iter()
                    .filter_map(|m| m.column_stats.get(&f.name))
                    .map(|s| s.distinct_count)
                    .max()
                    .unwrap_or(0);
                let from_sketch = stats.map_or(0, |s| s.sketch.min_distinct());
                from_partitions.max(from_sketch)
            };
            ColumnBounds {
                field,
                min: stats.and_then(|s| s.min.clone()),
                max: stats.and_then(|s| s.max.clone()),
                distinct_lower,
                distinct_upper: table_distinct.unwrap_or(usize::MAX),
            }
        })
        .collect();
    let fields = schema.fields();
    columns.sort_by(|a, b| fields[a.field].name.cmp(&fields[b.field].name));
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::datatype::DataType;

    fn table(n: usize) -> Table {
        let schema = Schema::flat(&[("id", DataType::Int), ("grp", DataType::Utf8)]).unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints((0..n as i64).collect::<Vec<_>>()),
                Column::from_strs((0..n).map(|i| format!("g{}", i % 3))),
            ],
        )
        .unwrap()
    }

    fn meta<'a>(pt: &'a PartitionedTable, name: &str) -> ColumnMeta<'a> {
        pt.column_meta()
            .find(|m| m.field.name == name)
            .expect("column in the view")
    }

    #[test]
    fn row_count_partitioning() {
        let pt = PartitionedTable::from_table(
            table(10),
            PartitionSpec::ByRowCount {
                rows_per_partition: 4,
            },
        )
        .unwrap();
        assert_eq!(pt.num_partitions(), 3);
        assert_eq!(pt.num_rows(), 10);
        assert_eq!(
            pt.partition_meta()
                .iter()
                .map(|m| m.row_count)
                .sum::<usize>(),
            10
        );
    }

    #[test]
    fn zero_rows_per_partition_rejected() {
        assert!(PartitionedTable::from_table(
            table(3),
            PartitionSpec::ByRowCount {
                rows_per_partition: 0
            }
        )
        .is_err());
    }

    #[test]
    fn column_partitioning_groups_rows() {
        let pt = PartitionedTable::from_table(
            table(30),
            PartitionSpec::ByColumn {
                column: "grp".to_string(),
                max_partitions: 8,
            },
        )
        .unwrap();
        assert!(pt.num_partitions() <= 3, "only 3 distinct group values");
        assert_eq!(pt.num_rows(), 30);
    }

    #[test]
    fn column_partitioning_missing_column_errors() {
        assert!(PartitionedTable::from_table(
            table(3),
            PartitionSpec::ByColumn {
                column: "nope".to_string(),
                max_partitions: 4
            }
        )
        .is_err());
    }

    #[test]
    fn table_level_stats_merge_partitions() {
        let pt = PartitionedTable::from_table(
            table(10),
            PartitionSpec::ByRowCount {
                rows_per_partition: 3,
            },
        )
        .unwrap();
        let id = meta(&pt, "id");
        assert_eq!(id.min, Some(&Value::Int(0)));
        assert_eq!(id.max, Some(&Value::Int(9)));
        assert_eq!(id.field.data_type, DataType::Int);
    }

    #[test]
    fn column_meta_lists_exactly_the_schema_fields() {
        let schema = Schema::flat(&[
            ("zeta", DataType::Int),
            ("alpha", DataType::Utf8),
            ("mid", DataType::Bool),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                Column::from_ints([3, 1]),
                Column::from_strs(["b", "a"]),
                Column::new(DataType::Bool, vec![Value::Bool(true), Value::Bool(false)]).unwrap(),
            ],
        )
        .unwrap();
        let pt = PartitionedTable::single(t);
        let names: Vec<&str> = pt.column_meta().map(|m| m.field.name.as_str()).collect();
        assert_eq!(
            names,
            ["alpha", "mid", "zeta"],
            "one entry per field, by name"
        );
        assert!(pt.column_meta().all(|m| m.field.name != "missing"));
    }

    #[test]
    fn to_table_round_trips_rows() {
        let t = table(10);
        let pt = PartitionedTable::from_table(
            t.clone(),
            PartitionSpec::ByRowCount {
                rows_per_partition: 4,
            },
        )
        .unwrap();
        let meter = Meter::new();
        let back = pt.to_table(&meter).unwrap();
        assert_eq!(back.num_rows(), 10);
        let a = t.row_hash_multiset(&["id", "grp"], &Meter::new()).unwrap();
        let b = back
            .row_hash_multiset(&["id", "grp"], &Meter::new())
            .unwrap();
        assert_eq!(a, b);
        assert!(meter.snapshot().rows_scanned >= 10);
    }

    #[test]
    fn empty_table_partitions() {
        let t = Table::empty(Schema::flat(&[("x", DataType::Int)]).unwrap());
        let pt = PartitionedTable::from_table(
            t,
            PartitionSpec::ByRowCount {
                rows_per_partition: 5,
            },
        )
        .unwrap();
        assert_eq!(pt.num_rows(), 0);
        assert_eq!(pt.num_partitions(), 1);
        let x = meta(&pt, "x");
        assert!(x.min.is_none() && x.max.is_none());
        assert_eq!(x.distinct_lower, 0);
    }

    #[test]
    fn table_level_distinct_is_exact_and_bounds_are_sound() {
        // 10 rows, 10 distinct ids, split over 3 partitions: the merged
        // per-partition distinct would be 10 anyway for unique ids — use the
        // grp column (3 distinct values smeared over partitions) where the
        // per-partition sum (9) overstates the truth (3).
        let pt = PartitionedTable::from_table(
            table(10),
            PartitionSpec::ByRowCount {
                rows_per_partition: 3,
            },
        )
        .unwrap();
        assert_eq!(pt.table_stats()["grp"].distinct_count, 3, "exact, not 9");
        let grp = meta(&pt, "grp");
        assert!(
            (1..=3).contains(&grp.distinct_lower),
            "sound lower bound, got {}",
            grp.distinct_lower
        );
        assert_eq!(grp.distinct_upper, 3);
        assert!(pt.column_sketch("nope").is_none());

        // Reassembled from its partitions the table has no exact count: the
        // upper bound becomes the per-partition sum, and the lower bound the
        // best per-partition or sketch figure, which stays sound.
        let merged = PartitionedTable::from_partition_tables(pt.partitions().to_vec()).unwrap();
        assert!(!merged.table_distinct_exact());
        let grp = meta(&merged, "grp");
        assert_eq!(
            grp.distinct_upper,
            3 + 3 + 3 + 1,
            "summed over 4 partitions"
        );
        assert!(
            (1..=3).contains(&grp.distinct_lower),
            "sound lower bound, got {}",
            grp.distinct_lower
        );
    }

    #[test]
    fn table_sketch_covers_every_value() {
        let pt = PartitionedTable::from_table(
            table(20),
            PartitionSpec::ByRowCount {
                rows_per_partition: 6,
            },
        )
        .unwrap();
        let sketch = pt.column_sketch("id").unwrap();
        for i in 0..20i64 {
            assert!(
                sketch.contains(crate::row::hash_values(&[&Value::Int(i)])),
                "value {i} must be in the table sketch"
            );
        }
    }

    #[test]
    fn single_partition_wrapper() {
        let pt = PartitionedTable::single(table(5));
        assert_eq!(pt.num_partitions(), 1);
        assert_eq!(pt.spec(), &PartitionSpec::Single);
    }
}
