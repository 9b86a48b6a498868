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

use crate::error::{LakeError, Result};
use crate::meter::Meter;
use crate::schema::Schema;
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
    num_rows: usize,
    spec: PartitionSpec,
}

impl PartitionedTable {
    /// Build a partitioned table from already-split partitions (all sharing
    /// the same schema). Used by the storage layer when reading row groups
    /// back from disk.
    pub fn from_partition_tables(partitions: Vec<Table>) -> Result<Self> {
        let schema = match partitions.first() {
            Some(p) => p.schema().clone(),
            None => {
                return Err(LakeError::InvalidArgument(
                    "at least one partition is required".to_string(),
                ))
            }
        };
        for p in &partitions {
            if p.schema() != &schema {
                return Err(LakeError::InvalidArgument(
                    "all partitions must share the same schema".to_string(),
                ));
            }
        }
        Self::assemble(schema, partitions, PartitionSpec::Explicit)
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

    fn assemble(schema: Schema, partitions: Vec<Table>, spec: PartitionSpec) -> Result<Self> {
        let partition_meta: Vec<PartitionMeta> = partitions
            .iter()
            .map(|p| PartitionMeta {
                row_count: p.num_rows(),
                byte_size: p.byte_size(),
                column_stats: p.column_stats(),
            })
            .collect();

        let mut table_stats: HashMap<String, ColumnStats> = HashMap::new();
        for meta in &partition_meta {
            for (name, stats) in &meta.column_stats {
                table_stats
                    .entry(name.clone())
                    .and_modify(|s| *s = s.merge(stats))
                    .or_insert_with(|| stats.clone());
            }
        }
        let num_rows = partitions.iter().map(Table::num_rows).sum();
        Ok(PartitionedTable {
            schema,
            partitions,
            partition_meta,
            table_stats,
            table_distinct_exact: false,
            num_rows,
            spec,
        })
    }

    /// Restore hook for the storage layer: reattach the table-level
    /// statistics the table was encoded with (exact distinct counts and
    /// value sketches from the `R2D2LAKE` v3 footer) instead of the merged
    /// per-partition upper bounds [`Self::assemble`] derives.
    pub(crate) fn with_table_stats(
        mut self,
        table_stats: HashMap<String, ColumnStats>,
        distinct_exact: bool,
    ) -> PartitionedTable {
        self.table_stats = table_stats;
        self.table_distinct_exact = distinct_exact;
        self
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

        Ok(Self::assemble(schema, partitions, spec)?.with_table_stats(exact_stats, true))
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

    /// Min and max of a column, served purely from metadata.
    ///
    /// This is the lookup Min-Max Pruning performs; it costs one metadata
    /// lookup on the meter and never touches row data. Returns `(None, None)`
    /// for an all-null or missing-stats column, and an error for a column not
    /// in the schema.
    pub fn column_min_max(
        &self,
        column: &str,
        meter: &Meter,
    ) -> Result<(Option<Value>, Option<Value>)> {
        meter.add_metadata_lookups(1);
        match self.table_stats.get(column) {
            Some(s) => Ok((s.min.clone(), s.max.clone())),
            None => {
                if self.schema.index_of(column).is_some() {
                    // Schema knows the column but the table is empty.
                    Ok((None, None))
                } else {
                    Err(LakeError::ColumnNotFound(column.to_string()))
                }
            }
        }
    }

    /// A sound **lower bound** on the number of distinct non-null values of
    /// a column, served purely from metadata (one metered lookup, no row
    /// reads): the best of (a) the largest exact per-partition distinct
    /// count (the table holds at least every value one partition holds) and
    /// (b) the table sketch's popcount bound
    /// ([`crate::sketch::ColumnSketch::min_distinct`]). Returns `0` for a
    /// missing or all-null column (no evidence, no prune).
    pub fn column_distinct_lower_bound(&self, column: &str, meter: &Meter) -> usize {
        meter.add_metadata_lookups(1);
        if self.table_distinct_exact {
            // The exact figure is its own (tight) lower bound — O(1).
            return self
                .table_stats
                .get(column)
                .map(|s| s.distinct_count)
                .unwrap_or(0);
        }
        let from_partitions = self
            .partition_meta
            .iter()
            .filter_map(|m| m.column_stats.get(column))
            .map(|s| s.distinct_count)
            .max()
            .unwrap_or(0);
        let from_sketch = self
            .table_stats
            .get(column)
            .map(|s| s.sketch.min_distinct())
            .unwrap_or(0);
        from_partitions.max(from_sketch)
    }

    /// An **upper bound** on the number of distinct non-null values of a
    /// column, served purely from metadata (one metered lookup): the
    /// table-level `distinct_count`, which is exact for tables built through
    /// [`PartitionedTable::from_table`] and a per-partition sum otherwise.
    /// Returns `usize::MAX` when the column has no statistics (no evidence,
    /// no prune).
    pub fn column_distinct_upper_bound(&self, column: &str, meter: &Meter) -> usize {
        meter.add_metadata_lookups(1);
        self.table_stats
            .get(column)
            .map(|s| s.distinct_count)
            .unwrap_or(usize::MAX)
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
        let meter = Meter::new();
        let (min, max) = pt.column_min_max("id", &meter).unwrap();
        assert_eq!(min, Some(Value::Int(0)));
        assert_eq!(max, Some(Value::Int(9)));
        assert_eq!(meter.snapshot().metadata_lookups, 1);
        assert_eq!(meter.snapshot().rows_scanned, 0, "metadata only");
    }

    #[test]
    fn column_min_max_unknown_column_errors() {
        let pt = PartitionedTable::single(table(3));
        let meter = Meter::new();
        assert!(pt.column_min_max("missing", &meter).is_err());
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
        let meter = Meter::new();
        let (min, max) = pt.column_min_max("x", &meter).unwrap();
        assert!(min.is_none() && max.is_none());
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
        let meter = Meter::new();
        assert_eq!(pt.table_stats()["grp"].distinct_count, 3, "exact, not 9");
        let lower = pt.column_distinct_lower_bound("grp", &meter);
        let upper = pt.column_distinct_upper_bound("grp", &meter);
        assert!((1..=3).contains(&lower), "sound lower bound, got {lower}");
        assert_eq!(upper, 3);
        assert_eq!(meter.snapshot().rows_scanned, 0, "metadata only");
        assert!(meter.snapshot().metadata_lookups >= 2);
        // Missing columns give no evidence.
        assert_eq!(pt.column_distinct_lower_bound("nope", &meter), 0);
        assert_eq!(pt.column_distinct_upper_bound("nope", &meter), usize::MAX);
        assert!(pt.column_sketch("nope").is_none());
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
