//! Typed lake mutations: the [`LakeUpdate`] event vocabulary and the catalog
//! entry points that execute them.
//!
//! §7.1 of the paper studies four kinds of lake change — a dataset is added,
//! rows are appended, rows are removed, a dataset is deleted. [`LakeUpdate`]
//! is the typed event for those four cases; [`DataLake::apply_update`]
//! executes one against the catalog and reports what actually changed as an
//! [`AppliedUpdate`]. Content mutations rebuild the dataset's
//! [`PartitionedTable`] under its original [`PartitionSpec`], so partition
//! and table-level min/max statistics are re-derived from the new rows —
//! stale statistics never survive a mutation. Every content mutation also
//! bumps the entry's `generation` counter, so derived state keyed by
//! `(dataset, generation)` — e.g. a `HashJoinCache` of build-side hash
//! multisets — is invalidated by construction: stale entries stop being
//! addressable and only need an occasional prune
//! (`HashJoinCache::retain_generations`), which `r2d2_core`'s session runs
//! after each update batch.
//!
//! [`PartitionSpec`]: crate::partition::PartitionSpec

use crate::catalog::{AccessProfile, DataLake, DatasetId, Lineage};
use crate::error::{LakeError, Result};
use crate::partition::PartitionedTable;
use crate::query::Predicate;
use crate::table::Table;

/// One typed mutation of the data lake (the §7.1 update vocabulary).
#[derive(Debug, Clone, PartialEq)]
pub enum LakeUpdate {
    /// Register a brand-new dataset under a fresh id.
    AddDataset {
        /// Dataset name (must be unique within the lake).
        name: String,
        /// The dataset's data, already partitioned.
        data: PartitionedTable,
        /// Expected access behaviour for the cost model.
        access: AccessProfile,
        /// Known derivation lineage, if any.
        lineage: Option<Lineage>,
    },
    /// Append rows to an existing dataset (schema must match).
    AppendRows {
        /// Target dataset.
        id: DatasetId,
        /// Rows to append.
        rows: Table,
    },
    /// Delete every row matching a predicate from an existing dataset.
    DeleteRows {
        /// Target dataset.
        id: DatasetId,
        /// Rows matching this predicate are removed.
        predicate: Predicate,
    },
    /// Remove a dataset from the lake entirely.
    DropDataset {
        /// Target dataset.
        id: DatasetId,
    },
}

impl LakeUpdate {
    /// The dataset the update targets, when it is known up front
    /// (`AddDataset` only receives its id once applied).
    pub fn target(&self) -> Option<DatasetId> {
        match self {
            LakeUpdate::AddDataset { .. } => None,
            LakeUpdate::AppendRows { id, .. }
            | LakeUpdate::DeleteRows { id, .. }
            | LakeUpdate::DropDataset { id } => Some(*id),
        }
    }
}

/// What a [`LakeUpdate`] actually did to the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedUpdate {
    /// A new dataset was registered under `id`.
    Added {
        /// The freshly assigned dataset id.
        id: DatasetId,
    },
    /// `rows` rows were appended to dataset `id` (`rows == 0` is a no-op).
    Appended {
        /// The mutated dataset.
        id: DatasetId,
        /// Number of rows appended.
        rows: usize,
    },
    /// `rows` rows were deleted from dataset `id` (`rows == 0` is a no-op).
    Deleted {
        /// The mutated dataset.
        id: DatasetId,
        /// Number of rows removed.
        rows: usize,
    },
    /// Dataset `id` was removed from the lake.
    Dropped {
        /// The removed dataset.
        id: DatasetId,
    },
}

impl AppliedUpdate {
    /// The dataset the update touched.
    pub fn dataset(&self) -> DatasetId {
        match self {
            AppliedUpdate::Added { id }
            | AppliedUpdate::Appended { id, .. }
            | AppliedUpdate::Deleted { id, .. }
            | AppliedUpdate::Dropped { id } => *id,
        }
    }

    /// Whether the update left the dataset's content unchanged
    /// (zero-row appends and zero-match deletes).
    pub fn is_noop(&self) -> bool {
        matches!(
            self,
            AppliedUpdate::Appended { rows: 0, .. } | AppliedUpdate::Deleted { rows: 0, .. }
        )
    }
}

impl DataLake {
    /// Append `rows` to dataset `id`, rebuilding its partitions (and hence
    /// all partition/table statistics) under the dataset's original
    /// [`PartitionSpec`](crate::partition::PartitionSpec). Returns the number
    /// of appended rows; an empty `rows` table is a metered-free no-op.
    ///
    /// The rebuild materialises the existing partitions once (metered as a
    /// full scan on the lake meter, like any maintenance rewrite would be).
    pub fn append_rows(&mut self, id: DatasetId, rows: Table) -> Result<usize> {
        let appended = rows.num_rows();
        let entry = self.dataset(id)?;
        if entry.data.schema() != rows.schema() {
            return Err(LakeError::InvalidArgument(format!(
                "appended rows do not match the schema of dataset {id}"
            )));
        }
        if appended == 0 {
            return Ok(0);
        }
        let meter = self.meter().clone();
        let spec = entry.data.spec().clone();
        let combined = entry.data.to_table(&meter)?.concat(&rows)?;
        self.replace_data(id, PartitionedTable::from_table(combined, spec)?)?;
        Ok(appended)
    }

    /// Delete every row of dataset `id` matching `predicate`, rebuilding the
    /// partitions (and statistics) under the dataset's original spec.
    /// Returns the number of removed rows; zero matches is a no-op (after
    /// the metered scan that established it).
    pub fn delete_rows(&mut self, id: DatasetId, predicate: &Predicate) -> Result<usize> {
        let entry = self.dataset(id)?;
        for c in predicate.columns() {
            if entry.data.schema().index_of(c).is_none() {
                return Err(LakeError::ColumnNotFound(c.to_string()));
            }
        }
        let meter = self.meter().clone();
        let spec = entry.data.spec().clone();
        let full = entry.data.to_table(&meter)?;
        let mut keep = Vec::with_capacity(full.num_rows());
        for i in 0..full.num_rows() {
            if !predicate.matches(&full, i)? {
                keep.push(i);
            }
        }
        let removed = full.num_rows() - keep.len();
        if removed == 0 {
            return Ok(0);
        }
        let kept = full.take(&keep)?;
        self.replace_data(id, PartitionedTable::from_table(kept, spec)?)?;
        Ok(removed)
    }

    /// Execute one [`LakeUpdate`] against the catalog, returning what
    /// changed. `AddDataset` assigns the next free dataset id exactly as
    /// [`DataLake::add_dataset`] does, so replaying the same update sequence
    /// against equal lakes yields equal ids.
    pub fn apply_update(&mut self, update: &LakeUpdate) -> Result<AppliedUpdate> {
        match update {
            LakeUpdate::AddDataset {
                name,
                data,
                access,
                lineage,
            } => {
                let id = self.add_dataset(name.clone(), data.clone(), *access, lineage.clone())?;
                Ok(AppliedUpdate::Added { id })
            }
            LakeUpdate::AppendRows { id, rows } => Ok(AppliedUpdate::Appended {
                id: *id,
                rows: self.append_rows(*id, rows.clone())?,
            }),
            LakeUpdate::DeleteRows { id, predicate } => Ok(AppliedUpdate::Deleted {
                id: *id,
                rows: self.delete_rows(*id, predicate)?,
            }),
            LakeUpdate::DropDataset { id } => {
                self.remove_dataset(*id)?;
                Ok(AppliedUpdate::Dropped { id: *id })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::datatype::DataType;
    use crate::partition::PartitionSpec;
    use crate::schema::Schema;
    use crate::value::Value;

    fn table(ids: std::ops::Range<i64>) -> Table {
        let schema = Schema::flat(&[("id", DataType::Int), ("v", DataType::Float)]).unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints(ids.clone()),
                Column::from_floats(ids.map(|i| i as f64 * 0.5)),
            ],
        )
        .unwrap()
    }

    fn lake_with(ids: std::ops::Range<i64>, rows_per_partition: usize) -> (DataLake, DatasetId) {
        let mut lake = DataLake::new();
        let id = lake
            .add_dataset(
                "d",
                PartitionedTable::from_table(
                    table(ids),
                    PartitionSpec::ByRowCount { rows_per_partition },
                )
                .unwrap(),
                AccessProfile::default(),
                None,
            )
            .unwrap();
        (lake, id)
    }

    /// The table-level max of `id`, read from the column view.
    fn id_max(pt: &PartitionedTable) -> Option<&Value> {
        pt.column_meta().find(|m| m.field.name == "id")?.max
    }

    #[test]
    fn append_rows_grows_and_refreshes_stats() {
        let (mut lake, id) = lake_with(0..20, 8);
        let appended = lake.append_rows(id, table(20..30)).unwrap();
        assert_eq!(appended, 10);
        let entry = lake.dataset(id).unwrap();
        assert_eq!(entry.num_rows(), 30);
        // Statistics cover the appended rows and the spec is preserved.
        assert_eq!(id_max(&entry.data), Some(&Value::Int(29)));
        assert_eq!(
            entry.data.spec(),
            &PartitionSpec::ByRowCount {
                rows_per_partition: 8
            }
        );
        assert_eq!(entry.data.num_partitions(), 4);
    }

    #[test]
    fn append_empty_is_noop_and_schema_mismatch_errors() {
        let (mut lake, id) = lake_with(0..5, 8);
        assert_eq!(lake.append_rows(id, table(0..0)).unwrap(), 0);
        assert_eq!(lake.dataset(id).unwrap().num_rows(), 5);

        let other = Table::new(
            Schema::flat(&[("x", DataType::Int)]).unwrap(),
            vec![Column::from_ints(0..3)],
        )
        .unwrap();
        assert!(lake.append_rows(id, other).is_err());
        assert!(lake.append_rows(DatasetId(99), table(0..1)).is_err());
    }

    #[test]
    fn delete_rows_shrinks_and_refreshes_stats() {
        let (mut lake, id) = lake_with(0..20, 8);
        let removed = lake
            .delete_rows(
                id,
                &Predicate::between("id", Value::Int(10), Value::Int(19)),
            )
            .unwrap();
        assert_eq!(removed, 10);
        let entry = lake.dataset(id).unwrap();
        assert_eq!(entry.num_rows(), 10);
        assert_eq!(
            id_max(&entry.data),
            Some(&Value::Int(9)),
            "stats must reflect the deletion"
        );
    }

    #[test]
    fn delete_rows_no_match_is_noop_and_unknown_column_errors() {
        let (mut lake, id) = lake_with(0..5, 8);
        assert_eq!(
            lake.delete_rows(id, &Predicate::eq("id", Value::Int(77)))
                .unwrap(),
            0
        );
        assert!(lake
            .delete_rows(id, &Predicate::eq("nope", Value::Int(1)))
            .is_err());
    }

    #[test]
    fn delete_all_rows_leaves_an_empty_dataset() {
        let (mut lake, id) = lake_with(0..4, 2);
        let removed = lake.delete_rows(id, &Predicate::True).unwrap();
        assert_eq!(removed, 4);
        assert_eq!(lake.dataset(id).unwrap().num_rows(), 0);
    }

    #[test]
    fn apply_update_covers_all_four_kinds() {
        let (mut lake, id) = lake_with(0..10, 8);
        let added = lake
            .apply_update(&LakeUpdate::AddDataset {
                name: "e".into(),
                data: PartitionedTable::single(table(0..3)),
                access: AccessProfile::default(),
                lineage: None,
            })
            .unwrap();
        let new_id = added.dataset();
        assert!(matches!(added, AppliedUpdate::Added { .. }));
        assert!(lake.contains(new_id));

        let appended = lake
            .apply_update(&LakeUpdate::AppendRows {
                id,
                rows: table(10..12),
            })
            .unwrap();
        assert_eq!(appended, AppliedUpdate::Appended { id, rows: 2 });
        assert!(!appended.is_noop());

        let deleted = lake
            .apply_update(&LakeUpdate::DeleteRows {
                id,
                predicate: Predicate::eq("id", Value::Int(0)),
            })
            .unwrap();
        assert_eq!(deleted, AppliedUpdate::Deleted { id, rows: 1 });

        let dropped = lake
            .apply_update(&LakeUpdate::DropDataset { id: new_id })
            .unwrap();
        assert_eq!(dropped, AppliedUpdate::Dropped { id: new_id });
        assert!(!lake.contains(new_id));
    }

    #[test]
    fn replayed_updates_assign_equal_ids() {
        let updates = [
            LakeUpdate::AddDataset {
                name: "a".into(),
                data: PartitionedTable::single(table(0..4)),
                access: AccessProfile::default(),
                lineage: None,
            },
            LakeUpdate::AddDataset {
                name: "b".into(),
                data: PartitionedTable::single(table(0..2)),
                access: AccessProfile::default(),
                lineage: None,
            },
        ];
        assert_eq!(updates[0].target(), None);
        let run = || {
            let mut lake = DataLake::new();
            updates
                .iter()
                .map(|u| lake.apply_update(u).unwrap().dataset())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
