//! JOSIE-style inverted-index column search baseline (§2 / §6.4.2).
//!
//! JOSIE \[30\] treats every column as a set of distinct values, builds an
//! inverted index from value to the columns containing it, and answers
//! "top-k joinable columns" queries by probing the index and ranking
//! candidate columns by the number of overlapping distinct values. The paper
//! argues this family of approaches (a) is expensive to build — the index
//! must touch every row of every table — and (b) answers a *column
//! relatedness* question, which does not translate into the row-tuple
//! containment R2D2 needs (a table can be top-ranked for every column of a
//! query and still not contain a single one of its rows).
//!
//! This module implements the essential mechanics — distinct-value column
//! sets, the inverted index, top-k overlap search, and a table-level
//! adaptation that votes across columns — so the experiment harness can show
//! both the cost of index construction and the accuracy gap.

use r2d2_lake::{DataLake, Meter, Result, RowHash, RowHashMap};
use std::collections::{BTreeMap, HashSet};

/// Identifier of a column in the index: (dataset id, flattened column name).
pub type ColumnId = (u64, String);

/// An inverted index from (hashed) cell value to the columns containing it.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    /// value hash → column ids containing the value.
    postings: RowHashMap<Vec<usize>>,
    /// Interned column ids.
    columns: Vec<ColumnId>,
    /// Distinct-value count per column (the set cardinality JOSIE ranks by).
    column_cardinality: Vec<usize>,
}

/// One ranked answer of a top-k query.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranked {
    /// Dataset owning the candidate column.
    pub dataset: u64,
    /// Candidate column name.
    pub column: String,
    /// Number of distinct query values also present in the candidate.
    pub overlap: usize,
    /// Estimated containment of the query column in the candidate
    /// (overlap / query cardinality).
    pub containment: f64,
}

impl InvertedIndex {
    /// Build the index over every column of every dataset in the lake.
    ///
    /// This is the expensive step the paper points at: every row of every
    /// table is scanned and hashed (metered), and the posting lists grow with
    /// the number of distinct values in the lake.
    pub fn build(lake: &DataLake, meter: &Meter) -> Result<Self> {
        let mut index = InvertedIndex::default();
        for entry in lake.iter() {
            let table = entry.data.to_table(meter)?;
            for field in table.schema().fields() {
                let column_idx = index.columns.len();
                index.columns.push((entry.id.0, field.name.clone()));
                let hashes = table.row_hashes(&[field.name.as_str()], meter)?;
                let distinct: HashSet<RowHash> = hashes.into_iter().collect();
                index.column_cardinality.push(distinct.len());
                for h in distinct {
                    index.postings.entry(h).or_default().push(column_idx);
                }
            }
        }
        Ok(index)
    }

    /// Number of indexed columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Number of posting lists (distinct values across the lake).
    pub fn distinct_values(&self) -> usize {
        self.postings.len()
    }

    /// Top-k columns with the largest distinct-value overlap with the given
    /// query column (identified by dataset + column name). The query column's
    /// own entry is excluded. Probing is metered as one row comparison per
    /// posting visited, mirroring the probe cost JOSIE optimises.
    pub fn top_k_overlapping(
        &self,
        lake: &DataLake,
        query_dataset: u64,
        query_column: &str,
        k: usize,
        meter: &Meter,
    ) -> Result<Vec<Ranked>> {
        let entry = lake.dataset(r2d2_lake::DatasetId(query_dataset))?;
        let table = entry.data.to_table(meter)?;
        let hashes = table.row_hashes(&[query_column], meter)?;
        let query: HashSet<RowHash> = hashes.into_iter().collect();

        let mut overlap: BTreeMap<usize, usize> = BTreeMap::new();
        for h in &query {
            if let Some(postings) = self.postings.get(h) {
                meter.add_row_comparisons(postings.len() as u64);
                for &col in postings {
                    *overlap.entry(col).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<Ranked> = overlap
            .into_iter()
            .filter(|(col, _)| {
                let (ds, name) = &self.columns[*col];
                !(*ds == query_dataset && name == query_column)
            })
            .map(|(col, ov)| {
                let (ds, name) = self.columns[col].clone();
                Ranked {
                    dataset: ds,
                    column: name,
                    overlap: ov,
                    containment: if query.is_empty() {
                        1.0
                    } else {
                        ov as f64 / query.len() as f64
                    },
                }
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.overlap
                .cmp(&a.overlap)
                .then_with(|| a.dataset.cmp(&b.dataset))
                .then_with(|| a.column.cmp(&b.column))
        });
        ranked.truncate(k);
        Ok(ranked)
    }

    /// Table-level adaptation: for every column of the candidate child, find
    /// whether the candidate parent ranks in the top-k columns; declare the
    /// child "contained" in the parent when every child column's values are
    /// (set-wise) fully covered by the matching parent column. This inherits
    /// the columns-as-sets failure mode — it over-reports containment — which
    /// is exactly what §6.4.2 observes for set-based adaptations.
    pub fn table_containment_vote(
        &self,
        lake: &DataLake,
        child: u64,
        parent: u64,
        meter: &Meter,
    ) -> Result<bool> {
        let child_entry = lake.dataset(r2d2_lake::DatasetId(child))?;
        let child_schema = child_entry.data.schema().clone();
        for field in child_schema.fields() {
            let ranked = self.top_k_overlapping(lake, child, &field.name, usize::MAX, meter)?;
            let covered = ranked.iter().any(|r| {
                r.dataset == parent && r.column == field.name && r.containment >= 1.0 - 1e-12
            });
            if !covered {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{AccessProfile, Column, DataType, PartitionedTable, Schema, Table};

    /// Lake with: a parent table, an exact row-subset child, and the
    /// footnote-6 pair (column sets contained, row tuples not).
    fn lake() -> (DataLake, u64, u64, u64, u64) {
        let schema = Schema::flat(&[("month", DataType::Utf8), ("day", DataType::Int)]).unwrap();
        let parent = Table::new(
            schema.clone(),
            vec![
                Column::from_strs(["June", "May", "April", "March"]),
                Column::from_ints([20, 12, 7, 3]),
            ],
        )
        .unwrap();
        let subset = parent.take(&[0, 1]).unwrap();
        let swapped = Table::new(
            schema,
            vec![
                Column::from_strs(["June", "May"]),
                Column::from_ints([12, 20]),
            ],
        )
        .unwrap();
        let other_schema = Schema::flat(&[("city", DataType::Utf8)]).unwrap();
        let unrelated = Table::new(
            other_schema,
            vec![Column::from_strs(["springfield", "riverton"])],
        )
        .unwrap();

        let mut lake = DataLake::new();
        let p = lake
            .add_dataset(
                "parent",
                PartitionedTable::single(parent),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let s = lake
            .add_dataset(
                "subset",
                PartitionedTable::single(subset),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let w = lake
            .add_dataset(
                "swapped",
                PartitionedTable::single(swapped),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let u = lake
            .add_dataset(
                "unrelated",
                PartitionedTable::single(unrelated),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        (lake, p, s, w, u)
    }

    #[test]
    fn index_construction_scans_every_row() {
        let (lake, ..) = lake();
        let meter = Meter::new();
        let index = InvertedIndex::build(&lake, &meter).unwrap();
        assert_eq!(index.column_count(), 2 + 2 + 2 + 1);
        assert!(index.distinct_values() > 0);
        assert!(
            meter.snapshot().rows_scanned as usize >= lake.total_rows(),
            "index construction is a full sweep of the lake"
        );
    }

    #[test]
    fn top_k_ranks_the_true_superset_column_first() {
        let (lake, p, s, ..) = lake();
        let index = InvertedIndex::build(&lake, &Meter::new()).unwrap();
        let ranked = index
            .top_k_overlapping(&lake, s, "month", 3, &Meter::new())
            .unwrap();
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].dataset, p);
        assert_eq!(ranked[0].column, "month");
        assert_eq!(ranked[0].overlap, 2);
        assert!((ranked[0].containment - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_excludes_the_query_column_and_respects_k() {
        let (lake, _, s, ..) = lake();
        let index = InvertedIndex::build(&lake, &Meter::new()).unwrap();
        let ranked = index
            .top_k_overlapping(&lake, s, "month", 1, &Meter::new())
            .unwrap();
        assert_eq!(ranked.len(), 1);
        assert!(!(ranked[0].dataset == s && ranked[0].column == "month"));
    }

    #[test]
    fn unrelated_columns_do_not_appear() {
        let (lake, _, s, _, u) = lake();
        let index = InvertedIndex::build(&lake, &Meter::new()).unwrap();
        let ranked = index
            .top_k_overlapping(&lake, s, "day", 10, &Meter::new())
            .unwrap();
        assert!(ranked.iter().all(|r| r.dataset != u));
    }

    #[test]
    fn table_vote_accepts_true_containment_and_over_reports_swapped_rows() {
        let (lake, p, s, w, _) = lake();
        let index = InvertedIndex::build(&lake, &Meter::new()).unwrap();
        // True containment is accepted...
        assert!(index
            .table_containment_vote(&lake, s, p, &Meter::new())
            .unwrap());
        // ...but the footnote-6 pair is *also* accepted even though no row
        // tuple of `swapped` exists in `subset`'s parent — the inherent
        // inaccuracy of column-set adaptations the paper calls out.
        assert!(index
            .table_containment_vote(&lake, w, p, &Meter::new())
            .unwrap());
        // The reverse direction (parent in subset) is correctly rejected:
        // the parent has values the subset lacks.
        assert!(!index
            .table_containment_vote(&lake, p, s, &Meter::new())
            .unwrap());
    }
}
