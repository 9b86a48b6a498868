//! MMP — Min-Max Pruning (Algorithm 2 of the paper).
//!
//! For every candidate edge `parent → child` and every common column `c`,
//! containment requires `min(child.c) ≥ min(parent.c)` and
//! `max(child.c) ≤ max(parent.c)`. Violating either condition on any column
//! disproves containment, so the edge is removed. The min/max values come
//! from partition-level metadata (the lake keeps them per partition and
//! merged per table), so this stage never reads a row — a property the unit
//! tests assert via the meter.
//!
//! The **distinct-count gate** extends the same metadata-only reasoning to
//! cardinalities: if a sound lower bound on `distinct(child.c)` (largest
//! exact per-partition count, or the table sketch's popcount bound — see
//! [`r2d2_lake::ColumnMeta::distinct_lower`]) exceeds an upper bound on
//! `distinct(parent.c)` (the table-level count, exact for catalog-built
//! tables), the child provably holds a value the parent lacks, so
//! containment is impossible and the edge is pruned — again without reading
//! a row. Gate prunes are counted separately (both in [`MmpStats`] and on
//! the meter's `distinct_prunes` counter).
//!
//! **Cost model.** Every table carries a name-sorted column view of its
//! metadata ([`r2d2_lake::PartitionedTable::column_meta`]), built once with
//! the table. Checking an edge is one merge-walk of the child's view
//! against the parent's: no schema set is built, no column name is hashed,
//! no value is cloned and nothing is allocated. Common columns are visited
//! in name order with the same early exits as the column-at-a-time
//! formulation, so the meter is charged the same work: two
//! `metadata_lookups` per min/max comparison and two per distinct-gate
//! comparison. Those charges are folded per run (or per edge, on the
//! session's single-edge path) and added to the shared meter once. A run
//! builds its output graph from the surviving edges of its input (same node
//! order, annotations copied), so building it costs per surviving edge,
//! not per pruned one.

use r2d2_graph::{ContainmentGraph, NodeId};
use r2d2_lake::{ColumnMeta, DataLake, DatasetId, Meter, PartitionedTable, Result};
use std::cmp::Ordering;

/// Edges per unit of parallel work: large enough that scheduling and the
/// result merge cost little next to the checks, small enough to balance.
const EDGE_CHUNK: usize = 256;

/// Which metadata checks an MMP run applies on top of the min/max check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmpOptions {
    /// Apply the distinct-count gate (see the module docs).
    pub distinct_gate: bool,
}

impl MmpOptions {
    /// The options a [`crate::config::PipelineConfig`] asks for.
    pub fn from_config(config: &crate::config::PipelineConfig) -> Self {
        MmpOptions {
            distinct_gate: config.mmp_distinct_gate,
        }
    }
}

/// Statistics of one MMP run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmpStats {
    /// Edges examined.
    pub edges_examined: usize,
    /// Edges removed because a column range was not nested.
    pub edges_pruned: usize,
    /// Edges removed by the distinct-count gate (a subset of
    /// `edges_pruned`): the child provably has more distinct values than
    /// the parent on some common column.
    pub edges_pruned_by_distinct: usize,
    /// Column min/max metadata lookups performed.
    pub columns_checked: usize,
}

/// Outcome of checking one edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EdgeCheck {
    prune: bool,
    distinct_prune: bool,
    columns_checked: usize,
    metadata_lookups: u64,
}

/// Whether the child's range on one common column provably escapes the
/// parent's.
fn range_violates(child: &ColumnMeta<'_>, parent: &ColumnMeta<'_>) -> bool {
    match (child.min, child.max, parent.min, parent.max) {
        (Some(cmin), Some(cmax), Some(pmin), Some(pmax)) => {
            cmin.total_cmp(pmin) == Ordering::Less || cmax.total_cmp(pmax) == Ordering::Greater
        }
        // Child has values in a column where the parent has none:
        // containment is impossible.
        (Some(_), Some(_), None, None) => true,
        // Child column all-null (or empty): cannot disprove.
        _ => false,
    }
}

/// Check `parent → child` against column min/max metadata and (when
/// `options.distinct_gate` is set) the distinct-count bounds: one
/// merge-walk over the two tables' name-sorted column views, visiting the
/// common columns in name order and stopping at the first disproof.
fn check_tables(
    parent: &PartitionedTable,
    child: &PartitionedTable,
    options: MmpOptions,
) -> EdgeCheck {
    let mut check = EdgeCheck::default();
    let mut parent_columns = parent.column_meta().peekable();
    for c in child.column_meta() {
        while parent_columns
            .next_if(|p| p.field.name < c.field.name)
            .is_some()
        {}
        let Some(p) = parent_columns.next_if(|p| p.field.name == c.field.name) else {
            if parent_columns.peek().is_none() {
                break;
            }
            continue;
        };
        if c.field.data_type.supports_min_max() {
            check.columns_checked += 1;
            check.metadata_lookups += 2;
            if range_violates(&c, &p) {
                check.prune = true;
                break;
            }
        }
        // Distinct-count gate: child_lower > parent_upper means the child
        // provably holds a value the parent lacks in this column, so some
        // child row cannot be in the parent. Applies to every common column
        // (distinct counts exist regardless of min/max support).
        if options.distinct_gate {
            check.metadata_lookups += 2;
            if c.distinct_lower > p.distinct_upper {
                check.prune = true;
                check.distinct_prune = true;
                break;
            }
        }
    }
    check
}

/// Charge one or more folded edge checks to the meter.
fn charge(meter: &Meter, metadata_lookups: u64, distinct_prunes: usize) {
    meter.add_metadata_lookups(metadata_lookups);
    meter.add_distinct_prunes(distinct_prunes as u64);
}

/// Whether the single edge `parent → child` survives Min-Max Pruning, using
/// only column metadata. This is the per-edge primitive behind
/// [`min_max_prune_threaded`], shared with the session's dynamic-update
/// verification path.
pub(crate) fn edge_passes(
    lake: &DataLake,
    parent_id: u64,
    child_id: u64,
    options: MmpOptions,
    meter: &Meter,
) -> Result<bool> {
    let parent = &lake.dataset(DatasetId(parent_id))?.data;
    let child = &lake.dataset(DatasetId(child_id))?.data;
    let check = check_tables(parent, child, options);
    charge(meter, check.metadata_lookups, check.distinct_prune as usize);
    Ok(!check.prune)
}

/// Run Min-Max Pruning over `graph` and return the graph of surviving
/// edges — same nodes in the same order, annotations kept — with the run's
/// statistics. `graph` itself is left untouched. See
/// [`min_max_prune_threaded`].
pub(crate) fn min_max_survivors(
    lake: &DataLake,
    graph: &ContainmentGraph,
    options: MmpOptions,
    threads: usize,
    meter: &Meter,
) -> Result<(ContainmentGraph, MmpStats)> {
    // Resolve every node's table once; an edge touching a dataset missing
    // from the lake fails with the catalog's own error.
    let ids = graph.datasets();
    let tables: Vec<Option<&PartitionedTable>> = ids
        .iter()
        .map(|&id| lake.dataset(DatasetId(id)).ok().map(|e| &*e.data))
        .collect();
    let table = |node: NodeId| match tables[node.0] {
        Some(table) => Ok(table),
        None => lake.dataset(DatasetId(ids[node.0])).map(|e| &*e.data),
    };

    let edges = graph.digraph().edges();
    let chunks: Vec<&[(NodeId, NodeId)]> = edges.chunks(EDGE_CHUNK).collect();
    let checks: Vec<Vec<EdgeCheck>> = crate::fanout::try_parallel_map(threads, &chunks, |chunk| {
        chunk
            .iter()
            .map(|&(parent, child)| Ok(check_tables(table(parent)?, table(child)?, options)))
            .collect()
    })?;

    let mut stats = MmpStats::default();
    let mut metadata_lookups = 0u64;
    let mut survivors = ContainmentGraph::with_datasets(ids.iter().copied());
    for (&(parent, child), check) in edges.iter().zip(checks.iter().flatten()) {
        stats.edges_examined += 1;
        stats.columns_checked += check.columns_checked;
        stats.edges_pruned_by_distinct += check.distinct_prune as usize;
        metadata_lookups += check.metadata_lookups;
        if check.prune {
            stats.edges_pruned += 1;
        } else {
            let (parent, child) = (ids[parent.0], ids[child.0]);
            let annotation = graph.edge(parent, child).cloned().unwrap_or_default();
            survivors.add_edge_with(parent, child, annotation);
        }
    }
    charge(meter, metadata_lookups, stats.edges_pruned_by_distinct);
    Ok((survivors, stats))
}

/// Run Min-Max Pruning over `graph`, mutating it in place, single-threaded.
/// See [`min_max_prune_threaded`].
pub fn min_max_prune(
    lake: &DataLake,
    graph: &mut ContainmentGraph,
    options: MmpOptions,
    meter: &Meter,
) -> Result<MmpStats> {
    min_max_prune_threaded(lake, graph, options, 1, meter)
}

/// Run Min-Max Pruning over `graph` on up to `threads` workers (`0` = all
/// hardware threads), replacing the graph with its surviving edges.
///
/// The min/max check covers the columns whose declared type supports
/// min/max semantics (numbers, timestamps, strings), matching the paper's
/// focus on numerical columns while still exploiting what parquet metadata
/// provides for byte arrays; `options.distinct_gate` adds the distinct-count
/// gate.
///
/// Each edge's check only reads the (immutable) lake, so chunks of edges
/// fan out freely; decisions and counters are merged afterwards in edge
/// order, making the resulting graph, stats and meter totals identical for
/// every thread count.
pub fn min_max_prune_threaded(
    lake: &DataLake,
    graph: &mut ContainmentGraph,
    options: MmpOptions,
    threads: usize,
    meter: &Meter,
) -> Result<MmpStats> {
    let (survivors, stats) = min_max_survivors(lake, graph, options, threads, meter)?;
    *graph = survivors;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{AccessProfile, Column, DataLake, DataType, PartitionedTable, Schema, Table};

    pub(super) const GATED: MmpOptions = MmpOptions {
        distinct_gate: true,
    };
    pub(super) const UNGATED: MmpOptions = MmpOptions {
        distinct_gate: false,
    };

    fn add_table(lake: &mut DataLake, name: &str, ids: Vec<i64>, amounts: Vec<f64>) -> u64 {
        let schema = Schema::flat(&[("id", DataType::Int), ("amount", DataType::Float)]).unwrap();
        let t = Table::new(
            schema,
            vec![Column::from_ints(ids), Column::from_floats(amounts)],
        )
        .unwrap();
        lake.add_dataset(
            name,
            PartitionedTable::single(t),
            AccessProfile::default(),
            None,
        )
        .unwrap()
        .0
    }

    #[test]
    fn prunes_edge_when_child_range_exceeds_parent() {
        let mut lake = DataLake::new();
        let parent = add_table(
            &mut lake,
            "parent",
            vec![0, 1, 2, 3],
            vec![1.0, 2.0, 3.0, 4.0],
        );
        let child_ok = add_table(&mut lake, "child_ok", vec![1, 2], vec![2.0, 3.0]);
        let child_bad = add_table(&mut lake, "child_bad", vec![1, 99], vec![2.0, 3.0]);

        let mut graph = ContainmentGraph::new();
        graph.add_edge(parent, child_ok);
        graph.add_edge(parent, child_bad);

        let meter = Meter::new();
        let stats = min_max_prune(&lake, &mut graph, GATED, &meter).unwrap();
        assert_eq!(stats.edges_examined, 2);
        assert_eq!(stats.edges_pruned, 1);
        assert!(graph.has_edge(parent, child_ok));
        assert!(!graph.has_edge(parent, child_bad));
    }

    #[test]
    fn never_reads_rows() {
        let mut lake = DataLake::new();
        let parent = add_table(
            &mut lake,
            "p",
            (0..100).collect(),
            (0..100).map(|i| i as f64).collect(),
        );
        let child = add_table(
            &mut lake,
            "c",
            (10..20).collect(),
            (10..20).map(|i| i as f64).collect(),
        );
        let mut graph = ContainmentGraph::new();
        graph.add_edge(parent, child);
        let meter = Meter::new();
        min_max_prune(&lake, &mut graph, GATED, &meter).unwrap();
        let s = meter.snapshot();
        assert_eq!(s.rows_scanned, 0, "MMP must be metadata-only");
        assert!(s.metadata_lookups > 0);
    }

    #[test]
    fn never_prunes_a_true_containment_edge() {
        // Child is a literal subset of the parent rows → ranges always nest.
        let mut lake = DataLake::new();
        let parent = add_table(
            &mut lake,
            "p",
            vec![5, 1, 9, 3, 7],
            vec![0.5, 0.1, 0.9, 0.3, 0.7],
        );
        let child = add_table(&mut lake, "c", vec![1, 9], vec![0.1, 0.9]);
        let mut graph = ContainmentGraph::new();
        graph.add_edge(parent, child);
        let stats = min_max_prune(&lake, &mut graph, GATED, &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 0);
        assert!(graph.has_edge(parent, child));
    }

    #[test]
    fn min_violation_alone_is_enough() {
        let mut lake = DataLake::new();
        let parent = add_table(&mut lake, "p", vec![10, 20], vec![1.0, 2.0]);
        // Child max (20) is fine but min (5) < parent min (10).
        let child = add_table(&mut lake, "c", vec![5, 20], vec![1.0, 2.0]);
        let mut graph = ContainmentGraph::new();
        graph.add_edge(parent, child);
        let stats = min_max_prune(&lake, &mut graph, GATED, &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 1);
    }

    #[test]
    fn all_null_child_column_cannot_disprove() {
        let mut lake = DataLake::new();
        let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
        let parent_t = Table::new(schema.clone(), vec![Column::from_ints([1, 2, 3])]).unwrap();
        let child_t = Table::new(
            schema,
            vec![Column::new(DataType::Int, vec![r2d2_lake::Value::Null]).unwrap()],
        )
        .unwrap();
        let p = lake
            .add_dataset(
                "p",
                PartitionedTable::single(parent_t),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let c = lake
            .add_dataset(
                "c",
                PartitionedTable::single(child_t),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let mut graph = ContainmentGraph::new();
        graph.add_edge(p, c);
        let stats = min_max_prune(&lake, &mut graph, GATED, &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 0);
    }

    #[test]
    fn child_values_in_empty_parent_column_prune() {
        let mut lake = DataLake::new();
        let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
        let parent_t = Table::new(
            schema.clone(),
            vec![Column::new(
                DataType::Int,
                vec![r2d2_lake::Value::Null, r2d2_lake::Value::Null],
            )
            .unwrap()],
        )
        .unwrap();
        let child_t = Table::new(schema, vec![Column::from_ints([4])]).unwrap();
        let p = lake
            .add_dataset(
                "p",
                PartitionedTable::single(parent_t),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let c = lake
            .add_dataset(
                "c",
                PartitionedTable::single(child_t),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let mut graph = ContainmentGraph::new();
        graph.add_edge(p, c);
        let stats = min_max_prune(&lake, &mut graph, GATED, &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 1);
    }

    #[test]
    fn distinct_gate_prunes_wider_child_within_nested_ranges() {
        let mut lake = DataLake::new();
        // Parent: 2 distinct ids spanning [0, 10]; child: 3 distinct ids
        // inside that range. Min/max cannot disprove, cardinality can.
        let parent = add_table(&mut lake, "p", vec![0, 10], vec![1.0, 2.0]);
        let child = add_table(&mut lake, "c", vec![0, 5, 10], vec![1.0, 1.5, 2.0]);
        let mut graph = ContainmentGraph::new();
        graph.add_edge(parent, child);
        let meter = Meter::new();
        let stats = min_max_prune(&lake, &mut graph, GATED, &meter).unwrap();
        assert_eq!(stats.edges_pruned, 1);
        assert_eq!(stats.edges_pruned_by_distinct, 1);
        assert!(!graph.has_edge(parent, child));
        let snap = meter.snapshot();
        assert_eq!(snap.distinct_prunes, 1, "gate prunes hit their counter");
        assert_eq!(snap.rows_scanned, 0, "the gate is metadata-only");

        // With the gate disabled the edge survives MMP (ranges nest).
        let mut ungated = ContainmentGraph::new();
        ungated.add_edge(parent, child);
        let stats = min_max_prune(&lake, &mut ungated, UNGATED, &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 0);
        assert_eq!(stats.edges_pruned_by_distinct, 0);
        assert!(ungated.has_edge(parent, child));
    }

    #[test]
    fn distinct_gate_never_prunes_a_true_containment_edge() {
        // Child is a literal subset of the parent rows: every sound bound
        // must keep the edge.
        let mut lake = DataLake::new();
        let parent = add_table(
            &mut lake,
            "p",
            (0..200).collect(),
            (0..200).map(|i| i as f64).collect(),
        );
        let child = add_table(
            &mut lake,
            "c",
            (20..180).collect(),
            (20..180).map(|i| i as f64).collect(),
        );
        let mut graph = ContainmentGraph::new();
        graph.add_edge(parent, child);
        let stats = min_max_prune(&lake, &mut graph, GATED, &Meter::new()).unwrap();
        assert_eq!(stats.edges_pruned, 0);
        assert!(graph.has_edge(parent, child));
    }

    #[test]
    fn threaded_mmp_matches_sequential() {
        let mut lake = DataLake::new();
        let parent = add_table(
            &mut lake,
            "p",
            (0..50).collect(),
            (0..50).map(|i| i as f64).collect(),
        );
        let ok = add_table(
            &mut lake,
            "ok",
            (5..15).collect(),
            (5..15).map(|i| i as f64).collect(),
        );
        let bad = add_table(&mut lake, "bad", vec![1, 999], vec![1.0, 2.0]);
        let bad2 = add_table(&mut lake, "bad2", vec![-7, 3], vec![1.0, 2.0]);

        let build = || {
            let mut g = ContainmentGraph::new();
            g.add_edge(parent, ok);
            g.add_edge(parent, bad);
            g.add_edge(parent, bad2);
            g
        };
        let seq_meter = Meter::new();
        let mut seq_graph = build();
        let seq = min_max_prune(&lake, &mut seq_graph, GATED, &seq_meter).unwrap();

        let par_meter = Meter::new();
        let mut par_graph = build();
        let par = min_max_prune_threaded(&lake, &mut par_graph, GATED, 4, &par_meter).unwrap();

        assert_eq!(seq_graph, par_graph);
        assert_eq!(seq, par);
        assert_eq!(seq_meter.snapshot(), par_meter.snapshot());
        assert_eq!(par.edges_pruned, 2);
    }

    #[test]
    fn missing_dataset_is_an_error() {
        let lake = DataLake::new();
        let mut graph = ContainmentGraph::new();
        graph.add_edge(0, 1);
        assert!(min_max_prune(&lake, &mut graph, GATED, &Meter::new()).is_err());
    }

    #[test]
    fn stats_count_columns_checked() {
        let mut lake = DataLake::new();
        let p = add_table(&mut lake, "p", vec![1, 2], vec![1.0, 2.0]);
        let c = add_table(&mut lake, "c", vec![1], vec![1.0]);
        let mut graph = ContainmentGraph::new();
        graph.add_edge(p, c);
        let stats = min_max_prune(&lake, &mut graph, GATED, &Meter::new()).unwrap();
        assert_eq!(stats.columns_checked, 2, "id and amount both checked");
    }
}

/// The merge-walk against Algorithm 2 stated column at a time, keyed by
/// column name, on random lakes shaped by the corpus transforms (impostor
/// ranges, null floods, drifted types and names, empty tables).
#[cfg(test)]
mod equivalence {
    use super::tests::{GATED, UNGATED};
    use super::*;
    use r2d2_lake::{AccessProfile, Column, DataType, PartitionSpec, Schema, Table, Value};
    use r2d2_synth::Transform;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Algorithm 2 as the column-at-a-time check: intersect the two schema
    /// sets, then look every common column's statistics up by name. The
    /// merge-walk must reach the same decision and charge the same lookups.
    fn reference_check(
        parent: &PartitionedTable,
        child: &PartitionedTable,
        options: MmpOptions,
    ) -> EdgeCheck {
        let min_max = |t: &PartitionedTable, col: &str| {
            t.table_stats()
                .get(col)
                .map_or((None, None), |s| (s.min.clone(), s.max.clone()))
        };
        let lower = |t: &PartitionedTable, col: &str| {
            if t.table_distinct_exact() {
                return t.table_stats().get(col).map_or(0, |s| s.distinct_count);
            }
            let from_partitions = t
                .partition_meta()
                .iter()
                .filter_map(|m| m.column_stats.get(col))
                .map(|s| s.distinct_count)
                .max()
                .unwrap_or(0);
            let from_sketch = t
                .table_stats()
                .get(col)
                .map_or(0, |s| s.sketch.min_distinct());
            from_partitions.max(from_sketch)
        };
        let upper = |t: &PartitionedTable, col: &str| {
            t.table_stats()
                .get(col)
                .map_or(usize::MAX, |s| s.distinct_count)
        };

        let common = child
            .schema()
            .schema_set()
            .intersection(&parent.schema().schema_set());
        let mut check = EdgeCheck::default();
        for col in &common {
            if child.schema().data_type(col).unwrap().supports_min_max() {
                check.columns_checked += 1;
                check.metadata_lookups += 2;
                let violates = match (min_max(child, col), min_max(parent, col)) {
                    ((Some(cmin), Some(cmax)), (Some(pmin), Some(pmax))) => {
                        cmin.total_cmp(&pmin) == Ordering::Less
                            || cmax.total_cmp(&pmax) == Ordering::Greater
                    }
                    ((Some(_), Some(_)), (None, None)) => true,
                    _ => false,
                };
                if violates {
                    check.prune = true;
                    break;
                }
            }
            if options.distinct_gate {
                check.metadata_lookups += 2;
                if lower(child, col) > upper(parent, col) {
                    check.prune = true;
                    check.distinct_prune = true;
                    break;
                }
            }
        }
        check
    }

    fn root_table(rng: &mut SmallRng) -> Table {
        let schema = Schema::flat(&[
            ("id", DataType::Int),
            ("name", DataType::Utf8),
            ("score", DataType::Float),
            ("ts", DataType::Timestamp),
            ("flag", DataType::Bool),
        ])
        .unwrap();
        let n = rng.gen_range(1usize..40);
        let mut cells: Vec<Vec<Value>> = vec![Vec::new(); 5];
        for _ in 0..n {
            let null = |rng: &mut SmallRng| rng.gen_bool(0.1);
            let row = [
                Value::Int(rng.gen_range(-20i64..60)),
                Value::Str(format!("n{}", rng.gen_range(0u32..12))),
                Value::Float(rng.gen_range(-5.0f64..5.0)),
                Value::Timestamp(rng.gen_range(1_000i64..1_100)),
                Value::Bool(rng.gen_bool(0.5)),
            ];
            for (col, v) in cells.iter_mut().zip(row) {
                col.push(if null(rng) { Value::Null } else { v });
            }
        }
        let columns = schema
            .fields()
            .iter()
            .zip(cells)
            .map(|(f, values)| Column::new(f.data_type, values).unwrap())
            .collect();
        Table::new(schema, columns).unwrap()
    }

    fn derive(source: &Table, rng: &mut SmallRng) -> Table {
        let transform = match rng.gen_range(0u32..14) {
            0 => Transform::SampleFraction {
                fraction: rng.gen_range(0.2f64..1.0),
            },
            1 => Transform::SampleWhere { zipf_exponent: 1.0 },
            2 => Transform::AddRows {
                count: rng.gen_range(1usize..6),
            },
            3 | 4 => Transform::ResampleInRange,
            5 => Transform::DropColumns {
                count: rng.gen_range(1usize..3),
            },
            6 => Transform::NullFlood {
                fraction: rng.gen_range(0.2f64..0.9),
            },
            7 => Transform::NullFlood { fraction: 1.0 },
            8 => Transform::AddNoise { magnitude: 2.0 },
            9 => Transform::RenameColumn,
            10 => Transform::WidenIntToFloat,
            11 => Transform::UnicodeDecorate,
            12 => Transform::SortByColumn,
            _ => return Table::empty(source.schema().clone()),
        };
        transform
            .apply(source, rng)
            .map(|outcome| outcome.table)
            .unwrap_or_else(|_| source.clone())
    }

    /// Partition a table one of three ways; the last reassembles it from
    /// its partitions, so its distinct counts are per-partition sums and its
    /// lower bounds come from partitions and the sketch.
    fn partitioned(table: Table, rng: &mut SmallRng) -> PartitionedTable {
        match rng.gen_range(0u32..3) {
            0 => PartitionedTable::single(table),
            1 => PartitionedTable::from_table(
                table,
                PartitionSpec::ByRowCount {
                    rows_per_partition: rng.gen_range(1usize..8),
                },
            )
            .unwrap(),
            _ => {
                let exact = PartitionedTable::from_table(
                    table,
                    PartitionSpec::ByRowCount {
                        rows_per_partition: rng.gen_range(1usize..8),
                    },
                )
                .unwrap();
                PartitionedTable::from_partition_tables(exact.partitions().to_vec()).unwrap()
            }
        }
    }

    fn random_lake(seed: u64) -> DataLake {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tables = vec![root_table(&mut rng)];
        for _ in 0..rng.gen_range(3usize..9) {
            let source = tables[rng.gen_range(0..tables.len())].clone();
            tables.push(derive(&source, &mut rng));
        }
        let mut lake = DataLake::new();
        for (k, table) in tables.into_iter().enumerate() {
            let data = partitioned(table, &mut rng);
            lake.add_dataset(format!("d{k}"), data, AccessProfile::default(), None)
                .unwrap();
        }
        lake
    }

    /// Every ordered pair of distinct datasets: schema containment is not
    /// required, so the walk also meets disjoint and partial overlaps.
    fn all_pairs(lake: &DataLake) -> Vec<(u64, u64)> {
        let ids: Vec<u64> = lake.iter().map(|e| e.id.0).collect();
        ids.iter()
            .flat_map(|&p| ids.iter().filter(move |&&c| c != p).map(move |&c| (p, c)))
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn merge_walk_matches_the_name_keyed_reference(seed in 0u64..1_000_000) {
            let lake = random_lake(seed);
            let pairs = all_pairs(&lake);
            for options in [GATED, UNGATED] {
                let mut expected = MmpStats::default();
                let mut expected_lookups = 0u64;
                let mut expected_graph = ContainmentGraph::new();
                for &(p, c) in &pairs {
                    expected_graph.add_edge(p, c);
                }
                let input = expected_graph.clone();

                for &(p, c) in &pairs {
                    let parent = &lake.dataset(DatasetId(p)).unwrap().data;
                    let child = &lake.dataset(DatasetId(c)).unwrap().data;
                    let reference = reference_check(parent, child, options);
                    proptest::prop_assert_eq!(
                        check_tables(parent, child, options),
                        reference,
                        "seed {} edge {}->{} {:?}", seed, p, c, options
                    );

                    let meter = Meter::new();
                    let passes = edge_passes(&lake, p, c, options, &meter).unwrap();
                    let counts = meter.snapshot();
                    proptest::prop_assert_eq!(passes, !reference.prune);
                    proptest::prop_assert_eq!(counts.metadata_lookups, reference.metadata_lookups);
                    proptest::prop_assert_eq!(counts.distinct_prunes, reference.distinct_prune as u64);
                    proptest::prop_assert_eq!(counts.rows_scanned, 0);

                    expected.edges_examined += 1;
                    expected.columns_checked += reference.columns_checked;
                    expected.edges_pruned_by_distinct += reference.distinct_prune as usize;
                    expected_lookups += reference.metadata_lookups;
                    if reference.prune {
                        expected.edges_pruned += 1;
                        expected_graph.remove_edge(p, c);
                    }
                }

                for threads in [1, 2] {
                    let meter = Meter::new();
                    let mut graph = input.clone();
                    let stats =
                        min_max_prune_threaded(&lake, &mut graph, options, threads, &meter).unwrap();
                    let counts = meter.snapshot();
                    proptest::prop_assert_eq!(stats, expected, "seed {} threads {}", seed, threads);
                    proptest::prop_assert_eq!(&graph, &expected_graph);
                    proptest::prop_assert_eq!(counts.metadata_lookups, expected_lookups);
                    proptest::prop_assert_eq!(
                        counts.distinct_prunes,
                        expected.edges_pruned_by_distinct as u64
                    );
                }
            }
        }
    }

    /// The property above is only as strong as its lakes: across 64 of
    /// them, every outcome and metadata shape it is meant to cover must
    /// actually occur.
    #[test]
    fn random_lakes_cover_every_outcome() {
        let (mut range, mut distinct, mut survive, mut empty_parent) = (0, 0, 0, 0);
        let (mut drifted, mut inexact, mut empty) = (0, 0, 0);
        for seed in 0..64 {
            let lake = random_lake(seed);
            inexact += lake
                .iter()
                .filter(|e| !e.data.table_distinct_exact())
                .count();
            empty += lake.iter().filter(|e| e.data.num_rows() == 0).count();
            for (p, c) in all_pairs(&lake) {
                let parent = &lake.dataset(DatasetId(p)).unwrap().data;
                let child = &lake.dataset(DatasetId(c)).unwrap().data;
                let check = reference_check(parent, child, GATED);
                range += (check.prune && !check.distinct_prune) as usize;
                distinct += check.distinct_prune as usize;
                survive += (!check.prune && check.columns_checked > 0) as usize;
                for cm in child.column_meta() {
                    let Some(pm) = parent.column_meta().find(|m| m.field.name == cm.field.name)
                    else {
                        continue;
                    };
                    empty_parent += (cm.min.is_some() && pm.min.is_none()) as usize;
                    drifted += (cm.field.data_type != pm.field.data_type) as usize;
                }
            }
        }
        for (what, n) in [
            ("range prunes", range),
            ("distinct-gate prunes", distinct),
            ("surviving edges", survive),
            ("child values over an all-null parent column", empty_parent),
            ("common columns of differing types", drifted),
            ("tables without exact distinct counts", inexact),
            ("empty tables", empty),
        ] {
            assert!(n > 0, "no {what} in the random lakes");
        }
    }
}
