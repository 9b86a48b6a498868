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
//! [`r2d2_lake::PartitionedTable::column_distinct_lower_bound`]) exceeds an
//! upper bound on `distinct(parent.c)` (the table-level count, exact for
//! catalog-built tables), the child provably holds a value the parent
//! lacks, so containment is impossible and the edge is pruned — again
//! without reading a row. Gate prunes are counted separately (both in
//! [`MmpStats`] and on the meter's `distinct_prunes` counter).

use r2d2_graph::ContainmentGraph;
use r2d2_lake::{DataLake, DatasetId, LakeError, Meter, Result};

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

/// Outcome of checking one edge, merged deterministically afterwards.
struct EdgeCheck {
    prune: bool,
    distinct_prune: bool,
    columns_checked: usize,
}

/// Check a single `parent → child` edge against column min/max metadata and
/// (when `options.distinct_gate` is set) the distinct-count bounds.
fn check_edge(
    lake: &DataLake,
    parent_id: u64,
    child_id: u64,
    options: MmpOptions,
    meter: &Meter,
) -> Result<EdgeCheck> {
    let parent = lake.dataset(DatasetId(parent_id))?;
    let child = lake.dataset(DatasetId(child_id))?;

    let parent_schema = parent.data.schema();
    let child_schema = child.data.schema();
    let common: Vec<String> = child_schema
        .schema_set()
        .intersection(&parent_schema.schema_set());

    let mut columns_checked = 0usize;
    let mut prune = false;
    let mut distinct_prune = false;
    for col in &common {
        if child_schema.data_type(col)?.supports_min_max() {
            columns_checked += 1;
            let (cmin, cmax) = child.data.column_min_max(col, meter)?;
            let (pmin, pmax) = parent.data.column_min_max(col, meter)?;
            let violates = match (cmin, cmax, pmin, pmax) {
                (Some(cmin), Some(cmax), Some(pmin), Some(pmax)) => {
                    cmin.total_cmp(&pmin) == std::cmp::Ordering::Less
                        || cmax.total_cmp(&pmax) == std::cmp::Ordering::Greater
                }
                // Child has values in a column where the parent has none:
                // containment is impossible.
                (Some(_), Some(_), None, None) => true,
                // Child column all-null (or empty): cannot disprove.
                _ => false,
            };
            if violates {
                prune = true;
                break;
            }
        }
        // Distinct-count gate: child_lower > parent_upper means the child
        // provably holds a value the parent lacks in this column, so some
        // child row cannot be in the parent. Applies to every common column
        // (distinct counts exist regardless of min/max support).
        if options.distinct_gate
            && child.data.column_distinct_lower_bound(col, meter)
                > parent.data.column_distinct_upper_bound(col, meter)
        {
            prune = true;
            distinct_prune = true;
            meter.add_distinct_prunes(1);
            break;
        }
    }
    Ok(EdgeCheck {
        prune,
        distinct_prune,
        columns_checked,
    })
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
    Ok(!check_edge(lake, parent_id, child_id, options, meter)?.prune)
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
/// hardware threads), mutating the graph in place.
///
/// The min/max check covers the columns whose declared type supports
/// min/max semantics (numbers, timestamps, strings), matching the paper's
/// focus on numerical columns while still exploiting what parquet metadata
/// provides for byte arrays; `options.distinct_gate` adds the distinct-count
/// gate.
///
/// Each edge's check only reads the (immutable) lake and the shared atomic
/// meter, so edges fan out freely; prune decisions are applied to the graph
/// afterwards in edge order, making the resulting graph, stats and meter
/// totals identical for every thread count.
pub fn min_max_prune_threaded(
    lake: &DataLake,
    graph: &mut ContainmentGraph,
    options: MmpOptions,
    threads: usize,
    meter: &Meter,
) -> Result<MmpStats> {
    let edges = graph.edges();
    let checks: Vec<EdgeCheck> =
        crate::fanout::try_parallel_map(threads, &edges, |&(parent_id, child_id)| {
            check_edge(lake, parent_id, child_id, options, meter)
        })?;

    let mut stats = MmpStats::default();
    for (&(parent_id, child_id), check) in edges.iter().zip(checks) {
        stats.edges_examined += 1;
        stats.columns_checked += check.columns_checked;
        stats.edges_pruned_by_distinct += check.distinct_prune as usize;
        if check.prune {
            graph
                .remove_edge(parent_id, child_id)
                .ok_or_else(|| LakeError::InvalidArgument("edge disappeared".into()))?;
            stats.edges_pruned += 1;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{AccessProfile, Column, DataLake, DataType, PartitionedTable, Schema, Table};

    const GATED: MmpOptions = MmpOptions {
        distinct_gate: true,
    };
    const UNGATED: MmpOptions = MmpOptions {
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
