//! Graph pre-processing for "safe deletion" (§5.1 of the paper).
//!
//! Before the optimizer may treat an edge `parent → child` as a
//! reconstruction option, §5.1 requires that
//!
//! 1. the transformation generating the child from the parent is **known**
//!    (in the paper: supplied by a human expert; here: taken from the
//!    catalog's lineage records or from an explicit edge annotation), and
//! 2. the estimated reconstruction latency `L_e ≈ r_ℓ·s_p + w_ℓ·s_q` is
//!    within the QoS threshold `T_h`.
//!
//! Edges failing either requirement are pruned; surviving edges are
//! annotated with their reconstruction cost and latency so the optimizer can
//! consume them directly.

use crate::costmodel::CostModel;
use r2d2_graph::ContainmentGraph;
use r2d2_lake::{DataLake, DatasetId, Result};

/// How transformation knowledge is established for an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformKnowledge {
    /// Require a lineage record (catalog) or an explicit `transform`
    /// annotation on the edge; prune edges without one. This mirrors the
    /// paper's human-in-the-loop policy.
    Required,
    /// Assume every containment edge's transformation is known (the child is
    /// an exact subset, so `SELECT` with the appropriate filter always
    /// works). Useful for synthetic sweeps.
    AssumeKnown,
}

/// Statistics of a pre-processing pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Edges examined.
    pub edges_examined: usize,
    /// Edges pruned because no transformation is known.
    pub pruned_unknown_transform: usize,
    /// Edges pruned because the reconstruction latency exceeds the threshold.
    pub pruned_latency: usize,
    /// Edges annotated and kept.
    pub kept: usize,
}

/// Pre-process `graph` in place: annotate every edge with reconstruction
/// cost and latency, pruning edges per §5.1.
pub fn preprocess_for_safe_deletion(
    graph: &mut ContainmentGraph,
    lake: &DataLake,
    model: &CostModel,
    knowledge: TransformKnowledge,
) -> Result<PreprocessStats> {
    let mut stats = PreprocessStats::default();
    for (parent, child) in graph.edges() {
        stats.edges_examined += 1;
        let parent_entry = lake.dataset(DatasetId(parent))?;
        let child_entry = lake.dataset(DatasetId(child))?;

        // Requirement 1: known transformation.
        let lineage_matches = child_entry
            .lineage
            .as_ref()
            .map(|l| l.parent.0 == parent)
            .unwrap_or(false);
        let edge_has_transform = graph
            .edge(parent, child)
            .map(|e| e.transform.is_some())
            .unwrap_or(false);
        let known = match knowledge {
            TransformKnowledge::AssumeKnown => true,
            TransformKnowledge::Required => lineage_matches || edge_has_transform,
        };
        if !known {
            graph.remove_edge(parent, child);
            stats.pruned_unknown_transform += 1;
            continue;
        }

        // Requirement 2: bounded latency.
        let p_bytes = parent_entry.byte_size() as u64;
        let c_bytes = child_entry.byte_size() as u64;
        if !model.latency_ok(p_bytes, c_bytes) {
            graph.remove_edge(parent, child);
            stats.pruned_latency += 1;
            continue;
        }

        // Annotate.
        let cost = model.reconstruction_cost(p_bytes, c_bytes);
        let latency = model.reconstruction_latency(p_bytes, c_bytes);
        let transform_desc = if lineage_matches {
            child_entry.lineage.as_ref().map(|l| l.transform.clone())
        } else {
            None
        };
        if let Some(edge) = graph.edge_mut(parent, child) {
            edge.reconstruction_cost = Some(cost);
            edge.reconstruction_latency = Some(latency);
            if edge.transform.is_none() {
                edge.transform = transform_desc
                    .or_else(|| Some("exact containment (SELECT subset)".to_string()));
            }
        }
        stats.kept += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{AccessProfile, Column, DataType, Lineage, PartitionedTable, Schema, Table};

    fn make_lake(with_lineage: bool) -> (DataLake, u64, u64) {
        let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
        let mk = |n: i64| {
            PartitionedTable::single(
                Table::new(schema.clone(), vec![Column::from_ints(0..n)]).unwrap(),
            )
        };
        let mut lake = DataLake::new();
        let parent = lake
            .add_dataset("parent", mk(100), AccessProfile::default(), None)
            .unwrap();
        let lineage = if with_lineage {
            Some(Lineage {
                parent,
                transform: "WHERE x < 50".to_string(),
            })
        } else {
            None
        };
        let child = lake
            .add_dataset("child", mk(50), AccessProfile::default(), lineage)
            .unwrap();
        (lake, parent.0, child.0)
    }

    #[test]
    fn keeps_and_annotates_edges_with_lineage() {
        let (lake, p, c) = make_lake(true);
        let mut graph = ContainmentGraph::new();
        graph.add_edge(p, c);
        let stats = preprocess_for_safe_deletion(
            &mut graph,
            &lake,
            &CostModel::default(),
            TransformKnowledge::Required,
        )
        .unwrap();
        assert_eq!(stats.kept, 1);
        let edge = graph.edge(p, c).unwrap();
        assert!(edge.reconstruction_cost.unwrap() > 0.0);
        assert!(edge.reconstruction_latency.unwrap() > 0.0);
        assert_eq!(edge.transform.as_deref(), Some("WHERE x < 50"));
    }

    #[test]
    fn prunes_edges_without_known_transform() {
        let (lake, p, c) = make_lake(false);
        let mut graph = ContainmentGraph::new();
        graph.add_edge(p, c);
        let stats = preprocess_for_safe_deletion(
            &mut graph,
            &lake,
            &CostModel::default(),
            TransformKnowledge::Required,
        )
        .unwrap();
        assert_eq!(stats.pruned_unknown_transform, 1);
        assert!(!graph.has_edge(p, c));
    }

    #[test]
    fn assume_known_keeps_edges_without_lineage() {
        let (lake, p, c) = make_lake(false);
        let mut graph = ContainmentGraph::new();
        graph.add_edge(p, c);
        let stats = preprocess_for_safe_deletion(
            &mut graph,
            &lake,
            &CostModel::default(),
            TransformKnowledge::AssumeKnown,
        )
        .unwrap();
        assert_eq!(stats.kept, 1);
        assert!(graph.edge(p, c).unwrap().transform.is_some());
    }

    #[test]
    fn explicit_edge_transform_counts_as_known() {
        let (lake, p, c) = make_lake(false);
        let mut graph = ContainmentGraph::new();
        graph.add_edge_with(
            p,
            c,
            r2d2_graph::ContainmentEdge {
                transform: Some("manual note".to_string()),
                ..Default::default()
            },
        );
        let stats = preprocess_for_safe_deletion(
            &mut graph,
            &lake,
            &CostModel::default(),
            TransformKnowledge::Required,
        )
        .unwrap();
        assert_eq!(stats.kept, 1);
        assert_eq!(
            graph.edge(p, c).unwrap().transform.as_deref(),
            Some("manual note")
        );
    }

    #[test]
    fn prunes_edges_exceeding_latency_threshold() {
        let (lake, p, c) = make_lake(true);
        let mut graph = ContainmentGraph::new();
        graph.add_edge(p, c);
        // Absurdly tight threshold: everything is too slow.
        let model = CostModel::default().with_latency_threshold(1e-12);
        let stats =
            preprocess_for_safe_deletion(&mut graph, &lake, &model, TransformKnowledge::Required)
                .unwrap();
        assert_eq!(stats.pruned_latency, 1);
        assert_eq!(graph.edge_count(), 0);
    }

    #[test]
    fn lineage_to_a_different_parent_does_not_count() {
        let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
        let mk = |n: i64| {
            PartitionedTable::single(
                Table::new(schema.clone(), vec![Column::from_ints(0..n)]).unwrap(),
            )
        };
        let mut lake = DataLake::new();
        let a = lake
            .add_dataset("a", mk(100), AccessProfile::default(), None)
            .unwrap();
        let b = lake
            .add_dataset("b", mk(100), AccessProfile::default(), None)
            .unwrap();
        let c = lake
            .add_dataset(
                "c",
                mk(10),
                AccessProfile::default(),
                Some(Lineage {
                    parent: a,
                    transform: "WHERE ...".to_string(),
                }),
            )
            .unwrap();
        let mut graph = ContainmentGraph::new();
        graph.add_edge(b.0, c.0); // edge from b, but lineage says a
        let stats = preprocess_for_safe_deletion(
            &mut graph,
            &lake,
            &CostModel::default(),
            TransformKnowledge::Required,
        )
        .unwrap();
        assert_eq!(stats.pruned_unknown_transform, 1);
    }
}
