//! The dataset containment graph.
//!
//! Nodes are datasets (identified by an external `u64` dataset id, matching
//! `r2d2_lake::DatasetId`); a directed edge *parent → child* asserts that the
//! child dataset is (believed to be) contained in the parent. Each pipeline
//! stage takes such a graph and removes edges; the final graph is handed to
//! the optimizer. Edges carry optional annotations: the containment fraction
//! measured by a ground-truth run, and the reconstruction cost / latency
//! added by the §5.1 pre-processing step.

use crate::digraph::{DiGraph, NodeId};
use std::collections::BTreeMap;

/// Annotations attached to a containment edge (parent → child).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContainmentEdge {
    /// Measured containment fraction of the child in the parent
    /// (`CM(child, parent)`), when known (ground truth or verification runs).
    pub containment_fraction: Option<f64>,
    /// Description of the transformation parent → child, when known
    /// ("human input" in §5.1); required for the edge to be usable for
    /// reconstruction.
    pub transform: Option<String>,
    /// Estimated monetary cost of reconstructing the child from the parent
    /// (`C_e` of Eq. 3), filled in by the optimizer pre-processing.
    pub reconstruction_cost: Option<f64>,
    /// Estimated latency (seconds) of reconstructing the child from the
    /// parent (`L_e` of §5.1).
    pub reconstruction_latency: Option<f64>,
}

/// A containment graph over datasets identified by external u64 ids.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContainmentGraph {
    graph: DiGraph,
    /// node index → external dataset id
    dataset_ids: Vec<u64>,
    /// external dataset id → node index
    index: BTreeMap<u64, NodeId>,
    /// edge annotations keyed by (parent node, child node)
    edges: BTreeMap<(NodeId, NodeId), ContainmentEdge>,
}

impl ContainmentGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a graph with the given dataset ids as nodes.
    pub fn with_datasets(ids: impl IntoIterator<Item = u64>) -> Self {
        let mut g = Self::new();
        for id in ids {
            g.add_dataset(id);
        }
        g
    }

    /// Add a dataset node (idempotent); returns its node id.
    pub fn add_dataset(&mut self, dataset: u64) -> NodeId {
        if let Some(&n) = self.index.get(&dataset) {
            return n;
        }
        let n = self.graph.add_node();
        self.dataset_ids.push(dataset);
        self.index.insert(dataset, n);
        n
    }

    /// Node id of a dataset, if present.
    pub fn node_of(&self, dataset: u64) -> Option<NodeId> {
        self.index.get(&dataset).copied()
    }

    /// Dataset id of a node.
    pub fn dataset_of(&self, node: NodeId) -> Option<u64> {
        self.dataset_ids.get(node.0).copied()
    }

    /// Number of dataset nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of containment edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// All dataset ids, in insertion order.
    pub fn datasets(&self) -> &[u64] {
        &self.dataset_ids
    }

    /// Add an edge parent → child (both datasets are added if missing).
    /// Returns `true` if the edge is new.
    pub fn add_edge(&mut self, parent: u64, child: u64) -> bool {
        self.add_edge_with(parent, child, ContainmentEdge::default())
    }

    /// Add an annotated edge parent → child.
    pub fn add_edge_with(&mut self, parent: u64, child: u64, edge: ContainmentEdge) -> bool {
        let p = self.add_dataset(parent);
        let c = self.add_dataset(child);
        let added = self.graph.add_edge(p, c);
        if added {
            self.edges.insert((p, c), edge);
        }
        added
    }

    /// Remove the edge parent → child, returning its annotation if present.
    pub fn remove_edge(&mut self, parent: u64, child: u64) -> Option<ContainmentEdge> {
        let (p, c) = (self.node_of(parent)?, self.node_of(child)?);
        if self.graph.remove_edge(p, c) {
            self.edges
                .remove(&(p, c))
                .or(Some(ContainmentEdge::default()))
        } else {
            None
        }
    }

    /// Whether the edge parent → child exists.
    pub fn has_edge(&self, parent: u64, child: u64) -> bool {
        match (self.node_of(parent), self.node_of(child)) {
            (Some(p), Some(c)) => self.graph.has_edge(p, c),
            _ => false,
        }
    }

    /// Annotation of an edge, if the edge exists.
    pub fn edge(&self, parent: u64, child: u64) -> Option<&ContainmentEdge> {
        let (p, c) = (self.node_of(parent)?, self.node_of(child)?);
        if self.graph.has_edge(p, c) {
            Some(self.edges.get(&(p, c)).unwrap_or(&DEFAULT_EDGE))
        } else {
            None
        }
    }

    /// Mutable annotation of an edge, if the edge exists.
    pub fn edge_mut(&mut self, parent: u64, child: u64) -> Option<&mut ContainmentEdge> {
        let (p, c) = (self.node_of(parent)?, self.node_of(child)?);
        if self.graph.has_edge(p, c) {
            Some(self.edges.entry((p, c)).or_default())
        } else {
            None
        }
    }

    /// All edges as `(parent_dataset, child_dataset)` pairs.
    pub fn edges(&self) -> Vec<(u64, u64)> {
        self.graph
            .edges()
            .into_iter()
            .map(|(p, c)| (self.dataset_ids[p.0], self.dataset_ids[c.0]))
            .collect()
    }

    /// Parents (potential reconstruction sources) of a dataset.
    pub fn parents(&self, dataset: u64) -> Vec<u64> {
        match self.node_of(dataset) {
            Some(n) => self
                .graph
                .parents(n)
                .into_iter()
                .map(|p| self.dataset_ids[p.0])
                .collect(),
            None => Vec::new(),
        }
    }

    /// Children (datasets contained in this one) of a dataset.
    pub fn children(&self, dataset: u64) -> Vec<u64> {
        match self.node_of(dataset) {
            Some(n) => self
                .graph
                .children(n)
                .into_iter()
                .map(|c| self.dataset_ids[c.0])
                .collect(),
            None => Vec::new(),
        }
    }

    /// Remove every edge incident on a dataset (used when the dataset is
    /// deleted from the lake, §7.1). The node itself stays, keeping node ids
    /// stable.
    pub fn clear_dataset(&mut self, dataset: u64) {
        if let Some(n) = self.node_of(dataset) {
            let incident: Vec<(NodeId, NodeId)> = self
                .edges
                .keys()
                .filter(|(p, c)| *p == n || *c == n)
                .copied()
                .collect();
            for key in incident {
                self.edges.remove(&key);
            }
            self.graph.clear_node(n);
        }
    }

    /// Access the underlying [`DiGraph`] (read-only).
    pub fn digraph(&self) -> &DiGraph {
        &self.graph
    }
}

static DEFAULT_EDGE: ContainmentEdge = ContainmentEdge {
    containment_fraction: None,
    transform: None,
    reconstruction_cost: None,
    reconstruction_latency: None,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_datasets_and_edges() {
        let mut g = ContainmentGraph::new();
        assert!(g.add_edge(10, 20));
        assert!(!g.add_edge(10, 20));
        assert!(g.has_edge(10, 20));
        assert!(!g.has_edge(20, 10));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges(), vec![(10, 20)]);
        assert_eq!(g.parents(20), vec![10]);
        assert_eq!(g.children(10), vec![20]);
    }

    #[test]
    fn with_datasets_constructor() {
        let g = ContainmentGraph::with_datasets([1, 2, 3]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.datasets(), &[1, 2, 3]);
    }

    #[test]
    fn duplicate_dataset_is_idempotent() {
        let mut g = ContainmentGraph::new();
        let a = g.add_dataset(7);
        let b = g.add_dataset(7);
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn edge_annotations() {
        let mut g = ContainmentGraph::new();
        g.add_edge_with(
            1,
            2,
            ContainmentEdge {
                containment_fraction: Some(1.0),
                transform: Some("WHERE ts < 100".into()),
                ..Default::default()
            },
        );
        assert_eq!(g.edge(1, 2).unwrap().containment_fraction, Some(1.0));
        g.edge_mut(1, 2).unwrap().reconstruction_cost = Some(3.5);
        assert_eq!(g.edge(1, 2).unwrap().reconstruction_cost, Some(3.5));
        assert!(g.edge(2, 1).is_none());
    }

    #[test]
    fn remove_edge_returns_annotation() {
        let mut g = ContainmentGraph::new();
        g.add_edge_with(
            1,
            2,
            ContainmentEdge {
                containment_fraction: Some(0.5),
                ..Default::default()
            },
        );
        let e = g.remove_edge(1, 2).unwrap();
        assert_eq!(e.containment_fraction, Some(0.5));
        assert!(!g.has_edge(1, 2));
        assert!(g.remove_edge(1, 2).is_none());
        assert!(g.remove_edge(99, 2).is_none());
    }

    #[test]
    fn clear_dataset_removes_incident_edges() {
        let mut g = ContainmentGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(4, 2);
        g.clear_dataset(2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 4, "nodes remain");
        assert!(g.edge(1, 2).is_none());
    }

    #[test]
    fn node_dataset_mapping_round_trip() {
        let mut g = ContainmentGraph::new();
        let n = g.add_dataset(42);
        assert_eq!(g.dataset_of(n), Some(42));
        assert_eq!(g.node_of(42), Some(n));
        assert_eq!(g.node_of(43), None);
        assert_eq!(g.dataset_of(NodeId(99)), None);
    }
}
