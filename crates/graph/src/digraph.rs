//! A compact directed graph with stable node ids.

use std::collections::BTreeSet;

/// Index of a node within a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed graph stored as per-node sorted adjacency sets.
///
/// Designed for the access patterns of the R2D2 pipeline: iterate all edges,
/// remove edges while iterating a snapshot, query parents (incoming edges)
/// and children (outgoing edges) of a node. Node count is fixed at creation;
/// nodes can be added but not removed (the containment layer handles dataset
/// deletion by clearing incident edges).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiGraph {
    /// out[u] = set of v such that u → v.
    out: Vec<BTreeSet<usize>>,
    /// inc[v] = set of u such that u → v.
    inc: Vec<BTreeSet<usize>>,
    edge_count: usize,
}

impl DiGraph {
    /// Create a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        DiGraph {
            out: vec![BTreeSet::new(); n],
            inc: vec![BTreeSet::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Add one node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.out.push(BTreeSet::new());
        self.inc.push(BTreeSet::new());
        NodeId(self.out.len() - 1)
    }

    /// Add the edge `from → to`. Returns `true` if the edge was new.
    /// Self-loops are ignored (a dataset trivially contains itself).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        assert!(from.0 < self.out.len(), "from node out of range");
        assert!(to.0 < self.out.len(), "to node out of range");
        if from == to {
            return false;
        }
        let inserted = self.out[from.0].insert(to.0);
        if inserted {
            self.inc[to.0].insert(from.0);
            self.edge_count += 1;
        }
        inserted
    }

    /// Remove the edge `from → to`. Returns `true` if it existed.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        if from.0 >= self.out.len() || to.0 >= self.out.len() {
            return false;
        }
        let removed = self.out[from.0].remove(&to.0);
        if removed {
            self.inc[to.0].remove(&from.0);
            self.edge_count -= 1;
        }
        removed
    }

    /// Whether the edge `from → to` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        from.0 < self.out.len() && self.out[from.0].contains(&to.0)
    }

    /// Children of `u` (targets of outgoing edges), ascending.
    pub fn children(&self, u: NodeId) -> Vec<NodeId> {
        self.out
            .get(u.0)
            .map(|s| s.iter().map(|&v| NodeId(v)).collect())
            .unwrap_or_default()
    }

    /// Parents of `u` (sources of incoming edges), ascending.
    pub fn parents(&self, u: NodeId) -> Vec<NodeId> {
        self.inc
            .get(u.0)
            .map(|s| s.iter().map(|&v| NodeId(v)).collect())
            .unwrap_or_default()
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out.get(u.0).map_or(0, BTreeSet::len)
    }

    /// In-degree of a node.
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.inc.get(u.0).map_or(0, BTreeSet::len)
    }

    /// All edges as `(from, to)` pairs, in ascending order.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(self.edge_count);
        for (u, outs) in self.out.iter().enumerate() {
            for &v in outs {
                edges.push((NodeId(u), NodeId(v)));
            }
        }
        edges
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId)
    }

    /// Remove every edge incident on `u` (both directions). Used when a
    /// dataset is deleted from the lake (§7.1).
    pub fn clear_node(&mut self, u: NodeId) {
        if u.0 >= self.out.len() {
            return;
        }
        let outs: Vec<usize> = self.out[u.0].iter().copied().collect();
        for v in outs {
            self.remove_edge(u, NodeId(v));
        }
        let ins: Vec<usize> = self.inc[u.0].iter().copied().collect();
        for v in ins {
            self.remove_edge(NodeId(v), u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_remove_edges() {
        let mut g = DiGraph::new(3);
        assert!(g.add_edge(NodeId(0), NodeId(1)));
        assert!(!g.add_edge(NodeId(0), NodeId(1)), "duplicate edge ignored");
        assert!(g.add_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.remove_edge(NodeId(0), NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = DiGraph::new(2);
        assert!(!g.add_edge(NodeId(1), NodeId(1)));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn parents_children_degrees() {
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        assert_eq!(g.parents(NodeId(2)), vec![NodeId(0), NodeId(1)]);
        assert_eq!(g.children(NodeId(2)), vec![NodeId(3)]);
        assert_eq!(g.in_degree(NodeId(2)), 2);
        assert_eq!(g.out_degree(NodeId(2)), 1);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn edges_enumeration() {
        let mut g = DiGraph::new(3);
        g.add_edge(NodeId(2), NodeId(0));
        g.add_edge(NodeId(0), NodeId(1));
        assert_eq!(
            g.edges(),
            vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(0))]
        );
        assert_eq!(g.nodes().count(), 3);
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = DiGraph::new(1);
        let n = g.add_node();
        assert_eq!(n, NodeId(1));
        assert_eq!(g.node_count(), 2);
        g.add_edge(NodeId(0), n);
        assert!(g.has_edge(NodeId(0), n));
    }

    #[test]
    fn clear_node_removes_incident_edges() {
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(3), NodeId(1));
        g.clear_node(NodeId(1));
        assert_eq!(g.edge_count(), 0);
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        let mut g = DiGraph::new(1);
        g.add_edge(NodeId(0), NodeId(5));
    }
}
