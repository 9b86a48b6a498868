//! The Opt-Ret optimization problem instance (Eq. 3 of the paper).
//!
//! An [`OptRetProblem`] is a self-contained description of one optimization
//! run: per-node retention costs and expected access counts, and per-edge
//! reconstruction costs. It can be built from a pre-processed containment
//! graph and a data lake ([`OptRetProblem::from_graph`]) or constructed
//! directly (the Fig. 6 scalability experiments build synthetic instances on
//! Erdős–Rényi graphs).

use crate::costmodel::CostModel;
use r2d2_graph::ContainmentGraph;
use r2d2_lake::{DataLake, DatasetId, Result};
use std::collections::{BTreeMap, BTreeSet};

/// Per-node inputs of Eq. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCosts {
    /// Dataset id of the node.
    pub dataset: u64,
    /// Size `S_v` in bytes.
    pub size_bytes: u64,
    /// Retention cost for the billing period: `(C_s + C_m · f_v) · S_v`.
    pub retention_cost: f64,
    /// Expected customer-initiated accesses `A_v` over the billing period.
    pub accesses: f64,
}

/// Per-edge inputs of Eq. 3 (one reconstruction option).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionEdge {
    /// Parent dataset (the reconstruction source).
    pub parent: u64,
    /// Child dataset (the candidate for deletion).
    pub child: u64,
    /// Reconstruction cost `C_e` (per access).
    pub cost: f64,
}

/// A complete Opt-Ret instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptRetProblem {
    /// Nodes, keyed by dataset id.
    pub nodes: BTreeMap<u64, NodeCosts>,
    /// Edges (parent → child reconstruction options).
    pub edges: Vec<ReconstructionEdge>,
}

impl OptRetProblem {
    /// Build an instance from a (pre-processed) containment graph, reading
    /// sizes and access profiles from the lake and prices from the cost
    /// model. Edges whose annotation carries a `reconstruction_cost` use it;
    /// otherwise the cost is computed from the parent/child sizes.
    pub fn from_graph(
        graph: &ContainmentGraph,
        lake: &DataLake,
        model: &CostModel,
    ) -> Result<Self> {
        let mut nodes = BTreeMap::new();
        for &ds in graph.datasets() {
            let entry = lake.dataset(DatasetId(ds))?;
            let size = entry.byte_size() as u64;
            nodes.insert(
                ds,
                NodeCosts {
                    dataset: ds,
                    size_bytes: size,
                    retention_cost: model.retention_cost(size, entry.access.maintenance_per_period),
                    accesses: entry.access.accesses_per_period,
                },
            );
        }
        let mut edges = Vec::new();
        for (parent, child) in graph.edges() {
            let p = lake.dataset(DatasetId(parent))?.byte_size() as u64;
            let c = lake.dataset(DatasetId(child))?.byte_size() as u64;
            let cost = graph
                .edge(parent, child)
                .and_then(|e| e.reconstruction_cost)
                .unwrap_or_else(|| model.reconstruction_cost(p, c));
            edges.push(ReconstructionEdge {
                parent,
                child,
                cost,
            });
        }
        // Canonical (parent, child) order: solvers break cost ties by edge
        // order, so a deterministic layout makes solutions independent of
        // the graph's internal edge ordering (and lets the incremental
        // advisor reproduce a from-scratch build bit-for-bit).
        edges.sort_by_key(|e| (e.parent, e.child));
        Ok(OptRetProblem { nodes, edges })
    }

    /// Build a synthetic instance over an arbitrary graph (used by the
    /// Fig. 6 scalability sweeps): node sizes, accesses and edge costs are
    /// supplied by closures over the dataset id.
    pub fn synthetic<FS, FA>(
        graph: &ContainmentGraph,
        model: &CostModel,
        size_bytes: FS,
        accesses: FA,
    ) -> Self
    where
        FS: Fn(u64) -> u64,
        FA: Fn(u64) -> f64,
    {
        let mut nodes = BTreeMap::new();
        for &ds in graph.datasets() {
            let size = size_bytes(ds);
            nodes.insert(
                ds,
                NodeCosts {
                    dataset: ds,
                    size_bytes: size,
                    retention_cost: model.retention_cost(size, 4.0),
                    accesses: accesses(ds),
                },
            );
        }
        let mut edges: Vec<ReconstructionEdge> = graph
            .edges()
            .into_iter()
            .map(|(parent, child)| ReconstructionEdge {
                parent,
                child,
                cost: model.reconstruction_cost(size_bytes(parent), size_bytes(child)),
            })
            .collect();
        edges.sort_by_key(|e| (e.parent, e.child));
        OptRetProblem { nodes, edges }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Parents of a node (reconstruction options), with edge costs.
    pub fn parents_of(&self, child: u64) -> Vec<&ReconstructionEdge> {
        self.edges.iter().filter(|e| e.child == child).collect()
    }

    /// Children of a node.
    pub fn children_of(&self, parent: u64) -> Vec<&ReconstructionEdge> {
        self.edges.iter().filter(|e| e.parent == parent).collect()
    }

    /// Total retention cost if every dataset is kept (the "do nothing"
    /// baseline the savings are measured against).
    pub fn retain_all_cost(&self) -> f64 {
        self.nodes.values().map(|n| n.retention_cost).sum()
    }

    /// The cheapest reconstruction cost (per access) available for a node,
    /// if it has any parent.
    pub fn cheapest_parent(&self, child: u64) -> Option<&ReconstructionEdge> {
        self.parents_of(child).into_iter().min_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Build an [`AdjacencyIndex`] over the current edge list.
    ///
    /// [`parents_of`](Self::parents_of) / [`children_of`](Self::children_of)
    /// / [`cheapest_parent`](Self::cheapest_parent) are O(E) linear scans;
    /// the solvers build this index once per (sub-)problem so their hot
    /// loops touch only a node's actual neighbourhood.
    pub fn adjacency(&self) -> AdjacencyIndex {
        AdjacencyIndex::new(self)
    }
}

/// Precomputed adjacency over an [`OptRetProblem`]'s edges.
///
/// Lists preserve the problem's edge order (ascending `(parent, child)` for
/// instances built by [`OptRetProblem::from_graph`] / `synthetic`), so
/// "first minimum" tie-breaks match the linear-scan accessors exactly.
#[derive(Debug, Clone, Default)]
pub struct AdjacencyIndex {
    parents: BTreeMap<u64, Vec<(u64, f64)>>,
    children: BTreeMap<u64, Vec<(u64, f64)>>,
    pairs: BTreeSet<(u64, u64)>,
}

impl AdjacencyIndex {
    /// Index the edges of `problem`.
    pub fn new(problem: &OptRetProblem) -> Self {
        let mut index = AdjacencyIndex::default();
        for e in &problem.edges {
            index
                .parents
                .entry(e.child)
                .or_default()
                .push((e.parent, e.cost));
            index
                .children
                .entry(e.parent)
                .or_default()
                .push((e.child, e.cost));
            index.pairs.insert((e.parent, e.child));
        }
        index
    }

    /// Reconstruction options of `child` as `(parent, cost)`, in edge order.
    pub fn parents_of(&self, child: u64) -> &[(u64, f64)] {
        self.parents.get(&child).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Outgoing edges of `parent` as `(child, cost)`, in edge order.
    pub fn children_of(&self, parent: u64) -> &[(u64, f64)] {
        self.children.get(&parent).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `child` has any reconstruction option.
    pub fn has_parents(&self, child: u64) -> bool {
        !self.parents_of(child).is_empty()
    }

    /// The cheapest `(parent, cost)` option of `child` (first minimum in
    /// edge order, matching [`OptRetProblem::cheapest_parent`]).
    pub fn cheapest_parent(&self, child: u64) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for &(p, c) in self.parents_of(child) {
            match best {
                Some((_, bc)) if bc <= c => {}
                _ => best = Some((p, c)),
            }
        }
        best
    }

    /// Whether the edge `parent → child` exists.
    pub fn has_edge(&self, parent: u64, child: u64) -> bool {
        self.pairs.contains(&(parent, child))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{AccessProfile, Column, DataType, PartitionedTable, Schema, Table};

    fn lake_and_graph() -> (DataLake, ContainmentGraph) {
        let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
        let mut lake = DataLake::new();
        let mk = |n: i64| {
            PartitionedTable::single(
                Table::new(schema.clone(), vec![Column::from_ints(0..n)]).unwrap(),
            )
        };
        let a = lake
            .add_dataset(
                "a",
                mk(1000),
                AccessProfile {
                    accesses_per_period: 2.0,
                    maintenance_per_period: 4.0,
                },
                None,
            )
            .unwrap()
            .0;
        let b = lake
            .add_dataset(
                "b",
                mk(500),
                AccessProfile {
                    accesses_per_period: 1.0,
                    maintenance_per_period: 4.0,
                },
                None,
            )
            .unwrap()
            .0;
        let mut g = ContainmentGraph::new();
        g.add_edge(a, b);
        (lake, g)
    }

    #[test]
    fn from_graph_builds_costs() {
        let (lake, graph) = lake_and_graph();
        let p = OptRetProblem::from_graph(&graph, &lake, &CostModel::default()).unwrap();
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.edge_count(), 1);
        assert!(p.retain_all_cost() > 0.0);
        let edge = &p.edges[0];
        assert!(edge.cost > 0.0);
        assert_eq!(p.parents_of(edge.child).len(), 1);
        assert_eq!(p.children_of(edge.parent).len(), 1);
        assert!(p.cheapest_parent(edge.child).is_some());
        assert!(p.cheapest_parent(edge.parent).is_none());
    }

    #[test]
    fn annotated_edge_cost_is_respected() {
        let (lake, mut graph) = lake_and_graph();
        let (parent, child) = graph.edges()[0];
        graph.edge_mut(parent, child).unwrap().reconstruction_cost = Some(123.0);
        let p = OptRetProblem::from_graph(&graph, &lake, &CostModel::default()).unwrap();
        assert_eq!(p.edges[0].cost, 123.0);
    }

    #[test]
    fn missing_dataset_errors() {
        let lake = DataLake::new();
        let mut graph = ContainmentGraph::new();
        graph.add_edge(5, 6);
        assert!(OptRetProblem::from_graph(&graph, &lake, &CostModel::default()).is_err());
    }

    #[test]
    fn synthetic_instance() {
        let graph = r2d2_graph::random::line_graph(4);
        let p = OptRetProblem::synthetic(&graph, &CostModel::default(), |_| 1 << 30, |d| d as f64);
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.edge_count(), 3);
        assert_eq!(p.nodes[&2].accesses, 2.0);
    }

    #[test]
    fn edges_are_canonically_ordered() {
        let mut graph = ContainmentGraph::new();
        graph.add_edge(3, 1);
        graph.add_edge(0, 2);
        graph.add_edge(0, 1);
        let p = OptRetProblem::synthetic(&graph, &CostModel::default(), |_| 1 << 28, |_| 1.0);
        let pairs: Vec<(u64, u64)> = p.edges.iter().map(|e| (e.parent, e.child)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (3, 1)]);
    }

    #[test]
    fn adjacency_index_matches_linear_scans() {
        use r2d2_graph::random::erdos_renyi_dag;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let mut rng = SmallRng::seed_from_u64(12);
        for n in [5usize, 12, 20] {
            let graph = erdos_renyi_dag(n, 0.3, &mut rng);
            let p = OptRetProblem::synthetic(
                &graph,
                &CostModel::default(),
                |d| ((d % 5) + 1) << 27,
                |d| (d % 4) as f64,
            );
            let index = p.adjacency();
            for &id in p.nodes.keys() {
                let scan_parents: Vec<(u64, f64)> = p
                    .parents_of(id)
                    .into_iter()
                    .map(|e| (e.parent, e.cost))
                    .collect();
                let scan_children: Vec<(u64, f64)> = p
                    .children_of(id)
                    .into_iter()
                    .map(|e| (e.child, e.cost))
                    .collect();
                assert_eq!(index.parents_of(id), scan_parents.as_slice());
                assert_eq!(index.children_of(id), scan_children.as_slice());
                assert_eq!(
                    index.cheapest_parent(id),
                    p.cheapest_parent(id).map(|e| (e.parent, e.cost)),
                    "cheapest-parent tie-breaks must match the linear scan"
                );
                assert_eq!(index.has_parents(id), !scan_parents.is_empty());
            }
            for e in &p.edges {
                assert!(index.has_edge(e.parent, e.child));
            }
            assert!(!index.has_edge(u64::MAX, 0));
        }
    }
}
