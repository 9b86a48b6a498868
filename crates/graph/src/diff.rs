//! Comparing a detected containment graph against ground truth.
//!
//! Tables 1, 2 and 4 of the paper report, for the graph produced after each
//! pipeline stage, the number of **correct** edges (edges whose child is
//! fully contained in the parent according to ground truth), the number of
//! **incorrect (<1)** edges (edges between dataset pairs whose true
//! containment fraction is below 1), and the number of ground-truth edges
//! **not detected** (missing from the candidate graph). [`GraphDiff`]
//! computes exactly these counts.

use crate::containment::ContainmentGraph;
use std::collections::BTreeSet;

/// Classification of one candidate edge against the ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeDiff {
    /// The edge exists in the ground truth (true containment, CM = 1).
    Correct,
    /// The edge does not exist in the ground truth (true containment < 1).
    Incorrect,
}

/// Summary of a candidate graph vs. a ground-truth graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphDiff {
    /// Candidate edges that are real containment edges.
    pub correct: usize,
    /// Candidate edges between pairs whose true containment is < 1
    /// (the "Incorrect (<1)" column of Tables 1 and 2).
    pub incorrect: usize,
    /// Ground-truth edges absent from the candidate graph
    /// (the "Not detected" column; zero is the paper's recall guarantee).
    pub not_detected: usize,
}

impl GraphDiff {
    /// Precision of the candidate graph (correct / candidate edges).
    /// Returns 1.0 for an empty candidate graph.
    pub fn precision(&self) -> f64 {
        let total = self.correct + self.incorrect;
        if total == 0 {
            1.0
        } else {
            self.correct as f64 / total as f64
        }
    }

    /// Recall of the candidate graph (correct / ground-truth edges).
    /// Returns 1.0 when the ground truth has no edges.
    pub fn recall(&self) -> f64 {
        let truth = self.correct + self.not_detected;
        if truth == 0 {
            1.0
        } else {
            self.correct as f64 / truth as f64
        }
    }
}

/// Compare `candidate` against `ground_truth`.
///
/// Both graphs are edge sets over dataset ids; nodes present in only one of
/// the graphs contribute no edges and are ignored.
pub fn diff(candidate: &ContainmentGraph, ground_truth: &ContainmentGraph) -> GraphDiff {
    let truth: BTreeSet<(u64, u64)> = ground_truth.edges().into_iter().collect();
    let cand: BTreeSet<(u64, u64)> = candidate.edges().into_iter().collect();
    let correct = cand.intersection(&truth).count();
    let incorrect = cand.difference(&truth).count();
    let not_detected = truth.difference(&cand).count();
    GraphDiff {
        correct,
        incorrect,
        not_detected,
    }
}

/// Edge-set difference between two snapshots of the *same* evolving graph
/// (e.g. a session's containment graph before and after a dynamic update).
/// Unlike [`GraphDiff`], which scores a candidate against ground truth, this
/// records exactly which edges appeared and disappeared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Edges present in `after` but not in `before`, sorted.
    pub added: Vec<(u64, u64)>,
    /// Edges present in `before` but not in `after`, sorted.
    pub removed: Vec<(u64, u64)>,
}

impl EdgeDelta {
    /// Whether the two snapshots have identical edge sets.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total number of changed edges.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// Compute the [`EdgeDelta`] from `before` to `after`.
pub fn edge_delta(before: &ContainmentGraph, after: &ContainmentGraph) -> EdgeDelta {
    let b: BTreeSet<(u64, u64)> = before.edges().into_iter().collect();
    let a: BTreeSet<(u64, u64)> = after.edges().into_iter().collect();
    EdgeDelta {
        added: a.difference(&b).copied().collect(),
        removed: b.difference(&a).copied().collect(),
    }
}

/// Classify every candidate edge individually.
pub fn classify_edges(
    candidate: &ContainmentGraph,
    ground_truth: &ContainmentGraph,
) -> Vec<((u64, u64), EdgeDiff)> {
    let truth: BTreeSet<(u64, u64)> = ground_truth.edges().into_iter().collect();
    candidate
        .edges()
        .into_iter()
        .map(|e| {
            let class = if truth.contains(&e) {
                EdgeDiff::Correct
            } else {
                EdgeDiff::Incorrect
            };
            (e, class)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(u64, u64)]) -> ContainmentGraph {
        let mut g = ContainmentGraph::new();
        for &(p, c) in edges {
            g.add_edge(p, c);
        }
        g
    }

    #[test]
    fn perfect_match() {
        let truth = graph(&[(1, 2), (1, 3)]);
        let d = diff(&truth, &truth);
        assert_eq!(d.correct, 2);
        assert_eq!(d.incorrect, 0);
        assert_eq!(d.not_detected, 0);
        assert_eq!(d.precision(), 1.0);
        assert_eq!(d.recall(), 1.0);
    }

    #[test]
    fn superset_candidate_has_full_recall() {
        let truth = graph(&[(1, 2)]);
        let candidate = graph(&[(1, 2), (3, 4), (5, 6)]);
        let d = diff(&candidate, &truth);
        assert_eq!(d.correct, 1);
        assert_eq!(d.incorrect, 2);
        assert_eq!(d.not_detected, 0);
        assert_eq!(d.recall(), 1.0);
        assert!((d.precision() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn missing_edges_counted_as_not_detected() {
        let truth = graph(&[(1, 2), (1, 3), (2, 4)]);
        let candidate = graph(&[(1, 2)]);
        let d = diff(&candidate, &truth);
        assert_eq!(d.correct, 1);
        assert_eq!(d.not_detected, 2);
        assert!((d.recall() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graphs() {
        let empty = ContainmentGraph::new();
        let d = diff(&empty, &empty);
        assert_eq!(d, GraphDiff::default());
        assert_eq!(d.precision(), 1.0);
        assert_eq!(d.recall(), 1.0);
    }

    #[test]
    fn classification_of_individual_edges() {
        let truth = graph(&[(1, 2)]);
        let candidate = graph(&[(1, 2), (9, 8)]);
        let classes = classify_edges(&candidate, &truth);
        assert_eq!(classes.len(), 2);
        assert!(classes.contains(&((1, 2), EdgeDiff::Correct)));
        assert!(classes.contains(&((9, 8), EdgeDiff::Incorrect)));
    }

    #[test]
    fn edge_delta_tracks_added_and_removed() {
        let before = graph(&[(1, 2), (2, 3)]);
        let after = graph(&[(1, 2), (4, 5), (0, 9)]);
        let d = edge_delta(&before, &after);
        assert_eq!(d.added, vec![(0, 9), (4, 5)]);
        assert_eq!(d.removed, vec![(2, 3)]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert!(edge_delta(&before, &before).is_empty());
        assert_eq!(edge_delta(&before, &before).len(), 0);
    }

    #[test]
    fn direction_matters() {
        let truth = graph(&[(1, 2)]);
        let reversed = graph(&[(2, 1)]);
        let d = diff(&reversed, &truth);
        assert_eq!(d.correct, 0);
        assert_eq!(d.incorrect, 1);
        assert_eq!(d.not_detected, 1);
    }
}
