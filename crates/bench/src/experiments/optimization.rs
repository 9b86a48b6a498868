//! Table 7, Figure 5 and Figure 6: the optimization framework.
//!
//! * **Table 7** — run the full pipeline on an enterprise-like corpus,
//!   pre-process the containment graph for safe deletion (§5.1), solve
//!   Opt-Ret and report deletion/retention counts plus monthly GDPR
//!   row-scan savings.
//! * **Figure 5** — analytic projection of storage + compute savings for a
//!   10 PB lake over one year as the contained fraction varies, for 1 and 5
//!   privacy accesses per week.
//! * **Figure 6** — wall-clock time of the optimizer as the number of nodes
//!   grows (fixed Erdős–Rényi edge probability) and as the number of edges
//!   grows (fixed node count).

use crate::report::{fmt_count, fmt_duration, TextTable};
use r2d2_core::R2d2Pipeline;
use r2d2_graph::random::erdos_renyi;
use r2d2_opt::costmodel::CostModel;
use r2d2_opt::preprocess::{preprocess_for_safe_deletion, TransformKnowledge};
use r2d2_opt::savings::{figure5_series, table7_row, Table7Row};
use r2d2_opt::{solve, solve_greedy, OptRetProblem};
use r2d2_synth::corpus::Corpus;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Table 7 output for one corpus.
#[derive(Debug, Clone)]
pub struct OptimizationResult {
    /// Corpus name.
    pub corpus: String,
    /// Edges surviving the §5.1 pre-processing.
    pub safe_edges: usize,
    /// The Table 7 counters.
    pub row: Table7Row,
    /// Total cost of the chosen solution (Eq. 3 objective).
    pub total_cost: f64,
    /// Cost of retaining everything (the baseline).
    pub retain_all_cost: f64,
}

/// Run the end-to-end optimization experiment on one corpus.
pub fn evaluate_optimization(corpus: &Corpus, scans_per_week: f64) -> OptimizationResult {
    let report = R2d2Pipeline::with_defaults()
        .run(&corpus.lake)
        .expect("pipeline run");
    let mut graph = report.after_clp;
    let model = CostModel::default();
    preprocess_for_safe_deletion(
        &mut graph,
        &corpus.lake,
        &model,
        TransformKnowledge::Required,
    )
    .expect("preprocessing");
    let problem =
        OptRetProblem::from_graph(&graph, &corpus.lake, &model).expect("problem construction");
    let solution = solve(&problem);
    assert!(solution.is_feasible(&problem), "solver must stay feasible");
    let row = table7_row(&solution, &problem, &corpus.lake, scans_per_week)
        .expect("lake is self-consistent");
    OptimizationResult {
        corpus: corpus.name.clone(),
        safe_edges: graph.edge_count(),
        total_cost: solution.total_cost,
        retain_all_cost: problem.retain_all_cost(),
        row,
    }
}

/// Render Table 7.
pub fn render_table7(results: &[OptimizationResult]) -> String {
    let mut t = TextTable::new([
        "Corpus",
        "Deleted nodes",
        "Deletion edges",
        "Retained nodes",
        "Retained edges",
        "GDPR savings (row scans / month)",
    ]);
    for r in results {
        t.add_row([
            r.corpus.clone(),
            r.row.deleted_nodes.to_string(),
            r.row.deletion_edges.to_string(),
            r.row.retained_nodes.to_string(),
            r.row.retained_edges.to_string(),
            fmt_count(r.row.gdpr_row_scans_saved_per_month as u128),
        ]);
    }
    t.render()
}

/// One point of a Figure 5 series.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Fraction of the lake that is contained / deletable.
    pub contained_fraction: f64,
    /// Net savings (USD) with 1 privacy access per week.
    pub savings_1_per_week: f64,
    /// Net savings (USD) with 5 privacy accesses per week.
    pub savings_5_per_week: f64,
}

/// Compute the Figure 5 series for the standard fractions.
pub fn figure5(fractions: &[f64]) -> Vec<Fig5Point> {
    let model = CostModel::default();
    let one = figure5_series(fractions, 1.0, &model);
    let five = figure5_series(fractions, 5.0, &model);
    one.iter()
        .zip(&five)
        .map(|(&(f, s1), &(_, s5))| Fig5Point {
            contained_fraction: f,
            savings_1_per_week: s1,
            savings_5_per_week: s5,
        })
        .collect()
}

/// Render Figure 5 as a table of series points.
pub fn render_figure5(points: &[Fig5Point]) -> String {
    let mut t = TextTable::new([
        "Contained fraction",
        "Net savings, 1 access/week (USD)",
        "Net savings, 5 accesses/week (USD)",
    ]);
    for p in points {
        t.add_row([
            format!("{:.2}", p.contained_fraction),
            format!("{:.0}", p.savings_1_per_week),
            format!("{:.0}", p.savings_5_per_week),
        ]);
    }
    t.render()
}

/// One point of the Figure 6 scalability sweeps.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    /// Number of nodes in the random graph.
    pub nodes: usize,
    /// Number of edges in the random graph.
    pub edges: usize,
    /// Time taken by the optimizer.
    pub duration: Duration,
}

/// Sweep the number of nodes at fixed edge probability (Fig. 6 left).
pub fn figure6_nodes(node_counts: &[usize], p: f64, seed: u64) -> Vec<Fig6Point> {
    let model = CostModel::default();
    node_counts
        .iter()
        .map(|&n| {
            let mut rng = SmallRng::seed_from_u64(seed + n as u64);
            let graph = erdos_renyi(n, p, &mut rng);
            let problem = OptRetProblem::synthetic(
                &graph,
                &model,
                |d| ((d % 13) + 1) << 28,
                |d| (d % 7) as f64,
            );
            let start = Instant::now();
            let solution = solve_greedy(&problem);
            let duration = start.elapsed();
            assert!(solution.is_feasible(&problem));
            Fig6Point {
                nodes: n,
                edges: graph.edge_count(),
                duration,
            }
        })
        .collect()
}

/// Sweep the number of edges at a fixed node count (Fig. 6 right).
pub fn figure6_edges(nodes: usize, probabilities: &[f64], seed: u64) -> Vec<Fig6Point> {
    let model = CostModel::default();
    probabilities
        .iter()
        .map(|&p| {
            let mut rng = SmallRng::seed_from_u64(seed + (p * 1000.0) as u64);
            let graph = erdos_renyi(nodes, p, &mut rng);
            let problem = OptRetProblem::synthetic(
                &graph,
                &model,
                |d| ((d % 13) + 1) << 28,
                |d| (d % 7) as f64,
            );
            let start = Instant::now();
            let solution = solve_greedy(&problem);
            let duration = start.elapsed();
            assert!(solution.is_feasible(&problem));
            Fig6Point {
                nodes,
                edges: graph.edge_count(),
                duration,
            }
        })
        .collect()
}

/// Render a Figure 6 sweep.
pub fn render_figure6(points: &[Fig6Point], label: &str) -> String {
    let mut t = TextTable::new(["Sweep", "Nodes", "Edges", "Optimizer time"]);
    for p in points {
        t.add_row([
            label.to_string(),
            p.nodes.to_string(),
            p.edges.to_string(),
            fmt_duration(p.duration),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{enterprise_corpora, Scale};
    use r2d2_opt::solve_exact;

    #[test]
    fn optimization_end_to_end_produces_consistent_counts() {
        let corpus = &enterprise_corpora(Scale::Smoke)[0];
        let result = evaluate_optimization(corpus, 1.0);
        assert_eq!(
            result.row.deleted_nodes + result.row.retained_nodes,
            corpus.lake.len()
        );
        assert!(result.total_cost <= result.retain_all_cost + 1e-9);
        if result.row.deleted_nodes > 0 {
            assert!(result.row.gdpr_row_scans_saved_per_month > 0.0);
        }
        assert!(render_table7(&[result]).contains("GDPR"));
    }

    #[test]
    fn figure5_series_monotone_and_ordered() {
        let pts = figure5(&[0.0, 0.1, 0.2, 0.3]);
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(w[1].savings_1_per_week >= w[0].savings_1_per_week);
            assert!(w[1].savings_5_per_week >= w[0].savings_5_per_week);
        }
        for p in &pts[1..] {
            assert!(p.savings_5_per_week > p.savings_1_per_week);
        }
        assert!(render_figure5(&pts).contains("Contained"));
    }

    #[test]
    fn figure6_sweeps_scale() {
        let nodes = figure6_nodes(&[20, 60], 0.05, 1);
        assert_eq!(nodes.len(), 2);
        assert!(nodes[1].edges >= nodes[0].edges);
        let edges = figure6_edges(40, &[0.02, 0.2], 2);
        assert!(edges[1].edges > edges[0].edges);
        assert!(render_figure6(&nodes, "nodes").contains("Optimizer time"));
    }

    #[test]
    fn greedy_used_in_fig6_is_validated_against_exact_on_small_graphs() {
        let model = CostModel::default();
        let mut rng = SmallRng::seed_from_u64(9);
        let graph = erdos_renyi(12, 0.15, &mut rng);
        let problem =
            OptRetProblem::synthetic(&graph, &model, |d| ((d % 13) + 1) << 28, |d| (d % 7) as f64);
        let greedy = solve_greedy(&problem);
        let exact = solve_exact(&problem);
        assert!(greedy.total_cost + 1e-9 >= exact.total_cost);
        // The greedy heuristic should land within 25% of the optimum on
        // these small instances.
        assert!(
            greedy.total_cost <= exact.total_cost * 1.25 + 1e-9,
            "greedy={} exact={}",
            greedy.total_cost,
            exact.total_cost
        );
    }
}
