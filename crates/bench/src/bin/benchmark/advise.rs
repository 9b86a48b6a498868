//! Advise: `r2d2_opt::solve` on the workload's Opt-Ret problem.

use crate::layers::{self, OptRetProblem, Solution};
use crate::run::{sub_seed, Ctx, MIN_PASSES, PROBE_REPS, SHARE_ADVISE};
use crate::stats::median;
use crate::workloads::AdviseProblem;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The advise oracle: the plan keeps every deleted dataset reconstructible
/// and costs no more than deleting nothing.
pub fn problems(feasible: bool, cost: f64, retain_all: f64) -> Vec<String> {
    let mut out = Vec::new();
    if !feasible {
        out.push("advise: the solution is not feasible".to_string());
    }
    if cost.is_nan() || cost > retain_all {
        out.push(format!(
            "advise: the solution costs {cost}, retaining everything {retain_all}"
        ));
    }
    out
}

/// A synthetic instance over `graph`: sizes and access counts spread over the
/// dataset ids as the optimizer experiments of this repository spread them.
fn synthetic(graph: &layers::ContainmentGraph) -> OptRetProblem {
    layers::synthetic_problem(graph, |d| ((d % 13) + 1) << 28, |d| (d % 7) as f64)
}

fn build(ctx: &Ctx<'_>, lake_problem: Option<OptRetProblem>) -> Option<OptRetProblem> {
    let mut rng = SmallRng::seed_from_u64(sub_seed(ctx.opts.seed, 4));
    match (ctx.opts.workload.advise)(ctx.opts.smoke) {
        AdviseProblem::Lake => lake_problem,
        AdviseProblem::Dense {
            nodes,
            edge_probability,
        } => {
            let graph = layers::erdos_renyi(nodes, edge_probability, &mut rng);
            Some(synthetic(&graph))
        }
        AdviseProblem::Chains { chains, length } => {
            let lengths: Vec<usize> = (0..chains)
                .map(|_| rng.gen_range(length * 3 / 4..length * 5 / 4 + 1))
                .collect();
            Some(synthetic(&layers::line_forest(&lengths)))
        }
    }
}

/// Returns the problem's node and edge counts (for the fingerprint).
pub fn phase(ctx: &mut Ctx<'_>, lake_problem: Option<OptRetProblem>) -> (usize, usize) {
    let problem = ctx.setup("advise.problem", |ctx| build(ctx, lake_problem));
    let Some(problem) = problem else {
        ctx.check(false, || "advise: no Opt-Ret problem to solve".to_string());
        return (0, 0);
    };
    let budget = ctx.budget(SHARE_ADVISE);
    let mut times = Vec::new();
    let mut first: Option<Solution> = None;
    let mut spent = 0.0;
    let mut pass = 0;
    while pass < MIN_PASSES || spent < budget {
        ctx.begin_pass("advise", pass);
        ctx.tracer.next_op();
        let (solution, d) = ctx
            .tracer
            .time("opt.solver.solve", || layers::solve(&problem));
        ctx.attempted += 1;
        spent += d.as_secs_f64();
        let t = d.as_secs_f64() * 1e3;
        times.push(t);
        ctx.pass_took(t);
        first.get_or_insert(solution);
        pass += 1;
    }
    let solution = first.expect("MIN_PASSES >= 1");
    let retain_all = problem.retain_all_cost();
    for problem in problems(
        solution.is_feasible(&problem),
        solution.total_cost,
        retain_all,
    ) {
        ctx.check(false, || problem);
    }
    let advise_ms = median(&times);
    ctx.end_to_end("advise_ms", advise_ms);
    ctx.end_to_end("advise_cost_ratio", solution.total_cost / retain_all);

    if ctx.opts.trace {
        layer_metrics(ctx, &problem, &solution);
    }
    (problem.node_count(), problem.edge_count())
}

/// The problem restricted to its largest weakly connected component, and
/// how many components there are.
fn largest_component(problem: &OptRetProblem) -> (OptRetProblem, usize) {
    let components = layers::components(&layers::problem_graph(problem));
    let members: BTreeSet<u64> = components
        .iter()
        .max_by_key(|c| c.len())
        .map(|c| c.iter().copied().collect())
        .unwrap_or_default();
    let sub = OptRetProblem {
        nodes: problem
            .nodes
            .iter()
            .filter(|(id, _)| members.contains(id))
            .map(|(id, costs)| (*id, *costs))
            .collect(),
        edges: problem
            .edges
            .iter()
            .filter(|e| members.contains(&e.parent) && members.contains(&e.child))
            .copied()
            .collect(),
    };
    (sub, components.len())
}

fn layer_metrics(ctx: &mut Ctx<'_>, problem: &OptRetProblem, solution: &Solution) {
    ctx.tracer.set_enabled(true);
    let (sub, components) = largest_component(problem);
    ctx.layer("opt.problem.nodes", problem.node_count() as f64);
    ctx.layer("opt.problem.edges", problem.edge_count() as f64);
    ctx.layer("opt.problem.components", components as f64);
    ctx.layer("opt.problem.largest_component", sub.node_count() as f64);
    let (mut index_us, mut greedy_ms) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        ctx.tracer.next_op();
        let (_, d) = ctx
            .tracer
            .time("opt.index.build", || layers::adjacency_index(problem));
        index_us.push(d.as_secs_f64() * 1e6);
        let (_, d) = ctx
            .tracer
            .time("opt.solver.greedy", || layers::solve_greedy(&sub));
        greedy_ms.push(d.as_secs_f64() * 1e3);
    }
    ctx.layer("opt.index.build_us", median(&index_us));
    ctx.layer("opt.solver.greedy_ms", median(&greedy_ms));
    ctx.layer("opt.solver.deleted", solution.deleted_count() as f64);
    ctx.layer("opt.solver.total_cost", solution.total_cost);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advise_oracle_sees_an_infeasible_or_overpriced_plan() {
        assert!(problems(true, 9.0, 10.0).is_empty());
        assert!(problems(true, 10.0, 10.0).is_empty());
        assert_eq!(problems(false, 9.0, 10.0).len(), 1);
        assert_eq!(problems(true, 10.5, 10.0).len(), 1);
        assert_eq!(problems(true, f64::NAN, 10.0).len(), 1);
    }

    #[test]
    fn largest_component_is_cut_out_whole() {
        // Chains of 2, 4 and 3 nodes: the 4-chain is the largest.
        let graph = layers::line_forest(&[2, 4, 3]);
        let problem = synthetic(&graph);
        let (sub, components) = largest_component(&problem);
        assert_eq!(components, 3);
        assert_eq!(sub.node_count(), 4);
        assert_eq!(sub.edge_count(), 3);
    }
}
