//! Solvers for the Opt-Ret integer program (Eq. 3 of the paper).
//!
//! The decision variables are `x_v` (retain dataset `v`) and `y_e` (use edge
//! `e = (u, v)` to reconstruct a deleted `v` from a retained `u`). Because
//! the objective is separable in `y` — once the retained set is fixed, the
//! best choice for every deleted node is simply its cheapest retained parent
//! — a solution is fully described by the retained set, and solvers only
//! search over `x`.
//!
//! Two solvers are provided:
//!
//! * [`solve_exact`] — branch & bound over the retain/delete assignment,
//!   run independently per weakly connected component with an admissible
//!   lower bound. Exact, intended for the instance sizes the pipeline
//!   actually produces (the paper reports 100–300 candidate edges).
//! * [`solve_greedy`] — a feasibility-preserving greedy heuristic (delete the
//!   node with the largest positive saving until no saving remains), used
//!   for the large Erdős–Rényi instances of the Fig. 6 scalability sweep and
//!   cross-validated against the exact solver on small instances.
//!
//! [`solve`] picks per component: exact when the component is small enough,
//! greedy otherwise.

use crate::problem::{AdjacencyIndex, OptRetProblem};
use std::collections::{BTreeMap, BTreeSet};

/// A (feasible) solution to an Opt-Ret instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Datasets to retain.
    pub retained: BTreeSet<u64>,
    /// Datasets recommended for deletion.
    pub deleted: BTreeSet<u64>,
    /// For each deleted dataset, the retained parent chosen for
    /// reconstruction (the `y_e = 1` edge).
    pub reconstruction_parent: BTreeMap<u64, u64>,
    /// Objective value (Eq. 3) of this solution.
    pub total_cost: f64,
}

impl Solution {
    /// Retain every dataset (the trivial feasible solution).
    pub fn retain_all(problem: &OptRetProblem) -> Self {
        let retained: BTreeSet<u64> = problem.nodes.keys().copied().collect();
        Solution {
            total_cost: problem.retain_all_cost(),
            retained,
            deleted: BTreeSet::new(),
            reconstruction_parent: BTreeMap::new(),
        }
    }

    /// Number of deleted datasets.
    pub fn deleted_count(&self) -> usize {
        self.deleted.len()
    }

    /// Total bytes of the deleted datasets.
    pub fn deleted_bytes(&self, problem: &OptRetProblem) -> u64 {
        self.deleted
            .iter()
            .filter_map(|d| problem.nodes.get(d))
            .map(|n| n.size_bytes)
            .sum()
    }

    /// Savings relative to retaining everything.
    pub fn savings(&self, problem: &OptRetProblem) -> f64 {
        problem.retain_all_cost() - self.total_cost
    }

    /// Verify that the solution satisfies Eq. 3's constraints: retained and
    /// deleted partition the nodes, every deleted node has a retained
    /// reconstruction parent connected by a real edge.
    pub fn is_feasible(&self, problem: &OptRetProblem) -> bool {
        self.is_feasible_indexed(problem, &problem.adjacency())
    }

    /// [`Solution::is_feasible`] against a prebuilt adjacency index (one
    /// O(E) index build instead of one O(E) edge scan per deleted node).
    pub fn is_feasible_indexed(&self, problem: &OptRetProblem, index: &AdjacencyIndex) -> bool {
        let all: BTreeSet<u64> = problem.nodes.keys().copied().collect();
        let union: BTreeSet<u64> = self.retained.union(&self.deleted).copied().collect();
        if union != all || !self.retained.is_disjoint(&self.deleted) {
            return false;
        }
        for d in &self.deleted {
            match self.reconstruction_parent.get(d) {
                None => return false,
                Some(p) => {
                    if !self.retained.contains(p) || !index.has_edge(*p, *d) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Evaluate a retained-set choice: returns `None` if some deleted node has no
/// retained parent, otherwise the total cost and the chosen reconstruction
/// parents. Ties between equally cheap retained parents resolve to the first
/// one in edge order, matching the linear-scan `min_by` this replaced.
fn evaluate(
    problem: &OptRetProblem,
    index: &AdjacencyIndex,
    retained: &BTreeSet<u64>,
) -> Option<(f64, BTreeMap<u64, u64>)> {
    let mut cost = 0.0;
    let mut recon = BTreeMap::new();
    for (id, node) in &problem.nodes {
        if retained.contains(id) {
            cost += node.retention_cost;
        } else {
            let mut best: Option<(u64, f64)> = None;
            for &(p, c) in index.parents_of(*id) {
                if !retained.contains(&p) {
                    continue;
                }
                match best {
                    Some((_, bc)) if bc <= c => {}
                    _ => best = Some((p, c)),
                }
            }
            let (parent, edge_cost) = best?;
            cost += node.accesses * edge_cost;
            recon.insert(*id, parent);
        }
    }
    Some((cost, recon))
}

/// Build a solution from a retained set, if feasible.
fn solution_from_retained(
    problem: &OptRetProblem,
    index: &AdjacencyIndex,
    retained: BTreeSet<u64>,
) -> Option<Solution> {
    let (total_cost, reconstruction_parent) = evaluate(problem, index, &retained)?;
    let deleted = problem
        .nodes
        .keys()
        .copied()
        .filter(|id| !retained.contains(id))
        .collect();
    Some(Solution {
        retained,
        deleted,
        reconstruction_parent,
        total_cost,
    })
}

/// Weakly connected components of the problem graph (isolated nodes form
/// singleton components). Each component's node list is sorted; components
/// are ordered by their smallest node id. Shared with the incremental
/// advisor so both paths enumerate (and hence merge) components identically.
pub(crate) fn components(problem: &OptRetProblem) -> Vec<Vec<u64>> {
    let ids: Vec<u64> = problem.nodes.keys().copied().collect();
    let mut comp: BTreeMap<u64, usize> = BTreeMap::new();
    let mut adjacency: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for e in &problem.edges {
        adjacency.entry(e.parent).or_default().push(e.child);
        adjacency.entry(e.child).or_default().push(e.parent);
    }
    let mut count = 0;
    for &start in &ids {
        if comp.contains_key(&start) {
            continue;
        }
        let mut stack = vec![start];
        comp.insert(start, count);
        while let Some(u) = stack.pop() {
            for &v in adjacency.get(&u).map(|v| v.as_slice()).unwrap_or(&[]) {
                if let std::collections::btree_map::Entry::Vacant(slot) = comp.entry(v) {
                    slot.insert(count);
                    stack.push(v);
                }
            }
        }
        count += 1;
    }
    let mut out = vec![Vec::new(); count];
    for (&id, &c) in &comp {
        out[c].push(id);
    }
    out
}

/// Restrict a problem to a subset of nodes (edges with both endpoints
/// inside, original edge order preserved).
pub(crate) fn sub_problem(problem: &OptRetProblem, nodes: &[u64]) -> OptRetProblem {
    let set: BTreeSet<u64> = nodes.iter().copied().collect();
    OptRetProblem {
        nodes: problem
            .nodes
            .iter()
            .filter(|(id, _)| set.contains(id))
            .map(|(id, n)| (*id, *n))
            .collect(),
        edges: problem
            .edges
            .iter()
            .filter(|e| set.contains(&e.parent) && set.contains(&e.child))
            .copied()
            .collect(),
    }
}

/// Exact branch & bound over one (sub-)problem.
///
/// All neighbourhood lookups go through a prebuilt [`AdjacencyIndex`]:
/// the previous implementation called the O(E) `parents_of` /
/// `cheapest_parent` scans inside the bound loop of every DFS node,
/// making the search accidentally quadratic in the edge count.
fn branch_and_bound(problem: &OptRetProblem) -> Solution {
    let index = problem.adjacency();
    let ids: Vec<u64> = problem.nodes.keys().copied().collect();
    // Optimistic per-node reconstruction cost (cheapest parent regardless of
    // its status; infinite for roots) and lower bound (the cheaper of
    // retaining and that optimistic reconstruction). Both are fixed for the
    // whole search, so they are computed once instead of per DFS node.
    let opt_recon: BTreeMap<u64, f64> = ids
        .iter()
        .map(|&id| {
            let node = &problem.nodes[&id];
            let best_parent = index
                .cheapest_parent(id)
                .map(|(_, c)| node.accesses * c)
                .unwrap_or(f64::INFINITY);
            (id, best_parent)
        })
        .collect();
    let optimistic: BTreeMap<u64, f64> = ids
        .iter()
        .map(|&id| (id, problem.nodes[&id].retention_cost.min(opt_recon[&id])))
        .collect();

    let mut best = Solution::retain_all(problem);

    // DFS over assignments. `retained`/`deleted` hold the partial assignment
    // for ids[0..depth].
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        problem: &OptRetProblem,
        index: &AdjacencyIndex,
        ids: &[u64],
        opt_recon: &BTreeMap<u64, f64>,
        optimistic: &BTreeMap<u64, f64>,
        depth: usize,
        retained: &mut BTreeSet<u64>,
        deleted: &mut BTreeSet<u64>,
        best: &mut Solution,
    ) {
        // Lower bound: cost of decided retained nodes + optimistic bound for
        // everything else (decided-deleted nodes still use the optimistic
        // reconstruction estimate, which never overestimates).
        let mut bound = 0.0;
        for id in retained.iter() {
            bound += problem.nodes[id].retention_cost;
        }
        for id in deleted.iter() {
            bound += opt_recon[id];
        }
        for id in &ids[depth..] {
            bound += optimistic[id];
        }
        if bound >= best.total_cost - 1e-12 {
            return;
        }

        if depth == ids.len() {
            if let Some(sol) = solution_from_retained(problem, index, retained.clone()) {
                if sol.total_cost < best.total_cost {
                    *best = sol;
                }
            }
            return;
        }

        let id = ids[depth];
        // Branch 1: retain.
        retained.insert(id);
        dfs(
            problem,
            index,
            ids,
            opt_recon,
            optimistic,
            depth + 1,
            retained,
            deleted,
            best,
        );
        retained.remove(&id);

        // Branch 2: delete — only worth trying if the node has any parent.
        if index.has_parents(id) {
            deleted.insert(id);
            dfs(
                problem,
                index,
                ids,
                opt_recon,
                optimistic,
                depth + 1,
                retained,
                deleted,
                best,
            );
            deleted.remove(&id);
        }
    }

    let mut retained = BTreeSet::new();
    let mut deleted = BTreeSet::new();
    dfs(
        problem,
        &index,
        &ids,
        &opt_recon,
        &optimistic,
        0,
        &mut retained,
        &mut deleted,
        &mut best,
    );
    best
}

/// Merge per-component solutions into one.
fn merge(parts: Vec<Solution>) -> Solution {
    let mut out = Solution {
        retained: BTreeSet::new(),
        deleted: BTreeSet::new(),
        reconstruction_parent: BTreeMap::new(),
        total_cost: 0.0,
    };
    for p in parts {
        out.retained.extend(p.retained);
        out.deleted.extend(p.deleted);
        out.reconstruction_parent.extend(p.reconstruction_parent);
        out.total_cost += p.total_cost;
    }
    out
}

/// Solve exactly with branch & bound (per connected component).
///
/// Worst-case exponential in the largest component; intended for the
/// moderate graphs the pipeline produces and for validating the heuristic.
pub fn solve_exact(problem: &OptRetProblem) -> Solution {
    let parts = components(problem)
        .iter()
        .map(|nodes| branch_and_bound(&sub_problem(problem, nodes)))
        .collect();
    merge(parts)
}

/// Greedy heuristic: repeatedly delete the dataset with the largest positive
/// saving while preserving feasibility.
///
/// The saving of deleting a retained `v` is the **exact** change of the
/// objective:
///
/// ```text
/// saving(v) = retention_v − A_v·cheapest_retained_parent(v)
///           − Σ_{deleted c: v is c's cheapest retained parent}
///                 A_c·(next_cheapest_retained_parent(c) − current(c))
/// ```
///
/// The third term is what an earlier version dropped: already-deleted
/// children reconstructing *via* `v` get bumped to a strictly more expensive
/// retained parent when `v` goes, so ignoring it let the heuristic take
/// net-cost-increasing steps and end worse than retaining everything (see
/// `greedy_regression_old_saving_loses_money`). Because every accepted step
/// now has a provably positive exact saving, the greedy result is always
/// ≤ the retain-all baseline.
///
/// Implementation note: each round recomputes, in one O(V+E) sweep over the
/// adjacency index, every node's cheapest retained parent and its cheapest
/// retained parent *excluding that one*; at most V rounds keeps the whole
/// heuristic O(V·(V+E)) ⊆ O(V·E) for the connected instances of the Fig. 6
/// sweeps.
pub fn solve_greedy(problem: &OptRetProblem) -> Solution {
    let index = problem.adjacency();
    let mut retained: BTreeSet<u64> = problem.nodes.keys().copied().collect();
    let mut deleted: BTreeSet<u64> = BTreeSet::new();

    // Per-node support summary for the current retained set.
    #[derive(Clone, Copy)]
    struct Support {
        /// Cheapest retained parent (first minimum in edge order) and cost.
        best: Option<(u64, f64)>,
        /// Cheapest retained parent cost among parents ≠ `best.0`.
        runner_up: f64,
    }

    loop {
        // Sweep 1: support summary of every node under the current
        // assignment. `runner_up` excludes the best *parent* (not just the
        // best edge), so it is exactly what a deleted child would pay if
        // that parent disappeared.
        let mut support: BTreeMap<u64, Support> = BTreeMap::new();
        for &v in problem.nodes.keys() {
            let mut best: Option<(u64, f64)> = None;
            for &(p, c) in index.parents_of(v) {
                if p == v || !retained.contains(&p) {
                    continue;
                }
                match best {
                    Some((_, bc)) if bc <= c => {}
                    _ => best = Some((p, c)),
                }
            }
            let mut runner_up = f64::INFINITY;
            if let Some((bp, _)) = best {
                for &(p, c) in index.parents_of(v) {
                    if p == v || p == bp || !retained.contains(&p) {
                        continue;
                    }
                    runner_up = runner_up.min(c);
                }
            }
            support.insert(v, Support { best, runner_up });
        }

        // Sweep 2: the exact saving of deleting each retained candidate.
        let mut best_choice: Option<(u64, f64)> = None;
        'candidates: for &v in &retained {
            let node = &problem.nodes[&v];
            // v needs at least one retained parent to be deletable.
            let Some((_, best_parent_cost)) = support[&v].best else {
                continue;
            };
            let mut saving = node.retention_cost - node.accesses * best_parent_cost;
            // Charge the children already deleted that reconstruct via v.
            // Parallel edges to one child must charge once — tracked with a
            // set because edge order is only sorted for instances built by
            // `from_graph`/`synthetic` (the pub fields allow any order).
            let mut charged: BTreeSet<u64> = BTreeSet::new();
            for &(c, _) in index.children_of(v) {
                if c == v || !charged.insert(c) {
                    continue;
                }
                if !deleted.contains(&c) {
                    continue;
                }
                let sup = support[&c];
                match sup.best {
                    Some((bp, bc)) if bp == v => {
                        if !sup.runner_up.is_finite() {
                            // v is c's sole retained parent: not deletable.
                            continue 'candidates;
                        }
                        saving -= problem.nodes[&c].accesses * (sup.runner_up - bc);
                    }
                    // c reconstructs through a different retained parent at
                    // the same-or-cheaper cost; deleting v changes nothing.
                    _ => {}
                }
            }
            if saving > 1e-12 {
                match best_choice {
                    Some((_, s)) if s >= saving => {}
                    _ => best_choice = Some((v, saving)),
                }
            }
        }
        match best_choice {
            Some((v, _)) => {
                retained.remove(&v);
                deleted.insert(v);
            }
            None => break,
        }
    }

    solution_from_retained(problem, &index, retained)
        .expect("greedy maintains feasibility by construction")
}

/// Default component-size threshold below which [`solve`] uses the exact
/// branch & bound.
pub const EXACT_COMPONENT_LIMIT: usize = 22;

/// Solve one connected (sub-)problem with the per-component dispatch used by
/// [`solve_with_limit`] and the incremental advisor: the Dyn-Lin dynamic
/// program when the component is a directed chain (exact in O(N)), exact
/// branch & bound up to `exact_limit` nodes, the greedy heuristic above.
///
/// The incremental [`crate::advisor::AdvisorState`] calls this on exactly
/// the components a delta dirtied; routing both the batch and the
/// incremental path through one dispatch is what makes their solutions
/// bit-identical.
pub(crate) fn solve_component(sub: &OptRetProblem, exact_limit: usize) -> Solution {
    if let Some(sol) = crate::dynlin::solve_line(sub) {
        return sol;
    }
    if sub.node_count() <= exact_limit {
        branch_and_bound(sub)
    } else {
        solve_greedy(sub)
    }
}

/// Solve the instance: per weakly connected component, Dyn-Lin on chains,
/// exact branch & bound on components of at most `EXACT_COMPONENT_LIMIT`
/// nodes, greedy on larger components.
pub fn solve(problem: &OptRetProblem) -> Solution {
    solve_with_limit(problem, EXACT_COMPONENT_LIMIT)
}

/// [`solve`] with an explicit component-size threshold.
pub fn solve_with_limit(problem: &OptRetProblem, exact_limit: usize) -> Solution {
    let parts = components(problem)
        .iter()
        .map(|nodes| solve_component(&sub_problem(problem, nodes), exact_limit))
        .collect();
    merge(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::CostModel;
    use crate::problem::{NodeCosts, ReconstructionEdge};
    use r2d2_graph::random::{erdos_renyi, line_graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Hand-built instance: parent P (big, must stay), child C (cheap to
    /// rebuild, rarely accessed) and child D (expensive to rebuild because it
    /// is accessed constantly).
    fn tiny_problem() -> OptRetProblem {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            0,
            NodeCosts {
                dataset: 0,
                size_bytes: 1 << 30,
                retention_cost: 10.0,
                accesses: 1.0,
            },
        );
        nodes.insert(
            1,
            NodeCosts {
                dataset: 1,
                size_bytes: 1 << 29,
                retention_cost: 5.0,
                accesses: 1.0,
            },
        );
        nodes.insert(
            2,
            NodeCosts {
                dataset: 2,
                size_bytes: 1 << 29,
                retention_cost: 5.0,
                accesses: 100.0,
            },
        );
        let edges = vec![
            ReconstructionEdge {
                parent: 0,
                child: 1,
                cost: 1.0,
            },
            ReconstructionEdge {
                parent: 0,
                child: 2,
                cost: 1.0,
            },
        ];
        OptRetProblem { nodes, edges }
    }

    #[test]
    fn exact_solver_picks_obvious_deletions() {
        let p = tiny_problem();
        let sol = solve_exact(&p);
        assert!(sol.is_feasible(&p));
        // Node 1: retention 5 vs reconstruction 1*1 = 1 → delete.
        assert!(sol.deleted.contains(&1));
        // Node 2: retention 5 vs reconstruction 100*1 = 100 → retain.
        assert!(sol.retained.contains(&2));
        // Root has no parent → must be retained.
        assert!(sol.retained.contains(&0));
        assert_eq!(sol.reconstruction_parent[&1], 0);
        assert!((sol.total_cost - (10.0 + 5.0 + 1.0)).abs() < 1e-9);
        assert!(sol.savings(&p) > 0.0);
        assert_eq!(sol.deleted_count(), 1);
        assert_eq!(sol.deleted_bytes(&p), 1 << 29);
    }

    #[test]
    fn greedy_matches_exact_on_tiny_instance() {
        let p = tiny_problem();
        let exact = solve_exact(&p);
        let greedy = solve_greedy(&p);
        assert!(greedy.is_feasible(&p));
        assert!((greedy.total_cost - exact.total_cost).abs() < 1e-9);
    }

    #[test]
    fn retain_all_is_feasible_baseline() {
        let p = tiny_problem();
        let sol = Solution::retain_all(&p);
        assert!(sol.is_feasible(&p));
        assert_eq!(sol.total_cost, 20.0);
    }

    #[test]
    fn deleted_node_always_keeps_a_retained_parent() {
        // Chain 0 → 1 → 2: deleting both 1 and 2 forces 2 to reconstruct
        // from 1 which would itself be deleted → only one of them can go
        // unless 2 can reconstruct from... it can't (its only parent is 1).
        let model = CostModel::default();
        let graph = line_graph(3);
        let p = OptRetProblem::synthetic(&graph, &model, |_| 10 << 30, |_| 0.1);
        let sol = solve_exact(&p);
        assert!(sol.is_feasible(&p));
        // Node 0 has no parent: retained. If 1 is deleted, 2 must be retained.
        assert!(sol.retained.contains(&0));
        assert!(sol.retained.contains(&1) || sol.retained.contains(&2));
    }

    #[test]
    fn exact_beats_or_matches_greedy_on_random_dags() {
        let model = CostModel::default();
        let mut rng = SmallRng::seed_from_u64(5);
        for n in [6usize, 10, 14] {
            for p_edge in [0.1, 0.3] {
                let graph = r2d2_graph::random::erdos_renyi_dag(n, p_edge, &mut rng);
                let prob = OptRetProblem::synthetic(
                    &graph,
                    &model,
                    |d| ((d % 7) + 1) << 28,
                    |d| (d % 5) as f64,
                );
                let exact = solve_exact(&prob);
                let greedy = solve_greedy(&prob);
                assert!(exact.is_feasible(&prob));
                assert!(greedy.is_feasible(&prob));
                assert!(
                    exact.total_cost <= greedy.total_cost + 1e-9,
                    "exact ({}) must not exceed greedy ({})",
                    exact.total_cost,
                    greedy.total_cost
                );
                assert!(exact.total_cost <= prob.retain_all_cost() + 1e-9);
                assert!(
                    greedy.total_cost <= prob.retain_all_cost() + 1e-9,
                    "greedy ({}) must never lose money vs retain-all ({})",
                    greedy.total_cost,
                    prob.retain_all_cost()
                );
            }
        }
    }

    /// Regression instance for the greedy saving formula. Layout:
    ///
    /// ```text
    ///   R(0) ──0.5──> v(1)
    ///   R(0) ──10──>  c(2)
    ///   v(1) ──0.1──> c(2)
    /// ```
    ///
    /// The profitable first move deletes `c` (saving 5 − 0.1 = 4.9 via `v`).
    /// The *old* saving formula then valued deleting `v` at
    /// `retention − A_v·0.5 = +0.5`, ignoring that `c` — already deleted and
    /// reconstructing via `v` — gets bumped from the 0.1 edge to the 10 edge.
    /// The true delta is `0.5 − 1·(10 − 0.1) = −9.4`: the old greedy ended at
    /// cost 110.5, *above* the retain-all baseline of 106.
    fn regression_problem() -> OptRetProblem {
        let mut nodes = BTreeMap::new();
        let mk = |dataset: u64, retention_cost: f64, accesses: f64| NodeCosts {
            dataset,
            size_bytes: 1 << 20,
            retention_cost,
            accesses,
        };
        nodes.insert(0, mk(0, 100.0, 1.0));
        nodes.insert(1, mk(1, 1.0, 1.0));
        nodes.insert(2, mk(2, 5.0, 1.0));
        let edges = vec![
            ReconstructionEdge {
                parent: 0,
                child: 1,
                cost: 0.5,
            },
            ReconstructionEdge {
                parent: 0,
                child: 2,
                cost: 10.0,
            },
            ReconstructionEdge {
                parent: 1,
                child: 2,
                cost: 0.1,
            },
        ];
        OptRetProblem { nodes, edges }
    }

    #[test]
    fn greedy_regression_old_saving_loses_money() {
        let p = regression_problem();
        let retain_all = p.retain_all_cost();
        assert!((retain_all - 106.0).abs() < 1e-9);

        // The end state of the old greedy (delete c, then delete v because
        // the per-node saving formula said +0.5) really is worse than doing
        // nothing — this is the money-losing outcome the fix prevents.
        let old_end =
            solution_from_retained(&p, &p.adjacency(), BTreeSet::from([0])).expect("feasible");
        assert!((old_end.total_cost - 110.5).abs() < 1e-9);
        assert!(
            old_end.total_cost > retain_all,
            "the crafted instance must make the old move sequence lose money"
        );

        // The fixed greedy charges the true delta, stops after deleting c,
        // and stays below retain-all.
        let greedy = solve_greedy(&p);
        assert!(greedy.is_feasible(&p));
        assert_eq!(greedy.deleted, BTreeSet::from([2]));
        assert!((greedy.total_cost - 101.1).abs() < 1e-9);
        assert!(greedy.total_cost <= retain_all + 1e-9);

        // And it matches the exact optimum here.
        let exact = solve_exact(&p);
        assert!((greedy.total_cost - exact.total_cost).abs() < 1e-9);
    }

    #[test]
    fn greedy_respects_sole_support_of_deleted_children() {
        // v is the ONLY parent of c. After c is deleted, v must never be
        // deleted even though its own saving looks positive.
        let mut nodes = BTreeMap::new();
        let mk = |dataset: u64, retention_cost: f64, accesses: f64| NodeCosts {
            dataset,
            size_bytes: 1 << 20,
            retention_cost,
            accesses,
        };
        nodes.insert(0, mk(0, 100.0, 1.0));
        nodes.insert(1, mk(1, 2.0, 1.0));
        nodes.insert(2, mk(2, 5.0, 1.0));
        let edges = vec![
            ReconstructionEdge {
                parent: 0,
                child: 1,
                cost: 0.5,
            },
            ReconstructionEdge {
                parent: 1,
                child: 2,
                cost: 0.1,
            },
        ];
        let p = OptRetProblem { nodes, edges };
        let greedy = solve_greedy(&p);
        assert!(greedy.is_feasible(&p));
        assert!(
            !(greedy.deleted.contains(&1) && greedy.deleted.contains(&2)),
            "deleting both v and its dependent child is infeasible"
        );
    }

    #[test]
    fn greedy_scales_to_larger_random_graphs() {
        let model = CostModel::default();
        let mut rng = SmallRng::seed_from_u64(6);
        let graph = erdos_renyi(150, 0.05, &mut rng);
        let prob =
            OptRetProblem::synthetic(&graph, &model, |d| ((d % 11) + 1) << 27, |d| (d % 3) as f64);
        let sol = solve_greedy(&prob);
        assert!(sol.is_feasible(&prob));
        assert!(sol.total_cost <= prob.retain_all_cost() + 1e-9);
    }

    #[test]
    fn solve_dispatches_by_component_size() {
        let p = tiny_problem();
        let auto = solve(&p);
        let exact = solve_exact(&p);
        assert!((auto.total_cost - exact.total_cost).abs() < 1e-9);
        let forced_greedy = solve_with_limit(&p, 0);
        assert!(forced_greedy.is_feasible(&p));
    }

    #[test]
    fn empty_problem() {
        let p = OptRetProblem::default();
        let sol = solve(&p);
        assert!(sol.retained.is_empty());
        assert!(sol.deleted.is_empty());
        assert_eq!(sol.total_cost, 0.0);
        assert!(sol.is_feasible(&p));
    }

    #[test]
    fn isolated_nodes_are_retained() {
        let model = CostModel::default();
        let graph = r2d2_graph::ContainmentGraph::with_datasets(0..5);
        let p = OptRetProblem::synthetic(&graph, &model, |_| 1 << 30, |_| 1.0);
        let sol = solve(&p);
        assert_eq!(sol.retained.len(), 5);
        assert_eq!(sol.deleted_count(), 0);
    }

    #[test]
    fn infeasible_marker_detected() {
        // A solution claiming to delete a node with no retained parent is
        // reported as infeasible.
        let p = tiny_problem();
        let bad = Solution {
            retained: BTreeSet::from([1, 2]),
            deleted: BTreeSet::from([0]),
            reconstruction_parent: BTreeMap::from([(0, 1)]),
            total_cost: 0.0,
        };
        assert!(!bad.is_feasible(&p), "edge 1→0 does not exist");
    }
}
