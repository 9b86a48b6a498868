//! Savings accounting: GDPR row-scan savings (Table 7) and the storage /
//! compute projection for a large lake over a time horizon (Fig. 5).
//!
//! Table 7 reports, per customer, how many privacy-initiated row scans per
//! month are avoided by deleting the recommended datasets (the paper assumes
//! one privacy-initiated access per dataset per week, i.e. a full scan of
//! every retained copy). Fig. 5 projects the net benefit of deleting a given
//! fraction of a 10 PB data lake over a one-year horizon under 1 or 5
//! privacy-initiated accesses per week, subtracting the read/write costs of
//! any reconstructions triggered by accesses after deletion.

use crate::costmodel::{CostModel, BYTES_PER_GB};
use crate::problem::OptRetProblem;
use crate::solver::Solution;
use r2d2_lake::{DataLake, DatasetId, Result};

/// GDPR / privacy-scan savings of a deletion recommendation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GdprSavings {
    /// Number of datasets recommended for deletion.
    pub datasets_deleted: usize,
    /// Total bytes deleted.
    pub bytes_deleted: u64,
    /// Row scans avoided per month (deleted rows × scans per month).
    pub row_scans_saved_per_month: f64,
}

/// Compute the GDPR row-scan savings of a solution against the lake.
///
/// `scans_per_week` is the assumed number of privacy-initiated full scans per
/// dataset per week (the paper uses 1 in Table 7).
pub fn gdpr_savings(
    solution: &Solution,
    lake: &DataLake,
    scans_per_week: f64,
) -> Result<GdprSavings> {
    let mut rows: u64 = 0;
    let mut bytes: u64 = 0;
    for &d in &solution.deleted {
        let entry = lake.dataset(DatasetId(d))?;
        rows += entry.num_rows() as u64;
        bytes += entry.byte_size() as u64;
    }
    Ok(GdprSavings {
        datasets_deleted: solution.deleted.len(),
        bytes_deleted: bytes,
        row_scans_saved_per_month: rows as f64 * scans_per_week * 52.0 / 12.0,
    })
}

/// Inputs of the Fig. 5 horizon projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HorizonScenario {
    /// Total lake size in bytes (the paper uses 10 PB).
    pub lake_bytes: f64,
    /// Fraction of the lake that is exactly contained (and hence deletable).
    pub contained_fraction: f64,
    /// Privacy-initiated accesses per dataset per week (1 or 5 in Fig. 5).
    pub accesses_per_week: f64,
    /// Fraction of accesses that hit a *deleted* dataset and therefore
    /// trigger a reconstruction (read parent + write child).
    pub access_after_deletion_fraction: f64,
    /// Horizon length in months (12 in Fig. 5).
    pub horizon_months: f64,
}

impl HorizonScenario {
    /// The 10 PB / 1-year scenario of Fig. 5.
    pub fn figure5(contained_fraction: f64, accesses_per_week: f64) -> Self {
        HorizonScenario {
            lake_bytes: 10.0 * 1024.0 * 1024.0 * BYTES_PER_GB, // 10 PB
            contained_fraction,
            accesses_per_week,
            access_after_deletion_fraction: 0.05,
            horizon_months: 12.0,
        }
    }
}

/// Output of the horizon projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HorizonSavings {
    /// Storage cost avoided over the horizon (USD).
    pub storage_savings: f64,
    /// Maintenance (privacy-scan compute) cost avoided over the horizon (USD).
    pub maintenance_savings: f64,
    /// Reconstruction cost paid for accesses after deletion (USD).
    pub reconstruction_cost: f64,
}

impl HorizonSavings {
    /// Net savings (storage + maintenance − reconstruction).
    pub fn net(&self) -> f64 {
        self.storage_savings + self.maintenance_savings - self.reconstruction_cost
    }
}

/// Project the savings of deleting the contained fraction of a lake over a
/// horizon (Fig. 5). The deleted data stops incurring storage and
/// privacy-scan costs; accesses that arrive after deletion pay the
/// reconstruction read+write cost for the affected data.
pub fn horizon_projection(scenario: &HorizonScenario, model: &CostModel) -> HorizonSavings {
    let deleted_gb = scenario.lake_bytes * scenario.contained_fraction / BYTES_PER_GB;
    let scans_per_month = scenario.accesses_per_week * 52.0 / 12.0;

    let storage_savings = deleted_gb * model.storage_per_gb_period * scenario.horizon_months;
    let maintenance_savings =
        deleted_gb * model.maintenance_per_gb_op * scans_per_month * scenario.horizon_months;

    // Accesses after deletion: a fraction of the scans over deleted data
    // triggers reconstruction (read the parent ≈ same size, write the child).
    let reconstructions_gb = deleted_gb
        * scans_per_month
        * scenario.horizon_months
        * scenario.access_after_deletion_fraction;
    let reconstruction_cost = reconstructions_gb * (model.read_per_gb + model.write_per_gb);

    HorizonSavings {
        storage_savings,
        maintenance_savings,
        reconstruction_cost,
    }
}

/// Sweep the contained fraction (x axis of Fig. 5) and return
/// `(fraction, net savings)` pairs for a given access rate.
pub fn figure5_series(
    fractions: &[f64],
    accesses_per_week: f64,
    model: &CostModel,
) -> Vec<(f64, f64)> {
    fractions
        .iter()
        .map(|&f| {
            let s = horizon_projection(&HorizonScenario::figure5(f, accesses_per_week), model);
            (f, s.net())
        })
        .collect()
}

/// Quantify an Opt-Ret solution the way Table 7 does: deletion/retention node
/// and edge counts plus GDPR savings.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Table7Row {
    /// Nodes recommended for deletion.
    pub deleted_nodes: usize,
    /// Edges used for reconstruction (one per deleted node).
    pub deletion_edges: usize,
    /// Nodes retained.
    pub retained_nodes: usize,
    /// Edges between retained nodes remaining in the graph.
    pub retained_edges: usize,
    /// Row scans saved per month by the deletions.
    pub gdpr_row_scans_saved_per_month: f64,
}

/// Build a Table 7 row from a solution, the problem and the lake.
pub fn table7_row(
    solution: &Solution,
    problem: &OptRetProblem,
    lake: &DataLake,
    scans_per_week: f64,
) -> Result<Table7Row> {
    let gdpr = gdpr_savings(solution, lake, scans_per_week)?;
    let retained_edges = problem
        .edges
        .iter()
        .filter(|e| solution.retained.contains(&e.parent) && solution.retained.contains(&e.child))
        .count();
    Ok(Table7Row {
        deleted_nodes: solution.deleted.len(),
        deletion_edges: solution.reconstruction_parent.len(),
        retained_nodes: solution.retained.len(),
        retained_edges,
        gdpr_row_scans_saved_per_month: gdpr.row_scans_saved_per_month,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
    use r2d2_lake::{AccessProfile, Column, DataType, PartitionedTable, Schema, Table};

    fn lake_with_chain() -> (DataLake, r2d2_graph::ContainmentGraph) {
        let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
        let mk = |n: i64| {
            PartitionedTable::single(
                Table::new(schema.clone(), vec![Column::from_ints(0..n)]).unwrap(),
            )
        };
        let mut lake = DataLake::new();
        let a = lake
            .add_dataset(
                "a",
                mk(100_000),
                AccessProfile {
                    accesses_per_period: 0.1,
                    maintenance_per_period: 4.0,
                },
                None,
            )
            .unwrap()
            .0;
        let b = lake
            .add_dataset(
                "b",
                mk(50_000),
                AccessProfile {
                    accesses_per_period: 0.1,
                    maintenance_per_period: 4.0,
                },
                None,
            )
            .unwrap()
            .0;
        let mut g = r2d2_graph::ContainmentGraph::new();
        g.add_edge(a, b);
        (lake, g)
    }

    #[test]
    fn gdpr_savings_count_deleted_rows() {
        let (lake, graph) = lake_with_chain();
        let problem = OptRetProblem::from_graph(&graph, &lake, &CostModel::default()).unwrap();
        let solution = solve(&problem);
        let savings = gdpr_savings(&solution, &lake, 1.0).unwrap();
        if solution.deleted.is_empty() {
            assert_eq!(savings.row_scans_saved_per_month, 0.0);
        } else {
            assert!(savings.row_scans_saved_per_month > 0.0);
            assert!(savings.bytes_deleted > 0);
            assert_eq!(savings.datasets_deleted, solution.deleted.len());
        }
    }

    #[test]
    fn table7_row_counts_are_consistent() {
        let (lake, graph) = lake_with_chain();
        let problem = OptRetProblem::from_graph(&graph, &lake, &CostModel::default()).unwrap();
        let solution = solve(&problem);
        let row = table7_row(&solution, &problem, &lake, 1.0).unwrap();
        assert_eq!(row.deleted_nodes + row.retained_nodes, 2);
        assert_eq!(row.deletion_edges, row.deleted_nodes);
    }

    #[test]
    fn horizon_projection_scales_with_fraction() {
        let model = CostModel::default();
        let low = horizon_projection(&HorizonScenario::figure5(0.1, 1.0), &model);
        let high = horizon_projection(&HorizonScenario::figure5(0.4, 1.0), &model);
        assert!(high.net() > low.net());
        assert!(low.net() > 0.0, "fig 5 savings should be positive");
        assert!((high.storage_savings / low.storage_savings - 4.0).abs() < 1e-9);
    }

    #[test]
    fn more_accesses_increase_maintenance_savings_and_reconstruction() {
        let model = CostModel::default();
        let one = horizon_projection(&HorizonScenario::figure5(0.2, 1.0), &model);
        let five = horizon_projection(&HorizonScenario::figure5(0.2, 5.0), &model);
        assert!(five.maintenance_savings > one.maintenance_savings);
        assert!(five.reconstruction_cost > one.reconstruction_cost);
        assert_eq!(five.storage_savings, one.storage_savings);
        // In the paper's Fig. 5 both curves are net-positive and the
        // 5-access curve saves more overall (maintenance dominates).
        assert!(five.net() > one.net());
    }

    #[test]
    fn figure5_series_is_monotone() {
        let model = CostModel::default();
        let series = figure5_series(&[0.0, 0.1, 0.2, 0.3, 0.5], 1.0, &model);
        assert_eq!(series.len(), 5);
        assert!(series.windows(2).all(|w| w[1].1 >= w[0].1));
        assert_eq!(series[0].1, 0.0, "no contained data → no savings");
    }

    #[test]
    fn zero_scans_zero_gdpr_savings() {
        let (lake, graph) = lake_with_chain();
        let problem = OptRetProblem::from_graph(&graph, &lake, &CostModel::default()).unwrap();
        let solution = solve(&problem);
        let savings = gdpr_savings(&solution, &lake, 0.0).unwrap();
        assert_eq!(savings.row_scans_saved_per_month, 0.0);
    }
}
