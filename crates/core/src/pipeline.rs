//! Pipeline orchestration: SGB → MMP → CLP over a data lake.
//!
//! [`R2d2Pipeline`] runs the three stages in sequence, snapshotting wall
//! clock time, meter counters and edge counts around each stage. The
//! resulting [`PipelineReport`] is the raw material behind the paper's
//! Tables 1–3 and 5–6 and Figure 4.

use crate::clp::content_level_prune;
use crate::config::PipelineConfig;
use crate::mmp::{min_max_survivors, MmpOptions};
use crate::sgb::{build_schema_graph_threaded, SgbResult};
use r2d2_graph::ContainmentGraph;
use r2d2_lake::{DataLake, Meter, OpCounts, Result, SchemaSet};
use std::time::{Duration, Instant};

/// The three pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Schema Graph Builder (Algorithm 1).
    Sgb,
    /// Min-Max Pruning (Algorithm 2).
    Mmp,
    /// Content-Level Pruning (Algorithm 3).
    Clp,
}

impl Stage {
    /// All stages, in execution order.
    pub const ALL: [Stage; 3] = [Stage::Sgb, Stage::Mmp, Stage::Clp];

    /// The paper's name for the stage ("SGB" / "MMP" / "CLP").
    pub fn name(self) -> &'static str {
        match self {
            Stage::Sgb => "SGB",
            Stage::Mmp => "MMP",
            Stage::Clp => "CLP",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-stage measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Which stage was measured.
    pub stage: Stage,
    /// Wall-clock duration of the stage.
    pub duration: Duration,
    /// Operation counts attributable to the stage.
    pub ops: OpCounts,
    /// Number of edges in the graph after the stage.
    pub edges_after: usize,
}

/// Full pipeline output: the final containment graph plus per-stage reports
/// and intermediate graphs (so experiments can evaluate each stage against
/// ground truth, as Tables 1 and 2 do).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Graph after SGB (schema containment only).
    pub after_sgb: ContainmentGraph,
    /// Graph after Min-Max Pruning.
    pub after_mmp: ContainmentGraph,
    /// Graph after Content-Level Pruning (the final containment graph).
    pub after_clp: ContainmentGraph,
    /// Per-stage measurements, in execution order.
    pub stages: Vec<StageReport>,
    /// Number of schema clusters SGB produced.
    pub sgb_clusters: usize,
    /// Total wall-clock duration.
    pub total_duration: Duration,
}

impl PipelineReport {
    /// The final containment graph.
    pub fn final_graph(&self) -> &ContainmentGraph {
        &self.after_clp
    }

    /// Stage report for `stage`, if present.
    pub fn stage(&self, stage: Stage) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.stage == stage)
    }
}

/// The R2D2 pipeline runner.
#[derive(Debug, Clone, Default)]
pub struct R2d2Pipeline {
    config: PipelineConfig,
}

impl R2d2Pipeline {
    /// Create a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        R2d2Pipeline { config }
    }

    /// Create a pipeline with the paper's default parameters.
    pub fn with_defaults() -> Self {
        Self::new(PipelineConfig::default())
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Collect `(dataset id, schema set)` pairs from the lake.
    pub fn schema_sets(lake: &DataLake) -> Vec<(u64, SchemaSet)> {
        lake.iter()
            .map(|e| (e.id.0, e.data.schema().schema_set()))
            .collect()
    }

    /// Run only the SGB stage (on `config.threads` workers).
    pub fn run_sgb(&self, lake: &DataLake, meter: &Meter) -> SgbResult {
        let schemas = Self::schema_sets(lake);
        build_schema_graph_threaded(&schemas, self.config.threads, meter)
    }

    /// Run the full SGB → MMP → CLP pipeline over the lake.
    pub fn run(&self, lake: &DataLake) -> Result<PipelineReport> {
        let meter = lake.meter().clone();
        let start_all = Instant::now();
        let mut stages = Vec::with_capacity(3);

        // Stage 1: SGB.
        let before = meter.snapshot();
        let t0 = Instant::now();
        let sgb = self.run_sgb(lake, &meter);
        let sgb_clusters = sgb.cluster_count();
        let after_sgb = sgb.graph;
        stages.push(StageReport {
            stage: Stage::Sgb,
            duration: t0.elapsed(),
            ops: meter.snapshot().since(&before),
            edges_after: after_sgb.edge_count(),
        });

        // Stage 2: MMP.
        let before = meter.snapshot();
        let t0 = Instant::now();
        let (after_mmp, _) = min_max_survivors(
            lake,
            &after_sgb,
            MmpOptions::from_config(&self.config),
            self.config.threads,
            &meter,
        )?;
        stages.push(StageReport {
            stage: Stage::Mmp,
            duration: t0.elapsed(),
            ops: meter.snapshot().since(&before),
            edges_after: after_mmp.edge_count(),
        });

        // Stage 3: CLP.
        let mut graph = after_mmp.clone();
        let before = meter.snapshot();
        let t0 = Instant::now();
        content_level_prune(lake, &mut graph, &self.config, &meter)?;
        stages.push(StageReport {
            stage: Stage::Clp,
            duration: t0.elapsed(),
            ops: meter.snapshot().since(&before),
            edges_after: graph.edge_count(),
        });

        Ok(PipelineReport {
            after_sgb,
            after_mmp,
            after_clp: graph,
            stages,
            sgb_clusters,
            total_duration: start_all.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{
        AccessProfile, Column, DataType, PartitionSpec, PartitionedTable, Schema, Table,
    };

    /// A small lake with known containment structure:
    ///   base (60 rows) ⊇ subset (20 rows, same schema)
    ///   base ⊇ projected (30 rows, subset of columns)
    ///   unrelated (same schema as base but disjoint id range)
    fn small_lake() -> (DataLake, u64, u64, u64, u64) {
        let schema = Schema::flat(&[
            ("id", DataType::Int),
            ("kind", DataType::Utf8),
            ("score", DataType::Float),
        ])
        .unwrap();
        let base = Table::new(
            schema.clone(),
            vec![
                Column::from_ints(0..60),
                Column::from_strs((0..60).map(|i| format!("k{}", i % 3))),
                Column::from_floats((0..60).map(|i| i as f64)),
            ],
        )
        .unwrap();
        let subset = base.take(&(5..25).collect::<Vec<_>>()).unwrap();
        let projected = base
            .project(&["id", "kind"])
            .unwrap()
            .take(&(0..30).collect::<Vec<_>>())
            .unwrap();
        let unrelated = Table::new(
            schema,
            vec![
                Column::from_ints(1000..1060),
                Column::from_strs((0..60).map(|i| format!("k{}", i % 3))),
                Column::from_floats((0..60).map(|i| i as f64)),
            ],
        )
        .unwrap();

        let mut lake = DataLake::new();
        let part = |t: Table| {
            PartitionedTable::from_table(
                t,
                PartitionSpec::ByRowCount {
                    rows_per_partition: 16,
                },
            )
            .unwrap()
        };
        let b = lake
            .add_dataset("base", part(base), AccessProfile::default(), None)
            .unwrap()
            .0;
        let s = lake
            .add_dataset("subset", part(subset), AccessProfile::default(), None)
            .unwrap()
            .0;
        let p = lake
            .add_dataset("projected", part(projected), AccessProfile::default(), None)
            .unwrap()
            .0;
        let u = lake
            .add_dataset("unrelated", part(unrelated), AccessProfile::default(), None)
            .unwrap()
            .0;
        (lake, b, s, p, u)
    }

    #[test]
    fn full_pipeline_finds_true_edges_and_prunes_false_ones() {
        let (lake, base, subset, projected, unrelated) = small_lake();
        let report = R2d2Pipeline::with_defaults().run(&lake).unwrap();

        // True containment edges must survive every stage.
        for g in [&report.after_sgb, &report.after_mmp, &report.after_clp] {
            assert!(g.has_edge(base, subset));
            assert!(g.has_edge(base, projected));
        }
        // SGB adds the schema-compatible but content-disjoint edge...
        assert!(
            report.after_sgb.has_edge(base, unrelated)
                || report.after_sgb.has_edge(unrelated, base)
        );
        // ...which must be gone after MMP (disjoint id ranges) or CLP.
        assert!(!report.after_clp.has_edge(base, unrelated));
        assert!(!report.after_clp.has_edge(unrelated, base));

        // Stage reports are ordered and monotone in edge count.
        assert_eq!(report.stages.len(), 3);
        let order: Vec<Stage> = report.stages.iter().map(|s| s.stage).collect();
        assert_eq!(order, Stage::ALL);
        assert!(
            report.stage(Stage::Sgb).unwrap().edges_after
                >= report.stage(Stage::Mmp).unwrap().edges_after
        );
        assert!(
            report.stage(Stage::Mmp).unwrap().edges_after
                >= report.stage(Stage::Clp).unwrap().edges_after
        );
        assert!(report.sgb_clusters >= 1);
        assert!(report.total_duration >= report.stages[0].duration);
    }

    #[test]
    fn mmp_stage_uses_no_row_scans() {
        let (lake, ..) = small_lake();
        let report = R2d2Pipeline::with_defaults().run(&lake).unwrap();
        let mmp = report.stage(Stage::Mmp).unwrap();
        assert_eq!(mmp.ops.rows_scanned, 0);
        assert!(mmp.ops.metadata_lookups > 0);
    }

    #[test]
    fn final_graph_accessor() {
        let (lake, ..) = small_lake();
        let report = R2d2Pipeline::with_defaults().run(&lake).unwrap();
        assert_eq!(
            report.final_graph().edge_count(),
            report.after_clp.edge_count()
        );
    }

    #[test]
    fn empty_lake_runs() {
        let lake = DataLake::new();
        let report = R2d2Pipeline::with_defaults().run(&lake).unwrap();
        assert_eq!(report.after_clp.node_count(), 0);
        assert_eq!(report.after_clp.edge_count(), 0);
    }

    #[test]
    fn stage_names_match_the_paper() {
        assert_eq!(Stage::Sgb.to_string(), "SGB");
        assert_eq!(Stage::Mmp.to_string(), "MMP");
        assert_eq!(Stage::Clp.to_string(), "CLP");
        assert_eq!(Stage::ALL.len(), 3);
    }

    #[test]
    fn schema_sets_extraction() {
        let (lake, ..) = small_lake();
        let sets = R2d2Pipeline::schema_sets(&lake);
        assert_eq!(sets.len(), 4);
        assert!(sets.iter().any(|(_, s)| s.len() == 2));
        assert!(sets.iter().any(|(_, s)| s.len() == 3));
    }
}
