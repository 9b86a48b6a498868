//! Tables 1, 2, 3 and 5: containment-graph quality, operation counts and
//! per-stage timings.
//!
//! For every corpus the harness (i) computes the brute-force ground truth
//! (§6.2), (ii) runs the R2D2 pipeline, (iii) compares the graph after each
//! stage against the ground truth (Tables 1 and 2), (iv) reports the
//! pairwise row-level operation counts of each stage against the brute-force
//! estimates (Table 3) and (v) reports wall-clock time per stage against the
//! measured ground-truth time (Table 5).

use crate::report::{fmt_count, fmt_duration, TextTable};
use r2d2_baselines::ground_truth::{
    content_ground_truth, content_ground_truth_op_estimate, schema_ground_truth_op_estimate,
};
use r2d2_core::{PipelineConfig, R2d2Pipeline, Stage};
use r2d2_graph::diff::{diff, GraphDiff};
use r2d2_lake::Meter;
use r2d2_synth::corpus::Corpus;
use std::time::{Duration, Instant};

/// Quality + cost measurements for one corpus.
#[derive(Debug, Clone)]
pub struct CorpusEvaluation {
    /// Corpus name.
    pub corpus: String,
    /// Number of datasets.
    pub datasets: usize,
    /// Total bytes of table data.
    pub total_bytes: usize,
    /// Stage-by-stage comparison with the content ground truth, in pipeline
    /// order (SGB, MMP, CLP).
    pub stage_diffs: Vec<(Stage, GraphDiff)>,
    /// Stage wall-clock durations (SGB, MMP, CLP).
    pub stage_durations: Vec<(Stage, Duration)>,
    /// Stage row-level operation counts (SGB, MMP, CLP).
    pub stage_ops: Vec<(Stage, u128)>,
    /// Schema comparisons done by SGB.
    pub sgb_schema_comparisons: u128,
    /// Brute-force schema ground-truth comparison count (N·(N−1)/2).
    pub ground_truth_schema_ops: u128,
    /// Brute-force content ground-truth row-operation estimate (Σ Mi·Mj).
    pub ground_truth_content_ops: u128,
    /// Measured wall-clock time of the brute-force ground-truth computation.
    pub ground_truth_duration: Duration,
    /// Edges in the schema graph after SGB (E₁ of Table 3).
    pub sgb_edges: usize,
    /// Edges remaining after MMP (E₂ of Table 3).
    pub mmp_edges: usize,
    /// Edges remaining after CLP (the final containment graph).
    pub clp_edges: usize,
}

/// Evaluate the pipeline on one corpus against its brute-force ground truth.
pub fn evaluate_corpus(corpus: &Corpus, config: &PipelineConfig) -> CorpusEvaluation {
    // Ground truth (measured for Table 5's comparison row).
    let gt_meter = Meter::new();
    let gt_start = Instant::now();
    let gt = content_ground_truth(&corpus.lake, &gt_meter).expect("lake is self-consistent");
    let ground_truth_duration = gt_start.elapsed();

    // Pipeline.
    let pipeline = R2d2Pipeline::new(config.clone());
    let report = pipeline.run(&corpus.lake).expect("pipeline run");

    let stage_diffs = vec![
        (Stage::Sgb, diff(&report.after_sgb, &gt.containment_graph)),
        (Stage::Mmp, diff(&report.after_mmp, &gt.containment_graph)),
        (Stage::Clp, diff(&report.after_clp, &gt.containment_graph)),
    ];
    let stage_durations = report
        .stages
        .iter()
        .map(|s| (s.stage, s.duration))
        .collect();
    let stage_ops = report
        .stages
        .iter()
        .map(|s| (s.stage, s.ops.row_level_ops() as u128))
        .collect();
    let sgb_schema_comparisons = report
        .stages
        .first()
        .map(|s| s.ops.schema_comparisons as u128)
        .unwrap_or(0);

    CorpusEvaluation {
        corpus: corpus.name.clone(),
        datasets: corpus.lake.len(),
        total_bytes: corpus.lake.total_bytes(),
        stage_diffs,
        stage_durations,
        stage_ops,
        sgb_schema_comparisons,
        ground_truth_schema_ops: schema_ground_truth_op_estimate(&corpus.lake),
        ground_truth_content_ops: content_ground_truth_op_estimate(&corpus.lake, &gt.schema_graph)
            .expect("lake is self-consistent"),
        ground_truth_duration,
        sgb_edges: report.after_sgb.edge_count(),
        mmp_edges: report.after_mmp.edge_count(),
        clp_edges: report.after_clp.edge_count(),
    }
}

/// The paper's stage invariants on one evaluation: no stage loses a true
/// containment edge (recall stays 1), and each stage keeps no more incorrect
/// edges than the one before it. Returns the first violation.
pub fn check_stage_invariants(eval: &CorpusEvaluation) -> Result<(), String> {
    for (stage, d) in &eval.stage_diffs {
        if d.not_detected != 0 {
            return Err(format!(
                "{}: stage {stage} lost {} correct edges",
                eval.corpus, d.not_detected
            ));
        }
    }
    for pair in eval.stage_diffs.windows(2) {
        let ((before, b), (after, a)) = (&pair[0], &pair[1]);
        if a.incorrect > b.incorrect {
            return Err(format!(
                "{}: {after} kept {} incorrect edges, more than {before}'s {}",
                eval.corpus, a.incorrect, b.incorrect
            ));
        }
    }
    Ok(())
}

/// Render Table 1 / Table 2 (edge quality after each stage) for a set of
/// corpus evaluations.
pub fn render_edge_quality(evals: &[CorpusEvaluation]) -> String {
    let mut t = TextTable::new([
        "Corpus",
        "Datasets",
        "Size (MB)",
        "Edge class",
        "after SGB",
        "after MMP",
        "after CLP",
    ]);
    for e in evals {
        let get = |stage: usize| e.stage_diffs[stage].1;
        t.add_row([
            e.corpus.clone(),
            e.datasets.to_string(),
            format!("{:.1}", e.total_bytes as f64 / 1_048_576.0),
            "Correct".to_string(),
            get(0).correct.to_string(),
            get(1).correct.to_string(),
            get(2).correct.to_string(),
        ]);
        t.add_row([
            String::new(),
            String::new(),
            String::new(),
            "Incorrect (<1)".to_string(),
            get(0).incorrect.to_string(),
            get(1).incorrect.to_string(),
            get(2).incorrect.to_string(),
        ]);
        t.add_row([
            String::new(),
            String::new(),
            String::new(),
            "Not detected".to_string(),
            get(0).not_detected.to_string(),
            get(1).not_detected.to_string(),
            get(2).not_detected.to_string(),
        ]);
    }
    t.render()
}

/// Render Table 3 (pairwise operation counts).
pub fn render_op_counts(evals: &[CorpusEvaluation]) -> String {
    let t = TextTable::new(
        ["Method", "Quantity"]
            .into_iter()
            .map(String::from)
            .chain(evals.iter().map(|e| e.corpus.clone()))
            .collect::<Vec<_>>(),
    );
    let row = |label: &str, quantity: &str, f: &dyn Fn(&CorpusEvaluation) -> u128| {
        let mut cells = vec![label.to_string(), quantity.to_string()];
        cells.extend(evals.iter().map(|e| fmt_count(f(e))));
        cells
    };
    let mut table = t;
    table.add_row(row("Ground Truth Schema", "pair comparisons", &|e| {
        e.ground_truth_schema_ops
    }));
    table.add_row(row("SGB", "pair comparisons", &|e| {
        e.sgb_schema_comparisons
    }));
    table.add_row(row("Ground Truth Content", "row operations", &|e| {
        e.ground_truth_content_ops
    }));
    table.add_row(row("MMP", "edges examined (E1)", &|e| e.sgb_edges as u128));
    table.add_row(row("CLP", "row operations", &|e| {
        e.stage_ops
            .iter()
            .find(|(s, _)| *s == Stage::Clp)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }));
    table.render()
}

/// Render Table 5 (wall-clock time per stage vs ground truth).
pub fn render_timings(evals: &[CorpusEvaluation]) -> String {
    let mut t = TextTable::new(
        ["Method"]
            .into_iter()
            .map(String::from)
            .chain(evals.iter().map(|e| e.corpus.clone()))
            .collect::<Vec<_>>(),
    );
    let mut row = |label: &str, f: &dyn Fn(&CorpusEvaluation) -> Duration| {
        let mut cells = vec![label.to_string()];
        cells.extend(evals.iter().map(|e| fmt_duration(f(e))));
        t.add_row(cells);
    };
    row("Ground Truth", &|e| e.ground_truth_duration);
    row("SGB", &|e| e.stage_durations[0].1);
    row("MMP", &|e| e.stage_durations[1].1);
    row("CLP", &|e| e.stage_durations[2].1);
    row("Ours (total)", &|e| {
        e.stage_durations.iter().map(|(_, d)| *d).sum()
    });
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{enterprise_corpora, Scale};

    #[test]
    fn evaluation_has_full_recall_and_improving_precision() {
        let corpus = &enterprise_corpora(Scale::Smoke)[0];
        let eval = evaluate_corpus(corpus, &PipelineConfig::default());
        // Paper's headline property: no correct edge is ever lost, and
        // incorrect edges are non-increasing across stages.
        check_stage_invariants(&eval).unwrap();
        assert_eq!(eval.stage_diffs.len(), 3);
        // Op counts: SGB uses fewer comparisons than... at minimum the
        // content brute force dwarfs the pipeline's row ops.
        let clp_ops = eval.stage_ops.last().unwrap().1;
        assert!(eval.ground_truth_content_ops > clp_ops);
        // Rendering shouldn't panic and should mention the corpus name.
        let txt = render_edge_quality(std::slice::from_ref(&eval));
        assert!(txt.contains(&eval.corpus));
        assert!(render_op_counts(std::slice::from_ref(&eval)).contains("Ground Truth Content"));
        assert!(render_timings(&[eval]).contains("Ours (total)"));
    }
}
