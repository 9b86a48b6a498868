//! Table 6: CLP parameter sweep.
//!
//! The paper sweeps the number of sampled columns `s ∈ {1, 4, 8}` and the
//! number of sampled rows `t ∈ {5, 10, 30}` on its largest enterprise
//! dataset and reports the number of incorrect edges remaining after CLP.
//! More samples prune more incorrect edges with diminishing returns; the
//! paper settles on `s = 4, t = 10`.

use crate::report::TextTable;
use r2d2_baselines::ground_truth::content_ground_truth;
use r2d2_core::{PipelineConfig, R2d2Pipeline};
use r2d2_graph::diff::diff;
use r2d2_lake::Meter;
use r2d2_synth::corpus::Corpus;

/// Result of one (s, t) configuration.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Number of columns sampled (`s`).
    pub s: usize,
    /// Number of rows sampled (`t`).
    pub t: usize,
    /// Incorrect edges remaining after CLP.
    pub incorrect_remaining: usize,
    /// Correct edges remaining (must equal the ground-truth count).
    pub correct_remaining: usize,
}

/// Sweep CLP parameters on one corpus (the paper uses its 42 TB customer).
pub fn sweep(
    corpus: &Corpus,
    s_values: &[usize],
    t_values: &[usize],
    seed: u64,
) -> Vec<SweepPoint> {
    let gt = content_ground_truth(&corpus.lake, &Meter::new())
        .expect("lake is self-consistent")
        .containment_graph;
    let mut out = Vec::new();
    for &s in s_values {
        for &t in t_values {
            let config = PipelineConfig::default()
                .with_clp_params(s, t)
                .with_seed(seed);
            let report = R2d2Pipeline::new(config)
                .run(&corpus.lake)
                .expect("pipeline run");
            let d = diff(&report.after_clp, &gt);
            out.push(SweepPoint {
                s,
                t,
                incorrect_remaining: d.incorrect,
                correct_remaining: d.correct,
            });
        }
    }
    out
}

/// Render Table 6 (rows = s, columns = t).
pub fn render(points: &[SweepPoint]) -> String {
    let mut t_values: Vec<usize> = points.iter().map(|p| p.t).collect();
    t_values.sort_unstable();
    t_values.dedup();
    let mut s_values: Vec<usize> = points.iter().map(|p| p.s).collect();
    s_values.sort_unstable();
    s_values.dedup();

    let mut table = TextTable::new(
        ["s \\ t".to_string()]
            .into_iter()
            .chain(t_values.iter().map(|t| t.to_string()))
            .collect::<Vec<_>>(),
    );
    for &s in &s_values {
        let mut row = vec![s.to_string()];
        for &t in &t_values {
            let cell = points
                .iter()
                .find(|p| p.s == s && p.t == t)
                .map(|p| p.incorrect_remaining.to_string())
                .unwrap_or_else(|| "-".to_string());
            row.push(cell);
        }
        table.add_row(row);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{enterprise_corpora, Scale};

    #[test]
    fn more_samples_prune_no_fewer_incorrect_edges() {
        let corpus = &enterprise_corpora(Scale::Smoke)[0];
        let points = sweep(corpus, &[1, 4], &[2, 10], 5);
        assert_eq!(points.len(), 4);
        // Correct edges are never lost, for any parameter setting.
        let correct: Vec<usize> = points.iter().map(|p| p.correct_remaining).collect();
        assert!(correct.windows(2).all(|w| w[0] == w[1]));
        // Every configuration must strictly improve on the graph CLP starts
        // from (the post-MMP graph): CLP only removes edges, and at least
        // some incorrect edges are refutable with any parameter setting.
        // (Comparing individual (s, t) cells against each other is not a
        // stable property at smoke scale — the residual incorrect edges are
        // near-duplicates whose refutation is probabilistic — so the paper's
        // diminishing-returns observation is exercised by the harness at
        // paper scale instead.)
        let report = r2d2_core::R2d2Pipeline::with_defaults()
            .run(&corpus.lake)
            .unwrap();
        let gt = content_ground_truth(&corpus.lake, &Meter::new())
            .unwrap()
            .containment_graph;
        let after_mmp_incorrect = diff(&report.after_mmp, &gt).incorrect;
        for p in &points {
            assert!(
                p.incorrect_remaining < after_mmp_incorrect,
                "CLP with s={} t={} should prune below the {} incorrect edges left by MMP (got {})",
                p.s,
                p.t,
                after_mmp_incorrect,
                p.incorrect_remaining
            );
        }
        let rendered = render(&points);
        assert!(rendered.contains("s \\ t"));
    }
}
