//! Figure 2 (schema-containment histograms) and Figure 4 (pipeline time vs
//! data size).

use crate::report::{fmt_duration, TextTable};
use r2d2_core::schema_stats::{schema_containment_histogram, Histogram};
use r2d2_core::{R2d2Pipeline, Stage};
use r2d2_synth::corpus::{generate, Corpus, CorpusSpec};
use std::time::Duration;

/// Figure 2 output: one histogram per corpus / org.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Corpus name.
    pub corpus: String,
    /// Histogram of pairwise schema containment fractions (10 buckets over
    /// `[0, 1]`).
    pub histogram: Histogram,
}

/// Compute the Fig. 2 histograms for a set of corpora.
pub fn figure2(corpora: &[Corpus], buckets: usize) -> Vec<Fig2Result> {
    corpora
        .iter()
        .map(|c| Fig2Result {
            corpus: c.name.clone(),
            histogram: schema_containment_histogram(&c.lake, buckets),
        })
        .collect()
}

/// Render Fig. 2 as an ASCII bar chart per corpus.
pub fn render_figure2(results: &[Fig2Result]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "{} — pairwise schema containment ({} pairs)\n",
            r.corpus, r.histogram.total
        ));
        let norm = r.histogram.normalized();
        for (i, frac) in norm.iter().enumerate() {
            let lo = i as f64 / norm.len() as f64;
            let hi = (i + 1) as f64 / norm.len() as f64;
            let bar = "#".repeat((frac * 50.0).round() as usize);
            out.push_str(&format!(
                "  [{lo:.1}-{hi:.1})  {bar} {:.1}%\n",
                frac * 100.0
            ));
        }
        out.push('\n');
    }
    out
}

/// One point of the Fig. 4 size sweep.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Rows per root table used for this point.
    pub rows_per_root: usize,
    /// Total bytes of the generated corpus.
    pub total_bytes: usize,
    /// Total pipeline wall-clock time.
    pub total_time: Duration,
    /// CLP stage time (dominates at larger scales, as in the paper).
    pub clp_time: Duration,
}

/// Sweep the corpus size (Fig. 4): run the pipeline on enterprise-like
/// corpora of increasing size and record the wall-clock time.
pub fn figure4(org_variant: usize, rows_per_root: &[usize]) -> Vec<Fig4Point> {
    rows_per_root
        .iter()
        .map(|&rows| {
            let corpus = generate(&CorpusSpec::enterprise_like(org_variant, rows)).expect("corpus");
            let report = R2d2Pipeline::with_defaults()
                .run(&corpus.lake)
                .expect("pipeline run");
            Fig4Point {
                rows_per_root: rows,
                total_bytes: corpus.lake.total_bytes(),
                total_time: report.stages.iter().map(|s| s.duration).sum(),
                clp_time: report
                    .stage(Stage::Clp)
                    .map(|s| s.duration)
                    .unwrap_or_default(),
            }
        })
        .collect()
}

/// Render Fig. 4.
pub fn render_figure4(points: &[Fig4Point]) -> String {
    let mut t = TextTable::new([
        "Rows per root",
        "Total size (MB)",
        "Pipeline time",
        "CLP time",
    ]);
    for p in points {
        t.add_row([
            p.rows_per_root.to_string(),
            format!("{:.1}", p.total_bytes as f64 / 1_048_576.0),
            fmt_duration(p.total_time),
            fmt_duration(p.clp_time),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{enterprise_corpora, Scale};

    #[test]
    fn figure2_histograms_differ_across_orgs() {
        let corpora = enterprise_corpora(Scale::Smoke);
        let results = figure2(&corpora, 10);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.histogram.total > 0);
        }
        // The point of Fig. 2: the distributions differ between orgs.
        let a = results[0].histogram.normalized();
        let b = results[1].histogram.normalized();
        let l1: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(
            l1 > 0.05,
            "orgs should have different schema profiles (L1={l1})"
        );
        assert!(render_figure2(&results).contains("pairwise schema containment"));
    }

    #[test]
    fn figure4_time_grows_with_size() {
        let points = figure4(0, &[32, 96]);
        assert_eq!(points.len(), 2);
        assert!(points[1].total_bytes > points[0].total_bytes);
        assert!(render_figure4(&points).contains("Pipeline time"));
    }
}
