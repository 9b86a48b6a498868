//! Table 4: schema-containment baselines (Bharadwaj-style classifier, KMeans
//! clustering) versus SGB.
//!
//! For each corpus the ground-truth schema containment graph is computed and
//! each method reports how many of its edges it correctly identifies and how
//! many it misses. SGB is deterministic and provably misses nothing
//! (Theorem 4.1); the learned/embedding baselines trade recall away, which
//! is the point Table 4 makes.

use crate::report::TextTable;
use r2d2_baselines::kmeans::kmeans_schema_graph;
use r2d2_baselines::schema_classifier::evaluate_classifier;
use r2d2_core::sgb::{brute_force_schema_graph, build_schema_graph};
use r2d2_graph::diff::diff;
use r2d2_lake::{Meter, SchemaSet};
use r2d2_synth::corpus::Corpus;

/// Table 4 counts for one method on one corpus.
#[derive(Debug, Clone)]
pub struct MethodScore {
    /// Method name.
    pub method: String,
    /// Ground-truth schema edges the method detects.
    pub correctly_identified: usize,
    /// Ground-truth schema edges the method misses.
    pub not_detected: usize,
}

/// Table 4 result for one corpus.
#[derive(Debug, Clone)]
pub struct SchemaBaselineResult {
    /// Corpus name.
    pub corpus: String,
    /// Total edges in the ground-truth schema graph.
    pub ground_truth_edges: usize,
    /// One score per method (\[3\]-style classifier, KMeans, SGB).
    pub methods: Vec<MethodScore>,
}

/// Run the Table 4 comparison on one corpus.
pub fn evaluate_schema_baselines(corpus: &Corpus, seed: u64) -> SchemaBaselineResult {
    let schemas: Vec<(u64, SchemaSet)> = corpus
        .lake
        .iter()
        .map(|e| (e.id.0, e.data.schema().schema_set()))
        .collect();
    let truth = brute_force_schema_graph(&schemas, &Meter::new());

    // Bharadwaj et al. [3]-style classifier.
    let classifier = evaluate_classifier(&schemas, &truth, seed);

    // KMeans clustering with k ≈ sqrt(N) clusters (a common default).
    let k = (schemas.len() as f64).sqrt().ceil() as usize;
    let kmeans_graph = kmeans_schema_graph(&schemas, k.max(2), seed);
    let kmeans_diff = diff(&kmeans_graph, &truth);

    // SGB.
    let sgb = build_schema_graph(&schemas, &Meter::new());
    let sgb_diff = diff(&sgb.graph, &truth);

    SchemaBaselineResult {
        corpus: corpus.name.clone(),
        ground_truth_edges: truth.edge_count(),
        methods: vec![
            MethodScore {
                method: "[3] classifier".to_string(),
                correctly_identified: classifier.correctly_identified,
                not_detected: classifier.not_detected,
            },
            MethodScore {
                method: "KMeans".to_string(),
                correctly_identified: kmeans_diff.correct,
                not_detected: kmeans_diff.not_detected,
            },
            MethodScore {
                method: "SGB".to_string(),
                correctly_identified: sgb_diff.correct,
                not_detected: sgb_diff.not_detected,
            },
        ],
    }
}

/// Render Table 4.
pub fn render(results: &[SchemaBaselineResult]) -> String {
    let mut t = TextTable::new([
        "Corpus",
        "Method",
        "Correctly Identified",
        "Not Detected",
        "GT edges",
    ]);
    for r in results {
        for (i, m) in r.methods.iter().enumerate() {
            t.add_row([
                if i == 0 {
                    r.corpus.clone()
                } else {
                    String::new()
                },
                m.method.clone(),
                m.correctly_identified.to_string(),
                m.not_detected.to_string(),
                if i == 0 {
                    r.ground_truth_edges.to_string()
                } else {
                    String::new()
                },
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{enterprise_corpora, Scale};

    #[test]
    fn sgb_dominates_baselines_on_recall() {
        let corpus = &enterprise_corpora(Scale::Smoke)[0];
        let result = evaluate_schema_baselines(corpus, 42);
        let by_name = |n: &str| {
            result
                .methods
                .iter()
                .find(|m| m.method.contains(n))
                .unwrap()
                .clone()
        };
        let sgb = by_name("SGB");
        let kmeans = by_name("KMeans");
        let classifier = by_name("classifier");

        assert_eq!(sgb.not_detected, 0, "Theorem 4.1");
        assert_eq!(sgb.correctly_identified, result.ground_truth_edges);
        assert!(kmeans.correctly_identified <= sgb.correctly_identified);
        assert!(classifier.correctly_identified <= sgb.correctly_identified);
        // Consistency: identified + missed = ground truth for each method.
        for m in &result.methods {
            assert_eq!(
                m.correctly_identified + m.not_detected,
                result.ground_truth_edges,
                "method {} counts are inconsistent",
                m.method
            );
        }
        assert!(render(&[result]).contains("SGB"));
    }
}
