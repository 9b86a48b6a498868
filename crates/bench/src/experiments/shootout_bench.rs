//! §6 baseline shootout (`BENCH_shootout.json`): precision, recall, and
//! runtime of every re-implemented discovery baseline against the
//! brute-force ground truth on the wide corpus, plus the exact-vs-approx
//! end-to-end comparison for the R2D2 pipeline itself.
//!
//! The method rows mirror §6.4's comparison set:
//!
//! * **MinHash sketch** — per-table MinHash signatures over row-tuple
//!   hashes (full scan per table), all-pairs containment estimates,
//!   thresholded. Misses projection children by construction: the child's
//!   row hashes are computed on its own schema, so they never collide with
//!   the parent's full-schema hashes.
//! * **JOSIE** — inverted index from value hash to columns, then a
//!   per-child vote: a parent wins when every child column is set-covered
//!   by the same-named parent column. Inherits the columns-as-sets
//!   failure mode (over-reports row-tuple containment).
//! * **LC-Join (rows/cols)** — the two set-based adaptations from §6.4.2.
//! * **k-means** — schema-embedding clustering; edges only within
//!   clusters.
//! * **Schema classifier** — random forest over schema-pair features,
//!   trained on the ground-truth schema graph (Table 4's protocol),
//!   predicting over every ordered pair.
//! * **R2D2 (exact / approx)** — the full pipeline with the candidate
//!   source seam set to [`r2d2_core::ExactCandidates`] or
//!   [`r2d2_core::ApproxCandidates`].
//!
//! Soundness is asserted before any timing (and in CI via `--smoke`): the
//! exact pipeline is bit-identical at 1 and 4 threads, the approx tier
//! converges to the exact final graph (its SGB stage may admit *fewer*
//! candidates — a subset — never more), every by-construction containment
//! edge survives both modes, and the approx gate actually fired
//! (`approx_probes > 0`). The headline acceptance number is
//! `approx_recall_vs_truth >= 0.95`, measured — not assumed — against the
//! brute-force ground truth.

use super::{sorted_edges, time_best, wide_corpus};
use crate::report::TextTable;
use r2d2_baselines::ground_truth::content_ground_truth;
use r2d2_baselines::josie::InvertedIndex;
use r2d2_baselines::kmeans::kmeans_schema_graph;
use r2d2_baselines::lcjoin::{columns_as_sets_graph, rows_as_sets_graph};
use r2d2_baselines::minhash::MinHashSignature;
use r2d2_baselines::schema_classifier::{build_training_set, pair_features, RandomForest};
use r2d2_core::{ApproxConfig, PipelineConfig, R2d2Pipeline, Stage};
use r2d2_graph::diff::diff;
use r2d2_graph::ContainmentGraph;
use r2d2_lake::{DataLake, Meter, SchemaSet};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Signature width for the MinHash sketch baseline.
const MINHASH_K: usize = 128;
/// Containment-estimate threshold above which the MinHash baseline reports
/// an edge. With k = 128 the Hoeffding envelope at δ = 10⁻³ is ≈ 0.17, so a
/// true containment (estimate 1.0) clears 0.7 with margin while disjoint
/// impostors (estimate ≈ 0) stay far below it.
const MINHASH_THRESHOLD: f64 = 0.7;

/// One method's row in the shootout table.
#[derive(Debug, Clone)]
pub struct MethodLine {
    /// Method name as printed in the table.
    pub method: String,
    /// Ground-truth edges the method also reports.
    pub correct: usize,
    /// Edges the method reports that are not in the ground truth.
    pub incorrect: usize,
    /// Ground-truth edges the method misses.
    pub not_detected: usize,
    /// `correct / (correct + incorrect)`.
    pub precision: f64,
    /// `correct / (correct + not_detected)`.
    pub recall: f64,
    /// Wall-clock milliseconds of one full run of the method (index or
    /// model construction included).
    pub ms: f64,
}

/// The full snapshot serialised into `BENCH_shootout.json`.
#[derive(Debug, Clone)]
pub struct ShootoutSnapshot {
    /// Corpus name.
    pub corpus_name: String,
    /// Datasets in the corpus.
    pub datasets: usize,
    /// Total rows in the corpus.
    pub rows: usize,
    /// Edges in the brute-force content ground truth.
    pub ground_truth_edges: usize,
    /// Wall-clock milliseconds of the brute-force ground truth itself.
    pub ground_truth_ms: f64,
    /// One row per method, in presentation order.
    pub methods: Vec<MethodLine>,
    /// End-to-end wall clock of the exact pipeline.
    pub exact_total: Duration,
    /// End-to-end wall clock of the approx-tier pipeline (per-edge
    /// reporting disabled so both modes time discovery alone).
    pub approx_total: Duration,
    /// Recall of the approx pipeline's final graph against the brute-force
    /// ground truth — the measured number behind the ≥ 0.95 acceptance bar.
    pub approx_recall_vs_truth: f64,
    /// Recall of the approx final graph against the exact final graph
    /// (1.0 by the bit-identity assertion; recorded as evidence).
    pub approx_recall_vs_exact: f64,
    /// Signature probes the approx SGB gate performed.
    pub approx_probes: u64,
    /// Candidate pairs the approx SGB gate pruned before any schema
    /// comparison.
    pub approx_prunes: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

/// A ratio as a JSON-safe token: `null` when it is not finite.
fn json_ratio(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.4}")
    } else {
        "null".to_string()
    }
}

/// Score a method's graph against the ground truth.
fn method_line(
    method: &str,
    graph: &ContainmentGraph,
    truth: &ContainmentGraph,
    elapsed: Duration,
) -> MethodLine {
    let d = diff(graph, truth);
    MethodLine {
        method: method.to_string(),
        correct: d.correct,
        incorrect: d.incorrect,
        not_detected: d.not_detected,
        precision: d.precision(),
        recall: d.recall(),
        ms: ms(elapsed),
    }
}

/// MinHash sketch baseline: one full-scan signature per table, all-pairs
/// containment estimates, thresholded.
fn minhash_graph(lake: &DataLake, ids: &[u64]) -> ContainmentGraph {
    let meter = Meter::new();
    let mut signatures = Vec::new();
    for entry in lake.iter() {
        let cols_owned: Vec<String> = entry
            .data
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cols: Vec<&str> = cols_owned.iter().map(String::as_str).collect();
        let hashes = entry
            .data
            .to_table(&meter)
            .expect("lake tables decode")
            .row_hashes(&cols, &meter)
            .expect("own columns always resolve");
        signatures.push((entry.id.0, MinHashSignature::build(hashes, MINHASH_K)));
    }
    let mut graph = ContainmentGraph::with_datasets(ids.iter().copied());
    for (child, cs) in &signatures {
        for (parent, ps) in &signatures {
            if parent != child && cs.containment_in(ps) >= MINHASH_THRESHOLD {
                graph.add_edge(*parent, *child);
            }
        }
    }
    graph
}

/// JOSIE baseline: build the inverted index, then for every child intersect
/// the per-column sets of fully-covering parents. This is
/// [`InvertedIndex::table_containment_vote`] amortised to one index query
/// per (child, column) instead of one per candidate pair.
fn josie_graph(lake: &DataLake, ids: &[u64]) -> ContainmentGraph {
    let meter = Meter::new();
    let index = InvertedIndex::build(lake, &meter).expect("index build scans the lake");
    let mut graph = ContainmentGraph::with_datasets(ids.iter().copied());
    for entry in lake.iter() {
        let child = entry.id.0;
        let mut parents: Option<BTreeSet<u64>> = None;
        for field in entry.data.schema().fields() {
            let ranked = index
                .top_k_overlapping(lake, child, &field.name, usize::MAX, &meter)
                .expect("query column exists");
            let covering: BTreeSet<u64> = ranked
                .iter()
                .filter(|r| r.column == field.name && r.containment >= 1.0 - 1e-12)
                .map(|r| r.dataset)
                .collect();
            parents = Some(match parents {
                None => covering,
                Some(prev) => prev.intersection(&covering).copied().collect(),
            });
            if parents.as_ref().is_some_and(BTreeSet::is_empty) {
                break;
            }
        }
        for parent in parents.unwrap_or_default() {
            if parent != child {
                graph.add_edge(parent, child);
            }
        }
    }
    graph
}

/// Schema-classifier baseline: train on the ground-truth schema graph
/// (Table 4's protocol) and predict over every ordered pair.
fn classifier_graph(
    schemas: &[(u64, SchemaSet)],
    schema_truth: &ContainmentGraph,
    ids: &[u64],
    seed: u64,
) -> ContainmentGraph {
    let training = build_training_set(schemas, schema_truth, 3, seed);
    let mut graph = ContainmentGraph::with_datasets(ids.iter().copied());
    if training.is_empty() {
        return graph;
    }
    let forest = RandomForest::train(&training, 15, 4, seed ^ 0xF0);
    for (parent, ps) in schemas {
        for (child, cs) in schemas {
            if parent == child {
                continue;
            }
            if forest.predict(&pair_features(cs, ps)) {
                graph.add_edge(*parent, *child);
            }
        }
    }
    graph
}

impl ShootoutSnapshot {
    /// `exact / approx` end-to-end speedup (> 1 means the approx tier is
    /// faster).
    pub fn speedup(&self) -> f64 {
        let approx = self.approx_total.as_secs_f64();
        if approx == 0.0 {
            f64::INFINITY
        } else {
            self.exact_total.as_secs_f64() / approx
        }
    }

    /// Render as a stable, hand-rolled JSON document.
    pub fn to_json(&self) -> String {
        let methods: Vec<String> = self
            .methods
            .iter()
            .map(|m| {
                format!(
                    "{{ \"method\": \"{}\", \"correct\": {}, \"incorrect\": {}, \"not_detected\": {}, \"precision\": {}, \"recall\": {}, \"ms\": {:.3} }}",
                    m.method,
                    m.correct,
                    m.incorrect,
                    m.not_detected,
                    json_ratio(m.precision),
                    json_ratio(m.recall),
                    m.ms
                )
            })
            .collect();
        format!(
            "{{\n  \"generated_by\": \"cargo run -p r2d2-bench --release --bin experiments -- shootout-bench\",\n  \"corpus\": {{ \"name\": \"{}\", \"datasets\": {}, \"rows\": {}, \"ground_truth_edges\": {}, \"ground_truth_ms\": {:.3} }},\n  \"methods\": [\n    {}\n  ],\n  \"end_to_end\": {{ \"exact_ms\": {:.3}, \"approx_ms\": {:.3}, \"speedup\": {}, \"approx_recall_vs_truth\": {}, \"approx_recall_vs_exact\": {} }},\n  \"approx_gate\": {{ \"probes\": {}, \"prunes\": {} }}\n}}\n",
            self.corpus_name,
            self.datasets,
            self.rows,
            self.ground_truth_edges,
            self.ground_truth_ms,
            methods.join(",\n    "),
            ms(self.exact_total),
            ms(self.approx_total),
            json_ratio(self.speedup()),
            json_ratio(self.approx_recall_vs_truth),
            json_ratio(self.approx_recall_vs_exact),
            self.approx_probes,
            self.approx_prunes,
        )
    }

    /// Render as an aligned text table for the console.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "method",
            "precision",
            "recall",
            "ms",
            "correct",
            "incorrect",
            "missed",
        ]);
        for m in &self.methods {
            t.add_row([
                m.method.clone(),
                format!("{:.4}", m.precision),
                format!("{:.4}", m.recall),
                format!("{:.3}", m.ms),
                m.correct.to_string(),
                m.incorrect.to_string(),
                m.not_detected.to_string(),
            ]);
        }
        format!(
            "{}\nground truth: {} edges in {:.3} ms (brute force)\nend-to-end: exact {:.3} ms vs approx {:.3} ms = {:.2}x at measured recall {:.4} (vs exact: {:.4})\napprox gate: {} probes, {} prunes\n",
            t.render(),
            self.ground_truth_edges,
            self.ground_truth_ms,
            ms(self.exact_total),
            ms(self.approx_total),
            self.speedup(),
            self.approx_recall_vs_truth,
            self.approx_recall_vs_exact,
            self.approx_probes,
            self.approx_prunes,
        )
    }
}

/// Run every method and assemble the snapshot.
///
/// `smoke` shrinks the corpus so integration tests and CI can exercise this
/// path in seconds; the checked-in `BENCH_shootout.json` is generated at
/// full size.
pub fn collect(smoke: bool) -> ShootoutSnapshot {
    let corpus = wide_corpus(smoke);
    let reps = if smoke { 1 } else { 3 };
    let lake = &corpus.lake;
    let ids: Vec<u64> = lake.iter().map(|e| e.id.0).collect();
    let schemas: Vec<(u64, SchemaSet)> = lake
        .iter()
        .map(|e| (e.id.0, e.data.schema().schema_set()))
        .collect();

    // Brute-force ground truth (§6.2) — both the scoring reference and a
    // cost datapoint of its own.
    let t0 = Instant::now();
    let gt = content_ground_truth(lake, &Meter::new()).expect("ground truth scans the lake");
    let ground_truth_ms = ms(t0.elapsed());
    let truth = &gt.containment_graph;

    // --- Soundness before timing (also exercised by `--smoke` in CI). ---
    let exact_cfg = PipelineConfig::default();
    // Per-edge reporting off so exact and approx both time discovery alone.
    let approx_cfg = exact_cfg
        .clone()
        .with_approx(ApproxConfig::default().with_report(0, 0.95));

    corpus.lake.meter().reset();
    let exact_report = R2d2Pipeline::new(exact_cfg.clone()).run(lake).unwrap();
    corpus.lake.meter().reset();
    let approx_report = R2d2Pipeline::new(approx_cfg.clone()).run(lake).unwrap();
    let exact_t4 = R2d2Pipeline::new(exact_cfg.clone().with_threads(4))
        .run(lake)
        .unwrap();
    let approx_t4 = R2d2Pipeline::new(approx_cfg.clone().with_threads(4))
        .run(lake)
        .unwrap();

    // 1. Exact mode is bit-identical across thread counts (approx off).
    let exact_final = sorted_edges(exact_report.final_graph());
    assert_eq!(
        exact_final,
        sorted_edges(exact_t4.final_graph()),
        "exact pipeline must be bit-identical at 1 and 4 threads"
    );
    // 2. So is the approx tier.
    let approx_final = sorted_edges(approx_report.final_graph());
    assert_eq!(
        approx_final,
        sorted_edges(approx_t4.final_graph()),
        "approx pipeline must be bit-identical at 1 and 4 threads"
    );
    // 3. The approx tier converges to the exact final graph.
    assert_eq!(
        exact_final, approx_final,
        "approx tier must converge to the exact final graph"
    );
    // 4. Approx SGB admits a subset of the exact candidates, never more.
    let exact_sgb = sorted_edges(&exact_report.after_sgb);
    for edge in sorted_edges(&approx_report.after_sgb) {
        assert!(
            exact_sgb.binary_search(&edge).is_ok(),
            "approx SGB admitted a candidate exact SGB lacks: {edge:?}"
        );
    }
    // 5. Every by-construction containment edge survives both modes.
    for (p, c) in corpus.expected.edges() {
        assert!(
            exact_report.final_graph().has_edge(p, c),
            "exact pipeline lost the true containment edge {p} -> {c}"
        );
        assert!(
            approx_report.final_graph().has_edge(p, c),
            "approx tier pruned the true containment edge {p} -> {c}"
        );
    }
    // 6. The gate actually fired.
    let approx_sgb_ops = approx_report
        .stage(Stage::Sgb)
        .expect("SGB stage present")
        .ops;
    assert!(
        approx_sgb_ops.approx_probes > 0,
        "the approx run must probe signatures"
    );

    let approx_recall_vs_truth = diff(approx_report.final_graph(), truth).recall();
    assert!(
        approx_recall_vs_truth >= 0.95,
        "measured approx recall {approx_recall_vs_truth} below the 0.95 acceptance bar"
    );
    let approx_recall_vs_exact =
        diff(approx_report.final_graph(), exact_report.final_graph()).recall();

    // --- Timing. ---
    let exact_total = time_best(reps, || {
        R2d2Pipeline::new(exact_cfg.clone()).run(lake).unwrap();
    });
    let approx_total = time_best(reps, || {
        R2d2Pipeline::new(approx_cfg.clone()).run(lake).unwrap();
    });

    // --- Method rows (single timed run each; construction included). ---
    let mut methods = Vec::new();
    let t0 = Instant::now();
    let g = minhash_graph(lake, &ids);
    methods.push(method_line("MinHash sketch", &g, truth, t0.elapsed()));
    let t0 = Instant::now();
    let g = josie_graph(lake, &ids);
    methods.push(method_line("JOSIE", &g, truth, t0.elapsed()));
    let t0 = Instant::now();
    let g = rows_as_sets_graph(lake, &Meter::new()).expect("lake tables decode");
    methods.push(method_line("LC-Join (rows)", &g, truth, t0.elapsed()));
    let t0 = Instant::now();
    let g = columns_as_sets_graph(lake, &Meter::new()).expect("lake tables decode");
    methods.push(method_line("LC-Join (cols)", &g, truth, t0.elapsed()));
    let t0 = Instant::now();
    let k = ((ids.len() as f64).sqrt().round() as usize).max(2);
    let g = kmeans_schema_graph(&schemas, k, 42);
    methods.push(method_line("k-means schema", &g, truth, t0.elapsed()));
    let t0 = Instant::now();
    let g = classifier_graph(&schemas, &gt.schema_graph, &ids, 42);
    methods.push(method_line("Schema classifier", &g, truth, t0.elapsed()));
    methods.push(method_line(
        "R2D2 (exact)",
        exact_report.final_graph(),
        truth,
        exact_total,
    ));
    methods.push(method_line(
        "R2D2 (approx)",
        approx_report.final_graph(),
        truth,
        approx_total,
    ));

    ShootoutSnapshot {
        corpus_name: corpus.name.clone(),
        datasets: corpus.dataset_count(),
        rows: corpus.lake.total_rows(),
        ground_truth_edges: truth.edge_count(),
        ground_truth_ms,
        methods,
        exact_total,
        approx_total,
        approx_recall_vs_truth,
        approx_recall_vs_exact,
        approx_probes: approx_sgb_ops.approx_probes,
        approx_prunes: approx_sgb_ops.approx_prunes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_and_upholds_the_shootout_contract() {
        let snap = collect(true);
        assert_eq!(snap.methods.len(), 8, "all eight method rows present");
        let r2d2 = snap
            .methods
            .iter()
            .find(|m| m.method == "R2D2 (exact)")
            .expect("exact row present");
        assert_eq!(
            r2d2.not_detected, 0,
            "the exact pipeline has perfect recall on the wide corpus"
        );
        let approx = snap
            .methods
            .iter()
            .find(|m| m.method == "R2D2 (approx)")
            .expect("approx row present");
        assert_eq!(
            approx.recall, r2d2.recall,
            "final graphs are bit-identical, so the scores must match"
        );
        assert!(snap.approx_recall_vs_truth >= 0.95);
        assert!((snap.approx_recall_vs_exact - 1.0).abs() < 1e-12);
        assert!(snap.approx_probes > 0);
        let json = snap.to_json();
        assert!(json.contains("\"methods\""));
        assert!(json.contains("approx_recall_vs_truth"));
        assert!(json.contains("approx_gate"));
        let rendered = snap.render();
        assert!(rendered.contains("R2D2 (approx)"));
        assert!(rendered.contains(&format!("= {:.2}x", snap.speedup())));
    }
}
