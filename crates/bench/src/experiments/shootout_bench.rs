//! §6.4 baseline shootout (`BENCH_shootout.json`): precision, recall, and
//! runtime of every re-implemented discovery baseline, and of R2D2 itself,
//! against the brute-force ground truth on the wide corpus.
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
//! * **R2D2** — the full SGB → MMP → CLP pipeline at its defaults.
//!
//! Soundness is asserted before any scoring (and in CI via `--smoke`): the
//! pipeline's final graph is bit-identical at 1 and 4 threads, and every
//! by-construction containment edge survives it. Every row is one timed
//! run; before/after timing of the pipeline belongs to the `benchmark`
//! binary, not here.

use super::{sorted_edges, wide_corpus};
use crate::report::TextTable;
use r2d2_baselines::ground_truth::content_ground_truth;
use r2d2_baselines::josie::InvertedIndex;
use r2d2_baselines::kmeans::kmeans_schema_graph;
use r2d2_baselines::lcjoin::{columns_as_sets_graph, rows_as_sets_graph};
use r2d2_baselines::minhash::MinHashSignature;
use r2d2_baselines::schema_classifier::{build_training_set, pair_features, RandomForest};
use r2d2_core::{PipelineConfig, R2d2Pipeline};
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
            "{{\n  \"generated_by\": \"cargo run -p r2d2-bench --release --bin experiments -- shootout-bench\",\n  \"corpus\": {{ \"name\": \"{}\", \"datasets\": {}, \"rows\": {}, \"ground_truth_edges\": {}, \"ground_truth_ms\": {:.3} }},\n  \"methods\": [\n    {}\n  ]\n}}\n",
            self.corpus_name,
            self.datasets,
            self.rows,
            self.ground_truth_edges,
            self.ground_truth_ms,
            methods.join(",\n    "),
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
            "{}\nground truth: {} edges in {:.3} ms (brute force)\n",
            t.render(),
            self.ground_truth_edges,
            self.ground_truth_ms,
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

    // --- Soundness before scoring (also exercised by `--smoke` in CI). ---
    let t0 = Instant::now();
    let report = R2d2Pipeline::with_defaults().run(lake).unwrap();
    let r2d2_elapsed = t0.elapsed();
    let report_t4 = R2d2Pipeline::new(PipelineConfig::default().with_threads(4))
        .run(lake)
        .unwrap();
    assert_eq!(
        sorted_edges(report.final_graph()),
        sorted_edges(report_t4.final_graph()),
        "pipeline must be bit-identical at 1 and 4 threads"
    );
    for (p, c) in corpus.expected.edges() {
        assert!(
            report.final_graph().has_edge(p, c),
            "pipeline lost the true containment edge {p} -> {c}"
        );
    }

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
        "R2D2",
        report.final_graph(),
        truth,
        r2d2_elapsed,
    ));

    ShootoutSnapshot {
        corpus_name: corpus.name.clone(),
        datasets: corpus.dataset_count(),
        rows: corpus.lake.total_rows(),
        ground_truth_edges: truth.edge_count(),
        ground_truth_ms,
        methods,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_and_upholds_the_shootout_contract() {
        let snap = collect(true);
        assert_eq!(snap.methods.len(), 7, "all seven method rows present");
        let r2d2 = snap
            .methods
            .iter()
            .find(|m| m.method == "R2D2")
            .expect("R2D2 row present");
        assert_eq!(
            r2d2.not_detected, 0,
            "the pipeline has perfect recall on the wide corpus"
        );
        let json = snap.to_json();
        assert!(json.contains("\"methods\""));
        assert!(json.contains("\"method\": \"R2D2\""));
        let rendered = snap.render();
        assert!(rendered.contains("R2D2"));
        assert!(rendered.contains("ground truth:"));
    }
}
