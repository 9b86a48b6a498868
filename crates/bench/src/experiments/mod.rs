//! Experiment implementations, one module per group of paper artifacts.

pub mod clp_params;
pub mod containment;
pub mod figures;
pub mod fuzz_sweep;
pub mod optimization;
pub mod schema_baselines;
pub mod shootout_bench;

use r2d2_synth::corpus::{generate, Corpus, CorpusSpec};

/// A graph's edges in canonical (sorted) order, for cross-run comparison.
pub fn sorted_edges(graph: &r2d2_graph::ContainmentGraph) -> Vec<(u64, u64)> {
    let mut edges = graph.edges();
    edges.sort_unstable();
    edges
}

/// How large the generated corpora should be.
///
/// The paper's corpora range from hundreds of MBs to tens of TBs; this
/// reproduction is laptop-scale, so the harness offers two sizes: `Smoke`
/// (fast, used by integration tests) and `Paper` (larger, used by the
/// `experiments` binary). The *structure* (relative
/// dataset counts, containment density, schema profiles) is the same at both
/// scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small corpora for CI / integration tests (seconds).
    Smoke,
    /// Larger corpora for the experiment binary (minutes).
    Paper,
}

impl Scale {
    /// Rows per root table for the enterprise-like corpora.
    pub fn enterprise_rows(self) -> usize {
        match self {
            Scale::Smoke => 96,
            Scale::Paper => 600,
        }
    }

    /// (roots, rows per root) for the Table-Union-like corpus.
    pub fn table_union_shape(self) -> (usize, usize) {
        match self {
            Scale::Smoke => (8, 48),
            Scale::Paper => (42, 150),
        }
    }

    /// (roots, rows per root) for the Kaggle-like corpus.
    pub fn kaggle_shape(self) -> (usize, usize) {
        match self {
            Scale::Smoke => (4, 60),
            Scale::Paper => (16, 250),
        }
    }
}

/// The three enterprise-like corpora ("Customer 1/2/3").
pub fn enterprise_corpora(scale: Scale) -> Vec<Corpus> {
    (0..3)
        .map(|variant| {
            generate(&CorpusSpec::enterprise_like(
                variant,
                scale.enterprise_rows(),
            ))
            .expect("corpus generation cannot fail for valid specs")
        })
        .collect()
}

/// The wide corpus ([`CorpusSpec::wide`]): hundreds of datasets, most of
/// them impostors — same schema as their source, float values resampled
/// strictly inside the source's ranges — so schema and min-max pruning admit
/// them and only content-level evidence rejects them.
pub fn wide_corpus(smoke: bool) -> Corpus {
    let spec = if smoke {
        CorpusSpec::wide(20, 64)
    } else {
        CorpusSpec::wide(96, 1024)
    };
    generate(&spec).expect("corpus generation cannot fail for valid specs")
}

/// The two open-data-style corpora ("Table Union" and "Kaggle").
pub fn synthetic_corpora(scale: Scale) -> Vec<Corpus> {
    let (tu_roots, tu_rows) = scale.table_union_shape();
    let (kg_roots, kg_rows) = scale.kaggle_shape();
    vec![
        generate(&CorpusSpec::table_union_like(tu_roots, tu_rows))
            .expect("corpus generation cannot fail for valid specs"),
        generate(&CorpusSpec::kaggle_like(kg_roots, kg_rows))
            .expect("corpus generation cannot fail for valid specs"),
    ]
}
