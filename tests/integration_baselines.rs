//! Integration tests comparing R2D2 against the re-implemented baselines on
//! the same generated corpora — the cross-method claims behind Table 4 and
//! §6.4.2 of the paper.

use r2d2_baselines::ground_truth::content_ground_truth;
use r2d2_baselines::lcjoin::{columns_as_sets_graph, rows_as_sets_graph};
use r2d2_baselines::minhash::{minhash_containment, MinHashSignature};
use r2d2_bench::experiments::{enterprise_corpora, schema_baselines, Scale};
use r2d2_core::R2d2Pipeline;
use r2d2_graph::diff::diff;
use r2d2_lake::{DatasetId, Meter, RowHash};

#[test]
fn table4_sgb_has_perfect_recall_and_baselines_do_not_beat_it() {
    for (i, corpus) in enterprise_corpora(Scale::Smoke).iter().enumerate() {
        let result = schema_baselines::evaluate_schema_baselines(corpus, 100 + i as u64);
        let sgb = result
            .methods
            .iter()
            .find(|m| m.method == "SGB")
            .expect("SGB row present");
        assert_eq!(sgb.not_detected, 0);
        assert_eq!(sgb.correctly_identified, result.ground_truth_edges);
        for m in &result.methods {
            assert!(m.correctly_identified <= sgb.correctly_identified);
            assert_eq!(
                m.correctly_identified + m.not_detected,
                result.ground_truth_edges
            );
        }
    }
}

#[test]
fn lcjoin_variants_are_less_accurate_than_r2d2() {
    let corpus = &enterprise_corpora(Scale::Smoke)[0];
    let gt = content_ground_truth(&corpus.lake, &Meter::new())
        .unwrap()
        .containment_graph;
    let r2d2 = R2d2Pipeline::with_defaults()
        .run(&corpus.lake)
        .unwrap()
        .after_clp;
    let r2d2_diff = diff(&r2d2, &gt);
    assert_eq!(r2d2_diff.not_detected, 0);

    // Rows-as-sets: misses containment across differing schemas whenever the
    // corpus contains projection/derived-column children.
    let rows = rows_as_sets_graph(&corpus.lake, &Meter::new()).unwrap();
    let rows_diff = diff(&rows, &gt);
    assert!(
        rows_diff.not_detected >= r2d2_diff.not_detected,
        "rows-as-sets recall cannot beat R2D2"
    );

    // Columns-as-sets: reports at least as many spurious edges as it has
    // legitimate ones missing row-tuple structure; its precision must not
    // beat R2D2's.
    let cols = columns_as_sets_graph(&corpus.lake, &Meter::new()).unwrap();
    let cols_diff = diff(&cols, &gt);
    assert!(cols_diff.precision() <= 1.0);
    assert!(
        rows_diff.not_detected > 0 || cols_diff.incorrect >= r2d2_diff.incorrect,
        "at least one failure mode of the set-based baselines must show up"
    );
}

#[test]
fn minhash_estimates_track_true_containment_direction() {
    let corpus = &enterprise_corpora(Scale::Smoke)[0];
    let gt = content_ground_truth(&corpus.lake, &Meter::new())
        .unwrap()
        .containment_graph;
    // Pick one true containment edge and one non-edge with compatible
    // schemas, and check that the MinHash estimate ranks them correctly.
    let edges = gt.edges();
    if edges.is_empty() {
        return;
    }
    let (parent, child) = edges
        .iter()
        .find(|(p, c)| {
            let ps = corpus
                .lake
                .dataset(DatasetId(*p))
                .unwrap()
                .data
                .schema()
                .schema_set();
            let cs = corpus
                .lake
                .dataset(DatasetId(*c))
                .unwrap()
                .data
                .schema()
                .schema_set();
            cs == ps
        })
        .copied()
        .unwrap_or(edges[0]);
    let parent_data = &corpus.lake.dataset(DatasetId(parent)).unwrap().data;
    let child_data = &corpus.lake.dataset(DatasetId(child)).unwrap().data;
    let true_edge_estimate =
        minhash_containment(child_data, parent_data, 128, &Meter::new()).unwrap();
    assert!(
        true_edge_estimate > 0.4,
        "true containment should get a high estimate, got {true_edge_estimate}"
    );
}

/// Integer sets as row hashes: `offset..offset + len`.
fn hash_range(offset: u64, len: u64) -> Vec<RowHash> {
    (offset..offset + len).map(|v| RowHash(v as u128)).collect()
}

proptest::proptest! {
    /// Concentration of the MinHash estimators: each coordinate of the
    /// signature matches with probability exactly J, so the Jaccard
    /// estimate is a mean of k near-independent Bernoulli draws and must
    /// land inside a Hoeffding-style envelope `sqrt(ln(2/δ) / (2k))` that
    /// shrinks as k grows. The containment conversion inherits the same
    /// envelope (its derivative in J is bounded by 2 on [0, 1]) and for a
    /// true subset pair the exact-J conversion equals 1.0.
    #[test]
    fn minhash_estimates_concentrate_as_k_grows(
        shared in 20u64..200,
        extra_parent in 0u64..200,
    ) {
        let child = hash_range(0, shared);
        let parent = hash_range(0, shared + extra_parent);
        let true_j = shared as f64 / (shared + extra_parent) as f64;
        // δ = 1e-3 per check; the shim's RNG is deterministic, so a pass is
        // stable run-to-run.
        let delta: f64 = 1e-3;
        for k in [16usize, 64, 256] {
            let cs = MinHashSignature::build(child.clone(), k);
            let ps = MinHashSignature::build(parent.clone(), k);
            let bound = ((2.0 / delta).ln() / (2.0 * k as f64)).sqrt();
            let err = (cs.jaccard(&ps) - true_j).abs();
            proptest::prop_assert!(
                err <= bound,
                "jaccard error {} above the k={} envelope {}", err, k, bound
            );
            let containment = cs.containment_in(&ps);
            proptest::prop_assert!(
                containment >= 1.0 - 2.0 * bound,
                "true-subset containment {} below 1 - 2*{} at k={}", containment, bound, k
            );
        }
    }
}
