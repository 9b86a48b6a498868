//! Integration tests of the sketch-gating contract:
//!
//! * **bloom-gated runs are deterministic** — for random impostor corpora
//!   and random update streams, the pipeline and the incremental session
//!   produce bit-identical graphs, at threads 1 and 4 (that the gate only
//!   prunes an edge the exact check would have pruned on the same sample is
//!   pinned next to the gate, in `r2d2_core::clp`);
//! * **distinct gate is sound** — it only ever removes edges, and never a
//!   true containment edge (checked against the by-construction edges of a
//!   wide synthetic corpus);
//! * **sketches are durable** — `R2D2LAKE` v3 files round-trip every
//!   partition- and table-level sketch bit-for-bit (older versions fail
//!   with an explicit error), and a restored session reproduces the live
//!   session's gating decisions exactly.

use r2d2_core::{PersistenceConfig, PipelineConfig, R2d2Pipeline, R2d2Session};
use r2d2_lake::{
    storage, AccessProfile, Column, DataLake, DataType, DatasetId, LakeUpdate, Meter,
    PartitionSpec, PartitionedTable, Predicate, Schema, Table, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn table(ids: std::ops::Range<i64>) -> Table {
    let schema = Schema::flat(&[
        ("id", DataType::Int),
        ("grp", DataType::Utf8),
        ("v", DataType::Float),
    ])
    .unwrap();
    Table::new(
        schema,
        vec![
            Column::from_ints(ids.clone()),
            Column::from_strs(ids.clone().map(|i| format!("g{}", i % 3))),
            Column::from_floats(ids.map(|i| i as f64 * 0.5)),
        ],
    )
    .unwrap()
}

/// Same schema and id/string columns as [`table`], but the float column is
/// offset — an impostor that passes the schema check and (for nested id
/// ranges) min/max pruning, and must be rejected at content level, which is
/// exactly where the bloom gate fires.
fn impostor(ids: std::ops::Range<i64>) -> Table {
    let schema = table(0..1).schema().clone();
    Table::new(
        schema,
        vec![
            Column::from_ints(ids.clone()),
            Column::from_strs(ids.clone().map(|i| format!("g{}", i % 3))),
            Column::from_floats(ids.map(|i| i as f64 * 0.5 + 0.123)),
        ],
    )
    .unwrap()
}

fn part(t: Table) -> PartitionedTable {
    PartitionedTable::from_table(
        t,
        PartitionSpec::ByRowCount {
            rows_per_partition: 16,
        },
    )
    .unwrap()
}

/// A random lake mixing honest subsets and impostors over one shared schema.
fn random_lake(seed: u64) -> DataLake {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xA5A5_5A5A).wrapping_add(1));
    let mut lake = DataLake::new();
    lake.add_dataset("root", part(table(0..60)), AccessProfile::default(), None)
        .unwrap();
    let n = rng.gen_range(2usize..6);
    for k in 0..n {
        let start = rng.gen_range(0i64..40);
        let len = rng.gen_range(1i64..30);
        let t = if rng.gen_bool(0.5) {
            table(start..start + len)
        } else {
            impostor(start..start + len)
        };
        lake.add_dataset(format!("d{k}"), part(t), AccessProfile::default(), None)
            .unwrap();
    }
    lake
}

/// A random update stream that applies cleanly to any copy of the lake.
fn gen_updates(seed: u64, live: usize, count: usize) -> Vec<LakeUpdate> {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let mut updates = Vec::with_capacity(count);
    for k in 0..count {
        let id = rng.gen_range(0..live as u64);
        match rng.gen_range(0u8..4) {
            0 => {
                let start = rng.gen_range(0i64..50);
                let len = rng.gen_range(1i64..20);
                let t = if rng.gen_bool(0.5) {
                    table(start..start + len)
                } else {
                    impostor(start..start + len)
                };
                updates.push(LakeUpdate::AddDataset {
                    name: format!("u{seed}_{k}"),
                    data: part(t),
                    access: AccessProfile::default(),
                    lineage: None,
                });
            }
            1 => {
                let start = rng.gen_range(0i64..50);
                let len = rng.gen_range(0i64..15);
                updates.push(LakeUpdate::AppendRows {
                    id: DatasetId(id),
                    rows: table(start..start + len),
                });
            }
            _ => {
                let lo = rng.gen_range(0i64..50);
                let hi = lo + rng.gen_range(0i64..25);
                updates.push(LakeUpdate::DeleteRows {
                    id: DatasetId(id),
                    predicate: Predicate::between("id", Value::Int(lo), Value::Int(hi)),
                });
            }
        }
    }
    updates
}

use r2d2_bench::experiments::sorted_edges;

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig::default()
        .with_seed(13)
        .with_threads(threads)
}

proptest::proptest! {
    /// The bit-identical oracle under sketch gating: over random impostor
    /// corpora and update streams, every stage graph and every session graph
    /// is identical whether the stream is applied incrementally or the
    /// mutated lake is re-run from scratch, at threads 1 and 4. Identical
    /// `rows_sampled` pins that both thread counts draw the very same
    /// samples (same per-edge RNG streams).
    #[test]
    fn bloom_gating_is_bit_identical_everywhere(
        seed in 0u64..500_000,
        count in 1usize..5,
    ) {
        let live = random_lake(seed).len();
        let updates = gen_updates(seed, live, count);

        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let cfg = config(threads);
            // Batch pipeline over the mutated lake.
            let mut lake = random_lake(seed);
            for u in &updates {
                lake.apply_update(u).unwrap();
            }
            let report = R2d2Pipeline::new(cfg.clone()).run(&lake).unwrap();
            // Incremental session over the same stream.
            let mut session = R2d2Session::bootstrap(random_lake(seed), cfg).unwrap();
            let mut rows_sampled = 0usize;
            for u in &updates {
                rows_sampled += session.apply(u.clone()).unwrap().rows_sampled;
            }
            proptest::prop_assert_eq!(
                sorted_edges(report.final_graph()),
                sorted_edges(session.graph()),
                "incremental != batch (threads={})", threads
            );
            runs.push((
                sorted_edges(&report.after_sgb),
                sorted_edges(&report.after_mmp),
                sorted_edges(&report.after_clp),
                rows_sampled,
            ));
        }
        proptest::prop_assert_eq!(&runs[1], &runs[0], "threads changed the outcome");
    }
}

#[test]
fn bloom_gate_actually_fires_on_impostors() {
    // Sanity for the oracle above: the random corpora genuinely exercise
    // the gate (otherwise "bit-identical" would be vacuous).
    let mut lake = DataLake::new();
    lake.add_dataset("root", part(table(0..60)), AccessProfile::default(), None)
        .unwrap();
    lake.add_dataset(
        "fake",
        part(impostor(5..45)),
        AccessProfile::default(),
        None,
    )
    .unwrap();
    let report = R2d2Pipeline::new(config(1)).run(&lake).unwrap();
    let ops = lake.meter().snapshot();
    assert!(ops.sketch_probes > 0, "gate must probe");
    assert!(ops.sketch_prunes > 0, "gate must prune the impostor edge");
    assert!(!report.final_graph().has_edge(0, 1));
}

#[test]
fn distinct_gate_only_removes_edges_and_keeps_every_true_edge() {
    use r2d2_bench::experiments::wide_corpus;

    let corpus = wide_corpus(true);
    let gated = R2d2Pipeline::new(PipelineConfig::default())
        .run(&corpus.lake)
        .unwrap();
    // SGB's candidate generation is sub-quadratic on the wide corpus: fewer
    // verifications than the n·(n−1)/2 unordered pairs an all-pairs
    // generator would compare.
    let n = corpus.dataset_count() as u64;
    let sgb = gated.stage(r2d2_core::Stage::Sgb).unwrap();
    let comparisons = sgb.ops.schema_comparisons;
    assert!(
        comparisons < n * (n - 1) / 2,
        "SGB compared {comparisons} schema pairs over {n} datasets"
    );
    let ungated = R2d2Pipeline::new(PipelineConfig::default().with_mmp_distinct_gate(false))
        .run(&corpus.lake)
        .unwrap();
    let gated_edges = sorted_edges(gated.final_graph());
    let ungated_edges = sorted_edges(ungated.final_graph());
    for edge in &gated_edges {
        assert!(
            ungated_edges.binary_search(edge).is_ok(),
            "distinct gate introduced edge {edge:?}"
        );
    }
    // Recall: every by-construction containment edge survives full gating.
    for (p, c) in corpus.expected.edges() {
        assert!(
            gated.final_graph().has_edge(p, c),
            "gating pruned true edge {p} -> {c}"
        );
    }
}

#[test]
fn storage_v3_round_trips_sketches_and_rejects_older_versions() {
    let pt = part(table(0..50));
    let bytes = storage::encode(&pt);
    let back = storage::decode(&bytes, &Meter::new()).unwrap();
    // Raw storage decode recovers everything except the partition policy
    // (which the snapshot codec frames alongside — see `snapshot` below):
    // per-partition stats, table-level stats, sketches, distinct-exact flag.
    assert_eq!(back.partition_meta(), pt.partition_meta());
    assert_eq!(back.table_stats(), pt.table_stats());
    assert!(back.table_distinct_exact());

    // The snapshot framing restores the spec too: full bit-for-bit equality.
    let mut framed = bytes::BytesMut::new();
    r2d2_lake::snapshot::put_partitioned(&mut framed, &pt);
    let mut cursor = framed.freeze();
    let snap_back = r2d2_lake::snapshot::get_partitioned(&mut cursor).unwrap();
    assert_eq!(
        snap_back, pt,
        "snapshot codec must reproduce the table bit-for-bit"
    );
    assert_eq!(
        back.column_sketch("v").unwrap(),
        pt.column_sketch("v").unwrap()
    );

    // The footer-only path exposes the same table-level statistics.
    let footer = storage::read_footer(&bytes, &Meter::new()).unwrap();
    assert_eq!(footer.table_level(), pt.table_stats().clone());

    // A v2 file (same bytes, patched version field) fails with an explicit
    // version error instead of silently dropping sketches.
    let mut old = bytes.to_vec();
    old[8..12].copy_from_slice(&2u32.to_le_bytes());
    let err = storage::decode(&bytes::Bytes::from(old), &Meter::new()).unwrap_err();
    assert!(
        err.to_string().contains("unsupported R2D2LAKE version 2"),
        "unexpected error: {err}"
    );
}

#[test]
fn restored_session_reproduces_gating_decisions() {
    let dir = std::env::temp_dir().join("r2d2_integration_sketch_restore");
    std::fs::remove_dir_all(&dir).ok();

    let mut live = R2d2Session::bootstrap(random_lake(99), config(1)).unwrap();
    live.enable_persistence(PersistenceConfig::new(&dir))
        .unwrap();
    let mut restored = R2d2Session::restore(&dir).unwrap();

    // Feed both sessions an update whose verification depends on the
    // sketches (an impostor add: its edges die at the bloom gate).
    let update = LakeUpdate::AddDataset {
        name: "late_impostor".into(),
        data: part(impostor(3..40)),
        access: AccessProfile::default(),
        lineage: None,
    };
    let prunes_before = restored.ops().sketch_prunes;
    let mut live_report = live.apply(update.clone()).unwrap();
    let mut restored_report = restored.apply(update).unwrap();
    // Everything except wall clock (and the process-local page counters —
    // the restored session materializes lazy pages the live one decoded
    // eagerly) must be identical.
    live_report.duration = std::time::Duration::ZERO;
    restored_report.duration = std::time::Duration::ZERO;
    live_report.ops = live_report.ops.without_page_counters();
    restored_report.ops = restored_report.ops.without_page_counters();
    assert_eq!(
        live_report, restored_report,
        "restored sketches must reproduce the live gating decisions"
    );
    assert_eq!(sorted_edges(live.graph()), sorted_edges(restored.graph()));
    assert_eq!(
        live.ops().without_page_counters(),
        restored.ops().without_page_counters(),
        "meter totals must stay in sync"
    );
    assert!(
        restored.ops().sketch_prunes > prunes_before,
        "the verification sweep must have exercised the restored sketches"
    );

    std::fs::remove_dir_all(&dir).ok();
}
