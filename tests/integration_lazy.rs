//! Lazy-vs-eager oracle: a lake whose tables came back from `R2D2LAKE` v4
//! bytes (footer-backed lazy columns, pages decoded on first touch) must be
//! observationally identical to the same lake held eagerly in memory —
//! every query result, every containment graph, every logical meter total,
//! at threads 1 and 4, live or restored after a kill. Only the process-local
//! page counters (`pages_decoded` / `pages_skipped`) may differ; they are
//! laziness telemetry, not logical work.

use r2d2_bench::experiments::sorted_edges;
use r2d2_core::mmp::{min_max_prune_threaded, MmpOptions, MmpStats};
use r2d2_core::{PersistenceConfig, PipelineConfig, R2d2Pipeline, R2d2Session};
use r2d2_graph::ContainmentGraph;
use r2d2_lake::query::{random_rows, scan};
use r2d2_lake::{
    AccessProfile, Column, DataLake, DataType, LakeUpdate, Meter, PartitionSpec, PartitionedTable,
    Predicate, Schema, Table, Value,
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

fn part(t: Table) -> PartitionedTable {
    PartitionedTable::from_table(
        t,
        PartitionSpec::ByRowCount {
            rows_per_partition: 16,
        },
    )
    .unwrap()
}

fn random_lake(seed: u64) -> DataLake {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xC3C3_3C3C).wrapping_add(3));
    let mut lake = DataLake::new();
    lake.add_dataset("root", part(table(0..60)), AccessProfile::default(), None)
        .unwrap();
    let n = rng.gen_range(2usize..5);
    for k in 0..n {
        let start = rng.gen_range(0i64..40);
        let len = rng.gen_range(1i64..30);
        lake.add_dataset(
            format!("d{k}"),
            part(table(start..start + len)),
            AccessProfile::default(),
            None,
        )
        .unwrap();
    }
    lake
}

/// Round-trip every dataset through the snapshot codec (v4 bytes plus the
/// partition policy frame) so the copy's columns are footer-backed lazy
/// pages while mutations re-partition exactly like the original. Decode
/// charges a scratch meter, so the copy's lake meter starts as clean as the
/// original's.
fn lazy_copy(lake: &DataLake) -> DataLake {
    let mut out = DataLake::new();
    for entry in lake.iter() {
        let mut buf = bytes::BytesMut::new();
        r2d2_lake::snapshot::put_partitioned(&mut buf, &entry.data);
        let mut cursor = buf.freeze();
        let decoded = r2d2_lake::snapshot::get_partitioned(&mut cursor).unwrap();
        assert!(
            !decoded.partitions().is_empty()
                && !decoded.partitions()[0].columns()[0].is_materialized(),
            "test premise: the copy must hold lazy columns"
        );
        out.add_dataset(entry.name.clone(), decoded, AccessProfile::default(), None)
            .unwrap();
    }
    out
}

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig::default()
        .with_seed(29)
        .with_threads(threads)
}

/// A lake whose MMP verdicts depend on every part of the column view:
/// nested and escaping ranges, distinct counts, a column that is all-null in
/// one table, an empty table, and a table reassembled from its partitions (so its distinct
/// bounds are per-partition figures rather than exact counts).
fn mmp_lake() -> DataLake {
    let mut lake = random_lake(11);
    let nulls = Table::new(
        table(0..1).schema().clone(),
        vec![
            Column::from_ints(5..9),
            Column::new(DataType::Utf8, vec![Value::Null; 4]).unwrap(),
            Column::from_floats([1.0, 2.0, 2.5, 3.0]),
        ],
    )
    .unwrap();
    let reassembled =
        PartitionedTable::from_partition_tables(part(table(10..50)).partitions().to_vec()).unwrap();
    for (name, data) in [
        ("nulls", part(nulls)),
        ("empty", part(table(0..0))),
        ("reassembled", reassembled),
        ("wide", part(table(-5..90))),
        // Spans [0, 40] with three distinct ids: children inside that range
        // pass min/max and fall to the distinct-count gate.
        ("sparse", part(table(0..41).take(&[0, 2, 40]).unwrap())),
    ] {
        lake.add_dataset(name, data, AccessProfile::default(), None)
            .unwrap();
    }
    lake
}

/// MMP over every ordered pair of datasets: its surviving graph, its stats
/// and the metadata counters it charged.
fn mmp_all_pairs(
    lake: &DataLake,
    options: MmpOptions,
    threads: usize,
) -> (ContainmentGraph, MmpStats, u64, u64) {
    let ids: Vec<u64> = lake.iter().map(|e| e.id.0).collect();
    let mut graph = ContainmentGraph::new();
    for &p in &ids {
        for &c in &ids {
            graph.add_edge(p, c);
        }
    }
    let meter = Meter::new();
    let stats = min_max_prune_threaded(lake, &mut graph, options, threads, &meter).unwrap();
    let counts = meter.snapshot();
    (
        graph,
        stats,
        counts.metadata_lookups,
        counts.distinct_prunes,
    )
}

/// The column view is derived, not persisted: a table decoded from its
/// footer (the lazy path) and every table of a restored session must
/// rebuild the same view, and so reach the same MMP verdicts at the same
/// metadata cost as the in-memory lake.
#[test]
fn mmp_view_is_rebuilt_exactly_after_decode_and_restore() {
    let eager = mmp_lake();
    let lazy = lazy_copy(&eager);
    let dir = std::env::temp_dir().join("r2d2_integration_lazy_mmp_view");
    std::fs::remove_dir_all(&dir).ok();
    let mut session = R2d2Session::bootstrap(eager.clone(), config(1)).unwrap();
    session
        .enable_persistence(PersistenceConfig::new(&dir))
        .unwrap();
    session.checkpoint().unwrap();
    let restored = R2d2Session::restore(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    for (what, lake) in [("decoded", &lazy), ("restored", restored.lake())] {
        let reassembled = &lake.dataset_by_name("reassembled").unwrap().data;
        assert!(!reassembled.table_distinct_exact(), "{what}: premise");
        for entry in eager.iter() {
            let other = lake.dataset(entry.id).unwrap();
            assert!(
                entry.data.column_meta().eq(other.data.column_meta()),
                "{what} {}: column view differs",
                entry.name
            );
        }
        for distinct_gate in [true, false] {
            let options = MmpOptions { distinct_gate };
            let expected = mmp_all_pairs(&eager, options, 1);
            let stats = expected.1;
            assert!(stats.edges_pruned > 0 && stats.edges_pruned < stats.edges_examined);
            assert_eq!(stats.edges_pruned_by_distinct > 0, distinct_gate);
            for threads in [1, 2] {
                assert_eq!(
                    mmp_all_pairs(lake, options, threads),
                    expected,
                    "{what} lake, gate {distinct_gate}, threads {threads}"
                );
            }
        }
    }
}

proptest::proptest! {
    /// Scan, point-sample and catalogued-query results over the lazy copy
    /// are bit-identical to the eager lake's, and so are the logical meter
    /// totals the queries charge.
    #[test]
    fn queries_on_lazy_tables_match_eager(seed in 0u64..100_000) {
        let eager = random_lake(seed);
        let lazy = lazy_copy(&eager);
        let mut rng = SmallRng::seed_from_u64(seed);
        let lo = rng.gen_range(0i64..40);
        let hi = lo + rng.gen_range(0i64..25);
        let predicate = Predicate::between("id", Value::Int(lo), Value::Int(hi));
        for entry in eager.iter() {
            let lazy_entry = lazy.dataset(entry.id).unwrap();
            // Raw scan with a limit.
            let a = scan(&entry.data, &predicate, Some(7), &Meter::new()).unwrap();
            let b = scan(&lazy_entry.data, &predicate, Some(7), &Meter::new()).unwrap();
            proptest::prop_assert_eq!(a, b, "scan diverged on {}", entry.name.clone());
            // Point samples from the same RNG stream.
            let mut r1 = SmallRng::seed_from_u64(seed ^ entry.id.0);
            let mut r2 = SmallRng::seed_from_u64(seed ^ entry.id.0);
            let a = random_rows(&entry.data, 9, &mut r1, &Meter::new()).unwrap();
            let b = random_rows(&lazy_entry.data, 9, &mut r2, &Meter::new()).unwrap();
            proptest::prop_assert_eq!(a, b, "random_rows diverged on {}", entry.name.clone());
            // The catalogued entry point, charging each lake's own meter.
            let a = eager.query_dataset(entry.id, &predicate, None).unwrap();
            let b = lazy.query_dataset(entry.id, &predicate, None).unwrap();
            proptest::prop_assert_eq!(a, b, "query_dataset diverged on {}", entry.name.clone());
        }
        proptest::prop_assert_eq!(
            eager.meter().snapshot().without_page_counters(),
            lazy.meter().snapshot().without_page_counters(),
            "logical meter totals diverged"
        );
    }

    /// The pipeline graph, the incremental session graph, the masked meter
    /// totals and a kill-anywhere restore are all identical over lazy and
    /// eager lakes, at threads 1 and 4.
    #[test]
    fn pipeline_and_session_are_lazy_blind(
        seed in 0u64..100_000,
        kill_after in 0usize..4,
    ) {
        let eager = random_lake(seed);
        let lazy = lazy_copy(&eager);
        let updates: Vec<LakeUpdate> = (0..3)
            .map(|k| {
                let start = (seed as i64 + k * 7) % 40;
                LakeUpdate::AppendRows {
                    id: r2d2_lake::DatasetId(k as u64 % eager.len() as u64),
                    rows: table(start..start + 5),
                }
            })
            .collect();
        for threads in [1usize, 4] {
            let e = R2d2Pipeline::new(config(threads)).run(&eager).unwrap();
            let l = R2d2Pipeline::new(config(threads)).run(&lazy).unwrap();
            proptest::prop_assert_eq!(
                sorted_edges(e.final_graph()),
                sorted_edges(l.final_graph()),
                "batch graph diverged at threads={}", threads
            );

            let mut es = R2d2Session::bootstrap(eager.clone(), config(threads)).unwrap();
            let dir = std::env::temp_dir().join(format!(
                "r2d2_integration_lazy_{seed}_{threads}_{kill_after}"
            ));
            std::fs::remove_dir_all(&dir).ok();
            let mut ls = R2d2Session::bootstrap(lazy.clone(), config(threads)).unwrap();
            ls.enable_persistence(PersistenceConfig::new(&dir)).unwrap();
            for (i, u) in updates.iter().enumerate() {
                es.apply(u.clone()).unwrap();
                ls.apply(u.clone()).unwrap();
                if i + 1 == kill_after {
                    // Kill here: a restored session must agree with the live
                    // one on everything but the page telemetry.
                    let restored = R2d2Session::restore(&dir).unwrap();
                    proptest::prop_assert_eq!(restored.graph(), ls.graph());
                    proptest::prop_assert_eq!(
                        restored.ops().without_page_counters(),
                        ls.ops().without_page_counters()
                    );
                }
            }
            proptest::prop_assert_eq!(
                sorted_edges(es.graph()),
                sorted_edges(ls.graph()),
                "session graph diverged at threads={}", threads
            );
            proptest::prop_assert_eq!(
                es.ops().without_page_counters(),
                ls.ops().without_page_counters(),
                "session meter totals diverged at threads={}", threads
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
