//! Integration tests of durable sessions: snapshot + write-ahead-log warm
//! restart must be **bit-identical** to never restarting at all.
//!
//! The property-based oracle below drives a random `LakeUpdate` stream into
//! a persisted session, kills it at a random point (dropping the process
//! state, keeping the files), restores, and compares graph, meter totals,
//! update log, caches and advisor advice against an uninterrupted in-memory
//! session — at threads 1 and 4, both right after the restore and after
//! feeding the remaining updates to both sessions. The remaining tests pin
//! the WAL edge cases: torn final record, checksum-corrupt record mid-log,
//! snapshot-only restore, and restoring a snapshot written at a different
//! `threads` setting.

use r2d2_core::{
    Failpoints, PersistenceConfig, PipelineConfig, R2d2Session, SessionSnapshot, UpdateReport,
};
use r2d2_lake::{
    AccessProfile, Column, DataLake, DataType, DatasetId, LakeUpdate, Meter, OpCounts,
    PartitionSpec, PartitionedTable, Predicate, Schema, Table, Value,
};
use r2d2_opt::advisor::AdvisorConfig;
use r2d2_opt::preprocess::TransformKnowledge;
use r2d2_opt::CostModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig::default().with_seed(7).with_threads(threads)
}

fn advisor_config() -> AdvisorConfig {
    AdvisorConfig::default().with_knowledge(TransformKnowledge::AssumeKnown)
}

/// Fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("r2d2_integration_persistence")
        .join(tag);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// All oracle tables share one schema; every column is a function of the id,
/// so id-range subsets are true row-tuple subsets (same recipe as the
/// dynamic-updates oracle).
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

fn base_lake() -> DataLake {
    let mut lake = DataLake::new();
    let add = |lake: &mut DataLake, name: &str, t: Table| {
        lake.add_dataset(name, part(t), AccessProfile::default(), None)
            .unwrap()
    };
    add(&mut lake, "root", table(0..60));
    add(&mut lake, "mid", table(10..40));
    add(&mut lake, "other", table(100..140));
    add(&mut lake, "slice", table(30..80));
    lake
}

/// Random but replayable update sequence over the base lake (ids tracked the
/// way the catalog assigns them).
fn gen_updates(seed: u64, count: usize) -> Vec<LakeUpdate> {
    let mut rng =
        SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(count as u64));
    let mut live: Vec<u64> = vec![0, 1, 2, 3];
    let mut next_id = 4u64;
    let mut updates = Vec::with_capacity(count);
    for k in 0..count {
        let choice = if live.is_empty() {
            0
        } else {
            rng.gen_range(0u8..10)
        };
        match choice {
            0..=2 => {
                let start = rng.gen_range(0i64..80);
                let len = rng.gen_range(1i64..40);
                updates.push(LakeUpdate::AddDataset {
                    name: format!("gen_{seed}_{k}"),
                    data: part(table(start..start + len)),
                    access: AccessProfile::default(),
                    lineage: None,
                });
                live.push(next_id);
                next_id += 1;
            }
            3..=5 => {
                let id = live[rng.gen_range(0..live.len())];
                let start = rng.gen_range(0i64..80);
                let len = rng.gen_range(0i64..20);
                updates.push(LakeUpdate::AppendRows {
                    id: DatasetId(id),
                    rows: table(start..start + len),
                });
            }
            6..=7 => {
                let id = live[rng.gen_range(0..live.len())];
                let lo = rng.gen_range(0i64..80);
                let hi = lo + rng.gen_range(0i64..40);
                updates.push(LakeUpdate::DeleteRows {
                    id: DatasetId(id),
                    predicate: Predicate::between("id", Value::Int(lo), Value::Int(hi)),
                });
            }
            _ => {
                let idx = rng.gen_range(0..live.len());
                updates.push(LakeUpdate::DropDataset {
                    id: DatasetId(live.remove(idx)),
                });
            }
        }
    }
    updates
}

/// The deterministic slice of an `UpdateReport` (everything except wall
/// clock — replayed batches re-measure their own durations).
#[derive(Debug, Clone, PartialEq)]
struct ComparableReport {
    updates_applied: usize,
    applied: Vec<r2d2_lake::AppliedUpdate>,
    datasets_changed: usize,
    candidates_checked: usize,
    rows_sampled: usize,
    delta: r2d2_graph::diff::EdgeDelta,
    ops: OpCounts,
}

fn comparable(report: &UpdateReport) -> ComparableReport {
    ComparableReport {
        updates_applied: report.updates_applied,
        applied: report.applied.clone(),
        datasets_changed: report.datasets_changed,
        candidates_checked: report.candidates_checked,
        rows_sampled: report.rows_sampled,
        delta: report.delta.clone(),
        // Page counters are process-local laziness telemetry: a restored
        // session re-skips pages the live one decoded eagerly, so they are
        // excluded from the bit-identity oracle (everything else is exact).
        ops: report.ops.without_page_counters(),
    }
}

/// Assert two sessions are observably identical (graph with node ids, meter
/// totals, update log minus durations, catalog contents, cache population,
/// and — when advisors are attached — advice and pruned problem).
fn assert_sessions_identical(a: &mut R2d2Session, b: &mut R2d2Session, context: &str) {
    assert_eq!(a.graph(), b.graph(), "{context}: graph diverged");
    assert_eq!(
        a.ops().without_page_counters(),
        b.ops().without_page_counters(),
        "{context}: meter totals diverged"
    );
    assert_eq!(
        a.update_log().iter().map(comparable).collect::<Vec<_>>(),
        b.update_log().iter().map(comparable).collect::<Vec<_>>(),
        "{context}: update log diverged"
    );
    let (ra, rb) = (a.report(), b.report());
    assert_eq!(ra.datasets, rb.datasets, "{context}: dataset count");
    assert_eq!(ra.updates_applied, rb.updates_applied, "{context}: updates");
    assert_eq!(ra.batches_applied, rb.batches_applied, "{context}: batches");
    assert_eq!(
        a.cached_build_sides(),
        b.cached_build_sides(),
        "{context}: hash-join cache population diverged"
    );
    assert_eq!(a.config(), b.config(), "{context}: config diverged");
    assert_eq!(a.lake().len(), b.lake().len(), "{context}: catalog size");
    for (ea, eb) in a.lake().iter().zip(b.lake().iter()) {
        assert_eq!(ea.id, eb.id, "{context}: dataset ids");
        assert_eq!(ea.name, eb.name, "{context}: dataset names");
        assert_eq!(*ea.data, *eb.data, "{context}: dataset {} data", ea.name);
        assert_eq!(ea.access, eb.access, "{context}: access profile");
        assert_eq!(ea.lineage, eb.lineage, "{context}: lineage");
    }
    assert_eq!(
        a.advisor_enabled(),
        b.advisor_enabled(),
        "{context}: advisor attachment"
    );
    if a.advisor_enabled() {
        assert_eq!(
            a.advisor_problem().unwrap(),
            b.advisor_problem().unwrap(),
            "{context}: advisor problem diverged"
        );
        assert_eq!(
            a.advise().unwrap(),
            b.advise().unwrap(),
            "{context}: advice diverged"
        );
    }
}

/// Bootstrap a session with an attached advisor over the base lake.
fn advised_session(threads: usize) -> R2d2Session {
    let mut session = R2d2Session::bootstrap(base_lake(), config(threads)).unwrap();
    session
        .enable_advisor(CostModel::default(), advisor_config())
        .unwrap();
    session
}

proptest::proptest! {
    /// The crash-restore oracle: persist a session, kill it after a random
    /// prefix of a random update stream, restore from disk, and the result
    /// is bit-identical to the uninterrupted in-memory session — and stays
    /// identical while both keep applying the remaining updates, at
    /// threads 1 and 4. `snapshot_every_n_updates = 2` forces mid-stream
    /// compactions, so restores exercise snapshot + WAL-tail replay in all
    /// phases.
    #[test]
    fn killed_and_restored_session_matches_uninterrupted_run(
        seed in 0u64..1_000_000,
        count in 1usize..5,
        kill in 0usize..5,
        segment_budget in 0u8..3,
    ) {
        let updates = gen_updates(seed, count);
        let kill = kill % (updates.len() + 1);
        for threads in [1usize, 4] {
            let dir = scratch_dir(&format!("oracle_{seed}_{count}_{kill}_{threads}"));

            // The durable session: advisor + persistence, killed after
            // `kill` updates (drop = crash; state survives only on disk).
            // The default rebase cadence makes generations 2+ delta chains;
            // a non-zero segment budget forces mid-generation WAL segment
            // rotations, so restores replay multi-segment logs too.
            let mut durable = advised_session(threads);
            durable
                .enable_persistence(
                    PersistenceConfig::new(&dir)
                        .with_snapshot_every(2)
                        .with_wal_segment_max_bytes([0, 200, 4096][segment_budget as usize]),
                )
                .unwrap();
            for update in &updates[..kill] {
                durable.apply(update.clone()).unwrap();
            }
            drop(durable);

            // The uninterrupted session: same stream, never persisted.
            let mut uninterrupted = advised_session(threads);
            for update in &updates[..kill] {
                uninterrupted.apply(update.clone()).unwrap();
            }

            let mut restored = R2d2Session::restore(&dir).unwrap();
            proptest::prop_assert!(restored.persistence_enabled());
            assert_sessions_identical(
                &mut restored,
                &mut uninterrupted,
                &format!("threads={threads} after restore"),
            );

            // Keep going on both sides: the restored session must stay
            // bit-identical, not just match at the restore point.
            for update in &updates[kill..] {
                restored.apply(update.clone()).unwrap();
                uninterrupted.apply(update.clone()).unwrap();
            }
            assert_sessions_identical(
                &mut restored,
                &mut uninterrupted,
                &format!("threads={threads} after continuing"),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Find generation files in a persistence dir.
fn wal_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "r2d2wal"))
        .collect();
    files.sort();
    files
}

#[test]
fn truncated_final_wal_record_restores_to_the_previous_batch() {
    let dir = scratch_dir("truncated_tail");
    let updates = gen_updates(11, 3);

    let mut durable = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
    durable
        .enable_persistence(PersistenceConfig::new(&dir).with_snapshot_every(0))
        .unwrap();
    for update in &updates {
        durable.apply(update.clone()).unwrap();
    }
    drop(durable);

    // Crash mid-append: chop bytes off the live WAL's final record.
    let wal = wal_files(&dir).pop().unwrap();
    let raw = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &raw[..raw.len() - 3]).unwrap();

    // Expected state: every batch before the torn one.
    let mut expected = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
    for update in &updates[..2] {
        expected.apply(update.clone()).unwrap();
    }

    let mut restored = R2d2Session::restore(&dir).unwrap();
    assert_sessions_identical(&mut restored, &mut expected, "torn final record");
    // The torn log was retired: restore rotated to a fresh generation so
    // new appends are reachable.
    assert_eq!(restored.persistence_generation(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_mid_log_record_drops_it_and_everything_behind_it() {
    let dir = scratch_dir("corrupt_mid");
    let updates = gen_updates(23, 3);

    let mut durable = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
    durable
        .enable_persistence(PersistenceConfig::new(&dir).with_snapshot_every(0))
        .unwrap();
    for update in &updates {
        durable.apply(update.clone()).unwrap();
    }
    drop(durable);

    // Flip one byte inside the SECOND record's payload: records 2 and 3 are
    // both unrecoverable (nothing after a corrupt record can be trusted),
    // record 1 survives. The segment header is 24 bytes (magic, version,
    // generation, segment index); each record adds 12 bytes of framing.
    let wal = wal_files(&dir).pop().unwrap();
    let mut raw = std::fs::read(&wal).unwrap();
    let len1 = u32::from_le_bytes(raw[24..28].try_into().unwrap()) as usize;
    let second_payload = 24 + (12 + len1) + 12;
    raw[second_payload] ^= 0xFF;
    std::fs::write(&wal, &raw).unwrap();

    let mut expected = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
    expected.apply(updates[0].clone()).unwrap();

    let mut restored = R2d2Session::restore(&dir).unwrap();
    assert_sessions_identical(&mut restored, &mut expected, "corrupt mid-log record");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_only_restore_without_wal_records() {
    let dir = scratch_dir("snapshot_only");
    let mut durable = advised_session(1);
    durable.advise().unwrap();
    durable
        .enable_persistence(PersistenceConfig::new(&dir))
        .unwrap();
    drop(durable);

    // Empty WAL (header only): restore is pure snapshot decode — and
    // metadata-only: no column page decodes until a query touches it, and
    // touching one dataset decodes only a strict subset of what was skipped.
    let mut expected = advised_session(1);
    expected.advise().unwrap();
    let probe = R2d2Session::restore(&dir).unwrap();
    let skipped = probe.ops().pages_skipped;
    assert!(skipped > 0, "the restore must leave pages lazy");
    assert_eq!(
        probe.ops().pages_decoded,
        0,
        "a clean-checkpoint restore must not decode column pages"
    );
    probe
        .lake()
        .query_dataset(DatasetId(0), &Predicate::True, Some(16))
        .unwrap();
    let decoded = probe.ops().pages_decoded;
    assert!(
        decoded > 0 && decoded < skipped,
        "touching one dataset decoded {decoded} of {skipped} skipped pages"
    );
    drop(probe);
    let mut restored = R2d2Session::restore(&dir).unwrap();
    assert_sessions_identical(&mut restored, &mut expected, "empty WAL");

    // Even with the WAL file deleted outright, the snapshot alone restores.
    let wal = wal_files(&dir).pop().unwrap();
    std::fs::remove_file(&wal).unwrap();
    let mut restored = R2d2Session::restore(&dir).unwrap();
    assert_sessions_identical(&mut restored, &mut expected, "missing WAL");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_written_at_four_threads_restores_against_single_threaded_run() {
    let dir = scratch_dir("cross_threads");
    let updates = gen_updates(5, 4);

    // Persisted session runs at threads = 4...
    let mut durable = advised_session(4);
    durable
        .enable_persistence(PersistenceConfig::new(&dir).with_snapshot_every(2))
        .unwrap();
    for update in &updates {
        durable.apply(update.clone()).unwrap();
    }
    drop(durable);

    // ...the reference runs single-threaded and never persists. Thread
    // count must change nothing observable, so the restored 4-thread
    // session matches it bit-for-bit (configs differ by `threads` only).
    let mut single = advised_session(1);
    for update in &updates {
        single.apply(update.clone()).unwrap();
    }

    let mut restored = R2d2Session::restore(&dir).unwrap();
    assert_eq!(restored.config().threads, 4, "threads setting round-trips");
    assert_eq!(restored.config(), &config(4));
    assert_eq!(restored.graph(), single.graph());
    assert_eq!(
        restored.ops().without_page_counters(),
        single.ops().without_page_counters()
    );
    assert_eq!(
        restored
            .update_log()
            .iter()
            .map(comparable)
            .collect::<Vec<_>>(),
        single
            .update_log()
            .iter()
            .map(comparable)
            .collect::<Vec<_>>()
    );
    assert_eq!(restored.advise().unwrap(), single.advise().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_rotates_generations_and_prunes_old_files() {
    let dir = scratch_dir("compaction");
    let updates = gen_updates(31, 4);

    let mut durable = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
    durable
        .enable_persistence(
            PersistenceConfig::new(&dir)
                .with_snapshot_every(1)
                .with_rebase_every(2),
        )
        .unwrap();
    assert_eq!(durable.persistence_generation(), Some(1));
    for update in &updates {
        durable.apply(update.clone()).unwrap();
    }
    // Every applied update crossed the threshold → one rotation per batch:
    // generation 1 is the full snapshot `enable_persistence` wrote, 2 and 3
    // are deltas chained onto it, 4 rebases (two deltas hit the quota) and
    // 5 is a delta on the new full base.
    assert_eq!(durable.persistence_generation(), Some(5));
    assert_eq!(durable.wal_tail_updates(), Some(0));

    // Only the generations a restore chain can reach remain: the current
    // chain (5 → 4) and its fallback (4). The old full at 1 outlived its
    // own rotation — generations 2 and 3 chained onto it — and was pruned,
    // with its dependents and their WAL segments, only once the rebase at 4
    // cut the last chain through it.
    let mut snapshots: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".r2d2snap"))
        .collect();
    snapshots.sort();
    assert_eq!(
        snapshots,
        vec![
            "snapshot-000004.r2d2snap".to_string(),
            "snapshot-000005.r2d2snap".to_string()
        ]
    );
    let stats = durable.wal_stats().unwrap();
    assert_eq!(
        stats.segments_compacted, 3,
        "generations 1-3 each gave up one WAL segment to compaction"
    );
    // The delta generation undercuts the full snapshot it chains onto.
    let full = std::fs::metadata(dir.join("snapshot-000004.r2d2snap"))
        .unwrap()
        .len();
    let delta = std::fs::metadata(dir.join("snapshot-000005.r2d2snap"))
        .unwrap()
        .len();
    assert!(
        delta < full,
        "delta generation ({delta} B) must undercut its full base ({full} B)"
    );

    let mut expected = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
    for update in &updates {
        expected.apply(update.clone()).unwrap();
    }
    let mut restored = R2d2Session::restore(&dir).unwrap();
    assert_sessions_identical(&mut restored, &mut expected, "after compaction");
    std::fs::remove_dir_all(&dir).ok();

    // On a lake wide enough for "one dataset" to be a small share of it, a
    // delta is O(dirtied state): each single-dataset update (append, delete,
    // add) checkpoints into at most 10% of the full snapshot it chains onto.
    let dir = scratch_dir("compaction_delta_ratio");
    use r2d2_synth::corpus::{generate, CorpusSpec};
    let lake = generate(&CorpusSpec::enterprise_like(0, 96)).unwrap().lake;
    let id = lake.ids()[0];
    let rows = lake
        .dataset(id)
        .unwrap()
        .data
        .to_table(&Meter::new())
        .unwrap();
    let key = rows.schema().names()[0].to_string();
    let single_dataset_updates = [
        LakeUpdate::AppendRows {
            id,
            rows: rows.take(&[0, 1, 2, 3]).unwrap(),
        },
        LakeUpdate::DeleteRows {
            id,
            predicate: Predicate::eq(key.clone(), rows.column(&key).unwrap().values()[0].clone()),
        },
        LakeUpdate::AddDataset {
            name: "half".into(),
            data: part(
                rows.take(&(0..rows.num_rows() / 2).collect::<Vec<_>>())
                    .unwrap(),
            ),
            access: AccessProfile::default(),
            lineage: None,
        },
    ];
    let mut wide = R2d2Session::bootstrap(lake, config(1)).unwrap();
    wide.enable_persistence(PersistenceConfig::new(&dir).with_snapshot_every(0))
        .unwrap();
    let full = std::fs::metadata(dir.join("snapshot-000001.r2d2snap"))
        .unwrap()
        .len();
    // Footprint pin: a full snapshot (pages + per-partition footer metadata
    // + graph + caches) stays within 4× the lake's logical bytes. Measured
    // 2.73× with the v6 footer; the v5 footer's per-column MinHash
    // signatures made it 5.54×.
    let lake_bytes = wide.lake().total_bytes() as u64;
    assert!(
        full <= 4 * lake_bytes,
        "full snapshot ({full} B) must stay within 4x the lake's {lake_bytes} logical bytes"
    );
    for update in single_dataset_updates {
        wide.apply(update).unwrap();
        let seq = wide.checkpoint().unwrap();
        let delta = std::fs::metadata(dir.join(format!("snapshot-{seq:06}.r2d2snap")))
            .unwrap()
            .len();
        assert!(
            delta * 10 <= full,
            "generation {seq}: a single-dataset delta ({delta} B) must cost at most 10% of \
             a full snapshot ({full} B)"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_snapshot_falls_back_to_previous_generation() {
    let dir = scratch_dir("fallback");
    let updates = gen_updates(47, 3);

    let mut durable = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
    durable
        .enable_persistence(PersistenceConfig::new(&dir).with_snapshot_every(0))
        .unwrap();
    for update in &updates[..2] {
        durable.apply(update.clone()).unwrap();
    }
    durable.checkpoint().unwrap();
    durable.apply(updates[2].clone()).unwrap();
    drop(durable);

    // Destroy the newest snapshot (generation 2). Restore must fall back
    // to generation 1 and replay its WAL (updates 1 and 2 — which lands
    // exactly on the state snapshot 2 captured), then continue through
    // generation 2's intact WAL (update 3). Nothing acknowledged is lost.
    let snap2 = dir.join("snapshot-000002.r2d2snap");
    let mut raw = std::fs::read(&snap2).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0xFF;
    std::fs::write(&snap2, &raw).unwrap();

    let mut expected = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
    for update in &updates {
        expected.apply(update.clone()).unwrap();
    }
    let mut restored = R2d2Session::restore(&dir).unwrap();
    assert_sessions_identical(&mut restored, &mut expected, "generation fallback");
    // The degraded directory was rotated to a coherent fresh generation.
    assert_eq!(restored.persistence_generation(), Some(3));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metered_traffic_and_refresh_survive_the_crash() {
    let dir = scratch_dir("access_refresh");
    let mut durable = advised_session(1);
    durable.advise().unwrap();
    durable
        .enable_persistence(PersistenceConfig::new(&dir).with_snapshot_every(0))
        .unwrap();

    // Serve read traffic through the metered entry point, fold it into the
    // profiles, and crash WITHOUT a checkpoint. Refreshes are the sync
    // points for read-side telemetry: the WAL record carries the drained
    // tallies and the meter totals at the drain, so everything up to the
    // refresh survives the crash even though no snapshot followed it.
    for _ in 0..5 {
        durable
            .lake()
            .query_dataset(DatasetId(1), &Predicate::True, Some(4))
            .unwrap();
    }
    assert_eq!(durable.refresh_access_profiles().unwrap(), 1);
    durable
        .apply(LakeUpdate::AppendRows {
            id: DatasetId(1),
            rows: table(40..45),
        })
        .unwrap();
    drop(durable);

    let mut expected = advised_session(1);
    expected.advise().unwrap();
    for _ in 0..5 {
        expected
            .lake()
            .query_dataset(DatasetId(1), &Predicate::True, Some(4))
            .unwrap();
    }
    assert_eq!(expected.refresh_access_profiles().unwrap(), 1);
    expected
        .apply(LakeUpdate::AppendRows {
            id: DatasetId(1),
            rows: table(40..45),
        })
        .unwrap();

    let mut restored = R2d2Session::restore(&dir).unwrap();
    assert_sessions_identical(&mut restored, &mut expected, "metered traffic");

    // Post-restore, identical traffic keeps identical outcomes: the hot
    // profile cools back down on both sides and the advice agrees.
    for session in [&mut restored, &mut expected] {
        session
            .lake()
            .query_dataset(DatasetId(0), &Predicate::True, Some(2))
            .unwrap();
    }
    assert_eq!(
        restored.refresh_access_profiles().unwrap(),
        expected.refresh_access_profiles().unwrap()
    );
    assert_sessions_identical(&mut restored, &mut expected, "post-restore traffic");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_snapshot_versions_fail_with_an_explicit_error() {
    let session = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
    let snapshot = session.snapshot();
    let mut raw = snapshot.as_bytes().to_vec();
    // Patch only the version field (bytes 8..12, after the magic): the
    // reader must refuse v1–v5 by version, before it even reaches the
    // checksum, rather than misparse the old layout (v4 had no kind byte;
    // a v5 body carries a longer config block, 17-word op counts and
    // MinHash signatures in every embedded table footer).
    for old in [1u32, 2, 3, 4, 5] {
        raw[8..12].copy_from_slice(&old.to_le_bytes());
        let err = SessionSnapshot::from_bytes(raw.clone())
            .restore()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("unsupported snapshot version {old}")),
            "wrong error for snapshot v{old}: {err}"
        );
    }
}

#[test]
fn in_memory_snapshot_round_trips_without_disk() {
    let mut session = advised_session(1);
    session.advise().unwrap();
    let snapshot = session.snapshot();
    let mut restored = snapshot.restore().unwrap();
    assert!(!restored.persistence_enabled());
    // The image is canonical: capturing the restored session (before any
    // further state-moving calls) reproduces the exact same bytes.
    assert_eq!(restored.snapshot().as_bytes(), snapshot.as_bytes());
    assert_sessions_identical(&mut restored, &mut session, "in-memory snapshot");
}

#[test]
fn restore_of_an_empty_directory_is_a_clean_error() {
    let dir = scratch_dir("empty_dir");
    assert!(R2d2Session::restore(&dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_wal_versions_fail_with_an_explicit_error() {
    let dir = scratch_dir("wal_versions");
    let mut durable = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
    durable
        .enable_persistence(PersistenceConfig::new(&dir).with_snapshot_every(0))
        .unwrap();
    durable.apply(gen_updates(3, 1)[0].clone()).unwrap();
    drop(durable);

    // Patch only the version field (bytes 8..12, after the magic): the
    // reader must refuse v1–v5 segments by version — v4 and older had no
    // generation/segment fields, so parsing one as current would misread
    // record framing as header bytes, and v5 records embed v5 tables and
    // 17-word op counts.
    let wal = wal_files(&dir).pop().unwrap();
    let pristine = std::fs::read(&wal).unwrap();
    for old in [1u32, 2, 3, 4, 5] {
        let mut raw = pristine.clone();
        raw[8..12].copy_from_slice(&old.to_le_bytes());
        std::fs::write(&wal, &raw).unwrap();
        let err = r2d2_lake::wal::read_records(&wal).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("unsupported WAL version {old}")),
            "wrong error for WAL v{old}: {err}"
        );
    }

    // A session-level restore treats the unreadable segment as a torn tail:
    // the snapshot's state survives and the directory rotates to a coherent
    // fresh generation instead of panicking.
    let restored = R2d2Session::restore(&dir).unwrap();
    assert_eq!(restored.persistence_generation(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// One run of the crash-point matrix: arm `site`, drive updates until the
/// injected crash fires, kill the session (drop — state survives only on
/// disk), and the restored session must be bit-for-bit identical to an
/// uninterrupted session over the applied update prefix — then both sides
/// continue through the rest of the stream and must stay identical.
fn run_crash_point(
    site: &str,
    threads: usize,
    configure: impl FnOnce(PersistenceConfig) -> PersistenceConfig,
) {
    let updates = gen_updates(97, 6);
    let dir = scratch_dir(&format!("faults_{}_{threads}", site.replace(':', "_")));

    let mut durable = R2d2Session::bootstrap(base_lake(), config(threads)).unwrap();
    durable
        .enable_persistence(configure(PersistenceConfig::new(&dir)))
        .unwrap();
    // Arm the crash point only after generation 1 is live, so the kill
    // lands mid-stream rather than inside `enable_persistence`.
    let fired = Arc::new(AtomicBool::new(false));
    let hook_fired = Arc::clone(&fired);
    let target = site.to_string();
    durable.set_failpoints(Failpoints::new(move |s| {
        s == target && !hook_fired.swap(true, Ordering::SeqCst)
    }));

    // Drive updates until the crash fires. Checkpoint-site crashes surface
    // as an error from `apply` (the update itself is already durable in the
    // WAL); prune-site crashes are swallowed (pruning is best-effort) — the
    // hook flag is the kill signal either way.
    let mut killed = false;
    for update in &updates {
        let result = durable.apply(update.clone());
        if fired.load(Ordering::SeqCst) {
            if let Err(e) = result {
                assert!(
                    e.to_string().contains("injected crash"),
                    "{site}: unexpected error {e}"
                );
            }
            killed = true;
            break;
        }
        result.unwrap_or_else(|e| panic!("{site}: clean apply failed: {e}"));
    }
    assert!(killed, "crash site {site} never fired");
    let applied = durable.report().updates_applied;
    drop(durable);

    // The uninterrupted reference: exactly the applied prefix, never
    // persisted.
    let mut reference = R2d2Session::bootstrap(base_lake(), config(threads)).unwrap();
    for update in &updates[..applied] {
        reference.apply(update.clone()).unwrap();
    }
    let mut restored =
        R2d2Session::restore(&dir).unwrap_or_else(|e| panic!("{site}: restore failed: {e}"));
    assert!(restored.persistence_enabled());
    assert_sessions_identical(
        &mut restored,
        &mut reference,
        &format!("{site} threads={threads} after restore"),
    );

    // Both sides keep applying; the restored one keeps persisting.
    for update in &updates[applied..] {
        restored.apply(update.clone()).unwrap();
        reference.apply(update.clone()).unwrap();
    }
    assert_sessions_identical(
        &mut restored,
        &mut reference,
        &format!("{site} threads={threads} after continuing"),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash-point fault-injection matrix: kill the session at every named
/// persistence write site — mid-delta checkpoint, mid-rebase checkpoint,
/// between the checkpoint's WAL/tmp/rename steps, mid-segment-rotation and
/// mid-prune — at threads 1 and 4. Restored state must equal the
/// uninterrupted run over the acknowledged prefix at every point.
#[test]
fn crash_point_matrix_restores_the_applied_prefix_at_every_site() {
    // `snapshot_every(1)` checkpoints after every update;
    // `rebase_every(2)` makes the stream hit both checkpoint kinds:
    // generations 2–3 are deltas, 4 is a rebase. The first prune with
    // victims runs at generation 5 (the rebase cut the chain through 1–3).
    let checkpoint_sites = [
        "delta:encoded",
        "delta:wal-created",
        "delta:tmp-written",
        "delta:renamed",
        "rebase:encoded",
        "rebase:wal-created",
        "rebase:tmp-written",
        "rebase:renamed",
        "prune:begin",
        "prune:mid",
    ];
    for threads in [1usize, 4] {
        for site in checkpoint_sites {
            run_crash_point(site, threads, |c| {
                c.with_snapshot_every(1).with_rebase_every(2)
            });
        }
        // Segment rotation only happens while one generation's WAL keeps
        // growing: checkpoints off, one-byte segment budget.
        run_crash_point("rotate:created", threads, |c| {
            c.with_snapshot_every(0).with_wal_segment_max_bytes(1)
        });
    }
}

/// Chain corruption: flip one byte in each link of a three-generation delta
/// chain (full base, middle delta, newest delta) and in the newest WAL
/// segment. Restore must fall back to the newest intact prefix-chain — with
/// WAL replay recovering every acknowledged update — or, when the chain's
/// full base itself is gone, fail cleanly. Never a panic.
#[test]
fn chain_corruption_falls_back_to_the_newest_intact_prefix() {
    let updates = gen_updates(71, 3);
    let build = |dir: &Path| {
        let mut durable = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
        durable
            .enable_persistence(PersistenceConfig::new(dir).with_snapshot_every(0))
            .unwrap();
        durable.apply(updates[0].clone()).unwrap();
        durable.checkpoint().unwrap(); // generation 2: delta on 1
        durable.apply(updates[1].clone()).unwrap();
        durable.checkpoint().unwrap(); // generation 3: delta on 2
        durable.apply(updates[2].clone()).unwrap(); // WAL tail of generation 3
        drop(durable);
    };
    let expected_through = |n: usize| {
        let mut session = R2d2Session::bootstrap(base_lake(), config(1)).unwrap();
        for update in &updates[..n] {
            session.apply(update.clone()).unwrap();
        }
        session
    };

    // Chain-aware pruning kept every link: the newest delta still has its
    // base delta and the chain's full bottom on disk.
    let dir = scratch_dir("chain_intact");
    build(&dir);
    for seq in 1..=3u64 {
        assert!(
            dir.join(format!("snapshot-{seq:06}.r2d2snap")).exists(),
            "chain link {seq} was pruned while a dependent delta survived"
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    for victim in [1u64, 2, 3] {
        let dir = scratch_dir(&format!("chain_victim_{victim}"));
        build(&dir);
        let path = dir.join(format!("snapshot-{victim:06}.r2d2snap"));
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        if victim == 1 {
            // The full base sits below every chain: no intact chain
            // remains, and restore reports that cleanly.
            R2d2Session::restore(&dir).unwrap_err();
        } else {
            // A broken middle or top link falls the walk back to the
            // newest intact chain; replaying the newer generations' WAL
            // segments on top recovers every acknowledged update.
            let mut restored = R2d2Session::restore(&dir).unwrap();
            let mut expected = expected_through(3);
            assert_sessions_identical(
                &mut restored,
                &mut expected,
                &format!("chain victim {victim}"),
            );
            assert_eq!(
                restored.persistence_generation(),
                Some(4),
                "degraded directory rotates to a fresh full generation"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    // Flip a byte in the newest WAL segment instead: the torn tail drops
    // only the unacknowledged record behind it — everything the chain
    // captured survives.
    let dir = scratch_dir("chain_victim_wal");
    build(&dir);
    let wal3 = dir.join("wal-000003-000.r2d2wal");
    let mut raw = std::fs::read(&wal3).unwrap();
    let first_payload = 24 + 12; // segment header + record framing
    raw[first_payload] ^= 0xFF;
    std::fs::write(&wal3, &raw).unwrap();
    let mut restored = R2d2Session::restore(&dir).unwrap();
    let mut expected = expected_through(2);
    assert_sessions_identical(&mut restored, &mut expected, "corrupt newest WAL segment");
    std::fs::remove_dir_all(&dir).ok();
}
