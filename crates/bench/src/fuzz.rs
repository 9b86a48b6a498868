//! Deterministic structured-mutation fuzzing of every on-disk decoder.
//!
//! The durability story of this repo rests on four binary formats — the
//! `R2D2LAKE` v6 column file, the `R2D2SNAP` v6 session snapshot, the
//! `R2D2WAL` v6 segment, and the graph codec inside snapshots — all of
//! which must treat arbitrary bytes as *data, never as trusted structure*.
//! This module drives each decoder with a seeded stream of structured
//! mutations of a known-good artifact (truncations, byte flips,
//! length-field inflation, version skews, zero windows, insertions) and
//! classifies every outcome:
//!
//! * **rejected** — the decoder returned a typed error (the common case),
//! * **accepted** — the decoder returned `Ok` *and* passed its round-trip
//!   oracle (re-encode → re-decode → equality), proving the accepted bytes
//!   were decoded faithfully rather than silently misread,
//! * **misdecode** — `Ok` but the round-trip oracle failed,
//! * **panic** — the decoder (or the oracle on its output) panicked.
//!
//! The `fuzz-sweep` experiment asserts `panics == 0 && misdecodes == 0`
//! over thousands of mutations per format. Everything is deterministic:
//! mutation `i` under seed `s` is the same bytes on every run, so a failure
//! reproduces with [`mutate`]`(base, s, i)`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use bytes::Bytes;
use r2d2_core::{PersistenceConfig, PipelineConfig, R2d2Session, SessionSnapshot};
use r2d2_graph::codec as graph_codec;
use r2d2_lake::{
    storage, Column, DataLake, DataType, Meter, PartitionSpec, PartitionedTable, Schema, Table,
    Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tally of one format's sweep.
#[derive(Debug, Clone)]
pub struct FormatOutcome {
    /// Which decoder was swept (`"lake"`, `"snapshot"`, `"wal"`, `"graph"`).
    pub format: &'static str,
    /// Mutations evaluated.
    pub mutations: usize,
    /// `Ok` decodes that also passed the round-trip oracle.
    pub accepted: usize,
    /// Typed-error rejections.
    pub rejected: usize,
    /// Panics caught from the decoder or its oracle.
    pub panics: usize,
    /// `Ok` decodes whose round-trip oracle failed (silent misreads).
    pub misdecodes: usize,
}

impl FormatOutcome {
    fn new(format: &'static str) -> Self {
        FormatOutcome {
            format,
            mutations: 0,
            accepted: 0,
            rejected: 0,
            panics: 0,
            misdecodes: 0,
        }
    }

    /// True when no mutation panicked or silently misdecoded.
    pub fn clean(&self) -> bool {
        self.panics == 0 && self.misdecodes == 0
    }
}

/// What one mutation evaluation concluded (before tallying).
enum Verdict {
    Accepted,
    Rejected,
    Misdecode,
}

/// Produce mutation `index` of `base` under `seed` — deterministic, so any
/// failure is replayable from its `(seed, index)` pair alone. Six mutation
/// classes: truncation, 1–4 non-zero byte flips, u32 length inflation, u64
/// inflation, version-field skew (bytes 8..12, where all three file formats
/// keep their version), and zero-window / junk insertion.
pub fn mutate(base: &[u8], seed: u64, index: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut bytes = base.to_vec();
    match rng.gen_range(0..6u32) {
        // Truncate at a random position (including to empty).
        0 => {
            let at = rng.gen_range(0..bytes.len().max(1));
            bytes.truncate(at);
        }
        // Flip 1–4 bytes with non-zero xor masks.
        1 => {
            for _ in 0..rng.gen_range(1..5u32) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= rng.gen_range(1..256u32) as u8;
            }
        }
        // Inflate a 4-byte window to a huge little-endian u32 — attacks
        // length prefixes (row counts, string lengths, record lengths).
        2 => {
            if bytes.len() >= 4 {
                let at = rng.gen_range(0..bytes.len() - 3);
                let huge: u32 = u32::MAX - rng.gen_range(0..1024u32);
                bytes[at..at + 4].copy_from_slice(&huge.to_le_bytes());
            }
        }
        // Inflate an 8-byte window to a huge little-endian u64 — attacks
        // row counts and offsets stored as u64.
        3 => {
            if bytes.len() >= 8 {
                let at = rng.gen_range(0..bytes.len() - 7);
                let huge: u64 = u64::MAX / 2 + rng.gen_range(0..1024u32) as u64;
                bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
            }
        }
        // Version skew: all three file formats keep a u32 version at bytes
        // 8..12 right after their magic.
        4 => {
            if bytes.len() >= 12 {
                let version: u32 = rng.gen_range(0..64u32);
                bytes[8..12].copy_from_slice(&version.to_le_bytes());
            }
        }
        // Zero out a window, or insert a run of junk bytes mid-stream.
        _ => {
            if bytes.is_empty() {
                bytes.extend([0u8; 16]);
            } else if rng.gen_bool(0.5) {
                let at = rng.gen_range(0..bytes.len());
                let len = rng.gen_range(1..33usize).min(bytes.len() - at);
                bytes[at..at + len].fill(0);
            } else {
                let at = rng.gen_range(0..bytes.len());
                let junk: Vec<u8> = (0..rng.gen_range(1..17usize))
                    .map(|_| rng.gen_range(0..256u32) as u8)
                    .collect();
                bytes.splice(at..at, junk);
            }
        }
    }
    bytes
}

/// Run `eval` over `mutations` seeded mutations of `base`, catching panics
/// (with the global panic hook silenced for the duration so rejected inputs
/// don't spam stderr) and tallying verdicts.
fn sweep(
    format: &'static str,
    base: &[u8],
    mutations: usize,
    seed: u64,
    eval: impl Fn(Vec<u8>) -> Verdict,
) -> FormatOutcome {
    let mut outcome = FormatOutcome::new(format);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for index in 0..mutations as u64 {
        let mutated = mutate(base, seed, index);
        outcome.mutations += 1;
        match catch_unwind(AssertUnwindSafe(|| eval(mutated))) {
            Ok(Verdict::Accepted) => outcome.accepted += 1,
            Ok(Verdict::Rejected) => outcome.rejected += 1,
            Ok(Verdict::Misdecode) => outcome.misdecodes += 1,
            Err(_) => outcome.panics += 1,
        }
    }
    std::panic::set_hook(hook);
    outcome
}

/// A base table whose encoding exercises all three page layouts: packed
/// ints and bools, a tagged Float column carrying mixed `Int` variants and
/// nulls, dictionary-friendly repetitive strings (with unicode), and
/// timestamps, split into several row groups.
fn base_partitioned_table() -> PartitionedTable {
    let schema = Schema::flat(&[
        ("id", DataType::Int),
        ("score", DataType::Float),
        ("label", DataType::Utf8),
        ("flag", DataType::Bool),
        ("seen", DataType::Timestamp),
    ])
    .expect("valid schema");
    let labels = ["alpha", "βeta", "🦀", "alpha"];
    let columns = vec![
        Column::new(DataType::Int, (0..64).map(Value::Int).collect()).expect("int column"),
        Column::new(
            DataType::Float,
            (0..64)
                .map(|i| match i % 4 {
                    0 => Value::Float(i as f64 + 0.5),
                    1 => Value::Int(i),
                    2 => Value::Null,
                    _ => Value::Float(-(i as f64)),
                })
                .collect(),
        )
        .expect("float column"),
        Column::new(
            DataType::Utf8,
            (0..64)
                .map(|i| Value::Str(labels[i % labels.len()].to_string()))
                .collect(),
        )
        .expect("utf8 column"),
        Column::new(
            DataType::Bool,
            (0..64).map(|i| Value::Bool(i % 3 == 0)).collect(),
        )
        .expect("bool column"),
        Column::new(
            DataType::Timestamp,
            (0..64).map(|i| Value::Timestamp(i * 1000)).collect(),
        )
        .expect("timestamp column"),
    ];
    let table = Table::new(schema, columns).expect("valid table");
    PartitionedTable::from_table(
        table,
        PartitionSpec::ByRowCount {
            rows_per_partition: 16,
        },
    )
    .expect("partitionable")
}

/// Collect every value of every partition column, or `None` when any page
/// fails to materialize (lazy decode surfaces corruption here).
fn materialize(table: &PartitionedTable) -> Option<Vec<Vec<Value>>> {
    let mut all = Vec::new();
    for part in table.partitions() {
        for column in part.columns() {
            match column.try_values() {
                Ok(values) => all.push(values.to_vec()),
                Err(_) => return None,
            }
        }
    }
    Some(all)
}

/// Sweep the `R2D2LAKE` v6 column-file decoder. Oracle: an accepted decode
/// must materialize every page, and re-encoding the decoded table must
/// decode back to the same values and schema.
pub fn sweep_lake(mutations: usize, seed: u64) -> FormatOutcome {
    let base = storage::encode(&base_partitioned_table());
    sweep("lake", &base, mutations, seed, |mutated| {
        let meter = Meter::new();
        let decoded = match storage::decode(&Bytes::from(mutated), &meter) {
            Ok(t) => t,
            Err(_) => return Verdict::Rejected,
        };
        let Some(values) = materialize(&decoded) else {
            return Verdict::Rejected;
        };
        let reencoded = storage::encode(&decoded);
        let Ok(second) = storage::decode(&reencoded, &meter) else {
            return Verdict::Misdecode;
        };
        match materialize(&second) {
            Some(second_values) if second_values == values => Verdict::Accepted,
            _ => Verdict::Misdecode,
        }
    })
}

/// A tiny two-dataset session whose snapshot, WAL and graph serve as the
/// base artifacts for the session-level sweeps.
fn base_session() -> R2d2Session {
    let mut lake = DataLake::new();
    let root = base_partitioned_table();
    lake.add_dataset("fuzz/root", root.clone(), Default::default(), None)
        .expect("add root");
    let head = root.partitions()[0].clone();
    lake.add_dataset(
        "fuzz/derived",
        PartitionedTable::single(head),
        Default::default(),
        None,
    )
    .expect("add derived");
    R2d2Session::bootstrap(lake, PipelineConfig::default().with_seed(0xF0)).expect("bootstrap")
}

/// Sweep the `R2D2SNAP` v6 snapshot decoder. Oracle: a snapshot that
/// restores `Ok` must be *stable* — snapshotting the restored session and
/// restoring again must reproduce identical snapshot bytes (otherwise the
/// accepted bytes were misread into a different session state).
pub fn sweep_snapshot(mutations: usize, seed: u64) -> FormatOutcome {
    let base = base_session().snapshot();
    sweep("snapshot", base.as_bytes(), mutations, seed, |mutated| {
        let restored = match SessionSnapshot::from_bytes(mutated).restore() {
            Ok(s) => s,
            Err(_) => return Verdict::Rejected,
        };
        let first = restored.snapshot();
        let Ok(again) = SessionSnapshot::from_bytes(first.as_bytes().to_vec()).restore() else {
            return Verdict::Misdecode;
        };
        if again.snapshot().as_bytes() == first.as_bytes() {
            Verdict::Accepted
        } else {
            Verdict::Misdecode
        }
    })
}

/// Sweep the `R2D2WAL` v6 segment reader, using `scratch` for the one file
/// the reader needs on disk. Oracle: every mutation must either read `Ok`
/// (intact prefix, possibly with a dropped tail — that is the torn-append
/// contract) or return a typed error; record checksums make a silently
/// corrupted payload unreachable, so `Ok` contents are accepted as-is.
pub fn sweep_wal(mutations: usize, seed: u64, scratch: &Path) -> FormatOutcome {
    // Build a real segment: a persisted session with uncommitted tail
    // updates leaves wal records behind.
    let wal_dir = scratch.join("fuzz_wal_base");
    std::fs::remove_dir_all(&wal_dir).ok();
    let mut session = base_session();
    session
        .enable_persistence(PersistenceConfig::new(&wal_dir))
        .expect("enable persistence");
    let extra = base_partitioned_table();
    session
        .apply(r2d2_lake::LakeUpdate::AddDataset {
            name: "fuzz/extra".to_string(),
            data: extra,
            access: Default::default(),
            lineage: None,
        })
        .expect("apply");
    let mut segments: Vec<_> = std::fs::read_dir(&wal_dir)
        .expect("wal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "r2d2wal"))
        .collect();
    segments.sort();
    let base = std::fs::read(segments.first().expect("one wal segment")).expect("read segment");
    std::fs::remove_dir_all(&wal_dir).ok();

    let file = scratch.join("fuzz_wal_mutant.r2d2wal");
    let outcome = sweep("wal", &base, mutations, seed, |mutated| {
        std::fs::write(&file, &mutated).expect("write mutant");
        match r2d2_lake::wal::read_records(&file) {
            Ok(_) => Verdict::Accepted,
            Err(_) => Verdict::Rejected,
        }
    });
    std::fs::remove_file(&file).ok();
    outcome
}

/// Sweep the graph codec. Oracle: an accepted graph must re-encode and
/// re-decode to an equal [`r2d2_graph::ContainmentGraph`].
pub fn sweep_graph(mutations: usize, seed: u64) -> FormatOutcome {
    let base = graph_codec::encode(base_session().graph());
    sweep("graph", &base, mutations, seed, |mutated| {
        let mut cursor = Bytes::from(mutated);
        let decoded = match graph_codec::decode(&mut cursor) {
            Ok(g) => g,
            Err(_) => return Verdict::Rejected,
        };
        let mut reencoded = graph_codec::encode(&decoded);
        match graph_codec::decode(&mut reencoded) {
            Ok(second) if second == decoded => Verdict::Accepted,
            _ => Verdict::Misdecode,
        }
    })
}

/// Sweep all four formats with `mutations` mutations each.
pub fn sweep_all(mutations: usize, seed: u64, scratch: &Path) -> Vec<FormatOutcome> {
    vec![
        sweep_lake(mutations, seed),
        sweep_snapshot(mutations, seed),
        sweep_wal(mutations, seed, scratch),
        sweep_graph(mutations, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_are_deterministic_and_diverse() {
        let base = vec![7u8; 64];
        let a: Vec<_> = (0..32).map(|i| mutate(&base, 42, i)).collect();
        let b: Vec<_> = (0..32).map(|i| mutate(&base, 42, i)).collect();
        assert_eq!(a, b, "same (seed, index) must produce the same bytes");
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() > 16, "mutations must be diverse");
        let c = mutate(&base, 43, 0);
        assert!(
            a.contains(&c) || c != a[0] || a[0] == base,
            "seed must matter"
        );
    }

    #[test]
    fn small_sweeps_are_clean_on_every_format() {
        let scratch = std::env::temp_dir().join("r2d2_fuzz_unit");
        std::fs::create_dir_all(&scratch).unwrap();
        for outcome in sweep_all(64, 0xD15EA5E, &scratch) {
            assert!(
                outcome.clean(),
                "{}: {} panics, {} misdecodes",
                outcome.format,
                outcome.panics,
                outcome.misdecodes
            );
            assert_eq!(outcome.mutations, 64);
            assert!(outcome.rejected + outcome.accepted > 0);
        }
        std::fs::remove_dir_all(&scratch).ok();
    }
}
