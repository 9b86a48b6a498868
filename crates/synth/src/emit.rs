//! CSV emission: round-trip synthetic lakes through the ingest path.
//!
//! [`write_lake_csv`] renders every dataset of a [`DataLake`] as a `.csv`
//! file under a directory, one file per dataset, laid out so that
//! `r2d2_core::R2d2Session::ingest_dir` reads them back under their
//! original dataset names (dataset names like `hostile/root0_derived1`
//! become nested paths). Optionally each file is *sabotaged* with a
//! deterministic sprinkle of malformed trailing rows — ragged rows and
//! dangling quotes — that the ingest quarantine must absorb without
//! changing the surviving rows; this is how `tests/integration_ingest.rs`
//! proves hostile-vs-clean graph parity.
//!
//! Caveats inherited from the CSV dialect (see `r2d2_lake::csv`):
//! `Timestamp` columns render as `ts(<micros>)` and re-ingest as strings,
//! and a column that is entirely NULL re-infers as `Utf8`. Graph-parity
//! oracles therefore compare the *ingested* lake against a batch run over
//! the same ingested lake, not against the pre-emission lake.

use std::path::Path;

use r2d2_lake::csv::to_csv;
use r2d2_lake::{DataLake, LakeError, Meter, Result};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Make one dataset-name component filesystem-safe: anything outside
/// `[A-Za-z0-9._-]` becomes `_`. Injective enough for synth names (which
/// are already alphanumeric); [`write_lake_csv`] fails on a collision
/// rather than silently overwriting.
fn sanitize_component(component: &str) -> String {
    component
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Append deterministic malformed rows to a rendered CSV: a too-long row,
/// a dangling-quote row, and (when the table has more than one column) a
/// too-short row. All three are structurally quarantined by the reader
/// *before* type inference, so the surviving rows — and the ingested
/// table — are unchanged.
fn sabotage(csv: &mut String, columns: usize, rng: &mut SmallRng) {
    let long: Vec<String> = (0..columns + 1 + rng.gen_range(0..3))
        .map(|i| format!("junk{i}"))
        .collect();
    csv.push_str(&long.join(","));
    csv.push('\n');
    let mut dangling: Vec<String> = (0..columns).map(|i| format!("x{i}")).collect();
    if let Some(last) = dangling.last_mut() {
        *last = format!("\"oops{}", rng.gen_range(0..100));
    }
    csv.push_str(&dangling.join(","));
    csv.push('\n');
    if columns > 1 {
        let short: Vec<String> = (0..columns - 1).map(|i| format!("y{i}")).collect();
        csv.push_str(&short.join(","));
        csv.push('\n');
    }
}

/// Write every dataset of `lake` as `<dir>/<dataset name>.csv` (name
/// components sanitized, subdirectories created), in dataset-id order.
/// With `sabotage_seed`, append deterministic malformed rows to every file
/// (seeded per dataset) that ingest must quarantine without touching the
/// surviving rows. Returns the number of files written.
pub fn write_lake_csv(lake: &DataLake, dir: &Path, sabotage_seed: Option<u64>) -> Result<usize> {
    let mut entries: Vec<_> = lake.iter().collect();
    entries.sort_by_key(|e| e.id);
    let mut written = std::collections::BTreeSet::new();
    for entry in entries {
        let rel: Vec<String> = entry.name.split('/').map(sanitize_component).collect();
        let mut path = dir.to_path_buf();
        for component in &rel[..rel.len() - 1] {
            path.push(component);
        }
        std::fs::create_dir_all(&path).map_err(LakeError::Io)?;
        path.push(format!("{}.csv", rel[rel.len() - 1]));
        if !written.insert(path.clone()) {
            return Err(LakeError::InvalidArgument(format!(
                "dataset names collide after sanitization: {}",
                path.display()
            )));
        }
        let table = entry.data.to_table(&Meter::new())?;
        let mut csv = to_csv(&table);
        if let Some(seed) = sabotage_seed {
            let mut rng = SmallRng::seed_from_u64(seed ^ entry.id.0);
            sabotage(&mut csv, table.num_columns(), &mut rng);
        }
        std::fs::write(&path, csv).map_err(LakeError::Io)?;
    }
    Ok(written.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusSpec};
    use r2d2_lake::csv::{read_csv, CsvOptions};

    #[test]
    fn emitted_corpus_round_trips_per_file() {
        let corpus = generate(&CorpusSpec::hostile(2, 32)).unwrap();
        let dir = std::env::temp_dir().join("r2d2_emit_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let n = write_lake_csv(&corpus.lake, &dir, Some(7)).unwrap();
        assert_eq!(n, corpus.lake.len());

        // Every emitted file parses; sabotaged rows are quarantined and the
        // survivors match the source table's row count.
        for entry in corpus.lake.iter() {
            let path = dir.join(format!("{}.csv", entry.name));
            let text = std::fs::read_to_string(&path).unwrap();
            let read = read_csv(&text, &CsvOptions::default()).unwrap();
            assert!(
                read.quarantined.len() >= 2,
                "{}: sabotage rows must be quarantined",
                entry.name
            );
            assert_eq!(
                read.table.num_rows(),
                entry.data.num_rows(),
                "{}: surviving rows must match the source",
                entry.name
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
