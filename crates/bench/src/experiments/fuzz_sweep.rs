//! Decoder fuzz sweep: drive every on-disk format's decoder with thousands
//! of deterministic structured mutations (see [`crate::fuzz`]) and assert
//! the no-panic / no-misdecode contract before reporting the tallies.
//!
//! This is a robustness gate, not a timing benchmark: `collect` *asserts*
//! that every mutation of every format — `R2D2LAKE` v6, `R2D2SNAP` v6,
//! `R2D2WAL` v6 and the graph codec — either decodes faithfully (proven by
//! a re-encode round trip) or fails with a typed error. A panic or a
//! silent misdecode anywhere fails the run.

use crate::fuzz::{sweep_all, FormatOutcome};
use crate::report::TextTable;

/// Tallies of one full sweep across all four formats.
#[derive(Debug, Clone)]
pub struct FuzzSweepSnapshot {
    /// Seed the mutation streams were derived from.
    pub seed: u64,
    /// Mutations evaluated per format.
    pub mutations_per_format: usize,
    /// One tally per format, in sweep order (lake, snapshot, wal, graph).
    pub outcomes: Vec<FormatOutcome>,
}

impl FuzzSweepSnapshot {
    /// Render as an aligned text table plus a verdict line.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "format",
            "mutations",
            "accepted",
            "rejected",
            "panics",
            "misdecodes",
        ]);
        for o in &self.outcomes {
            t.add_row([
                o.format.to_string(),
                o.mutations.to_string(),
                o.accepted.to_string(),
                o.rejected.to_string(),
                o.panics.to_string(),
                o.misdecodes.to_string(),
            ]);
        }
        format!(
            "{}\nall decoders clean over {} mutations/format (seed {:#x}): \
             every outcome was Ok-and-round-trips or a typed error\n",
            t.render(),
            self.mutations_per_format,
            self.seed,
        )
    }
}

/// Run the sweep. `smoke` bounds CI to 2 000 mutations per format (the
/// acceptance floor); the full run uses 10 000. Panics if any format
/// panics or silently misdecodes — that is the point.
pub fn collect(smoke: bool) -> FuzzSweepSnapshot {
    let mutations = if smoke { 2_000 } else { 10_000 };
    let seed: u64 = 0xF00D_FEED;
    let scratch = std::env::temp_dir().join(format!(
        "r2d2_fuzz_sweep_{}",
        if smoke { "smoke" } else { "paper" }
    ));
    std::fs::create_dir_all(&scratch).expect("fuzz scratch dir");
    let outcomes = sweep_all(mutations, seed, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    for o in &outcomes {
        assert_eq!(o.mutations, mutations, "{}: short sweep", o.format);
        assert!(
            o.clean(),
            "{}: {} panics, {} misdecodes out of {} mutations (seed {:#x}) — \
             replay with fuzz::mutate(base, seed, index)",
            o.format,
            o.panics,
            o.misdecodes,
            o.mutations,
            seed,
        );
    }
    FuzzSweepSnapshot {
        seed,
        mutations_per_format: mutations,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_clean_across_all_formats() {
        let snap = collect(true);
        assert_eq!(snap.outcomes.len(), 4);
        assert_eq!(snap.mutations_per_format, 2_000);
        let formats: Vec<_> = snap.outcomes.iter().map(|o| o.format).collect();
        assert_eq!(formats, ["lake", "snapshot", "wal", "graph"]);
        for o in &snap.outcomes {
            // `collect` already asserted cleanliness; sanity-check the
            // tallies add up and the sweep actually rejected hostile bytes.
            assert_eq!(o.accepted + o.rejected, o.mutations);
            assert!(o.rejected > 0, "{}: nothing was rejected?", o.format);
        }
        let table = snap.render();
        assert!(table.contains("misdecodes"));
        assert!(table.contains("all decoders clean"));
    }
}
