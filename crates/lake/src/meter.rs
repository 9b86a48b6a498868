//! Operation metering: row scans, byte scans, metadata lookups.
//!
//! Table 3 of the paper compares the number of *pairwise row-level
//! operations* each stage of R2D2 performs against the brute-force ground
//! truth, and Table 7 reports GDPR row-scan savings. To reproduce those
//! numbers faithfully the substrate meters every operation: each query,
//! sampling call, anti-join and metadata lookup reports how many rows /
//! bytes / metadata entries it touched into a shared [`Meter`].
//!
//! The meter is cheaply cloneable (an `Arc` of atomics) and thread-safe so
//! that pipeline stages running on worker threads can share one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The one list of counters. Each entry is the [`OpCounts`] field (with its
/// docs) and the [`Meter`] method that bumps it (with its doc line); the
/// macro derives from it the `OpCounts` struct, the atomic `Counters` behind
/// a `Meter`, the `add_*` methods, `snapshot` / `add_counts` / `reset`,
/// `since` / `plus`, and — through `to_array` / `from_array` — the order
/// counters take on the wire (`snapshot::{put,get}_op_counts`). Adding a
/// counter is one entry here — and, because count and order are what
/// snapshots and WAL records store, a format-version bump.
macro_rules! op_counters {
    ($( $(#[$doc:meta])+ $field:ident, $add:ident = $add_doc:literal; )+) => {
        /// Immutable snapshot of a [`Meter`]'s counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct OpCounts {
            $( $(#[$doc])+ pub $field: u64, )+
        }

        impl OpCounts {
            /// Number of counters.
            pub(crate) const LEN: usize = [$(stringify!($field)),+].len();

            /// The counters in declaration (= wire) order.
            pub(crate) fn to_array(self) -> [u64; Self::LEN] {
                [$(self.$field),+]
            }

            /// Inverse of [`OpCounts::to_array`].
            pub(crate) fn from_array(values: [u64; Self::LEN]) -> OpCounts {
                let [$($field),+] = values;
                OpCounts { $($field),+ }
            }

            /// Element-wise difference (`self - earlier`), saturating at
            /// zero. Useful to attribute work to a pipeline stage given
            /// snapshots before/after.
            pub fn since(&self, earlier: &OpCounts) -> OpCounts {
                OpCounts {
                    $( $field: self.$field.saturating_sub(earlier.$field), )+
                }
            }

            /// Element-wise sum.
            pub fn plus(&self, other: &OpCounts) -> OpCounts {
                OpCounts {
                    $( $field: self.$field + other.$field, )+
                }
            }
        }

        #[derive(Debug, Default)]
        struct Counters {
            $( $field: AtomicU64, )+
        }

        impl Meter {
            $(
                #[doc = $add_doc]
                pub fn $add(&self, n: u64) {
                    self.counters.$field.fetch_add(n, Ordering::Relaxed);
                }
            )+

            /// Take a snapshot of the counters.
            pub fn snapshot(&self) -> OpCounts {
                OpCounts {
                    $( $field: self.counters.$field.load(Ordering::Relaxed), )+
                }
            }

            /// Add a whole [`OpCounts`] snapshot onto the counters at once.
            /// Used by snapshot restore to seed a fresh meter with the
            /// totals a session had accumulated when it was persisted.
            pub fn add_counts(&self, counts: &OpCounts) {
                $( self.$add(counts.$field); )+
            }

            /// Reset every counter to zero.
            pub fn reset(&self) {
                $( self.counters.$field.store(0, Ordering::Relaxed); )+
            }
        }
    };
}

op_counters! {
    /// Rows read from table data (full scans, predicate scans, joins).
    rows_scanned, add_rows_scanned = "Record `n` rows scanned.";
    /// Approximate bytes read from table data.
    bytes_scanned, add_bytes_scanned = "Record `n` bytes scanned.";
    /// Row tuples hashed (for containment checks / ground truth).
    rows_hashed, add_rows_hashed = "Record `n` rows hashed.";
    /// Pairwise row-to-row comparisons (hash probes count as one comparison).
    row_comparisons, add_row_comparisons = "Record `n` pairwise row comparisons / hash probes.";
    /// Partition / column metadata entries consulted (min/max lookups).
    metadata_lookups, add_metadata_lookups = "Record `n` metadata (min/max) lookups.";
    /// Partitions skipped thanks to metadata pruning.
    partitions_pruned, add_partitions_pruned = "Record `n` partitions pruned via metadata.";
    /// Partitions whose rows were actually read.
    partitions_scanned, add_partitions_scanned = "Record `n` partitions scanned.";
    /// Schema-set comparisons (pairs of schemas checked for containment).
    schema_comparisons, add_schema_comparisons = "Record `n` schema-pair comparisons.";
    /// Edges pruned by the MMP distinct-count gate (metadata only).
    distinct_prunes, add_distinct_prunes = "Record `n` edges pruned by the MMP distinct-count gate.";
    /// Bloom-sketch membership probes performed by CLP gating.
    sketch_probes, add_sketch_probes = "Record `n` bloom-sketch membership probes.";
    /// Edges pruned by the CLP bloom-sketch gate (before any parent
    /// multiset was built).
    sketch_prunes, add_sketch_prunes = "Record `n` edges pruned by the CLP bloom-sketch gate.";
    /// Lazy column pages materialized from their encoded bytes (first touch
    /// of a column decoded with `storage::decode`).
    pages_decoded, add_pages_decoded = "Record `n` lazy column pages materialized.";
    /// Column pages left as undecoded byte ranges by `storage::decode`
    /// (footer-backed lazy tables). `pages_skipped - pages_decoded` is the
    /// number of pages never touched.
    pages_skipped, add_pages_skipped = "Record `n` column pages left undecoded by a lazy decode.";
    /// Distinct string values hashed (one per distinct value per hashing
    /// call, not one per cell — dictionary-style dedup makes repeated
    /// strings hash once).
    string_hash_ops, add_string_hash_ops = "Record `n` distinct string values hashed.";
    /// String cells covered by row hashing (what `string_hash_ops` would be
    /// without per-distinct-value dedup; the ratio is the savings).
    string_cells_hashed, add_string_cells_hashed = "Record `n` string cells covered by row hashing.";
}

impl OpCounts {
    /// Total row-level work: scans + hashes + comparisons. This is the
    /// quantity Table 3 reports ("pairwise row-level operations").
    pub fn row_level_ops(&self) -> u64 {
        self.rows_scanned + self.rows_hashed + self.row_comparisons
    }

    /// This snapshot with the lazy-page counters (`pages_decoded`,
    /// `pages_skipped`) zeroed. Page materialization is an artifact of *how*
    /// a table entered memory (eager construction, lazy decode, snapshot
    /// restore), not of what logical work was done on it, so equivalence
    /// oracles — restored-vs-live sessions, lazy-vs-eager decode — compare
    /// meters modulo these two counters.
    pub fn without_page_counters(&self) -> OpCounts {
        OpCounts {
            pages_decoded: 0,
            pages_skipped: 0,
            ..*self
        }
    }
}

/// A shared, thread-safe operation meter.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    counters: Arc<Counters>,
}

impl Meter {
    /// Create a fresh meter with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Meter::new();
        m.add_rows_scanned(10);
        m.add_rows_scanned(5);
        m.add_bytes_scanned(100);
        m.add_metadata_lookups(3);
        let s = m.snapshot();
        assert_eq!(s.rows_scanned, 15);
        assert_eq!(s.bytes_scanned, 100);
        assert_eq!(s.metadata_lookups, 3);
    }

    #[test]
    fn clones_share_counters() {
        let m = Meter::new();
        let m2 = m.clone();
        m2.add_rows_hashed(7);
        assert_eq!(m.snapshot().rows_hashed, 7);
    }

    #[test]
    fn since_attributes_stage_work() {
        let m = Meter::new();
        m.add_rows_scanned(10);
        let before = m.snapshot();
        m.add_rows_scanned(32);
        m.add_row_comparisons(4);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 32);
        assert_eq!(delta.row_comparisons, 4);
        assert_eq!(delta.bytes_scanned, 0);
    }

    #[test]
    fn plus_and_row_level_ops() {
        let a = OpCounts {
            rows_scanned: 1,
            rows_hashed: 2,
            row_comparisons: 3,
            ..Default::default()
        };
        let b = OpCounts {
            rows_scanned: 10,
            ..Default::default()
        };
        assert_eq!(a.row_level_ops(), 6);
        assert_eq!(a.plus(&b).rows_scanned, 11);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Meter::new();
        m.add_schema_comparisons(9);
        m.add_partitions_pruned(2);
        m.reset();
        assert_eq!(m.snapshot(), OpCounts::default());
    }

    #[test]
    fn page_and_string_counters_accumulate_and_mask() {
        let m = Meter::new();
        m.add_pages_skipped(10);
        m.add_pages_decoded(3);
        m.add_string_hash_ops(4);
        m.add_string_cells_hashed(40);
        let s = m.snapshot();
        assert_eq!(s.pages_decoded, 3);
        assert_eq!(s.pages_skipped, 10);
        assert_eq!(s.string_hash_ops, 4);
        assert_eq!(s.string_cells_hashed, 40);
        let masked = s.without_page_counters();
        assert_eq!(masked.pages_decoded, 0);
        assert_eq!(masked.pages_skipped, 0);
        assert_eq!(masked.string_hash_ops, 4, "only page counters are masked");
        let m2 = Meter::new();
        m2.add_counts(&s);
        assert_eq!(m2.snapshot(), s, "add_counts covers every counter");
        m2.reset();
        assert_eq!(m2.snapshot(), OpCounts::default());
    }

    #[test]
    fn thread_safety() {
        let m = Meter::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.add_rows_scanned(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().rows_scanned, 8000);
    }
}
