//! Fixed-size per-column bloom sketches over value hashes.
//!
//! Min-Max Pruning disproves containment with two numbers per column; a
//! [`ColumnSketch`] extends the same idea to *membership*: a small, fixed
//! bloom filter over the 128-bit hashes of a column's non-null values,
//! maintained as ordinary column statistics (computed on ingest, rebuilt
//! with every partition rebuild, merged by bitwise OR at table level, and
//! persisted in the `R2D2LAKE` v3 footer).
//!
//! Two properties make the sketch useful as a *sound* prune:
//!
//! * **No false negatives.** [`ColumnSketch::contains`] returning `false`
//!   proves the value never entered the sketch — so a sampled child value
//!   absent from the parent's sketch proves the child row is absent from the
//!   parent, and Content-Level Pruning can drop the edge without building
//!   the parent's hash multiset. A `true` can be a false positive; callers
//!   fall through to the exact check, which is why sketch gating never
//!   changes the final graph.
//! * **A sound distinct lower bound.** Each distinct value sets at most
//!   [`SKETCH_PROBES`] bits, so `ceil(popcount / SKETCH_PROBES)` never
//!   exceeds the true distinct count ([`ColumnSketch::min_distinct`]) —
//!   usable as metadata-only evidence in the MMP distinct-count gate.
//!
//! The sketch is deliberately small (`SKETCH_BITS` bits = 256 bytes) so it
//! costs little in partition metadata and storage footers; at enterprise
//! column cardinalities it saturates gracefully (a saturated sketch simply
//! stops pruning — it never lies).

use crate::row::RowHash;

/// Number of bits in a [`ColumnSketch`].
///
/// Sized for the column cardinalities this substrate works at: with `k = 4`
/// probes the filter stays useful (≲ 60% fill) up to roughly 500 distinct
/// values and degrades gracefully beyond — a saturated sketch stops pruning
/// but never lies. 256 bytes per column keeps partition metadata and
/// storage footers small relative to data pages.
pub const SKETCH_BITS: usize = 2048;

/// Number of bits each inserted value sets (classic double hashing).
pub const SKETCH_PROBES: usize = 4;

const WORDS: usize = SKETCH_BITS / 64;

/// A fixed-size bloom filter over the [`RowHash`]es of a column's non-null
/// values. See the module docs for the soundness contract.
#[derive(Clone, PartialEq, Eq)]
pub struct ColumnSketch {
    words: [u64; WORDS],
}

impl Default for ColumnSketch {
    fn default() -> Self {
        ColumnSketch { words: [0; WORDS] }
    }
}

impl std::fmt::Debug for ColumnSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnSketch")
            .field("bits_set", &self.count_ones())
            .finish()
    }
}

/// The `SKETCH_PROBES` bit positions of one hash (double hashing over the
/// two independent 64-bit lanes of the 128-bit row hash; the odd stride
/// cycles the full power-of-two bit space).
fn probe_bits(hash: RowHash) -> [usize; SKETCH_PROBES] {
    let h1 = hash.0 as u64;
    let h2 = ((hash.0 >> 64) as u64) | 1;
    let mut bits = [0usize; SKETCH_PROBES];
    for (i, bit) in bits.iter_mut().enumerate() {
        *bit = (h1.wrapping_add(h2.wrapping_mul(i as u64)) % SKETCH_BITS as u64) as usize;
    }
    bits
}

impl ColumnSketch {
    /// An empty sketch (contains nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one value hash.
    pub fn insert(&mut self, hash: RowHash) {
        for bit in probe_bits(hash) {
            self.words[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// Whether the hash *may* have been inserted. `false` is definitive
    /// (no false negatives); `true` may be a false positive.
    pub fn contains(&self, hash: RowHash) -> bool {
        probe_bits(hash)
            .into_iter()
            .all(|bit| self.words[bit / 64] & (1u64 << (bit % 64)) != 0)
    }

    /// Bitwise-OR `other` into `self`. The union sketch contains every value
    /// either input contained — merging partition sketches yields exactly
    /// the sketch a single pass over all values would have built.
    pub fn union_with(&mut self, other: &ColumnSketch) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no value was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// A sound lower bound on the number of distinct values inserted: each
    /// value sets at most [`SKETCH_PROBES`] bits, so at least
    /// `ceil(popcount / SKETCH_PROBES)` distinct values must have been seen.
    pub fn min_distinct(&self) -> usize {
        (self.count_ones() as usize).div_ceil(SKETCH_PROBES)
    }

    /// The raw words, little-endian order (storage/snapshot codecs).
    pub fn words(&self) -> &[u64; WORDS] {
        &self.words
    }

    /// Rebuild from raw words (storage/snapshot codecs).
    pub fn from_words(words: [u64; WORDS]) -> Self {
        ColumnSketch { words }
    }

    /// Number of `u64` words in the wire representation.
    pub const WORD_COUNT: usize = WORDS;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::hash_values;
    use crate::value::Value;

    fn h(v: i64) -> RowHash {
        hash_values(&[&Value::Int(v)])
    }

    #[test]
    fn inserted_hashes_are_always_found() {
        let mut s = ColumnSketch::new();
        for v in 0..500 {
            s.insert(h(v));
        }
        for v in 0..500 {
            assert!(s.contains(h(v)), "no false negatives allowed");
        }
    }

    #[test]
    fn absent_hashes_are_mostly_rejected_when_sparse() {
        let mut s = ColumnSketch::new();
        for v in 0..50 {
            s.insert(h(v));
        }
        let false_positives = (1000..2000).filter(|&v| s.contains(h(v))).count();
        assert!(
            false_positives < 100,
            "sparse sketch should reject most absent values, fp={false_positives}"
        );
    }

    #[test]
    fn empty_sketch_contains_nothing() {
        let s = ColumnSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.min_distinct(), 0);
        assert!(!s.contains(h(7)));
    }

    #[test]
    fn union_equals_single_pass() {
        let mut a = ColumnSketch::new();
        let mut b = ColumnSketch::new();
        let mut both = ColumnSketch::new();
        for v in 0..40 {
            a.insert(h(v));
            both.insert(h(v));
        }
        for v in 40..80 {
            b.insert(h(v));
            both.insert(h(v));
        }
        let mut merged = a.clone();
        merged.union_with(&b);
        assert_eq!(merged, both, "OR of partition sketches == full-pass sketch");
    }

    #[test]
    fn min_distinct_is_a_sound_lower_bound() {
        let mut s = ColumnSketch::new();
        for n in [1usize, 10, 100, 1000] {
            for v in 0..n as i64 {
                s.insert(h(v));
            }
            assert!(
                s.min_distinct() <= n,
                "lower bound {} exceeds true distinct {n}",
                s.min_distinct()
            );
        }
        // And it is not trivially zero for a populated sketch.
        assert!(s.min_distinct() > 100);
    }

    #[test]
    fn words_round_trip() {
        let mut s = ColumnSketch::new();
        for v in 0..25 {
            s.insert(h(v));
        }
        let back = ColumnSketch::from_words(*s.words());
        assert_eq!(back, s);
        assert_eq!(ColumnSketch::WORD_COUNT, 32);
    }

    #[test]
    fn debug_is_compact() {
        let s = ColumnSketch::new();
        assert_eq!(format!("{s:?}"), "ColumnSketch { bits_set: 0 }");
    }
}
