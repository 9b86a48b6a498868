//! Rows and row hashing.
//!
//! R2D2 defines containment over *row tuples* (footnote 6 of the paper makes
//! the point that column-wise set containment is not enough: the tuples
//! `(June, 20), (May, 12)` are not contained in `(June, 12), (May, 20)` even
//! though every column is). To compare row tuples across tables cheaply we
//! hash the canonicalised value tuple of a row — projected onto a chosen
//! column subset in a fixed (lexicographic by column name) order — into a
//! 128-bit [`RowHash`]. The brute-force ground-truth builder also uses these
//! hashes, mirroring the paper's "compare hashes of all possible row pairs".

use crate::value::Value;
use std::hash::{Hash, Hasher};

/// A single row: an owned tuple of values, positionally aligned with a
/// table's schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Construct a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// The values of the row.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of cells in the row.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the row has no cells.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Consume the row, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Approximate byte size of the row (sum of its values' sizes).
    pub fn byte_size(&self) -> usize {
        self.values.iter().map(Value::byte_size).sum()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// A 128-bit content hash of a row tuple (projected onto some column subset).
///
/// Two rows with equal hashes are treated as equal rows by the containment
/// machinery; 128 bits keeps the collision probability negligible even for
/// billions of rows (birthday bound ≈ 2^-64 per pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowHash(pub u128);

/// Map hasher for [`RowHash`] keys: the key *is already* a uniform 128-bit
/// content hash, so re-scrambling it through SipHash on every map operation
/// (the `std` default) is pure overhead — and it shows up on hot paths that
/// insert or probe millions of hashes (multiset builds, CLP anti-joins,
/// join-cache restore). Folding the two halves with one multiply keeps both
/// the low bits (bucket index) and high bits (hashbrown control byte)
/// well-mixed at a fraction of the cost.
///
/// Only sound for keys that are themselves hashes; the generic `write` path
/// exists to satisfy the trait but nothing in this crate routes other key
/// types through it.
#[derive(Debug, Default, Clone)]
pub struct RowHashMapHasher(u64);

impl Hasher for RowHashMapHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(MULT);
        }
    }

    fn write_u128(&mut self, v: u128) {
        let folded = (v as u64) ^ ((v >> 64) as u64).rotate_left(31);
        let mixed = folded.wrapping_mul(SEED0);
        self.0 = mixed ^ (mixed >> 29);
    }
}

/// A `HashMap` keyed by [`RowHash`] with the cheap fold-the-key hasher.
///
/// Iteration order still depends on the map, so canonical encodings (e.g.
/// [`crate::snapshot`]'s join-cache section) must keep sorting entries
/// before writing — they already do.
pub type RowHashMap<V> =
    std::collections::HashMap<RowHash, V, std::hash::BuildHasherDefault<RowHashMapHasher>>;

/// A simple, fast, deterministic 128-bit hasher (two independent FxHash-style
/// 64-bit lanes seeded differently). Deterministic across runs and platforms
/// so that stored fingerprints remain valid.
#[derive(Debug, Clone)]
pub struct RowHasher {
    lane0: u64,
    lane1: u64,
}

const SEED0: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED1: u64 = 0xc2b2_ae3d_27d4_eb4f;
const MULT: u64 = 0x100_0000_01b3;

impl Default for RowHasher {
    fn default() -> Self {
        RowHasher {
            lane0: SEED0,
            lane1: SEED1,
        }
    }
}

impl RowHasher {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and produce the 128-bit hash.
    pub fn finish128(&self) -> RowHash {
        // Final avalanche (splitmix-style) on each lane.
        fn mix(mut x: u64) -> u64 {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        RowHash(((mix(self.lane0) as u128) << 64) | mix(self.lane1) as u128)
    }
}

impl Hasher for RowHasher {
    fn finish(&self) -> u64 {
        self.finish128().0 as u64
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lane0 = (self.lane0 ^ b as u64).wrapping_mul(MULT);
            self.lane1 = (self.lane1 ^ b as u64).wrapping_mul(MULT).rotate_left(17);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_i64(&mut self, i: i64) {
        self.write(&i.to_le_bytes());
    }
}

/// Hash a single value into a [`RowHash`].
///
/// This is the canonical per-cell hash: bloom sketches are built from it
/// (`ColumnStats::compute`), CLP probes against those sketches with it, and
/// [`combine_hashes`] folds per-cell hashes into row-tuple hashes. Hashing a
/// value once and combining is exactly equivalent to hashing the whole tuple
/// — which is what lets dictionary-style dedup hash each distinct string
/// once per column instead of once per row.
pub fn hash_single(value: &Value) -> RowHash {
    let mut h = RowHasher::new();
    value.hash(&mut h);
    // Terminator after the cell so that ("ab", "c") != ("a", "bc") once
    // hashes are combined (each cell's bytes end at a fixed boundary).
    h.write_u8(0x1f);
    h.finish128()
}

/// Fold per-cell hashes (in tuple order) into one row hash.
///
/// Order-sensitive: `combine([a, b]) != combine([b, a])`. A single hash
/// combines to itself, so a one-column row tuple hashes identically to
/// [`hash_single`] of its cell — the invariant that keeps sketch builds and
/// sketch probes interchangeable between the tuple and single-value APIs.
pub fn combine_hashes<I: IntoIterator<Item = RowHash>>(hashes: I) -> RowHash {
    let mut iter = hashes.into_iter();
    let Some(first) = iter.next() else {
        return RowHasher::new().finish128();
    };
    let mut acc = first;
    for h in iter {
        let mut mixer = RowHasher::new();
        mixer.write(&acc.0.to_le_bytes());
        mixer.write(&h.0.to_le_bytes());
        acc = mixer.finish128();
    }
    acc
}

/// Hash a tuple of values (in the given order) into a [`RowHash`].
///
/// Defined as [`combine_hashes`] over [`hash_single`] of each cell, so
/// callers may precompute (and reuse) per-cell hashes and combine them
/// without changing the result.
pub fn hash_values(values: &[&Value]) -> RowHash {
    combine_hashes(values.iter().map(|v| hash_single(v)))
}

/// Hash an owned row (all of its cells, in order).
pub fn hash_row(row: &Row) -> RowHash {
    let refs: Vec<&Value> = row.values().iter().collect();
    hash_values(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_rows_hash_equal() {
        let a = Row::new(vec![Value::Int(1), Value::Str("x".into())]);
        let b = Row::new(vec![Value::Int(1), Value::Str("x".into())]);
        assert_eq!(hash_row(&a), hash_row(&b));
    }

    #[test]
    fn different_rows_hash_differently() {
        let a = Row::new(vec![Value::Int(1), Value::Str("x".into())]);
        let b = Row::new(vec![Value::Int(2), Value::Str("x".into())]);
        let c = Row::new(vec![Value::Str("x".into()), Value::Int(1)]);
        assert_ne!(hash_row(&a), hash_row(&b));
        assert_ne!(hash_row(&a), hash_row(&c), "order must matter");
    }

    #[test]
    fn cell_boundaries_matter() {
        let a = Row::new(vec![Value::Str("ab".into()), Value::Str("c".into())]);
        let b = Row::new(vec![Value::Str("a".into()), Value::Str("bc".into())]);
        assert_ne!(hash_row(&a), hash_row(&b));
    }

    #[test]
    fn int_float_equivalence_carries_to_hash() {
        let a = Row::new(vec![Value::Int(5)]);
        let b = Row::new(vec![Value::Float(5.0)]);
        assert_eq!(hash_row(&a), hash_row(&b));
    }

    #[test]
    fn hash_is_deterministic_across_hashers() {
        let row = Row::new(vec![Value::Int(123), Value::Str("abc".into()), Value::Null]);
        assert_eq!(hash_row(&row), hash_row(&row));
    }

    #[test]
    fn row_accessors() {
        let r = Row::new(vec![Value::Int(1), Value::Null]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.get(1), Some(&Value::Null));
        assert_eq!(r.get(5), None);
        assert_eq!(r.byte_size(), 9);
        assert_eq!(r.clone().into_values().len(), 2);
    }

    #[test]
    fn empty_tuple_hash_is_stable() {
        assert_eq!(hash_values(&[]), hash_values(&[]));
    }

    #[test]
    fn single_value_tuple_equals_hash_single() {
        for v in [
            Value::Int(42),
            Value::Str("abc".into()),
            Value::Null,
            Value::Float(1.5),
        ] {
            assert_eq!(hash_values(&[&v]), hash_single(&v));
        }
    }

    #[test]
    fn combining_precomputed_hashes_matches_hash_values() {
        let vals = [
            Value::Int(1),
            Value::Str("x".into()),
            Value::Null,
            Value::Float(2.5),
        ];
        let refs: Vec<&Value> = vals.iter().collect();
        let combined = combine_hashes(vals.iter().map(hash_single));
        assert_eq!(combined, hash_values(&refs));
        let swapped = combine_hashes([hash_single(&vals[1]), hash_single(&vals[0])]);
        assert_ne!(
            swapped,
            combine_hashes([hash_single(&vals[0]), hash_single(&vals[1])])
        );
    }
}
