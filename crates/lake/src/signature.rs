//! MinHash signatures and LSH banding — the metadata behind the optional
//! approximate candidate tier.
//!
//! A [`MinHashSignature`] stores, for `k` independent permutations of the
//! 64-bit value-hash space, the minimum permuted hash over a set of values.
//! Signatures support the classic estimators (Jaccard as the fraction of
//! matching minima, containment via the LSH-Ensemble conversion) plus a
//! **domination-based containment estimator**
//! ([`MinHashSignature::containment_estimate_in`]) with a one-sided
//! guarantee the pipeline's approximate tier relies on: if set `A` really is
//! a subset of `B`, the estimate is *exactly* `1.0`, so a threshold gate can
//! never prune a true containment pair. Only provably-false pairs (those
//! with a coordinate where `A`'s minimum beats `B`'s — a witness element of
//! `A` that cannot be in `B`) are ever rejected.
//!
//! Two structural properties make signatures free to maintain as column
//! statistics:
//!
//! * **Union fold** — the element-wise minimum of two signatures is the
//!   signature of the union of their value sets
//!   ([`MinHashSignature::merge_with`]), so per-column signatures built in
//!   the same pass as the bloom sketch combine into partition- and
//!   table-level signatures without re-hashing a value.
//! * **Prefix** — the first `k'` of `k` permutations form a valid smaller
//!   signature ([`MinHashSignature::prefix`]), so one persisted size
//!   ([`SIGNATURE_K`]) serves any configured `k ≤ SIGNATURE_K`.
//!
//! [`LshIndex`] adds the standard bands × rows bucketing over signatures for
//! sub-quadratic candidate generation: two sets land in the same bucket of
//! some band with probability `1 − (1 − J^rows)^bands`.

use crate::row::RowHash;
use std::collections::HashMap;

/// Number of permutations per-column signatures are built (and persisted)
/// with. Configured signature sizes larger than this are clamped; smaller
/// sizes use a [`MinHashSignature::prefix`] of the stored signature.
pub const SIGNATURE_K: usize = 64;

/// Fold a 128-bit row/value hash to the 64-bit domain signatures permute.
#[inline]
fn fold(hash: RowHash) -> u64 {
    (hash.0 as u64) ^ ((hash.0 >> 64) as u64)
}

/// The `i`-th hash permutation: xor-multiply-shift (splitmix-derived
/// constants), distinct per permutation index.
#[inline]
fn permute(hash: u64, i: u64) -> u64 {
    let mut x = hash ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A MinHash signature: the minimum hash value under `k` independent hash
/// functions (implemented as xor-multiply-shift permutations of the 128-bit
/// row hash folded to 64 bits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHashSignature {
    mins: Vec<u64>,
    /// Number of distinct elements the signature was built from. For merged
    /// (union-folded) signatures this is the *sum* of the inputs'
    /// cardinalities — an upper bound on the union's true cardinality, the
    /// conservative direction for the containment estimators.
    pub cardinality: usize,
}

impl MinHashSignature {
    /// Build a signature with `k` permutations from an iterator of row hashes.
    pub fn build<I: IntoIterator<Item = RowHash>>(hashes: I, k: usize) -> Self {
        assert!(k > 0, "need at least one permutation");
        let mut mins = vec![u64::MAX; k];
        let mut seen = std::collections::HashSet::new();
        for h in hashes {
            let folded = fold(h);
            seen.insert(folded);
            for (i, slot) in mins.iter_mut().enumerate() {
                let p = permute(folded, i as u64);
                if p < *slot {
                    *slot = p;
                }
            }
        }
        MinHashSignature {
            mins,
            cardinality: seen.len(),
        }
    }

    /// The empty-set signature with `k` permutations (all minima at
    /// `u64::MAX`, cardinality 0).
    pub fn empty(k: usize) -> Self {
        assert!(k > 0, "need at least one permutation");
        MinHashSignature {
            mins: vec![u64::MAX; k],
            cardinality: 0,
        }
    }

    /// Reassemble a signature from its stored parts (the storage footer
    /// codec's decode hook). `mins` must be non-empty.
    pub fn from_parts(mins: Vec<u64>, cardinality: usize) -> Self {
        assert!(!mins.is_empty(), "need at least one permutation");
        MinHashSignature { mins, cardinality }
    }

    /// The per-permutation minima (the storage footer codec's encode hook).
    pub fn mins(&self) -> &[u64] {
        &self.mins
    }

    /// Fold one **previously unseen** value hash into the signature,
    /// incrementing the cardinality. The caller is responsible for
    /// deduplication (the stats pass gates on its exact distinct set);
    /// inserting a duplicate would leave the minima correct but inflate
    /// `cardinality`.
    pub fn insert_value_hash(&mut self, hash: RowHash) {
        let folded = fold(hash);
        for (i, slot) in self.mins.iter_mut().enumerate() {
            let p = permute(folded, i as u64);
            if p < *slot {
                *slot = p;
            }
        }
        self.cardinality += 1;
    }

    /// Union-fold `other` into `self`: element-wise minimum of the minima
    /// (exactly the signature of the union of the two value sets) and the
    /// sum of the cardinalities (an upper bound on the union's cardinality).
    /// Panics when the signature sizes differ.
    pub fn merge_with(&mut self, other: &MinHashSignature) {
        assert_eq!(self.len(), other.len(), "signatures must use the same k");
        for (slot, &m) in self.mins.iter_mut().zip(&other.mins) {
            if m < *slot {
                *slot = m;
            }
        }
        self.cardinality += other.cardinality;
    }

    /// The first `k` permutations as a standalone signature (a valid MinHash
    /// signature of the same set, because each permutation is independent of
    /// the total count). `k` is clamped to `1..=len`.
    pub fn prefix(&self, k: usize) -> MinHashSignature {
        let k = k.clamp(1, self.len());
        MinHashSignature {
            mins: self.mins[..k].to_vec(),
            cardinality: self.cardinality,
        }
    }

    /// Number of permutations.
    pub fn len(&self) -> usize {
        self.mins.len()
    }

    /// Whether the signature is empty (zero elements hashed).
    pub fn is_empty(&self) -> bool {
        self.cardinality == 0
    }

    /// Estimated Jaccard similarity with another signature (fraction of
    /// matching minima).
    pub fn jaccard(&self, other: &MinHashSignature) -> f64 {
        assert_eq!(self.len(), other.len(), "signatures must use the same k");
        if self.is_empty() && other.is_empty() {
            return 1.0;
        }
        let matches = self
            .mins
            .iter()
            .zip(&other.mins)
            .filter(|(a, b)| a == b)
            .count();
        matches as f64 / self.len() as f64
    }

    /// Estimated containment of `self`'s set in `other`'s set, via the
    /// Jaccard-to-containment conversion LSH-Ensemble uses:
    /// `C ≈ J·(|A| + |B|) / (|A|·(1 + J))`.
    pub fn containment_in(&self, other: &MinHashSignature) -> f64 {
        if self.cardinality == 0 {
            return 1.0;
        }
        let j = self.jaccard(other);
        let a = self.cardinality as f64;
        let b = other.cardinality as f64;
        (j * (a + b) / (a * (1.0 + j))).clamp(0.0, 1.0)
    }

    /// Domination-based containment estimate of `self`'s set `A` in
    /// `other`'s set `B`, with a one-sided guarantee: **if `A ⊆ B` the
    /// result is exactly `1.0`** (so thresholding at any value ≤ 1 never
    /// rejects a true containment pair).
    ///
    /// A coordinate where `A`'s minimum is *strictly below* `B`'s proves the
    /// element attaining it is in `A` but not `B` — a containment
    /// counterexample. The fraction `f` of such coordinates estimates
    /// `|A \ B| / |A ∪ B|`; solving with `|A ∪ B| = |A \ B| + |B|` gives
    /// `|A \ B| ≈ f·|B| / (1 − f)` and the estimate `1 − |A \ B| / |A|`,
    /// clamped to `[0, 1]`. Panics when the signature sizes differ.
    pub fn containment_estimate_in(&self, other: &MinHashSignature) -> f64 {
        assert_eq!(self.len(), other.len(), "signatures must use the same k");
        if self.cardinality == 0 {
            return 1.0;
        }
        let dominated = self
            .mins
            .iter()
            .zip(&other.mins)
            .filter(|(a, b)| a < b)
            .count();
        if dominated == 0 {
            return 1.0;
        }
        let f = dominated as f64 / self.len() as f64;
        if f >= 1.0 {
            return 0.0;
        }
        let a = self.cardinality as f64;
        let b = other.cardinality as f64;
        let a_minus_b = f * b / (1.0 - f);
        (1.0 - a_minus_b / a).clamp(0.0, 1.0)
    }

    /// One bucket hash per band: band `b` hashes minima
    /// `[b·rows, (b+1)·rows)` together (FNV-style fold seeded by the band
    /// index). Two sets whose signatures agree on every row of some band get
    /// equal hashes for that band. Requires `bands·rows ≤ len`.
    pub fn band_hashes(&self, bands: usize, rows: usize) -> Vec<u64> {
        assert!(bands > 0 && rows > 0, "bands and rows must be positive");
        assert!(
            bands * rows <= self.len(),
            "bands*rows ({}) exceeds signature size ({})",
            bands * rows,
            self.len()
        );
        (0..bands)
            .map(|b| {
                let mut h =
                    0xcbf2_9ce4_8422_2325u64 ^ (b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for &m in &self.mins[b * rows..(b + 1) * rows] {
                    h = (h ^ m).wrapping_mul(0x0000_0100_0000_01B3);
                }
                h
            })
            .collect()
    }
}

/// An LSH-banded index over MinHash signatures: `bands` buckets maps, each
/// keyed by the hash of `rows` consecutive signature minima. Two inserted
/// sets become candidates of each other iff they collide in at least one
/// band — probability `1 − (1 − J^rows)^bands` for Jaccard similarity `J`.
#[derive(Debug, Clone)]
pub struct LshIndex {
    bands: usize,
    rows: usize,
    buckets: Vec<HashMap<u64, Vec<u64>>>,
}

impl LshIndex {
    /// An empty index with the given banding scheme.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands > 0 && rows > 0, "bands and rows must be positive");
        LshIndex {
            bands,
            rows,
            buckets: vec![HashMap::new(); bands],
        }
    }

    /// The banding scheme as `(bands, rows)`.
    pub fn scheme(&self) -> (usize, usize) {
        (self.bands, self.rows)
    }

    /// Insert `id` under its signature's band hashes. The signature must
    /// have at least `bands·rows` permutations.
    pub fn insert(&mut self, id: u64, signature: &MinHashSignature) {
        for (band, h) in signature
            .band_hashes(self.bands, self.rows)
            .into_iter()
            .enumerate()
        {
            self.buckets[band].entry(h).or_default().push(id);
        }
    }

    /// Every inserted id sharing at least one band bucket with `signature`,
    /// deduplicated and sorted (deterministic across insert orders).
    pub fn candidates(&self, signature: &MinHashSignature) -> Vec<u64> {
        let mut out: Vec<u64> = signature
            .band_hashes(self.bands, self.rows)
            .into_iter()
            .enumerate()
            .filter_map(|(band, h)| self.buckets[band].get(&h))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(vals: impl IntoIterator<Item = u128>, k: usize) -> MinHashSignature {
        MinHashSignature::build(vals.into_iter().map(RowHash), k)
    }

    #[test]
    fn incremental_insert_matches_batch_build() {
        let values: Vec<u128> = (0..200).map(|i| i * 7 + 3).collect();
        let batch = sig(values.clone(), SIGNATURE_K);
        let mut incremental = MinHashSignature::empty(SIGNATURE_K);
        for &v in &values {
            incremental.insert_value_hash(RowHash(v));
        }
        assert_eq!(batch, incremental);
    }

    #[test]
    fn merge_is_the_union_signature() {
        let a: Vec<u128> = (0..100).collect();
        let b: Vec<u128> = (50..180).collect();
        let mut merged = sig(a.clone(), 32);
        merged.merge_with(&sig(b.clone(), 32));
        let union = sig(a.into_iter().chain(b), 32);
        assert_eq!(merged.mins(), union.mins(), "minima fold exactly");
        assert_eq!(merged.cardinality, 230, "cardinality sums (upper bound)");
    }

    #[test]
    fn prefix_is_the_smaller_signature() {
        let values: Vec<u128> = (0..150).collect();
        let big = sig(values.clone(), 64);
        let small = sig(values, 16);
        assert_eq!(big.prefix(16), small);
        assert_eq!(big.prefix(0).len(), 1, "clamped to at least one");
        assert_eq!(big.prefix(99).len(), 64, "clamped to len");
    }

    #[test]
    fn true_containment_estimates_exactly_one() {
        for (child, parent) in [
            ((0..50u128), (0..500u128)),
            ((10..11), (0..1000)),
            ((0..300), (0..300)),
        ] {
            let c = sig(child, SIGNATURE_K);
            let p = sig(parent, SIGNATURE_K);
            assert_eq!(
                c.containment_estimate_in(&p),
                1.0,
                "a subset's minima never dominate the superset's"
            );
        }
    }

    #[test]
    fn empty_child_estimates_one_and_disjoint_sets_estimate_low() {
        let empty = MinHashSignature::empty(SIGNATURE_K);
        let p = sig(0..100u128, SIGNATURE_K);
        assert_eq!(empty.containment_estimate_in(&p), 1.0);
        let c = sig(10_000..10_200u128, SIGNATURE_K);
        let est = c.containment_estimate_in(&p);
        assert!(est < 0.35, "disjoint sets should estimate low, got {est}");
        // Non-empty child vs empty parent: every coordinate dominates.
        assert_eq!(c.containment_estimate_in(&empty), 0.0);
    }

    #[test]
    fn partial_overlap_estimate_is_intermediate() {
        let c = sig(0..200u128, 64);
        let p = sig(100..900u128, 64);
        let est = c.containment_estimate_in(&p);
        assert!(
            est > 0.1 && est < 0.95,
            "true containment 0.5, estimate {est}"
        );
    }

    #[test]
    fn from_parts_round_trips() {
        let s = sig(0..40u128, 16);
        let back = MinHashSignature::from_parts(s.mins().to_vec(), s.cardinality);
        assert_eq!(s, back);
    }

    #[test]
    fn band_hashes_are_deterministic_and_band_distinct() {
        let s = sig(0..80u128, 64);
        let h1 = s.band_hashes(8, 4);
        let h2 = s.band_hashes(8, 4);
        assert_eq!(h1, h2);
        assert_eq!(h1.len(), 8);
        // Different bands over the same minima should (essentially always)
        // hash differently thanks to the band-index seed.
        let constant = MinHashSignature::from_parts(vec![7u64; 64], 1);
        let hc = constant.band_hashes(4, 4);
        assert!(hc.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    #[should_panic(expected = "exceeds signature size")]
    fn oversized_banding_panics() {
        sig(0..10u128, 8).band_hashes(4, 4);
    }

    #[test]
    fn lsh_index_finds_similar_sets() {
        let mut index = LshIndex::new(8, 4);
        let a = sig(0..300u128, 64);
        let near = sig(0..290u128, 64); // Jaccard ~0.97
        let far = sig(50_000..50_300u128, 64); // disjoint
        index.insert(1, &a);
        index.insert(2, &near);
        index.insert(3, &far);
        let cands = index.candidates(&a);
        assert!(cands.contains(&1), "identical set always collides");
        assert!(
            cands.contains(&2),
            "J≈0.97 collides with overwhelming probability at 8x4"
        );
        assert!(!cands.contains(&3), "disjoint set shares no band");
        assert_eq!(index.scheme(), (8, 4));
    }
}
