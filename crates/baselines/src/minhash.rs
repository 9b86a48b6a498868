//! MinHash / LSH-Ensemble style containment estimation (§2's related work).
//!
//! LSHEnsemble \[31\] estimates *containment* between sets using MinHash
//! signatures partitioned by set size. The paper argues the approach does not
//! transfer to table-level containment at data-lake scale because the "sets"
//! would be entire tables (hundreds of millions of rows), making signature
//! construction itself a full scan per table — but it is still a useful
//! accuracy baseline at small scale, and the experiment harness uses it to
//! show the trade-off. Signatures are built over row-tuple hashes projected
//! onto the child schema (the same canonical row identity the rest of the
//! system uses).

use r2d2_lake::{Meter, PartitionedTable, Result, RowHash};

/// The `i`-th hash permutation: xor-multiply-shift (splitmix-derived
/// constants), distinct per permutation index.
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
    /// Number of distinct elements the signature was built from.
    pub cardinality: usize,
}

impl MinHashSignature {
    /// Build a signature with `k` permutations from an iterator of row hashes.
    pub fn build<I: IntoIterator<Item = RowHash>>(hashes: I, k: usize) -> Self {
        assert!(k > 0, "need at least one permutation");
        let mut mins = vec![u64::MAX; k];
        let mut seen = std::collections::HashSet::new();
        for h in hashes {
            let folded = (h.0 as u64) ^ ((h.0 >> 64) as u64);
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
}

/// Estimate the containment of `child` in `parent` via MinHash signatures
/// over row hashes projected onto the child's schema. Both tables are fully
/// scanned to build the signatures (metered), which is exactly the cost the
/// paper says makes this family of approaches unattractive at TB scale.
///
/// Named `minhash_containment` to keep it distinct from the pipeline's
/// §7.2.2 sampling estimator [`r2d2_core::approx::estimate_containment`]:
/// this one approximates with sketches over full scans, that one with exact
/// anti-joins over samples.
pub fn minhash_containment(
    child: &PartitionedTable,
    parent: &PartitionedTable,
    k: usize,
    meter: &Meter,
) -> Result<f64> {
    let child_cols_owned: Vec<String> = child
        .schema()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cols: Vec<&str> = child_cols_owned.iter().map(String::as_str).collect();
    let child_hashes = child.to_table(meter)?.row_hashes(&cols, meter)?;
    let parent_hashes = parent.to_table(meter)?.row_hashes(&cols, meter)?;
    let cs = MinHashSignature::build(child_hashes, k);
    let ps = MinHashSignature::build(parent_hashes, k);
    Ok(cs.containment_in(&ps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{Column, DataType, Schema, Table};

    fn table(ids: std::ops::Range<i64>) -> PartitionedTable {
        let schema = Schema::flat(&[("id", DataType::Int)]).unwrap();
        PartitionedTable::single(Table::new(schema, vec![Column::from_ints(ids)]).unwrap())
    }

    #[test]
    fn identical_sets_estimate_full_containment() {
        let a = table(0..200);
        let est = minhash_containment(&a, &a, 64, &Meter::new()).unwrap();
        assert!(est > 0.95, "estimate {est}");
    }

    #[test]
    fn subset_estimates_high_containment() {
        let child = table(0..100);
        let parent = table(0..400);
        let est = minhash_containment(&child, &parent, 128, &Meter::new()).unwrap();
        assert!(est > 0.7, "true containment is 1.0, estimate {est}");
    }

    #[test]
    fn disjoint_sets_estimate_low_containment() {
        let child = table(0..100);
        let parent = table(10_000..10_400);
        let est = minhash_containment(&child, &parent, 128, &Meter::new()).unwrap();
        assert!(est < 0.3, "true containment is 0.0, estimate {est}");
    }

    #[test]
    fn partial_overlap_estimate_in_between() {
        let child = table(0..100); // half inside parent
        let parent = table(50..450);
        let est = minhash_containment(&child, &parent, 256, &Meter::new()).unwrap();
        assert!(
            est > 0.2 && est < 0.85,
            "true containment 0.5, estimate {est}"
        );
    }

    #[test]
    fn signature_basics() {
        let hashes: Vec<RowHash> = (0..50u128).map(RowHash).collect();
        let sig = MinHashSignature::build(hashes.clone(), 16);
        assert_eq!(sig.len(), 16);
        assert_eq!(sig.cardinality, 50);
        assert!(!sig.is_empty());
        assert!((sig.jaccard(&sig) - 1.0).abs() < 1e-12);

        let empty = MinHashSignature::build(Vec::<RowHash>::new(), 16);
        assert!(empty.is_empty());
        assert_eq!(empty.containment_in(&sig), 1.0);
        assert_eq!(empty.jaccard(&empty), 1.0);
    }

    #[test]
    #[should_panic(expected = "same k")]
    fn mismatched_signature_sizes_panic() {
        let a = MinHashSignature::build(vec![RowHash(1)], 8);
        let b = MinHashSignature::build(vec![RowHash(1)], 16);
        a.jaccard(&b);
    }

    #[test]
    #[should_panic(expected = "at least one permutation")]
    fn zero_permutations_panic() {
        MinHashSignature::build(vec![RowHash(1)], 0);
    }

    #[test]
    fn full_scan_cost_is_metered() {
        let child = table(0..50);
        let parent = table(0..500);
        let meter = Meter::new();
        minhash_containment(&child, &parent, 32, &meter).unwrap();
        assert!(
            meter.snapshot().rows_scanned >= 550,
            "minhash must scan both tables fully"
        );
    }
}
