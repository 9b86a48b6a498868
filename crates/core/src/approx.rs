//! Approximate dataset relatedness (§7.2 of the paper).
//!
//! The main pipeline targets *exact* containment (`CM = 1`). §7.2 discusses
//! two relaxations that this module implements as extensions:
//!
//! * **Approximate schema containment** (§7.2.1): column names such as
//!   `Phone`, `Mobile` and `Work Phone` may denote the same attribute. When
//!   a canonical token list is available (through human input), schema
//!   tokens can be mapped to canonical values before containment is checked.
//!   [`TokenCanonicalizer`] implements that lookup-based mapping.
//! * **Approximate content containment** (§7.2.2): CLP-style sampling can
//!   estimate the containment fraction `CM(child, parent) < 1` with a
//!   confidence interval rather than merely disproving exactness.
//!   [`estimate_containment`] draws uniform samples of the child and probes
//!   the parent, returning a point estimate plus a Hoeffding-style bound.

use r2d2_lake::query::{left_anti_join, random_rows};
use r2d2_lake::{Meter, PartitionedTable, Result, SchemaSet};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Maps schema tokens to canonical names using an explicit, human-provided
/// synonym table (the paper argues embeddings are too error-prone for
/// enterprise schemas, so only exact lookups are applied).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TokenCanonicalizer {
    /// lowercase token → canonical name
    synonyms: BTreeMap<String, String>,
}

impl TokenCanonicalizer {
    /// Create an empty canonicalizer (identity mapping).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a synonym: `token` will map to `canonical`. Matching is
    /// case-insensitive on the final path segment of a flattened column name.
    pub fn add_synonym(&mut self, token: impl Into<String>, canonical: impl Into<String>) {
        self.synonyms
            .insert(token.into().to_lowercase(), canonical.into());
    }

    /// Bulk registration.
    pub fn with_synonyms<I, A, B>(mut self, pairs: I) -> Self
    where
        I: IntoIterator<Item = (A, B)>,
        A: Into<String>,
        B: Into<String>,
    {
        for (a, b) in pairs {
            self.add_synonym(a, b);
        }
        self
    }

    /// Canonicalise one flattened column name: the last path segment is
    /// replaced by its canonical form when a synonym is registered.
    pub fn canonicalize(&self, column: &str) -> String {
        match column.rsplit_once('.') {
            Some((prefix, last)) => {
                let mapped = self
                    .synonyms
                    .get(&last.to_lowercase())
                    .cloned()
                    .unwrap_or_else(|| last.to_string());
                format!("{prefix}.{mapped}")
            }
            None => self
                .synonyms
                .get(&column.to_lowercase())
                .cloned()
                .unwrap_or_else(|| column.to_string()),
        }
    }

    /// Canonicalise a whole schema set.
    pub fn canonicalize_set(&self, set: &SchemaSet) -> SchemaSet {
        SchemaSet::from_names(set.iter().map(|c| self.canonicalize(c)))
    }

    /// Approximate schema containment fraction after canonicalisation:
    /// `CM(child, parent)` on the mapped schema sets.
    pub fn schema_containment(&self, child: &SchemaSet, parent: &SchemaSet) -> f64 {
        self.canonicalize_set(child)
            .containment_fraction(&self.canonicalize_set(parent))
    }
}

/// An estimated containment fraction with a two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainmentEstimate {
    /// Point estimate of `CM(child, parent)` (fraction of sampled child rows
    /// found in the parent).
    pub estimate: f64,
    /// Lower bound of the confidence interval (clamped to `[0, 1]`).
    pub lower: f64,
    /// Upper bound of the confidence interval (clamped to `[0, 1]`).
    pub upper: f64,
    /// Number of samples the estimate is based on.
    pub samples: usize,
    /// Confidence level used for the interval (e.g. 0.95).
    pub confidence: f64,
}

impl ContainmentEstimate {
    /// Whether the interval is consistent with exact containment (CM = 1).
    pub fn could_be_exact(&self) -> bool {
        self.upper >= 1.0 - 1e-12
    }
}

/// Estimate `CM(child, parent)` by sampling `samples` child rows uniformly
/// (with the lake's point-read cost model) and probing the parent with a
/// left-anti join on the child's columns. The confidence interval is the
/// Hoeffding bound `±sqrt(ln(2/α) / (2n))` at level `confidence = 1 − α`.
pub fn estimate_containment(
    child: &PartitionedTable,
    parent: &PartitionedTable,
    samples: usize,
    confidence: f64,
    seed: u64,
    meter: &Meter,
) -> Result<ContainmentEstimate> {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1)"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let sample = random_rows(child, samples, &mut rng, meter)?;
    let n = sample.num_rows();
    if n == 0 {
        return Ok(ContainmentEstimate {
            estimate: 1.0,
            lower: 0.0,
            upper: 1.0,
            samples: 0,
            confidence,
        });
    }
    let child_cols_owned: Vec<String> = child
        .schema()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cols: Vec<&str> = child_cols_owned.iter().map(String::as_str).collect();
    let missing = left_anti_join(&sample, parent, &cols, meter)?;
    let hit = n - missing.num_rows();
    let estimate = hit as f64 / n as f64;
    let alpha = 1.0 - confidence;
    let half_width = ((2.0 / alpha).ln() / (2.0 * n as f64)).sqrt();
    Ok(ContainmentEstimate {
        estimate,
        lower: (estimate - half_width).max(0.0),
        upper: (estimate + half_width).min(1.0),
        samples: n,
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{Column, DataType, Schema, Table};

    fn canon() -> TokenCanonicalizer {
        TokenCanonicalizer::new().with_synonyms([
            ("mobile", "phone_number"),
            ("work phone", "phone_number"),
            ("phone", "phone_number"),
        ])
    }

    #[test]
    fn canonicalize_single_tokens_and_paths() {
        let c = canon();
        assert_eq!(c.canonicalize("Mobile"), "phone_number");
        assert_eq!(c.canonicalize("contact.Phone"), "contact.phone_number");
        assert_eq!(c.canonicalize("contact.email"), "contact.email");
    }

    #[test]
    fn approx_schema_containment_with_synonyms() {
        let c = canon();
        let child = SchemaSet::from_names(["name", "Mobile"]);
        let parent = SchemaSet::from_names(["name", "phone", "address"]);
        // Without canonicalisation, containment is 0.5; with it, 1.0.
        assert!((child.containment_fraction(&parent) - 0.5).abs() < 1e-12);
        assert!((c.schema_containment(&child, &parent) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_tokens_are_not_merged() {
        // "work phone" and "home phone" must not be collapsed unless the
        // human-provided table says so (§7.2.1's caution).
        let c = canon();
        let child = SchemaSet::from_names(["home phone"]);
        let parent = SchemaSet::from_names(["phone"]);
        assert_eq!(c.schema_containment(&child, &parent), 0.0);
    }

    fn tables(overlap: usize, total: usize) -> (PartitionedTable, PartitionedTable) {
        // Parent holds ids 0..1000; child holds `overlap` ids inside the
        // parent and `total - overlap` ids outside.
        let schema = Schema::flat(&[("id", DataType::Int)]).unwrap();
        let parent = Table::new(schema.clone(), vec![Column::from_ints(0..1000)]).unwrap();
        let mut child_ids: Vec<i64> = (0..overlap as i64).collect();
        child_ids.extend((0..(total - overlap) as i64).map(|i| 10_000 + i));
        let child = Table::new(schema, vec![Column::from_ints(child_ids)]).unwrap();
        (
            PartitionedTable::single(child),
            PartitionedTable::single(parent),
        )
    }

    #[test]
    fn estimate_full_containment() {
        let (child, parent) = tables(100, 100);
        let est = estimate_containment(&child, &parent, 50, 0.95, 1, &Meter::new()).unwrap();
        assert_eq!(est.estimate, 1.0);
        assert!(est.could_be_exact());
        assert_eq!(est.samples, 50);
    }

    #[test]
    fn estimate_partial_containment() {
        let (child, parent) = tables(50, 100); // true CM = 0.5
        let est = estimate_containment(&child, &parent, 100, 0.95, 2, &Meter::new()).unwrap();
        assert!(
            est.estimate > 0.2 && est.estimate < 0.8,
            "estimate {}",
            est.estimate
        );
        assert!(est.lower <= est.estimate && est.estimate <= est.upper);
        assert!(!est.could_be_exact() || est.upper < 1.0 + 1e-9);
    }

    #[test]
    fn estimate_zero_containment() {
        let (child, parent) = tables(0, 60);
        let est = estimate_containment(&child, &parent, 60, 0.99, 3, &Meter::new()).unwrap();
        assert_eq!(est.estimate, 0.0);
        assert!(!est.could_be_exact());
    }

    #[test]
    fn empty_child_is_trivially_exact() {
        let schema = Schema::flat(&[("id", DataType::Int)]).unwrap();
        let child = PartitionedTable::single(Table::empty(schema.clone()));
        let parent =
            PartitionedTable::single(Table::new(schema, vec![Column::from_ints(0..5)]).unwrap());
        let est = estimate_containment(&child, &parent, 10, 0.95, 4, &Meter::new()).unwrap();
        assert_eq!(est.samples, 0);
        assert!(est.could_be_exact());
    }

    #[test]
    fn interval_narrows_with_more_samples() {
        let (child, parent) = tables(80, 100);
        let small = estimate_containment(&child, &parent, 10, 0.95, 5, &Meter::new()).unwrap();
        let large = estimate_containment(&child, &parent, 100, 0.95, 5, &Meter::new()).unwrap();
        assert!(
            (large.upper - large.lower) < (small.upper - small.lower),
            "more samples → tighter interval"
        );
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn invalid_confidence_panics() {
        let (child, parent) = tables(1, 1);
        let _ = estimate_containment(&child, &parent, 1, 1.5, 0, &Meter::new());
    }
}
