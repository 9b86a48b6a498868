//! Schema- and content-similarity statistics over a data lake.
//!
//! §1.2 of the paper motivates R2D2 with two observations about enterprise
//! data: (i) the distribution of pairwise *schema containment* varies widely
//! across customer orgs (Fig. 2 shows histograms for two orgs), and (ii)
//! tables with identical schemas often hold very different values — "over
//! 20% of table pairs have normalized quantiles that are at least 50%
//! different". This module computes both statistics so the experiment
//! harness can regenerate Fig. 2 and the §1.2 quantile analysis on the
//! synthetic corpora.

use r2d2_lake::stats::{normalized_quantile_distance, numeric_quantiles, PAPER_QUANTILE_FRACTIONS};
use r2d2_lake::{DataLake, Meter, Result, SchemaSet};

/// A histogram over `[0, 1]` with equal-width buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket counts; bucket `i` covers `[i/n, (i+1)/n)`, the last bucket is
    /// closed on the right.
    pub buckets: Vec<usize>,
    /// Number of observations.
    pub total: usize,
}

impl Histogram {
    /// Build a histogram with `n_buckets` buckets from values in `[0, 1]`.
    pub fn from_values(values: &[f64], n_buckets: usize) -> Self {
        assert!(n_buckets > 0, "need at least one bucket");
        let mut buckets = vec![0usize; n_buckets];
        for &v in values {
            let v = v.clamp(0.0, 1.0);
            let mut idx = (v * n_buckets as f64) as usize;
            if idx == n_buckets {
                idx -= 1;
            }
            buckets[idx] += 1;
        }
        Histogram {
            buckets,
            total: values.len(),
        }
    }

    /// Fraction of observations in each bucket.
    pub fn normalized(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.buckets.len()];
        }
        self.buckets
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

/// Pairwise schema containment fractions for every ordered pair `(A, B)`
/// with `|A.schema| ≤ |B.schema|` — the quantity whose histogram Fig. 2
/// plots. Returns `(pairs, fractions)` where `pairs[i]` is the (smaller,
/// larger) dataset-id pair behind `fractions[i]`.
pub fn schema_containment_fractions(schemas: &[(u64, SchemaSet)]) -> (Vec<(u64, u64)>, Vec<f64>) {
    let mut pairs = Vec::new();
    let mut fractions = Vec::new();
    for (i, (id_a, sa)) in schemas.iter().enumerate() {
        for (id_b, sb) in schemas.iter().skip(i + 1) {
            // CM(smaller, larger)
            let (small_id, small, large_id, large) = if sa.len() <= sb.len() {
                (*id_a, sa, *id_b, sb)
            } else {
                (*id_b, sb, *id_a, sa)
            };
            pairs.push((small_id, large_id));
            fractions.push(small.containment_fraction(large));
        }
    }
    (pairs, fractions)
}

/// Histogram of pairwise schema containment for a lake (Fig. 2 for one org).
pub fn schema_containment_histogram(lake: &DataLake, n_buckets: usize) -> Histogram {
    let schemas: Vec<(u64, SchemaSet)> = lake
        .iter()
        .map(|e| (e.id.0, e.data.schema().schema_set()))
        .collect();
    let (_, fractions) = schema_containment_fractions(&schemas);
    Histogram::from_values(&fractions, n_buckets)
}

/// Result of the §1.2 quantile-divergence analysis over same-schema pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuantileDivergence {
    /// Number of table pairs with identical schemas that were compared.
    pub same_schema_pairs: usize,
    /// Of those, the number whose average normalised quantile distance is at
    /// least `threshold`.
    pub divergent_pairs: usize,
    /// The divergence threshold used (the paper uses 0.5, i.e. "at least 50%
    /// different").
    pub threshold: f64,
}

impl QuantileDivergence {
    /// Fraction of same-schema pairs that are divergent.
    pub fn divergent_fraction(&self) -> f64 {
        if self.same_schema_pairs == 0 {
            0.0
        } else {
            self.divergent_pairs as f64 / self.same_schema_pairs as f64
        }
    }
}

/// For every pair of datasets with identical schemas, compute the average
/// normalised quantile distance over their numeric columns and count how
/// many pairs exceed `threshold` (§1.2 uses 0.5).
pub fn quantile_divergence(
    lake: &DataLake,
    threshold: f64,
    meter: &Meter,
) -> Result<QuantileDivergence> {
    let entries: Vec<_> = lake.iter().collect();
    let mut result = QuantileDivergence {
        threshold,
        ..Default::default()
    };
    for (i, a) in entries.iter().enumerate() {
        for b in entries.iter().skip(i + 1) {
            let sa = a.data.schema().schema_set();
            let sb = b.data.schema().schema_set();
            if sa != sb {
                continue;
            }
            result.same_schema_pairs += 1;
            // Average quantile distance over numeric columns.
            let ta = a.data.to_table(meter)?;
            let tb = b.data.to_table(meter)?;
            let mut total = 0.0;
            let mut n = 0usize;
            for field in ta.schema().fields() {
                if !field.data_type.is_numeric() {
                    continue;
                }
                let qa =
                    numeric_quantiles(ta.column(&field.name)?.values(), &PAPER_QUANTILE_FRACTIONS);
                let qb =
                    numeric_quantiles(tb.column(&field.name)?.values(), &PAPER_QUANTILE_FRACTIONS);
                if let Some(d) = normalized_quantile_distance(&qa, &qb) {
                    total += d;
                    n += 1;
                }
            }
            if n > 0 && total / n as f64 >= threshold {
                result.divergent_pairs += 1;
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_lake::{AccessProfile, Column, DataType, PartitionedTable, Schema, Table};

    #[test]
    fn histogram_bucketing() {
        let h = Histogram::from_values(&[0.0, 0.05, 0.5, 0.99, 1.0], 10);
        assert_eq!(h.total, 5);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[5], 1);
        assert_eq!(h.buckets[9], 2, "1.0 falls in the last bucket");
        let norm = h.normalized();
        assert!((norm.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::from_values(&[], 4);
        assert_eq!(h.total, 0);
        assert_eq!(h.normalized(), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_zero_buckets_panics() {
        Histogram::from_values(&[0.5], 0);
    }

    #[test]
    fn containment_fractions_pairwise() {
        let schemas = vec![
            (1, SchemaSet::from_names(["a", "b", "c"])),
            (2, SchemaSet::from_names(["a", "b"])),
            (3, SchemaSet::from_names(["x"])),
        ];
        let (pairs, fractions) = schema_containment_fractions(&schemas);
        assert_eq!(pairs.len(), 3);
        // (2,1): {a,b} fully inside {a,b,c} → 1.0
        let idx = pairs.iter().position(|&p| p == (2, 1)).unwrap();
        assert_eq!(fractions[idx], 1.0);
        // (3,1): {x} vs {a,b,c} → 0.0
        let idx = pairs.iter().position(|&p| p == (3, 1)).unwrap();
        assert_eq!(fractions[idx], 0.0);
    }

    fn lake_with_two_same_schema_tables(shift: f64) -> DataLake {
        let schema = Schema::flat(&[("v", DataType::Float)]).unwrap();
        let a = Table::new(
            schema.clone(),
            vec![Column::from_floats((0..50).map(|i| i as f64))],
        )
        .unwrap();
        let b = Table::new(
            schema,
            vec![Column::from_floats((0..50).map(|i| i as f64 + shift))],
        )
        .unwrap();
        let mut lake = DataLake::new();
        lake.add_dataset(
            "a",
            PartitionedTable::single(a),
            AccessProfile::default(),
            None,
        )
        .unwrap();
        lake.add_dataset(
            "b",
            PartitionedTable::single(b),
            AccessProfile::default(),
            None,
        )
        .unwrap();
        lake
    }

    #[test]
    fn quantile_divergence_detects_shifted_distributions() {
        let lake = lake_with_two_same_schema_tables(10_000.0);
        let d = quantile_divergence(&lake, 0.5, &Meter::new()).unwrap();
        assert_eq!(d.same_schema_pairs, 1);
        assert_eq!(d.divergent_pairs, 1);
        assert_eq!(d.divergent_fraction(), 1.0);
    }

    #[test]
    fn quantile_divergence_ignores_similar_distributions() {
        let lake = lake_with_two_same_schema_tables(0.0);
        let d = quantile_divergence(&lake, 0.5, &Meter::new()).unwrap();
        assert_eq!(d.same_schema_pairs, 1);
        assert_eq!(d.divergent_pairs, 0);
        assert_eq!(d.divergent_fraction(), 0.0);
    }

    #[test]
    fn schema_histogram_over_lake() {
        let lake = lake_with_two_same_schema_tables(1.0);
        let h = schema_containment_histogram(&lake, 10);
        assert_eq!(h.total, 1);
        assert_eq!(h.buckets[9], 1, "identical schemas → containment 1.0");
    }
}
