//! Column statistics: min / max / null count / distinct estimates / quantiles.
//!
//! Min-Max Pruning (Algorithm 2 of the paper) relies on the columnar minimum
//! and maximum that parquet keeps in partition-level metadata; §1.2 also uses
//! column quantiles (at fractions 0, 0.5, 0.8, 0.95, 1) to show that equal
//! schemas do not imply similar content. Both are provided here and are
//! computed once when a table or partition is built, then served from
//! metadata without touching rows — the meter in [`crate::meter`] verifies
//! that pruning stages really only read metadata.

use crate::sketch::ColumnSketch;
use crate::value::Value;

/// Per-column statistics kept as table / partition metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Minimum non-null value, if any non-null value exists.
    pub min: Option<Value>,
    /// Maximum non-null value, if any non-null value exists.
    pub max: Option<Value>,
    /// Number of NULL cells.
    pub null_count: usize,
    /// Total number of cells (rows).
    pub row_count: usize,
    /// Exact number of distinct non-null values (the substrate is in-memory,
    /// so exact counting is affordable; a real lake would store an estimate).
    pub distinct_count: usize,
    /// Bloom sketch over the hashes of the non-null values (no false
    /// negatives), built in the same pass that counts distinct values.
    pub sketch: ColumnSketch,
}

impl ColumnStats {
    /// Compute statistics over a slice of values.
    pub fn compute(values: &[Value]) -> Self {
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut null_count = 0usize;
        let mut distinct = std::collections::HashSet::new();
        let mut sketch = ColumnSketch::new();
        for v in values {
            if v.is_null() {
                null_count += 1;
                continue;
            }
            let hash = crate::row::hash_values(&[v]);
            // The sketch only changes on first sight of a value, so gating it
            // on the exact distinct set skips the (idempotent) re-inserts.
            if distinct.insert(hash) {
                sketch.insert(hash);
            }
            min = Some(match min.take() {
                None => v.clone(),
                Some(m) => {
                    if v.total_cmp(&m) == std::cmp::Ordering::Less {
                        v.clone()
                    } else {
                        m
                    }
                }
            });
            max = Some(match max.take() {
                None => v.clone(),
                Some(m) => {
                    if v.total_cmp(&m) == std::cmp::Ordering::Greater {
                        v.clone()
                    } else {
                        m
                    }
                }
            });
        }
        ColumnStats {
            min,
            max,
            null_count,
            row_count: values.len(),
            distinct_count: distinct.len(),
            sketch,
        }
    }

    /// Merge statistics of two chunks of the same column (used when merging
    /// partition metadata into table-level metadata).
    pub fn merge(&self, other: &ColumnStats) -> ColumnStats {
        let pick_min = |a: &Option<Value>, b: &Option<Value>| match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some(x), Some(y)) => Some(if x.total_cmp(y) == std::cmp::Ordering::Less {
                x.clone()
            } else {
                y.clone()
            }),
        };
        let pick_max = |a: &Option<Value>, b: &Option<Value>| match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some(x), Some(y)) => Some(if x.total_cmp(y) == std::cmp::Ordering::Greater {
                x.clone()
            } else {
                y.clone()
            }),
        };
        let mut sketch = self.sketch.clone();
        sketch.union_with(&other.sketch);
        ColumnStats {
            min: pick_min(&self.min, &other.min),
            max: pick_max(&self.max, &other.max),
            null_count: self.null_count + other.null_count,
            row_count: self.row_count + other.row_count,
            // Distinct counts are not mergeable exactly without the values;
            // the merged figure is an upper bound, which is what metadata
            // stores in real systems too. (The sketch, by contrast, merges
            // exactly: the OR of two bloom filters is the bloom filter of
            // the union.)
            distinct_count: self.distinct_count + other.distinct_count,
            sketch,
        }
    }

    /// Returns `true` when the min-max range of `child` could possibly be
    /// contained in the range of `parent` — the necessary condition checked
    /// by Min-Max Pruning. When either side lacks statistics (all-null
    /// column) the check is inconclusive and returns `true` (no pruning).
    pub fn range_could_be_contained(child: &ColumnStats, parent: &ColumnStats) -> bool {
        match (&child.min, &child.max, &parent.min, &parent.max) {
            (Some(cmin), Some(cmax), Some(pmin), Some(pmax)) => {
                cmin.total_cmp(pmin) != std::cmp::Ordering::Less
                    && cmax.total_cmp(pmax) != std::cmp::Ordering::Greater
            }
            _ => true,
        }
    }
}

/// Quantiles of a numeric column at the fractions used in §1.2 of the paper
/// (0, 0.5, 0.8, 0.95, 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Quantiles {
    /// The quantile fractions, in ascending order.
    pub fractions: Vec<f64>,
    /// The quantile values (same length as `fractions`); `None` when the
    /// column has no non-null numeric values.
    pub values: Vec<Option<f64>>,
}

/// Standard fractions from §1.2 of the paper.
pub const PAPER_QUANTILE_FRACTIONS: [f64; 5] = [0.0, 0.5, 0.8, 0.95, 1.0];

/// Compute quantiles of the numeric interpretation of a column at the given
/// fractions (nearest-rank method). Non-numeric and NULL cells are skipped.
pub fn numeric_quantiles(values: &[Value], fractions: &[f64]) -> Quantiles {
    let mut nums: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
    nums.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let values = fractions
        .iter()
        .map(|&q| {
            if nums.is_empty() {
                None
            } else {
                let idx = ((q * (nums.len() - 1) as f64).round() as usize).min(nums.len() - 1);
                Some(nums[idx])
            }
        })
        .collect();
    Quantiles {
        fractions: fractions.to_vec(),
        values,
    }
}

/// Normalised L1 distance between two quantile vectors, the measure used in
/// §1.2 ("over 20% of table pairs have normalized quantiles that are at least
/// 50% different"). Returns `None` when either side has no numeric values.
pub fn normalized_quantile_distance(a: &Quantiles, b: &Quantiles) -> Option<f64> {
    if a.values.len() != b.values.len() {
        return None;
    }
    let mut total = 0.0;
    let mut n = 0usize;
    for (x, y) in a.values.iter().zip(&b.values) {
        match (x, y) {
            (Some(x), Some(y)) => {
                let denom = x.abs().max(y.abs()).max(1e-12);
                total += (x - y).abs() / denom;
                n += 1;
            }
            _ => return None,
        }
    }
    if n == 0 {
        None
    } else {
        Some(total / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn compute_basic_stats() {
        let vals = vec![
            Value::Int(5),
            Value::Null,
            Value::Int(-2),
            Value::Int(5),
            Value::Int(9),
        ];
        let s = ColumnStats::compute(&vals);
        assert_eq!(s.min, Some(Value::Int(-2)));
        assert_eq!(s.max, Some(Value::Int(9)));
        assert_eq!(s.null_count, 1);
        assert_eq!(s.row_count, 5);
        assert_eq!(s.distinct_count, 3);
    }

    #[test]
    fn all_null_column_has_no_range() {
        let s = ColumnStats::compute(&[Value::Null, Value::Null]);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.null_count, 2);
    }

    #[test]
    fn compute_builds_the_value_sketch() {
        let s = ColumnStats::compute(&ints(&[1, 2, 3]));
        for v in [1i64, 2, 3] {
            assert!(s
                .sketch
                .contains(crate::row::hash_values(&[&Value::Int(v)])));
        }
        assert!(s.sketch.min_distinct() >= 1);
        assert!(s.sketch.min_distinct() <= 3, "lower bound stays sound");
        // Nulls are not inserted.
        let empty = ColumnStats::compute(&[Value::Null, Value::Null]);
        assert!(empty.sketch.is_empty());
    }

    #[test]
    fn merge_unions_sketches() {
        let a = ColumnStats::compute(&ints(&[1, 2]));
        let b = ColumnStats::compute(&ints(&[3]));
        let m = a.merge(&b);
        let full = ColumnStats::compute(&ints(&[1, 2, 3]));
        assert_eq!(m.sketch, full.sketch, "merged sketch == single-pass sketch");
    }

    #[test]
    fn merge_combines_ranges() {
        let a = ColumnStats::compute(&ints(&[1, 2, 3]));
        let b = ColumnStats::compute(&ints(&[-5, 10]));
        let m = a.merge(&b);
        assert_eq!(m.min, Some(Value::Int(-5)));
        assert_eq!(m.max, Some(Value::Int(10)));
        assert_eq!(m.row_count, 5);
    }

    #[test]
    fn merge_with_empty_side() {
        let a = ColumnStats::compute(&ints(&[1, 2]));
        let e = ColumnStats::compute(&[Value::Null]);
        let m = a.merge(&e);
        assert_eq!(m.min, Some(Value::Int(1)));
        assert_eq!(m.null_count, 1);
    }

    #[test]
    fn range_containment_check() {
        let child = ColumnStats::compute(&ints(&[2, 3, 4]));
        let parent = ColumnStats::compute(&ints(&[0, 10]));
        let narrow = ColumnStats::compute(&ints(&[3]));
        assert!(ColumnStats::range_could_be_contained(&child, &parent));
        assert!(!ColumnStats::range_could_be_contained(&parent, &child));
        assert!(ColumnStats::range_could_be_contained(&narrow, &child));
    }

    #[test]
    fn range_check_inconclusive_when_stats_missing() {
        let child = ColumnStats::compute(&[Value::Null]);
        let parent = ColumnStats::compute(&ints(&[1, 2]));
        assert!(ColumnStats::range_could_be_contained(&child, &parent));
        assert!(ColumnStats::range_could_be_contained(&parent, &child));
    }

    #[test]
    fn string_min_max() {
        let vals = vec![
            Value::Str("pear".into()),
            Value::Str("apple".into()),
            Value::Str("zebra".into()),
        ];
        let s = ColumnStats::compute(&vals);
        assert_eq!(s.min, Some(Value::Str("apple".into())));
        assert_eq!(s.max, Some(Value::Str("zebra".into())));
    }

    #[test]
    fn quantiles_nearest_rank() {
        let q = numeric_quantiles(
            &ints(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            &PAPER_QUANTILE_FRACTIONS,
        );
        assert_eq!(q.values[0], Some(1.0));
        assert_eq!(q.values[4], Some(10.0));
        assert_eq!(q.values[1], Some(6.0)); // round(0.5*9)=5 -> value 6
    }

    #[test]
    fn quantiles_empty_column() {
        let q = numeric_quantiles(&[Value::Str("x".into())], &PAPER_QUANTILE_FRACTIONS);
        assert!(q.values.iter().all(Option::is_none));
    }

    #[test]
    fn quantile_distance_zero_for_identical() {
        let a = numeric_quantiles(&ints(&[1, 2, 3]), &PAPER_QUANTILE_FRACTIONS);
        let d = normalized_quantile_distance(&a, &a).unwrap();
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn quantile_distance_large_for_shifted() {
        let a = numeric_quantiles(&ints(&[1, 2, 3]), &PAPER_QUANTILE_FRACTIONS);
        let b = numeric_quantiles(&ints(&[100, 200, 300]), &PAPER_QUANTILE_FRACTIONS);
        let d = normalized_quantile_distance(&a, &b).unwrap();
        assert!(d > 0.5);
    }

    #[test]
    fn quantile_distance_none_when_missing() {
        let a = numeric_quantiles(&ints(&[1]), &PAPER_QUANTILE_FRACTIONS);
        let b = numeric_quantiles(&[Value::Str("x".into())], &PAPER_QUANTILE_FRACTIONS);
        assert!(normalized_quantile_distance(&a, &b).is_none());
    }
}
