//! Data lake transformations (§6.1.1 of the paper).
//!
//! Derived datasets in real data lakes are produced by processing existing
//! ones; the paper simulates this with a fixed repertoire of transformations
//! and we do the same. Each [`Transform`], when applied to a source table,
//! yields a [`TransformOutcome`]: the derived table, a human-readable
//! description (this plays the role of the "human input" transformation
//! knowledge required for safe deletion in §5.1), and the
//! [`ContainmentEffect`] the transformation has by construction — which the
//! corpus generator uses to produce the expected (ground-truth) containment
//! edges.

use crate::zipf::Zipf;
use r2d2_lake::{Column, DataType, Field, LakeError, Result, Schema, Table, Value};
use rand::Rng;

/// The containment relation a transformation induces between the source
/// table `S` and the derived table `D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainmentEffect {
    /// `D ⊆ S`: the derived table is contained in the source
    /// (row sampling, projections).
    DerivedInSource,
    /// `S ⊆ D`: the source is contained in the derived table
    /// (adding rows, adding derived columns).
    SourceInDerived,
    /// `D ≡ S` as row multisets over the source schema (sorting / shuffling):
    /// containment holds in both directions.
    Equivalent,
    /// No containment relation is guaranteed (noise injection).
    None,
}

/// A transformation applied to a source table.
#[derive(Debug, Clone, PartialEq)]
pub enum Transform {
    /// `SELECT * FROM src WHERE col = value`, with the filter value drawn
    /// from the column's distinct values via a Zipf distribution with the
    /// given exponent. Size reduction via sampling.
    SampleWhere {
        /// Zipf exponent controlling the skew of filter-value selection.
        zipf_exponent: f64,
    },
    /// Keep a uniformly random fraction of the rows.
    SampleFraction {
        /// Fraction of rows to keep, in `(0, 1]`.
        fraction: f64,
    },
    /// Append `count` new rows whose values are drawn from each column's
    /// existing value distribution.
    AddRows {
        /// Number of rows to append.
        count: usize,
    },
    /// Add a derived numeric column that is a linear combination of the
    /// source's numeric columns.
    AddDerivedColumn,
    /// Add uniform noise of the given magnitude to one numeric column.
    AddNoise {
        /// Maximum absolute perturbation added to each value.
        magnitude: f64,
    },
    /// Replace every float column's values with fresh uniform draws strictly
    /// inside the column's existing `[min, max)` range, keeping all other
    /// columns verbatim. Containment is broken (the new rows almost surely
    /// exist nowhere else) but the schema and every min/max range still
    /// nest inside the source's — the "impostor" datasets that survive
    /// schema and min-max pruning and can only be rejected at content level.
    ResampleInRange,
    /// Sort by one column (chosen at random). Spark does not preserve row
    /// order, so this is containment-equivalent to the source.
    SortByColumn,
    /// Drop `count` columns (keeping at least one).
    DropColumns {
        /// Number of columns to drop.
        count: usize,
    },
    /// Schema drift: rename one column by appending a `_v<n>` version
    /// suffix (collision-avoided), keeping all data verbatim. Breaks schema
    /// containment in both directions — the renamed column exists nowhere
    /// else — which is exactly what dataset copies renamed across update
    /// streams look like in a real lake.
    RenameColumn,
    /// Null-flood: replace a random `fraction` of all cells (across every
    /// column) with NULL. Stresses presence bitmaps, null-heavy statistics
    /// and the CSV empty-cell path.
    NullFlood {
        /// Fraction of cells nulled out, in `(0, 1]`.
        fraction: f64,
    },
    /// Decorate every value of one string column with unicode (combining
    /// accents, CJK, emoji, RTL text) drawn from a fixed pool. Stresses
    /// dictionary pages, CSV quoting and UTF-8 validation end to end.
    UnicodeDecorate,
    /// Type drift: turn one `Int` column into a `Float` column where every
    /// third non-null value becomes a genuine float (`v + 0.5`) and the
    /// rest keep their `Int` variant — the mixed-variant shape that forces
    /// the storage layer's tagged page fallback and the CSV reader's
    /// int-in-float widening.
    WidenIntToFloat,
}

/// The result of applying a [`Transform`].
#[derive(Debug, Clone)]
pub struct TransformOutcome {
    /// The derived table.
    pub table: Table,
    /// Human-readable description of the transformation (recorded as lineage).
    pub description: String,
    /// The containment relation the transformation guarantees.
    pub effect: ContainmentEffect,
}

/// Columns usable as WHERE filter keys: non-float types with at least one
/// non-null value (float equality filters are brittle).
fn filter_candidates(table: &Table) -> Vec<String> {
    table
        .schema()
        .fields()
        .iter()
        .filter(|f| {
            matches!(
                f.data_type,
                DataType::Int | DataType::Utf8 | DataType::Timestamp | DataType::Bool
            )
        })
        .filter(|f| {
            table
                .column(&f.name)
                .map(|c| c.stats().distinct_count > 0)
                .unwrap_or(false)
        })
        .map(|f| f.name.clone())
        .collect()
}

impl Transform {
    /// Apply the transformation to `source`, using `rng` for all random
    /// choices. Returns an error only when the transformation is impossible
    /// for the given table (e.g. sampling an empty table, deriving a column
    /// when there are no numeric columns).
    pub fn apply<R: Rng + ?Sized>(&self, source: &Table, rng: &mut R) -> Result<TransformOutcome> {
        match self {
            Transform::SampleWhere { zipf_exponent } => {
                let candidates = filter_candidates(source);
                if candidates.is_empty() || source.is_empty() {
                    return Err(LakeError::InvalidArgument(
                        "no usable filter column for SampleWhere".to_string(),
                    ));
                }
                let col_name = candidates[rng.gen_range(0..candidates.len())].clone();
                let col = source.column(&col_name)?;
                // Distinct values ranked by frequency; Zipf picks one.
                let mut counts: std::collections::HashMap<&Value, usize> =
                    std::collections::HashMap::new();
                for v in col.values().iter().filter(|v| !v.is_null()) {
                    *counts.entry(v).or_insert(0) += 1;
                }
                let mut ranked: Vec<(&Value, usize)> = counts.into_iter().collect();
                // Tie-break equal frequencies by value: a frequency-only sort
                // leaves ties in HashMap iteration order, which differs
                // between map instances and would make same-seed corpus
                // generation non-reproducible.
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(b.0)));
                let zipf = Zipf::new(ranked.len(), *zipf_exponent);
                let value = ranked[zipf.sample(rng)].0.clone();
                let keep: Vec<usize> = (0..source.num_rows())
                    .filter(|&i| col.get(i) == Some(&value))
                    .collect();
                let table = source.take(&keep)?;
                Ok(TransformOutcome {
                    table,
                    description: format!("SELECT * WHERE {col_name} = {value}"),
                    effect: ContainmentEffect::DerivedInSource,
                })
            }
            Transform::SampleFraction { fraction } => {
                if !(*fraction > 0.0 && *fraction <= 1.0) {
                    return Err(LakeError::InvalidArgument(
                        "fraction must be in (0,1]".to_string(),
                    ));
                }
                let n = source.num_rows();
                let k = ((n as f64) * fraction).round().max(1.0) as usize;
                let k = k.min(n);
                if n == 0 {
                    return Err(LakeError::InvalidArgument(
                        "cannot sample an empty table".to_string(),
                    ));
                }
                let mut idx: Vec<usize> = (0..n).collect();
                // Partial Fisher-Yates shuffle for the first k positions.
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    idx.swap(i, j);
                }
                idx.truncate(k);
                idx.sort_unstable();
                let table = source.take(&idx)?;
                Ok(TransformOutcome {
                    table,
                    description: format!("SAMPLE {:.0}% of rows", fraction * 100.0),
                    effect: ContainmentEffect::DerivedInSource,
                })
            }
            Transform::AddRows { count } => {
                if source.is_empty() {
                    return Err(LakeError::InvalidArgument(
                        "cannot extend an empty table".to_string(),
                    ));
                }
                let n = source.num_rows();
                let mut new_columns = Vec::with_capacity(source.num_columns());
                for col in source.columns() {
                    // New values are drawn from the column's empirical
                    // distribution (sample existing cells with replacement).
                    let values: Vec<Value> = (0..*count)
                        .map(|_| col.values()[rng.gen_range(0..n)].clone())
                        .collect();
                    new_columns.push(Column::new(col.data_type(), values)?);
                }
                let extra = Table::new(source.schema().clone(), new_columns)?;
                let table = source.concat(&extra)?;
                Ok(TransformOutcome {
                    table,
                    description: format!(
                        "UNION ALL {count} rows sampled from column distributions"
                    ),
                    effect: ContainmentEffect::SourceInDerived,
                })
            }
            Transform::AddDerivedColumn => {
                let numeric: Vec<&Field> = source
                    .schema()
                    .fields()
                    .iter()
                    .filter(|f| matches!(f.data_type, DataType::Int | DataType::Float))
                    .collect();
                if numeric.is_empty() {
                    return Err(LakeError::InvalidArgument(
                        "no numeric columns to derive from".to_string(),
                    ));
                }
                let a = numeric[rng.gen_range(0..numeric.len())].name.clone();
                let b = numeric[rng.gen_range(0..numeric.len())].name.clone();
                let (wa, wb) = (rng.gen_range(0.5..2.0), rng.gen_range(0.5..2.0));
                let ca = source.column(&a)?;
                let cb = source.column(&b)?;
                let values: Vec<Value> = (0..source.num_rows())
                    .map(|i| {
                        match (
                            ca.get(i).and_then(Value::as_f64),
                            cb.get(i).and_then(Value::as_f64),
                        ) {
                            (Some(x), Some(y)) => Value::Float(wa * x + wb * y),
                            _ => Value::Null,
                        }
                    })
                    .collect();
                let mut name = format!("derived_{a}_{b}").replace('.', "_");
                // Avoid collision with an existing column.
                while source.schema().index_of(&name).is_some() {
                    name.push('_');
                }
                let table = source.with_column(
                    Field::new(name.clone(), DataType::Float),
                    Column::new(DataType::Float, values)?,
                )?;
                Ok(TransformOutcome {
                    table,
                    description: format!("ADD COLUMN {name} = {wa:.2}*{a} + {wb:.2}*{b}"),
                    effect: ContainmentEffect::SourceInDerived,
                })
            }
            Transform::AddNoise { magnitude } => {
                let numeric: Vec<String> = source
                    .schema()
                    .fields()
                    .iter()
                    .filter(|f| matches!(f.data_type, DataType::Float))
                    .map(|f| f.name.clone())
                    .collect();
                if numeric.is_empty() || source.is_empty() {
                    return Err(LakeError::InvalidArgument(
                        "no float column to perturb".to_string(),
                    ));
                }
                let target = numeric[rng.gen_range(0..numeric.len())].clone();
                let mut columns = Vec::with_capacity(source.num_columns());
                for (field, col) in source.schema().fields().iter().zip(source.columns()) {
                    if field.name == target {
                        let values: Vec<Value> = col
                            .values()
                            .iter()
                            .map(|v| match v.as_f64() {
                                Some(x) => Value::Float(x + rng.gen_range(-*magnitude..*magnitude)),
                                None => v.clone(),
                            })
                            .collect();
                        columns.push(Column::new(DataType::Float, values)?);
                    } else {
                        columns.push(col.clone());
                    }
                }
                let table = Table::new(source.schema().clone(), columns)?;
                Ok(TransformOutcome {
                    table,
                    description: format!("ADD NOISE(±{magnitude}) TO {target}"),
                    effect: ContainmentEffect::None,
                })
            }
            Transform::ResampleInRange => {
                let float_cols: Vec<String> = source
                    .schema()
                    .fields()
                    .iter()
                    .filter(|f| f.data_type == DataType::Float)
                    .map(|f| f.name.clone())
                    .collect();
                if source.is_empty() {
                    return Err(LakeError::InvalidArgument(
                        "cannot resample an empty table".to_string(),
                    ));
                }
                // Every float column needs a non-degenerate range, otherwise
                // the draw below could not stay strictly inside it.
                let resampleable: Vec<&String> = float_cols
                    .iter()
                    .filter(|name| {
                        let stats = source.column(name).map(Column::stats);
                        matches!(
                            stats.map(|s| (s.min.clone(), s.max.clone())),
                            Ok((Some(min), Some(max)))
                                if matches!((min.as_f64(), max.as_f64()),
                                    (Some(lo), Some(hi)) if lo < hi)
                        )
                    })
                    .collect();
                if resampleable.is_empty() {
                    return Err(LakeError::InvalidArgument(
                        "no float column with a non-degenerate range to resample".to_string(),
                    ));
                }
                let mut columns = Vec::with_capacity(source.num_columns());
                for (field, col) in source.schema().fields().iter().zip(source.columns()) {
                    if resampleable.iter().any(|n| **n == field.name) {
                        let (lo, hi) = {
                            let s = col.stats();
                            (
                                s.min.as_ref().and_then(Value::as_f64).expect("checked"),
                                s.max.as_ref().and_then(Value::as_f64).expect("checked"),
                            )
                        };
                        let values: Vec<Value> = col
                            .values()
                            .iter()
                            .map(|v| {
                                if v.is_null() {
                                    Value::Null
                                } else {
                                    // [lo, hi) keeps the derived range nested
                                    // inside the source's, so min-max pruning
                                    // cannot reject the derived dataset.
                                    Value::Float(rng.gen_range(lo..hi))
                                }
                            })
                            .collect();
                        columns.push(Column::new(DataType::Float, values)?);
                    } else {
                        columns.push(col.clone());
                    }
                }
                let table = Table::new(source.schema().clone(), columns)?;
                Ok(TransformOutcome {
                    table,
                    description: format!(
                        "RESAMPLE {} float columns WITHIN RANGE",
                        resampleable.len()
                    ),
                    effect: ContainmentEffect::None,
                })
            }
            Transform::SortByColumn => {
                if source.num_columns() == 0 {
                    return Err(LakeError::InvalidArgument(
                        "no columns to sort by".to_string(),
                    ));
                }
                let idx = rng.gen_range(0..source.num_columns());
                let name = source.schema().fields()[idx].name.clone();
                let table = source.sort_by(&name)?;
                Ok(TransformOutcome {
                    table,
                    description: format!("SORT BY {name}"),
                    effect: ContainmentEffect::Equivalent,
                })
            }
            Transform::DropColumns { count } => {
                if source.num_columns() <= *count {
                    return Err(LakeError::InvalidArgument(
                        "cannot drop that many columns".to_string(),
                    ));
                }
                let mut names: Vec<String> = source
                    .schema()
                    .names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                // Drop `count` random columns.
                for _ in 0..*count {
                    let i = rng.gen_range(0..names.len());
                    names.remove(i);
                }
                let keep: Vec<&str> = names.iter().map(String::as_str).collect();
                let table = source.project(&keep)?;
                Ok(TransformOutcome {
                    table,
                    description: format!("SELECT {} columns (projection)", keep.len()),
                    effect: ContainmentEffect::DerivedInSource,
                })
            }
            Transform::RenameColumn => {
                if source.num_columns() == 0 {
                    return Err(LakeError::InvalidArgument(
                        "no columns to rename".to_string(),
                    ));
                }
                let idx = rng.gen_range(0..source.num_columns());
                let old = source.schema().fields()[idx].name.clone();
                let mut n = 2;
                let mut renamed = format!("{old}_v{n}");
                while source.schema().index_of(&renamed).is_some() {
                    n += 1;
                    renamed = format!("{old}_v{n}");
                }
                let fields: Vec<Field> = source
                    .schema()
                    .fields()
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        if i == idx {
                            Field::new(renamed.clone(), f.data_type)
                        } else {
                            f.clone()
                        }
                    })
                    .collect();
                let table = Table::new(Schema::new(fields)?, source.columns().to_vec())?;
                Ok(TransformOutcome {
                    table,
                    description: format!("RENAME COLUMN {old} TO {renamed}"),
                    effect: ContainmentEffect::None,
                })
            }
            Transform::NullFlood { fraction } => {
                if !(*fraction > 0.0 && *fraction <= 1.0) {
                    return Err(LakeError::InvalidArgument(
                        "fraction must be in (0,1]".to_string(),
                    ));
                }
                if source.is_empty() {
                    return Err(LakeError::InvalidArgument(
                        "cannot null-flood an empty table".to_string(),
                    ));
                }
                let mut columns = Vec::with_capacity(source.num_columns());
                for col in source.columns() {
                    let values: Vec<Value> = col
                        .values()
                        .iter()
                        .map(|v| {
                            if rng.gen_bool(*fraction) {
                                Value::Null
                            } else {
                                v.clone()
                            }
                        })
                        .collect();
                    columns.push(Column::new(col.data_type(), values)?);
                }
                let table = Table::new(source.schema().clone(), columns)?;
                Ok(TransformOutcome {
                    table,
                    description: format!("NULL-FLOOD {:.0}% of cells", fraction * 100.0),
                    effect: ContainmentEffect::None,
                })
            }
            Transform::UnicodeDecorate => {
                const DECOR: [(&str, &str); 6] = [
                    ("héllo—", "—ñé"),
                    ("データ_", "_値"),
                    ("🦀", "🧪"),
                    ("Ω≈", "≈µ"),
                    ("\u{202e}txet\u{202c}·", "·e\u{0301}"),
                    ("«", ", quoted»"),
                ];
                let string_cols: Vec<String> = source
                    .schema()
                    .fields()
                    .iter()
                    .filter(|f| f.data_type == DataType::Utf8)
                    .map(|f| f.name.clone())
                    .collect();
                if string_cols.is_empty() || source.is_empty() {
                    return Err(LakeError::InvalidArgument(
                        "no string column to decorate".to_string(),
                    ));
                }
                let target = string_cols[rng.gen_range(0..string_cols.len())].clone();
                let (prefix, suffix) = DECOR[rng.gen_range(0..DECOR.len())];
                let mut columns = Vec::with_capacity(source.num_columns());
                for (field, col) in source.schema().fields().iter().zip(source.columns()) {
                    if field.name == target {
                        let values: Vec<Value> = col
                            .values()
                            .iter()
                            .map(|v| match v {
                                Value::Str(s) => Value::Str(format!("{prefix}{s}{suffix}")),
                                other => other.clone(),
                            })
                            .collect();
                        columns.push(Column::new(DataType::Utf8, values)?);
                    } else {
                        columns.push(col.clone());
                    }
                }
                let table = Table::new(source.schema().clone(), columns)?;
                Ok(TransformOutcome {
                    table,
                    description: format!("UNICODE-DECORATE {target} WITH {prefix}…{suffix}"),
                    effect: ContainmentEffect::None,
                })
            }
            Transform::WidenIntToFloat => {
                let int_cols: Vec<String> = source
                    .schema()
                    .fields()
                    .iter()
                    .filter(|f| f.data_type == DataType::Int)
                    .map(|f| f.name.clone())
                    .collect();
                if int_cols.is_empty() || source.is_empty() {
                    return Err(LakeError::InvalidArgument(
                        "no int column to widen".to_string(),
                    ));
                }
                let target = int_cols[rng.gen_range(0..int_cols.len())].clone();
                let mut columns = Vec::with_capacity(source.num_columns());
                let fields: Vec<Field> = source
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| {
                        if f.name == target {
                            Field::new(f.name.clone(), DataType::Float)
                        } else {
                            f.clone()
                        }
                    })
                    .collect();
                for (field, col) in source.schema().fields().iter().zip(source.columns()) {
                    if field.name == target {
                        let mut nonnull = 0usize;
                        let values: Vec<Value> = col
                            .values()
                            .iter()
                            .map(|v| match v {
                                Value::Int(x) => {
                                    nonnull += 1;
                                    // Every third value becomes a genuine
                                    // float so the column holds mixed
                                    // Int/Float variants (tagged pages).
                                    if nonnull.is_multiple_of(3) {
                                        Value::Float(*x as f64 + 0.5)
                                    } else {
                                        Value::Int(*x)
                                    }
                                }
                                other => other.clone(),
                            })
                            .collect();
                        columns.push(Column::new(DataType::Float, values)?);
                    } else {
                        columns.push(col.clone());
                    }
                }
                let table = Table::new(Schema::new(fields)?, columns)?;
                Ok(TransformOutcome {
                    table,
                    description: format!("WIDEN {target} Int -> Float (mixed variants)"),
                    effect: ContainmentEffect::None,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roots::transactions;
    use r2d2_lake::query::containment_check;
    use r2d2_lake::{Meter, PartitionedTable};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn source() -> Table {
        let mut rng = SmallRng::seed_from_u64(42);
        transactions(120, 1, &mut rng)
    }

    fn check(child: &Table, parent: &Table) -> bool {
        containment_check(
            &PartitionedTable::single(child.clone()),
            &PartitionedTable::single(parent.clone()),
            &Meter::new(),
        )
        .map(|c| c.is_exact())
        .unwrap_or(false)
    }

    #[test]
    fn sample_where_produces_contained_subset() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(1);
        let out = Transform::SampleWhere { zipf_exponent: 1.2 }
            .apply(&src, &mut rng)
            .unwrap();
        assert_eq!(out.effect, ContainmentEffect::DerivedInSource);
        assert!(out.table.num_rows() > 0);
        assert!(out.table.num_rows() < src.num_rows());
        assert!(check(&out.table, &src));
        assert!(out.description.starts_with("SELECT * WHERE"));
    }

    #[test]
    fn sample_fraction_contained() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(2);
        let out = Transform::SampleFraction { fraction: 0.25 }
            .apply(&src, &mut rng)
            .unwrap();
        assert_eq!(out.table.num_rows(), 30);
        assert!(check(&out.table, &src));
        assert!(Transform::SampleFraction { fraction: 0.0 }
            .apply(&src, &mut rng)
            .is_err());
    }

    #[test]
    fn add_rows_makes_source_contained_in_derived() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(3);
        let out = Transform::AddRows { count: 30 }
            .apply(&src, &mut rng)
            .unwrap();
        assert_eq!(out.effect, ContainmentEffect::SourceInDerived);
        assert_eq!(out.table.num_rows(), 150);
        assert!(check(&src, &out.table));
    }

    #[test]
    fn add_derived_column_keeps_source_contained() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(4);
        let out = Transform::AddDerivedColumn.apply(&src, &mut rng).unwrap();
        assert_eq!(out.effect, ContainmentEffect::SourceInDerived);
        assert_eq!(out.table.num_columns(), src.num_columns() + 1);
        // The source (narrower schema) is contained in the derived table.
        assert!(check(&src, &out.table));
    }

    #[test]
    fn add_noise_breaks_containment() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(5);
        let out = Transform::AddNoise { magnitude: 50.0 }
            .apply(&src, &mut rng)
            .unwrap();
        assert_eq!(out.effect, ContainmentEffect::None);
        assert!(!check(&out.table, &src), "noisy rows must not be contained");
    }

    #[test]
    fn resample_in_range_breaks_containment_but_keeps_ranges_nested() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(11);
        let out = Transform::ResampleInRange.apply(&src, &mut rng).unwrap();
        assert_eq!(out.effect, ContainmentEffect::None);
        assert_eq!(out.table.schema(), src.schema(), "schema is preserved");
        assert_eq!(out.table.num_rows(), src.num_rows());
        assert!(
            !check(&out.table, &src),
            "resampled rows must not be contained"
        );
        // Min-max pruning cannot reject the impostor: every float range
        // nests strictly inside the source's.
        for f in src.schema().fields() {
            if f.data_type != DataType::Float {
                // Non-float columns are untouched.
                assert_eq!(
                    out.table.column(&f.name).unwrap().values(),
                    src.column(&f.name).unwrap().values()
                );
                continue;
            }
            let s = src.column(&f.name).unwrap().stats();
            let d = out.table.column(&f.name).unwrap().stats();
            let (smin, smax) = (s.min.clone().unwrap(), s.max.clone().unwrap());
            let (dmin, dmax) = (d.min.clone().unwrap(), d.max.clone().unwrap());
            assert!(dmin.total_cmp(&smin) != std::cmp::Ordering::Less);
            assert!(dmax.total_cmp(&smax) != std::cmp::Ordering::Greater);
        }
        // Degenerate inputs fail cleanly.
        let empty = src.take(&[]).unwrap();
        assert!(Transform::ResampleInRange.apply(&empty, &mut rng).is_err());
    }

    #[test]
    fn sort_is_equivalent() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(6);
        let out = Transform::SortByColumn.apply(&src, &mut rng).unwrap();
        assert_eq!(out.effect, ContainmentEffect::Equivalent);
        assert!(check(&out.table, &src));
        assert!(check(&src, &out.table));
    }

    #[test]
    fn drop_columns_projection_contained() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(7);
        let out = Transform::DropColumns { count: 2 }
            .apply(&src, &mut rng)
            .unwrap();
        assert_eq!(out.table.num_columns(), src.num_columns() - 2);
        assert!(check(&out.table, &src));
        assert!(Transform::DropColumns { count: 99 }
            .apply(&src, &mut rng)
            .is_err());
    }

    #[test]
    fn transforms_fail_gracefully_on_empty_tables() {
        let empty = source().take(&[]).unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        assert!(Transform::SampleWhere { zipf_exponent: 1.0 }
            .apply(&empty, &mut rng)
            .is_err());
        assert!(Transform::AddRows { count: 5 }
            .apply(&empty, &mut rng)
            .is_err());
        assert!(Transform::AddNoise { magnitude: 1.0 }
            .apply(&empty, &mut rng)
            .is_err());
    }

    #[test]
    fn rename_column_drifts_schema_and_keeps_data() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(20);
        let out = Transform::RenameColumn.apply(&src, &mut rng).unwrap();
        assert_eq!(out.effect, ContainmentEffect::None);
        assert_ne!(out.table.schema(), src.schema());
        assert_eq!(out.table.num_rows(), src.num_rows());
        // Exactly one name changed, with a _v suffix; columns are verbatim.
        let changed: Vec<_> = out
            .table
            .schema()
            .names()
            .into_iter()
            .filter(|n| src.schema().index_of(n).is_none())
            .collect();
        assert_eq!(changed.len(), 1);
        assert!(changed[0].contains("_v"));
        // Renaming is repeatable without name collisions.
        let again = Transform::RenameColumn.apply(&out.table, &mut rng).unwrap();
        assert_eq!(again.table.num_columns(), src.num_columns());
    }

    #[test]
    fn null_flood_nulls_cells() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(21);
        let out = Transform::NullFlood { fraction: 0.5 }
            .apply(&src, &mut rng)
            .unwrap();
        assert_eq!(out.table.schema(), src.schema());
        let nulls: usize = out
            .table
            .columns()
            .iter()
            .map(|c| c.stats().null_count)
            .sum();
        let before: usize = src.columns().iter().map(|c| c.stats().null_count).sum();
        assert!(nulls > before, "null-flood must add nulls");
        assert!(Transform::NullFlood { fraction: 1.5 }
            .apply(&src, &mut rng)
            .is_err());
    }

    #[test]
    fn unicode_decorate_rewrites_a_string_column() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(22);
        let out = Transform::UnicodeDecorate.apply(&src, &mut rng).unwrap();
        assert_eq!(out.table.schema(), src.schema());
        let decorated = out
            .table
            .columns()
            .iter()
            .flat_map(|c| c.values().iter())
            .filter(|v| matches!(v, Value::Str(s) if !s.is_ascii()))
            .count();
        assert!(decorated > 0, "some string cells must gain unicode");
    }

    #[test]
    fn widen_int_to_float_mixes_variants() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(23);
        let out = Transform::WidenIntToFloat.apply(&src, &mut rng).unwrap();
        // Exactly one column changed type Int -> Float...
        let widened: Vec<_> = out
            .table
            .schema()
            .fields()
            .iter()
            .filter(|f| {
                f.data_type == DataType::Float
                    && matches!(src.schema().data_type(&f.name), Ok(DataType::Int))
            })
            .collect();
        assert_eq!(widened.len(), 1);
        // ...and it holds both Int and Float variants (the tagged-page shape).
        let col = out.table.column(&widened[0].name).unwrap();
        let ints = col
            .values()
            .iter()
            .filter(|v| matches!(v, Value::Int(_)))
            .count();
        let floats = col
            .values()
            .iter()
            .filter(|v| matches!(v, Value::Float(_)))
            .count();
        assert!(ints > 0 && floats > 0, "{ints} ints, {floats} floats");
    }

    #[test]
    fn derived_column_name_collision_avoided() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(9);
        let once = Transform::AddDerivedColumn.apply(&src, &mut rng).unwrap();
        // Applying again may pick the same pair; must not fail on collision.
        let twice = Transform::AddDerivedColumn
            .apply(&once.table, &mut rng)
            .unwrap();
        assert_eq!(twice.table.num_columns(), src.num_columns() + 2);
    }
}
