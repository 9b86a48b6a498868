//! Predicate queries, sampling, anti-joins and containment checks.
//!
//! Content-Level Pruning (Algorithm 3 of the paper) issues queries of the
//! form `SELECT * FROM child WHERE col = value [AND ...] LIMIT t` and then
//! left-anti joins the sampled rows against the parent: if any sampled row is
//! missing from the parent, containment cannot hold and the edge is pruned.
//! This module provides those primitives over [`PartitionedTable`]s, with
//! partition pruning driven by the same min/max metadata that Min-Max Pruning
//! uses, and with every row/byte/metadata access metered.

use crate::catalog::{DataLake, DatasetId};
use crate::error::{LakeError, Result};
use crate::meter::Meter;
use crate::partition::{PartitionMeta, PartitionedTable};
use crate::row::RowHashMap;
use crate::table::Table;
use crate::value::Value;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A predicate over a single table, in the small WHERE-clause language that
/// CLP needs (`col = value`, `col BETWEEN lo AND hi`, conjunctions).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true: selects every row.
    True,
    /// `column = value` (NULL never matches).
    Eq {
        /// Column name.
        column: String,
        /// Value to match.
        value: Value,
    },
    /// `lo <= column <= hi` (inclusive on both ends; NULL never matches).
    Between {
        /// Column name.
        column: String,
        /// Lower bound (inclusive).
        lo: Value,
        /// Upper bound (inclusive).
        hi: Value,
    },
    /// Conjunction of sub-predicates.
    And(Vec<Predicate>),
}

impl Predicate {
    /// Equality predicate helper.
    pub fn eq(column: impl Into<String>, value: Value) -> Self {
        Predicate::Eq {
            column: column.into(),
            value,
        }
    }

    /// Range predicate helper.
    pub fn between(column: impl Into<String>, lo: Value, hi: Value) -> Self {
        Predicate::Between {
            column: column.into(),
            lo,
            hi,
        }
    }

    /// Conjunction helper.
    pub fn and(preds: Vec<Predicate>) -> Self {
        Predicate::And(preds)
    }

    /// Columns referenced by the predicate, deduplicated in first-occurrence
    /// order (an `And` of several clauses over one column names it once, so
    /// callers sampling or metering by referenced column are not inflated).
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::True => {}
            Predicate::Eq { column, .. } | Predicate::Between { column, .. } => {
                if !out.contains(&column.as_str()) {
                    out.push(column.as_str());
                }
            }
            Predicate::And(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
        }
    }

    /// Evaluate the predicate on row `i` of `table`.
    pub fn matches(&self, table: &Table, i: usize) -> Result<bool> {
        Ok(match self {
            Predicate::True => true,
            Predicate::Eq { column, value } => {
                let v = table
                    .column(column)?
                    .get(i)
                    .ok_or_else(|| LakeError::InvalidArgument(format!("row {i} out of range")))?;
                !v.is_null() && v == value
            }
            Predicate::Between { column, lo, hi } => {
                let v = table
                    .column(column)?
                    .get(i)
                    .ok_or_else(|| LakeError::InvalidArgument(format!("row {i} out of range")))?;
                !v.is_null()
                    && v.total_cmp(lo) != Ordering::Less
                    && v.total_cmp(hi) != Ordering::Greater
            }
            Predicate::And(ps) => {
                for p in ps {
                    if !p.matches(table, i)? {
                        return Ok(false);
                    }
                }
                true
            }
        })
    }

    /// Whether the predicate could match any row of a partition, judged only
    /// from the partition's min/max metadata. `true` means "must scan";
    /// `false` means the partition can be pruned without reading it.
    pub fn could_match_partition(&self, meta: &PartitionMeta) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq { column, value } => match meta.column_stats.get(column) {
                Some(stats) => match (&stats.min, &stats.max) {
                    (Some(min), Some(max)) => {
                        value.total_cmp(min) != Ordering::Less
                            && value.total_cmp(max) != Ordering::Greater
                    }
                    _ => stats.null_count < stats.row_count, // no stats → can't prune
                },
                None => true,
            },
            Predicate::Between { column, lo, hi } => match meta.column_stats.get(column) {
                Some(stats) => match (&stats.min, &stats.max) {
                    (Some(min), Some(max)) => {
                        // Ranges [lo,hi] and [min,max] must overlap.
                        hi.total_cmp(min) != Ordering::Less
                            && lo.total_cmp(max) != Ordering::Greater
                    }
                    _ => true,
                },
                None => true,
            },
            Predicate::And(ps) => ps.iter().all(|p| p.could_match_partition(meta)),
        }
    }
}

/// Scan a partitioned table with a predicate, returning at most `limit`
/// matching rows (all of them when `limit` is `None`).
///
/// Partitions whose metadata rules out the predicate are pruned (counted on
/// the meter) without reading their rows; scanned partitions are metered by
/// their full row count, matching the cost of a columnar scan in Spark.
pub fn scan(
    table: &PartitionedTable,
    predicate: &Predicate,
    limit: Option<usize>,
    meter: &Meter,
) -> Result<Table> {
    // Referenced columns are computed once per scan (not per partition) and
    // validated against the schema up front.
    let pred_cols = predicate.columns();
    for c in &pred_cols {
        if table.schema().index_of(c).is_none() {
            return Err(LakeError::ColumnNotFound((*c).to_string()));
        }
    }
    let metadata_lookups_per_partition = pred_cols.len().max(1) as u64;

    // Pass 1: collect the surviving (partition, row indices) pairs.
    let mut selected: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut collected = 0usize;
    'parts: for (pi, (part, meta)) in table
        .partitions()
        .iter()
        .zip(table.partition_meta())
        .enumerate()
    {
        if let Some(lim) = limit {
            if collected >= lim {
                break;
            }
        }
        meter.add_metadata_lookups(metadata_lookups_per_partition);
        if !predicate.could_match_partition(meta) {
            meter.add_partitions_pruned(1);
            continue;
        }
        meter.add_partitions_scanned(1);
        meter.add_rows_scanned(part.num_rows() as u64);
        meter.add_bytes_scanned(part.byte_size() as u64);
        let mut keep = Vec::new();
        for i in 0..part.num_rows() {
            if predicate.matches(part, i)? {
                keep.push(i);
                collected += 1;
                if let Some(lim) = limit {
                    if collected >= lim {
                        selected.push((pi, keep));
                        break 'parts;
                    }
                }
            }
        }
        if !keep.is_empty() {
            selected.push((pi, keep));
        }
    }

    // Pass 2: gather each output column once, pre-sized to the final row
    // count (the old fold over `Table::concat` re-copied the accumulated
    // prefix for every partition — O(P²) values moved).
    gather_rows(table, &selected, collected)
}

/// Build a result table by gathering `(partition index, local row indices)`
/// picks, allocating each output column once at `total` rows.
fn gather_rows(
    table: &PartitionedTable,
    selected: &[(usize, Vec<usize>)],
    total: usize,
) -> Result<Table> {
    let schema = table.schema().clone();
    let columns: Vec<crate::column::Column> = (0..schema.len())
        .map(|ci| {
            let mut values = Vec::with_capacity(total);
            for (pi, keep) in selected {
                let col_values = table.partitions()[*pi]
                    .column_at(ci)
                    .expect("column index in range")
                    .try_values()?;
                values.extend(keep.iter().map(|&i| col_values[i].clone()));
            }
            crate::column::Column::new(schema.fields()[ci].data_type, values)
        })
        .collect::<Result<_>>()?;
    Table::new(schema, columns)
}

/// Count rows matching a predicate (partition-pruned, metered).
pub fn count_matching(
    table: &PartitionedTable,
    predicate: &Predicate,
    meter: &Meter,
) -> Result<usize> {
    Ok(scan(table, predicate, None, meter)?.num_rows())
}

impl DataLake {
    /// Customer-facing query entry point: [`scan`] a catalogued dataset with
    /// the lake's shared meter, tallying the access on the lake's
    /// [`AccessLog`](crate::catalog::AccessLog) so observed traffic can
    /// later refresh the dataset's
    /// [`AccessProfile`](crate::catalog::AccessProfile) (the `A_v` of
    /// Eq. 3).
    pub fn query_dataset(
        &self,
        id: DatasetId,
        predicate: &Predicate,
        limit: Option<usize>,
    ) -> Result<Table> {
        let entry = self.dataset(id)?;
        let result = scan(&entry.data, predicate, limit, self.meter())?;
        // Tally only queries that actually served data — a failed scan
        // (unknown column, …) must not inflate the access estimates that
        // feed the Eq. 3 cost model.
        self.record_access(id);
        Ok(result)
    }
}

/// Uniformly sample `k` rows (without replacement) from a partitioned table.
///
/// The cost model assumes the lake can serve point reads of sampled rows via
/// partition metadata / indexes (the favourable case discussed in §6.6), so
/// only the sampled rows are metered, not a full scan.
pub fn random_rows<R: Rng + ?Sized>(
    table: &PartitionedTable,
    k: usize,
    rng: &mut R,
    meter: &Meter,
) -> Result<Table> {
    let n = table.num_rows();
    let k = k.min(n);
    if k == 0 {
        return Ok(Table::empty(table.schema().clone()));
    }
    // Draw k distinct global indices in O(k) (sparse partial Fisher–Yates),
    // instead of shuffling a full 0..n index vector.
    let chosen = rand::seq::index::sample(rng, n, k).into_vec();

    // Translate global row indices to (partition, local) coordinates and
    // group the picks per partition, so each partition is visited once.
    let mut boundaries = Vec::with_capacity(table.num_partitions());
    let mut acc = 0usize;
    for p in table.partitions() {
        boundaries.push(acc);
        acc += p.num_rows();
    }
    let mut per_partition: Vec<Vec<usize>> = vec![Vec::new(); table.num_partitions()];
    for &g in &chosen {
        let pi = match boundaries.binary_search(&g) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        per_partition[pi].push(g - boundaries[pi]);
    }
    let selected: Vec<(usize, Vec<usize>)> = per_partition
        .into_iter()
        .enumerate()
        .filter(|(_, keep)| !keep.is_empty())
        .collect();

    let out = gather_rows(table, &selected, k)?;
    meter.add_rows_scanned(k as u64);
    meter.add_bytes_scanned(out.byte_size() as u64);
    Ok(out)
}

/// Left-anti join: the rows of `probe` (projected onto `on` columns) that do
/// **not** appear in `build`. This is the `combined = sY.join(x, "left-anti")`
/// step of Algorithm 3; a non-empty result disproves containment.
///
/// The build side is hashed once (full scan, metered); each probe row costs
/// one hash probe (metered as a row comparison).
pub fn left_anti_join(
    probe: &Table,
    build: &PartitionedTable,
    on: &[&str],
    meter: &Meter,
) -> Result<Table> {
    let build_table = build.to_table(meter)?;
    let build_hashes = build_table.row_hash_multiset(on, meter)?;
    anti_join_against(probe, &build_hashes, on, meter)
}

/// Probe-side half of the anti-join, against an already-built hash multiset.
fn anti_join_against(
    probe: &Table,
    build_hashes: &RowHashMap<usize>,
    on: &[&str],
    meter: &Meter,
) -> Result<Table> {
    let probe_hashes = probe.row_hashes(on, meter)?;
    meter.add_row_comparisons(probe_hashes.len() as u64);
    let keep: Vec<usize> = probe_hashes
        .iter()
        .enumerate()
        .filter(|(_, h)| !build_hashes.contains_key(h))
        .map(|(i, _)| i)
        .collect();
    probe.take(&keep)
}

/// A shared, thread-safe cache of build-side hash multisets, keyed by
/// `(build dataset id, content generation, canonicalised column set)`.
///
/// CLP probes many child samples against the *same* parent: without a cache
/// every [`left_anti_join`] re-materialises and re-hashes the full parent
/// table per edge. With the cache, the parent is scanned and hashed exactly
/// **once per (dataset, generation, column set) key** — under any thread
/// count — and the meter records exactly that one materialisation, which
/// keeps parallel and sequential op counts identical.
///
/// Keying by the catalog's content generation (bumped on every
/// [`crate::DataLake::replace_data`]) means a mutation invalidates stale
/// multisets *naturally* — the new generation simply misses — while
/// untouched datasets, including everything a snapshot restore brought
/// back, keep serving the multisets that were already paid for.
///
/// Concurrency: a global map hands out one slot per key; the slot's own lock
/// is held across the (expensive) build, so two threads asking for the same
/// key serialise on that key only, and the loser reuses the winner's result
/// instead of recomputing.
#[derive(Debug, Default)]
pub struct HashJoinCache {
    #[allow(clippy::type_complexity)]
    slots: Mutex<CacheSlots>,
}

type CacheSlots = HashMap<(u64, u64, Vec<String>), Arc<Mutex<Option<Arc<RowHashMap<usize>>>>>>;

impl HashJoinCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The hash multiset of `build` projected onto `on`, computed (and
    /// metered) at most once per `(build_id, generation, on)` key.
    pub fn multiset(
        &self,
        build_id: u64,
        generation: u64,
        build: &PartitionedTable,
        on: &[&str],
        meter: &Meter,
    ) -> Result<Arc<RowHashMap<usize>>> {
        let mut key_cols: Vec<String> = on.iter().map(|s| (*s).to_string()).collect();
        key_cols.sort_unstable();
        let slot = {
            let mut slots = self.slots.lock().expect("cache lock poisoned");
            Arc::clone(slots.entry((build_id, generation, key_cols)).or_default())
        };
        let mut entry = slot.lock().expect("slot lock poisoned");
        if let Some(cached) = entry.as_ref() {
            return Ok(Arc::clone(cached));
        }
        let build_table = build.to_table(meter)?;
        let multiset = Arc::new(build_table.row_hash_multiset(on, meter)?);
        *entry = Some(Arc::clone(&multiset));
        Ok(multiset)
    }

    /// Number of cached build sides.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("cache lock poisoned").len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot hook for [`crate::snapshot`]: every *populated* cache entry,
    /// sorted by key so the encoding is canonical. Slots whose build is
    /// still in flight (allocated but empty) are skipped — they carry no
    /// state worth persisting.
    #[allow(clippy::type_complexity)]
    pub(crate) fn export_entries(&self) -> Vec<((u64, u64, Vec<String>), Arc<RowHashMap<usize>>)> {
        let slots = self.slots.lock().expect("cache lock poisoned");
        let mut entries: Vec<_> = slots
            .iter()
            .filter_map(|(key, slot)| {
                let entry = slot.lock().expect("slot lock poisoned");
                entry.as_ref().map(|m| (key.clone(), Arc::clone(m)))
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Restore hook for [`crate::snapshot`]: re-insert one decoded multiset
    /// under its original `(build dataset, generation, column set)` key.
    pub(crate) fn restore_entry(&self, key: (u64, u64, Vec<String>), multiset: RowHashMap<usize>) {
        let mut slots = self.slots.lock().expect("cache lock poisoned");
        let slot = Arc::clone(slots.entry(key).or_default());
        drop(slots);
        *slot.lock().expect("slot lock poisoned") = Some(Arc::new(multiset));
    }

    /// Delta-restore hook for [`crate::snapshot`]: drop one entry by exact
    /// key. Applying a delta snapshot replays the base generation's cache
    /// removals; a key the base never held is a no-op (the removal it
    /// records was already effective in the encoded state).
    pub(crate) fn remove_entry(&self, key: &(u64, u64, Vec<String>)) {
        self.slots.lock().expect("cache lock poisoned").remove(key);
    }

    /// Drop every cached multiset of `build_id`, releasing its memory.
    ///
    /// Sweeps that visit edges grouped by build side (e.g. the ground-truth
    /// containment sweep, whose edge list is sorted by parent) should evict
    /// each build dataset once its last edge is done, so peak cache memory
    /// is one dataset's multisets instead of the whole lake's. Callers that
    /// interleave build sides (parallel CLP) skip eviction and instead
    /// bound the cache by the edge set's distinct `(parent, column set)`
    /// keys. In-flight handles stay valid (`Arc`); evicting a key that is
    /// requested again later causes a re-build and re-metering, so only
    /// evict keys that are truly finished.
    pub fn evict_dataset(&self, build_id: u64) {
        self.slots
            .lock()
            .expect("cache lock poisoned")
            .retain(|(id, _, _), _| *id != build_id);
    }

    /// Drop every entry whose `(dataset, generation)` is not in `live` —
    /// the set of keys the catalog currently exposes. Sessions call this
    /// after applying updates so multisets of dropped datasets and
    /// superseded generations release their memory, while current-generation
    /// entries (including everything a restore brought back) stay hot.
    pub fn retain_generations(&self, live: &std::collections::HashSet<(u64, u64)>) {
        self.slots
            .lock()
            .expect("cache lock poisoned")
            .retain(|(id, generation, _), _| live.contains(&(*id, *generation)));
    }
}

/// [`left_anti_join`] with the build side served from a [`HashJoinCache`]
/// (keyed by `build_id`): the first call per key pays the build scan, every
/// later call only pays the probe.
pub fn left_anti_join_cached(
    probe: &Table,
    build_id: u64,
    build_generation: u64,
    build: &PartitionedTable,
    on: &[&str],
    meter: &Meter,
    cache: &HashJoinCache,
) -> Result<Table> {
    let build_hashes = cache.multiset(build_id, build_generation, build, on, meter)?;
    anti_join_against(probe, &build_hashes, on, meter)
}

/// Result of a full containment check between two tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainmentCheck {
    /// Number of child rows (the denominator of the containment fraction).
    pub child_rows: usize,
    /// Number of child rows found in the parent (multiset semantics).
    pub contained_rows: usize,
}

impl ContainmentCheck {
    /// The containment fraction `CM(child, parent) = |child ∩ parent| / |child|`
    /// from §3 of the paper. An empty child is fully contained by convention.
    pub fn fraction(&self) -> f64 {
        if self.child_rows == 0 {
            1.0
        } else {
            self.contained_rows as f64 / self.child_rows as f64
        }
    }

    /// Whether the child is exactly contained (`CM = 1`).
    pub fn is_exact(&self) -> bool {
        self.contained_rows == self.child_rows
    }
}

/// Exact containment check of `child ⊆ parent` over the child's schema
/// columns (which must all exist in the parent).
///
/// Multiset semantics: a child row occurring `k` times must occur at least
/// `k` times in the parent (projected onto the child's columns) to be fully
/// counted. This is the brute-force ground-truth computation of §6.2, with
/// hashing standing in for row comparison exactly as the paper describes.
pub fn containment_check(
    child: &PartitionedTable,
    parent: &PartitionedTable,
    meter: &Meter,
) -> Result<ContainmentCheck> {
    let child_cols = validated_child_columns(child, parent)?;
    let child_cols: Vec<&str> = child_cols.iter().map(String::as_str).collect();
    let parent_table = parent.to_table(meter)?;
    let parent_hashes = parent_table.row_hash_multiset(&child_cols, meter)?;
    containment_against(child, &parent_hashes, &child_cols, meter)
}

/// [`containment_check`] with the parent's hash multiset served from a
/// [`HashJoinCache`] (keyed by `parent_id`), so ground-truth sweeps that
/// check many children against one parent materialise and hash that parent
/// once per distinct child column set instead of once per child.
pub fn containment_check_cached(
    child: &PartitionedTable,
    parent_id: u64,
    parent_generation: u64,
    parent: &PartitionedTable,
    meter: &Meter,
    cache: &HashJoinCache,
) -> Result<ContainmentCheck> {
    let child_cols = validated_child_columns(child, parent)?;
    let child_cols: Vec<&str> = child_cols.iter().map(String::as_str).collect();
    let parent_hashes = cache.multiset(parent_id, parent_generation, parent, &child_cols, meter)?;
    containment_against(child, &parent_hashes, &child_cols, meter)
}

/// The child's full column list, verified to exist in the parent.
fn validated_child_columns(
    child: &PartitionedTable,
    parent: &PartitionedTable,
) -> Result<Vec<String>> {
    let cols: Vec<String> = child
        .schema()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    for c in &cols {
        if parent.schema().index_of(c).is_none() {
            return Err(LakeError::ColumnNotFound(c.clone()));
        }
    }
    Ok(cols)
}

/// Child-side half of the containment check, against an already-built parent
/// multiset. Multiset semantics via per-hash `min(child count, parent
/// count)`, which leaves the (possibly shared) parent map untouched.
fn containment_against(
    child: &PartitionedTable,
    parent_hashes: &RowHashMap<usize>,
    child_cols: &[&str],
    meter: &Meter,
) -> Result<ContainmentCheck> {
    let child_table = child.to_table(meter)?;
    let child_hashes = child_table.row_hashes(child_cols, meter)?;
    meter.add_row_comparisons(child_hashes.len() as u64);
    let mut child_counts: RowHashMap<usize> =
        RowHashMap::with_capacity_and_hasher(child_hashes.len(), Default::default());
    for h in &child_hashes {
        *child_counts.entry(*h).or_insert(0) += 1;
    }
    let contained = child_counts
        .iter()
        .map(|(h, &count)| count.min(parent_hashes.get(h).copied().unwrap_or(0)))
        .sum();
    Ok(ContainmentCheck {
        child_rows: child_hashes.len(),
        contained_rows: contained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::datatype::DataType;
    use crate::partition::PartitionSpec;
    use crate::schema::Schema;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn base_table(n: i64) -> Table {
        let schema = Schema::flat(&[
            ("id", DataType::Int),
            ("region", DataType::Utf8),
            ("amount", DataType::Float),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints(0..n),
                Column::from_strs((0..n).map(|i| format!("r{}", i % 4))),
                Column::from_floats((0..n).map(|i| i as f64 * 1.5)),
            ],
        )
        .unwrap()
    }

    fn partitioned(n: i64, per: usize) -> PartitionedTable {
        PartitionedTable::from_table(
            base_table(n),
            PartitionSpec::ByRowCount {
                rows_per_partition: per,
            },
        )
        .unwrap()
    }

    #[test]
    fn eq_predicate_scan() {
        let pt = partitioned(20, 5);
        let meter = Meter::new();
        let result = scan(
            &pt,
            &Predicate::eq("region", Value::Str("r1".into())),
            None,
            &meter,
        )
        .unwrap();
        assert_eq!(result.num_rows(), 5);
        for row in result.iter_rows() {
            assert_eq!(row.values()[1], Value::Str("r1".into()));
        }
    }

    #[test]
    fn between_predicate_and_partition_pruning() {
        let pt = partitioned(100, 10);
        let meter = Meter::new();
        let result = scan(
            &pt,
            &Predicate::between("id", Value::Int(5), Value::Int(14)),
            None,
            &meter,
        )
        .unwrap();
        assert_eq!(result.num_rows(), 10);
        let s = meter.snapshot();
        assert!(
            s.partitions_pruned >= 7,
            "most partitions should be pruned by id range, pruned={}",
            s.partitions_pruned
        );
        assert!(s.rows_scanned <= 30, "only matching partitions scanned");
    }

    #[test]
    fn scan_limit_stops_early() {
        let pt = partitioned(100, 10);
        let meter = Meter::new();
        let result = scan(&pt, &Predicate::True, Some(7), &meter).unwrap();
        assert_eq!(result.num_rows(), 7);
        assert!(meter.snapshot().rows_scanned <= 20);
    }

    #[test]
    fn scan_unknown_column_errors() {
        let pt = partitioned(10, 5);
        assert!(scan(
            &pt,
            &Predicate::eq("nope", Value::Int(1)),
            None,
            &Meter::new()
        )
        .is_err());
    }

    #[test]
    fn and_predicate() {
        let pt = partitioned(40, 10);
        let p = Predicate::and(vec![
            Predicate::eq("region", Value::Str("r2".into())),
            Predicate::between("id", Value::Int(0), Value::Int(19)),
        ]);
        let result = scan(&pt, &p, None, &Meter::new()).unwrap();
        assert_eq!(result.num_rows(), 5);
    }

    #[test]
    fn predicate_columns_are_deduplicated_in_order() {
        let p = Predicate::and(vec![
            Predicate::between("id", Value::Int(0), Value::Int(9)),
            Predicate::eq("region", Value::Str("r1".into())),
            Predicate::eq("id", Value::Int(3)),
            Predicate::and(vec![Predicate::eq("region", Value::Str("r2".into()))]),
        ]);
        assert_eq!(p.columns(), vec!["id", "region"]);
        assert!(Predicate::True.columns().is_empty());
    }

    #[test]
    fn count_matching_counts() {
        let pt = partitioned(40, 10);
        let c = count_matching(
            &pt,
            &Predicate::eq("region", Value::Str("r0".into())),
            &Meter::new(),
        )
        .unwrap();
        assert_eq!(c, 10);
    }

    #[test]
    fn predicate_null_never_matches() {
        let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
        let t = Table::new(
            schema,
            vec![Column::new(DataType::Int, vec![Value::Null, Value::Int(1)]).unwrap()],
        )
        .unwrap();
        let pt = PartitionedTable::single(t);
        let r = scan(&pt, &Predicate::eq("x", Value::Int(1)), None, &Meter::new()).unwrap();
        assert_eq!(r.num_rows(), 1);
        let r2 = scan(
            &pt,
            &Predicate::between("x", Value::Int(0), Value::Int(5)),
            None,
            &Meter::new(),
        )
        .unwrap();
        assert_eq!(r2.num_rows(), 1);
    }

    #[test]
    fn random_rows_sampling() {
        let pt = partitioned(50, 7);
        let mut rng = SmallRng::seed_from_u64(7);
        let meter = Meter::new();
        let sample = random_rows(&pt, 10, &mut rng, &meter).unwrap();
        assert_eq!(sample.num_rows(), 10);
        assert_eq!(meter.snapshot().rows_scanned, 10, "point reads only");
        // Oversampling clamps to the table size.
        let all = random_rows(&pt, 500, &mut rng, &Meter::new()).unwrap();
        assert_eq!(all.num_rows(), 50);
        let none = random_rows(&pt, 0, &mut rng, &Meter::new()).unwrap();
        assert_eq!(none.num_rows(), 0);
    }

    #[test]
    fn left_anti_join_detects_missing_rows() {
        let parent = partitioned(20, 5);
        let child_tbl = base_table(10); // rows 0..10 all appear in parent
        let meter = Meter::new();
        let missing =
            left_anti_join(&child_tbl, &parent, &["id", "region", "amount"], &meter).unwrap();
        assert_eq!(missing.num_rows(), 0);

        // Now probe with a row that does not exist in the parent.
        let schema = child_tbl.schema().clone();
        let foreign = Table::new(
            schema,
            vec![
                Column::from_ints([999]),
                Column::from_strs(["zz"]),
                Column::from_floats([1.0]),
            ],
        )
        .unwrap();
        let missing =
            left_anti_join(&foreign, &parent, &["id", "region", "amount"], &meter).unwrap();
        assert_eq!(missing.num_rows(), 1);
    }

    #[test]
    fn containment_check_exact_subset() {
        let parent = partitioned(30, 10);
        let child =
            PartitionedTable::single(base_table(30).take(&(0..12).collect::<Vec<_>>()).unwrap());
        let meter = Meter::new();
        let chk = containment_check(&child, &parent, &meter).unwrap();
        assert!(chk.is_exact());
        assert_eq!(chk.fraction(), 1.0);
        assert_eq!(chk.child_rows, 12);
    }

    #[test]
    fn containment_check_partial() {
        let parent = partitioned(10, 5);
        // Child: 5 rows from parent + 5 rows that don't exist there.
        let in_parent = base_table(10).take(&[0, 1, 2, 3, 4]).unwrap();
        let schema = in_parent.schema().clone();
        let foreign = Table::new(
            schema,
            vec![
                Column::from_ints(100..105),
                Column::from_strs((0..5).map(|i| format!("x{i}"))),
                Column::from_floats((0..5).map(|i| i as f64)),
            ],
        )
        .unwrap();
        let child = PartitionedTable::single(in_parent.concat(&foreign).unwrap());
        let chk = containment_check(&child, &parent, &Meter::new()).unwrap();
        assert_eq!(chk.child_rows, 10);
        assert_eq!(chk.contained_rows, 5);
        assert!((chk.fraction() - 0.5).abs() < 1e-12);
        assert!(!chk.is_exact());
    }

    #[test]
    fn containment_check_multiset_semantics() {
        // Parent has one copy of a row; child has two copies → only one counts.
        let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
        let parent = PartitionedTable::single(
            Table::new(schema.clone(), vec![Column::from_ints([1, 2])]).unwrap(),
        );
        let child =
            PartitionedTable::single(Table::new(schema, vec![Column::from_ints([1, 1])]).unwrap());
        let chk = containment_check(&child, &parent, &Meter::new()).unwrap();
        assert_eq!(chk.contained_rows, 1);
        assert!(!chk.is_exact());
    }

    #[test]
    fn containment_check_projection_onto_child_schema() {
        // Parent has an extra column; containment is judged on the child's columns.
        let parent_tbl = base_table(10);
        let child_tbl = parent_tbl
            .project(&["id", "region"])
            .unwrap()
            .take(&[0, 3, 7])
            .unwrap();
        let chk = containment_check(
            &PartitionedTable::single(child_tbl),
            &PartitionedTable::single(parent_tbl),
            &Meter::new(),
        )
        .unwrap();
        assert!(chk.is_exact());
    }

    #[test]
    fn containment_check_missing_column_errors() {
        let schema = Schema::flat(&[("only_in_child", DataType::Int)]).unwrap();
        let child =
            PartitionedTable::single(Table::new(schema, vec![Column::from_ints([1])]).unwrap());
        let parent = partitioned(5, 5);
        assert!(containment_check(&child, &parent, &Meter::new()).is_err());
    }

    #[test]
    fn empty_child_is_contained() {
        let schema = Schema::flat(&[("id", DataType::Int)]).unwrap();
        let child = PartitionedTable::single(Table::empty(schema));
        let parent = partitioned(5, 5);
        let chk = containment_check(&child, &parent, &Meter::new()).unwrap();
        assert_eq!(chk.fraction(), 1.0);
    }

    #[test]
    fn cached_anti_join_matches_uncached_and_scans_build_once() {
        let parent = partitioned(40, 8);
        let cols = ["id", "region", "amount"];
        let probes: Vec<Table> = vec![
            base_table(40).take(&[0, 5, 9]).unwrap(),
            base_table(40).take(&[1, 2]).unwrap(),
            base_table(50).take(&[45, 46]).unwrap(), // rows 45,46 missing
        ];

        let uncached_meter = Meter::new();
        let uncached: Vec<usize> = probes
            .iter()
            .map(|p| {
                left_anti_join(p, &parent, &cols, &uncached_meter)
                    .unwrap()
                    .num_rows()
            })
            .collect();

        let cached_meter = Meter::new();
        let cache = HashJoinCache::new();
        let cached: Vec<usize> = probes
            .iter()
            .map(|p| {
                left_anti_join_cached(p, 7, 0, &parent, &cols, &cached_meter, &cache)
                    .unwrap()
                    .num_rows()
            })
            .collect();

        assert_eq!(uncached, cached, "results must agree");
        assert_eq!(cached, vec![0, 0, 2]);
        assert_eq!(cache.len(), 1, "one build side cached");
        assert!(!cache.is_empty());
        // Uncached pays the 40-row build scan 3×, cached pays it once.
        let u = uncached_meter.snapshot();
        let c = cached_meter.snapshot();
        assert_eq!(u.rows_hashed - c.rows_hashed, 2 * 40);
        assert!(c.rows_scanned < u.rows_scanned);
    }

    #[test]
    fn cache_distinguishes_column_sets_and_datasets() {
        let parent = partitioned(20, 5);
        let meter = Meter::new();
        let cache = HashJoinCache::new();
        cache.multiset(1, 0, &parent, &["id"], &meter).unwrap();
        cache.multiset(1, 0, &parent, &["id"], &meter).unwrap(); // hit
        cache
            .multiset(1, 0, &parent, &["id", "region"], &meter)
            .unwrap(); // new column set
        cache.multiset(2, 0, &parent, &["id"], &meter).unwrap(); // new dataset id
        assert_eq!(cache.len(), 3);
        // Column order is canonicalised, so this is a hit, not a new entry.
        cache
            .multiset(1, 0, &parent, &["region", "id"], &meter)
            .unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn evict_dataset_releases_only_that_build_side() {
        let parent = partitioned(20, 5);
        let meter = Meter::new();
        let cache = HashJoinCache::new();
        cache.multiset(1, 0, &parent, &["id"], &meter).unwrap();
        cache
            .multiset(1, 0, &parent, &["id", "region"], &meter)
            .unwrap();
        cache.multiset(2, 0, &parent, &["id"], &meter).unwrap();
        assert_eq!(cache.len(), 3);
        cache.evict_dataset(1);
        assert_eq!(cache.len(), 1, "both column sets of dataset 1 evicted");
        // Dataset 2 is untouched: asking again is a hit (no extra hashing).
        let hashed_before = meter.snapshot().rows_hashed;
        cache.multiset(2, 0, &parent, &["id"], &meter).unwrap();
        assert_eq!(meter.snapshot().rows_hashed, hashed_before);
        // An evicted key is rebuilt (and re-metered) on demand.
        cache.multiset(1, 0, &parent, &["id"], &meter).unwrap();
        assert_eq!(meter.snapshot().rows_hashed, hashed_before + 20);
    }

    #[test]
    fn cached_containment_check_matches_uncached() {
        let parent = partitioned(30, 10);
        let children: Vec<PartitionedTable> = vec![
            PartitionedTable::single(base_table(30).take(&(0..12).collect::<Vec<_>>()).unwrap()),
            PartitionedTable::single(base_table(30).take(&[3, 3, 7]).unwrap()),
        ];
        let cache = HashJoinCache::new();
        for child in &children {
            let plain = containment_check(child, &parent, &Meter::new()).unwrap();
            let cached =
                containment_check_cached(child, 9, 0, &parent, &Meter::new(), &cache).unwrap();
            assert_eq!(plain, cached);
        }
    }

    #[test]
    fn cache_is_thread_safe_and_builds_once() {
        let parent = std::sync::Arc::new(partitioned(100, 10));
        let cache = std::sync::Arc::new(HashJoinCache::new());
        let meter = Meter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let parent = std::sync::Arc::clone(&parent);
                let cache = std::sync::Arc::clone(&cache);
                let meter = meter.clone();
                scope.spawn(move || {
                    cache.multiset(1, 0, &parent, &["id"], &meter).unwrap();
                });
            }
        });
        assert_eq!(cache.len(), 1);
        // Exactly one 100-row build hash despite 8 concurrent requests.
        assert_eq!(meter.snapshot().rows_hashed, 100);
    }

    #[test]
    fn scan_without_matches_returns_empty_table() {
        let pt = partitioned(20, 5);
        let r = scan(
            &pt,
            &Predicate::eq("id", Value::Int(999)),
            None,
            &Meter::new(),
        )
        .unwrap();
        assert_eq!(r.num_rows(), 0);
        assert_eq!(r.schema(), pt.schema());
    }

    #[test]
    fn random_rows_draws_distinct_rows() {
        let pt = partitioned(50, 7);
        let mut rng = SmallRng::seed_from_u64(11);
        let sample = random_rows(&pt, 50, &mut rng, &Meter::new()).unwrap();
        // Sampling without replacement at k = n must return every row once.
        let mut ids: Vec<i64> = sample
            .column("id")
            .unwrap()
            .values()
            .iter()
            .map(|v| match v {
                Value::Int(i) => *i,
                other => panic!("unexpected value {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }
}
