//! The data lake catalog: named datasets with sizes, access profiles and
//! lineage.
//!
//! The R2D2 pipeline operates on a *data lake*: a collection of datasets
//! (tables) belonging to customer orgs, each with a size, an expected number
//! of customer-initiated accesses per billing period (`A_v` in §5.2), a
//! maintenance frequency (`f_v`), and — where known through human input —
//! the transformation lineage used for "safe deletion" reconstruction
//! (§5.1). [`DataLake`] is the catalog of such datasets; it shares one
//! [`Meter`] across all data accesses so experiments can attribute row/byte
//! scans end-to-end.

use crate::error::{LakeError, Result};
use crate::meter::Meter;
use crate::partition::PartitionedTable;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Opaque identifier of a dataset within a [`DataLake`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DatasetId(pub u64);

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ds{}", self.0)
    }
}

/// Expected access behaviour of a dataset over one billing period — the
/// inputs `A_v` (customer-initiated accesses) and `f_v` (maintenance
/// operations such as GDPR scans) of the Opt-Ret objective (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessProfile {
    /// Expected number of customer-initiated accesses per billing period.
    pub accesses_per_period: f64,
    /// Expected number of maintenance operations (e.g. privacy-initiated
    /// full scans) per billing period.
    pub maintenance_per_period: f64,
}

impl Default for AccessProfile {
    fn default() -> Self {
        // The paper observes "at least one GDPR or privacy request-initiated
        // access per customer dataset per week", i.e. ~4 per monthly billing
        // period, and uses that as the default maintenance frequency.
        AccessProfile {
            accesses_per_period: 0.0,
            maintenance_per_period: 4.0,
        }
    }
}

/// A record of how a dataset was derived from another dataset.
///
/// §5.1 requires the transformation between parent and child to be known
/// (through human input) before an edge can be used for reconstruction; the
/// synthetic corpora populate this from their generation recipe, playing the
/// role of that human input.
#[derive(Debug, Clone, PartialEq)]
pub struct Lineage {
    /// The dataset this one was derived from.
    pub parent: DatasetId,
    /// Human-readable description of the transformation (e.g. the WHERE
    /// clause or "sorted by timestamp").
    pub transform: String,
}

/// A catalog entry: the dataset's data plus its bookkeeping metadata.
#[derive(Debug, Clone)]
pub struct DatasetEntry {
    /// Identifier within the lake.
    pub id: DatasetId,
    /// Human-readable dataset name (unique within the lake).
    pub name: String,
    /// The data, partitioned with per-partition statistics.
    pub data: Arc<PartitionedTable>,
    /// Content generation: 0 when the dataset is added, bumped on every
    /// [`DataLake::replace_data`]. Content-addressed caches (the CLP
    /// [`crate::query::HashJoinCache`]) key by `(id, generation)`, so a
    /// mutation invalidates naturally while restored or untouched entries
    /// stay hot.
    pub generation: u64,
    /// Expected access behaviour for the cost model.
    pub access: AccessProfile,
    /// Known derivation lineage, if any.
    pub lineage: Option<Lineage>,
}

impl DatasetEntry {
    /// Approximate size of the dataset in bytes (the `S_v` of Eq. 3).
    pub fn byte_size(&self) -> usize {
        self.data.byte_size()
    }

    /// Number of rows in the dataset.
    pub fn num_rows(&self) -> usize {
        self.data.num_rows()
    }
}

/// Shared per-dataset access tally: how many customer-initiated accesses each
/// dataset served since the log was last drained.
///
/// The lake [`Meter`] counts rows and bytes without attributing them to a
/// dataset; the access log is its per-dataset companion for the `A_v` input
/// of Eq. 3. Like the meter it is cheaply cloneable (an `Arc` of the
/// counters) and shared by every clone of the lake, so metered query entry
/// points ([`DataLake::query_dataset`]) can tally through a `&DataLake`.
/// `r2d2_core::R2d2Session::refresh_access_profiles` drains it to refresh
/// [`AccessProfile::accesses_per_period`] and trigger re-advice when the
/// observed traffic drifts from the recorded profile.
///
/// Tallies are atomic counters behind a read-write lock: the hot path
/// ([`AccessLog::record`] on a dataset that has been seen before) takes the
/// shared read lock and does one `fetch_add`, so any number of concurrent
/// readers tally in parallel without serializing on an exclusive lock. Only
/// the first access of a previously unseen dataset — and the window
/// operations [`AccessLog::drain`] / [`AccessLog::merge`] — take the lock
/// exclusively. The drain is lossless under concurrent recording: it swaps
/// the whole window out under the exclusive lock, so every tally lands in
/// exactly one window, never between two.
#[derive(Debug, Clone, Default)]
pub struct AccessLog {
    counts: Arc<RwLock<BTreeMap<u64, AtomicU64>>>,
}

impl AccessLog {
    /// Create an empty access log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tally one access of `id`. Concurrent calls on known datasets proceed
    /// in parallel (shared lock + atomic increment).
    pub fn record(&self, id: DatasetId) {
        {
            let counts = self.counts.read().expect("access log poisoned");
            if let Some(tally) = counts.get(&id.0) {
                tally.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // First sighting of this dataset: take the exclusive lock to insert
        // its counter. Another recorder may have won the race in between, so
        // increment through the entry either way.
        let mut counts = self.counts.write().expect("access log poisoned");
        counts
            .entry(id.0)
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the per-dataset tallies without clearing them. Datasets
    /// whose counter is currently zero (drained, nothing since) are omitted.
    pub fn counts(&self) -> BTreeMap<u64, u64> {
        self.counts
            .read()
            .expect("access log poisoned")
            .iter()
            .filter_map(|(&id, tally)| {
                let n = tally.load(Ordering::Relaxed);
                (n > 0).then_some((id, n))
            })
            .collect()
    }

    /// Take the tallies, resetting the log (one observation window ends).
    ///
    /// Lossless under concurrent [`AccessLog::record`] calls: the swap
    /// happens under the exclusive lock, so a concurrent tally either
    /// landed before it (drained now) or lands after it (next window) —
    /// never in neither.
    pub fn drain(&self) -> BTreeMap<u64, u64> {
        let mut counts = self.counts.write().expect("access log poisoned");
        std::mem::take(&mut *counts)
            .into_iter()
            .filter_map(|(id, tally)| {
                let n = tally.into_inner();
                (n > 0).then_some((id, n))
            })
            .collect()
    }

    /// Add tallies back into the log (e.g. a drained window whose
    /// processing failed must not lose its counts). Merges with whatever
    /// accumulated in the meantime.
    pub fn merge(&self, counts: &BTreeMap<u64, u64>) {
        let live = self.counts.read().expect("access log poisoned");
        if counts.keys().all(|id| live.contains_key(id)) {
            for (id, &n) in counts {
                live[id].fetch_add(n, Ordering::Relaxed);
            }
            return;
        }
        drop(live);
        let mut live = self.counts.write().expect("access log poisoned");
        for (&id, &n) in counts {
            live.entry(id)
                .or_insert_with(|| AtomicU64::new(0))
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Replace the whole window (snapshot-restore hook).
    pub(crate) fn replace(&self, counts: BTreeMap<u64, u64>) {
        *self.counts.write().expect("access log poisoned") = counts
            .into_iter()
            .map(|(id, n)| (id, AtomicU64::new(n)))
            .collect();
    }
}

/// The data lake catalog: a set of datasets sharing one operation meter.
#[derive(Debug, Clone, Default)]
pub struct DataLake {
    datasets: BTreeMap<DatasetId, DatasetEntry>,
    by_name: BTreeMap<String, DatasetId>,
    next_id: u64,
    meter: Meter,
    access_log: AccessLog,
}

impl DataLake {
    /// Create an empty data lake.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared operation meter.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The shared per-dataset access log.
    pub fn access_log(&self) -> &AccessLog {
        &self.access_log
    }

    /// Tally one customer-initiated access of `id` (no existence check — the
    /// log is a statistic, not an index; unknown ids are simply ignored by
    /// consumers).
    pub fn record_access(&self, id: DatasetId) {
        self.access_log.record(id);
    }

    /// Take the per-dataset access tallies accumulated since the last drain.
    pub fn drain_access_counts(&self) -> BTreeMap<u64, u64> {
        self.access_log.drain()
    }

    /// Register a dataset and return its id. Names must be unique.
    pub fn add_dataset(
        &mut self,
        name: impl Into<String>,
        data: PartitionedTable,
        access: AccessProfile,
        lineage: Option<Lineage>,
    ) -> Result<DatasetId> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(LakeError::InvalidArgument(format!(
                "dataset name already exists: {name}"
            )));
        }
        if let Some(l) = &lineage {
            if !self.datasets.contains_key(&l.parent) {
                return Err(LakeError::DatasetNotFound(l.parent.to_string()));
            }
        }
        let id = DatasetId(self.next_id);
        self.next_id += 1;
        self.by_name.insert(name.clone(), id);
        self.datasets.insert(
            id,
            DatasetEntry {
                id,
                name,
                data: Arc::new(data),
                generation: 0,
                access,
                lineage,
            },
        );
        Ok(id)
    }

    /// Remove a dataset (e.g. after the optimizer recommends deletion).
    pub fn remove_dataset(&mut self, id: DatasetId) -> Result<DatasetEntry> {
        let entry = self
            .datasets
            .remove(&id)
            .ok_or_else(|| LakeError::DatasetNotFound(id.to_string()))?;
        self.by_name.remove(&entry.name);
        Ok(entry)
    }

    /// Look up a dataset by id.
    pub fn dataset(&self, id: DatasetId) -> Result<&DatasetEntry> {
        self.datasets
            .get(&id)
            .ok_or_else(|| LakeError::DatasetNotFound(id.to_string()))
    }

    /// Look up a dataset id by name.
    pub fn dataset_by_name(&self, name: &str) -> Option<&DatasetEntry> {
        self.by_name.get(name).and_then(|id| self.datasets.get(id))
    }

    /// Whether a dataset id exists.
    pub fn contains(&self, id: DatasetId) -> bool {
        self.datasets.contains_key(&id)
    }

    /// Number of datasets in the lake.
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// Whether the lake is empty.
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }

    /// Iterate over datasets in id order.
    pub fn iter(&self) -> impl Iterator<Item = &DatasetEntry> {
        self.datasets.values()
    }

    /// Dataset ids in id order.
    pub fn ids(&self) -> Vec<DatasetId> {
        self.datasets.keys().copied().collect()
    }

    /// Total approximate size of the lake in bytes.
    pub fn total_bytes(&self) -> usize {
        self.datasets.values().map(DatasetEntry::byte_size).sum()
    }

    /// Total number of rows across all datasets.
    pub fn total_rows(&self) -> usize {
        self.datasets.values().map(DatasetEntry::num_rows).sum()
    }

    /// Update the access profile of a dataset.
    pub fn set_access_profile(&mut self, id: DatasetId, access: AccessProfile) -> Result<()> {
        let entry = self
            .datasets
            .get_mut(&id)
            .ok_or_else(|| LakeError::DatasetNotFound(id.to_string()))?;
        entry.access = access;
        Ok(())
    }

    /// The id the next [`DataLake::add_dataset`] will assign. Snapshots
    /// persist it so ids keep advancing monotonically across restarts even
    /// when the highest-numbered dataset was dropped.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Restore hook for [`crate::snapshot`]: re-insert a catalog entry under
    /// its original id without assigning a fresh one.
    pub(crate) fn restore_entry(&mut self, entry: DatasetEntry) {
        self.by_name.insert(entry.name.clone(), entry.id);
        self.datasets.insert(entry.id, entry);
    }

    /// Restore hook for [`crate::snapshot`]: pin the id counter.
    pub(crate) fn set_next_id(&mut self, next_id: u64) {
        self.next_id = next_id;
    }

    /// Restore hook for [`crate::snapshot`]: seed the access log with saved
    /// (undrained) tallies.
    pub(crate) fn restore_access_counts(&self, counts: BTreeMap<u64, u64>) {
        self.access_log.replace(counts);
    }

    /// A read-only shareable view of the catalog at this instant: every
    /// dataset entry (sharing the `Arc`'d tables — no data is copied) and
    /// the live [`AccessLog`], but a **detached, fresh [`Meter`]**.
    ///
    /// This is the snapshot handed to concurrent readers by the serve
    /// layer: queries through the view still tally into the shared access
    /// log (so observed traffic keeps feeding the Eq. 3 access profiles),
    /// but their row/byte scans land on the view's own meter instead of
    /// perturbing the owning session's deterministic, replayable op counts.
    /// Later catalog mutations on `self` are invisible to the view
    /// ([`DataLake::replace_data`] installs a fresh `Arc`).
    pub fn reader_view(&self) -> DataLake {
        DataLake {
            datasets: self.datasets.clone(),
            by_name: self.by_name.clone(),
            next_id: self.next_id,
            meter: Meter::new(),
            access_log: self.access_log.clone(),
        }
    }

    /// Replace the data of an existing dataset (used by the dynamic-update
    /// scenarios of §7.1: rows/columns added or removed in place).
    pub fn replace_data(&mut self, id: DatasetId, data: PartitionedTable) -> Result<()> {
        let entry = self
            .datasets
            .get_mut(&id)
            .ok_or_else(|| LakeError::DatasetNotFound(id.to_string()))?;
        entry.data = Arc::new(data);
        entry.generation += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::datatype::DataType;
    use crate::schema::Schema;
    use crate::table::Table;

    fn tiny_table(n: i64) -> PartitionedTable {
        let schema = Schema::flat(&[("id", DataType::Int)]).unwrap();
        PartitionedTable::single(Table::new(schema, vec![Column::from_ints(0..n)]).unwrap())
    }

    #[test]
    fn add_and_lookup() {
        let mut lake = DataLake::new();
        let id = lake
            .add_dataset("orders", tiny_table(10), AccessProfile::default(), None)
            .unwrap();
        assert!(lake.contains(id));
        assert_eq!(lake.len(), 1);
        assert_eq!(lake.dataset(id).unwrap().name, "orders");
        assert_eq!(lake.dataset_by_name("orders").unwrap().id, id);
        assert!(lake.dataset_by_name("nope").is_none());
        assert_eq!(lake.total_rows(), 10);
        assert!(lake.total_bytes() > 0);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut lake = DataLake::new();
        lake.add_dataset("a", tiny_table(1), AccessProfile::default(), None)
            .unwrap();
        assert!(lake
            .add_dataset("a", tiny_table(1), AccessProfile::default(), None)
            .is_err());
    }

    #[test]
    fn lineage_parent_must_exist() {
        let mut lake = DataLake::new();
        let bad = Lineage {
            parent: DatasetId(99),
            transform: "select".into(),
        };
        assert!(lake
            .add_dataset("x", tiny_table(1), AccessProfile::default(), Some(bad))
            .is_err());

        let p = lake
            .add_dataset("parent", tiny_table(5), AccessProfile::default(), None)
            .unwrap();
        let ok = Lineage {
            parent: p,
            transform: "WHERE id < 3".into(),
        };
        let c = lake
            .add_dataset("child", tiny_table(3), AccessProfile::default(), Some(ok))
            .unwrap();
        assert_eq!(lake.dataset(c).unwrap().lineage.as_ref().unwrap().parent, p);
    }

    #[test]
    fn remove_dataset() {
        let mut lake = DataLake::new();
        let id = lake
            .add_dataset("a", tiny_table(1), AccessProfile::default(), None)
            .unwrap();
        let entry = lake.remove_dataset(id).unwrap();
        assert_eq!(entry.name, "a");
        assert!(lake.is_empty());
        assert!(lake.remove_dataset(id).is_err());
        assert!(lake.dataset(id).is_err());
    }

    #[test]
    fn update_access_profile_and_data() {
        let mut lake = DataLake::new();
        let id = lake
            .add_dataset("a", tiny_table(2), AccessProfile::default(), None)
            .unwrap();
        lake.set_access_profile(
            id,
            AccessProfile {
                accesses_per_period: 3.0,
                maintenance_per_period: 1.0,
            },
        )
        .unwrap();
        assert_eq!(lake.dataset(id).unwrap().access.accesses_per_period, 3.0);
        assert_eq!(lake.dataset(id).unwrap().generation, 0);
        lake.replace_data(id, tiny_table(20)).unwrap();
        assert_eq!(lake.dataset(id).unwrap().num_rows(), 20);
        assert_eq!(
            lake.dataset(id).unwrap().generation,
            1,
            "replacing data must bump the content generation"
        );
        assert!(lake
            .set_access_profile(DatasetId(5), AccessProfile::default())
            .is_err());
    }

    #[test]
    fn access_log_tallies_and_drains() {
        let mut lake = DataLake::new();
        let a = lake
            .add_dataset("a", tiny_table(4), AccessProfile::default(), None)
            .unwrap();
        let b = lake
            .add_dataset("b", tiny_table(4), AccessProfile::default(), None)
            .unwrap();
        lake.record_access(a);
        lake.record_access(a);
        lake.record_access(b);
        // Clones share the log, like they share the meter.
        lake.clone().record_access(a);
        assert_eq!(
            lake.access_log().counts(),
            BTreeMap::from([(a.0, 3), (b.0, 1)])
        );
        let drained = lake.drain_access_counts();
        assert_eq!(drained, BTreeMap::from([(a.0, 3), (b.0, 1)]));
        assert!(
            lake.access_log().counts().is_empty(),
            "drain resets the log"
        );

        // A drained window whose processing failed can be merged back,
        // combining with traffic that arrived in the meantime.
        lake.record_access(b);
        lake.access_log().merge(&drained);
        assert_eq!(
            lake.access_log().counts(),
            BTreeMap::from([(a.0, 3), (b.0, 2)])
        );
    }

    #[test]
    fn access_log_is_lossless_under_concurrent_records_and_drains() {
        let log = AccessLog::new();
        let threads = 4;
        let per_thread = 2_000u64;
        let drained = std::sync::Arc::new(std::sync::Mutex::new(BTreeMap::<u64, u64>::new()));
        std::thread::scope(|scope| {
            for t in 0..threads {
                let log = log.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        log.record(DatasetId(t % 2));
                        if i % 64 == 0 {
                            // Interleave snapshots with records to shake the
                            // shared-lock fast path.
                            let _ = log.counts();
                        }
                    }
                });
            }
            // A concurrent drainer takes windows while recorders run.
            let log2 = log.clone();
            let drained2 = drained.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    let window = log2.drain();
                    let mut total = drained2.lock().unwrap();
                    for (id, n) in window {
                        *total.entry(id).or_insert(0) += n;
                    }
                }
            });
        });
        let mut total = drained.lock().unwrap().clone();
        for (id, n) in log.drain() {
            *total.entry(id).or_insert(0) += n;
        }
        let expected = threads * per_thread / 2;
        assert_eq!(
            total,
            BTreeMap::from([(0, expected), (1, expected)]),
            "every tally must land in exactly one drained window"
        );
    }

    #[test]
    fn reader_view_shares_tables_and_access_log_but_not_the_meter() {
        use crate::query::Predicate;

        let mut lake = DataLake::new();
        let id = lake
            .add_dataset("a", tiny_table(10), AccessProfile::default(), None)
            .unwrap();
        let view = lake.reader_view();
        // Shared table storage: both catalogs point at the same Arc.
        assert!(std::sync::Arc::ptr_eq(
            &lake.dataset(id).unwrap().data,
            &view.dataset(id).unwrap().data
        ));
        // Queries through the view meter into the VIEW's meter only...
        view.query_dataset(id, &Predicate::True, Some(2)).unwrap();
        assert_eq!(lake.meter().snapshot().rows_scanned, 0);
        assert!(view.meter().snapshot().rows_scanned > 0);
        // ...but tally into the SHARED access log.
        assert_eq!(lake.access_log().counts(), BTreeMap::from([(id.0, 1)]));
        // Later mutations of the owning lake are invisible to the view.
        lake.replace_data(id, tiny_table(20)).unwrap();
        assert_eq!(view.dataset(id).unwrap().num_rows(), 10);
        assert_eq!(lake.dataset(id).unwrap().num_rows(), 20);
    }

    #[test]
    fn query_dataset_meters_and_records_the_access() {
        use crate::query::Predicate;

        let mut lake = DataLake::new();
        let id = lake
            .add_dataset("a", tiny_table(10), AccessProfile::default(), None)
            .unwrap();
        let rows_before = lake.meter().snapshot().rows_scanned;
        let result = lake.query_dataset(id, &Predicate::True, Some(3)).unwrap();
        assert_eq!(result.num_rows(), 3);
        assert!(lake.meter().snapshot().rows_scanned > rows_before);
        assert_eq!(lake.access_log().counts(), BTreeMap::from([(id.0, 1)]));
        assert!(lake
            .query_dataset(DatasetId(99), &Predicate::True, None)
            .is_err());
        // Failed queries (unknown dataset or column) don't tally an access.
        assert!(lake
            .query_dataset(
                id,
                &Predicate::eq("nope", crate::value::Value::Int(1)),
                None
            )
            .is_err());
        assert_eq!(lake.access_log().counts(), BTreeMap::from([(id.0, 1)]));
    }

    #[test]
    fn ids_are_stable_and_ordered() {
        let mut lake = DataLake::new();
        let a = lake
            .add_dataset("a", tiny_table(1), AccessProfile::default(), None)
            .unwrap();
        let b = lake
            .add_dataset("b", tiny_table(1), AccessProfile::default(), None)
            .unwrap();
        assert!(a < b);
        assert_eq!(lake.ids(), vec![a, b]);
        assert_eq!(lake.iter().count(), 2);
    }
}
