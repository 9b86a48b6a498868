//! Binary codecs for durable session snapshots.
//!
//! Everything that must survive a process restart is serialized through the
//! same hand-written little-endian wire format the [`crate::storage`]
//! "mini-parquet" files use. This module holds the lake-owned pieces — the
//! catalog with partitioned tables (data pages via [`storage::encode`]),
//! access profiles and lineage, the access log, the meter totals, the typed
//! [`LakeUpdate`] vocabulary (for write-ahead-log records), the
//! [`SchemaInterner`] and the [`HashJoinCache`] — plus the low-level wire
//! primitives (`put_str` / `get_str`, …) that `r2d2-core` and `r2d2-opt`
//! reuse for their own session/advisor sections.
//!
//! Every codec is a pure cursor transformer: encoders append to a
//! [`BytesMut`], decoders consume from the front of a [`Bytes`], so callers
//! can concatenate sections freely. Framing (magic, version, checksums,
//! torn-tail handling) is the caller's job — see [`crate::wal`] and the
//! snapshot files written by `r2d2_core::persist`.
//!
//! **Canonical bytes.** For one logical state the encoders always produce
//! the same byte string (maps are walked in key order, cache entries are
//! sorted), so snapshot equality can be checked bytewise.

use crate::catalog::{AccessProfile, DataLake, DatasetEntry, DatasetId, Lineage};
use crate::error::{LakeError, Result};
use crate::meter::{Meter, OpCounts};
use crate::partition::{PartitionSpec, PartitionedTable};
use crate::query::{HashJoinCache, Predicate};
use crate::row::{RowHash, RowHashMap};
use crate::schema::SchemaInterner;
use crate::storage;
use crate::table::Table;
use crate::update::{AppliedUpdate, LakeUpdate};
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Wire primitives
// ---------------------------------------------------------------------------

/// Guard a read of `n` bytes, turning a would-be panic into a clean
/// [`LakeError::Corrupt`] naming `what` was being decoded.
pub fn expect_len(buf: &Bytes, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(LakeError::Corrupt(format!("truncated {what}")));
    }
    Ok(())
}

/// Append a length-prefixed byte string (`len u32 | bytes`).
pub fn put_bytes(buf: &mut BytesMut, bytes: &[u8]) {
    buf.put_u32_le(bytes.len() as u32);
    buf.put_slice(bytes);
}

/// Read a length-prefixed byte string.
pub fn get_bytes(buf: &mut Bytes) -> Result<Bytes> {
    expect_len(buf, 4, "byte-string length")?;
    let len = buf.get_u32_le() as usize;
    expect_len(buf, len, "byte string")?;
    Ok(buf.copy_to_bytes(len))
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut Bytes) -> Result<String> {
    let raw = get_bytes(buf)?;
    String::from_utf8(raw.to_vec()).map_err(|_| LakeError::Corrupt("invalid utf8".into()))
}

/// Append a bool as one byte.
pub fn put_bool(buf: &mut BytesMut, v: bool) {
    buf.put_u8(v as u8);
}

/// Read a bool.
pub fn get_bool(buf: &mut Bytes) -> Result<bool> {
    expect_len(buf, 1, "bool")?;
    Ok(buf.get_u8() != 0)
}

/// Append a `usize` as a little-endian `u64`.
pub fn put_usize(buf: &mut BytesMut, v: usize) {
    buf.put_u64_le(v as u64);
}

/// Read a `usize` (stored as `u64`).
pub fn get_usize(buf: &mut Bytes) -> Result<usize> {
    expect_len(buf, 8, "usize")?;
    Ok(buf.get_u64_le() as usize)
}

/// Read a guarded little-endian `u64`.
pub fn get_u64(buf: &mut Bytes) -> Result<u64> {
    expect_len(buf, 8, "u64")?;
    Ok(buf.get_u64_le())
}

/// Read a guarded little-endian `f64`.
pub fn get_f64(buf: &mut Bytes) -> Result<f64> {
    expect_len(buf, 8, "f64")?;
    Ok(buf.get_f64_le())
}

/// Read a guarded tag byte.
pub fn get_tag(buf: &mut Bytes, what: &str) -> Result<u8> {
    expect_len(buf, 1, what)?;
    Ok(buf.get_u8())
}

/// Append one typed [`Value`] (same encoding as the storage data pages).
pub fn put_value(buf: &mut BytesMut, v: &Value) {
    storage::put_value(buf, v);
}

/// Read one typed [`Value`].
pub fn get_value(buf: &mut Bytes) -> Result<Value> {
    storage::get_value(buf)
}

// ---------------------------------------------------------------------------
// Lake-owned composite codecs
// ---------------------------------------------------------------------------

/// Append an [`OpCounts`] snapshot (fifteen `u64` counters).
///
/// The page counters (`pages_decoded` / `pages_skipped`) are **not**
/// persisted — they are zeroed on the wire. They describe how lazy *this
/// process* has been (a restore re-skips every page the snapshot's own
/// lifetime already skipped), so carrying them across a restart would both
/// double-count and break the canonical-bytes property (decoding a snapshot
/// charges `pages_skipped`, so a re-encode that persisted them could never
/// be bit-identical). The string-hashing counters are logical work and do
/// persist.
pub fn put_op_counts(buf: &mut BytesMut, c: &OpCounts) {
    for value in c.without_page_counters().to_array() {
        buf.put_u64_le(value);
    }
}

/// Read an [`OpCounts`] snapshot.
pub fn get_op_counts(buf: &mut Bytes) -> Result<OpCounts> {
    expect_len(buf, 8 * OpCounts::LEN, "op counts")?;
    Ok(OpCounts::from_array(std::array::from_fn(|_| {
        buf.get_u64_le()
    })))
}

/// Append an [`AccessProfile`] (two `f64`s).
pub fn put_access_profile(buf: &mut BytesMut, a: &AccessProfile) {
    buf.put_f64_le(a.accesses_per_period);
    buf.put_f64_le(a.maintenance_per_period);
}

/// Read an [`AccessProfile`].
pub fn get_access_profile(buf: &mut Bytes) -> Result<AccessProfile> {
    expect_len(buf, 16, "access profile")?;
    Ok(AccessProfile {
        accesses_per_period: buf.get_f64_le(),
        maintenance_per_period: buf.get_f64_le(),
    })
}

/// Append a `dataset id → count` tally map (access-log drains and snapshots).
pub fn put_count_map(buf: &mut BytesMut, counts: &BTreeMap<u64, u64>) {
    buf.put_u32_le(counts.len() as u32);
    for (&id, &n) in counts {
        buf.put_u64_le(id);
        buf.put_u64_le(n);
    }
}

/// Read a `dataset id → count` tally map.
pub fn get_count_map(buf: &mut Bytes) -> Result<BTreeMap<u64, u64>> {
    expect_len(buf, 4, "count map length")?;
    let len = buf.get_u32_le() as usize;
    let mut counts = BTreeMap::new();
    for _ in 0..len {
        expect_len(buf, 16, "count map entry")?;
        let id = buf.get_u64_le();
        let n = buf.get_u64_le();
        counts.insert(id, n);
    }
    Ok(counts)
}

fn put_spec(buf: &mut BytesMut, spec: &PartitionSpec) {
    match spec {
        PartitionSpec::ByRowCount { rows_per_partition } => {
            buf.put_u8(0);
            put_usize(buf, *rows_per_partition);
        }
        PartitionSpec::ByColumn {
            column,
            max_partitions,
        } => {
            buf.put_u8(1);
            put_str(buf, column);
            put_usize(buf, *max_partitions);
        }
        PartitionSpec::Single => buf.put_u8(2),
        PartitionSpec::Explicit => buf.put_u8(3),
    }
}

fn get_spec(buf: &mut Bytes) -> Result<PartitionSpec> {
    Ok(match get_tag(buf, "partition spec tag")? {
        0 => PartitionSpec::ByRowCount {
            rows_per_partition: get_usize(buf)?,
        },
        1 => PartitionSpec::ByColumn {
            column: get_str(buf)?,
            max_partitions: get_usize(buf)?,
        },
        2 => PartitionSpec::Single,
        3 => PartitionSpec::Explicit,
        other => {
            return Err(LakeError::Corrupt(format!(
                "unknown partition spec tag {other}"
            )))
        }
    })
}

/// Append a [`PartitionedTable`]: its [`PartitionSpec`] plus its row groups
/// and statistics via [`storage::encode`] (which alone does not record the
/// spec — a policy, not data — so it is framed alongside).
pub fn put_partitioned(buf: &mut BytesMut, table: &PartitionedTable) {
    put_spec(buf, table.spec());
    put_bytes(buf, &storage::encode(table));
}

/// Read a [`PartitionedTable`], partition boundaries and spec intact.
/// Decoding is *not* metered (it is recovery I/O, not query work) — pass-through
/// costs were already accounted when the live session did the work.
pub fn get_partitioned(buf: &mut Bytes) -> Result<PartitionedTable> {
    get_partitioned_with(buf, &Meter::new())
}

/// [`get_partitioned`] with an explicit meter for the lazy pages: the file
/// bytes themselves stay unmetered (recovery I/O), but `lazy_meter` records
/// the pages left undecoded now (`pages_skipped`) and any later
/// materialization (`pages_decoded`). [`get_lake`] passes the restored
/// lake's own meter so restart benches can prove which pages a restore
/// actually touched.
pub(crate) fn get_partitioned_with(
    buf: &mut Bytes,
    lazy_meter: &Meter,
) -> Result<PartitionedTable> {
    let spec = get_spec(buf)?;
    let raw = get_bytes(buf)?;
    Ok(storage::decode_with(&raw, &Meter::new(), lazy_meter)?.with_spec(spec))
}

/// Append a plain [`Table`] (as a single-partition storage blob).
pub fn put_table(buf: &mut BytesMut, table: &Table) {
    put_bytes(
        buf,
        &storage::encode(&PartitionedTable::single(table.clone())),
    );
}

/// Read a plain [`Table`].
pub fn get_table(buf: &mut Bytes) -> Result<Table> {
    let raw = get_bytes(buf)?;
    let scratch = Meter::new();
    storage::decode(&raw, &scratch)?.to_table(&scratch)
}

/// Append a [`Predicate`] tree.
pub fn put_predicate(buf: &mut BytesMut, p: &Predicate) {
    match p {
        Predicate::True => buf.put_u8(0),
        Predicate::Eq { column, value } => {
            buf.put_u8(1);
            put_str(buf, column);
            put_value(buf, value);
        }
        Predicate::Between { column, lo, hi } => {
            buf.put_u8(2);
            put_str(buf, column);
            put_value(buf, lo);
            put_value(buf, hi);
        }
        Predicate::And(ps) => {
            buf.put_u8(3);
            buf.put_u32_le(ps.len() as u32);
            for p in ps {
                put_predicate(buf, p);
            }
        }
    }
}

/// Read a [`Predicate`] tree.
pub fn get_predicate(buf: &mut Bytes) -> Result<Predicate> {
    Ok(match get_tag(buf, "predicate tag")? {
        0 => Predicate::True,
        1 => Predicate::Eq {
            column: get_str(buf)?,
            value: get_value(buf)?,
        },
        2 => Predicate::Between {
            column: get_str(buf)?,
            lo: get_value(buf)?,
            hi: get_value(buf)?,
        },
        3 => {
            expect_len(buf, 4, "predicate conjunction length")?;
            let len = buf.get_u32_le() as usize;
            let mut ps = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                ps.push(get_predicate(buf)?);
            }
            Predicate::And(ps)
        }
        other => return Err(LakeError::Corrupt(format!("unknown predicate tag {other}"))),
    })
}

fn put_lineage(buf: &mut BytesMut, lineage: &Option<Lineage>) {
    match lineage {
        None => buf.put_u8(0),
        Some(l) => {
            buf.put_u8(1);
            buf.put_u64_le(l.parent.0);
            put_str(buf, &l.transform);
        }
    }
}

fn get_lineage(buf: &mut Bytes) -> Result<Option<Lineage>> {
    Ok(match get_tag(buf, "lineage tag")? {
        0 => None,
        1 => Some(Lineage {
            parent: DatasetId(get_u64(buf)?),
            transform: get_str(buf)?,
        }),
        other => return Err(LakeError::Corrupt(format!("unknown lineage tag {other}"))),
    })
}

/// Append one [`LakeUpdate`] — the payload vocabulary of write-ahead-log
/// batch records.
pub fn put_update(buf: &mut BytesMut, update: &LakeUpdate) {
    match update {
        LakeUpdate::AddDataset {
            name,
            data,
            access,
            lineage,
        } => {
            buf.put_u8(0);
            put_str(buf, name);
            put_partitioned(buf, data);
            put_access_profile(buf, access);
            put_lineage(buf, lineage);
        }
        LakeUpdate::AppendRows { id, rows } => {
            buf.put_u8(1);
            buf.put_u64_le(id.0);
            put_table(buf, rows);
        }
        LakeUpdate::DeleteRows { id, predicate } => {
            buf.put_u8(2);
            buf.put_u64_le(id.0);
            put_predicate(buf, predicate);
        }
        LakeUpdate::DropDataset { id } => {
            buf.put_u8(3);
            buf.put_u64_le(id.0);
        }
    }
}

/// Read one [`LakeUpdate`].
pub fn get_update(buf: &mut Bytes) -> Result<LakeUpdate> {
    Ok(match get_tag(buf, "update tag")? {
        0 => LakeUpdate::AddDataset {
            name: get_str(buf)?,
            data: get_partitioned(buf)?,
            access: get_access_profile(buf)?,
            lineage: get_lineage(buf)?,
        },
        1 => LakeUpdate::AppendRows {
            id: DatasetId(get_u64(buf)?),
            rows: get_table(buf)?,
        },
        2 => LakeUpdate::DeleteRows {
            id: DatasetId(get_u64(buf)?),
            predicate: get_predicate(buf)?,
        },
        3 => LakeUpdate::DropDataset {
            id: DatasetId(get_u64(buf)?),
        },
        other => return Err(LakeError::Corrupt(format!("unknown update tag {other}"))),
    })
}

/// Append one [`AppliedUpdate`] (update-log entries inside snapshots).
pub fn put_applied(buf: &mut BytesMut, applied: &AppliedUpdate) {
    match applied {
        AppliedUpdate::Added { id } => {
            buf.put_u8(0);
            buf.put_u64_le(id.0);
        }
        AppliedUpdate::Appended { id, rows } => {
            buf.put_u8(1);
            buf.put_u64_le(id.0);
            put_usize(buf, *rows);
        }
        AppliedUpdate::Deleted { id, rows } => {
            buf.put_u8(2);
            buf.put_u64_le(id.0);
            put_usize(buf, *rows);
        }
        AppliedUpdate::Dropped { id } => {
            buf.put_u8(3);
            buf.put_u64_le(id.0);
        }
    }
}

/// Read one [`AppliedUpdate`].
pub fn get_applied(buf: &mut Bytes) -> Result<AppliedUpdate> {
    Ok(match get_tag(buf, "applied-update tag")? {
        0 => AppliedUpdate::Added {
            id: DatasetId(get_u64(buf)?),
        },
        1 => AppliedUpdate::Appended {
            id: DatasetId(get_u64(buf)?),
            rows: get_usize(buf)?,
        },
        2 => AppliedUpdate::Deleted {
            id: DatasetId(get_u64(buf)?),
            rows: get_usize(buf)?,
        },
        3 => AppliedUpdate::Dropped {
            id: DatasetId(get_u64(buf)?),
        },
        other => {
            return Err(LakeError::Corrupt(format!(
                "unknown applied-update tag {other}"
            )))
        }
    })
}

/// Append a [`SchemaInterner`]: its names in symbol order, so re-interning
/// them on decode reassigns identical symbol ids.
pub fn put_interner(buf: &mut BytesMut, interner: &SchemaInterner) {
    buf.put_u32_le(interner.len() as u32);
    for id in 0..interner.len() as u32 {
        put_str(buf, interner.resolve(id).expect("dense symbol ids"));
    }
}

/// Read a [`SchemaInterner`] with the original symbol assignment.
pub fn get_interner(buf: &mut Bytes) -> Result<SchemaInterner> {
    expect_len(buf, 4, "interner length")?;
    let len = buf.get_u32_le() as usize;
    let mut interner = SchemaInterner::new();
    for expected in 0..len as u32 {
        let name = get_str(buf)?;
        let id = interner.intern(&name);
        if id != expected {
            return Err(LakeError::Corrupt("duplicate interner symbol".into()));
        }
    }
    Ok(interner)
}

/// Append a [`HashJoinCache`]: every populated `(build dataset, column set)`
/// multiset, keys and hash entries in sorted order. Persisting the cache
/// keeps a restored session's *metering* bit-identical to the uninterrupted
/// one — replayed and future sweeps hit exactly the multisets the live
/// session would have hit, instead of re-hashing cold parents.
pub fn put_join_cache(buf: &mut BytesMut, cache: &HashJoinCache) {
    let entries = cache.export_entries();
    buf.put_u32_le(entries.len() as u32);
    for ((build_id, generation, cols), multiset) in entries {
        buf.put_u64_le(build_id);
        buf.put_u64_le(generation);
        buf.put_u32_le(cols.len() as u32);
        for c in &cols {
            put_str(buf, c);
        }
        let mut rows: Vec<(RowHash, usize)> = multiset.iter().map(|(&h, &n)| (h, n)).collect();
        rows.sort_unstable();
        buf.put_u64_le(rows.len() as u64);
        for (hash, n) in rows {
            buf.put_u64_le(hash.0 as u64);
            buf.put_u64_le((hash.0 >> 64) as u64);
            put_usize(buf, n);
        }
    }
}

/// Read a [`HashJoinCache`].
pub fn get_join_cache(buf: &mut Bytes) -> Result<HashJoinCache> {
    expect_len(buf, 4, "join cache length")?;
    let len = buf.get_u32_le() as usize;
    let cache = HashJoinCache::new();
    for _ in 0..len {
        let build_id = get_u64(buf)?;
        let generation = get_u64(buf)?;
        expect_len(buf, 4, "join cache column count")?;
        let col_count = buf.get_u32_le() as usize;
        let mut cols = Vec::with_capacity(col_count.min(1024));
        for _ in 0..col_count {
            cols.push(get_str(buf)?);
        }
        let rows = get_u64(buf)? as usize;
        let mut multiset = RowHashMap::with_capacity_and_hasher(rows, Default::default());
        for _ in 0..rows {
            expect_len(buf, 24, "join cache multiset entry")?;
            let lo = buf.get_u64_le() as u128;
            let hi = buf.get_u64_le() as u128;
            let n = buf.get_u64_le() as usize;
            multiset.insert(RowHash(lo | (hi << 64)), n);
        }
        cache.restore_entry((build_id, generation, cols), multiset);
    }
    Ok(cache)
}

/// Append a whole [`DataLake`]: every catalog entry (id, name, partitioned
/// data, access profile, lineage), the id counter, the undrained access-log
/// tallies and the shared meter totals.
pub fn put_lake(buf: &mut BytesMut, lake: &DataLake) {
    buf.put_u32_le(lake.len() as u32);
    for entry in lake.iter() {
        buf.put_u64_le(entry.id.0);
        put_str(buf, &entry.name);
        put_partitioned(buf, &entry.data);
        buf.put_u64_le(entry.generation);
        put_access_profile(buf, &entry.access);
        put_lineage(buf, &entry.lineage);
    }
    buf.put_u64_le(lake.next_id());
    put_count_map(buf, &lake.access_log().counts());
    put_op_counts(buf, &lake.meter().snapshot());
}

/// Read a whole [`DataLake`]. The restored lake's fresh meter is seeded with
/// the saved totals; decoding itself is not metered.
pub fn get_lake(buf: &mut Bytes) -> Result<DataLake> {
    expect_len(buf, 4, "lake dataset count")?;
    let len = buf.get_u32_le() as usize;
    let mut lake = DataLake::new();
    for _ in 0..len {
        let id = DatasetId(get_u64(buf)?);
        let name = get_str(buf)?;
        // Restored pages stay lazy; the lake's own meter records skips and
        // any later materialization so benches can prove what a restore
        // actually touched.
        let data = get_partitioned_with(buf, lake.meter())?;
        let generation = get_u64(buf)?;
        let access = get_access_profile(buf)?;
        let lineage = get_lineage(buf)?;
        lake.restore_entry(DatasetEntry {
            id,
            name,
            data: Arc::new(data),
            generation,
            access,
            lineage,
        });
    }
    lake.set_next_id(get_u64(buf)?);
    lake.restore_access_counts(get_count_map(buf)?);
    lake.meter().add_counts(&get_op_counts(buf)?);
    Ok(lake)
}

// ---------------------------------------------------------------------------
// Delta codecs
// ---------------------------------------------------------------------------
//
// Delta snapshot generations (`r2d2_core::persist`) re-encode only what
// changed since the previous generation. The lake-owned sections below come
// in *fingerprint* / *put delta* / *apply delta* triples: the owner captures
// a cheap fingerprint of the state it last persisted, diffs the live state
// against it at the next checkpoint, and a restore applies the delta on top
// of the decoded base. Like everything else in this module the encodings are
// canonical — diffs are walked in key order — so equal (base, state) pairs
// produce byte-equal deltas.

/// Key of one [`HashJoinCache`] entry: `(build dataset id, content
/// generation, canonicalised column set)`.
pub type CacheKey = (u64, u64, Vec<String>);

/// Fingerprint of a [`HashJoinCache`] for delta encoding: the sorted key set
/// of every populated entry. Entries are immutable per key (a multiset is
/// built once and only ever dropped), so presence is the whole story — no
/// per-entry content hash is needed.
pub fn cache_keys(cache: &HashJoinCache) -> Vec<CacheKey> {
    cache.export_entries().into_iter().map(|(k, _)| k).collect()
}

fn put_cache_key(buf: &mut BytesMut, (build_id, generation, cols): &CacheKey) {
    buf.put_u64_le(*build_id);
    buf.put_u64_le(*generation);
    buf.put_u32_le(cols.len() as u32);
    for c in cols {
        put_str(buf, c);
    }
}

fn get_cache_key(buf: &mut Bytes) -> Result<CacheKey> {
    let build_id = get_u64(buf)?;
    let generation = get_u64(buf)?;
    expect_len(buf, 4, "cache key column count")?;
    let col_count = buf.get_u32_le() as usize;
    let mut cols = Vec::with_capacity(col_count.min(1024));
    for _ in 0..col_count {
        cols.push(get_str(buf)?);
    }
    Ok((build_id, generation, cols))
}

/// Append a [`HashJoinCache`] delta against `base_keys` (a prior
/// [`cache_keys`] capture, which is already sorted): the keys dropped since
/// the base, then the entries added since the base (full multisets, encoded
/// exactly as [`put_join_cache`] frames them).
pub fn put_join_cache_delta(buf: &mut BytesMut, cache: &HashJoinCache, base_keys: &[CacheKey]) {
    let entries = cache.export_entries();
    let removed: Vec<&CacheKey> = base_keys
        .iter()
        .filter(|k| entries.binary_search_by(|(key, _)| key.cmp(k)).is_err())
        .collect();
    buf.put_u32_le(removed.len() as u32);
    for key in removed {
        put_cache_key(buf, key);
    }
    let added: Vec<_> = entries
        .iter()
        .filter(|(key, _)| base_keys.binary_search(key).is_err())
        .collect();
    buf.put_u32_le(added.len() as u32);
    for (key, multiset) in added {
        put_cache_key(buf, key);
        let mut rows: Vec<(RowHash, usize)> = multiset.iter().map(|(&h, &n)| (h, n)).collect();
        rows.sort_unstable();
        buf.put_u64_le(rows.len() as u64);
        for (hash, n) in rows {
            buf.put_u64_le(hash.0 as u64);
            buf.put_u64_le((hash.0 >> 64) as u64);
            put_usize(buf, n);
        }
    }
}

/// Apply a [`put_join_cache_delta`] section on top of the base generation's
/// restored cache: removals first, then added entries.
pub fn apply_join_cache_delta(buf: &mut Bytes, cache: &HashJoinCache) -> Result<()> {
    expect_len(buf, 4, "cache delta removed count")?;
    let removed = buf.get_u32_le() as usize;
    for _ in 0..removed {
        cache.remove_entry(&get_cache_key(buf)?);
    }
    expect_len(buf, 4, "cache delta added count")?;
    let added = buf.get_u32_le() as usize;
    for _ in 0..added {
        let key = get_cache_key(buf)?;
        let rows = get_u64(buf)? as usize;
        let mut multiset = RowHashMap::with_capacity_and_hasher(rows, Default::default());
        for _ in 0..rows {
            expect_len(buf, 24, "cache delta multiset entry")?;
            let lo = buf.get_u64_le() as u128;
            let hi = buf.get_u64_le() as u128;
            let n = buf.get_u64_le() as usize;
            multiset.insert(RowHash(lo | (hi << 64)), n);
        }
        cache.restore_entry(key, multiset);
    }
    Ok(())
}

/// Fingerprint of a [`DataLake`]'s catalog for delta encoding:
/// `id → (content generation, access profile)`. The content generation is
/// bumped by every data mutation ([`DataLake::replace_data`]) and the access
/// profile only changes through explicit profile refreshes, so the pair
/// changing — or an id appearing/disappearing — is exactly "this entry needs
/// re-encoding". Names and lineage are immutable per id and ride along with
/// the entry whenever it is dirty.
pub fn lake_fingerprint(lake: &DataLake) -> BTreeMap<u64, (u64, AccessProfile)> {
    lake.iter()
        .map(|e| (e.id.0, (e.generation, e.access)))
        .collect()
}

/// Append a [`DataLake`] delta against `base` (a prior [`lake_fingerprint`]
/// capture): dropped ids, dirty entries in full (new ids or changed
/// fingerprints, encoded exactly as [`put_lake`] frames an entry), then the
/// small always-carried sections — the id counter, the undrained access-log
/// tallies and the cumulative meter totals (whole: they are a handful of
/// words, and carrying totals instead of deltas keeps the apply a plain
/// top-up of monotone counters).
pub fn put_lake_delta(
    buf: &mut BytesMut,
    lake: &DataLake,
    base: &BTreeMap<u64, (u64, AccessProfile)>,
) {
    let dropped: Vec<u64> = base
        .keys()
        .copied()
        .filter(|id| lake.dataset(DatasetId(*id)).is_err())
        .collect();
    buf.put_u32_le(dropped.len() as u32);
    for id in dropped {
        buf.put_u64_le(id);
    }
    let dirty: Vec<&DatasetEntry> = lake
        .iter()
        .filter(|e| base.get(&e.id.0) != Some(&(e.generation, e.access)))
        .collect();
    buf.put_u32_le(dirty.len() as u32);
    for entry in dirty {
        buf.put_u64_le(entry.id.0);
        put_str(buf, &entry.name);
        put_partitioned(buf, &entry.data);
        buf.put_u64_le(entry.generation);
        put_access_profile(buf, &entry.access);
        put_lineage(buf, &entry.lineage);
    }
    buf.put_u64_le(lake.next_id());
    put_count_map(buf, &lake.access_log().counts());
    put_op_counts(buf, &lake.meter().snapshot());
}

/// Apply a [`put_lake_delta`] section on top of the base generation's
/// restored lake: drop the dropped, upsert the dirty (their pages stay lazy,
/// metered on the lake's own meter like [`get_lake`]'s), pin the id counter,
/// replace the access-log window, and top the meter up to the saved totals.
///
/// The meter top-up is a saturating difference: logical counters are
/// monotone across a delta (the saved totals can only be ≥ the base's), and
/// the process-local page counters — zeroed on the wire, but charged live by
/// the lazy decodes above — saturate to a zero gap instead of underflowing.
pub fn apply_lake_delta(buf: &mut Bytes, lake: &mut DataLake) -> Result<()> {
    expect_len(buf, 4, "lake delta dropped count")?;
    let dropped = buf.get_u32_le() as usize;
    for _ in 0..dropped {
        let id = DatasetId(get_u64(buf)?);
        lake.remove_dataset(id)
            .map_err(|_| LakeError::Corrupt(format!("lake delta drops unknown dataset {id}")))?;
    }
    expect_len(buf, 4, "lake delta dirty count")?;
    let dirty = buf.get_u32_le() as usize;
    for _ in 0..dirty {
        let id = DatasetId(get_u64(buf)?);
        let name = get_str(buf)?;
        let data = get_partitioned_with(buf, lake.meter())?;
        let generation = get_u64(buf)?;
        let access = get_access_profile(buf)?;
        let lineage = get_lineage(buf)?;
        lake.restore_entry(DatasetEntry {
            id,
            name,
            data: Arc::new(data),
            generation,
            access,
            lineage,
        });
    }
    lake.set_next_id(get_u64(buf)?);
    lake.restore_access_counts(get_count_map(buf)?);
    let saved = get_op_counts(buf)?;
    let gap = saved.since(&lake.meter().snapshot().without_page_counters());
    lake.meter().add_counts(&gap);
    Ok(())
}

/// Append a [`SchemaInterner`] tail against a prior length capture: the
/// base length (verified on apply — a tail only splices onto the exact
/// interner it was diffed from) and the names of every symbol interned
/// since, in symbol order. Interners only grow and never reassign, so the
/// tail is the entire diff.
pub fn put_interner_tail(buf: &mut BytesMut, interner: &SchemaInterner, base_len: usize) {
    put_usize(buf, base_len);
    let len = interner.len();
    buf.put_u32_le((len - base_len) as u32);
    for id in base_len as u32..len as u32 {
        put_str(buf, interner.resolve(id).expect("dense symbol ids"));
    }
}

/// Apply a [`put_interner_tail`] section: verify the base length matches,
/// then re-intern the tail names so they take their original dense ids.
pub fn apply_interner_tail(buf: &mut Bytes, interner: &mut SchemaInterner) -> Result<()> {
    let base_len = get_usize(buf)?;
    if interner.len() != base_len {
        return Err(LakeError::Corrupt(format!(
            "interner tail expects base length {base_len}, found {}",
            interner.len()
        )));
    }
    expect_len(buf, 4, "interner tail length")?;
    let added = buf.get_u32_le() as usize;
    for offset in 0..added as u32 {
        let name = get_str(buf)?;
        let id = interner.intern(&name);
        if id != base_len as u32 + offset {
            return Err(LakeError::Corrupt("duplicate interner symbol".into()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::datatype::DataType;
    use crate::schema::Schema;

    fn table(ids: std::ops::Range<i64>) -> Table {
        let schema = Schema::flat(&[("id", DataType::Int), ("v", DataType::Float)]).unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints(ids.clone()),
                Column::from_floats(ids.map(|i| i as f64 * 0.5)),
            ],
        )
        .unwrap()
    }

    fn sample_lake() -> DataLake {
        let mut lake = DataLake::new();
        let root = lake
            .add_dataset(
                "root",
                PartitionedTable::from_table(
                    table(0..40),
                    PartitionSpec::ByRowCount {
                        rows_per_partition: 16,
                    },
                )
                .unwrap(),
                AccessProfile {
                    accesses_per_period: 2.5,
                    maintenance_per_period: 4.0,
                },
                None,
            )
            .unwrap();
        lake.add_dataset(
            "sub",
            PartitionedTable::single(table(5..20)),
            AccessProfile::default(),
            Some(Lineage {
                parent: root,
                transform: "WHERE id BETWEEN 5 AND 19".into(),
            }),
        )
        .unwrap();
        lake
    }

    #[test]
    fn lake_round_trip_preserves_catalog_meter_and_access_log() {
        let mut lake = sample_lake();
        // Leave a hole in the id space and some meter/access-log state.
        let doomed = lake
            .add_dataset(
                "doomed",
                PartitionedTable::single(table(0..3)),
                AccessProfile::default(),
                None,
            )
            .unwrap();
        lake.remove_dataset(doomed).unwrap();
        lake.meter().add_rows_scanned(123);
        lake.meter().add_schema_comparisons(7);
        lake.record_access(DatasetId(1));
        lake.record_access(DatasetId(1));

        let mut buf = BytesMut::new();
        put_lake(&mut buf, &lake);
        let bytes = buf.freeze();
        let mut cursor = bytes.clone();
        let back = get_lake(&mut cursor).unwrap();
        assert_eq!(cursor.remaining(), 0);

        // Straight after the restore, every page is still lazy (the data
        // comparisons below will materialize them).
        assert!(back.meter().snapshot().pages_skipped > 0);
        assert_eq!(back.meter().snapshot().pages_decoded, 0);

        assert_eq!(back.len(), lake.len());
        for (a, b) in lake.iter().zip(back.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            assert_eq!(*a.data, *b.data, "partitions, stats and spec round-trip");
            assert_eq!(a.generation, b.generation);
            assert_eq!(a.access, b.access);
            assert_eq!(a.lineage, b.lineage);
        }
        // Identical modulo the process-local page counters: the restored
        // lake re-skipped every page during its lazy decode.
        assert_eq!(
            back.meter().snapshot().without_page_counters(),
            lake.meter().snapshot().without_page_counters()
        );
        assert_eq!(back.access_log().counts(), lake.access_log().counts());

        // The id counter survives: the next add gets a fresh id, not a
        // recycled one.
        let mut back = back;
        let next = back
            .add_dataset(
                "new",
                PartitionedTable::single(table(0..2)),
                AccessProfile::default(),
                None,
            )
            .unwrap();
        assert_eq!(next.0, 3, "next_id must survive the drop of ds2");

        // Canonical bytes: re-encoding a fresh decode is bit-identical.
        let mut cursor = bytes.clone();
        let back2 = get_lake(&mut cursor).unwrap();
        let mut again = BytesMut::new();
        put_lake(&mut again, &back2);
        assert_eq!(again.freeze(), bytes);
    }

    #[test]
    fn update_round_trip_covers_all_variants() {
        let updates = vec![
            LakeUpdate::AddDataset {
                name: "fresh".into(),
                data: PartitionedTable::from_table(
                    table(0..10),
                    PartitionSpec::ByRowCount {
                        rows_per_partition: 4,
                    },
                )
                .unwrap(),
                access: AccessProfile {
                    accesses_per_period: 1.0,
                    maintenance_per_period: 2.0,
                },
                lineage: Some(Lineage {
                    parent: DatasetId(0),
                    transform: "head".into(),
                }),
            },
            LakeUpdate::AppendRows {
                id: DatasetId(3),
                rows: table(10..14),
            },
            LakeUpdate::AppendRows {
                id: DatasetId(4),
                rows: table(0..0), // empty appends must survive too
            },
            LakeUpdate::DeleteRows {
                id: DatasetId(1),
                predicate: Predicate::and(vec![
                    Predicate::eq("id", Value::Int(4)),
                    Predicate::between("v", Value::Float(0.0), Value::Float(2.0)),
                    Predicate::True,
                ]),
            },
            LakeUpdate::DropDataset { id: DatasetId(9) },
        ];
        let mut buf = BytesMut::new();
        for u in &updates {
            put_update(&mut buf, u);
        }
        let mut cursor = buf.freeze();
        for u in &updates {
            assert_eq!(&get_update(&mut cursor).unwrap(), u);
        }
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn applied_update_and_op_counts_round_trip() {
        let applied = vec![
            AppliedUpdate::Added { id: DatasetId(7) },
            AppliedUpdate::Appended {
                id: DatasetId(1),
                rows: 30,
            },
            AppliedUpdate::Deleted {
                id: DatasetId(2),
                rows: 0,
            },
            AppliedUpdate::Dropped { id: DatasetId(3) },
        ];
        let counts = OpCounts {
            rows_scanned: 1,
            bytes_scanned: 2,
            rows_hashed: 3,
            row_comparisons: 4,
            metadata_lookups: 5,
            partitions_pruned: 6,
            partitions_scanned: 7,
            schema_comparisons: 8,
            distinct_prunes: 9,
            sketch_probes: 10,
            sketch_prunes: 11,
            pages_decoded: 12,
            pages_skipped: 13,
            string_hash_ops: 14,
            string_cells_hashed: 15,
        };
        let mut buf = BytesMut::new();
        for a in &applied {
            put_applied(&mut buf, a);
        }
        put_op_counts(&mut buf, &counts);
        let mut cursor = buf.freeze();
        for a in &applied {
            assert_eq!(&get_applied(&mut cursor).unwrap(), a);
        }
        // Page counters are process-local telemetry and don't persist.
        assert_eq!(
            get_op_counts(&mut cursor).unwrap(),
            counts.without_page_counters()
        );
    }

    #[test]
    fn interner_round_trip_preserves_symbol_ids() {
        let mut interner = SchemaInterner::new();
        for name in ["b", "a", "c.d", "a"] {
            interner.intern(name);
        }
        let mut buf = BytesMut::new();
        put_interner(&mut buf, &interner);
        let mut cursor = buf.freeze();
        let back = get_interner(&mut cursor).unwrap();
        assert_eq!(back.len(), 3);
        for id in 0..3u32 {
            assert_eq!(back.resolve(id), interner.resolve(id));
        }
    }

    #[test]
    fn join_cache_round_trip_preserves_multisets() {
        let lake = sample_lake();
        let cache = HashJoinCache::new();
        let meter = Meter::new();
        let entry = lake.dataset(DatasetId(0)).unwrap();
        let original = cache
            .multiset(0, entry.generation, &entry.data, &["id", "v"], &meter)
            .unwrap();

        let mut buf = BytesMut::new();
        put_join_cache(&mut buf, &cache);
        let mut cursor = buf.freeze();
        let back = get_join_cache(&mut cursor).unwrap();
        assert_eq!(back.len(), 1);
        // Serving the same key from the restored cache returns the restored
        // multiset without re-hashing (scratch meter stays untouched).
        let scratch = Meter::new();
        let served = back
            .multiset(0, entry.generation, &entry.data, &["id", "v"], &scratch)
            .unwrap();
        assert_eq!(*served, *original);
        assert_eq!(scratch.snapshot(), OpCounts::default());
    }

    #[test]
    fn lake_delta_reencodes_only_dirty_entries_and_applies_cleanly() {
        let mut lake = sample_lake();
        let doomed = lake
            .add_dataset(
                "doomed",
                PartitionedTable::single(table(50..55)),
                AccessProfile::default(),
                None,
            )
            .unwrap();
        lake.meter().add_rows_scanned(50);
        lake.record_access(DatasetId(0));
        let base_fingerprint = lake_fingerprint(&lake);

        // Persist the base, then restore it — the delta applies on top of a
        // *decoded* base, exactly as a chain restore would.
        let mut base_buf = BytesMut::new();
        put_lake(&mut base_buf, &lake);
        let mut restored = get_lake(&mut base_buf.freeze()).unwrap();

        // Mutate one dataset, add one, drop one, touch an access profile,
        // and accrue more meter/access-log state.
        lake.replace_data(DatasetId(0), PartitionedTable::single(table(0..25)))
            .unwrap();
        let fresh = lake
            .add_dataset(
                "fresh",
                PartitionedTable::single(table(100..110)),
                AccessProfile::default(),
                None,
            )
            .unwrap();
        lake.remove_dataset(doomed).unwrap();
        lake.set_access_profile(
            fresh,
            AccessProfile {
                accesses_per_period: 9.0,
                maintenance_per_period: 1.0,
            },
        )
        .unwrap();
        lake.meter().add_rows_scanned(17);
        lake.record_access(fresh);

        let mut delta = BytesMut::new();
        put_lake_delta(&mut delta, &lake, &base_fingerprint);
        let delta = delta.freeze();

        // The delta re-encodes only the dirty entries (root and fresh), not
        // the whole lake: the untouched "sub" contributes nothing.
        let mut full = BytesMut::new();
        put_lake(&mut full, &lake);
        let full = full.freeze();
        assert!(
            delta.len() < full.len(),
            "delta ({}) must be smaller than the full encoding ({})",
            delta.len(),
            full.len()
        );

        let mut cursor = delta.clone();
        apply_lake_delta(&mut cursor, &mut restored).unwrap();
        assert_eq!(cursor.remaining(), 0);

        // Bit-identity through the canonical encoder: the applied lake and
        // the live lake serialize to the same bytes.
        let mut applied = BytesMut::new();
        put_lake(&mut applied, &restored);
        assert_eq!(applied.freeze(), full);

        // A delta that drops an id the base never had is a clean error.
        let mut bogus_base = base_fingerprint.clone();
        bogus_base.insert(999, (0, AccessProfile::default()));
        let mut bogus = BytesMut::new();
        put_lake_delta(&mut bogus, &lake, &bogus_base);
        let mut fresh_restore = {
            let mut buf = BytesMut::new();
            put_lake(&mut buf, &sample_lake());
            get_lake(&mut buf.freeze()).unwrap()
        };
        assert!(apply_lake_delta(&mut bogus.freeze(), &mut fresh_restore).is_err());
    }

    #[test]
    fn join_cache_delta_tracks_additions_and_removals() {
        let lake = sample_lake();
        let meter = Meter::new();
        let cache = HashJoinCache::new();
        let root = lake.dataset(DatasetId(0)).unwrap();
        let sub = lake.dataset(DatasetId(1)).unwrap();
        cache
            .multiset(0, root.generation, &root.data, &["id"], &meter)
            .unwrap();
        let base_keys = cache_keys(&cache);

        // Restore the base cache, then diverge the live one: add a key,
        // remove the old one.
        let mut base_buf = BytesMut::new();
        put_join_cache(&mut base_buf, &cache);
        let restored = get_join_cache(&mut base_buf.freeze()).unwrap();

        cache
            .multiset(1, sub.generation, &sub.data, &["id", "v"], &meter)
            .unwrap();
        cache.evict_dataset(0);

        let mut delta = BytesMut::new();
        put_join_cache_delta(&mut delta, &cache, &base_keys);
        let mut cursor = delta.freeze();
        apply_join_cache_delta(&mut cursor, &restored).unwrap();
        assert_eq!(cursor.remaining(), 0);

        let mut live = BytesMut::new();
        put_join_cache(&mut live, &cache);
        let mut applied = BytesMut::new();
        put_join_cache(&mut applied, &restored);
        assert_eq!(applied.freeze(), live.freeze());

        // No changes → an empty (but well-formed) delta.
        let mut empty = BytesMut::new();
        put_join_cache_delta(&mut empty, &cache, &cache_keys(&cache));
        assert_eq!(empty.len(), 8, "two zero counts");
    }

    #[test]
    fn interner_tail_splices_only_onto_its_exact_base() {
        let mut interner = SchemaInterner::new();
        interner.intern("a");
        interner.intern("b");
        let base_len = interner.len();
        interner.intern("c");
        interner.intern("d");

        let mut buf = BytesMut::new();
        put_interner_tail(&mut buf, &interner, base_len);
        let tail = buf.freeze();

        let mut target = SchemaInterner::new();
        target.intern("a");
        target.intern("b");
        apply_interner_tail(&mut tail.clone(), &mut target).unwrap();
        assert_eq!(target.len(), 4);
        for id in 0..4u32 {
            assert_eq!(target.resolve(id), interner.resolve(id));
        }

        // Wrong base length: splicing onto a shorter or longer interner is
        // rejected before any symbol is interned.
        let mut too_short = SchemaInterner::new();
        too_short.intern("a");
        assert!(apply_interner_tail(&mut tail.clone(), &mut too_short).is_err());
        let mut too_long = target;
        assert!(apply_interner_tail(&mut tail.clone(), &mut too_long).is_err());
    }

    #[test]
    fn corrupt_inputs_are_clean_errors() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "hello");
        let bytes = buf.freeze();
        // Truncated string payload.
        let mut short = bytes.slice(0..bytes.len() - 2);
        assert!(get_str(&mut short).is_err());
        // Unknown tags.
        let mut bad_tag = Bytes::from(vec![9u8]);
        assert!(get_predicate(&mut bad_tag).is_err());
        let mut bad_tag = Bytes::from(vec![9u8]);
        assert!(get_update(&mut bad_tag).is_err());
        let mut empty = Bytes::new();
        assert!(get_op_counts(&mut empty).is_err());
        assert!(get_lake(&mut Bytes::new()).is_err());
    }
}
