//! Durable session snapshots and write-ahead logging.
//!
//! The paper's enterprise lakes persist in ADLS-style storage, but an
//! [`R2d2Session`](crate::session::R2d2Session) used to be purely in-memory:
//! every process restart paid a full SGB → MMP → CLP bootstrap plus a
//! from-scratch Opt-Ret solve. This module makes session state durable with
//! the classic snapshot + WAL split:
//!
//! * a **snapshot** ([`SessionSnapshot`]) serializes the *entire* session —
//!   lake catalog with partitioned tables (via the `R2D2LAKE` storage
//!   format), schema interner, containment graph, hash-join cache, meter
//!   totals, access log, bootstrap report, update log and the advisor's
//!   [`AdvisorState`] — into one checksummed file;
//! * a **write-ahead log** (framing in [`r2d2_lake::wal`]) appends each
//!   update batch and each access-profile refresh *before* it mutates the
//!   session, so a crash between snapshots loses nothing acknowledged.
//!
//! `R2d2Session::restore` loads the newest intact snapshot generation and
//! replays the WAL tail; torn or corrupt tail records are detected by the
//! per-record length + checksum framing and cleanly dropped. The restored
//! session is **bit-identical** to the uninterrupted one — graph, meter
//! totals, update log and advisor solution — because every piece of state
//! that influences future behaviour (including the hash-join cache, whose
//! hits keep metering schedule-independent) round-trips through the
//! snapshot (`tests/integration_persistence.rs` pins this with a randomized
//! kill-and-restore oracle).
//!
//! ## On-disk layout
//!
//! A persistence directory holds numbered *generations*; generation `N` is
//! `snapshot-00000N.r2d2snap` plus WAL segments
//! `wal-00000N-00S.r2d2wal` (the updates applied since that snapshot,
//! rotated into bounded files per
//! [`PersistenceConfig::wal_segment_max_bytes`]). Rotation
//! ([`R2d2Session::checkpoint`], or automatically every
//! [`PersistenceConfig::snapshot_every_n_updates`] updates) writes
//! generation `N+1` and prunes every older generation no surviving restore
//! chain needs. Snapshots are written to a temp file and renamed into place,
//! so a crash mid-write never destroys the previous generation.
//!
//! ## Delta generations
//!
//! A generation's snapshot is either **full** (self-contained) or a
//! **delta**: only the state dirtied since the previous generation — dirty
//! lake datasets, graph node tail + edge diff, interner tail, join-cache
//! add/remove sets, update-log tail and the advisor's component diff — with
//! a header naming the base generation's sequence number and body checksum.
//! Restore walks the chain (full base, then each delta oldest → newest) and
//! verifies every link's checksum against the header of the delta above it;
//! any broken link makes the whole generation fall back, exactly as a
//! corrupt full snapshot does. Every
//! [`PersistenceConfig::rebase_every_k_deltas`] deltas, a checkpoint
//! *rebases*: it writes a fresh full snapshot, bounding chain length and
//! letting the chain-aware pruner finally drop the old chain. See
//! `ARCHITECTURE.md` for the byte-level format specification.
//!
//! [`R2d2Session::restore`]: crate::session::R2d2Session::restore
//! [`R2d2Session::checkpoint`]: crate::session::R2d2Session::checkpoint
//! [`AdvisorState`]: r2d2_opt::advisor::AdvisorState

use crate::config::{ClpSampling, PipelineConfig};
use crate::pipeline::{PipelineReport, Stage, StageReport};
use crate::session::UpdateReport;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use r2d2_graph::diff::EdgeDelta;
use r2d2_graph::{codec as graph_codec, ContainmentGraph};
use r2d2_lake::snapshot as wire;
use r2d2_lake::wal::{self, WalWriter};
use r2d2_lake::{DataLake, HashJoinCache, LakeError, LakeUpdate, Result, SchemaInterner};
use r2d2_opt::advisor::AdvisorState;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Leading/trailing magic of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"R2D2SNAP";

/// Current snapshot format version. Version 5 introduced **delta
/// generations**: a one-byte kind tag follows the version, and delta files
/// carry a chain header naming the base generation they patch
/// (`base_seq u64 | base_checksum u64`); the body of a full snapshot also
/// gained the `rebase_every_k_deltas` / `wal_segment_max_bytes` policy
/// fields. Version 6 keeps that framing and shrinks the body: the pipeline
/// config is seven fields (no typed-columns flag, reserved byte or approx
/// block), the bootstrap report has no approx-edge section, `OpCounts` is
/// 15 words and embedded tables are `R2D2LAKE` v6. Version-1…5 snapshots
/// fail with an explicit "unsupported snapshot version" error (an older
/// reader likewise rejects v6 files by the same check).
pub const SNAPSHOT_VERSION: u32 = 6;

/// Snapshot kind tag: a self-contained full snapshot.
const KIND_FULL: u8 = 0;
/// Snapshot kind tag: a delta patching the previous generation.
const KIND_DELTA: u8 = 1;

/// Default compaction policy: snapshot after this many updates.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 512;

/// Default rebase policy: write a full snapshot after this many consecutive
/// delta generations.
pub const DEFAULT_REBASE_EVERY: usize = 8;

/// How a session persists itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistenceConfig {
    /// Directory holding the snapshot + WAL generations.
    pub dir: PathBuf,
    /// Compaction policy: after this many applied updates since the last
    /// snapshot, the session automatically writes a fresh snapshot and
    /// rotates the WAL (keeping restart replay short). `0` disables
    /// automatic rotation — only explicit
    /// [`checkpoint`](crate::session::R2d2Session::checkpoint) calls
    /// snapshot.
    pub snapshot_every_n_updates: usize,
    /// Rebase policy: a checkpoint writes a *delta* generation (only the
    /// state dirtied since the previous generation) unless this many deltas
    /// have accumulated since the last full snapshot, in which case it
    /// rebases with a fresh full snapshot. `0` disables deltas — every
    /// checkpoint writes a full snapshot (the pre-v5 behaviour).
    pub rebase_every_k_deltas: usize,
    /// WAL segment budget in bytes: the active segment rotates into a new
    /// file once it grows past this size, so compaction can drop bounded
    /// segments instead of one unbounded log. `0` disables rotation (one
    /// segment per generation).
    pub wal_segment_max_bytes: u64,
}

impl PersistenceConfig {
    /// Persist into `dir` with the default policies (snapshot every 512
    /// updates, rebase every 8 deltas, unbounded WAL segments).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistenceConfig {
            dir: dir.into(),
            snapshot_every_n_updates: DEFAULT_SNAPSHOT_EVERY,
            rebase_every_k_deltas: DEFAULT_REBASE_EVERY,
            wal_segment_max_bytes: 0,
        }
    }

    /// Override the compaction policy (builder style; `0` = manual only).
    pub fn with_snapshot_every(mut self, n_updates: usize) -> Self {
        self.snapshot_every_n_updates = n_updates;
        self
    }

    /// Override the rebase policy (builder style; `0` = always full).
    pub fn with_rebase_every(mut self, k_deltas: usize) -> Self {
        self.rebase_every_k_deltas = k_deltas;
        self
    }

    /// Override the WAL segment budget (builder style; `0` = unbounded).
    pub fn with_wal_segment_max_bytes(mut self, bytes: u64) -> Self {
        self.wal_segment_max_bytes = bytes;
        self
    }
}

/// Injectable crash points for the fault-injection restore tests.
///
/// The persistence writer consults the installed hook at every named write
/// site (e.g. `"delta:tmp-written"`, `"rotate:created"`, `"prune:mid"`);
/// returning `true` injects an I/O error *at exactly that point*, leaving
/// the on-disk state as a real crash there would. Production sessions carry
/// [`Failpoints::none`] and pay one `Option` check per site.
#[derive(Clone, Default)]
pub struct Failpoints(Option<FailpointHook>);

type FailpointHook = std::sync::Arc<dyn Fn(&str) -> bool + Send + Sync>;

impl std::fmt::Debug for Failpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("Failpoints(installed)"),
            None => f.write_str("Failpoints(none)"),
        }
    }
}

impl Failpoints {
    /// Install a hook, called with the site name at every crash point;
    /// returning `true` injects an I/O error there.
    pub fn new(hook: impl Fn(&str) -> bool + Send + Sync + 'static) -> Self {
        Failpoints(Some(std::sync::Arc::new(hook)))
    }

    /// No injected crash points (the default).
    pub fn none() -> Self {
        Failpoints(None)
    }

    /// Consult the hook at one named site.
    pub(crate) fn hit(&self, site: &str) -> Result<()> {
        if let Some(hook) = &self.0 {
            if hook(site) {
                return Err(LakeError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!("injected crash at {site}"),
                )));
            }
        }
        Ok(())
    }
}

/// Live persistence state attached to a session.
#[derive(Debug)]
pub(crate) struct Persistence {
    pub(crate) config: PersistenceConfig,
    /// Current generation number (the snapshot the WAL extends).
    pub(crate) seq: u64,
    /// Index of the active WAL segment within this generation.
    pub(crate) segment: u32,
    pub(crate) wal: WalWriter,
    /// Stats of this generation's already-rotated (closed) segments.
    pub(crate) retired_segments: wal::WalStats,
    /// Updates applied since the generation's snapshot was written.
    pub(crate) updates_since_snapshot: usize,
    /// Consecutive delta generations since the last full snapshot (0 right
    /// after a full snapshot).
    pub(crate) deltas_since_full: usize,
    /// Fingerprints of the state this generation's snapshot captured — what
    /// the next delta checkpoint diffs against.
    pub(crate) base: BaseCapture,
}

impl Persistence {
    /// Append one WAL record, rotating the active segment first when it has
    /// outgrown [`PersistenceConfig::wal_segment_max_bytes`]. Rotation
    /// happens *before* the record is framed, so a crash between creating
    /// the next segment and appending (site `"rotate:created"`) loses a
    /// record that was never acknowledged — exactly the write-ahead
    /// contract.
    pub(crate) fn append(&mut self, payload: &[u8], failpoints: &Failpoints) -> Result<()> {
        let budget = self.config.wal_segment_max_bytes;
        if budget > 0 && self.wal.bytes_written() >= budget {
            let next = self.segment + 1;
            let writer = WalWriter::create(
                &wal_segment_path(&self.config.dir, self.seq, next),
                self.seq,
                next,
            )?;
            let old = std::mem::replace(&mut self.wal, writer);
            self.retired_segments = self.retired_segments.plus(&old.stats());
            self.segment = next;
            failpoints.hit("rotate:created")?;
        }
        self.wal.append(payload)
    }

    /// This generation's WAL stats: retired segments plus the active writer.
    pub(crate) fn wal_stats(&self) -> wal::WalStats {
        self.retired_segments.plus(&self.wal.stats())
    }
}

/// Fingerprints of the session state captured by the current generation's
/// snapshot — everything a delta checkpoint needs to diff the live session
/// against, plus the chain identity (`seq`, body checksum) the delta's
/// header will name as its base.
#[derive(Debug)]
pub(crate) struct BaseCapture {
    /// Generation whose snapshot these fingerprints describe.
    pub(crate) seq: u64,
    /// Body checksum of that snapshot file (the chain link).
    pub(crate) body_checksum: u64,
    /// Lake fingerprint: id → (content generation, access profile).
    pub(crate) lake: BTreeMap<u64, (u64, r2d2_lake::AccessProfile)>,
    /// Graph fingerprint (node list + annotated edges).
    pub(crate) graph: graph_codec::GraphCapture,
    /// Interner length (interners only grow; the tail is the diff).
    pub(crate) interner_len: usize,
    /// Sorted join-cache key set (entries are immutable per key).
    pub(crate) cache_keys: Vec<wire::CacheKey>,
    /// Update-log length (the log only appends).
    pub(crate) log_len: usize,
    /// Advisor fingerprint, when the advisor was enabled at the snapshot.
    pub(crate) advisor: Option<r2d2_opt::advisor::AdvisorCapture>,
}

/// Capture the fingerprints of the state `parts` describes, as the base for
/// the next delta checkpoint.
pub(crate) fn capture_base(seq: u64, body_checksum: u64, parts: &SnapshotParts<'_>) -> BaseCapture {
    BaseCapture {
        seq,
        body_checksum,
        lake: wire::lake_fingerprint(parts.lake),
        graph: graph_codec::capture(parts.graph),
        interner_len: parts.interner.len(),
        cache_keys: wire::cache_keys(parts.cache),
        log_len: parts.log.len(),
        advisor: parts.advisor.map(|a| a.capture()),
    }
}

/// Path of generation `seq`'s snapshot file.
pub(crate) fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq:06}.r2d2snap"))
}

/// Path of segment `segment` of generation `seq`'s write-ahead log.
pub(crate) fn wal_segment_path(dir: &Path, seq: u64, segment: u32) -> PathBuf {
    dir.join(format!("wal-{seq:06}-{segment:03}.r2d2wal"))
}

/// Snapshot generations present in `dir`, ascending.
pub(crate) fn list_generations(dir: &Path) -> Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name
            .strip_prefix("snapshot-")
            .and_then(|r| r.strip_suffix(".r2d2snap"))
        {
            if let Ok(seq) = rest.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// WAL segments of generation `seq` present in `dir`, ascending by segment
/// index.
pub(crate) fn list_wal_segments(dir: &Path, seq: u64) -> Result<Vec<(u32, PathBuf)>> {
    let prefix = format!("wal-{seq:06}-");
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name
            .strip_prefix(prefix.as_str())
            .and_then(|r| r.strip_suffix(".r2d2wal"))
        {
            if let Ok(segment) = rest.parse::<u32>() {
                segments.push((segment, dir.join(name.as_ref())));
            }
        }
    }
    segments.sort_unstable_by_key(|&(segment, _)| segment);
    Ok(segments)
}

/// The generations a restore starting at `seq` would read: `seq` itself plus
/// every chain link down to (and including) its full-snapshot base, by cheap
/// header peeks — bodies are not decoded or checksummed.
pub(crate) fn chain_members(dir: &Path, seq: u64) -> Result<Vec<u64>> {
    let mut members = vec![seq];
    let mut at = seq;
    loop {
        match peek_snapshot_kind(&snapshot_path(dir, at))? {
            SnapshotKind::Full => break,
            SnapshotKind::Delta { base_seq, .. } => {
                if base_seq >= at {
                    return Err(LakeError::Corrupt(format!(
                        "delta chain does not descend at generation {at}"
                    )));
                }
                members.push(base_seq);
                at = base_seq;
            }
        }
    }
    Ok(members)
}

/// Delete every generation no surviving restore chain needs: the keep set is
/// the chain of `current` plus the chain of the newest older generation (the
/// fallback a restore would walk if `current` is broken). Never deletes a
/// delta chain's base while a dependent delta survives — the whole chain is
/// in the keep set. Any unreadable chain makes pruning a no-op (keeping
/// extra files is always safe; deleting a link is not). Returns the number
/// of WAL segment files compacted away.
pub(crate) fn prune_generations(dir: &Path, current: u64, failpoints: &Failpoints) -> Result<u64> {
    let generations = list_generations(dir)?;
    let mut keep: std::collections::BTreeSet<u64> = match chain_members(dir, current) {
        Ok(members) => members.into_iter().collect(),
        Err(_) => return Ok(0),
    };
    if let Some(&prev) = generations.iter().rev().find(|&&g| g < current) {
        match chain_members(dir, prev) {
            Ok(members) => keep.extend(members),
            Err(_) => return Ok(0),
        }
    }
    let mut compacted = 0u64;
    failpoints.hit("prune:begin")?;
    for seq in generations {
        if keep.contains(&seq) {
            continue;
        }
        std::fs::remove_file(snapshot_path(dir, seq)).ok();
        for (_, path) in list_wal_segments(dir, seq)? {
            std::fs::remove_file(path).ok();
            compacted += 1;
        }
        failpoints.hit("prune:mid")?;
    }
    Ok(compacted)
}

// ---------------------------------------------------------------------------
// WAL record payloads
// ---------------------------------------------------------------------------

/// One logical write-ahead-log record (the payload inside
/// [`r2d2_lake::wal`]'s length + checksum framing).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// One `apply_batch` invocation, recorded *before* execution. Replay
    /// re-runs the whole batch; a batch whose mutation failed mid-way fails
    /// at the same update again, reproducing the original partial
    /// application exactly.
    Batch(Vec<LakeUpdate>),
    /// One `refresh_access_profiles` drain: the observed per-dataset access
    /// tallies plus the session's meter totals at the drain — runtime
    /// read-side traffic that replay cannot regenerate, so the record
    /// carries it verbatim and replay tops the meter up to the recorded
    /// totals. Refreshes (and checkpoints) are thus the *sync points* for
    /// read telemetry; raw traffic served between the last sync and a crash
    /// is lost (it is telemetry, not session state).
    AccessRefresh {
        /// Per-dataset access tallies drained from the lake's access log.
        counts: BTreeMap<u64, u64>,
        /// Cumulative meter totals at the drain.
        meter: r2d2_lake::OpCounts,
    },
}

impl WalRecord {
    pub(crate) fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            WalRecord::Batch(updates) => {
                buf.put_u8(0);
                buf.put_u32_le(updates.len() as u32);
                for u in updates {
                    wire::put_update(&mut buf, u);
                }
            }
            WalRecord::AccessRefresh { counts, meter } => {
                buf.put_u8(1);
                wire::put_count_map(&mut buf, counts);
                wire::put_op_counts(&mut buf, meter);
            }
        }
        buf.freeze()
    }

    pub(crate) fn decode(buf: &mut Bytes) -> Result<WalRecord> {
        Ok(match wire::get_tag(buf, "wal record tag")? {
            0 => {
                wire::expect_len(buf, 4, "wal batch length")?;
                let len = buf.get_u32_le() as usize;
                let mut updates = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    updates.push(wire::get_update(buf)?);
                }
                WalRecord::Batch(updates)
            }
            1 => WalRecord::AccessRefresh {
                counts: wire::get_count_map(buf)?,
                meter: wire::get_op_counts(buf)?,
            },
            other => {
                return Err(LakeError::Corrupt(format!(
                    "unknown wal record tag {other}"
                )))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Session snapshot codec
// ---------------------------------------------------------------------------

/// Borrowed view of everything a snapshot must capture. Assembled by
/// `R2d2Session::snapshot` (the fields are private to the session).
pub(crate) struct SnapshotParts<'a> {
    pub config: &'a PipelineConfig,
    pub snapshot_every_n_updates: usize,
    pub rebase_every_k_deltas: usize,
    pub wal_segment_max_bytes: u64,
    pub lake: &'a DataLake,
    pub graph: &'a ContainmentGraph,
    pub interner: &'a SchemaInterner,
    pub cache: &'a HashJoinCache,
    pub bootstrap: &'a PipelineReport,
    pub updates_applied: usize,
    pub log: &'a [UpdateReport],
    pub advisor: Option<&'a AdvisorState>,
}

/// Owned result of decoding a snapshot (or a whole delta chain);
/// `R2d2Session::from_snapshot` turns it back into a live session.
pub(crate) struct DecodedSnapshot {
    pub config: PipelineConfig,
    pub snapshot_every_n_updates: usize,
    pub rebase_every_k_deltas: usize,
    pub wal_segment_max_bytes: u64,
    pub lake: DataLake,
    pub graph: ContainmentGraph,
    pub interner: SchemaInterner,
    pub cache: HashJoinCache,
    pub bootstrap: PipelineReport,
    pub updates_applied: usize,
    pub log: Vec<UpdateReport>,
    pub advisor: Option<AdvisorState>,
}

/// What kind of snapshot a generation's file holds, from its header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SnapshotKind {
    /// Self-contained: the body decodes on its own.
    Full,
    /// Patches the generation named by the chain header; the body is a diff
    /// against that base's decoded state.
    Delta {
        /// Generation this delta patches.
        base_seq: u64,
        /// Expected body checksum of the base generation's snapshot file —
        /// the chain-link integrity check.
        base_checksum: u64,
    },
}

/// A validated snapshot file split into its header and body: magic, version
/// and trailing magic checked, body checksum verified.
pub(crate) struct SnapshotFile {
    pub(crate) kind: SnapshotKind,
    pub(crate) body: Bytes,
    /// The body checksum stored in (and verified against) the file — what a
    /// dependent delta's chain header must name.
    pub(crate) body_checksum: u64,
}

fn put_duration(buf: &mut BytesMut, d: &Duration) {
    buf.put_u64_le(d.as_secs());
    buf.put_u32_le(d.subsec_nanos());
}

fn get_duration(buf: &mut Bytes) -> Result<Duration> {
    wire::expect_len(buf, 12, "duration")?;
    let secs = buf.get_u64_le();
    let nanos = buf.get_u32_le();
    Ok(Duration::new(secs, nanos))
}

fn put_pipeline_config(buf: &mut BytesMut, c: &PipelineConfig) {
    wire::put_usize(buf, c.clp_columns);
    wire::put_usize(buf, c.clp_rows);
    wire::put_usize(buf, c.clp_rounds);
    buf.put_u8(match c.clp_sampling {
        ClpSampling::RandomRows => 0,
        ClpSampling::PredicateFilter => 1,
        ClpSampling::BothSides => 2,
    });
    buf.put_u64_le(c.seed);
    wire::put_bool(buf, c.mmp_distinct_gate);
    wire::put_usize(buf, c.threads);
}

fn get_pipeline_config(buf: &mut Bytes) -> Result<PipelineConfig> {
    let clp_columns = wire::get_usize(buf)?;
    let clp_rows = wire::get_usize(buf)?;
    let clp_rounds = wire::get_usize(buf)?;
    let clp_sampling = match wire::get_tag(buf, "clp sampling tag")? {
        0 => ClpSampling::RandomRows,
        1 => ClpSampling::PredicateFilter,
        2 => ClpSampling::BothSides,
        other => {
            return Err(LakeError::Corrupt(format!(
                "unknown clp sampling tag {other}"
            )))
        }
    };
    let seed = wire::get_u64(buf)?;
    let mmp_distinct_gate = wire::get_bool(buf)?;
    let threads = wire::get_usize(buf)?;
    Ok(PipelineConfig {
        clp_columns,
        clp_rows,
        clp_rounds,
        clp_sampling,
        seed,
        mmp_distinct_gate,
        threads,
    })
}

fn put_graph(buf: &mut BytesMut, graph: &ContainmentGraph) {
    wire::put_bytes(buf, &graph_codec::encode(graph));
}

fn get_graph(buf: &mut Bytes) -> Result<ContainmentGraph> {
    let raw = wire::get_bytes(buf)?;
    let mut cursor = raw.clone();
    let graph = graph_codec::decode(&mut cursor).map_err(|e| LakeError::Corrupt(e.to_string()))?;
    if cursor.remaining() != 0 {
        return Err(LakeError::Corrupt("trailing graph bytes".into()));
    }
    Ok(graph)
}

fn put_pipeline_report(buf: &mut BytesMut, report: &PipelineReport) {
    put_graph(buf, &report.after_sgb);
    put_graph(buf, &report.after_mmp);
    put_graph(buf, &report.after_clp);
    buf.put_u32_le(report.stages.len() as u32);
    for stage in &report.stages {
        buf.put_u8(match stage.stage {
            Stage::Sgb => 0,
            Stage::Mmp => 1,
            Stage::Clp => 2,
        });
        put_duration(buf, &stage.duration);
        wire::put_op_counts(buf, &stage.ops);
        wire::put_usize(buf, stage.edges_after);
    }
    wire::put_usize(buf, report.sgb_clusters);
    put_duration(buf, &report.total_duration);
}

fn get_pipeline_report(buf: &mut Bytes) -> Result<PipelineReport> {
    let after_sgb = get_graph(buf)?;
    let after_mmp = get_graph(buf)?;
    let after_clp = get_graph(buf)?;
    wire::expect_len(buf, 4, "stage count")?;
    let stage_count = buf.get_u32_le() as usize;
    let mut stages = Vec::with_capacity(stage_count.min(8));
    for _ in 0..stage_count {
        let stage = match wire::get_tag(buf, "stage tag")? {
            0 => Stage::Sgb,
            1 => Stage::Mmp,
            2 => Stage::Clp,
            other => return Err(LakeError::Corrupt(format!("unknown stage tag {other}"))),
        };
        stages.push(StageReport {
            stage,
            duration: get_duration(buf)?,
            ops: wire::get_op_counts(buf)?,
            edges_after: wire::get_usize(buf)?,
        });
    }
    let sgb_clusters = wire::get_usize(buf)?;
    let total_duration = get_duration(buf)?;
    Ok(PipelineReport {
        after_sgb,
        after_mmp,
        after_clp,
        stages,
        sgb_clusters,
        total_duration,
    })
}

fn put_update_report(buf: &mut BytesMut, report: &UpdateReport) {
    wire::put_usize(buf, report.updates_applied);
    buf.put_u32_le(report.applied.len() as u32);
    for a in &report.applied {
        wire::put_applied(buf, a);
    }
    wire::put_usize(buf, report.datasets_changed);
    wire::put_usize(buf, report.candidates_checked);
    wire::put_usize(buf, report.rows_sampled);
    buf.put_u32_le(report.delta.added.len() as u32);
    for &(p, c) in &report.delta.added {
        buf.put_u64_le(p);
        buf.put_u64_le(c);
    }
    buf.put_u32_le(report.delta.removed.len() as u32);
    for &(p, c) in &report.delta.removed {
        buf.put_u64_le(p);
        buf.put_u64_le(c);
    }
    wire::put_op_counts(buf, &report.ops);
    put_duration(buf, &report.duration);
}

fn get_edge_list(buf: &mut Bytes) -> Result<Vec<(u64, u64)>> {
    wire::expect_len(buf, 4, "edge list length")?;
    let len = buf.get_u32_le() as usize;
    let mut edges = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        wire::expect_len(buf, 16, "edge pair")?;
        let p = buf.get_u64_le();
        let c = buf.get_u64_le();
        edges.push((p, c));
    }
    Ok(edges)
}

fn get_update_report(buf: &mut Bytes) -> Result<UpdateReport> {
    let updates_applied = wire::get_usize(buf)?;
    wire::expect_len(buf, 4, "applied list length")?;
    let applied_len = buf.get_u32_le() as usize;
    let mut applied = Vec::with_capacity(applied_len.min(4096));
    for _ in 0..applied_len {
        applied.push(wire::get_applied(buf)?);
    }
    let datasets_changed = wire::get_usize(buf)?;
    let candidates_checked = wire::get_usize(buf)?;
    let rows_sampled = wire::get_usize(buf)?;
    let delta = EdgeDelta {
        added: get_edge_list(buf)?,
        removed: get_edge_list(buf)?,
    };
    let ops = wire::get_op_counts(buf)?;
    let duration = get_duration(buf)?;
    Ok(UpdateReport {
        updates_applied,
        applied,
        datasets_changed,
        candidates_checked,
        rows_sampled,
        delta,
        ops,
        duration,
    })
}

/// Wrap an encoded body in the snapshot file framing:
/// `magic | version | kind [| base_seq | base_checksum] | body |
/// checksum(body) | magic`.
pub(crate) fn frame_snapshot(kind: SnapshotKind, body: Bytes) -> Bytes {
    let mut file = BytesMut::with_capacity(body.len() + 45);
    file.put_slice(SNAPSHOT_MAGIC);
    file.put_u32_le(SNAPSHOT_VERSION);
    match kind {
        SnapshotKind::Full => file.put_u8(KIND_FULL),
        SnapshotKind::Delta {
            base_seq,
            base_checksum,
        } => {
            file.put_u8(KIND_DELTA);
            file.put_u64_le(base_seq);
            file.put_u64_le(base_checksum);
        }
    }
    file.put_slice(&body);
    file.put_u64_le(wal::checksum(&body));
    file.put_slice(SNAPSHOT_MAGIC);
    file.freeze()
}

/// Validate a snapshot file image and split it into kind + body, verifying
/// magic, version, kind tag and the body checksum.
pub(crate) fn read_snapshot_file(bytes: &Bytes) -> Result<SnapshotFile> {
    let overhead = 8 + 4 + 1 + 8 + 8; // magic + version + kind + checksum + magic
    if bytes.len() < overhead {
        return Err(LakeError::Corrupt("snapshot too small".into()));
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(LakeError::Corrupt("bad snapshot magic".into()));
    }
    if &bytes[bytes.len() - 8..] != SNAPSHOT_MAGIC {
        return Err(LakeError::Corrupt("bad trailing snapshot magic".into()));
    }
    let mut header = bytes.slice(8..bytes.len() - 16);
    let version = header.get_u32_le();
    if version != SNAPSHOT_VERSION {
        return Err(LakeError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let (kind, body_start) = match header.get_u8() {
        KIND_FULL => (SnapshotKind::Full, 8 + 4 + 1),
        KIND_DELTA => {
            if bytes.len() < overhead + 16 {
                return Err(LakeError::Corrupt("delta snapshot too small".into()));
            }
            let base_seq = header.get_u64_le();
            let base_checksum = header.get_u64_le();
            (
                SnapshotKind::Delta {
                    base_seq,
                    base_checksum,
                },
                8 + 4 + 1 + 16,
            )
        }
        other => {
            return Err(LakeError::Corrupt(format!(
                "unknown snapshot kind tag {other}"
            )))
        }
    };
    let body = bytes.slice(body_start..bytes.len() - 16);
    let mut tail = bytes.slice(bytes.len() - 16..bytes.len() - 8);
    let body_checksum = tail.get_u64_le();
    if wal::checksum(&body) != body_checksum {
        return Err(LakeError::Corrupt("snapshot checksum mismatch".into()));
    }
    Ok(SnapshotFile {
        kind,
        body,
        body_checksum,
    })
}

/// Read just enough of a snapshot file to learn its kind (and, for a delta,
/// its base link) without loading or checksumming the body — the cheap peek
/// [`chain_members`] walks chains with.
pub(crate) fn peek_snapshot_kind(path: &Path) -> Result<SnapshotKind> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut header = [0u8; 13];
    file.read_exact(&mut header)
        .map_err(|_| LakeError::Corrupt("snapshot header too short".into()))?;
    if &header[..8] != SNAPSHOT_MAGIC {
        return Err(LakeError::Corrupt("bad snapshot magic".into()));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(LakeError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    match header[12] {
        KIND_FULL => Ok(SnapshotKind::Full),
        KIND_DELTA => {
            let mut chain = [0u8; 16];
            file.read_exact(&mut chain)
                .map_err(|_| LakeError::Corrupt("delta chain header too short".into()))?;
            Ok(SnapshotKind::Delta {
                base_seq: u64::from_le_bytes(chain[..8].try_into().expect("8 bytes")),
                base_checksum: u64::from_le_bytes(chain[8..].try_into().expect("8 bytes")),
            })
        }
        other => Err(LakeError::Corrupt(format!(
            "unknown snapshot kind tag {other}"
        ))),
    }
}

/// Encode the full (self-contained) snapshot body.
pub(crate) fn encode_snapshot_body(parts: &SnapshotParts<'_>) -> Bytes {
    let mut body = BytesMut::new();
    put_pipeline_config(&mut body, parts.config);
    wire::put_usize(&mut body, parts.snapshot_every_n_updates);
    wire::put_usize(&mut body, parts.rebase_every_k_deltas);
    body.put_u64_le(parts.wal_segment_max_bytes);
    wire::put_lake(&mut body, parts.lake);
    put_graph(&mut body, parts.graph);
    wire::put_interner(&mut body, parts.interner);
    wire::put_join_cache(&mut body, parts.cache);
    put_pipeline_report(&mut body, parts.bootstrap);
    wire::put_usize(&mut body, parts.updates_applied);
    body.put_u32_le(parts.log.len() as u32);
    for report in parts.log {
        put_update_report(&mut body, report);
    }
    match parts.advisor {
        None => body.put_u8(0),
        Some(advisor) => {
            body.put_u8(1);
            wire::put_bytes(&mut body, &advisor.encode());
        }
    }
    body.freeze()
}

/// Encode a complete full-snapshot file image (framing included).
pub(crate) fn encode_snapshot(parts: &SnapshotParts<'_>) -> Bytes {
    frame_snapshot(SnapshotKind::Full, encode_snapshot_body(parts))
}

/// Encode a delta body: the live state diffed against `base` (the previous
/// generation's [`BaseCapture`]). The bootstrap report is immutable after
/// bootstrap and is *not* re-encoded — it rides with the chain's full base.
/// This is what makes a delta O(dirtied state) instead of O(lake).
pub(crate) fn encode_delta_body(parts: &SnapshotParts<'_>, base: &BaseCapture) -> Bytes {
    let mut body = BytesMut::new();
    put_pipeline_config(&mut body, parts.config);
    wire::put_usize(&mut body, parts.snapshot_every_n_updates);
    wire::put_usize(&mut body, parts.rebase_every_k_deltas);
    body.put_u64_le(parts.wal_segment_max_bytes);
    wire::put_lake_delta(&mut body, parts.lake, &base.lake);
    wire::put_bytes(
        &mut body,
        &graph_codec::encode_delta(parts.graph, &base.graph),
    );
    wire::put_interner_tail(&mut body, parts.interner, base.interner_len);
    wire::put_join_cache_delta(&mut body, parts.cache, &base.cache_keys);
    wire::put_usize(&mut body, parts.updates_applied);
    // Update-log tail: the log only appends, so the diff is the new reports.
    wire::put_usize(&mut body, base.log_len);
    body.put_u32_le((parts.log.len() - base.log_len) as u32);
    for report in &parts.log[base.log_len..] {
        put_update_report(&mut body, report);
    }
    // Advisor: component diff when possible; full re-encode when the cost
    // model/config changed or the advisor was enabled since the base;
    // absent when disabled.
    match (parts.advisor, &base.advisor) {
        (None, _) => body.put_u8(0),
        (Some(advisor), Some(capture)) => match advisor.encode_delta(capture) {
            Some(delta) => {
                body.put_u8(2);
                wire::put_bytes(&mut body, &delta);
            }
            None => {
                body.put_u8(1);
                wire::put_bytes(&mut body, &advisor.encode());
            }
        },
        (Some(advisor), None) => {
            body.put_u8(1);
            wire::put_bytes(&mut body, &advisor.encode());
        }
    }
    body.freeze()
}

/// Decode a full snapshot body (as produced by [`encode_snapshot_body`]).
pub(crate) fn decode_snapshot_body(body: Bytes) -> Result<DecodedSnapshot> {
    let mut buf = body;
    let config = get_pipeline_config(&mut buf)?;
    let snapshot_every_n_updates = wire::get_usize(&mut buf)?;
    let rebase_every_k_deltas = wire::get_usize(&mut buf)?;
    let wal_segment_max_bytes = wire::get_u64(&mut buf)?;
    let lake = wire::get_lake(&mut buf)?;
    let graph = get_graph(&mut buf)?;
    let interner = wire::get_interner(&mut buf)?;
    let cache = wire::get_join_cache(&mut buf)?;
    let bootstrap = get_pipeline_report(&mut buf)?;
    let updates_applied = wire::get_usize(&mut buf)?;
    wire::expect_len(&buf, 4, "update log length")?;
    let log_len = buf.get_u32_le() as usize;
    let mut log = Vec::with_capacity(log_len.min(4096));
    for _ in 0..log_len {
        log.push(get_update_report(&mut buf)?);
    }
    let advisor = match wire::get_tag(&mut buf, "advisor presence tag")? {
        0 => None,
        1 => {
            let raw = wire::get_bytes(&mut buf)?;
            let mut cursor = raw.clone();
            let state = AdvisorState::decode(&mut cursor)?;
            if cursor.remaining() != 0 {
                return Err(LakeError::Corrupt("trailing advisor bytes".into()));
            }
            Some(state)
        }
        other => {
            return Err(LakeError::Corrupt(format!(
                "unknown advisor presence tag {other}"
            )))
        }
    };
    if buf.remaining() != 0 {
        return Err(LakeError::Corrupt("trailing snapshot bytes".into()));
    }
    Ok(DecodedSnapshot {
        config,
        snapshot_every_n_updates,
        rebase_every_k_deltas,
        wal_segment_max_bytes,
        lake,
        graph,
        interner,
        cache,
        bootstrap,
        updates_applied,
        log,
        advisor,
    })
}

/// Patch `base` — the decoded state of the generation below — with a delta
/// body. Every section verifies it splices onto the exact state it was
/// diffed from (interner length, graph node count, log length, advisor
/// identity), so a chain stitched from the wrong files errors cleanly.
pub(crate) fn apply_delta_body(body: Bytes, base: &mut DecodedSnapshot) -> Result<()> {
    let mut buf = body;
    base.config = get_pipeline_config(&mut buf)?;
    base.snapshot_every_n_updates = wire::get_usize(&mut buf)?;
    base.rebase_every_k_deltas = wire::get_usize(&mut buf)?;
    base.wal_segment_max_bytes = wire::get_u64(&mut buf)?;
    wire::apply_lake_delta(&mut buf, &mut base.lake)?;
    let graph_bytes = wire::get_bytes(&mut buf)?;
    let mut cursor = graph_bytes.clone();
    graph_codec::apply_delta(&mut base.graph, &mut cursor)
        .map_err(|e| LakeError::Corrupt(e.to_string()))?;
    if cursor.remaining() != 0 {
        return Err(LakeError::Corrupt("trailing graph delta bytes".into()));
    }
    wire::apply_interner_tail(&mut buf, &mut base.interner)?;
    wire::apply_join_cache_delta(&mut buf, &base.cache)?;
    base.updates_applied = wire::get_usize(&mut buf)?;
    let log_base = wire::get_usize(&mut buf)?;
    if base.log.len() != log_base {
        return Err(LakeError::Corrupt(format!(
            "update-log tail expects base length {log_base}, found {}",
            base.log.len()
        )));
    }
    wire::expect_len(&buf, 4, "update log tail length")?;
    let added = buf.get_u32_le() as usize;
    for _ in 0..added {
        base.log.push(get_update_report(&mut buf)?);
    }
    match wire::get_tag(&mut buf, "advisor delta tag")? {
        0 => base.advisor = None,
        1 => {
            let raw = wire::get_bytes(&mut buf)?;
            let mut cursor = raw.clone();
            let state = AdvisorState::decode(&mut cursor)?;
            if cursor.remaining() != 0 {
                return Err(LakeError::Corrupt("trailing advisor bytes".into()));
            }
            base.advisor = Some(state);
        }
        2 => {
            let raw = wire::get_bytes(&mut buf)?;
            let advisor = base
                .advisor
                .as_mut()
                .ok_or_else(|| LakeError::Corrupt("advisor delta without a base advisor".into()))?;
            let mut cursor = raw.clone();
            advisor.apply_delta(&mut cursor)?;
            if cursor.remaining() != 0 {
                return Err(LakeError::Corrupt("trailing advisor delta bytes".into()));
            }
        }
        other => {
            return Err(LakeError::Corrupt(format!(
                "unknown advisor delta tag {other}"
            )))
        }
    }
    if buf.remaining() != 0 {
        return Err(LakeError::Corrupt("trailing snapshot bytes".into()));
    }
    Ok(())
}

/// Decode generation `seq`'s state by walking its chain: read files down the
/// `base_seq` links (verifying each link's stored body checksum against what
/// the delta above expects), decode the full base, then apply the deltas
/// oldest → newest. Returns the decoded state plus the body checksum of
/// generation `seq`'s own file (the link a future delta would name).
pub(crate) fn decode_chain(dir: &Path, seq: u64) -> Result<(DecodedSnapshot, u64)> {
    // Newest link first.
    let mut links: Vec<SnapshotFile> = Vec::new();
    let mut at = seq;
    let mut expect: Option<u64> = None;
    loop {
        let raw = std::fs::read(snapshot_path(dir, at))?;
        let file = read_snapshot_file(&Bytes::from(raw))?;
        if let Some(checksum) = expect {
            if file.body_checksum != checksum {
                return Err(LakeError::Corrupt(format!(
                    "delta chain link mismatch: generation {at} does not match \
                     the checksum its dependent delta names"
                )));
            }
        }
        match file.kind {
            SnapshotKind::Full => {
                links.push(file);
                break;
            }
            SnapshotKind::Delta {
                base_seq,
                base_checksum,
            } => {
                if base_seq >= at {
                    return Err(LakeError::Corrupt(format!(
                        "delta chain does not descend at generation {at}"
                    )));
                }
                expect = Some(base_checksum);
                links.push(file);
                at = base_seq;
            }
        }
    }
    let top_checksum = links[0].body_checksum;
    let base = links.pop().expect("chain has at least its full base");
    let mut decoded = decode_snapshot_body(base.body)?;
    while let Some(link) = links.pop() {
        apply_delta_body(link.body, &mut decoded)?;
    }
    Ok((decoded, top_checksum))
}

/// Decode a *full* snapshot file image. Delta images are rejected: they only
/// decode as part of a chain ([`decode_chain`]).
pub(crate) fn decode_snapshot(bytes: &Bytes) -> Result<DecodedSnapshot> {
    let file = read_snapshot_file(bytes)?;
    match file.kind {
        SnapshotKind::Full => decode_snapshot_body(file.body),
        SnapshotKind::Delta { base_seq, .. } => Err(LakeError::Corrupt(format!(
            "delta snapshot (base generation {base_seq}) cannot be decoded standalone"
        ))),
    }
}

/// Write snapshot bytes atomically: temp file in the same directory, fsync,
/// rename into place. A crash mid-write leaves the previous generation
/// untouched. `site` names the checkpoint kind for the injectable crash
/// point between the durable temp write and the rename
/// (`"{site}:tmp-written"`).
pub(crate) fn write_snapshot_file_with(
    path: &Path,
    bytes: &Bytes,
    failpoints: &Failpoints,
    site: &str,
) -> Result<()> {
    let tmp = path.with_extension("r2d2snap.tmp");
    {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    failpoints.hit(&format!("{site}:tmp-written"))?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// [`write_snapshot_file_with`] without crash points (library callers).
pub(crate) fn write_snapshot_file(path: &Path, bytes: &Bytes) -> Result<()> {
    write_snapshot_file_with(path, bytes, &Failpoints::none(), "snapshot")
}

/// An encoded, self-contained session snapshot (one generation's
/// `.r2d2snap` file in memory).
///
/// Most callers go through the session-level API —
/// [`enable_persistence`](crate::session::R2d2Session::enable_persistence) /
/// [`checkpoint`](crate::session::R2d2Session::checkpoint) /
/// [`restore`](crate::session::R2d2Session::restore) — which also maintain
/// the WAL. `SessionSnapshot` is the lower-level building block: capture a
/// point-in-time image, ship it around as bytes, and rebuild a session from
/// it (without WAL replay).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    pub(crate) bytes: Bytes,
}

impl SessionSnapshot {
    /// The raw snapshot file image (magic, version, body, checksum).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wrap raw bytes read from elsewhere; validated on
    /// [`SessionSnapshot::restore`].
    pub fn from_bytes(bytes: impl Into<Bytes>) -> Self {
        SessionSnapshot {
            bytes: bytes.into(),
        }
    }

    /// Write the snapshot to `path` (atomically), returning the byte count.
    pub fn write(&self, path: &Path) -> Result<u64> {
        write_snapshot_file(path, &self.bytes)?;
        Ok(self.bytes.len() as u64)
    }

    /// Read a snapshot file back into memory.
    pub fn read(path: &Path) -> Result<SessionSnapshot> {
        let raw = std::fs::read(path)?;
        Ok(SessionSnapshot {
            bytes: Bytes::from(raw),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_record_round_trip() {
        let records = vec![
            WalRecord::Batch(vec![LakeUpdate::DropDataset {
                id: r2d2_lake::DatasetId(3),
            }]),
            WalRecord::Batch(Vec::new()),
            WalRecord::AccessRefresh {
                counts: BTreeMap::from([(1, 5), (4, 0)]),
                meter: r2d2_lake::OpCounts {
                    rows_scanned: 11,
                    ..Default::default()
                },
            },
        ];
        for record in &records {
            let bytes = record.encode();
            let mut cursor = bytes.clone();
            assert_eq!(&WalRecord::decode(&mut cursor).unwrap(), record);
            assert_eq!(cursor.remaining(), 0);
        }
        let mut bad = Bytes::from(vec![7u8]);
        assert!(WalRecord::decode(&mut bad).is_err());
    }

    fn write_marker(dir: &Path, seq: u64, kind: SnapshotKind) -> u64 {
        // A minimal but structurally valid snapshot file: empty body, real
        // framing, so header peeks and chain walks treat it like the real
        // thing (its body would fail to decode, which pruning never does).
        let bytes = frame_snapshot(kind, Bytes::new());
        let checksum = read_snapshot_file(&bytes).unwrap().body_checksum;
        std::fs::write(snapshot_path(dir, seq), &bytes).unwrap();
        checksum
    }

    #[test]
    fn generation_paths_and_listing() {
        let dir = std::env::temp_dir().join("r2d2_persist_paths");
        std::fs::create_dir_all(&dir).unwrap();
        for stale in list_generations(&dir).unwrap() {
            std::fs::remove_file(snapshot_path(&dir, stale)).ok();
        }
        write_marker(&dir, 2, SnapshotKind::Full);
        write_marker(&dir, 3, SnapshotKind::Full);
        write_marker(&dir, 12, SnapshotKind::Full);
        std::fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![2, 3, 12]);
        // Keep = chain(12) ∪ chain(3) — generation 2 goes.
        prune_generations(&dir, 12, &Failpoints::none()).unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![3, 12]);
        for stale in list_generations(&dir).unwrap() {
            std::fs::remove_file(snapshot_path(&dir, stale)).ok();
        }
        std::fs::remove_file(dir.join("unrelated.txt")).ok();
    }

    #[test]
    fn pruning_never_orphans_a_delta_chain_base() {
        let dir = std::env::temp_dir().join("r2d2_persist_chain_prune");
        std::fs::create_dir_all(&dir).unwrap();
        for stale in list_generations(&dir).unwrap() {
            std::fs::remove_file(snapshot_path(&dir, stale)).ok();
        }
        // Chain 1F ← 2D ← 3D ← 4D: everything is load-bearing. The pre-v5
        // keep-from-newest policy would delete generations 1–2 here and
        // orphan the chain.
        let c1 = write_marker(&dir, 1, SnapshotKind::Full);
        let c2 = write_marker(
            &dir,
            2,
            SnapshotKind::Delta {
                base_seq: 1,
                base_checksum: c1,
            },
        );
        let c3 = write_marker(
            &dir,
            3,
            SnapshotKind::Delta {
                base_seq: 2,
                base_checksum: c2,
            },
        );
        write_marker(
            &dir,
            4,
            SnapshotKind::Delta {
                base_seq: 3,
                base_checksum: c3,
            },
        );
        std::fs::write(wal_segment_path(&dir, 1, 0), b"w").unwrap();
        prune_generations(&dir, 4, &Failpoints::none()).unwrap();
        assert_eq!(
            list_generations(&dir).unwrap(),
            vec![1, 2, 3, 4],
            "a chain base must survive while dependent deltas do"
        );
        assert!(wal_segment_path(&dir, 1, 0).exists());
        assert_eq!(chain_members(&dir, 4).unwrap(), vec![4, 3, 2, 1]);

        // Rebase at 5, one delta on top: the old chain is finally droppable.
        let c5 = write_marker(&dir, 5, SnapshotKind::Full);
        write_marker(
            &dir,
            6,
            SnapshotKind::Delta {
                base_seq: 5,
                base_checksum: c5,
            },
        );
        let compacted = prune_generations(&dir, 6, &Failpoints::none()).unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![5, 6]);
        assert_eq!(compacted, 1, "generation 1's WAL segment was compacted");
        assert!(!wal_segment_path(&dir, 1, 0).exists());
        for stale in list_generations(&dir).unwrap() {
            std::fs::remove_file(snapshot_path(&dir, stale)).ok();
        }
    }
}
