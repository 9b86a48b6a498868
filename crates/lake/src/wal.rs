//! Write-ahead log framing: length + checksum framed records in bounded,
//! headered segments on disk.
//!
//! The enterprise lakes of the paper persist in ADLS-style storage; a
//! long-lived containment service must survive a process restart without
//! paying a full re-bootstrap. The snapshot + WAL design splits durability
//! into two layers: a *snapshot* captures the whole session state at one
//! point in time, and a *write-ahead log* records every mutation applied
//! since, so restart = load snapshot + replay tail. This module provides the
//! log layer only — a payload-agnostic, append-only record file with
//! per-record corruption detection. What goes *into* a record (update
//! batches, access-profile refreshes) is the caller's business
//! (`r2d2_core`'s session persistence).
//!
//! A generation's log is a sequence of **segments**: bounded files that the
//! owner rotates when the active one exceeds its byte budget, so one
//! long-lived generation never grows a single unbounded file and compaction
//! can drop whole segments once a newer snapshot covers them. Each segment
//! header names the snapshot generation it extends and its position in that
//! generation's segment sequence, so a reader can verify it is stitching the
//! right files back together in the right order.
//!
//! On-disk layout of one segment (all integers little-endian):
//!
//! ```text
//! magic "R2D2WAL\0" | version u32 | generation u64 | segment u32
//! per record: payload_len u32 | checksum(payload) u64 | payload bytes
//! ```
//!
//! A crash can leave a partially written record at the end of a segment;
//! [`read_records`] detects it (short header, short payload, or checksum
//! mismatch) and **cleanly drops the tail from the first bad record on**,
//! returning every intact record before it. A record that was never fully
//! written was, by the write-ahead contract, never applied — dropping it
//! loses nothing that was acknowledged.

use crate::error::{LakeError, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// Leading magic of a WAL segment file.
pub const WAL_MAGIC: &[u8; 8] = b"R2D2WAL\0";

/// Current WAL format version. Version bumps track framing or record-payload
/// changes so a log written by an older build fails with an explicit version
/// error instead of a misleading payload-decode error: version 3 rode along
/// with the lazy-storage work (tables inside update records became
/// `R2D2LAKE` v4, `OpCounts` grew page/string counters, and the 4-lane
/// word-parallel checksum below replaced byte-wise FNV-1a); version 4
/// embedded `R2D2LAKE` v5 tables and two more counters; version 5 introduced
/// **segments** — the file header grew a `generation u64 | segment u32`
/// pair naming the snapshot generation this segment extends and its index
/// in that generation's segment sequence; version 6 keeps that framing and
/// follows the payloads (`R2D2LAKE` v6 tables without MinHash signatures,
/// a 15-word `OpCounts`). Older files (and older readers) are rejected with
/// an explicit error rather than misparsed.
pub const WAL_VERSION: u32 = 6;

/// Segment header size: magic + version + generation + segment index.
pub const SEGMENT_HEADER: usize = 8 + 4 + 8 + 4;

/// Per-record header size: `payload_len u32` + `checksum u64`.
const RECORD_HEADER: usize = 4 + 8;

/// 64-bit checksum: four independent FNV-1a-style lanes over 8-byte words,
/// folded together with the payload length.
///
/// Not cryptographic; it only needs to catch torn writes and bit rot in a
/// record, which 64 bits of FNV-style mixing do with overwhelming
/// probability. The byte-at-a-time FNV-1a this replaces serialized one
/// xor+multiply per *byte*; snapshot restores checksum megabytes on the hot
/// path, so the lanes process one word each per step and only the sub-32-byte
/// tail falls back to byte-wise mixing.
pub fn checksum(payload: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = [
        SEED,
        SEED ^ 0x9E37_79B9_7F4A_7C15,
        SEED.rotate_left(17),
        SEED.rotate_left(31),
    ];
    let mut chunks = payload.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
    }
    let mut tail = lanes[0];
    for &b in chunks.remainder() {
        tail = (tail ^ b as u64).wrapping_mul(PRIME);
    }
    lanes[0] = tail;
    let mut hash = payload.len() as u64;
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(PRIME);
        hash ^= hash >> 29;
    }
    hash
}

/// Append handle to one WAL segment file.
///
/// Every [`WalWriter::append`] writes one framed record and flushes it to
/// the OS, then `fsync`s, so an acknowledged append survives a process
/// crash. Callers append the record *before* applying the mutation it
/// describes (write-ahead), which makes the failure mode one-sided: the log
/// may describe a mutation that never ran (harmless — replay re-runs it),
/// but never the reverse.
///
/// Segment *rotation* is the owner's job: [`WalWriter::bytes_written`]
/// reports the segment's current size so the owner can create the next
/// segment (same generation, index + 1) once the active one exceeds its
/// budget.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    stats: WalStats,
    bytes: u64,
}

/// Durability-cost counters of one [`WalWriter`] (and, summed across
/// rotations, of a whole session — `r2d2_core`'s session accumulates them
/// over WAL segments and generations). `fsyncs / records` is the
/// group-commit amortization ratio (the benchmark's `serve.wal_fsyncs`):
/// one-fsync-per-batch writes one record per batch, while a group commit
/// folds many queued batches into one record and one fsync. `segments` and
/// `segments_compacted` track the segment lifecycle: files created by
/// rotation against files deleted because a newer snapshot generation
/// wholly covers them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended ([`WalWriter::append`] calls).
    pub records: u64,
    /// `fsync` system calls issued (one per append, plus one at creation).
    pub fsyncs: u64,
    /// Segment files created ([`WalWriter::create`] calls; reopening an
    /// existing segment for append does not count).
    pub segments: u64,
    /// Segment files deleted by compaction because a newer snapshot
    /// generation wholly covers their records. Incremented by the owner
    /// (the session's generation pruning), not by the writer itself.
    pub segments_compacted: u64,
}

impl WalStats {
    /// Element-wise sum.
    pub fn plus(&self, other: &WalStats) -> WalStats {
        WalStats {
            records: self.records + other.records,
            fsyncs: self.fsyncs + other.fsyncs,
            segments: self.segments + other.segments,
            segments_compacted: self.segments_compacted + other.segments_compacted,
        }
    }
}

impl WalWriter {
    /// Create a fresh WAL segment at `path` (truncating any existing file)
    /// and write the segment header naming the snapshot `generation` it
    /// extends and its `segment` index within that generation.
    pub fn create(path: &Path, generation: u64, segment: u32) -> Result<Self> {
        let mut file = File::create(path)?;
        let mut header = [0u8; SEGMENT_HEADER];
        header[..8].copy_from_slice(WAL_MAGIC);
        header[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
        header[12..20].copy_from_slice(&generation.to_le_bytes());
        header[20..24].copy_from_slice(&segment.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            stats: WalStats {
                records: 0,
                fsyncs: 1,
                segments: 1,
                segments_compacted: 0,
            },
            bytes: SEGMENT_HEADER as u64,
        })
    }

    /// Open an existing WAL segment for appending, after validating its
    /// header (magic, version, and — when `expect` is given — the
    /// generation/segment pair it must belong to).
    ///
    /// The crash-recovery contract is append-only: a torn tail record is
    /// *not* truncated here — [`read_records`] skips it on every read, and
    /// the next snapshot rotation retires the file. New records appended
    /// after a torn tail would be unreachable behind it, so callers restoring
    /// from a WAL with a detected torn tail should rotate to a fresh log
    /// (which `r2d2_core`'s restore does) rather than keep appending.
    pub fn open_append(path: &Path, expect: Option<(u64, u32)>) -> Result<Self> {
        let mut file = OpenOptions::new().read(true).append(true).open(path)?;
        let mut header = [0u8; SEGMENT_HEADER];
        file.read_exact(&mut header)
            .map_err(|_| LakeError::Corrupt("WAL header too short".into()))?;
        let (generation, segment) = validate_header(&header)?;
        if let Some((want_gen, want_seg)) = expect {
            if (generation, segment) != (want_gen, want_seg) {
                return Err(LakeError::Corrupt(format!(
                    "WAL segment header names generation {generation} segment {segment}, \
                     expected generation {want_gen} segment {want_seg}"
                )));
            }
        }
        let bytes = file.metadata()?.len();
        Ok(WalWriter {
            file,
            stats: WalStats::default(),
            bytes,
        })
    }

    /// Append one framed record and make it durable (flush + fsync).
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let mut frame = Vec::with_capacity(RECORD_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.stats.records += 1;
        self.stats.fsyncs += 1;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Durability-cost counters accumulated by this writer since it was
    /// opened.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Size in bytes of the segment this writer appends to (header
    /// included) — the owner's rotation trigger.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

fn validate_header(header: &[u8]) -> Result<(u64, u32)> {
    if &header[..8] != WAL_MAGIC {
        return Err(LakeError::Corrupt("bad WAL magic".into()));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(LakeError::Corrupt(format!(
            "unsupported WAL version {version}"
        )));
    }
    let generation = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    let segment = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
    Ok((generation, segment))
}

/// Everything [`read_records`] recovered from one WAL segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalContents {
    /// The snapshot generation this segment extends (from the header).
    pub generation: u64,
    /// This segment's index within the generation's sequence (from the
    /// header).
    pub segment: u32,
    /// Intact record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Whether a torn or corrupt tail was detected and dropped. When true,
    /// `records` holds exactly the intact prefix.
    pub dropped_tail: bool,
}

/// Read every intact record of the WAL segment at `path`.
///
/// A missing length header, a payload shorter than its declared length, or a
/// checksum mismatch all mark the start of an unrecoverable tail: reading
/// stops there, the tail is dropped, and `dropped_tail` is set. A corrupt
/// *file header* is an error — that is not a torn append but a wrong or
/// destroyed file.
pub fn read_records(path: &Path) -> Result<WalContents> {
    let raw = std::fs::read(path)?;
    if raw.len() < SEGMENT_HEADER {
        return Err(LakeError::Corrupt("WAL header too short".into()));
    }
    let (generation, segment) = validate_header(&raw[..SEGMENT_HEADER])?;
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER;
    let mut dropped_tail = false;
    while pos < raw.len() {
        if raw.len() - pos < RECORD_HEADER {
            dropped_tail = true; // torn mid-header
            break;
        }
        let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(raw[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let body_start = pos + RECORD_HEADER;
        if raw.len() - body_start < len {
            dropped_tail = true; // torn mid-payload
            break;
        }
        let payload = &raw[body_start..body_start + len];
        if checksum(payload) != sum {
            dropped_tail = true; // bit rot / torn overwrite
            break;
        }
        records.push(payload.to_vec());
        pos = body_start + len;
    }
    Ok(WalContents {
        generation,
        segment,
        records,
        dropped_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("r2d2_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_and_read_round_trip() {
        let path = temp_path("round_trip.r2d2wal");
        let mut wal = WalWriter::create(&path, 7, 2).unwrap();
        wal.append(b"first").unwrap();
        wal.append(b"").unwrap();
        wal.append(&[0xAB; 1000]).unwrap();
        let contents = read_records(&path).unwrap();
        assert!(!contents.dropped_tail);
        assert_eq!(contents.generation, 7);
        assert_eq!(contents.segment, 2);
        assert_eq!(
            contents.records,
            vec![b"first".to_vec(), Vec::new(), vec![0xAB; 1000]]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let path = temp_path("reopen.r2d2wal");
        WalWriter::create(&path, 1, 0)
            .unwrap()
            .append(b"one")
            .unwrap();
        WalWriter::open_append(&path, Some((1, 0)))
            .unwrap()
            .append(b"two")
            .unwrap();
        let contents = read_records(&path).unwrap();
        assert_eq!(contents.records, vec![b"one".to_vec(), b"two".to_vec()]);
        // Reopening as the wrong generation/segment is rejected: the caller
        // would be appending acknowledged records into a file a restore
        // will never stitch into that generation's sequence.
        assert!(WalWriter::open_append(&path, Some((1, 1))).is_err());
        assert!(WalWriter::open_append(&path, Some((2, 0))).is_err());
        assert!(WalWriter::open_append(&path, None).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bytes_written_tracks_the_file_size() {
        let path = temp_path("bytes.r2d2wal");
        let mut wal = WalWriter::create(&path, 3, 0).unwrap();
        assert_eq!(wal.bytes_written(), SEGMENT_HEADER as u64);
        wal.append(b"12345").unwrap();
        let expected = (SEGMENT_HEADER + RECORD_HEADER + 5) as u64;
        assert_eq!(wal.bytes_written(), expected);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), expected);
        drop(wal);
        let reopened = WalWriter::open_append(&path, Some((3, 0))).unwrap();
        assert_eq!(
            reopened.bytes_written(),
            expected,
            "reopen seeds the rotation trigger from the real file size"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_dropped() {
        let path = temp_path("truncated.r2d2wal");
        let mut wal = WalWriter::create(&path, 1, 0).unwrap();
        wal.append(b"keep me").unwrap();
        wal.append(b"torn record").unwrap();
        drop(wal);
        // Simulate a crash mid-append: chop bytes off the final record.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 4]).unwrap();
        let contents = read_records(&path).unwrap();
        assert!(contents.dropped_tail);
        assert_eq!(contents.records, vec![b"keep me".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_mismatch_drops_the_tail_from_the_bad_record() {
        let path = temp_path("corrupt.r2d2wal");
        let mut wal = WalWriter::create(&path, 1, 0).unwrap();
        wal.append(b"good").unwrap();
        wal.append(b"flipped").unwrap();
        wal.append(b"unreachable").unwrap();
        drop(wal);
        // Flip one payload byte of the middle record.
        let mut raw = std::fs::read(&path).unwrap();
        let middle_payload = SEGMENT_HEADER + (12 + 4) + 12; // header + rec1 + rec2 header
        raw[middle_payload] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let contents = read_records(&path).unwrap();
        assert!(contents.dropped_tail);
        assert_eq!(contents.records, vec![b"good".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_version_are_errors() {
        let path = temp_path("badmagic.r2d2wal");
        let mut bad = b"NOTAWAL!".to_vec();
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&[0u8; 12]);
        std::fs::write(&path, &bad).unwrap();
        assert!(read_records(&path).is_err());
        assert!(WalWriter::open_append(&path, None).is_err());

        // Every older version (and any future one) is rejected with an
        // explicit version error, never misparsed: a v4 file's first record
        // bytes would otherwise be consumed as the generation/segment header
        // fields, and a v5 record's tables and op counts as their v6 shapes.
        for version in [1u32, 2, 3, 4, 5, 99] {
            let mut versioned = WAL_MAGIC.to_vec();
            versioned.extend_from_slice(&version.to_le_bytes());
            versioned.extend_from_slice(&[0u8; 12]);
            std::fs::write(&path, &versioned).unwrap();
            let err = read_records(&path).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unsupported WAL version {version}")),
                "version {version} must fail explicitly, got: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_count_records_fsyncs_and_segments() {
        let path = temp_path("stats.r2d2wal");
        let mut wal = WalWriter::create(&path, 1, 0).unwrap();
        assert_eq!(
            wal.stats(),
            WalStats {
                records: 0,
                fsyncs: 1,
                segments: 1,
                segments_compacted: 0
            }
        );
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        assert_eq!(
            wal.stats(),
            WalStats {
                records: 2,
                fsyncs: 3,
                segments: 1,
                segments_compacted: 0
            }
        );
        drop(wal);
        let mut reopened = WalWriter::open_append(&path, Some((1, 0))).unwrap();
        assert_eq!(reopened.stats(), WalStats::default());
        reopened.append(b"c").unwrap();
        let total = WalStats {
            records: 2,
            fsyncs: 3,
            segments: 1,
            segments_compacted: 0,
        }
        .plus(&reopened.stats());
        assert_eq!(
            total,
            WalStats {
                records: 3,
                fsyncs: 4,
                segments: 1,
                segments_compacted: 0
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_wal_reads_zero_records() {
        let path = temp_path("empty.r2d2wal");
        WalWriter::create(&path, 4, 1).unwrap();
        let contents = read_records(&path).unwrap();
        assert!(contents.records.is_empty());
        assert!(!contents.dropped_tail);
        assert_eq!((contents.generation, contents.segment), (4, 1));
        std::fs::remove_file(&path).ok();
    }
}
