//! Binary columnar storage format ("mini-parquet").
//!
//! The enterprise datasets in the paper live as partitioned parquet files in
//! ADLS Gen2, where "values such as the columnar minimum and maximum are
//! often stored as metadata" — the property Min-Max Pruning exploits. This
//! module provides the equivalent substrate: a simple binary columnar file
//! format in which each partition becomes a *row group*, each row group
//! stores its columns as length-framed pages, and a footer carries
//! per-row-group, per-column statistics (min/max/nulls/distinct, decoded
//! byte size, bloom sketch) that can be read **without touching the data
//! pages**.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "R2D2LAKE" | version u32 (6)
//! schema: field_count u32, then per field: name_len u32, name bytes, type u8
//! row_group_count u32
//! per row group: row_count u64, per column: page_len u32, page bytes
//! footer: per row group, per column:
//!     name_len u32, name bytes, min, max, null_count u64, distinct u64,
//!     mem_bytes u64, bloom sketch (32 × u64)
//! footer: table-level section, per column in schema order:
//!     min, max, null_count u64, exact distinct u64, mem_bytes u64,
//!     bloom sketch (32 × u64)
//! footer_offset u64 | magic "R2D2LAKE"
//! ```
//!
//! A **column page** (the bytes behind the `page_len` frame) starts with one
//! layout byte:
//!
//! ```text
//! layout 1 ("packed", the common case — every non-null value has exactly
//!           the column's declared type):
//!   presence bitmap: ceil(rows / 8) bytes, bit i set ⇔ row i non-null
//!   then the non-null values back to back, untagged:
//!     Bool       1 byte each
//!     Int        i64 LE each
//!     Float      f64 LE (bit pattern) each
//!     Timestamp  i64 LE each
//!     Utf8       u32 LE length + bytes each
//! layout 2 ("dict", Utf8 only — chosen when strictly smaller than packed):
//!   presence bitmap: ceil(rows / 8) bytes
//!   dict_count u32, then per distinct value (first-occurrence order):
//!     u32 LE length + bytes
//!   then one u32 LE code per non-null row (row order, code < dict_count)
//! layout 0 ("tagged" fallback — mixed-variant columns, e.g. Int values
//!           widened into a Float column):
//!   rows × tagged values (null flag u8, then type tag u8 + payload)
//! ```
//!
//! Version 4 makes reads **lazy**: every column page is length-framed, so
//! [`decode`] can reattach the footer statistics and sketches immediately
//! while leaving each page as an undecoded byte range inside the file's
//! buffer (`pages_skipped` on the meter); a page only decodes when its
//! values are first touched (`pages_decoded`). The footer's `mem_bytes`
//! field records each column's decoded in-memory size so
//! [`crate::Table::byte_size`] needs no materialization. Version 4 also
//! adds the dictionary string layout above. As with every bump, version
//! gates are explicit: reading an older file fails with an "unsupported
//! version" error instead of silently misreading pages.
//!
//! Version 6 removes the 520-byte per-column MinHash signature that version
//! 5 had added to every footer entry: it was metadata for an approximate
//! candidate tier that no longer exists, and nothing else read it.
//!
//! Earlier versions: v2 added footer distinct counts, v3 added per-column
//! bloom sketches and the table-level statistics section, v4 added lazy
//! length-framed pages and the dictionary string layout.

use crate::column::Column;
use crate::datatype::DataType;
use crate::error::{LakeError, Result};
use crate::meter::Meter;
use crate::partition::PartitionedTable;
use crate::schema::{Field, Schema};
use crate::sketch::ColumnSketch;
use crate::stats::ColumnStats;
use crate::table::Table;
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::fs;
use std::path::Path;

const MAGIC: &[u8; 8] = b"R2D2LAKE";
const VERSION: u32 = 6;

/// Value encoding tags inside data pages.
const VAL_NULL: u8 = 0;
const VAL_PRESENT: u8 = 1;

pub(crate) fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(VAL_NULL),
        other => {
            buf.put_u8(VAL_PRESENT);
            buf.put_u8(other.data_type().name().as_bytes()[0]); // cheap per-value tag
            match other {
                Value::Bool(b) => buf.put_u8(*b as u8),
                Value::Int(i) => buf.put_i64_le(*i),
                Value::Float(f) => buf.put_f64_le(*f),
                Value::Timestamp(t) => buf.put_i64_le(*t),
                Value::Str(s) => {
                    buf.put_u32_le(s.len() as u32);
                    buf.put_slice(s.as_bytes());
                }
                Value::Null => unreachable!(),
            }
        }
    }
}

pub(crate) fn get_value(buf: &mut Bytes) -> Result<Value> {
    if buf.remaining() < 1 {
        return Err(LakeError::Corrupt("truncated value".into()));
    }
    let flag = buf.get_u8();
    if flag == VAL_NULL {
        return Ok(Value::Null);
    }
    if buf.remaining() < 1 {
        return Err(LakeError::Corrupt("truncated value tag".into()));
    }
    let tag = buf.get_u8();
    Ok(match tag {
        b'b' => {
            if buf.remaining() < 1 {
                return Err(LakeError::Corrupt("truncated bool".into()));
            }
            Value::Bool(buf.get_u8() != 0)
        }
        b'i' => {
            if buf.remaining() < 8 {
                return Err(LakeError::Corrupt("truncated int".into()));
            }
            Value::Int(buf.get_i64_le())
        }
        b'f' => {
            if buf.remaining() < 8 {
                return Err(LakeError::Corrupt("truncated float".into()));
            }
            Value::Float(buf.get_f64_le())
        }
        b't' => {
            if buf.remaining() < 8 {
                return Err(LakeError::Corrupt("truncated timestamp".into()));
            }
            Value::Timestamp(buf.get_i64_le())
        }
        b'u' => {
            if buf.remaining() < 4 {
                return Err(LakeError::Corrupt("truncated string length".into()));
            }
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(LakeError::Corrupt("truncated string".into()));
            }
            let bytes = buf.copy_to_bytes(len);
            Value::Str(
                String::from_utf8(bytes.to_vec())
                    .map_err(|_| LakeError::Corrupt("invalid utf8".into()))?,
            )
        }
        other => return Err(LakeError::Corrupt(format!("unknown value tag {other}"))),
    })
}

pub(crate) fn put_opt_value(buf: &mut BytesMut, v: &Option<Value>) {
    match v {
        None => buf.put_u8(0),
        Some(v) => {
            buf.put_u8(1);
            put_value(buf, v);
        }
    }
}

pub(crate) fn get_opt_value(buf: &mut Bytes) -> Result<Option<Value>> {
    if buf.remaining() < 1 {
        return Err(LakeError::Corrupt("truncated optional value".into()));
    }
    if buf.get_u8() == 0 {
        Ok(None)
    } else {
        Ok(Some(get_value(buf)?))
    }
}

/// Column page layout bytes.
const LAYOUT_TAGGED: u8 = 0;
const LAYOUT_PACKED: u8 = 1;
const LAYOUT_DICT: u8 = 2;

/// Encode one column's page (layout byte + payload, without the `page_len`
/// frame): packed when every non-null value carries exactly the declared
/// type, tagged otherwise (Int values widened into Float / Timestamp columns
/// must round-trip variant-exactly). Pure Utf8 columns switch to the
/// dictionary layout when it is strictly smaller — a pure function of the
/// values, so re-encoding is deterministic.
fn encode_page(col: &Column) -> BytesMut {
    let values = col.values();
    let mut page = BytesMut::new();
    let pure = values
        .iter()
        .all(|v| matches!(v, Value::Null) || v.data_type() == col.data_type());
    if !pure {
        page.put_u8(LAYOUT_TAGGED);
        for v in values {
            put_value(&mut page, v);
        }
        return page;
    }

    let mut bitmap = vec![0u8; values.len().div_ceil(8)];
    for (i, v) in values.iter().enumerate() {
        if !matches!(v, Value::Null) {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }

    if col.data_type() == DataType::Utf8 {
        if let Some(dict_page) = try_encode_dict_page(values, &bitmap) {
            return dict_page;
        }
    }

    page.put_u8(LAYOUT_PACKED);
    page.put_slice(&bitmap);
    for v in values {
        match v {
            Value::Null => {}
            Value::Bool(b) => page.put_u8(*b as u8),
            Value::Int(i) | Value::Timestamp(i) => page.put_i64_le(*i),
            Value::Float(f) => page.put_f64_le(*f),
            Value::Str(s) => {
                page.put_u32_le(s.len() as u32);
                page.put_slice(s.as_bytes());
            }
        }
    }
    page
}

/// Dictionary-encode a pure Utf8 column, or `None` when the dictionary does
/// not pay: the code vector plus the per-distinct-value dictionary must be
/// *strictly* smaller than the plain packed layout (which stores every
/// present string verbatim).
fn try_encode_dict_page(values: &[Value], bitmap: &[u8]) -> Option<BytesMut> {
    let mut dict: Vec<&str> = Vec::new();
    let mut codes: Vec<u32> = Vec::new();
    let mut index: HashMap<&str, u32> = HashMap::new();
    let mut packed_payload = 0usize;
    let mut dict_payload = 0usize;
    for v in values {
        let s = match v {
            Value::Str(s) => s.as_str(),
            _ => continue,
        };
        packed_payload += 4 + s.len();
        let code = *index.entry(s).or_insert_with(|| {
            dict_payload += 4 + s.len();
            dict.push(s);
            (dict.len() - 1) as u32
        });
        codes.push(code);
    }
    let dict_size = 4 + dict_payload + 4 * codes.len();
    if dict_size >= packed_payload {
        return None;
    }
    let mut page = BytesMut::with_capacity(1 + bitmap.len() + dict_size);
    page.put_u8(LAYOUT_DICT);
    page.put_slice(bitmap);
    page.put_u32_le(dict.len() as u32);
    for s in &dict {
        page.put_u32_le(s.len() as u32);
        page.put_slice(s.as_bytes());
    }
    for code in codes {
        page.put_u32_le(code);
    }
    Some(page)
}

/// Append one length-framed column page, re-emitting a lazy column's
/// retained page bytes verbatim (a decode → encode round trip is
/// bit-identical without materializing anything).
fn put_column(buf: &mut BytesMut, col: &Column) {
    if let Some(page) = col.lazy_page() {
        buf.put_u32_le(page.len() as u32);
        buf.put_slice(page);
        return;
    }
    let page = encode_page(col).freeze();
    buf.put_u32_le(page.len() as u32);
    buf.put_slice(&page);
}

/// Read the presence bitmap of a packed/dict column page, returning it
/// together with the number of non-null values it declares.
fn get_presence(buf: &mut Bytes, rows: usize) -> Result<(Bytes, usize)> {
    let bitmap_len = rows.div_ceil(8);
    if buf.remaining() < bitmap_len {
        return Err(LakeError::Corrupt("truncated presence bitmap".into()));
    }
    let bitmap = buf.copy_to_bytes(bitmap_len);
    let mut present = 0usize;
    for i in 0..rows {
        present += ((bitmap[i / 8] >> (i % 8)) & 1) as usize;
    }
    Ok((bitmap, present))
}

fn present(bitmap: &[u8], i: usize) -> bool {
    (bitmap[i / 8] >> (i % 8)) & 1 == 1
}

/// Next fixed-width word from a packed payload, as a typed corruption error
/// instead of a panic when the presence bitmap claims more values than the
/// payload holds (the bitmap popcount and payload size are both attacker
/// data — neither may be trusted to agree with the other).
fn next_word(chunks: &mut std::slice::ChunksExact<'_, u8>, what: &str) -> Result<[u8; 8]> {
    chunks
        .next()
        .and_then(|c| c.try_into().ok())
        .ok_or_else(|| LakeError::Corrupt(format!("{what} underrun")))
}

/// Decode one column page (layout byte + payload) into values. This is the
/// materialization primitive behind [`Column::try_values`] on lazy columns;
/// every read is bounds-checked and the page must be consumed exactly, so
/// corrupt bytes surface as [`LakeError::Corrupt`] — never a panic or a
/// silently wrong decode.
pub(crate) fn decode_page(page: &Bytes, dt: DataType, rows: usize) -> Result<Vec<Value>> {
    let mut buf = page.clone();
    let values = decode_page_values(&mut buf, dt, rows)?;
    if buf.remaining() != 0 {
        return Err(LakeError::Corrupt("trailing bytes in column page".into()));
    }
    if values.len() != rows {
        return Err(LakeError::Corrupt("column page row count mismatch".into()));
    }
    Ok(values)
}

fn decode_page_values(buf: &mut Bytes, dt: DataType, rows: usize) -> Result<Vec<Value>> {
    if buf.remaining() < 1 {
        return Err(LakeError::Corrupt("truncated column layout".into()));
    }
    let layout = buf.get_u8();
    if layout == LAYOUT_TAGGED {
        // Every tagged value costs at least one byte, so a hostile row count
        // can never pre-size the vector past the page itself (fuzz finding:
        // an inflated group header must not become an OOM-sized allocation).
        let mut values = Vec::with_capacity(rows.min(buf.remaining()));
        for _ in 0..rows {
            let v = get_value(buf)?;
            if !v.is_null() {
                let vt = v.data_type();
                let compatible = vt == dt
                    || (dt == DataType::Float && vt == DataType::Int)
                    || (dt == DataType::Timestamp && vt == DataType::Int);
                if !compatible {
                    return Err(LakeError::Corrupt(format!(
                        "value of type {} in {} column page",
                        vt.name(),
                        dt.name()
                    )));
                }
            }
            values.push(v);
        }
        return Ok(values);
    }
    if layout == LAYOUT_DICT {
        if dt != DataType::Utf8 {
            return Err(LakeError::Corrupt(format!(
                "dictionary layout on non-string column ({})",
                dt.name()
            )));
        }
        return decode_dict_page(buf, rows);
    }
    if layout != LAYOUT_PACKED {
        return Err(LakeError::Corrupt(format!(
            "unknown column layout {layout}"
        )));
    }
    let (bitmap, count) = get_presence(buf, rows)?;
    let mut values = Vec::with_capacity(rows);
    match dt {
        DataType::Null => {
            if count != 0 {
                return Err(LakeError::Corrupt(
                    "non-null value in null-typed column".into(),
                ));
            }
            values.resize(rows, Value::Null);
        }
        DataType::Bool => {
            if buf.remaining() < count {
                return Err(LakeError::Corrupt("truncated bool page".into()));
            }
            let raw = buf.copy_to_bytes(count);
            let mut next = raw.iter();
            for i in 0..rows {
                values.push(if present(&bitmap, i) {
                    let byte = next
                        .next()
                        .ok_or_else(|| LakeError::Corrupt("bool page underrun".into()))?;
                    Value::Bool(*byte != 0)
                } else {
                    Value::Null
                });
            }
        }
        DataType::Int | DataType::Timestamp => {
            if buf.remaining() < count * 8 {
                return Err(LakeError::Corrupt("truncated int page".into()));
            }
            let raw = buf.copy_to_bytes(count * 8);
            let mut chunks = raw.chunks_exact(8);
            for i in 0..rows {
                values.push(if present(&bitmap, i) {
                    let x = i64::from_le_bytes(next_word(&mut chunks, "int page")?);
                    if dt == DataType::Int {
                        Value::Int(x)
                    } else {
                        Value::Timestamp(x)
                    }
                } else {
                    Value::Null
                });
            }
        }
        DataType::Float => {
            if buf.remaining() < count * 8 {
                return Err(LakeError::Corrupt("truncated float page".into()));
            }
            let raw = buf.copy_to_bytes(count * 8);
            let mut chunks = raw.chunks_exact(8);
            for i in 0..rows {
                values.push(if present(&bitmap, i) {
                    Value::Float(f64::from_le_bytes(next_word(&mut chunks, "float page")?))
                } else {
                    Value::Null
                });
            }
        }
        DataType::Utf8 => {
            for i in 0..rows {
                if present(&bitmap, i) {
                    if buf.remaining() < 4 {
                        return Err(LakeError::Corrupt("truncated string length".into()));
                    }
                    let len = buf.get_u32_le() as usize;
                    if buf.remaining() < len {
                        return Err(LakeError::Corrupt("truncated string".into()));
                    }
                    let raw = buf.copy_to_bytes(len);
                    values.push(Value::Str(
                        String::from_utf8(raw.to_vec())
                            .map_err(|_| LakeError::Corrupt("invalid utf8".into()))?,
                    ));
                } else {
                    values.push(Value::Null);
                }
            }
        }
    }
    Ok(values)
}

/// Decode a dictionary string page: presence bitmap, length-framed
/// dictionary entries (validated UTF-8), then one bounds-checked u32 code
/// per present row.
fn decode_dict_page(buf: &mut Bytes, rows: usize) -> Result<Vec<Value>> {
    let (bitmap, count) = get_presence(buf, rows)?;
    if buf.remaining() < 4 {
        return Err(LakeError::Corrupt("truncated dictionary count".into()));
    }
    let dict_count = buf.get_u32_le() as usize;
    let mut dict: Vec<String> = Vec::with_capacity(dict_count.min(4096));
    for _ in 0..dict_count {
        if buf.remaining() < 4 {
            return Err(LakeError::Corrupt(
                "truncated dictionary entry length".into(),
            ));
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(LakeError::Corrupt("truncated dictionary entry".into()));
        }
        let raw = buf.copy_to_bytes(len);
        dict.push(
            String::from_utf8(raw.to_vec())
                .map_err(|_| LakeError::Corrupt("invalid utf8 in dictionary".into()))?,
        );
    }
    if buf.remaining() < count * 4 {
        return Err(LakeError::Corrupt(
            "truncated dictionary code vector".into(),
        ));
    }
    let mut values = Vec::with_capacity(rows);
    for i in 0..rows {
        values.push(if present(&bitmap, i) {
            let code = buf.get_u32_le() as usize;
            let s = dict.get(code).ok_or_else(|| {
                LakeError::Corrupt(format!(
                    "dictionary code {code} out of range (dictionary has {dict_count} entries)"
                ))
            })?;
            Value::Str(s.clone())
        } else {
            Value::Null
        });
    }
    Ok(values)
}

/// Per-column footer entry: min/max, null and distinct counts, the decoded
/// in-memory byte size, and the column's bloom sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnFooterStats {
    /// Minimum non-null value.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Number of NULL cells.
    pub null_count: u64,
    /// Distinct non-null values (exact per row group and at table level).
    pub distinct_count: u64,
    /// In-memory byte size of the decoded column ([`Column::byte_size`]),
    /// so lazy tables answer size queries without touching the page.
    pub mem_bytes: u64,
    /// Bloom sketch over the value hashes.
    pub sketch: ColumnSketch,
}

impl ColumnFooterStats {
    fn from_stats(stats: &ColumnStats, mem_bytes: u64) -> Self {
        ColumnFooterStats {
            min: stats.min.clone(),
            max: stats.max.clone(),
            null_count: stats.null_count as u64,
            distinct_count: stats.distinct_count as u64,
            mem_bytes,
            sketch: stats.sketch.clone(),
        }
    }

    fn into_stats(self, row_count: usize) -> ColumnStats {
        ColumnStats {
            min: self.min,
            max: self.max,
            null_count: self.null_count as usize,
            row_count,
            distinct_count: self.distinct_count as usize,
            sketch: self.sketch,
        }
    }
}

/// The footer's table-level section.
#[derive(Debug, Clone, PartialEq)]
pub struct TableFooterStats {
    /// Whether the table-level distinct counts are exact (see
    /// [`PartitionedTable::table_distinct_exact`]).
    pub distinct_exact: bool,
    /// Per-column statistics in schema order.
    pub table_stats: Vec<(String, ColumnFooterStats)>,
}

/// Per-row-group, per-column statistics that live in the file footer and can
/// be read without touching data pages.
#[derive(Debug, Clone, PartialEq)]
pub struct FooterStats {
    /// Row count of each row group.
    pub row_counts: Vec<u64>,
    /// Per row group: column name → footer entry.
    pub column_stats: Vec<HashMap<String, ColumnFooterStats>>,
    /// The table-level section: exact-or-summed distinct counts and the
    /// merged (whole-table) sketches.
    pub table_section: TableFooterStats,
}

fn put_footer_stats(buf: &mut BytesMut, stats: &ColumnFooterStats) {
    put_opt_value(buf, &stats.min);
    put_opt_value(buf, &stats.max);
    buf.put_u64_le(stats.null_count);
    buf.put_u64_le(stats.distinct_count);
    buf.put_u64_le(stats.mem_bytes);
    for &w in stats.sketch.words() {
        buf.put_u64_le(w);
    }
}

fn get_footer_stats(buf: &mut Bytes) -> Result<ColumnFooterStats> {
    let min = get_opt_value(buf)?;
    let max = get_opt_value(buf)?;
    if buf.remaining() < 24 + ColumnSketch::WORD_COUNT * 8 {
        return Err(LakeError::Corrupt("truncated footer stats".into()));
    }
    let null_count = buf.get_u64_le();
    let distinct_count = buf.get_u64_le();
    let mem_bytes = buf.get_u64_le();
    // Bulk-read the sketch words from one slice: a footer holds one sketch
    // per column per row group, so per-word cursor hops add up on restore.
    let mut words = [0u64; ColumnSketch::WORD_COUNT];
    for (w, raw) in words
        .iter_mut()
        .zip(buf[..ColumnSketch::WORD_COUNT * 8].chunks_exact(8))
    {
        *w = u64::from_le_bytes(raw.try_into().expect("8-byte word"));
    }
    buf.advance(ColumnSketch::WORD_COUNT * 8);
    Ok(ColumnFooterStats {
        min,
        max,
        null_count,
        distinct_count,
        mem_bytes,
        sketch: ColumnSketch::from_words(words),
    })
}

/// Serialise a partitioned table into the binary format. Lazy columns (from
/// a previous [`decode`]) re-emit their retained page bytes verbatim, so
/// encoding a lazily decoded table is bit-identical to the original file
/// and never materializes a page.
pub fn encode(table: &PartitionedTable) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);

    // Schema.
    let schema = table.schema();
    buf.put_u32_le(schema.len() as u32);
    for f in schema.fields() {
        buf.put_u32_le(f.name.len() as u32);
        buf.put_slice(f.name.as_bytes());
        buf.put_u8(f.data_type.tag());
    }

    // Row groups (one per partition), each column page length-framed.
    buf.put_u32_le(table.num_partitions() as u32);
    for part in table.partitions() {
        buf.put_u64_le(part.num_rows() as u64);
        for col in part.columns() {
            put_column(&mut buf, col);
        }
    }

    // Footer: stats per row group per column, then the table-level section
    // (exact distinct counts + merged sketches) in schema order.
    let footer_offset = buf.len() as u64;
    for part in table.partitions() {
        for (f, col) in schema.fields().iter().zip(part.columns()) {
            buf.put_u32_le(f.name.len() as u32);
            buf.put_slice(f.name.as_bytes());
            put_footer_stats(
                &mut buf,
                &ColumnFooterStats::from_stats(col.stats(), col.byte_size() as u64),
            );
        }
    }
    buf.put_u8(table.table_distinct_exact() as u8);
    for (ci, f) in schema.fields().iter().enumerate() {
        match table.table_stats().get(&f.name) {
            Some(stats) => {
                let mem_bytes: u64 = table
                    .partitions()
                    .iter()
                    .map(|p| p.columns()[ci].byte_size() as u64)
                    .sum();
                buf.put_u8(1);
                put_footer_stats(&mut buf, &ColumnFooterStats::from_stats(stats, mem_bytes));
            }
            // A column can lack table-level stats only in degenerate
            // hand-assembled tables; record the absence explicitly.
            None => buf.put_u8(0),
        }
    }
    buf.put_u64_le(footer_offset);
    buf.put_slice(MAGIC);
    buf.freeze()
}

fn check_magic_and_version(bytes: &[u8]) -> Result<()> {
    if bytes.len() < MAGIC.len() * 2 + 12 {
        return Err(LakeError::Corrupt("file too small".into()));
    }
    if &bytes[..8] != MAGIC {
        return Err(LakeError::Corrupt("bad leading magic".into()));
    }
    if &bytes[bytes.len() - 8..] != MAGIC {
        return Err(LakeError::Corrupt("bad trailing magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(LakeError::Corrupt(format!(
            "unsupported R2D2LAKE version {version} (this build reads v{VERSION}; \
             older files must be re-encoded)"
        )));
    }
    Ok(())
}

fn decode_schema(buf: &mut Bytes) -> Result<Schema> {
    if buf.remaining() < 4 {
        return Err(LakeError::Corrupt("truncated schema".into()));
    }
    let field_count = buf.get_u32_le() as usize;
    let mut fields = Vec::with_capacity(field_count.min(4096));
    for _ in 0..field_count {
        if buf.remaining() < 4 {
            return Err(LakeError::Corrupt("truncated schema".into()));
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len + 1 {
            return Err(LakeError::Corrupt("truncated schema name".into()));
        }
        let name_bytes = buf.copy_to_bytes(len);
        let name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| LakeError::Corrupt("invalid schema utf8".into()))?;
        let dt = DataType::from_tag(buf.get_u8())
            .ok_or_else(|| LakeError::Corrupt("unknown type tag".into()))?;
        fields.push(Field::new(name, dt));
    }
    Schema::new(fields)
}

/// Parse the footer region into per-group, per-column entries (in the
/// schema order they were written) plus the table-level section and the
/// footer's start offset (the end of the data region).
#[allow(clippy::type_complexity)]
fn parse_footer_entries(
    bytes: &Bytes,
    schema: &Schema,
    group_count: usize,
) -> Result<(Vec<Vec<ColumnFooterStats>>, TableFooterStats, usize)> {
    let tail_start = bytes.len() - 16;
    let mut tail = bytes.slice(tail_start..);
    let footer_offset = tail.get_u64_le() as usize;
    if footer_offset > tail_start {
        return Err(LakeError::Corrupt("footer offset out of range".into()));
    }
    let mut footer = bytes.slice(footer_offset..tail_start);
    let mut groups = Vec::with_capacity(group_count.min(4096));
    for _ in 0..group_count {
        let mut cols = Vec::with_capacity(schema.len());
        // Validate each entry's column name against the schema in place:
        // the footer is written in schema order, so an owned copy of the
        // name would only ever be compared and dropped — and on a snapshot
        // restore this loop runs per column per row group across the whole
        // lake, where per-name allocations dominate the decode cost.
        for f in schema.fields() {
            if footer.remaining() < 4 {
                return Err(LakeError::Corrupt("truncated footer".into()));
            }
            let len = footer.get_u32_le() as usize;
            if footer.remaining() < len {
                return Err(LakeError::Corrupt("truncated footer name".into()));
            }
            let name_bytes = footer.copy_to_bytes(len);
            if &name_bytes[..] != f.name.as_bytes() {
                return Err(LakeError::Corrupt("footer/schema column mismatch".into()));
            }
            cols.push(get_footer_stats(&mut footer)?);
        }
        groups.push(cols);
    }
    if footer.remaining() < 1 {
        return Err(LakeError::Corrupt("truncated table-level footer".into()));
    }
    let distinct_exact = footer.get_u8() == 1;
    let mut table_stats = Vec::with_capacity(schema.len());
    for f in schema.fields() {
        if footer.remaining() < 1 {
            return Err(LakeError::Corrupt("truncated table-level footer".into()));
        }
        if footer.get_u8() == 1 {
            table_stats.push((f.name.clone(), get_footer_stats(&mut footer)?));
        }
    }
    Ok((
        groups,
        TableFooterStats {
            distinct_exact,
            table_stats,
        },
        footer_offset,
    ))
}

/// Deserialise a partitioned table **lazily**: statistics, exact distinct
/// counts and sketches are reattached from the footer immediately, while
/// every column page stays an undecoded byte range (zero-copy slices of
/// `bytes`) that materializes on first touch. Metered as reading the file's
/// bytes plus one `pages_skipped` per page; materializations later charge
/// `pages_decoded`.
pub fn decode(bytes: &Bytes, meter: &Meter) -> Result<PartitionedTable> {
    decode_with(bytes, meter, meter)
}

/// [`decode`] with the I/O charge and the lazy-page metering split:
/// `io_meter` receives the `bytes_scanned` for reading the file, while
/// `lazy_meter` receives `pages_skipped` now and `pages_decoded` whenever a
/// page materializes later. Snapshot restore passes a scratch `io_meter` (a
/// restored session must not account file bytes the live session never
/// read) but the lake's own meter as `lazy_meter`.
pub(crate) fn decode_with(
    bytes: &Bytes,
    io_meter: &Meter,
    lazy_meter: &Meter,
) -> Result<PartitionedTable> {
    check_magic_and_version(bytes)?;
    io_meter.add_bytes_scanned(bytes.len() as u64);
    let mut buf = bytes.clone();
    buf.advance(12); // magic + version (validated above)
    let schema = decode_schema(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(LakeError::Corrupt("truncated row group count".into()));
    }
    let group_count = buf.get_u32_le() as usize;
    let (footer, table_section, footer_offset) = parse_footer_entries(bytes, &schema, group_count)?;
    let distinct_exact = table_section.distinct_exact;
    let mut partitions = Vec::with_capacity(group_count.clamp(1, 4096));
    for group_stats in footer.into_iter().take(group_count) {
        if buf.remaining() < 8 {
            return Err(LakeError::Corrupt("truncated row group header".into()));
        }
        let rows = buf.get_u64_le() as usize;
        let mut columns = Vec::with_capacity(schema.len());
        for (f, entry) in schema.fields().iter().zip(group_stats) {
            if buf.remaining() < 4 {
                return Err(LakeError::Corrupt("truncated column page length".into()));
            }
            let page_len = buf.get_u32_le() as usize;
            let page_start = bytes.len() - buf.remaining();
            if page_start + page_len > footer_offset {
                return Err(LakeError::Corrupt(
                    "column page extends past the data region".into(),
                ));
            }
            // Sanity-gate the declared row count against the page it frames:
            // every layout spends at least one byte per eight rows (presence
            // bitmap) or one byte per row (tagged), so a row count beyond
            // 8x the page bytes is corrupt. Rejecting it here keeps a
            // hostile group header from sizing lazy columns (and their
            // later materialization) off a number the file cannot back.
            if rows > page_len.saturating_mul(8).saturating_add(8) {
                return Err(LakeError::Corrupt(format!(
                    "row group declares {rows} rows but frames a {page_len}-byte page"
                )));
            }
            let page = bytes.slice(page_start..page_start + page_len);
            buf.advance(page_len);
            let mem_bytes = entry.mem_bytes as usize;
            let stats = entry.into_stats(rows);
            columns.push(Column::from_lazy_page(
                f.data_type,
                page,
                rows,
                mem_bytes,
                stats,
                lazy_meter,
            ));
            lazy_meter.add_pages_skipped(1);
        }
        partitions.push(Table::new(schema.clone(), columns)?);
    }
    if partitions.is_empty() {
        partitions.push(Table::empty(schema));
    }
    let num_rows: usize = partitions.iter().map(Table::num_rows).sum();
    // Reattach the table-level section (exact distinct counts + merged
    // sketches) instead of keeping the merged per-partition upper bounds, so
    // the decoded table reproduces the live table's gating decisions.
    let table_stats: HashMap<String, ColumnStats> = table_section
        .table_stats
        .into_iter()
        .map(|(name, entry)| (name, entry.into_stats(num_rows)))
        .collect();
    PartitionedTable::from_decoded_partitions(partitions, table_stats, distinct_exact)
}

/// Read only the footer statistics of an encoded file — the cheap metadata
/// path Min-Max Pruning uses. Costs metadata lookups on the meter but no row
/// scans; page frames let the group headers be recovered in O(pages) hops
/// without inspecting a single page byte.
pub fn read_footer(bytes: &Bytes, meter: &Meter) -> Result<FooterStats> {
    check_magic_and_version(bytes)?;
    let mut header = bytes.clone();
    header.advance(12);
    let schema = decode_schema(&mut header)?;
    if header.remaining() < 4 {
        return Err(LakeError::Corrupt("truncated row group count".into()));
    }
    let group_count = header.get_u32_le() as usize;

    let (entries, table_section, _) = parse_footer_entries(bytes, &schema, group_count)?;
    let mut column_stats = Vec::with_capacity(group_count.min(4096));
    for group in entries {
        let mut per_col = HashMap::with_capacity(schema.len());
        for (f, stats) in schema.fields().iter().zip(group) {
            meter.add_metadata_lookups(1);
            per_col.insert(f.name.clone(), stats);
        }
        column_stats.push(per_col);
    }
    meter.add_metadata_lookups(table_section.table_stats.len() as u64);

    // Recover row counts from the group headers, hopping over each column
    // page via its length frame (no page byte is inspected).
    let mut row_counts = Vec::with_capacity(group_count.min(4096));
    let mut cursor = header;
    for _ in 0..group_count {
        if cursor.remaining() < 8 {
            return Err(LakeError::Corrupt("truncated row group header".into()));
        }
        row_counts.push(cursor.get_u64_le());
        for _ in 0..schema.len() {
            if cursor.remaining() < 4 {
                return Err(LakeError::Corrupt("truncated column page length".into()));
            }
            let page_len = cursor.get_u32_le() as usize;
            if cursor.remaining() < page_len {
                return Err(LakeError::Corrupt("truncated column page".into()));
            }
            cursor.advance(page_len);
        }
    }

    Ok(FooterStats {
        row_counts,
        column_stats,
        table_section,
    })
}

impl FooterStats {
    /// Table-level [`ColumnStats`] as stored in the footer's table-level
    /// section: min/max/null counts match a merge of the row groups, the
    /// distinct counts are the exact figures the table was encoded with,
    /// and the sketches are the whole-table merges.
    pub fn table_level(&self) -> HashMap<String, ColumnStats> {
        let total_rows: usize = self.row_counts.iter().map(|&r| r as usize).sum();
        self.table_section
            .table_stats
            .iter()
            .map(|(name, entry)| (name.clone(), entry.clone().into_stats(total_rows)))
            .collect()
    }
}

/// Write an encoded table to a file.
pub fn write_file(table: &PartitionedTable, path: &Path) -> Result<u64> {
    let bytes = encode(table);
    fs::write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Read a table back from a file.
pub fn read_file(path: &Path, meter: &Meter) -> Result<PartitionedTable> {
    let raw = fs::read(path)?;
    decode(&Bytes::from(raw), meter)
}

/// Read only the footer statistics from a file.
pub fn read_file_footer(path: &Path, meter: &Meter) -> Result<FooterStats> {
    let raw = fs::read(path)?;
    read_footer(&Bytes::from(raw), meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSpec;

    fn sample() -> PartitionedTable {
        let schema = Schema::flat(&[
            ("id", DataType::Int),
            ("name", DataType::Utf8),
            ("score", DataType::Float),
            ("ts", DataType::Timestamp),
            ("flag", DataType::Bool),
        ])
        .unwrap();
        let n = 23i64;
        let t = Table::new(
            schema,
            vec![
                Column::from_ints(0..n),
                Column::from_strs((0..n).map(|i| format!("name-{i}"))),
                Column::new(
                    DataType::Float,
                    (0..n)
                        .map(|i| {
                            if i % 7 == 0 {
                                Value::Null
                            } else {
                                Value::Float(i as f64 * 0.5)
                            }
                        })
                        .collect(),
                )
                .unwrap(),
                Column::from_timestamps((0..n).map(|i| 1_600_000_000_000 + i * 1000)),
                Column::new(
                    DataType::Bool,
                    (0..n).map(|i| Value::Bool(i % 2 == 0)).collect(),
                )
                .unwrap(),
            ],
        )
        .unwrap();
        PartitionedTable::from_table(
            t,
            PartitionSpec::ByRowCount {
                rows_per_partition: 6,
            },
        )
        .unwrap()
    }

    /// A table whose string column is highly repetitive (4 distinct values
    /// over many rows), so the dictionary layout pays.
    fn repetitive() -> PartitionedTable {
        let schema = Schema::flat(&[("id", DataType::Int), ("region", DataType::Utf8)]).unwrap();
        let n = 64i64;
        let t = Table::new(
            schema,
            vec![
                Column::from_ints(0..n),
                Column::from_strs((0..n).map(|i| format!("region-{}", i % 4))),
            ],
        )
        .unwrap();
        PartitionedTable::single(t)
    }

    #[test]
    fn encode_decode_round_trip() {
        let pt = sample();
        let bytes = encode(&pt);
        let meter = Meter::new();
        let back = decode(&bytes, &meter).unwrap();
        assert_eq!(back.num_rows(), pt.num_rows());
        assert_eq!(back.schema(), pt.schema());
        assert_eq!(back.num_partitions(), pt.num_partitions());
        let cols: Vec<&str> = pt.schema().names();
        let a = pt
            .to_table(&Meter::new())
            .unwrap()
            .row_hash_multiset(&cols, &Meter::new())
            .unwrap();
        let b = back
            .to_table(&Meter::new())
            .unwrap()
            .row_hash_multiset(&cols, &Meter::new())
            .unwrap();
        assert_eq!(a, b);
        assert!(meter.snapshot().bytes_scanned > 0);
    }

    #[test]
    fn decode_is_lazy_until_first_touch() {
        let pt = sample();
        let bytes = encode(&pt);
        let meter = Meter::new();
        let back = decode(&bytes, &meter).unwrap();

        // Metadata served without touching a page.
        assert_eq!(back.num_rows(), pt.num_rows());
        assert_eq!(back.byte_size(), pt.byte_size());
        let snap = meter.snapshot();
        assert_eq!(snap.pages_decoded, 0, "no page touched yet");
        assert_eq!(
            snap.pages_skipped as usize,
            pt.num_partitions() * pt.schema().len()
        );

        // Stats come from the footer, identical to the live table's.
        for part in back.partitions() {
            for col in part.columns() {
                assert!(!col.is_materialized());
                let _ = col.stats();
            }
        }
        assert_eq!(meter.snapshot().pages_decoded, 0);

        // First touch materializes exactly the touched pages.
        let first = &back.partitions()[0].columns()[0];
        assert_eq!(first.values().len(), first.len());
        assert!(first.is_materialized());
        assert_eq!(meter.snapshot().pages_decoded, 1);
        // Touching the same page again is free.
        let _ = first.values();
        assert_eq!(meter.snapshot().pages_decoded, 1);
    }

    #[test]
    fn lazy_reencode_is_bit_identical_without_materializing() {
        let pt = sample();
        let bytes = encode(&pt);
        let meter = Meter::new();
        let back = decode(&bytes, &meter).unwrap();
        let again = encode(&back);
        assert_eq!(bytes, again, "decode → encode must be bit-identical");
        assert_eq!(meter.snapshot().pages_decoded, 0, "re-encode reuses pages");
    }

    #[test]
    fn repetitive_strings_use_the_dictionary_layout_and_round_trip() {
        let pt = repetitive();
        let bytes = encode(&pt);

        // The sample()'s unique strings must NOT pick the dictionary (it
        // would be larger), while the repetitive table must.
        let plain = encode(&sample());
        assert!(page_layouts(&plain).iter().all(|&l| l != LAYOUT_DICT));
        let layouts = page_layouts(&bytes);
        assert!(
            layouts.contains(&LAYOUT_DICT),
            "4 distinct strings over 64 rows must dictionary-encode: {layouts:?}"
        );

        let back = decode(&bytes, &Meter::new()).unwrap();
        let a = pt.to_table(&Meter::new()).unwrap();
        let b = back.to_table(&Meter::new()).unwrap();
        assert_eq!(a, b, "dictionary pages must decode to identical values");
        // Dictionary compression makes the file smaller than the in-memory
        // table even though the format stores full footer stats.
        assert!(
            bytes.len() < plain.len() || pt.num_rows() < 64,
            "sanity: dict table encodes compactly"
        );
    }

    /// Layout byte of every column page in an encoded file.
    fn page_layouts(bytes: &Bytes) -> Vec<u8> {
        let mut buf = bytes.clone();
        buf.advance(12);
        let schema = decode_schema(&mut buf).unwrap();
        let group_count = buf.get_u32_le() as usize;
        let mut layouts = Vec::new();
        for _ in 0..group_count {
            let _rows = buf.get_u64_le();
            for _ in 0..schema.len() {
                let page_len = buf.get_u32_le() as usize;
                layouts.push(buf[0]);
                buf.advance(page_len);
            }
        }
        layouts
    }

    #[test]
    fn footer_has_min_max_without_row_scans() {
        let pt = sample();
        let bytes = encode(&pt);
        let meter = Meter::new();
        let footer = read_footer(&bytes, &meter).unwrap();
        assert_eq!(footer.row_counts.len(), pt.num_partitions());
        assert_eq!(meter.snapshot().rows_scanned, 0);
        assert!(meter.snapshot().metadata_lookups > 0);

        let table_stats = footer.table_level();
        assert_eq!(table_stats["id"].min, Some(Value::Int(0)));
        assert_eq!(table_stats["id"].max, Some(Value::Int(22)));
        assert!(table_stats["score"].null_count > 0);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("r2d2_lake_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.r2d2");
        let pt = sample();
        let written = write_file(&pt, &path).unwrap();
        assert!(written > 0);
        let meter = Meter::new();
        let back = read_file(&path, &meter).unwrap();
        assert_eq!(back.num_rows(), pt.num_rows());
        let footer = read_file_footer(&path, &Meter::new()).unwrap();
        assert_eq!(
            footer.row_counts.iter().sum::<u64>() as usize,
            pt.num_rows()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_files_rejected() {
        let pt = sample();
        let bytes = encode(&pt);
        let meter = Meter::new();

        // Truncated.
        let truncated = bytes.slice(0..bytes.len() / 2);
        assert!(decode(&truncated, &meter).is_err());

        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(decode(&Bytes::from(bad), &meter).is_err());

        // Bad trailing magic.
        let mut bad_tail = bytes.to_vec();
        let len = bad_tail.len();
        bad_tail[len - 1] = b'X';
        assert!(read_footer(&Bytes::from(bad_tail), &meter).is_err());

        // Tiny garbage.
        assert!(decode(&Bytes::from_static(b"hello"), &meter).is_err());
    }

    /// Fuzz regression: a group header declaring a row count the framed
    /// pages cannot back must be rejected up front — not trusted to size
    /// lazy columns (and later materializations) into OOM territory.
    #[test]
    fn inflated_group_row_count_rejected() {
        let pt = sample();
        let bytes = encode(&pt);
        // Offset of the first group's rows u64: magic+version, field count,
        // each field's length-framed name + type tag, then the group count.
        let mut off = 12 + 4;
        for f in pt.schema().fields() {
            off += 4 + f.name.len() + 1;
        }
        off += 4;
        let mut v = bytes.to_vec();
        v[off..off + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = decode(&Bytes::from(v), &Meter::new()).unwrap_err();
        assert!(
            err.to_string().contains("rows"),
            "typed corruption naming the row count: {err}"
        );
    }

    /// Fuzz regressions: hostile column pages return typed errors, never
    /// panic, and never allocate for a row count the page cannot back.
    #[test]
    fn hostile_pages_error_instead_of_panicking() {
        // Tagged page framing an absurd row count with one byte of payload:
        // the capacity is capped at the page size and the first missing
        // value is a typed error.
        let page = Bytes::from_static(&[LAYOUT_TAGGED]);
        assert!(decode_page(&page, DataType::Int, usize::MAX / 64).is_err());

        // Packed int page whose presence bitmap claims eight values but
        // whose payload carries only one word.
        let mut page = vec![LAYOUT_PACKED, 0b1111_1111];
        page.extend_from_slice(&[0u8; 8]);
        assert!(decode_page(&Bytes::from(page), DataType::Int, 8).is_err());

        // Unknown layout byte.
        assert!(decode_page(&Bytes::from_static(&[9u8]), DataType::Int, 0).is_err());

        // Empty page (no layout byte at all).
        assert!(decode_page(&Bytes::new(), DataType::Int, 1).is_err());
    }

    #[test]
    fn older_versions_fail_with_explicit_error() {
        let pt = sample();
        let bytes = encode(&pt);
        for old in [1u32, 2, 3, 4, 5] {
            let mut v = bytes.to_vec();
            v[8..12].copy_from_slice(&old.to_le_bytes());
            let err = decode(&Bytes::from(v.clone()), &Meter::new()).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("unsupported R2D2LAKE version {old}")),
                "v{old} decode error must name the version: {msg}"
            );
            assert!(
                msg.contains("re-encoded"),
                "error must say how to fix: {msg}"
            );
            assert!(read_footer(&Bytes::from(v), &Meter::new()).is_err());
        }
    }

    #[test]
    fn empty_table_round_trips() {
        let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
        let pt = PartitionedTable::single(Table::empty(schema));
        let bytes = encode(&pt);
        let back = decode(&bytes, &Meter::new()).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.schema().names(), vec!["x"]);
    }
}
