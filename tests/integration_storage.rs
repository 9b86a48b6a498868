//! Integration tests of the storage layer with the rest of the system: a
//! corpus written to the binary columnar format and read back must produce
//! the same containment graph, and the footer-only path must expose the same
//! min/max metadata MMP relies on.

use r2d2_bench::experiments::{enterprise_corpora, Scale};
use r2d2_core::R2d2Pipeline;
use r2d2_lake::{storage, AccessProfile, DataLake, Meter};

#[test]
fn corpus_round_trips_through_storage_with_identical_containment_graph() {
    let corpus = &enterprise_corpora(Scale::Smoke)[2];
    let dir = std::env::temp_dir().join("r2d2_integration_storage");
    std::fs::create_dir_all(&dir).unwrap();

    // Write every dataset to disk and read it back into a fresh lake.
    let mut restored = DataLake::new();
    for entry in corpus.lake.iter() {
        let path = dir.join(format!("{}.r2d2", entry.id.0));
        storage::write_file(&entry.data, &path).unwrap();
        let read_back = storage::read_file(&path, &Meter::new()).unwrap();
        assert_eq!(read_back.num_rows(), entry.data.num_rows());
        assert_eq!(read_back.schema(), entry.data.schema());
        restored
            .add_dataset(
                entry.name.clone(),
                read_back,
                AccessProfile::default(),
                None,
            )
            .unwrap();
        std::fs::remove_file(&path).ok();
    }

    let original = R2d2Pipeline::with_defaults().run(&corpus.lake).unwrap();
    let roundtrip = R2d2Pipeline::with_defaults().run(&restored).unwrap();

    // Dataset ids are re-assigned in insertion order, which matches the
    // original iteration order, so the edge sets must be identical.
    let mut a = original.after_clp.edges();
    let mut b = roundtrip.after_clp.edges();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "containment graph must survive a storage round trip");
}

#[test]
fn footer_metadata_matches_in_memory_statistics() {
    let corpus = &enterprise_corpora(Scale::Smoke)[0];
    for entry in corpus.lake.iter().take(5) {
        let bytes = storage::encode(&entry.data);
        let meter = Meter::new();
        let footer = storage::read_footer(&bytes, &meter).unwrap();
        assert_eq!(
            meter.snapshot().rows_scanned,
            0,
            "footer read is metadata-only"
        );

        let from_footer = footer.table_level();
        for (name, stats) in entry.data.table_stats() {
            let f = &from_footer[name];
            assert_eq!(f.min, stats.min, "min mismatch for {name}");
            assert_eq!(f.max, stats.max, "max mismatch for {name}");
            assert_eq!(f.null_count, stats.null_count, "nulls mismatch for {name}");
        }
        assert_eq!(
            footer.row_counts.iter().sum::<u64>() as usize,
            entry.data.num_rows()
        );
    }
}

#[test]
fn encoded_size_tracks_logical_size() {
    let corpus = &enterprise_corpora(Scale::Smoke)[0];
    let mut entries = corpus.lake.iter();
    let small = entries.next().unwrap();
    let encoded = storage::encode(&small.data);
    // The binary format should be within a small constant factor of the
    // logical byte size (no blow-up, no impossible compression since values
    // are stored verbatim) — after setting aside the footer's fixed
    // per-column metadata (name, min/max, three counts and the 256-byte
    // bloom sketch, once per row group and once at table level), which
    // dominates only for tiny tables like this one.
    let columns = small.data.schema().fields().len();
    let sections = small.data.num_partitions() + 1;
    let footer_allowance = (512 * columns * sections) as f64;
    let logical = small.data.byte_size() as f64;
    let physical = encoded.len() as f64;
    assert!(
        physical > logical * 0.5,
        "physical {physical} vs logical {logical}"
    );
    assert!(
        physical < logical * 3.0 + footer_allowance,
        "physical {physical} vs logical {logical} (+{footer_allowance} footer allowance)"
    );
}

// ---------------------------------------------------------------------------
// Fuzz-style hardening of the v4 dictionary page decoder: every corruption
// must surface as an `Err` at materialization time — never a panic, never an
// out-of-bounds read. The single-column layout below makes the byte offsets
// deterministic so each test can aim at one specific field.
// ---------------------------------------------------------------------------

use r2d2_lake::{Column, DataType, PartitionedTable, Schema, Table};

/// 64 rows over 4 distinct strings — small enough that every offset is easy
/// to audit, repetitive enough that the encoder provably picks LAYOUT_DICT.
fn dict_table() -> PartitionedTable {
    let schema = Schema::flat(&[("s", DataType::Utf8)]).unwrap();
    let t = Table::new(
        schema,
        vec![Column::from_strs(
            (0..64).map(|i| format!("service-{}", i % 4)),
        )],
    )
    .unwrap();
    PartitionedTable::single(t)
}

/// Byte offset of the first (only) page frame: magic(8) + version(4) +
/// field_count(4) + [name_len(4) + "s"(1) + type(1)] + group_count(4) +
/// row_count(8).
const PAGE_FRAME: usize = 8 + 4 + 4 + (4 + 1 + 1) + 4 + 8;

/// Decode a corrupted file and force materialization of the one column;
/// returns the error message (panics the test if decoding *succeeds*).
fn materialize_err(bytes: Vec<u8>) -> String {
    match storage::decode(&bytes::Bytes::from(bytes), &Meter::new()) {
        // Header/footer-level corruption is caught eagerly by the decoder.
        Err(e) => e.to_string(),
        Ok(pt) => pt.partitions()[0].columns()[0]
            .try_values()
            .expect_err("corrupt dict page must fail to materialize")
            .to_string(),
    }
}

#[test]
fn dict_page_corruptions_error_instead_of_panicking() {
    let pt = dict_table();
    let encoded = storage::encode(&pt);
    let page_len =
        u32::from_le_bytes(encoded[PAGE_FRAME..PAGE_FRAME + 4].try_into().unwrap()) as usize;
    let page = PAGE_FRAME + 4;
    assert_eq!(encoded[page], 2, "test premise: encoder chose LAYOUT_DICT");
    // Page layout: tag(1) + bitmap(8) + dict_count(4) + 4×[len(4)+8 bytes] +
    // 64×code(4).
    let dict_count_at = page + 1 + 8;
    let first_len_at = dict_count_at + 4;
    let codes_at = first_len_at + 4 * (4 + "service-0".len());
    assert_eq!(page + page_len, codes_at + 64 * 4, "offset audit");

    // (a) Truncated dictionary: claim more entries than the page holds.
    let mut truncated = encoded.to_vec();
    truncated[dict_count_at..dict_count_at + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
    let msg = materialize_err(truncated);
    assert!(msg.contains("truncated"), "unexpected error: {msg}");

    // (b) Out-of-range code: point a code past the 4-entry dictionary.
    let mut bad_code = encoded.to_vec();
    bad_code[codes_at..codes_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let msg = materialize_err(bad_code);
    assert!(msg.contains("out of range"), "unexpected error: {msg}");

    // (c) Bad length framing: one dictionary entry claims a huge payload.
    let mut bad_len = encoded.to_vec();
    bad_len[first_len_at..first_len_at + 4].copy_from_slice(&0xFFFF_FF00u32.to_le_bytes());
    let msg = materialize_err(bad_len);
    assert!(
        msg.contains("truncated") || msg.contains("length"),
        "unexpected error: {msg}"
    );
}

#[test]
fn every_single_byte_flip_in_the_dict_page_is_handled_gracefully() {
    let pt = dict_table();
    let encoded = storage::encode(&pt);
    let page_len =
        u32::from_le_bytes(encoded[PAGE_FRAME..PAGE_FRAME + 4].try_into().unwrap()) as usize;
    let page = PAGE_FRAME + 4;
    for i in page..page + page_len {
        let mut flipped = encoded.to_vec();
        flipped[i] ^= 0xFF;
        // Either the decoder rejects the file outright, or the lazy column
        // materializes to an Err, or the flip happened to produce another
        // well-formed page (e.g. a code remapped inside the dictionary) —
        // all acceptable; a panic or abort is not.
        if let Ok(decoded) = storage::decode(&bytes::Bytes::from(flipped), &Meter::new()) {
            let _ = decoded.partitions()[0].columns()[0].try_values();
        }
    }
}
