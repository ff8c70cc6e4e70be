//! Corrupt-archive suite: damaged files must be refused with typed
//! [`EvidenceError`]s — `evidence check`, `EvidenceReader::open`, and
//! fetch paths never panic on hostile bytes.

use maras_core::config::PipelineConfig;
use maras_core::pipeline::Pipeline;
use maras_evidence::format::{fnv1a, HEADER_LEN};
use maras_evidence::{build_archive, check_archive, BuildConfig, EvidenceError, EvidenceReader};
use maras_faers::{QuarterId, SynthConfig, Synthesizer};
use std::path::PathBuf;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("maras-evid-corrupt-{tag}-{}.evid", std::process::id()))
}

/// Builds one small pristine archive and returns its bytes.
fn pristine() -> Vec<u8> {
    let mut synth = Synthesizer::new(SynthConfig::test_scale(3));
    let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
    let dv = synth.drug_vocab().clone();
    let av = synth.adr_vocab().clone();
    let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
    let path = tmp_path("pristine");
    build_archive(&result, &dv, &av, &path, BuildConfig { block_size: 16 }).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

fn write_variant(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = tmp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Both entry points must refuse the file, and the error must satisfy the
/// given predicate.
fn assert_refused(tag: &str, bytes: &[u8], is_expected: impl Fn(&EvidenceError) -> bool) {
    let path = write_variant(tag, bytes);
    let open_err = EvidenceReader::open(&path).err().unwrap_or_else(|| panic!("{tag}: opened"));
    assert!(is_expected(&open_err), "{tag}: open gave {open_err}");
    let check_err = check_archive(&path).err().unwrap_or_else(|| panic!("{tag}: checked"));
    assert!(is_expected(&check_err), "{tag}: check gave {check_err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_magic_and_version_are_refused() {
    let good = pristine();

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    assert_refused("bad-magic", &bad_magic, |e| matches!(e, EvidenceError::BadMagic));

    let mut bad_version = good.clone();
    bad_version[8..12].copy_from_slice(&999u32.to_le_bytes());
    assert_refused("bad-version", &bad_version, |e| matches!(e, EvidenceError::BadVersion(999)));

    let empty: &[u8] = b"";
    assert_refused("empty", empty, |e| matches!(e, EvidenceError::Truncated));
    assert_refused("short-header", &good[..HEADER_LEN - 5], |e| {
        matches!(e, EvidenceError::Truncated)
    });
}

#[test]
fn flipped_meta_byte_is_a_checksum_mismatch() {
    let good = pristine();
    // Damage the first byte of the meta section — the header checksum
    // must catch it before anything is parsed.
    let mut bad = good.clone();
    bad[HEADER_LEN] ^= 0x01;
    assert_refused(
        "meta-flip",
        &bad,
        |e| matches!(e, EvidenceError::ChecksumMismatch { what, .. } if what == "meta"),
    );

    // Damage the stored checksum itself: same refusal.
    let mut bad_sum = good.clone();
    bad_sum[20] ^= 0x01;
    assert_refused(
        "checksum-flip",
        &bad_sum,
        |e| matches!(e, EvidenceError::ChecksumMismatch { what, .. } if what == "meta"),
    );
}

#[test]
fn truncated_meta_and_truncated_blocks_are_refused() {
    let good = pristine();
    // Cut inside the meta section.
    assert_refused("short-meta", &good[..HEADER_LEN + 10], |e| {
        matches!(e, EvidenceError::Truncated)
    });
    // Cut inside the data section: the block index promises more bytes
    // than the file holds.
    assert_refused("short-data", &good[..good.len() - 7], |e| {
        matches!(e, EvidenceError::Truncated)
    });
}

#[test]
fn lying_record_count_under_a_valid_checksum_is_refused() {
    // Claim 2^40 records in 257 blocks of u32::MAX — a self-consistent
    // geometry — and reseal the meta section with a recomputed checksum, so
    // only the bytes that follow can expose the lie. Reservations must be
    // bounded by those bytes, not by the claimed count.
    let mut bad = pristine();
    let meta_len = u64::from_le_bytes(bad[12..20].try_into().unwrap()) as usize;
    let quarter_len = u32::from_le_bytes(bad[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap());
    let geometry = HEADER_LEN + 4 + quarter_len as usize;
    bad[geometry..geometry + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    bad[geometry + 8..geometry + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    bad[geometry + 12..geometry + 16].copy_from_slice(&257u32.to_le_bytes());
    let checksum = fnv1a(&bad[HEADER_LEN..HEADER_LEN + meta_len]);
    bad[20..28].copy_from_slice(&checksum.to_le_bytes());
    assert_refused("lying-count", &bad, |e| matches!(e, EvidenceError::Truncated));
}

#[test]
fn flipped_block_byte_fails_check_and_fetch_but_not_open() {
    let good = pristine();
    // Damage the last byte of the last block. The meta section is intact,
    // so open succeeds — the per-block checksum catches the damage at
    // check/fetch time.
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xff;
    let path = write_variant("block-flip", &bad);

    let reader = EvidenceReader::open(&path).expect("meta is intact");
    let n = reader.n_records() as u32;
    let fetch_err = reader.report_by_tid(n - 1).expect_err("fetch of damaged block fails");
    assert!(
        matches!(&fetch_err, EvidenceError::ChecksumMismatch { what, .. } if what.starts_with("block")),
        "fetch gave {fetch_err}"
    );
    // The first block is undamaged and still serves.
    assert!(reader.report_by_tid(0).is_ok());

    let check_err = check_archive(&path).expect_err("check fails");
    assert!(
        matches!(&check_err, EvidenceError::ChecksumMismatch { what, .. } if what.starts_with("block")),
        "check gave {check_err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_single_byte_flip_is_refused_or_detected() {
    // Exhaustive paranoia at a coarse stride: flip one byte anywhere in
    // the file; either open/check refuses with a typed error, or (for the
    // stored-vs-actual checksum bytes themselves) the mismatch surfaces.
    // Nothing may panic.
    let good = pristine();
    let reference = check_archive(&write_variant("ref", &good)).unwrap();
    assert!(reference.n_records > 0);
    for i in (0..good.len()).step_by(211) {
        let mut bad = good.clone();
        bad[i] ^= 0xa5;
        let path = write_variant(&format!("flip-{i}"), &bad);
        match EvidenceReader::open(&path) {
            Err(_) => {}
            Ok(_) => {
                // Meta parsed — the damage must live in a data block and
                // the full check must find it.
                assert!(check_archive(&path).is_err(), "flip at {i} went undetected");
            }
        }
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(tmp_path("ref")).ok();
}
