//! Structure-aware mutation sweep over both on-disk formats.
//!
//! A small MARASNAP snapshot and a small MARAEVID archive are damaged at
//! every byte offset: truncated there (with the header's length fixed to
//! match), and overwritten there with 4 and 8 bytes of all-ones and of a
//! huge power of two (2^31 in four bytes, 2^40 in eight). Checksums are then recomputed (a damaged archive
//! block's own checksum first, then the header's), so the decoders face a
//! lie under a valid checksum instead of a checksum failure. Every variant
//! must load or be refused with a typed `FormatError`, never panic, and
//! keep its peak heap within [`heap_bound`] of its size.
//!
//! The sweep is a single test: the counting allocator is process-wide, and
//! nothing else in this binary may allocate while a decoder is measured.

use maras::core::{Pipeline, PipelineConfig};
use maras::evidence::{build_archive, check_archive, BuildConfig, EvidenceReader};
use maras::faers::{QuarterId, SynthConfig, Synthesizer, Vocabulary};
use maras::format::{fnv1a, FormatError, HEADER_LEN};
use maras::serve::{ClusterEntry, Snapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    /// Counted as a fresh allocation followed by a free: a moving realloc
    /// holds both blocks at once.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak heap growth while it ran.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed).saturating_sub(base))
}

/// The most heap a decoder may use on a file of `len` bytes. The file is
/// read into memory once (1×). Every count-sized reservation is capped by
/// `Cursor::capacity_for` at the unread bytes over the item's minimum
/// encoded size, and no decoded item is more than 16× that size: the
/// largest ratio is an archive reaction (a 16-byte interned symbol per
/// 1-byte varint); a drug entry is 24 B per 2, a `CaseReport` 128 B per
/// its 11 block bytes, a snapshot string 24 B per 4-byte length, a
/// cluster 288 B per 123, a context rule 24 B per 20. The 1 MiB covers
/// what grows with the number of distinct names rather than with bytes
/// (the snapshot's rebuilt posting indexes and vocabulary lookups, the
/// archive's symbol table: a few dozen names in these fixtures),
/// hash-table minimums and allocator rounding.
fn heap_bound(len: usize) -> usize {
    16 * len + (1 << 20)
}

/// A snapshot of four clusters, with vocabularies cut to the names they
/// use: about 2 KB.
fn snapshot_fixture(path: &Path) -> Vec<u8> {
    let mut synth = Synthesizer::new(SynthConfig::test_scale(31));
    let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
    let (dv, av) = (synth.drug_vocab().clone(), synth.adr_vocab().clone());
    let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
    let full = Snapshot::build("2014 Q1", &result, &dv, &av, None);
    let clusters: Vec<ClusterEntry> = full.clusters[..4].to_vec();
    let vocab = |names: fn(&ClusterEntry) -> &[String]| {
        Vocabulary::from_terms(clusters.iter().flat_map(names).cloned())
    };
    let snap = Snapshot::from_parts(
        full.quarter.clone(),
        full.n_reports,
        vocab(|c| &c.drugs),
        vocab(|c| &c.adrs),
        clusters.clone(),
    );
    maras::serve::save(&snap, path).unwrap();
    std::fs::read(path).unwrap()
}

/// An archive of sixteen reports in blocks of four: about 4 KB.
fn archive_fixture(path: &Path) -> Vec<u8> {
    let mut synth = Synthesizer::new(SynthConfig { n_reports: 16, ..SynthConfig::test_scale(37) });
    let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
    let (dv, av) = (synth.drug_vocab().clone(), synth.adr_vocab().clone());
    let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
    build_archive(&result, &dv, &av, path, BuildConfig { block_size: 4 }).unwrap();
    std::fs::read(path).unwrap()
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Offset of a snapshot's cluster count: after the quarter, the report
/// count and both vocabularies.
fn cluster_count_offset(snap: &[u8]) -> usize {
    let mut at = HEADER_LEN + 4 + u32_at(snap, HEADER_LEN) + 8;
    for _ in 0..2 {
        let n = u64_at(snap, at);
        at += 8;
        for _ in 0..n {
            at += 4 + u32_at(snap, at);
        }
    }
    at
}

/// Where an archive's data blocks lie and where the meta section records
/// each one's checksum.
struct Blocks {
    /// `(checksum field offset, block byte range)`, both in file offsets.
    blocks: Vec<(usize, Range<usize>)>,
    data_start: usize,
}

impl Blocks {
    fn of(archive: &[u8]) -> Blocks {
        let meta_len = u64_at(archive, 12) as usize;
        let geometry = HEADER_LEN + 4 + u32_at(archive, HEADER_LEN);
        let n_blocks = u32_at(archive, geometry + 12);
        let data_start = HEADER_LEN + meta_len;
        let index = data_start - 32 * n_blocks;
        let blocks = (0..n_blocks)
            .map(|b| {
                let entry = index + 32 * b;
                let offset = data_start + u64_at(archive, entry) as usize;
                let len = u64_at(archive, entry + 8) as usize;
                (entry + 16, offset..offset + len)
            })
            .collect();
        Blocks { blocks, data_start }
    }

    /// Recomputes the checksum of every block the damage in `hit` touches.
    fn reseal(&self, bytes: &mut [u8], hit: &Range<usize>) {
        for (field, range) in &self.blocks {
            if range.start < hit.end && hit.start < range.end && range.end <= bytes.len() {
                let sum = fnv1a(&bytes[range.clone()]);
                bytes[*field..*field + 8].copy_from_slice(&sum.to_le_bytes());
            }
        }
    }
}

/// Recomputes the header checksum over the section the (possibly damaged)
/// length field declares, when the file still holds that much.
fn reseal_header(bytes: &mut [u8]) {
    if bytes.len() < HEADER_LEN {
        return;
    }
    let end = (u64_at(bytes, 12) as usize).checked_add(HEADER_LEN);
    if let Some(end) = end.filter(|&end| end <= bytes.len()) {
        let sum = fnv1a(&bytes[HEADER_LEN..end]);
        bytes[20..28].copy_from_slice(&sum.to_le_bytes());
    }
}

/// The file cut at `at`, its header length shortened to what is left.
fn truncated(good: &[u8], at: usize) -> Vec<u8> {
    let mut bad = good[..at].to_vec();
    if at >= HEADER_LEN {
        let len = u64_at(&bad, 12).min((at - HEADER_LEN) as u64);
        bad[12..20].copy_from_slice(&len.to_le_bytes());
        reseal_header(&mut bad);
    }
    bad
}

/// The file with `value` written over the bytes from `at`, resealed.
fn overwritten(good: &[u8], at: usize, value: &[u8], blocks: Option<&Blocks>) -> Vec<u8> {
    let mut bad = good.to_vec();
    let hit = at..(at + value.len()).min(bad.len());
    bad[hit.clone()].copy_from_slice(&value[..hit.len()]);
    if let Some(blocks) = blocks.filter(|b| hit.end > b.data_start) {
        blocks.reseal(&mut bad, &hit);
    }
    // Damage to the stored checksum itself stays visible.
    if hit.end <= 20 || hit.start >= HEADER_LEN {
        reseal_header(&mut bad);
    }
    bad
}

/// Every damaged variant at `at`, named for the failure message.
fn variants(good: &[u8], at: usize, blocks: Option<&Blocks>) -> Vec<(String, Vec<u8>)> {
    let values: [(&str, &[u8]); 4] = [
        ("4 bytes of ones", &[0xff; 4]),
        ("u32 2^31", &(1u32 << 31).to_le_bytes()),
        ("8 bytes of ones", &[0xff; 8]),
        ("u64 2^40", &(1u64 << 40).to_le_bytes()),
    ];
    let mut out = vec![(format!("truncated at {at}"), truncated(good, at))];
    for (name, value) in values {
        out.push((format!("{name} at {at}"), overwritten(good, at, value, blocks)));
    }
    out
}

/// Runs one decoder on a damaged file: it must return (the type makes any
/// error a `FormatError`) without panicking, within the heap bound.
fn decode_within_bound<T>(
    what: &str,
    path: &Path,
    len: usize,
    decode: impl FnOnce(&Path) -> Result<T, FormatError>,
) -> Result<T, FormatError> {
    let (outcome, peak) = peak_during(|| catch_unwind(AssertUnwindSafe(|| decode(path))));
    let outcome = outcome.unwrap_or_else(|_| panic!("{what}: decoder panicked"));
    assert!(
        peak <= heap_bound(len),
        "{what}: peak heap {peak} B over the bound {} B for a {len}-byte file",
        heap_bound(len)
    );
    outcome
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maras-format-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_mutation_of_either_format_is_refused_or_loaded_within_bounded_heap() {
    // Span recording buffers every decode's spans; it would grow over the
    // sweep and be charged to whichever decode reallocated it.
    maras::obs::set_tracing(false);
    let dir = temp_dir();
    let snap_path = dir.join("fixture.snap");
    let evid_path = dir.join("fixture.evid");
    let snap = snapshot_fixture(&snap_path);
    let evid = archive_fixture(&evid_path);
    assert!(snap.len() < 8 << 10 && evid.len() < 8 << 10, "fixtures stay a few KB");
    // One clean decode of each first, so one-time registrations (metrics
    // series) are not charged to the sweep.
    assert_eq!(maras::serve::load(&snap_path).unwrap().len(), 4);
    assert!(check_archive(&evid_path).unwrap().n_records > 0);

    // The lie that motivated the sweep: a cluster count of 2^40 under a
    // recomputed checksum must be refused before anything is reserved for
    // it.
    let at = cluster_count_offset(&snap);
    assert_eq!(u64_at(&snap, at), 4);
    let lying = overwritten(&snap, at, &(1u64 << 40).to_le_bytes(), None);
    let path = dir.join("variant.snap");
    std::fs::write(&path, &lying).unwrap();
    let refused = decode_within_bound("lying cluster count", &path, lying.len(), |p| {
        maras::serve::load(p).map(|s| s.len())
    });
    assert!(matches!(refused, Err(FormatError::Truncated)), "lying count gave {refused:?}");

    for at in 0..snap.len() {
        for (what, bad) in variants(&snap, at, None) {
            std::fs::write(&path, &bad).unwrap();
            let _ = decode_within_bound(&format!("snapshot, {what}"), &path, bad.len(), |p| {
                maras::serve::load(p).map(|s| s.len())
            });
        }
    }

    let blocks = Blocks::of(&evid);
    assert!(blocks.blocks.len() > 1, "the archive spans several blocks");
    let path = dir.join("variant.evid");
    for at in 0..evid.len() {
        for (what, bad) in variants(&evid, at, Some(&blocks)) {
            std::fs::write(&path, &bad).unwrap();
            let _ = decode_within_bound(&format!("archive open, {what}"), &path, bad.len(), |p| {
                EvidenceReader::open(p).map(|r| r.n_records())
            });
            let _ = decode_within_bound(&format!("archive check, {what}"), &path, bad.len(), |p| {
                check_archive(p).map(|r| r.n_records)
            });
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
