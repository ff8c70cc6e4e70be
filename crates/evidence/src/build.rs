//! Writing an archive from a finished analysis.
//!
//! Record `tid` of the archive is exactly transaction `tid` of the mined
//! database: the kept (deduplicated) version of the case, pulled from the
//! raw quarter through cleaned report `tid`'s `source_index`. That
//! alignment is what lets a postings intersection reproduce
//! `core::link::supporting_reports` byte-for-byte.

use crate::postings::encode_postings;
use crate::record::encode_block;
use crate::{FORMAT_VERSION, MAGIC};
use maras_core::pipeline::AnalysisResult;
use maras_faers::Vocabulary;
use maras_format::{fnv1a, put_str, put_u32, put_u64, FormatError, HEADER_LEN};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::path::Path;

/// Default records per block. Small enough that a point lookup decodes a
/// bounded slice, large enough that varint packing and the shared symbol
/// table amortize.
pub const DEFAULT_BLOCK_SIZE: u32 = 256;

/// Build-time knobs.
#[derive(Debug, Clone, Copy)]
pub struct BuildConfig {
    /// Records per block.
    pub block_size: u32,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig { block_size: DEFAULT_BLOCK_SIZE }
    }
}

/// What `build_archive` wrote — the numbers `evidence build` prints and the
/// bench records.
#[derive(Debug, Clone)]
pub struct ArchiveSummary {
    /// Records (== mined transactions) stored.
    pub n_records: usize,
    /// Data blocks written.
    pub n_blocks: usize,
    /// Distinct strings in the shared dictionary.
    pub n_symbols: usize,
    /// Distinct drug postings keys.
    pub n_drug_keys: usize,
    /// Distinct ADR postings keys.
    pub n_adr_keys: usize,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Bytes of the data section alone (blocks, without meta).
    pub data_bytes: u64,
}

/// Builds and atomically writes the evidence archive for an analysis run.
pub fn build_archive(
    result: &AnalysisResult,
    drug_vocab: &Vocabulary,
    adr_vocab: &Vocabulary,
    path: &Path,
    config: BuildConfig,
) -> Result<ArchiveSummary, FormatError> {
    let _span = maras_obs::span("evidence_build");
    let block_size = config.block_size.max(1) as usize;
    let n_records = result.cleaned.len();

    // The stored records, in tid order.
    let records: Vec<&maras_faers::CaseReport> =
        result.cleaned.iter().map(|c| &result.quarter.reports[c.source_index]).collect();

    // Shared string dictionary: first occurrence wins the id.
    let mut sym_ids: FxHashMap<String, u32> = FxHashMap::default();
    let mut symbols: Vec<String> = Vec::new();
    let mut sym = |s: &str| -> u32 {
        if let Some(&id) = sym_ids.get(s) {
            return id;
        }
        let id = symbols.len() as u32;
        symbols.push(s.to_string());
        sym_ids.insert(s.to_string(), id);
        id
    };

    // Encode blocks first; the meta section needs their sizes/checksums.
    let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(n_records.div_ceil(block_size));
    for chunk in records.chunks(block_size) {
        blocks.push(encode_block(chunk, &mut sym));
    }

    // Postings over canonical names, from the cleaned (mined) view. Drug
    // keys are uppercased to match the snapshot's cluster entries; ADR
    // terms are stored verbatim.
    let mut drug_postings: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    let mut adr_postings: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    let mut severity_postings: [Vec<u32>; 7] = Default::default();
    for (tid, cleaned) in result.cleaned.iter().enumerate() {
        let tid = tid as u32;
        for &d in &cleaned.drug_ids {
            let key = drug_vocab.term(d).to_ascii_uppercase();
            drug_postings.entry(key).or_default().push(tid);
        }
        for &a in &cleaned.adr_ids {
            let key = adr_vocab.term(a).to_string();
            adr_postings.entry(key).or_default().push(tid);
        }
        if let Some(o) = cleaned.max_severity {
            severity_postings[o.severity() as usize].push(tid);
        }
    }
    // Tids were appended in ascending order; uppercasing could merge two
    // vocabulary entries onto one key, so normalize defensively.
    for list in drug_postings.values_mut().chain(adr_postings.values_mut()) {
        list.dedup();
    }

    // Case index: sorted (case_id, tid) pairs for /report/CASEID lookups.
    let mut case_index: Vec<(u64, u32)> =
        result.cleaned.iter().enumerate().map(|(tid, c)| (c.case_id, tid as u32)).collect();
    case_index.sort_unstable();

    // Meta section.
    let mut meta = Vec::new();
    put_str(&mut meta, &result.quarter.id.to_string());
    put_u64(&mut meta, n_records as u64);
    put_u32(&mut meta, block_size as u32);
    put_u32(&mut meta, blocks.len() as u32);
    put_u32(&mut meta, symbols.len() as u32);
    for s in &symbols {
        put_str(&mut meta, s);
    }
    for &(case_id, tid) in &case_index {
        put_u64(&mut meta, case_id);
        put_u32(&mut meta, tid);
    }
    put_u32(&mut meta, drug_postings.len() as u32);
    for (key, tids) in &drug_postings {
        put_str(&mut meta, key);
        encode_postings(&mut meta, tids);
    }
    put_u32(&mut meta, adr_postings.len() as u32);
    for (key, tids) in &adr_postings {
        put_str(&mut meta, key);
        encode_postings(&mut meta, tids);
    }
    for tids in &severity_postings {
        encode_postings(&mut meta, tids);
    }
    // Block index: offsets are relative to the start of the data section.
    let mut offset = 0u64;
    for (b, block) in blocks.iter().enumerate() {
        put_u64(&mut meta, offset);
        put_u64(&mut meta, block.len() as u64);
        put_u64(&mut meta, fnv1a(block));
        put_u32(&mut meta, (b * block_size) as u32);
        put_u32(&mut meta, records[b * block_size..].len().min(block_size) as u32);
        offset += block.len() as u64;
    }
    let data_bytes = offset;

    let header = maras_format::header(MAGIC, FORMAT_VERSION, &meta);
    let mut parts: Vec<&[u8]> = vec![&header, &meta];
    parts.extend(blocks.iter().map(Vec::as_slice));
    maras_format::write_atomic(path, &parts)?;
    let file_bytes = (HEADER_LEN + meta.len()) as u64 + data_bytes;

    maras_obs::Event::new(maras_obs::Level::Info, "evidence.build")
        .field("quarter", result.quarter.id.to_string())
        .field("records", n_records)
        .field("blocks", blocks.len())
        .field("file_bytes", file_bytes)
        .emit();
    Ok(ArchiveSummary {
        n_records,
        n_blocks: blocks.len(),
        n_symbols: symbols.len(),
        n_drug_keys: drug_postings.len(),
        n_adr_keys: adr_postings.len(),
        file_bytes,
        data_bytes,
    })
}
