//! Reading an archive at serve time.
//!
//! [`EvidenceReader::open`] parses and verifies the header + meta section
//! and keeps only the *index* resident (symbol dictionary, case index,
//! postings, block index) — record blocks stay on disk and are paged in
//! through a sharded LRU cache on demand. A full quarter is never
//! materialized in memory.

use crate::metrics::EvidenceMetrics;
use crate::postings::decode_postings;
use crate::record::decode_block;
use crate::{FORMAT_VERSION, MAGIC};
use maras_faers::intern::{IStr, SymbolTable};
use maras_faers::CaseReport;
use maras_format::{Cursor, FormatError, Header, HEADER_LEN};
use maras_tidset::TidSet;
use rustc_hash::FxHashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default decoded-block cache capacity (blocks, not bytes).
pub const DEFAULT_CACHE_BLOCKS: usize = 64;

const N_SHARDS: usize = 8;

/// One cached decoded block plus its last-touched LRU tick.
type CacheEntry = (Arc<Vec<CaseReport>>, u64);

#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    offset: u64, // relative to the data section
    len: u64,
    checksum: u64,
    n: u32,
}

/// Sharded LRU over decoded blocks — same shape as the serve-side response
/// cache: per-shard mutex, monotone tick stamps, evict the stalest entry
/// when a shard fills.
struct BlockCache {
    shards: Vec<Mutex<FxHashMap<usize, CacheEntry>>>,
    per_shard: usize,
    tick: AtomicU64,
}

impl BlockCache {
    fn new(capacity: usize) -> BlockCache {
        let per_shard = capacity.div_ceil(N_SHARDS).max(1);
        BlockCache {
            shards: (0..N_SHARDS).map(|_| Mutex::new(FxHashMap::default())).collect(),
            per_shard,
            tick: AtomicU64::new(0),
        }
    }

    fn shard(&self, block: usize) -> &Mutex<FxHashMap<usize, CacheEntry>> {
        &self.shards[block % N_SHARDS]
    }

    fn get(&self, block: usize) -> Option<Arc<Vec<CaseReport>>> {
        let mut shard = self.shard(block).lock().unwrap_or_else(|e| e.into_inner());
        let entry = shard.get_mut(&block)?;
        entry.1 = self.tick.fetch_add(1, Ordering::Relaxed);
        Some(entry.0.clone())
    }

    fn put(&self, block: usize, reports: Arc<Vec<CaseReport>>) {
        let mut shard = self.shard(block).lock().unwrap_or_else(|e| e.into_inner());
        if shard.len() >= self.per_shard && !shard.contains_key(&block) {
            if let Some((&stalest, _)) = shard.iter().min_by_key(|(_, (_, t))| *t) {
                shard.remove(&stalest);
            }
        }
        shard.insert(block, (reports, self.tick.fetch_add(1, Ordering::Relaxed)));
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len()).sum()
    }
}

/// A verified, open archive: resident index + paged record blocks.
pub struct EvidenceReader {
    file: Mutex<File>,
    data_start: u64,
    quarter: String,
    n_records: usize,
    block_size: usize,
    symbols: Vec<IStr>,
    case_index: Vec<(u64, u32)>,
    drug_postings: Vec<(String, TidSet)>,
    adr_postings: Vec<(String, TidSet)>,
    severity_postings: [TidSet; 7],
    blocks: Vec<BlockMeta>,
    cache: BlockCache,
    metrics: EvidenceMetrics,
}

fn read_exact_or_truncated(f: &mut File, buf: &mut [u8]) -> Result<(), FormatError> {
    f.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FormatError::Truncated
        } else {
            FormatError::Io(e)
        }
    })
}

impl EvidenceReader {
    /// Opens and verifies an archive with the default block-cache size.
    pub fn open(path: &Path) -> Result<EvidenceReader, FormatError> {
        EvidenceReader::open_with_cache(path, DEFAULT_CACHE_BLOCKS)
    }

    /// Opens and verifies an archive, sizing the decoded-block cache.
    pub fn open_with_cache(
        path: &Path,
        cache_blocks: usize,
    ) -> Result<EvidenceReader, FormatError> {
        let _span = maras_obs::span("evidence_open");
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();

        let mut header = [0u8; HEADER_LEN];
        read_exact_or_truncated(&mut file, &mut header)?;
        let header = Header::parse(&header, MAGIC, FORMAT_VERSION)?;
        if header.len > file_len.saturating_sub(HEADER_LEN as u64) {
            return Err(FormatError::Truncated);
        }
        let mut meta = vec![0u8; header.len as usize];
        read_exact_or_truncated(&mut file, &mut meta)?;
        header.verify(&meta, "meta")?;

        let mut c = Cursor::new(&meta);
        let quarter = c.str()?.to_string();
        let n_records = c.u64()? as usize;
        let block_size = c.u32()? as usize;
        if block_size == 0 {
            return Err(FormatError::Corrupt("zero block size"));
        }
        let n_blocks = c.u32()? as usize;
        if n_blocks != n_records.div_ceil(block_size) {
            return Err(FormatError::Corrupt("block count disagrees with record count"));
        }
        let n_symbols = c.u32()? as usize;
        let mut table = SymbolTable::new();
        let symbols = c.items(n_symbols, 4, |c| Ok(table.intern(c.str()?)))?;
        let case_index = c.items(n_records, 12, |c| {
            let case_id = c.u64()?;
            let tid = c.u32()?;
            if tid as usize >= n_records {
                return Err(FormatError::Corrupt("case-index tid out of range"));
            }
            Ok((case_id, tid))
        })?;
        if !case_index.windows(2).all(|w| w[0].0 <= w[1].0) {
            return Err(FormatError::Corrupt("case index not sorted"));
        }
        let postings = |c: &mut Cursor<'_>| -> Result<TidSet, FormatError> {
            let tids = decode_postings(c, n_records)?;
            tids.record_build();
            Ok(tids)
        };
        let keyed_postings = |c: &mut Cursor<'_>| -> Result<Vec<(String, TidSet)>, FormatError> {
            let n = c.u32()? as usize;
            let out = c.items(n, 5, |c| Ok((c.str()?.to_string(), postings(c)?)))?;
            if !out.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(FormatError::Corrupt("postings keys not sorted"));
            }
            Ok(out)
        };
        let drug_postings = keyed_postings(&mut c)?;
        let adr_postings = keyed_postings(&mut c)?;
        let mut severity_postings: [TidSet; 7] = Default::default();
        for list in severity_postings.iter_mut() {
            *list = postings(&mut c)?;
        }
        let data_start = HEADER_LEN as u64 + header.len;
        let data_len = file_len - data_start;
        let mut expected_offset = 0u64;
        let mut expected_first = 0usize;
        let blocks = c.items(n_blocks, 32, |c| {
            let (offset, len, checksum) = (c.u64()?, c.u64()?, c.u64()?);
            let (first_tid, n) = (c.u32()?, c.u32()?);
            if offset != expected_offset
                || first_tid as usize != expected_first
                || n == 0
                || n as usize > block_size
            {
                return Err(FormatError::Corrupt("invalid block index entry"));
            }
            if offset.checked_add(len).is_none_or(|end| end > data_len) {
                return Err(FormatError::Truncated);
            }
            expected_offset = offset + len;
            expected_first += block_size;
            Ok(BlockMeta { offset, len, checksum, n })
        })?;
        if blocks.iter().map(|b| b.n as usize).sum::<usize>() != n_records {
            return Err(FormatError::Corrupt("block record counts disagree with total"));
        }
        if !c.is_exhausted() {
            return Err(FormatError::Corrupt("trailing bytes after meta section"));
        }

        Ok(EvidenceReader {
            file: Mutex::new(file),
            data_start,
            quarter,
            n_records,
            block_size,
            symbols,
            case_index,
            drug_postings,
            adr_postings,
            severity_postings,
            blocks,
            cache: BlockCache::new(cache_blocks),
            metrics: EvidenceMetrics::global(),
        })
    }

    /// Quarter label the archive was built from.
    pub fn quarter(&self) -> &str {
        &self.quarter
    }

    /// Records stored.
    pub fn n_records(&self) -> usize {
        self.n_records
    }

    /// Decoded blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    /// Drops every cached block (hot-reload hygiene; next reads go to disk).
    pub fn clear_cache(&self) {
        for shard in &self.cache.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
        self.metrics.cache_entries.set(self.cache.len() as f64);
    }

    fn postings_for<'a>(sorted: &'a [(String, TidSet)], key: &str) -> Option<&'a TidSet> {
        sorted.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok().map(|i| &sorted[i].1)
    }

    /// The rule cover: tids of every record containing all `drugs` and all
    /// `adrs`, ascending — the postings-intersection equivalent of
    /// `core::link::supporting_tids`, run through the shared k-way
    /// smallest-first kernel. Drug keys are matched uppercased (the
    /// snapshot's spelling); ADR terms verbatim. An unknown key yields an
    /// empty cover; no keys at all covers every record, mirroring the
    /// miner's empty-itemset convention.
    pub fn cover(&self, drugs: &[String], adrs: &[String]) -> Vec<u32> {
        self.metrics.intersections.inc();
        let mut lists: Vec<&TidSet> = Vec::with_capacity(drugs.len() + adrs.len());
        for d in drugs {
            let key = d.to_ascii_uppercase();
            match Self::postings_for(&self.drug_postings, &key) {
                Some(l) => lists.push(l),
                None => return Vec::new(),
            }
        }
        for a in adrs {
            match Self::postings_for(&self.adr_postings, a) {
                Some(l) => lists.push(l),
                None => return Vec::new(),
            }
        }
        if lists.is_empty() {
            return (0..self.n_records as u32).collect();
        }
        TidSet::intersect_k(&lists).to_vec()
    }

    /// Tids whose most severe outcome is at least `min` (severity scale
    /// 0–6), ascending — the union of the matching severity postings.
    pub fn severity_at_least(&self, min: u8) -> Vec<u32> {
        let mut acc = TidSet::new();
        for (_, list) in
            self.severity_postings.iter().enumerate().filter(|&(sev, _)| sev as u8 >= min)
        {
            acc = acc.union(list);
        }
        acc.to_vec()
    }

    fn fetch_block(&self, block: usize) -> Result<Arc<Vec<CaseReport>>, FormatError> {
        if let Some(hit) = self.cache.get(block) {
            self.metrics.cache_hits.inc();
            return Ok(hit);
        }
        self.metrics.cache_misses.inc();
        let meta = self.blocks.get(block).ok_or(FormatError::Corrupt("block out of range"))?;
        let read_start = Instant::now();
        let mut bytes = vec![0u8; meta.len as usize];
        {
            let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
            file.seek(SeekFrom::Start(self.data_start + meta.offset))?;
            read_exact_or_truncated(&mut file, &mut bytes)?;
        }
        self.metrics.block_read_us.observe(read_start.elapsed().as_secs_f64() * 1e6);
        maras_format::verify(&bytes, meta.checksum, format_args!("block {block}"))?;
        let decode_start = Instant::now();
        let reports = Arc::new(decode_block(&bytes, meta.n as usize, &self.symbols)?);
        self.metrics.block_decode_us.observe(decode_start.elapsed().as_secs_f64() * 1e6);
        self.cache.put(block, reports.clone());
        self.metrics.cache_entries.set(self.cache.len() as f64);
        Ok(reports)
    }

    /// Fetches one record by tid.
    pub fn report_by_tid(&self, tid: u32) -> Result<CaseReport, FormatError> {
        if tid as usize >= self.n_records {
            return Err(FormatError::Corrupt("tid out of range"));
        }
        let block = tid as usize / self.block_size;
        let reports = self.fetch_block(block)?;
        Ok(reports[tid as usize % self.block_size].clone())
    }

    /// Tid of a FAERS case id, if the case is in the archive.
    pub fn tid_of_case(&self, case_id: u64) -> Option<u32> {
        self.case_index
            .binary_search_by_key(&case_id, |&(id, _)| id)
            .ok()
            .map(|i| self.case_index[i].1)
    }

    /// Fetches one record by FAERS case id.
    pub fn report_by_case_id(&self, case_id: u64) -> Result<Option<CaseReport>, FormatError> {
        match self.tid_of_case(case_id) {
            None => Ok(None),
            Some(tid) => Ok(Some(self.report_by_tid(tid)?)),
        }
    }

    /// Fetches the records for a page of tids, in the given order.
    pub fn reports_for(&self, tids: &[u32]) -> Result<Vec<CaseReport>, FormatError> {
        tids.iter().map(|&t| self.report_by_tid(t)).collect()
    }
}

/// What `evidence check` verified.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Quarter label.
    pub quarter: String,
    /// Records stored.
    pub n_records: usize,
    /// Blocks verified (checksum + full decode).
    pub n_blocks: usize,
    /// Dictionary size.
    pub n_symbols: usize,
    /// Drug postings keys.
    pub n_drug_keys: usize,
    /// ADR postings keys.
    pub n_adr_keys: usize,
}

/// Verifies an entire archive: header, meta checksum, index invariants and
/// every block's checksum + decode. Returns a typed error on the first
/// problem found — never panics on corrupt input.
pub fn check_archive(path: &Path) -> Result<CheckReport, FormatError> {
    let _span = maras_obs::span("evidence_check");
    let reader = EvidenceReader::open_with_cache(path, 1)?;
    let mut seen = 0usize;
    for block in 0..reader.blocks.len() {
        let reports = reader.fetch_block(block)?;
        seen += reports.len();
    }
    if seen != reader.n_records {
        return Err(FormatError::Corrupt("decoded record count disagrees with meta"));
    }
    Ok(CheckReport {
        quarter: reader.quarter.clone(),
        n_records: reader.n_records,
        n_blocks: reader.blocks.len(),
        n_symbols: reader.symbols.len(),
        n_drug_keys: reader.drug_postings.len(),
        n_adr_keys: reader.adr_postings.len(),
    })
}
