//! Versioned binary snapshot persistence (MARASNAP).
//!
//! A snapshot file is a [`maras_format`] container: the shared 28-byte
//! header (magic `MARASNAP`, [`FORMAT_VERSION`], payload length, FNV-1a
//! checksum), then one checksummed payload. Integers are little-endian and
//! strings carry a `u32` byte length:
//!
//! ```text
//! quarter      str
//! n_reports    u64
//! drug vocab   u64 count, then each term as a str
//! ADR vocab    u64 count, then each term as a str
//! clusters     u64 count, then per cluster in rank order:
//!   drugs, adrs                        u64 count + strs, each
//!   score                              f64
//!   support                            u64
//!   confidence, lift                   f64 each
//!   max_severity, known, has_novel_adr u8 each
//!   case ids                           u64 count + u64 each
//!   context                            u64 count, then per rule: drugs,
//!                                      adrs, support u64, confidence f64,
//!                                      lift f64
//!   score block                        see put_scores
//! ```
//!
//! The file stores nothing it can derive: [`load`] rebuilds every posting
//! index from the clusters through [`Snapshot::from_parts`], the path
//! [`Snapshot::build`] takes, so a loaded snapshot indexes exactly like the
//! one that was saved and no index can disagree with the clusters.
//! Loading verifies magic, version, length and checksum before touching
//! the payload, so a truncated or bit-flipped file is refused with a typed
//! [`FormatError`] instead of yielding a half-parsed snapshot. Saving goes
//! through [`maras_format::write_atomic`], so a crash mid-write never
//! clobbers the previous good snapshot, and a reload that races a save
//! sees either the old file or the new one.

use crate::snapshot::{ClusterEntry, ContextEntry, Snapshot};
use maras_faers::Vocabulary;
use maras_format::{put_f64, put_str, put_u64, Cursor, FormatError, Header, HEADER_LEN};
use maras_signals::{
    ConfidenceInterval, ContingencyTable, EbgmScores, InformationComponent, SignalScores,
};
use std::fs;
use std::path::Path;

/// File magic: identifies a MARAS snapshot regardless of extension.
pub const MAGIC: &[u8; 8] = b"MARASNAP";
/// Current on-disk format version. Version 4 stores no posting indexes
/// (they are rebuilt from the clusters at load) and writes strings behind
/// `u32` lengths. Version 3 serialized the posting indexes as hybrid
/// array/bitmap containers and version 2 appended the per-cluster score
/// block. Older versions are refused with [`FormatError::BadVersion`]
/// (the snapshot is cheap to rebuild from the quarter, and guessing at
/// another layout would corrupt query results silently).
pub const FORMAT_VERSION: u32 = 4;

/// Encoded size of [`put_scores`]' block: four `u64` table cells,
/// seventeen `f64` measures and the Evans flag.
const SCORE_BLOCK_BYTES: usize = 4 * 8 + 17 * 8 + 1;
/// The fewest bytes a cluster encodes to: empty name lists, case ids and
/// context.
const MIN_CLUSTER_BYTES: usize = 2 * 8 + 4 * 8 + 3 + 2 * 8 + SCORE_BLOCK_BYTES;
/// The fewest bytes a context rule encodes to: empty name lists.
const MIN_CONTEXT_BYTES: usize = 2 * 8 + 3 * 8;
/// The fewest bytes a string encodes to: its length.
const MIN_STR_BYTES: usize = 4;

/// Serializes a snapshot and writes it atomically.
pub fn save(snapshot: &Snapshot, path: &Path) -> Result<(), FormatError> {
    let _span = maras_obs::span("snapshot_save");
    let payload = encode_snapshot(snapshot);
    let header = maras_format::header(MAGIC, FORMAT_VERSION, &payload);
    maras_format::write_atomic(path, &[&header, &payload])?;
    Ok(())
}

/// Loads and fully validates a snapshot file, rebuilding every index.
pub fn load(path: &Path) -> Result<Snapshot, FormatError> {
    let _span = maras_obs::span("snapshot_load");
    let bytes = fs::read(path)?;
    let header = Header::parse(&bytes, MAGIC, FORMAT_VERSION)?;
    let payload = &bytes[HEADER_LEN..];
    header.verify(payload, "payload")?;
    decode_snapshot(payload)
}

fn encode_snapshot(s: &Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, &s.quarter);
    put_u64(&mut out, s.n_reports);
    put_vocab(&mut out, s.drug_vocab());
    put_vocab(&mut out, s.adr_vocab());
    put_u64(&mut out, s.clusters.len() as u64);
    for c in &s.clusters {
        put_strs(&mut out, &c.drugs);
        put_strs(&mut out, &c.adrs);
        put_f64(&mut out, c.score);
        put_u64(&mut out, c.support);
        put_f64(&mut out, c.confidence);
        put_f64(&mut out, c.lift);
        out.push(c.max_severity);
        out.push(c.known as u8);
        out.push(c.has_novel_adr as u8);
        put_u64(&mut out, c.case_ids.len() as u64);
        for &id in &c.case_ids {
            put_u64(&mut out, id);
        }
        put_u64(&mut out, c.context.len() as u64);
        for ctx in &c.context {
            put_strs(&mut out, &ctx.drugs);
            put_strs(&mut out, &ctx.adrs);
            put_u64(&mut out, ctx.support);
            put_f64(&mut out, ctx.confidence);
            put_f64(&mut out, ctx.lift);
        }
        put_scores(&mut out, &c.scores);
    }
    out
}

/// Score block: the 2×2 table, every disproportionality measure, and the
/// cluster-level scores, in a fixed field order.
fn put_scores(out: &mut Vec<u8>, s: &SignalScores) {
    put_u64(out, s.table.a);
    put_u64(out, s.table.b);
    put_u64(out, s.table.c);
    put_u64(out, s.table.d);
    put_f64(out, s.rrr);
    put_f64(out, s.prr.estimate);
    put_f64(out, s.prr.lower);
    put_f64(out, s.prr.upper);
    put_f64(out, s.ror.estimate);
    put_f64(out, s.ror.lower);
    put_f64(out, s.ror.upper);
    put_f64(out, s.chi2);
    out.push(s.evans as u8);
    put_f64(out, s.ic.ic);
    put_f64(out, s.ic.ic025);
    put_f64(out, s.ic.ic975);
    put_f64(out, s.ebgm.ebgm);
    put_f64(out, s.ebgm.eb05);
    put_f64(out, s.ebgm.eb95);
    put_f64(out, s.ebgm.posterior_w1);
    put_f64(out, s.interaction);
    put_f64(out, s.exclusiveness);
}

fn put_strs(out: &mut Vec<u8>, ss: &[String]) {
    put_u64(out, ss.len() as u64);
    for s in ss {
        put_str(out, s);
    }
}

fn put_vocab(out: &mut Vec<u8>, v: &Vocabulary) {
    put_u64(out, v.len() as u64);
    for id in 0..v.len() as u32 {
        put_str(out, v.term(id));
    }
}

fn decode_snapshot(payload: &[u8]) -> Result<Snapshot, FormatError> {
    let mut c = Cursor::new(payload);
    let quarter = c.str()?.to_owned();
    let n_reports = c.u64()?;
    let drug_vocab = Vocabulary::from_terms(strs(&mut c)?);
    let adr_vocab = Vocabulary::from_terms(strs(&mut c)?);
    let n_clusters = c.u64()? as usize;
    let clusters = c.items(n_clusters, MIN_CLUSTER_BYTES, cluster)?;
    if !c.is_exhausted() {
        return Err(FormatError::Corrupt("trailing bytes after clusters"));
    }
    Ok(Snapshot::from_parts(quarter, n_reports, drug_vocab, adr_vocab, clusters))
}

/// Mirrors the per-cluster loop of `encode_snapshot` field for field.
fn cluster(c: &mut Cursor<'_>) -> Result<ClusterEntry, FormatError> {
    let drugs = strs(c)?;
    let adrs = strs(c)?;
    let score = c.f64()?;
    let support = c.u64()?;
    let confidence = c.f64()?;
    let lift = c.f64()?;
    let max_severity = c.u8()?;
    let known = c.u8()? != 0;
    let has_novel_adr = c.u8()? != 0;
    let n_cases = c.u64()? as usize;
    let case_ids = c.items(n_cases, 8, Cursor::u64)?;
    let n_ctx = c.u64()? as usize;
    let context = c.items(n_ctx, MIN_CONTEXT_BYTES, |c| {
        Ok(ContextEntry {
            drugs: strs(c)?,
            adrs: strs(c)?,
            support: c.u64()?,
            confidence: c.f64()?,
            lift: c.f64()?,
        })
    })?;
    let scores = scores(c)?;
    Ok(ClusterEntry {
        drugs,
        adrs,
        score,
        support,
        confidence,
        lift,
        max_severity,
        known,
        has_novel_adr,
        case_ids,
        context,
        scores,
    })
}

fn strs(c: &mut Cursor<'_>) -> Result<Vec<String>, FormatError> {
    let n = c.u64()? as usize;
    c.items(n, MIN_STR_BYTES, |c| Ok(c.str()?.to_owned()))
}

/// Mirrors `put_scores` field for field.
fn scores(c: &mut Cursor<'_>) -> Result<SignalScores, FormatError> {
    let table = ContingencyTable { a: c.u64()?, b: c.u64()?, c: c.u64()?, d: c.u64()? };
    let rrr = c.f64()?;
    let prr = ci(c)?;
    let ror = ci(c)?;
    let chi2 = c.f64()?;
    let evans = c.u8()? != 0;
    let ic = InformationComponent { ic: c.f64()?, ic025: c.f64()?, ic975: c.f64()? };
    let ebgm =
        EbgmScores { ebgm: c.f64()?, eb05: c.f64()?, eb95: c.f64()?, posterior_w1: c.f64()? };
    let interaction = c.f64()?;
    let exclusiveness = c.f64()?;
    Ok(SignalScores { table, rrr, prr, ror, chi2, evans, ic, ebgm, interaction, exclusiveness })
}

fn ci(c: &mut Cursor<'_>) -> Result<ConfidenceInterval, FormatError> {
    Ok(ConfidenceInterval { estimate: c.f64()?, lower: c.f64()?, upper: c.f64()? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_core::{Pipeline, PipelineConfig, RuleQuery};
    use maras_faers::{QuarterId, SynthConfig, Synthesizer};

    fn snapshot() -> Snapshot {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(57));
        let quarter = synth.generate_quarter(QuarterId::new(2015, 3));
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
        Snapshot::build("2015 Q3", &result, &dv, &av, None)
    }

    #[test]
    fn roundtrip_preserves_clusters_and_queries() {
        let snap = snapshot();
        let dir = std::env::temp_dir().join("maras-store-roundtrip");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.snap");
        // A neighbour that happens to share the snapshot's stem is not
        // the save's temp file.
        let sibling = dir.join("q.tmp");
        fs::write(&sibling, b"not the snapshot's").unwrap();
        save(&snap, &path).unwrap();
        assert_eq!(fs::read(&sibling).unwrap(), b"not the snapshot's");
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.quarter, snap.quarter);
        assert_eq!(loaded.n_reports, snap.n_reports);
        assert_eq!(loaded.clusters, snap.clusters);
        // The posting indexes are rebuilt at load, not stored, and come
        // out identical to the built snapshot's.
        assert_eq!(loaded.drug_index, snap.drug_index);
        assert_eq!(loaded.adr_index, snap.adr_index);
        assert_eq!(loaded.severity_at_least, snap.severity_at_least);
        assert_eq!(loaded.n_drugs_index, snap.n_drugs_index);
        let q = RuleQuery::new().with_min_severity(3);
        assert_eq!(loaded.query(&q), snap.query(&q));
        // Score blocks survive bit-exactly, and the rebuilt per-measure
        // indexes answer score filters and sorts identically.
        for (a, b) in loaded.clusters.iter().zip(&snap.clusters) {
            assert_eq!(a.scores, b.scores);
        }
        let q = RuleQuery::new().with_min_prr(2.0).with_min_ror(1.5);
        assert_eq!(loaded.query(&q), snap.query(&q));
        let all = snap.query(&RuleQuery::new());
        for sort_by in [crate::snapshot::SortBy::Prr, crate::snapshot::SortBy::Ebgm] {
            assert_eq!(
                loaded.sort_ranks(all.clone(), sort_by),
                snap.sort_ranks(all.clone(), sort_by)
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_pre_v4_files() {
        let snap = snapshot();
        let dir = std::env::temp_dir().join("maras-store-oldver");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.snap");
        for old in [1u32, 2, 3] {
            save(&snap, &path).unwrap();
            let mut bytes = fs::read(&path).unwrap();
            // A genuine v1–v3 file differs in payload too (u64 string
            // lengths; v3 also stores posting-index sections), but version
            // alone must already refuse it — the payload is never parsed.
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            match load(&path) {
                Err(FormatError::BadVersion(v)) => assert_eq!(v, old),
                other => panic!("version {old} accepted: {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_bad_magic_version_truncation_and_bitflips() {
        let snap = snapshot();
        let dir = std::env::temp_dir().join("maras-store-refuse");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.snap");
        save(&snap, &path).unwrap();
        let good = fs::read(&path).unwrap();

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(load(&path), Err(FormatError::BadMagic)));

        let mut bad = good.clone();
        bad[8] = 99;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(load(&path), Err(FormatError::BadVersion(99))));

        fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(matches!(load(&path), Err(FormatError::Truncated)));

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(load(&path), Err(FormatError::ChecksumMismatch { .. })));

        fs::write(&path, &good).unwrap();
        assert!(load(&path).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}
