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
//!   max_severity, known, has_novel_adr u8 each
//!   case ids                           u64 count + u64 each
//!   context                            u64 count, then per rule: drug
//!                                      mask u32, support u64, support_a u64
//!   target counts                      support_ab, support_a, support_b,
//!                                      n: u64 each
//!   ebgm, eb05, eb95, posterior_w1     f64 each
//!   interaction, exclusiveness         f64 each
//! ```
//!
//! The file stores nothing it can derive. [`load`] rebuilds every posting
//! index from the clusters through [`Snapshot::from_parts`], the path
//! [`Snapshot::build`] takes, so no index can disagree with the clusters.
//! A contextual rule is a mask over its target's drugs plus its own two
//! counts; its names, consequent support and report count are the
//! target's. The target's 2×2 table is rebuilt from its four counts and
//! the closed-form scores from the table, through the constructor the
//! signal engine scores with ([`SignalScores::from_table_and_ebgm`]), so
//! they come back bit-identical; EBGM, a quantile solve per cluster, is
//! stored. Loading verifies magic, version, length and checksum before
//! touching the payload, and refuses a truncated or bit-flipped file, or
//! counts no report set could produce, with a typed [`FormatError`]
//! instead of yielding a half-parsed snapshot. Saving goes through
//! [`maras_format::write_atomic`], so a crash mid-write never clobbers the
//! previous good snapshot, and a reload that races a save sees either the
//! old file or the new one.

use crate::snapshot::{ClusterEntry, ContextEntry, Snapshot};
use maras_faers::Vocabulary;
use maras_format::{put_f64, put_str, put_u32, put_u64, Cursor, FormatError, Header, HEADER_LEN};
use maras_rules::RuleStats;
use maras_signals::{ContingencyError, ContingencyTable, EbgmScores, SignalScores};
use std::fs;
use std::path::Path;

/// File magic: identifies a MARAS snapshot regardless of extension.
pub const MAGIC: &[u8; 8] = b"MARASNAP";
/// Current on-disk format version. Older versions are refused with
/// [`FormatError::BadVersion`] (the snapshot is cheap to rebuild from the
/// quarter, and guessing at another layout would corrupt query results
/// silently).
pub const FORMAT_VERSION: u32 = 5;

/// Encoded size of a cluster's counts and stored scores: four `u64`
/// target counts and six `f64` scores.
const SCORE_BLOCK_BYTES: usize = 4 * 8 + 6 * 8;
/// The fewest bytes a cluster encodes to: empty name lists, case ids and
/// context.
const MIN_CLUSTER_BYTES: usize = 2 * 8 + 8 + 3 + 2 * 8 + SCORE_BLOCK_BYTES;
/// Encoded size of a contextual rule: its drug mask and two counts.
const CONTEXT_BYTES: usize = 4 + 2 * 8;
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
        out.push(c.max_severity);
        out.push(c.known as u8);
        out.push(c.has_novel_adr as u8);
        put_u64(&mut out, c.case_ids.len() as u64);
        for &id in &c.case_ids {
            put_u64(&mut out, id);
        }
        put_u64(&mut out, c.context.len() as u64);
        for ctx in &c.context {
            put_u32(&mut out, ctx.drug_mask);
            put_u64(&mut out, ctx.support);
            put_u64(&mut out, ctx.support_a);
        }
        let stats = c.stats();
        for count in [stats.support_ab, stats.support_a, stats.support_b, stats.n_transactions] {
            put_u64(&mut out, count);
        }
        let s = &c.scores;
        for score in [
            s.ebgm.ebgm,
            s.ebgm.eb05,
            s.ebgm.eb95,
            s.ebgm.posterior_w1,
            s.interaction,
            s.exclusiveness,
        ] {
            put_f64(&mut out, score);
        }
    }
    out
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
    let max_severity = c.u8()?;
    let known = c.u8()? != 0;
    let has_novel_adr = c.u8()? != 0;
    let n_cases = c.u64()? as usize;
    let case_ids = c.items(n_cases, 8, Cursor::u64)?;
    let n_ctx = c.u64()? as usize;
    // A target with 32 drugs or more can keep any mask.
    let n_drugs = u32::try_from(drugs.len()).unwrap_or(u32::MAX);
    let context = c.items(n_ctx, CONTEXT_BYTES, |c| {
        let drug_mask = c.u32()?;
        if drug_mask.checked_shr(n_drugs).unwrap_or(0) != 0 {
            return Err(FormatError::Corrupt("context drug mask selects a drug its target lacks"));
        }
        Ok(ContextEntry { drug_mask, support: c.u64()?, support_a: c.u64()? })
    })?;
    let stats = RuleStats {
        support_ab: c.u64()?,
        support_a: c.u64()?,
        support_b: c.u64()?,
        n_transactions: c.u64()?,
    };
    let table = ContingencyTable::from_stats(&stats).map_err(|e| {
        FormatError::Corrupt(match e {
            ContingencyError::JointExceedsMarginal { .. } => {
                "target joint support exceeds a marginal"
            }
            ContingencyError::UnionExceedsTotal { .. } => "target supports exceed the report count",
        })
    })?;
    let ebgm =
        EbgmScores { ebgm: c.f64()?, eb05: c.f64()?, eb95: c.f64()?, posterior_w1: c.f64()? };
    let scores = SignalScores::from_table_and_ebgm(table, ebgm)
        .with_interaction(c.f64()?)
        .with_exclusiveness(c.f64()?);
    Ok(ClusterEntry {
        drugs,
        adrs,
        score,
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
        // Score blocks come back bit-exactly (the closed forms recomputed
        // from the table, EBGM as stored), and the rebuilt per-measure
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
    fn refuses_pre_v5_files() {
        let snap = snapshot();
        let dir = std::env::temp_dir().join("maras-store-oldver");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.snap");
        for old in [1u32, 2, 3, 4] {
            save(&snap, &path).unwrap();
            let mut bytes = fs::read(&path).unwrap();
            // A genuine v1–v4 file differs in payload too (v4 stores context
            // names and every score), but version alone must already refuse
            // it — the payload is never parsed.
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            match load(&path) {
                Err(FormatError::BadVersion(v)) => assert_eq!(v, old),
                other => panic!("version {old} accepted: {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Loads `payload` behind a freshly computed header, so the decoder
    /// meets the damage under a valid checksum.
    fn load_payload(payload: &[u8], tag: &str) -> Result<Snapshot, FormatError> {
        let dir = std::env::temp_dir().join(format!("maras-store-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.snap");
        let header = maras_format::header(MAGIC, FORMAT_VERSION, payload);
        fs::write(&path, [&header[..], payload].concat()).unwrap();
        let loaded = load(&path);
        let _ = fs::remove_dir_all(&dir);
        loaded
    }

    /// A snapshot whose last cluster has context rules, encoded.
    fn one_cluster(edit: impl FnOnce(&mut ClusterEntry)) -> Vec<u8> {
        let snap = snapshot();
        let mut cluster = snap.clusters[0].clone();
        assert!(!cluster.context.is_empty());
        edit(&mut cluster);
        encode_snapshot(&Snapshot::from_parts(
            snap.quarter.clone(),
            snap.n_reports,
            snap.drug_vocab().clone(),
            snap.adr_vocab().clone(),
            vec![cluster],
        ))
    }

    #[test]
    fn refuses_a_context_mask_beyond_its_targets_drugs() {
        for bit in [None, Some(31)] {
            let payload = one_cluster(|c| {
                let bit = bit.unwrap_or(c.drugs.len());
                c.context[0].drug_mask |= 1 << bit;
            });
            match load_payload(&payload, "mask") {
                Err(FormatError::Corrupt(msg)) => {
                    assert_eq!(msg, "context drug mask selects a drug its target lacks")
                }
                other => panic!("mask bit {bit:?} accepted: {other:?}"),
            }
        }
        // Every bit below the drug count is a drug of the target.
        let payload = one_cluster(|c| c.context[0].drug_mask = (1 << c.drugs.len()) - 1);
        assert!(load_payload(&payload, "full-mask").is_ok());
    }

    #[test]
    fn refuses_target_counts_no_report_set_could_produce() {
        // The target counts sit right before the six stored scores.
        let counts_at = |payload: &[u8]| payload.len() - 6 * 8 - 4 * 8;
        let cases: [([u64; 4], &str); 4] = [
            ([11, 10, 50, 100], "target joint support exceeds a marginal"),
            ([11, 50, 10, 100], "target joint support exceeds a marginal"),
            ([0, 60, 60, 100], "target supports exceed the report count"),
            ([0, u64::MAX, u64::MAX, u64::MAX], "target supports exceed the report count"),
        ];
        for (counts, want) in cases {
            let mut payload = one_cluster(|_| {});
            let at = counts_at(&payload);
            for (i, count) in counts.iter().enumerate() {
                payload[at + 8 * i..at + 8 * i + 8].copy_from_slice(&count.to_le_bytes());
            }
            match load_payload(&payload, "counts") {
                Err(FormatError::Corrupt(msg)) => assert_eq!(msg, want, "{counts:?}"),
                other => panic!("counts {counts:?} accepted: {other:?}"),
            }
        }
        // Consistent counts load, and the table is rebuilt from them.
        let mut payload = one_cluster(|_| {});
        let at = counts_at(&payload);
        for (i, count) in [10u64, 40, 25, 1000].iter().enumerate() {
            payload[at + 8 * i..at + 8 * i + 8].copy_from_slice(&count.to_le_bytes());
        }
        let loaded = load_payload(&payload, "counts-ok").unwrap();
        let table = loaded.clusters[0].scores.table;
        assert_eq!((table.a, table.b, table.c, table.d), (10, 30, 15, 945));
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
