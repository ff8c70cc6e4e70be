//! Data preparation and cleaning (thesis §5.2, step 1): "We extracted the
//! drugs and ADRs from FAERS reports and merged them for each single case.
//! We performed some preliminary cleaning on drug names and ADRs to remove
//! duplication and correct misspellings."
//!
//! Concretely this stage:
//!
//! 1. de-duplicates case versions — follow-ups share a `case_id`; the
//!    highest version wins;
//! 2. normalizes verbatim drug strings: uppercasing, dosage/formulation
//!    token stripping, then exact → fuzzy (symmetric-delete index, edit
//!    distance ≤ 2) matching against the canonical drug vocabulary;
//! 3. canonicalizes reaction terms: case-folded exact match, then fuzzy
//!    matching against the ADR vocabulary;
//! 4. abstracts each surviving case into its (drug-id set, ADR-id set) pair,
//!    keeping a pointer back to the source report for drill-down (§4.1). A
//!    case left with no drug or no reaction is dropped: it cannot support
//!    a drug ⇒ ADR rule.

use crate::model::{CaseReport, Outcome};
use crate::quarter::QuarterData;
use crate::vocab::Vocabulary;
use rustc_hash::FxHashMap;

/// Configuration of the cleaning stage.
#[derive(Debug, Clone)]
pub struct CleanConfig {
    /// Maximum Levenshtein distance for spelling correction (0 disables
    /// fuzzy matching). The spelling index serves distances up to 2, so a
    /// larger value corrects as 2 does.
    pub max_edit_distance: usize,
    /// Memoize canonicalization per raw string. Raw FAERS strings are
    /// wildly repetitive, so most mentions replay a cached verdict instead
    /// of re-running normalization + the fuzzy lookup. Output and the
    /// legacy stats counters are identical either way (differential-
    /// tested); only the `*_cache_*` counters depend on this flag.
    pub memoize: bool,
}

impl Default for CleanConfig {
    fn default() -> Self {
        CleanConfig { max_edit_distance: 2, memoize: true }
    }
}

/// A cleaned, abstracted case: canonical drug and ADR id sets plus a link
/// back to the raw report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CleanedReport {
    /// FAERS case id.
    pub case_id: u64,
    /// Canonical drug ids, sorted, de-duplicated.
    pub drug_ids: Vec<u32>,
    /// Canonical ADR ids, sorted, de-duplicated.
    pub adr_ids: Vec<u32>,
    /// Whether the case is serious (≥ 1 severe outcome).
    pub serious: bool,
    /// Most severe outcome, if any.
    pub max_severity: Option<Outcome>,
    /// Index of the kept version inside the source `QuarterData::reports`.
    pub source_index: usize,
}

/// Counters describing what cleaning did (§5.3-style at-a-glance numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleaningStats {
    /// Raw reports in.
    pub input_reports: usize,
    /// Follow-up versions removed by case de-duplication.
    pub deduplicated_versions: usize,
    /// Cleaned reports out.
    pub output_reports: usize,
    /// Reports dropped for keeping no drug or no reaction after matching.
    pub dropped_sparse: usize,
    /// Drug mentions processed.
    pub drug_mentions: usize,
    /// Drug mentions resolved only by fuzzy matching (a spelling fix).
    pub corrected_drugs: usize,
    /// Drug mentions that matched no canonical name and were dropped.
    pub unmatched_drugs: usize,
    /// Reaction mentions processed.
    pub adr_mentions: usize,
    /// Reaction mentions resolved only by fuzzy / case-folded matching.
    pub corrected_adrs: usize,
    /// Reaction mentions that matched no canonical term and were dropped.
    pub unmatched_adrs: usize,
    /// Drug mentions answered by the canonicalization memo.
    pub drug_cache_hits: usize,
    /// Drug mentions that ran full normalization + fuzzy resolution.
    pub drug_cache_misses: usize,
    /// Reaction mentions answered by the canonicalization memo.
    pub adr_cache_hits: usize,
    /// Reaction mentions that ran full resolution.
    pub adr_cache_misses: usize,
}

impl CleaningStats {
    /// These stats with the memo counters zeroed. Cleaning output and the
    /// legacy counters are identical with memoization on or off; only the
    /// cache counters may differ, so comparisons across the two paths go
    /// through this.
    pub fn without_cache_counters(mut self) -> Self {
        self.drug_cache_hits = 0;
        self.drug_cache_misses = 0;
        self.adr_cache_hits = 0;
        self.adr_cache_misses = 0;
        self
    }

    /// Field-wise sum of these stats and another quarter's, for run-level
    /// rollups across a shared-[`Cleaner`] multi-quarter run.
    pub fn merged(&self, other: &Self) -> Self {
        CleaningStats {
            input_reports: self.input_reports + other.input_reports,
            deduplicated_versions: self.deduplicated_versions + other.deduplicated_versions,
            output_reports: self.output_reports + other.output_reports,
            dropped_sparse: self.dropped_sparse + other.dropped_sparse,
            drug_mentions: self.drug_mentions + other.drug_mentions,
            corrected_drugs: self.corrected_drugs + other.corrected_drugs,
            unmatched_drugs: self.unmatched_drugs + other.unmatched_drugs,
            adr_mentions: self.adr_mentions + other.adr_mentions,
            corrected_adrs: self.corrected_adrs + other.corrected_adrs,
            unmatched_adrs: self.unmatched_adrs + other.unmatched_adrs,
            drug_cache_hits: self.drug_cache_hits + other.drug_cache_hits,
            drug_cache_misses: self.drug_cache_misses + other.drug_cache_misses,
            adr_cache_hits: self.adr_cache_hits + other.adr_cache_hits,
            adr_cache_misses: self.adr_cache_misses + other.adr_cache_misses,
        }
    }

    /// Fraction of drug + ADR mentions answered by the memo, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.drug_cache_hits + self.adr_cache_hits;
        let total = hits + self.drug_cache_misses + self.adr_cache_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Formulation / dosage tokens stripped from verbatim drug strings.
const FORMULATION_TOKENS: &[&str] = &[
    "TABLET",
    "TABLETS",
    "TAB",
    "TABS",
    "CAPSULE",
    "CAPSULES",
    "CAP",
    "CAPS",
    "INJECTION",
    "INJ",
    "ORAL",
    "SOLUTION",
    "SUSPENSION",
    "CREAM",
    "GEL",
    "PATCH",
    "SYRUP",
    "DROPS",
    "SPRAY",
    "ER",
    "XR",
    "SR",
    "CR",
    "HCL",
    "HCT",
    "SODIUM",
    "CALCIUM",
    "POTASSIUM",
    "UNKNOWN",
    "NOS",
    "MG",
    "MCG",
    "ML",
    "IU",
];

/// Dosage unit spellings (the alphabetic residue of tokens like `10MG`,
/// `2.5MG`, `100MCG`, `5ML`, `40IU`, `10MG/ML`).
const DOSAGE_UNITS: &[&str] = &["", "MG", "MCG", "ML", "G", "IU", "MGML", "MCGML"];

fn is_dosage_token(tok: &str) -> bool {
    if tok.chars().all(|c| c.is_ascii_digit()) && !tok.is_empty() {
        return true;
    }
    // e.g. 10MG, 2.5MG, 100MCG, 5ML, 40IU, 0.5%, 10MG/ML
    let mut digits = 0usize;
    for c in tok.chars() {
        if c.is_ascii_digit() {
            digits += 1;
        }
    }
    if digits == 0 {
        return false;
    }
    let alpha = || tok.chars().filter(|c| c.is_ascii_alphabetic());
    DOSAGE_UNITS.iter().any(|u| alpha().eq(u.chars())) || tok.ends_with('%')
}

/// Normalizes a verbatim drug string: uppercase, collapse whitespace, and
/// strip dosage / formulation tokens.
pub fn normalize_drug_string(raw: &str) -> String {
    let mut out = String::new();
    normalize_drug_string_into(raw, &mut out);
    out
}

/// [`normalize_drug_string`] into a reused buffer: one pass, appending
/// each uppercased token and truncating it back off when it turns out to
/// be a dosage / formulation token.
fn normalize_drug_string_into(raw: &str, out: &mut String) {
    out.clear();
    for tok in raw.split_whitespace() {
        let sep_start = out.len();
        if !out.is_empty() {
            out.push(' ');
        }
        let tok_start = out.len();
        for c in tok.chars() {
            out.push(c.to_ascii_uppercase());
        }
        let up = &out[tok_start..];
        if is_dosage_token(up) || FORMULATION_TOKENS.contains(&up) {
            out.truncate(sep_start);
        }
    }
    if out.is_empty() {
        // A pure-dosage string: fall back to the collapsed original.
        for tok in raw.split_whitespace() {
            if !out.is_empty() {
                out.push(' ');
            }
            for c in tok.chars() {
                out.push(c.to_ascii_uppercase());
            }
        }
    }
}

/// Collapses runs of whitespace to single spaces into a reused buffer
/// (the single-pass replacement for `split_whitespace().collect().join()`).
fn collapse_whitespace_into(raw: &str, out: &mut String) {
    out.clear();
    for tok in raw.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(tok);
    }
}

/// Runs the cleaning pipeline over a quarter with a fresh [`Cleaner`].
///
/// When cleaning several quarters against the same vocabularies (a year
/// run), construct one [`Cleaner`] and call
/// [`Cleaner::clean_quarter`] per quarter instead: the canonicalization
/// memos carry over, so repeated raw strings pay the fuzzy vocabulary
/// search only once per run rather than once per quarter.
pub fn clean_quarter(
    quarter: &QuarterData,
    drug_vocab: &Vocabulary,
    adr_vocab: &Vocabulary,
    config: &CleanConfig,
) -> (Vec<CleanedReport>, CleaningStats) {
    Cleaner::new(drug_vocab, adr_vocab, config.clone()).clean_quarter(quarter)
}

/// Reusable cleaning state: vocabularies, the case-folded ADR index,
/// the canonicalization memos, and reused scratch buffers.
///
/// The memos are keyed on the *raw* string and store the full verdict —
/// canonical id (or none) plus whether resolving it counted as a
/// correction — so replaying a hit updates every stats counter exactly as
/// the uncached path would. A memo entry depends only on the vocabularies
/// and config (both fixed for the cleaner's lifetime), never on the
/// quarter, so one cleaner may be shared across every quarter of a run:
/// output is identical to cleaning each quarter with a fresh cleaner, and
/// statistics stay per-call.
#[derive(Debug)]
pub struct Cleaner<'a> {
    drug_vocab: &'a Vocabulary,
    adr_vocab: &'a Vocabulary,
    folded_adrs: FxHashMap<String, u32>,
    config: CleanConfig,
    drug_memo: FxHashMap<Box<str>, Option<(u32, bool)>>,
    /// Second-level memo keyed on the *normalized* drug string, gating the
    /// fuzzy lookup: dosage/case variants of one misspelling normalize to
    /// the same string, so only the first pays the fuzzy search. Stores
    /// the `(id, distance)` the vocabulary returned.
    drug_norm_memo: FxHashMap<Box<str>, Option<(u32, usize)>>,
    adr_memo: FxHashMap<Box<str>, Option<(u32, bool)>>,
    buf: String,
    folded_buf: String,
}

impl<'a> Cleaner<'a> {
    /// Builds a cleaner over the given vocabularies, including the
    /// case-folded exact index for ADR terms.
    pub fn new(drug_vocab: &'a Vocabulary, adr_vocab: &'a Vocabulary, config: CleanConfig) -> Self {
        let folded_adrs: FxHashMap<String, u32> =
            adr_vocab.iter().map(|(id, t)| (t.to_ascii_lowercase(), id)).collect();
        Cleaner {
            drug_vocab,
            adr_vocab,
            folded_adrs,
            config,
            drug_memo: FxHashMap::default(),
            drug_norm_memo: FxHashMap::default(),
            adr_memo: FxHashMap::default(),
            buf: String::new(),
            folded_buf: String::new(),
        }
    }

    /// The drug vocabulary this cleaner resolves against.
    pub fn drug_vocab(&self) -> &'a Vocabulary {
        self.drug_vocab
    }

    /// The ADR vocabulary this cleaner resolves against.
    pub fn adr_vocab(&self) -> &'a Vocabulary {
        self.adr_vocab
    }

    /// The active cleaning configuration.
    pub fn config(&self) -> &CleanConfig {
        &self.config
    }

    /// Runs the cleaning pipeline over one quarter.
    ///
    /// Statistics cover this call only; the canonicalization memos persist
    /// across calls (see the type-level docs for why that is sound).
    pub fn clean_quarter(&mut self, quarter: &QuarterData) -> (Vec<CleanedReport>, CleaningStats) {
        let _span = maras_obs::span("clean");
        let mut stats =
            CleaningStats { input_reports: quarter.reports.len(), ..Default::default() };

        // 1. Case de-duplication: keep the highest version per case id
        //    (later index wins ties, matching FAERS "latest row wins"
        //    guidance).
        let mut latest: FxHashMap<u64, usize> = FxHashMap::default();
        for (idx, r) in quarter.reports.iter().enumerate() {
            match latest.entry(r.case_id) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(idx);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    stats.deduplicated_versions += 1;
                    if quarter.reports[*e.get()].version <= r.version {
                        e.insert(idx);
                    }
                }
            }
        }
        let mut kept: Vec<usize> = latest.into_values().collect();
        kept.sort_unstable();

        let mut out = Vec::with_capacity(kept.len());
        for idx in kept {
            let report = &quarter.reports[idx];
            let (drug_ids, adr_ids) = self.clean_one(report, &mut stats);
            if drug_ids.is_empty() || adr_ids.is_empty() {
                stats.dropped_sparse += 1;
                continue;
            }
            out.push(CleanedReport {
                case_id: report.case_id,
                drug_ids,
                adr_ids,
                serious: report.is_serious(),
                max_severity: report.max_severity(),
                source_index: idx,
            });
        }
        stats.output_reports = out.len();
        maras_obs::counter("maras_clean_reports_total", "cleaned reports emitted")
            .add(out.len() as u64);
        maras_obs::counter("maras_clean_cache_hits_total", "canonicalization memo hits")
            .add((stats.drug_cache_hits + stats.adr_cache_hits) as u64);
        maras_obs::counter("maras_clean_cache_misses_total", "canonicalization memo misses")
            .add((stats.drug_cache_misses + stats.adr_cache_misses) as u64);
        (out, stats)
    }

    fn clean_one(
        &mut self,
        report: &CaseReport,
        stats: &mut CleaningStats,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut drug_ids: Vec<u32> = Vec::with_capacity(report.drugs.len());
        for entry in &report.drugs {
            stats.drug_mentions += 1;
            match self.resolve_drug(&entry.name, stats) {
                Some((id, corrected)) => {
                    if corrected {
                        stats.corrected_drugs += 1;
                    }
                    drug_ids.push(id);
                }
                None => stats.unmatched_drugs += 1,
            }
        }
        drug_ids.sort_unstable();
        drug_ids.dedup();

        let mut adr_ids: Vec<u32> = Vec::with_capacity(report.reactions.len());
        for raw in &report.reactions {
            stats.adr_mentions += 1;
            match self.resolve_adr(raw, stats) {
                Some((id, corrected)) => {
                    if corrected {
                        stats.corrected_adrs += 1;
                    }
                    adr_ids.push(id);
                }
                None => stats.unmatched_adrs += 1,
            }
        }
        adr_ids.sort_unstable();
        adr_ids.dedup();

        (drug_ids, adr_ids)
    }

    fn resolve_drug(&mut self, raw: &str, stats: &mut CleaningStats) -> Option<(u32, bool)> {
        if !self.config.memoize {
            return self.resolve_drug_uncached(raw);
        }
        if let Some(&verdict) = self.drug_memo.get(raw) {
            stats.drug_cache_hits += 1;
            return verdict;
        }
        stats.drug_cache_misses += 1;
        normalize_drug_string_into(raw, &mut self.buf);
        let nearest = match self.drug_norm_memo.get(self.buf.as_str()) {
            Some(&hit) => hit,
            None => {
                let computed = self.drug_vocab.nearest(&self.buf, self.config.max_edit_distance);
                self.drug_norm_memo.insert(self.buf.as_str().into(), computed);
                computed
            }
        };
        let verdict = match nearest {
            Some((id, 0)) => Some((id, self.buf != raw)),
            Some((id, _)) => Some((id, true)),
            None => None,
        };
        self.drug_memo.insert(raw.into(), verdict);
        verdict
    }

    fn resolve_drug_uncached(&mut self, raw: &str) -> Option<(u32, bool)> {
        normalize_drug_string_into(raw, &mut self.buf);
        match self.drug_vocab.nearest(&self.buf, self.config.max_edit_distance) {
            // Exact match still counts as a correction when normalization
            // changed the string (dosage strip, case fix).
            Some((id, 0)) => Some((id, self.buf != raw)),
            Some((id, _)) => Some((id, true)),
            None => None,
        }
    }

    fn resolve_adr(&mut self, raw: &str, stats: &mut CleaningStats) -> Option<(u32, bool)> {
        if !self.config.memoize {
            return self.resolve_adr_uncached(raw);
        }
        if let Some(&verdict) = self.adr_memo.get(raw) {
            stats.adr_cache_hits += 1;
            return verdict;
        }
        stats.adr_cache_misses += 1;
        let verdict = self.resolve_adr_uncached(raw);
        self.adr_memo.insert(raw.into(), verdict);
        verdict
    }

    fn resolve_adr_uncached(&mut self, raw: &str) -> Option<(u32, bool)> {
        collapse_whitespace_into(raw, &mut self.buf);
        if let Some(id) = self.adr_vocab.id_of(&self.buf) {
            return Some((id, false));
        }
        self.folded_buf.clear();
        self.folded_buf.push_str(&self.buf);
        self.folded_buf.make_ascii_lowercase();
        if let Some(&id) = self.folded_adrs.get(&self.folded_buf) {
            return Some((id, true));
        }
        self.adr_vocab.nearest(&self.buf, self.config.max_edit_distance).map(|(id, _)| (id, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DrugEntry, DrugRole, ReportType, Sex};
    use crate::quarter::QuarterId;

    fn report(case_id: u64, version: u32, drugs: &[&str], adrs: &[&str]) -> CaseReport {
        CaseReport {
            case_id,
            version,
            report_type: ReportType::Expedited,
            age: None,
            sex: Sex::Unknown,
            weight_kg: None,
            country: "US".into(),
            event_date: None,
            drugs: drugs.iter().map(|d| DrugEntry::new(*d, DrugRole::PrimarySuspect)).collect(),
            reactions: adrs.iter().map(|&a| a.into()).collect(),
            outcomes: vec![Outcome::Hospitalization],
        }
    }

    fn quarter(reports: Vec<CaseReport>) -> QuarterData {
        QuarterData { id: QuarterId::new(2014, 1), reports }
    }

    fn vocabs() -> (Vocabulary, Vocabulary) {
        (Vocabulary::drugs(150), Vocabulary::adrs(120))
    }

    #[test]
    fn normalize_strips_dosage_and_formulation() {
        assert_eq!(normalize_drug_string("Ibuprofen 200mg Tablet"), "IBUPROFEN");
        assert_eq!(normalize_drug_string("warfarin  sodium 5 MG"), "WARFARIN");
        assert_eq!(normalize_drug_string("NEXIUM 40MG CAPSULES"), "NEXIUM");
        assert_eq!(normalize_drug_string("ASPIRIN"), "ASPIRIN");
        assert_eq!(normalize_drug_string("aspirin  81mg"), "ASPIRIN");
    }

    #[test]
    fn normalize_pure_dosage_string_falls_back() {
        assert_eq!(normalize_drug_string("10MG TABLET"), "10MG TABLET");
    }

    #[test]
    fn exact_and_fuzzy_drug_matching() {
        let (dv, av) = vocabs();
        let q = quarter(vec![report(
            1,
            1,
            &["IBUPROFEN", "METAMIZOLE 500MG", "IBUPROFFEN", "XQZWJK"],
            &["Acute renal failure"],
        )]);
        let (cleaned, stats) = clean_quarter(&q, &dv, &av, &CleanConfig::default());
        assert_eq!(cleaned.len(), 1);
        let names: Vec<&str> = cleaned[0].drug_ids.iter().map(|&id| dv.term(id)).collect();
        // IBUPROFEN appears once despite exact + typo duplicates.
        assert_eq!(names.iter().filter(|n| **n == "IBUPROFEN").count(), 1, "names: {names:?}");
        assert!(names.contains(&"METAMIZOLE"));
        assert_eq!(stats.unmatched_drugs, 1); // XQZWJK
        assert!(stats.corrected_drugs >= 2); // dosage strip + typo fix
    }

    #[test]
    fn adr_case_folding_and_typos() {
        let (dv, av) = vocabs();
        let q = quarter(vec![report(
            1,
            1,
            &["ASPIRIN"],
            &["acute renal failure", "OSTEOPOROSIS", "Naussea", "Zzzz-not-a-term"],
        )]);
        let (cleaned, stats) = clean_quarter(&q, &dv, &av, &CleanConfig::default());
        let terms: Vec<&str> = cleaned[0].adr_ids.iter().map(|&id| av.term(id)).collect();
        assert!(terms.contains(&"Acute renal failure"), "{terms:?}");
        assert!(terms.contains(&"Osteoporosis"), "{terms:?}");
        assert!(terms.contains(&"Nausea"), "{terms:?}");
        assert_eq!(stats.unmatched_adrs, 1);
    }

    #[test]
    fn followup_versions_deduplicated_keeping_latest() {
        let (dv, av) = vocabs();
        let q = quarter(vec![
            report(42, 1, &["ASPIRIN"], &["Nausea"]),
            report(42, 3, &["ASPIRIN", "WARFARIN"], &["Haemorrhage"]),
            report(42, 2, &["ASPIRIN"], &["Headache"]),
            report(43, 1, &["NEXIUM"], &["Osteoporosis"]),
        ]);
        let (cleaned, stats) = clean_quarter(&q, &dv, &av, &CleanConfig::default());
        assert_eq!(stats.deduplicated_versions, 2);
        assert_eq!(cleaned.len(), 2);
        let c42 = cleaned.iter().find(|c| c.case_id == 42).unwrap();
        assert_eq!(c42.source_index, 1); // version 3
        assert_eq!(c42.drug_ids.len(), 2);
        let terms: Vec<&str> = c42.adr_ids.iter().map(|&id| av.term(id)).collect();
        assert_eq!(terms, vec!["Haemorrhage"]);
    }

    #[test]
    fn sparse_reports_dropped() {
        let (dv, av) = vocabs();
        let q = quarter(vec![
            report(1, 1, &["NOTADRUGATALLXYZQ"], &["Nausea"]), // no drug survives
            report(2, 1, &["ASPIRIN"], &[]),                   // no reactions
            report(3, 1, &["ASPIRIN"], &["Nausea"]),
        ]);
        let (cleaned, stats) = clean_quarter(&q, &dv, &av, &CleanConfig::default());
        assert_eq!(cleaned.len(), 1);
        assert_eq!(cleaned[0].case_id, 3);
        assert_eq!(stats.dropped_sparse, 2);
        assert_eq!(stats.output_reports, 1);
    }

    #[test]
    fn fuzzy_disabled_with_zero_distance() {
        let (dv, av) = vocabs();
        let q = quarter(vec![report(1, 1, &["IBUPROFFEN", "ASPIRIN"], &["Nausea"])]);
        let cfg = CleanConfig { max_edit_distance: 0, ..Default::default() };
        let (cleaned, stats) = clean_quarter(&q, &dv, &av, &cfg);
        assert_eq!(stats.unmatched_drugs, 1);
        assert_eq!(cleaned[0].drug_ids.len(), 1);
    }

    #[test]
    fn drug_ids_sorted_and_unique() {
        let (dv, av) = vocabs();
        let q = quarter(vec![report(
            1,
            1,
            &["WARFARIN", "ASPIRIN", "WARFARIN 5MG", "aspirin"],
            &["Haemorrhage", "haemorrhage"],
        )]);
        let (cleaned, _) = clean_quarter(&q, &dv, &av, &CleanConfig::default());
        let ids = &cleaned[0].drug_ids;
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        assert_eq!(ids.len(), 2);
        assert_eq!(cleaned[0].adr_ids.len(), 1);
    }

    #[test]
    fn memoized_cleaning_matches_uncached() {
        let (dv, av) = vocabs();
        // Heavy repetition across reports so the memo actually gets hits,
        // plus typos/dosage noise so every resolution path is exercised.
        let mut reports = Vec::new();
        for i in 0..40u64 {
            reports.push(report(
                i + 1,
                1,
                &["IBUPROFEN 200MG", "IBUPROFFEN", "warfarin  sodium 5 MG", "XQZWJK"],
                &["acute renal failure", "Naussea", "OSTEOPOROSIS", "Zzzz-not-a-term"],
            ));
        }
        let q = quarter(reports);
        let cached_cfg = CleanConfig::default();
        let uncached_cfg = CleanConfig { memoize: false, ..Default::default() };
        let (cleaned_c, stats_c) = clean_quarter(&q, &dv, &av, &cached_cfg);
        let (cleaned_u, stats_u) = clean_quarter(&q, &dv, &av, &uncached_cfg);
        assert_eq!(cleaned_c, cleaned_u);
        assert_eq!(stats_c.without_cache_counters(), stats_u.without_cache_counters());
        // The uncached path never touches the memo.
        assert_eq!(stats_u.drug_cache_hits + stats_u.drug_cache_misses, 0);
        assert_eq!(stats_u.adr_cache_hits + stats_u.adr_cache_misses, 0);
        // The cached path: 4 unique strings per vocabulary, rest are hits.
        assert_eq!(stats_c.drug_cache_misses, 4);
        assert_eq!(stats_c.drug_cache_hits, 40 * 4 - 4);
        assert_eq!(stats_c.adr_cache_misses, 4);
        assert_eq!(stats_c.adr_cache_hits, 40 * 4 - 4);
        assert!(stats_c.cache_hit_rate() > 0.9, "{}", stats_c.cache_hit_rate());
    }

    #[test]
    fn shared_cleaner_across_quarters_matches_fresh_per_quarter() {
        let (dv, av) = vocabs();
        let make = |offset: u64| {
            let mut reports = Vec::new();
            for i in 0..12u64 {
                reports.push(report(
                    offset + i + 1,
                    1,
                    &["IBUPROFEN 200MG", "IBUPROFFEN", "warfarin  sodium 5 MG"],
                    &["acute renal failure", "Naussea"],
                ));
            }
            quarter(reports)
        };
        let (q1, q2) = (make(0), make(100));

        let mut shared = Cleaner::new(&dv, &av, CleanConfig::default());
        let (s1, st1) = shared.clean_quarter(&q1);
        let (s2, st2) = shared.clean_quarter(&q2);
        let (f1, ft1) = clean_quarter(&q1, &dv, &av, &CleanConfig::default());
        let (f2, ft2) = clean_quarter(&q2, &dv, &av, &CleanConfig::default());

        // Memo entries depend only on the vocabularies and config, so the
        // carried-over memo cannot change the output...
        assert_eq!(s1, f1);
        assert_eq!(s2, f2);
        assert_eq!(st1.without_cache_counters(), ft1.without_cache_counters());
        assert_eq!(st2.without_cache_counters(), ft2.without_cache_counters());
        assert_eq!(st1, ft1); // first quarter: memo started empty either way
                              // ...but the second quarter resolves every string from the memo.
        assert_eq!(st2.drug_cache_misses, 0);
        assert_eq!(st2.adr_cache_misses, 0);
        assert_eq!(st2.drug_cache_hits, 12 * 3);
        assert_eq!(st2.adr_cache_hits, 12 * 2);
    }

    #[test]
    fn without_cache_counters_zeroes_only_cache_fields() {
        let stats = CleaningStats {
            drug_mentions: 7,
            drug_cache_hits: 5,
            drug_cache_misses: 2,
            adr_cache_hits: 3,
            adr_cache_misses: 1,
            ..Default::default()
        };
        let wiped = stats.without_cache_counters();
        assert_eq!(wiped.drug_mentions, 7);
        assert_eq!(wiped.drug_cache_hits, 0);
        assert_eq!(wiped.drug_cache_misses, 0);
        assert_eq!(wiped.adr_cache_hits, 0);
        assert_eq!(wiped.adr_cache_misses, 0);
    }

    #[test]
    fn empty_quarter_cache_hit_rate_is_zero() {
        let stats = CleaningStats::default();
        assert_eq!(stats.cache_hit_rate(), 0.0);
    }

    #[test]
    fn serious_flag_carries_through() {
        let (dv, av) = vocabs();
        let mut r = report(1, 1, &["ASPIRIN"], &["Nausea"]);
        r.outcomes = vec![Outcome::Death];
        let q = quarter(vec![r]);
        let (cleaned, _) = clean_quarter(&q, &dv, &av, &CleanConfig::default());
        assert!(cleaned[0].serious);
        assert_eq!(cleaned[0].max_severity, Some(Outcome::Death));
    }
}
