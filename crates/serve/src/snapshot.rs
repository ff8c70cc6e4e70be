//! The immutable serving snapshot: a denormalized, indexed view of one
//! mined quarter.
//!
//! A [`Snapshot`] is built once from an [`AnalysisResult`] (plus the
//! vocabularies and an optional knowledge base) and is immutable
//! thereafter: the server shares it between worker threads as a plain
//! `Arc<Snapshot>` and hot-swaps whole snapshots instead of mutating one.
//! Every [`RuleQuery`] dispatches through inverted-index intersection
//! ([`Snapshot::query`]) instead of the legacy full scan, with results
//! guaranteed identical to [`RuleQuery::apply`] — the parity the
//! integration tests pin down.

use maras_core::link::{max_severity, supporting_case_ids, target_covers};
use maras_core::pipeline::AnalysisResult;
use maras_core::{KnowledgeBase, RuleQuery};
use maras_faers::Vocabulary;
use maras_rules::{ContextRule, RuleStats};
use maras_signals::{RankKey, SignalScores};
use maras_tidset::TidSet;
use rustc_hash::FxHashMap;
use serde_json::Value;

/// Outcome severities span 0..=6 (`Outcome::severity`), so seven
/// at-least buckets cover every reachable threshold.
const N_SEVERITIES: usize = 7;

/// One ranked cluster, denormalized into exactly the fields the query
/// filters and the JSON API read — no itemset decoding at request time.
/// The target's counts are its score block's 2×2 table; support,
/// confidence and lift are derived from them ([`ClusterEntry::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEntry {
    /// Canonical drug names (vocabulary case; uppercase in practice).
    pub drugs: Vec<String>,
    /// Canonical ADR terms.
    pub adrs: Vec<String>,
    /// Exclusiveness score.
    pub score: f64,
    /// Highest outcome severity among supporting reports (0 if none).
    pub max_severity: u8,
    /// Whether the knowledge base documents this exact drug combination.
    pub known: bool,
    /// Whether at least one consequent ADR is absent from every
    /// constituent drug's label.
    pub has_novel_adr: bool,
    /// FAERS case ids of the supporting reports (drill-down).
    pub case_ids: Vec<u64>,
    /// The cluster's contextual rules in its level order, copied from the
    /// analysis' `Mcac::context`: bit `i` of a mask keeps
    /// [`ClusterEntry::drugs`]`[i]`.
    pub context: Vec<ContextRule>,
    /// Full disproportionality score block from the signal engine.
    pub scores: SignalScores,
}

impl ClusterEntry {
    /// The target rule's counts, read back from its 2×2 table.
    pub fn stats(&self) -> RuleStats {
        let t = &self.scores.table;
        RuleStats {
            support_ab: t.a,
            support_a: t.exposed(),
            support_b: t.event(),
            n_transactions: t.n(),
        }
    }
}

/// An immutable, index-accelerated view of one quarter's ranked clusters.
#[derive(Debug)]
pub struct Snapshot {
    /// Which quarter this snapshot serves (e.g. `"2014 Q1"`).
    pub quarter: String,
    /// Reports that entered the analysis (cleaning input).
    pub n_reports: u64,
    /// Clusters in rank order (index = 0-based rank).
    pub clusters: Vec<ClusterEntry>,
    drug_vocab: Vocabulary,
    adr_vocab: Vocabulary,
    /// Uppercased drug name → compressed rank postings containing it.
    pub(crate) drug_index: FxHashMap<String, TidSet>,
    /// Canonical ADR term → compressed rank postings containing it.
    pub(crate) adr_index: FxHashMap<String, TidSet>,
    /// `severity_at_least[s]` — compressed ranks with `max_severity >= s`.
    pub(crate) severity_at_least: Vec<TidSet>,
    /// Antecedent cardinality → compressed rank postings.
    pub(crate) n_drugs_index: FxHashMap<usize, TidSet>,
    /// `by_key[k as usize]` — ranks ordered by descending
    /// [`RankKey::value`] of `k` (ties: rank ascending).
    by_key: [Vec<u32>; RankKey::ALL.len()],
}

impl Snapshot {
    /// Builds a snapshot from a pipeline result. Pass the knowledge base
    /// the interactive scan path would use; with `None`, the
    /// `unknown_only` / `novel_adr_only` filters keep everything, exactly
    /// like `RuleQuery::apply` without a knowledge base. Every cluster's
    /// case ids and severity come from its target's cover, and all the
    /// covers from one scan of the transactions
    /// ([`target_covers`]).
    pub fn build(
        quarter: impl Into<String>,
        result: &AnalysisResult,
        drug_vocab: &Vocabulary,
        adr_vocab: &Vocabulary,
        kb: Option<&KnowledgeBase>,
    ) -> Snapshot {
        let _span = maras_obs::span("snapshot_build");
        let covers = target_covers(result);
        let clusters = result
            .ranked
            .iter()
            .zip(covers.iter())
            .map(|(r, tids)| {
                let t = &r.cluster.target;
                let drugs: Vec<String> = result
                    .encoded
                    .names(&t.drugs, drug_vocab, adr_vocab)
                    .into_iter()
                    .map(|n| n.to_ascii_uppercase())
                    .collect();
                let adrs = result.encoded.names(&t.adrs, drug_vocab, adr_vocab);
                let refs: Vec<&str> = drugs.iter().map(String::as_str).collect();
                let adr_refs: Vec<&str> = adrs.iter().map(String::as_str).collect();
                ClusterEntry {
                    score: r.score,
                    max_severity: max_severity(result, tids).map_or(0, |o| o.severity()),
                    known: kb.is_some_and(|kb| kb.is_known(&refs)),
                    has_novel_adr: kb.is_none_or(|kb| kb.has_novel_adr(&refs, &adr_refs)),
                    case_ids: supporting_case_ids(result, tids),
                    context: r.cluster.context.clone(),
                    scores: r.scores,
                    drugs,
                    adrs,
                }
            })
            .collect();
        Snapshot::from_parts(
            quarter.into(),
            result.cleaning.input_reports as u64,
            drug_vocab.clone(),
            adr_vocab.clone(),
            clusters,
        )
    }

    /// Assembles a snapshot from already-denormalized parts, rebuilding
    /// every index. Used by `build` and by the store's load path, so
    /// in-memory and reloaded snapshots index identically.
    pub fn from_parts(
        quarter: String,
        n_reports: u64,
        drug_vocab: Vocabulary,
        adr_vocab: Vocabulary,
        clusters: Vec<ClusterEntry>,
    ) -> Snapshot {
        let mut drug_index: FxHashMap<String, TidSet> = FxHashMap::default();
        let mut adr_index: FxHashMap<String, TidSet> = FxHashMap::default();
        let mut severity_at_least: Vec<TidSet> = vec![TidSet::new(); N_SEVERITIES];
        let mut n_drugs_index: FxHashMap<usize, TidSet> = FxHashMap::default();
        for (rank, c) in clusters.iter().enumerate() {
            let rank = rank as u32;
            for d in &c.drugs {
                push_dedup(drug_index.entry(d.clone()).or_default(), rank);
            }
            for a in &c.adrs {
                push_dedup(adr_index.entry(a.clone()).or_default(), rank);
            }
            let top = (c.max_severity as usize).min(N_SEVERITIES - 1);
            for bucket in severity_at_least.iter_mut().take(top + 1) {
                bucket.push_ascending(rank);
            }
            n_drugs_index.entry(c.drugs.len()).or_default().push_ascending(rank);
        }
        for postings in drug_index
            .values()
            .chain(adr_index.values())
            .chain(severity_at_least.iter())
            .chain(n_drugs_index.values())
        {
            postings.record_build();
        }
        let by_key = RankKey::ALL.map(|key| ranks_by_key_desc(&clusters, key));
        Snapshot {
            quarter,
            n_reports,
            clusters,
            drug_vocab,
            adr_vocab,
            drug_index,
            adr_index,
            severity_at_least,
            n_drugs_index,
            by_key,
        }
    }

    /// The snapshot's drug vocabulary (canonicalization + autocomplete).
    pub fn drug_vocab(&self) -> &Vocabulary {
        &self.drug_vocab
    }

    /// The snapshot's ADR vocabulary.
    pub fn adr_vocab(&self) -> &Vocabulary {
        &self.adr_vocab
    }

    /// Number of clusters served.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the snapshot holds no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Applies a query through the inverted indexes, returning the same
    /// 0-based ranks (ascending) as `RuleQuery::apply` over the original
    /// `AnalysisResult`.
    ///
    /// Index intersection first narrows the candidate set (drug postings
    /// ∩ ADR postings ∩ severity bucket ∩ cardinality bucket), then the
    /// cheap denormalized predicates run over the few survivors, so the
    /// semantics stay byte-identical to the scan while the work scales
    /// with the answer instead of the corpus.
    pub fn query(&self, query: &RuleQuery) -> Vec<usize> {
        let q = query.resolved(&self.drug_vocab, &self.adr_vocab);
        let mut candidates: Option<TidSet> = None;
        for drug in &q.require_drugs {
            match self.drug_index.get(drug) {
                Some(postings) => narrow(&mut candidates, postings),
                None => return Vec::new(),
            }
        }
        if !q.any_adr.is_empty() {
            let mut union = TidSet::new();
            for adr in &q.any_adr {
                if let Some(postings) = self.adr_index.get(adr) {
                    union = union.union(postings);
                }
            }
            if union.is_empty() {
                return Vec::new();
            }
            narrow(&mut candidates, &union);
        }
        if let Some(min_sev) = q.min_severity {
            if min_sev as usize >= N_SEVERITIES {
                return Vec::new();
            }
            narrow(&mut candidates, &self.severity_at_least[min_sev as usize]);
        }
        if let Some(n) = q.n_drugs {
            match self.n_drugs_index.get(&n) {
                Some(postings) => narrow(&mut candidates, postings),
                None => return Vec::new(),
            }
        }
        // A NaN threshold rejects nothing in the scan predicate (`x < NaN`
        // is always false), so it must not narrow here either.
        if let Some(min) = q.min_prr.filter(|m| !m.is_nan()) {
            narrow(&mut candidates, &self.ranks_at_least(RankKey::Prr, min));
        }
        if let Some(min) = q.min_ror.filter(|m| !m.is_nan()) {
            narrow(&mut candidates, &self.ranks_at_least(RankKey::Ror, min));
        }
        let survivors: Box<dyn Iterator<Item = u32> + '_> = match &candidates {
            Some(ranks) => Box::new(ranks.iter()),
            None => Box::new(0..self.clusters.len() as u32),
        };
        survivors
            .filter(|&rank| self.matches(&q, &self.clusters[rank as usize]))
            .map(|rank| rank as usize)
            .collect()
    }

    /// Full predicate over one denormalized entry — the scan-path
    /// semantics restated over precomputed fields.
    fn matches(&self, q: &RuleQuery, c: &ClusterEntry) -> bool {
        if q.n_drugs.is_some_and(|n| c.drugs.len() != n) {
            return false;
        }
        if q.min_score.is_some_and(|min| c.score < min) {
            return false;
        }
        if !q.require_drugs.iter().all(|need| c.drugs.contains(need)) {
            return false;
        }
        if !q.any_adr.is_empty() && !q.any_adr.iter().any(|want| c.adrs.contains(want)) {
            return false;
        }
        if q.min_severity.is_some_and(|min| c.max_severity < min) {
            return false;
        }
        if q.unknown_only && c.known {
            return false;
        }
        if q.novel_adr_only && !c.has_novel_adr {
            return false;
        }
        if q.min_prr.is_some_and(|min| c.scores.prr.estimate < min) {
            return false;
        }
        if q.min_ror.is_some_and(|min| c.scores.ror.estimate < min) {
            return false;
        }
        true
    }

    /// The compressed set of ranks whose `key` is at least `min`: a
    /// prefix of the key's descending index, found by binary search.
    fn ranks_at_least(&self, key: RankKey, min: f64) -> TidSet {
        let index = &self.by_key[key as usize];
        let end = index.partition_point(|&r| key.value(&self.clusters[r as usize].scores) >= min);
        let mut prefix = index[..end].to_vec();
        prefix.sort_unstable();
        TidSet::from_sorted(&prefix)
    }

    /// Reorders query-result ranks by `key`: walks the key's index and
    /// keeps only members of `hits`, so the relative order is descending
    /// in that key with rank-ascending ties.
    pub fn sort_ranks(&self, hits: &[usize], key: RankKey) -> Vec<usize> {
        let index = &self.by_key[key as usize];
        let mut member = vec![false; self.clusters.len()];
        for &h in hits {
            member[h] = true;
        }
        index.iter().map(|&r| r as usize).filter(|&r| member[r]).collect()
    }

    /// Autocompletes a drug-name prefix: `(canonical term, clusters
    /// containing it)` in case-folded lexicographic order.
    pub fn complete_drug(&self, prefix: &str, limit: usize) -> Vec<(String, usize)> {
        self.complete(&self.drug_vocab, &self.drug_index, prefix, limit)
    }

    /// Autocompletes an ADR-term prefix.
    pub fn complete_adr(&self, prefix: &str, limit: usize) -> Vec<(String, usize)> {
        self.complete(&self.adr_vocab, &self.adr_index, prefix, limit)
    }

    fn complete(
        &self,
        vocab: &Vocabulary,
        index: &FxHashMap<String, TidSet>,
        prefix: &str,
        limit: usize,
    ) -> Vec<(String, usize)> {
        vocab
            .iter_prefix(prefix)
            .take(limit)
            .map(|(_, term)| {
                let uppercase = term.to_ascii_uppercase();
                let n = index
                    .get(term)
                    .or_else(|| index.get(&uppercase))
                    .map_or(0, |postings| postings.len() as usize);
                (term.to_string(), n)
            })
            .collect()
    }

    /// JSON view of one cluster for the search hit list (no context, no
    /// case ids — those are detail-only).
    ///
    /// # Panics
    /// Panics if `rank` is out of range; use [`Self::try_hit_json`] for
    /// ranks parsed from request paths.
    pub fn hit_json(&self, rank: usize) -> Value {
        self.try_hit_json(rank).expect("cluster rank out of range")
    }

    /// Checked variant of [`Self::hit_json`]: `None` when `rank` is out of
    /// range instead of panicking.
    pub fn try_hit_json(&self, rank: usize) -> Option<Value> {
        let c = self.clusters.get(rank)?;
        let stats = c.stats();
        Some(Value::obj([
            ("rank", Value::from(rank + 1)),
            ("drugs", Value::from(c.drugs.clone())),
            ("adrs", Value::from(c.adrs.clone())),
            ("score", Value::from(c.score)),
            ("support", Value::from(stats.support_ab)),
            ("confidence", Value::from(stats.confidence())),
            ("lift", Value::from(stats.lift())),
            ("max_severity", Value::from(c.max_severity)),
            ("known", Value::from(c.known)),
            ("has_novel_adr", Value::from(c.has_novel_adr)),
            ("scores", scores_json(&c.scores)),
        ]))
    }

    /// JSON detail view of one cluster: the hit fields plus contextual
    /// rules and supporting case ids (the §4.1 drill-down); `None` when
    /// `rank` is out of range.
    pub fn try_detail_json(&self, rank: usize) -> Option<Value> {
        let c = self.clusters.get(rank)?;
        let mut detail = match self.try_hit_json(rank)? {
            Value::Object(m) => m,
            _ => unreachable!("hit_json returns an object"),
        };
        detail.insert("case_ids".into(), Value::arr(c.case_ids.iter().map(|&id| id.into())));
        // Drill-down discovery: how many raw reports back this cluster and
        // where to page through them (served from the evidence archive).
        detail.insert("n_supporting_reports".into(), Value::from(c.case_ids.len()));
        detail.insert("reports_url".into(), Value::from(format!("/cluster/{}/reports", rank + 1)));
        let target = c.stats();
        detail.insert(
            "context".into(),
            Value::arr(c.context.iter().map(|ctx| {
                let stats = ctx.stats(&target);
                Value::obj([
                    ("drugs", Value::arr(ctx.drugs(&c.drugs).map(|d| Value::from(d.as_str())))),
                    ("adrs", Value::from(c.adrs.clone())),
                    ("support", Value::from(stats.support_ab)),
                    ("confidence", Value::from(stats.confidence())),
                    ("lift", Value::from(stats.lift())),
                ])
            })),
        );
        Some(Value::Object(detail))
    }
}

/// Ranks sorted by a score key, descending, ties broken by ascending
/// rank. Estimates are always finite (the engine never emits NaN), but
/// `total_cmp` keeps the build total regardless. Each value is computed
/// once (the composite takes a cube root); ranks are distinct, so an
/// unstable sort gives the same order.
fn ranks_by_key_desc(clusters: &[ClusterEntry], key: RankKey) -> Vec<u32> {
    let values: Vec<f64> = clusters.iter().map(|c| key.value(&c.scores)).collect();
    let mut ranks: Vec<u32> = (0..clusters.len() as u32).collect();
    ranks.sort_unstable_by(|&x, &y| {
        values[y as usize].total_cmp(&values[x as usize]).then_with(|| x.cmp(&y))
    });
    ranks
}

/// JSON view of a full score block — the same shape the CLI's `--json`
/// emits, so downstream consumers parse one schema.
pub fn scores_json(s: &SignalScores) -> Value {
    Value::obj([
        (
            "table",
            Value::obj([
                ("a", Value::from(s.table.a)),
                ("b", Value::from(s.table.b)),
                ("c", Value::from(s.table.c)),
                ("d", Value::from(s.table.d)),
            ]),
        ),
        ("rrr", Value::from(s.rrr)),
        (
            "prr",
            Value::obj([
                ("estimate", Value::from(s.prr.estimate)),
                ("lower", Value::from(s.prr.lower)),
                ("upper", Value::from(s.prr.upper)),
            ]),
        ),
        (
            "ror",
            Value::obj([
                ("estimate", Value::from(s.ror.estimate)),
                ("lower", Value::from(s.ror.lower)),
                ("upper", Value::from(s.ror.upper)),
            ]),
        ),
        ("chi2", Value::from(s.chi2)),
        ("evans", Value::from(s.evans)),
        (
            "ic",
            Value::obj([
                ("ic", Value::from(s.ic.ic)),
                ("ic025", Value::from(s.ic.ic025)),
                ("ic975", Value::from(s.ic.ic975)),
            ]),
        ),
        (
            "ebgm",
            Value::obj([
                ("ebgm", Value::from(s.ebgm.ebgm)),
                ("eb05", Value::from(s.ebgm.eb05)),
                ("eb95", Value::from(s.ebgm.eb95)),
                ("posterior_w1", Value::from(s.ebgm.posterior_w1)),
            ]),
        ),
        ("interaction", Value::from(s.interaction)),
        ("exclusiveness", Value::from(s.exclusiveness)),
    ])
}

/// Intersects the accumulator with a compressed posting set
/// (`None` = "all").
fn narrow(acc: &mut Option<TidSet>, postings: &TidSet) {
    *acc = Some(match acc.take() {
        None => postings.clone(),
        Some(cur) => cur.intersect(postings),
    });
}

/// Appends `rank` unless it is already the set's maximum — postings are
/// filled in ascending rank order, so a drug/ADR repeating inside one
/// cluster shows up as an adjacent duplicate.
fn push_dedup(postings: &mut TidSet, rank: u32) {
    if postings.last() != Some(rank) {
        postings.push_ascending(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_core::{Pipeline, PipelineConfig};
    use maras_faers::{QuarterId, SynthConfig, Synthesizer};

    fn fixture() -> (AnalysisResult, Vocabulary, Vocabulary) {
        let mut cfg = SynthConfig::test_scale(23);
        cfg.n_reports = 1200;
        let mut synth = Synthesizer::new(cfg);
        let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
        (result, dv, av)
    }

    #[test]
    fn empty_query_returns_every_rank_in_order() {
        let (result, dv, av) = fixture();
        let snap = Snapshot::build("2014 Q1", &result, &dv, &av, None);
        assert_eq!(snap.len(), result.ranked.len());
        let hits = snap.query(&RuleQuery::new());
        assert_eq!(hits, (0..snap.len()).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_query_matches_scan_on_basic_filters() {
        let (result, dv, av) = fixture();
        let kb = KnowledgeBase::literature_validated();
        let snap = Snapshot::build("2014 Q1", &result, &dv, &av, Some(&kb));
        let top = &snap.clusters[0];
        let queries = [
            RuleQuery::new().with_drug(&top.drugs[0]),
            RuleQuery::new().with_any_adr(&top.adrs[0]),
            RuleQuery::new().with_min_severity(4),
            RuleQuery::new().with_n_drugs(2),
            RuleQuery::new().with_min_score(snap.clusters[snap.len() / 2].score),
            RuleQuery::new().unknown_only(),
            RuleQuery::new().novel_adr_only(),
            RuleQuery::new().with_drug(&top.drugs[0]).with_min_severity(3).with_n_drugs(2),
            RuleQuery::new().with_min_prr(snap.clusters[snap.len() / 2].scores.prr.estimate),
            RuleQuery::new().with_min_ror(1.0),
            RuleQuery::new().with_min_prr(2.0).with_min_ror(2.0).with_n_drugs(2),
            RuleQuery::new().with_min_prr(f64::INFINITY),
        ];
        for q in queries {
            let scan = q.apply(&result, &dv, &av, Some(&kb));
            let indexed = snap.query(&q);
            assert_eq!(scan, indexed, "query {q:?}");
        }
    }

    #[test]
    fn unknown_drug_and_adr_return_nothing() {
        let (result, dv, av) = fixture();
        let snap = Snapshot::build("2014 Q1", &result, &dv, &av, None);
        assert!(snap.query(&RuleQuery::new().with_drug("QQQQQQQQQQ")).is_empty());
        assert!(snap.query(&RuleQuery::new().with_any_adr("QQQQQQQQQQ")).is_empty());
        assert!(snap.query(&RuleQuery::new().with_min_severity(200)).is_empty());
        assert!(snap.query(&RuleQuery::new().with_n_drugs(17)).is_empty());
    }

    #[test]
    fn autocomplete_orders_and_counts() {
        let (result, dv, av) = fixture();
        let snap = Snapshot::build("2014 Q1", &result, &dv, &av, None);
        let hits = snap.complete_drug("PR", 50);
        assert!(hits.iter().any(|(t, _)| t == "PROGRAF"));
        for (term, n) in &hits {
            let expect =
                snap.clusters.iter().filter(|c| c.drugs.contains(&term.to_ascii_uppercase()));
            assert_eq!(*n, expect.count(), "{term}");
        }
        assert!(snap.complete_drug("PR", 2).len() <= 2);
        let adrs = snap.complete_adr("a", 1000);
        assert!(!adrs.is_empty());
    }

    #[test]
    fn detail_json_carries_context_and_cases() {
        let (result, dv, av) = fixture();
        let snap = Snapshot::build("2014 Q1", &result, &dv, &av, None);
        let detail = snap.try_detail_json(0).unwrap();
        assert_eq!(detail["rank"], 1usize);
        let n_drugs = detail["drugs"].as_array().unwrap().len();
        let context = detail["context"].as_array().unwrap();
        assert_eq!(context.len(), (1 << n_drugs) - 2, "complete MCAC context");
        assert_eq!(
            detail["case_ids"].as_array().unwrap().len() as u64,
            detail["support"].as_u64().unwrap()
        );
        // Drill-down discovery fields: count matches case_ids, and the
        // link names the paginated reports route for this 1-based rank.
        assert_eq!(
            detail["n_supporting_reports"].as_u64().unwrap(),
            detail["support"].as_u64().unwrap()
        );
        assert_eq!(detail["reports_url"], "/cluster/1/reports");
    }

    #[test]
    fn sorted_indexes_order_by_their_key() {
        let (result, dv, av) = fixture();
        let snap = Snapshot::build("2014 Q1", &result, &dv, &av, None);
        let all = snap.query(&RuleQuery::new());
        for key in RankKey::ALL {
            let sorted = snap.sort_ranks(&all, key);
            // Same set of ranks, reordered.
            let mut back = sorted.clone();
            back.sort_unstable();
            assert_eq!(back, all, "{key:?}");
            for w in sorted.windows(2) {
                let (x, y) = (
                    key.value(&snap.clusters[w[0]].scores),
                    key.value(&snap.clusters[w[1]].scores),
                );
                assert!(
                    x > y || (x == y && w[0] < w[1]),
                    "{key:?}: rank {} ({x}) before rank {} ({y})",
                    w[0],
                    w[1]
                );
            }
        }
        // The ranking key's index is the native order, and sorting a
        // filtered subset preserves membership.
        assert_eq!(snap.sort_ranks(&all, RankKey::Exclusiveness), all);
        let subset = snap.query(&RuleQuery::new().with_min_ror(1.0));
        let mut sorted_subset = snap.sort_ranks(&subset, RankKey::Ror);
        sorted_subset.sort_unstable();
        assert_eq!(sorted_subset, subset);
    }

    #[test]
    fn hit_json_carries_score_block() {
        let (result, dv, av) = fixture();
        let snap = Snapshot::build("2014 Q1", &result, &dv, &av, None);
        let hit = snap.hit_json(0);
        let scores = &hit["scores"];
        let c = &snap.clusters[0];
        assert_eq!(scores["table"]["a"].as_u64().unwrap(), c.scores.table.a);
        assert_eq!(scores["prr"]["estimate"].as_f64().unwrap(), c.scores.prr.estimate);
        assert_eq!(scores["ror"]["upper"].as_f64().unwrap(), c.scores.ror.upper);
        assert_eq!(scores["ic"]["ic025"].as_f64().unwrap(), c.scores.ic.ic025);
        assert_eq!(scores["ebgm"]["eb05"].as_f64().unwrap(), c.scores.ebgm.eb05);
        assert_eq!(scores["exclusiveness"].as_f64().unwrap(), c.score);
        assert!(scores["interaction"].as_f64().is_some());
        // The detail view inherits the block from the hit view.
        assert_eq!(snap.try_detail_json(0).unwrap()["scores"].to_string(), scores.to_string());
    }

    #[test]
    fn try_json_views_check_bounds() {
        let (result, dv, av) = fixture();
        let snap = Snapshot::build("2014 Q1", &result, &dv, &av, None);
        assert!(snap.try_hit_json(0).is_some());
        assert!(snap.try_detail_json(0).is_some());
        assert!(snap.try_hit_json(snap.len()).is_none());
        assert!(snap.try_detail_json(snap.len()).is_none());
        assert!(snap.try_detail_json(usize::MAX).is_none());
    }
}
