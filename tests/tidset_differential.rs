//! Differential acceptance suite for the hybrid tid-set rewire: every
//! consumer of `maras-tidset` — support counting, the batch score engine's
//! marginals, `/search` filter-grid narrowing, and the evidence reader's
//! cover path — must be byte-identical to the scalar sorted-`Vec<u32>`
//! baselines the PR deleted, across seeded quarters, a dense synthetic
//! corpus that forces bitmap containers, and 1/2/4 scoring threads. The
//! batch target covers (`link::target_covers`, one transaction scan) are
//! held the same way to the per-rule `link::supporting_tids`, at 1 and 2
//! mining threads.
//!
//! The scalar galloping kernels are re-implemented here, in-test, as the
//! ground truth; nothing in this file goes through `maras-tidset` on the
//! baseline side.

use maras::core::{link, Pipeline, PipelineConfig, RuleQuery};
use maras::evidence::{build_archive, BuildConfig, EvidenceReader};
use maras::faers::{QuarterId, SynthConfig, Synthesizer};
use maras::mining::{Item, ItemSet, TransactionDb};
use maras::rules::{ContextRule, DrugAdrRule};
use maras::serve::Snapshot;
use maras::signals::{interaction_contrast, score_rules, ContingencyTable, SignalScores};
use rand::{rngs::StdRng, Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Scalar baselines (the pre-PR kernels, re-implemented verbatim in-test).
// ---------------------------------------------------------------------------

/// The deleted `mining::transactions::intersect_sorted`: galloping
/// two-pointer intersection over sorted `&[u32]`.
fn scalar_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(short.len());
    let mut lo = 0usize;
    for &x in short {
        // Gallop to find the first index in `long[lo..]` with value >= x.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < long.len() && long[hi] < x {
            lo = hi + 1;
            hi = lo.saturating_add(step).min(long.len());
            step <<= 1;
        }
        let idx = lo + long[lo..hi.min(long.len())].partition_point(|&v| v < x);
        if idx < long.len() && long[idx] == x {
            out.push(x);
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= long.len() {
            break;
        }
    }
    out
}

/// The deleted k-way fold: smallest list first, intersect pairwise.
fn scalar_intersect_k(mut lists: Vec<&[u32]>) -> Vec<u32> {
    if lists.is_empty() {
        return Vec::new();
    }
    lists.sort_by_key(|l| l.len());
    let mut acc = lists[0].to_vec();
    for l in &lists[1..] {
        if acc.is_empty() {
            break;
        }
        acc = scalar_intersect(&acc, l);
    }
    acc
}

/// Ground-truth support: a full transaction scan, no tid-lists at all.
fn naive_support(db: &TransactionDb, items: &[Item]) -> u32 {
    let set = ItemSet::from_items(items.to_vec());
    db.transactions().iter().filter(|t| set.is_subset_of(t)).count() as u32
}

/// Ground-truth cover: tids of transactions containing every item.
fn naive_cover(db: &TransactionDb, items: &[Item]) -> Vec<u32> {
    let set = ItemSet::from_items(items.to_vec());
    db.transactions()
        .iter()
        .enumerate()
        .filter(|(_, t)| set.is_subset_of(t))
        .map(|(tid, _)| tid as u32)
        .collect()
}

/// Ground-truth closure: the items shared by every covering transaction.
fn naive_closure(db: &TransactionDb, itemset: &ItemSet) -> ItemSet {
    let cover = naive_cover(db, itemset.items());
    let mut acc: Option<ItemSet> = None;
    for &tid in &cover {
        let t = db.transaction(tid);
        acc = Some(match acc {
            None => t.clone(),
            Some(a) => a.intersection(t),
        });
    }
    acc.unwrap_or_else(|| itemset.clone())
}

/// Per-item scalar covers, computed by transaction scan (never via TidSet).
fn scalar_item_covers(db: &TransactionDb) -> Vec<Vec<u32>> {
    let mut covers = vec![Vec::new(); db.item_bound() as usize];
    for (tid, t) in db.transactions().iter().enumerate() {
        for item in t.iter() {
            covers[item.index()].push(tid as u32);
        }
    }
    covers
}

// ---------------------------------------------------------------------------
// Density regimes.
// ---------------------------------------------------------------------------

/// A dense corpus: 12 000 transactions over 30 items where the hot items
/// appear in well over 4096 transactions, so their covers cross the
/// per-chunk array→bitmap threshold and land in bitmap containers.
fn dense_db(seed: u64) -> TransactionDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<Item>> = (0..12_000)
        .map(|_| {
            let mut row = Vec::new();
            for item in 0u32..30 {
                // Items 0..5 are hot (p=0.6), 5..12 warm (p=0.15), rest cold.
                let p = match item {
                    0..=4 => 0.6,
                    5..=11 => 0.15,
                    _ => 0.01,
                };
                if rng.gen_bool(p) {
                    row.push(Item(item));
                }
            }
            row
        })
        .collect();
    TransactionDb::new(rows)
}

/// A sparse corpus: 4 000 transactions over 600 items, every cover tiny.
fn sparse_db(seed: u64) -> TransactionDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<Item>> = (0..4_000)
        .map(|_| {
            let mut row: Vec<Item> = (0..6).map(|_| Item(rng.gen_range(0u32..600))).collect();
            row.sort_unstable();
            row.dedup();
            row
        })
        .collect();
    TransactionDb::new(rows)
}

/// Asserts every tid-list derived quantity on `db` equals the scalar
/// baselines, over a grid of probe itemsets.
fn assert_db_matches_scalar(db: &TransactionDb, probes: &[Vec<u32>], ctx: &str) {
    let covers = scalar_item_covers(db);
    for ids in probes {
        let items: Vec<Item> = ids.iter().map(|&i| Item(i)).collect();
        let itemset = ItemSet::from_items(items.clone());
        let lists: Vec<&[u32]> = items.iter().map(|i| covers[i.index()].as_slice()).collect();
        let want_cover = scalar_intersect_k(lists);
        let want_support = naive_support(db, &items);
        assert_eq!(
            want_cover.len() as u32,
            want_support,
            "{ctx} {ids:?}: scalar baselines disagree with each other"
        );
        assert_eq!(db.support_of(&items), want_support, "{ctx} {ids:?}: support_of");
        assert_eq!(db.support(&itemset), want_support, "{ctx} {ids:?}: support");
        assert_eq!(db.cover_tids(&itemset), want_cover, "{ctx} {ids:?}: cover_tids");
        assert_eq!(db.closure(&itemset), naive_closure(db, &itemset), "{ctx} {ids:?}: closure");
        // Union support against a fixed second leg.
        for other in probes {
            let b: Vec<Item> = other.iter().map(|&i| Item(i)).collect();
            let mut joint = ids.clone();
            joint.extend_from_slice(other);
            joint.sort_unstable();
            joint.dedup();
            let want = naive_support(db, &joint.iter().map(|&i| Item(i)).collect::<Vec<_>>());
            assert_eq!(
                db.support_of_union(&items, &b),
                want,
                "{ctx} {ids:?} ∪ {other:?}: support_of_union"
            );
        }
    }
}

#[test]
fn dense_corpus_forces_bitmaps_and_matches_scalar_baselines() {
    let db = dense_db(901);
    // The regime must actually exercise bitmap containers, or this test
    // proves nothing about the dense kernels.
    let hot = db.item_cover(Item(0)).expect("hot item has a cover");
    assert!(hot.len() > 4096, "hot item cover must cross the array→bitmap threshold");
    let (_, bitmaps) = hot.container_mix();
    assert!(bitmaps >= 1, "hot item cover must hold at least one bitmap container");
    let probes: Vec<Vec<u32>> = vec![
        vec![0],
        vec![0, 1],
        vec![0, 1, 2],
        vec![0, 1, 2, 3, 4],
        vec![0, 5],
        vec![5, 6, 7],
        vec![0, 12],
        vec![12, 13],
        vec![29],
    ];
    assert_db_matches_scalar(&db, &probes, "dense");
}

#[test]
fn sparse_corpus_stays_in_arrays_and_matches_scalar_baselines() {
    let db = sparse_db(902);
    let cover = db.item_cover(Item(0)).expect("item 0 appears");
    let (arrays, bitmaps) = cover.container_mix();
    assert!(arrays >= 1 && bitmaps == 0, "sparse covers must stay array containers");
    let probes: Vec<Vec<u32>> =
        vec![vec![0], vec![0, 1], vec![1, 2, 3], vec![10, 20], vec![599], vec![0, 599]];
    assert_db_matches_scalar(&db, &probes, "sparse");
}

// ---------------------------------------------------------------------------
// Seeded quarters: score marginals at 1/2/4 threads.
// ---------------------------------------------------------------------------

/// Bit-level equality over the whole score block (same helper as the
/// signals differential suite).
fn assert_bits_eq(got: &SignalScores, want: &SignalScores, ctx: &str) {
    assert_eq!(got.table, want.table, "{ctx}: table");
    let fields: [(&str, f64, f64); 16] = [
        ("rrr", got.rrr, want.rrr),
        ("prr.estimate", got.prr.estimate, want.prr.estimate),
        ("prr.lower", got.prr.lower, want.prr.lower),
        ("prr.upper", got.prr.upper, want.prr.upper),
        ("ror.estimate", got.ror.estimate, want.ror.estimate),
        ("ror.lower", got.ror.lower, want.ror.lower),
        ("ror.upper", got.ror.upper, want.ror.upper),
        ("chi2", got.chi2, want.chi2),
        ("ic.ic", got.ic.ic, want.ic.ic),
        ("ic.ic025", got.ic.ic025, want.ic.ic025),
        ("ic.ic975", got.ic.ic975, want.ic.ic975),
        ("ebgm.ebgm", got.ebgm.ebgm, want.ebgm.ebgm),
        ("ebgm.eb05", got.ebgm.eb05, want.ebgm.eb05),
        ("ebgm.eb95", got.ebgm.eb95, want.ebgm.eb95),
        ("interaction", got.interaction, want.interaction),
        ("exclusiveness", got.exclusiveness, want.exclusiveness),
    ];
    for (name, g, w) in fields {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: {name} ({g} vs {w})");
    }
    assert_eq!(got.evans, want.evans, "{ctx}: evans");
}

fn legacy_score(db: &TransactionDb, rule: &DrugAdrRule) -> SignalScores {
    let table = ContingencyTable::from_db(db, &rule.drugs, &rule.adrs);
    let base = SignalScores::from_table(table);
    if rule.is_multi_drug() {
        base.with_interaction(interaction_contrast(db, &rule.drugs, &rule.adrs))
    } else {
        base
    }
}

#[test]
fn quarter_marginals_and_scores_match_scalar_paths_at_all_thread_counts() {
    for seed in [41u64, 42] {
        let mut cfg = SynthConfig::test_scale(seed);
        cfg.n_reports = 1500;
        let mut synth = Synthesizer::new(cfg);
        let quarter = synth.generate_quarter(QuarterId::new(2016, 1 + (seed % 4) as u8));
        let result = Pipeline::new(PipelineConfig::default().with_min_support(6)).run(
            quarter,
            synth.drug_vocab(),
            synth.adr_vocab(),
        );
        let db = &result.encoded.db;
        let rules: Vec<DrugAdrRule> =
            result.ranked.iter().map(|r| r.cluster.target.clone()).collect();
        assert!(!rules.is_empty(), "seed {seed}: no ranked rules");

        // Marginals: the hybrid intersections behind every table cell must
        // equal full transaction scans.
        for (i, rule) in rules.iter().enumerate() {
            let drugs = rule.drugs.items();
            let adrs = rule.adrs.items();
            let mut joint: Vec<Item> = drugs.iter().chain(adrs).copied().collect();
            joint.sort_unstable();
            joint.dedup();
            assert_eq!(
                db.support_of(drugs),
                naive_support(db, drugs),
                "seed {seed} rule {i}: exposed marginal"
            );
            assert_eq!(
                db.support_of(adrs),
                naive_support(db, adrs),
                "seed {seed} rule {i}: event marginal"
            );
            assert_eq!(
                db.support_of_union(drugs, adrs),
                naive_support(db, &joint),
                "seed {seed} rule {i}: joint marginal"
            );
        }

        // Scores: bit-identical to the legacy per-rule path at 1/2/4 threads.
        let legacy: Vec<SignalScores> = rules.iter().map(|r| legacy_score(db, r)).collect();
        let inputs: Vec<(&DrugAdrRule, &[ContextRule])> = result
            .ranked
            .iter()
            .map(|r| (&r.cluster.target, r.cluster.singleton_level()))
            .collect();
        for threads in [1usize, 2, 4] {
            let scored = score_rules(&inputs, threads);
            assert_eq!(scored.len(), legacy.len());
            for (i, (got, want)) in scored.iter().zip(&legacy).enumerate() {
                assert_bits_eq(got, want, &format!("seed {seed} threads {threads} rule {i}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batch target covers against per-rule covers.
// ---------------------------------------------------------------------------

#[test]
fn batch_target_covers_match_per_rule_covers_at_one_and_two_threads() {
    for seed in [44u64, 45] {
        let mut cfg = SynthConfig::test_scale(seed);
        cfg.n_reports = 1500;
        let mut synth = Synthesizer::new(cfg);
        let quarter = synth.generate_quarter(QuarterId::new(2016, 1 + (seed % 4) as u8));
        for threads in [1usize, 2] {
            let config = PipelineConfig::default().with_min_support(6).with_n_threads(threads);
            let result =
                Pipeline::new(config).run(quarter.clone(), synth.drug_vocab(), synth.adr_vocab());
            assert!(!result.ranked.is_empty(), "seed {seed}: no ranked rules");
            let covers = link::target_covers(&result);
            assert_eq!(covers.len(), result.ranked.len());
            for (rank, (r, cover)) in result.ranked.iter().zip(covers.iter()).enumerate() {
                let want = link::supporting_tids(&result, &r.cluster.target);
                assert_eq!(cover, want, "seed {seed} threads {threads} rank {rank}");
                assert_eq!(cover.len() as u64, r.cluster.target.support());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// /search narrowing and evidence covers against their scan-path baselines.
// ---------------------------------------------------------------------------

#[test]
fn snapshot_narrowing_and_evidence_cover_match_scan_paths() {
    let mut cfg = SynthConfig::test_scale(43);
    cfg.n_reports = 1500;
    let mut synth = Synthesizer::new(cfg);
    let quarter = synth.generate_quarter(QuarterId::new(2016, 4));
    let result = Pipeline::new(PipelineConfig::default().with_min_support(6)).run(
        quarter,
        synth.drug_vocab(),
        synth.adr_vocab(),
    );
    let dv = synth.drug_vocab();
    let av = synth.adr_vocab();
    assert!(!result.ranked.is_empty());

    // Index path (hybrid posting intersections) vs the linear scan path.
    let snapshot = Snapshot::build("2016Q4", &result, dv, av, None);
    let t0 = &result.ranked[0].cluster.target;
    let drug0 = result.encoded.names(&t0.drugs, dv, av)[0].to_ascii_uppercase();
    let adr0 = result.encoded.names(&t0.adrs, dv, av)[0].clone();
    let queries: Vec<(&str, RuleQuery)> = vec![
        ("all", RuleQuery::new()),
        ("drug", RuleQuery::new().with_drug(&drug0)),
        ("adr", RuleQuery::new().with_any_adr(&adr0)),
        ("combo", RuleQuery::new().with_drug(&drug0).with_any_adr(&adr0)),
        ("severity", RuleQuery::new().with_min_severity(3)),
        ("pair", RuleQuery::new().with_n_drugs(2)),
        ("stacked", RuleQuery::new().with_drug(&drug0).with_min_severity(2).with_n_drugs(2)),
        ("prr", RuleQuery::new().with_min_prr(1.5)),
    ];
    for (tag, q) in &queries {
        assert_eq!(
            snapshot.query(q),
            q.apply(&result, dv, av, None),
            "query {tag}: index path diverged from scan path"
        );
    }

    // Evidence path: archived postings (decoded into hybrid sets,
    // intersected k-way) vs the in-memory link cover vs the in-test
    // scalar fold over raw postings.
    let path = std::env::temp_dir().join(format!("maras-tidset-diff-{}.evid", std::process::id()));
    build_archive(&result, dv, av, &path, BuildConfig::default()).expect("build archive");
    let reader = EvidenceReader::open(&path).expect("archive opens");
    for (rank, r) in result.ranked.iter().enumerate() {
        let rule = &r.cluster.target;
        let drugs: Vec<String> = result
            .encoded
            .names(&rule.drugs, dv, av)
            .into_iter()
            .map(|n| n.to_ascii_uppercase())
            .collect();
        let adrs = result.encoded.names(&rule.adrs, dv, av);
        let expected = link::supporting_tids(&result, rule);
        assert_eq!(reader.cover(&drugs, &adrs), expected, "rank {rank}: evidence cover");
    }
    let _ = std::fs::remove_file(&path);
}
