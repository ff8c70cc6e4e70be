//! A1/A2 — ablations of the design choices DESIGN.md calls out.
//!
//! **A1 — interestingness measures.** Rank the mined multi-drug rules with
//! every scoring variant (Formula 3.3 mean-contrast, 3.4 +CV penalty, 3.5
//! +level decay; Bayardo improvement; plain confidence / lift; Harpaz RRR)
//! and measure how well each recovers the planted ground-truth
//! interactions (hits in the top 10 and mean reciprocal rank). The paper's
//! claim: context-aware exclusiveness beats context-free measures.
//!
//! **A2 — closedness.** Compare the unfiltered drug→ADR rule pool against
//! the closed pool: how many unfiltered rules are *unsupported* (§3.3
//! type-3, misleading) — the rules the closed-itemset filter removes.
//!
//! **A3 — θ sensitivity.** Sweep the CV-penalty strength θ ∈ {0, 0.25, 0.5,
//! 0.75, 1} (the thesis exposes θ as the user's control, §3.6) and report
//! how planted-signal recovery responds — the claim to check is that the
//! ranking is *stable* across θ, with a mild gain from any non-zero penalty.

use maras_bench::{generate_quarter, print_table, run_pipeline};
use maras_core::PipelineConfig;
use maras_mcac::{improvement, DecayFn, ExclusivenessConfig, Mcac};
use maras_rules::{classify, drug_adr_rules, DrugAdrRule, Measure, Supportedness};
use maras_signals::{ebgm_from_table, harpaz_rank, ContingencyTable, GammaMixturePrior};

fn main() {
    let corpus = generate_quarter(1);
    // Same support floor as exp_cases: keeps every planted interaction
    // (~70-110 reports) while suppressing 4-report coincidences.
    let config = PipelineConfig::default().with_min_support(10);
    let result = run_pipeline(&corpus, 0, config.clone());
    let db = &result.encoded.db;
    let partition = &result.encoded.partition;
    let adr_start = partition.adr_start;

    // Ground truth in item space.
    let truth: Vec<(Vec<u32>, Vec<u32>)> = corpus
        .planted
        .iter()
        .map(|(d, a)| (d.clone(), a.iter().map(|&x| x + adr_start).collect()))
        .collect();
    // A rule matches an interaction when its drug set is exactly the planted
    // combination and its consequent covers the planted ADRs.
    let matches = |rule: &DrugAdrRule, ti: usize| -> bool {
        let (drugs, adrs) = &truth[ti];
        rule.drugs.iter().map(|i| i.0).eq(drugs.iter().copied())
            && adrs.iter().all(|&a| rule.adrs.iter().any(|i| i.0 == a))
    };

    // ---------------- A1: measure ablation --------------------------------
    println!("\n=== A1: interestingness-measure ablation (planted-signal recovery) ===\n");
    let clusters: Vec<Mcac> = result.ranked.iter().map(|r| r.cluster.clone()).collect();

    type Scorer = Box<dyn Fn(&Mcac) -> f64>;
    let variants: Vec<(&str, Scorer)> = vec![
        (
            "Exclusiveness 3.5 (decay+CV)",
            Box::new(|c: &Mcac| ExclusivenessConfig::default().score(c)),
        ),
        ("Formula 3.4 (mean+CV)", Box::new(|c: &Mcac| ExclusivenessConfig::default().score_cv(c))),
        (
            "Formula 3.3 (mean only)",
            Box::new(|c: &Mcac| ExclusivenessConfig::default().score_mean(c)),
        ),
        (
            "Exclusiveness 3.5, flat decay",
            Box::new(|c: &Mcac| {
                ExclusivenessConfig { decay: DecayFn::Flat, ..Default::default() }.score(c)
            }),
        ),
        ("Improvement (Bayardo)", Box::new(|c: &Mcac| improvement(c, Measure::Confidence))),
        ("Plain confidence", Box::new(|c: &Mcac| c.target.confidence())),
        ("Plain lift", Box::new(|c: &Mcac| c.target.lift())),
    ];

    let mut rows = Vec::new();
    for (name, score) in &variants {
        let mut scored: Vec<(f64, &Mcac)> = clusters.iter().map(|c| (score(c), c)).collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let ranked: Vec<&DrugAdrRule> = scored.iter().map(|(_, c)| &c.target).collect();
        rows.push(metric_row(name, &ranked, &matches, truth.len()));
    }
    // Harpaz baseline ranks its own pool.
    let harpaz = harpaz_rank(db, partition, config.min_support);
    let harpaz_rules: Vec<&DrugAdrRule> = harpaz.iter().map(|h| &h.rule).collect();
    rows.push(metric_row("Harpaz RRR (closed pool)", &harpaz_rules, &matches, truth.len()));
    // DuMouchel MGPS/EBGM baseline over the same pool.
    let prior = GammaMixturePrior::default();
    let mut by_ebgm: Vec<(f64, &Mcac)> = clusters
        .iter()
        .map(|c| {
            let t = ContingencyTable::from_db(db, &c.target.drugs, &c.target.adrs);
            (ebgm_from_table(&t, &prior).ebgm, c)
        })
        .collect();
    by_ebgm.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let ebgm_rules: Vec<&DrugAdrRule> = by_ebgm.iter().map(|(_, c)| &c.target).collect();
    rows.push(metric_row("DuMouchel EBGM (closed pool)", &ebgm_rules, &matches, truth.len()));
    print_table(&["method", "recovered@10", "recovered@100", "mean reciprocal best rank"], &rows);

    // ---------------- A2: closedness ablation -----------------------------
    println!("\n=== A2: closed-itemset filter ablation ===\n");
    let unfiltered = drug_adr_rules(db, partition, config.min_support);
    let mut unsupported = 0usize;
    let mut implicit = 0usize;
    let mut explicit = 0usize;
    for r in &unfiltered {
        match classify(&r.complete_itemset(), db) {
            Supportedness::Unsupported => unsupported += 1,
            Supportedness::Implicit => implicit += 1,
            Supportedness::Explicit => explicit += 1,
        }
    }
    print_table(
        &["pool", "rules", "explicit", "implicit", "unsupported (misleading)"],
        &[
            vec![
                "unfiltered drug->ADR".into(),
                unfiltered.len().to_string(),
                explicit.to_string(),
                implicit.to_string(),
                unsupported.to_string(),
            ],
            vec![
                "closed (MARAS)".into(),
                result.counts.mcacs.to_string(),
                "-".into(),
                "-".into(),
                "0 by construction (Lemma 3.4.2)".into(),
            ],
        ],
    );
    println!(
        "\nclosedness removes {:.1}% of the unfiltered pool as spurious partial readings",
        100.0 * unsupported as f64 / unfiltered.len().max(1) as f64
    );

    // ---------------- A3: theta sensitivity -------------------------------
    println!("\n=== A3: CV-penalty strength (theta) sweep ===\n");
    let mut rows = Vec::new();
    for theta in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let cfg = ExclusivenessConfig { theta, ..Default::default() };
        let mut scored: Vec<(f64, &Mcac)> = clusters.iter().map(|c| (cfg.score(c), c)).collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let ranked: Vec<&DrugAdrRule> = scored.iter().map(|(_, c)| &c.target).collect();
        rows.push(metric_row(&format!("theta = {theta:.2}"), &ranked, &matches, truth.len()));
    }
    print_table(&["config", "recovered@10", "recovered@100", "mean reciprocal best rank"], &rows);
}

/// Per-interaction recovery: for each planted interaction, the rank of the
/// first matching rule; aggregated into recovered@10 / @100 and the mean
/// reciprocal best rank over the interactions.
fn metric_row(
    name: &str,
    ranked: &[&DrugAdrRule],
    matches: &dyn Fn(&DrugAdrRule, usize) -> bool,
    n_truth: usize,
) -> Vec<String> {
    let mut rec10 = 0usize;
    let mut rec100 = 0usize;
    let mut mrr_sum = 0.0f64;
    for ti in 0..n_truth {
        if let Some(best) = ranked.iter().position(|r| matches(r, ti)) {
            if best < 10 {
                rec10 += 1;
            }
            if best < 100 {
                rec100 += 1;
            }
            mrr_sum += 1.0 / (best + 1) as f64;
        }
    }
    vec![
        name.to_string(),
        format!("{rec10}/{n_truth}"),
        format!("{rec100}/{n_truth}"),
        format!("{:.3}", mrr_sum / n_truth as f64),
    ]
}
