//! E3 — Table 5.2: top-5 multi-drug associations from 2014 Q1 under four
//! rankings: Confidence, Lift (both over the *unfiltered* rule pool),
//! Exclusiveness-with-Confidence and Exclusiveness-with-Lift (over the
//! closed MCAC pool).
//!
//! Shape to check (§5.3): the confidence/lift columns are dominated by
//! near-duplicate redundant rules, while the exclusiveness columns are
//! diverse and surface the planted drug-drug interactions; lift-based
//! rankings favour rarer ADRs.

use maras_bench::{generate_quarter, print_table, rule_names, run_pipeline};
use maras_core::PipelineConfig;
use maras_mcac::{rank_clusters, rank_rules_by, RankingMethod};
use maras_rules::{drug_adr_rules, rule_space, Measure};

const TOP_K: usize = 5;

fn main() {
    let corpus = generate_quarter(1);
    let config = PipelineConfig::default();
    let result = run_pipeline(&corpus, 0, config.clone());
    println!(
        "\n=== Table 5.2 (synthetic analogue): top {TOP_K} multi-drug associations, 2014 Q1 ===\n"
    );

    // Columns 1 & 2: plain confidence / lift over the unfiltered pool
    // (multi-drug only, to match the table's subject).
    let pool: Vec<_> =
        drug_adr_rules(&result.encoded.db, &result.encoded.partition, config.min_support)
            .into_iter()
            .filter(|r| r.is_multi_drug())
            .collect();
    let by_conf = rank_rules_by(pool.clone(), Measure::Confidence);
    let by_lift = rank_rules_by(pool.clone(), Measure::Lift);

    // Columns 3 & 4: exclusiveness over the closed pool, each target with
    // the context counts the mining pass took.
    let db = &result.encoded.db;
    let targets = rule_space(db, &result.encoded.partition, config.min_support, 1).multi_drug_rules;
    let excl_conf = rank_clusters(targets.clone(), db, RankingMethod::exclusiveness_confidence());
    let excl_lift = rank_clusters(targets, db, RankingMethod::exclusiveness_lift());

    let mut rows = Vec::new();
    for i in 0..TOP_K {
        let cell = |r: Option<String>| r.unwrap_or_else(|| "-".into());
        rows.push(vec![
            (i + 1).to_string(),
            cell(by_conf.get(i).map(|r| rule_names(&result, r, &corpus))),
            cell(by_lift.get(i).map(|r| rule_names(&result, r, &corpus))),
            cell(excl_conf.get(i).map(|r| rule_names(&result, &r.cluster.target, &corpus))),
            cell(excl_lift.get(i).map(|r| rule_names(&result, &r.cluster.target, &corpus))),
        ]);
    }
    print_table(
        &["Rank", "Confidence", "Lift", "Exclusiveness w/ Confidence", "Exclusiveness w/ Lift"],
        &rows,
    );

    // Diversity check (§5.3's qualitative claim, quantified): distinct drugs
    // covered by each column's top 5.
    let distinct = |names: Vec<String>| {
        let mut drugs: Vec<String> = names
            .iter()
            .flat_map(|n| {
                n.trim_start_matches('[')
                    .split("] => ")
                    .next()
                    .unwrap_or("")
                    .split(" + ")
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .collect();
        drugs.sort();
        drugs.dedup();
        drugs.len()
    };
    let conf_names: Vec<String> =
        by_conf.iter().take(TOP_K).map(|r| rule_names(&result, r, &corpus)).collect();
    let excl_names: Vec<String> = excl_conf
        .iter()
        .take(TOP_K)
        .map(|r| rule_names(&result, &r.cluster.target, &corpus))
        .collect();
    println!(
        "\ndiversity: confidence column covers {} distinct drugs; exclusiveness column covers {}",
        distinct(conf_names),
        distinct(excl_names)
    );
}
