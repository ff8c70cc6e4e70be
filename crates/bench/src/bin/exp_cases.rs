//! E5 — §5.4 case studies: MARAS must rediscover the literature-validated
//! drug-drug interactions planted in the synthetic stream, rank them near
//! the top, and show weak single-drug context (the exclusiveness
//! signature). The thesis reports: Case I (Ibuprofen+Metamizole → acute
//! renal failure) ranked 3rd in Q2; Case II (Methotrexate+Prograf → drug
//! ineffective) ranked 2nd; Case III (Prevacid+Nexium → osteoporosis)
//! ranked 4th.

use maras_bench::{generate_corpus, print_table, run_pipeline};
use maras_core::{supporting_reports, KnowledgeBase, PipelineConfig};

struct Case {
    label: &'static str,
    drugs: &'static [&'static str],
    adrs: &'static [&'static str],
    paper_rank: &'static str,
    quarter_index: usize, // Case I came from Q2 in the thesis
}

const CASES: &[Case] = &[
    Case {
        label: "Case I: Ibuprofen + Metamizole",
        drugs: &["IBUPROFEN", "METAMIZOLE"],
        adrs: &["Acute renal failure"],
        paper_rank: "3 (Q2)",
        quarter_index: 1,
    },
    Case {
        label: "Case II: Methotrexate + Prograf",
        drugs: &["METHOTREXATE", "PROGRAF"],
        adrs: &["Drug ineffective"],
        paper_rank: "2",
        quarter_index: 0,
    },
    Case {
        label: "Case III: Prevacid + Nexium",
        drugs: &["PREVACID", "NEXIUM"],
        adrs: &["Osteoporosis"],
        paper_rank: "4",
        quarter_index: 0,
    },
];

fn main() {
    let corpus = generate_corpus();
    // The planted interactions are co-reported ~0.4% of the time (≈70–110
    // reports/quarter at paper scale). A support floor of 10 keeps them
    // comfortably while suppressing the random 4-report coincidences the
    // synthetic tail produces far more often than real FAERS does.
    let config = PipelineConfig::default().with_min_support(10);
    let kb = KnowledgeBase::literature_validated();
    println!("\n=== §5.4 case studies (planted ground truth) ===\n");

    let mut rows = Vec::new();
    let mut results_cache: Vec<Option<maras_core::AnalysisResult>> =
        (0..corpus.quarters.len()).map(|_| None).collect();
    for case in CASES {
        if results_cache[case.quarter_index].is_none() {
            results_cache[case.quarter_index] =
                Some(run_pipeline(&corpus, case.quarter_index, config.clone()));
        }
        let result = results_cache[case.quarter_index].as_ref().expect("cached");
        let rank = result.rank_of(case.drugs, case.adrs, &corpus.drug_vocab, &corpus.adr_vocab);
        let (rank_str, detail) = match rank {
            Some(r) => {
                let rm = &result.ranked[r];
                let n_support = supporting_reports(result, &rm.cluster.target).len();
                let target = &rm.cluster.target.stats;
                let max_single_conf = rm
                    .cluster
                    .singleton_level()
                    .iter()
                    .map(|c| c.stats(target).confidence())
                    .fold(0.0f64, f64::max);
                (
                    format!("{} of {}", r + 1, result.ranked.len()),
                    format!(
                        "score={:.3} conf={:.2} single-drug max conf={:.2} reports={}",
                        rm.score,
                        rm.cluster.target.confidence(),
                        max_single_conf,
                        n_support
                    ),
                )
            }
            None => ("NOT MINED".to_string(), String::new()),
        };
        rows.push(vec![
            case.label.to_string(),
            case.paper_rank.to_string(),
            rank_str,
            if kb.is_known(case.drugs) { "known (validated)".into() } else { "unknown".into() },
            detail,
        ]);
    }
    print_table(&["case", "paper rank", "our rank", "knowledge base", "details"], &rows);

    // The §5.4 closing claim: detection is not limited to documented
    // interactions — show the best-ranked *undocumented* combination too.
    let result = results_cache[0].as_ref().expect("Q1 analyzed");
    for r in result.ranked.iter().take(20) {
        let names =
            result.encoded.names(&r.cluster.target.drugs, &corpus.drug_vocab, &corpus.adr_vocab);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        if !kb.is_known(&refs) {
            let adrs =
                result.encoded.names(&r.cluster.target.adrs, &corpus.drug_vocab, &corpus.adr_vocab);
            println!(
                "\ntop undocumented signal: [{}] => [{}] (score {:.3}) — the 'unknown DDI' MARAS surfaces for triage",
                names.join(" + "),
                adrs.join(", "),
                r.score
            );
            break;
        }
    }
}
