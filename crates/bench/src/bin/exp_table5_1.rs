//! E1 — Table 5.1: FAERS corpus statistics per 2014 quarter.
//!
//! Paper values (real FAERS, expedited reports only):
//! Q1 126,755 / 37,661 / 9,079 · Q2 138,278 / 37,780 / 9,324 ·
//! Q3 121,725 / 33,133 / 9,418 · Q4 121,490 / 32,721 / 9,234.
//! Ours are a ≈1:6-scale synthetic analogue (DESIGN.md substitution 1); the
//! shape to check is: report counts stable across quarters, verbatim drug
//! strings ≫ canonical vocabulary (noise), ADR terms roughly constant.

use maras_bench::{generate_corpus, print_table};

fn main() {
    let corpus = generate_corpus();
    println!("\n=== Table 5.1 (synthetic analogue): FAERS Data From 2014 ===\n");
    let mut rows = vec![
        vec!["Reports".to_string()],
        vec!["Drugs (verbatim strings)".to_string()],
        vec!["ADRs (distinct terms)".to_string()],
        vec!["Expedited (EXP)".to_string()],
        vec!["Serious cases".to_string()],
    ];
    let mut headers: Vec<String> = vec![String::new()];
    for q in &corpus.quarters {
        let exp = q.clone().expedited_only();
        let s = exp.stats();
        headers.push(format!("Q{}", q.id.quarter));
        rows[0].push(s.reports.to_string());
        rows[1].push(s.distinct_drugs.to_string());
        rows[2].push(s.distinct_adrs.to_string());
        rows[3].push(s.expedited.to_string());
        rows[4].push(s.serious.to_string());
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);
    println!("\npaper (real FAERS 2014, EXP only):");
    print_table(
        &["", "Q1", "Q2", "Q3", "Q4"],
        &[
            vec![
                "Reports".into(),
                "126,755".into(),
                "138,278".into(),
                "121,725".into(),
                "121,490".into(),
            ],
            vec![
                "Drugs".into(),
                "37,661".into(),
                "37,780".into(),
                "33,133".into(),
                "32,721".into(),
            ],
            vec!["ADRs".into(), "9,079".into(), "9,324".into(), "9,418".into(), "9,234".into()],
        ],
    );
}
