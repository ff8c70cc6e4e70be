//! Differential suite for the spelling index: `Vocabulary::nearest` must
//! answer exactly as a brute-force scan does — the least (Levenshtein
//! distance, term) over every term within the radius — for every distinct
//! normalized drug string of several seeded years, each quarter read
//! leniently after row-level fault injection, and for case variants of one
//! year's ADR strings, at radius 0, 1 and 2.

use maras::faers::ascii::IngestOptions;
use maras::faers::clean::normalize_drug_string;
use maras::faers::{
    corrupt_quarter, levenshtein, FaultConfig, FaultKind, SynthConfig, Synthesizer, Vocabulary,
};
use std::collections::BTreeSet;

/// The oracle at radius 0, 1 and 2, from one scan: the least
/// (distance, term) over the whole vocabulary answers every radius it is
/// within, and no radius below its distance has an answer.
fn scan(vocab: &Vocabulary, query: &str) -> [Option<(u32, usize)>; 3] {
    let (d, _, id) = vocab
        .iter()
        .map(|(id, term)| (levenshtein(query, term), term, id))
        .min()
        .expect("non-empty vocabulary");
    [0, 1, 2].map(|radius| (d <= radius).then_some((id, d)))
}

/// Checks every query at every radius; returns how many resolved at
/// distance 0, 1 and 2 and how many found nothing within 2.
fn check(vocab: &Vocabulary, queries: &BTreeSet<String>, what: &str) -> [usize; 4] {
    let mut tally = [0; 4];
    for query in queries {
        let want = scan(vocab, query);
        for (radius, want) in want.iter().enumerate() {
            assert_eq!(vocab.nearest(query, radius), *want, "{what} {query:?} @ {radius}");
        }
        tally[want[2].map_or(3, |(_, d)| d)] += 1;
    }
    tally
}

#[test]
fn nearest_equals_a_brute_force_scan_on_faulty_years() {
    // Row-level faults only: a damaged header would lose a whole table.
    let row_faults: Vec<FaultKind> =
        FaultKind::ALL.into_iter().filter(|&k| k != FaultKind::HeaderDamage).collect();
    let mut tally = [0; 4];
    let mut add = |counts: [usize; 4]| tally.iter_mut().zip(counts).for_each(|(t, n)| *t += n);
    for seed in [7, 8, 9] {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(seed));
        let (mut drugs, mut adrs) = (BTreeSet::new(), BTreeSet::new());
        for quarter in synth.generate_year(2014) {
            let faults = FaultConfig::new(seed ^ u64::from(quarter.id.quarter), 0.02)
                .with_kinds(&row_faults);
            let read = corrupt_quarter(&quarter, &faults)
                .read(&IngestOptions::lenient())
                .expect("lenient read of row-level faults");
            assert!(!read.report.is_clean(), "seed {seed}: faults must land");
            for report in &read.data.reports {
                drugs.extend(report.drugs.iter().map(|d| normalize_drug_string(&d.name)));
                adrs.extend(report.reactions.iter().map(|a| a.to_string()));
            }
        }
        add(check(synth.drug_vocab(), &drugs, "drug"));
        if seed == 7 {
            // Every ADR string the cleaner sees resolves exactly or case-
            // folded, so probe the ADR index with case variants instead:
            // lower-casing costs an edit or two, upper-casing usually more.
            let lower = adrs.iter().map(|a| a.to_ascii_lowercase()).collect();
            add(check(synth.adr_vocab(), &lower, "lower-cased ADR"));
            let upper = adrs.iter().map(|a| a.to_ascii_uppercase()).collect();
            add(check(synth.adr_vocab(), &upper, "upper-cased ADR"));
        }
    }
    // Every outcome occurs: exact hits, one- and two-edit corrections, and
    // strings that nothing within two edits matches.
    assert!(tally.iter().all(|&n| n > 0), "outcomes by distance: {tally:?}");
}
