//! Property tests on the cleaning stage: the §5.2 normalization must be
//! idempotent, misspelling correction must undo single edits on canonical
//! names, and the whole stage must be a deterministic function of its input.

use maras::faers::clean::normalize_drug_string;
use maras::faers::{clean_quarter, CleanConfig, QuarterId, SynthConfig, Synthesizer, Vocabulary};
use proptest::prelude::*;

proptest! {
    #[test]
    fn normalization_is_idempotent(raw in "[A-Za-z0-9 ]{0,30}") {
        let once = normalize_drug_string(&raw);
        let twice = normalize_drug_string(&once);
        prop_assert_eq!(&once, &twice, "raw {:?}", raw);
        // And uppercase with collapsed whitespace.
        prop_assert!(!once.contains("  "));
        prop_assert_eq!(once.clone(), once.to_ascii_uppercase());
    }

    #[test]
    fn single_edit_misspellings_are_corrected(
        drug_idx in 0usize..50,
        pos in 0usize..6,
        edit in 0u8..3,
        letter in 0u8..26,
    ) {
        // Take a seed drug, apply one edit, and require the vocabulary's
        // fuzzy lookup to land back on a term within distance 1 — usually
        // the original (another canonical name may be closer by ties, which
        // is also correct behaviour for a distance-1 match).
        let vocab = Vocabulary::drugs(300);
        let original = vocab.term(drug_idx as u32).to_string();
        prop_assume!(original.len() >= 5);
        let pos = 1 + pos % (original.len() - 2);
        let mut chars: Vec<char> = original.chars().collect();
        let c = (b'A' + letter) as char;
        match edit {
            0 => chars[pos] = c,
            1 => { chars.remove(pos); }
            _ => chars.insert(pos, c),
        }
        let misspelled: String = chars.into_iter().collect();
        let (id, dist) = vocab
            .nearest(&misspelled, 2)
            .expect("a 1-edit perturbation must stay within reach");
        prop_assert!(dist <= 1, "{misspelled:?} matched {} at {dist}", vocab.term(id));
        prop_assert!(
            maras::faers::levenshtein(vocab.term(id), &misspelled) <= 1,
            "match is not within one edit"
        );
    }
}

#[test]
fn cleaning_is_a_pure_function_of_its_input() {
    let mut synth = Synthesizer::new(SynthConfig::test_scale(123));
    let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
    let dv = synth.drug_vocab().clone();
    let av = synth.adr_vocab().clone();
    let (a, sa) = clean_quarter(&quarter, &dv, &av, &CleanConfig::default());
    let (b, sb) = clean_quarter(&quarter, &dv, &av, &CleanConfig::default());
    assert_eq!(a, b);
    assert_eq!(sa, sb);
}

#[test]
fn stricter_configs_never_produce_more_reports() {
    let mut synth = Synthesizer::new(SynthConfig::test_scale(124));
    let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
    let dv = synth.drug_vocab().clone();
    let av = synth.adr_vocab().clone();
    let loose = CleanConfig::default();
    let strict = CleanConfig { max_edit_distance: 0, ..CleanConfig::default() };
    let (a, _) = clean_quarter(&quarter, &dv, &av, &loose);
    let (b, _) = clean_quarter(&quarter, &dv, &av, &strict);
    assert!(b.len() <= a.len(), "strict {} vs loose {}", b.len(), a.len());
}
