//! Domain-knowledge integration (thesis §1.3/§4.1): "integrating domain
//! knowledge into the system would be beneficial to highlight interactions
//! that are not unknown".
//!
//! A [`KnowledgeBase`] holds *already documented* drug-drug interactions
//! (what Drugs.com / DrugBank would supply). The interface uses it to let an
//! evaluator flip between "show me everything" and "show me only the
//! unknown interactions" — the thesis's definition of what a drug-safety
//! evaluator actually wants to triage.

use std::collections::{BTreeMap, BTreeSet};

/// One documented interaction: a drug set, optionally tied to specific ADRs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnownInteraction {
    /// Canonical drug names, stored sorted.
    pub drugs: BTreeSet<String>,
    /// Literature source / note (e.g. "Drugs.com: therapeutic duplication").
    pub source: String,
}

/// A set of documented drug-drug interactions, plus per-drug *label*
/// knowledge (ADRs already documented for a single drug).
///
/// The two stores implement the thesis's two flavours of "already known"
/// (§1.3: "interestingness in unknown ADRs versus unknown drug-drug
/// interactions"): an interaction can be uninteresting because the drug
/// *combination* is documented, or because the reaction is already on some
/// constituent drug's label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KnowledgeBase {
    entries: Vec<KnownInteraction>,
    /// drug (uppercase) → ADR terms documented on its label.
    labels: BTreeMap<String, BTreeSet<String>>,
}

impl KnowledgeBase {
    /// An empty knowledge base (everything counts as unknown).
    pub fn new() -> Self {
        Self::default()
    }

    /// The interactions the thesis validates against the literature (§5.4's
    /// three case studies plus the intro's Aspirin/Warfarin example).
    pub fn literature_validated() -> Self {
        let mut kb = KnowledgeBase::new();
        kb.add(&["IBUPROFEN", "METAMIZOLE"], "WHO Pharmaceuticals Newsletter 2014 / VigiBase");
        kb.add(&["METHOTREXATE", "PROGRAF"], "Drugs.com & DrugBank: additive nephrotoxicity");
        kb.add(&["PREVACID", "NEXIUM"], "Drugs.com: PPI therapeutic duplication");
        kb.add(&["ASPIRIN", "WARFARIN"], "Chan 1995: excessive bleeding");
        // Label knowledge the thesis cites: the FDA's PPI label revision
        // adding osteoporosis/fracture warnings (§5.4 Case III), plus
        // well-known single-drug reactions used by the examples.
        kb.add_label("PREVACID", "Osteoporosis");
        kb.add_label("NEXIUM", "Osteoporosis");
        kb.add_label("PRILOSEC", "Osteoporosis");
        kb.add_label("ZOMETA", "Osteonecrosis of jaw");
        kb.add_label("WARFARIN", "Haemorrhage");
        kb.add_label("IBUPROFEN", "Gastrointestinal haemorrhage");
        kb
    }

    /// Documents an ADR on a single drug's label.
    pub fn add_label(&mut self, drug: &str, adr: &str) {
        self.labels.entry(drug.to_ascii_uppercase()).or_default().insert(adr.to_string());
    }

    /// Whether the ADR is on the drug's label.
    pub fn is_labeled(&self, drug: &str, adr: &str) -> bool {
        self.labels.get(&drug.to_ascii_uppercase()).is_some_and(|adrs| adrs.contains(adr))
    }

    /// Whether an (drug set, ADR set) association carries at least one ADR
    /// that is *not* on any constituent drug's label — the "unknown ADR"
    /// interestingness preference.
    pub fn has_novel_adr(&self, drugs: &[&str], adrs: &[&str]) -> bool {
        adrs.iter().any(|adr| !drugs.iter().any(|drug| self.is_labeled(drug, adr)))
    }

    /// Adds an interaction over canonical drug names.
    pub fn add(&mut self, drugs: &[&str], source: &str) {
        assert!(drugs.len() >= 2, "an interaction involves at least two drugs");
        self.entries.push(KnownInteraction {
            drugs: drugs.iter().map(|d| d.to_ascii_uppercase()).collect(),
            source: source.to_string(),
        });
    }

    /// Number of documented interactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the base is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the exact drug combination is documented.
    pub fn is_known(&self, drugs: &[&str]) -> bool {
        self.lookup(drugs).is_some()
    }

    /// The documented entry for the exact drug combination, if any.
    pub fn lookup(&self, drugs: &[&str]) -> Option<&KnownInteraction> {
        let key: BTreeSet<String> = drugs.iter().map(|d| d.to_ascii_uppercase()).collect();
        self.entries.iter().find(|e| e.drugs == key)
    }

    /// Iterates over the documented interactions.
    pub fn iter(&self) -> impl Iterator<Item = &KnownInteraction> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_is_order_and_case_insensitive() {
        let kb = KnowledgeBase::literature_validated();
        assert!(kb.is_known(&["METAMIZOLE", "IBUPROFEN"]));
        assert!(kb.is_known(&["ibuprofen", "metamizole"]));
        assert!(!kb.is_known(&["IBUPROFEN"]));
        assert!(!kb.is_known(&["IBUPROFEN", "ASPIRIN"]));
    }

    #[test]
    fn lookup_returns_source() {
        let kb = KnowledgeBase::literature_validated();
        let e = kb.lookup(&["PREVACID", "NEXIUM"]).unwrap();
        assert!(e.source.contains("Drugs.com"));
    }

    #[test]
    fn exact_match_ignores_supersets() {
        let kb = KnowledgeBase::literature_validated();
        assert!(kb.is_known(&["ASPIRIN", "WARFARIN"]));
        assert!(!kb.is_known(&["ASPIRIN", "WARFARIN", "NEXIUM"]));
    }

    #[test]
    fn custom_entries() {
        let mut kb = KnowledgeBase::new();
        assert!(kb.is_empty());
        kb.add(&["DrugA", "DrugB", "DrugC"], "internal review");
        assert_eq!(kb.len(), 1);
        assert!(kb.is_known(&["DRUGC", "DRUGA", "DRUGB"]));
    }

    #[test]
    #[should_panic(expected = "at least two drugs")]
    fn single_drug_entry_rejected() {
        KnowledgeBase::new().add(&["ASPIRIN"], "nope");
    }

    #[test]
    fn label_knowledge_is_case_insensitive_on_drug() {
        let kb = KnowledgeBase::literature_validated();
        assert!(kb.is_labeled("prevacid", "Osteoporosis"));
        assert!(!kb.is_labeled("PREVACID", "Asthma"));
        assert!(kb.is_labeled("zometa", "Osteonecrosis of jaw"));
    }

    #[test]
    fn novel_adr_detection() {
        let kb = KnowledgeBase::literature_validated();
        // Osteoporosis is on both PPI labels: not novel for the pair.
        assert!(!kb.has_novel_adr(&["PREVACID", "NEXIUM"], &["Osteoporosis"]));
        // Acute renal failure is on neither label: novel.
        assert!(kb.has_novel_adr(&["IBUPROFEN", "METAMIZOLE"], &["Acute renal failure"]));
        // Mixed consequent: one novel ADR is enough.
        assert!(kb.has_novel_adr(&["PREVACID", "NEXIUM"], &["Osteoporosis", "Pain"]));
        // Empty consequent has no novel ADR.
        assert!(!kb.has_novel_adr(&["PREVACID"], &[]));
    }
}
