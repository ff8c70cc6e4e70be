//! Encoding cleaned reports into the mining item space.
//!
//! Drugs occupy item ids `0..n_drugs`, ADRs `n_drugs..n_drugs+n_adrs` —
//! the layout `maras_rules::ItemPartition` splits on. Transaction `tid` is
//! cleaned report `tid`, whose `case_id` and `source_index` carry the
//! drill-down (§4.1 "Mapping the drug-drug interactions to actual
//! reports").

use maras_faers::{CleanedReport, Vocabulary};
use maras_mining::{Item, ItemSet, TransactionDb};
use maras_rules::ItemPartition;

/// A transaction database plus the partition needed to decode items back
/// to names.
#[derive(Debug)]
pub struct Encoded {
    /// One transaction per cleaned report, in order: drug items ∪ ADR items.
    pub db: TransactionDb,
    /// The drug/ADR boundary.
    pub partition: ItemPartition,
}

/// Encodes cleaned reports against the vocabularies that produced them.
pub fn encode_reports(
    reports: &[CleanedReport],
    drug_vocab: &Vocabulary,
    adr_vocab: &Vocabulary,
) -> Encoded {
    let adr_start = drug_vocab.len() as u32;
    let partition = ItemPartition::new(adr_start);
    let mut transactions = Vec::with_capacity(reports.len());
    for r in reports {
        debug_assert!(r.drug_ids.iter().all(|&d| d < adr_start));
        debug_assert!(r.adr_ids.iter().all(|&a| (a as usize) < adr_vocab.len()));
        let items: Vec<Item> = r
            .drug_ids
            .iter()
            .map(|&d| Item(d))
            .chain(r.adr_ids.iter().map(|&a| Item(adr_start + a)))
            .collect();
        // Drug ids arrive sorted+deduped from cleaning, ADR ids likewise, and
        // the `adr_start` offset keeps the chained sequence strictly
        // ascending — no re-sort needed.
        transactions.push(ItemSet::from_sorted_unchecked(items));
    }
    Encoded { db: TransactionDb::from_itemsets(transactions), partition }
}

impl Encoded {
    /// Human-readable name of any item, via the vocabularies.
    pub fn item_name<'v>(
        &self,
        item: Item,
        drug_vocab: &'v Vocabulary,
        adr_vocab: &'v Vocabulary,
    ) -> &'v str {
        if self.partition.is_drug(item) {
            drug_vocab.term(item.0)
        } else {
            adr_vocab.term(self.partition.adr_index(item))
        }
    }

    /// Renders an itemset as a name list.
    pub fn names(
        &self,
        items: &ItemSet,
        drug_vocab: &Vocabulary,
        adr_vocab: &Vocabulary,
    ) -> Vec<String> {
        items.iter().map(|i| self.item_name(i, drug_vocab, adr_vocab).to_string()).collect()
    }

    /// Item id of a canonical drug name, if present.
    pub fn drug_item(&self, name: &str, drug_vocab: &Vocabulary) -> Option<Item> {
        drug_vocab.id_of(name).map(Item)
    }

    /// Item id of a canonical ADR term, if present.
    pub fn adr_item(&self, term: &str, adr_vocab: &Vocabulary) -> Option<Item> {
        adr_vocab.id_of(term).map(|id| self.partition.adr_item(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_faers::model::Outcome;

    fn cleaned(case_id: u64, drugs: &[u32], adrs: &[u32], source: usize) -> CleanedReport {
        CleanedReport {
            case_id,
            drug_ids: drugs.to_vec(),
            adr_ids: adrs.to_vec(),
            serious: true,
            max_severity: Some(Outcome::Hospitalization),
            source_index: source,
        }
    }

    #[test]
    fn encoding_offsets_adrs() {
        let dv = Vocabulary::drugs(150);
        let av = Vocabulary::adrs(150);
        let reports = vec![cleaned(1, &[0, 5], &[0, 3], 0), cleaned(2, &[5], &[3], 1)];
        let e = encode_reports(&reports, &dv, &av);
        assert_eq!(e.db.len(), 2);
        assert_eq!(e.partition.adr_start, 150);
        let t0 = e.db.transaction(0);
        assert!(t0.contains(Item(0)));
        assert!(t0.contains(Item(5)));
        assert!(t0.contains(Item(150)));
        assert!(t0.contains(Item(153)));
        assert!(!e.db.transaction(1).contains(Item(0)));
    }

    #[test]
    fn item_names_decode() {
        let dv = Vocabulary::drugs(150);
        let av = Vocabulary::adrs(150);
        let e = encode_reports(&[cleaned(1, &[0], &[0], 0)], &dv, &av);
        assert_eq!(e.item_name(Item(0), &dv, &av), dv.term(0));
        assert_eq!(e.item_name(Item(150), &dv, &av), av.term(0));
        let names = e.names(&ItemSet::from_ids([0u32, 150]), &dv, &av);
        assert_eq!(names.len(), 2);
        assert_eq!(names[0], dv.term(0));
    }

    #[test]
    fn lookup_by_name() {
        let dv = Vocabulary::drugs(150);
        let av = Vocabulary::adrs(150);
        let e = encode_reports(&[], &dv, &av);
        let aspirin = e.drug_item("ASPIRIN", &dv).unwrap();
        assert!(e.partition.is_drug(aspirin));
        let osteo = e.adr_item("Osteoporosis", &av).unwrap();
        assert!(e.partition.is_adr(osteo));
        assert!(e.drug_item("NOTADRUG", &dv).is_none());
    }
}
