//! Drug–ADR association rule model (thesis §2–3.4).
//!
//! Builds on `maras-mining` to express the paper's rule layer:
//!
//! * [`measures`] — support / confidence / lift (Formulas 2.1–2.3) and the
//!   pluggable [`measures::Measure`] the exclusiveness score later
//!   swaps between confidence and lift.
//! * [`partition`] — the drug/ADR split of the item id space
//!   (`I_drug ∩ I_ade ≡ ∅`, `I_drug ∪ I_ade ≡ I`, §3.1).
//! * [`rule`] / [`generate`] — association rules and their generation from
//!   frequent itemsets: the full `A ⇒ B` split space ("total rules" of
//!   Fig. 5.1), the drug→ADR filtered space, and the closed drug-ADR
//!   associations MARAS keeps.
//! * [`supportedness`] — the thesis's three association types (explicitly
//!   supported, implicitly supported, partial/unsupported; Defs 3.3.1–3.3.2)
//!   classified directly from reports, used to validate Lemma 3.4.2.

#![warn(missing_docs)]

pub mod generate;
pub mod measures;
pub mod partition;
pub mod rule;
pub mod supportedness;

pub use generate::{
    closed_drug_adr_rules, drug_adr_rules, multi_drug_rules, rule_space, RuleSpace, RuleSpaceCounts,
};
pub use measures::{confidence, lift, Measure, RuleStats};
pub use partition::ItemPartition;
pub use rule::DrugAdrRule;
pub use supportedness::{classify, Supportedness};
