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
//! * [`targets`] — the MCAC target rules and their contexts, read from the
//!   mining pass's support index: one [`ContextRule`] (a drug mask and two
//!   counts) per proper drug subset, the contextual rule of every layer.
//! * [`supportedness`] — the thesis's three association types (explicitly
//!   supported, implicitly supported, partial/unsupported; Defs 3.3.1–3.3.2)
//!   classified directly from reports, used to validate Lemma 3.4.2.

#![warn(missing_docs)]

pub mod generate;
pub mod measures;
pub mod partition;
pub mod rule;
pub mod supportedness;
pub mod targets;

pub use generate::{
    closed_drug_adr_rules, drug_adr_rules, multi_drug_rules, rule_space, RuleSpace, RuleSpaceCounts,
};
pub use measures::{confidence, lift, Measure, RuleStats};
pub use partition::ItemPartition;
pub use rule::DrugAdrRule;
pub use supportedness::{classify, Supportedness};
pub use targets::{is_complete_context, ContextRule, TargetRules};
