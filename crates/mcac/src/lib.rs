//! Multi-level Contextual Association Clusters and the exclusiveness score —
//! the paper's primary contribution (thesis §3.5–3.6).
//!
//! A multi-drug rule `R ≡ A ⇒ B` is an interesting drug-drug-interaction
//! signal only if the ADRs `B` are *exclusively* associated with the full
//! drug combination `A`, not with any drug subset. The MCAC groups `R` (the
//! *target rule*) with every contextual rule `X ⇒ B`, `X ⊂ A` (Defs
//! 3.5.1–3.5.2), leveled by antecedent cardinality: one
//! [`maras_rules::ContextRule`] per subset, as the miner produced it and the
//! snapshot stores it. The exclusiveness score contrasts the target's
//! strength against its context (Formulas 3.3–3.5), with Bayardo's
//! *improvement* (Formula 3.2) as the baseline it refines.

#![warn(missing_docs)]

pub mod cluster;
pub mod exclusiveness;
pub mod rank;

pub use cluster::{build_clusters, Mcac};
pub use exclusiveness::{coefficient_of_variation, improvement, DecayFn, ExclusivenessConfig};
pub use rank::{rank_clusters, rank_clusters_with, rank_rules_by, RankedMcac, RankingMethod};
