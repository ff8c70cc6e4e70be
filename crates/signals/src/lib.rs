//! Disproportionality-analysis baselines (thesis §1.2, §6).
//!
//! The statistical pharmacovigilance methods MARAS positions itself
//! against: relative reporting ratio, PRR, ROR, χ² (Tatonetti et al.,
//! Harpaz et al. — refs \[17\], \[26–28\]), plus an interaction-contrast score
//! for multi-drug signals. The [`engine`] module bundles every measure into
//! one batch scoring pass over mined rules, fed from counts already held:
//! each rule's stored tid-list marginals and, for the interaction contrast,
//! its single-drug contextual rules ([`maras_rules::ContextRule`]s: a drug
//! mask and two counts). `maras-mcac` runs it on every ranked
//! cluster and the snapshot/server layers carry the resulting
//! [`SignalScores`] block to clients. [`RankKey`] names the score in that
//! block a ranking orders by, for `--rank-by` and `?sort_by=` alike.

#![warn(missing_docs)]

pub mod contingency;
pub mod disproportionality;
pub mod ebgm;
pub mod engine;
pub mod gamma;
pub mod ic;
pub mod interaction;
pub mod metrics;

pub use contingency::{ContingencyError, ContingencyTable};
pub use disproportionality::{
    chi_square_yates, evans_signal, prr, ror, rrr, ConfidenceInterval, RankKey, SignalScores,
};
pub use ebgm::{ebgm, ebgm_from_table, EbgmScores, GammaMixturePrior};
pub use engine::score_rules;
pub use ic::{information_component, InformationComponent};
pub use interaction::{harpaz_rank, interaction_contrast, HarpazSignal};
pub use metrics::SignalsMetrics;
