//! The end-to-end MARAS pipeline (thesis §1.4, §5.2) and the headless
//! counterpart of the §4.1 interactive interface.
//!
//! Stages, in the thesis's order:
//!
//! 1. **extract & clean** (`maras-faers`): abstract each case into its
//!    canonical (drug set, ADR set);
//! 2. **encode** ([`encode`]): map both vocabularies into one dense item
//!    space (drugs below, ADRs above the partition boundary) and build the
//!    transaction database;
//! 3. **mine** (`maras-mining` / `maras-rules`): closed drug→ADR
//!    associations;
//! 4. **cluster & rank** (`maras-mcac`): MCACs scored by exclusiveness;
//! 5. **explore** ([`query`], [`knowledge`], [`link`]): search by drug /
//!    ADR / severity, flag already-known interactions, and drill down from
//!    any rule to the raw FAERS reports supporting it.

#![warn(missing_docs)]

pub mod config;
pub mod encode;
pub mod ingest;
pub mod knowledge;
pub mod link;
pub mod pipeline;
pub mod query;
pub mod trend;

pub use config::{PipelineConfig, RankBy};
pub use encode::{encode_reports, Encoded};
pub use ingest::{run_quarter_dir, run_quarters_dir, MultiQuarterRun, QuarterOutcome, QuarterRun};
pub use knowledge::KnowledgeBase;
pub use link::{supporting_reports, supporting_tids};
pub use pipeline::{AnalysisResult, Pipeline, RuleView};
pub use query::{canonical_query_term, RuleQuery};
pub use trend::{SignalTrend, TrendPoint, TrendTracker};
