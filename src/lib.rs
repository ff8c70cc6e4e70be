//! # MARAS — Multi-Drug Adverse Reactions Analytics
//!
//! A full Rust implementation of the MARAS / MeDIAR system (Kakar, WPI
//! 2016; ICDE'18 demo): detection of severe adverse drug reactions caused
//! by *combinations* of drugs, mined from FAERS-style spontaneous-report
//! data with closed association rules, contextualized by Multi-level
//! Contextual Association Clusters and ranked by the exclusiveness score.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`faers`] | `maras-faers` | report model, quarterly ASCII format, synthetic generator, cleaning |
//! | [`mining`] | `maras-mining` | FP-Growth, closed itemsets, Apriori, transaction DB |
//! | [`rules`] | `maras-rules` | drug→ADR rules, measures, supportedness (Lemma 3.4.2) |
//! | [`mcac`] | `maras-mcac` | contextual clusters, exclusiveness, improvement |
//! | [`signals`] | `maras-signals` | PRR / ROR / RRR / χ² / interaction-contrast baselines |
//! | [`viz`] | `maras-viz` | contextual glyph, bar charts, panoramagram (SVG) |
//! | [`study`] | `maras-study` | simulated user-study harness |
//! | [`core`] | `maras-core` | end-to-end pipeline, query API, knowledge base, drill-down |
//! | [`evidence`] | `maras-evidence` | on-disk case archive: columnar blocks, postings, block-cached reader |
//! | [`format`](mod@format) | `maras-format` | the on-disk container both files share: header, bounded cursor, typed errors, durable atomic writes |
//! | [`serve`] | `maras-serve` | indexed snapshots, binary store, HTTP query server |
//! | [`obs`] | `maras-obs` | span tracing, metrics registry, Prometheus + Chrome-trace export |
//! | [`tidset`] | `maras-tidset` | hybrid array/bitmap compressed tid-sets, shared set-algebra kernels |
//!
//! ## Quickstart
//!
//! ```
//! use maras::core::{Pipeline, PipelineConfig};
//! use maras::faers::{QuarterId, SynthConfig, Synthesizer};
//!
//! // 1. A (synthetic) quarter of FAERS reports.
//! let mut synth = Synthesizer::new(SynthConfig::test_scale(7));
//! let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
//!
//! // 2. Run MARAS: clean -> mine closed rules -> cluster -> rank.
//! let pipeline = Pipeline::new(PipelineConfig::default());
//! let result = pipeline.run(quarter, synth.drug_vocab(), synth.adr_vocab());
//!
//! // 3. The ranked drug-drug-interaction signals.
//! for view in result.views(3, synth.drug_vocab(), synth.adr_vocab()) {
//!     println!("{view}");
//! }
//! # assert!(!result.ranked.is_empty());
//! ```

#![warn(missing_docs)]

pub mod report;

pub use maras_core as core;
pub use maras_evidence as evidence;
pub use maras_faers as faers;
pub use maras_format as format;
pub use maras_mcac as mcac;
pub use maras_mining as mining;
pub use maras_obs as obs;
pub use maras_rules as rules;
pub use maras_serve as serve;
pub use maras_signals as signals;
pub use maras_study as study;
pub use maras_tidset as tidset;
pub use maras_viz as viz;
