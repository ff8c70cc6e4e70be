//! Fault-tolerant multi-quarter runs: graceful pipeline degradation.
//!
//! A production MARAS deployment analyzes whatever quarters the FDA has
//! published, and real extracts are dirty. This module threads the
//! `maras-faers` lenient-ingestion machinery ([`IngestOptions`],
//! [`IngestReport`]) through the pipeline so one bad quarter does not take
//! down a year-long run:
//!
//! * a quarter that ingests cleanly analyzes as [`QuarterOutcome::Ok`];
//! * a quarter with quarantined rows still analyzes — on the surviving
//!   reports — as [`QuarterOutcome::Degraded`], carrying the ingest report
//!   that says exactly what was skipped and why;
//! * a quarter whose ingest fails hard (I/O error, strict-mode offense, or
//!   a blown error budget) becomes [`QuarterOutcome::Failed`] and the run
//!   continues with the remaining quarters.
//!
//! Cross-quarter trend tracking stays aligned: failed quarters are fed to
//! [`TrendTracker::skip_quarter`], so every trajectory still spans every
//! requested quarter (with explicit absent points), and downstream
//! consumers — queries, reports — operate per-result exactly as
//! in an all-clean run.

use crate::pipeline::{AnalysisResult, Pipeline};
use crate::trend::TrendTracker;
use maras_faers::ascii::{
    read_quarter_dir_with, AsciiError, IngestMetrics, IngestOptions, IngestReport,
};
use maras_faers::{Cleaner, QuarterId, Vocabulary};
use std::path::Path;

/// What one quarter produced in a fault-tolerant run.
#[derive(Debug)]
pub enum QuarterOutcome {
    /// Clean ingest, full analysis.
    Ok {
        /// The quarter's analysis.
        result: AnalysisResult,
        /// The (clean) ingest accounting.
        report: IngestReport,
        /// Where the read spent its time.
        metrics: IngestMetrics,
    },
    /// Analysis completed on partial data: some rows were quarantined.
    Degraded {
        /// The analysis over the rows that survived ingestion.
        result: AnalysisResult,
        /// What was quarantined, and why.
        report: IngestReport,
        /// Where the read spent its time.
        metrics: IngestMetrics,
    },
    /// Ingest failed hard; the quarter contributed nothing.
    Failed {
        /// The terminal ingest error.
        error: AsciiError,
    },
}

/// One quarter's slot in a multi-quarter run.
#[derive(Debug)]
pub struct QuarterRun {
    /// Which quarter.
    pub id: QuarterId,
    /// What happened.
    pub outcome: QuarterOutcome,
}

impl QuarterRun {
    /// The analysis result, if the quarter was analyzed at all.
    pub fn result(&self) -> Option<&AnalysisResult> {
        match &self.outcome {
            QuarterOutcome::Ok { result, .. } | QuarterOutcome::Degraded { result, .. } => {
                Some(result)
            }
            QuarterOutcome::Failed { .. } => None,
        }
    }

    /// The ingest report, if ingestion got far enough to produce one.
    pub fn ingest_report(&self) -> Option<&IngestReport> {
        match &self.outcome {
            QuarterOutcome::Ok { report, .. } | QuarterOutcome::Degraded { report, .. } => {
                Some(report)
            }
            QuarterOutcome::Failed { .. } => None,
        }
    }

    /// The ingest wall-time/interner metrics, for analyzed quarters.
    pub fn ingest_metrics(&self) -> Option<&IngestMetrics> {
        match &self.outcome {
            QuarterOutcome::Ok { metrics, .. } | QuarterOutcome::Degraded { metrics, .. } => {
                Some(metrics)
            }
            QuarterOutcome::Failed { .. } => None,
        }
    }

    /// The terminal error, for failed quarters.
    pub fn error(&self) -> Option<&AsciiError> {
        match &self.outcome {
            QuarterOutcome::Failed { error } => Some(error),
            _ => None,
        }
    }

    /// Stable status label: `ok`, `degraded`, or `failed`.
    pub fn status(&self) -> &'static str {
        match &self.outcome {
            QuarterOutcome::Ok { .. } => "ok",
            QuarterOutcome::Degraded { .. } => "degraded",
            QuarterOutcome::Failed { .. } => "failed",
        }
    }
}

/// A fault-tolerant run over several quarters, with aligned trend
/// tracking.
#[derive(Debug)]
pub struct MultiQuarterRun {
    /// One entry per requested quarter, in request order.
    pub runs: Vec<QuarterRun>,
    /// Cross-quarter trajectories; failed quarters appear as explicit
    /// absent points.
    pub tracker: TrendTracker,
}

impl MultiQuarterRun {
    /// Quarters that ingested cleanly.
    pub fn ok_count(&self) -> usize {
        self.runs.iter().filter(|r| matches!(r.outcome, QuarterOutcome::Ok { .. })).count()
    }

    /// Quarters analyzed on partial data.
    pub fn degraded_count(&self) -> usize {
        self.runs.iter().filter(|r| matches!(r.outcome, QuarterOutcome::Degraded { .. })).count()
    }

    /// Quarters that contributed nothing.
    pub fn failed_count(&self) -> usize {
        self.runs.iter().filter(|r| matches!(r.outcome, QuarterOutcome::Failed { .. })).count()
    }

    /// The analyzed quarters (clean or degraded), in run order.
    pub fn analyzed(&self) -> impl Iterator<Item = (QuarterId, &AnalysisResult)> {
        self.runs.iter().filter_map(|r| r.result().map(|res| (r.id, res)))
    }
}

/// Ingests one quarter from `dir` under `opts` and, if anything was
/// parsed, analyzes it.
pub fn run_quarter_dir(
    pipeline: &Pipeline,
    dir: &Path,
    id: QuarterId,
    opts: &IngestOptions,
    drug_vocab: &Vocabulary,
    adr_vocab: &Vocabulary,
) -> QuarterRun {
    let mut cleaner = Cleaner::new(drug_vocab, adr_vocab, pipeline.config().clean.clone());
    run_quarter_dir_with_cleaner(pipeline, dir, id, opts, &mut cleaner)
}

fn run_quarter_dir_with_cleaner(
    pipeline: &Pipeline,
    dir: &Path,
    id: QuarterId,
    opts: &IngestOptions,
    cleaner: &mut Cleaner<'_>,
) -> QuarterRun {
    let _span = maras_obs::span(&format!("quarter {id}"));
    let outcome = match read_quarter_dir_with(dir, id, opts) {
        Err(error) => QuarterOutcome::Failed { error },
        Ok(ingested) => {
            let clean = ingested.report.is_clean();
            let result = pipeline.run_with_cleaner(ingested.data, cleaner);
            if clean {
                QuarterOutcome::Ok { result, report: ingested.report, metrics: ingested.metrics }
            } else {
                QuarterOutcome::Degraded {
                    result,
                    report: ingested.report,
                    metrics: ingested.metrics,
                }
            }
        }
    };
    QuarterRun { id, outcome }
}

/// Runs the pipeline over every requested quarter in `dir`, degrading
/// gracefully: failed quarters are recorded (and skipped in the trend
/// tracker) instead of aborting the run.
pub fn run_quarters_dir(
    pipeline: &Pipeline,
    dir: &Path,
    ids: &[QuarterId],
    opts: &IngestOptions,
    drug_vocab: &Vocabulary,
    adr_vocab: &Vocabulary,
) -> MultiQuarterRun {
    let mut tracker = TrendTracker::new();
    let mut runs = Vec::with_capacity(ids.len());
    // One cleaner for the whole run: the canonicalization memos carry
    // across quarters, so each verbatim drug/ADR string pays the fuzzy
    // vocabulary search once per run instead of once per quarter.
    let mut cleaner = Cleaner::new(drug_vocab, adr_vocab, pipeline.config().clean.clone());
    for &id in ids {
        let run = run_quarter_dir_with_cleaner(pipeline, dir, id, opts, &mut cleaner);
        match run.result() {
            Some(result) => tracker.ingest(id, result),
            None => tracker.skip_quarter(id),
        }
        runs.push(run);
    }
    MultiQuarterRun { runs, tracker }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use maras_faers::ascii::{write_quarter_dir, ErrorBudget};
    use maras_faers::faults::{corrupt_quarter, FaultConfig};
    use maras_faers::{SynthConfig, Synthesizer};

    struct TempDir(std::path::PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn temp_dir(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("maras_ingest_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    /// A year on disk: Q1/Q2/Q4 clean, Q3 corrupted at ~3%.
    fn year_on_disk(dir: &Path) -> (Synthesizer, Vec<QuarterId>) {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(31));
        let quarters = synth.generate_year(2014);
        let ids: Vec<QuarterId> = quarters.iter().map(|q| q.id).collect();
        for q in &quarters {
            if q.id.quarter == 3 {
                corrupt_quarter(q, &FaultConfig::new(5, 0.03)).write_dir(dir).unwrap();
            } else {
                write_quarter_dir(dir, q).unwrap();
            }
        }
        (synth, ids)
    }

    #[test]
    fn lenient_run_degrades_the_dirty_quarter_and_keeps_the_rest() {
        let tmp = temp_dir("lenient");
        let (synth, ids) = year_on_disk(&tmp.0);
        let run = run_quarters_dir(
            &Pipeline::new(PipelineConfig::default()),
            &tmp.0,
            &ids,
            &IngestOptions::lenient(),
            synth.drug_vocab(),
            synth.adr_vocab(),
        );
        assert_eq!(run.runs.len(), 4);
        assert_eq!(run.ok_count(), 3);
        assert_eq!(run.degraded_count(), 1);
        assert_eq!(run.failed_count(), 0);
        let q3 = &run.runs[2];
        assert_eq!(q3.status(), "degraded");
        let report = q3.ingest_report().unwrap();
        assert!(report.quarantined() > 0);
        assert!(!q3.result().unwrap().ranked.is_empty());
        // Trend trajectories span all four quarters.
        for t in run.tracker.trends() {
            assert_eq!(t.points.len(), 4);
        }
    }

    #[test]
    fn strict_run_fails_the_dirty_quarter_but_finishes() {
        let tmp = temp_dir("strict");
        let (synth, ids) = year_on_disk(&tmp.0);
        let run = run_quarters_dir(
            &Pipeline::new(PipelineConfig::default()),
            &tmp.0,
            &ids,
            &IngestOptions::strict(),
            synth.drug_vocab(),
            synth.adr_vocab(),
        );
        assert_eq!(run.ok_count(), 3);
        assert_eq!(run.failed_count(), 1);
        assert_eq!(run.runs[2].status(), "failed");
        assert!(run.runs[2].error().is_some());
        // Skipped quarters still occupy a trajectory slot.
        for t in run.tracker.trends() {
            assert_eq!(t.points.len(), 4);
            assert!(t.points[2].rank.is_none(), "failed quarter must be absent");
        }
        assert_eq!(run.analyzed().count(), 3);
    }

    #[test]
    fn tiny_budget_turns_degraded_into_failed() {
        let tmp = temp_dir("budget");
        let (synth, ids) = year_on_disk(&tmp.0);
        let opts = IngestOptions::lenient_with(ErrorBudget::max_frac(0.001));
        let run = run_quarters_dir(
            &Pipeline::new(PipelineConfig::default()),
            &tmp.0,
            &ids,
            &opts,
            synth.drug_vocab(),
            synth.adr_vocab(),
        );
        assert_eq!(run.failed_count(), 1);
        assert!(matches!(run.runs[2].error(), Some(AsciiError::BudgetExceeded { .. })));
    }
}
