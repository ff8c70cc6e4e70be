//! Pipeline configuration.

use maras_faers::CleanConfig;
use maras_mcac::{DecayFn, ExclusivenessConfig, RankingMethod};
use maras_rules::Measure;

/// Which score orders the ranked output — the CLI's `--rank-by` flag and
/// the server's `?sort_by=` parameter map onto this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankBy {
    /// MARAS exclusiveness over MCACs (the paper's ranking; the default).
    #[default]
    Exclusiveness,
    /// Proportional reporting ratio point estimate.
    Prr,
    /// Reporting odds ratio point estimate.
    Ror,
    /// MGPS shrunken geometric mean (EBGM).
    Ebgm,
    /// Geometric mean of PRR, ROR and EBGM.
    Composite,
}

impl RankBy {
    /// Parses the CLI/query-string spelling; `None` for anything unknown.
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "exclusiveness" => Some(RankBy::Exclusiveness),
            "prr" => Some(RankBy::Prr),
            "ror" => Some(RankBy::Ror),
            "ebgm" => Some(RankBy::Ebgm),
            "composite" => Some(RankBy::Composite),
            _ => None,
        }
    }
}

impl std::fmt::Display for RankBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RankBy::Exclusiveness => "exclusiveness",
            RankBy::Prr => "prr",
            RankBy::Ror => "ror",
            RankBy::Ebgm => "ebgm",
            RankBy::Composite => "composite",
        };
        f.write_str(s)
    }
}

/// End-to-end configuration of one MARAS run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Keep only expedited reports (the thesis's §5.1 selection).
    pub expedited_only: bool,
    /// Cleaning-stage settings.
    pub clean: CleanConfig,
    /// Absolute minimum support for the closed-itemset miner. The thesis
    /// stresses a *low* threshold so rare combinations survive (§1.3).
    pub min_support: u64,
    /// Exclusiveness scoring settings (measure, θ, decay).
    pub exclusiveness: ExclusivenessConfig,
    /// Which score orders the ranked output. Every cluster carries the full
    /// disproportionality block either way; this picks the sort key.
    pub rank_by: RankBy,
    /// Mining worker threads; `0` means "use the machine's available
    /// parallelism". Safe at any value: the parallel miner's output is
    /// differential-tested byte-identical to the sequential miner's.
    pub n_threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            expedited_only: true,
            clean: CleanConfig::default(),
            min_support: 4,
            exclusiveness: ExclusivenessConfig::default(),
            rank_by: RankBy::default(),
            n_threads: 0,
        }
    }
}

impl PipelineConfig {
    /// Convenience: same pipeline but scoring with lift (Table 5.2's
    /// "Exclusiveness with Lift" column).
    pub fn with_lift(mut self) -> Self {
        self.exclusiveness.measure = Measure::Lift;
        self
    }

    /// Convenience: set the CV-penalty strength θ.
    pub fn with_theta(mut self, theta: f64) -> Self {
        assert!((0.0..=1.0).contains(&theta), "theta must be in [0,1]");
        self.exclusiveness.theta = theta;
        self
    }

    /// Convenience: set the level-decay function.
    pub fn with_decay(mut self, decay: DecayFn) -> Self {
        self.exclusiveness.decay = decay;
        self
    }

    /// Convenience: set the minimum support.
    pub fn with_min_support(mut self, min_support: u64) -> Self {
        self.min_support = min_support;
        self
    }

    /// Convenience: set the mining thread count (`0` = auto-detect).
    pub fn with_n_threads(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads;
        self
    }

    /// Convenience: set the ranking key.
    pub fn with_rank_by(mut self, rank_by: RankBy) -> Self {
        self.rank_by = rank_by;
        self
    }

    /// The [`RankingMethod`] this configuration resolves to: exclusiveness
    /// carries the exclusiveness settings along; the disproportionality
    /// baselines map onto their dedicated variants.
    pub fn ranking_method(&self) -> RankingMethod {
        match self.rank_by {
            RankBy::Exclusiveness => RankingMethod::Exclusiveness(self.exclusiveness),
            RankBy::Prr => RankingMethod::Prr,
            RankBy::Ror => RankingMethod::Ror,
            RankBy::Ebgm => RankingMethod::Ebgm,
            RankBy::Composite => RankingMethod::Composite,
        }
    }

    /// Resolves [`Self::n_threads`] to a concrete worker count: `0` maps to
    /// the machine's available parallelism (falling back to 1 when that is
    /// unknowable), anything else is taken literally.
    pub fn effective_threads(&self) -> usize {
        if self.n_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.n_threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_faithful() {
        let c = PipelineConfig::default();
        assert!(c.expedited_only);
        assert_eq!(c.exclusiveness.measure, Measure::Confidence);
        assert_eq!(c.exclusiveness.theta, 0.5);
    }

    #[test]
    fn builders_compose() {
        let c = PipelineConfig::default().with_lift().with_theta(0.8).with_min_support(10);
        assert_eq!(c.exclusiveness.measure, Measure::Lift);
        assert_eq!(c.exclusiveness.theta, 0.8);
        assert_eq!(c.min_support, 10);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn theta_out_of_range_panics() {
        PipelineConfig::default().with_theta(1.5);
    }

    #[test]
    fn rank_by_round_trips_and_resolves() {
        for (s, rank_by) in [
            ("exclusiveness", RankBy::Exclusiveness),
            ("prr", RankBy::Prr),
            ("ror", RankBy::Ror),
            ("ebgm", RankBy::Ebgm),
            ("composite", RankBy::Composite),
        ] {
            assert_eq!(RankBy::from_str_opt(s), Some(rank_by));
            assert_eq!(rank_by.to_string(), s);
        }
        assert_eq!(RankBy::from_str_opt("confidence"), None);
        // The default resolves to the paper's exclusiveness ranking with the
        // configured settings riding along.
        let c = PipelineConfig::default().with_theta(0.7);
        match c.ranking_method() {
            RankingMethod::Exclusiveness(cfg) => assert_eq!(cfg.theta, 0.7),
            other => panic!("default must rank by exclusiveness, got {other}"),
        }
        assert_eq!(
            PipelineConfig::default().with_rank_by(RankBy::Prr).ranking_method(),
            RankingMethod::Prr
        );
    }

    #[test]
    fn thread_count_resolution() {
        let auto = PipelineConfig::default();
        assert_eq!(auto.n_threads, 0);
        assert!(auto.effective_threads() >= 1);
        let fixed = PipelineConfig::default().with_n_threads(3);
        assert_eq!(fixed.effective_threads(), 3);
    }
}
