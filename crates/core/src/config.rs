//! Pipeline configuration.

use maras_faers::CleanConfig;
use maras_mcac::RankingMethod;
use maras_rules::Measure;
use maras_signals::RankKey;

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
    /// Which score orders the ranked output (`--rank-by`), and the
    /// exclusiveness settings (measure, θ, decay) of every cluster's score
    /// block, whatever that score is.
    pub ranking: RankingMethod,
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
            ranking: RankingMethod::default(),
            n_threads: 0,
        }
    }
}

impl PipelineConfig {
    /// Convenience: same pipeline but scoring with lift (Table 5.2's
    /// "Exclusiveness with Lift" column).
    pub fn with_lift(mut self) -> Self {
        self.ranking.exclusiveness.measure = Measure::Lift;
        self
    }

    /// Convenience: set the CV-penalty strength θ.
    pub fn with_theta(mut self, theta: f64) -> Self {
        assert!((0.0..=1.0).contains(&theta), "theta must be in [0,1]");
        self.ranking.exclusiveness.theta = theta;
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
    pub fn with_rank_by(mut self, key: RankKey) -> Self {
        self.ranking.key = key;
        self
    }

    /// The [`RankingMethod`] the pipeline ranks with.
    pub fn ranking_method(&self) -> RankingMethod {
        self.ranking
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
        assert_eq!(c.ranking, RankingMethod::exclusiveness_confidence());
        assert_eq!(c.ranking.exclusiveness.theta, 0.5);
    }

    #[test]
    fn builders_compose() {
        let c = PipelineConfig::default().with_lift().with_theta(0.8).with_min_support(10);
        assert_eq!(c.ranking.exclusiveness.measure, Measure::Lift);
        assert_eq!(c.ranking.exclusiveness.theta, 0.8);
        assert_eq!(c.min_support, 10);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn theta_out_of_range_panics() {
        PipelineConfig::default().with_theta(1.5);
    }

    #[test]
    fn rank_by_keeps_the_exclusiveness_settings() {
        let c = PipelineConfig::default().with_lift().with_theta(0.7).with_rank_by(RankKey::Prr);
        let method = c.ranking_method();
        assert_eq!(method.key, RankKey::Prr);
        assert_eq!(method.exclusiveness.measure, Measure::Lift);
        assert_eq!(method.exclusiveness.theta, 0.7);
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
