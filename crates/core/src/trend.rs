//! Cross-quarter signal tracking.
//!
//! The thesis mines each FAERS quarter independently (§5.1 publishes
//! quarterly); a safety evaluator then watches how a signal *evolves*: a
//! combination that keeps (re)appearing with rising support and a stable
//! high exclusiveness is the reinforcement pattern that triggers escalation,
//! while a one-quarter blip is likely noise. [`TrendTracker`] joins ranked
//! outputs across quarters on the (drug set, ADR set) key and classifies
//! each signal's trajectory.

use crate::pipeline::AnalysisResult;
use maras_faers::QuarterId;
use maras_mining::ItemSet;
use rustc_hash::FxHashMap;

/// One quarter's observation of a signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendPoint {
    /// Which quarter.
    pub quarter: QuarterId,
    /// 0-based rank in that quarter's output (`None` = not mined).
    pub rank: Option<usize>,
    /// Exclusiveness score (`None` = not mined).
    pub score: Option<f64>,
    /// Absolute support in that quarter (0 = not mined).
    pub support: u64,
}

/// A signal's cross-quarter trajectory.
#[derive(Debug, Clone)]
pub struct SignalTrend {
    /// Drug item set (in the shared encoding).
    pub drugs: ItemSet,
    /// ADR item set.
    pub adrs: ItemSet,
    /// One point per tracked quarter, in feed order.
    pub points: Vec<TrendPoint>,
}

impl SignalTrend {
    /// Number of quarters in which the signal was mined at all.
    pub fn quarters_present(&self) -> usize {
        self.points.iter().filter(|p| p.rank.is_some()).count()
    }

    /// Whether support strictly increases across every consecutive pair of
    /// quarters where the signal is present (the *emerging* pattern).
    pub fn is_emerging(&self) -> bool {
        let supports: Vec<u64> =
            self.points.iter().filter(|p| p.rank.is_some()).map(|p| p.support).collect();
        supports.len() >= 2 && supports.windows(2).all(|w| w[1] > w[0])
    }

    /// Whether the signal is present in every tracked quarter — the
    /// *persistent* pattern an evaluator escalates on.
    pub fn is_persistent(&self) -> bool {
        !self.points.is_empty() && self.quarters_present() == self.points.len()
    }

    /// Mean exclusiveness over the quarters where the signal is present
    /// (0 when never present).
    pub fn mean_score(&self) -> f64 {
        let scores: Vec<f64> = self.points.iter().filter_map(|p| p.score).collect();
        if scores.is_empty() {
            0.0
        } else {
            scores.iter().sum::<f64>() / scores.len() as f64
        }
    }
}

/// Joins ranked outputs across quarters.
#[derive(Debug, Default)]
pub struct TrendTracker {
    quarters: Vec<QuarterId>,
    signals: FxHashMap<(ItemSet, ItemSet), Vec<TrendPoint>>,
}

impl TrendTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one quarter's analysis. Quarters must be fed in
    /// chronological order; every signal absent from a fed quarter gets an
    /// explicit absent point, so all trajectories stay aligned.
    pub fn ingest(&mut self, quarter: QuarterId, result: &AnalysisResult) {
        let idx = self.quarters.len();
        self.quarters.push(quarter);
        for (rank, r) in result.ranked.iter().enumerate() {
            let key = (r.cluster.target.drugs.clone(), r.cluster.target.adrs.clone());
            let points = self.signals.entry(key).or_default();
            // Pad with absent points for quarters before first sighting.
            while points.len() < idx {
                points.push(TrendPoint {
                    quarter: self.quarters[points.len()],
                    rank: None,
                    score: None,
                    support: 0,
                });
            }
            points.push(TrendPoint {
                quarter,
                rank: Some(rank),
                score: Some(r.score),
                support: r.cluster.target.support(),
            });
        }
        // Pad signals not seen this quarter.
        for points in self.signals.values_mut() {
            while points.len() <= idx {
                points.push(TrendPoint {
                    quarter: self.quarters[points.len()],
                    rank: None,
                    score: None,
                    support: 0,
                });
            }
        }
    }

    /// Records a quarter that produced no analysis (failed ingest): every
    /// tracked signal gets an explicit absent point, so trajectories stay
    /// aligned with the full run even when quarters drop out.
    pub fn skip_quarter(&mut self, quarter: QuarterId) {
        let idx = self.quarters.len();
        self.quarters.push(quarter);
        for points in self.signals.values_mut() {
            while points.len() <= idx {
                points.push(TrendPoint {
                    quarter: self.quarters[points.len()],
                    rank: None,
                    score: None,
                    support: 0,
                });
            }
        }
    }

    /// All tracked trajectories, best mean score first (deterministic
    /// tie-break on the signal key).
    pub fn trends(&self) -> Vec<SignalTrend> {
        let mut out: Vec<SignalTrend> = self
            .signals
            .iter()
            .map(|((drugs, adrs), points)| SignalTrend {
                drugs: drugs.clone(),
                adrs: adrs.clone(),
                points: points.clone(),
            })
            .collect();
        out.sort_by(|a, b| {
            b.mean_score()
                .partial_cmp(&a.mean_score())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.drugs.cmp(&b.drugs))
                .then_with(|| a.adrs.cmp(&b.adrs))
        });
        out
    }

    /// The trajectory of one specific signal, if ever mined.
    pub fn trend_of(&self, drugs: &ItemSet, adrs: &ItemSet) -> Option<SignalTrend> {
        self.signals.get(&(drugs.clone(), adrs.clone())).map(|points| SignalTrend {
            drugs: drugs.clone(),
            adrs: adrs.clone(),
            points: points.clone(),
        })
    }

    /// Signals present in ≥ `min_quarters` quarters with strictly growing
    /// support — the escalation shortlist.
    pub fn emerging(&self, min_quarters: usize) -> Vec<SignalTrend> {
        self.trends()
            .into_iter()
            .filter(|t| t.quarters_present() >= min_quarters && t.is_emerging())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::Pipeline;
    use maras_faers::{QuarterId, SynthConfig, Synthesizer};

    fn run_year() -> (TrendTracker, Synthesizer) {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(77));
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let mut tracker = TrendTracker::new();
        for quarter in synth.generate_year(2014) {
            let id = quarter.id;
            let result = pipeline.run(quarter, &dv, &av);
            tracker.ingest(id, &result);
        }
        (tracker, synth)
    }

    #[test]
    fn all_trajectories_span_all_quarters() {
        let (tracker, _) = run_year();
        let trends = tracker.trends();
        assert!(!trends.is_empty());
        for t in &trends {
            assert_eq!(t.points.len(), 4, "trajectory not aligned: {t:?}");
            assert!(t.quarters_present() >= 1);
            let quarters: Vec<u8> = t.points.iter().map(|p| p.quarter.quarter).collect();
            assert_eq!(quarters, vec![1, 2, 3, 4]);
        }
        // Sorted by mean score.
        assert!(trends.windows(2).all(|w| w[0].mean_score() >= w[1].mean_score()));
    }

    #[test]
    fn planted_interactions_tend_to_persist() {
        let (tracker, synth) = run_year();
        let truth = synth.planted_truth();
        let adr_start = synth.drug_vocab().len() as u32;
        let mut persistent = 0;
        for (drugs, adrs) in &truth {
            // The mined consequent may be a superset (closure); look for
            // any trajectory with the exact drug set covering the ADRs.
            let found = tracker.trends().into_iter().any(|t| {
                t.drugs.iter().map(|i| i.0).eq(drugs.iter().copied())
                    && adrs.iter().all(|&a| t.adrs.iter().any(|i| i.0 == a + adr_start))
                    && t.quarters_present() >= 3
            });
            if found {
                persistent += 1;
            }
        }
        assert!(
            persistent >= 3,
            "at least half the planted interactions should persist across quarters, got {persistent}"
        );
    }

    #[test]
    fn emerging_requires_growing_support() {
        let t = SignalTrend {
            drugs: ItemSet::from_ids([0u32, 1]),
            adrs: ItemSet::from_ids([10u32]),
            points: vec![
                TrendPoint {
                    quarter: QuarterId::new(2014, 1),
                    rank: Some(5),
                    score: Some(0.4),
                    support: 4,
                },
                TrendPoint {
                    quarter: QuarterId::new(2014, 2),
                    rank: Some(3),
                    score: Some(0.5),
                    support: 9,
                },
                TrendPoint {
                    quarter: QuarterId::new(2014, 3),
                    rank: Some(1),
                    score: Some(0.6),
                    support: 15,
                },
            ],
        };
        assert!(t.is_emerging());
        assert!(t.is_persistent());
        assert!((t.mean_score() - 0.5).abs() < 1e-12);

        let flat = SignalTrend {
            points: vec![
                TrendPoint {
                    quarter: QuarterId::new(2014, 1),
                    rank: Some(5),
                    score: Some(0.4),
                    support: 9,
                },
                TrendPoint {
                    quarter: QuarterId::new(2014, 2),
                    rank: Some(3),
                    score: Some(0.5),
                    support: 9,
                },
            ],
            ..t.clone()
        };
        assert!(!flat.is_emerging());

        let gap = SignalTrend {
            points: vec![
                TrendPoint {
                    quarter: QuarterId::new(2014, 1),
                    rank: Some(5),
                    score: Some(0.4),
                    support: 4,
                },
                TrendPoint {
                    quarter: QuarterId::new(2014, 2),
                    rank: None,
                    score: None,
                    support: 0,
                },
                TrendPoint {
                    quarter: QuarterId::new(2014, 3),
                    rank: Some(1),
                    score: Some(0.6),
                    support: 15,
                },
            ],
            ..t.clone()
        };
        assert!(!gap.is_persistent());
        assert_eq!(gap.quarters_present(), 2);
        assert!(gap.is_emerging(), "absent quarters are skipped in the support series");
    }

    #[test]
    fn trend_of_finds_specific_signal() {
        let (tracker, _) = run_year();
        let any = &tracker.trends()[0];
        let found = tracker.trend_of(&any.drugs, &any.adrs).expect("present");
        assert_eq!(found.points.len(), 4);
        assert!(tracker
            .trend_of(&ItemSet::from_ids([9999u32]), &ItemSet::from_ids([10000u32]))
            .is_none());
    }
}
