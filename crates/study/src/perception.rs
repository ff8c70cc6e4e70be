//! The perceptual participant model.
//!
//! Noise scales follow the graphical-perception literature's accuracy
//! ordering (position/length more precise than area/angle), and the
//! serial-vs-holistic reading cost separates the two encodings:
//!
//! * **Bar chart**: each bar is read with length noise `σ_len`; the mental
//!   contrast `target − mean(context)` therefore accumulates per-bar error,
//!   and every context bar beyond working-memory capacity adds integration
//!   noise `σ_wm` — serial comparison simply stops scaling.
//! * **Contextual glyph**: one holistic figure/ground judgment with area
//!   noise `σ_area > σ_len`, *independent of context size*.

use crate::battery::{ClusterStimulus, Question};
use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr::{Distribution, Normal};

/// Which visual encoding the participant reads (the thesis's two arms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// The MARAS Contextual Glyph (Fig. 4.1).
    ContextualGlyph,
    /// The baseline MCAC bar chart (Fig. 5.3).
    BarChart,
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Encoding::ContextualGlyph => write!(f, "Contextual Glyph"),
            Encoding::BarChart => write!(f, "Barchart"),
        }
    }
}

/// Perceptual noise parameters (standard deviations on the confidence
/// scale, i.e. fractions of the axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerceptionParams {
    /// Per-bar length-estimation noise (bar chart).
    pub sigma_length: f64,
    /// Holistic area/radial-estimation noise (glyph).
    pub sigma_area: f64,
    /// Context bars a participant can compare without extra cost.
    pub wm_capacity: usize,
    /// Added integration noise per context bar beyond capacity.
    pub sigma_wm_per_item: f64,
    /// Fixed mental-arithmetic noise for the bar chart's serial
    /// target-minus-average computation (absent for the glyph, whose
    /// contrast is read as one figure/ground gestalt).
    pub sigma_serial: f64,
    /// Seconds per holistic glyph glance.
    pub t_glance: f64,
    /// Seconds per bar read in the bar-chart condition.
    pub t_per_bar: f64,
    /// Seconds of mental arithmetic per bar-chart candidate.
    pub t_compute: f64,
}

impl Default for PerceptionParams {
    fn default() -> Self {
        PerceptionParams {
            sigma_length: 0.055,
            sigma_area: 0.12,
            wm_capacity: 4,
            sigma_wm_per_item: 0.025,
            sigma_serial: 0.13,
            t_glance: 1.2,
            t_per_bar: 0.45,
            t_compute: 1.8,
        }
    }
}

/// One simulated participant (owns its noise stream).
#[derive(Debug)]
pub struct Participant {
    params: PerceptionParams,
    rng: StdRng,
}

impl Participant {
    /// Creates a participant with its own seed.
    pub fn new(params: PerceptionParams, seed: u64) -> Self {
        Participant { params, rng: StdRng::seed_from_u64(seed) }
    }

    /// The participant's noisy estimate of a cluster's interestingness
    /// under the given encoding.
    pub fn perceive(&mut self, stimulus: &ClusterStimulus, encoding: Encoding) -> f64 {
        let truth = stimulus.true_score;
        match encoding {
            Encoding::ContextualGlyph => {
                // One gestalt judgment, area-grade noise, size-independent.
                truth + self.noise(self.params.sigma_area)
            }
            Encoding::BarChart => {
                // Serial reading: noisy target + noisy mean of context bars
                // + working-memory integration noise.
                let target = stimulus.target + self.noise(self.params.sigma_length);
                let m = stimulus.context.len();
                let mean_ctx = if m == 0 {
                    0.0
                } else {
                    stimulus
                        .context
                        .iter()
                        .map(|&v| v + self.noise(self.params.sigma_length))
                        .sum::<f64>()
                        / m as f64
                };
                let overflow = m.saturating_sub(self.params.wm_capacity);
                let wm_noise = self.noise(self.params.sigma_wm_per_item * overflow as f64);
                let serial_noise = self.noise(self.params.sigma_serial);
                target - mean_ctx + wm_noise + serial_noise
            }
        }
    }

    /// Simulated response time (seconds) for answering a question under an
    /// encoding: the glyph is one glance per candidate; the bar chart is a
    /// serial read of every bar plus mental arithmetic per candidate. A
    /// ±20% lognormal-ish jitter models individual pace.
    pub fn response_time(&mut self, question: &Question, encoding: Encoding) -> f64 {
        let base: f64 = question
            .candidates
            .iter()
            .map(|c| match encoding {
                Encoding::ContextualGlyph => self.params.t_glance,
                Encoding::BarChart => {
                    self.params.t_per_bar * (1.0 + c.context.len() as f64) + self.params.t_compute
                }
            })
            .sum();
        let jitter = 1.0 + self.noise(0.2).clamp(-0.6, 0.6);
        base * jitter
    }

    /// Answers a question: estimates every candidate and picks the top-k.
    /// Returns the picked indices as a sorted set.
    pub fn answer(&mut self, question: &Question, encoding: Encoding) -> Vec<usize> {
        let estimates: Vec<f64> =
            question.candidates.iter().map(|c| self.perceive(c, encoding)).collect();
        let mut order: Vec<usize> = (0..estimates.len()).collect();
        order.sort_by(|&a, &b| {
            estimates[b].partial_cmp(&estimates[a]).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut picked: Vec<usize> = order[..question.pick_top_k].to_vec();
        picked.sort_unstable();
        picked
    }

    fn noise(&mut self, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return 0.0;
        }
        Normal::new(0.0, sigma).expect("valid sigma").sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn easy_stimulus() -> ClusterStimulus {
        ClusterStimulus::new(0.9, vec![0.1, 0.1])
    }

    #[test]
    fn zero_noise_reads_truth_exactly() {
        let params = PerceptionParams {
            sigma_length: 0.0,
            sigma_area: 0.0,
            wm_capacity: 99,
            sigma_wm_per_item: 0.0,
            sigma_serial: 0.0,
            ..Default::default()
        };
        let mut p = Participant::new(params, 1);
        let s = easy_stimulus();
        assert_eq!(p.perceive(&s, Encoding::ContextualGlyph), s.true_score);
        assert!((p.perceive(&s, Encoding::BarChart) - s.true_score).abs() < 1e-12);
    }

    #[test]
    fn estimates_are_unbiased_on_average() {
        let mut p = Participant::new(PerceptionParams::default(), 2);
        let s = easy_stimulus();
        for enc in [Encoding::ContextualGlyph, Encoding::BarChart] {
            let n = 4000;
            let mean: f64 = (0..n).map(|_| p.perceive(&s, enc)).sum::<f64>() / n as f64;
            assert!((mean - s.true_score).abs() < 0.02, "{enc}: {mean}");
        }
    }

    #[test]
    fn barchart_noise_grows_with_context_size() {
        let mut p = Participant::new(PerceptionParams::default(), 3);
        let small = ClusterStimulus::new(0.9, vec![0.1; 2]); // 2 drugs
        let large = ClusterStimulus::new(0.9, vec![0.1; 14]); // 4 drugs
        let var = |p: &mut Participant, s: &ClusterStimulus| {
            let n = 4000;
            let xs: Vec<f64> = (0..n).map(|_| p.perceive(s, Encoding::BarChart)).collect();
            let m = xs.iter().sum::<f64>() / n as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64
        };
        let v_small = var(&mut p, &small);
        let v_large = var(&mut p, &large);
        assert!(v_large > v_small * 2.0, "integration noise must grow: {v_small} vs {v_large}");
    }

    #[test]
    fn glyph_noise_is_context_size_invariant() {
        let mut p = Participant::new(PerceptionParams::default(), 4);
        let small = ClusterStimulus::new(0.9, vec![0.1; 2]);
        let large = ClusterStimulus::new(0.9, vec![0.1; 14]);
        let var = |p: &mut Participant, s: &ClusterStimulus| {
            let n = 4000;
            let xs: Vec<f64> = (0..n).map(|_| p.perceive(s, Encoding::ContextualGlyph)).collect();
            let m = xs.iter().sum::<f64>() / n as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64
        };
        let v_small = var(&mut p, &small);
        let v_large = var(&mut p, &large);
        assert!((v_small - v_large).abs() < v_small * 0.3, "{v_small} vs {v_large}");
    }

    #[test]
    fn answer_picks_topk_under_zero_noise() {
        let params = PerceptionParams {
            sigma_length: 0.0,
            sigma_area: 0.0,
            wm_capacity: 99,
            sigma_wm_per_item: 0.0,
            sigma_serial: 0.0,
            ..Default::default()
        };
        let mut p = Participant::new(params, 5);
        let q = Question {
            label: "t".into(),
            candidates: vec![
                ClusterStimulus::new(0.5, vec![0.4, 0.4]),
                ClusterStimulus::new(0.9, vec![0.1, 0.1]),
                ClusterStimulus::new(0.8, vec![0.2, 0.2]),
            ],
            pick_top_k: 2,
            n_drugs: 2,
        };
        for enc in [Encoding::ContextualGlyph, Encoding::BarChart] {
            assert_eq!(p.answer(&q, enc), q.correct_answer(), "{enc}");
        }
    }

    #[test]
    fn barchart_slower_and_degrades_with_size() {
        let mut p = Participant::new(PerceptionParams::default(), 9);
        let q_small = Question {
            label: "s".into(),
            candidates: vec![ClusterStimulus::new(0.9, vec![0.1; 2]); 6],
            pick_top_k: 1,
            n_drugs: 2,
        };
        let q_large = Question {
            label: "l".into(),
            candidates: vec![ClusterStimulus::new(0.9, vec![0.1; 14]); 6],
            pick_top_k: 1,
            n_drugs: 4,
        };
        let mean_rt = |p: &mut Participant, q: &Question, e: Encoding| -> f64 {
            (0..200).map(|_| p.response_time(q, e)).sum::<f64>() / 200.0
        };
        let glyph_small = mean_rt(&mut p, &q_small, Encoding::ContextualGlyph);
        let glyph_large = mean_rt(&mut p, &q_large, Encoding::ContextualGlyph);
        let bar_small = mean_rt(&mut p, &q_small, Encoding::BarChart);
        let bar_large = mean_rt(&mut p, &q_large, Encoding::BarChart);
        assert!(bar_small > glyph_small, "{bar_small} vs {glyph_small}");
        assert!(bar_large > bar_small * 2.0, "serial reading must scale with bars");
        assert!(
            (glyph_large - glyph_small).abs() < glyph_small * 0.25,
            "glyph time is context-size invariant: {glyph_small} vs {glyph_large}"
        );
    }

    #[test]
    fn encoding_display_matches_fig_5_2_legend() {
        assert_eq!(Encoding::ContextualGlyph.to_string(), "Contextual Glyph");
        assert_eq!(Encoding::BarChart.to_string(), "Barchart");
    }
}
