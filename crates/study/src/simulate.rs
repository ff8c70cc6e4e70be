//! Running the study and aggregating Fig. 5.2.

use crate::battery::Battery;
use crate::perception::{Encoding, Participant, PerceptionParams};
use std::collections::BTreeMap;

/// Study-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Number of simulated participants (the thesis invited 50).
    pub n_participants: usize,
    /// Master seed.
    pub seed: u64,
    /// Perceptual model parameters.
    pub params: PerceptionParams,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig { n_participants: 50, seed: 2016, params: PerceptionParams::default() }
    }
}

/// Aggregated outcomes. Tuple map keys have no JSON form, so the
/// experiment binaries format rows explicitly.
#[derive(Debug, Clone)]
pub struct StudyResults {
    /// `% correct` per (drug count, encoding) — the Fig. 5.2 bars.
    pub accuracy_by_drugs: BTreeMap<(usize, &'static str), f64>,
    /// `% correct` per (question label, encoding).
    pub accuracy_by_question: BTreeMap<(String, &'static str), f64>,
    /// Mean response time (seconds) per (drug count, encoding).
    pub mean_rt_by_drugs: BTreeMap<(usize, &'static str), f64>,
}

impl StudyResults {
    /// Fig. 5.2 accessor: % of participants correct for `n_drugs` under the
    /// encoding.
    pub fn percent_correct(&self, n_drugs: usize, encoding: Encoding) -> f64 {
        *self.accuracy_by_drugs.get(&(n_drugs, key(encoding))).unwrap_or(&0.0)
    }

    /// Mean answer time in seconds for `n_drugs` under the encoding (the
    /// thesis's "more faster" comparison).
    pub fn mean_response_time(&self, n_drugs: usize, encoding: Encoding) -> f64 {
        *self.mean_rt_by_drugs.get(&(n_drugs, key(encoding))).unwrap_or(&0.0)
    }
}

fn key(encoding: Encoding) -> &'static str {
    match encoding {
        Encoding::ContextualGlyph => "glyph",
        Encoding::BarChart => "barchart",
    }
}

/// Runs the battery: every participant answers every question under both
/// encodings (within-subject, as the thesis did — each question showed both
/// visuals). Returns percentage-correct aggregates.
pub fn run_study(battery: &Battery, config: &StudyConfig) -> StudyResults {
    let mut correct_by_q: BTreeMap<(String, &'static str), usize> = BTreeMap::new();
    let mut correct_by_d: BTreeMap<(usize, &'static str), usize> = BTreeMap::new();
    let mut total_by_d: BTreeMap<(usize, &'static str), usize> = BTreeMap::new();
    let mut rt_by_d: BTreeMap<(usize, &'static str), f64> = BTreeMap::new();

    for pid in 0..config.n_participants {
        let mut participant =
            Participant::new(config.params, config.seed ^ (pid as u64).wrapping_mul(0x9e37_79b9));
        for q in &battery.questions {
            let truth = q.correct_answer();
            for encoding in [Encoding::ContextualGlyph, Encoding::BarChart] {
                let picked = participant.answer(q, encoding);
                let rt = participant.response_time(q, encoding);
                *rt_by_d.entry((q.n_drugs, key(encoding))).or_insert(0.0) += rt;
                let ok = picked == truth;
                *correct_by_q.entry((q.label.clone(), key(encoding))).or_insert(0) +=
                    usize::from(ok);
                *correct_by_d.entry((q.n_drugs, key(encoding))).or_insert(0) += usize::from(ok);
                *total_by_d.entry((q.n_drugs, key(encoding))).or_insert(0) += 1;
            }
        }
    }

    let n = config.n_participants.max(1) as f64;
    let accuracy_by_question =
        correct_by_q.into_iter().map(|(k, v)| (k, 100.0 * v as f64 / n)).collect();
    let accuracy_by_drugs = correct_by_d
        .into_iter()
        .map(|(k, v)| {
            let total = total_by_d[&k] as f64;
            (k, 100.0 * v as f64 / total)
        })
        .collect();
    let mean_rt_by_drugs = rt_by_d
        .into_iter()
        .map(|(k, total)| {
            let count = total_by_d[&k] as f64;
            (k, total / count)
        })
        .collect();
    StudyResults { accuracy_by_drugs, accuracy_by_question, mean_rt_by_drugs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery::appendix_a_battery;

    #[test]
    fn glyph_beats_barchart_for_every_drug_count() {
        // The Fig. 5.2 shape requirement.
        let battery = appendix_a_battery(2016);
        let results = run_study(&battery, &StudyConfig::default());
        for n_drugs in [2usize, 3, 4] {
            let glyph = results.percent_correct(n_drugs, Encoding::ContextualGlyph);
            let bar = results.percent_correct(n_drugs, Encoding::BarChart);
            assert!(glyph > bar, "{n_drugs} drugs: glyph {glyph:.0}% must beat barchart {bar:.0}%");
            assert!((0.0..=100.0).contains(&glyph));
            assert!((0.0..=100.0).contains(&bar));
        }
    }

    #[test]
    fn glyph_is_faster_everywhere_and_bar_rt_grows() {
        let battery = appendix_a_battery(2016);
        let results = run_study(&battery, &StudyConfig::default());
        for n_drugs in [2usize, 3, 4] {
            let g = results.mean_response_time(n_drugs, Encoding::ContextualGlyph);
            let b = results.mean_response_time(n_drugs, Encoding::BarChart);
            assert!(g > 0.0 && b > g, "{n_drugs} drugs: glyph {g:.1}s vs bar {b:.1}s");
        }
        // Bar-chart time grows with context size; glyph time does not.
        let b2 = results.mean_response_time(2, Encoding::BarChart);
        let b4 = results.mean_response_time(4, Encoding::BarChart);
        assert!(b4 > b2 * 1.5, "{b2} vs {b4}");
    }

    #[test]
    fn results_are_deterministic() {
        let battery = appendix_a_battery(7);
        let a = run_study(&battery, &StudyConfig::default());
        let b = run_study(&battery, &StudyConfig::default());
        assert_eq!(a.accuracy_by_drugs, b.accuracy_by_drugs);
    }

    #[test]
    fn zero_noise_participants_are_perfect() {
        let battery = appendix_a_battery(3);
        let cfg = StudyConfig {
            n_participants: 10,
            seed: 1,
            params: PerceptionParams {
                sigma_length: 0.0,
                sigma_area: 0.0,
                wm_capacity: 99,
                sigma_wm_per_item: 0.0,
                sigma_serial: 0.0,
                ..Default::default()
            },
        };
        let results = run_study(&battery, &cfg);
        for acc in results.accuracy_by_drugs.values() {
            assert_eq!(*acc, 100.0);
        }
    }

    #[test]
    fn per_question_accuracies_cover_battery() {
        let battery = appendix_a_battery(5);
        let results = run_study(&battery, &StudyConfig { n_participants: 5, ..Default::default() });
        assert_eq!(results.accuracy_by_question.len(), 10); // 5 questions × 2 encodings
    }

    #[test]
    fn extreme_noise_drops_accuracy() {
        let battery = appendix_a_battery(5);
        let noisy = StudyConfig {
            n_participants: 30,
            seed: 2,
            params: PerceptionParams {
                sigma_length: 2.0,
                sigma_area: 2.0,
                wm_capacity: 0,
                sigma_wm_per_item: 1.0,
                sigma_serial: 1.0,
                ..Default::default()
            },
        };
        let results = run_study(&battery, &noisy);
        let q5 = results.percent_correct(4, Encoding::ContextualGlyph);
        assert!(q5 < 60.0, "pure guessing on 1-of-6 should be low: {q5}");
    }
}
