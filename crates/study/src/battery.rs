//! The Appendix-A question battery.
//!
//! Five questions (A.2): pick the top-1 / top-k interesting interaction
//! among candidate MCACs of a given drug count, shown as glyphs or bar
//! charts. A question's ground truth is the exclusiveness ordering of its
//! candidates.

use maras_mcac::RankedMcac;
use rand::prelude::*;
use rand::rngs::StdRng;

/// What a participant visually receives for one candidate cluster: the
/// target strength and the context strengths (the magnitudes both encodings
/// draw).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStimulus {
    /// Target rule confidence (inner circle / first bar).
    pub target: f64,
    /// Context rule confidences (sectors / remaining bars), flattened.
    pub context: Vec<f64>,
    /// Ground-truth interestingness (the system's exclusiveness score).
    pub true_score: f64,
}

impl ClusterStimulus {
    /// Builds the stimulus a ranked cluster displays.
    pub fn from_ranked(r: &RankedMcac) -> Self {
        ClusterStimulus {
            target: r.cluster.target.confidence(),
            context: r.cluster.context_stats().map(|c| c.confidence()).collect(),
            true_score: r.score,
        }
    }

    /// A hand-specified stimulus (tests and synthetic batteries).
    pub fn new(target: f64, context: Vec<f64>) -> Self {
        let mean = if context.is_empty() {
            0.0
        } else {
            context.iter().sum::<f64>() / context.len() as f64
        };
        ClusterStimulus { target, true_score: target - mean, context }
    }

    /// Number of drugs implied by the context size (`2^n − 2` sectors).
    pub fn n_drugs(&self) -> usize {
        ((self.context.len() + 2) as f64).log2().round() as usize
    }
}

/// One study question: candidates plus how many to pick.
#[derive(Debug, Clone)]
pub struct Question {
    /// Question label (e.g. "Q1").
    pub label: String,
    /// Candidate clusters shown side by side.
    pub candidates: Vec<ClusterStimulus>,
    /// How many the participant must select (top-k by interestingness).
    pub pick_top_k: usize,
    /// Drugs per candidate (2, 3 or 4 in the thesis).
    pub n_drugs: usize,
}

impl Question {
    /// Ground-truth answer: indices of the top-k candidates by true score,
    /// as a sorted set.
    pub fn correct_answer(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.candidates.len()).collect();
        order.sort_by(|&a, &b| {
            self.candidates[b]
                .true_score
                .partial_cmp(&self.candidates[a].true_score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut top: Vec<usize> = order[..self.pick_top_k].to_vec();
        top.sort_unstable();
        top
    }
}

/// A full battery of questions.
#[derive(Debug, Clone)]
pub struct Battery {
    /// The questions, in presentation order.
    pub questions: Vec<Question>,
}

/// Builds the Appendix-A battery synthetically: five questions over 2/3/4
/// drug clusters, each mixing clearly-exclusive winners with plausible
/// decoys (high-confidence targets whose context explains them away —
/// exactly the trap Fig. A.1–A.3's samples show).
///
/// Deterministic in `seed`.
pub fn appendix_a_battery(seed: u64) -> Battery {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57_0d_1e);
    let questions = vec![
        // Q1: top-1 among two-drug clusters.
        make_question("Q1", 2, 6, 1, &mut rng),
        // Q2: top-3 among two-drug clusters.
        make_question("Q2", 2, 8, 3, &mut rng),
        // Q3: top-1 among three-drug clusters.
        make_question("Q3", 3, 6, 1, &mut rng),
        // Q4: top-2 among three-drug clusters.
        make_question("Q4", 3, 6, 2, &mut rng),
        // Q5: top-1 among four-drug clusters.
        make_question("Q5", 4, 6, 1, &mut rng),
    ];
    Battery { questions }
}

fn make_question(
    label: &str,
    n_drugs: usize,
    n_candidates: usize,
    pick_top_k: usize,
    rng: &mut StdRng,
) -> Question {
    let context_size = (1usize << n_drugs) - 2;
    let mut candidates = Vec::with_capacity(n_candidates);
    // Construct score-first so the winner/decoy margin is guaranteed but
    // tight (≈0.1) — the study must be hard enough to leave the ceiling.
    for i in 0..n_candidates {
        let (score, dominated): (f64, bool) = if i < pick_top_k {
            (rng.gen_range(0.54..0.64), false)
        } else if i % 2 == 0 {
            // Decoy A: strong target *dominated* by its context (a sub-rule
            // explains the ADR).
            (rng.gen_range(0.30..0.44), true)
        } else {
            // Decoy B: weak target, weak context.
            (rng.gen_range(0.28..0.42), false)
        };
        let ctx_mean: f64 =
            if dominated { rng.gen_range(0.40..0.50) } else { rng.gen_range(0.12..0.22) };
        let target = (score + ctx_mean).min(0.97);
        // Spread context values around their mean without moving it.
        let mut context: Vec<f64> = (0..context_size)
            .map(|j| {
                let jitter: f64 = rng.gen_range(-0.06..0.06);
                let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
                (ctx_mean + sign * jitter).clamp(0.0, 1.0)
            })
            .collect();
        if context_size % 2 == 1 {
            // Odd count: pin the last value to the mean so it stays exact.
            *context.last_mut().expect("non-empty context") = ctx_mean;
        }
        candidates.push(ClusterStimulus::new(target, context));
    }
    candidates.shuffle(rng);
    Question { label: label.to_string(), candidates, pick_top_k, n_drugs }
}

/// Builds a question directly from a pipeline's ranked output: the top-k
/// clusters with `n_drugs` drugs become the winners, padded with the
/// worst-ranked same-size clusters as decoys.
pub fn question_from_ranked(
    label: &str,
    ranked: &[RankedMcac],
    n_drugs: usize,
    n_candidates: usize,
    pick_top_k: usize,
    seed: u64,
) -> Option<Question> {
    let same_size: Vec<&RankedMcac> =
        ranked.iter().filter(|r| r.cluster.n_drugs() == n_drugs).collect();
    if same_size.len() < n_candidates || n_candidates < pick_top_k {
        return None;
    }
    let mut candidates: Vec<ClusterStimulus> = Vec::with_capacity(n_candidates);
    for r in &same_size[..pick_top_k] {
        candidates.push(ClusterStimulus::from_ranked(r));
    }
    for r in &same_size[same_size.len() - (n_candidates - pick_top_k)..] {
        candidates.push(ClusterStimulus::from_ranked(r));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    candidates.shuffle(&mut rng);
    Some(Question { label: label.to_string(), candidates, pick_top_k, n_drugs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stimulus_score_is_target_minus_mean_context() {
        let s = ClusterStimulus::new(0.9, vec![0.1, 0.3]);
        assert!((s.true_score - 0.7).abs() < 1e-12);
        assert_eq!(s.n_drugs(), 2);
        let s3 = ClusterStimulus::new(0.5, vec![0.0; 6]);
        assert_eq!(s3.n_drugs(), 3);
        let s4 = ClusterStimulus::new(0.5, vec![0.0; 14]);
        assert_eq!(s4.n_drugs(), 4);
    }

    #[test]
    fn battery_matches_appendix_a_structure() {
        let b = appendix_a_battery(1);
        assert_eq!(b.questions.len(), 5);
        let specs: Vec<(usize, usize)> =
            b.questions.iter().map(|q| (q.n_drugs, q.pick_top_k)).collect();
        assert_eq!(specs, vec![(2, 1), (2, 3), (3, 1), (3, 2), (4, 1)]);
        for q in &b.questions {
            let expected_ctx = (1usize << q.n_drugs) - 2;
            for c in &q.candidates {
                assert_eq!(c.context.len(), expected_ctx, "{}", q.label);
            }
        }
    }

    #[test]
    fn battery_is_deterministic_in_seed() {
        assert_eq!(
            appendix_a_battery(9).questions[0].candidates,
            appendix_a_battery(9).questions[0].candidates
        );
        let a = appendix_a_battery(9);
        let b = appendix_a_battery(10);
        assert_ne!(a.questions[0].candidates, b.questions[0].candidates);
    }

    #[test]
    fn correct_answer_is_topk_by_true_score() {
        let q = Question {
            label: "t".into(),
            candidates: vec![
                ClusterStimulus::new(0.5, vec![0.4, 0.4]), // 0.1
                ClusterStimulus::new(0.9, vec![0.1, 0.1]), // 0.8
                ClusterStimulus::new(0.8, vec![0.3, 0.3]), // 0.5
            ],
            pick_top_k: 2,
            n_drugs: 2,
        };
        assert_eq!(q.correct_answer(), vec![1, 2]);
    }

    #[test]
    fn winners_clearly_beat_decoys() {
        // The battery's construction must give the ground truth a margin:
        // winners' true scores all above every decoy's.
        let b = appendix_a_battery(4);
        for q in &b.questions {
            let answer = q.correct_answer();
            let min_winner =
                answer.iter().map(|&i| q.candidates[i].true_score).fold(f64::INFINITY, f64::min);
            let max_decoy = (0..q.candidates.len())
                .filter(|i| !answer.contains(i))
                .map(|i| q.candidates[i].true_score)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                min_winner > max_decoy + 0.02,
                "{}: winner {min_winner} vs decoy {max_decoy}",
                q.label
            );
        }
    }
}
