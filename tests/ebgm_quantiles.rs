//! EB05/EB95 on every ranked rule of the seeded differential quarters,
//! checked without an oracle: each quantile must bracket its probability
//! on the posterior mixture CDF to 1e-9 relative. The solver-vs-bisection
//! agreement sweep over `(n, e)` lives with the solver in `signals::ebgm`.

use maras::core::{Pipeline, PipelineConfig};
use maras::faers::{QuarterId, SynthConfig, Synthesizer};
use maras::signals::gamma::gamma_p;
use maras::signals::{ebgm_from_table, ContingencyTable, GammaMixturePrior};

#[test]
fn quantiles_bracket_their_probability_on_every_seeded_rule() {
    let prior = GammaMixturePrior::default();
    for seed in [31u64, 32, 33] {
        let mut cfg = SynthConfig::test_scale(seed);
        cfg.n_reports = 1500;
        let mut synth = Synthesizer::new(cfg);
        let quarter = synth.generate_quarter(QuarterId::new(2014, 1 + (seed % 4) as u8));
        let result = Pipeline::new(PipelineConfig::default().with_min_support(6)).run(
            quarter,
            synth.drug_vocab(),
            synth.adr_vocab(),
        );
        assert!(!result.ranked.is_empty(), "seed {seed}: no ranked rules");
        for (i, r) in result.ranked.iter().enumerate() {
            let table = ContingencyTable::from_stats(&r.cluster.target.stats).unwrap();
            let s = ebgm_from_table(&table, &prior);
            let (n, e) = (table.a as f64, table.expected_a().max(1e-9));
            let (a1, b1) = (prior.alpha1 + n, prior.beta1 + e);
            let (a2, b2) = (prior.alpha2 + n, prior.beta2 + e);
            let w1 = s.posterior_w1;
            let cdf = |x: f64| w1 * gamma_p(a1, x * b1) + (1.0 - w1) * gamma_p(a2, x * b2);
            for (p, q) in [(0.05, s.eb05), (0.95, s.eb95)] {
                assert!(
                    cdf(q * (1.0 - 1e-9)) <= p && p <= cdf(q * (1.0 + 1e-9)),
                    "seed {seed} rule {i} (n={n}, e={e}): quantile {p} = {q}"
                );
            }
        }
    }
}
