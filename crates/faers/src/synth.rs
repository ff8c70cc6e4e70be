//! Synthetic FAERS generator (DESIGN.md substitution 1).
//!
//! The thesis evaluates on the real 2014 FAERS extract (Table 5.1:
//! 121k–138k expedited reports, 33k–38k verbatim drug strings, ~9.2k ADR
//! terms per quarter). That data is not available here, so this module
//! generates quarters with the same *structure*:
//!
//! * **Zipf prescription marginals** — a few blockbuster drugs dominate;
//! * **comorbidity classes** — drugs cluster; a report samples most of its
//!   medications from one class, which is what creates recurring drug
//!   combinations (the co-prescription signal MARAS mines);
//! * **per-drug ADR profiles** — every drug has its own reactions, creating
//!   the single-drug context rules the exclusiveness score contrasts
//!   against;
//! * **planted drug–drug interactions** — configured drug sets that emit
//!   their ADRs (almost) only when co-reported: the ground truth the
//!   case-study experiments must recover;
//! * **reporting noise** — verbatim-string misspellings, dosage suffixes,
//!   case mangling, and follow-up case versions, exercising the cleaning
//!   stage exactly the way real FAERS does;
//! * **demographics & outcomes** — expedited reports always carry ≥ 1
//!   serious outcome, matching the §5.1 selection criterion.
//!
//! Everything is deterministic in `SynthConfig::seed`.

use crate::intern::IStr;
use crate::model::{CaseReport, DrugEntry, DrugRole, Outcome, ReportType, Sex};
use crate::quarter::{QuarterData, QuarterId};
use crate::vocab::Vocabulary;
use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr::{Distribution, Normal, Zipf};

/// A ground-truth drug-drug interaction planted into the stream.
#[derive(Debug, Clone)]
pub struct PlantedInteraction {
    /// Canonical drug names (must exist in the drug vocabulary).
    pub drugs: Vec<String>,
    /// Canonical ADR terms the interaction triggers.
    pub adrs: Vec<String>,
    /// P(ADRs reported | all drugs co-reported) — high, e.g. 0.9.
    pub combo_reaction_prob: f64,
    /// P(ADRs reported | only a proper subset present) — low, e.g. 0.02.
    /// This is what makes the signal *exclusive* to the combination.
    pub single_reaction_prob: f64,
    /// Fraction of reports forced to contain the full combination.
    pub co_report_rate: f64,
}

impl PlantedInteraction {
    /// Convenience constructor with the defaults used across experiments.
    pub fn new(drugs: &[&str], adrs: &[&str]) -> Self {
        PlantedInteraction {
            drugs: drugs.iter().map(|s| s.to_string()).collect(),
            adrs: adrs.iter().map(|s| s.to_string()).collect(),
            combo_reaction_prob: 0.9,
            single_reaction_prob: 0.02,
            co_report_rate: 0.004,
        }
    }

    /// The interactions the thesis discusses: the three §5.4 case studies,
    /// the Table 3.1 asthma cluster, the §1.1 Zometa/Prilosec example and
    /// the intro's Aspirin/Warfarin interaction.
    pub fn paper_case_studies() -> Vec<PlantedInteraction> {
        vec![
            // Case I (§5.4): ranked 3rd from 2014 Q2.
            PlantedInteraction::new(&["IBUPROFEN", "METAMIZOLE"], &["Acute renal failure"]),
            // Case II (§5.4): ranked 2nd.
            PlantedInteraction::new(&["METHOTREXATE", "PROGRAF"], &["Drug ineffective"]),
            // Case III (§5.4): ranked 4th.
            PlantedInteraction::new(&["PREVACID", "NEXIUM"], &["Osteoporosis"]),
            // Table 3.1's three-drug cluster.
            PlantedInteraction::new(&["XOLAIR", "SINGULAIR", "PREDNISONE"], &["Asthma"]),
            // §1.1 motivating example.
            PlantedInteraction::new(
                &["ZOMETA", "PRILOSEC"],
                &["Osteoarthritis", "Neuropathy peripheral", "Osteonecrosis of jaw", "Pain"],
            ),
            // Intro example: excessive bleeding from aspirin + warfarin.
            PlantedInteraction::new(&["ASPIRIN", "WARFARIN"], &["Haemorrhage"]),
        ]
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Reports per quarter.
    pub n_reports: usize,
    /// Canonical drug vocabulary size (must cover the seed drugs, ≥ 150).
    pub n_drugs: usize,
    /// Canonical ADR vocabulary size (≥ 150).
    pub n_adrs: usize,
    /// Master seed; every quarter derives its own stream from it.
    pub seed: u64,
    /// Ground-truth interactions to plant.
    pub interactions: Vec<PlantedInteraction>,
    /// Probability a drug mention gets a spelling perturbation.
    pub misspelling_rate: f64,
    /// Distinct misspelled variants per drug. Real extracts contain far
    /// fewer distinct verbatim strings than mentions (Table 5.1 counts
    /// 33k–38k distinct strings per quarter against millions of rows)
    /// because reporters and manufacturers reuse the same garbled strings;
    /// each misspelled mention draws from a deterministic per-drug pool of
    /// this size instead of minting a fresh random edit.
    pub typo_variants_per_drug: usize,
    /// Probability a drug mention gets a dosage/formulation suffix.
    pub dosage_noise_rate: f64,
    /// Probability a case gets an additional follow-up version.
    pub duplicate_rate: f64,
    /// Fraction of expedited (EXP) reports.
    pub expedited_fraction: f64,
    /// Number of comorbidity classes drugs cluster into.
    pub n_comorbidity_classes: usize,
    /// Mean number of drugs per report (geometric, clamped to 1..=16).
    pub mean_drugs_per_report: f64,
    /// Probability each profile ADR of a reported drug is included.
    pub drug_adr_expression: f64,
    /// Probability of one extra background (indication-noise) reaction.
    pub background_adr_rate: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            n_reports: 5_000,
            n_drugs: 600,
            n_adrs: 400,
            seed: 2014,
            interactions: PlantedInteraction::paper_case_studies(),
            misspelling_rate: 0.08,
            typo_variants_per_drug: 3,
            dosage_noise_rate: 0.12,
            duplicate_rate: 0.04,
            expedited_fraction: 0.85,
            n_comorbidity_classes: 24,
            mean_drugs_per_report: 4.0,
            drug_adr_expression: 0.35,
            background_adr_rate: 0.25,
        }
    }
}

impl SynthConfig {
    /// Paper-scale configuration (≈1:6 of the real quarter sizes; see
    /// DESIGN.md) used by the experiment binaries.
    pub fn paper_scale(seed: u64) -> Self {
        SynthConfig { n_reports: 20_000, n_drugs: 2_000, n_adrs: 1_200, seed, ..Default::default() }
    }

    /// Small, fast configuration for tests.
    pub fn test_scale(seed: u64) -> Self {
        SynthConfig { n_reports: 800, n_drugs: 200, n_adrs: 160, seed, ..Default::default() }
    }
}

/// Per-drug generator state.
#[derive(Debug, Clone)]
struct DrugProfile {
    /// ADR ids this drug causes on its own.
    own_adrs: Vec<u32>,
    /// Comorbidity class.
    class: usize,
}

/// The synthetic FAERS source.
#[derive(Debug)]
pub struct Synthesizer {
    config: SynthConfig,
    drug_vocab: Vocabulary,
    adr_vocab: Vocabulary,
    profiles: Vec<DrugProfile>,
    classes: Vec<Vec<u32>>,
    /// Interactions resolved to vocabulary ids.
    planted: Vec<(Vec<u32>, Vec<u32>, PlantedInteraction)>,
    next_case_id: u64,
}

impl Synthesizer {
    /// Builds a synthesizer; vocabularies and drug profiles are derived
    /// deterministically from the seed.
    ///
    /// # Panics
    /// Panics if a planted interaction references a drug or ADR absent from
    /// the generated vocabularies, or if vocabulary sizes are too small to
    /// cover the seed lists.
    pub fn new(config: SynthConfig) -> Self {
        assert!(config.n_drugs >= 150, "n_drugs must cover the seed drugs");
        assert!(config.n_adrs >= 150, "n_adrs must cover the seed ADRs");
        let drug_vocab = Vocabulary::drugs(config.n_drugs);
        let adr_vocab = Vocabulary::adrs(config.n_adrs);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed_ba5e);

        let planted: Vec<(Vec<u32>, Vec<u32>, PlantedInteraction)> = config
            .interactions
            .iter()
            .map(|pi| {
                let drugs: Vec<u32> = pi
                    .drugs
                    .iter()
                    .map(|d| {
                        drug_vocab
                            .id_of(d)
                            .unwrap_or_else(|| panic!("planted drug {d:?} not in vocabulary"))
                    })
                    .collect();
                let adrs: Vec<u32> = pi
                    .adrs
                    .iter()
                    .map(|a| {
                        adr_vocab
                            .id_of(a)
                            .unwrap_or_else(|| panic!("planted ADR {a:?} not in vocabulary"))
                    })
                    .collect();
                (drugs, adrs, pi.clone())
            })
            .collect();

        let n_classes = config.n_comorbidity_classes.max(1);
        let mut profiles = Vec::with_capacity(config.n_drugs);
        let mut classes: Vec<Vec<u32>> = vec![Vec::new(); n_classes];
        for drug in 0..config.n_drugs as u32 {
            let n_own = rng.gen_range(1..=4);
            let own_adrs: Vec<u32> =
                (0..n_own).map(|_| rng.gen_range(0..config.n_adrs as u32)).collect();
            let class = rng.gen_range(0..n_classes);
            classes[class].push(drug);
            profiles.push(DrugProfile { own_adrs, class });
        }
        // Planted combinations must share a class so the comorbidity sampler
        // also co-prescribes them organically.
        for (drugs, _, _) in &planted {
            let home = profiles[drugs[0] as usize].class;
            for &d in &drugs[1..] {
                let old = profiles[d as usize].class;
                if old != home {
                    classes[old].retain(|&x| x != d);
                    classes[home].push(d);
                    profiles[d as usize].class = home;
                }
            }
        }

        Synthesizer {
            config,
            drug_vocab,
            adr_vocab,
            profiles,
            classes,
            planted,
            next_case_id: 9_000_001,
        }
    }

    /// The canonical drug vocabulary the generator draws from.
    pub fn drug_vocab(&self) -> &Vocabulary {
        &self.drug_vocab
    }

    /// The canonical ADR vocabulary the generator draws from.
    pub fn adr_vocab(&self) -> &Vocabulary {
        &self.adr_vocab
    }

    /// The planted ground truth as `(drug ids, adr ids)` pairs.
    pub fn planted_truth(&self) -> Vec<(Vec<u32>, Vec<u32>)> {
        self.planted.iter().map(|(d, a, _)| (d.clone(), a.clone())).collect()
    }

    /// Generates one quarter. Case ids continue across calls, so a year's
    /// quarters have disjoint cases.
    pub fn generate_quarter(&mut self, id: QuarterId) -> QuarterData {
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ (u64::from(id.year) << 8) ^ u64::from(id.quarter),
        );
        let zipf = Zipf::new(self.config.n_drugs as u64, 1.05).expect("valid zipf");
        let mut reports = Vec::with_capacity(self.config.n_reports + 64);
        for _ in 0..self.config.n_reports {
            let case_id = self.next_case_id;
            self.next_case_id += 1;
            let report = self.generate_report(case_id, id, &zipf, &mut rng);
            // Follow-up duplicates: same case, higher version, one extra
            // reaction sometimes — exactly what cleaning must collapse.
            if rng.gen_bool(self.config.duplicate_rate) {
                let mut followup = report.clone();
                followup.version += 1;
                if rng.gen_bool(0.5) {
                    let extra = rng.gen_range(0..self.config.n_adrs as u32);
                    followup.reactions.push(self.adr_vocab.term(extra).into());
                }
                reports.push(report);
                reports.push(followup);
            } else {
                reports.push(report);
            }
        }
        QuarterData { id, reports }
    }

    /// Generates the four quarters of a year.
    pub fn generate_year(&mut self, year: u16) -> Vec<QuarterData> {
        QuarterId::year_quarters(year).into_iter().map(|q| self.generate_quarter(q)).collect()
    }

    fn generate_report(
        &self,
        case_id: u64,
        quarter: QuarterId,
        zipf: &Zipf<f64>,
        rng: &mut StdRng,
    ) -> CaseReport {
        // --- drug set -------------------------------------------------
        let mut drug_ids: Vec<u32> = Vec::new();
        // Planted combination injection (at most one per report).
        for (drugs, _, pi) in &self.planted {
            if rng.gen_bool(pi.co_report_rate) {
                drug_ids.extend_from_slice(drugs);
                break;
            }
        }
        // Geometric-ish count of additional drugs.
        let p = 1.0 / self.config.mean_drugs_per_report.max(1.0);
        let mut extra = 1usize;
        while extra < 16 && rng.gen_bool(1.0 - p) {
            extra += 1;
        }
        let anchor_class = if drug_ids.is_empty() {
            let anchor = zipf.sample(rng) as u32 - 1;
            drug_ids.push(anchor);
            self.profiles[anchor as usize].class
        } else {
            self.profiles[drug_ids[0] as usize].class
        };
        for _ in 0..extra {
            let d = if rng.gen_bool(0.7) && !self.classes[anchor_class].is_empty() {
                *self.classes[anchor_class].choose(rng).expect("non-empty class")
            } else {
                zipf.sample(rng) as u32 - 1
            };
            drug_ids.push(d);
        }
        drug_ids.sort_unstable();
        drug_ids.dedup();

        // --- reactions ------------------------------------------------
        let mut adr_ids: Vec<u32> = Vec::new();
        for &d in &drug_ids {
            for &a in &self.profiles[d as usize].own_adrs {
                if rng.gen_bool(self.config.drug_adr_expression) {
                    adr_ids.push(a);
                }
            }
        }
        for (drugs, adrs, pi) in &self.planted {
            let present = drugs.iter().filter(|d| drug_ids.binary_search(d).is_ok()).count();
            if present == drugs.len() {
                if rng.gen_bool(pi.combo_reaction_prob) {
                    adr_ids.extend_from_slice(adrs);
                }
            } else if present > 0 && rng.gen_bool(pi.single_reaction_prob) {
                adr_ids.extend_from_slice(adrs);
            }
        }
        if rng.gen_bool(self.config.background_adr_rate) {
            adr_ids.push(rng.gen_range(0..self.config.n_adrs as u32));
        }
        if adr_ids.is_empty() {
            // FAERS reports always carry at least one reaction.
            let d = drug_ids[rng.gen_range(0..drug_ids.len())];
            let profile = &self.profiles[d as usize];
            adr_ids.push(profile.own_adrs[rng.gen_range(0..profile.own_adrs.len())]);
        }
        adr_ids.sort_unstable();
        adr_ids.dedup();

        // --- verbatim strings with noise -------------------------------
        let drugs: Vec<DrugEntry> = drug_ids
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let name = self.noisy_drug_string(self.drug_vocab.term(d), rng);
                let role = if i == 0 {
                    DrugRole::PrimarySuspect
                } else if rng.gen_bool(0.3) {
                    DrugRole::SecondarySuspect
                } else if rng.gen_bool(0.1) {
                    DrugRole::Interacting
                } else {
                    DrugRole::Concomitant
                };
                DrugEntry::new(name, role)
            })
            .collect();
        let reactions: Vec<IStr> = adr_ids
            .iter()
            .map(|&a| {
                let term = self.adr_vocab.term(a);
                if rng.gen_bool(0.1) {
                    term.to_ascii_lowercase().into()
                } else if rng.gen_bool(0.05) {
                    term.to_ascii_uppercase().into()
                } else {
                    term.into()
                }
            })
            .collect();

        // --- demographics & outcomes -----------------------------------
        let report_type = if rng.gen_bool(self.config.expedited_fraction) {
            ReportType::Expedited
        } else if rng.gen_bool(0.7) {
            ReportType::Periodic
        } else {
            ReportType::Direct
        };
        let outcomes = self.sample_outcomes(report_type, rng);
        let age_dist = Normal::new(58.0f32, 18.0).expect("valid normal");
        let weight_dist = Normal::new(75.0f32, 15.0).expect("valid normal");
        let age = rng.gen_bool(0.9).then(|| age_dist.sample(rng).clamp(1.0, 100.0).round());
        let weight_kg = rng
            .gen_bool(0.75)
            .then(|| (weight_dist.sample(rng).clamp(30.0, 200.0) * 10.0).round() / 10.0);
        let sex = match rng.gen_range(0..10) {
            0..=4 => Sex::Female,
            5..=8 => Sex::Male,
            _ => Sex::Unknown,
        };
        let country: IStr =
            (*["US", "US", "US", "US", "US", "US", "GB", "CA", "JP", "FR", "DE", "MX"]
                .choose(rng)
                .expect("non-empty"))
            .into();
        let month = u32::from(quarter.quarter - 1) * 3 + rng.gen_range(1..=3);
        let day = rng.gen_range(1..=28);
        let event_date = Some(u32::from(quarter.year) * 10_000 + month * 100 + day);

        CaseReport {
            case_id,
            version: 1,
            report_type,
            age,
            sex,
            weight_kg,
            country,
            event_date,
            drugs,
            reactions,
            outcomes,
        }
    }

    fn sample_outcomes(&self, report_type: ReportType, rng: &mut StdRng) -> Vec<Outcome> {
        let mut out = Vec::new();
        if report_type == ReportType::Expedited {
            // §5.1: expedited reports contain at least one severe event.
            let serious = [
                (Outcome::Hospitalization, 55u32),
                (Outcome::Death, 10),
                (Outcome::LifeThreatening, 9),
                (Outcome::Disability, 8),
                (Outcome::RequiredIntervention, 15),
                (Outcome::CongenitalAnomaly, 3),
            ];
            let total: u32 = serious.iter().map(|&(_, w)| w).sum();
            let mut pick = rng.gen_range(0..total);
            for &(o, w) in &serious {
                if pick < w {
                    out.push(o);
                    break;
                }
                pick -= w;
            }
        }
        if rng.gen_bool(0.35) {
            out.push(Outcome::Other);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn noisy_drug_string(&self, canonical: &str, rng: &mut StdRng) -> String {
        let mut s = canonical.to_string();
        if rng.gen_bool(self.config.misspelling_rate) {
            // Draw from the drug's bounded variant pool: the variant index
            // seeds its own generator, so mention k of drug D always
            // produces the same garbled string, mention streams stay
            // deterministic, and distinct misspellings stay ≪ mentions.
            let k = rng.gen_range(0..self.config.typo_variants_per_drug.max(1)) as u64;
            let mut h = rustc_hash::FxHasher::default();
            std::hash::Hash::hash(canonical, &mut h);
            let mut pool_rng = StdRng::seed_from_u64(
                self.config.seed
                    ^ std::hash::Hasher::finish(&h)
                    ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            s = perturb_spelling(&s, &mut pool_rng);
        }
        if rng.gen_bool(self.config.dosage_noise_rate) {
            let strength = [5u32, 10, 20, 25, 40, 50, 100, 200, 500].choose(rng).unwrap();
            let unit = ["MG", "MG", "MG", "MCG", "ML"].choose(rng).unwrap();
            let form = ["TABLET", "CAPSULE", "INJECTION", "ORAL SOLUTION", ""].choose(rng).unwrap();
            s = format!("{s} {strength}{unit} {form}").trim().to_string();
        }
        if rng.gen_bool(0.08) {
            s = s.to_ascii_lowercase();
        }
        s
    }
}

/// Applies one random edit (substitute / delete / insert / transpose) to an
/// ASCII string, mimicking data-entry typos.
fn perturb_spelling(s: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 3 {
        return s.to_string();
    }
    let mut out = chars.clone();
    let pos = rng.gen_range(1..chars.len());
    match rng.gen_range(0..4) {
        0 => {
            // substitute with a nearby letter
            out[pos] = (b'A' + rng.gen_range(0..26)) as char;
        }
        1 => {
            out.remove(pos);
        }
        2 => {
            out.insert(pos, (b'A' + rng.gen_range(0..26)) as char);
        }
        _ => {
            if pos + 1 < out.len() {
                out.swap(pos, pos + 1);
            } else {
                out.swap(pos - 1, pos);
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::{clean_quarter, CleanConfig};

    fn small() -> Synthesizer {
        Synthesizer::new(SynthConfig::test_scale(7))
    }

    #[test]
    fn generates_requested_report_count() {
        let mut s = small();
        let q = s.generate_quarter(QuarterId::new(2014, 1));
        // Duplicates add a few extra rows.
        assert!(q.reports.len() >= 800);
        assert!(q.reports.len() < 900);
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = Synthesizer::new(SynthConfig::test_scale(42));
        let mut b = Synthesizer::new(SynthConfig::test_scale(42));
        let qa = a.generate_quarter(QuarterId::new(2014, 2));
        let qb = b.generate_quarter(QuarterId::new(2014, 2));
        assert_eq!(qa, qb);
        let mut c = Synthesizer::new(SynthConfig::test_scale(43));
        let qc = c.generate_quarter(QuarterId::new(2014, 2));
        assert_ne!(qa, qc);
    }

    #[test]
    fn quarters_have_disjoint_case_ids() {
        let mut s = small();
        let q1 = s.generate_quarter(QuarterId::new(2014, 1));
        let q2 = s.generate_quarter(QuarterId::new(2014, 2));
        let max1 = q1.reports.iter().map(|r| r.case_id).max().unwrap();
        let min2 = q2.reports.iter().map(|r| r.case_id).min().unwrap();
        assert!(max1 < min2);
    }

    #[test]
    fn every_report_is_well_formed() {
        let mut s = small();
        let q = s.generate_quarter(QuarterId::new(2014, 3));
        for r in &q.reports {
            assert!(!r.drugs.is_empty(), "report without drugs: {r}");
            assert!(!r.reactions.is_empty(), "report without reactions: {r}");
            if r.report_type == ReportType::Expedited {
                assert!(r.is_serious(), "EXP report without serious outcome: {r}");
            }
            if let Some(d) = r.event_date {
                let month = d / 100 % 100;
                assert!((7..=9).contains(&month), "Q3 event in month {month}");
            }
        }
    }

    #[test]
    fn planted_combos_occur_and_express_adrs() {
        let mut s = small();
        let truth = s.planted_truth();
        let q = s.generate_quarter(QuarterId::new(2014, 1));
        let (cleaned, _) =
            clean_quarter(&q, s.drug_vocab(), s.adr_vocab(), &CleanConfig::default());
        // Case I: ibuprofen + metamizole must co-occur in several cleaned
        // reports, mostly with acute renal failure.
        let (drugs, adrs) = &truth[0];
        let combo_reports: Vec<_> =
            cleaned.iter().filter(|c| drugs.iter().all(|d| c.drug_ids.contains(d))).collect();
        assert!(
            combo_reports.len() >= 2,
            "expected several combo reports, got {}",
            combo_reports.len()
        );
        let with_adr =
            combo_reports.iter().filter(|c| adrs.iter().all(|a| c.adr_ids.contains(a))).count();
        assert!(
            with_adr * 2 > combo_reports.len(),
            "combo should usually express its ADR: {with_adr}/{}",
            combo_reports.len()
        );
    }

    #[test]
    fn noise_produces_verbatim_variants() {
        let mut s = small();
        let q = s.generate_quarter(QuarterId::new(2014, 1));
        let stats = q.stats();
        // More verbatim strings than canonical drugs => noise is active.
        assert!(
            stats.distinct_drugs > 200,
            "expected verbatim variants beyond the 200 canonical names, got {}",
            stats.distinct_drugs
        );
    }

    #[test]
    fn perturb_spelling_changes_string() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut changed = 0;
        for _ in 0..50 {
            if perturb_spelling("METHOTREXATE", &mut rng) != "METHOTREXATE" {
                changed += 1;
            }
        }
        assert!(changed >= 45, "perturbation almost always changes the string: {changed}");
        assert_eq!(perturb_spelling("AB", &mut rng), "AB"); // too short to touch
    }

    #[test]
    #[should_panic(expected = "not in vocabulary")]
    fn unknown_planted_drug_panics() {
        let mut cfg = SynthConfig::test_scale(1);
        cfg.interactions = vec![PlantedInteraction::new(&["NOSUCHDRUGXYZ"], &["Nausea"])];
        Synthesizer::new(cfg);
    }

    #[test]
    fn year_generation_produces_four_quarters() {
        let mut s = small();
        let year = s.generate_year(2014);
        assert_eq!(year.len(), 4);
        assert_eq!(year[2].id, QuarterId::new(2014, 3));
    }
}
