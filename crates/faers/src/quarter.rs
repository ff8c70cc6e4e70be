//! A quarter of FAERS data and the corpus statistics of Table 5.1.

use crate::model::{CaseReport, ReportType};
use rustc_hash::FxHashSet;
use std::fmt;

/// Identifies a FAERS publication quarter, e.g. 2014 Q1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QuarterId {
    /// Calendar year.
    pub year: u16,
    /// Quarter within the year, 1–4.
    pub quarter: u8,
}

impl QuarterId {
    /// Creates a quarter id.
    ///
    /// # Panics
    /// Panics if `quarter` is not in 1..=4.
    pub fn new(year: u16, quarter: u8) -> Self {
        assert!((1..=4).contains(&quarter), "quarter must be 1-4, got {quarter}");
        QuarterId { year, quarter }
    }

    /// The file-label infix FAERS uses, e.g. `14Q1`.
    pub fn file_label(&self) -> String {
        format!("{:02}Q{}", self.year % 100, self.quarter)
    }

    /// All four quarters of a year, in order.
    pub fn year_quarters(year: u16) -> [QuarterId; 4] {
        [1, 2, 3, 4].map(|q| QuarterId::new(year, q))
    }
}

impl fmt::Display for QuarterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Q{}", self.year, self.quarter)
    }
}

/// One quarter's case reports.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarterData {
    /// Which quarter this is.
    pub id: QuarterId,
    /// The case reports (possibly with follow-up versions and noise — the
    /// raw feed the cleaning stage consumes).
    pub reports: Vec<CaseReport>,
}

impl QuarterData {
    /// Corpus statistics in Table 5.1's terms: reports, distinct (verbatim)
    /// drug strings, distinct ADR terms.
    pub fn stats(&self) -> QuarterStats {
        let mut drugs: FxHashSet<&str> = FxHashSet::default();
        let mut adrs: FxHashSet<&str> = FxHashSet::default();
        let mut expedited = 0usize;
        let mut serious = 0usize;
        for r in &self.reports {
            for d in &r.drugs {
                drugs.insert(d.name.as_str());
            }
            for a in &r.reactions {
                adrs.insert(a.as_str());
            }
            if r.report_type == ReportType::Expedited {
                expedited += 1;
            }
            if r.is_serious() {
                serious += 1;
            }
        }
        QuarterStats {
            reports: self.reports.len(),
            distinct_drugs: drugs.len(),
            distinct_adrs: adrs.len(),
            expedited,
            serious,
        }
    }

    /// Concatenates several quarters into one analysis window (e.g. a full
    /// year). The thesis mines per quarter; merging is the natural
    /// extension for slower-accruing signals. Case ids are expected to be
    /// disjoint across quarters (the cleaning stage de-duplicates by case
    /// id, so colliding ids would be collapsed as follow-ups).
    ///
    /// The merged window carries the first quarter's id.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn merge(quarters: &[QuarterData]) -> QuarterData {
        assert!(!quarters.is_empty(), "cannot merge zero quarters");
        QuarterData {
            id: quarters[0].id,
            reports: quarters.iter().flat_map(|q| q.reports.iter().cloned()).collect(),
        }
    }

    /// Keeps only expedited reports — the thesis's §5.1 selection ("reports
    /// submitted by manufacturers marked as expedited (EXP)"). Filters in
    /// place, so the other reports are freed here rather than wherever the
    /// unfiltered quarter would have gone out of scope.
    pub fn expedited_only(mut self) -> QuarterData {
        self.reports.retain(|r| r.report_type == ReportType::Expedited);
        self
    }
}

/// Table 5.1-style statistics of a quarter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarterStats {
    /// Number of case reports.
    pub reports: usize,
    /// Distinct verbatim drug strings.
    pub distinct_drugs: usize,
    /// Distinct ADR preferred terms.
    pub distinct_adrs: usize,
    /// Number of expedited (EXP) reports.
    pub expedited: usize,
    /// Number of serious cases (≥ 1 severe outcome).
    pub serious: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DrugEntry, DrugRole, Outcome, Sex};

    fn report(case_id: u64, rt: ReportType, drugs: &[&str], adrs: &[&str]) -> CaseReport {
        CaseReport {
            case_id,
            version: 1,
            report_type: rt,
            age: None,
            sex: Sex::Unknown,
            weight_kg: None,
            country: "US".into(),
            event_date: None,
            drugs: drugs.iter().map(|d| DrugEntry::new(*d, DrugRole::PrimarySuspect)).collect(),
            reactions: adrs.iter().map(|&a| a.into()).collect(),
            outcomes: vec![Outcome::Hospitalization],
        }
    }

    #[test]
    fn quarter_id_labels() {
        assert_eq!(QuarterId::new(2014, 1).file_label(), "14Q1");
        assert_eq!(QuarterId::new(2009, 4).file_label(), "09Q4");
        assert_eq!(QuarterId::new(2014, 2).to_string(), "2014 Q2");
    }

    #[test]
    #[should_panic(expected = "quarter must be 1-4")]
    fn quarter_id_rejects_q5() {
        QuarterId::new(2014, 5);
    }

    #[test]
    fn year_quarters_in_order() {
        let qs = QuarterId::year_quarters(2014);
        assert_eq!(qs.map(|q| q.quarter), [1, 2, 3, 4]);
        assert!(qs.iter().all(|q| q.year == 2014));
    }

    #[test]
    fn stats_count_distincts() {
        let q = QuarterData {
            id: QuarterId::new(2014, 1),
            reports: vec![
                report(1, ReportType::Expedited, &["A", "B"], &["x"]),
                report(2, ReportType::Periodic, &["B", "C"], &["x", "y"]),
                report(3, ReportType::Expedited, &["A"], &["z"]),
            ],
        };
        let s = q.stats();
        assert_eq!(s.reports, 3);
        assert_eq!(s.distinct_drugs, 3);
        assert_eq!(s.distinct_adrs, 3);
        assert_eq!(s.expedited, 2);
        assert_eq!(s.serious, 3);
    }

    #[test]
    fn expedited_only_filters() {
        let q = QuarterData {
            id: QuarterId::new(2014, 1),
            reports: vec![
                report(1, ReportType::Expedited, &["A"], &["x"]),
                report(2, ReportType::Periodic, &["B"], &["y"]),
                report(3, ReportType::Direct, &["C"], &["z"]),
            ],
        };
        let id = q.id;
        let e = q.expedited_only();
        assert_eq!(e.reports.len(), 1);
        assert_eq!(e.reports[0].case_id, 1);
        assert_eq!(e.id, id);
    }

    #[test]
    fn merge_concatenates_quarters() {
        let q1 = QuarterData {
            id: QuarterId::new(2014, 1),
            reports: vec![report(1, ReportType::Expedited, &["A"], &["x"])],
        };
        let q2 = QuarterData {
            id: QuarterId::new(2014, 2),
            reports: vec![
                report(2, ReportType::Expedited, &["B"], &["y"]),
                report(3, ReportType::Periodic, &["C"], &["z"]),
            ],
        };
        let merged = QuarterData::merge(&[q1.clone(), q2]);
        assert_eq!(merged.id, q1.id);
        assert_eq!(merged.reports.len(), 3);
        assert_eq!(merged.stats().distinct_drugs, 3);
    }

    #[test]
    #[should_panic(expected = "cannot merge zero quarters")]
    fn merge_of_nothing_panics() {
        QuarterData::merge(&[]);
    }

    #[test]
    fn stats_of_empty_quarter() {
        let q = QuarterData { id: QuarterId::new(2014, 1), reports: vec![] };
        let s = q.stats();
        assert_eq!(s.reports, 0);
        assert_eq!(s.distinct_drugs, 0);
        assert_eq!(s.distinct_adrs, 0);
    }
}
