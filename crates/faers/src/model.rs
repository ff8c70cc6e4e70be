//! The FAERS case-report data model.
//!
//! Field inventory follows the public FAERS quarterly extracts: a DEMO row
//! per case version (demographics, report type), DRUG rows (one per reported
//! medication, with a suspect-role code), REAC rows (one per reaction
//! preferred term) and OUTC rows (one per outcome code). The thesis selects
//! "mandatory reports submitted by manufacturers marked as expedited (EXP)
//! as these reports contain at least one severe adverse event" (§5.1).

use crate::intern::IStr;
use std::fmt;

/// How the report entered the surveillance system (DEMO `rept_cod`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportType {
    /// Expedited (15-day) manufacturer report — carries ≥ 1 serious event.
    Expedited,
    /// Periodic (non-expedited) manufacturer report.
    Periodic,
    /// Direct voluntary report (MedWatch).
    Direct,
}

impl ReportType {
    /// FAERS code string.
    pub fn code(self) -> &'static str {
        match self {
            ReportType::Expedited => "EXP",
            ReportType::Periodic => "PER",
            ReportType::Direct => "DIR",
        }
    }

    /// Parses a FAERS code string.
    pub fn from_code(code: &str) -> Option<Self> {
        match code.trim() {
            "EXP" => Some(ReportType::Expedited),
            "PER" => Some(ReportType::Periodic),
            "DIR" => Some(ReportType::Direct),
            _ => None,
        }
    }
}

/// Patient sex (DEMO `sex`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sex {
    /// Female.
    Female,
    /// Male.
    Male,
    /// Unknown / unreported.
    Unknown,
}

impl Sex {
    /// FAERS code string.
    pub fn code(self) -> &'static str {
        match self {
            Sex::Female => "F",
            Sex::Male => "M",
            Sex::Unknown => "UNK",
        }
    }

    /// Parses a FAERS code string (empty and unknown map to `Unknown`).
    pub fn from_code(code: &str) -> Self {
        match code.trim() {
            "F" => Sex::Female,
            "M" => Sex::Male,
            _ => Sex::Unknown,
        }
    }
}

/// Outcome of the adverse event (OUTC `outc_cod`). Any outcome other than
/// `Other` marks the case *serious* under FDA criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// Death.
    Death,
    /// Life-threatening.
    LifeThreatening,
    /// Hospitalization (initial or prolonged).
    Hospitalization,
    /// Disability.
    Disability,
    /// Congenital anomaly.
    CongenitalAnomaly,
    /// Required intervention to prevent permanent impairment.
    RequiredIntervention,
    /// Other serious / medically important.
    Other,
}

impl Outcome {
    /// FAERS two-letter code.
    pub fn code(self) -> &'static str {
        match self {
            Outcome::Death => "DE",
            Outcome::LifeThreatening => "LT",
            Outcome::Hospitalization => "HO",
            Outcome::Disability => "DS",
            Outcome::CongenitalAnomaly => "CA",
            Outcome::RequiredIntervention => "RI",
            Outcome::Other => "OT",
        }
    }

    /// Parses a FAERS two-letter code.
    pub fn from_code(code: &str) -> Option<Self> {
        match code.trim() {
            "DE" => Some(Outcome::Death),
            "LT" => Some(Outcome::LifeThreatening),
            "HO" => Some(Outcome::Hospitalization),
            "DS" => Some(Outcome::Disability),
            "CA" => Some(Outcome::CongenitalAnomaly),
            "RI" => Some(Outcome::RequiredIntervention),
            "OT" => Some(Outcome::Other),
            _ => None,
        }
    }

    /// All outcome codes in severity order (most severe first).
    pub const ALL: [Outcome; 7] = [
        Outcome::Death,
        Outcome::LifeThreatening,
        Outcome::Hospitalization,
        Outcome::Disability,
        Outcome::CongenitalAnomaly,
        Outcome::RequiredIntervention,
        Outcome::Other,
    ];

    /// Severity weight for ranking filters: death = 6 … other = 0.
    pub fn severity(self) -> u8 {
        match self {
            Outcome::Death => 6,
            Outcome::LifeThreatening => 5,
            Outcome::Hospitalization => 4,
            Outcome::Disability => 3,
            Outcome::CongenitalAnomaly => 2,
            Outcome::RequiredIntervention => 1,
            Outcome::Other => 0,
        }
    }
}

/// Reported role of a drug within a case (DRUG `role_cod`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DrugRole {
    /// Primary suspect.
    PrimarySuspect,
    /// Secondary suspect.
    SecondarySuspect,
    /// Concomitant.
    Concomitant,
    /// Interacting.
    Interacting,
}

impl DrugRole {
    /// FAERS code string.
    pub fn code(self) -> &'static str {
        match self {
            DrugRole::PrimarySuspect => "PS",
            DrugRole::SecondarySuspect => "SS",
            DrugRole::Concomitant => "C",
            DrugRole::Interacting => "I",
        }
    }

    /// Parses a FAERS code string.
    pub fn from_code(code: &str) -> Option<Self> {
        match code.trim() {
            "PS" => Some(DrugRole::PrimarySuspect),
            "SS" => Some(DrugRole::SecondarySuspect),
            "C" => Some(DrugRole::Concomitant),
            "I" => Some(DrugRole::Interacting),
            _ => None,
        }
    }
}

/// One medication line of a report: the verbatim (possibly misspelled,
/// dosage-laden) drug string plus its suspect role.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DrugEntry {
    /// Verbatim drug name as reported (`drugname`), interned: reports that
    /// name the same drug share one allocation.
    pub name: IStr,
    /// Suspect role.
    pub role: DrugRole,
}

impl DrugEntry {
    /// Convenience constructor.
    pub fn new(name: impl Into<IStr>, role: DrugRole) -> Self {
        DrugEntry { name: name.into(), role }
    }
}

/// One adverse-event case report (one DEMO row joined with its DRUG, REAC
/// and OUTC rows).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseReport {
    /// FAERS case number; follow-ups share it.
    pub case_id: u64,
    /// Version of the case (follow-ups increment it; cleaning keeps the max).
    pub version: u32,
    /// How the report entered the system.
    pub report_type: ReportType,
    /// Patient age in years, if reported.
    pub age: Option<f32>,
    /// Patient sex.
    pub sex: Sex,
    /// Patient weight in kilograms, if reported.
    pub weight_kg: Option<f32>,
    /// Reporter country (ISO-3166 alpha-2), interned.
    pub country: IStr,
    /// Event date `YYYYMMDD`, if reported.
    pub event_date: Option<u32>,
    /// Reported medications.
    pub drugs: Vec<DrugEntry>,
    /// Reaction preferred terms (verbatim), interned.
    pub reactions: Vec<IStr>,
    /// Outcome codes.
    pub outcomes: Vec<Outcome>,
}

impl CaseReport {
    /// Whether the case is serious: any outcome more severe than `Other`.
    pub fn is_serious(&self) -> bool {
        self.outcomes.iter().any(|o| o.severity() > 0)
    }

    /// Most severe outcome, if any outcomes were reported.
    pub fn max_severity(&self) -> Option<Outcome> {
        self.outcomes.iter().copied().max_by_key(|o| o.severity())
    }

    /// Verbatim drug names in report order.
    pub fn drug_names(&self) -> impl Iterator<Item = &str> {
        self.drugs.iter().map(|d| d.name.as_str())
    }
}

impl fmt::Display for CaseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "case {} v{} [{}] drugs=[{}] reactions=[{}]",
            self.case_id,
            self.version,
            self.report_type.code(),
            self.drugs.iter().map(|d| d.name.as_str()).collect::<Vec<_>>().join("; "),
            self.reactions.iter().map(|r| r.as_str()).collect::<Vec<_>>().join("; "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CaseReport {
        CaseReport {
            case_id: 10001,
            version: 1,
            report_type: ReportType::Expedited,
            age: Some(63.0),
            sex: Sex::Female,
            weight_kg: Some(71.5),
            country: "US".into(),
            event_date: Some(20140117),
            drugs: vec![
                DrugEntry::new("IBUPROFEN", DrugRole::PrimarySuspect),
                DrugEntry::new("METAMIZOLE", DrugRole::SecondarySuspect),
            ],
            reactions: vec!["Acute renal failure".into()],
            outcomes: vec![Outcome::Hospitalization],
        }
    }

    #[test]
    fn code_roundtrips() {
        for rt in [ReportType::Expedited, ReportType::Periodic, ReportType::Direct] {
            assert_eq!(ReportType::from_code(rt.code()), Some(rt));
        }
        for o in Outcome::ALL {
            assert_eq!(Outcome::from_code(o.code()), Some(o));
        }
        for r in [
            DrugRole::PrimarySuspect,
            DrugRole::SecondarySuspect,
            DrugRole::Concomitant,
            DrugRole::Interacting,
        ] {
            assert_eq!(DrugRole::from_code(r.code()), Some(r));
        }
        for s in [Sex::Female, Sex::Male, Sex::Unknown] {
            assert_eq!(Sex::from_code(s.code()), s);
        }
    }

    #[test]
    fn unknown_codes_rejected() {
        assert_eq!(ReportType::from_code("XYZ"), None);
        assert_eq!(Outcome::from_code(""), None);
        assert_eq!(DrugRole::from_code("Q"), None);
        assert_eq!(Sex::from_code("??"), Sex::Unknown);
    }

    #[test]
    fn seriousness() {
        let mut r = report();
        assert!(r.is_serious());
        assert_eq!(r.max_severity(), Some(Outcome::Hospitalization));
        r.outcomes = vec![Outcome::Other];
        assert!(!r.is_serious());
        r.outcomes.clear();
        assert!(!r.is_serious());
        assert_eq!(r.max_severity(), None);
        r.outcomes = vec![Outcome::Other, Outcome::Death, Outcome::Hospitalization];
        assert_eq!(r.max_severity(), Some(Outcome::Death));
    }

    #[test]
    fn severity_ordering_is_strict() {
        let sevs: Vec<u8> = Outcome::ALL.iter().map(|o| o.severity()).collect();
        assert!(sevs.windows(2).all(|w| w[0] > w[1]), "{sevs:?}");
    }

    #[test]
    fn display_mentions_drugs_and_reactions() {
        let s = report().to_string();
        assert!(s.contains("IBUPROFEN"));
        assert!(s.contains("Acute renal failure"));
        assert!(s.contains("EXP"));
    }
}
