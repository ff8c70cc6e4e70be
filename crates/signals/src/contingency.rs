//! The 2×2 contingency table all disproportionality measures derive from.

use maras_mining::{ItemSet, TransactionDb};
use maras_rules::RuleStats;
use std::fmt;

/// Inconsistent marginal counts handed to [`ContingencyTable::from_supports`].
///
/// The cells of a 2×2 table are derived from the marginals by
/// inclusion–exclusion; counts that could not have come from one report set
/// (a joint support exceeding a marginal, or margins whose union exceeds the
/// total) would silently wrap the unsigned subtraction, so they are rejected
/// with a typed error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContingencyError {
    /// `joint` exceeds the exposure or event marginal.
    JointExceedsMarginal {
        /// Joint support `|A ∩ B|`.
        joint: u64,
        /// Exposure marginal `|A|`.
        exposed: u64,
        /// Event marginal `|B|`.
        event: u64,
    },
    /// The union `exposed + event − joint` exceeds the total `n` (this also
    /// covers a single marginal exceeding `n`).
    UnionExceedsTotal {
        /// Joint support `|A ∩ B|`.
        joint: u64,
        /// Exposure marginal `|A|`.
        exposed: u64,
        /// Event marginal `|B|`.
        event: u64,
        /// Total report count.
        n: u64,
    },
}

impl fmt::Display for ContingencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContingencyError::JointExceedsMarginal { joint, exposed, event } => write!(
                f,
                "joint support {joint} exceeds a marginal (exposed={exposed}, event={event})"
            ),
            ContingencyError::UnionExceedsTotal { joint, exposed, event, n } => write!(
                f,
                "union {} of exposed={exposed} and event={event} (joint={joint}) \
                 exceeds total n={n}",
                (*exposed as u128 + *event as u128) - *joint as u128
            ),
        }
    }
}

impl std::error::Error for ContingencyError {}

/// Report counts cross-classified by exposure (the drug set) and event (the
/// ADR set):
///
/// |            | event    | no event |
/// |------------|----------|----------|
/// | exposed    | `a`      | `b`      |
/// | unexposed  | `c`      | `d`      |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContingencyTable {
    /// Exposed with the event.
    pub a: u64,
    /// Exposed without the event.
    pub b: u64,
    /// Unexposed with the event.
    pub c: u64,
    /// Unexposed without the event.
    pub d: u64,
}

impl ContingencyTable {
    /// Builds a table from marginal counts: joint support, exposure support,
    /// event support, and the total report count.
    ///
    /// # Errors
    /// Returns a [`ContingencyError`] if the counts are inconsistent
    /// (`joint` exceeding a marginal, or the margins' union exceeding `n`) —
    /// in release builds too, where the subtraction would otherwise wrap.
    pub fn from_supports(
        joint: u64,
        exposed: u64,
        event: u64,
        n: u64,
    ) -> Result<Self, ContingencyError> {
        if joint > exposed || joint > event {
            return Err(ContingencyError::JointExceedsMarginal { joint, exposed, event });
        }
        // Inclusion–exclusion: |A ∪ B| = exposed + event − joint must fit in
        // n, otherwise `d` underflows. Widened to u128 so the check itself
        // cannot overflow.
        if exposed as u128 + event as u128 > n as u128 + joint as u128 {
            return Err(ContingencyError::UnionExceedsTotal { joint, exposed, event, n });
        }
        Ok(ContingencyTable {
            a: joint,
            b: exposed - joint,
            c: event - joint,
            d: ((n as u128 + joint as u128) - exposed as u128 - event as u128) as u64,
        })
    }

    /// Builds the table straight from a rule's stored marginals — the O(1)
    /// path the [`crate::engine`] batch scorer runs on. The stats carry
    /// exactly the tid-list intersection counts the miner established, so no
    /// database pass is needed.
    pub fn from_stats(stats: &RuleStats) -> Result<Self, ContingencyError> {
        Self::from_supports(
            stats.support_ab,
            stats.support_a,
            stats.support_b,
            stats.n_transactions,
        )
    }

    /// Counts the table for a drug set and ADR set directly from the
    /// transaction database.
    pub fn from_db(db: &TransactionDb, drugs: &ItemSet, adrs: &ItemSet) -> Self {
        let joint = db.support(&drugs.union(adrs)) as u64;
        let exposed = db.support(drugs) as u64;
        let event = db.support(adrs) as u64;
        Self::from_supports(joint, exposed, event, db.len() as u64)
            .expect("supports counted from one database are consistent")
    }

    /// Total number of reports.
    pub fn n(&self) -> u64 {
        self.a + self.b + self.c + self.d
    }

    /// Exposed margin `a + b`.
    pub fn exposed(&self) -> u64 {
        self.a + self.b
    }

    /// Event margin `a + c`.
    pub fn event(&self) -> u64 {
        self.a + self.c
    }

    /// Expected count in cell `a` under independence.
    pub fn expected_a(&self) -> f64 {
        let n = self.n();
        if n == 0 {
            return 0.0;
        }
        self.exposed() as f64 * self.event() as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_mining::Item;

    #[test]
    fn from_supports_partitions_n() {
        let t = ContingencyTable::from_supports(10, 40, 25, 1000).unwrap();
        assert_eq!(t.a, 10);
        assert_eq!(t.b, 30);
        assert_eq!(t.c, 15);
        assert_eq!(t.d, 945);
        assert_eq!(t.n(), 1000);
        assert_eq!(t.exposed(), 40);
        assert_eq!(t.event(), 25);
    }

    #[test]
    fn expected_under_independence() {
        let t = ContingencyTable::from_supports(10, 100, 50, 1000).unwrap();
        assert!((t.expected_a() - 5.0).abs() < 1e-12);
        let empty = ContingencyTable::from_supports(0, 0, 0, 0).unwrap();
        assert_eq!(empty.expected_a(), 0.0);
    }

    #[test]
    fn inconsistent_supports_are_typed_errors() {
        // Joint above a marginal.
        assert_eq!(
            ContingencyTable::from_supports(50, 40, 60, 1000),
            Err(ContingencyError::JointExceedsMarginal { joint: 50, exposed: 40, event: 60 })
        );
        assert_eq!(
            ContingencyTable::from_supports(50, 60, 40, 1000),
            Err(ContingencyError::JointExceedsMarginal { joint: 50, exposed: 60, event: 40 })
        );
        // Margins whose union exceeds n — the case that used to wrap `d`
        // in release builds.
        assert_eq!(
            ContingencyTable::from_supports(0, 60, 60, 100),
            Err(ContingencyError::UnionExceedsTotal { joint: 0, exposed: 60, event: 60, n: 100 })
        );
        // A single marginal above n is the same inconsistency.
        assert!(ContingencyTable::from_supports(0, 2000, 0, 1000).is_err());
        // Errors render without panicking.
        let e = ContingencyTable::from_supports(0, 60, 60, 100).unwrap_err();
        assert!(e.to_string().contains("exceeds total"), "{e}");
    }

    #[test]
    fn boundary_supports_are_accepted() {
        // Union exactly fills n.
        let t = ContingencyTable::from_supports(10, 60, 50, 100).unwrap();
        assert_eq!(t.d, 0);
        // Joint equals both marginals.
        let t = ContingencyTable::from_supports(5, 5, 5, 5).unwrap();
        assert_eq!((t.a, t.b, t.c, t.d), (5, 0, 0, 0));
    }

    #[test]
    fn from_stats_matches_from_supports() {
        let stats =
            RuleStats { support_ab: 10, support_a: 40, support_b: 25, n_transactions: 1000 };
        assert_eq!(
            ContingencyTable::from_stats(&stats).unwrap(),
            ContingencyTable::from_supports(10, 40, 25, 1000).unwrap()
        );
    }

    #[test]
    fn from_db_counts_match_manual() {
        let db = TransactionDb::new(vec![
            vec![Item(0), Item(1), Item(10)],
            vec![Item(0), Item(1), Item(10)],
            vec![Item(0), Item(10)],
            vec![Item(1), Item(2)],
            vec![Item(3), Item(11)],
        ]);
        let drugs = ItemSet::from_ids([0u32, 1]);
        let adrs = ItemSet::from_ids([10u32]);
        let t = ContingencyTable::from_db(&db, &drugs, &adrs);
        assert_eq!(t.a, 2); // both reports with {0,1,10}
        assert_eq!(t.b, 0); // {0,1} never without 10
        assert_eq!(t.c, 1); // {0,10} has the event without full exposure
        assert_eq!(t.d, 2);
    }
}
