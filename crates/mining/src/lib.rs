//! Frequent- and closed-itemset mining substrate for MARAS.
//!
//! This crate implements the pattern-mining layer the paper's methodology is
//! built on (thesis §2, §3.4, §5.2 step 2):
//!
//! * [`Item`] / [`ItemSet`] — the item vocabulary. Drugs and ADRs share one
//!   dense `u32` id space; the partition between them is owned by the caller
//!   (see `maras-rules`).
//! * [`TransactionDb`] — an abstracted ADR-report database: one transaction
//!   per report, holding the union of its drug and ADR items, plus vertical
//!   tid-lists so the support of *any* itemset (frequent or not) can be
//!   counted exactly. Contextual rules in the MCAC model routinely fall below
//!   the mining support threshold, so exact ad-hoc counting is a hard
//!   requirement.
//! * [`FpTree`] / [`mine_patterns`] — FP-Growth over an index-based tree
//!   arena (no `Rc`/`RefCell`; the Rust-performance guide's arena idiom),
//!   sharded across threads by [`mine_patterns_parallel`].
//! * [`PatternStore`] / [`PatternSink`] — arena-backed pattern storage and
//!   the zero-allocation emission boundary. Miners stream sorted `&[Item]`
//!   slices into a sink; patterns live in one flat buffer addressed by
//!   [`PatternRef`]s, so the 10⁶–10⁷-pattern spaces of Fig. 5.1 cost two
//!   `Vec`s instead of millions of boxed sets, and the parallel miner's
//!   per-worker arenas merge by rebase.
//! * [`closed`] — closed-itemset mining ([`closed_patterns`]: one hash pass
//!   over the frequent patterns, no subsumption scans), the paper's §3.4
//!   device for eliminating spurious drug-ADR associations; its tests check
//!   it against a naive closure-operator oracle.
//! * [`apriori()`] — a classic Apriori miner used as the "traditional
//!   association rule mining" baseline of Fig. 5.1 and for differential
//!   testing against FP-Growth.

#![warn(missing_docs)]

pub mod apriori;
pub mod closed;
pub mod fpgrowth;
pub mod fptree;
pub mod items;
pub mod parallel;
pub mod store;
pub mod transactions;

pub use apriori::apriori;
pub use closed::{closed_patterns, closed_refs};
pub use fpgrowth::{fpgrowth_into, mine_patterns, FrequentItemset};
pub use fptree::FpTree;
pub use items::{Item, ItemSet};
pub use parallel::mine_patterns_parallel;
pub use store::{FnSink, PatternRef, PatternSink, PatternStore};
pub use transactions::{TidSet, TransactionDb};
