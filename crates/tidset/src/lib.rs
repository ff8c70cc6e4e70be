//! Hybrid compressed tid-sets: the one set-algebra layer under mining,
//! scoring, serving, and evidence.
//!
//! A [`TidSet`] partitions the `u32` tid space into 2^16-aligned chunks
//! and stores each chunk as either a sorted `u16` array (sparse) or a
//! 1024-word bitmap (dense), switching representations at the classic
//! 4096-element break-even where both cost 8 KiB. Kernels pick the
//! cheapest strategy per chunk pair: word-AND + popcount for
//! bitmap×bitmap, bit probes for array×bitmap, and a linear merge with a
//! gallop-driven walk for array×array.
//!
//! The popcount-only [`TidSet::intersect_count`] (and its capped variant)
//! answers support-counting questions without materializing anything —
//! the innermost loop of FP-Growth support, `ScoreEngine` contingency
//! marginals, `/search` filter narrowing, and evidence covers.
//!
//! Kernel invocations, container mix, and built bytes are exported as
//! `maras_tidset_*` series through [`maras-obs`](maras_obs); see
//! [`TidsetMetrics`].

mod container;
mod metrics;
mod set;

pub use container::{Container, ARRAY_MAX, BITMAP_WORDS};
pub use metrics::TidsetMetrics;
pub use set::TidSet;
