//! The hybrid compressed tid-set: sorted `(chunk key, container)` pairs
//! over 2^16-aligned chunks of the `u32` tid space.

use crate::container::Container;
use crate::metrics::metrics;

/// A compressed set of `u32` transaction ids.
///
/// Chunks are keyed by the high 16 bits of the tid and stored sorted, so
/// binary operations walk two chunk lists like a merge; each chunk is a
/// sorted-array or bitmap [`Container`] over the low 16 bits. Cardinality
/// is cached, membership is logarithmic in the chunk count, and the
/// intersection kernels pick merge, gallop, or word-AND per chunk pair by
/// density.
///
/// ```
/// use maras_tidset::TidSet;
/// let a = TidSet::from_sorted(&[1, 5, 70_000]);
/// let b = TidSet::from_sorted(&[5, 70_000, 70_001]);
/// assert_eq!(a.intersect(&b).to_vec(), vec![5, 70_000]);
/// assert_eq!(a.intersect_count(&b), 2);
/// assert_eq!(a.union(&b).len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TidSet {
    /// `(high 16 bits, members of the chunk)`, keys strictly ascending.
    chunks: Vec<(u16, Container)>,
    /// Total cardinality across chunks.
    len: u64,
}

impl TidSet {
    /// The empty set.
    pub fn new() -> TidSet {
        TidSet::default()
    }

    /// Builds from a strictly ascending slice of tids.
    ///
    /// # Panics
    /// In debug builds, panics if the input is not strictly ascending.
    pub fn from_sorted(tids: &[u32]) -> TidSet {
        debug_assert!(
            tids.windows(2).all(|w| w[0] < w[1]),
            "TidSet::from_sorted input not strictly ascending"
        );
        let mut set = TidSet::new();
        for &tid in tids {
            set.push_ascending(tid);
        }
        set
    }

    /// Appends a tid strictly greater than every member — the builder path
    /// used while scanning transactions or postings in order.
    pub fn push_ascending(&mut self, tid: u32) {
        let key = (tid >> 16) as u16;
        let low = tid as u16;
        match self.chunks.last_mut() {
            Some((k, c)) if *k == key => c.push_ascending(low),
            _ => {
                debug_assert!(
                    self.chunks.last().is_none_or(|(k, _)| *k < key),
                    "push not ascending across chunks"
                );
                let mut c = Container::new();
                c.push_ascending(low);
                self.chunks.push((key, c));
            }
        }
        self.len += 1;
    }

    /// Number of tids in the set.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest tid, if any.
    pub fn last(&self) -> Option<u32> {
        let (key, c) = self.chunks.last()?;
        Some(u32::from(*key) << 16 | u32::from(c.select(c.len() - 1)))
    }

    /// Whether `tid` is a member.
    pub fn contains(&self, tid: u32) -> bool {
        let key = (tid >> 16) as u16;
        match self.chunks.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.chunks[i].1.contains(tid as u16),
            Err(_) => false,
        }
    }

    /// Iterates members ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks
            .iter()
            .flat_map(|&(k, ref c)| c.iter().map(move |v| u32::from(k) << 16 | u32::from(v)))
    }

    /// Materializes the set as an ascending `Vec`, reserving exactly once.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len as usize);
        for &(k, ref c) in &self.chunks {
            c.write_tids(u32::from(k) << 16, &mut out);
        }
        out
    }

    /// Heap bytes held by the set (chunk directory + container payloads).
    pub fn bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<(u16, Container)>()
            + self.chunks.iter().map(|(_, c)| c.bytes()).sum::<usize>()
    }

    /// Container mix: `(array containers, bitmap containers)`.
    pub fn container_mix(&self) -> (usize, usize) {
        let arrays = self.chunks.iter().filter(|(_, c)| matches!(c, Container::Array(_))).count();
        (arrays, self.chunks.len() - arrays)
    }

    /// `self ∩ other`, canonical.
    pub fn intersect(&self, other: &TidSet) -> TidSet {
        metrics().intersect_calls.inc();
        let mut chunks = Vec::with_capacity(self.chunks.len().min(other.chunks.len()));
        let mut len = 0u64;
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ka, ca) = &self.chunks[i];
            let (kb, cb) = &other.chunks[j];
            if ka == kb {
                if let Some(c) = ca.intersect(cb) {
                    len += c.len() as u64;
                    chunks.push((*ka, c));
                }
                i += 1;
                j += 1;
            } else if ka < kb {
                i += 1;
            } else {
                j += 1;
            }
        }
        TidSet { chunks, len }
    }

    /// `|self ∩ other|` without materializing anything.
    pub fn intersect_count(&self, other: &TidSet) -> u64 {
        metrics().intersect_count_calls.inc();
        let mut n = 0u64;
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ka, ca) = &self.chunks[i];
            let (kb, cb) = &other.chunks[j];
            if ka == kb {
                n += ca.intersect_count(cb) as u64;
                i += 1;
                j += 1;
            } else if ka < kb {
                i += 1;
            } else {
                j += 1;
            }
        }
        n
    }

    /// `|self ∩ other|` with an early exit once the count exceeds `cap`
    /// (the returned over-cap value is `cap + 1` at minimum). Answers
    /// "is the intersection exactly `cap` elements?" without finishing
    /// hopeless pairs.
    pub fn intersect_count_capped(&self, other: &TidSet, cap: u64) -> u64 {
        metrics().intersect_count_calls.inc();
        let mut n = 0u64;
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ka, ca) = &self.chunks[i];
            let (kb, cb) = &other.chunks[j];
            if ka == kb {
                let remaining = cap - n.min(cap);
                n += ca.intersect_count_capped(cb, remaining as usize) as u64;
                if n > cap {
                    return n;
                }
                i += 1;
                j += 1;
            } else if ka < kb {
                i += 1;
            } else {
                j += 1;
            }
        }
        n
    }

    /// `self ∪ other`, canonical.
    pub fn union(&self, other: &TidSet) -> TidSet {
        metrics().union_calls.inc();
        let mut chunks = Vec::with_capacity(self.chunks.len() + other.chunks.len());
        let mut len = 0u64;
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() || j < other.chunks.len() {
            let next = match (self.chunks.get(i), other.chunks.get(j)) {
                (Some(&(ka, ref ca)), Some(&(kb, ref cb))) => {
                    if ka == kb {
                        i += 1;
                        j += 1;
                        (ka, ca.union(cb))
                    } else if ka < kb {
                        i += 1;
                        (ka, ca.clone())
                    } else {
                        j += 1;
                        (kb, cb.clone())
                    }
                }
                (Some(&(ka, ref ca)), None) => {
                    i += 1;
                    (ka, ca.clone())
                }
                (None, Some(&(kb, ref cb))) => {
                    j += 1;
                    (kb, cb.clone())
                }
                (None, None) => unreachable!(),
            };
            len += next.1.len() as u64;
            chunks.push(next);
        }
        TidSet { chunks, len }
    }

    /// k-way intersection, smallest set first so intermediates only
    /// shrink. Sparse×sparse chunk pairs fall back to the galloping array
    /// kernel inside [`Container::intersect`]; an empty intermediate
    /// short-circuits the rest.
    pub fn intersect_k(sets: &[&TidSet]) -> TidSet {
        metrics().intersect_k_calls.inc();
        let Some(&smallest_at) =
            (0..sets.len()).collect::<Vec<_>>().iter().min_by_key(|&&i| sets[i].len())
        else {
            return TidSet::new();
        };
        let mut acc = sets[smallest_at].clone();
        let mut order: Vec<usize> = (0..sets.len()).filter(|&i| i != smallest_at).collect();
        order.sort_unstable_by_key(|&i| sets[i].len());
        for idx in order {
            if acc.is_empty() {
                break;
            }
            acc = acc.intersect(sets[idx]);
        }
        acc
    }

    /// `|∩ sets|` — folds the k−1 smallest sets, then counts the last pair
    /// popcount-only so the final (largest) operand never materializes an
    /// output. With no sets the count is 0.
    pub fn intersect_count_k(sets: &[&TidSet]) -> u64 {
        match sets.len() {
            0 => 0,
            1 => sets[0].len(),
            2 => sets[0].intersect_count(sets[1]),
            _ => {
                let mut order: Vec<usize> = (0..sets.len()).collect();
                order.sort_unstable_by_key(|&i| sets[i].len());
                let (&last, rest) = order.split_last().expect("k >= 3");
                let mut acc = sets[rest[0]].clone();
                for &idx in &rest[1..] {
                    if acc.is_empty() {
                        return 0;
                    }
                    acc = acc.intersect(sets[idx]);
                }
                acc.intersect_count(sets[last])
            }
        }
    }

    /// Records this set's container mix and footprint in the
    /// `maras_tidset_*` build metrics (called by owners after building
    /// long-lived sets; kernels never call it).
    pub fn record_build(&self) {
        let m = metrics();
        let (arrays, bitmaps) = self.container_mix();
        m.array_containers.add(arrays as u64);
        m.bitmap_containers.add(bitmaps as u64);
        m.built_bytes.add(self.bytes() as u64);
    }
}

impl FromIterator<u32> for TidSet {
    /// Collects from an iterator that need not be sorted or unique.
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> TidSet {
        let mut tids: Vec<u32> = iter.into_iter().collect();
        tids.sort_unstable();
        tids.dedup();
        TidSet::from_sorted(&tids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(tids: &[u32]) -> TidSet {
        TidSet::from_sorted(tids)
    }

    fn range(r: std::ops::Range<u32>) -> TidSet {
        let v: Vec<u32> = r.collect();
        TidSet::from_sorted(&v)
    }

    #[test]
    fn build_and_query_across_chunks() {
        let s = set(&[0, 1, 65_535, 65_536, 200_000]);
        assert_eq!(s.len(), 5);
        assert!(s.contains(65_535) && s.contains(65_536));
        assert!(!s.contains(2));
        assert_eq!(s.to_vec(), vec![0, 1, 65_535, 65_536, 200_000]);
        assert_eq!(s.iter().collect::<Vec<_>>(), s.to_vec());
        assert_eq!(s.last(), Some(200_000));
        assert_eq!(TidSet::new().last(), None);
    }

    #[test]
    fn intersect_and_union_across_chunks() {
        let a = set(&[1, 65_536, 65_540, 131_072]);
        let b = set(&[1, 2, 65_540, 300_000]);
        assert_eq!(a.intersect(&b).to_vec(), vec![1, 65_540]);
        assert_eq!(a.intersect_count(&b), 2);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 65_536, 65_540, 131_072, 300_000]);
        assert!(a.intersect(&TidSet::new()).is_empty());
        assert_eq!(a.union(&TidSet::new()), a);
    }

    #[test]
    fn dense_chunks_round_trip_through_kernels() {
        let a = range(0..10_000);
        let b = range(5_000..15_000);
        let i = a.intersect(&b);
        assert_eq!(i.len(), 5_000);
        assert_eq!(a.intersect_count(&b), 5_000);
        assert_eq!(a.union(&b).len(), 15_000);
        let (_, bitmaps) = a.container_mix();
        assert!(bitmaps >= 1, "dense chunk should be a bitmap");
    }

    #[test]
    fn intersect_k_and_count_k() {
        let a = range(0..9_000);
        let b = range(3_000..12_000);
        let c = set(&[2_999, 3_000, 8_999, 9_000]);
        let sets = [&a, &b, &c];
        assert_eq!(TidSet::intersect_k(&sets).to_vec(), vec![3_000, 8_999]);
        assert_eq!(TidSet::intersect_count_k(&sets), 2);
        assert_eq!(TidSet::intersect_count_k(&[&a, &b]), 6_000);
        assert_eq!(TidSet::intersect_count_k(&[&a]), 9_000);
        assert_eq!(TidSet::intersect_count_k(&[]), 0);
        assert!(TidSet::intersect_k(&[]).is_empty());
        let empty = TidSet::new();
        assert!(TidSet::intersect_k(&[&a, &empty, &b]).is_empty());
        assert_eq!(TidSet::intersect_count_k(&[&a, &empty, &b]), 0);
    }

    #[test]
    fn capped_count_early_exit() {
        let a = range(0..10_000);
        assert!(a.intersect_count_capped(&a, 10) > 10);
        assert_eq!(a.intersect_count_capped(&a, 20_000), 10_000);
        let b = set(&[1, 2, 3]);
        assert_eq!(b.intersect_count_capped(&b, 3), 3);
        assert_eq!(b.intersect_count_capped(&b, 2), 3, "cap+1 signals over");
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        let s: TidSet = [5u32, 1, 5, 70_000, 1].into_iter().collect();
        assert_eq!(s.to_vec(), vec![1, 5, 70_000]);
    }

    #[test]
    fn bytes_and_mix_are_reported() {
        let sparse = set(&[1, 2, 3]);
        let dense = range(0..10_000);
        assert!(sparse.bytes() < 512, "tiny set stays well under one bitmap");
        assert!(dense.bytes() >= 8 * 1024);
        assert_eq!(sparse.container_mix(), (1, 0));
        assert_eq!(dense.container_mix(), (0, 1));
        dense.record_build(); // smoke: registers the global series
    }
}
