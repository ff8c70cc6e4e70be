//! One 2^16 chunk of a [`TidSet`](crate::TidSet): a sorted `u16` array for
//! sparse chunks, a 1024-word bitmap for dense ones.
//!
//! The switch threshold is the classic Roaring bound: a bitmap chunk costs
//! a fixed 8 KiB, an array chunk `2·n` bytes, so the break-even cardinality
//! is 4096. Every kernel here keeps the representation *canonical* — an
//! array at or below [`ARRAY_MAX`] elements, a bitmap strictly above — so
//! equality of sets is equality of representations and the membership
//! probes always pick the right algorithm for the density they see.

/// Largest cardinality stored as a sorted array (the 4096 break-even).
pub const ARRAY_MAX: usize = 4096;

/// `u64` words in a bitmap container (2^16 bits).
pub const BITMAP_WORDS: usize = 1024;

/// One chunk's membership set over the low 16 bits of its tids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Container {
    /// Strictly ascending low-16-bit values; at most [`ARRAY_MAX`] of them.
    Array(Vec<u16>),
    /// Bit `v` of `words[v / 64]` set iff low value `v` is present; used
    /// only above [`ARRAY_MAX`] elements. The cardinality rides along so
    /// `len` never re-popcounts 8 KiB.
    Bitmap {
        /// The 1024-word bit plane.
        words: Box<[u64; BITMAP_WORDS]>,
        /// Number of set bits (kept exact by every mutation).
        card: u32,
    },
}

impl Container {
    /// Empty array container.
    pub fn new() -> Container {
        Container::Array(Vec::new())
    }

    /// Cardinality of the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Container::Array(a) => a.len(),
            Container::Bitmap { card, .. } => *card as usize,
        }
    }

    /// Whether the chunk holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes of this chunk's payload.
    pub fn bytes(&self) -> usize {
        match self {
            Container::Array(a) => a.capacity() * 2,
            Container::Bitmap { .. } => BITMAP_WORDS * 8,
        }
    }

    /// Whether `v` is present.
    pub fn contains(&self, v: u16) -> bool {
        match self {
            Container::Array(a) => a.binary_search(&v).is_ok(),
            Container::Bitmap { words, .. } => words[usize::from(v) >> 6] & (1u64 << (v & 63)) != 0,
        }
    }

    /// Appends a value known to be strictly greater than every present
    /// value, converting to a bitmap when the array outgrows the threshold.
    pub fn push_ascending(&mut self, v: u16) {
        match self {
            Container::Array(a) => {
                debug_assert!(a.last().is_none_or(|&last| last < v), "push not ascending");
                if a.len() == ARRAY_MAX {
                    let mut bm = array_to_bitmap(a);
                    set_bit(&mut bm, v);
                    *self = Container::Bitmap { words: bm, card: ARRAY_MAX as u32 + 1 };
                } else {
                    a.push(v);
                }
            }
            Container::Bitmap { words, card } => {
                set_bit(words, v);
                *card += 1;
            }
        }
    }

    /// The `idx`-th smallest value (0-based). `idx` must be `< len()`.
    pub fn select(&self, idx: usize) -> u16 {
        match self {
            Container::Array(a) => a[idx],
            Container::Bitmap { words, .. } => {
                let mut remaining = idx as u32;
                for (w, &word) in words.iter().enumerate() {
                    let ones = word.count_ones();
                    if remaining < ones {
                        return (w as u16) << 6 | nth_set_bit(word, remaining);
                    }
                    remaining -= ones;
                }
                unreachable!("select index within recorded cardinality")
            }
        }
    }

    /// Iterates the chunk's values ascending.
    pub fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(a) => ContainerIter::Array(a.iter()),
            Container::Bitmap { words, .. } => {
                ContainerIter::Bitmap { words, word_idx: 0, current: words[0] }
            }
        }
    }

    /// Appends the chunk's values, each offset by `base`, onto `out`.
    pub fn write_tids(&self, base: u32, out: &mut Vec<u32>) {
        match self {
            Container::Array(a) => out.extend(a.iter().map(|&v| base | u32::from(v))),
            Container::Bitmap { words, .. } => {
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        out.push(base | (w as u32) << 6 | b);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Intersection, producing a canonical container (`None` when empty).
    pub fn intersect(&self, other: &Container) -> Option<Container> {
        let out = match (self, other) {
            (Container::Array(a), Container::Array(b)) => Container::Array(intersect_arrays(a, b)),
            (Container::Array(a), Container::Bitmap { words, .. })
            | (Container::Bitmap { words, .. }, Container::Array(a)) => {
                // Result is at most |array| <= ARRAY_MAX: always an array.
                let mut out = Vec::with_capacity(a.len());
                out.extend(
                    a.iter()
                        .copied()
                        .filter(|&v| words[usize::from(v) >> 6] & (1u64 << (v & 63)) != 0),
                );
                Container::Array(out)
            }
            (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                let mut words = Box::new([0u64; BITMAP_WORDS]);
                let mut card = 0u32;
                for i in 0..BITMAP_WORDS {
                    let w = wa[i] & wb[i];
                    words[i] = w;
                    card += w.count_ones();
                }
                if card as usize > ARRAY_MAX {
                    Container::Bitmap { words, card }
                } else {
                    bitmap_to_array(&words, card)
                }
            }
        };
        (!out.is_empty()).then_some(out)
    }

    /// `|self ∩ other|` without materializing — the popcount-only kernel.
    pub fn intersect_count(&self, other: &Container) -> usize {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => intersect_count_arrays(a, b),
            (Container::Array(a), Container::Bitmap { words, .. })
            | (Container::Bitmap { words, .. }, Container::Array(a)) => {
                a.iter().filter(|&&v| words[usize::from(v) >> 6] & (1u64 << (v & 63)) != 0).count()
            }
            (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                wa.iter().zip(wb.iter()).map(|(&x, &y)| (x & y).count_ones() as usize).sum()
            }
        }
    }

    /// Like [`Self::intersect_count`], but stops as soon as the running
    /// count exceeds `cap` (returning that over-cap partial count). Lets
    /// equality-of-cardinality probes bail out of hopeless pairs early.
    pub fn intersect_count_capped(&self, other: &Container, cap: usize) -> usize {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                let mut n = 0usize;
                let mut lo = 0usize;
                for &v in small {
                    let idx = gallop_from(large, lo, v);
                    if idx < large.len() && large[idx] == v {
                        n += 1;
                        if n > cap {
                            return n;
                        }
                        lo = idx + 1;
                    } else {
                        lo = idx;
                    }
                    if lo >= large.len() {
                        break;
                    }
                }
                n
            }
            (Container::Array(a), Container::Bitmap { words, .. })
            | (Container::Bitmap { words, .. }, Container::Array(a)) => {
                let mut n = 0usize;
                for &v in a {
                    if words[usize::from(v) >> 6] & (1u64 << (v & 63)) != 0 {
                        n += 1;
                        if n > cap {
                            return n;
                        }
                    }
                }
                n
            }
            (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                let mut n = 0usize;
                for (&x, &y) in wa.iter().zip(wb.iter()) {
                    n += (x & y).count_ones() as usize;
                    if n > cap {
                        return n;
                    }
                }
                n
            }
        }
    }

    /// Union, producing a canonical container.
    pub fn union(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                let merged = union_arrays(a, b);
                if merged.len() > ARRAY_MAX {
                    let mut words = Box::new([0u64; BITMAP_WORDS]);
                    let card = merged.len() as u32;
                    for &v in &merged {
                        set_bit(&mut words, v);
                    }
                    Container::Bitmap { words, card }
                } else {
                    Container::Array(merged)
                }
            }
            (Container::Array(a), Container::Bitmap { words, .. })
            | (Container::Bitmap { words, .. }, Container::Array(a)) => {
                let mut out = words.clone();
                for &v in a {
                    set_bit(&mut out, v);
                }
                let card: u32 = out.iter().map(|w| w.count_ones()).sum();
                Container::Bitmap { words: out, card }
            }
            (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                let mut words = Box::new([0u64; BITMAP_WORDS]);
                let mut card = 0u32;
                for i in 0..BITMAP_WORDS {
                    let w = wa[i] | wb[i];
                    words[i] = w;
                    card += w.count_ones();
                }
                Container::Bitmap { words, card }
            }
        }
    }

    /// Whether the representation matches the canonical density rule
    /// (arrays at or below the threshold and strictly ascending, bitmaps
    /// above it with an exact cached cardinality).
    pub fn is_canonical(&self) -> bool {
        match self {
            Container::Array(a) => a.len() <= ARRAY_MAX && a.windows(2).all(|w| w[0] < w[1]),
            Container::Bitmap { words, card } => {
                *card as usize > ARRAY_MAX
                    && words.iter().map(|w| w.count_ones()).sum::<u32>() == *card
            }
        }
    }
}

impl Default for Container {
    fn default() -> Container {
        Container::new()
    }
}

/// Ascending iterator over one container's `u16` values.
pub enum ContainerIter<'a> {
    /// Array walk.
    Array(std::slice::Iter<'a, u16>),
    /// Bitmap walk: strip set bits word by word.
    Bitmap {
        /// The bit plane being walked.
        words: &'a [u64; BITMAP_WORDS],
        /// Index of the word `current` came from.
        word_idx: usize,
        /// Remaining bits of the current word.
        current: u64,
    },
}

impl Iterator for ContainerIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(it) => it.next().copied(),
            ContainerIter::Bitmap { words, word_idx, current } => {
                while *current == 0 {
                    *word_idx += 1;
                    if *word_idx >= BITMAP_WORDS {
                        return None;
                    }
                    *current = words[*word_idx];
                }
                let bit = current.trailing_zeros();
                *current &= *current - 1;
                Some((*word_idx as u16) << 6 | bit as u16)
            }
        }
    }
}

#[inline]
fn set_bit(words: &mut [u64; BITMAP_WORDS], v: u16) {
    words[usize::from(v) >> 6] |= 1u64 << (v & 63);
}

fn array_to_bitmap(a: &[u16]) -> Box<[u64; BITMAP_WORDS]> {
    let mut words = Box::new([0u64; BITMAP_WORDS]);
    for &v in a {
        set_bit(&mut words, v);
    }
    words
}

fn bitmap_to_array(words: &[u64; BITMAP_WORDS], card: u32) -> Container {
    let mut out = Vec::with_capacity(card as usize);
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push((w as u16) << 6 | bits.trailing_zeros() as u16);
            bits &= bits - 1;
        }
    }
    Container::Array(out)
}

/// Length ratio above which array×array intersection gallops through the
/// longer side instead of merge-stepping both.
/// Sorted-array intersection: a gallop-driven walk of the longer side
/// from the current position. The exponential probe adapts to the length
/// ratio by itself — balanced lists bracket a 1–2 element window per step
/// (beating a branchy linear merge, whose 50/50 `x < y` branch
/// mispredicts on random interleave), and badly skewed lists skip long
/// runs of the big side. Always reserves `min(|a|, |b|)` for the output
/// so the hot loop never reallocates (`tests/alloc.rs` counts the
/// allocations).
fn intersect_arrays(a: &[u16], b: &[u16]) -> Vec<u16> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    let mut lo = 0usize;
    for &v in small {
        let idx = gallop_from(large, lo, v);
        if idx < large.len() && large[idx] == v {
            out.push(v);
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= large.len() {
            break;
        }
    }
    out
}

/// Count-only variant of [`intersect_arrays`] — no output buffer at all.
fn intersect_count_arrays(a: &[u16], b: &[u16]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut n = 0usize;
    let mut lo = 0usize;
    for &v in small {
        let idx = gallop_from(large, lo, v);
        if idx < large.len() && large[idx] == v {
            n += 1;
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= large.len() {
            break;
        }
    }
    n
}

/// Smallest index `>= from` in `list` with `list[i] >= target`:
/// exponential probe from the resume point, then binary search of the
/// bracketed window. The common balanced case — `list[from]` already at
/// or past `target` — costs one comparison and an empty window.
fn gallop_from(list: &[u16], from: usize, target: u16) -> usize {
    let mut lo = from;
    let mut hi = from;
    let mut step = 1usize;
    while hi < list.len() && list[hi] < target {
        lo = hi + 1;
        hi = lo.saturating_add(step).min(list.len());
        step <<= 1;
    }
    lo + list[lo..hi.min(list.len())].partition_point(|&v| v < target)
}

fn union_arrays(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            out.push(x);
            i += 1;
            j += 1;
        } else if x < y {
            out.push(x);
            i += 1;
        } else {
            out.push(y);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn nth_set_bit(mut word: u64, mut n: u32) -> u16 {
    loop {
        let b = word.trailing_zeros();
        if n == 0 {
            return b as u16;
        }
        word &= word - 1;
        n -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(vals: &[u16]) -> Container {
        let mut c = Container::new();
        for &v in vals {
            c.push_ascending(v);
        }
        c
    }

    fn dense(range: std::ops::Range<u16>) -> Container {
        let mut c = Container::new();
        for v in range {
            c.push_ascending(v);
        }
        c
    }

    #[test]
    fn push_converts_to_bitmap_past_threshold() {
        let mut c = Container::new();
        for v in 0..=ARRAY_MAX as u16 {
            c.push_ascending(v);
        }
        assert!(matches!(c, Container::Bitmap { .. }));
        assert_eq!(c.len(), ARRAY_MAX + 1);
        assert!(c.is_canonical());
        assert!(c.contains(0) && c.contains(ARRAY_MAX as u16));
        assert!(!c.contains(ARRAY_MAX as u16 + 1));
    }

    #[test]
    fn array_stays_array_at_threshold() {
        let c = dense(0..ARRAY_MAX as u16);
        assert!(matches!(c, Container::Array(_)));
        assert!(c.is_canonical());
    }

    #[test]
    fn intersect_every_representation_pair() {
        let a = array(&[1, 5, 9, 4000]);
        let d1 = dense(0..5000);
        let d2 = dense(4000..10000);
        // array x array
        let aa = array(&[5, 9, 10]);
        assert_eq!(a.intersect(&aa).unwrap(), array(&[5, 9]));
        // array x bitmap, both directions
        assert_eq!(a.intersect(&d2).unwrap(), array(&[4000]));
        assert_eq!(d2.intersect(&a).unwrap(), array(&[4000]));
        // bitmap x bitmap, dense result stays bitmap
        let bb = d1.intersect(&d2).unwrap();
        assert_eq!(bb, dense(4000..5000));
        assert!(matches!(bb, Container::Array(_)), "1000 survivors shrink to array");
        // bitmap x bitmap staying dense
        let wide = dense(0..9000).intersect(&dense(1000..10000)).unwrap();
        assert!(matches!(wide, Container::Bitmap { .. }));
        assert_eq!(wide.len(), 8000);
        // disjoint is None
        assert!(array(&[1]).intersect(&array(&[2])).is_none());
    }

    #[test]
    fn intersect_count_matches_intersect() {
        let cases = [
            (array(&[1, 5, 9]), array(&[5, 9, 11])),
            (array(&[1, 5, 9]), dense(0..6000)),
            (dense(0..5000), dense(2500..8000)),
            (dense(0..5000), array(&[])),
        ];
        for (x, y) in &cases {
            let n = x.intersect(y).map_or(0, |c| c.len());
            assert_eq!(x.intersect_count(y), n);
            assert_eq!(y.intersect_count(x), n);
            assert_eq!(x.intersect_count_capped(y, usize::MAX), n);
        }
    }

    #[test]
    fn capped_count_exits_early() {
        let x = dense(0..6000);
        let y = dense(0..6000);
        assert_eq!(x.intersect_count_capped(&y, 0), 64, "stops after the first word");
        assert!(x.intersect_count_capped(&y, 100) <= 128 + 64);
        let a = array(&[1, 2, 3, 4]);
        assert_eq!(a.intersect_count_capped(&a, 2), 3, "one past the cap");
    }

    #[test]
    fn union_every_representation_pair() {
        assert_eq!(array(&[1, 3]).union(&array(&[2, 3])), array(&[1, 2, 3]));
        let grown = dense(0..3000).union(&dense(2000..6000));
        assert!(matches!(grown, Container::Bitmap { .. }));
        assert_eq!(grown.len(), 6000);
        let mixed = array(&[9999]).union(&dense(0..5000));
        assert_eq!(mixed.len(), 5001);
        assert!(mixed.contains(9999));
        assert!(mixed.is_canonical());
    }

    #[test]
    fn select_follows_iteration_order() {
        for c in [array(&[0, 7, 65535]), dense(100..5000)] {
            assert!(c.is_canonical());
            for (idx, v) in c.iter().enumerate() {
                assert_eq!(c.select(idx), v);
            }
            assert_eq!(c.iter().count(), c.len());
        }
    }

    #[test]
    fn write_tids_offsets_by_base() {
        let mut out = Vec::new();
        array(&[1, 2]).write_tids(0x30000, &mut out);
        dense(0..4100).write_tids(0x40000, &mut out);
        assert_eq!(out[..2], [0x30001, 0x30002]);
        assert_eq!(out.len(), 2 + 4100);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*out.last().unwrap(), 0x40000 + 4099);
    }
}
