//! String interning for the ingestion hot path.
//!
//! FAERS quarters repeat the same handful of strings millions of times: a
//! few hundred drug names, a few hundred ADR preferred terms, and a few
//! dozen country codes cover every row. The legacy reader called
//! `to_string()` once per field, so a 20k-report quarter allocated hundreds
//! of thousands of tiny owned strings that were byte-for-byte duplicates.
//!
//! [`SymbolTable`] deduplicates those at the parse → [`crate::CaseReport`]
//! boundary: the first occurrence of a string allocates one [`IStr`] (a
//! shared `Arc<str>`), every later occurrence bumps a refcount. The table
//! also keeps hit/byte counters so the CLI (`ingest_metrics`) and the
//! `maras_intern_*` metrics can report how much allocation the interner
//! absorbed.

use rustc_hash::FxHashSet;
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable, interned string.
///
/// Behaves like a `String` for comparison, hashing, ordering, display, and
/// `&str` access (via [`Deref`]/[`AsRef`]/[`Borrow`]), but cloning is a
/// refcount bump instead of a heap copy. Equality and hashing delegate to
/// the underlying `str`, so an `IStr` can be looked up in hashed
/// collections by `&str` and compared against `String`s in tests.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IStr(Arc<str>);

impl IStr {
    /// The string contents.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for IStr {
    fn default() -> Self {
        IStr(Arc::from(""))
    }
}

impl Deref for IStr {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> Self {
        IStr(Arc::from(s))
    }
}

impl From<String> for IStr {
    fn from(s: String) -> Self {
        IStr(Arc::from(s))
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<IStr> for str {
    fn eq(&self, other: &IStr) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<IStr> for &str {
    fn eq(&self, other: &IStr) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<IStr> for String {
    fn eq(&self, other: &IStr) -> bool {
        self.as_str() == other.as_str()
    }
}

/// Deduplicating store of [`IStr`]s with hit accounting.
#[derive(Debug, Default)]
pub struct SymbolTable {
    set: FxHashSet<IStr>,
    hits: u64,
    bytes: u64,
}

impl SymbolTable {
    /// A fresh, empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Returns the interned handle for `s`, allocating only on first sight.
    pub fn intern(&mut self, s: &str) -> IStr {
        if let Some(existing) = self.set.get(s) {
            self.hits += 1;
            return existing.clone();
        }
        let new = IStr::from(s);
        self.bytes += s.len() as u64;
        self.set.insert(new.clone());
        new
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> InternStats {
        InternStats { unique: self.set.len() as u64, hits: self.hits, bytes: self.bytes }
    }
}

/// What a [`SymbolTable`] absorbed: how many distinct strings it holds, how
/// many lookups it served without allocating, and the bytes it does own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Distinct strings interned (each allocated exactly once).
    pub unique: u64,
    /// Lookups answered by an existing entry — each one an allocation the
    /// legacy `to_string()` path would have made.
    pub hits: u64,
    /// Total bytes owned by the table (sum of unique string lengths).
    pub bytes: u64,
}

impl InternStats {
    /// Total intern calls (hits plus first sights).
    pub fn lookups(&self) -> u64 {
        self.hits + self.unique
    }

    /// Fraction of lookups served without allocating, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustc_hash::FxHashMap;

    #[test]
    fn interning_deduplicates_and_counts() {
        let mut table = SymbolTable::new();
        let a = table.intern("IBUPROFEN");
        let b = table.intern("IBUPROFEN");
        let c = table.intern("ASPIRIN");
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.0, &b.0), "repeat interns must share storage");
        assert_ne!(a, c);
        let stats = table.stats();
        assert_eq!(stats.unique, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.bytes, "IBUPROFEN".len() as u64 + "ASPIRIN".len() as u64);
        assert_eq!(stats.lookups(), 3);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn istr_compares_like_a_string() {
        let s = IStr::from("Headache");
        assert_eq!(s, "Headache");
        assert_eq!("Headache", s);
        assert_eq!(s, String::from("Headache"));
        assert_eq!(String::from("Headache"), s);
        assert_eq!(s.as_str(), "Headache");
        assert_eq!(format!("{s}"), "Headache");
        assert_eq!(format!("{s:?}"), "\"Headache\"");
        assert_eq!(IStr::default(), "");
        let (a, b) = (IStr::from("A"), IStr::from("B"));
        assert!(a < b);
    }

    #[test]
    fn istr_hashes_like_str_for_map_lookups() {
        let mut map: FxHashMap<IStr, u32> = FxHashMap::default();
        map.insert(IStr::from("US"), 1);
        // Borrow<str> lets &str key the lookup.
        assert_eq!(map.get("US"), Some(&1));
        assert_eq!(map.get("DE"), None);
    }

    #[test]
    fn empty_table_hit_rate_is_zero() {
        assert_eq!(SymbolTable::new().stats().hit_rate(), 0.0);
    }
}
