//! Sorted-u32 postings lists: the on-disk delta-varint codec.
//!
//! Lists are *stored* delta-encoded (first value absolute, then gaps) as
//! varints — tid lists for common drugs are dense, so most gaps fit one
//! byte, and the archive's meta section stays small. In memory they
//! decode straight into hybrid [`TidSet`]s, and all cover computation
//! goes through the shared `maras-tidset` kernels (the crate-local
//! galloping `intersect_k` this module used to carry is gone).

use maras_format::{put_varint, Cursor, FormatError};
use maras_tidset::TidSet;

/// Appends a sorted tid list, delta-encoded.
pub fn encode_postings(buf: &mut Vec<u8>, tids: &[u32]) {
    put_varint(buf, tids.len() as u64);
    let mut prev = 0u32;
    for (i, &tid) in tids.iter().enumerate() {
        let delta = if i == 0 { tid } else { tid - prev };
        put_varint(buf, u64::from(delta));
        prev = tid;
    }
}

/// Decodes a delta-encoded tid list into a compressed set. Each tid must
/// lie strictly above the one before and below `n_records`, and is refused
/// as soon as it is read, so a hostile list cannot grow the set past the
/// archive's own records.
pub fn decode_postings(c: &mut Cursor<'_>, n_records: usize) -> Result<TidSet, FormatError> {
    let n = c.varint()?;
    let mut tids = TidSet::new();
    let mut prev: u64 = 0;
    for i in 0..n {
        let delta = c.varint()?;
        if i > 0 && delta == 0 {
            return Err(FormatError::Corrupt("postings list not strictly ascending"));
        }
        let tid = prev.saturating_add(delta);
        let tid = u32::try_from(tid)
            .ok()
            .filter(|&t| (t as usize) < n_records)
            .ok_or(FormatError::Corrupt("postings tid out of range"))?;
        tids.push_ascending(tid);
        prev = u64::from(tid);
    }
    Ok(tids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(tids: &[u32]) -> Vec<u32> {
        let mut buf = Vec::new();
        encode_postings(&mut buf, tids);
        let mut c = Cursor::new(&buf);
        let out = decode_postings(&mut c, usize::MAX).unwrap();
        assert!(c.is_exhausted());
        out.to_vec()
    }

    #[test]
    fn postings_roundtrip() {
        assert_eq!(roundtrip(&[]), Vec::<u32>::new());
        assert_eq!(roundtrip(&[0]), vec![0]);
        assert_eq!(
            roundtrip(&[0, 1, 2, 500, 10_000, u32::MAX]),
            vec![0, 1, 2, 500, 10_000, u32::MAX]
        );
        // A dense run lands in a bitmap container and still round-trips.
        let dense: Vec<u32> = (0..6000).collect();
        assert_eq!(roundtrip(&dense), dense);
    }

    #[test]
    fn decode_rejects_unsorted() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        put_varint(&mut buf, 5);
        put_varint(&mut buf, 0); // zero gap == duplicate tid
        put_varint(&mut buf, 1);
        assert!(matches!(
            decode_postings(&mut Cursor::new(&buf), 10),
            Err(FormatError::Corrupt("postings list not strictly ascending"))
        ));
    }

    #[test]
    fn decode_rejects_tids_past_the_record_count() {
        let mut buf = Vec::new();
        encode_postings(&mut buf, &[1, 4, 9]);
        assert_eq!(decode_postings(&mut Cursor::new(&buf), 10).unwrap().to_vec(), vec![1, 4, 9]);
        assert!(matches!(
            decode_postings(&mut Cursor::new(&buf), 9),
            Err(FormatError::Corrupt("postings tid out of range"))
        ));
    }
}
