//! The query 8-mer hash table of the BLASTN pipeline.
//!
//! §4.1: "each byte-aligned 8-mer (8-base word) of the database is
//! checked to see whether it appears in a hash table (stored in GPU
//! DRAM) constructed from all 8-mers of the query sequence."
//!
//! An 8-mer in 2-bit encoding is exactly 16 bits, so the "hash table"
//! is a direct-indexed table of 2¹⁶ buckets — the same structure the
//! GPU implementation uses, and collision-free by construction.

use crate::fasta::base_at;

/// Number of bases per seed word.
pub const SEED_LEN: usize = 8;
/// Number of distinct 8-mers (4⁸).
pub const NUM_KMERS: usize = 1 << (2 * SEED_LEN);

/// Direct-indexed table from 8-mer code to query positions.
pub struct QueryIndex {
    /// `buckets[code]` = all query positions where the 8-mer occurs.
    buckets: Vec<Vec<u32>>,
}

/// Compute the 16-bit code of the 8-mer starting at base `i` of a
/// packed 2-bit sequence.
#[inline]
pub fn kmer_code(packed: &[u8], i: usize) -> u16 {
    let mut code = 0u16;
    for k in 0..SEED_LEN {
        code |= (base_at(packed, i + k) as u16) << (2 * k);
    }
    code
}

impl QueryIndex {
    /// Build the index over every (overlapping) 8-mer of the packed
    /// query.
    ///
    /// # Panics
    /// Panics if the query is shorter than 8 bases.
    pub fn build(query_packed: &[u8], query_len: usize) -> QueryIndex {
        assert!(query_len >= SEED_LEN, "query shorter than a seed");
        assert!(query_len <= query_packed.len() * 4);
        let mut buckets = vec![Vec::new(); NUM_KMERS];
        for q in 0..=(query_len - SEED_LEN) {
            buckets[kmer_code(query_packed, q) as usize].push(q as u32);
        }
        QueryIndex { buckets }
    }

    /// `true` iff the 8-mer code occurs anywhere in the query — the
    /// *seed match* predicate.
    #[inline]
    pub fn contains(&self, code: u16) -> bool {
        !self.buckets[code as usize].is_empty()
    }

    /// All query positions of an 8-mer — the *seed enumeration* lookup.
    #[inline]
    pub fn positions(&self, code: u16) -> &[u32] {
        &self.buckets[code as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta::fa2bit;

    #[test]
    fn finds_all_occurrences() {
        // Query with a repeated 8-mer: ACGTACGT appears at 0 and 8.
        let q = b"ACGTACGTACGTACGT";
        let packed = fa2bit(q);
        let idx = QueryIndex::build(&packed, q.len());
        let code = kmer_code(&packed, 0);
        // ACGTACGT occurs at 0, 4, and 8 (period-4 repeat).
        assert_eq!(idx.positions(code), &[0, 4, 8]);
        assert!(idx.contains(code));
    }

    #[test]
    fn absent_kmers_rejected() {
        let q = b"AAAAAAAAAAAA";
        let packed = fa2bit(q);
        let idx = QueryIndex::build(&packed, q.len());
        let all_t = fa2bit(b"TTTTTTTT");
        assert!(!idx.contains(kmer_code(&all_t, 0)));
        assert!(idx.positions(kmer_code(&all_t, 0)).is_empty());
    }

    #[test]
    fn code_is_position_sensitive() {
        let packed = fa2bit(b"ACGTACGTT");
        assert_ne!(kmer_code(&packed, 0), kmer_code(&packed, 1));
    }

    #[test]
    #[should_panic(expected = "shorter than a seed")]
    fn short_query_rejected() {
        let packed = fa2bit(b"ACGT");
        let _ = QueryIndex::build(&packed, 4);
    }
}
