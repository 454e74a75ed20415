//! LZ4 block-format compression, from scratch.
//!
//! Stands in for the Vitis streaming LZ4 kernel of the paper's
//! bump-in-the-wire application (§5). Implements the standard LZ4
//! *block* format (token / literals / little-endian offset / extended
//! lengths) with a greedy hash-table matcher, plus the streaming
//! chunker the paper describes ("a target file or stream of data may
//! need to be chunked and then run through the kernel").
//!
//! Format rules honoured: minimum match length 4, last five bytes are
//! always literals, matches must not run into the last five bytes, and
//! offsets are in `1..=65535`.

/// Compression errors (decompression side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lz4Error {
    /// Input ended in the middle of a sequence.
    Truncated,
    /// A match offset points before the start of the output.
    BadOffset,
    /// The declared output exceeds the safety limit.
    OutputTooLarge,
}

impl std::fmt::Display for Lz4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lz4Error::Truncated => write!(f, "truncated LZ4 block"),
            Lz4Error::BadOffset => write!(f, "match offset out of range"),
            Lz4Error::OutputTooLarge => write!(f, "decompressed output exceeds limit"),
        }
    }
}

impl std::error::Error for Lz4Error {}

const MIN_MATCH: usize = 4;
const LAST_LITERALS: usize = 5;
/// Matches may not start within the last 12 bytes of input.
const MF_LIMIT: usize = 12;
const HASH_LOG: usize = 13;
const MAX_OFFSET: usize = 65535;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    ((v.wrapping_mul(2654435761)) >> (32 - HASH_LOG)) as usize
}

/// Compress `input` into the LZ4 block format.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n == 0 {
        // A single empty-literal token terminates the block.
        out.push(0);
        return out;
    }
    let mut table = vec![usize::MAX; 1 << HASH_LOG];
    let mut anchor = 0usize; // start of pending literals
    let mut pos = 0usize;

    while n >= MF_LIMIT && pos + MF_LIMIT <= n {
        // Find a match at pos.
        if pos + MIN_MATCH > n - LAST_LITERALS {
            break;
        }
        let h = hash4(&input[pos..]);
        let candidate = table[h];
        table[h] = pos;
        let is_match = candidate != usize::MAX
            && pos - candidate <= MAX_OFFSET
            && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH];
        if !is_match {
            pos += 1;
            continue;
        }
        // Extend the match forward (leaving the last 5 bytes literal).
        let limit = n - LAST_LITERALS;
        let mut match_len = MIN_MATCH;
        while pos + match_len < limit && input[candidate + match_len] == input[pos + match_len] {
            match_len += 1;
        }
        emit_sequence(
            &mut out,
            &input[anchor..pos],
            (pos - candidate) as u16,
            match_len,
        );
        pos += match_len;
        anchor = pos;
    }

    // Trailing literals.
    emit_literals(&mut out, &input[anchor..]);
    out
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: u16, match_len: usize) {
    debug_assert!(offset >= 1);
    debug_assert!(match_len >= MIN_MATCH);
    let lit_len = literals.len();
    let ml = match_len - MIN_MATCH;
    let token = (nibble(lit_len) << 4) | nibble(ml);
    out.push(token);
    push_extended(out, lit_len);
    out.extend_from_slice(literals);
    out.extend_from_slice(&offset.to_le_bytes());
    push_extended(out, ml);
}

fn emit_literals(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_len = literals.len();
    out.push(nibble(lit_len) << 4);
    push_extended(out, lit_len);
    out.extend_from_slice(literals);
}

#[inline]
fn nibble(len: usize) -> u8 {
    if len >= 15 {
        15
    } else {
        len as u8
    }
}

#[inline]
fn push_extended(out: &mut Vec<u8>, len: usize) {
    if len >= 15 {
        let mut rest = len - 15;
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }
}

/// Decompress an LZ4 block. `max_output` bounds memory use against
/// malicious inputs.
pub fn decompress(input: &[u8], max_output: usize) -> Result<Vec<u8>, Lz4Error> {
    let mut out: Vec<u8> = Vec::new();
    let mut i = 0usize;
    loop {
        let token = *input.get(i).ok_or(Lz4Error::Truncated)?;
        i += 1;
        // Literals.
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_extended(input, &mut i)?;
        }
        if i + lit_len > input.len() {
            return Err(Lz4Error::Truncated);
        }
        if out.len() + lit_len > max_output {
            return Err(Lz4Error::OutputTooLarge);
        }
        out.extend_from_slice(&input[i..i + lit_len]);
        i += lit_len;
        // End of block: the final sequence has no match part.
        if i == input.len() {
            return Ok(out);
        }
        // Match.
        if i + 2 > input.len() {
            return Err(Lz4Error::Truncated);
        }
        let offset = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
        i += 2;
        if offset == 0 || offset > out.len() {
            return Err(Lz4Error::BadOffset);
        }
        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len += read_extended(input, &mut i)?;
        }
        match_len += MIN_MATCH;
        if out.len() + match_len > max_output {
            return Err(Lz4Error::OutputTooLarge);
        }
        // Overlap-safe copy (offsets smaller than the match length
        // deliberately repeat freshly written bytes — LZ4's RLE trick).
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
}

fn read_extended(input: &[u8], i: &mut usize) -> Result<usize, Lz4Error> {
    let mut total = 0usize;
    loop {
        let b = *input.get(*i).ok_or(Lz4Error::Truncated)?;
        *i += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

/// Compress a stream in independent chunks (the Vitis streaming-kernel
/// deployment model). Returns per-chunk compressed blocks and the
/// overall compression ratio (input/output — higher is better; 1.0 or
/// below means incompressible, matching the paper's worst case).
pub fn compress_chunked(input: &[u8], chunk_size: usize) -> (Vec<Vec<u8>>, f64) {
    assert!(chunk_size > 0);
    let blocks: Vec<Vec<u8>> = input.chunks(chunk_size).map(compress).collect();
    let out_len: usize = blocks.iter().map(Vec::len).sum();
    let ratio = if out_len == 0 {
        1.0
    } else {
        input.len() as f64 / out_len as f64
    };
    (blocks, ratio)
}

/// Decompress chunked blocks produced by [`compress_chunked`].
pub fn decompress_chunked(blocks: &[Vec<u8>], chunk_size: usize) -> Result<Vec<u8>, Lz4Error> {
    let mut out = Vec::new();
    for b in blocks {
        out.extend(decompress(b, chunk_size)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len().max(16)).unwrap();
        assert_eq!(d, data, "roundtrip failed for len {}", data.len());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"hello");
        roundtrip(b"twelve bytes");
    }

    #[test]
    fn repetitive_data_compresses() {
        let data = b"streaming streaming streaming streaming streaming data!".repeat(64);
        let c = compress(&data);
        assert!(
            c.len() * 2 < data.len(),
            "ratio only {}",
            data.len() as f64 / c.len() as f64
        );
        roundtrip(&data);
    }

    #[test]
    fn run_length_overlap_copy() {
        // Offset 1 with long match: the classic RLE case.
        let data = vec![0x41u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100, "RLE should collapse: {}", c.len());
        roundtrip(&data);
    }

    #[test]
    fn incompressible_data_expands_slightly() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let data: Vec<u8> = (0..4096).map(|_| rng.gen()).collect();
        let c = compress(&data);
        assert!(c.len() >= data.len()); // only literal overhead
        roundtrip(&data);
    }

    #[test]
    fn random_structured_roundtrips() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..50 {
            let len = rng.gen_range(0..5000);
            let mut data = Vec::with_capacity(len);
            while data.len() < len {
                if rng.gen_bool(0.5) && !data.is_empty() {
                    // Copy an earlier slice (guarantees matches exist).
                    let start = rng.gen_range(0..data.len());
                    let take = rng.gen_range(1..=(data.len() - start).min(64));
                    let slice = data[start..start + take].to_vec();
                    data.extend(slice);
                } else {
                    data.push(rng.gen());
                }
            }
            data.truncate(len);
            roundtrip(&data);
        }
    }

    #[test]
    fn long_literal_and_match_lengths() {
        // > 15 literals and > 19 match bytes exercise extended lengths.
        let mut data = Vec::new();
        data.extend((0u32..100).flat_map(|i| i.to_le_bytes())); // literals
        data.extend(std::iter::repeat_n(7u8, 1000)); // long match
        data.extend((200u32..260).flat_map(|i| i.to_le_bytes()));
        roundtrip(&data);
    }

    #[test]
    fn decompress_rejects_malformed() {
        assert_eq!(decompress(&[], 100).unwrap_err(), Lz4Error::Truncated);
        // Token promising 5 literals with only 2 present.
        assert_eq!(
            decompress(&[0x50, 1, 2], 100).unwrap_err(),
            Lz4Error::Truncated
        );
        // Offset 0 is illegal.
        assert_eq!(
            decompress(&[0x10, 9, 0, 0], 100).unwrap_err(),
            Lz4Error::BadOffset
        );
        // Offset beyond what was produced.
        assert_eq!(
            decompress(&[0x10, 9, 5, 0], 100).unwrap_err(),
            Lz4Error::BadOffset
        );
    }

    #[test]
    fn decompress_respects_output_limit() {
        let data = vec![0x42u8; 100_000];
        let c = compress(&data);
        assert_eq!(decompress(&c, 1000).unwrap_err(), Lz4Error::OutputTooLarge);
        assert!(decompress(&c, 100_000).is_ok());
    }

    #[test]
    fn chunked_stream_roundtrip_and_ratio() {
        let text = b"the quick brown fox jumps over the lazy dog. ".repeat(512);
        let (blocks, ratio) = compress_chunked(&text, 4096);
        assert!(ratio > 2.0, "chunked ratio {ratio}");
        let back = decompress_chunked(&blocks, 4096).unwrap();
        assert_eq!(back, text);
        // Chunking reduces the ratio vs whole-buffer compression
        // (the paper: "chunked data may reduce similarity").
        let whole = compress(&text);
        let whole_ratio = text.len() as f64 / whole.len() as f64;
        let (_, tiny_ratio) = compress_chunked(&text, 64);
        assert!(tiny_ratio <= whole_ratio);
    }
}
