//! Host-side gapped extension — the stage the paper's GPU pipeline
//! omits ("Our implementation does not presently perform gapped
//! extension \[1\], but for BLASTN, that stage takes negligible time
//! compared to the rest of the pipeline and would be implemented on the
//! host processor").
//!
//! We implement it as a banded Needleman–Wunsch-style local extension
//! with affine-free gap costs and X-drop termination, seeded by an
//! ungapped alignment: the standard BLASTN post-processing step.

use crate::fasta::base_at;

use super::index::SEED_LEN;
use super::stages::Extension;

/// Scoring for gapped extension.
#[derive(Clone, Copy, Debug)]
pub struct GappedParams {
    /// Match reward (BLASTN default +1).
    pub match_score: i32,
    /// Mismatch penalty (default −3).
    pub mismatch_score: i32,
    /// Per-base gap penalty (linear; default −5).
    pub gap_score: i32,
    /// Band half-width around the seed diagonal.
    pub band: usize,
    /// Maximum extension length per direction.
    pub window: usize,
    /// X-drop: stop a direction once its running best falls this far.
    pub x_drop: i32,
}

impl Default for GappedParams {
    fn default() -> Self {
        GappedParams {
            match_score: 1,
            mismatch_score: -3,
            gap_score: -5,
            band: 5,
            window: 256,
            x_drop: 20,
        }
    }
}

/// A gapped alignment result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GappedAlignment {
    /// The ungapped candidate this extends.
    pub from: Extension,
    /// Total score including both gapped flanks and the seed.
    pub score: i32,
}

/// Banded DP extension in one direction. `db_iter`/`q_iter` yield bases
/// walking away from the seed; returns the best score achieved.
fn extend_dir(
    db: impl Fn(usize) -> Option<u8>,
    q: impl Fn(usize) -> Option<u8>,
    p: &GappedParams,
) -> i32 {
    let band = p.band;
    let width = 2 * band + 1;
    const NEG: i32 = i32::MIN / 4;
    // dp[k] = score ending at offset diag k−band on the current row.
    let mut prev = vec![NEG; width];
    prev[band] = 0;
    let mut best = 0i32;
    for i in 1..=p.window {
        let mut cur = vec![NEG; width];
        let mut row_best = NEG;
        for k in 0..width {
            // Cell (i, j) with j = i + k − band.
            let j = i as isize + k as isize - band as isize;
            if j < 1 {
                continue;
            }
            let j = j as usize;
            let (Some(a), Some(b)) = (db(i - 1), q(j - 1)) else {
                // Outside either sequence: only gap moves possible, and
                // they never improve a local extension — skip.
                continue;
            };
            let sub = if a == b {
                p.match_score
            } else {
                p.mismatch_score
            };
            let diag = prev[k] + sub;
            let up = if k + 1 < width {
                prev[k + 1] + p.gap_score
            } else {
                NEG
            };
            let left = if k >= 1 {
                cur[k - 1] + p.gap_score
            } else {
                NEG
            };
            let val = diag.max(up).max(left);
            cur[k] = val;
            row_best = row_best.max(val);
        }
        best = best.max(row_best);
        if row_best < best - p.x_drop || row_best <= NEG / 2 {
            break;
        }
        prev = cur;
    }
    best.max(0)
}

/// Gapped-extend each above-threshold ungapped alignment in both
/// directions; returns the (typically slightly improved) scores.
pub fn gapped_extension(
    db_packed: &[u8],
    db_len: usize,
    query_packed: &[u8],
    query_len: usize,
    candidates: &[Extension],
    params: &GappedParams,
) -> Vec<GappedAlignment> {
    candidates
        .iter()
        .map(|&c| {
            let s = c.seed;
            // Right flank starts after the ungapped right extent.
            let dbr = s.p as usize + SEED_LEN + c.right as usize;
            let qr = s.q as usize + SEED_LEN + c.right as usize;
            let right = extend_dir(
                |i| {
                    let idx = dbr + i;
                    (idx < db_len).then(|| base_at(db_packed, idx))
                },
                |j| {
                    let idx = qr + j;
                    (idx < query_len).then(|| base_at(query_packed, idx))
                },
                params,
            );
            // Left flank walks backwards before the ungapped left extent.
            let dbl = s.p as usize - c.left as usize;
            let ql = s.q as usize - c.left as usize;
            let left = extend_dir(
                |i| dbl.checked_sub(i + 1).map(|idx| base_at(db_packed, idx)),
                |j| ql.checked_sub(j + 1).map(|idx| base_at(query_packed, idx)),
                params,
            );
            GappedAlignment {
                from: c,
                score: c.score + left + right,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blast::stages::SeedMatch;
    use crate::fasta::{fa2bit, random_dna};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ext(p: u32, q: u32, score: i32) -> Extension {
        Extension {
            seed: SeedMatch { p, q },
            left: 0,
            right: 0,
            score,
        }
    }

    #[test]
    fn gapped_never_scores_below_ungapped() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let query = random_dna(300, &mut rng);
        let db = random_dna(600, &mut rng);
        let qp = fa2bit(&query);
        let dbp = fa2bit(&db);
        let cands = [ext(100, 50, 8), ext(200, 120, 8)];
        let out = gapped_extension(
            &dbp,
            db.len(),
            &qp,
            query.len(),
            &cands,
            &GappedParams::default(),
        );
        for g in &out {
            assert!(
                g.score >= g.from.score,
                "gapped {} < ungapped {}",
                g.score,
                g.from.score
            );
        }
    }

    #[test]
    fn gap_bridges_an_insertion() {
        // Database = query with a single inserted base after the seed:
        // ungapped extension dies at the frameshift, gapped bridges it.
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let core = random_dna(120, &mut rng);
        let query = core.clone();
        let mut db = core[..40].to_vec();
        db.push(b'A'); // insertion
        db.extend_from_slice(&core[40..]);
        let qp = fa2bit(&query);
        let dbp = fa2bit(&db);
        // Seed inside the first aligned region (byte-aligned at 16).
        let cand = ext(16, 16, 8);
        let gapped = gapped_extension(
            &dbp,
            db.len(),
            &qp,
            query.len(),
            &[cand],
            &GappedParams::default(),
        );
        let ungapped_only = super::super::stages::ungapped_extension(
            &dbp,
            db.len(),
            &qp,
            query.len(),
            &[cand],
            &super::super::stages::UngappedParams {
                threshold: 0,
                ..Default::default()
            },
        );
        // Past the insertion there are ~70 more matching bases the
        // gapped pass can claim (cost: one gap).
        assert!(
            gapped[0].score > ungapped_only[0].score + 20,
            "gapped {} vs ungapped {}",
            gapped[0].score,
            ungapped_only[0].score
        );
    }

    #[test]
    fn identical_flanks_score_their_length() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let seq = random_dna(200, &mut rng);
        let packed = fa2bit(&seq);
        // Self-alignment seeded mid-sequence: both flanks fully match.
        let cand = ext(100, 100, 8);
        let out = gapped_extension(
            &packed,
            seq.len(),
            &packed,
            seq.len(),
            &[cand],
            &GappedParams::default(),
        );
        // Left flank ≈ 100 matches, right ≈ 92 (window-capped at 256).
        assert!(out[0].score >= 8 + 180, "score {}", out[0].score);
    }
}
