//! The bitsliced RECTANGLE engine: many independent 64-bit blocks per
//! pass, pure ALU work, no tables, lane-width generic.
//!
//! RECTANGLE was designed for exactly this ("a bit-slice lightweight
//! block cipher", Zhang et al. 2014): the S-box layer applies the same
//! 4-bit boolean function to all 16 columns of the 4×16 state, so it can
//! be evaluated *bitwise* across a whole row at once, and across many
//! blocks at once if rows of independent blocks share a machine word.
//!
//! # Layout
//!
//! One `u64` **row word** carries row `r` of [`LANES_PER_WORD`] = 4
//! blocks side by side, each in its own 16-bit sub-lane. A **group** is
//! the four row words of those 4 blocks, and a pass works on a register
//! file of `G` groups — `4·G` independent blocks ciphered together:
//!
//! * **AddRoundKey** — XOR each row word with the 16-bit round-key row
//!   replicated into every sub-lane (the key schedule stores round keys
//!   that way);
//! * **SubColumn** — the S-box as a bitwise boolean circuit over the four
//!   row words (derived from the algebraic normal form of the S-box and
//!   pinned against the lookup table by test);
//! * **ShiftRow** — a per-sub-lane 16-bit rotation by 0/1/12/13.
//!
//! The S-box circuit and the sub-lane rotations never look across row
//! words, so nothing in the round ties `G` down — the pass is generic
//! over the group count ([`LaneWidth`]: 16 or 32 lanes per pass, still
//! portable `u64` ops, no intrinsics). More groups in flight means
//! more independent ALU work per round for the out-of-order core to
//! overlap, until register pressure spills the state; which width wins
//! is an empirical question the `host` bench answers per box, and
//! [`LaneWidth::default`] records the measured winner. Full passes run
//! at the chosen width; a ragged tail runs one pass at the smallest
//! power-of-two group count that covers it, so an 8-block fetch refill
//! costs a 2-group pass, not a zero-padded 32-lane one.
//!
//! The scalar [`Rectangle::encrypt_block`] path holds one block in this
//! row-word layout, replicated in every sub-lane. `tests/bitslice_equiv.rs` pins the
//! scalar path and every width to a nibble-loop reference cipher, bulk
//! APIs to the scalar path over random keys, blocks and lane counts, and
//! widths to each other.

use crate::rectangle::{Rectangle, ROUNDS};

/// Independent blocks carried by one `u64` row word (16-bit sub-lanes).
pub const LANES_PER_WORD: usize = 4;

/// How many independent blocks one bitsliced pass ciphers.
///
/// Purely a host-performance knob: every width produces bit-identical
/// output (lane independence — pinned by the equivalence suite), so the
/// choice never leaks into keystream, MACs or sealed images.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LaneWidth {
    /// 16 blocks per pass (4 row-word groups) — the narrowest slice that
    /// fills every 16-bit sub-lane of a `u64` row word.
    W16,
    /// 32 blocks per pass (8 groups) — the measured default: twice the
    /// independent work per round for the out-of-order core to overlap.
    /// A 64-lane pass only tied this width within noise.
    #[default]
    W32,
}

impl LaneWidth {
    /// Every supported width, narrowest first.
    pub const ALL: [LaneWidth; 2] = [LaneWidth::W16, LaneWidth::W32];

    /// Independent 64-bit blocks ciphered per pass at this width.
    pub const fn lanes(self) -> usize {
        match self {
            LaneWidth::W16 => 16,
            LaneWidth::W32 => 32,
        }
    }
}

impl std::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} lanes", self.lanes())
    }
}

/// Replication mask: one copy of a 16-bit row per sub-lane.
const LANE1: u64 = 0x0001_0001_0001_0001;

/// Rotates each 16-bit sub-lane of `x` left by `k` (1 ≤ k < 16).
#[inline(always)]
fn rotl16(x: u64, k: u32) -> u64 {
    let hi = ((0xFFFFu64 << k) & 0xFFFF) * LANE1;
    let lo = (0xFFFF >> (16 - k)) * LANE1;
    ((x << k) & hi) | ((x >> (16 - k)) & lo)
}

/// The RECTANGLE S-box as a bitwise boolean circuit (ANF of
/// [`crate::SBOX`]): inputs/outputs are row words, bit-position-wise.
#[inline(always)]
fn sub_column([x0, x1, x2, x3]: [u64; 4]) -> [u64; 4] {
    let t01 = x0 & x1;
    let t02 = x0 & x2;
    let t12 = x1 & x2;
    let y0 = x0 ^ t01 ^ x2 ^ x3;
    let y1 = !(x0 ^ x1 ^ x2 ^ (x1 & x3));
    let y2 = !(t01 ^ x2 ^ t02 ^ t12 ^ (t01 & x2) ^ x3 ^ (x2 & x3));
    let y3 = x1 ^ t02 ^ t12 ^ x3 ^ (x0 & x3) ^ (t12 & x3);
    [y0, y1, y2, y3]
}

/// Replicates four 16-bit rows into every sub-lane of four row words.
#[inline(always)]
pub(crate) fn broadcast(rows: &[u16; 4]) -> [u64; 4] {
    rows.map(|r| u64::from(r) * LANE1)
}

/// Packs `4·G` blocks into `G` groups of row words.
#[inline]
fn pack<const G: usize>(blocks: &[u64]) -> [[u64; 4]; G] {
    debug_assert_eq!(blocks.len(), LANES_PER_WORD * G);
    let mut st = [[0u64; 4]; G];
    for g in 0..G {
        for l in 0..LANES_PER_WORD {
            let b = blocks[g * LANES_PER_WORD + l];
            let shift = 16 * l;
            st[g][0] |= (b & 0xFFFF) << shift;
            st[g][1] |= ((b >> 16) & 0xFFFF) << shift;
            st[g][2] |= ((b >> 32) & 0xFFFF) << shift;
            st[g][3] |= (b >> 48) << shift;
        }
    }
    st
}

/// Inverse of [`pack`].
#[inline]
fn unpack<const G: usize>(st: &[[u64; 4]; G], blocks: &mut [u64]) {
    debug_assert_eq!(blocks.len(), LANES_PER_WORD * G);
    for g in 0..G {
        for l in 0..LANES_PER_WORD {
            let shift = 16 * l;
            blocks[g * LANES_PER_WORD + l] = ((st[g][0] >> shift) & 0xFFFF)
                | (((st[g][1] >> shift) & 0xFFFF) << 16)
                | (((st[g][2] >> shift) & 0xFFFF) << 32)
                | (((st[g][3] >> shift) & 0xFFFF) << 48);
        }
    }
}

/// Encrypts one full pass of `4·G` blocks in place.
fn encrypt_pass<const G: usize>(cipher: &Rectangle, blocks: &mut [u64]) {
    let mut st = pack::<G>(blocks);
    for k in &cipher.round_keys[..ROUNDS] {
        for s in &mut st {
            let [y0, y1, y2, y3] = sub_column([s[0] ^ k[0], s[1] ^ k[1], s[2] ^ k[2], s[3] ^ k[3]]);
            s[0] = y0;
            s[1] = rotl16(y1, 1);
            s[2] = rotl16(y2, 12);
            s[3] = rotl16(y3, 13);
        }
    }
    let k = &cipher.round_keys[ROUNDS];
    for s in &mut st {
        for (r, kr) in s.iter_mut().zip(k) {
            *r ^= kr;
        }
    }
    unpack(&st, blocks);
}

/// One pass of `4·G` blocks in place, for a fixed group count `G`.
type Pass = fn(&Rectangle, &mut [u64]);

/// Passes at 1, 2, 4 and 8 groups: entry `i` runs `2^i` groups.
const ENCRYPT_PASSES: [Pass; 4] = [
    encrypt_pass::<1>,
    encrypt_pass::<2>,
    encrypt_pass::<4>,
    encrypt_pass::<8>,
];

/// Encrypts `blocks` in place: full passes at `width`, then the ragged
/// tail in one pass at the smallest group count (1, 2, 4, … up to the
/// width's) that covers it, zero-padded. Padding lanes are ciphered and
/// discarded; lane independence makes the real lanes bit-identical
/// whichever pass size carries them.
pub(crate) fn encrypt_blocks(cipher: &Rectangle, blocks: &mut [u64], width: LaneWidth) {
    let pass = |groups: usize| ENCRYPT_PASSES[groups.trailing_zeros() as usize];
    let lanes = width.lanes();
    let mut chunks = blocks.chunks_exact_mut(lanes);
    for chunk in &mut chunks {
        pass(lanes / LANES_PER_WORD)(cipher, chunk);
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let groups = rem.len().div_ceil(LANES_PER_WORD).next_power_of_two();
        let mut buf = [0u64; 32];
        buf[..rem.len()].copy_from_slice(rem);
        pass(groups)(cipher, &mut buf[..LANES_PER_WORD * groups]);
        rem.copy_from_slice(&buf[..rem.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::LaneWidth;
    use crate::{Key80, Rectangle, SBOX};

    /// The boolean circuit agrees with the lookup table on every input,
    /// in every sub-lane position.
    #[test]
    fn circuits_match_sbox_tables() {
        for v in 0..16u64 {
            // Place input nibble `v` at several bit positions at once.
            let spread = |bit: u64| {
                let b = bit & 1;
                b | (b << 7) | (b << 16) | (b << 37) | (b << 63)
            };
            let x = [0, 1, 2, 3].map(|r| spread(v >> r));
            let [y0, y1, y2, y3] = super::sub_column(x);
            for pos in [0, 7, 16, 37, 63] {
                let out = ((y0 >> pos) & 1)
                    | (((y1 >> pos) & 1) << 1)
                    | (((y2 >> pos) & 1) << 2)
                    | (((y3 >> pos) & 1) << 3);
                assert_eq!(out as u8, SBOX[v as usize], "input {v} pos {pos}");
            }
        }
    }

    #[test]
    fn rotl16_rotates_each_lane_independently() {
        let x = 0x8001_4002_2004_1008u64;
        let rot = super::rotl16(x, 1);
        for lane in 0..4 {
            let orig = ((x >> (16 * lane)) & 0xFFFF) as u16;
            let got = ((rot >> (16 * lane)) & 0xFFFF) as u16;
            assert_eq!(got, orig.rotate_left(1), "lane {lane}");
        }
    }

    #[test]
    fn full_pass_matches_scalar_on_all_lanes_at_every_width() {
        let cipher = Rectangle::new(&Key80::from_seed(0xB175));
        let mut x = crate::util::SplitMix64::new(3);
        for width in LaneWidth::ALL {
            let blocks: Vec<u64> = (0..width.lanes()).map(|_| x.next_u64()).collect();
            let expect: Vec<u64> = blocks.iter().map(|&b| cipher.encrypt_block(b)).collect();
            let mut enc = blocks;
            super::encrypt_blocks(&cipher, &mut enc, width);
            assert_eq!(enc, expect, "{width}");
        }
    }

    #[test]
    fn ragged_batches_match_scalar_at_every_width() {
        let cipher = Rectangle::new(&Key80::from_seed(0x7A11));
        let mut x = crate::util::SplitMix64::new(9);
        for width in LaneWidth::ALL {
            for n in [0usize, 1, 3, 4, 15, 16, 17, 31, 33, 63, 65, 100] {
                let blocks: Vec<u64> = (0..n).map(|_| x.next_u64()).collect();
                let expect: Vec<u64> = blocks.iter().map(|&b| cipher.encrypt_block(b)).collect();
                let mut got = blocks;
                super::encrypt_blocks(&cipher, &mut got, width);
                assert_eq!(got, expect, "{width}, batch of {n}");
            }
        }
    }
}
