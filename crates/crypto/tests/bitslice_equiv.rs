//! The bitsliced ≡ scalar equivalence suite. The oracle is [`oracle`],
//! a nibble-at-a-time RECTANGLE-80 written here from the `SBOX` lookup
//! table, so it shares no code with the crate's boolean S-box circuits.
//! The scalar path ([`Rectangle::encrypt_block`]) and every lane width
//! are checked against it directly, including ragged batches sized to
//! hit every tail pass. Every bulk API — block encryption, batched CTR
//! keystream, lane-parallel CBC-MAC — must
//! then reproduce the scalar path bit for bit over random keys, random
//! blocks and every lane-count shape (empty, sub-lane, exactly one
//! pass, ragged multi-pass tails), at **every supported lane width**
//! (16/32/64): the width is a host-perf knob, never a semantic one, so
//! each width must match the oracle and all widths must match each
//! other.

use proptest::prelude::*;
use sofia_crypto::{ctr, mac, CounterBlock, Key80, KeySet, LaneWidth, Nonce, Rectangle};

/// RECTANGLE-80 one 4-bit column at a time through the S-box tables.
mod oracle {
    use sofia_crypto::{Key80, ROUNDS, SBOX};

    /// A cipher instance: the 26 round keys.
    pub struct Oracle(Vec<[u16; 4]>);

    /// Substitutes the lowest `columns` columns of the 4×16 state.
    fn sub_columns(rows: [u16; 4], columns: u32) -> [u16; 4] {
        let mut out = rows;
        for j in 0..columns {
            let v = (0..4).fold(0, |v, r| v | ((rows[r] >> j) & 1) << r);
            let w = u16::from(SBOX[usize::from(v)]);
            for (r, o) in out.iter_mut().enumerate() {
                *o = (*o & !(1 << j)) | ((w >> r) & 1) << j;
            }
        }
        out
    }

    fn xor(rows: [u16; 4], rk: &[u16; 4]) -> [u16; 4] {
        std::array::from_fn(|r| rows[r] ^ rk[r])
    }

    impl Oracle {
        pub fn new(key: &Key80) -> Oracle {
            let kb = key.as_bytes();
            let mut v: [u16; 5] =
                std::array::from_fn(|i| u16::from_le_bytes([kb[2 * i], kb[2 * i + 1]]));
            let mut rc = 1u16;
            let mut keys = Vec::with_capacity(ROUNDS + 1);
            for _ in 0..ROUNDS {
                keys.push([v[0], v[1], v[2], v[3]]);
                let s = sub_columns([v[0], v[1], v[2], v[3]], 4);
                v = [
                    s[0].rotate_left(8) ^ s[1] ^ rc,
                    s[2],
                    s[3],
                    s[3].rotate_left(12) ^ v[4],
                    s[0],
                ];
                rc = ((rc << 1) | (((rc >> 4) ^ (rc >> 2)) & 1)) & 0x1F;
            }
            keys.push([v[0], v[1], v[2], v[3]]);
            Oracle(keys)
        }

        pub fn encrypt(&self, block: u64) -> u64 {
            let mut rows = std::array::from_fn(|r| (block >> (16 * r)) as u16);
            for rk in &self.0[..ROUNDS] {
                let s = sub_columns(xor(rows, rk), 16);
                rows = [
                    s[0],
                    s[1].rotate_left(1),
                    s[2].rotate_left(12),
                    s[3].rotate_left(13),
                ];
            }
            join(xor(rows, &self.0[ROUNDS]))
        }
    }

    fn join(rows: [u16; 4]) -> u64 {
        (0..4).fold(0, |b, r| b | u64::from(rows[r]) << (16 * r))
    }
}

use oracle::Oracle;

fn any_width() -> impl Strategy<Value = LaneWidth> {
    (0usize..LaneWidth::ALL.len()).prop_map(|i| LaneWidth::ALL[i])
}

/// The oracle itself reproduces the crate's known answers.
#[test]
fn oracle_meets_known_answers() {
    let zero = Oracle::new(&Key80::from_bytes([0; 10]));
    assert_eq!(zero.encrypt(0), 0x0874_e8b1_e354_2d96);
    let ones = Oracle::new(&Key80::from_bytes([0xFF; 10]));
    assert_eq!(ones.encrypt(u64::MAX), 0x0112_ae3d_aa34_9945);
}

/// Every lane width, on batch sizes that reach every tail pass size
/// (1, 2, 4, 8 and 16 groups) as well as full passes, matches the
/// oracle.
#[test]
fn every_width_matches_oracle_on_sized_tails() {
    for seed in [0x7A11u64, 0x5EED] {
        let cipher = Rectangle::new(&Key80::from_seed(seed));
        let oracle = Oracle::new(&Key80::from_seed(seed));
        let mut x = sofia_crypto::util::SplitMix64::new(seed);
        for n in (1..=9).chain(15..=17).chain(31..=33) {
            let blocks: Vec<u64> = (0..n).map(|_| x.next_u64()).collect();
            let enc: Vec<u64> = blocks.iter().map(|&b| oracle.encrypt(b)).collect();
            for width in LaneWidth::ALL {
                let mut got = blocks.clone();
                cipher.encrypt_blocks_with(&mut got, width);
                assert_eq!(got, enc, "{width}, batch of {n}");
            }
        }
    }
}

proptest! {
    /// The scalar cipher matches the oracle.
    #[test]
    fn scalar_matches_oracle(key in any::<u64>(), block in any::<u64>()) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let oracle = Oracle::new(&Key80::from_seed(key));
        prop_assert_eq!(cipher.encrypt_block(block), oracle.encrypt(block));
    }

    /// Batch encryption over any lane count matches per-block scalar
    /// encryption, including the zero-padded ragged final pass.
    #[test]
    fn encrypt_blocks_matches_scalar(
        key in any::<u64>(),
        blocks in proptest::collection::vec(any::<u64>(), 0..70),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let expect: Vec<u64> = blocks.iter().map(|&b| cipher.encrypt_block(b)).collect();
        let mut got = blocks.clone();
        cipher.encrypt_blocks(&mut got);
        prop_assert_eq!(got, expect);
    }

    /// The batched CTR keystream equals the per-counter scalar pads, for
    /// any batch shape of valid control-flow edges.
    #[test]
    fn ctr_keystream_matches_scalar(
        key in any::<u64>(),
        nonce in any::<u16>(),
        edges in proptest::collection::vec((0u32..1 << 24, 0u32..1 << 24), 0..60),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let counters: Vec<CounterBlock> = edges
            .iter()
            .map(|&(prev, pc)| CounterBlock::from_edge(Nonce::new(nonce), prev << 2, pc << 2))
            .collect();
        let expect: Vec<u32> = counters.iter().map(|&c| ctr::pad(&cipher, c)).collect();
        prop_assert_eq!(ctr::pads(&cipher, &counters), expect);
    }

    /// `apply_batch` is the batched involution of scalar `apply`.
    #[test]
    fn ctr_apply_batch_roundtrips(
        key in any::<u64>(),
        edges in proptest::collection::vec(
            ((0u32..1 << 24, 0u32..1 << 24), any::<u32>()), 0..40),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let counters: Vec<CounterBlock> = edges
            .iter()
            .map(|&((prev, pc), _)| CounterBlock::from_edge(Nonce::new(3), prev << 2, pc << 2))
            .collect();
        let plain: Vec<u32> = edges.iter().map(|&(_, w)| w).collect();
        let mut words = plain.clone();
        ctr::apply_batch(&cipher, &counters, &mut words);
        for ((&c, &w), &p) in counters.iter().zip(&words).zip(&plain) {
            prop_assert_eq!(w, ctr::apply(&cipher, c, p));
        }
        ctr::apply_batch(&cipher, &counters, &mut words);
        prop_assert_eq!(words, plain);
    }

    /// Lane-parallel CBC-MAC over independent messages matches the
    /// scalar MAC per message — across message counts (including ragged
    /// final cipher passes), message lengths and padded domains.
    #[test]
    fn cbc_mac_batch_matches_scalar(
        key in any::<u64>(),
        padded_pairs in 1usize..6,
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..10), 0..40),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let padded_words = padded_pairs * 2;
        let msgs: Vec<Vec<u32>> = messages
            .into_iter()
            .map(|mut m| {
                m.truncate(padded_words);
                m
            })
            .collect();
        let slices: Vec<&[u32]> = msgs.iter().map(|m| m.as_slice()).collect();
        let expect: Vec<_> = slices
            .iter()
            .map(|m| mac::mac_words(&cipher, m, padded_words))
            .collect();
        prop_assert_eq!(mac::mac_words_batch(&cipher, &slices, padded_words), expect);
    }

    /// Width sweep: batch encryption at every lane width matches the
    /// scalar oracle, including ragged final passes — so 16- and 32-lane
    /// outputs are mutually bit-identical, not just oracle-identical.
    #[test]
    fn encrypt_blocks_matches_scalar_at_every_width(
        key in any::<u64>(),
        blocks in proptest::collection::vec(any::<u64>(), 0..150),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let expect: Vec<u64> = blocks.iter().map(|&b| cipher.encrypt_block(b)).collect();
        for width in LaneWidth::ALL {
            let mut got = blocks.clone();
            cipher.encrypt_blocks_with(&mut got, width);
            prop_assert_eq!(&got, &expect);
        }
    }

    /// The CTR keystream is width-invariant and oracle-exact: the same
    /// pads fall out of every lane width.
    #[test]
    fn ctr_keystream_matches_scalar_at_every_width(
        key in any::<u64>(),
        nonce in any::<u16>(),
        edges in proptest::collection::vec((0u32..1 << 24, 0u32..1 << 24), 0..100),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let counters: Vec<CounterBlock> = edges
            .iter()
            .map(|&(prev, pc)| CounterBlock::from_edge(Nonce::new(nonce), prev << 2, pc << 2))
            .collect();
        let expect: Vec<u32> = counters.iter().map(|&c| ctr::pad(&cipher, c)).collect();
        for width in LaneWidth::ALL {
            prop_assert_eq!(ctr::pads_with(&cipher, &counters, width), expect.clone());
        }
    }

    /// `apply_batch` round-trips across *mixed* widths: words encrypted
    /// at one width decrypt at any other (XOR with identical pads).
    #[test]
    fn ctr_apply_batch_roundtrips_across_widths(
        key in any::<u64>(),
        enc_width in any_width(),
        dec_width in any_width(),
        edges in proptest::collection::vec(
            ((0u32..1 << 24, 0u32..1 << 24), any::<u32>()), 0..60),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let counters: Vec<CounterBlock> = edges
            .iter()
            .map(|&((prev, pc), _)| CounterBlock::from_edge(Nonce::new(5), prev << 2, pc << 2))
            .collect();
        let plain: Vec<u32> = edges.iter().map(|&(_, w)| w).collect();
        let mut words = plain.clone();
        ctr::apply_batch_with(&cipher, &counters, &mut words, enc_width);
        ctr::apply_batch_with(&cipher, &counters, &mut words, dec_width);
        prop_assert_eq!(words, plain);
    }

    /// Lane-parallel CBC-MAC is width-invariant and oracle-exact.
    #[test]
    fn cbc_mac_batch_matches_scalar_at_every_width(
        key in any::<u64>(),
        padded_pairs in 1usize..6,
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..10), 0..70),
    ) {
        let cipher = Rectangle::new(&Key80::from_seed(key));
        let padded_words = padded_pairs * 2;
        let msgs: Vec<Vec<u32>> = messages
            .into_iter()
            .map(|mut m| {
                m.truncate(padded_words);
                m
            })
            .collect();
        let slices: Vec<&[u32]> = msgs.iter().map(|m| m.as_slice()).collect();
        let expect: Vec<_> = slices
            .iter()
            .map(|m| mac::mac_words(&cipher, m, padded_words))
            .collect();
        for width in LaneWidth::ALL {
            prop_assert_eq!(
                mac::mac_words_batch_with(&cipher, &slices, padded_words, width),
                expect.clone()
            );
        }
    }
}

/// The cross-width framing, pinned directly: a 32-lane pass over 32
/// blocks equals two 16-lane passes over the halves — lane independence
/// means width only changes how many blocks share a sweep, never any
/// block's value.
#[test]
fn wider_pass_equals_stacked_narrow_passes() {
    let cipher = Rectangle::new(&Key80::from_seed(0x57AC));
    let blocks: Vec<u64> = (0..64u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut narrow = blocks.clone();
    for half in narrow.chunks_mut(16) {
        cipher.encrypt_blocks_with(half, LaneWidth::W16);
    }
    let mut mid = blocks.clone();
    for half in mid.chunks_mut(32) {
        cipher.encrypt_blocks_with(half, LaneWidth::W32);
    }
    assert_eq!(mid, narrow, "one 32-lane pass == two 16-lane passes");
}

/// The keyset-level sanity check: all three expanded ciphers drive the
/// batch APIs identically to their scalar selves (exactly the shapes the
/// sealer uses: k1 for keystream, k2/k3 for MACs).
#[test]
fn expanded_keyset_batches_match_scalar() {
    let keys = KeySet::from_seed(0xE0).expand();
    let words: Vec<u32> = (0..6).collect();
    assert_eq!(
        mac::mac_words_batch(&keys.mac_exec, &[&words], 6),
        vec![mac::mac_words(&keys.mac_exec, &words, 6)]
    );
    assert_eq!(
        mac::mac_words_batch(&keys.mac_mux, &[&words[..5]], 6),
        vec![mac::mac_words(&keys.mac_mux, &words[..5], 6)]
    );
    let counters: Vec<CounterBlock> = (0..17)
        .map(|i| CounterBlock::from_edge(Nonce::new(1), i * 4, (i + 1) * 4))
        .collect();
    let expect: Vec<u32> = counters.iter().map(|&c| ctr::pad(&keys.ctr, c)).collect();
    assert_eq!(ctr::pads(&keys.ctr, &counters), expect);
}
