//! Deterministic 64-bit hashing for content-addressed structures.

/// FNV-1a over a byte slice.
///
/// Used by the [`MerkleLog`](crate::MerkleLog) for content addressing.
/// `std::hash::DefaultHasher` is randomly seeded per process, which would
/// make Merkle hashes non-reproducible across runs; FNV-1a is stable.
///
/// ```
/// use er_pi_rdl::fnv1a64;
///
/// assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
/// assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an [`fnv1a64`] hash over more bytes, so a message can be hashed
/// piece by piece without being assembled first:
///
/// ```
/// use er_pi_rdl::{fnv1a64, fnv1a64_extend};
///
/// assert_eq!(fnv1a64_extend(fnv1a64(b"ab"), b"c"), fnv1a64(b"abc"));
/// ```
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a byte slice, 128-bit variant.
///
/// A stable 128-bit fingerprint of a byte string, reproducible across
/// processes and platforms (same rationale as [`fnv1a64`]), for checks that
/// pin bytes as literals. It consumes one byte per multiply; the digest the
/// engine keys state-hash subsumption on is [`digest128`], which takes eight.
///
/// ```
/// use er_pi_rdl::{fnv1a128, fnv1a64};
///
/// assert_eq!(fnv1a128(b"abc"), fnv1a128(b"abc"));
/// assert_ne!(fnv1a128(b"abc"), fnv1a128(b"abd"));
/// // Not a widening of the 64-bit variant: an independent permutation.
/// assert_ne!(fnv1a128(b"abc") as u64, fnv1a64(b"abc"));
/// ```
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    h
}

/// The name of [`digest128`] and [`digest128_fold`]'s output format, for
/// whatever records their values (a forensic bundle says which digest its
/// per-step digests are). A change to either function's output is a new
/// name.
pub const DIGEST128_NAME: &str = "mum128-v1";

/// Odd 64-bit constants with balanced bits (wyhash's default secrets): the
/// two lane seeds, then the two lane multipliers.
const SECRET: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// Multiply-fold: the full 128-bit product of `a` and `b`, its halves
/// xor-ed together. Every bit of either factor reaches every bit of the
/// result.
fn mum(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    product as u64 ^ (product >> 64) as u64
}

/// The murmur3 finaliser: a bijection on `u64` in which every input bit
/// flips each output bit with probability about one half.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The two 64-bit lanes of a [`digest128`] in progress. Each word goes into
/// both, through a multiply-fold with the lane's own secret, so two inputs
/// collide only if both 64-bit chains, seeded and multiplied differently,
/// do.
struct Lanes {
    lo: u64,
    hi: u64,
}

impl Lanes {
    fn absorb(&mut self, word: u64) {
        self.lo = mum(self.lo ^ word, SECRET[2]);
        self.hi = mum(self.hi ^ word, SECRET[3]);
    }

    /// The avalanche: a Feistel round of [`fmix64`] over the two lanes, a
    /// bijection on 128 bits, so it merges no two lane states.
    fn finish(self) -> u128 {
        let lo = fmix64(self.lo);
        let hi = fmix64(self.hi ^ lo);
        let lo = lo ^ fmix64(hi);
        u128::from(hi) << 64 | u128::from(lo)
    }
}

/// A 128-bit digest of a byte slice that takes eight bytes per step — the
/// digest behind state-hash subsumption's keys.
///
/// A multiply-fold in the style of wyhash and xxh3: the length seeds both
/// lanes, each little-endian 8-byte word is absorbed into both, the last
/// 0–7 bytes are zero-padded into one more word whose top byte is their
/// count, and a final avalanche mixes the lanes. Stable across processes
/// and platforms; not a cryptographic hash. Its output format is named
/// [`DIGEST128_NAME`].
///
/// ```
/// use er_pi_rdl::{digest128, fnv1a128};
///
/// assert_eq!(digest128(b"abc"), digest128(b"abc"));
/// assert_ne!(digest128(b"abc"), digest128(b"abd"));
/// // Trailing zero bytes are not padding: the length is hashed.
/// assert_ne!(digest128(b"abc"), digest128(b"abc\0"));
/// assert_ne!(digest128(b"abc"), fnv1a128(b"abc"));
/// ```
pub fn digest128(bytes: &[u8]) -> u128 {
    let len = bytes.len() as u64;
    let mut lanes = Lanes {
        lo: SECRET[0] ^ len,
        hi: SECRET[1] ^ len,
    };
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        lanes.absorb(u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let rest = words.remainder();
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    tail[7] = rest.len() as u8;
    lanes.absorb(u64::from_le_bytes(tail));
    lanes.finish()
}

/// Folds a fixed-width `value` — typically a [`digest128`] — into `acc`:
/// the accumulator is the two lanes, the value's halves are absorbed low
/// then high, and the result is avalanched like a digest's.
///
/// A sequence of digests folds from `0` in order; since every value is 16
/// bytes, no boundary between two of them can shift, and the fold is
/// order-sensitive:
///
/// ```
/// use er_pi_rdl::{digest128, digest128_fold};
///
/// let (a, b) = (digest128(b"a"), digest128(b"b"));
/// let ab = digest128_fold(digest128_fold(0, a), b);
/// assert_ne!(ab, digest128_fold(digest128_fold(0, b), a));
/// assert_ne!(ab, digest128_fold(0, a));
/// ```
pub fn digest128_fold(acc: u128, value: u128) -> u128 {
    let mut lanes = Lanes {
        lo: acc as u64,
        hi: (acc >> 64) as u64,
    };
    lanes.absorb(value as u64);
    lanes.absorb((value >> 64) as u64);
    lanes.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // FNV-1a reference values.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn deterministic_across_calls() {
        let x = fnv1a64(b"er-pi");
        assert_eq!(x, fnv1a64(b"er-pi"));
    }

    #[test]
    fn sensitive_to_order() {
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn known_vectors_128() {
        // FNV-1a 128 reference values (offset basis and the standard
        // test-vector "a" from the FNV reference code).
        assert_eq!(fnv1a128(b""), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
        assert_eq!(fnv1a128(b"a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn fnv128_is_deterministic_and_order_sensitive() {
        assert_eq!(fnv1a128(b"er-pi"), fnv1a128(b"er-pi"));
        assert_ne!(fnv1a128(b"ab"), fnv1a128(b"ba"));
        assert_ne!(fnv1a128(b"ab"), fnv1a128(b"abc"));
    }

    /// `0, 1, 2, …` wrapping at 256: `len` bytes with no two equal words.
    fn counting(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    #[test]
    fn digest128_known_vectors_cover_every_tail_case() {
        // Whole words only, every tail length from 1 to 7 after zero, one
        // and two words, and the size of a town replica's encoding.
        // Generated by this implementation and checked against an
        // independent re-implementation of the definition; a change here
        // is a new format, and a new `DIGEST128_NAME`.
        let vectors: [(usize, u128); 9] = [
            (0, 0x178d7d92ba780b2e98c6a14259d8bc87),
            (1, 0x72097775d5a2473c2d623e31b8691b65),
            (7, 0x56a0b9fe968209dc78531f0cea197ffc),
            (8, 0x2c3ac952e9b6c857a425f9750ae8d746),
            (9, 0x7868014a80aba48cea5d071398c90344),
            (15, 0x8ee2bec343acd3e4afa374baefa07839),
            (16, 0xa081f04c2ca23e17c6541f94a2bbe5b6),
            (17, 0xe619b8634ef7d2baa410e2ea458c3ee1),
            (206, 0xba246bc9b480538692b160a5c0ed0b85),
        ];
        for (len, digest) in vectors {
            assert_eq!(digest128(&counting(len)), digest, "length {len}");
        }
    }

    #[test]
    fn every_bit_flip_changes_both_halves() {
        let input = counting(206);
        let (lo, hi) = {
            let d = digest128(&input);
            (d as u64, (d >> 64) as u64)
        };
        for bit in 0..input.len() * 8 {
            let mut flipped = input.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let d = digest128(&flipped);
            assert_ne!(d as u64, lo, "bit {bit}: low half unchanged");
            assert_ne!((d >> 64) as u64, hi, "bit {bit}: high half unchanged");
        }
    }

    #[test]
    fn zero_padding_and_length_are_told_apart() {
        // Each pair shares its padded words; only the length differs.
        for len in 0..24 {
            let short = vec![0u8; len];
            let long = vec![0u8; len + 1];
            assert_ne!(digest128(&short), digest128(&long), "length {len}");
        }
    }
}
