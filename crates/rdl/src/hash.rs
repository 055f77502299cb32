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
/// The state-hash subsumption layer keys its explored-set on digests of
/// canonical replica-state encodings; at campaign scale (10⁴–10⁶ entries) a
/// 64-bit digest has a non-negligible birthday-collision probability, while
/// 128 bits puts it far below any practical campaign length. Same stability
/// rationale as [`fnv1a64`]: reproducible across processes and platforms.
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
    fnv1a128_extend(0x6c62_272e_07bb_0142_62b8_2175_6295_c58d, bytes)
}

/// Continues an [`fnv1a128`] hash over more bytes (see [`fnv1a64_extend`]).
///
/// ```
/// use er_pi_rdl::{fnv1a128, fnv1a128_extend};
///
/// assert_eq!(fnv1a128_extend(fnv1a128(b"ab"), b"c"), fnv1a128(b"abc"));
/// ```
pub fn fnv1a128_extend(mut h: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    h
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
}
