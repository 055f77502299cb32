//! Canonical byte encodings for state-digest computation.
//!
//! The subsumption layer (ER-π's state-hash reduction) keys its explored-set
//! on a digest of each replica's *full* behavioral state. Hashing via
//! `serde_json` or `Debug` output would tie soundness to formatting details;
//! instead, types opt in to a fixed little-endian, length-prefixed binary
//! encoding with the property that **equal encodings imply
//! behaviorally-equivalent values** (and, for the impls in this workspace,
//! the converse: the encoding is injective on the reachable value space).
//!
//! Collections are length-prefixed so that concatenated fields can never
//! alias each other (`["ab"], ["c"]` vs `["a"], ["bc"]`).

use crate::{Dot, EventId, ReplicaId, Value, VersionVector};

/// A canonical, self-delimiting byte encoding.
///
/// Implementations must be deterministic (same value → same bytes, across
/// processes and platforms) and prefix-free under concatenation (every
/// variable-length field is length-prefixed), so a digest of the encoding
/// can stand in for the value in an explored-set.
pub trait CanonicalEncode {
    /// Appends this value's canonical encoding to `out`.
    fn encode_canonical(&self, out: &mut Vec<u8>);
}

impl<T: CanonicalEncode + ?Sized> CanonicalEncode for &T {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        (**self).encode_canonical(out);
    }
}

/// A shared value encodes as the value: sharing is a storage detail.
impl<T: CanonicalEncode + ?Sized> CanonicalEncode for std::sync::Arc<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        (**self).encode_canonical(out);
    }
}

impl CanonicalEncode for bool {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl CanonicalEncode for u16 {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl CanonicalEncode for u32 {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl CanonicalEncode for u64 {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl CanonicalEncode for i32 {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl CanonicalEncode for i64 {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl CanonicalEncode for str {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_canonical(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl CanonicalEncode for String {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.as_str().encode_canonical(out);
    }
}

impl<T: CanonicalEncode> CanonicalEncode for [T] {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_canonical(out);
        for item in self {
            item.encode_canonical(out);
        }
    }
}

impl<T: CanonicalEncode> CanonicalEncode for Vec<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.as_slice().encode_canonical(out);
    }
}

impl<T: CanonicalEncode> CanonicalEncode for std::collections::VecDeque<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_canonical(out);
        for item in self {
            item.encode_canonical(out);
        }
    }
}

impl<A: CanonicalEncode, B: CanonicalEncode> CanonicalEncode for (A, B) {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.0.encode_canonical(out);
        self.1.encode_canonical(out);
    }
}

impl<K: CanonicalEncode, V: CanonicalEncode> CanonicalEncode for std::collections::BTreeMap<K, V> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        // BTreeMap iteration is key-sorted: deterministic across replicas.
        (self.len() as u64).encode_canonical(out);
        for (k, v) in self {
            k.encode_canonical(out);
            v.encode_canonical(out);
        }
    }
}

impl<T: CanonicalEncode> CanonicalEncode for std::collections::BTreeSet<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_canonical(out);
        for item in self {
            item.encode_canonical(out);
        }
    }
}

impl<T: CanonicalEncode> CanonicalEncode for Option<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_canonical(out);
            }
        }
    }
}

impl CanonicalEncode for ReplicaId {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.raw().encode_canonical(out);
    }
}

impl CanonicalEncode for EventId {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.raw().encode_canonical(out);
    }
}

impl CanonicalEncode for Dot {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.replica.encode_canonical(out);
        self.counter.encode_canonical(out);
    }
}

impl CanonicalEncode for VersionVector {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        // `iter()` is in replica order: sorted, deterministic.
        let pairs = self.iter();
        (pairs.len() as u64).encode_canonical(out);
        for (r, c) in pairs {
            r.encode_canonical(out);
            c.encode_canonical(out);
        }
    }
}

impl CanonicalEncode for Value {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                b.encode_canonical(out);
            }
            Value::Int(i) => {
                out.push(2);
                i.encode_canonical(out);
            }
            Value::Str(s) => {
                out.push(3);
                s.encode_canonical(out);
            }
            Value::List(items) => {
                out.push(4);
                items.encode_canonical(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc<T: CanonicalEncode + ?Sized>(v: &T) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode_canonical(&mut out);
        out
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        // Without length prefixes these two would concatenate identically.
        let a = enc(&vec!["ab".to_owned(), "c".to_owned()]);
        let b = enc(&vec!["a".to_owned(), "bc".to_owned()]);
        assert_ne!(a, b);
    }

    #[test]
    fn value_variants_are_tag_disjoint() {
        assert_ne!(enc(&Value::Null), enc(&Value::Bool(false)));
        assert_ne!(enc(&Value::Int(0)), enc(&Value::Bool(false)));
        assert_ne!(enc(&Value::from("")), enc(&Value::List(vec![])));
        // Nested lists encode structurally, not by flattening.
        let nested = Value::List(vec![Value::List(vec![Value::Int(1)])]);
        let flat = Value::List(vec![Value::Int(1)]);
        assert_ne!(enc(&nested), enc(&flat));
    }

    #[test]
    fn version_vector_encoding_is_order_independent() {
        let r0 = ReplicaId::new(0);
        let r1 = ReplicaId::new(1);
        let a: VersionVector = [(r0, 2), (r1, 5)].into_iter().collect();
        let b: VersionVector = [(r1, 5), (r0, 2)].into_iter().collect();
        assert_eq!(enc(&a), enc(&b));
        let c: VersionVector = [(r0, 2)].into_iter().collect();
        assert_ne!(enc(&a), enc(&c));
    }

    #[test]
    fn dot_and_ids_are_fixed_width() {
        assert_eq!(enc(&ReplicaId::new(3)).len(), 2);
        assert_eq!(enc(&EventId::new(9)).len(), 4);
        assert_eq!(enc(&Dot::new(ReplicaId::new(1), 7)).len(), 10);
    }

    #[test]
    fn sharing_does_not_show_in_the_encoding() {
        use std::sync::Arc;
        let plain = vec!["ab".to_owned(), "c".to_owned()];
        let shared: Vec<Arc<String>> = plain.iter().cloned().map(Arc::new).collect();
        assert_eq!(enc(&shared), enc(&plain));
        let slice: Arc<[String]> = plain.clone().into();
        assert_eq!(enc(&slice), enc(&plain));
        assert_eq!(enc(&Arc::<str>::from("ab")), enc("ab"));
    }

    #[test]
    fn option_is_tagged() {
        assert_ne!(enc(&None::<u64>), enc(&Some(0u64)));
        assert_eq!(enc(&None::<u64>).len(), 1);
    }
}
