//! A copy-on-write cell: the structural sharing replica states are
//! snapshotted through.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use er_pi_model::CanonicalEncode;

/// A value behind a reference count: `clone` is a pointer bump, and the
/// first write through a handle that shares its value copies it
/// ([`Arc::make_mut`]).
///
/// A replay engine snapshots every replica at every step but an event writes
/// one of them, so a subject model declares `type State = Shared<Replica>`:
/// a snapshot of `N` replicas is then `N` pointer bumps, and the step after
/// it copies only the replica it touches. Reads and writes go through
/// `Deref` / `DerefMut`, so `state.field` and `state.field.push(x)` compile
/// as they would on the bare struct; a `&self` method called through a
/// `&mut` binding resolves to `Deref` and copies nothing.
///
/// Two handles are *observationally* independent: nothing done through one
/// can be seen through the other. Equality, `Debug` and the canonical
/// encoding are the value's own.
///
/// The cell can also remember one 128-bit digest of its value
/// ([`Shared::digest_with`]): every handle sharing the value shares it, and
/// the first write through `DerefMut` forgets it. State-hash subsumption
/// digests every replica after every step, and this way re-encodes only the
/// replica the step wrote. `T` must not change behind `&T` (no interior
/// mutability that its encoding can see).
///
/// ```
/// use er_pi_rdl::Shared;
///
/// let mut a = Shared::new(vec![1, 2]);
/// let b = a.clone();
/// assert!(Shared::ptr_eq(&a, &b)); // one allocation, two handles
/// a.push(3); // copies, then writes the copy
/// assert_eq!((a.len(), b.len()), (3, 2));
/// assert!(!Shared::ptr_eq(&a, &b));
/// ```
pub struct Shared<T>(Arc<Inner<T>>);

struct Inner<T> {
    value: T,
    /// The digest [`Shared::digest_with`] computed for `value`, until the
    /// next write.
    digest: DigestMemo,
}

impl<T: Clone> Clone for Inner<T> {
    /// Only `DerefMut` copies an `Inner`, on its way to a write.
    fn clone(&self) -> Self {
        Inner {
            value: self.value.clone(),
            digest: DigestMemo::default(),
        }
    }
}

/// A 128-bit digest in two halves, both zero while nothing is remembered.
///
/// Every replica copy allocates one of these next to the replica, and the
/// benchmark bounds bytes allocated per replay: two words, where a
/// `OnceLock<u128>` takes four and raises the allocation's alignment.
#[derive(Default)]
struct DigestMemo {
    lo: AtomicU64,
    hi: AtomicU64,
}

impl DigestMemo {
    fn get(&self) -> Option<u128> {
        // `Relaxed`: the halves publish nothing but themselves. Each goes
        // from zero to its final value (every writer digests the same
        // value, with the same function), so two non-zero halves are the
        // whole digest; a digest with a zero half is never remembered.
        let lo = self.lo.load(Ordering::Relaxed);
        let hi = self.hi.load(Ordering::Relaxed);
        (lo != 0 && hi != 0).then_some(u128::from(hi) << 64 | u128::from(lo))
    }

    fn set(&self, digest: u128) {
        self.lo.store(digest as u64, Ordering::Relaxed);
        self.hi.store((digest >> 64) as u64, Ordering::Relaxed);
    }
}

impl<T> Shared<T> {
    /// Moves `value` behind a fresh reference count.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(Inner {
            value,
            digest: DigestMemo::default(),
        }))
    }

    /// The digest remembered for the current value, or `compute`'s result —
    /// which the cell then remembers, unless it is `None`. The cell holds
    /// one digest and does not know what produced it: always ask with the
    /// same pure function of the value.
    pub fn digest_with(this: &Self, compute: impl FnOnce() -> Option<u128>) -> Option<u128> {
        let memo = &this.0.digest;
        memo.get().or_else(|| {
            let digest = compute()?;
            memo.set(digest);
            Some(digest)
        })
    }

    /// Whether the two handles still share one value (no write has
    /// separated them). An associated function, like [`Arc::ptr_eq`], so it
    /// cannot shadow a method of `T`.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    fn deref_mut(&mut self) -> &mut T {
        let inner = Arc::make_mut(&mut self.0);
        inner.digest = DigestMemo::default();
        &mut inner.value
    }
}

impl<T: Default> Default for Shared<T> {
    fn default() -> Self {
        Shared::new(T::default())
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.value == other.0.value
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<T: CanonicalEncode> CanonicalEncode for Shared<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.0.value.encode_canonical(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes<T: CanonicalEncode>(value: &T) -> Vec<u8> {
        let mut out = Vec::new();
        value.encode_canonical(&mut out);
        out
    }

    #[test]
    fn clone_shares_until_the_first_write() {
        let mut a = Shared::new(vec![1i64, 2]);
        let b = a.clone();
        assert!(Shared::ptr_eq(&a, &b));
        a.push(3);
        assert!(!Shared::ptr_eq(&a, &b));
        assert_eq!((&*a, &*b), (&vec![1, 2, 3], &vec![1, 2]));
        // `a` is unique again: further writes stay in place.
        let at = a.as_ptr();
        a.push(4);
        assert_eq!(a.as_ptr(), at);
    }

    #[test]
    fn a_shared_read_through_a_mutable_binding_does_not_copy() {
        let mut a = Shared::new(vec![1i64, 2]);
        let b = a.clone();
        let handle = &mut a;
        assert_eq!(handle.len(), 2);
        assert_eq!(handle.first(), Some(&1));
        assert!(
            Shared::ptr_eq(handle, &b),
            "`&self` methods go through Deref"
        );
    }

    #[test]
    fn a_write_through_a_unique_handle_stays_in_place() {
        let mut a = Shared::new(String::from("x"));
        let at: *const String = &*a;
        a.push('y');
        assert_eq!(&*a as *const String, at);
        drop(a.clone());
        a.push('z');
        assert_eq!(&*a as *const String, at, "the clone is gone again");
        assert_eq!(*a, "xyz");
    }

    #[test]
    fn a_digest_is_remembered_until_the_next_write() {
        let digest = |cell: &Shared<Vec<i64>>, calls: &mut u32| {
            Shared::digest_with(cell, || {
                *calls += 1;
                Some(crate::fnv1a128(&bytes(&**cell)))
            })
        };
        let mut calls = 0;
        let mut a = Shared::new(vec![1i64, 2]);
        let first = digest(&a, &mut calls);
        let b = a.clone();
        assert_eq!(digest(&b, &mut calls), first, "a clone shares the digest");
        assert_eq!(calls, 1);
        a.push(3);
        let second = digest(&a, &mut calls);
        assert_ne!(second, first);
        assert_eq!(
            (digest(&b, &mut calls), calls),
            (first, 2),
            "b kept its own"
        );
        // A write through a unique handle forgets it too.
        a.push(4);
        assert_ne!(digest(&a, &mut calls), second);
        assert_eq!(calls, 3);
        // A declined digest is not remembered; neither is one with a zero
        // half, which reads as "nothing yet".
        let c = Shared::new(vec![0i64]);
        assert_eq!(Shared::digest_with(&c, || None), None);
        assert_eq!(Shared::digest_with(&c, || Some(7)), Some(7));
        assert_eq!(Shared::digest_with(&c, || Some(1 << 64)), Some(1 << 64));
        assert_eq!(Shared::digest_with(&c, || Some(u128::MAX)), Some(u128::MAX));
        assert_eq!(Shared::digest_with(&c, || Some(5)), Some(u128::MAX));
    }

    #[test]
    fn equality_debug_and_encoding_are_the_values_own() {
        let a = Shared::new(vec![7i64, 8]);
        let b = Shared::new(vec![7i64, 8]);
        assert!(!Shared::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_ne!(a, Shared::new(vec![7i64]));
        assert_eq!(format!("{a:?}"), format!("{:?}", vec![7i64, 8]));
        assert_eq!(bytes(&a), bytes(&vec![7i64, 8]));
        assert_eq!(Shared::<Vec<i64>>::default(), Shared::new(Vec::new()));
    }
}
