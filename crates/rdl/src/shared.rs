//! A copy-on-write cell: the structural sharing replica states are
//! snapshotted through.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use er_pi_model::CanonicalEncode;

/// A value behind a reference count: `clone` is a pointer bump, and the
/// first write through a handle that shares its value copies it.
///
/// A replay engine snapshots every replica at every step but an event writes
/// one of them, so a subject model declares `type State = Shared<Replica>`:
/// a snapshot of `N` replicas is then `N` pointer bumps, and the step after
/// it copies only the replica it touches. Reads and writes go through
/// `Deref` / `DerefMut`, so `state.field` and `state.field.push(x)` compile
/// as they would on the bare struct; a `&self` method called through a
/// `&mut` binding resolves to `Deref` and copies nothing.
///
/// The engine also resets its replicas to a snapshot before every run, with
/// `clone_from`, and each reset would free the copies the last run's writes
/// made. So a handle keeps one of them: `clone_from` *retires* the value it
/// displaces when no other handle holds it, and the next write through a
/// handle that shares its value copies that value into the retired one with
/// `T::clone_from` — which for the structures of this crate touches only
/// what the two differ in — instead of allocating a fresh copy
/// ([`Arc::make_mut`]). A handle retires at most one value, `clone` leaves
/// it behind, and a write through a handle that holds its value alone stays
/// in place.
///
/// Two handles are *observationally* independent: nothing done through one
/// can be seen through the other. Equality, `Debug` and the canonical
/// encoding are the value's own; a retired value takes part in none of them.
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
///
/// // A reset to `b` retires `a`'s copy, and the next write reuses it.
/// let copy: *const Vec<i32> = &*a;
/// a.clone_from(&b);
/// assert!(Shared::ptr_eq(&a, &b));
/// a.push(4);
/// assert_eq!((&*a, &*b, &*a as *const _), (&vec![1, 2, 4], &vec![1, 2], copy));
/// ```
pub struct Shared<T> {
    live: Arc<Inner<T>>,
    /// A value this handle displaced while it held it alone, kept for the
    /// next copy to write into. No other handle ever sees it.
    retired: Option<Arc<Inner<T>>>,
}

struct Inner<T> {
    value: T,
    /// The digest [`Shared::digest_with`] computed for `value`, until the
    /// next write.
    digest: DigestMemo,
}

impl<T: Clone> Clone for Inner<T> {
    /// Only `DerefMut` copies an `Inner`, on its way to a write, when the
    /// handle has no retired value to copy into.
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
        Shared {
            live: Arc::new(Inner {
                value,
                digest: DigestMemo::default(),
            }),
            retired: None,
        }
    }

    /// The digest remembered for the current value, or `compute`'s result —
    /// which the cell then remembers, unless it is `None`. The cell holds
    /// one digest and does not know what produced it: always ask with the
    /// same pure function of the value.
    pub fn digest_with(this: &Self, compute: impl FnOnce() -> Option<u128>) -> Option<u128> {
        let memo = &this.live.digest;
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
        Arc::ptr_eq(&a.live, &b.live)
    }
}

impl<T> Clone for Shared<T> {
    /// Another handle on the value; the retired value stays behind.
    fn clone(&self) -> Self {
        Shared {
            live: Arc::clone(&self.live),
            retired: None,
        }
    }

    /// Points this handle at `source`'s value. The value it held is
    /// retired if nothing else holds it (replacing any value retired
    /// before), so the next write through this handle copies into it.
    fn clone_from(&mut self, source: &Self) {
        if Shared::ptr_eq(self, source) {
            return;
        }
        let mut displaced = std::mem::replace(&mut self.live, Arc::clone(&source.live));
        if Arc::get_mut(&mut displaced).is_some() {
            self.retired = Some(displaced);
        }
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.live.value
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    /// Copies into the retired value only when the live one is shared. No
    /// handle ever makes a `Weak`, so a strong count of one means this
    /// handle holds its value alone, and no other can start sharing it
    /// meanwhile: the write then stays in place behind one atomic
    /// read-modify-write (`make_mut`'s) and keeps the spare.
    fn deref_mut(&mut self) -> &mut T {
        if self.retired.is_some() && Arc::strong_count(&self.live) > 1 {
            if let Some(mut spare) = self.retired.take() {
                let copy = Arc::get_mut(&mut spare).expect("no other handle sees a retired value");
                copy.value.clone_from(&self.live.value);
                self.live = spare;
            }
        }
        let inner = Arc::make_mut(&mut self.live);
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
        self.live.value == other.live.value
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.live.value.fmt(f)
    }
}

impl<T: CanonicalEncode> CanonicalEncode for Shared<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.live.value.encode_canonical(out);
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
    fn a_retired_value_is_the_handles_own_and_shows_nowhere() {
        let base = Shared::new(vec![1i64]);
        let base_digest = Shared::digest_with(&base, || Some(crate::fnv1a128(&bytes(&base))));
        let mut a = base.clone();
        a.push(2);
        let spare: *const Vec<i64> = &*a;
        a.clone_from(&base);
        // Equality, `Debug`, the encoding and the digest memo are the live
        // value's: `a` answers with `base`'s remembered digest.
        assert_eq!(
            (&a, format!("{a:?}"), bytes(&a)),
            (&base, format!("{base:?}"), bytes(&base))
        );
        assert_eq!(Shared::digest_with(&a, || None), base_digest);
        // A clone leaves it behind: the clone's first write copies afresh.
        let mut b = a.clone();
        b.push(3);
        assert_ne!(&*b as *const Vec<i64>, spare);
        // A value the handle shares on reset is not retired; one it holds
        // alone is, in place of the one retired before.
        let mut c = a.clone();
        c.push(4);
        c.clone_from(&base);
        let other = Shared::new(vec![7i64]);
        let newer: *const Vec<i64> = &*other;
        c.clone_from(&other);
        drop(other);
        c.clone_from(&base);
        c.push(5);
        assert_eq!((&*c as *const Vec<i64>, &*c), (newer, &vec![1, 5]));
        // The write forgot the digest `c` shared with `base`.
        assert_eq!(Shared::digest_with(&c, || None), None);
        a.push(6);
        assert_eq!(&*a as *const Vec<i64>, spare);
        assert_eq!((&*base, &*a, &*b), (&vec![1], &vec![1, 6], &vec![1, 3]));
    }

    /// A handle holding its value alone and a retired one besides: the
    /// write stays in the live value, and the spare stays for later.
    #[test]
    fn a_unique_handle_with_a_retired_value_writes_in_place_and_keeps_its_spare() {
        let base = Shared::new(vec![1i64]);
        let mut a = base.clone();
        a.push(2);
        let spare: *const Inner<Vec<i64>> = Arc::as_ptr(&a.live);
        a.clone_from(&Shared::new(vec![9i64]));
        assert_eq!(a.retired.as_ref().map(Arc::as_ptr), Some(spare));
        let live: *const Inner<Vec<i64>> = Arc::as_ptr(&a.live);
        a.push(10);
        assert_eq!(Arc::as_ptr(&a.live), live, "written in place");
        assert_eq!(
            a.retired.as_ref().map(Arc::as_ptr),
            Some(spare),
            "spare kept"
        );
        assert_eq!((&*a, &*base), (&vec![9, 10], &vec![1]));
    }

    /// A handle sharing its value with another and holding a retired one:
    /// the write copies into the spare, which becomes the live value.
    #[test]
    fn a_shared_handle_with_a_retired_value_copies_into_the_spare() {
        let base = Shared::new(vec![1i64, 2]);
        let mut a = base.clone();
        a.push(3);
        let spare: *const Inner<Vec<i64>> = Arc::as_ptr(&a.live);
        a.clone_from(&base);
        assert!(Shared::ptr_eq(&a, &base));
        a.push(4);
        assert_eq!(Arc::as_ptr(&a.live), spare, "the copy went into the spare");
        assert!(a.retired.is_none(), "the spare is live now");
        assert_eq!((&*a, &*base), (&vec![1, 2, 4], &vec![1, 2]));
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
