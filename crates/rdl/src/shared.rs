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
/// made. So a handle keeps them: `clone_from` *retires* the value it
/// displaces when no other handle holds it, and the next write through a
/// handle that shares its value copies that value into a retired one with
/// `T::clone_from` — which for the structures of this crate touches only
/// what the two differ in — instead of allocating a fresh copy
/// ([`Arc::make_mut`]). One spare is not enough: a run can copy a replica
/// twice, once after the reset and again after a snapshot shares the copy,
/// while a reset that follows no write retires a value nothing used. A
/// handle keeps two, and when both are held a newly displaced value
/// replaces the newer of them. `clone` leaves the spares behind, and a
/// write through a handle that holds its value alone stays in place and
/// keeps them.
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
    /// Values this handle displaced while it held them alone, kept for the
    /// next copies to write into: the first is used first, and the second
    /// is held only beside a first. No other handle ever sees one.
    retired: [Option<Arc<Inner<T>>>; 2],
}

struct Inner<T> {
    value: T,
    /// The digest [`Shared::digest_with`] computed for `value`, until the
    /// next write.
    digest: DigestMemo,
}

impl<T: Clone> Clone for Inner<T> {
    /// Only `DerefMut` copies an `Inner`, on its way to a write, when the
    /// handle has no retired value left to copy into.
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
            retired: [None, None],
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
    /// Another handle on the value; the retired values stay behind.
    fn clone(&self) -> Self {
        Shared {
            live: Arc::clone(&self.live),
            retired: [None, None],
        }
    }

    /// Points this handle at `source`'s value. The value it held is
    /// retired if nothing else holds it, into the first free slot, or over
    /// the newer spare when both are held; a later write through this
    /// handle copies into it.
    fn clone_from(&mut self, source: &Self) {
        if Shared::ptr_eq(self, source) {
            return;
        }
        let mut displaced = std::mem::replace(&mut self.live, Arc::clone(&source.live));
        if Arc::get_mut(&mut displaced).is_some() {
            let [first, second] = &mut self.retired;
            let slot = if first.is_none() { first } else { second };
            *slot = Some(displaced);
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
    /// Copies into the first retired value only when the live one is
    /// shared, and the second takes its slot. No handle ever makes a
    /// `Weak`, so a strong count of one means this handle holds its value
    /// alone, and no other can start sharing it meanwhile: the write then
    /// stays in place behind one atomic read-modify-write (`make_mut`'s) and
    /// keeps the spares.
    fn deref_mut(&mut self) -> &mut T {
        if self.retired[0].is_some() && Arc::strong_count(&self.live) > 1 {
            if let Some(mut spare) = self.retired[0].take() {
                let copy = Arc::get_mut(&mut spare).expect("no other handle sees a retired value");
                copy.value.clone_from(&self.live.value);
                self.live = spare;
                self.retired.swap(0, 1);
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

    /// The cells a handle keeps as spares, first slot first.
    fn spares<T>(cell: &Shared<T>) -> [Option<*const Inner<T>>; 2] {
        cell.retired
            .each_ref()
            .map(|spare| spare.as_ref().map(Arc::as_ptr))
    }

    /// Where a `Vec` cell's value and its buffer live: a copy that writes
    /// into a spare without a block leaves both where the spare had them.
    type Place = (*const Inner<Vec<i64>>, *const i64);

    fn place(cell: &Shared<Vec<i64>>) -> Place {
        (Arc::as_ptr(&cell.live), cell.as_ptr())
    }

    /// `base` shared with a handle that retired two values, `first` then
    /// `second`, each held alone when it was displaced.
    fn with_two_spares(base: &Shared<Vec<i64>>) -> (Shared<Vec<i64>>, [Place; 2]) {
        let mut a = base.clone();
        a.push(2);
        let first = place(&a);
        a.clone_from(&Shared::new(vec![7i64, 8, 9]));
        let second = place(&a);
        a.clone_from(base);
        assert!(Shared::ptr_eq(&a, base));
        assert_eq!(spares(&a), [Some(first.0), Some(second.0)]);
        (a, [first, second])
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
        // alone is, beside the one retired before.
        let mut c = a.clone();
        c.push(4);
        let older: *const Vec<i64> = &*c;
        c.clone_from(&base);
        let other = Shared::new(vec![7i64]);
        let newer: *const Vec<i64> = &*other;
        c.clone_from(&other);
        drop(other);
        c.clone_from(&base);
        c.push(5);
        assert_eq!((&*c as *const Vec<i64>, &*c), (older, &vec![1, 5]));
        // The write forgot the digest `c` shared with `base`.
        assert_eq!(Shared::digest_with(&c, || None), None);
        let snapshot = c.clone();
        c.push(6);
        assert_eq!((&*c as *const Vec<i64>, &*c), (newer, &vec![1, 5, 6]));
        a.push(6);
        assert_eq!(&*a as *const Vec<i64>, spare);
        assert_eq!(
            (&*base, &*a, &*b, &*snapshot),
            (&vec![1], &vec![1, 6], &vec![1, 3], &vec![1, 5])
        );
    }

    /// Both displaced values are kept, and the next two copies through a
    /// shared handle go into them, cell and buffer, without a block.
    #[test]
    fn two_retired_values_take_the_next_two_copies() {
        let base = Shared::new(vec![1i64]);
        let (mut a, [first, second]) = with_two_spares(&base);
        a.push(3);
        assert_eq!(place(&a), first, "the first copy went into the older spare");
        assert_eq!(spares(&a), [Some(second.0), None], "the newer one moved up");
        let snapshot = a.clone();
        a.push(4);
        assert_eq!(
            place(&a),
            second,
            "the second copy went into the newer spare"
        );
        assert_eq!(spares(&a), [None, None]);
        assert_eq!(
            (&*base, &*snapshot, &*a),
            (&vec![1], &vec![1, 3], &vec![1, 3, 4])
        );
        // With no spare left the next copy is a fresh one.
        let snapshot = a.clone();
        a.push(5);
        assert!(![first.0, second.0].contains(&Arc::as_ptr(&a.live)));
        assert_eq!((&*snapshot, &*a), (&vec![1, 3, 4], &vec![1, 3, 4, 5]));
    }

    /// A third value displaced while two are kept takes the newer one's
    /// slot: a handle never holds more than two.
    #[test]
    fn a_third_retired_value_keeps_two_spares() {
        let base = Shared::new(vec![1i64]);
        let (mut a, [first, _]) = with_two_spares(&base);
        a.clone_from(&Shared::new(vec![5i64]));
        let third = place(&a);
        a.clone_from(&base);
        assert_eq!(spares(&a), [Some(first.0), Some(third.0)]);
        a.push(6);
        assert_eq!(place(&a).0, first.0);
        assert_eq!(spares(&a), [Some(third.0), None]);
        assert_eq!((&*base, &*a), (&vec![1], &vec![1, 6]));
    }

    /// A clone of a handle holding two spares holds none: its first write
    /// copies afresh, and the original's spares stay where they were.
    #[test]
    fn a_clone_leaves_the_spares_behind() {
        let base = Shared::new(vec![1i64]);
        let (a, [first, second]) = with_two_spares(&base);
        let mut b = a.clone();
        assert_eq!(spares(&b), [None, None]);
        b.push(2);
        assert!(![first.0, second.0].contains(&Arc::as_ptr(&b.live)));
        assert_eq!(spares(&a), [Some(first.0), Some(second.0)]);
        assert_eq!((&*base, &*a, &*b), (&vec![1], &vec![1], &vec![1, 2]));
    }

    /// A handle holding its value alone and two retired ones besides: the
    /// write stays in the live value, and both spares stay for later.
    #[test]
    fn a_unique_write_keeps_both_spares() {
        let base = Shared::new(vec![1i64]);
        let (mut a, [first, second]) = with_two_spares(&base);
        a.clone_from(&Shared::new(vec![9i64]));
        let live = Arc::as_ptr(&a.live);
        a.push(10);
        assert_eq!(Arc::as_ptr(&a.live), live, "written in place");
        assert_eq!(spares(&a), [Some(first.0), Some(second.0)], "spares kept");
        assert_eq!((&*a, &*base), (&vec![9, 10], &vec![1]));
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
