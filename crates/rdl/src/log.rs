//! An append-only log whose items are shared, not copied.

use std::fmt;
use std::sync::Arc;

use er_pi_model::CanonicalEncode;
use serde::{Content, DeError, Deserialize, Serialize};

use crate::clone_handles_from;

/// An append-only sequence of reference-counted items: the op log of every
/// delta type in this crate.
///
/// A replay engine copies a replica on the first write after each snapshot
/// ([`Shared`](crate::Shared)), and a replica's op log is the part of it
/// that only ever grows. So the log holds each item behind its own
/// reference count: `clone` allocates **one block** — the array of handles
/// — however long the history and whatever the items own, and a push after
/// it writes the copy's array and nothing the two logs share. The same
/// handle is what [`DeltaSync::missing_since`](crate::DeltaSync) ships and
/// what the receiver's log keeps, so an operation is allocated once, where
/// it was issued, for every replica and every snapshot that ever holds it.
///
/// `clone_from` over another version of the same history keeps the handles
/// the two share and touches only the ones after them
/// ([`clone_handles_from`]): a replica reset to a snapshot, and then copied
/// into the stale copy it displaced, copies the few operations it differs
/// in — no block at all when that copy has room.
///
/// A log that nothing shares pushes in place, like a `Vec`. Equality,
/// `Debug`, the canonical encoding and serde are those of a `Vec<T>` with
/// the same items.
///
/// ```
/// use er_pi_rdl::Log;
///
/// let mut a = Log::new();
/// a.push("add x");
/// a.push("add y");
/// let mut b = a.clone(); // one block; both items shared
/// b.push("remove x");
/// a.push("add z");
/// assert!(a.iter().eq(&["add x", "add y", "add z"]));
/// assert!(b.iter().eq(&["add x", "add y", "remove x"]));
/// // The common history is the same two allocations in both.
/// assert!(a.shared().zip(b.shared()).take(2).all(|(x, y)| std::sync::Arc::ptr_eq(x, y)));
/// ```
#[derive(PartialEq, Eq)]
pub struct Log<T> {
    items: Vec<Arc<T>>,
}

impl<T> Log<T> {
    /// Creates an empty log; allocates nothing until the first push.
    pub fn new() -> Self {
        Log { items: Vec::new() }
    }

    /// Appends `item` behind a new reference count (the one block a push
    /// allocates beyond what a `Vec` would) and returns the log's handle.
    pub fn push(&mut self, item: T) -> &Arc<T> {
        self.push_shared(Arc::new(item))
    }

    /// Appends an item some other log, delta or index already holds: both
    /// then hold the same allocation. Returns the log's handle.
    pub fn push_shared(&mut self, item: Arc<T>) -> &Arc<T> {
        self.items.push(item);
        self.items.last().expect("just pushed")
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The most recently pushed item.
    pub fn last(&self) -> Option<&T> {
        self.items.last().map(|item| &**item)
    }

    /// The items in insertion order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + ExactSizeIterator {
        self.items.iter().map(|item| &**item)
    }

    /// The handles in insertion order: clone one to put its item into
    /// another log, a delta or an index without copying the item.
    pub fn shared(&self) -> std::slice::Iter<'_, Arc<T>> {
        self.items.iter()
    }
}

impl<T> Default for Log<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Clone for Log<T> {
    /// One block, with room for one more handle: a copy is made on the way
    /// to a write, and a log's write is a push. An empty log stays
    /// unallocated; its first push sizes it as `Vec` sizes any other.
    fn clone(&self) -> Self {
        let mut items = Vec::new();
        if !self.items.is_empty() {
            items.reserve_exact(self.items.len() + 1);
            items.extend(self.items.iter().cloned());
        }
        Log { items }
    }

    /// Keeps the leading handles the two logs share and replaces the rest,
    /// leaving room for one more handle, like `clone`: no block if the log
    /// already had that room.
    fn clone_from(&mut self, source: &Self) {
        let Log { items } = source;
        if !items.is_empty() {
            let room = (items.len() + 1).saturating_sub(self.items.len());
            self.items.reserve_exact(room);
        }
        clone_handles_from(&mut self.items, items);
    }
}

impl<T: fmt::Debug> fmt::Debug for Log<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: CanonicalEncode> CanonicalEncode for Log<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.items.encode_canonical(out);
    }
}

// The vendored serde stand-in serializes an `Arc` but cannot deserialize
// one: a sequence, by hand.
impl<T: Serialize> Serialize for Log<T> {
    fn to_content(&self) -> Content {
        self.items.to_content()
    }
}

impl<T: Deserialize> Deserialize for Log<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Seq(items) => items
                .iter()
                .map(|item| T::from_content(item).map(Arc::new))
                .collect::<Result<_, _>>()
                .map(|items| Log { items }),
            _ => Err(DeError::expected("sequence", "Log")),
        }
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
    fn a_clone_shares_every_item_and_diverges_on_push() {
        let mut a = Log::new();
        a.push("one".to_owned());
        a.push("two".to_owned());
        let mut b = a.clone();
        assert_eq!(a, b);
        assert!(a.shared().zip(b.shared()).all(|(x, y)| Arc::ptr_eq(x, y)));
        b.push("three".to_owned());
        assert_eq!((a.len(), b.len()), (2, 3));
        assert_eq!(b.last().map(String::as_str), Some("three"));
        assert_eq!(a.last().map(String::as_str), Some("two"));
        assert_ne!(a, b);
        assert!(a.iter().eq(b.iter().take(2)));
    }

    #[test]
    fn a_copy_over_a_stale_log_keeps_the_shared_handles_and_its_block() {
        let mut base = Log::new();
        base.push("one".to_owned());
        let mut a = base.clone();
        a.push("two".to_owned());
        let mut stale = base.clone();
        stale.push("other".to_owned());
        stale.push("another".to_owned());
        let block = stale.items.as_ptr();
        stale.clone_from(&a);
        assert_eq!(stale, a);
        assert!(stale
            .shared()
            .zip(a.shared())
            .all(|(x, y)| Arc::ptr_eq(x, y)));
        assert_eq!(stale.items.as_ptr(), block, "no new block");
        assert!(stale.items.capacity() > stale.len(), "room for a push");
        let mut empty = Log::<String>::new();
        empty.clone_from(&Log::new());
        assert_eq!(empty.items.capacity(), 0);
    }

    #[test]
    fn a_pushed_handle_is_the_same_allocation_in_both_logs() {
        let mut a = Log::new();
        let handle = Arc::clone(a.push(7i64));
        let mut b = Log::new();
        b.push_shared(handle);
        assert!(Arc::ptr_eq(
            a.shared().next().unwrap(),
            b.shared().next().unwrap()
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn equality_debug_encoding_and_serde_are_a_vecs() {
        let plain = vec!["x".to_owned(), "y".to_owned()];
        let mut log = Log::new();
        for item in &plain {
            log.push(item.clone());
        }
        let mut rebuilt = Log::new();
        for item in &plain {
            rebuilt.push(item.clone());
        }
        assert_eq!(log, rebuilt, "equal by value, not by allocation");
        assert_eq!(format!("{log:?}"), format!("{plain:?}"));
        assert_eq!(bytes(&log), bytes(&plain));
        assert_eq!(log.to_content(), plain.to_content());
        let back = Log::<String>::from_content(&plain.to_content()).unwrap();
        assert_eq!(back, log);
        assert!(Log::<String>::from_content(&Content::Null).is_err());
        assert_eq!(
            bytes(&Log::<String>::default()),
            bytes(&Vec::<String>::new())
        );
    }
}
