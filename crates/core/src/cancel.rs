//! Cooperative cancellation for replay campaigns.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag threaded through a replay campaign.
///
/// Cancellation is *cooperative*: replay slots poll the token between
/// claimed chunks, and the merge looks at it once more — a chunk that has
/// already been claimed executes to completion, and a token tripped after
/// the last claim still cancels. A cancelled campaign surfaces as
/// [`ErPiError::Cancelled`](crate::ErPiError::Cancelled) and discards its
/// partial results; co-scheduled campaigns on a shared
/// [`ExecutorService`](crate::ExecutorService) are unaffected.
///
/// Tokens are cheap to clone (an `Arc` around one atomic) and safe to
/// trip from any thread — the campaign server's `DELETE /campaigns/:id`
/// handler does exactly that.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_is_visible_through_clones() {
        let token = CancelToken::new();
        let seen_by_worker = token.clone();
        assert!(!seen_by_worker.is_cancelled());
        token.cancel();
        assert!(seen_by_worker.is_cancelled());
        token.cancel(); // idempotent
        assert!(token.is_cancelled());
    }
}
