//! The crate's error type.

use std::fmt;

/// Errors surfaced by the ER-π middleware.
#[derive(Debug)]
pub enum ErPiError {
    /// `replay` was called before `record`.
    NothingRecorded,
    /// The recorded workload is malformed.
    Workload(er_pi_model::WorkloadError),
    /// A constraints file could not be read or parsed.
    Constraints {
        /// Offending file path.
        path: std::path::PathBuf,
        /// Underlying cause.
        cause: String,
    },
    /// A replay worker of the campaign panicked. The panic is contained:
    /// the session stays usable and partial results are discarded.
    ExecutorPanic(String),
    /// The campaign was cancelled through its [`CancelToken`] before
    /// exploration finished. Partial results are discarded; the session
    /// stays usable.
    ///
    /// [`CancelToken`]: crate::CancelToken
    Cancelled,
}

impl fmt::Display for ErPiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErPiError::NothingRecorded => {
                f.write_str("no workload recorded: call Session::record before replay")
            }
            ErPiError::Workload(e) => write!(f, "invalid workload: {e}"),
            ErPiError::Constraints { path, cause } => {
                write!(f, "constraints file {}: {cause}", path.display())
            }
            ErPiError::ExecutorPanic(what) => write!(f, "replay worker panicked: {what}"),
            ErPiError::Cancelled => f.write_str("campaign cancelled before replay finished"),
        }
    }
}

impl std::error::Error for ErPiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ErPiError::Workload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<er_pi_model::WorkloadError> for ErPiError {
    fn from(e: er_pi_model::WorkloadError) -> Self {
        ErPiError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ErPiError::NothingRecorded.to_string().contains("record"));
        let e = ErPiError::Constraints {
            path: "/tmp/x.json".into(),
            cause: "bad json".into(),
        };
        assert!(e.to_string().contains("/tmp/x.json"));
        assert!(e.to_string().contains("bad json"));
    }
}
