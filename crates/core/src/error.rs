//! Core error type.

use std::fmt;

use svr_storage::StorageError;

use crate::types::DocId;

/// Errors surfaced by index operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// Referenced a document the index does not know.
    UnknownDocument(DocId),
    /// A document with this id already exists (insert).
    DuplicateDocument(DocId),
    /// Scores must be non-negative finite numbers (§4.1).
    InvalidScore(f64),
    /// The operation is not supported by this method.
    Unsupported(&'static str),
    /// An [`IndexConfig`](crate::IndexConfig) value is out of range (see
    /// [`IndexConfig::validate`](crate::IndexConfig::validate)).
    InvalidConfig(&'static str),
    /// A suspended cursor's candidate pool outgrew the configured cap
    /// (`IndexConfig::cursor_pool_cap`) and the cursor was evicted. The
    /// enumeration cannot continue; re-open the cursor (or raise the cap).
    CursorEvicted {
        /// The cap that was exceeded.
        cap: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::UnknownDocument(d) => write!(f, "unknown document {d}"),
            CoreError::DuplicateDocument(d) => write!(f, "document {d} already exists"),
            CoreError::InvalidScore(s) => write!(f, "invalid score {s}: must be finite and >= 0"),
            CoreError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            CoreError::InvalidConfig(what) => write!(f, "invalid index configuration: {what}"),
            CoreError::CursorEvicted { cap } => write!(
                f,
                "cursor evicted: candidate pool exceeded {cap} entries; re-open the cursor"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Validate that a score is usable (finite, non-negative) and return it
/// with `-0.0` turned into `+0.0`: a stored score's bit pattern must order
/// like its value (see `ScoreTable::max_score_bound`).
pub fn check_score(score: f64) -> Result<f64> {
    if score.is_finite() && score >= 0.0 {
        // `-0.0 == 0.0`, so this also drops the sign of a negative zero.
        Ok(if score == 0.0 { 0.0 } else { score })
    } else {
        Err(CoreError::InvalidScore(score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_validation() {
        assert_eq!(check_score(0.0), Ok(0.0));
        assert_eq!(check_score(123.5), Ok(123.5));
        assert_eq!(check_score(-0.0).unwrap().to_bits(), 0.0f64.to_bits());
        assert!(check_score(-1.0).is_err());
        assert!(check_score(f64::NAN).is_err());
        assert!(check_score(f64::INFINITY).is_err());
    }

    #[test]
    fn error_display() {
        assert!(CoreError::UnknownDocument(DocId(7))
            .to_string()
            .contains('7'));
        assert!(CoreError::from(StorageError::BadBlobHandle)
            .to_string()
            .contains("storage"));
    }
}
