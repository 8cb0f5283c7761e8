//! Unified error type for the platform.

use std::fmt;

/// Result alias used across all Saga crates.
pub type Result<T> = std::result::Result<T, SagaError>;

/// Errors surfaced by the Saga platform.
#[derive(Debug)]
pub enum SagaError {
    /// A source payload violated a data-transformer integrity check (§2.2).
    Integrity(String),
    /// Ontology alignment referenced an unknown type or predicate.
    Ontology(String),
    /// An importer could not parse upstream data.
    Import(String),
    /// A KGQ query failed to parse or compile.
    Query(String),
    /// A view definition or the view manager failed.
    View(String),
    /// The operation log or a log follower failed.
    Storage(String),
    /// The serving tier could not satisfy the request *right now* —
    /// freshness wait timed out, no replica within the lag bound, a dead
    /// or silent endpoint, or a read/connect timeout. Unlike
    /// [`Storage`](Self::Storage) this is a *retryable* condition: the
    /// caller (or a network server mapping errors to wire responses) may
    /// safely retry after a backoff.
    Unavailable(String),
    /// Admission control shed the request *before executing it* (job
    /// queue full or the in-flight cap reached). Retryable like
    /// [`Unavailable`](Self::Unavailable) — and because the server
    /// guarantees nothing ran, even non-idempotent requests may be
    /// re-sent. Carries the shedding side's backoff hint (see
    /// [`backoff_hint_ms`](Self::backoff_hint_ms)).
    Overloaded {
        /// Which limit tripped, human-readable.
        message: String,
        /// Suggested minimum backoff before retrying, in milliseconds.
        backoff_hint_ms: u64,
    },
    /// A non-idempotent request (a commit) was sent but its outcome is
    /// unknown: the acknowledgement was lost after the request may have
    /// executed. **Not** retryable — a blind re-send could apply the
    /// batch twice. The caller must reconcile (read back the intended
    /// write, or re-issue only ops that are semantically idempotent).
    MaybeCommitted(String),
    /// An ML component was misconfigured or fed invalid shapes.
    Model(String),
    /// Underlying IO error.
    Io(std::io::Error),
}

impl fmt::Display for SagaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SagaError::Integrity(m) => write!(f, "integrity violation: {m}"),
            SagaError::Ontology(m) => write!(f, "ontology error: {m}"),
            SagaError::Import(m) => write!(f, "import error: {m}"),
            SagaError::Query(m) => write!(f, "query error: {m}"),
            SagaError::View(m) => write!(f, "view error: {m}"),
            SagaError::Storage(m) => write!(f, "storage error: {m}"),
            SagaError::Unavailable(m) => write!(f, "unavailable: {m}"),
            SagaError::Overloaded {
                message,
                backoff_hint_ms,
            } => write!(
                f,
                "overloaded: {message} (retry after {backoff_hint_ms} ms)"
            ),
            SagaError::MaybeCommitted(m) => write!(f, "commit outcome unknown: {m}"),
            SagaError::Model(m) => write!(f, "model error: {m}"),
            SagaError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl SagaError {
    /// True for transient serving-tier conditions a caller may retry
    /// (after a backoff) without changing the request.
    /// [`MaybeCommitted`](Self::MaybeCommitted) is deliberately *not*
    /// retryable: the request may already have executed.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SagaError::Unavailable(_) | SagaError::Overloaded { .. }
        )
    }

    /// The server-suggested minimum backoff before a retry, when the
    /// error carries one ([`Overloaded`](Self::Overloaded) does — the
    /// shedding side knows how congested it is better than the caller's
    /// exponential schedule).
    pub fn backoff_hint_ms(&self) -> Option<u64> {
        match self {
            SagaError::Overloaded {
                backoff_hint_ms, ..
            } => Some(*backoff_hint_ms),
            _ => None,
        }
    }
}

impl std::error::Error for SagaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SagaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SagaError {
    fn from(e: std::io::Error) -> Self {
        SagaError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = SagaError::Integrity("duplicate entity id".into());
        assert_eq!(e.to_string(), "integrity violation: duplicate entity id");
        let q = SagaError::Query("unexpected token".into());
        assert!(q.to_string().starts_with("query error"));
    }

    #[test]
    fn only_transient_serving_conditions_are_retryable() {
        assert!(SagaError::Unavailable("fleet catching up".into()).is_retryable());
        assert!(SagaError::Overloaded {
            message: "queue full".into(),
            backoff_hint_ms: 25,
        }
        .is_retryable());
        assert!(!SagaError::Storage("log corrupt".into()).is_retryable());
        assert!(!SagaError::Query("parse".into()).is_retryable());
        assert!(
            !SagaError::MaybeCommitted("ack lost".into()).is_retryable(),
            "a blind commit retry could double-apply"
        );
        assert!(SagaError::Unavailable("x".into())
            .to_string()
            .starts_with("unavailable"));
    }

    #[test]
    fn overloaded_carries_its_backoff_hint() {
        let e = SagaError::Overloaded {
            message: "in-flight cap".into(),
            backoff_hint_ms: 40,
        };
        assert_eq!(e.backoff_hint_ms(), Some(40));
        assert!(e.to_string().contains("40 ms"), "{e}");
        assert_eq!(
            SagaError::Unavailable("x".into()).backoff_hint_ms(),
            None,
            "only the shedding side hints"
        );
        let m = SagaError::MaybeCommitted("recv failed after send".into());
        assert!(m.to_string().starts_with("commit outcome unknown"));
    }

    #[test]
    fn io_errors_are_wrapped_with_source() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: SagaError = io.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }
}
