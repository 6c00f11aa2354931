//! Errors of the core engine.

use std::fmt;

/// A failure of an [`crate::AtomicProvider`] call, as surfaced through the
/// fallible `try_*` provider methods.
///
/// The transient/permanent split drives the resilience layer: transient
/// failures (a flaky backend, an injected fault, a timed-out call) are
/// worth retrying; permanent ones (a malformed atomic unit) are not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProviderError {
    /// A failure that may succeed on retry.
    Transient(String),
    /// A failure that will repeat identically on every attempt.
    Permanent(String),
}

impl ProviderError {
    /// Whether a retry could plausibly succeed.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, ProviderError::Transient(_))
    }
}

impl fmt::Display for ProviderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProviderError::Transient(why) => write!(f, "transient provider failure: {why}"),
            ProviderError::Permanent(why) => write!(f, "permanent provider failure: {why}"),
        }
    }
}

impl std::error::Error for ProviderError {}

/// Errors raised while constructing similarity lists or evaluating formulas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Two entries of a similarity list overlap.
    OverlappingEntries,
    /// An entry's actual similarity exceeds the list maximum.
    ActAboveMax,
    /// The formula falls outside the extended conjunctive class the engine
    /// supports (contains negation, unbound variables, or a non-prefix
    /// existential quantifier with temporal scope).
    UnsupportedFormula(String),
    /// A level modal operator names a level that does not exist or does not
    /// lie below the current one.
    BadLevel(String),
    /// Tables being joined disagree on structure (internal invariant).
    TableMismatch(String),
    /// The atomic provider gave up after exhausting retries on a transient
    /// failure. Degradable: a partial answer with sound upper bounds can
    /// still be returned.
    ProviderGaveUp(String),
    /// The atomic provider rejected the call permanently (e.g. a malformed
    /// atomic unit). Not degradable — retrying or degrading cannot help.
    ProviderRejected(String),
    /// The request's wall-clock deadline expired mid-evaluation.
    DeadlineExceeded,
    /// The request's work budget (fuel) ran out mid-evaluation.
    BudgetExhausted,
    /// The request was cancelled cooperatively.
    Cancelled,
    /// Evaluation panicked (in the provider or the engine itself); the
    /// panic was captured at the engine's entry point and surfaced as a
    /// typed error instead of unwinding through the caller.
    WorkerPanic(String),
    /// Every replica of a shard was exhausted (failed, skipped by an open
    /// breaker, or gave up) — the replicated read has no copy left to
    /// serve from. Degradable: the shard's contribution is bounded exactly
    /// as a single failed shard's is.
    ReplicasExhausted(String),
    /// The serving layer shed the request at admission: the executor queue
    /// was saturated and the admission policy chose rejection over
    /// blocking. Not degradable — the request was never evaluated, so
    /// there is no partial answer to certify; callers retry elsewhere.
    Overloaded(String),
}

impl EngineError {
    /// Whether the error is *degradable*: evaluation was interrupted (by a
    /// budget, a transient provider give-up, or a captured panic) rather
    /// than rejected, so a [`crate::DegradedAnswer`] with sound upper
    /// bounds can stand in for the complete result.
    #[must_use]
    pub fn is_degradable(&self) -> bool {
        matches!(
            self,
            EngineError::ProviderGaveUp(_)
                | EngineError::DeadlineExceeded
                | EngineError::BudgetExhausted
                | EngineError::Cancelled
                | EngineError::WorkerPanic(_)
                | EngineError::ReplicasExhausted(_)
        )
    }
}

impl From<ProviderError> for EngineError {
    fn from(e: ProviderError) -> EngineError {
        match e {
            ProviderError::Transient(why) => EngineError::ProviderGaveUp(why),
            ProviderError::Permanent(why) => EngineError::ProviderRejected(why),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::OverlappingEntries => {
                write!(f, "similarity list entries overlap")
            }
            EngineError::ActAboveMax => {
                write!(f, "entry actual similarity exceeds the list maximum")
            }
            EngineError::UnsupportedFormula(why) => {
                write!(f, "formula not in the extended conjunctive class: {why}")
            }
            EngineError::BadLevel(why) => write!(f, "bad level modality: {why}"),
            EngineError::TableMismatch(why) => write!(f, "table mismatch: {why}"),
            EngineError::ProviderGaveUp(why) => {
                write!(f, "provider gave up after retries: {why}")
            }
            EngineError::ProviderRejected(why) => {
                write!(f, "provider rejected the call: {why}")
            }
            EngineError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            EngineError::BudgetExhausted => write!(f, "request work budget exhausted"),
            EngineError::Cancelled => write!(f, "request cancelled"),
            EngineError::WorkerPanic(why) => write!(f, "evaluation worker panicked: {why}"),
            EngineError::ReplicasExhausted(why) => {
                write!(f, "every replica of the shard is exhausted: {why}")
            }
            EngineError::Overloaded(why) => write!(f, "request shed under overload: {why}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(EngineError::OverlappingEntries
            .to_string()
            .contains("overlap"));
        assert!(EngineError::UnsupportedFormula("negation".into())
            .to_string()
            .contains("negation"));
        assert!(EngineError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(EngineError::WorkerPanic("boom".into())
            .to_string()
            .contains("boom"));
    }

    #[test]
    fn degradable_classification() {
        assert!(EngineError::ProviderGaveUp("flaky".into()).is_degradable());
        assert!(EngineError::DeadlineExceeded.is_degradable());
        assert!(EngineError::BudgetExhausted.is_degradable());
        assert!(EngineError::Cancelled.is_degradable());
        assert!(EngineError::WorkerPanic("boom".into()).is_degradable());
        assert!(EngineError::ReplicasExhausted("all dead".into()).is_degradable());
        assert!(!EngineError::Overloaded("queue full".into()).is_degradable());
        assert!(!EngineError::ProviderRejected("bad unit".into()).is_degradable());
        assert!(!EngineError::UnsupportedFormula("neg".into()).is_degradable());
        assert!(!EngineError::OverlappingEntries.is_degradable());
    }

    #[test]
    fn provider_error_conversion() {
        assert_eq!(
            EngineError::from(ProviderError::Transient("t".into())),
            EngineError::ProviderGaveUp("t".into())
        );
        assert_eq!(
            EngineError::from(ProviderError::Permanent("p".into())),
            EngineError::ProviderRejected("p".into())
        );
        assert!(ProviderError::Transient("t".into()).is_transient());
        assert!(!ProviderError::Permanent("p".into()).is_transient());
    }
}
