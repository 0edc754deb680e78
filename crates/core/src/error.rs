//! Error type for algorithm execution.

use std::fmt;

use distfl_congest::CongestError;
use distfl_instance::InstanceError;

/// Errors produced while running a facility-location algorithm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The underlying CONGEST simulation failed.
    Congest(CongestError),
    /// The produced solution was rejected by the instance (a bug guard —
    /// algorithms validate their own output).
    Instance(InstanceError),
    /// An algorithm was configured with invalid parameters.
    InvalidParams {
        /// Human-readable reason.
        reason: String,
    },
    /// An algorithm requires a metric instance but the input is not metric.
    RequiresMetric {
        /// The measured metricity defect.
        defect: f64,
    },
    /// The requested solver kind has no warm-start path: sessions must
    /// fall back to a supported kind or a cold solve. This is the typed
    /// boundary `auto`, which could re-route mid-session, presents to the
    /// serve layer's session verbs.
    WarmUnsupported {
        /// Protocol name of the declined solver kind.
        kind: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Congest(e) => write!(f, "congest simulation failed: {e}"),
            CoreError::Instance(e) => write!(f, "instance rejected solution: {e}"),
            CoreError::InvalidParams { reason } => write!(f, "invalid parameters: {reason}"),
            CoreError::RequiresMetric { defect } => {
                write!(f, "algorithm requires a metric instance (defect {defect})")
            }
            CoreError::WarmUnsupported { kind } => {
                write!(f, "solver '{kind}' does not support warm-start sessions")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Congest(e) => Some(e),
            CoreError::Instance(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CongestError> for CoreError {
    fn from(e: CongestError) -> Self {
        CoreError::Congest(e)
    }
}

impl From<InstanceError> for CoreError {
    fn from(e: InstanceError) -> Self {
        CoreError::Instance(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = CongestError::RoundLimit { limit: 3, pending: 1 }.into();
        assert!(e.to_string().contains("round limit"));
        let e: CoreError = InstanceError::NoClients.into();
        assert!(e.to_string().contains("no clients"));
        let e = CoreError::InvalidParams { reason: "phases = 0".into() };
        assert!(e.to_string().contains("phases"));
        let e = CoreError::RequiresMetric { defect: 3.0 };
        assert!(e.to_string().contains("metric"));
        let e = CoreError::WarmUnsupported { kind: "metricball" };
        assert!(e.to_string().contains("warm-start"));
        assert!(e.to_string().contains("metricball"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error as _;
        let e: CoreError = CongestError::RoundLimit { limit: 3, pending: 1 }.into();
        assert!(e.source().is_some());
        let e = CoreError::InvalidParams { reason: "x".into() };
        assert!(e.source().is_none());
    }
}
