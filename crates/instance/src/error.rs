//! Error types for instance construction and parsing.

use std::fmt;

/// Errors produced while building, generating, or parsing instances.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum InstanceError {
    /// A cost value was `NaN`, infinite, or negative.
    InvalidCost {
        /// The offending value.
        value: f64,
    },
    /// An instance needs at least one facility.
    NoFacilities,
    /// An instance needs at least one client.
    NoClients,
    /// A client has no link to any facility, so no feasible solution exists.
    UnreachableClient {
        /// Index of the client.
        client: usize,
    },
    /// A facility index was out of range.
    FacilityOutOfRange {
        /// The offending index.
        facility: usize,
        /// Number of facilities.
        num_facilities: usize,
    },
    /// A client index was out of range.
    ClientOutOfRange {
        /// The offending index.
        client: usize,
        /// Number of clients.
        num_clients: usize,
    },
    /// The same client/facility link was declared twice.
    DuplicateLink {
        /// Client index.
        client: usize,
        /// Facility index.
        facility: usize,
    },
    /// A generator was configured with impossible parameters.
    InvalidGenerator {
        /// Human-readable reason.
        reason: String,
    },
    /// The text format could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// Every coefficient of the instance is zero, so the multiplicative
    /// machinery (spread, dual raising) is undefined.
    AllZeroCosts,
    /// A delta repriced a link that does not exist.
    MissingLink {
        /// Client index.
        client: usize,
        /// Facility index.
        facility: usize,
    },
    /// Two mutations in one delta batch contradict each other (duplicate
    /// removal, repricing a removed client, repricing the same link twice).
    ConflictingMutation {
        /// Human-readable reason.
        reason: String,
    },
    /// A positive cost lies outside the range instances accept,
    /// [`crate::MIN_POSITIVE_COST`]`..=`[`crate::MAX_COST`].
    CostOutOfRange {
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::InvalidCost { value } => {
                write!(f, "invalid cost {value}: costs must be finite and non-negative")
            }
            InstanceError::NoFacilities => write!(f, "instance has no facilities"),
            InstanceError::NoClients => write!(f, "instance has no clients"),
            InstanceError::UnreachableClient { client } => {
                write!(f, "client {client} has no link to any facility")
            }
            InstanceError::FacilityOutOfRange { facility, num_facilities } => {
                write!(f, "facility index {facility} out of range ({num_facilities} facilities)")
            }
            InstanceError::ClientOutOfRange { client, num_clients } => {
                write!(f, "client index {client} out of range ({num_clients} clients)")
            }
            InstanceError::DuplicateLink { client, facility } => {
                write!(f, "duplicate link between client {client} and facility {facility}")
            }
            InstanceError::InvalidGenerator { reason } => {
                write!(f, "invalid generator configuration: {reason}")
            }
            InstanceError::Parse { line, reason } => {
                write!(f, "parse error at line {line}: {reason}")
            }
            InstanceError::AllZeroCosts => {
                write!(f, "all instance coefficients are zero")
            }
            InstanceError::MissingLink { client, facility } => {
                write!(f, "no link between client {client} and facility {facility}")
            }
            InstanceError::ConflictingMutation { reason } => {
                write!(f, "conflicting mutations in delta batch: {reason}")
            }
            InstanceError::CostOutOfRange { value } => {
                write!(f, "cost {value} out of range: a positive cost must lie in [2^-256, 2^256]")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(InstanceError, &str)> = vec![
            (InstanceError::InvalidCost { value: -1.0 }, "invalid cost"),
            (InstanceError::NoFacilities, "no facilities"),
            (InstanceError::NoClients, "no clients"),
            (InstanceError::UnreachableClient { client: 3 }, "client 3"),
            (
                InstanceError::FacilityOutOfRange { facility: 9, num_facilities: 4 },
                "facility index 9",
            ),
            (InstanceError::ClientOutOfRange { client: 9, num_clients: 4 }, "client index 9"),
            (InstanceError::DuplicateLink { client: 1, facility: 2 }, "duplicate link"),
            (InstanceError::InvalidGenerator { reason: "m=0".into() }, "m=0"),
            (InstanceError::Parse { line: 4, reason: "bad".into() }, "line 4"),
            (InstanceError::AllZeroCosts, "zero"),
            (InstanceError::MissingLink { client: 2, facility: 1 }, "no link"),
            (InstanceError::ConflictingMutation { reason: "dup".into() }, "dup"),
            (InstanceError::CostOutOfRange { value: 1e300 }, "out of range"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn is_send_sync_error() {
        fn check<T: std::error::Error + Send + Sync>() {}
        check::<InstanceError>();
    }
}
