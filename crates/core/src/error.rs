//! Error types for tree-construction algorithms.

use core::fmt;

use omt_tree::TreeError;

/// Errors raised by the algorithm builders in this crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The requested out-degree budget is below the algorithm's minimum
    /// (every algorithm in the paper needs at least 2).
    DegreeTooSmall {
        /// The requested budget.
        got: u32,
        /// The smallest budget the algorithm supports.
        min: u32,
    },
    /// An input point has a NaN or infinite coordinate.
    NonFinitePoint {
        /// Index of the offending point.
        index: usize,
    },
    /// The multicast source position has a NaN or infinite coordinate.
    NonFiniteSource,
    /// A point's coordinates are finite, but its distance from the source
    /// (or the covering radius the grid pads above it) overflows `f64` —
    /// e.g. a source at `(1e308, 0)` and a point at `(-1e308, 0)`.
    CoordinateOverflow {
        /// Index of the offending point.
        index: usize,
    },
    /// A host id passed to a dynamic-membership operation does not name a
    /// live host — it was never issued by this overlay or the host has
    /// already departed.
    UnknownHost {
        /// The raw id value, for diagnostics.
        id: u64,
    },
    /// An explicit ring-count override is infeasible for the input (some
    /// active non-outermost grid cell would be empty, which would break the
    /// degree guarantee).
    InfeasibleRings {
        /// The requested number of rings.
        requested: u32,
        /// The largest feasible number of rings for this input.
        feasible: u32,
    },
    /// The input has more points than the arena's `u32` node-id space can
    /// address (`omt_tree::MAX_NODES`). Checked up front by the store
    /// builders so oversized inputs fail with a typed error instead of
    /// wrapping ids.
    TooManyPoints {
        /// The requested number of points.
        nodes: usize,
        /// The largest supported count ([`omt_tree::MAX_NODES`]).
        max: usize,
    },
    /// Internal tree construction failed. This indicates a bug in the
    /// algorithm implementation, never bad user input; it is surfaced
    /// instead of panicking so fuzzing can observe it.
    Internal(TreeError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DegreeTooSmall { got, min } => {
                write!(f, "out-degree budget {got} is below the minimum {min}")
            }
            Self::NonFinitePoint { index } => {
                write!(f, "point {index} has a non-finite coordinate")
            }
            Self::NonFiniteSource => write!(f, "source has a non-finite coordinate"),
            Self::CoordinateOverflow { index } => {
                write!(
                    f,
                    "point {index} is too far from the source: its distance overflows f64"
                )
            }
            Self::UnknownHost { id } => {
                write!(f, "host id {id} is unknown or has already departed")
            }
            Self::InfeasibleRings {
                requested,
                feasible,
            } => write!(
                f,
                "ring override {requested} is infeasible; largest feasible is {feasible}"
            ),
            Self::TooManyPoints { nodes, max } => {
                write!(f, "{nodes} points exceed the u32 node-id space (max {max})")
            }
            Self::Internal(e) => write!(f, "internal tree construction error: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Internal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TreeError> for BuildError {
    fn from(e: TreeError) -> Self {
        Self::Internal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(BuildError::DegreeTooSmall { got: 1, min: 2 }
            .to_string()
            .contains('1'));
        assert!(BuildError::NonFinitePoint { index: 3 }
            .to_string()
            .contains('3'));
        assert!(!BuildError::NonFiniteSource.to_string().is_empty());
        assert!(BuildError::CoordinateOverflow { index: 7 }
            .to_string()
            .contains('7'));
        assert!(BuildError::UnknownHost { id: 42 }
            .to_string()
            .contains("42"));
        assert!(BuildError::InfeasibleRings {
            requested: 9,
            feasible: 4
        }
        .to_string()
        .contains('9'));
        assert!(BuildError::TooManyPoints {
            nodes: 5_000_000_000,
            max: omt_tree::MAX_NODES
        }
        .to_string()
        .contains("5000000000"));
    }

    #[test]
    fn from_tree_error_preserves_source() {
        use std::error::Error;
        let e = BuildError::from(TreeError::SelfLoop { index: 0 });
        assert!(e.source().is_some());
    }
}
