//! Error type for the MaxEnt engine.

use sider_linalg::LinalgError;
use std::fmt;

/// Errors produced when building constraints or fitting the background
/// distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum MaxEntError {
    /// A constraint refers to an empty row set.
    EmptyRowSet,
    /// A constraint direction has the wrong dimension.
    BadDirection { expected: usize, got: usize },
    /// A constraint direction has (numerically) zero norm.
    ZeroDirection,
    /// A constraint row index is out of bounds.
    RowOutOfBounds { row: usize, n: usize },
    /// The dataset is empty.
    EmptyData,
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
    /// The dataset contains NaN or infinite values.
    NotFinite,
    /// The fitted background has NaN or infinite parameters: the last
    /// fit diverged (its report has `non_finite` set), so nothing can be
    /// whitened against or sampled from it.
    NonFiniteFit,
}

impl fmt::Display for MaxEntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaxEntError::EmptyRowSet => write!(f, "constraint row set is empty"),
            MaxEntError::BadDirection { expected, got } => {
                write!(
                    f,
                    "constraint direction has length {got}, expected {expected}"
                )
            }
            MaxEntError::ZeroDirection => write!(f, "constraint direction has zero norm"),
            MaxEntError::RowOutOfBounds { row, n } => {
                write!(f, "constraint row {row} out of bounds for {n} rows")
            }
            MaxEntError::EmptyData => write!(f, "dataset has no rows or no columns"),
            MaxEntError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            MaxEntError::NotFinite => write!(f, "dataset contains NaN or infinite values"),
            MaxEntError::NonFiniteFit => write!(
                f,
                "the last fit diverged to non-finite parameters; \
                 undo the last knowledge and update again"
            ),
        }
    }
}

impl std::error::Error for MaxEntError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MaxEntError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for MaxEntError {
    fn from(e: LinalgError) -> Self {
        MaxEntError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(MaxEntError::EmptyRowSet.to_string().contains("empty"));
        let e = MaxEntError::BadDirection {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("expected 3"));
        let e = MaxEntError::RowOutOfBounds { row: 9, n: 5 };
        assert!(e.to_string().contains("9"));
    }

    #[test]
    fn linalg_errors_convert_and_chain() {
        let inner = LinalgError::NotFinite;
        let e: MaxEntError = inner.clone().into();
        assert_eq!(e, MaxEntError::Linalg(inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}
