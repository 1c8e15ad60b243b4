//! Error types for the geo-textual object substrate.

use std::fmt;

/// Errors produced while building or querying geo-textual indexes.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoTextError {
    /// An object id was referenced that does not exist in the collection.
    UnknownObject {
        /// The offending object id.
        object: u64,
    },
    /// An object has an empty keyword description; such objects carry no
    /// queryable information and are rejected at insertion time.
    EmptyDescription {
        /// The offending object id.
        object: u64,
    },
    /// An object's location is not finite.
    InvalidLocation {
        /// The offending object id.
        object: u64,
    },
    /// The grid index was configured with a non-positive cell size or an empty extent.
    InvalidGridConfig {
        /// Explanation of the configuration failure.
        message: String,
    },
}

impl fmt::Display for GeoTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoTextError::UnknownObject { object } => write!(f, "unknown object id {object}"),
            GeoTextError::EmptyDescription { object } => {
                write!(f, "object {object} has an empty text description")
            }
            GeoTextError::InvalidLocation { object } => {
                write!(f, "object {object} has a non-finite location")
            }
            GeoTextError::InvalidGridConfig { message } => {
                write!(f, "invalid grid configuration: {message}")
            }
        }
    }
}

impl std::error::Error for GeoTextError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GeoTextError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(GeoTextError::UnknownObject { object: 9 }
            .to_string()
            .contains('9'));
        assert!(GeoTextError::EmptyDescription { object: 2 }
            .to_string()
            .contains("empty"));
        assert!(GeoTextError::InvalidLocation { object: 3 }
            .to_string()
            .contains("non-finite"));
        assert!(GeoTextError::InvalidGridConfig {
            message: "cell size".into()
        }
        .to_string()
        .contains("cell size"));
    }
}
