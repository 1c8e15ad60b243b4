//! # lcmsr-datagen
//!
//! Synthetic data and workload generation for the LCMSR reproduction
//! ("Retrieving Regions of Interest for User Exploration", Cao et al.,
//! PVLDB 2014).
//!
//! The paper evaluates on the DIMACS New York road network with Google Places
//! objects and a north-west USA network with Flickr-tag objects; neither can be
//! redistributed with this repository.  This crate generates structurally
//! similar substitutes (see README.md § "Substitutions"):
//!
//! * [`network`] — NY-like (dense grid) and USANW-like (towns + highways) road
//!   networks at several scales,
//! * [`keywords`] — a skewed synthetic vocabulary of category + tail terms,
//! * [`objects`] — object placement along the network with planted co-location
//!   clusters,
//! * [`queries`] — the paper's query-workload generation procedure,
//! * [`dataset`] — presets bundling all of the above,
//! * [`zipf`] — the Zipf sampler underlying the keyword skew.
//!
//! # Example
//!
//! ```
//! use lcmsr_datagen::prelude::*;
//!
//! let dataset = Dataset::build(DatasetConfig::tiny(42));
//! let params = dataset.default_query_params(7);
//! let queries = dataset.queries(&QueryGenParams { num_queries: 3, ..params });
//! assert_eq!(queries.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod keywords;
pub mod network;
pub mod objects;
pub mod queries;
pub mod zipf;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::dataset::{Dataset, DatasetConfig, DatasetKind};
    pub use crate::keywords::{KeywordModel, CATEGORIES};
    pub use crate::network::{ny_like, usanw_like, NetworkScale};
    pub use crate::objects::{generate_objects, GeneratedObjects, ObjectGenParams};
    pub use crate::queries::{generate_queries, GeneratedQuery, QueryGenParams};
    pub use crate::zipf::Zipf;
}

pub use dataset::{Dataset, DatasetConfig, DatasetKind};
pub use network::NetworkScale;
pub use queries::{GeneratedQuery, QueryGenParams};
