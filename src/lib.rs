//! Umbrella crate for the Genus reproduction workspace.
//!
//! Re-exports the facade crate so integration tests and examples in this
//! package can use a single import root, and holds the paper's Table 1
//! on the engines ([`table1`]), which the report example and the tests
//! share.
pub use genus::*;

pub mod table1;
