//! # mars-system — workspace facade
//!
//! Re-exports the crates of the MARS reproduction so that examples and
//! integration tests can use a single dependency. See the README for the
//! architecture overview and `ARCHITECTURE.md` / `EXPERIMENTS.md` for the mapping
//! between the paper and this codebase.

pub use mars;
pub use mars_chase as chase;
pub use mars_cost as cost;
pub use mars_cq as cq;
pub use mars_grex as grex;
pub use mars_specialize as specialize;
pub use mars_storage as storage;
pub use mars_workloads as workloads;
pub use mars_xml as xml;
pub use mars_xquery as xquery;
