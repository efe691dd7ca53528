//! # mars-storage — storage substrates and query execution
//!
//! MARS itself is middleware: it reformulates queries and ships them to
//! storage engines. This crate provides the engines the reproduction ships
//! them to:
//!
//! * [`RelationalDatabase`] — an in-memory relational engine executing
//!   conjunctive queries through cost-based physical plans (pruned scans
//!   with constant pushdown, statistics-ordered hash joins — see
//!   [`mars_cost::physical_plan`] and the [`executor`] module; the naive
//!   evaluator survives as the oracle [`RelationalDatabase::query_naive`]) and
//!   emitting the equivalent SQL text, standing in for the commercial RDBMS
//!   holding the proprietary tables and materialized relational views;
//! * [`XmlStore`] — a set of in-memory XML documents, each with its
//!   navigation index, plus a deliberately naive, nested-loop XBind/XQuery
//!   evaluator. The evaluator plays the role of the Galax / Enosys engines in
//!   the paper's experiments — executing the *unreformulated* query against
//!   the published documents, so that the net saving of reformulation can be
//!   measured — and is the oracle of the differential tests; it has no
//!   product caller;
//! * view [`materialization`](materialize) — running the compiled GAV/LAV
//!   view bodies through the [`BackendRouter`] to populate the redundant
//!   storage (tables, cached documents), and result **tagging** (the
//!   sorted-outer-union assembly of the XML result from decorrelated binding
//!   tables);
//! * the [`BackendRouter`] — the statistics-driven dispatcher that prices a
//!   reformulated query block as two physical plans, every atom scanned or
//!   the atoms over stored documents navigated natively, and executes the
//!   cheaper through a [`RoutedPlan`] recording the route its leaves
//!   describe and estimated vs actual cost. Every route returns
//!   byte-identical rows (property-tested).

#![deny(missing_docs)]

pub mod doc_index;
pub mod executor;
pub mod materialize;
pub mod navigation;
pub mod relational;
pub mod router;
pub mod xml_engine;

pub use materialize::{materialize_view, tag_results};
pub use relational::{sql_for_query, RelationalDatabase, Row, SqlUnboundVariable};
pub use router::{BackendRouter, Route, RouteCosts, RoutedExecution, RoutedPlan, RoutingDecision};
pub use xml_engine::{Value, XmlStore, XmlStoreError};
