//! # mars — the MARS system facade
//!
//! This crate wires the whole pipeline of Figures 2 and 3 together:
//!
//! 1. the **schema correspondence** (LAV + GAV views in XBind/XQuery form,
//!    XML and relational integrity constraints, optional schema
//!    specializations) is compiled once into a set of relational DEDs over
//!    GReX plus the proprietary-schema predicate set;
//! 2. a **client XQuery** against the public schema is split into its
//!    navigation part (decorrelated XBind queries) and tagging template;
//! 3. each XBind block is compiled to a relational conjunctive query and
//!    reformulated by the **Chase & Backchase** engine, producing the initial
//!    reformulation, all minimal reformulations and the cost-optimal one;
//! 4. the chosen reformulation is rendered as an executable query (SQL for
//!    relational storage, XBind for native XML storage) and can be executed
//!    against the `mars-storage` substrates.
//!
//! For resident deployments the [`MarsService`] wraps a compiled system with
//! a shape-keyed [`PlanCache`]: repeated query templates that differ only in
//! constants skip the Chase & Backchase and are answered by binding the
//! fresh constants into the cached reformulation of the template's canonical
//! block. Degenerate inputs
//! surface as structured [`MarsError`]s rather than panics.
//!
//! Requests are survivable end to end: per-request
//! [`ReformulationBudget`]s degrade to the best-so-far answer (tagged with a
//! [`Degradation`] reason) instead of erroring, a bounded admission limit
//! sheds overload with [`MarsError::Overloaded`], and panics are isolated
//! per request — see the [`service`] module docs for the degradation ladder.

#![deny(missing_docs)]

pub mod cache;
pub mod error;
pub mod result;
pub mod service;
pub mod system;

pub use cache::{CacheStats, PlanCache};
pub use error::MarsError;
pub use mars_chase::{Degradation, ReformulationBudget};
pub use result::{BlockReformulation, MarsResult};
pub use service::{FaultHook, MarsService, ServiceStats};
pub use system::{Mars, MarsOptions, SchemaCorrespondence};
