//! # mars-grex — the generic relational encoding of XML
//!
//! MARS reduces XML query reformulation to relational query minimization under
//! constraints by compiling everything — XBind queries, XICs, XQuery views —
//! into the relational framework `GReX = [root, el, child, desc, tag, attr,
//! id, text]` together with the built-in constraint set `TIX` (Section 2.2).
//! The XML data is *not* stored this way; GReX is a logical representation
//! used for reasoning.
//!
//! This crate provides:
//!
//! * [`GrexSchema`] — the GReX predicates of one document (predicates are
//!   suffixed with the document name so several documents coexist in one
//!   reformulation problem),
//! * [`tix`] — the built-in TIX constraints,
//! * [`compile`] — syntax-directed compilation of XBind queries and XICs to
//!   conjunctive queries / DEDs over GReX,
//! * [`views`] — compilation of view definitions (GAV and LAV alike) into
//!   "direction-neutral" DED pairs, including the Skolem-function constraints
//!   of Section 2.4 for views that construct new XML elements,
//! * [`encode`] — encoding of concrete documents into ground GReX facts
//!   ([`GrexFacts`]: the eight relations, each one flat row-major buffer),
//!   used by the storage substrate and by semantics tests, and [`node_constant`],
//!   the one identity of a node: the typed term
//!   [`Constant::Node`](mars_cq::Constant::Node) of its document and arena
//!   slot, printed `<doc>/n<k>`, not an interned string.

#![deny(missing_docs)]

pub mod compile;
pub mod encode;
pub mod schema;
pub mod tix;
pub mod views;

pub use compile::{compile_xbind, compile_xic, CompileContext};
pub use encode::{encode_document, node_constant, GrexFacts};
pub use schema::GrexSchema;
pub use tix::{tix_constraints, tix_constraints_core};
pub use views::{compile_view, ViewDef, ViewOutput};
