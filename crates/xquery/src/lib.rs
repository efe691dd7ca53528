//! # mars-xquery — XQuery fragment, XBind queries and XICs
//!
//! MARS splits an XQuery into a *navigation part* and a *tagging template*
//! (Section 2.1, following SilkRoute). The navigation part is described by a
//! set of decorrelated [`XBindQuery`]s — conjunctive-query-like programs whose
//! atoms are XPath predicates — and only this part depends on the schema
//! correspondence, so it is what MARS reformulates. The tagging template is
//! kept aside and re-attached when results are assembled (sorted outer union,
//! implemented in `mars-storage`).
//!
//! This crate provides:
//!
//! * the [`XBindQuery`] intermediate representation and its atoms,
//! * the XQuery fragment AST ([`ast`]) and a recursive-descent
//!   [`parser`](parser::parse_xquery) for it,
//! * [`decorrelate()`](decorrelate::decorrelate) — the FLWR-block
//!   decorrelation of Example 2.1,
//! * XML integrity constraints ([`Xic`]) in the style of Section 2.1
//!   (constraints (1) and (2)).

#![deny(missing_docs)]

pub mod ast;
pub mod decorrelate;
pub mod parser;
pub mod shape;
pub mod xbind;
pub mod xic;

pub use ast::{Condition, ForBinding, SourceExpr, XQueryExpr};
pub use decorrelate::{decorrelate, DecorrelatedQuery, TaggingTemplate, TemplateNode};
pub use parser::{parse_xquery, XQueryParseError};
pub use shape::{shape_of, QueryShape};
pub use xbind::{XBindAtom, XBindQuery, XBindTerm};
pub use xic::{Xic, XicConjunct};
