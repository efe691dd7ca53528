//! # mars-xml — the XML substrate
//!
//! MARS is middleware: it reformulates queries over virtual XML documents and
//! ships them to storage engines. Nevertheless a concrete XML data model is
//! needed throughout the reproduction — to materialize views, to execute
//! reformulated and unreformulated queries (the "Galax substitute" of the
//! experiments), and to encode documents into the GReX relations for tests.
//!
//! The crate provides:
//!
//! * a flat-arena [`Document`] model with cheap [`NodeId`] handles,
//! * a hand-written XML [`parser`](parse::parse_document) and serializer
//!   (no external dependencies),
//! * an XPath fragment ([`xpath`]) covering the navigation used by the paper:
//!   child (`/`) and descendant (`//`) steps, name tests, wildcards,
//!   `text()` and attribute access.

#![deny(missing_docs)]

pub mod doc;
pub mod parse;
pub mod xpath;

pub use doc::{Children, Descendants, Document, Node, NodeId, NodeKind, TagId};
pub use parse::{parse_document, ParseError};
pub use xpath::{check_path, eval_path, parse_path, Path, PathError, PathValue, Step};
