//! # mars-specialize — schema specialization (Section 5)
//!
//! Schema specialization exploits regularity in the structure of XML
//! documents: a tree pattern that always looks the same (e.g. the `author`
//! entity of Figure 6) is modelled as a single tuple of a virtual relation
//! (`Author(id, pid, first, last, street, city, state, zip)`), so that the
//! relational queries and constraints produced by the GReX compilation have
//! far fewer atoms. Since chasing is NP-hard in the number of atoms, the
//! savings compound: a faster chase, a smaller universal plan, and a faster
//! backchase (Figure 8 shows the ratio growing exponentially with the star
//! size).
//!
//! In this reproduction specialization operates on the XBind level,
//! following Figure 7's pipeline: the query (and every view body / XIC) is
//! rewritten to use the specialization relations *before* the GReX
//! compilation. A specialization relation is not re-expanded into
//! navigation afterwards: it is a materialized view
//! ([`SpecializationMapping::definition_view`]) that reformulations read
//! like any other stored relation. The mappings are written by a domain
//! expert ([`SpecializationMapping`]; Figure 6's is
//! [`author_mapping`](mapping::author_mapping)), and they satisfy the
//! restrictions of Proposition 5.1 ([`SpecializationMapping::is_restricted`]:
//! each mapping is a single entity pattern with leaf fields), which keeps
//! the specialization step linear in the query size.

#![deny(missing_docs)]

pub mod mapping;
pub mod rewrite;

pub use mapping::{FieldMapping, SpecializationMapping};
pub use rewrite::{specialize_query, specialize_view, specialize_xic};
