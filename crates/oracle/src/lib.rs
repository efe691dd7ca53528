//! # mars-oracle — the old implementation, kept as an oracle
//!
//! The MARS paper measures its set-oriented chase (Section 3.1) against the
//! original C&B prototype ("A Chase Too Far?", SIGMOD 2000), the "old
//! implementation". This crate is that implementation, over the data types
//! of `mars-cq`:
//!
//! * a backtracking homomorphism search between atom sets
//!   ([`homomorphism`]),
//! * the **naive chase** ([`chase`]), which searches for one premise
//!   homomorphism at a time and restarts after every applied step,
//! * chase-based containment of conjunctive queries under dependencies
//!   ([`containment`]).
//!
//! No product crate depends on it. The engine (`mars-chase`) evaluates
//! premises, blocked tests and containment mappings through its own compiled
//! join kernel; this crate is what the differential tests compare that
//! kernel against (a `[dev-dependency]`) and what the `experiments` binary
//! times as the paper's baseline.

#![deny(missing_docs)]

pub mod chase;
pub mod containment;
pub mod homomorphism;

pub use chase::{naive_chase, ChaseBudget, ChaseOutcome, ChaseTree};
pub use containment::{contained_in, containment_mapping, ContainmentOptions, ContainmentTarget};
pub use homomorphism::{
    extend_to_conclusion, find_all_homomorphisms, find_homomorphism, AtomIndex,
};
