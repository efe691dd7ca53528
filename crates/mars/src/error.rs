//! Structured errors for the public MARS API.
//!
//! A resident reformulation service must never die on one bad request:
//! every degenerate input a library caller can hand the system — unparsable
//! XQuery text, a malformed XPath in a constraint, an empty or unsafe query
//! block, a correspondence with nothing to reformulate against — surfaces as
//! a [`MarsError`] variant instead of a panic.

use mars_xml::PathError;
use mars_xquery::XQueryParseError;
use std::fmt;

/// Everything that can go wrong on the public reformulation API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MarsError {
    /// The client XQuery text did not parse.
    Parse(XQueryParseError),
    /// An XPath expression (e.g. in an XIC constructor) did not parse.
    InvalidPath(PathError),
    /// The schema correspondence compiles to nothing: no dependencies and no
    /// proprietary schema, so no query can be reformulated against it.
    EmptyCorrespondence,
    /// The query block has no atoms — there is no navigation to reformulate.
    EmptyBlock {
        /// Name of the offending block.
        block: String,
    },
    /// The query block is unsafe: a head variable is not bound in the body.
    UnsafeBlock {
        /// Name of the offending block.
        block: String,
    },
    /// The request block holds a parameter (`XBindTerm::Param`), a term only
    /// a shape's canonical block may hold: the service would bind it to one
    /// of the request's own constants.
    ParameterInRequest {
        /// Name of the offending block.
        block: String,
    },
    /// No reformulation over the proprietary schema exists for the block.
    NoReformulation {
        /// Name of the offending block.
        block: String,
    },
    /// The service shed this request at admission: the bounded in-flight
    /// limit was already reached. Retry later — nothing was computed and
    /// nothing was cached.
    Overloaded {
        /// The in-flight admission limit that was hit.
        limit: usize,
    },
    /// The reformulation thread panicked mid-request. The panic was isolated
    /// (`catch_unwind`) so sibling requests are unaffected, and nothing was
    /// cached for this shape — a retry gets a real attempt.
    ReformulationPanicked {
        /// Name of the block being reformulated when the panic fired.
        block: String,
    },
}

impl fmt::Display for MarsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarsError::Parse(e) => write!(f, "XQuery parse error: {e}"),
            MarsError::InvalidPath(e) => write!(f, "invalid path: {e}"),
            MarsError::EmptyCorrespondence => {
                write!(
                    f,
                    "schema correspondence compiles to no dependencies and no proprietary schema"
                )
            }
            MarsError::EmptyBlock { block } => {
                write!(f, "query block '{block}' has no atoms to reformulate")
            }
            MarsError::UnsafeBlock { block } => {
                write!(f, "query block '{block}' is unsafe (head variable unbound in the body)")
            }
            MarsError::ParameterInRequest { block } => {
                write!(f, "query block '{block}' holds a parameter; only constants may be sent")
            }
            MarsError::NoReformulation { block } => {
                write!(f, "no proprietary-schema reformulation exists for block '{block}'")
            }
            MarsError::Overloaded { limit } => {
                write!(f, "request shed: service already has {limit} requests in flight")
            }
            MarsError::ReformulationPanicked { block } => {
                write!(f, "reformulation of block '{block}' panicked (isolated; not cached)")
            }
        }
    }
}

impl std::error::Error for MarsError {}

impl From<XQueryParseError> for MarsError {
    fn from(e: XQueryParseError) -> MarsError {
        MarsError::Parse(e)
    }
}

impl From<PathError> for MarsError {
    fn from(e: PathError) -> MarsError {
        MarsError::InvalidPath(e)
    }
}
