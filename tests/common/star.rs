//! The star NC 6 / NV 5 key lookup, shared by the tests that serve it
//! through the plan cache (`property_based`, `cache_hit_allocations`).
//! Included with `#[path]`, not through `common/mod.rs`, so a binary that
//! does not use it does not compile it.

use mars_system::workloads::star::StarConfig;
use mars_system::xquery::{XBindAtom, XBindQuery, XBindTerm};

/// The star configuration of Figure 5 at NC 6 (NV 5).
pub fn star_nc6() -> StarConfig {
    StarConfig::figure5(6)
}

/// The star NC 6 client query filtered on the hub key `key`, with every
/// variable renamed `<name>_<suffix>`.
pub fn star_key_lookup(key: &str, suffix: &str) -> XBindQuery {
    let rename = |v: &mut String| *v = format!("{v}_{suffix}");
    let rename_term = |t: &mut XBindTerm| {
        if let XBindTerm::Var(v) = t {
            rename(v);
        }
    };
    let mut q = star_nc6()
        .client_query()
        .with_atom(XBindAtom::Eq(XBindTerm::var("k"), XBindTerm::str(key)));
    q.head.iter_mut().for_each(rename);
    for atom in &mut q.atoms {
        match atom {
            XBindAtom::AbsolutePath { var, .. } => rename(var),
            XBindAtom::RelativePath { source, var, .. } => {
                rename(source);
                rename(var);
            }
            XBindAtom::QueryRef { vars, .. } => vars.iter_mut().for_each(rename),
            XBindAtom::Relational { args, .. } => args.iter_mut().for_each(rename_term),
            XBindAtom::Eq(a, b) | XBindAtom::Neq(a, b) => {
                rename_term(a);
                rename_term(b);
            }
        }
    }
    q
}
