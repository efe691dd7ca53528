//! Query *shape* normalization for the plan cache.
//!
//! A resident reformulation service sees millions of arrivals of the same
//! query *templates* with different constants. The shape of an
//! [`XBindQuery`] is the query with its variables alpha-renamed (first
//! occurrence order) and its non-reserved constants parameterized out — two
//! queries that differ only in constant values share a shape, so the second
//! arrival can reuse the first one's reformulation with the constants
//! re-substituted.
//!
//! Two correctness subtleties the normalization must respect:
//!
//! * **Implicit equality joins.** The *same* constant appearing twice is an
//!   implicit join (both occurrences must carry the same value), while two
//!   *distinct* constants are independent parameters. Parameter indices are
//!   therefore assigned per distinct constant **value**: `Eq(x,"a"),
//!   Eq(y,"a")` normalizes to `eq(v0,?0) eq(v1,?0)` but `Eq(x,"a"),
//!   Eq(y,"b")` to `eq(v0,?0) eq(v1,?1)` — different keys, never conflated.
//! * **Reserved constants.** Constants that also appear in the schema
//!   correspondence (tag names, document names, specialization labels) are
//!   part of the query's *structure*: the chase joins them against the
//!   dependency set, so substituting a different value would change the
//!   reformulation. They stay literal in the key and are never parameterized.

use crate::xbind::{XBindAtom, XBindQuery, XBindTerm};
use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt::{self, Write};

/// The normal form of an [`XBindQuery`]: the cache key plus the concrete
/// values abstracted out of it, in a deterministic order so a cache hit can
/// re-substitute them pairwise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryShape {
    /// The canonical rendering: block name, head, distinct flag and atoms
    /// with variables alpha-renamed to `v0, v1, …` and non-reserved
    /// constants replaced by `?0, ?1, …` (one parameter per distinct value).
    pub key: String,
    /// The distinct non-reserved constant values, in parameter order
    /// (`constants[i]` is the value of `?i`).
    pub constants: Vec<String>,
    /// The original variable names, in alpha-renaming order
    /// (`variables[i]` is the name `v{i}` stands for).
    pub variables: Vec<String>,
}

/// State threaded through the canonical rendering: the key written so far,
/// and the variables and parameters numbered so far, by the names the query
/// spells them with.
struct Normalizer<'q> {
    reserved: &'q HashSet<String>,
    key: String,
    vars: HashMap<&'q str, usize>,
    var_order: Vec<&'q str>,
    params: HashMap<&'q str, usize>,
    param_order: Vec<&'q str>,
}

/// The number of `name` in first-occurrence order, numbering it if new.
fn number<'q>(
    seen: &mut HashMap<&'q str, usize>,
    order: &mut Vec<&'q str>,
    name: &'q str,
) -> usize {
    *seen.entry(name).or_insert_with(|| {
        order.push(name);
        order.len() - 1
    })
}

impl<'q> Normalizer<'q> {
    fn var(&mut self, name: &'q str) -> fmt::Result {
        let i = number(&mut self.vars, &mut self.var_order, name);
        write!(self.key, "v{i}")
    }

    /// The variables `names`, comma-separated.
    fn vars(&mut self, names: impl IntoIterator<Item = &'q String>) -> fmt::Result {
        for (i, name) in names.into_iter().enumerate() {
            if i > 0 {
                self.key.push(',');
            }
            self.var(name)?;
        }
        Ok(())
    }

    fn constant(&mut self, value: &'q str) -> fmt::Result {
        if self.reserved.contains(value) {
            // Structural constant: keep it literal (escaped so a value can
            // never collide with the surrounding syntax).
            return write!(self.key, "{value:?}");
        }
        let i = number(&mut self.params, &mut self.param_order, value);
        write!(self.key, "?{i}")
    }

    /// The terms `terms`, comma-separated.
    fn terms(&mut self, terms: impl IntoIterator<Item = &'q XBindTerm>) -> fmt::Result {
        for (i, t) in terms.into_iter().enumerate() {
            if i > 0 {
                self.key.push(',');
            }
            match t {
                XBindTerm::Var(v) => self.var(v)?,
                XBindTerm::Str(s) => self.constant(s)?,
            }
        }
        Ok(())
    }

    fn atom(&mut self, a: &'q XBindAtom) -> fmt::Result {
        match a {
            XBindAtom::AbsolutePath { document, path, var } => {
                write!(self.key, "doc({document:?})[{path}](")?;
                self.var(var)?;
            }
            XBindAtom::RelativePath { path, source, var } => {
                write!(self.key, "rel[{path}](")?;
                self.vars([source, var])?;
            }
            XBindAtom::QueryRef { name, vars } => {
                write!(self.key, "ref {name}(")?;
                self.vars(vars)?;
            }
            XBindAtom::Relational { relation, args } => {
                write!(self.key, "{relation}(")?;
                self.terms(args)?;
            }
            XBindAtom::Eq(a, b) => {
                self.key.push_str("eq(");
                self.terms([a, b])?;
            }
            XBindAtom::Neq(a, b) => {
                self.key.push_str("neq(");
                self.terms([a, b])?;
            }
        }
        self.key.push(')');
        Ok(())
    }

    /// `{name}[ distinct]({head}) :- {atom} & {atom} & …`.
    fn query(&mut self, q: &'q XBindQuery) -> fmt::Result {
        let distinct = if q.distinct { " distinct" } else { "" };
        write!(self.key, "{}{distinct}(", q.name)?;
        self.vars(&q.head)?;
        self.key.push_str(") :- ");
        for (i, a) in q.atoms.iter().enumerate() {
            if i > 0 {
                self.key.push_str(" & ");
            }
            self.atom(a)?;
        }
        Ok(())
    }
}

/// Normalize a query to its [`QueryShape`].
///
/// `reserved` holds the constant values that are structural for the current
/// schema correspondence (see the module docs); everything else is
/// parameterized out. The walk order (head, then atoms in order) is the
/// deterministic first-occurrence order both the variable alpha-renaming and
/// the constant parameter numbering follow. The key is written in that one
/// walk, into one buffer.
pub fn shape_of(q: &XBindQuery, reserved: &HashSet<String>) -> QueryShape {
    let mut n = Normalizer {
        reserved,
        key: String::new(),
        vars: HashMap::new(),
        var_order: Vec::new(),
        params: HashMap::new(),
        param_order: Vec::new(),
    };
    n.query(q).expect("writing to a String does not fail");
    QueryShape {
        key: n.key,
        constants: n.param_order.into_iter().map(str::to_string).collect(),
        variables: n.var_order.into_iter().map(str::to_string).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xbind::example_2_1;
    use mars_xml::parse_path;

    fn reserved() -> HashSet<String> {
        HashSet::new()
    }

    fn filter_query(name: &str, var: &str, c1: &str, c2: &str) -> XBindQuery {
        XBindQuery::new(name)
            .with_head(&[var, "y"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "bib.xml".to_string(),
                path: parse_path("//book").unwrap(),
                var: var.to_string(),
            })
            .with_atom(XBindAtom::Eq(XBindTerm::var(var), XBindTerm::str(c1)))
            .with_atom(XBindAtom::Eq(XBindTerm::var("y"), XBindTerm::str(c2)))
    }

    #[test]
    fn constants_are_parameterized_out() {
        let a = shape_of(&filter_query("Q", "x", "k1", "k2"), &reserved());
        let b = shape_of(&filter_query("Q", "x", "zz", "ww"), &reserved());
        assert_eq!(a.key, b.key, "queries differing only in constants share a shape");
        assert_eq!(a.constants, vec!["k1", "k2"]);
        assert_eq!(b.constants, vec!["zz", "ww"]);
    }

    #[test]
    fn variables_are_alpha_renamed() {
        let a = shape_of(&filter_query("Q", "x", "k", "k2"), &reserved());
        let b = shape_of(&filter_query("Q", "renamed", "k", "k2"), &reserved());
        assert_eq!(a.key, b.key, "alpha-renaming erases variable names");
        assert_eq!(a.variables, vec!["x", "y"]);
        assert_eq!(b.variables, vec!["renamed", "y"]);
    }

    /// The same constant twice is an implicit equality join; two distinct
    /// constants are two parameters. The shapes must differ.
    #[test]
    fn repeated_constant_is_not_conflated_with_distinct_constants() {
        let joined = shape_of(&filter_query("Q", "x", "same", "same"), &reserved());
        let split = shape_of(&filter_query("Q", "x", "one", "two"), &reserved());
        assert_ne!(joined.key, split.key);
        assert_eq!(joined.constants, vec!["same"]);
        assert_eq!(split.constants, vec!["one", "two"]);
    }

    #[test]
    fn reserved_constants_stay_literal() {
        let mut r = HashSet::new();
        r.insert("k1".to_string());
        let shape = shape_of(&filter_query("Q", "x", "k1", "k2"), &r);
        assert!(shape.key.contains("\"k1\""), "reserved value is structural: {}", shape.key);
        assert_eq!(shape.constants, vec!["k2"], "only the free constant is a parameter");
        // A different value in the reserved position is a different shape.
        let other = shape_of(&filter_query("Q", "x", "other", "k2"), &r);
        assert_ne!(shape.key, other.key);
    }

    #[test]
    fn block_name_head_and_distinct_are_part_of_the_key() {
        let base = filter_query("Q", "x", "k", "k2");
        let renamed_block = filter_query("R", "x", "k", "k2");
        let distinct = filter_query("Q", "x", "k", "k2").with_distinct();
        let r = reserved();
        assert_ne!(shape_of(&base, &r).key, shape_of(&renamed_block, &r).key);
        assert_ne!(shape_of(&base, &r).key, shape_of(&distinct, &r).key);
    }

    #[test]
    fn example_2_1_shapes_are_stable() {
        let (outer, inner) = example_2_1();
        for q in [&outer, &inner] {
            let s1 = shape_of(q, &reserved());
            let s2 = shape_of(q, &reserved());
            assert_eq!(s1, s2);
            assert!(s1.constants.is_empty(), "example 2.1 has no client constants");
        }
    }
}
