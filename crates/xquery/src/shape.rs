//! Query *shape* normalization for the plan cache.
//!
//! A resident reformulation service sees millions of arrivals of the same
//! query *templates* with different constants. The shape of an
//! [`XBindQuery`] is the query with its variables alpha-renamed (first
//! occurrence order) and its non-reserved constants parameterized out — two
//! queries that differ only in variable spellings and constant values share
//! a shape. They also share its **canonical block**
//! ([`QueryShape::canonical`]): the query spelled with the shape's own
//! names, variables `v0, v1, …` and parameters ([`XBindTerm::Param`]) for the
//! constants. The service reformulates that block once, and every arrival
//! of the shape binds its own constants into the plan.
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
//!   reformulation. They stay literal in the key and in the canonical block,
//!   and are never parameterized.

use crate::xbind::{XBindAtom, XBindQuery, XBindTerm};
use std::collections::HashSet;
use std::fmt::{self, Write};

/// The normal form of an [`XBindQuery`]: the cache key plus the constants
/// abstracted out of it, in a deterministic order: the canonical block
/// numbers them so, and a cache hit binds them by number. The constants are
/// borrowed from the query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryShape<'q> {
    /// The canonical rendering: block name, head, distinct flag and atoms
    /// with variables alpha-renamed to `v0, v1, …` and non-reserved
    /// constants replaced by `?0, ?1, …` (one parameter per distinct value).
    pub key: String,
    /// The distinct non-reserved constant values, in parameter order
    /// (`constants[i]` is the value of `?i`).
    pub constants: Vec<&'q str>,
}

/// State threaded through the canonical rendering: the key written so far,
/// and the variables and parameters numbered so far, by the names the query
/// spells them with, in first-occurrence order.
struct Normalizer<'q, 'r> {
    reserved: &'r HashSet<String>,
    key: String,
    var_order: Vec<&'q str>,
    param_order: Vec<&'q str>,
}

/// The number of `name` in first-occurrence order, numbering it if new. A
/// block names a few dozen terms at most, so a linear search beats hashing.
fn number<'q>(order: &mut Vec<&'q str>, name: &'q str) -> usize {
    order.iter().position(|&seen| seen == name).unwrap_or_else(|| {
        order.push(name);
        order.len() - 1
    })
}

/// Append `{tag}{i}` to `key`, with `i` in decimal.
fn push_numbered(key: &mut String, tag: char, mut i: usize) {
    key.push(tag);
    let mut digits = [0u8; 20];
    let mut len = 0;
    loop {
        digits[len] = b'0' + (i % 10) as u8;
        len += 1;
        i /= 10;
        if i == 0 {
            break;
        }
    }
    key.extend(digits[..len].iter().rev().map(|&d| char::from(d)));
}

impl<'q> Normalizer<'q, '_> {
    fn var(&mut self, name: &'q str) -> fmt::Result {
        let i = number(&mut self.var_order, name);
        push_numbered(&mut self.key, 'v', i);
        Ok(())
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
        let i = number(&mut self.param_order, value);
        push_numbered(&mut self.key, '?', i);
        Ok(())
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
                XBindTerm::Param(i) => write!(self.key, "param({i})")?,
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

/// Room reserved in the key per atom, the head counting as one: the star
/// NC 6 key lookup writes 825 bytes for 33 atoms, so one buffer holds it.
const KEY_BYTES_PER_ATOM: usize = 32;

/// Normalize a query to its [`QueryShape`].
///
/// `reserved` holds the constant values that are structural for the current
/// schema correspondence (see the module docs); everything else is
/// parameterized out. The walk order (head, then atoms in order) is the
/// deterministic first-occurrence order both the variable alpha-renaming and
/// the constant parameter numbering follow. The key is written in that one
/// walk, into one buffer sized up front; the names are not copied, and the
/// variables' numbering is dropped with the walk.
pub fn shape_of<'q>(q: &'q XBindQuery, reserved: &HashSet<String>) -> QueryShape<'q> {
    let mut n = Normalizer {
        reserved,
        key: String::with_capacity(KEY_BYTES_PER_ATOM * (q.atoms.len() + 1)),
        // A safe block binds each variable in an atom, so this rarely grows.
        var_order: Vec::with_capacity(q.head.len() + q.atoms.len()),
        param_order: Vec::new(),
    };
    n.query(q).expect("writing to a String does not fail");
    QueryShape { key: n.key, constants: n.param_order }
}

impl QueryShape<'_> {
    /// The canonical block of `q`, the query this shape was taken from:
    /// `q` with its `i`-th variable in first-occurrence order (head, then
    /// atoms: the order the key numbers them in, [`XBindQuery::variables`])
    /// renamed `v{i}` and constant `constants[i]` replaced by
    /// [`XBindTerm::Param`] `i`. Reserved constants stay literal, as they do
    /// in the key. Every query of the shape has this one canonical block.
    pub fn canonical(&self, q: &XBindQuery) -> XBindQuery {
        let variables = q.variables();
        let var = |name: &mut String| {
            let i = variables.iter().position(|v| v == name);
            *name = format!("v{}", i.expect("the query names each of its variables"));
        };
        let term = |t: &mut XBindTerm| match t {
            XBindTerm::Var(v) => var(v),
            XBindTerm::Str(s) => {
                if let Some(i) = self.constants.iter().position(|c| c == s) {
                    *t = XBindTerm::Param(u32::try_from(i).expect("a block has few constants"));
                }
            }
            XBindTerm::Param(_) => {}
        };
        let mut canonical = q.clone();
        canonical.head.iter_mut().for_each(var);
        for atom in &mut canonical.atoms {
            match atom {
                XBindAtom::AbsolutePath { var: v, .. } => var(v),
                XBindAtom::RelativePath { source, var: v, .. } => {
                    var(source);
                    var(v);
                }
                XBindAtom::QueryRef { vars, .. } => vars.iter_mut().for_each(var),
                XBindAtom::Relational { args, .. } => args.iter_mut().for_each(term),
                XBindAtom::Eq(a, b) | XBindAtom::Neq(a, b) => {
                    term(a);
                    term(b);
                }
            }
        }
        canonical
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
        let (qa, qb) = (filter_query("Q", "x", "k1", "k2"), filter_query("Q", "x", "zz", "ww"));
        let (a, b) = (shape_of(&qa, &reserved()), shape_of(&qb, &reserved()));
        assert_eq!(a.key, b.key, "queries differing only in constants share a shape");
        assert_eq!(a.constants, vec!["k1", "k2"]);
        assert_eq!(b.constants, vec!["zz", "ww"]);
    }

    #[test]
    fn variables_are_alpha_renamed() {
        let qa = filter_query("Q", "x", "k", "k2");
        let qb = filter_query("Q", "renamed", "k", "k2");
        let (a, b) = (shape_of(&qa, &reserved()), shape_of(&qb, &reserved()));
        assert_eq!(a.key, b.key, "alpha-renaming erases variable names");
        assert_eq!(a.canonical(&qa).head, ["v0", "v1"]);
        assert_eq!(a.canonical(&qa), b.canonical(&qb));
    }

    /// The same constant twice is an implicit equality join; two distinct
    /// constants are two parameters. The shapes must differ.
    #[test]
    fn repeated_constant_is_not_conflated_with_distinct_constants() {
        let (qj, qs) =
            (filter_query("Q", "x", "same", "same"), filter_query("Q", "x", "one", "two"));
        let (joined, split) = (shape_of(&qj, &reserved()), shape_of(&qs, &reserved()));
        assert_ne!(joined.key, split.key);
        assert_eq!(joined.constants, vec!["same"]);
        assert_eq!(split.constants, vec!["one", "two"]);
    }

    #[test]
    fn reserved_constants_stay_literal() {
        let mut r = HashSet::new();
        r.insert("k1".to_string());
        let q = filter_query("Q", "x", "k1", "k2");
        let shape = shape_of(&q, &r);
        assert!(shape.key.contains("\"k1\""), "reserved value is structural: {}", shape.key);
        assert_eq!(shape.constants, vec!["k2"], "only the free constant is a parameter");
        // A different value in the reserved position is a different shape.
        let other = filter_query("Q", "x", "other", "k2");
        let other = shape_of(&other, &r);
        assert_ne!(shape.key, other.key);
    }

    /// Requests that differ only in variable spellings and non-reserved
    /// constants share their canonical block; a reserved constant stays
    /// literal in it.
    #[test]
    fn queries_of_one_shape_have_one_canonical_block() {
        let r: HashSet<String> = ["k1".to_string()].into();
        let (qa, qb) = (filter_query("Q", "x", "k1", "a"), filter_query("Q", "renamed", "k1", "b"));
        let canonical = shape_of(&qa, &r).canonical(&qa);
        assert_eq!(canonical, shape_of(&qb, &r).canonical(&qb));
        assert_eq!(canonical.head, ["v0", "v1"]);
        assert_eq!(canonical.atoms[1], XBindAtom::Eq(XBindTerm::var("v0"), XBindTerm::str("k1")));
        assert_eq!(canonical.atoms[2], XBindAtom::Eq(XBindTerm::var("v1"), XBindTerm::Param(0)));
    }

    /// The same constant twice is one parameter of the canonical block, so
    /// the implicit equality join survives it.
    #[test]
    fn a_repeated_constant_is_one_parameter() {
        let q = filter_query("Q", "x", "same", "same");
        let canonical = shape_of(&q, &reserved()).canonical(&q);
        assert_eq!(canonical.atoms[1], XBindAtom::Eq(XBindTerm::var("v0"), XBindTerm::Param(0)));
        assert_eq!(canonical.atoms[2], XBindAtom::Eq(XBindTerm::var("v1"), XBindTerm::Param(0)));
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
