//! The Section 3 chase stress test: `//a/b/c/d/e/f/g/h/i/j`.
//!
//! The XPath compiles to a conjunctive query with 20 atoms (1 `desc`,
//! 9 `child`, 10 `tag`); chasing it with TIX produced >12 h of work in the
//! original C&B prototype, 2.6 s with the join-tree implementation and 640 ms
//! with the closure shortcut. The generator is parametric in the path length
//! so the benches can sweep it.

use mars_cq::{ConjunctiveQuery, Ded};
use mars_grex::{compile_xbind, tix_constraints, CompileContext, GrexSchema};
use mars_xml::parse_path;
use mars_xquery::{XBindAtom, XBindQuery};

/// The document the stress path navigates.
pub const STRESS_DOC: &str = "stress.xml";

/// The stress XPath of length `depth` (depth = 10 reproduces the paper's
/// `//a/b/c/d/e/f/g/h/i/j`).
pub fn stress_path(depth: usize) -> String {
    let mut s = String::new();
    for i in 0..depth {
        let tag = (b'a' + (i % 26) as u8) as char;
        if i == 0 {
            s.push_str(&format!("//{tag}"));
        } else {
            s.push_str(&format!("/{tag}"));
        }
    }
    s
}

/// The stress XBind query.
pub fn stress_query(depth: usize) -> XBindQuery {
    XBindQuery::new("Stress").with_head(&["x"]).with_atom(XBindAtom::AbsolutePath {
        document: STRESS_DOC.to_string(),
        path: parse_path(&stress_path(depth)).unwrap(),
        var: "x".to_string(),
    })
}

/// The compiled stress query (the 20-atom conjunctive query for depth 10).
pub fn compiled_stress_query(depth: usize) -> ConjunctiveQuery {
    let mut ctx = CompileContext::new();
    compile_xbind(&mut ctx, &stress_query(depth))
}

/// The TIX constraints the stress query is chased with.
pub fn stress_constraints() -> Vec<Ded> {
    tix_constraints(&GrexSchema::new(STRESS_DOC))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_chase::{chase_to_resident_compiled, ChaseOptions, CompiledDeps};
    use mars_cq::NavBase;

    #[test]
    fn compiled_query_has_the_papers_shape() {
        // Depth 10: 20 atoms in the paper's counting (9 child, 1 desc, 10 tag)
        // plus the explicit root atom of our encoding.
        let q = compiled_stress_query(10);
        assert_eq!(q.body.len(), 21);
        let s = GrexSchema::new(STRESS_DOC);
        assert_eq!(q.body.iter().filter(|a| a.predicate == s.predicate(NavBase::Child)).count(), 9);
        assert_eq!(q.body.iter().filter(|a| a.predicate == s.predicate(NavBase::Desc)).count(), 1);
        assert_eq!(q.body.iter().filter(|a| a.predicate == s.predicate(NavBase::Tag)).count(), 10);
        assert_eq!(stress_path(3), "//a/b/c");
    }

    #[test]
    fn chase_with_and_without_shortcut_agree_on_small_depths() {
        let q = compiled_stress_query(5);
        let tix = stress_constraints();
        let options = ChaseOptions::default();
        let with = chase_to_resident_compiled(&q, &CompiledDeps::new(&tix), &options);
        let without =
            chase_to_resident_compiled(&q, &CompiledDeps::without_shortcut(&tix), &options);
        assert!(with.stats().completed() && without.stats().completed());
        let atoms = |up: &mars_chase::ResidentChase| up.primary(&q.name).unwrap().body.len();
        assert_eq!(atoms(&with), atoms(&without));
        // The universal plan is much larger than the input (closure + el/id facts).
        assert!(atoms(&with) > 3 * q.body.len());
    }
}
