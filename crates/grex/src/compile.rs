//! Syntax-directed compilation of XBind queries and XICs into the relational
//! framework (Section 2.2, items (i) and (ii)).
//!
//! Path atoms are expanded step by step into GReX atoms; for instance
//! `[//author/text()](a)` over document `d` compiles to
//! `root#d(r), desc#d(r,n), tag#d(n,"author"), text#d(n,a)` — exactly the
//! shape of equation (3) in the paper (modulo the reflexive `desc` convention:
//! descendant-or-self, which TIX's `(refl)` makes equivalent).

use crate::schema::GrexSchema;
use mars_cq::{Atom, Conjunct, ConjunctiveQuery, Ded, Predicate, Substitution, Term, Variable};
use mars_xml::{Path, Step};
use mars_xquery::{XBindAtom, XBindQuery, XBindTerm, Xic, XicConjunct};

/// Compilation context: generates fresh intermediate variables so that the
/// atoms produced for different path atoms never collide.
#[derive(Debug, Default)]
pub struct CompileContext {
    counter: u32,
}

impl CompileContext {
    /// A fresh context.
    pub fn new() -> CompileContext {
        CompileContext::default()
    }

    fn fresh(&mut self, hint: &str) -> Variable {
        self.counter += 1;
        Variable::with_index(&format!("_{hint}"), self.counter)
    }
}

fn xterm(t: &XBindTerm) -> Term {
    match t {
        XBindTerm::Var(v) => Term::var(v),
        XBindTerm::Str(s) => Term::constant_str(s),
    }
}

/// Compile one path into GReX atoms. `start` is the context node term (for
/// relative paths) or a fresh root variable (for absolute paths). `target` is
/// the term the final step binds. Returns the produced atoms.
pub fn compile_path(
    ctx: &mut CompileContext,
    schema: &GrexSchema,
    path: &Path,
    start: Option<Term>,
    target: Term,
) -> Vec<Atom> {
    let mut atoms = Vec::new();
    let mut current = match start {
        Some(s) => s,
        None => {
            let r = Term::Var(ctx.fresh("r"));
            atoms.push(schema.root_atom(r));
            r
        }
    };
    let n = path.steps.len();
    for (i, step) in path.steps.iter().enumerate() {
        let last = i + 1 == n;
        // The node/value produced by this step.
        let produced = if last { target } else { Term::Var(ctx.fresh("n")) };
        match step {
            Step::Child(name) => {
                atoms.push(schema.child_atom(current, produced));
                atoms.push(schema.tag_atom(produced, name));
            }
            Step::Descendant(name) => {
                atoms.push(schema.desc_atom(current, produced));
                atoms.push(schema.tag_atom(produced, name));
            }
            Step::ChildAny => atoms.push(schema.child_atom(current, produced)),
            Step::DescendantAny => atoms.push(schema.desc_atom(current, produced)),
            Step::Text => atoms.push(schema.text_atom(current, produced)),
            Step::Attribute(name) => atoms.push(schema.attr_atom(current, name, produced)),
        }
        current = produced;
    }
    if n == 0 {
        // The empty relative path `.` binds the target to the start node.
        // Represented by a desc self-step which TIX makes reflexive.
        atoms.push(schema.desc_atom(current, target));
    }
    atoms
}

/// Result of compiling a set of XBind atoms: GReX/relational atoms plus
/// equality substitution and inequalities.
struct CompiledAtoms {
    atoms: Vec<Atom>,
    equalities: Vec<(Term, Term)>,
    inequalities: Vec<(Term, Term)>,
}

fn compile_atoms(ctx: &mut CompileContext, xatoms: &[XBindAtom]) -> CompiledAtoms {
    let mut out =
        CompiledAtoms { atoms: Vec::new(), equalities: Vec::new(), inequalities: Vec::new() };
    for a in xatoms {
        match a {
            XBindAtom::AbsolutePath { document, path, var } => {
                let schema = GrexSchema::new(document);
                out.atoms.extend(compile_path(ctx, &schema, path, None, Term::var(var)));
            }
            XBindAtom::RelativePath { path, source, var } => {
                // The document of a relative path is that of its source
                // variable; since GReX node identities are document-scoped the
                // schema only matters for predicate naming, and we recover it
                // from the first absolute atom that bound the source. For
                // robustness we default to the last absolute document seen.
                let schema = GrexSchema::new(&ctx_document(xatoms, source));
                out.atoms.extend(compile_path(
                    ctx,
                    &schema,
                    path,
                    Some(Term::var(source)),
                    Term::var(var),
                ));
            }
            XBindAtom::QueryRef { name, vars } => {
                out.atoms.push(Atom {
                    predicate: Predicate::new(name),
                    args: vars.iter().map(|v| Term::var(v)).collect(),
                });
            }
            XBindAtom::Relational { relation, args } => {
                out.atoms.push(Atom {
                    predicate: Predicate::new(relation),
                    args: args.iter().map(xterm).collect(),
                });
            }
            XBindAtom::Eq(x, y) => out.equalities.push((xterm(x), xterm(y))),
            XBindAtom::Neq(x, y) => out.inequalities.push((xterm(x), xterm(y))),
        }
    }
    out
}

/// Find the document in which `var` was bound (for resolving relative paths).
fn ctx_document(atoms: &[XBindAtom], var: &str) -> String {
    // Direct binding by an absolute path.
    for a in atoms {
        if let XBindAtom::AbsolutePath { document, var: v, .. } = a {
            if v == var {
                return document.clone();
            }
        }
    }
    // Transitive binding through relative paths.
    for a in atoms {
        if let XBindAtom::RelativePath { source, var: v, .. } = a {
            if v == var {
                return ctx_document(atoms, source);
            }
        }
    }
    // Fall back to the first absolute document mentioned anywhere.
    for a in atoms {
        if let XBindAtom::AbsolutePath { document, .. } = a {
            return document.clone();
        }
    }
    "default.xml".to_string()
}

/// Turn compile-time equalities into a substitution (variables are unified,
/// variable = constant binds the variable).
fn equalities_to_substitution(equalities: &[(Term, Term)]) -> Substitution {
    let mut s = Substitution::new();
    for (a, b) in equalities {
        let ia = s.apply_term_deep(*a);
        let ib = s.apply_term_deep(*b);
        if ia == ib {
            continue;
        }
        match (ia, ib) {
            (Term::Var(v), t) | (t, Term::Var(v)) => s.set(v, t),
            // Two distinct constants: leave as-is (the query is unsatisfiable;
            // callers detect this via `has_contradictory_inequality` or empty
            // evaluation).
            _ => {}
        }
    }
    s
}

/// Compile an XBind query into a conjunctive query over the GReX schema(s) of
/// the documents it navigates (item (i) of Section 2.2).
pub fn compile_xbind(ctx: &mut CompileContext, xbind: &XBindQuery) -> ConjunctiveQuery {
    let compiled = compile_atoms(ctx, &xbind.atoms);
    let sub = equalities_to_substitution(&compiled.equalities);
    let head: Vec<Term> = xbind.head.iter().map(|v| sub.apply_term_deep(Term::var(v))).collect();
    let body: Vec<Atom> = compiled.atoms.iter().map(|a| sub.apply_atom_deep(a)).collect();
    let inequalities = compiled
        .inequalities
        .iter()
        .map(|(a, b)| (sub.apply_term_deep(*a), sub.apply_term_deep(*b)))
        .collect();
    ConjunctiveQuery { name: xbind.name.clone(), head, body, inequalities }
}

/// Compile an XIC into a relational DED over GReX (item (ii) of Section 2.2).
pub fn compile_xic(ctx: &mut CompileContext, xic: &Xic) -> Ded {
    let premise = compile_atoms(ctx, &xic.premise);
    let premise_sub = equalities_to_substitution(&premise.equalities);
    let premise_atoms: Vec<Atom> =
        premise.atoms.iter().map(|a| premise_sub.apply_atom_deep(a)).collect();
    let premise_vars: std::collections::HashSet<Variable> =
        premise_atoms.iter().flat_map(|a| a.variables()).collect();

    let mut conclusions = Vec::new();
    for conj in &xic.conclusions {
        conclusions.push(compile_conjunct(ctx, conj, &premise_sub, &premise_vars));
    }
    Ded {
        name: xic.name.clone(),
        premise: premise_atoms,
        premise_inequalities: premise
            .inequalities
            .iter()
            .map(|(a, b)| (premise_sub.apply_term_deep(*a), premise_sub.apply_term_deep(*b)))
            .collect(),
        conclusions,
    }
}

fn compile_conjunct(
    ctx: &mut CompileContext,
    conj: &XicConjunct,
    premise_sub: &Substitution,
    premise_vars: &std::collections::HashSet<Variable>,
) -> Conjunct {
    let compiled = compile_atoms(ctx, &conj.atoms);
    let atoms: Vec<Atom> = compiled.atoms.iter().map(|a| premise_sub.apply_atom_deep(a)).collect();
    let mut equalities: Vec<(Term, Term)> = conj
        .equalities
        .iter()
        .map(|(a, b)| {
            (premise_sub.apply_term_deep(xterm(a)), premise_sub.apply_term_deep(xterm(b)))
        })
        .collect();
    equalities.extend(
        compiled
            .equalities
            .iter()
            .map(|(a, b)| (premise_sub.apply_term_deep(*a), premise_sub.apply_term_deep(*b))),
    );
    // Every conclusion variable not bound by the premise is existential
    // (declared ones plus the fresh intermediate navigation variables).
    let mut exists: Vec<Variable> = Vec::new();
    for a in &atoms {
        for v in a.variables() {
            if !premise_vars.contains(&v) && !exists.contains(&v) {
                exists.push(v);
            }
        }
    }
    Conjunct { exists, atoms, equalities }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_xml::parse_path;
    use mars_xquery::xbind::example_2_1;

    #[test]
    fn equation_3_shape_for_xbo() {
        // Xbo(a) :- [//author/text()](a) compiles to
        // root(r), desc(r,n), tag(n,"author"), text(n,a)   over books.xml.
        let (xbo, _) = example_2_1();
        let mut ctx = CompileContext::new();
        let q = compile_xbind(&mut ctx, &xbo);
        assert_eq!(q.head, vec![Term::var("a")]);
        assert_eq!(q.body.len(), 4);
        let s = GrexSchema::new("books.xml");
        let preds: Vec<Predicate> = q.body.iter().map(|a| a.predicate).collect();
        assert!(preds.contains(&s.root()));
        assert!(preds.contains(&s.desc()));
        assert!(preds.contains(&s.tag()));
        assert!(preds.contains(&s.text()));
        // The text atom binds the head variable.
        let text_atom = q.body.iter().find(|a| a.predicate == s.text()).unwrap();
        assert_eq!(text_atom.args[1], Term::var("a"));
    }

    #[test]
    fn xbi_compiles_with_correlation_and_equality_substitution() {
        let (_, xbi) = example_2_1();
        let mut ctx = CompileContext::new();
        let q = compile_xbind(&mut ctx, &xbi);
        // The equality a = a1 is compiled away by unification: the head
        // repeats the same term in positions 0 and 2.
        assert_eq!(q.head.len(), 4);
        assert_eq!(q.head[0], q.head[2]);
        // The correlation atom Xbo(a) is a plain relational atom.
        assert!(q.body.iter().any(|a| a.predicate == Predicate::new("Xbo")));
        // All navigation is over books.xml.
        let s = GrexSchema::new("books.xml");
        assert!(q.body.iter().any(|a| a.predicate == s.child()));
        assert!(q.is_safe());
    }

    #[test]
    fn relative_paths_follow_their_source_document() {
        let xb = XBindQuery::new("Q")
            .with_head(&["p"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "catalog.xml".to_string(),
                path: parse_path("//drug").unwrap(),
                var: "d".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./price/text()").unwrap(),
                source: "d".to_string(),
                var: "p".to_string(),
            });
        let mut ctx = CompileContext::new();
        let q = compile_xbind(&mut ctx, &xb);
        let s = GrexSchema::new("catalog.xml");
        assert!(q.body.iter().all(|a| s.owns(a.predicate)));
        assert_eq!(q.body.len(), 3 + 3); // root,desc,tag + child,tag,text
    }

    #[test]
    fn attribute_and_wildcard_steps() {
        let xb = XBindQuery::new("Q").with_head(&["y"]).with_atom(XBindAtom::AbsolutePath {
            document: "bib.xml".to_string(),
            path: parse_path("//book/@year").unwrap(),
            var: "y".to_string(),
        });
        let mut ctx = CompileContext::new();
        let q = compile_xbind(&mut ctx, &xb);
        let s = GrexSchema::new("bib.xml");
        assert!(q.body.iter().any(|a| a.predicate == s.attr()));
        // attr atom: (node, "year", y)
        let attr = q.body.iter().find(|a| a.predicate == s.attr()).unwrap();
        assert_eq!(attr.args[1], Term::constant_str("year"));
        assert_eq!(attr.args[2], Term::var("y"));
    }

    #[test]
    fn inequalities_survive_compilation() {
        let xb = XBindQuery::new("Q")
            .with_head(&["v"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "d.xml".to_string(),
                path: parse_path("//item/text()").unwrap(),
                var: "v".to_string(),
            })
            .with_atom(XBindAtom::Neq(XBindTerm::var("v"), XBindTerm::str("0")));
        let mut ctx = CompileContext::new();
        let q = compile_xbind(&mut ctx, &xb);
        assert_eq!(q.inequalities, vec![(Term::var("v"), Term::constant_str("0"))]);
    }

    #[test]
    fn xic_constraint_2_compiles_like_the_paper() {
        // ∀p //person(p) → ∃s ./ssn(p,s)
        let xic = Xic::exists_child("person_has_ssn", "people.xml", "//person", "./ssn").unwrap();
        let mut ctx = CompileContext::new();
        let ded = compile_xic(&mut ctx, &xic);
        let s = GrexSchema::new("people.xml");
        // premise: root(r), desc(r,p), tag(p,"person")
        assert_eq!(ded.premise.len(), 3);
        assert!(ded.premise.iter().any(|a| a.predicate == s.tag()));
        // conclusion: ∃s child(p,s) ∧ tag(s,"ssn")
        assert_eq!(ded.conclusions.len(), 1);
        let c = &ded.conclusions[0];
        assert_eq!(c.atoms.len(), 2);
        assert!(c.exists.contains(&Variable::named("s")));
        assert!(c.equalities.is_empty());
    }

    #[test]
    fn xic_key_compiles_to_an_egd() {
        let xic = Xic::key("ssn_key", "people.xml", "//person", "./ssn").unwrap();
        let mut ctx = CompileContext::new();
        let ded = compile_xic(&mut ctx, &xic);
        assert!(ded.is_egd());
        // premise: two //person navigations + two ./ssn navigations sharing s.
        assert!(ded.premise.len() >= 8);
        assert_eq!(ded.conclusions[0].equalities, vec![(Term::var("p"), Term::var("q"))]);
    }

    #[test]
    fn empty_relative_path_binds_via_reflexive_desc() {
        let xb = XBindQuery::new("Q")
            .with_head(&["y"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "d.xml".to_string(),
                path: parse_path("//a").unwrap(),
                var: "x".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path(".").unwrap(),
                source: "x".to_string(),
                var: "y".to_string(),
            });
        let mut ctx = CompileContext::new();
        let q = compile_xbind(&mut ctx, &xb);
        let s = GrexSchema::new("d.xml");
        assert!(q
            .body
            .iter()
            .any(|a| a.predicate == s.desc() && *a.args == [Term::var("x"), Term::var("y")]));
    }
}
