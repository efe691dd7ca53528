//! Pruning criterion 4: a candidate holding an atom that another of its
//! atoms implies is never a minimal reformulation.
//!
//! Pool atom `b` *implies* pool atom `a` when a dependency of Σ fires on `b`
//! alone and derives an atom `a` maps onto:
//!
//! * the dependency is a TGD with one premise atom, one conjunct, and no
//!   equality or inequality ([`SinglePremiseTgds`], collected once per
//!   engine by [`CompiledDeps`](crate::CompiledDeps));
//! * the map fixes every variable of `a` that is *shared* — that occurs in
//!   another pool atom, in the head or in an inequality — so only `a`'s
//!   *private* variables may go to the TGD's existentials (or to terms of
//!   `b`);
//! * dropping `a` keeps navigation constructible (criteria 2–3): every
//!   variable `a` produces is private, or `b` produces it and requires
//!   nothing `a` does not.
//!
//! The relation is closed transitively over the pool ([`ImpliedAtoms`]).
//!
//! **Soundness** of one pair is argued in the `backchase` module docs: a
//! candidate `S` holding `b` and `a` is equivalent to `S ∖ {a}`, which is
//! constructible and cheaper, so `S` is never minimal. Constructibility:
//! with every product of `a` private, no other atom needs `a`; otherwise
//! `b`, placed where `a` stood in a construction order of `S`, is enabled
//! there and produces what `a` did. Requiring only that `b` produce `a`'s
//! shared products is not enough: `V(v)` implied by `child(w,v)` may be
//! the entry point the cycle `child(v,w)`, `child(w,v)` is built from.
//! The closure is sound because both conditions compose along a chain
//! `c ⇒ b ⇒ a`: a variable `a` shares is a variable of `b`, shared there
//! too, so the maps compose; and when `a` produces a shared variable, `b`
//! produces it as a shared one, so `c` produces it too and requires no
//! more than `b`, which requires no more than `a`.

use crate::reach::AtomIo;
use mars_cq::{Atom, AtomSet, ConjunctiveQuery, Ded, FxHashMap, Predicate, Term, Variable};

/// A TGD whose premise is one atom and whose conclusion is one conjunct of
/// atoms: what it derives from an atom depends on that atom alone.
#[derive(Clone, Debug)]
struct SinglePremiseTgd {
    premise: Atom,
    conclusion: Vec<Atom>,
}

/// One argument of an atom a TGD derives: a term of the atom it fired on
/// (or a constant of the TGD), or one of the TGD's existential variables.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Derived {
    Term(Term),
    Fresh(Variable),
}

impl SinglePremiseTgd {
    /// Does the premise match `b`? Then `binding` holds the premise's
    /// variables' images (it is overwritten either way).
    fn fires_on(&self, b: &Atom, binding: &mut Vec<(Variable, Term)>) -> bool {
        binding.clear();
        if self.premise.args.len() != b.args.len() {
            return false;
        }
        for (p, t) in self.premise.args.iter().zip(&b.args) {
            match *p {
                Term::Var(v) => match binding.iter().find(|(w, _)| *w == v) {
                    Some((_, bound)) if bound != t => return false,
                    Some(_) => {}
                    None => binding.push((v, *t)),
                },
                constant if constant != *t => return false,
                _ => {}
            }
        }
        true
    }
}

/// One argument of a conclusion atom, derived under `binding` (a premise
/// match, [`SinglePremiseTgd::fires_on`]).
fn derive(binding: &[(Variable, Term)], t: Term) -> Derived {
    match t {
        Term::Var(v) => binding
            .iter()
            .find(|(w, _)| *w == v)
            .map_or(Derived::Fresh(v), |&(_, bound)| Derived::Term(bound)),
        constant => Derived::Term(constant),
    }
}

/// The single-premise TGDs of a dependency set, by premise predicate.
#[derive(Clone, Debug, Default)]
pub(crate) struct SinglePremiseTgds {
    by_pred: FxHashMap<Predicate, Vec<SinglePremiseTgd>>,
}

impl SinglePremiseTgds {
    pub(crate) fn new(deds: &[Ded]) -> SinglePremiseTgds {
        let mut by_pred: FxHashMap<Predicate, Vec<SinglePremiseTgd>> = FxHashMap::default();
        for ded in deds {
            let ([premise], [conjunct]) = (ded.premise.as_slice(), ded.conclusions.as_slice())
            else {
                continue;
            };
            if ded.premise_inequalities.is_empty()
                && conjunct.equalities.is_empty()
                && !conjunct.atoms.is_empty()
            {
                by_pred.entry(premise.predicate).or_default().push(SinglePremiseTgd {
                    premise: premise.clone(),
                    conclusion: conjunct.atoms.clone(),
                });
            }
        }
        SinglePremiseTgds { by_pred }
    }

    fn of(&self, p: Predicate) -> &[SinglePremiseTgd] {
        self.by_pred.get(&p).map_or(&[], Vec::as_slice)
    }
}

/// Does `a` map onto the derived arguments `args` (of `a`'s predicate) by a
/// map that moves only the variables `private` accepts? The map is built in
/// `map`, which is overwritten.
fn maps_onto(
    a: &Atom,
    args: &[Derived],
    private: impl Fn(Variable) -> bool,
    map: &mut Vec<(Variable, Derived)>,
) -> bool {
    if a.args.len() != args.len() {
        return false;
    }
    map.clear();
    a.args.iter().zip(args).all(|(t, &d)| match *t {
        Term::Var(u) if private(u) => match map.iter().find(|(w, _)| *w == u) {
            Some(&(_, image)) => image == d,
            None => {
                map.push((u, d));
                true
            }
        },
        fixed => d == Derived::Term(fixed),
    })
}

/// Criterion 4 over one backchase's pool: for each pool atom, the pool
/// atoms it implies or is implied by (see the module docs). A candidate
/// holding such a pair is never minimal, so the backchase never grows one.
#[derive(Clone, Debug)]
pub(crate) struct ImpliedAtoms {
    related: Vec<AtomSet>,
}

impl ImpliedAtoms {
    /// The relation over `pool`'s body, whose head and inequalities count
    /// as further occurrences of their variables; `io` is the body's
    /// [`atom_io`](crate::reach::atom_io), in body order.
    pub(crate) fn new(
        pool: &ConjunctiveQuery,
        io: &[AtomIo],
        tgds: &SinglePremiseTgds,
    ) -> ImpliedAtoms {
        let n = pool.body.len();
        // The one pool atom a private variable occurs in; `None` for a
        // shared one.
        let mut owner: FxHashMap<Variable, Option<usize>> = FxHashMap::default();
        let outside = pool.head.iter().chain(pool.inequalities.iter().flat_map(|(s, t)| [s, t]));
        for v in outside.filter_map(Term::as_var) {
            owner.insert(v, None);
        }
        for (i, atom) in pool.body.iter().enumerate() {
            for v in atom.variables() {
                let first = owner.entry(v).or_insert(Some(i));
                if *first != Some(i) {
                    *first = None;
                }
            }
        }
        let private = |i: usize, v: Variable| owner.get(&v) == Some(&Some(i));
        // Dropping `a` beside `b` keeps the candidate constructible: `b`
        // can stand where `a` stood when it requires nothing `a` does not.
        let droppable = |a: usize, b: usize| {
            let ((requires_a, produces_a), (requires_b, produces_b)) = (&io[a], &io[b]);
            let stands_in = requires_b.iter().all(|v| requires_a.contains(v));
            produces_a.iter().all(|&v| private(a, v) || (stands_in && produces_b.contains(&v)))
        };

        // The pool atoms of each predicate: the only ones a derived atom of
        // that predicate can be mapped from.
        let mut of_predicate: FxHashMap<Predicate, Vec<usize>> = FxHashMap::default();
        for (a, atom) in pool.body.iter().enumerate() {
            of_predicate.entry(atom.predicate).or_default().push(a);
        }
        let mut implies = vec![AtomSet::new(); n];
        let (mut binding, mut args, mut map) = (Vec::new(), Vec::new(), Vec::new());
        for (b, atom_b) in pool.body.iter().enumerate() {
            for tgd in tgds.of(atom_b.predicate) {
                if !tgd.fires_on(atom_b, &mut binding) {
                    continue;
                }
                for derived in &tgd.conclusion {
                    let Some(atoms) = of_predicate.get(&derived.predicate) else { continue };
                    args.clear();
                    args.extend(derived.args.iter().map(|&t| derive(&binding, t)));
                    for &a in atoms {
                        if a != b
                            && !implies[b].contains(a)
                            && maps_onto(&pool.body[a], &args, |v| private(a, v), &mut map)
                            && droppable(a, b)
                        {
                            implies[b].insert(a);
                        }
                    }
                }
            }
        }
        // Transitive closure (Warshall, a row of bits at a time).
        for k in 0..n {
            if implies[k].is_empty() {
                continue;
            }
            let through = implies[k].clone();
            for row in implies.iter_mut().filter(|row| row.contains(k)) {
                *row = row.union(&through);
            }
        }
        let mut related = implies.clone();
        for (b, implied) in implies.iter().enumerate() {
            for a in implied.iter() {
                related[a].insert(b);
            }
        }
        for (i, row) in related.iter_mut().enumerate() {
            row.remove(i);
        }
        ImpliedAtoms { related }
    }

    /// Does pool atom `g` imply, or is it implied by, an atom of `mask`?
    pub(crate) fn pairs_with(&self, g: usize, mask: &AtomSet) -> bool {
        !self.related[g].is_disjoint(mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::{child, el, id, root, tag};

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    /// The two TIX TGDs that relate atoms of a GReX pool.
    fn el_id_tgds() -> Vec<Ded> {
        vec![
            Ded::tgd("child_el", vec![child(t("x"), t("y"))], vec![], vec![el(t("x")), el(t("y"))]),
            Ded::tgd(
                "el_id",
                vec![el(t("x"))],
                vec![Variable::named("i")],
                vec![id(t("x"), t("i"))],
            ),
        ]
    }

    /// The pairs of pool atoms criterion 4 relates, lower index first.
    fn pairs(head: &[&str], body: Vec<Atom>, deds: &[Ded]) -> Vec<(usize, usize)> {
        let n = body.len();
        let pool = ConjunctiveQuery::new("P")
            .with_head(head.iter().map(|v| t(v)).collect())
            .with_body(body);
        let io: Vec<_> = pool.body.iter().map(crate::reach::atom_io).collect();
        let implied = ImpliedAtoms::new(&pool, &io, &SinglePremiseTgds::new(deds));
        (0..n)
            .flat_map(|g| (g + 1..n).map(move |h| (g, h)))
            .filter(|&(g, h)| implied.pairs_with(g, &AtomSet::singleton(h)))
            .collect()
    }

    /// `root(r), child(r,x), tag(x,"a"), el(r), el(x)` and one more atom.
    fn navigation(last: Atom) -> Vec<Atom> {
        vec![root(t("r")), child(t("r"), t("x")), tag(t("x"), "a"), el(t("r")), el(t("x")), last]
    }

    #[test]
    fn child_implies_el_and_through_it_id() {
        let got = pairs(&["x"], navigation(id(t("x"), t("i"))), &el_id_tgds());
        // child ⇒ el(r), el(x); el(x) ⇒ id(x,i); child ⇒ id(x,i) by the closure.
        assert_eq!(got, [(1, 3), (1, 4), (1, 5), (4, 5)]);
    }

    /// An `id` whose identity is a head variable, or joins another pool
    /// atom, is not implied: the map would have to move a shared variable.
    #[test]
    fn shared_identity_is_not_implied() {
        let base = [(1, 3), (1, 4)];
        assert_eq!(pairs(&["x", "i"], navigation(id(t("x"), t("i"))), &el_id_tgds()), base);
        let mut joined = navigation(id(t("x"), t("i")));
        joined.push(Atom::named("R", vec![t("i"), t("v")]));
        assert_eq!(pairs(&["v"], joined, &el_id_tgds()), base);
    }

    /// Only a TGD with one premise atom, one conjunct and no equality or
    /// inequality is read.
    #[test]
    fn other_dependencies_relate_nothing() {
        let (x, y, i) = (t("x"), t("y"), t("i"));
        let deds = vec![
            Ded::tgd("two_premises", vec![child(x, y), root(t("r"))], vec![], vec![el(x), el(y)]),
            Ded::tgd("unequal", vec![child(x, y)], vec![], vec![el(x)])
                .with_premise_inequalities(vec![(x, y)]),
            Ded::disjunctive(
                "equality",
                vec![el(x)],
                vec![mars_cq::Conjunct::atoms(vec![id(x, i)]).with_equalities(vec![(i, i)])],
            ),
            Ded::disjunctive(
                "disjunctive",
                vec![el(x)],
                vec![
                    mars_cq::Conjunct::atoms(vec![id(x, i)]),
                    mars_cq::Conjunct::atoms(vec![id(x, i)]),
                ],
            ),
        ];
        assert_eq!(pairs(&["x"], navigation(id(x, i)), &deds), []);
    }

    /// Dropping the implied atom must keep the candidate constructible.
    #[test]
    fn an_implied_atom_that_navigation_needs_is_kept() {
        let (x, y) = (t("x"), t("y"));
        // `V(x,y) :- child(x,y)` as its view dependency: V is the entry point
        // `child(x,y)` needs, so `{V, child}` is no `{child}` plus an atom.
        let view = Ded::tgd("bV", vec![child(x, y)], vec![], vec![Atom::named("V", vec![x, y])]);
        assert_eq!(pairs(&["y"], vec![Atom::named("V", vec![x, y]), child(x, y)], &[view]), []);
        // A relation implied by an entry point that produces what it does is
        // dropped: `R(x,y) → ∃z S(y,z)`, with `z` private.
        let fk = Ded::tgd(
            "fk",
            vec![Atom::named("R", vec![x, y])],
            vec![Variable::named("z")],
            vec![Atom::named("S", vec![y, t("z")])],
        );
        let body = vec![Atom::named("R", vec![x, y]), Atom::named("S", vec![y, t("w")])];
        assert_eq!(pairs(&["x"], body.clone(), std::slice::from_ref(&fk)), [(0, 1)]);
        // The same `S` atom with its second column in the head is kept.
        assert_eq!(pairs(&["x", "w"], body, &[fk]), []);
    }
}
