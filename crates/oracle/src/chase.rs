//! The naive chase.
//!
//! This is a direct, per-homomorphism implementation of the chase of a query
//! with a set of DEDs, in the style of the original C&B prototype ("A Chase
//! Too Far?", SIGMOD 2000) that the MARS paper uses as its baseline. Each
//! chase step searches for a single premise homomorphism with backtracking,
//! checks extension to the conclusion, and applies the step; the search
//! restarts from scratch after every applied step. The scalable set-oriented
//! implementation of Section 3.1 lives in the `mars-chase` crate.
//!
//! Disjunctive dependencies produce a *chase tree*: each applied disjunctive
//! step splits the current query into one branch per disjunct. Equality
//! conclusions (EGD components) unify terms; unifying two distinct constants
//! fails the branch. Denial constraints fail the branch outright.

use crate::homomorphism::{extend_to_conclusion, find_all_homomorphisms, AtomIndex};
use mars_cq::{Atom, Conjunct, ConjunctiveQuery, Ded, Substitution, Term, VarGen};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Resource limits for the chase. The chase with arbitrary embedded
/// dependencies need not terminate; MARS relies on the restrictions of
/// [Deutsch & Tannen, ICDT 2003] for termination, and this budget is a safety
/// net for experiments that intentionally exceed them (e.g. the stress test).
#[derive(Clone, Debug)]
pub struct ChaseBudget {
    /// Maximum number of applied chase steps across the whole tree.
    pub max_steps: usize,
    /// Maximum number of atoms in any branch.
    pub max_atoms: usize,
    /// Maximum number of live branches of the chase tree.
    pub max_branches: usize,
    /// Wall-clock timeout.
    pub timeout: Option<Duration>,
}

impl Default for ChaseBudget {
    fn default() -> Self {
        ChaseBudget { max_steps: 100_000, max_atoms: 20_000, max_branches: 64, timeout: None }
    }
}

impl ChaseBudget {
    /// A small budget for unit tests.
    pub fn small() -> ChaseBudget {
        ChaseBudget { max_steps: 2_000, max_atoms: 2_000, max_branches: 16, timeout: None }
    }

    /// Budget with a wall-clock timeout (used to cap the "old implementation"
    /// baseline in the stress-test experiment instead of running for hours).
    pub fn with_timeout(mut self, d: Duration) -> ChaseBudget {
        self.timeout = Some(d);
        self
    }
}

/// Why the chase stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// No more chase step applies anywhere: the result is the universal plan.
    Terminated,
    /// The step budget was exhausted.
    BudgetExceeded,
    /// The wall-clock timeout was exceeded.
    TimedOut,
}

/// The result of chasing a query: a set of leaves (one per surviving branch
/// of the chase tree) plus bookkeeping.
#[derive(Clone, Debug)]
pub struct ChaseTree {
    /// Surviving branches. For non-disjunctive dependency sets this has
    /// exactly one element (or zero if the query is inconsistent with the
    /// constraints).
    pub leaves: Vec<ConjunctiveQuery>,
    /// Number of branches that failed (denial constraint fired or constants
    /// were forced equal).
    pub failed_branches: usize,
    /// Number of applied chase steps.
    pub steps: usize,
    /// Why the chase stopped.
    pub outcome: ChaseOutcome,
}

impl ChaseTree {
    /// The single leaf, for the common non-disjunctive case.
    pub fn single(&self) -> Option<&ConjunctiveQuery> {
        if self.leaves.len() == 1 {
            self.leaves.first()
        } else {
            None
        }
    }

    /// Did the chase terminate normally?
    pub fn terminated(&self) -> bool {
        self.outcome == ChaseOutcome::Terminated
    }
}

/// One branch of the chase tree during execution.
#[derive(Clone)]
struct Branch {
    query: ConjunctiveQuery,
    /// Dedup set of atoms already in the body.
    atom_set: HashSet<Atom>,
}

impl Branch {
    fn new(query: ConjunctiveQuery) -> Branch {
        let atom_set = query.body.iter().cloned().collect();
        Branch { query, atom_set }
    }

    fn push_atom(&mut self, atom: Atom) {
        if self.atom_set.insert(atom.clone()) {
            self.query.body.push(atom);
        }
    }

    /// Apply a term-level unification across the branch. Returns `false` if
    /// two distinct constants were forced equal (branch fails).
    fn unify(&mut self, a: Term, b: Term) -> bool {
        if a == b {
            return true;
        }
        let (from, to) = match (a, b) {
            (Term::Var(v), t) => (v, t),
            (t, Term::Var(v)) => (v, t),
            (Term::Const(_), Term::Const(_)) => return false,
        };
        let mut s = Substitution::new();
        s.set(from, to);
        self.query = self.query.apply(&s);
        self.atom_set = self.query.body.iter().cloned().collect();
        // Deduplicate body atoms that became identical after unification.
        let mut seen = HashSet::new();
        self.query.body.retain(|atom| seen.insert(atom.clone()));
        self.atom_set = seen;
        true
    }
}

/// Apply one conjunct of a DED conclusion under homomorphism `h` to a branch.
/// Returns `false` if the branch fails.
fn apply_conjunct(branch: &mut Branch, conjunct: &Conjunct, h: &Substitution) -> bool {
    // Freshen existential variables.
    let mut gen = VarGen::avoiding(
        branch.query.body.iter().flat_map(|a| a.args.iter()).chain(branch.query.head.iter()),
    );
    let mut freshened = h.clone();
    for ex in &conjunct.exists {
        let fresh = gen.fresh(*ex);
        freshened.set(*ex, Term::Var(fresh));
    }
    // Any conclusion variable that is neither premise-bound nor declared
    // existential is still implicitly existential; freshen it too.
    for v in conjunct.variables() {
        if !freshened.binds(v) {
            let fresh = gen.fresh(v);
            freshened.set(v, Term::Var(fresh));
        }
    }
    for atom in &conjunct.atoms {
        branch.push_atom(freshened.apply_atom(atom));
    }
    for (x, y) in &conjunct.equalities {
        let ix = freshened.apply_term(*x);
        let iy = freshened.apply_term(*y);
        if !branch.unify(ix, iy) {
            return false;
        }
    }
    true
}

/// Chase `query` with the dependencies `deds` under the given budget.
///
/// The returned leaves are the branches of the chase tree at the point the
/// chase stopped; when [`ChaseOutcome::Terminated`] they are exactly the
/// universal plans of the input (one per disjunctive branch).
pub fn naive_chase(query: &ConjunctiveQuery, deds: &[Ded], budget: &ChaseBudget) -> ChaseTree {
    let start = Instant::now();
    let mut branches = vec![Branch::new(query.clone())];
    let mut failed = 0usize;
    let mut steps = 0usize;

    loop {
        if let Some(t) = budget.timeout {
            if start.elapsed() > t {
                return ChaseTree {
                    leaves: branches.into_iter().map(|b| b.query).collect(),
                    failed_branches: failed,
                    steps,
                    outcome: ChaseOutcome::TimedOut,
                };
            }
        }
        if steps >= budget.max_steps {
            return ChaseTree {
                leaves: branches.into_iter().map(|b| b.query).collect(),
                failed_branches: failed,
                steps,
                outcome: ChaseOutcome::BudgetExceeded,
            };
        }

        // Find one applicable chase step anywhere (branch, ded, homomorphism).
        let mut applied = false;
        let mut next_branches: Vec<Branch> = Vec::new();
        let mut branch_failed_now = 0usize;

        'branches: for (bi, branch) in branches.iter().enumerate() {
            if branch.query.body.len() >= budget.max_atoms {
                continue;
            }
            let index = AtomIndex::new(&branch.query.body);
            for ded in deds {
                let homs = find_all_homomorphisms(&ded.premise, &index, &Substitution::new(), None);
                for h in homs {
                    // Respect premise inequalities.
                    if ded
                        .premise_inequalities
                        .iter()
                        .any(|(a, b)| h.apply_term(*a) == h.apply_term(*b))
                    {
                        continue;
                    }
                    // Step applies iff no disjunct already extends.
                    let satisfied =
                        ded.conclusions.iter().any(|c| extend_to_conclusion(c, &h, &index));
                    if satisfied {
                        continue;
                    }
                    // Apply the step: branch per disjunct.
                    applied = true;
                    steps += 1;
                    if ded.conclusions.is_empty() {
                        // Denial constraint: the branch fails.
                        branch_failed_now += 1;
                    } else {
                        for conjunct in &ded.conclusions {
                            let mut child = branch.clone();
                            if apply_conjunct(&mut child, conjunct, &h) {
                                next_branches.push(child);
                            } else {
                                branch_failed_now += 1;
                            }
                        }
                    }
                    // Keep all other branches untouched.
                    for (bj, other) in branches.iter().enumerate() {
                        if bj != bi {
                            next_branches.push(other.clone());
                        }
                    }
                    break 'branches;
                }
            }
        }

        if !applied {
            return ChaseTree {
                leaves: branches.into_iter().map(|b| b.query).collect(),
                failed_branches: failed,
                steps,
                outcome: ChaseOutcome::Terminated,
            };
        }
        failed += branch_failed_now;
        branches = next_branches;
        if branches.len() > budget.max_branches {
            branches.truncate(budget.max_branches);
        }
        if branches.is_empty() {
            return ChaseTree {
                leaves: Vec::new(),
                failed_branches: failed,
                steps,
                outcome: ChaseOutcome::Terminated,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::ded::view_dependencies;
    use mars_cq::Variable;

    fn t(n: &str) -> Term {
        Term::var(n)
    }
    fn v(n: &str) -> Variable {
        Variable::named(n)
    }

    /// Section 2.3 worked example: Q(x) :- A(x,y) chased with (ind) and (cV)
    /// yields the universal plan Q2(x) :- A(x,y), B(y,z), V(x,z).
    #[test]
    fn section_2_3_universal_plan() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let ind = Ded::tgd(
            "ind",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("B", vec![t("y"), t("z")])],
        );
        let defq = ConjunctiveQuery::new("V").with_head(vec![t("x"), t("z")]).with_body(vec![
            Atom::named("A", vec![t("x"), t("y")]),
            Atom::named("B", vec![t("y"), t("z")]),
        ]);
        let (c_v, b_v) = view_dependencies("V", &defq);
        let tree = naive_chase(&q, &[ind, c_v, b_v], &ChaseBudget::small());
        assert!(tree.terminated());
        let up = tree.single().expect("one branch");
        assert_eq!(up.body.len(), 3);
        let preds: Vec<&str> = up.body.iter().map(|a| a.predicate.name()).collect();
        assert!(preds.contains(&"A"));
        assert!(preds.contains(&"B"));
        assert!(preds.contains(&"V"));
        // Exactly two steps were needed: (ind) then (cV).
        assert_eq!(tree.steps, 2);
    }

    /// Example 3.1: one applicable step, and re-chasing does not reapply it.
    #[test]
    fn example_3_1_single_step() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("a"), t("g")]).with_body(vec![
            Atom::named("R", vec![t("a"), t("b")]),
            Atom::named("R", vec![t("b"), t("c")]),
            Atom::named("R", vec![t("c"), t("d")]),
            Atom::named("S", vec![t("d"), t("e")]),
            Atom::named("S", vec![t("e"), t("f")]),
            Atom::named("S", vec![t("f"), t("g")]),
        ]);
        let c = Ded::tgd(
            "c",
            vec![
                Atom::named("R", vec![t("x"), t("y")]),
                Atom::named("R", vec![t("y"), t("z")]),
                Atom::named("S", vec![t("z"), t("u")]),
                Atom::named("S", vec![t("u"), t("v")]),
            ],
            vec![],
            vec![Atom::named("T", vec![t("x"), t("v")])],
        );
        let tree = naive_chase(&q, &[c], &ChaseBudget::small());
        assert!(tree.terminated());
        assert_eq!(tree.steps, 1);
        let up = tree.single().unwrap();
        assert!(up.body.contains(&Atom::named("T", vec![t("b"), t("f")])));
        assert_eq!(up.body.len(), 7);
    }

    #[test]
    fn transitive_closure_chase_on_chain() {
        // chain of 4 child atoms + (base),(trans),(refl over els) produces the
        // full reflexive-transitive closure in desc.
        let q = ConjunctiveQuery::new("chain").with_head(vec![t("x1")]).with_body(vec![
            child(t("x1"), t("x2")),
            child(t("x2"), t("x3")),
            child(t("x3"), t("x4")),
        ]);
        let base =
            Ded::tgd("base", vec![child(t("x"), t("y"))], vec![], vec![desc(t("x"), t("y"))]);
        let trans = Ded::tgd(
            "trans",
            vec![desc(t("x"), t("y")), desc(t("y"), t("z"))],
            vec![],
            vec![desc(t("x"), t("z"))],
        );
        let tree = naive_chase(&q, &[base, trans], &ChaseBudget::small());
        assert!(tree.terminated());
        let up = tree.single().unwrap();
        let desc_count = up.body.iter().filter(|a| a.predicate.name() == "desc#d.xml").count();
        // pairs (i,j) with i<j over 4 nodes: 6
        assert_eq!(desc_count, 6);
    }

    #[test]
    fn egd_unifies_variables() {
        // key: R(k,a) ∧ R(k,b) → a=b ; query has R(k,x), R(k,y), S(x), T(y)
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("k")]).with_body(vec![
            Atom::named("R", vec![t("k"), t("x")]),
            Atom::named("R", vec![t("k"), t("y")]),
            Atom::named("S", vec![t("x")]),
            Atom::named("T", vec![t("y")]),
        ]);
        let key = Ded::egd(
            "key",
            vec![Atom::named("R", vec![t("u"), t("p")]), Atom::named("R", vec![t("u"), t("q")])],
            t("p"),
            t("q"),
        );
        let tree = naive_chase(&q, &[key], &ChaseBudget::small());
        assert!(tree.terminated());
        let up = tree.single().unwrap();
        // x and y are unified, so R(k,·) collapses to one atom and S,T share the variable.
        let r_count = up.body.iter().filter(|a| a.predicate.name() == "R").count();
        assert_eq!(r_count, 1);
        let s_arg = up.body.iter().find(|a| a.predicate.name() == "S").unwrap().args[0];
        let t_arg = up.body.iter().find(|a| a.predicate.name() == "T").unwrap().args[0];
        assert_eq!(s_arg, t_arg);
    }

    #[test]
    fn egd_on_distinct_constants_fails_branch() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![]).with_body(vec![
            Atom::named("R", vec![t("k"), Term::constant_str("a")]),
            Atom::named("R", vec![t("k"), Term::constant_str("b")]),
        ]);
        let key = Ded::egd(
            "key",
            vec![Atom::named("R", vec![t("u"), t("p")]), Atom::named("R", vec![t("u"), t("q")])],
            t("p"),
            t("q"),
        );
        let tree = naive_chase(&q, &[key], &ChaseBudget::small());
        assert!(tree.terminated());
        assert!(tree.leaves.is_empty());
        assert!(tree.failed_branches > 0);
    }

    #[test]
    fn denial_constraint_fails_branch() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![]).with_body(vec![child(t("x"), t("x"))]);
        let d = Ded::denial("no_self", vec![child(t("u"), t("u"))]);
        let tree = naive_chase(&q, &[d], &ChaseBudget::small());
        assert!(tree.terminated());
        assert!(tree.leaves.is_empty());
        assert_eq!(tree.failed_branches, 1);
    }

    #[test]
    fn disjunctive_dependency_branches() {
        // R(x) → S(x) ∨ T(x): chasing Q():-R(a) gives two leaves.
        let d = Ded::disjunctive(
            "st",
            vec![Atom::named("R", vec![t("x")])],
            vec![
                Conjunct::atoms(vec![Atom::named("S", vec![t("x")])]),
                Conjunct::atoms(vec![Atom::named("T", vec![t("x")])]),
            ],
        );
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("a")])
            .with_body(vec![Atom::named("R", vec![t("a")])]);
        let tree = naive_chase(&q, &[d], &ChaseBudget::small());
        assert!(tree.terminated());
        assert_eq!(tree.leaves.len(), 2);
        let has_s = tree.leaves.iter().any(|l| l.body.iter().any(|a| a.predicate.name() == "S"));
        let has_t = tree.leaves.iter().any(|l| l.body.iter().any(|a| a.predicate.name() == "T"));
        assert!(has_s && has_t);
    }

    #[test]
    fn budget_limits_steps() {
        // A dependency that never converges within a tiny budget:
        // R(x,y) → ∃z R(y,z)  (infinite chase)
        let d = Ded::tgd(
            "inf",
            vec![Atom::named("R", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("R", vec![t("y"), t("z")])],
        );
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("a")])
            .with_body(vec![Atom::named("R", vec![t("a"), t("b")])]);
        let budget = ChaseBudget { max_steps: 5, max_atoms: 100, max_branches: 4, timeout: None };
        let tree = naive_chase(&q, &[d], &budget);
        assert_eq!(tree.outcome, ChaseOutcome::BudgetExceeded);
        assert_eq!(tree.steps, 5);
    }

    #[test]
    fn timeout_is_respected() {
        let d = Ded::tgd(
            "inf",
            vec![Atom::named("R", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("R", vec![t("y"), t("z")])],
        );
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("a")])
            .with_body(vec![Atom::named("R", vec![t("a"), t("b")])]);
        let budget = ChaseBudget::default().with_timeout(Duration::from_millis(0));
        let tree = naive_chase(&q, &[d], &budget);
        assert_eq!(tree.outcome, ChaseOutcome::TimedOut);
    }

    #[test]
    fn premise_inequalities_block_steps() {
        // R(x,y) ∧ x≠y → S(x): with body R(a,a) only, no step applies.
        let d = Ded::tgd(
            "neq",
            vec![Atom::named("R", vec![t("x"), t("y")])],
            vec![],
            vec![Atom::named("S", vec![t("x")])],
        )
        .with_premise_inequalities(vec![(t("x"), t("y"))]);
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![])
            .with_body(vec![Atom::named("R", vec![t("a"), t("a")])]);
        let tree = naive_chase(&q, std::slice::from_ref(&d), &ChaseBudget::small());
        assert!(tree.terminated());
        assert_eq!(tree.steps, 0);

        // With R(a,b) the step applies.
        let q2 = ConjunctiveQuery::new("Q2")
            .with_head(vec![])
            .with_body(vec![Atom::named("R", vec![t("a"), t("b")])]);
        let tree2 = naive_chase(&q2, &[d], &ChaseBudget::small());
        assert_eq!(tree2.steps, 1);
    }

    #[test]
    fn chase_is_idempotent_on_satisfied_queries() {
        let base =
            Ded::tgd("base", vec![child(t("x"), t("y"))], vec![], vec![desc(t("x"), t("y"))]);
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("a")])
            .with_body(vec![child(t("a"), t("b")), desc(t("a"), t("b"))]);
        let tree = naive_chase(&q, &[base], &ChaseBudget::small());
        assert!(tree.terminated());
        assert_eq!(tree.steps, 0);
        assert_eq!(tree.single().unwrap().body.len(), 2);
    }
}
