//! Compiled constraints.
//!
//! Constraints are compiled once, when read into the system (Section 3.1):
//! the premise becomes a join plan evaluated over the symbolic instance and
//! each conclusion disjunct becomes the probe side of a semijoin used for the
//! extension check.
//!
//! [`CompiledDeps`] packages the full dependency set in its chase-ready form
//! (closure-shortcut detection, EGD-priority ordering, per-DED compilation)
//! so that a `Mars` instance — or any other long-lived engine — compiles the
//! set **once** and shares it across every chase, back-chase, branch and
//! query block via `Arc`. Before this type existed every chase recompiled
//! the dependency set from scratch, which dominated the backchase hot loop.

use crate::evaluate::{evaluate_bindings_ordered, order_atoms, satisfiable_ordered};
use crate::instance::SymbolicInstance;
use crate::shortcut::{detect_closure_constraints, ClosureConstraints};
use mars_cq::{Atom, Conjunct, Ded, Predicate, Substitution, Term, Variable};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A compiled conclusion disjunct.
#[derive(Clone, Debug)]
pub struct CompiledConclusion {
    /// The original conjunct.
    pub conjunct: Conjunct,
    /// True if the conjunct has no atoms (pure equality / EGD component).
    pub is_pure_equality: bool,
    /// Precompiled semijoin atom order for the extension check. The
    /// satisfiability search is entered with the premise variables (and any
    /// equality-forced existentials) bound, and only the bound *set* steers
    /// the ordering heuristic — so the order is computed once here instead
    /// of per blocked test, the chase's highest-volume call. The order can
    /// never change the boolean answer, only the search cost.
    order: Vec<usize>,
}

impl CompiledConclusion {
    fn new(conjunct: &Conjunct, premise: &[Atom]) -> CompiledConclusion {
        // Variables bound when the extension check runs: every premise
        // variable (the homomorphism binds all of them) plus variables a
        // conclusion equality may force a binding for. Over-approximating
        // the bound set only affects ordering quality, never soundness.
        let mut bound: Vec<Variable> = premise.iter().flat_map(|a| a.variables()).collect();
        for (a, b) in &conjunct.equalities {
            bound.extend(a.as_var());
            bound.extend(b.as_var());
        }
        CompiledConclusion {
            is_pure_equality: conjunct.atoms.is_empty(),
            order: order_atoms(&conjunct.atoms, &bound),
            conjunct: conjunct.clone(),
        }
    }

    /// Does the homomorphism `h` (from the owning DED's premise into `inst`)
    /// extend to this conclusion over `inst`?
    ///
    /// Equalities among premise-bound terms are checked directly; equalities
    /// that mention a still-free existential variable force a binding for it;
    /// remaining atoms are checked by a (semijoin-style) satisfiability query
    /// over the instance.
    pub fn satisfied(&self, h: &Substitution, inst: &SymbolicInstance) -> bool {
        let mut init = h.clone();
        for (a, b) in &self.conjunct.equalities {
            let ia = init.apply_term_deep(*a);
            let ib = init.apply_term_deep(*b);
            if ia == ib {
                continue;
            }
            if let Term::Var(v) = ia {
                if a.as_var() == Some(v) && !init.binds(v) {
                    init.set(v, ib);
                    continue;
                }
            }
            if let Term::Var(v) = ib {
                if b.as_var() == Some(v) && !init.binds(v) {
                    init.set(v, ia);
                    continue;
                }
            }
            return false;
        }
        if self.conjunct.atoms.is_empty() {
            return true;
        }
        satisfiable_ordered(&self.conjunct.atoms, &[], inst, init, &self.order)
    }
}

/// A DED compiled for set-oriented chasing.
#[derive(Clone, Debug)]
pub struct CompiledDed {
    /// The source dependency.
    pub ded: Ded,
    /// Compiled conclusions (empty for denial constraints).
    pub conclusions: Vec<CompiledConclusion>,
    /// The premise join order, chosen once at compile time (the order
    /// depends only on the atoms and the — empty — set of initially bound
    /// variables, so recomputing it per evaluation was pure waste). Which
    /// join *strategy* each ordered step uses (scan vs index probe) is
    /// resolved at evaluation time from the relation's size
    /// ([`crate::evaluate::SCAN_THRESHOLD`]).
    pub premise_order: Vec<usize>,
}

impl CompiledDed {
    /// Compile a dependency.
    pub fn compile(ded: &Ded) -> CompiledDed {
        CompiledDed {
            conclusions: ded
                .conclusions
                .iter()
                .map(|c| CompiledConclusion::new(c, &ded.premise))
                .collect(),
            premise_order: order_atoms(&ded.premise, &[]),
            ded: ded.clone(),
        }
    }

    /// Compile a set of dependencies.
    pub fn compile_all(deds: &[Ded]) -> Vec<CompiledDed> {
        deds.iter().map(CompiledDed::compile).collect()
    }

    /// All homomorphisms from the premise into the instance (respecting the
    /// premise inequalities), found in bulk by hash-join evaluation along
    /// the precompiled [`CompiledDed::premise_order`].
    pub fn premise_bindings(&self, inst: &SymbolicInstance) -> Vec<Substitution> {
        evaluate_bindings_ordered(
            &self.ded.premise,
            &self.ded.premise_inequalities,
            inst,
            &Substitution::new(),
            &self.premise_order,
        )
    }

    /// Is the chase step for homomorphism `h` *blocked* (some conclusion
    /// disjunct already holds)?
    pub fn blocked(&self, h: &Substitution, inst: &SymbolicInstance) -> bool {
        self.conclusions.iter().any(|c| c.satisfied(h, inst))
    }
}

/// Number of dependency-set compilations performed since process start.
///
/// Used by regression tests to verify that long-lived engines compile their
/// dependency set exactly once — no public entry point may recompile per
/// chase, per candidate or per query block.
static COMPILATIONS: AtomicUsize = AtomicUsize::new(0);

/// The process-wide dependency-set compilation count (see [`CompiledDeps`]).
pub fn compilation_count() -> usize {
    COMPILATIONS.load(Ordering::SeqCst)
}

/// Premise-predicate index over a compiled DED list, driving the chase's
/// delta rounds: a dependency whose premise mentions none of the predicates
/// touched since it was last confirmed at fixpoint cannot acquire a new
/// unblocked premise binding (the instance only grows, and blocked steps
/// stay blocked), so the round skips it without evaluating anything.
#[derive(Clone, Debug, Default)]
pub struct DedIndex {
    /// Per predicate, every dependency whose premise mentions it.
    by_pred: HashMap<Predicate, Vec<usize>>,
    n: usize,
}

impl DedIndex {
    fn new(compiled: &[CompiledDed]) -> DedIndex {
        let mut by_pred: HashMap<Predicate, Vec<usize>> = HashMap::new();
        for (i, d) in compiled.iter().enumerate() {
            for a in &d.ded.premise {
                let dis = by_pred.entry(a.predicate).or_default();
                if dis.last() != Some(&i) {
                    dis.push(i);
                }
            }
        }
        DedIndex { by_pred, n: compiled.len() }
    }

    /// The needs-check vector a chase starts from. `None` means everything
    /// is dirty (a from-scratch chase); `Some(preds)` restricts the initial
    /// work to dependencies whose premise mentions one of `preds` (a chase
    /// resumed from a fixpoint seed extended with atoms of those predicates).
    pub fn initial_needs(&self, dirty: Option<&HashSet<Predicate>>) -> Vec<bool> {
        match dirty {
            None => vec![true; self.n],
            Some(set) => {
                let mut needs = vec![false; self.n];
                for p in set {
                    self.mark(*p, &mut needs);
                }
                needs
            }
        }
    }

    /// Mark every dependency whose premise mentions `p` as needing a
    /// re-check (an atom of that predicate was inserted, or an EGD
    /// unification rewrote its relation).
    pub fn mark(&self, p: Predicate, needs: &mut [bool]) {
        if let Some(dis) = self.by_pred.get(&p) {
            for &i in dis {
                needs[i] = true;
            }
        }
    }
}

/// A dependency set compiled once for repeated chasing.
///
/// Holds the source DEDs plus everything `run_chase` needs precomputed:
/// the detected closure-shortcut constraints, the EGD-priority-sorted
/// compiled DED lists — both with the closure constraints excluded
/// (shortcut on) and included (shortcut off) — and the premise-predicate
/// indexes driving the delta rounds. Build it once per engine / `Mars`
/// instance and share it via `Arc` — every chase and back-chase then reuses
/// the same compilation.
#[derive(Clone, Debug)]
pub struct CompiledDeps {
    deds: Vec<Ded>,
    /// EGD-priority-sorted compiled DEDs excluding the closure-shortcut
    /// constraints (used when `ChaseOptions::use_shortcut` is on).
    shortcut_rest: Vec<CompiledDed>,
    /// EGD-priority-sorted compiled DEDs, all of them (shortcut off).
    all: Vec<CompiledDed>,
    /// Premise-predicate indexes aligned with the two lists above.
    shortcut_index: DedIndex,
    all_index: DedIndex,
    /// The detected `(refl)/(base)/(trans)` closure constraints.
    closure: ClosureConstraints,
}

/// EGD-priority order: denials first (fail fast), then pure
/// equality-generating dependencies, then tuple-generating ones. Since the
/// chase restarts its round whenever an equality is applied, this runs every
/// unification to fixpoint *before* any TGD invents new atoms — otherwise a
/// TGD can fire on two pre-unification duplicates and create spurious
/// existential structure that no later equality removes (the instances stay
/// homomorphically equivalent, but grow multiplicatively with each
/// duplicated pattern).
fn egd_priority(d: &CompiledDed) -> u8 {
    if d.conclusions.is_empty() {
        0
    } else if d.conclusions.iter().all(|c| c.conjunct.atoms.is_empty()) {
        1
    } else {
        2
    }
}

impl CompiledDeps {
    /// Compile a dependency set (closure detection + per-DED compilation +
    /// EGD-priority ordering). This is the only place dependency compilation
    /// happens; it increments the process-wide [`compilation_count`].
    pub fn new(deds: &[Ded]) -> CompiledDeps {
        COMPILATIONS.fetch_add(1, Ordering::SeqCst);
        let closure = detect_closure_constraints(deds);
        let skip: HashSet<usize> = closure.indices().into_iter().collect();
        let mut all: Vec<CompiledDed> = deds.iter().map(CompiledDed::compile).collect();
        let mut shortcut_rest: Vec<CompiledDed> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| !skip.contains(i))
            .map(|(_, d)| d.clone())
            .collect();
        all.sort_by_key(egd_priority);
        shortcut_rest.sort_by_key(egd_priority);
        let shortcut_index = DedIndex::new(&shortcut_rest);
        let all_index = DedIndex::new(&all);
        CompiledDeps { deds: deds.to_vec(), shortcut_rest, all, shortcut_index, all_index, closure }
    }

    /// The source dependency set.
    pub fn deds(&self) -> &[Ded] {
        &self.deds
    }

    /// The compiled DEDs the chase should run, given whether the closure
    /// shortcut is active, plus the closure constraints to apply directly
    /// (`None` when the shortcut is off) and the premise-predicate index
    /// aligned with the returned list.
    pub fn for_chase(
        &self,
        use_shortcut: bool,
    ) -> (&[CompiledDed], Option<&ClosureConstraints>, &DedIndex) {
        if use_shortcut {
            (&self.shortcut_rest, Some(&self.closure), &self.shortcut_index)
        } else {
            (&self.all, None, &self.all_index)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::{Atom, ConjunctiveQuery, Ded, Term, Variable};

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    fn instance_of(atoms: Vec<Atom>) -> SymbolicInstance {
        let q = ConjunctiveQuery::new("Q").with_body(atoms);
        SymbolicInstance::from_query(&q)
    }

    #[test]
    fn tgd_blocking_detection() {
        // base: child(x,y) → desc(x,y)
        let base =
            Ded::tgd("base", vec![child(t("x"), t("y"))], vec![], vec![desc(t("x"), t("y"))]);
        let c = CompiledDed::compile(&base);
        let inst_without = instance_of(vec![child(t("a"), t("b"))]);
        let inst_with = instance_of(vec![child(t("a"), t("b")), desc(t("a"), t("b"))]);
        let hs = c.premise_bindings(&inst_without);
        assert_eq!(hs.len(), 1);
        assert!(!c.blocked(&hs[0], &inst_without));
        assert!(c.blocked(&hs[0], &inst_with));
    }

    #[test]
    fn egd_blocking_detection() {
        // key: R(k,a) ∧ R(k,b) → a=b
        let key = Ded::egd(
            "key",
            vec![Atom::named("R", vec![t("k"), t("a")]), Atom::named("R", vec![t("k"), t("b")])],
            t("a"),
            t("b"),
        );
        let c = CompiledDed::compile(&key);
        assert!(c.conclusions[0].is_pure_equality);
        let inst = instance_of(vec![
            Atom::named("R", vec![t("u"), t("x")]),
            Atom::named("R", vec![t("u"), t("y")]),
        ]);
        let hs = c.premise_bindings(&inst);
        // Homomorphisms include mappings with a=b (blocked) and a≠b (unblocked).
        assert!(hs.iter().any(|h| c.blocked(h, &inst)));
        assert!(hs.iter().any(|h| !c.blocked(h, &inst)));
    }

    #[test]
    fn existential_conclusions_use_semijoin() {
        // ind: A(x,y) → ∃z B(y,z)
        let ind = Ded::tgd(
            "ind",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![Variable::named("z")],
            vec![Atom::named("B", vec![t("y"), t("z")])],
        );
        let c = CompiledDed::compile(&ind);
        let inst_no_b = instance_of(vec![Atom::named("A", vec![t("a"), t("b")])]);
        let inst_b = instance_of(vec![
            Atom::named("A", vec![t("a"), t("b")]),
            Atom::named("B", vec![t("b"), t("c")]),
        ]);
        let h = &c.premise_bindings(&inst_no_b)[0];
        assert!(!c.blocked(h, &inst_no_b));
        assert!(c.blocked(h, &inst_b));
    }

    #[test]
    fn premise_inequalities_respected_in_bindings() {
        let d = Ded::tgd(
            "neq",
            vec![Atom::named("R", vec![t("x"), t("y")])],
            vec![],
            vec![Atom::named("S", vec![t("x")])],
        )
        .with_premise_inequalities(vec![(t("x"), t("y"))]);
        let c = CompiledDed::compile(&d);
        let inst = instance_of(vec![
            Atom::named("R", vec![t("a"), t("a")]),
            Atom::named("R", vec![t("a"), t("b")]),
        ]);
        assert_eq!(c.premise_bindings(&inst).len(), 1);
    }

    #[test]
    fn denial_has_no_conclusions() {
        let d = Ded::denial("no_self", vec![child(t("x"), t("x"))]);
        let c = CompiledDed::compile(&d);
        assert!(c.conclusions.is_empty());
        let inst = instance_of(vec![child(t("a"), t("a"))]);
        let hs = c.premise_bindings(&inst);
        assert_eq!(hs.len(), 1);
        assert!(!c.blocked(&hs[0], &inst));
    }
}
