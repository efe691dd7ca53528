//! Compiled constraints.
//!
//! Constraints are compiled once, when read into the system (Section 3.1):
//! the premise becomes a join program evaluated over the symbolic instance
//! (`JoinProgram`) and each conclusion disjunct becomes the probe side of a
//! semijoin used for the extension check, compiled against the premise's
//! slot layout so it reads a premise row directly.
//!
//! The chase asks a compiled dependency for its **unblocked** premise
//! bindings only ([`CompiledDed::unblocked_bindings`]): the blocked test runs
//! over the flat rows of the premise join — for a single pure-equality
//! conclusion over premise variables (keys, `unique_child`, single-valued
//! fields) it is pushed *into* the join, so a row whose equalities already
//! hold is dropped before it joins the remaining atoms — and a
//! [`Substitution`] is built only for a binding that is about to fire.
//!
//! [`CompiledDeps`] packages the full dependency set in its chase-ready form
//! (closure-shortcut detection, EGD-priority ordering, per-DED compilation,
//! and the functional dependencies its key-shaped EGDs state, by predicate,
//! which let a chase step reuse the term a key already determines instead
//! of inventing a variable for it; and the single-premise TGDs the
//! backchase's pruning criterion 4 reads) so that a `Mars` instance — or any other
//! long-lived engine — compiles the set **once** and shares it across every
//! chase, back-chase, branch and query block via `Arc`. Before this type
//! existed every chase recompiled the dependency set from scratch, which
//! dominated the backchase hot loop. Given a navigation layer, it also
//! packages the spec-level set the backchase runs on navigation-free
//! pools, from the same compilation.

use crate::evaluate::{
    order_atoms, EqualityFilter, ExistsScratch, JoinProgram, JoinScratch, RowBuffers, Source,
};
use crate::implied::SinglePremiseTgds;
use crate::instance::SymbolicInstance;
use crate::shortcut::{detect_closure_constraints, ClosureConstraints};
use mars_cq::{Conjunct, Ded, FxHashMap, Predicate, Substitution, Term, Variable};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One conclusion equality, compiled. The conclusion's row starts as the
/// premise row and grows by one slot per forced existential.
#[derive(Clone, Copy, Debug)]
enum EqualityOp {
    /// Both sides are bound: they must be equal.
    Check(Source, Source),
    /// One side is an existential variable nothing has bound yet: the
    /// equality binds it, as the next slot, to the other side's value.
    Force(Source),
}

/// A compiled conclusion disjunct.
#[derive(Clone, Debug)]
pub struct CompiledConclusion {
    /// The original conjunct.
    pub conjunct: Conjunct,
    /// True if the conjunct has no atoms (pure equality / EGD component).
    pub is_pure_equality: bool,
    /// The conjunct's equalities, in order.
    equalities: Vec<EqualityOp>,
    /// The conjunct's atoms as an existence program, entered with the premise
    /// slots and the forced existentials bound. The join order is chosen
    /// here, once — the blocked test is the chase's highest-volume call —
    /// and can never change the boolean answer, only the search cost.
    atoms: JoinProgram,
}

impl CompiledConclusion {
    fn new(conjunct: &Conjunct, premise: &JoinProgram) -> CompiledConclusion {
        let mut bound: Vec<Variable> = premise.vars().to_vec();
        let mut equalities = Vec::with_capacity(conjunct.equalities.len());
        // Two existentials equated before either is bound are one variable.
        let mut alias = Substitution::new();
        for (a, b) in &conjunct.equalities {
            let (a, b) = (alias.apply_term_deep(*a), alias.apply_term_deep(*b));
            let source = |t: Term, bound: &[Variable]| match t {
                Term::Const(_) => Some(Source::Fixed(t)),
                Term::Var(v) => bound.iter().position(|w| *w == v).map(Source::Slot),
            };
            match (source(a, &bound), source(b, &bound), a, b) {
                (Some(sa), Some(sb), _, _) => equalities.push(EqualityOp::Check(sa, sb)),
                (None, Some(value), Term::Var(v), _) | (Some(value), None, _, Term::Var(v)) => {
                    equalities.push(EqualityOp::Force(value));
                    bound.push(v);
                }
                (None, None, Term::Var(v), _) if a != b => alias.set(v, b),
                _ => {}
            }
        }
        let atoms: Vec<_> = conjunct.atoms.iter().map(|a| alias.apply_atom_deep(a)).collect();
        CompiledConclusion {
            is_pure_equality: conjunct.atoms.is_empty(),
            equalities,
            atoms: JoinProgram::compile(&atoms, &[], &order_atoms(&atoms, &bound), &bound),
            conjunct: conjunct.clone(),
        }
    }

    /// Does the premise homomorphism given as `row` (one term per slot of the
    /// owning DED's premise program) extend to this conclusion over `inst`?
    ///
    /// Equalities among bound terms are checked directly; an equality that
    /// mentions a still-free existential variable forces a binding for it;
    /// the atoms are checked by a (semijoin-style) existence search over the
    /// instance.
    fn satisfied(
        &self,
        row: &[Term],
        inst: &SymbolicInstance,
        scratch: &mut ExistsScratch,
    ) -> bool {
        let slots = &mut scratch.slots;
        slots.clear();
        slots.extend_from_slice(row);
        for op in &self.equalities {
            match *op {
                EqualityOp::Check(a, b) => {
                    if self.resolve(a.of(slots), slots) != self.resolve(b.of(slots), slots) {
                        return false;
                    }
                }
                EqualityOp::Force(value) => {
                    let value = self.resolve(value.of(slots), slots);
                    slots.push(value);
                }
            }
        }
        self.atoms.exists(inst, scratch)
    }

    /// `Substitution::apply_term_deep` over the bound slots, continued from
    /// a slot's value `t`: a value that is itself a variable with a slot (an
    /// instance variable sharing its name with a variable of this
    /// dependency) is followed to that slot's value. Applying a conclusion
    /// resolves equalities the same way to decide whether a unification is a
    /// no-op, and the two must agree — a step judged unblocked here that
    /// then changes nothing would fire forever.
    fn resolve(&self, mut t: Term, slots: &[Term]) -> Term {
        let bound = &self.atoms.vars()[..slots.len()];
        let mut hops = 1; // reading the slot was the first
        while let Term::Var(v) = t {
            match bound.iter().position(|w| *w == v) {
                Some(s) if slots[s] != t => {
                    t = slots[s];
                    hops += 1;
                    if hops > slots.len() + 1 {
                        break; // cycle guard
                    }
                }
                _ => break,
            }
        }
        t
    }
}

/// A DED compiled for set-oriented chasing.
#[derive(Clone, Debug)]
pub struct CompiledDed {
    /// The source dependency.
    pub ded: Ded,
    /// Compiled conclusions (empty for denial constraints).
    pub conclusions: Vec<CompiledConclusion>,
    /// The premise as a join program. The join order is chosen once, here
    /// (it depends only on the atoms and the — empty — set of initially
    /// bound variables); which *strategy* each step uses (scan vs index
    /// probe) is resolved at evaluation time from the relation's size
    /// ([`crate::evaluate::SCAN_THRESHOLD`]).
    premise: JoinProgram,
    /// The blocked test as a filter inside the premise join — present when
    /// the only conclusion is a pure equality over premise variables.
    pushdown: Option<EqualityFilter>,
    /// The dependency's position in the set [`CompiledDeps`] compiled it
    /// with (0 for one compiled alone): where the chase tallies its work
    /// ([`crate::ChaseStats::dependencies`]).
    pub(crate) source: usize,
}

impl CompiledDed {
    /// Compile a dependency.
    pub fn compile(ded: &Ded) -> CompiledDed {
        let premise = JoinProgram::compile(
            &ded.premise,
            &ded.premise_inequalities,
            &order_atoms(&ded.premise, &[]),
            &[],
        );
        let pushdown = match ded.conclusions.as_slice() {
            [only] if only.atoms.is_empty() => premise.equality_filter(&only.equalities),
            _ => None,
        };
        CompiledDed {
            conclusions: ded
                .conclusions
                .iter()
                .map(|c| CompiledConclusion::new(c, &premise))
                .collect(),
            premise,
            pushdown,
            ded: ded.clone(),
            source: 0,
        }
    }

    /// All homomorphisms from the premise into the instance (respecting the
    /// premise inequalities) — blocked ones included — found in bulk by
    /// running the premise program without the pushed-down blocked test.
    pub fn premise_bindings(&self, inst: &SymbolicInstance) -> Vec<Substitution> {
        let mut buffers = RowBuffers::default();
        let rows = self.premise.run(inst, &[], None, &mut buffers);
        rows.iter().map(|row| self.premise.binding(row)).collect()
    }

    /// The premise homomorphisms whose chase step is **not** blocked on
    /// `inst` — exactly `premise_bindings(inst)` without those
    /// [`CompiledDed::blocked`] holds for, in the same order — as the chase
    /// consumes them, together with the number of rows that left the premise
    /// program to get there.
    pub fn unblocked_bindings(
        &self,
        inst: &SymbolicInstance,
        scratch: &mut JoinScratch,
    ) -> Unblocked {
        let rows = self.premise.run(inst, &[], self.pushdown.as_ref(), &mut scratch.rows);
        let exists = &mut scratch.exists;
        let bindings = rows
            .iter()
            .filter(|row| !self.conclusions.iter().any(|c| c.satisfied(row, inst, exists)))
            .map(|row| self.premise.binding(row))
            .collect();
        Unblocked { bindings, premise_rows: rows.len() }
    }

    /// Is the chase step for the premise homomorphism `h` *blocked* (some
    /// conclusion disjunct already holds)? A premise variable `h` leaves
    /// unbound stands for itself. The test runs in `scratch`, so the chase's
    /// per-step re-check allocates nothing.
    pub fn blocked(
        &self,
        h: &Substitution,
        inst: &SymbolicInstance,
        scratch: &mut JoinScratch,
    ) -> bool {
        let JoinScratch { binding, exists, .. } = scratch;
        binding.clear();
        binding.extend(self.premise.vars().iter().map(|v| h.apply_term(Term::Var(*v))));
        self.conclusions.iter().any(|c| c.satisfied(binding, inst, exists))
    }
}

/// What [`CompiledDed::unblocked_bindings`] found.
#[derive(Clone, Debug)]
pub struct Unblocked {
    /// The unblocked premise homomorphisms, in join order.
    pub bindings: Vec<Substitution>,
    /// Rows that left the premise program (a row the pushed-down blocked
    /// test dropped inside the join is not among them).
    pub premise_rows: usize,
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
    by_pred: FxHashMap<Predicate, Vec<usize>>,
    n: usize,
}

impl DedIndex {
    fn new(compiled: &[CompiledDed]) -> DedIndex {
        let mut by_pred: FxHashMap<Predicate, Vec<usize>> = FxHashMap::default();
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

/// A functional dependency `P: K → D` that a key-shaped EGD asserts: two
/// `P` tuples that agree on the key columns `K` agree on the determined
/// columns `D`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FunctionalDependency {
    /// Key columns, ascending; empty when the relation holds at most one
    /// `D` value at all (`root(x) ∧ root(y) → x = y`).
    pub(crate) key: Vec<usize>,
    /// Determined columns, ascending and disjoint from `key`.
    pub(crate) determined: Vec<usize>,
}

impl FunctionalDependency {
    /// The functional dependency `ded` states, if it is exactly one: a
    /// premise of two atoms `P(ū)`, `P(v̄)` of one predicate and no
    /// inequalities; on the key columns `u_i` and `v_i` are the same
    /// variable, pairwise distinct across those columns; every other column
    /// holds a variable occurring once in the premise; and a single
    /// conclusion of equalities only, each `u_j = v_j` on a non-key column.
    pub(crate) fn of(ded: &Ded) -> Option<(Predicate, FunctionalDependency)> {
        let ([p, q], [conclusion]) = (ded.premise.as_slice(), ded.conclusions.as_slice()) else {
            return None;
        };
        if p.predicate != q.predicate
            || p.args.len() != q.args.len()
            || !ded.premise_inequalities.is_empty()
            || !conclusion.atoms.is_empty()
            || conclusion.equalities.is_empty()
        {
            return None;
        }
        let occurrences = |t: &Term| p.args.iter().chain(&q.args).filter(|s| *s == t).count();
        let mut key = Vec::new();
        for (i, (u, v)) in p.args.iter().zip(&q.args).enumerate() {
            let expected = if u == v { 2 } else { 1 };
            if !u.is_var()
                || !v.is_var()
                || occurrences(u) != expected
                || occurrences(v) != expected
            {
                return None;
            }
            if u == v {
                key.push(i);
            }
        }
        let mut determined = Vec::new();
        for (a, b) in &conclusion.equalities {
            let column = (0..p.args.len()).find(|&j| {
                !key.contains(&j)
                    && ((p.args[j], q.args[j]) == (*a, *b) || (p.args[j], q.args[j]) == (*b, *a))
            })?;
            determined.push(column);
        }
        determined.sort_unstable();
        determined.dedup();
        Some((p.predicate, FunctionalDependency { key, determined }))
    }
}

/// The functional dependencies a dependency set states, by predicate, in
/// the order of the set.
#[derive(Clone, Debug, Default)]
pub(crate) struct FunctionalDependencies {
    by_pred: FxHashMap<Predicate, Vec<FunctionalDependency>>,
}

impl FunctionalDependencies {
    fn new(deds: &[Ded]) -> FunctionalDependencies {
        let mut by_pred: FxHashMap<Predicate, Vec<FunctionalDependency>> = FxHashMap::default();
        for (p, fd) in deds.iter().filter_map(FunctionalDependency::of) {
            by_pred.entry(p).or_default().push(fd);
        }
        FunctionalDependencies { by_pred }
    }

    /// The functional dependencies of `p`'s relation.
    pub(crate) fn of(&self, p: Predicate) -> &[FunctionalDependency] {
        self.by_pred.get(&p).map_or(&[], Vec::as_slice)
    }
}

/// A dependency set compiled once for repeated chasing.
///
/// Holds the source DEDs plus everything `run_chase` needs precomputed:
/// the detected closure-shortcut constraints, the EGD-priority-sorted
/// compiled DED lists — both with the closure constraints excluded
/// (shortcut on) and included (shortcut off) — the premise-predicate
/// indexes driving the delta rounds, and the functional dependencies the
/// set's key-shaped EGDs state, by predicate (a chase step binds an
/// existential a key already determines instead of inventing it), plus
/// the single-premise TGDs the backchase's pruning criterion 4 reads. Build it
/// once per engine / `Mars` instance and share it via `Arc` — every chase
/// and back-chase then reuses the same compilation.
///
/// A set built with a navigation layer
/// ([`CompiledDeps::with_navigation_layer`]) also holds the *spec-level*
/// set, the same package for the dependencies outside that layer
/// ([`CompiledDeps::spec_level`]), cloned from the one compilation.
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
    /// The functional dependencies the key-shaped EGDs state.
    functional: FunctionalDependencies,
    /// The single-premise TGDs, which decide the backchase's pruning
    /// criterion 4.
    single_premise: SinglePremiseTgds,
    /// The set without its navigation layer, when one was given.
    spec_level: Option<Box<CompiledDeps>>,
}

/// EGD-priority order: denials first (fail fast), then pure
/// equality-generating dependencies, then tuple-generating ones. Since the
/// chase restarts its round whenever an equality is applied, this runs every
/// unification to fixpoint at the start of each round, *before* that
/// round's TGDs invent new atoms — otherwise a TGD can fire on two
/// pre-unification duplicates and create spurious existential structure
/// that no later equality removes (the instances stay homomorphically
/// equivalent, but grow multiplicatively with each duplicated pattern).
///
/// The invariant holds per round, not per TGD step: the TGDs of a round all
/// fire, and one may see atoms an earlier one's step lets an EGD merge next
/// round. A step binds the existentials a key determines — the hub its key
/// names, the hub's fields — to the existing tuple's terms
/// (`bind_determined` in [`crate::chase`]), so the TGD reuses the hub
/// rather than invent the duplicate; on the recorded workloads no chase
/// applies a step or keeps an atom that ending the round after each TGD
/// would have saved.
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
    /// EGD-priority ordering + functional-dependency detection). This and
    /// [`CompiledDeps::with_navigation_layer`] are the only places
    /// dependency compilation happens; each increments the process-wide
    /// [`compilation_count`] once.
    pub fn new(deds: &[Ded]) -> CompiledDeps {
        CompiledDeps::with_navigation_layer(deds, &[])
    }

    /// Compile a dependency set, and keep beside it the spec-level set:
    /// `deds` without the dependencies at the positions `navigation_layer`
    /// lists. The caller vouches that whenever neither a query nor a
    /// candidate pool holds a navigation atom, a back-chase under the
    /// spec-level set confirms the candidates one under the whole set
    /// confirms (the backchase module docs say when that holds). The
    /// spec-level set is cloned from this one compilation; an empty layer
    /// keeps none.
    pub fn with_navigation_layer(deds: &[Ded], navigation_layer: &[usize]) -> CompiledDeps {
        COMPILATIONS.fetch_add(1, Ordering::SeqCst);
        let compiled: Vec<CompiledDed> = deds
            .iter()
            .enumerate()
            .map(|(source, d)| CompiledDed { source, ..CompiledDed::compile(d) })
            .collect();
        let spec_level = (!navigation_layer.is_empty()).then(|| {
            let kept = compiled.iter().filter(|d| !navigation_layer.contains(&d.source));
            Box::new(CompiledDeps::assemble(kept.cloned().collect(), None))
        });
        CompiledDeps::assemble(compiled, spec_level)
    }

    /// Package compiled dependencies for the chase: closure detection,
    /// EGD-priority ordering, the premise-predicate indexes, the functional
    /// dependencies and the single-premise TGDs.
    fn assemble(compiled: Vec<CompiledDed>, spec_level: Option<Box<CompiledDeps>>) -> CompiledDeps {
        let deds: Vec<Ded> = compiled.iter().map(|d| d.ded.clone()).collect();
        let closure = detect_closure_constraints(&deds);
        let skip: HashSet<usize> = closure.indices().into_iter().collect();
        let mut shortcut_rest: Vec<CompiledDed> = compiled
            .iter()
            .enumerate()
            .filter(|(i, _)| !skip.contains(i))
            .map(|(_, d)| d.clone())
            .collect();
        let mut all = compiled;
        all.sort_by_key(egd_priority);
        shortcut_rest.sort_by_key(egd_priority);
        CompiledDeps {
            shortcut_index: DedIndex::new(&shortcut_rest),
            all_index: DedIndex::new(&all),
            shortcut_rest,
            all,
            closure,
            functional: FunctionalDependencies::new(&deds),
            single_premise: SinglePremiseTgds::new(&deds),
            deds,
            spec_level,
        }
    }

    /// The spec-level set [`CompiledDeps::with_navigation_layer`] kept, if
    /// it was given a navigation layer. Its chases tally their work under
    /// the positions of this set ([`crate::ChaseStats::dependencies`]).
    pub fn spec_level(&self) -> Option<&CompiledDeps> {
        self.spec_level.as_deref()
    }

    /// The source dependency set.
    pub fn deds(&self) -> &[Ded] {
        &self.deds
    }

    /// The functional dependencies the set's key-shaped EGDs state.
    pub(crate) fn functional_dependencies(&self) -> &FunctionalDependencies {
        &self.functional
    }

    /// The TGDs with one premise atom, one conjunct and no equality or
    /// inequality, by premise predicate.
    pub(crate) fn single_premise_tgds(&self) -> &SinglePremiseTgds {
        &self.single_premise
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
    use mars_cq::{Atom, Conjunct, ConjunctiveQuery, Ded, Term, Variable};

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
        assert!(!c.blocked(&hs[0], &inst_without, &mut JoinScratch::default()));
        assert!(c.blocked(&hs[0], &inst_with, &mut JoinScratch::default()));
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
        let mut scratch = JoinScratch::default();
        assert!(hs.iter().any(|h| c.blocked(h, &inst, &mut scratch)));
        assert!(hs.iter().any(|h| !c.blocked(h, &inst, &mut scratch)));
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
        assert!(!c.blocked(h, &inst_no_b, &mut JoinScratch::default()));
        assert!(c.blocked(h, &inst_b, &mut JoinScratch::default()));
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

    fn r(args: &[Term]) -> Atom {
        Atom::named("R", args.to_vec())
    }

    fn fd(key: &[usize], determined: &[usize]) -> Option<(Predicate, FunctionalDependency)> {
        Some((
            Predicate::new("R"),
            FunctionalDependency { key: key.to_vec(), determined: determined.to_vec() },
        ))
    }

    #[test]
    fn key_shaped_egds_are_functional_dependencies() {
        // root_unique: R(x) ∧ R(y) → x = y, no key at all.
        let root = Ded::egd("root", vec![r(&[t("x")]), r(&[t("y")])], t("x"), t("y"));
        assert_eq!(FunctionalDependency::of(&root), fd(&[], &[0]));
        // A key on column 1 determining column 0, equality either way round.
        let key = Ded::egd(
            "key",
            vec![r(&[t("x"), t("k"), t("a")]), r(&[t("y"), t("k"), t("b")])],
            t("y"),
            t("x"),
        );
        assert_eq!(FunctionalDependency::of(&key), fd(&[1], &[0]));
        // A specialization FD: the id determines every field, one conjunct.
        let spec = Ded::disjunctive(
            "spec_fd",
            vec![r(&[t("id"), t("f0"), t("f1")]), r(&[t("id"), t("g0"), t("g1")])],
            vec![Conjunct::equalities(vec![(t("f0"), t("g0")), (t("f1"), t("g1"))])],
        );
        assert_eq!(FunctionalDependency::of(&spec), fd(&[0], &[1, 2]));
        // A composite key.
        let attr = Ded::egd(
            "attr_key",
            vec![r(&[t("x"), t("n"), t("v1")]), r(&[t("x"), t("n"), t("v2")])],
            t("v1"),
            t("v2"),
        );
        assert_eq!(FunctionalDependency::of(&attr), fd(&[0, 1], &[2]));
    }

    #[test]
    fn other_egds_are_not_functional_dependencies() {
        let c = Term::constant_str("c");
        let rejected = [
            // A constant key term.
            Ded::egd("const", vec![r(&[c, t("a")]), r(&[c, t("b")])], t("a"), t("b")),
            // A key variable repeated across key columns.
            Ded::egd(
                "repeat",
                vec![r(&[t("k"), t("k"), t("a")]), r(&[t("k"), t("k"), t("b")])],
                t("a"),
                t("b"),
            ),
            // A non-key variable that occurs twice.
            Ded::egd(
                "twice",
                vec![r(&[t("k"), t("a"), t("a")]), r(&[t("k"), t("b"), t("c")])],
                t("a"),
                t("b"),
            ),
            // A premise inequality.
            Ded::egd("neq", vec![r(&[t("k"), t("a")]), r(&[t("k"), t("b")])], t("a"), t("b"))
                .with_premise_inequalities(vec![(t("a"), t("b"))]),
            // Three premise atoms.
            Ded::egd(
                "three",
                vec![r(&[t("k"), t("a")]), r(&[t("k"), t("b")]), r(&[t("k"), t("c")])],
                t("a"),
                t("b"),
            ),
            // Two predicates.
            Ded::egd(
                "two_preds",
                vec![r(&[t("k"), t("a")]), Atom::named("S", vec![t("k"), t("b")])],
                t("a"),
                t("b"),
            ),
            // An equality across columns.
            Ded::egd(
                "across",
                vec![r(&[t("k"), t("a"), t("c")]), r(&[t("k"), t("b"), t("d")])],
                t("a"),
                t("d"),
            ),
            // A disjunctive EGD.
            Ded::disjunctive(
                "line",
                vec![r(&[t("x"), t("u")]), r(&[t("y"), t("u")])],
                vec![
                    Conjunct::equalities(vec![(t("x"), t("y"))]),
                    Conjunct::atoms(vec![Atom::named("S", vec![t("x"), t("y")])]),
                ],
            ),
            // A TGD.
            Ded::tgd(
                "tgd",
                vec![r(&[t("k"), t("a")]), r(&[t("k"), t("b")])],
                vec![],
                vec![Atom::named("S", vec![t("a"), t("b")])],
            ),
        ];
        for ded in &rejected {
            assert_eq!(FunctionalDependency::of(ded), None, "{}", ded.name);
        }
    }

    #[test]
    fn denial_has_no_conclusions() {
        let d = Ded::denial("no_self", vec![child(t("x"), t("x"))]);
        let c = CompiledDed::compile(&d);
        assert!(c.conclusions.is_empty());
        let inst = instance_of(vec![child(t("a"), t("a"))]);
        let hs = c.premise_bindings(&inst);
        assert_eq!(hs.len(), 1);
        assert!(!c.blocked(&hs[0], &inst, &mut JoinScratch::default()));
    }
}
