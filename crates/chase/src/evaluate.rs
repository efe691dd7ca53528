//! Set-oriented evaluation of a conjunction of atoms over a symbolic
//! instance.
//!
//! This is the workhorse of the new C&B implementation: constraint premises
//! (and conclusions, for the semijoin extension check) are evaluated over
//! `Inst(Q)` using hash joins with selections (constants, repeated variables)
//! pushed into the joins, producing *all* homomorphisms in bulk rather than
//! one backtracking search per candidate.
//!
//! A conjunction is **compiled once** into a `JoinProgram`: along a fixed
//! atom order every argument of every atom is resolved to *constant / slot
//! already bound / repeat within the atom / new slot*, together with the
//! index key columns of the step and the inequalities that become decidable
//! there. `JoinProgram::run` then executes the steps over flat row-major
//! term rows (two buffers swapped between steps, no allocation per row —
//! and none per evaluation when the caller keeps its [`JoinScratch`]) and
//! `JoinProgram::exists` walks the same steps depth-first for the semijoin
//! existence test, returning at the first witness.
//! [`crate::compiled::CompiledDed`] holds its premise and conclusion
//! programs; [`evaluate_bindings`] and [`satisfiable`] compile one on the fly
//! and run the same kernel; [`maps_into`] is the containment-mapping test of
//! Section 2.3 — the same existence search, entered with the head variables
//! bound — and [`ContainmentProgram`] is that test with the mapped query
//! compiled once.
//!
//! Joins probe the instance's **persistent** per-predicate column indexes
//! ([`crate::instance::Relation::index`]): an index is built at most once per
//! (relation, column-set) and maintained on insert and on EGD rewrites, so
//! repeated evaluations over a changing instance never rebuild hash tables.
//!
//! Whether one join step *scans* its relation or *probes* the hash index is
//! decided at run time by the constant [`SCAN_THRESHOLD`]: a relation of at
//! most that many tuples is scanned with the selections applied inline,
//! anything larger is probed (building the index on first use); a step all of
//! whose positions are bound is a membership test on the relation's dedup
//! table. Every strategy enumerates matching tuples in ascending row order,
//! skipping tombstones, so the choice can never change a result, only its
//! cost — the agreement tests against the backtracking search of `mars-cq`
//! cover relations on both sides of the threshold.

use crate::instance::{ColumnIndex, Relation, SymbolicInstance};
use mars_cq::{Atom, ConjunctiveQuery, Constant, Predicate, Substitution, Term, Variable};
use std::sync::Arc;

/// A homomorphism produced by evaluation (bindings of the evaluated atoms'
/// variables to terms of the instance).
pub type Binding = Substitution;

/// Relations of at most this many tuples are joined by a filtered scan;
/// larger ones through the persistent column index. Below it, materializing
/// the key vector, hashing it and walking the posting list costs more than
/// inspecting every tuple inline.
pub const SCAN_THRESHOLD: usize = 8;

/// Choose an evaluation order for the atoms: start from the atom with the
/// most constants (most selective), then repeatedly pick an atom sharing a
/// variable with the already-ordered prefix (avoiding Cartesian products when
/// possible), preferring more constants.
///
/// Only the *set* of initially bound variables matters, so the order for a
/// fixed conjunction and binding shape can be computed once and reused —
/// [`crate::compiled::CompiledDed`] precompiles its premise order this way.
pub(crate) fn order_atoms(atoms: &[Atom], initially_bound: &[Variable]) -> Vec<usize> {
    let n = atoms.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound: Vec<Variable> = initially_bound.to_vec();

    let const_count = |a: &Atom| a.args.iter().filter(|t| t.is_const()).count();

    while order.len() < n {
        let mut best: Option<usize> = None;
        let mut best_key = (false, 0usize);
        for (i, a) in atoms.iter().enumerate() {
            if used[i] {
                continue;
            }
            let connected = order.is_empty() || a.variables().any(|v| bound.contains(&v));
            let key =
                (connected, const_count(a) + a.variables().filter(|v| bound.contains(v)).count());
            if best.is_none() || key > best_key {
                best = Some(i);
                best_key = key;
            }
        }
        let i = best.expect("atom available");
        used[i] = true;
        order.push(i);
        bound.extend(atoms[i].variables());
    }
    order
}

/// Where a compiled operand takes its value from: fixed at compile time (a
/// constant, or a variable nothing binds, which stands for itself) or read
/// from a slot of the row.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Source {
    Fixed(Term),
    Slot(usize),
}

impl Source {
    pub(crate) fn of(self, row: &[Term]) -> Term {
        match self {
            Source::Fixed(t) => t,
            Source::Slot(s) => row[s],
        }
    }
}

/// One atom of a compiled conjunction. Its argument positions are
/// partitioned into key positions (constants and slots bound by earlier
/// steps), repeats of a variable first seen earlier in the same atom, and
/// positions whose variable becomes a new slot.
#[derive(Clone, Debug)]
struct JoinStep {
    predicate: Predicate,
    /// Row width on entry; the new slots follow it.
    width_in: usize,
    /// Key positions, ascending — the column set of the persistent index —
    /// and where each key term comes from.
    key_cols: Vec<usize>,
    key_sources: Vec<Source>,
    /// `(position, earlier position)` pairs that must carry equal terms.
    dups: Vec<(usize, usize)>,
    /// Positions appended to the row as new slots, in argument order.
    new_positions: Vec<usize>,
    /// Inequalities decidable once this step's slots are bound (and not
    /// before): checked on every extended row.
    inequalities: Vec<(Source, Source)>,
}

/// How one step reaches the tuples matching a key — settled once per step
/// and relation, not per row.
enum Access {
    /// No bound position: every tuple extends the row.
    Every,
    /// Every position bound: the key *is* the tuple, a membership test.
    Member,
    /// At most [`SCAN_THRESHOLD`] tuples: compare each against the key.
    Scan,
    /// Probe the persistent column index. Posting lists are ascending row
    /// ids — the enumeration order of the scan, which is why the choice is
    /// invisible in the results.
    Probe(Arc<ColumnIndex>),
}

impl JoinStep {
    fn access(&self, rel: &Relation) -> Access {
        if self.key_cols.is_empty() {
            Access::Every
        } else if self.new_positions.is_empty() {
            Access::Member
        } else if rel.len() <= SCAN_THRESHOLD {
            Access::Scan
        } else {
            Access::Probe(rel.index(&self.key_cols))
        }
    }

    fn fill_key(&self, row: &[Term], key: &mut Vec<Term>) {
        key.clear();
        key.extend(self.key_sources.iter().map(|s| s.of(row)));
    }

    /// Call `visit` with every tuple of `rel` matching `key` on the key
    /// positions (and the repeat constraints), in ascending tuple order,
    /// until it returns `true`; returns whether it did.
    fn any_match(
        &self,
        rel: &Relation,
        access: &Access,
        key: &[Term],
        mut visit: impl FnMut(&[Term]) -> bool,
    ) -> bool {
        let repeats_agree = |tuple: &[Term]| self.dups.iter().all(|&(i, p)| tuple[i] == tuple[p]);
        match access {
            Access::Every => rel.rows().any(|t| repeats_agree(t) && visit(t)),
            Access::Member => rel.contains(key) && visit(key),
            Access::Scan => rel.rows().any(|t| {
                self.key_cols.iter().zip(key).all(|(&c, want)| t[c] == *want)
                    && repeats_agree(t)
                    && visit(t)
            }),
            Access::Probe(index) => index.get(rel, key).any(|id| {
                let t = rel.row(id);
                repeats_agree(t) && visit(t)
            }),
        }
    }

    fn passes_inequalities(&self, row: &[Term]) -> bool {
        self.inequalities.iter().all(|(a, b)| a.of(row) != b.of(row))
    }
}

/// A conjunction of atoms (with inequalities) compiled against a fixed atom
/// order and a fixed set of initially bound variables.
///
/// Rows are flat slices of terms, one slot per variable: the initially bound
/// variables first (in the order given to [`JoinProgram::compile`]), then the
/// variables each step binds.
#[derive(Clone, Debug)]
pub(crate) struct JoinProgram {
    vars: Vec<Variable>,
    bound: usize,
    steps: Vec<JoinStep>,
    /// Inequalities decidable on the initial row alone.
    initial_inequalities: Vec<(Source, Source)>,
}

/// The chase's blocked test for a pure-equality conclusion, pushed into the
/// premise join: a row on which every pair is equal is dropped at step `at`,
/// the first one where all the slots involved are bound — so a blocked row
/// never joins the remaining atoms.
#[derive(Clone, Debug)]
pub(crate) struct EqualityFilter {
    at: usize,
    pairs: Vec<(Source, Source)>,
}

/// The rows a program produced: `len` rows of `width` terms, row-major in
/// the scratch buffer they borrow (`width` may be 0, hence the explicit
/// `len`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rows<'a> {
    width: usize,
    len: usize,
    data: &'a [Term],
}

impl<'a> Rows<'a> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The rows, in the order the join produced them.
    pub(crate) fn iter(self) -> impl Iterator<Item = &'a [Term]> {
        (0..self.len).map(move |i| &self.data[i * self.width..(i + 1) * self.width])
    }
}

/// Reusable working memory of the join kernel: the two row buffers a run
/// swaps between steps, and the row under construction plus one key buffer
/// per step of an existence test. One scratch serves any number of
/// evaluations of any programs — the chase keeps one per branch, so a
/// premise evaluation allocates nothing.
#[derive(Debug, Default)]
pub struct JoinScratch {
    pub(crate) rows: RowBuffers,
    pub(crate) exists: ExistsScratch,
    /// The premise row a binding's blocked test is entered with.
    pub(crate) binding: Vec<Term>,
}

#[derive(Debug, Default)]
pub(crate) struct RowBuffers {
    cur: Vec<Term>,
    next: Vec<Term>,
    key: Vec<Term>,
}

#[derive(Debug, Default)]
pub(crate) struct ExistsScratch {
    /// The caller fills the initially bound slots before each test.
    pub(crate) slots: Vec<Term>,
    keys: Vec<Vec<Term>>,
}

impl JoinProgram {
    /// Compile `atoms`, joined in `order` (indices into `atoms`), entered
    /// with the variables `bound` already bound, and filtered by
    /// `inequalities` — each applied at the first step that binds both of its
    /// sides. A variable no atom binds stands for itself.
    pub(crate) fn compile(
        atoms: &[Atom],
        inequalities: &[(Term, Term)],
        order: &[usize],
        bound: &[Variable],
    ) -> JoinProgram {
        let mut vars: Vec<Variable> = bound.to_vec();
        let mut steps: Vec<JoinStep> = Vec::with_capacity(order.len());
        for &ai in order {
            let atom = &atoms[ai];
            let mut step = JoinStep {
                predicate: atom.predicate,
                width_in: vars.len(),
                key_cols: Vec::new(),
                key_sources: Vec::new(),
                dups: Vec::new(),
                new_positions: Vec::new(),
                inequalities: Vec::new(),
            };
            for (i, arg) in atom.args.iter().enumerate() {
                let key_source = match arg {
                    Term::Const(_) => Some(Source::Fixed(*arg)),
                    Term::Var(v) => vars.iter().position(|w| w == v).map(Source::Slot),
                };
                if let Some(source) = key_source {
                    step.key_cols.push(i);
                    step.key_sources.push(source);
                } else if let Some(&p) = step.new_positions.iter().find(|&&p| atom.args[p] == *arg)
                {
                    step.dups.push((i, p));
                } else {
                    step.new_positions.push(i);
                }
            }
            vars.extend(step.new_positions.iter().filter_map(|&p| atom.args[p].as_var()));
            steps.push(step);
        }
        let mut program =
            JoinProgram { vars, bound: bound.len(), steps, initial_inequalities: Vec::new() };
        for (a, b) in inequalities {
            let pair = (program.source(*a), program.source(*b));
            match program.ready_at(&[pair.0, pair.1]) {
                Some(k) => program.steps[k].inequalities.push(pair),
                None => program.initial_inequalities.push(pair),
            }
        }
        program
    }

    /// The slot layout: one variable per slot.
    pub(crate) fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// How a term reads off a row of this program.
    pub(crate) fn source(&self, t: Term) -> Source {
        match t.as_var().and_then(|v| self.vars.iter().position(|w| *w == v)) {
            Some(slot) => Source::Slot(slot),
            None => Source::Fixed(t),
        }
    }

    /// The first step after which every slot among `sources` is bound
    /// (`None`: they all are on entry).
    fn ready_at(&self, sources: &[Source]) -> Option<usize> {
        let last = sources
            .iter()
            .filter_map(|s| match s {
                Source::Slot(slot) => Some(*slot),
                Source::Fixed(_) => None,
            })
            .max()?;
        self.steps.iter().position(|step| last < step.width_in + step.new_positions.len())
    }

    /// The filter dropping every row on which all `equalities` hold, or
    /// `None` when they cannot be decided from the rows alone (a side is a
    /// variable this program does not bind) or involve no slot a step binds.
    pub(crate) fn equality_filter(&self, equalities: &[(Term, Term)]) -> Option<EqualityFilter> {
        let is_decidable = |t: &Term| t.as_var().is_none_or(|v| self.vars.contains(&v));
        if !equalities.iter().all(|(a, b)| is_decidable(a) && is_decidable(b)) {
            return None;
        }
        let pairs: Vec<(Source, Source)> =
            equalities.iter().map(|(a, b)| (self.source(*a), self.source(*b))).collect();
        let sides: Vec<Source> = pairs.iter().flat_map(|(a, b)| [*a, *b]).collect();
        Some(EqualityFilter { at: self.ready_at(&sides)?, pairs })
    }

    /// Run the join: every extension of the `initial` row (one term per
    /// initially bound variable) through all the steps that satisfies the
    /// inequalities, in ascending tuple order along the step order. With a
    /// `filter`, rows it matches are dropped at the step it is armed at.
    pub(crate) fn run<'s>(
        &self,
        inst: &SymbolicInstance,
        initial: &[Term],
        filter: Option<&EqualityFilter>,
        scratch: &'s mut RowBuffers,
    ) -> Rows<'s> {
        assert_eq!(initial.len(), self.bound, "one term per initially bound variable");
        let RowBuffers { cur, next, key } = scratch;
        let none = Rows { width: self.vars.len(), len: 0, data: &[] };
        if !self.initial_inequalities.iter().all(|(a, b)| a.of(initial) != b.of(initial)) {
            return none;
        }
        cur.clear();
        cur.extend_from_slice(initial);
        let mut len = 1usize;
        for (k, step) in self.steps.iter().enumerate() {
            let Some(rel) = inst.relation_data(step.predicate) else {
                return none;
            };
            let access = step.access(rel);
            let armed = filter.filter(|f| f.at == k);
            let width = step.width_in;
            next.clear();
            let mut produced = 0usize;
            for r in 0..len {
                let row = &cur[r * width..(r + 1) * width];
                step.fill_key(row, key);
                step.any_match(rel, &access, key, |tuple| {
                    let start = next.len();
                    next.extend_from_slice(row);
                    next.extend(step.new_positions.iter().map(|&p| tuple[p]));
                    let extended = &next[start..];
                    let dropped = !step.passes_inequalities(extended)
                        || armed.is_some_and(|f| {
                            f.pairs.iter().all(|(a, b)| a.of(extended) == b.of(extended))
                        });
                    if dropped {
                        next.truncate(start);
                    } else {
                        produced += 1;
                    }
                    false
                });
            }
            if produced == 0 {
                return none;
            }
            std::mem::swap(cur, next);
            len = produced;
        }
        Rows { width: self.vars.len(), len, data: cur }
    }

    /// A row of this program as a [`Substitution`].
    pub(crate) fn binding(&self, row: &[Term]) -> Binding {
        Substitution::from_distinct(self.vars.iter().copied().zip(row.iter().copied()))
    }

    /// Semijoin-style existence test: can the initially bound slots — the
    /// first `bound` entries of `scratch.slots`, filled by the caller — be
    /// extended through every step? Nothing is materialized: the steps are
    /// walked depth-first, binding slots in place, and the search returns at
    /// the first witness.
    pub(crate) fn exists(&self, inst: &SymbolicInstance, scratch: &mut ExistsScratch) -> bool {
        let ExistsScratch { slots, keys } = scratch;
        assert_eq!(slots.len(), self.bound, "one term per initially bound variable");
        if !self.initial_inequalities.iter().all(|(a, b)| a.of(slots) != b.of(slots)) {
            return false;
        }
        // The unbound slots hold a placeholder until their step writes them.
        slots.resize(self.vars.len(), Term::Const(Constant::Int(0)));
        if keys.len() < self.steps.len() {
            keys.resize_with(self.steps.len(), Vec::new);
        }
        self.exists_from(0, inst, slots, keys)
    }

    fn exists_from(
        &self,
        depth: usize,
        inst: &SymbolicInstance,
        slots: &mut [Term],
        keys: &mut [Vec<Term>],
    ) -> bool {
        let Some(step) = self.steps.get(depth) else {
            return true;
        };
        let Some(rel) = inst.relation_data(step.predicate) else {
            return false;
        };
        let (key, deeper) = keys.split_first_mut().expect("one key buffer per step");
        step.fill_key(slots, key);
        step.any_match(rel, &step.access(rel), key, |tuple| {
            for (j, &p) in step.new_positions.iter().enumerate() {
                slots[step.width_in + j] = tuple[p];
            }
            step.passes_inequalities(slots) && self.exists_from(depth + 1, inst, slots, deeper)
        })
    }
}

/// Evaluate `atoms` (a conjunction) over `inst`, extending `initial`, and
/// filter the results by the inequalities. Returns every homomorphism, in
/// ascending tuple order along the join order `order_atoms` chooses.
pub fn evaluate_bindings(
    atoms: &[Atom],
    inequalities: &[(Term, Term)],
    inst: &SymbolicInstance,
    initial: &Substitution,
) -> Vec<Binding> {
    let (bound, row): (Vec<Variable>, Vec<Term>) = initial.iter().unzip();
    let program = JoinProgram::compile(atoms, inequalities, &order_atoms(atoms, &bound), &bound);
    let mut buffers = RowBuffers::default();
    program.run(inst, &row, None, &mut buffers).iter().map(|r| program.binding(r)).collect()
}

/// Semijoin-style existence check: is there at least one extension of
/// `initial` satisfying the atoms and inequalities? Compiles the conjunction
/// and runs its existence search — the search behind the chase's *blocked*
/// test, which holds its conclusions compiled
/// ([`crate::compiled::CompiledConclusion`]).
pub fn satisfiable(
    atoms: &[Atom],
    inequalities: &[(Term, Term)],
    inst: &SymbolicInstance,
    initial: &Substitution,
) -> bool {
    let (bound, row): (Vec<Variable>, Vec<Term>) = initial.iter().unzip();
    let program = JoinProgram::compile(atoms, inequalities, &order_atoms(atoms, &bound), &bound);
    program.exists(inst, &mut ExistsScratch { slots: row, ..Default::default() })
}

/// The containment-mapping test of Section 2.3 over the chase's own
/// instances: is there a homomorphism from `from`'s body into `inst` that
/// sends `from`'s head onto `head`, position by position? The target query
/// is given the way the chase holds it — its body as a symbolic instance,
/// its head beside it — so the test is head alignment followed by
/// [`satisfiable`]: nothing is copied out of the instance and no second
/// index is built beside its own.
///
/// `false` on an arity mismatch, on a head constant the target does not
/// carry, and on a repeated head variable whose positions carry different
/// terms. As in `mars_oracle::containment_mapping` (the oracle this is
/// property-tested against) `from`'s inequalities take no part.
pub fn maps_into(from: &ConjunctiveQuery, inst: &SymbolicInstance, head: &[Term]) -> bool {
    let mut aligned = Substitution::new();
    from.head.len() == head.len()
        && from.head.iter().zip(head).all(|(t, image)| match t {
            Term::Var(v) => aligned.bind(*v, *image),
            Term::Const(_) => t == image,
        })
        && satisfiable(&from.body, &[], inst, &aligned)
}

/// [`maps_into`] with `from` compiled once for any number of targets: the
/// backchase confirms `candidate ⊆ original` by mapping the one original
/// query into every back-chase branch, so the original is compiled when the
/// backchase starts — as every dependency is when the engine is built — and
/// each confirm is head alignment plus one existence search.
#[derive(Clone, Debug)]
pub struct ContainmentProgram {
    /// `from`'s head, position by position: the slot its variable is bound
    /// in, or the constant the target's head must carry there.
    head: Vec<Source>,
    /// `from`'s body, entered with the distinct head variables bound.
    body: JoinProgram,
}

impl ContainmentProgram {
    /// Compile `from` (as in [`maps_into`], its inequalities take no part).
    pub fn new(from: &ConjunctiveQuery) -> ContainmentProgram {
        let mut bound: Vec<Variable> = Vec::new();
        for v in from.head.iter().filter_map(Term::as_var) {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        let body = JoinProgram::compile(&from.body, &[], &order_atoms(&from.body, &bound), &bound);
        ContainmentProgram { head: from.head.iter().map(|t| body.source(*t)).collect(), body }
    }

    /// Does the compiled query map into `inst` with its head sent onto
    /// `head`? Answers exactly what [`maps_into`] answers.
    pub fn maps_into(&self, inst: &SymbolicInstance, head: &[Term]) -> bool {
        if self.head.len() != head.len() {
            return false;
        }
        // Fill the slots, then read every position back: a constant, or a
        // repeated variable whose positions carry different terms, disagrees.
        let mut slots = vec![Term::Const(Constant::Int(0)); self.body.bound];
        for (source, image) in self.head.iter().zip(head) {
            if let Source::Slot(slot) = source {
                slots[*slot] = *image;
            }
        }
        self.head.iter().zip(head).all(|(source, image)| source.of(&slots) == *image)
            && self.body.exists(inst, &mut ExistsScratch { slots, ..Default::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::{Atom, ConjunctiveQuery, Term};

    fn t(n: &str) -> Term {
        Term::var(n)
    }
    fn v(n: &str) -> Variable {
        Variable::named(n)
    }

    fn example_instance() -> SymbolicInstance {
        // Q(a,g) :- R(a,b), R(b,c), R(c,d), S(d,e), S(e,f), S(f,g)
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("a"), t("g")]).with_body(vec![
            Atom::named("R", vec![t("a"), t("b")]),
            Atom::named("R", vec![t("b"), t("c")]),
            Atom::named("R", vec![t("c"), t("d")]),
            Atom::named("S", vec![t("d"), t("e")]),
            Atom::named("S", vec![t("e"), t("f")]),
            Atom::named("S", vec![t("f"), t("g")]),
        ]);
        SymbolicInstance::from_query(&q)
    }

    #[test]
    fn example_3_1_premise_evaluation() {
        // premise: R(x,y), R(y,z), S(z,u), S(u,v) — exactly one homomorphism.
        let premise = vec![
            Atom::named("R", vec![t("x"), t("y")]),
            Atom::named("R", vec![t("y"), t("z")]),
            Atom::named("S", vec![t("z"), t("u")]),
            Atom::named("S", vec![t("u"), t("v")]),
        ];
        let inst = example_instance();
        let res = evaluate_bindings(&premise, &[], &inst, &Substitution::new());
        assert_eq!(res.len(), 1);
        let h = &res[0];
        assert_eq!(h.get(v("x")), Some(t("b")));
        assert_eq!(h.get(v("v")), Some(t("f")));
    }

    #[test]
    fn constants_are_pushed_into_the_scan() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&tag(t("n1"), "author"));
        inst.insert_atom(&tag(t("n2"), "title"));
        inst.insert_atom(&tag(t("n3"), "author"));
        let res = evaluate_bindings(&[tag(t("x"), "author")], &[], &inst, &Substitution::new());
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn repeated_variables_in_one_atom() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&Atom::named("R", vec![t("a"), t("b")]));
        inst.insert_atom(&Atom::named("R", vec![t("c"), t("c")]));
        let res = evaluate_bindings(
            &[Atom::named("R", vec![t("x"), t("x")])],
            &[],
            &inst,
            &Substitution::new(),
        );
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].get(v("x")), Some(t("c")));
    }

    #[test]
    fn initial_bindings_restrict_results() {
        let inst = example_instance();
        let init = Substitution::from_pairs(vec![(v("x"), t("b"))]).unwrap();
        let res = evaluate_bindings(&[Atom::named("R", vec![t("x"), t("y")])], &[], &inst, &init);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].get(v("y")), Some(t("c")));
    }

    #[test]
    fn inequalities_filter_bindings() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&Atom::named("R", vec![t("a"), t("a")]));
        inst.insert_atom(&Atom::named("R", vec![t("a"), t("b")]));
        let atoms = vec![Atom::named("R", vec![t("x"), t("y")])];
        let all = evaluate_bindings(&atoms, &[], &inst, &Substitution::new());
        assert_eq!(all.len(), 2);
        let neq = evaluate_bindings(&atoms, &[(t("x"), t("y"))], &inst, &Substitution::new());
        assert_eq!(neq.len(), 1);
    }

    #[test]
    fn empty_atom_list_checks_only_inequalities() {
        let inst = SymbolicInstance::new();
        let init = Substitution::from_pairs(vec![(v("x"), t("a")), (v("y"), t("a"))]).unwrap();
        assert_eq!(evaluate_bindings(&[], &[], &inst, &init).len(), 1);
        assert!(evaluate_bindings(&[], &[(t("x"), t("y"))], &inst, &init).is_empty());
    }

    #[test]
    fn missing_relation_yields_no_bindings() {
        let inst = example_instance();
        let res = evaluate_bindings(
            &[Atom::named("Absent", vec![t("x")])],
            &[],
            &inst,
            &Substitution::new(),
        );
        assert!(res.is_empty());
        assert!(!satisfiable(
            &[Atom::named("Absent", vec![t("x")])],
            &[],
            &inst,
            &Substitution::new()
        ));
    }

    #[test]
    fn chain_evaluation_counts_paths() {
        // child chain n1->n2->n3->n4; pattern child(x,y),child(y,z) has 2 matches.
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("n1"), t("n2")));
        inst.insert_atom(&child(t("n2"), t("n3")));
        inst.insert_atom(&child(t("n3"), t("n4")));
        let res = evaluate_bindings(
            &[child(t("x"), t("y")), child(t("y"), t("z"))],
            &[],
            &inst,
            &Substitution::new(),
        );
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn disconnected_patterns_produce_cross_products() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&Atom::named("A", vec![t("a1")]));
        inst.insert_atom(&Atom::named("A", vec![t("a2")]));
        inst.insert_atom(&Atom::named("B", vec![t("b1")]));
        inst.insert_atom(&Atom::named("B", vec![t("b2")]));
        let res = evaluate_bindings(
            &[Atom::named("A", vec![t("x")]), Atom::named("B", vec![t("y")])],
            &[],
            &inst,
            &Substitution::new(),
        );
        assert_eq!(res.len(), 4);
    }

    /// Cross-check the compiled kernel against the backtracking search of
    /// `mars-cq`, with relations on both sides of [`SCAN_THRESHOLD`]: a
    /// scanned step and a probed step must enumerate the same bindings, in
    /// ascending tuple-index order along the join order. The pattern has a
    /// constant key, a repeated fresh variable, a fully bound atom, and
    /// inequalities that become decidable at different steps (one of them
    /// against a constant, one against a variable nothing binds); it is run
    /// from the empty binding and from a non-empty one.
    #[test]
    fn agrees_with_backtracking_homomorphism_search() {
        let pattern = vec![
            child(t("x"), t("y")),
            tag(t("y"), "a"),
            child(t("x"), t("z")),
            Atom::named("E", vec![t("z"), t("w"), t("w")]),
            child(t("x"), t("y")),
        ];
        let ineqs = vec![
            (t("y"), t("z")),
            (t("w"), Term::constant_str("never")),
            (t("x"), t("unbound")),
            (t("z"), t("x")),
        ];
        // (parents, children per parent, padding E tuples): `child` and
        // `tag` hold parents × children tuples, `E` that plus the padding.
        for (parents, per_parent, padding) in [(2, 3, 0), (2, 4, 0), (3, 3, 0), (2, 3, 5)] {
            let mut inst = SymbolicInstance::new();
            for i in 0..parents {
                for j in 0..per_parent {
                    let c = t(&format!("c{i}_{j}"));
                    inst.insert_atom(&child(t(&format!("p{i}")), c));
                    inst.insert_atom(&tag(c, if j % 2 == 0 { "a" } else { "b" }));
                    let other = if j % 2 == 0 { t("u") } else { t("v") };
                    inst.insert_atom(&Atom::named("E", vec![c, t("u"), other]));
                }
            }
            for k in 0..padding {
                inst.insert_atom(&Atom::named("E", vec![t(&format!("pad{k}")), t("q"), t("q")]));
            }
            let child_len = inst.relation_len(pattern[0].predicate);
            let e_len = inst.relation_len(pattern[3].predicate);
            assert_eq!(child_len, parents * per_parent);
            assert_eq!(e_len, child_len + padding);
            let index = mars_oracle::AtomIndex::new(&inst.atoms());
            // Per parent: ordered pairs of distinct "a"-tagged children.
            let tagged_a = per_parent.div_ceil(2);
            let per_parent_bindings = tagged_a * (tagged_a - 1);

            let from_p0 = Substitution::from_pairs(vec![(v("x"), t("p0"))]).unwrap();
            for (initial, expected) in [
                (Substitution::new(), parents * per_parent_bindings),
                (from_p0, per_parent_bindings),
            ] {
                // The tuple index each join step chose, in join order.
                let bound: Vec<Variable> = initial.iter().map(|(v, _)| v).collect();
                let order = order_atoms(&pattern, &bound);
                let trail = |h: &Binding| -> Vec<usize> {
                    order
                        .iter()
                        .map(|&ai| {
                            let image = h.apply_atom(&pattern[ai]);
                            inst.rows(image.predicate)
                                .position(|tuple| tuple == &*image.args)
                                .expect("a binding maps every atom onto a tuple")
                        })
                        .collect()
                };

                let fast = evaluate_bindings(&pattern, &ineqs, &inst, &initial);
                let fast_trails: Vec<Vec<usize>> = fast.iter().map(&trail).collect();
                assert!(
                    fast_trails.windows(2).all(|w| w[0] < w[1]),
                    "child = {child_len}, E = {e_len}: bindings must come in ascending trail order"
                );

                let mut slow =
                    mars_oracle::find_all_homomorphisms(&pattern, &index, &initial, None);
                slow.retain(|h| ineqs.iter().all(|(a, b)| h.apply_term(*a) != h.apply_term(*b)));
                slow.sort_by_key(&trail);
                assert_eq!(fast, slow, "child = {child_len}, E = {e_len}");
                assert_eq!(fast.len(), expected);

                assert!(satisfiable(&pattern, &ineqs, &inst, &initial));
                // `E` pairs equal terms only under "a"-tagged nodes.
                let mut unsat = pattern.clone();
                unsat.push(tag(t("z"), "b"));
                assert!(!satisfiable(&unsat, &ineqs, &inst, &initial));
                assert!(evaluate_bindings(&unsat, &ineqs, &inst, &initial).is_empty());
                // An inequality that fails on the initial row alone.
                let self_neq = [(t("x"), t("x"))];
                assert!(!satisfiable(&pattern, &self_neq, &inst, &initial));
                assert!(evaluate_bindings(&pattern, &self_neq, &inst, &initial).is_empty());
            }
        }
    }

    /// The pushed-down equality filter drops exactly the rows on which every
    /// pair is equal, whatever step it is armed at, and is refused for
    /// equalities the rows cannot decide.
    #[test]
    fn equality_filter_drops_exactly_the_rows_it_matches() {
        // A key-style premise: R(k,a), R(k,b), S(b) over 3 × 3 R-tuples.
        let atoms = vec![
            Atom::named("R", vec![t("k"), t("a")]),
            Atom::named("R", vec![t("k"), t("b")]),
            Atom::named("S", vec![t("b")]),
        ];
        let mut inst = SymbolicInstance::new();
        for k in 0..3 {
            for j in 0..3 {
                inst.insert_atom(&Atom::named(
                    "R",
                    vec![t(&format!("k{k}")), t(&format!("v{k}_{j}"))],
                ));
                inst.insert_atom(&Atom::named("S", vec![t(&format!("v{k}_{j}"))]));
            }
        }
        let program = JoinProgram::compile(&atoms, &[], &order_atoms(&atoms, &[]), &[]);
        let (mut unfiltered, mut filtered) = (RowBuffers::default(), RowBuffers::default());
        let all = program.run(&inst, &[], None, &mut unfiltered);
        assert_eq!(all.len(), 27);

        let filter = program.equality_filter(&[(t("a"), t("b"))]).expect("both sides are slots");
        assert!(filter.at < program.steps.len() - 1, "armed before the last step");
        let kept = program.run(&inst, &[], Some(&filter), &mut filtered);
        let a = program.vars().iter().position(|w| *w == v("a")).unwrap();
        let b = program.vars().iter().position(|w| *w == v("b")).unwrap();
        let expected: Vec<&[Term]> = all.iter().filter(|row| row[a] != row[b]).collect();
        assert_eq!(kept.iter().collect::<Vec<_>>(), expected);
        assert_eq!(kept.len(), 18);

        // Two equalities: only rows satisfying *both* are dropped.
        let both = program.equality_filter(&[(t("a"), t("b")), (t("k"), t("k0"))]);
        assert!(both.is_none(), "`k0` is not a variable of the program");
        let both = program
            .equality_filter(&[(t("a"), t("b")), (t("b"), Term::constant_str("nope"))])
            .expect("constants are decidable");
        assert_eq!(program.run(&inst, &[], Some(&both), &mut filtered).len(), 27);
        // No slot involved, or an existential side: no filter.
        assert!(program.equality_filter(&[]).is_none());
        assert!(program.equality_filter(&[(t("a"), t("fresh"))]).is_none());
    }

    #[test]
    fn satisfiable_probes_agree_with_full_evaluation() {
        let inst = example_instance();
        let premise =
            vec![Atom::named("R", vec![t("x"), t("y")]), Atom::named("S", vec![t("u"), t("w")])];
        assert!(satisfiable(&premise, &[], &inst, &Substitution::new()));
        // Fully bound membership path.
        let init = Substitution::from_pairs(vec![(v("x"), t("a")), (v("y"), t("b"))]).unwrap();
        assert!(satisfiable(&[Atom::named("R", vec![t("x"), t("y")])], &[], &inst, &init));
        let bad = Substitution::from_pairs(vec![(v("x"), t("a")), (v("y"), t("c"))]).unwrap();
        assert!(!satisfiable(&[Atom::named("R", vec![t("x"), t("y")])], &[], &inst, &bad));
        // Repeated free variable within an atom.
        let mut inst2 = SymbolicInstance::new();
        inst2.insert_atom(&Atom::named("R", vec![t("a"), t("b")]));
        assert!(!satisfiable(
            &[Atom::named("R", vec![t("x"), t("x")])],
            &[],
            &inst2,
            &Substitution::new()
        ));
        inst2.insert_atom(&Atom::named("R", vec![t("c"), t("c")]));
        assert!(satisfiable(
            &[Atom::named("R", vec![t("x"), t("x")])],
            &[],
            &inst2,
            &Substitution::new()
        ));
    }
}
