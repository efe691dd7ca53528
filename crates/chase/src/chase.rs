//! The set-oriented chase to the universal plan.
//!
//! Chasing a query with a set of DEDs is implemented as repeated rounds of
//! bulk premise evaluation over the symbolic instance (hash joins, Section
//! 3.1), a semijoin extension check per homomorphism, and set-oriented
//! application of the unsatisfied steps. The `(refl)/(base)/(trans)` TIX
//! constraints are short-cut by a direct transitive-closure computation
//! (Section 3.2) when [`ChaseOptions::use_shortcut`] is enabled.
//!
//! A round checks every dirty dependency once, in EGD-priority order
//! (denials, then EGDs, then TGDs — see [`CompiledDeps`]). A TGD that
//! applies steps does not end the round; a unification, a split, a denial
//! and the atom budget do. So the EGDs reach their fixpoint at the start of
//! every round, before any TGD of that round fires: the priority invariant
//! holds per round, not per TGD step. Any fair order of steps chased to a
//! fixpoint gives a universal model, so the policy decides cost, not
//! answers.
//!
//! A step invents only the existentials nothing determines. Like the
//! closure shortcut, this applies an outcome known before the step runs: an
//! existential at a determined column of a functional dependency whose key
//! the step has bound (the root a view expansion reaches the document by,
//! the hub it finds by its key, that hub's fields) is bound to the term the
//! existing tuple carries — the term the dependency's EGD would otherwise
//! merge the invented variable into one round later, at the price of a
//! rewrite of every relation mentioning it, a round restart and a
//! recomputed closure. The EGDs stay in the set and fire wherever this
//! does not apply.
//!
//! This is what makes a per-round invariant enough. A TGD firing between
//! two unifications could invent a second copy of a hub, or of its fields,
//! that a key is about to merge; a step binds exactly those existentials to
//! the existing tuple's terms instead. On the recorded workloads (the
//! funnel goldens) the chase applies as many steps, reaches the same
//! universal plans and confirms the same reformulations as one that ended
//! its round after each TGD step.

use crate::compiled::{CompiledDed, CompiledDeps, DedIndex, FunctionalDependencies};
use crate::evaluate::JoinScratch;
use crate::instance::{Relation, SymbolicInstance};
use crate::shortcut::{apply_closure_watermarked, ClosureConstraints, ClosureInputMark};
use mars_cq::{Atom, Conjunct, ConjunctiveQuery, Predicate, Substitution, Term, Variable};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Options controlling the chase.
#[derive(Clone, Debug)]
pub struct ChaseOptions {
    /// Short-cut the `(refl)/(base)/(trans)` constraints by computing the
    /// transitive closure directly (Section 3.2).
    pub use_shortcut: bool,
    /// Maximum number of chase rounds per branch (root-to-leaf path; children
    /// of a split inherit the rounds their ancestors consumed). A round ends
    /// early at the first unification (see the module docs), so this bounds
    /// sweeps *and* EGD applications — the default is sized accordingly
    /// (divergent chases are additionally stopped by `max_atoms` and
    /// `deadline`).
    pub max_rounds: usize,
    /// Maximum number of atoms in any branch instance.
    pub max_atoms: usize,
    /// Maximum number of branches of the chase tree (disjunctive DEDs).
    pub max_branches: usize,
    /// Absolute wall-clock deadline — the engine's one clock. It is a fixed
    /// [`Instant`], not a duration measured per run: every branch of every
    /// level, every *resumed* chase and the backchase's level loop check
    /// against the same point in time, so a deadline set before a resume
    /// cannot be silently ignored. A chase stopped by the deadline reports
    /// `completed = false` with [`ChaseStop::Deadline`].
    pub deadline: Option<Instant>,
    /// Lower bound for the disambiguator indices of invented (fresh)
    /// variables. The backchase raises this above every variable index of the
    /// candidate pool so that a chase of one candidate can later be extended
    /// with further pool atoms ([`chase_resident_with_atoms_compiled`])
    /// without an invented variable colliding with a pool variable of the
    /// same name.
    pub min_fresh_index: u32,
}

impl Default for ChaseOptions {
    fn default() -> Self {
        ChaseOptions {
            use_shortcut: true,
            max_rounds: 500_000,
            max_atoms: 200_000,
            max_branches: 32,
            deadline: None,
            min_fresh_index: 0,
        }
    }
}

impl ChaseOptions {
    /// Options with the shortcut disabled (used by the ablation experiments).
    pub fn without_shortcut() -> ChaseOptions {
        ChaseOptions { use_shortcut: false, ..Default::default() }
    }

    /// Builder: set an absolute wall-clock deadline honored by this run and
    /// by every chase resumed from its branches (see
    /// [`ChaseOptions::deadline`]).
    pub fn with_deadline(mut self, deadline: Instant) -> ChaseOptions {
        self.deadline = Some(deadline);
        self
    }
}

/// Which budget stopped an incomplete chase. `None` in [`ChaseStats::stop`]
/// whenever the chase reached its fixpoint ([`ChaseStats::completed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseStop {
    /// A branch exhausted [`ChaseOptions::max_rounds`].
    Rounds,
    /// A branch instance grew past [`ChaseOptions::max_atoms`].
    Atoms,
    /// The wall clock passed [`ChaseOptions::deadline`].
    Deadline,
    /// The chase tree grew past [`ChaseOptions::max_branches`] and the
    /// excess branches were parked unchased.
    Branches,
}

/// The work one compiled dependency did in a chase. All three counts are
/// deterministic: they depend only on the query (or seed) chased and the
/// dependency set, never on timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DependencyWork {
    /// Times its premise join program ran: once per round it was dirty in.
    pub evaluations: usize,
    /// Rows that left its premise program, summed over those runs.
    pub premise_rows: usize,
    /// Chase steps it applied.
    pub applied_steps: usize,
}

/// Add `more` into `total`, both indexed like [`ChaseStats::dependencies`].
pub(crate) fn add_dependency_work(total: &mut Vec<DependencyWork>, more: &[DependencyWork]) {
    if total.len() < more.len() {
        total.resize(more.len(), DependencyWork::default());
    }
    for (t, m) in total.iter_mut().zip(more) {
        t.evaluations += m.evaluations;
        t.premise_rows += m.premise_rows;
        t.applied_steps += m.applied_steps;
    }
}

/// Bookkeeping collected during the chase.
#[derive(Clone, Debug, Default)]
pub struct ChaseStats {
    /// Number of rounds executed.
    pub rounds: usize,
    /// Number of applied chase steps (atom-producing or unifying).
    pub applied_steps: usize,
    /// Rows that left a premise join program, summed over every premise
    /// evaluation — the deterministic work counter of the chase's inner
    /// loop. A row the pushed-down blocked test drops inside the join never
    /// leaves it and is not counted.
    pub premise_rows: usize,
    /// Premise join programs run: one per dirty dependency a round
    /// checks.
    pub premise_evaluations: usize,
    /// The work of each dependency, indexed by its position in the set the
    /// engine compiled ([`CompiledDeps::deds`]; a chase under its
    /// [spec-level set](CompiledDeps::spec_level) tallies under the same
    /// positions): `evaluations`, `premise_rows` and `applied_steps` broken
    /// down by the dependency that did them. The vector ends at the last
    /// dependency that was evaluated; one past it did no work.
    pub dependencies: Vec<DependencyWork>,
    /// Number of `desc` atoms added by the shortcut.
    pub shortcut_desc_added: usize,
    /// Number of failed branches (denials or constant clashes).
    pub failed_branches: usize,
    /// True if the chase reached a fixpoint within the budget.
    pub completed: bool,
    /// The first budget that stopped the chase when `completed` is false
    /// (`None` on a completed chase). Degraded answers are tagged from this
    /// upstream, so a deadline stop is distinguishable from a size ceiling.
    pub stop: Option<ChaseStop>,
    /// Wall-clock duration.
    pub duration: Duration,
}

/// One branch of the chase tree during execution: the [`ResidentBranch`] it
/// becomes when the chase finishes, plus what only a running chase needs.
#[derive(Clone, Debug)]
struct Branch {
    resident: ResidentBranch,
    /// Delta tracking: `needs_check[i]` is true when compiled dependency `i`
    /// may have acquired a new unblocked premise binding since it was last
    /// confirmed at fixpoint (an atom of one of its premise predicates was
    /// inserted or rewritten). Dependencies with a false flag are skipped by
    /// [`run_round`] — the instance only grows and blocked steps stay
    /// blocked, so skipping them is sound.
    needs_check: Vec<bool>,
    /// Next fresh-variable disambiguator. Per-branch: branches are chased
    /// independently (children inherit the parent's counter at a split).
    fresh: u32,
    /// Rounds consumed on the root-to-leaf path (per-branch round budget).
    rounds: usize,
    /// Closure-shortcut input watermarks, one per detected group (empty =
    /// unknown, forcing the depth-first closure). They let [`chase_branch`]
    /// extend the closure by the `child`/`desc`/`el` rows appended since,
    /// instead of re-closing `desc`.
    closure_marks: Vec<ClosureInputMark>,
    /// EGD rewrite epoch: bumped whenever a unification rewrites the
    /// instance in place (rows then change where they stand, so a watermark
    /// no longer separates the old rows from the new ones).
    rewrites: u64,
    /// The conclusion row being inserted, reused across steps.
    row: Vec<Term>,
}

impl Branch {
    /// A chase about to start (or resume) from `resident`.
    fn live(resident: ResidentBranch) -> Branch {
        Branch {
            resident,
            needs_check: Vec::new(),
            fresh: 0,
            rounds: 0,
            closure_marks: Vec::new(),
            rewrites: 0,
            row: Vec::new(),
        }
    }

    fn rename(&mut self, s: &Substitution, index: &DedIndex) {
        self.rewrites += 1;
        let at = &mut self.resident;
        for p in at.inst.apply_substitution(s) {
            index.mark(p, &mut self.needs_check);
        }
        at.head = at.head.iter().map(|t| s.apply_term_deep(*t)).collect();
        at.inequalities = at
            .inequalities
            .iter()
            .map(|(a, b)| (s.apply_term_deep(*a), s.apply_term_deep(*b)))
            .collect();
        at.renaming = at.renaming.then(s);
    }
}

enum RoundResult {
    NoChange,
    Changed,
    Failed,
    Split(Vec<Branch>),
}

/// The first tuple of `rel`, in row order, carrying `key` on the columns
/// `cols` — read the way a join step reads a relation
/// ([`Relation::any_with_key`]).
fn first_with_key<'r>(rel: &'r Relation, cols: &[usize], key: &[Term]) -> Option<&'r [Term]> {
    let mut first = None;
    rel.any_with_key(cols, key, |row| {
        first = Some(row);
        true
    });
    first
}

/// Bind the existentials of `conjunct` that a functional dependency already
/// determines. For a conclusion atom `P(t̄)` and an FD `K → D` of `P` whose
/// key positions of `t̄` are all constants or bound, each still-unbound
/// variable at a `D` position is bound to the term the first `P` tuple
/// agreeing on `K` carries there — the term the FD's EGD would merge the
/// invented variable into one round later. Repeated to fixpoint, since a
/// binding can complete another FD's key (a hub found by its key fixes the
/// hub's fields). A premise-bound term is never rebound: a disagreement
/// there stays the EGD's to resolve.
fn bind_determined(
    sub: &mut Substitution,
    conjunct: &Conjunct,
    inst: &SymbolicInstance,
    fds: &FunctionalDependencies,
) {
    let unbound = |sub: &Substitution, t: Term| matches!(t, Term::Var(v) if !sub.binds(v));
    let mut key = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        for atom in &conjunct.atoms {
            let Some(rel) = inst.relation_data(atom.predicate) else { continue };
            for fd in fds.of(atom.predicate) {
                if !fd.determined.iter().any(|&c| unbound(sub, atom.args[c]))
                    || fd.key.iter().any(|&c| unbound(sub, atom.args[c]))
                {
                    continue;
                }
                key.clear();
                key.extend(fd.key.iter().map(|&c| sub.apply_term(atom.args[c])));
                let Some(tuple) = first_with_key(rel, &fd.key, &key) else { continue };
                for &c in &fd.determined {
                    if let Term::Var(v) = atom.args[c] {
                        if !sub.binds(v) {
                            sub.set(v, tuple[c]);
                            changed = true;
                        }
                    }
                }
            }
        }
    }
}

/// Apply one conclusion conjunct under the premise homomorphism `sub`,
/// which it extends in place. Returns `Err(())` if the application forces
/// two distinct constants to be equal.
fn apply_conjunct(
    branch: &mut Branch,
    conjunct: &Conjunct,
    mut sub: Substitution,
    index: &DedIndex,
    fds: &FunctionalDependencies,
) -> Result<(), ()> {
    bind_determined(&mut sub, conjunct, &branch.resident.inst, fds);
    // Freshen every conclusion variable still unbound.
    for v in conjunct.variables() {
        if !sub.binds(v) {
            sub.set(v, Term::Var(Variable { name: v.name, index: branch.fresh }));
            branch.fresh += 1;
        }
    }
    let Branch { resident, needs_check, row, .. } = &mut *branch;
    for atom in &conjunct.atoms {
        row.clear();
        row.extend(atom.args.iter().map(|t| sub.apply_term(*t)));
        if resident.inst.insert(atom.predicate, row) {
            index.mark(atom.predicate, needs_check);
        }
    }
    for (a, b) in &conjunct.equalities {
        let ia = sub.apply_term_deep(*a);
        let ib = sub.apply_term_deep(*b);
        if ia == ib {
            continue;
        }
        let (from, to) = match (ia, ib) {
            (Term::Var(v), t) => (v, t),
            (t, Term::Var(v)) => (v, t),
            (Term::Const(_), Term::Const(_)) => return Err(()),
        };
        let mut s = Substitution::new();
        s.set(from, to);
        branch.rename(&s, index);
        sub = sub.then(&s);
    }
    Ok(())
}

/// One round over a branch: evaluate every *dirty* dependency's premise
/// once, in the compiled (EGD-priority) order, and apply every unblocked
/// step. Returns early on a unification (the EGDs then run to fixpoint
/// again before any TGD fires), a split, a denial or the atom budget; a TGD
/// that applies steps hands the rest of the round to the dependencies after
/// it, which see its atoms.
///
/// Dependencies whose `needs_check` flag is off are skipped entirely: no
/// atom of their premise predicates was inserted or rewritten since they
/// were last confirmed at fixpoint, the instance only grows, and blocked
/// steps stay blocked — so no new unblocked binding can exist. This is what
/// makes resumed back-chases (a fixpoint seed plus one atom) touch only the
/// dependency cone of the new atom instead of sweeping the whole set. A
/// dirty dependency re-joins its full premise, asking only for the bindings
/// that are not blocked on the instance as it stands.
fn run_round(
    branch: &mut Branch,
    compiled: &[CompiledDed],
    index: &DedIndex,
    fds: &FunctionalDependencies,
    stats: &mut ChaseStats,
    max_atoms: usize,
    scratch: &mut JoinScratch,
) -> RoundResult {
    let mut changed = false;
    for (di, ded) in compiled.iter().enumerate() {
        if !branch.needs_check[di] {
            continue;
        }
        let mut applied_any = false;
        let unblocked = ded.unblocked_bindings(&branch.resident.inst, scratch);
        stats.premise_evaluations += 1;
        stats.premise_rows += unblocked.premise_rows;
        if stats.dependencies.len() <= ded.source {
            stats.dependencies.resize(ded.source + 1, DependencyWork::default());
        }
        let work = &mut stats.dependencies[ded.source];
        work.evaluations += 1;
        work.premise_rows += unblocked.premise_rows;
        for h in unblocked.bindings {
            // Re-check against the (possibly grown) instance so that bulk
            // application does not duplicate work already satisfied earlier in
            // this round.
            if ded.blocked(&h, &branch.resident.inst, scratch) {
                continue;
            }
            stats.applied_steps += 1;
            stats.dependencies[ded.source].applied_steps += 1;
            applied_any = true;
            if ded.conclusions.is_empty() {
                return RoundResult::Failed;
            }
            if ded.conclusions.len() > 1 {
                let mut children = Vec::new();
                for c in &ded.conclusions {
                    let mut child = branch.clone();
                    if apply_conjunct(&mut child, &c.conjunct, h.clone(), index, fds).is_ok() {
                        children.push(child);
                    } else {
                        stats.failed_branches += 1;
                    }
                }
                return RoundResult::Split(children);
            }
            let conclusion = &ded.conclusions[0];
            match apply_conjunct(branch, &conclusion.conjunct, h, index, fds) {
                Ok(()) => changed = true,
                Err(()) => return RoundResult::Failed,
            }
            if branch.resident.inst.len() > max_atoms {
                return RoundResult::Changed;
            }
            // A unification may invalidate the remaining pre-computed
            // bindings of every dependency: restart the round, so the EGDs
            // (sorted to the front of `compiled`) run to fixpoint before
            // any TGD fires again.
            if !conclusion.conjunct.equalities.is_empty() {
                return RoundResult::Changed;
            }
        }
        if !applied_any {
            // Every binding blocked: this dependency is at fixpoint until an
            // atom of one of its premise predicates changes (apply_conjunct /
            // rename re-mark it through the index).
            branch.needs_check[di] = false;
        }
    }
    if changed {
        RoundResult::Changed
    } else {
        RoundResult::NoChange
    }
}

/// One chased branch kept *resident*: the symbolic instance (with its warm
/// column indexes), the head and inequalities it carries, and the renaming
/// the chase accumulated.
///
/// Resuming from a `ResidentBranch` ([`chase_resident_with_atoms_compiled`])
/// clones the instance's map of relation handles: every index the previous
/// chase built is reused as-is and a relation is copied only when the
/// resumed chase first writes it, so one branch seeds every superset
/// candidate of the next backchase level.
#[derive(Clone, Debug)]
pub struct ResidentBranch {
    inst: SymbolicInstance,
    head: Vec<Term>,
    inequalities: Vec<(Term, Term)>,
    /// Composition of every unification applied to this branch: it maps
    /// variables of the query the chase started from to the terms that
    /// replaced them. A resume renames its extra atoms — phrased over those
    /// original variables — through it before insertion.
    renaming: Substitution,
}

impl ResidentBranch {
    /// `Inst(Q)` with `q`'s head and inequalities: where a chase starts.
    fn from_query(q: &ConjunctiveQuery) -> ResidentBranch {
        ResidentBranch {
            inst: SymbolicInstance::from_query(q),
            head: q.head.clone(),
            inequalities: q.inequalities.clone(),
            renaming: Substitution::new(),
        }
    }

    /// The branch head (in branch variable space).
    pub fn head(&self) -> &[Term] {
        &self.head
    }

    /// The instance backing the branch — what a containment test into the
    /// branch runs over ([`crate::maps_into`]).
    pub fn instance(&self) -> &SymbolicInstance {
        &self.inst
    }

    /// Copy every relation the branch shares with another instance (see
    /// [`SymbolicInstance::own_relations`]).
    pub(crate) fn own_relations(&mut self) {
        self.inst.own_relations();
    }

    /// The branch as a query with the given name (deterministic atom order,
    /// as in [`SymbolicInstance::to_query`]).
    pub fn to_query(&self, name: &str) -> ConjunctiveQuery {
        self.inst.to_query(name, self.head.clone(), self.inequalities.clone())
    }
}

/// A completed chase whose branches stay resident (see [`ResidentBranch`]).
///
/// This is the chase result form the backchase memoizes across levels: a
/// candidate's chase is kept as instances, and each superset of the
/// candidate resumes directly from them.
#[derive(Clone, Debug)]
pub struct ResidentChase {
    branches: Vec<ResidentBranch>,
    stats: ChaseStats,
}

impl ResidentChase {
    /// Chase statistics.
    pub fn stats(&self) -> &ChaseStats {
        &self.stats
    }

    /// Did every branch fail (query inconsistent with the constraints)?
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// The resident branches.
    pub fn branches(&self) -> &[ResidentBranch] {
        &self.branches
    }

    /// Take ownership of the resident branches (for memoization).
    pub fn into_branches(self) -> Vec<ResidentBranch> {
        self.branches
    }

    /// The resident branches and the statistics, taken apart.
    pub(crate) fn into_parts(self) -> (Vec<ResidentBranch>, ChaseStats) {
        (self.branches, self.stats)
    }

    /// The first surviving branch rendered as the query `{name}_up0` — the
    /// universal plan the backchase enumerates subqueries of. `None` when the
    /// query was inconsistent with the constraints.
    pub fn primary(&self, name: &str) -> Option<ConjunctiveQuery> {
        self.branches.first().map(|b| b.to_query(&format!("{name}_up0")))
    }
}

/// Chase `query` with an already-compiled dependency set (see
/// [`CompiledDeps`]; build it once per dependency set, not per chase) to a
/// *resident* result (see [`ResidentChase`]): the branches keep their warm
/// instances, and [`ResidentChase::primary`] renders the universal plan.
pub fn chase_to_resident_compiled(
    query: &ConjunctiveQuery,
    compiled: &CompiledDeps,
    options: &ChaseOptions,
) -> ResidentChase {
    run_chase(vec![Branch::live(ResidentBranch::from_query(query))], compiled, options, None)
}

/// Resume a chase from resident branches, each extended with extra atoms.
///
/// `seeds` are the branches of a previous chase of a *subquery*; `extra` is
/// phrased over the variables of that original subquery and is renamed per
/// branch (through the renaming its chase accumulated) before insertion.
/// Because the chase
/// is monotone, chasing `chase(Q) ∪ θ(extra)` reaches a universal plan
/// homomorphically equivalent to chasing `Q ∪ extra` from scratch — but the
/// seed branches are already at fixpoint, so only consequences of the new
/// atoms fire. This is the memoization hook the backchase uses to grow
/// candidates one atom at a time.
///
/// Each seed is cloned (its relations and their warm indexes carry over by
/// handle, without any rebuild) and grown by the renamed `extra` atoms; only
/// the dependency cone of the inserted predicates starts dirty.
pub fn chase_resident_with_atoms_compiled(
    seeds: &[ResidentBranch],
    extra: &[Atom],
    compiled: &CompiledDeps,
    options: &ChaseOptions,
) -> ResidentChase {
    let (_, closure, _) = compiled.for_chase(options.use_shortcut);
    let initial: Vec<Branch> = seeds
        .iter()
        .map(|seed| {
            let mut b = Branch::live(seed.clone());
            // The seed's closure is at fixpoint over the pre-insert relations:
            // mark it *before* the inserts so the first round extends it by
            // the inserted atoms alone.
            if let Some(c) = closure {
                b.closure_marks = c.marks_at_fixpoint(&b.resident.inst, b.rewrites);
            }
            for a in extra {
                let renamed = b.resident.renaming.apply_atom_deep(a);
                b.resident.inst.insert_atom(&renamed);
            }
            b
        })
        .collect();
    // The seeds are at fixpoint, so only dependencies whose premise mentions
    // a predicate of the inserted atoms can have new unblocked steps — the
    // chase starts with exactly those dirty (renaming preserves predicates).
    let dirty: HashSet<Predicate> = extra.iter().map(|a| a.predicate).collect();
    run_chase(initial, compiled, options, Some(&dirty))
}

/// What chasing one branch to quiescence produced. The finished branch is
/// boxed: a `Branch` carries its instance and closure marks inline, which
/// would otherwise dwarf the other variants.
enum BranchOutcome {
    /// Reached a fixpoint (or ran out of budget — `completed` is cleared in
    /// the per-branch stats then).
    Done(Box<Branch>),
    /// A denial fired or a unification forced a constant clash.
    Failed,
    /// A disjunctive dependency split the branch; the children continue on
    /// the next worklist level.
    Split(Vec<Branch>),
}

/// Chase one branch until it finishes, fails or splits. Self-contained: all
/// state lives in the branch (fresh counter, dirty flags, round budget)
/// and in the per-branch `stats`.
fn chase_branch(
    mut branch: Branch,
    compiled: &[CompiledDed],
    closure: Option<&ClosureConstraints>,
    index: &DedIndex,
    fds: &FunctionalDependencies,
    options: &ChaseOptions,
    stats: &mut ChaseStats,
) -> BranchOutcome {
    // One working memory for every premise evaluation of this branch.
    let mut scratch = JoinScratch::default();
    loop {
        let over_budget = if branch.rounds >= options.max_rounds {
            Some(ChaseStop::Rounds)
        } else if branch.resident.inst.len() >= options.max_atoms {
            Some(ChaseStop::Atoms)
        } else if options.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(ChaseStop::Deadline)
        } else {
            None
        };
        if let Some(stop) = over_budget {
            stats.completed = false;
            stats.stop = Some(stop);
            return BranchOutcome::Done(Box::new(branch));
        }
        branch.rounds += 1;
        stats.rounds += 1;

        let mut shortcut_changed = false;
        if let Some(closure) = closure {
            if closure.any() {
                let added = apply_closure_watermarked(
                    &mut branch.resident.inst,
                    closure,
                    &mut branch.closure_marks,
                    branch.rewrites,
                );
                stats.shortcut_desc_added += added;
                shortcut_changed = added > 0;
                if added > 0 {
                    // The closure inserted `desc` atoms behind the index's
                    // back: re-check exactly the dependencies whose premise
                    // mentions a group's `desc` relation — the only ones the
                    // shortcut can unblock.
                    for g in &closure.groups {
                        index.mark(g.desc_pred(), &mut branch.needs_check);
                    }
                }
            }
        }

        match run_round(&mut branch, compiled, index, fds, stats, options.max_atoms, &mut scratch) {
            RoundResult::NoChange => {
                if !shortcut_changed {
                    return BranchOutcome::Done(Box::new(branch));
                }
            }
            RoundResult::Changed => {}
            RoundResult::Failed => {
                stats.failed_branches += 1;
                return BranchOutcome::Failed;
            }
            RoundResult::Split(children) => return BranchOutcome::Split(children),
        }
    }
}

/// The chase driver behind every entry point. The finished branches stay
/// resident (live instances included); only the transients of the run are
/// dropped.
///
/// The dependency set arrives pre-compiled (closure detection, per-DED
/// compilation, EGD-priority ordering, premise-predicate index — see
/// [`CompiledDeps`]); nothing is compiled per chase. `initial_dirty`
/// restricts the initial delta (see [`DedIndex::initial_needs`]): `None` for
/// a from-scratch chase, the inserted predicates for a chase resumed from
/// fixpoint seeds.
///
/// The branch worklist is **level-synchronous**: the pending branches of a
/// level are chased one after the other, each with its own fresh-variable
/// counter and statistics, and the children of a split wait for the next
/// level.
fn run_chase(
    initial: Vec<Branch>,
    deps: &CompiledDeps,
    options: &ChaseOptions,
    initial_dirty: Option<&HashSet<Predicate>>,
) -> ResidentChase {
    let start = Instant::now();
    let (compiled, closure, index) = deps.for_chase(options.use_shortcut);
    let fds = deps.functional_dependencies();

    let mut stats = ChaseStats { completed: true, ..Default::default() };
    let base_fresh =
        (initial.iter().map(|b| b.resident.inst.max_variable_index()).max().unwrap_or_default()
            + 1)
        .max(options.min_fresh_index);
    let mut level = initial;
    for b in &mut level {
        b.needs_check = index.initial_needs(initial_dirty);
        b.fresh = base_fresh;
    }
    let mut done: Vec<Branch> = Vec::new();

    while !level.is_empty() {
        // Branch budget: branches beyond it are parked unchased (and the
        // plan is flagged incomplete), matching the old worklist behaviour.
        if done.len() + level.len() > options.max_branches {
            stats.completed = false;
            stats.stop.get_or_insert(ChaseStop::Branches);
            let keep = options.max_branches.saturating_sub(done.len());
            let parked = level.split_off(keep);
            done.extend(parked);
            if level.is_empty() {
                break;
            }
        }
        let mut next: Vec<Branch> = Vec::new();
        for branch in level {
            // The branches share one per-dependency tally.
            let dependencies = std::mem::take(&mut stats.dependencies);
            let mut s = ChaseStats { completed: true, dependencies, ..Default::default() };
            let outcome = chase_branch(branch, compiled, closure, index, fds, options, &mut s);
            stats.dependencies = s.dependencies;
            stats.rounds += s.rounds;
            stats.applied_steps += s.applied_steps;
            stats.premise_rows += s.premise_rows;
            stats.premise_evaluations += s.premise_evaluations;
            stats.shortcut_desc_added += s.shortcut_desc_added;
            stats.failed_branches += s.failed_branches;
            stats.completed &= s.completed;
            if stats.stop.is_none() {
                stats.stop = s.stop;
            }
            match outcome {
                BranchOutcome::Done(b) => done.push(*b),
                BranchOutcome::Failed => {}
                BranchOutcome::Split(children) => next.extend(children),
            }
        }
        level = next;
    }

    stats.duration = start.elapsed();
    ResidentChase { branches: done.into_iter().map(|b| b.resident).collect(), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::SCAN_THRESHOLD;
    use mars_cq::atom::builders::*;
    use mars_cq::ded::view_dependencies;
    use mars_cq::{Atom, Conjunct, Ded, Term};
    use mars_oracle::{containment_mapping, naive_chase, ChaseBudget};

    fn t(n: &str) -> Term {
        Term::var(n)
    }
    fn v(n: &str) -> Variable {
        Variable::named(n)
    }

    /// The chase of `q` with `deds`, compiled for this one chase.
    fn chase(q: &ConjunctiveQuery, deds: &[Ded], options: &ChaseOptions) -> ResidentChase {
        chase_to_resident_compiled(q, &CompiledDeps::new(deds), options)
    }

    /// The universal plan: the first surviving branch, rendered.
    fn plan(up: &ResidentChase) -> ConjunctiveQuery {
        up.primary("Q").expect("a surviving branch")
    }

    fn tix_core() -> Vec<Ded> {
        vec![
            Ded::tgd("base", vec![child(t("x"), t("y"))], vec![], vec![desc(t("x"), t("y"))]),
            Ded::tgd(
                "trans",
                vec![desc(t("x"), t("y")), desc(t("y"), t("z"))],
                vec![],
                vec![desc(t("x"), t("z"))],
            ),
        ]
    }

    #[test]
    fn section_2_3_universal_plan_matches_naive_chase() {
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
        let deds = vec![ind, c_v, b_v];
        let up = chase(&q, &deds, &ChaseOptions::default());
        assert!(up.stats.completed);
        let plan = plan(&up);
        assert_eq!(plan.body.len(), 3);
        let preds: Vec<&str> = plan.body.iter().map(|a| a.predicate.name()).collect();
        assert!(preds.contains(&"V"));

        // Same size as the naive chase result.
        let naive = naive_chase(&q, &deds, &ChaseBudget::small());
        assert_eq!(naive.single().unwrap().body.len(), plan.body.len());
    }

    #[test]
    fn chain_closure_with_and_without_shortcut_agree() {
        let n = 7;
        let mut body = vec![root(t("x0")), desc(t("x0"), t("x1"))];
        for i in 1..n {
            body.push(child(t(&format!("x{i}")), t(&format!("x{}", i + 1))));
        }
        let q = ConjunctiveQuery::new("path").with_head(vec![t(&format!("x{n}"))]).with_body(body);
        let with = chase(&q, &tix_core(), &ChaseOptions::default());
        let without = chase(&q, &tix_core(), &ChaseOptions::without_shortcut());
        assert!(with.stats.completed && without.stats.completed);
        assert_eq!(plan(&with).body.len(), plan(&without).body.len());
        assert!(with.stats.shortcut_desc_added > 0);
        assert_eq!(without.stats.shortcut_desc_added, 0);
        // The shortcut replaces many individual steps.
        assert!(with.stats.applied_steps < without.stats.applied_steps);
    }

    #[test]
    fn egd_unification_rewrites_head() {
        // key: R(k,a) ∧ R(k,b) → a = b; head exposes both a and b.
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("x"), t("y")]).with_body(vec![
            Atom::named("R", vec![t("k"), t("x")]),
            Atom::named("R", vec![t("k"), t("y")]),
        ]);
        let key = Ded::egd(
            "key",
            vec![Atom::named("R", vec![t("u"), t("p")]), Atom::named("R", vec![t("u"), t("q")])],
            t("p"),
            t("q"),
        );
        let up = chase(&q, &[key], &ChaseOptions::default());
        let plan = plan(&up);
        assert_eq!(plan.head[0], plan.head[1], "head variables must be unified");
        assert_eq!(plan.body.len(), 1);
    }

    /// `from(x) → to(x)`.
    fn copy(name: &str, from: &str, to: &str) -> Ded {
        Ded::tgd(
            name,
            vec![Atom::named(from, vec![t("x")])],
            vec![],
            vec![Atom::named(to, vec![t("x")])],
        )
    }

    /// The atoms of `up`'s first branch over `predicate`.
    fn count(up: &ResidentChase, predicate: &str) -> usize {
        plan(up).body.iter().filter(|a| a.predicate.name() == predicate).count()
    }

    /// A TGD that applies steps does not end the round: a chain of
    /// non-recursive TGDs, each fed by the one before it, fires in one round
    /// (and one more confirms the fixpoint).
    #[test]
    fn a_chain_of_tgds_applies_in_one_round() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("a")])
            .with_body(vec![Atom::named("A", vec![t("a")])]);
        let deds = [copy("ab", "A", "B"), copy("bc", "B", "C"), copy("cd", "C", "D")];
        let up = chase(&q, &deds, &ChaseOptions::default());
        assert!(up.stats.completed);
        assert_eq!((up.stats.applied_steps, up.stats.rounds), (3, 2));
        assert_eq!(count(&up, "D"), 1);
        // Each dependency's work, by its position in the set: every one
        // fires once, and is evaluated again in the confirming round.
        let once = DependencyWork { evaluations: 2, premise_rows: 2, applied_steps: 1 };
        assert_eq!(up.stats.dependencies, [once; 3]);
    }

    /// EGDs run first in every round: the key merges `x` and `y` before the
    /// TGD sees `A(x)` and `A(y)`, so it fires once, not once per duplicate.
    /// The TGD is listed first; the compiled order puts the EGD before it.
    #[test]
    fn an_egd_runs_before_the_tgds_of_its_round() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("x")]).with_body(vec![
            Atom::named("R", vec![t("k"), t("x")]),
            Atom::named("R", vec![t("k"), t("y")]),
            Atom::named("A", vec![t("x")]),
            Atom::named("A", vec![t("y")]),
        ]);
        let invent = Ded::tgd(
            "invent",
            vec![Atom::named("A", vec![t("v")])],
            vec![v("z")],
            vec![Atom::named("B", vec![t("v"), t("z")])],
        );
        let key = Ded::egd(
            "key",
            vec![Atom::named("R", vec![t("u"), t("p")]), Atom::named("R", vec![t("u"), t("q")])],
            t("p"),
            t("q"),
        );
        let up = chase(&q, &[invent, key], &ChaseOptions::default());
        assert!(up.stats.completed);
        // Round 1 merges and restarts, round 2 fires the TGD, round 3 is
        // the fixpoint.
        assert_eq!((up.stats.applied_steps, up.stats.rounds), (2, 3));
        assert_eq!(count(&up, "B"), 1, "one invented B, not one per duplicate");
    }

    /// A split ends its round: the TGD after the disjunctive dependency
    /// fires in each child, not once in the parent before it splits.
    #[test]
    fn a_split_ends_the_round() {
        let split = Ded::disjunctive(
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
        let up = chase(&q, &[split, copy("ru", "R", "U")], &ChaseOptions::default());
        assert_eq!(up.branches().len(), 2);
        assert_eq!(up.stats.applied_steps, 3, "the split, then U in each child");
        assert!(up.branches().iter().all(|b| b.instance().len() == 3));
    }

    /// A denial ends its round, and the branch: the TGD after it never
    /// fires.
    #[test]
    fn a_denial_ends_the_round() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![])
            .with_body(vec![child(t("x"), t("x")), Atom::named("A", vec![t("x")])]);
        let denial = Ded::denial("no_self", vec![child(t("u"), t("u"))]);
        let up = chase(&q, &[copy("ab", "A", "B"), denial], &ChaseOptions::default());
        assert!(up.branches().is_empty());
        assert_eq!((up.stats.applied_steps, up.stats.rounds), (1, 1));
    }

    /// The atom budget ends its round at the step that crosses it: the
    /// second TGD of the round never fires.
    #[test]
    fn the_atom_budget_ends_the_round() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![])
            .with_body(["x1", "x2", "x3"].map(|x| Atom::named("A", vec![t(x)])).to_vec());
        let deds = [copy("ab", "A", "B"), copy("ac", "A", "C")];
        let up = chase(&q, &deds, &ChaseOptions { max_atoms: 4, ..Default::default() });
        assert_eq!(up.stats.stop, Some(ChaseStop::Atoms));
        assert_eq!((up.stats.applied_steps, up.stats.rounds), (2, 1));
        assert_eq!(count(&up, "C"), 0);
    }

    /// A recursive TGD takes its bindings at the start of a round; what its
    /// own steps add leaves it dirty, so it is evaluated again, round after
    /// round, until its fixpoint. The path a → b → c → d → e closes in two
    /// rounds (paths of length 2, then 3 and 4) and a third confirms it.
    #[test]
    fn a_recursive_tgd_runs_to_fixpoint() {
        let nodes = ["a", "b", "c", "d", "e"];
        let body = nodes.windows(2).map(|w| Atom::named("P", vec![t(w[0]), t(w[1])])).collect();
        let q = ConjunctiveQuery::new("Q").with_head(vec![]).with_body(body);
        let trans = Ded::tgd(
            "trans",
            vec![Atom::named("P", vec![t("x"), t("y")]), Atom::named("P", vec![t("y"), t("z")])],
            vec![],
            vec![Atom::named("P", vec![t("x"), t("z")])],
        );
        let up = chase(&q, &[trans], &ChaseOptions::default());
        assert!(up.stats.completed);
        assert_eq!(up.stats.rounds, 3);
        assert_eq!(count(&up, "P"), 10, "every pair i < j");
    }

    /// Resuming a chase from a previously chased subquery plus one atom must
    /// reach the same universal plan as chasing the extended query from
    /// scratch (the memoization contract of the backchase).
    #[test]
    fn seeded_chase_matches_scratch_chase() {
        let q_sub = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let ind = Ded::tgd(
            "ind",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("B", vec![t("y"), t("z")])],
        );
        let opts = ChaseOptions::default();
        let compiled = CompiledDeps::new(std::slice::from_ref(&ind));
        let sub = chase_to_resident_compiled(&q_sub, &compiled, &opts);

        let extra = Atom::named("A", vec![t("y"), t("w")]);
        let seeded = chase_resident_with_atoms_compiled(
            sub.branches(),
            std::slice::from_ref(&extra),
            &compiled,
            &opts,
        );
        let scratch = chase(&q_sub.clone().with_atom(extra), &[ind], &opts);
        assert!(seeded.stats.completed && scratch.stats.completed);
        assert_eq!(plan(&seeded).body.len(), plan(&scratch).body.len());
        // Homomorphically equivalent (head-preserving both ways).
        assert!(containment_mapping(&plan(&seeded), &plan(&scratch)).is_some());
        assert!(containment_mapping(&plan(&scratch), &plan(&seeded)).is_some());
    }

    /// A resident resume reaches a universal plan homomorphically equivalent
    /// to the from-scratch chase whether its seed came from a from-scratch
    /// chase or is itself a resumed chase (how the backchase grows a
    /// candidate level by level), and confirms completion the same way.
    #[test]
    fn resident_chase_matches_seeded_and_scratch_chase() {
        let q_sub = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let ind = Ded::tgd(
            "ind",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("B", vec![t("y"), t("z")])],
        );
        let opts = ChaseOptions::default();
        let compiled = CompiledDeps::new(std::slice::from_ref(&ind));

        let resident = chase_to_resident_compiled(&q_sub, &compiled, &opts);
        assert!(resident.stats().completed);
        assert_eq!(resident.branches().len(), 1);
        assert!(!resident.is_empty());

        let extras =
            [Atom::named("A", vec![t("y"), t("w")]), Atom::named("A", vec![t("w"), t("u")])];
        let resumed =
            chase_resident_with_atoms_compiled(resident.branches(), &extras, &compiled, &opts);
        let scratch = chase_to_resident_compiled(
            &q_sub.clone().with_atom(extras[0].clone()).with_atom(extras[1].clone()),
            &compiled,
            &opts,
        );
        // The seed of the second resume is the result of the first.
        let seeded = {
            let first = chase_resident_with_atoms_compiled(
                resident.branches(),
                &extras[..1],
                &compiled,
                &opts,
            );
            chase_resident_with_atoms_compiled(first.branches(), &extras[1..], &compiled, &opts)
        };
        assert!(resumed.stats().completed && scratch.stats.completed && seeded.stats.completed);
        let resumed_q = &resumed.branches()[0].to_query("S_up0");
        assert_eq!(resumed_q.body.len(), plan(&scratch).body.len());
        assert_eq!(resumed_q.body.len(), plan(&seeded).body.len());
        for other in [plan(&scratch), plan(&seeded)] {
            assert!(containment_mapping(resumed_q, &other).is_some());
            assert!(containment_mapping(&other, resumed_q).is_some());
        }
        // The universal plan is the first branch, named after the query.
        assert_eq!(resumed.primary("S").unwrap().name, "S_up0");
    }

    /// A resident seed is a true fixpoint resume: inserting nothing fires
    /// nothing (that a cloned instance keeps its warm indexes without
    /// rebuilds is unit-tested in `instance::tests`).
    #[test]
    fn resident_resume_is_a_fixpoint_resume() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let ind = Ded::tgd(
            "ind",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("B", vec![t("y"), t("z")])],
        );
        let compiled = CompiledDeps::new(std::slice::from_ref(&ind));
        let opts = ChaseOptions::default();
        let resident = chase_to_resident_compiled(&q, &compiled, &opts);
        let extra = Atom::named("A", vec![t("y"), t("w")]);
        let resumed = chase_resident_with_atoms_compiled(
            resident.branches(),
            std::slice::from_ref(&extra),
            &compiled,
            &opts,
        );
        assert!(resumed.stats().completed);
        // A resume that inserts nothing fires nothing: the seed really is at
        // fixpoint and the dirty-cone restriction sees an empty delta.
        let noop = chase_resident_with_atoms_compiled(resident.branches(), &[], &compiled, &opts);
        assert!(noop.stats().completed);
        assert_eq!(noop.stats().applied_steps, 0, "fixpoint seed plus nothing fires nothing");
    }

    /// The per-branch renaming records EGD unifications, so atoms phrased
    /// over the original variables land on the surviving representatives.
    #[test]
    fn seeded_chase_applies_recorded_renaming() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("x"), t("y")]).with_body(vec![
            Atom::named("R", vec![t("k"), t("x")]),
            Atom::named("R", vec![t("k"), t("y")]),
        ]);
        let key = Ded::egd(
            "key",
            vec![Atom::named("R", vec![t("u"), t("p")]), Atom::named("R", vec![t("u"), t("q")])],
            t("p"),
            t("q"),
        );
        let compiled = CompiledDeps::new(&[key]);
        let resident = chase_to_resident_compiled(&q, &compiled, &ChaseOptions::default());
        assert_eq!(resident.branches().len(), 1);
        assert!(!resident.branches()[0].renaming.is_empty());
        // `S(y)` references the unified-away variable; the renaming must map
        // it onto the representative that survived in the branch.
        let seeded = chase_resident_with_atoms_compiled(
            resident.branches(),
            &[Atom::named("S", vec![t("y")])],
            &compiled,
            &ChaseOptions::default(),
        );
        let plan = plan(&seeded);
        let s_atom = plan.body.iter().find(|a| a.predicate.name() == "S").unwrap();
        assert_eq!(s_atom.args[0], plan.head[0], "S must mention the surviving head variable");
    }

    /// Chase `q` with `deds` and check the determined-existential contract:
    /// the chase invents no variable, applies only the `steps` TGD steps
    /// (no EGD merges an invented variable away), and reaches a plan
    /// head-preservingly equivalent to the naive chase's.
    fn assert_reuses_every_existential(q: &ConjunctiveQuery, deds: &[Ded], steps: usize) {
        let up = chase(q, deds, &ChaseOptions::default());
        assert!(up.stats.completed);
        assert_eq!(up.stats.applied_steps, steps, "no EGD step is left to apply");
        let plan = plan(&up);
        assert!(
            plan.body.iter().flat_map(|a| a.variables()).all(|v| v.index == 0),
            "no variable is invented: {plan}"
        );
        let naive = naive_chase(q, deds, &ChaseBudget::small());
        let naive = naive.single().unwrap();
        assert!(containment_mapping(&plan, naive).is_some());
        assert!(containment_mapping(naive, &plan).is_some());
    }

    #[test]
    fn a_fresh_root_is_the_existing_root() {
        // Every A-node hangs below a root; the root is unique.
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![root(t("r")), Atom::named("A", vec![t("x")])]);
        let below = Ded::tgd(
            "below",
            vec![Atom::named("A", vec![t("x")])],
            vec![v("r2")],
            vec![root(t("r2")), desc(t("r2"), t("x"))],
        );
        let unique = Ded::egd("root_unique", vec![root(t("u")), root(t("w"))], t("u"), t("w"));
        let deds = [below, unique];
        assert_reuses_every_existential(&q, &deds, 1);
        let up = chase(&q, &deds, &ChaseOptions::default());
        assert!(plan(&up).body.contains(&desc(t("r"), t("x"))));
    }

    #[test]
    fn a_fresh_hub_is_the_hub_its_key_names() {
        // V(k) comes from a hub R(h, k) with a T-fact; k is a key for R.
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("k")]).with_body(vec![
            Atom::named("R", vec![t("h"), t("k")]),
            Atom::named("V", vec![t("k")]),
        ]);
        let b_v = Ded::tgd(
            "bV",
            vec![Atom::named("V", vec![t("k")])],
            vec![v("h2")],
            vec![Atom::named("R", vec![t("h2"), t("k")]), Atom::named("T", vec![t("h2")])],
        );
        let key = Ded::egd(
            "R_key",
            vec![Atom::named("R", vec![t("x"), t("k")]), Atom::named("R", vec![t("y"), t("k")])],
            t("x"),
            t("y"),
        );
        assert_reuses_every_existential(&q, &[b_v, key], 1);
    }

    #[test]
    fn a_hub_found_by_its_key_fixes_its_fields() {
        // The hub comes back by its key (R_key), then its fields by the
        // hub's identity (F_fd): one step, nothing invented, nothing merged.
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("k")]).with_body(vec![
            Atom::named("R", vec![t("h"), t("k")]),
            Atom::named("F", vec![t("h"), t("a"), t("b")]),
            Atom::named("V", vec![t("k")]),
        ]);
        let b_v = Ded::tgd(
            "bV",
            vec![Atom::named("V", vec![t("k")])],
            vec![v("h2"), v("a2"), v("b2")],
            vec![
                Atom::named("W", vec![t("a2"), t("b2")]),
                Atom::named("F", vec![t("h2"), t("a2"), t("b2")]),
                Atom::named("R", vec![t("h2"), t("k")]),
            ],
        );
        let key = Ded::egd(
            "R_key",
            vec![Atom::named("R", vec![t("x"), t("k")]), Atom::named("R", vec![t("y"), t("k")])],
            t("x"),
            t("y"),
        );
        let fields = Ded::disjunctive(
            "F_fd",
            vec![
                Atom::named("F", vec![t("h"), t("a"), t("b")]),
                Atom::named("F", vec![t("h"), t("c"), t("d")]),
            ],
            vec![Conjunct::equalities(vec![(t("a"), t("c")), (t("b"), t("d"))])],
        );
        let deds = [b_v, key, fields];
        assert_reuses_every_existential(&q, &deds, 1);
        let up = chase(&q, &deds, &ChaseOptions::default());
        assert!(plan(&up).body.contains(&Atom::named("W", vec![t("a"), t("b")])));
    }

    /// Reuse reads the relation the way a join step does: past
    /// [`SCAN_THRESHOLD`] tuples through the column index, and either way
    /// the first tuple with the key.
    #[test]
    fn the_first_tuple_with_the_key_is_reused_on_both_sides_of_the_scan_threshold() {
        for hubs in [2, SCAN_THRESHOLD + 4] {
            let mut body: Vec<Atom> = (0..hubs)
                .map(|i| Atom::named("R", vec![t(&format!("h{i}")), t(&format!("k{i}"))]))
                .collect();
            let last = hubs - 1;
            body.push(Atom::named("V", vec![t(&format!("k{last}"))]));
            let q = ConjunctiveQuery::new("Q").with_head(vec![]).with_body(body);
            let b_v = Ded::tgd(
                "bV",
                vec![Atom::named("V", vec![t("k")])],
                vec![v("h2")],
                vec![Atom::named("R", vec![t("h2"), t("k")]), Atom::named("T", vec![t("h2")])],
            );
            let key = Ded::egd(
                "R_key",
                vec![
                    Atom::named("R", vec![t("x"), t("k")]),
                    Atom::named("R", vec![t("y"), t("k")]),
                ],
                t("x"),
                t("y"),
            );
            let up = chase(&q, &[b_v, key], &ChaseOptions::default());
            assert_eq!(up.stats.applied_steps, 1, "{hubs} hubs");
            assert!(plan(&up).body.contains(&Atom::named("T", vec![t(&format!("h{last}"))])));
        }
    }

    /// A premise-bound term is never rebound: of the two determined
    /// columns, the step binds the existential one and leaves the one the
    /// premise fills to the EGD, which still reports the constant clash as
    /// a failed branch.
    #[test]
    fn a_premise_bound_clash_is_still_the_egds() {
        let (one, two) = (Term::constant_int(1), Term::constant_int(2));
        let q = ConjunctiveQuery::new("Q").with_head(vec![]).with_body(vec![
            Atom::named("R", vec![t("k"), one, t("x")]),
            Atom::named("V", vec![t("k"), two]),
        ]);
        let b_v = Ded::tgd(
            "bV",
            vec![Atom::named("V", vec![t("k"), t("a")])],
            vec![v("z")],
            vec![Atom::named("R", vec![t("k"), t("a"), t("z")])],
        );
        let fd = Ded::disjunctive(
            "R_fd",
            vec![
                Atom::named("R", vec![t("k"), t("a"), t("b")]),
                Atom::named("R", vec![t("k"), t("c"), t("d")]),
            ],
            vec![Conjunct::equalities(vec![(t("a"), t("c")), (t("b"), t("d"))])],
        );
        let up = chase(&q, &[b_v, fd], &ChaseOptions::default());
        assert!(up.stats.completed);
        assert!(up.branches().is_empty());
        assert_eq!(up.stats.failed_branches, 1);
    }

    #[test]
    fn denial_fails_all_branches() {
        let q = ConjunctiveQuery::new("Q").with_body(vec![child(t("x"), t("x"))]);
        let denial = Ded::denial("no_self", vec![child(t("u"), t("u"))]);
        let up = chase(&q, &[denial], &ChaseOptions::default());
        assert!(up.branches().is_empty());
        assert_eq!(up.stats.failed_branches, 1);
    }

    #[test]
    fn disjunctive_dependency_splits_branches() {
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
        let up = chase(&q, &[d], &ChaseOptions::default());
        assert_eq!(up.branches().len(), 2);
        assert!(up.branches().iter().all(|b| b.instance().len() == 2));
    }

    #[test]
    fn budget_stops_divergent_chase() {
        let d = Ded::tgd(
            "inf",
            vec![Atom::named("R", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("R", vec![t("y"), t("z")])],
        );
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("a")])
            .with_body(vec![Atom::named("R", vec![t("a"), t("b")])]);
        let opts = ChaseOptions { max_rounds: 4, ..Default::default() };
        let up = chase(&q, &[d], &opts);
        assert!(!up.stats.completed);
        assert!(!up.branches().is_empty());
    }

    #[test]
    fn view_atoms_enter_plan_only_when_semantics_allow() {
        // Without (ind), the view V(x,z) :- A(x,y), B(y,z) cannot be brought
        // into the chase of Q(x) :- A(x,y).
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let defq = ConjunctiveQuery::new("V").with_head(vec![t("x"), t("z")]).with_body(vec![
            Atom::named("A", vec![t("x"), t("y")]),
            Atom::named("B", vec![t("y"), t("z")]),
        ]);
        let (c_v, b_v) = view_dependencies("V", &defq);
        let up = chase(&q, &[c_v, b_v], &ChaseOptions::default());
        let plan = plan(&up);
        assert!(plan.body.iter().all(|a| a.predicate.name() != "V"));
    }

    #[test]
    fn fresh_variables_do_not_collide() {
        // Two independent A-facts each trigger (ind): the two invented B
        // targets must be distinct variables.
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("x1"), t("x2")]).with_body(vec![
            Atom::named("A", vec![t("x1"), t("y1")]),
            Atom::named("A", vec![t("x2"), t("y2")]),
        ]);
        let ind = Ded::tgd(
            "ind",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("B", vec![t("y"), t("z")])],
        );
        let up = chase(&q, &[ind], &ChaseOptions::default());
        let plan = plan(&up);
        let b_atoms: Vec<&Atom> = plan.body.iter().filter(|a| a.predicate.name() == "B").collect();
        assert_eq!(b_atoms.len(), 2);
        assert_ne!(b_atoms[0].args[1], b_atoms[1].args[1]);
    }

    #[test]
    fn timeout_is_reported_as_incomplete() {
        let d = Ded::tgd(
            "inf",
            vec![Atom::named("R", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("R", vec![t("y"), t("z")])],
        );
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("a")])
            .with_body(vec![Atom::named("R", vec![t("a"), t("b")])]);
        let opts = ChaseOptions::default().with_deadline(Instant::now());
        let up = chase(&q, &[d], &opts);
        assert!(!up.stats.completed);
        assert_eq!(up.stats.stop, Some(ChaseStop::Deadline));
    }

    /// Incomplete chases report which budget stopped them.
    #[test]
    fn stop_reason_distinguishes_budgets() {
        let d = Ded::tgd(
            "inf",
            vec![Atom::named("R", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("R", vec![t("y"), t("z")])],
        );
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("a")])
            .with_body(vec![Atom::named("R", vec![t("a"), t("b")])]);
        let rounds = chase(
            &q,
            std::slice::from_ref(&d),
            &ChaseOptions { max_rounds: 4, ..Default::default() },
        );
        assert_eq!(rounds.stats.stop, Some(ChaseStop::Rounds));
        let atoms = chase(
            &q,
            std::slice::from_ref(&d),
            &ChaseOptions { max_atoms: 2, ..Default::default() },
        );
        assert_eq!(atoms.stats.stop, Some(ChaseStop::Atoms));
        let complete =
            chase(&q, &[], &ChaseOptions { max_rounds: 4, max_atoms: 2, ..Default::default() });
        assert!(complete.stats.completed);
        assert_eq!(complete.stats.stop, None);
    }

    /// The deadline is an absolute instant, not a duration measured per run:
    /// one set before a resume must stop the resumed chase exactly like a
    /// fresh one.
    #[test]
    fn expired_deadline_is_honored_on_resumed_chases() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let ind = Ded::tgd(
            "ind",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("B", vec![t("y"), t("z")])],
        );
        let compiled = CompiledDeps::new(std::slice::from_ref(&ind));
        // Seed chased to fixpoint without any deadline pressure.
        let resident = chase_to_resident_compiled(&q, &compiled, &ChaseOptions::default());
        assert!(resident.stats().completed);

        let expired = Instant::now() - Duration::from_secs(1);
        let extra = Atom::named("A", vec![t("y"), t("w")]);
        // The resume respects the pre-set absolute deadline.
        let resumed = chase_resident_with_atoms_compiled(
            resident.branches(),
            std::slice::from_ref(&extra),
            &compiled,
            &ChaseOptions::default().with_deadline(expired),
        );
        assert!(!resumed.stats().completed, "an already-expired deadline must stop the resume");
        assert_eq!(resumed.stats().stop, Some(ChaseStop::Deadline));
        assert_eq!(resumed.stats().applied_steps, 0);
        // A generous deadline changes nothing: the resume completes and is
        // byte-identical to an undeadlined resume.
        let fut = Instant::now() + Duration::from_secs(3600);
        let bounded = chase_resident_with_atoms_compiled(
            resident.branches(),
            std::slice::from_ref(&extra),
            &compiled,
            &ChaseOptions::default().with_deadline(fut),
        );
        let unbounded = chase_resident_with_atoms_compiled(
            resident.branches(),
            std::slice::from_ref(&extra),
            &compiled,
            &ChaseOptions::default(),
        );
        assert!(bounded.stats().completed);
        assert_eq!(format!("{:?}", bounded.primary("S")), format!("{:?}", unbounded.primary("S")));
    }
}
