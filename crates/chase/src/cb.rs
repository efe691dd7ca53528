//! The top-level Chase & Backchase driver.
//!
//! [`ChaseBackchase`] bundles the dependency set (compiled schema
//! correspondence + XICs + TIX), the proprietary-schema predicate set and
//! the chase/backchase options, and exposes the reformulation entry point
//! used by the MARS facade and the experiments,
//! [`ChaseBackchase::reformulate`] — full C&B: chase to the universal plan,
//! compute the initial reformulation (Section 2.3; the time to it is
//! [`CbStatistics::time_to_initial`]), run the backchase, return all minimal
//! reformulations and the cost-optimal one. Candidates are priced by the
//! backchase's additive per-atom cost model ([`mod@crate::backchase`]).

use crate::backchase::{
    backchase, proprietary_atoms, BackchaseOptions, BackchaseOutcome, Degradation,
};
use crate::chase::{chase_to_resident_compiled, ChaseOptions, ChaseStats, DependencyWork};
use crate::compiled::CompiledDeps;
use crate::instance::thread_index_build_count;
use mars_cq::{ConjunctiveQuery, Ded, Predicate};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A per-request budget for one reformulation: a wall-clock deadline plus
/// candidate/atom ceilings, all optional. The budget extends the standing
/// engine options ([`ChaseOptions::deadline`],
/// [`BackchaseOptions::max_candidates`], [`ChaseOptions::max_atoms`])
/// without replacing them: applying it ([`ReformulationBudget::apply`])
/// tightens a copy of the engine's [`CbOptions`] for this one request, and a
/// bound looser than the engine's changes nothing.
///
/// Budgets degrade, they do not error: a run that exhausts its budget
/// returns the best reformulation found so far tagged with a
/// [`Degradation`] reason (see [`CbStatistics::degradation`]), and the
/// universal plan remains the sound floor when nothing was found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReformulationBudget {
    /// Wall-clock budget for the whole chase → backchase pipeline. Converted
    /// to one absolute [`Instant`] when applied ([`ChaseOptions::deadline`]),
    /// the clock the initial chase, every back-chase (resumed ones included)
    /// and the backchase's level loop all read.
    pub deadline: Option<Duration>,
    /// Ceiling on the backchase candidates handed to the equivalence checks
    /// (`None` keeps the engine's [`BackchaseOptions::max_candidates`]).
    pub max_candidates: Option<usize>,
    /// Ceiling on atoms per chase branch (`None` keeps the engine's
    /// [`ChaseOptions::max_atoms`]).
    pub max_atoms: Option<usize>,
}

impl ReformulationBudget {
    /// The unbounded budget (keeps every engine default).
    pub fn unbounded() -> ReformulationBudget {
        ReformulationBudget::default()
    }

    /// Builder: bound the request by a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> ReformulationBudget {
        self.deadline = Some(d);
        self
    }

    /// Builder: bound the number of backchase candidates checked.
    pub fn with_max_candidates(mut self, n: usize) -> ReformulationBudget {
        self.max_candidates = Some(n);
        self
    }

    /// Builder: bound the atoms per chase branch.
    pub fn with_max_atoms(mut self, n: usize) -> ReformulationBudget {
        self.max_atoms = Some(n);
        self
    }

    /// Does this budget constrain anything at all?
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none() && self.max_candidates.is_none() && self.max_atoms.is_none()
    }

    /// Tighten a copy of `base` with this budget: each bound becomes the
    /// tighter of the budget's and `base`'s — the smaller ceiling, the
    /// earlier deadline. The relative deadline is resolved to one absolute
    /// [`Instant`] *now*, so resumed chases cannot restart the clock (see
    /// [`ChaseOptions::deadline`]).
    pub fn apply(&self, base: &CbOptions) -> CbOptions {
        let mut opts = base.clone();
        if let Some(d) = self.deadline {
            // `None` on overflow = a deadline too far away to ever trip.
            let at = Instant::now().checked_add(d);
            opts.chase.deadline = opts.chase.deadline.into_iter().chain(at).min();
        }
        if let Some(n) = self.max_candidates {
            opts.backchase.max_candidates = opts.backchase.max_candidates.min(n);
        }
        if let Some(n) = self.max_atoms {
            opts.chase.max_atoms = opts.chase.max_atoms.min(n);
        }
        opts
    }
}

/// Options for the full C&B run.
#[derive(Clone, Debug, Default)]
pub struct CbOptions {
    /// Chase options: the chase to the universal plan and every back-chase
    /// of the backchase run under these.
    pub chase: ChaseOptions,
    /// Backchase options (minimization).
    pub backchase: BackchaseOptions,
}

impl CbOptions {
    /// Options enumerating all minimal reformulations.
    pub fn exhaustive() -> CbOptions {
        CbOptions { chase: ChaseOptions::default(), backchase: BackchaseOptions::exhaustive() }
    }
}

/// Timing, size and work statistics of a C&B run: the chase to the
/// universal plan, and everything [`backchase`] records of its own work.
#[derive(Clone, Debug, Default)]
pub struct CbStatistics {
    /// Statistics of the chase phase.
    pub chase: ChaseStats,
    /// Time to build the universal plan.
    pub time_to_universal_plan: Duration,
    /// Time to the initial reformulation (chase + restriction to the
    /// proprietary schema) — the quantity plotted in Figure 5.
    pub time_to_initial: Duration,
    /// Additional time spent in the backchase ("delta to best minimal
    /// reformulation" in Figure 5).
    pub backchase_duration: Duration,
    /// End-to-end duration.
    pub total: Duration,
    /// Number of atoms in the (primary) universal plan.
    pub universal_plan_atoms: usize,
    /// Candidate subqueries the backchase's enumeration handed to the
    /// equivalence checks. That equals `equivalence_checks` unless the
    /// safety prefilter is off (64 or more head variables), when a candidate
    /// `is_safe()` rejects counts here alone. The core path inspects none:
    /// it only drops atoms.
    pub candidates_inspected: usize,
    /// Prefixes the backchase's walk expanded to build its candidates: the
    /// enumeration's own work, beside the checks it feeds. The empty prefix
    /// counts; each prefix is expanded at most once.
    pub prefixes_expanded: usize,
    /// Extensions of a prefix, and waiting prefixes when their level came,
    /// that the walk cut because every safe set they lead to costs more than
    /// the best reformulation of a smaller size (cost-based pruning; never
    /// in an exhaustive run).
    pub pruned_by_cost: usize,
    /// Equivalence (chase) checks performed by the backchase.
    pub equivalence_checks: usize,
    /// Back-chases resumed from a memoized subset chase instead of run from
    /// scratch.
    pub chase_cache_hits: usize,
    /// Always 0: nothing produces it any more (kept for `marsbench`).
    pub containment_success_transfers: usize,
    /// Always 0: nothing produces it any more (kept for `marsbench`).
    pub containment_delta_searches: usize,
    /// Candidates whose entire superset cone was skipped because they failed
    /// to map into a universal-plan branch: a homomorphism from a superset
    /// restricts to one from the subset, so no superset can pass either —
    /// none can be a reformulation (the antichain dead-cone rule).
    pub containment_dead_cone_skips: usize,
    /// Extensions of a prefix the walk cut because the extended set would
    /// hold an atom another of its atoms implies (pruning criterion 4): such
    /// a set is equivalent to itself without that atom, so it is never
    /// minimal.
    pub implied_skips: usize,
    /// Rounds the back-chases ran, summed over the equivalence checks
    /// (scratch or resumed). A check's rounds depend only on its candidate
    /// and its seed.
    pub backchase_chase_rounds: usize,
    /// Premise evaluations the back-chases ran
    /// ([`ChaseStats::premise_evaluations`]), summed like
    /// `backchase_chase_rounds`.
    pub backchase_premise_evaluations: usize,
    /// The back-chases' work per dependency ([`ChaseStats::dependencies`],
    /// indexed the same way), summed like `backchase_chase_rounds`. The
    /// chase to the universal plan keeps its own in `chase`.
    pub backchase_dependencies: Vec<DependencyWork>,
    /// Column indexes built from scratch ([`crate::Relation::index`]) by
    /// the chase to the universal plan and by the backchase, on the calling
    /// thread.
    pub index_builds: usize,
    /// Backchase wall-clock spent building each level's candidates: the
    /// walk, which prices each extension as it builds it and cuts it by
    /// cost, timed once per level. With `backchase_chase_phase` and
    /// `backchase_containment_phase` it profiles the backchase: the three
    /// cover the walk, the back-chases and the two containment halves. The
    /// rest belongs to no phase: what a backchase prepares once (the pool,
    /// the compiled original, the reachability graph, criterion 4's pairs,
    /// the safety prefilter), and per candidate the memo probe, the verdict
    /// and the rendering of a reformulation found.
    pub backchase_cost_phase: Duration,
    /// Wall-clock spent in back-chases (scratch or resumed), on the calling
    /// thread. With the cost and containment phases it sums to at most
    /// `backchase_duration`.
    pub backchase_chase_phase: Duration,
    /// Wall-clock spent in containment checks (both halves of the
    /// equivalence test), on the calling thread like `backchase_chase_phase`.
    pub backchase_containment_phase: Duration,
    /// `true` when a budget ([`BackchaseOptions::max_candidates`] or
    /// [`ChaseOptions::deadline`]) stopped the backchase's enumeration before
    /// it exhausted the search space: the reported `minimal` set may then be
    /// incomplete and (in exhaustive mode) `best` may not be the optimum —
    /// `degradation` records which budget it was. These budgets are the only
    /// truncation the engine performs; a budget that cut one of the core
    /// path's back-chases shows in `degradation` alone.
    pub backchase_truncated: bool,
    /// Why this run degraded, when it did: the most severe budget hit
    /// ([`Degradation::merge`]) across the universal-plan chase, the
    /// backchase's levels and every back-chase. `None` exactly when nothing
    /// was cut anywhere — the answer is the same one an unbounded run would
    /// produce, byte for byte (property-tested in
    /// `tests/property_based.rs`).
    pub degradation: Option<Degradation>,
}

/// The result of reformulating one query.
///
/// The universal plan and the minimal set are the large fields, and a
/// request runs neither: they are shared, so a plan-cache hit answers with
/// its cached entry's, copying nothing. The statistics are shared too: a
/// hit reports the cold run's.
#[derive(Clone, Debug)]
pub struct ReformulationResult {
    /// The universal plan (primary branch).
    pub universal_plan: Arc<ConjunctiveQuery>,
    /// The initial reformulation (largest proprietary subquery), if non-empty.
    pub initial: Option<ConjunctiveQuery>,
    /// All minimal reformulations found (with estimated costs).
    pub minimal: Arc<Vec<(ConjunctiveQuery, f64)>>,
    /// The cost-optimal reformulation.
    pub best: Option<(ConjunctiveQuery, f64)>,
    /// Statistics of the run that computed the result: a plan-cache hit
    /// shares its entry's, since it did no chase or backchase work of its
    /// own.
    pub stats: Arc<CbStatistics>,
}

impl ReformulationResult {
    /// The best reformulation, falling back to the initial one.
    pub fn best_or_initial(&self) -> Option<&ConjunctiveQuery> {
        self.best.as_ref().map(|(q, _)| q).or(self.initial.as_ref())
    }

    /// Did MARS find any reformulation at all?
    pub fn has_reformulation(&self) -> bool {
        self.best.is_some() || self.initial.as_ref().map(|q| !q.body.is_empty()).unwrap_or(false)
    }
}

/// The C&B engine.
///
/// Thread-safe and cheap to clone: the dependency set is compiled exactly
/// once at construction ([`CompiledDeps`]) and shared via `Arc` across every
/// chase, back-chase, candidate branch and query block — no entry point
/// recompiles it.
#[derive(Clone)]
pub struct ChaseBackchase {
    /// Dependencies (compiled schema correspondence, XICs, TIX, relational
    /// integrity constraints) in shared compiled form.
    compiled: Arc<CompiledDeps>,
    /// Predicates of the proprietary schema (the only ones allowed in
    /// reformulations).
    pub proprietary: HashSet<Predicate>,
    /// Options.
    pub options: CbOptions,
}

impl ChaseBackchase {
    /// An engine with the default options. Compiles the dependency set
    /// once, up front, with the spec-level set that leaves out the
    /// dependencies at the positions `navigation_layer` lists (see
    /// [`CompiledDeps::with_navigation_layer`]; empty for none): the
    /// backchase runs it when neither the query nor the candidate pool
    /// navigates, and the chase to the universal plan always runs the
    /// whole set.
    pub fn new(
        deds: Vec<Ded>,
        navigation_layer: &[usize],
        proprietary: HashSet<Predicate>,
    ) -> ChaseBackchase {
        ChaseBackchase {
            compiled: Arc::new(CompiledDeps::with_navigation_layer(&deds, navigation_layer)),
            proprietary,
            options: CbOptions::default(),
        }
    }

    /// The dependency set this engine reformulates under.
    pub fn deds(&self) -> &[Ded] {
        self.compiled.deds()
    }

    /// Builder: replace the options.
    pub fn with_options(mut self, options: CbOptions) -> ChaseBackchase {
        self.options = options;
        self
    }

    /// Full chase & backchase reformulation of a query, under the engine's
    /// options tightened by `budget` for this one request (see
    /// [`ReformulationBudget::apply`]; the engine itself is untouched).
    pub fn reformulate(
        &self,
        query: &ConjunctiveQuery,
        budget: &ReformulationBudget,
    ) -> ReformulationResult {
        let start = Instant::now();
        let builds = thread_index_build_count();
        let options = budget.apply(&self.options);
        let up = chase_to_resident_compiled(query, &self.compiled, &options.chase);
        let time_to_universal_plan = start.elapsed();

        // The one rendering of the chase result: the primary branch, and its
        // proprietary atoms, filtered once for the initial reformulation (with
        // the inequalities they bind) and the backchase's pool.
        let primary = up.primary(&query.name);
        let atoms = primary.as_ref().map(|p| proprietary_atoms(&p.body, &self.proprietary));
        let initial = (primary.as_ref().zip(atoms.as_ref()))
            .filter(|(_, atoms)| !atoms.is_empty())
            .map(|(p, atoms)| p.subquery_with(atoms.clone(), format!("{}_initial", p.name)));
        let time_to_initial = start.elapsed();

        let mut stats = CbStatistics {
            chase: up.stats().clone(),
            time_to_universal_plan,
            time_to_initial,
            universal_plan_atoms: primary.as_ref().map_or(0, |p| p.body.len()),
            index_builds: thread_index_build_count() - builds,
            degradation: Degradation::of_chase(up.stats()),
            ..CbStatistics::default()
        };
        let BackchaseOutcome { minimal, best } = match (&primary, atoms) {
            (Some(primary), Some(atoms)) => backchase(
                query,
                primary,
                atoms,
                up.branches(),
                &self.proprietary,
                &self.compiled,
                &options.chase,
                &options.backchase,
                &mut stats,
            ),
            // No surviving branch (an unsatisfiable query): nothing found.
            _ => BackchaseOutcome::default(),
        };
        let universal_plan = primary.unwrap_or_else(|| ConjunctiveQuery {
            name: format!("{}_unsat", query.name),
            head: query.head.clone(),
            body: Vec::new(),
            inequalities: query.inequalities.clone(),
        });
        stats.total = start.elapsed();
        ReformulationResult {
            universal_plan: Arc::new(universal_plan),
            initial,
            minimal: Arc::new(minimal),
            best,
            stats: Arc::new(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::ded::view_dependencies;
    use mars_cq::{Atom, Term, Variable};

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    fn engine() -> (ChaseBackchase, ConjunctiveQuery) {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let ind = Ded::tgd(
            "ind",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![Variable::named("z")],
            vec![Atom::named("B", vec![t("y"), t("z")])],
        );
        let defq = ConjunctiveQuery::new("V").with_head(vec![t("x"), t("z")]).with_body(vec![
            Atom::named("A", vec![t("x"), t("y")]),
            Atom::named("B", vec![t("y"), t("z")]),
        ]);
        let (c_v, b_v) = view_dependencies("V", &defq);
        let proprietary: HashSet<Predicate> = [Predicate::new("V")].into_iter().collect();
        (ChaseBackchase::new(vec![ind, c_v, b_v], &[], proprietary), q)
    }

    #[test]
    fn end_to_end_reformulation() {
        let (cb, q) = engine();
        let result = cb.reformulate(&q, &ReformulationBudget::unbounded());
        assert!(result.has_reformulation());
        let best = result.best.as_ref().unwrap();
        assert_eq!(best.0.body.len(), 1);
        assert_eq!(best.0.body[0].predicate.name(), "V");
        assert_eq!(result.stats.universal_plan_atoms, 3);
        assert!(result.stats.time_to_initial <= result.stats.total);
        assert_eq!(result.minimal.len(), 1);
        assert_eq!(result.best_or_initial().unwrap().body[0].predicate.name(), "V");
    }

    #[test]
    fn queries_without_reformulation_are_reported() {
        let (cb, _) = engine();
        // A query over a predicate unrelated to the correspondence.
        let q = ConjunctiveQuery::new("Qother")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("C", vec![t("x")])]);
        let result = cb.reformulate(&q, &ReformulationBudget::unbounded());
        assert!(!result.has_reformulation());
        assert!(result.best.is_none());
        assert!(result.initial.is_none());
    }

    #[test]
    fn builder_methods() {
        let (cb, q) = engine();
        let cb = cb.with_options(CbOptions::exhaustive());
        assert!(cb.options.backchase.exhaustive);
        let result = cb.reformulate(&q, &ReformulationBudget::unbounded());
        assert!(result.has_reformulation());
    }

    /// A budget only ever tightens the engine: a looser ceiling or a later
    /// deadline than the engine's leaves the engine's in force, and a
    /// tighter one wins.
    #[test]
    fn budget_takes_the_tighter_bound() {
        let soon = Instant::now() + Duration::from_secs(60);
        let mut base = CbOptions::default();
        base.chase.deadline = Some(soon);
        let (candidates, atoms) = (base.backchase.max_candidates, base.chase.max_atoms);

        let looser = ReformulationBudget::unbounded()
            .with_max_candidates(candidates * 5)
            .with_max_atoms(atoms * 5)
            .with_deadline(Duration::from_secs(3600))
            .apply(&base);
        assert_eq!(looser.backchase.max_candidates, candidates);
        assert_eq!(looser.chase.max_atoms, atoms);
        assert_eq!(looser.chase.deadline, Some(soon));

        let before = Instant::now();
        let tighter = ReformulationBudget::unbounded()
            .with_max_candidates(7)
            .with_max_atoms(11)
            .with_deadline(Duration::from_secs(1))
            .apply(&base);
        assert_eq!((tighter.backchase.max_candidates, tighter.chase.max_atoms), (7, 11));
        let deadline = tighter.chase.deadline.expect("a deadline");
        assert!(deadline < soon && deadline >= before + Duration::from_secs(1));

        // Without a standing deadline the budget's applies as is.
        let fresh = ReformulationBudget::unbounded()
            .with_deadline(Duration::from_secs(1))
            .apply(&CbOptions::default());
        assert!(fresh.chase.deadline.is_some());
    }

    #[test]
    fn unsatisfiable_query_produces_empty_plan() {
        let denial = Ded::denial("no_a", vec![Atom::named("A", vec![t("x"), t("y")])]);
        let cb = ChaseBackchase::new(vec![denial], &[], HashSet::new());
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let result = cb.reformulate(&q, &ReformulationBudget::unbounded());
        assert!(result.universal_plan.body.is_empty());
        assert!(!result.has_reformulation());
    }
}
