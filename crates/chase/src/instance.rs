//! The symbolic instance `Inst(Q)`.
//!
//! Section 3.1 of the paper: "we represent Q internally as a symbolic database
//! instance Inst(Q) consisting of the relations ... whose constants are the
//! variables of Q, and whose tuples are the atoms in Q's body". The chase then
//! becomes query evaluation over this instance.
//!
//! Every relation carries *persistent* hash indexes keyed on column sets
//! ([`Relation::index`]): an index is built at most once per (relation,
//! column-set) pair and then maintained incrementally on insert, instead of
//! being rebuilt inside every premise evaluation. Only an EGD rewrite
//! ([`SymbolicInstance::apply_substitution`]) invalidates the indexes of the
//! relations it actually touches. The process-wide [`index_build_count`]
//! lets regression tests pin this contract down.
//!
//! Relations also maintain cheap **incremental statistics** — tuple counts
//! and exact per-column distinct counts ([`Relation::distinct_in_column`]) —
//! exposed through the shared `mars_cost::StatisticsCatalog`. Statistics are
//! updated on the same paths that maintain the indexes (insert updates them
//! in place, an EGD rewrite rebuilds them with the relation), so they are
//! always exact, never sampled or stale.

use mars_cq::{Atom, ConjunctiveQuery, Predicate, Substitution, Term, Variable};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// Number of from-scratch column-index builds since process start.
///
/// Used by regression tests (`tests/engine_reuse.rs`) to verify that premise
/// evaluation reuses the persistent per-predicate indexes: evaluating the
/// same conjunction twice over an unchanged (or grown-by-insert) instance
/// must not rebuild anything.
static INDEX_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// The process-wide column-index build count (see [`Relation::index`]).
pub fn index_build_count() -> usize {
    INDEX_BUILDS.load(Ordering::SeqCst)
}

/// A hash index over one column set: key terms (in column order) → indices of
/// the matching tuples, ascending in insertion order.
pub type ColumnIndex = HashMap<Vec<Term>, Vec<usize>>;

/// One relation of the symbolic instance: a deduplicated, insertion-ordered
/// set of tuples whose entries are [`Term`]s (variables act as constants).
#[derive(Debug, Default)]
pub struct Relation {
    tuples: Vec<Vec<Term>>,
    set: HashSet<Vec<Term>>,
    /// Persistent column-set indexes. Interior mutability lets evaluation
    /// (`&SymbolicInstance`) build an index lazily on first use. The cache
    /// is lock-guarded and hands out shared handles, so a relation — and
    /// with it `mars_storage::RelationalDatabase` and its router — is
    /// `Sync`; the chase itself never shares an instance across threads
    /// (branches move between workers whole), so the locks are uncontended
    /// there. Clones share the handles; the first insert into either side
    /// copies the index it touches.
    indexes: RwLock<HashMap<Vec<usize>, Arc<ColumnIndex>>>,
    /// From-scratch builds of this relation's indexes — the race-free
    /// (per-relation) counterpart of the process-wide [`index_build_count`],
    /// for tests that must not observe other tests' builds.
    builds: AtomicUsize,
    /// Per-column distinct-term sets, maintained incrementally on insert
    /// (sized to the relation's arity at the first insert). `distinct[c].len()`
    /// is the *exact* number of distinct terms in column `c` — the
    /// cardinality statistic behind [`Relation::expected_matches`].
    distinct: Vec<HashSet<Term>>,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        Relation {
            tuples: self.tuples.clone(),
            set: self.set.clone(),
            indexes: RwLock::new(self.cached_indexes().clone()),
            builds: AtomicUsize::new(self.index_builds()),
            distinct: self.distinct.clone(),
        }
    }
}

impl Relation {
    // A panic while this guard is held leaves the map valid (every update is
    // a single insert of a finished value), so a poisoned lock is recovered
    // instead of turning one failed request into an outage.
    fn cached_indexes(&self) -> RwLockReadGuard<'_, HashMap<Vec<usize>, Arc<ColumnIndex>>> {
        self.indexes.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Insert a tuple; returns `true` if it was new. Every existing column
    /// index absorbs the new tuple incrementally (no rebuild), and the
    /// per-column distinct statistics are updated in place.
    pub fn insert(&mut self, tuple: Vec<Term>) -> bool {
        if self.set.contains(&tuple) {
            return false;
        }
        let id = self.tuples.len();
        let indexes = self.indexes.get_mut().unwrap_or_else(PoisonError::into_inner);
        for (cols, index) in indexes.iter_mut() {
            let key: Vec<Term> = cols.iter().map(|&c| tuple[c]).collect();
            Arc::make_mut(index).entry(key).or_default().push(id);
        }
        if self.distinct.len() < tuple.len() {
            self.distinct.resize_with(tuple.len(), HashSet::new);
        }
        for (c, t) in tuple.iter().enumerate() {
            self.distinct[c].insert(*t);
        }
        self.set.insert(tuple.clone());
        self.tuples.push(tuple);
        true
    }

    /// All tuples in insertion order.
    pub fn tuples(&self) -> &[Vec<Term>] {
        &self.tuples
    }

    /// Does the relation contain the tuple?
    pub fn contains(&self, tuple: &[Term]) -> bool {
        self.set.contains(tuple)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The persistent hash index over `cols` (ascending column positions).
    /// Built from the current tuples on first use — counted by
    /// [`index_build_count`] — and maintained incrementally by
    /// [`Relation::insert`] afterwards.
    ///
    /// The returned handle shares the cached index: drop it before anything
    /// inserts into this relation, or that insert copies the whole index
    /// instead of extending it in place (the chase never evaluates and
    /// inserts at the same moment).
    pub fn index(&self, cols: &[usize]) -> Arc<ColumnIndex> {
        if let Some(index) = self.cached_indexes().get(cols) {
            return Arc::clone(index);
        }
        let mut index = ColumnIndex::new();
        for (id, tuple) in self.tuples.iter().enumerate() {
            let key: Vec<Term> = cols.iter().map(|&c| tuple[c]).collect();
            index.entry(key).or_default().push(id);
        }
        let mut cache = self.indexes.write().unwrap_or_else(PoisonError::into_inner);
        // Two threads can race to the first probe; the first insert wins and
        // only it counts as a build.
        Arc::clone(cache.entry(cols.to_vec()).or_insert_with(|| {
            INDEX_BUILDS.fetch_add(1, Ordering::SeqCst);
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(index)
        }))
    }

    /// Number of column indexes currently cached (test introspection).
    pub fn cached_index_count(&self) -> usize {
        self.cached_indexes().len()
    }

    /// From-scratch index builds performed by *this relation* (test
    /// introspection; unlike [`index_build_count`] it cannot be perturbed
    /// by tests running on parallel threads).
    pub fn index_builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Exact number of distinct terms in column `col` (0 for an empty
    /// relation or an out-of-arity column). Maintained incrementally by
    /// [`Relation::insert`]; rebuilt with the relation on an EGD rewrite.
    pub fn distinct_in_column(&self, col: usize) -> usize {
        self.distinct.get(col).map(|s| s.len()).unwrap_or(0)
    }

    /// Distinct estimate for a *composite* key over `cols`: the maximum of
    /// the per-column distinct counts, clamped to `[1, len]`. A composite key
    /// has at least as many distinct values as its most selective column, so
    /// this is a conservative (under-)estimate that errs toward predicting
    /// more matches per probe.
    pub fn distinct_for_columns(&self, cols: &[usize]) -> usize {
        cols.iter()
            .map(|&c| self.distinct_in_column(c))
            .max()
            .unwrap_or(0)
            .clamp(1, self.len().max(1))
    }

    /// Expected number of tuples matching one probe key over `cols` within a
    /// window of `window` tuples, assuming keys are uniformly distributed:
    /// `⌈window / distinct(cols)⌉`.
    pub fn expected_matches(&self, cols: &[usize], window: usize) -> usize {
        window.div_ceil(self.distinct_for_columns(cols))
    }

    /// Arity of the relation as observed from its tuples (0 while empty —
    /// arity is fixed at the first insert).
    pub fn arity(&self) -> usize {
        self.distinct.len()
    }
}

/// The chase side of the shared statistics catalog (`mars_cost`): the
/// symbolic instance exposes its incrementally maintained exact counters —
/// tuple counts and per-column distincts — through the same trait the storage
/// layer implements, so the physical planner and the cost estimators read
/// either substrate interchangeably. Maintenance stays here (insert updates
/// in place, EGD rewrites rebuild); the trait is read-only.
impl mars_cost::StatisticsCatalog for SymbolicInstance {
    fn tuple_count(&self, relation: Predicate) -> usize {
        self.relation_len(relation)
    }

    fn column_count(&self, relation: Predicate) -> usize {
        self.relation_data(relation).map(|r| r.arity()).unwrap_or(0)
    }

    fn distinct_in_column(&self, relation: Predicate, col: usize) -> usize {
        self.relation_data(relation).map(|r| r.distinct_in_column(col)).unwrap_or(0)
    }

    fn distinct_for_columns(&self, relation: Predicate, cols: &[usize]) -> usize {
        self.relation_data(relation).map(|r| r.distinct_for_columns(cols)).unwrap_or(1)
    }

    fn expected_matches(&self, relation: Predicate, cols: &[usize], window: usize) -> usize {
        self.relation_data(relation).map(|r| r.expected_matches(cols, window)).unwrap_or(window)
    }
}

/// The symbolic database instance associated with a query.
#[derive(Clone, Debug, Default)]
pub struct SymbolicInstance {
    relations: HashMap<Predicate, Relation>,
    atom_count: usize,
    max_var: u32,
}

impl SymbolicInstance {
    /// The empty instance.
    pub fn new() -> SymbolicInstance {
        SymbolicInstance::default()
    }

    /// Build `Inst(Q)` from a query body.
    pub fn from_query(q: &ConjunctiveQuery) -> SymbolicInstance {
        let mut inst = SymbolicInstance::new();
        for atom in &q.body {
            inst.insert_atom(atom);
        }
        inst
    }

    /// Insert an atom as a tuple; returns `true` if it was new.
    pub fn insert_atom(&mut self, atom: &Atom) -> bool {
        let rel = self.relations.entry(atom.predicate).or_default();
        let added = rel.insert(atom.args.clone());
        if added {
            self.atom_count += 1;
            for t in &atom.args {
                if let Term::Var(v) = t {
                    self.max_var = self.max_var.max(v.index);
                }
            }
        }
        added
    }

    /// Does the instance contain the atom (exactly)?
    pub fn contains_atom(&self, atom: &Atom) -> bool {
        self.relations.get(&atom.predicate).map(|r| r.contains(&atom.args)).unwrap_or(false)
    }

    /// The relation for a predicate (empty slice if absent).
    pub fn relation(&self, p: Predicate) -> &[Vec<Term>] {
        self.relations.get(&p).map(|r| r.tuples()).unwrap_or(&[])
    }

    /// The full relation object (tuples + persistent indexes) for a
    /// predicate, if present.
    pub fn relation_data(&self, p: Predicate) -> Option<&Relation> {
        self.relations.get(&p)
    }

    /// Number of tuples of a predicate (0 if absent).
    pub fn relation_len(&self, p: Predicate) -> usize {
        self.relations.get(&p).map(|r| r.len()).unwrap_or(0)
    }

    /// All predicates present.
    pub fn predicates(&self) -> impl Iterator<Item = Predicate> + '_ {
        self.relations.keys().copied()
    }

    /// Total number of atoms (tuples) in the instance.
    pub fn len(&self) -> usize {
        self.atom_count
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.atom_count == 0
    }

    /// All atoms, grouped by predicate (predicate iteration order is not
    /// deterministic; use [`SymbolicInstance::to_query`] for a stable order).
    pub fn atoms(&self) -> Vec<Atom> {
        let mut out = Vec::with_capacity(self.atom_count);
        for (p, rel) in &self.relations {
            for t in rel.tuples() {
                out.push(Atom::new(*p, t.clone()));
            }
        }
        out
    }

    /// All terms appearing anywhere in the instance.
    pub fn terms(&self) -> HashSet<Term> {
        let mut out = HashSet::new();
        for rel in self.relations.values() {
            for t in rel.tuples() {
                out.extend(t.iter().copied());
            }
        }
        out
    }

    /// All variables appearing anywhere in the instance.
    pub fn variables(&self) -> HashSet<Variable> {
        self.terms().into_iter().filter_map(|t| t.as_var()).collect()
    }

    /// Convert back to a query with the given name, head and inequalities.
    /// Atoms are ordered by predicate name then argument order, which gives a
    /// deterministic universal plan.
    pub fn to_query(
        &self,
        name: &str,
        head: Vec<Term>,
        inequalities: Vec<(Term, Term)>,
    ) -> ConjunctiveQuery {
        let mut atoms = self.atoms();
        atoms.sort_by(|a, b| (a.predicate.name(), &a.args).cmp(&(b.predicate.name(), &b.args)));
        ConjunctiveQuery { name: name.to_string(), head, body: atoms, inequalities }
    }

    /// Apply a substitution to every tuple of the instance (used when an EGD
    /// unifies two terms). Returns the predicates whose relations actually
    /// changed (some tuple was rewritten) — the delta-driven chase
    /// re-examines only dependencies whose premises mention one of them.
    ///
    /// Relations no tuple of which mentions a substituted variable are left
    /// untouched (no rebuild, no allocation, cached column indexes survive):
    /// unifications during a resumed back-chase typically affect a handful of
    /// atoms in an instance of hundreds, and rewriting everything dominated
    /// the chase profile. Rewritten relations start over with empty index
    /// caches (tuple positions change, so the old postings are meaningless).
    pub fn apply_substitution(&mut self, s: &Substitution) -> HashSet<Predicate> {
        let mut changed: HashSet<Predicate> = HashSet::new();
        let mut count = 0usize;
        for (p, rel) in self.relations.iter_mut() {
            let touched =
                rel.tuples.iter().any(|tuple| tuple.iter().any(|t| s.apply_term_deep(*t) != *t));
            if touched {
                changed.insert(*p);
                let mut rewritten = Relation::default();
                for tuple in &rel.tuples {
                    rewritten.insert(tuple.iter().map(|t| s.apply_term_deep(*t)).collect());
                }
                *rel = rewritten;
            }
            count += rel.len();
        }
        self.atom_count = count;
        // A substitution can erase the highest-indexed variable, so the
        // cached maximum is recomputed from the rewritten relations.
        self.max_var = 0;
        for rel in self.relations.values() {
            for tuple in rel.tuples() {
                for t in tuple {
                    if let Term::Var(v) = t {
                        self.max_var = self.max_var.max(v.index);
                    }
                }
            }
        }
        changed
    }

    /// Next free variable disambiguator, used when inventing fresh
    /// (existential) variables during the chase. Maintained incrementally on
    /// insertion (and recomputed on substitution), so reading it is free —
    /// resumed chases consult it per seed branch.
    pub fn max_variable_index(&self) -> u32 {
        self.max_var
    }

    /// Freeze the instance into an immutable, thread-shareable snapshot that
    /// keeps the warm state — cached column indexes and distinct statistics —
    /// alongside the tuples. The inverse is [`FrozenInstance::thaw`].
    pub fn freeze(self) -> FrozenInstance {
        let relations = self
            .relations
            .into_iter()
            .map(|(p, rel)| {
                (
                    p,
                    FrozenRelation {
                        tuples: rel.tuples,
                        set: rel.set,
                        builds: rel.builds.into_inner(),
                        indexes: rel.indexes.into_inner().unwrap_or_else(PoisonError::into_inner),
                        distinct: rel.distinct,
                    },
                )
            })
            .collect();
        FrozenInstance { relations, atom_count: self.atom_count, max_var: self.max_var }
    }
}

/// An immutable snapshot of one [`Relation`]: the same tuples, cached column
/// indexes and distinct statistics, but in plain containers with no interior
/// mutability — so the snapshot is `Sync` and can be shared by reference
/// across the backchase worker threads.
#[derive(Clone, Debug)]
struct FrozenRelation {
    tuples: Vec<Vec<Term>>,
    set: HashSet<Vec<Term>>,
    indexes: HashMap<Vec<usize>, Arc<ColumnIndex>>,
    builds: usize,
    distinct: Vec<HashSet<Term>>,
}

/// An immutable, thread-shareable snapshot of a [`SymbolicInstance`].
///
/// Freezing preserves everything the chase warmed up — persistent column
/// indexes and exact distinct statistics — so a back-chase that resumes from
/// a frozen seed starts with hot access paths instead of re-deriving them
/// from a re-parsed query. Thawing
/// restores a fully live [`SymbolicInstance`] without counting any index
/// (re)build: the indexes are shared with the snapshot (and copied by the
/// first insert that touches them), not reconstructed.
#[derive(Clone, Debug, Default)]
pub struct FrozenInstance {
    relations: HashMap<Predicate, FrozenRelation>,
    atom_count: usize,
    max_var: u32,
}

impl FrozenInstance {
    /// Restore a live instance from the snapshot. Cached indexes and
    /// statistics carry over verbatim; nothing is rebuilt and no build
    /// counter (process-wide or per-relation) advances.
    pub fn thaw(&self) -> SymbolicInstance {
        let relations = self
            .relations
            .iter()
            .map(|(p, rel)| {
                (
                    *p,
                    Relation {
                        tuples: rel.tuples.clone(),
                        set: rel.set.clone(),
                        indexes: RwLock::new(rel.indexes.clone()),
                        builds: AtomicUsize::new(rel.builds),
                        distinct: rel.distinct.clone(),
                    },
                )
            })
            .collect();
        SymbolicInstance { relations, atom_count: self.atom_count, max_var: self.max_var }
    }

    /// Total number of atoms (tuples) in the snapshot.
    pub fn len(&self) -> usize {
        self.atom_count
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.atom_count == 0
    }

    /// Predicates present, sorted by name — the canonical order for
    /// assembling deterministic atom lists without the per-atom sort of
    /// [`FrozenInstance::to_query`] (tuples keep their insertion order
    /// within each predicate).
    pub fn sorted_predicates(&self) -> Vec<Predicate> {
        let mut ps: Vec<Predicate> = self.relations.keys().copied().collect();
        ps.sort_by(|a, b| a.name().cmp(b.name()));
        ps
    }

    /// Tuples of one predicate in insertion order (empty if absent).
    pub fn relation(&self, p: Predicate) -> &[Vec<Term>] {
        self.relations.get(&p).map(|r| r.tuples.as_slice()).unwrap_or(&[])
    }

    /// Convert the snapshot to a query with the given name, head and
    /// inequalities — same deterministic atom order as
    /// [`SymbolicInstance::to_query`].
    pub fn to_query(
        &self,
        name: &str,
        head: Vec<Term>,
        inequalities: Vec<(Term, Term)>,
    ) -> ConjunctiveQuery {
        let mut atoms = Vec::with_capacity(self.atom_count);
        for (p, rel) in &self.relations {
            for t in &rel.tuples {
                atoms.push(Atom::new(*p, t.clone()));
            }
        }
        atoms.sort_by(|a, b| (a.predicate.name(), &a.args).cmp(&(b.predicate.name(), &b.args)));
        ConjunctiveQuery { name: name.to_string(), head, body: atoms, inequalities }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::{ConjunctiveQuery, Term};

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    fn sample_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new("Q").with_head(vec![t("a")]).with_body(vec![
            root(t("r")),
            desc(t("r"), t("d")),
            child(t("d"), t("c")),
            tag(t("c"), "author"),
            text(t("c"), t("a")),
        ])
    }

    #[test]
    fn from_query_counts_atoms() {
        let inst = SymbolicInstance::from_query(&sample_query());
        assert_eq!(inst.len(), 5);
        assert_eq!(inst.relation(mars_cq::Predicate::new("child")).len(), 1);
        assert!(inst.contains_atom(&root(t("r"))));
        assert!(!inst.contains_atom(&root(t("x"))));
    }

    #[test]
    fn duplicate_atoms_are_deduplicated() {
        let mut inst = SymbolicInstance::new();
        assert!(inst.insert_atom(&child(t("a"), t("b"))));
        assert!(!inst.insert_atom(&child(t("a"), t("b"))));
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn to_query_round_trip_is_stable() {
        let q = sample_query();
        let inst = SymbolicInstance::from_query(&q);
        let back = inst.to_query("Q'", q.head.clone(), vec![]);
        assert_eq!(back.body.len(), q.body.len());
        // Every original atom survives.
        for a in &q.body {
            assert!(back.body.contains(a));
        }
        // Deterministic ordering.
        let again = inst.to_query("Q''", q.head.clone(), vec![]);
        assert_eq!(back.body, again.body);
    }

    #[test]
    fn substitution_application_merges_tuples() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("a"), t("x")));
        inst.insert_atom(&child(t("a"), t("y")));
        let mut s = Substitution::new();
        s.set(mars_cq::Variable::named("y"), t("x"));
        inst.apply_substitution(&s);
        assert_eq!(inst.len(), 1);
        assert!(inst.contains_atom(&child(t("a"), t("x"))));
    }

    #[test]
    fn terms_and_variables_enumeration() {
        let inst = SymbolicInstance::from_query(&sample_query());
        let vars = inst.variables();
        assert!(vars.contains(&mars_cq::Variable::named("r")));
        assert!(vars.contains(&mars_cq::Variable::named("a")));
        // "author" is a constant, not a variable.
        assert_eq!(vars.len(), 4);
        assert!(inst.terms().contains(&Term::constant_str("author")));
        assert_eq!(inst.max_variable_index(), 0);
    }

    #[test]
    fn empty_instance_behaviour() {
        let inst = SymbolicInstance::new();
        assert!(inst.is_empty());
        assert_eq!(inst.len(), 0);
        assert!(inst.atoms().is_empty());
        assert_eq!(inst.relation(mars_cq::Predicate::new("nothing")).len(), 0);
    }

    #[test]
    fn column_index_probes_and_is_maintained_on_insert() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("a"), t("b")));
        inst.insert_atom(&child(t("a"), t("c")));
        inst.insert_atom(&child(t("d"), t("e")));
        let p = mars_cq::Predicate::new("child");

        // Build counts are asserted through the race-free per-relation
        // counter; the process-wide `index_build_count` is exercised by the
        // serialized tests in tests/engine_reuse.rs.
        {
            let rel = inst.relation_data(p).unwrap();
            let idx = rel.index(&[0]);
            assert_eq!(idx.get(&vec![t("a")]), Some(&vec![0, 1]));
            assert_eq!(idx.get(&vec![t("d")]), Some(&vec![2]));
            assert!(idx.get(&vec![t("z")]).is_none());
        }
        assert_eq!(inst.relation_data(p).unwrap().index_builds(), 1, "one build per column set");

        // Insert maintains the cached index incrementally — no rebuild.
        inst.insert_atom(&child(t("a"), t("f")));
        {
            let rel = inst.relation_data(p).unwrap();
            let idx = rel.index(&[0]);
            assert_eq!(idx.get(&vec![t("a")]), Some(&vec![0, 1, 3]));
        }
        assert_eq!(
            inst.relation_data(p).unwrap().index_builds(),
            1,
            "insert must not rebuild the index"
        );

        // A second column set is a second (counted) build; re-requesting
        // either set afterwards builds nothing.
        {
            let rel = inst.relation_data(p).unwrap();
            let idx01 = rel.index(&[0, 1]);
            assert_eq!(idx01.get(&vec![t("a"), t("f")]), Some(&vec![3]));
        }
        {
            let rel = inst.relation_data(p).unwrap();
            let _ = rel.index(&[0]);
            let _ = rel.index(&[0, 1]);
            assert_eq!(rel.cached_index_count(), 2);
            assert_eq!(rel.index_builds(), 2);
        }
    }

    /// Distinct estimates are exact and maintained incrementally across
    /// inserts (duplicates included).
    #[test]
    fn distinct_estimates_track_inserts() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("a"), t("x")));
        inst.insert_atom(&child(t("a"), t("y")));
        inst.insert_atom(&child(t("b"), t("x")));
        let p = mars_cq::Predicate::new("child");
        let rel = inst.relation_data(p).unwrap();
        assert_eq!(rel.distinct_in_column(0), 2, "a, b");
        assert_eq!(rel.distinct_in_column(1), 2, "x, y");
        assert_eq!(rel.distinct_for_columns(&[0, 1]), 2, "composite = max of columns");
        assert_eq!(rel.expected_matches(&[0], 3), 2, "ceil(3 / 2)");
        // Out-of-arity columns and duplicates are handled.
        assert_eq!(rel.distinct_in_column(7), 0);
        inst.insert_atom(&child(t("a"), t("x"))); // duplicate: no change
        inst.insert_atom(&child(t("c"), t("x")));
        let rel = inst.relation_data(p).unwrap();
        assert_eq!(rel.distinct_in_column(0), 3);
        assert_eq!(rel.distinct_in_column(1), 2);
    }

    /// An EGD rewrite rebuilds the touched relation — and with it the
    /// distinct statistics, which must reflect the merged terms exactly.
    #[test]
    fn distinct_estimates_survive_egd_rewrites() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("a"), t("x")));
        inst.insert_atom(&child(t("b"), t("y")));
        inst.insert_atom(&child(t("c"), t("y")));
        let p = mars_cq::Predicate::new("child");
        assert_eq!(inst.relation_data(p).unwrap().distinct_in_column(1), 2);

        let mut s = Substitution::new();
        s.set(mars_cq::Variable::named("x"), t("y"));
        inst.apply_substitution(&s);
        let rel = inst.relation_data(p).unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.distinct_in_column(1), 1, "x merged into y");
        assert_eq!(rel.distinct_in_column(0), 3, "column 0 untouched by the unification");
    }

    /// Freeze/thaw is the resident-reuse contract: a thawed instance carries
    /// the frozen one's warm indexes and statistics verbatim —
    /// no index is rebuilt and the build counters do not move.
    #[test]
    fn freeze_thaw_preserves_indexes_without_rebuilds() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("a"), t("x")));
        inst.insert_atom(&child(t("a"), t("y")));
        inst.insert_atom(&child(t("b"), t("x")));
        let p = mars_cq::Predicate::new("child");
        let _ = inst.relation_data(p).unwrap().index(&[0]);
        assert_eq!(inst.relation_data(p).unwrap().index_builds(), 1);

        let frozen = inst.freeze();
        assert_eq!(frozen.len(), 3);
        assert!(!frozen.is_empty());
        let thawed = frozen.thaw();
        assert_eq!(thawed.len(), 3);
        let rel = thawed.relation_data(p).unwrap();
        // The cached index came across as data: probing it is not a build.
        assert_eq!(rel.cached_index_count(), 1);
        assert_eq!(rel.index_builds(), 1, "thaw copies indexes, it does not rebuild them");
        assert_eq!(rel.index(&[0]).get(&vec![t("a")]), Some(&vec![0, 1]));
        assert_eq!(rel.index_builds(), 1);
        // Statistics survive too.
        assert_eq!(rel.distinct_in_column(0), 2);
        // The frozen form converts to the same deterministic query.
        let q1 = frozen.to_query("Q", vec![], vec![]);
        let q2 = thawed.to_query("Q", vec![], vec![]);
        assert_eq!(q1.body, q2.body);
    }

    #[test]
    fn rewrite_drops_indexes_of_touched_relations_only() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("a"), t("x")));
        inst.insert_atom(&tag(t("n"), "book"));
        let child_p = mars_cq::Predicate::new("child");
        let tag_p = mars_cq::Predicate::new("tag");
        let _ = inst.relation_data(child_p).unwrap().index(&[0]);
        let _ = inst.relation_data(tag_p).unwrap().index(&[1]);

        let mut s = Substitution::new();
        s.set(mars_cq::Variable::named("x"), t("y"));
        let changed = inst.apply_substitution(&s);
        assert!(changed.contains(&child_p));
        assert!(!changed.contains(&tag_p));
        // The rewritten relation starts with an empty index cache; the
        // untouched relation keeps its cached index.
        assert_eq!(inst.relation_data(child_p).unwrap().cached_index_count(), 0);
        assert_eq!(inst.relation_data(tag_p).unwrap().cached_index_count(), 1);
    }
}
