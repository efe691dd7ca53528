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
//! Relations also answer **exact statistics** — tuple counts and per-column
//! distinct counts ([`Relation::distinct_in_column`]) — which
//! `mars_storage::RelationalDatabase` hands the storage planner. The
//! distinct counts are *lazy*: counted on the first read after the relation
//! last changed and cached until the next insert, so they are always exact,
//! never sampled or stale — and the chase, which inserts constantly and
//! never reads them, pays nothing for them. Only the storage planner reads
//! them, over stores that stop changing once loaded.
//!
//! Dedup sets, column indexes and the per-instance relation map hash with
//! the workspace's Fx-style hasher (`mars_cq::fx`). Relations sit behind
//! `Arc` and are copied on first write, so cloning an instance — a
//! disjunctive split, a back-chase resumed from a memoized one — copies a
//! map of handles: a relation the clone never writes is never copied, and an
//! index either side builds on a relation neither has written serves both.

use mars_cq::{
    Atom, ConjunctiveQuery, FxHashMap, FxHashSet, Predicate, Substitution, Term, Variable,
};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard};

/// Number of from-scratch column-index builds since process start.
///
/// Used by regression tests (`tests/engine_reuse.rs`) to verify that premise
/// evaluation reuses the persistent per-predicate indexes: evaluating the
/// same conjunction twice over an unchanged (or grown-by-insert) instance
/// must not rebuild anything.
static INDEX_BUILDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's share of [`INDEX_BUILDS`].
    static THREAD_INDEX_BUILDS: Cell<usize> = const { Cell::new(0) };
}

/// The process-wide column-index build count (see [`Relation::index`]).
pub fn index_build_count() -> usize {
    INDEX_BUILDS.load(Ordering::SeqCst)
}

/// The column-index builds performed on the calling thread since it
/// started. A reformulation runs on its calling thread from start to
/// finish, so the difference across one call is exactly that call's builds,
/// whatever other threads (parallel tests, other requests) do meanwhile.
pub fn thread_index_build_count() -> usize {
    THREAD_INDEX_BUILDS.with(Cell::get)
}

/// A hash index over one column set: key terms (in column order) → indices of
/// the matching tuples, ascending in insertion order.
pub type ColumnIndex = FxHashMap<Vec<Term>, Vec<usize>>;

/// The cached column indexes of one relation, by (ascending) column set.
type IndexCache = FxHashMap<Vec<usize>, Arc<ColumnIndex>>;

/// One relation of the symbolic instance: a deduplicated, insertion-ordered
/// set of tuples whose entries are [`Term`]s (variables act as constants).
#[derive(Debug, Default)]
pub struct Relation {
    tuples: Vec<Vec<Term>>,
    set: FxHashSet<Vec<Term>>,
    /// Persistent column-set indexes. Interior mutability lets evaluation
    /// (`&SymbolicInstance`) build an index lazily on first use. The cache
    /// is lock-guarded and hands out shared handles, so a relation — and
    /// with it `mars_storage::RelationalDatabase` and its router — is
    /// `Sync`; the chase itself is single-threaded and every request chases
    /// instances of its own, so the locks are uncontended there. Clones
    /// share the handles; the first insert into
    /// either side copies the index it touches.
    indexes: RwLock<IndexCache>,
    /// From-scratch builds of this relation's indexes — the race-free
    /// (per-relation) counterpart of the process-wide [`index_build_count`],
    /// for tests that must not observe other tests' builds.
    builds: AtomicUsize,
    /// Exact per-column distinct-term counts, counted on first read
    /// ([`Relation::distinct_in_column`]) and dropped by every insert. A
    /// clone starts with an empty cell of its own: the counts are cheap to
    /// recount and the chase, which clones constantly, never reads them.
    distinct: OnceLock<Vec<usize>>,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        Relation {
            tuples: self.tuples.clone(),
            set: self.set.clone(),
            indexes: RwLock::new(self.cached_indexes().clone()),
            builds: AtomicUsize::new(self.index_builds()),
            distinct: OnceLock::new(),
        }
    }
}

impl Relation {
    // A panic while this guard is held leaves the map valid (every update is
    // a single insert of a finished value), so a poisoned lock is recovered
    // instead of turning one failed request into an outage.
    fn cached_indexes(&self) -> RwLockReadGuard<'_, IndexCache> {
        self.indexes.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Insert a tuple; returns `true` if it was new. Every existing column
    /// index absorbs the new tuple incrementally (no rebuild); the cached
    /// distinct counts are dropped and recounted on their next read.
    pub fn insert(&mut self, tuple: Vec<Term>) -> bool {
        if self.set.contains(&tuple) {
            return false;
        }
        self.push_new(tuple);
        true
    }

    /// Append a tuple the caller has checked to be absent.
    fn push_new(&mut self, tuple: Vec<Term>) {
        let id = self.tuples.len();
        let indexes = self.indexes.get_mut().unwrap_or_else(PoisonError::into_inner);
        for (cols, index) in indexes.iter_mut() {
            let key: Vec<Term> = cols.iter().map(|&c| tuple[c]).collect();
            Arc::make_mut(index).entry(key).or_default().push(id);
        }
        self.distinct.take();
        self.set.insert(tuple.clone());
        self.tuples.push(tuple);
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
        let mut index = ColumnIndex::default();
        for (id, tuple) in self.tuples.iter().enumerate() {
            let key: Vec<Term> = cols.iter().map(|&c| tuple[c]).collect();
            index.entry(key).or_default().push(id);
        }
        let mut cache = self.indexes.write().unwrap_or_else(PoisonError::into_inner);
        // Two threads can race to the first probe; the first insert wins and
        // only it counts as a build.
        Arc::clone(cache.entry(cols.to_vec()).or_insert_with(|| {
            INDEX_BUILDS.fetch_add(1, Ordering::SeqCst);
            THREAD_INDEX_BUILDS.with(|n| n.set(n.get() + 1));
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(index)
        }))
    }

    /// Number of column indexes currently cached.
    #[cfg(test)]
    fn cached_index_count(&self) -> usize {
        self.cached_indexes().len()
    }

    /// From-scratch index builds performed by *this relation* (test
    /// introspection; unlike [`index_build_count`] it cannot be perturbed
    /// by tests running on parallel threads).
    pub fn index_builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Exact number of distinct terms in column `col` (0 for an empty
    /// relation or an out-of-arity column). The first read after a change
    /// counts every column in one pass over the tuples; later reads are a
    /// lookup until the next [`Relation::insert`].
    pub fn distinct_in_column(&self, col: usize) -> usize {
        let counts = self.distinct.get_or_init(|| {
            let mut seen: Vec<FxHashSet<Term>> = vec![FxHashSet::default(); self.arity()];
            for tuple in &self.tuples {
                for (column, t) in seen.iter_mut().zip(tuple) {
                    column.insert(*t);
                }
            }
            seen.iter().map(FxHashSet::len).collect()
        });
        counts.get(col).copied().unwrap_or(0)
    }

    /// Arity of the relation as observed from its tuples (0 while empty —
    /// arity is fixed at the first insert).
    pub fn arity(&self) -> usize {
        self.tuples.first().map_or(0, Vec::len)
    }
}

/// The symbolic database instance associated with a query.
#[derive(Clone, Debug, Default)]
pub struct SymbolicInstance {
    relations: FxHashMap<Predicate, Arc<Relation>>,
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
        if rel.contains(&atom.args) {
            return false;
        }
        // Copy-on-write: a relation still shared with a memoized seed or a
        // sibling branch is copied here, at its first new tuple.
        Arc::make_mut(rel).push_new(atom.args.clone());
        self.atom_count += 1;
        for t in &atom.args {
            if let Term::Var(v) = t {
                self.max_var = self.max_var.max(v.index);
            }
        }
        true
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
        self.relations.get(&p).map(|rel| &**rel)
    }

    /// Number of tuples of a predicate (0 if absent).
    pub fn relation_len(&self, p: Predicate) -> usize {
        self.relations.get(&p).map(|r| r.len()).unwrap_or(0)
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
                *rel = Arc::new(rewritten);
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
        assert_eq!(inst.relation(mars_cq::Predicate::new("child#d.xml")).len(), 1);
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
        let p = mars_cq::Predicate::new("child#d.xml");

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
        let p = mars_cq::Predicate::new("child#d.xml");
        let rel = inst.relation_data(p).unwrap();
        assert_eq!(rel.distinct_in_column(0), 2, "a, b");
        assert_eq!(rel.distinct_in_column(1), 2, "x, y");
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
        let p = mars_cq::Predicate::new("child#d.xml");
        assert_eq!(inst.relation_data(p).unwrap().distinct_in_column(1), 2);

        let mut s = Substitution::new();
        s.set(mars_cq::Variable::named("x"), t("y"));
        inst.apply_substitution(&s);
        let rel = inst.relation_data(p).unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.distinct_in_column(1), 1, "x merged into y");
        assert_eq!(rel.distinct_in_column(0), 3, "column 0 untouched by the unification");
    }

    /// The distinct counts are cached per relation value and never copied: a
    /// cloned relation, and a relation of a cloned instance from its first
    /// write on, recount for themselves, so an insert on one side cannot
    /// leave a stale count on the other.
    #[test]
    fn clones_recount_distinct_statistics_for_themselves() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("a"), t("x")));
        inst.insert_atom(&child(t("a"), t("y")));
        inst.insert_atom(&child(t("b"), t("x")));
        let p = mars_cq::Predicate::new("child#d.xml");
        let rel = inst.relation_data(p).unwrap();
        assert_eq!((rel.distinct_in_column(0), rel.distinct_in_column(1)), (2, 2));
        assert!(rel.distinct.get().is_some(), "the first read fills the cell");

        let mut copy = rel.clone();
        assert!(copy.distinct.get().is_none(), "a clone starts with an empty cell");
        assert_eq!((copy.distinct_in_column(0), copy.distinct_in_column(1)), (2, 2));
        copy.insert(vec![t("c"), t("x")]);
        assert_eq!((copy.distinct_in_column(0), copy.distinct_in_column(1)), (3, 2));
        assert_eq!(rel.distinct_in_column(0), 2, "the original never saw the insert");

        let mut resumed = inst.clone();
        assert_eq!(resumed.relation_data(p).unwrap().distinct_in_column(0), 2);
        resumed.insert_atom(&child(t("c"), t("z")));
        let written = resumed.relation_data(p).unwrap();
        assert_eq!((written.distinct_in_column(0), written.distinct_in_column(1)), (3, 3));
        let kept = inst.relation_data(p).unwrap();
        assert_eq!((kept.len(), kept.distinct_in_column(0), kept.distinct_in_column(1)), (3, 2, 2));
    }

    /// Cloning hands out relations by handle: the relation a clone writes is
    /// copied at that write (sharing its warm indexes), every other one stays
    /// the seed's own, and an index a clone builds on an unwritten relation
    /// is there for the next clone.
    #[test]
    fn clone_copies_a_relation_at_its_first_write_only() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("a"), t("x")));
        inst.insert_atom(&tag(t("x"), "book"));
        let (child_p, tag_p) =
            (mars_cq::Predicate::new("child#d.xml"), mars_cq::Predicate::new("tag#d.xml"));
        let _ = inst.relation_data(child_p).unwrap().index(&[0]);

        let mut first = inst.clone();
        first.insert_atom(&child(t("a"), t("y")));
        let _ = first.relation_data(tag_p).unwrap().index(&[1]);
        assert_eq!(first.relation_len(child_p), 2);
        assert_eq!(first.relation_data(child_p).unwrap().index_builds(), 1, "index came along");
        assert_eq!(first.relation_data(child_p).unwrap().index(&[0]).len(), 1);

        let second = inst.clone();
        assert_eq!(second.relation_len(child_p), 1, "the seed is untouched by the write");
        assert!(std::ptr::eq(
            second.relation_data(tag_p).unwrap(),
            first.relation_data(tag_p).unwrap()
        ));
        assert_eq!(second.relation_data(tag_p).unwrap().cached_index_count(), 1);
    }

    /// Cloning is the resident-reuse contract: a clone carries the seed's
    /// warm indexes and statistics verbatim — no index is rebuilt and the
    /// build counters do not move.
    #[test]
    fn clone_preserves_indexes_without_rebuilds() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("a"), t("x")));
        inst.insert_atom(&child(t("a"), t("y")));
        inst.insert_atom(&child(t("b"), t("x")));
        let p = mars_cq::Predicate::new("child#d.xml");
        let _ = inst.relation_data(p).unwrap().index(&[0]);
        assert_eq!(inst.relation_data(p).unwrap().index_builds(), 1);

        let resumed = inst.clone();
        assert_eq!(resumed.len(), 3);
        let rel = resumed.relation_data(p).unwrap();
        // The cached index came across as data: probing it is not a build.
        assert_eq!(rel.cached_index_count(), 1);
        assert_eq!(rel.index_builds(), 1, "a clone shares indexes, it does not rebuild them");
        assert_eq!(rel.index(&[0]).get(&vec![t("a")]), Some(&vec![0, 1]));
        assert_eq!(rel.index_builds(), 1);
        // Statistics survive too.
        assert_eq!(rel.distinct_in_column(0), 2);
        // Seed and clone render the same deterministic query.
        let q1 = inst.to_query("Q", vec![], vec![]);
        let q2 = resumed.to_query("Q", vec![], vec![]);
        assert_eq!(q1.body, q2.body);
    }

    #[test]
    fn rewrite_drops_indexes_of_touched_relations_only() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("a"), t("x")));
        inst.insert_atom(&tag(t("n"), "book"));
        let child_p = mars_cq::Predicate::new("child#d.xml");
        let tag_p = mars_cq::Predicate::new("tag#d.xml");
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
