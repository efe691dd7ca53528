//! The symbolic instance `Inst(Q)`.
//!
//! Section 3.1 of the paper: "we represent Q internally as a symbolic database
//! instance Inst(Q) consisting of the relations ... whose constants are the
//! variables of Q, and whose tuples are the atoms in Q's body". The chase then
//! becomes query evaluation over this instance.
//!
//! **Flat rows.** A [`Relation`] holds its arity and one row-major
//! `Vec<Term>`: row `i` is the `arity` terms from `i * arity` on. Nothing is
//! allocated per tuple. The dedup table and the column indexes are
//! open-addressing tables of row *ids*, hashed and compared through the rows
//! they name, so no tuple is stored twice, and copying a relation on write —
//! or dropping one — copies or frees a few buffers.
//!
//! **Persistent indexes.** Every relation carries hash indexes keyed on
//! column sets ([`Relation::index`]): an index is built at most once per
//! (relation, column-set) pair and then maintained by every change, instead
//! of being rebuilt inside every premise evaluation. A key's posting list is
//! a chain of ascending row ids threaded through the index, so a new row
//! joins its chain in constant time. The process-wide [`index_build_count`]
//! lets regression tests pin this contract down.
//!
//! **EGD rewrites in place.** [`SymbolicInstance::apply_substitution`]
//! rewrites every row that mentions a renamed variable where it stands, and
//! moves it to its new key's chain in each index whose key it changes:
//! postings are patched, never dropped. A row that becomes equal to another
//! is a *tombstone*. The lower row id survives — the row an order-preserving
//! rebuild would keep — and every scan and probe skips tombstones, so every
//! join sees the live rows in the order a rebuild would give them.
//!
//! Relations also answer **exact statistics** — tuple counts and per-column
//! distinct counts ([`Relation::distinct_in_column`]) — which
//! `mars_storage::RelationalDatabase` hands the storage planner. The
//! distinct counts are *lazy*: counted on the first read after the relation
//! last changed and cached until the next change, so they are always exact,
//! never sampled or stale — and the chase, which inserts constantly and
//! never reads them, pays nothing for them. Only the storage planner reads
//! them, over stores that stop changing once loaded.
//!
//! Rows and the per-instance relation map hash with the workspace's Fx-style
//! hasher (`mars_cq::fx`). Relations sit behind `Arc` and are copied on
//! first write, so cloning an instance — a disjunctive split, a back-chase
//! resumed from a memoized one — copies a map of handles: a relation the
//! clone never writes is never copied, and an index either side builds on a
//! relation neither has written serves both.

use crate::evaluate::SCAN_THRESHOLD;
use mars_cq::{
    Atom, ConjunctiveQuery, FxHashMap, FxHashSet, FxHasher, Predicate, Substitution, Term, Variable,
};
use std::cell::Cell;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
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
/// started. The difference across a stretch of work on one thread is that
/// work's builds, whatever other threads (parallel tests, other requests)
/// do meanwhile: [`CbStatistics::index_builds`](crate::CbStatistics) of one
/// reformulation.
pub(crate) fn thread_index_build_count() -> usize {
    THREAD_INDEX_BUILDS.with(Cell::get)
}

/// The end of a posting chain, and the head of an empty slot.
const NONE: u32 = u32::MAX;
/// The head of a slot whose key's last row has left it: probes go on past it.
const GONE: u32 = u32::MAX - 1;

/// The high, best-mixed 32 bits of the Fx hash of `terms`. Terms are hashed
/// one by one, so a probe key and the same columns of a row hash alike.
fn hash_terms(terms: impl Iterator<Item = Term>) -> u32 {
    let mut h = FxHasher::default();
    for t in terms {
        t.hash(&mut h);
    }
    (h.finish() >> 32) as u32
}

/// Two rows of one arity in the order of their terms' [`Term::spelling`]s,
/// term by term. Equal terms are spelled alike, and so are the names of two
/// variables with one name symbol, so only the rest are spelled.
fn spelling_order(a: &[Term], b: &[Term]) -> std::cmp::Ordering {
    use std::cmp::Ordering::Equal;
    a.iter()
        .zip(b)
        .map(|(s, t)| match (s, t) {
            _ if s == t => Equal,
            (Term::Var(v), Term::Var(w)) if v.name == w.name => v.index.cmp(&w.index),
            _ => s.spelling().cmp(&t.spelling()),
        })
        .find(|order| order.is_ne())
        .unwrap_or(Equal)
}

/// A relation's rows as index maintenance reads them.
#[derive(Clone, Copy)]
struct RowView<'a> {
    data: &'a [Term],
    arity: usize,
}

impl<'a> RowView<'a> {
    fn get(self, id: usize) -> &'a [Term] {
        &self.data[id * self.arity..(id + 1) * self.arity]
    }
}

/// One key of a [`ColumnIndex`]: its hash and the first and last row of its
/// posting chain.
#[derive(Clone, Copy, Debug)]
struct Slot {
    hash: u32,
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot { hash: 0, head: NONE, tail: NONE };

/// A hash index over one column set of a [`Relation`]: every distinct key —
/// the terms at the key columns, in column order — names the live rows that
/// carry it, in ascending row order ([`ColumnIndex::get`]).
///
/// Keys are not stored. A slot of the open-addressing table holds a key's
/// hash and the first and last row of its posting chain, and a probe
/// compares against that first row; the chain is threaded through one
/// `next` link per row. A new row joins its chain in constant time, and a
/// rewritten row moves between chains without anything being rebuilt. A
/// relation's dedup table is the same structure over every column.
#[derive(Clone, Debug, Default)]
pub struct ColumnIndex {
    cols: Vec<usize>,
    /// Linear probing over a power-of-two table (empty until the first key).
    slots: Vec<Slot>,
    /// Slots holding a key or a `GONE` marker: the load that triggers a
    /// rehash.
    used: usize,
    /// Keys present.
    keys: usize,
    /// Per row id, the next row with the same key (`NONE` ends a chain).
    next: Vec<u32>,
}

/// The live rows of one key, ascending (see [`ColumnIndex::get`]).
#[derive(Clone, Debug)]
pub struct Postings<'a> {
    next: &'a [u32],
    at: u32,
}

impl Iterator for Postings<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.at == NONE {
            return None;
        }
        let row = self.at as usize;
        self.at = self.next[row];
        Some(row)
    }
}

impl ColumnIndex {
    fn new(cols: Vec<usize>) -> ColumnIndex {
        ColumnIndex { cols, ..ColumnIndex::default() }
    }

    /// The live rows of `rel` — the relation this index belongs to —
    /// carrying `key` on the index's columns, in ascending row order.
    pub fn get<'a>(&'a self, rel: &Relation, key: &[Term]) -> Postings<'a> {
        let hash = hash_terms(key.iter().copied());
        let slot = self.find(hash, |first| {
            let row = rel.row(first);
            self.cols.iter().zip(key).all(|(&c, k)| row[c] == *k)
        });
        Postings { next: &self.next, at: slot.map_or(NONE, |s| self.slots[s].head) }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.keys
    }

    /// Does the index hold no key?
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// The slot of the key with this hash whose first row `same` accepts.
    fn find(&self, hash: u32, same: impl Fn(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.head == NONE {
                return None;
            }
            if slot.head != GONE && slot.hash == hash && same(slot.head as usize) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The hash of the key row `id` carries, and the key's slot if present.
    fn slot_of(&self, rows: RowView<'_>, id: usize) -> (u32, Option<usize>) {
        let row = rows.get(id);
        let hash = hash_terms(self.cols.iter().map(|&c| row[c]));
        let slot = self.find(hash, |first| {
            let first = rows.get(first);
            self.cols.iter().all(|&c| first[c] == row[c])
        });
        (hash, slot)
    }

    /// Thread row `id` into the chain of the key it carries.
    fn link(&mut self, rows: RowView<'_>, id: usize) {
        let (hash, slot) = self.slot_of(rows, id);
        self.link_at(hash, slot, id);
    }

    /// Thread row `id` into the chain of its key — hash `hash`, in `slot`
    /// (`None`: a new key) — at its ascending position, in constant time
    /// when `id` is the chain's highest row.
    fn link_at(&mut self, hash: u32, slot: Option<usize>, id: usize) {
        if self.next.len() <= id {
            self.next.resize(id + 1, NONE);
        }
        self.next[id] = NONE;
        let row = id as u32;
        let Some(s) = slot else {
            self.add_key(Slot { hash, head: row, tail: row });
            return;
        };
        let Slot { head, tail, .. } = self.slots[s];
        if row > tail {
            self.next[tail as usize] = row;
            self.slots[s].tail = row;
        } else if row < head {
            self.next[id] = head;
            self.slots[s].head = row;
        } else {
            let mut at = head as usize;
            while self.next[at] < row {
                at = self.next[at] as usize;
            }
            self.next[id] = self.next[at];
            self.next[at] = row;
        }
    }

    /// Unthread row `id` from the chain of the key it carries now.
    fn unlink(&mut self, rows: RowView<'_>, id: usize) {
        let s = self.slot_of(rows, id).1.expect("a linked row's key is in the index");
        let row = id as u32;
        if self.slots[s].head == row {
            match self.next[id] {
                NONE => {
                    self.slots[s].head = GONE;
                    self.keys -= 1;
                }
                next => self.slots[s].head = next,
            }
        } else {
            let mut at = self.slots[s].head as usize;
            while self.next[at] != row {
                at = self.next[at] as usize;
            }
            self.next[at] = self.next[id];
            if self.slots[s].tail == row {
                self.slots[s].tail = at as u32;
            }
        }
        self.next[id] = NONE;
    }

    /// Place a key the table does not hold, growing the table first if the
    /// key would fill it past three quarters.
    fn add_key(&mut self, slot: Slot) {
        if (self.used + 1) * 4 > self.slots.len() * 3 {
            self.rehash();
        }
        let mask = self.slots.len() - 1;
        let mut i = slot.hash as usize & mask;
        while self.slots[i].head < GONE {
            i = (i + 1) & mask;
        }
        if self.slots[i].head == NONE {
            self.used += 1;
        }
        self.slots[i] = slot;
        self.keys += 1;
    }

    /// Lay the keys out again in a table at most half full, dropping the
    /// `GONE` markers.
    fn rehash(&mut self) {
        self.relayout(((self.keys + 1) * 2).next_power_of_two().max(8));
    }

    /// Lay the keys out again in a table of `capacity` slots, dropping the
    /// `GONE` markers.
    fn relayout(&mut self, capacity: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; capacity]);
        (self.used, self.keys) = (0, 0);
        for slot in old.into_iter().filter(|s| s.head < GONE) {
            self.add_key(slot);
        }
    }

    /// Make room for `rows` more rows, each a new key at most, in one step:
    /// the `next` links to their exact count, and the table to the size
    /// adding the keys one at a time would grow it to, the smallest power
    /// of two they fill at most three quarters of.
    fn reserve(&mut self, rows: usize) {
        self.next.reserve_exact(rows);
        if (self.used + rows) * 4 > self.slots.len() * 3 {
            self.relayout(table_size(self.keys + rows));
        }
    }

    /// Give back what [`ColumnIndex::reserve`] set aside for rows that did
    /// not come: the links past the last row, and a table larger than its
    /// keys need.
    fn fit(&mut self) {
        self.next.shrink_to_fit();
        if self.slots.len() > table_size(self.keys) {
            self.relayout(table_size(self.keys));
        }
    }
}

/// The smallest table [`ColumnIndex::add_key`] leaves `keys` keys in: a
/// power of two, at least 8, that they fill at most three quarters of.
fn table_size(keys: usize) -> usize {
    (keys * 4).div_ceil(3).next_power_of_two().max(8)
}

/// The cached column indexes of one relation, by (ascending) column set.
type IndexCache = FxHashMap<Vec<usize>, Arc<ColumnIndex>>;

/// One relation of the symbolic instance: a deduplicated, insertion-ordered
/// set of tuples whose entries are [`Term`]s (variables act as constants),
/// stored as flat rows (see the module docs).
#[derive(Debug, Default)]
pub struct Relation {
    /// Terms per row, fixed at the first insert.
    arity: usize,
    /// Every row, tombstones included, row-major.
    data: Vec<Term>,
    /// Row ids handed out so far (counted apart from `data`, which a nullary
    /// relation leaves empty).
    rows: usize,
    /// `dead[id]` marks a tombstone; empty until the first one.
    dead: Vec<bool>,
    tombstones: usize,
    /// The dedup table: an index over every column, one live row per key.
    set: ColumnIndex,
    /// Persistent column-set indexes. Interior mutability lets evaluation
    /// (`&SymbolicInstance`) build an index lazily on first use. The cache
    /// is lock-guarded and hands out shared handles, so a relation — and
    /// with it `mars_storage::RelationalDatabase` and its router — is
    /// `Sync`, and concurrent requests may read one. Clones share the
    /// handles; the first change to either side copies the indexes it
    /// touches.
    indexes: RwLock<IndexCache>,
    /// From-scratch builds of this relation's indexes — the race-free
    /// (per-relation) counterpart of the process-wide [`index_build_count`],
    /// for tests that must not observe other tests' builds.
    builds: AtomicUsize,
    /// Exact per-column distinct-term counts, counted on first read
    /// ([`Relation::distinct_in_column`]) and dropped by every change. A
    /// clone starts with an empty cell of its own: the counts are cheap to
    /// recount and the chase, which clones constantly, never reads them.
    distinct: OnceLock<Vec<usize>>,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        Relation {
            arity: self.arity,
            data: self.data.clone(),
            rows: self.rows,
            dead: self.dead.clone(),
            tombstones: self.tombstones,
            set: self.set.clone(),
            indexes: RwLock::new(self.cached_indexes().clone()),
            builds: AtomicUsize::new(self.index_builds()),
            distinct: OnceLock::new(),
        }
    }
}

/// Mark row `id` of a relation with `rows` row ids a tombstone.
fn tombstone(dead: &mut Vec<bool>, tombstones: &mut usize, rows: usize, id: usize) {
    if dead.is_empty() {
        dead.resize(rows, false);
    }
    dead[id] = true;
    *tombstones += 1;
}

impl Relation {
    // A panic while this guard is held leaves the map valid (every update is
    // a single insert of a finished value), so a poisoned lock is recovered
    // instead of turning one failed request into an outage.
    fn cached_indexes(&self) -> RwLockReadGuard<'_, IndexCache> {
        self.indexes.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn view(&self) -> RowView<'_> {
        RowView { data: &self.data, arity: self.arity }
    }

    /// Insert a tuple; returns `true` if it was new. Every existing column
    /// index absorbs the new row in constant time (no rebuild); the cached
    /// distinct counts are dropped and recounted on their next read.
    ///
    /// # Panics
    ///
    /// Panics if the relation already holds tuples of another arity.
    pub fn insert(&mut self, tuple: &[Term]) -> bool {
        match self.lookup(tuple) {
            (_, true) => false,
            (hash, false) => {
                self.push_new(tuple, hash);
                self.distinct.take();
                true
            }
        }
    }

    /// Insert the tuples of `rows`, `arity` terms each and back to back,
    /// in order; returns how many were new. What [`Relation::insert`] does
    /// per tuple, with the room for the rows, their dedup table links and
    /// keys reserved once — no more than inserting them one at a time would
    /// leave — and the distinct counts dropped once.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is 0, if `rows` is not whole rows, or if the
    /// relation already holds tuples of another arity.
    pub fn insert_rows(&mut self, arity: usize, rows: &[Term]) -> usize {
        assert!(arity > 0 && rows.len().is_multiple_of(arity), "whole rows of a positive arity");
        let (before, count) = (self.rows, rows.len() / arity);
        self.data.reserve_exact(rows.len());
        if self.rows == 0 {
            self.set = ColumnIndex::new((0..arity).collect());
        }
        self.set.reserve(count);
        for row in rows.chunks_exact(arity) {
            if let (hash, false) = self.lookup(row) {
                self.push_new(row, hash);
            }
        }
        let added = self.rows - before;
        if added < count {
            self.data.shrink_to_fit();
            self.set.fit();
        }
        if added > 0 {
            self.distinct.take();
        }
        added
    }

    /// The hash of `tuple` in the dedup table, and whether a live row holds
    /// the tuple.
    fn lookup(&self, tuple: &[Term]) -> (u32, bool) {
        let hash = hash_terms(tuple.iter().copied());
        let held = tuple.len() == self.arity
            && self.set.find(hash, |first| self.row(first) == tuple).is_some();
        (hash, held)
    }

    /// Append a tuple the dedup table does not hold; `hash` is its hash
    /// there. The caller drops the distinct counts.
    fn push_new(&mut self, tuple: &[Term], hash: u32) {
        if self.rows == 0 {
            self.arity = tuple.len();
            if self.set.cols.len() != self.arity {
                self.set = ColumnIndex::new((0..self.arity).collect());
            }
        }
        assert_eq!(tuple.len(), self.arity, "every tuple of a relation has its arity");
        let id = self.rows;
        assert!(id < GONE as usize, "row ids fit the indexes' 32-bit links");
        self.data.extend_from_slice(tuple);
        self.rows += 1;
        if !self.dead.is_empty() {
            self.dead.push(false);
        }
        self.set.link_at(hash, None, id);
        let rows = RowView { data: &self.data, arity: self.arity };
        let indexes = self.indexes.get_mut().unwrap_or_else(PoisonError::into_inner);
        for index in indexes.values_mut() {
            Arc::make_mut(index).link(rows, id);
        }
    }

    /// Does the relation hold the tuple (as a live row)?
    pub fn contains(&self, tuple: &[Term]) -> bool {
        self.lookup(tuple).1
    }

    /// The row with id `id` (a tombstone's last terms if it is one).
    pub fn row(&self, id: usize) -> &[Term] {
        self.view().get(id)
    }

    fn is_tombstone(&self, id: usize) -> bool {
        self.dead.get(id).is_some_and(|&dead| dead)
    }

    /// The ids of the live rows, ascending.
    fn live_ids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows).filter(move |&id| !self.is_tombstone(id))
    }

    /// All live rows in row order: insertion order, a rewritten row where it
    /// stood.
    pub fn rows(&self) -> impl Iterator<Item = &[Term]> + '_ {
        self.live_ids().map(move |id| self.row(id))
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows - self.tombstones
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Call `visit` with every live row carrying `key` on the columns `cols`,
    /// in row order, until it returns `true`; returns whether it did. The
    /// rows are read the way a join step reads them: a relation of at most
    /// [`SCAN_THRESHOLD`] rows (or a key of no column) is scanned, a larger
    /// one is probed through its persistent column index.
    pub fn any_with_key<'a>(
        &'a self,
        cols: &[usize],
        key: &[Term],
        mut visit: impl FnMut(&'a [Term]) -> bool,
    ) -> bool {
        if cols.is_empty() || self.len() <= SCAN_THRESHOLD {
            self.rows().any(|row| cols.iter().zip(key).all(|(&c, k)| row[c] == *k) && visit(row))
        } else {
            self.index(cols).get(self, key).any(|id| visit(self.row(id)))
        }
    }

    /// The persistent hash index over `cols` (ascending column positions).
    /// Built from the live rows on first use — counted by
    /// [`index_build_count`] — and maintained by every insert and rewrite
    /// afterwards.
    ///
    /// The returned handle shares the cached index: drop it before anything
    /// changes this relation, or that change copies the whole index instead
    /// of patching it in place (the chase never evaluates and inserts at the
    /// same moment).
    pub fn index(&self, cols: &[usize]) -> Arc<ColumnIndex> {
        if let Some(index) = self.cached_indexes().get(cols) {
            return Arc::clone(index);
        }
        let mut index = ColumnIndex::new(cols.to_vec());
        index.next = vec![NONE; self.rows];
        for id in self.live_ids() {
            index.link(self.view(), id);
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
    /// counts every column in one pass over the rows; later reads are a
    /// lookup until the next change.
    pub fn distinct_in_column(&self, col: usize) -> usize {
        let counts = self.distinct.get_or_init(|| {
            let mut seen: Vec<FxHashSet<Term>> = vec![FxHashSet::default(); self.arity];
            for row in self.rows() {
                for (column, t) in seen.iter_mut().zip(row) {
                    column.insert(*t);
                }
            }
            seen.iter().map(FxHashSet::len).collect()
        });
        counts.get(col).copied().unwrap_or(0)
    }

    /// Terms per row, fixed at the first insert (0 before it).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Apply `s` to the rows `touched` — ascending live ids, each mentioning
    /// a variable `s` renames — where they stand (see the module docs).
    fn rewrite(&mut self, touched: &[usize], s: &Substitution) {
        let arity = self.arity;
        let renamed: Vec<Term> = touched
            .iter()
            .flat_map(|&id| self.row(id).iter().map(move |t| s.apply_term_deep(*t)))
            .collect();
        let new_row = |k: usize| &renamed[k * arity..(k + 1) * arity];
        let cache = self.indexes.get_mut().unwrap_or_else(PoisonError::into_inner);
        let mut indexes: Vec<&mut ColumnIndex> = cache.values_mut().map(Arc::make_mut).collect();
        // `moves[x][k]`: touched row `k` changes its key in index `x`.
        let moves: Vec<Vec<bool>> = indexes
            .iter()
            .map(|index| {
                let old = |k: usize| &self.data[touched[k] * arity..(touched[k] + 1) * arity];
                (0..touched.len())
                    .map(|k| index.cols.iter().any(|&c| old(k)[c] != new_row(k)[c]))
                    .collect()
            })
            .collect();

        // Out of every chain, under the old terms: the dedup table's (the
        // whole row changes) and those of the indexes whose key changes.
        let rows = RowView { data: &self.data, arity };
        for (k, &id) in touched.iter().enumerate() {
            self.set.unlink(rows, id);
            for (index, moved) in indexes.iter_mut().zip(&moves) {
                if moved[k] {
                    index.unlink(rows, id);
                }
            }
        }
        for (k, &id) in touched.iter().enumerate() {
            self.data[id * arity..(id + 1) * arity].copy_from_slice(new_row(k));
        }

        // Back in, ascending. Of two equal rows the lower id survives: a
        // touched row meeting a lower one dies, and one meeting a higher
        // (necessarily untouched) row takes its place.
        let rows = RowView { data: &self.data, arity };
        for (k, &id) in touched.iter().enumerate() {
            let twin = self.set.slot_of(rows, id).1.map(|s| self.set.slots[s].head as usize);
            match twin {
                Some(twin) if twin < id => {
                    for (index, moved) in indexes.iter_mut().zip(&moves) {
                        if !moved[k] {
                            index.unlink(rows, id);
                        }
                    }
                    tombstone(&mut self.dead, &mut self.tombstones, self.rows, id);
                }
                twin => {
                    if let Some(twin) = twin {
                        self.set.unlink(rows, twin);
                        for index in indexes.iter_mut() {
                            index.unlink(rows, twin);
                        }
                        tombstone(&mut self.dead, &mut self.tombstones, self.rows, twin);
                    }
                    self.set.link(rows, id);
                    for (index, moved) in indexes.iter_mut().zip(&moves) {
                        if moved[k] {
                            index.link(rows, id);
                        }
                    }
                }
            }
        }
        self.distinct.take();
    }
}

/// The largest disambiguator of a variable among `terms` (0 if none).
fn max_var_index(terms: &[Term]) -> u32 {
    terms.iter().filter_map(Term::as_var).map(|v| v.index).max().unwrap_or(0)
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
        self.insert(atom.predicate, &atom.args)
    }

    /// Insert the tuple `args` into relation `p`; returns `true` if it was
    /// new. The chase writes its conclusion atoms through this from one
    /// reused row, without building an [`Atom`] per atom.
    pub fn insert(&mut self, p: Predicate, args: &[Term]) -> bool {
        let rel = self.relations.entry(p).or_default();
        let (hash, held) = rel.lookup(args);
        if held {
            return false;
        }
        // Copy-on-write: a relation still shared with a memoized seed or a
        // sibling branch is copied here, at its first new tuple.
        let rel = Arc::make_mut(rel);
        rel.push_new(args, hash);
        rel.distinct.take();
        self.atom_count += 1;
        self.max_var = self.max_var.max(max_var_index(args));
        true
    }

    /// Insert the tuples of `rows`, `arity` terms each and back to back,
    /// into relation `p`, declaring it; returns how many were new. The
    /// same instance as inserting them one at a time
    /// ([`Self::insert`]), with the relation's room reserved once
    /// ([`Relation::insert_rows`]): a store loads a relation whole.
    ///
    /// # Panics
    ///
    /// As [`Relation::insert_rows`].
    pub fn insert_rows(&mut self, p: Predicate, arity: usize, rows: &[Term]) -> usize {
        let rel = Arc::make_mut(self.relations.entry(p).or_default());
        let before = rel.rows;
        let added = rel.insert_rows(arity, rows);
        self.atom_count += added;
        self.max_var = self.max_var.max(max_var_index(&rel.data[before * arity..]));
        added
    }

    /// Does relation `p` hold the tuple `args`?
    pub fn contains(&self, p: Predicate, args: &[Term]) -> bool {
        self.relations.get(&p).is_some_and(|r| r.contains(args))
    }

    /// Does the instance contain the atom (exactly)?
    pub fn contains_atom(&self, atom: &Atom) -> bool {
        self.contains(atom.predicate, &atom.args)
    }

    /// The live rows of a predicate's relation, in row order (none if
    /// absent).
    pub fn rows(&self, p: Predicate) -> impl Iterator<Item = &[Term]> + '_ {
        self.relations.get(&p).into_iter().flat_map(|r| r.rows())
    }

    /// The full relation object (rows + persistent indexes) for a
    /// predicate, if present.
    pub fn relation_data(&self, p: Predicate) -> Option<&Relation> {
        self.relations.get(&p).map(|rel| &**rel)
    }

    /// Hold relation `p`, with no tuple if it has none yet: present, so
    /// [`Self::relation_data`] tells it from a relation never declared.
    pub fn declare(&mut self, p: Predicate) {
        self.relations.entry(p).or_default();
    }

    /// Number of relations held, empty declared ones included.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
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
            for row in rel.rows() {
                out.push(Atom { predicate: *p, args: row.into() });
            }
        }
        out
    }

    /// All terms appearing anywhere in the instance.
    pub fn terms(&self) -> HashSet<Term> {
        let mut out = HashSet::new();
        for rel in self.relations.values() {
            for row in rel.rows() {
                out.extend(row.iter().copied());
            }
        }
        out
    }

    /// All variables appearing anywhere in the instance.
    pub fn variables(&self) -> HashSet<Variable> {
        self.terms().into_iter().filter_map(|t| t.as_var()).collect()
    }

    /// Convert back to a query with the given name, head and inequalities.
    /// Atoms are ordered by how they are spelled ([`Atom::spelling`]),
    /// which gives the same universal plan in every process, whatever it
    /// interned first.
    ///
    /// No key is built per atom: the relations are taken in the order of
    /// their predicates' names (a name is interned once, so no two
    /// relations share one), and each relation's rows are sorted, stably,
    /// by their terms' [`Term::spelling`]. Rows of one relation have one
    /// arity, so that is the order of the atoms' spellings, equal keys
    /// keeping row order.
    pub fn to_query(
        &self,
        name: &str,
        head: Vec<Term>,
        inequalities: Vec<(Term, Term)>,
    ) -> ConjunctiveQuery {
        let mut relations: Vec<(&'static str, Predicate, &Relation)> =
            self.relations.iter().map(|(p, rel)| (p.name(), *p, &**rel)).collect();
        relations.sort_unstable_by_key(|&(name, _, _)| name);
        let mut atoms = Vec::with_capacity(self.atom_count);
        let mut rows: Vec<&[Term]> = Vec::new();
        for (_, predicate, rel) in relations {
            rows.clear();
            rows.extend(rel.rows());
            rows.sort_by(|a, b| spelling_order(a, b));
            atoms.extend(rows.iter().map(|row| Atom { predicate, args: (*row).into() }));
        }
        ConjunctiveQuery { name: name.to_string(), head, body: atoms, inequalities }
    }

    /// Apply a substitution to every tuple of the instance (used when an EGD
    /// unifies two terms). Returns the predicates whose relations actually
    /// changed (some tuple was rewritten) — the delta-driven chase
    /// re-examines only dependencies whose premises mention one of them.
    ///
    /// A relation no row of which mentions a substituted variable is left
    /// untouched (no copy, no allocation). In any other relation only the
    /// rows that mention one are rewritten, where they stand, and their
    /// postings moved (see the module docs): unifications during a resumed
    /// back-chase typically affect a handful of rows in an instance of
    /// hundreds.
    pub fn apply_substitution(&mut self, s: &Substitution) -> HashSet<Predicate> {
        let mut changed: HashSet<Predicate> = HashSet::new();
        let (mut count, mut max_var) = (0usize, 0u32);
        let mut touched: Vec<usize> = Vec::new();
        for (p, rel) in self.relations.iter_mut() {
            touched.clear();
            for id in rel.live_ids() {
                let mut hit = false;
                for &t in rel.row(id) {
                    let renamed = s.apply_term_deep(t);
                    hit |= renamed != t;
                    // A substitution can erase the highest-indexed variable,
                    // so the maximum is recounted over the renamed terms.
                    if let Term::Var(v) = renamed {
                        max_var = max_var.max(v.index);
                    }
                }
                if hit {
                    touched.push(id);
                }
            }
            if !touched.is_empty() {
                changed.insert(*p);
                Arc::make_mut(rel).rewrite(&touched, s);
            }
            count += rel.len();
        }
        self.atom_count = count;
        self.max_var = max_var;
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
    use proptest::prelude::*;

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    /// The posting list of `key` in `rel`'s index over `cols`, as row ids.
    fn postings(rel: &Relation, cols: &[usize], key: &[Term]) -> Vec<usize> {
        rel.index(cols).get(rel, key).collect()
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
        assert_eq!(inst.relation_len(mars_cq::Predicate::new("child#d.xml")), 1);
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
        assert_eq!(inst.rows(mars_cq::Predicate::new("nothing")).count(), 0);
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
            assert_eq!(postings(rel, &[0], &[t("a")]), [0, 1]);
            assert_eq!(postings(rel, &[0], &[t("d")]), [2]);
            assert!(postings(rel, &[0], &[t("z")]).is_empty());
        }
        assert_eq!(inst.relation_data(p).unwrap().index_builds(), 1, "one build per column set");

        // Insert maintains the cached index incrementally — no rebuild.
        inst.insert_atom(&child(t("a"), t("f")));
        {
            let rel = inst.relation_data(p).unwrap();
            assert_eq!(postings(rel, &[0], &[t("a")]), [0, 1, 3]);
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
            assert_eq!(postings(rel, &[0, 1], &[t("a"), t("f")]), [3]);
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

    /// An EGD rewrite changes the touched relation's terms — and with them
    /// the distinct statistics, which must reflect the merged terms exactly.
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
        copy.insert(&[t("c"), t("x")]);
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
        assert_eq!(postings(rel, &[0], &[t("a")]), [0, 1]);
        assert_eq!(rel.index_builds(), 1);
        // Statistics survive too.
        assert_eq!(rel.distinct_in_column(0), 2);
        // Seed and clone render the same deterministic query.
        let q1 = inst.to_query("Q", vec![], vec![]);
        let q2 = resumed.to_query("Q", vec![], vec![]);
        assert_eq!(q1.body, q2.body);
    }

    /// An EGD rewrite patches the touched relation where it stands: its
    /// indexes stay cached and are not rebuilt, a row that becomes equal to a
    /// lower one is a tombstone, and rows and postings come out in the order
    /// an order-preserving rebuild would give. Untouched relations are left
    /// alone.
    #[test]
    fn rewrite_patches_indexes_in_place() {
        let mut inst = SymbolicInstance::new();
        for (a, b) in [("a", "x"), ("b", "y"), ("a", "y"), ("c", "x")] {
            inst.insert_atom(&child(t(a), t(b)));
        }
        inst.insert_atom(&tag(t("n"), "book"));
        let child_p = mars_cq::Predicate::new("child#d.xml");
        let tag_p = mars_cq::Predicate::new("tag#d.xml");
        for cols in [[0], [1]] {
            let _ = inst.relation_data(child_p).unwrap().index(&cols);
        }
        let _ = inst.relation_data(tag_p).unwrap().index(&[1]);

        let mut s = Substitution::new();
        s.set(mars_cq::Variable::named("x"), t("y"));
        let changed = inst.apply_substitution(&s);
        assert!(changed.contains(&child_p));
        assert!(!changed.contains(&tag_p));
        let rel = inst.relation_data(child_p).unwrap();
        // Row 0, (a, x), became (a, y), which row 2 held: row 2 is the
        // tombstone.
        let rows: Vec<Vec<Term>> = rel.rows().map(<[Term]>::to_vec).collect();
        assert_eq!(rows, [vec![t("a"), t("y")], vec![t("b"), t("y")], vec![t("c"), t("y")]]);
        assert_eq!((rel.len(), inst.len()), (3, 4));
        assert_eq!(postings(rel, &[1], &[t("y")]), [0, 1, 3]);
        assert!(postings(rel, &[1], &[t("x")]).is_empty());
        assert_eq!(postings(rel, &[0], &[t("a")]), [0]);
        assert!(!rel.contains(&[t("a"), t("x")]));
        assert_eq!(
            (rel.cached_index_count(), rel.index_builds()),
            (2, 2),
            "postings are patched, not rebuilt"
        );
        assert_eq!(inst.relation_data(tag_p).unwrap().cached_index_count(), 1);
    }

    /// The reference model of one relation: its distinct tuples in
    /// first-occurrence order; a rewrite rebuilds it in that order.
    #[derive(Clone, Debug, Default)]
    struct Model(Vec<Vec<Term>>);

    impl Model {
        fn insert(&mut self, tuple: &[Term]) -> bool {
            let new = !self.0.iter().any(|t| t == tuple);
            if new {
                self.0.push(tuple.to_vec());
            }
            new
        }

        /// Rebuild the tuples under `s`; returns whether one changed.
        fn rewrite(&mut self, s: &Substitution) -> bool {
            let renamed =
                |t: &[Term]| -> Vec<Term> { t.iter().map(|x| s.apply_term_deep(*x)).collect() };
            if self.0.iter().all(|t| renamed(t) == *t) {
                return false;
            }
            for tuple in std::mem::take(&mut self.0) {
                self.insert(&renamed(&tuple));
            }
            true
        }
    }

    /// The modelled relations: one binary, one unary.
    fn schema() -> [(Predicate, usize); 2] {
        [(Predicate::new("P"), 2), (Predicate::new("U"), 1)]
    }

    /// Five variables of distinct indexes and two constants.
    fn alphabet() -> Vec<Term> {
        let mut terms: Vec<Term> =
            (0..5).map(|i| Term::Var(Variable::with_index("v", i))).collect();
        terms.extend([Term::constant_str("c"), Term::constant_int(7)]);
        terms
    }

    /// Every tuple of `arity` terms over `alphabet`.
    fn tuples(alphabet: &[Term], arity: usize) -> Vec<Vec<Term>> {
        (0..arity).fold(vec![Vec::new()], |acc, _| {
            acc.iter()
                .flat_map(|prefix| {
                    alphabet.iter().map(move |t| {
                        let mut tuple = prefix.clone();
                        tuple.push(*t);
                        tuple
                    })
                })
                .collect()
        })
    }

    /// Everything the store answers about `inst`, against the models. With
    /// `build`, every column index is built first; otherwise the cached ones
    /// are compared.
    fn assert_store_matches(inst: &SymbolicInstance, models: &[Model; 2], build: bool) {
        let alphabet = alphabet();
        let mut max_var = 0;
        for ((p, arity), model) in schema().into_iter().zip(models) {
            let rows: Vec<Vec<Term>> = inst.rows(p).map(<[Term]>::to_vec).collect();
            assert_eq!(rows, model.0, "rows of {p:?}");
            assert_eq!(inst.relation_len(p), model.0.len());
            for v in model.0.iter().flatten().filter_map(Term::as_var) {
                max_var = max_var.max(v.index);
            }
            let Some(rel) = inst.relation_data(p) else { continue };
            let all = tuples(&alphabet, arity);
            for tuple in &all {
                assert_eq!(rel.contains(tuple), model.0.contains(tuple), "{p:?} holds {tuple:?}");
            }
            for col in 0..arity {
                let distinct: HashSet<Term> = model.0.iter().map(|t| t[col]).collect();
                assert_eq!(rel.distinct_in_column(col), distinct.len(), "{p:?} column {col}");
            }
            let column_sets: Vec<Vec<usize>> = if build {
                (1..1usize << arity)
                    .map(|bits| (0..arity).filter(|c| bits & (1 << c) != 0).collect())
                    .collect()
            } else {
                rel.cached_indexes().keys().cloned().collect()
            };
            let rank: FxHashMap<usize, usize> =
                rel.live_ids().enumerate().map(|(i, id)| (id, i)).collect();
            for cols in column_sets {
                let index = rel.index(&cols);
                for key in tuples(&alphabet, cols.len()) {
                    let got: Vec<usize> = index.get(rel, &key).map(|id| rank[&id]).collect();
                    let want: Vec<usize> = (0..model.0.len())
                        .filter(|&i| cols.iter().zip(&key).all(|(&c, k)| model.0[i][c] == *k))
                        .collect();
                    assert_eq!(got, want, "{p:?} postings of {cols:?} = {key:?}");
                }
            }
        }
        assert_eq!(inst.len(), models.iter().map(|m| m.0.len()).sum::<usize>());
        assert_eq!(inst.max_variable_index(), max_var);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flat store against its reference model: random inserts,
        /// clone-then-write on either side and substitutions over a small
        /// alphabet leave rows (in order), lengths, membership, every
        /// index's posting lists, distinct counts, the fresh-variable bound
        /// and the changed-predicate sets as first-occurrence dedup and an
        /// order-preserving rebuild would — on the written side and on the
        /// untouched side of every clone.
        #[test]
        fn the_store_agrees_with_its_reference_model(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let mut pick = move |n: usize| (rng.next_u64() % n as u64) as usize;
            let alphabet = alphabet();
            let vars: Vec<Variable> = alphabet.iter().filter_map(Term::as_var).collect();
            let mut current = (SymbolicInstance::new(), [Model::default(), Model::default()]);
            let mut saved: Vec<(SymbolicInstance, [Model; 2])> = Vec::new();
            for _ in 0..24 {
                match pick(10) {
                    0..=5 => {
                        let r = pick(2);
                        let (p, arity) = schema()[r];
                        let tuple: Vec<Term> =
                            (0..arity).map(|_| alphabet[pick(alphabet.len())]).collect();
                        let new = current.1[r].insert(&tuple);
                        prop_assert_eq!(current.0.insert(p, &tuple), new);
                    }
                    6 if saved.len() < 3 => saved.push(current.clone()),
                    7 if !saved.is_empty() => {
                        let i = pick(saved.len());
                        std::mem::swap(&mut current, &mut saved[i]);
                    }
                    _ => {
                        let from = vars[pick(vars.len())];
                        let to = alphabet[pick(alphabet.len())];
                        if to == Term::Var(from) {
                            continue;
                        }
                        let mut s = Substitution::new();
                        s.set(from, to);
                        let want: HashSet<Predicate> = schema()
                            .iter()
                            .zip(current.1.iter_mut())
                            .filter_map(|((p, _), model)| model.rewrite(&s).then_some(*p))
                            .collect();
                        prop_assert_eq!(current.0.apply_substitution(&s), want);
                    }
                }
                let build = pick(3) == 0;
                assert_store_matches(&current.0, &current.1, build);
                for side in &saved {
                    assert_store_matches(&side.0, &side.1, build);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Inserting a batch of rows at once ([`SymbolicInstance::insert_rows`])
        /// gives the instance inserting them one at a time gives, against
        /// the reference model: rows in order, membership, the postings of
        /// the indexes built before a batch and after it, distinct counts,
        /// the fresh-variable bound and the new-row count. Over the small
        /// alphabet most batches repeat rows, so the dedup check runs. No
        /// buffer — the rows, the dedup table's links or its slots — ends
        /// larger than one-at-a-time insertion leaves it.
        #[test]
        fn batch_inserts_agree_with_single_inserts(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let mut pick = move |n: usize| (rng.next_u64() % n as u64) as usize;
            let alphabet = alphabet();
            let (mut batched, mut single) = (SymbolicInstance::new(), SymbolicInstance::new());
            let mut models = [Model::default(), Model::default()];
            for _ in 0..6 {
                let r = pick(2);
                let (p, arity) = schema()[r];
                if pick(3) == 0 {
                    batched.relation_data(p).map(|rel| rel.index(&[0]));
                }
                let rows: Vec<Term> =
                    (0..pick(40) * arity).map(|_| alphabet[pick(alphabet.len())]).collect();
                // A batch declares its relation, even an empty batch.
                single.declare(p);
                let mut new = 0;
                for row in rows.chunks_exact(arity) {
                    let fresh = models[r].insert(row);
                    prop_assert_eq!(single.insert(p, row), fresh);
                    new += usize::from(fresh);
                }
                prop_assert_eq!(batched.insert_rows(p, arity, &rows), new);
                assert_store_matches(&batched, &models, pick(3) == 0);
                assert_store_matches(&single, &models, false);
                let (b, s) = (&batched.relations[&p], &single.relations[&p]);
                prop_assert!(b.data.capacity() <= s.data.capacity());
                prop_assert!(b.set.next.capacity() <= s.set.next.capacity());
                prop_assert!(b.set.slots.len() <= s.set.slots.len());
            }
        }
    }

    /// A batch of distinct rows into an empty relation reserves exactly its
    /// rows and links, and the dedup table adding them one at a time ends
    /// with; a batch of repeats gives back what it reserved.
    #[test]
    fn a_batch_reserves_what_its_rows_need() {
        let p = Predicate::new("batch");
        let rows: Vec<Term> = (0..1000).map(|i| Term::constant_str(&format!("b{i}"))).collect();
        let (mut batched, mut single) = (SymbolicInstance::new(), SymbolicInstance::new());
        assert_eq!(batched.insert_rows(p, 2, &rows), 500);
        rows.chunks_exact(2).for_each(|row| assert!(single.insert(p, row)));
        let (b, s) = (&batched.relations[&p], &single.relations[&p]);
        assert_eq!((b.data.capacity(), b.set.next.capacity()), (1000, 500));
        assert_eq!(b.set.slots.len(), s.set.slots.len());
        assert_eq!(b.set.slots.len(), 1024);
        assert_eq!(batched.insert_rows(p, 2, &rows), 0);
        let b = &batched.relations[&p];
        assert_eq!(
            (b.data.capacity(), b.set.next.capacity(), b.set.slots.len()),
            (1000, 500, 1024)
        );
        assert_eq!(batched.len(), 500);
    }

    /// The order [`SymbolicInstance::to_query`] gave while it built a key
    /// per atom: every atom, sorted (stably) by [`Atom::spelling`].
    fn spelled_by_key(inst: &SymbolicInstance) -> Vec<Atom> {
        let mut atoms = inst.atoms();
        atoms.sort_by_cached_key(Atom::spelling);
        atoms
    }

    /// Terms whose spellings tie on a prefix, or on everything but their
    /// kind: variables `x`, `x1` and `y` at two indexes, the strings `x`,
    /// `10` and `9`, nodes of two documents and two parameters.
    fn spelling_alphabet() -> Vec<Term> {
        let mut terms: Vec<Term> = ["x", "x1", "y"]
            .iter()
            .flat_map(|name| (0..2).map(|i| Term::Var(Variable::with_index(name, i))))
            .collect();
        terms.extend(["x", "10", "9"].map(Term::constant_str));
        for doc in ["d.xml", "e.xml"] {
            terms.extend(
                (0..2).map(|id| Term::Const(mars_cq::Constant::node(mars_cq::symbol(doc), id))),
            );
        }
        terms.extend((0..2).map(|i| Term::Const(mars_cq::Constant::Param(i))));
        terms
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `to_query` renders the order a key per atom gives: random
        /// relations whose names share prefixes, rows over terms whose
        /// spellings tie on prefixes, and substitutions that rewrite rows
        /// where they stand (so row order is not insertion order).
        #[test]
        fn to_query_orders_atoms_by_their_spelling(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let mut pick = move |n: usize| (rng.next_u64() % n as u64) as usize;
            let alphabet = spelling_alphabet();
            let vars: Vec<Variable> = alphabet.iter().filter_map(Term::as_var).collect();
            let relations = [("R", 2), ("R0", 1), ("Ra", 3), ("child#d.xml", 2), ("P", 1)];
            let mut inst = SymbolicInstance::new();
            for _ in 0..40 {
                if pick(6) == 0 {
                    let mut s = Substitution::new();
                    s.set(vars[pick(vars.len())], alphabet[pick(alphabet.len())]);
                    inst.apply_substitution(&s);
                } else {
                    let (name, arity) = relations[pick(relations.len())];
                    let args: Vec<Term> =
                        (0..arity).map(|_| alphabet[pick(alphabet.len())]).collect();
                    inst.insert_atom(&Atom::named(name, args));
                }
            }
            prop_assert_eq!(inst.to_query("Q", vec![], vec![]).body, spelled_by_key(&inst));
        }

        /// Row by row, `spelling_order` is the order of the rows' spellings,
        /// equal rows (the ties a stable sort keeps in row order) included.
        #[test]
        fn spelling_order_compares_spellings(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let mut pick = move |n: usize| (rng.next_u64() % n as u64) as usize;
            let alphabet = spelling_alphabet();
            let rows: Vec<Vec<Term>> =
                (0..6).map(|_| (0..2).map(|_| alphabet[pick(alphabet.len())]).collect()).collect();
            for a in &rows {
                for b in rows.iter().chain([a]) {
                    let keys = |row: &[Term]| row.iter().map(Term::spelling).collect::<Vec<_>>();
                    prop_assert_eq!(spelling_order(a, b), keys(a).cmp(&keys(b)));
                }
            }
        }
    }
}
