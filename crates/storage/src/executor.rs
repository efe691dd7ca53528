//! Vectorized evaluation of physical plans over the stored facts and
//! documents.
//!
//! `execute_plan` walks a [`PhysicalPlan`] (compiled by
//! [`mars_cost::physical_plan`] from exact storage statistics) bottom-up; it
//! runs every route, because a route is only what the plan's leaves read.
//! The tree names the query's terms by position, and `execute_plan` reads
//! them from the query it is handed — any query of the shape the tree was
//! planned for, so a plan-cache hit runs the tree its entry keeps.
//! Every operator materializes its output as one flat row-major `Batch` —
//! a single `Vec<Term>` holding `len` rows of `width` columns in the
//! operator's pruned layout — so executing a plan performs a constant number
//! of allocations per operator, not per row. The operators:
//!
//! * `TableScan` reads one relation, keeps the rows matching the pushed-down
//!   constants (the query's, in the pushed columns of the scanned atom) and
//!   the intra-atom duplicate-variable checks, and keeps only
//!   the pruned columns. A pushdown is read the way the chase's join steps
//!   read a key ([`mars_chase::Relation::any_with_key`]): a relation of at
//!   most [`mars_chase::SCAN_THRESHOLD`] rows is scanned, a larger one is
//!   probed through its persistent column index, built once per column set
//!   and kept up to date on insert. Rows come out in row order either way;
//! * `NavScan` compiles its atoms, in the order they are listed, into the native
//!   navigation kernel ([`crate::navigation`]) over the stored documents,
//!   whose rows are a `Batch` with one slot per variable, and projects the
//!   leaf's output columns out of them, counting the candidate tuples the
//!   kernel enumerates;
//! * `HashJoin` hashes the plan-chosen build side on the key columns into
//!   one chained table (Fx-style multiplicative hashing): an open-addressed
//!   array holds one head per distinct key, the key's first build row, and
//!   one `next` link per build row chains the key's other rows in row order.
//!   A key is confirmed against its head's build row, whatever its width, so
//!   a join allocates the two arrays and nothing per key or per row. The
//!   other side probes it; matches come out probe-major, each probe row's
//!   build rows ascending (intermediate row order is plan-dependent — the
//!   root `Distinct` canonicalizes it away);
//! * `Filter` compacts out rows failing a residual inequality, in place
//!   (`Batch::retain`, which the navigation kernel's steps share);
//! * `Project` assembles the head row (columns, or the query's head term
//!   itself: a literal constant, or the variable for an unsafe head variable
//!   — matching the naive evaluator);
//! * `Distinct`, the plan's root, is `execute_plan` itself: it sorts the
//!   root batch's row indices by the rows' slice order (comparing a `u64`
//!   that orders each row's first term before the rows themselves), drops
//!   adjacent duplicates and allocates each surviving [`Row`] once, so rows come out
//!   deduplicated in **ascending [`Row`] order** — the deterministic output
//!   order `RelationalDatabase::query` guarantees for both the physical and
//!   the naive evaluator.
//!
//! Correctness does not depend on the planner: any join order, build side or
//! pruning produces the same row set (property-tested byte-identical to the
//! naive evaluator in `tests/property_based.rs`).

use crate::navigation::NavPlan;
use crate::relational::Row;
use crate::xml_engine::{XmlStore, XmlStoreError};
use mars_chase::SymbolicInstance;
use mars_cost::{BuildSide, Operand, PhysicalPlan};
use mars_cq::{Args, ConjunctiveQuery, Constant, Term};
use std::hash::{BuildHasher, Hash, Hasher};

/// The workspace's Fx-style hasher (`mars_cq::fx`): join keys are one or two
/// tiny `Copy` terms, so SipHash's per-key setup would dominate the probe.
pub(crate) use mars_cq::FxBuild as Fx;

/// A flat row-major batch: `len` rows of `width` terms each, stored in one
/// contiguous allocation. `width` may be 0 (a Boolean sub-result), which is
/// why `len` is tracked explicitly.
pub(crate) struct Batch {
    pub(crate) width: usize,
    pub(crate) len: usize,
    pub(crate) data: Vec<Term>,
}

impl Batch {
    pub(crate) fn new(width: usize) -> Batch {
        Batch { width, len: 0, data: Vec::new() }
    }

    pub(crate) fn row(&self, i: usize) -> &[Term] {
        &self.data[i * self.width..i * self.width + self.width]
    }

    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Term]> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Keep the rows `keep` accepts, in order, in place: each survivor is
    /// copied down over the gap dropped rows left (rows are `Copy` terms).
    /// `keep` may rewrite the row it is handed.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&mut [Term]) -> bool) {
        let width = self.width;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(&mut self.data[i * width..(i + 1) * width]) {
                if kept != i {
                    self.data.copy_within(i * width..(i + 1) * width, kept * width);
                }
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Keep the first `len` rows.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.data.truncate(len * self.width);
        self.len = len;
    }
}

/// Execute `plan` for `q` — table scans over `inst`, navigation scans over
/// `xml`'s documents — returning the deduplicated head rows in ascending
/// order and the candidate tuples navigation enumerated. `plan` must be a
/// root plan (ending in `Distinct ∘ Project`, as [`mars_cost::physical_plan`]
/// produces) planned for a query of `q`'s shape; its constants and variable
/// names are `q`'s. Fails when a navigation scan reads a document `xml`
/// lacks.
pub(crate) fn execute_plan(
    plan: &PhysicalPlan,
    q: &ConjunctiveQuery,
    inst: &SymbolicInstance,
    xml: &XmlStore,
) -> Result<(Vec<Row>, u64), XmlStoreError> {
    let mut nav_tuples = 0;
    let batch = eval(plan, q, inst, xml, &mut nav_tuples)?;
    Ok((distinct(&batch), nav_tuples))
}

/// The distinct rows of `batch` in ascending [`Row`] order: its row indices
/// sorted by the rows they name, adjacent duplicates dropped, each surviving
/// row copied out once. Each index carries its row's first term as an
/// [`order_key`], compared first, so rows whose first terms differ (most, in
/// a keyed answer) are ordered without reading them. A batch of width 0 and
/// any length above 0 yields one empty row.
fn distinct(batch: &Batch) -> Vec<Row> {
    let row = |i: u32| batch.row(i as usize);
    let key = |i: u32| if batch.width == 0 { 0 } else { order_key(row(i)[0]) };
    let mut order: Vec<(u64, u32)> = (0..row_index(batch.len)).map(|i| (key(i), i)).collect();
    order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| row(a.1).cmp(row(b.1))));
    order.dedup_by(|a, b| a.0 == b.0 && row(a.1) == row(b.1));
    order.iter().map(|&(_, i)| row(i).to_vec()).collect()
}

/// A `u64` ordered as [`Term`]s are, up to ties: variables by name, then
/// string, node and parameter constants, each kind in its id order, the
/// kind in the top three bits. Variables of one name tie, as do a
/// document's nodes eight slots at a time (its symbol and slot do not both
/// fit).
fn order_key(t: Term) -> u64 {
    match t {
        Term::Var(v) => v.name as u64,
        Term::Const(Constant::Str(s)) => 1 << 61 | s as u64,
        Term::Const(Constant::Node { doc, id }) => 2 << 61 | (doc as u64) << 29 | (id >> 3) as u64,
        Term::Const(Constant::Param(p)) => 3 << 61 | p as u64,
    }
}

/// `len` as a `u32` row index: a batch holds fewer than `u32::MAX` rows.
pub(crate) fn row_index(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&at| at != NONE)
        .expect("a batch addresses its rows with u32 indices")
}

/// Resolve an operand against a row: a column, else the query's own term
/// (unsafe/unbound variables evaluate to themselves, exactly like the naive
/// evaluator's `apply_term`).
fn resolve(op: Operand, row: &[Term], q: &ConjunctiveQuery) -> Term {
    match op {
        Operand::Column(c) => row[c],
        _ => op.term(q).expect("a non-column operand names a query term"),
    }
}

/// The end of a chain, and an empty slot of [`Chains::heads`].
pub(crate) const NONE: u32 = u32::MAX;

/// A chained hash table over rows, each given by its key's hash. `heads` is
/// an open-addressed array (linear probing) holding, for each distinct key,
/// the first row that carries it; `next[i]` is the row after `i` with the
/// same key, so a key's chain lists its rows in row order. Keys are never
/// stored: a slot is confirmed by a closure its caller supplies, which
/// decides whether the slot's head row carries the key sought.
///
/// A key's home slot is its hash's bits from 32 up, masked to the table, as
/// the chase's column indexes take theirs: the top bits of an Fx hash of
/// sequential symbol ids cluster, and linear probing then walks long runs.
pub(crate) struct Chains {
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl Chains {
    /// Chain `len` rows, row `i` hashing to `hash(i)`; `same(head, i)` says
    /// whether the head row `head` carries row `i`'s key.
    pub(crate) fn new(
        len: usize,
        hash: impl Fn(u32) -> u64,
        same: impl Fn(u32, u32) -> bool,
    ) -> Chains {
        // At most half full, so a probe of an absent key stops soon.
        let slots = (2 * len).next_power_of_two().max(2);
        let mut chains = Chains { heads: vec![NONE; slots], next: vec![NONE; len] };
        // Rows go in last first, each pushed in front of its key's chain,
        // so every chain runs in ascending row order.
        for i in (0..row_index(len)).rev() {
            let slot = chains.slot(hash(i), |head| same(head, i));
            chains.next[i as usize] = std::mem::replace(&mut chains.heads[slot], i);
        }
        chains
    }

    /// Where the probe for the key hashing to `hash` starts.
    fn home(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.heads.len() - 1)
    }

    /// The slot of the key hashing to `hash` whose head row `is_key`
    /// accepts, else the empty one where the probe for it ends.
    fn slot(&self, hash: u64, is_key: impl Fn(u32) -> bool) -> usize {
        let mask = self.heads.len() - 1;
        let mut slot = self.home(hash);
        while self.heads[slot] != NONE && !is_key(self.heads[slot]) {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The rows of the key hashing to `hash` whose head row `is_key`
    /// accepts, in row order.
    pub(crate) fn matches(
        &self,
        hash: u64,
        is_key: impl Fn(u32) -> bool,
    ) -> impl Iterator<Item = usize> + '_ {
        let first = self.heads[self.slot(hash, is_key)];
        std::iter::successors((first != NONE).then_some(first), |&b| {
            let next = self.next[b as usize];
            (next != NONE).then_some(next)
        })
        .map(|b| b as usize)
    }
}

/// The Fx hash of the key `cols` pick from `row`.
fn key_hash(row: &[Term], cols: &[usize]) -> u64 {
    let mut hasher = Fx::default().build_hasher();
    for &c in cols {
        row[c].hash(&mut hasher);
    }
    hasher.finish()
}

/// Hash the `build` batch on `build_cols`, probe with the `probe` batch on
/// `probe_cols`, and call `on_match(build_row, probe_row)` for every
/// matching pair in probe-major order, each probe row's build rows
/// ascending. One [`Chains`] table serves every key width, in two
/// allocations; a slot is confirmed on its head build row's key columns.
fn hash_join(
    build: &Batch,
    probe: &Batch,
    build_cols: &[usize],
    probe_cols: &[usize],
    mut on_match: impl FnMut(usize, usize),
) {
    let built = |b: u32| build.row(b as usize);
    // Does build row `head` carry the key `cols` pick from `row`?
    let carries = |head, row: &[Term], cols: &[usize]| {
        let head = built(head);
        build_cols.iter().zip(cols).all(|(&b, &c)| head[b] == row[c])
    };
    let hash = |i| key_hash(built(i), build_cols);
    let chains = Chains::new(build.len, hash, |head, i| carries(head, built(i), build_cols));
    for (p, row) in probe.rows().enumerate() {
        for b in chains.matches(key_hash(row, probe_cols), |head| carries(head, row, probe_cols)) {
            on_match(b, p);
        }
    }
}

fn eval(
    plan: &PhysicalPlan,
    q: &ConjunctiveQuery,
    inst: &SymbolicInstance,
    xml: &XmlStore,
    nav_tuples: &mut u64,
) -> Result<Batch, XmlStoreError> {
    Ok(match plan {
        PhysicalPlan::TableScan(scan) => {
            let mut out = Batch::new(scan.output.len());
            if let Some(relation) = inst.relation_data(scan.relation) {
                if scan.pushdown.is_empty() {
                    out.data.reserve(relation.len() * out.width);
                }
                // The pushed-down columns are ascending, so they name the
                // persistent index a join step over them would probe.
                let args = &q.body[scan.atom].args;
                let key: Args = scan.pushdown.iter().map(|&c| args[c]).collect();
                relation.any_with_key(&scan.pushdown, &key, |tuple| {
                    if scan.duplicates.iter().all(|(a, b)| tuple[*a] == tuple[*b]) {
                        out.data.extend(scan.output.iter().map(|p| tuple[p.arg]));
                        out.len += 1;
                    }
                    false
                });
            }
            out
        }
        PhysicalPlan::NavScan(scan) => {
            let columns = scan.output.iter().map(|p| p.var(q));
            let (batch, tuples) = NavPlan::compile(&q.body, &scan.atoms, xml)?.execute(columns);
            *nav_tuples += tuples;
            batch
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys: lk,
            right_keys: rk,
            build,
            left_keep,
            right_keep,
            ..
        } => {
            let left_rows = eval(left, q, inst, xml, nav_tuples)?;
            let right_rows = eval(right, q, inst, xml, nav_tuples)?;
            let mut out = Batch::new(left_keep.len() + right_keep.len());
            if left_rows.len == 0 || right_rows.len == 0 {
                return Ok(out);
            }
            // Room for one match per probe row: a key join's output.
            let probed = match build {
                BuildSide::Right => left_rows.len,
                BuildSide::Left => right_rows.len,
            };
            out.data.reserve(probed * out.width);
            let mut emit = |lrow: &[Term], rrow: &[Term]| {
                out.data.extend(left_keep.iter().map(|&c| lrow[c]));
                out.data.extend(right_keep.iter().map(|&c| rrow[c]));
                out.len += 1;
            };
            match build {
                BuildSide::Right => hash_join(&right_rows, &left_rows, rk, lk, |b, p| {
                    emit(left_rows.row(p), right_rows.row(b))
                }),
                BuildSide::Left => hash_join(&left_rows, &right_rows, lk, rk, |b, p| {
                    emit(left_rows.row(b), right_rows.row(p))
                }),
            }
            out
        }
        PhysicalPlan::Filter { input, predicates } => {
            let mut batch = eval(input, q, inst, xml, nav_tuples)?;
            batch.retain(|row| {
                predicates.iter().all(|&(a, b)| resolve(a, row, q) != resolve(b, row, q))
            });
            batch
        }
        PhysicalPlan::Project { input, columns } => {
            let batch = eval(input, q, inst, xml, nav_tuples)?;
            let mut out = Batch::new(columns.len());
            out.data.reserve(columns.len() * batch.len);
            for i in 0..batch.len {
                let row = batch.row(i);
                out.data.extend(columns.iter().map(|&op| resolve(op, row, q)));
                out.len += 1;
            }
            out
        }
        // Rows are a set: the one deduplication (and the output order) is
        // `execute_plan`'s, at the root.
        PhysicalPlan::Distinct { input } => eval(input, q, inst, xml, nav_tuples)?,
    })
}

/// `Distinct` and the join table as they were before the sorted indices and
/// the chained table: a `BTreeSet` of owned rows, and a `Vec` of build rows
/// per key. Kept as the reference the executor is compared with.
#[cfg(test)]
mod reference {
    use super::{Batch, Fx};
    use crate::relational::Row;
    use mars_cq::Term;
    use std::collections::{BTreeSet, HashMap};

    pub fn distinct(batch: &Batch) -> Vec<Row> {
        let rows: BTreeSet<Row> = batch.rows().map(<[Term]>::to_vec).collect();
        rows.into_iter().collect()
    }

    /// The `(build, probe)` pairs of the join, in the order it emits them.
    pub fn hash_join(
        build: &Batch,
        probe: &Batch,
        build_cols: &[usize],
        probe_cols: &[usize],
    ) -> Vec<(usize, usize)> {
        let key =
            |row: &[Term], cols: &[usize]| -> Vec<Term> { cols.iter().map(|&c| row[c]).collect() };
        let mut table: HashMap<Vec<Term>, Vec<u32>, Fx> = HashMap::default();
        for (i, row) in build.rows().enumerate() {
            table.entry(key(row, build_cols)).or_default().push(i as u32);
        }
        let mut pairs = Vec::new();
        for (p, row) in probe.rows().enumerate() {
            for &b in table.get(&key(row, probe_cols)).map_or(&[][..], Vec::as_slice) {
                pairs.push((b as usize, p));
            }
        }
        pairs
    }
}

/// The sorted `Distinct` and the chained join against [`reference`], on
/// random batches of widths 0–4 over a three-term alphabet, so that rows and
/// keys repeat often.
#[cfg(test)]
mod against_reference {
    use super::{distinct, hash_join, key_hash, reference, Batch, Chains};
    use mars_cq::{symbol, Constant, Term, Variable};
    use proptest::prelude::*;

    /// Keys spread over the table: chaining `n` single-term keys with
    /// sequential symbol ids (the ids a document's values get, interned in
    /// order), a key is found within two slots of its home on average. Taking
    /// the hash's top bits as the slot averaged 9.31 at 10 000 keys.
    #[test]
    fn sequential_symbol_keys_probe_at_most_two_slots_on_average() {
        for n in [1_000u32, 2_000, 5_000, 10_000, 20_000, 40_000] {
            let key = |i: u32| [Term::Const(Constant::Str(1_000 + i))];
            let hash = |i: u32| key_hash(&key(i), &[0]);
            let chains = Chains::new(n as usize, hash, |head, i| key(head) == key(i));
            let mask = chains.heads.len() - 1;
            let probes: usize = (0..n)
                .map(|i| {
                    let found = chains.slot(hash(i), |head| key(head) == key(i));
                    assert_eq!(chains.heads[found], i, "each key heads its own chain");
                    (found.wrapping_sub(chains.home(hash(i))) & mask) + 1
                })
                .sum();
            let mean = probes as f64 / f64::from(n);
            assert!(mean <= 2.0, "{n} keys: mean probe {mean:.2}");
        }
    }

    fn below(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// Every kind of term, with ties for `order_key`: two variables of one
    /// name, and nodes of one document within eight slots;
    /// nodes of two documents, so the document orders before the slot.
    fn batch(rng: &mut TestRng, width: usize, len: usize) -> Batch {
        let v = Variable::named("v");
        let node = |doc: &str, id| Term::Const(Constant::node(symbol(doc), id));
        let alphabet = [
            Term::constant_str("a"),
            Term::constant_str("b"),
            Term::Var(v),
            Term::Var(Variable { index: 1, ..v }),
            Term::constant_int(-3),
            Term::constant_int(7),
            Term::Const(Constant::Param(0)),
            node("order_key_a.xml", 3),
            node("order_key_a.xml", 5),
            node("order_key_a.xml", 9),
            node("order_key_a.xml", u32::MAX),
            node("order_key_b.xml", 0),
            node("order_key_b.xml", 4),
        ];
        let mut batch = Batch::new(width);
        batch.data = (0..width * len).map(|_| alphabet[below(rng, alphabet.len())]).collect();
        batch.len = len;
        batch
    }

    #[test]
    fn a_width_zero_batch_has_one_empty_row() {
        assert_eq!(distinct(&Batch { width: 0, len: 5, data: Vec::new() }), vec![Vec::new()]);
        assert!(distinct(&Batch::new(0)).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sorted_distinct_equals_btreeset_collection(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let (width, len) = (below(&mut rng, 5), below(&mut rng, 40));
            let batch = batch(&mut rng, width, len);
            prop_assert_eq!(distinct(&batch), reference::distinct(&batch));
        }

        #[test]
        fn chained_join_emits_the_vec_per_key_pairs(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let keys = 1 + below(&mut rng, 3);
            let (build_width, probe_width) = (keys + below(&mut rng, 2), keys + below(&mut rng, 2));
            let (build_len, probe_len) = (below(&mut rng, 30), below(&mut rng, 30));
            let build = batch(&mut rng, build_width, build_len);
            let probe = batch(&mut rng, probe_width, probe_len);
            let build_cols: Vec<usize> = (0..keys).map(|_| below(&mut rng, build_width)).collect();
            let probe_cols: Vec<usize> = (0..keys).map(|_| below(&mut rng, probe_width)).collect();
            let mut pairs = Vec::new();
            hash_join(&build, &probe, &build_cols, &probe_cols, |b, p| pairs.push((b, p)));
            prop_assert_eq!(pairs, reference::hash_join(&build, &probe, &build_cols, &probe_cols));
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use crate::RelationalDatabase;
    use mars_cq::{Atom, ConjunctiveQuery, Predicate, Term};

    /// `r(k<i>, g<i mod 7>, x<i mod 3>, h<i mod 5>)` with `n` rows.
    fn database(n: usize) -> RelationalDatabase {
        let mut db = RelationalDatabase::new();
        for i in 0..n {
            let row = [
                format!("k{i}"),
                format!("g{}", i % 7),
                format!("x{}", i % 3),
                format!("h{}", i % 5),
            ];
            db.insert_strs("r", &row.iter().map(String::as_str).collect::<Vec<_>>());
        }
        db
    }

    fn lookup(args: Vec<Term>) -> ConjunctiveQuery {
        ConjunctiveQuery::new("Q").with_head(vec![Term::var("v")]).with_atom(Atom::named("r", args))
    }

    fn builds(db: &RelationalDatabase) -> usize {
        db.inst.relation_data(Predicate::new("r")).unwrap().index_builds()
    }

    /// A pushed-down scan follows the chase's access-path rule: a relation
    /// over `SCAN_THRESHOLD` rows is probed through one persistent index,
    /// built on the first lookup; a smaller one is scanned and builds none;
    /// and the rows are the naive evaluator's either way.
    #[test]
    fn pushed_down_scans_probe_a_persistent_index_above_the_scan_threshold() {
        let db = database(1_000);
        for i in (0..1_000).step_by(10) {
            let key = Term::constant_str(&format!("k{i}"));
            let q = lookup(vec![key, Term::var("v"), Term::var("a"), Term::var("b")]);
            assert_eq!(db.query(&q), vec![vec![Term::constant_str(&format!("g{}", i % 7))]]);
        }
        assert_eq!(builds(&db), 1, "100 lookups on one column build its index once");

        let small = database(mars_chase::SCAN_THRESHOLD);
        let q =
            lookup(vec![Term::constant_str("k3"), Term::var("v"), Term::var("a"), Term::var("b")]);
        assert_eq!(small.query(&q), vec![vec![Term::constant_str("g3")]]);
        assert_eq!(builds(&small), 0, "a relation of at most SCAN_THRESHOLD rows builds no index");

        let q = lookup(vec![
            Term::var("v"),
            Term::constant_str("g2"),
            Term::var("a"),
            Term::constant_str("h4"),
        ]);
        let text = db.plan(&q).display(&q).to_string();
        assert!(text.contains("pushdown=[c1='g2', c3='h4']"), "two pushed columns:\n{text}");
        let rows = db.query(&q);
        assert_eq!(rows.len(), 1_000 / 35 + 1, "every 35th row carries g2 and h4");
        assert_eq!(builds(&db), 2, "the two columns have an index of their own");
        assert_eq!(rows, db.query_naive(&q));
    }
}
