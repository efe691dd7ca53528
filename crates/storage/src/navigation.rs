//! The native navigation kernel: a conjunction of GReX navigation atoms
//! compiled once into steps and run over the executor's row `Batch`.
//!
//! `NavPlan::compile` takes a `NavScan` leaf's atoms (body indices of the
//! query being run) in the order the planner
//! ([`mars_cost::physical_plan`]) chose for them — the order the leaf's
//! estimate prices — and resolves every atom's access path at compile time
//! from what is bound when it runs:
//!
//! | atom, bound arguments | step | enumerates |
//! |---|---|---|
//! | `root(n)` | `Root` | the root (binds or checks) |
//! | `el(n)`, `tag(n, t)` with `n` free | `Elements{tag}` | all elements / the by-tag bucket |
//! | `child(p, c)`, `p` bound | `Children{tag}` | `p`'s slice of the child array, tags beside |
//! | `child(p, c)`, `c` bound | `Parent` | `c`'s entry of the parent array (binds or checks) |
//! | `desc(a, d)`, `a` bound | `Descendants{tag}` | a preorder slice / a sub-slice of the by-tag bucket |
//! | `desc(a, d)`, `d` bound | `Ancestors{tag}` | `d`'s ancestor chain, up the parent array |
//! | `desc(a, d)`, both bound | `IsDescendant` | two rank comparisons |
//! | `id(a, b)`; `el(n)`, `n` bound but not as an element of the document | `Same` | the node itself (binds or checks) |
//! | `tag(n, t)`, `n` bound | `TagOf` | `n`'s tag (binds or checks — `TagCheck`) |
//! | `text(n, v)`, `n` bound | `TextOf` | `n`'s text (binds or checks) |
//! | `text(n, v)`, `v` bound | `TextProbe{tag}` | the by-text / by-(tag, text) bucket |
//! | `attr(n, a, v)` | `AttrOf` | `n`'s attributes |
//!
//! An atom with nothing bound is seeded by `Elements` on its node argument
//! first. `{tag}` is **tag pushdown**: when a step binds a node that a later
//! `tag(n, "c")` atom constrains, that atom is fused into the step, which
//! then enumerates through the matching index (or rejects candidates before
//! a row is written) and the atom's own step disappears.
//!
//! Every variable is one [`Term`] slot of the row, and a node is the typed
//! constant (`Constant::Node`) its document's index builds from the arena
//! slot, as in the encoded facts: `NavPlan::execute` only projects columns.
//! A step reads a node operand through its document's index
//! (`DocIndex::node`, a document check); a value, or a node of another
//! document, has no element there and drops the row. Only a step over that
//! index puts a node in a slot, and a node constant of the query is checked
//! to be an element when it is compiled.
//!
//! Every step rewrites the batch in place, compacting survivors down over
//! dropped rows, as long as each row yields at most one row. The steps that
//! bind or check one value per row (`Root`, `Parent`, `Same`,
//! `IsDescendant`, `TagOf`, `TextOf`) always do. The enumerating ones
//! (`Elements`, `Children`, `Descendants`, `Ancestors`, `TextProbe`) read
//! their candidates straight from the index's slices and bind in place until
//! they meet the first row with two matches; from that row on they expand
//! into a new batch, reserved up front, which replaces the old one. `AttrOf`
//! always writes a new batch. Either way rows keep the order of the rows
//! they came from, candidates in index order, so the rows and the tuples
//! counted are those of a kernel that writes a new batch at every
//! enumerating step (`reference`, kept for the tests).

use crate::doc_index::{symbol, DocIndex};
use crate::executor::Batch;
use crate::xml_engine::{XmlStore, XmlStoreError};
use mars_cq::{Atom, Constant, NavBase, Term, Variable};
use mars_xml::{Document, NodeId};

/// A bound operand: a slot of the row, or a constant of the query (in a
/// node position, resolved to an element of its document at compile time).
#[derive(Clone, Copy, PartialEq)]
enum In {
    Slot(usize),
    Const(Term),
}

impl In {
    fn get(self, row: &[Term]) -> Term {
        match self {
            In::Slot(s) => row[s],
            In::Const(t) => t,
        }
    }

    /// The node of `index`'s document the operand holds, if it holds one.
    fn node(self, row: &[Term], index: &DocIndex) -> Option<NodeId> {
        index.node(self.get(row))
    }
}

/// What a step does with a term it produces: bind a free slot, or compare
/// with an operand that is already bound.
#[derive(Clone, Copy)]
enum Out {
    Bind(usize),
    Check(In),
}

impl Out {
    fn put(self, row: &mut [Term], t: Term) -> bool {
        match self {
            Out::Bind(s) => {
                row[s] = t;
                true
            }
            Out::Check(c) => c.get(row) == t,
        }
    }
}

/// One compiled navigation step (see the module table). `doc` indexes
/// [`NavPlan::docs`]; `out` is the slot an enumerating step binds.
enum Step {
    Elements { doc: usize, out: usize, tag: Option<In> },
    Children { doc: usize, parent: In, out: usize, tag: Option<In> },
    Descendants { doc: usize, ancestor: In, out: usize, tag: Option<In> },
    Ancestors { doc: usize, descendant: In, out: usize, tag: Option<In> },
    TextProbe { doc: usize, value: In, out: usize, tag: Option<In> },
    AttrOf { doc: usize, node: In, name: Out, value: Out },
    Root { doc: usize, node: Out },
    Parent { doc: usize, child: In, parent: Out },
    Same { doc: usize, from: In, to: Out },
    IsDescendant { doc: usize, ancestor: In, descendant: In },
    TagOf { doc: usize, node: In, tag: Out },
    TextOf { doc: usize, node: In, value: Out },
}

/// An argument as the compiler sees it when its atom runs.
#[derive(Clone, Copy)]
enum Arg {
    Bound(In),
    Free(usize),
}

/// What the steps compiled so far put in a slot.
#[derive(Clone, Copy, PartialEq)]
enum Held {
    Nothing,
    Value,
    /// An element of a document (an index into [`NavPlan::docs`]).
    Element(usize),
}

impl Batch {
    /// Append row `i` of `from` with slot `slot` bound to `t`.
    fn push_bound(&mut self, from: &Batch, i: usize, slot: usize, t: Term) {
        let at = self.data.len();
        self.data.extend_from_slice(from.row(i));
        self.data[at + slot] = t;
        self.len += 1;
    }

    /// Run an enumerating step. `candidates` yields, for a row, one item per
    /// candidate tuple the step enumerates: the node to bind slot `out` to,
    /// or `None` for a candidate it rejects (a fused tag that differs).
    /// While each row has at most one match the batch is rewritten in
    /// place, compacted as [`Batch::retain`] does; from the first row with
    /// two, the rest expands into a new batch reserved up front. Returns the
    /// candidate tuples.
    fn expand<I>(&mut self, out: usize, mut candidates: impl FnMut(&[Term]) -> I) -> u64
    where
        I: Iterator<Item = Option<Term>>,
    {
        let width = self.width;
        let (mut tuples, mut kept) = (0, 0);
        for i in 0..self.len {
            let (mut seen, mut found, mut two) = (0, None, false);
            for candidate in candidates(self.row(i)) {
                seen += 1;
                if let Some(t) = candidate {
                    two = found.is_some();
                    if two {
                        break;
                    }
                    found = Some(t);
                }
            }
            if two {
                return tuples + self.expand_from(i, kept, out, candidates);
            }
            tuples += seen;
            let Some(t) = found else { continue };
            if kept != i {
                self.data.copy_within(i * width..(i + 1) * width, kept * width);
            }
            self.data[kept * width + out] = t;
            kept += 1;
        }
        self.truncate(kept);
        tuples
    }

    /// [`Batch::expand`] from row `at` on, the first `kept` rows already
    /// bound in place: they and every match of the remaining rows are
    /// written to a new batch, which replaces this one.
    fn expand_from<I>(
        &mut self,
        at: usize,
        kept: usize,
        out: usize,
        mut candidates: impl FnMut(&[Term]) -> I,
    ) -> u64
    where
        I: Iterator<Item = Option<Term>>,
    {
        // Row `at`'s candidates, and two matches for every later row.
        let first = candidates(self.row(at)).size_hint();
        let room = kept + first.1.unwrap_or(first.0) + 2 * (self.len - at - 1);
        let mut next = Batch::new(self.width);
        next.data.reserve(room * self.width);
        next.data.extend_from_slice(&self.data[..kept * self.width]);
        next.len = kept;
        let mut tuples = 0;
        for i in at..self.len {
            for candidate in candidates(self.row(i)) {
                tuples += 1;
                if let Some(t) = candidate {
                    next.push_bound(self, i, out, t);
                }
            }
        }
        *self = next;
        tuples
    }
}

/// A compiled navigation plan over the documents of one [`XmlStore`].
pub(crate) struct NavPlan<'s> {
    docs: Vec<(&'s Document, &'s DocIndex)>,
    steps: Vec<Step>,
    /// `false` when a constant in a node position denotes no element of its
    /// document: no binding can exist and nothing runs.
    satisfiable: bool,
    /// The variable of each slot of a row.
    slots: Vec<Variable>,
}

/// Compilation state: the plan under construction plus what is bound so far.
struct Compiler<'a, 's> {
    plan: NavPlan<'s>,
    atoms: Vec<&'a Atom>,
    /// Base and document (an index into `plan.docs`) per atom.
    parsed: Vec<(NavBase, usize)>,
    /// Tag atoms fused into the step that binds their node.
    fused: Vec<bool>,
    /// What each slot holds once the steps emitted so far have run.
    held: Vec<Held>,
}

impl<'s> NavPlan<'s> {
    /// Compile the atoms of `body` that `order` indexes, in that order,
    /// against the documents of `xml`.
    ///
    /// # Errors
    ///
    /// [`XmlStoreError::NotNavigable`] for an atom that is not GReX
    /// navigation, [`XmlStoreError::MissingDocument`] for navigation over a
    /// document the store does not hold.
    pub(crate) fn compile(
        body: &[Atom],
        order: &[usize],
        xml: &'s XmlStore,
    ) -> Result<NavPlan<'s>, XmlStoreError> {
        let atoms: Vec<&Atom> = order.iter().map(|&i| &body[i]).collect();
        let mut docs: Vec<(&Document, &DocIndex)> = Vec::new();
        let mut parsed = Vec::with_capacity(atoms.len());
        let mut slots = Vec::new();
        for atom in &atoms {
            let (base, document) = atom
                .navigation()
                .ok_or(XmlStoreError::NotNavigable { predicate: atom.predicate })?;
            let doc = match docs.iter().position(|(d, _)| d.name == document) {
                Some(doc) => doc,
                None => {
                    docs.push(xml.indexed(document).ok_or_else(|| {
                        XmlStoreError::MissingDocument { document: document.to_string() }
                    })?);
                    docs.len() - 1
                }
            };
            parsed.push((base, doc));
            for v in atom.args.iter().filter_map(Term::as_var) {
                if !slots.contains(&v) {
                    slots.push(v);
                }
            }
        }
        let mut compiler = Compiler {
            held: vec![Held::Nothing; slots.len()],
            plan: NavPlan { docs, steps: Vec::new(), satisfiable: true, slots },
            fused: vec![false; atoms.len()],
            atoms,
            parsed,
        };
        for at in 0..compiler.atoms.len() {
            if !compiler.fused[at] && compiler.atom(at).is_none() {
                compiler.plan.satisfiable = false;
                break;
            }
        }
        Ok(compiler.plan)
    }

    /// The slot of variable `v`.
    fn slot(&self, v: Variable) -> Option<usize> {
        self.slots.iter().position(|&w| w == v)
    }

    /// The batch the steps start from: one row of placeholders, none when
    /// the plan is unsatisfiable. The compiler never emits a read of a slot
    /// before the step that binds it.
    fn start(&self) -> Batch {
        let mut rows = Batch::new(self.slots.len());
        if self.satisfiable {
            rows.data = vec![Term::Const(Constant::Param(0)); rows.width];
            rows.len = 1;
        }
        rows
    }

    /// Run the plan. Returns the surviving bindings and the number of
    /// candidate tuples enumerated on the way: per step, one per input row
    /// for an in-place step, one per candidate for an enumerating one.
    fn run(&self) -> (Batch, u64) {
        let mut rows = self.start();
        let mut tuples = 0u64;
        for step in &self.steps {
            if rows.len == 0 {
                break;
            }
            tuples += self.step(step, &mut rows);
        }
        (rows, tuples)
    }

    /// Run one step over `rows`, returning the candidate tuples it
    /// enumerated.
    fn step(&self, step: &Step, rows: &mut Batch) -> u64 {
        let in_place = rows.len as u64;
        let nodes = |index: &'s DocIndex, found: &'s [NodeId]| {
            found.iter().map(move |&n| Some(index.node_term(n)))
        };
        match *step {
            Step::Elements { doc, out, tag } => {
                let index = self.docs[doc].1;
                rows.expand(out, |row| {
                    let found = match tag {
                        Some(t) => index.with_tag(t.get(row)),
                        None => index.elements(),
                    };
                    nodes(index, found)
                })
            }
            Step::Children { doc, parent, out, tag } => {
                let index = self.docs[doc].1;
                rows.expand(out, |row| {
                    // A tag that is not a string matches no child.
                    let tag = tag.map(|t| symbol(t.get(row)).unwrap_or(u32::MAX));
                    let children = parent.node(row, index).map_or(&[][..], |p| index.children(p));
                    children.iter().map(move |&(c, t)| {
                        tag.is_none_or(|tag| tag == t).then(|| index.node_term(c))
                    })
                })
            }
            Step::Descendants { doc, ancestor, out, tag } => {
                let index = self.docs[doc].1;
                rows.expand(out, |row| {
                    let found = match (ancestor.node(row, index), tag) {
                        (None, _) => &[][..],
                        (Some(a), Some(t)) => index.descendants_with_tag(a, t.get(row)),
                        (Some(a), None) => index.descendants_or_self(a),
                    };
                    nodes(index, found)
                })
            }
            Step::Ancestors { doc, descendant, out, tag } => {
                let index = self.docs[doc].1;
                rows.expand(out, |row| {
                    let tag = tag.map(|t| t.get(row));
                    // desc is descendant-or-self: the walk starts at the node.
                    let chain =
                        std::iter::successors(descendant.node(row, index), |&a| index.parent(a));
                    chain.map(move |a| {
                        tag.is_none_or(|t| index.tag_term(a) == t).then(|| index.node_term(a))
                    })
                })
            }
            Step::TextProbe { doc, value, out, tag } => {
                let index = self.docs[doc].1;
                rows.expand(out, |row| {
                    let found = match tag {
                        Some(t) => index.with_tag_and_text(t.get(row), value.get(row)),
                        None => index.with_text(value.get(row)),
                    };
                    nodes(index, found)
                })
            }
            Step::AttrOf { doc, node, name, value } => {
                let index = self.docs[doc].1;
                let mut next = Batch::new(rows.width);
                let mut tuples = 0;
                for row in rows.rows() {
                    let attributes = node.node(row, index).map_or(&[][..], |n| index.attributes(n));
                    for &(a, v) in attributes {
                        tuples += 1;
                        // Written first, checked after: `value` may compare
                        // against the slot `name` has just bound.
                        let written = next.data.len();
                        next.data.extend_from_slice(row);
                        let bound = &mut next.data[written..];
                        if name.put(bound, a) && value.put(bound, v) {
                            next.len += 1;
                        } else {
                            next.data.truncate(written);
                        }
                    }
                }
                *rows = next;
                tuples
            }
            Step::Root { doc, node } => {
                let (document, index) = self.docs[doc];
                let root = document.root().map(|r| index.node_term(r));
                rows.retain(|row| root.is_some_and(|r| node.put(row, r)));
                in_place
            }
            Step::Parent { doc, child, parent } => {
                let index = self.docs[doc].1;
                rows.retain(|row| {
                    let p = child.node(row, index).and_then(|c| index.parent(c));
                    p.is_some_and(|p| parent.put(row, index.node_term(p)))
                });
                in_place
            }
            Step::Same { doc, from, to } => {
                let index = self.docs[doc].1;
                rows.retain(|row| from.node(row, index).is_some() && to.put(row, from.get(row)));
                in_place
            }
            Step::IsDescendant { doc, ancestor, descendant } => {
                let index = self.docs[doc].1;
                rows.retain(|row| match (ancestor.node(row, index), descendant.node(row, index)) {
                    (Some(a), Some(d)) => index.is_descendant_or_self(a, d),
                    _ => false,
                });
                in_place
            }
            Step::TagOf { doc, node, tag } => {
                let index = self.docs[doc].1;
                rows.retain(|row| {
                    node.node(row, index).is_some_and(|n| tag.put(row, index.tag_term(n)))
                });
                in_place
            }
            Step::TextOf { doc, node, value } => {
                let index = self.docs[doc].1;
                rows.retain(|row| {
                    let text = node.node(row, index).and_then(|n| index.text_term(n));
                    text.is_some_and(|t| value.put(row, t))
                });
                in_place
            }
        }
    }

    /// Run the plan and project `columns` (variables the plan binds) out of
    /// its rows. Also returns the candidate tuples enumerated.
    pub(crate) fn execute(&self, columns: impl Iterator<Item = Variable>) -> (Batch, u64) {
        let (rows, tuples) = self.run();
        let columns: Vec<usize> = columns
            .map(|v| self.slot(v).expect("projected columns are variables the plan binds"))
            .collect();
        let mut out = Batch::new(columns.len());
        out.data.reserve(columns.len() * rows.len);
        out.data.extend(rows.rows().flat_map(|row| columns.iter().map(|&c| row[c])));
        out.len = rows.len;
        (out, tuples)
    }
}

impl Compiler<'_, '_> {
    /// Resolve an argument: a constant is bound, a variable bound once a
    /// step has bound its slot.
    fn arg(&self, t: Term) -> Arg {
        let Term::Var(v) = t else { return Arg::Bound(In::Const(t)) };
        let slot = self.plan.slot(v).expect("every variable of the atoms has a slot");
        if self.held[slot] == Held::Nothing {
            Arg::Free(slot)
        } else {
            Arg::Bound(In::Slot(slot))
        }
    }

    /// Resolve a node-position argument. `None`: a constant that denotes no
    /// element of `doc`, so the atom — and the plan — matches nothing.
    fn node_arg(&self, t: Term, doc: usize) -> Option<Arg> {
        if t.is_const() {
            self.plan.docs[doc].1.node_of(t)?;
        }
        Some(self.arg(t))
    }

    /// Whether a node operand of an atom over `doc` is known to hold an
    /// element of `doc`: a constant passed [`Compiler::node_arg`]'s check.
    fn is_element(&self, n: In, doc: usize) -> bool {
        match n {
            In::Const(_) => true,
            In::Slot(s) => self.held[s] == Held::Element(doc),
        }
    }

    /// Record that a step binds `slot` to an element of `doc`.
    fn bind(&mut self, slot: usize, doc: usize) -> usize {
        self.held[slot] = Held::Element(doc);
        slot
    }

    /// What a step producing an element of `doc` does with `arg`.
    fn node_out(&mut self, arg: Arg, doc: usize) -> Out {
        match arg {
            Arg::Bound(n) => Out::Check(n),
            Arg::Free(slot) => Out::Bind(self.bind(slot, doc)),
        }
    }

    /// What a step producing a value does with the argument `t`.
    fn value_out(&mut self, t: Term) -> Out {
        match self.arg(t) {
            Arg::Bound(v) => Out::Check(v),
            Arg::Free(slot) => {
                self.held[slot] = Held::Value;
                Out::Bind(slot)
            }
        }
    }

    /// Tag pushdown: claim a later `tag(t, "c")` atom over `doc` for the
    /// step about to bind the free variable `t`.
    fn fuse_tag(&mut self, t: Term, doc: usize, at: usize) -> Option<In> {
        let later = (at + 1..self.atoms.len()).find(|&j| {
            let tag = &self.atoms[j];
            !self.fused[j]
                && self.parsed[j] == (NavBase::Tag, doc)
                && tag.args[0] == t
                && tag.args[1].is_const()
        })?;
        self.fused[later] = true;
        Some(In::Const(self.atoms[later].args[1]))
    }

    /// Make a node argument bound, enumerating all elements into it if free.
    fn seeded(&mut self, arg: Arg, t: Term, doc: usize, at: usize) -> In {
        match arg {
            Arg::Bound(n) => n,
            Arg::Free(out) => {
                let tag = self.fuse_tag(t, doc, at);
                let out = self.bind(out, doc);
                self.plan.steps.push(Step::Elements { doc, out, tag });
                In::Slot(out)
            }
        }
    }

    /// Emit the steps of the atom at position `at`. `None` when the atom can
    /// match nothing (see [`Compiler::node_arg`]).
    fn atom(&mut self, at: usize) -> Option<()> {
        let (base, doc) = self.parsed[at];
        let atom = self.atoms[at];
        let args = &atom.args;
        let (t0, t1) = (args[0], args.get(1).copied());
        let first = self.node_arg(t0, doc)?;
        let step = match base {
            NavBase::Root => Step::Root { doc, node: self.node_out(first, doc) },
            // `el(n)` is `id(n, n)`: only a bound `n` not yet known to be an
            // element of `doc` needs a check.
            NavBase::El => match first {
                Arg::Bound(n) if !self.is_element(n, doc) => {
                    Step::Same { doc, from: n, to: Out::Check(n) }
                }
                _ => {
                    self.seeded(first, t0, doc, at);
                    return Some(());
                }
            },
            NavBase::Child | NavBase::Desc | NavBase::Id => {
                let t1 = t1.expect("arity checked by Atom::navigation");
                let mut second = self.node_arg(t1, doc)?;
                // The cheap direction of an edge with one bound end.
                if let (Arg::Free(out), Arg::Bound(bound)) = (first, second) {
                    let step = match base {
                        NavBase::Child => {
                            Step::Parent { doc, child: bound, parent: Out::Bind(out) }
                        }
                        NavBase::Desc => {
                            let tag = self.fuse_tag(t0, doc, at);
                            Step::Ancestors { doc, descendant: bound, out, tag }
                        }
                        _ => Step::Same { doc, from: bound, to: Out::Bind(out) },
                    };
                    self.bind(out, doc);
                    self.plan.steps.push(step);
                    return Some(());
                }
                let from = self.seeded(first, t0, doc, at);
                // `p(x, x)` with `x` free: the seed has just bound it.
                if matches!(second, Arg::Free(s) if from == In::Slot(s)) {
                    second = Arg::Bound(from);
                }
                match (base, second) {
                    (NavBase::Child, Arg::Bound(c)) => {
                        Step::Parent { doc, child: c, parent: Out::Check(from) }
                    }
                    (NavBase::Child, Arg::Free(out)) => {
                        let tag = self.fuse_tag(t1, doc, at);
                        Step::Children { doc, parent: from, out: self.bind(out, doc), tag }
                    }
                    (NavBase::Desc, Arg::Bound(d)) => {
                        Step::IsDescendant { doc, ancestor: from, descendant: d }
                    }
                    (NavBase::Desc, Arg::Free(out)) => {
                        let tag = self.fuse_tag(t1, doc, at);
                        Step::Descendants { doc, ancestor: from, out: self.bind(out, doc), tag }
                    }
                    (_, second) => Step::Same { doc, from, to: self.node_out(second, doc) },
                }
            }
            NavBase::Tag => {
                let t1 = t1.expect("arity checked by Atom::navigation");
                match (first, self.arg(t1)) {
                    // The by-tag bucket is the atom's whole answer.
                    (Arg::Free(out), Arg::Bound(tag)) => {
                        Step::Elements { doc, out: self.bind(out, doc), tag: Some(tag) }
                    }
                    _ => {
                        let node = self.seeded(first, t0, doc, at);
                        Step::TagOf { doc, node, tag: self.value_out(t1) }
                    }
                }
            }
            NavBase::Text => {
                let t1 = t1.expect("arity checked by Atom::navigation");
                match (first, self.arg(t1)) {
                    (Arg::Free(out), Arg::Bound(value)) => {
                        let tag = self.fuse_tag(t0, doc, at);
                        Step::TextProbe { doc, value, out: self.bind(out, doc), tag }
                    }
                    _ => {
                        let node = self.seeded(first, t0, doc, at);
                        Step::TextOf { doc, node, value: self.value_out(t1) }
                    }
                }
            }
            NavBase::Attr => {
                let node = self.seeded(first, t0, doc, at);
                // Resolved in argument order: `attr(n, v, v)` binds `v` to
                // the name and checks the value against it.
                let name = self.value_out(args[1]);
                let value = self.value_out(args[2]);
                Step::AttrOf { doc, node, name, value }
            }
        };
        self.plan.steps.push(step);
        Some(())
    }
}

/// The batch kernel as it was before in-place expansion: every enumerating
/// step copies each of its output rows into a new batch, `Children` walks
/// the document's sibling links, and `Parent` / `Ancestors` read a node view
/// of the document per row. Kept as the reference the kernel is compared
/// with.
#[cfg(test)]
mod reference {
    use super::{Batch, DocIndex, In, NavPlan, Step};
    use mars_cq::Term;
    use mars_xml::NodeId;

    pub(super) fn run(plan: &NavPlan<'_>) -> (Batch, u64) {
        let mut rows = plan.start();
        let mut tuples = 0u64;
        for step in &plan.steps {
            if rows.len == 0 {
                break;
            }
            rows = run_step(plan, step, rows, &mut tuples);
        }
        (rows, tuples)
    }

    fn run_step(plan: &NavPlan<'_>, step: &Step, mut rows: Batch, tuples: &mut u64) -> Batch {
        // Enumerating steps fill `next`; in-place steps return `rows`.
        let mut next = Batch::new(rows.width);
        let has_tag = |index: &DocIndex, tag: Option<In>, row: &[Term], n: NodeId| {
            tag.is_none_or(|t| index.tag_term(n) == t.get(row))
        };
        match *step {
            Step::Elements { doc, out, tag } => {
                let index = plan.docs[doc].1;
                for i in 0..rows.len {
                    let found = match tag {
                        Some(t) => index.with_tag(t.get(rows.row(i))),
                        None => index.elements(),
                    };
                    *tuples += found.len() as u64;
                    for &n in found {
                        next.push_bound(&rows, i, out, index.node_term(n));
                    }
                }
            }
            Step::Children { doc, parent, out, tag } => {
                let (document, index) = plan.docs[doc];
                for i in 0..rows.len {
                    let Some(p) = parent.node(rows.row(i), index) else { continue };
                    for c in document.child_elements(p) {
                        *tuples += 1;
                        if has_tag(index, tag, rows.row(i), c) {
                            next.push_bound(&rows, i, out, index.node_term(c));
                        }
                    }
                }
            }
            Step::Descendants { doc, ancestor, out, tag } => {
                let index = plan.docs[doc].1;
                for i in 0..rows.len {
                    let Some(a) = ancestor.node(rows.row(i), index) else { continue };
                    let found = match tag {
                        Some(t) => index.descendants_with_tag(a, t.get(rows.row(i))),
                        None => index.descendants_or_self(a),
                    };
                    *tuples += found.len() as u64;
                    for &d in found {
                        next.push_bound(&rows, i, out, index.node_term(d));
                    }
                }
            }
            Step::Ancestors { doc, descendant, out, tag } => {
                let (document, index) = plan.docs[doc];
                for i in 0..rows.len {
                    // desc is descendant-or-self: the walk starts at the node.
                    let mut at = descendant.node(rows.row(i), index);
                    while let Some(a) = at {
                        *tuples += 1;
                        if has_tag(index, tag, rows.row(i), a) {
                            next.push_bound(&rows, i, out, index.node_term(a));
                        }
                        at = document.node(a).parent;
                    }
                }
            }
            Step::TextProbe { doc, value, out, tag } => {
                let index = plan.docs[doc].1;
                for i in 0..rows.len {
                    let row = rows.row(i);
                    let found = match tag {
                        Some(t) => index.with_tag_and_text(t.get(row), value.get(row)),
                        None => index.with_text(value.get(row)),
                    };
                    *tuples += found.len() as u64;
                    for &n in found {
                        next.push_bound(&rows, i, out, index.node_term(n));
                    }
                }
            }
            Step::AttrOf { doc, node, name, value } => {
                let index = plan.docs[doc].1;
                for row in rows.rows() {
                    let Some(n) = node.node(row, index) else { continue };
                    for &(a, v) in index.attributes(n) {
                        *tuples += 1;
                        // Written first, checked after: `value` may compare
                        // against the slot `name` has just bound.
                        let written = next.data.len();
                        next.data.extend_from_slice(row);
                        let bound = &mut next.data[written..];
                        if name.put(bound, a) && value.put(bound, v) {
                            next.len += 1;
                        } else {
                            next.data.truncate(written);
                        }
                    }
                }
            }
            Step::Root { doc, node } => {
                let (document, index) = plan.docs[doc];
                let root = document.root().map(|r| index.node_term(r));
                *tuples += rows.len as u64;
                rows.retain(|row| root.is_some_and(|r| node.put(row, r)));
                return rows;
            }
            Step::Parent { doc, child, parent } => {
                let (document, index) = plan.docs[doc];
                *tuples += rows.len as u64;
                rows.retain(|row| {
                    let p = child.node(row, index).and_then(|c| document.node(c).parent);
                    p.is_some_and(|p| parent.put(row, index.node_term(p)))
                });
                return rows;
            }
            Step::Same { doc, from, to } => {
                let index = plan.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|row| from.node(row, index).is_some() && to.put(row, from.get(row)));
                return rows;
            }
            Step::IsDescendant { doc, ancestor, descendant } => {
                let index = plan.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|row| match (ancestor.node(row, index), descendant.node(row, index)) {
                    (Some(a), Some(d)) => index.is_descendant_or_self(a, d),
                    _ => false,
                });
                return rows;
            }
            Step::TagOf { doc, node, tag } => {
                let index = plan.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|row| {
                    node.node(row, index).is_some_and(|n| tag.put(row, index.tag_term(n)))
                });
                return rows;
            }
            Step::TextOf { doc, node, value } => {
                let index = plan.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|row| {
                    let text = node.node(row, index).and_then(|n| index.text_term(n));
                    text.is_some_and(|t| value.put(row, t))
                });
                return rows;
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::{reference, NavPlan};
    use crate::xml_engine::XmlStore;
    use crate::{BackendRouter, RelationalDatabase, Route};
    use mars_cq::{Atom, ConjunctiveQuery, NavBase, Term};
    use mars_grex::{encode_document, node_constant};
    use mars_xml::{Document, NodeId};
    use proptest::prelude::*;

    const TAGS: [&str; 3] = ["a", "b", "c"];
    const TEXTS: [&str; 2] = ["x", "y"];

    fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
        from[(rng.next_u64() % from.len() as u64) as usize]
    }

    /// Run `body` in `order` through the kernel and the reference; both
    /// must keep the same rows, in the same order, counting the same
    /// candidate tuples. Returns the surviving rows and the tuples.
    fn run_both(xml: &XmlStore, body: &[Atom], order: &[usize]) -> (usize, u64) {
        let plan = NavPlan::compile(body, order, xml).expect("navigation over a stored document");
        let (rows, tuples) = plan.run();
        let (expected, expected_tuples) = reference::run(&plan);
        let context = format!("{body:?} in order {order:?}");
        assert_eq!(rows.len, expected.len, "{context}: row count");
        assert_eq!(rows.data, expected.data, "{context}: slots");
        assert_eq!(tuples, expected_tuples, "{context}: nav_tuples");
        (rows.len, tuples)
    }

    /// A random document of at most depth 4 over three tags: texts repeat,
    /// some split over two text nodes, and some elements carry attributes.
    /// Returns it with its elements.
    fn random_document(rng: &mut TestRng) -> (Document, Vec<NodeId>) {
        let mut doc = Document::new("d.xml");
        let root = doc.create_root(pick(rng, &TAGS));
        let (mut elements, mut open) = (vec![root], vec![(root, 0)]);
        let fanout = 3 + rng.next_u64() % 2;
        while let Some((parent, depth)) = open.pop() {
            for _ in 0..rng.next_u64() % fanout {
                if rng.next_u64().is_multiple_of(3) {
                    doc.add_text(parent, pick(rng, &TEXTS));
                }
                if depth == 3 || elements.len() >= 16 {
                    continue;
                }
                let child = doc.add_element(parent, pick(rng, &TAGS));
                if rng.next_u64().is_multiple_of(4) {
                    doc.set_attribute(child, pick(rng, &["k", "x"]), pick(rng, &TEXTS));
                }
                elements.push(child);
                open.push((child, depth + 1));
            }
        }
        (doc, elements)
    }

    /// A random navigation body over `d.xml`: every base, node and value
    /// variables (some used in both kinds of position), node constants
    /// (one denoting no element) and text constants.
    fn random_body(rng: &mut TestRng, elements: &[NodeId]) -> Vec<Atom> {
        let node = |rng: &mut TestRng| match rng.next_u64() % 16 {
            0..=12 => Term::var(pick(rng, &["n0", "n0", "n1", "n1", "n2"])),
            13 | 14 => node_constant("d.xml", pick(rng, elements)),
            _ => pick(rng, &[node_constant("d.xml", NodeId(999)), Term::var("v0")]),
        };
        let value = |rng: &mut TestRng| match rng.next_u64() % 20 {
            0..=9 => Term::var(pick(rng, &["v0", "v1"])),
            10..=17 => Term::constant_str(pick(rng, &["a", "b", "c", "x", "y", "xy", "k"])),
            _ => Term::var("n1"),
        };
        (0..1 + rng.next_u64() % 6)
            .map(|_| {
                let base = pick(rng, &NavBase::ALL);
                let mut args = vec![node(rng)];
                match base {
                    NavBase::Root | NavBase::El => {}
                    NavBase::Child | NavBase::Desc | NavBase::Id => args.push(node(rng)),
                    NavBase::Tag | NavBase::Text => args.push(value(rng)),
                    NavBase::Attr => args.extend([value(rng), value(rng)]),
                }
                Atom::named(&format!("{}#d.xml", base.name()), args)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The kernel returns the reference's rows, in its order, for the
        /// same candidate tuples, on random documents and bodies run in a
        /// random atom order.
        #[test]
        fn kernel_agrees_with_the_reference(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let (doc, elements) = random_document(&mut rng);
            let mut xml = XmlStore::new();
            xml.add_document(doc);
            let body = random_body(&mut rng, &elements);
            let mut order: Vec<usize> = (0..body.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            run_both(&xml, &body, &order);
        }

        /// The router's forced XML route returns, on the same random
        /// documents and bodies, the rows the relational executor finds in
        /// the document's GReX encoding: an oracle that, unlike the
        /// reference, does not run the steps the kernel's compiler emits.
        #[test]
        fn kernel_agrees_with_the_encoding(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let (doc, elements) = random_document(&mut rng);
            let mut db = RelationalDatabase::new();
            db.load_facts(&encode_document(&doc));
            let mut xml = XmlStore::new();
            xml.add_document(doc);
            let body = random_body(&mut rng, &elements);
            let mut head = Vec::new();
            for &t in body.iter().flat_map(|atom| atom.args.iter()) {
                if t.is_var() && !head.contains(&t) {
                    head.push(t);
                }
            }
            let q = ConjunctiveQuery::new("Q").with_head(head).with_body(body);
            let router = BackendRouter::new(&db, &xml);
            let native = router.execute(&router.plan_forced(&q, Route::Xml));
            let native = native.expect("navigation over a stored document");
            assert_eq!(native.route, Route::Xml, "{q}");
            assert_eq!(native.rows, db.query(&q), "{q}");
        }
    }

    /// `child(x, y)` over items with `counts[i]` children each: the first
    /// row with two candidates falls first, in the middle or last, after
    /// rows the step drops and rows it binds in place.
    #[test]
    fn expansion_starts_at_the_first_row_with_two_candidates() {
        for counts in
            [[2, 1, 1, 1], [1, 0, 2, 1], [0, 1, 1, 2], [1, 1, 0, 3], [0, 0, 2, 0], [1, 0, 1, 0]]
        {
            let mut doc = Document::new("d.xml");
            let root = doc.create_root("r");
            let mut expected = Vec::new();
            for count in counts {
                let item = doc.add_element(root, "item");
                doc.add_text(item, "t");
                for _ in 0..count {
                    expected.push((item, doc.add_leaf(item, "c", "t")));
                }
                doc.add_element(item, "other");
            }
            let mut xml = XmlStore::new();
            xml.add_document(doc);
            let (x, y) = (Term::var("x"), Term::var("y"));
            let body = vec![
                Atom::named("tag#d.xml", vec![x, Term::constant_str("item")]),
                Atom::named("child#d.xml", vec![x, y]),
                Atom::named("tag#d.xml", vec![y, Term::constant_str("c")]),
            ];
            let (rows, tuples) = run_both(&xml, &body, &[0, 1, 2]);
            // Each item enumerates its `c` children, its `other` one and no
            // text node.
            let children: u64 = counts.iter().map(|&c| c + 1).sum();
            assert_eq!((rows, tuples), (expected.len(), counts.len() as u64 + children));
            let plan = NavPlan::compile(&body, &[0, 1, 2], &xml).unwrap();
            let (bound, _) = plan.run();
            let pairs: Vec<(Term, Term)> = bound.rows().map(|row| (row[0], row[1])).collect();
            let node = |n| node_constant("d.xml", n);
            let expected: Vec<(Term, Term)> =
                expected.iter().map(|&(x, y)| (node(x), node(y))).collect();
            assert_eq!(pairs, expected, "{counts:?}");
        }
    }
}
