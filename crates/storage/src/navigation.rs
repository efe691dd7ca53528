//! The native navigation kernel: a conjunction of GReX navigation atoms
//! compiled once into typed steps and run over a flat slot batch.
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
//! | `id(a, b)` | `Same` | the node itself (binds or checks) |
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
//! Slots are typed at compile time: a variable that only ever stands in node
//! positions of one document is a [`NodeId`] slot, everything else a
//! [`Term`] slot; node constants (`Constant::Node`, built from the slot,
//! never looked up) are materialized only by `NavPlan::execute`. The rare
//! variable used both ways is a term slot with `NodeOf` / `TermOf`
//! conversion steps around the atoms that navigate from it.
//!
//! Every step rewrites the batch in place, compacting survivors down over
//! dropped rows, as long as each row yields at most one row. The steps that
//! bind or check one value per row (`Root`, `Parent`, `Same`,
//! `IsDescendant`, `TagOf`, `TextOf`, `NodeOf`, `TermOf`) always do. The
//! enumerating ones (`Elements`, `Children`, `Descendants`, `Ancestors`,
//! `TextProbe`) read their candidates straight from the index's slices and
//! bind in place until they meet the first row with two matches; from that
//! row on they expand into a new batch, reserved up front, which replaces
//! the old one. `AttrOf` always writes a new batch. Either way rows keep the
//! order of the rows they came from, candidates in index order, so the
//! rows and the tuples counted are those of a kernel that writes a new
//! batch at every enumerating step (`reference`, kept for the tests).

use crate::doc_index::{symbol, DocIndex};
use crate::executor::Batch;
use crate::xml_engine::{XmlStore, XmlStoreError};
use mars_cq::{Atom, NavBase, Term, Variable};
use mars_xml::{Document, NodeId};

/// A bound node operand: a slot of the row, or a constant of the query
/// resolved to its element at compile time.
#[derive(Clone, Copy, PartialEq)]
enum NodeIn {
    Slot(usize),
    Const(NodeId),
}

impl NodeIn {
    fn get(self, nodes: &[NodeId]) -> NodeId {
        match self {
            NodeIn::Slot(s) => nodes[s],
            NodeIn::Const(n) => n,
        }
    }
}

/// A bound value operand.
#[derive(Clone, Copy)]
enum ValueIn {
    Slot(usize),
    Const(Term),
}

impl ValueIn {
    fn get(self, values: &[Term]) -> Term {
        match self {
            ValueIn::Slot(s) => values[s],
            ValueIn::Const(t) => t,
        }
    }
}

/// What a step does with a node it produces: bind a free slot, or compare
/// with an operand that is already bound.
#[derive(Clone, Copy)]
enum NodeOut {
    Bind(usize),
    Check(NodeIn),
}

impl NodeOut {
    fn put(self, nodes: &mut [NodeId], n: NodeId) -> bool {
        match self {
            NodeOut::Bind(s) => {
                nodes[s] = n;
                true
            }
            NodeOut::Check(c) => c.get(nodes) == n,
        }
    }
}

/// The value counterpart of [`NodeOut`].
#[derive(Clone, Copy)]
enum ValueOut {
    Bind(usize),
    Check(ValueIn),
}

impl ValueOut {
    fn put(self, values: &mut [Term], t: Term) -> bool {
        match self {
            ValueOut::Bind(s) => {
                values[s] = t;
                true
            }
            ValueOut::Check(c) => c.get(values) == t,
        }
    }
}

/// One compiled navigation step (see the module table). `doc` indexes
/// [`NavPlan::docs`]; `out` is the node slot an enumerating step binds.
enum Step {
    Elements {
        doc: usize,
        out: usize,
        tag: Option<ValueIn>,
    },
    Children {
        doc: usize,
        parent: NodeIn,
        out: usize,
        tag: Option<ValueIn>,
    },
    Descendants {
        doc: usize,
        ancestor: NodeIn,
        out: usize,
        tag: Option<ValueIn>,
    },
    Ancestors {
        doc: usize,
        descendant: NodeIn,
        out: usize,
        tag: Option<ValueIn>,
    },
    TextProbe {
        doc: usize,
        value: ValueIn,
        out: usize,
        tag: Option<ValueIn>,
    },
    AttrOf {
        doc: usize,
        node: NodeIn,
        name: ValueOut,
        value: ValueOut,
    },
    Root {
        doc: usize,
        node: NodeOut,
    },
    Parent {
        doc: usize,
        child: NodeIn,
        parent: NodeOut,
    },
    Same {
        from: NodeIn,
        to: NodeOut,
    },
    IsDescendant {
        doc: usize,
        ancestor: NodeIn,
        descendant: NodeIn,
    },
    TagOf {
        doc: usize,
        node: NodeIn,
        tag: ValueOut,
    },
    TextOf {
        doc: usize,
        node: NodeIn,
        value: ValueOut,
    },
    /// The element a bound term denotes (drops the row if none).
    NodeOf {
        doc: usize,
        term: ValueIn,
        out: usize,
    },
    /// The node constant of a bound element.
    TermOf {
        doc: usize,
        node: NodeIn,
        term: ValueOut,
    },
}

/// Where a variable lives in the batch.
#[derive(Clone, Copy, PartialEq)]
enum Slot {
    Node { slot: usize, doc: usize },
    Value(usize),
}

/// An argument as the compiler sees it when its atom runs.
#[derive(Clone, Copy)]
enum Arg<I> {
    Bound(I),
    Free(usize),
}

/// The binding batch: `len` rows of `node_width` node slots and
/// `value_width` term slots, row-major in two flat allocations. A slot holds
/// a placeholder until the step that binds it has run; the compiler never
/// emits a read before that.
struct Rows {
    node_width: usize,
    value_width: usize,
    len: usize,
    nodes: Vec<NodeId>,
    values: Vec<Term>,
}

impl Rows {
    fn empty(node_width: usize, value_width: usize) -> Rows {
        Rows { node_width, value_width, len: 0, nodes: Vec::new(), values: Vec::new() }
    }

    fn nodes(&self, i: usize) -> &[NodeId] {
        &self.nodes[i * self.node_width..(i + 1) * self.node_width]
    }

    fn values(&self, i: usize) -> &[Term] {
        &self.values[i * self.value_width..(i + 1) * self.value_width]
    }

    /// Append row `i` of `from` with node slot `slot` bound to `node`.
    fn push_bound(&mut self, from: &Rows, i: usize, slot: usize, node: NodeId) {
        let at = self.nodes.len();
        self.nodes.extend_from_slice(from.nodes(i));
        self.nodes[at + slot] = node;
        self.values.extend_from_slice(from.values(i));
        self.len += 1;
    }

    /// Run an at-most-one-output step in place: `step` binds or checks on
    /// the row it is handed and says whether the row survives; survivors are
    /// compacted down over the gaps.
    fn retain(&mut self, mut step: impl FnMut(&mut [NodeId], &mut [Term]) -> bool) {
        let (nw, vw) = (self.node_width, self.value_width);
        let mut kept = 0;
        for i in 0..self.len {
            let nodes = &mut self.nodes[i * nw..(i + 1) * nw];
            let values = &mut self.values[i * vw..(i + 1) * vw];
            if step(nodes, values) {
                if kept != i {
                    self.nodes.copy_within(i * nw..(i + 1) * nw, kept * nw);
                    self.values.copy_within(i * vw..(i + 1) * vw, kept * vw);
                }
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Run an enumerating step. `candidates` yields, for a row, one item per
    /// candidate tuple the step enumerates: the node to bind slot `out` to,
    /// or `None` for a candidate it rejects (a fused tag that differs).
    /// While each row has at most one match the batch is rewritten in
    /// place, compacted as [`Rows::retain`] does; from the first row with
    /// two, the rest expands into a new batch reserved up front. Returns the
    /// candidate tuples.
    fn expand<I>(&mut self, out: usize, mut candidates: impl FnMut(&[NodeId], &[Term]) -> I) -> u64
    where
        I: Iterator<Item = Option<NodeId>>,
    {
        let (nw, vw) = (self.node_width, self.value_width);
        let (mut tuples, mut kept) = (0, 0);
        for i in 0..self.len {
            let (mut seen, mut found, mut two) = (0, None, false);
            for candidate in candidates(self.nodes(i), self.values(i)) {
                seen += 1;
                if let Some(n) = candidate {
                    two = found.is_some();
                    if two {
                        break;
                    }
                    found = Some(n);
                }
            }
            if two {
                return tuples + self.expand_from(i, kept, out, candidates);
            }
            tuples += seen;
            let Some(n) = found else { continue };
            if kept != i {
                self.nodes.copy_within(i * nw..(i + 1) * nw, kept * nw);
                self.values.copy_within(i * vw..(i + 1) * vw, kept * vw);
            }
            self.nodes[kept * nw + out] = n;
            kept += 1;
        }
        self.truncate(kept);
        tuples
    }

    /// [`Rows::expand`] from row `at` on, the first `kept` rows already
    /// bound in place: they and every match of the remaining rows are
    /// written to a new batch, which replaces this one.
    fn expand_from<I>(
        &mut self,
        at: usize,
        kept: usize,
        out: usize,
        mut candidates: impl FnMut(&[NodeId], &[Term]) -> I,
    ) -> u64
    where
        I: Iterator<Item = Option<NodeId>>,
    {
        let (nw, vw) = (self.node_width, self.value_width);
        // Row `at`'s candidates, and two matches for every later row.
        let first = candidates(self.nodes(at), self.values(at)).size_hint();
        let room = kept + first.1.unwrap_or(first.0) + 2 * (self.len - at - 1);
        let mut next = Rows {
            node_width: nw,
            value_width: vw,
            len: kept,
            nodes: Vec::with_capacity(room * nw),
            values: Vec::with_capacity(room * vw),
        };
        next.nodes.extend_from_slice(&self.nodes[..kept * nw]);
        next.values.extend_from_slice(&self.values[..kept * vw]);
        let mut tuples = 0;
        for i in at..self.len {
            for candidate in candidates(self.nodes(i), self.values(i)) {
                tuples += 1;
                if let Some(n) = candidate {
                    next.push_bound(self, i, out, n);
                }
            }
        }
        *self = next;
        tuples
    }

    /// Keep the first `len` rows.
    fn truncate(&mut self, len: usize) {
        self.nodes.truncate(len * self.node_width);
        self.values.truncate(len * self.value_width);
        self.len = len;
    }
}

/// A compiled navigation plan over the documents of one [`XmlStore`].
pub(crate) struct NavPlan<'s> {
    docs: Vec<(&'s Document, &'s DocIndex)>,
    steps: Vec<Step>,
    /// `false` when a constant in a node position denotes no element of its
    /// document: no binding can exist and nothing runs.
    satisfiable: bool,
    slots: Vec<(Variable, Slot)>,
    node_width: usize,
    value_width: usize,
}

/// Compilation state: the plan under construction plus what is bound so far.
struct Compiler<'a, 's> {
    plan: NavPlan<'s>,
    atoms: Vec<&'a Atom>,
    /// Base and document (an index into `plan.docs`) per atom.
    parsed: Vec<(NavBase, usize)>,
    /// Tag atoms fused into the step that binds their node.
    fused: Vec<bool>,
    node_bound: Vec<bool>,
    value_bound: Vec<bool>,
    /// Hidden node slots standing in for a free term-slot variable, to be
    /// converted back once the atom that binds them has been emitted.
    pending: Vec<(usize, usize, usize)>,
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
        }
        // A variable is a node slot when every occurrence is a node position
        // of one document; any other use makes it a term slot.
        let mut kinds: Vec<(Variable, Option<usize>)> = Vec::new();
        for (atom, &(base, doc)) in atoms.iter().zip(&parsed) {
            for (k, t) in atom.args.iter().enumerate() {
                let Term::Var(v) = t else { continue };
                let kind = (k == 0 || matches!(base, NavBase::Child | NavBase::Desc | NavBase::Id))
                    .then_some(doc);
                match kinds.iter_mut().find(|(w, _)| w == v) {
                    Some((_, seen)) if *seen != kind => *seen = None,
                    Some(_) => {}
                    None => kinds.push((*v, kind)),
                }
            }
        }
        let (mut node_width, mut value_width) = (0, 0);
        let slots = kinds
            .into_iter()
            .map(|(v, kind)| {
                let width = if kind.is_some() { &mut node_width } else { &mut value_width };
                *width += 1;
                let slot = match kind {
                    Some(doc) => Slot::Node { slot: *width - 1, doc },
                    None => Slot::Value(*width - 1),
                };
                (v, slot)
            })
            .collect();

        let mut compiler = Compiler {
            plan: NavPlan {
                docs,
                steps: Vec::new(),
                satisfiable: true,
                slots,
                node_width,
                value_width,
            },
            fused: vec![false; atoms.len()],
            atoms,
            parsed,
            node_bound: vec![false; node_width],
            value_bound: vec![false; value_width],
            pending: Vec::new(),
        };
        for at in 0..compiler.atoms.len() {
            if !compiler.fused[at] && compiler.atom(at).is_none() {
                compiler.plan.satisfiable = false;
                break;
            }
        }
        Ok(compiler.plan)
    }

    fn slot(&self, v: Variable) -> Option<Slot> {
        self.slots.iter().find(|(w, _)| *w == v).map(|(_, s)| *s)
    }

    /// Run the plan. Returns the surviving bindings and the number of
    /// candidate tuples enumerated on the way: per step, one per input row
    /// for an in-place step, one per candidate for an enumerating one.
    fn run(&self) -> (Rows, u64) {
        let mut rows = Rows::empty(self.node_width, self.value_width);
        let mut tuples = 0u64;
        if !self.satisfiable {
            return (rows, tuples);
        }
        rows.nodes = vec![NodeId(0); self.node_width];
        rows.values = vec![Term::constant_int(0); self.value_width];
        rows.len = 1;
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
    fn step(&self, step: &Step, rows: &mut Rows) -> u64 {
        let in_place = rows.len as u64;
        match *step {
            Step::Elements { doc, out, tag } => {
                let index = self.docs[doc].1;
                rows.expand(out, |_, values| {
                    let found = match tag {
                        Some(t) => index.with_tag(t.get(values)),
                        None => index.elements(),
                    };
                    found.iter().map(|&n| Some(n))
                })
            }
            Step::Children { doc, parent, out, tag } => {
                let index = self.docs[doc].1;
                rows.expand(out, |nodes, values| {
                    // A tag that is not a string matches no child.
                    let tag = tag.map(|t| symbol(t.get(values)).unwrap_or(u32::MAX));
                    let matches = move |&(c, t)| tag.is_none_or(|tag| tag == t).then_some(c);
                    index.children(parent.get(nodes)).iter().map(matches)
                })
            }
            Step::Descendants { doc, ancestor, out, tag } => {
                let index = self.docs[doc].1;
                rows.expand(out, |nodes, values| {
                    let a = ancestor.get(nodes);
                    let found = match tag {
                        Some(t) => index.descendants_with_tag(a, t.get(values)),
                        None => index.descendants_or_self(a),
                    };
                    found.iter().map(|&d| Some(d))
                })
            }
            Step::Ancestors { doc, descendant, out, tag } => {
                let index = self.docs[doc].1;
                rows.expand(out, |nodes, values| {
                    let tag = tag.map(|t| t.get(values));
                    // desc is descendant-or-self: the walk starts at the node.
                    let chain =
                        std::iter::successors(Some(descendant.get(nodes)), |&a| index.parent(a));
                    chain.map(move |a| tag.is_none_or(|t| index.tag_term(a) == t).then_some(a))
                })
            }
            Step::TextProbe { doc, value, out, tag } => {
                let index = self.docs[doc].1;
                rows.expand(out, |_, values| {
                    let found = match tag {
                        Some(t) => index.with_tag_and_text(t.get(values), value.get(values)),
                        None => index.with_text(value.get(values)),
                    };
                    found.iter().map(|&n| Some(n))
                })
            }
            Step::AttrOf { doc, node, name, value } => {
                let index = self.docs[doc].1;
                let mut next = Rows::empty(self.node_width, self.value_width);
                let mut tuples = 0;
                let vw = self.value_width;
                for i in 0..rows.len {
                    for &(a, v) in index.attributes(node.get(rows.nodes(i))) {
                        tuples += 1;
                        // Written first, checked after: `value` may compare
                        // against the slot `name` has just bound.
                        next.values.extend_from_slice(rows.values(i));
                        let written = next.values.len() - vw;
                        let row = &mut next.values[written..];
                        if name.put(row, a) && value.put(row, v) {
                            next.nodes.extend_from_slice(rows.nodes(i));
                            next.len += 1;
                        } else {
                            next.values.truncate(written);
                        }
                    }
                }
                *rows = next;
                tuples
            }
            Step::Root { doc, node } => {
                let root = self.docs[doc].0.root();
                rows.retain(|nodes, _| root.is_some_and(|r| node.put(nodes, r)));
                in_place
            }
            Step::Parent { doc, child, parent } => {
                let index = self.docs[doc].1;
                rows.retain(|nodes, _| {
                    index.parent(child.get(nodes)).is_some_and(|p| parent.put(nodes, p))
                });
                in_place
            }
            Step::Same { from, to } => {
                rows.retain(|nodes, _| to.put(nodes, from.get(nodes)));
                in_place
            }
            Step::IsDescendant { doc, ancestor, descendant } => {
                let index = self.docs[doc].1;
                rows.retain(|nodes, _| {
                    index.is_descendant_or_self(ancestor.get(nodes), descendant.get(nodes))
                });
                in_place
            }
            Step::TagOf { doc, node, tag } => {
                let index = self.docs[doc].1;
                rows.retain(|nodes, values| tag.put(values, index.tag_term(node.get(nodes))));
                in_place
            }
            Step::TextOf { doc, node, value } => {
                let index = self.docs[doc].1;
                rows.retain(|nodes, values| {
                    index.text_term(node.get(nodes)).is_some_and(|t| value.put(values, t))
                });
                in_place
            }
            Step::NodeOf { doc, term, out } => {
                let index = self.docs[doc].1;
                rows.retain(|nodes, values| {
                    index.node_of(term.get(values)).map(|n| nodes[out] = n).is_some()
                });
                in_place
            }
            Step::TermOf { doc, node, term } => {
                let index = self.docs[doc].1;
                rows.retain(|nodes, values| term.put(values, index.node_term(node.get(nodes))));
                in_place
            }
        }
    }

    /// Run the plan and materialize `columns` (variables the plan binds) as
    /// a term batch — the one place node slots become node constants. Also
    /// returns the candidate tuples enumerated.
    pub(crate) fn execute(&self, columns: impl Iterator<Item = Variable>) -> (Batch, u64) {
        let (rows, tuples) = self.run();
        let slots: Vec<Slot> = columns
            .map(|v| self.slot(v).expect("projected columns are variables the plan binds"))
            .collect();
        let mut out = Batch::new(slots.len());
        out.data.reserve(slots.len() * rows.len);
        for i in 0..rows.len {
            out.data.extend(slots.iter().map(|slot| match *slot {
                Slot::Node { slot, doc } => self.docs[doc].1.node_term(rows.nodes(i)[slot]),
                Slot::Value(slot) => rows.values(i)[slot],
            }));
        }
        out.len = rows.len;
        (out, tuples)
    }
}

impl Compiler<'_, '_> {
    fn index(&self, doc: usize) -> &DocIndex {
        self.plan.docs[doc].1
    }

    fn hidden_node_slot(&mut self) -> usize {
        self.node_bound.push(false);
        self.plan.node_width += 1;
        self.plan.node_width - 1
    }

    /// Resolve a node-position argument. `None`: a constant that denotes no
    /// element of `doc`, so the atom — and the plan — matches nothing.
    fn node_arg(&mut self, t: Term, doc: usize) -> Option<Arg<NodeIn>> {
        let Term::Var(v) = t else {
            return self.index(doc).node_of(t).map(|n| Arg::Bound(NodeIn::Const(n)));
        };
        Some(match self.plan.slot(v).expect("every variable of the atoms has a slot") {
            Slot::Node { slot, .. } if self.node_bound[slot] => Arg::Bound(NodeIn::Slot(slot)),
            Slot::Node { slot, .. } => Arg::Free(slot),
            // A term-slot variable in a node position navigates through a
            // hidden node slot: looked up before the atom when the variable
            // is bound, converted back after it otherwise.
            Slot::Value(value) => {
                let hidden = self.hidden_node_slot();
                if self.value_bound[value] {
                    self.plan.steps.push(Step::NodeOf {
                        doc,
                        term: ValueIn::Slot(value),
                        out: hidden,
                    });
                    self.node_bound[hidden] = true;
                    Arg::Bound(NodeIn::Slot(hidden))
                } else {
                    self.pending.push((doc, hidden, value));
                    Arg::Free(hidden)
                }
            }
        })
    }

    fn value_arg(&self, t: Term) -> Arg<ValueIn> {
        let Term::Var(v) = t else { return Arg::Bound(ValueIn::Const(t)) };
        match self.plan.slot(v).expect("every variable of the atoms has a slot") {
            Slot::Value(slot) if self.value_bound[slot] => Arg::Bound(ValueIn::Slot(slot)),
            Slot::Value(slot) => Arg::Free(slot),
            Slot::Node { .. } => unreachable!("a variable in a value position is a term slot"),
        }
    }

    fn node_out(&mut self, arg: Arg<NodeIn>) -> NodeOut {
        match arg {
            Arg::Bound(n) => NodeOut::Check(n),
            Arg::Free(slot) => {
                self.node_bound[slot] = true;
                NodeOut::Bind(slot)
            }
        }
    }

    fn value_out(&mut self, t: Term) -> ValueOut {
        match self.value_arg(t) {
            Arg::Bound(v) => ValueOut::Check(v),
            Arg::Free(slot) => {
                self.value_bound[slot] = true;
                ValueOut::Bind(slot)
            }
        }
    }

    /// Tag pushdown: claim a later `tag(t, "c")` atom over `doc` for the
    /// step about to bind the free node variable `t`.
    fn fuse_tag(&mut self, t: Term, doc: usize, at: usize) -> Option<ValueIn> {
        if !matches!(t, Term::Var(v) if matches!(self.plan.slot(v), Some(Slot::Node { .. }))) {
            return None;
        }
        let later = (at + 1..self.atoms.len()).find(|&j| {
            let tag = &self.atoms[j];
            !self.fused[j]
                && self.parsed[j] == (NavBase::Tag, doc)
                && tag.args[0] == t
                && tag.args[1].is_const()
        })?;
        self.fused[later] = true;
        Some(ValueIn::Const(self.atoms[later].args[1]))
    }

    /// Make a node argument bound, enumerating all elements into it if free.
    fn seeded(&mut self, arg: Arg<NodeIn>, t: Term, doc: usize, at: usize) -> NodeIn {
        match arg {
            Arg::Bound(n) => n,
            Arg::Free(out) => {
                let tag = self.fuse_tag(t, doc, at);
                self.plan.steps.push(Step::Elements { doc, out, tag });
                self.node_bound[out] = true;
                NodeIn::Slot(out)
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
            NavBase::Root => Step::Root { doc, node: self.node_out(first) },
            // A bound node slot only ever holds elements of its document.
            NavBase::El => {
                self.seeded(first, t0, doc, at);
                return self.convert_pending();
            }
            NavBase::Child | NavBase::Desc | NavBase::Id => {
                let t1 = t1.expect("arity checked by Atom::navigation");
                let mut second = self.node_arg(t1, doc)?;
                // The cheap direction of an edge with one bound end.
                if let (Arg::Free(out), Arg::Bound(bound)) = (first, second) {
                    self.node_bound[out] = true;
                    let step = match base {
                        NavBase::Child => {
                            Step::Parent { doc, child: bound, parent: NodeOut::Bind(out) }
                        }
                        NavBase::Desc => {
                            let tag = self.fuse_tag(t0, doc, at);
                            Step::Ancestors { doc, descendant: bound, out, tag }
                        }
                        _ => Step::Same { from: bound, to: NodeOut::Bind(out) },
                    };
                    self.plan.steps.push(step);
                    return self.convert_pending();
                }
                let from = self.seeded(first, t0, doc, at);
                // `p(x, x)` with `x` free: the seed has just bound it.
                if matches!(second, Arg::Free(s) if from == NodeIn::Slot(s)) {
                    second = Arg::Bound(from);
                }
                match (base, second) {
                    (NavBase::Child, Arg::Bound(c)) => {
                        Step::Parent { doc, child: c, parent: NodeOut::Check(from) }
                    }
                    (NavBase::Child, Arg::Free(out)) => {
                        self.node_bound[out] = true;
                        let tag = self.fuse_tag(t1, doc, at);
                        Step::Children { doc, parent: from, out, tag }
                    }
                    (NavBase::Desc, Arg::Bound(d)) => {
                        Step::IsDescendant { doc, ancestor: from, descendant: d }
                    }
                    (NavBase::Desc, Arg::Free(out)) => {
                        self.node_bound[out] = true;
                        let tag = self.fuse_tag(t1, doc, at);
                        Step::Descendants { doc, ancestor: from, out, tag }
                    }
                    (_, second) => Step::Same { from, to: self.node_out(second) },
                }
            }
            NavBase::Tag => {
                let t1 = t1.expect("arity checked by Atom::navigation");
                match (first, self.value_arg(t1)) {
                    // The by-tag bucket is the atom's whole answer.
                    (Arg::Free(out), Arg::Bound(tag)) => {
                        self.node_bound[out] = true;
                        Step::Elements { doc, out, tag: Some(tag) }
                    }
                    _ => {
                        let node = self.seeded(first, t0, doc, at);
                        Step::TagOf { doc, node, tag: self.value_out(t1) }
                    }
                }
            }
            NavBase::Text => {
                let t1 = t1.expect("arity checked by Atom::navigation");
                match (first, self.value_arg(t1)) {
                    (Arg::Free(out), Arg::Bound(value)) => {
                        self.node_bound[out] = true;
                        let tag = self.fuse_tag(t0, doc, at);
                        Step::TextProbe { doc, value, out, tag }
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
        self.convert_pending()
    }

    /// Convert the hidden node slots the atom just bound back into their
    /// term-slot variables (binding the variable, or checking it when the
    /// same atom bound it through another argument).
    fn convert_pending(&mut self) -> Option<()> {
        for (doc, hidden, value) in std::mem::take(&mut self.pending) {
            let term = if self.value_bound[value] {
                ValueOut::Check(ValueIn::Slot(value))
            } else {
                self.value_bound[value] = true;
                ValueOut::Bind(value)
            };
            self.plan.steps.push(Step::TermOf { doc, node: NodeIn::Slot(hidden), term });
        }
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
    use super::{DocIndex, NavPlan, Rows, Step, ValueIn};
    use mars_cq::Term;
    use mars_xml::NodeId;

    pub(super) fn run(plan: &NavPlan<'_>) -> (Rows, u64) {
        let mut rows = Rows::empty(plan.node_width, plan.value_width);
        let mut tuples = 0u64;
        if !plan.satisfiable {
            return (rows, tuples);
        }
        rows.nodes = vec![NodeId(0); plan.node_width];
        rows.values = vec![Term::constant_int(0); plan.value_width];
        rows.len = 1;
        for step in &plan.steps {
            if rows.len == 0 {
                break;
            }
            rows = run_step(plan, step, rows, &mut tuples);
        }
        (rows, tuples)
    }

    fn run_step(plan: &NavPlan<'_>, step: &Step, mut rows: Rows, tuples: &mut u64) -> Rows {
        // Enumerating steps fill `next`; in-place steps return `rows`.
        let mut next = Rows::empty(plan.node_width, plan.value_width);
        let has_tag = |index: &DocIndex, tag: Option<ValueIn>, values: &[Term], n: NodeId| {
            tag.is_none_or(|t| index.tag_term(n) == t.get(values))
        };
        match *step {
            Step::Elements { doc, out, tag } => {
                let index = plan.docs[doc].1;
                for i in 0..rows.len {
                    let found = match tag {
                        Some(t) => index.with_tag(t.get(rows.values(i))),
                        None => index.elements(),
                    };
                    *tuples += found.len() as u64;
                    for &n in found {
                        next.push_bound(&rows, i, out, n);
                    }
                }
            }
            Step::Children { doc, parent, out, tag } => {
                let (document, index) = plan.docs[doc];
                for i in 0..rows.len {
                    for c in document.child_elements(parent.get(rows.nodes(i))) {
                        *tuples += 1;
                        if has_tag(index, tag, rows.values(i), c) {
                            next.push_bound(&rows, i, out, c);
                        }
                    }
                }
            }
            Step::Descendants { doc, ancestor, out, tag } => {
                let index = plan.docs[doc].1;
                for i in 0..rows.len {
                    let a = ancestor.get(rows.nodes(i));
                    let found = match tag {
                        Some(t) => index.descendants_with_tag(a, t.get(rows.values(i))),
                        None => index.descendants_or_self(a),
                    };
                    *tuples += found.len() as u64;
                    for &d in found {
                        next.push_bound(&rows, i, out, d);
                    }
                }
            }
            Step::Ancestors { doc, descendant, out, tag } => {
                let (document, index) = plan.docs[doc];
                for i in 0..rows.len {
                    // desc is descendant-or-self: the walk starts at the node.
                    let mut at = Some(descendant.get(rows.nodes(i)));
                    while let Some(a) = at {
                        *tuples += 1;
                        if has_tag(index, tag, rows.values(i), a) {
                            next.push_bound(&rows, i, out, a);
                        }
                        at = document.node(a).parent;
                    }
                }
            }
            Step::TextProbe { doc, value, out, tag } => {
                let index = plan.docs[doc].1;
                for i in 0..rows.len {
                    let values = rows.values(i);
                    let found = match tag {
                        Some(t) => index.with_tag_and_text(t.get(values), value.get(values)),
                        None => index.with_text(value.get(values)),
                    };
                    *tuples += found.len() as u64;
                    for &n in found {
                        next.push_bound(&rows, i, out, n);
                    }
                }
            }
            Step::AttrOf { doc, node, name, value } => {
                let index = plan.docs[doc].1;
                let vw = plan.value_width;
                for i in 0..rows.len {
                    for &(a, v) in index.attributes(node.get(rows.nodes(i))) {
                        *tuples += 1;
                        // Written first, checked after: `value` may compare
                        // against the slot `name` has just bound.
                        next.values.extend_from_slice(rows.values(i));
                        let written = next.values.len() - vw;
                        let row = &mut next.values[written..];
                        if name.put(row, a) && value.put(row, v) {
                            next.nodes.extend_from_slice(rows.nodes(i));
                            next.len += 1;
                        } else {
                            next.values.truncate(written);
                        }
                    }
                }
            }
            Step::Root { doc, node } => {
                let root = plan.docs[doc].0.root();
                *tuples += rows.len as u64;
                rows.retain(|nodes, _| root.is_some_and(|r| node.put(nodes, r)));
                return rows;
            }
            Step::Parent { doc, child, parent } => {
                let document = plan.docs[doc].0;
                *tuples += rows.len as u64;
                rows.retain(|nodes, _| {
                    document.node(child.get(nodes)).parent.is_some_and(|p| parent.put(nodes, p))
                });
                return rows;
            }
            Step::Same { from, to } => {
                *tuples += rows.len as u64;
                rows.retain(|nodes, _| to.put(nodes, from.get(nodes)));
                return rows;
            }
            Step::IsDescendant { doc, ancestor, descendant } => {
                let index = plan.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|nodes, _| {
                    index.is_descendant_or_self(ancestor.get(nodes), descendant.get(nodes))
                });
                return rows;
            }
            Step::TagOf { doc, node, tag } => {
                let index = plan.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|nodes, values| tag.put(values, index.tag_term(node.get(nodes))));
                return rows;
            }
            Step::TextOf { doc, node, value } => {
                let index = plan.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|nodes, values| {
                    index.text_term(node.get(nodes)).is_some_and(|t| value.put(values, t))
                });
                return rows;
            }
            Step::NodeOf { doc, term, out } => {
                let index = plan.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|nodes, values| {
                    index.node_of(term.get(values)).map(|n| nodes[out] = n).is_some()
                });
                return rows;
            }
            Step::TermOf { doc, node, term } => {
                let index = plan.docs[doc].1;
                *tuples += rows.len as u64;
                rows.retain(|nodes, values| term.put(values, index.node_term(node.get(nodes))));
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
    use mars_cq::{Atom, NavBase, Term};
    use mars_grex::node_constant;
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
        assert_eq!(rows.nodes, expected.nodes, "{context}: node slots");
        assert_eq!(rows.values, expected.values, "{context}: value slots");
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
            let pairs: Vec<(NodeId, NodeId)> =
                bound.nodes.chunks(bound.node_width).map(|row| (row[0], row[1])).collect();
            assert_eq!(pairs, expected, "{counts:?}");
        }
    }
}
