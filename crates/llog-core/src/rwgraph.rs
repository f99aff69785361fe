//! The refined write graph `rW` (§3, Figure 6).
//!
//! `rW` improves on `W` in two ways the paper spells out:
//!
//! 1. **`vars(n) ⊆ Writes(n)`**: a later blind write of `x` makes the
//!    earlier value *unexposed*; `x` is removed from every other node's
//!    flush set. Installing `ops(n)` still only requires flushing `vars(n)`;
//!    the objects in `Notx(n) = Writes(n) − vars(n)` are installed without
//!    being flushed.
//! 2. **Extra edges** keep this sound: a *write-write* edge from the node
//!    that lost `x` to the blind writer's node, and an *inverse write-read*
//!    edge from every node that read `Lastw(p, x)` back to `p`, ensuring
//!    those readers install first so `x` really is unexposed when `p`
//!    installs.
//!
//! Construction is incremental (`add_op` is the paper's `addop_rW`);
//! cycles that arise are collapsed into multi-object nodes, which
//! cache-manager identity writes can later break apart again (§4).
//!
//! **Cost.** Every step of `add_op`, `remove_node` and the install choice
//! touches only the operation's `readset ∪ writeset` and the part of the
//! graph its new edges reorder (DESIGN §17):
//!
//! - a *reader index* (object → live nodes whose reads contain it) finds
//!   the read-write predecessors of a write;
//! - a maintained topological order finds cycles: an edge that agrees
//!   with the order costs nothing, one that disagrees searches only the
//!   nodes ordered between its endpoints (from both ends at once, the
//!   smaller side deciding), and the strongly connected component it
//!   closes is collapsed in place into its largest member;
//! - per-object state (flush-set home, latest writer, readers, readers of
//!   each live version) and per-operation state sit in one hash-map entry
//!   each, so removal cleans up only the removed node's objects and
//!   operations;
//! - the minimal nodes are kept in a set ordered by `(first op, node)`,
//!   which is the install order.
//!
//! [`oracle::ReferenceRwGraph`] keeps the whole-graph version of every step
//! (linear scans and a Kosaraju pass per op); audit mode runs it beside this
//! graph and compares them after every operation.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use llog_ops::Operation;
use llog_types::{ObjectId, OpId};

pub mod oracle;

/// Stable handle for an `rW` node. A merge keeps the id of its largest
/// member; the other members' ids simply stop resolving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

/// A set kept as a sorted vector. A node's sets usually hold one or two
/// elements: one small allocation instead of a B-tree leaf per set.
#[derive(Clone, PartialEq, Eq)]
pub struct SmallSet<T>(Vec<T>);

impl<T> Default for SmallSet<T> {
    fn default() -> Self {
        SmallSet(Vec::new())
    }
}

impl<T: Ord + Copy> SmallSet<T> {
    /// Membership.
    pub fn contains(&self, x: &T) -> bool {
        self.0.binary_search(x).is_ok()
    }
    /// The elements, ascending.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }
    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    /// Every element is also in `other`.
    pub fn is_subset(&self, other: &SmallSet<T>) -> bool {
        self.0.iter().all(|x| other.contains(x))
    }
    fn insert(&mut self, x: T) -> bool {
        match self.0.binary_search(&x) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, x);
                true
            }
        }
    }
    fn remove(&mut self, x: &T) -> bool {
        match self.0.binary_search(x) {
            Ok(i) => {
                self.0.remove(i);
                true
            }
            Err(_) => false,
        }
    }
    fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.0.retain(keep);
    }
    /// Add every element of `xs`: one insert each for a few, one sort and
    /// merge pass for many.
    fn extend(&mut self, xs: impl IntoIterator<Item = T>) {
        let mut add: Vec<T> = xs.into_iter().collect();
        if add.len() <= 8 {
            for x in add {
                self.insert(x);
            }
            return;
        }
        add.append(&mut self.0);
        add.sort_unstable();
        add.dedup();
        self.0 = add;
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SmallSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(&self.0).finish()
    }
}

impl<T: Ord> PartialEq<BTreeSet<T>> for SmallSet<T> {
    fn eq(&self, other: &BTreeSet<T>) -> bool {
        self.0.len() == other.len() && self.0.iter().eq(other.iter())
    }
}

impl<'a, T> IntoIterator for &'a SmallSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// One node of `rW`.
#[derive(Debug, Clone, Default)]
pub struct RwNode {
    /// `ops(n)`, in arrival (conflict) order.
    ops: Vec<OpId>,
    /// `vars(n)`: the atomic flush set that installs `ops(n)`.
    vars: SmallSet<ObjectId>,
    /// `Writes(n)`: every object written by `ops(n)`.
    writes: SmallSet<ObjectId>,
    /// `Reads(n)`: every object read by `ops(n)`.
    reads: SmallSet<ObjectId>,
    /// `Lastw(n, x)`: the last operation of `ops(n)` writing `x`, sorted by
    /// object.
    lastw: Vec<(ObjectId, OpId)>,
    preds: SmallSet<NodeId>,
    succs: SmallSet<NodeId>,
    /// Position in the maintained topological order: every edge runs from
    /// a lower `ord` to a higher one.
    ord: u64,
}

impl RwNode {
    /// The operations of this node/graph.
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }
    /// `vars(n)`: the atomic flush set that installs `ops(n)`.
    pub fn vars(&self) -> &SmallSet<ObjectId> {
        &self.vars
    }
    /// `Writes(n)`: every object written by `ops(n)`.
    pub fn writes(&self) -> &SmallSet<ObjectId> {
        &self.writes
    }
    /// `Reads(n)`: every object read by `ops(n)`.
    pub fn reads(&self) -> &SmallSet<ObjectId> {
        &self.reads
    }
    /// `Notx(n) = Writes(n) − vars(n)`: installed without flushing.
    pub fn notx(&self) -> BTreeSet<ObjectId> {
        self.writes
            .iter()
            .filter(|x| !self.vars.contains(x))
            .copied()
            .collect()
    }
    /// Predecessors (must install before this node).
    pub fn preds(&self) -> &SmallSet<NodeId> {
        &self.preds
    }
    /// Successors (install after this node).
    pub fn succs(&self) -> &SmallSet<NodeId> {
        &self.succs
    }
    /// `Lastw(n, x)`: the last operation of `ops(n)` writing `x`.
    pub fn lastw(&self, x: ObjectId) -> Option<OpId> {
        let i = self.lastw.binary_search_by_key(&x, |&(y, _)| y).ok()?;
        Some(self.lastw[i].1)
    }
    /// Record `w` as a writer of `x`, keeping the later of it and any
    /// writer already recorded.
    fn note_writer(&mut self, x: ObjectId, w: OpId) {
        match self.lastw.binary_search_by_key(&x, |&(y, _)| y) {
            Ok(i) => self.lastw[i].1 = self.lastw[i].1.max(w),
            Err(i) => self.lastw.insert(i, (x, w)),
        }
    }
    fn first_op(&self) -> OpId {
        *self.ops.first().expect("live rW node has operations")
    }
}

/// The graph's per-object indexes.
#[derive(Debug, Clone, Default)]
struct ObjectState {
    /// The node `n` with `x ∈ vars(n)`. Each object is in at most one
    /// flush set ("each X is a member of only one vars(p)").
    home: Option<NodeId>,
    /// The latest uninstalled writer.
    last_writer: Option<OpId>,
    /// Reader index: live nodes whose `reads` contain the object.
    readers: SmallSet<NodeId>,
    /// Readers of each live version, by writer op.
    versions: Vec<(OpId, SmallSet<OpId>)>,
}

impl ObjectState {
    fn readers_of(&self, writer: OpId) -> Option<&SmallSet<OpId>> {
        self.versions
            .iter()
            .find(|(w, _)| *w == writer)
            .map(|(_, r)| r)
    }
    fn is_unused(&self) -> bool {
        self.home.is_none()
            && self.last_writer.is_none()
            && self.readers.is_empty()
            && self.versions.is_empty()
    }
}

/// The graph's per-operation index.
#[derive(Debug, Clone)]
struct OpState {
    node: NodeId,
    /// The `(writer, x)` versions this operation read, for GC on removal.
    read: Vec<(OpId, ObjectId)>,
}

/// Hashes the graph's own sequential ids (`NodeId`, `OpId`) with one
/// multiply. They are assigned by the engine, not chosen by clients, so a
/// keyed hash would buy nothing; object ids keep the default hasher.
#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Spacing of freshly assigned order positions (tiny under test, so the
/// unit tests relabel constantly).
const LABEL_GAP: u64 = if cfg!(test) { 4 } else { 1 << 32 };

/// The refined write graph.
#[derive(Debug, Clone, Default)]
pub struct RWGraph {
    nodes: IdMap<NodeId, RwNode>,
    next_id: u64,
    /// The topological order: position → node. Positions are sparse so a
    /// run of nodes can move between two neighbours without renumbering.
    order: BTreeMap<u64, NodeId>,
    /// Everything kept per object, in one entry so an operation touches
    /// one map slot per object it reads or writes.
    objects: HashMap<ObjectId, ObjectState>,
    /// Everything kept per live operation.
    ops: IdMap<OpId, OpState>,
    /// Nodes with no predecessors, keyed `(first op, node)`: the install
    /// order.
    minimal: BTreeSet<(OpId, NodeId)>,
}

impl RWGraph {
    /// Create a new instance.
    pub fn new() -> RWGraph {
        RWGraph::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node by id (None once merged or removed).
    pub fn node(&self, id: NodeId) -> Option<&RwNode> {
        self.nodes.get(&id)
    }

    /// Ids of all live nodes, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// The node currently holding an operation, if it is live.
    pub fn node_of_op(&self, op: OpId) -> Option<NodeId> {
        self.ops.get(&op).map(|o| o.node)
    }

    /// The node whose flush set contains `x`, if any.
    pub fn home_of(&self, x: ObjectId) -> Option<NodeId> {
        self.objects.get(&x).and_then(|o| o.home)
    }

    /// Nodes with no predecessors: installable now (in id order).
    pub fn minimal_nodes(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.install_order().collect();
        ids.sort_unstable();
        ids
    }

    /// Minimal nodes in install order: the node whose first operation is
    /// oldest comes first.
    pub fn install_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.minimal.iter().map(|&(_, n)| n)
    }

    /// Sizes of the atomic flush sets, descending (experiment E3).
    pub fn flush_set_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.nodes.values().map(|n| n.vars.len()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    fn alloc(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let last = |g: &RWGraph| g.order.last_key_value().map_or(0, |(&o, _)| o);
        if last(self) > u64::MAX - 2 * LABEL_GAP {
            self.relabel(LABEL_GAP);
        }
        let ord = last(self) + LABEL_GAP;
        self.order.insert(ord, id);
        self.nodes.insert(
            id,
            RwNode {
                ord,
                ..RwNode::default()
            },
        );
        id
    }

    /// Insert the edge `from → to`, which must agree with the order.
    fn link(&mut self, from: NodeId, to: NodeId) {
        if !self
            .nodes
            .get_mut(&from)
            .expect("edge from dead node")
            .succs
            .insert(to)
        {
            return;
        }
        let node = self.nodes.get_mut(&to).expect("edge to dead node");
        if node.preds.is_empty() {
            self.minimal.remove(&(node.first_op(), to));
        }
        node.preds.insert(from);
    }

    /// `addop_rW` (Figure 6): incorporate the next operation, in conflict
    /// order. Returns the id of the node the operation landed in (after any
    /// merges and cycle collapses).
    pub fn add_op(&mut self, op: &Operation) -> NodeId {
        let notexp = op.notexp();

        // 1. Merge nodes whose flush sets overlap the exposed updates, with
        //    every node on a path between them (the cycles the merge
        //    closes).
        let merge: BTreeSet<NodeId> = op.exp().iter().filter_map(|&x| self.home_of(x)).collect();
        let m = match merge.len() {
            0 => self.alloc(),
            1 => *merge.first().expect("one node"),
            _ => self.collapse_between(&merge),
        };

        // Add the operation to m.
        let node = self.nodes.get_mut(&m).expect("fresh/merged node");
        if node.ops.is_empty() && node.preds.is_empty() {
            self.minimal.insert((op.id, m));
        }
        node.ops.push(op.id);
        node.reads.extend(op.reads.iter().copied());
        node.writes.extend(op.writes.iter().copied());
        node.vars.extend(op.writes.iter().copied());
        for &x in &op.writes {
            node.note_writer(x, op.id);
        }
        for &x in &op.reads {
            self.objects.entry(x).or_default().readers.insert(m);
        }

        // New edges are collected first and inserted in step 7, so the
        // order-maintenance searches only ever walk a graph that agrees
        // with the order.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();

        // 2. New read-write edges: earlier readers of what op writes must
        //    install before m.
        for x in &op.writes {
            if let Some(o) = self.objects.get(x) {
                edges.extend(o.readers.iter().filter(|&&p| p != m).map(|&p| (p, m)));
            }
        }

        // 3. Blind updates free the overwritten values: remove them from the
        //    other nodes' flush sets, with the ordering edges that keep this
        //    sound.
        let victims: BTreeSet<NodeId> = notexp
            .iter()
            .filter_map(|&x| self.home_of(x))
            .filter(|&p| p != m)
            .collect();
        for p in victims {
            let node = self.nodes.get_mut(&p).expect("victim node");
            let removed: Vec<ObjectId> = notexp
                .iter()
                .copied()
                .filter(|x| node.vars.remove(x))
                .collect();
            if removed.is_empty() {
                continue;
            }
            // vars(p) −= notexp(Op); write-write edge p → m.
            edges.push((p, m));
            // Inverse write-read edges: q read Lastw(p, x) ⇒ q → p.
            for x in removed {
                let Some(writer) = self.nodes[&p].lastw(x) else {
                    continue;
                };
                let readers = self.objects.get(&x).and_then(|o| o.readers_of(writer));
                for r in readers.into_iter().flatten() {
                    if let Some(q) = self.ops.get(r).map(|o| o.node) {
                        if q != p {
                            edges.push((q, p));
                        }
                    }
                }
            }
        }

        // 4. Record which versions op read (only live-node versions matter).
        let mut read = Vec::new();
        for &x in &op.reads {
            let o = self.objects.get_mut(&x).expect("read object is indexed");
            if let Some(writer) = o.last_writer {
                match o.versions.iter_mut().find(|(w, _)| *w == writer) {
                    Some((_, r)) => {
                        r.insert(op.id);
                    }
                    None => o.versions.push((writer, SmallSet(vec![op.id]))),
                }
                read.push((writer, x));
            }
        }
        self.ops.insert(op.id, OpState { node: m, read });

        // 5/6. op's versions are now current; its writes live in vars(m).
        for &x in &op.writes {
            let o = self.objects.entry(x).or_default();
            o.last_writer = Some(op.id);
            o.home = Some(m);
        }

        // 7. Insert the new edges, collapsing any cycle one of them closes.
        //    A collapse retires the ids of the members it absorbs; later
        //    edges follow them to the survivor.
        let mut absorbed: IdMap<NodeId, NodeId> = IdMap::default();
        let resolve = |absorbed: &IdMap<NodeId, NodeId>, mut n: NodeId| {
            while let Some(&m) = absorbed.get(&n) {
                n = m;
            }
            n
        };
        for (a, b) in edges {
            let (u, v) = (resolve(&absorbed, a), resolve(&absorbed, b));
            if u != v {
                if let Some((m, scc)) = self.insert_edge(u, v) {
                    absorbed.extend(scc.into_iter().filter(|&n| n != m).map(|n| (n, m)));
                }
            }
        }
        self.ops[&op.id].node
    }

    /// Insert `u → v`. An edge that agrees with the order is linked as is.
    /// Otherwise only nodes ordered between `v` and `u` can lie on a new
    /// cycle, and [`restore_order`](Self::restore_order) either moves the
    /// searched side past the other endpoint or collapses the cycle's
    /// component.
    /// Returns the collapsed node and the component it absorbed, if a
    /// cycle closed.
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Option<(NodeId, BTreeSet<NodeId>)> {
        let (hi, lo) = (self.nodes[&u].ord, self.nodes[&v].ord);
        let collapsed = if hi < lo {
            None
        } else {
            self.restore_order(&[u], &[v], lo, hi)
        };
        if collapsed.is_none() {
            self.link(u, v);
        }
        collapsed
    }

    /// Merge `ids` (two or more nodes) into one node together with every
    /// node on a path between two of them: contracting `ids` turns exactly
    /// those paths into cycles. Returns the merged node.
    fn collapse_between(&mut self, ids: &BTreeSet<NodeId>) -> NodeId {
        let ords = ids.iter().map(|id| self.nodes[id].ord);
        let (lo, hi) = (ords.clone().min().expect("ids"), ords.max().expect("ids"));
        let members: Vec<NodeId> = ids.iter().copied().collect();
        self.restore_order(&members, &members, lo, hi)
            .expect("contracted set is a component")
            .0
    }

    /// Restore the topological order after "`tails` now reach `heads`"
    /// (a new edge, or a contraction when both are the merged set), where
    /// `lo..=hi` spans the endpoints' positions.
    ///
    /// Two searches run in step, each confined to `lo..=hi`: backward from
    /// the tails and forward from the heads. The first to finish decides,
    /// so the cost follows the smaller side. If the backward side `B`
    /// finishes, the component a cycle closed is `S` = the part of `B`
    /// reachable from the heads; `B − S` moves, in order, into the gap just
    /// below the lowest head, and `S` collapses into one node at that
    /// head's position. The forward side mirrors this above the highest
    /// tail. Nodes outside the moved side keep their positions. Returns the
    /// collapsed node and the component it absorbed, if a cycle closed.
    fn restore_order(
        &mut self,
        tails: &[NodeId],
        heads: &[NodeId],
        lo: u64,
        hi: u64,
    ) -> Option<(NodeId, BTreeSet<NodeId>)> {
        let mut back = Search::new(tails, false);
        let mut fwd = Search::new(heads, true);
        while !back.done() && !fwd.done() {
            if back.work + back.next_cost(self) <= fwd.work + fwd.next_cost(self) {
                back.step(self, lo, hi);
            } else {
                fwd.step(self, lo, hi);
            }
        }
        let (side, ends, below) = if back.done() {
            (back.seen, heads, true)
        } else {
            (fwd.seen, tails, false)
        };
        let starts: Vec<NodeId> = ends.iter().copied().filter(|n| side.contains(n)).collect();
        let scc = self.reach_within(&starts, below, &side);
        let by_ord = |n: &&NodeId| self.nodes[*n].ord;
        let anchor = *if below {
            ends.iter().min_by_key(by_ord)
        } else {
            ends.iter().max_by_key(by_ord)
        }
        .expect("endpoint");
        let mut moved: Vec<(u64, NodeId)> = side
            .iter()
            .filter(|n| !scc.contains(n))
            .map(|&n| (self.nodes[&n].ord, n))
            .collect();
        moved.sort_unstable();
        self.place_beside(anchor, below, &moved);
        if scc.is_empty() {
            return None;
        }
        let at = self.nodes[&anchor].ord;
        for n in &scc {
            self.order.remove(&self.nodes[n].ord);
        }
        let m = self.merge_nodes(&scc);
        self.nodes.get_mut(&m).expect("merged node").ord = at;
        self.order.insert(at, m);
        Some((m, scc))
    }

    /// The nodes of `within` reachable from `starts` along successors
    /// (`forward`) or predecessors.
    fn reach_within(
        &self,
        starts: &[NodeId],
        forward: bool,
        within: &BTreeSet<NodeId>,
    ) -> BTreeSet<NodeId> {
        let mut seen: BTreeSet<NodeId> = starts.iter().copied().collect();
        let mut stack: Vec<NodeId> = starts.to_vec();
        while let Some(n) = stack.pop() {
            let node = &self.nodes[&n];
            let next = if forward { &node.succs } else { &node.preds };
            // Intersect from the smaller side: a wide node inside a small
            // region costs the region, not its degree.
            let hits: Vec<NodeId> = if next.len() <= within.len() {
                next.iter()
                    .filter(|w| within.contains(w))
                    .copied()
                    .collect()
            } else {
                within
                    .iter()
                    .filter(|w| next.contains(w))
                    .copied()
                    .collect()
            };
            for w in hits {
                if seen.insert(w) {
                    stack.push(w);
                }
            }
        }
        seen
    }

    /// Give `moved` (sorted by position) fresh positions, in order, in the
    /// gap just below (`below`) or just above `anchor`, relabelling the
    /// whole order first if the gap is too narrow.
    fn place_beside(&mut self, anchor: NodeId, below: bool, moved: &[(u64, NodeId)]) {
        if moved.is_empty() {
            return;
        }
        let slots = moved.len() as u64 + 1;
        let gap = |g: &RWGraph| {
            let at = g.nodes[&anchor].ord;
            let (a, b) = if below {
                (g.order.range(..at).next_back().map_or(0, |(&o, _)| o), at)
            } else {
                (
                    at,
                    g.order.range(at + 1..).next().map_or(u64::MAX, |(&o, _)| o),
                )
            };
            (a, (b - a) / slots)
        };
        let (mut base, mut step) = gap(self);
        if step == 0 {
            self.relabel(LABEL_GAP.max(slots));
            (base, step) = gap(self);
        }
        for (i, &(_, n)) in moved.iter().enumerate() {
            let new = base + step * (i as u64 + 1);
            let node = self.nodes.get_mut(&n).expect("moved node");
            self.order.remove(&node.ord);
            self.order.insert(new, n);
            node.ord = new;
        }
    }

    /// Respace every position `spacing` apart, keeping the order.
    fn relabel(&mut self, spacing: u64) {
        let order = std::mem::take(&mut self.order);
        for (i, (_, n)) in order.into_iter().enumerate() {
            let label = spacing * (i as u64 + 1);
            self.nodes.get_mut(&n).expect("ordered node").ord = label;
            self.order.insert(label, n);
        }
    }

    /// Merge a set of nodes into its largest member, unioning all
    /// attributes and rewiring edges and indexes. Work is proportional to
    /// the absorbed members, not to the survivor.
    fn merge_nodes(&mut self, ids: &BTreeSet<NodeId>) -> NodeId {
        let t = *ids
            .iter()
            .max_by_key(|&&id| (self.nodes[&id].ops.len(), std::cmp::Reverse(id)))
            .expect("nonempty merge");
        let mut target = self.nodes.remove(&t).expect("merge of dead node");
        if target.preds.is_empty() {
            self.minimal.remove(&(target.first_op(), t));
        }
        let mut absorbed = RwNode::default();
        let (mut preds, mut succs) = (Vec::new(), Vec::new());
        for &id in ids.iter().filter(|&&id| id != t) {
            let node = self.nodes.remove(&id).expect("merge of dead node");
            if node.preds.is_empty() {
                self.minimal.remove(&(node.first_op(), id));
            }
            for op in &node.ops {
                self.ops.get_mut(op).expect("live op").node = t;
            }
            for x in &node.vars {
                self.objects.get_mut(x).expect("indexed object").home = Some(t);
            }
            for x in &node.reads {
                let rs = &mut self.objects.get_mut(x).expect("indexed object").readers;
                rs.remove(&id);
                rs.insert(t);
            }
            for &p in node.preds.iter().filter(|p| !ids.contains(p)) {
                let pn = self.nodes.get_mut(&p).expect("pred of merged node");
                pn.succs.remove(&id);
                pn.succs.insert(t);
                preds.push(p);
            }
            for &s in node.succs.iter().filter(|s| !ids.contains(s)) {
                let sn = self.nodes.get_mut(&s).expect("succ of merged node");
                sn.preds.remove(&id);
                sn.preds.insert(t);
                succs.push(s);
            }
            absorbed.ops.extend(node.ops);
            absorbed.vars.0.extend(node.vars.0);
            absorbed.writes.0.extend(node.writes.0);
            absorbed.reads.0.extend(node.reads.0);
            absorbed.lastw.extend(node.lastw);
        }
        target.preds.retain(|p| !ids.contains(p));
        target.succs.retain(|s| !ids.contains(s));
        target.preds.extend(preds);
        target.succs.extend(succs);
        target.vars.extend(absorbed.vars.0);
        target.writes.extend(absorbed.writes.0);
        target.reads.extend(absorbed.reads.0);
        for (x, w) in absorbed.lastw {
            target.note_writer(x, w);
        }
        // ops(n) of a merge is the sorted union; absorbing only newer
        // operations is an append.
        let mut ops = absorbed.ops;
        ops.sort_unstable();
        let appends = target.ops.last() < ops.first();
        target.ops.extend(ops);
        if !appends {
            target.ops.sort();
        }
        if target.preds.is_empty() {
            self.minimal.insert((target.first_op(), t));
        }
        self.nodes.insert(t, target);
        t
    }

    /// Remove an installed node. The caller (PurgeCache) must have flushed
    /// `vars(n)`; the node must be minimal. Returns the removed node.
    pub fn remove_node(&mut self, id: NodeId) -> RwNode {
        let node = self.nodes.remove(&id).expect("remove of dead node");
        assert!(node.preds.is_empty(), "removing non-minimal rW node {id:?}");
        self.minimal.remove(&(node.first_op(), id));
        self.order.remove(&node.ord);
        for &s in &node.succs {
            let sn = self.nodes.get_mut(&s).expect("succ of removed node");
            sn.preds.remove(&id);
            if sn.preds.is_empty() {
                self.minimal.insert((sn.first_op(), s));
            }
        }
        for x in &node.reads {
            if let Some(o) = self.objects.get_mut(x) {
                o.readers.remove(&id);
            }
        }
        // Installed writers stop being current versions, and versions they
        // wrote can no longer trigger inverse edges (their node is gone).
        let ops = &self.ops;
        let installed = |w: &OpId| ops.get(w).map(|o| o.node) == Some(id);
        for x in &node.writes {
            if let Some(o) = self.objects.get_mut(x) {
                if o.last_writer.as_ref().is_some_and(installed) {
                    o.last_writer = None;
                }
                o.versions.retain(|(w, _)| !installed(w));
                if o.home == Some(id) {
                    o.home = None;
                }
            }
        }
        // GC version-read bookkeeping for this node's readers.
        for op in &node.ops {
            let read = self.ops.remove(op).expect("live op").read;
            for (w, x) in read {
                if let Some(o) = self.objects.get_mut(&x) {
                    if let Some(i) = o.versions.iter().position(|(v, _)| *v == w) {
                        o.versions[i].1.remove(op);
                        if o.versions[i].1.is_empty() {
                            o.versions.swap_remove(i);
                        }
                    }
                }
            }
        }
        for x in node.reads.iter().chain(&node.writes) {
            if self.objects.get(x).is_some_and(ObjectState::is_unused) {
                self.objects.remove(x);
            }
        }
        node
    }

    /// Debug/audit: assert internal consistency against linear scans of the
    /// graph and a whole-graph Kosaraju cycle check. Panics on violation.
    pub fn check_consistency(&self) {
        let mut readers: BTreeMap<ObjectId, SmallSet<NodeId>> = BTreeMap::new();
        let mut minimal: BTreeSet<(OpId, NodeId)> = BTreeSet::new();
        for (&id, node) in &self.nodes {
            assert!(!node.ops.is_empty(), "empty node {id:?}");
            assert!(node.vars.is_subset(&node.writes), "vars ⊄ writes in {id:?}");
            for &x in &node.vars {
                assert_eq!(self.home_of(x), Some(id), "home of {x:?} stale");
            }
            for &p in &node.preds {
                assert!(
                    self.nodes[&p].succs.contains(&id),
                    "asymmetric edge {p:?}→{id:?}"
                );
            }
            for &s in &node.succs {
                assert!(
                    self.nodes[&s].preds.contains(&id),
                    "asymmetric edge {id:?}→{s:?}"
                );
                assert!(
                    node.ord < self.nodes[&s].ord,
                    "edge {id:?}→{s:?} against the order"
                );
            }
            for &op in &node.ops {
                assert_eq!(self.node_of_op(op), Some(id), "node of {op:?} stale");
            }
            for &x in &node.reads {
                readers.entry(x).or_default().insert(id);
            }
            if node.preds.is_empty() {
                minimal.insert((node.first_op(), id));
            }
        }
        let indexed: BTreeMap<ObjectId, SmallSet<NodeId>> = self
            .objects
            .iter()
            .filter(|(_, o)| !o.readers.is_empty())
            .map(|(&x, o)| (x, o.readers.clone()))
            .collect();
        assert_eq!(readers, indexed, "reader index stale");
        assert_eq!(
            self.ops.len(),
            self.nodes.values().map(|n| n.ops.len()).sum::<usize>()
        );
        let order: BTreeMap<u64, NodeId> = self.nodes.iter().map(|(&id, n)| (n.ord, id)).collect();
        assert_eq!(order, self.order, "order index stale");
        assert_eq!(minimal, self.minimal, "minimal set stale");
        for (x, o) in &self.objects {
            assert!(!o.is_unused(), "unused entry for {x:?} kept");
            for w in o
                .last_writer
                .iter()
                .chain(o.versions.iter().map(|(w, _)| w))
            {
                assert!(
                    self.ops.contains_key(w),
                    "{x:?} keeps installed writer {w:?}"
                );
            }
        }
        assert!(
            oracle::find_cycle_component(&self.nodes.iter().collect()).is_none(),
            "rW has a cycle"
        );
    }
}

/// One side of [`RWGraph::restore_order`]'s paired search: a depth-first
/// walk along successors (`forward`) or predecessors, confined to a range
/// of positions.
struct Search {
    forward: bool,
    seen: BTreeSet<NodeId>,
    stack: Vec<NodeId>,
    /// Adjacency entries scanned so far. The side whose total after its
    /// next step is smaller advances, so a wide node is scanned only when
    /// the other side has done as much work.
    work: usize,
}

impl Search {
    fn new(starts: &[NodeId], forward: bool) -> Search {
        Search {
            forward,
            seen: starts.iter().copied().collect(),
            stack: starts.to_vec(),
            work: 0,
        }
    }

    fn done(&self) -> bool {
        self.stack.is_empty()
    }

    /// Adjacency entries the next step will scan.
    fn next_cost(&self, g: &RWGraph) -> usize {
        self.stack.last().map_or(0, |n| {
            let node = &g.nodes[n];
            if self.forward {
                node.succs.len()
            } else {
                node.preds.len()
            }
        })
    }

    fn step(&mut self, g: &RWGraph, lo: u64, hi: u64) {
        let Some(n) = self.stack.pop() else {
            return;
        };
        let node = &g.nodes[&n];
        let next = if self.forward {
            &node.succs
        } else {
            &node.preds
        };
        self.work += next.len() + 1;
        for &w in next {
            if (lo..=hi).contains(&g.nodes[&w].ord) && self.seen.insert(w) {
                self.stack.push(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_ops::{table1, Value};

    const X: u64 = 1;
    const Y: u64 = 2;
    const B: u64 = 3;

    fn oid(n: u64) -> ObjectId {
        ObjectId(n)
    }

    fn set(xs: &[u64]) -> BTreeSet<ObjectId> {
        xs.iter().map(|&n| ObjectId(n)).collect()
    }

    #[test]
    fn figure_one_separate_nodes_ordered() {
        // A: Y ← f(X,Y); B: X ← g(Y). rW: node(A) vars{Y} → node(B) vars{X}.
        let mut g = RWGraph::new();
        let na = g.add_op(&Operation::logical(0, &[X, Y], &[Y]));
        let nb = g.add_op(&Operation::logical(1, &[Y], &[X]));
        g.check_consistency();
        assert_eq!(g.len(), 2);
        assert_eq!(g.node(na).unwrap().vars(), &set(&[Y]));
        assert_eq!(g.node(nb).unwrap().vars(), &set(&[X]));
        // A read X which B writes: read-write edge A → B.
        assert!(g.node(na).unwrap().succs().contains(&nb));
        assert_eq!(g.minimal_nodes(), vec![na]);
    }

    #[test]
    fn section4_cycle_example_collapses() {
        // (a) Y = f(X,Y); (b) X = g(Y); (c) Y = h(Y): cycle ⇒ one node with
        // objects X and Y together.
        let mut g = RWGraph::new();
        g.add_op(&Operation::logical(0, &[X, Y], &[Y]));
        g.add_op(&Operation::logical(1, &[Y], &[X]));
        let m = g.add_op(&Operation::logical(2, &[Y], &[Y]));
        g.check_consistency();
        assert_eq!(g.len(), 1);
        let node = g.node(m).unwrap();
        assert_eq!(node.vars(), &set(&[X, Y]));
        assert_eq!(node.ops().len(), 3);
    }

    #[test]
    fn figure_seven_blind_write_shrinks_flush_set() {
        // A writes X and Y; B reads X; C blindly writes X.
        // rW: vars(l) shrinks from {X,Y} to {Y}; X moves to C's node;
        // inverse write-read edge node(B) → l; write-write edge l → node(C).
        let mut g = RWGraph::new();
        let l = g.add_op(&Operation::logical(0, &[9], &[X, Y])); // A
        let nb = g.add_op(&Operation::logical(1, &[X], &[B])); // B reads X
        assert_eq!(g.node(l).unwrap().vars(), &set(&[X, Y]));

        let nc = g.add_op(&Operation::physical(2, X, Value::from("blind"))); // C
        g.check_consistency();

        let ln = g.node(l).unwrap();
        assert_eq!(ln.vars(), &set(&[Y]), "X must leave vars(l)");
        assert_eq!(ln.notx(), set(&[X]), "X is now Notx(l)");
        // Write-write edge l → node(C).
        assert!(ln.succs().contains(&nc));
        // Inverse write-read edge node(B) → l: B read Lastw(l, X).
        assert!(g.node(nb).unwrap().succs().contains(&l));
        // Flush order: B's node first, then l (flushing only Y), then C.
        assert_eq!(g.minimal_nodes(), vec![nb]);
        // X's home is now C's node.
        assert_eq!(g.home_of(oid(X)), Some(nc));
    }

    #[test]
    fn figure_seven_installation_sequence() {
        let mut g = RWGraph::new();
        let l = g.add_op(&Operation::logical(0, &[9], &[X, Y]));
        let nb = g.add_op(&Operation::logical(1, &[X], &[B]));
        let nc = g.add_op(&Operation::physical(2, X, Value::from("blind")));

        // Install B's node, then l, then C's node.
        let removed = g.remove_node(nb);
        assert_eq!(removed.vars(), &set(&[B]));
        g.check_consistency();
        assert_eq!(g.minimal_nodes(), vec![l]);

        let removed = g.remove_node(l);
        assert_eq!(removed.vars(), &set(&[Y]), "install l by flushing only Y");
        assert_eq!(removed.notx(), set(&[X]));
        g.check_consistency();

        let removed = g.remove_node(nc);
        assert_eq!(removed.vars(), &set(&[X]));
        assert!(g.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-minimal")]
    fn removing_non_minimal_node_panics() {
        let mut g = RWGraph::new();
        let _a = g.add_op(&Operation::logical(0, &[X, Y], &[Y]));
        let b = g.add_op(&Operation::logical(1, &[Y], &[X]));
        g.remove_node(b);
    }

    #[test]
    fn exposed_update_merges_nodes() {
        // op0 writes X; op1 writes Y; op2 reads+writes both X and Y
        // (exp = {X,Y}) ⇒ all three nodes merge.
        let mut g = RWGraph::new();
        g.add_op(&Operation::logical(0, &[8], &[X]));
        g.add_op(&Operation::logical(1, &[9], &[Y]));
        let m = g.add_op(&Operation::logical(2, &[X, Y], &[X, Y]));
        g.check_consistency();
        assert_eq!(g.len(), 1);
        assert_eq!(g.node(m).unwrap().ops().len(), 3);
        assert_eq!(g.node(m).unwrap().vars(), &set(&[X, Y]));
    }

    #[test]
    fn identity_write_breaks_up_flush_set() {
        // §4: a node with vars {X, Y}; W_IP(X) moves X into its own node.
        let mut g = RWGraph::new();
        let l = g.add_op(&Operation::logical(0, &[9], &[X, Y]));
        assert_eq!(g.node(l).unwrap().vars().len(), 2);

        let m = g.add_op(&table1::identity_write(
            OpId(1),
            oid(X),
            Value::from("current"),
        ));
        g.check_consistency();
        assert_eq!(g.node(l).unwrap().vars(), &set(&[Y]));
        assert_eq!(g.node(m).unwrap().vars(), &set(&[X]));
        // m follows l; no cycle possible (W_IP reads nothing).
        assert!(g.node(l).unwrap().succs().contains(&m));
        assert_eq!(g.minimal_nodes(), vec![l]);
    }

    #[test]
    fn identity_writes_reduce_vars_to_one_then_zero() {
        let mut g = RWGraph::new();
        let l = g.add_op(&Operation::logical(0, &[9], &[X, Y, B]));
        assert_eq!(g.node(l).unwrap().vars().len(), 3);
        g.add_op(&table1::identity_write(OpId(1), oid(X), Value::from("x")));
        g.add_op(&table1::identity_write(OpId(2), oid(Y), Value::from("y")));
        assert_eq!(g.node(l).unwrap().vars(), &set(&[B]));
        // Even |vars| = 0 is possible.
        g.add_op(&table1::identity_write(OpId(3), oid(B), Value::from("b")));
        g.check_consistency();
        assert!(g.node(l).unwrap().vars().is_empty());
        assert_eq!(g.node(l).unwrap().notx(), set(&[X, Y, B]));
        // l is still minimal and installable (flushing nothing).
        assert!(g.minimal_nodes().contains(&l));
    }

    #[test]
    fn chained_blind_writes_keep_single_home() {
        let mut g = RWGraph::new();
        g.add_op(&Operation::physical(0, X, Value::from("v1")));
        g.add_op(&Operation::physical(1, X, Value::from("v2")));
        let n3 = g.add_op(&Operation::physical(2, X, Value::from("v3")));
        g.check_consistency();
        // X lives in exactly one flush set: the latest writer's.
        assert_eq!(g.home_of(oid(X)), Some(n3));
        let homes: Vec<NodeId> = g
            .node_ids()
            .filter(|&id| g.node(id).unwrap().vars().contains(&oid(X)))
            .collect();
        assert_eq!(homes, vec![n3]);
    }

    #[test]
    fn reader_of_unexposed_version_must_install_first() {
        // w1 writes X; r reads X; w2 blindly writes X.
        // r's node must precede w1's node (inverse write-read edge), and
        // w1 → w2 (write-write).
        let mut g = RWGraph::new();
        let n1 = g.add_op(&Operation::logical(0, &[7], &[X]));
        let nr = g.add_op(&Operation::logical(1, &[X], &[B]));
        let n2 = g.add_op(&Operation::physical(2, X, Value::from("v")));
        g.check_consistency();
        assert!(g.node(nr).unwrap().succs().contains(&n1));
        assert!(g.node(n1).unwrap().succs().contains(&n2));
        assert_eq!(g.node(n1).unwrap().vars().len(), 0);
        assert_eq!(g.node(n1).unwrap().notx(), set(&[X]));
    }

    #[test]
    fn removal_then_new_ops_work() {
        let mut g = RWGraph::new();
        let n1 = g.add_op(&Operation::physiological(0, X));
        g.remove_node(n1);
        assert!(g.is_empty());
        // New op on the same object gets a fresh node; no stale edges.
        let n2 = g.add_op(&Operation::physiological(1, X));
        g.check_consistency();
        assert_eq!(g.minimal_nodes(), vec![n2]);
    }

    #[test]
    fn physiological_workload_never_builds_multi_object_sets() {
        let mut g = RWGraph::new();
        for i in 0..20 {
            g.add_op(&Operation::physiological(i, i % 5));
        }
        g.check_consistency();
        assert!(g.flush_set_sizes().iter().all(|&s| s == 1));
    }

    #[test]
    fn flush_set_sizes_sorted_desc() {
        let mut g = RWGraph::new();
        g.add_op(&Operation::logical(0, &[9], &[X, Y]));
        g.add_op(&Operation::physiological(1, 77));
        assert_eq!(g.flush_set_sizes(), vec![2, 1]);
    }

    #[test]
    fn random_histories_match_the_oracle_through_relabels() {
        // xorshift: a dependency-free seeded stream.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..40 {
            let mut g = RWGraph::new();
            let mut oracle = oracle::ReferenceRwGraph::new();
            for i in 0..120u64 {
                if next(3) == 0 {
                    let first = g.install_order().next();
                    if let Some(n) = first {
                        g.remove_node(n);
                        oracle.remove_node(oracle.install_order()[0]);
                    }
                }
                let (x, y, w) = (next(6), next(6), next(6));
                let op = match next(4) {
                    0 => Operation::physical(i, x, Value::from("v")),
                    1 => Operation::physiological(i, x),
                    // Reads x and y; writes w, and x half the time.
                    _ => {
                        let mut reads = vec![x, y];
                        let mut writes = vec![w, x];
                        reads.dedup();
                        writes.truncate(1 + next(2) as usize);
                        writes.sort_unstable();
                        writes.dedup();
                        Operation::logical(i, &reads, &writes)
                    }
                };
                g.add_op(&op);
                oracle.add_op(&op);
                oracle.diff(&g).unwrap();
                g.check_consistency();
            }
        }
    }
}
