//! The audit oracle for [`RWGraph`]: Figure 6 `addop_rW` written the
//! simple way.
//!
//! Every step here is whole-graph: readers of the writeset are found by a
//! scan of every node, cycles by a Kosaraju pass after every operation,
//! merges allocate a fresh node, removal garbage-collects by `retain` over
//! the version indexes, and the install choice rescans and sorts the
//! minimal nodes. That makes it quadratic over a long log, and obviously
//! right. [`RWGraph`] maintains the same graph incrementally; audit mode
//! (`EngineConfig::audit`) runs this oracle beside it and [`diff`] compares
//! the two after every operation and every install. Nothing on a
//! production path uses this module.

use std::collections::{BTreeMap, BTreeSet};

use llog_ops::Operation;
use llog_types::{ObjectId, OpId};

use super::{NodeId, RWGraph, RwNode, SmallSet};

/// The refined write graph maintained by whole-graph recomputation.
#[derive(Debug, Clone, Default)]
pub struct ReferenceRwGraph {
    nodes: BTreeMap<NodeId, RwNode>,
    next_id: u64,
    var_home: BTreeMap<ObjectId, NodeId>,
    op_node: BTreeMap<OpId, NodeId>,
    last_writer: BTreeMap<ObjectId, OpId>,
    version_readers: BTreeMap<(ObjectId, OpId), BTreeSet<OpId>>,
    reads_of_op: BTreeMap<OpId, Vec<(ObjectId, OpId)>>,
}

impl ReferenceRwGraph {
    /// Create an empty graph.
    pub fn new() -> ReferenceRwGraph {
        ReferenceRwGraph::default()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when there are no live nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node currently holding an operation, if it is live.
    pub fn node_of_op(&self, op: OpId) -> Option<NodeId> {
        self.op_node.get(&op).copied()
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> Option<&RwNode> {
        self.nodes.get(&id)
    }

    /// Minimal nodes in install order: a scan of every node, sorted by
    /// first operation.
    pub fn install_order(&self) -> Vec<NodeId> {
        let mut minimals: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.preds.is_empty())
            .map(|(&id, _)| id)
            .collect();
        minimals.sort_by_key(|&n| self.nodes[&n].ops.first().copied());
        minimals
    }

    fn alloc(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.nodes.insert(id, RwNode::default());
        id
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if from == to {
            return;
        }
        self.nodes
            .get_mut(&from)
            .expect("edge from dead node")
            .succs
            .insert(to);
        self.nodes
            .get_mut(&to)
            .expect("edge to dead node")
            .preds
            .insert(from);
    }

    /// `addop_rW` (Figure 6), step by step over the whole graph.
    pub fn add_op(&mut self, op: &Operation) -> NodeId {
        let exp = op.exp();
        let notexp = op.notexp();

        // 1. Merge nodes whose flush sets overlap the exposed updates.
        let merge: BTreeSet<NodeId> = exp
            .iter()
            .filter_map(|x| self.var_home.get(x).copied())
            .collect();
        let m = self.merge_nodes(merge);
        {
            let node = self.nodes.get_mut(&m).expect("fresh/merged node");
            node.ops.push(op.id);
            node.reads.extend(op.reads.iter().copied());
            node.writes.extend(op.writes.iter().copied());
            node.vars.extend(op.writes.iter().copied());
            for &x in &op.writes {
                node.note_writer(x, op.id);
            }
        }
        self.op_node.insert(op.id, m);

        // 2. Read-write edges: scan every node for earlier readers.
        let rw_edges: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(&p, node)| p != m && op.writes.iter().any(|x| node.reads.contains(x)))
            .map(|(&p, _)| p)
            .collect();
        for p in rw_edges {
            self.add_edge(p, m);
        }

        // 3. Blind updates: shrink victims' flush sets, with write-write
        //    and inverse write-read edges.
        let victims: BTreeSet<NodeId> = notexp
            .iter()
            .filter_map(|&x| self.var_home.get(&x).copied())
            .filter(|&p| p != m)
            .collect();
        for p in victims {
            let removed: Vec<ObjectId> = notexp
                .iter()
                .copied()
                .filter(|x| self.nodes[&p].vars.contains(x))
                .collect();
            if removed.is_empty() {
                continue;
            }
            let node = self.nodes.get_mut(&p).expect("victim node");
            for x in &removed {
                node.vars.remove(x);
            }
            self.add_edge(p, m);
            for &x in &removed {
                let Some(writer) = self.nodes[&p].lastw(x) else {
                    continue;
                };
                let readers: Vec<OpId> = self
                    .version_readers
                    .get(&(x, writer))
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default();
                for r in readers {
                    if let Some(&q) = self.op_node.get(&r) {
                        self.add_edge(q, p);
                    }
                }
            }
        }

        // 4. Record which versions op read.
        for &x in &op.reads {
            if let Some(&writer) = self.last_writer.get(&x) {
                self.version_readers
                    .entry((x, writer))
                    .or_default()
                    .insert(op.id);
                self.reads_of_op.entry(op.id).or_default().push((x, writer));
            }
        }

        // 5/6. op's versions are current; its writes live in vars(m).
        for &x in &op.writes {
            self.last_writer.insert(x, op.id);
            self.var_home.insert(x, m);
        }

        // 7. Collapse every cycle, one whole-graph SCC pass at a time.
        while let Some(cycle) = find_cycle_component(&self.nodes.iter().collect()) {
            self.merge_nodes(cycle);
        }
        self.op_node[&op.id]
    }

    /// Merge a set of nodes into one fresh node (a fresh empty node if the
    /// set is empty).
    fn merge_nodes(&mut self, ids: BTreeSet<NodeId>) -> NodeId {
        if ids.len() == 1 {
            return ids.into_iter().next().unwrap();
        }
        let m = self.alloc();
        if ids.is_empty() {
            return m;
        }
        let mut merged = RwNode::default();
        for &id in &ids {
            let node = self.nodes.remove(&id).expect("merge of dead node");
            merged.ops.extend(node.ops);
            merged.vars.extend(node.vars.0);
            merged.writes.extend(node.writes.0);
            merged.reads.extend(node.reads.0);
            for (x, w) in node.lastw {
                merged.note_writer(x, w);
            }
            merged.preds.extend(node.preds.0);
            merged.succs.extend(node.succs.0);
        }
        merged.ops.sort();
        for id in ids.iter().chain([&m]) {
            merged.preds.remove(id);
            merged.succs.remove(id);
        }
        for &op in &merged.ops {
            self.op_node.insert(op, m);
        }
        for &x in &merged.vars {
            self.var_home.insert(x, m);
        }
        for &p in &merged.preds {
            let node = self.nodes.get_mut(&p).expect("pred of merged node");
            node.succs.retain(|s| !ids.contains(s));
            node.succs.insert(m);
        }
        for &s in &merged.succs {
            let node = self.nodes.get_mut(&s).expect("succ of merged node");
            node.preds.retain(|p| !ids.contains(p));
            node.preds.insert(m);
        }
        self.nodes.insert(m, merged);
        m
    }

    /// Remove an installed (minimal) node, garbage-collecting the version
    /// indexes by full scans.
    pub fn remove_node(&mut self, id: NodeId) -> RwNode {
        let node = self.nodes.remove(&id).expect("remove of dead node");
        assert!(node.preds.is_empty(), "removing non-minimal rW node {id:?}");
        for &s in &node.succs {
            self.nodes
                .get_mut(&s)
                .expect("succ of removed node")
                .preds
                .remove(&id);
        }
        for &op in &node.ops {
            self.op_node.remove(&op);
            for key in self.reads_of_op.remove(&op).unwrap_or_default() {
                if let Some(set) = self.version_readers.get_mut(&key) {
                    set.remove(&op);
                    if set.is_empty() {
                        self.version_readers.remove(&key);
                    }
                }
            }
        }
        let dead_ops: BTreeSet<OpId> = node.ops.iter().copied().collect();
        self.version_readers
            .retain(|(_, w), _| !dead_ops.contains(w));
        self.last_writer.retain(|_, w| !dead_ops.contains(w));
        for &x in &node.vars {
            if self.var_home.get(&x) == Some(&id) {
                self.var_home.remove(&x);
            }
        }
        node
    }

    /// Compare against the incremental graph: the same node partition with
    /// identical `ops`, `vars`, `writes`, `reads` and `lastw`, the same
    /// edges, the same install order, and the same version indexes. Nodes
    /// are matched by their first operation, since node ids differ.
    pub fn diff(&self, g: &RWGraph) -> Result<(), String> {
        let key = |ops: &[OpId]| *ops.first().expect("live node has operations");
        let mine: BTreeMap<OpId, &RwNode> = self.nodes.values().map(|n| (key(&n.ops), n)).collect();
        let theirs: BTreeMap<OpId, &RwNode> = g.nodes.values().map(|n| (key(&n.ops), n)).collect();
        let mine_keys: Vec<&OpId> = mine.keys().collect();
        let theirs_keys: Vec<&OpId> = theirs.keys().collect();
        if mine_keys != theirs_keys {
            return Err(format!(
                "node partition differs: oracle nodes start at {mine_keys:?}, incremental at {theirs_keys:?}"
            ));
        }
        let mine_edges = |ids: &SmallSet<NodeId>| -> BTreeSet<OpId> {
            ids.iter().map(|id| key(&self.nodes[id].ops)).collect()
        };
        let their_edges = |ids: &SmallSet<NodeId>| -> BTreeSet<OpId> {
            ids.iter().map(|id| key(&g.nodes[id].ops)).collect()
        };
        for (k, a) in &mine {
            let b = theirs[k];
            let same = a.ops == b.ops
                && a.vars == b.vars
                && a.writes == b.writes
                && a.reads == b.reads
                && a.lastw == b.lastw;
            if !same {
                return Err(format!(
                    "node starting at {k:?} differs: oracle {a:?} vs incremental {b:?}"
                ));
            }
            let (ap, bp) = (mine_edges(&a.preds), their_edges(&b.preds));
            let (asu, bsu) = (mine_edges(&a.succs), their_edges(&b.succs));
            if ap != bp || asu != bsu {
                return Err(format!(
                    "edges of node {k:?} differ: oracle preds {ap:?} succs {asu:?}, \
                     incremental preds {bp:?} succs {bsu:?}"
                ));
            }
        }
        let order_a: Vec<OpId> = self
            .install_order()
            .iter()
            .map(|n| key(&self.nodes[n].ops))
            .collect();
        let order_b: Vec<OpId> = g.install_order().map(|n| key(&g.nodes[&n].ops)).collect();
        if order_a != order_b {
            return Err(format!(
                "install order differs: oracle {order_a:?} vs incremental {order_b:?}"
            ));
        }
        let last_writer: BTreeMap<ObjectId, OpId> = g
            .objects
            .iter()
            .filter_map(|(&x, o)| Some((x, o.last_writer?)))
            .collect();
        if self.last_writer != last_writer {
            return Err("last-writer index differs".into());
        }
        let mine: BTreeMap<(ObjectId, OpId), Vec<OpId>> = self
            .version_readers
            .iter()
            .map(|(&k, r)| (k, r.iter().copied().collect()))
            .collect();
        let theirs: BTreeMap<(ObjectId, OpId), Vec<OpId>> = g
            .objects
            .iter()
            .flat_map(|(&x, o)| {
                o.versions
                    .iter()
                    .map(move |(w, r)| ((x, *w), r.iter().copied().collect()))
            })
            .collect();
        if mine != theirs {
            return Err("version-reader index differs".into());
        }
        Ok(())
    }
}

/// Find one strongly connected component of more than one node, if any:
/// Kosaraju over the whole graph.
pub(super) fn find_cycle_component(nodes: &BTreeMap<&NodeId, &RwNode>) -> Option<BTreeSet<NodeId>> {
    let mut visited: BTreeSet<NodeId> = BTreeSet::new();
    let mut order: Vec<NodeId> = Vec::new();
    for &&start in nodes.keys() {
        if visited.contains(&start) {
            continue;
        }
        let mut stack = vec![(start, false)];
        while let Some((v, done)) = stack.pop() {
            if done {
                order.push(v);
                continue;
            }
            if !visited.insert(v) {
                continue;
            }
            stack.push((v, true));
            for &w in &nodes[&v].succs {
                if !visited.contains(&w) {
                    stack.push((w, false));
                }
            }
        }
    }
    let mut assigned: BTreeSet<NodeId> = BTreeSet::new();
    for &v in order.iter().rev() {
        if assigned.contains(&v) {
            continue;
        }
        let mut comp = BTreeSet::new();
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            if assigned.contains(&u) || !comp.insert(u) {
                continue;
            }
            for &w in &nodes[&u].preds {
                if !assigned.contains(&w) && !comp.contains(&w) {
                    stack.push(w);
                }
            }
        }
        assigned.extend(comp.iter().copied());
        if comp.len() > 1 {
            return Some(comp);
        }
    }
    None
}
