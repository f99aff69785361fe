//! The cache manager (§3–§4).
//!
//! [`Engine`] owns the volatile state: the object cache, the write graph,
//! the dirty object table (object → rSI) and the set of uninstalled
//! operations. Its duties:
//!
//! - **execute** operations against cached values under the WAL protocol,
//! - **install** operations by flushing write-graph nodes in graph order
//!   (`PurgeCache`, Figure 4),
//! - break up multi-object atomic flush sets with **identity writes**
//!   (§4) — or pay for **flush transactions** / **shadow** atomicity,
//! - maintain vSIs and the generalized rSIs that the §5 REDO test uses,
//! - **checkpoint**: log the dirty object table and truncate the log.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use llog_ops::{table1, LogPolicy, OpKind, Operation, Transform, TransformRegistry};
use llog_storage::{Metrics, ShadowStore, StableStore, VersionStore};
use llog_types::{LlogError, Lsn, ObjectId, OpId, Result, Value};
use llog_wal::{
    CheckpointRecord, ConvertedRecord, InstallRecord, LogRecord, PhysicalResultRecord, Wal,
};

use crate::media::{Backup, BackupInProgress, BackupMode};
use crate::rwgraph::oracle::ReferenceRwGraph;
use crate::rwgraph::{NodeId, RWGraph};
use crate::wgraph::WriteGraph;

/// Which write graph drives flushing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// The write graph `W` of \[LT95\]: rebuilt per purge, `vars = Writes`,
    /// flush sets only grow.
    W,
    /// The paper's refined write graph, maintained incrementally.
    RW,
}

/// How multi-object atomic flush sets are handled when they arise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushStrategy {
    /// §4: issue cache-manager identity writes until `|vars(n)| ≤ 1`, then
    /// flush one object. Only meaningful with [`GraphKind::RW`] — in `W`
    /// an identity write joins the very node it tries to shrink.
    IdentityWrites,
    /// §4 baseline: wrap the multi-object flush in a logged flush
    /// transaction (values logged, commit forced, then in-place writes).
    /// Quiesces the system for the duration.
    FlushTxn,
    /// System R baseline: shadow-page the flush set and swing the root.
    Shadow,
    /// Refuse multi-object flushes (the \[Lomet98\] restriction): callers
    /// must avoid logical writes or installation fails.
    Forbid,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Which write graph drives flushing.
    pub graph: GraphKind,
    /// How multi-object atomic flush sets are handled.
    pub flush: FlushStrategy,
    /// Retain the full history and installed set so tests can run the
    /// explainability oracle against the live engine.
    pub audit: bool,
    /// How each executed operation is logged: always logical (the paper's
    /// baseline and the default), always physical-result, or an adaptive
    /// per-op break-even decision. Adaptive mode also converts cold logical
    /// records to physical at checkpoint time.
    pub log_policy: LogPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            graph: GraphKind::RW,
            flush: FlushStrategy::IdentityWrites,
            audit: false,
            log_policy: LogPolicy::Logical,
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    value: Value,
    /// vSI: lSI of the last operation that updated the cached value.
    vsi: Lsn,
    dirty: bool,
    /// Set by a Delete operation; installation removes the object.
    deleted: bool,
    /// LRU clock tick of the last access (eviction order).
    last_access: u64,
}

#[derive(Debug, Clone)]
struct LiveOp {
    op: Operation,
    lsn: Lsn,
    /// Post-images, retained only for operations a checkpoint may still
    /// convert to physical (logical records under an adaptive policy).
    /// Values are `Arc`-backed, so this shares rather than copies bytes.
    outputs: Option<Vec<Value>>,
}

/// The recovery engine: stable store + WAL + volatile cache + write graph.
pub struct Engine {
    config: EngineConfig,
    registry: TransformRegistry,
    metrics: Arc<Metrics>,
    store: StableStore,
    wal: Wal,
    rw: RWGraph,
    cache: HashMap<ObjectId, CacheEntry>,
    /// Uninstalled operations, keyed by id (= arrival order).
    live_ops: BTreeMap<OpId, LiveOp>,
    /// Uninstalled writers per object, ordered by lSI (for rSI computation).
    writers: HashMap<ObjectId, BTreeMap<Lsn, OpId>>,
    /// The dirty object table: object → rSI.
    dirty_rsi: BTreeMap<ObjectId, Lsn>,
    next_op: u64,
    /// Bounded cache: maximum number of cached objects (None = unbounded).
    cache_capacity: Option<usize>,
    /// Reentrancy guard: capacity enforcement triggers installs, which
    /// execute identity writes, which would re-enter enforcement.
    enforcing: bool,
    /// LRU clock for cache entries.
    clock: u64,
    /// In-progress fuzzy backup, if any.
    backup: Option<BackupInProgress>,
    /// MVCC version chains for lock-free snapshot reads, once enabled.
    /// Every update that lands in the cache is also published here.
    versions: Option<Arc<VersionStore>>,
    /// Live operations already covered by a checkpoint-time conversion
    /// record (avoids re-emitting across checkpoints; entries retire with
    /// their operations).
    converted: BTreeSet<OpId>,
    // Audit state (only populated when config.audit).
    full_history: Vec<Operation>,
    /// The whole-graph `rW` oracle, run beside `rw` and compared with it
    /// after every operation and install.
    rw_oracle: Option<ReferenceRwGraph>,
    installed_ops: BTreeSet<OpId>,
}

impl Engine {
    /// Create a new instance.
    pub fn new(config: EngineConfig, registry: TransformRegistry) -> Engine {
        let metrics = Metrics::new();
        Engine::with_parts(
            config,
            registry,
            StableStore::new(metrics.clone()),
            Wal::new(metrics.clone()),
            metrics,
        )
    }

    /// Assemble an engine from existing parts (the recovery path).
    pub fn with_parts(
        config: EngineConfig,
        registry: TransformRegistry,
        store: StableStore,
        wal: Wal,
        metrics: Arc<Metrics>,
    ) -> Engine {
        Engine {
            config,
            registry,
            metrics,
            store,
            wal,
            rw: RWGraph::new(),
            cache: HashMap::new(),
            live_ops: BTreeMap::new(),
            writers: HashMap::new(),
            dirty_rsi: BTreeMap::new(),
            next_op: 0,
            cache_capacity: None,
            enforcing: false,
            clock: 0,
            backup: None,
            versions: None,
            converted: BTreeSet::new(),
            full_history: Vec::new(),
            rw_oracle: (config.audit && config.graph == GraphKind::RW).then(ReferenceRwGraph::new),
            installed_ops: BTreeSet::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }
    /// The shared cost ledger.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }
    /// The stable object store.
    pub fn store(&self) -> &StableStore {
        &self.store
    }
    /// The write-ahead log (read-only view).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }
    /// Mutable access to the write-ahead log (forcing, crash simulation).
    pub fn wal_mut(&mut self) -> &mut Wal {
        &mut self.wal
    }
    /// The live refined write graph.
    pub fn rw_graph(&self) -> &RWGraph {
        &self.rw
    }
    /// The transform registry used for execution and replay.
    pub fn registry(&self) -> &TransformRegistry {
        &self.registry
    }
    /// The dirty object table (object → rSI).
    pub fn dirty_table(&self) -> &BTreeMap<ObjectId, Lsn> {
        &self.dirty_rsi
    }
    /// Number of uninstalled (live) operations.
    pub fn uninstalled_count(&self) -> usize {
        self.live_ops.len()
    }
    /// Number of dirty objects in cache.
    pub fn dirty_count(&self) -> usize {
        self.cache.values().filter(|e| e.dirty).count()
    }
    /// Next operation id to be assigned (recovery seeds this).
    pub fn set_next_op(&mut self, next: u64) {
        self.next_op = next;
    }

    /// Turn on MVCC version publication and return the shared store.
    ///
    /// Seeds the chains from the engine's current state — the stable image
    /// first (each object at its installed `vSI`), then the cache overlay
    /// (uninstalled updates at their `lSI`s) — so calling this right after
    /// recovery reconstructs exactly the versions a pre-crash reader could
    /// still need. From then on every executed, replayed or adopted update
    /// publishes its outputs as immutable versions keyed by its `lSI`.
    pub fn enable_versions(&mut self) -> Arc<VersionStore> {
        let vs = VersionStore::new(self.metrics.clone());
        for (&x, stored) in self.store.iter() {
            vs.publish(x, stored.vsi, stored.value.clone(), false);
        }
        for (&x, e) in &self.cache {
            vs.publish(x, e.vsi, e.value.clone(), e.deleted);
        }
        self.versions = Some(vs.clone());
        vs
    }

    /// The MVCC version store, if [`enable_versions`](Self::enable_versions)
    /// has been called.
    pub fn versions(&self) -> Option<&Arc<VersionStore>> {
        self.versions.as_ref()
    }

    /// The engine's current view of an object: cache, else stable store.
    pub fn read_value(&mut self, x: ObjectId) -> Value {
        self.read_entry(x).value
    }

    /// The current vSI of an object (cache, else stable store; faulting it
    /// in counts as an I/O, like reading a page header). The REDO tests use
    /// this.
    pub fn current_vsi(&mut self, x: ObjectId) -> Lsn {
        self.read_entry(x).vsi
    }

    /// Ids of the uninstalled (live) operations.
    pub fn live_op_ids(&self) -> BTreeSet<OpId> {
        self.live_ops.keys().copied().collect()
    }

    /// The engine's view without promoting into cache or counting I/O
    /// (test/oracle use).
    pub fn peek_value(&self, x: ObjectId) -> Value {
        if let Some(e) = self.cache.get(&x) {
            return e.value.clone();
        }
        self.store
            .peek(x)
            .map(|o| o.value.clone())
            .unwrap_or_else(Value::empty)
    }

    fn read_entry(&mut self, x: ObjectId) -> CacheEntry {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.cache.get_mut(&x) {
            e.last_access = clock;
            return e.clone();
        }
        let stored = self.store.read(x);
        let entry = CacheEntry {
            value: stored.value,
            vsi: stored.vsi,
            dirty: false,
            deleted: false,
            last_access: clock,
        };
        self.cache.insert(x, entry.clone());
        self.enforce_capacity();
        entry
    }

    /// Bound the cache to `capacity` objects (`None` = unbounded). Under
    /// pressure, clean objects are evicted in LRU order; if everything is
    /// dirty, minimal write-graph nodes are installed to create clean
    /// entries ("the volatile state can be (nearly) full, requiring that
    /// objects currently present be removed to make room", §3).
    pub fn set_cache_capacity(&mut self, capacity: Option<usize>) {
        self.cache_capacity = capacity;
        self.enforce_capacity();
    }

    /// Number of objects currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    fn enforce_capacity(&mut self) {
        let Some(cap) = self.cache_capacity else {
            return;
        };
        if self.enforcing {
            return; // re-entered from an install's own identity writes
        }
        self.enforcing = true;
        let mut install_budget = 64usize;
        while self.cache.len() > cap {
            // Evict the least-recently-used clean object.
            let victim = self
                .cache
                .iter()
                .filter(|(_, e)| !e.dirty)
                .min_by_key(|(_, e)| e.last_access)
                .map(|(&x, _)| x);
            if let Some(x) = victim {
                self.cache.remove(&x);
                Metrics::bump(&self.metrics.evictions, 1);
                continue;
            }
            // Everything is dirty: install to create clean entries.
            install_budget = install_budget.saturating_sub(1);
            match self.install_one() {
                Ok(true) if install_budget > 0 => continue,
                // Nothing left to install (or budget spent): unexposed
                // objects legitimately stay dirty; accept the overshoot.
                _ => break,
            }
        }
        self.enforcing = false;
    }

    /// Execute a new operation: read its inputs, apply its transform, log it
    /// (buffered), update the cache and the write graph. Returns the
    /// operation id and its lSI.
    ///
    /// Hybrid logging happens here: the configured [`LogPolicy`] decides per
    /// operation whether to log the logical description or a
    /// [`PhysicalResultRecord`] carrying the post-images just computed. When
    /// the physical form is chosen, the engine registers the *physicalized*
    /// op (empty readset, `CONST` transform) in its volatile state, so the
    /// write graph, rSI machinery and a post-crash recovery all see exactly
    /// the same blind-write operation.
    pub fn execute(
        &mut self,
        kind: OpKind,
        reads: Vec<ObjectId>,
        writes: Vec<ObjectId>,
        transform: Transform,
    ) -> Result<(OpId, Lsn)> {
        let id = OpId(self.next_op);
        let op = Operation::new(id, kind, reads, writes, transform);
        let inputs: Vec<Value> = op.reads.iter().map(|&x| self.read_entry(x).value).collect();
        let outputs = self
            .registry
            .apply(op.id, &op.transform, &inputs, op.writes.len())?;
        // Inputs validated; the op is now part of the history.
        self.next_op += 1;
        let log_physical = kind != OpKind::Delete && !op.carries_values() && {
            self.config.log_policy.prefer_physical(
                &self.registry,
                op.transform.fn_id,
                op.log_payload_len(),
                physical_payload_len(&op.writes, &outputs),
            )
        };
        let (op, lsn) = if log_physical {
            let pr = PhysicalResultRecord {
                id,
                origin_fn: op.transform.fn_id,
                writes: op.writes.clone(),
                values: outputs.clone(),
            };
            let lsn = self.wal.append(&LogRecord::PhysicalResult(pr.clone()));
            (pr.to_operation(), lsn)
        } else {
            let lsn = self.wal.append(&LogRecord::Op(op.clone()));
            (op, lsn)
        };
        let record_bytes = self.wal.end_lsn().0.saturating_sub(lsn.0);
        if log_physical {
            Metrics::bump(&self.metrics.log_records_physical, 1);
            Metrics::bump(&self.metrics.log_bytes_physical, record_bytes);
        } else {
            Metrics::bump(&self.metrics.log_records_logical, 1);
            Metrics::bump(&self.metrics.log_bytes_logical, record_bytes);
        }
        let kept = self.convertible_outputs(&op, &outputs);
        self.apply_outputs(&op, lsn, outputs);
        self.add_to_graph(&op);
        self.live_ops.insert(
            id,
            LiveOp {
                op: op.clone(),
                lsn,
                outputs: kept,
            },
        );
        if self.config.audit {
            self.full_history.push(op);
        }
        Ok((id, lsn))
    }

    /// Post-images worth retaining for checkpoint-time conversion: only
    /// value-free records (logical/physiological) under a converting policy
    /// need them — physical records already carry their values in the log.
    fn convertible_outputs(&self, op: &Operation, outputs: &[Value]) -> Option<Vec<Value>> {
        (self.config.log_policy.converts_at_checkpoint()
            && op.kind != OpKind::Delete
            && !op.carries_values())
        .then(|| outputs.to_vec())
    }

    /// Re-attach a logged operation during recovery: same cache effects as
    /// [`execute`](Self::execute) but nothing is appended to the log and the
    /// original lSI is kept. The caller has already decided (via the REDO
    /// test) that the operation must be redone.
    pub fn apply_logged(&mut self, op: &Operation, lsn: Lsn) -> Result<()> {
        let inputs: Vec<Value> = op.reads.iter().map(|&x| self.read_entry(x).value).collect();
        let outputs = self
            .registry
            .apply(op.id, &op.transform, &inputs, op.writes.len())?;
        let kept = self.convertible_outputs(op, &outputs);
        self.apply_outputs(op, lsn, outputs);
        self.add_to_graph(op);
        self.live_ops.insert(
            op.id,
            LiveOp {
                op: op.clone(),
                lsn,
                outputs: kept,
            },
        );
        self.next_op = self.next_op.max(op.id.0 + 1);
        if self.config.audit {
            self.full_history.push(op.clone());
        }
        Ok(())
    }

    /// Adopt an operation whose outputs were already computed by a parallel
    /// redo worker: exactly [`apply_logged`](Self::apply_logged) minus the
    /// input reads and transform application. Called in global log order by
    /// the recovery merge step, so the cache, dirty table, writer index and
    /// write graph end up identical to a serial replay.
    pub(crate) fn adopt_replayed(&mut self, op: &Operation, lsn: Lsn, outputs: Vec<Value>) {
        let kept = self.convertible_outputs(op, &outputs);
        self.apply_outputs(op, lsn, outputs);
        self.add_to_graph(op);
        self.live_ops.insert(
            op.id,
            LiveOp {
                op: op.clone(),
                lsn,
                outputs: kept,
            },
        );
        self.next_op = self.next_op.max(op.id.0 + 1);
        if self.config.audit {
            self.full_history.push(op.clone());
        }
    }

    /// `addop_rW` for an operation that just joined the history; audit
    /// mode replays it through the oracle and compares.
    fn add_to_graph(&mut self, op: &Operation) {
        if self.config.graph != GraphKind::RW {
            return;
        }
        self.rw.add_op(op);
        if let Some(oracle) = &mut self.rw_oracle {
            oracle.add_op(op);
            if let Err(e) = oracle.diff(&self.rw) {
                panic!("rW diverged from its oracle after {:?}: {e}", op.id);
            }
        }
    }

    /// The minimal rW node to install next (skipping `skip`): the one whose
    /// first operation is oldest. Audit mode checks the oracle agrees.
    fn next_minimal(&self, skip: Option<NodeId>) -> Option<NodeId> {
        let n = self.rw.install_order().find(|&m| Some(m) != skip);
        if let Some(oracle) = &self.rw_oracle {
            let first = |ops: &[OpId]| ops.first().copied();
            let skip_op = skip
                .and_then(|s| self.rw.node(s))
                .and_then(|nd| first(nd.ops()));
            let expect = oracle
                .install_order()
                .into_iter()
                .filter_map(|m| oracle.node(m).and_then(|nd| first(nd.ops())))
                .find(|&op| Some(op) != skip_op);
            let got = n
                .and_then(|m| self.rw.node(m))
                .and_then(|nd| first(nd.ops()));
            assert_eq!(got, expect, "rW install choice diverged from its oracle");
        }
        n
    }

    fn apply_outputs(&mut self, op: &Operation, lsn: Lsn, outputs: Vec<Value>) {
        let deleted = op.kind == OpKind::Delete;
        for (&x, v) in op.writes.iter().zip(outputs) {
            self.clock += 1;
            if let Some(vs) = &self.versions {
                vs.publish(x, lsn, v.clone(), deleted);
            }
            self.cache.insert(
                x,
                CacheEntry {
                    value: v,
                    vsi: lsn,
                    dirty: true,
                    deleted,
                    last_access: self.clock,
                },
            );
            self.dirty_rsi.entry(x).or_insert(lsn);
            self.writers.entry(x).or_default().insert(lsn, op.id);
        }
        self.enforce_capacity();
    }

    /// Convenience: execute a cache-manager identity write `W_IP(x)` (§4).
    /// Logs the object's current value as a physical record.
    pub fn identity_write(&mut self, x: ObjectId) -> Result<(OpId, Lsn)> {
        let current = self.read_entry(x).value;
        let op = table1::identity_write(OpId(0), x, current);
        Metrics::bump(&self.metrics.identity_writes, 1);
        self.execute(op.kind, op.reads, op.writes, op.transform)
    }

    // ------------------------------------------------------------------
    // Installation (PurgeCache, Figure 4)
    // ------------------------------------------------------------------

    /// Install one minimal write-graph node; returns false if there was
    /// nothing to install. Deterministically picks the minimal node whose
    /// earliest operation is oldest.
    pub fn install_one(&mut self) -> Result<bool> {
        match self.config.graph {
            GraphKind::RW => {
                let Some(n) = self.next_minimal(None) else {
                    return Ok(false);
                };
                self.install_rw_node(n)?;
                Ok(true)
            }
            GraphKind::W => self.install_w_minimal(),
        }
    }

    /// Install everything: drain the write graph (normal-shutdown path and
    /// the "sharp checkpoint" used by experiments).
    pub fn install_all(&mut self) -> Result<()> {
        while self.install_one()? {}
        Ok(())
    }

    /// Install a specific rW node (must be minimal when called).
    ///
    /// With the identity-write strategy, breaking up the flush set can make
    /// the node non-minimal again: turning `Lastw(n,x)` unexposed surfaces
    /// *inverse write-read* predecessors — nodes that read that version and
    /// must install first. Those predecessors are installed (recursively)
    /// before `n`; the recursion terminates because every step installs a
    /// node of an acyclic graph.
    pub fn install_rw_node(&mut self, n: NodeId) -> Result<()> {
        let node = self
            .rw
            .node(n)
            .ok_or_else(|| LlogError::CacheProtocol(format!("no rW node {n:?}")))?;
        if !node.preds().is_empty() {
            return Err(LlogError::CacheProtocol(format!(
                "rW node {n:?} is not minimal"
            )));
        }
        // The identity writes below mutate the graph: they can surface
        // inverse write-read predecessors, and their cycle collapses can
        // merge the node into another. Track it through a representative
        // operation.
        let rep_op = *node.ops().first().expect("node has operations");
        let mut current = n;
        loop {
            let node = self
                .rw
                .node(current)
                .ok_or_else(|| LlogError::CacheProtocol("node lost during breakup".into()))?;
            let vars: Vec<ObjectId> = node.vars().iter().copied().collect();

            // §4: break up a multi-object flush set with identity writes.
            if vars.len() > 1 && self.config.flush == FlushStrategy::IdentityWrites {
                // Keep one object to be flushed directly ("we can avoid the
                // need to log at least one object of the set"): keep the
                // largest, so the smaller values are the ones logged.
                let keep = *vars
                    .iter()
                    .max_by_key(|&&x| self.peek_value(x).len())
                    .expect("nonempty vars");
                for x in vars {
                    // Re-check membership: earlier identity writes may have
                    // reshaped the node.
                    let Some(here) = self.rw.node_of_op(rep_op) else {
                        return Ok(()); // installed by a nested install
                    };
                    let still_in = self.rw.node(here).is_some_and(|nd| nd.vars().contains(&x));
                    if x != keep && still_in {
                        self.identity_write(x)?;
                    }
                }
                let Some(here) = self.rw.node_of_op(rep_op) else {
                    return Ok(()); // installed by a nested install
                };
                current = here;
                continue;
            }

            // Readers of now-unexposed values must install before us: clear
            // any predecessors the breakup surfaced by installing other
            // minimal nodes (the graph is acyclic, so progress is
            // guaranteed).
            if !node.preds().is_empty() {
                let m = self.next_minimal(Some(current)).ok_or_else(|| {
                    LlogError::CacheProtocol("no installable predecessor for broken-up node".into())
                })?;
                self.install_rw_node(m)?;
                // The predecessor's own breakup can close a cycle through
                // this node and install the merged node: then rep_op's
                // node is gone because its operations are installed.
                let Some(here) = self.rw.node_of_op(rep_op) else {
                    return Ok(());
                };
                current = here;
                continue;
            }

            let vars: Vec<ObjectId> = node.vars().iter().copied().collect();
            let ops: Vec<OpId> = node.ops().to_vec();
            let notx: Vec<ObjectId> = node.notx().into_iter().collect();
            self.do_install(&ops, &vars, &notx)?;
            self.rw.remove_node(current);
            if let Some(oracle) = &mut self.rw_oracle {
                let n = oracle.node_of_op(rep_op).expect("oracle holds the node");
                oracle.remove_node(n);
                if let Err(e) = oracle.diff(&self.rw) {
                    panic!("rW diverged from its oracle after installing {rep_op:?}: {e}");
                }
            }
            return Ok(());
        }
    }

    /// W-mode: rebuild `W` from the live operations, install one minimal
    /// node.
    fn install_w_minimal(&mut self) -> Result<bool> {
        let ops_in_order: Vec<Operation> = self.live_ops.values().map(|l| l.op.clone()).collect();
        if ops_in_order.is_empty() {
            return Ok(false);
        }
        let w = WriteGraph::build(&ops_in_order);
        let minimals = w.minimal_nodes();
        let &n = minimals.first().expect("nonempty W has a minimal node");
        let node = &w.nodes()[n];
        let ops = node.ops.clone();
        let vars: Vec<ObjectId> = node.vars.iter().copied().collect();
        // In W, vars(n) = Writes(n): nothing is unexposed.
        self.do_install(&ops, &vars, &[])?;
        Ok(true)
    }

    /// The shared installation core: force the WAL (WAL protocol), flush
    /// `vars` (atomically if multi-object), log the installation, advance
    /// rSIs for `vars ∪ notx`, and retire the operations.
    fn do_install(&mut self, ops: &[OpId], vars: &[ObjectId], notx: &[ObjectId]) -> Result<()> {
        // WAL protocol: all involved operations must be stable first — and
        // so must the later writers of Notx(n). Installing an unexposed
        // object without flushing it leaves its value to be regenerated
        // from their records; if they were lost in a crash, recovery would
        // have to redo these operations against stable state they already
        // overwrote.
        let max_lsn = ops
            .iter()
            .filter_map(|id| self.live_ops.get(id).map(|l| l.lsn))
            .max()
            .ok_or_else(|| LlogError::CacheProtocol("installing unknown ops".into()))?;
        let notx_lsn = notx
            .iter()
            .filter_map(|x| self.writers.get(x)?.keys().next_back().copied())
            .max();
        self.wal
            .force_through(notx_lsn.map_or(max_lsn, |l| l.max(max_lsn)));

        // Flush vars.
        match vars.len() {
            0 => {}
            1 => self.flush_single(vars[0]),
            _ => self.flush_atomic(vars)?,
        }

        // Retire the operations before computing new rSIs.
        for id in ops {
            let live = self.live_ops.remove(id).expect("live op");
            self.converted.remove(id);
            for &x in &live.op.writes {
                if let Some(map) = self.writers.get_mut(&x) {
                    map.remove(&live.lsn);
                    if map.is_empty() {
                        self.writers.remove(&x);
                    }
                }
            }
            if self.config.audit {
                self.installed_ops.insert(*id);
            }
        }

        // New rSIs: lSI of the first still-uninstalled writer (MAX = clean).
        let new_rsi = |engine: &Engine, x: ObjectId| {
            engine
                .writers
                .get(&x)
                .and_then(|m| m.keys().next().copied())
                .unwrap_or(Lsn::MAX)
        };
        let mut install = InstallRecord::default();
        for &x in vars {
            let rsi = new_rsi(self, x);
            install.vars.push((x, rsi));
            if rsi == Lsn::MAX {
                // Clean: flushed value is current; leaves the dirty table.
                self.dirty_rsi.remove(&x);
                if let Some(e) = self.cache.get_mut(&x) {
                    e.dirty = false;
                }
            } else {
                self.dirty_rsi.insert(x, rsi);
            }
        }
        for &x in notx {
            // Unexposed: installed without flushing; stays dirty in cache
            // (the cached value belongs to a later, uninstalled writer).
            let rsi = new_rsi(self, x);
            install.notx.push((x, rsi));
            if rsi == Lsn::MAX {
                self.dirty_rsi.remove(&x);
            } else {
                self.dirty_rsi.insert(x, rsi);
            }
        }
        // Log the installation (§5). Lazy: not forced; the vSI test covers
        // the window until the next force.
        self.wal.append(&LogRecord::Install(install));
        Ok(())
    }

    /// Flush one object in place (single-object writes are atomic).
    fn flush_single(&mut self, x: ObjectId) {
        if let Some(b) = self.backup.as_mut() {
            b.before_overwrite(&self.store, x);
        }
        let entry = self
            .cache
            .get(&x)
            .expect("flushing uncached object")
            .clone();
        if entry.deleted {
            self.store.remove(x);
            self.cache.remove(&x);
            self.wal.append(&LogRecord::Flush {
                obj: x,
                vsi: entry.vsi,
            });
            return;
        }
        self.store.write(x, entry.value.clone(), entry.vsi);
        self.wal.append(&LogRecord::Flush {
            obj: x,
            vsi: entry.vsi,
        });
    }

    /// Flush several objects atomically via the configured §4 baseline.
    fn flush_atomic(&mut self, vars: &[ObjectId]) -> Result<()> {
        match self.config.flush {
            FlushStrategy::Forbid | FlushStrategy::IdentityWrites => {
                // IdentityWrites should have reduced |vars| before we got
                // here; reaching this arm is a protocol error.
                Err(LlogError::AtomicityUnavailable {
                    objects: vars.len(),
                })
            }
            FlushStrategy::FlushTxn => {
                // Freeze the system for the duration (§4).
                Metrics::bump(&self.metrics.quiesces, 1);
                Metrics::bump(&self.metrics.atomic_groups, 1);
                Metrics::bump(&self.metrics.atomic_group_objects, vars.len() as u64);
                self.wal.append(&LogRecord::FlushTxnBegin {
                    objs: vars.to_vec(),
                });
                for &x in vars {
                    let e = self.cache.get(&x).expect("flushing uncached object");
                    self.wal.append(&LogRecord::FlushTxnValue {
                        obj: x,
                        value: e.value.clone(),
                        vsi: e.vsi,
                    });
                }
                self.wal.append(&LogRecord::FlushTxnCommit);
                self.wal.force(); // commit point
                                  // In-place writes, one I/O each, safe now that the txn is
                                  // committed (recovery completes them from the log).
                for &x in vars {
                    if let Some(b) = self.backup.as_mut() {
                        b.before_overwrite(&self.store, x);
                    }
                    let e = self
                        .cache
                        .get(&x)
                        .expect("flushing uncached object")
                        .clone();
                    if e.deleted {
                        self.store.remove(x);
                        self.cache.remove(&x);
                    } else {
                        self.store.write(x, e.value, e.vsi);
                    }
                }
                Ok(())
            }
            FlushStrategy::Shadow => {
                let mut sh = ShadowStore::new();
                let mut deletes = Vec::new();
                for &x in vars {
                    if let Some(b) = self.backup.as_mut() {
                        b.before_overwrite(&self.store, x);
                    }
                    let e = self
                        .cache
                        .get(&x)
                        .expect("flushing uncached object")
                        .clone();
                    if e.deleted {
                        deletes.push(x);
                    } else {
                        sh.stage(&self.store, x, e.value, e.vsi);
                    }
                }
                sh.commit(&mut self.store);
                for x in deletes {
                    self.store.remove(x);
                    self.cache.remove(&x);
                }
                Ok(())
            }
        }
    }

    /// Evict a clean object from the cache to make room. Dirty objects must
    /// be installed first ("we continue to require that an object be clean
    /// before it can be dropped from the cache").
    pub fn evict(&mut self, x: ObjectId) -> Result<()> {
        match self.cache.get(&x) {
            None => Ok(()),
            Some(e) if !e.dirty => {
                self.cache.remove(&x);
                Ok(())
            }
            Some(_) => Err(LlogError::CacheProtocol(format!(
                "evicting dirty object {x}"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Emit checkpoint-time conversion records for cold logical operations
    /// (ROADMAP item 2). Every live (uninstalled) logical op sits at or
    /// after the min-dirty LSN by construction; for each one not yet
    /// covered, an identity-write-style [`ConvertedRecord`] with its cached
    /// post-images is appended, so a redo below the next checkpoint installs
    /// values instead of re-executing the transform. Only policies with
    /// conversion enabled (adaptive) emit anything. Returns the number of
    /// operations converted.
    ///
    /// Crash-safety: conversion records are pure redo *hints* — they change
    /// how a selected redo is performed, never whether or in what order. A
    /// crash that keeps the conversions but loses the checkpoint record (or
    /// vice versa) therefore recovers to the same state as if conversion had
    /// never happened, and re-emitting after such a crash is idempotent.
    pub fn convert_cold_ops(&mut self) -> u64 {
        if !self.config.log_policy.converts_at_checkpoint() {
            return 0;
        }
        let pending: Vec<ConvertedRecord> = self
            .live_ops
            .values()
            .filter(|l| !self.converted.contains(&l.op.id))
            .filter_map(|l| {
                l.outputs.as_ref().map(|outs| ConvertedRecord {
                    at: l.lsn,
                    id: l.op.id,
                    writes: l.op.writes.clone(),
                    values: outs.clone(),
                })
            })
            .collect();
        let n = pending.len() as u64;
        for rec in pending {
            self.converted.insert(rec.id);
            let at = self.wal.append(&LogRecord::Converted(rec));
            let bytes = self.wal.end_lsn().0.saturating_sub(at.0);
            Metrics::bump(&self.metrics.log_bytes_physical, bytes);
        }
        Metrics::bump(&self.metrics.ckpt_ops_converted, n);
        n
    }

    /// Write a fuzzy checkpoint: log the dirty object table and force. If
    /// `truncate`, also discard the log prefix before the redo-scan start
    /// point (only installed operations are dropped).
    ///
    /// Under a converting policy, conversion records for cold logical ops
    /// are appended *before* the checkpoint record (and forced with it):
    /// every hint a recovery starting at this checkpoint's `redo_start`
    /// could use is then at or above `redo_start` and below the checkpoint
    /// record, where the redo scan will see it.
    pub fn checkpoint(&mut self, truncate: bool) -> Result<Lsn> {
        let redo_start = self
            .dirty_rsi
            .values()
            .copied()
            .min()
            .unwrap_or_else(|| self.wal.end_lsn());
        self.convert_cold_ops();
        let cp = CheckpointRecord {
            dirty: self.dirty_rsi.iter().map(|(&x, &rsi)| (x, rsi)).collect(),
            redo_start,
        };
        let lsn = self.wal.append(&LogRecord::Checkpoint(cp));
        self.wal.force();
        if truncate {
            // An in-progress backup pins the log at its redo start: media
            // recovery will need to replay from there.
            let mut cut = redo_start.min(lsn);
            if let Some(b) = &self.backup {
                cut = cut.min(b.redo_start);
            }
            if cut > self.wal.start_lsn() {
                self.wal.truncate_to(cut)?;
            }
        }
        Ok(lsn)
    }

    // ------------------------------------------------------------------
    // Fuzzy backups (media recovery, §1 / [Lomet, Media Recovery])
    // ------------------------------------------------------------------

    /// Begin a fuzzy backup of the stable database. Forces the log first so
    /// the backup-start point is durable. At most one backup runs at a
    /// time.
    pub fn begin_backup(&mut self, mode: BackupMode) -> Result<()> {
        if self.backup.is_some() {
            return Err(LlogError::CacheProtocol(
                "backup already in progress".into(),
            ));
        }
        self.wal.force();
        let start_lsn = self.wal.forced_lsn();
        let redo_start = self
            .dirty_rsi
            .values()
            .copied()
            .min()
            .unwrap_or(start_lsn)
            .max(self.wal.start_lsn());
        let sweep: Vec<ObjectId> = self.store.iter().map(|(&x, _)| x).collect();
        self.backup = Some(BackupInProgress::new(mode, start_lsn, redo_start, sweep));
        Ok(())
    }

    /// Copy up to `n` more objects into the in-progress backup.
    pub fn backup_step(&mut self, n: usize) -> Result<usize> {
        let b = self
            .backup
            .as_mut()
            .ok_or_else(|| LlogError::CacheProtocol("no backup in progress".into()))?;
        Ok(b.step(&self.store, n))
    }

    /// Finish the backup: drains the sweep and returns the restorable
    /// [`Backup`].
    pub fn finish_backup(&mut self) -> Result<Backup> {
        let b = self
            .backup
            .take()
            .ok_or_else(|| LlogError::CacheProtocol("no backup in progress".into()))?;
        Ok(b.finish(&self.store))
    }

    /// The redo-start LSN the in-progress backup pins, if any.
    pub fn backup_redo_start(&self) -> Option<Lsn> {
        self.backup.as_ref().map(|b| b.redo_start)
    }

    /// Apply a physically-logged flushed value (flush-transaction redo
    /// during media recovery): write it stably and cache it clean.
    pub fn apply_flushed_value(&mut self, x: ObjectId, value: Value, vsi: Lsn) {
        self.store.write(x, value.clone(), vsi);
        self.clock += 1;
        self.cache.insert(
            x,
            CacheEntry {
                value,
                vsi,
                dirty: false,
                deleted: false,
                last_access: self.clock,
            },
        );
    }

    /// Like [`checkpoint`](Self::checkpoint) with truncation, but the
    /// discarded log prefix moves into `archive` so media recovery can
    /// still roll a backup forward across it. An in-progress backup's
    /// redo-start pin is honored.
    pub fn checkpoint_archiving(&mut self, archive: &mut llog_wal::LogArchive) -> Result<Lsn> {
        let lsn = self.checkpoint(false)?;
        let mut cut = self
            .dirty_rsi
            .values()
            .copied()
            .min()
            .unwrap_or(lsn)
            .min(lsn);
        if let Some(b) = &self.backup {
            cut = cut.min(b.redo_start);
        }
        if cut > self.wal.start_lsn() {
            self.wal.truncate_to_archiving(cut, archive)?;
        }
        Ok(lsn)
    }

    // ------------------------------------------------------------------
    // Crash & teardown
    // ------------------------------------------------------------------

    /// Crash: drop all volatile state; the stable store and the forced log
    /// prefix survive. Returns the surviving parts.
    pub fn crash(mut self) -> (StableStore, Wal) {
        self.wal.crash();
        (self.store, self.wal)
    }

    /// Crash with a torn log tail (`partial` buffered bytes hit the disk).
    pub fn crash_torn(mut self, partial: usize) -> (StableStore, Wal) {
        self.wal.crash_torn(partial);
        (self.store, self.wal)
    }

    /// Orderly shutdown: install everything, checkpoint, and return parts.
    pub fn shutdown(mut self) -> Result<(StableStore, Wal)> {
        self.install_all()?;
        self.checkpoint(false)?;
        Ok((self.store, self.wal))
    }

    // ------------------------------------------------------------------
    // Audit (test oracle hooks; require config.audit)
    // ------------------------------------------------------------------

    /// The full history executed through this engine (audit mode).
    pub fn audit_history(&self) -> &[Operation] {
        assert!(self.config.audit, "audit mode disabled");
        &self.full_history
    }

    /// Ids of operations this engine has installed (audit mode).
    pub fn audit_installed(&self) -> &BTreeSet<OpId> {
        assert!(self.config.audit, "audit mode disabled");
        &self.installed_ops
    }

    /// Does the engine's installed set explain the stable store? (§2's
    /// central invariant; checked by tests after every install.)
    pub fn audit_explainable(&self) -> Result<bool> {
        assert!(self.config.audit, "audit mode disabled");
        let state: BTreeMap<ObjectId, Value> = self
            .store
            .iter()
            .map(|(&x, o)| (x, o.value.clone()))
            .collect();
        crate::exposed::explains(
            &self.full_history,
            &self.installed_ops,
            &BTreeMap::new(),
            &state,
            &self.registry,
        )
    }

    /// Audit both graph consistency and stable-state explainability.
    pub fn audit_all(&self) -> Result<()> {
        self.rw.check_consistency();
        if !self.audit_explainable()? {
            return Err(LlogError::Unexplainable(
                "installed set does not explain stable store".into(),
            ));
        }
        Ok(())
    }
}

/// Payload bytes a physical-result record would spend for this writeset:
/// object ids, fn id, value-list framing and the post-images themselves —
/// the physical-side quantity the cost model weighs against
/// [`Operation::log_payload_len`].
fn physical_payload_len(writes: &[ObjectId], outputs: &[Value]) -> usize {
    writes.len() * ObjectId::ENCODED_LEN
        + 2 // origin fn id
        + 4 // value count
        + outputs.iter().map(|v| 4 + v.len()).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_ops::builtin;

    const X: ObjectId = ObjectId(1);
    const Y: ObjectId = ObjectId(2);
    const B: ObjectId = ObjectId(3);

    fn engine(flush: FlushStrategy) -> Engine {
        Engine::new(
            EngineConfig {
                graph: GraphKind::RW,
                flush,
                audit: true,
                ..Default::default()
            },
            TransformRegistry::with_builtins(),
        )
    }

    fn exec_logical(e: &mut Engine, reads: &[u64], writes: &[u64], salt: u64) -> (OpId, Lsn) {
        e.execute(
            OpKind::Logical,
            reads.iter().map(|&n| ObjectId(n)).collect(),
            writes.iter().map(|&n| ObjectId(n)).collect(),
            Transform::new(builtin::HASH_MIX, Value::from_slice(&salt.to_le_bytes())),
        )
        .unwrap()
    }

    fn exec_physical(e: &mut Engine, x: u64, v: &str) -> (OpId, Lsn) {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(x)],
            Transform::new(builtin::CONST, builtin::encode_values(&[Value::from(v)])),
        )
        .unwrap()
    }

    #[test]
    fn execute_updates_cache_and_dirty_table() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        let (_, lsn) = exec_physical(&mut e, 1, "v1");
        assert_eq!(e.read_value(X), Value::from("v1"));
        assert_eq!(e.dirty_table().get(&X), Some(&lsn));
        assert_eq!(e.dirty_count(), 1);
        // Nothing flushed yet.
        assert!(e.store().peek(X).is_none());
    }

    #[test]
    fn install_flushes_and_cleans() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "v1");
        assert!(e.install_one().unwrap());
        assert_eq!(e.store().peek(X).unwrap().value, Value::from("v1"));
        assert!(e.dirty_table().is_empty());
        assert_eq!(e.dirty_count(), 0);
        assert!(!e.install_one().unwrap());
        e.audit_all().unwrap();
    }

    #[test]
    fn wal_forced_before_flush() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "v1");
        assert_eq!(e.metrics().snapshot().log_forces, 0);
        e.install_one().unwrap();
        assert!(e.metrics().snapshot().log_forces >= 1);
    }

    #[test]
    fn figure_one_flush_order_enforced() {
        // A: Y ← f(X,Y); B: X ← g(Y). Installing must flush Y's node first.
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_logical(&mut e, &[1, 2], &[2], 0); // A
        exec_logical(&mut e, &[2], &[1], 1); // B
        assert!(e.install_one().unwrap());
        // After one install, Y must be stable, X must not be.
        assert!(e.store().peek(Y).is_some());
        assert!(e.store().peek(X).is_none());
        e.audit_all().unwrap();
        assert!(e.install_one().unwrap());
        assert!(e.store().peek(X).is_some());
        e.audit_all().unwrap();
    }

    #[test]
    fn identity_writes_break_multi_object_set() {
        // One op writes {X, Y}: vars = 2. IdentityWrites strategy must
        // install without any atomic group.
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_logical(&mut e, &[9], &[1, 2], 0);
        e.install_all().unwrap();
        let m = e.metrics().snapshot();
        assert_eq!(m.atomic_groups, 0, "no atomic multi-object flush");
        assert_eq!(m.identity_writes, 1, "one identity write for a pair");
        assert!(e.store().peek(X).is_some());
        assert!(e.store().peek(Y).is_some());
        e.audit_all().unwrap();
    }

    #[test]
    fn flush_txn_strategy_quiesces_and_double_writes() {
        let mut e = engine(FlushStrategy::FlushTxn);
        exec_logical(&mut e, &[9], &[1, 2], 0);
        e.install_all().unwrap();
        let m = e.metrics().snapshot();
        assert_eq!(m.quiesces, 1);
        assert_eq!(m.atomic_groups, 1);
        assert_eq!(m.atomic_group_objects, 2);
        assert_eq!(m.identity_writes, 0);
        e.audit_all().unwrap();
    }

    #[test]
    fn shadow_strategy_counts_root_write() {
        let mut e = engine(FlushStrategy::Shadow);
        exec_logical(&mut e, &[9], &[1, 2], 0);
        e.install_all().unwrap();
        let m = e.metrics().snapshot();
        assert_eq!(m.shadow_commits, 1);
        e.audit_all().unwrap();
    }

    #[test]
    fn forbid_strategy_rejects_multi_object_sets() {
        let mut e = engine(FlushStrategy::Forbid);
        exec_logical(&mut e, &[9], &[1, 2], 0);
        assert!(matches!(
            e.install_all(),
            Err(LlogError::AtomicityUnavailable { objects: 2 })
        ));
    }

    #[test]
    fn figure_seven_unexposed_object_installed_without_flush() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_logical(&mut e, &[9], &[1, 2], 0); // A writes X,Y
        exec_logical(&mut e, &[1], &[3], 1); // B reads X
        exec_physical(&mut e, 1, "blind"); // C blindly writes X

        // Install B's node, then A's node (flushing only Y).
        assert!(e.install_one().unwrap()); // B (minimal)
        assert!(e.install_one().unwrap()); // A via Y only
        assert!(e.store().peek(Y).is_some());
        // X was installed unexposed: not flushed, still dirty with C's value.
        assert!(e.store().peek(X).is_none());
        assert_eq!(e.peek_value(X), Value::from("blind"));
        assert_eq!(e.dirty_count(), 1);
        e.audit_all().unwrap();

        // rSI of X advanced to C's lSI.
        let c_lsn = e.dirty_table()[&X];
        assert!(e.install_one().unwrap()); // C's node flushes X
        assert!(e.dirty_table().is_empty());
        assert_eq!(e.store().peek(X).unwrap().vsi, c_lsn);
        e.audit_all().unwrap();
    }

    #[test]
    fn delete_removes_object_at_install() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "data");
        e.install_all().unwrap();
        assert!(e.store().peek(X).is_some());

        e.execute(
            OpKind::Delete,
            vec![],
            vec![X],
            Transform::new(builtin::DELETE, Value::empty()),
        )
        .unwrap();
        e.install_all().unwrap();
        assert!(e.store().peek(X).is_none());
        assert!(e.dirty_table().is_empty());
    }

    #[test]
    fn eviction_requires_clean() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "v");
        assert!(e.evict(X).is_err());
        e.install_all().unwrap();
        e.evict(X).unwrap();
        // Read faults it back in from stable state.
        assert_eq!(e.read_value(X), Value::from("v"));
    }

    #[test]
    fn checkpoint_truncates_installed_prefix() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        for i in 0..5 {
            exec_physical(&mut e, i, "v");
        }
        e.install_all().unwrap();
        let before = e.wal().stable_len();
        e.checkpoint(true).unwrap();
        let after = e.wal().stable_len();
        assert!(after < before, "log should shrink: {before} -> {after}");
        // The checkpoint record itself survives.
        assert!(e.wal().master_checkpoint().is_some());
    }

    #[test]
    fn checkpoint_preserves_uninstalled_ops() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "a");
        e.install_all().unwrap();
        let (_, keep_lsn) = exec_physical(&mut e, 2, "b"); // uninstalled
        e.checkpoint(true).unwrap();
        assert!(
            e.wal().start_lsn() <= keep_lsn,
            "uninstalled op truncated away"
        );
    }

    #[test]
    fn explainability_holds_after_every_install() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        // A tangle of logical ops.
        exec_logical(&mut e, &[1, 2], &[2], 0);
        exec_logical(&mut e, &[2], &[1], 1);
        exec_logical(&mut e, &[2], &[2], 2);
        exec_logical(&mut e, &[1], &[3], 3);
        exec_physical(&mut e, 1, "blind");
        loop {
            e.audit_all().unwrap();
            if !e.install_one().unwrap() {
                break;
            }
        }
        e.audit_all().unwrap();
        assert!(e.dirty_table().is_empty());
    }

    #[test]
    fn next_op_monotone_across_logged_ops() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        let (id0, _) = exec_physical(&mut e, 1, "a");
        let (id1, _) = exec_physical(&mut e, 2, "b");
        assert!(id1 > id0);
        let op = Operation::physical(10, 3, Value::from("c"));
        e.apply_logged(&op, Lsn(9999)).unwrap();
        let (id2, _) = exec_physical(&mut e, 4, "d");
        assert!(id2.0 > 10);
    }

    #[test]
    fn peek_value_sees_cache_over_store() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "v1");
        e.install_all().unwrap();
        exec_physical(&mut e, 1, "v2");
        assert_eq!(e.peek_value(X), Value::from("v2"));
        assert_eq!(e.store().peek(X).unwrap().value, Value::from("v1"));
    }

    #[test]
    fn w_mode_installs_atomically_with_flush_txn() {
        let mut e = Engine::new(
            EngineConfig {
                graph: GraphKind::W,
                flush: FlushStrategy::FlushTxn,
                audit: true,
                ..Default::default()
            },
            TransformRegistry::with_builtins(),
        );
        exec_logical(&mut e, &[1, 2], &[2], 0); // A
        exec_logical(&mut e, &[2], &[1], 1); // B
        exec_logical(&mut e, &[2], &[2], 2); // C: cycle in W ⇒ one node {X,Y}
        e.install_all().unwrap();
        let m = e.metrics().snapshot();
        assert_eq!(m.atomic_groups, 1);
        assert_eq!(m.atomic_group_objects, 2);
        assert!(e.store().peek(X).is_some());
        assert!(e.store().peek(Y).is_some());
    }

    #[test]
    fn identity_write_logs_value_physically() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_physical(&mut e, 1, "current-value");
        let before = e.metrics().snapshot().log_bytes;
        e.identity_write(X).unwrap();
        let after = e.metrics().snapshot().log_bytes;
        assert!(
            after - before >= "current-value".len() as u64,
            "identity write must log the value"
        );
        assert_eq!(e.read_value(X), Value::from("current-value"));
    }

    #[test]
    fn blind_overwrite_in_cache_keeps_unexposed_dirty() {
        // After installing an unexposed object, its cache entry must remain
        // dirty (stable copy differs).
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_logical(&mut e, &[9], &[1, 2], 0); // writes X,Y
        exec_physical(&mut e, 1, "newer"); // blind write X
        assert!(e.install_one().unwrap()); // installs first node, flushes Y
        let entry_dirty = e.dirty_count();
        assert!(entry_dirty >= 1, "X must stay dirty");
        assert_ne!(
            e.store().peek(X).map(|o| o.value.clone()),
            Some(Value::from("newer"))
        );
    }

    #[test]
    fn bounded_cache_evicts_clean_lru() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        e.set_cache_capacity(Some(4));
        for i in 0..12 {
            exec_physical(&mut e, i, "v");
            e.install_all().unwrap(); // everything becomes clean
        }
        assert!(e.cache_len() <= 4, "cache at {}", e.cache_len());
        assert!(e.metrics().snapshot().evictions >= 8);
        // Evicted objects fault back in correctly.
        assert_eq!(e.read_value(ObjectId(0)), Value::from("v"));
    }

    #[test]
    fn bounded_cache_installs_under_dirty_pressure() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        e.set_cache_capacity(Some(3));
        for i in 0..10 {
            exec_physical(&mut e, i, "v"); // all dirty, no manual installs
        }
        // The cache manager had to install on its own to make room.
        assert!(e.metrics().snapshot().obj_writes > 0);
        assert!(e.cache_len() <= 4, "cache at {}", e.cache_len());
    }

    #[test]
    fn bounded_cache_keeps_recovery_correct() {
        let mut e = engine(FlushStrategy::IdentityWrites);
        e.set_cache_capacity(Some(3));
        exec_logical(&mut e, &[1, 2], &[2], 0);
        exec_logical(&mut e, &[2], &[1], 1);
        exec_physical(&mut e, 3, "c");
        exec_logical(&mut e, &[3, 1], &[4], 2);
        let want: Vec<Value> = (1..=4).map(|i| e.peek_value(ObjectId(i))).collect();
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (rec, _) = crate::recover::recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            EngineConfig::default(),
            crate::redo::RedoPolicy::RsiExposed,
        )
        .unwrap();
        let got: Vec<Value> = (1..=4).map(|i| rec.peek_value(ObjectId(i))).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn b_node_reading_unexposed_version_installs_first() {
        // The inverse write-read edge ordering is enforced end to end.
        let mut e = engine(FlushStrategy::IdentityWrites);
        exec_logical(&mut e, &[9], &[1], 0); // w1 writes X
        exec_logical(&mut e, &[1], &[3], 1); // r reads X, writes B
        exec_physical(&mut e, 1, "blind"); // w2 blind-writes X
        assert!(e.install_one().unwrap());
        // First install must be r's node (B stable), not w1's.
        assert!(e.store().peek(B).is_some());
        e.audit_all().unwrap();
        e.install_all().unwrap();
        e.audit_all().unwrap();
    }

    // ------------------------------------------------------------------
    // Hybrid logging (LogPolicy) tests
    // ------------------------------------------------------------------

    fn policy_engine(policy: LogPolicy) -> Engine {
        Engine::new(
            EngineConfig {
                audit: true,
                log_policy: policy,
                ..Default::default()
            },
            TransformRegistry::with_builtins(),
        )
    }

    fn count_records(e: &mut Engine) -> BTreeMap<&'static str, usize> {
        e.wal_mut().force();
        let mut by = BTreeMap::new();
        for item in e.wal().scan(e.wal().start_lsn()) {
            let name = match item.unwrap().1 {
                LogRecord::Op(_) => "op",
                LogRecord::PhysicalResult(_) => "physres",
                LogRecord::Converted(_) => "converted",
                LogRecord::Checkpoint(_) => "checkpoint",
                _ => "other",
            };
            *by.entry(name).or_insert(0) += 1;
        }
        by
    }

    #[test]
    fn physical_policy_logs_physical_result_records() {
        let mut log = policy_engine(LogPolicy::Logical);
        let mut phy = policy_engine(LogPolicy::Physical);
        for e in [&mut log, &mut phy] {
            exec_logical(e, &[1], &[1], 7);
            exec_logical(e, &[1, 2], &[2], 8);
        }
        // Same visible state either way; only the log encoding differs.
        for x in [X, Y] {
            assert_eq!(log.peek_value(x), phy.peek_value(x));
        }
        assert_eq!(count_records(&mut log).get("op"), Some(&2));
        assert_eq!(count_records(&mut phy).get("physres"), Some(&2));
        let (ls, ps) = (log.metrics().snapshot(), phy.metrics().snapshot());
        assert_eq!((ls.log_records_logical, ls.log_records_physical), (2, 0));
        assert_eq!((ps.log_records_logical, ps.log_records_physical), (0, 2));
        assert!(ps.log_bytes_physical > 0 && ls.log_bytes_logical > 0);
    }

    #[test]
    fn adaptive_policy_flips_to_physical_once_replay_cost_dominates() {
        let mut e = policy_engine(LogPolicy::Adaptive(llog_ops::CostModel::default()));
        // A fat object: HASH_MIX output is input-sized, so its physical
        // record costs ~256 bytes against a ~30-byte logical record.
        exec_physical(&mut e, 1, &"seed".repeat(64));
        // Cold model: the byte economics win, the record stays logical.
        exec_logical(&mut e, &[1], &[1], 1);
        assert_eq!(e.metrics().snapshot().log_records_physical, 0);
        // Make HASH_MIX look ruinously expensive to replay.
        for _ in 0..8 {
            e.registry().note_replay_cost(builtin::HASH_MIX, 50_000_000);
        }
        exec_logical(&mut e, &[1], &[1], 2);
        let s = e.metrics().snapshot();
        assert_eq!(s.log_records_physical, 1);
    }

    #[test]
    fn adaptive_policy_prefers_physical_when_it_is_also_smaller() {
        // 8-byte post-image vs a 30-byte logical record: physical wins on
        // bytes alone, no warm-up needed.
        let mut e = policy_engine(LogPolicy::Adaptive(llog_ops::CostModel::default()));
        exec_logical(&mut e, &[1], &[1], 1);
        assert_eq!(e.metrics().snapshot().log_records_physical, 1);
    }

    #[test]
    fn physical_records_register_the_blind_twin_in_volatile_state() {
        // The runtime op must be the same blind CONST write recovery will
        // synthesize: no read edges, carries values.
        let mut e = policy_engine(LogPolicy::Physical);
        exec_logical(&mut e, &[1], &[2], 3);
        let h = e.audit_history();
        assert_eq!(h.len(), 1);
        assert!(h[0].reads.is_empty());
        assert_eq!(h[0].kind, OpKind::Physical);
        assert!(h[0].carries_values());
        // Blind write: installing it never needs an identity write of its
        // (nonexistent) readset, and audit explainability still holds.
        e.install_all().unwrap();
        assert!(e.audit_explainable().unwrap());
    }

    #[test]
    fn checkpoint_converts_cold_logical_ops_exactly_once() {
        let mut e = policy_engine(LogPolicy::Adaptive(llog_ops::CostModel::default()));
        // Fat objects keep the per-op decision logical (see above); the
        // CONST seeds themselves already carry values, so only the two
        // logical ops are conversion candidates.
        exec_physical(&mut e, 1, &"x".repeat(200));
        exec_physical(&mut e, 2, &"y".repeat(200));
        exec_logical(&mut e, &[1], &[1], 1);
        exec_logical(&mut e, &[1, 2], &[2], 2);
        e.checkpoint(false).unwrap();
        let s = e.metrics().snapshot();
        assert_eq!(s.ckpt_ops_converted, 2);
        let by = count_records(&mut e);
        assert_eq!(by.get("converted"), Some(&2));
        // Still live, but already covered: a second checkpoint emits none.
        e.checkpoint(false).unwrap();
        assert_eq!(e.metrics().snapshot().ckpt_ops_converted, 2);
        assert_eq!(count_records(&mut e).get("converted"), Some(&2));
        // Conversion hints sit below their checkpoint record in the log.
        let mut saw_cp = false;
        for item in e.wal().scan(e.wal().start_lsn()) {
            match item.unwrap().1 {
                LogRecord::Checkpoint(_) => saw_cp = true,
                LogRecord::Converted(_) => {
                    assert!(!saw_cp, "conversions must precede their checkpoint")
                }
                _ => {}
            }
        }
        // Installation retires the conversion bookkeeping with the op.
        e.install_all().unwrap();
        exec_logical(&mut e, &[1], &[1], 9);
        e.checkpoint(false).unwrap();
        assert_eq!(e.metrics().snapshot().ckpt_ops_converted, 3);
    }

    #[test]
    fn non_converting_policies_emit_no_conversions() {
        for policy in [LogPolicy::Logical, LogPolicy::Physical] {
            let mut e = policy_engine(policy);
            exec_logical(&mut e, &[1], &[1], 1);
            e.checkpoint(false).unwrap();
            assert_eq!(e.convert_cold_ops(), 0);
            assert_eq!(e.metrics().snapshot().ckpt_ops_converted, 0);
            assert_eq!(count_records(&mut e).get("converted"), None);
        }
    }
}
