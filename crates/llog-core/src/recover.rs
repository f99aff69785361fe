//! Recovery: the two-pass analysis/redo pipeline (`Recover`, Figure 2,
//! extended with conflict-component parallel replay).
//!
//! Recovery reads the master record for the last stable checkpoint, rebuilds
//! the dirty object table from checkpoint + installation + flush + operation
//! records (*analysis*), completes any committed flush transactions, then
//! re-executes exactly the operations the configured [`RedoPolicy`] selects
//! (*redo*). Redone operations are re-attached to a fresh [`Engine`] —
//! cache, dirty table and write graph are rebuilt, so normal operation (and
//! a second crash) can follow seamlessly; that is what makes recovery
//! idempotent (Theorem 2).
//!
//! The pipeline has four steps:
//!
//! 1. one analysis scan from the master checkpoint;
//! 2. flush-transaction completion;
//! 3. one redo scan from `redo_start` collecting op records and
//!    checkpoint-time conversion hints;
//! 4. replay. With one worker, or when the ops form a single conflict
//!    component, the serial engine loop runs on the calling thread — the
//!    reference every differential compares against. Otherwise the ops are
//!    partitioned into conflict components ([`partition_ops`]) and replayed
//!    on a scoped pool of `min(workers, components)` threads. Ops in
//!    different components touch disjoint `readset ∪ writeset`s, so by the
//!    installation-graph argument of §2 they commute; log order is
//!    preserved *within* each component and the computed outputs are
//!    merged into the engine in global log order.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use llog_ops::{OpKind, Operation, TransformRegistry};
use llog_storage::{Metrics, StableStore};
use llog_types::{LlogError, Lsn, ObjectId, Result, Value};
use llog_wal::{LogRecord, Wal};

use crate::cache::{Engine, EngineConfig};
use crate::partition::partition_ops;
use crate::redo::{dead_records, should_redo, RedoContext, RedoPolicy};

/// What recovery did — the quantities experiments E5/E6 report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Records visited by the analysis pass.
    pub analysis_scanned: u64,
    /// Records visited by the redo pass.
    pub redo_scanned: u64,
    /// Operations re-executed.
    pub redone: u64,
    /// Operation records bypassed by the REDO test (including dead records
    /// of transient objects).
    pub skipped: u64,
    /// Uninstalled deletes applied (cheap; counted separately from redone).
    pub deletes_applied: u64,
    /// Trial executions voided (§5 cases 2b/2c).
    pub voided: u64,
    /// Where the redo scan started.
    pub redo_start: Lsn,
    /// Flush-transaction values reapplied from the log.
    pub ftxn_replayed: u64,
    /// The log ended in a torn record (expected after a mid-force crash).
    pub torn_tail: bool,
}

/// Conversion hints, keyed by the LSN of the logical op a checkpoint-time
/// conversion record physicalizes: the op's writeset and post-images. A hint
/// changes *how* a selected op is redone (adopt the recorded post-images
/// instead of re-executing the transform), never *whether* it is redone —
/// so hints cannot perturb the REDO test or replay order.
type Hints = BTreeMap<Lsn, (Vec<ObjectId>, Vec<Value>)>;

/// Visit every stable record from `from` in log order. Corruption is
/// classified with [`Wal::corruption_is_torn_tail`]: a torn tail (at or
/// after the last force boundary) cleanly ends the scan and makes the
/// result `true`, while mid-log corruption — damage inside a previously
/// forced prefix — is a hard error.
fn scan_log(wal: &Wal, from: Lsn, mut visit: impl FnMut(Lsn, LogRecord)) -> Result<bool> {
    for item in wal.scan(from) {
        match item {
            Ok((lsn, rec)) => visit(lsn, rec),
            Err(LlogError::Corrupt { offset, reason }) => {
                if wal.corruption_is_torn_tail(offset) {
                    return Ok(true);
                }
                return Err(LlogError::Corrupt { offset, reason });
            }
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// Result of the analysis pass.
#[derive(Debug, Clone, Default)]
struct Analysis {
    dirty: BTreeMap<ObjectId, Lsn>,
    /// Values of committed flush transactions, per object in log order,
    /// that no later flush of the object supersedes.
    ftxn_values: BTreeMap<ObjectId, Vec<(Value, Lsn)>>,
    /// Values of the flush transaction begun but not yet committed.
    pending_ftxn: Vec<(ObjectId, Value, Lsn)>,
    redo_start: Lsn,
    scanned: u64,
    torn_tail: bool,
    max_op_id: Option<u64>,
}

impl Analysis {
    /// Advance the analysis state machine by one log record.
    fn step(&mut self, lsn: Lsn, rec: LogRecord) {
        self.scanned += 1;
        match rec {
            LogRecord::Op(op) => self.op(lsn, &op),
            // A physical-result record is, to analysis, exactly a blind
            // physical op whose values are known.
            LogRecord::PhysicalResult(pr) => self.op(lsn, &pr.to_operation()),
            LogRecord::Install(ir) => {
                // A logged flush happened after every committed flush
                // transaction before it: its object's stable value is no
                // longer the transaction's to complete (a later delete
                // would otherwise be undone by the replay below).
                for (x, _) in &ir.vars {
                    self.ftxn_values.remove(x);
                }
                for (x, rsi) in ir.vars.into_iter().chain(ir.notx) {
                    if rsi == Lsn::MAX {
                        self.dirty.remove(&x);
                    } else {
                        self.dirty.insert(x, rsi);
                    }
                }
            }
            LogRecord::Flush { obj, .. } => {
                self.dirty.remove(&obj);
                self.ftxn_values.remove(&obj);
            }
            LogRecord::FlushTxnBegin { .. } => self.pending_ftxn.clear(),
            LogRecord::FlushTxnValue { obj, value, vsi } => {
                self.pending_ftxn.push((obj, value, vsi));
            }
            LogRecord::FlushTxnCommit => {
                for (x, value, vsi) in self.pending_ftxn.drain(..) {
                    self.ftxn_values.entry(x).or_default().push((value, vsi));
                }
            }
            LogRecord::Checkpoint(cp) => {
                // A later checkpoint than the master (its force may have
                // carried it to disk before the crash): adopt its table on
                // top of what we've accumulated — it is a superset summary.
                for (x, rsi) in cp.dirty {
                    self.dirty.entry(x).or_insert(rsi);
                }
            }
            // Redo hints only; the redo scan collects them.
            LogRecord::Converted(_) => {}
        }
    }

    fn op(&mut self, lsn: Lsn, op: &Operation) {
        self.max_op_id = Some(self.max_op_id.map_or(op.id.0, |m| m.max(op.id.0)));
        for &x in &op.writes {
            self.dirty.entry(x).or_insert(lsn);
        }
    }
}

/// The analysis scan: seed the dirty object table from the master
/// checkpoint and fold in every stable record after it.
fn analyze(wal: &Wal) -> Result<Analysis> {
    let mut scan_from = wal.start_lsn();
    let mut a = Analysis::default();

    // The master record points at the last stable checkpoint; seed the dirty
    // object table from it.
    if let Some(cp_lsn) = wal.master_checkpoint() {
        if let LogRecord::Checkpoint(cp) = wal.read_at(cp_lsn)? {
            a.dirty = cp.dirty.into_iter().collect();
            scan_from = cp_lsn;
        } else {
            return Err(LlogError::Corrupt {
                offset: cp_lsn.0,
                reason: "master record does not point at a checkpoint".into(),
            });
        }
    }

    a.torn_tail = scan_log(wal, scan_from, |lsn, rec| a.step(lsn, rec))?;
    a.redo_start = a
        .dirty
        .values()
        .copied()
        .min()
        .unwrap_or_else(|| wal.forced_lsn());
    Ok(a)
}

/// What the redo scan collects.
#[derive(Default)]
struct RedoRange {
    /// Op records in log order (physical results normalized to blind
    /// physical ops).
    ops: Vec<(Lsn, Operation)>,
    hints: Hints,
    /// Records visited.
    scanned: u64,
}

/// The redo scan: every op record and conversion hint from `from` on.
fn collect_redo(wal: &Wal, from: Lsn) -> Result<RedoRange> {
    let mut r = RedoRange::default();
    scan_log(wal, from, |lsn, rec| {
        r.scanned += 1;
        match rec {
            LogRecord::Op(op) => r.ops.push((lsn, op)),
            LogRecord::PhysicalResult(pr) => r.ops.push((lsn, pr.to_operation())),
            LogRecord::Converted(cv) => {
                r.hints.insert(cv.at, (cv.writes, cv.values));
            }
            _ => {}
        }
    })?;
    Ok(r)
}

/// How the component pool disposed of one op record. Carries the
/// computed outputs so the merge step can adopt them without re-reading
/// inputs or re-running the transform.
enum Verdict {
    /// Bypassed by the REDO test or dead-record analysis.
    Skipped,
    /// Trial execution voided (§5 cases 2b/2c).
    Voided,
    /// Re-executed; outputs ready to adopt.
    Redone(Vec<Value>),
    /// An uninstalled delete, applied (accounted separately from redone).
    DeleteApplied(Vec<Value>),
}

/// A replay worker's view of an object: the component-local value/vSI if a
/// prior op in this component wrote it, else faulted from the stable store
/// (a counted read, like the serial cache fault).
fn local_entry(
    local: &mut BTreeMap<ObjectId, (Value, Lsn)>,
    store: &StableStore,
    x: ObjectId,
) -> (Value, Lsn) {
    if let Some(e) = local.get(&x) {
        return e.clone();
    }
    let s = store.read(x);
    local.insert(x, (s.value.clone(), s.vsi));
    (s.value, s.vsi)
}

/// Replay one conflict component in log order against a local cache,
/// mirroring the serial loop's REDO test, trial execution and error
/// semantics exactly. Returns `(op index, verdict)` pairs.
#[allow(clippy::too_many_arguments)]
fn replay_component(
    ops: &[(Lsn, Operation)],
    comp: &[usize],
    dead: &BTreeSet<Lsn>,
    hints: &Hints,
    ctx: &RedoContext<'_>,
    policy: RedoPolicy,
    store: &StableStore,
    registry: &TransformRegistry,
) -> Result<Vec<(usize, Verdict)>> {
    let mut local: BTreeMap<ObjectId, (Value, Lsn)> = BTreeMap::new();
    let mut out = Vec::with_capacity(comp.len());
    for &i in comp {
        let (lsn, op) = &ops[i];
        let lsn = *lsn;
        if dead.contains(&lsn) {
            out.push((i, Verdict::Skipped));
            continue;
        }
        let redo = should_redo(policy, op, lsn, ctx, |x| {
            local_entry(&mut local, store, x).1
        });
        if !redo {
            out.push((i, Verdict::Skipped));
            continue;
        }
        // Conversion hint: adopt the recorded post-images without touching
        // the transform registry — mirroring the serial loop exactly.
        if op.kind != OpKind::Delete {
            if let Some((writes, values)) = hints.get(&lsn) {
                if *writes == op.writes {
                    for (&x, v) in op.writes.iter().zip(values.iter()) {
                        local.insert(x, (v.clone(), lsn));
                    }
                    out.push((i, Verdict::Redone(values.clone())));
                    continue;
                }
            }
        }
        let inputs: Vec<Value> = op
            .reads
            .iter()
            .map(|&x| local_entry(&mut local, store, x).0)
            .collect();
        match registry.apply(op.id, &op.transform, &inputs, op.writes.len()) {
            Ok(outputs) => {
                for (&x, v) in op.writes.iter().zip(outputs.iter()) {
                    local.insert(x, (v.clone(), lsn));
                }
                let verdict = if op.kind == OpKind::Delete {
                    Verdict::DeleteApplied(outputs)
                } else {
                    Verdict::Redone(outputs)
                };
                out.push((i, verdict));
            }
            // Trial execution (§5): the approximate REDO test may select an
            // inapplicable op; void it — except deletes, whose failure the
            // serial loop propagates.
            Err(e) if op.kind == OpKind::Delete => return Err(e),
            Err(
                LlogError::NotApplicable { .. }
                | LlogError::WritesetMismatch { .. }
                | LlogError::Codec { .. },
            ) => out.push((i, Verdict::Voided)),
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Fan the conflict components out over `workers` scoped threads (largest
/// components first) and collect one [`Verdict`] per op.
#[allow(clippy::too_many_arguments)]
fn replay_components(
    ops: &[(Lsn, Operation)],
    components: &[Vec<usize>],
    dead: &BTreeSet<Lsn>,
    hints: &Hints,
    ctx: &RedoContext<'_>,
    policy: RedoPolicy,
    store: &StableStore,
    registry: &TransformRegistry,
    workers: usize,
) -> Result<Vec<Verdict>> {
    // Schedule the biggest components first: the longest serial chain
    // bounds the critical path.
    let mut order: Vec<usize> = (0..components.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(components[c].len()));

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let results: Mutex<Vec<(usize, Verdict)>> = Mutex::new(Vec::with_capacity(ops.len()));
    let failure: Mutex<Option<LlogError>> = Mutex::new(None);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&c) = order.get(k) else { break };
                    match replay_component(
                        ops,
                        &components[c],
                        dead,
                        hints,
                        ctx,
                        policy,
                        store,
                        registry,
                    ) {
                        Ok(vs) => results.lock().unwrap_or_else(|p| p.into_inner()).extend(vs),
                        Err(e) => {
                            stop.store(true, Ordering::Relaxed);
                            failure
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .get_or_insert(e);
                            break;
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    let mut verdicts: Vec<Option<Verdict>> = (0..ops.len()).map(|_| None).collect();
    for (i, v) in results.into_inner().unwrap_or_else(|p| p.into_inner()) {
        verdicts[i] = Some(v);
    }
    verdicts
        .into_iter()
        .map(|v| v.ok_or_else(|| LlogError::Unexplainable("redo verdict missing".into())))
        .collect()
}

/// Recover the database `(store, wal)` after a crash, replaying serially on
/// the calling thread. Returns a ready [`Engine`] (cache, write graph and
/// dirty table rebuilt) and the [`RecoveryOutcome`].
pub fn recover(
    store: StableStore,
    wal: Wal,
    registry: TransformRegistry,
    config: EngineConfig,
    policy: RedoPolicy,
) -> Result<(Engine, RecoveryOutcome)> {
    recover_with(store, wal, registry, config, policy, 1)
}

/// [`recover`] with up to `workers` replay threads (`0` counts as `1`).
/// Every worker count produces an identical store, engine state and
/// [`RecoveryOutcome`]; more workers only pay off when the redone
/// transforms are expensive and the ops split into several conflict
/// components.
pub fn recover_with(
    store: StableStore,
    wal: Wal,
    registry: TransformRegistry,
    config: EngineConfig,
    policy: RedoPolicy,
    workers: usize,
) -> Result<(Engine, RecoveryOutcome)> {
    let metrics = store.metrics().clone();

    let t_analysis = Instant::now();
    let analysis = analyze(&wal)?;
    Metrics::bump(
        &metrics.recovery_analysis_ns,
        t_analysis.elapsed().as_nanos() as u64,
    );

    let mut outcome = RecoveryOutcome {
        analysis_scanned: analysis.scanned,
        torn_tail: analysis.torn_tail,
        ..RecoveryOutcome::default()
    };

    let t_redo = Instant::now();
    let mut store = store;
    // Complete committed flush transactions whose in-place writes may not
    // have finished. Guard on vSI so an old transaction never regresses a
    // newer stable value.
    for (&x, values) in &analysis.ftxn_values {
        for (value, vsi) in values {
            if store.read_vsi(x) < *vsi {
                store.write(x, value.clone(), *vsi);
                outcome.ftxn_replayed += 1;
            }
        }
    }

    let redo_from = if policy == RedoPolicy::Naive {
        wal.start_lsn()
    } else {
        analysis.redo_start
    };
    outcome.redo_start = redo_from;
    let RedoRange {
        ops: op_records,
        hints,
        scanned: redo_scanned,
    } = collect_redo(&wal, redo_from)?;
    outcome.redo_scanned = redo_scanned;
    Metrics::bump(
        &metrics.recovery_records_decoded,
        analysis.scanned + redo_scanned,
    );

    // §5 transient-object optimization (RsiExposed only): records whose
    // effects no surviving state depends on are treated as installed.
    let dead = if policy == RedoPolicy::RsiExposed {
        let deleted_at_end: BTreeSet<ObjectId> = {
            let mut last_delete: BTreeMap<ObjectId, bool> = BTreeMap::new();
            for (_, op) in &op_records {
                for &x in &op.writes {
                    last_delete.insert(x, op.kind == OpKind::Delete);
                }
            }
            last_delete
                .into_iter()
                .filter_map(|(x, deleted)| deleted.then_some(x))
                .collect()
        };
        dead_records(&op_records, &deleted_at_end)
    } else {
        BTreeSet::new()
    };

    let ctx = RedoContext {
        dirty: &analysis.dirty,
    };

    // ------------------------------------------------------------------
    // Replay.
    // ------------------------------------------------------------------
    // Partition only when there is a pool to share the components out.
    let components = if workers > 1 {
        partition_ops(&op_records)
    } else {
        Vec::new()
    };
    let pool = workers.min(components.len()).max(1);
    if workers > 1 {
        Metrics::bump(&metrics.recovery_components, components.len() as u64);
        Metrics::set_gauge(&metrics.recovery_parallel_workers, pool as u64);
    }
    let mut engine;
    if pool > 1 {
        // Workers compute verdicts against component-local caches (the
        // store is shared read-only); nothing is mutated until the merge.
        let verdicts = replay_components(
            &op_records,
            &components,
            &dead,
            &hints,
            &ctx,
            policy,
            &store,
            &registry,
            pool,
        )?;
        engine = Engine::with_parts(config, registry, store, wal, metrics.clone());
        // Merge in global log order: adopting outputs in index order
        // reproduces the serial dirty-table, writer-index and write-graph
        // construction exactly.
        for (i, verdict) in verdicts.into_iter().enumerate() {
            let (lsn, op) = &op_records[i];
            match verdict {
                Verdict::Skipped => {
                    outcome.skipped += 1;
                    Metrics::bump(&metrics.skipped_ops, 1);
                }
                Verdict::Voided => {
                    outcome.voided += 1;
                    Metrics::bump(&metrics.voided_ops, 1);
                }
                Verdict::DeleteApplied(outputs) => {
                    engine.adopt_replayed(op, *lsn, outputs);
                    outcome.deletes_applied += 1;
                }
                Verdict::Redone(outputs) => {
                    engine.adopt_replayed(op, *lsn, outputs);
                    outcome.redone += 1;
                    Metrics::bump(&metrics.redo_ops, 1);
                }
            }
        }
    } else {
        engine = Engine::with_parts(config, registry, store, wal, metrics.clone());
        for (lsn, op) in &op_records {
            let lsn = *lsn;
            if dead.contains(&lsn) {
                outcome.skipped += 1;
                Metrics::bump(&metrics.skipped_ops, 1);
                continue;
            }
            let redo = should_redo(policy, op, lsn, &ctx, |x| engine.current_vsi(x));
            if !redo {
                outcome.skipped += 1;
                Metrics::bump(&metrics.skipped_ops, 1);
                continue;
            }
            if op.kind == OpKind::Delete {
                // Deletes re-attach cheaply; account them separately so the
                // redo counts reflect re-executed *work*.
                engine.apply_logged(op, lsn)?;
                outcome.deletes_applied += 1;
                continue;
            }
            // A checkpoint-time conversion record physicalized this op:
            // adopt the recorded post-images blindly instead of re-running
            // the transform. Determinism makes the adopted values identical
            // to what re-execution would compute; a writeset mismatch
            // (handcrafted log) falls back to ordinary re-execution.
            if let Some((writes, values)) = hints.get(&lsn) {
                if *writes == op.writes {
                    engine.adopt_replayed(op, lsn, values.clone());
                    outcome.redone += 1;
                    Metrics::bump(&metrics.redo_ops, 1);
                    continue;
                }
            }
            // Trial execution (§5): an operation the approximate test
            // selected may be inapplicable; errors void it rather than
            // failing recovery.
            match engine.apply_logged(op, lsn) {
                Ok(()) => {
                    outcome.redone += 1;
                    Metrics::bump(&metrics.redo_ops, 1);
                }
                Err(LlogError::NotApplicable { .. })
                | Err(LlogError::WritesetMismatch { .. })
                | Err(LlogError::Codec { .. }) => {
                    outcome.voided += 1;
                    Metrics::bump(&metrics.voided_ops, 1);
                }
                Err(e) => return Err(e),
            }
        }
    }

    if let Some(max_id) = analysis.max_op_id {
        engine.set_next_op(max_id + 1);
    }
    Metrics::bump(
        &metrics.recovery_redo_ns,
        t_redo.elapsed().as_nanos() as u64,
    );
    Ok((engine, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{FlushStrategy, GraphKind};
    use llog_ops::{builtin, Transform};
    use llog_types::{OpId, Value};

    const X: ObjectId = ObjectId(1);
    const Y: ObjectId = ObjectId(2);

    fn config() -> EngineConfig {
        EngineConfig {
            graph: GraphKind::RW,
            flush: FlushStrategy::IdentityWrites,
            audit: false,
            log_policy: llog_ops::LogPolicy::Logical,
        }
    }

    fn fresh_engine() -> Engine {
        Engine::new(config(), TransformRegistry::with_builtins())
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

    fn exec_logical(e: &mut Engine, reads: &[u64], writes: &[u64], salt: u64) -> (OpId, Lsn) {
        e.execute(
            OpKind::Logical,
            reads.iter().map(|&n| ObjectId(n)).collect(),
            writes.iter().map(|&n| ObjectId(n)).collect(),
            Transform::new(builtin::HASH_MIX, Value::from_slice(&salt.to_le_bytes())),
        )
        .unwrap()
    }

    fn recover_parts(
        store: StableStore,
        wal: Wal,
        policy: RedoPolicy,
    ) -> (Engine, RecoveryOutcome) {
        recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            config(),
            policy,
        )
        .unwrap()
    }

    #[test]
    fn forced_but_unflushed_op_is_redone() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "v1");
        e.wal_mut().force();
        let (store, wal) = e.crash();

        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.redone, 1);
        assert_eq!(recovered.read_value(X), Value::from("v1"));
    }

    #[test]
    fn unforced_op_is_lost() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "v1"); // never forced
        let (store, wal) = e.crash();
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.redone, 0);
        assert!(recovered.read_value(X).is_empty());
    }

    #[test]
    fn installed_op_is_skipped_by_vsi() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "v1");
        e.install_all().unwrap();
        let (store, wal) = e.crash();
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.redone, 0);
        assert_eq!(out.skipped, 1);
        assert_eq!(recovered.read_value(X), Value::from("v1"));
    }

    #[test]
    fn naive_policy_is_unsound_for_logical_ops() {
        // A: Y ← f(X,Y) installed; B: X ← g(Y) logged but uninstalled.
        // Redoing A against post-A state corrupts Y. This is the §5 safety
        // violation the SI tests exist to prevent.
        let mut e = fresh_engine();
        exec_logical(&mut e, &[1, 2], &[2], 0); // A
        e.install_all().unwrap();
        exec_logical(&mut e, &[2], &[1], 1); // B uninstalled
        e.wal_mut().force();
        let expected_y = e.peek_value(Y);
        let (store, wal) = e.crash();

        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Naive);
        assert!(out.redone >= 2);
        // Naive redo re-applied A: Y is now wrong.
        assert_ne!(recovered.read_value(Y), expected_y);
    }

    #[test]
    fn vsi_policy_is_sound_for_logical_ops() {
        let mut e = fresh_engine();
        exec_logical(&mut e, &[1, 2], &[2], 0); // A
        e.install_all().unwrap();
        exec_logical(&mut e, &[2], &[1], 1); // B uninstalled
        e.wal_mut().force();
        let expected_x = e.peek_value(X);
        let expected_y = e.peek_value(Y);
        let (store, wal) = e.crash();

        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.redone, 1); // only B
        assert_eq!(recovered.read_value(X), expected_x);
        assert_eq!(recovered.read_value(Y), expected_y);
    }

    #[test]
    fn rsi_policy_skips_unexposed_installs() {
        // Figure 7 at recovery time: A writes {X,Y}; blind write C makes X
        // unexposed; installing A's node flushes only Y but logs an Install
        // record advancing X's rSI. After a crash, A must be skipped even
        // though X's stable vSI is stale.
        let mut e = fresh_engine();
        exec_logical(&mut e, &[9], &[1, 2], 0); // A writes X,Y
        exec_physical(&mut e, 1, "blind"); // C
        assert!(e.install_one().unwrap()); // installs A (flushes Y only)
        e.wal_mut().force(); // make the Install record stable
        let (store, wal) = e.crash();

        let (_, out) = recover_parts(store, wal, RedoPolicy::RsiExposed);
        // Only C is redone. A is never even scanned: X's rSI advanced to
        // C's lSI when A's node was installed, so the redo scan starts at C.
        assert_eq!(out.redone, 1);
        assert_eq!(out.skipped, 0);
        assert!(out.redo_start > Lsn(1), "redo scan must skip A's record");
    }

    #[test]
    fn recovery_is_idempotent_across_repeated_crashes() {
        let mut e = fresh_engine();
        exec_logical(&mut e, &[1, 2], &[2], 0);
        exec_logical(&mut e, &[2], &[1], 1);
        exec_physical(&mut e, 3, "c");
        e.wal_mut().force();
        let (store, wal) = e.crash();

        let (engine1, _) = recover_parts(store, wal, RedoPolicy::Vsi);
        let x1 = engine1.peek_value(X);
        let y1 = engine1.peek_value(Y);
        // Crash again mid-recovery aftermath without installing anything.
        let (store2, wal2) = engine1.crash();
        let (engine2, _) = recover_parts(store2, wal2, RedoPolicy::Vsi);
        assert_eq!(engine2.peek_value(X), x1);
        assert_eq!(engine2.peek_value(Y), y1);

        // And once more after partial installation.
        let mut engine2 = engine2;
        engine2.install_one().unwrap();
        let x2 = engine2.peek_value(X);
        let y2 = engine2.peek_value(Y);
        assert_eq!((x2.clone(), y2.clone()), (x1, y1));
        let (store3, wal3) = engine2.crash();
        let (engine3, _) = recover_parts(store3, wal3, RedoPolicy::Vsi);
        assert_eq!(engine3.peek_value(X), x2);
        assert_eq!(engine3.peek_value(Y), y2);
    }

    #[test]
    fn committed_flush_txn_completed_after_crash() {
        // Build a log with a committed flush txn whose in-place writes were
        // lost: handcraft via engine internals.
        let metrics = Metrics::new();
        let store = StableStore::new(metrics.clone());
        let mut wal = Wal::new(metrics.clone());
        wal.append(&LogRecord::FlushTxnBegin { objs: vec![X, Y] });
        wal.append(&LogRecord::FlushTxnValue {
            obj: X,
            value: Value::from("fx"),
            vsi: Lsn(5),
        });
        wal.append(&LogRecord::FlushTxnValue {
            obj: Y,
            value: Value::from("fy"),
            vsi: Lsn(6),
        });
        wal.append(&LogRecord::FlushTxnCommit);
        wal.force();
        // crash happened right after commit: no in-place writes occurred.
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.ftxn_replayed, 2);
        assert_eq!(recovered.read_value(X), Value::from("fx"));
        assert_eq!(recovered.read_value(Y), Value::from("fy"));
    }

    #[test]
    fn uncommitted_flush_txn_is_ignored() {
        let metrics = Metrics::new();
        let store = StableStore::new(metrics.clone());
        let mut wal = Wal::new(metrics.clone());
        wal.append(&LogRecord::FlushTxnBegin { objs: vec![X] });
        wal.append(&LogRecord::FlushTxnValue {
            obj: X,
            value: Value::from("fx"),
            vsi: Lsn(5),
        });
        // no commit
        wal.force();
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.ftxn_replayed, 0);
        assert!(recovered.read_value(X).is_empty());
    }

    #[test]
    fn old_flush_txn_never_regresses_newer_state() {
        let metrics = Metrics::new();
        let mut store = StableStore::new(metrics.clone());
        store.write(X, Value::from("newer"), Lsn(100));
        let mut wal = Wal::new(metrics.clone());
        wal.append(&LogRecord::FlushTxnBegin { objs: vec![X] });
        wal.append(&LogRecord::FlushTxnValue {
            obj: X,
            value: Value::from("older"),
            vsi: Lsn(5),
        });
        wal.append(&LogRecord::FlushTxnCommit);
        wal.force();
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert_eq!(out.ftxn_replayed, 0);
        assert_eq!(recovered.read_value(X), Value::from("newer"));
    }

    #[test]
    fn committed_flush_txn_never_resurrects_a_later_delete() {
        let cfg = EngineConfig {
            flush: FlushStrategy::FlushTxn,
            ..config()
        };
        let mut e = Engine::new(cfg, TransformRegistry::with_builtins());
        // One op writing X and Y installs through a flush transaction.
        exec_logical(&mut e, &[9], &[1, 2], 7);
        e.install_all().unwrap();
        e.execute(
            OpKind::Delete,
            vec![],
            vec![X],
            Transform::new(builtin::DELETE, Value::empty()),
        )
        .unwrap();
        e.install_all().unwrap();
        e.wal_mut().force();
        let (store, wal) = e.crash();
        assert!(store.peek(X).is_none());
        let (mut recovered, out) = recover(
            store,
            wal,
            TransformRegistry::with_builtins(),
            cfg,
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        assert_eq!(out.ftxn_replayed, 0);
        assert!(recovered.read_value(X).is_empty());
        assert!(!recovered.read_value(Y).is_empty());
    }

    #[test]
    fn an_install_forces_the_records_that_regenerate_its_unexposed_objects() {
        // One op writes X and Y and is forced; installing its node
        // identity-writes one of them (logged, not yet forced) and flushes
        // only the other. The unflushed value now lives only in that
        // identity write's record, so the install must force it before the
        // flushed one reaches the store.
        let mut e = fresh_engine();
        exec_logical(&mut e, &[9], &[1, 2], 3);
        e.wal_mut().force();
        assert!(e.install_one().unwrap());
        let want = (e.peek_value(X), e.peek_value(Y));
        let (store, wal) = e.crash();
        assert_eq!(store.len(), 1, "one object flushed, one identity-written");
        let (recovered, _) = recover_parts(store, wal, RedoPolicy::RsiExposed);
        assert_eq!((recovered.peek_value(X), recovered.peek_value(Y)), want);
    }

    #[test]
    fn a_flushed_write_witnesses_its_op_despite_a_lost_install_record() {
        // The install record that would advance Y's rSI is torn off; the
        // logged flush of X still shows the op installed, so redo must not
        // re-run it against the X it already overwrote.
        let mut e = fresh_engine();
        // Reads Y: a redo over the flushed Y would compute from its own
        // output. (The breakup keeps the larger value, the later one on a
        // tie: Y is flushed, X identity-written.)
        exec_logical(&mut e, &[2, 9], &[1, 2], 4);
        assert!(e.install_one().unwrap());
        let want = (e.peek_value(X), e.peek_value(Y));
        let tail = e.wal().end_lsn().0 - e.wal().forced_lsn().0;
        let (store, wal) = e.crash_torn(tail as usize - 1);
        let (recovered, out) = recover_parts(store, wal, RedoPolicy::RsiExposed);
        assert!(out.torn_tail);
        assert_eq!((recovered.peek_value(X), recovered.peek_value(Y)), want);
    }

    #[test]
    fn torn_tail_truncates_recovery_cleanly() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "v1");
        e.wal_mut().force();
        exec_physical(&mut e, 2, "v2"); // this record will be torn
        let (store, wal) = e.crash_torn(6);
        let (mut recovered, out) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert!(out.torn_tail);
        assert_eq!(out.redone, 1);
        assert_eq!(recovered.read_value(X), Value::from("v1"));
        assert!(recovered.read_value(Y).is_empty());
    }

    #[test]
    fn checkpoint_bounds_the_analysis_scan() {
        let mut e = fresh_engine();
        for i in 0..20 {
            exec_physical(&mut e, i % 3, "v");
        }
        e.install_all().unwrap();
        e.checkpoint(true).unwrap();
        exec_physical(&mut e, 7, "tail");
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (_, out) = recover_parts(store, wal, RedoPolicy::RsiExposed);
        // Analysis starts at the checkpoint: only checkpoint + tail records.
        assert!(
            out.analysis_scanned <= 4,
            "scanned {} records",
            out.analysis_scanned
        );
        assert_eq!(out.redone, 1);
    }

    #[test]
    fn recovery_continues_into_normal_operation() {
        let mut e = fresh_engine();
        exec_logical(&mut e, &[1, 2], &[2], 0);
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (mut recovered, _) = recover_parts(store, wal, RedoPolicy::Vsi);
        // Keep going: new ops, install everything, verify stability.
        exec_logical(&mut recovered, &[2], &[1], 1);
        recovered.install_all().unwrap();
        assert!(recovered.dirty_table().is_empty());
        assert!(recovered.store().peek(X).is_some());
        assert!(recovered.store().peek(Y).is_some());
    }

    /// Everything the differential oracle compares between two recovered
    /// engines.
    fn engine_fingerprint(e: &Engine) -> impl PartialEq + std::fmt::Debug {
        (
            e.store().snapshot(),
            e.dirty_table().clone(),
            e.live_op_ids(),
            (0..8u64)
                .map(|i| e.peek_value(ObjectId(i)))
                .collect::<Vec<_>>(),
        )
    }

    /// Build a small mixed workload: two disjoint logical chains, a shared
    /// chain, a physical write and a partial install, then crash.
    fn mixed_workload() -> (StableStore, Wal) {
        let mut e = fresh_engine();
        for salt in 0..4 {
            exec_logical(&mut e, &[1], &[1], salt);
            exec_logical(&mut e, &[2], &[2], salt + 10);
            exec_logical(&mut e, &[1, 3], &[3], salt + 20);
        }
        exec_physical(&mut e, 4, "p");
        e.install_one().unwrap();
        e.wal_mut().force();
        exec_logical(&mut e, &[4], &[4], 99); // unforced: lost
        e.crash()
    }

    /// A master checkpoint whose dirty table holds rSIs below its own LSN:
    /// uninstalled chains on objects 1–3, a checkpoint that installs
    /// nothing, one op past it, then a crash. Objects 1–3 live only in the
    /// log records behind the checkpoint, so analysis (which starts at the
    /// checkpoint) must hand redo a start below it.
    fn checkpoint_behind_redo_workload() -> (StableStore, Wal, Vec<Value>) {
        let mut e = fresh_engine();
        for salt in 0..3 {
            exec_logical(&mut e, &[1], &[1], salt);
            exec_logical(&mut e, &[2], &[2], salt + 10);
            exec_logical(&mut e, &[1, 3], &[3], salt + 20);
        }
        e.checkpoint(false).unwrap();
        exec_logical(&mut e, &[2], &[5], 77);
        e.wal_mut().force();
        let want = (0..8).map(|i| e.peek_value(ObjectId(i))).collect();
        let (store, wal) = e.crash();
        (store, wal, want)
    }

    #[test]
    fn all_modes_agree_with_the_serial_oracle() {
        for image in ["mixed", "checkpoint_behind_redo"] {
            for policy in [RedoPolicy::Naive, RedoPolicy::Vsi, RedoPolicy::RsiExposed] {
                let (store, wal, want) = match image {
                    "mixed" => {
                        let (store, wal) = mixed_workload();
                        (store, wal, None)
                    }
                    _ => {
                        let (store, wal, want) = checkpoint_behind_redo_workload();
                        (store, wal, Some(want))
                    }
                };
                let run = |workers: usize| {
                    recover_with(
                        store.clone(),
                        wal.clone(),
                        TransformRegistry::with_builtins(),
                        config(),
                        policy,
                        workers,
                    )
                    .unwrap()
                };
                let (serial_e, serial_o) = run(1);
                if let Some(want) = &want {
                    let cp = wal
                        .master_checkpoint()
                        .expect("image has a master checkpoint");
                    assert!(
                        serial_o.redo_start < cp,
                        "{policy:?}: redo must start behind the checkpoint"
                    );
                    assert!(store.peek(ObjectId(3)).is_none());
                    let got: Vec<Value> =
                        (0..8).map(|i| serial_e.peek_value(ObjectId(i))).collect();
                    if policy != RedoPolicy::Naive {
                        assert_eq!(&got, want, "{policy:?}: ops behind the checkpoint lost");
                    }
                }
                for workers in [3, 4] {
                    let (e, o) = run(workers);
                    assert_eq!(
                        o, serial_o,
                        "{image} {policy:?} workers={workers}: outcome diverged"
                    );
                    assert_eq!(
                        engine_fingerprint(&e),
                        engine_fingerprint(&serial_e),
                        "{image} {policy:?} workers={workers}: state diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_recovery_counts_components_and_workers() {
        // Four fully disjoint chains → exactly four conflict components.
        let mut e = fresh_engine();
        for salt in 0..3 {
            for x in 10..14 {
                exec_logical(&mut e, &[x], &[x], salt * 31 + x);
            }
        }
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let metrics = store.metrics().clone();
        metrics.reset();
        let (_, o) = recover_with(
            store,
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
            3,
        )
        .unwrap();
        assert_eq!(o.redone, 12);
        let s = metrics.snapshot();
        assert_eq!(s.recovery_components, 4);
        assert_eq!(s.recovery_parallel_workers, 3);
        // Both passes decode their range.
        assert!(o.redo_scanned > 0);
        assert_eq!(
            s.recovery_records_decoded,
            o.analysis_scanned + o.redo_scanned
        );
        assert!(s.recovery_analysis_ns > 0);
        assert!(s.recovery_redo_ns > 0);
    }

    #[test]
    fn worker_gauge_reports_the_last_pool_on_a_shared_ledger() {
        let mut e = fresh_engine();
        for x in 10..14 {
            exec_logical(&mut e, &[x], &[x], x);
        }
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let metrics = store.metrics().clone();
        let run = |workers: usize| {
            recover_with(
                store.clone(),
                wal.clone(),
                TransformRegistry::with_builtins(),
                config(),
                RedoPolicy::Vsi,
                workers,
            )
            .unwrap();
        };
        run(3);
        let before = metrics.snapshot();
        assert_eq!(before.recovery_parallel_workers, 3);
        // No reset in between: the gauge holds the second pool size, not
        // the sum, and a window over the second recovery reads it too.
        run(2);
        let after = metrics.snapshot();
        assert_eq!(after.recovery_parallel_workers, 2);
        assert_eq!(after.since(&before).recovery_parallel_workers, 2);
        assert_eq!(after.since(&before).recovery_components, 4);
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_a_torn_tail() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "first-batch");
        e.wal_mut().force();
        exec_physical(&mut e, 2, "second-batch");
        e.wal_mut().force();
        let (store, mut wal) = e.crash();
        // Rot a bit inside the *first* force batch: far before the last
        // force boundary, so this is media damage, not a torn tail.
        wal.corrupt_stable_bit(Lsn(1), 12);
        for workers in [1, 3] {
            let r = recover_with(
                store.clone(),
                wal.clone(),
                TransformRegistry::with_builtins(),
                config(),
                RedoPolicy::Vsi,
                workers,
            );
            match r {
                Err(LlogError::Corrupt { offset, .. }) => {
                    assert!(!wal.corruption_is_torn_tail(offset))
                }
                Err(other) => panic!("workers={workers}: expected Corrupt error, got {other}"),
                Ok((_, o)) => panic!("workers={workers}: mid-log corruption accepted: {o:?}"),
            }
        }
    }

    #[test]
    fn corruption_in_last_force_batch_still_recovers_as_torn_tail() {
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "stable");
        e.wal_mut().force();
        exec_physical(&mut e, 2, "rotted");
        e.wal_mut().force();
        let (store, mut wal) = e.crash();
        let guard = wal.forced_lsn();
        // Rot inside the *last* batch: indistinguishable from a tear.
        wal.corrupt_stable_bit(Lsn(guard.0 - 3), 1);
        let (mut recovered, o) = recover_parts(store, wal, RedoPolicy::Vsi);
        assert!(o.torn_tail);
        assert_eq!(recovered.read_value(X), Value::from("stable"));
    }

    fn adaptive_config() -> EngineConfig {
        EngineConfig {
            log_policy: llog_ops::LogPolicy::Adaptive(llog_ops::CostModel::default()),
            ..config()
        }
    }

    /// A workload with fat objects (keeps the adaptive per-op choice
    /// logical), a checkpoint (emits conversion records under the adaptive
    /// policy), and a live tail past it — crashed with an unforced loss.
    fn hybrid_workload(policy: llog_ops::LogPolicy) -> (StableStore, Wal) {
        let mut e = Engine::new(
            EngineConfig {
                log_policy: policy,
                ..config()
            },
            TransformRegistry::with_builtins(),
        );
        exec_physical(&mut e, 1, &"x".repeat(120));
        exec_physical(&mut e, 2, "small");
        for salt in 0..3 {
            exec_logical(&mut e, &[1], &[1], salt);
            exec_logical(&mut e, &[1, 2], &[2], salt + 10);
            exec_logical(&mut e, &[3], &[3], salt + 20);
        }
        e.install_one().unwrap();
        e.checkpoint(false).unwrap();
        exec_logical(&mut e, &[2], &[4], 77);
        exec_physical(&mut e, 5, "p");
        e.wal_mut().force();
        exec_logical(&mut e, &[4], &[4], 99); // unforced: lost
        e.crash()
    }

    #[test]
    fn every_log_policy_recovers_identically_at_any_worker_count() {
        let policies = [
            llog_ops::LogPolicy::Logical,
            llog_ops::LogPolicy::Physical,
            llog_ops::LogPolicy::Adaptive(llog_ops::CostModel::default()),
        ];
        let mut visible: Vec<Vec<Value>> = Vec::new();
        for policy in policies {
            let (store, wal) = hybrid_workload(policy);
            let run = |workers: usize| {
                recover_with(
                    store.clone(),
                    wal.clone(),
                    TransformRegistry::with_builtins(),
                    config(),
                    RedoPolicy::Vsi,
                    workers,
                )
                .unwrap()
            };
            let (serial_e, serial_o) = run(1);
            let (e, o) = run(3);
            assert_eq!(o, serial_o, "{policy:?}: outcome diverged");
            assert_eq!(
                engine_fingerprint(&e),
                engine_fingerprint(&serial_e),
                "{policy:?}: state diverged"
            );
            visible.push(
                (0..8u64)
                    .map(|i| serial_e.peek_value(ObjectId(i)))
                    .collect(),
            );
        }
        // The log encodings differ per policy; the recovered visible state
        // must not.
        assert_eq!(visible[0], visible[1], "physical diverged from logical");
        assert_eq!(visible[0], visible[2], "adaptive diverged from logical");
    }

    #[test]
    fn converted_hints_skip_reexecution_below_the_checkpoint() {
        let mut e = Engine::new(adaptive_config(), TransformRegistry::with_builtins());
        exec_physical(&mut e, 1, &"x".repeat(150));
        exec_logical(&mut e, &[1], &[1], 1);
        exec_logical(&mut e, &[1], &[2], 2);
        e.checkpoint(false).unwrap(); // converts both logical ops and forces
        let want: Vec<Value> = (0..4).map(|i| e.peek_value(ObjectId(i))).collect();
        let (store, wal) = e.crash();
        for workers in [1, 3] {
            // A fresh registry with an untouched cost ledger: any transform
            // re-execution during redo would show up in its apply counts.
            let fresh = TransformRegistry::with_builtins();
            let probe = fresh.clone();
            let (recovered, o) = recover_with(
                store.clone(),
                wal.clone(),
                fresh,
                config(),
                RedoPolicy::Vsi,
                workers,
            )
            .unwrap();
            assert_eq!(o.redone, 3, "workers={workers}");
            assert_eq!(
                probe.apply_count(builtin::HASH_MIX),
                0,
                "workers={workers}: a converted op was re-executed"
            );
            let got: Vec<Value> = (0..4).map(|i| recovered.peek_value(ObjectId(i))).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn crash_between_conversions_and_checkpoint_is_harmless() {
        // Conversion records are pure redo hints: a crash that keeps them
        // but loses the checkpoint record recovers to exactly the state of
        // a log that never converted.
        let build = |convert: bool| {
            let mut e = Engine::new(adaptive_config(), TransformRegistry::with_builtins());
            exec_physical(&mut e, 1, &"x".repeat(150));
            exec_logical(&mut e, &[1], &[1], 1);
            exec_logical(&mut e, &[1], &[2], 2);
            e.wal_mut().force();
            if convert {
                assert_eq!(e.convert_cold_ops(), 2);
                e.wal_mut().force(); // conversions durable, checkpoint lost
            }
            e.crash()
        };
        let (s0, w0) = build(false);
        let (plain, _) = recover_parts(s0, w0, RedoPolicy::Vsi);
        let (s1, w1) = build(true);
        let run = |workers: usize| {
            recover_with(
                s1.clone(),
                w1.clone(),
                TransformRegistry::with_builtins(),
                adaptive_config(),
                RedoPolicy::Vsi,
                workers,
            )
            .unwrap()
        };
        let (serial_e, serial_o) = run(1);
        assert_eq!(
            engine_fingerprint(&serial_e),
            engine_fingerprint(&plain),
            "conversion hints changed the recovered state"
        );
        let (e, o) = run(3);
        assert_eq!(o, serial_o);
        assert_eq!(engine_fingerprint(&e), engine_fingerprint(&serial_e));
        // Re-emission after such a crash is idempotent: the recovered
        // engine checkpoints (re-converting the still-live ops), crashes,
        // and recovers to the same state again.
        let (mut again, _) = run(1);
        let fp_before: Vec<Value> = (0..4).map(|i| again.peek_value(ObjectId(i))).collect();
        again.checkpoint(false).unwrap();
        let (s2, w2) = again.crash();
        let (final_e, _) = recover(
            s2,
            w2,
            TransformRegistry::with_builtins(),
            adaptive_config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        let fp_after: Vec<Value> = (0..4).map(|i| final_e.peek_value(ObjectId(i))).collect();
        assert_eq!(fp_after, fp_before);
    }

    #[test]
    fn deleted_objects_skip_expensive_redo() {
        // Write a big file-like object, delete it, crash. The rSI policy
        // must not redo the write.
        let mut e = fresh_engine();
        exec_physical(&mut e, 1, "big-file-contents");
        e.execute(
            OpKind::Delete,
            vec![],
            vec![X],
            Transform::new(builtin::DELETE, Value::empty()),
        )
        .unwrap();
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (_, out) = recover_parts(store, wal, RedoPolicy::RsiExposed);
        assert_eq!(out.redone, 0, "the expensive write is bypassed");
        assert_eq!(out.skipped, 1);
        // The delete itself is applied (cheaply) so the stable state stays
        // tidy, but it does not count as re-executed work.
        assert_eq!(out.deletes_applied, 1);
    }
}
