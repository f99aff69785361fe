//! REDO tests (§5).
//!
//! A REDO test decides, per logged operation, whether recovery must
//! re-execute it. Safety: only applicable, installable operations may be
//! redone. Liveness: every minimal uninstalled operation must be redone.
//!
//! The policies, in increasing sophistication:
//!
//! - [`RedoPolicy::Naive`]: redo everything. **Unsound for logical and
//!   physiological operations** (it double-applies installed effects) — kept
//!   as the strawman that motivates SI tests; see the recovery tests that
//!   demonstrate the failure.
//! - [`RedoPolicy::Vsi`]: the classical state-identifier test. An operation
//!   is installed iff some object of its writeset carries `vSI ≥ lSI`
//!   (atomic installation makes one object's witness sufficient under `rW`).
//! - [`RedoPolicy::RsiExposed`]: the paper's generalized test. Consults the
//!   analysis-pass dirty object table (object → rSI) first — objects absent
//!   from the table, objects whose rSI exceeds the record's lSI, and
//!   deleted objects are *installed or unexposed* and contribute nothing —
//!   and only then reads vSIs. Redo iff some written object satisfies
//!   `lSI ≥ max(rSI, vSI + 1)`.

use std::collections::{BTreeMap, BTreeSet};

use llog_ops::Operation;
use llog_types::{Lsn, ObjectId};

/// Which REDO test recovery applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedoPolicy {
    /// Redo every logged operation (unsound strawman).
    Naive,
    /// Classical vSI test.
    Vsi,
    /// Generalized rSI + exposure test (§5).
    RsiExposed,
}

/// Inputs the REDO test consults. `vsi_of` faults the object in and reads
/// its current state identifier (a counted I/O on first touch, like reading
/// a page header).
pub struct RedoContext<'a> {
    /// Dirty object table reconstructed by analysis: object → rSI.
    pub dirty: &'a BTreeMap<ObjectId, Lsn>,
}

/// §5's transient-object optimization, made sound: an operation record is
/// *dead* iff no surviving state depends on its effects — every object it
/// writes is either deleted by the end of the log or blindly overwritten,
/// **and** no live operation (transitively) reads the version it produced.
/// Dead operations are never exposed; the REDO test may treat them as
/// installed without re-executing them ("one can treat all their operations
/// as installed ... even when they have not been flushed recently, or
/// ever").
///
/// Computed by one backward pass over the redo range — a classic dead-store
/// analysis where `needed` tracks which objects' current versions still
/// matter. Delete records are excluded: they are applied cheaply during the
/// redo pass to keep the stable state tidy.
pub fn dead_records(
    ops: &[(Lsn, Operation)],
    deleted_at_end: &BTreeSet<ObjectId>,
) -> BTreeSet<Lsn> {
    // Objects whose final version matters: everything not deleted.
    let mut needed: BTreeSet<ObjectId> = ops
        .iter()
        .flat_map(|(_, op)| op.reads.iter().chain(op.writes.iter()).copied())
        .filter(|x| !deleted_at_end.contains(x))
        .collect();
    let mut dead = BTreeSet::new();
    for (lsn, op) in ops.iter().rev() {
        if op.kind == llog_ops::OpKind::Delete {
            // Deletes are handled by the redo pass directly.
            continue;
        }
        let produces_needed = op.writes.iter().any(|x| needed.contains(x));
        if produces_needed {
            // Live: its blind writes satisfy earlier needs; its reads (and
            // read-modify-writes) create needs.
            for x in &op.writes {
                if op.blindly_writes(*x) {
                    needed.remove(x);
                }
            }
            needed.extend(op.reads.iter().copied());
        } else {
            dead.insert(*lsn);
        }
    }
    dead
}

/// Evaluate the REDO test for `op` logged at `lsn`.
///
/// `vsi_of` is only invoked when the cheaper rSI information cannot already
/// decide — mirroring the paper's point that rSIs spare page reads.
pub fn should_redo(
    policy: RedoPolicy,
    op: &Operation,
    lsn: Lsn,
    ctx: &RedoContext<'_>,
    mut vsi_of: impl FnMut(ObjectId) -> Lsn,
) -> bool {
    match policy {
        RedoPolicy::Naive => true,
        RedoPolicy::Vsi => {
            // Installed iff any writeset object already carries the effect.
            !op.writes.iter().any(|&x| vsi_of(x) >= lsn)
        }
        RedoPolicy::RsiExposed => {
            // Candidate objects: those whose rSI admits uninstalled updates
            // at or before this record. An object whose rSI says this
            // record's update is installed is a witness for the whole
            // operation — installation is atomic per write-graph node, as
            // in the vSI test — even when another object's rSI is stale
            // because the install record that advanced it was lost. (Dead
            // records — the transient-object optimization — are filtered by
            // the caller via [`dead_records`] before this test runs.)
            let mut candidates: Vec<ObjectId> = Vec::with_capacity(op.writes.len());
            for &x in &op.writes {
                match ctx.dirty.get(&x) {
                    // Not dirty at crash: every logged update is installed.
                    None => return false,
                    // First uninstalled update is later than this record.
                    Some(&rsi) if lsn < rsi => return false,
                    Some(_) => candidates.push(x),
                }
            }
            // rSIs are approximate (the last installation's record may not
            // have reached the stable log): confirm against vSIs so we never
            // reset a manifestly installed operation.
            !candidates.iter().any(|&x| vsi_of(x) >= lsn)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_ops::OpKind;
    use llog_types::OpId;

    fn ctx(dirty: &BTreeMap<ObjectId, Lsn>) -> RedoContext<'_> {
        RedoContext { dirty }
    }

    const X: ObjectId = ObjectId(1);
    const Y: ObjectId = ObjectId(2);

    fn op_writing(objs: &[ObjectId]) -> Operation {
        Operation::logical(0, &[9], &objs.iter().map(|o| o.0).collect::<Vec<_>>())
    }

    #[test]
    fn naive_always_redoes() {
        let dirty = BTreeMap::new();
        assert!(should_redo(
            RedoPolicy::Naive,
            &op_writing(&[X]),
            Lsn(10),
            &ctx(&dirty),
            |_| Lsn(100),
        ));
    }

    #[test]
    fn vsi_skips_installed() {
        let dirty = BTreeMap::new();
        // vSI 10 ≥ lSI 10: installed.
        assert!(!should_redo(
            RedoPolicy::Vsi,
            &op_writing(&[X]),
            Lsn(10),
            &ctx(&dirty),
            |_| Lsn(10),
        ));
        // vSI 9 < lSI 10: redo.
        assert!(should_redo(
            RedoPolicy::Vsi,
            &op_writing(&[X]),
            Lsn(10),
            &ctx(&dirty),
            |_| Lsn(9),
        ));
    }

    #[test]
    fn vsi_one_witness_suffices_under_atomic_installation() {
        let dirty = BTreeMap::new();
        // X flushed with vSI 10, Y not flushed (vSI 0): installed.
        let vsis: BTreeMap<ObjectId, Lsn> = [(X, Lsn(10)), (Y, Lsn(0))].into_iter().collect();
        assert!(!should_redo(
            RedoPolicy::Vsi,
            &op_writing(&[X, Y]),
            Lsn(10),
            &ctx(&dirty),
            |x| vsis[&x],
        ));
    }

    #[test]
    fn rsi_skips_clean_objects_without_touching_vsi() {
        // Object absent from the dirty table ⇒ installed; vsi_of must not
        // even be consulted.
        let dirty = BTreeMap::new();
        let redo = should_redo(
            RedoPolicy::RsiExposed,
            &op_writing(&[X]),
            Lsn(10),
            &ctx(&dirty),
            |_| panic!("vSI read not needed"),
        );
        assert!(!redo);
    }

    #[test]
    fn rsi_skips_records_before_the_rsi() {
        let dirty: BTreeMap<ObjectId, Lsn> = [(X, Lsn(50))].into_iter().collect();
        // lSI 10 < rSI 50: installed.
        assert!(!should_redo(
            RedoPolicy::RsiExposed,
            &op_writing(&[X]),
            Lsn(10),
            &ctx(&dirty),
            |_| panic!("vSI read not needed"),
        ));
        // lSI 50 ≥ rSI 50 and vSI below: redo.
        assert!(should_redo(
            RedoPolicy::RsiExposed,
            &op_writing(&[X]),
            Lsn(50),
            &ctx(&dirty),
            |_| Lsn(0),
        ));
    }

    #[test]
    fn rsi_falls_back_to_vsi_confirmation() {
        // Dirty table says "maybe uninstalled", but the vSI proves the
        // installation record just missed the stable log.
        let dirty: BTreeMap<ObjectId, Lsn> = [(X, Lsn(5))].into_iter().collect();
        assert!(!should_redo(
            RedoPolicy::RsiExposed,
            &op_writing(&[X]),
            Lsn(10),
            &ctx(&dirty),
            |_| Lsn(10),
        ));
    }

    #[test]
    fn op_id_is_irrelevant_to_the_test() {
        let dirty: BTreeMap<ObjectId, Lsn> = [(X, Lsn(0))].into_iter().collect();
        let mut op = op_writing(&[X]);
        op.id = OpId(12345);
        assert!(should_redo(
            RedoPolicy::RsiExposed,
            &op,
            Lsn(10),
            &ctx(&dirty),
            |_| Lsn(0),
        ));
    }

    // ---- dead_records (the §5 transient-object optimization) ----

    fn del(id: u64, x: u64) -> Operation {
        Operation::delete(id, x)
    }

    #[test]
    fn dead_when_only_feeding_deleted_objects() {
        // ingest scratch; transform scratch; delete scratch.
        let ops = vec![
            (
                Lsn(1),
                Operation::physical(0, 1, llog_types::Value::from("v")),
            ),
            (Lsn(2), Operation::physiological(1, 1)),
            (Lsn(3), del(2, 1)),
        ];
        let deleted: BTreeSet<ObjectId> = [X].into_iter().collect();
        let dead = dead_records(&ops, &deleted);
        assert_eq!(dead, [Lsn(1), Lsn(2)].into_iter().collect());
    }

    #[test]
    fn live_reader_keeps_producer_alive() {
        // copy → scratch; sort reads scratch → live output; delete scratch.
        // The copy must stay live: the sort needs its output.
        let ops = vec![
            (Lsn(1), Operation::logical(0, &[9], &[1])), // writes scratch
            (Lsn(2), Operation::logical(1, &[1], &[2])), // scratch → out
            (Lsn(3), del(2, 1)),
        ];
        let deleted: BTreeSet<ObjectId> = [X].into_iter().collect();
        let dead = dead_records(&ops, &deleted);
        assert!(dead.is_empty(), "both data ops are live: {dead:?}");
    }

    #[test]
    fn blind_overwrite_kills_earlier_version() {
        // write X; blind-write X again; no deletes. The first write's
        // version is dead (nothing read it).
        let ops = vec![
            (Lsn(1), Operation::logical(0, &[9], &[1])),
            (
                Lsn(2),
                Operation::physical(1, 1, llog_types::Value::from("v")),
            ),
        ];
        let dead = dead_records(&ops, &BTreeSet::new());
        assert_eq!(dead, [Lsn(1)].into_iter().collect());
    }

    #[test]
    fn read_modify_write_chains_stay_live() {
        let ops = vec![
            (Lsn(1), Operation::physiological(0, 1)),
            (Lsn(2), Operation::physiological(1, 1)),
        ];
        let dead = dead_records(&ops, &BTreeSet::new());
        assert!(dead.is_empty());
    }

    #[test]
    fn delete_records_themselves_are_never_marked_dead() {
        let ops = vec![(Lsn(1), del(0, 1))];
        let deleted: BTreeSet<ObjectId> = [X].into_iter().collect();
        assert!(dead_records(&ops, &deleted).is_empty());
    }

    #[test]
    fn deleted_then_recreated_object_is_live() {
        // delete X, then recreate it: the final version matters.
        let ops = vec![
            (
                Lsn(1),
                Operation::physical(0, 1, llog_types::Value::from("old")),
            ),
            (Lsn(2), del(1, 1)),
            (
                Lsn(3),
                Operation::physical(2, 1, llog_types::Value::from("new")),
            ),
        ];
        // X not deleted at end (recreated).
        let dead = dead_records(&ops, &BTreeSet::new());
        // The first write is dead (blindly overwritten); the recreation is
        // live.
        assert_eq!(dead, [Lsn(1)].into_iter().collect());
        let _ = OpKind::Delete; // silence unused import lint paths
    }
}
