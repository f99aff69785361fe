//! Differential check of the incremental `rW` against its whole-graph
//! oracle ([`ReferenceRwGraph`]).
//!
//! [`rw_differential`] drives one seeded random history two ways:
//!
//! 1. **Graph level.** The same operations go through an [`RWGraph`] and
//!    the oracle, with installs of the first node in install order
//!    interleaved. After every operation and every removal the two must
//!    agree on the node partition, `vars`, `writes`, `reads`, `lastw`,
//!    `preds`/`succs`, the install order and the version indexes, and the
//!    incremental graph must pass its own consistency audit.
//! 2. **Engine level.** An audit-mode [`Engine`] (which runs the oracle
//!    beside its graph and compares after every operation and every
//!    install choice) executes the history with identity writes and
//!    interleaved `install_one`, forcing every fourth step, then crashes
//!    with the unforced tail lost or torn. The image is recovered
//!    twice — serially in audit mode, so redo's own `add_op` is checked
//!    too, and by the parallel pipeline — and both recoveries must report
//!    the same REDO outcome and match a pure replay of the stable log.
//!
//! The history mixes blind writes, identity writes, deletes,
//! physiological updates and multi-object read-modify-writes over a small
//! object universe, so exposed-update merges and cycle collapses are
//! frequent.

use std::panic::{catch_unwind, AssertUnwindSafe};

use llog_core::rwgraph::oracle::ReferenceRwGraph;
use llog_core::{
    recover_with, Engine, EngineConfig, FlushStrategy, GraphKind, RWGraph, RecoveryOptions,
    RedoPolicy,
};
use llog_ops::{builtin, table1, OpKind, Operation, Transform, TransformRegistry};
use llog_testkit::TestRng;
use llog_types::{ObjectId, OpId, Value};

use crate::harness::verify_against_log;

/// One step of a generated history.
#[derive(Debug, Clone)]
enum Step {
    Op {
        kind: OpKind,
        reads: Vec<ObjectId>,
        writes: Vec<ObjectId>,
        transform: Transform,
    },
    IdentityWrite(ObjectId),
    Install,
}

fn history(rng: &mut TestRng, n_ops: usize) -> Vec<Step> {
    let n_objects = rng.random_range(2u64..8);
    let obj = |rng: &mut TestRng| ObjectId(rng.random_range(0..n_objects));
    let mut steps = Vec::new();
    for i in 0..n_ops {
        let salt = Value::from_slice(&(i as u64).to_le_bytes());
        let roll = rng.random_range(0u32..100);
        let step = if roll < 20 {
            let x = obj(rng);
            Step::Op {
                kind: OpKind::Physical,
                reads: vec![],
                writes: vec![x],
                transform: Transform::new(builtin::CONST, builtin::encode_values(&[salt])),
            }
        } else if roll < 30 {
            Step::IdentityWrite(obj(rng))
        } else if roll < 35 {
            Step::Op {
                kind: OpKind::Delete,
                reads: vec![],
                writes: vec![obj(rng)],
                transform: Transform::new(builtin::DELETE, Value::empty()),
            }
        } else if roll < 50 {
            let x = obj(rng);
            Step::Op {
                kind: OpKind::Physiological,
                reads: vec![x],
                writes: vec![x],
                transform: Transform::new(builtin::HASH_MIX, salt),
            }
        } else {
            // Multi-object read-modify-write: reads 1–3 objects, writes 1–2,
            // overlapping the readset or not.
            let mut reads: Vec<ObjectId> =
                (0..rng.random_range(1usize..4)).map(|_| obj(rng)).collect();
            reads.sort();
            reads.dedup();
            let mut writes: Vec<ObjectId> =
                (0..rng.random_range(1usize..3)).map(|_| obj(rng)).collect();
            writes.sort();
            writes.dedup();
            Step::Op {
                kind: OpKind::Logical,
                reads,
                writes,
                transform: Transform::new(builtin::HASH_MIX, salt),
            }
        };
        steps.push(step);
        if rng.random_range(0u32..3) == 0 {
            steps.push(Step::Install);
        }
    }
    steps
}

/// Run the seeded differential (see the module docs). `Err` carries the
/// first divergence.
pub fn rw_differential(seed: u64, n_ops: usize) -> Result<(), String> {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x7257_D1FF);
    let flush = if rng.bool() {
        FlushStrategy::IdentityWrites
    } else {
        FlushStrategy::FlushTxn
    };
    let steps = history(&mut rng, n_ops);
    catch_unwind(AssertUnwindSafe(|| graph_level(&steps)))
        .map_err(|p| format!("graph level: {}", panic_text(p)))??;
    let crash_at = rng.random_range(0usize..=steps.len());
    let torn = rng.bool().then(|| rng.random_range(0usize..512));
    catch_unwind(AssertUnwindSafe(|| {
        engine_level(&steps, flush, crash_at, torn)
    }))
    .map_err(|p| format!("engine level ({flush:?}): {}", panic_text(p)))?
    .map_err(|e| format!("engine level ({flush:?}): {e}"))
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

fn graph_level(steps: &[Step]) -> Result<(), String> {
    let mut g = RWGraph::new();
    let mut oracle = ReferenceRwGraph::new();
    let mut next = 0u64;
    for (i, step) in steps.iter().enumerate() {
        let id = OpId(next);
        let op = match step {
            Step::Op {
                kind,
                reads,
                writes,
                transform,
            } => Operation::new(id, *kind, reads.clone(), writes.clone(), transform.clone()),
            Step::IdentityWrite(x) => table1::identity_write(id, *x, Value::from("id")),
            Step::Install => {
                let Some(n) = g.install_order().next() else {
                    continue;
                };
                let first = g.node(n).expect("live node").ops()[0];
                g.remove_node(n);
                let m = oracle.install_order()[0];
                oracle.remove_node(m);
                oracle
                    .diff(&g)
                    .map_err(|e| format!("step {i}: after installing {first:?}: {e}"))?;
                g.check_consistency();
                continue;
            }
        };
        next += 1;
        g.add_op(&op);
        oracle.add_op(&op);
        oracle
            .diff(&g)
            .map_err(|e| format!("step {i}: after adding {op:?}: {e}"))?;
        g.check_consistency();
    }
    Ok(())
}

fn engine_level(
    steps: &[Step],
    flush: FlushStrategy,
    crash_at: usize,
    torn: Option<usize>,
) -> Result<(), String> {
    let registry = TransformRegistry::with_builtins();
    let config = EngineConfig {
        graph: GraphKind::RW,
        flush,
        audit: true,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(config, registry.clone());
    for (i, step) in steps.iter().take(crash_at).enumerate() {
        let r = match step {
            Step::Op {
                kind,
                reads,
                writes,
                transform,
            } => e
                .execute(*kind, reads.clone(), writes.clone(), transform.clone())
                .map(drop),
            Step::IdentityWrite(x) => e.identity_write(*x).map(drop),
            Step::Install => e.install_one().map(drop),
        };
        r.map_err(|err| format!("step {i}: {err}"))?;
        if i % 4 == 3 {
            e.wal_mut().force();
        }
    }
    e.audit_all()
        .map_err(|err| format!("pre-crash audit: {err}"))?;
    // The crash loses (or tears) whatever was appended since the last force.
    let (store, wal) = match torn {
        Some(n) => e.crash_torn(n),
        None => e.crash(),
    };
    let policy = RedoPolicy::RsiExposed;
    let (mut audited, serial) = recover_with(
        store.clone(),
        wal.clone(),
        registry.clone(),
        config,
        policy,
        RecoveryOptions::serial(),
    )
    .map_err(|err| format!("audited serial recovery: {err}"))?;
    let plain = EngineConfig {
        audit: false,
        ..config
    };
    let (_, parallel) = recover_with(
        store,
        wal,
        registry.clone(),
        plain,
        policy,
        RecoveryOptions::parallel(2),
    )
    .map_err(|err| format!("parallel recovery: {err}"))?;
    if serial != parallel {
        return Err(format!(
            "REDO outcomes differ: serial {serial:?} vs parallel {parallel:?}"
        ));
    }
    verify_against_log(&audited, &registry).map_err(|err| format!("recovered state: {err}"))?;
    // Drain the graph redo rebuilt, checking every install choice.
    audited
        .install_all()
        .map_err(|err| format!("post-recovery install: {err}"))?;
    verify_against_log(&audited, &registry).map_err(|err| format!("installed state: {err}"))?;
    Ok(())
}
