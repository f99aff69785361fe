//! `crash_recover`: reboot time of a file-backed database whose log ends
//! in a large uninstalled window.
//!
//! Set-up builds the image deterministically from the seed: per-shard
//! `llog_core::Engine`s run a long log of blind puts, cheap logical
//! read-modify-writes and, one op in five, an expensive iterated-hash
//! transform (the paper's "application step"). Each shard checkpoints
//! early, installs at seeded points, stops installing for the tail, is
//! persisted through `DurabilityBackend::persist`, and crashes. The timed
//! part is the reboot: `recover_sharded_from_backends` on those
//! directories, from opening the backends to a ready engine. The ready
//! engine then serves a short ladder and closed loop of the same mix.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use llog_core::{Engine, EngineConfig, RecoveryOutcome, RedoPolicy};
use llog_engine::{recover_sharded_from_backends, ShardRouter, ShardedConfig, ShardedEngine};
use llog_ops::builtin;
use llog_storage::{Metrics, MetricsSnapshot};
use llog_testkit::TestRng;
use llog_types::{ObjectId, Value};
use llog_wal::DurabilityBackend;

use crate::gen::{bytes, registry, rng, Oracle, WriteOp, EXPENSIVE, VALUE_LEN};
use crate::serving::{serve_engine, Load};
use crate::stats::median_f64;
use crate::{
    file_backends, peak_rss_mb, report_load, report_log, report_recovery, rungs, served_device,
    setups, Cfg, Report,
};

const SHARDS: usize = 2;
const KEYS: u64 = 4_096;
/// Logged ops after the preload, per shard, with installs at seeded points
/// that hold the uninstalled window near [`BODY_WINDOW`].
const BODY_OPS: usize = 3_000;
const BODY_WINDOW: usize = 64;
/// Chance that an op of the body is followed by an install point.
const INSTALL_POINT: f64 = 0.25;
/// Logged ops per shard after the last install: the window redo rebuilds.
const TAIL_OPS: usize = 2_000;
const PUT_SHARE: f64 = 0.4;
const EXPENSIVE_SHARE: f64 = 0.2;
/// Share of the run spent rebooting (at least [`MIN_REBOOTS`] times).
const REBOOT_SHARE: f64 = 0.45;
const MIN_REBOOTS: usize = 3;
/// Serving on the recovered engine: offered rates in ops/s, 80 % writes.
const LOAD: Load = Load {
    rates: &[1_000.0, 2_000.0, 4_000.0, 24_000.0],
    nominal: 1,
    limit_ms: 50.0,
    write_share: 0.8,
    ladder_share: 0.2,
    closed_share: 0.35,
};
const SETUPS: usize = 3;

fn config() -> ShardedConfig {
    ShardedConfig {
        shards: SHARDS,
        ..ShardedConfig::default()
    }
}

fn write(router: &ShardRouter, rng: &mut TestRng) -> WriteOp {
    let x = ObjectId(rng.random_range(0..KEYS));
    let roll = rng.f64();
    if roll < PUT_SHARE {
        return WriteOp::put(x, bytes(rng, VALUE_LEN));
    }
    let f = if roll < PUT_SHARE + EXPENSIVE_SHARE {
        EXPENSIVE
    } else {
        builtin::HASH_MIX
    };
    let also = rng.bool().then(|| loop {
        let y = ObjectId(rng.random_range(0..KEYS));
        if router.shard_of(y) == router.shard_of(x) {
            break y;
        }
    });
    WriteOp::rmw(f, x, also, rng.next_u64())
}

/// One shard's image script, generated from the seed.
struct Script {
    preload: Vec<WriteOp>,
    body: Vec<(WriteOp, bool)>,
    tail: Vec<WriteOp>,
}

fn scripts(router: &ShardRouter, rng: &mut TestRng) -> Vec<Script> {
    (0..SHARDS)
        .map(|s| {
            let mine = |rng: &mut TestRng| loop {
                let op = write(router, rng);
                if router.shard_of(op.writes[0]) == s {
                    break op;
                }
            };
            let preload = (0..KEYS)
                .map(ObjectId)
                .filter(|&x| router.shard_of(x) == s)
                .map(|x| WriteOp::put(x, bytes(rng, VALUE_LEN)))
                .collect();
            let body = (0..BODY_OPS)
                .map(|_| (mine(rng), rng.ratio(INSTALL_POINT)))
                .collect();
            let tail = (0..TAIL_OPS).map(|_| mine(rng)).collect();
            Script {
                preload,
                body,
                tail,
            }
        })
        .collect()
}

/// What building one shard's image left behind.
struct Built {
    expected: Vec<(ObjectId, Value)>,
    opened: MetricsSnapshot,
    crashed: MetricsSnapshot,
    writes: u64,
    user_bytes: u64,
}

fn exec(e: &mut Engine, op: &WriteOp) -> Result<(), String> {
    e.execute(
        op.kind,
        op.reads.clone(),
        op.writes.clone(),
        op.transform.clone(),
    )
    .map(drop)
    .map_err(|err| format!("image op: {err}"))
}

fn build_shard(dir: &Path, script: &Script) -> Result<Built, String> {
    let err = |e: llog_types::LlogError| e.to_string();
    let mut backend =
        DurabilityBackend::file(dir, Metrics::new(), &served_device()).map_err(err)?;
    let mut e = Engine::new(EngineConfig::default(), registry());
    let opened = e.metrics().snapshot();
    for op in &script.preload {
        exec(&mut e, op)?;
    }
    e.install_all().map_err(err)?;
    e.checkpoint(true).map_err(err)?;
    for (op, install_point) in &script.body {
        exec(&mut e, op)?;
        while *install_point && e.uninstalled_count() > BODY_WINDOW {
            e.install_one().map_err(err)?;
        }
    }
    for op in &script.tail {
        exec(&mut e, op)?;
    }
    e.wal_mut().force();
    backend.persist(e.store(), e.wal(), None).map_err(err)?;
    let ops = script
        .preload
        .iter()
        .chain(script.body.iter().map(|(op, _)| op))
        .chain(&script.tail);
    let (writes, user_bytes) = ops.fold((0, 0), |(n, b), op| (n + 1, b + op.user_bytes));
    let expected = script
        .preload
        .iter()
        .map(|op| (op.writes[0], e.peek_value(op.writes[0])))
        .collect();
    Ok(Built {
        expected,
        opened,
        crashed: e.metrics().snapshot(),
        writes,
        user_bytes,
    })
    // Dropping the engine here is the crash: nothing after the persist
    // reaches the devices.
}

/// Build every shard's image under `dir`, one thread per shard.
fn build(dir: &Path, scripts: &[Script]) -> Result<Vec<Built>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(i, script)| {
                s.spawn(move || build_shard(&dir.join(format!("shard-{i}")), script))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "image builder panicked".to_string())?)
            .collect()
    })
}

/// The timed reboot: open the backends, recover, return a ready engine.
fn reboot(dir: &Path) -> Result<(ShardedEngine, Vec<RecoveryOutcome>, f64), String> {
    let t = Instant::now();
    let (engine, outcomes, _backends) = recover_sharded_from_backends(
        file_backends(dir, SHARDS)?,
        &registry(),
        config(),
        RedoPolicy::RsiExposed,
    )
    .map_err(|e| format!("recovery: {e}"))?;
    Ok((engine, outcomes, t.elapsed().as_secs_f64()))
}

fn counts(outcomes: &[RecoveryOutcome]) -> Vec<(u64, u64)> {
    outcomes.iter().map(|o| (o.redone, o.skipped)).collect()
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let router = ShardRouter::new(SHARDS);
    let mut rng = rng(cfg.seed, "crash_recover");
    let scripts = scripts(&router, &mut rng);
    let mut w = |r: &mut TestRng| write(&router, r);
    let plan = LOAD.plan(cfg, &mut rng, &mut w, &mut |r| {
        ObjectId(r.random_range(0..KEYS))
    });
    let rung_ops: Vec<WriteOp> = if cfg.traced() {
        (0..rungs::STREAM_LEN).map(|_| w(&mut rng)).collect()
    } else {
        Vec::new()
    };

    let mut r = Report::default();
    let image = |k: usize| cfg.dir.join(format!("image-{k}"));
    let ((dir, built), setup_s) = setups(
        if cfg.traced() { 1 } else { SETUPS },
        |k| Ok((image(k), build(&image(k), &scripts)?)),
        |(dir, _)| std::fs::remove_dir_all(dir).map_err(|e| e.to_string()),
    )?;
    r.e2e("setup_s", setup_s, "s");
    let opened: Vec<_> = built.iter().map(|b| b.opened).collect();
    let crashed: Vec<_> = built.iter().map(|b| b.crashed).collect();
    let writes = built.iter().map(|b| b.writes).sum();
    let user_bytes = built.iter().map(|b| b.user_bytes).sum();
    report_log(&mut r, &opened, &crashed, writes, user_bytes)?;
    let expected: HashMap<ObjectId, Value> = built.into_iter().flat_map(|b| b.expected).collect();

    if cfg.traced() {
        // What the reboot has to read: device load, then the log scan.
        report_load(&mut r, &cfg.tracer, &file_backends(&dir, SHARDS)?)?;
    }

    // Reboot repeatedly; every reboot must recover the same state with the
    // same REDO decisions.
    let deadline = Instant::now() + cfg.budget(REBOOT_SHARE);
    let mut secs = Vec::new();
    let mut first: Option<Vec<(u64, u64)>> = None;
    let engine = loop {
        let (engine, outcomes, s) = reboot(&dir)?;
        secs.push(s);
        match &first {
            None => {
                let zero = vec![MetricsSnapshot::default(); SHARDS];
                let redone = outcomes.iter().map(|o| o.redone).sum();
                let skipped = outcomes.iter().map(|o| o.skipped).sum();
                report_recovery(
                    &mut r,
                    &zero,
                    &engine.metrics_snapshot().per_shard,
                    redone,
                    skipped,
                )?;
                for (x, want) in &expected {
                    let got = engine
                        .read_value(*x)
                        .map_err(|e| format!("read {x:?}: {e}"))?;
                    r.check(&got == want, || {
                        format!("recovered {x:?} differs from the pre-crash state")
                    });
                }
                first = Some(counts(&outcomes));
            }
            Some(c) => r.check(c == &counts(&outcomes), || {
                "two reboots of one image made different REDO decisions".into()
            }),
        }
        let enough = secs.len() >= MIN_REBOOTS && Instant::now() >= deadline;
        if enough || (cfg.traced() && secs.len() == 1) {
            break engine;
        }
        // Crash rather than shut down: a shutdown would install the whole
        // window first, and nothing here needs to outlive the engine.
        drop(engine.crash());
    };
    r.e2e("recovery_s", median_f64(&secs), "s");

    // Serve once the window redo rebuilt is installed, so the serving
    // phase measures steady state rather than the drain.
    engine.install_all().map_err(|e| format!("install: {e}"))?;
    let mut oracle = Oracle::new(expected);
    serve_engine(cfg, &engine, &plan, &mut oracle, &mut r)?;
    for k in 0..KEYS {
        let x = ObjectId(k);
        let got = engine
            .read_value(x)
            .map_err(|e| format!("read {x:?}: {e}"))?;
        r.check(got == oracle.value(x), || {
            format!("after serving {x:?} differs from the single-threaded oracle")
        });
    }
    engine.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    if cfg.traced() {
        rungs::run(&rung_ops, &cfg.dir.join("rungs"), &cfg.tracer, &mut r)?;
    }
    r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(r)
}
