//! `ingest_rmw`: shard-local logical read-modify-write ops against an
//! in-process `ShardedEngine` (2 shards, default configuration: group
//! commit, in-memory log, zero force latency). No socket, no fsync: the
//! time goes to `Engine::execute` — rW `add_op` and installs, the cache,
//! WAL append, transform apply — and to backpressure parking when the
//! uninstalled window fills.

use std::time::{Duration, Instant};

use llog_core::RedoPolicy;
use llog_engine::{recover_sharded, ShardRouter, ShardedConfig, ShardedEngine};
use llog_ops::builtin;
use llog_testkit::TestRng;
use llog_types::ObjectId;

use crate::drive::{self, Pace};
use crate::gen::{bytes, closed_loop, registry, rng, Oracle, WriteOp, VALUE_LEN};
use crate::serving::{serve_engine, Load, WINDOW};
use crate::stats::median_f64;
use crate::trace::Tracer;
use crate::{peak_rss_mb, report_log, report_recovery, report_scan, rungs, setups, Cfg, Report};

const SHARDS: usize = 2;
/// Objects preloaded and addressed.
const KEYS: u64 = 16_384;
/// The hot set: half of all accesses go to these objects, so ops share
/// objects and rW nodes merge.
const HOT: u64 = 256;
const HOT_SHARE: f64 = 0.5;
/// Share of writes that are blind `CONST` puts; the rest are `HASH_MIX`
/// read-modify-writes (half of them also read a second object).
const PUT_SHARE: f64 = 0.3;
/// The serving load: offered rates in ops/s, 80 % writes.
const LOAD: Load = Load {
    rates: &[4_000.0, 8_000.0, 12_000.0, 48_000.0],
    nominal: 1,
    limit_ms: 50.0,
    write_share: 0.8,
    ladder_share: 0.3,
    closed_share: 0.55,
};
/// The crash point: a full install and a checkpoint (so the log starts
/// there), [`CRASH_LOG`] writes, a full install, then [`CRASH_WINDOW`] writes — fewer than the installer's high-water
/// mark, so it never starts and every run crashes with the same log and
/// the same uninstalled window.
const CRASH_LOG: usize = 65_536;
const CRASH_WINDOW: usize = 64;
/// Share of the run spent recovering the crashed state (at least
/// [`MIN_RECOVERIES`] times; the reported time is the median).
const RECOVERY_SHARE: f64 = 0.15;
const MIN_RECOVERIES: usize = 5;
const WARMUP_OPS: usize = 4_000;
const SETUPS: usize = 3;

fn config() -> ShardedConfig {
    ShardedConfig {
        shards: SHARDS,
        ..ShardedConfig::default()
    }
}

fn pick(rng: &mut TestRng) -> ObjectId {
    if rng.ratio(HOT_SHARE) {
        ObjectId(rng.random_range(0..HOT))
    } else {
        ObjectId(rng.random_range(0..KEYS))
    }
}

/// A write of the workload's mix; every op stays on one shard.
fn write(router: &ShardRouter, rng: &mut TestRng) -> WriteOp {
    let x = pick(rng);
    if rng.ratio(PUT_SHARE) {
        return WriteOp::put(x, bytes(rng, VALUE_LEN));
    }
    let also = rng.bool().then(|| loop {
        let y = pick(rng);
        if router.shard_of(y) == router.shard_of(x) {
            break y;
        }
    });
    WriteOp::rmw(builtin::HASH_MIX, x, also, rng.next_u64())
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let router = ShardRouter::new(SHARDS);
    let reg = registry();
    let mut rng = rng(cfg.seed, "ingest_rmw");
    let mut w = |r: &mut TestRng| write(&router, r);
    let preload: Vec<_> = {
        let mut r = rng.fork();
        let ops = (0..KEYS).map(|k| WriteOp::put(ObjectId(k), bytes(&mut r, VALUE_LEN)));
        ops.map(|op| crate::gen::Item {
            due_ns: 0,
            req: crate::gen::Req::Write(op),
        })
        .collect()
    };
    let warmup = closed_loop(&mut rng, WARMUP_OPS, &mut w);
    let plan = LOAD.plan(cfg, &mut rng, &mut w, &mut pick);
    let crash_log = closed_loop(&mut rng, CRASH_LOG, &mut w);
    let crash_window = closed_loop(&mut rng, CRASH_WINDOW, &mut w);
    let rung_ops: Vec<WriteOp> = if cfg.traced() {
        (0..rungs::STREAM_LEN).map(|_| w(&mut rng)).collect()
    } else {
        Vec::new()
    };

    let mut r = Report::default();
    let fill = Pace::Closed {
        window: WINDOW,
        deadline: Duration::from_secs(3600),
    };
    let off = Tracer::new(false);
    let ((engine, opened, preload_out), setup_s) = setups(
        if cfg.traced() { 1 } else { SETUPS },
        |_| {
            let engine = ShardedEngine::new(config(), &reg);
            let opened = engine.metrics_snapshot().per_shard;
            let mut out = drive::local(&engine, &preload, fill, &off);
            let warm = drive::local(&engine, &warmup, fill, &off);
            if out.failed + warm.failed > 0 {
                return Err("set-up writes failed".into());
            }
            out.acked += warm.acked;
            out.user_bytes += warm.user_bytes;
            Ok((engine, opened, out))
        },
        |(engine, _, _)| engine.shutdown().map(drop).map_err(|e| e.to_string()),
    )?;
    r.e2e("setup_s", setup_s, "s");
    let mut oracle = Oracle::new([]);
    oracle.apply_items(&preload)?;
    oracle.apply_items(&warmup)?;

    let (mut writes, mut user_bytes) = serve_engine(cfg, &engine, &plan, &mut oracle, &mut r)?;
    let install = |e: &ShardedEngine| e.install_all().map_err(|e| format!("install: {e}"));
    install(&engine)?;
    engine
        .checkpoint_all(true)
        .map_err(|e| format!("checkpoint: {e}"))?;
    for (i, items) in [&crash_log, &crash_window].into_iter().enumerate() {
        if i == 1 {
            install(&engine)?;
        }
        let out = drive::local(&engine, items, fill, &off);
        r.count(&out);
        r.check(out.sent == items.len(), || {
            "the crash-point writes were not all sent".into()
        });
        oracle.apply_items(items)?;
        writes += out.acked;
        user_bytes += out.user_bytes;
    }
    let at_crash = engine.metrics_snapshot().per_shard;
    report_log(
        &mut r,
        &opened,
        &at_crash,
        writes + preload_out.acked,
        user_bytes + preload_out.user_bytes,
    )?;

    // Every issued op was acknowledged durable, so a crash loses none.
    let parts = engine.crash();
    if cfg.traced() {
        let wals: Vec<_> = parts.iter().map(|(_, w)| w).collect();
        report_scan(&mut r, &cfg.tracer, &wals);
    }
    // Recover copies of the crashed state again and again for a share of
    // the run, so the median samples the machine over seconds rather than
    // one burst; every recovery must make the same REDO decisions.
    let deadline = Instant::now() + cfg.budget(RECOVERY_SHARE);
    let mut secs = Vec::new();
    let mut first = None;
    while secs.len() < MIN_RECOVERIES || Instant::now() < deadline {
        let t = Instant::now();
        let (rec, outcomes) =
            recover_sharded(parts.clone(), &reg, config(), RedoPolicy::RsiExposed)
                .map_err(|e| format!("recovery: {e}"))?;
        secs.push(t.elapsed().as_secs_f64());
        let counts: Vec<_> = outcomes.iter().map(|o| (o.redone, o.skipped)).collect();
        match &first {
            Some(c) => r.check(&counts == c, || {
                "two recoveries of one crash made different REDO decisions".into()
            }),
            None => {
                let redone = outcomes.iter().map(|o| o.redone).sum();
                let skipped = outcomes.iter().map(|o| o.skipped).sum();
                let recovered = rec.metrics_snapshot().per_shard;
                report_recovery(&mut r, &at_crash, &recovered, redone, skipped)?;
                for k in 0..KEYS {
                    let x = ObjectId(k);
                    let got = rec.read_value(x).map_err(|e| format!("read {x:?}: {e}"))?;
                    r.check(got == oracle.value(x), || {
                        format!("after recovery {x:?} differs from the single-threaded oracle")
                    });
                }
                first = Some(counts);
            }
        }
        // Crash rather than shut down: nothing here needs to outlive it.
        drop(rec.crash());
    }
    r.e2e("recovery_s", median_f64(&secs), "s");
    r.layer("storage.load_ms", 0.0, "ms");

    if cfg.traced() {
        rungs::run(&rung_ops, &cfg.dir.join("rungs"), &cfg.tracer, &mut r)?;
    }
    r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(r)
}
