//! `serve_mixed`: the TCP server as `llogtool serve` runs it —
//! `boot::open_served` file-backed shards (group commit,
//! `persist_on_force`, 200 µs cross-shard fsync coalescing), a background
//! checkpointer every 500 ms, `Server::start` with its default config —
//! under open-loop Poisson traffic over loopback: 64-byte `Put`s on one
//! connection, `Get`s on a second, over a preloaded key space. The only
//! workload that crosses the codec, the per-connection queues, the
//! group-commit flusher, the `ForceScheduler` barrier, a real segment
//! write + fsync, and the MVCC read path.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use llog_server::boot::open_served;
use llog_server::{Client, Server, ServerConfig, StatsBody};
use llog_storage::MetricsSnapshot;
use llog_testkit::TestRng;
use llog_types::ObjectId;

use crate::counters::counter;
use crate::drive::{self, Pace, PhaseOut};
use crate::gen::{bytes, open_loop, registry, rng, Item, Oracle, Req, WriteOp, VALUE_LEN};
use crate::serving::{self, Load, WINDOW};
use crate::stats::quantile;
use crate::trace::Tracer;
use crate::{
    file_backends, peak_rss_mb, ratio, report_load, report_log, report_recovery, rungs, setups,
    Cfg, Report,
};

const SHARDS: usize = 2;
/// Objects preloaded during set-up: far more than the two connections.
const KEYS: u64 = 8_192;
/// The serving load: offered rates in requests/s, 80 % puts.
const LOAD: Load = Load {
    rates: &[500.0, 1_000.0, 2_000.0, 4_000.0],
    nominal: 1,
    limit_ms: 25.0,
    write_share: 0.8,
    ladder_share: 0.8,
    closed_share: 0.2,
};
const WARMUP: Duration = Duration::from_millis(300);
/// `llogtool serve`'s checkpoint cadence.
const CHECKPOINT_EVERY: Duration = Duration::from_millis(500);
const SETUPS: usize = 3;

fn put(rng: &mut TestRng) -> WriteOp {
    WriteOp::put(ObjectId(rng.random_range(0..KEYS)), bytes(rng, VALUE_LEN))
}

fn get(rng: &mut TestRng) -> ObjectId {
    ObjectId(rng.random_range(0..KEYS))
}

fn stats(addr: SocketAddr) -> Result<StatsBody, String> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats: {e}"))
}

struct Served {
    dir: PathBuf,
    server: Server,
    opened: Vec<MetricsSnapshot>,
    setup_out: PhaseOut,
}

fn start(dir: &Path, preload: &[Item], warmup: &[Item]) -> Result<Served, String> {
    let engine = open_served(dir, SHARDS, &registry()).map_err(|e| format!("open: {e}"))?;
    let opened = engine.metrics_snapshot().per_shard;
    engine.spawn_checkpointer(CHECKPOINT_EVERY);
    let server =
        Server::start(engine, ServerConfig::default()).map_err(|e| format!("start: {e}"))?;
    let off = Tracer::new(false);
    let fill = Pace::Closed {
        window: WINDOW,
        deadline: Duration::from_secs(3600),
    };
    let mut out = drive::tcp(server.local_addr(), preload, fill, &off)?;
    let warm = drive::tcp(server.local_addr(), warmup, Pace::Open, &off)?;
    if out.failed + warm.failed > 0 {
        return Err("set-up requests failed".into());
    }
    out.acked += warm.acked;
    out.user_bytes += warm.user_bytes;
    Ok(Served {
        dir: dir.to_path_buf(),
        server,
        opened,
        setup_out: out,
    })
}

/// Counter growth between two `Stats` answers.
fn grew(before: &StatsBody, after: &StatsBody, f: impl Fn(&StatsBody) -> u64) -> f64 {
    f(after).saturating_sub(f(before)) as f64
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let tr = &cfg.tracer;
    let mut rng = rng(cfg.seed, "serve_mixed");
    let preload: Vec<Item> = (0..KEYS)
        .map(|k| Item {
            due_ns: 0,
            req: Req::Write(WriteOp::put(ObjectId(k), bytes(&mut rng, VALUE_LEN))),
        })
        .collect();
    let warm_ns = WARMUP.as_nanos() as u64;
    let warmup = open_loop(
        &mut rng,
        LOAD.rates[LOAD.nominal],
        warm_ns,
        LOAD.write_share,
        put,
        get,
    );
    let plan = LOAD.plan(cfg, &mut rng, &mut put, &mut get);
    let rung_ops: Vec<WriteOp> = if cfg.traced() {
        (0..rungs::STREAM_LEN).map(|_| put(&mut rng)).collect()
    } else {
        Vec::new()
    };

    let mut r = Report::default();
    let (served, setup_s) = setups(
        if cfg.traced() { 1 } else { SETUPS },
        |k| start(&cfg.dir.join(format!("db-{k}")), &preload, &warmup),
        |s| {
            s.server.shutdown().shutdown().map_err(|e| e.to_string())?;
            std::fs::remove_dir_all(&s.dir).map_err(|e| e.to_string())
        },
    )?;
    r.e2e("setup_s", setup_s, "s");
    let addr = served.server.local_addr();
    let mut oracle = Oracle::new([]);
    oracle.apply_items(&preload)?;
    oracle.apply_items(&warmup)?;

    let before = stats(addr)?;
    let served_load = serving::serve(cfg, &plan, &mut oracle, |items, pace, tr| {
        drive::tcp(addr, items, pace, tr)
    })?;
    let after = stats(addr)?;
    serving::report(&mut r, &plan, &served_load, &oracle);
    let (puts, user_bytes) = served_load.writes();
    let fsyncs = grew(&before, &after, |s| s.io_fsyncs);
    r.layer(
        "engine.mean_batch",
        ratio(
            grew(&before, &after, |s| s.batched_ops),
            grew(&before, &after, |s| s.batches),
        ),
        "ops",
    );
    r.layer(
        "engine.forces_coalesced_per_fsync",
        ratio(grew(&before, &after, |s| s.forces_coalesced), fsyncs),
        "count",
    );
    r.layer(
        "engine.backpressure_waits_per_op",
        ratio(grew(&before, &after, |s| s.backpressure_waits), puts as f64),
        "count",
    );
    r.layer(
        "storage.fsyncs_per_put",
        ratio(fsyncs, puts as f64),
        "count",
    );
    r.layer(
        "storage.versions_retained",
        after.versions_retained as f64,
        "count",
    );

    // Crash: cut every connection, abandon the flushers, drop the engine.
    let engine = served.server.abort();
    let at_crash = engine.metrics_snapshot().per_shard;
    report_log(
        &mut r,
        &served.opened,
        &at_crash,
        puts + served.setup_out.acked,
        user_bytes + served.setup_out.user_bytes,
    )?;
    drop(engine.crash());

    if cfg.traced() {
        report_load(&mut r, tr, &file_backends(&served.dir, SHARDS)?)?;
    }

    let t = Instant::now();
    let reopened =
        open_served(&served.dir, SHARDS, &registry()).map_err(|e| format!("reopen: {e}"))?;
    r.e2e("recovery_s", t.elapsed().as_secs_f64(), "s");
    let rec = reopened.metrics_snapshot().per_shard;
    let zero = vec![MetricsSnapshot::default(); SHARDS];
    report_recovery(
        &mut r,
        &zero,
        &rec,
        counter(&rec, "redo_ops")?,
        counter(&rec, "skipped_ops")?,
    )?;
    for x in oracle.objects() {
        let got = reopened
            .read_value(x)
            .map_err(|e| format!("read {x:?}: {e}"))?;
        r.check(got == oracle.value(x), || {
            let what = if got.is_empty() {
                "nothing"
            } else if oracle.admits(x, got.as_bytes()) {
                "an older value"
            } else {
                "a value never written"
            };
            format!("after reopen {x:?} reads {what}, not its last acknowledged put")
        });
    }
    reopened.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    if cfg.traced() {
        rungs::run(&rung_ops, &cfg.dir.join("rungs"), tr, &mut r)?;
        // The server owns its engine, so engine-level spans come from the
        // durable-ack rung, which drives the same configuration.
        for (name, span) in [
            ("engine.execute_ns", "ack.execute"),
            ("engine.ticket_wait_ns", "ack.ticket_wait"),
        ] {
            let d = tr.durations(span);
            r.layer(&format!("{name}.p50"), quantile(&d, 0.5), "ns");
            r.layer(&format!("{name}.p99"), quantile(&d, 0.99), "ns");
        }
    }
    r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(r)
}
