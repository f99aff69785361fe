//! The serving load every workload runs against its front door: an
//! open-loop rate ladder, then a closed loop. Each rung and the closed
//! loop are split into windows, and every reported figure is the median
//! over windows, so a burst of interference on a shared machine moves one
//! window, not the result.

use llog_engine::ShardedEngine;
use llog_testkit::TestRng;
use llog_types::ObjectId;

use crate::counters::{delta, gauge};
use crate::drive::{self, Pace, PhaseOut};
use crate::gen::{closed_loop, open_loop, Item, Oracle, WriteOp};
use crate::stats::{median_f64, ms, quantile};
use crate::trace::Tracer;
use crate::{ratio, Cfg, Report};

/// Outstanding writes the closed loop allows.
pub const WINDOW: usize = 64;
/// Windows per ladder rung (the nominal rung gets [`NOMINAL_WINDOWS`]).
const RUNG_WINDOWS: usize = 3;
const NOMINAL_WINDOWS: usize = 10;
/// Windows of the closed loop.
const CLOSED_WINDOWS: usize = 12;
/// Writes generated for the closed loop. The loop issues them in order and
/// starts over at the first when it reaches the end, so a faster program
/// never runs out of input; a window that reaches the end stops early.
const CLOSED_POOL: usize = 131_072;

/// The ladder and the closed loop of one workload.
pub struct Load {
    pub rates: &'static [f64],
    pub nominal: usize,
    /// The write p99 a rate must meet to count toward `max_rate_ops_s`.
    pub limit_ms: f64,
    pub write_share: f64,
    /// Shares of the run's measuring time.
    pub ladder_share: f64,
    pub closed_share: f64,
}

/// A workload's serving requests, generated before anything is timed.
pub struct Plan {
    load: Load,
    /// Rung → window → items.
    ladder: Vec<Vec<Vec<Item>>>,
    closed: Vec<Item>,
}

impl Load {
    pub fn plan(
        self,
        cfg: &Cfg,
        rng: &mut TestRng,
        write: &mut dyn FnMut(&mut TestRng) -> WriteOp,
        read: &mut dyn FnMut(&mut TestRng) -> ObjectId,
    ) -> Plan {
        // The nominal rung, which gives the headline latencies, gets as
        // much time as the other rungs together.
        let others = (self.rates.len() - 1).max(1) as f64;
        let ladder = self
            .rates
            .iter()
            .enumerate()
            .map(|(i, &rate)| {
                let (share, windows) = if i == self.nominal {
                    (0.5, NOMINAL_WINDOWS)
                } else {
                    (0.5 / others, RUNG_WINDOWS)
                };
                let dur = cfg
                    .budget(self.ladder_share * share / windows as f64)
                    .as_nanos() as u64;
                (0..windows)
                    .map(|_| open_loop(rng, rate, dur, self.write_share, &mut *write, &mut *read))
                    .collect()
            })
            .collect();
        let closed = closed_loop(rng, CLOSED_POOL, &mut *write);
        Plan {
            load: self,
            ladder,
            closed,
        }
    }
}

/// What the serving phases observed.
pub struct Served {
    ladder: Vec<Vec<PhaseOut>>,
    /// Closed-loop windows, each with whether it was traced.
    closed: Vec<(bool, PhaseOut)>,
}

impl Served {
    fn all(&self) -> impl Iterator<Item = &PhaseOut> {
        self.ladder
            .iter()
            .flatten()
            .chain(self.closed.iter().map(|(_, o)| o))
    }

    /// Writes acknowledged and their user payload bytes.
    pub fn writes(&self) -> (u64, u64) {
        self.all()
            .fold((0, 0), |(n, b), o| (n + o.acked, b + o.user_bytes))
    }
}

/// Run `plan` through `front` (one phase per call) and fold every issued
/// write into `oracle`, in issue order. In a traced run the closed loop
/// alternates untraced and traced windows; their rates give the tracing
/// overhead.
pub fn serve(
    cfg: &Cfg,
    plan: &Plan,
    oracle: &mut Oracle,
    mut front: impl FnMut(&[Item], Pace, &Tracer) -> Result<PhaseOut, String>,
) -> Result<Served, String> {
    let mut ladder = Vec::new();
    for rung in &plan.ladder {
        let mut outs = Vec::new();
        for items in rung {
            outs.push(front(items, Pace::Open, &cfg.tracer)?);
            oracle.apply_items(items)?;
        }
        ladder.push(outs);
    }
    let off = Tracer::new(false);
    let pace = Pace::Closed {
        window: WINDOW,
        deadline: cfg.budget(plan.load.closed_share / CLOSED_WINDOWS as f64),
    };
    let mut closed = Vec::new();
    let mut from = 0;
    for w in 0..CLOSED_WINDOWS {
        let traced = cfg.traced() && w % 2 == 1;
        let out = front(
            &plan.closed[from..],
            pace,
            if traced { &cfg.tracer } else { &off },
        )?;
        oracle.apply_items(&plan.closed[from..from + out.sent])?;
        from = (from + out.sent) % plan.closed.len();
        closed.push((traced, out));
    }
    Ok(Served { ladder, closed })
}

fn window_median(outs: &[PhaseOut], f: impl Fn(&PhaseOut) -> f64) -> f64 {
    median_f64(&outs.iter().map(f).collect::<Vec<_>>())
}

fn p(samples: &[u64], q: f64) -> f64 {
    ms(quantile(samples, q))
}

/// Report the serving load's end-to-end metrics and check every read
/// against the oracle.
pub fn report(r: &mut Report, plan: &Plan, s: &Served, oracle: &Oracle) {
    let load = &plan.load;
    let mut max_rate = 0.0f64;
    for (&rate, outs) in load.rates.iter().zip(&s.ladder) {
        let put_p99 = window_median(outs, |o| p(&o.put_ns, 0.99));
        let backlog = window_median(outs, |o| o.backlog_end as f64);
        let late_p99 = window_median(outs, |o| p(&o.late_ns, 0.99));
        let failed: u64 = outs.iter().map(|o| o.failed).sum();
        let meets = put_p99 > 0.0 && put_p99 <= load.limit_ms;
        // A backlog shows as requests still queued when the schedule ends,
        // or, in process, as a generator that fell behind its schedule.
        let kept_up = backlog <= rate * load.limit_ms / 1e3 && late_p99 <= load.limit_ms;
        if failed == 0 && meets && kept_up {
            max_rate = max_rate.max(rate);
        }
        r.note(format!(
            "rung {rate:>8.0}/s ({} windows): put p50 {:.3} p99 {put_p99:.3} ms, get p50 {:.3} \
             p99 {:.3} ms, late p99 {:.3} ms, backlog {backlog}, failed {failed}",
            outs.len(),
            window_median(outs, |o| p(&o.put_ns, 0.5)),
            window_median(outs, |o| p(&o.get_ns, 0.5)),
            window_median(outs, |o| p(&o.get_ns, 0.99)),
            late_p99,
        ));
        let p99s: Vec<String> = outs
            .iter()
            .map(|o| format!("{:.2}", p(&o.put_ns, 0.99)))
            .collect();
        r.note(format!("    put p99 by window: {}", p99s.join(" ")));
    }
    let nom = &s.ladder[load.nominal];
    r.table_only(
        "put_p50_ms",
        window_median(nom, |o| p(&o.put_ns, 0.5)),
        "ms",
    );
    r.table_only(
        "put_p99_ms",
        window_median(nom, |o| p(&o.put_ns, 0.99)),
        "ms",
    );
    r.table_only(
        "get_p50_ms",
        window_median(nom, |o| p(&o.get_ns, 0.5)),
        "ms",
    );
    r.table_only(
        "get_p99_ms",
        window_median(nom, |o| p(&o.get_ns, 0.99)),
        "ms",
    );
    r.e2e("max_rate_ops_s", max_rate, "1/s");

    let rate = |o: &PhaseOut| o.acked as f64 / o.elapsed.as_secs_f64();
    let rates = |traced: bool| -> Vec<f64> {
        s.closed
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, o)| rate(o))
            .collect()
    };
    let untraced = median_f64(&rates(false));
    let shown: Vec<String> = s
        .closed
        .iter()
        .map(|(_, o)| format!("{:.0}", rate(o)))
        .collect();
    r.note(format!("closed loop rate by window: {}", shown.join(" ")));
    r.e2e("ingest_ops_s", untraced, "1/s");
    r.layer(
        "harness.trace_overhead_frac",
        ratio(untraced, median_f64(&rates(true))) - 1.0,
        "fraction",
    );
    let late = window_median(nom, |o| p(&o.late_ns, 0.99));
    r.layer("harness.gen_late_p99_ms", late, "ms");

    for o in s.all() {
        r.count(o);
        for (x, v) in &o.reads {
            r.check(oracle.admits(*x, v), || {
                format!("read of {x:?} returned a value no write ever gave it")
            });
        }
    }
}

/// Serve `plan` on an in-process engine and report, with the engine's own
/// counters for the per-layer split. Returns the writes acknowledged and
/// their user payload bytes.
pub fn serve_engine(
    cfg: &Cfg,
    engine: &ShardedEngine,
    plan: &Plan,
    oracle: &mut Oracle,
    r: &mut Report,
) -> Result<(u64, u64), String> {
    let before = engine.metrics_snapshot();
    let served = serve(cfg, plan, oracle, |items, pace, tr| {
        Ok(drive::local(engine, items, pace, tr))
    })?;
    let after = engine.metrics_snapshot();
    report(r, plan, &served, oracle);

    let (writes, user_bytes) = served.writes();
    let (gb, ga) = (&before.group_commit, &after.group_commit);
    let d = |name| delta(&before.per_shard, &after.per_shard, name);
    let (fsyncs, coalesced) = (d("io_fsyncs")? as f64, d("forces_coalesced")? as f64);
    let tr = &cfg.tracer;
    for (name, spans) in [
        ("engine.execute_ns", tr.durations("engine.execute")),
        ("engine.ticket_wait_ns", tr.durations("engine.ticket_wait")),
    ] {
        r.layer(&format!("{name}.p50"), quantile(&spans, 0.5), "ns");
        r.layer(&format!("{name}.p99"), quantile(&spans, 0.99), "ns");
    }
    let batches = (ga.batches - gb.batches) as f64;
    r.layer(
        "engine.mean_batch",
        ratio((ga.batched_ops - gb.batched_ops) as f64, batches),
        "ops",
    );
    r.layer(
        "engine.forces_coalesced_per_fsync",
        ratio(coalesced, fsyncs),
        "count",
    );
    let bp = (ga.backpressure_waits - gb.backpressure_waits) as f64;
    r.layer(
        "engine.backpressure_waits_per_op",
        ratio(bp, writes as f64),
        "count",
    );
    r.layer(
        "storage.fsyncs_per_put",
        ratio(fsyncs, writes as f64),
        "count",
    );
    let retained = gauge(&after.per_shard, "versions_retained")?;
    r.layer("storage.versions_retained", retained as f64, "count");
    Ok((writes, user_bytes))
}
