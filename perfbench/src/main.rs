//! The recovery engine's benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_mixed|ingest_rmw|crash_recover> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is a separate run that records spans around the benchmark's calls into
//! each layer and prints the per-layer metrics. Either way the run checks
//! the program's outputs and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed check makes
//! the run exit non-zero. See `perfbench/README.md` for what each workload
//! and metric means.

mod counters;
mod crash_recover;
mod drive;
mod gen;
mod ingest_rmw;
mod rungs;
mod serve_mixed;
mod serving;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

use llog_storage::device::DeviceConfig;
use llog_storage::{Metrics, MetricsSnapshot};
use llog_wal::{DurabilityBackend, Wal};

use crate::drive::PhaseOut;
use crate::stats::ms;
use crate::trace::Tracer;

/// Where runs keep their databases and traces, relative to the checkout.
const OUT_DIR: &str = ".bench_out";
/// Longest a run may take before it gives up.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// A run's settings, from the command line.
pub struct Cfg {
    pub seed: u64,
    pub seconds: u64,
    pub tracer: Tracer,
    /// Scratch directory of this run (removed when it ends).
    pub dir: PathBuf,
}

impl Cfg {
    pub fn traced(&self) -> bool {
        self.tracer.on()
    }

    /// `share` of the run's measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds as f64 * share)
    }
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    e2e: Vec<(String, f64, &'static str)>,
    layers: Vec<(String, f64, &'static str)>,
    /// Printed in the table only.
    extra: Vec<(String, f64, &'static str)>,
    /// Free-form lines printed above the metrics (per-rung detail).
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push((name.into(), value, unit));
    }

    /// An end-to-end metric printed in the table but left out of the JSON
    /// result: too unsteady on a small shared host to gate a change on
    /// (see README).
    pub fn table_only(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push((name.into(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }

    /// A failed correctness check: the run reports `correct: false` and
    /// exits non-zero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// A free-form line printed above the metrics.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count a timed phase's requests toward `attempted`/`failed`.
    pub fn count(&mut self, p: &PhaseOut) {
        self.attempted += p.sent as u64;
        self.failed += p.failed;
    }
}

/// Per-layer metric as a ratio, 0 when the denominator is 0 (the layer
/// was not crossed).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Log volume over an engine's write phases: log bytes (every record:
/// ops, identity writes, checkpoints) per user byte and per write.
pub fn report_log(
    r: &mut Report,
    before: &[MetricsSnapshot],
    after: &[MetricsSnapshot],
    writes: u64,
    user_bytes: u64,
) -> Result<(), String> {
    let log_bytes = counters::delta(before, after, "log_bytes")? as f64;
    let identity = counters::delta(before, after, "identity_writes")? as f64;
    r.e2e(
        "log_bytes_per_user_byte",
        ratio(log_bytes, user_bytes as f64),
        "B/B",
    );
    r.layer("wal.log_bytes_per_op", ratio(log_bytes, writes as f64), "B");
    r.layer(
        "core.identity_writes_per_op",
        ratio(identity, writes as f64),
        "count",
    );
    Ok(())
}

/// A recovery's layer split, from the recovered shards' counters
/// (`before` is what the same metrics held when the crash hit).
pub fn report_recovery(
    r: &mut Report,
    before: &[MetricsSnapshot],
    after: &[MetricsSnapshot],
    redone: u64,
    skipped: u64,
) -> Result<(), String> {
    let d = |name| counters::delta(before, after, name);
    let redo_ns = d("recovery_redo_ns")? as f64;
    r.layer(
        "core.recover_analysis_ms",
        ms(d("recovery_analysis_ns")? as f64),
        "ms",
    );
    r.layer("core.recover_redo_ms", ms(redo_ns), "ms");
    r.layer("core.redone", redone as f64, "count");
    r.layer("core.skipped", skipped as f64, "count");
    r.layer("core.redo_ns_per_op", ratio(redo_ns, redone as f64), "ns");
    r.layer(
        "wal.records_decoded",
        d("recovery_records_decoded")? as f64,
        "count",
    );
    Ok(())
}

/// `Wal::scan` over each shard's log, from where recovery's analysis
/// starts (the master checkpoint, else the log start) →
/// `wal.scan_ns_per_record`. A crash can leave a torn frame at the tail;
/// the scan ends there, as recovery's does.
pub fn report_scan(r: &mut Report, tr: &Tracer, wals: &[&Wal]) {
    let mut records = 0u64;
    for (i, wal) in wals.iter().enumerate() {
        let from = wal.master_checkpoint().unwrap_or_else(|| wal.start_lsn());
        records += tr.time("wal.scan", i as u64, || {
            wal.scan(from).take_while(|rec| rec.is_ok()).count() as u64
        });
    }
    let ns: u64 = tr.durations("wal.scan").iter().sum();
    r.layer(
        "wal.scan_ns_per_record",
        ratio(ns as f64, records as f64),
        "ns",
    );
}

/// The log and store devices of a served database (`boot::open_served`'s
/// shape: segments preallocated ahead of the append cursor).
pub fn served_device() -> DeviceConfig {
    DeviceConfig::default().with_fast_segments(2)
}

/// The file backends of `shards` shards under `dir` (`shard-<i>/`).
pub fn file_backends(dir: &Path, shards: usize) -> Result<Vec<DurabilityBackend>, String> {
    (0..shards)
        .map(|i| {
            let shard = dir.join(format!("shard-{i}"));
            DurabilityBackend::file(&shard, Metrics::new(), &served_device())
                .map_err(|e| format!("open backend: {e}"))
        })
        .collect()
}

/// `DurabilityBackend::load` of each shard → `storage.load_ms` (median per
/// shard), then `Wal::scan` over the loaded logs.
pub fn report_load(
    r: &mut Report,
    tr: &Tracer,
    backends: &[DurabilityBackend],
) -> Result<(), String> {
    let mut loaded = Vec::new();
    for (i, b) in backends.iter().enumerate() {
        let pair = tr
            .time("storage.load", i as u64, || b.load(Metrics::new()))
            .map_err(|e| format!("load: {e}"))?;
        loaded.push(pair.ok_or("a shard's devices were empty")?);
    }
    let load: Vec<f64> = tr
        .durations("storage.load")
        .iter()
        .map(|&ns| ms(ns as f64))
        .collect();
    r.layer("storage.load_ms", stats::median_f64(&load), "ms");
    let wals: Vec<&Wal> = loaded.iter().map(|(_, w)| w).collect();
    report_scan(r, tr, &wals);
    Ok(())
}

/// Run `setup` `n` times, tearing down all but the last; returns the last
/// result and the median set-up time in seconds.
pub fn setups<T>(
    n: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(n);
    let mut kept = None;
    for k in 0..n {
        if let Some(old) = kept.take() {
            teardown(old)?;
        }
        let t = std::time::Instant::now();
        kept = Some(setup(k)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    let kept = kept.ok_or("no set-up ran")?;
    Ok((kept, stats::median_f64(&secs)))
}

/// Process high-water resident set size, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <serve_mixed|ingest_rmw|crash_recover> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage())
    };
    let workload = arg("--workload");
    let seed: u64 = arg("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: u64 = arg("--seconds").parse().unwrap_or_else(|_| usage());
    let trace = match arg("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    if seconds == 0 {
        usage();
    }
    let dir = Path::new(OUT_DIR).join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    // The run must end within its time limit even if the program under
    // test stalls; this thread is never joined, the exit below ends it.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("perfbench: run exceeded {RUN_LIMIT:?}; giving up");
        std::process::exit(3);
    });
    let cfg = Cfg {
        seed,
        seconds,
        tracer: Tracer::new(trace),
        dir,
    };
    let result = match workload.as_str() {
        "serve_mixed" => serve_mixed::run(&cfg),
        "ingest_rmw" => ingest_rmw::run(&cfg),
        "crash_recover" => crash_recover::run(&cfg),
        _ => usage(),
    };
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let mut r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    };
    let failed_frac = ratio(r.failed as f64, r.attempted as f64);
    r.table_only("failed_frac", failed_frac, "fraction");
    if trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}-{seed}.tsv"));
        match cfg.tracer.write(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => r.errors.push(format!("writing {}: {e}", path.display())),
        }
    }
    let shown = if trace { &r.layers } else { &r.e2e };
    println!(
        "workload {workload}  seed {seed}  seconds {seconds}  trace {}",
        u8::from(trace)
    );
    for note in &r.notes {
        println!("  {note}");
    }
    for (name, value, unit) in shown.iter().chain(&r.extra) {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    for e in r.errors.iter().take(10) {
        println!("  CHECK FAILED: {e}");
    }
    if r.errors.len() > 10 {
        println!("  ... and {} more failed checks", r.errors.len() - 10);
    }
    let metrics: Vec<String> = shown
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let correct = r.errors.is_empty() && r.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
