//! E12 — recovery speed: serial vs parallel redo.
//!
//! Recovery replays serially with one worker; with more, it partitions
//! the redo range's ops into conflict components (union–find over
//! `readset ∪ writeset`) replayed on a worker pool. Two measured claims:
//!
//! - **Part A (workers)**: on a k-component workload whose transform has
//!   a simulated per-op replay latency, parallel redo overlaps the latency
//!   across components — ≥2x faster than serial at 4 components.
//! - **Part B (shards)**: [`recover_sharded`](llog_engine::recover_sharded)
//!   drains shard recoveries from a shared pool; with per-shard logs
//!   carrying the same latency-bound work, 4 shards recover faster than
//!   the same ops in 1 shard.
//!
//! The per-op latency is *simulated* (the transform sleeps): like E11's
//! force latency, it keeps the claim honest on a single-core CI machine —
//! what is overlapped is the replay latency, not CPU.
//!
//! The `exp_e12_recovery_speed` binary prints both tables and writes
//! `BENCH_e12.json` (path overridable via `LLOG_BENCH_JSON`);
//! `LLOG_BENCH_FAST=1` shrinks the workload for CI.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use llog_core::{recover_with, Engine, RedoPolicy};
use llog_engine::{recover_sharded_with, CommitPolicy, ShardedConfig, ShardedEngine};
use llog_ops::{OpKind, Transform, TransformFn, TransformRegistry};
use llog_sim::Table;
use llog_storage::StableStore;
use llog_types::{FnId, ObjectId, Result, Value};
use llog_wal::Wal;

/// The slow deterministic transform's registry id (outside the builtin
/// range).
pub const SLOW_MIX: FnId = FnId(1000);

/// A deterministic FNV-style mix that sleeps `latency` per application —
/// the simulated cost of re-executing one logical operation at replay.
struct SlowMix {
    latency: Duration,
}

impl TransformFn for SlowMix {
    fn name(&self) -> &'static str {
        "slow_mix"
    }

    fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |b: u8| h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        params.iter().for_each(|&b| mix(b));
        for v in inputs {
            v.as_bytes().iter().for_each(|&b| mix(b));
        }
        Ok((0..n_outputs as u64)
            .map(|i| Value::from_slice(&(h ^ i).to_le_bytes()))
            .collect())
    }
}

/// [`TransformRegistry::with_builtins`] plus [`SLOW_MIX`] at `latency`.
pub fn slow_registry(latency: Duration) -> TransformRegistry {
    let mut r = TransformRegistry::with_builtins();
    r.register(SLOW_MIX, Arc::new(SlowMix { latency }));
    r
}

/// Workload knobs shared by both parts.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Operations per conflict component (Part A) and per shard (Part B).
    pub ops_per_component: usize,
    /// Simulated per-op replay latency (the thing parallel redo overlaps).
    pub op_latency: Duration,
    /// Worker-pool size for the parallel rows (explicit: CI machines may
    /// report one core, and the latency model doesn't need more).
    pub workers: usize,
}

impl Params {
    /// Full-size run (around a second).
    pub fn full() -> Params {
        Params {
            ops_per_component: 24,
            op_latency: Duration::from_micros(500),
            workers: 4,
        }
    }

    /// CI smoke run (tens of milliseconds).
    pub fn fast() -> Params {
        Params {
            ops_per_component: 6,
            op_latency: Duration::from_micros(400),
            workers: 4,
        }
    }

    /// `fast()` when `LLOG_BENCH_FAST=1`, else `full()`.
    pub fn from_env() -> Params {
        let fast = std::env::var("LLOG_BENCH_FAST")
            .map(|v| v == "1")
            .unwrap_or(false);
        if fast {
            Params::fast()
        } else {
            Params::full()
        }
    }
}

/// Build a crashed single-engine image with exactly `components` disjoint
/// operation chains: chain `c` reads and writes only object `c`, so the
/// conflict partition has one component per chain and every logged op is
/// redo work (nothing was installed).
pub fn component_workload(components: usize, p: &Params) -> (StableStore, Wal) {
    // Latency-free registry for the build: execution would otherwise pay
    // the sleep once per op before recovery is even measured.
    let registry = slow_registry(Duration::ZERO);
    let mut e = Engine::new(llog_core::EngineConfig::default(), registry);
    for i in 0..p.ops_per_component {
        for c in 0..components as u64 {
            e.execute(
                OpKind::Logical,
                vec![ObjectId(c)],
                vec![ObjectId(c)],
                Transform::new(SLOW_MIX, Value::from_slice(&(i as u64).to_le_bytes())),
            )
            .expect("in-memory execute");
        }
    }
    e.wal_mut().force();
    e.crash()
}

/// One Part A row: recovery of a `components`-chain image with a given
/// replay worker count.
#[derive(Debug, Clone)]
pub struct ModeRow {
    /// Conflict components in the workload.
    pub components: usize,
    /// Row label: `serial` (one worker) or `parallel`
    /// ([`Params::workers`]).
    pub mode: String,
    /// Recovery wall-clock.
    pub elapsed_ns: u64,
    /// Records the analysis pass visited.
    pub analysis_scanned: u64,
    /// Records the redo pass visited.
    pub redo_scanned: u64,
    /// Log records decoded end to end (`recovery_records_decoded`).
    pub records_decoded: u64,
    /// Conflict components the partitioner found (parallel rows only).
    pub components_found: u64,
    /// Redo worker threads used (parallel rows only).
    pub workers: u64,
    /// Operations re-executed.
    pub redone: u64,
}

/// Run one recovery of `(store, wal)` clones on `workers` replay threads.
pub fn run_mode(
    store: &StableStore,
    wal: &Wal,
    p: &Params,
    components: usize,
    label: &str,
    workers: usize,
) -> ModeRow {
    let registry = slow_registry(p.op_latency);
    // Cloned stores share one metrics ledger; measure this recovery as a
    // delta against the pre-recovery snapshot.
    let before = store.metrics().snapshot();
    let start = Instant::now();
    let (engine, outcome) = recover_with(
        store.clone(),
        wal.clone(),
        registry,
        llog_core::EngineConfig::default(),
        RedoPolicy::RsiExposed,
        workers,
    )
    .expect("clean log recovers");
    let elapsed = start.elapsed();
    let m = engine.metrics().snapshot().since(&before);
    ModeRow {
        components,
        mode: label.to_string(),
        elapsed_ns: elapsed.as_nanos() as u64,
        analysis_scanned: outcome.analysis_scanned,
        redo_scanned: outcome.redo_scanned,
        records_decoded: m.recovery_records_decoded,
        components_found: m.recovery_components,
        workers: m.recovery_parallel_workers,
        redone: outcome.redone,
    }
}

/// One Part B row: pool recovery of a sharded image.
#[derive(Debug, Clone, Copy)]
pub struct ShardRow {
    /// Shard count.
    pub shards: usize,
    /// Total ops in the image (all redo work).
    pub ops: u64,
    /// Wall-clock for `recover_sharded_with`.
    pub elapsed_ns: u64,
    /// Sum of per-shard redone counts.
    pub redone: u64,
}

/// Build and recover a `shards`-way image carrying `shards *
/// ops_per_component` slow ops; the pool overlaps per-shard replay
/// latency.
pub fn run_sharded(shards: usize, p: &Params) -> ShardRow {
    let build_registry = slow_registry(Duration::ZERO);
    let config = ShardedConfig {
        shards,
        commit: CommitPolicy::Sync,
        ..ShardedConfig::default()
    };
    let engine = ShardedEngine::new(config, &build_registry);
    // Keep total work constant per shard (not per image): each shard
    // carries `ops_per_component` ops on its own object.
    let mut total = 0u64;
    for s in 0..shards {
        let objs = engine.router().objects_for_shard(s, 1);
        let x = objs[0];
        for i in 0..p.ops_per_component {
            engine
                .execute(
                    OpKind::Logical,
                    vec![x],
                    vec![x],
                    Transform::new(SLOW_MIX, Value::from_slice(&(i as u64).to_le_bytes())),
                )
                .expect("shard-local op")
                .wait();
            total += 1;
        }
    }
    let parts = engine.crash();
    let recover_registry = slow_registry(p.op_latency);
    let start = Instant::now();
    let (rec, outcomes) = recover_sharded_with(
        parts,
        &recover_registry,
        config,
        RedoPolicy::RsiExposed,
        Some(p.workers),
    )
    .expect("sharded image recovers");
    let elapsed = start.elapsed();
    drop(rec);
    ShardRow {
        shards,
        ops: total,
        elapsed_ns: elapsed.as_nanos() as u64,
        redone: outcomes.iter().map(|o| o.redone).sum(),
    }
}

/// Everything the binary reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Part A: components {1,2,4,8} x {serial, parallel}.
    pub modes: Vec<ModeRow>,
    /// Part B: shards {1,4}.
    pub sharded: Vec<ShardRow>,
}

impl Report {
    fn mode_elapsed(&self, components: usize, mode: &str) -> Option<u64> {
        self.modes
            .iter()
            .find(|r| r.components == components && r.mode == mode)
            .map(|r| r.elapsed_ns)
    }

    /// Serial over parallel wall-clock on the 4-component workload.
    pub fn speedup_4c(&self) -> f64 {
        match (
            self.mode_elapsed(4, "serial"),
            self.mode_elapsed(4, "parallel"),
        ) {
            (Some(s), Some(p)) if p > 0 => s as f64 / p as f64,
            _ => 0.0,
        }
    }

    /// 1-shard over 4-shard pool-recovery wall-clock.
    pub fn shard_speedup_4x(&self) -> f64 {
        let at = |n: usize| {
            self.sharded
                .iter()
                .find(|r| r.shards == n)
                .map(|r| r.elapsed_ns)
        };
        match (at(1), at(4)) {
            (Some(one), Some(four)) if four > 0 => {
                // Per-shard work is constant, so compare per-op rates.
                let one_rate = one as f64 / 1.0;
                let four_rate = four as f64 / 4.0;
                one_rate / four_rate
            }
            _ => 0.0,
        }
    }

    /// The machine-readable document behind `BENCH_e12.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\"experiment\":\"e12_recovery_speed\",\"modes\":[");
        for (i, r) in self.modes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"components\":{},\"mode\":{:?},\"elapsed_ns\":{},\
                 \"analysis_scanned\":{},\"redo_scanned\":{},\
                 \"records_decoded\":{},\"components_found\":{},\"workers\":{},\"redone\":{}}}",
                r.components,
                r.mode,
                r.elapsed_ns,
                r.analysis_scanned,
                r.redo_scanned,
                r.records_decoded,
                r.components_found,
                r.workers,
                r.redone
            );
        }
        let _ = write!(s, "],\"speedup_4c\":{:.2},\"sharded\":[", self.speedup_4c());
        for (i, r) in self.sharded.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"shards\":{},\"ops\":{},\"elapsed_ns\":{},\"redone\":{}}}",
                r.shards, r.ops, r.elapsed_ns, r.redone
            );
        }
        let _ = write!(s, "],\"shard_speedup_4x\":{:.2}}}", self.shard_speedup_4x());
        s
    }
}

/// Run both parts with `p`.
pub fn run(p: &Params) -> Report {
    let mut modes = Vec::new();
    for &k in &[1usize, 2, 4, 8] {
        let (store, wal) = component_workload(k, p);
        for (label, workers) in [("serial", 1), ("parallel", p.workers)] {
            modes.push(run_mode(&store, &wal, p, k, label, workers));
        }
    }
    let sharded = [1usize, 4].iter().map(|&n| run_sharded(n, p)).collect();
    Report { modes, sharded }
}

/// Part A as a printable table.
pub fn modes_table(report: &Report) -> Table {
    let mut t = Table::new(vec![
        "components",
        "mode",
        "elapsed ms",
        "analysis",
        "redo scan",
        "decoded",
        "workers",
        "redone",
    ]);
    for r in &report.modes {
        t.row(vec![
            format!("{}", r.components),
            r.mode.clone(),
            format!("{:.2}", r.elapsed_ns as f64 / 1e6),
            format!("{}", r.analysis_scanned),
            format!("{}", r.redo_scanned),
            format!("{}", r.records_decoded),
            format!("{}", r.workers),
            format!("{}", r.redone),
        ]);
    }
    t
}

/// Part B as a printable table.
pub fn sharded_table(report: &Report) -> Table {
    let mut t = Table::new(vec!["shards", "ops", "elapsed ms", "redone"]);
    for r in &report.sharded {
        t.row(vec![
            format!("{}", r.shards),
            format!("{}", r.ops),
            format!("{:.2}", r.elapsed_ns as f64 / 1e6),
            format!("{}", r.redone),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        // Unit tests run unoptimized: a fat per-op latency keeps the
        // simulated replay cost (the thing being overlapped) dominant
        // over interpreter overhead.
        Params {
            ops_per_component: 6,
            op_latency: Duration::from_millis(2),
            workers: 4,
        }
    }

    #[test]
    fn parallel_beats_serial_on_four_components() {
        let p = tiny();
        let (store, wal) = component_workload(4, &p);
        let serial = run_mode(&store, &wal, &p, 4, "serial", 1);
        let parallel = run_mode(&store, &wal, &p, 4, "parallel", p.workers);
        assert_eq!(serial.redone, parallel.redone, "same work either way");
        assert_eq!(parallel.components_found, 4);
        let speedup = serial.elapsed_ns as f64 / parallel.elapsed_ns.max(1) as f64;
        assert!(
            speedup > 2.0,
            "parallel redo gave only {speedup:.2}x over serial \
             ({} vs {} ns)",
            parallel.elapsed_ns,
            serial.elapsed_ns
        );
    }

    #[test]
    fn pool_recovery_scales_with_shards() {
        let p = tiny();
        let one = run_sharded(1, &p);
        let four = run_sharded(4, &p);
        assert_eq!(one.redone, p.ops_per_component as u64);
        assert_eq!(four.redone, 4 * p.ops_per_component as u64);
        // Four shards carry 4x the ops; the pool must finish them in
        // well under 4x the one-shard time.
        assert!(
            (four.elapsed_ns as f64) < 2.5 * one.elapsed_ns as f64,
            "pool recovery did not overlap shard replay \
             ({} ns for 4 shards vs {} ns for 1)",
            four.elapsed_ns,
            one.elapsed_ns
        );
    }

    #[test]
    fn json_carries_the_acceptance_fields() {
        let report = Report {
            modes: vec![ModeRow {
                components: 4,
                mode: "parallel".into(),
                elapsed_ns: 1,
                analysis_scanned: 8,
                redo_scanned: 8,
                records_decoded: 8,
                components_found: 4,
                workers: 4,
                redone: 8,
            }],
            sharded: vec![ShardRow {
                shards: 1,
                ops: 8,
                elapsed_ns: 1,
                redone: 8,
            }],
        };
        let json = report.to_json();
        for key in [
            "\"experiment\":\"e12_recovery_speed\"",
            "\"modes\":[",
            "\"speedup_4c\":",
            "\"records_decoded\":",
            "\"sharded\":[",
            "\"shard_speedup_4x\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
