//! E19 — rW scaling: per-op engine cost against the uninstalled window,
//! and recovery time against log length.
//!
//! Fig. 6 `addop_rW` is specified per operation and incrementally, and
//! logical recovery is only competitive while that per-op bookkeeping
//! stays cheap. This experiment measures the two scaling curves a
//! whole-graph step would bend:
//!
//! - **Part A (window).** `Engine::execute` cost while the uninstalled
//!   window is held at each size (one `install_one` after every timed
//!   op). Bar: the cost at the largest window is at most 2× the cost at
//!   the smallest.
//! - **Part B (log length).** Crash recovery time of a log with no
//!   installs, so redo rebuilds the whole log as one uninstalled window,
//!   at a base length and at 4× that length. Bar: the 4× log recovers in
//!   at most 5× the time. Every recovery is checked against a replay of
//!   the stable log.
//!
//! The load is the `ingest_rmw` mix at small scale: blind 64-byte puts
//! and `HASH_MIX` read-modify-writes reading one or two objects, over a
//! key space larger than the largest window.
//!
//! Part B's base log is 1000 operations, the size at which whole-graph
//! maintenance already cost 0.21 s and 4× the log 14× the time. Longer
//! logs add a hardware term the bar is not about: once the live window's
//! working set leaves the caches, every per-op step slows down, the pure
//! transform included, and on a 2-vCPU host the 4× ratio reads 4.4–5.8 at
//! 4k–32k base operations with the same bookkeeping per operation
//! (EXPERIMENTS.md, E19). Recovery times are the minimum over interleaved
//! repetitions, which a shared host's interference can only lengthen.
//!
//! The `exp_e19_rw_scaling` binary prints both tables and writes
//! `BENCH_e19.json` (path overridable via `LLOG_BENCH_JSON`);
//! `LLOG_BENCH_FAST=1` shrinks the workload for CI.

use std::fmt::Write as _;
use std::time::Instant;

use llog_core::{recover, Engine, RedoPolicy};
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_sim::{verify_against_log, Table};
use llog_storage::StableStore;
use llog_testkit::TestRng;
use llog_types::{ObjectId, Value};
use llog_wal::Wal;

/// Objects the mix draws from: larger than the largest window.
const KEYS: u64 = 16_384;
/// Part B's base log length; the long log is 4× this.
pub const BASE_OPS: usize = 1_000;

/// Workload knobs.
#[derive(Debug, Clone)]
pub struct Params {
    /// Uninstalled-window sizes for Part A, ascending.
    pub windows: Vec<usize>,
    /// Timed operations per window.
    pub timed_ops: usize,
    /// Recoveries per log length (the minimum is reported).
    pub reps: usize,
}

impl Params {
    /// Full-size run.
    pub fn full() -> Params {
        Params {
            windows: vec![64, 256, 1024, 4096],
            timed_ops: 4096,
            reps: 11,
        }
    }

    /// CI smoke run: only the two windows the bar compares.
    pub fn fast() -> Params {
        Params {
            windows: vec![64, 4096],
            timed_ops: 2048,
            reps: 7,
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

/// Execute one seeded op of the mix: 30 % blind puts, 70 % `HASH_MIX`
/// read-modify-writes of one object, reading one other half the time.
fn step(e: &mut Engine, rng: &mut TestRng) {
    let x = ObjectId(rng.random_range(0..KEYS));
    let r = if rng.random_range(0u32..10) < 3 {
        let v = Value::from_slice(&rng.next_u64().to_le_bytes().repeat(8));
        e.execute(
            OpKind::Physical,
            vec![],
            vec![x],
            Transform::new(builtin::CONST, builtin::encode_values(&[v])),
        )
    } else {
        let mut reads = vec![x];
        if rng.bool() {
            let y = ObjectId(rng.random_range(0..KEYS));
            if y != x {
                reads.push(y);
            }
        }
        let salt = Value::from_slice(&rng.next_u64().to_le_bytes());
        e.execute(
            OpKind::Logical,
            reads,
            vec![x],
            Transform::new(builtin::HASH_MIX, salt),
        )
    };
    r.expect("execute");
}

/// Rounds Part A alternates the windows over.
const ROUNDS: usize = 8;
/// Operations per timed batch.
const BATCH: usize = 64;

/// Part A: ns per `execute` with the window held at each of `p.windows`.
/// One engine per window; the windows take turns, `p.timed_ops / ROUNDS`
/// operations per turn, so a burst of interference lands on one turn of
/// one window, not on a whole window. Each figure is the fastest batch of
/// `BATCH` operations, since interference only slows a batch down.
pub fn execute_costs(p: &Params) -> Vec<f64> {
    let mut runs: Vec<(usize, Engine, TestRng, f64)> = p
        .windows
        .iter()
        .map(|&window| {
            let mut e = Engine::new(crate::default_config(), TransformRegistry::with_builtins());
            let mut rng = TestRng::seed_from_u64(19 + window as u64);
            while e.uninstalled_count() < window {
                step(&mut e, &mut rng);
            }
            (window, e, rng, f64::MAX)
        })
        .collect();
    for _ in 0..ROUNDS {
        for (window, e, rng, best) in &mut runs {
            for _ in 0..p.timed_ops / ROUNDS / BATCH {
                let mut ns = 0u128;
                for _ in 0..BATCH {
                    let t = Instant::now();
                    step(e, rng);
                    ns += t.elapsed().as_nanos();
                    while e.uninstalled_count() > *window {
                        e.install_one().expect("install");
                    }
                }
                *best = best.min(ns as f64 / BATCH as f64);
            }
        }
    }
    runs.into_iter().map(|(_, _, _, best)| best).collect()
}

/// A crashed image of an `ops`-long log with no installs.
fn crashed_image(ops: usize) -> (StableStore, Wal) {
    let mut e = Engine::new(crate::default_config(), TransformRegistry::with_builtins());
    let mut rng = TestRng::seed_from_u64(1919);
    for _ in 0..ops {
        step(&mut e, &mut rng);
    }
    e.wal_mut().force();
    e.crash()
}

/// Part B: recovery time (ms) of each log length, the minimum over
/// `p.reps` rounds that recover every length once; panics if a recovery
/// disagrees with the log replay.
pub fn recovery_ms(lengths: &[usize], p: &Params) -> Vec<f64> {
    let registry = TransformRegistry::with_builtins();
    let config = crate::default_config();
    let images: Vec<(StableStore, Wal)> = lengths.iter().map(|&n| crashed_image(n)).collect();
    let mut best = vec![f64::MAX; lengths.len()];
    for _ in 0..p.reps {
        for ((store, wal), best) in images.iter().zip(&mut best) {
            let (s, w) = (store.clone(), wal.clone());
            let t = Instant::now();
            let (rec, _) =
                recover(s, w, registry.clone(), config, RedoPolicy::RsiExposed).expect("recover");
            *best = best.min(t.elapsed().as_secs_f64() * 1e3);
            verify_against_log(&rec, &registry).expect("recovered state matches the log");
        }
    }
    best
}

/// Both parts' measurements.
#[derive(Debug, Clone)]
pub struct Report {
    /// `(window, ns per execute)`.
    pub windows: Vec<(usize, f64)>,
    /// `(log ops, recovery ms)`: base then 4×.
    pub logs: Vec<(usize, f64)>,
}

/// Run both parts.
pub fn run(p: &Params) -> Report {
    let lengths = [BASE_OPS, 4 * BASE_OPS];
    Report {
        windows: p.windows.iter().copied().zip(execute_costs(p)).collect(),
        logs: lengths.into_iter().zip(recovery_ms(&lengths, p)).collect(),
    }
}

impl Report {
    /// Execute cost at the largest window over the smallest (bar ≤ 2).
    pub fn execute_ratio(&self) -> f64 {
        let (first, last) = (self.windows[0].1, self.windows[self.windows.len() - 1].1);
        last / first
    }

    /// Recovery time of the 4× log over the base log (bar ≤ 5).
    pub fn recovery_ratio(&self) -> f64 {
        self.logs[1].1 / self.logs[0].1
    }

    /// Both bars hold.
    pub fn ok(&self) -> bool {
        self.execute_ratio() <= 2.0 && self.recovery_ratio() <= 5.0
    }

    /// The machine-readable document behind `BENCH_e19.json`. The
    /// regression-gated headline, `recovery_ratio`, comes last.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"experiment\":\"e19_rw_scaling\",\"windows\":[");
        for (i, (w, ns)) in self.windows.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}{{\"window\":{w},\"execute_ns\":{ns:.0}}}");
        }
        s.push_str("],\"logs\":[");
        for (i, (n, ms)) in self.logs.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}{{\"ops\":{n},\"recovery_ms\":{ms:.3}}}");
        }
        let _ = write!(
            s,
            "],\"ok\":{},\"execute_ratio\":{:.3},\"recovery_ratio\":{:.3}}}",
            self.ok(),
            self.execute_ratio(),
            self.recovery_ratio()
        );
        s
    }
}

/// Part A's table.
pub fn window_table(r: &Report) -> Table {
    let mut t = Table::new(vec!["window (ops)", "execute us/op", "vs smallest"]);
    for &(w, ns) in &r.windows {
        t.row(vec![
            format!("{w}"),
            format!("{:.2}", ns / 1e3),
            format!("{:.2}x", ns / r.windows[0].1),
        ]);
    }
    t
}

/// Part B's table.
pub fn recovery_table(r: &Report) -> Table {
    let mut t = Table::new(vec!["log (ops)", "recovery ms", "vs base"]);
    for &(n, ms) in &r.logs {
        t.row(vec![
            format!("{n}"),
            format!("{ms:.2}"),
            format!("{:.2}x", ms / r.logs[0].1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_reports_every_row_and_recovers_correctly() {
        let p = Params {
            windows: vec![8, 32],
            timed_ops: ROUNDS * BATCH,
            reps: 1,
        };
        let r = run(&p);
        assert_eq!(r.windows.len(), 2);
        assert_eq!(
            r.logs.iter().map(|l| l.0).collect::<Vec<_>>(),
            vec![BASE_OPS, 4 * BASE_OPS]
        );
        let json = r.to_json();
        assert!(json.starts_with("{\"experiment\":\"e19_rw_scaling\""));
        assert!(json.contains("\"execute_ratio\":") && json.ends_with('}'));
    }
}
