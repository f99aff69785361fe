//! E12: recovery speed — serial vs parallel redo.
//!
//! Writes `BENCH_e12.json` (override the path with `LLOG_BENCH_JSON`);
//! `LLOG_BENCH_FAST=1` shrinks the workload for CI smoke runs.

use llog_bench::e12_recovery_speed::{modes_table, run, sharded_table, Params};

fn main() {
    let p = Params::from_env();
    println!(
        "E12 — recovery speed: {} ops/component, {:?} simulated replay \
         latency, {} redo workers",
        p.ops_per_component, p.op_latency, p.workers
    );
    let report = run(&p);

    println!("\nPart A — recovery wall-clock by worker count and component count:");
    println!("{}", modes_table(&report));
    println!(
        "speedup at 4 components, serial vs parallel: {:.2}x (target > 2x)",
        report.speedup_4c()
    );

    println!("\nPart B — shared-pool sharded recovery:");
    println!("{}", sharded_table(&report));
    println!(
        "per-op recovery rate, 4 shards vs 1: {:.2}x",
        report.shard_speedup_4x()
    );

    let json = report.to_json();
    println!("\n{json}");
    let path = std::env::var("LLOG_BENCH_JSON").unwrap_or_else(|_| "BENCH_e12.json".to_string());
    if let Err(err) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("could not write {path}: {err}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}
