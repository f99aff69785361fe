//! E19: rW scaling — execute cost vs uninstalled window, recovery time vs
//! log length.
//!
//! Writes `BENCH_e19.json` (override the path with `LLOG_BENCH_JSON`);
//! `LLOG_BENCH_FAST=1` shrinks the workload for CI smoke runs.

use llog_bench::e19_rw_scaling::{recovery_table, run, window_table, Params, BASE_OPS};

fn main() {
    let p = Params::from_env();
    println!(
        "E19 — rW scaling: windows {:?} ({} timed ops each), recovery of {} and {} ops",
        p.windows,
        p.timed_ops,
        BASE_OPS,
        4 * BASE_OPS
    );
    let report = run(&p);

    println!("\nEngine::execute cost with the uninstalled window held:");
    println!("{}", window_table(&report));
    println!("Crash recovery of a log with no installs:");
    println!("{}", recovery_table(&report));
    println!(
        "execute ratio (largest/smallest window): {:.2}x (target <= 2)",
        report.execute_ratio()
    );
    println!(
        "recovery ratio (4x log/base log): {:.2}x (target <= 5): {}",
        report.recovery_ratio(),
        if report.ok() { "OK" } else { "FAIL" }
    );

    let json = report.to_json();
    println!("\n{json}");
    let path = std::env::var("LLOG_BENCH_JSON").unwrap_or_else(|_| "BENCH_e19.json".to_string());
    if let Err(err) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("could not write {path}: {err}");
        std::process::exit(1);
    }
    println!("wrote {path}");
    if !report.ok() {
        std::process::exit(1);
    }
}
