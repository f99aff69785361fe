//! Run every experiment table in sequence (the EXPERIMENTS.md generator).
fn main() {
    for (name, table) in [
        (
            "E1 — Figure 1: logging cost",
            llog_bench::e1_logging_cost::table(),
        ),
        (
            "E2 — domain logging cost",
            llog_bench::e2_domain_logging::table(),
        ),
        (
            "E3a — Figure 7 trace",
            llog_bench::e3_flushsets::figure7_table(),
        ),
        (
            "E3b — flush-set sweep",
            llog_bench::e3_flushsets::sweep_table(),
        ),
        (
            "E4 — flush-set break-up costs",
            llog_bench::e4_flush_break::table(),
        ),
        ("E5 — REDO tests", llog_bench::e5_redo_tests::table()),
        ("E6 — checkpointing", llog_bench::e6_checkpointing::table()),
        ("E7 — ablation", llog_bench::e7_ablation::table()),
        (
            "E8 — fuzzy backups / media recovery",
            llog_bench::e8_media::table(),
        ),
        (
            "E9 — cache pressure",
            llog_bench::e9_cache_pressure::table(),
        ),
        (
            "E10 — flush amortization",
            llog_bench::e10_amortization::table(),
        ),
    ] {
        println!("== {name} ==");
        println!("{table}");
    }
    let p = llog_bench::e11_sharding::Params::from_env();
    let e11 = llog_bench::e11_sharding::run(&p);
    println!("== E11 — sharded engines + group commit ==");
    println!("{}", llog_bench::e11_sharding::scaling_table(&e11));
    println!("{}", llog_bench::e11_sharding::batch_table(&e11));
    let p12 = llog_bench::e12_recovery_speed::Params::from_env();
    let e12 = llog_bench::e12_recovery_speed::run(&p12);
    println!("== E12 — serial vs parallel redo + shared-pool sharded recovery ==");
    println!("{}", llog_bench::e12_recovery_speed::modes_table(&e12));
    println!("{}", llog_bench::e12_recovery_speed::sharded_table(&e12));
    let p13 = llog_bench::e13_backend_cost::Params::from_env();
    let e13 = llog_bench::e13_backend_cost::run(&p13);
    println!("== E13 — durability backends: incremental checkpoint + segment reclaim ==");
    println!("{}", llog_bench::e13_backend_cost::ckpt_table(&e13));
    println!("{}", llog_bench::e13_backend_cost::reclaim_table(&e13));
    let p16 = llog_bench::e16_append_speed::Params::from_env();
    let e16 = llog_bench::e16_append_speed::run(&p16);
    println!("== E16 — hot-path log device: recycling + double buffer + coalescing ==");
    println!("{}", llog_bench::e16_append_speed::table(&e16));
    let p17 = llog_bench::e17_snapshot_reads::Params::from_env();
    let e17 = llog_bench::e17_snapshot_reads::run(&p17);
    println!("== E17 — MVCC snapshot reads: lock-free readers vs the engine mutex ==");
    println!("{}", llog_bench::e17_snapshot_reads::table(&e17));
    let p18 = llog_bench::e18_hybrid_logging::Params::from_env();
    let e18 = llog_bench::e18_hybrid_logging::run(&p18);
    println!("== E18 — adaptive hybrid logging: recovery speed vs log volume ==");
    println!("{}", llog_bench::e18_hybrid_logging::table(&e18));
    let p19 = llog_bench::e19_rw_scaling::Params::from_env();
    let e19 = llog_bench::e19_rw_scaling::run(&p19);
    println!("== E19 — rW scaling: execute cost vs window, recovery vs log length ==");
    println!("{}", llog_bench::e19_rw_scaling::window_table(&e19));
    println!("{}", llog_bench::e19_rw_scaling::recovery_table(&e19));
    let ok = (1..=5u64).all(llog_bench::e6_checkpointing::idempotency_check);
    println!(
        "Theorem 2 idempotency: {}",
        if ok { "HOLDS" } else { "VIOLATED" }
    );
}
