//! `llogtool` — run, inspect, recover and verify llog databases on disk.
//!
//! A database directory holds either two monolithic image files
//! (`store.llog` + `wal.llog`, the `mem` backend layout) or the segmented
//! device layout (`log/` + `store/` subdirectories, the `file` backend —
//! append-only WAL segments, incremental checkpoint deltas). Commands
//! auto-detect the layout; `--backend {mem,file}` picks it for the
//! commands that create databases. Commands:
//!
//! ```text
//! llogtool demo <dir> [ops] [seed] [--backend mem|file]
//!                                    run a workload and crash mid-flight
//! llogtool shard-demo <dir> [shards] [ops] [seed] [--backend mem|file]
//!                                    sharded run + group commit + parallel recovery
//! llogtool dump <dir>                print every stable log record
//! llogtool stats <dir|addr>          store/log statistics + backend I/O counters
//!                                    (an addr queries a live server's counters)
//! llogtool recover <dir> [policy]    recover (vsi|rsi), install, save back
//! llogtool verify <dir>              recover in memory and check the oracle
//! llogtool serve <dir> [shards] [addr]  run the TCP front end (DESIGN §12)
//! llogtool replicate <dir> <primary> [addr]  warm-standby replica (DESIGN §13)
//! llogtool promote <addr> [--from-dir <dir>] promote a replica to primary
//! llogtool lag <addr>                replication watermark/lag counters
//! llogtool load <addr> [ops] [seed] [conns]   seeded put workload, acked
//! llogtool check <addr> [ops] [seed] [conns]  verify a load's pairs
//! llogtool stop <addr>               ask a server to drain and exit
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use llog_cli::{
    cmd_backup, cmd_demo, cmd_dump, cmd_lag, cmd_load, cmd_media_recover, cmd_promote, cmd_recover,
    cmd_replicate, cmd_serve, cmd_server_stats, cmd_shard_demo, cmd_stats, cmd_stop, cmd_verify,
    Backend,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: llogtool <demo|shard-demo|dump|stats|recover|verify|backup|media-recover|serve|replicate|promote|lag|load|check|stop> <dir|addr> [args]\n\
         \n\
         demo <dir> [ops=200] [seed=42]   run a workload, crash, save the image\n\
         shard-demo <dir> [n=4] [ops] [seed] sharded run, group commit, crash, parallel recovery\n\
         dump <dir>                       print the stable log records\n\
         stats <dir|addr>                 store and log statistics (+ backend I/O counters);\n\
                                          an addr prints a live server's commit counters\n\
         recover <dir> [vsi|rsi]          recover, install everything, save back\n\
         verify <dir>                     recover in memory, compare to the oracle\n\
         backup <dir> <file>              archive a snapshot backup\n\
         media-recover <dir> <file>       restore from backup + surviving log\n\
         serve <dir> [shards=4] [addr=127.0.0.1:0]  run the TCP front end until `stop`;\n\
                                          writes the bound address to <dir>/server.addr\n\
         replicate <dir> <primary> [addr=127.0.0.1:0]  warm-standby replica of a running\n\
                                          server; writes its address to <dir>/replica.addr\n\
         promote <addr> [--from-dir <dir>] promote a replica to primary, optionally\n\
                                          catching up from the dead primary's directory\n\
         lag <addr>                       replication watermark/lag counters\n\
         load <addr> [ops=500] [seed=42] [conns=2]  seeded puts; exit 0 = all acked durable\n\
         check <addr> [ops=500] [seed=42] [conns=2] read the same pairs back, verify\n\
         stop <addr>                      ask a running server to drain and exit\n\
         \n\
         demo/shard-demo also take --backend {{mem,file}}: mem = monolithic\n\
         image files; file = segmented WAL + incremental checkpoint devices"
    );
    ExitCode::from(2)
}

/// Positional argument `i` as a number: `default` when absent, `None` when
/// present but not a number (the caller prints usage).
fn num<T: std::str::FromStr>(args: &[String], i: usize, default: T) -> Option<T> {
    match args.get(i) {
        Some(s) => s.parse().ok(),
        None => Some(default),
    }
}

/// A shard count at position `i` (default 4); zero is as invalid as a typo.
fn shard_count(args: &[String], i: usize) -> Option<usize> {
    num(args, i, 4).filter(|&n| n > 0)
}

/// Strip a trailing/embedded `--backend <b>` pair out of `args`.
fn take_backend(args: &mut Vec<String>) -> Result<Backend, llog_types::LlogError> {
    if let Some(i) = args.iter().position(|a| a == "--backend") {
        if i + 1 >= args.len() {
            return Err(llog_types::LlogError::Codec {
                reason: "--backend needs a value (mem|file)".into(),
            });
        }
        let value = args.remove(i + 1);
        args.remove(i);
        return Backend::parse(&value);
    }
    Ok(Backend::Mem)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let backend = match take_backend(&mut args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("llogtool: {e}");
            return usage();
        }
    };
    let (cmd, dir) = match (args.first(), args.get(1)) {
        (Some(c), Some(d)) => (c.as_str(), PathBuf::from(d)),
        _ => return usage(),
    };
    let result = match cmd {
        "demo" => {
            let (Some(ops), Some(seed)) = (num(&args, 2, 200), num(&args, 3, 42)) else {
                return usage();
            };
            cmd_demo(&dir, ops, seed, backend)
        }
        "shard-demo" => {
            let (Some(shards), Some(ops), Some(seed)) =
                (shard_count(&args, 2), num(&args, 3, 200), num(&args, 4, 42))
            else {
                return usage();
            };
            cmd_shard_demo(&dir, shards, ops, seed, backend)
        }
        "dump" => cmd_dump(&dir),
        "stats" => match args.get(1).filter(|a| a.contains(':')) {
            Some(addr) => cmd_server_stats(addr),
            None => cmd_stats(&dir),
        },
        "recover" => {
            let policy = args.get(2).map(String::as_str).unwrap_or("rsi");
            cmd_recover(&dir, policy)
        }
        "verify" => cmd_verify(&dir),
        "backup" => match args.get(2) {
            Some(f) => cmd_backup(&dir, Path::new(f)),
            None => return usage(),
        },
        "media-recover" => match args.get(2) {
            Some(f) => cmd_media_recover(&dir, Path::new(f)),
            None => return usage(),
        },
        "serve" => {
            let Some(shards) = shard_count(&args, 2) else {
                return usage();
            };
            let addr = args.get(3).map(String::as_str).unwrap_or("127.0.0.1:0");
            cmd_serve(&dir, shards, addr)
        }
        "replicate" => match args.get(2) {
            Some(primary) => {
                let addr = args.get(3).map(String::as_str).unwrap_or("127.0.0.1:0");
                cmd_replicate(&dir, primary, addr)
            }
            None => return usage(),
        },
        "promote" => {
            let addr = args.get(1).map(String::as_str).unwrap_or_default();
            let from_dir = match args.iter().position(|a| a == "--from-dir") {
                Some(i) => match args.get(i + 1) {
                    Some(d) => Some(PathBuf::from(d)),
                    None => return usage(),
                },
                None => None,
            };
            cmd_promote(addr, from_dir.as_deref())
        }
        "lag" => cmd_lag(args.get(1).map(String::as_str).unwrap_or_default()),
        "load" | "check" => {
            // Here the second positional is an address, not a directory.
            let addr = args.get(1).map(String::as_str).unwrap_or_default();
            let (Some(ops), Some(seed), Some(conns)) =
                (num(&args, 2, 500), num(&args, 3, 42), num(&args, 4, 2))
            else {
                return usage();
            };
            cmd_load(addr, ops, seed, conns, cmd == "check")
        }
        "stop" => cmd_stop(args.get(1).map(String::as_str).unwrap_or_default()),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("llogtool {cmd} {}: {e}", Path::display(&dir));
            ExitCode::FAILURE
        }
    }
}
