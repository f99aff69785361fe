//! `llogtool`'s argument checks: a numeric argument that is present but
//! does not parse, or a shard count of zero, prints the usage text and
//! exits 2 before any command runs.

use std::path::PathBuf;
use std::process::Command;

/// A directory path that no command should ever create.
fn untouched_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("llogtool-args-{tag}-{}", std::process::id()))
}

fn assert_usage(args: &[&str]) {
    let dir = untouched_dir(args[0]);
    let mut full = vec![args[0].to_string(), dir.display().to_string()];
    full.extend(args[1..].iter().map(|s| s.to_string()));
    let out = Command::new(env!("CARGO_BIN_EXE_llogtool"))
        .args(&full)
        .output()
        .expect("run llogtool");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{full:?}: {stderr}");
    assert!(stderr.contains("usage: llogtool"), "{full:?}: {stderr}");
    assert!(!dir.exists(), "{full:?} created {}", dir.display());
}

#[test]
fn zero_shards_is_a_usage_error() {
    assert_usage(&["shard-demo", "0"]);
    assert_usage(&["serve", "0"]);
}

#[test]
fn unparsable_numbers_are_usage_errors() {
    assert_usage(&["shard-demo", "x"]);
    assert_usage(&["shard-demo", "2", "many"]);
    assert_usage(&["shard-demo", "2", "40", "-1"]);
    assert_usage(&["demo", "abc"]);
    assert_usage(&["demo", "20", "seed"]);
    assert_usage(&["serve", "four"]);
}

#[test]
fn load_and_check_reject_unparsable_counts() {
    // The second positional is an address; nothing listens there, so a
    // parsed command would fail with exit 1, not 2.
    for cmd in ["load", "check"] {
        let out = Command::new(env!("CARGO_BIN_EXE_llogtool"))
            .args([cmd, "127.0.0.1:9", "ten"])
            .output()
            .expect("run llogtool");
        assert_eq!(out.status.code(), Some(2), "{cmd}");
    }
}

#[test]
fn valid_numbers_still_run() {
    let dir = untouched_dir("valid");
    let out = Command::new(env!("CARGO_BIN_EXE_llogtool"))
        .args(["demo", &dir.display().to_string(), "20", "7"])
        .output()
        .expect("run llogtool");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
