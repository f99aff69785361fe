//! Counter hygiene for the program's metric snapshots.
//!
//! `MetricsSnapshot` mixes monotonic counters with gauges, and its own
//! `since`/`merged` helpers subtract or sum every field alike. The
//! benchmark therefore never calls them: it takes deltas of counters only
//! and reads gauges as point values, through the two functions below,
//! which refuse the other kind.

use llog_storage::MetricsSnapshot;

/// Fields of `MetricsSnapshot` that hold a current level, not a running
/// total. Differencing one of these is meaningless.
pub const GAUGES: &[&str] = &[
    "versions_retained",
    "snapshot_oldest_si",
    "recovery_parallel_workers",
    "repl_replay_lag_frames",
    "repl_watermark_lsn",
];

fn field(s: &MetricsSnapshot, name: &str) -> Result<u64, String> {
    s.fields()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .ok_or_else(|| format!("MetricsSnapshot has no field `{name}`"))
}

/// Sum of counter `name` over a set of per-shard snapshots.
pub fn counter(shards: &[MetricsSnapshot], name: &str) -> Result<u64, String> {
    if GAUGES.contains(&name) {
        return Err(format!("`{name}` is a gauge; read it with `gauge`"));
    }
    shards.iter().map(|s| field(s, name)).sum()
}

/// Growth of counter `name` between two per-shard snapshot sets taken
/// from the same engine (shard order must match).
pub fn delta(
    before: &[MetricsSnapshot],
    after: &[MetricsSnapshot],
    name: &str,
) -> Result<u64, String> {
    if before.len() != after.len() {
        return Err(format!("delta of `{name}` across different shard counts"));
    }
    let (b, a) = (counter(before, name)?, counter(after, name)?);
    a.checked_sub(b)
        .ok_or_else(|| format!("counter `{name}` went backwards ({b} → {a})"))
}

/// Point value of gauge `name`, summed over shards (each shard's level
/// counts toward the total, e.g. versions retained).
pub fn gauge(shards: &[MetricsSnapshot], name: &str) -> Result<u64, String> {
    if !GAUGES.contains(&name) {
        return Err(format!("`{name}` is a counter; take a `delta`"));
    }
    shards.iter().map(|s| field(s, name)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(versions: u64, log_bytes: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            versions_retained: versions,
            log_bytes,
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn every_gauge_name_is_a_snapshot_field() {
        let s = MetricsSnapshot::default();
        for g in GAUGES {
            assert!(field(&s, g).is_ok(), "unknown gauge {g}");
        }
    }

    #[test]
    fn differencing_a_gauge_is_refused() {
        let before = [snap(10, 100)];
        let after = [snap(4, 160)];
        for g in GAUGES {
            assert!(
                delta(&before, &after, g).is_err(),
                "gauge {g} must not be differenced"
            );
        }
        assert_eq!(delta(&before, &after, "log_bytes"), Ok(60));
    }

    #[test]
    fn gauges_read_as_point_values_and_counters_do_not() {
        let shards = [snap(3, 1), snap(5, 1)];
        assert_eq!(gauge(&shards, "versions_retained"), Ok(8));
        assert!(gauge(&shards, "log_bytes").is_err());
        assert!(counter(&shards, "versions_retained").is_err());
    }
}
