//! Aggregated accounting for a sharded engine.

use std::fmt::Write as _;

use llog_storage::MetricsSnapshot;

llog_storage::metrics_table! {
    /// Live group-commit counters for one shard's commit pipeline.
    pub struct ShardCounters;
    /// Point-in-time counters for the group-commit pipeline, merged across
    /// shards (or for one shard).
    pub struct GroupCommitSnapshot {
        /// Batched forces performed by shard flushers.
        batches: Counter,
        /// Operations those batched forces covered.
        batched_ops: Counter,
        /// Largest single batch observed on any shard.
        max_batch: GaugeMax,
        /// Synchronous one-op commits (under `CommitPolicy::Sync`).
        sync_commits: Counter,
        /// Completed `CommitTicket::wait` calls.
        waits: Counter,
        /// Total nanoseconds ticket waiters spent blocked on durability.
        flush_wait_ns: Counter,
        /// Times `execute` parked on a full uninstalled window.
        backpressure_waits: Counter,
    }
    json_extra: GroupCommitSnapshot::write_means;
}

impl GroupCommitSnapshot {
    /// Mean operations per batched force (0 if no batches yet).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_ops as f64 / self.batches as f64
        }
    }

    /// Mean nanoseconds a `wait` spent blocked (0 if no waits yet).
    pub fn mean_wait_ns(&self) -> f64 {
        if self.waits == 0 {
            0.0
        } else {
            self.flush_wait_ns as f64 / self.waits as f64
        }
    }

    /// The derived means, appended to [`to_json`](Self::to_json).
    fn write_means(&self, out: &mut String) {
        let _ = write!(
            out,
            ",\"mean_batch\":{:.2},\"mean_wait_ns\":{:.1}",
            self.mean_batch(),
            self.mean_wait_ns()
        );
    }
}

/// The whole sharded engine's cost picture at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedSnapshot {
    /// Number of shards.
    pub shards: usize,
    /// Per-shard storage/log ledgers merged field by field (see
    /// [`MetricsSnapshot::merged`]).
    pub aggregate: MetricsSnapshot,
    /// Group-commit pipeline counters merged across shards.
    pub group_commit: GroupCommitSnapshot,
    /// Each shard's own ledger, in shard order.
    pub per_shard: Vec<MetricsSnapshot>,
}

impl ShardedSnapshot {
    /// Assemble from each shard's ledger; `aggregate` is their merge.
    pub fn from_shards(
        per_shard: Vec<MetricsSnapshot>,
        group_commit: GroupCommitSnapshot,
    ) -> ShardedSnapshot {
        let aggregate = per_shard
            .iter()
            .fold(MetricsSnapshot::default(), |acc, m| acc.merged(m));
        ShardedSnapshot {
            shards: per_shard.len(),
            aggregate,
            group_commit,
            per_shard,
        }
    }

    /// One JSON document:
    /// `{"shards":N,"aggregate":{...},"group_commit":{...},"per_shard":[...]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"shards\":{},\"aggregate\":{},\"group_commit\":{},\"per_shard\":[",
            self.shards,
            self.aggregate.to_json(),
            self.group_commit.to_json(),
        );
        for (i, m) in self.per_shard.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&m.to_json());
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_sums_and_maxes() {
        let a = GroupCommitSnapshot {
            batches: 2,
            batched_ops: 10,
            max_batch: 6,
            sync_commits: 1,
            waits: 3,
            flush_wait_ns: 300,
            backpressure_waits: 1,
        };
        let b = GroupCommitSnapshot {
            batches: 1,
            batched_ops: 4,
            max_batch: 4,
            sync_commits: 0,
            waits: 1,
            flush_wait_ns: 100,
            backpressure_waits: 0,
        };
        let m = a.merged(&b);
        assert_eq!(m.batches, 3);
        assert_eq!(m.batched_ops, 14);
        assert_eq!(m.max_batch, 6, "max_batch merges by max, not sum");
        assert_eq!(m.waits, 4);
        assert!((m.mean_batch() - 14.0 / 3.0).abs() < 1e-9);
        assert!((m.mean_wait_ns() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn means_are_zero_without_events() {
        let z = GroupCommitSnapshot::default();
        assert_eq!(z.mean_batch(), 0.0);
        assert_eq!(z.mean_wait_ns(), 0.0);
    }

    #[test]
    fn group_commit_json_appends_the_means() {
        let s = GroupCommitSnapshot {
            batches: 2,
            batched_ops: 5,
            max_batch: 4,
            sync_commits: 0,
            waits: 3,
            flush_wait_ns: 10,
            backpressure_waits: 1,
        };
        assert_eq!(
            s.to_json(),
            "{\"batches\":2,\"batched_ops\":5,\"max_batch\":4,\"sync_commits\":0,\
             \"waits\":3,\"flush_wait_ns\":10,\"backpressure_waits\":1,\
             \"mean_batch\":2.50,\"mean_wait_ns\":3.3}"
        );
    }

    #[test]
    fn sharded_json_shape() {
        let snap = ShardedSnapshot {
            shards: 2,
            aggregate: MetricsSnapshot::default(),
            group_commit: GroupCommitSnapshot::default(),
            per_shard: vec![MetricsSnapshot::default(), MetricsSnapshot::default()],
        };
        let json = snap.to_json();
        assert!(json.starts_with("{\"shards\":2,"));
        for key in ["\"aggregate\":", "\"group_commit\":", "\"per_shard\":["] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"log_forces\"").count(), 3, "agg + 2 shards");
        assert!(json.ends_with("]}"));
    }
}
