//! The shared cost ledger, and the registry that declares every counter.
//!
//! One `Metrics` instance is threaded through the stable store, the WAL and
//! the cache manager so an experiment reads its whole cost picture from one
//! place. Cells are atomics: cheap and `Send + Sync`.
//!
//! Every counter family of the system (this ledger, the engine's
//! group-commit counters, the server's connection counters) is declared
//! once, in a [`metrics_table!`](crate::metrics_table) table of
//! `name: Kind` lines. The table generates the live atomic struct, its
//! plain-`u64` snapshot, and `snapshot`/`fields`/`to_json`/`merged`/
//! `since`/`reset`, each following the field's [`Kind`] (DESIGN §18).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a field measures, which fixes how it aggregates across shards
/// ([`Kind::merge`]) and over a time window ([`Kind::delta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic event total: merge sums, delta subtracts (both
    /// saturating).
    Counter,
    /// A current level of a population that adds up across shards
    /// (e.g. versions retained): merge sums, delta takes the later value.
    GaugeSum,
    /// A current level that does not add up across shards (a per-shard
    /// LSN, a pool size, a largest batch): merge takes the max, delta takes
    /// the later value.
    GaugeMax,
}

impl Kind {
    /// Combine two shards' values of one field.
    pub fn merge(self, a: u64, b: u64) -> u64 {
        match self {
            Kind::Counter | Kind::GaugeSum => a.saturating_add(b),
            Kind::GaugeMax => a.max(b),
        }
    }

    /// The window value of one field between an `earlier` and a `later`
    /// snapshot: growth for a counter, the later level for a gauge.
    pub fn delta(self, later: u64, earlier: u64) -> u64 {
        match self {
            Kind::Counter => later.saturating_sub(earlier),
            Kind::GaugeSum | Kind::GaugeMax => later,
        }
    }
}

/// The live cell of a [`Kind::Counter`] field: it only ever grows.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `by` (one relaxed atomic add).
    #[inline]
    pub fn add(&self, by: u64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }
}

/// The live cell of a gauge field ([`Kind::GaugeSum`] or
/// [`Kind::GaugeMax`]): it is set, never accumulated.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite with the latest observed level.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raise to `value` if it is higher (a running maximum).
    #[inline]
    pub fn raise(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }
}

/// What the generated code needs from either cell type.
pub trait Cell {
    /// The current value (relaxed load).
    fn get(&self) -> u64;
    /// Zero the cell.
    fn clear(&self);
    /// Fold one snapshot value in: a counter adds it, a gauge takes it.
    fn record(&self, value: u64);
}

impl Cell for Counter {
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
    fn clear(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
    fn record(&self, value: u64) {
        self.add(value);
    }
}

impl Cell for Gauge {
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
    fn clear(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
    fn record(&self, value: u64) {
        self.set(value);
    }
}

/// One generated counter family, seen generically: the live cells and
/// their snapshot type, so one check can walk every family.
pub trait Registry: Default {
    /// The plain-integer snapshot.
    type Snapshot: Copy + Default + PartialEq + std::fmt::Debug;
    /// Every field's name and kind, in declaration (and JSON) order.
    const SCHEMA: &'static [(&'static str, Kind)];
    /// A point-in-time copy.
    fn snapshot(&self) -> Self::Snapshot;
    /// Zero every cell.
    fn reset(&self);
    /// Fold `s` into the cells, each by its kind ([`Cell::record`]).
    fn record(&self, s: &Self::Snapshot);
    /// A snapshot holding `values` in schema order (missing ones are 0).
    fn from_values(values: &[u64]) -> Self::Snapshot;
    /// `s`'s values in schema order.
    fn values(s: &Self::Snapshot) -> Vec<u64>;
    /// The snapshot's `merged`.
    fn merged(a: &Self::Snapshot, b: &Self::Snapshot) -> Self::Snapshot;
    /// The snapshot's `since`.
    fn since(later: &Self::Snapshot, earlier: &Self::Snapshot) -> Self::Snapshot;
    /// The snapshot's `to_json`.
    fn to_json(s: &Self::Snapshot) -> String;
}

/// Append `"name":value` pairs, comma-separated (no braces).
pub fn write_json_fields(out: &mut String, fields: &[(&'static str, u64)]) {
    for (i, (name, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{value}");
    }
}

/// Declare one counter family. Each line is `/// doc` + `name: Kind`;
/// the table generates:
///
/// - the live struct, one [`Counter`] or [`Gauge`] cell per field, with
///   `snapshot`, `reset` and `record`;
/// - the snapshot struct, one `u64` per field, with `SCHEMA`, `fields`,
///   `to_json`, `merged` and `since` following each field's [`Kind`];
/// - the [`Registry`] impl that ties the two together.
///
/// An optional `json_extra: path;` names a `fn(&Snapshot, &mut String)`
/// that appends derived `,"key":value` pairs before the closing brace.
#[macro_export]
macro_rules! metrics_table {
    (
        $(#[$cmeta:meta])*
        $cvis:vis struct $Cells:ident;
        $(#[$smeta:meta])*
        $svis:vis struct $Snap:ident {
            $( $(#[doc = $doc:literal])* $name:ident: $kind:ident, )*
        }
        $( json_extra: $extra:path; )?
    ) => {
        $(#[$cmeta])*
        #[derive(Debug, Default)]
        $cvis struct $Cells {
            $( $(#[doc = $doc])* pub $name: $crate::__metric_cell!($kind), )*
        }

        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $svis struct $Snap {
            $( $(#[doc = $doc])* pub $name: u64, )*
        }

        impl $Cells {
            /// Take a point-in-time copy.
            pub fn snapshot(&self) -> $Snap {
                $Snap { $( $name: $crate::metrics::Cell::get(&self.$name), )* }
            }

            /// Zero every field (between experiment phases).
            pub fn reset(&self) {
                $( $crate::metrics::Cell::clear(&self.$name); )*
            }

            /// Fold `s` in: counters add its values, gauges take them.
            pub fn record(&self, s: &$Snap) {
                $( $crate::metrics::Cell::record(&self.$name, s.$name); )*
            }
        }

        impl $Snap {
            /// Number of fields.
            pub const LEN: usize = [$(stringify!($name)),*].len();

            /// Every field's name and kind, in declaration order.
            pub const SCHEMA: [(&'static str, $crate::metrics::Kind); Self::LEN] =
                [$( (stringify!($name), $crate::metrics::Kind::$kind), )*];

            /// Every field as a `(name, value)` pair, in declaration order
            /// (the order of [`to_json`](Self::to_json)).
            pub fn fields(&self) -> [(&'static str, u64); Self::LEN] {
                [$( (stringify!($name), self.$name), )*]
            }

            /// Field-wise `f(kind, self, other)`.
            fn zip(&self, other: &$Snap, f: fn($crate::metrics::Kind, u64, u64) -> u64) -> $Snap {
                $Snap { $( $name: f($crate::metrics::Kind::$kind, self.$name, other.$name), )* }
            }

            /// Aggregate two shards' snapshots: `Kind::merge` per field
            /// (counters and summed gauges add, max gauges take the max).
            pub fn merged(&self, other: &$Snap) -> $Snap {
                self.zip(other, $crate::metrics::Kind::merge)
            }

            /// The window since `earlier`: `Kind::delta` per field
            /// (counters subtract, gauges keep this snapshot's level).
            pub fn since(&self, earlier: &$Snap) -> $Snap {
                self.zip(earlier, $crate::metrics::Kind::delta)
            }

            /// One flat JSON object; keys are the field names in
            /// declaration order, values plain integers.
            pub fn to_json(&self) -> String {
                let mut s = String::with_capacity(32 * Self::LEN);
                s.push('{');
                $crate::metrics::write_json_fields(&mut s, &self.fields());
                $( $extra(self, &mut s); )?
                s.push('}');
                s
            }
        }

        impl $crate::metrics::Registry for $Cells {
            type Snapshot = $Snap;
            const SCHEMA: &'static [(&'static str, $crate::metrics::Kind)] = &$Snap::SCHEMA;
            fn snapshot(&self) -> $Snap {
                $Cells::snapshot(self)
            }
            fn reset(&self) {
                $Cells::reset(self)
            }
            fn record(&self, s: &$Snap) {
                $Cells::record(self, s)
            }
            fn from_values(values: &[u64]) -> $Snap {
                let mut v = values.iter().copied();
                $Snap { $( $name: v.next().unwrap_or(0), )* }
            }
            fn values(s: &$Snap) -> Vec<u64> {
                s.fields().iter().map(|&(_, v)| v).collect()
            }
            fn merged(a: &$Snap, b: &$Snap) -> $Snap {
                a.merged(b)
            }
            fn since(later: &$Snap, earlier: &$Snap) -> $Snap {
                later.since(earlier)
            }
            fn to_json(s: &$Snap) -> String {
                s.to_json()
            }
        }
    };
}

/// The cell type for a field kind.
#[doc(hidden)]
#[macro_export]
macro_rules! __metric_cell {
    (Counter) => {
        $crate::metrics::Counter
    };
    (GaugeSum) => {
        $crate::metrics::Gauge
    };
    (GaugeMax) => {
        $crate::metrics::Gauge
    };
}

metrics_table! {
    /// The live cost ledger of one engine instance.
    pub struct Metrics;
    /// A point-in-time copy of [`Metrics`], with plain integer fields.
    pub struct MetricsSnapshot {
        /// Object reads from the stable store.
        obj_reads: Counter,
        /// Bytes read from the stable store.
        obj_read_bytes: Counter,
        /// Object writes to the stable store (each is one device I/O).
        obj_writes: Counter,
        /// Bytes written to the stable store.
        obj_write_bytes: Counter,
        /// Multi-object atomic flush groups performed (shadow or flush-txn).
        atomic_groups: Counter,
        /// Objects written inside atomic groups.
        atomic_group_objects: Counter,
        /// Shadow-root commit writes (the System R "pointer swing").
        shadow_commits: Counter,
        /// Log records appended.
        log_records: Counter,
        /// Log bytes appended (framing + payload).
        log_bytes: Counter,
        /// Log forces (synchronous stable-log writes).
        log_forces: Counter,
        /// System quiesce events (§4: flush transactions freeze updaters).
        quiesces: Counter,
        /// Identity writes issued by the cache manager (§4).
        identity_writes: Counter,
        /// Operations re-executed during redo recovery.
        redo_ops: Counter,
        /// Logged operations bypassed by the REDO test during recovery.
        skipped_ops: Counter,
        /// Trial re-executions voided during recovery (§5 cases 2b/2c).
        voided_ops: Counter,
        /// Objects copied to a fuzzy backup (sweep + copy-before-overwrite).
        backup_copies: Counter,
        /// Bytes copied to a fuzzy backup.
        backup_bytes: Counter,
        /// Clean objects evicted from the cache under pressure.
        evictions: Counter,
        /// Nanoseconds spent in the recovery analysis pass.
        recovery_analysis_ns: Counter,
        /// Nanoseconds spent in the recovery redo pass.
        recovery_redo_ns: Counter,
        /// Conflict components discovered by the recovery partitioner.
        recovery_components: Counter,
        /// Gauge: worker threads used by the last parallel redo pass.
        recovery_parallel_workers: GaugeMax,
        /// Log records decoded during recovery: the analysis scan plus the
        /// redo scan (a record in both ranges counts twice).
        recovery_records_decoded: Counter,
        /// Bytes written through a durability device (segments, deltas, manifests).
        io_bytes_written: Counter,
        /// Device-level fsync (force-to-durable) calls.
        io_fsyncs: Counter,
        /// WAL segments sealed and rotated by a log device.
        segments_rotated: Counter,
        /// Whole WAL segments reclaimed by truncate-below.
        segments_reclaimed: Counter,
        /// Retired segment blobs recycled into a new open segment instead of
        /// being created cold (preallocating log devices only).
        segments_recycled: Counter,
        /// Shard forces that rode another shard's fsync barrier instead of
        /// paying their own (global force scheduler).
        forces_coalesced: Counter,
        /// Nanoseconds of fsync time during which appends kept flowing into the
        /// WAL's staging buffer (double-buffered force overlap).
        double_buffer_overlap_ns: Counter,
        /// Objects written by incremental checkpoints (dirty since last ckpt).
        ckpt_objects_written: Counter,
        /// Objects skipped by incremental checkpoints (clean since last ckpt).
        ckpt_objects_skipped: Counter,
        /// Log chunks shipped to replication subscribers.
        repl_segments_shipped: Counter,
        /// Log bytes shipped to replication subscribers.
        repl_bytes_shipped: Counter,
        /// Gauge: frames between the durable end and the most recently
        /// reported replica watermark (replay lag; sums across shards).
        repl_replay_lag_frames: GaugeSum,
        /// Gauge: the most recently observed replayed-LSN watermark
        /// (per-shard LSNs, so shards merge by max).
        repl_watermark_lsn: GaugeMax,
        /// Reads served from the lock-free snapshot path (never touched the
        /// engine mutex or the commit pipeline).
        reads_snapshot: Counter,
        /// Gauge: versions currently retained in the MVCC version store.
        versions_retained: GaugeSum,
        /// Versions reclaimed against the snapshot watermark: GC sweeps plus
        /// the pruning each publish does against the current floor.
        versions_gced: Counter,
        /// Gauge: the SI floor of the last GC pass — the oldest snapshot any
        /// retained version must stay visible to (durable LSN when no snapshot
        /// is open). Per-shard LSNs, so shards merge by max.
        snapshot_oldest_si: GaugeMax,
        /// Operations logged as logical `Op` records (hybrid logging).
        log_records_logical: Counter,
        /// Operations logged as physical-result records (hybrid logging).
        log_records_physical: Counter,
        /// Log bytes (framing + payload) spent on logical op records.
        log_bytes_logical: Counter,
        /// Log bytes (framing + payload) spent on physical-result records.
        log_bytes_physical: Counter,
        /// Cold logical records converted to physical at checkpoint time.
        ckpt_ops_converted: Counter,
    }
}

impl Metrics {
    /// Create a new instance.
    pub fn new() -> Arc<Metrics> {
        Arc::new(Metrics::default())
    }

    /// Add `by` to a counter.
    #[inline]
    pub fn bump(counter: &Counter, by: u64) {
        counter.add(by);
    }

    /// Overwrite a gauge with the latest observed value.
    #[inline]
    pub fn set_gauge(gauge: &Gauge, value: u64) {
        gauge.set(value);
    }
}

impl MetricsSnapshot {
    /// Total device I/O operations: object writes + object reads + forces.
    pub fn total_ios(&self) -> u64 {
        self.obj_writes + self.obj_reads + self.log_forces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_snapshot_reset() {
        let m = Metrics::new();
        Metrics::bump(&m.obj_writes, 3);
        Metrics::bump(&m.log_bytes, 100);
        let s = m.snapshot();
        assert_eq!(s.obj_writes, 3);
        assert_eq!(s.log_bytes, 100);
        assert_eq!(s.total_ios(), 3);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn json_keeps_the_declared_key_order() {
        let m = Metrics::new();
        Metrics::bump(&m.log_forces, 9);
        Metrics::set_gauge(&m.versions_retained, 2);
        let json = m.snapshot().to_json();
        assert!(json.starts_with("{\"obj_reads\":0,\"obj_read_bytes\":0,"));
        assert!(json.contains(",\"log_forces\":9,"));
        assert!(json.contains(",\"versions_retained\":2,"));
        assert!(json.ends_with(",\"ckpt_ops_converted\":0}"));
        assert_eq!(MetricsSnapshot::LEN, 45);
    }

    #[test]
    fn gauges_overwrite_and_keep_their_level_over_a_window() {
        let m = Metrics::new();
        Metrics::set_gauge(&m.repl_watermark_lsn, 700);
        Metrics::bump(&m.repl_bytes_shipped, 10);
        let before = m.snapshot();
        Metrics::set_gauge(&m.repl_watermark_lsn, 900);
        Metrics::bump(&m.repl_bytes_shipped, 5);
        let window = m.snapshot().since(&before);
        assert_eq!(window.repl_watermark_lsn, 900, "a gauge is a level");
        assert_eq!(window.repl_bytes_shipped, 5, "a counter is growth");
    }

    #[test]
    fn since_computes_deltas() {
        let m = Metrics::new();
        Metrics::bump(&m.redo_ops, 5);
        let a = m.snapshot();
        Metrics::bump(&m.redo_ops, 7);
        let b = m.snapshot();
        assert_eq!(b.since(&a).redo_ops, 7);
        // Saturates rather than underflows.
        assert_eq!(a.since(&b).redo_ops, 0);
    }
}
