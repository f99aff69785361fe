//! The sharded engine: N hash-partitioned recovery engines behind one
//! handle, with a group-commit durability pipeline per shard.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use llog_core::snapshot::Snapshot;
use llog_core::{recover, Engine, EngineConfig, RecoveryOutcome, RedoPolicy};
use llog_ops::{OpKind, Transform, TransformRegistry};
use llog_storage::{Metrics, StableStore};
use llog_testkit::faults::FaultHost;
use llog_types::{LlogError, Lsn, ObjectId, Result, Value};
use llog_wal::{DurabilityBackend, Wal};

use crate::router::ShardRouter;
use crate::scheduler::ForceScheduler;
use crate::shard::{flusher_loop, installer_loop, CommitTicket, Shard, StopMode};
use crate::signal::{lock, WorkSignal};
use crate::snapshot::{GroupCommitSnapshot, ShardedSnapshot};

/// When the per-shard flusher forces the log under
/// [`CommitPolicy::Group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitPolicy {
    /// Force as soon as this many operations are pending.
    pub batch_ops: usize,
    /// ... or as soon as the oldest pending operation has waited this
    /// long, whichever comes first.
    pub max_delay: Duration,
}

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        GroupCommitPolicy {
            batch_ops: 8,
            max_delay: Duration::from_micros(500),
        }
    }
}

/// How committed operations reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Every `execute` forces the shard's log before returning; the
    /// ticket comes back already durable. One force per operation — the
    /// baseline group commit is measured against.
    Sync,
    /// Appends return immediately with a pending [`CommitTicket`]; the
    /// shard's flusher thread batches forces per the policy.
    Group(GroupCommitPolicy),
}

/// Configuration for a [`ShardedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards (independent engines + WALs).
    pub shards: usize,
    /// Per-shard engine configuration.
    pub engine: EngineConfig,
    /// Durability pipeline.
    pub commit: CommitPolicy,
    /// Simulated stable-device latency per log force. Forces (sync or
    /// batched) take at least this long before durability is published;
    /// distinct shards overlap their waits. Zero disables the model.
    pub force_latency: Duration,
    /// Backpressure: `execute` parks while a shard holds this many
    /// uninstalled operations (0 = unbounded). Bounds write-graph growth
    /// and post-crash redo work.
    pub max_uninstalled: usize,
    /// The per-shard background installer drains the write graph once it
    /// exceeds this many uninstalled operations.
    pub install_high_water: usize,
    /// Persist the WAL tail to each shard's attached durability backend
    /// after every successful force, *before* the durable watermark
    /// advances (DESIGN §12). With this set, an acknowledged operation is
    /// on the backend's log device — a `SIGKILL` of the whole process
    /// loses nothing acknowledged. Only meaningful once backends are
    /// attached ([`ShardedEngine::attach_backends`]); the server sets it.
    pub persist_on_force: bool,
    /// Cross-shard fsync coalescing: when set, every force (flusher batches
    /// and `Sync` commits alike) rides a global scheduler that gathers
    /// near-simultaneous forces from different shards for this bounded
    /// window (100–500 µs is the useful range) and covers them with **one**
    /// shared sync barrier; each shard's durable watermark then advances
    /// from that barrier. `None` (the default) keeps the legacy
    /// one-force-per-shard paths, byte-for-byte.
    pub coalesce_window: Option<Duration>,
    /// MVCC snapshot reads (DESIGN §15): each shard publishes immutable
    /// versions and [`ShardedEngine::read_value_snapshot`] resolves reads
    /// at the durable watermark without the engine mutex. Off, that method
    /// falls back to the mutex read path — the E17 baseline.
    pub snapshot_reads: bool,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            engine: EngineConfig::default(),
            commit: CommitPolicy::Group(GroupCommitPolicy::default()),
            force_latency: Duration::ZERO,
            max_uninstalled: 1024,
            install_high_water: 64,
            persist_on_force: false,
            coalesce_window: None,
            snapshot_reads: true,
        }
    }
}

/// A consistent attach image for one shard, captured by
/// [`ShardedEngine::ship_manifest`]: everything a replica needs to start
/// a [`llog_core::RedoSession`] over shipped log bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipManifest {
    /// The shard's stable store, serialized ([`StableStore::serialize`]).
    pub store: Vec<u8>,
    /// The shard log's base address (start of the retained log).
    pub base: Lsn,
    /// The durable cut at capture time: the end of the last complete,
    /// valid stable frame. Every effect the store image may reflect lies
    /// below it.
    pub durable: Lsn,
    /// The shard's master checkpoint pointer, if any.
    pub master: Option<Lsn>,
}

/// N hash-partitioned [`Engine`]s behind one handle: shard-local
/// execution, per-shard group commit, backpressure, parallel crash and
/// recovery. See the crate docs for the full picture.
///
/// The handle is not `Clone`; share it across threads by reference
/// (`std::thread::scope`) — every method takes `&self` except the
/// consuming `crash`/`shutdown`.
pub struct ShardedEngine {
    config: ShardedConfig,
    router: ShardRouter,
    shards: Vec<Arc<Shard>>,
    /// Flushers + installers + checkpointer, joined on halt.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Round-robin cursor for the checkpoint coordinator.
    rr: Arc<AtomicUsize>,
    /// Stops the checkpoint coordinator.
    ctl: Arc<WorkSignal>,
    /// Fault-injection host shared with every shard's flusher/installer
    /// (`None` outside fault-injection runs).
    faults: Option<Arc<FaultHost>>,
    /// Cross-shard force scheduler (`Some` iff `config.coalesce_window`).
    scheduler: Option<Arc<ForceScheduler>>,
    /// The scheduler's barrier thread — joined *after* `threads`, because
    /// draining flushers still route their final forces through it.
    sched_thread: Mutex<Option<JoinHandle<()>>>,
}

impl ShardedEngine {
    /// Create `config.shards` fresh engines (empty stores, empty logs).
    pub fn new(config: ShardedConfig, registry: &TransformRegistry) -> ShardedEngine {
        ShardedEngine::new_with_faults(config, registry, None)
    }

    /// [`ShardedEngine::new`] with a fault-injection host wired into every
    /// shard's flusher, installer and explicit force path. Arm a fault on
    /// the host ([`FaultHost::arm`]) and the next matching failpoint
    /// consultation fires it — e.g. a group-commit batch torn mid-force.
    pub fn new_with_faults(
        config: ShardedConfig,
        registry: &TransformRegistry,
        faults: Option<Arc<FaultHost>>,
    ) -> ShardedEngine {
        assert!(config.shards >= 1, "need at least one shard");
        let engines = (0..config.shards)
            .map(|_| Engine::new(config.engine, registry.clone()))
            .collect();
        ShardedEngine::from_engines_with_faults(config, engines, faults)
    }

    /// Wrap existing engines (the recovery path); `engines.len()`
    /// overrides `config.shards`.
    pub fn from_engines(config: ShardedConfig, engines: Vec<Engine>) -> ShardedEngine {
        ShardedEngine::from_engines_with_faults(config, engines, None)
    }

    /// [`ShardedEngine::from_engines`] with a fault-injection host (see
    /// [`ShardedEngine::new_with_faults`]).
    pub fn from_engines_with_faults(
        mut config: ShardedConfig,
        engines: Vec<Engine>,
        faults: Option<Arc<FaultHost>>,
    ) -> ShardedEngine {
        assert!(!engines.is_empty(), "need at least one shard");
        config.shards = engines.len();
        let shards: Vec<Arc<Shard>> = engines
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let backlog = e.uninstalled_count() > config.install_high_water;
                let shard = Shard::new(i, e, faults.clone(), config.persist_on_force);
                if backlog {
                    shard.signal.notify(); // the installer's first pass
                }
                Arc::new(shard)
            })
            .collect();
        if config.snapshot_reads {
            // Seed each shard's version chains from its current state
            // (covers both fresh engines and the recovery path — replayed
            // effects are in the store image or the cache overlay).
            for shard in &shards {
                shard.enable_versions();
            }
        }
        let (scheduler, sched_thread) = match config.coalesce_window {
            Some(window) => {
                let (s, h) = ForceScheduler::spawn(window, config.force_latency);
                (Some(s), Some(h))
            }
            None => (None, None),
        };
        let mut threads = Vec::new();
        for shard in &shards {
            if let CommitPolicy::Group(policy) = config.commit {
                let s = shard.clone();
                let sched = scheduler.clone();
                let latency = config.force_latency;
                threads.push(std::thread::spawn(move || {
                    flusher_loop(
                        &s,
                        sched.as_ref(),
                        policy.batch_ops,
                        policy.max_delay,
                        latency,
                    );
                }));
            }
            let s = shard.clone();
            let high_water = config.install_high_water;
            threads.push(std::thread::spawn(move || {
                installer_loop(&s, high_water);
            }));
        }
        ShardedEngine {
            config,
            router: ShardRouter::new(shards.len()),
            shards,
            threads: Mutex::new(threads),
            rr: Arc::new(AtomicUsize::new(0)),
            ctl: Arc::new(WorkSignal::new()),
            faults,
            scheduler,
            sched_thread: Mutex::new(sched_thread),
        }
    }

    /// The fault-injection host, if one was wired in at construction.
    pub fn fault_host(&self) -> Option<&Arc<FaultHost>> {
        self.faults.as_ref()
    }

    /// The engine's configuration (with `shards` reflecting reality).
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// The object→shard router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Execute one shard-local operation.
    ///
    /// Routes by the operation's read/write sets (cross-shard sets are
    /// rejected — see [`ShardRouter::shard_of_op`]), applies backpressure
    /// if the shard's uninstalled window is full, runs the operation
    /// under the shard lock, and registers it with the durability
    /// pipeline. The returned [`CommitTicket`] says when (and whether)
    /// the operation became durable.
    pub fn execute(
        &self,
        kind: OpKind,
        reads: Vec<ObjectId>,
        writes: Vec<ObjectId>,
        transform: Transform,
    ) -> Result<CommitTicket> {
        let idx = self.router.shard_of_op(&reads, &writes)?;
        let shard = &self.shards[idx];

        // Backpressure: park while the uninstalled window is full. The
        // installer bumps the shard's epoch after every install; the
        // timeout bounds the wait if an install raced the snapshot.
        let mut guard = loop {
            let g = shard.lock_engine();
            // A shard whose device died mid-force (torn/rotted write)
            // rejects work even while its engine is still being collected:
            // in particular the Sync-commit force below must never touch a
            // dead WAL and advance its tail guard over rotted bytes.
            if shard.is_dead() {
                return Err(LlogError::CacheProtocol(format!("shard {idx} has crashed")));
            }
            let under = match g.as_ref() {
                None => return Err(LlogError::CacheProtocol(format!("shard {idx} has crashed"))),
                Some(e) => {
                    self.config.max_uninstalled == 0
                        || e.uninstalled_count() < self.config.max_uninstalled
                }
            };
            if under {
                break g;
            }
            shard.counters.backpressure_waits.add(1);
            let seen = shard.bp_epoch();
            drop(g);
            shard.signal.notify(); // make sure the installer is awake
            shard.wait_backpressure(seen, Duration::from_millis(1));
        };

        let (op, lsn, target, sync_forced) = {
            let e = guard.as_mut().expect("presence checked above");
            let (op, lsn) = e.execute(kind, reads, writes, transform)?;
            let target = e.wal().end_lsn();
            // A `Sync` commit with a coalescing scheduler defers its force
            // until the guard is dropped: the scheduler takes the engine
            // lock itself, per barrier phase, and near-simultaneous sync
            // commits on different shards share one fsync.
            let sync_forced = match self.config.commit {
                CommitPolicy::Sync if self.scheduler.is_none() => {
                    e.wal_mut().force();
                    if !shard.persist_forced(e) {
                        // The device rejected the tail: the watermark does
                        // not advance and nothing is acknowledged; a later
                        // force (or `force_shard`) re-persists the whole
                        // tail (see `Shard::persist_on_force`).
                        return Err(LlogError::Io {
                            point: "persist_on_force".into(),
                            reason: "backend rejected WAL tail on sync commit".into(),
                        });
                    }
                    if !self.config.force_latency.is_zero() {
                        // The device is busy with our force; commits on
                        // this shard serialize behind it.
                        std::thread::sleep(self.config.force_latency);
                    }
                    Some(e.wal().forced_lsn())
                }
                _ => None,
            };
            (op, lsn, target, sync_forced)
        };
        drop(guard);

        match (self.config.commit, sync_forced) {
            (_, Some(forced)) => {
                shard.advance_durable(forced);
                shard.counters.sync_commits.add(1);
            }
            (CommitPolicy::Sync, None) => {
                let sched = self
                    .scheduler
                    .as_ref()
                    .expect("deferred sync commit only exists with a scheduler");
                let outcome = sched
                    .force(shard)
                    .ok_or_else(|| LlogError::CacheProtocol(format!("shard {idx} has crashed")))?;
                if !shard.settle_force(outcome) {
                    // Barrier failure or a torn device write: nothing was
                    // acknowledged (the watermark did not advance past the
                    // durable prefix); a tear killed the shard.
                    return Err(LlogError::Io {
                        point: "coalesced_force".into(),
                        reason: "barrier failed on sync commit".into(),
                    });
                }
                shard.counters.sync_commits.add(1);
            }
            (CommitPolicy::Group(_), None) => shard.enqueue_commit(),
        }
        shard.signal.notify(); // new uninstalled work for the installer

        Ok(CommitTicket {
            shard: shard.clone(),
            shard_index: idx,
            op,
            lsn,
            target,
        })
    }

    /// The owning shard's current view of object `x`, read under the
    /// engine mutex — sees uncommitted (not-yet-durable) state and
    /// contends with writers, the flusher and the installer. Prefer
    /// [`read_value_snapshot`](Self::read_value_snapshot) for read-mostly
    /// traffic.
    pub fn read_value(&self, x: ObjectId) -> Result<Value> {
        let idx = self.router.shard_of(x);
        let mut g = self.shards[idx].lock_engine();
        match g.as_mut() {
            Some(e) => Ok(e.read_value(x)),
            None => Err(LlogError::CacheProtocol(format!("shard {idx} has crashed"))),
        }
    }

    /// Read `x` at the owning shard's durable watermark via its MVCC
    /// version chains — **no engine mutex**, so the read runs concurrently
    /// with writers, group-commit forces and installs. Observes only
    /// acknowledged (durable) state; a just-executed, not-yet-forced write
    /// is invisible until its batch forces. With
    /// [`ShardedConfig::snapshot_reads`] off this falls back to the mutex
    /// read path.
    pub fn read_value_snapshot(&self, x: ObjectId) -> Result<Value> {
        let idx = self.router.shard_of(x);
        let shard = &self.shards[idx];
        if shard.is_dead() {
            return Err(LlogError::CacheProtocol(format!("shard {idx} has crashed")));
        }
        match shard.read_snapshot(x) {
            Some(v) => Ok(v),
            None => self.read_value(x),
        }
    }

    /// Read `x` no older than `floor`: wait (bounded by `timeout`) until
    /// the owning shard's durable watermark covers `floor`, then read at
    /// the watermark. This is the read-your-writes primitive behind server
    /// sessions — a client that was acked a Put at LSN `floor` never sees
    /// an older value, even through a reconnect. A floor of [`Lsn::ZERO`]
    /// degenerates to [`read_value_snapshot`](Self::read_value_snapshot).
    pub fn read_value_snapshot_at_least(
        &self,
        x: ObjectId,
        floor: Lsn,
        timeout: Duration,
    ) -> Result<Value> {
        let idx = self.router.shard_of(x);
        let shard = &self.shards[idx];
        if floor > Lsn::ZERO {
            match shard.wait_durable(floor, timeout) {
                Some(true) => {}
                Some(false) => {
                    return Err(LlogError::CacheProtocol(format!("shard {idx} has crashed")))
                }
                None => {
                    return Err(LlogError::CacheProtocol(format!(
                        "shard {idx} did not reach session floor {floor} within {timeout:?}"
                    )))
                }
            }
        }
        self.read_value_snapshot(x)
    }

    /// Open a pinned snapshot of shard `i` at its current durable
    /// watermark: a consistent cut that later writes and the retention GC
    /// cannot disturb. Returns an error when snapshot reads are disabled
    /// or the shard has crashed.
    pub fn open_snapshot(&self, i: usize) -> Result<Snapshot> {
        let shard = &self.shards[i];
        if shard.is_dead() {
            return Err(LlogError::CacheProtocol(format!("shard {i} has crashed")));
        }
        shard.open_snapshot().ok_or_else(|| {
            LlogError::CacheProtocol(format!("shard {i} has snapshot reads disabled"))
        })
    }

    /// Open a pinned snapshot of the shard owning `x` (see
    /// [`open_snapshot`](Self::open_snapshot)).
    pub fn open_snapshot_for(&self, x: ObjectId) -> Result<Snapshot> {
        self.open_snapshot(self.router.shard_of(x))
    }

    /// Total acquisitions of every shard's engine mutex — the census
    /// behind "snapshot reads never take the engine lock" (E17 asserts a
    /// read burst leaves this unchanged).
    pub fn engine_lock_count(&self) -> u64 {
        self.shards.iter().map(|s| s.engine_lock_count()).sum()
    }

    /// Run the version-retention GC on every shard (floor = min(oldest
    /// open snapshot, durable)); returns total versions reclaimed. The
    /// checkpoint coordinator already does this per shard — this is for
    /// tests and explicit maintenance.
    pub fn gc_versions(&self) -> u64 {
        self.shards.iter().map(|s| s.gc_versions()).sum()
    }

    /// Force shard `i`'s WAL and advance its watermark.
    pub fn force_shard(&self, i: usize) -> Result<()> {
        let shard = &self.shards[i];
        let ok = match &self.scheduler {
            Some(sched) if !shard.is_dead() => match sched.force(shard) {
                Some(outcome) => shard.settle_force(outcome),
                None => false,
            },
            _ => shard.force_now(),
        };
        if ok {
            Ok(())
        } else {
            Err(LlogError::CacheProtocol(format!("shard {i} has crashed")))
        }
    }

    /// Force every shard's WAL (makes everything executed so far
    /// durable).
    pub fn force_all(&self) -> Result<()> {
        for i in 0..self.shards.len() {
            self.force_shard(i)?;
        }
        Ok(())
    }

    /// Drain the commit pipeline without tearing the engine down: force
    /// every live shard so all outstanding [`CommitTicket`]s resolve (their
    /// waiters wake durable), leaving the engine fully usable. A server's
    /// graceful shutdown calls this after it stops accepting work and
    /// before it joins its connection threads — every response written
    /// after the drain reflects a durable operation.
    pub fn drain(&self) -> Result<()> {
        self.force_all()
    }

    /// Shard `i`'s durable-LSN watermark.
    pub fn durable_lsn(&self, i: usize) -> Lsn {
        self.shards[i].durable_lsn()
    }

    /// Total uninstalled operations across all shards.
    pub fn uninstalled_total(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock_engine()
                    .as_ref()
                    .map(|e| e.uninstalled_count())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Drain every shard's write graph completely.
    pub fn install_all(&self) -> Result<()> {
        for s in &self.shards {
            let mut g = s.lock_engine();
            if let Some(e) = g.as_mut() {
                e.install_all()?;
            }
            drop(g);
            s.note_installed();
        }
        Ok(())
    }

    /// Checkpoint shard `i` (optionally truncating its log) and advance
    /// its watermark over the checkpoint's force.
    pub fn checkpoint_shard(&self, i: usize, truncate: bool) -> Result<Lsn> {
        checkpoint_one(&self.shards[i], truncate)
    }

    /// Round-robin checkpoint: checkpoint-and-truncate the next shard in
    /// turn. Returns `(shard, checkpoint_lsn)`.
    pub fn checkpoint_next(&self) -> Result<(usize, Lsn)> {
        let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        Ok((i, self.checkpoint_shard(i, true)?))
    }

    /// Checkpoint every shard (optionally truncating the logs).
    pub fn checkpoint_all(&self, truncate: bool) -> Result<Vec<Lsn>> {
        (0..self.shards.len())
            .map(|i| self.checkpoint_shard(i, truncate))
            .collect()
    }

    /// Attach a durability backend to shard `i`: from now on, every
    /// checkpoint of that shard also persists its store + log to the
    /// device pair, incrementally (O(dirty) store deltas, tail-only log
    /// appends, whole-segment truncation reclaim).
    pub fn attach_backend(&self, i: usize, backend: DurabilityBackend) {
        *lock(&self.shards[i].backend) = Some(backend);
    }

    /// Attach one backend per shard. Panics unless `backends.len()`
    /// equals the shard count.
    pub fn attach_backends(&self, backends: Vec<DurabilityBackend>) {
        assert_eq!(
            backends.len(),
            self.shards.len(),
            "one backend per shard required"
        );
        for (i, b) in backends.into_iter().enumerate() {
            self.attach_backend(i, b);
        }
    }

    /// Detach and return every shard's backend (device state survives a
    /// [`ShardedEngine::crash`]; this is the reboot-from-device path —
    /// see [`recover_sharded_from_backends`]).
    pub fn take_backends(&self) -> Vec<Option<DurabilityBackend>> {
        self.shards
            .iter()
            .map(|s| lock(&s.backend).take())
            .collect()
    }

    /// Persist every live shard's `(store, forced log)` to its attached
    /// backend without writing a new checkpoint record. Shards without a
    /// backend (or already crashed) are skipped.
    pub fn persist_all(&self) -> Result<()> {
        for s in &self.shards {
            let g = s.lock_engine();
            let Some(e) = g.as_ref() else { continue };
            if s.is_dead() {
                continue;
            }
            if let Some(b) = lock(&s.backend).as_mut() {
                b.persist(e.store(), e.wal(), s.faults.as_deref())?;
            }
        }
        Ok(())
    }

    /// Capture a consistent attach image of shard `i` for a new replica:
    /// the serialized stable store plus the log addresses a
    /// [`llog_core::RedoSession`] needs to start replaying. Taken under
    /// the shard lock, so the store image, log base and durable cut are
    /// one instant of the shard — every record the image may reflect lies
    /// below `durable`, which is what makes the replica's blind replay of
    /// later records sound.
    pub fn ship_manifest(&self, i: usize) -> Result<ShipManifest> {
        let s = &self.shards[i];
        let g = s.lock_engine();
        let Some(e) = g.as_ref() else {
            return Err(LlogError::CacheProtocol(format!("shard {i} has crashed")));
        };
        Ok(ShipManifest {
            store: e.store().serialize(),
            base: e.wal().start_lsn(),
            durable: e.wal().durable_end(),
            master: e.wal().master_checkpoint(),
        })
    }

    /// Ship up to `max` stable log bytes of shard `i` starting at `from`,
    /// clamped to the durable cut (the end of the last complete, valid
    /// frame — bytes past a torn force are never shipped). Returns the
    /// chunk and the durable cut. `from` is a raw byte cursor, not a
    /// frame boundary — after a chunk clamped at `max` it lands
    /// mid-frame, so the cut comes from the WAL's own frame walk
    /// ([`llog_wal::Wal::durable_end`]), never from `from`. `from` below
    /// the log base (the replica fell behind a checkpoint truncation) is
    /// an `LsnOutOfRange` error: the replica must re-attach from a fresh
    /// manifest.
    pub fn ship_chunk(&self, i: usize, from: Lsn, max: usize) -> Result<(Vec<u8>, Lsn)> {
        let s = &self.shards[i];
        let g = s.lock_engine();
        let Some(e) = g.as_ref() else {
            return Err(LlogError::CacheProtocol(format!("shard {i} has crashed")));
        };
        let durable = e.wal().durable_end();
        let allowed = (durable.0.saturating_sub(from.0)) as usize;
        let bytes = e.wal().ship_tail(from, max.min(allowed))?.to_vec();
        if !bytes.is_empty() {
            let m = e.metrics();
            Metrics::bump(&m.repl_segments_shipped, 1);
            Metrics::bump(&m.repl_bytes_shipped, bytes.len() as u64);
        }
        Ok((bytes, durable))
    }

    /// Record a replica's replayed-LSN watermark report for shard `i`:
    /// updates the `repl_watermark_lsn` gauge and recomputes
    /// `repl_replay_lag_frames` (complete frames between the watermark and
    /// the shard's stable end).
    pub fn note_replica_watermark(&self, i: usize, lsn: Lsn) -> Result<()> {
        let s = &self.shards[i];
        let g = s.lock_engine();
        let Some(e) = g.as_ref() else {
            return Err(LlogError::CacheProtocol(format!("shard {i} has crashed")));
        };
        let m = e.metrics();
        Metrics::set_gauge(&m.repl_watermark_lsn, lsn.0);
        // A watermark below the log base means the replica fell behind a
        // checkpoint truncation — the worst lag, not the best. Clamp to
        // the base so the gauge reports the whole retained backlog
        // instead of reading zero exactly when the replica must
        // re-attach.
        let lag_from = lsn.max(e.wal().start_lsn());
        Metrics::set_gauge(&m.repl_replay_lag_frames, e.wal().frames_from(lag_from));
        Ok(())
    }

    /// Spawn the checkpoint coordinator: every `interval` it checkpoints
    /// one shard round-robin and truncates that shard's log, bounding
    /// both log length and recovery's redo scan. Stops at
    /// `crash`/`shutdown`.
    pub fn spawn_checkpointer(&self, interval: Duration) {
        let shards = self.shards.clone();
        let rr = self.rr.clone();
        let ctl = self.ctl.clone();
        let handle = std::thread::spawn(move || {
            let mut seen = ctl.epoch();
            loop {
                let (epoch, stopped) = ctl.wait_past_timeout(seen, interval);
                seen = epoch;
                if stopped {
                    return;
                }
                let i = rr.fetch_add(1, Ordering::Relaxed) % shards.len();
                if checkpoint_one(&shards[i], true).is_err() {
                    return; // shard crashed: coordinator retires
                }
            }
        });
        lock(&self.threads).push(handle);
    }

    /// Aggregated accounting: per-shard
    /// [`MetricsSnapshot`](llog_storage::MetricsSnapshot)s, their merge,
    /// and the group-commit pipeline counters.
    pub fn metrics_snapshot(&self) -> ShardedSnapshot {
        let per_shard = self
            .shards
            .iter()
            .map(|s| {
                s.lock_engine()
                    .as_ref()
                    .map(|e| e.metrics().snapshot())
                    .unwrap_or_default()
            })
            .collect();
        let group_commit = self
            .shards
            .iter()
            .fold(GroupCommitSnapshot::default(), |acc, s| {
                acc.merged(&s.counters.snapshot())
            });
        ShardedSnapshot::from_shards(per_shard, group_commit)
    }

    /// Stop and join every background thread (flushers honour `mode`).
    fn halt(&self, mode: StopMode) {
        self.ctl.stop();
        for s in &self.shards {
            s.request_stop(mode);
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.threads).drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        // Scheduler last: draining flushers route their final forces
        // through it, so it must stay alive until they have joined.
        if let Some(sched) = &self.scheduler {
            sched.stop();
        }
        if let Some(t) = lock(&self.sched_thread).take() {
            let _ = t.join();
        }
    }

    /// Crash every shard simultaneously: background threads are abandoned
    /// (pending group-commit batches are **not** forced — exactly what a
    /// power failure does to unacknowledged operations) and each shard's
    /// surviving `(store, wal)` parts are extracted, in shard order.
    /// Outstanding [`CommitTicket`]s remain valid for `is_durable`
    /// queries; parked `wait`ers wake and report `false`.
    pub fn crash(self) -> Vec<(StableStore, Wal)> {
        self.halt(StopMode::Abandon);
        self.take_engines().into_iter().map(Engine::crash).collect()
    }

    /// Crash with torn log tails: shard `i` loses its unforced buffer
    /// except the first `partials[i % partials.len()]` bytes (an empty
    /// slice means clean tails everywhere).
    ///
    /// A shard whose device already died mid-force (torn/rotted write —
    /// see the shard's `dead` latch) crashes *clean* instead: a dead device
    /// cannot be mid-way through writing a final fragment, and a torn
    /// append here would promote the WAL's tail guard past the earlier
    /// fault's never-acknowledged bytes.
    pub fn crash_torn(self, partials: &[usize]) -> Vec<(StableStore, Wal)> {
        // Snapshot device death *before* halting: the halt below marks
        // every shard dead as part of crashing.
        let dead: Vec<bool> = self.shards.iter().map(|s| s.is_dead()).collect();
        self.halt(StopMode::Abandon);
        self.take_engines()
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let partial = if partials.is_empty() || dead[i] {
                    0
                } else {
                    partials[i % partials.len()]
                };
                e.crash_torn(partial)
            })
            .collect()
    }

    /// Orderly shutdown: flushers drain their pending batches, write
    /// graphs are fully installed, and every shard's parts come back
    /// clean.
    pub fn shutdown(self) -> Result<Vec<(StableStore, Wal)>> {
        self.halt(StopMode::Drain);
        self.take_engines()
            .into_iter()
            .map(Engine::shutdown)
            .collect()
    }

    fn take_engines(&self) -> Vec<Engine> {
        self.shards
            .iter()
            .map(|s| {
                s.lock_engine()
                    .take()
                    .expect("engines are taken exactly once, by crash/shutdown")
            })
            .collect()
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Idempotent: crash/shutdown already halted and drained the
        // thread list; a bare drop stops the background threads here.
        self.halt(StopMode::Abandon);
    }
}

/// Checkpoint one shard and advance its watermark (the checkpoint's
/// record is forced as part of [`Engine::checkpoint`]).
fn checkpoint_one(shard: &Shard, truncate: bool) -> Result<Lsn> {
    let mut g = shard.lock_engine();
    let Some(e) = g.as_mut() else {
        return Err(LlogError::CacheProtocol(format!(
            "shard {} has crashed",
            shard.index
        )));
    };
    // `Engine::checkpoint` forces the WAL internally; a shard whose
    // device died mid-force (torn/rotted write) must not be forced again,
    // or the tail guard would advance over the rotted bytes. Checked
    // under the engine lock, where death is latched.
    if shard.is_dead() {
        return Err(LlogError::CacheProtocol(format!(
            "shard {} has crashed",
            shard.index
        )));
    }
    let lsn = e.checkpoint(truncate)?;
    // With a device backend attached, every checkpoint also persists the
    // shard's store + log to the device tier — incrementally: the store
    // checkpoint writes only objects dirtied since the last one (O(dirty)),
    // and the log device appends only the new tail and reclaims whole
    // segments the truncation dropped. Backend lock is taken *after* the
    // engine lock (the only order used anywhere).
    if let Some(b) = lock(&shard.backend).as_mut() {
        b.persist(e.store(), e.wal(), shard.faults.as_deref())?;
    }
    let forced = e.wal().forced_lsn();
    drop(g);
    shard.advance_durable(forced);
    // Retention GC rides the checkpoint cadence: reclaim versions below
    // min(oldest open snapshot, the durable cut just advanced).
    shard.gc_versions();
    Ok(lsn)
}

/// Recover every shard of a crashed [`ShardedEngine`], **in parallel** —
/// a shared worker pool bounded by [`std::thread::available_parallelism`]
/// claims shards off a queue, each scanning only its own log (the
/// per-shard rW graphs share no edges, so shard recoveries are
/// independent). With more shards than cores the pool stays fully busy
/// without oversubscribing the machine; with fewer shards than cores no
/// idle threads are spawned. Returns the recovered engine plus each
/// shard's [`RecoveryOutcome`], in shard order.
///
/// Each shard replays serially on its pool thread
/// ([`recover`](fn@llog_core::recover)); use [`recover_sharded_with`] to pick
/// the pool size.
pub fn recover_sharded(
    parts: Vec<(StableStore, Wal)>,
    registry: &TransformRegistry,
    config: ShardedConfig,
    policy: RedoPolicy,
) -> Result<(ShardedEngine, Vec<RecoveryOutcome>)> {
    recover_sharded_with(parts, registry, config, policy, None)
}

/// [`recover_sharded`] with an optional pool-size override (`None` =
/// `available_parallelism`, clamped to the shard count either way).
pub fn recover_sharded_with(
    parts: Vec<(StableStore, Wal)>,
    registry: &TransformRegistry,
    mut config: ShardedConfig,
    policy: RedoPolicy,
    pool_threads: Option<usize>,
) -> Result<(ShardedEngine, Vec<RecoveryOutcome>)> {
    assert!(!parts.is_empty(), "need at least one shard to recover");
    config.shards = parts.len();
    let engine_config = config.engine;
    let n = parts.len();
    let pool = pool_threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .clamp(1, n);

    // Work queue: each shard's parts sit in a slot claimed exactly once
    // via the atomic cursor; results land in ordered slots so shard order
    // survives out-of-order completion.
    let slots: Vec<Mutex<Option<(StableStore, Wal)>>> =
        parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    type ShardRecovery = Result<(Engine, RecoveryOutcome)>;
    let result_slots: Vec<Mutex<Option<ShardRecovery>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool)
            .map(|_| {
                let registry = registry.clone();
                let (slots, result_slots, next) = (&slots, &result_slots, &next);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let (store, wal) = lock(&slots[i])
                        .take()
                        .expect("each shard slot is claimed exactly once");
                    let r = recover(store, wal, registry.clone(), engine_config, policy);
                    *lock(&result_slots[i]) = Some(r);
                })
            })
            .collect();
        for h in handles {
            // A panicking worker leaves its shard's result slot empty;
            // the collection loop below turns that into an error.
            let _ = h.join();
        }
    });

    let mut engines = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    for slot in result_slots {
        let (e, o) = lock(&slot).take().ok_or_else(poisoned_recovery_thread)??;
        engines.push(e);
        outcomes.push(o);
    }
    Ok((ShardedEngine::from_engines(config, engines), outcomes))
}

fn poisoned_recovery_thread() -> LlogError {
    LlogError::Unexplainable("shard recovery thread panicked".into())
}

/// Reboot from the device tier: load every shard's persisted
/// `(store, wal)` pair off its [`DurabilityBackend`] and recover them in
/// parallel. A backend that was never persisted to yields an empty shard
/// (fresh store, fresh log). The backends are returned alongside so the
/// caller can re-attach them ([`ShardedEngine::attach_backends`]) and keep
/// checkpointing incrementally onto the same devices.
pub fn recover_sharded_from_backends(
    backends: Vec<DurabilityBackend>,
    registry: &TransformRegistry,
    config: ShardedConfig,
    policy: RedoPolicy,
) -> Result<(ShardedEngine, Vec<RecoveryOutcome>, Vec<DurabilityBackend>)> {
    let mut parts = Vec::with_capacity(backends.len());
    for b in &backends {
        let metrics = Metrics::new();
        let pair = match b.load(metrics.clone())? {
            Some(pair) => pair,
            None => (StableStore::new(metrics.clone()), Wal::new(metrics)),
        };
        parts.push(pair);
    }
    let (engine, outcomes) = recover_sharded(parts, registry, config, policy)?;
    Ok((engine, outcomes, backends))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_ops::builtin;

    fn registry() -> TransformRegistry {
        TransformRegistry::with_builtins()
    }

    fn put(e: &ShardedEngine, x: ObjectId, v: &str) -> CommitTicket {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![x],
            Transform::new(builtin::CONST, builtin::encode_values(&[Value::from(v)])),
        )
        .unwrap()
    }

    #[test]
    fn group_commit_acknowledges_and_survives() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 4,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        let tickets: Vec<CommitTicket> = (0..64u64).map(|i| put(&e, ObjectId(i), "gc")).collect();
        for t in &tickets {
            assert!(t.wait(), "flusher must eventually force every batch");
            assert!(t.is_durable());
        }
        let snap = e.metrics_snapshot();
        assert!(
            snap.group_commit.batches >= 1,
            "group commit must batch at least once"
        );
        let parts = e.crash();
        let (rec, outcomes) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        assert_eq!(outcomes.len(), 4);
        for i in 0..64u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("gc"));
        }
    }

    #[test]
    fn sync_policy_forces_per_op() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..10u64 {
            let t = put(&e, ObjectId(i), "sync");
            assert!(t.is_durable(), "sync commits are durable on return");
        }
        let snap = e.metrics_snapshot();
        assert_eq!(snap.group_commit.sync_commits, 10);
        assert_eq!(snap.aggregate.log_forces, 10);
        assert_eq!(snap.group_commit.batches, 0);
        drop(e);
    }

    #[test]
    fn group_commit_forces_fewer_than_ops() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Group(GroupCommitPolicy {
                batch_ops: 8,
                max_delay: Duration::from_millis(50),
            }),
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        // 8 committer threads, each op waits for its ticket: pending
        // commits pile up while the flusher works, so batches form.
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let e = &e;
                s.spawn(move || {
                    for i in 0..16u64 {
                        let x = ObjectId(t * 1000 + i);
                        let ticket = e
                            .execute(
                                OpKind::Physical,
                                vec![],
                                vec![x],
                                Transform::new(
                                    builtin::CONST,
                                    builtin::encode_values(&[Value::from("b")]),
                                ),
                            )
                            .unwrap();
                        assert!(ticket.wait());
                    }
                });
            }
        });
        let snap = e.metrics_snapshot();
        let ops = 8 * 16;
        assert_eq!(snap.group_commit.batched_ops, ops);
        assert!(
            snap.aggregate.log_forces < ops,
            "group commit must force fewer times ({}) than ops ({})",
            snap.aggregate.log_forces,
            ops
        );
        assert!(snap.group_commit.max_batch >= 2);
        drop(e);
    }

    #[test]
    fn cross_shard_ops_are_rejected_at_the_top() {
        let reg = registry();
        let e = ShardedEngine::new(ShardedConfig::default(), &reg);
        let r = e.router();
        let a = ObjectId(0);
        let b = (1..)
            .map(ObjectId)
            .find(|&x| r.shard_of(x) != r.shard_of(a))
            .unwrap();
        let err = e
            .execute(
                OpKind::Logical,
                vec![a],
                vec![b],
                Transform::new(builtin::HASH_MIX, Value::from("x")),
            )
            .unwrap_err();
        assert!(matches!(err, LlogError::CacheProtocol(_)));
        drop(e);
    }

    #[test]
    fn backpressure_bounds_the_uninstalled_window() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            max_uninstalled: 8,
            install_high_water: 0,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..256u64 {
            put(&e, ObjectId(i), "bp");
        }
        // The window held: never more than max_uninstalled live ops at
        // execute time (the installer may lag the last few).
        assert!(
            e.uninstalled_total() <= 8 + 1,
            "window overflow: {} uninstalled",
            e.uninstalled_total()
        );
        let snap = e.metrics_snapshot();
        assert!(
            snap.group_commit.backpressure_waits > 0,
            "256 ops through a window of 8 must park at least once"
        );
        drop(e);
    }

    #[test]
    fn checkpoint_coordinator_truncates_round_robin() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..64u64 {
            put(&e, ObjectId(i), "ck").wait();
        }
        e.install_all().unwrap();
        let before: Vec<usize> = (0..2)
            .map(|i| {
                e.shards[i]
                    .lock_engine()
                    .as_ref()
                    .unwrap()
                    .wal()
                    .stable_len()
            })
            .collect();
        let (s0, _) = e.checkpoint_next().unwrap();
        let (s1, _) = e.checkpoint_next().unwrap();
        assert_ne!(s0, s1, "round-robin must rotate shards");
        for i in 0..2 {
            let after = e.shards[i]
                .lock_engine()
                .as_ref()
                .unwrap()
                .wal()
                .stable_len();
            assert!(
                after <= before[i],
                "checkpoint truncation must not grow shard {i}'s log"
            );
        }
        // Checkpointed shards still recover.
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..64u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("ck"));
        }
    }

    #[test]
    fn spawned_checkpointer_runs_and_stops() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        e.spawn_checkpointer(Duration::from_millis(1));
        for i in 0..128u64 {
            put(&e, ObjectId(i), "bg").wait();
        }
        std::thread::sleep(Duration::from_millis(10));
        let checkpoints: u64 = e.metrics_snapshot().aggregate.log_records; // just liveness
        assert!(checkpoints > 0);
        // crash() joins the coordinator; recovery still sees every
        // acknowledged op.
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..128u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("bg"));
        }
    }

    #[test]
    fn crash_wakes_parked_ticket_waiters() {
        let reg = registry();
        // A flusher that will never trigger on its own: huge batch, huge
        // delay.
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Group(GroupCommitPolicy {
                batch_ops: usize::MAX,
                max_delay: Duration::from_secs(3600),
            }),
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        let ticket = put(&e, ObjectId(1), "unacked");
        assert!(!ticket.is_durable());
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(Duration::from_millis(5));
        let parts = e.crash();
        assert!(
            !waiter.join().unwrap(),
            "a crash must wake waiters with `false`, not hang them"
        );
        // The unacknowledged op is indeed gone.
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        assert_eq!(rec.read_value(ObjectId(1)).unwrap(), Value::empty());
    }

    #[test]
    fn shutdown_drains_pending_batches() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 2,
            commit: CommitPolicy::Group(GroupCommitPolicy {
                batch_ops: usize::MAX, // only the drain can flush these
                max_delay: Duration::from_secs(3600),
            }),
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        let tickets: Vec<CommitTicket> =
            (0..16u64).map(|i| put(&e, ObjectId(i), "drain")).collect();
        let parts = e.shutdown().unwrap();
        for t in &tickets {
            assert!(t.is_durable(), "shutdown must drain pending commits");
        }
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..16u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("drain"));
        }
    }

    #[test]
    fn torn_group_commit_batch_kills_shard_without_false_acks() {
        use llog_testkit::faults::{failpoint, FaultKind};
        let reg = registry();
        // Manual flusher: it only fires when we ask it to via enqueue +
        // max_delay expiry — here we use a small batch to trigger it.
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Group(GroupCommitPolicy {
                batch_ops: 4,
                // Long delay: the flusher only fires on a full batch, so the
                // tear cannot race the doomed appends below.
                max_delay: Duration::from_secs(3600),
            }),
            ..ShardedConfig::default()
        };
        let host = Arc::new(FaultHost::new());
        let e = ShardedEngine::new_with_faults(cfg, &reg, Some(host.clone()));
        // First batch forces cleanly.
        let pre: Vec<CommitTicket> = (0..4u64).map(|i| put(&e, ObjectId(i), "pre")).collect();
        for t in &pre {
            assert!(t.wait());
        }
        // Arm a tear for the flusher's next force: the batch dies mid-write.
        host.arm(
            failpoint::FLUSHER_FORCE,
            FaultKind::TornWrite { at_byte: 3 },
        );
        let doomed: Vec<CommitTicket> = (4..8u64).map(|i| put(&e, ObjectId(i), "doomed")).collect();
        for t in &doomed {
            assert!(
                !t.wait(),
                "a ticket in a torn batch must never report durable"
            );
            assert!(!t.is_durable());
        }
        assert_eq!(host.fired().len(), 1);
        // The shard crashed; recovery sees the acked prefix, never the
        // torn batch.
        let parts = e.crash_torn(&[]);
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..4u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("pre"));
        }
        for i in 4..8u64 {
            assert_eq!(
                rec.read_value(ObjectId(i)).unwrap(),
                Value::empty(),
                "torn-batch op {i} must not survive"
            );
        }
    }

    #[test]
    fn failed_force_retries_and_acks_eventually() {
        use llog_testkit::faults::{failpoint, FaultKind};
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Group(GroupCommitPolicy {
                batch_ops: 2,
                max_delay: Duration::from_millis(2),
            }),
            ..ShardedConfig::default()
        };
        let host = Arc::new(FaultHost::new());
        let e = ShardedEngine::new_with_faults(cfg, &reg, Some(host.clone()));
        host.arm(failpoint::FLUSHER_FORCE, FaultKind::IoError);
        let tickets: Vec<CommitTicket> = (0..4u64).map(|i| put(&e, ObjectId(i), "rt")).collect();
        for t in &tickets {
            assert!(t.wait(), "single-shot I/O error must be survived by retry");
        }
        assert_eq!(host.fired().len(), 1);
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..4u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("rt"));
        }
    }

    #[test]
    fn install_fault_stalls_installer_but_redo_covers() {
        use llog_testkit::faults::{failpoint, FaultKind};
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            install_high_water: 0,
            ..ShardedConfig::default()
        };
        let host = Arc::new(FaultHost::new());
        let e = ShardedEngine::new_with_faults(cfg, &reg, Some(host.clone()));
        host.arm(failpoint::INSTALL, FaultKind::IoError);
        let tickets: Vec<CommitTicket> = (0..8u64).map(|i| put(&e, ObjectId(i), "in")).collect();
        for t in &tickets {
            assert!(t.wait());
        }
        // Whether or not the stalled round delayed installs, redo recovery
        // reconstructs everything acknowledged.
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..8u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("in"));
        }
    }

    #[test]
    fn shared_pool_recovers_more_shards_than_threads() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 8,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..128u64 {
            put(&e, ObjectId(i), "pool");
        }
        e.force_all().unwrap();
        let parts = e.crash();
        // Pool of 2 threads drains all 8 shard slots; each shard replays
        // serially (one worker).
        let (rec, outcomes) =
            recover_sharded_with(parts.clone(), &reg, cfg, RedoPolicy::RsiExposed, Some(2))
                .unwrap();
        assert_eq!(rec.shards(), 8);
        assert_eq!(outcomes.len(), 8);
        for i in 0..128u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("pool"));
        }
        // The same shards, each replayed on a pool of 3 workers, recover
        // the same outcomes and state.
        let mut engines = Vec::new();
        for (store, wal) in parts {
            let (engine, outcome) = llog_core::recover_with(
                store,
                wal,
                reg.clone(),
                cfg.engine,
                RedoPolicy::RsiExposed,
                3,
            )
            .unwrap();
            assert_eq!(outcome, outcomes[engines.len()], "shard {}", engines.len());
            engines.push(engine);
        }
        let wide = ShardedEngine::from_engines(cfg, engines);
        for i in 0..128u64 {
            assert_eq!(
                wide.read_value(ObjectId(i)).unwrap(),
                rec.read_value(ObjectId(i)).unwrap()
            );
        }
    }

    #[test]
    fn parallel_recovery_matches_shard_count_and_state() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 8,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..200u64 {
            put(&e, ObjectId(i), "par");
        }
        e.force_all().unwrap();
        let parts = e.crash();
        assert_eq!(parts.len(), 8);
        let (rec, outcomes) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        assert_eq!(rec.shards(), 8);
        assert_eq!(outcomes.len(), 8);
        let total_redone: u64 = outcomes.iter().map(|o| o.redone).sum();
        assert_eq!(total_redone, 200, "every forced op redoes on some shard");
        for i in 0..200u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("par"));
        }
    }

    #[test]
    fn device_backed_checkpoints_survive_reboot_from_devices() {
        use llog_storage::device::DeviceConfig;
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 2,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        e.attach_backends(
            (0..2)
                .map(|_| DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small()))
                .collect(),
        );
        for i in 0..10u64 {
            put(&e, ObjectId(i), "dev1");
        }
        e.checkpoint_all(true).unwrap();
        for i in 10..20u64 {
            put(&e, ObjectId(i), "dev2");
        }
        e.checkpoint_all(true).unwrap();
        // The in-memory parts vanish; the devices survive the crash.
        let backends: Vec<DurabilityBackend> = e.take_backends().into_iter().flatten().collect();
        assert_eq!(backends.len(), 2);
        drop(e.crash());
        let (rec, outcomes, _backends) =
            recover_sharded_from_backends(backends, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        assert_eq!(outcomes.len(), 2);
        for i in 0..10u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("dev1"));
        }
        for i in 10..20u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("dev2"));
        }
    }

    #[test]
    fn device_checkpoints_cost_o_dirty_not_o_store() {
        use llog_storage::device::DeviceConfig;
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        let dev_metrics = Metrics::new();
        e.attach_backend(
            0,
            DurabilityBackend::mem(dev_metrics.clone(), &DeviceConfig::small()),
        );
        for i in 0..8u64 {
            put(&e, ObjectId(i), "full");
        }
        e.install_all().unwrap();
        e.checkpoint_all(true).unwrap();
        let first = dev_metrics.snapshot();
        assert_eq!(first.ckpt_objects_written, 8, "first checkpoint is full");
        // One more object dirtied: the next device checkpoint writes only
        // that object and skips the clean eight.
        put(&e, ObjectId(8), "dirty");
        e.install_all().unwrap();
        e.checkpoint_all(true).unwrap();
        let delta = dev_metrics.snapshot().since(&first);
        assert_eq!(delta.ckpt_objects_written, 1, "O(dirty), not O(store)");
        assert_eq!(delta.ckpt_objects_skipped, 8);
        drop(e);
    }

    #[test]
    fn persist_all_makes_unforgotten_tail_device_durable() {
        use llog_storage::device::DeviceConfig;
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        e.attach_backend(
            0,
            DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small()),
        );
        for i in 0..6u64 {
            put(&e, ObjectId(i), "tail");
        }
        // No checkpoint: persist_all pushes the forced log tail to the
        // device so a device reboot still replays the committed ops.
        e.persist_all().unwrap();
        let backends: Vec<DurabilityBackend> = e.take_backends().into_iter().flatten().collect();
        drop(e.crash());
        let (rec, _, _) =
            recover_sharded_from_backends(backends, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..6u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("tail"));
        }
    }

    /// Walking the backlog in tiny chunks leaves the cursor mid-frame on
    /// every call; the durable cut must come from the log's own frame
    /// walk, so each chunk still makes progress and the reassembled bytes
    /// match a single whole-tail ship.
    #[test]
    fn ship_chunk_progresses_from_mid_frame_cursors() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..8u64 {
            put(&e, ObjectId(i), "a-payload-long-enough-to-span-chunks");
        }
        let manifest = e.ship_manifest(0).unwrap();
        let durable = manifest.durable;
        assert!(durable > manifest.base);
        let (whole, _) = e.ship_chunk(0, manifest.base, usize::MAX).unwrap();
        let mut at = manifest.base;
        let mut assembled = Vec::new();
        while at < durable {
            let (bytes, cut) = e.ship_chunk(0, at, 7).unwrap();
            assert_eq!(cut, durable);
            assert!(
                !bytes.is_empty(),
                "shipping stalled at {at:?} < {durable:?}"
            );
            at = Lsn(at.0 + bytes.len() as u64);
            assembled.extend_from_slice(&bytes);
        }
        assert_eq!(at, durable);
        assert_eq!(assembled, whole);
    }

    /// A replica watermark below the log base (it fell behind a
    /// checkpoint truncation) is the *worst* lag, and the gauge must say
    /// so — before the clamp it read exactly zero in that state.
    #[test]
    fn below_base_watermark_reports_full_backlog_lag() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..4u64 {
            put(&e, ObjectId(i), "old");
        }
        e.install_all().unwrap();
        e.checkpoint_shard(0, true).unwrap();
        for i in 0..4u64 {
            put(&e, ObjectId(i), "new");
        }
        let base = e.ship_manifest(0).unwrap().base;
        assert!(base > Lsn(1), "truncation must have advanced the base");
        e.note_replica_watermark(0, Lsn(1)).unwrap();
        let lag = e.metrics_snapshot().per_shard[0].repl_replay_lag_frames;
        assert!(lag > 0, "below-base watermark must read as maximal lag");
    }

    #[test]
    fn coalesced_sync_commits_survive_and_share_barriers() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 4,
            commit: CommitPolicy::Sync,
            coalesce_window: Some(Duration::from_millis(20)),
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        // Four committer threads: their sync commits land inside each
        // other's gather windows, so barriers carry more than one rider.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let e = &e;
                s.spawn(move || {
                    for i in 0..8u64 {
                        let x = ObjectId(t * 1000 + i);
                        let ticket = e
                            .execute(
                                OpKind::Physical,
                                vec![],
                                vec![x],
                                Transform::new(
                                    builtin::CONST,
                                    builtin::encode_values(&[Value::from("co")]),
                                ),
                            )
                            .unwrap();
                        assert!(ticket.is_durable(), "sync commits are durable on return");
                    }
                });
            }
        });
        let snap = e.metrics_snapshot();
        assert_eq!(snap.group_commit.sync_commits, 32);
        assert!(
            snap.aggregate.forces_coalesced > 0,
            "concurrent sync commits under a 20ms window must share a barrier"
        );
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for t in 0..4u64 {
            for i in 0..8u64 {
                assert_eq!(
                    rec.read_value(ObjectId(t * 1000 + i)).unwrap(),
                    Value::from("co")
                );
            }
        }
    }

    #[test]
    fn coalesced_barrier_failure_retries_without_false_acks() {
        use llog_testkit::faults::{failpoint, FaultKind};
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Group(GroupCommitPolicy {
                batch_ops: 2,
                max_delay: Duration::from_millis(2),
            }),
            coalesce_window: Some(Duration::from_millis(1)),
            ..ShardedConfig::default()
        };
        let host = Arc::new(FaultHost::new());
        let e = ShardedEngine::new_with_faults(cfg, &reg, Some(host.clone()));
        // The shared sync barrier fails once: every rider fails, nothing is
        // acknowledged, and the flusher's retry re-stages the whole tail.
        host.arm(failpoint::SCHED_SYNC, FaultKind::IoError);
        let tickets: Vec<CommitTicket> = (0..4u64).map(|i| put(&e, ObjectId(i), "bf")).collect();
        for t in &tickets {
            assert!(t.wait(), "single-shot barrier failure must be retried");
        }
        assert_eq!(host.fired().len(), 1);
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..4u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("bf"));
        }
    }

    #[test]
    fn torn_coalesced_force_kills_shard_without_false_acks() {
        use llog_testkit::faults::{failpoint, FaultKind};
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Group(GroupCommitPolicy {
                batch_ops: 4,
                max_delay: Duration::from_secs(3600),
            }),
            coalesce_window: Some(Duration::from_millis(1)),
            ..ShardedConfig::default()
        };
        let host = Arc::new(FaultHost::new());
        let e = ShardedEngine::new_with_faults(cfg, &reg, Some(host.clone()));
        let pre: Vec<CommitTicket> = (0..4u64).map(|i| put(&e, ObjectId(i), "pre")).collect();
        for t in &pre {
            assert!(t.wait());
        }
        // The tear fires inside the barrier's per-shard begin phase: the
        // shard dies and no rider of the doomed batch ever acks.
        host.arm(
            failpoint::FLUSHER_FORCE,
            FaultKind::TornWrite { at_byte: 3 },
        );
        let doomed: Vec<CommitTicket> = (4..8u64).map(|i| put(&e, ObjectId(i), "doomed")).collect();
        for t in &doomed {
            assert!(!t.wait(), "a ticket in a torn barrier must never ack");
            assert!(!t.is_durable());
        }
        assert_eq!(host.fired().len(), 1);
        let parts = e.crash_torn(&[]);
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..4u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("pre"));
        }
        for i in 4..8u64 {
            assert_eq!(
                rec.read_value(ObjectId(i)).unwrap(),
                Value::empty(),
                "torn-barrier op {i} must not survive"
            );
        }
    }

    #[test]
    fn coalesced_forces_share_one_device_fsync() {
        use llog_storage::device::DeviceConfig;
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 2,
            commit: CommitPolicy::Group(GroupCommitPolicy {
                batch_ops: usize::MAX, // only explicit forces flush
                max_delay: Duration::from_secs(3600),
            }),
            persist_on_force: true,
            coalesce_window: Some(Duration::from_millis(50)),
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        e.attach_backends(
            (0..2)
                .map(|_| DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small()))
                .collect(),
        );
        let r = e.router();
        let a = ObjectId(0);
        let b = (1..)
            .map(ObjectId)
            .find(|&x| r.shard_of(x) != r.shard_of(a))
            .unwrap();
        let ta = put(&e, a, "one");
        let tb = put(&e, b, "two");
        let before = e.metrics_snapshot().aggregate;
        // Near-simultaneous forces on both shards: the 50ms gather window
        // folds them into one barrier with one shared device fsync.
        std::thread::scope(|s| {
            let e = &e;
            s.spawn(move || e.force_shard(0).unwrap());
            s.spawn(move || e.force_shard(1).unwrap());
        });
        assert!(ta.is_durable() && tb.is_durable());
        let after = e.metrics_snapshot().aggregate;
        assert_eq!(
            after.forces_coalesced - before.forces_coalesced,
            1,
            "two riders, one barrier"
        );
        assert_eq!(
            after.io_fsyncs - before.io_fsyncs,
            1,
            "the shared barrier costs exactly one fsync"
        );
        assert!(after.double_buffer_overlap_ns > before.double_buffer_overlap_ns);
        drop(e);
    }

    #[test]
    fn snapshot_reads_never_take_the_engine_mutex() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 2,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..16u64 {
            assert!(put(&e, ObjectId(i), "mvcc").is_durable());
        }
        let before = e.engine_lock_count();
        for _ in 0..8 {
            for i in 0..16u64 {
                assert_eq!(
                    e.read_value_snapshot(ObjectId(i)).unwrap(),
                    Value::from("mvcc")
                );
            }
        }
        assert_eq!(
            e.engine_lock_count(),
            before,
            "the snapshot read path must not acquire any engine mutex"
        );
        // The mutex path, by contrast, counts one acquisition per read.
        e.read_value(ObjectId(0)).unwrap();
        assert_eq!(e.engine_lock_count(), before + 1);
        drop(e);
    }

    #[test]
    fn snapshot_reads_complete_while_a_writer_holds_the_engine_lock() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        let x = ObjectId(7);
        assert!(put(&e, x, "held").is_durable());
        // Park a "writer" on the engine mutex; snapshot reads must not
        // block behind it.
        let guard = e.shards[0].lock_engine();
        assert_eq!(e.read_value_snapshot(x).unwrap(), Value::from("held"));
        let snap = e.open_snapshot(0).unwrap();
        assert_eq!(snap.read(x), Value::from("held"));
        drop(snap);
        drop(guard);
        drop(e);
    }

    #[test]
    fn snapshot_reads_observe_only_durable_state() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Group(GroupCommitPolicy {
                batch_ops: 1024, // never trips on its own
                max_delay: Duration::from_secs(3600),
            }),
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        let x = ObjectId(3);
        let t1 = put(&e, x, "v1");
        e.force_all().unwrap();
        assert!(t1.wait());
        // v2 executes but its batch never forces: the mutex path sees it
        // (uncommitted read), the snapshot path must not.
        let t2 = put(&e, x, "v2");
        assert!(!t2.is_durable());
        assert_eq!(e.read_value(x).unwrap(), Value::from("v2"));
        assert_eq!(e.read_value_snapshot(x).unwrap(), Value::from("v1"));
        e.force_all().unwrap();
        assert!(t2.wait());
        assert_eq!(e.read_value_snapshot(x).unwrap(), Value::from("v2"));
        drop(e);
    }

    #[test]
    fn checkpoint_gc_bounds_retention_and_respects_open_snapshots() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        let x = ObjectId(1);
        for i in 0..8 {
            assert!(put(&e, x, &format!("v{i}")).is_durable());
        }
        let pinned = e.open_snapshot(0).unwrap();
        let pinned_value = pinned.read(x);
        for i in 8..16 {
            assert!(put(&e, x, &format!("v{i}")).is_durable());
        }
        // Checkpoint runs the GC, but the open snapshot pins its floor:
        // the pinned read stays resolvable.
        e.checkpoint_shard(0, false).unwrap();
        assert_eq!(pinned.read(x), pinned_value);
        drop(pinned);
        // With the pin gone, the next GC collapses the chain to the floor
        // survivor.
        e.checkpoint_shard(0, false).unwrap();
        let vs = e.shards[0].versions().unwrap();
        assert_eq!(vs.chain_len(x), 1);
        assert_eq!(e.read_value_snapshot(x).unwrap(), Value::from("v15"));
        let snap = e.metrics_snapshot().aggregate;
        assert!(snap.versions_gced > 0, "GC must have reclaimed versions");
        assert!(snap.snapshot_oldest_si > 0, "GC floor gauge must advance");
        drop(e);
    }

    #[test]
    fn durable_watermark_bounds_retention_without_a_checkpoint() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        let vs = e.shards[0].versions().unwrap();
        let x = ObjectId(1);
        // No checkpoint ever runs: the floor follows the durable watermark,
        // so a hot object's chain stays at the floor survivor plus the
        // newest version.
        for i in 0..64 {
            assert!(put(&e, x, &format!("v{i}")).is_durable());
            assert!(vs.chain_len(x) <= 2, "chain grew to {}", vs.chain_len(x));
        }
        // A pinned snapshot holds the floor: its version stays readable
        // through more churn, still without a checkpoint.
        let pinned = e.open_snapshot(0).unwrap();
        assert_eq!(pinned.read(x), Value::from("v63"));
        for i in 64..96 {
            assert!(put(&e, x, &format!("v{i}")).is_durable());
        }
        assert_eq!(pinned.read(x), Value::from("v63"));
        drop(pinned);
        // Released: the next durable advance raises the floor, and the
        // publish after it prunes the chain back down (no sweep).
        assert!(put(&e, x, "next").is_durable());
        assert!(put(&e, x, "last").is_durable());
        assert!(vs.chain_len(x) <= 2, "chain kept {}", vs.chain_len(x));
        assert_eq!(e.read_value_snapshot(x).unwrap(), Value::from("last"));
        drop(e);
    }

    #[test]
    fn snapshot_reads_disabled_falls_back_to_the_mutex_path() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Sync,
            snapshot_reads: false,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        let x = ObjectId(5);
        assert!(put(&e, x, "flat").is_durable());
        let before = e.engine_lock_count();
        assert_eq!(e.read_value_snapshot(x).unwrap(), Value::from("flat"));
        assert!(
            e.engine_lock_count() > before,
            "with snapshot_reads off the read must ride the engine mutex"
        );
        assert!(e.open_snapshot(0).is_err());
        drop(e);
    }

    #[test]
    fn snapshot_reads_survive_recovery() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 2,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..32u64 {
            assert!(put(&e, ObjectId(i), "pre").is_durable());
        }
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        let before = rec.engine_lock_count();
        for i in 0..32u64 {
            assert_eq!(
                rec.read_value_snapshot(ObjectId(i)).unwrap(),
                Value::from("pre"),
                "recovered state must be visible to snapshot reads"
            );
        }
        assert_eq!(rec.engine_lock_count(), before);
        drop(rec);
    }

    #[test]
    fn floor_constrained_read_waits_for_the_acked_write() {
        let reg = registry();
        // Slow flusher: a fresh put is not durable on return, so a plain
        // snapshot read races the force while the floored read must wait.
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Group(GroupCommitPolicy {
                batch_ops: 1024,
                max_delay: Duration::from_millis(40),
            }),
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        assert!(put(&e, ObjectId(1), "old").wait());

        let t = put(&e, ObjectId(1), "new");
        // Do NOT wait on the ticket: the floored read alone must deliver
        // read-your-writes for a client holding the acked LSN.
        let v = e
            .read_value_snapshot_at_least(ObjectId(1), t.target(), Duration::from_secs(10))
            .unwrap();
        assert_eq!(v, Value::from("new"));
        assert!(t.is_durable(), "floored read implies the batch forced");

        // Floor ZERO degenerates to a plain snapshot read.
        let v0 = e
            .read_value_snapshot_at_least(ObjectId(1), Lsn::ZERO, Duration::from_secs(1))
            .unwrap();
        assert_eq!(v0, Value::from("new"));
        drop(e);
    }

    #[test]
    fn floor_beyond_any_write_times_out() {
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            commit: CommitPolicy::Sync,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        let t = put(&e, ObjectId(7), "v");
        assert!(t.is_durable());
        let unreachable = Lsn(t.target().0 + 1_000_000);
        let err = e
            .read_value_snapshot_at_least(ObjectId(7), unreachable, Duration::from_millis(50))
            .unwrap_err();
        assert!(
            err.to_string().contains("session floor"),
            "expected a floor timeout, got: {err}"
        );
        drop(e);
    }
}
