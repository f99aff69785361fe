//! One shard: an engine, its group-commit state, and its durability
//! watermark.
//!
//! The durability protocol is a classic group commit. `execute` appends
//! the operation to the shard's WAL under the shard lock and records a
//! *durability target* — the WAL end LSN right after the append. The
//! shard's flusher thread batches `Wal::force` calls; after each force it
//! advances the shard's durable-LSN watermark to the forced LSN and wakes
//! every [`CommitTicket`] waiter whose target the watermark now covers.
//! An operation is **acknowledged** exactly when its ticket's target is at
//! or below the watermark — and only acknowledged operations are promised
//! to survive a crash.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use llog_core::snapshot::{Snapshot, SnapshotRegistry};
use llog_core::Engine;
use llog_storage::VersionStore;
use llog_testkit::faults::{failpoint, FaultHost, ForceVerdict};
use llog_types::{Lsn, ObjectId, OpId, Value};
use llog_wal::ForceOutcome;

use crate::signal::{lock, WorkSignal};
use crate::snapshot::ShardCounters;

/// How a shard's background threads are asked to exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StopMode {
    /// Orderly shutdown: the flusher forces any leftover batch (and
    /// advances the watermark over it) before exiting.
    Drain,
    /// Simulated crash: exit immediately; pending operations stay
    /// unforced, exactly as a power failure would leave them.
    Abandon,
}

/// Group-commit bookkeeping, guarded by `Shard::gc`.
#[derive(Debug, Default)]
pub(crate) struct GcState {
    /// Operations appended but not yet covered by a force.
    pub pending: usize,
    /// Arrival time of the oldest pending operation (drives `max_delay`).
    pub oldest: Option<Instant>,
    /// Set once by shutdown/crash; the flusher honours it at the next
    /// wakeup.
    pub stop: Option<StopMode>,
}

/// One partition of the object space: an engine plus its commit pipeline.
pub(crate) struct Shard {
    /// Shard index (for diagnostics).
    pub index: usize,
    /// The engine, or `None` once crashed/shut down. `Option` lets
    /// `ShardedEngine::crash` *take* the engine even while outstanding
    /// [`CommitTicket`]s still hold `Arc<Shard>` clones. Take it through
    /// [`Shard::lock_engine`], which counts acquisitions — the E17/fuzz
    /// proof that snapshot reads never touch this mutex.
    pub engine: Mutex<Option<Engine>>,
    /// Times the engine mutex was acquired (every call site goes through
    /// [`Shard::lock_engine`]).
    engine_locks: AtomicU64,
    /// MVCC version chains, once snapshot reads are enabled for the shard.
    versions: Mutex<Option<Arc<VersionStore>>>,
    /// Open snapshot SIs over those chains (the GC floor source).
    pub(crate) snapshots: Arc<SnapshotRegistry>,
    /// Group-commit state.
    pub gc: Mutex<GcState>,
    /// Wakes the flusher when pending work (or a stop request) appears.
    pub gc_cv: Condvar,
    /// Durable-LSN watermark: every LSN strictly below it is on stable
    /// storage.
    durable: Mutex<Lsn>,
    /// Wakes ticket waiters when the watermark advances (or on death).
    durable_cv: Condvar,
    /// Raised by crash: parked ticket waiters wake and report
    /// not-durable instead of hanging on a watermark that will never
    /// advance. Also latched *under the engine lock* the instant a force
    /// observes a torn/rotted write, so no concurrent force site (flusher,
    /// checkpointer, sync commit) can touch the dead device afterwards and
    /// advance the WAL's tail guard over the rotted bytes.
    dead: AtomicBool,
    /// Backpressure epoch: bumped by the installer after every install so
    /// parked executors re-check the uninstalled window.
    bp_epoch: Mutex<u64>,
    /// Wakes executors parked on backpressure.
    bp_cv: Condvar,
    /// Wakes the shard's parked installer (new work / stop).
    pub signal: WorkSignal,
    /// Commit-pipeline counters.
    pub counters: ShardCounters,
    /// Fault-injection host consulted by the flusher, installer and
    /// explicit force paths. `None` in production-shaped runs.
    pub faults: Option<Arc<FaultHost>>,
    /// Optional durability device pair (DESIGN §11): when attached, the
    /// checkpoint coordinator persists the shard's store + log to it
    /// incrementally after every checkpoint. Lock order: taken *after*
    /// `engine` (never the reverse).
    pub backend: Mutex<Option<llog_wal::DurabilityBackend>>,
    /// When set (and a backend is attached), every successful force also
    /// persists the WAL tail to the backend's log device *before* the
    /// watermark advances — so an acknowledgement means "on the device",
    /// and a `SIGKILL` of the whole process loses nothing acknowledged
    /// (DESIGN §12). A persist failure demotes the force to a retryable
    /// failure: nothing is acknowledged on the strength of a force the
    /// device never saw.
    pub persist_on_force: bool,
}

impl Shard {
    /// Wrap `engine` as shard `index`. The watermark starts at the WAL's
    /// already-forced LSN so operations recovered from the log are born
    /// durable.
    pub fn new(
        index: usize,
        engine: Engine,
        faults: Option<Arc<FaultHost>>,
        persist_on_force: bool,
    ) -> Shard {
        let forced = engine.wal().forced_lsn();
        Shard {
            index,
            engine: Mutex::new(Some(engine)),
            engine_locks: AtomicU64::new(0),
            versions: Mutex::new(None),
            snapshots: SnapshotRegistry::new(),
            gc: Mutex::new(GcState::default()),
            gc_cv: Condvar::new(),
            durable: Mutex::new(forced),
            durable_cv: Condvar::new(),
            dead: AtomicBool::new(false),
            bp_epoch: Mutex::new(0),
            bp_cv: Condvar::new(),
            signal: WorkSignal::new(),
            counters: ShardCounters::default(),
            faults,
            backend: Mutex::new(None),
            persist_on_force,
        }
    }

    /// Acquire the engine mutex, counting the acquisition. Every code path
    /// that touches the engine goes through here, so
    /// [`engine_lock_count`](Self::engine_lock_count) is a complete census
    /// — the assertion backing "snapshot reads never take the engine
    /// mutex".
    pub fn lock_engine(&self) -> MutexGuard<'_, Option<Engine>> {
        self.engine_locks.fetch_add(1, Ordering::Relaxed);
        lock(&self.engine)
    }

    /// How many times the engine mutex has been acquired.
    pub fn engine_lock_count(&self) -> u64 {
        self.engine_locks.load(Ordering::Relaxed)
    }

    /// Enable MVCC snapshot reads: seed the version chains from the
    /// engine's current state and publish every later update into them.
    pub fn enable_versions(&self) {
        let mut g = self.lock_engine();
        if let Some(e) = g.as_mut() {
            let vs = e.enable_versions();
            *lock(&self.versions) = Some(vs);
        }
    }

    /// The shard's version chains, if snapshot reads are enabled.
    pub fn versions(&self) -> Option<Arc<VersionStore>> {
        lock(&self.versions).clone()
    }

    /// Momentary snapshot read: resolve `x` at the durable watermark via
    /// the version chains — no engine mutex. The watermark is sampled
    /// under the chains read lock (see `VersionStore::read_coherent`), so
    /// the read can never race the retention GC. Returns `None` when
    /// snapshot reads are not enabled.
    pub fn read_snapshot(&self, x: ObjectId) -> Option<Value> {
        let vs = self.versions()?;
        Some(vs.read_coherent(x, || self.durable_lsn()).0)
    }

    /// Open a pinned snapshot at the current durable watermark. The SI is
    /// sampled while the registry lock is held, so a concurrent GC either
    /// sees the registration or computed its floor from an older (≤)
    /// durable value — never past this snapshot.
    pub fn open_snapshot(&self) -> Option<Snapshot> {
        let vs = self.versions()?;
        Some(self.snapshots.open(vs, || self.durable_lsn()))
    }

    /// Reclaim versions below `min(oldest open snapshot, durable)` and
    /// return how many were dropped. Wired into the checkpoint coordinator
    /// so retention stays bounded without a dedicated GC thread.
    pub fn gc_versions(&self) -> u64 {
        match self.versions() {
            Some(vs) => {
                let floor = self.snapshots.floor_with(|| self.durable_lsn());
                vs.gc(floor)
            }
            None => 0,
        }
    }

    /// The current durable-LSN watermark.
    pub fn durable_lsn(&self) -> Lsn {
        *lock(&self.durable)
    }

    /// Block until the durable watermark covers `to`: `Some(true)` once
    /// covered, `Some(false)` if the shard died first, `None` on timeout
    /// (the caller may poll again). Read-your-writes sessions park here
    /// before serving a floor-constrained read; the wait rides the same
    /// condvar as [`CommitTicket::wait`](crate::CommitTicket::wait).
    pub fn wait_durable(&self, to: Lsn, timeout: Duration) -> Option<bool> {
        let start = Instant::now();
        let mut d = lock(&self.durable);
        while *d < to {
            if self.is_dead() {
                return Some(false);
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                return None;
            }
            let (g, _) = self
                .durable_cv
                .wait_timeout(d, timeout - elapsed)
                .unwrap_or_else(PoisonError::into_inner);
            d = g;
        }
        Some(true)
    }

    /// Advance the watermark to `to` (monotonic) and wake ticket waiters.
    ///
    /// The version chains' pruning floor follows: it rises to
    /// `min(oldest open snapshot, to)`, the floor
    /// [`gc_versions`](Self::gc_versions) would use, without a sweep. The
    /// watermark is raised (and its lock released) before the registry is
    /// read, so a snapshot opened after the registry scan samples an SI at
    /// or above `to` and no open snapshot loses a version it resolves.
    pub fn advance_durable(&self, to: Lsn) {
        {
            let mut d = lock(&self.durable);
            if to <= *d {
                return;
            }
            *d = to;
            self.durable_cv.notify_all();
        }
        if let Some(vs) = self.versions() {
            vs.raise_floor(self.snapshots.floor_with(|| to));
        }
    }

    /// Mark the shard dead (crashed) and wake everything that could be
    /// parked on it. Holding each lock while notifying makes the wakeups
    /// race-free against waiters between their check and their park.
    pub fn mark_dead(&self) {
        {
            let _d = lock(&self.durable);
            self.dead.store(true, Ordering::SeqCst);
            self.durable_cv.notify_all();
        }
        {
            let _e = lock(&self.bp_epoch);
            self.bp_cv.notify_all();
        }
    }

    /// Has the shard crashed?
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Latch device death without the full [`Shard::mark_dead`] wakeups —
    /// called **under the engine lock** the instant a force observes a
    /// torn/rotted write, so no concurrent force site can slip in before
    /// the shard is torn down and advance the WAL's tail guard over the
    /// rotted bytes. The caller follows up with
    /// [`Shard::request_stop`]`(Abandon)` once the lock is released.
    pub fn latch_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    /// Publish one settled [`ForceOutcome`] for this shard — the shared
    /// tail of every explicit force path (`force_now`, and the coalesced
    /// scheduler's riders): advance the watermark on success, kill the
    /// shard on a tear (acknowledging only the pre-fault prefix), report a
    /// retryable failure as `false`.
    pub fn settle_force(&self, outcome: ForceOutcome) -> bool {
        match outcome {
            ForceOutcome::Forced(lsn) => {
                self.advance_durable(lsn);
                true
            }
            ForceOutcome::Torn(lsn) => {
                // The device tore the write: the shard is crashed. The
                // watermark advances at most to the pre-fault durable
                // prefix — nothing torn is ever acknowledged.
                self.advance_durable(lsn);
                self.request_stop(StopMode::Abandon);
                false
            }
            ForceOutcome::Failed => false,
        }
    }

    /// Current backpressure epoch (snapshot before parking).
    pub fn bp_epoch(&self) -> u64 {
        *lock(&self.bp_epoch)
    }

    /// Bump the backpressure epoch: an install freed window space.
    pub fn note_installed(&self) {
        let mut e = lock(&self.bp_epoch);
        *e += 1;
        self.bp_cv.notify_all();
    }

    /// Park until the backpressure epoch moves past `seen`, the shard
    /// dies, or `timeout` elapses (the timeout bounds the worst case if
    /// installs race ahead of the epoch snapshot).
    pub fn wait_backpressure(&self, seen: u64, timeout: Duration) {
        let e = lock(&self.bp_epoch);
        if *e != seen || self.is_dead() {
            return;
        }
        let _unused = self
            .bp_cv
            .wait_timeout(e, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Register one appended-but-unforced operation and wake the flusher.
    pub fn enqueue_commit(&self) {
        let mut gc = lock(&self.gc);
        gc.pending += 1;
        if gc.oldest.is_none() {
            gc.oldest = Some(Instant::now());
        }
        drop(gc);
        self.gc_cv.notify_all();
    }

    /// Ask the flusher (and installer) to exit.
    pub fn request_stop(&self, mode: StopMode) {
        {
            let mut gc = lock(&self.gc);
            // A crash must not be downgraded to a drain.
            if gc.stop != Some(StopMode::Abandon) {
                gc.stop = Some(mode);
            }
        }
        self.gc_cv.notify_all();
        self.signal.stop();
        if mode == StopMode::Abandon {
            self.mark_dead();
        }
    }

    /// Extend a just-completed force onto the device tier (see
    /// [`Shard::persist_on_force`]). Call with the engine lock held — the
    /// engine→backend lock order is the only one used anywhere. Returns
    /// `false` when the device rejected the tail: the caller must demote
    /// the force to a retryable failure instead of advancing the
    /// watermark, because nothing is on the device yet.
    pub fn persist_forced(&self, e: &Engine) -> bool {
        if !self.persist_on_force {
            return true;
        }
        match lock(&self.backend).as_mut() {
            Some(b) => b.persist_wal(e.wal(), self.faults.as_deref()).is_ok(),
            None => true,
        }
    }

    /// Force the shard's WAL once and advance the watermark — the
    /// single-force path used by checkpoints and explicit `force_shard`.
    /// Returns `false` if the engine is gone, the force failed with an
    /// injected I/O error, or an injected tear killed the shard.
    pub fn force_now(&self) -> bool {
        let outcome = {
            let mut g = self.lock_engine();
            let Some(e) = g.as_mut() else {
                return false;
            };
            if self.is_dead() {
                return false; // the device already died mid-force
            }
            let mut outcome = force_through_faults(e, self.faults.as_deref());
            if matches!(outcome, ForceOutcome::Torn(_)) {
                // Latch device death while the engine lock is still held:
                // a concurrent force site must never slip in between the
                // torn write and the kill and advance the WAL's tail
                // guard over the rotted bytes.
                self.latch_dead();
            }
            if matches!(outcome, ForceOutcome::Forced(_)) && !self.persist_forced(e) {
                outcome = ForceOutcome::Failed;
            }
            outcome
        };
        self.settle_force(outcome)
    }
}

/// Fault-aware force for a shard engine: consult the
/// [`failpoint::FLUSHER_FORCE`] failpoint first (a fault in the flusher
/// itself, e.g. a group-commit batch torn mid-force), then delegate to
/// [`Wal::force_with`], which consults [`failpoint::WAL_FORCE`] (a fault in
/// the device). An armed fault matches exactly one of the two points.
///
/// [`Wal::force_with`]: llog_wal::Wal::force_with
pub(crate) fn force_through_faults(e: &mut Engine, faults: Option<&FaultHost>) -> ForceOutcome {
    if let Some(h) = faults {
        let buffered = e.wal().buffer_len();
        if buffered > 0 {
            match h.on_force(failpoint::FLUSHER_FORCE, buffered) {
                ForceVerdict::Proceed => {}
                ForceVerdict::TearAt(n) => {
                    let durable = e.wal().forced_lsn();
                    e.wal_mut().crash_torn(n);
                    return ForceOutcome::Torn(durable);
                }
                ForceVerdict::FlipBit(bit) => {
                    let durable = e.wal().forced_lsn();
                    e.wal_mut().force();
                    e.wal_mut().corrupt_stable_bit(durable, bit);
                    return ForceOutcome::Torn(durable);
                }
                ForceVerdict::Fail => return ForceOutcome::Failed,
            }
        }
    }
    e.wal_mut().force_with(faults)
}

/// The per-shard log-flusher thread: batch `Wal::force` on a size/time
/// policy, then publish durability.
///
/// `force_latency` models the stable device's synchronous write time; the
/// sleep happens *outside* every lock, so concurrent shards overlap their
/// device waits — the physical basis of multi-shard throughput scaling.
/// With a [`ForceScheduler`] attached the force (and the latency) instead
/// rides a coalesced cross-shard barrier.
///
/// [`ForceScheduler`]: crate::scheduler::ForceScheduler
pub(crate) fn flusher_loop(
    shard: &Arc<Shard>,
    scheduler: Option<&Arc<crate::scheduler::ForceScheduler>>,
    batch_ops: usize,
    max_delay: Duration,
    force_latency: Duration,
) {
    let batch_ops = batch_ops.max(1);
    loop {
        // Phase 1: wait for a trigger (batch full, oldest op too old, or
        // stop).
        let batch = {
            let mut gc = lock(&shard.gc);
            loop {
                match gc.stop {
                    Some(StopMode::Abandon) => return,
                    Some(StopMode::Drain) if gc.pending == 0 => return,
                    Some(StopMode::Drain) => break,
                    None => {}
                }
                if gc.pending >= batch_ops {
                    break;
                }
                if gc.pending > 0 {
                    let waited = gc.oldest.map(|t| t.elapsed()).unwrap_or_default();
                    if waited >= max_delay {
                        break;
                    }
                    let (g, _) = shard
                        .gc_cv
                        .wait_timeout(gc, max_delay - waited)
                        .unwrap_or_else(PoisonError::into_inner);
                    gc = g;
                } else {
                    gc = shard.gc_cv.wait(gc).unwrap_or_else(PoisonError::into_inner);
                }
            }
            let n = gc.pending;
            gc.pending = 0;
            gc.oldest = None;
            n
        };

        // Phase 2: one force covers the whole batch (and anything that
        // slipped in after the pending count was captured — the force
        // writes the entire buffered tail, so over-coverage is safe). With
        // a scheduler the batch rides a coalesced cross-shard barrier (no
        // engine lock held here — the barrier takes it per phase).
        let outcome = if let Some(sched) = scheduler {
            match sched.force(shard) {
                Some(o) => o,
                None => return, // crashed/torn down underneath us
            }
        } else {
            let mut g = shard.lock_engine();
            let Some(e) = g.as_mut() else {
                return; // crashed underneath us
            };
            if shard.is_dead() {
                return; // killed by a fault on another force path
            }
            let mut outcome = force_through_faults(e, shard.faults.as_deref());
            if matches!(outcome, ForceOutcome::Torn(_)) {
                // Latch death under the engine lock (see `Shard::dead`):
                // after a torn batch no other force site may touch the
                // device.
                shard.latch_dead();
            }
            if matches!(outcome, ForceOutcome::Forced(_)) && !shard.persist_forced(e) {
                // The in-process force landed but the device never saw the
                // tail: demote to a retryable failure so the batch is
                // re-enqueued and nothing is acknowledged (see
                // `Shard::persist_on_force`).
                outcome = ForceOutcome::Failed;
            }
            outcome
        };
        let forced = match outcome {
            ForceOutcome::Forced(lsn) => lsn,
            ForceOutcome::Torn(durable) => {
                // The device tore the batch mid-force: this is a crash of
                // the shard. The watermark may advance only to the
                // pre-fault durable prefix, so nothing in the torn batch
                // is ever acknowledged; parked ticket waiters wake with
                // `false`.
                shard.advance_durable(durable);
                shard.request_stop(StopMode::Abandon);
                return;
            }
            ForceOutcome::Failed => {
                // Transient I/O error: the buffer is intact, nothing was
                // acknowledged. Put the batch back and retry at the next
                // trigger.
                let mut gc = lock(&shard.gc);
                gc.pending += batch;
                if gc.oldest.is_none() {
                    gc.oldest = Some(Instant::now());
                }
                drop(gc);
                shard.gc_cv.notify_all();
                continue;
            }
        };

        // Phase 3: the device write is in flight; new appends may buffer
        // meanwhile (no lock held). A scheduler already paid the modelled
        // latency once for the whole barrier — the coalescing win.
        if scheduler.is_none() && !force_latency.is_zero() {
            std::thread::sleep(force_latency);
        }

        // Phase 4: publish durability and account the batch.
        shard.advance_durable(forced);
        let c = &shard.counters;
        c.batches.add(1);
        c.batched_ops.add(batch as u64);
        c.max_batch.raise(batch as u64);
    }
}

/// The per-shard background installer: drains the write graph above a
/// high-water mark, parks on the shard's [`WorkSignal`] when idle, and
/// bumps the backpressure epoch after every install.
///
/// It starts parked: the first pass waits for the first notification
/// (from `execute`, or from the constructor when the engine starts above
/// the high-water mark), so an idle engine's lock census never moves on
/// its own.
pub(crate) fn installer_loop(shard: &Shard, high_water: usize) {
    let (mut seen, stopped) = shard.signal.wait_past(0);
    if stopped {
        return;
    }
    loop {
        if shard.signal.is_stopped() {
            return;
        }
        let worked = {
            let mut g = shard.lock_engine();
            // A dead shard's devices accept no writes: once a force has
            // torn (death is latched under this lock), installing values
            // into the stable store would leave it ahead of the log's
            // recoverable prefix.
            if shard.is_dead() {
                return;
            }
            match g.as_mut() {
                None => return,
                Some(e) if e.uninstalled_count() > high_water => {
                    // An injected install fault models a stalled/failing
                    // store device: skip this round and park, exactly as a
                    // real installer would back off. Correctness must not
                    // depend on installs happening (redo covers them).
                    let stalled = shard
                        .faults
                        .as_deref()
                        .is_some_and(|h| h.on_install(failpoint::INSTALL));
                    if stalled {
                        false
                    } else {
                        e.install_one().unwrap_or(false)
                    }
                }
                Some(_) => false,
            }
        };
        if worked {
            shard.note_installed();
            continue;
        }
        let (epoch, stopped) = shard.signal.wait_past(seen);
        seen = epoch;
        if stopped {
            return;
        }
    }
}

/// Receipt for one executed operation; redeemable for durability.
///
/// The ticket is handed back by [`ShardedEngine::execute`] *before* the
/// operation is on stable storage (under [`CommitPolicy::Group`]). The
/// caller may:
///
/// - [`wait`](CommitTicket::wait) — block until the shard's flusher has
///   forced the operation's log record (group commit), or
/// - [`is_durable`](CommitTicket::is_durable) — poll the watermark, e.g.
///   to batch application-level acknowledgements.
///
/// Only a ticket whose target the durable watermark covers is
/// *acknowledged*; everything else may legitimately vanish in a crash.
///
/// [`ShardedEngine::execute`]: crate::ShardedEngine::execute
/// [`CommitPolicy::Group`]: crate::CommitPolicy::Group
pub struct CommitTicket {
    pub(crate) shard: Arc<Shard>,
    pub(crate) shard_index: usize,
    pub(crate) op: OpId,
    pub(crate) lsn: Lsn,
    pub(crate) target: Lsn,
}

impl CommitTicket {
    /// The executed operation's id.
    pub fn op(&self) -> OpId {
        self.op
    }

    /// The operation's log sequence number (its lSI).
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The shard the operation ran on.
    pub fn shard(&self) -> usize {
        self.shard_index
    }

    /// The durability target: the operation is stable once the shard's
    /// durable watermark reaches this LSN.
    pub fn target(&self) -> Lsn {
        self.target
    }

    /// Is the operation on stable storage (covered by the watermark)?
    pub fn is_durable(&self) -> bool {
        self.shard.durable_lsn() >= self.target
    }

    /// Block until the operation is durable. Returns `true` once the
    /// watermark covers it, `false` if the shard crashed first — a
    /// `false` ticket was **never acknowledged** and makes no survival
    /// promise.
    pub fn wait(&self) -> bool {
        let start = Instant::now();
        let mut d = lock(&self.shard.durable);
        while *d < self.target {
            if self.shard.is_dead() {
                return false;
            }
            d = self
                .shard
                .durable_cv
                .wait(d)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(d);
        let c = &self.shard.counters;
        c.waits.add(1);
        c.flush_wait_ns.add(start.elapsed().as_nanos() as u64);
        true
    }

    /// Like [`CommitTicket::wait`], but give up after `timeout`:
    /// `Some(true)` durable, `Some(false)` shard crashed, `None` timed out
    /// (the operation may still become durable later — poll again). Lets a
    /// server's response writer park on a ticket while staying responsive
    /// to its own shutdown flag.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<bool> {
        let start = Instant::now();
        let mut d = lock(&self.shard.durable);
        while *d < self.target {
            if self.shard.is_dead() {
                return Some(false);
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                return None;
            }
            let (g, _) = self
                .shard
                .durable_cv
                .wait_timeout(d, timeout - elapsed)
                .unwrap_or_else(PoisonError::into_inner);
            d = g;
        }
        drop(d);
        let c = &self.shard.counters;
        c.waits.add(1);
        c.flush_wait_ns.add(start.elapsed().as_nanos() as u64);
        Some(true)
    }
}

impl std::fmt::Debug for CommitTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitTicket")
            .field("shard", &self.shard_index)
            .field("op", &self.op)
            .field("lsn", &self.lsn)
            .field("target", &self.target)
            .field("durable", &self.is_durable())
            .finish()
    }
}
