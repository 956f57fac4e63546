//! The durability layer of a server node: a [`NodeHook`] that pairs the
//! replica with a [`gencon_store::Log`] and a folding [`App`].
//!
//! [`DurableNode`] wraps any inner hook (typically the
//! [`ClientGateway`](crate::ClientGateway)) and, around every round:
//!
//! 1. **persists** newly committed batches to the write-ahead log (one
//!    record per slot, the `gencon-net` wire encoding as payload). The
//!    WAL writes happen on a dedicated **persist stage** thread behind a
//!    bounded channel: the round loop only encodes and enqueues, so
//!    fsync latency overlaps consensus instead of gating it. A full
//!    queue blocks the enqueue (counted as a stall) — committed records
//!    are backpressured, never dropped;
//! 2. **group-commits**: the persist stage's `maybe_sync` fsyncs at most
//!    once per configured interval, so a burst of slots shares one
//!    fsync;
//! 3. advances the **ack watermark** — the absolute applied-command count
//!    covered by durable storage, published by the persist stage after
//!    each fsync. Under durable-ack semantics the gateway acknowledges
//!    clients only below this watermark, so an ack implies the command
//!    survives `kill -9`; under fast-ack the watermark follows apply
//!    directly (memory semantics with a warm log on disk);
//! 4. runs the **snapshot policy**: every `snapshot_every` committed
//!    slots, absorb the newly applied slots into the [`Folder`] — its
//!    dedup window keeps the replica's batch handles, not copies — and
//!    install its [`FoldedState`] — the application's **folded state**
//!    (O(live state), not O(history)) plus the replica resume data — as
//!    the on-disk snapshot (atomic install), compact WAL segments below
//!    it, and [`BatchingReplica::compact_below`] the in-memory prefix,
//!    keeping a short `snapshot_tail` of slots for the decision-claim
//!    path. Snapshot cost no longer grows with the log's age; the only
//!    app that pays O(history) is `LogApp`, whose state *is* the history
//!    by definition.
//!
//! It also plugs the node loop's **chunked state transfer**:
//! `serve_manifest` answers laggards — **preferring the on-disk snapshot
//! whenever one covers the request** and synthesizing a fold from the
//! retained log only when none exists (the synthesis path that used to
//! live in the event loop) — and `serve_chunk` slices the described
//! state; `snapshot_installed` persists a `b + 1`-vouched transferred
//! snapshot so the *next* restart recovers past it too.
//!
//! [`recover_replica`] is the startup half: decode the on-disk
//! [`FoldedState`], restore the app fold and fast-forward the replica,
//! then replay the WAL tail through both, each record under its own slot
//! number: replay stops at a record that is not the replica's next slot,
//! so a snapshot that fails to install never renumbers the log. The
//! recovered app seeds the live [`Applier`](gencon_app::Applier) (clone
//! it), so replies and state hashes continue seamlessly across restarts.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, RecvTimeoutError, TrySendError};
use parking_lot::Mutex;

use gencon_app::{App, Folder};
use gencon_metrics::{Counter, Gauge, Histogram, Registry};
use gencon_net::wire::Wire;
use gencon_net::wire_sync::{FoldedState, SnapshotManifest};
use gencon_smr::{AppliedSlot, Batch, BatchingReplica};
use gencon_store::{Log, Recovery, Snapshot};
use gencon_trace::{EventKind, FlightRecorder, HashCell, Stage, Tracer};

use crate::node::{NodeHook, SNAPSHOT_GAP_MIN};

/// Durability policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct DurableConfig {
    /// Take a snapshot (and compact below it) every this many committed
    /// slots; 0 disables snapshots.
    pub snapshot_every: u64,
    /// Committed slots kept in memory behind the snapshot cut so recent
    /// laggards can still catch up via decision claims.
    pub snapshot_tail: u64,
    /// Durable-ack (`true`): clients are acked only once their command's
    /// slot is fsynced or snapshotted. Fast-ack (`false`): acks follow
    /// apply, persistence trails behind.
    pub durable_ack: bool,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            snapshot_every: 512,
            snapshot_tail: 64,
            durable_ack: true,
        }
    }
}

/// What [`recover_replica`] reconstructed.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveredState {
    /// Slots recovered from the snapshot.
    pub snapshot_slots: u64,
    /// Slots replayed from WAL records.
    pub replayed_slots: u64,
    /// Applied commands after recovery.
    pub applied: usize,
    /// The slot of the first WAL record left unreplayed because it was
    /// not the replica's next slot (the snapshot below it did not
    /// install, or the log has a gap); `None` when every record replayed.
    pub stranded_slot: Option<u64>,
}

/// Rebuilds `replica` and `folder` from what the store recovered: the
/// snapshot's [`FoldedState`] restores the app fold and fast-forwards the
/// replica (applied history below the cut is *not* re-materialized — the
/// fold is the state), then the WAL records replay through the replica,
/// each under its own slot number, and are absorbed into the folder.
/// Returns what was recovered. Replay stops at the first record whose
/// slot is not the replica's next slot (reported as
/// [`RecoveredState::stranded_slot`]), and at the first undecodable
/// payload (the WAL's CRC framing makes those effectively unreachable).
pub fn recover_replica<A: App>(
    replica: &mut BatchingReplica<A::Cmd>,
    folder: &mut Folder<A>,
    recovery: &Recovery,
) -> RecoveredState {
    let mut out = RecoveredState::default();
    if let Some(snap) = &recovery.snapshot {
        let mut buf = bytes::Bytes::from(snap.state.clone());
        if let Ok(fs) = FoldedState::<A::Cmd>::decode(&mut buf) {
            if folder.restore(&fs, snap.meta.upto_slot).is_ok()
                && replica.install_folded(&fs.dedup, fs.applied_len, snap.meta.upto_slot)
            {
                out.snapshot_slots = snap.meta.upto_slot;
            }
        }
    }
    for (slot, payload) in &recovery.records {
        if *slot != replica.committed_slots() as u64 {
            out.stranded_slot = Some(*slot);
            break;
        }
        let mut buf = bytes::Bytes::from(payload.clone());
        let Ok(batch) = Batch::<A::Cmd>::decode(&mut buf) else {
            break;
        };
        replica.replay_committed(batch);
        out.replayed_slots += 1;
    }
    // Fold the replayed tail so the folder's app covers the whole
    // recovered prefix (the live applier is cloned from it).
    folder.absorb(
        replica.applied_from(folder.applied_len()),
        replica.committed_slots() as u64,
    );
    out.applied = replica.applied_len();
    out
}

/// Appended-but-unshipped records queued to the persist stage. A full
/// queue blocks the order thread (stall) — records are never dropped.
const PERSIST_QUEUE_CAP: usize = 1024;

/// How often the persist stage wakes to run the group-commit interval
/// while appended records await their fsync and no new ones arrive. With
/// nothing awaiting fsync the stage blocks on its channel instead.
const PERSIST_POLL: Duration = Duration::from_millis(1);

/// Work shipped from the order thread to the persist stage, applied in
/// FIFO order so the WAL mirrors the order thread's operation sequence.
enum PersistMsg {
    /// Append one committed slot's encoded batch. `acked_through` is the
    /// absolute applied-command count covered once this slot is durable
    /// — the watermark the gate jumps to after the record's fsync.
    Append {
        slot: u64,
        payload: Vec<u8>,
        acked_through: u64,
    },
    /// Install a snapshot (periodic cut or a transferred one); `acked`
    /// is the applied-command count the cut covers.
    Install { snap: Snapshot, acked: u64 },
    /// Fsync everything staged and rendezvous with the sender.
    Flush(channel::Sender<()>),
}

/// The running persist stage: its inbox and join handle.
struct PersistStage {
    tx: channel::Sender<PersistMsg>,
    handle: std::thread::JoinHandle<()>,
}

/// Instrument handles for the persist stage.
#[derive(Clone)]
struct PersistMeters {
    appended: Counter,
    fsyncs: Counter,
    fsync_us: Histogram,
    stalls: Counter,
    /// Depth sampled on every enqueue and dequeue (histogram, so its
    /// p99 is meaningful), plus a last-value gauge for live status.
    queue_depth: Histogram,
    queue_depth_now: Gauge,
    gate: Gauge,
}

impl PersistMeters {
    fn new(reg: &Registry) -> Self {
        PersistMeters {
            appended: reg.counter("persist.appended"),
            fsyncs: reg.counter("persist.fsyncs"),
            fsync_us: reg.histogram("persist.fsync_us"),
            stalls: reg.counter("persist.stalls"),
            queue_depth: reg.histogram("persist.queue_depth"),
            queue_depth_now: reg.gauge("persist.queue_depth_now"),
            gate: reg.gauge("persist.gate"),
        }
    }
}

/// The persist stage body: applies shipped operations to the WAL in
/// order, group-commits, and publishes the durable watermark after each
/// fsync. Exits when the `DurableNode` (the only sender) is dropped,
/// fsyncing whatever is still staged.
fn persist_loop<L: Log>(
    wal: &Mutex<L>,
    rx: &channel::Receiver<PersistMsg>,
    gate: &AtomicU64,
    durable_ack: bool,
    m: &PersistMeters,
    t: &Tracer,
) {
    // Appended records not yet known durable: (slot, acked_through).
    let mut pending: VecDeque<(u64, u64)> = VecDeque::new();
    // Duration of the group commit (append + fsync) that most recently
    // made records durable — the `persisted` event's detail for every
    // slot it covered.
    let mut last_sync_us: u64 = 0;
    // Publishes the watermark for every record at or below the store's
    // durable slot, and traces each slot's durability edge.
    let release = |wal: &mut L, pending: &mut VecDeque<(u64, u64)>, svc_us: u64| {
        let Some(d) = wal.durable_slot() else { return };
        let mut acked = None;
        while pending.front().is_some_and(|&(s, _)| s <= d) {
            let (slot, a) = pending.pop_front().expect("front exists");
            t.rec(Stage::Persist, EventKind::Persisted, slot, svc_us);
            acked = Some(a);
        }
        if durable_ack {
            if let Some(a) = acked {
                gate.fetch_max(a, Ordering::SeqCst);
                m.gate.raise(a);
            }
        }
    };
    // Runs a sync-ish closure; meters it and returns its duration if a
    // real fsync happened (0 otherwise).
    let metered_sync = |wal: &mut L, f: &dyn Fn(&mut L) -> std::io::Result<()>| -> u64 {
        let before = wal.syncs();
        let t = Instant::now();
        if let Err(e) = f(wal) {
            eprintln!("[durable] WAL sync failed: {e}");
        }
        if wal.syncs() > before {
            let us = t.elapsed().as_micros() as u64;
            m.fsyncs.add(wal.syncs() - before);
            m.fsync_us.record(us);
            us
        } else {
            0
        }
    };
    loop {
        let msg = if pending.is_empty() {
            rx.recv()
        } else {
            rx.recv_timeout(PERSIST_POLL)
        };
        let mut wal = wal.lock();
        match msg {
            Ok(PersistMsg::Append {
                slot,
                payload,
                acked_through,
            }) => {
                m.queue_depth.record(rx.len() as u64);
                m.queue_depth_now.set(rx.len() as u64);
                match wal.append(slot, &payload) {
                    Ok(()) => {
                        m.appended.inc();
                        pending.push_back((slot, acked_through));
                    }
                    // A failed append wedges the contiguous tail; the
                    // next snapshot install heals it (same policy the
                    // inline path had).
                    Err(e) => eprintln!("[durable] WAL append of slot {slot} failed: {e}"),
                }
                let us = metered_sync(&mut wal, &|w| w.maybe_sync().map(|_| ()));
                if us > 0 {
                    last_sync_us = us;
                }
            }
            Ok(PersistMsg::Install { snap, acked }) => {
                match wal.install_snapshot(&snap) {
                    Ok(()) => {
                        // Records below the cut are covered by the
                        // snapshot itself.
                        pending.retain(|&(s, _)| s >= snap.meta.upto_slot);
                        if durable_ack {
                            gate.fetch_max(acked, Ordering::SeqCst);
                            m.gate.raise(acked);
                        }
                    }
                    Err(e) => eprintln!(
                        "[durable] snapshot install at slot {} failed: {e}",
                        snap.meta.upto_slot
                    ),
                }
            }
            Ok(PersistMsg::Flush(reply)) => {
                let us = metered_sync(&mut wal, &|w: &mut L| w.sync());
                if us > 0 {
                    last_sync_us = us;
                }
                release(&mut wal, &mut pending, last_sync_us);
                drop(wal);
                let _ = reply.send(());
                continue;
            }
            Err(RecvTimeoutError::Timeout) => {
                // Poll tick: drive the group-commit interval so the
                // watermark advances even when commits pause.
                let us = metered_sync(&mut wal, &|w| w.maybe_sync().map(|_| ()));
                if us > 0 {
                    last_sync_us = us;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                let us = metered_sync(&mut wal, &|w: &mut L| w.sync());
                if us > 0 {
                    last_sync_us = us;
                }
                release(&mut wal, &mut pending, last_sync_us);
                return;
            }
        }
        release(&mut wal, &mut pending, last_sync_us);
    }
}

/// The persistence wrapper hook (see the module docs).
pub struct DurableNode<A: App, L, H> {
    /// The store, shared with the persist stage. The order thread takes
    /// the lock only on serve/read paths; steady-state persistence
    /// touches it solely from the persist thread.
    wal: Arc<Mutex<L>>,
    persist: Option<PersistStage>,
    inner: H,
    cfg: DurableConfig,
    /// The snapshot-folding app instance: lags at boundary cuts so every
    /// replica folds byte-identical states for `b + 1` vouching.
    folder: Folder<A>,
    /// The last snapshot state served (manifest + encoded state), so
    /// chunk requests do not re-read the store per chunk.
    serve_cache: Option<(SnapshotManifest, Vec<u8>)>,
    /// Absolute applied-command count covered by durable storage — the
    /// gateway's ack limit under durable-ack.
    ack_gate: Arc<AtomicU64>,
    /// The next slot the order thread will ship to the persist stage
    /// (its own view of the WAL tail, which it must not read live).
    next_ship: u64,
    /// Highest snapshot cut shipped (periodic or transferred) — the
    /// policy's re-fire guard, tracked here because the on-disk meta
    /// lags shipped installs.
    last_cut: u64,
    wal_trailing: bool,
    meters: PersistMeters,
    tracer: Tracer,
    /// Where snapshot-boundary `(applied, state_hash)` pairs are
    /// published for the admin `hash` command, if auditing is wired.
    hash_cell: Option<HashCell>,
    snapshots_taken: u64,
    served_from_disk: u64,
    served_synthesized: u64,
}

impl<A: App, L: Log, H> DurableNode<A, L, H> {
    /// Wraps `inner` with persistence into `wal`. The WAL is expected to
    /// already be positioned at the replica's recovery point and `folder`
    /// to hold the recovered fold (see [`recover_replica`]); use
    /// `Folder::default()` for a fresh node.
    pub fn new(wal: L, cfg: DurableConfig, folder: Folder<A>, inner: H) -> Self {
        let next_ship = wal.next_slot();
        let last_cut = wal.snapshot_meta().map_or(0, |m| m.upto_slot);
        DurableNode {
            wal: Arc::new(Mutex::new(wal)),
            persist: None,
            inner,
            cfg,
            folder,
            serve_cache: None,
            ack_gate: Arc::new(AtomicU64::new(0)),
            next_ship,
            last_cut,
            wal_trailing: false,
            meters: PersistMeters::new(&Registry::new()),
            tracer: Tracer::disabled(),
            hash_cell: None,
            snapshots_taken: 0,
            served_from_disk: 0,
            served_synthesized: 0,
        }
    }

    /// Registers this node's `persist.*` instruments in `reg`. Call
    /// before the run starts (the persist stage captures its handles
    /// when it spawns).
    #[must_use]
    pub fn with_metrics(mut self, reg: &Registry) -> Self {
        self.meters = PersistMeters::new(reg);
        self
    }

    /// Records the persistence slot lifecycle (`persist_queued` at ship,
    /// `persisted` once the covering fsync lands) into `recorder` — pass
    /// the same recorder as the node and gateway so per-slot spans
    /// assemble across all stages. Call before the run starts, like
    /// [`with_metrics`](DurableNode::with_metrics).
    #[must_use]
    pub fn with_trace(mut self, recorder: FlightRecorder) -> Self {
        self.tracer = Tracer::new(Some(recorder));
        self
    }

    /// The ack watermark handle — give it to the
    /// [`ClientGateway`](crate::ClientGateway) via
    /// [`with_ack_gate`](crate::ClientGateway::with_ack_gate) so acks
    /// respect durability.
    #[must_use]
    pub fn ack_gate(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.ack_gate)
    }

    /// Shares an externally created watermark instead of the internal one
    /// (when the gateway had to be constructed before this node).
    #[must_use]
    pub fn with_gate(mut self, gate: Arc<AtomicU64>) -> Self {
        self.ack_gate = gate;
        self
    }

    /// Publishes `(applied count, state hash)` into `cell` at every
    /// snapshot-boundary fold. Boundary folds are byte-identical across
    /// replicas at the same cut, so any two honest nodes publishing for
    /// the same applied count must agree — `gencon-mon` compares these
    /// pairs across the cluster to detect divergence.
    #[must_use]
    pub fn with_hash_cell(mut self, cell: HashCell) -> Self {
        self.hash_cell = Some(cell);
        self
    }

    /// Snapshots taken by the periodic policy during this run.
    #[must_use]
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// Manifests served straight from the on-disk snapshot.
    #[must_use]
    pub fn served_from_disk(&self) -> u64 {
        self.served_from_disk
    }

    /// Manifests served by synthesizing a fold from the retained log
    /// (only happens when no on-disk snapshot covers the request).
    #[must_use]
    pub fn served_synthesized(&self) -> u64 {
        self.served_synthesized
    }

    /// The snapshot-folding app state (e.g. for stats after the run).
    #[must_use]
    pub fn folder(&self) -> &Folder<A> {
        &self.folder
    }

    /// Locks and returns the wrapped store (e.g. for stats after the
    /// run). While the guard is held the persist stage cannot make
    /// progress — don't hold it across waits, and never take a second
    /// guard in the same statement (the lock is not reentrant).
    pub fn store(&self) -> parking_lot::MutexGuard<'_, L> {
        self.wal.lock()
    }

    /// The wrapped inner hook.
    #[must_use]
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Blocks until the persist stage has applied and fsynced everything
    /// shipped so far (and published the watermark). A no-op before the
    /// stage ever ran.
    pub fn flush(&mut self) {
        if let Some(stage) = self.persist.as_ref() {
            let (tx, rx) = channel::unbounded();
            if stage.tx.send(PersistMsg::Flush(tx)).is_ok() {
                let _ = rx.recv();
            }
        }
    }
}

impl<A: App, L: Log + Send + 'static, H> DurableNode<A, L, H> {
    /// Spawns the persist stage on first use (so [`with_metrics`] and
    /// [`with_gate`] builders apply before any handle is captured).
    ///
    /// [`with_metrics`]: DurableNode::with_metrics
    /// [`with_gate`]: DurableNode::with_gate
    fn ensure_stage(&mut self) {
        if self.persist.is_some() {
            return;
        }
        let (tx, rx) = channel::bounded(PERSIST_QUEUE_CAP);
        let wal = Arc::clone(&self.wal);
        let gate = Arc::clone(&self.ack_gate);
        let durable_ack = self.cfg.durable_ack;
        let m = self.meters.clone();
        let t = self.tracer.clone();
        let handle =
            std::thread::spawn(move || persist_loop(&wal, &rx, &gate, durable_ack, &m, &t));
        self.persist = Some(PersistStage { tx, handle });
    }

    /// Ships one operation to the persist stage. A full queue blocks
    /// (counted as a stall) — backpressure, not loss.
    fn ship(&mut self, msg: PersistMsg) {
        self.ensure_stage();
        let Some(stage) = self.persist.as_ref() else {
            return;
        };
        match stage.tx.try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                self.meters.stalls.inc();
                let _ = stage.tx.send(msg);
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// Encodes and ships every newly committed batch to the persist
    /// stage. Runs on the order thread; does not touch the WAL lock.
    fn persist_committed(&mut self, replica: &BatchingReplica<A::Cmd>) {
        let base = replica.committed_base_slot();
        let committed = replica.committed_slots() as u64;
        if self.next_ship < base {
            // The WAL fell behind the compaction point (a failed append or
            // snapshot persist) — the missing records no longer exist in
            // memory. Don't append a gapped log; the next successful
            // periodic snapshot install resets the WAL at its cut and
            // persistence resumes from there.
            if !self.wal_trailing {
                self.wal_trailing = true;
                eprintln!(
                    "[durable] WAL at slot {} trails the compaction point {base}; \
                     waiting for the next snapshot to heal it",
                    self.next_ship
                );
            }
            return;
        }
        while self.next_ship < committed {
            let slot = self.next_ship;
            let batch = &replica.committed_batches()[(slot - base) as usize];
            // The absolute applied-command count this slot's durability
            // covers, fixed at ship time (slots at or below `slot` are
            // already applied when it commits).
            let log = replica.applied_from(0);
            let acked_through = log[..log.partition_point(|s| s.slot <= slot)]
                .last()
                .map_or(replica.applied_base() as u64, AppliedSlot::end);
            self.ship(PersistMsg::Append {
                slot,
                payload: batch.to_bytes().to_vec(),
                acked_through,
            });
            self.next_ship += 1;
            let depth = self.persist.as_ref().map_or(0, |s| s.tx.len() as u64);
            self.meters.queue_depth.record(depth);
            self.tracer
                .rec(Stage::Persist, EventKind::PersistQueued, slot, depth);
        }
        if let Some(stage) = self.persist.as_ref() {
            self.meters.queue_depth_now.set(stage.tx.len() as u64);
        }
    }

    /// Folds the applied suffix up to `cut` and returns the encoded
    /// snapshot state (the wire `FoldedState`).
    fn fold_state_at(&mut self, replica: &BatchingReplica<A::Cmd>, cut: u64) -> Vec<u8> {
        self.folder
            .absorb(replica.applied_from(self.folder.applied_len()), cut);
        self.folder
            .fold(replica.dedup_horizon())
            .to_bytes()
            .to_vec()
    }

    /// The periodic snapshot + compaction policy.
    fn maybe_snapshot(&mut self, replica: &mut BatchingReplica<A::Cmd>) {
        if self.cfg.snapshot_every == 0 {
            return;
        }
        let committed = replica.committed_slots() as u64;
        // Cut at an exact `snapshot_every` boundary, never at the raw
        // commit point: every replica then produces byte-identical
        // snapshots for the same boundary (the committed sequence and the
        // fold are both shared), which is what lets `b + 1` responders
        // vouch for one manifest during transfer. The cut must not rewind
        // the folder (possible right after recovery, whose fold covers
        // the whole recovered prefix). The re-fire guard is `last_cut`,
        // not the on-disk meta — the disk lags shipped installs.
        let cut = (committed / self.cfg.snapshot_every) * self.cfg.snapshot_every;
        if cut <= self.last_cut || cut == 0 || cut < self.folder.covered_slot() {
            return;
        }
        // The fold happens here on the order thread (byte-identical
        // vouching requires the deterministic cut); only the disk I/O of
        // installing it moves to the persist stage.
        let state = self.fold_state_at(replica, cut);
        if let Some(cell) = &self.hash_cell {
            cell.publish(self.folder.applied_len(), self.folder.state_hash());
        }
        let snap = Snapshot::new(cut, self.folder.applied_len(), state);
        let acked = self.folder.applied_len();
        self.last_cut = cut;
        // An install at or past the shipped tail resets the WAL there
        // (the healing path); appends resume from the cut.
        self.next_ship = self.next_ship.max(cut);
        self.wal_trailing = false;
        self.ship(PersistMsg::Install { snap, acked });
        self.snapshots_taken += 1;
        // The serve cache is deliberately NOT invalidated here: a laggard
        // mid-transfer keeps pulling chunks of the manifest this node
        // already described to it, even though the periodic policy has
        // moved the on-disk snapshot past that cut (under load the cut
        // advances every `snapshot_every` slots — without the cache,
        // in-flight transfers would be stranded on stale manifests). The
        // cache is replaced the next time a manifest is served.
        // Compaction no longer waits for the ack watermark: the gateway
        // parks unacked `(cmd, slot, offset, reply)` tuples in its own
        // bounded queue at apply time, so the retained applied suffix is
        // not the ack source any more — pinning compaction at a stalled
        // fsync gate would just re-open the unbounded-memory hole the
        // parked-ack bound closed.
        replica.compact_below(cut.saturating_sub(self.cfg.snapshot_tail));
    }

    /// Loads a retained on-disk snapshot cut into the serve cache: the
    /// newest cut when `want` is `None`, else exactly the cut `want` —
    /// retention ([`WalConfig::snapshot_keep`](gencon_store::WalConfig))
    /// keeps the last few cuts fetchable, so a laggard that started its
    /// transfer against a slightly older manifest keeps pulling chunks
    /// after this node takes a newer cut.
    fn cache_disk_snapshot(&mut self, want: Option<u64>) -> Option<&(SnapshotManifest, Vec<u8>)> {
        let meta = {
            let store = self.wal.lock();
            match want {
                None => store.snapshot_meta()?,
                Some(w) => store
                    .snapshot_metas()
                    .into_iter()
                    .find(|m| m.upto_slot == w)?,
            }
        };
        let cached = self
            .serve_cache
            .as_ref()
            .is_some_and(|(m, _)| m.upto_slot == meta.upto_slot);
        if !cached {
            let snap = self
                .wal
                .lock()
                .read_snapshot_at(meta.upto_slot)
                .ok()
                .flatten()?;
            let manifest =
                SnapshotManifest::describe(snap.meta.upto_slot, snap.meta.applied_len, &snap.state);
            self.serve_cache = Some((manifest, snap.state));
        }
        self.serve_cache.as_ref()
    }
}

impl<A: App, L, H> Drop for DurableNode<A, L, H> {
    fn drop(&mut self) {
        // Dropping the only sender stops the persist stage; it fsyncs
        // whatever is still staged on the way out.
        if let Some(stage) = self.persist.take() {
            drop(stage.tx);
            let _ = stage.handle.join();
        }
    }
}

impl<A, L, H> NodeHook<A::Cmd> for DurableNode<A, L, H>
where
    A: App,
    L: Log + Send + 'static,
    H: NodeHook<A::Cmd>,
{
    fn before_round(&mut self, round: u64, replica: &mut BatchingReplica<A::Cmd>) {
        self.inner.before_round(round, replica);
    }

    fn after_round(&mut self, round: u64, replica: &mut BatchingReplica<A::Cmd>) {
        // Ship the newly committed records; fsync and the durable-ack
        // watermark happen on the persist stage, off this thread.
        self.persist_committed(replica);
        if !self.cfg.durable_ack {
            // Fast-ack: the watermark follows apply directly.
            self.ack_gate
                .store(replica.applied_len() as u64, Ordering::SeqCst);
        }
        // The inner hook (gateway, harness) acks under the current gate
        // and sees the applied log before compaction prunes it.
        self.inner.after_round(round, replica);
        self.maybe_snapshot(replica);
    }

    fn finish(&mut self, replica: &mut BatchingReplica<A::Cmd>) {
        // Drain order: persist first (every shipped record reaches disk
        // and the watermark), then the inner stages — so the gateway's
        // final ack pass runs under the final gate and no durable ack is
        // stranded behind an unflushed fsync.
        self.flush();
        self.inner.finish(replica);
    }

    fn should_stop(&mut self, replica: &BatchingReplica<A::Cmd>) -> bool {
        self.inner.should_stop(replica)
    }

    fn serve_manifest(
        &mut self,
        replica: &BatchingReplica<A::Cmd>,
        have_slot: u64,
    ) -> Option<SnapshotManifest> {
        // Prefer the on-disk snapshot whenever it covers the request —
        // it is already folded and encoded; re-synthesizing from the log
        // would redo O(state) work per request.
        if self
            .wal
            .lock()
            .snapshot_meta()
            .is_some_and(|m| m.upto_slot > have_slot)
        {
            let manifest = self.cache_disk_snapshot(None).map(|(m, _)| *m)?;
            self.served_from_disk += 1;
            return Some(manifest);
        }
        // No snapshot covers it: synthesize a fold at a boundary-aligned
        // cut from the retained log (possible while the suffix above the
        // folder's coverage is still retained — true by construction,
        // since compaction only happens below installed snapshots).
        let committed = replica.committed_slots() as u64;
        let cut = (committed / SNAPSHOT_GAP_MIN) * SNAPSHOT_GAP_MIN;
        if cut <= have_slot || cut == 0 || cut < self.folder.covered_slot() {
            return None;
        }
        let state = self.fold_state_at(replica, cut);
        let manifest = SnapshotManifest::describe(cut, self.folder.applied_len(), &state);
        self.served_synthesized += 1;
        self.serve_cache = Some((manifest, state));
        Some(manifest)
    }

    fn serve_chunk(
        &mut self,
        _replica: &BatchingReplica<A::Cmd>,
        upto_slot: u64,
        index: u32,
    ) -> Option<Vec<u8>> {
        let cached = self
            .serve_cache
            .as_ref()
            .is_some_and(|(m, _)| m.upto_slot == upto_slot);
        if !cached {
            self.cache_disk_snapshot(Some(upto_slot))?;
        }
        let (manifest, state) = self.serve_cache.as_ref()?;
        manifest.chunk_of(state, index).map(<[u8]>::to_vec)
    }

    fn snapshot_installed(
        &mut self,
        manifest: &SnapshotManifest,
        state: &[u8],
        fs: &FoldedState<A::Cmd>,
        replica: &mut BatchingReplica<A::Cmd>,
    ) {
        // Persist the transferred snapshot so the next restart recovers
        // past it (the store re-verifies the hash and compacts below it),
        // and restore the folder so future periodic folds continue from
        // the transferred state.
        let snap = Snapshot::new(manifest.upto_slot, manifest.applied_len, state.to_vec());
        self.last_cut = self.last_cut.max(manifest.upto_slot);
        // The install resets the WAL tail at the cut when it is at or
        // past the shipped tail; appends resume from there.
        self.next_ship = self.next_ship.max(manifest.upto_slot);
        self.wal_trailing = false;
        self.ship(PersistMsg::Install {
            snap,
            acked: manifest.applied_len,
        });
        if let Err(e) = self.folder.restore(fs, manifest.upto_slot) {
            eprintln!("[durable] folder restore failed: {e}");
        }
        self.serve_cache = Some((*manifest, state.to_vec()));
        if !self.cfg.durable_ack {
            self.ack_gate
                .store(replica.applied_len() as u64, Ordering::SeqCst);
        }
        self.inner.snapshot_installed(manifest, state, fs, replica);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_algos::paxos;
    use gencon_app::LogApp;
    use gencon_net::wire_sync::decode_state;
    use gencon_rounds::{HeardOf, Outgoing, RoundProcess};
    use gencon_smr::BatchingReplica;
    use gencon_store::MemStore;
    use gencon_types::{ProcessId, Round};

    use crate::node::NodeHook;
    use crate::NoHook;

    type LogDurable<H> = DurableNode<LogApp<u64>, MemStore, H>;

    /// A single-replica Paxos log driven by hand: commits every round.
    fn solo_replica(cap: usize) -> BatchingReplica<u64> {
        let spec = paxos::<Batch<u64>>(1, 0, ProcessId::new(0)).unwrap();
        BatchingReplica::new(ProcessId::new(0), spec.params.clone(), cap, usize::MAX).unwrap()
    }

    fn drive_round(replica: &mut BatchingReplica<u64>, r: u64) {
        let round = Round::new(r);
        let out = replica.send(round);
        let mut heard: HeardOf<_> = HeardOf::empty(1);
        if let Outgoing::Broadcast(m) = out {
            heard.put(ProcessId::new(0), m);
        }
        replica.receive(round, &heard);
    }

    #[test]
    fn commits_are_persisted_and_gate_follows_durability() {
        let mut replica = solo_replica(4);
        let mut durable: LogDurable<NoHook> = DurableNode::new(
            MemStore::new(),
            DurableConfig {
                snapshot_every: 0,
                ..DurableConfig::default()
            },
            Folder::default(),
            NoHook,
        );
        let gate = durable.ack_gate();
        replica.submit_all([1u64, 2, 3, 4, 5, 6]);
        for r in 1..=10u64 {
            durable.before_round(r, &mut replica);
            drive_round(&mut replica, r);
            durable.after_round(r, &mut replica);
        }
        durable.flush();
        assert_eq!(replica.applied_len(), 6);
        assert_eq!(
            durable.store().next_slot(),
            replica.committed_slots() as u64,
            "every committed slot has a WAL record"
        );
        // MemStore syncs on every maybe_sync, so the gate covers all.
        assert_eq!(gate.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn snapshot_policy_folds_and_compacts_replica_and_store() {
        let mut replica = solo_replica(2);
        let mut durable: LogDurable<NoHook> = DurableNode::new(
            MemStore::new(),
            DurableConfig {
                snapshot_every: 8,
                snapshot_tail: 2,
                durable_ack: true,
            },
            Folder::default(),
            NoHook,
        );
        for r in 1..=200u64 {
            replica.submit_all([r * 10, r * 10 + 1]);
            durable.before_round(r, &mut replica);
            drive_round(&mut replica, r);
            durable.after_round(r, &mut replica);
        }
        durable.flush();
        assert!(durable.snapshots_taken() > 2, "policy must fire repeatedly");
        let meta = durable.store().snapshot_meta().expect("snapshot exists");
        assert!(meta.upto_slot > 0);
        assert!(
            replica.applied_base() > 0,
            "compaction pruned the applied prefix"
        );
        // The snapshot state is a FoldedState whose LogApp fold holds the
        // full applied prefix below the cut.
        let snap = durable.store().read_snapshot().unwrap().unwrap();
        let mut buf = bytes::Bytes::from(snap.state.clone());
        let fs = FoldedState::<u64>::decode(&mut buf).unwrap();
        assert_eq!(fs.applied_len, meta.applied_len);
        let pairs = decode_state::<u64>(&fs.app).unwrap();
        assert_eq!(pairs.len() as u64, meta.applied_len);
        assert!(pairs.iter().all(|(_, s)| *s < meta.upto_slot));
        // The folder mirrors the on-disk fold.
        assert_eq!(durable.folder().applied_len(), meta.applied_len);
    }

    #[test]
    fn recovery_rebuilds_fold_plus_tail() {
        // Build a log with snapshots, then recover a fresh replica+folder
        // from the store's recovery image and compare.
        let mut replica = solo_replica(2);
        let mut durable: LogDurable<NoHook> = DurableNode::new(
            MemStore::new(),
            DurableConfig {
                snapshot_every: 8,
                snapshot_tail: 2,
                durable_ack: true,
            },
            Folder::default(),
            NoHook,
        );
        for r in 1..=40u64 {
            replica.submit_all([r * 10, r * 10 + 1]);
            durable.before_round(r, &mut replica);
            drive_round(&mut replica, r);
            durable.after_round(r, &mut replica);
        }
        durable.flush();
        let total_applied = replica.applied_len();
        let total_slots = replica.committed_slots();
        // A MemStore "recovery image": its snapshot and retained records.
        let recovery = {
            let store = durable.store();
            Recovery {
                snapshot: store.read_snapshot().unwrap(),
                records: store.records().to_vec(),
                ..Recovery::default()
            }
        };
        let mut fresh = solo_replica(2);
        let mut folder: Folder<LogApp<u64>> = Folder::default();
        let recovered = recover_replica(&mut fresh, &mut folder, &recovery);
        assert_eq!(recovered.applied, total_applied);
        assert_eq!(fresh.committed_slots(), total_slots);
        assert!(recovered.snapshot_slots > 0 && recovered.replayed_slots > 0);
        // The recovered fold covers the full history: its LogApp equals
        // the original's committed command sequence.
        assert_eq!(folder.applied_len() as usize, total_applied);
        assert_eq!(folder.app().len(), total_applied);
        // The recovered retained suffix matches the original's where they
        // overlap (the folded install retains nothing below its cut,
        // while the original kept a snapshot tail).
        let lo = replica.applied_base().max(fresh.applied_base()) as u64;
        let hi = replica.applied_len().min(fresh.applied_len()) as u64;
        assert!(hi > lo, "suffixes overlap");
        assert_eq!(log_range(&fresh, lo, hi), log_range(&replica, lo, hi));
        assert_eq!(recovered.stranded_slot, None);
    }

    /// `(command, slot)` for the replica's applied commands at absolute
    /// offsets `lo..hi`.
    fn log_range(rep: &BatchingReplica<u64>, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        rep.applied_from(lo)
            .iter()
            .flat_map(|s| s.commands_from(lo).map(|(o, c)| (o, *c, s.slot)))
            .take_while(|&(o, _, _)| o < hi)
            .map(|(_, c, slot)| (c, slot))
            .collect()
    }

    /// A snapshot the app cannot restore leaves the replica at slot 0;
    /// the WAL records above its cut must not replay as slots 0, 1, …
    #[test]
    fn records_above_an_unrestorable_snapshot_are_not_renumbered() {
        let mut replica = solo_replica(2);
        let mut durable: LogDurable<NoHook> = DurableNode::new(
            MemStore::new(),
            DurableConfig {
                snapshot_every: 8,
                snapshot_tail: 2,
                durable_ack: true,
            },
            Folder::default(),
            NoHook,
        );
        for r in 1..=40u64 {
            replica.submit_all([r * 10, r * 10 + 1]);
            durable.before_round(r, &mut replica);
            drive_round(&mut replica, r);
            durable.after_round(r, &mut replica);
        }
        durable.flush();
        let mut recovery = {
            let store = durable.store();
            Recovery {
                snapshot: store.read_snapshot().unwrap(),
                records: store.records().to_vec(),
                ..Recovery::default()
            }
        };
        // The fold decodes, but its app bytes are not a `LogApp` fold.
        let snap = recovery.snapshot.as_mut().expect("a snapshot was taken");
        let cut = snap.meta.upto_slot;
        let mut fs =
            FoldedState::<u64>::decode(&mut bytes::Bytes::from(snap.state.clone())).unwrap();
        fs.app = vec![0xff; 3];
        snap.state = fs.to_bytes().to_vec();
        assert_eq!(recovery.records.first().map(|r| r.0), Some(cut));

        let mut fresh = solo_replica(2);
        let mut folder: Folder<LogApp<u64>> = Folder::default();
        let recovered = recover_replica(&mut fresh, &mut folder, &recovery);
        assert_eq!(recovered.snapshot_slots, 0, "the snapshot did not install");
        assert_eq!(recovered.replayed_slots, 0);
        assert_eq!(recovered.stranded_slot, Some(cut));
        assert_eq!((fresh.committed_slots(), fresh.applied_len()), (0, 0));
        assert_eq!(folder.applied_len(), 0);
    }

    /// A command committed twice — twice inside slot 0, then again in
    /// slot 2 — and another committed again in slot 3 apply once each, in
    /// their first slot. Straight replay, compaction at the cut and a
    /// folded install at the cut all skip them identically, and the fold's
    /// dedup window lists the per-command `(cmd, slot)` log below the cut.
    /// Slots that skip nothing share the committed batch. On every path
    /// `applied_at` reports each command's first slot and its offset in
    /// the log; an installed replica derives the offsets below the cut
    /// from the fold.
    #[test]
    fn a_command_committed_twice_is_skipped_the_same_way_on_every_path() {
        let committed: Vec<Batch<u64>> = [
            vec![1, 2, 2, 3],
            vec![4, 5],
            vec![3, 6],
            vec![5, 7],
            vec![8],
        ]
        .into_iter()
        .map(Batch::new)
        .collect();
        let per_command = [
            (1, 0),
            (2, 0),
            (3, 0),
            (4, 1),
            (5, 1),
            (6, 2),
            (7, 3),
            (8, 4),
        ];
        let mut straight = solo_replica(4);
        for b in &committed {
            straight.replay_committed(b.clone());
        }
        assert_eq!(log_range(&straight, 0, u64::MAX), per_command);
        // Each command's first slot and offset, whichever copy committed.
        let coordinates = |replica: &BatchingReplica<u64>| -> Vec<Option<(u64, u64)>> {
            per_command
                .iter()
                .map(|(cmd, _)| replica.applied_at(cmd))
                .collect()
        };
        let want: Vec<Option<(u64, u64)>> = per_command
            .iter()
            .zip(0u64..)
            .map(|(&(_, slot), offset)| Some((slot, offset)))
            .collect();
        assert_eq!(coordinates(&straight), want);
        let recommitted = |replica: &BatchingReplica<u64>| -> Vec<Option<(u64, u64)>> {
            [2, 3, 5].iter().map(|c| replica.applied_at(c)).collect()
        };
        assert_eq!(
            recommitted(&straight),
            [Some((0, 1)), Some((0, 2)), Some((1, 4))]
        );
        for s in straight.applied_from(0) {
            let shared = std::ptr::eq(
                s.batch.commands().as_ptr(),
                committed[s.slot as usize].commands().as_ptr(),
            );
            assert_eq!(shared, [1, 4].contains(&s.slot), "slot {}", s.slot);
        }

        let mut folder = Folder::<LogApp<u64>>::default();
        folder.absorb(straight.applied_from(0), 2);
        let fs = folder.fold(straight.dedup_horizon());
        assert_eq!(fs.dedup, per_command[..5]);
        assert_eq!(fs.applied_len, 5);

        let mut compacted = solo_replica(4);
        for (slot, b) in committed.iter().enumerate() {
            compacted.replay_committed(b.clone());
            if slot == 2 {
                compacted.compact_below(2);
            }
        }
        assert_eq!(compacted.applied_base(), 5);
        assert_eq!(compacted.applied_from(0), straight.applied_from(5));
        assert_eq!(coordinates(&compacted), want);
        assert_eq!(recommitted(&compacted), recommitted(&straight));

        let mut installed = solo_replica(4);
        assert!(installed.install_folded(&fs.dedup, fs.applied_len, 2));
        let below: Vec<Option<(u64, u64)>> = fs
            .dedup
            .iter()
            .map(|(cmd, _)| installed.applied_at(cmd))
            .collect();
        assert_eq!(below, want[..5], "offsets derived from the fold");
        for b in &committed[2..] {
            installed.replay_committed(b.clone());
        }
        assert_eq!(installed.applied_from(0), straight.applied_from(5));
        assert_eq!(coordinates(&installed), want);
        assert_eq!(recommitted(&installed), recommitted(&straight));

        // A fold whose horizon pruned its window carries a suffix only.
        let mut late = Folder::<LogApp<u64>>::default();
        late.absorb(straight.applied_from(0), 4);
        let fs = late.fold(1);
        assert_eq!(fs.dedup, per_command[6..7]);
        let mut installed = solo_replica(4);
        assert!(installed.install_folded(&fs.dedup, fs.applied_len, 4));
        assert_eq!(installed.applied_at(&7), Some((3, 6)));
        assert_eq!(installed.applied_at(&6), None);
    }

    /// Satellite regression: a laggard request is answered from the
    /// on-disk snapshot whenever one covers it; the fold-synthesis path
    /// runs only when no snapshot exists.
    #[test]
    fn serving_prefers_disk_and_synthesizes_only_without_a_snapshot() {
        // Node with periodic snapshots: after enough rounds a snapshot is
        // on disk, and serving must come from it.
        let mut replica = solo_replica(2);
        let mut durable: LogDurable<NoHook> = DurableNode::new(
            MemStore::new(),
            DurableConfig {
                snapshot_every: 8,
                snapshot_tail: 2,
                durable_ack: true,
            },
            Folder::default(),
            NoHook,
        );
        for r in 1..=40u64 {
            replica.submit_all([r * 2, r * 2 + 1]);
            durable.before_round(r, &mut replica);
            drive_round(&mut replica, r);
            durable.after_round(r, &mut replica);
        }
        durable.flush();
        let disk_cut = durable.store().snapshot_meta().unwrap().upto_slot;
        let manifest = durable.serve_manifest(&replica, 0).expect("serves");
        assert_eq!(manifest.upto_slot, disk_cut, "served the disk snapshot");
        assert_eq!(durable.served_from_disk(), 1);
        assert_eq!(
            durable.served_synthesized(),
            0,
            "no synthesis with a snapshot"
        );
        // Chunks reassemble to exactly the on-disk state.
        let mut state = Vec::new();
        for i in 0..manifest.chunks {
            state.extend(
                durable
                    .serve_chunk(&replica, manifest.upto_slot, i)
                    .unwrap(),
            );
        }
        assert_eq!(gencon_crypto::sha256(&state), manifest.sha256);

        // Node without any snapshot (policy disabled): the same request
        // falls back to synthesis from the uncompacted log.
        let mut replica2 = solo_replica(2);
        let mut memory: LogDurable<NoHook> = DurableNode::new(
            MemStore::new(),
            DurableConfig {
                snapshot_every: 0,
                ..DurableConfig::default()
            },
            Folder::default(),
            NoHook,
        );
        for r in 1..=40u64 {
            replica2.submit_all([r * 2, r * 2 + 1]);
            memory.before_round(r, &mut replica2);
            drive_round(&mut replica2, r);
            memory.after_round(r, &mut replica2);
        }
        let manifest2 = memory.serve_manifest(&replica2, 0).expect("synthesizes");
        assert_eq!(memory.served_from_disk(), 0);
        assert_eq!(memory.served_synthesized(), 1, "synthesis is the fallback");
        assert!(manifest2.upto_slot > 0 && manifest2.consistent());
        // A requester already past the synthesized cut gets silence.
        assert!(memory
            .serve_manifest(&replica2, manifest2.upto_slot)
            .is_none());
    }

    /// Retained older snapshot cuts stay fetchable: a laggard that
    /// started its transfer against an older manifest keeps pulling
    /// chunks after newer cuts land; only cuts past the retention bound
    /// go dark.
    #[test]
    fn older_retained_cut_serves_chunks_after_newer_snapshots() {
        let mut replica = solo_replica(2);
        let mut durable: LogDurable<NoHook> = DurableNode::new(
            MemStore::new(), // retains 2 cuts by default
            DurableConfig {
                snapshot_every: 8,
                snapshot_tail: 2,
                durable_ack: true,
            },
            Folder::default(),
            NoHook,
        );
        for r in 1..=200u64 {
            replica.submit_all([r * 10, r * 10 + 1]);
            durable.before_round(r, &mut replica);
            drive_round(&mut replica, r);
            durable.after_round(r, &mut replica);
        }
        durable.flush();
        assert!(durable.snapshots_taken() > 2, "several cuts were taken");
        let metas = durable.store().snapshot_metas();
        assert_eq!(metas.len(), 2, "retention keeps the last two cuts");
        let (older, newest) = (metas[0], metas[1]);
        assert!(older.upto_slot < newest.upto_slot);
        // Chunks of the *older* cut reassemble to its exact state even
        // though it is no longer the store's primary snapshot.
        let older_snap = durable
            .store()
            .read_snapshot_at(older.upto_slot)
            .unwrap()
            .expect("older cut retained");
        let manifest =
            SnapshotManifest::describe(older.upto_slot, older.applied_len, &older_snap.state);
        let mut state = Vec::new();
        for i in 0..manifest.chunks {
            state.extend(
                durable
                    .serve_chunk(&replica, older.upto_slot, i)
                    .expect("older cut serves"),
            );
        }
        assert_eq!(state, older_snap.state);
        // A cut older than the retention window is gone.
        let pruned = older.upto_slot - (newest.upto_slot - older.upto_slot);
        assert!(durable.serve_chunk(&replica, pruned, 0).is_none());
    }

    #[test]
    fn fast_ack_gate_is_wide_open() {
        let mut replica = solo_replica(4);
        let mut durable: LogDurable<NoHook> = DurableNode::new(
            MemStore::new(),
            DurableConfig {
                durable_ack: false,
                snapshot_every: 0,
                ..DurableConfig::default()
            },
            Folder::default(),
            NoHook,
        );
        let gate = durable.ack_gate();
        replica.submit_all([7u64, 8]);
        for r in 1..=6u64 {
            durable.before_round(r, &mut replica);
            drive_round(&mut replica, r);
            durable.after_round(r, &mut replica);
        }
        assert_eq!(gate.load(Ordering::SeqCst) as usize, replica.applied_len());
    }
}
