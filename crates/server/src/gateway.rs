//! The TCP client gateway: accepts client connections, feeds submissions
//! into the replica, runs the **live application** over the applied log,
//! and acks commands — with the application's reply payload — once they
//! commit.
//!
//! The gateway is a [`NodeHook`] split across three stages:
//!
//! ```text
//!   conn readers ──▶ submissions queue ──▶ ORDER (node event loop)
//!                                              │ applied-log deltas
//!                                              ▼
//!                                           APPLY thread ── replies ──┐
//!                                              │                      ▼
//!                    ORDER ── inflight/retry notes ─────────────▶  ACK thread
//!                                                                     │
//!                                              client sockets ◀───────┘
//! ```
//!
//! * the **order** side (the hook methods, on the node event loop) drains
//!   queued submissions into the replica — applying **backpressure** (the
//!   command is bounced with the observed queue depth instead of being
//!   enqueued) once the pending queue exceeds its limit, and
//!   **redirecting** every submission when the server is configured as a
//!   non-accepting follower — and ships each round's newly applied log
//!   suffix to the apply stage. It never touches a socket and never
//!   fsyncs: consensus rounds are not gated on either;
//! * the **apply** stage walks shipped deltas through the live
//!   [`Applier`] — producing each command's [`App::Reply`] the moment it
//!   flattens — and forwards `(cmd, slot, offset, reply)` entries to the
//!   ack stage. Application is ungated by durability: deterministic
//!   replay carries no durability promise;
//! * the **ack** stage owns all client-visible bookkeeping (inflight
//!   map, pending acks, re-ack index) and the sockets. Under durable-ack
//!   it parks entries until the durable watermark published by the
//!   persist stage passes the command's offset, so an acked command is
//!   one a crash cannot lose.
//!
//! Stage channels are bounded; a full channel blocks the producer (acks
//! are never dropped — blocking *is* the backpressure). Since both
//! producer notes for one command flow through the same ack channel in
//! FIFO order, an inflight note always precedes its commit entry.
//!
//! Two protections keep one client from hurting the rest: ack writes run
//! under a short write timeout (a client that stops reading gets its
//! connection dropped instead of wedging the ack stage), and retried
//! submissions of already-committed commands are re-acked from the
//! gateway's commit index (the replica's dedup would otherwise swallow
//! them silently). After a state-transfer jump the index is seeded from
//! the transferred fold's dedup pairs, so a retry of a command committed
//! *below* the jump is still answered (with its slot; the reply itself
//! was never computed locally and is reported as absent).

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use gencon_app::{App, Applier};
use gencon_metrics::{Counter, Gauge, Histogram, Registry, SloTracker};
use gencon_net::wire_sync::{FoldedState, SnapshotManifest};
use gencon_smr::BatchingReplica;
use gencon_trace::{CmdExemplar, EventKind, FlightRecorder, HashCell, SlowCmdRing, Stage, Tracer};
use gencon_types::{CmdKey, ProcessId};

use crate::node::NodeHook;
use crate::protocol::{read_frame, write_frame, ClientRequest, ClientResponse};

/// Shared writer registry: connection id → writer half of the socket.
type Conns = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// Capacity of the order→apply and →ack stage channels. A full channel
/// blocks the producer: deltas and ack notes are never dropped.
pub const STAGE_QUEUE_CAP: usize = 1024;

/// Ack-stage poll interval: how often the durable watermark is re-read
/// while acks are parked behind it and no messages arrive (the release
/// latency floor under durable-ack). With nothing parked the stage
/// blocks on its channel instead.
const ACK_POLL: std::time::Duration = std::time::Duration::from_micros(500);

/// Retries parked awaiting a commit that hasn't surfaced yet (bounded so
/// a flood of retries for never-committed commands can't grow memory).
const PARKED_RETRIES_CAP: usize = 1024;

/// Gateway tuning.
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// Submissions bounce with [`ClientResponse::Backpressure`] while the
    /// replica's pending queue is at or above this depth.
    pub backpressure_limit: usize,
    /// When set, every submission bounces with
    /// [`ClientResponse::Redirect`] to this process (follower mode).
    pub redirect_to: Option<ProcessId>,
    /// Ack writes block at most this long; a client that stops reading
    /// is disconnected rather than allowed to stall the ack stage.
    pub write_timeout: std::time::Duration,
    /// Commands kept in the re-ack index (retries of already-committed
    /// submissions are answered from it). Oldest entries are evicted
    /// past the cap, bounding gateway memory on a long-running node — a
    /// retry arriving later than this many commits is treated as new,
    /// the same window semantics as the replica's dedup horizon.
    pub reack_index_cap: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            backpressure_limit: 65_536,
            redirect_to: None,
            write_timeout: std::time::Duration::from_millis(500),
            reack_index_cap: 1 << 20,
        }
    }
}

/// Order→apply stage messages.
enum ApplyMsg<A: App> {
    /// Newly flattened `(cmd, slot, offset)` log entries, in offset order.
    Delta(Vec<(A::Cmd, u64, u64)>),
    /// A state transfer replaced the log; restore the live app from the
    /// transferred fold.
    Restore(Box<FoldedState<A::Cmd>>),
    /// Rendezvous: forwarded to the ack stage once every prior delta has
    /// been applied, answered there once every prior ack note is handled.
    Barrier(Sender<()>),
}

/// Notes flowing into the ack stage — from the order side (submission
/// outcomes) and the apply side (commit entries with replies). One
/// channel, FIFO: an `Inflight` note always precedes its `Entry`.
enum AckMsg<A: App> {
    /// A fresh local submission was enqueued: remember who to answer
    /// and when the submit frame was drained (for the e2e latency the
    /// released ack reports).
    Inflight {
        cmd: A::Cmd,
        conn: u64,
        submitted_us: u64,
    },
    /// A command flattened and was applied; ack once durable.
    Entry {
        cmd: A::Cmd,
        slot: u64,
        offset: u64,
        reply: A::Reply,
    },
    /// The replica's dedup swallowed a resubmission. Re-ack from the
    /// commit index, adopt the new connection if the command is still
    /// inflight, bounce with `fallback` if one is given (redirect /
    /// backpressure), else park awaiting the commit surfacing.
    Retry {
        cmd: A::Cmd,
        conn: u64,
        fallback: Option<ClientResponse<A::Cmd, A::Reply>>,
    },
    /// `(cmd, slot)` pairs known committed from a transferred fold's
    /// dedup window — replies were computed on another node and are
    /// unavailable; retries are answered with `reply: None`.
    KnownCommitted(Vec<(A::Cmd, u64)>),
    /// Rendezvous: release everything releasable, then answer.
    Barrier(Sender<()>),
}

/// Per-stage instrumentation (`apply.*` / `ack.*`).
#[derive(Clone)]
struct GatewayMeters {
    applied: Counter,
    /// Depth sampled on every enqueue and dequeue (histogram, so its
    /// p99 is meaningful), plus a last-value gauge for live status.
    apply_depth: Histogram,
    apply_depth_now: Gauge,
    acked: Counter,
    reacks: Counter,
    parked: Counter,
    dropped: Counter,
    bounced_backpressure: Counter,
    bounced_redirect: Counter,
}

impl GatewayMeters {
    fn new(reg: &Registry) -> GatewayMeters {
        GatewayMeters {
            applied: reg.counter("apply.applied"),
            apply_depth: reg.histogram("apply.queue_depth"),
            apply_depth_now: reg.gauge("apply.queue_depth_now"),
            acked: reg.counter("ack.acked"),
            reacks: reg.counter("ack.reacks"),
            parked: reg.counter("ack.parked"),
            dropped: reg.counter("ack.dropped"),
            bounced_backpressure: reg.counter("ack.bounced_backpressure"),
            bounced_redirect: reg.counter("ack.bounced_redirect"),
        }
    }
}

/// Handles + channels of the spawned apply/ack stages.
struct GatewayStages<A: App> {
    apply_tx: Sender<ApplyMsg<A>>,
    ack_tx: Sender<AckMsg<A>>,
    apply_handle: std::thread::JoinHandle<()>,
    ack_handle: std::thread::JoinHandle<()>,
}

/// The client-facing service half of a `gencon-server` node, running
/// application `A` over the replicated log.
pub struct ClientGateway<A: App> {
    submissions: Receiver<(u64, A::Cmd)>,
    conns: Conns,
    /// The live application, owned by the apply stage once spawned. The
    /// order side only locks it at spawn (cursor seed) and on behalf of
    /// [`applier`](ClientGateway::applier) callers.
    applier: Arc<Mutex<Applier<A>>>,
    /// Absolute log offset up to which deltas have been shipped to the
    /// apply stage.
    applied_seen: u64,
    /// Apply/ack stage threads, spawned lazily on the first hook call
    /// (so builders like [`with_applier`](ClientGateway::with_applier)
    /// run before any stage captures state).
    stages: Option<GatewayStages<A>>,
    /// Submissions bounced (backpressure or redirect) so far.
    bounced: Arc<AtomicU64>,
    /// Parked acks dropped because the pending queue hit its bound (a
    /// persistently stalled durable gate — e.g. a failing disk — must
    /// not grow memory without limit; the dropped commands are committed
    /// and safe, their clients just never hear back, exactly as under a
    /// stalled gate in general).
    acks_dropped: Arc<AtomicU64>,
    /// Mirror of the ack stage's inflight-map size.
    inflight_count: Arc<AtomicUsize>,
    /// Durable-ack watermark: when set, commands at absolute log offsets
    /// at or past the gate are **applied but not acked** yet — their
    /// batch is not fsynced/snapshotted (see
    /// [`DurableNode`](crate::DurableNode)). Acks resume as the gate
    /// advances.
    ack_gate: Option<Arc<AtomicU64>>,
    /// `(cell, every)`: publish the live app's state hash into `cell` at
    /// applied-count multiples of `every` (the memory-mode audit trail;
    /// durable nodes publish from the snapshot fold instead).
    hash_cell: Option<(HashCell, u64)>,
    /// Classifies each released ack's e2e latency against the SLO
    /// budget (`--slo-p99-us`).
    slo: Option<SloTracker>,
    /// Retains top-K-by-e2e exemplars for the admin `slowest` command.
    slow_ring: Option<SlowCmdRing>,
    /// Fallback submit-timestamp clock when no tracer is installed
    /// (`Tracer::now_us` is 0 when disabled; e2e still needs a clock).
    epoch: std::time::Instant,
    meters: GatewayMeters,
    tracer: Tracer,
    cfg: GatewayConfig,
    local_addr: SocketAddr,
}

impl<A: App> ClientGateway<A> {
    /// Binds `addr` and starts accepting client connections.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind error.
    pub fn listen(addr: SocketAddr, cfg: GatewayConfig) -> std::io::Result<ClientGateway<A>> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let conns: Conns = Arc::new(Mutex::new(HashMap::new()));
        let (tx, rx) = channel::unbounded();

        let acceptor_conns = Arc::clone(&conns);
        std::thread::spawn(move || {
            let mut next_id: u64 = 0;
            loop {
                let Ok((stream, peer)) = listener.accept() else {
                    return;
                };
                if std::env::var_os("GENCON_NODE_DEBUG").is_some() {
                    eprintln!(
                        "[gateway {}] accepted conn {next_id} from {peer}",
                        stream
                            .local_addr()
                            .map_or_else(|_| "?".into(), |a| a.to_string())
                    );
                }
                stream.set_nodelay(true).ok();
                let conn_id = next_id;
                next_id += 1;
                let Ok(writer) = stream.try_clone() else {
                    continue;
                };
                writer.set_write_timeout(Some(cfg.write_timeout)).ok();
                acceptor_conns.lock().insert(conn_id, writer);
                let tx = tx.clone();
                let reader_conns = Arc::clone(&acceptor_conns);
                std::thread::spawn(move || {
                    conn_reader::<A>(conn_id, stream, &tx);
                    reader_conns.lock().remove(&conn_id);
                });
            }
        });

        Ok(ClientGateway {
            submissions: rx,
            conns,
            applier: Arc::new(Mutex::new(Applier::default())),
            applied_seen: 0,
            stages: None,
            bounced: Arc::new(AtomicU64::new(0)),
            acks_dropped: Arc::new(AtomicU64::new(0)),
            inflight_count: Arc::new(AtomicUsize::new(0)),
            ack_gate: None,
            hash_cell: None,
            slo: None,
            slow_ring: None,
            epoch: std::time::Instant::now(),
            meters: GatewayMeters::new(&Registry::new()),
            tracer: Tracer::disabled(),
            cfg,
            local_addr,
        })
    }

    /// Installs the durable-ack watermark (see
    /// [`DurableNode::ack_gate`](crate::DurableNode::ack_gate)): acks are
    /// held back until the command's absolute log offset falls below the
    /// gate. Application of commands is *not* gated — replies are simply
    /// parked until durable.
    #[must_use]
    pub fn with_ack_gate(mut self, gate: Arc<AtomicU64>) -> ClientGateway<A> {
        self.ack_gate = Some(gate);
        self
    }

    /// Replaces the live applier — the recovery path: after
    /// [`recover_replica`](crate::recover_replica), seed the gateway with
    /// an applier resumed from the recovered fold so replies and state
    /// hashes continue where the previous process left off. Must run
    /// before the first round (the apply stage seeds its shipping cursor
    /// from the applier when it spawns).
    #[must_use]
    pub fn with_applier(mut self, applier: Applier<A>) -> ClientGateway<A> {
        self.applier = Arc::new(Mutex::new(applier));
        self
    }

    /// Registers the gateway's per-stage meters (`apply.*`, `ack.*`) in
    /// `reg`. Must run before the first round — the stage threads capture
    /// their meter handles when they spawn.
    #[must_use]
    pub fn with_metrics(mut self, reg: &Registry) -> ClientGateway<A> {
        self.meters = GatewayMeters::new(reg);
        self
    }

    /// Records the apply/ack slot lifecycle (`apply_queued`, `applied`,
    /// `acked` events) into `recorder` — pass the same recorder as the
    /// node and durable layers so per-slot spans assemble across all
    /// stages. Must run before the first round, like
    /// [`with_metrics`](ClientGateway::with_metrics).
    #[must_use]
    pub fn with_trace(mut self, recorder: FlightRecorder) -> ClientGateway<A> {
        self.tracer = Tracer::new(Some(recorder));
        self
    }

    /// Installs an SLO tracker: every released ack's end-to-end latency
    /// (submit-frame drain → reply released) is classified against the
    /// tracker's budget into the `slo.good`/`slo.bad` registry counters.
    /// Must run before the first round, like
    /// [`with_metrics`](ClientGateway::with_metrics).
    #[must_use]
    pub fn with_slo(mut self, slo: SloTracker) -> ClientGateway<A> {
        self.slo = Some(slo);
        self
    }

    /// Installs the slow-command exemplar ring: each released ack's
    /// `(cmd, e2e, slot)` is offered to `ring`, which keeps the top-K
    /// by e2e for the admin `slowest` command. Share the same ring with
    /// the admin endpoint. Must run before the first round, like
    /// [`with_metrics`](ClientGateway::with_metrics).
    #[must_use]
    pub fn with_slow_ring(mut self, ring: SlowCmdRing) -> ClientGateway<A> {
        self.slow_ring = Some(ring);
        self
    }

    /// Publishes the live app's `(applied count, state hash)` into
    /// `cell` whenever the applied count reaches a multiple of `every`
    /// (0 disables). Memory-mode nodes use this for the admin `hash`
    /// command; durable nodes publish from the snapshot-boundary fold
    /// instead — wire exactly one publisher per node. Must run before
    /// the first round, like [`with_metrics`](ClientGateway::with_metrics).
    #[must_use]
    pub fn with_hash_cell(mut self, cell: HashCell, every: u64) -> ClientGateway<A> {
        self.hash_cell = (every > 0).then_some((cell, every));
        self
    }

    /// The live applier (cursor, app state, captured hash). Shared with
    /// the apply stage — don't hold the guard across waits; call
    /// [`drain`](ClientGateway::drain) first for a quiesced view.
    pub fn applier(&self) -> parking_lot::MutexGuard<'_, Applier<A>> {
        self.applier.lock()
    }

    /// The address the gateway actually bound (resolves `:0` port probes).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Commands submitted locally and not yet committed.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight_count.load(Ordering::Relaxed)
    }

    /// Submissions bounced so far (backpressure or redirect).
    #[must_use]
    pub fn bounced(&self) -> u64 {
        self.bounced.load(Ordering::Relaxed)
    }

    /// Parked acks dropped at the pending-queue bound (only a stalled
    /// durable gate can make this nonzero).
    #[must_use]
    pub fn acks_dropped(&self) -> u64 {
        self.acks_dropped.load(Ordering::Relaxed)
    }

    /// Submissions bounced with `Backpressure` so far.
    #[must_use]
    pub fn bounced_backpressure(&self) -> u64 {
        self.meters.bounced_backpressure.get()
    }

    /// Submissions bounced with `Redirect` so far.
    #[must_use]
    pub fn bounced_redirect(&self) -> u64 {
        self.meters.bounced_redirect.get()
    }

    /// The submit-timestamp clock: the tracer's recorder clock when
    /// tracing (so stamps and spans share a timebase), else a private
    /// epoch. Both ends of an e2e measurement use the same source.
    fn stamp_us(&self) -> u64 {
        if self.tracer.enabled() {
            self.tracer.now_us()
        } else {
            self.epoch.elapsed().as_micros() as u64
        }
    }

    /// Blocks until every delta and ack note shipped so far has been
    /// processed and every releasable ack has been written — the
    /// shutdown/rendezvous barrier ([`NodeHook::finish`] calls it, tests
    /// use it before asserting on applier or ack state).
    pub fn drain(&mut self) {
        let Some(stages) = &self.stages else {
            return;
        };
        let (done_tx, done_rx) = channel::unbounded();
        if stages.apply_tx.send(ApplyMsg::Barrier(done_tx)).is_ok() {
            let _ = done_rx.recv();
        }
    }

    /// Spawns the apply + ack stage threads on first use.
    fn ensure_stages(&mut self) {
        if self.stages.is_some() {
            return;
        }
        // The applier's cursor is the ship-from point: after recovery it
        // already covers the recovered prefix (fold + replayed tail).
        self.applied_seen = self.applier.lock().cursor();
        let (apply_tx, apply_rx) = channel::bounded(STAGE_QUEUE_CAP);
        let (ack_tx, ack_rx) = channel::bounded(STAGE_QUEUE_CAP);

        let applier = Arc::clone(&self.applier);
        let apply_ack_tx = ack_tx.clone();
        let apply_meters = self.meters.clone();
        let apply_tracer = self.tracer.clone();
        let apply_hash = self.hash_cell.clone();
        let apply_handle = std::thread::spawn(move || {
            apply_loop::<A>(
                &applier,
                &apply_rx,
                &apply_ack_tx,
                &apply_meters,
                &apply_tracer,
                apply_hash.as_ref(),
            );
        });

        let state = AckState::<A> {
            conns: Arc::clone(&self.conns),
            cfg: self.cfg,
            gate: self.ack_gate.clone(),
            inflight: HashMap::new(),
            pending: VecDeque::new(),
            index: HashMap::new(),
            index_order: VecDeque::new(),
            parked: HashMap::new(),
            bounced: Arc::clone(&self.bounced),
            acks_dropped: Arc::clone(&self.acks_dropped),
            inflight_count: Arc::clone(&self.inflight_count),
            slo: self.slo.clone(),
            slow: self.slow_ring.clone(),
            epoch: self.epoch,
            m: self.meters.clone(),
            t: self.tracer.clone(),
        };
        let ack_handle = std::thread::spawn(move || state.run(&ack_rx));

        self.stages = Some(GatewayStages {
            apply_tx,
            ack_tx,
            apply_handle,
            ack_handle,
        });
    }

    /// Ships to the apply stage, blocking when the channel is full.
    fn ship_apply(&self, msg: ApplyMsg<A>) {
        if let Some(stages) = &self.stages {
            let _ = stages.apply_tx.send(msg);
        }
    }

    /// Ships to the ack stage, blocking when the channel is full.
    fn ship_ack(&self, msg: AckMsg<A>) {
        if let Some(stages) = &self.stages {
            let _ = stages.ack_tx.send(msg);
        }
    }
}

impl<A: App> Drop for ClientGateway<A> {
    fn drop(&mut self) {
        if let Some(stages) = self.stages.take() {
            let GatewayStages {
                apply_tx,
                ack_tx,
                apply_handle,
                ack_handle,
            } = stages;
            // Closing the senders lets both loops observe disconnect;
            // the apply thread's ack sender clone drops when it exits.
            drop(apply_tx);
            drop(ack_tx);
            let _ = apply_handle.join();
            let _ = ack_handle.join();
        }
    }
}

/// Reads `Submit` frames off one client connection until EOF/error.
fn conn_reader<A: App>(conn_id: u64, mut stream: TcpStream, tx: &Sender<(u64, A::Cmd)>) {
    loop {
        match read_frame::<_, ClientRequest<A::Cmd>>(&mut stream) {
            Ok(ClientRequest::Submit { cmd }) => {
                if tx.send((conn_id, cmd)).is_err() {
                    return; // node loop gone: shutting down
                }
            }
            Err(e) => {
                if std::env::var_os("GENCON_NODE_DEBUG").is_some() {
                    eprintln!("[gateway] conn {conn_id} reader exit: {e}");
                }
                return; // disconnect or protocol violation
            }
        }
    }
}

/// The apply stage: walks shipped deltas through the live applier and
/// forwards each entry — with its computed reply — to the ack stage.
fn apply_loop<A: App>(
    applier: &Mutex<Applier<A>>,
    rx: &Receiver<ApplyMsg<A>>,
    ack_tx: &Sender<AckMsg<A>>,
    m: &GatewayMeters,
    t: &Tracer,
    hash: Option<&(HashCell, u64)>,
) {
    // Publish `(applied, state_hash)` at exact applied-count multiples
    // of `every` — every node then publishes for the same counts, which
    // is what makes the pairs comparable across the cluster.
    let maybe_publish = |applier: &Applier<A>| {
        if let Some((cell, every)) = hash {
            let cursor = applier.cursor();
            if cursor > 0 && cursor.is_multiple_of(*every) {
                cell.publish(cursor, applier.app().state_hash());
            }
        }
    };
    while let Ok(msg) = rx.recv() {
        m.apply_depth.record(rx.len() as u64);
        m.apply_depth_now.set(rx.len() as u64);
        match msg {
            ApplyMsg::Delta(entries) => {
                let mut applier = applier.lock();
                let mut last_traced_slot = u64::MAX;
                for (cmd, slot, offset) in entries {
                    let svc_start = t.now_us();
                    let reply = applier.apply(slot, &cmd);
                    maybe_publish(&applier);
                    m.applied.inc();
                    // One `applied` event per slot (the first command's
                    // service time stands in for the slot).
                    if t.enabled() && slot != last_traced_slot {
                        last_traced_slot = slot;
                        t.rec(
                            Stage::Apply,
                            EventKind::Applied,
                            slot,
                            t.now_us().saturating_sub(svc_start),
                        );
                    }
                    if ack_tx
                        .send(AckMsg::Entry {
                            cmd,
                            slot,
                            offset,
                            reply,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
            }
            ApplyMsg::Restore(fs) => {
                let mut applier = applier.lock();
                if let Err(e) = applier.restore(&fs) {
                    eprintln!("[gateway] live app restore failed: {e}");
                } else {
                    // A restore that lands exactly on a boundary stands
                    // in for the applies it skipped.
                    maybe_publish(&applier);
                }
            }
            ApplyMsg::Barrier(done) => {
                let _ = ack_tx.send(AckMsg::Barrier(done));
            }
        }
    }
}

/// Commit coordinates (`slot`, `offset`) and the reply (if computed
/// locally) kept per command for re-acking retries.
type ReackIndex<A> = HashMap<<A as App>::Cmd, (u64, u64, Option<<A as App>::Reply>)>;

/// An applied-but-unacked entry: `(cmd, slot, offset, reply, enq_us)`.
type PendingAck<A> = (<A as App>::Cmd, u64, u64, <A as App>::Reply, u64);

/// The ack stage's working state: owns the sockets and every piece of
/// client-visible bookkeeping.
struct AckState<A: App> {
    conns: Conns,
    cfg: GatewayConfig,
    gate: Option<Arc<AtomicU64>>,
    /// Locally submitted, not yet acked: command →
    /// `(connection, submit timestamp)`.
    inflight: HashMap<A::Cmd, (u64, u64)>,
    /// Applied but not yet acked `(cmd, slot, offset, reply, enq_us)` —
    /// drained in offset order as the durable watermark advances
    /// (immediately, without a gate). `enq_us` is the tracer timestamp
    /// at arrival, so the released `acked` event carries the gate-wait.
    pending: VecDeque<PendingAck<A>>,
    /// Commit coordinates and replies of recently acked commands, for
    /// re-acking client retries of already-committed submissions. The
    /// reply is `None` for commands learned via state transfer (their
    /// replies were computed on another node). Bounded by
    /// [`GatewayConfig::reack_index_cap`]; `index_order` is the eviction
    /// FIFO.
    index: ReackIndex<A>,
    index_order: VecDeque<A::Cmd>,
    /// Retries of commands neither committed nor locally inflight —
    /// typically committed below a state-transfer jump — parked until a
    /// `KnownCommitted` or released `Entry` surfaces them.
    parked: HashMap<A::Cmd, Vec<u64>>,
    bounced: Arc<AtomicU64>,
    acks_dropped: Arc<AtomicU64>,
    inflight_count: Arc<AtomicUsize>,
    slo: Option<SloTracker>,
    slow: Option<SlowCmdRing>,
    /// Same fallback clock as the order side's submit stamps.
    epoch: std::time::Instant,
    m: GatewayMeters,
    t: Tracer,
}

impl<A: App> AckState<A> {
    fn run(mut self, rx: &Receiver<AckMsg<A>>) {
        loop {
            let msg = if self.pending.is_empty() {
                rx.recv()
            } else {
                rx.recv_timeout(ACK_POLL)
            };
            match msg {
                Ok(msg) => self.handle(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    self.release();
                    return;
                }
            }
            self.release();
        }
    }

    fn handle(&mut self, msg: AckMsg<A>) {
        match msg {
            AckMsg::Inflight {
                cmd,
                conn,
                submitted_us,
            } => {
                if self.reack(&cmd, conn) {
                    return; // raced past its own commit (belt & braces)
                }
                if self.inflight.insert(cmd, (conn, submitted_us)).is_none() {
                    self.inflight_count.fetch_add(1, Ordering::Relaxed);
                }
            }
            AckMsg::Entry {
                cmd,
                slot,
                offset,
                reply,
            } => {
                self.pending
                    .push_back((cmd, slot, offset, reply, self.t.now_us()));
                // Bound the parked acks: under a healthy gate the queue
                // drains every group-commit window, but a gate that
                // stops advancing (failing disk) must not grow memory
                // with throughput forever. The *newest* entries are
                // dropped — the oldest are the next to become durable.
                // A dropped command is still committed, and its
                // coordinates go straight into the (equally bounded)
                // re-ack index so a client retry after the gate recovers
                // gets answered instead of being swallowed by the
                // replica's dedup.
                while self.pending.len() > self.cfg.reack_index_cap {
                    let (cmd, slot, offset, reply, _) = self.pending.pop_back().expect("over cap");
                    self.acks_dropped.fetch_add(1, Ordering::Relaxed);
                    self.m.dropped.inc();
                    self.index_committed(cmd, slot, offset, Some(reply));
                }
            }
            AckMsg::Retry {
                cmd,
                conn,
                fallback,
            } => {
                if self.reack(&cmd, conn) {
                    return;
                }
                if let Some((owner, _)) = self.inflight.get_mut(&cmd) {
                    // Still awaiting its commit: the newest connection
                    // wins the eventual ack.
                    *owner = conn;
                    return;
                }
                if let Some(resp) = fallback {
                    self.bounced.fetch_add(1, Ordering::Relaxed);
                    let kind = match &resp {
                        ClientResponse::Redirect { .. } => 1,
                        _ => 0,
                    };
                    if kind == 1 {
                        self.m.bounced_redirect.inc();
                    } else {
                        self.m.bounced_backpressure.inc();
                    }
                    self.t
                        .rec(Stage::Ack, EventKind::Bounced, cmd.cmd_key(), kind);
                    self.respond(conn, &resp);
                    return;
                }
                // Dedup-swallowed but not answerable yet: committed below
                // a state-transfer jump (the KnownCommitted note is in
                // flight) or committed remotely and not yet released.
                if self.parked.len() < PARKED_RETRIES_CAP {
                    self.parked.entry(cmd).or_default().push(conn);
                    self.m.parked.inc();
                }
            }
            AckMsg::KnownCommitted(pairs) => {
                for (cmd, slot) in pairs {
                    // The transferred fold knows the commit slot but not
                    // the reply — don't clobber a richer local entry.
                    if !self.index.contains_key(&cmd) {
                        self.index_committed(cmd.clone(), slot, 0, None);
                    }
                    if let Some(waiters) = self.parked.remove(&cmd) {
                        let (slot, offset, reply) = self.index[&cmd].clone();
                        for conn in waiters {
                            self.respond(
                                conn,
                                &ClientResponse::Committed {
                                    cmd: cmd.clone(),
                                    slot,
                                    offset,
                                    reply: reply.clone(),
                                },
                            );
                            self.m.reacks.inc();
                        }
                    }
                }
            }
            AckMsg::Barrier(done) => {
                self.release();
                let _ = done.send(());
            }
        }
    }

    /// Releases pending acks in offset order up to the durable watermark
    /// (everything, when no gate is installed).
    fn release(&mut self) {
        let gate = self
            .gate
            .as_ref()
            .map_or(u64::MAX, |g| g.load(Ordering::SeqCst));
        while self
            .pending
            .front()
            .is_some_and(|(_, _, offset, _, _)| *offset < gate)
        {
            let (cmd, slot, offset, reply, enq_us) =
                self.pending.pop_front().expect("front exists");
            // The gate-wait (time parked behind the durable watermark) is
            // the ack event's detail; the span assembler reports it as
            // `ack_gate_us`.
            self.t.rec(
                Stage::Ack,
                EventKind::Acked,
                slot,
                self.t.now_us().saturating_sub(enq_us),
            );
            self.index_committed(cmd.clone(), slot, offset, Some(reply.clone()));
            if let Some((conn, submitted_us)) = self.inflight.remove(&cmd) {
                self.inflight_count.fetch_sub(1, Ordering::Relaxed);
                // The locally submitted command's full story: stamp the
                // ack (detail = decided slot, the join key into slot
                // spans), classify the e2e against the SLO budget, and
                // offer it to the slow-command exemplar ring.
                let now = if self.t.enabled() {
                    self.t.now_us()
                } else {
                    self.epoch.elapsed().as_micros() as u64
                };
                let e2e = now.saturating_sub(submitted_us);
                self.t
                    .rec(Stage::Ack, EventKind::CmdAcked, cmd.cmd_key(), slot);
                if let Some(slo) = &self.slo {
                    slo.observe(e2e);
                }
                if let Some(ring) = &self.slow {
                    ring.offer(CmdExemplar {
                        cmd: cmd.cmd_key(),
                        e2e_us: e2e,
                        slot,
                        submitted_ts_us: submitted_us,
                        relay_hops: 0,
                    });
                }
                self.respond(
                    conn,
                    &ClientResponse::Committed {
                        cmd: cmd.clone(),
                        slot,
                        offset,
                        reply: Some(reply.clone()),
                    },
                );
                self.m.acked.inc();
            }
            if let Some(waiters) = self.parked.remove(&cmd) {
                for conn in waiters {
                    self.respond(
                        conn,
                        &ClientResponse::Committed {
                            cmd: cmd.clone(),
                            slot,
                            offset,
                            reply: Some(reply.clone()),
                        },
                    );
                    self.m.reacks.inc();
                }
            }
        }
    }

    /// Answers `conn` from the commit index; `false` if the command
    /// isn't indexed.
    fn reack(&mut self, cmd: &A::Cmd, conn: u64) -> bool {
        let Some((slot, offset, reply)) = self.index.get(cmd).cloned() else {
            return false;
        };
        self.respond(
            conn,
            &ClientResponse::Committed {
                cmd: cmd.clone(),
                slot,
                offset,
                reply,
            },
        );
        self.m.reacks.inc();
        true
    }

    /// Records a committed command's coordinates + reply for re-acking
    /// retries, evicting the oldest entries past the cap.
    fn index_committed(&mut self, cmd: A::Cmd, slot: u64, offset: u64, reply: Option<A::Reply>) {
        if self
            .index
            .insert(cmd.clone(), (slot, offset, reply))
            .is_none()
        {
            self.index_order.push_back(cmd);
        }
        while self.index_order.len() > self.cfg.reack_index_cap {
            if let Some(old) = self.index_order.pop_front() {
                self.index.remove(&old);
            }
        }
    }

    fn respond(&self, conn_id: u64, resp: &ClientResponse<A::Cmd, A::Reply>) {
        let mut conns = self.conns.lock();
        let Some(stream) = conns.get_mut(&conn_id) else {
            return; // client went away; the commit stands regardless
        };
        if let Err(e) = write_frame(stream, resp).and_then(|()| stream.flush()) {
            if std::env::var_os("GENCON_NODE_DEBUG").is_some() {
                eprintln!("[gateway] respond to conn {conn_id} failed: {e}");
            }
            conns.remove(&conn_id);
        }
    }
}

impl<A: App> NodeHook<A::Cmd> for ClientGateway<A> {
    fn before_round(&mut self, _round: u64, replica: &mut BatchingReplica<A::Cmd>) {
        self.ensure_stages();
        while let Ok((conn_id, cmd)) = self.submissions.try_recv() {
            // The submit stamp covers every arrival — bounced commands
            // trace too (their span ends at the `bounced` event).
            let submitted_us = self.stamp_us();
            if self.tracer.enabled() {
                self.tracer
                    .rec(Stage::Ingest, EventKind::Submitted, cmd.cmd_key(), conn_id);
            }
            if let Some(to) = self.cfg.redirect_to {
                // The ack stage checks its commit index before bouncing:
                // a retry of a committed command is re-acked, not
                // redirected.
                self.ship_ack(AckMsg::Retry {
                    cmd: cmd.clone(),
                    conn: conn_id,
                    fallback: Some(ClientResponse::Redirect { cmd, to }),
                });
                continue;
            }
            if replica.queued() >= self.cfg.backpressure_limit {
                let queued = replica.queued() as u64;
                self.ship_ack(AckMsg::Retry {
                    cmd: cmd.clone(),
                    conn: conn_id,
                    fallback: Some(ClientResponse::Backpressure { cmd, queued }),
                });
                continue;
            }
            if replica.submit(cmd.clone()) {
                if self.tracer.enabled() {
                    self.tracer.rec(
                        Stage::Ingest,
                        EventKind::CmdQueued,
                        cmd.cmd_key(),
                        replica.queued() as u64,
                    );
                }
                self.ship_ack(AckMsg::Inflight {
                    cmd,
                    conn: conn_id,
                    submitted_us,
                });
            } else {
                // Dedup-swallowed: already committed (re-ack from the
                // index), still inflight (adopt the new connection), or
                // committed below a transfer jump (park).
                self.ship_ack(AckMsg::Retry {
                    cmd,
                    conn: conn_id,
                    fallback: None,
                });
            }
        }
    }

    fn after_round(&mut self, _round: u64, replica: &mut BatchingReplica<A::Cmd>) {
        self.ensure_stages();
        let base = replica.applied_base() as u64;
        let limit = replica.applied_len() as u64;
        if self.applied_seen < base {
            // Compaction can't outrun the local applier in practice;
            // clamp defensively so indexing below never underflows.
            self.applied_seen = base;
        }
        if self.applied_seen < limit {
            let applied = replica.applied();
            let slots = replica.applied_slots();
            let delta: Vec<(A::Cmd, u64, u64)> = (self.applied_seen..limit)
                .map(|offset| {
                    let i = (offset - base) as usize;
                    (applied[i].clone(), slots[i], offset)
                })
                .collect();
            self.applied_seen = limit;
            if self.tracer.enabled() {
                let depth = self.stages.as_ref().map_or(0, |s| s.apply_tx.len() as u64);
                let mut last = u64::MAX;
                for &(_, slot, _) in &delta {
                    if slot != last {
                        last = slot;
                        self.tracer
                            .rec(Stage::Apply, EventKind::ApplyQueued, slot, depth);
                    }
                }
            }
            self.ship_apply(ApplyMsg::Delta(delta));
        }
        if let Some(stages) = &self.stages {
            let depth = stages.apply_tx.len() as u64;
            self.meters.apply_depth.record(depth);
            self.meters.apply_depth_now.set(depth);
        }
    }

    fn snapshot_installed(
        &mut self,
        _manifest: &SnapshotManifest,
        _state: &[u8],
        fs: &FoldedState<A::Cmd>,
        _replica: &mut BatchingReplica<A::Cmd>,
    ) {
        self.ensure_stages();
        // A state transfer replaced the replica's log wholesale; restore
        // the live app from the transferred fold and fast-forward the
        // shipping cursor past the jump. Pending acks for offsets below
        // the fold were produced before the jump and stay answerable
        // (their replies were computed at apply time). The fold's dedup
        // window seeds the re-ack index so retries of commands committed
        // below the jump are answered instead of parked forever.
        self.applied_seen = self.applied_seen.max(fs.applied_len);
        self.ship_apply(ApplyMsg::Restore(Box::new(fs.clone())));
        self.ship_ack(AckMsg::KnownCommitted(fs.dedup.clone()));
    }

    fn finish(&mut self, _replica: &mut BatchingReplica<A::Cmd>) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_algos::paxos;
    use gencon_app::{KvApp, KvCmd, KvOp, KvReply, LogApp};
    use gencon_smr::Batch;

    fn test_replica(cap: usize) -> BatchingReplica<u64> {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        BatchingReplica::new(ProcessId::new(0), spec.params.clone(), cap, usize::MAX).unwrap()
    }

    fn connect_and_submit(addr: SocketAddr, cmds: &[u64]) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        for &cmd in cmds {
            write_frame(&mut stream, &ClientRequest::Submit { cmd }).unwrap();
        }
        stream
    }

    fn drain_submissions(gw: &mut ClientGateway<LogApp<u64>>, replica: &mut BatchingReplica<u64>) {
        // Connection readers and the ack stage run on their own threads;
        // poll briefly.
        for _ in 0..100 {
            gw.before_round(1, replica);
            gw.drain();
            if replica.queued() + gw.inflight() > 0 || gw.bounced() > 0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn submissions_reach_the_replica() {
        let mut gw = ClientGateway::<LogApp<u64>>::listen(
            "127.0.0.1:0".parse().unwrap(),
            GatewayConfig::default(),
        )
        .unwrap();
        let mut replica = test_replica(8);
        let _conn = connect_and_submit(gw.local_addr(), &[11, 22]);
        for _ in 0..100 {
            gw.before_round(1, &mut replica);
            if replica.queued() == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(replica.queued(), 2);
        gw.drain();
        assert_eq!(gw.inflight(), 2);
    }

    #[test]
    fn backpressure_bounces_instead_of_queueing() {
        let mut gw = ClientGateway::<LogApp<u64>>::listen(
            "127.0.0.1:0".parse().unwrap(),
            GatewayConfig {
                backpressure_limit: 0,
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let mut replica = test_replica(8);
        let mut conn = connect_and_submit(gw.local_addr(), &[33]);
        drain_submissions(&mut gw, &mut replica);
        let resp: ClientResponse<u64> = read_frame(&mut conn).unwrap();
        assert_eq!(resp, ClientResponse::Backpressure { cmd: 33, queued: 0 });
        assert_eq!(replica.queued(), 0);
        gw.drain();
        assert_eq!(gw.inflight(), 0);
    }

    /// A client retry of an already-committed command must be re-acked
    /// from the commit index — the replica's dedup swallows the
    /// resubmission, so without the index the client would hang forever.
    #[test]
    fn retry_of_committed_command_is_reacked_with_its_reply() {
        use gencon_rounds::{HeardOf, Outgoing, RoundProcess};
        use gencon_types::Round;

        let mut gw = ClientGateway::<LogApp<u64>>::listen(
            "127.0.0.1:0".parse().unwrap(),
            GatewayConfig::default(),
        )
        .unwrap();
        // A single-replica log (Paxos n = 1): commits without peers when
        // driven by hand, which is all this unit test needs.
        let spec = paxos::<Batch<u64>>(1, 0, ProcessId::new(0)).unwrap();
        let mut replica =
            BatchingReplica::new(ProcessId::new(0), spec.params.clone(), 4, usize::MAX).unwrap();

        let mut conn = connect_and_submit(gw.local_addr(), &[77]);
        drain_submissions(&mut gw, &mut replica);
        assert_eq!(replica.queued(), 1, "submission reached the replica");
        for round in 1..=20u64 {
            let r = Round::new(round);
            gw.before_round(round, &mut replica);
            let out = replica.send(r);
            let mut heard: HeardOf<_> = HeardOf::empty(1);
            if let Outgoing::Broadcast(m) = out {
                heard.put(ProcessId::new(0), m);
            }
            replica.receive(r, &heard);
            gw.after_round(round, &mut replica);
            if !replica.applied().is_empty() {
                break;
            }
        }
        assert_eq!(replica.applied(), &[77], "single-replica log commits");
        let first: ClientResponse<u64> = read_frame(&mut conn).unwrap();
        let ClientResponse::Committed {
            cmd, slot, offset, ..
        } = first
        else {
            panic!("expected a commit ack, got {first:?}");
        };
        assert_eq!((cmd, offset), (77, 0));

        // The retry: the replica dedups it, but the gateway re-acks with
        // the same coordinates. Poll before_round until the retry has
        // drained through the connection reader and been answered.
        write_frame(&mut conn, &ClientRequest::Submit { cmd: 77u64 }).unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_millis(20)))
            .unwrap();
        let mut reack = None;
        for _ in 0..200 {
            gw.before_round(100, &mut replica);
            if let Ok(resp) = read_frame::<_, ClientResponse<u64>>(&mut conn) {
                reack = Some(resp);
                break;
            }
        }
        let reack = reack.expect("retry re-acked within the polling budget");
        assert_eq!(
            reack,
            ClientResponse::Committed {
                cmd: 77,
                slot,
                offset: 0,
                reply: Some(0),
            }
        );
        assert_eq!(replica.applied(), &[77], "no duplicate apply");
        gw.drain();
        assert_eq!(gw.applier().cursor(), 1, "the live app applied it once");
    }

    #[test]
    fn follower_mode_redirects() {
        let mut gw = ClientGateway::<LogApp<u64>>::listen(
            "127.0.0.1:0".parse().unwrap(),
            GatewayConfig {
                redirect_to: Some(ProcessId::new(0)),
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let mut replica = test_replica(8);
        let mut conn = connect_and_submit(gw.local_addr(), &[44]);
        drain_submissions(&mut gw, &mut replica);
        let resp: ClientResponse<u64> = read_frame(&mut conn).unwrap();
        assert_eq!(
            resp,
            ClientResponse::Redirect {
                cmd: 44,
                to: ProcessId::new(0)
            }
        );
        assert_eq!(replica.queued(), 0);
    }

    /// End-to-end kv over the gateway: a put then a get commit, and the
    /// get's ack carries the put's value as its app reply.
    #[test]
    fn kv_acks_carry_app_replies() {
        use gencon_rounds::{HeardOf, Outgoing, RoundProcess};
        use gencon_types::Round;

        let mut gw = ClientGateway::<KvApp>::listen(
            "127.0.0.1:0".parse().unwrap(),
            GatewayConfig::default(),
        )
        .unwrap();
        let spec = paxos::<Batch<KvCmd>>(1, 0, ProcessId::new(0)).unwrap();
        let mut replica =
            BatchingReplica::new(ProcessId::new(0), spec.params.clone(), 4, usize::MAX).unwrap();

        let put = KvCmd {
            id: 1,
            op: KvOp::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
        };
        let get = KvCmd {
            id: 2,
            op: KvOp::Get { key: b"k".to_vec() },
        };
        let mut conn = TcpStream::connect(gw.local_addr()).unwrap();
        write_frame(&mut conn, &ClientRequest::Submit { cmd: put.clone() }).unwrap();
        write_frame(&mut conn, &ClientRequest::Submit { cmd: get.clone() }).unwrap();
        for _ in 0..100 {
            gw.before_round(1, &mut replica);
            if replica.queued() == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        for round in 1..=30u64 {
            let r = Round::new(round);
            gw.before_round(round, &mut replica);
            let out = replica.send(r);
            let mut heard: HeardOf<_> = HeardOf::empty(1);
            if let Outgoing::Broadcast(m) = out {
                heard.put(ProcessId::new(0), m);
            }
            replica.receive(r, &heard);
            gw.after_round(round, &mut replica);
            if replica.applied_len() >= 2 {
                break;
            }
        }
        let mut replies = std::collections::HashMap::new();
        for _ in 0..2 {
            let resp: ClientResponse<KvCmd, KvReply> = read_frame(&mut conn).unwrap();
            let ClientResponse::Committed { cmd, reply, .. } = resp else {
                panic!("expected commits");
            };
            replies.insert(cmd.id, reply.expect("app reply attached"));
        }
        assert_eq!(replies[&1], KvReply::Stored { replaced: false });
        assert_eq!(replies[&2], KvReply::Value(Some(b"v".to_vec())));
        gw.drain();
        assert_eq!(gw.applier().app().len(), 1);
    }
}
