//! The TCP client gateway: accepts client connections, feeds submissions
//! into the replica, runs the **live application** over the applied log,
//! and acks commands — with the application's reply payload — once they
//! commit.
//!
//! The gateway is a [`NodeHook`] split across two stages:
//!
//! ```text
//!   conn readers ──▶ submissions queue ──▶ ORDER (node event loop)
//!        └──────── wake-up (idle loop) ───────▲  │ inflight/retry notes,
//!                                              │  │ applied-log deltas
//!                                              ▼
//!                            client sockets ◀── DELIVERY thread
//!                                               (apply, then ack)
//! ```
//!
//! * the connection readers queue each submission and ring the order
//!   loop's waker, so a quiescent node starts a round for it at once
//!   instead of at its next idle poll;
//! * the **order** side (the hook methods, on the node event loop) drains
//!   queued submissions into the replica — applying **backpressure** (the
//!   command is bounced with the observed queue depth instead of being
//!   enqueued) once the pending queue exceeds its limit, and
//!   **redirecting** every submission when the server is configured as a
//!   non-accepting follower — and ships each round's newly applied slots
//!   to the delivery stage as handles on the replica's batches, without
//!   copying a command. It never touches a socket and never fsyncs:
//!   consensus rounds are not gated on either;
//! * the **delivery** stage walks shipped deltas through the live
//!   [`Applier`] — producing each command's [`App::Reply`] the moment it
//!   flattens — and owns all client-visible bookkeeping (inflight map,
//!   pending acks, reply store) and the sockets. Application is ungated
//!   by durability: deterministic replay carries no durability promise.
//!   Under durable-ack the stage parks each reply until the durable
//!   watermark published by the persist stage passes the command's
//!   offset, so an acked command is one a crash cannot lose.
//!
//! Delivery is one FIFO: the order thread sends a command's inflight note
//! when it submits the command, before any round can commit it, so the
//! note is always handled before the delta that applies it. The channel
//! is bounded; a full channel blocks the order thread (acks are never
//! dropped — blocking *is* the backpressure).
//!
//! Two protections keep one client from hurting the rest: ack writes run
//! under a short write timeout (a client that stops reading gets its
//! connection dropped instead of wedging the delivery stage — which would
//! stall application and every other client's acks with it), and retried
//! submissions of already-committed commands are re-acked (the replica's
//! dedup would otherwise swallow them silently): the order side ships
//! where the replica applied the command ([`BatchingReplica::applied_at`],
//! known for the dedup horizon, after which a retry is applied anew), and
//! the delivery stage answers from its reply store, the horizon's replies
//! by offset. A command applied below a state-transfer jump or a restart's
//! recovered prefix is re-acked without its reply, never computed here.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use gencon_app::{App, Applier};
use gencon_metrics::{Counter, Gauge, Histogram, Registry};
use gencon_net::wire_sync::{FoldedState, SnapshotManifest};
use gencon_smr::BatchingReplica;
use gencon_trace::{EventKind, FlightRecorder, HashCell, Stage, Tracer};
use gencon_types::{AppliedSlot, ProcessId};

use crate::node::{NodeHook, Waker};
use crate::protocol::{read_frame, write_frame, ClientRequest, ClientResponse};

/// Shared writer registry: connection id → writer half of the socket.
type Conns = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// Capacity of the order→delivery channel. A full channel blocks the
/// producer: deltas and ack notes are never dropped.
pub const STAGE_QUEUE_CAP: usize = 1024;

/// Delivery poll interval: how often the durable watermark is re-read
/// while acks are parked behind it and no messages arrive (the release
/// latency floor under durable-ack). With nothing parked the stage
/// blocks on its channel instead.
const ACK_POLL: std::time::Duration = std::time::Duration::from_micros(500);

/// Retries parked awaiting a commit that hasn't surfaced yet (bounded so
/// a flood of retries for never-committed commands can't grow memory).
const PARKED_RETRIES_CAP: usize = 1024;

/// Applied-but-unacked replies parked behind the durable watermark. Only
/// a gate that stops advancing (a failing disk) reaches it.
const PENDING_ACKS_CAP: usize = 1 << 20;

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
    /// is disconnected rather than allowed to stall the delivery stage.
    pub write_timeout: std::time::Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            backpressure_limit: 65_536,
            redirect_to: None,
            write_timeout: std::time::Duration::from_millis(500),
        }
    }
}

/// Order→delivery messages, on one FIFO channel.
enum StageMsg<A: App> {
    /// A fresh local submission was enqueued: remember who to answer.
    Inflight { cmd: A::Cmd, conn: u64 },
    /// A swallowed or bounced resubmission, with where the replica applied
    /// it (`at`). Re-ack from the reply store once its ack is released,
    /// else adopt the new connection if it is still inflight, bounce with
    /// `fallback` if given (redirect / backpressure), else park.
    Retry {
        cmd: A::Cmd,
        conn: u64,
        at: Option<(u64, u64)>,
        fallback: Option<ClientResponse<A::Cmd, A::Reply>>,
    },
    /// Newly applied slots, in slot order, sharing the replica's batches:
    /// apply each command at an offset at or above `from`, then ack it
    /// once durable.
    Delta {
        from: u64,
        slots: Vec<AppliedSlot<A::Cmd>>,
    },
    /// A state transfer replaced the log; restore the live app from the
    /// transferred fold, and answer parked retries of the commands its
    /// dedup window says applied below the jump.
    Restore(Box<FoldedState<A::Cmd>>),
    /// Rendezvous: release everything releasable, then answer.
    Barrier(Sender<()>),
}

/// Per-stage instrumentation (`apply.*` / `ack.*`).
#[derive(Clone)]
struct GatewayMeters {
    applied: Counter,
    /// Depth sampled on every delta enqueue and dequeue (histogram, so
    /// its p99 is meaningful), plus a last-value gauge for live status.
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

/// The client-facing service half of a `gencon-server` node, running
/// application `A` over the replicated log.
pub struct ClientGateway<A: App> {
    submissions: Receiver<(u64, A::Cmd)>,
    /// The order loop's waker, rung by the connection readers after each
    /// submission so an idle node starts a round at once. Installed from
    /// `before_round`, which always runs on the order thread.
    waker: Arc<Mutex<Option<Waker>>>,
    conns: Conns,
    /// The live application, owned by the delivery stage once spawned.
    /// The order side only locks it at spawn (cursor seed) and on behalf
    /// of [`applier`](ClientGateway::applier) callers.
    applier: Arc<Mutex<Applier<A>>>,
    /// Absolute log offset up to which deltas have been shipped to the
    /// delivery stage.
    applied_seen: u64,
    /// The delivery stage's channel and thread, spawned lazily on the
    /// first hook call (so builders like
    /// [`with_applier`](ClientGateway::with_applier) run before the
    /// stage captures state).
    stage: Option<(Sender<StageMsg<A>>, std::thread::JoinHandle<()>)>,
    /// Mirror of the delivery stage's inflight-map size.
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
        let waker: Arc<Mutex<Option<Waker>>> = Arc::default();

        let acceptor_conns = Arc::clone(&conns);
        let acceptor_waker = Arc::clone(&waker);
        std::thread::spawn(move || {
            let mut next_id: u64 = 0;
            loop {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
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
                let reader_waker = Arc::clone(&acceptor_waker);
                std::thread::spawn(move || {
                    conn_reader::<A>(conn_id, stream, &tx, &reader_waker);
                    reader_conns.lock().remove(&conn_id);
                });
            }
        });

        Ok(ClientGateway {
            submissions: rx,
            waker,
            conns,
            applier: Arc::new(Mutex::new(Applier::default())),
            applied_seen: 0,
            stage: None,
            inflight_count: Arc::new(AtomicUsize::new(0)),
            ack_gate: None,
            hash_cell: None,
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
    /// before the first round (the delivery stage seeds its shipping
    /// cursor from the applier when it spawns).
    #[must_use]
    pub fn with_applier(mut self, applier: Applier<A>) -> ClientGateway<A> {
        self.applier = Arc::new(Mutex::new(applier));
        self
    }

    /// Registers the gateway's meters (`apply.*`, `ack.*`) in `reg`.
    /// Must run before the first round — the delivery stage captures its
    /// meter handles when it spawns.
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
    /// the delivery stage — don't hold the guard across waits; call
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
        self.bounced_backpressure() + self.bounced_redirect()
    }

    /// Parked acks dropped at the pending-queue bound (only a stalled
    /// durable gate can make this nonzero).
    #[must_use]
    pub fn acks_dropped(&self) -> u64 {
        self.meters.dropped.get()
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

    /// Blocks until every delta and ack note shipped so far has been
    /// processed and every releasable ack has been written — the
    /// shutdown/rendezvous barrier ([`NodeHook::finish`] calls it, tests
    /// use it before asserting on applier or ack state).
    pub fn drain(&mut self) {
        let (done_tx, done_rx) = channel::unbounded();
        if self.ship(StageMsg::Barrier(done_tx)) {
            let _ = done_rx.recv();
        }
    }

    /// Spawns the delivery stage thread on first use; `horizon` is the
    /// replica's dedup horizon, which bounds the reply store.
    fn ensure_stage(&mut self, horizon: u64) {
        if self.stage.is_some() {
            return;
        }
        // The applier's cursor is the ship-from point: after recovery it
        // already covers the recovered prefix (fold + replayed tail).
        self.applied_seen = self.applier.lock().cursor();
        let (tx, rx) = channel::bounded(STAGE_QUEUE_CAP);
        let stage = self.delivery(horizon);
        let handle = std::thread::spawn(move || stage.run(&rx));
        self.stage = Some((tx, handle));
    }

    /// The delivery stage's initial state.
    fn delivery(&self, horizon: u64) -> Delivery<A> {
        Delivery {
            applier: Arc::clone(&self.applier),
            hash: self.hash_cell.clone(),
            conns: Arc::clone(&self.conns),
            gate: self.ack_gate.clone(),
            inflight: HashMap::new(),
            pending: VecDeque::new(),
            replies: VecDeque::new(),
            replies_base: self.applied_seen,
            horizon,
            parked: HashMap::new(),
            inflight_count: Arc::clone(&self.inflight_count),
            m: self.meters.clone(),
            t: self.tracer.clone(),
        }
    }

    /// Messages waiting in the delivery stage's channel.
    fn queue_depth(&self) -> u64 {
        self.stage.as_ref().map_or(0, |(tx, _)| tx.len() as u64)
    }

    /// Ships to the delivery stage, blocking when the channel is full;
    /// `false` if no stage is running.
    fn ship(&self, msg: StageMsg<A>) -> bool {
        self.stage
            .as_ref()
            .is_some_and(|(tx, _)| tx.send(msg).is_ok())
    }
}

impl<A: App> Drop for ClientGateway<A> {
    fn drop(&mut self) {
        if let Some((tx, handle)) = self.stage.take() {
            // Closing the sender lets the stage observe disconnect.
            drop(tx);
            let _ = handle.join();
        }
    }
}

/// Reads `Submit` frames off one client connection until EOF/error,
/// waking the order loop after each one.
fn conn_reader<A: App>(
    conn_id: u64,
    mut stream: TcpStream,
    tx: &Sender<(u64, A::Cmd)>,
    waker: &Mutex<Option<Waker>>,
) {
    loop {
        match read_frame::<_, ClientRequest<A::Cmd>>(&mut stream) {
            Ok(ClientRequest::Submit { cmd }) => {
                if tx.send((conn_id, cmd)).is_err() {
                    return; // node loop gone: shutting down
                }
                if let Some(w) = waker.lock().as_ref() {
                    w.wake();
                }
            }
            Err(_) => return, // disconnect or protocol violation
        }
    }
}

/// An applied-but-unacked entry: `(cmd, slot, offset, reply, enq_us)`.
type PendingAck<A> = (<A as App>::Cmd, u64, u64, <A as App>::Reply, u64);

/// The delivery stage's working state: owns the live applier's hot path,
/// the sockets and every piece of client-visible bookkeeping.
struct Delivery<A: App> {
    applier: Arc<Mutex<Applier<A>>>,
    hash: Option<(HashCell, u64)>,
    conns: Conns,
    gate: Option<Arc<AtomicU64>>,
    /// Locally submitted, not yet acked: command → connection.
    inflight: HashMap<A::Cmd, u64>,
    /// Applied but not yet acked `(cmd, slot, offset, reply, enq_us)` —
    /// drained in offset order as the durable watermark advances
    /// (immediately, without a gate). `enq_us` is the tracer timestamp
    /// at apply, so the released `acked` event carries the gate-wait.
    pending: VecDeque<PendingAck<A>>,
    /// The reply store, for re-acking retries: `(slot, reply)` of each
    /// command applied here, by offset from `replies_base`. The reply is
    /// filled in when the ack is released or dropped (`None`: still behind
    /// the durable gate). Entries go once their slot is over `horizon`
    /// slots behind the newest, as the replica's dedup forgets them too.
    replies: VecDeque<(u64, Option<A::Reply>)>,
    /// Offset of the first entry of `replies`.
    replies_base: u64,
    /// The replica's dedup horizon, in slots.
    horizon: u64,
    /// Retries of commands not answerable yet and not locally inflight —
    /// not yet applied, or applied with the ack behind the durable gate —
    /// parked until the release (or a `Restore` covering them) answers.
    parked: HashMap<A::Cmd, Vec<u64>>,
    inflight_count: Arc<AtomicUsize>,
    m: GatewayMeters,
    t: Tracer,
}

impl<A: App> Delivery<A> {
    fn run(mut self, rx: &Receiver<StageMsg<A>>) {
        loop {
            let msg = if self.pending.is_empty() {
                rx.recv()
            } else {
                rx.recv_timeout(ACK_POLL)
            };
            match msg {
                Ok(msg) => {
                    if matches!(msg, StageMsg::Delta { .. }) {
                        self.m.apply_depth.record(rx.len() as u64);
                        self.m.apply_depth_now.set(rx.len() as u64);
                    }
                    self.handle(msg);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    self.release();
                    return;
                }
            }
            self.release();
        }
    }

    fn handle(&mut self, msg: StageMsg<A>) {
        match msg {
            StageMsg::Inflight { cmd, conn } => {
                if self.inflight.insert(cmd, conn).is_none() {
                    self.inflight_count.fetch_add(1, Ordering::Relaxed);
                }
            }
            StageMsg::Retry {
                cmd,
                conn,
                at,
                fallback,
            } => {
                if let Some((slot, offset)) = at {
                    if let Some(reply) = self.stored(offset) {
                        self.reack(conn, cmd, slot, offset, reply);
                        return;
                    }
                }
                if let Some(owner) = self.inflight.get_mut(&cmd) {
                    // Still awaiting its ack: the newest connection wins.
                    *owner = conn;
                    return;
                }
                if let Some(resp) = fallback {
                    if matches!(resp, ClientResponse::Redirect { .. }) {
                        self.m.bounced_redirect.inc();
                    } else {
                        self.m.bounced_backpressure.inc();
                    }
                    self.respond(conn, &resp);
                    return;
                }
                // Dedup-swallowed but not answerable yet: not yet applied,
                // or its ack is still behind the durable gate.
                if self.parked.len() < PARKED_RETRIES_CAP {
                    self.parked.entry(cmd).or_default().push(conn);
                    self.m.parked.inc();
                }
            }
            StageMsg::Delta { from, slots } => {
                let applier = Arc::clone(&self.applier);
                let mut applier = applier.lock();
                for s in &slots {
                    for (i, (offset, cmd)) in s.commands_from(from).enumerate() {
                        self.replies.push_back((s.slot, None));
                        let svc_start = self.t.now_us();
                        let reply = applier.apply(s.slot, cmd);
                        publish_hash(self.hash.as_ref(), &*applier);
                        self.m.applied.inc();
                        // One `applied` event per slot (the first command's
                        // service time stands in for the slot).
                        let now_us = self.t.now_us();
                        if i == 0 {
                            self.t.rec(
                                Stage::Apply,
                                EventKind::Applied,
                                s.slot,
                                now_us.saturating_sub(svc_start),
                            );
                        }
                        self.pending
                            .push_back((cmd.clone(), s.slot, offset, reply, now_us));
                    }
                }
                if let Some(last) = slots.last() {
                    let gone = self
                        .replies
                        .partition_point(|e| e.0 + self.horizon < last.slot);
                    self.replies.drain(..gone);
                    self.replies_base += gone as u64;
                }
            }
            StageMsg::Restore(fs) => {
                let mut applier = self.applier.lock();
                if let Err(e) = applier.restore(&fs) {
                    eprintln!("[gateway] live app restore failed: {e}");
                } else {
                    // A restore that lands exactly on a boundary stands
                    // in for the applies it skipped.
                    publish_hash(self.hash.as_ref(), &*applier);
                }
                // The next delta starts at the jump.
                if self.replies_base + (self.replies.len() as u64) < fs.applied_len {
                    self.replies.clear();
                    self.replies_base = fs.applied_len;
                }
                // The fold's dedup pairs end at its `applied_len`.
                if !self.parked.is_empty() {
                    let first = fs.applied_len.saturating_sub(fs.dedup.len() as u64);
                    for ((cmd, slot), offset) in fs.dedup.into_iter().zip(first..) {
                        for conn in self.parked.remove(&cmd).unwrap_or_default() {
                            self.reack(conn, cmd.clone(), slot, offset, None);
                        }
                    }
                }
            }
            StageMsg::Barrier(done) => {
                self.release();
                let _ = done.send(());
            }
        }
    }

    /// Releases pending acks in offset order up to the durable watermark
    /// (everything, when no gate is installed), then bounds what stays
    /// parked.
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
            if let Some(conn) = self.inflight.remove(&cmd) {
                self.inflight_count.fetch_sub(1, Ordering::Relaxed);
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
            if !self.parked.is_empty() {
                for conn in self.parked.remove(&cmd).unwrap_or_default() {
                    self.reack(conn, cmd.clone(), slot, offset, Some(reply.clone()));
                }
            }
            self.store(offset, reply);
        }
        // Bound the parked acks: under a healthy gate the queue drains
        // every group-commit window, but a gate that stops advancing
        // (failing disk) must not grow memory with throughput forever.
        // The *newest* entries are dropped — the oldest are the next to
        // become durable. A dropped command is still committed, and its
        // reply goes straight into the reply store so a client retry
        // after the gate recovers gets answered instead of being swallowed
        // by the replica's dedup.
        while self.pending.len() > PENDING_ACKS_CAP {
            let (_, _, offset, reply, _) = self.pending.pop_back().expect("over cap");
            self.m.dropped.inc();
            self.store(offset, reply);
        }
    }

    /// Files the released (or dropped) reply of the command at `offset`,
    /// unless the store has moved past it.
    fn store(&mut self, offset: u64, reply: A::Reply) {
        let i = offset.wrapping_sub(self.replies_base);
        if let Some(entry) = self.replies.get_mut(i as usize) {
            entry.1 = Some(reply);
        }
    }

    /// The reply to re-ack the command applied at `offset` with:
    /// `Some(None)` below the store (applied before a jump or a restart,
    /// or aged out), `None` while its ack is not released yet.
    fn stored(&self, offset: u64) -> Option<Option<A::Reply>> {
        if offset < self.replies_base {
            return Some(None);
        }
        let (_, reply) = self.replies.get((offset - self.replies_base) as usize)?;
        reply.clone().map(Some)
    }

    /// Answers a retry of an applied command.
    fn reack(&self, conn: u64, cmd: A::Cmd, slot: u64, offset: u64, reply: Option<A::Reply>) {
        self.respond(
            conn,
            &ClientResponse::Committed {
                cmd,
                slot,
                offset,
                reply,
            },
        );
        self.m.reacks.inc();
    }

    fn respond(&self, conn_id: u64, resp: &ClientResponse<A::Cmd, A::Reply>) {
        let mut conns = self.conns.lock();
        let Some(stream) = conns.get_mut(&conn_id) else {
            return; // client went away; the commit stands regardless
        };
        if write_frame(stream, resp)
            .and_then(|()| stream.flush())
            .is_err()
        {
            conns.remove(&conn_id);
        }
    }
}

/// Publishes `(applied, state_hash)` at exact applied-count multiples of
/// `every` — every node then publishes for the same counts, which is what
/// makes the pairs comparable across the cluster.
fn publish_hash<A: App>(hash: Option<&(HashCell, u64)>, applier: &Applier<A>) {
    if let Some((cell, every)) = hash {
        let cursor = applier.cursor();
        if cursor > 0 && cursor.is_multiple_of(*every) {
            cell.publish(cursor, applier.app().state_hash());
        }
    }
}

impl<A: App> NodeHook<A::Cmd> for ClientGateway<A> {
    fn before_round(&mut self, _round: u64, replica: &mut BatchingReplica<A::Cmd>) {
        self.ensure_stage(replica.dedup_horizon());
        {
            let mut current = self.waker.lock();
            if let Some(w) = crate::node::published_waker(current.as_ref()) {
                *current = Some(w);
            }
        }
        while let Ok((conn_id, cmd)) = self.submissions.try_recv() {
            // The delivery stage re-acks a retry of an applied command
            // before bouncing it: it is answered, not redirected.
            let fallback = if let Some(to) = self.cfg.redirect_to {
                Some(ClientResponse::Redirect {
                    cmd: cmd.clone(),
                    to,
                })
            } else if replica.queued() >= self.cfg.backpressure_limit {
                Some(ClientResponse::Backpressure {
                    cmd: cmd.clone(),
                    queued: replica.queued() as u64,
                })
            } else if replica.submit(cmd.clone()) {
                self.ship(StageMsg::Inflight { cmd, conn: conn_id });
                continue;
            } else {
                // Dedup-swallowed: applied (re-ack), still inflight
                // (adopt the new connection), or neither yet (park).
                None
            };
            self.ship(StageMsg::Retry {
                at: replica.applied_at(&cmd),
                cmd,
                conn: conn_id,
                fallback,
            });
        }
    }

    fn after_round(&mut self, _round: u64, replica: &mut BatchingReplica<A::Cmd>) {
        self.ensure_stage(replica.dedup_horizon());
        let slots = replica.applied_from(self.applied_seen).to_vec();
        if !slots.is_empty() {
            if self.tracer.enabled() {
                let depth = self.queue_depth();
                for s in &slots {
                    self.tracer
                        .rec(Stage::Apply, EventKind::ApplyQueued, s.slot, depth);
                }
            }
            let from = self.applied_seen;
            self.applied_seen = replica.applied_len() as u64;
            self.ship(StageMsg::Delta { from, slots });
        }
        if self.stage.is_some() {
            let depth = self.queue_depth();
            self.meters.apply_depth.record(depth);
            self.meters.apply_depth_now.set(depth);
        }
    }

    fn snapshot_installed(
        &mut self,
        _manifest: &SnapshotManifest,
        _state: &[u8],
        fs: &FoldedState<A::Cmd>,
        replica: &mut BatchingReplica<A::Cmd>,
    ) {
        self.ensure_stage(replica.dedup_horizon());
        // A state transfer replaced the replica's log wholesale; restore
        // the live app from the transferred fold and fast-forward the
        // shipping cursor past the jump. Pending acks for offsets below
        // the fold were produced before the jump and stay answerable
        // (their replies were computed at apply time). Retries parked
        // before the jump whose commands applied below it are answered
        // from the fold's dedup window instead of parked forever.
        self.applied_seen = self.applied_seen.max(fs.applied_len);
        self.ship(StageMsg::Restore(Box::new(fs.clone())));
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

    /// The replica's retained applied commands, in log order.
    fn log(replica: &BatchingReplica<u64>) -> Vec<u64> {
        replica
            .applied_from(0)
            .iter()
            .flat_map(|s| s.batch.iter().copied())
            .collect()
    }

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
        // Connection readers and the delivery stage run on their own threads;
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
            if replica.applied_len() > 0 {
                break;
            }
        }
        assert_eq!(log(&replica), [77], "single-replica log commits");
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
        assert_eq!(log(&replica), [77], "no duplicate apply");
        gw.drain();
        assert_eq!(gw.applier().cursor(), 1, "the live app applied it once");
    }

    /// One hand-driven round of a single-replica log through the hooks.
    fn drive(gw: &mut ClientGateway<LogApp<u64>>, replica: &mut BatchingReplica<u64>, round: u64) {
        use gencon_rounds::{HeardOf, Outgoing, RoundProcess};

        let r = gencon_types::Round::new(round);
        gw.before_round(round, replica);
        let out = replica.send(r);
        let mut heard: HeardOf<_> = HeardOf::empty(1);
        if let Outgoing::Broadcast(m) = out {
            heard.put(ProcessId::new(0), m);
        }
        replica.receive(r, &heard);
        gw.after_round(round, replica);
    }

    /// A retry is re-acked exactly as long as the replica's dedup keeps
    /// the command: with one command per slot, a retry of the oldest
    /// command still in the dedup is re-acked with its original slot,
    /// offset and reply, and one a slot older is applied anew. The reply
    /// store never holds a reply from further back than the horizon.
    #[test]
    fn retries_are_reacked_within_the_dedup_horizon() {
        for horizon in [4u64, 16] {
            let mut gw = ClientGateway::<LogApp<u64>>::listen(
                "127.0.0.1:0".parse().unwrap(),
                GatewayConfig::default(),
            )
            .unwrap();
            let spec = paxos::<Batch<u64>>(1, 0, ProcessId::new(0)).unwrap();
            let mut replica =
                BatchingReplica::new(ProcessId::new(0), spec.params.clone(), 4, usize::MAX)
                    .unwrap()
                    .with_dedup_horizon(horizon);
            // A copy of the delivery stage, fed the deltas the hooks ship,
            // with an applier of its own.
            let mut mirror = gw.delivery(horizon);
            mirror.applier = Arc::new(Mutex::new(Applier::default()));
            let mut round = 0;
            let cmds: Vec<u64> = (1000..1000 + 3 * horizon).collect();
            for &cmd in &cmds {
                assert!(replica.submit(cmd));
                let from = replica.applied_len() as u64;
                while replica.applied_len() as u64 == from {
                    round += 1;
                    drive(&mut gw, &mut replica, round);
                }
                let slots = replica.applied_from(from).to_vec();
                let newest = slots.last().unwrap().slot;
                mirror.handle(StageMsg::Delta { from, slots });
                mirror.release();
                let (oldest, _) = mirror.replies.front().unwrap();
                assert!(
                    oldest + horizon >= newest,
                    "the store kept slot {oldest} at slot {newest} (horizon {horizon})"
                );
            }
            let newest = replica.applied_from(0).last().unwrap().slot;
            let (oldest, at) = cmds
                .iter()
                .find_map(|&c| replica.applied_at(&c).map(|at| (c, at)))
                .unwrap();
            assert_eq!(at.0 + horizon, newest, "the oldest command in the dedup");
            assert_eq!(replica.applied_at(&(oldest - 1)), None, "one slot older");

            let mut conn = connect_and_submit(gw.local_addr(), &[oldest]);
            conn.set_read_timeout(Some(std::time::Duration::from_millis(20)))
                .unwrap();
            let mut reack = None;
            for _ in 0..200 {
                gw.before_round(round, &mut replica);
                if let Ok(resp) = read_frame::<_, ClientResponse<u64>>(&mut conn) {
                    reack = Some(resp);
                    break;
                }
            }
            assert_eq!(
                reack.expect("retry re-acked within the polling budget"),
                ClientResponse::Committed {
                    cmd: oldest,
                    slot: at.0,
                    offset: at.1,
                    reply: Some(at.1),
                }
            );

            write_frame(&mut conn, &ClientRequest::Submit { cmd: oldest - 1 }).unwrap();
            let mut ack = None;
            for _ in 0..200 {
                round += 1;
                drive(&mut gw, &mut replica, round);
                if let Ok(resp) = read_frame::<_, ClientResponse<u64>>(&mut conn) {
                    ack = Some(resp);
                    break;
                }
            }
            let applied = cmds.len() as u64;
            let ClientResponse::Committed {
                cmd, offset, reply, ..
            } = ack.expect("the older retry applied within the polling budget")
            else {
                panic!("expected a commit ack");
            };
            assert_eq!(
                (cmd, offset, reply),
                (oldest - 1, applied, Some(applied)),
                "applied anew"
            );
            assert_eq!(
                replica.applied_at(&(oldest - 1)).map(|at| at.1),
                Some(applied)
            );
        }
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

    /// A client that submits large reads and never reads its acks fills
    /// its socket buffers; the write timeout then drops that connection,
    /// so the delivery stage — which also applies commands — keeps
    /// serving every other client.
    #[test]
    fn a_client_that_stops_reading_cannot_stall_everyone() {
        use gencon_rounds::{HeardOf, Outgoing, RoundProcess};
        use gencon_types::Round;

        let mut gw = ClientGateway::<KvApp>::listen(
            "127.0.0.1:0".parse().unwrap(),
            GatewayConfig {
                write_timeout: std::time::Duration::from_millis(50),
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let spec = paxos::<Batch<KvCmd>>(1, 0, ProcessId::new(0)).unwrap();
        // A short dedup horizon keeps the reply store, which holds the
        // 256 KiB replies, to a few slots.
        let mut replica =
            BatchingReplica::new(ProcessId::new(0), spec.params.clone(), 16, usize::MAX)
                .unwrap()
                .with_dedup_horizon(2);
        let mut round = 0u64;
        // Runs rounds until `n` commands have committed in total.
        let mut commit_until =
            |gw: &mut ClientGateway<KvApp>, replica: &mut BatchingReplica<KvCmd>, n: usize| {
                for _ in 0..10_000 {
                    round += 1;
                    let r = Round::new(round);
                    gw.before_round(round, replica);
                    let out = replica.send(r);
                    let mut heard: HeardOf<_> = HeardOf::empty(1);
                    if let Outgoing::Broadcast(m) = out {
                        heard.put(ProcessId::new(0), m);
                    }
                    replica.receive(r, &heard);
                    gw.after_round(round, replica);
                    if replica.applied_len() >= n {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                panic!("{n} commands did not commit");
            };

        // The silent client: one 256 KiB value, then gets of it in waves
        // until the gateway gives up on the connection (its acks outgrow
        // both socket buffers within a few dozen gets).
        let mut silent = TcpStream::connect(gw.local_addr()).unwrap();
        let put = KvCmd {
            id: 0,
            op: KvOp::Put {
                key: b"big".to_vec(),
                value: vec![7; 256 << 10],
            },
        };
        write_frame(&mut silent, &ClientRequest::Submit { cmd: put }).unwrap();
        let mut submitted = 1;
        while gw.conns.lock().is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let silent_id = *gw.conns.lock().keys().next().unwrap();
        while gw.conns.lock().contains_key(&silent_id) {
            assert!(submitted < 1024, "the silent client was never dropped");
            for _ in 0..16 {
                let get = KvCmd {
                    id: submitted as u64,
                    op: KvOp::Get {
                        key: b"big".to_vec(),
                    },
                };
                write_frame(&mut silent, &ClientRequest::Submit { cmd: get }).unwrap();
                submitted += 1;
            }
            commit_until(&mut gw, &mut replica, submitted);
            gw.drain();
        }

        // Another client is still served, and promptly.
        let mut other = TcpStream::connect(gw.local_addr()).unwrap();
        other
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let small = KvCmd {
            id: 1 << 32,
            op: KvOp::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
        };
        write_frame(&mut other, &ClientRequest::Submit { cmd: small.clone() }).unwrap();
        commit_until(&mut gw, &mut replica, submitted + 1);
        let resp: ClientResponse<KvCmd, KvReply> = read_frame(&mut other).unwrap();
        let ClientResponse::Committed {
            cmd, offset, reply, ..
        } = resp
        else {
            panic!("expected a commit ack, got {resp:?}");
        };
        assert_eq!(
            (cmd, offset, reply),
            (
                small,
                submitted as u64,
                Some(KvReply::Stored { replaced: false })
            )
        );
        gw.drain();
        assert_eq!(gw.applier().cursor(), submitted as u64 + 1);
        drop(silent);
    }
}
