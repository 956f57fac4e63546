//! The SMR node event loop: a replicated log over a real transport.
//!
//! [`run_smr_node_observed`] drives one [`BatchingReplica`] slot-by-slot
//! over any [`Transport`] with wall-clock round pacing:
//!
//! * **Adaptive deadlines** — each round's collect window comes from an
//!   [`AdaptiveDeadline`]: it shrinks toward 2× the observed round time
//!   while the mesh is timely (good periods commit at network speed) and
//!   backs off exponentially when rounds expire incomplete (bad periods
//!   don't spin). "Complete" is judged against the *live* senders — a
//!   peer silent past [`LIVENESS_GRACE`] rounds stops being waited for,
//!   so a crashed node degrades pacing for a bounded window instead of
//!   pinning every subsequent round at the maximum deadline (the cluster
//!   keeps serving at speed with up to f nodes down); any frame from the
//!   peer re-enrolls it instantly.
//! * **Closed rounds** — frames tagged with an old round are dropped,
//!   future rounds are buffered (bounded: one frame per sender per round,
//!   nothing past a [`FUTURE_HORIZON`] — a Byzantine peer cannot grow the
//!   buffer without limit); within a round the node collects until every
//!   live sender was heard or the deadline expires, exactly the
//!   partial-synchrony realization `gencon-net`'s single-shot runtime uses.
//! * **Round fast-forward** — a node that restarts (or falls far behind)
//!   would otherwise have to grind through every skipped round number
//!   while peers drop its stale frames. When `b + 1` distinct senders have
//!   sent frames for rounds ahead of ours, the cluster is provably there
//!   (at least one sender is honest), so the node jumps its round counter
//!   forward. Skipped rounds are indistinguishable from message loss,
//!   which every instantiation tolerates; a lone Byzantine peer cannot
//!   trigger a jump. From the new round the existing catch-up machinery
//!   takes over: peers answer the laggard's stale-slot bundles with
//!   decision claims, and `b + 1` concordant claims commit any missed
//!   prefix ([`gencon_smr`]'s certificate path).
//! * **Chunked state transfer** — a laggard whose gap outran the claim
//!   horizon broadcasts a `SnapshotRequest`; peers answer with a
//!   [`SnapshotManifest`] (metadata only, served by the
//!   [`NodeHook`] — the durable hook prefers its on-disk snapshot and
//!   synthesizes a fold only when none exists). Once `b + 1` distinct
//!   senders vouch for the byte-identical manifest, the laggard pulls the
//!   state chunk by chunk ([`ChunkRequest`]/`Chunk` frames, CRC-stamped,
//!   resumable across rounds, round-robin over the vouchers), reassembles
//!   it, verifies the manifest's SHA-256, and installs the decoded
//!   [`FoldedState`] — the folded application state plus replica resume
//!   data, **not** the applied history, so transfer size is O(live app
//!   state) with no history ceiling.
//! * **Hooks** — a [`NodeHook`] injects client submissions before each
//!   round, harvests commits after it, and serves/persists snapshots; the
//!   TCP client gateway and the durability layer are both hooks.
//!
//! [`SnapshotManifest`]: gencon_net::SnapshotManifest
//! [`ChunkRequest`]: gencon_net::SyncFrame::ChunkRequest
//! [`FoldedState`]: gencon_net::FoldedState

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, TrySendError};

use gencon_metrics::{Counter, Gauge, Histogram, Registry};
use gencon_net::wire::{Envelope, Wire};
use gencon_net::wire_sync::{
    AssemblyOutcome, ChunkAssembly, FoldedState, SnapshotManifest, SyncFrame,
};
use gencon_net::{RecvHalf, Transport};
use gencon_rounds::{HeardOf, Outgoing, RoundProcess};
use gencon_smr::{Batch, BatchingReplica, SmrMsg};
use gencon_trace::{EventKind, FlightRecorder, PeerTable, Stage, Tracer};
use gencon_types::{CmdKey, ProcessId, ProcessSet, Round, Value};

use crate::config::ServerConfig;
use crate::deadline::AdaptiveDeadline;

/// Per-round callbacks around the replica, with typed mutable access.
///
/// All methods default to no-ops; implement whichever sides you need.
/// Closures `FnMut(u64, &mut BatchingReplica<V>)` work as before-round
/// hooks.
pub trait NodeHook<V: Value>: Send {
    /// Called before the round's send step — the place to drain client
    /// submissions into the replica.
    fn before_round(&mut self, round: u64, replica: &mut BatchingReplica<V>) {
        let _ = (round, replica);
    }

    /// Called after the round's transition step — the place to harvest
    /// newly applied commands (acks, latency accounting).
    fn after_round(&mut self, round: u64, replica: &mut BatchingReplica<V>) {
        let _ = (round, replica);
    }

    /// Polled once per round after [`NodeHook::after_round`]; returning
    /// `true` stops the loop. The default runs until
    /// [`ServerConfig::max_rounds`].
    fn should_stop(&mut self, replica: &BatchingReplica<V>) -> bool {
        let _ = replica;
        false
    }

    /// Asked when a laggard peer whose log ends at `have_slot` requests
    /// state transfer: the manifest of the snapshot this node can serve,
    /// or `None` to stay silent. The durable hook answers from its
    /// on-disk snapshot when one covers the request and synthesizes a
    /// fold from the retained log only when none exists; a hook-less
    /// memory node serves nothing (claims remain its only catch-up path).
    fn serve_manifest(
        &mut self,
        replica: &BatchingReplica<V>,
        have_slot: u64,
    ) -> Option<SnapshotManifest> {
        let _ = (replica, have_slot);
        None
    }

    /// Asked for chunk `index` of the snapshot this node manifested at
    /// `upto_slot`. The event loop stamps the CRC.
    fn serve_chunk(
        &mut self,
        replica: &BatchingReplica<V>,
        upto_slot: u64,
        index: u32,
    ) -> Option<Vec<u8>> {
        let _ = (replica, upto_slot, index);
        None
    }

    /// Called after the event loop installed a `b + 1`-vouched,
    /// hash-verified snapshot into the replica — `state` is the encoded
    /// [`FoldedState`] (for persisting verbatim) and `fs` its decoded
    /// form (so hooks need not re-parse). The durable hook persists it
    /// (so a later restart recovers past the transferred prefix) and
    /// restores its fold; the gateway restores its live application.
    fn snapshot_installed(
        &mut self,
        manifest: &SnapshotManifest,
        state: &[u8],
        fs: &FoldedState<V>,
        replica: &mut BatchingReplica<V>,
    ) {
        let _ = (manifest, state, fs, replica);
    }

    /// Called exactly once when the event loop exits, before the node's
    /// pipeline threads are torn down. Staged hooks drain here: the
    /// durable hook flushes its persist stage (every appended record
    /// reaches disk and the durable watermark), the gateway then releases
    /// or fails every remaining client ack — no ack is stranded in a
    /// queue when the process returns.
    fn finish(&mut self, replica: &mut BatchingReplica<V>) {
        let _ = replica;
    }
}

/// Any `FnMut(round, &mut replica)` closure is a before-round hook.
impl<V: Value, F> NodeHook<V> for F
where
    F: FnMut(u64, &mut BatchingReplica<V>) + Send,
{
    fn before_round(&mut self, round: u64, replica: &mut BatchingReplica<V>) {
        self(round, replica);
    }
}

/// A hook that does nothing: the node just keeps the log turning.
pub struct NoHook;

impl<V: Value> NodeHook<V> for NoHook {}

/// Frames buffered for rounds this node has not reached yet: round →
/// `(sender, bundle)` pairs (at most one per sender per round).
type FutureFrames<V> = BTreeMap<u64, Vec<(ProcessId, SmrMsg<Batch<V>>)>>;

/// Rounds a silent sender keeps counting toward the full-round
/// expectation before pacing writes it off as down.
pub const LIVENESS_GRACE: u64 = 16;

/// Frames tagged further ahead than this are not buffered (their round
/// number still feeds the fast-forward evidence). Bounds the future map
/// at `FUTURE_HORIZON × n` bundles against Byzantine flooding.
pub const FUTURE_HORIZON: u64 = 1024;

/// Rounds without commit progress (while peers demonstrably work slots
/// ahead of ours) before the node starts asking for snapshot state
/// transfer. Short gaps are the decision-claim path's job; this fires
/// only when claims have visibly stopped working — peers compacted the
/// needed slots below their claim horizon.
pub const SNAPSHOT_PROBE_AFTER: u64 = 8;

/// Minimum slot gap (peers' highest referenced slot vs. our contiguous
/// commit point) that makes a stall snapshot-worthy.
pub const SNAPSHOT_GAP_MIN: u64 = 8;

/// Missing chunks re-requested per round while a fetch is active — the
/// transfer self-paces with the round cadence, and chunks that were lost
/// in flight are simply re-requested on a later round (resumability).
pub const CHUNK_REQUESTS_PER_ROUND: usize = 8;

/// Chunk responses served to one peer within one round (a Byzantine
/// requester must not turn chunk serving into an amplification flood).
pub const CHUNKS_SERVED_PER_SENDER_PER_ROUND: u32 = 16;

/// Rounds without a newly accepted chunk before an in-flight fetch is
/// abandoned (its manifest is dropped from the tally and re-learned
/// fresh) — the resumability safety valve against chasing a snapshot
/// the vouchers have already superseded.
pub const FETCH_STALL_ROUNDS: u64 = 32;

/// Command ids remembered per relay-trace direction. Relay chunks
/// rebroadcast in-flight commands every round, so without first-seen
/// gating a single slow command would stamp a `Relayed`/`RelayMerged`
/// event per round per peer and flood the flight recorder.
const RELAY_SEEN_CAP: usize = 8192;

/// A bounded first-seen filter: `insert` answers whether the key is new
/// within the window. FIFO eviction — old ids age out, so a command
/// re-relayed long after its window can stamp again (acceptable: span
/// assembly is first-occurrence-wins anyway).
struct SeenWindow {
    set: std::collections::HashSet<u64>,
    order: std::collections::VecDeque<u64>,
    cap: usize,
}

impl SeenWindow {
    fn new(cap: usize) -> Self {
        SeenWindow {
            set: std::collections::HashSet::with_capacity(cap),
            order: std::collections::VecDeque::with_capacity(cap),
            cap,
        }
    }

    fn insert(&mut self, key: u64) -> bool {
        if !self.set.insert(key) {
            return false;
        }
        self.order.push_back(key);
        if self.order.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }
}

/// Senders heard within the liveness grace window (everyone at startup,
/// since nobody has had a chance to speak yet).
fn live_senders(last_heard: &[u64], r: u64) -> usize {
    last_heard
        .iter()
        .filter(|&&lr| lr + LIVENESS_GRACE >= r)
        .count()
}

/// What one node run did, for logs and assertions.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Rounds executed (not counting fast-forwarded skips).
    pub rounds: u64,
    /// The last round number reached (≥ `rounds` once fast-forwards happen).
    pub last_round: u64,
    /// Rounds that heard every sender before the deadline.
    pub full_rounds: u64,
    /// Rounds cut off by the deadline.
    pub timeouts: u64,
    /// Round-counter jumps taken (restart/laggard catch-up).
    pub fast_forwards: u64,
    /// Snapshot state-transfer requests this node broadcast.
    pub snapshot_requests: u64,
    /// Snapshot manifests this node served to laggards.
    pub snapshots_served: u64,
    /// State chunks this node served to laggards.
    pub chunks_served: u64,
    /// Verified state chunks this node fetched during transfers.
    pub chunks_fetched: u64,
    /// Snapshots installed from peers (`b + 1`-vouched, SHA-verified).
    pub snapshots_installed: u64,
}

/// An in-progress chunked state fetch: the vouched manifest, who vouched
/// (only they are asked for chunks), the resumable reassembly, and a
/// round-robin cursor so retries rotate across vouchers — a single lying
/// voucher can delay a fetch round but not starve it.
struct Fetch {
    assembly: ChunkAssembly,
    voters: Vec<ProcessId>,
    /// Which voucher this attempt pulls from: `voters[attempt % len]`.
    /// All chunks of one attempt come from a **single source**, and the
    /// source rotates on failure (SHA mismatch or stall) — so at most
    /// one rotation per voucher reaches the attempt whose source is
    /// honest (the voter set has ≥ b + 1 members), which then completes
    /// with the correct bytes. Mixing sources within an attempt would
    /// let a single lying voucher poison every assembly forever.
    attempt: usize,
    /// Last round a chunk was newly accepted (or the attempt rotated). A
    /// fetch that stops progressing — typically because the vouchers'
    /// snapshots moved past this manifest's cut and nobody can serve its
    /// chunks any more — rotates its source after
    /// [`FETCH_STALL_ROUNDS`], and is abandoned entirely once every
    /// voucher was tried twice, so the tally can converge on a servable
    /// manifest instead of pinning a stale one.
    last_progress: u64,
}

impl Fetch {
    fn source(&self) -> ProcessId {
        self.voters[self.attempt % self.voters.len()]
    }
}

/// Decoded frames queued between the ingest stage and the order stage.
/// When the queue is full, fresh frames are dropped (and counted) —
/// consensus frames are loss-tolerant by design, so shedding inbound
/// load under overload is exactly what a congested network would do.
pub const INGEST_QUEUE_CAP: usize = 4096;

/// How often the ingest stage re-checks its stop flag while idle.
const INGEST_POLL: Duration = Duration::from_millis(10);

/// A decoded, sender-authenticated frame handed from ingest to order.
type IngestFrame<V> = (ProcessId, SyncFrame<SmrMsg<Batch<V>>>);

/// Instrument handles for the ingest stage (cloned into its thread).
#[derive(Clone)]
struct IngestMeters {
    frames: Counter,
    dropped: Counter,
    decode_errors: Counter,
    /// Depth sampled on **every** enqueue and dequeue — a histogram, so
    /// `ingest.queue_depth` p99 reflects the whole run, not whichever
    /// depth happened to be written last.
    queue_depth: Histogram,
    queue_depth_now: Gauge,
}

/// Per-stage instrument handles resolved once per node run.
struct NodeMeters {
    ingest: IngestMeters,
    rounds: Counter,
    round_us: Histogram,
    timeouts: Counter,
    fast_forwards: Counter,
    chunks_served: Counter,
    chunks_fetched: Counter,
    // Live position gauges the admin `status` command reads.
    round_now: Gauge,
    committed_now: Gauge,
    applied_now: Gauge,
    queued_now: Gauge,
}

impl NodeMeters {
    fn new(reg: &Registry) -> Self {
        NodeMeters {
            ingest: IngestMeters {
                frames: reg.counter("ingest.frames"),
                dropped: reg.counter("ingest.dropped"),
                decode_errors: reg.counter("ingest.decode_errors"),
                queue_depth: reg.histogram("ingest.queue_depth"),
                queue_depth_now: reg.gauge("ingest.queue_depth_now"),
            },
            rounds: reg.counter("order.rounds"),
            round_us: reg.histogram("order.round_us"),
            timeouts: reg.counter("order.timeouts"),
            fast_forwards: reg.counter("order.fast_forwards"),
            chunks_served: reg.counter("transfer.chunks_served"),
            chunks_fetched: reg.counter("transfer.chunks_fetched"),
            round_now: reg.gauge("order.round"),
            committed_now: reg.gauge("order.committed_slots"),
            applied_now: reg.gauge("order.applied"),
            queued_now: reg.gauge("order.queued"),
        }
    }
}

/// The ingest stage: owns the transport's receive half, decodes and
/// sender-authenticates every inbound frame off the order thread, and
/// queues the survivors. Runs until the order stage raises `stop`.
fn ingest_loop<V: Value + Wire>(
    half: &RecvHalf,
    n: usize,
    tx: channel::Sender<IngestFrame<V>>,
    stop: &AtomicBool,
    m: &IngestMeters,
    tracer: &Tracer,
) {
    while !stop.load(Ordering::Acquire) {
        let Some((sender, frame)) = half.recv_timeout(INGEST_POLL) else {
            m.queue_depth_now.set(tx.len() as u64);
            continue;
        };
        if sender.index() >= n {
            continue;
        }
        let Some(sync) = decode_frame::<SmrMsg<Batch<V>>>(&frame) else {
            m.decode_errors.inc(); // garbage from a Byzantine peer
            continue;
        };
        // Transport-level sender authentication.
        if sync.sender() != sender {
            m.decode_errors.inc();
            continue;
        }
        m.frames.inc();
        match tx.try_send((sender, sync)) {
            Ok(()) => {
                let depth = tx.len() as u64;
                m.queue_depth.record(depth);
                tracer.rec(Stage::Ingest, EventKind::Ingested, 0, depth);
            }
            // Backpressure by shedding: a full queue drops the frame
            // like a congested link would (the round machinery already
            // tolerates loss); blocking here would stall the socket
            // readers behind a slow order stage instead.
            Err(TrySendError::Full(_)) => {
                m.dropped.inc();
                tracer.rec(Stage::Ingest, EventKind::Shed, 0, INGEST_QUEUE_CAP as u64);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
        m.queue_depth_now.set(tx.len() as u64);
    }
}

/// Drives `replica` over `transport` until the hook stops it or
/// `cfg.max_rounds` elapse. Returns the replica (its applied log is the
/// result), the transport (reusable — e.g. to restart a node on the same
/// endpoint after a simulated crash), run statistics, and the hook (so
/// callers can read its end state — gateway counters, WAL statistics).
///
/// The three optional observers are independent:
///
/// * `metrics` receives the per-stage instruments (`ingest.*`,
///   `order.*`, `transfer.*`; the durable and gateway hooks add
///   `persist.*`, `apply.*` and `ack.*` when built with the same
///   registry). With `None` the node meters into a private throwaway
///   registry — the instruments cost a handful of atomics either way.
/// * `trace` receives the slot-lifecycle, state-transfer and
///   peer-liveness events of this node (ingest/order here; the gateway
///   and durable hooks record their own stages when built with the same
///   recorder).
/// * `peers` is continuously updated with last-heard rounds, advertised
///   watermarks and written-off flags — the table the admin endpoint's
///   `status` command snapshots.
///
/// The node core is a staged pipeline:
///
/// ```text
/// socket → [ingest] → bounded queue → [order] → hook stages
///           decode      (shed on       rounds    (apply / persist /
///           auth         overflow)     (this      ack — see the
///                                      thread)    gateway & durable
///                                                 hooks)
/// ```
///
/// The **ingest** stage owns the transport's receive half (when the
/// transport can split one off — see [`Transport::split_recv`]) and
/// decodes + sender-authenticates frames concurrently with the round
/// loop. The **order** stage — this thread — stays single-threaded and
/// deterministic: it consumes decoded frames, runs the consensus rounds,
/// and drives the hook, exactly as before the split. On exit the ingest
/// stage is stopped and joined, the receive half is restored into the
/// transport, and [`NodeHook::finish`] drains the downstream stages.
pub fn run_smr_node_observed<V, T, H>(
    mut replica: BatchingReplica<V>,
    mut transport: T,
    cfg: ServerConfig,
    mut hook: H,
    metrics: Option<&Registry>,
    trace: Option<&FlightRecorder>,
    peers: Option<&PeerTable>,
) -> (BatchingReplica<V>, T, NodeStats, H)
where
    V: Value + Wire + CmdKey,
    T: Transport,
    H: NodeHook<V>,
{
    let scratch = Registry::new();
    let meters = NodeMeters::new(metrics.unwrap_or(&scratch));
    let tracer = Tracer::new(trace.cloned());
    let peers = peers.cloned().unwrap_or_default();
    let n = transport.peers();
    let mut recv_half = transport.split_recv();
    let stop_ingest = AtomicBool::new(false);
    let mut returned_half = None;
    let stats = std::thread::scope(|scope| {
        let mut ingest_handle = None;
        let ingest_rx = recv_half.take().map(|half| {
            let (tx, rx) = channel::bounded(INGEST_QUEUE_CAP);
            let im = meters.ingest.clone();
            let it = tracer.clone();
            let stop = &stop_ingest;
            ingest_handle = Some(scope.spawn(move || {
                ingest_loop::<V>(&half, n, tx, stop, &im, &it);
                half
            }));
            rx
        });
        let stats = order_loop(
            &mut replica,
            &mut transport,
            &cfg,
            &mut hook,
            ingest_rx.as_ref(),
            &meters,
            &tracer,
            &peers,
        );
        stop_ingest.store(true, Ordering::Release);
        if let Some(h) = ingest_handle {
            returned_half = Some(h.join().expect("ingest stage panicked"));
        }
        hook.finish(&mut replica);
        stats
    });
    if let Some(half) = returned_half {
        transport.restore_recv(half);
    }
    (replica, transport, stats, hook)
}

/// The order stage: the deterministic, single-threaded consensus round
/// loop. Reads pre-decoded frames from the ingest queue when one exists,
/// or falls back to decoding inline for transports without a splittable
/// receive half.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn order_loop<V, T, H>(
    replica: &mut BatchingReplica<V>,
    transport: &mut T,
    cfg: &ServerConfig,
    hook: &mut H,
    ingest_rx: Option<&Receiver<IngestFrame<V>>>,
    meters: &NodeMeters,
    tracer: &Tracer,
    peers: &PeerTable,
) -> NodeStats
where
    V: Value + Wire + CmdKey,
    T: Transport,
    H: NodeHook<V>,
{
    let me = transport.local();
    let n = transport.peers();
    let ff_threshold = replica.config().b() + 1;
    let td = replica.td();
    let mut deadline = AdaptiveDeadline::new(
        cfg.initial_round_timeout,
        cfg.min_round_timeout,
        cfg.max_round_timeout,
    );
    let mut stats = NodeStats::default();
    // Frames for rounds we have not reached yet, and the highest future
    // round each sender has shown us (the fast-forward evidence).
    let mut future: FutureFrames<V> = BTreeMap::new();
    let mut ahead: Vec<u64> = vec![0; n];
    // --- state-transfer bookkeeping ---
    // The highest slot any peer frame referenced: evidence of how far the
    // cluster's log extends past ours.
    let mut peer_slot_high: u64 = 0;
    // Commit progress tracking: a stalled laggard with a big slot gap has
    // outrun the decision-claim horizon and needs a snapshot.
    let mut last_commit_len: u64 = replica.committed_slots() as u64;
    let mut stall_rounds: u64 = 0;
    // Manifests tallied by value: a chunk fetch starts only once b + 1
    // distinct senders vouch for the identical manifest — at least one is
    // honest, so the described state is the real folded prefix. Each
    // sender holds at most one live manifest (a newer one replaces its
    // older vote), so a Byzantine peer cannot crowd the tally.
    let mut manifest_votes: BTreeMap<SnapshotManifest, ProcessSet> = BTreeMap::new();
    // The active chunk fetch, if any (one at a time).
    let mut fetch: Option<Fetch> = None;
    // Serve throttles: last round each peer was served a manifest, and
    // chunks served to each peer this round.
    let mut last_served: Vec<u64> = vec![0; n];
    let mut chunk_budget: Vec<u32> = vec![0; n];
    // The round each sender was last heard in (any round tag counts as a
    // liveness signal). A sender silent for more than LIVENESS_GRACE
    // rounds stops counting toward the "full round" expectation, so a
    // crashed peer degrades pacing for a bounded window instead of
    // forcing every subsequent round to its deadline — the cluster is
    // explicitly supposed to keep serving with up to f nodes down.
    let mut last_heard: Vec<u64> = vec![0; n];
    // Liveness as of the previous round, to trace write-off/re-enroll
    // transitions exactly once per edge.
    let mut was_live: Vec<bool> = vec![true; n];
    // The lowest slot this node has not yet proposed a value for — new
    // slots in an outgoing bundle get a `proposed` trace event exactly
    // once.
    let mut proposed_next: u64 = 0;
    // First-seen windows gating the per-command relay stamps (relay
    // chunks repeat in-flight commands every round).
    let mut relayed_seen = SeenWindow::new(RELAY_SEEN_CAP);
    let mut merged_seen = SeenWindow::new(RELAY_SEEN_CAP);

    let mut r: u64 = 1;
    while r <= cfg.max_rounds {
        // Fast-forward: the (b+1)-th largest per-sender future round is
        // vouched for by at least one honest process.
        let mut tops = ahead.clone();
        tops.sort_unstable_by(|a, b| b.cmp(a));
        if let Some(&target) = tops.get(ff_threshold - 1) {
            if target > r {
                stats.fast_forwards += 1;
                meters.fast_forwards.inc();
                r = target;
                // Rounds below the jump are closed without executing.
                future = future.split_off(&r);
            }
        }

        let round = Round::new(r);
        let armed_deadline_us = deadline.current().as_micros() as u64;
        tracer.rec(Stage::Order, EventKind::RoundAdvance, r, armed_deadline_us);
        hook.before_round(r, replica);

        // --- send step ---
        // Stamps the outgoing bundle: `Proposed` once per new slot,
        // `Batched` once per command drained into a new slot's batch
        // (the batch-wait endpoint, detail = the proposed slot), and
        // `Relayed` once per first-relayed command (detail = peers the
        // chunk ships to).
        let trace_outgoing = |m: &SmrMsg<Batch<V>>,
                              next: &mut u64,
                              replica: &BatchingReplica<V>,
                              relayed_seen: &mut SeenWindow,
                              dest_peers: u64| {
            if tracer.enabled() {
                for (slot, _) in m.iter() {
                    if slot >= *next {
                        tracer.rec(Stage::Order, EventKind::Proposed, slot, r);
                        if let Some(cmds) = replica.proposed_batch(slot) {
                            for cmd in cmds {
                                tracer.rec(Stage::Order, EventKind::Batched, cmd.cmd_key(), slot);
                            }
                        }
                    }
                }
                for chunk in m.relays() {
                    for cmd in chunk.commands() {
                        let key = cmd.cmd_key();
                        if relayed_seen.insert(key) {
                            tracer.rec(Stage::Order, EventKind::Relayed, key, dest_peers);
                        }
                    }
                }
                *next = (*next).max(max_slot_of(m) + 1);
            }
        };
        let mut loopback: Option<SmrMsg<Batch<V>>> = None;
        match replica.send(round) {
            Outgoing::Silent => {}
            Outgoing::Broadcast(m) => {
                let frame = SyncFrame::Round(Envelope {
                    sender: me,
                    round,
                    msg: m.clone(),
                })
                .to_bytes();
                for d in (0..n).map(ProcessId::new).filter(|&d| d != me) {
                    transport.send(d, frame.clone());
                }
                trace_outgoing(
                    &m,
                    &mut proposed_next,
                    replica,
                    &mut relayed_seen,
                    n as u64 - 1,
                );
                loopback = Some(m);
            }
            Outgoing::Multicast { dests, msg } => {
                let frame = SyncFrame::Round(Envelope {
                    sender: me,
                    round,
                    msg: msg.clone(),
                })
                .to_bytes();
                trace_outgoing(
                    &msg,
                    &mut proposed_next,
                    replica,
                    &mut relayed_seen,
                    dests.iter().filter(|&d| d != me).count() as u64,
                );
                for d in dests.iter() {
                    if d == me {
                        loopback = Some(msg.clone());
                    } else {
                        transport.send(d, frame.clone());
                    }
                }
            }
            Outgoing::PerDest(_) => unreachable!("honest replicas never equivocate"),
        }

        // --- collect step ---
        let mut heard: HeardOf<SmrMsg<Batch<V>>> = HeardOf::empty(n);
        if let Some(m) = loopback {
            heard.put(me, m);
        }
        if let Some(buffered) = future.remove(&r) {
            for (sender, msg) in buffered {
                if tracer.enabled() {
                    for chunk in msg.relays() {
                        for cmd in chunk.commands() {
                            let key = cmd.cmd_key();
                            if merged_seen.insert(key) {
                                tracer.rec(
                                    Stage::Order,
                                    EventKind::RelayMerged,
                                    key,
                                    sender.index() as u64,
                                );
                            }
                        }
                    }
                }
                heard.put(sender, msg);
            }
        }
        last_heard[me.index()] = r;
        // Quorum telemetry: who this round heard from (first frame per
        // sender) and the instant the TD-th concordant message landed.
        let mut heard_from: Vec<bool> = vec![false; n];
        let mut quorum_done = heard.count() >= td;
        if quorum_done {
            // Loopback plus buffered frames already held a quorum at
            // round entry; attribute the completion to ourselves.
            tracer.rec(Stage::Order, EventKind::QuorumReached, r, me.index() as u64);
        }
        chunk_budget.iter_mut().for_each(|b| *b = 0);
        let started = Instant::now();
        let round_deadline = started + deadline.current();
        // Bounds the zero-timeout drain below so a flooding peer cannot
        // pin the loop in one round forever.
        let mut drain_budget = 16 * n;
        while heard.count() < n {
            // Once every *live* sender was heard (or the deadline hit),
            // stop waiting — but keep draining frames already queued with
            // a zero timeout: a written-off sender's buffered frames are
            // the only way it can re-enroll, so skipping the inbox
            // entirely would leave a fast-forwarded or formerly isolated
            // node permanently deaf.
            let now = Instant::now();
            let all_live_heard = heard.count() >= live_senders(&last_heard, r);
            let wait = if all_live_heard || now >= round_deadline {
                if drain_budget == 0 {
                    break;
                }
                drain_budget -= 1;
                Duration::ZERO
            } else {
                round_deadline - now
            };
            let got = match ingest_rx {
                // Pipelined path: the ingest stage already decoded and
                // sender-authenticated the frame.
                Some(rx) => {
                    let got = rx.recv_timeout(wait).ok();
                    if got.is_some() {
                        // Sample the depth on dequeue too, so the
                        // histogram sees drain as well as fill.
                        meters.ingest.queue_depth.record(rx.len() as u64);
                    }
                    got
                }
                // Fallback for transports without a splittable receive
                // half: decode inline on the order thread.
                None => match transport.recv_timeout(wait) {
                    Some((sender, frame)) => {
                        if sender.index() >= n {
                            continue;
                        }
                        let Some(sync) = decode_frame::<SmrMsg<Batch<V>>>(&frame) else {
                            continue; // garbage from a Byzantine peer
                        };
                        // Transport-level sender authentication.
                        if sync.sender() != sender {
                            continue;
                        }
                        Some((sender, sync))
                    }
                    None => None,
                },
            };
            let Some((sender, sync)) = got else {
                if all_live_heard || Instant::now() >= round_deadline {
                    break;
                }
                continue;
            };
            // Any authenticated frame is a liveness signal.
            last_heard[sender.index()] = last_heard[sender.index()].max(r);
            peers.heard(sender.index(), r);
            if tracer.enabled() && !heard_from[sender.index()] {
                heard_from[sender.index()] = true;
                tracer.rec(Stage::Order, EventKind::HeardFrom, r, sender.index() as u64);
            }
            let env = match sync {
                SyncFrame::Round(env) => env,
                SyncFrame::SnapshotRequest { have_slot, .. } => {
                    // Describe our snapshot to the laggard (throttled per
                    // sender; a manifest is metadata-only but building a
                    // synthesized fold behind it costs O(state)).
                    if r >= last_served[sender.index()] + SNAPSHOT_PROBE_AFTER / 2 {
                        if let Some(manifest) = hook.serve_manifest(replica, have_slot) {
                            if manifest.upto_slot > have_slot && manifest.consistent() {
                                last_served[sender.index()] = r;
                                stats.snapshots_served += 1;
                                tracer.rec(
                                    Stage::Transfer,
                                    EventKind::ManifestServed,
                                    manifest.upto_slot,
                                    sender.index() as u64,
                                );
                                let resp = SyncFrame::<SmrMsg<Batch<V>>>::Manifest {
                                    sender: me,
                                    manifest,
                                };
                                transport.send(sender, resp.to_bytes());
                            }
                        }
                    }
                    continue;
                }
                SyncFrame::Manifest { manifest, .. } => {
                    // Tally consistent manifests that extend our log; the
                    // fetch decision happens after the collect step. One
                    // live manifest per sender, and keys the log overtook
                    // are dropped — a Byzantine peer cannot grow this.
                    let floor = replica.committed_slots() as u64;
                    if manifest.upto_slot > floor && manifest.consistent() {
                        manifest_votes.retain(|m, who| {
                            who.remove(sender);
                            !who.is_empty() && m.upto_slot > floor
                        });
                        manifest_votes.entry(manifest).or_default().insert(sender);
                    }
                    continue;
                }
                SyncFrame::ChunkRequest {
                    upto_slot, index, ..
                } => {
                    // Serve one chunk (budgeted per sender per round).
                    if chunk_budget[sender.index()] < CHUNKS_SERVED_PER_SENDER_PER_ROUND {
                        if let Some(bytes) = hook.serve_chunk(replica, upto_slot, index) {
                            chunk_budget[sender.index()] += 1;
                            stats.chunks_served += 1;
                            meters.chunks_served.inc();
                            tracer.rec(
                                Stage::Transfer,
                                EventKind::ChunkServed,
                                upto_slot,
                                u64::from(index),
                            );
                            let resp = SyncFrame::<SmrMsg<Batch<V>>>::Chunk {
                                sender: me,
                                upto_slot,
                                index,
                                crc: gencon_crypto::crc32::crc32(&bytes),
                                bytes,
                            };
                            transport.send(sender, resp.to_bytes());
                        }
                    }
                    continue;
                }
                SyncFrame::Chunk {
                    upto_slot,
                    index,
                    crc,
                    bytes,
                    ..
                } => {
                    // Feed the active fetch — only the current attempt's
                    // single source is trusted; chunks from anyone else
                    // (or for other snapshots) are dropped unexamined, so
                    // an unsolicited flood from a lying voucher cannot
                    // race honest chunks into the assembly.
                    if let Some(f) = fetch.as_mut() {
                        if f.assembly.manifest().upto_slot == upto_slot
                            && sender == f.source()
                            && f.assembly.accept(index, crc, bytes)
                        {
                            stats.chunks_fetched += 1;
                            meters.chunks_fetched.inc();
                            tracer.rec(
                                Stage::Transfer,
                                EventKind::ChunkFetched,
                                upto_slot,
                                u64::from(index),
                            );
                            f.last_progress = r;
                        }
                    }
                    continue;
                }
            };
            peer_slot_high = peer_slot_high.max(max_slot_of(&env.msg));
            peers.ahead(sender.index(), max_slot_of(&env.msg));
            match env.round.number().cmp(&r) {
                std::cmp::Ordering::Less => {} // closed round: drop
                std::cmp::Ordering::Equal => {
                    // Stamp each first-seen relayed command before the
                    // bundle moves into the heard set — the receive step
                    // below merges fresh relays into the propose queue.
                    if tracer.enabled() {
                        for chunk in env.msg.relays() {
                            for cmd in chunk.commands() {
                                let key = cmd.cmd_key();
                                if merged_seen.insert(key) {
                                    tracer.rec(
                                        Stage::Order,
                                        EventKind::RelayMerged,
                                        key,
                                        sender.index() as u64,
                                    );
                                }
                            }
                        }
                    }
                    heard.put(sender, env.msg);
                    if !quorum_done && heard.count() >= td {
                        quorum_done = true;
                        tracer.rec(
                            Stage::Order,
                            EventKind::QuorumReached,
                            r,
                            sender.index() as u64,
                        );
                    }
                }
                std::cmp::Ordering::Greater => {
                    ahead[sender.index()] = ahead[sender.index()].max(env.round.number());
                    // Bounded buffering: a Byzantine peer cannot grow the
                    // future map without limit — frames past the horizon
                    // are dropped (the `ahead` evidence above is all the
                    // fast-forward rule needs), and within a round each
                    // sender keeps only its latest frame.
                    if env.round.number() <= r + FUTURE_HORIZON {
                        let entry = future.entry(env.round.number()).or_default();
                        if let Some(slot) = entry.iter_mut().find(|(s, _)| *s == sender) {
                            slot.1 = env.msg;
                        } else {
                            entry.push((sender, env.msg));
                        }
                    }
                }
            }
        }
        // A round is "full" when every live sender was heard — but a node
        // that only heard *itself* is isolated, not fast: it backs off
        // (otherwise an isolated node would spin rounds at the minimum
        // deadline, racing its round counter ahead of the real cluster).
        let solo = heard.count() <= 1 && n > 1;
        if heard.count() >= live_senders(&last_heard, r) && !solo {
            deadline.on_full_round(started.elapsed());
            stats.full_rounds += 1;
        } else {
            deadline.on_timeout();
            stats.timeouts += 1;
            meters.timeouts.inc();
            tracer.rec(Stage::Order, EventKind::Timeout, r, armed_deadline_us);
        }
        // Publish liveness edges: a peer crossing the grace window is
        // written off (and traced) once, not every round; any frame
        // re-enrolls it via `peers.heard` above.
        for p in (0..n).filter(|&p| p != me.index()) {
            let live = last_heard[p] + LIVENESS_GRACE >= r;
            if was_live[p] && !live {
                peers.write_off(p);
                tracer.rec(
                    Stage::Peer,
                    EventKind::PeerWrittenOff,
                    p as u64,
                    last_heard[p],
                );
            } else if live && !was_live[p] {
                tracer.rec(Stage::Peer, EventKind::PeerReEnrolled, p as u64, r);
            }
            was_live[p] = live;
        }

        // --- chunked state transfer: pick a b + 1-vouched manifest, pull
        // its chunks across rounds, install once SHA-verified ---
        let commit_point = replica.committed_slots() as u64;
        if fetch
            .as_ref()
            .is_some_and(|f| f.assembly.manifest().upto_slot <= commit_point)
        {
            fetch = None; // the log overtook the snapshot being fetched
        }
        if let Some(f) = fetch.as_mut() {
            if r.saturating_sub(f.last_progress) > FETCH_STALL_ROUNDS {
                // The current source stopped serving; rotate to the next
                // voucher, discarding its chunks so the next attempt
                // stays single-source (a silent-then-lying voucher must
                // not leave poisoned chunks behind for an honest source
                // to complete around). Once every voucher was tried
                // twice the manifest itself is stale (everyone
                // superseded it) — drop it and re-learn from fresh
                // requests.
                f.assembly.clear();
                f.attempt += 1;
                f.last_progress = r;
                if f.attempt > 2 * f.voters.len() {
                    manifest_votes.remove(f.assembly.manifest());
                    fetch = None;
                }
            }
        }
        if fetch.is_none() {
            let vouched = manifest_votes
                .iter()
                .filter(|(m, who)| who.len() >= ff_threshold && m.upto_slot > commit_point)
                .max_by_key(|(m, _)| m.upto_slot)
                .map(|(m, who)| (*m, *who));
            if let Some((manifest, voters)) = vouched {
                match ChunkAssembly::new(manifest) {
                    Some(assembly) => {
                        fetch = Some(Fetch {
                            assembly,
                            voters: voters.iter().collect(),
                            attempt: 0,
                            last_progress: r,
                        });
                    }
                    None => {
                        manifest_votes.remove(&manifest);
                    }
                }
            }
        }
        let mut assembled: Option<(SnapshotManifest, Vec<u8>)> = None;
        let mut abandon = false;
        if let Some(f) = fetch.as_mut() {
            match f.assembly.finish() {
                AssemblyOutcome::Done(state) => {
                    assembled = Some((*f.assembly.manifest(), state));
                }
                AssemblyOutcome::Corrupt => {
                    // This attempt's source served lying chunks (CRC
                    // fine, SHA wrong); the assembly discarded everything
                    // — rotate to the next voucher for a clean attempt,
                    // with the same twice-around abandonment bound as
                    // the stall path.
                    f.attempt += 1;
                    f.last_progress = r;
                    abandon = f.attempt > 2 * f.voters.len();
                }
                AssemblyOutcome::Incomplete => {
                    // Resumable pull: re-request a few missing indices
                    // from this attempt's source.
                    let dest = f.source();
                    let upto_slot = f.assembly.manifest().upto_slot;
                    for index in f.assembly.missing(CHUNK_REQUESTS_PER_ROUND) {
                        let req = SyncFrame::<SmrMsg<Batch<V>>>::ChunkRequest {
                            sender: me,
                            upto_slot,
                            index,
                        };
                        transport.send(dest, req.to_bytes());
                    }
                }
            }
        }
        if abandon {
            if let Some(f) = fetch.take() {
                manifest_votes.remove(f.assembly.manifest());
            }
        }
        if let Some((manifest, state)) = assembled {
            fetch = None;
            let mut buf = Bytes::from(state.clone());
            let decoded = FoldedState::<V>::decode(&mut buf).ok();
            let installed = decoded.as_ref().is_some_and(|fs| {
                replica.install_folded(&fs.dedup, fs.applied_len, manifest.upto_slot, r)
            });
            if installed {
                stats.snapshots_installed += 1;
                tracer.rec(
                    Stage::Transfer,
                    EventKind::SnapshotInstalled,
                    manifest.upto_slot,
                    state.len() as u64,
                );
                let fs = decoded.expect("installed implies decoded");
                hook.snapshot_installed(&manifest, &state, &fs, replica);
                manifest_votes.clear();
                stall_rounds = 0;
            } else {
                // A vouched-but-undecodable (or non-extending) state:
                // drop the manifest so the fetch is not retried verbatim
                // forever.
                manifest_votes.remove(&manifest);
            }
        }

        // --- transition step ---
        let committed_before = replica.committed_slots() as u64;
        replica.receive(round, &heard);
        if tracer.enabled() {
            for slot in committed_before..replica.committed_slots() as u64 {
                tracer.rec(Stage::Order, EventKind::Decided, slot, r);
            }
        }
        hook.after_round(r, replica);
        stats.rounds += 1;
        stats.last_round = r;
        meters.rounds.inc();
        meters.round_us.record(started.elapsed().as_micros() as u64);
        meters.round_now.set(r);
        meters.committed_now.set(replica.committed_slots() as u64);
        meters.applied_now.set(replica.applied_len() as u64);
        meters.queued_now.set(replica.queued() as u64);

        // --- laggard probe: stalled while peers work slots far ahead ⇒
        // the gap outran the claim horizon; ask for a snapshot ---
        let committed_now = replica.committed_slots() as u64;
        if committed_now > last_commit_len {
            last_commit_len = committed_now;
            stall_rounds = 0;
        } else {
            stall_rounds += 1;
        }
        if stall_rounds >= SNAPSHOT_PROBE_AFTER
            && stall_rounds.is_multiple_of(SNAPSHOT_PROBE_AFTER)
            && peer_slot_high >= committed_now + SNAPSHOT_GAP_MIN
        {
            stats.snapshot_requests += 1;
            tracer.rec(
                Stage::Transfer,
                EventKind::SnapshotRequested,
                committed_now,
                peer_slot_high,
            );
            let frame = SyncFrame::<SmrMsg<Batch<V>>>::SnapshotRequest {
                sender: me,
                have_slot: committed_now,
            }
            .to_bytes();
            for d in (0..n).map(ProcessId::new).filter(|&d| d != me) {
                transport.send(d, frame.clone());
            }
        }

        if debug_pacing() && stats.rounds % 64 == 0 {
            eprintln!(
                "[node {me}] round {r}: applied {} slots {} queued {} deadline {:?} \
                 (full {} timeout {} ff {})",
                replica.applied_len(),
                replica.committed_slots(),
                replica.queued(),
                deadline.current(),
                stats.full_rounds,
                stats.timeouts,
                stats.fast_forwards,
            );
        }

        if hook.should_stop(replica) {
            break;
        }
        if let Some(target) = cfg.stop_after_commands {
            if replica.applied_len() >= target {
                break;
            }
        }
        r += 1;
    }
    stats
}

fn decode_frame<M: Wire>(frame: &Bytes) -> Option<SyncFrame<M>> {
    let mut buf = frame.clone();
    SyncFrame::decode(&mut buf).ok()
}

/// The highest slot a round bundle references (slots, claims or the
/// implied next slot): how far its sender's log demonstrably extends.
fn max_slot_of<V>(msg: &SmrMsg<V>) -> u64 {
    msg.iter()
        .map(|(s, _)| s)
        .chain(msg.claims().iter().map(|(s, _)| *s))
        .max()
        .unwrap_or(0)
}

/// Whether `GENCON_NODE_DEBUG` asks for per-node pacing traces on stderr.
fn debug_pacing() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("GENCON_NODE_DEBUG").is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_algos::{paxos, pbft};
    use gencon_net::ChannelTransport;
    use std::time::Duration;

    fn small_cfg(max_rounds: u64) -> ServerConfig {
        ServerConfig {
            initial_round_timeout: Duration::from_millis(30),
            min_round_timeout: Duration::from_millis(1),
            max_round_timeout: Duration::from_millis(300),
            max_rounds,
            stop_after_commands: None,
        }
    }

    /// Submits a fixed command block up front, then keeps the node alive
    /// (helping laggards) until *every* node reached the target — the
    /// cluster-wide analogue of the decided-engine linger.
    struct TestLoad {
        id: usize,
        submit: usize,
        target: usize,
        fed: bool,
        marked_done: bool,
        done: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        n: usize,
    }

    impl NodeHook<u64> for TestLoad {
        fn before_round(&mut self, _round: u64, replica: &mut BatchingReplica<u64>) {
            if !self.fed {
                self.fed = true;
                replica
                    .submit_all((0..self.submit as u64).map(|k| (self.id as u64) * 1_000_000 + k));
            }
        }

        fn should_stop(&mut self, replica: &BatchingReplica<u64>) -> bool {
            if !self.marked_done && replica.applied().len() >= self.target {
                self.marked_done = true;
                self.done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            self.done.load(std::sync::atomic::Ordering::SeqCst) >= self.n
        }
    }

    fn spawn_cluster(
        n: usize,
        specs: Vec<BatchingReplica<u64>>,
        cfg: ServerConfig,
        submit_per_node: usize,
        target: usize,
    ) -> Vec<(BatchingReplica<u64>, NodeStats)> {
        let done = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mesh = ChannelTransport::mesh(n);
        let handles: Vec<_> = specs
            .into_iter()
            .zip(mesh)
            .enumerate()
            .map(|(i, (replica, tr))| {
                let hook = TestLoad {
                    id: i,
                    submit: submit_per_node,
                    target,
                    fed: false,
                    marked_done: false,
                    done: std::sync::Arc::clone(&done),
                    n,
                };
                std::thread::spawn(move || {
                    let (rep, _tr, stats, _hook) =
                        run_smr_node_observed(replica, tr, cfg, hook, None, None, None);
                    (rep, stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn paxos_channel_cluster_commits_and_agrees() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let replicas: Vec<_> = (0..3)
            .map(|i| {
                BatchingReplica::new(ProcessId::new(i), spec.params.clone(), 8, usize::MAX)
                    .unwrap()
                    .with_window(2)
            })
            .collect();
        let out = spawn_cluster(3, replicas, small_cfg(4_000), 24, 48);
        let reference: Vec<u64> = out[0].0.applied().to_vec();
        assert!(reference.len() >= 48, "committed {}", reference.len());
        for (rep, stats) in &out {
            let log = rep.applied();
            let common = log.len().min(reference.len());
            assert_eq!(&log[..common], &reference[..common], "prefix agreement");
            assert!(stats.rounds > 0);
        }
    }

    #[test]
    fn pbft_channel_cluster_commits_and_agrees() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let replicas: Vec<_> = (0..4)
            .map(|i| {
                BatchingReplica::new(ProcessId::new(i), spec.params.clone(), 8, usize::MAX)
                    .unwrap()
                    .with_window(2)
            })
            .collect();
        let out = spawn_cluster(4, replicas, small_cfg(4_000), 16, 32);
        let reference: Vec<u64> = out[0].0.applied().to_vec();
        assert!(reference.len() >= 32);
        for (rep, _) in &out {
            let log = rep.applied();
            let common = log.len().min(reference.len());
            assert_eq!(&log[..common], &reference[..common]);
        }
    }

    /// With one node down, rounds must not degenerate to waiting the full
    /// (max) deadline forever: after the liveness grace the dead sender is
    /// written off, the survivors' rounds count as full and the adaptive
    /// deadline re-shrinks. The cluster is supposed to keep *serving* with
    /// up to f nodes down, not limp at one round per max-timeout.
    #[test]
    fn pacing_recovers_when_one_node_is_down() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        // Node 3 never runs: its channel endpoint is silently dropped.
        let mut mesh = ChannelTransport::mesh(4);
        mesh.truncate(3);
        let done = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let handles: Vec<_> = mesh
            .into_iter()
            .enumerate()
            .map(|(i, tr)| {
                let params = spec.params.clone();
                // Enough work that the run extends well past the
                // LIVENESS_GRACE window in which the dead node still
                // counts toward the full-round expectation.
                let hook = TestLoad {
                    id: i,
                    submit: 80,
                    target: 240,
                    fed: false,
                    marked_done: false,
                    done: std::sync::Arc::clone(&done),
                    n: 3,
                };
                std::thread::spawn(move || {
                    let replica = BatchingReplica::new(ProcessId::new(i), params, 8, usize::MAX)
                        .unwrap()
                        .with_window(2);
                    let cfg = ServerConfig {
                        initial_round_timeout: Duration::from_millis(10),
                        min_round_timeout: Duration::from_millis(1),
                        max_round_timeout: Duration::from_millis(50),
                        max_rounds: 5_000,
                        stop_after_commands: None,
                    };
                    run_smr_node_observed(replica, tr, cfg, hook, None, None, None)
                })
            })
            .collect();
        let out: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (rep, _t, stats, _hook) in &out {
            assert!(
                rep.applied().len() >= 240,
                "3 live of 4 (= n − b) keep committing, got {}",
                rep.applied().len()
            );
            // Once the grace window wrote node 3 off, rounds complete at
            // the live count: most rounds are full, not timeouts.
            assert!(
                stats.full_rounds > stats.timeouts,
                "pacing must recover: {} full vs {} timeouts over {} rounds",
                stats.full_rounds,
                stats.timeouts,
                stats.rounds
            );
        }
    }

    #[test]
    fn traced_cluster_records_quorum_telemetry() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let done = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mesh = ChannelTransport::mesh(3);
        let handles: Vec<_> = mesh
            .into_iter()
            .enumerate()
            .map(|(i, tr)| {
                let params = spec.params.clone();
                let hook = TestLoad {
                    id: i,
                    submit: 12,
                    target: 36,
                    fed: false,
                    marked_done: false,
                    done: std::sync::Arc::clone(&done),
                    n: 3,
                };
                std::thread::spawn(move || {
                    let replica = BatchingReplica::new(ProcessId::new(i), params, 8, usize::MAX)
                        .unwrap()
                        .with_window(2);
                    let rec = FlightRecorder::new(65_536);
                    run_smr_node_observed(
                        replica,
                        tr,
                        small_cfg(4_000),
                        hook,
                        None,
                        Some(&rec),
                        None,
                    );
                    rec
                })
            })
            .collect();
        for rec in handles.into_iter().map(|h| h.join().unwrap()) {
            let events = rec.tail(usize::MAX);
            // Every sender heard in a round is attributed, the quorum
            // completion instant is stamped, and both carry peer ids
            // inside the cluster.
            let heard: Vec<_> = events
                .iter()
                .filter(|e| e.kind == EventKind::HeardFrom)
                .collect();
            let quorum: Vec<_> = events
                .iter()
                .filter(|e| e.kind == EventKind::QuorumReached)
                .collect();
            assert!(!heard.is_empty(), "no HeardFrom events recorded");
            assert!(!quorum.is_empty(), "no QuorumReached events recorded");
            assert!(heard
                .iter()
                .all(|e| e.detail < 3 && e.stage == Stage::Order));
            assert!(quorum.iter().all(|e| e.detail < 3));
            // The round-scoped marks must join onto decided slots.
            let spans = gencon_trace::assemble_spans(&events);
            assert!(!spans.is_empty());
            assert!(
                spans.iter().any(|s| s.quorum_ts_us.is_some()),
                "no span joined a quorum mark"
            );
            // Causality on one clock: the quorum completes (and the
            // round's first frame arrives) before the decide lands.
            // Note first-heard may trail quorum — buffered frames from
            // an earlier window can hold a full quorum at round entry.
            for s in &spans {
                let d = s.decided_ts_us.unwrap();
                for ts in [s.first_heard_ts_us, s.quorum_ts_us].into_iter().flatten() {
                    assert!(ts <= d, "quorum mark after decide in slot {}", s.slot);
                }
            }
            // Satellite: timeouts and round advances carry the armed
            // adaptive deadline (µs), which is always ≥ the 1ms floor.
            for e in events
                .iter()
                .filter(|e| e.kind == EventKind::RoundAdvance || e.kind == EventKind::Timeout)
            {
                assert!(
                    e.detail >= 1_000,
                    "{:?} detail {} below the min deadline",
                    e.kind,
                    e.detail
                );
            }
        }
    }

    #[test]
    fn stats_track_rounds() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let replicas: Vec<_> = (0..3)
            .map(|i| {
                BatchingReplica::new(ProcessId::new(i), spec.params.clone(), 4, usize::MAX).unwrap()
            })
            .collect();
        let out = spawn_cluster(3, replicas, small_cfg(500), 4, 8);
        for (_, stats) in &out {
            assert!(stats.last_round >= stats.rounds.saturating_sub(1));
            assert_eq!(stats.fast_forwards, 0, "no restarts in this run");
        }
    }
}
