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
//!   trigger a jump. Their buffered frames are dropped, but not the
//!   relays they carry: a command is relayed once, so the jumping node
//!   merges those relays into its proposal queue first. From the new
//!   round the existing catch-up machinery takes over: peers answer the
//!   laggard's stale-slot bundles with decision claims, and `b + 1`
//!   concordant claims commit any missed prefix ([`gencon_smr`]'s
//!   certificate path).
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
//! * **Quiescence** — rounds are a logical clock, not a wall-clock
//!   obligation. While the replica is [quiescent] (nothing queued, open,
//!   lingering or claimed, no demand), no fetch is active and no buffered
//!   frame carries work, the loop holds its round number and blocks on
//!   its inbox. A peer frame wakes it, and so does a wake-up: an empty
//!   frame the node pushes into its own inbox. The client gateway rings
//!   that wake-up on every submission, so an idle node starts a round for
//!   the first command at once. Besides, the hook is polled every
//!   `IDLE_POLL` (50 ms): `before_round` for hooks that submit on their
//!   own, `should_stop` to end the run. A submission, or a peer frame
//!   with slots, relays or claims the node needs, starts the round; an
//!   empty bundle only refreshes liveness and waits in the heard set.
//!   Every round sends a bundle, empty or not, so a peer woken by another
//!   node's frame completes the round instead of timing out. A frame two or more rounds old (a node
//!   restarted into an idle cluster) wakes the node for one round whose
//!   bundle claims the last committed slot: the rejoining node learns the
//!   log's head from it and catches up by claims or state transfer. A
//!   node also runs one round at start-up, so its first frame announces
//!   it.
//! * **Hooks** — a [`NodeHook`] injects client submissions before each
//!   round, harvests commits after it, and serves/persists snapshots; the
//!   TCP client gateway and the durability layer are both hooks.
//!
//! [quiescent]: BatchingReplica::is_quiescent
//! [`SnapshotManifest`]: gencon_net::SnapshotManifest
//! [`ChunkRequest`]: gencon_net::SyncFrame::ChunkRequest
//! [`FoldedState`]: gencon_net::FoldedState

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel;

use gencon_metrics::{Counter, Gauge, Histogram, Registry};
use gencon_net::wire::Wire;
use gencon_net::wire_sync::{
    AssemblyOutcome, ChunkAssembly, FoldedState, SnapshotManifest, SyncFrame,
};
use gencon_net::{RecvHalf, Transport};
use gencon_rounds::{HeardOf, Outgoing, RoundProcess};
use gencon_smr::{Batch, BatchingReplica, SmrMsg};
use gencon_trace::{EventKind, FlightRecorder, PeerTable, Stage, Tracer};
use gencon_types::{ProcessId, ProcessSet, Round, Value};

use crate::config::ServerConfig;
use crate::deadline::AdaptiveDeadline;

/// Per-round callbacks around the replica, with typed mutable access.
///
/// All methods default to no-ops; implement whichever sides you need.
/// Closures `FnMut(u64, &mut BatchingReplica<V>)` work as before-round
/// hooks.
pub trait NodeHook<V: Value>: Send {
    /// Called before the round's send step — the place to drain client
    /// submissions into the replica. While the node is quiescent it is
    /// also called whenever the node is woken and at least every
    /// `IDLE_POLL` (50 ms) with the same `round`, so a submission can
    /// start the next round. The client gateway wakes the node on each
    /// submission; a hook that submits on its own is seen within one
    /// `IDLE_POLL`.
    fn before_round(&mut self, round: u64, replica: &mut BatchingReplica<V>) {
        let _ = (round, replica);
    }

    /// Called after the round's transition step — the place to harvest
    /// newly applied commands (acks, latency accounting).
    fn after_round(&mut self, round: u64, replica: &mut BatchingReplica<V>) {
        let _ = (round, replica);
    }

    /// Polled once per round after [`NodeHook::after_round`], and with
    /// every idle poll while the node is quiescent (at least every
    /// `IDLE_POLL`, 50 ms); returning `true` stops the loop. The default
    /// runs until [`ServerConfig::max_rounds`] — and idle time consumes no
    /// rounds, so a hook that never stops runs an idle node forever.
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

/// A hook that does nothing: the node orders what its peers relay.
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

/// How often a quiescent order loop polls the hook while it waits for a
/// frame or a wake-up: `before_round` for hooks that submit on their own
/// (the gateway wakes the loop instead), `should_stop` for shutdown.
const IDLE_POLL: Duration = Duration::from_millis(50);

thread_local! {
    /// The running order loop's waker, published for hooks on the same
    /// thread (see [`published_waker`]); set when the loop starts and
    /// cleared when it returns.
    static WAKER: std::cell::RefCell<Option<Waker>> = const { std::cell::RefCell::new(None) };
}

/// Wakes a quiescent order loop from another thread by pushing an empty
/// frame into its inbox. It rings only while the loop is armed — from
/// just before an idle hook poll until the next wake-up — so a busy node
/// gets no extra frames.
#[derive(Clone)]
pub(crate) struct Waker {
    tx: channel::Sender<(ProcessId, Bytes)>,
    me: ProcessId,
    armed: Arc<AtomicBool>,
}

// The caller of `wake` has just queued a submission; the loop arms and
// then drains the submission queue. The SeqCst fences order each side's
// write before its read, so either the drain sees the submission or
// `wake` sees the flag set: a submission never waits for the next poll.
impl Waker {
    /// Wakes the loop if it is waiting for work.
    pub(crate) fn wake(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.armed.swap(false, Ordering::SeqCst) {
            // A full inbox wakes the loop anyway.
            let _ = self.tx.try_send((self.me, Bytes::new()));
        }
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Whether both handles wake the same loop.
    pub(crate) fn same(&self, other: &Waker) -> bool {
        Arc::ptr_eq(&self.armed, &other.armed)
    }
}

/// The waker of the order loop running on this thread, unless it is
/// `seen` already. Hooks run on the order thread, so the client gateway
/// picks it up here without a hook method of its own.
pub(crate) fn published_waker(seen: Option<&Waker>) -> Option<Waker> {
    WAKER.with(|cell| {
        cell.borrow()
            .as_ref()
            .filter(|w| !seen.is_some_and(|s| s.same(w)))
            .cloned()
    })
}

/// Per-stage instrument handles resolved once per node run.
struct NodeMeters {
    /// Frames decoded and sender-authenticated on the order thread.
    frames: Counter,
    /// Frames the transport shed at its full inbox.
    dropped: Counter,
    decode_errors: Counter,
    /// Inbox depth sampled at every dequeue — a histogram, so
    /// `ingest.queue_depth` p99 reflects the whole run.
    queue_depth: Histogram,
    /// Inbox depth now, for the admin `status` command.
    queue_depth_now: Gauge,
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
            frames: reg.counter("ingest.frames"),
            dropped: reg.counter("ingest.dropped"),
            decode_errors: reg.counter("ingest.decode_errors"),
            queue_depth: reg.histogram("ingest.queue_depth"),
            queue_depth_now: reg.gauge("ingest.queue_depth_now"),
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

/// Drives `replica` over `transport` until the hook stops it or
/// `cfg.max_rounds` elapse. Returns the replica (its applied log is the
/// result), the transport (reusable — e.g. to restart a node on the same
/// endpoint after a simulated crash), run statistics, and the hook (so
/// callers can read its end state — gateway counters, WAL statistics).
///
/// The three optional observers are independent:
///
/// * `metrics` receives the per-stage instruments (`ingest.*` for frame
///   decoding and the transport inbox, `order.*`, `transfer.*`; the
///   durable and gateway hooks add `persist.*`, `apply.*` and `ack.*`
///   when built with the same registry). With `None` the node meters into a private throwaway
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
/// socket → transport inbox → [order] → hook stages
///          (bounded; sheds    decode,   (gateway delivery: apply + ack;
///           on overflow)      auth,      durable: persist — see the
///                             rounds,    gateway & durable hooks)
///                             folds
/// ```
///
/// Each frame makes one thread hop: from the transport's socket reader
/// into its inbox. The **order** stage — this thread — takes the
/// transport's receive half ([`Transport::split_recv`]; a transport that
/// cannot split one off is refused with a panic), decodes and
/// sender-authenticates each frame inline, runs the consensus rounds and
/// drives the hook; it stays single-threaded and deterministic. A full
/// inbox sheds fresh frames at the transport (`ingest.dropped`), as a
/// congested link would. On exit [`NodeHook::finish`] drains the
/// downstream stages and the receive half is restored into the transport.
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
    V: Value + Wire,
    T: Transport,
    H: NodeHook<V>,
{
    let scratch = Registry::new();
    let meters = NodeMeters::new(metrics.unwrap_or(&scratch));
    let tracer = Tracer::new(trace.cloned());
    let peers = peers.cloned().unwrap_or_default();
    let half = transport
        .split_recv()
        .expect("the order loop needs a transport whose receive half splits off");
    let waker = Waker {
        tx: half.waker(),
        me: transport.local(),
        armed: Arc::default(),
    };
    let stats = order_loop(
        &mut replica,
        &mut transport,
        &cfg,
        &mut hook,
        &half,
        &waker,
        &meters,
        &tracer,
        &peers,
    );
    hook.finish(&mut replica);
    transport.restore_recv(half);
    (replica, transport, stats, hook)
}

/// The order stage: the deterministic, single-threaded consensus round
/// loop. Receives from the split-off `inbox`, which `waker` feeds too,
/// and decodes every frame inline.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn order_loop<V, T, H>(
    replica: &mut BatchingReplica<V>,
    transport: &mut T,
    cfg: &ServerConfig,
    hook: &mut H,
    inbox: &RecvHalf,
    waker: &Waker,
    meters: &NodeMeters,
    tracer: &Tracer,
    peers: &PeerTable,
) -> NodeStats
where
    V: Value + Wire,
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
    // The wake-up path into our own inbox, published for the hook.
    WAKER.with(|cell| *cell.borrow_mut() = Some(waker.clone()));
    // Inbox drops already reported into `ingest.dropped`.
    let mut dropped_seen = inbox.dropped();
    let mut sample_inbox = || {
        meters.queue_depth_now.set(inbox.len() as u64);
        let dropped = inbox.dropped();
        if dropped > dropped_seen {
            meters.dropped.add(dropped - dropped_seen);
            tracer.rec(Stage::Ingest, EventKind::Shed, 0, dropped - dropped_seen);
            dropped_seen = dropped;
        }
    };

    let mut r: u64 = 1;
    // A node runs at least one round at start-up: a restarted node's
    // first frame is how a quiescent cluster learns it is back.
    let mut startup = true;
    'rounds: while r <= cfg.max_rounds {
        let round = Round::new(r);
        let commit_point = replica.committed_slots() as u64;
        // Frames buffered for this round open its heard set.
        let mut heard: HeardOf<SmrMsg<Batch<V>>> = HeardOf::empty(n);
        if let Some(buffered) = future.remove(&r) {
            for (sender, msg) in buffered {
                heard.put(sender, msg);
            }
        }
        chunk_budget.iter_mut().for_each(|b| *b = 0);
        // Quorum telemetry: who this round heard from (first frame per
        // sender) and the instant the TD-th concordant message landed.
        let mut heard_from: Vec<bool> = vec![false; n];
        let mut quorum_done = false;

        // --- quiescence: hold the round while there is nothing to order ---
        // The receive loop below then only serves transfer frames and
        // buffers round frames, polling the hook every IDLE_POLL (client
        // submissions, shutdown), until a submission or a frame that
        // carries work starts the round. Idle time consumes no rounds.
        let mut idle = !startup
            && fetch.is_none()
            && replica.is_quiescent()
            && !heard
                .iter()
                .chain(future.values().flatten().map(|(s, m)| (*s, m)))
                .any(|(_, m)| carries_work(m, commit_point));
        startup = false;
        let mut next_poll = Instant::now();
        // Whether `before_round` already ran for this round's send step.
        let mut polled = false;
        // Woken by a frame from a node two or more rounds behind (a
        // restart): this round's bundle carries a claim for our last
        // committed slot, which tells that node where the log's head is.
        let mut head_claim = false;
        // (round start, collect deadline, armed deadline µs) once sent.
        let mut clock: Option<(Instant, Instant, u64)> = None;
        // Bounds the zero-timeout drain below so a flooding peer cannot
        // pin the loop in one round forever.
        let mut drain_budget = 16 * n;
        loop {
            if idle && Instant::now() >= next_poll {
                // Armed before the drain: a submission that misses it
                // rings the waker.
                waker.arm();
                hook.before_round(r, replica);
                if stop_requested(hook, replica, cfg) {
                    break 'rounds;
                }
                sample_inbox();
                next_poll = Instant::now() + IDLE_POLL;
                idle = replica.is_quiescent();
                polled = !idle;
            }
            if !idle && clock.is_none() {
                // Fast-forward: the (b+1)-th largest per-sender future
                // round is vouched for by at least one honest process.
                let mut tops = ahead.clone();
                tops.sort_unstable_by(|a, b| b.cmp(a));
                if let Some(&target) = tops.get(ff_threshold - 1) {
                    if target > r {
                        stats.fast_forwards += 1;
                        meters.fast_forwards.inc();
                        // Rounds below the jump are closed without
                        // executing; their relays still join the queue.
                        future = skip_rounds(replica, &heard, future, target);
                        r = target;
                        continue 'rounds;
                    }
                }

                let armed_deadline_us = deadline.current().as_micros() as u64;
                tracer.rec(Stage::Order, EventKind::RoundAdvance, r, armed_deadline_us);
                if !polled {
                    hook.before_round(r, replica);
                }

                // --- send step ---
                let mut bundle = match replica.send(round) {
                    Outgoing::Broadcast(m) => m,
                    // An empty bundle still goes out: a peer woken by
                    // another node's frame completes the round on it
                    // instead of waiting out its deadline. It carries our
                    // watermark, like every bundle.
                    Outgoing::Silent => {
                        let mut empty = SmrMsg::new();
                        empty.set_watermark(replica.committed_slots() as u64);
                        empty
                    }
                    Outgoing::Multicast { .. } | Outgoing::PerDest(_) => {
                        unreachable!("a batching replica only broadcasts")
                    }
                };
                if head_claim {
                    let committed = replica.committed_slots() as u64;
                    if let (Some(head), Some(batch)) =
                        (committed.checked_sub(1), replica.committed_batches().last())
                    {
                        bundle.push_claim(head, batch.clone());
                    }
                }
                let frame = SyncFrame::encode_round(me, round, &bundle);
                for d in (0..n).map(ProcessId::new).filter(|&d| d != me) {
                    transport.send(d, frame.clone());
                }
                // Stamps `Proposed` once per new slot in the outgoing bundle.
                if tracer.enabled() {
                    for (slot, _) in bundle.iter() {
                        if slot >= proposed_next {
                            tracer.rec(Stage::Order, EventKind::Proposed, slot, r);
                        }
                    }
                    if let Some(high) = bundle.max_slot() {
                        proposed_next = proposed_next.max(high + 1);
                    }
                }
                heard.put(me, bundle);
                last_heard[me.index()] = r;
                quorum_done = heard.count() >= td;
                if quorum_done {
                    // Our own bundle plus frames that arrived before the
                    // send step already held a quorum; attribute the
                    // completion to ourselves.
                    tracer.rec(Stage::Order, EventKind::QuorumReached, r, me.index() as u64);
                }
                let started = Instant::now();
                clock = Some((started, started + deadline.current(), armed_deadline_us));
            }

            // --- collect step (or idle wait) ---
            let (wait, drain) = match clock {
                // Idle: sleep until the next hook poll unless a frame comes.
                None => (next_poll.saturating_duration_since(Instant::now()), false),
                Some((_, round_deadline, _)) => {
                    if heard.count() >= n {
                        break;
                    }
                    // Once every *live* sender was heard (or the deadline
                    // hit), stop waiting — but keep draining frames
                    // already queued with a zero timeout: a written-off
                    // sender's buffered frames are the only way it can
                    // re-enroll, so skipping the inbox entirely would
                    // leave a fast-forwarded or formerly isolated node
                    // permanently deaf.
                    let now = Instant::now();
                    if heard.count() >= live_senders(&last_heard, r) || now >= round_deadline {
                        if drain_budget == 0 {
                            break;
                        }
                        drain_budget -= 1;
                        (Duration::ZERO, true)
                    } else {
                        (round_deadline - now, false)
                    }
                }
            };
            let Some((sender, frame)) = inbox.recv_timeout(wait) else {
                if clock.is_some_and(|(_, dl, _)| drain || Instant::now() >= dl) {
                    break;
                }
                continue;
            };
            if frame.is_empty() && sender == me {
                // Our own wake-up: poll the hook now if idle.
                if idle {
                    next_poll = Instant::now();
                }
                continue;
            }
            if sender.index() >= n {
                continue;
            }
            // Transport-level sender authentication: the frame must
            // claim the sender its connection is pinned to.
            let Some(sync) =
                decode_frame::<SmrMsg<Batch<V>>>(&frame).filter(|f| f.sender() == sender)
            else {
                meters.decode_errors.inc(); // garbage from a Byzantine peer
                continue;
            };
            meters.frames.inc();
            let depth = inbox.len() as u64;
            meters.queue_depth.record(depth);
            tracer.rec(Stage::Ingest, EventKind::Ingested, 0, depth);
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
            let high = env.msg.max_slot().unwrap_or(0);
            peer_slot_high = peer_slot_high.max(high);
            peers.ahead(sender.index(), high);
            match env.round.number().cmp(&r) {
                std::cmp::Ordering::Less => {
                    // Closed round: drop. A frame two or more rounds old
                    // is a node rejoining (a restart): wake for one round
                    // and answer with the log's head. One round old is
                    // just a slower peer finishing the round we left.
                    if idle && env.round.number() + 1 < r {
                        idle = false;
                        head_claim = true;
                    }
                }
                std::cmp::Ordering::Equal => {
                    // An empty bundle (or claims we are past) does not
                    // start an idle round; it waits in the heard set.
                    idle &= !carries_work(&env.msg, commit_point);
                    heard.put(sender, env.msg);
                    if clock.is_some() && !quorum_done && heard.count() >= td {
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
                    idle &= !carries_work(&env.msg, commit_point);
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
        let (started, _, armed_deadline_us) =
            clock.expect("the receive loop ends only after the send step");
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
                replica.install_folded(&fs.dedup, fs.applied_len, manifest.upto_slot)
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
        sample_inbox();
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

        if stop_requested(hook, replica, cfg) {
            break;
        }
        r += 1;
    }
    WAKER.with(|cell| *cell.borrow_mut() = None);
    stats
}

/// Closes every round below `target` without executing it: drops the
/// current round's `heard` set and the buffered frames of the skipped
/// rounds, and returns the frames from `target` on. A relay is sent once,
/// so the dropped bundles' relays are merged into the replica's proposal
/// queue first, in round order and then sender order.
fn skip_rounds<V: Value>(
    replica: &mut BatchingReplica<V>,
    heard: &HeardOf<SmrMsg<Batch<V>>>,
    mut future: FutureFrames<V>,
    target: u64,
) -> FutureFrames<V> {
    let kept = future.split_off(&target);
    for (_, bundle) in heard.iter() {
        replica.merge_relays(bundle.relays());
    }
    for (_, mut frames) in future {
        frames.sort_by_key(|(sender, _)| sender.index());
        for (_, bundle) in &frames {
            replica.merge_relays(bundle.relays());
        }
    }
    kept
}

/// Whether the hook or the `stop_after_commands` budget ends the run.
fn stop_requested<V: Value, H: NodeHook<V>>(
    hook: &mut H,
    replica: &BatchingReplica<V>,
    cfg: &ServerConfig,
) -> bool {
    hook.should_stop(replica)
        || cfg
            .stop_after_commands
            .is_some_and(|target| replica.applied_len() >= target)
}

/// Whether a peer's round bundle gives a quiescent node something to do:
/// slots to vote on or answer with claims, relayed commands, or claims
/// at or above our commit point. Claims below it repeat what we already
/// committed.
fn carries_work<V>(msg: &SmrMsg<V>, commit_point: u64) -> bool {
    msg.slot_count() > 0
        || !msg.relays().is_empty()
        || msg.claims().iter().any(|(s, _)| *s >= commit_point)
}

fn decode_frame<M: Wire>(frame: &Bytes) -> Option<SyncFrame<M>> {
    let mut buf = frame.clone();
    SyncFrame::decode(&mut buf).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_algos::{paxos, pbft};
    use gencon_net::ChannelTransport;
    use std::time::Duration;

    /// The replica's retained applied commands, in log order.
    fn log_of(rep: &BatchingReplica<u64>) -> Vec<u64> {
        rep.applied_from(0)
            .iter()
            .flat_map(|s| s.batch.iter().copied())
            .collect()
    }

    fn small_cfg(max_rounds: u64) -> ServerConfig {
        ServerConfig {
            initial_round_timeout: Duration::from_millis(30),
            min_round_timeout: Duration::from_millis(1),
            max_round_timeout: Duration::from_millis(300),
            max_rounds,
            stop_after_commands: None,
        }
    }

    /// The order loop receives only through a split-off half; a transport
    /// that cannot split one is refused up front.
    #[test]
    #[should_panic(expected = "receive half splits off")]
    fn a_transport_without_a_receive_half_is_refused() {
        struct Whole(ChannelTransport);
        impl Transport for Whole {
            fn local(&self) -> ProcessId {
                self.0.local()
            }
            fn peers(&self) -> usize {
                self.0.peers()
            }
            fn send(&mut self, to: ProcessId, frame: Bytes) {
                self.0.send(to, frame);
            }
            fn recv_timeout(&mut self, timeout: Duration) -> Option<(ProcessId, Bytes)> {
                self.0.recv_timeout(timeout)
            }
            fn split_recv(&mut self) -> Option<RecvHalf> {
                None
            }
            fn restore_recv(&mut self, _half: RecvHalf) {}
        }
        let spec = paxos::<Batch<u64>>(1, 0, ProcessId::new(0)).unwrap();
        let replica = BatchingReplica::new(ProcessId::new(0), spec.params, 4, usize::MAX).unwrap();
        let transport = Whole(ChannelTransport::mesh(1).remove(0));
        let _ = run_smr_node_observed(replica, transport, small_cfg(1), NoHook, None, None, None);
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
            if !self.marked_done && replica.applied_len() >= self.target {
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
        let reference: Vec<u64> = log_of(&out[0].0);
        assert!(reference.len() >= 48, "committed {}", reference.len());
        for (rep, stats) in &out {
            let log = log_of(rep);
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
        let reference: Vec<u64> = log_of(&out[0].0);
        assert!(reference.len() >= 32);
        for (rep, _) in &out {
            let log = log_of(rep);
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
                // counts toward the full-round expectation: two open
                // slots of 8 commands, each deciding in 2 rounds, commit
                // at most 8 commands a round, so 720 take 90 rounds or
                // more.
                let hook = TestLoad {
                    id: i,
                    submit: 240,
                    target: 720,
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
                rep.applied_len() >= 720,
                "3 live of 4 (= n − b) keep committing, got {}",
                rep.applied_len()
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

    /// Ends the run at a wall-clock instant, idle or not.
    struct StopAt(Instant);

    impl NodeHook<u64> for StopAt {
        fn should_stop(&mut self, _replica: &BatchingReplica<u64>) -> bool {
            Instant::now() >= self.0
        }
    }

    /// A node that fast-forwards over a round whose frame relayed a
    /// command still queues the command, and proposes it in the round it
    /// jumps to: a relay is sent only once.
    #[test]
    fn a_fast_forward_keeps_the_skipped_rounds_relays() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let mut mesh = ChannelTransport::mesh(4);
        let mut peers = mesh.split_off(1);
        let node = mesh.remove(0);
        let frame = |sender: usize, round: u64, relay: &[u64]| {
            let mut bundle = SmrMsg::new();
            if !relay.is_empty() {
                bundle.push_relay(Batch::new(relay.to_vec()));
            }
            SyncFrame::encode_round(ProcessId::new(sender), Round::new(round), &bundle)
        };
        // Peers 1 and 2 (b + 1 of them) show round 5, so node 0 jumps
        // there from round 2; peer 1's round-3 frame relayed command 7.
        let to = ProcessId::new(0);
        peers[0].send(to, frame(1, 3, &[7]));
        peers[0].send(to, frame(1, 5, &[]));
        peers[1].send(to, frame(2, 5, &[]));
        let replica = BatchingReplica::new(ProcessId::new(0), spec.params, 4, usize::MAX).unwrap();
        let cfg = ServerConfig {
            initial_round_timeout: Duration::from_millis(20),
            ..small_cfg(5)
        };
        let stop = StopAt(Instant::now() + Duration::from_secs(2));
        let (_replica, _t, stats, _hook) =
            run_smr_node_observed(replica, node, cfg, stop, None, None, None);
        assert_eq!(stats.fast_forwards, 1);
        // Node 0's round-5 bundle opens slot 0 with the relayed command;
        // the first selection round is skipped, so it validates it.
        let mut proposal = None;
        while let Some((_, bytes)) = peers[0].recv_timeout(Duration::ZERO) {
            if let Some(SyncFrame::Round(env)) = decode_frame::<SmrMsg<Batch<u64>>>(&bytes) {
                if env.round == Round::new(5) {
                    proposal = env.msg.slot(0).cloned();
                }
            }
        }
        match proposal {
            Some(gencon_core::ConsensusMsg::Validation(_, v)) => {
                assert_eq!(v.select, Some(Batch::new(vec![7])));
            }
            other => panic!("round 5 proposes no batch for slot 0: {other:?}"),
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

    /// Drives [`idle_cluster_stops_executing_rounds`]: commit a block,
    /// measure 300 ms of idle time once every node went quiescent, then
    /// submit one more command at node 0 and serve until it commits
    /// everywhere.
    struct IdleProbe {
        id: usize,
        block: usize,
        n: usize,
        fed: bool,
        late_fed: bool,
        /// Rounds executed, counted by `after_round`.
        rounds: u64,
        /// `before_round` calls, idle polls included.
        polls: u64,
        /// 0 = block, 1 = waiting for every node to settle, 2 = idle
        /// window, 3 = late command.
        phase: u8,
        /// When the idle window opened, with `rounds` and `polls` then.
        idle_from: Option<(Instant, u64, u64)>,
        /// Rounds executed during the idle window.
        idle_rounds: Option<u64>,
        /// `before_round` calls during the idle window.
        idle_polls: Option<u64>,
        /// Shared counters: block applied, settled, idle window over, late
        /// command applied.
        marks: std::sync::Arc<[std::sync::atomic::AtomicUsize; 4]>,
        give_up: Instant,
    }

    impl IdleProbe {
        fn mark(&self, i: usize) {
            self.marks[i].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }

        fn all(&self, i: usize) -> bool {
            self.marks[i].load(std::sync::atomic::Ordering::SeqCst) >= self.n
        }
    }

    impl NodeHook<u64> for IdleProbe {
        fn before_round(&mut self, _round: u64, replica: &mut BatchingReplica<u64>) {
            self.polls += 1;
            if !self.fed {
                self.fed = true;
                replica.submit_all((0..self.block as u64).map(|k| self.id as u64 * 1_000 + k));
            }
            if self.id == 0 && self.phase == 3 && self.all(2) && !self.late_fed {
                self.late_fed = true;
                replica.submit(999_999);
            }
        }

        fn after_round(&mut self, _round: u64, _replica: &mut BatchingReplica<u64>) {
            self.rounds += 1;
        }

        fn should_stop(&mut self, replica: &BatchingReplica<u64>) -> bool {
            let target = self.n * self.block;
            match self.phase {
                0 if replica.applied_len() >= target => {
                    self.mark(0);
                    self.phase = 1;
                }
                1 if self.all(0) && replica.is_quiescent() => {
                    self.mark(1);
                    self.phase = 2;
                }
                2 if self.all(1) => match self.idle_from {
                    None => self.idle_from = Some((Instant::now(), self.rounds, self.polls)),
                    Some((since, at, polled)) if since.elapsed() >= IDLE_WINDOW => {
                        self.idle_rounds = Some(self.rounds - at);
                        self.idle_polls = Some(self.polls - polled);
                        self.mark(2);
                        self.phase = 3;
                    }
                    Some(_) => {}
                },
                3 if replica.applied_len() > target => {
                    self.mark(3);
                    self.phase = 4;
                }
                _ => {}
            }
            self.all(3) || Instant::now() > self.give_up
        }
    }

    /// The idle window [`IdleProbe`] measures.
    const IDLE_WINDOW: Duration = Duration::from_millis(300);

    /// Once a block commits, the idle cluster stops executing rounds:
    /// `NodeStats.rounds` grows by at most 2 over 300 ms of idle time (it
    /// used to grow by thousands), the hook is polled only every
    /// `IDLE_POLL`, and a submission after the lull still commits
    /// everywhere.
    #[test]
    fn idle_cluster_stops_executing_rounds() {
        let n = 4;
        let spec = pbft::<Batch<u64>>(n, 1).unwrap();
        let marks = std::sync::Arc::new(Default::default());
        let give_up = Instant::now() + Duration::from_secs(60);
        let handles: Vec<_> = ChannelTransport::mesh(n)
            .into_iter()
            .enumerate()
            .map(|(i, tr)| {
                let replica = BatchingReplica::new(ProcessId::new(i), spec.params.clone(), 4, 0)
                    .unwrap()
                    .with_window(2);
                let hook = IdleProbe {
                    id: i,
                    block: 8,
                    n,
                    fed: false,
                    late_fed: false,
                    rounds: 0,
                    polls: 0,
                    phase: 0,
                    idle_from: None,
                    idle_rounds: None,
                    idle_polls: None,
                    marks: std::sync::Arc::clone(&marks),
                    give_up,
                };
                std::thread::spawn(move || {
                    let (rep, _t, stats, hook) = run_smr_node_observed(
                        replica,
                        tr,
                        small_cfg(u64::MAX),
                        hook,
                        None,
                        None,
                        None,
                    );
                    (rep, stats, hook)
                })
            })
            .collect();
        let out: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(Instant::now() < give_up, "the run gave up");
        let reference = log_of(&out[0].0);
        for (rep, stats, hook) in &out {
            assert_eq!(
                stats.rounds, hook.rounds,
                "one after_round per executed round"
            );
            let idle = hook.idle_rounds.expect("the idle window ran");
            assert!(idle <= 2, "{idle} rounds executed over 300 ms of idle time");
            let polls = hook.idle_polls.expect("the idle window ran");
            let bound = (IDLE_WINDOW.as_millis() / IDLE_POLL.as_millis()) as u64 + 2;
            assert!(
                polls <= bound,
                "before_round ran {polls} times over 300 ms of idle time (bound {bound})"
            );
            assert_eq!(rep.applied_len(), 4 * 8 + 1, "the late command commits");
            assert_eq!(log_of(rep), reference);
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
