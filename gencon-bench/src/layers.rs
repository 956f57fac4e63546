//! Timing decorators around each layer's public trait — `Transport`,
//! `Log`, `App` and `NodeHook` — for the node processes.
//!
//! Every decorator forwards straight to the wrapped value while the
//! node's phase is `off` (one relaxed atomic load per call). In the traced
//! run the parent process switches the phase to `idle` or `load`; calls then count
//! into that phase's table (calls, nanoseconds, a unit count such as
//! bytes, and a log-linear histogram of durations), and the first
//! [`SPAN_CAP`] calls are kept as spans — name, node, thread, start, end
//! and the enclosing wrapped call on the same thread as parent — which
//! the node prints when it stops.

use std::cell::RefCell;
use std::io;
use std::sync::atomic::{
    AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst,
};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use gencon_app::{App, AppError, KvApp, KvCmd, KvReply};
use gencon_net::wire_sync::{FoldedState, SnapshotManifest};
use gencon_net::{RecvHalf, Transport};
use gencon_server::NodeHook;
use gencon_smr::BatchingReplica;
use gencon_store::{Log, Slot, Snapshot, SnapshotMeta};
use gencon_types::ProcessId;

use crate::json::quote;
use crate::stats::{bucket_of, BUCKETS};

/// The wrapped calls, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Transport::send`; units = frame bytes.
    Send,
    /// `Log::append`; units = payload bytes.
    Append,
    /// `Log::maybe_sync` calls that fsynced, and `Log::sync`.
    Fsync,
    /// `App::apply`.
    Apply,
    /// `App::fold_snapshot`; units = folded bytes.
    Fold,
    /// `App::restore`.
    Restore,
    /// `NodeHook::before_round`.
    BeforeRound,
    /// `NodeHook::after_round`.
    AfterRound,
    /// One round, `before_round` to the next `before_round` (no span).
    Round,
    /// Commits seen by `NodeHook::after_round`: calls = slots committed,
    /// units = commands applied (no span, no duration).
    Commit,
}

pub const OPS: [Op; 10] = [
    Op::Send,
    Op::Append,
    Op::Fsync,
    Op::Apply,
    Op::Fold,
    Op::Restore,
    Op::BeforeRound,
    Op::AfterRound,
    Op::Round,
    Op::Commit,
];

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Send => "net.send",
            Op::Append => "store.append",
            Op::Fsync => "store.fsync",
            Op::Apply => "app.apply",
            Op::Fold => "app.fold",
            Op::Restore => "app.restore",
            Op::BeforeRound => "server.before_round",
            Op::AfterRound => "server.after_round",
            Op::Round => "server.round",
            Op::Commit => "server.commit",
        }
    }
}

/// The node's tracing phase, set by the parent process over stdin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Off = 0,
    Idle = 1,
    Load = 2,
}

impl Phase {
    pub fn parse(s: &str) -> Option<Phase> {
        match s {
            "off" => Some(Phase::Off),
            "idle" => Some(Phase::Idle),
            "load" => Some(Phase::Load),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Phase::Off => "off",
            Phase::Idle => "idle",
            Phase::Load => "load",
        }
    }
}

/// Calls kept as spans per node.
pub const SPAN_CAP: u32 = 1 << 15;

struct OpStats {
    calls: AtomicU64,
    nanos: AtomicU64,
    units: AtomicU64,
    hist: Vec<AtomicU64>,
}

impl OpStats {
    fn new() -> OpStats {
        OpStats {
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            units: AtomicU64::new(0),
            hist: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

struct SpanRec {
    op: Op,
    id: u32,
    parent: Option<u32>,
    thread: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    node: usize,
    epoch: Instant,
    phase: AtomicUsize,
    /// `[phase - 1][op]` for the `idle` and `load` phases.
    tables: [Vec<OpStats>; 2],
    next_span: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
    next_thread: AtomicU32,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    static THREAD: u32 = recorder().map_or(0, |r| r.next_thread.fetch_add(1, Relaxed));
    /// Ids of the wrapped calls open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> Option<&'static Recorder> {
    RECORDER.get()
}

/// Installs the node's recorder; `phase` is where it starts.
pub fn init(node: usize, phase: Phase) {
    let rec = Recorder {
        node,
        epoch: Instant::now(),
        phase: AtomicUsize::new(phase as usize),
        tables: [
            OPS.iter().map(|_| OpStats::new()).collect(),
            OPS.iter().map(|_| OpStats::new()).collect(),
        ],
        next_span: AtomicU32::new(0),
        spans: Mutex::new(Vec::new()),
        next_thread: AtomicU32::new(0),
    };
    assert!(RECORDER.set(rec).is_ok(), "layers::init runs once per node");
}

pub fn set_phase(phase: Phase) {
    if let Some(r) = recorder() {
        r.phase.store(phase as usize, Relaxed);
    }
}

fn table(op: Op) -> Option<&'static OpStats> {
    let r = recorder()?;
    let phase = r.phase.load(Relaxed);
    (phase != Phase::Off as usize).then(|| &r.tables[phase - 1][op as usize])
}

/// Adds `calls` calls taking `ns` in all and carrying `units`; a timed
/// sample (`ns` > 0, one call) also lands in the histogram.
fn record(stats: &OpStats, calls: u64, ns: u64, units: u64) {
    stats.calls.fetch_add(calls, Relaxed);
    stats.nanos.fetch_add(ns, Relaxed);
    stats.units.fetch_add(units, Relaxed);
    if ns > 0 {
        stats.hist[bucket_of(ns)].fetch_add(1, Relaxed);
    }
}

/// Records a span-less sample (`Op::Round`) or count (`Op::Commit`).
pub fn sample(op: Op, calls: u64, ns: u64, units: u64) {
    if let Some(s) = table(op) {
        record(s, calls, ns, units);
    }
}

/// An open wrapped call: started only while tracing.
struct Call {
    stats: &'static OpStats,
    op: Op,
    id: u32,
    parent: Option<u32>,
    start: Instant,
}

impl Call {
    fn start(op: Op) -> Option<Call> {
        let stats = table(op)?;
        let r = recorder()?;
        let id = r.next_span.fetch_add(1, Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        Some(Call {
            stats,
            op,
            id,
            parent,
            start: Instant::now(),
        })
    }

    /// Closes the call; `keep` = false drops it from the table and the
    /// spans (a `maybe_sync` that did not sync).
    fn finish(self, units: u64, keep: bool) {
        let ns = self.start.elapsed().as_nanos() as u64;
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        if !keep {
            return;
        }
        record(self.stats, 1, ns, units);
        let Some(r) = recorder() else { return };
        if self.id < SPAN_CAP {
            let start_ns = self.start.duration_since(r.epoch).as_nanos() as u64;
            let span = SpanRec {
                op: self.op,
                id: self.id,
                parent: self.parent.filter(|&p| p < SPAN_CAP),
                thread: THREAD.with(|t| *t),
                start_ns,
                end_ns: start_ns + ns,
            };
            r.spans.lock().expect("span log poisoned").push(span);
        }
    }
}

/// Runs `f` as one wrapped call of `op` carrying `units`.
fn timed<R>(op: Op, units: u64, f: impl FnOnce() -> R) -> R {
    let call = Call::start(op);
    let out = f();
    if let Some(c) = call {
        c.finish(units, true);
    }
    out
}

/// The node's tables as JSON: `{"idle": {op: {...}}, "load": {...}}`,
/// each op with `calls`, `nanos`, `units` and sparse `hist` pairs.
pub fn tables_json() -> String {
    let Some(r) = recorder() else {
        return "{}".into();
    };
    let phase = |t: &Vec<OpStats>| {
        let ops: Vec<String> = OPS
            .iter()
            .zip(t)
            .map(|(op, s)| {
                let hist: Vec<String> = s
                    .hist
                    .iter()
                    .enumerate()
                    .filter_map(|(b, c)| {
                        let c = c.load(Relaxed);
                        (c > 0).then(|| format!("[{b},{c}]"))
                    })
                    .collect();
                format!(
                    "{}:{{\"calls\":{},\"nanos\":{},\"units\":{},\"hist\":[{}]}}",
                    quote(op.name()),
                    s.calls.load(Relaxed),
                    s.nanos.load(Relaxed),
                    s.units.load(Relaxed),
                    hist.join(",")
                )
            })
            .collect();
        format!("{{{}}}", ops.join(","))
    };
    format!(
        "{{\"idle\":{},\"load\":{}}}",
        phase(&r.tables[0]),
        phase(&r.tables[1])
    )
}

/// The recorded spans, one JSON object per line.
pub fn spans_jsonl() -> String {
    let Some(r) = recorder() else {
        return String::new();
    };
    let mut spans = r.spans.lock().expect("span log poisoned");
    spans.sort_by_key(|s| s.id);
    let mut out = String::new();
    for s in spans.iter() {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"node\":{},\"thread\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.op.name(),
            r.node,
            s.thread,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

/// The decorator for [`Transport`] and [`Log`].
pub struct Timed<T>(pub T);

impl<T: Transport> Transport for Timed<T> {
    fn local(&self) -> ProcessId {
        self.0.local()
    }

    fn peers(&self) -> usize {
        self.0.peers()
    }

    fn send(&mut self, to: ProcessId, frame: Bytes) {
        let len = frame.len() as u64;
        timed(Op::Send, len, || self.0.send(to, frame));
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ProcessId, Bytes)> {
        self.0.recv_timeout(timeout)
    }

    fn split_recv(&mut self) -> Option<RecvHalf> {
        self.0.split_recv()
    }

    fn restore_recv(&mut self, half: RecvHalf) {
        self.0.restore_recv(half);
    }
}

impl<L: Log> Log for Timed<L> {
    fn append(&mut self, slot: Slot, payload: &[u8]) -> io::Result<()> {
        timed(Op::Append, payload.len() as u64, || {
            self.0.append(slot, payload)
        })
    }

    fn sync(&mut self) -> io::Result<()> {
        timed(Op::Fsync, 0, || self.0.sync())
    }

    fn maybe_sync(&mut self) -> io::Result<bool> {
        let call = Call::start(Op::Fsync);
        let synced = self.0.maybe_sync();
        if let Some(c) = call {
            c.finish(0, matches!(synced, Ok(true)));
        }
        synced
    }

    fn durable_slot(&self) -> Option<Slot> {
        self.0.durable_slot()
    }

    fn next_slot(&self) -> Slot {
        self.0.next_slot()
    }

    fn snapshot_meta(&self) -> Option<SnapshotMeta> {
        self.0.snapshot_meta()
    }

    fn snapshot_metas(&self) -> Vec<SnapshotMeta> {
        self.0.snapshot_metas()
    }

    fn read_snapshot(&self) -> io::Result<Option<Snapshot>> {
        self.0.read_snapshot()
    }

    fn read_snapshot_at(&self, upto: Slot) -> io::Result<Option<Snapshot>> {
        self.0.read_snapshot_at(upto)
    }

    fn install_snapshot(&mut self, snap: &Snapshot) -> io::Result<()> {
        self.0.install_snapshot(snap)
    }

    fn bytes_appended(&self) -> u64 {
        self.0.bytes_appended()
    }

    fn syncs(&self) -> u64 {
        self.0.syncs()
    }
}

/// The [`App`] decorator around the kv store.
#[derive(Clone, Default, Debug)]
pub struct TimedKv(pub KvApp);

impl App for TimedKv {
    type Cmd = KvCmd;
    type Reply = KvReply;

    const NAME: &'static str = KvApp::NAME;

    fn apply(&mut self, slot: u64, offset: u64, cmd: &KvCmd) -> KvReply {
        timed(Op::Apply, 1, || self.0.apply(slot, offset, cmd))
    }

    fn fold_snapshot(&self) -> Vec<u8> {
        let call = Call::start(Op::Fold);
        let folded = self.0.fold_snapshot();
        if let Some(c) = call {
            c.finish(folded.len() as u64, true);
        }
        folded
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), AppError> {
        timed(Op::Restore, state.len() as u64, || self.0.restore(state))
    }

    /// Untimed: the state hash is the benchmark's own agreement check,
    /// not part of the served path.
    fn state_hash(&self) -> [u8; 32] {
        self.0.state_hash()
    }
}

/// The parent's `stop <N>`: the applied count at which a node reports
/// `reached`.
pub static STOP_AT: AtomicU64 = AtomicU64::new(u64::MAX);
/// The parent's `halt` (or EOF on stdin): leave the order loop.
pub static HALT: AtomicBool = AtomicBool::new(false);

/// The [`NodeHook`] decorator: times the order loop's hook calls and the
/// rounds between them, counts commits, and stops the node on the
/// parent's word — it prints `reached <applied>` once `stop N` is met
/// and stops the loop at `halt`.
pub struct Hooked<H> {
    pub inner: H,
    round_start: Option<Instant>,
    /// `(committed slots, applied commands)` as last counted; seeded at
    /// the first round, so a recovered prefix is not counted as commits.
    counted: Option<(u64, u64)>,
    reached: bool,
}

impl<H> Hooked<H> {
    pub fn new(inner: H) -> Hooked<H> {
        Hooked {
            inner,
            round_start: None,
            counted: None,
            reached: false,
        }
    }
}

fn position(replica: &BatchingReplica<KvCmd>) -> (u64, u64) {
    (
        replica.committed_slots() as u64,
        replica.applied_len() as u64,
    )
}

impl<H: NodeHook<KvCmd>> NodeHook<KvCmd> for Hooked<H> {
    fn before_round(&mut self, round: u64, replica: &mut BatchingReplica<KvCmd>) {
        let now = Instant::now();
        if let Some(prev) = self.round_start.replace(now) {
            sample(Op::Round, 1, now.duration_since(prev).as_nanos() as u64, 0);
        }
        if self.counted.is_none() {
            self.counted = Some(position(replica));
        }
        timed(Op::BeforeRound, 0, || {
            self.inner.before_round(round, replica)
        });
    }

    fn after_round(&mut self, round: u64, replica: &mut BatchingReplica<KvCmd>) {
        timed(Op::AfterRound, 0, || self.inner.after_round(round, replica));
        let (slots, applied) = position(replica);
        let (last_slots, last_applied) = self.counted.unwrap_or((slots, applied));
        sample(Op::Commit, slots - last_slots, 0, applied - last_applied);
        self.counted = Some((slots, applied));
    }

    fn should_stop(&mut self, replica: &BatchingReplica<KvCmd>) -> bool {
        if self.inner.should_stop(replica) {
            return true;
        }
        let applied = replica.applied_len() as u64;
        if !self.reached && applied >= STOP_AT.load(SeqCst) {
            self.reached = true;
            println!("reached {applied}");
        }
        HALT.load(SeqCst)
    }

    fn serve_manifest(
        &mut self,
        replica: &BatchingReplica<KvCmd>,
        have_slot: u64,
    ) -> Option<SnapshotManifest> {
        self.inner.serve_manifest(replica, have_slot)
    }

    fn serve_chunk(
        &mut self,
        replica: &BatchingReplica<KvCmd>,
        upto_slot: u64,
        index: u32,
    ) -> Option<Vec<u8>> {
        self.inner.serve_chunk(replica, upto_slot, index)
    }

    fn snapshot_installed(
        &mut self,
        manifest: &SnapshotManifest,
        state: &[u8],
        fs: &FoldedState<KvCmd>,
        replica: &mut BatchingReplica<KvCmd>,
    ) {
        self.inner.snapshot_installed(manifest, state, fs, replica);
        // The jump is not a commit of this node's own.
        self.counted = Some(position(replica));
    }

    fn finish(&mut self, replica: &mut BatchingReplica<KvCmd>) {
        self.inner.finish(replica);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_table_is_in_discriminant_order() {
        for (i, op) in OPS.iter().enumerate() {
            assert_eq!(*op as usize, i, "{}", op.name());
        }
    }
}
