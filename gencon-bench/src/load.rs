//! The load generator: the seeded kv command stream, the open-loop
//! schedule, one writer (the calling thread) and one reader thread on at
//! most two gateway connections, and the ledger that checks every reply.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use gencon_app::{KvCmd, KvOp, KvReply};
use gencon_net::Wire;
use gencon_server::{ClientRequest, ClientResponse};

use crate::cluster::Cluster;
use crate::layers::Phase;
use crate::spec::{Workload, ACK_TIMEOUT, CLOSED_LOOP_INFLIGHT};
use crate::stats::Rng;

/// The key index of probe commands (outside every workload's keyspace).
const PROBE_KEY: u64 = u64::MAX;

pub fn key_bytes(key: u64) -> Vec<u8> {
    if key == PROBE_KEY {
        b"probe".to_vec()
    } else {
        format!("k{key:07}").into_bytes()
    }
}

/// A put's value: the command id, then filler up to `len` bytes.
pub fn put_value(id: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(id % 251) as u8; len.max(8)];
    v[..8].copy_from_slice(&id.to_le_bytes());
    v
}

/// The seeded kv command stream: each command draws its key uniformly
/// from the keyspace, independently of whether it is a get or a put.
pub struct KvGen {
    rng: Rng,
    keys: u64,
    get_pct: u64,
    value_bytes: usize,
}

impl KvGen {
    pub fn new(w: &Workload, seed: u64) -> KvGen {
        KvGen {
            rng: Rng::new(seed),
            keys: w.keys,
            get_pct: w.get_pct,
            value_bytes: w.value_bytes,
        }
    }

    /// The next command of the stream, carrying id `id`, and its key.
    pub fn next(&mut self, id: u64) -> (KvCmd, u64) {
        let key = self.rng.below(self.keys);
        let get = self.rng.below(100) < self.get_pct;
        (command(id, key, get, self.value_bytes), key)
    }
}

fn command(id: u64, key: u64, get: bool, value_bytes: usize) -> KvCmd {
    let key_b = key_bytes(key);
    let op = if get {
        KvOp::Get { key: key_b }
    } else {
        KvOp::Put {
            key: key_b,
            value: put_value(id, value_bytes),
        }
    };
    KvCmd { id, op }
}

/// Poisson arrivals at `rate` per second: the gaps between due times.
pub struct Arrivals {
    rng: Rng,
    mean_ns: f64,
}

impl Arrivals {
    pub fn new(rate: f64, seed: u64) -> Arrivals {
        Arrivals {
            rng: Rng::new(seed ^ 0xA11C_E5ED),
            mean_ns: 1e9 / rate,
        }
    }

    pub fn gap(&mut self) -> Duration {
        Duration::from_nanos((-self.rng.unit().ln() * self.mean_ns) as u64)
    }
}

/// What happened to one issued command. Times are ns since the ledger
/// epoch.
#[derive(Clone, Debug)]
pub struct Entry {
    pub key: u64,
    pub get: bool,
    pub probe: bool,
    /// When it was due (open loop) or sent (closed loop), ns since the
    /// load's epoch.
    pub due_ns: u64,
    pub ack_ns: Option<u64>,
    pub bounced: bool,
    /// Resubmitted at least once (a probe stranded by a state transfer).
    pub retried: bool,
}

impl Entry {
    /// Acked within [`ACK_TIMEOUT`] of its due time.
    pub fn ok(&self) -> bool {
        self.ack_ns
            .is_some_and(|a| a.saturating_sub(self.due_ns) <= ACK_TIMEOUT.as_nanos() as u64)
    }

    pub fn resolved(&self) -> bool {
        self.ack_ns.is_some() || self.bounced
    }
}

/// Every command issued to one cluster, indexed by `id - 1`, plus the
/// correctness checks on the replies.
pub struct Ledger {
    pub entries: Vec<Entry>,
    /// Log offset → the command acked there.
    offsets: HashMap<u64, u64>,
    pub get_hits: u64,
    pub violations: Vec<String>,
    pub reacks: u64,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            entries: Vec::new(),
            offsets: HashMap::new(),
            get_hits: 0,
            violations: Vec::new(),
            reacks: 0,
        }
    }

    fn violation(&mut self, what: String) {
        if self.violations.len() < 32 {
            self.violations.push(what);
        }
    }

    /// Applies one gateway response; returns whether it resolved a
    /// command for the first time.
    pub fn on_response(&mut self, resp: ClientResponse<KvCmd, KvReply>, at_ns: u64) -> bool {
        let (cmd, ack) = match resp {
            ClientResponse::Committed {
                cmd, offset, reply, ..
            } => (cmd, Some((offset, reply))),
            ClientResponse::Backpressure { cmd, .. } | ClientResponse::Redirect { cmd, .. } => {
                (cmd, None)
            }
        };
        let idx = cmd.id.wrapping_sub(1) as usize;
        let Some(entry) = self.entries.get(idx).cloned() else {
            self.violation(format!(
                "reply for command {} that was never issued",
                cmd.id
            ));
            return false;
        };
        let Some((offset, reply)) = ack else {
            if entry.resolved() {
                return false;
            }
            self.entries[idx].bounced = true;
            return true;
        };
        if entry.ack_ns.is_some() {
            if entry.retried {
                self.reacks += 1;
            } else {
                self.violation(format!("command {} acked twice", cmd.id));
            }
            return false;
        }
        // A re-ack from the commit index after a state-transfer jump
        // carries offset 0 and no reply: the command's own apply happened
        // on other nodes.
        let transfer_reack = entry.retried && offset == 0 && reply.is_none();
        if !transfer_reack {
            if let Some(&other) = self.offsets.get(&offset) {
                self.violation(format!(
                    "commands {other} and {} both acked at log offset {offset}",
                    cmd.id
                ));
            }
            self.offsets.insert(offset, cmd.id);
        }
        match (&cmd.op, reply) {
            (KvOp::Get { .. }, Some(KvReply::Value(Some(v)))) => {
                let put_id = v
                    .get(..8)
                    .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
                let from_put = put_id
                    .checked_sub(1)
                    .and_then(|i| self.entries.get(i as usize))
                    .is_some_and(|p| !p.get && !p.probe && p.key == entry.key);
                if from_put {
                    self.get_hits += 1;
                } else {
                    self.violation(format!(
                        "get {} on key {} returned the value of command {put_id}, not a put on that key",
                        cmd.id, entry.key
                    ));
                }
            }
            (KvOp::Get { .. }, Some(KvReply::Value(None)))
            | (KvOp::Put { .. }, Some(KvReply::Stored { .. }))
            | (_, None) => {}
            (_, Some(other)) => {
                self.violation(format!(
                    "command {} got the wrong reply kind {other:?}",
                    cmd.id
                ));
            }
        }
        self.entries[idx].ack_ns = Some(at_ns);
        true
    }
}

/// A gateway connection's read side with its partial-frame buffer.
struct Inbound {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Inbound {
    fn new(stream: TcpStream) -> Inbound {
        Inbound {
            stream,
            buf: Vec::with_capacity(1 << 16),
        }
    }

    /// Reads what is available; returns `false` once the peer closed.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(k) => {
                    self.buf.extend_from_slice(&chunk[..k]);
                    if k < chunk.len() {
                        return true;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return true
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Decodes every complete frame in the buffer.
    fn frames(&mut self) -> Result<Vec<ClientResponse<KvCmd, KvReply>>, String> {
        let mut out = Vec::new();
        let mut at = 0;
        while self.buf.len() - at >= 4 {
            let len =
                u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if len > gencon_net::wire::MAX_BYTES {
                return Err(format!("oversized response frame ({len} bytes)"));
            }
            if self.buf.len() - at - 4 < len {
                break;
            }
            let mut body = Bytes::from(self.buf[at + 4..at + 4 + len].to_vec());
            let resp = ClientResponse::<KvCmd, KvReply>::decode(&mut body)
                .map_err(|e| format!("undecodable response: {e}"))?;
            out.push(resp);
            at += 4 + len;
        }
        self.buf.drain(..at);
        Ok(out)
    }
}

/// State shared between the writer and the reader thread.
struct Shared {
    epoch: Instant,
    ledger: Mutex<Ledger>,
    /// Commands resolved (acked or bounced) for the first time.
    resolved: AtomicU64,
    stop: AtomicBool,
    /// The probe connection's read side, once connected.
    probe_conn: Mutex<Option<TcpStream>>,
}

/// The reader thread: blocks up to 1 ms on the main connection, then
/// polls the probe connection, and records every reply in the ledger.
fn reader(main: TcpStream, shared: &Shared, resolved_tx: &mpsc::Sender<()>) {
    let _ = main.set_read_timeout(Some(Duration::from_millis(1)));
    let mut conns: Vec<Option<Inbound>> = vec![Some(Inbound::new(main)), None];
    while !shared.stop.load(SeqCst) {
        if conns[1].is_none() {
            if let Some(s) = shared
                .probe_conn
                .lock()
                .expect("probe slot poisoned")
                .take()
            {
                let _ = s.set_nonblocking(true);
                conns[1] = Some(Inbound::new(s));
            }
        }
        let mut idle = true;
        for (i, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else { continue };
            let open = conn.fill();
            let at = shared.epoch.elapsed().as_nanos() as u64;
            let frames = conn.frames();
            let mut ledger = shared.ledger.lock().expect("ledger poisoned");
            match frames {
                Ok(frames) => {
                    for resp in frames {
                        idle = false;
                        if ledger.on_response(resp, at) {
                            shared.resolved.fetch_add(1, SeqCst);
                            let _ = resolved_tx.send(());
                        }
                    }
                }
                Err(e) => ledger.violation(format!("connection {i}: {e}")),
            }
            if !open {
                // The main gateway never goes away; the probe gateway
                // does when its node is killed.
                if i == 0 && !shared.stop.load(SeqCst) {
                    ledger.violation("the main gateway closed its connection".into());
                }
                *slot = None;
            }
        }
        if idle && conns[0].is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Open-loop bookkeeping for one phase.
#[derive(Default)]
pub struct OpenStats {
    /// How late each command was sent relative to its due time, ns.
    pub lag_ns: Vec<u64>,
    /// Commands due before the phase ended but sent after it: how far
    /// the generator had fallen behind.
    pub backlog_end: u64,
    /// The cluster's CPU ticks, sampled about once a second:
    /// `(ns since the load's epoch, ticks)`.
    pub cpu: Vec<(u64, u64)>,
    /// When the fault's node was restarted, ns since the load's epoch.
    pub restarted_ns: Option<u64>,
}

/// The kill/restart schedule of the fault phase.
pub struct Fault {
    pub node: usize,
    pub kill_at: Duration,
    pub restart_at: Duration,
    /// Tracing phase the restarted node starts in.
    pub phase: Phase,
}

/// One cluster's load: the writer side (this struct, driven from the
/// calling thread) plus the reader thread it owns.
pub struct Load {
    shared: Arc<Shared>,
    conn: TcpStream,
    probe: Option<TcpStream>,
    resolved_rx: mpsc::Receiver<()>,
    reader: Option<std::thread::JoinHandle<()>>,
    gen: KvGen,
    value_bytes: usize,
    /// Probes sent through the restarted node's gateway.
    pub fault_probes: Vec<u64>,
}

impl Load {
    /// Connects to `gateway` (retrying while the node binds) and starts
    /// the reader thread.
    pub fn connect(
        gateway: SocketAddr,
        w: &Workload,
        seed: u64,
        epoch: Instant,
    ) -> Result<Load, String> {
        let conn = connect_retrying(gateway, Duration::from_secs(10))?;
        let read_half = conn.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        let shared = Arc::new(Shared {
            epoch,
            ledger: Mutex::new(Ledger::new()),
            resolved: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            probe_conn: Mutex::new(None),
        });
        let (tx, rx) = mpsc::channel();
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::spawn(move || reader(read_half, &reader_shared, &tx));
        Ok(Load {
            shared,
            conn,
            probe: None,
            resolved_rx: rx,
            reader: Some(reader),
            gen: KvGen::new(w, seed),
            value_bytes: w.value_bytes,
            fault_probes: Vec::new(),
        })
    }

    pub fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.shared.ledger.lock().expect("ledger poisoned")
    }

    pub fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    fn issued(&self) -> u64 {
        self.ledger().entries.len() as u64
    }

    /// Registers and sends one command; `due_ns` None = due now.
    fn submit(
        &mut self,
        cmd: KvCmd,
        key: u64,
        probe: bool,
        due_ns: Option<u64>,
    ) -> Result<(), String> {
        let frame = encode(&cmd);
        let now = self.now_ns();
        self.ledger().entries.push(Entry {
            key,
            get: matches!(cmd.op, KvOp::Get { .. }),
            probe,
            due_ns: due_ns.unwrap_or(now),
            ack_ns: None,
            bounced: false,
            retried: false,
        });
        let conn = if probe {
            self.probe.as_mut().ok_or("probe connection not open")?
        } else {
            &mut self.conn
        };
        conn.write_all(&frame)
            .map_err(|e| format!("gateway write failed: {e}"))
    }

    /// Sends the next command of the workload stream.
    fn submit_next(&mut self, due_ns: Option<u64>) -> Result<(), String> {
        let id = self.issued() + 1;
        let (cmd, key) = self.gen.next(id);
        self.submit(cmd, key, false, due_ns)
    }

    /// A probe: a put on the probe key through the main connection (or
    /// the probe connection when `via_probe`).
    fn submit_probe(&mut self, via_probe: bool) -> Result<u64, String> {
        let id = self.issued() + 1;
        let cmd = command(id, PROBE_KEY, false, self.value_bytes);
        self.submit(cmd, PROBE_KEY, via_probe, None)?;
        Ok(id)
    }

    /// Sends one probe and waits for its ack; returns the ack time, ns.
    pub fn probe_and_wait(&mut self, timeout: Duration) -> Result<u64, String> {
        let id = self.submit_probe(false)?;
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(at) = self.ledger().entries[id as usize - 1].ack_ns {
                return Ok(at);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!("the set-up probe was not acked within {timeout:?}"));
            }
            let _ = self
                .resolved_rx
                .recv_timeout(left.min(Duration::from_millis(50)));
        }
    }

    /// Keeps [`CLOSED_LOOP_INFLIGHT`] workload commands in flight until
    /// `until`.
    pub fn closed_loop(&mut self, until: Instant) -> Result<(), String> {
        loop {
            while self.issued() - self.shared.resolved.load(SeqCst) < CLOSED_LOOP_INFLIGHT as u64 {
                self.submit_next(None)?;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(());
            }
            let _ = self.resolved_rx.recv_timeout(left);
            while self.resolved_rx.try_recv().is_ok() {}
        }
    }

    /// Sends workload commands at Poisson due times from `start` for
    /// `length`, sampling `cluster`'s CPU ticks once a second; with
    /// `fault`, kills and restarts a node of `cluster` on schedule and
    /// probes the restarted node's own gateway until one probe is acked.
    pub fn open_loop(
        &mut self,
        start: Instant,
        length: Duration,
        arrivals: &mut Arrivals,
        mut cluster: Option<&mut Cluster>,
        fault: Option<&Fault>,
    ) -> Result<OpenStats, String> {
        let start_ns = start.duration_since(self.shared.epoch).as_nanos() as u64;
        let end = start + length;
        let mut stats = OpenStats::default();
        let mut due = start + arrivals.gap();
        let mut killed = false;
        let mut next_probe: Option<Instant> = None;
        let mut next_sample = start;
        while due < end {
            let now = Instant::now();
            if let Some(c) = cluster.as_deref_mut() {
                if now >= next_sample {
                    stats.cpu.push((self.now_ns(), c.cpu_ticks()));
                    next_sample += Duration::from_secs(1);
                }
                if let Some(f) = fault {
                    if !killed && now >= start + f.kill_at {
                        c.kill(f.node);
                        killed = true;
                    }
                    if stats.restarted_ns.is_none() && now >= start + f.restart_at {
                        c.start(f.node, f.phase)?;
                        stats.restarted_ns = Some(self.now_ns());
                        next_probe = Some(now);
                    }
                    if next_probe.is_some_and(|t| now >= t) {
                        next_probe = self.probe_step(c.gateways[f.node])?;
                    }
                }
            }
            let now = Instant::now();
            if due > now {
                let wake = next_probe.map_or(due, |p| p.min(due));
                if wake > now {
                    std::thread::sleep(wake - now);
                }
                if Instant::now() < due {
                    continue;
                }
            }
            let due_ns = start_ns + due.duration_since(start).as_nanos() as u64;
            let sent = self.now_ns();
            stats.lag_ns.push(sent.saturating_sub(due_ns));
            if Instant::now() >= end {
                stats.backlog_end += 1;
            }
            self.submit_next(Some(due_ns))?;
            due += arrivals.gap();
        }
        let left = end.saturating_duration_since(Instant::now());
        std::thread::sleep(left);
        if let Some(c) = cluster {
            stats.cpu.push((self.now_ns(), c.cpu_ticks()));
        }
        Ok(stats)
    }

    /// One probing step of the fault phase: (re)connects to the restarted
    /// node's gateway and sends one probe, until the first probe is
    /// acked. Returns when to probe next (`None` = recovered).
    fn probe_step(&mut self, gateway: SocketAddr) -> Result<Option<Instant>, String> {
        let acked = {
            let ledger = self.ledger();
            self.fault_probes
                .iter()
                .any(|&id| ledger.entries[id as usize - 1].ack_ns.is_some())
        };
        if acked {
            return Ok(None);
        }
        if self.probe.is_none() {
            match TcpStream::connect_timeout(&gateway, Duration::from_millis(20)) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let read_half = s.try_clone().map_err(|e| format!("clone socket: {e}"))?;
                    *self.shared.probe_conn.lock().expect("probe slot poisoned") = Some(read_half);
                    self.probe = Some(s);
                }
                Err(_) => return Ok(Some(Instant::now() + crate::spec::PROBE_INTERVAL)),
            }
        }
        match self.submit_probe(true) {
            Ok(id) => self.fault_probes.push(id),
            // The node went away under us; reconnect on the next step.
            Err(_) => self.probe = None,
        }
        Ok(Some(Instant::now() + crate::spec::PROBE_INTERVAL))
    }

    /// Waits until every command is resolved or [`ACK_TIMEOUT`] past the
    /// last due time, resubmitting unacked probes every 250 ms (a probe
    /// committed below a state-transfer jump is only answered on retry,
    /// from the gateway's commit index). Then stops the reader.
    pub fn drain(&mut self) {
        let last_due = self
            .ledger()
            .entries
            .iter()
            .map(|e| e.due_ns)
            .max()
            .unwrap_or(0);
        let give_up = last_due + ACK_TIMEOUT.as_nanos() as u64;
        let mut next_retry = Instant::now();
        loop {
            let (pending, stranded): (usize, Vec<u64>) = {
                let ledger = self.ledger();
                let pending = ledger.entries.iter().filter(|e| !e.resolved()).count();
                let stranded = self
                    .fault_probes
                    .iter()
                    .copied()
                    .filter(|&id| !ledger.entries[id as usize - 1].resolved())
                    .collect();
                (pending, stranded)
            };
            if pending == 0 || self.now_ns() >= give_up {
                break;
            }
            if !stranded.is_empty() && Instant::now() >= next_retry {
                next_retry = Instant::now() + Duration::from_millis(250);
                for id in stranded {
                    let cmd = command(id, PROBE_KEY, false, self.value_bytes);
                    self.ledger().entries[id as usize - 1].retried = true;
                    if let Some(p) = self.probe.as_mut() {
                        let _ = p.write_all(&encode(&cmd));
                    }
                }
            }
            let _ = self.resolved_rx.recv_timeout(Duration::from_millis(10));
        }
        self.stop_reader();
    }

    fn stop_reader(&mut self) {
        self.shared.stop.store(true, SeqCst);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Load {
    fn drop(&mut self) {
        self.stop_reader();
    }
}

/// One length-prefixed `Submit` frame, written with a single call.
fn encode(cmd: &KvCmd) -> Vec<u8> {
    let body = ClientRequest::Submit { cmd: cmd.clone() }.to_bytes();
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

fn connect_retrying(addr: SocketAddr, timeout: Duration) -> Result<TcpStream, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) if Instant::now() >= deadline => return Err(format!("connect {addr}: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn open_loop_schedule_is_deterministic_for_a_seed() {
        let gaps = |seed| {
            let mut a = Arrivals::new(3_000.0, seed);
            (0..1_000).map(|_| a.gap()).collect::<Vec<_>>()
        };
        assert_eq!(gaps(7), gaps(7));
        assert_ne!(gaps(7), gaps(8));
        let mean = gaps(7).iter().sum::<Duration>().as_secs_f64() / 1_000.0;
        assert!(
            (mean - 1.0 / 3_000.0).abs() < 0.1 / 3_000.0,
            "mean gap {mean}"
        );
        let cmds = |seed| {
            let mut g = KvGen::new(&WORKLOADS[0], seed);
            (1..=100).map(|id| g.next(id)).collect::<Vec<_>>()
        };
        assert_eq!(cmds(3), cmds(3));
        assert_ne!(cmds(3), cmds(4));
    }

    #[test]
    fn kv_gets_hit_keys_earlier_puts_wrote() {
        for w in &WORKLOADS {
            let mut gen = KvGen::new(w, 1);
            let mut written = std::collections::HashSet::new();
            let (mut gets, mut hits) = (0, 0);
            for id in 1..=20_000 {
                let (cmd, key) = gen.next(id);
                match cmd.op {
                    KvOp::Put { value, .. } => {
                        assert_eq!(value.len(), w.value_bytes);
                        assert_eq!(value[..8], id.to_le_bytes());
                        written.insert(key);
                    }
                    KvOp::Get { .. } => {
                        gets += 1;
                        hits += u64::from(written.contains(&key));
                    }
                    _ => unreachable!(),
                }
            }
            let share = f64::from(gets) / 20_000.0;
            assert!(
                (share * 100.0 - w.get_pct as f64).abs() < 2.0,
                "{}: gets {share}",
                w.name
            );
            // Even the 65,536-key space is a tenth written on average
            // over the first 20,000 commands.
            assert!(
                hits > gets as u64 / 20,
                "{}: {hits} of {gets} gets hit",
                w.name
            );
        }
    }

    /// A gateway stand-in that acks every submission at once, except that
    /// it stops reading for `stall` after the 50th.
    fn stalling_sink(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        use gencon_server::read_frame;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut offset = 0;
            while let Ok(ClientRequest::Submit { cmd }) =
                read_frame::<_, ClientRequest<KvCmd>>(&mut conn)
            {
                if offset == 50 {
                    std::thread::sleep(stall);
                }
                let reply = match cmd.op {
                    KvOp::Get { .. } => KvReply::Value(None),
                    _ => KvReply::Stored { replaced: false },
                };
                let resp = ClientResponse::Committed {
                    cmd,
                    slot: 0,
                    offset,
                    reply: Some(reply),
                };
                let body = resp.to_bytes();
                let mut frame = (body.len() as u32).to_le_bytes().to_vec();
                frame.extend_from_slice(&body);
                if conn.write_all(&frame).is_err() {
                    return;
                }
                offset += 1;
            }
        });
        (addr, sink)
    }

    #[test]
    fn a_sink_stall_shows_in_the_due_time_latency_of_later_requests() {
        let (addr, sink) = stalling_sink(Duration::from_millis(100));
        let epoch = Instant::now();
        let mut load = Load::connect(addr, &WORKLOADS[0], 1, epoch).unwrap();
        let mut arrivals = Arrivals::new(1_000.0, 1);
        load.open_loop(
            Instant::now(),
            Duration::from_millis(300),
            &mut arrivals,
            None,
            None,
        )
        .unwrap();
        load.drain();
        let latencies_ms: Vec<f64> = load
            .ledger()
            .entries
            .iter()
            .map(|e| (e.ack_ns.expect("every request acked") - e.due_ns) as f64 / 1e6)
            .collect();
        drop(load);
        sink.join().unwrap();
        // Requests due while the sink stalled waited for it to resume:
        // the one due first waited nearly the whole stall, and dozens of
        // later ones carry a share of it.
        let max = latencies_ms.iter().copied().fold(0.0, f64::max);
        let delayed = latencies_ms.iter().filter(|&&l| l >= 30.0).count();
        assert!(max >= 90.0, "max latency {max} ms");
        assert!(delayed >= 20, "{delayed} requests delayed >= 30 ms");
    }

    fn ledger_with(entries: Vec<Entry>) -> Ledger {
        let mut l = Ledger::new();
        l.entries = entries;
        l
    }

    fn entry(key: u64, get: bool) -> Entry {
        Entry {
            key,
            get,
            probe: false,
            due_ns: 0,
            ack_ns: None,
            bounced: false,
            retried: false,
        }
    }

    fn ack(cmd: KvCmd, offset: u64, reply: Option<KvReply>) -> ClientResponse<KvCmd, KvReply> {
        ClientResponse::Committed {
            cmd,
            slot: 0,
            offset,
            reply,
        }
    }

    #[test]
    fn ledger_checks_get_replies_offsets_and_double_acks() {
        let mut l = ledger_with(vec![entry(5, false), entry(5, true), entry(6, true)]);
        let put = command(1, 5, false, 16);
        assert!(l.on_response(
            ack(put.clone(), 0, Some(KvReply::Stored { replaced: false })),
            1
        ));
        let good = KvReply::Value(Some(put_value(1, 16)));
        assert!(l.on_response(ack(command(2, 5, true, 16), 1, Some(good.clone())), 2));
        assert_eq!((l.get_hits, l.violations.len()), (1, 0));
        // A get on key 6 must not see the put on key 5, nor share offset 1.
        assert!(l.on_response(ack(command(3, 6, true, 16), 1, Some(good)), 3));
        assert_eq!(l.violations.len(), 2, "{:?}", l.violations);
        assert!(!l.on_response(ack(put, 0, None), 4), "double ack");
        assert_eq!(l.violations.len(), 3);
    }

    #[test]
    fn retried_probe_may_be_reacked_at_offset_zero() {
        let mut probe = entry(PROBE_KEY, false);
        probe.probe = true;
        let mut l = ledger_with(vec![entry(1, false), probe]);
        l.on_response(ack(command(1, 1, false, 16), 0, None), 1);
        l.entries[1].retried = true;
        assert!(l.on_response(ack(command(2, PROBE_KEY, false, 16), 0, None), 2));
        assert!(!l.on_response(ack(command(2, PROBE_KEY, false, 16), 0, None), 3));
        assert!(l.violations.is_empty(), "{:?}", l.violations);
        assert_eq!(l.reacks, 1);
    }
}
