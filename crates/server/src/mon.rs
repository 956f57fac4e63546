//! Cluster aggregation + watchdog: the library behind `gencon-mon`.
//!
//! One node's admin port answers "what is *this* replica doing"; this
//! module answers the cluster questions — is anyone diverging, who is
//! the straggler, has commit progress stopped — by polling every node's
//! admin endpoint (`status` / `rates` / `hash`), assembling one
//! [`ClusterReport`], and running a watchdog over consecutive polls:
//!
//! | alert                 | fires when                                     |
//! |-----------------------|------------------------------------------------|
//! | `unreachable`         | an admin endpoint stops answering (transition) |
//! | `commit-stall`        | no node's committed watermark advanced across  |
//! |                       | `stall_polls` consecutive polls while some     |
//! |                       | node reports queued commands (an idle cluster  |
//! |                       | stops committing by design)                    |
//! | `divergence`          | two nodes published different state hashes for |
//! |                       | the same applied count (both hashes + node ids |
//! |                       | recorded as audit evidence)                    |
//! | `straggler`           | a node's committed watermark trails the max by |
//! |                       | more than `straggler_slots`, or a peer reports |
//! |                       | it lagging more than `straggler_rounds`        |
//! | `gate-wedge`          | a node's persist gate sits still while its     |
//! |                       | commits advance across `stall_polls` polls     |
//! | `straggler-recovered` | a previously unreachable/straggling node is    |
//! |                       | back within bounds                             |
//!
//! Hash agreement is checked at the **max common applied count**: each
//! node publishes a short history of `(applied, hash)` pairs (see
//! [`HashCell`](gencon_trace::HashCell)), the monitor intersects the
//! counts across reachable nodes and compares at the highest one all of
//! them cover — nodes sample at the same deterministic boundaries, so a
//! mismatch there is divergence, not skew.
//!
//! Beyond the watchdog, [`trace_pull`] runs the cross-node autopsy:
//! it estimates every node's recorder-clock offset from K `clock`
//! round-trips ([`estimate_clock`], min-RTT sample wins, uncertainty
//! carried), pulls each node's `spans`, and stitches them with
//! [`gencon_trace::stitch_spans`] into cluster slot spans — decide
//! skew, quorum wait and fan-out attribution with explicit ± bounds.
//!
//! Everything is hand-rolled over the admin port's fixed JSON shapes
//! (the monitor must not drag a parser dependency into the server
//! crate); the scanners live here next to their single producer.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use gencon_trace::{stitch_spans, ClockEstimate, ClusterSlotSpan, NodeSpans, SlotSpan};

/// Polling and threshold knobs for [`Monitor`].
#[derive(Clone, Debug)]
pub struct MonConfig {
    /// Delay between polls (the continuous mode cadence).
    pub interval: Duration,
    /// TCP connect deadline per admin query.
    pub connect_timeout: Duration,
    /// Read/write deadline per admin query.
    pub io_timeout: Duration,
    /// Consecutive no-progress polls before `commit-stall` (and the
    /// window for `gate-wedge`).
    pub stall_polls: usize,
    /// Committed-watermark lag (slots) before a node is a straggler.
    pub straggler_slots: u64,
    /// Peer-reported round lag before a node is a straggler.
    pub straggler_rounds: u64,
}

impl Default for MonConfig {
    fn default() -> Self {
        MonConfig {
            interval: Duration::from_millis(500),
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(1_000),
            stall_polls: 3,
            straggler_slots: 2_048,
            straggler_rounds: 64,
        }
    }
}

/// What one node answered on one poll (zeroed when unreachable).
#[derive(Clone, Debug, Default)]
pub struct NodeSample {
    /// Index into the monitor's node list.
    pub node: usize,
    /// The admin address polled.
    pub addr: String,
    /// Whether the endpoint answered `status` this poll.
    pub reachable: bool,
    /// Consensus round from `status`.
    pub round: u64,
    /// Committed-slot watermark from `status`.
    pub committed: u64,
    /// Applied-command watermark from `status`.
    pub applied: u64,
    /// Commands queued at the replica, not yet proposed, from `status`.
    pub queued: u64,
    /// Durable-ack gate from `status` (0 on memory nodes).
    pub persist_gate: u64,
    /// Commands applied per second from `rates` (0 until two samples).
    pub cmds_per_sec: f64,
    /// Fsyncs per second from `rates`.
    pub fsyncs_per_sec: f64,
    /// Consensus rounds per second from `rates`.
    pub rounds_per_sec: f64,
    /// Published `(applied count, state-hash hex)` pairs from `hash`,
    /// ascending.
    pub hashes: Vec<(u64, String)>,
    /// Peer-lag rows from `status`: `(peer, lag_rounds, written_off)`.
    pub peer_lags: Vec<(usize, u64, bool)>,
}

impl NodeSample {
    /// One JSON object (a row of the report's `nodes` array).
    #[must_use]
    pub fn to_json(&self) -> String {
        let hashes: Vec<String> = self
            .hashes
            .iter()
            .map(|(applied, hash)| format!("{{\"applied\":{applied},\"state_hash\":\"{hash}\"}}"))
            .collect();
        let lags: Vec<String> = self
            .peer_lags
            .iter()
            .map(|(peer, lag, off)| {
                format!("{{\"peer\":{peer},\"lag_rounds\":{lag},\"written_off\":{off}}}")
            })
            .collect();
        format!(
            "{{\"node\":{},\"addr\":\"{}\",\"reachable\":{},\"round\":{},\"committed\":{},\
             \"applied\":{},\"persist_gate\":{},\"cmds_per_sec\":{:.3},\"fsyncs_per_sec\":{:.3},\
             \"rounds_per_sec\":{:.3},\"hashes\":[{}],\"peer_lags\":[{}]}}",
            self.node,
            self.addr,
            self.reachable,
            self.round,
            self.committed,
            self.applied,
            self.persist_gate,
            self.cmds_per_sec,
            self.fsyncs_per_sec,
            self.rounds_per_sec,
            hashes.join(","),
            lags.join(","),
        )
    }
}

/// The watchdog's alert vocabulary (see the module table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// Admin endpoint stopped answering.
    Unreachable,
    /// No reachable node's committed watermark advanced for K polls.
    CommitStall,
    /// Two nodes disagree on the state hash at the same applied count.
    Divergence,
    /// A node trails the cluster beyond the configured bounds.
    Straggler,
    /// Persist gate static while commits advance.
    GateWedge,
    /// A previously unreachable/straggling node is healthy again.
    StragglerRecovered,
}

impl AlertKind {
    /// The wire name used in alert JSON lines.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AlertKind::Unreachable => "unreachable",
            AlertKind::CommitStall => "commit-stall",
            AlertKind::Divergence => "divergence",
            AlertKind::Straggler => "straggler",
            AlertKind::GateWedge => "gate-wedge",
            AlertKind::StragglerRecovered => "straggler-recovered",
        }
    }
}

/// One structured watchdog alert.
#[derive(Clone, Debug)]
pub struct Alert {
    /// What fired.
    pub kind: AlertKind,
    /// Poll index (1-based) the alert fired on.
    pub poll: u64,
    /// The node concerned, if the alert is about one node.
    pub node: Option<usize>,
    /// The applied count concerned (divergence evidence).
    pub applied: Option<u64>,
    /// Human-readable evidence (hashes, watermarks, thresholds).
    pub detail: String,
}

impl Alert {
    /// One JSON line (written to stderr and embedded in the report).
    #[must_use]
    pub fn to_json(&self) -> String {
        let node = self
            .node
            .map_or_else(|| "null".to_string(), |n| n.to_string());
        let applied = self
            .applied
            .map_or_else(|| "null".to_string(), |a| a.to_string());
        format!(
            "{{\"alert\":\"{}\",\"poll\":{},\"node\":{node},\"applied\":{applied},\
             \"detail\":\"{}\"}}",
            self.kind.as_str(),
            self.poll,
            self.detail.replace('"', "'"),
        )
    }
}

/// Cross-node hash comparison at the max common applied count.
#[derive(Clone, Debug)]
pub struct HashAgreement {
    /// The highest applied count every reachable publishing node covers.
    pub applied: u64,
    /// Whether every node's hash at that count matches.
    pub agreed: bool,
    /// `(node, state-hash hex)` at that count, one row per node.
    pub hashes: Vec<(usize, String)>,
}

impl HashAgreement {
    /// The report's `agreement` object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .hashes
            .iter()
            .map(|(node, hash)| format!("{{\"node\":{node},\"state_hash\":\"{hash}\"}}"))
            .collect();
        format!(
            "{{\"applied\":{},\"agreed\":{},\"hashes\":[{}]}}",
            self.applied,
            self.agreed,
            rows.join(","),
        )
    }
}

/// One poll's assembled cluster view.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Poll index, 1-based.
    pub poll: u64,
    /// Per-node samples, in node-list order.
    pub nodes: Vec<NodeSample>,
    /// Highest committed watermark among reachable nodes.
    pub max_committed: u64,
    /// Lowest committed watermark among reachable nodes.
    pub min_committed: u64,
    /// Highest − lowest round among reachable nodes.
    pub round_skew: u64,
    /// Hash comparison at the max common applied count, when at least
    /// two reachable nodes have published.
    pub agreement: Option<HashAgreement>,
    /// Alerts the watchdog raised on this poll.
    pub alerts: Vec<Alert>,
}

impl ClusterReport {
    /// The full report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let nodes: Vec<String> = self.nodes.iter().map(NodeSample::to_json).collect();
        let alerts: Vec<String> = self.alerts.iter().map(Alert::to_json).collect();
        let agreement = self
            .agreement
            .as_ref()
            .map_or_else(|| "null".to_string(), HashAgreement::to_json);
        format!(
            "{{\"poll\":{},\"reachable\":{},\"max_committed\":{},\"min_committed\":{},\
             \"round_skew\":{},\"agreement\":{agreement},\"nodes\":[{}],\"alerts\":[{}]}}",
            self.poll,
            self.nodes.iter().filter(|s| s.reachable).count(),
            self.max_committed,
            self.min_committed,
            self.round_skew,
            nodes.join(","),
            alerts.join(","),
        )
    }
}

// --- tiny scanners over the admin port's fixed JSON shapes ---

/// Extracts the number right after `"key":` (integers only — the admin
/// port never emits signed or exponent forms for these keys).
fn json_u64(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Extracts the (possibly fractional) number right after `"key":`.
fn json_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let num: String = json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().ok()
}

/// Extracts every `{"applied":N,"state_hash":"H"}` pair inside the
/// `hash` response's `recent` array, ascending by applied count.
fn parse_hash_pairs(json: &str) -> Vec<(u64, String)> {
    let Some(recent_at) = json.find("\"recent\":[") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = &json[recent_at..];
    while let Some(at) = rest.find("\"applied\":") {
        rest = &rest[at + "\"applied\":".len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        let Ok(applied) = digits.parse::<u64>() else {
            break;
        };
        let Some(h_at) = rest.find("\"state_hash\":\"") else {
            break;
        };
        rest = &rest[h_at + "\"state_hash\":\"".len()..];
        let Some(end) = rest.find('"') else { break };
        out.push((applied, rest[..end].to_string()));
        rest = &rest[end..];
    }
    out.sort_by_key(|(applied, _)| *applied);
    out.dedup_by_key(|(applied, _)| *applied);
    out
}

/// Extracts every peer row `(peer, lag_rounds, written_off)` from the
/// `status` response's `peers` array.
fn parse_peer_lags(json: &str) -> Vec<(usize, u64, bool)> {
    let Some(peers_at) = json.find("\"peers\":[") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = &json[peers_at..];
    while let Some(at) = rest.find("\"peer\":") {
        rest = &rest[at..];
        let Some(peer) = json_u64(rest, "peer") else {
            break;
        };
        let lag = json_u64(rest, "lag_rounds").unwrap_or(0);
        let off = rest
            .find("\"written_off\":")
            .is_some_and(|w| rest[w + "\"written_off\":".len()..].starts_with("true"));
        out.push((usize::try_from(peer).unwrap_or(usize::MAX), lag, off));
        rest = &rest["\"peer\":".len()..];
    }
    out
}

/// One admin query: connect (with deadline), send the command line,
/// read to EOF. Errors and empty answers both mean "unreachable".
fn query(addr: SocketAddr, cmd: &str, cfg: &MonConfig) -> std::io::Result<String> {
    let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
    stream.set_read_timeout(Some(cfg.io_timeout))?;
    stream.set_write_timeout(Some(cfg.io_timeout))?;
    let mut stream = stream;
    stream.write_all(cmd.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    if out.trim().is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "empty admin answer",
        ));
    }
    Ok(out)
}

// --- cross-node trace pull: clock alignment + stitching ---

/// Clock round-trips per node when the caller does not say.
pub const CLOCK_SAMPLES_DEFAULT: u32 = 8;

/// Span-window (events) per node when the caller does not say.
pub const TRACE_PULL_WINDOW_DEFAULT: usize = 1 << 16;

/// Estimates one node's recorder-clock offset against the monitor's
/// `base` instant, NTP-style: `samples` request/response round-trips of
/// the admin `clock` command, offset = local midpoint − remote reading,
/// and the minimum-RTT sample wins (it bounds the error tightest). The
/// returned uncertainty is half that winning RTT — the mapped instant
/// genuinely is only known to ±rtt/2. A mid-estimate epoch change
/// (node restart) discards the samples taken under the old epoch.
pub fn estimate_clock(
    addr: SocketAddr,
    base: std::time::Instant,
    samples: u32,
    cfg: &MonConfig,
) -> std::io::Result<ClockEstimate> {
    let mut best: Option<(u64, i64)> = None; // (rtt, offset)
    let mut epoch: Option<u64> = None;
    let mut used: u32 = 0;
    for _ in 0..samples.max(1) {
        let t0 = base.elapsed().as_micros() as i64;
        let resp = query(addr, "clock", cfg)?;
        let t1 = base.elapsed().as_micros() as i64;
        let (Some(remote), Some(eid)) = (json_u64(&resp, "now_us"), json_u64(&resp, "epoch_id"))
        else {
            continue;
        };
        if epoch.is_some_and(|e| e != eid) {
            // The node restarted under us: everything sampled against
            // the old recorder is void.
            best = None;
            used = 0;
        }
        epoch = Some(eid);
        used += 1;
        let rtt = (t1 - t0).max(0) as u64;
        let offset = (t0 + t1) / 2 - remote as i64;
        if best.is_none_or(|(r, _)| rtt < r) {
            best = Some((rtt, offset));
        }
    }
    let ((rtt, offset), epoch_id) = best.zip(epoch).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no usable clock sample")
    })?;
    Ok(ClockEstimate {
        offset_us: offset,
        uncertainty_us: rtt / 2,
        epoch_id,
        samples: used,
    })
}

/// Parses one `spans` JSON line back into a [`SlotSpan`] (the admin
/// port's own output shape — every field an optional unsigned count).
fn parse_span_line(line: &str) -> Option<SlotSpan> {
    let slot = json_u64(line, "slot")?;
    let f = |key: &str| json_u64(line, key);
    Some(SlotSpan {
        slot,
        decided_ts_us: f("decided_ts_us"),
        decide_round: f("decide_round"),
        proposed_ts_us: f("proposed_ts_us"),
        first_heard_ts_us: f("first_heard_ts_us"),
        first_heard_peer: f("first_heard_peer"),
        quorum_ts_us: f("quorum_ts_us"),
        quorum_peer: f("quorum_peer"),
        order_us: f("order_us"),
        apply_wait_us: f("apply_wait_us"),
        apply_svc_us: f("apply_svc_us"),
        persist_wait_us: f("persist_wait_us"),
        persist_svc_us: f("persist_svc_us"),
        ack_us: f("ack_us"),
        ack_gate_us: f("ack_gate_us"),
    })
}

/// One node's share of a trace pull: whether it answered, the clock
/// estimate it got, and how many spans it contributed.
#[derive(Clone, Debug)]
pub struct NodePull {
    /// Index into the pull's node list.
    pub node: usize,
    /// The admin address pulled.
    pub addr: String,
    /// Whether clock estimation *and* the span pull both answered.
    pub reachable: bool,
    /// The clock mapping used for this node's spans.
    pub clock: Option<ClockEstimate>,
    /// Spans this node contributed to the stitch.
    pub span_count: usize,
}

impl NodePull {
    /// One JSON object — offset and ± uncertainty always spelled out.
    #[must_use]
    pub fn to_json(&self) -> String {
        let clock = self.clock.as_ref().map_or_else(
            || "null".to_string(),
            |c| {
                format!(
                    "{{\"offset_us\":{},\"uncertainty_us\":{},\"epoch_id\":{},\"samples\":{}}}",
                    c.offset_us, c.uncertainty_us, c.epoch_id, c.samples
                )
            },
        );
        format!(
            "{{\"node\":{},\"addr\":\"{}\",\"reachable\":{},\"clock\":{clock},\
             \"span_count\":{}}}",
            self.node, self.addr, self.reachable, self.span_count,
        )
    }
}

/// A completed cross-node trace pull: per-node pull records plus the
/// stitched cluster spans.
#[derive(Clone, Debug)]
pub struct TracePull {
    /// Per-node pull outcomes, in node-list order.
    pub nodes: Vec<NodePull>,
    /// The stitched autopsy, ordered by slot.
    pub spans: Vec<ClusterSlotSpan>,
}

impl TracePull {
    /// Decide-skew values across stitched slots (µs), unsorted.
    #[must_use]
    pub fn decide_skews(&self) -> Vec<u64> {
        self.spans.iter().filter_map(|s| s.decide_skew_us).collect()
    }

    /// Per-slot worst quorum waits across stitched slots (µs).
    #[must_use]
    pub fn quorum_waits(&self) -> Vec<u64> {
        self.spans
            .iter()
            .filter_map(|s| s.quorum_wait_max_us)
            .collect()
    }

    /// The pull summary as one JSON object: stitched-slot count,
    /// per-node clock offsets (± uncertainty, never dropped), and
    /// decide-skew / quorum-wait / fan-out percentiles.
    #[must_use]
    pub fn summary_json(&self) -> String {
        let nodes: Vec<String> = self.nodes.iter().map(NodePull::to_json).collect();
        let pct = |mut v: Vec<u64>, p: f64| {
            gencon_trace::percentile_us(&mut v, p)
                .map_or_else(|| "null".to_string(), |v| v.to_string())
        };
        let fanouts: Vec<u64> = self.spans.iter().filter_map(|s| s.fanout_us).collect();
        format!(
            "{{\"stitched_slots\":{},\"nodes_reached\":{},\
             \"decide_skew_p50_us\":{},\"decide_skew_p99_us\":{},\
             \"quorum_wait_p50_us\":{},\"quorum_wait_p99_us\":{},\
             \"fanout_p50_us\":{},\"fanout_p99_us\":{},\"clock\":[{}]}}",
            self.spans.len(),
            self.nodes.iter().filter(|n| n.reachable).count(),
            pct(self.decide_skews(), 50.0),
            pct(self.decide_skews(), 99.0),
            pct(self.quorum_waits(), 50.0),
            pct(self.quorum_waits(), 99.0),
            pct(fanouts.clone(), 50.0),
            pct(fanouts, 99.0),
            nodes.join(","),
        )
    }
}

/// Pulls `clock` + `spans` from every node, maps each node's spans
/// through its clock estimate, and stitches them into cluster slot
/// spans. Unreachable nodes are recorded as such and simply missing
/// from the stitch — the autopsy degrades, it does not fail.
#[must_use]
pub fn trace_pull(
    addrs: &[SocketAddr],
    window: usize,
    clock_samples: u32,
    cfg: &MonConfig,
) -> TracePull {
    let base = std::time::Instant::now();
    let mut nodes = Vec::with_capacity(addrs.len());
    let mut inputs: Vec<NodeSpans> = Vec::with_capacity(addrs.len());
    for (i, &addr) in addrs.iter().enumerate() {
        let mut pull = NodePull {
            node: i,
            addr: addr.to_string(),
            reachable: false,
            clock: None,
            span_count: 0,
        };
        if let Ok(clock) = estimate_clock(addr, base, clock_samples, cfg) {
            pull.clock = Some(clock);
            if let Ok(body) = query(addr, &format!("spans {window}"), cfg) {
                let spans: Vec<SlotSpan> = body.lines().filter_map(parse_span_line).collect();
                pull.reachable = true;
                pull.span_count = spans.len();
                inputs.push(NodeSpans {
                    node: i as u64,
                    clock,
                    spans,
                });
            }
        }
        nodes.push(pull);
    }
    TracePull {
        nodes,
        spans: stitch_spans(&inputs),
    }
}

/// Per-node watchdog bookkeeping carried across polls.
#[derive(Clone, Debug, Default)]
struct NodeTrack {
    was_unreachable: bool,
    was_straggler: bool,
    last_committed: Option<u64>,
    last_gate: Option<u64>,
    gate_static_polls: usize,
}

/// The polling aggregator + watchdog (the `gencon-mon` engine).
pub struct Monitor {
    addrs: Vec<SocketAddr>,
    cfg: MonConfig,
    poll: u64,
    tracks: Vec<NodeTrack>,
    /// Max committed seen on the previous poll, for stall detection.
    last_max_committed: Option<u64>,
    /// Consecutive polls without commit progress anywhere.
    stalled_polls: usize,
    /// Applied counts whose divergence has already been reported.
    reported_divergence: HashSet<u64>,
}

impl Monitor {
    /// A monitor over `addrs` (one admin address per node, in node-id
    /// order).
    #[must_use]
    pub fn new(addrs: Vec<SocketAddr>, cfg: MonConfig) -> Self {
        let tracks = vec![NodeTrack::default(); addrs.len()];
        Monitor {
            addrs,
            cfg,
            poll: 0,
            tracks,
            last_max_committed: None,
            stalled_polls: 0,
            reported_divergence: HashSet::new(),
        }
    }

    /// The configured poll interval (for the binary's sleep loop).
    #[must_use]
    pub fn interval(&self) -> Duration {
        self.cfg.interval
    }

    /// Samples one node: `status` decides reachability; `rates` and
    /// `hash` enrich the sample when they answer.
    fn sample(&self, node: usize) -> NodeSample {
        let addr = self.addrs[node];
        let mut s = NodeSample {
            node,
            addr: addr.to_string(),
            ..NodeSample::default()
        };
        let Ok(status) = query(addr, "status", &self.cfg) else {
            return s;
        };
        let Some(round) = json_u64(&status, "round") else {
            return s; // answered, but not with a status object
        };
        s.reachable = true;
        s.round = round;
        s.committed = json_u64(&status, "committed_slots").unwrap_or(0);
        s.applied = json_u64(&status, "applied").unwrap_or(0);
        s.queued = json_u64(&status, "queued").unwrap_or(0);
        s.persist_gate = json_u64(&status, "persist_gate").unwrap_or(0);
        s.peer_lags = parse_peer_lags(&status);
        if let Ok(rates) = query(addr, "rates", &self.cfg) {
            s.cmds_per_sec = json_f64(&rates, "cmds_per_sec").unwrap_or(0.0);
            s.fsyncs_per_sec = json_f64(&rates, "fsyncs_per_sec").unwrap_or(0.0);
            s.rounds_per_sec = json_f64(&rates, "rounds_per_sec").unwrap_or(0.0);
        }
        if let Ok(hash) = query(addr, "hash", &self.cfg) {
            s.hashes = parse_hash_pairs(&hash);
        }
        s
    }

    /// Polls every node once, runs the watchdog, and returns the
    /// assembled report (alerts included).
    pub fn poll_once(&mut self) -> ClusterReport {
        self.poll += 1;
        let poll = self.poll;
        let samples: Vec<NodeSample> = (0..self.addrs.len()).map(|i| self.sample(i)).collect();
        let mut alerts = Vec::new();

        let reachable: Vec<&NodeSample> = samples.iter().filter(|s| s.reachable).collect();
        let max_committed = reachable.iter().map(|s| s.committed).max().unwrap_or(0);
        let min_committed = reachable.iter().map(|s| s.committed).min().unwrap_or(0);
        let max_round = reachable.iter().map(|s| s.round).max().unwrap_or(0);
        let min_round = reachable.iter().map(|s| s.round).min().unwrap_or(0);

        // Unreachable / recovered transitions.
        for s in &samples {
            let track = &mut self.tracks[s.node];
            if s.reachable {
                let lagging = max_committed.saturating_sub(s.committed) > self.cfg.straggler_slots;
                if (track.was_unreachable || track.was_straggler) && !lagging {
                    alerts.push(Alert {
                        kind: AlertKind::StragglerRecovered,
                        poll,
                        node: Some(s.node),
                        applied: None,
                        detail: format!(
                            "node {} back within bounds (committed {} of max {max_committed})",
                            s.node, s.committed
                        ),
                    });
                    track.was_straggler = false;
                }
                track.was_unreachable = false;
            } else if !track.was_unreachable {
                track.was_unreachable = true;
                alerts.push(Alert {
                    kind: AlertKind::Unreachable,
                    poll,
                    node: Some(s.node),
                    applied: None,
                    detail: format!("admin endpoint {} not answering", s.addr),
                });
            }
        }

        // Stragglers: committed watermark trailing, or peer-observed lag.
        for s in &reachable {
            let mut why = None;
            if max_committed.saturating_sub(s.committed) > self.cfg.straggler_slots {
                why = Some(format!(
                    "committed {} trails max {max_committed} by more than {}",
                    s.committed, self.cfg.straggler_slots
                ));
            }
            if why.is_none() {
                for other in &reachable {
                    if let Some((_, lag, off)) = other.peer_lags.iter().find(|(peer, lag, off)| {
                        *peer == s.node && (*off || *lag > self.cfg.straggler_rounds)
                    }) {
                        why = Some(format!(
                            "node {} sees it {lag} rounds behind{}",
                            other.node,
                            if *off { " (written off)" } else { "" }
                        ));
                        break;
                    }
                }
            }
            let track = &mut self.tracks[s.node];
            if let Some(why) = why {
                if !track.was_straggler {
                    track.was_straggler = true;
                    alerts.push(Alert {
                        kind: AlertKind::Straggler,
                        poll,
                        node: Some(s.node),
                        applied: None,
                        detail: why,
                    });
                }
            }
        }

        // Commit-progress stall across the whole cluster: the watermark
        // sits still while work waits. With nothing queued anywhere the
        // cluster is quiescent and commits nothing, by design.
        let queued: u64 = reachable.iter().map(|s| s.queued).sum();
        if reachable.is_empty() {
            self.stalled_polls = 0;
        } else if self.last_max_committed == Some(max_committed) && queued > 0 {
            self.stalled_polls += 1;
            if self.cfg.stall_polls > 0 && self.stalled_polls.is_multiple_of(self.cfg.stall_polls) {
                alerts.push(Alert {
                    kind: AlertKind::CommitStall,
                    poll,
                    node: None,
                    applied: None,
                    detail: format!(
                        "no commit progress for {} polls (max committed stuck at \
                         {max_committed}, {queued} commands queued)",
                        self.stalled_polls
                    ),
                });
            }
        } else {
            self.stalled_polls = 0;
        }
        if !reachable.is_empty() {
            self.last_max_committed = Some(max_committed);
        }

        // Persist-gate wedge: gate still while this node's commits move.
        for s in &reachable {
            let track = &mut self.tracks[s.node];
            let committed_advanced = track.last_committed.is_some_and(|c| s.committed > c);
            let gate_static = track.last_gate == Some(s.persist_gate) && s.persist_gate > 0;
            if committed_advanced && gate_static {
                track.gate_static_polls += 1;
                if self.cfg.stall_polls > 0
                    && track.gate_static_polls.is_multiple_of(self.cfg.stall_polls)
                {
                    alerts.push(Alert {
                        kind: AlertKind::GateWedge,
                        poll,
                        node: Some(s.node),
                        applied: None,
                        detail: format!(
                            "persist gate stuck at {} while committed advanced to {} \
                             ({} polls)",
                            s.persist_gate, s.committed, track.gate_static_polls
                        ),
                    });
                }
            } else {
                track.gate_static_polls = 0;
            }
            track.last_committed = Some(s.committed);
            track.last_gate = Some(s.persist_gate);
        }

        // Divergence: any applied count where two nodes' hashes differ.
        let mut by_applied: Vec<(u64, Vec<(usize, &str)>)> = Vec::new();
        for s in &reachable {
            for (applied, hash) in &s.hashes {
                match by_applied.iter_mut().find(|(a, _)| a == applied) {
                    Some((_, rows)) => rows.push((s.node, hash)),
                    None => by_applied.push((*applied, vec![(s.node, hash)])),
                }
            }
        }
        by_applied.sort_by_key(|(applied, _)| *applied);
        for (applied, rows) in &by_applied {
            let first = rows[0].1;
            if rows.iter().any(|(_, h)| *h != first) && self.reported_divergence.insert(*applied) {
                let evidence: Vec<String> = rows
                    .iter()
                    .map(|(node, hash)| format!("node {node}={hash}"))
                    .collect();
                alerts.push(Alert {
                    kind: AlertKind::Divergence,
                    poll,
                    node: None,
                    applied: Some(*applied),
                    detail: format!(
                        "state hashes disagree at applied {applied}: {}",
                        evidence.join(", ")
                    ),
                });
            }
        }

        // Agreement at the max applied count common to every reachable
        // publishing node (need at least two to compare).
        let publishers: Vec<&&NodeSample> =
            reachable.iter().filter(|s| !s.hashes.is_empty()).collect();
        let agreement = (publishers.len() >= 2)
            .then(|| {
                let mut common: Option<HashSet<u64>> = None;
                for s in &publishers {
                    let counts: HashSet<u64> = s.hashes.iter().map(|(a, _)| *a).collect();
                    common = Some(match common {
                        None => counts,
                        Some(c) => c.intersection(&counts).copied().collect(),
                    });
                }
                let at = common.unwrap_or_default().into_iter().max()?;
                let hashes: Vec<(usize, String)> = publishers
                    .iter()
                    .filter_map(|s| {
                        s.hashes
                            .iter()
                            .find(|(a, _)| *a == at)
                            .map(|(_, h)| (s.node, h.clone()))
                    })
                    .collect();
                let agreed = hashes.windows(2).all(|w| w[0].1 == w[1].1);
                Some(HashAgreement {
                    applied: at,
                    agreed,
                    hashes,
                })
            })
            .flatten();

        ClusterReport {
            poll,
            nodes: samples,
            max_committed,
            min_committed,
            round_skew: max_round.saturating_sub(min_round),
            agreement,
            alerts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::{spawn_admin, AdminState, ADMIN_IO_TIMEOUT};
    use gencon_metrics::{HistoryRing, Registry};
    use gencon_trace::{FlightRecorder, HashCell, PeerTable};

    fn fake_node(node_id: usize) -> (SocketAddr, AdminState) {
        let state = AdminState {
            node_id,
            registry: Registry::new(),
            recorder: FlightRecorder::new(64),
            peers: PeerTable::new(2),
            history: HistoryRing::new(8),
            hashes: HashCell::new(),
            io_timeout: ADMIN_IO_TIMEOUT,
        };
        let addr = spawn_admin("127.0.0.1:0".parse().unwrap(), state.clone()).unwrap();
        (addr, state)
    }

    fn quick_cfg() -> MonConfig {
        MonConfig {
            interval: Duration::from_millis(10),
            connect_timeout: Duration::from_millis(200),
            io_timeout: Duration::from_millis(500),
            stall_polls: 2,
            straggler_slots: 100,
            straggler_rounds: 50,
        }
    }

    #[test]
    fn aggregates_two_nodes_and_flags_divergence() {
        let (addr_a, a) = fake_node(0);
        let (addr_b, b) = fake_node(1);
        for (state, committed) in [(&a, 900u64), (&b, 870u64)] {
            state.registry.gauge("order.round").set(30);
            state.registry.gauge("order.committed_slots").set(committed);
            state.registry.gauge("order.applied").set(committed);
            let rounds = state.registry.counter("order.rounds");
            rounds.add(100);
            state.history.sample_at(&state.registry, 1_000);
            rounds.add(50);
            state.history.sample_at(&state.registry, 2_000);
        }
        // Agree at 512, diverge at 768 — the audit record must carry
        // both hashes.
        a.hashes.publish(512, [0x11; 32]);
        b.hashes.publish(512, [0x11; 32]);
        a.hashes.publish(768, [0xaa; 32]);
        b.hashes.publish(768, [0xbb; 32]);

        let mut mon = Monitor::new(vec![addr_a, addr_b], quick_cfg());
        let report = mon.poll_once();

        assert_eq!(report.nodes.len(), 2);
        assert!(report.nodes.iter().all(|s| s.reachable), "{report:?}");
        assert_eq!(report.max_committed, 900);
        assert_eq!(report.min_committed, 870);
        assert!(
            (report.nodes[0].rounds_per_sec - 50.0).abs() < 0.01,
            "{report:?}"
        );

        let divergence: Vec<&Alert> = report
            .alerts
            .iter()
            .filter(|a| a.kind == AlertKind::Divergence)
            .collect();
        assert_eq!(divergence.len(), 1, "{report:?}");
        assert_eq!(divergence[0].applied, Some(768));
        assert!(divergence[0].detail.contains(&"aa".repeat(32)));
        assert!(divergence[0].detail.contains(&"bb".repeat(32)));

        // Agreement compares at the max COMMON count (768, where they
        // disagree) — and the JSON carries the evidence.
        let agreement = report.agreement.as_ref().expect("two publishers");
        assert_eq!(agreement.applied, 768);
        assert!(!agreement.agreed);
        let json = report.to_json();
        assert!(json.contains("\"alert\":\"divergence\""), "{json}");
        assert!(json.contains("\"agreed\":false"), "{json}");

        // The same divergence is not re-reported on the next poll.
        let again = mon.poll_once();
        assert!(
            again.alerts.iter().all(|a| a.kind != AlertKind::Divergence),
            "{again:?}"
        );
    }

    #[test]
    fn agreement_holds_when_hashes_match() {
        let (addr_a, a) = fake_node(0);
        let (addr_b, b) = fake_node(1);
        for state in [&a, &b] {
            state.registry.gauge("order.round").set(10);
            state.registry.gauge("order.committed_slots").set(600);
            state.hashes.publish(512, [0x42; 32]);
        }
        // One node is ahead by a publication; agreement still lands on
        // the common count.
        a.hashes.publish(1024, [0x43; 32]);

        let mut mon = Monitor::new(vec![addr_a, addr_b], quick_cfg());
        let report = mon.poll_once();
        let agreement = report.agreement.as_ref().expect("two publishers");
        assert_eq!(agreement.applied, 512);
        assert!(agreement.agreed, "{report:?}");
        assert!(report.alerts.is_empty(), "{report:?}");
    }

    #[test]
    fn unreachable_fires_once_on_transition() {
        let (addr_a, a) = fake_node(0);
        a.registry.gauge("order.committed_slots").set(50);
        // A port nobody is listening on: bind, learn the port, drop.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut mon = Monitor::new(vec![addr_a, dead], quick_cfg());
        let first = mon.poll_once();
        let unreachable: Vec<&Alert> = first
            .alerts
            .iter()
            .filter(|al| al.kind == AlertKind::Unreachable)
            .collect();
        assert_eq!(unreachable.len(), 1, "{first:?}");
        assert_eq!(unreachable[0].node, Some(1));
        assert!(!first.nodes[1].reachable);

        let second = mon.poll_once();
        assert!(
            second
                .alerts
                .iter()
                .all(|al| al.kind != AlertKind::Unreachable),
            "transition alert repeated: {second:?}"
        );
    }

    #[test]
    fn stall_fires_after_k_static_polls() {
        let (addr, state) = fake_node(0);
        state.registry.gauge("order.committed_slots").set(400);
        state.registry.gauge("order.queued").set(3);
        let mut mon = Monitor::new(vec![addr], quick_cfg());
        // Poll 1 records the watermark; polls 2 and 3 see it static —
        // stall_polls = 2 fires on poll 3.
        assert!(mon.poll_once().alerts.is_empty());
        assert!(mon.poll_once().alerts.is_empty());
        let third = mon.poll_once();
        assert!(
            third
                .alerts
                .iter()
                .any(|a| a.kind == AlertKind::CommitStall),
            "{third:?}"
        );
        // Progress clears the stall counter.
        state.registry.gauge("order.committed_slots").set(500);
        assert!(mon.poll_once().alerts.is_empty());
    }

    /// A quiescent cluster commits nothing and has nothing queued: a
    /// still watermark is not a stall.
    #[test]
    fn idle_cluster_raises_no_commit_stall() {
        let (addr, state) = fake_node(0);
        state.registry.gauge("order.committed_slots").set(400);
        let mut mon = Monitor::new(vec![addr], quick_cfg());
        for _ in 0..6 {
            let report = mon.poll_once();
            assert!(report.alerts.is_empty(), "{report:?}");
        }
        // Work arrives and the watermark stays put: now it is a stall.
        state.registry.gauge("order.queued").set(1);
        let stalled = (0..2)
            .flat_map(|_| mon.poll_once().alerts)
            .collect::<Vec<_>>();
        assert!(
            stalled.iter().any(|a| a.kind == AlertKind::CommitStall),
            "{stalled:?}"
        );
    }

    #[test]
    fn straggler_then_recovery() {
        let (addr_a, a) = fake_node(0);
        let (addr_b, b) = fake_node(1);
        a.registry.gauge("order.committed_slots").set(1_000);
        b.registry.gauge("order.committed_slots").set(200);
        let mut mon = Monitor::new(vec![addr_a, addr_b], quick_cfg());
        let first = mon.poll_once();
        let straggler: Vec<&Alert> = first
            .alerts
            .iter()
            .filter(|al| al.kind == AlertKind::Straggler)
            .collect();
        assert_eq!(straggler.len(), 1, "{first:?}");
        assert_eq!(straggler[0].node, Some(1));

        // Catching up produces exactly one recovery alert.
        b.registry.gauge("order.committed_slots").set(980);
        a.registry.gauge("order.committed_slots").set(1_010);
        let second = mon.poll_once();
        assert!(
            second
                .alerts
                .iter()
                .any(|al| al.kind == AlertKind::StragglerRecovered && al.node == Some(1)),
            "{second:?}"
        );
    }

    #[test]
    fn clock_estimate_is_tight_on_loopback() {
        let (addr, state) = fake_node(0);
        let base = std::time::Instant::now();
        let est = estimate_clock(addr, base, 8, &quick_cfg()).unwrap();
        assert_eq!(est.epoch_id, state.recorder.epoch_id());
        assert_eq!(est.samples, 8);
        // Loopback round-trips are well under 100ms, so the offset must
        // place the recorder's birth (node_ts 0) within 100ms of the
        // monitor base, and the uncertainty must reflect a real RTT.
        assert!(est.map(0).abs() < 100_000, "offset {} µs", est.offset_us);
        assert!(est.uncertainty_us < 100_000, "{est:?}");
        // Causality survives the mapping: later node readings map later.
        assert!(est.map(5_000) > est.map(0));
    }

    #[test]
    fn trace_pull_stitches_across_fake_nodes() {
        let (addr_a, a) = fake_node(0);
        let (addr_b, b) = fake_node(1);
        use gencon_trace::{EventKind, Stage};
        for state in [&a, &b] {
            let rec = &state.recorder;
            // Slot 3 decided in round 7 on both nodes, with quorum
            // telemetry; recorder timestamps are real (now_us-based), so
            // the estimated offsets genuinely map them.
            rec.record(Stage::Order, EventKind::Proposed, 3, 7);
            rec.record(Stage::Order, EventKind::HeardFrom, 7, 1);
            rec.record(Stage::Order, EventKind::QuorumReached, 7, 1);
            rec.record(Stage::Order, EventKind::Decided, 3, 7);
        }
        let cfg = quick_cfg();
        let pull = trace_pull(&[addr_a, addr_b], 1 << 16, 4, &cfg);
        assert!(pull.nodes.iter().all(|n| n.reachable), "{:?}", pull.nodes);
        assert_eq!(pull.spans.len(), 1, "{:?}", pull.spans);
        let s = &pull.spans[0];
        assert_eq!(s.slot, 3);
        assert_eq!(s.nodes.len(), 2);
        assert!(s.decide_skew_us.is_some(), "{s:?}");
        assert!(s.quorum_wait_max_us.is_some(), "{s:?}");
        assert_eq!(s.slowest_voucher, Some(1));
        let summary = pull.summary_json();
        assert!(summary.contains("\"stitched_slots\":1"), "{summary}");
        assert!(summary.contains("\"decide_skew_p50_us\":"), "{summary}");
        assert!(summary.contains("\"uncertainty_us\":"), "{summary}");
        assert!(summary.contains("\"offset_us\":"), "{summary}");
    }

    #[test]
    fn trace_pull_tolerates_a_dead_node() {
        let (addr_a, a) = fake_node(0);
        a.recorder.record(
            gencon_trace::Stage::Order,
            gencon_trace::EventKind::Decided,
            1,
            1,
        );
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let pull = trace_pull(&[addr_a, dead], 1 << 16, 2, &quick_cfg());
        assert!(pull.nodes[0].reachable);
        assert!(!pull.nodes[1].reachable);
        assert!(pull.nodes[1].clock.is_none());
        assert_eq!(pull.spans.len(), 1);
        assert!(pull.nodes[1].to_json().contains("\"clock\":null"));
    }

    #[test]
    fn span_lines_roundtrip_through_the_parser() {
        let span = SlotSpan {
            slot: 42,
            decided_ts_us: Some(9_000),
            decide_round: Some(12),
            proposed_ts_us: Some(8_000),
            first_heard_ts_us: Some(8_200),
            first_heard_peer: Some(2),
            quorum_ts_us: Some(8_700),
            quorum_peer: Some(1),
            order_us: Some(1_000),
            ack_us: Some(1_500),
            ..SlotSpan::default()
        };
        assert_eq!(parse_span_line(&span.to_json()), Some(span));
        assert_eq!(parse_span_line("{\"error\":\"nope\"}"), None);
    }

    #[test]
    fn gate_wedge_fires_when_commits_outrun_a_static_gate() {
        let (addr, state) = fake_node(0);
        let committed = state.registry.gauge("order.committed_slots");
        let gate = state.registry.gauge("persist.gate");
        committed.set(100);
        gate.set(64);
        let mut mon = Monitor::new(vec![addr], quick_cfg());
        assert!(mon.poll_once().alerts.is_empty());
        committed.set(200);
        assert!(mon.poll_once().alerts.is_empty(), "one static poll yet");
        committed.set(300);
        let third = mon.poll_once();
        assert!(
            third.alerts.iter().any(|a| a.kind == AlertKind::GateWedge),
            "{third:?}"
        );
    }
}
