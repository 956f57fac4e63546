//! The live admin endpoint: a line-oriented TCP debug port.
//!
//! One **command per connection**: the client connects, sends a single
//! line, and reads the full response until the server closes the socket
//! — trivially scriptable from `nc`, python, or the CI smoke jobs with
//! no framing to parse. Commands:
//!
//! | command       | response                                            |
//! |---------------|-----------------------------------------------------|
//! | `metrics`     | the metrics registry as one flat JSON object        |
//! | `status`      | one JSON object: node id, round, watermarks, live   |
//! |               | queue depths and the per-peer lag table             |
//! | `trace [n]`   | the last `n` (default 256) flight-recorder events,  |
//! |               | one JSON line each, oldest first                    |
//! | `spans [n]`   | per-slot latency breakdowns assembled from the last |
//! |               | `n` (default 4096) events, one JSON line per slot   |
//! | `spans a..b`  | the same breakdowns filtered to slots `a ≤ slot < b`|
//! |               | over the whole retained ring — autopsy exactly the  |
//! |               | window an alert named                               |
//! | `clock`       | `{"node_id":…,"now_us":…,"epoch_id":…}` — the       |
//! |               | recorder's clock reading for offset estimation      |
//! | `history [n]` | the last `n` (default 32) timestamped registry      |
//! |               | snapshots from the history ring, one JSON line each |
//! | `rates`       | derived rates (cmds/fsyncs/rounds per second) over  |
//! |               | the newest history interval                         |
//! | `hash`        | the node's published `(applied count, state hash)`  |
//! |               | pairs — the cross-replica divergence audit record   |
//!
//! The endpoint is read-only and runs on its own thread; every answer is
//! assembled from lock-free snapshots (metric handles, the flight
//! recorder's seqlock cells, the peer table's atomics, the hash cell),
//! so querying a node under load never blocks its pipeline. Malformed
//! input gets an `{"error":…}` line listing the commands. Every accepted
//! stream carries a read/write deadline ([`AdminState::io_timeout`]), so
//! a client that connects and never sends a line cannot wedge the port.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use gencon_metrics::{HistoryRing, Registry};
use gencon_trace::{assemble_spans, hash_hex, FlightRecorder, HashCell, PeerTable};

/// Default event count for `trace` without an argument.
const TRACE_DEFAULT: usize = 256;

/// Default event window for `spans` without an argument.
const SPANS_DEFAULT: usize = 4096;

/// Default snapshot count for `history` without an argument.
const HISTORY_DEFAULT: usize = 32;

/// Deadline applied to each accepted stream unless overridden.
pub const ADMIN_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The read-only handles the admin endpoint serves from, all shared
/// with the running node.
#[derive(Clone)]
pub struct AdminState {
    /// This node's index into the peer list (reported by `status`).
    pub node_id: usize,
    /// The node's metric registry (`metrics`, and the watermark and
    /// queue-depth gauges `status` reads).
    pub registry: Registry,
    /// The flight recorder backing `trace` and `spans`.
    pub recorder: FlightRecorder,
    /// The per-peer health table backing `status`'s lag table.
    pub peers: PeerTable,
    /// The sampled snapshot ring backing `history` and `rates`.
    pub history: HistoryRing,
    /// The published state-hash pairs backing `hash`.
    pub hashes: HashCell,
    /// Read/write deadline set on every accepted stream, so one silent
    /// client cannot freeze the port.
    pub io_timeout: Duration,
}

impl AdminState {
    /// Renders the `status` JSON object.
    #[must_use]
    pub fn status_json(&self) -> String {
        let g = |name: &str| self.registry.gauge_value(name).unwrap_or(0);
        let round = g("order.round");
        let peers: Vec<String> = self
            .peers
            .rows(round)
            .iter()
            .map(gencon_trace::PeerRow::to_json)
            .collect();
        let c = |name: &str| self.registry.counter_value(name).unwrap_or(0);
        format!(
            "{{\"node_id\":{},\"round\":{round},\"committed_slots\":{},\"applied\":{},\
             \"queued\":{},\"persist_gate\":{},\"ingest_queue\":{},\"apply_queue\":{},\
             \"persist_queue\":{},\"bounced_backpressure\":{},\"bounced_redirect\":{},\
             \"trace_events\":{},\"peers\":[{}]}}",
            self.node_id,
            g("order.committed_slots"),
            g("order.applied"),
            g("order.queued"),
            g("persist.gate"),
            // The transport inbox: frames waiting for the order thread.
            g("ingest.queue_depth_now"),
            g("apply.queue_depth_now"),
            g("persist.queue_depth_now"),
            c("ack.bounced_backpressure"),
            c("ack.bounced_redirect"),
            self.recorder.recorded(),
            peers.join(","),
        )
    }

    /// Renders the `hash` JSON object: the newest published pair plus
    /// every retained pair, so a monitor can intersect nodes' lists and
    /// compare at the highest *common* applied count.
    #[must_use]
    pub fn hash_json(&self) -> String {
        let pair_json = |(applied, hash): &(u64, [u8; 32])| {
            format!(
                "{{\"applied\":{applied},\"state_hash\":\"{}\"}}",
                hash_hex(hash)
            )
        };
        let recent = self.hashes.recent();
        let latest = recent.last().map_or_else(|| "null".to_string(), pair_json);
        let pairs: Vec<String> = recent.iter().map(pair_json).collect();
        format!(
            "{{\"node_id\":{},\"published\":{},\"latest\":{latest},\"recent\":[{}]}}",
            self.node_id,
            self.hashes.published(),
            pairs.join(","),
        )
    }

    /// Answers one already-parsed command line.
    fn respond(&self, line: &str) -> String {
        let mut words = line.split_whitespace();
        let cmd = words.next().unwrap_or("");
        let raw_arg = words.next();
        let arg = |d: usize| raw_arg.and_then(|w| w.parse().ok()).unwrap_or(d);
        match cmd {
            "metrics" => self.registry.dump_json(),
            "status" => self.status_json(),
            "trace" => {
                let events = self.recorder.tail(arg(TRACE_DEFAULT));
                let mut out = String::new();
                for ev in &events {
                    out.push_str(&ev.to_json());
                    out.push('\n');
                }
                out
            }
            "spans" => {
                // `spans a..b` filters by slot over the whole retained
                // ring; `spans [n]` windows by event count as before.
                let range = raw_arg.and_then(parse_slot_range);
                let events = match range {
                    Some(_) => self.recorder.tail(self.recorder.capacity()),
                    None => self.recorder.tail(arg(SPANS_DEFAULT)),
                };
                let mut out = String::new();
                for span in assemble_spans(&events)
                    .iter()
                    .filter(|s| range.is_none_or(|(from, to)| s.slot >= from && s.slot < to))
                {
                    out.push_str(&span.to_json());
                    out.push('\n');
                }
                out
            }
            "clock" => format!(
                "{{\"node_id\":{},\"now_us\":{},\"epoch_id\":{}}}",
                self.node_id,
                self.recorder.now_us(),
                self.recorder.epoch_id(),
            ),
            "history" => {
                let snaps = self.history.tail(arg(HISTORY_DEFAULT));
                let mut out = String::new();
                for snap in &snaps {
                    out.push_str(&snap.to_json());
                    out.push('\n');
                }
                out
            }
            "rates" => self.history.rates().map_or_else(
                || "{\"error\":\"need two history samples\"}".to_string(),
                |report| report.to_json(),
            ),
            "hash" => self.hash_json(),
            _ => "{\"error\":\"unknown command (metrics|status|trace [n]|spans [n]|\
                  spans <from>..<to>|clock|history [n]|rates|hash)\"}"
                .to_string(),
        }
    }
}

/// Parses the `spans` range form `<from>..<to>` (half-open, like a Rust
/// range). `None` for anything else — the plain count form keeps
/// working.
fn parse_slot_range(arg: &str) -> Option<(u64, u64)> {
    let (from, to) = arg.split_once("..")?;
    Some((from.parse().ok()?, to.parse().ok()?))
}

/// Serves one connection: read a command line, write the answer, close.
/// The stream gets the state's I/O deadline first, so a stalled client
/// costs at most one timeout, never the port.
fn handle(state: &AdminState, stream: TcpStream) {
    state.registry.counter("admin.connections").add(1);
    let timeout = if state.io_timeout.is_zero() {
        None
    } else {
        Some(state.io_timeout)
    };
    if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
        state.registry.counter("admin.errors").add(1);
        return;
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            state.registry.counter("admin.errors").add(1);
            return;
        }
    });
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => {}
        _ => {
            state.registry.counter("admin.errors").add(1);
            return;
        }
    }
    let mut response = state.respond(line.trim());
    if !response.ends_with('\n') {
        response.push('\n');
    }
    let mut stream = stream;
    if stream.write_all(response.as_bytes()).is_err() {
        state.registry.counter("admin.errors").add(1);
    }
}

/// Binds `addr` and serves admin queries on a background thread for the
/// life of the process. Returns the bound address (pass port 0 to let
/// the OS pick — tests do). Connections are served serially: this is a
/// debug port, not a data plane, and per-stream deadlines bound how long
/// any one client can hold it.
pub fn spawn_admin(addr: SocketAddr, state: AdminState) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            handle(&state, stream);
        }
    });
    Ok(local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_trace::{EventKind, Stage};

    fn query(addr: SocketAddr, cmd: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(cmd.as_bytes()).unwrap();
        s.write_all(b"\n").unwrap();
        let mut out = String::new();
        use std::io::Read;
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn test_state() -> AdminState {
        AdminState {
            node_id: 2,
            registry: Registry::new(),
            recorder: FlightRecorder::new(256),
            peers: PeerTable::new(3),
            history: HistoryRing::new(16),
            hashes: HashCell::new(),
            io_timeout: ADMIN_IO_TIMEOUT,
        }
    }

    #[test]
    fn status_reports_gauges_and_peer_rows() {
        let state = test_state();
        state.registry.gauge("order.round").set(41);
        state.registry.gauge("order.committed_slots").set(17);
        state.peers.heard(0, 40);
        state.peers.heard(1, 12);
        state.peers.write_off(1);
        let json = state.status_json();
        assert!(json.contains("\"node_id\":2"), "{json}");
        assert!(json.contains("\"round\":41"), "{json}");
        assert!(json.contains("\"committed_slots\":17"), "{json}");
        assert!(json.contains("\"lag_rounds\":1"), "{json}");
        assert!(json.contains("\"written_off\":true"), "{json}");
    }

    #[test]
    fn endpoint_answers_every_command_over_tcp() {
        let state = test_state();
        state.registry.counter("order.decided").add(3);
        state.registry.gauge("order.round").set(9);
        let rec = state.recorder.clone();
        rec.record(Stage::Order, EventKind::Proposed, 4, 9);
        rec.record(Stage::Order, EventKind::Decided, 4, 9);
        let registry = state.registry.clone();
        let addr = spawn_admin("127.0.0.1:0".parse().unwrap(), state).unwrap();

        let metrics = query(addr, "metrics");
        assert!(metrics.contains("\"order.decided\":3"), "{metrics}");

        let status = query(addr, "status");
        assert!(status.contains("\"round\":9"), "{status}");
        assert!(status.contains("\"trace_events\":2"), "{status}");

        let trace = query(addr, "trace 10");
        assert_eq!(trace.lines().count(), 2, "{trace}");
        assert!(trace.contains("\"kind\":\"decided\""), "{trace}");

        let spans = query(addr, "spans");
        assert_eq!(spans.lines().count(), 1, "{spans}");
        assert!(spans.contains("\"slot\":4"), "{spans}");
        assert!(spans.contains("\"order_us\""), "{spans}");

        // Unknown and retired verbs get the error line, which lists
        // exactly the verbs the endpoint serves.
        for verb in ["bogus", "cmds", "slowest 3"] {
            let err = query(addr, verb);
            assert!(err.starts_with("{\"error\""), "{verb}: {err}");
            let list = &err[err.find('(').unwrap() + 1..err.rfind(')').unwrap()];
            let mut named: Vec<&str> = list
                .split('|')
                .filter_map(|alt| alt.split_whitespace().next())
                .collect();
            named.dedup();
            assert_eq!(
                named,
                ["metrics", "status", "trace", "spans", "clock", "history", "rates", "hash"],
                "{err}"
            );
        }

        assert!(
            registry.counter_value("admin.connections").unwrap_or(0) >= 7,
            "served connections are counted"
        );
    }

    #[test]
    fn slowest_and_cmds_answer_over_tcp() {
        // Command-path tracing is gone: `slowest` and `cmds`, with or
        // without an argument, answer the one-line error instead of
        // data, and the port keeps serving afterwards.
        let state = test_state();
        state
            .recorder
            .record(Stage::Order, EventKind::Decided, 4, 9);
        let addr = spawn_admin("127.0.0.1:0".parse().unwrap(), state).unwrap();
        for verb in ["slowest", "slowest 3", "cmds", "cmds 8"] {
            let err = query(addr, verb);
            assert_eq!(err.lines().count(), 1, "{verb}: {err}");
            assert!(
                err.starts_with("{\"error\":\"unknown command"),
                "{verb}: {err}"
            );
            assert!(
                !err.contains("slowest") && !err.contains("cmds"),
                "{verb}: {err}"
            );
        }
        let trace = query(addr, "trace");
        assert!(trace.contains("\"kind\":\"decided\""), "{trace}");
    }

    #[test]
    fn history_rates_and_hash_answer_over_tcp() {
        let state = test_state();
        let counter = state.registry.counter("order.rounds");
        let applied = state.registry.gauge("order.applied");
        counter.add(100);
        applied.set(400);
        state.history.sample_at(&state.registry, 1_000);
        counter.add(50);
        applied.set(700);
        state.history.sample_at(&state.registry, 2_000);
        state.hashes.publish(512, [0xaa; 32]);
        state.hashes.publish(1024, [0xbb; 32]);
        let addr = spawn_admin("127.0.0.1:0".parse().unwrap(), state).unwrap();

        let history = query(addr, "history");
        assert_eq!(history.lines().count(), 2, "{history}");
        assert!(history.contains("\"ts_ms\":1000"), "{history}");
        assert!(history.contains("\"order.rounds\":150"), "{history}");

        let one = query(addr, "history 1");
        assert_eq!(one.lines().count(), 1, "{one}");
        assert!(one.contains("\"ts_ms\":2000"), "{one}");

        let rates = query(addr, "rates");
        assert!(rates.contains("\"interval_ms\":1000"), "{rates}");
        assert!(rates.contains("\"rounds_per_sec\":50.000"), "{rates}");
        assert!(rates.contains("\"cmds_per_sec\":300.000"), "{rates}");

        let hash = query(addr, "hash");
        assert!(hash.contains("\"node_id\":2"), "{hash}");
        assert!(hash.contains("\"published\":2"), "{hash}");
        assert!(
            hash.contains(&format!(
                "\"applied\":1024,\"state_hash\":\"{}\"",
                "bb".repeat(32)
            )),
            "{hash}"
        );
        assert!(hash.contains(&"aa".repeat(32)), "{hash}");
    }

    #[test]
    fn spans_range_form_filters_by_slot() {
        let state = test_state();
        let rec = state.recorder.clone();
        for slot in 0..20 {
            rec.record(Stage::Order, EventKind::Proposed, slot, 1);
            rec.record(Stage::Order, EventKind::Decided, slot, 1);
        }
        let addr = spawn_admin("127.0.0.1:0".parse().unwrap(), state).unwrap();

        let window = query(addr, "spans 5..8");
        let slots: Vec<&str> = window.lines().collect();
        assert_eq!(slots.len(), 3, "{window}");
        for (i, line) in slots.iter().enumerate() {
            assert!(line.contains(&format!("\"slot\":{}", 5 + i)), "{line}");
        }
        // Degenerate and empty ranges answer cleanly.
        assert_eq!(query(addr, "spans 8..5"), "\n");
        assert_eq!(query(addr, "spans 100..200"), "\n");
        // The count form still works.
        assert_eq!(query(addr, "spans").lines().count(), 20);
    }

    #[test]
    fn clock_reports_monotonic_reading_and_epoch() {
        let state = test_state();
        let rec = state.recorder.clone();
        let addr = spawn_admin("127.0.0.1:0".parse().unwrap(), state).unwrap();
        let a = query(addr, "clock");
        let b = query(addr, "clock");
        assert!(a.contains("\"node_id\":2"), "{a}");
        assert!(
            a.contains(&format!("\"epoch_id\":{}", rec.epoch_id())),
            "{a}"
        );
        let now = |s: &str| -> u64 {
            let tail = s.split("\"now_us\":").nth(1).unwrap();
            tail[..tail.find(',').unwrap()].parse().unwrap()
        };
        assert!(now(&b) >= now(&a), "clock went backwards: {a} vs {b}");
    }

    #[test]
    fn rates_before_two_samples_is_an_error_line() {
        let state = test_state();
        let addr = spawn_admin("127.0.0.1:0".parse().unwrap(), state).unwrap();
        let rates = query(addr, "rates");
        assert!(rates.contains("\"error\""), "{rates}");
    }

    #[test]
    fn silent_client_times_out_without_wedging_the_port() {
        let mut state = test_state();
        state.io_timeout = Duration::from_millis(100);
        state.registry.gauge("order.round").set(7);
        let registry = state.registry.clone();
        let addr = spawn_admin("127.0.0.1:0".parse().unwrap(), state).unwrap();

        // Connect and never send a line; the server must shed us...
        let silent = TcpStream::connect(addr).unwrap();
        // ...and answer the next client promptly.
        let status = query(addr, "status");
        assert!(status.contains("\"round\":7"), "{status}");
        drop(silent);
        assert!(
            registry.counter_value("admin.errors").unwrap_or(0) >= 1,
            "timed-out connection is counted as an error"
        );
    }
}
