//! What the benchmark runs and reports: the workloads, the metric table,
//! the phase plan and the node configuration. `BENCHMARK.json` at the
//! repository root must name exactly these workloads and metrics (a unit
//! test checks it), so the two cannot drift.

use std::time::Duration;

/// One traffic mix against the 4-node PBFT kv cluster.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Nodes run a WAL with durable acks (fsync group commit, snapshots).
    pub durable: bool,
    /// Bytes per put value; the first 8 carry the put's command id.
    pub value_bytes: usize,
    /// Keyspace size; each command draws its key uniformly.
    pub keys: u64,
    /// Percentage of commands that are gets (the rest are puts).
    pub get_pct: u64,
    /// Open-loop arrival rate, commands per second: about a third of the
    /// lowest `peak_cmds_s` measured for the committed baseline (nearer
    /// the peak, a slow spell of the machine sent kv-1k-mem into a
    /// backlog that failed requests); a constant, never derived at run
    /// time.
    pub rate: f64,
    /// Replaces the steady phase with the fault phase: node 2 is killed
    /// at a third of it and restarted from its data dir at half of it.
    pub crash: bool,
    /// Listed in `BENCHMARK.json`. The fault workload is not: some of its
    /// runs wedge the cluster (see the README), and a listed workload's
    /// runs must not fail.
    pub listed: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kv-small-mem",
        why: "16 B values, memory acks: per-frame and per-round fixed costs dominate (send path, order loop, idle rounds)",
        durable: false,
        value_bytes: 16,
        keys: 1_024,
        get_pct: 25,
        rate: 1_500.0,
        crash: false,
        listed: true,
    },
    Workload {
        name: "kv-small-durable",
        why: "kv-small-mem traffic with durable acks and 65536 keys: the difference is the WAL, the ack gate and snapshot folds",
        durable: true,
        value_bytes: 16,
        keys: 65_536,
        get_pct: 25,
        rate: 1_500.0,
        crash: false,
        listed: true,
    },
    Workload {
        name: "kv-1k-mem",
        why: "1 KiB values, half gets, memory acks: bytes dominate (payloads, relays re-shipped every round, 1 KiB replies)",
        durable: false,
        value_bytes: 1_024,
        keys: 1_024,
        get_pct: 50,
        rate: 1_000.0,
        crash: false,
        listed: true,
    },
    Workload {
        name: "kv-crash",
        why: "kv-small-durable traffic while node 2 is killed and restarted: time without service and recovery",
        durable: true,
        value_bytes: 16,
        keys: 65_536,
        get_pct: 25,
        rate: 1_500.0,
        crash: true,
        listed: false,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Untraced runs; `BENCHMARK.json` `end_to_end`, with its regression
    /// bound as a share of the base median.
    EndToEnd { bound: f64 },
    /// Traced runs; `BENCHMARK.json` `per_layer`.
    Layer,
    /// Printed and recorded in result rows, but not in the final JSON
    /// line: either it exists on one workload only (`recovery_s`), or it
    /// is a time that is structurally zero on the memory workloads:
    /// `BENCHMARK.json` lists only metrics every workload reports, and no
    /// time that reads the same on every run.
    Diagnostic,
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Layer,
    }
}

const fn diag(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Diagnostic,
    }
}

use Better::{Higher, Lower};

/// Every metric the binary prints. Bounds come from the measured
/// run-to-run spread (see the README); `setup_s` has the largest.
pub const METRICS: &[Metric] = &[
    // --- end to end (untraced runs) ---
    e2e("setup_s", "s", Lower, 0.25),
    e2e("idle_cores", "cores", Lower, 0.10),
    e2e("cpu_cores", "cores", Lower, 0.10),
    diag("fail_frac", "ratio", Lower),
    diag("outage_ms", "ms", Lower),
    diag("recovery_s", "s", Lower),
    // --- per layer (traced runs) ---
    // Throughput and latency are here, not end to end: on the 2-vCPU VM
    // the baseline was measured on, their run-to-run spread was 10-35%
    // (see the README), too wide for any regression bound.
    layer("peak_cmds_s", "cmds/s", Higher),
    layer("lat_p50_us", "us", Lower),
    layer("lat_p99_us", "us", Lower),
    layer("node_rss_mb", "MiB", Lower),
    layer("net.send_us_per_cmd", "us", Lower),
    layer("net.send_us_p99", "us", Lower),
    layer("net.frames_per_cmd", "frames/cmd", Lower),
    layer("net.bytes_per_cmd", "B/cmd", Lower),
    layer("wire.bytes_per_cmd", "B/cmd", Lower),
    layer("wire.encode_ns_per_cmd", "ns", Lower),
    layer("wire.decode_ns_per_cmd", "ns", Lower),
    layer("smr.lockstep_us_per_cmd", "us", Lower),
    layer("smr.rounds_per_kcmd", "rounds/kcmd", Lower),
    layer("server.round_us_p50", "us", Lower),
    layer("server.round_us_p99", "us", Lower),
    layer("server.rounds_per_kcmd", "rounds/kcmd", Lower),
    layer("server.cmds_per_slot", "cmds/slot", Higher),
    layer("server.before_round_us_per_cmd", "us", Lower),
    layer("server.after_round_us_per_cmd", "us", Lower),
    layer("server.idle_rounds_s", "rounds/s", Lower),
    layer("server.timeouts_per_kround", "count/kround", Lower),
    layer("server.fast_forwards", "count", Lower),
    layer("store.fsyncs_per_kcmd", "fsyncs/kcmd", Lower),
    layer("store.bytes_per_cmd", "B/cmd", Lower),
    diag("store.append_us_per_cmd", "us", Lower),
    diag("store.fsync_us_p50", "us", Lower),
    diag("store.fsync_us_p99", "us", Lower),
    layer("app.apply_ns_per_cmd", "ns", Lower),
    layer("app.apply_calls_per_cmd", "calls/cmd", Lower),
    diag("app.fold_ms_p50", "ms", Lower),
    layer("app.fold_bytes", "B", Lower),
    diag("store.recover_ms", "ms", Lower),
    diag("app.restore_ms", "ms", Lower),
    layer("transfer.chunks_fetched", "count", Lower),
    layer("transfer.snapshots_installed", "count", Lower),
    layer("loadgen.lag_p99_us", "us", Lower),
    layer("loadgen.backlog_end", "count", Lower),
    layer("loadgen.bounces_per_kcmd", "count/kcmd", Lower),
    layer("loadgen.max_gap_ms", "ms", Lower),
    layer("trace.overhead", "ratio", Higher),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// Absolute regression bound of `fail_frac` (a share that is 0 in the
/// baseline, so a relative bound would be meaningless).
pub const FAIL_FRAC_BOUND: f64 = 0.001;

// --- node configuration: `gencon-server`'s defaults ---

pub const CLUSTER_N: usize = 4;
pub const BATCH_CAP: usize = 64;
pub const WINDOW: usize = 4;
pub const INITIAL_ROUND_TIMEOUT: Duration = Duration::from_millis(50);
pub const MIN_ROUND_TIMEOUT: Duration = Duration::from_millis(2);
pub const MAX_ROUND_TIMEOUT: Duration = Duration::from_millis(1_000);
pub const FSYNC_INTERVAL: Duration = Duration::from_millis(5);
pub const SEGMENT_BYTES: u64 = 4 << 20;
pub const SNAPSHOT_KEEP: usize = 2;
pub const SNAPSHOT_EVERY: u64 = 512;
pub const SNAPSHOT_TAIL: u64 = 64;
pub const DEDUP_HORIZON: u64 = 8_192;

// --- load shape ---

/// Commands kept in flight by the closed-loop phases.
pub const CLOSED_LOOP_INFLIGHT: usize = 128;
/// A request not acked this long after its due time has failed; its
/// latency counts as this value.
pub const ACK_TIMEOUT: Duration = Duration::from_secs(5);
/// kv-crash: one probe through the restarted node's own gateway this
/// often until the first is acked.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(50);
/// Cluster set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Commands the traced run replays in lock step (engine and codec only).
pub const REPLAY_CMDS: usize = 16_384;

/// The phase plan, as shares of `--seconds`. Set-up and the final stop
/// run outside it.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub idle: Duration,
    pub warmup: Duration,
    pub peak: Duration,
    /// The steady phase, or kv-crash's fault phase.
    pub open: Duration,
}

impl Plan {
    pub fn new(seconds: f64, smoke: bool) -> Plan {
        if smoke {
            let s = Duration::from_secs(1);
            return Plan {
                idle: s,
                warmup: s,
                peak: s,
                open: s * 3,
            };
        }
        let share = |f: f64| Duration::from_secs_f64(seconds * f);
        Plan {
            idle: share(0.10),
            warmup: share(0.10),
            peak: share(0.40),
            open: share(0.40),
        }
    }
}
