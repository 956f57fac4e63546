//! `gencon-mon` — the cluster-wide monitor and watchdog.
//!
//! ```bash
//! gencon-mon --nodes 127.0.0.1:7900,127.0.0.1:7901,127.0.0.1:7902,127.0.0.1:7903 \
//!   [--interval-ms 500] [--once | --polls N] [--out report.json] \
//!   [--connect-timeout-ms 500] [--io-timeout-ms 1000] \
//!   [--stall-polls 3] [--straggler-slots 2048] [--straggler-rounds 64]
//! ```
//!
//! Given every node's **admin** address (`gencon-server --admin-addr`),
//! the monitor polls `status`/`rates`/`hash` each interval, assembles
//! one JSON cluster report per poll — round skew, per-node watermark
//! waterfall (committed / applied / durable gate), derived rates, the
//! peer-lag matrix, and state-hash agreement at the max applied count
//! common to all reachable nodes — and runs the watchdog described in
//! [`gencon_server::mon`]. Reports go to stdout (and `--out`, rewritten
//! each poll so the file always holds the latest view); watchdog alerts
//! go to stderr as structured JSON lines the moment they fire.
//!
//! `--once` renders a single report and exits with status 1 if any
//! alert fired (the CI assertion mode); `--polls N` stops after N
//! polls; the default runs until killed.
//!
//! ## `trace-pull` — the cross-node slot autopsy
//!
//! ```bash
//! gencon-mon trace-pull --nodes admin:port,... \
//!   [--spans-window 65536] [--clock-samples 8] [--out CLUSTER_SPANS.jsonl]
//! ```
//!
//! Estimates each node's recorder-clock offset from `--clock-samples`
//! round-trips of the admin `clock` command (minimum-RTT sample wins;
//! the ± uncertainty rides along in the output), pulls each node's
//! `spans`, and stitches them by slot into cluster autopsies: one JSON
//! line per [`ClusterSlotSpan`](gencon_trace::ClusterSlotSpan) — decide
//! skew, quorum wait, propose fan-out, slowest-voucher attribution and
//! the per-slot critical path — followed by one `{"summary":…}` line
//! with percentiles and every node's clock offset. Exits 1 when no
//! span could be stitched (the CI assertion mode).

use std::net::SocketAddr;
use std::process::exit;
use std::time::Duration;

use gencon_server::cli::{flag_value, parse_flag, required_flag};
use gencon_server::mon::{
    trace_pull, MonConfig, Monitor, CLOCK_SAMPLES_DEFAULT, TRACE_PULL_WINDOW_DEFAULT,
};

const BIN: &str = "gencon-mon";
const USAGE: &str = "gencon-mon [trace-pull] --nodes admin:port,admin:port,... \
     [--interval-ms 500] [--once | --polls N] [--out FILE] \
     [--spans-window N] [--clock-samples K]";

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    parse_flag(BIN, args, flag, default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes: Vec<SocketAddr> = required_flag(BIN, &args, "--nodes", USAGE)
        .split(',')
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("gencon-mon: bad admin address {s}");
                exit(2);
            })
        })
        .collect();
    if nodes.is_empty() {
        eprintln!("gencon-mon: --nodes needs at least one admin address");
        exit(2);
    }
    let cfg = MonConfig {
        interval: Duration::from_millis(parse(&args, "--interval-ms", 500)),
        connect_timeout: Duration::from_millis(parse(&args, "--connect-timeout-ms", 500)),
        io_timeout: Duration::from_millis(parse(&args, "--io-timeout-ms", 1_000)),
        stall_polls: parse(&args, "--stall-polls", 3),
        straggler_slots: parse(&args, "--straggler-slots", 2_048),
        straggler_rounds: parse(&args, "--straggler-rounds", 64),
    };
    let once = args.iter().any(|a| a == "--once");
    let polls: u64 = parse(&args, "--polls", if once { 1 } else { u64::MAX });
    let out = flag_value(&args, "--out");

    if args.iter().any(|a| a == "trace-pull") {
        let window: usize = parse(&args, "--spans-window", TRACE_PULL_WINDOW_DEFAULT);
        let samples: u32 = parse(&args, "--clock-samples", CLOCK_SAMPLES_DEFAULT);
        let pull = trace_pull(&nodes, window, samples, &cfg);
        let mut body = String::new();
        for span in &pull.spans {
            body.push_str(&span.to_json());
            body.push('\n');
        }
        body.push_str(&format!("{{\"summary\":{}}}\n", pull.summary_json()));
        print!("{body}");
        if let Some(path) = &out {
            if let Err(e) = std::fs::write(path, &body) {
                eprintln!("gencon-mon: cannot write autopsy to {path}: {e}");
            }
        }
        if pull.spans.is_empty() {
            eprintln!("gencon-mon: trace-pull stitched no spans");
            exit(1);
        }
        return;
    }

    let mut mon = Monitor::new(nodes, cfg);
    let mut alerts_total: u64 = 0;
    for i in 0..polls {
        let report = mon.poll_once();
        for alert in &report.alerts {
            eprintln!("{}", alert.to_json());
        }
        alerts_total += report.alerts.len() as u64;
        let json = report.to_json();
        println!("{json}");
        if let Some(path) = &out {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("gencon-mon: cannot write report to {path}: {e}");
            }
        }
        if i + 1 < polls {
            std::thread::sleep(mon.interval());
        }
    }
    if once && alerts_total > 0 {
        exit(1);
    }
}
