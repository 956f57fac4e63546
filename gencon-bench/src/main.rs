//! `gencon-bench` — the end-to-end benchmark of the replicated kv
//! service: an n = 4 PBFT (b = 1) cluster of `gencon-bench node` child
//! processes over localhost TCP, driven by one load process.
//!
//! ```text
//! gencon-bench run --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out ROWS.jsonl]
//! gencon-bench diff BASE NEW
//! gencon-bench baseline ROWS.jsonl... > baseline.json
//! ```
//!
//! `run` prints every metric by name and unit, then, as its last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//! traced run (`--trace 1`). It exits non-zero when a correctness gate
//! fails. See `README.md` beside this package for the phases, the
//! workloads and what each metric means.

mod cluster;
mod diff;
mod json;
mod layers;
mod load;
mod node;
mod replay;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cluster::Cluster;
use json::Json;
use layers::Phase;
use load::{Arrivals, Fault, Load};
use spec::{Kind, Plan, Workload};
use stats::{highest_supported, hist_quantile, median, quantile};

const USAGE: &str = "usage: gencon-bench run --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out ROWS]\n\
                     \x20      gencon-bench diff BASE NEW\n\
                     \x20      gencon-bench baseline ROWS...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(rest),
        Some("node") => node::NodeArgs::parse(rest)
            .and_then(|a| node::run(&a))
            .map(|()| ExitCode::SUCCESS),
        Some("diff") => diff::diff_cmd(rest),
        Some("baseline") => diff::baseline_cmd(rest),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("gencon-bench: {e}");
        ExitCode::from(2)
    })
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| flag(name).ok_or(format!("{name} is required\n{USAGE}"));
    let name = need("--workload")?;
    let workload = spec::workload(name).ok_or(format!(
        "unknown workload {name}; one of {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    Ok(RunArgs {
        workload,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds,
        traced: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        smoke: args.iter().any(|a| a == "--smoke"),
        out: flag("--out").map(PathBuf::from),
    })
}

/// Where runs keep their data dirs and span files, relative to the
/// directory the benchmark runs in.
fn work_dir() -> PathBuf {
    PathBuf::from("target").join("gencon-bench")
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let out = run(&a)?;
    for line in &out.lines {
        println!("{line}");
    }
    for v in &out.violations {
        println!("GATE FAILED: {v}");
    }
    let correct = out.violations.is_empty();
    let want = |m: &spec::Metric| match m.kind {
        Kind::EndToEnd { .. } => !a.traced,
        Kind::Layer => a.traced,
        Kind::Diagnostic => false,
    };
    let mut fields = Vec::new();
    for m in spec::METRICS.iter().filter(|m| want(m)) {
        let v = out
            .metrics
            .get(m.name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or(format!("metric {} was not measured", m.name))?;
        fields.push(metric_json(m.name, v));
    }
    if let Some(path) = &a.out {
        append_row(path, &a, &out, correct)?;
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(",")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `"name":{"value":v,"unit":u}`, with `null` for a value that is not
/// finite (JSON has no infinities).
fn metric_json(name: &str, value: f64) -> String {
    let unit = spec::metric(name).map_or("", |m| m.unit);
    let value = if value.is_finite() {
        value.to_string()
    } else {
        "null".into()
    };
    format!(
        "{}:{{\"value\":{value},\"unit\":{}}}",
        json::quote(name),
        json::quote(unit)
    )
}

/// Appends the run as one JSON row (every metric measured, diagnostics
/// included) for `diff` and `baseline`.
fn append_row(path: &Path, a: &RunArgs, out: &RunOut, correct: bool) -> Result<(), String> {
    use std::io::Write as _;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, &v)| metric_json(name, v))
        .collect();
    let row = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"correct\":{correct},\
         \"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}\n",
        json::quote(a.workload.name),
        a.seed,
        a.seconds,
        u8::from(a.traced),
        a.smoke,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(row.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What one run measured.
struct RunOut {
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl RunOut {
    fn put(&mut self, name: &'static str, value: f64) {
        let m = spec::metric(name).expect("metric in the table");
        let kind = match m.kind {
            Kind::EndToEnd { .. } => "end-to-end",
            Kind::Layer => "per-layer",
            Kind::Diagnostic => "diagnostic",
        };
        self.lines.push(format!(
            "{name} = {value} {} ({} is better; {kind})",
            m.unit,
            m.better.as_str()
        ));
        self.metrics.insert(name, value);
    }
}

/// A window of the run, in ns since the run's epoch.
#[derive(Clone, Copy)]
struct Window {
    start: u64,
    end: u64,
}

impl Window {
    fn contains(self, t: u64) -> bool {
        (self.start..self.end).contains(&t)
    }

    fn secs(self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }

    /// The window cut into about one-second slices of equal length.
    fn seconds(self) -> Vec<Window> {
        let n = (self.secs().round() as u64).max(1);
        let len = (self.end - self.start) / n;
        (0..n)
            .map(|i| Window {
                start: self.start + i * len,
                end: self.start + (i + 1) * len,
            })
            .collect()
    }
}

fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

#[allow(clippy::too_many_lines)]
fn run(a: &RunArgs) -> Result<RunOut, String> {
    let w = a.workload;
    let plan = Plan::new(a.seconds, a.smoke);
    let data_root = w.durable.then(|| {
        work_dir()
            .join("data")
            .join(format!("{}-{}-{}", w.name, a.seed, std::process::id()))
    });
    let mut out = RunOut {
        metrics: BTreeMap::new(),
        lines: vec![
            format!(
                "gencon-bench {} seed {} ({}; {} s of phases; localhost TCP, no injected delay)",
                w.name,
                a.seed,
                if a.traced { "traced" } else { "untraced" },
                a.seconds
            ),
            format!("  why this workload: {}", w.why),
        ],
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
    };
    if !w.listed {
        out.lines
            .push("  not listed in BENCHMARK.json (see the README)".into());
    }
    let epoch = Instant::now();

    // --- set-up: spawn → first acked probe; repeated, median reported ---
    let setups = if a.traced || a.smoke { 1 } else { spec::SETUPS };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..setups {
        let t0 = since(epoch);
        let cluster = Cluster::spawn(data_root.as_deref())?;
        let mut load = Load::connect(cluster.gateways[0], &w, a.seed, epoch)?;
        let acked = load.probe_and_wait(Duration::from_secs(30))?;
        setup_s.push((acked - t0) as f64 / 1e9);
        if k + 1 == setups {
            kept = Some((cluster, load));
        } else {
            out.attempted += 1;
            drop(load);
            drop(cluster);
        }
    }
    let (mut cluster, mut load) = kept.expect("at least one set-up");

    // Nodes trace only in the traced run.
    let traced = |p: Phase| if a.traced { p } else { Phase::Off };

    // --- idle ---
    cluster.set_phase(traced(Phase::Idle));
    let idle_end = Instant::now() + plan.idle;
    let mut idle_cpu = vec![(since(epoch), cluster.cpu_ticks())];
    while Instant::now() < idle_end {
        std::thread::sleep(
            idle_end
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(500)),
        );
        idle_cpu.push((since(epoch), cluster.cpu_ticks()));
    }
    let idle = Window {
        start: idle_cpu[0].0,
        end: idle_cpu[idle_cpu.len() - 1].0,
    };
    cluster.set_phase(Phase::Off);

    // --- warm-up (discarded) and peak: closed loop ---
    load.closed_loop(Instant::now() + plan.warmup)?;
    // The traced run alternates untraced and traced quarters so their
    // rate ratio is the tracing overhead.
    let phases: &[Phase] = if a.traced {
        &[Phase::Off, Phase::Load, Phase::Off, Phase::Load]
    } else {
        &[Phase::Off]
    };
    let mut quarters: Vec<(Phase, Window)> = Vec::new();
    for &p in phases {
        cluster.set_phase(p);
        let start = since(epoch);
        load.closed_loop(Instant::now() + plan.peak / phases.len() as u32)?;
        quarters.push((
            p,
            Window {
                start,
                end: since(epoch),
            },
        ));
    }

    // --- steady (open loop), or kv-crash's fault phase ---
    cluster.set_phase(traced(Phase::Load));
    let mut arrivals = Arrivals::new(w.rate, a.seed);
    let open_start = Instant::now();
    let fault = w.crash.then_some(Fault {
        node: 2,
        kill_at: plan.open / 3,
        restart_at: plan.open / 2,
        phase: traced(Phase::Load),
    });
    let open_stats = load.open_loop(
        open_start,
        plan.open,
        &mut arrivals,
        Some(&mut cluster),
        fault.as_ref(),
    )?;
    let open = Window {
        start: open_start.duration_since(epoch).as_nanos() as u64,
        end: since(epoch),
    };
    cluster.set_phase(Phase::Off);

    // --- stop: every command resolved, every node halted at N ---
    load.drain();
    let ledger = load.ledger();
    let target = ledger.entries.iter().filter(|e| !e.bounced).count() as u64;
    let mut spans = String::new();
    let reports = cluster.stop(target, &mut spans);
    out.violations.extend(ledger.violations.iter().cloned());
    let reports = match reports {
        Ok(r) => r,
        Err(e) => {
            out.violations.push(e);
            Vec::new()
        }
    };
    check_nodes(&reports, target, &mut out.violations);
    if a.traced && !spans.is_empty() {
        let path = work_dir().join(format!("{}-{}.spans.jsonl", w.name, a.seed));
        let _ = std::fs::create_dir_all(work_dir());
        std::fs::write(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        out.lines
            .push(format!("spans written to {}", path.display()));
    }

    // --- the load's own accounting ---
    let entries = &ledger.entries;
    let issued = entries.len() as u64;
    let acked_ok = entries.iter().filter(|e| e.ok()).count() as u64;
    let failed = issued - acked_ok;
    let bounced = entries.iter().filter(|e| e.bounced).count() as u64;
    out.attempted += issued;
    out.failed = failed;
    let gets_acked = entries
        .iter()
        .filter(|e| e.get && e.ack_ns.is_some())
        .count();
    if gets_acked > 0 && ledger.get_hits == 0 {
        out.violations
            .push(format!("none of {gets_acked} acked gets hit a written key"));
    }
    out.lines.push(format!(
        "commands: {issued} issued to the measured cluster, {acked_ok} acked within {:?}, {failed} failed \
         ({bounced} refused); {} gets hit; {} re-acks of retried probes",
        spec::ACK_TIMEOUT,
        ledger.get_hits,
        ledger.reacks
    ));
    let acks_in = |win: Window| {
        entries
            .iter()
            .filter(|e| e.ack_ns.is_some_and(|t| win.contains(t)))
            .count() as f64
    };
    // Acks of workload commands in the open phase, in time order.
    let mut open_acks: Vec<u64> = entries
        .iter()
        .filter(|e| !e.probe && open.contains(e.due_ns))
        .filter_map(|e| e.ack_ns)
        .collect();
    open_acks.sort_unstable();
    let max_gap_ms = open_acks.windows(2).map(|p| p[1] - p[0]).max().unwrap_or(0) as f64 / 1e6;

    // --- measured by every run; the JSON line keeps its kind's ---
    let windows = |phase: Phase| -> Vec<Window> {
        quarters
            .iter()
            .filter(|q| q.0 == phase)
            .map(|q| q.1)
            .collect()
    };
    // Rates and the median latency are medians over one-second slices,
    // so a spell in which the machine itself stalls does not set them.
    let rate = |ws: &[Window]| {
        let per_second: Vec<f64> = ws
            .iter()
            .flat_map(|w| w.seconds())
            .map(|s| acks_in(s) / s.secs())
            .collect();
        median(&per_second)
    };
    out.put("setup_s", median(&setup_s));
    out.lines.push(format!("  set-up samples (s): {setup_s:?}"));
    out.put("idle_cores", Cluster::cores(&idle_cpu));
    out.put("peak_cmds_s", rate(&windows(Phase::Off)));
    // Due time → ack of the open phase's workload commands, µs; a failed
    // request counts as the ack timeout.
    let timeout_us = spec::ACK_TIMEOUT.as_secs_f64() * 1e6;
    let latencies = |win: Window| {
        let mut lat: Vec<f64> = entries
            .iter()
            .filter(|e| !e.probe && win.contains(e.due_ns))
            .map(|e| match (e.ok(), e.ack_ns) {
                (true, Some(ack)) => (ack - e.due_ns) as f64 / 1e3,
                _ => timeout_us,
            })
            .collect();
        lat.sort_by(f64::total_cmp);
        lat
    };
    let per_second_p50: Vec<f64> = open
        .seconds()
        .into_iter()
        .map(|s| quantile(&latencies(s), 0.50))
        .collect();
    out.put("lat_p50_us", median(&per_second_p50));
    let lat = latencies(open);
    out.put("lat_p99_us", quantile(&lat, 0.99));
    if let Some((label, v)) = highest_supported(&lat) {
        out.lines.push(format!(
            "  latency: {} samples; {label} = {v} us is the highest percentile with >= 10 samples beyond it",
            lat.len()
        ));
    }
    out.put("cpu_cores", Cluster::cores(&open_stats.cpu));
    let hwm_kb: f64 = reports.iter().map(|r| r.num("hwm_kb")).sum();
    out.put("node_rss_mb", hwm_kb / 1024.0);
    out.put("fail_frac", failed as f64 / issued.max(1) as f64);
    if w.crash {
        out.put("outage_ms", max_gap_ms);
        let first_probe_ack = load
            .fault_probes
            .iter()
            .filter_map(|&id| entries[id as usize - 1].ack_ns)
            .min();
        match (open_stats.restarted_ns, first_probe_ack) {
            (Some(r), Some(ack)) => out.put("recovery_s", (ack - r) as f64 / 1e9),
            _ => out
                .violations
                .push("the restarted node never acked a probe through its own gateway".into()),
        }
    }

    // --- the load generator and the order loop's own statistics ---
    let mut lag: Vec<f64> = open_stats.lag_ns.iter().map(|&ns| ns as f64).collect();
    lag.sort_by(f64::total_cmp);
    out.put("loadgen.lag_p99_us", quantile(&lag, 0.99) / 1e3);
    out.put("loadgen.backlog_end", open_stats.backlog_end as f64);
    out.put(
        "loadgen.bounces_per_kcmd",
        bounced as f64 * 1e3 / issued.max(1) as f64,
    );
    out.put("loadgen.max_gap_ms", max_gap_ms);
    stats_metrics(&mut out, &reports);

    // --- per layer, traced run only: the decorators and the replay ---
    if a.traced {
        let replay = replay::run(&w, a.seed, spec::REPLAY_CMDS)?;
        layer_metrics(&mut out, &reports, idle.secs(), &replay);
        out.put(
            "trace.overhead",
            rate(&windows(Phase::Load)) / rate(&windows(Phase::Off)),
        );
    }
    Ok(out)
}

/// Gate: every node stopped at exactly `target` applied commands, its live
/// applier at the same count, and all with the same state hash.
fn check_nodes(reports: &[Json], target: u64, violations: &mut Vec<String>) {
    if reports.len() != spec::CLUSTER_N {
        violations.push(format!(
            "{} of {} nodes reported",
            reports.len(),
            spec::CLUSTER_N
        ));
    }
    let hash0 = reports
        .first()
        .and_then(|r| r.get("hash"))
        .and_then(Json::str);
    for r in reports {
        let node = r.num("node");
        let (applied, cursor) = (r.num("applied") as u64, r.num("cursor") as u64);
        if applied != target || cursor != target {
            violations.push(format!(
                "node {node} stopped at {applied} applied (live app at {cursor}), not {target}"
            ));
        }
        if r.get("hash").and_then(Json::str) != hash0 {
            violations.push(format!("node {node}'s state hash differs from node 0's"));
        }
    }
}

/// A layer op's totals summed over the reporting nodes.
struct OpTotal {
    calls: f64,
    nanos: f64,
    units: f64,
    hist: Vec<(usize, u64)>,
}

fn op_total(reports: &[Json], phase: &str, op: &str) -> OpTotal {
    let mut t = OpTotal {
        calls: 0.0,
        nanos: 0.0,
        units: 0.0,
        hist: Vec::new(),
    };
    for r in reports {
        let Some(o) = r
            .get("layers")
            .and_then(|l| l.get(phase))
            .and_then(|p| p.get(op))
        else {
            continue;
        };
        t.calls += o.num("calls");
        t.nanos += o.num("nanos");
        t.units += o.num("units");
        for pair in o.get("hist").map_or(&[][..], Json::arr) {
            let p = pair.arr();
            if let (Some(b), Some(c)) =
                (p.first().and_then(Json::f64), p.get(1).and_then(Json::f64))
            {
                t.hist.push((b as usize, c as u64));
            }
        }
    }
    t
}

fn sum(reports: &[Json], key: &str) -> f64 {
    reports.iter().map(|r| r.num(key)).sum()
}

/// The `NodeStats` the order loop returns (collected in every run).
fn stats_metrics(out: &mut RunOut, reports: &[Json]) {
    out.put(
        "server.timeouts_per_kround",
        sum(reports, "timeouts") * 1e3 / sum(reports, "rounds").max(1.0),
    );
    out.put("server.fast_forwards", sum(reports, "fast_forwards"));
    out.put("transfer.chunks_fetched", sum(reports, "chunks_fetched"));
    out.put(
        "transfer.snapshots_installed",
        sum(reports, "snapshots_installed"),
    );
    out.put(
        "store.recover_ms",
        reports
            .iter()
            .map(|r| r.num("recover_ms"))
            .fold(0.0, f64::max),
    );
}

/// The traced run's per-layer metrics. Per-command figures are
/// cluster-wide: a layer's total over the four nodes, divided by the
/// commands the cluster committed while traced.
fn layer_metrics(out: &mut RunOut, reports: &[Json], idle_secs: f64, replay: &replay::Replay) {
    let load = |op| op_total(reports, "load", op);
    let nodes = reports.len().max(1) as f64;
    let cmds = reports
        .iter()
        .map(|r| op_total(std::slice::from_ref(r), "load", "server.commit").units)
        .fold(0.0, f64::max)
        .max(1.0);
    let per_cmd = |t: f64| t / cmds;

    let send = load("net.send");
    out.put("net.send_us_per_cmd", per_cmd(send.nanos) / 1e3);
    out.put("net.send_us_p99", hist_quantile(&send.hist, 0.99) / 1e3);
    out.put("net.frames_per_cmd", per_cmd(send.calls));
    out.put("net.bytes_per_cmd", per_cmd(send.units));

    let rc = replay.cmds as f64;
    out.put("wire.bytes_per_cmd", replay.bytes as f64 / rc);
    out.put("wire.encode_ns_per_cmd", replay.encode_ns as f64 / rc);
    out.put("wire.decode_ns_per_cmd", replay.decode_ns as f64 / rc);
    let engine_ns = replay
        .total_ns
        .saturating_sub(replay.encode_ns + replay.decode_ns);
    out.put("smr.lockstep_us_per_cmd", engine_ns as f64 / rc / 1e3);
    out.put("smr.rounds_per_kcmd", replay.rounds as f64 * 1e3 / rc);
    out.lines.push(format!(
        "  lock-step replay: {} commands, {} rounds, {} bundles through the codec",
        replay.cmds, replay.rounds, replay.frames
    ));

    let round = load("server.round");
    let before = load("server.before_round");
    let commit = load("server.commit");
    out.put(
        "server.round_us_p50",
        hist_quantile(&round.hist, 0.50) / 1e3,
    );
    out.put(
        "server.round_us_p99",
        hist_quantile(&round.hist, 0.99) / 1e3,
    );
    out.put("server.rounds_per_kcmd", before.calls / nodes * 1e3 / cmds);
    out.put("server.cmds_per_slot", commit.units / commit.calls.max(1.0));
    out.put(
        "server.before_round_us_per_cmd",
        per_cmd(before.nanos) / 1e3,
    );
    out.put(
        "server.after_round_us_per_cmd",
        per_cmd(load("server.after_round").nanos) / 1e3,
    );
    let idle_rounds = op_total(reports, "idle", "server.before_round").calls;
    out.put("server.idle_rounds_s", idle_rounds / nodes / idle_secs);

    let append = load("store.append");
    let fsync = load("store.fsync");
    out.put("store.fsyncs_per_kcmd", per_cmd(fsync.calls) * 1e3);
    out.put("store.bytes_per_cmd", per_cmd(append.units));
    out.put("store.append_us_per_cmd", per_cmd(append.nanos) / 1e3);
    out.put("store.fsync_us_p50", hist_quantile(&fsync.hist, 0.50) / 1e3);
    out.put("store.fsync_us_p99", hist_quantile(&fsync.hist, 0.99) / 1e3);

    let apply = load("app.apply");
    let fold = load("app.fold");
    out.put("app.apply_ns_per_cmd", per_cmd(apply.nanos));
    out.put("app.apply_calls_per_cmd", per_cmd(apply.calls));
    out.put("app.fold_ms_p50", hist_quantile(&fold.hist, 0.50) / 1e6);
    out.put("app.fold_bytes", fold.units / fold.calls.max(1.0));
    let restore_ns = load("app.restore").nanos + op_total(reports, "idle", "app.restore").nanos;
    out.put("app.restore_ms", restore_ns / 1e6);
}
