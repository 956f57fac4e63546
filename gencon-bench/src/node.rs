//! `gencon-bench node …`: one node of the benchmark cluster, a child
//! process of `gencon-bench run`. It is assembled from the same public
//! constructors `gencon-server` uses, with `gencon-server`'s defaults
//! (see `spec`), and each layer wrapped in its timing decorator.
//!
//! The parent talks to it over stdin, one command per line:
//! `phase off|idle|load` (tracing phase), `stop <N>` (print `reached` once
//! N commands applied) and `halt` (leave the order loop; EOF does the
//! same). On the way out the node prints one `{"report": …}` line — its
//! applied count, live state hash, peak RSS, run statistics and layer
//! tables — followed by its spans.

use std::io::{BufRead as _, Write as _};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Instant;

use gencon_app::{App as _, Applier, Folder, KvCmd};
use gencon_net::TcpTransport;
use gencon_server::{
    recover_replica, run_smr_node_observed, ClientGateway, DurableConfig, DurableNode,
    GatewayConfig, NodeHook, ServerConfig,
};
use gencon_smr::{Batch, BatchingReplica};
use gencon_store::{FileWal, WalConfig};
use gencon_types::ProcessId;

use crate::layers::{self, Hooked, Phase, Timed, TimedKv, HALT, STOP_AT};
use crate::spec;

pub struct NodeArgs {
    pub id: usize,
    pub peers: Vec<SocketAddr>,
    pub client_addr: SocketAddr,
    pub data_dir: Option<PathBuf>,
    pub phase: Phase,
}

impl NodeArgs {
    pub fn parse(args: &[String]) -> Result<NodeArgs, String> {
        let flag = |name: &str| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
                .cloned()
        };
        let need = |name: &str| flag(name).ok_or(format!("node: {name} is required"));
        let addr = |s: &str| {
            s.parse::<SocketAddr>()
                .map_err(|e| format!("node: bad address {s}: {e}"))
        };
        let peers = need("--peers")?
            .split(',')
            .map(addr)
            .collect::<Result<Vec<_>, _>>()?;
        let id: usize = need("--id")?
            .parse()
            .map_err(|e| format!("node: bad --id: {e}"))?;
        if id >= peers.len() {
            return Err(format!("node: --id {id} out of range"));
        }
        Ok(NodeArgs {
            id,
            client_addr: addr(&need("--client-addr")?)?,
            peers,
            data_dir: flag("--data-dir").map(PathBuf::from),
            phase: flag("--phase")
                .map(|p| Phase::parse(&p).ok_or(format!("node: bad --phase {p}")))
                .transpose()?
                .unwrap_or(Phase::Off),
        })
    }
}

/// Reads the parent's commands from stdin until EOF (which halts the node).
fn control_loop() {
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let mut words = line.split_whitespace();
        match (words.next(), words.next()) {
            (Some("phase"), Some(p)) => {
                if let Some(phase) = Phase::parse(p) {
                    layers::set_phase(phase);
                }
            }
            (Some("stop"), Some(n)) => {
                if let Ok(n) = n.parse() {
                    STOP_AT.store(n, SeqCst);
                }
            }
            (Some("halt"), _) => HALT.store(true, SeqCst),
            _ => eprintln!("gencon-bench node: unknown command {line:?}"),
        }
    }
    HALT.store(true, SeqCst);
}

/// Peak resident set (`VmHWM`) of this process, in KiB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs the node until the parent halts it; returns an error message on
/// a set-up failure.
pub fn run(args: &NodeArgs) -> Result<(), String> {
    layers::init(args.id, args.phase);
    let control = std::thread::spawn(control_loop);

    let n = args.peers.len();
    let params = gencon_algos::pbft::<Batch<KvCmd>>(n, (n - 1) / 3)
        .map_err(|e| format!("pbft params: {e}"))?
        .params;
    let gateway = ClientGateway::<TimedKv>::listen(args.client_addr, GatewayConfig::default())
        .map_err(|e| format!("cannot bind client address {}: {e}", args.client_addr))?;
    let mut replica =
        BatchingReplica::new(ProcessId::new(args.id), params, spec::BATCH_CAP, usize::MAX)
            .map_err(|e| format!("replica: {e}"))?
            .with_window(spec::WINDOW)
            .with_dedup_horizon(spec::DEDUP_HORIZON);
    let cfg = ServerConfig {
        initial_round_timeout: spec::INITIAL_ROUND_TIMEOUT,
        min_round_timeout: spec::MIN_ROUND_TIMEOUT,
        max_round_timeout: spec::MAX_ROUND_TIMEOUT,
        max_rounds: u64::MAX,
        stop_after_commands: None,
    };

    let mut folder: Folder<TimedKv> = Folder::default();
    let mut recover_ms = 0.0;
    let wal = match &args.data_dir {
        Some(dir) => {
            let started = Instant::now();
            let wal_cfg = WalConfig {
                fsync_interval: spec::FSYNC_INTERVAL,
                segment_bytes: spec::SEGMENT_BYTES,
                snapshot_keep: spec::SNAPSHOT_KEEP,
            };
            let (wal, recovery) = FileWal::open(dir, wal_cfg)
                .map_err(|e| format!("cannot open data dir {}: {e}", dir.display()))?;
            recover_replica(&mut replica, &mut folder, &recovery);
            recover_ms = started.elapsed().as_secs_f64() * 1e3;
            Some(wal)
        }
        None => None,
    };
    let gateway = gateway.with_applier(Applier::resume(folder.app().clone(), folder.applied_len()));
    let transport = TcpTransport::connect_mesh(ProcessId::new(args.id), &args.peers)
        .map_err(|e| format!("mesh connection failed: {e}"))?;

    let report = match wal {
        Some(wal) => {
            let gate = Arc::new(AtomicU64::new(0));
            let durable_cfg = DurableConfig {
                snapshot_every: spec::SNAPSHOT_EVERY,
                snapshot_tail: spec::SNAPSHOT_TAIL,
                durable_ack: true,
            };
            let node = DurableNode::new(
                Timed(wal),
                durable_cfg,
                folder,
                gateway.with_ack_gate(Arc::clone(&gate)),
            )
            .with_gate(gate);
            drive(args.id, recover_ms, replica, transport, cfg, node, |h| {
                let applier = h.inner().applier();
                (applier.cursor(), applier.app().state_hash())
            })
        }
        None => drive(args.id, recover_ms, replica, transport, cfg, gateway, |h| {
            let applier = h.applier();
            (applier.cursor(), applier.app().state_hash())
        }),
    };
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{report}");
    let _ = out.write_all(layers::spans_jsonl().as_bytes());
    let _ = out.flush();
    drop(out);
    let _ = control.join();
    Ok(())
}

/// Runs the order loop with `hook` and renders the report line; `live`
/// reads the live applier's `(cursor, state hash)` after the drain.
fn drive<H: NodeHook<KvCmd>>(
    id: usize,
    recover_ms: f64,
    replica: BatchingReplica<KvCmd>,
    transport: TcpTransport,
    cfg: ServerConfig,
    hook: H,
    live: impl Fn(&H) -> (u64, [u8; 32]),
) -> String {
    let (replica, _transport, stats, hooked) = run_smr_node_observed(
        replica,
        Timed(transport),
        cfg,
        Hooked::new(hook),
        None,
        None,
        None,
    );
    let (cursor, hash) = live(&hooked.inner);
    format!(
        "{{\"report\":{{\"node\":{id},\"applied\":{},\"cursor\":{cursor},\"hash\":\"{}\",\
         \"hwm_kb\":{},\"recover_ms\":{recover_ms},\"rounds\":{},\"timeouts\":{},\
         \"fast_forwards\":{},\"chunks_fetched\":{},\"snapshots_installed\":{},\"layers\":{}}}}}",
        replica.applied_len(),
        hex(&hash),
        peak_rss_kb(),
        stats.rounds,
        stats.timeouts,
        stats.fast_forwards,
        stats.chunks_fetched,
        stats.snapshots_installed,
        layers::tables_json()
    )
}
