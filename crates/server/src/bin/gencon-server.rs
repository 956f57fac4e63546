//! `gencon-server` — one node of a networked SMR cluster.
//!
//! ```bash
//! gencon-server --id 0 --algo pbft \
//!   --peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 \
//!   --client-addr 127.0.0.1:7000 \
//!   [--app log|kv|bank] \
//!   [--batch-cap 64] [--window 4] [--min-timeout-ms 2] [--max-timeout-ms 1000]
//!   [--backpressure 65536] [--redirect-to ID] [--stop-after N] [--max-rounds R]
//!   [--durable --data-dir DIR] [--fsync-interval-ms 5] [--snapshot-every 512]
//!   [--snapshot-keep 2] [--ack-mode durable|fast] [--hash-at N]
//!   [--metrics-file PATH]
//! ```
//!
//! The node connects the TCP mesh (peers may start late: dialing retries
//! with bounded backoff), serves clients at `--client-addr`, and runs the
//! replicated log until killed (or `--stop-after` commands applied).
//!
//! `--app` selects the replicated state machine: `log` (append-only,
//! `u64` commands — the pre-application-layer behavior), `kv` (ordered
//! key-value store with put/get/del/cas; acks carry the app reply) or
//! `bank` (mint/transfer with a conservation invariant).
//!
//! With `--durable`, committed batches are written to a CRC-framed WAL
//! under `--data-dir` (fsync group-committed every
//! `--fsync-interval-ms`), snapshots store the **folded application
//! state** every `--snapshot-every` slots — O(live state), not
//! O(history) — and a restart **recovers from disk first**: fold restore
//! and WAL replay rebuild the state before the node rejoins the mesh, so
//! recovery works even when the survivors have long compacted the slots
//! this node missed (the remaining gap closes via `b + 1`-vouched
//! chunked state transfer). `--ack-mode durable` (the default with
//! `--durable`) acks clients only after their command's slot is on disk;
//! `--ack-mode fast` acks at apply time and lets persistence trail
//! behind.
//!
//! `--hash-at N` prints `app-hash@N` — the application's state hash once
//! exactly N commands have applied — on exit; agreeing nodes print
//! identical hashes (the CI jobs compare them across a kill −9 +
//! restart).
//!
//! `--metrics-file PATH` dumps the per-stage metrics registry (ingest /
//! order / apply / persist / ack counters, gauges and latency
//! histograms) as flat JSON to PATH on exit, and also on `SIGUSR1` for a
//! live snapshot of a running node (with the admin port enabled, the
//! flight-recorder tail and assembled spans also land in
//! `PATH.spans.jsonl`, so a wedged node can be post-mortemed without the
//! port). `--snapshot-keep K` retains the last K snapshot cuts on disk
//! (default 2) so chunked state transfer can still serve a cut that a
//! concurrent snapshot just superseded.
//!
//! `--admin-addr ADDR` turns on the flight recorder (`--trace-events N`
//! sizes its ring, default 65536) and serves the line-oriented admin
//! port there: one command per connection — `metrics`, `status`,
//! `trace [n]`, `spans [n]`, `spans <from>..<to>`, `clock`,
//! `history [n]`, `rates`, `hash` — see
//! [`gencon_server::admin`]. A sampler thread snapshots the registry
//! every `--history-interval-ms` (default 500) into a ring of
//! `--history-len` entries (default 128) backing `history`/`rates`, and
//! the node publishes `(applied count, state hash)` pairs at
//! snapshot-boundary folds backing `hash` — the feed `gencon-mon`
//! aggregates cluster-wide.

use std::net::SocketAddr;
use std::process::exit;
use std::time::Duration;

use gencon_app::{App, Applier, BankApp, Folder, KvApp, LogApp};
use gencon_metrics::Registry;
use gencon_server::cli::{flag_value, parse_flag, required_flag};
use gencon_server::{
    recover_replica, run_smr_node_observed, spawn_admin, AdminState, ClientGateway, DurableConfig,
    DurableNode, GatewayConfig, ServerConfig,
};
use gencon_smr::{Batch, BatchingReplica};
use gencon_store::{FileWal, Log, WalConfig};
use gencon_types::ProcessId;

const BIN: &str = "gencon-server";
const USAGE: &str =
    "gencon-server --id N --algo paxos|pbft|mqb --peers a:p,b:p,... --client-addr a:p \
     [--app log|kv|bank] [--durable --data-dir DIR] [--metrics-file PATH]";

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    parse_flag(BIN, args, flag, default)
}

fn required(args: &[String], flag: &str) -> String {
    required_flag(BIN, args, flag, USAGE)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match flag_value(&args, "--app").as_deref().unwrap_or("log") {
        "log" => serve::<LogApp<u64>>(&args),
        "kv" => serve::<KvApp>(&args),
        "bank" => serve::<BankApp>(&args),
        other => {
            eprintln!("gencon-server: unknown --app {other} (log|kv|bank)");
            exit(2);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn serve<A: App>(args: &[String]) {
    let id: usize = required(args, "--id").parse().unwrap_or_else(|_| {
        eprintln!("gencon-server: --id must be an index into --peers");
        exit(2);
    });
    let algo = required(args, "--algo");
    let peers: Vec<SocketAddr> = required(args, "--peers")
        .split(',')
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("gencon-server: bad peer address {s}");
                exit(2);
            })
        })
        .collect();
    let client_addr: SocketAddr = required(args, "--client-addr").parse().unwrap_or_else(|_| {
        eprintln!("gencon-server: bad --client-addr");
        exit(2);
    });
    let n = peers.len();
    if id >= n {
        eprintln!("gencon-server: --id {id} out of range for {n} peers");
        exit(2);
    }

    let batch_cap: usize = parse(args, "--batch-cap", 64);
    let window: usize = parse(args, "--window", 4);
    let cfg = ServerConfig {
        initial_round_timeout: Duration::from_millis(parse(args, "--initial-timeout-ms", 50)),
        min_round_timeout: Duration::from_millis(parse(args, "--min-timeout-ms", 2)),
        max_round_timeout: Duration::from_millis(parse(args, "--max-timeout-ms", 1_000)),
        max_rounds: parse(args, "--max-rounds", u64::MAX),
        stop_after_commands: flag_value(args, "--stop-after").map(|raw| {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("gencon-server: bad --stop-after");
                exit(2);
            })
        }),
    };
    let gateway_cfg = GatewayConfig {
        backpressure_limit: parse(args, "--backpressure", 65_536),
        redirect_to: flag_value(args, "--redirect-to").map(|raw| {
            ProcessId::new(raw.parse().unwrap_or_else(|_| {
                eprintln!("gencon-server: bad --redirect-to");
                exit(2);
            }))
        }),
        write_timeout: Duration::from_millis(parse(args, "--write-timeout-ms", 500)),
        reack_index_cap: parse(args, "--reack-index-cap", 1 << 20),
    };

    // --- durability flags ---
    let durable = args.iter().any(|a| a == "--durable");
    let ack_mode = flag_value(args, "--ack-mode").unwrap_or_else(|| "durable".to_string());
    if ack_mode != "durable" && ack_mode != "fast" {
        eprintln!("gencon-server: --ack-mode must be durable or fast");
        exit(2);
    }
    let data_dir = flag_value(args, "--data-dir");
    if durable && data_dir.is_none() {
        eprintln!("gencon-server: --durable requires --data-dir");
        eprintln!("usage: {USAGE}");
        exit(2);
    }
    let wal_cfg = WalConfig {
        fsync_interval: Duration::from_millis(parse(args, "--fsync-interval-ms", 5)),
        segment_bytes: parse(args, "--segment-bytes", 4 << 20),
        snapshot_keep: parse(args, "--snapshot-keep", 2),
    };
    let durable_cfg = DurableConfig {
        snapshot_every: parse(args, "--snapshot-every", 512),
        snapshot_tail: parse(args, "--snapshot-tail", 64),
        durable_ack: ack_mode == "durable",
    };
    let hash_at: u64 = parse(args, "--hash-at", 0);
    let metrics_file = flag_value(args, "--metrics-file");
    let admin_addr: Option<SocketAddr> = flag_value(args, "--admin-addr").map(|raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("gencon-server: bad --admin-addr");
            exit(2);
        })
    });
    // The flight recorder rides with the admin port: without a place to
    // drain it from, recording would be dead weight.
    let recorder = admin_addr
        .is_some()
        .then(|| gencon_trace::FlightRecorder::new(parse(args, "--trace-events", 65_536)));
    let peer_table = gencon_trace::PeerTable::new(n);
    // The state-hash audit cell and history ring also ride with the
    // admin port (they back its `hash`/`history`/`rates` commands).
    let hash_cell = admin_addr.is_some().then(gencon_trace::HashCell::new);

    // Per-stage metrics. The registry is created unconditionally (the
    // counters are cheap); the JSON dump happens on exit and on SIGUSR1
    // only when `--metrics-file` names a destination.
    let registry = Registry::new();
    if let Some(path) = &metrics_file {
        gencon_metrics::install_sigusr1_dump(registry.clone(), path.clone().into());
        // With tracing on, SIGUSR1 also drops the recorder tail +
        // assembled spans next to the metrics file.
        if let Some(rec) = &recorder {
            let rec = rec.clone();
            let spans_path = format!("{path}.spans.jsonl");
            gencon_metrics::install_sigusr1(move || {
                let events = rec.tail(rec.capacity());
                let mut out = String::new();
                for ev in &events {
                    out.push_str(&ev.to_json());
                    out.push('\n');
                }
                for span in gencon_trace::assemble_spans(&events) {
                    out.push_str(&span.to_json());
                    out.push('\n');
                }
                if let Err(e) = std::fs::write(&spans_path, out) {
                    eprintln!("gencon-server: cannot write spans to {spans_path}: {e}");
                }
            });
        }
    }

    // Fault bounds from the cluster size: the largest each model tolerates.
    let params = match algo.as_str() {
        "paxos" => {
            gencon_algos::paxos::<Batch<A::Cmd>>(n, (n - 1) / 2, ProcessId::new(0))
                .unwrap_or_else(|e| {
                    eprintln!("gencon-server: {e}");
                    exit(2);
                })
                .params
        }
        "pbft" => {
            gencon_algos::pbft::<Batch<A::Cmd>>(n, (n - 1) / 3)
                .unwrap_or_else(|e| {
                    eprintln!("gencon-server: {e} (pbft needs n ≥ 3b + 1, e.g. 4 nodes)");
                    exit(2);
                })
                .params
        }
        "mqb" => {
            gencon_algos::mqb::<Batch<A::Cmd>>(n, (n - 1) / 4)
                .unwrap_or_else(|e| {
                    eprintln!("gencon-server: {e} (mqb needs n ≥ 4b + 1, e.g. 5 nodes)");
                    exit(2);
                })
                .params
        }
        other => {
            eprintln!("gencon-server: unknown --algo {other} (paxos|pbft|mqb)");
            exit(2);
        }
    };

    let mut gateway = ClientGateway::<A>::listen(client_addr, gateway_cfg)
        .unwrap_or_else(|e| {
            eprintln!("gencon-server: cannot bind client address {client_addr}: {e}");
            exit(1);
        })
        .with_metrics(&registry);
    if let Some(rec) = &recorder {
        gateway = gateway.with_trace(rec.clone());
    }
    // Exactly one hash publisher per node: durable nodes publish from
    // the snapshot-boundary fold (see below); memory nodes publish from
    // the live applier at the same applied-count cadence.
    if let (Some(cell), false) = (&hash_cell, durable) {
        gateway = gateway.with_hash_cell(cell.clone(), durable_cfg.snapshot_every);
    }
    // The durable-ack watermark, shared between the persistence layer
    // (writer) and the gateway (ack limit).
    let ack_gate = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    if durable {
        gateway = gateway.with_ack_gate(std::sync::Arc::clone(&ack_gate));
    }

    let mut replica = BatchingReplica::new(ProcessId::new(id), params, batch_cap, usize::MAX)
        .unwrap_or_else(|e| {
            eprintln!("gencon-server: invalid consensus parameters: {e}");
            exit(2);
        })
        .with_window(window)
        .with_dedup_horizon(parse(args, "--dedup-horizon", 8_192));

    // --- durable path: open the WAL, recover the fold + replica before
    // joining the mesh, and seed the live applier from the fold ---
    let mut folder: Folder<A> = Folder::default();
    let durable_parts = if durable {
        let dir = data_dir.expect("checked above");
        let (wal, recovery) = FileWal::open(&dir, wal_cfg).unwrap_or_else(|e| {
            eprintln!("gencon-server: cannot open data dir {dir}: {e}");
            exit(1);
        });
        let recovered = recover_replica(&mut replica, &mut folder, &recovery);
        eprintln!(
            "gencon-server {id}: recovered {} slots from snapshot + {} from WAL \
             ({} commands{}{})",
            recovered.snapshot_slots,
            recovered.replayed_slots,
            recovered.applied,
            if recovery.truncated_bytes > 0 {
                format!(", torn tail truncated: {} bytes", recovery.truncated_bytes)
            } else {
                String::new()
            },
            if recovery.snapshot_corrupt {
                ", corrupt snapshot ignored"
            } else {
                ""
            },
        );
        Some(wal)
    } else {
        None
    };
    let mut applier = Applier::resume(folder.app().clone(), folder.applied_len());
    if hash_at > 0 {
        applier = applier.with_hash_target(hash_at);
    }
    let gateway = gateway.with_applier(applier);

    eprintln!(
        "gencon-server {id}: serving {} clients at {} ({} acks), connecting {n}-node {algo} mesh …",
        A::NAME,
        gateway.local_addr(),
        if durable { ack_mode.as_str() } else { "memory" },
    );
    let transport = gencon_net::TcpTransport::connect_mesh(ProcessId::new(id), &peers)
        .unwrap_or_else(|e| {
            eprintln!("gencon-server: mesh connection failed: {e}");
            exit(1);
        });
    eprintln!("gencon-server {id}: mesh up, log running");

    if let (Some(addr), Some(rec)) = (admin_addr, &recorder) {
        let history = gencon_metrics::HistoryRing::new(parse(args, "--history-len", 128));
        history.spawn_sampler(
            registry.clone(),
            Duration::from_millis(parse(args, "--history-interval-ms", 500)),
        );
        let state = AdminState {
            node_id: id,
            registry: registry.clone(),
            recorder: rec.clone(),
            peers: peer_table.clone(),
            history,
            hashes: hash_cell.clone().unwrap_or_default(),
            io_timeout: gencon_server::ADMIN_IO_TIMEOUT,
        };
        match spawn_admin(addr, state) {
            Ok(local) => eprintln!("gencon-server {id}: admin endpoint at {local}"),
            Err(e) => eprintln!("gencon-server {id}: cannot bind admin address {addr}: {e}"),
        }
    }

    let (replica, stats, captured) = if let Some(wal) = durable_parts {
        let mut node = DurableNode::new(wal, durable_cfg, folder, gateway)
            .with_gate(ack_gate)
            .with_metrics(&registry);
        if let Some(rec) = &recorder {
            node = node.with_trace(rec.clone());
        }
        if let Some(cell) = &hash_cell {
            node = node.with_hash_cell(cell.clone());
        }
        let (replica, _transport, stats, node) = run_smr_node_observed(
            replica,
            transport,
            cfg,
            node,
            Some(&registry),
            recorder.as_ref(),
            Some(&peer_table),
        );
        // One guard for both reads — the store lock is not reentrant, so
        // a second `store()` in the same statement would self-deadlock.
        let (wal_bytes, wal_syncs) = {
            let store = node.store();
            (store.bytes_appended(), store.syncs())
        };
        eprintln!(
            "gencon-server {id}: WAL wrote {wal_bytes} payload bytes over {wal_syncs} fsyncs, \
             {} snapshots taken ({} manifests from disk, {} synthesized)",
            node.snapshots_taken(),
            node.served_from_disk(),
            node.served_synthesized(),
        );
        let captured = node.inner().applier().captured_hash();
        (replica, stats, captured)
    } else {
        let (replica, _transport, stats, hook) = run_smr_node_observed(
            replica,
            transport,
            cfg,
            gateway,
            Some(&registry),
            recorder.as_ref(),
            Some(&peer_table),
        );
        let captured = hook.applier().captured_hash();
        (replica, stats, captured)
    };

    if let Some(path) = &metrics_file {
        if let Err(e) = registry.dump_to_file(path) {
            eprintln!("gencon-server {id}: cannot write metrics to {path}: {e}");
        } else {
            eprintln!("gencon-server {id}: per-stage metrics written to {path}");
        }
    }

    if let Some(hash) = captured {
        println!("gencon-server {id}: app-hash@{hash_at} = {}", hex(&hash));
    } else if hash_at > 0 {
        eprintln!(
            "gencon-server {id}: app-hash@{hash_at} not captured (applied {} commands)",
            replica.applied_len()
        );
    }
    eprintln!(
        "gencon-server {id}: stopped at round {} — {} commands applied over {} slots \
         ({} full rounds, {} timeouts, {} fast-forwards, {} snapshots installed, \
         {} chunks fetched)",
        stats.last_round,
        replica.applied_len(),
        replica.committed_slots(),
        stats.full_rounds,
        stats.timeouts,
        stats.fast_forwards,
        stats.snapshots_installed,
        stats.chunks_fetched,
    );
}
