//! End-to-end cluster tests: the full server stack over real transports.
//!
//! * A 4-node PBFT cluster over `TcpTransport` on localhost serves real
//!   TCP clients through the gateway protocol and commits ≥ 1000 client
//!   commands with agreeing applied logs (the repo's wire-level
//!   acceptance bar).
//! * An idle 4-node TCP cluster acks a lone client submission within
//!   20 ms: the gateway wakes the quiescent order loop instead of waiting
//!   for its next idle poll.
//! * A 4-node Channel cluster loses a node mid-run (thread stopped, state
//!   dropped — a SIGKILL stand-in); a fresh replica started on the same
//!   endpoint fast-forwards to the cluster's round and recommits the
//!   missed prefix via `b + 1`-concordant decision claims.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gencon_algos::pbft;
use gencon_app::LogApp;
use gencon_net::{probe_free_addrs, ChannelTransport, TcpTransport};
use gencon_server::{
    read_frame, run_smr_node_observed, write_frame, ClientGateway, ClientRequest, ClientResponse,
    GatewayConfig, NodeHook, ServerConfig,
};
use gencon_smr::{Batch, BatchingReplica};
use gencon_types::{decode_cmd, encode_cmd, ProcessId};

/// Delegates to the gateway; the node keeps serving until every *client*
/// reported done (the shutdown signal real deployments get from outside),
/// its own log reached the target, and a short grace of extra rounds
/// passed so laggard peers can finish their last slots.
struct GatewayUntilClientsDone {
    gateway: ClientGateway<LogApp<u64>>,
    target: usize,
    clients: usize,
    clients_done: Arc<AtomicUsize>,
    grace_left: u32,
}

impl NodeHook<u64> for GatewayUntilClientsDone {
    fn before_round(&mut self, round: u64, replica: &mut BatchingReplica<u64>) {
        self.gateway.before_round(round, replica);
    }

    fn after_round(&mut self, round: u64, replica: &mut BatchingReplica<u64>) {
        self.gateway.after_round(round, replica);
    }

    fn should_stop(&mut self, replica: &BatchingReplica<u64>) -> bool {
        if self.clients_done.load(Ordering::SeqCst) >= self.clients
            && replica.applied_len() >= self.target
        {
            if self.grace_left == 0 {
                return true;
            }
            self.grace_left -= 1;
        }
        false
    }
}

/// The replica's retained applied commands, in log order.
fn log_of(rep: &BatchingReplica<u64>) -> Vec<u64> {
    rep.applied_from(0)
        .iter()
        .flat_map(|s| s.batch.iter().copied())
        .collect()
}

/// A closed-loop TCP client: `clients` logical clients × `outstanding`
/// in flight, until `count` commands acked. Returns the acked commands.
fn closed_loop_client(
    server: SocketAddr,
    namespace: u16,
    clients: u16,
    outstanding: u32,
    count: usize,
) -> Vec<u64> {
    let mut stream = TcpStream::connect(server).expect("client connects");
    stream.set_nodelay(true).ok();
    let mut next_seq = vec![0u32; clients as usize];
    for c in 0..clients {
        for _ in 0..outstanding {
            let cmd = encode_cmd(namespace, c, next_seq[c as usize]);
            next_seq[c as usize] += 1;
            write_frame(&mut stream, &ClientRequest::Submit { cmd }).unwrap();
        }
    }
    let mut acked = Vec::with_capacity(count);
    while acked.len() < count {
        match read_frame::<_, ClientResponse<u64>>(&mut stream).expect("server answers") {
            ClientResponse::Committed { cmd, .. } => {
                acked.push(cmd);
                let c = decode_cmd(cmd).1;
                let cmd = encode_cmd(namespace, c, next_seq[c as usize]);
                next_seq[c as usize] += 1;
                write_frame(&mut stream, &ClientRequest::Submit { cmd }).unwrap();
            }
            other => panic!("unexpected bounce under light load: {other:?}"),
        }
    }
    acked
}

#[test]
fn tcp_pbft_cluster_serves_1000_client_commands() {
    const N: usize = 4;
    const PER_NODE: usize = 250;
    const TARGET: usize = N * PER_NODE; // every command reaches every log

    let spec = pbft::<Batch<u64>>(N, 1).unwrap();
    let peer_addrs = probe_free_addrs(N).unwrap();
    let clients_done = Arc::new(AtomicUsize::new(0));

    // Servers: mesh over TCP, client gateway each, batching replicas.
    let mut client_ports = Vec::new();
    let mut servers = Vec::new();
    for i in 0..N {
        let gateway = ClientGateway::<LogApp<u64>>::listen(
            "127.0.0.1:0".parse().unwrap(),
            GatewayConfig::default(),
        )
        .unwrap();
        client_ports.push(gateway.local_addr());
        let peer_addrs = peer_addrs.clone();
        let params = spec.params.clone();
        let clients_done = Arc::clone(&clients_done);
        servers.push(std::thread::spawn(move || {
            let transport =
                TcpTransport::connect_mesh(ProcessId::new(i), &peer_addrs).expect("mesh up");
            let replica = BatchingReplica::new(ProcessId::new(i), params, 64, usize::MAX)
                .unwrap()
                .with_window(4);
            let cfg = ServerConfig {
                initial_round_timeout: Duration::from_millis(40),
                min_round_timeout: Duration::from_millis(2),
                max_round_timeout: Duration::from_millis(500),
                max_rounds: 100_000,
                stop_after_commands: None,
            };
            let hook = GatewayUntilClientsDone {
                gateway,
                target: TARGET,
                clients: N,
                clients_done,
                grace_left: 40,
            };
            let (replica, _t, stats, _hook) =
                run_smr_node_observed(replica, transport, cfg, hook, None, None, None);
            (replica, stats)
        }));
    }

    // One closed-loop client per server, distinct namespaces.
    let clients: Vec<_> = client_ports
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            let clients_done = Arc::clone(&clients_done);
            std::thread::spawn(move || {
                let acked = closed_loop_client(addr, i as u16, 5, 10, PER_NODE);
                clients_done.fetch_add(1, Ordering::SeqCst);
                acked
            })
        })
        .collect();
    for c in clients {
        let acked = c.join().unwrap();
        assert_eq!(acked.len(), PER_NODE);
    }

    let logs: Vec<(BatchingReplica<u64>, gencon_server::NodeStats)> =
        servers.into_iter().map(|h| h.join().unwrap()).collect();
    let reference = log_of(&logs[0].0);
    assert!(
        reference.len() >= TARGET,
        "node 0 applied only {} of {TARGET}",
        reference.len()
    );
    for (i, (rep, _stats)) in logs.iter().enumerate() {
        let log = log_of(rep);
        assert!(log.len() >= TARGET, "node {i} applied only {}", log.len());
        let common = log.len().min(reference.len());
        assert_eq!(
            &log[..common],
            &reference[..common],
            "node {i} log diverges from node 0"
        );
    }
}

/// Delegates to the gateway until `stop` is raised.
struct GatewayUntilStopped {
    gateway: ClientGateway<LogApp<u64>>,
    stop: Arc<AtomicBool>,
}

impl NodeHook<u64> for GatewayUntilStopped {
    fn before_round(&mut self, round: u64, replica: &mut BatchingReplica<u64>) {
        self.gateway.before_round(round, replica);
    }

    fn after_round(&mut self, round: u64, replica: &mut BatchingReplica<u64>) {
        self.gateway.after_round(round, replica);
    }

    fn should_stop(&mut self, _replica: &BatchingReplica<u64>) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn finish(&mut self, replica: &mut BatchingReplica<u64>) {
        self.gateway.finish(replica);
    }
}

/// A quiescent cluster answers a lone submission at network speed: the
/// gateway's connection reader wakes the order loop, which otherwise
/// polls its hook only every 50 ms.
#[test]
fn idle_tcp_cluster_acks_a_submission_within_20ms() {
    const N: usize = 4;
    let spec = pbft::<Batch<u64>>(N, 1).unwrap();
    let peer_addrs = probe_free_addrs(N).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut client_addr = None;
    let servers: Vec<_> = (0..N)
        .map(|i| {
            let gateway = ClientGateway::<LogApp<u64>>::listen(
                "127.0.0.1:0".parse().unwrap(),
                GatewayConfig::default(),
            )
            .unwrap();
            client_addr.get_or_insert(gateway.local_addr());
            let peer_addrs = peer_addrs.clone();
            let params = spec.params.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let transport =
                    TcpTransport::connect_mesh(ProcessId::new(i), &peer_addrs).expect("mesh up");
                let replica = BatchingReplica::new(ProcessId::new(i), params, 64, usize::MAX)
                    .unwrap()
                    .with_window(4);
                let cfg = ServerConfig {
                    initial_round_timeout: Duration::from_millis(40),
                    min_round_timeout: Duration::from_millis(2),
                    max_round_timeout: Duration::from_millis(500),
                    max_rounds: u64::MAX,
                    stop_after_commands: None,
                };
                let hook = GatewayUntilStopped { gateway, stop };
                let (replica, ..) =
                    run_smr_node_observed(replica, transport, cfg, hook, None, None, None);
                replica.applied_len()
            })
        })
        .collect();

    let mut stream = TcpStream::connect(client_addr.unwrap()).expect("client connects");
    stream.set_nodelay(true).ok();
    let mut took = Vec::new();
    for seq in 0..3 {
        // Long enough for the start-up round (or the last command) to
        // settle: every node is quiescent again. Not a multiple of the
        // 50 ms idle poll, which starts when the last round ends: without
        // the wake-up this submission would wait ~35 ms for the next poll.
        std::thread::sleep(Duration::from_millis(315));
        let cmd = encode_cmd(9, 0, seq);
        let sent = Instant::now();
        write_frame(&mut stream, &ClientRequest::Submit { cmd }).unwrap();
        match read_frame::<_, ClientResponse<u64>>(&mut stream).expect("server answers") {
            ClientResponse::Committed { cmd: acked, .. } => assert_eq!(acked, cmd),
            other => panic!("unexpected response {other:?}"),
        }
        took.push(sent.elapsed());
    }
    // Let every node apply the last command before stopping.
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::SeqCst);
    for s in servers {
        assert_eq!(
            s.join().unwrap(),
            3,
            "every node applied the three commands"
        );
    }
    assert!(
        took.iter().all(|t| *t < Duration::from_millis(20)),
        "acks took {took:?}"
    );
}

/// A hook that feeds a block of commands and optionally kills the node at
/// a round; the shared done-gate keeps survivors helping.
struct FeedAndMaybeDie {
    id: usize,
    feed: usize,
    fed: bool,
    die_at_round: Option<u64>,
    target: usize,
    marked: bool,
    done: Arc<AtomicUsize>,
    quorum: usize,
}

impl NodeHook<u64> for FeedAndMaybeDie {
    fn before_round(&mut self, _round: u64, replica: &mut BatchingReplica<u64>) {
        if !self.fed {
            self.fed = true;
            replica.submit_all((0..self.feed as u64).map(|k| (self.id as u64) * 1_000_000 + k));
        }
    }

    fn should_stop(&mut self, replica: &BatchingReplica<u64>) -> bool {
        if let Some(die) = self.die_at_round {
            // "SIGKILL": stop regardless of progress; state is dropped.
            return replica.committed_slots() as u64 >= die;
        }
        if !self.marked && replica.applied_len() >= self.target {
            self.marked = true;
            self.done.fetch_add(1, Ordering::SeqCst);
        }
        self.done.load(Ordering::SeqCst) >= self.quorum
    }
}

#[test]
fn restarted_node_catches_up_via_decision_claims() {
    const N: usize = 4;
    const TARGET: usize = 90;

    let spec = pbft::<Batch<u64>>(N, 1).unwrap();
    let done = Arc::new(AtomicUsize::new(0));
    let mesh = ChannelTransport::mesh(N);
    let cfg = ServerConfig {
        initial_round_timeout: Duration::from_millis(20),
        min_round_timeout: Duration::from_millis(5),
        max_round_timeout: Duration::from_millis(200),
        max_rounds: 100_000,
        stop_after_commands: None,
    };

    let mut handles = Vec::new();
    for (i, tr) in mesh.into_iter().enumerate() {
        let params = spec.params.clone();
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            let make_replica = |params| {
                BatchingReplica::new(ProcessId::new(i), params, 4, usize::MAX)
                    .unwrap()
                    .with_window(4)
            };
            if i == 3 {
                // Phase 1: run until ~4 slots committed, then "crash".
                let replica = make_replica(params);
                let hook = FeedAndMaybeDie {
                    id: i,
                    feed: 40,
                    fed: false,
                    die_at_round: Some(4),
                    target: TARGET,
                    marked: false,
                    done: Arc::clone(&done),
                    quorum: N,
                };
                let (dead, transport, _stats, _hook) =
                    run_smr_node_observed(replica, tr, cfg, hook, None, None, None);
                let committed_before_death = dead.applied_len();
                drop(dead); // all replica state is lost
                            // The cluster runs on while this node is down — long
                            // enough that the survivors advance hundreds of rounds,
                            // far past the pacing liveness grace, so the restart
                            // exercises both the fast-forward jump and the
                            // re-enrollment of written-off peers.
                std::thread::sleep(Duration::from_millis(1_000));
                // Phase 2: a fresh replica on the same endpoint.
                let spec2 = pbft::<Batch<u64>>(N, 1).unwrap();
                let fresh = make_replica(spec2.params.clone());
                let hook = FeedAndMaybeDie {
                    id: i,
                    feed: 0,
                    fed: true,
                    die_at_round: None,
                    target: TARGET,
                    marked: false,
                    done,
                    quorum: N,
                };
                let (replica, _t, stats, _hook) =
                    run_smr_node_observed(fresh, transport, cfg, hook, None, None, None);
                assert!(
                    stats.fast_forwards > 0,
                    "the restarted node must jump to the cluster's round"
                );
                (replica, committed_before_death)
            } else {
                let replica = make_replica(params);
                let hook = FeedAndMaybeDie {
                    id: i,
                    feed: 40,
                    fed: false,
                    die_at_round: None,
                    target: TARGET,
                    marked: false,
                    done,
                    quorum: N,
                };
                let (replica, _t, _stats, _hook) =
                    run_smr_node_observed(replica, tr, cfg, hook, None, None, None);
                (replica, 0)
            }
        }));
    }

    let results: Vec<(BatchingReplica<u64>, usize)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    let survivor_log = log_of(&results[0].0);
    assert!(
        survivor_log.len() >= TARGET,
        "survivors committed {} of {TARGET}",
        survivor_log.len()
    );
    let (restarted, before_death) = (&results[3].0, results[3].1);
    let relog = log_of(restarted);
    assert!(
        relog.len() >= TARGET,
        "restarted node caught up only to {} of {TARGET}",
        relog.len()
    );
    assert!(
        relog.len() > before_death + 20,
        "catch-up must recommit a real gap (had {before_death}, now {})",
        relog.len()
    );
    // The recommitted prefix is the survivors' committed prefix.
    let common = relog.len().min(survivor_log.len());
    assert_eq!(
        &relog[..common],
        &survivor_log[..common],
        "restarted log diverges from the cluster"
    );
}
