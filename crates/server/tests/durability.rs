//! Durability integration: a node dies (state dropped, like `kill -9`),
//! the survivors run on — snapshotting the **folded application state**
//! and compacting their logs far past the dead node's position, so
//! decision claims alone can no longer recover it — and the restarted
//! node must rebuild from its data dir (fold restore + WAL replay) and
//! close the remaining gap via `b + 1`-vouched **chunked state
//! transfer** over the mesh.
//!
//! Two more tests restart a node into an **idle** cluster: the others
//! drained their block and stopped executing rounds, and the restarted
//! node must still catch up with no new submissions — by claims inside
//! the claim horizon, by chunked transfer past it.
//!
//! Two more run a durable cluster observed on node 0 and check that the
//! per-stage metrics and the per-slot trace spans populate.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gencon_algos::pbft;
use gencon_app::{App as _, Applier, Folder, LogApp};
use gencon_metrics::Registry;
use gencon_net::wire_sync::{FoldedState, SnapshotManifest};
use gencon_net::{ChannelTransport, Transport as _};
use gencon_server::{
    recover_replica, run_smr_node_observed, DurableConfig, DurableNode, NodeHook, NodeStats,
    ServerConfig,
};
use gencon_smr::{Batch, BatchingReplica};
use gencon_store::{FileWal, MemStore, WalConfig};
use gencon_trace::{assemble_spans, FlightRecorder};
use gencon_types::ProcessId;

const N: usize = 4;
/// Commands each live node feeds.
const FEED: usize = 40;
/// Done once this many commands applied everywhere.
const TARGET: usize = 3 * FEED; // node 3's pre-death feed may be partial

/// Feeds a command block, optionally trickles one fresh command per
/// round after it, optionally "dies" at a committed-slot count (stop
/// regardless of progress, state dropped), and otherwise serves until
/// every participant reported done. Runs a live `LogApp` applier —
/// the full-history app — so cross-node agreement can be asserted over
/// the *first TARGET applied commands* even though every replica
/// compacts that prefix out of its own memory.
struct Driver {
    id: usize,
    feed: usize,
    fed: bool,
    /// After the block: the next fresh command to submit, once per
    /// round, until the done-quorum is reached — load that keeps an
    /// otherwise quiescent cluster committing (and compacting).
    trickle: Option<u64>,
    die_at_slot: Option<u64>,
    marked: bool,
    done: Arc<AtomicUsize>,
    quorum: usize,
    /// Survivors publish their compaction point here so the restarting
    /// node can wait until the claim horizon has provably passed it.
    base_floor: Option<Arc<AtomicU64>>,
    /// Counts this node in once it applied the target and went
    /// quiescent — the restarting node waits for an idle cluster.
    settled: Option<Arc<AtomicUsize>>,
    applier: Applier<LogApp<u64>>,
    /// This node does not report done before this instant: a run that
    /// must outlast some wall-clock interval (a group commit) trickles
    /// on until then.
    hold_until: Option<Instant>,
    /// Hard wall-clock stop so a wedged run fails loudly instead of
    /// hanging the suite.
    give_up: Instant,
}

impl Driver {
    /// Node `id` feeding a block of `feed` commands, serving until the
    /// done-quorum of all `N` nodes or `give_up`.
    fn new(id: usize, feed: usize, done: Arc<AtomicUsize>, give_up: Instant) -> Driver {
        Driver {
            id,
            feed,
            fed: false,
            trickle: None,
            die_at_slot: None,
            marked: false,
            done,
            quorum: N,
            base_floor: None,
            settled: None,
            applier: Applier::default(),
            hold_until: None,
            give_up,
        }
    }
}

impl NodeHook<u64> for Driver {
    fn before_round(&mut self, _round: u64, replica: &mut BatchingReplica<u64>) {
        let base = (self.id as u64) * 1_000_000;
        if !self.fed {
            self.fed = true;
            replica.submit_all((0..self.feed as u64).map(|k| base + k));
        } else if let Some(next) = self.trickle.as_mut() {
            if self.done.load(Ordering::SeqCst) < self.quorum {
                replica.submit(base + *next);
                *next += 1;
            }
        }
    }

    fn after_round(&mut self, _round: u64, replica: &mut BatchingReplica<u64>) {
        if let Some(floor) = &self.base_floor {
            floor.fetch_max(replica.committed_base_slot(), Ordering::SeqCst);
        }
        // Runs as the inner hook, i.e. before the durable layer compacts,
        // so the applier always sees the suffix from its cursor on.
        let from = self.applier.cursor();
        for s in replica.applied_from(from) {
            for (_, cmd) in s.commands_from(from) {
                self.applier.apply(s.slot, cmd);
            }
        }
    }

    fn should_stop(&mut self, replica: &BatchingReplica<u64>) -> bool {
        if let Some(die) = self.die_at_slot {
            return replica.committed_slots() as u64 >= die;
        }
        if !self.marked
            && replica.applied_len() >= TARGET
            && self.hold_until.is_none_or(|t| Instant::now() >= t)
        {
            self.marked = true;
            self.done.fetch_add(1, Ordering::SeqCst);
        }
        if self.marked && replica.is_quiescent() {
            if let Some(settled) = self.settled.take() {
                settled.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.done.load(Ordering::SeqCst) >= self.quorum || Instant::now() > self.give_up
    }

    fn snapshot_installed(
        &mut self,
        _manifest: &SnapshotManifest,
        _state: &[u8],
        fs: &FoldedState<u64>,
        _replica: &mut BatchingReplica<u64>,
    ) {
        self.applier.restore(fs).expect("live app restores");
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gencon-durability-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn durable_cfg() -> DurableConfig {
    DurableConfig {
        // Aggressive snapshots: the survivors' claim horizon races ahead
        // of the dead node within the downtime window. The tail stays
        // wider than the period so a transferred snapshot's successors
        // are still claimable when the restarted node lands on its cut
        // (otherwise it chases ever-newer snapshots under scheduling
        // pressure).
        snapshot_every: 16,
        snapshot_tail: 32,
        durable_ack: true,
    }
}

fn server_cfg() -> ServerConfig {
    // Termination comes from the done-quorum (plus the drivers'
    // wall-clock give-up), NOT from a round budget: a round budget
    // counts rounds, not progress, so a busy survivor can spend it and
    // exit while a heavily-scheduled restarted node is still
    // mid-transfer, and an idle one never spends it at all.
    ServerConfig {
        initial_round_timeout: Duration::from_millis(20),
        min_round_timeout: Duration::from_millis(1),
        max_round_timeout: Duration::from_millis(200),
        max_rounds: u64::MAX,
        stop_after_commands: None,
    }
}

type NodeOut = (BatchingReplica<u64>, NodeStats, u64, u64, Option<[u8; 32]>);

#[test]
fn killed_durable_node_recovers_from_disk_and_chunked_state_transfer() {
    let spec = pbft::<Batch<u64>>(N, 1).unwrap();
    let done = Arc::new(AtomicUsize::new(0));
    let mesh = ChannelTransport::mesh(N);
    let data_dir = tmpdir("kill-restart");
    // One compaction-point cell per survivor: the restarting node waits
    // until every survivor compacted past its recovery point, so the
    // claim path is provably insufficient and state transfer must run.
    let bases: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();

    let make_replica = |i: usize, params: gencon_core::Params<Batch<u64>>| {
        BatchingReplica::new(ProcessId::new(i), params, 4, usize::MAX)
            .unwrap()
            .with_window(4)
            .with_dedup_horizon(256)
    };
    let give_up = Instant::now() + Duration::from_secs(180);

    let mut handles = Vec::new();
    for (i, tr) in mesh.into_iter().enumerate() {
        let params = spec.params.clone();
        let done = Arc::clone(&done);
        let data_dir = data_dir.clone();
        let bases = bases.clone();
        handles.push(std::thread::spawn(move || -> NodeOut {
            if i == 3 {
                // --- Phase 1: durable node, killed after ~6 slots ---
                let (wal, _) = FileWal::open(&data_dir, WalConfig::default()).expect("open wal");
                let replica = make_replica(i, params.clone());
                let hook = DurableNode::new(
                    wal,
                    durable_cfg(),
                    Folder::<LogApp<u64>>::default(),
                    Driver {
                        die_at_slot: Some(6),
                        ..Driver::new(i, FEED, Arc::clone(&done), give_up)
                    },
                );
                let (dead, transport, _stats, _hook) =
                    run_smr_node_observed(replica, tr, server_cfg(), hook, None, None, None);
                let committed_at_death = dead.committed_slots() as u64;
                drop(dead); // kill -9: every byte of replica state gone
                assert!(committed_at_death >= 6);

                // Wait until every survivor compacted past everything
                // this node could have on disk — decision claims alone
                // then provably cannot recover it.
                let deadline = Instant::now() + Duration::from_secs(60);
                while bases
                    .iter()
                    .any(|b| b.load(Ordering::SeqCst) <= committed_at_death + 16)
                {
                    assert!(
                        Instant::now() < deadline,
                        "survivors never compacted past the dead node"
                    );
                    std::thread::sleep(Duration::from_millis(25));
                }

                // --- Phase 2: restart from the data dir ---
                let (wal, recovery) =
                    FileWal::open(&data_dir, WalConfig::default()).expect("reopen wal");
                let mut fresh = make_replica(i, params);
                let mut folder = Folder::<LogApp<u64>>::default();
                let recovered = recover_replica(&mut fresh, &mut folder, &recovery);
                let recovered_slots = fresh.committed_slots() as u64;
                assert!(
                    recovered_slots >= committed_at_death.saturating_sub(1),
                    "disk recovery must rebuild the committed prefix \
                     (had {committed_at_death} slots at death, recovered {recovered_slots})"
                );
                assert!(recovered.applied > 0, "recovered commands from disk");
                // The live applier resumes from the recovered fold.
                let applier = Applier::resume(folder.app().clone(), folder.applied_len());

                let hook = DurableNode::new(
                    wal,
                    durable_cfg(),
                    folder,
                    Driver {
                        applier,
                        ..Driver::new(i, 0, done, give_up)
                    },
                );
                let (replica, _t, stats, hook) =
                    run_smr_node_observed(fresh, transport, server_cfg(), hook, None, None, None);
                let digest = hook.inner().applier.app().prefix_hash(TARGET);
                (replica, stats, committed_at_death, recovered_slots, digest)
            } else {
                // Survivors: durable semantics over MemStore (snapshot +
                // compaction without the disk, which is node 3's job).
                // After their block they trickle fresh commands: an idle
                // cluster stops executing rounds, and only commits move
                // the snapshot cut past the dead node.
                let replica = make_replica(i, params);
                let hook = DurableNode::new(
                    MemStore::new(),
                    durable_cfg(),
                    Folder::<LogApp<u64>>::default(),
                    Driver {
                        trickle: Some(FEED as u64),
                        base_floor: Some(Arc::clone(&bases[i])),
                        ..Driver::new(i, FEED, done, give_up)
                    },
                );
                let (replica, _t, stats, hook) =
                    run_smr_node_observed(replica, tr, server_cfg(), hook, None, None, None);
                let digest = hook.inner().applier.app().prefix_hash(TARGET);
                (replica, stats, 0, 0, digest)
            }
        }));
    }

    let results: Vec<NodeOut> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let (restarted, stats3, committed_at_death, recovered_slots, digest3) = &results[3];
    assert!(
        restarted.applied_len() >= TARGET,
        "restarted node caught up only to {} of {TARGET}",
        restarted.applied_len()
    );
    assert!(
        stats3.snapshots_installed >= 1,
        "the gap must close via snapshot state transfer, not claims alone \
         (requests: {}, installed: {})",
        stats3.snapshot_requests,
        stats3.snapshots_installed
    );
    assert!(
        stats3.chunks_fetched >= 1,
        "the transfer is chunked: at least one verified chunk was pulled"
    );
    // The claim horizon really was exceeded: the survivors compacted far
    // past everything the dead node had on disk.
    for (rep, stats, _, _, _) in &results[..3] {
        assert!(
            rep.committed_base_slot() > *recovered_slots,
            "survivor compaction point {} must exceed the dead node's \
             recovered prefix {recovered_slots} (death at {committed_at_death})",
            rep.committed_base_slot(),
        );
        assert!(stats.snapshots_served >= 1 || stats.rounds > 0);
    }
    // Agreement: every node's live LogApp (the restarted one included,
    // via fold restore + transfer) hashed the identical first-TARGET
    // applied prefix — the prefix itself is long compacted out of every
    // replica's memory by the end of the run.
    let digest3 = digest3.expect("restarted node's app covers the target prefix");
    for (i, (_, _, _, _, digest)) in results[..3].iter().enumerate() {
        assert_eq!(
            digest.expect("survivor's app covers the target prefix"),
            digest3,
            "node {i}'s applied-prefix digest diverges from the restarted node"
        );
    }
    // Where retained suffixes still overlap, contents must match too.
    let reference = &results[3].0;
    for (i, (rep, _, _, _, _)) in results[..3].iter().enumerate() {
        let lo = reference.applied_base().max(rep.applied_base()) as u64;
        let hi = reference.applied_len().min(rep.applied_len()) as u64;
        assert_eq!(
            log_range(reference, lo, hi),
            log_range(rep, lo, hi),
            "node {i} diverges in absolute offsets {lo}..{hi}"
        );
    }

    std::fs::remove_dir_all(&data_dir).ok();
}

/// `(offset, command)` for the replica's applied commands at absolute
/// offsets `lo..hi`.
fn log_range(rep: &BatchingReplica<u64>, lo: u64, hi: u64) -> Vec<(u64, u64)> {
    rep.applied_from(lo)
        .iter()
        .flat_map(|s| s.commands_from(lo))
        .take_while(|(offset, _)| *offset < hi)
        .map(|(offset, cmd)| (offset, *cmd))
        .collect()
}

/// What node 3 saw when it restarted into an idle cluster.
struct Rejoin {
    stats: NodeStats,
    recovered_slots: u64,
    /// The survivors' compaction points at the end of the run.
    survivor_bases: Vec<u64>,
}

/// Four nodes commit a block of exactly `TARGET` commands — the
/// survivors' — while node 3 dies after 6 slots; the survivors drain the
/// block and go quiescent. Node 3 then restarts from its data dir and,
/// with nothing new submitted anywhere, must reach the survivors'
/// applied count and state hash. With `compacting`, the survivors are
/// durable nodes snapshotting under that policy (so they can serve state
/// transfer); without it they keep their whole log and serve nothing, so
/// decision claims are the only way back.
fn restart_into_idle_cluster(tag: &str, compacting: Option<DurableConfig>) -> Rejoin {
    let spec = pbft::<Batch<u64>>(N, 1).unwrap();
    let done = Arc::new(AtomicUsize::new(0));
    let settled = Arc::new(AtomicUsize::new(0));
    let data_dir = tmpdir(tag);
    let give_up = Instant::now() + Duration::from_secs(120);
    let node3_cfg = compacting.unwrap_or(DurableConfig {
        snapshot_every: 0,
        ..durable_cfg()
    });
    let make_replica = |i: usize, params: gencon_core::Params<Batch<u64>>| {
        BatchingReplica::new(ProcessId::new(i), params, 4, usize::MAX)
            .unwrap()
            .with_window(4)
            .with_dedup_horizon(256)
    };

    type Out = (BatchingReplica<u64>, NodeStats, [u8; 32], u64);
    let mut handles = Vec::new();
    for (i, tr) in ChannelTransport::mesh(N).into_iter().enumerate() {
        let params = spec.params.clone();
        let done = Arc::clone(&done);
        let settled = Arc::clone(&settled);
        let data_dir = data_dir.clone();
        handles.push(std::thread::spawn(move || -> Out {
            if i < 3 {
                let driver = Driver {
                    settled: Some(settled),
                    ..Driver::new(i, FEED, done, give_up)
                };
                let replica = make_replica(i, params);
                return match compacting {
                    Some(cfg) => {
                        let hook = DurableNode::new(
                            MemStore::new(),
                            cfg,
                            Folder::<LogApp<u64>>::default(),
                            driver,
                        );
                        let (replica, _t, stats, hook) = run_smr_node_observed(
                            replica,
                            tr,
                            server_cfg(),
                            hook,
                            None,
                            None,
                            None,
                        );
                        let hash = hook.inner().applier.app().state_hash();
                        (replica, stats, hash, 0)
                    }
                    None => {
                        let (replica, _t, stats, driver) = run_smr_node_observed(
                            replica,
                            tr,
                            server_cfg(),
                            driver,
                            None,
                            None,
                            None,
                        );
                        let hash = driver.applier.app().state_hash();
                        (replica, stats, hash, 0)
                    }
                };
            }
            // --- node 3, phase 1: feeds nothing, dies after 6 slots ---
            let (wal, _) = FileWal::open(&data_dir, WalConfig::default()).expect("open wal");
            let hook = DurableNode::new(
                wal,
                node3_cfg,
                Folder::<LogApp<u64>>::default(),
                Driver {
                    die_at_slot: Some(6),
                    ..Driver::new(i, 0, Arc::clone(&done), give_up)
                },
            );
            let (dead, mut transport, _stats, _hook) = run_smr_node_observed(
                make_replica(i, params.clone()),
                tr,
                server_cfg(),
                hook,
                None,
                None,
                None,
            );
            drop(dead);

            // The survivors drain the block and stop executing rounds.
            while settled.load(Ordering::SeqCst) < 3 {
                assert!(
                    Instant::now() < give_up,
                    "the survivors never went quiescent"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(100));
            // A killed process loses its socket buffers: drop the frames
            // the survivors sent while it was down, so the restarted node
            // starts knowing nothing of where the cluster is.
            while transport.recv_timeout(Duration::ZERO).is_some() {}

            // --- phase 2: restart from the data dir into the lull ---
            let (wal, recovery) =
                FileWal::open(&data_dir, WalConfig::default()).expect("reopen wal");
            let mut fresh = make_replica(i, params);
            let mut folder = Folder::<LogApp<u64>>::default();
            recover_replica(&mut fresh, &mut folder, &recovery);
            let recovered_slots = fresh.committed_slots() as u64;
            let applier = Applier::resume(folder.app().clone(), folder.applied_len());
            let hook = DurableNode::new(
                wal,
                node3_cfg,
                folder,
                Driver {
                    applier,
                    ..Driver::new(i, 0, done, give_up)
                },
            );
            let (replica, _t, stats, hook) =
                run_smr_node_observed(fresh, transport, server_cfg(), hook, None, None, None);
            let hash = hook.inner().applier.app().state_hash();
            (replica, stats, hash, recovered_slots)
        }));
    }
    let results: Vec<Out> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    std::fs::remove_dir_all(&data_dir).ok();

    let (restarted, stats, hash3, recovered_slots) = &results[3];
    assert!(Instant::now() < give_up, "the run gave up");
    for (i, (rep, _, hash, _)) in results[..3].iter().enumerate() {
        assert_eq!(rep.applied_len(), TARGET, "survivor {i} applied the block");
        assert!(
            rep.committed_slots() as u64 > *recovered_slots,
            "node 3 restarted with a real gap"
        );
        assert_eq!(
            restarted.applied_len(),
            rep.applied_len(),
            "the restarted node reaches survivor {i}'s applied count"
        );
        assert_eq!(hash, hash3, "state hash of node 3 and survivor {i} differ");
    }
    Rejoin {
        stats: *stats,
        recovered_slots: *recovered_slots,
        survivor_bases: results[..3]
            .iter()
            .map(|(rep, ..)| rep.committed_base_slot())
            .collect(),
    }
}

/// A gap inside the claim horizon: the survivors keep their whole log
/// and serve no snapshots, so node 3 closes it with decision claims.
#[test]
fn node_restarted_into_idle_cluster_catches_up_by_claims() {
    let rejoin = restart_into_idle_cluster("idle-claims", None);
    assert!(rejoin.survivor_bases.iter().all(|&b| b == 0));
    assert_eq!(rejoin.stats.snapshots_installed, 0);
}

/// A gap past the claim horizon: the survivors compacted beyond node 3's
/// recovered prefix, so it needs chunked state transfer first.
#[test]
fn node_restarted_into_idle_cluster_catches_up_by_chunked_transfer() {
    let rejoin = restart_into_idle_cluster(
        "idle-transfer",
        Some(DurableConfig {
            snapshot_every: 8,
            snapshot_tail: 4,
            durable_ack: true,
        }),
    );
    assert!(
        rejoin
            .survivor_bases
            .iter()
            .all(|&b| b > rejoin.recovered_slots),
        "survivors {:?} must compact past the recovered prefix {}",
        rejoin.survivor_bases,
        rejoin.recovered_slots
    );
    assert!(rejoin.stats.snapshots_installed >= 1);
    assert!(rejoin.stats.chunks_fetched >= 1);
}

/// Runs a durable cluster to `TARGET` with `registry` and `recorder`
/// (when given) attached to node 0's pipeline stages and node loop.
fn run_observed_cluster(tag: &str, registry: Option<&Registry>, recorder: Option<&FlightRecorder>) {
    let spec = pbft::<Batch<u64>>(N, 1).unwrap();
    let done = Arc::new(AtomicUsize::new(0));
    let data_dir = tmpdir(tag);
    let give_up = Instant::now() + Duration::from_secs(120);

    let mut handles = Vec::new();
    for (i, tr) in ChannelTransport::mesh(N).into_iter().enumerate() {
        let params = spec.params.clone();
        let done = Arc::clone(&done);
        let dir = data_dir.join(format!("node{i}"));
        let (reg, rec) = if i == 0 {
            (registry.cloned(), recorder.cloned())
        } else {
            (None, None)
        };
        handles.push(std::thread::spawn(move || {
            let replica = BatchingReplica::new(ProcessId::new(i), params, 4, usize::MAX)
                .unwrap()
                .with_window(4);
            let wal_cfg = WalConfig::default();
            let (wal, _) = FileWal::open(&dir, wal_cfg).expect("open wal");
            // The block alone commits, and is covered by snapshot
            // installs, faster than one group-commit interval: trickle on
            // for ten intervals so appends outlive a group commit.
            let driver = Driver {
                trickle: Some(FEED as u64),
                hold_until: Some(Instant::now() + 10 * wal_cfg.fsync_interval),
                ..Driver::new(i, FEED, done, give_up)
            };
            let mut hook =
                DurableNode::new(wal, durable_cfg(), Folder::<LogApp<u64>>::default(), driver);
            if let Some(r) = &reg {
                hook = hook.with_metrics(r);
            }
            if let Some(r) = &rec {
                hook = hook.with_trace(r.clone());
            }
            let (replica, _t, _stats, _hook) = run_smr_node_observed(
                replica,
                tr,
                server_cfg(),
                hook,
                reg.as_ref(),
                rec.as_ref(),
                None,
            );
            replica
        }));
    }
    let replicas: Vec<BatchingReplica<u64>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (i, rep) in replicas.iter().enumerate() {
        assert!(
            rep.applied_len() >= TARGET,
            "node {i} applied only {} of {TARGET}",
            rep.applied_len()
        );
    }
    std::fs::remove_dir_all(&data_dir).ok();
}

/// With a metrics registry on node 0, every stage of the durable
/// pipeline reports into it.
#[test]
fn per_stage_metrics_populate_on_node_zero() {
    let registry = Registry::new();
    run_observed_cluster("metered", Some(&registry), None);

    let counter = |name: &str| registry.counter_value(name).unwrap_or(0);
    assert!(counter("order.rounds") > 0, "order stage metered");
    assert!(counter("persist.appended") > 0, "persist stage metered");
    assert!(counter("persist.fsyncs") > 0, "group commits metered");
    assert!(registry.histogram("order.round_us").count() > 0);
    assert!(registry.histogram("persist.fsync_us").count() > 0);
}

/// With a flight recorder on node 0, the recorder's events assemble
/// into per-slot spans with the consensus, persist-queue and
/// group-commit segments populated.
#[test]
fn traced_durable_run_yields_slot_spans() {
    let recorder = FlightRecorder::new(1 << 15);
    run_observed_cluster("traced", None, Some(&recorder));

    let spans = assemble_spans(&recorder.tail(recorder.capacity()));
    assert!(!spans.is_empty(), "no spans assembled");
    assert!(
        spans.iter().any(|s| s.order_us.is_some()),
        "no span carries an order segment"
    );
    assert!(
        spans.iter().any(|s| s.persist_wait_us.is_some()),
        "no span carries a persist queue-wait segment"
    );
    assert!(
        spans.iter().any(|s| s.persist_svc_us.is_some()),
        "no span carries a group-commit segment"
    );
}
