//! Durability integration: a node dies (state dropped, like `kill -9`),
//! the survivors run on — snapshotting the **folded application state**
//! and compacting their logs far past the dead node's position, so
//! decision claims alone can no longer recover it — and the restarted
//! node must rebuild from its data dir (fold restore + WAL replay) and
//! close the remaining gap via `b + 1`-vouched **chunked state
//! transfer** over the mesh.
//!
//! Two more tests run a durable cluster observed on node 0 and check
//! that the per-stage metrics and the per-slot trace spans populate.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gencon_algos::pbft;
use gencon_app::{Applier, Folder, LogApp};
use gencon_metrics::Registry;
use gencon_net::wire_sync::{FoldedState, SnapshotManifest};
use gencon_net::ChannelTransport;
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

/// Feeds a command block, optionally "dies" at a committed-slot count
/// (stop regardless of progress, state dropped), and otherwise serves
/// until every participant reported done. Runs a live `LogApp` applier —
/// the full-history app — so cross-node agreement can be asserted over
/// the *first TARGET applied commands* even though every replica
/// compacts that prefix out of its own memory.
struct Driver {
    id: usize,
    feed: usize,
    fed: bool,
    die_at_slot: Option<u64>,
    marked: bool,
    done: Arc<AtomicUsize>,
    quorum: usize,
    /// Survivors publish their compaction point here so the restarting
    /// node can wait until the claim horizon has provably passed it.
    base_floor: Option<Arc<AtomicU64>>,
    applier: Applier<LogApp<u64>>,
    /// Hard wall-clock stop so a wedged run fails loudly instead of
    /// hanging the suite.
    give_up: Instant,
}

impl NodeHook<u64> for Driver {
    fn before_round(&mut self, _round: u64, replica: &mut BatchingReplica<u64>) {
        if !self.fed {
            self.fed = true;
            replica.submit_all((0..self.feed as u64).map(|k| (self.id as u64) * 1_000_000 + k));
        }
    }

    fn after_round(&mut self, _round: u64, replica: &mut BatchingReplica<u64>) {
        if let Some(floor) = &self.base_floor {
            floor.fetch_max(replica.committed_base_slot(), Ordering::SeqCst);
        }
        // Runs as the inner hook, i.e. before the durable layer compacts,
        // so the applier always sees the suffix from its cursor on.
        self.applier.track(
            replica.applied(),
            replica.applied_slots(),
            replica.applied_base() as u64,
            replica.applied_len() as u64,
            |_, _, _, _| {},
        );
    }

    fn should_stop(&mut self, replica: &BatchingReplica<u64>) -> bool {
        if let Some(die) = self.die_at_slot {
            return replica.committed_slots() as u64 >= die;
        }
        if !self.marked && replica.applied_len() >= TARGET {
            self.marked = true;
            self.done.fetch_add(1, Ordering::SeqCst);
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
    // wall-clock give-up), NOT from a round budget: idle Channel rounds
    // are sub-millisecond, so any fixed round count lets the survivors
    // spin out and exit while a heavily-scheduled restarted node is
    // still mid-transfer (a real flake under parallel test load).
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
    let make_driver = move |i: usize,
                            feed: usize,
                            fed: bool,
                            die_at_slot: Option<u64>,
                            done: Arc<AtomicUsize>,
                            base_floor: Option<Arc<AtomicU64>>,
                            applier: Applier<LogApp<u64>>| Driver {
        id: i,
        feed,
        fed,
        die_at_slot,
        marked: false,
        done,
        quorum: N,
        base_floor,
        applier,
        give_up,
    };

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
                    make_driver(
                        i,
                        FEED,
                        false,
                        Some(6),
                        Arc::clone(&done),
                        None,
                        Applier::default(),
                    ),
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
                    make_driver(i, 0, true, None, done, None, applier),
                );
                let (replica, _t, stats, hook) =
                    run_smr_node_observed(fresh, transport, server_cfg(), hook, None, None, None);
                let digest = hook.inner().applier.app().prefix_hash(TARGET);
                (replica, stats, committed_at_death, recovered_slots, digest)
            } else {
                // Survivors: durable semantics over MemStore (snapshot +
                // compaction without the disk, which is node 3's job).
                let replica = make_replica(i, params);
                let hook = DurableNode::new(
                    MemStore::new(),
                    durable_cfg(),
                    Folder::<LogApp<u64>>::default(),
                    make_driver(
                        i,
                        FEED,
                        false,
                        None,
                        done,
                        Some(Arc::clone(&bases[i])),
                        Applier::default(),
                    ),
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
        let lo = reference.applied_base().max(rep.applied_base());
        let hi = reference.applied_len().min(rep.applied_len());
        for abs in lo..hi {
            assert_eq!(
                reference.applied()[abs - reference.applied_base()],
                rep.applied()[abs - rep.applied_base()],
                "node {i} diverges at absolute offset {abs}"
            );
        }
    }

    std::fs::remove_dir_all(&data_dir).ok();
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
            let (wal, _) = FileWal::open(&dir, WalConfig::default()).expect("open wal");
            let driver = Driver {
                id: i,
                feed: FEED,
                fed: false,
                die_at_slot: None,
                marked: false,
                done,
                quorum: N,
                base_floor: None,
                applier: Applier::default(),
                give_up,
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
