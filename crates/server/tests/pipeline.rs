//! Staged-pipeline safety tests.
//!
//! The gateway applies and acks on its own delivery thread, behind one
//! channel from the order loop, so the properties worth pinning down are
//! the ones that hand-off could break:
//!
//! * **Determinism** — a pipelined node's applied log, live application
//!   state and per-command replies are exactly what a single-threaded
//!   replay of the same applied log produces (property test over random
//!   kv command streams).
//! * **Clean shutdown** — `NodeHook::finish` drains the delivery stage:
//!   every ack for an applied command reaches the client socket before
//!   the node returns; nothing is stranded in its queue.
//! * **Re-acks across a state-transfer jump** — a client retry of a
//!   command that committed *below* a chunked-state-transfer jump is
//!   answered from the transferred dedup set instead of being swallowed
//!   by the replica's dedup.

use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;

use gencon_algos::paxos;
use gencon_app::{App, Applier, Folder, KvApp, KvCmd, KvOp, KvReply, LogApp};
use gencon_net::SnapshotManifest;
use gencon_rounds::{HeardOf, Outgoing, RoundProcess};
use gencon_server::{
    read_frame, write_frame, ClientGateway, ClientRequest, ClientResponse, GatewayConfig, NodeHook,
};
use gencon_smr::{AppliedSlot, Batch, BatchingReplica};
use gencon_types::{ProcessId, Round};

/// One hand-driven consensus round of a single-replica (Paxos n = 1)
/// log, with the gateway hooks around it.
fn drive_round<A: gencon_app::App>(
    gw: &mut ClientGateway<A>,
    replica: &mut BatchingReplica<A::Cmd>,
    round: u64,
) {
    let r = Round::new(round);
    gw.before_round(round, replica);
    let out = replica.send(r);
    let mut heard: HeardOf<_> = HeardOf::empty(1);
    if let Outgoing::Broadcast(m) = out {
        heard.put(ProcessId::new(0), m);
    }
    replica.receive(r, &heard);
    gw.after_round(round, replica);
}

fn kv_cmds() -> impl Strategy<Value = Vec<KvCmd>> {
    let key = proptest::collection::vec(any::<u8>(), 0..4);
    let value = proptest::collection::vec(any::<u8>(), 0..6);
    proptest::collection::vec((0u8..3, key, value), 0..20).prop_map(|entries| {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (variant, key, value))| KvCmd {
                id: i as u64,
                op: match variant {
                    0 => KvOp::Put { key, value },
                    1 => KvOp::Get { key },
                    _ => KvOp::Del { key },
                },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Commands submitted over the wire, ordered by the replica and
    /// applied + acked on the pipeline threads end in exactly the state a
    /// single-threaded replay of the applied log produces — same applied
    /// length, same `state_hash`, and every client ack carries the reply
    /// the sequential reference computes for that command.
    #[test]
    fn pipelined_node_matches_single_thread_reference(cmds in kv_cmds()) {
        let mut gw = ClientGateway::<KvApp>::listen(
            "127.0.0.1:0".parse().unwrap(),
            GatewayConfig::default(),
        )
        .unwrap();
        let spec = paxos::<Batch<KvCmd>>(1, 0, ProcessId::new(0)).unwrap();
        let mut replica =
            BatchingReplica::new(ProcessId::new(0), spec.params.clone(), 8, usize::MAX).unwrap();

        let mut conn = TcpStream::connect(gw.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for cmd in &cmds {
            write_frame(&mut conn, &ClientRequest::Submit { cmd: cmd.clone() }).unwrap();
        }

        let mut round = 0u64;
        while replica.applied_len() < cmds.len() {
            round += 1;
            prop_assert!(round < 5_000, "stalled at {} of {}", replica.applied_len(), cmds.len());
            let before = replica.applied_len();
            drive_round(&mut gw, &mut replica, round);
            if replica.applied_len() == before && replica.queued() == 0 {
                // Submissions still in flight through the conn reader.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        gw.drain();

        // The single-threaded reference: replay the applied log.
        let mut reference = Applier::<KvApp>::new(KvApp::default());
        let mut expected: HashMap<u64, (u64, KvReply)> = HashMap::new();
        for s in replica.applied_from(0) {
            for (offset, cmd) in s.commands_from(0) {
                let reply = reference.apply(s.slot, cmd);
                expected.insert(cmd.id, (offset, reply));
            }
        }
        prop_assert_eq!(gw.applier().cursor(), cmds.len() as u64);
        // The pipelined apply must not diverge from the sequential
        // reference.
        prop_assert_eq!(gw.applier().app().state_hash(), reference.app().state_hash());

        // Every ack matches the reference's offset and reply.
        for _ in 0..cmds.len() {
            let resp: ClientResponse<KvCmd, KvReply> = read_frame(&mut conn).unwrap();
            let ClientResponse::Committed { cmd, offset, reply, .. } = resp else {
                panic!("expected a commit ack, got a bounce under light load");
            };
            let (want_offset, want_reply) = expected.remove(&cmd.id).expect("acked exactly once");
            prop_assert_eq!(offset, want_offset);
            prop_assert_eq!(reply, Some(want_reply));
        }
        prop_assert!(expected.is_empty());
        prop_assert_eq!(gw.acks_dropped(), 0);
    }
}

/// `NodeHook::finish` drains the delivery stage: acks for every
/// applied command are on the client socket when it returns, with no
/// reads ever polling in between — nothing is stranded in a stage queue.
#[test]
fn clean_shutdown_strands_no_acks() {
    let mut gw = ClientGateway::<LogApp<u64>>::listen(
        "127.0.0.1:0".parse().unwrap(),
        GatewayConfig::default(),
    )
    .unwrap();
    let spec = paxos::<Batch<u64>>(1, 0, ProcessId::new(0)).unwrap();
    let mut replica =
        BatchingReplica::new(ProcessId::new(0), spec.params.clone(), 8, usize::MAX).unwrap();

    let mut conn = TcpStream::connect(gw.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let cmds: Vec<u64> = (100..105).collect();
    for &cmd in &cmds {
        write_frame(&mut conn, &ClientRequest::Submit { cmd }).unwrap();
    }

    let mut round = 0u64;
    while replica.applied_len() < cmds.len() {
        round += 1;
        assert!(round < 5_000, "stalled at {}", replica.applied_len());
        let before = replica.applied_len();
        drive_round(&mut gw, &mut replica, round);
        if replica.applied_len() == before && replica.queued() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // The event loop's exit path: finish() must flush everything.
    gw.finish(&mut replica);
    assert_eq!(gw.inflight(), 0, "an ack was stranded in the pipeline");
    assert_eq!(gw.acks_dropped(), 0);
    for (want_offset, &want_cmd) in cmds.iter().enumerate() {
        let resp: ClientResponse<u64> = read_frame(&mut conn).unwrap();
        let ClientResponse::Committed {
            cmd, offset, reply, ..
        } = resp
        else {
            panic!("expected a commit ack, got {resp:?}");
        };
        assert_eq!(cmd, want_cmd);
        assert_eq!(offset, want_offset as u64);
        assert_eq!(reply, Some(want_offset as u64));
    }
}

/// The transfer-jump re-ack regression: a node that installed a folded
/// snapshot never locally applied the commands below the jump, so a
/// client retry of one of them is dedup-swallowed by the replica. The
/// gateway must answer it with the slot and offset the replica derived
/// from the transferred dedup window (the reply was computed elsewhere and
/// is reported as absent) instead of leaving the client hanging — and
/// new commands must keep committing normally above the jump.
#[test]
fn retry_across_state_transfer_jump_is_reacked() {
    let mut gw = ClientGateway::<LogApp<u64>>::listen(
        "127.0.0.1:0".parse().unwrap(),
        GatewayConfig::default(),
    )
    .unwrap();
    let spec = paxos::<Batch<u64>>(1, 0, ProcessId::new(0)).unwrap();
    let mut replica =
        BatchingReplica::new(ProcessId::new(0), spec.params.clone(), 8, usize::MAX).unwrap();

    // The cluster's history this node never saw: commands 100, 200, 300
    // at slots 0..3, arriving as a folded snapshot (state transfer).
    let mut folder = Folder::<LogApp<u64>>::default();
    let history: Vec<AppliedSlot<u64>> = (0..3u64)
        .map(|slot| AppliedSlot {
            slot,
            offset: slot,
            batch: Batch::new(vec![100 * (slot + 1)]),
        })
        .collect();
    folder.absorb(&history, 3);
    let fs = folder.fold(8_192);
    assert_eq!(fs.applied_len, 3);
    assert!(replica.install_folded(&fs.dedup, fs.applied_len, 3));
    let manifest = SnapshotManifest::describe(3, fs.applied_len, &fs.app);
    gw.snapshot_installed(&manifest, &fs.app, &fs, &mut replica);

    // A client retries command 300 — committed below the jump, so the
    // replica's dedup swallows the resubmission.
    let mut conn = TcpStream::connect(gw.local_addr()).unwrap();
    write_frame(&mut conn, &ClientRequest::Submit { cmd: 300u64 }).unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let mut reack = None;
    for round in 1..200u64 {
        gw.before_round(round, &mut replica);
        if let Ok(resp) = read_frame::<_, ClientResponse<u64>>(&mut conn) {
            reack = Some(resp);
            break;
        }
    }
    assert_eq!(
        reack.expect("retry answered within the polling budget"),
        ClientResponse::Committed {
            cmd: 300,
            slot: 2,
            offset: 2,
            reply: None,
        },
        "the transferred dedup window must answer the retry (slot and \
         offset from the jump; reply unknown after a fold)"
    );
    assert_eq!(replica.applied_len(), 3, "no duplicate apply");

    // Fresh commands still flow normally above the jump.
    write_frame(&mut conn, &ClientRequest::Submit { cmd: 400u64 }).unwrap();
    let mut round = 200u64;
    while replica.applied_len() < 4 {
        round += 1;
        assert!(round < 5_000, "new command never committed after the jump");
        let before = replica.applied_len();
        drive_round(&mut gw, &mut replica, round);
        if replica.applied_len() == before && replica.queued() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let resp: ClientResponse<u64> = read_frame(&mut conn).unwrap();
    // The slot depends on how many empty rounds elapsed while the
    // submission drained through the conn reader; offset and reply are
    // what the jump must not disturb.
    let ClientResponse::Committed {
        cmd, offset, reply, ..
    } = resp
    else {
        panic!("expected a commit ack, got {resp:?}");
    };
    assert_eq!((cmd, offset, reply), (400, 3, Some(3)));
    gw.drain();
    assert_eq!(gw.applier().cursor(), 4);
    assert_eq!(gw.applier().app().len(), 4, "restored log + one applied");
}
