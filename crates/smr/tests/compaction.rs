//! Bounded-memory regression tests: a long-running replica that snapshots
//! and compacts periodically keeps its resident state flat, recovery
//! replay rebuilds the exact log, and a folded snapshot install
//! fast-forwards a fresh replica — all without breaking agreement.

use gencon_algos::pbft;
use gencon_rounds::{HeardOf, Outgoing, RoundProcess};
use gencon_smr::{Batch, BatchingReplica};
use gencon_types::{ProcessId, Round};

const N: usize = 4;

/// Drives `n` replicas one lock-step round, all-to-all delivery.
fn step(replicas: &mut [BatchingReplica<u64>], r: u64) {
    let round = Round::new(r);
    let msgs: Vec<_> = replicas.iter_mut().map(|rep| rep.send(round)).collect();
    let mut heard: HeardOf<_> = HeardOf::empty(replicas.len());
    for (i, out) in msgs.into_iter().enumerate() {
        if let Outgoing::Broadcast(m) = out {
            heard.put(ProcessId::new(i), m);
        }
    }
    for rep in replicas.iter_mut() {
        rep.receive(round, &heard);
    }
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

fn cluster(cap: usize, horizon: u64) -> Vec<BatchingReplica<u64>> {
    let spec = pbft::<Batch<u64>>(N, 1).unwrap();
    (0..N)
        .map(|i| {
            BatchingReplica::new(ProcessId::new(i), spec.params.clone(), cap, usize::MAX)
                .unwrap()
                .with_window(2)
                .with_dedup_horizon(horizon)
        })
        .collect()
}

/// The headline regression: with periodic snapshot + compaction, resident
/// state (applied suffix, committed batches, dedup sets) stays flat while
/// the log grows without bound.
#[test]
fn compacted_replica_resident_state_stays_flat() {
    const HORIZON: u64 = 32;
    const SNAPSHOT_EVERY: u64 = 40;
    let mut replicas = cluster(4, HORIZON);
    let mut next_cmd = 0u64;
    let mut high_water = (0usize, 0usize, 0usize);
    let mut compactions = 0u32;
    for r in 1..=1_500u64 {
        // A steady trickle of fresh commands at every replica.
        for rep in replicas.iter_mut() {
            rep.submit(next_cmd);
            next_cmd += 1;
        }
        step(&mut replicas, r);
        for rep in replicas.iter_mut() {
            // Snapshot policy: every SNAPSHOT_EVERY committed slots,
            // compact below the snapshot point (keeping a short tail, as
            // the durable layer does, so freshly committed state stays
            // answerable).
            let committed = rep.committed_slots() as u64;
            if committed >= rep.committed_base_slot() + SNAPSHOT_EVERY {
                rep.compact_below(committed.saturating_sub(16));
                compactions += 1;
            }
        }
        if r > 300 {
            for rep in &replicas {
                high_water.0 = high_water.0.max(rep.applied_len() - rep.applied_base());
                high_water.1 = high_water.1.max(rep.committed_batches().len());
                high_water.2 = high_water.2.max(rep.seen_len());
            }
        }
    }
    assert!(compactions > 10, "the compaction path must actually run");
    let total = replicas[0].applied_len();
    assert!(total > 2_000, "the log must keep growing (got {total})");
    // Flat: the retained state is a small multiple of per-snapshot churn,
    // not of the total log length.
    assert!(
        high_water.0 < total / 4,
        "applied suffix high-water {} vs total {total}: not flat",
        high_water.0
    );
    assert!(
        high_water.1 < 2 * SNAPSHOT_EVERY as usize,
        "committed batches high-water {} : not flat",
        high_water.1
    );
    // seen is bounded by the dedup horizon's worth of commands plus the
    // live queue, far below the total log.
    assert!(
        high_water.2 < total / 4,
        "seen high-water {} vs total {total}: not flat",
        high_water.2
    );
    // Agreement is untouched by replica-local compaction times: compare
    // overlapping applied suffixes via absolute offsets.
    let reference = &replicas[0];
    for rep in &replicas[1..] {
        let lo = reference.applied_base().max(rep.applied_base()) as u64;
        let hi = reference.applied_len().min(rep.applied_len()) as u64;
        assert!(hi > lo, "suffixes must overlap");
        assert_eq!(
            log_range(reference, lo, hi),
            log_range(rep, lo, hi),
            "divergence in absolute offsets {lo}..{hi}"
        );
    }
}

/// WAL-style replay rebuilds exactly the same applied log the original
/// replica had, slot by slot. No command commits twice here, so every
/// applied slot holds the committed batch itself, not a copy.
#[test]
fn replay_committed_rebuilds_the_log() {
    let mut replicas = cluster(3, 1_000);
    for rep in replicas.iter_mut() {
        rep.submit_all(0..24u64);
    }
    for r in 1..=80u64 {
        step(&mut replicas, r);
    }
    let original = &replicas[0];
    assert!(original.applied_len() >= 24);

    let spec = pbft::<Batch<u64>>(N, 1).unwrap();
    let mut recovered =
        BatchingReplica::new(ProcessId::new(0), spec.params.clone(), 3, usize::MAX).unwrap();
    for batch in original.committed_batches() {
        recovered.replay_committed(batch.clone());
    }
    assert_eq!(recovered.applied_from(0), original.applied_from(0));
    assert_eq!(recovered.committed_slots(), original.committed_slots());
    for rep in [original, &recovered] {
        for s in rep.applied_from(0) {
            let batch = &original.committed_batches()[s.slot as usize];
            assert!(
                std::ptr::eq(s.batch.commands().as_ptr(), batch.commands().as_ptr()),
                "slot {} copied its batch",
                s.slot
            );
        }
    }
}

/// A folded snapshot install fast-forwards a fresh replica past a
/// compacted gap and further replay continues from the snapshot point.
#[test]
fn install_snapshot_fast_forwards_and_replay_continues() {
    let mut replicas = cluster(3, 1_000);
    for rep in replicas.iter_mut() {
        rep.submit_all(100..130u64);
    }
    for r in 1..=80u64 {
        step(&mut replicas, r);
    }
    let donor = &replicas[0];
    let slots = donor.committed_slots() as u64;
    assert!(slots >= 4);
    let cut = slots / 2;
    // The state-transfer resume data: the applied `(command, slot)`
    // pairs below `cut` (the horizon keeps every one live) and their count.
    let pairs: Vec<(u64, u64)> = donor
        .applied_from(0)
        .iter()
        .filter(|s| s.slot < cut)
        .flat_map(|s| s.batch.iter().map(move |&c| (c, s.slot)))
        .collect();
    let applied_len = pairs.len() as u64;

    let spec = pbft::<Batch<u64>>(N, 1).unwrap();
    let mut laggard =
        BatchingReplica::new(ProcessId::new(3), spec.params.clone(), 3, usize::MAX).unwrap();
    assert!(laggard.install_folded(&pairs, applied_len, cut));
    assert!(
        !laggard.install_folded(&pairs, applied_len, cut),
        "a second install of the same snapshot is a no-op"
    );
    assert_eq!(laggard.committed_slots() as u64, cut);
    assert_eq!(laggard.applied_len() as u64, applied_len);
    // Replay the rest like WAL records: logs converge exactly.
    for batch in &donor.committed_batches()[cut as usize..] {
        laggard.replay_committed(batch.clone());
    }
    assert_eq!(laggard.applied_from(0), donor.applied_from(applied_len));
    assert_eq!(laggard.applied_len(), donor.applied_len());
}
