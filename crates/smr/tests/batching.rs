//! Property tests for the batch commit path: a batched run's flattened
//! committed log equals the unbatched run's log on the same client stream,
//! honest replicas commit identical logs under partial synchrony with
//! crashes, and client retries apply at most once per dedup horizon.

use proptest::prelude::*;

use gencon_algos::{paxos, pbft};
use gencon_rounds::{HeardOf, Outgoing, RoundProcess};
use gencon_sim::{properties, CrashAt, CrashPlan, Gst, Simulation};
use gencon_smr::{Batch, BatchingReplica, Replica};
use gencon_types::{ProcessId, Round};

/// A client stream: commands are distinct (as real client requests are)
/// and ordered, shared by every replica (clients broadcast submissions).
fn stream() -> impl Strategy<Value = Vec<u64>> {
    (1usize..24).prop_flat_map(|len| {
        proptest::collection::vec(1u64..1000, len..=len).prop_map(|v| {
            // Make commands distinct while preserving generation order.
            v.into_iter()
                .enumerate()
                .map(|(i, x)| x * 1000 + i as u64)
                .collect()
        })
    })
}

/// Runs the *unbatched* replicated log on `stream` and returns the
/// committed log (one command per slot).
fn run_unbatched(spec: &gencon_algos::AlgorithmSpec<u64>, stream: &[u64]) -> Vec<u64> {
    let mut builder = Simulation::builder(spec.params.cfg);
    for i in 0..spec.params.cfg.n() {
        let r = Replica::new(
            ProcessId::new(i),
            spec.params.clone(),
            stream.to_vec(),
            0,
            stream.len(),
        )
        .unwrap();
        builder = builder.honest(r);
    }
    let out = builder.build().unwrap().run(40 + 3 * stream.len() as u64);
    assert!(out.all_correct_decided, "unbatched run must terminate");
    out.outputs[0].clone().unwrap()
}

/// Runs the *batched* replicated log on the same stream and returns the
/// flattened applied log.
fn run_batched(
    spec: &gencon_algos::AlgorithmSpec<Batch<u64>>,
    stream: &[u64],
    cap: usize,
) -> Vec<u64> {
    let mut builder = Simulation::builder(spec.params.cfg);
    for i in 0..spec.params.cfg.n() {
        let mut r = BatchingReplica::new(ProcessId::new(i), spec.params.clone(), cap, stream.len())
            .unwrap();
        r.submit_all(stream.iter().copied());
        builder = builder.honest(r);
    }
    let out = builder.build().unwrap().run(40 + 3 * stream.len() as u64);
    assert!(out.all_correct_decided, "batched run must terminate");
    out.outputs[0].clone().unwrap()
}

proptest! {
    /// **Batching transparency**: on the same client stream, the batched
    /// log flattens to exactly the unbatched log — batching changes slot
    /// packing, never the applied command sequence.
    #[test]
    fn batched_log_equals_unbatched_log(cmds in stream(), cap in 1usize..10) {
        let unbatched = run_unbatched(&pbft::<u64>(4, 1).unwrap(), &cmds);
        let batched = run_batched(&pbft::<Batch<u64>>(4, 1).unwrap(), &cmds, cap);
        prop_assert_eq!(&unbatched, &cmds);
        prop_assert_eq!(&batched, &unbatched);
    }

    /// Same transparency for the benign leader-based entry.
    #[test]
    fn paxos_batched_log_equals_unbatched_log(cmds in stream(), cap in 1usize..6) {
        let unbatched = run_unbatched(&paxos::<u64>(3, 1, ProcessId::new(0)).unwrap(), &cmds);
        let batched = run_batched(
            &paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap(),
            &cmds,
            cap,
        );
        prop_assert_eq!(&batched, &unbatched);
    }

    /// **Agreement under faults**: all honest replicas commit identical
    /// flattened logs under partial synchrony (random GST, loss, seed)
    /// with a crash, and the committed commands come from the stream.
    #[test]
    fn honest_logs_agree_under_gst_with_crashes(
        cmds in stream(),
        cap in 1usize..8,
        gst in 2u64..14,
        loss_pct in 10u64..80,
        seed in 0u64..500,
        crash_round in 2u64..12,
        partial in 0usize..3,
    ) {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let mut builder = Simulation::builder(spec.params.cfg);
        for i in 0..3 {
            let mut r = BatchingReplica::new(
                ProcessId::new(i),
                spec.params.clone(),
                cap,
                cmds.len(),
            )
            .unwrap();
            r.submit_all(cmds.iter().copied());
            builder = builder.honest(r);
        }
        // Crash a non-leader replica (the stable leader must survive for
        // post-GST liveness).
        let crashes = CrashPlan::none().with(
            ProcessId::new(2),
            CrashAt::mid_send(Round::new(crash_round), partial),
        );
        let out = builder
            .network(Gst::new(gst, loss_pct as f64 / 100.0, seed))
            .crashes(crashes)
            .build()
            .unwrap()
            .run(gst + 80 + 4 * cmds.len() as u64);
        prop_assert!(out.all_correct_decided, "correct replicas terminate");
        prop_assert!(properties::agreement(&out, |log| log), "identical logs");
        let log = out.outputs[0].as_ref().unwrap();
        for c in log {
            prop_assert!(cmds.contains(c), "committed command {c} from the stream");
        }
    }
}

/// One lock-step round with every bundle delivered to every replica.
fn lockstep(replicas: &mut [BatchingReplica<u64>], round: u64) {
    let r = Round::new(round);
    let mut heard: HeardOf<_> = HeardOf::empty(replicas.len());
    for (i, rep) in replicas.iter_mut().enumerate() {
        if let Outgoing::Broadcast(m) = rep.send(r) {
            heard.put(ProcessId::new(i), m);
        }
    }
    for rep in replicas.iter_mut() {
        rep.receive(r, &heard);
    }
}

/// `(slot, offset, cmd)` for every command a replica applied, in order.
fn applied(rep: &BatchingReplica<u64>) -> Vec<(u64, u64, u64)> {
    rep.applied_from(0)
        .iter()
        .flat_map(|s| s.commands_from(0).map(|(o, &c)| (s.slot, o, c)))
        .collect()
}

proptest! {
    /// **Retries**: clients resubmit commands drawn with repeats at random
    /// replicas, before and after their commit, within and beyond a small
    /// dedup horizon. Honest applied logs are equal; a command applies at
    /// most once within any horizon window; `applied_at` agrees on every
    /// replica and with the applied log; and `submit` refuses a command
    /// exactly when that replica still relays, holds or has applied it —
    /// with every bundle delivered, a command accepted anywhere in an
    /// earlier round (or at this replica this round) is held everywhere
    /// until it applies.
    #[test]
    fn retries_apply_at_most_once_per_horizon(
        rounds in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 1u64..25), 0..3),
            40..70,
        ),
        horizon in 1u64..6,
        window in 1usize..4,
        cap in 1usize..4,
    ) {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let mut replicas: Vec<BatchingReplica<u64>> = (0..4)
            .map(|i| {
                BatchingReplica::new(ProcessId::new(i), spec.params.clone(), cap, usize::MAX)
                    .unwrap()
                    .with_window(window)
                    .with_dedup_horizon(horizon)
            })
            .collect();
        // Per command: the rounds it was accepted in, and per replica the
        // round its latest application was seen.
        let mut accepted: std::collections::HashMap<u64, Vec<(u64, usize)>> =
            std::collections::HashMap::new();
        let mut applied_round = vec![std::collections::HashMap::<u64, u64>::new(); 4];
        let quiet = 40;
        for round in 1..=rounds.len() as u64 + quiet {
            let subs = rounds.get(round as usize - 1).map_or(&[][..], |v| &v[..]);
            for &(i, cmd) in subs {
                let last_applied = applied_round[i].get(&cmd).copied();
                let pending = accepted.get(&cmd).is_some_and(|acc| {
                    acc.iter().any(|&(r, j)| {
                        (r < round || j == i) && last_applied.is_none_or(|a| r > a)
                    })
                });
                let known = pending || replicas[i].applied_at(&cmd).is_some();
                let fresh = replicas[i].submit(cmd);
                prop_assert!(
                    fresh != known,
                    "submit of {cmd} at replica {i} in round {round} returned {fresh}"
                );
                if !known {
                    accepted.entry(cmd).or_default().push((round, i));
                }
            }
            let before: Vec<usize> = replicas.iter().map(BatchingReplica::applied_len).collect();
            lockstep(&mut replicas, round);
            for (i, rep) in replicas.iter().enumerate() {
                for (_, _, c) in applied(rep).into_iter().skip(before[i]) {
                    applied_round[i].insert(c, round);
                }
            }
            // `applied_at` follows from the log: the latest application of
            // a command, unless its slot fell out of the horizon.
            for rep in &replicas {
                let log = applied(rep);
                let last_flattened = rep.committed_slots() as u64;
                for cmd in 1u64..25 {
                    let want = log
                        .iter()
                        .rev()
                        .find(|&&(_, _, c)| c == cmd)
                        .filter(|&&(slot, _, _)| slot + horizon + 1 >= last_flattened)
                        .map(|&(slot, offset, _)| (slot, offset));
                    let got = rep.applied_at(&cmd);
                    prop_assert!(got == want, "applied_at({cmd}) = {got:?}, log says {want:?}");
                }
            }
        }
        let log = applied(&replicas[0]);
        for rep in &replicas[1..] {
            prop_assert!(applied(rep) == log, "honest applied logs are equal");
            for cmd in 1u64..25 {
                prop_assert_eq!(rep.applied_at(&cmd), replicas[0].applied_at(&cmd));
            }
        }
        for (k, &(slot, _, cmd)) in log.iter().enumerate() {
            for &(later, _, c) in &log[k + 1..] {
                prop_assert!(
                    c != cmd || later > slot + horizon,
                    "{} applied at slots {} and {} within horizon {}",
                    cmd,
                    slot,
                    later,
                    horizon
                );
            }
        }
        for cmd in accepted.keys() {
            prop_assert!(log.iter().any(|&(_, _, c)| c == *cmd), "{} applied", cmd);
        }
    }
}

/// Deterministic end-to-end check of the 4× batching throughput claim
/// at the test tier.
#[test]
fn batching_amortizes_rounds_per_command() {
    let spec = pbft::<Batch<u64>>(4, 1).unwrap();
    let cmds: Vec<u64> = (0..32).collect();
    let mut rounds = Vec::new();
    for cap in [1usize, 8] {
        let mut builder = Simulation::builder(spec.params.cfg);
        for i in 0..4 {
            let mut r =
                BatchingReplica::new(ProcessId::new(i), spec.params.clone(), cap, cmds.len())
                    .unwrap();
            r.submit_all(cmds.iter().copied());
            builder = builder.honest(r);
        }
        let out = builder.build().unwrap().run(400);
        assert!(out.all_correct_decided);
        rounds.push(out.rounds_executed);
    }
    assert!(
        rounds[1] * 4 <= rounds[0],
        "cap 8 ({} rounds) must be ≥ 4× faster than cap 1 ({} rounds)",
        rounds[1],
        rounds[0]
    );
}
