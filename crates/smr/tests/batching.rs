//! Property tests for the batch commit path: a batched run's flattened
//! committed log equals the unbatched run's log on the same client stream,
//! and honest replicas commit identical logs under partial synchrony with
//! crashes.

use proptest::prelude::*;

use gencon_algos::{paxos, pbft};
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
