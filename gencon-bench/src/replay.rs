//! The traced run's no-network floor: the workload's command stream
//! replayed in lock step through four `BatchingReplica`s stepped by
//! `gencon_sim` (no sockets, no threads), with every outgoing bundle
//! encoded and decoded by the wire codec on the way and checked equal
//! after the round trip.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use gencon_app::KvCmd;
use gencon_net::wire_sync::SyncFrame;
use gencon_net::{Envelope, Wire};
use gencon_rounds::{HeardOf, Outgoing, Predicate, RoundProcess};
use gencon_sim::{RoundHook, Simulation};
use gencon_smr::{Batch, BatchingReplica, SmrMsg};
use gencon_types::{ProcessId, Round};

use crate::load::KvGen;
use crate::spec::{self, Workload};

type Msg = SmrMsg<Batch<KvCmd>>;

#[derive(Default)]
struct Codec {
    frames: AtomicU64,
    bytes: AtomicU64,
    encode_ns: AtomicU64,
    decode_ns: AtomicU64,
    mismatch: AtomicBool,
}

/// A replica whose outgoing bundle goes through the wire codec: the
/// peers receive the decoded copy, as they would over a socket.
struct Coded {
    replica: BatchingReplica<KvCmd>,
    codec: Arc<Codec>,
}

impl Coded {
    fn round_trip(&self, r: Round, msg: Msg) -> Msg {
        let frame = SyncFrame::Round(Envelope {
            sender: self.replica.id(),
            round: r,
            msg,
        });
        let t = Instant::now();
        let bytes = frame.to_bytes();
        let encoded = t.elapsed();
        let t = Instant::now();
        let decoded = SyncFrame::<Msg>::decode(&mut bytes.clone());
        let decode = t.elapsed();
        let c = &self.codec;
        c.frames.fetch_add(1, Relaxed);
        c.bytes.fetch_add(bytes.len() as u64, Relaxed);
        c.encode_ns.fetch_add(encoded.as_nanos() as u64, Relaxed);
        c.decode_ns.fetch_add(decode.as_nanos() as u64, Relaxed);
        match decoded {
            Ok(d) if d == frame => {}
            _ => c.mismatch.store(true, Relaxed),
        }
        match frame {
            SyncFrame::Round(env) => env.msg,
            _ => unreachable!("built as a round frame"),
        }
    }
}

impl RoundProcess for Coded {
    type Msg = Msg;
    type Output = Vec<KvCmd>;

    fn id(&self) -> ProcessId {
        self.replica.id()
    }

    fn requirement(&self, r: Round) -> Predicate {
        self.replica.requirement(r)
    }

    fn send(&mut self, r: Round) -> Outgoing<Msg> {
        match self.replica.send(r) {
            Outgoing::Broadcast(m) => Outgoing::Broadcast(self.round_trip(r, m)),
            Outgoing::Multicast { dests, msg } => Outgoing::Multicast {
                dests,
                msg: self.round_trip(r, msg),
            },
            other => other,
        }
    }

    fn receive(&mut self, r: Round, heard: &HeardOf<Msg>) {
        self.replica.receive(r, heard);
    }

    fn output(&self) -> Option<Vec<KvCmd>> {
        self.replica.output()
    }
}

/// Feeds the command stream into replica 0, keeping the closed-loop
/// window in flight.
struct Feeder {
    gen: KvGen,
    next_id: u64,
    total: u64,
}

impl RoundHook<Coded> for Feeder {
    fn before_send(&mut self, _r: Round, proc: &mut Coded) {
        let applied = proc.replica.applied_len() as u64;
        while self.next_id <= self.total
            && self.next_id - 1 - applied < spec::CLOSED_LOOP_INFLIGHT as u64
        {
            let (cmd, _) = self.gen.next(self.next_id);
            proc.replica.submit(cmd);
            self.next_id += 1;
        }
    }
}

pub struct Replay {
    pub cmds: u64,
    pub rounds: u64,
    /// Wall time of the whole replay, codec included.
    pub total_ns: u64,
    pub frames: u64,
    pub bytes: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
}

/// Replays the first `cmds` commands of `w`'s stream for `seed`.
pub fn run(w: &Workload, seed: u64, cmds: usize) -> Result<Replay, String> {
    let n = spec::CLUSTER_N;
    let spec_params =
        gencon_algos::pbft::<Batch<KvCmd>>(n, (n - 1) / 3).map_err(|e| e.to_string())?;
    let codec = Arc::new(Codec::default());
    let mut builder = Simulation::<Msg, Vec<KvCmd>>::builder(spec_params.params.cfg);
    for i in 0..n {
        let replica = BatchingReplica::new(
            ProcessId::new(i),
            spec_params.params.clone(),
            spec::BATCH_CAP,
            cmds,
        )
        .map_err(|e| e.to_string())?
        .with_window(spec::WINDOW)
        .with_dedup_horizon(spec::DEDUP_HORIZON);
        let coded = Coded {
            replica,
            codec: Arc::clone(&codec),
        };
        builder = if i == 0 {
            let feeder = Feeder {
                gen: KvGen::new(w, seed),
                next_id: 1,
                total: cmds as u64,
            };
            builder.honest_driven(coded, feeder)
        } else {
            builder.honest(coded)
        };
    }
    let mut sim = builder.build().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let outcome = sim.run(1_000_000);
    let total_ns = started.elapsed().as_nanos() as u64;
    if !outcome.all_correct_decided {
        return Err(format!(
            "the lock-step replay did not commit {cmds} commands"
        ));
    }
    if !gencon_sim::properties::agreement(&outcome, |log| log) {
        return Err("the lock-step replicas disagree on the log".into());
    }
    if codec.mismatch.load(Relaxed) {
        return Err("a bundle did not survive the wire round trip unchanged".into());
    }
    Ok(Replay {
        cmds: cmds as u64,
        rounds: outcome.rounds_executed,
        total_ns,
        frames: codec.frames.load(Relaxed),
        bytes: codec.bytes.load(Relaxed),
        encode_ns: codec.encode_ns.load(Relaxed),
        decode_ns: codec.decode_ns.load(Relaxed),
    })
}
