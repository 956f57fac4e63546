//! `gencon` — Generic Construction of Consensus Algorithms for Benign and
//! Byzantine Faults.
//!
//! A full Rust implementation of Rütti, Milosevic & Schiper (DSN 2010):
//! one generic consensus engine, four parameters (`FLV`, `Selector`, `TD`,
//! `FLAG`), three algorithm classes, and the complete catalog of
//! instantiations — OneThirdRule, FaB Paxos, Paxos, Chandra–Toueg, PBFT,
//! the paper's new MQB, and randomized Ben-Or — plus every substrate they
//! stand on: the closed-round model, communication predicates with real
//! `Pcons` implementations, a deterministic fault-injecting simulator, a
//! threaded TCP runtime, and a networked multi-slot SMR service
//! (`gencon-server`/`gencon-client`) with a real client protocol and a
//! pluggable application layer (`gencon-app`: kv store, bank, plain log)
//! whose folded state — not the command history — is the unit of
//! durability and chunked state transfer.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! names and offers a [`prelude`].
//!
//! # Quickstart
//!
//! ```
//! use gencon::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's new algorithm, MQB: Byzantine consensus with n > 4b.
//! let spec = gencon::algos::mqb::<u64>(5, 1)?;
//! let fleet = spec.spawn(&[3, 1, 4, 1, 5])?;
//!
//! // Simulate a synchronous run with one Byzantine-silent process.
//! let cfg = spec.params.cfg;
//! let mut sim = Simulation::builder(cfg);
//! let mut fleet = fleet.into_iter();
//! for _ in 0..4 {
//!     sim = sim.honest(fleet.next().unwrap());
//! }
//! let mut sim = sim
//!     .byzantine(gencon::adversary::Silent::<u64>::new(ProcessId::new(4)))
//!     .build()?;
//! let outcome = sim.run(30);
//! assert!(outcome.all_correct_decided);
//! assert!(properties::agreement(&outcome, |d| &d.value));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gencon_adversary as adversary;
pub use gencon_algos as algos;
pub use gencon_app as app;
pub use gencon_core as core;
pub use gencon_crypto as crypto;
pub use gencon_metrics as metrics;
pub use gencon_net as net;
pub use gencon_pcons as pcons;
pub use gencon_rounds as rounds;
pub use gencon_server as server;
pub use gencon_sim as sim;
pub use gencon_smr as smr;
pub use gencon_store as store;
pub use gencon_types as types;

/// The most common imports, in one line.
pub mod prelude {
    pub use gencon_core::{
        ChoicePolicy, ClassId, Decision, Flag, Flv, FlvOutcome, GenericConsensus, LivenessMode,
        Params, Selector, StateProfile,
    };
    pub use gencon_rounds::{Adversary, HeardOf, Outgoing, Predicate, RoundProcess};
    pub use gencon_sim::{
        properties, AlwaysGood, CrashAt, CrashPlan, DeliveryPlan, Gst, NetworkModel, Outcome,
        RandomSubset, Scripted, SimBuilder, SimError, Simulation,
    };
    pub use gencon_types::{Batch, Config, Phase, ProcessId, ProcessSet, Round, RoundKind, Value};
}
