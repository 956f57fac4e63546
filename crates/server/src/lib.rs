//! `gencon-server` — the networked multi-slot SMR service.
//!
//! Everything below `gencon-smr` treats the replicated log as a value in
//! memory; this crate is the layer that *serves* it: an event-loop node
//! that drives a [`BatchingReplica`](gencon_smr::BatchingReplica)
//! slot-by-slot over any [`Transport`](gencon_net::Transport) with
//! wall-clock round pacing and adaptive deadlines, plus a client-facing
//! protocol (submit a command → get a committed ack with its slot and log
//! offset, or a backpressure/redirect bounce) and the two binaries that
//! turn a shell into a cluster:
//!
//! ```text
//! gencon-client ──Submit{cmd}──► ClientGateway ─┐ (NodeHook)
//!                                               ▼
//!           ┌──────── run_smr_node_observed event loop ──────┐
//!           │ drain clients → replica.send → mesh broadcast  │
//!           │ collect ≤ AdaptiveDeadline → replica.receive   │
//!           │ ack applied commands ◄─ applied log grows      │
//!           └────────────────────────────────────────────────┘
//!                  ▲ SmrMsg<Batch<V>> frames over Tcp/Channel
//! ```
//!
//! Launch a 4-node PBFT cluster on localhost:
//!
//! ```bash
//! for i in 0 1 2 3; do
//!   cargo run --release -p gencon_server --bin gencon-server -- \
//!     --id $i --algo pbft \
//!     --peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 \
//!     --client-addr 127.0.0.1:700$i &
//! done
//! cargo run --release -p gencon_server --bin gencon-client -- \
//!   --server 127.0.0.1:7000 --clients 8 --outstanding 16 --count 10000
//! ```
//!
//! A node that restarts (or falls arbitrarily far behind) rejoins by
//! **round fast-forward** (`b + 1` senders ahead prove the cluster's round)
//! and then recommits the missed prefix via the `b + 1`-concordant decision
//! claims of `gencon-smr` — see the crate's integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod cli;
mod config;
mod deadline;
mod durable;
mod gateway;
pub mod mon;
mod node;
pub mod protocol;

pub use admin::{spawn_admin, AdminState, ADMIN_IO_TIMEOUT};
pub use config::ServerConfig;
pub use deadline::AdaptiveDeadline;
pub use durable::{recover_replica, DurableConfig, DurableNode, RecoveredState};
pub use gateway::{ClientGateway, GatewayConfig};
pub use node::{
    run_smr_node_observed, NoHook, NodeHook, NodeStats, CHUNKS_SERVED_PER_SENDER_PER_ROUND,
    CHUNK_REQUESTS_PER_ROUND, FUTURE_HORIZON, LIVENESS_GRACE, SNAPSHOT_GAP_MIN,
    SNAPSHOT_PROBE_AFTER,
};
pub use protocol::{read_frame, write_frame, ClientRequest, ClientResponse};
