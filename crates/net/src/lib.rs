//! Wire codec and threaded runtime for deploying `gencon` consensus over a
//! real network.
//!
//! Three layers:
//!
//! * [`wire`] — a hand-rolled, length-validated binary codec ([`Wire`])
//!   for every consensus message type (and anything else you implement it
//!   for);
//! * [`transport`] — sender-authenticated frame transports:
//!   [`ChannelTransport`] (in-process, crossbeam) and [`TcpTransport`]
//!   (localhost/LAN mesh with identity-pinned connections);
//! * [`runtime`] — [`run_node`]: real-time closed rounds with wall-clock
//!   deadlines, realizing the paper's partially synchronous model over an
//!   actual network (timely rounds are good periods, overloaded rounds are
//!   bad ones).
//!
//! # Example: a PBFT cluster on in-process channels
//!
//! ```
//! use gencon_algos::pbft;
//! use gencon_net::{run_node, ChannelTransport, NodeConfig};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = pbft::<u64>(4, 1)?;
//! let fleet = spec.spawn(&[5, 5, 5, 5])?;
//! let cfg = NodeConfig {
//!     round_timeout: Duration::from_millis(100),
//!     max_rounds: 20,
//!     linger_rounds: 2,
//! };
//! let handles: Vec<_> = fleet
//!     .into_iter()
//!     .zip(ChannelTransport::mesh(4))
//!     .map(|(p, t)| std::thread::spawn(move || run_node(p, t, cfg)))
//!     .collect();
//! for h in handles {
//!     assert_eq!(h.join().unwrap().unwrap().value, 5);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runtime;
pub mod transport;
pub mod wire;
mod wire_smr;
pub mod wire_sync;

pub use runtime::{run_node, NodeConfig};
pub use transport::{
    probe_free_addrs, ChannelTransport, DialPolicy, FlakyTransport, RecvHalf, TcpTransport,
    Transport, INBOX_CAP,
};
pub use wire::{Envelope, Wire, WireError};
pub use wire_sync::{
    decode_state, encode_folded, encode_state, AssemblyOutcome, ChunkAssembly, FoldedState,
    SnapshotManifest, SyncFrame, CHUNK_BYTES, MAX_CHUNKS,
};
