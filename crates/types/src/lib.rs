//! Foundation types for the `gencon` consensus framework.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: [`ProcessId`] and [`ProcessSet`] (the set Π of the paper),
//! [`Round`]/[`Phase`]/[`RoundKind`] (the closed-round structure of §3.1),
//! [`Config`] (the system parameters n, f, b of §2.1) and the exact integer
//! quorum arithmetic used by every threshold condition in the paper.
//!
//! # Example
//!
//! ```
//! use gencon_types::{Config, ProcessId, ProcessSet};
//!
//! # fn main() -> Result<(), gencon_types::ConfigError> {
//! // A Byzantine system with n = 4, b = 1 (PBFT's n = 3b + 1).
//! let cfg = Config::byzantine(4, 1)?;
//! assert_eq!(cfg.n(), 4);
//! assert!(cfg.honest_minimum() == 3);
//!
//! let all: ProcessSet = cfg.all_processes();
//! assert_eq!(all.len(), 4);
//! assert!(all.contains(ProcessId::new(2)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod config;
mod process;
pub mod quorum;
mod round;
mod value;

pub use batch::{group_by_slot, AppliedSlot, Batch};
pub use config::{Config, ConfigError};
pub use process::{ProcessId, ProcessSet, ProcessSetIter, MAX_PROCESSES};
pub use round::{Phase, Round, RoundKind};
pub use value::{decode_cmd, encode_cmd, Value};
