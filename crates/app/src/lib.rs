//! Pluggable replicated state machines for `gencon` — the application
//! layer of the SMR stack.
//!
//! Everything below this crate agrees on a *log*; this crate is what the
//! log **means**. An [`App`] deterministically applies each committed
//! command, produces the [`App::Reply`] a client gets back with its
//! commit ack, and — the part that unlocks production scale — **folds**
//! its entire state into a compact snapshot: `fold_snapshot()` is
//! O(live state), not O(history), so periodic durability snapshots and
//! laggard state transfer stop paying for the log's age (PR 4 snapshotted
//! the full applied history and capped out near 1M commands; see
//! `LogApp` for that mode, preserved as just another `App`).
//!
//! Three applications ship:
//!
//! * [`KvApp`] — an ordered key-value store (put/get/del/cas) whose
//!   state is the live key set: the workhorse for end-to-end service
//!   benchmarks (experiment E11);
//! * [`BankApp`] — accounts with mint/transfer and a conservation
//!   invariant (`Σ balances == minted`), the cross-node consistency
//!   canary: any divergence in apply order breaks the invariant loudly;
//! * [`LogApp`] — the append-everything state machine: its folded state
//!   *is* the applied history, reproducing the pre-application-layer
//!   behavior (and its O(history) snapshot cost) for comparison and for
//!   tests that assert on raw logs.
//!
//! [`Applier`] and [`Folder`] are the two drive modes the server stack
//! uses: an `Applier` runs *live* (applies every command the moment it
//! flattens, for client replies), a `Folder` lags at snapshot-boundary
//! cuts so every replica folds the byte-identical
//! [`FoldedState`](gencon_net::FoldedState) for `b + 1`-vouched chunked
//! state transfer.
//!
//! # Determinism contract
//!
//! For every `App`: `apply` must be a pure function of (current state,
//! slot, offset, command); `fold_snapshot` must be a pure function of the
//! state (identical states fold to identical bytes — iteration order
//! must be canonical); `restore(fold_snapshot())` must reproduce the
//! state exactly. [`App::state_hash`] (SHA-256 over the folded bytes by
//! default) is the cross-replica agreement check built on that contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod fold;
mod kv;
mod log;

pub use bank::{BankApp, BankCmd, BankOp, BankReply};
pub use fold::{Applier, Folder};
pub use kv::{KvApp, KvCmd, KvOp, KvReply};
pub use log::LogApp;

use gencon_net::wire::{Wire, WireError};
use gencon_types::Value;

/// Why an [`App::restore`] rejected a folded state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppError {
    /// The state bytes do not decode as this application's fold format.
    Decode(WireError),
    /// The bytes decode but violate an application invariant.
    Invalid(&'static str),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Decode(e) => write!(f, "undecodable app state: {e}"),
            AppError::Invalid(why) => write!(f, "invalid app state: {why}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<WireError> for AppError {
    fn from(e: WireError) -> Self {
        AppError::Decode(e)
    }
}

/// A replicated state machine: the deterministic meaning of the log.
///
/// `Default` is the genesis state — every replica starts identical and
/// all state is a function of the applied command sequence (seeding
/// happens through commands, e.g. [`BankOp::Mint`]). See the crate docs
/// for the determinism contract.
pub trait App: Clone + Default + Send + 'static {
    /// The command type clients submit (must be globally unique per
    /// logical request — carry a client-assigned id — because the SMR
    /// layer deduplicates retries by value).
    type Cmd: Value + Wire;

    /// What a client gets back with its commit ack.
    type Reply: Clone + PartialEq + Eq + std::fmt::Debug + Send + Wire + 'static;

    /// A short label for experiment rows and CLI flags.
    const NAME: &'static str;

    /// Applies the command committed in `slot` at absolute log `offset`,
    /// returning the client-visible reply. Must be deterministic.
    fn apply(&mut self, slot: u64, offset: u64, cmd: &Self::Cmd) -> Self::Reply;

    /// Folds the **entire current state** into compact, canonical bytes
    /// — O(live state). Identical states must fold identically.
    fn fold_snapshot(&self) -> Vec<u8>;

    /// Replaces the state with a previously folded one.
    ///
    /// # Errors
    ///
    /// [`AppError`] when the bytes are not a valid fold; the state must
    /// be left untouched in that case.
    fn restore(&mut self, state: &[u8]) -> Result<(), AppError>;

    /// Deterministic hash of the state — the cross-replica agreement
    /// check. Default: SHA-256 over [`App::fold_snapshot`].
    fn state_hash(&self) -> [u8; 32] {
        gencon_crypto::sha256(&self.fold_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = AppError::from(WireError::UnexpectedEof);
        assert!(e.to_string().contains("undecodable"));
        assert!(AppError::Invalid("sum").to_string().contains("invalid"));
    }
}
