//! The append-everything application: the state *is* the history.
//!
//! `LogApp` reproduces the pre-application-layer behavior (PR 4), where a
//! snapshot enumerated every applied `(command, slot)` pair: its folded
//! state grows with the log, so snapshots cost O(history) — the mode the
//! compact applications exist to escape, preserved both for comparison
//! (experiment E11 plots the two curves against each other) and for
//! every test that asserts on raw applied logs.

use gencon_net::wire_sync::{decode_state, encode_state};
use gencon_net::Wire;
use gencon_types::Value;

use crate::{App, AppError};

/// The full-history state machine (see the module docs). The reply to
/// each command is its absolute log offset.
#[derive(Clone, Debug)]
pub struct LogApp<V> {
    log: Vec<(V, u64)>,
}

impl<V> Default for LogApp<V> {
    fn default() -> Self {
        LogApp { log: Vec::new() }
    }
}

impl<V: Value + Wire> LogApp<V> {
    /// The applied `(command, slot)` pairs, in apply order.
    #[must_use]
    pub fn log(&self) -> &[(V, u64)] {
        &self.log
    }

    /// Applied commands held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether nothing has been applied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Deterministic hash of the first `n` applied pairs (`None` until
    /// `n` commands have been applied) — the cross-replica agreement
    /// check over a *prefix*, which this full-history app can answer even
    /// after restoring from a snapshot (compact apps cannot rewind).
    #[must_use]
    pub fn prefix_hash(&self, n: usize) -> Option<[u8; 32]> {
        (self.log.len() >= n).then(|| gencon_crypto::sha256(&encode_state(&self.log[..n])))
    }
}

impl<V: Value + Wire> App for LogApp<V> {
    type Cmd = V;
    type Reply = u64;

    const NAME: &'static str = "log";

    fn apply(&mut self, slot: u64, offset: u64, cmd: &V) -> u64 {
        debug_assert_eq!(offset as usize, self.log.len(), "applies arrive in order");
        self.log.push((cmd.clone(), slot));
        offset
    }

    fn fold_snapshot(&self) -> Vec<u8> {
        encode_state(&self.log)
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), AppError> {
        self.log = decode_state(state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_is_the_history() {
        let mut app = LogApp::<u64>::default();
        for i in 0..10u64 {
            assert_eq!(app.apply(i / 2, i, &(i * 11)), i);
        }
        assert_eq!(app.len(), 10);
        let folded = app.fold_snapshot();
        let mut back = LogApp::<u64>::default();
        back.restore(&folded).unwrap();
        assert_eq!(back.log(), app.log());
        assert_eq!(back.state_hash(), app.state_hash());
        // The fold grows with history — the O(history) mode, on purpose.
        let small = LogApp::<u64>::default().fold_snapshot();
        assert!(folded.len() > small.len());
    }

    #[test]
    fn prefix_hash_survives_restore() {
        let mut app = LogApp::<u64>::default();
        for i in 0..8u64 {
            app.apply(i, i, &i);
        }
        let h5 = app.prefix_hash(5).unwrap();
        let mut restored = LogApp::<u64>::default();
        restored.restore(&app.fold_snapshot()).unwrap();
        assert_eq!(restored.prefix_hash(5).unwrap(), h5);
        assert!(app.prefix_hash(9).is_none());
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut app = LogApp::<u64>::default();
        app.apply(0, 0, &7);
        let folded = app.fold_snapshot();
        for cut in 0..folded.len() {
            assert!(app.restore(&folded[..cut]).is_err());
        }
        assert_eq!(app.log(), &[(7, 0)], "failed restore is a no-op");
    }
}
