//! Snapshots: the applied prefix as one verifiable, transferable unit.
//!
//! A snapshot covers every slot below `upto_slot`: the record log below
//! that point can be compacted away, a restarting replica recovers the
//! prefix from the snapshot alone, and a laggard whose gap exceeds peers'
//! in-memory claim horizon installs a peer's snapshot over the transport
//! (`gencon-server`'s state-transfer path). The `state` bytes are opaque
//! to the store — the layer above encodes the applied `(command, slot)`
//! pairs with its own codec — but the SHA-256 `state_hash` is computed
//! here so every consumer verifies the same thing.
//!
//! # Invariant: a snapshot's hash matches its state
//!
//! [`Snapshot`]'s fields are private, and a value comes from one of two
//! places: [`Snapshot::new`], which hashes the state it is given, or a
//! store's read path, which checks the cut file's CRC and then the
//! SHA-256 before it hands the snapshot out. No code outside this crate
//! can change the state of a snapshot after either, so every `Snapshot`
//! in memory carries the hash of its own bytes, and
//! [`Log::install_snapshot`](crate::Log::install_snapshot) installs it
//! without hashing the state again. A periodic cut is hashed exactly
//! once, when it is built.

use gencon_crypto::Sha256;

use crate::Slot;

/// Fixed-size description of a snapshot (what peers compare during state
/// transfer before trusting the state bytes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SnapshotMeta {
    /// Every slot below this is covered by the snapshot.
    pub upto_slot: Slot,
    /// Applied commands the state encodes.
    pub applied_len: u64,
    /// SHA-256 of the state bytes.
    pub state_hash: [u8; 32],
}

/// A full snapshot: metadata plus the opaque encoded state, whose hash
/// the metadata carries (see the module docs).
///
/// ```
/// use gencon_store::Snapshot;
///
/// let snap = Snapshot::new(4, 10, b"state".to_vec());
/// assert_eq!(snap.meta().upto_slot, 4);
/// assert_eq!(snap.state(), b"state");
/// ```
///
/// The state cannot be changed behind the hash's back:
///
/// ```compile_fail
/// use gencon_store::Snapshot;
///
/// let mut snap = Snapshot::new(4, 10, b"state".to_vec());
/// snap.state[0] ^= 1;
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Snapshot {
    meta: SnapshotMeta,
    state: Vec<u8>,
}

impl Snapshot {
    /// Builds a snapshot over `state`, computing the state hash.
    #[must_use]
    pub fn new(upto_slot: Slot, applied_len: u64, state: Vec<u8>) -> Self {
        let meta = SnapshotMeta {
            upto_slot,
            applied_len,
            state_hash: state_hash(&state),
        };
        Snapshot { meta, state }
    }

    /// Rebuilds a snapshot read back from storage, or `None` if `state`
    /// does not hash to `meta.state_hash`.
    pub(crate) fn checked(meta: SnapshotMeta, state: Vec<u8>) -> Option<Self> {
        (state_hash(&state) == meta.state_hash).then_some(Snapshot { meta, state })
    }

    /// The verifiable description.
    #[must_use]
    pub fn meta(&self) -> SnapshotMeta {
        self.meta
    }

    /// The opaque encoded applied-prefix state.
    #[must_use]
    pub fn state(&self) -> &[u8] {
        &self.state
    }

    /// Consumes the snapshot, returning its state bytes.
    #[must_use]
    pub fn into_state(self) -> Vec<u8> {
        self.state
    }
}

/// SHA-256 of snapshot state bytes — the hash peers compare during state
/// transfer and recovery verifies after reading a snapshot cut file.
#[must_use]
pub fn state_hash(state: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(state);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_hashes_and_verifies() {
        let snap = Snapshot::new(7, 42, b"applied prefix".to_vec());
        assert_eq!(snap.meta().upto_slot, 7);
        assert_eq!(snap.meta().applied_len, 42);
        assert_eq!(snap.meta().state_hash, state_hash(b"applied prefix"));
        assert!(Snapshot::checked(snap.meta(), snap.state().to_vec()).is_some());
    }

    #[test]
    fn tampered_state_fails_verification() {
        let snap = Snapshot::new(7, 42, b"applied prefix".to_vec());
        let mut state = snap.state().to_vec();
        state[0] ^= 0x01;
        assert!(Snapshot::checked(snap.meta(), state).is_none());
    }

    #[test]
    fn empty_state_is_valid() {
        let snap = Snapshot::new(0, 0, Vec::new());
        assert!(Snapshot::checked(snap.meta(), Vec::new()).is_some());
    }
}
