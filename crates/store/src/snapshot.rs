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

/// A full snapshot: metadata plus the opaque encoded state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Snapshot {
    /// The verifiable description.
    pub meta: SnapshotMeta,
    /// Opaque encoded applied-prefix state.
    pub state: Vec<u8>,
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

    /// Whether the state bytes match the recorded hash.
    #[must_use]
    pub fn verify(&self) -> bool {
        state_hash(&self.state) == self.meta.state_hash
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
        assert_eq!(snap.meta.upto_slot, 7);
        assert_eq!(snap.meta.applied_len, 42);
        assert!(snap.verify());
    }

    #[test]
    fn tampered_state_fails_verification() {
        let mut snap = Snapshot::new(7, 42, b"applied prefix".to_vec());
        snap.state[0] ^= 0x01;
        assert!(!snap.verify());
    }

    #[test]
    fn empty_state_is_valid() {
        let snap = Snapshot::new(0, 0, Vec::new());
        assert!(snap.verify());
    }
}
