//! The in-memory [`Log`] implementation for simulations and unit tests.
//!
//! `MemStore` keeps the same *interface* contract as the file WAL —
//! records are staged by `append` and only move the durable watermark at a
//! sync point — so the durable-ack integration glue (watermark gating,
//! snapshot policy) can be tested without touching a filesystem. Unlike
//! [`FileWal`](crate::FileWal) there is no group-commit clock:
//! `maybe_sync` always syncs.

use std::io;

use crate::{Log, Slot, Snapshot, SnapshotMeta};

/// In-memory log storage with explicit sync points.
#[derive(Clone, Debug)]
pub struct MemStore {
    /// Retained records: `(slot, payload)`, contiguous from `first_slot`.
    records: Vec<(Slot, Vec<u8>)>,
    /// First retained slot (everything below was compacted into the
    /// snapshot).
    first_slot: Slot,
    next_slot: Slot,
    /// Highest slot covered by a sync point or snapshot.
    durable: Option<Slot>,
    /// Retained snapshot cuts, oldest first (the last is the newest —
    /// the compaction point), mirroring the file WAL's retention.
    snapshots: Vec<Snapshot>,
    snapshot_keep: usize,
    bytes_appended: u64,
    syncs: u64,
}

impl Default for MemStore {
    fn default() -> Self {
        MemStore {
            records: Vec::new(),
            first_slot: 0,
            next_slot: 0,
            durable: None,
            snapshots: Vec::new(),
            snapshot_keep: 2,
            bytes_appended: 0,
            syncs: 0,
        }
    }
}

impl MemStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Sets how many snapshot cuts are retained (minimum 1; default 2).
    #[must_use]
    pub fn with_snapshot_keep(mut self, keep: usize) -> Self {
        self.snapshot_keep = keep;
        self
    }

    /// The retained (not yet compacted) records.
    #[must_use]
    pub fn records(&self) -> &[(Slot, Vec<u8>)] {
        &self.records
    }
}

impl Log for MemStore {
    fn append(&mut self, slot: Slot, payload: &[u8]) -> io::Result<()> {
        if slot != self.next_slot {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("append slot {slot}, expected {}", self.next_slot),
            ));
        }
        self.records.push((slot, payload.to_vec()));
        self.bytes_appended += payload.len() as u64;
        self.next_slot += 1;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.next_slot > 0 && self.durable != Some(self.next_slot - 1) {
            self.durable = Some(self.next_slot - 1);
            self.syncs += 1;
        }
        Ok(())
    }

    fn maybe_sync(&mut self) -> io::Result<bool> {
        let before = self.durable;
        self.sync()?;
        Ok(self.durable != before)
    }

    fn durable_slot(&self) -> Option<Slot> {
        self.durable
    }

    fn next_slot(&self) -> Slot {
        self.next_slot
    }

    fn snapshot_meta(&self) -> Option<SnapshotMeta> {
        self.snapshots.last().map(|s| s.meta())
    }

    fn snapshot_metas(&self) -> Vec<SnapshotMeta> {
        self.snapshots.iter().map(|s| s.meta()).collect()
    }

    fn read_snapshot(&self) -> io::Result<Option<Snapshot>> {
        Ok(self.snapshots.last().cloned())
    }

    fn read_snapshot_at(&self, upto: Slot) -> io::Result<Option<Snapshot>> {
        Ok(self
            .snapshots
            .iter()
            .find(|s| s.meta().upto_slot == upto)
            .cloned())
    }

    fn install_snapshot(&mut self, snap: &Snapshot) -> io::Result<()> {
        let upto = snap.meta().upto_slot;
        if upto < self.first_slot {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot would rewind below the compaction point",
            ));
        }
        self.records.retain(|(s, _)| *s >= upto);
        self.first_slot = upto;
        self.next_slot = self.next_slot.max(upto);
        if upto > 0 {
            self.durable = Some(self.durable.map_or(upto - 1, |d| d.max(upto - 1)));
        }
        self.snapshots.retain(|s| s.meta().upto_slot != upto);
        self.snapshots.push(snap.clone());
        self.snapshots.sort_by_key(|s| s.meta().upto_slot);
        while self.snapshots.len() > self.snapshot_keep.max(1) {
            self.snapshots.remove(0);
        }
        Ok(())
    }

    fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    fn syncs(&self) -> u64 {
        self.syncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_is_contiguous_and_staged() {
        let mut store = MemStore::new();
        assert_eq!(store.next_slot(), 0);
        store.append(0, b"a").unwrap();
        store.append(1, b"bb").unwrap();
        assert!(store.append(3, b"skip").is_err(), "gaps rejected");
        assert_eq!(store.durable_slot(), None, "staged, not durable");
        assert!(store.maybe_sync().unwrap());
        assert_eq!(store.durable_slot(), Some(1));
        assert!(!store.maybe_sync().unwrap(), "nothing new to sync");
        assert_eq!(store.bytes_appended(), 3);
        assert_eq!(store.syncs(), 1);
    }

    #[test]
    fn snapshot_compacts_and_advances_watermark() {
        let mut store = MemStore::new();
        for slot in 0..6u64 {
            store.append(slot, &[slot as u8]).unwrap();
        }
        let snap = Snapshot::new(4, 10, b"state".to_vec());
        store.install_snapshot(&snap).unwrap();
        assert_eq!(store.records().len(), 2, "slots 4 and 5 retained");
        assert_eq!(store.durable_slot(), Some(3), "snapshot covers 0..4");
        assert_eq!(store.snapshot_meta().unwrap().applied_len, 10);
        assert_eq!(store.read_snapshot().unwrap().unwrap(), snap);
        // Appends continue from where they were.
        store.append(6, b"f").unwrap();
        assert_eq!(store.next_slot(), 7);
    }

    #[test]
    fn snapshot_ahead_of_log_fast_forwards_next_slot() {
        let mut store = MemStore::new();
        let snap = Snapshot::new(100, 400, b"transferred".to_vec());
        store.install_snapshot(&snap).unwrap();
        assert_eq!(store.next_slot(), 100);
        assert_eq!(store.durable_slot(), Some(99));
        store.append(100, b"resume").unwrap();
    }

    #[test]
    fn retention_keeps_the_last_k_cuts() {
        let mut store = MemStore::new().with_snapshot_keep(2);
        for cut in [2u64, 4, 6] {
            for slot in store.next_slot()..cut {
                store.append(slot, &[slot as u8]).unwrap();
            }
            store
                .install_snapshot(&Snapshot::new(cut, cut, format!("s{cut}").into_bytes()))
                .unwrap();
        }
        assert_eq!(
            store
                .snapshot_metas()
                .iter()
                .map(|m| m.upto_slot)
                .collect::<Vec<_>>(),
            vec![4, 6]
        );
        assert_eq!(store.read_snapshot().unwrap().unwrap().state(), b"s6");
        assert_eq!(store.read_snapshot_at(4).unwrap().unwrap().state(), b"s4");
        assert!(store.read_snapshot_at(2).unwrap().is_none(), "pruned");
    }
}
