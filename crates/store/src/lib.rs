//! Durable storage for `gencon` replicated logs.
//!
//! Everything above this crate treats the committed log as a value in
//! memory; this crate is what lets a replica survive process death. It
//! provides the [`Log`] storage abstraction with two implementations:
//!
//! * [`MemStore`] — an in-memory store with the same durability *interface*
//!   (explicit sync points, an ack watermark) for simulations and unit
//!   tests of the integration glue;
//! * [`FileWal`] — a segmented append-only **write-ahead log**: one
//!   CRC32-framed record per committed slot, group-commit (fsync batched
//!   under a configurable interval), segment rollover, and recovery that
//!   replays segments in order and **truncates a torn tail** instead of
//!   failing — a `kill -9` mid-write loses at most the unsynced suffix,
//!   never the committed prefix.
//!
//! On top of the record log sits [`Snapshot`] support: a snapshot captures
//! the applied prefix (`upto_slot`, `applied_len`, a SHA-256 state hash and
//! the opaque encoded state), installs **atomically** (tmp file + rename),
//! and compacts every log segment below the snapshot point — so disk usage
//! is one snapshot plus the live tail, and the snapshot is also the unit of
//! **state transfer** to laggards whose gap exceeds peers' in-memory claim
//! horizon (see `gencon-server`).
//!
//! The payload format is opaque bytes: the store does not know about
//! batches or commands, only `(slot, payload)` records, so the layer above
//! chooses the codec (the server uses the `gencon-net` wire format).
//!
//! # Example
//!
//! ```
//! use gencon_store::{FileWal, Log, WalConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let dir = std::env::temp_dir().join(format!("gencon-wal-doc-{}", std::process::id()));
//! let (mut wal, recovery) = FileWal::open(&dir, WalConfig::default())?;
//! assert_eq!(recovery.records.len(), 0);
//! wal.append(0, b"first batch")?;
//! wal.append(1, b"second batch")?;
//! wal.sync()?;
//! assert_eq!(wal.durable_slot(), Some(1));
//! drop(wal);
//! // A reopened WAL replays exactly what was written.
//! let (_wal, recovery) = FileWal::open(&dir, WalConfig::default())?;
//! assert_eq!(recovery.records.len(), 2);
//! assert_eq!(recovery.records[1], (1, b"second batch".to_vec()));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mem;
mod snapshot;
mod wal;

pub use mem::MemStore;
pub use snapshot::{Snapshot, SnapshotMeta};
pub use wal::{FileWal, Recovery, WalConfig};

use std::io;

/// A log position (mirrors `gencon_smr::Slot` without the dependency).
pub type Slot = u64;

/// Durable storage for a replicated log: one opaque payload per committed
/// slot, explicit sync points, and snapshot install/compaction.
///
/// The contract every implementation upholds:
///
/// * `append` accepts only the next contiguous slot (`next_slot`); the
///   record is *staged* — it survives a process kill only after a sync
///   point (or, for [`MemStore`], by construction).
/// * `sync` makes every staged record durable; `maybe_sync` does the same
///   but only once the group-commit interval elapsed, so callers can
///   invoke it every round and get batched fsyncs.
/// * `durable_slot` is the ack watermark: the highest slot a crash cannot
///   lose. Commands applied in slots at or below it may be acknowledged
///   to clients under durable-ack semantics.
/// * `install_snapshot` atomically replaces the covered prefix and
///   compacts storage below `upto_slot`.
pub trait Log {
    /// Stages `payload` as the record of `slot`.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if `slot` is not [`Log::next_slot`]; otherwise the
    /// underlying I/O error.
    fn append(&mut self, slot: Slot, payload: &[u8]) -> io::Result<()>;

    /// Forces every staged record durable.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn sync(&mut self) -> io::Result<()>;

    /// Syncs iff records are staged and the group-commit interval elapsed
    /// since the last sync. Returns whether a sync happened.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn maybe_sync(&mut self) -> io::Result<bool>;

    /// The highest slot guaranteed to survive a crash (`None` while the
    /// store is empty and has no snapshot).
    fn durable_slot(&self) -> Option<Slot>;

    /// The next slot an append must carry.
    fn next_slot(&self) -> Slot;

    /// Metadata of the newest installed snapshot, if any.
    fn snapshot_meta(&self) -> Option<SnapshotMeta>;

    /// Metadata of every retained snapshot cut, oldest first. Stores
    /// that keep only one cut report at most one entry (the default).
    fn snapshot_metas(&self) -> Vec<SnapshotMeta> {
        self.snapshot_meta().into_iter().collect()
    }

    /// Reads the newest installed snapshot (state bytes included).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error; a missing snapshot is `None`.
    fn read_snapshot(&self) -> io::Result<Option<Snapshot>>;

    /// Reads the retained snapshot cut covering slots below `upto`, if
    /// that exact cut is still retained — the laggard-transfer path: a
    /// fetcher that started against a slightly older manifest can keep
    /// fetching after the server takes a newer cut.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error; an unretained cut is `None`.
    fn read_snapshot_at(&self, upto: Slot) -> io::Result<Option<Snapshot>> {
        match self.read_snapshot()? {
            Some(snap) if snap.meta().upto_slot == upto => Ok(Some(snap)),
            _ => Ok(None),
        }
    }

    /// Atomically installs `snap` and compacts records below
    /// `snap.meta().upto_slot`.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the snapshot would rewind the log; otherwise the
    /// underlying I/O error. The state is not hashed again: a
    /// [`Snapshot`]'s hash matches its state by construction.
    fn install_snapshot(&mut self, snap: &Snapshot) -> io::Result<()>;

    /// Total payload bytes appended over this handle's lifetime.
    fn bytes_appended(&self) -> u64;

    /// Sync points taken over this handle's lifetime.
    fn syncs(&self) -> u64;
}
