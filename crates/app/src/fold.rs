//! The two drive modes that connect an [`App`] to the replicated log.
//!
//! * [`Applier`] — the **live** instance: applies every command the
//!   moment the SMR layer flattens it, producing the client replies and
//!   (optionally) capturing the state hash at an exact applied-command
//!   count for cross-node agreement checks.
//! * [`Folder`] — the **snapshot** instance: lags behind, absorbing
//!   commands only up to slot-boundary cuts, so that at a given cut every
//!   replica's folder holds the byte-identical state. Its
//!   [`FoldedState`] — app fold + applied count + the live dedup window —
//!   is the unit of durability and of `b + 1`-vouched chunked state
//!   transfer.
//!
//! Both read the replica's applied log in its one form, a run of
//! [`AppliedSlot`]s whose batches the replica shares: the folder's dedup
//! window keeps those handles, and [`Folder::fold`] encodes the
//! [`FoldedState`] straight from them, so no command is copied except
//! into the encoded bytes.

use std::collections::VecDeque;

use bytes::BytesMut;
use gencon_net::{encode_folded, FoldedState};
use gencon_types::{group_by_slot, AppliedSlot, Batch};

use crate::{App, AppError};

/// The live application instance (see the module docs).
#[derive(Clone, Debug)]
pub struct Applier<A: App> {
    app: A,
    /// Absolute applied-command offset the app has consumed.
    cursor: u64,
    /// Capture [`App::state_hash`] when `cursor` reaches exactly this.
    hash_target: Option<u64>,
    captured: Option<[u8; 32]>,
}

impl<A: App> Default for Applier<A> {
    fn default() -> Self {
        Applier::new(A::default())
    }
}

impl<A: App> Applier<A> {
    /// Wraps an app (usually `A::default()`, or a recovered instance).
    pub fn new(app: A) -> Self {
        Applier {
            app,
            cursor: 0,
            hash_target: None,
            captured: None,
        }
    }

    /// Starts the applier at a nonzero absolute offset (recovery: the
    /// app already covers `cursor` commands).
    #[must_use]
    pub fn resume(app: A, cursor: u64) -> Self {
        let mut a = Applier::new(app);
        a.cursor = cursor;
        a
    }

    /// Arms the state-hash capture: when the applier has applied exactly
    /// `target` commands, [`Applier::captured_hash`] becomes the app's
    /// state hash at that point — deterministic across replicas, since
    /// the command sequence is shared.
    #[must_use]
    pub fn with_hash_target(mut self, target: u64) -> Self {
        self.hash_target = Some(target);
        self.maybe_capture();
        self
    }

    /// Absolute applied offset consumed so far.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The wrapped app.
    #[must_use]
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The state hash captured at the hash target, if reached exactly.
    #[must_use]
    pub fn captured_hash(&self) -> Option<[u8; 32]> {
        self.captured
    }

    /// Applies the next command (absolute offset `cursor`), returning the
    /// client reply. Commands must be fed in log order.
    pub fn apply(&mut self, slot: u64, cmd: &A::Cmd) -> A::Reply {
        let reply = self.app.apply(slot, self.cursor, cmd);
        self.cursor += 1;
        self.maybe_capture();
        reply
    }

    /// Replaces the state with a transferred/recovered [`FoldedState`]:
    /// the app restores its fold and the cursor jumps to the fold's
    /// applied count.
    ///
    /// # Errors
    ///
    /// Propagates [`AppError`] from the app's restore (state unchanged).
    pub fn restore(&mut self, fs: &FoldedState<A::Cmd>) -> Result<(), AppError> {
        self.app.restore(&fs.app)?;
        self.cursor = fs.applied_len;
        self.maybe_capture();
        Ok(())
    }

    fn maybe_capture(&mut self) {
        if self.captured.is_none() && self.hash_target == Some(self.cursor) {
            self.captured = Some(self.app.state_hash());
        }
    }
}

/// The snapshot-folding instance (see the module docs).
#[derive(Clone, Debug)]
pub struct Folder<A: App> {
    app: A,
    /// Commands folded so far (absolute count).
    applied_len: u64,
    /// Every slot below this has been folded.
    covered_slot: u64,
    /// `(slot, applied commands)` within the dedup horizon of the last
    /// cut, sharing the replica's batches — carried in the folded state so
    /// an installer's dedup decisions match replicas that flattened slot
    /// by slot.
    window: VecDeque<(u64, Batch<A::Cmd>)>,
    /// Length of the last fold's encoding: the next fold's buffer is
    /// sized from it, since consecutive cuts are about the same size.
    fold_len: usize,
}

impl<A: App> Default for Folder<A> {
    fn default() -> Self {
        Folder::new(A::default())
    }
}

impl<A: App> Folder<A> {
    /// Wraps an app (usually `A::default()`, or a recovered instance).
    pub fn new(app: A) -> Self {
        Folder {
            app,
            applied_len: 0,
            covered_slot: 0,
            window: VecDeque::new(),
            fold_len: 0,
        }
    }

    /// Commands folded so far.
    #[must_use]
    pub fn applied_len(&self) -> u64 {
        self.applied_len
    }

    /// Every slot below this is folded — the next fold's cut must not be
    /// below it (the fold cannot rewind).
    #[must_use]
    pub fn covered_slot(&self) -> u64 {
        self.covered_slot
    }

    /// The wrapped app.
    #[must_use]
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The folded state's hash.
    #[must_use]
    pub fn state_hash(&self) -> [u8; 32] {
        self.app.state_hash()
    }

    /// Absorbs the applied slots below `cut` from `log`, the replica's
    /// applied slots from [`Folder::applied_len`] on (slots already folded
    /// are skipped).
    pub fn absorb(&mut self, log: &[AppliedSlot<A::Cmd>], cut: u64) {
        if cut < self.covered_slot {
            return;
        }
        for s in log.iter().take_while(|s| s.slot < cut) {
            if s.end() <= self.applied_len {
                continue;
            }
            debug_assert_eq!(s.offset, self.applied_len, "the folder holds whole slots");
            for cmd in &s.batch {
                self.app.apply(s.slot, self.applied_len, cmd);
                self.applied_len += 1;
            }
            self.window.push_back((s.slot, s.batch.clone()));
        }
        self.covered_slot = cut;
    }

    /// Folds the current (cut-aligned) state, pruning the dedup window to
    /// `horizon` slots behind the cut, and returns its encoded
    /// [`FoldedState`] — written straight from the window's shared
    /// batches into one buffer, cloning no command. Every replica folding
    /// the same cut with the same horizon produces byte-identical output.
    #[must_use]
    pub fn fold(&mut self, horizon: u64) -> Vec<u8> {
        while let Some((slot, _)) = self.window.front() {
            if slot + horizon >= self.covered_slot {
                break;
            }
            self.window.pop_front();
        }
        let app = self.app.fold_snapshot();
        let pairs = self.window.iter().map(|(_, batch)| batch.len()).sum();
        // 16 bytes of lengths, at least 9 per pair (a command and its slot).
        let floor = 16 + 9 * pairs + app.len();
        let mut buf = BytesMut::with_capacity(self.fold_len.max(floor));
        encode_folded(
            &mut buf,
            self.applied_len,
            pairs,
            self.window
                .iter()
                .flat_map(|(slot, batch)| batch.iter().map(|cmd| (cmd, *slot))),
            &app,
        );
        self.fold_len = buf.len();
        buf.into()
    }

    /// Replaces the folder's state with a transferred/recovered
    /// [`FoldedState`] covering every slot below `upto_slot`.
    ///
    /// # Errors
    ///
    /// Propagates [`AppError`] from the app's restore (state unchanged).
    pub fn restore(&mut self, fs: &FoldedState<A::Cmd>, upto_slot: u64) -> Result<(), AppError> {
        self.app.restore(&fs.app)?;
        self.applied_len = fs.applied_len;
        self.covered_slot = upto_slot;
        self.window = group_by_slot(&fs.dedup).into();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvApp, KvCmd, KvOp, KvReply};
    use gencon_net::Wire;

    /// Decodes a fold's bytes.
    fn decoded(fold: Vec<u8>) -> FoldedState<KvCmd> {
        FoldedState::decode(&mut bytes::Bytes::from(fold)).expect("a fold decodes")
    }

    fn put(id: u64, key: u8, value: u64) -> KvCmd {
        KvCmd {
            id,
            op: KvOp::Put {
                key: vec![key],
                value: value.to_le_bytes().to_vec(),
            },
        }
    }

    /// A little applied log: 10 commands over slots 0..5, two per slot.
    fn sample() -> Vec<AppliedSlot<KvCmd>> {
        (0..5u64)
            .map(|slot| AppliedSlot {
                slot,
                offset: 2 * slot,
                batch: Batch::new(
                    (2 * slot..2 * slot + 2)
                        .map(|i| put(i, (i % 3) as u8, i))
                        .collect(),
                ),
            })
            .collect()
    }

    /// Feeds the commands of `log` from the applier's cursor on,
    /// returning `(offset, reply)` per command.
    fn feed(applier: &mut Applier<KvApp>, log: &[AppliedSlot<KvCmd>]) -> Vec<(u64, KvReply)> {
        let from = applier.cursor();
        let mut replies = Vec::new();
        for s in log {
            for (offset, cmd) in s.commands_from(from) {
                replies.push((offset, applier.apply(s.slot, cmd)));
            }
        }
        replies
    }

    #[test]
    fn applier_tracks_in_order_and_captures_hash() {
        let log = sample();
        let mut applier = Applier::<KvApp>::default().with_hash_target(7);
        let replies = feed(&mut applier, &log[..2]);
        assert_eq!(applier.cursor(), 4);
        assert_eq!(replies.len(), 4);
        assert_eq!(replies[0], (0, KvReply::Stored { replaced: false }));
        assert_eq!(replies[3], (3, KvReply::Stored { replaced: true }));
        assert!(applier.captured_hash().is_none());
        // Continue past the target; the hash snaps at exactly 7.
        feed(&mut applier, &log);
        assert_eq!(applier.cursor(), 10);
        let captured = applier.captured_hash().expect("hit 7 exactly");
        let mut reference = KvApp::default();
        for (offset, cmd) in log.iter().flat_map(|s| s.commands_from(0)).take(7) {
            reference.apply(offset / 2, offset, cmd);
        }
        assert_eq!(captured, reference.state_hash());
        assert_ne!(captured, applier.app().state_hash(), "state moved on");
    }

    #[test]
    fn folder_folds_identically_regardless_of_cut_history() {
        let log = sample();
        // Folder 1 folds at cut 2, then 4; folder 2 folds straight at 4.
        let mut f1 = Folder::<KvApp>::default();
        f1.absorb(&log, 2);
        let _ = f1.fold(100);
        f1.absorb(&log, 4);
        let s1 = f1.fold(100);
        let mut f2 = Folder::<KvApp>::default();
        f2.absorb(&log, 4);
        let s2 = f2.fold(100);
        assert_eq!(s1, s2, "fold at a cut is independent of fold history");
        assert_eq!(decoded(s1).applied_len, 8, "slots 0..4 hold 8 commands");
    }

    #[test]
    fn folder_window_respects_the_horizon() {
        let log = sample();
        let mut f = Folder::<KvApp>::default();
        f.absorb(&log, 5);
        // Horizon 2: only commands applied in slots 3 and 4 stay.
        let fs = decoded(f.fold(2));
        assert_eq!(fs.dedup.len(), 4);
        assert!(fs.dedup.iter().all(|(_, s)| *s + 2 >= 5));
        // A huge horizon keeps everything, in log order.
        let mut f2 = Folder::<KvApp>::default();
        f2.absorb(&log, 5);
        let every: Vec<(KvCmd, u64)> = log
            .iter()
            .flat_map(|s| s.batch.iter().map(|c| (c.clone(), s.slot)))
            .collect();
        assert_eq!(decoded(f2.fold(1_000)).dedup, every);
    }

    #[test]
    fn folder_survives_compaction_of_the_absorbed_prefix() {
        let log = sample();
        let mut f = Folder::<KvApp>::default();
        f.absorb(&log, 3);
        assert_eq!(f.applied_len(), 6);
        // The replica compacted the first 2 slots away (base 4); the
        // folder picks up from offset 6 unharmed.
        f.absorb(&log[2..], 5);
        assert_eq!(f.applied_len(), 10);
        let mut reference = Folder::<KvApp>::default();
        reference.absorb(&log, 5);
        assert_eq!(f.fold(100), reference.fold(100));
    }

    #[test]
    fn restore_roundtrips_applier_and_folder() {
        let mut f = Folder::<KvApp>::default();
        f.absorb(&sample(), 5);
        let fs = decoded(f.fold(3));

        let mut fresh = Folder::<KvApp>::default();
        fresh.restore(&fs, 5).unwrap();
        assert_eq!(fresh.applied_len(), 10);
        assert_eq!(fresh.covered_slot(), 5);
        assert_eq!(fresh.state_hash(), f.state_hash());
        assert_eq!(fresh.fold(3), f.fold(3));

        let mut applier = Applier::<KvApp>::default().with_hash_target(10);
        applier.restore(&fs).unwrap();
        assert_eq!(applier.cursor(), 10);
        assert_eq!(
            applier.captured_hash(),
            Some(f.state_hash()),
            "a restore landing exactly on the target captures"
        );
    }
}
