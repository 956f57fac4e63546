//! Property tests for the application layer: determinism (any kv command
//! stream applied in slot order yields the identical `state_hash()` on
//! every replica, however the slots were batched), fold/restore
//! roundtrips, conservation under random bank traffic, and restore
//! robustness (truncated/corrupted folds are rejected without panicking
//! and leave the state untouched).

use proptest::prelude::*;

use gencon_app::{App, BankApp, BankCmd, BankOp, Folder, KvApp, KvCmd, KvOp};
use gencon_types::{group_by_slot, AppliedSlot};

fn kv_ops() -> impl Strategy<Value = KvOp> {
    let key = proptest::collection::vec(any::<u8>(), 0..6);
    let val_a = proptest::collection::vec(any::<u8>(), 0..10);
    let val_b = proptest::collection::vec(any::<u8>(), 0..10);
    (0u8..4, key, val_a, val_b).prop_map(|(variant, key, a, b)| match variant {
        0 => KvOp::Put { key, value: a },
        1 => KvOp::Get { key },
        2 => KvOp::Del { key },
        _ => KvOp::Cas {
            key,
            expect: a,
            swap: b,
        },
    })
}

/// A stream of unique-id kv commands plus a random (non-decreasing) slot
/// assignment — i.e. a random batching of the same shared sequence.
fn kv_streams() -> impl Strategy<Value = Vec<(KvCmd, u64)>> {
    proptest::collection::vec((kv_ops(), 0u64..4), 0..48).prop_map(|entries| {
        let mut slot = 0u64;
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (op, gap))| {
                slot += gap; // gaps of 0 keep commands in one batch/slot
                (KvCmd { id: i as u64, op }, slot)
            })
            .collect()
    })
}

fn bank_cmds() -> impl Strategy<Value = Vec<BankCmd>> {
    proptest::collection::vec((0u8..2, 0u64..5, 0u64..5, 0u64..1_000), 0..64).prop_map(|ops| {
        ops.into_iter()
            .enumerate()
            .map(|(i, (variant, a, b, amount))| BankCmd {
                id: i as u64,
                op: if variant == 0 {
                    BankOp::Mint { account: a, amount }
                } else {
                    BankOp::Transfer {
                        from: a,
                        to: b,
                        amount,
                    }
                },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The determinism contract: replicas applying the shared sequence in
    /// slot order end with the identical state hash — and so does a
    /// replica that instead restored a fold taken at any point and then
    /// applied the remainder.
    #[test]
    fn kv_replicas_agree_on_state_hash(stream in kv_streams(), cut_frac in 0usize..100) {
        let mut a = KvApp::default();
        let mut b = KvApp::default();
        for (offset, (cmd, slot)) in stream.iter().enumerate() {
            let ra = a.apply(*slot, offset as u64, cmd);
            let rb = b.apply(*slot, offset as u64, cmd);
            prop_assert_eq!(ra, rb);
        }
        prop_assert_eq!(a.state_hash(), b.state_hash());

        // Fold at an arbitrary cut, restore into a third replica, apply
        // the tail: same final hash (fold is a faithful state capture).
        let cut = (cut_frac * stream.len()) / 100;
        let mut prefix = KvApp::default();
        for (offset, (cmd, slot)) in stream[..cut].iter().enumerate() {
            prefix.apply(*slot, offset as u64, cmd);
        }
        let mut c = KvApp::default();
        c.restore(&prefix.fold_snapshot()).expect("own fold restores");
        for (offset, (cmd, slot)) in stream[cut..].iter().enumerate() {
            c.apply(*slot, (cut + offset) as u64, cmd);
        }
        prop_assert_eq!(c.state_hash(), a.state_hash());
    }

    /// Folding at a boundary is independent of the fold-cut history: a
    /// folder that folded at many intermediate cuts produces the
    /// byte-identical `FoldedState` as one that jumped straight there.
    #[test]
    fn folder_output_is_cut_history_independent(
        stream in kv_streams(),
        mid_frac in 0u64..100,
        horizon in 1u64..8,
    ) {
        let mut offset = 0;
        let log: Vec<AppliedSlot<KvCmd>> = group_by_slot(&stream)
            .into_iter()
            .map(|(slot, batch)| {
                let s = AppliedSlot { slot, offset, batch };
                offset = s.end();
                s
            })
            .collect();
        let top = log.last().map_or(0, |s| s.slot + 1);
        let mid = (mid_frac * top) / 100;

        let mut staged = Folder::<KvApp>::default();
        staged.absorb(&log, mid);
        let _ = staged.fold(horizon);
        staged.absorb(&log, top);

        let mut direct = Folder::<KvApp>::default();
        direct.absorb(&log, top);

        prop_assert_eq!(staged.fold(horizon), direct.fold(horizon));
    }

    /// Conservation: any interleaving of mints and transfers keeps
    /// Σ balances == minted, on the live app and across fold/restore.
    #[test]
    fn bank_conserves_under_random_traffic(cmds in bank_cmds()) {
        let mut bank = BankApp::default();
        for (offset, cmd) in cmds.iter().enumerate() {
            bank.apply(offset as u64 / 3, offset as u64, cmd);
            prop_assert!(bank.conserved());
        }
        let mut back = BankApp::default();
        back.restore(&bank.fold_snapshot()).expect("own fold restores");
        prop_assert!(back.conserved());
        prop_assert_eq!(back.state_hash(), bank.state_hash());
    }

    /// Restore robustness: every strict truncation of a valid fold is
    /// rejected, arbitrary corruption never panics, and a failed restore
    /// leaves the state untouched.
    #[test]
    fn truncated_or_corrupted_folds_never_panic_or_corrupt(
        stream in kv_streams(),
        cut in 0usize..4_096,
        pos in 0usize..4_096,
        flip in 1u8..=255,
    ) {
        let mut kv = KvApp::default();
        for (offset, (cmd, slot)) in stream.iter().enumerate() {
            kv.apply(*slot, offset as u64, cmd);
        }
        let folded = kv.fold_snapshot();
        let before = kv.state_hash();

        if !folded.is_empty() {
            let cut = cut % folded.len();
            prop_assert!(kv.restore(&folded[..cut]).is_err(), "strict prefix rejected");
            prop_assert_eq!(kv.state_hash(), before);

            let mut corrupted = folded.clone();
            let pos = pos % corrupted.len();
            corrupted[pos] ^= flip;
            // Corruption may or may not decode; it must never panic, and
            // on failure the state is untouched.
            if kv.restore(&corrupted).is_err() {
                prop_assert_eq!(kv.state_hash(), before);
            }
            // A clean restore always works afterwards.
            kv.restore(&folded).expect("valid fold restores");
            prop_assert_eq!(kv.state_hash(), before);
        }
    }
}
