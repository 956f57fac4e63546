//! The bank application: accounts, mint and transfer, with a
//! conservation invariant.
//!
//! The cross-node consistency canary: every transfer conserves the total
//! (`Σ balances == minted` — debug-asserted after every apply, verified
//! on every restore, and exposed via [`BankApp::conserved`] for release
//! checks), so *any* apply-order divergence between replicas — the
//! failure mode the whole consensus stack exists to prevent — breaks
//! the invariant or the state hash loudly instead of silently
//! corrupting values. This is the
//! multi-valued-consensus shape of Liang & Vaidya's setting: the decided
//! values are operations on shared state, not opaque blobs.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use gencon_net::wire::{Wire, WireError};

use crate::{App, AppError};

/// A bank operation (without the uniqueness id; see [`BankCmd`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BankOp {
    /// Creates money in `account` — the genesis/seed operation, so the
    /// `Default` (empty) state plus the command stream determines
    /// everything.
    Mint {
        /// The credited account.
        account: u64,
        /// The amount.
        amount: u64,
    },
    /// Moves `amount` from `from` to `to` (rejected, not partially
    /// applied, when funds are missing).
    Transfer {
        /// The debited account.
        from: u64,
        /// The credited account.
        to: u64,
        /// The amount.
        amount: u64,
    },
}

/// One client command: a [`BankOp`] plus a globally unique request id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BankCmd {
    /// Globally unique request id.
    pub id: u64,
    /// The operation.
    pub op: BankOp,
}

/// What a [`BankOp`] returns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BankReply {
    /// The operation applied; the debited (transfer) or credited (mint)
    /// account's new balance.
    Ok {
        /// New balance of the primary account.
        balance: u64,
    },
    /// Transfer rejected: the source balance is short.
    Insufficient,
    /// Rejected: the credited balance (or the minted total) would
    /// overflow.
    Overflow,
}

impl Wire for BankOp {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            BankOp::Mint { account, amount } => {
                buf.put_u8(1);
                account.encode(buf);
                amount.encode(buf);
            }
            BankOp::Transfer { from, to, amount } => {
                buf.put_u8(2);
                from.encode(buf);
                to.encode(buf);
                amount.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            1 => Ok(BankOp::Mint {
                account: u64::decode(buf)?,
                amount: u64::decode(buf)?,
            }),
            2 => Ok(BankOp::Transfer {
                from: u64::decode(buf)?,
                to: u64::decode(buf)?,
                amount: u64::decode(buf)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for BankCmd {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.op.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(BankCmd {
            id: u64::decode(buf)?,
            op: BankOp::decode(buf)?,
        })
    }
}

impl Wire for BankReply {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            BankReply::Ok { balance } => {
                buf.put_u8(1);
                balance.encode(buf);
            }
            BankReply::Insufficient => buf.put_u8(2),
            BankReply::Overflow => buf.put_u8(3),
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            1 => Ok(BankReply::Ok {
                balance: u64::decode(buf)?,
            }),
            2 => Ok(BankReply::Insufficient),
            3 => Ok(BankReply::Overflow),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// The bank state machine (see the module docs).
#[derive(Clone, Default, Debug)]
pub struct BankApp {
    accounts: BTreeMap<u64, u64>,
    minted: u64,
}

impl BankApp {
    /// Total money ever minted — must equal [`BankApp::total`] always.
    #[must_use]
    pub fn minted(&self) -> u64 {
        self.minted
    }

    /// Sum of all balances.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.accounts.values().sum()
    }

    /// Whether the conservation invariant holds.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.total() == self.minted
    }

    /// One account's balance (0 for unknown accounts).
    #[must_use]
    pub fn balance(&self, account: u64) -> u64 {
        self.accounts.get(&account).copied().unwrap_or(0)
    }

    /// Accounts with a nonzero balance.
    #[must_use]
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// Whether no account holds money.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }
}

impl App for BankApp {
    type Cmd = BankCmd;
    type Reply = BankReply;

    const NAME: &'static str = "bank";

    fn apply(&mut self, _slot: u64, _offset: u64, cmd: &BankCmd) -> BankReply {
        let reply = match cmd.op {
            BankOp::Mint { account, amount } => {
                let (Some(new_balance), Some(new_minted)) = (
                    self.balance(account).checked_add(amount),
                    self.minted.checked_add(amount),
                ) else {
                    return BankReply::Overflow;
                };
                // Zero-balance accounts are never stored (canonical
                // state: the fold must not depend on rejected history).
                if new_balance > 0 {
                    self.accounts.insert(account, new_balance);
                }
                self.minted = new_minted;
                BankReply::Ok {
                    balance: new_balance,
                }
            }
            BankOp::Transfer { from, to, amount } => {
                if self.balance(from) < amount {
                    return BankReply::Insufficient;
                }
                if from == to {
                    return BankReply::Ok {
                        balance: self.balance(from),
                    };
                }
                let Some(credited) = self.balance(to).checked_add(amount) else {
                    return BankReply::Overflow;
                };
                let debited = self.balance(from) - amount;
                if debited == 0 {
                    self.accounts.remove(&from);
                } else {
                    self.accounts.insert(from, debited);
                }
                if credited > 0 {
                    self.accounts.insert(to, credited);
                }
                BankReply::Ok { balance: debited }
            }
        };
        debug_assert!(self.conserved(), "apply broke conservation");
        reply
    }

    fn fold_snapshot(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.minted.encode(&mut buf);
        (self.accounts.len() as u32).encode(&mut buf);
        for (account, balance) in &self.accounts {
            account.encode(&mut buf);
            balance.encode(&mut buf);
        }
        buf.into()
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), AppError> {
        let mut buf = Bytes::from(state.to_vec());
        let minted = u64::decode(&mut buf)?;
        let len = u32::decode(&mut buf)? as usize;
        if len > buf.remaining() {
            return Err(AppError::Decode(WireError::TooLong(len)));
        }
        let mut accounts = BTreeMap::new();
        let mut total: u64 = 0;
        for _ in 0..len {
            let account = u64::decode(&mut buf)?;
            let balance = u64::decode(&mut buf)?;
            total = total
                .checked_add(balance)
                .ok_or(AppError::Invalid("balance sum overflows"))?;
            accounts.insert(account, balance);
        }
        if buf.remaining() > 0 {
            return Err(AppError::Decode(WireError::TooLong(buf.remaining())));
        }
        if total != minted {
            return Err(AppError::Invalid(
                "conservation violated: Σ balances ≠ minted",
            ));
        }
        self.accounts = accounts;
        self.minted = minted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mint(id: u64, account: u64, amount: u64) -> BankCmd {
        BankCmd {
            id,
            op: BankOp::Mint { account, amount },
        }
    }

    fn xfer(id: u64, from: u64, to: u64, amount: u64) -> BankCmd {
        BankCmd {
            id,
            op: BankOp::Transfer { from, to, amount },
        }
    }

    #[test]
    fn transfers_conserve_the_total() {
        let mut bank = BankApp::default();
        bank.apply(0, 0, &mint(1, 1, 100));
        bank.apply(0, 1, &mint(2, 2, 50));
        assert_eq!(
            bank.apply(1, 2, &xfer(3, 1, 2, 30)),
            BankReply::Ok { balance: 70 }
        );
        assert_eq!(
            bank.apply(1, 3, &xfer(4, 2, 3, 80)),
            BankReply::Ok { balance: 0 }
        );
        assert_eq!(bank.apply(2, 4, &xfer(5, 2, 1, 1)), BankReply::Insufficient);
        assert!(bank.conserved());
        assert_eq!(bank.total(), 150);
        assert_eq!(bank.balance(3), 80);
        assert_eq!(bank.len(), 2, "emptied account 2 is dropped");
    }

    #[test]
    fn overflow_is_rejected_not_wrapped() {
        let mut bank = BankApp::default();
        bank.apply(0, 0, &mint(1, 1, u64::MAX - 5));
        // Minting past the total-supply cap is rejected wholesale: no
        // balance moved, no supply created.
        assert_eq!(bank.apply(0, 1, &mint(2, 2, 10)), BankReply::Overflow);
        assert_eq!(bank.balance(2), 0);
        assert_eq!(
            bank.apply(0, 2, &mint(3, 2, 3)),
            BankReply::Ok { balance: 3 }
        );
        assert_eq!(bank.minted(), u64::MAX - 2);
        assert!(bank.conserved());
    }

    #[test]
    fn self_transfer_is_a_no_op() {
        let mut bank = BankApp::default();
        bank.apply(0, 0, &mint(1, 7, 10));
        assert_eq!(
            bank.apply(0, 1, &xfer(2, 7, 7, 5)),
            BankReply::Ok { balance: 10 }
        );
        assert!(bank.conserved());
    }

    #[test]
    fn fold_restore_roundtrips_and_checks_conservation() {
        let mut bank = BankApp::default();
        for i in 0..20u64 {
            bank.apply(i, i, &mint(i, i % 5, i * 3));
        }
        bank.apply(20, 20, &xfer(100, 1, 2, 5));
        let folded = bank.fold_snapshot();
        let mut back = BankApp::default();
        back.restore(&folded).unwrap();
        assert_eq!(back.state_hash(), bank.state_hash());
        assert!(back.conserved());

        // A fold with a violated invariant is refused.
        let mut tampered = bank.clone();
        tampered.minted += 1;
        let bad = tampered.fold_snapshot();
        assert_eq!(
            back.restore(&bad),
            Err(AppError::Invalid(
                "conservation violated: Σ balances ≠ minted"
            ))
        );
        for cut in 0..folded.len() {
            assert!(back.restore(&folded[..cut]).is_err());
        }
    }

    #[test]
    fn commands_and_replies_roundtrip_on_the_wire() {
        for cmd in [mint(1, 2, 3), xfer(4, 5, 6, 7)] {
            let mut buf = cmd.to_bytes();
            assert_eq!(BankCmd::decode(&mut buf).unwrap(), cmd);
        }
        for reply in [
            BankReply::Ok { balance: 9 },
            BankReply::Insufficient,
            BankReply::Overflow,
        ] {
            let mut buf = reply.to_bytes();
            assert_eq!(BankReply::decode(&mut buf).unwrap(), reply);
        }
    }
}
