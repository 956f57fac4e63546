//! The key-value application: an ordered map with put/get/del/cas.
//!
//! The canonical "real service" state machine: its folded state is the
//! **live key set** — overwrite the same keys for a billion commands and
//! the snapshot stays the size of the keyspace, which is exactly the
//! O(state)-not-O(history) property the chunked-transfer stack exists to
//! exploit.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use gencon_net::wire::{Wire, WireError};

use crate::{App, AppError};

/// A key-value operation (without the uniqueness id; see [`KvCmd`]).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum KvOp {
    /// Sets `key` to `value`.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Reads `key` (replicated read: linearized through the log).
    Get {
        /// The key.
        key: Vec<u8>,
    },
    /// Deletes `key`.
    Del {
        /// The key.
        key: Vec<u8>,
    },
    /// Sets `key` to `swap` iff its current value equals `expect`.
    Cas {
        /// The key.
        key: Vec<u8>,
        /// Required current value.
        expect: Vec<u8>,
        /// New value on match.
        swap: Vec<u8>,
    },
}

/// One client command: a [`KvOp`] plus a globally unique request id
/// (the SMR layer dedups retries by command value, so two logically
/// distinct requests must never compare equal).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct KvCmd {
    /// Globally unique request id (namespace it per client, e.g. with
    /// `gencon_types::encode_cmd`).
    pub id: u64,
    /// The operation.
    pub op: KvOp,
}

/// What a [`KvOp`] returns.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KvReply {
    /// A put landed; `replaced` tells whether the key existed.
    Stored {
        /// Whether an older value was overwritten.
        replaced: bool,
    },
    /// A get's result (`None` for a missing key).
    Value(Option<Vec<u8>>),
    /// Whether the deleted key existed.
    Deleted(bool),
    /// Whether the compare-and-swap matched.
    Swapped(bool),
}

impl Wire for KvOp {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            KvOp::Put { key, value } => {
                buf.put_u8(1);
                key.encode(buf);
                value.encode(buf);
            }
            KvOp::Get { key } => {
                buf.put_u8(2);
                key.encode(buf);
            }
            KvOp::Del { key } => {
                buf.put_u8(3);
                key.encode(buf);
            }
            KvOp::Cas { key, expect, swap } => {
                buf.put_u8(4);
                key.encode(buf);
                expect.encode(buf);
                swap.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            1 => Ok(KvOp::Put {
                key: Vec::<u8>::decode(buf)?,
                value: Vec::<u8>::decode(buf)?,
            }),
            2 => Ok(KvOp::Get {
                key: Vec::<u8>::decode(buf)?,
            }),
            3 => Ok(KvOp::Del {
                key: Vec::<u8>::decode(buf)?,
            }),
            4 => Ok(KvOp::Cas {
                key: Vec::<u8>::decode(buf)?,
                expect: Vec::<u8>::decode(buf)?,
                swap: Vec::<u8>::decode(buf)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for KvCmd {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.op.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(KvCmd {
            id: u64::decode(buf)?,
            op: KvOp::decode(buf)?,
        })
    }
}

impl Wire for KvReply {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            KvReply::Stored { replaced } => {
                buf.put_u8(1);
                replaced.encode(buf);
            }
            KvReply::Value(v) => {
                buf.put_u8(2);
                v.encode(buf);
            }
            KvReply::Deleted(hit) => {
                buf.put_u8(3);
                hit.encode(buf);
            }
            KvReply::Swapped(hit) => {
                buf.put_u8(4);
                hit.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            1 => Ok(KvReply::Stored {
                replaced: bool::decode(buf)?,
            }),
            2 => Ok(KvReply::Value(Option::<Vec<u8>>::decode(buf)?)),
            3 => Ok(KvReply::Deleted(bool::decode(buf)?)),
            4 => Ok(KvReply::Swapped(bool::decode(buf)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// The ordered key-value store (see the module docs).
#[derive(Clone, Default, Debug)]
pub struct KvApp {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl KvApp {
    /// Live keys currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no keys are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Reads a key directly (local, not linearized — tests and stats).
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&Vec<u8>> {
        self.map.get(key)
    }
}

impl App for KvApp {
    type Cmd = KvCmd;
    type Reply = KvReply;

    const NAME: &'static str = "kv";

    fn apply(&mut self, _slot: u64, _offset: u64, cmd: &KvCmd) -> KvReply {
        match &cmd.op {
            KvOp::Put { key, value } => KvReply::Stored {
                replaced: self.map.insert(key.clone(), value.clone()).is_some(),
            },
            KvOp::Get { key } => KvReply::Value(self.map.get(key).cloned()),
            KvOp::Del { key } => KvReply::Deleted(self.map.remove(key).is_some()),
            KvOp::Cas { key, expect, swap } => match self.map.get_mut(key) {
                Some(current) if current == expect => {
                    current.clone_from(swap);
                    KvReply::Swapped(true)
                }
                _ => KvReply::Swapped(false),
            },
        }
    }

    fn fold_snapshot(&self) -> Vec<u8> {
        // BTreeMap iteration is key-ordered: canonical bytes for a given
        // state, whatever the command history that produced it.
        let mut buf = BytesMut::new();
        (self.map.len() as u32).encode(&mut buf);
        for (k, v) in &self.map {
            k.encode(&mut buf);
            v.encode(&mut buf);
        }
        buf.freeze().to_vec()
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), AppError> {
        let mut buf = Bytes::from(state.to_vec());
        let len = u32::decode(&mut buf)? as usize;
        if len > buf.remaining() {
            return Err(AppError::Decode(WireError::TooLong(len)));
        }
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = Vec::<u8>::decode(&mut buf)?;
            let v = Vec::<u8>::decode(&mut buf)?;
            map.insert(k, v);
        }
        if buf.remaining() > 0 {
            return Err(AppError::Decode(WireError::TooLong(buf.remaining())));
        }
        self.map = map;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(id: u64, key: &[u8], value: &[u8]) -> KvCmd {
        KvCmd {
            id,
            op: KvOp::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
        }
    }

    #[test]
    fn ops_apply_and_reply() {
        let mut kv = KvApp::default();
        assert_eq!(
            kv.apply(0, 0, &put(1, b"a", b"1")),
            KvReply::Stored { replaced: false }
        );
        assert_eq!(
            kv.apply(0, 1, &put(2, b"a", b"2")),
            KvReply::Stored { replaced: true }
        );
        assert_eq!(
            kv.apply(
                1,
                2,
                &KvCmd {
                    id: 3,
                    op: KvOp::Get { key: b"a".to_vec() }
                }
            ),
            KvReply::Value(Some(b"2".to_vec()))
        );
        assert_eq!(
            kv.apply(
                1,
                3,
                &KvCmd {
                    id: 4,
                    op: KvOp::Cas {
                        key: b"a".to_vec(),
                        expect: b"2".to_vec(),
                        swap: b"3".to_vec()
                    }
                }
            ),
            KvReply::Swapped(true)
        );
        assert_eq!(
            kv.apply(
                1,
                4,
                &KvCmd {
                    id: 5,
                    op: KvOp::Cas {
                        key: b"a".to_vec(),
                        expect: b"2".to_vec(),
                        swap: b"9".to_vec()
                    }
                }
            ),
            KvReply::Swapped(false)
        );
        assert_eq!(
            kv.apply(
                2,
                5,
                &KvCmd {
                    id: 6,
                    op: KvOp::Del { key: b"a".to_vec() }
                }
            ),
            KvReply::Deleted(true)
        );
        assert!(kv.is_empty());
    }

    #[test]
    fn fold_is_live_state_not_history() {
        let mut kv = KvApp::default();
        for i in 0..1_000u64 {
            kv.apply(i, i, &put(i, b"hot", format!("{i}").as_bytes()));
        }
        assert_eq!(kv.len(), 1);
        let folded = kv.fold_snapshot();
        assert!(folded.len() < 64, "1000 overwrites fold to one live key");
        let mut back = KvApp::default();
        back.restore(&folded).unwrap();
        assert_eq!(back.state_hash(), kv.state_hash());
        assert_eq!(back.get(b"hot"), Some(&b"999".to_vec()));
    }

    #[test]
    fn restore_rejects_garbage_and_leaves_state_alone() {
        let mut kv = KvApp::default();
        kv.apply(0, 0, &put(1, b"k", b"v"));
        let before = kv.state_hash();
        assert!(kv.restore(&[0xFF; 3]).is_err());
        let folded = kv.fold_snapshot();
        for cut in 0..folded.len() {
            assert!(kv.restore(&folded[..cut]).is_err());
        }
        let mut padded = folded.clone();
        padded.push(0);
        assert!(kv.restore(&padded).is_err());
        assert_eq!(kv.state_hash(), before, "failed restore is a no-op");
    }

    #[test]
    fn commands_roundtrip_on_the_wire() {
        for cmd in [
            put(7, b"k", b"v"),
            KvCmd {
                id: 8,
                op: KvOp::Get { key: b"k".to_vec() },
            },
            KvCmd {
                id: 9,
                op: KvOp::Del { key: vec![] },
            },
            KvCmd {
                id: 10,
                op: KvOp::Cas {
                    key: b"k".to_vec(),
                    expect: vec![],
                    swap: b"x".to_vec(),
                },
            },
        ] {
            let mut buf = cmd.to_bytes();
            assert_eq!(KvCmd::decode(&mut buf).unwrap(), cmd);
        }
        for reply in [
            KvReply::Stored { replaced: true },
            KvReply::Value(None),
            KvReply::Value(Some(b"v".to_vec())),
            KvReply::Deleted(false),
            KvReply::Swapped(true),
        ] {
            let mut buf = reply.to_bytes();
            assert_eq!(KvReply::decode(&mut buf).unwrap(), reply);
        }
    }
}
