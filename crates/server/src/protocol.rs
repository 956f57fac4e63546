//! The client-facing protocol: submit a command, get a committed ack.
//!
//! Clients speak length-prefixed frames (the same 4-byte little-endian
//! prefix the peer mesh uses) carrying [`ClientRequest`] /
//! [`ClientResponse`] values:
//!
//! * `Submit { cmd }` → the server queues `cmd` for a batch and, once the
//!   command is applied, answers `Committed { cmd, slot, offset, reply }`
//!   with the consensus slot it committed in, its offset in the
//!   replicated log — the linearization point a client can cite — and,
//!   when the server runs an application layer, the app's **reply**
//!   payload (a kv get's value, a transfer's new balance), making the
//!   protocol a real request/response service rather than a bare
//!   append-ack.
//! * `Backpressure { cmd, queued }` — the server's pending queue is past
//!   its limit; the command was **not** queued and should be retried after
//!   a pause. Echoing the command keeps the client retry loop stateless.
//! * `Redirect { cmd, to }` — this server is configured to not accept
//!   writes (e.g. a follower in a leader-pinned deployment); retry at
//!   process `to`. The command was not queued.
//!
//! Every decoder validates lengths against the same caps as the consensus
//! codec, so a malicious client cannot force allocations either.

use std::io::{Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use gencon_net::wire::{Wire, WireError, MAX_BYTES};
use gencon_types::{ProcessId, Value};

/// What a client sends to a server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientRequest<V> {
    /// Submit one command for replication.
    Submit {
        /// The command; must be globally unique (clients namespace their
        /// ids, see `gencon_types::encode_cmd`).
        cmd: V,
    },
}

/// What a server answers. `R` is the application's reply type (offset
/// `u64` for the plain log application, so pre-application-layer clients
/// keep their old type).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientResponse<V, R = u64> {
    /// The command is applied: committed in `slot`, at log offset
    /// `offset`.
    Committed {
        /// The echoed command.
        cmd: V,
        /// Consensus slot the command's batch won.
        slot: u64,
        /// Position in the flattened replicated log.
        offset: u64,
        /// The application's reply (`None` from servers running without
        /// an application layer, or for re-acks whose reply aged out of
        /// the index).
        reply: Option<R>,
    },
    /// The server's queue is full; retry `cmd` after a pause.
    Backpressure {
        /// The echoed, **not queued** command.
        cmd: V,
        /// Queue depth observed at rejection time.
        queued: u64,
    },
    /// This server does not accept submissions; retry at `to`.
    Redirect {
        /// The echoed, **not queued** command.
        cmd: V,
        /// The process to submit to instead.
        to: ProcessId,
    },
}

impl<V: Value + Wire> Wire for ClientRequest<V> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ClientRequest::Submit { cmd } => {
                buf.put_u8(1);
                cmd.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            1 => Ok(ClientRequest::Submit {
                cmd: V::decode(buf)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<V: Value + Wire, R: Wire> Wire for ClientResponse<V, R> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ClientResponse::Committed {
                cmd,
                slot,
                offset,
                reply,
            } => {
                buf.put_u8(1);
                cmd.encode(buf);
                slot.encode(buf);
                offset.encode(buf);
                reply.encode(buf);
            }
            ClientResponse::Backpressure { cmd, queued } => {
                buf.put_u8(2);
                cmd.encode(buf);
                queued.encode(buf);
            }
            ClientResponse::Redirect { cmd, to } => {
                buf.put_u8(3);
                cmd.encode(buf);
                to.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            1 => Ok(ClientResponse::Committed {
                cmd: V::decode(buf)?,
                slot: u64::decode(buf)?,
                offset: u64::decode(buf)?,
                reply: Option::<R>::decode(buf)?,
            }),
            2 => Ok(ClientResponse::Backpressure {
                cmd: V::decode(buf)?,
                queued: u64::decode(buf)?,
            }),
            3 => Ok(ClientResponse::Redirect {
                cmd: V::decode(buf)?,
                to: ProcessId::decode(buf)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write, M: Wire>(w: &mut W, msg: &M) -> std::io::Result<()> {
    let body = msg.to_bytes();
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)
}

/// Reads one length-prefixed frame, validating the length against
/// [`MAX_BYTES`] before allocating.
///
/// # Errors
///
/// I/O errors, oversized frames, or undecodable payloads (all surfaced as
/// `std::io::Error` so connection loops can treat them uniformly).
pub fn read_frame<R: Read, M: Wire>(r: &mut R) -> std::io::Result<M> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let mut buf = Bytes::from(body);
    let msg =
        M::decode(&mut buf).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    if buf.remaining() > 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "trailing bytes after frame payload",
        ));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut cursor = Vec::new();
        write_frame(&mut cursor, &v).unwrap();
        let mut rd = &cursor[..];
        let back: T = read_frame(&mut rd).unwrap();
        assert_eq!(back, v);
        assert!(rd.is_empty(), "frame consumed exactly");
    }

    #[test]
    fn request_roundtrips() {
        roundtrip(ClientRequest::Submit { cmd: 42u64 });
        roundtrip(ClientRequest::Submit { cmd: u64::MAX });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip(ClientResponse::<u64>::Committed {
            cmd: 7u64,
            slot: 3,
            offset: 19,
            reply: Some(19),
        });
        roundtrip(ClientResponse::<u64>::Committed {
            cmd: 7u64,
            slot: 3,
            offset: 19,
            reply: None,
        });
        // A non-default reply type (what a kv server sends).
        roundtrip(ClientResponse::<u64, Vec<u8>>::Committed {
            cmd: 7u64,
            slot: 3,
            offset: 19,
            reply: Some(b"value".to_vec()),
        });
        roundtrip(ClientResponse::<u64>::Backpressure {
            cmd: 7u64,
            queued: 4096,
        });
        roundtrip(ClientResponse::<u64>::Redirect {
            cmd: 7u64,
            to: ProcessId::new(2),
        });
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut buf = Bytes::from_static(&[9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            ClientRequest::<u64>::decode(&mut buf),
            Err(WireError::BadTag(9))
        );
        let mut buf2 = Bytes::from_static(&[0]);
        assert!(ClientResponse::<u64>::decode(&mut buf2).is_err());
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut rd = &raw[..];
        let err = read_frame::<_, ClientRequest<u64>>(&mut rd).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_error() {
        let mut cursor = Vec::new();
        write_frame(&mut cursor, &ClientRequest::Submit { cmd: 1u64 }).unwrap();
        for cut in 0..cursor.len() {
            let mut rd = &cursor[..cut];
            assert!(read_frame::<_, ClientRequest<u64>>(&mut rd).is_err());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let body = ClientRequest::Submit { cmd: 1u64 }.to_bytes();
        let mut raw = Vec::new();
        raw.extend_from_slice(&((body.len() + 2) as u32).to_le_bytes());
        raw.extend_from_slice(&body);
        raw.extend_from_slice(&[0xaa, 0xbb]);
        let mut rd = &raw[..];
        let err = read_frame::<_, ClientRequest<u64>>(&mut rd).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
