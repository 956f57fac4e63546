//! Wire encodings for **chunked snapshot state transfer**: the frames a
//! laggard and its peers exchange when the laggard's gap exceeds the
//! peers' in-memory claim horizon (compacted slots cannot be re-claimed —
//! the snapshot is the only copy left).
//!
//! A `gencon-server` node no longer puts bare [`Envelope`]s on the mesh;
//! every peer frame is a [`SyncFrame`]:
//!
//! * `Round(Envelope<M>)` — the normal per-round consensus bundle;
//! * `SnapshotRequest` — "my contiguous log ends at `have_slot`; if your
//!   snapshot reaches further, describe it";
//! * `Manifest` — a peer's [`SnapshotManifest`]: the snapshot's cut, its
//!   total byte length, its chunk count and its SHA-256. Metadata only —
//!   cheap enough to broadcast, and the unit the `b + 1` agreement check
//!   runs over: the requester fetches state only for a manifest that
//!   `b + 1` distinct senders vouched for byte-identically (at least one
//!   is honest, so by per-slot Agreement the described state is the real
//!   folded prefix);
//! * `ChunkRequest` — the requester pulls one chunk by index. Requests
//!   are **resumable**: fetched chunks survive rounds, so only missing
//!   indices are re-requested, from any voucher;
//! * `Chunk` — one [`CHUNK_BYTES`]-sized slice of the snapshot state,
//!   stamped with a CRC-32 (accidental-corruption check; the assembled
//!   state must additionally match the manifest's SHA-256, which is what
//!   defeats a lying chunk server).
//!
//! There is **no whole-snapshot frame and no whole-snapshot cap**: state
//! size is bounded only by `chunks × CHUNK_BYTES` with the chunk count
//! validated against [`MAX_CHUNKS`] (a sanity ceiling about three orders
//! of magnitude above the old single-frame limit, not a design limit).
//! Every decoder still validates per-frame lengths before allocating, as
//! everywhere else in this crate.
//!
//! The state payload itself is a [`FoldedState`]: the application's
//! folded (compact) state bytes plus the replica resume data — the
//! absolute applied-command count and the dedup window — so a receiver
//! can continue the shared log without replaying history.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use gencon_crypto::crc32::crc32;
use gencon_crypto::sha256;
use gencon_types::{ProcessId, Round, Value};

use crate::wire::{Envelope, Wire, WireError};

/// Canonical chunk size: chunk `i` of a snapshot state is
/// `state[i * CHUNK_BYTES ..]` truncated to `CHUNK_BYTES`. Fixed
/// protocol-wide so every voucher slices the byte-identical state into
/// byte-identical chunks, and doubles as the per-frame sanity cap a
/// `Chunk` decoder enforces before allocating.
pub const CHUNK_BYTES: usize = 64 << 10;

/// Sanity ceiling on a manifest's chunk count (`MAX_CHUNKS × CHUNK_BYTES`
/// = 4 GiB of state). Nothing in the protocol needs a tighter bound: the
/// requester allocates per received chunk, never `total_len` up front.
pub const MAX_CHUNKS: u32 = 1 << 16;

/// Verifiable description of a transferable snapshot — the metadata the
/// `b + 1` agreement check compares before any chunk is trusted.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SnapshotManifest {
    /// Every slot below this is covered by the snapshot.
    pub upto_slot: u64,
    /// Applied commands the folded state covers (the installer's new
    /// absolute log offset).
    pub applied_len: u64,
    /// Number of [`CHUNK_BYTES`]-sized chunks the state slices into.
    pub chunks: u32,
    /// Total state length in bytes.
    pub total_len: u64,
    /// SHA-256 of the full state bytes.
    pub sha256: [u8; 32],
}

impl SnapshotManifest {
    /// Describes `state` as a manifest (computing chunk count and hash).
    #[must_use]
    pub fn describe(upto_slot: u64, applied_len: u64, state: &[u8]) -> Self {
        SnapshotManifest::describe_hashed(upto_slot, applied_len, state, sha256(state))
    }

    /// [`describe`](SnapshotManifest::describe) for a `state` whose
    /// SHA-256 is already known — a snapshot read back from a store,
    /// which checked the hash on the way in. A wrong `sha256` makes every
    /// receiver discard the transfer.
    #[must_use]
    pub fn describe_hashed(
        upto_slot: u64,
        applied_len: u64,
        state: &[u8],
        sha256: [u8; 32],
    ) -> Self {
        SnapshotManifest {
            upto_slot,
            applied_len,
            chunks: state.len().div_ceil(CHUNK_BYTES) as u32,
            total_len: state.len() as u64,
            sha256,
        }
    }

    /// Whether the chunk count, total length and ceiling are mutually
    /// consistent — the first thing a receiver checks (an inconsistent
    /// manifest is garbage regardless of who vouches for it).
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.chunks <= MAX_CHUNKS
            && self.total_len <= u64::from(self.chunks) * CHUNK_BYTES as u64
            && u64::from(self.chunks) == self.total_len.div_ceil(CHUNK_BYTES as u64)
    }

    /// Byte length of chunk `index` (the final chunk may be short).
    #[must_use]
    pub fn chunk_len(&self, index: u32) -> usize {
        if index >= self.chunks {
            return 0;
        }
        let start = u64::from(index) * CHUNK_BYTES as u64;
        usize::try_from((self.total_len - start).min(CHUNK_BYTES as u64)).unwrap_or(0)
    }

    /// Slices chunk `index` out of `state` (which must be the manifest's
    /// state bytes).
    #[must_use]
    pub fn chunk_of<'a>(&self, state: &'a [u8], index: u32) -> Option<&'a [u8]> {
        if index >= self.chunks || state.len() as u64 != self.total_len {
            return None;
        }
        let start = index as usize * CHUNK_BYTES;
        Some(&state[start..start + self.chunk_len(index)])
    }
}

impl Wire for SnapshotManifest {
    fn encode(&self, buf: &mut BytesMut) {
        self.upto_slot.encode(buf);
        self.applied_len.encode(buf);
        self.chunks.encode(buf);
        self.total_len.encode(buf);
        buf.put_slice(&self.sha256);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let upto_slot = u64::decode(buf)?;
        let applied_len = u64::decode(buf)?;
        let chunks = u32::decode(buf)?;
        if chunks > MAX_CHUNKS {
            return Err(WireError::TooLong(chunks as usize));
        }
        let total_len = u64::decode(buf)?;
        if buf.remaining() < 32 {
            return Err(WireError::UnexpectedEof);
        }
        let mut hash = [0u8; 32];
        hash.copy_from_slice(&buf.split_to(32));
        Ok(SnapshotManifest {
            upto_slot,
            applied_len,
            chunks,
            total_len,
            sha256: hash,
        })
    }
}

/// Every frame a `gencon-server` node puts on the peer mesh.
#[derive(Clone, PartialEq, Debug)]
pub enum SyncFrame<M> {
    /// A normal consensus round frame.
    Round(Envelope<M>),
    /// A laggard asking peers to describe a snapshot past `have_slot`.
    SnapshotRequest {
        /// Claimed sender (authenticated at the transport layer, like
        /// [`Envelope::sender`]).
        sender: ProcessId,
        /// The requester's contiguous committed log ends here.
        have_slot: u64,
    },
    /// A peer's snapshot description, answering a request.
    Manifest {
        /// Claimed sender (transport-authenticated).
        sender: ProcessId,
        /// The verifiable description (chunks are fetched separately).
        manifest: SnapshotManifest,
    },
    /// The requester pulling one chunk of a vouched manifest.
    ChunkRequest {
        /// Claimed sender (transport-authenticated).
        sender: ProcessId,
        /// The manifest's snapshot cut (identifies which snapshot).
        upto_slot: u64,
        /// Which chunk.
        index: u32,
    },
    /// One chunk of snapshot state.
    Chunk {
        /// Claimed sender (transport-authenticated).
        sender: ProcessId,
        /// The manifest's snapshot cut.
        upto_slot: u64,
        /// Which chunk.
        index: u32,
        /// CRC-32 of `bytes` (accidental-corruption check; the SHA-256
        /// over the assembled state is the trust check).
        crc: u32,
        /// The chunk payload (≤ [`CHUNK_BYTES`]).
        bytes: Vec<u8>,
    },
}

impl<M> SyncFrame<M> {
    /// The transport-authenticated sender this frame claims.
    #[must_use]
    pub fn sender(&self) -> ProcessId {
        match self {
            SyncFrame::Round(env) => env.sender,
            SyncFrame::SnapshotRequest { sender, .. }
            | SyncFrame::Manifest { sender, .. }
            | SyncFrame::ChunkRequest { sender, .. }
            | SyncFrame::Chunk { sender, .. } => *sender,
        }
    }
}

impl<M: Wire> SyncFrame<M> {
    /// Encodes `SyncFrame::Round(Envelope { sender, round, msg })` from a
    /// borrowed message: the bytes equal the owned frame's encoding, and
    /// the bundle need not be cloned into an [`Envelope`] first.
    #[must_use]
    pub fn encode_round(sender: ProcessId, round: Round, msg: &M) -> Bytes {
        let mut buf = BytesMut::new();
        encode_round_into(&mut buf, sender, round, msg);
        buf.freeze()
    }
}

/// The one encoder of a round frame, shared by the owned and the borrowed
/// paths.
fn encode_round_into<M: Wire>(buf: &mut BytesMut, sender: ProcessId, round: Round, msg: &M) {
    buf.put_u8(1);
    sender.encode(buf);
    round.encode(buf);
    msg.encode(buf);
}

impl<M: Wire> Wire for SyncFrame<M> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            SyncFrame::Round(env) => encode_round_into(buf, env.sender, env.round, &env.msg),
            SyncFrame::SnapshotRequest { sender, have_slot } => {
                buf.put_u8(2);
                sender.encode(buf);
                have_slot.encode(buf);
            }
            SyncFrame::Manifest { sender, manifest } => {
                buf.put_u8(4);
                sender.encode(buf);
                manifest.encode(buf);
            }
            SyncFrame::ChunkRequest {
                sender,
                upto_slot,
                index,
            } => {
                buf.put_u8(5);
                sender.encode(buf);
                upto_slot.encode(buf);
                index.encode(buf);
            }
            SyncFrame::Chunk {
                sender,
                upto_slot,
                index,
                crc,
                bytes,
            } => {
                buf.put_u8(6);
                sender.encode(buf);
                upto_slot.encode(buf);
                index.encode(buf);
                crc.encode(buf);
                (bytes.len() as u32).encode(buf);
                buf.put_slice(bytes);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            1 => Ok(SyncFrame::Round(Envelope::decode(buf)?)),
            2 => Ok(SyncFrame::SnapshotRequest {
                sender: ProcessId::decode(buf)?,
                have_slot: u64::decode(buf)?,
            }),
            4 => Ok(SyncFrame::Manifest {
                sender: ProcessId::decode(buf)?,
                manifest: SnapshotManifest::decode(buf)?,
            }),
            5 => Ok(SyncFrame::ChunkRequest {
                sender: ProcessId::decode(buf)?,
                upto_slot: u64::decode(buf)?,
                index: u32::decode(buf)?,
            }),
            6 => {
                let sender = ProcessId::decode(buf)?;
                let upto_slot = u64::decode(buf)?;
                let index = u32::decode(buf)?;
                let crc = u32::decode(buf)?;
                let len = u32::decode(buf)? as usize;
                if len > CHUNK_BYTES {
                    return Err(WireError::TooLong(len));
                }
                if buf.remaining() < len {
                    return Err(WireError::UnexpectedEof);
                }
                Ok(SyncFrame::Chunk {
                    sender,
                    upto_slot,
                    index,
                    crc,
                    bytes: buf.split_to(len).to_vec(),
                })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// What [`ChunkAssembly::finish`] found.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AssemblyOutcome {
    /// Chunks are still missing; keep fetching.
    Incomplete,
    /// Every chunk arrived but the assembled state failed the manifest's
    /// SHA-256 — some voucher served lying chunks. All fetched chunks
    /// were discarded; re-fetch from other vouchers.
    Corrupt,
    /// The assembled, hash-verified state bytes.
    Done(Vec<u8>),
}

/// Resumable reassembly of one manifest's chunk stream.
///
/// Chunks may arrive in any order, duplicated, truncated or corrupted;
/// `accept` rejects anything that does not match the manifest's geometry
/// or its own CRC, and `finish` installs nothing unless the concatenation
/// matches the manifest's SHA-256 — a wrong state is never produced, no
/// matter what bytes are fed in.
#[derive(Clone, Debug)]
pub struct ChunkAssembly {
    manifest: SnapshotManifest,
    chunks: Vec<Option<Vec<u8>>>,
    have: u32,
}

impl ChunkAssembly {
    /// Starts assembling `manifest`'s state. `None` if the manifest is
    /// internally inconsistent.
    #[must_use]
    pub fn new(manifest: SnapshotManifest) -> Option<Self> {
        if !manifest.consistent() {
            return None;
        }
        Some(ChunkAssembly {
            chunks: vec![None; manifest.chunks as usize],
            have: 0,
            manifest,
        })
    }

    /// The manifest being assembled.
    #[must_use]
    pub fn manifest(&self) -> &SnapshotManifest {
        &self.manifest
    }

    /// Chunks received so far.
    #[must_use]
    pub fn have(&self) -> u32 {
        self.have
    }

    /// Whether every chunk arrived (the SHA check still gates `finish`).
    #[must_use]
    pub fn complete(&self) -> bool {
        self.have == self.manifest.chunks
    }

    /// Indices still missing, smallest first, at most `limit` of them.
    #[must_use]
    pub fn missing(&self, limit: usize) -> Vec<u32> {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| i as u32)
            .take(limit)
            .collect()
    }

    /// Discards every fetched chunk, keeping the manifest — used when a
    /// fetch rotates to a different source mid-assembly, so one attempt
    /// never mixes chunks from two senders (the anti-poisoning argument
    /// needs a clean, single-source assembly).
    pub fn clear(&mut self) {
        for c in &mut self.chunks {
            *c = None;
        }
        self.have = 0;
    }

    /// Offers one received chunk. Returns whether it was newly accepted
    /// (geometry and CRC both check out and the slot was empty).
    pub fn accept(&mut self, index: u32, crc: u32, bytes: Vec<u8>) -> bool {
        if index >= self.manifest.chunks
            || bytes.len() != self.manifest.chunk_len(index)
            || crc32(&bytes) != crc
        {
            return false;
        }
        let slot = &mut self.chunks[index as usize];
        if slot.is_some() {
            return false;
        }
        *slot = Some(bytes);
        self.have += 1;
        true
    }

    /// Tries to produce the verified state. On [`AssemblyOutcome::Corrupt`]
    /// every fetched chunk is discarded so the fetch can resume cleanly.
    pub fn finish(&mut self) -> AssemblyOutcome {
        if !self.complete() {
            return AssemblyOutcome::Incomplete;
        }
        let mut state = Vec::with_capacity(self.manifest.total_len as usize);
        for chunk in self.chunks.iter().flatten() {
            state.extend_from_slice(chunk);
        }
        if sha256(&state) != self.manifest.sha256 {
            self.clear();
            return AssemblyOutcome::Corrupt;
        }
        AssemblyOutcome::Done(state)
    }
}

/// The chunked transfer payload: the application's folded state plus the
/// replica resume data a receiver needs to continue the shared log
/// without the applied history.
///
/// * `applied_len` — absolute applied-command count the fold covers (the
///   installer's new applied base);
/// * `dedup` — the `(command, slot)` dedup-window entries still live at
///   the snapshot cut (commands applied within the dedup horizon before
///   the cut), in apply order. A pure function of the shared committed
///   sequence, so every replica folds the byte-identical window;
/// * `app` — the [`App`](../../gencon_app/trait.App.html)-folded state
///   bytes, opaque at this layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FoldedState<V> {
    /// Applied commands covered by the fold.
    pub applied_len: u64,
    /// Live dedup-window `(command, applied_slot)` pairs at the cut.
    pub dedup: Vec<(V, u64)>,
    /// Application-folded state bytes.
    pub app: Vec<u8>,
}

/// Appends the [`FoldedState`] encoding of its parts to `buf` without
/// building one: `applied_len` u64, the pair count u32, each `(cmd, slot)`
/// pair, the app length u32 and the app bytes. `dedup` must yield exactly
/// `pairs` pairs. Lets a folder encode its window straight from the
/// batches it shares with the replica.
pub fn encode_folded<'a, V: Value + Wire + 'a>(
    buf: &mut BytesMut,
    applied_len: u64,
    pairs: usize,
    dedup: impl IntoIterator<Item = (&'a V, u64)>,
    app: &[u8],
) {
    applied_len.encode(buf);
    (pairs as u32).encode(buf);
    let mut written = 0;
    for (cmd, slot) in dedup {
        cmd.encode(buf);
        slot.encode(buf);
        written += 1;
    }
    debug_assert_eq!(written, pairs, "the pair count heads the pairs");
    (app.len() as u32).encode(buf);
    buf.put_slice(app);
}

impl<V: Value + Wire> Wire for FoldedState<V> {
    fn encode(&self, buf: &mut BytesMut) {
        encode_folded(
            buf,
            self.applied_len,
            self.dedup.len(),
            self.dedup.iter().map(|(cmd, slot)| (cmd, *slot)),
            &self.app,
        );
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let applied_len = u64::decode(buf)?;
        let len = u32::decode(buf)? as usize;
        // Per-frame sanity: a pair encodes to ≥ 9 bytes, so a count
        // beyond the remaining payload is garbage — no fixed cap needed
        // (the chunked protocol already bounds the assembled size).
        if len > buf.remaining() {
            return Err(WireError::TooLong(len));
        }
        let mut dedup = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            let cmd = V::decode(buf)?;
            let slot = u64::decode(buf)?;
            dedup.push((cmd, slot));
        }
        let app_len = u32::decode(buf)? as usize;
        if app_len > buf.remaining() {
            return Err(WireError::TooLong(app_len));
        }
        let app = buf.split_to(app_len).to_vec();
        if buf.remaining() > 0 {
            return Err(WireError::TooLong(buf.remaining()));
        }
        Ok(FoldedState {
            applied_len,
            dedup,
            app,
        })
    }
}

/// Encodes applied `(command, slot)` pairs — the codec `LogApp` (the
/// full-history application) folds its state with, and the WAL-replay
/// tail format.
#[must_use]
pub fn encode_state<V: Value + Wire>(pairs: &[(V, u64)]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    (pairs.len() as u32).encode(&mut buf);
    for (cmd, slot) in pairs {
        cmd.encode(&mut buf);
        slot.encode(&mut buf);
    }
    buf.into()
}

/// Decodes applied `(command, slot)` pairs (see [`encode_state`]).
/// Rejects pair counts beyond the available bytes and trailing garbage;
/// there is **no fixed command-count cap** — state size is bounded by the
/// chunked transfer geometry, not by this codec.
///
/// # Errors
///
/// Returns [`WireError`] on truncated input, oversized counts or
/// trailing garbage.
pub fn decode_state<V: Value + Wire>(state: &[u8]) -> Result<Vec<(V, u64)>, WireError> {
    let mut buf = Bytes::from(state);
    let len = u32::decode(&mut buf)? as usize;
    // Each pair encodes to ≥ 9 bytes; a count beyond the remaining
    // payload cannot be honest (per-frame sanity in place of the old
    // MAX_SNAPSHOT_CMDS history ceiling).
    if len > buf.remaining() {
        return Err(WireError::TooLong(len));
    }
    let mut pairs = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        let cmd = V::decode(&mut buf)?;
        let slot = u64::decode(&mut buf)?;
        pairs.push((cmd, slot));
    }
    if buf.remaining() > 0 {
        return Err(WireError::TooLong(buf.remaining()));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_core::{ConsensusMsg, DecisionMsg};
    use gencon_types::{Phase, Round};

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let mut buf = bytes.clone();
        let back = T::decode(&mut buf).expect("decodes");
        assert_eq!(back, v);
        assert_eq!(buf.remaining(), 0, "no trailing bytes");
    }

    fn sample_manifest() -> SnapshotManifest {
        SnapshotManifest::describe(512, 4_000, &vec![0xAB; CHUNK_BYTES + 100])
    }

    #[test]
    fn manifest_and_frames_roundtrip() {
        roundtrip(sample_manifest());
        roundtrip(SyncFrame::<ConsensusMsg<u64>>::SnapshotRequest {
            sender: ProcessId::new(3),
            have_slot: 17,
        });
        roundtrip(SyncFrame::<ConsensusMsg<u64>>::Manifest {
            sender: ProcessId::new(1),
            manifest: sample_manifest(),
        });
        roundtrip(SyncFrame::<ConsensusMsg<u64>>::ChunkRequest {
            sender: ProcessId::new(2),
            upto_slot: 512,
            index: 1,
        });
        roundtrip(SyncFrame::<ConsensusMsg<u64>>::Chunk {
            sender: ProcessId::new(0),
            upto_slot: 512,
            index: 1,
            crc: crc32(&[1, 2, 3]),
            bytes: vec![1, 2, 3],
        });
        roundtrip(SyncFrame::Round(Envelope {
            sender: ProcessId::new(2),
            round: Round::new(9),
            msg: ConsensusMsg::<u64>::Decision(
                Phase::new(3),
                DecisionMsg {
                    vote: 7,
                    ts: Phase::new(3),
                },
            ),
        }));
    }

    #[test]
    fn borrowed_round_encoding_matches_the_owned_frame() {
        let msg = ConsensusMsg::<u64>::Decision(
            Phase::new(3),
            DecisionMsg {
                vote: 7,
                ts: Phase::new(3),
            },
        );
        let (sender, round) = (ProcessId::new(2), Round::new(9));
        let borrowed = SyncFrame::encode_round(sender, round, &msg);
        let owned = SyncFrame::Round(Envelope { sender, round, msg }).to_bytes();
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn manifest_geometry() {
        let m = sample_manifest();
        assert!(m.consistent());
        assert_eq!(m.chunks, 2);
        assert_eq!(m.chunk_len(0), CHUNK_BYTES);
        assert_eq!(m.chunk_len(1), 100);
        assert_eq!(m.chunk_len(2), 0);
        let empty = SnapshotManifest::describe(8, 0, &[]);
        assert!(empty.consistent());
        assert_eq!(empty.chunks, 0);
        let mut broken = m;
        broken.chunks = 9;
        assert!(!broken.consistent());
    }

    #[test]
    fn chunk_slicing_covers_the_state() {
        let state: Vec<u8> = (0..(2 * CHUNK_BYTES + 7)).map(|i| i as u8).collect();
        let m = SnapshotManifest::describe(64, 10, &state);
        assert_eq!(m.chunks, 3);
        let mut whole = Vec::new();
        for i in 0..m.chunks {
            whole.extend_from_slice(m.chunk_of(&state, i).unwrap());
        }
        assert_eq!(whole, state);
        assert!(m.chunk_of(&state, 3).is_none());
        assert!(m.chunk_of(&state[1..], 0).is_none(), "length mismatch");
    }

    #[test]
    fn assembly_accepts_only_valid_chunks_and_verifies_sha() {
        let state: Vec<u8> = (0..(CHUNK_BYTES + 50)).map(|i| (i * 7) as u8).collect();
        let m = SnapshotManifest::describe(128, 99, &state);
        let mut asm = ChunkAssembly::new(m).unwrap();
        assert_eq!(asm.missing(10), vec![0, 1]);
        assert_eq!(asm.finish(), AssemblyOutcome::Incomplete);

        let c1 = m.chunk_of(&state, 1).unwrap().to_vec();
        // Wrong CRC rejected.
        assert!(!asm.accept(1, crc32(&c1).wrapping_add(1), c1.clone()));
        // Wrong length rejected.
        assert!(!asm.accept(1, crc32(&c1[..10]), c1[..10].to_vec()));
        // Out-of-range index rejected.
        assert!(!asm.accept(2, crc32(&c1), c1.clone()));
        // Valid chunk accepted once.
        assert!(asm.accept(1, crc32(&c1), c1.clone()));
        assert!(!asm.accept(1, crc32(&c1), c1), "duplicate rejected");
        assert_eq!(asm.missing(10), vec![0]);

        let c0 = m.chunk_of(&state, 0).unwrap().to_vec();
        assert!(asm.accept(0, crc32(&c0), c0));
        assert!(asm.complete());
        assert_eq!(asm.finish(), AssemblyOutcome::Done(state));
    }

    #[test]
    fn assembly_discards_lying_chunks_on_sha_mismatch() {
        let state: Vec<u8> = vec![9; 100];
        let m = SnapshotManifest::describe(8, 5, &state);
        let mut asm = ChunkAssembly::new(m).unwrap();
        // A chunk with a *valid CRC over wrong bytes* — what a Byzantine
        // voucher would serve. Accepted at the CRC layer...
        let lie = vec![8; 100];
        assert!(asm.accept(0, crc32(&lie), lie));
        // ...but the SHA gate catches it and clears the fetch.
        assert_eq!(asm.finish(), AssemblyOutcome::Corrupt);
        assert_eq!(asm.have(), 0);
        // The honest chunk then assembles fine.
        assert!(asm.accept(0, crc32(&state), state.clone()));
        assert_eq!(asm.finish(), AssemblyOutcome::Done(state));
    }

    #[test]
    fn inconsistent_manifests_are_refused() {
        let mut m = sample_manifest();
        m.total_len = 3 * CHUNK_BYTES as u64; // ceil ≠ claimed chunk count
        assert!(ChunkAssembly::new(m).is_none());
        let mut m2 = sample_manifest();
        m2.chunks = MAX_CHUNKS + 1;
        assert!(ChunkAssembly::new(m2).is_none());
    }

    #[test]
    fn folded_state_roundtrips_and_rejects_garbage() {
        let fs = FoldedState {
            applied_len: 4_000,
            dedup: (0..50u64).map(|i| (i * 3, 100 + i)).collect(),
            app: vec![1, 2, 3, 4, 5],
        };
        roundtrip(fs.clone());
        let bytes = fs.to_bytes();
        for cut in 0..bytes.len() {
            let mut b = bytes.slice(..cut);
            assert!(FoldedState::<u64>::decode(&mut b).is_err());
        }
        let mut padded = BytesMut::new();
        padded.put_slice(&bytes);
        padded.put_u8(0);
        assert!(FoldedState::<u64>::decode(&mut padded.freeze()).is_err());
    }

    #[test]
    fn sender_accessor_covers_all_variants() {
        let frames = [
            SyncFrame::<u64>::SnapshotRequest {
                sender: ProcessId::new(5),
                have_slot: 0,
            },
            SyncFrame::<u64>::Manifest {
                sender: ProcessId::new(5),
                manifest: sample_manifest(),
            },
            SyncFrame::<u64>::ChunkRequest {
                sender: ProcessId::new(5),
                upto_slot: 1,
                index: 0,
            },
            SyncFrame::<u64>::Chunk {
                sender: ProcessId::new(5),
                upto_slot: 1,
                index: 0,
                crc: 0,
                bytes: Vec::new(),
            },
        ];
        for f in frames {
            assert_eq!(f.sender(), ProcessId::new(5));
        }
    }

    #[test]
    fn state_roundtrips_and_rejects_garbage() {
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i * 7, i / 3)).collect();
        let state = encode_state(&pairs);
        assert_eq!(decode_state::<u64>(&state).unwrap(), pairs);
        // Truncations are rejected.
        for cut in 0..state.len() {
            assert!(decode_state::<u64>(&state[..cut]).is_err());
        }
        // Trailing bytes are rejected.
        let mut padded = state.clone();
        padded.push(0);
        assert!(decode_state::<u64>(&padded).is_err());
    }

    #[test]
    fn oversized_lengths_are_rejected() {
        // Pair count beyond the available bytes.
        let mut buf = BytesMut::new();
        u32::MAX.encode(&mut buf);
        assert!(matches!(
            decode_state::<u64>(&buf.freeze()),
            Err(WireError::TooLong(_))
        ));
        // Chunk payload over the per-frame cap.
        let mut buf = BytesMut::new();
        buf.put_u8(6);
        ProcessId::new(0).encode(&mut buf);
        0u64.encode(&mut buf);
        0u32.encode(&mut buf);
        0u32.encode(&mut buf);
        ((CHUNK_BYTES + 1) as u32).encode(&mut buf);
        let mut b = buf.freeze();
        assert!(matches!(
            SyncFrame::<u64>::decode(&mut b),
            Err(WireError::TooLong(_))
        ));
        // Manifest chunk count over the sanity ceiling.
        let mut buf = BytesMut::new();
        1u64.encode(&mut buf);
        1u64.encode(&mut buf);
        (MAX_CHUNKS + 1).encode(&mut buf);
        let mut b = buf.freeze();
        assert!(matches!(
            SnapshotManifest::decode(&mut b),
            Err(WireError::TooLong(_))
        ));
    }

    #[test]
    fn bad_tags_are_rejected() {
        // Tag 3 was the retired single-frame SnapshotResponse; it must
        // not decode any more.
        for tag in [0u8, 3, 9] {
            let mut buf = Bytes::from(vec![tag, 0, 0, 0, 0]);
            assert_eq!(
                SyncFrame::<u64>::decode(&mut buf),
                Err(WireError::BadTag(tag))
            );
        }
    }
}
