//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the minimal subset of the `bytes 1.x` API it actually uses:
//! [`Bytes`] (cheaply cloneable, consumable from the front), [`BytesMut`]
//! (append-only builder) and the [`Buf`]/[`BufMut`] traits with the
//! little-endian accessors the wire codec calls. Cheap cloning is backed
//! by `Arc<[u8]>` rather than the real crate's vtable machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable byte buffer, consumable from the front.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Builds a buffer from a static byte slice. Unlike the real crate
    /// this copies once into shared storage; clones stay cheap.
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Bytes remaining (the real crate exposes this via [`Buf`] too).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-buffer over `range` (relative to the current front).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `at` bytes, advancing `self`.
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Copies the remaining bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    fn take_front(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "buffer underflow");
        let s = self.start;
        self.start += n;
        &self.data[s..s + n]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

/// An append-only byte buffer builder.
#[derive(Clone, Default, Debug)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty builder with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Freezes the builder into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl From<BytesMut> for Vec<u8> {
    /// Takes the written bytes without copying them.
    fn from(b: BytesMut) -> Self {
        b.vec
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

/// Read access to a byte buffer, consuming from the front.
pub trait Buf {
    /// Bytes remaining.
    fn remaining(&self) -> usize;

    /// Consumes and returns one byte.
    fn get_u8(&mut self) -> u8;

    /// Consumes and returns a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;

    /// Consumes and returns a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        self.take_front(1)[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_front(4).try_into().unwrap())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_front(8).try_into().unwrap())
    }
}

/// Write access to a byte buffer, appending at the back.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);

    /// Appends a byte slice.
    fn put_slice(&mut self, s: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.vec.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.vec.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.vec.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u32_le(0xdead_beef);
        m.put_u64_le(u64::MAX - 1);
        m.put_slice(b"xyz");
        let mut b = m.freeze();
        assert_eq!(b.remaining(), 1 + 4 + 8 + 3);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xdead_beef);
        assert_eq!(b.get_u64_le(), u64::MAX - 1);
        assert_eq!(b.to_vec(), b"xyz");
    }

    #[test]
    fn split_and_slice() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.to_vec(), vec![1, 2]);
        assert_eq!(b.to_vec(), vec![3, 4, 5]);
        let s = b.slice(1..3);
        assert_eq!(s.to_vec(), vec![4, 5]);
        assert_eq!(b.len(), 3, "slice does not consume");
    }

    #[test]
    fn clones_share_storage_but_not_cursor() {
        let mut a = Bytes::from_static(b"abcd");
        let c = a.clone();
        a.get_u8();
        assert_eq!(a.len(), 3);
        assert_eq!(c.len(), 4);
    }
}
