//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), slicing-by-8.
//!
//! Used as a cheap per-record / per-chunk integrity check: the WAL frames
//! every record with it so recovery can tell a torn or corrupted tail
//! from valid data, and chunked snapshot state transfer stamps every
//! chunk frame so accidental damage is caught before reassembly. CRC-32
//! is an integrity check against accidental corruption, not an
//! authenticator — data that crosses trust boundaries (snapshot states
//! vouched for by peers) additionally carries a SHA-256 hash.
//!
//! [`update`] consumes eight bytes per step through eight 256-entry
//! tables (`TABLES[k]` advances a byte's contribution by `k` more zero
//! bytes), all built at compile time; the tail shorter than eight bytes
//! goes through the classic one-table loop. Both give the same CRC.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Feeds `data` into a running (pre-inverted) CRC state; compose as
/// `update(update(!0, a), b) ^ !0 == crc32(a ++ b)`.
#[must_use]
pub fn update(state: u32, data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
    let mut c = state;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t7[byte(lo, 0)]
            ^ t6[byte(lo, 8)]
            ^ t5[byte(lo, 16)]
            ^ t4[byte(lo, 24)]
            ^ t3[byte(hi, 0)]
            ^ t2[byte(hi, 8)]
            ^ t1[byte(hi, 16)]
            ^ t0[byte(hi, 24)];
    }
    for &b in words.remainder() {
        c = t0[byte(c ^ u32::from(b), 0)] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `update` replaced: the reference every
    /// slicing path must match.
    fn update_bytewise(state: u32, data: &[u8]) -> u32 {
        let mut c = state;
        for &b in data {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    /// 264 bytes of an xorshift stream: every length 0..=256 at every
    /// start offset 0..8 fits.
    fn sample() -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..264)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn check_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_and_composition() {
        assert_eq!(crc32(b""), 0);
        let whole = crc32(b"hello world");
        let composed = update(update(0xFFFF_FFFF, b"hello "), b"world") ^ 0xFFFF_FFFF;
        assert_eq!(whole, composed);
    }

    #[test]
    fn slicing_matches_the_bytewise_reference() {
        let data = sample();
        for start in 0..8 {
            for len in 0..=256 {
                let part = &data[start..start + len];
                for state in [0xFFFF_FFFF, 0x1234_5678] {
                    assert_eq!(
                        update(state, part),
                        update_bytewise(state, part),
                        "start {start}, len {len}, state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_composes_across_unaligned_splits() {
        let data = sample();
        let whole = crc32(&data);
        for split in (0..=data.len()).filter(|s| s % 8 != 0) {
            let (a, b) = data.split_at(split);
            assert_eq!(update(update(!0, a), b) ^ !0, whole, "split at {split}");
            for second in (split..=data.len()).step_by(13) {
                let (b, c) = data[split..].split_at(second - split);
                let three = update(update(update(!0, a), b), c) ^ !0;
                assert_eq!(three, whole, "splits at {split} and {second}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"the committed prefix".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }
}
