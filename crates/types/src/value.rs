//! The consensus value abstraction.

use std::fmt::Debug;
use std::hash::Hash;

/// A value that processes can propose and decide on.
///
/// The generic algorithm needs values to be comparable for equality (to count
/// identical votes), hashable (to tally votes efficiently), totally ordered
/// (line 11 of Algorithm 1 *chooses deterministically* among received values —
/// we pick the minimum) and cheaply clonable. `Sync` lets values be shared
/// across threads behind an `Arc` (see [`Batch`](crate::Batch)).
///
/// `Value` is automatically implemented for every type satisfying the bounds,
/// including `bool` (binary consensus, §6), integers, `String` and
/// `Vec<u8>` payloads.
///
/// ```
/// fn assert_value<V: gencon_types::Value>() {}
/// assert_value::<bool>();
/// assert_value::<u64>();
/// assert_value::<String>();
/// assert_value::<Vec<u8>>();
/// ```
pub trait Value: Clone + Eq + Ord + Hash + Debug + Send + Sync + 'static {}

impl<T> Value for T where T: Clone + Eq + Ord + Hash + Debug + Send + Sync + 'static {}

/// Encodes a command id: 16 bits namespace (one per client process, so
/// concurrent clients never collide), 16 bits client, 32 bits sequence.
#[must_use]
pub fn encode_cmd(namespace: u16, client: u16, seq: u32) -> u64 {
    (u64::from(namespace) << 48) | (u64::from(client) << 32) | u64::from(seq)
}

/// Decodes a command id into `(namespace, client, seq)`.
#[must_use]
pub fn decode_cmd(cmd: u64) -> (u16, u16, u32) {
    ((cmd >> 48) as u16, (cmd >> 32) as u16, cmd as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmd_encoding_round_trips() {
        for (ns, c, s) in [
            (0u16, 0u16, 0u32),
            (3, 17, 999_999),
            (u16::MAX, u16::MAX, u32::MAX),
        ] {
            assert_eq!(decode_cmd(encode_cmd(ns, c, s)), (ns, c, s));
        }
        // Distinct namespaces never collide even at equal (client, seq).
        assert_ne!(encode_cmd(0, 1, 2), encode_cmd(1, 1, 2));
    }

    fn takes_value<V: Value>(v: V) -> V {
        v
    }

    #[test]
    fn common_types_are_values() {
        assert!(takes_value(true));
        assert_eq!(takes_value(42u64), 42);
        assert_eq!(takes_value("cmd".to_string()), "cmd");
        assert_eq!(takes_value(vec![1u8, 2]), vec![1, 2]);
        assert_eq!(takes_value((1u32, "a".to_string())), (1, "a".to_string()));
    }
}
