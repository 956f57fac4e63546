//! Batches of client commands proposed as one consensus value.
//!
//! Running one consensus instance per client command wastes the fixed
//! per-instance round cost. The standard amortization is to let a replica
//! drain its pending queue into a [`Batch`] and decide the whole batch in a
//! single slot: per-command cost collapses by the batch size while the
//! per-slot Agreement argument is untouched (a batch is just a value).
//!
//! `Batch<V>` derives everything the [`Value`](crate::Value) bounds need, so
//! the blanket implementation makes it a first-class consensus value:
//!
//! ```
//! fn assert_value<V: gencon_types::Value>() {}
//! assert_value::<gencon_types::Batch<u64>>();
//! ```
//!
//! The `Ord` implementation is lexicographic over the command vector
//! **except that the empty batch sorts last**: `ChoicePolicy::
//! DeterministicMin` then always prefers a real proposal over the no-op
//! filler, so replicas whose queues drained cannot starve the loaded ones
//! by winning slots with empty batches. (Any deterministic total order
//! keeps the paper's tie-break argument; this one also keeps the log
//! useful under partial load.)
//!
//! The commands live behind an [`Arc`]: a batch travels through every
//! engine message, history entry, relay and heard-of set of its slot, and
//! each of those hops clones it. Cloning bumps a reference count, and
//! equality and ordering short-cut on shared storage.

use std::sync::Arc;

/// An ordered batch of client commands, decided as a single consensus value.
#[derive(Clone, Eq, Debug, Default)]
pub struct Batch<V> {
    commands: Arc<Vec<V>>,
}

impl<V: PartialEq> PartialEq for Batch<V> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.commands, &other.commands) || self.commands == other.commands
    }
}

// Hashes the commands, consistent with the content equality above.
impl<V: std::hash::Hash> std::hash::Hash for Batch<V> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.commands.hash(state);
    }
}

impl<V: Ord> Ord for Batch<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if Arc::ptr_eq(&self.commands, &other.commands) {
            return Ordering::Equal;
        }
        match (self.commands.is_empty(), other.commands.is_empty()) {
            (true, true) => Ordering::Equal,
            // Empty (no-op) batches are the *greatest* values: a real
            // proposal always wins a DeterministicMin tie-break.
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => self.commands.as_slice().cmp(other.commands.as_slice()),
        }
    }
}

impl<V: Ord> PartialOrd for Batch<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<V> Batch<V> {
    /// Creates a batch from the given commands (order is preserved into the
    /// applied log).
    #[must_use]
    pub fn new(commands: Vec<V>) -> Self {
        Batch {
            commands: Arc::new(commands),
        }
    }

    /// The empty batch — the no-op a replica proposes when its queue is
    /// empty but the slot must still fill.
    #[must_use]
    pub fn empty() -> Self {
        Batch::new(Vec::new())
    }

    /// The batched commands, in proposal order.
    #[must_use]
    pub fn commands(&self) -> &[V] {
        &self.commands
    }

    /// Number of commands in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether the batch is a no-op.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Consumes the batch, yielding its commands: moved out when this is
    /// the last handle on them, copied when a clone still shares them.
    #[must_use]
    pub fn into_commands(self) -> Vec<V>
    where
        V: Clone,
    {
        Arc::try_unwrap(self.commands).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// Iterates over the commands.
    pub fn iter(&self) -> std::slice::Iter<'_, V> {
        self.commands.iter()
    }
}

/// One slot of a replica's applied command log: the commands that slot
/// applied, held as a [`Batch`] handle. When every command of the
/// committed batch was new, this is the committed batch itself (no
/// copy); otherwise it holds the new commands only.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AppliedSlot<V> {
    /// The consensus slot the commands committed in.
    pub slot: u64,
    /// Absolute log offset of the slot's first applied command.
    pub offset: u64,
    /// The slot's applied commands, in apply order.
    pub batch: Batch<V>,
}

impl<V> AppliedSlot<V> {
    /// One past the absolute offset of the slot's last applied command.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.offset + self.batch.len() as u64
    }

    /// `(offset, command)` for the slot's commands at absolute offsets at
    /// or above `from`.
    pub fn commands_from(&self, from: u64) -> impl Iterator<Item = (u64, &V)> {
        let skip = usize::try_from(from.saturating_sub(self.offset)).unwrap_or(usize::MAX);
        (self.offset..).zip(self.batch.iter()).skip(skip)
    }
}

/// Groups `(command, slot)` pairs, in slot order, into one `(slot, batch)`
/// per slot — the per-slot form of a folded snapshot's dedup window.
pub fn group_by_slot<V: Clone>(pairs: &[(V, u64)]) -> Vec<(u64, Batch<V>)> {
    pairs
        .chunk_by(|a, b| a.1 == b.1)
        .map(|run| {
            (
                run[0].1,
                Batch::new(run.iter().map(|(c, _)| c.clone()).collect()),
            )
        })
        .collect()
}

impl<V> From<Vec<V>> for Batch<V> {
    fn from(commands: Vec<V>) -> Self {
        Batch::new(commands)
    }
}

impl<V: Clone> IntoIterator for Batch<V> {
    type Item = V;
    type IntoIter = std::vec::IntoIter<V>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_commands().into_iter()
    }
}

impl<'a, V> IntoIterator for &'a Batch<V> {
    type Item = &'a V;
    type IntoIter = std::slice::Iter<'a, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.commands.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let b = Batch::new(vec![3u64, 1, 2]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.commands(), &[3, 1, 2]);
        assert_eq!(b.clone().into_commands(), vec![3, 1, 2]);
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![3, 1, 2]);
        let e: Batch<u64> = Batch::empty();
        assert!(e.is_empty());
        assert_eq!(e, Batch::default());
    }

    #[test]
    fn empty_batch_sorts_last() {
        let noop: Batch<u64> = Batch::empty();
        let real = Batch::new(vec![0u64]);
        assert!(real < noop, "a real proposal must win DeterministicMin");
        assert_eq!(noop.cmp(&Batch::empty()), std::cmp::Ordering::Equal);
        assert!(Batch::new(vec![1u64]) < Batch::new(vec![2u64]));
        assert!(Batch::new(vec![1u64]) < Batch::new(vec![1u64, 0]));
        assert!(Batch::new(vec![u64::MAX]) < noop);
    }

    #[test]
    fn batch_is_a_value() {
        fn assert_value<V: crate::Value>() {}
        assert_value::<Batch<u64>>();
        assert_value::<Batch<String>>();
    }

    #[test]
    fn clones_share_storage() {
        let b = Batch::new(vec![1u64, 2, 3]);
        let c = b.clone();
        assert!(std::ptr::eq(b.commands().as_ptr(), c.commands().as_ptr()));
        // The fast path and the element-wise comparison agree.
        let equal_copy = Batch::new(vec![1u64, 2, 3]);
        assert_eq!(b, c);
        assert_eq!(b, equal_copy);
        assert_eq!(b.cmp(&c), std::cmp::Ordering::Equal);
        assert_eq!(b.cmp(&equal_copy), std::cmp::Ordering::Equal);
        let noop: Batch<u64> = Batch::empty();
        assert_eq!(noop.cmp(&noop.clone()), std::cmp::Ordering::Equal);
        assert!(b < noop);
    }

    #[test]
    fn into_commands_on_unique_and_shared_batches() {
        let unique = Batch::new(vec![4u64, 5]);
        let ptr = unique.commands().as_ptr();
        let moved = unique.into_commands();
        assert_eq!(moved, vec![4, 5]);
        assert!(
            std::ptr::eq(moved.as_ptr(), ptr),
            "a unique batch moves out"
        );
        let shared = Batch::new(vec![6u64, 7]);
        let keep = shared.clone();
        assert_eq!(shared.into_commands(), vec![6, 7]);
        assert_eq!(keep.commands(), &[6, 7], "the other handle is untouched");
    }

    #[test]
    fn iteration() {
        let b = Batch::from(vec![1u64, 2]);
        let by_ref: Vec<u64> = (&b).into_iter().copied().collect();
        assert_eq!(by_ref, vec![1, 2]);
        let owned: Vec<u64> = b.into_iter().collect();
        assert_eq!(owned, vec![1, 2]);
    }
}
