//! The batch commit path: many client commands per consensus slot.
//!
//! [`BatchingReplica`] wraps a [`Replica`] running over
//! [`Batch<V>`](gencon_types::Batch) values and splits dissemination from
//! agreement. A submitted command is **relayed once**: the next round's
//! bundle carries it to every replica, the sender included. A command
//! becomes **proposable once heard**: each replica appends the relays it
//! hears to its proposal queue in heard order (sender index, then relay
//! order), so in a good round every honest replica holds the same queue
//! and cuts the same cap-sized batch for each new slot. Proposals are
//! then unanimous, which lets every slot skip phase 1's selection round
//! (§3.1): relay, validation and decision make three rounds per command.
//! Committed batches are flattened, in slot order, into the applied
//! command log. Agreement over the flattened log follows from per-slot
//! Agreement: every honest replica commits the same batch in every slot,
//! and flattening is deterministic.
//!
//! A proposal that diverges — a relay was lost, or a Byzantine relayer
//! told peers different things — only costs the slot its phase-1
//! shortcut: phase 2 runs a full selection. Commands of one of our
//! batches that lost its slot go back on the relay list, which keeps
//! every command live under loss.

use gencon_core::{Params, ParamsError};
use gencon_rounds::{HeardOf, Outgoing, Predicate, RoundProcess};
use gencon_types::{Batch, ProcessId, Round, Value};

use crate::{Replica, SmrMsg};

/// A replica that drains its pending queue into one [`Batch`] proposal per
/// slot instead of one command per slot.
///
/// The `commit_target` counts **commands** (not slots): the replica reports
/// [`RoundProcess::output`] — the flattened applied log, truncated to
/// exactly `commit_target` commands so every honest replica reports the
/// identical prefix — once that many commands committed.
///
/// ```
/// use gencon_smr::BatchingReplica;
/// use gencon_algos::pbft;
/// use gencon_types::{Batch, ProcessId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = pbft::<Batch<u64>>(4, 1)?;
/// let mut replica = BatchingReplica::new(
///     ProcessId::new(0),
///     spec.params.clone(),
///     8,  // batch cap: up to 8 commands per slot
///     3,  // commit target, in commands
/// )?;
/// replica.submit(10);
/// replica.submit(20);
/// assert_eq!(replica.queued(), 2);
/// # Ok(())
/// # }
/// ```
pub struct BatchingReplica<V: Value> {
    inner: Replica<Batch<V>>,
    /// Max commands per proposed batch.
    cap: usize,
    /// Commands submitted here (or lost from one of our batches) and not
    /// yet relayed: each send relays up to window × cap of them.
    to_relay: std::collections::VecDeque<V>,
    /// The commands in `to_relay`.
    relaying: std::collections::HashSet<V>,
    /// The proposal queue: commands heard relayed (our own loopback
    /// bundle included), in heard order, not yet drained into a proposed
    /// batch.
    queue: Vec<V>,
    /// Commands in `queue` or in one of the `proposed` batches: a relay
    /// heard again while the command is held queues nothing.
    held: std::collections::HashSet<V>,
    /// The retained flattened applied log (absolute offsets
    /// `[applied_base, applied_base + applied.len())`; the prefix below
    /// `applied_base` was compacted away after a snapshot).
    applied: Vec<V>,
    /// Applied commands discarded by [`BatchingReplica::compact_below`]
    /// (0 until the first compaction).
    applied_base: usize,
    /// Global round at which each applied command committed (parallel to
    /// `applied`) — the harness's latency source.
    applied_rounds: Vec<u64>,
    /// Consensus slot each applied command committed in (parallel to
    /// `applied`) — the client-ack source: a server answers a submission
    /// with the `(slot, offset)` coordinates of the committed command.
    applied_slots: Vec<u64>,
    /// Committed slots already flattened into `applied` (an absolute slot
    /// count, unaffected by compaction).
    flattened: usize,
    /// Output fires at this many applied commands.
    commit_target: usize,
    /// Batches this replica proposed, by slot — compared against the
    /// committed batch so losing commands can be relayed again.
    proposed: std::collections::BTreeMap<crate::Slot, Batch<V>>,
    /// Commands applied within the dedup horizon: with relays,
    /// overlapping batches can win different slots, so flattening
    /// deduplicates. The dedup decision **must be identical on every
    /// honest replica** (it determines the applied log), so membership is
    /// a pure function of the shared committed sequence: a command stays
    /// in the set for exactly `dedup_horizon` slots after the slot it
    /// applied in, evicted by the flatten loop itself — never by local
    /// compaction, which runs at replica-specific times.
    applied_set: std::collections::HashSet<V>,
    /// Eviction queue for `applied_set`: `(slot, command)` in
    /// apply order. Bounds dedup memory to the horizon's worth of
    /// commands however long the replica runs.
    dedup_window: std::collections::VecDeque<(crate::Slot, V)>,
    /// Slots a command stays deduplicated after applying. Must be the
    /// same on every replica of a cluster (it shapes the shared log);
    /// client retries arriving later than this many slots after the
    /// original commit may be applied again (at-most-once within the
    /// horizon — the standard session-expiry tradeoff).
    dedup_horizon: u64,
    /// One past the highest slot any heard bundle referenced: while it is
    /// above the next slot to open, a peer works a slot this replica has
    /// not opened yet (or a restarted replica learned the cluster's head).
    heard_next: crate::Slot,
}

/// Default [`BatchingReplica::with_dedup_horizon`]: far beyond any client
/// retry window at realistic slot rates, small enough to bound memory.
pub const DEFAULT_DEDUP_HORIZON: u64 = 8_192;

impl<V: Value> BatchingReplica<V> {
    /// Creates a batching replica.
    ///
    /// * `params` — consensus parameterization over `Batch<V>` values
    ///   (e.g. `gencon_algos::pbft::<Batch<u64>>(4, 1)?.params`); with a
    ///   constant selector, every slot skips phase 1's selection round;
    /// * `batch_cap` — maximum commands drained into one slot's proposal
    ///   (clamped to at least 1);
    /// * `commit_target` — how many applied **commands** constitute "done".
    ///
    /// # Errors
    ///
    /// Propagates [`ParamsError`] if `params` is invalid.
    pub fn new(
        id: ProcessId,
        mut params: Params<Batch<V>>,
        batch_cap: usize,
        commit_target: usize,
    ) -> Result<Self, ParamsError> {
        // Every replica proposes the batch cut from the same heard relays,
        // so phase 1 starts unanimous and its selection round can go
        // (§3.1); `Params::validate` checks the constant selector this
        // needs, so only a constant selector gets the shortcut.
        params.skip_first_selection |= params.selector.is_constant();
        // The inner commit target is unbounded: demand, not a slot count,
        // opens slots (a slot that opens with a dry queue proposes the
        // empty batch), and *this* replica's command-counted target fires
        // the output. A fresh replica has no demand.
        let mut inner = Replica::new(id, params, Vec::new(), Batch::empty(), usize::MAX)?;
        inner.budget = Some(0);
        Ok(BatchingReplica {
            inner,
            cap: batch_cap.max(1),
            to_relay: std::collections::VecDeque::new(),
            relaying: std::collections::HashSet::new(),
            queue: Vec::new(),
            held: std::collections::HashSet::new(),
            applied: Vec::new(),
            applied_base: 0,
            applied_rounds: Vec::new(),
            applied_slots: Vec::new(),
            flattened: 0,
            commit_target,
            proposed: std::collections::BTreeMap::new(),
            applied_set: std::collections::HashSet::new(),
            dedup_window: std::collections::VecDeque::new(),
            dedup_horizon: DEFAULT_DEDUP_HORIZON,
            heard_next: 0,
        })
    }

    /// Sets the slot pipelining window (see [`Replica::with_window`]).
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.inner = self.inner.with_window(window);
        self
    }

    /// Sets the dedup horizon, in slots (clamped to ≥ 1). **All replicas
    /// of a cluster must use the same value** — the horizon determines
    /// which re-committed commands the shared flatten skips, so differing
    /// horizons would diverge the applied logs.
    #[must_use]
    pub fn with_dedup_horizon(mut self, slots: u64) -> Self {
        self.dedup_horizon = slots.max(1);
        self
    }

    /// Enqueues a client command for relaying: the next round's bundle
    /// carries it to every replica, and it becomes proposable once heard.
    /// Duplicates of commands this replica still holds (waiting to relay,
    /// queued or proposed) or applied within the dedup horizon are
    /// dropped, so client retries and relay echoes are idempotent.
    /// Returns whether the command was freshly enqueued — `false` means
    /// the dedup swallowed it, so a caller holding a client connection
    /// knows to answer the retry from its re-ack index instead of waiting
    /// for a commit that already happened.
    pub fn submit(&mut self, command: V) -> bool {
        if self.applied_set.contains(&command)
            || self.held.contains(&command)
            || !self.relaying.insert(command.clone())
        {
            return false;
        }
        self.to_relay.push_back(command);
        true
    }

    /// Enqueues many client commands (deduplicated, see
    /// [`BatchingReplica::submit`]).
    pub fn submit_all(&mut self, commands: impl IntoIterator<Item = V>) {
        for c in commands {
            self.submit(c);
        }
    }

    /// The retained flattened applied command log, in commit order (the
    /// full log until the first [`BatchingReplica::compact_below`]; the
    /// suffix from absolute offset [`BatchingReplica::applied_base`]
    /// afterwards).
    #[must_use]
    pub fn applied(&self) -> &[V] {
        &self.applied
    }

    /// Applied commands discarded below the compaction point.
    #[must_use]
    pub fn applied_base(&self) -> usize {
        self.applied_base
    }

    /// Total commands ever applied (compacted prefix included).
    #[must_use]
    pub fn applied_len(&self) -> usize {
        self.applied_base + self.applied.len()
    }

    /// The applied log alongside the global round each command committed at.
    #[must_use]
    pub fn applied_with_rounds(&self) -> (&[V], &[u64]) {
        (&self.applied, &self.applied_rounds)
    }

    /// The consensus slot each applied command committed in (parallel to
    /// [`BatchingReplica::applied`]).
    #[must_use]
    pub fn applied_slots(&self) -> &[u64] {
        &self.applied_slots
    }

    /// Commands still queued: waiting to be relayed, or heard and not yet
    /// drained into a proposal.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.to_relay.len() + self.queue.len()
    }

    /// Appends the commands of relay chunks heard from one sender to the
    /// proposal queue, in relay order. A command already applied, queued
    /// or held in one of our open proposals is skipped. The round's
    /// receive step calls this for every heard bundle in sender order; a
    /// driver that closes rounds without executing them (a fast-forward)
    /// calls it for the skipped rounds' bundles, so their relays are not
    /// lost.
    pub fn merge_relays(&mut self, relays: &[Batch<V>]) {
        for cmd in relays.iter().flat_map(Batch::commands) {
            if self.applied_set.contains(cmd) || self.held.contains(cmd) {
                continue;
            }
            self.held.insert(cmd.clone());
            self.queue.push(cmd.clone());
        }
    }

    /// Committed consensus slots so far (including no-op slots and the
    /// compacted prefix).
    #[must_use]
    pub fn committed_slots(&self) -> usize {
        self.inner.committed_len()
    }

    /// The retained committed batches, one per slot from
    /// [`BatchingReplica::committed_base_slot`] — what the durable layer
    /// appends to its write-ahead log.
    #[must_use]
    pub fn committed_batches(&self) -> &[Batch<V>] {
        self.inner.committed()
    }

    /// First slot still retained in [`BatchingReplica::committed_batches`].
    #[must_use]
    pub fn committed_base_slot(&self) -> crate::Slot {
        self.inner.committed_base()
    }

    /// Commands currently held for dedup: applied within the horizon,
    /// waiting to relay, queued or proposed — regression surface for the
    /// bounded-memory guarantee.
    #[must_use]
    pub fn seen_len(&self) -> usize {
        self.applied_set.len() + self.relaying.len() + self.held.len()
    }

    /// The configured batch cap.
    #[must_use]
    pub fn batch_cap(&self) -> usize {
        self.cap
    }

    /// The configured dedup horizon, in slots (see
    /// [`BatchingReplica::with_dedup_horizon`]) — the folding layer needs
    /// it to carry exactly the still-live dedup window in a snapshot.
    #[must_use]
    pub fn dedup_horizon(&self) -> u64 {
        self.dedup_horizon
    }

    /// The system configuration (n, f, b) this replica runs under.
    #[must_use]
    pub fn config(&self) -> gencon_types::Config {
        self.inner.config()
    }

    /// The decision threshold TD — how many concordant round messages
    /// complete a quorum.
    #[must_use]
    pub fn td(&self) -> usize {
        self.inner.td()
    }

    /// How many slots the next send wants to open: one per cap-sized
    /// chunk of the proposal queue, or as many as peers' bundles showed
    /// ahead of the next slot to open, whichever is more. The window
    /// bounds it further; what does not fit stays queued as the next
    /// round's demand.
    fn demand(&self) -> usize {
        let ahead = self.heard_next.saturating_sub(self.inner.next_slot);
        self.queue
            .len()
            .div_ceil(self.cap)
            .max(usize::try_from(ahead).unwrap_or(usize::MAX))
    }

    /// Whether this replica has nothing to order: no open, lingering or
    /// decided-uncommitted slot, no claim to send, nothing to relay,
    /// queued or proposed, and no demand. A quiescent replica's next
    /// round would send an empty bundle and change nothing, so a driver
    /// may stop running rounds until a submission or a peer's bundle
    /// brings work.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.to_relay.is_empty()
            && self.proposed.is_empty()
            && self.demand() == 0
            && self.inner.is_settled()
    }

    /// Flattens any newly committed batches into the applied log, stamping
    /// each command with the round it committed at, and puts our own
    /// commands whose proposed batch lost the slot back on the relay list.
    fn flatten(&mut self, r: Round) {
        let before = self.flattened;
        let mut lost: Vec<V> = Vec::new();
        while self.flattened < self.inner.committed_len() {
            let slot = self.flattened as crate::Slot;
            // Evict dedup entries past the horizon *before* this slot's
            // dedup decisions — a pure function of (shared sequence,
            // shared horizon), so every replica applies identically no
            // matter when it locally compacts.
            while let Some((applied_at, _)) = self.dedup_window.front() {
                if applied_at + self.dedup_horizon >= slot {
                    break;
                }
                let (_, cmd) = self.dedup_window.pop_front().expect("front exists");
                self.applied_set.remove(&cmd);
            }
            let idx = (slot - self.inner.committed_base()) as usize;
            let batch = &self.inner.committed()[idx];
            let mut newly: Vec<V> = Vec::new();
            for cmd in batch.commands() {
                // With relays, overlapping batches can win different
                // slots; only the first commit of a command applies
                // (deterministic: the batch sequence is shared).
                if self.applied_set.insert(cmd.clone()) {
                    newly.push(cmd.clone());
                }
            }
            for cmd in newly {
                self.dedup_window.push_back((slot, cmd.clone()));
                self.applied.push(cmd.clone());
                self.applied_rounds.push(r.number());
                self.applied_slots.push(slot);
            }
            if let Some(mine) = self.proposed.remove(&slot) {
                for c in mine.commands() {
                    self.held.remove(c);
                }
                if mine != *batch {
                    lost.extend(
                        mine.into_commands()
                            .into_iter()
                            .filter(|c| !self.applied_set.contains(c)),
                    );
                }
            }
            self.flattened += 1;
        }
        self.relay_again(lost);
        // Purge commands another replica's batch just committed: without
        // this, relayed duplicates churn slots forever without growing
        // the applied log.
        if self.flattened > before {
            let (applied_set, held) = (&self.applied_set, &mut self.held);
            self.queue.retain(|c| {
                let keep = !applied_set.contains(c);
                if !keep {
                    held.remove(c);
                }
                keep
            });
        }
    }

    /// Puts commands that lost their slot back at the front of the relay
    /// list, oldest first, so client FIFO order is preserved across
    /// retries. Relaying them again is what keeps them live under loss.
    fn relay_again(&mut self, lost: Vec<V>) {
        for c in lost.into_iter().rev() {
            self.relaying.insert(c.clone());
            self.to_relay.push_front(c);
        }
    }

    /// Prunes in-memory state below `slot` once a snapshot covers that
    /// prefix: applied-log prefix bookkeeping, retained committed batches
    /// and stale proposals all go; [`BatchingReplica::applied_base`]
    /// advances by the discarded command count. Clamped to the flattened
    /// prefix; compaction never touches the dedup window (that eviction
    /// is slot-deterministic, see the field docs), so agreement is
    /// unaffected by *when* each replica compacts.
    ///
    /// After compaction the replica no longer answers decision claims for
    /// slots below `slot` — laggards further behind need snapshot state
    /// transfer.
    pub fn compact_below(&mut self, slot: crate::Slot) {
        let slot = slot.min(self.flattened as crate::Slot);
        let cut = self.applied_slots.partition_point(|&s| s < slot);
        self.applied.drain(..cut);
        self.applied_rounds.drain(..cut);
        self.applied_slots.drain(..cut);
        self.applied_base += cut;
        self.inner.compact_below(slot);
        self.proposed.retain(|s, _| *s >= slot);
    }

    /// Replays one recovered committed batch (the next contiguous slot)
    /// into the log — the WAL-recovery path: a restarting replica calls
    /// this once per record before joining the cluster.
    ///
    /// # Panics
    ///
    /// Panics if called on a replica that already has open slots (replay
    /// is a startup-only operation).
    pub fn replay_committed(&mut self, batch: Batch<V>) {
        assert!(
            self.inner.open_slots().is_empty(),
            "replay_committed is a startup-only operation"
        );
        self.inner.restore_committed(batch);
        self.flatten(Round::new(1));
    }

    /// Installs a snapshot of the applied prefix: `pairs` are the applied
    /// `(command, slot)` pairs of **every** slot below `upto_slot`, in
    /// apply order (the decoded state-transfer payload, or the recovered
    /// snapshot cut at startup). Returns whether the snapshot was
    /// installed — it is ignored unless it extends this replica's
    /// committed prefix.
    ///
    /// By per-slot Agreement the local applied log is a prefix of any
    /// honest snapshot's, so installation replaces the applied state
    /// wholesale and fast-forwards the slot sequence to `upto_slot`;
    /// decision claims and normal rounds take over from there. `round`
    /// stamps re-applied commands (0 at startup).
    pub fn install_snapshot(
        &mut self,
        pairs: Vec<(V, crate::Slot)>,
        upto_slot: crate::Slot,
        round: u64,
    ) -> bool {
        if (upto_slot as usize) <= self.inner.committed_len() {
            return false;
        }
        self.applied.clear();
        self.applied_rounds.clear();
        self.applied_slots.clear();
        self.applied_base = 0;
        self.applied_set.clear();
        self.dedup_window.clear();
        // The full applied set purges the local queue; the dedup
        // window/set keep only the horizon suffix, exactly what a replica
        // that flattened slot by slot would hold when reaching upto_slot.
        let mut full: std::collections::HashSet<V> = std::collections::HashSet::new();
        for (cmd, slot) in pairs {
            full.insert(cmd.clone());
            if slot + self.dedup_horizon >= upto_slot {
                self.applied_set.insert(cmd.clone());
                self.dedup_window.push_back((slot, cmd.clone()));
            }
            self.applied.push(cmd);
            self.applied_rounds.push(round);
            self.applied_slots.push(slot);
        }
        self.settle_below(upto_slot, &full);
        self.flattened = upto_slot as usize;
        self.inner.install_decided_prefix(upto_slot);
        // Anything the inner replica had already decided above the
        // snapshot recommits contiguously; flatten it in.
        self.flatten(Round::new(round.max(1)));
        true
    }

    /// The queue side of a snapshot install at `upto_slot`: drops the
    /// commands in `applied` from both queues, puts the unapplied commands
    /// of our proposals below the cut back on the relay list, and re-marks
    /// everything still queued or proposed as held.
    fn settle_below(&mut self, upto_slot: crate::Slot, applied: &std::collections::HashSet<V>) {
        let kept = self.proposed.split_off(&upto_slot);
        let lost: Vec<V> = std::mem::replace(&mut self.proposed, kept)
            .into_values()
            .flat_map(Batch::into_commands)
            .filter(|c| !applied.contains(c))
            .collect();
        self.queue.retain(|c| !applied.contains(c));
        self.to_relay.retain(|c| !applied.contains(c));
        self.relaying = self.to_relay.iter().cloned().collect();
        self.relay_again(lost);
        self.held = self
            .queue
            .iter()
            .chain(self.proposed.values().flat_map(Batch::commands))
            .cloned()
            .collect();
    }

    /// Installs a **folded** snapshot: the applied prefix below
    /// `upto_slot` is *not* re-materialized — the application layer holds
    /// its folded state instead — so the replica keeps only the resume
    /// data: `applied_len` (the absolute command count the fold covers,
    /// which becomes the new [`BatchingReplica::applied_base`]) and
    /// `dedup` (the `(command, slot)` dedup-window entries still live at
    /// the cut, exactly what a replica that flattened slot by slot would
    /// hold on reaching `upto_slot` — without them the installer's dedup
    /// decisions at the next slots could diverge from the cluster's).
    ///
    /// Returns whether the snapshot was installed — it is ignored unless
    /// it extends this replica's committed prefix. The applied log
    /// restarts empty at base `applied_len`; decision claims and normal
    /// rounds take over from `upto_slot`.
    pub fn install_folded(
        &mut self,
        dedup: &[(V, crate::Slot)],
        applied_len: u64,
        upto_slot: crate::Slot,
        round: u64,
    ) -> bool {
        if (upto_slot as usize) <= self.inner.committed_len() {
            return false;
        }
        self.applied.clear();
        self.applied_rounds.clear();
        self.applied_slots.clear();
        self.applied_base = usize::try_from(applied_len).unwrap_or(usize::MAX);
        self.applied_set.clear();
        self.dedup_window.clear();
        for (cmd, slot) in dedup {
            if *slot < upto_slot && slot + self.dedup_horizon >= upto_slot {
                self.applied_set.insert(cmd.clone());
                self.dedup_window.push_back((*slot, cmd.clone()));
            }
        }
        // The carried dedup window purges the local queues of commands
        // the cluster already applied.
        let applied = std::mem::take(&mut self.applied_set);
        self.settle_below(upto_slot, &applied);
        self.applied_set = applied;
        self.flattened = upto_slot as usize;
        self.inner.install_decided_prefix(upto_slot);
        // Anything the inner replica had already decided above the
        // snapshot recommits contiguously; flatten it in.
        self.flatten(Round::new(round.max(1)));
        true
    }
}

impl<V: Value> RoundProcess for BatchingReplica<V> {
    type Msg = SmrMsg<Batch<V>>;
    type Output = Vec<V>;

    fn id(&self) -> ProcessId {
        self.inner.id
    }

    fn requirement(&self, r: Round) -> Predicate {
        self.inner.requirement(r)
    }

    fn send(&mut self, r: Round) -> Outgoing<Self::Msg> {
        // Offer the queue front to the inner replica, one cap-sized chunk
        // per slot it may open: demand, bounded by the free window. Only
        // that many chunks are materialized — per-round cost stays
        // O(window · cap) however deep the queue backs up (the open-loop
        // overload case must not go quadratic in queue length).
        let can_open = self
            .demand()
            .min(self.inner.window.saturating_sub(self.inner.open.len()));
        let built: Vec<Batch<V>> = self
            .queue
            .chunks(self.cap)
            .take(can_open)
            .map(|c| Batch::new(c.to_vec()))
            .collect();
        let offered = built.len();
        let first_new = self.inner.next_slot;
        self.inner.pending = built.clone();
        self.inner.budget = Some(can_open);
        let mut out = self.inner.send(r);
        // Slots opened this round consumed chunks front-first; keep the
        // consumed batches (shared with the engines' proposals) for the
        // lost-command map and drain their commands from the queue
        // (unconsumed offers stay in the queue only).
        let consumed = offered - self.inner.pending.len();
        self.inner.pending.clear();
        let mut drained = 0;
        for (j, chunk) in built.into_iter().take(consumed).enumerate() {
            drained += chunk.len();
            self.proposed.insert(first_new + j as crate::Slot, chunk);
        }
        self.queue.drain(..drained);
        // Relay each command once, up to window × cap per round, in
        // cap-sized chunks: every replica (this one through its loopback
        // bundle) queues it on hearing the relay, so whichever replica's
        // batch wins an upcoming slot can carry it. Without relays, a
        // replica whose proposals systematically lose (the coordinator's
        // value wins every Paxos/PBFT slot; DeterministicMin sorts another
        // replica's commands first) would starve its clients forever. A
        // command some peer already relayed to us needs no relay of ours.
        let mut left = self.inner.window * self.cap;
        let mut chunks: Vec<Vec<V>> = Vec::new();
        while left > 0 {
            let Some(cmd) = self.to_relay.pop_front() else {
                break;
            };
            self.relaying.remove(&cmd);
            if self.held.contains(&cmd) || self.applied_set.contains(&cmd) {
                continue;
            }
            left -= 1;
            match chunks.last_mut() {
                Some(chunk) if chunk.len() < self.cap => chunk.push(cmd),
                _ => chunks.push(vec![cmd]),
            }
        }
        if !chunks.is_empty() {
            if matches!(out, Outgoing::Silent) {
                out = Outgoing::Broadcast(self.inner.stamped_bundle());
            }
            if let Outgoing::Broadcast(bundle) = &mut out {
                for chunk in chunks {
                    bundle.push_relay(Batch::new(chunk));
                }
            }
        }
        out
    }

    fn receive(&mut self, r: Round, heard: &HeardOf<Self::Msg>) {
        // Heard relays join the proposal queue in sender order, so every
        // replica that heard the same bundles holds the same queue.
        for (_, bundle) in heard.iter() {
            self.merge_relays(bundle.relays());
            if let Some(high) = bundle.max_slot() {
                // Peer input: a lying slot number must not overflow.
                self.heard_next = self.heard_next.max(high.saturating_add(1));
            }
        }
        self.inner.receive(r, heard);
        self.flatten(r);
    }

    fn output(&self) -> Option<Vec<V>> {
        // Truncate to exactly the target: replicas stop at different points
        // mid-batch, but the committed sequence is shared, so the fixed-size
        // prefix is identical on every honest replica.
        (self.applied.len() >= self.commit_target)
            .then(|| self.applied[..self.commit_target].to_vec())
    }
}

impl<V: Value> std::fmt::Debug for BatchingReplica<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchingReplica")
            .field("id", &self.inner.id.to_string())
            .field("cap", &self.cap)
            .field("applied", &self.applied.len())
            .field("queued", &self.queued())
            .field("slots", &self.inner.committed.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_algos::{paxos, pbft};
    use gencon_sim::{properties, CrashPlan, DeliveryPlan, Scripted, Simulation};

    fn run_batched(
        spec: &gencon_algos::AlgorithmSpec<Batch<u64>>,
        queues: Vec<Vec<u64>>,
        cap: usize,
        target: usize,
        max_rounds: u64,
    ) -> gencon_sim::Outcome<Vec<u64>> {
        let cfg = spec.params.cfg;
        let mut builder = Simulation::builder(cfg);
        for (i, q) in queues.into_iter().enumerate() {
            let mut r =
                BatchingReplica::new(ProcessId::new(i), spec.params.clone(), cap, target).unwrap();
            r.submit_all(q);
            builder = builder.honest(r);
        }
        builder
            .crashes(CrashPlan::none())
            .build()
            .unwrap()
            .run(max_rounds)
    }

    /// The starvation regression: with distinct per-replica streams (each
    /// replica serves its own clients, as a real deployment does), every
    /// submitted command must commit. Without relay dissemination the
    /// lowest-sorting replica's batches win every contended slot and the
    /// other replicas' clients starve forever.
    #[test]
    fn commands_submitted_at_any_replica_all_commit() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let cfg = spec.params.cfg;
        let mut builder = Simulation::builder(cfg);
        let per_replica = 6usize;
        let total = 4 * per_replica;
        for i in 0..4u64 {
            let mut r =
                BatchingReplica::new(ProcessId::new(i as usize), spec.params.clone(), 4, total)
                    .unwrap();
            // Distinct streams: replica i's clients submit i*100 + k.
            r.submit_all((0..per_replica as u64).map(|k| i * 100 + k));
            builder = builder.honest(r);
        }
        let out = builder.crashes(CrashPlan::none()).build().unwrap().run(300);
        assert!(
            out.all_correct_decided,
            "every replica's commands commit, none starve"
        );
        assert!(properties::agreement(&out, |log| log));
        let mut log = out.outputs[0].clone().unwrap();
        log.sort_unstable();
        let mut expect: Vec<u64> = (0..4u64)
            .flat_map(|i| (0..per_replica as u64).map(move |k| i * 100 + k))
            .collect();
        expect.sort_unstable();
        assert_eq!(log, expect, "the applied set is exactly the union");
    }

    /// Relay echoes and client retries are idempotent: a command never
    /// applies twice.
    #[test]
    fn duplicate_submissions_apply_once() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let cfg = spec.params.cfg;
        let mut builder = Simulation::builder(cfg);
        for i in 0..4 {
            let mut r = BatchingReplica::new(ProcessId::new(i), spec.params.clone(), 4, 3).unwrap();
            r.submit_all([7, 8, 7, 9, 8, 7]);
            builder = builder.honest(r);
        }
        let out = builder.crashes(CrashPlan::none()).build().unwrap().run(60);
        assert!(out.all_correct_decided);
        assert_eq!(out.outputs[0].as_ref().unwrap(), &[7, 8, 9]);
    }

    #[test]
    fn batched_log_flattens_in_order() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        // Identical client streams at every replica (clients broadcast).
        let stream: Vec<u64> = (100..108).collect();
        let out = run_batched(&spec, vec![stream.clone(); 4], 3, 8, 60);
        assert!(out.all_correct_decided);
        assert!(properties::agreement(&out, |log| log));
        assert_eq!(out.outputs[0].as_ref().unwrap(), &stream);
    }

    #[test]
    fn batching_commits_more_commands_per_round() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let stream: Vec<u64> = (0..16).collect();
        let unbatched = run_batched(&spec, vec![stream.clone(); 4], 1, 16, 200);
        let batched = run_batched(&spec, vec![stream; 4], 8, 16, 200);
        assert!(unbatched.all_correct_decided && batched.all_correct_decided);
        assert!(
            batched.rounds_executed * 4 <= unbatched.rounds_executed,
            "cap 8 ({} rounds) must beat cap 1 ({} rounds) by ≥ 4×",
            batched.rounds_executed,
            unbatched.rounds_executed
        );
    }

    #[test]
    fn empty_queues_open_no_slots() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let out = run_batched(&spec, vec![vec![]; 3], 4, 0, 20);
        // Target 0 commands: output fires immediately with the empty log.
        assert!(out.all_correct_decided);
        assert_eq!(out.outputs[0].as_ref().unwrap(), &Vec::<u64>::new());
        // With nothing queued there is no demand: no slot ever opens.
        let mut r = BatchingReplica::new(ProcessId::new(0), spec.params.clone(), 4, 0).unwrap();
        for round in 1..=10 {
            assert!(matches!(r.send(Round::new(round)), Outgoing::Silent));
            r.receive(Round::new(round), &HeardOf::empty(3));
            assert!(r.is_quiescent());
        }
        assert_eq!(r.committed_slots(), 0);
    }

    #[test]
    fn late_submissions_join_later_batches() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let cfg = spec.params.cfg;
        let mut builder = Simulation::builder(cfg);
        for i in 0..4 {
            let r = BatchingReplica::new(ProcessId::new(i), spec.params.clone(), 4, 2).unwrap();
            builder = builder.honest(r);
        }
        let mut sim = builder.build().unwrap();
        // Nothing queued, so no slot opens. (We can't reach inside the
        // sim to submit later — that's the `gencon-sim` injection hook's
        // job, see `quiescent_cluster_wakes_on_one_submission`.) Here just
        // check that idle rounds don't count toward the command target.
        for _ in 0..6 {
            sim.step();
        }
        assert!(!sim.all_correct_decided(), "no commands, target 2 unmet");
    }

    /// One replica's view of one lock-step round.
    #[derive(Clone)]
    struct Mark {
        /// The next slot to open, after the send step.
        next_slot: crate::Slot,
        /// The batches this replica proposed for the slots it opened in
        /// the send step.
        opened: Vec<(crate::Slot, Batch<u64>)>,
        /// After the receive step.
        quiescent: bool,
        applied: usize,
        /// The commands applied in the receive step.
        newly: Vec<u64>,
        lingering: usize,
    }

    /// What replica `i` submits before its send step in round `r`.
    type Feed = fn(usize, u64) -> Option<u64>;

    /// A replica that logs a [`Mark`] per round and submits what its
    /// [`Feed`] hands it before each send step.
    struct Probe {
        rep: BatchingReplica<u64>,
        feed: Feed,
        marks: std::sync::Arc<std::sync::Mutex<Vec<Mark>>>,
    }

    impl RoundProcess for Probe {
        type Msg = SmrMsg<Batch<u64>>;
        type Output = Vec<u64>;

        fn id(&self) -> ProcessId {
            self.rep.id()
        }

        fn requirement(&self, r: Round) -> Predicate {
            self.rep.requirement(r)
        }

        fn send(&mut self, r: Round) -> Outgoing<Self::Msg> {
            if let Some(cmd) = (self.feed)(self.rep.id().index(), r.number()) {
                self.rep.submit(cmd);
            }
            let first_new = self.rep.inner.next_slot;
            let out = self.rep.send(r);
            self.marks.lock().unwrap().push(Mark {
                next_slot: self.rep.inner.next_slot,
                opened: self
                    .rep
                    .proposed
                    .range(first_new..)
                    .map(|(s, b)| (*s, b.clone()))
                    .collect(),
                quiescent: false,
                applied: 0,
                newly: Vec::new(),
                lingering: 0,
            });
            out
        }

        fn receive(&mut self, r: Round, heard: &HeardOf<Self::Msg>) {
            let before = self.rep.applied().len();
            self.rep.receive(r, heard);
            let mut marks = self.marks.lock().unwrap();
            let mark = marks.last_mut().expect("send logged this round");
            mark.newly = self.rep.applied()[before..].to_vec();
            mark.quiescent = self.rep.is_quiescent();
            mark.applied = self.rep.applied_len();
            mark.lingering = self.rep.inner.lingering.len();
        }

        fn output(&self) -> Option<Vec<u64>> {
            self.rep.output()
        }
    }

    type Marks = std::sync::Arc<std::sync::Mutex<Vec<Mark>>>;

    /// Four probes (window 4, cap 4, commit target `target`) fed by
    /// `feed`, and their mark logs.
    fn probes(feed: Feed, target: usize) -> (Vec<Probe>, Vec<Marks>) {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let logs: Vec<Marks> = (0..4).map(|_| Marks::default()).collect();
        let probes = logs
            .iter()
            .enumerate()
            .map(|(i, log)| Probe {
                rep: BatchingReplica::new(ProcessId::new(i), spec.params.clone(), 4, target)
                    .unwrap()
                    .with_window(4),
                feed,
                marks: std::sync::Arc::clone(log),
            })
            .collect();
        (probes, logs)
    }

    fn collect(logs: &[Marks]) -> Vec<Vec<Mark>> {
        logs.iter().map(|l| l.lock().unwrap().clone()).collect()
    }

    /// Quiescence is symmetric in lock step: four replicas that drain a
    /// block all turn quiescent in the same round, within window + linger
    /// rounds of the drain, and open nothing while idle; one later
    /// submission at a single replica opens the next slot on all four in
    /// the same round, and it commits.
    #[test]
    fn quiescent_cluster_wakes_on_one_submission() {
        const WINDOW: usize = 2;
        const LINGER: usize = crate::LINGER_ROUNDS as usize;
        const BLOCK: usize = 16;
        const LATE_AT: u64 = 60;
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let logs: Vec<std::sync::Arc<std::sync::Mutex<Vec<Mark>>>> =
            (0..4).map(|_| std::sync::Arc::default()).collect();
        let mut builder = Simulation::builder(spec.params.cfg);
        for (i, log) in logs.iter().enumerate() {
            let mut rep =
                BatchingReplica::new(ProcessId::new(i), spec.params.clone(), 4, BLOCK + 1)
                    .unwrap()
                    .with_window(WINDOW);
            rep.submit_all((0..4).map(|k| i as u64 * 100 + k));
            builder = builder.honest(Probe {
                rep,
                feed: |i, r| (i == 2 && r == LATE_AT).then_some(999),
                marks: std::sync::Arc::clone(log),
            });
        }
        let mut sim = builder.build().unwrap();
        for _ in 0..LATE_AT + 20 {
            sim.step();
        }
        assert!(sim.all_correct_decided(), "the late command commits");
        // marks[i][k] is replica i in round k + 1.
        let marks: Vec<Vec<Mark>> = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
        let drained = (0..marks[0].len())
            .find(|&k| marks.iter().all(|m| m[k].applied >= BLOCK))
            .expect("the block drains");
        let quiet: Vec<usize> = marks
            .iter()
            .map(|m| m.iter().position(|x| x.quiescent).expect("turns quiescent"))
            .collect();
        assert!(
            quiet.iter().all(|&q| q == quiet[0]),
            "quiescent in different rounds: {quiet:?}"
        );
        let q = quiet[0];
        assert!(
            q <= drained + WINDOW + LINGER,
            "quiescent {} rounds after the drain",
            q - drained
        );
        let late = LATE_AT as usize - 1;
        for m in &marks {
            for x in &m[q..late] {
                assert!(x.quiescent, "woke without a submission");
                assert_eq!(x.next_slot, m[q].next_slot, "opened a slot while idle");
            }
        }
        // The submission relays in round LATE_AT; every replica hears it
        // and opens exactly one slot for it in round LATE_AT + 1, whose
        // validation and decision rounds (the first selection round is
        // skipped) leave every replica quiescent after round LATE_AT + 2.
        for m in &marks {
            assert!(!m[late].quiescent);
            assert_eq!(m[late].next_slot, m[q].next_slot);
            assert_eq!(
                m[late + 1].next_slot,
                m[q].next_slot + 1,
                "one command opens one slot"
            );
            assert_eq!(m[late + 2].applied, BLOCK + 1);
            assert!(
                m[late + 2].quiescent,
                "quiescent within 3 rounds of the submission"
            );
        }
    }

    /// A process that never sends (and ignores what it hears): a crashed
    /// replica in a configuration whose crash bound is zero.
    struct Mute(ProcessId);

    impl RoundProcess for Mute {
        type Msg = SmrMsg<Batch<u64>>;
        type Output = Vec<u64>;

        fn id(&self) -> ProcessId {
            self.0
        }

        fn requirement(&self, _r: Round) -> Predicate {
            Predicate::Good
        }

        fn send(&mut self, _r: Round) -> Outgoing<Self::Msg> {
            Outgoing::Silent
        }

        fn receive(&mut self, _r: Round, _heard: &HeardOf<Self::Msg>) {}

        fn output(&self) -> Option<Vec<u64>> {
            None
        }
    }

    /// Runs four replicas (window 4) in lock step for `rounds` rounds:
    /// replica 0 submits one command in round 1, and replica `mute` (if
    /// any) never sends. Returns the speaking replicas' marks.
    fn one_command_run(mute: Option<usize>, rounds: u64) -> Vec<Vec<Mark>> {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let (probes, logs) = probes(|i, r| (i == 0 && r == 1).then_some(5), 1);
        let mut builder = Simulation::builder(spec.params.cfg);
        for (i, probe) in probes.into_iter().enumerate() {
            builder = if Some(i) == mute {
                builder.honest(Mute(ProcessId::new(i)))
            } else {
                builder.honest(probe)
            };
        }
        let mut sim = builder.build().unwrap();
        for _ in 0..rounds {
            sim.step();
        }
        let mut marks = collect(&logs);
        if let Some(i) = mute {
            marks.remove(i);
        }
        marks
    }

    /// `(commit, quiescent)`: the first round index at which every live
    /// replica applied the command, and the first at which all of them
    /// are quiescent.
    fn commit_and_quiet(marks: &[Vec<Mark>]) -> (usize, usize) {
        let commit = (0..marks[0].len())
            .find(|&k| marks.iter().all(|m| m[k].applied >= 1))
            .expect("the command commits");
        let quiet = (commit..marks[0].len())
            .find(|&k| marks.iter().all(|m| m[k].quiescent))
            .expect("the cluster turns quiescent");
        (commit, quiet)
    }

    /// A slot whose deciding round heard every replica retires at once;
    /// otherwise, once every replica committed it, the bundles' watermarks
    /// show it and the lingering engines retire in the next round. Either
    /// way nobody votes on for the whole linger bound.
    #[test]
    fn decided_slots_retire_once_every_replica_committed() {
        let marks = one_command_run(None, 30);
        let (commit, quiet) = commit_and_quiet(&marks);
        assert!(
            quiet <= commit + 2,
            "quiescent {} rounds after the decision",
            quiet - commit
        );
    }

    /// A crashed replica never reports a watermark, so the others cannot
    /// know it has the decision: they keep voting for the full linger
    /// bound (the minimum over all processes decides), then retire.
    #[test]
    fn a_silent_replica_keeps_peers_lingering_up_to_the_bound() {
        const LINGER: usize = crate::LINGER_ROUNDS as usize;
        let marks = one_command_run(Some(3), 40);
        assert_eq!(marks.len(), 3);
        let (commit, quiet) = commit_and_quiet(&marks);
        assert_eq!(
            quiet - commit,
            LINGER,
            "lingers for exactly the bound with a silent peer"
        );
        assert!(marks.iter().all(|m| m[quiet].applied == 1));
    }

    /// The lock-step log of every replica: the commands it applied, in
    /// order.
    fn applied_logs(marks: &[Vec<Mark>]) -> Vec<Vec<u64>> {
        marks
            .iter()
            .map(|m| m.iter().flat_map(|x| x.newly.iter().copied()).collect())
            .collect()
    }

    /// `r * 10 + i` from every replica in every round up to
    /// `FEED_ROUNDS`: one fresh command per replica per round.
    const FEED_ROUNDS: u64 = 60;
    fn one_per_replica_per_round(i: usize, r: u64) -> Option<u64> {
        (r <= FEED_ROUNDS).then_some(r * 10 + i as u64)
    }

    /// In good rounds every replica hears the same relays, so every
    /// replica cuts the identical batch for every new slot in the same
    /// round: proposals are unanimous, no slot opens empty, and every
    /// command applies three rounds after its submission.
    #[test]
    fn every_replica_proposes_the_same_batch_in_good_rounds() {
        let (probes, logs) = probes(one_per_replica_per_round, usize::MAX);
        let mut builder = Simulation::builder(probes[0].rep.config());
        for p in probes {
            builder = builder.honest(p);
        }
        let mut sim = builder.build().unwrap();
        for _ in 0..FEED_ROUNDS + 2 {
            sim.step();
        }
        let marks = collect(&logs);
        for k in 0..marks[0].len() {
            for m in &marks[1..] {
                assert_eq!(m[k].opened, marks[0][k].opened, "round {}", k + 1);
            }
        }
        let opened: Vec<&(crate::Slot, Batch<u64>)> =
            marks[0].iter().flat_map(|m| &m.opened).collect();
        assert!(opened.iter().all(|(_, b)| b.len() == 4), "{opened:?}");
        let logs = applied_logs(&marks);
        assert_eq!(
            logs[0].len(),
            4 * FEED_ROUNDS as usize,
            "round FEED_ROUNDS + 2 applies the last"
        );
        for log in &logs {
            assert_eq!(log, &logs[0], "identical applied logs");
        }
    }

    /// Relays one command per destination, a different one to each, and
    /// nothing else: a Byzantine relayer that splits the honest
    /// replicas' proposal queues every round.
    struct Liar(ProcessId);

    impl gencon_rounds::Adversary for Liar {
        type Msg = SmrMsg<Batch<u64>>;

        fn id(&self) -> ProcessId {
            self.0
        }

        fn send(&mut self, r: Round) -> Outgoing<Self::Msg> {
            Outgoing::PerDest(
                (0..4)
                    .map(|d| {
                        let mut bundle = SmrMsg::new();
                        bundle.push_relay(Batch::new(vec![1_000_000 + r.number() * 10 + d]));
                        (ProcessId::new(d as usize), bundle)
                    })
                    .collect(),
            )
        }

        fn observe(&mut self, _r: Round, _heard: &HeardOf<Self::Msg>) {}
    }

    /// Diverging proposals only cost a slot its phase-1 shortcut: with
    /// one relay lost to one replica, or a Byzantine relayer telling each
    /// peer something else, every honest command still commits and the
    /// honest logs agree.
    #[test]
    fn a_lost_relay_or_a_lying_relayer_keeps_every_command_live() {
        let p = ProcessId::new;
        for liar in [false, true] {
            let (probes, logs) = probes(one_per_replica_per_round, usize::MAX);
            let mut builder = Simulation::builder(probes[0].rep.config());
            for (i, probe) in probes.into_iter().enumerate() {
                builder = if liar && i == 3 {
                    builder.byzantine(Liar(p(3)))
                } else {
                    builder.honest(probe)
                };
            }
            // Replica 0's round-3 relay never reaches replica 2.
            let net = Scripted::new(
                move |r: Round, n| {
                    let mut plan = DeliveryPlan::full(n);
                    if r.number() == 3 {
                        plan.set(p(0), p(2), false);
                    }
                    plan
                },
                |r: Round| r.number() != 3,
            );
            let mut sim = builder.network(net).build().unwrap();
            for _ in 0..FEED_ROUNDS + 60 {
                sim.step();
            }
            let mut marks = collect(&logs);
            let honest = if liar { 3 } else { 4 };
            marks.truncate(honest);
            // The premise: replica 2 proposed without replica 0's command.
            assert_ne!(marks[2][3].opened, marks[0][3].opened, "liar {liar}");
            let logs = applied_logs(&marks);
            for log in &logs {
                assert_eq!(log, &logs[0], "honest logs agree (liar {liar})");
            }
            let mut expect: Vec<u64> = (1..=FEED_ROUNDS)
                .flat_map(|r| (0..honest as u64).map(move |i| r * 10 + i))
                .collect();
            expect.sort_unstable();
            let mut got: Vec<u64> = logs[0].iter().copied().filter(|&c| c < 1_000_000).collect();
            got.sort_unstable();
            assert_eq!(got, expect, "every honest command commits (liar {liar})");
        }
    }

    /// A replica that hears nobody in a slot's decision round misses the
    /// decision, while the others, having heard all four replicas on the
    /// slot, retire it at once. The laggard keeps working the slot, its
    /// next bundle draws `b + 1` decision claims, and it adopts the
    /// decision from them.
    #[test]
    fn a_replica_that_misses_the_decision_adopts_it_from_claims() {
        let p = ProcessId::new;
        let (probes, logs) = probes(|i, r| (i == 0 && r == 1).then_some(5), usize::MAX);
        let mut builder = Simulation::builder(probes[0].rep.config());
        for probe in probes {
            builder = builder.honest(probe);
        }
        // Round 1 relays, round 2 validates, round 3 decides: replica 3
        // hears only itself in round 3.
        let net = Scripted::new(
            move |r: Round, n| {
                let mut plan = DeliveryPlan::full(n);
                if r.number() == 3 {
                    for from in 0..3 {
                        plan.set(p(from), p(3), false);
                    }
                }
                plan
            },
            |r: Round| r.number() != 3,
        );
        let mut sim = builder.network(net).build().unwrap();
        for _ in 0..10 {
            sim.step();
        }
        let marks = collect(&logs);
        for m in &marks[..3] {
            assert_eq!(m[2].applied, 1, "decided in round 3");
            assert_eq!(m[2].lingering, 0, "retired at once");
        }
        assert_eq!(marks[3][2].applied, 0, "replica 3 missed the decision");
        let adopted = marks[3]
            .iter()
            .position(|x| x.applied == 1)
            .expect("replica 3 adopts the decision");
        assert!(adopted <= 5, "adopted in round {}", adopted + 1);
        for log in applied_logs(&marks) {
            assert_eq!(log, vec![5]);
        }
    }

    /// A peer bundle naming slot `u64::MAX` (a lying peer) raises demand
    /// without overflowing the slot arithmetic.
    #[test]
    fn huge_peer_slot_raises_demand_without_overflow() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let mut r = BatchingReplica::new(ProcessId::new(0), spec.params.clone(), 4, 1).unwrap();
        let mut bundle = SmrMsg::new();
        bundle.push_claim(u64::MAX, Batch::new(vec![1]));
        let mut heard = HeardOf::empty(4);
        heard.put(ProcessId::new(1), bundle);
        r.receive(Round::new(1), &heard);
        assert!(!r.is_quiescent());
    }

    #[test]
    fn accessors_and_debug() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let mut r = BatchingReplica::new(ProcessId::new(1), spec.params.clone(), 0, 5).unwrap();
        assert_eq!(r.batch_cap(), 1, "cap clamps to ≥ 1");
        r.submit(9);
        assert_eq!(r.queued(), 1);
        assert_eq!(r.applied(), &[] as &[u64]);
        assert_eq!(r.committed_slots(), 0);
        let (cmds, rounds) = r.applied_with_rounds();
        assert!(cmds.is_empty() && rounds.is_empty());
        assert!(r.applied_slots().is_empty());
        assert!(format!("{r:?}").contains("p1"));
    }
}
