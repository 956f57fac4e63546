//! State-machine replication over sequences of consensus instances.
//!
//! §5.3 of the paper notes that Paxos and PBFT "solve a sequence of
//! instances of consensus (state machine replication)" and isolates the
//! single-instance core. This crate goes the other way: it composes the
//! single-instance engine back into a replicated log — the deployment shape
//! a downstream user actually wants.
//!
//! A [`Replica`] multiplexes a window of open consensus *slots* over one
//! stream of closed rounds. Each slot runs an independent
//! [`GenericConsensus`] instance (any parameterization: Paxos for benign
//! deployments, PBFT/MQB for Byzantine ones); messages carry their slot id;
//! a slot's decision is **committed** when every lower slot has committed,
//! and committed commands are applied in order — so all honest replicas
//! apply the same command sequence (by the paper's Agreement property,
//! per slot).
//!
//! # The batch commit path
//!
//! [`Replica`] proposes one client command per slot. Under load that wastes
//! the fixed per-slot round cost, so [`BatchingReplica`] amortizes it: a
//! submitted command is relayed once to every replica, each new slot
//! drains up to `batch_cap` heard commands into one
//! [`Batch`](gencon_types::Batch) proposal — the same batch on every
//! replica in a good round, so the slot skips phase 1's selection round —
//! the decided batch is **flattened** into the applied log in batch order,
//! and the replica's output is the flattened command log. Per-slot
//! Agreement is untouched — a batch is just a value — so honest replicas
//! still apply identical command sequences; throughput per round scales
//! with the batch size. A slot that
//! opens with a dry queue proposes the empty batch; it sorts *last*, so a
//! slot never commits it while any replica proposed real commands, and
//! commands whose batch lost its slot are re-queued for a later one.
//!
//! # Commit watermarks
//!
//! A decided slot's engine keeps voting for [`LINGER_ROUNDS`], so a peer
//! that missed the deciding round can still reach `TD` votes. Once every peer
//! has committed the slot, nobody needs those votes. Every bundle is
//! therefore stamped with its sender's **watermark**, the contiguous commit
//! point (slots below it are committed). A [`Replica`] keeps the latest
//! watermark heard from each process and retires a lingering engine for
//! slot `s` as soon as every process's watermark is above `s`; otherwise
//! the linger bound still applies. The rule takes the minimum over all
//! processes, so a crashed or Byzantine peer can only hold the others to
//! the old linger bound, never make them retire early while an honest
//! laggard still needs the votes. The latest watermark overwrites the old
//! one (it is not a running maximum): a restarted peer counts again. The
//! same stamp stops decision claims for slots the sender already has.
//!
//! A slot that decides in a round in which the replica heard all `n`
//! processes on it retires at once, without lingering for watermarks:
//! every process took part in the deciding round, and one that still
//! missed the decision keeps working the slot, so its next bundle draws
//! the claims it adopts the decision from.
//!
//! # Quiescence
//!
//! Rounds are a logical clock: a [`BatchingReplica`] opens slots only on
//! **demand**, and only as many as it needs — one per cap-sized chunk of
//! its proposal queue (the commands it heard relayed and has not seen
//! applied), or as many as peers' bundles reference beyond its own, within
//! the window. Every replica hears the same bundles in a good round and
//! shares the applied set, so all of them open the same slots in the same
//! round, with the same batches. With nothing to order the replica turns
//! [`BatchingReplica::is_quiescent`], and a driver may stop executing
//! rounds until a submission or a peer's frame brings work.
//!
//! # Example
//!
//! ```
//! use gencon_smr::Replica;
//! use gencon_algos::pbft;
//! use gencon_types::ProcessId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = pbft::<u64>(4, 1)?;
//! let replica = Replica::new(
//!     ProcessId::new(0),
//!     spec.params.clone(),
//!     vec![10, 20, 30], // locally queued client commands
//!     0,                // no-op command for empty queues
//!     3,                // commit target
//! )?;
//! assert_eq!(replica.committed(), &[] as &[u64]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;

pub use batch::{BatchingReplica, DEFAULT_DEDUP_HORIZON};
pub use gencon_types::Batch;

use std::collections::BTreeMap;

use gencon_core::{ConsensusMsg, GenericConsensus, Params, ParamsError};
use gencon_rounds::{HeardOf, Outgoing, Predicate, RoundProcess};
use gencon_types::{ProcessId, Round, Value};

/// A slot (log position) identifier.
pub type Slot = u64;

/// Rounds a decided slot's engine keeps voting at most — two phases of a
/// 3-round class — so replicas that missed the deciding round still reach
/// `TD`. It retires earlier once every process's watermark shows the slot
/// committed, and does not linger at all when the deciding round heard
/// every process on the slot.
pub const LINGER_ROUNDS: u64 = 6;

/// Messages of the replicated log: per-slot consensus messages, bundled per
/// round. Bundling keeps the composition a closed-round protocol: one
/// message per sender per round, carrying every open slot's payload.
///
/// A named struct (not a bare `Vec` alias) so slot payloads can evolve —
/// batched values, decision certificates, future compression — without
/// leaking the representation into every signature that mentions the
/// message type.
///
/// Besides per-slot engine payloads, a bundle carries **decision claims**:
/// `(slot, value)` assertions for slots the sender has already committed
/// but some peer is still working on. A laggard adopts a claimed decision
/// once `b + 1` distinct senders concur — at least one is honest, so the
/// value is the slot's actual decision by per-slot Agreement. This is the
/// catch-up path that bounded engine lingering cannot provide: however far
/// a replica falls behind, the replicas ahead of it keep answering its
/// stale-slot messages with certificates.
///
/// Every bundle carries its sender's **watermark**: the contiguous commit
/// point, so every slot below it is committed at the sender (see the
/// crate docs on commit watermarks).
///
/// A bundle also carries **relays**: values holding commands submitted
/// at the sender, each relayed once (and again only if the sender's batch
/// carrying it lost its slot). Receivers — the sender included —
/// append relayed commands to their proposal queues (deduplicated), so
/// every pending command reaches every proposer. Without relays, commands
/// starve at replicas whose proposals systematically lose — the leader's
/// value wins every Paxos/PBFT slot, and `DeterministicMin` tie-breaks
/// sort one replica's commands ahead of another's — so under load only
/// one replica's clients would ever be served. Relays are the dissemination
/// half of a real SMR service: any replica accepts a submission, the
/// winning batch (whosever it is) carries it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SmrMsg<V> {
    slots: Vec<(Slot, ConsensusMsg<V>)>,
    claims: Vec<(Slot, V)>,
    relays: Vec<V>,
    watermark: Slot,
}

impl<V> SmrMsg<V> {
    /// An empty bundle (watermark 0).
    #[must_use]
    pub fn new() -> Self {
        SmrMsg {
            slots: Vec::new(),
            claims: Vec::new(),
            relays: Vec::new(),
            watermark: 0,
        }
    }

    /// The sender's contiguous commit point: every slot below it is
    /// committed at the sender.
    #[must_use]
    pub fn watermark(&self) -> Slot {
        self.watermark
    }

    /// Stamps the sender's contiguous commit point. Every bundle a replica
    /// sends must carry it: a bundle stamped 0 keeps every peer's decided
    /// engines lingering.
    pub fn set_watermark(&mut self, committed: Slot) {
        self.watermark = committed;
    }

    /// Appends slot `s`'s payload for this round.
    pub fn push(&mut self, slot: Slot, msg: ConsensusMsg<V>) {
        self.slots.push((slot, msg));
    }

    /// The payload carried for `slot`, if any.
    #[must_use]
    pub fn slot(&self, slot: Slot) -> Option<&ConsensusMsg<V>> {
        self.slots.iter().find(|(s, _)| *s == slot).map(|(_, m)| m)
    }

    /// Iterates over `(slot, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &ConsensusMsg<V>)> {
        self.slots.iter().map(|(s, m)| (*s, m))
    }

    /// Number of open slots carried (claims not included — see
    /// [`SmrMsg::claims`]; a catch-up bundle can carry claims and no
    /// slots).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether the bundle carries no slots, claims or relays (the
    /// watermark alone does not count).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty() && self.claims.is_empty() && self.relays.is_empty()
    }

    /// Appends a decision claim for `slot`.
    pub fn push_claim(&mut self, slot: Slot, value: V) {
        self.claims.push((slot, value));
    }

    /// The decision claims carried by this bundle.
    #[must_use]
    pub fn claims(&self) -> &[(Slot, V)] {
        &self.claims
    }

    /// Appends a relay: a value whose commands the sender wants
    /// disseminated to every proposer.
    pub fn push_relay(&mut self, value: V) {
        self.relays.push(value);
    }

    /// The relayed values carried by this bundle.
    #[must_use]
    pub fn relays(&self) -> &[V] {
        &self.relays
    }

    /// The highest slot the bundle references (slot payloads or claims):
    /// how far its sender's log demonstrably extends.
    #[must_use]
    pub fn max_slot(&self) -> Option<Slot> {
        self.slots
            .iter()
            .map(|(s, _)| *s)
            .chain(self.claims.iter().map(|(s, _)| *s))
            .max()
    }
}

impl<V> FromIterator<(Slot, ConsensusMsg<V>)> for SmrMsg<V> {
    fn from_iter<I: IntoIterator<Item = (Slot, ConsensusMsg<V>)>>(iter: I) -> Self {
        SmrMsg {
            slots: iter.into_iter().collect(),
            claims: Vec::new(),
            relays: Vec::new(),
            watermark: 0,
        }
    }
}

/// One replica of the replicated state machine.
///
/// Drive it with any executor of [`RoundProcess`] (the `gencon-sim`
/// lock-step simulator, the `gencon-net` runtime, …). The replica opens up
/// to `window` slots at once; each advances through the generic algorithm's
/// schedule in lock-step with its peers (all replicas open slot `s` in the
/// same global round, because openings are a deterministic function of the
/// shared commit sequence).
pub struct Replica<V: Value> {
    id: ProcessId,
    params: Params<V>,
    /// Client commands queued locally, next to be proposed.
    pending: Vec<V>,
    /// Proposed-with when the local queue is empty.
    noop: V,
    /// Open instances: slot → (engine, the global round it opened at).
    open: BTreeMap<Slot, (GenericConsensus<V>, u64)>,
    /// Decided engines kept participating: slot → (engine, opened round,
    /// decided round). A decided process keeps voting (the round model's
    /// "its votes help laggards reach TD") — without this, a replica that
    /// decides slot `s` and opens `s + 1` strands any peer that missed the
    /// deciding round: the peer alone can never reach `TD` votes for `s`.
    lingering: BTreeMap<Slot, (GenericConsensus<V>, u64, u64)>,
    /// The latest watermark heard from each process (this replica's own
    /// entry is its commit point): a lingering slot below all of them is
    /// committed everywhere.
    watermarks: Vec<Slot>,
    /// Decided-but-not-yet-committed slots (waiting for lower slots).
    decided: BTreeMap<Slot, V>,
    /// Decision claims to attach to the next bundle: slots we committed
    /// that a peer's last bundle showed it still working on.
    claim_queue: BTreeMap<Slot, V>,
    /// Claim tallies for our own open slots: slot → value → claimants.
    /// Adoption needs `b + 1` distinct claimants per (slot, value).
    claim_votes: BTreeMap<Slot, BTreeMap<V, gencon_types::ProcessSet>>,
    /// The retained committed log: values of slots
    /// `[committed_base, committed_base + committed.len())`. Everything
    /// below `committed_base` was compacted away after a snapshot — the
    /// replica can no longer answer decision claims for those slots (that
    /// is the **claim horizon**; laggards further behind need snapshot
    /// state transfer, see `gencon-server`).
    committed: Vec<V>,
    /// First retained committed slot (0 until the first compaction).
    committed_base: Slot,
    /// Next slot to open.
    next_slot: Slot,
    /// Max simultaneously open slots.
    window: usize,
    /// Replica reports `output()` once this many commands committed.
    commit_target: usize,
    /// The slot-opening budget: `None` keeps the window full (empty
    /// queues propose the no-op), `Some(k)` opens at most `k` new slots
    /// in the next send — the batching replica's demand, set before each
    /// send.
    budget: Option<usize>,
}

impl<V: Value> Replica<V> {
    /// Creates a replica.
    ///
    /// * `params` — the per-instance consensus parameterization (e.g. from
    ///   `gencon_algos::pbft`);
    /// * `pending` — locally queued client commands, proposed in order;
    /// * `noop` — proposed by a slot that opens while the queue is empty
    ///   (consensus decides *some* command per slot; this replica keeps its
    ///   window full until `commit_target` slots are taken);
    /// * `commit_target` — how many committed commands constitute "done"
    ///   for [`RoundProcess::output`] (executors use it as a stop signal).
    ///
    /// The window defaults to 1 (sequential slots); see
    /// [`Replica::with_window`].
    ///
    /// # Errors
    ///
    /// Propagates [`ParamsError`] if `params` is invalid.
    pub fn new(
        id: ProcessId,
        params: Params<V>,
        pending: Vec<V>,
        noop: V,
        commit_target: usize,
    ) -> Result<Self, ParamsError> {
        params.validate()?;
        Ok(Replica {
            id,
            watermarks: vec![0; params.cfg.n()],
            params,
            pending,
            noop,
            open: BTreeMap::new(),
            lingering: BTreeMap::new(),
            decided: BTreeMap::new(),
            claim_queue: BTreeMap::new(),
            claim_votes: BTreeMap::new(),
            committed: Vec::new(),
            committed_base: 0,
            next_slot: 0,
            window: 1,
            commit_target,
            budget: None,
        })
    }

    /// Sets the number of slots allowed in flight simultaneously
    /// (pipelining). All replicas must use the same window.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// The retained committed command log: slots from
    /// [`Replica::committed_base`] on (the full log until the first
    /// [`Replica::compact_below`]).
    #[must_use]
    pub fn committed(&self) -> &[V] {
        &self.committed
    }

    /// First slot still retained in [`Replica::committed`].
    #[must_use]
    pub fn committed_base(&self) -> Slot {
        self.committed_base
    }

    /// Total slots ever committed (compacted prefix included) — the next
    /// slot the contiguous log needs.
    #[must_use]
    pub fn committed_len(&self) -> usize {
        self.committed_base as usize + self.committed.len()
    }

    /// Drops retained committed values below `slot`, bounding in-memory
    /// growth once a snapshot covers that prefix. Only already-committed
    /// slots can be compacted (`slot` is clamped to the contiguous commit
    /// point); compaction below the current base is a no-op.
    ///
    /// After compaction the replica no longer serves decision claims for
    /// the dropped slots: `slot` becomes the claim horizon.
    pub fn compact_below(&mut self, slot: Slot) {
        let slot = slot.min(self.committed_len() as Slot);
        if slot <= self.committed_base {
            return;
        }
        let cut = (slot - self.committed_base) as usize;
        self.committed.drain(..cut);
        self.committed_base = slot;
    }

    /// The system configuration (n, f, b) this replica runs under.
    #[must_use]
    pub fn config(&self) -> gencon_types::Config {
        self.params.cfg
    }

    /// The decision threshold TD — how many concordant round messages
    /// complete a quorum.
    #[must_use]
    pub fn td(&self) -> usize {
        self.params.td
    }

    /// Commands still queued locally.
    #[must_use]
    pub fn pending(&self) -> &[V] {
        &self.pending
    }

    /// Currently open (undecided or uncommitted) slots.
    #[must_use]
    pub fn open_slots(&self) -> Vec<Slot> {
        self.open.keys().copied().collect()
    }

    /// Enqueues another client command.
    pub fn submit(&mut self, command: V) {
        self.pending.push(command);
    }

    /// Whether no slot is open, lingering or decided-uncommitted and no
    /// claim waits to be sent: the consensus side has nothing left to do.
    fn is_settled(&self) -> bool {
        self.open.is_empty()
            && self.lingering.is_empty()
            && self.decided.is_empty()
            && self.claim_queue.is_empty()
    }

    /// Opens new slots up to the window limit and the opening budget.
    /// Slot openings are a pure function of (committed count, open count,
    /// budget, round); the budget comes from the round's heard bundles, so
    /// in a good round it is identical on every honest replica.
    fn refill_window(&mut self, now: Round) {
        let mut budget = self.budget.unwrap_or(usize::MAX);
        while budget > 0
            && self.open.len() < self.window
            && (self.committed_len() + self.decided.len() + self.open.len())
                < self.commit_target.max(self.committed_len() + 1)
        {
            budget -= 1;
            let slot = self.next_slot;
            self.next_slot += 1;
            let proposal = if self.pending.is_empty() {
                self.noop.clone()
            } else {
                self.pending.remove(0)
            };
            let engine = GenericConsensus::new_unchecked(self.id, self.params.clone(), proposal);
            self.open.insert(slot, (engine, now.number()));
        }
    }

    /// Appends one recovered committed value as the next contiguous slot
    /// (the WAL-replay path; see `BatchingReplica::replay_committed`).
    pub(crate) fn restore_committed(&mut self, value: V) {
        self.committed.push(value);
        self.next_slot = self.next_slot.max(self.committed_len() as Slot);
    }

    /// Fast-forwards the committed sequence to `upto`: every slot below it
    /// is now covered externally (a snapshot), so local engines, decided
    /// values and claim state for those slots are dropped, and the
    /// retained committed log restarts at `upto`. Anything already
    /// decided above the snapshot recommits contiguously.
    pub(crate) fn install_decided_prefix(&mut self, upto: Slot) {
        self.open.retain(|s, _| *s >= upto);
        self.lingering.retain(|s, _| *s >= upto);
        self.decided.retain(|s, _| *s >= upto);
        self.claim_queue.retain(|s, _| *s >= upto);
        self.claim_votes.retain(|s, _| *s >= upto);
        self.committed.clear();
        self.committed_base = upto;
        self.next_slot = self.next_slot.max(upto);
        while let Some(v) = self.decided.remove(&(self.committed_len() as Slot)) {
            self.committed.push(v);
        }
    }

    /// Aligns each live slot's opening round with the earliest opening any
    /// peer's messages imply.
    ///
    /// Replicas decide a slot (and hence open the next) in different global
    /// rounds under loss or crashes, which would run the next slot's
    /// instance phase-offset across replicas — fatal under `FLAG = φ`,
    /// where only votes timestamped with the *current* phase count. Every
    /// consensus message carries its phase tag, and its variant names the
    /// round kind, so a receiver can reconstruct the sender's local round
    /// exactly (`Schedule::round_of`) and re-base its own engine to the
    /// minimum implied opening. Min-adoption is monotone (openings only
    /// move earlier, never below round 1) and self-propagating — once a
    /// replica adopts an earlier opening, its own messages carry it onward
    /// — so after a good period all honest replicas converge on one
    /// opening per slot. Skipped local rounds are indistinguishable from
    /// message loss, which every instantiation tolerates by design; a
    /// Byzantine phase tag can only pull the opening earlier (bounded by
    /// round 1), i.e. fast-forward the instance, never stall it.
    fn align_openings(&mut self, r: Round, heard: &HeardOf<SmrMsg<V>>) {
        let schedule = self.params.schedule();
        let live = self
            .open
            .iter_mut()
            .map(|(s, (_, opened))| (*s, opened))
            .chain(
                self.lingering
                    .iter_mut()
                    .map(|(s, (_, opened, _))| (*s, opened)),
            );
        for (slot, opened) in live {
            for (_, bundle) in heard.iter() {
                let Some(m) = bundle.slot(slot) else { continue };
                let kind = match m {
                    ConsensusMsg::Selection(..) => gencon_types::RoundKind::Selection,
                    ConsensusMsg::Validation(..) => gencon_types::RoundKind::Validation,
                    ConsensusMsg::Decision(..) => gencon_types::RoundKind::Decision,
                };
                let Some(local) = schedule.round_of(m.phase(), kind) else {
                    continue;
                };
                let implied = (r.number() + 1).saturating_sub(local.number());
                if implied >= 1 && implied < *opened {
                    *opened = implied;
                }
            }
        }
    }

    /// The decided value of `slot`, if this replica has one (committed,
    /// decided-pending, or still lingering).
    fn decision_of(&self, slot: Slot) -> Option<V> {
        if slot >= self.committed_base {
            if let Some(v) = self.committed.get((slot - self.committed_base) as usize) {
                return Some(v.clone());
            }
        }
        if let Some(v) = self.decided.get(&slot) {
            return Some(v.clone());
        }
        self.lingering
            .get(&slot)
            .and_then(|(e, _, _)| e.decision().map(|d| d.value.clone()))
    }

    /// Decision-certificate exchange: tallies incoming claims for our open
    /// slots (adopting a value once `b + 1` distinct senders vouch for it —
    /// at least one is honest, so Agreement makes the value the slot's true
    /// decision), and queues claims for peers still working slots we have
    /// already decided. A slot below the bundle's watermark is committed at
    /// its sender (it is only lingering there), so it draws no claim. This
    /// is the unbounded catch-up path: lingering engines cover short gaps
    /// cheaply, certificates cover any gap.
    fn exchange_claims(&mut self, heard: &HeardOf<SmrMsg<V>>) {
        let threshold = self.params.cfg.b() + 1;
        for (sender, bundle) in heard.iter() {
            for (slot, value) in bundle.claims() {
                if self.open.contains_key(slot) {
                    self.claim_votes
                        .entry(*slot)
                        .or_default()
                        .entry(value.clone())
                        .or_default()
                        .insert(sender);
                }
            }
            for (slot, _) in bundle.iter().filter(|(s, _)| *s >= bundle.watermark()) {
                if let Some(v) = self.decision_of(slot) {
                    self.claim_queue.insert(slot, v);
                }
            }
        }
        let adopt: Vec<(Slot, V)> = self
            .claim_votes
            .iter()
            .filter(|(s, _)| self.open.contains_key(*s))
            .filter_map(|(s, per_value)| {
                per_value
                    .iter()
                    .find(|(_, who)| who.len() >= threshold)
                    .map(|(v, _)| (*s, v.clone()))
            })
            .collect();
        for (slot, value) in adopt {
            self.open.remove(&slot);
            self.decided.insert(slot, value);
        }
        // Tallies are only meaningful for slots still open.
        let open_slots: Vec<Slot> = self.open.keys().copied().collect();
        self.claim_votes.retain(|s, _| open_slots.contains(s));
    }

    /// Harvests decided slots (retiring their engines into the linger set,
    /// unless the slot is in `full`), commits in order, and retires
    /// lingering engines that are past the linger bound or below every
    /// process's watermark.
    ///
    /// `full` lists the slots this round heard all `n` processes on. Such
    /// a slot retires as soon as it decides: every process took part in
    /// the deciding round, and one that still missed the decision adopts
    /// it from the `b + 1` claims its next bundle draws.
    fn harvest(&mut self, now: Round, full: &[Slot]) {
        let newly: Vec<Slot> = self
            .open
            .iter()
            .filter(|(_, (e, _))| e.decision().is_some())
            .map(|(s, _)| *s)
            .collect();
        for slot in newly {
            let (engine, opened) = self.open.remove(&slot).expect("slot is open");
            let d = engine.decision().expect("checked above").clone();
            self.decided.insert(slot, d.value);
            if !full.contains(&slot) {
                self.lingering.insert(slot, (engine, opened, now.number()));
            }
        }
        // Commit the contiguous prefix.
        while let Some(v) = self.decided.remove(&(self.committed_len() as Slot)) {
            self.committed.push(v);
        }
        // Expire lingering engines past their keep-alive, or committed at
        // every process.
        let own = self.committed_len() as Slot;
        if let Some(w) = self.watermarks.get_mut(self.id.index()) {
            *w = own;
        }
        let everywhere = self.watermarks.iter().copied().min().unwrap_or(0);
        self.lingering.retain(|slot, (_, _, decided_at)| {
            *slot >= everywhere && now.number() < *decided_at + LINGER_ROUNDS
        });
    }

    /// A fresh bundle stamped with this replica's commit point.
    pub(crate) fn stamped_bundle(&self) -> SmrMsg<V> {
        let mut bundle = SmrMsg::new();
        bundle.set_watermark(self.committed_len() as Slot);
        bundle
    }
}

impl<V: Value> RoundProcess for Replica<V> {
    type Msg = SmrMsg<V>;
    type Output = Vec<V>;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn requirement(&self, r: Round) -> Predicate {
        // The strictest requirement among live slots this round: if any
        // slot is in a selection round, the bundle wants Pcons.
        let mut need = Predicate::Good;
        let opened_rounds = self
            .open
            .values()
            .map(|(e, opened)| (e, *opened))
            .chain(self.lingering.values().map(|(e, opened, _)| (e, *opened)));
        for (engine, opened) in opened_rounds {
            let local = Round::new(r.number() - opened + 1);
            if engine.requirement(local) == Predicate::Cons {
                need = Predicate::Cons;
            }
        }
        need
    }

    fn send(&mut self, r: Round) -> Outgoing<Self::Msg> {
        self.refill_window(r);
        let mut bundle = self.stamped_bundle();
        let live = self
            .open
            .iter_mut()
            .map(|(s, (e, opened))| (*s, e, *opened))
            .chain(
                self.lingering
                    .iter_mut()
                    .map(|(s, (e, opened, _))| (*s, e, *opened)),
            );
        for (slot, engine, opened) in live {
            let local = Round::new(r.number() - opened + 1);
            match engine.send(local) {
                Outgoing::Silent => {}
                Outgoing::Broadcast(m) => bundle.push(slot, m),
                // Per-instance multicasts degrade to bundle broadcast; the
                // constant-Π selectors of Byzantine algorithms make this
                // exact, and benign leader-based instances just send a few
                // extra copies.
                Outgoing::Multicast { msg, .. } => bundle.push(slot, msg),
                Outgoing::PerDest(_) => {
                    unreachable!("honest engines never equivocate")
                }
            }
        }
        for (slot, v) in std::mem::take(&mut self.claim_queue) {
            bundle.push_claim(slot, v);
        }
        if bundle.is_empty() {
            Outgoing::Silent
        } else {
            Outgoing::Broadcast(bundle)
        }
    }

    fn receive(&mut self, r: Round, heard: &HeardOf<Self::Msg>) {
        let n = self.params.cfg.n();
        for (sender, bundle) in heard.iter() {
            if let Some(w) = self.watermarks.get_mut(sender.index()) {
                *w = bundle.watermark();
            }
        }
        self.align_openings(r, heard);
        self.exchange_claims(heard);
        let mut full: Vec<Slot> = Vec::new();
        let live = self
            .open
            .iter_mut()
            .map(|(s, (e, opened))| (*s, e, *opened))
            .chain(
                self.lingering
                    .iter_mut()
                    .map(|(s, (e, opened, _))| (*s, e, *opened)),
            );
        for (slot, engine, opened) in live {
            let local = Round::new(r.number() - opened + 1);
            let mut slot_heard: HeardOf<ConsensusMsg<V>> = HeardOf::empty(n);
            for (sender, bundle) in heard.iter() {
                if let Some(m) = bundle.slot(slot) {
                    slot_heard.put(sender, m.clone());
                }
            }
            if slot_heard.count() == n {
                full.push(slot);
            }
            engine.receive(local, &slot_heard);
        }
        self.harvest(r, &full);
    }

    fn output(&self) -> Option<Vec<V>> {
        (self.committed_len() >= self.commit_target).then(|| self.committed.clone())
    }
}

impl<V: Value> std::fmt::Debug for Replica<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id.to_string())
            .field("committed", &self.committed_len())
            .field("open", &self.open.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_algos::{mqb, paxos, pbft};
    use gencon_sim::{properties, CrashAt, CrashPlan, Gst, Simulation};

    fn run_cluster(
        replicas: Vec<Replica<u64>>,
        crashes: CrashPlan,
        gst: Option<(u64, f64, u64)>,
        max_rounds: u64,
    ) -> gencon_sim::Outcome<Vec<u64>> {
        let cfg = replicas[0].params.cfg;
        let mut builder = Simulation::builder(cfg);
        for r in replicas {
            builder = builder.honest(r);
        }
        if let Some((g, loss, seed)) = gst {
            builder = builder.network(Gst::new(g, loss, seed));
        }
        builder.crashes(crashes).build().unwrap().run(max_rounds)
    }

    fn make_replicas(
        spec: &gencon_algos::AlgorithmSpec<u64>,
        queues: Vec<Vec<u64>>,
        target: usize,
        window: usize,
    ) -> Vec<Replica<u64>> {
        queues
            .into_iter()
            .enumerate()
            .map(|(i, q)| {
                Replica::new(ProcessId::new(i), spec.params.clone(), q, 0, target)
                    .unwrap()
                    .with_window(window)
            })
            .collect()
    }

    use gencon_types::ProcessId;

    #[test]
    fn pbft_replicated_log_commits_in_order() {
        let spec = pbft::<u64>(4, 1).unwrap();
        let queues = vec![
            vec![11, 12, 13],
            vec![21, 22, 23],
            vec![31, 32, 33],
            vec![41, 42, 43],
        ];
        let out = run_cluster(
            make_replicas(&spec, queues, 3, 1),
            CrashPlan::none(),
            None,
            60,
        );
        assert!(
            out.all_correct_decided,
            "all replicas hit the commit target"
        );
        assert!(properties::agreement(&out, |log| log), "identical logs");
        let log = out.outputs[0].as_ref().unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0], 11, "smallest proposal wins each fresh slot");
    }

    #[test]
    fn pipelined_window_commits_faster_than_sequential() {
        let spec = pbft::<u64>(4, 1).unwrap();
        let queues: Vec<Vec<u64>> = (1..=4)
            .map(|r| (0..4).map(|s| r * 10 + s).collect())
            .collect();
        let seq = run_cluster(
            make_replicas(&spec, queues.clone(), 4, 1),
            CrashPlan::none(),
            None,
            100,
        );
        let pipe = run_cluster(
            make_replicas(&spec, queues, 4, 4),
            CrashPlan::none(),
            None,
            100,
        );
        assert!(seq.all_correct_decided && pipe.all_correct_decided);
        assert!(
            pipe.rounds_executed < seq.rounds_executed,
            "window 4 ({} rounds) beats window 1 ({} rounds)",
            pipe.rounds_executed,
            seq.rounds_executed
        );
        // Same committed values in both runs (proposals and tie-breaks are
        // deterministic), regardless of pipelining.
        assert_eq!(seq.outputs[0], pipe.outputs[0]);
    }

    #[test]
    fn logs_identical_under_partial_synchrony() {
        let spec = mqb::<u64>(5, 1).unwrap();
        let queues: Vec<Vec<u64>> = (1..=5).map(|r| vec![r * 100, r * 100 + 1]).collect();
        let out = run_cluster(
            make_replicas(&spec, queues, 2, 2),
            CrashPlan::none(),
            Some((6, 0.7, 42)),
            80,
        );
        assert!(out.all_correct_decided);
        assert!(properties::agreement(&out, |log| log));
    }

    #[test]
    fn paxos_smr_with_crash() {
        let spec = paxos::<u64>(3, 1, ProcessId::new(0)).unwrap();
        let queues = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let crashes = CrashPlan::none().with(
            ProcessId::new(2),
            CrashAt::mid_send(gencon_types::Round::new(4), 1),
        );
        let out = run_cluster(make_replicas(&spec, queues, 2, 1), crashes, None, 60);
        assert!(out.all_correct_decided);
        assert!(properties::agreement(&out, |log| log));
    }

    #[test]
    fn empty_queues_fill_with_noops() {
        let spec = pbft::<u64>(4, 1).unwrap();
        let queues = vec![vec![], vec![], vec![], vec![]];
        let out = run_cluster(
            make_replicas(&spec, queues, 2, 1),
            CrashPlan::none(),
            None,
            40,
        );
        assert!(out.all_correct_decided);
        let log = out.outputs[0].as_ref().unwrap();
        assert_eq!(log, &[0, 0], "no-op commands fill empty slots");
    }

    #[test]
    fn submit_feeds_later_slots() {
        let spec = pbft::<u64>(4, 1).unwrap();
        let mut replicas = make_replicas(&spec, vec![vec![]; 4], 1, 1);
        for r in &mut replicas {
            r.submit(7);
        }
        assert_eq!(replicas[0].pending(), &[7]);
        let out = run_cluster(replicas, CrashPlan::none(), None, 30);
        assert_eq!(out.outputs[0].as_ref().unwrap(), &[7]);
    }

    /// A peer lingering on a slot it has committed (the slot is below its
    /// bundle's watermark) draws no decision claim; a peer still working
    /// the slot does.
    #[test]
    fn no_claims_for_slots_the_sender_has_committed() {
        use gencon_core::DecisionMsg;
        use gencon_types::Phase;
        let spec = pbft::<u64>(4, 1).unwrap();
        let mut r = Replica::new(ProcessId::new(0), spec.params.clone(), vec![], 0, 1).unwrap();
        r.restore_committed(7);
        let vote = ConsensusMsg::Decision(
            Phase::new(1),
            DecisionMsg {
                vote: 7,
                ts: Phase::new(1),
            },
        );
        for (watermark, claimed) in [(1, false), (0, true)] {
            let mut bundle = SmrMsg::new();
            bundle.push(0, vote.clone());
            bundle.set_watermark(watermark);
            let mut heard = HeardOf::empty(4);
            heard.put(ProcessId::new(1), bundle);
            r.receive(Round::new(5), &heard);
            assert_eq!(
                r.claim_queue.contains_key(&0),
                claimed,
                "watermark {watermark}"
            );
            r.claim_queue.clear();
        }
    }

    #[test]
    fn accessors_and_debug() {
        let spec = pbft::<u64>(4, 1).unwrap();
        let r = Replica::new(ProcessId::new(1), spec.params.clone(), vec![5], 0, 1).unwrap();
        assert_eq!(r.committed(), &[] as &[u64]);
        assert_eq!(r.pending(), &[5]);
        assert!(r.open_slots().is_empty());
        let dbg = format!("{r:?}");
        assert!(dbg.contains("p1"));
    }
}
