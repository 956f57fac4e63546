//! Joining command-scoped events into per-command latency breakdowns,
//! plus the slow-command exemplar ring.
//!
//! Slot spans ([`crate::span`]) describe the consensus machinery; this
//! module describes what a *client* felt. The command-scoped
//! [`EventKind`]s (`Submitted` … `CmdAcked`) key every stamp by the
//! compact command id (carried in the event's `slot` field), and
//! [`assemble_cmd_spans`] joins them with the already-assembled
//! [`SlotSpan`]s through the decided slot (`CmdAcked`'s detail) into a
//! [`CmdSpan`]: gateway queue wait, batch-formation wait, ordering,
//! durable-gate wait, ack, relay hops, bounces and the end-to-end
//! figure.
//!
//! [`SlowCmdRing`] keeps the top-K commands by e2e under a per-slot
//! sequence lock so the ack hot path can offer exemplars without
//! blocking, and the admin `slowest` command can read them without
//! stopping the writers.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::ring::{EventKind, TraceEvent};
use crate::span::SlotSpan;

/// One command's life through this node, assembled from its
/// command-scoped events and the slot span it landed in.
///
/// Every timestamp is µs on this node's recorder clock; every field is
/// `Option` because the ring tail may hold only part of the command's
/// life (and relay-path commands leave different marks on the origin
/// and the coordinator). Derived segments are only present when both
/// endpoints are.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CmdSpan {
    /// The compact command id (`gencon_types::encode_cmd` namespacing).
    pub cmd: u64,
    /// The consensus slot the command was decided in, when known
    /// (`CmdAcked`'s detail, falling back to `Batched`'s).
    pub slot: Option<u64>,
    /// When the gateway read the submit frame (recorder µs).
    pub submitted_ts_us: Option<u64>,
    /// When the command entered the replica's propose queue.
    pub queued_ts_us: Option<u64>,
    /// When the command was drained into a proposed batch.
    pub batched_ts_us: Option<u64>,
    /// When the reply was released to the client.
    pub acked_ts_us: Option<u64>,
    /// When this node first shipped the command in a relay chunk.
    pub relayed_ts_us: Option<u64>,
    /// When this node first merged the command from a peer's relay.
    pub merged_ts_us: Option<u64>,
    /// The peer the first merged relay came from.
    pub merged_from: Option<u64>,
    /// Submit frame read → propose queue: gateway queueing.
    pub queue_wait_us: Option<u64>,
    /// Propose queue → batch drain: batch-formation wait.
    pub batch_wait_us: Option<u64>,
    /// Batch drain → decided (slot-span join): consensus ordering.
    pub order_us: Option<u64>,
    /// Portion of the ack the reply sat parked behind the durability
    /// gate (the slot span's `ack_gate_us`).
    pub persist_gate_wait_us: Option<u64>,
    /// Decided (slot-span join) → reply released.
    pub ack_us: Option<u64>,
    /// Submit frame read → reply released: what the client felt.
    pub e2e_us: Option<u64>,
    /// Relay legs this node observed for the command (shipped out plus
    /// merged in).
    pub relay_hops: u32,
    /// `Backpressure`/`Redirect` bounces the gateway issued for it.
    pub bounces: u32,
}

impl CmdSpan {
    /// One JSON object, no trailing newline; absent segments are
    /// omitted, counters always appear.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"cmd\":{}", self.cmd);
        let mut push = |name: &str, v: Option<u64>| {
            if let Some(v) = v {
                out.push_str(&format!(",\"{name}\":{v}"));
            }
        };
        push("slot", self.slot);
        push("submitted_ts_us", self.submitted_ts_us);
        push("queued_ts_us", self.queued_ts_us);
        push("batched_ts_us", self.batched_ts_us);
        push("acked_ts_us", self.acked_ts_us);
        push("relayed_ts_us", self.relayed_ts_us);
        push("merged_ts_us", self.merged_ts_us);
        push("merged_from", self.merged_from);
        push("queue_wait_us", self.queue_wait_us);
        push("batch_wait_us", self.batch_wait_us);
        push("order_us", self.order_us);
        push("persist_gate_wait_us", self.persist_gate_wait_us);
        push("ack_us", self.ack_us);
        push("e2e_us", self.e2e_us);
        out.push_str(&format!(
            ",\"relay_hops\":{},\"bounces\":{}}}",
            self.relay_hops, self.bounces
        ));
        out
    }
}

#[derive(Clone, Copy, Default)]
struct CmdMarks {
    submitted: Option<u64>,
    queued: Option<u64>,
    batched: Option<(u64, u64)>, // (ts, proposed slot)
    acked: Option<(u64, u64)>,   // (ts, decided slot)
    relayed: Option<u64>,
    merged: Option<(u64, u64)>, // (ts, sender peer)
    relay_hops: u32,
    bounces: u32,
}

/// Joins command-scoped `events` by command id into latency
/// breakdowns, one [`CmdSpan`] per command seen, ordered by command id,
/// joined with `slot_spans` (sorted by slot, as [`crate::span::assemble_spans`]
/// returns them) through the decided slot.
///
/// For each timestamp kind the **first** occurrence per command wins
/// (retries do not stretch the span); `Relayed`/`RelayMerged`/`Bounced`
/// occurrences are *counted* beyond the first. Commands whose slot
/// never decided inside the window (or decided on a peer) simply lack
/// the slot-anchored segments — a partial view is still a view.
#[must_use]
pub fn assemble_cmd_spans(events: &[TraceEvent], slot_spans: &[SlotSpan]) -> Vec<CmdSpan> {
    let mut marks: Vec<(u64, CmdMarks)> = Vec::new();
    fn at(marks: &mut Vec<(u64, CmdMarks)>, key: u64) -> usize {
        match marks.binary_search_by_key(&key, |(c, _)| *c) {
            Ok(i) => i,
            Err(i) => {
                marks.insert(i, (key, CmdMarks::default()));
                i
            }
        }
    }
    for ev in events {
        match ev.kind {
            EventKind::Submitted
            | EventKind::CmdQueued
            | EventKind::Batched
            | EventKind::Relayed
            | EventKind::RelayMerged
            | EventKind::Bounced
            | EventKind::CmdAcked => {}
            _ => continue,
        }
        let i = at(&mut marks, ev.slot); // cmd-scoped events carry the cmd id here
        let m = &mut marks[i].1;
        match ev.kind {
            EventKind::Submitted => m.submitted = m.submitted.or(Some(ev.ts_us)),
            EventKind::CmdQueued => m.queued = m.queued.or(Some(ev.ts_us)),
            EventKind::Batched => m.batched = m.batched.or(Some((ev.ts_us, ev.detail))),
            EventKind::Relayed => {
                m.relayed = m.relayed.or(Some(ev.ts_us));
                m.relay_hops = m.relay_hops.saturating_add(1);
            }
            EventKind::RelayMerged => {
                m.merged = m.merged.or(Some((ev.ts_us, ev.detail)));
                m.relay_hops = m.relay_hops.saturating_add(1);
            }
            EventKind::Bounced => m.bounces = m.bounces.saturating_add(1),
            EventKind::CmdAcked => m.acked = m.acked.or(Some((ev.ts_us, ev.detail))),
            _ => unreachable!(),
        }
    }
    marks
        .into_iter()
        .map(|(cmd, m)| {
            let slot = m.acked.map(|(_, s)| s).or(m.batched.map(|(_, s)| s));
            let span = slot.and_then(|s| {
                slot_spans
                    .binary_search_by_key(&s, |sp| sp.slot)
                    .ok()
                    .map(|i| slot_spans[i])
            });
            let decided = span.and_then(|sp| sp.decided_ts_us);
            let submitted = m.submitted;
            let acked_ts = m.acked.map(|(ts, _)| ts);
            CmdSpan {
                cmd,
                slot,
                submitted_ts_us: submitted,
                queued_ts_us: m.queued,
                batched_ts_us: m.batched.map(|(ts, _)| ts),
                acked_ts_us: acked_ts,
                relayed_ts_us: m.relayed,
                merged_ts_us: m.merged.map(|(ts, _)| ts),
                merged_from: m.merged.map(|(_, from)| from),
                queue_wait_us: match (submitted, m.queued) {
                    (Some(s), Some(q)) => Some(q.saturating_sub(s)),
                    _ => None,
                },
                batch_wait_us: match (m.queued, m.batched) {
                    (Some(q), Some((b, _))) => Some(b.saturating_sub(q)),
                    _ => None,
                },
                order_us: match (m.batched, decided) {
                    (Some((b, _)), Some(d)) => Some(d.saturating_sub(b)),
                    _ => None,
                },
                persist_gate_wait_us: span.and_then(|sp| sp.ack_gate_us),
                ack_us: match (decided, acked_ts) {
                    (Some(d), Some(a)) => Some(a.saturating_sub(d)),
                    _ => None,
                },
                e2e_us: match (submitted, acked_ts) {
                    (Some(s), Some(a)) => Some(a.saturating_sub(s)),
                    _ => None,
                },
                relay_hops: m.relay_hops,
                bounces: m.bounces,
            }
        })
        .collect()
}

/// One slow-command exemplar: enough to find the command again in a
/// pulled trace (and to stitch its relay hops cluster-wide).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CmdExemplar {
    /// The compact command id.
    pub cmd: u64,
    /// End-to-end latency, submit frame read → reply released (µs).
    pub e2e_us: u64,
    /// The slot the command decided in.
    pub slot: u64,
    /// Submit instant on this node's recorder clock (µs) — mappable
    /// into the monitor timebase by a clock estimate.
    pub submitted_ts_us: u64,
    /// Relay legs the gateway's trace observed for the command.
    pub relay_hops: u32,
}

impl CmdExemplar {
    /// One JSON object, no trailing newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cmd\":{},\"e2e_us\":{},\"slot\":{},\"submitted_ts_us\":{},\"relay_hops\":{}}}",
            self.cmd, self.e2e_us, self.slot, self.submitted_ts_us, self.relay_hops
        )
    }
}

/// Exemplar slots retained — the "top-K by e2e" the admin `slowest`
/// command can surface.
const SLOW_SLOTS: usize = 16;

/// One exemplar under a per-slot sequence lock. Unlike [`crate::HashCell`],
/// whose global ticket assigns each writer a private slot, *any* ack
/// thread may target *any* slot here (whichever currently holds the
/// minimum), so the sequence word doubles as a try-lock: a writer
/// claims the slot by CAS-ing the even sequence to odd, re-verifies the
/// displacement decision inside the lock, and publishes with the next
/// even value. Readers use the standard seqlock protocol.
#[derive(Default)]
struct SlowSlot {
    /// 0 = never written; odd = write in progress.
    seq: AtomicU64,
    cmd: AtomicU64,
    e2e_us: AtomicU64,
    slot: AtomicU64,
    submitted_ts_us: AtomicU64,
    relay_hops: AtomicU32,
}

/// A bounded lock-free ring of the slowest commands seen (top-K by
/// end-to-end latency). Clones share the ring; offering never blocks
/// readers and never allocates, so it is safe on the ack hot path.
///
/// Each slot's e2e only ever grows (displacement is re-verified inside
/// the per-slot lock), so a rejected offer had `K` residents at least
/// as slow at decision time — the ring holds a true top-K modulo ties.
#[derive(Clone)]
pub struct SlowCmdRing {
    slots: Arc<Vec<SlowSlot>>,
}

impl Default for SlowCmdRing {
    fn default() -> Self {
        SlowCmdRing::new()
    }
}

impl std::fmt::Debug for SlowCmdRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowCmdRing")
            .field("capacity", &SLOW_SLOTS)
            .finish()
    }
}

impl SlowCmdRing {
    /// An empty ring (capacity [`SlowCmdRing::capacity`]).
    #[must_use]
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(SLOW_SLOTS);
        slots.resize_with(SLOW_SLOTS, SlowSlot::default);
        SlowCmdRing {
            slots: Arc::new(slots),
        }
    }

    /// Exemplars the ring can hold (the K of top-K).
    #[must_use]
    pub fn capacity(&self) -> usize {
        SLOW_SLOTS
    }

    /// Offers an exemplar; it is kept iff it is slower than the current
    /// fastest resident (or an empty slot remains). Safe from any
    /// number of concurrent threads.
    pub fn offer(&self, ex: CmdExemplar) {
        loop {
            // Scan for the displacement victim: an empty slot, else the
            // current minimum e2e. Unlocked reads — the decision is
            // re-verified inside the per-slot lock below.
            let mut victim = 0usize;
            let mut victim_e2e = u64::MAX;
            let mut victim_empty = false;
            for (i, s) in self.slots.iter().enumerate() {
                if s.seq.load(Ordering::Acquire) == 0 {
                    victim = i;
                    victim_empty = true;
                    break;
                }
                let e2e = s.e2e_us.load(Ordering::Relaxed);
                if e2e < victim_e2e {
                    victim_e2e = e2e;
                    victim = i;
                }
            }
            if !victim_empty && ex.e2e_us <= victim_e2e {
                return; // K residents at least this slow — not a top-K entry
            }
            let s = &self.slots[victim];
            let seq = s.seq.load(Ordering::Acquire);
            if seq % 2 == 1 {
                std::hint::spin_loop();
                continue; // another writer holds the slot; rescan
            }
            if s.seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue; // lost the claim race; rescan
            }
            // Inside the lock: another writer may have filled or replaced
            // the victim since the scan. Per-slot values only grow, so a
            // victim still holding the scanned value is still the
            // minimum; anything else (even a larger value that is itself
            // a true top-K entry) must not be overwritten.
            if seq != 0 && (victim_empty || s.e2e_us.load(Ordering::Relaxed) != victim_e2e) {
                s.seq.store(seq, Ordering::Release); // payload untouched
                continue; // victim no longer the minimum; rescan
            }
            s.cmd.store(ex.cmd, Ordering::Relaxed);
            s.e2e_us.store(ex.e2e_us, Ordering::Relaxed);
            s.slot.store(ex.slot, Ordering::Relaxed);
            s.submitted_ts_us
                .store(ex.submitted_ts_us, Ordering::Relaxed);
            s.relay_hops.store(ex.relay_hops, Ordering::Relaxed);
            s.seq.store(seq + 2, Ordering::Release);
            return;
        }
    }

    /// The up-to-`n` slowest exemplars, descending by e2e. Torn slots
    /// (a writer lapped us repeatedly) are skipped.
    #[must_use]
    pub fn top(&self, n: usize) -> Vec<CmdExemplar> {
        let mut out = Vec::new();
        for s in self.slots.iter() {
            for _ in 0..8 {
                let before = s.seq.load(Ordering::Acquire);
                if before == 0 {
                    break;
                }
                if before % 2 == 1 {
                    std::hint::spin_loop();
                    continue;
                }
                let ex = CmdExemplar {
                    cmd: s.cmd.load(Ordering::Relaxed),
                    e2e_us: s.e2e_us.load(Ordering::Relaxed),
                    slot: s.slot.load(Ordering::Relaxed),
                    submitted_ts_us: s.submitted_ts_us.load(Ordering::Relaxed),
                    relay_hops: s.relay_hops.load(Ordering::Relaxed),
                };
                if s.seq.load(Ordering::Acquire) == before {
                    out.push(ex);
                    break;
                }
            }
        }
        out.sort_by(|a, b| b.e2e_us.cmp(&a.e2e_us).then(a.cmd.cmp(&b.cmd)));
        out.truncate(n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Stage;
    use crate::span::assemble_spans;

    fn ev(ts_us: u64, kind: EventKind, slot: u64, detail: u64) -> TraceEvent {
        TraceEvent {
            ts_us,
            stage: Stage::Ack,
            kind,
            slot,
            detail,
        }
    }

    #[test]
    fn full_command_life_breaks_down() {
        let cmd = 0x0001_0002_0000_0003u64;
        let slot_spans = assemble_spans(&[
            ev(300, EventKind::Decided, 40, 2),
            ev(520, EventKind::Acked, 40, 75),
        ]);
        let events = vec![
            ev(100, EventKind::Submitted, cmd, 1),
            ev(110, EventKind::CmdQueued, cmd, 3),
            ev(150, EventKind::Batched, cmd, 40),
            ev(530, EventKind::CmdAcked, cmd, 40),
        ];
        let spans = assemble_cmd_spans(&events, &slot_spans);
        assert_eq!(spans.len(), 1);
        let s = spans[0];
        assert_eq!(s.cmd, cmd);
        assert_eq!(s.slot, Some(40));
        assert_eq!(s.queue_wait_us, Some(10));
        assert_eq!(s.batch_wait_us, Some(40));
        assert_eq!(s.order_us, Some(150)); // batched 150 → decided 300
        assert_eq!(s.persist_gate_wait_us, Some(75));
        assert_eq!(s.ack_us, Some(230)); // decided 300 → acked 530
        assert_eq!(s.e2e_us, Some(430));
        assert_eq!(s.relay_hops, 0);
        assert_eq!(s.bounces, 0);
        // Segments tile the end-to-end exactly when every mark landed.
        assert_eq!(
            s.queue_wait_us.unwrap()
                + s.batch_wait_us.unwrap()
                + s.order_us.unwrap()
                + s.ack_us.unwrap(),
            s.e2e_us.unwrap()
        );
    }

    #[test]
    fn relay_bounce_counts_and_missing_slot_spans() {
        let cmd = 9u64;
        let events = vec![
            ev(10, EventKind::Submitted, cmd, 0),
            ev(12, EventKind::Bounced, cmd, 0),
            ev(14, EventKind::Bounced, cmd, 1),
            ev(20, EventKind::CmdQueued, cmd, 1),
            ev(30, EventKind::Relayed, cmd, 3),
            ev(95, EventKind::CmdAcked, cmd, 77), // slot 77 span not in window
        ];
        let spans = assemble_cmd_spans(&events, &[]);
        let s = spans[0];
        assert_eq!(s.slot, Some(77));
        assert_eq!(s.bounces, 2);
        assert_eq!(s.relay_hops, 1);
        assert_eq!(s.relayed_ts_us, Some(30));
        assert_eq!(s.e2e_us, Some(85));
        assert_eq!(s.order_us, None, "no slot span, no order segment");
        assert_eq!(s.ack_us, None);
    }

    #[test]
    fn first_occurrence_wins_and_cmds_sort() {
        let events = vec![
            ev(50, EventKind::Submitted, 8, 0),
            ev(90, EventKind::Submitted, 8, 0), // retry must not move it
            ev(10, EventKind::Submitted, 3, 0),
            ev(70, EventKind::CmdAcked, 3, 5),
        ];
        let spans = assemble_cmd_spans(&events, &[]);
        assert_eq!(spans.iter().map(|s| s.cmd).collect::<Vec<_>>(), vec![3, 8]);
        assert_eq!(spans[1].submitted_ts_us, Some(50));
        assert_eq!(spans[0].e2e_us, Some(60));
    }

    #[test]
    fn merged_relay_marks_the_sender() {
        let events = vec![ev(44, EventKind::RelayMerged, 6, 2)];
        let spans = assemble_cmd_spans(&events, &[]);
        assert_eq!(spans[0].merged_ts_us, Some(44));
        assert_eq!(spans[0].merged_from, Some(2));
        assert_eq!(spans[0].relay_hops, 1);
        assert_eq!(spans[0].e2e_us, None);
    }

    #[test]
    fn json_omits_missing_counts_counters_always() {
        let spans = assemble_cmd_spans(&[ev(5, EventKind::Submitted, 2, 0)], &[]);
        assert_eq!(
            spans[0].to_json(),
            "{\"cmd\":2,\"submitted_ts_us\":5,\"relay_hops\":0,\"bounces\":0}"
        );
        let ex = CmdExemplar {
            cmd: 7,
            e2e_us: 1_200,
            slot: 3,
            submitted_ts_us: 44,
            relay_hops: 2,
        };
        assert_eq!(
            ex.to_json(),
            "{\"cmd\":7,\"e2e_us\":1200,\"slot\":3,\"submitted_ts_us\":44,\"relay_hops\":2}"
        );
    }

    #[test]
    fn ring_keeps_the_slowest() {
        let ring = SlowCmdRing::new();
        assert!(ring.top(4).is_empty());
        for i in 1..=40u64 {
            ring.offer(CmdExemplar {
                cmd: i,
                e2e_us: i * 10,
                slot: i,
                submitted_ts_us: i,
                relay_hops: 0,
            });
        }
        let top = ring.top(4);
        assert_eq!(
            top.iter().map(|e| e.e2e_us).collect::<Vec<_>>(),
            vec![400, 390, 380, 370]
        );
        let all = ring.top(usize::MAX);
        assert_eq!(all.len(), ring.capacity());
        // The K slowest of 40 offers are e2e 250..=400.
        assert!(all.iter().all(|e| e.e2e_us > 240));
    }

    #[test]
    fn ring_ignores_fast_commands_once_full() {
        let ring = SlowCmdRing::new();
        for i in 0..SLOW_SLOTS as u64 {
            ring.offer(CmdExemplar {
                cmd: i,
                e2e_us: 1_000 + i,
                slot: 0,
                submitted_ts_us: 0,
                relay_hops: 0,
            });
        }
        ring.offer(CmdExemplar {
            cmd: 99,
            e2e_us: 5,
            slot: 0,
            submitted_ts_us: 0,
            relay_hops: 0,
        });
        assert!(ring.top(usize::MAX).iter().all(|e| e.cmd != 99));
    }

    #[test]
    fn concurrent_offers_keep_true_top_k() {
        let ring = SlowCmdRing::new();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    // Interleaved e2e values: thread t offers t+4k for
                    // k = 0..5000, so the global top-16 is exactly
                    // 19_984..20_000 regardless of interleaving.
                    for k in 0..5_000u64 {
                        let e2e = t + 4 * k;
                        ring.offer(CmdExemplar {
                            cmd: e2e,
                            e2e_us: e2e,
                            slot: k,
                            submitted_ts_us: k,
                            relay_hops: t as u32,
                        });
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let top = ring.top(usize::MAX);
        let mut e2es: Vec<u64> = top.iter().map(|e| e.e2e_us).collect();
        e2es.sort_unstable();
        assert_eq!(e2es, (19_984..20_000).collect::<Vec<u64>>());
        // Payload consistency: cmd mirrors e2e by construction.
        assert!(top.iter().all(|e| e.cmd == e.e2e_us), "torn exemplar");
    }
}
