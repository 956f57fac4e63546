//! Joining raw events into per-slot latency breakdowns.

use crate::ring::{EventKind, TraceEvent};

/// Where one slot's latency went, assembled from its lifecycle events.
///
/// Every segment is measured from this node's recorder clock, and every
/// field is `Option` because a tail of the ring may only have *part* of
/// a slot's life (or the slot was decided on a peer, so this node never
/// proposed it). Missing timestamps simply leave segments out of the
/// JSON line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotSpan {
    /// The slot this span describes.
    pub slot: u64,
    /// When the slot was committed (recorder µs), the span's anchor.
    pub decided_ts_us: Option<u64>,
    /// The round the commit landed in (the `Decided` event's detail).
    pub decide_round: Option<u64>,
    /// When this node proposed the slot (recorder µs) — absolute, so a
    /// cross-node stitcher can map it into a cluster timebase.
    pub proposed_ts_us: Option<u64>,
    /// When the first peer frame of the decide round arrived
    /// (recorder µs), and which peer sent it — network fan-out.
    pub first_heard_ts_us: Option<u64>,
    /// Peer id behind `first_heard_ts_us`.
    pub first_heard_peer: Option<u64>,
    /// When the TD-th concordant message of the decide round landed
    /// (recorder µs) — the quorum was complete from here on.
    pub quorum_ts_us: Option<u64>,
    /// Peer id whose message completed the quorum (this node's own id
    /// when buffered frames already held a quorum at round entry).
    pub quorum_peer: Option<u64>,
    /// Proposed → decided: consensus rounds plus proposal queueing.
    pub order_us: Option<u64>,
    /// Decided → handed to the gateway's delivery stage.
    pub apply_wait_us: Option<u64>,
    /// Time inside the state-machine apply call.
    pub apply_svc_us: Option<u64>,
    /// Decided → handed to the persist stage, i.e. persist queue wait.
    pub persist_wait_us: Option<u64>,
    /// Time inside the group commit (append + fsync) that covered it.
    pub persist_svc_us: Option<u64>,
    /// Decided → reply released to the client (end-to-end post-decide).
    pub ack_us: Option<u64>,
    /// Portion of `ack_us` the reply sat parked behind the durability
    /// gate.
    pub ack_gate_us: Option<u64>,
}

impl SlotSpan {
    /// One JSON object, no trailing newline; absent segments are
    /// omitted: `{"slot":7,"order_us":120,"apply_wait_us":33,…}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"slot\":{}", self.slot);
        let mut push = |name: &str, v: Option<u64>| {
            if let Some(v) = v {
                out.push_str(&format!(",\"{name}\":{v}"));
            }
        };
        push("decided_ts_us", self.decided_ts_us);
        push("decide_round", self.decide_round);
        push("proposed_ts_us", self.proposed_ts_us);
        push("first_heard_ts_us", self.first_heard_ts_us);
        push("first_heard_peer", self.first_heard_peer);
        push("quorum_ts_us", self.quorum_ts_us);
        push("quorum_peer", self.quorum_peer);
        push("order_us", self.order_us);
        push("apply_wait_us", self.apply_wait_us);
        push("apply_svc_us", self.apply_svc_us);
        push("persist_wait_us", self.persist_wait_us);
        push("persist_svc_us", self.persist_svc_us);
        push("ack_us", self.ack_us);
        push("ack_gate_us", self.ack_gate_us);
        out.push('}');
        out
    }
}

#[derive(Clone, Copy, Default)]
struct SlotMarks {
    proposed: Option<u64>,
    decided: Option<(u64, u64)>, // (ts, round)
    apply_queued: Option<u64>,
    applied: Option<(u64, u64)>, // (ts, service µs)
    persist_queued: Option<u64>,
    persisted: Option<(u64, u64)>, // (ts, service µs)
    acked: Option<(u64, u64)>,     // (ts, gate-wait µs)
}

#[derive(Clone, Copy, Default)]
struct RoundMarks {
    first_heard: Option<(u64, u64)>, // (ts, peer)
    quorum: Option<(u64, u64)>,      // (ts, peer)
}

/// Joins `events` by slot into latency breakdowns, one [`SlotSpan`] per
/// slot that was *decided* inside the window, ordered by slot.
///
/// For each lifecycle kind the **first** occurrence per slot wins
/// (re-proposals and re-acks do not stretch the span). Slots whose
/// decide fell outside the window are dropped — a partial tail would
/// otherwise fabricate negative or absurd segments.
///
/// Round-scoped quorum telemetry (`HeardFrom`, `QuorumReached`) is
/// gathered per round and joined onto every slot whose `Decided` event
/// named that round, so each span also carries *when* and *through
/// whom* its decision quorum formed.
#[must_use]
pub fn assemble_spans(events: &[TraceEvent]) -> Vec<SlotSpan> {
    let mut marks: Vec<(u64, SlotMarks)> = Vec::new();
    let mut rounds: Vec<(u64, RoundMarks)> = Vec::new();
    fn at<M: Default>(marks: &mut Vec<(u64, M)>, key: u64) -> usize {
        match marks.binary_search_by_key(&key, |(s, _)| *s) {
            Ok(i) => i,
            Err(i) => {
                marks.insert(i, (key, M::default()));
                i
            }
        }
    }
    for ev in events {
        match ev.kind {
            EventKind::HeardFrom => {
                let i = at(&mut rounds, ev.slot);
                let r = &mut rounds[i].1;
                r.first_heard = r.first_heard.or(Some((ev.ts_us, ev.detail)));
                continue;
            }
            EventKind::QuorumReached => {
                let i = at(&mut rounds, ev.slot);
                let r = &mut rounds[i].1;
                r.quorum = r.quorum.or(Some((ev.ts_us, ev.detail)));
                continue;
            }
            EventKind::Proposed
            | EventKind::Decided
            | EventKind::ApplyQueued
            | EventKind::Applied
            | EventKind::PersistQueued
            | EventKind::Persisted
            | EventKind::Acked => {}
            _ => continue,
        }
        let i = at(&mut marks, ev.slot);
        let m = &mut marks[i].1;
        match ev.kind {
            EventKind::Proposed => m.proposed = m.proposed.or(Some(ev.ts_us)),
            EventKind::Decided => m.decided = m.decided.or(Some((ev.ts_us, ev.detail))),
            EventKind::ApplyQueued => m.apply_queued = m.apply_queued.or(Some(ev.ts_us)),
            EventKind::Applied => m.applied = m.applied.or(Some((ev.ts_us, ev.detail))),
            EventKind::PersistQueued => m.persist_queued = m.persist_queued.or(Some(ev.ts_us)),
            EventKind::Persisted => m.persisted = m.persisted.or(Some((ev.ts_us, ev.detail))),
            EventKind::Acked => m.acked = m.acked.or(Some((ev.ts_us, ev.detail))),
            _ => unreachable!(),
        }
    }
    marks
        .into_iter()
        .filter_map(|(slot, m)| {
            let (decided, round) = m.decided?;
            let rm = rounds
                .binary_search_by_key(&round, |(r, _)| *r)
                .ok()
                .map_or_else(RoundMarks::default, |i| rounds[i].1);
            Some(SlotSpan {
                slot,
                decided_ts_us: Some(decided),
                decide_round: Some(round),
                proposed_ts_us: m.proposed,
                first_heard_ts_us: rm.first_heard.map(|(ts, _)| ts),
                first_heard_peer: rm.first_heard.map(|(_, peer)| peer),
                quorum_ts_us: rm.quorum.map(|(ts, _)| ts),
                quorum_peer: rm.quorum.map(|(_, peer)| peer),
                order_us: m.proposed.map(|p| decided.saturating_sub(p)),
                apply_wait_us: m.apply_queued.map(|q| q.saturating_sub(decided)),
                apply_svc_us: m.applied.map(|(_, svc)| svc),
                persist_wait_us: m.persist_queued.map(|q| q.saturating_sub(decided)),
                persist_svc_us: m.persisted.map(|(_, svc)| svc),
                ack_us: m.acked.map(|(ts, _)| ts.saturating_sub(decided)),
                ack_gate_us: m.acked.map(|(_, gate)| gate),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{EventKind, Stage, TraceEvent};

    fn ev(ts_us: u64, kind: EventKind, slot: u64, detail: u64) -> TraceEvent {
        let stage = match kind {
            EventKind::Proposed | EventKind::Decided => Stage::Order,
            EventKind::ApplyQueued | EventKind::Applied => Stage::Apply,
            EventKind::PersistQueued | EventKind::Persisted => Stage::Persist,
            EventKind::Acked => Stage::Ack,
            _ => Stage::Order,
        };
        TraceEvent {
            ts_us,
            stage,
            kind,
            slot,
            detail,
        }
    }

    #[test]
    fn full_lifecycle_breaks_down() {
        let events = vec![
            ev(100, EventKind::Proposed, 7, 0),
            ev(250, EventKind::Decided, 7, 3),
            ev(260, EventKind::ApplyQueued, 7, 1),
            ev(280, EventKind::Applied, 7, 15),
            ev(255, EventKind::PersistQueued, 7, 1),
            ev(900, EventKind::Persisted, 7, 400),
            ev(950, EventKind::Acked, 7, 620),
        ];
        let spans = assemble_spans(&events);
        assert_eq!(spans.len(), 1);
        let s = spans[0];
        assert_eq!(s.slot, 7);
        assert_eq!(s.decide_round, Some(3));
        assert_eq!(s.proposed_ts_us, Some(100));
        assert_eq!(s.order_us, Some(150));
        assert_eq!(s.apply_wait_us, Some(10));
        assert_eq!(s.apply_svc_us, Some(15));
        assert_eq!(s.persist_wait_us, Some(5));
        assert_eq!(s.persist_svc_us, Some(400));
        assert_eq!(s.ack_us, Some(700));
        assert_eq!(s.ack_gate_us, Some(620));
    }

    #[test]
    fn undecided_slots_are_dropped() {
        let events = vec![
            ev(10, EventKind::Proposed, 1, 0),
            ev(20, EventKind::Applied, 2, 5), // decide fell off the ring
            ev(30, EventKind::Decided, 3, 0),
        ];
        let spans = assemble_spans(&events);
        assert_eq!(spans.iter().map(|s| s.slot).collect::<Vec<_>>(), vec![3]);
        assert_eq!(spans[0].order_us, None);
    }

    #[test]
    fn first_occurrence_wins_and_slots_sort() {
        let events = vec![
            ev(50, EventKind::Decided, 9, 0),
            ev(10, EventKind::Decided, 4, 0),
            ev(60, EventKind::Acked, 4, 0),
            ev(99, EventKind::Acked, 4, 0), // re-ack must not stretch
        ];
        let spans = assemble_spans(&events);
        assert_eq!(spans.iter().map(|s| s.slot).collect::<Vec<_>>(), vec![4, 9]);
        assert_eq!(spans[0].ack_us, Some(50));
    }

    #[test]
    fn json_omits_missing_segments() {
        let spans = assemble_spans(&[ev(10, EventKind::Decided, 2, 0)]);
        assert_eq!(
            spans[0].to_json(),
            "{\"slot\":2,\"decided_ts_us\":10,\"decide_round\":0}"
        );
        let full = SlotSpan {
            slot: 1,
            decided_ts_us: Some(5),
            order_us: Some(2),
            ..SlotSpan::default()
        };
        assert_eq!(
            full.to_json(),
            "{\"slot\":1,\"decided_ts_us\":5,\"order_us\":2}"
        );
    }

    #[test]
    fn quorum_telemetry_joins_by_decide_round() {
        // Two slots decided in round 5, one in round 6 with no quorum
        // events in the window — the join must hit the former and leave
        // the latter's quorum fields empty.
        let events = vec![
            ev(100, EventKind::HeardFrom, 5, 2),
            ev(130, EventKind::HeardFrom, 5, 0),
            ev(140, EventKind::QuorumReached, 5, 0),
            ev(150, EventKind::Decided, 8, 5),
            ev(151, EventKind::Decided, 9, 5),
            ev(400, EventKind::Decided, 10, 6),
        ];
        let spans = assemble_spans(&events);
        assert_eq!(spans.len(), 3);
        for s in &spans[..2] {
            assert_eq!(s.decide_round, Some(5));
            assert_eq!(s.first_heard_ts_us, Some(100));
            assert_eq!(s.first_heard_peer, Some(2));
            assert_eq!(s.quorum_ts_us, Some(140));
            assert_eq!(s.quorum_peer, Some(0));
        }
        assert_eq!(spans[2].decide_round, Some(6));
        assert_eq!(spans[2].quorum_ts_us, None);
        assert_eq!(spans[2].first_heard_peer, None);
    }
}
