//! Stitching per-node slot spans into cluster-wide autopsies.
//!
//! Every [`SlotSpan`] timestamp is µs on its node's private recorder
//! clock. This module makes them comparable: a [`ClockEstimate`] maps
//! one node's clock into a shared monitor timebase (offset ±
//! uncertainty, NTP-style), and [`stitch_spans`] joins the mapped
//! spans by slot into [`ClusterSlotSpan`]s — who proposed, how fast
//! the proposal fanned out, how long each node waited for its quorum
//! to form, who the slowest voucher was, and how far apart the decide
//! instants landed across the cluster.
//!
//! Uncertainty is carried, never hidden: cross-node differences
//! (fan-out, decide skew) are only as sharp as the clock estimates
//! behind them, so every stitched span reports the worst contributing
//! `±`. Same-node differences (quorum wait) are offset-free and exact.

use crate::span::SlotSpan;

/// A mapping from one node's recorder clock into the monitor's
/// timebase, estimated from K request/response round-trips against the
/// node's admin `clock` command (the minimum-RTT sample wins).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClockEstimate {
    /// Monitor µs = node recorder µs + `offset_us`.
    pub offset_us: i64,
    /// Half the winning round-trip: the mapped instant is only known
    /// to ± this many µs.
    pub uncertainty_us: u64,
    /// The recorder epoch the estimate was taken under. A different
    /// epoch id on a later pull means the node restarted and this
    /// estimate is void.
    pub epoch_id: u64,
    /// Round-trips the estimate was distilled from.
    pub samples: u32,
}

impl ClockEstimate {
    /// Maps a node-clock timestamp into the monitor timebase. The
    /// result can be negative (the node's recorder predates the
    /// monitor's epoch).
    #[must_use]
    pub fn map(&self, node_ts_us: u64) -> i64 {
        (node_ts_us as i64).saturating_add(self.offset_us)
    }
}

/// One node's spans plus the clock estimate that makes them mappable —
/// the input unit of [`stitch_spans`].
#[derive(Clone, Debug)]
pub struct NodeSpans {
    /// The node id these spans came from.
    pub node: u64,
    /// How to map this node's timestamps into the monitor timebase.
    pub clock: ClockEstimate,
    /// The spans pulled from this node's admin `spans` command.
    pub spans: Vec<SlotSpan>,
}

/// One node's view of a stitched slot, timestamps mapped into the
/// monitor timebase (except `quorum_wait_us`, which is same-clock and
/// therefore exact).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeSlotView {
    /// The node observing.
    pub node: u64,
    /// Mapped decide instant (monitor µs; may be negative).
    pub decided_ts_us: i64,
    /// The round the commit landed in on this node.
    pub decide_round: Option<u64>,
    /// Mapped arrival of the decide round's first peer frame.
    pub first_heard_ts_us: Option<i64>,
    /// Mapped instant this node's decision quorum completed.
    pub quorum_ts_us: Option<i64>,
    /// First-heard → quorum-complete on this node's own clock:
    /// the concordance wait, free of any clock-offset error.
    pub quorum_wait_us: Option<u64>,
    /// The peer whose message completed this node's quorum.
    pub quorum_peer: Option<u64>,
    /// ± µs on this node's mapped (cross-node) timestamps.
    pub uncertainty_us: u64,
}

/// A slot's life across the cluster: per-node decide observations
/// joined with propose/fan-out attribution and quorum-formation
/// breakdowns.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterSlotSpan {
    /// The slot.
    pub slot: u64,
    /// The node that recorded a `Proposed` event for the slot (the
    /// earliest mapped propose wins if several re-proposed).
    pub proposer: Option<u64>,
    /// Mapped propose instant on the proposer.
    pub propose_ts_us: Option<i64>,
    /// Propose → the earliest first-peer-heard across all nodes in the
    /// decide round: network fan-out. Cross-node, so read it ±
    /// `uncertainty_us`.
    pub fanout_us: Option<u64>,
    /// The largest per-node concordance wait (first-heard → quorum).
    pub quorum_wait_max_us: Option<u64>,
    /// Max − min mapped decide instant across nodes (needs ≥ 2 nodes).
    /// Cross-node, so read it ± `uncertainty_us`.
    pub decide_skew_us: Option<u64>,
    /// The quorum-completing peer on the node with the largest
    /// concordance wait — who the cluster was waiting for.
    pub slowest_voucher: Option<u64>,
    /// Worst clock uncertainty among contributing nodes: every
    /// cross-node figure above is only known to ± this many µs.
    pub uncertainty_us: u64,
    /// Per-node observations, ordered by node id.
    pub nodes: Vec<NodeSlotView>,
}

impl ClusterSlotSpan {
    /// Which segment dominated this slot's critical path:
    /// `"fanout"`, `"quorum_wait"`, or `"decide_skew"` (largest of the
    /// figures present; `None` when none are).
    #[must_use]
    pub fn critical_path(&self) -> Option<&'static str> {
        let candidates = [
            ("fanout", self.fanout_us),
            ("quorum_wait", self.quorum_wait_max_us),
            ("decide_skew", self.decide_skew_us),
        ];
        candidates
            .into_iter()
            .filter_map(|(name, v)| v.map(|v| (name, v)))
            .max_by_key(|&(_, v)| v)
            .map(|(name, _)| name)
    }

    /// One JSON object, no trailing newline. Absent figures are
    /// omitted; `uncertainty_us` and the per-node views always appear.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"slot\":{}", self.slot);
        if let Some(p) = self.proposer {
            out.push_str(&format!(",\"proposer\":{p}"));
        }
        if let Some(ts) = self.propose_ts_us {
            out.push_str(&format!(",\"propose_ts_us\":{ts}"));
        }
        if let Some(v) = self.fanout_us {
            out.push_str(&format!(",\"fanout_us\":{v}"));
        }
        if let Some(v) = self.quorum_wait_max_us {
            out.push_str(&format!(",\"quorum_wait_max_us\":{v}"));
        }
        if let Some(v) = self.decide_skew_us {
            out.push_str(&format!(",\"decide_skew_us\":{v}"));
        }
        if let Some(v) = self.slowest_voucher {
            out.push_str(&format!(",\"slowest_voucher\":{v}"));
        }
        if let Some(name) = self.critical_path() {
            out.push_str(&format!(",\"critical_path\":\"{name}\""));
        }
        out.push_str(&format!(",\"uncertainty_us\":{}", self.uncertainty_us));
        out.push_str(",\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"node\":{},\"decided_ts_us\":{}",
                n.node, n.decided_ts_us
            ));
            let mut push_u = |name: &str, v: Option<u64>| {
                if let Some(v) = v {
                    out.push_str(&format!(",\"{name}\":{v}"));
                }
            };
            push_u("decide_round", n.decide_round);
            push_u("quorum_wait_us", n.quorum_wait_us);
            push_u("quorum_peer", n.quorum_peer);
            if let Some(ts) = n.first_heard_ts_us {
                out.push_str(&format!(",\"first_heard_ts_us\":{ts}"));
            }
            if let Some(ts) = n.quorum_ts_us {
                out.push_str(&format!(",\"quorum_ts_us\":{ts}"));
            }
            out.push_str(&format!(",\"uncertainty_us\":{}}}", n.uncertainty_us));
        }
        out.push_str("]}");
        out
    }
}

/// Joins per-node spans by slot into [`ClusterSlotSpan`]s, ordered by
/// slot, keeping only slots at least one node *decided* (spans with no
/// `decided_ts_us` cannot anchor a cross-node comparison).
///
/// Holes are expected and tolerated: nodes may be missing entirely
/// (crashed, unreachable, ring wrapped past the slot), and any span
/// field may be `None`. Per-node ordering is preserved by
/// construction — one node's timestamps are all shifted by the same
/// offset, so propose ≤ quorum ≤ decide survives the mapping.
#[must_use]
pub fn stitch_spans(inputs: &[NodeSpans]) -> Vec<ClusterSlotSpan> {
    let mut slots: Vec<u64> = inputs
        .iter()
        .flat_map(|n| n.spans.iter())
        .filter(|s| s.decided_ts_us.is_some())
        .map(|s| s.slot)
        .collect();
    slots.sort_unstable();
    slots.dedup();

    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        let mut span = ClusterSlotSpan {
            slot,
            ..ClusterSlotSpan::default()
        };
        let mut first_heard_min: Option<i64> = None;
        let mut slowest: Option<(u64, u64)> = None; // (wait, voucher)
        let mut decided_min_max: Option<(i64, i64)> = None;
        for node in inputs {
            let Some(s) = node.spans.iter().find(|s| s.slot == slot) else {
                continue;
            };
            // A proposer needs no decide on its own ring to attribute
            // the propose instant.
            if let Some(p) = s.proposed_ts_us {
                let mapped = node.clock.map(p);
                if span.propose_ts_us.is_none_or(|cur| mapped < cur) {
                    span.propose_ts_us = Some(mapped);
                    span.proposer = Some(node.node);
                    span.uncertainty_us = span.uncertainty_us.max(node.clock.uncertainty_us);
                }
            }
            let Some(decided) = s.decided_ts_us else {
                continue;
            };
            let mapped_decided = node.clock.map(decided);
            let quorum_wait = match (s.first_heard_ts_us, s.quorum_ts_us) {
                (Some(h), Some(q)) => Some(q.saturating_sub(h)),
                _ => None,
            };
            let view = NodeSlotView {
                node: node.node,
                decided_ts_us: mapped_decided,
                decide_round: s.decide_round,
                first_heard_ts_us: s.first_heard_ts_us.map(|ts| node.clock.map(ts)),
                quorum_ts_us: s.quorum_ts_us.map(|ts| node.clock.map(ts)),
                quorum_wait_us: quorum_wait,
                quorum_peer: s.quorum_peer,
                uncertainty_us: node.clock.uncertainty_us,
            };
            if let Some(h) = view.first_heard_ts_us {
                first_heard_min = Some(first_heard_min.map_or(h, |cur| cur.min(h)));
            }
            if let (Some(w), Some(peer)) = (quorum_wait, s.quorum_peer) {
                if slowest.is_none_or(|(cur, _)| w > cur) {
                    slowest = Some((w, peer));
                }
            }
            decided_min_max = Some(
                decided_min_max.map_or((mapped_decided, mapped_decided), |(lo, hi)| {
                    (lo.min(mapped_decided), hi.max(mapped_decided))
                }),
            );
            span.uncertainty_us = span.uncertainty_us.max(node.clock.uncertainty_us);
            span.quorum_wait_max_us = match (span.quorum_wait_max_us, quorum_wait) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            span.nodes.push(view);
        }
        if span.nodes.is_empty() {
            continue;
        }
        span.nodes.sort_by_key(|v| v.node);
        span.fanout_us = match (span.propose_ts_us, first_heard_min) {
            // Clock error can pull the mapped first-heard before the
            // propose; clamp at 0 and let uncertainty_us tell the tale.
            (Some(p), Some(h)) => Some(h.saturating_sub(p).max(0) as u64),
            _ => None,
        };
        span.slowest_voucher = slowest.map(|(_, peer)| peer);
        span.decide_skew_us = decided_min_max.and_then(|(lo, hi)| {
            (span.nodes.len() >= 2).then(|| hi.saturating_sub(lo).max(0) as u64)
        });
        out.push(span);
    }
    out
}

/// The `p`-th percentile (0–100, nearest-rank) of `values`; sorts in
/// place. `None` on an empty slice.
#[must_use]
pub fn percentile_us(values: &mut [u64], p: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(slot: u64, decided: Option<u64>) -> SlotSpan {
        SlotSpan {
            slot,
            decided_ts_us: decided,
            ..SlotSpan::default()
        }
    }

    #[test]
    fn clock_maps_with_negative_offsets() {
        let c = ClockEstimate {
            offset_us: -1_000,
            uncertainty_us: 40,
            epoch_id: 7,
            samples: 8,
        };
        assert_eq!(c.map(400), -600);
        assert_eq!(c.map(1_500), 500);
    }

    #[test]
    fn stitches_decide_skew_and_fanout() {
        let proposer = NodeSpans {
            node: 0,
            clock: ClockEstimate {
                offset_us: 100,
                uncertainty_us: 10,
                ..ClockEstimate::default()
            },
            spans: vec![SlotSpan {
                slot: 4,
                proposed_ts_us: Some(1_000),
                first_heard_ts_us: Some(1_300),
                first_heard_peer: Some(1),
                quorum_ts_us: Some(1_500),
                quorum_peer: Some(2),
                decided_ts_us: Some(1_600),
                decide_round: Some(9),
                ..SlotSpan::default()
            }],
        };
        let follower = NodeSpans {
            node: 1,
            clock: ClockEstimate {
                offset_us: -500,
                uncertainty_us: 25,
                ..ClockEstimate::default()
            },
            spans: vec![SlotSpan {
                slot: 4,
                first_heard_ts_us: Some(2_100),
                first_heard_peer: Some(0),
                quorum_ts_us: Some(2_900),
                quorum_peer: Some(3),
                decided_ts_us: Some(3_000),
                decide_round: Some(9),
                ..SlotSpan::default()
            }],
        };
        let stitched = stitch_spans(&[proposer, follower]);
        assert_eq!(stitched.len(), 1);
        let s = &stitched[0];
        assert_eq!(s.slot, 4);
        assert_eq!(s.proposer, Some(0));
        assert_eq!(s.propose_ts_us, Some(1_100));
        // first heard: node 0 at 1400, node 1 at 1600 → fanout 300.
        assert_eq!(s.fanout_us, Some(300));
        // decides at 1700 (node 0) and 2500 (node 1) → skew 800.
        assert_eq!(s.decide_skew_us, Some(800));
        // waits: node 0 = 200, node 1 = 800 → slowest voucher is node
        // 1's completing peer (3).
        assert_eq!(s.quorum_wait_max_us, Some(800));
        assert_eq!(s.slowest_voucher, Some(3));
        assert_eq!(s.uncertainty_us, 25);
        assert_eq!(s.critical_path(), Some("decide_skew"));
        assert_eq!(s.nodes.len(), 2);
        assert_eq!(s.nodes[1].quorum_wait_us, Some(800));
    }

    #[test]
    fn missing_nodes_and_undecided_spans_tolerated() {
        let a = NodeSpans {
            node: 0,
            clock: ClockEstimate::default(),
            spans: vec![span(1, Some(50)), span(2, None)],
        };
        let b = NodeSpans {
            node: 1,
            clock: ClockEstimate::default(),
            spans: vec![span(3, Some(70))],
        };
        let stitched = stitch_spans(&[a, b]);
        // Slot 2 was never decided anywhere; slots 1 and 3 each have a
        // single observer — no skew, but the span still exists.
        assert_eq!(stitched.iter().map(|s| s.slot).collect::<Vec<_>>(), [1, 3]);
        assert!(stitched.iter().all(|s| s.decide_skew_us.is_none()));
        assert!(stitch_spans(&[]).is_empty());
    }

    #[test]
    fn json_carries_uncertainty() {
        let stitched = stitch_spans(&[NodeSpans {
            node: 2,
            clock: ClockEstimate {
                offset_us: 0,
                uncertainty_us: 77,
                ..ClockEstimate::default()
            },
            spans: vec![span(9, Some(10))],
        }]);
        let json = stitched[0].to_json();
        assert!(json.contains("\"uncertainty_us\":77"), "{json}");
        assert!(json.contains("\"nodes\":[{\"node\":2"), "{json}");
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut v = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile_us(&mut v, 50.0), Some(50));
        assert_eq!(percentile_us(&mut v, 99.0), Some(100));
        assert_eq!(percentile_us(&mut v, 0.0), Some(10));
        assert_eq!(percentile_us(&mut [], 50.0), None);
        assert_eq!(percentile_us(&mut [42], 99.0), Some(42));
    }
}
