//! Flight recorder for `gencon` nodes: who did what to slot *k*, and when.
//!
//! `gencon-metrics` answers "how fast is each stage on average"; this
//! crate answers the questions aggregates cannot — *where did slot k's
//! 12ms go*, *which peer is the straggler*, and *what happened in the
//! two seconds before this node wedged*:
//!
//! ```text
//! ingest ─ order ─ apply ─ persist ─ ack      stages record into
//!    │       │       │        │       │
//!    ▼       ▼       ▼        ▼       ▼
//!  [ FlightRecorder: fixed-capacity lock-free event ring ]
//!    │                                │
//!    ▼ tail(n)                        ▼ assemble_spans
//!  recent TraceEvents            per-slot SlotSpan breakdowns
//!  (admin `trace`)               (queue-wait vs service per stage)
//! ```
//!
//! * [`FlightRecorder`] — a fixed-capacity ring of structured events
//!   `{ts_us, stage, slot, kind, detail}`. Recording is a handful of
//!   atomic stores guarded by a per-cell sequence lock: any number of
//!   threads record concurrently, the ring wraps by overwriting the
//!   oldest events, and a concurrent overwrite is *detected* (the torn
//!   cell is skipped) rather than surfaced as a mixed-up event.
//! * [`TraceEvent`] / [`Stage`] / [`EventKind`] — the slot lifecycle:
//!   ingested → proposed → round-advance/timeout → decided → applied →
//!   persisted → acked, plus state-transfer and peer-liveness events.
//! * [`assemble_spans`] — joins events by slot into [`SlotSpan`]
//!   latency breakdowns (order / apply / persist / ack segments, with
//!   queue-wait split from service time, plus quorum-formation marks
//!   joined from the decide round), serialized as JSON lines.
//! * [`cluster`] — makes spans comparable *across* nodes: NTP-style
//!   [`ClockEstimate`]s map each node's private recorder clock into a
//!   shared timebase (uncertainty carried, not hidden), and
//!   [`stitch_spans`] joins per-node spans by slot into
//!   [`ClusterSlotSpan`] autopsies — propose fan-out, concordance
//!   wait, decide skew, slowest-voucher attribution.
//! * [`PeerTable`] — shared per-peer health (last-heard round, lag,
//!   written-off flag) the order loop publishes and an admin endpoint
//!   reads live.
//! * [`HashCell`] — a seqlock ring of recently published
//!   `(applied count, state hash)` pairs, the per-node half of
//!   cross-replica divergence auditing.
//! * [`Tracer`] — an optional handle stages thread through their hot
//!   paths; recording through a disabled tracer is a no-op branch.
//!
//! The ring never allocates after construction and never blocks a
//! writer, so it is safe to leave enabled in production: the recorder
//! *is* the crash-dump of the last few seconds of a node's life.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod hash;
mod peer;
mod ring;
mod span;

pub use cluster::{percentile_us, stitch_spans, ClockEstimate, ClusterSlotSpan, NodeSpans};
pub use hash::{hash_hex, HashCell};
pub use peer::{PeerRow, PeerTable};
pub use ring::{EventKind, FlightRecorder, Stage, TraceEvent, Tracer};
pub use span::{assemble_spans, SlotSpan};
