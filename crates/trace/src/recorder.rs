//! The flight recorder: a fixed-capacity ring of the most recent
//! completed spans, kept per link so a busy access link cannot evict
//! the bottleneck's history.
//!
//! A long run keeps `links × capacity` spans resident, so each one is
//! stored as a compact [`Record`] (at most 72 bytes, against the wide
//! [`PacketSpan`]'s 136): names become one-byte codes into the
//! recorder's own [`NameTable`], the outcome a tag and one `u64`.
//! Readers get wide spans back, decoded on the way out.

use crate::links::LinkTable;
use crate::span::{PacketSpan, SpanOutcome};
use std::collections::VecDeque;
use taq_telemetry::{FlowId, NameTable};

/// `transmit_ns` of a packet that never finished serialization. Event
/// times are sim or wall-clock nanoseconds, and `u64::MAX` is the
/// engine's "never" (`SimTime::MAX`), so no transmit is stamped with
/// it; a `Some(u64::MAX)` would read back as `None`.
const NO_TRANSMIT: u64 = u64::MAX;

/// Name code for "no name".
const NO_NAME: u8 = 0;
/// Name code shared by every name after the table's 254th; it reads
/// back as [`OVERFLOW_NAME`]. The repo's vocabularies (TAQ classes,
/// fault kinds) hold about a dozen names.
const OVERFLOW: u8 = u8::MAX;
const OVERFLOW_NAME: &str = "(overflow)";

// `Record::outcome` tags.
const INCOMPLETE: u8 = 0;
const DELIVERED: u8 = 1;
const DROPPED: u8 = 2;
const FAULTED: u8 = 3;

/// One retained span, as stored.
#[derive(Debug, Clone, Copy)]
struct Record {
    packet: u64,
    arrive_ns: u64,
    end_ns: u64,
    /// [`NO_TRANSMIT`] when the span has no transmit time.
    transmit_ns: u64,
    /// The outcome's payload: latency for `Delivered`, stage for
    /// `Dropped`, the kind's name code for `Faulted`, 0 otherwise.
    outcome_value: u64,
    flow: FlowId,
    link: u32,
    /// Wire bytes, saturated at `u32::MAX` (a packet is at most 64 KiB).
    bytes: u32,
    /// Queue depth at enqueue, saturated at `u32::MAX` (a queue holds
    /// at most its buffer, thousands of packets).
    depth: u32,
    hops: u32,
    /// Name codes, [`NO_NAME`] for `None`.
    class: u8,
    fault: u8,
    /// Outcome tag: [`INCOMPLETE`], [`DELIVERED`], [`DROPPED`] or [`FAULTED`].
    outcome: u8,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 72);

fn saturate(value: u64) -> u32 {
    u32::try_from(value).unwrap_or(u32::MAX)
}

/// Bounded per-link span storage. Completed spans push in arrival
/// order; once a link's ring is full, the oldest span on *that link*
/// is evicted. Reads go in ascending link id, so dump order is
/// deterministic.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    rings: LinkTable<VecDeque<Record>>,
    /// Class, fault and fault-kind names; a name's code is its slot + 1.
    names: NameTable<()>,
    total: u64,
    evicted: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `capacity` spans per link.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            rings: LinkTable::new(),
            names: NameTable::default(),
            total: 0,
            evicted: 0,
        }
    }

    /// Records a completed span, evicting the oldest on its link if the
    /// ring is full.
    pub fn push(&mut self, span: PacketSpan) {
        self.total += 1;
        if self.capacity == 0 {
            self.evicted += 1;
            return;
        }
        let record = self.encode(&span);
        let ring = self.rings.entry(span.link);
        if ring.len() == self.capacity {
            ring.pop_front();
            self.evicted += 1;
        }
        ring.push_back(record);
    }

    /// Spans completed over the whole run (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Spans pushed out of their ring to respect `capacity`.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Spans currently retained, across all links.
    pub fn len(&self) -> usize {
        self.rings.values().map(VecDeque::len).sum()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the retained spans occupy: `len()` times the stored
    /// record's size (ring slack and the name table aside).
    pub fn retained_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<Record>()
    }

    /// Retained spans on one link, oldest first.
    pub fn link(&self, link: u32) -> impl Iterator<Item = PacketSpan> + '_ {
        self.rings
            .get(link)
            .into_iter()
            .flatten()
            .map(|record| self.decode(record))
    }

    /// All retained spans, grouped by link id (ascending), oldest first
    /// within a link.
    pub fn iter(&self) -> impl Iterator<Item = PacketSpan> + '_ {
        self.rings
            .values()
            .flatten()
            .map(|record| self.decode(record))
    }

    fn code(&mut self, name: Option<&'static str>) -> u8 {
        let Some(name) = name else {
            return NO_NAME;
        };
        let slot = self.names.slot(name, || ());
        u8::try_from(slot + 1).unwrap_or(OVERFLOW)
    }

    fn name(&self, code: u8) -> Option<&'static str> {
        match code {
            NO_NAME => None,
            OVERFLOW => Some(OVERFLOW_NAME),
            code => Some(self.names.name(usize::from(code) - 1)),
        }
    }

    fn encode(&mut self, span: &PacketSpan) -> Record {
        let (outcome, outcome_value) = match span.outcome {
            SpanOutcome::Incomplete => (INCOMPLETE, 0),
            SpanOutcome::Delivered { latency_ns } => (DELIVERED, latency_ns),
            SpanOutcome::Dropped { stage } => (DROPPED, u64::from(stage)),
            SpanOutcome::Faulted { kind } => (FAULTED, u64::from(self.code(Some(kind)))),
        };
        Record {
            packet: span.packet,
            arrive_ns: span.arrive_ns,
            end_ns: span.end_ns,
            transmit_ns: span.transmit_ns.unwrap_or(NO_TRANSMIT),
            outcome_value,
            flow: span.flow,
            link: span.link,
            bytes: saturate(span.bytes),
            depth: saturate(span.depth_at_enqueue),
            hops: span.hops,
            class: self.code(span.class),
            fault: self.code(span.fault),
            outcome,
        }
    }

    fn decode(&self, record: &Record) -> PacketSpan {
        let value = record.outcome_value;
        let outcome = match record.outcome {
            DELIVERED => SpanOutcome::Delivered { latency_ns: value },
            DROPPED => SpanOutcome::Dropped { stage: value as u8 },
            FAULTED => SpanOutcome::Faulted {
                kind: self.name(value as u8).unwrap_or(OVERFLOW_NAME),
            },
            _ => SpanOutcome::Incomplete,
        };
        PacketSpan {
            packet: record.packet,
            flow: record.flow,
            link: record.link,
            bytes: u64::from(record.bytes),
            class: self.name(record.class),
            arrive_ns: record.arrive_ns,
            depth_at_enqueue: u64::from(record.depth),
            transmit_ns: (record.transmit_ns != NO_TRANSMIT).then_some(record.transmit_ns),
            hops: record.hops,
            fault: self.name(record.fault),
            outcome,
            end_ns: record.end_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(port: u16) -> FlowId {
        FlowId {
            src: 1,
            src_port: port,
            dst: 2,
            dst_port: 2,
        }
    }

    fn span(packet: u64, link: u32) -> PacketSpan {
        PacketSpan::begin(packet, flow(1), link, 500, packet * 10, 0)
    }

    #[test]
    fn wraparound_keeps_exactly_last_n_per_link() {
        let mut rec = FlightRecorder::new(3);
        for packet in 1..=10u64 {
            rec.push(span(packet, 0));
        }
        // A second link fills independently.
        for packet in 11..=12u64 {
            rec.push(span(packet, 1));
        }
        assert_eq!(rec.total(), 12);
        assert_eq!(rec.evicted(), 7);
        assert_eq!(rec.len(), 5);
        assert_eq!(rec.retained_bytes(), 5 * std::mem::size_of::<Record>());
        let link0: Vec<u64> = rec.link(0).map(|s| s.packet).collect();
        assert_eq!(link0, vec![8, 9, 10], "exactly the last 3 on link 0");
        let link1: Vec<u64> = rec.link(1).map(|s| s.packet).collect();
        assert_eq!(link1, vec![11, 12]);
        // Global iteration groups by link id.
        let all: Vec<u64> = rec.iter().map(|s| s.packet).collect();
        assert_eq!(all, vec![8, 9, 10, 11, 12]);
    }

    #[test]
    fn zero_capacity_counts_without_storing() {
        let mut rec = FlightRecorder::new(0);
        rec.push(span(1, 0));
        assert_eq!(rec.total(), 1);
        assert_eq!(rec.evicted(), 1);
        assert!(rec.is_empty());
    }

    /// splitmix64 — the crate has no RNG of its own to borrow.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A count near the `u32` edge half the time, anything otherwise.
    fn wide_count(rng: &mut Rng) -> u64 {
        match rng.below(6) {
            0 => u64::from(u32::MAX),
            1 => u64::from(u32::MAX) + 1 + rng.below(1 << 40),
            2 => u64::MAX,
            _ => rng.below(100_000),
        }
    }

    #[test]
    fn spans_read_back_as_pushed() {
        // "Recovery" arrives through two pointers with equal contents,
        // as one literal spelled in two crates does.
        let recovery_again: &'static str = String::from("Recovery").leak();
        let names = [
            "Recovery",
            recovery_again,
            "NewFlow",
            "burst_loss",
            "blackout",
            "reorder",
        ];
        const LINKS: u32 = 3;
        const CAPACITY: usize = 64;
        for seed in [1u64, 2, 3] {
            let mut rng = Rng(seed);
            let mut rec = FlightRecorder::new(CAPACITY);
            let mut pushed: Vec<Vec<PacketSpan>> = vec![Vec::new(); LINKS as usize];
            for packet in 0..2_000u64 {
                let link = rng.below(u64::from(LINKS)) as u32;
                let mut span = PacketSpan::begin(
                    packet,
                    flow(rng.below(1 << 16) as u16),
                    link,
                    wide_count(&mut rng),
                    rng.next(),
                    wide_count(&mut rng),
                );
                let name = |rng: &mut Rng| {
                    (rng.below(3) > 0).then(|| names[rng.below(names.len() as u64) as usize])
                };
                span.class = name(&mut rng);
                span.fault = name(&mut rng);
                span.transmit_ns = match rng.below(3) {
                    0 => None,
                    1 => Some(0),
                    _ => Some(rng.next() % NO_TRANSMIT),
                };
                span.hops = 1 + rng.below(4) as u32;
                span.outcome = match rng.below(4) {
                    0 => SpanOutcome::Incomplete,
                    1 => SpanOutcome::Delivered {
                        latency_ns: rng.next(),
                    },
                    2 => SpanOutcome::Dropped {
                        stage: rng.next() as u8,
                    },
                    _ => SpanOutcome::Faulted {
                        kind: names[3 + rng.below(3) as usize],
                    },
                };
                span.end_ns = rng.next();
                rec.push(span.clone());
                pushed[link as usize].push(span);
            }
            // Every outcome, every name form and every edge appeared.
            let all: Vec<&PacketSpan> = pushed.iter().flatten().collect();
            for tag in ["incomplete", "delivered", "dropped", "faulted"] {
                assert!(all.iter().any(|s| s.outcome.tag() == tag), "{tag}");
            }
            assert!(all.iter().any(|s| s.class.is_none()));
            assert!(all
                .iter()
                .any(|s| s.class.is_some_and(|c| std::ptr::eq(c, recovery_again))));
            assert!(all.iter().any(|s| s.fault.is_none()));
            assert!(all.iter().any(|s| s.transmit_ns.is_none()));
            assert!(all.iter().any(|s| s.transmit_ns == Some(0)));
            assert!(all.iter().any(|s| s.hops > 1));
            assert!(all.iter().any(|s| s.bytes == u64::from(u32::MAX)));
            assert!(all.iter().any(|s| s.depth_at_enqueue > u64::from(u32::MAX)));

            let mut expected_all = Vec::new();
            for (link, spans) in pushed.iter().enumerate() {
                let kept = &spans[spans.len().saturating_sub(CAPACITY)..];
                let expected: Vec<PacketSpan> = kept
                    .iter()
                    .map(|span| PacketSpan {
                        bytes: span.bytes.min(u64::from(u32::MAX)),
                        depth_at_enqueue: span.depth_at_enqueue.min(u64::from(u32::MAX)),
                        ..span.clone()
                    })
                    .collect();
                let read: Vec<PacketSpan> = rec.link(link as u32).collect();
                assert_eq!(read, expected, "seed {seed}, link {link}");
                expected_all.extend(expected);
            }
            assert_eq!(rec.iter().collect::<Vec<_>>(), expected_all);
            assert_eq!(rec.total(), 2_000);
            assert_eq!(rec.evicted(), 2_000 - (LINKS as u64) * CAPACITY as u64);
        }
    }

    #[test]
    fn names_past_the_code_space_read_back_as_overflow() {
        let mut rec = FlightRecorder::new(1_000);
        let names: Vec<&'static str> = (0..300).map(|i| &*format!("class-{i}").leak()).collect();
        for (packet, name) in names.iter().enumerate() {
            let mut span = span(packet as u64, 0);
            span.class = Some(name);
            rec.push(span);
        }
        for (i, (read, name)) in rec.iter().zip(&names).enumerate() {
            let expected = if i < 254 { *name } else { OVERFLOW_NAME };
            assert_eq!(read.class, Some(expected), "name {i}");
        }
    }
}
