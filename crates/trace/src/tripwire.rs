//! The trip-wire: live detection of the paper's Figure 1 pathology —
//! a flow falling silent for longer than a configured threshold.
//!
//! The wire arms itself per flow on first activity and trips when the
//! *next* activity reveals a gap larger than the threshold (a
//! sink-driven detector cannot see silence until something breaks it;
//! the flight recorder dump it triggers is what holds the evidence of
//! what happened around the gap). Testbed crash-restart drills trip it
//! directly, as do harness-detected invariant violations via
//! [`crate::TraceCollector::trip`].

use std::collections::HashMap;
use taq_telemetry::{FlowId, FxBuildHasher, Value};

/// Why a post-mortem dump was triggered.
#[derive(Debug, Clone, PartialEq)]
pub struct TripRecord {
    /// Human-readable cause ("flow-silence", "restart", or a
    /// harness-supplied invariant name).
    pub reason: String,
    /// The flow that tripped the wire, for per-flow causes.
    pub flow: Option<FlowId>,
    /// When the trip was detected.
    pub at_ns: u64,
    /// Size of the offending gap, for silence trips.
    pub gap_ns: u64,
}

impl TripRecord {
    /// Renders the dump's `"record":"trip"` line.
    pub fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = vec![
            ("record".to_string(), Value::from("trip")),
            ("reason".to_string(), Value::Str(self.reason.clone())),
        ];
        if let Some(flow) = &self.flow {
            pairs.push(("flow".to_string(), Value::Str(flow.to_string())));
        }
        pairs.push(("at_ns".to_string(), Value::UInt(self.at_ns)));
        if self.gap_ns > 0 {
            pairs.push(("gap_ns".to_string(), Value::UInt(self.gap_ns)));
        }
        Value::Object(pairs)
    }
}

/// Per-flow silence detector. Only the first trip is kept: the point of
/// the wire is to freeze the flight recorder close to the first
/// pathology, not to catalogue every one.
#[derive(Debug)]
pub struct TripWire {
    silence_ns: u64,
    last_seen: HashMap<FlowId, u64, FxBuildHasher>,
    tripped: Option<TripRecord>,
}

impl TripWire {
    /// Creates a wire tripping on per-flow gaps larger than
    /// `silence_ns`.
    pub fn new(silence_ns: u64) -> Self {
        TripWire {
            silence_ns,
            last_seen: HashMap::default(),
            tripped: None,
        }
    }

    /// Notes flow activity at `at_ns`; returns `true` if this activity
    /// revealed a silence gap and the wire just tripped.
    pub fn note_activity(&mut self, flow: FlowId, at_ns: u64) -> bool {
        let prev = self.last_seen.insert(flow, at_ns);
        if self.tripped.is_some() {
            return false;
        }
        if let Some(prev) = prev {
            let gap = at_ns.saturating_sub(prev);
            if gap > self.silence_ns {
                self.tripped = Some(TripRecord {
                    reason: "flow-silence".to_string(),
                    flow: Some(flow),
                    at_ns,
                    gap_ns: gap,
                });
                return true;
            }
        }
        false
    }

    /// Trips the wire directly (restart drills, invariant violations).
    /// Returns `true` if this was the first trip.
    pub fn trip(&mut self, reason: &str, at_ns: u64) -> bool {
        if self.tripped.is_some() {
            return false;
        }
        self.tripped = Some(TripRecord {
            reason: reason.to_string(),
            flow: None,
            at_ns,
            gap_ns: 0,
        });
        true
    }

    /// The first trip, if any.
    pub fn record(&self) -> Option<&TripRecord> {
        self.tripped.as_ref()
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
            dst_port: 80,
        }
    }

    #[test]
    fn trips_on_first_gap_over_threshold() {
        let mut wire = TripWire::new(1_000);
        assert!(!wire.note_activity(flow(1), 0), "first activity arms");
        assert!(!wire.note_activity(flow(1), 900), "gap under threshold");
        assert!(!wire.note_activity(flow(2), 950));
        assert!(wire.note_activity(flow(1), 2_500), "900 -> 2500 trips");
        let rec = wire.record().expect("tripped");
        assert_eq!(rec.reason, "flow-silence");
        assert_eq!(rec.flow, Some(flow(1)));
        assert_eq!(rec.gap_ns, 1_600);
        // Later, larger gaps do not replace the first record.
        assert!(!wire.note_activity(flow(2), 9_999));
        assert_eq!(wire.record().unwrap().at_ns, 2_500);
    }

    #[test]
    fn manual_trip_wins_only_once() {
        let mut wire = TripWire::new(u64::MAX);
        assert!(wire.trip("restart", 5));
        assert!(!wire.trip("restart", 6));
        assert_eq!(wire.record().unwrap().reason, "restart");
        assert_eq!(wire.record().unwrap().at_ns, 5);
    }
}
