//! Sharded sink determinism: telemetry is an observable, and how many
//! shard threads produced it is not. A run at `spec.shards(n)` — with
//! nothing else asked of the caller — must leave an attached sink with
//! exactly what the serial run leaves: byte-identical JSONL, the same
//! assembled spans. The sharded executor gets there by buffering each
//! shard thread's emissions and replaying them in canonical event order
//! at the join (`taq_telemetry::capture`).
//!
//! The fixture is a small access tree with TAQ on the bottleneck, a
//! [`TelemetryBridge`] streaming every per-packet link event, and TAQ
//! state telemetry attached, so the stream mixes bridge events, qdisc
//! flow-lifecycle events and `Delivered` records — everything the
//! attached-sink benchmark configuration emits.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use taq_sim::{Bandwidth, SimDuration, SimTime, TelemetryBridge};
use taq_telemetry::{shared_sink, JsonlSink, Telemetry};
use taq_trace::{TraceCollector, TraceConfig};
use taq_workloads::{PipeSpec, QdiscSpec, TopologySpec};

/// `Write` target the test keeps a handle to after the sink is erased
/// into the telemetry hub.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A fixed 4-router spanning tree: TAQ on the shared uplink, SFQ and
/// DropTail on the leaves, enough cross traffic that the TAQ pipe
/// actually queues and drops.
fn fixture() -> TopologySpec {
    let uplink = Bandwidth::from_kbps(600);
    let leaf = Bandwidth::from_kbps(800);
    let buf = |rate: Bandwidth| rate.packets_per(SimDuration::from_millis(200), 500).max(8);
    TopologySpec::new(
        4,
        vec![
            PipeSpec::new(
                0,
                1,
                uplink,
                SimDuration::from_millis(24),
                QdiscSpec::taq(buf(uplink)),
            ),
            PipeSpec::new(
                1,
                2,
                leaf,
                SimDuration::from_millis(10),
                QdiscSpec::Sfq {
                    buffer_pkts: buf(leaf),
                },
            ),
            PipeSpec::new(
                1,
                3,
                leaf,
                SimDuration::from_millis(10),
                QdiscSpec::DropTail {
                    buffer_pkts: buf(leaf),
                },
            ),
        ],
    )
}

/// Runs the fixture at `shards` with `telemetry` wired into the spec,
/// the TAQ states and a link bridge.
fn run_fixture(shards: u32, telemetry: &Telemetry) {
    let spec = fixture().shards(shards).telemetry(telemetry.clone());
    let mut sc = spec.build(11);
    for state in sc.taq_states.iter().flatten() {
        state.lock().unwrap().attach_telemetry(telemetry.clone());
    }
    sc.sim
        .add_monitor(Box::new(TelemetryBridge::new(telemetry.clone())));
    for router in 1..4 {
        sc.add_bulk_clients_at(router, 2, 120_000, SimDuration::from_secs(1));
    }
    sc.run_until(SimTime::from_secs(10));
    telemetry.flush();
}

/// The raw JSONL a [`JsonlSink`] wrote over one fixture run.
fn jsonl_at(shards: u32) -> Vec<u8> {
    let telemetry = Telemetry::new();
    let buf = SharedBuf::default();
    telemetry.add_sink(JsonlSink::new(buf.clone()));
    run_fixture(shards, &telemetry);
    let bytes = buf.take();
    assert!(
        bytes.len() > 10_000,
        "fixture emitted suspiciously little telemetry ({} bytes)",
        bytes.len()
    );
    bytes
}

/// Splits a JSONL byte stream into lines for a readable first-diff
/// message when an identity assertion fails.
fn first_diff(a: &[u8], b: &[u8]) -> String {
    let a_lines: Vec<&[u8]> = a.split(|&c| c == b'\n').collect();
    let b_lines: Vec<&[u8]> = b.split(|&c| c == b'\n').collect();
    for (i, (la, lb)) in a_lines.iter().zip(&b_lines).enumerate() {
        if la != lb {
            return format!(
                "line {}: {:?} != {:?}",
                i,
                String::from_utf8_lossy(la),
                String::from_utf8_lossy(lb)
            );
        }
    }
    format!("line counts differ: {} vs {}", a_lines.len(), b_lines.len())
}

#[test]
fn sharded_jsonl_is_byte_identical_to_serial() {
    let serial = jsonl_at(1);
    for shards in [2u32, 4] {
        let sharded = jsonl_at(shards);
        assert!(
            serial == sharded,
            "{shards}-shard sink output diverged from serial: {}",
            first_diff(&serial, &sharded)
        );
    }
}

#[test]
fn sharded_trace_collector_completes_the_same_spans() {
    let spans_at = |shards: u32| {
        let telemetry = Telemetry::new();
        let (collector, erased) = shared_sink(TraceCollector::new(TraceConfig::default()));
        telemetry.add_shared_sink(erased);
        run_fixture(shards, &telemetry);
        let spans = collector.lock().unwrap().spans_completed();
        spans
    };
    let serial = spans_at(1);
    assert!(serial > 0, "fixture completed no spans");
    for shards in [2u32, 4] {
        assert_eq!(
            serial,
            spans_at(shards),
            "spans_completed at {shards} shards"
        );
    }
}
