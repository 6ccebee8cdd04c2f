//! The real-time middlebox thread: a token-paced bottleneck link in
//! each direction, buffered by real `Qdisc` instances.
//!
//! This is the testbed substitute for the paper's C#/SharpPcap and
//! Click prototypes: the identical discipline code (DropTail or a
//! `TaqPair`) runs against wall-clock time with genuine thread-timing
//! jitter, which is the property the paper's testbed experiments
//! demonstrate. Packets arrive over an mpsc channel, wait in the
//! qdisc while the simulated transmitter is busy, then sit in a delay
//! line for the propagation time before delivery to the destination
//! host's channel.

use crate::clock::ScaledClock;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::Duration;
use taq_sim::{
    telemetry_flow_id, Bandwidth, NodeId, Packet, PacketArena, Qdisc, SimDuration, SimTime,
};
use taq_telemetry::{Event, FaultKind, Telemetry};

/// Link id the middlebox uses for its forward (congested) direction in
/// telemetry events — the testbed has exactly one bottleneck, so its
/// JSONL lines up with a simulator run filtered to the bottleneck link.
pub const TELEMETRY_FORWARD_LINK: u32 = 0;

/// Which direction a packet crosses the middlebox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Server → client (the congested data direction).
    Forward,
    /// Client → server (ACKs and connection requests).
    Reverse,
}

/// A packet tagged with its crossing direction.
#[derive(Debug)]
pub struct Crossing {
    /// Direction of traversal.
    pub dir: Direction,
    /// The packet itself.
    pub pkt: Packet,
}

/// Input to the middlebox thread.
#[derive(Debug)]
pub enum MbInput {
    /// A packet to queue.
    Packet(Crossing),
    /// Crash-restart drill: discard everything buffered in both
    /// directions, rebuild the disciplines from scratch (losing all
    /// per-flow TAQ state), and stall both pacers for `stall` of
    /// simulated time — the window in which a real middlebox would be
    /// rebooting. Traffic arriving during the stall is still offered to
    /// the (fresh) queues; it drains once the stall ends.
    Restart { stall: SimDuration },
    /// Orderly shutdown: report stats and exit. Needed because the
    /// server host holds a sender into the middlebox while the
    /// middlebox holds the server's inbound channel — without an
    /// explicit signal the two would wait on each other forever.
    Shutdown,
}

/// Counters the middlebox reports at shutdown.
#[derive(Debug, Default, Clone)]
pub struct MiddleboxStats {
    /// Packets offered in the forward direction.
    pub fwd_offered: u64,
    /// Forward packets dropped by the discipline.
    pub fwd_dropped: u64,
    /// Forward packets transmitted.
    pub fwd_transmitted: u64,
    /// Forward wire bytes transmitted.
    pub fwd_bytes: u64,
    /// Reverse packets dropped (admission-control SYN rejections).
    pub rev_dropped: u64,
    /// Crash-restart drills executed.
    pub restarts: u64,
    /// Packets discarded from the queues by restarts (both directions).
    pub restart_discarded: u64,
}

/// Per-direction pacing state.
struct Pacer {
    qdisc: Box<dyn Qdisc>,
    rate: Bandwidth,
    busy_until: SimTime,
}

impl Pacer {
    /// Starts transmitting the next packet if the link is free; returns
    /// the packet (removed from the arena — the wire is the testbed
    /// boundary where bodies travel by value again) and its delivery
    /// time (after serialization + propagation).
    fn try_transmit(
        &mut self,
        arena: &mut PacketArena,
        now: SimTime,
        delay: SimDuration,
    ) -> Option<(Packet, SimTime)> {
        if now < self.busy_until {
            return None;
        }
        let id = self.qdisc.dequeue(arena, now)?;
        let pkt = arena.remove(id);
        let tx = self.rate.transmission_time(pkt.wire_len());
        self.busy_until = now + tx;
        Some((pkt, now + tx + delay))
    }
}

/// Runs the middlebox loop until `shutdown` closes. The discipline
/// constructor runs inside this thread so the qdiscs live where they
/// are driven (all qdiscs are `Send`, so this is a locality choice,
/// not a constraint).
///
/// `telemetry` is built by the caller and moved in — the hub is
/// `Send`, so [`run_testbed`] wires sinks up front and hands the
/// finished handle across the thread boundary. `make_qdiscs` receives
/// a reference so the discipline can attach its instrumentation — a
/// TAQ pair then streams the same flow-state / classification / drop
/// events the simulator produces. It is `FnMut` because a
/// [`MbInput::Restart`] drill rebuilds the disciplines mid-run; every
/// invocation must return a *fresh* pair (rebuilding is what loses the
/// per-flow state). The middlebox itself contributes forward-direction
/// [`Event::Link`] records, an [`Event::Fault`] per restart, and a
/// closing [`Event::LinkSummary`].
///
/// [`run_testbed`]: crate::run_testbed
#[allow(clippy::too_many_arguments)]
pub fn run_middlebox(
    clock: ScaledClock,
    rate: Bandwidth,
    delay: SimDuration,
    mut make_qdiscs: impl FnMut(&Telemetry) -> (Box<dyn Qdisc>, Box<dyn Qdisc>),
    input: Receiver<MbInput>,
    hosts: HashMap<NodeId, Sender<Packet>>,
    stats_out: Sender<MiddleboxStats>,
    telemetry: Telemetry,
) {
    let (fwd, rev) = make_qdiscs(&telemetry);
    let mut forward = Pacer {
        qdisc: fwd,
        rate,
        busy_until: SimTime::ZERO,
    };
    let mut reverse = Pacer {
        qdisc: rev,
        rate,
        busy_until: SimTime::ZERO,
    };
    // Delay line: (delivery time, packet), kept sorted by insertion
    // (both pacers emit in nondecreasing time per direction; a merge of
    // two nearly-sorted streams is fine to scan).
    let mut in_flight: VecDeque<(SimTime, Packet)> = VecDeque::new();
    // Packet bodies live here while buffered in either qdisc; the
    // channels and the delay line still move `Packet` by value, so the
    // arena's population is exactly the queued packets — an invariant
    // the restart drill checks below.
    let mut arena = PacketArena::new();
    let mut stats = MiddleboxStats::default();
    // The middlebox is the testbed's ingress point, so it plays the
    // role `Ctx::send` plays in the simulator: stamp every arriving
    // packet with a dense id and its arrival time, so traced spans and
    // delivery latency work identically in both harnesses.
    let mut next_packet_id: u64 = 1;

    loop {
        let now = clock.now();
        // Deliver everything due.
        let mut i = 0;
        while i < in_flight.len() {
            if in_flight[i].0 <= now {
                // Invariant: the loop condition keeps `i` in bounds.
                let (_, pkt) = in_flight.remove(i).expect("index checked");
                if let Some(tx) = hosts.get(&pkt.flow.dst) {
                    telemetry.emit(now.as_nanos(), || Event::Delivered {
                        packet: pkt.id,
                        flow: telemetry_flow_id(&pkt.flow),
                        bytes: u64::from(pkt.wire_len()),
                        latency_ns: now.saturating_since(pkt.sent_at).as_nanos(),
                    });
                    // A closed host channel means that host finished;
                    // late packets for it are simply dropped on the
                    // floor, as on a real NIC.
                    let _ = tx.send(pkt);
                }
            } else {
                i += 1;
            }
        }
        // Pump both pacers.
        while let Some((pkt, deliver_at)) = forward.try_transmit(&mut arena, now, delay) {
            stats.fwd_transmitted += 1;
            stats.fwd_bytes += u64::from(pkt.wire_len());
            telemetry.emit(now.as_nanos(), || Event::Link {
                link: TELEMETRY_FORWARD_LINK,
                packet: pkt.id,
                kind: "transmit",
                flow: telemetry_flow_id(&pkt.flow),
                bytes: u64::from(pkt.wire_len()),
            });
            in_flight.push_back((deliver_at, pkt));
        }
        while let Some((pkt, deliver_at)) = reverse.try_transmit(&mut arena, now, delay) {
            in_flight.push_back((deliver_at, pkt));
        }
        // Sleep until the next interesting instant, interruptible by
        // arrivals.
        let mut next = SimTime::MAX;
        for t in [forward.busy_until, reverse.busy_until] {
            if t > now {
                next = next.min(t);
            }
        }
        if !forward.qdisc.is_empty() {
            next = next.min(forward.busy_until.max(now));
        }
        if !reverse.qdisc.is_empty() {
            next = next.min(reverse.busy_until.max(now));
        }
        for (t, _) in &in_flight {
            next = next.min(*t);
        }
        let timeout = if next == SimTime::MAX {
            Duration::from_millis(20)
        } else {
            clock.real_until(next).min(Duration::from_millis(20))
        };
        match input.recv_timeout(timeout) {
            Ok(MbInput::Packet(Crossing { dir, mut pkt })) => {
                let now = clock.now();
                pkt.id = next_packet_id;
                next_packet_id += 1;
                pkt.sent_at = now;
                match dir {
                    Direction::Forward => {
                        stats.fwd_offered += 1;
                        telemetry.emit(now.as_nanos(), || Event::Link {
                            link: TELEMETRY_FORWARD_LINK,
                            packet: pkt.id,
                            kind: "enqueue",
                            flow: telemetry_flow_id(&pkt.flow),
                            bytes: u64::from(pkt.wire_len()),
                        });
                        let pid = arena.insert(pkt);
                        let outcome = forward.qdisc.enqueue(pid, &mut arena, now);
                        stats.fwd_dropped += outcome.dropped.len() as u64;
                        for victim in outcome.dropped {
                            let victim = arena.remove(victim);
                            telemetry.emit(now.as_nanos(), || Event::Link {
                                link: TELEMETRY_FORWARD_LINK,
                                packet: victim.id,
                                kind: "drop",
                                flow: telemetry_flow_id(&victim.flow),
                                bytes: u64::from(victim.wire_len()),
                            });
                        }
                    }
                    Direction::Reverse => {
                        let pid = arena.insert(pkt);
                        let outcome = reverse.qdisc.enqueue(pid, &mut arena, now);
                        stats.rev_dropped += outcome.dropped.len() as u64;
                        for victim in outcome.dropped {
                            arena.remove(victim);
                        }
                    }
                }
            }
            Ok(MbInput::Restart { stall }) => {
                let now = clock.now();
                // Everything buffered dies with the crash.
                let mut discarded = 0u64;
                while let Some(id) = forward.qdisc.dequeue(&mut arena, now) {
                    arena.remove(id);
                    discarded += 1;
                }
                while let Some(id) = reverse.qdisc.dequeue(&mut arena, now) {
                    arena.remove(id);
                    discarded += 1;
                }
                // Leak check: with both queues drained, every slot must
                // have been returned — a nonzero count means a qdisc
                // accepted a packet it neither queued, dropped, nor
                // dequeued.
                assert!(
                    arena.is_empty(),
                    "packet arena leaked {} slots across restart drain",
                    arena.len()
                );
                // Fresh disciplines: all per-flow state (TAQ trackers,
                // classifications, admission history) is gone.
                let (fwd, rev) = make_qdiscs(&telemetry);
                forward.qdisc = fwd;
                reverse.qdisc = rev;
                // The box is down for `stall`: nothing transmits.
                forward.busy_until = now + stall;
                reverse.busy_until = now + stall;
                stats.restarts += 1;
                stats.restart_discarded += discarded;
                telemetry.emit(now.as_nanos(), || Event::Fault {
                    link: TELEMETRY_FORWARD_LINK,
                    kind: FaultKind::Restart,
                    packet: None,
                    flow: None,
                    value: discarded as f64,
                });
            }
            Ok(MbInput::Shutdown) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Closing summary: same shape as the simulator engine's, so a
    // testbed JSONL trace and a sim trace end with comparable records.
    let now = clock.now();
    let elapsed = now.saturating_since(SimTime::ZERO);
    telemetry.emit(now.as_nanos(), || {
        let capacity = rate.bps() as f64 * elapsed.as_secs_f64();
        Event::LinkSummary {
            link: TELEMETRY_FORWARD_LINK,
            offered_pkts: stats.fwd_offered,
            dropped_pkts: stats.fwd_dropped,
            transmitted_pkts: stats.fwd_transmitted,
            utilization: if capacity > 0.0 {
                (stats.fwd_bytes as f64 * 8.0 / capacity).min(1.0)
            } else {
                0.0
            },
        }
    });
    telemetry.flush();
    // At shutdown the arena may still hold packets — exactly the ones
    // the two qdiscs report as queued, and nothing else.
    debug_assert_eq!(
        arena.len(),
        forward.qdisc.len() + reverse.qdisc.len(),
        "arena population must equal total queued packets at shutdown"
    );
    let _ = stats_out.send(stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use taq_queues::DropTail;
    use taq_sim::{FlowKey, PacketBuilder, UnboundedFifo};

    fn pkt(dst: NodeId, payload: u32) -> Packet {
        PacketBuilder::new(FlowKey {
            src: NodeId(0),
            src_port: 80,
            dst,
            dst_port: 1000,
        })
        .payload(payload)
        .build()
    }

    #[test]
    fn packets_cross_with_pacing_and_delay() {
        let clock = ScaledClock::new(1.0);
        let (in_tx, in_rx) = channel();
        let (out_tx, out_rx) = channel();
        let (stats_tx, stats_rx) = channel();
        let mut hosts = HashMap::new();
        hosts.insert(NodeId(1), out_tx);
        let c2 = clock.clone();
        let handle = std::thread::spawn(move || {
            run_middlebox(
                c2,
                Bandwidth::from_kbps(400), // 460+40 B packet = 10 ms
                SimDuration::from_millis(5),
                |_| {
                    (
                        Box::new(DropTail::with_packets(10)),
                        Box::new(UnboundedFifo::new()),
                    )
                },
                in_rx,
                hosts,
                stats_tx,
                Telemetry::disabled(),
            );
        });
        let start = std::time::Instant::now();
        for _ in 0..5 {
            in_tx
                .send(MbInput::Packet(Crossing {
                    dir: Direction::Forward,
                    pkt: pkt(NodeId(1), 460),
                }))
                .unwrap();
        }
        let mut arrivals = Vec::new();
        for _ in 0..5 {
            let p = out_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("packet crosses");
            arrivals.push(start.elapsed());
            assert_eq!(p.payload_len, 460);
        }
        // Five 10 ms serializations: the last packet cannot arrive
        // before ~50 ms.
        assert!(
            arrivals[4] >= Duration::from_millis(45),
            "pacing respected: {arrivals:?}"
        );
        drop(in_tx);
        handle.join().unwrap();
        let stats = stats_rx.recv().unwrap();
        assert_eq!(stats.fwd_offered, 5);
        assert_eq!(stats.fwd_transmitted, 5);
        assert_eq!(stats.fwd_dropped, 0);
    }

    #[test]
    fn droptail_drops_surface_in_stats() {
        let clock = ScaledClock::new(1.0);
        let (in_tx, in_rx) = channel();
        let (out_tx, out_rx) = channel();
        let (stats_tx, stats_rx) = channel();
        let mut hosts = HashMap::new();
        hosts.insert(NodeId(1), out_tx);
        let c2 = clock.clone();
        let handle = std::thread::spawn(move || {
            run_middlebox(
                c2,
                Bandwidth::from_kbps(100),
                SimDuration::from_millis(1),
                |_| {
                    (
                        Box::new(DropTail::with_packets(2)),
                        Box::new(UnboundedFifo::new()),
                    )
                },
                in_rx,
                hosts,
                stats_tx,
                Telemetry::disabled(),
            );
        });
        // Blast 20 packets instantly into a 2-packet buffer on a slow
        // link: most must drop.
        for _ in 0..20 {
            in_tx
                .send(MbInput::Packet(Crossing {
                    dir: Direction::Forward,
                    pkt: pkt(NodeId(1), 460),
                }))
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(300));
        drop(in_tx);
        handle.join().unwrap();
        let stats = stats_rx.recv().unwrap();
        assert_eq!(stats.fwd_offered, 20);
        assert!(stats.fwd_dropped >= 10, "dropped {}", stats.fwd_dropped);
        // Whatever wasn't dropped eventually crossed or was in flight.
        let crossed = out_rx.try_iter().count() as u64;
        assert!(crossed <= 20 - stats.fwd_dropped);
    }
}
