//! The deployable TAQ queueing discipline.
//!
//! A TAQ middlebox spans the bottleneck link and sees both directions:
//! the congested data direction is buffered by [`TaqQdisc`]; the reverse
//! direction (ACKs and connection requests) passes through
//! [`TaqReverseQdisc`], which never queues meaningfully but (a) feeds ACK
//! observations to the flow tracker for two-way epoch estimation and (b)
//! enforces admission control by dropping SYNs of unadmitted flow pools.
//! Both halves share one [`TaqState`]; construct the pair with
//! [`TaqPair::new`].
//!
//! The data-direction half is a drop-in [`Qdisc`], so every experiment
//! swaps it against DropTail/RED/SFQ with one line.
//!
//! Arena contract: both halves of a pair must be driven with the *same*
//! [`PacketArena`] — rejection-feedback RSTs fabricated on the reverse
//! path are inserted into the arena passed to the reverse half and later
//! handed out by the forward half's `dequeue`.

use crate::admission::{AdmissionController, LossRateMeter};
use crate::config::TaqConfig;
use crate::queues::{classify, fair_share_bps, QueuedPkt, TaqQueues};
use crate::tracker::FlowTable;
use std::sync::{Arc, Mutex, MutexGuard};
use taq_sim::{
    telemetry_flow_id, EnqueueOutcome, PacketArena, PacketBuilder, PacketId, Qdisc, SimDuration,
    SimTime, TcpFlags, UnboundedFifo,
};
use taq_telemetry::{AdmissionDecision, Event, QueueClass, Telemetry, Value};

/// Queue depth is sampled on every nth offered packet: often enough for
/// meaningful percentiles, cheap enough for the hot path.
const DEPTH_SAMPLE_EVERY: u64 = 32;

/// Aggregate statistics a TAQ instance maintains.
///
/// `PartialEq` so determinism tests can compare snapshots between
/// serial and sweep-pool runs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TaqStats {
    /// Packets offered to the data-direction queue.
    pub offered: u64,
    /// Packets dropped by the data-direction queue.
    pub dropped: u64,
    /// Retransmissions that had to be dropped (should be rare).
    pub retransmissions_dropped: u64,
    /// Drops by eviction-policy stage (index 0 unused; 1-6 per
    /// [`crate::TaqQueues::evict_staged`]; 7 counts NewFlow-cap drops).
    pub drops_by_stage: [u64; 8],
    /// Packets enqueued per class.
    pub per_class: [u64; 5],
    /// SYNs rejected by admission control.
    pub syns_rejected: u64,
}

impl TaqStats {
    /// Packets enqueued into `class` so far.
    pub fn class_count(&self, class: QueueClass) -> u64 {
        self.per_class[class.index()]
    }

    /// Fraction of offered packets that were dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// Serializes the counters into the telemetry JSON value type, with
    /// eviction stages and classes keyed by name.
    pub fn snapshot(&self) -> Value {
        let stages = self
            .drops_by_stage
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &n)| (STAGE_NAMES[i].to_string(), Value::UInt(n)))
            .collect();
        let classes = QueueClass::ALL
            .iter()
            .map(|&c| (c.name().to_string(), Value::UInt(self.class_count(c))))
            .collect();
        Value::object(vec![
            ("offered", Value::UInt(self.offered)),
            ("dropped", Value::UInt(self.dropped)),
            ("drop_rate", Value::Float(self.drop_rate())),
            (
                "retransmissions_dropped",
                Value::UInt(self.retransmissions_dropped),
            ),
            ("syns_rejected", Value::UInt(self.syns_rejected)),
            ("drops_by_stage", Value::Object(stages)),
            ("per_class", Value::Object(classes)),
        ])
    }
}

/// Names for the staged eviction policy, indexed by stage number.
const STAGE_NAMES: [&str; 8] = [
    "none",
    "stage1",
    "stage2",
    "stage3",
    "stage4",
    "stage5",
    "stage6",
    "newflow_cap",
];

/// Shared middlebox state: tracker, queues, admission, meters.
pub struct TaqState {
    cfg: TaqConfig,
    /// Per-flow tracking.
    pub flows: FlowTable,
    queues: TaqQueues,
    admission: AdmissionController,
    loss_meter: LossRateMeter,
    /// Rejection notices (spoofed RSTs) awaiting injection onto the
    /// forward link, as arena ids with cached wire lengths; used when
    /// `reject_feedback` is enabled.
    pending_rejects: std::collections::VecDeque<(PacketId, u32)>,
    /// Aggregate counters.
    pub stats: TaqStats,
    telemetry: Telemetry,
    /// Next sim-time at which the flow table runs epoch-roll + GC.
    /// Ticking every packet is O(flows) and dominates the enqueue path
    /// at hundreds of flows; once per `min_epoch` is as often as the
    /// per-epoch state machine can change anything.
    next_gc_at: SimTime,
    /// Fair share memoized over a short sim-time window (a quarter of
    /// `min_epoch`): `active_flows` is an O(flows) scan, far too hot to
    /// run per packet. Keyed by sim time, so every sweep thread count
    /// computes the identical sequence.
    fair_share_cache: f64,
    fair_share_expires: SimTime,
}

impl TaqState {
    /// Creates the shared state.
    pub fn new(cfg: TaqConfig) -> Self {
        cfg.validate();
        TaqState {
            queues: TaqQueues::new(cfg.link_rate, cfg.recovery_cap_fraction),
            flows: FlowTable::new(cfg.clone()),
            admission: AdmissionController::new(cfg.clone()),
            loss_meter: LossRateMeter::new(10, SimDuration::from_millis(500)),
            pending_rejects: std::collections::VecDeque::new(),
            cfg,
            stats: TaqStats::default(),
            telemetry: Telemetry::disabled(),
            next_gc_at: SimTime::ZERO,
            fair_share_cache: 0.0,
            fair_share_expires: SimTime::ZERO,
        }
    }

    /// Wires a telemetry hub through the whole middlebox: flow tracker
    /// transitions, classification/drop decisions, admission events and
    /// queue-depth samples all flow into `telemetry`'s sinks.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.flows.set_telemetry(telemetry.clone());
        self.admission.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (disabled unless
    /// [`TaqState::attach_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Feeds one loss observation into the admission meter directly.
    /// The paper's middlebox "automatically adjusts the state of the
    /// flow in future epochs" for losses it observes but did not
    /// inflict (e.g. on an upstream hop); operators integrating an
    /// external loss signal use this entry point, and tests use it to
    /// pin the meter at a chosen rate.
    pub fn record_external_loss(&mut self, now: SimTime) {
        self.loss_meter.record(true, now);
    }

    /// The current per-flow fair share in bits/sec.
    pub fn fair_share(&mut self, now: SimTime) -> f64 {
        fair_share_bps(self.cfg.link_rate, self.flows.active_flows(now))
    }

    /// [`TaqState::fair_share`] memoized over a quarter-epoch window.
    fn fair_share_cached(&mut self, now: SimTime) -> f64 {
        if now >= self.fair_share_expires {
            self.fair_share_cache = self.fair_share(now);
            self.fair_share_expires = now + self.cfg.min_epoch / 4;
        }
        self.fair_share_cache
    }

    fn enqueue_forward(
        &mut self,
        pkt: PacketId,
        arena: &mut PacketArena,
        now: SimTime,
    ) -> EnqueueOutcome {
        self.stats.offered += 1;
        // Periodic table maintenance: the epoch-roll/GC tick, once per
        // `min_epoch` (an O(flows) sweep, amortized over the packets).
        if now >= self.next_gc_at {
            self.next_gc_at = now + self.cfg.min_epoch;
            // A flow whose packets are still buffered must keep its id:
            // the queue slab indexes by it.
            let queues = &self.queues;
            self.flows.tick(now, |id| queues.holds(id));
        }
        // The single packet-body read of the enqueue path: everything
        // downstream works on the observation and the QueuedPkt handle.
        let (obs, qp, fkey) = {
            let body = arena.get(pkt);
            let obs = self.flows.observe_forward(body, now);
            (obs, QueuedPkt::from_packet(pkt, obs.id, body), body.flow)
        };
        // After the observation on purpose: a refresh falling on this
        // packet must count its flow's just-updated activity.
        let fair = self.fair_share_cached(now);
        // How many packets one fair share amounts to per flow epoch
        // (floored at 1 below): the backlog threshold for the
        // above-share signal.
        let share_pkts =
            (fair * obs.epoch_len.as_secs_f64() / (8.0 * f64::from(qp.wire.max(1)))) as usize;
        let backlog = self.queues.flow_backlog(obs.id);
        let class = classify(&obs, backlog, share_pkts, fair);

        // At most one packet is dropped per offer: the offered one at
        // the NewFlow cap (its own cap limits how many connection-opening
        // packets may queue), or one victim of the staged eviction. The
        // queue held at most `buffer_pkts` before this push, so a single
        // eviction restores the bound.
        let capped = class == QueueClass::NewFlow
            && self.queues.class_len(QueueClass::NewFlow) >= self.cfg.newflow_cap_pkts;
        let drop = if capped {
            Some((qp, obs.retransmission, 7))
        } else {
            self.stats.per_class[class.index()] += 1;
            self.queues.push(class, qp, &obs);
            let victim = if self.queues.len() > self.cfg.buffer_pkts {
                self.queues.evict_staged()
            } else {
                None
            };
            debug_assert!(self.queues.len() <= self.cfg.buffer_pkts);
            victim
        };
        if let Some((victim, was_retx, stage)) = drop {
            self.stats.dropped += 1;
            self.stats.drops_by_stage[usize::from(stage)] += 1;
            if was_retx {
                self.stats.retransmissions_dropped += 1;
            }
            self.loss_meter.record(true, now);
            self.flows.on_drop_id(victim.flow, was_retx, now);
        }
        if !capped {
            // What stayed counts as a non-drop observation.
            self.loss_meter.record(false, now);
        }

        // The tracker emits as it goes (this offer's epoch rolls and the
        // drop's state change); the offer's own records follow them:
        // classified, then dropped with its stage.
        self.telemetry.emit(now.as_nanos(), || Event::Classified {
            packet: qp.pkt_id,
            flow: telemetry_flow_id(&fkey),
            class,
            retransmission: obs.retransmission,
        });
        let mut outcome = EnqueueOutcome::accepted();
        if let Some((victim, was_retx, stage)) = drop {
            self.telemetry.emit(now.as_nanos(), || Event::Dropped {
                packet: victim.pkt_id,
                flow: telemetry_flow_id(&arena.get(victim.pid).flow),
                stage,
                retransmission: was_retx,
            });
            outcome.dropped.push(victim.pid);
        }
        // The depth sample is the last event an offer produces.
        if self.stats.offered % DEPTH_SAMPLE_EVERY == 1 {
            self.telemetry.emit(now.as_nanos(), || Event::QueueDepth {
                pkts: self.queues.len() as u64,
                bytes: self.queues.byte_len() as u64,
                per_class: self.queues.depth_per_class(),
            });
        }
        outcome
    }

    fn dequeue_forward(&mut self, now: SimTime) -> Option<PacketId> {
        // Rejection notices are tiny and latency-sensitive: inject them
        // ahead of buffered data.
        if let Some((rst, _)) = self.pending_rejects.pop_front() {
            return Some(rst);
        }
        let qp = self.queues.pop(now)?;
        self.flows.on_forwarded_id(qp.flow, qp.wire, now);
        Some(qp.pid)
    }

    fn observe_reverse(
        &mut self,
        pkt: PacketId,
        arena: &mut PacketArena,
        now: SimTime,
    ) -> AdmissionDecision {
        let body = arena.get(pkt);
        if body.flags.syn && !body.flags.ack {
            // The SYN's key, read before the arena is borrowed mutably
            // for the rejection notice.
            let flow = body.flow;
            let loss = self.loss_meter.rate(now);
            let decision = self.admission.on_syn(flow.src, loss, now);
            if decision == AdmissionDecision::Reject {
                self.stats.syns_rejected += 1;
                if self.cfg.reject_feedback {
                    // A spoofed rejection notice travels back to the
                    // client on the forward link: an RST whose meta is
                    // the suggested wait in milliseconds (the paper's
                    // expected-wait-time feedback, an in-band stand-in
                    // for its spoofed HTTP 503).
                    let rst = PacketBuilder::new(flow.reversed())
                        .flags(TcpFlags::RST)
                        .meta(self.cfg.admission_twait.as_millis())
                        .build();
                    let wire = rst.wire_len();
                    let pid = arena.insert(rst);
                    self.pending_rejects.push_back((pid, wire));
                }
            }
            return decision;
        }
        self.flows.observe_reverse(body, now);
        AdmissionDecision::Admit
    }
}

impl std::fmt::Debug for TaqState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaqState")
            .field("flows", &self.flows.len())
            .field("queued", &self.queues.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Shared handle to the middlebox state. The forward and reverse qdisc
/// halves genuinely share one state (the reverse path's ACK/SYN
/// observations drive the forward path's scheduling), so this is the
/// one place the refactor keeps a shared handle rather than
/// engine-owned state; `Arc<Mutex<…>>` keeps both halves `Send`. Each
/// run drives the pair from a single engine thread, so the lock is
/// uncontended and never held across a callback.
pub type SharedTaq = Arc<Mutex<TaqState>>;

/// Locks the middlebox state for one step.
fn lock(state: &SharedTaq) -> MutexGuard<'_, TaqState> {
    // Invariant: the lock is poisoned only by a TAQ step that already
    // panicked holding it, so this re-raises that panic, no new one.
    state.lock().unwrap()
}

/// The data-direction (congested) half of the middlebox.
#[derive(Debug)]
pub struct TaqQdisc {
    state: SharedTaq,
}

/// The reverse-direction half: passes ACKs (feeding the tracker) and
/// filters SYNs through admission control. Buffering is an unbounded
/// FIFO, as the reverse path is uncongested by construction.
#[derive(Debug)]
pub struct TaqReverseQdisc {
    state: SharedTaq,
    fifo: UnboundedFifo,
}

/// Constructor bundle for the two halves of one middlebox.
pub struct TaqPair {
    /// Queue for the congested data direction.
    pub forward: TaqQdisc,
    /// Queue for the reverse (ACK/SYN) direction.
    pub reverse: TaqReverseQdisc,
    /// Shared state handle for post-run inspection.
    pub state: SharedTaq,
}

impl TaqPair {
    /// Builds a middlebox: both qdisc halves over one shared state.
    pub fn new(cfg: TaqConfig) -> TaqPair {
        let state: SharedTaq = Arc::new(Mutex::new(TaqState::new(cfg)));
        TaqPair {
            forward: TaqQdisc {
                state: state.clone(),
            },
            reverse: TaqReverseQdisc {
                state: state.clone(),
                fifo: UnboundedFifo::new(),
            },
            state,
        }
    }

    /// Wires a telemetry hub through the shared state (see
    /// [`TaqState::attach_telemetry`]).
    pub fn attach_telemetry(&self, telemetry: Telemetry) {
        lock(&self.state).attach_telemetry(telemetry);
    }
}

impl Qdisc for TaqQdisc {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: SimTime) -> EnqueueOutcome {
        lock(&self.state).enqueue_forward(pkt, arena, now)
    }

    fn dequeue(&mut self, _arena: &mut PacketArena, now: SimTime) -> Option<PacketId> {
        lock(&self.state).dequeue_forward(now)
    }

    fn len(&self) -> usize {
        let st = lock(&self.state);
        st.queues.len() + st.pending_rejects.len()
    }

    fn byte_len(&self) -> usize {
        let st = lock(&self.state);
        st.queues.byte_len()
            + st.pending_rejects
                .iter()
                .map(|&(_, wire)| wire as usize)
                .sum::<usize>()
    }

    fn name(&self) -> &'static str {
        "taq"
    }
}

impl Qdisc for TaqReverseQdisc {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: SimTime) -> EnqueueOutcome {
        let decision = lock(&self.state).observe_reverse(pkt, arena, now);
        if decision == AdmissionDecision::Reject {
            return EnqueueOutcome::rejected(pkt);
        }
        self.fifo.enqueue(pkt, arena, now)
    }

    fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketId> {
        self.fifo.dequeue(arena, now)
    }

    fn len(&self) -> usize {
        self.fifo.len()
    }

    fn byte_len(&self) -> usize {
        self.fifo.byte_len()
    }

    fn name(&self) -> &'static str {
        "taq-reverse"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq_sim::{Bandwidth, FlowKey, NodeId, PacketBuilder, TcpFlags};

    fn cfg() -> TaqConfig {
        TaqConfig::for_link(Bandwidth::from_kbps(600))
    }

    fn key(port: u16) -> FlowKey {
        FlowKey {
            src: NodeId(1),
            src_port: 80,
            dst: NodeId(2),
            dst_port: port,
        }
    }

    fn data(a: &mut PacketArena, port: u16, seq: u64, id: u64) -> PacketId {
        let mut p = PacketBuilder::new(key(port)).seq(seq).payload(460).build();
        p.id = id;
        a.insert(p)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn forwards_within_capacity() {
        let mut a = PacketArena::new();
        let pair = TaqPair::new(cfg());
        let mut q = pair.forward;
        // Uncongested operation: the link drains as fast as we enqueue.
        let mut seen = 0;
        for i in 0..10 {
            let pkt = data(&mut a, 1, 1 + i * 460, i);
            let out = q.enqueue(pkt, &mut a, t(i));
            assert!(out.dropped.is_empty());
            if let Some(id) = q.dequeue(&mut a, t(i)) {
                a.remove(id);
                seen += 1;
            }
        }
        assert_eq!(seen, 10);
        assert_eq!(q.len(), 0);
        assert!(a.is_empty());
        assert_eq!(pair.state.lock().unwrap().stats.offered, 10);
        assert_eq!(pair.state.lock().unwrap().stats.dropped, 0);
    }

    #[test]
    fn buffer_cap_evicts_per_policy() {
        let mut a = PacketArena::new();
        let mut config = cfg();
        config.buffer_pkts = 4;
        config.newflow_cap_pkts = 4;
        let pair = TaqPair::new(config);
        let mut q = pair.forward;
        let mut dropped = 0;
        for i in 0..12 {
            let pkt = data(&mut a, 1, 1 + i * 460, i);
            for d in q.enqueue(pkt, &mut a, t(i)).dropped {
                a.remove(d);
                dropped += 1;
            }
        }
        assert_eq!(q.len(), 4);
        assert_eq!(dropped, 8);
        assert_eq!(a.len(), 4, "arena holds exactly the buffered packets");
        assert_eq!(pair.state.lock().unwrap().stats.dropped, 8);
    }

    #[test]
    fn retransmission_repairing_our_drop_takes_recovery_class() {
        let mut a = PacketArena::new();
        let pair = TaqPair::new(cfg());
        let mut q = pair.forward;
        let p1 = data(&mut a, 1, 1, 1);
        q.enqueue(p1, &mut a, t(0));
        let p2 = data(&mut a, 1, 461, 2);
        q.enqueue(p2, &mut a, t(5));
        // This queue drops the flow's packet, so the re-sent sequence
        // is a true repair and rides the Recovery class.
        {
            let flows = &mut pair.state.lock().unwrap().flows;
            let id = flows.id_of(&key(1)).unwrap();
            flows.on_drop_id(id, false, t(6));
        }
        let p3 = data(&mut a, 1, 1, 3); // seq reuse = retransmission
        q.enqueue(p3, &mut a, t(10));
        assert_eq!(
            pair.state
                .lock()
                .unwrap()
                .stats
                .class_count(QueueClass::Recovery),
            1
        );
    }

    #[test]
    fn spurious_retransmission_does_not_take_recovery_class() {
        let mut a = PacketArena::new();
        let pair = TaqPair::new(cfg());
        let mut q = pair.forward;
        let p1 = data(&mut a, 1, 1, 1);
        q.enqueue(p1, &mut a, t(0));
        let p2 = data(&mut a, 1, 461, 2);
        q.enqueue(p2, &mut a, t(5));
        // No drop here: the resend is spurious (or repairs a loss
        // elsewhere) and must not jump the line.
        let p3 = data(&mut a, 1, 1, 3);
        q.enqueue(p3, &mut a, t(10));
        assert_eq!(
            pair.state
                .lock()
                .unwrap()
                .stats
                .class_count(QueueClass::Recovery),
            0
        );
    }

    #[test]
    fn newflow_cap_limits_connection_packets() {
        let mut a = PacketArena::new();
        let mut config = cfg();
        config.newflow_cap_pkts = 2;
        let pair = TaqPair::new(config);
        let mut q = pair.forward;
        // Five distinct brand-new flows, one packet each: all classify
        // as NewFlow; only two fit the cap.
        let mut drops = 0;
        for port in 1..=5u16 {
            let pkt = data(&mut a, port, 1, u64::from(port));
            for d in q.enqueue(pkt, &mut a, t(0)).dropped {
                a.remove(d);
                drops += 1;
            }
        }
        assert_eq!(drops, 3);
        assert_eq!(q.len(), 2);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn reverse_passes_acks_and_feeds_tracker() {
        let mut a = PacketArena::new();
        let pair = TaqPair::new(cfg());
        let mut fwd = pair.forward;
        let mut rev = pair.reverse;
        let p1 = data(&mut a, 1, 1, 1);
        fwd.enqueue(p1, &mut a, t(0));
        let out = fwd.dequeue(&mut a, t(1)).unwrap();
        a.remove(out);
        let ack = PacketBuilder::new(key(1).reversed())
            .seq(1)
            .ack(461)
            .build();
        let ack = a.insert(ack);
        let out = rev.enqueue(ack, &mut a, t(400));
        assert!(out.dropped.is_empty());
        assert_eq!(rev.len(), 1);
        let got = rev.dequeue(&mut a, t(401)).unwrap();
        a.remove(got);
        assert!(a.is_empty());
        // The tracker's epoch moved off the floor thanks to the sample.
        let state = pair.state.lock().unwrap();
        let flow = state.flows.get(&key(1)).unwrap();
        assert!(flow.epoch_len > SimDuration::from_millis(100));
    }

    #[test]
    fn admission_rejects_syns_when_lossy() {
        let mut a = PacketArena::new();
        let config = cfg().with_admission_control();
        let pair = TaqPair::new(config);
        let mut fwd = pair.forward;
        let mut rev = pair.reverse;
        // Manufacture heavy loss: tiny buffer is simpler — instead drive
        // the meter directly through overflow drops.
        {
            let mut st = pair.state.lock().unwrap();
            for i in 0..200 {
                st.loss_meter.record(i % 2 == 0, t(100));
            }
        }
        let syn_pkt = PacketBuilder::new(FlowKey {
            src: NodeId(9),
            src_port: 5000,
            dst: NodeId(1),
            dst_port: 80,
        })
        .flags(TcpFlags::SYN)
        .build();
        let syn = a.insert(syn_pkt.clone());
        let out = rev.enqueue(syn, &mut a, t(200));
        assert_eq!(out.dropped.len(), 1, "SYN rejected at 50% loss");
        a.remove(out.dropped[0]);
        assert_eq!(pair.state.lock().unwrap().stats.syns_rejected, 1);
        // Data for existing flows still flows normally.
        let d = data(&mut a, 1, 1, 1);
        assert!(fwd.enqueue(d, &mut a, t(200)).dropped.is_empty());
        // Once the loss clears (meter window rolls), the SYN is let in.
        let syn2 = a.insert(syn_pkt);
        let out = rev.enqueue(syn2, &mut a, t(20_000));
        assert!(out.dropped.is_empty());
    }

    #[test]
    fn admission_disabled_by_default() {
        let mut a = PacketArena::new();
        let pair = TaqPair::new(cfg());
        let mut rev = pair.reverse;
        {
            let mut st = pair.state.lock().unwrap();
            for _ in 0..100 {
                st.loss_meter.record(true, t(0));
            }
        }
        let syn = a.insert(
            PacketBuilder::new(FlowKey {
                src: NodeId(9),
                src_port: 5000,
                dst: NodeId(1),
                dst_port: 80,
            })
            .flags(TcpFlags::SYN)
            .build(),
        );
        assert!(rev.enqueue(syn, &mut a, t(1)).dropped.is_empty());
    }

    #[test]
    fn conservation_across_enqueue_dequeue_drop() {
        let mut a = PacketArena::new();
        let mut config = cfg();
        config.buffer_pkts = 8;
        config.newflow_cap_pkts = 8;
        let pair = TaqPair::new(config);
        let mut q = pair.forward;
        let mut enq = 0u64;
        let mut drop = 0u64;
        let mut deq = 0u64;
        for i in 0..500u64 {
            let pkt = data(&mut a, (i % 7) as u16 + 1, 1 + (i / 7) * 460, i);
            let out = q.enqueue(pkt, &mut a, t(i));
            enq += 1;
            for d in out.dropped {
                a.remove(d);
                drop += 1;
            }
            if i % 3 == 0 {
                if let Some(id) = q.dequeue(&mut a, t(i)) {
                    a.remove(id);
                    deq += 1;
                }
            }
        }
        while let Some(id) = q.dequeue(&mut a, t(1_000)) {
            a.remove(id);
            deq += 1;
        }
        assert_eq!(enq, deq + drop, "no packet lost or duplicated");
        assert_eq!(q.len(), 0);
        assert_eq!(q.byte_len(), 0);
        assert!(a.is_empty(), "arena leak-free across churn");
    }

    /// A forward queue driven through the `Qdisc` interface alone, one
    /// microsecond per call, so a whole test sits inside one tracker
    /// epoch. Flow `f` is `0:(f >> 16) -> 1:f`.
    struct Resident {
        q: TaqQdisc,
        state: SharedTaq,
        arena: PacketArena,
        now_ns: u64,
    }

    impl Resident {
        fn new(cfg: TaqConfig) -> Resident {
            let pair = TaqPair::new(cfg);
            Resident {
                q: pair.forward,
                state: pair.state,
                arena: PacketArena::new(),
                now_ns: 0,
            }
        }

        fn key(flow: u32) -> FlowKey {
            FlowKey {
                src: NodeId(0),
                src_port: (flow >> 16) as u16,
                dst: NodeId(1),
                dst_port: flow as u16,
            }
        }

        fn tick(&mut self) -> SimTime {
            self.now_ns += 1_000;
            SimTime::from_nanos(self.now_ns)
        }

        /// Enqueues `flow`'s segment at `seq`; returns how many packets
        /// the queue evicted for it.
        fn enqueue(&mut self, flow: u32, seq: u64) -> usize {
            let pkt = PacketBuilder::new(Self::key(flow))
                .seq(seq)
                .payload(460)
                .build();
            let pkt = self.arena.insert(pkt);
            let now = self.tick();
            let dropped = self.q.enqueue(pkt, &mut self.arena, now).dropped;
            for &victim in &dropped {
                self.arena.remove(victim);
            }
            dropped.len()
        }

        /// Dequeues one packet and returns the flow it belongs to.
        fn dequeue(&mut self) -> Option<FlowKey> {
            let now = self.tick();
            let out = self.q.dequeue(&mut self.arena, now)?;
            Some(self.arena.remove(out).flow)
        }

        fn class_count(&self, class: QueueClass) -> u64 {
            self.state.lock().unwrap().stats.class_count(class)
        }
    }

    #[test]
    fn full_buffer_of_repairs_and_new_flows_holds_under_evicting_arrivals() {
        const FLOWS: u32 = 64;
        let mut cfg = TaqConfig::for_link(Bandwidth::from_mbps(10));
        cfg.buffer_pkts = FLOWS as usize;
        cfg.newflow_cap_pkts = FLOWS as usize;
        let mut r = Resident::new(cfg);
        let half = FLOWS / 2;
        // Each flow of the first half sends three segments into a buffer
        // that holds two apiece: the third makes it the deepest backlog,
        // so the eviction takes its own head and the queue owes every one
        // of them a repair.
        for seg in 0..3 {
            for f in 0..half {
                r.enqueue(f, 1 + seg * 460);
            }
        }
        while r.dequeue().is_some() {}
        // The repairs ride the Recovery class; the second half are first
        // packets of fresh flows.
        for f in 0..FLOWS {
            r.enqueue(f, 1);
        }
        assert_eq!(r.q.len(), FLOWS as usize, "buffer exactly full");
        assert_eq!(
            r.class_count(QueueClass::Recovery),
            u64::from(half),
            "half classified Recovery"
        );
        // A never-seen flow evicts exactly one packet, so occupancy holds.
        for f in FLOWS..FLOWS + FLOWS / 8 {
            assert_eq!(r.enqueue(f, 1), 1, "flow {f} evicts one packet");
            assert_eq!(r.q.len(), FLOWS as usize, "occupancy holds");
        }
        for _ in 0..FLOWS / 8 {
            assert!(r.dequeue().is_some(), "resident");
        }
    }

    #[test]
    fn fq_mode_backlog_serves_the_flow_just_pushed() {
        const FLOWS: u32 = 64;
        const ROUNDS: u32 = 8;
        let mut cfg = TaqConfig::for_link(Bandwidth::from_mbps(10));
        cfg.fq_mode = true;
        cfg.buffer_pkts = 4 * FLOWS as usize + 1;
        let mut r = Resident::new(cfg);
        for seg in 0..4 {
            for f in 0..FLOWS {
                assert_eq!(r.enqueue(f, 1 + seg * 460), 0);
            }
        }
        assert_eq!(r.q.len(), 4 * FLOWS as usize, "four packets per flow");
        // An enqueue to each flow in turn alternates with a dequeue: every
        // call re-keys a live flow in both victim heaps.
        for round in 0..ROUNDS {
            let seq = 1 + u64::from(4 + round) * 460;
            for f in 0..FLOWS {
                assert_eq!(r.enqueue(f, seq), 0, "nothing evicts");
                assert_eq!(
                    r.dequeue(),
                    Some(Resident::key(f)),
                    "the dequeue serves the flow just pushed"
                );
            }
        }
        assert_eq!(r.state.lock().unwrap().stats.dropped, 0, "nothing evicts");
        assert_eq!(
            r.class_count(QueueClass::BelowFairShare),
            u64::from((4 + ROUNDS) * FLOWS),
            "every enqueue classified BelowFairShare"
        );
    }
}
