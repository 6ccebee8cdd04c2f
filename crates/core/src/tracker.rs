//! Per-flow tracking: epoch estimation, per-epoch observation counters,
//! and the approximate state machine of the paper's Figure 7.
//!
//! The tracker consumes only what a middlebox can see on the wire —
//! sequence numbers, flags, lengths, arrival times in the data
//! direction, plus (in two-way mode) acknowledgements on the reverse
//! path — and maintains for every flow:
//!
//! - an **epoch** estimate (the middlebox-perceived RTT), from SYN-ACK →
//!   first-ACK timing in two-way mode, refined by data→ACK samples, or
//!   from burst-boundary detection in one-way mode;
//! - the paper's four per-epoch parameters: number of new packets,
//!   highest sequence number, number of retransmitted packets, and
//!   packet losses in the previous epoch;
//! - the approximate state (slow start / normal / explicit loss recovery
//!   / timeout silence / timeout recovery / extended silence / dummy
//!   silence).

use crate::config::TaqConfig;
use taq_sim::{
    seq_reuse_is_retransmission, telemetry_flow_id, FlowId, FlowInterner, FlowKey, Packet,
    SimDuration, SimTime,
};
use taq_telemetry::{Event, FlowState, Telemetry};

/// Packets observed in a flow's life below which it still counts as
/// "new" (slow-start classification into the NewFlow queue).
pub(crate) const NEWFLOW_PACKET_HORIZON: u64 = 10;

/// Ceiling for epoch estimates (guards against wild RTT readings).
pub(crate) const MAX_EPOCH: SimDuration = SimDuration::from_secs(2);

/// EWMA weight for new epoch measurements.
pub(crate) const EPOCH_ALPHA: f64 = 0.25;

/// Epochs of continuous silence after which a flow in a timeout state
/// is considered in *extended* silence.
pub(crate) const EXTENDED_SILENCE_EPOCHS: u32 = 2;

/// Epochs with no traffic after which a flow's tracker state is garbage
/// collected entirely.
pub(crate) const FLOW_GC_EPOCHS: u32 = 60;

/// Per-epoch observation counters (the paper's four parameters).
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochCounters {
    /// New (not previously seen) data packets this epoch.
    pub new_packets: u32,
    /// Retransmitted data packets this epoch.
    pub retransmitted: u32,
    /// Highest sequence number seen by the end of this epoch.
    pub highest_seq: u64,
    /// Packets of this flow dropped at the TAQ queue this epoch.
    pub drops: u32,
}

/// Tracked state for one flow.
///
/// Field order is deliberate and pinned by `repr(C)`: the fields every
/// `observe_forward` touches (epoch window, counters, sequence state)
/// sit first so the per-packet walk stays within the leading cache
/// lines; rarely-read identity and probe state trails.
#[derive(Debug)]
#[repr(C)]
pub struct FlowInfo {
    // -- hot: read/written on every data packet --
    /// Current epoch estimate (middlebox-perceived RTT).
    pub epoch_len: SimDuration,
    /// Start of the current epoch.
    pub epoch_start: SimTime,
    /// Highest `seq_end` ever observed (retransmission detection).
    pub highest_seq_end: u64,
    /// Counters for the current epoch.
    pub current: EpochCounters,
    /// Counters for the previous epoch.
    pub previous: EpochCounters,
    /// Current approximate state.
    pub state: FlowState,
    /// Consecutive fully-silent epochs (no packets at all).
    pub silent_epochs: u32,
    /// Outstanding losses the middlebox knows about and expects to see
    /// repaired (drops at this queue minus observed retransmissions).
    pub pending_repairs: u32,
    /// Time of the last packet observed.
    pub last_packet_at: SimTime,
    /// Time of the last *normal-state* transmission (priority input for
    /// the Recovery queue).
    pub last_normal_at: SimTime,
    /// Total data packets ever observed (young-flow classification).
    pub total_packets: u64,
    /// One-way mode: time of the previous packet (burst-gap detection).
    prev_packet_at: Option<SimTime>,
    // -- warm: epoch rollover and rate estimation --
    /// Bytes forwarded so far in the current epoch.
    pub bytes_this_epoch: u64,
    /// Bytes forwarded in the previous epoch (rate estimation).
    pub bytes_prev_epoch: u64,
    /// Smoothed rate estimate in bytes/sec.
    pub rate_bps_ewma: f64,
    // -- cold: identity and probes --
    /// The flow's data-direction key.
    pub key: FlowKey,
    /// When the flow was first seen.
    pub first_seen: SimTime,
    /// Pending two-way RTT probe: `(seq_end, forwarded_at)`.
    rtt_probe: Option<(u64, SimTime)>,
}

impl FlowInfo {
    fn new(key: FlowKey, now: SimTime, cfg: &TaqConfig) -> Self {
        FlowInfo {
            key,
            state: FlowState::SlowStart,
            epoch_len: cfg.min_epoch,
            epoch_start: now,
            current: EpochCounters::default(),
            previous: EpochCounters::default(),
            silent_epochs: 0,
            highest_seq_end: 0,
            pending_repairs: 0,
            last_packet_at: now,
            last_normal_at: now,
            bytes_prev_epoch: 0,
            bytes_this_epoch: 0,
            rate_bps_ewma: 0.0,
            total_packets: 0,
            first_seen: now,
            rtt_probe: None,
            prev_packet_at: None,
        }
    }

    /// Estimated send rate in bits/sec.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps_ewma * 8.0
    }

    /// `true` while the flow counts as "new" for NewFlow-queue
    /// classification.
    pub fn is_new(&self) -> bool {
        self.state == FlowState::SlowStart && self.total_packets <= NEWFLOW_PACKET_HORIZON
    }

    /// Cumulative drops over the current and previous epochs (the
    /// OverPenalized criterion).
    pub fn recent_drops(&self) -> u32 {
        self.current.drops + self.previous.drops
    }

    /// Rough congestion-window estimate: new packets observed over the
    /// current and previous epochs. Bigger windows mean a drop is more
    /// likely to be repaired by fast retransmit instead of a timeout.
    pub fn window_estimate(&self) -> u32 {
        self.current.new_packets + self.previous.new_packets
    }

    /// `true` while dropping this flow's packets is likely to cause (or
    /// extend) a *timeout*: it is waiting out an RTO, replaying after
    /// one, or took a drop this/last epoch that it has not yet repaired.
    /// Such flows' packets are shielded from eviction (paper §4.1:
    /// flows with recent losses "are given higher priority in future
    /// epochs for retransmitted packets and existing packets within the
    /// sliding window to prevent timeouts").
    ///
    /// Deliberately narrow: a flow in plain fast-retransmit recovery
    /// whose drop has aged out is *not* protected — with a window large
    /// enough to fast-retransmit it absorbs further drops without
    /// timing out, and blanket protection would funnel every drop onto
    /// exactly the flows that cannot afford them.
    pub fn is_protected(&self) -> bool {
        // A window comfortably above the duplicate-ACK threshold can
        // repair any single loss with a fast retransmit; such a flow
        // needs no shielding even mid-recovery. Protection is for the
        // flows whose next loss necessarily becomes a timeout.
        if self.window_estimate() > 4 {
            return false;
        }
        self.state.is_timeout()
            || (self.state == FlowState::ExplicitLossRecovery && self.recent_drops() > 0)
    }

    /// Rolls the epoch window forward to cover `now`, applying the state
    /// machine's per-epoch transitions once per elapsed epoch. Each
    /// transition that changes state is emitted, timestamped at the
    /// epoch boundary it fired on.
    fn roll_epochs(&mut self, now: SimTime, telemetry: &Telemetry) {
        while now >= self.epoch_start + self.epoch_len {
            let old = self.state;
            let trigger = self.apply_epoch_transition();
            if self.state != old {
                let boundary = self.epoch_start + self.epoch_len;
                let (to, key) = (self.state, self.key);
                telemetry.emit(boundary.as_nanos(), || Event::FlowStateChanged {
                    flow: telemetry_flow_id(&key),
                    from: old,
                    to,
                    trigger,
                });
            }
            self.epoch_start += self.epoch_len;
            self.previous = self.current;
            self.bytes_prev_epoch = self.bytes_this_epoch;
            let secs = self.epoch_len.as_secs_f64();
            if secs > 0.0 {
                let inst = self.bytes_this_epoch as f64 / secs;
                self.rate_bps_ewma = 0.5 * self.rate_bps_ewma + 0.5 * inst;
            }
            self.current = EpochCounters {
                highest_seq: self.highest_seq_end,
                ..EpochCounters::default()
            };
            self.bytes_this_epoch = 0;
        }
    }

    /// The end-of-epoch state transition (paper §3.3/§4.1). Returns the
    /// trigger tag describing which transition family fired.
    fn apply_epoch_transition(&mut self) -> &'static str {
        let sent = self.current.new_packets + self.current.retransmitted;
        if sent == 0 {
            self.silent_epochs += 1;
            self.state = match self.state {
                // Silence with repairs outstanding is a timeout.
                FlowState::ExplicitLossRecovery | FlowState::TimeoutRecovery => {
                    FlowState::TimeoutSilence
                }
                FlowState::TimeoutSilence | FlowState::ExtendedSilence => {
                    if self.silent_epochs >= EXTENDED_SILENCE_EPOCHS {
                        FlowState::ExtendedSilence
                    } else {
                        FlowState::TimeoutSilence
                    }
                }
                // A quiet normal flow simply has nothing to send — unless
                // we know of unrepaired drops, in which case it is
                // waiting out an RTO.
                FlowState::SlowStart | FlowState::Normal | FlowState::DummySilence => {
                    if self.pending_repairs > 0 {
                        FlowState::TimeoutSilence
                    } else {
                        FlowState::DummySilence
                    }
                }
            };
            return "silent-epoch";
        }
        self.silent_epochs = 0;
        let grew = f64::from(self.current.new_packets)
            >= 1.5 * f64::from(self.previous.new_packets.max(1));
        self.state = match self.state {
            FlowState::SlowStart | FlowState::Normal | FlowState::DummySilence => {
                if self.current.drops > 0 || self.current.retransmitted > 0 {
                    FlowState::ExplicitLossRecovery
                } else if grew {
                    FlowState::SlowStart
                } else {
                    FlowState::Normal
                }
            }
            FlowState::ExplicitLossRecovery => {
                if self.pending_repairs == 0 && self.current.drops == 0 {
                    FlowState::Normal
                } else {
                    FlowState::ExplicitLossRecovery
                }
            }
            FlowState::TimeoutSilence | FlowState::ExtendedSilence => {
                // Packets after a timeout are the timeout recovery.
                FlowState::TimeoutRecovery
            }
            FlowState::TimeoutRecovery => {
                if self.pending_repairs == 0 && self.current.drops == 0 {
                    // Successful timeout recovery resumes in slow start.
                    FlowState::SlowStart
                } else {
                    FlowState::TimeoutRecovery
                }
            }
        };
        "active-epoch"
    }
}

/// Dense hot columns over the flow slab (SoA), indexed by [`FlowId`]
/// like `slots` itself.
///
/// The table's two periodic scans — the fair-share `active_flows`
/// count (every quarter `min_epoch`) and the epoch-roll/GC `tick`
/// (every `min_epoch`) — visit *every* flow. Walking the ~200-byte
/// [`FlowInfo`] structs for those answers pulls several cache lines
/// per flow; at hundreds of flows the scans dominate the enqueue
/// path. These columns cache exactly the per-flow words the scans
/// need, eight entries per cache line, and are refreshed whenever the
/// owning `FlowInfo` mutates (every mutation funnels through a
/// handful of `FlowTable` methods, each ending in [`Self::refresh`]).
#[derive(Debug, Default)]
struct HotColumns {
    /// `last_packet_at + 4 * epoch_len`, the instant the flow stops
    /// counting as active; [`SimTime::ZERO`] for vacant slots and
    /// dummy-silent flows (excluded from fair share outright).
    active_until: Vec<SimTime>,
    /// `epoch_start + epoch_len`, the flow's next epoch boundary —
    /// before it, `roll_epochs` is a no-op; [`SimTime::MAX`] for
    /// vacant slots.
    epoch_deadline: Vec<SimTime>,
    /// `silent_epochs >= FLOW_GC_EPOCHS`: the flow is GC-ripe and
    /// `tick` must consult `in_use` even when no epoch elapsed.
    gc_eligible: Vec<bool>,
}

impl HotColumns {
    /// Grows all columns (as vacant) to cover `n` slots.
    fn grow(&mut self, n: usize) {
        self.active_until.resize(n, SimTime::ZERO);
        self.epoch_deadline.resize(n, SimTime::MAX);
        self.gc_eligible.resize(n, false);
    }

    /// Recomputes slot `idx` from its flow's current state.
    #[inline]
    fn refresh(&mut self, idx: usize, flow: &FlowInfo) {
        self.active_until[idx] = if flow.state == FlowState::DummySilence {
            SimTime::ZERO
        } else {
            flow.last_packet_at + flow.epoch_len * 4
        };
        self.epoch_deadline[idx] = flow.epoch_start + flow.epoch_len;
        self.gc_eligible[idx] = flow.silent_epochs >= FLOW_GC_EPOCHS;
    }

    /// Marks slot `idx` vacant.
    fn clear(&mut self, idx: usize) {
        self.active_until[idx] = SimTime::ZERO;
        self.epoch_deadline[idx] = SimTime::MAX;
        self.gc_eligible[idx] = false;
    }
}

/// The flow table: every flow traversing the middlebox. The
/// data-direction 4-tuple is interned into a dense [`FlowId`] at first
/// sight; all per-flow state lives in a slab indexed by that id, so the
/// hot path pays one Fx hash at the edge and plain array indexing after
/// it.
#[derive(Debug)]
pub struct FlowTable {
    cfg: TaqConfig,
    interner: FlowInterner,
    slots: Vec<Option<FlowInfo>>,
    /// SoA mirror of the scan-hot per-flow words (see [`HotColumns`]).
    hot: HotColumns,
    telemetry: Telemetry,
    /// Total data packets observed (all flows), for loss-rate
    /// accounting.
    pub total_observed: u64,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new(cfg: TaqConfig) -> Self {
        cfg.validate();
        FlowTable {
            cfg,
            interner: FlowInterner::new(),
            slots: Vec::new(),
            hot: HotColumns::default(),
            telemetry: Telemetry::disabled(),
            total_observed: 0,
        }
    }

    /// Routes state-machine transitions and retransmission events to
    /// `telemetry` (disabled by default; the handle is free when off).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configuration in use.
    pub fn config(&self) -> &TaqConfig {
        &self.cfg
    }

    /// Looks up a flow by key.
    pub fn get(&self, key: &FlowKey) -> Option<&FlowInfo> {
        let id = self.interner.get(key)?;
        self.slots[id.index()].as_ref()
    }

    /// Looks up a flow by its dense id.
    pub fn by_id(&self, id: FlowId) -> Option<&FlowInfo> {
        self.slots.get(id.index()).and_then(|s| s.as_ref())
    }

    /// The dense id of an already-tracked flow.
    pub fn id_of(&self, key: &FlowKey) -> Option<FlowId> {
        self.interner.get(key)
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// `true` if no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }

    /// Flows considered *active* for fair-share purposes: seen within
    /// the last few epochs and not in dummy silence.
    ///
    /// Answered from the dense `active_until` column — one 8-byte
    /// compare per slot instead of a multi-cache-line [`FlowInfo`]
    /// walk. `now <= last_packet_at + 4 * epoch_len` is exactly the
    /// old `saturating_since(last_packet_at) <= epoch_len * 4`, and
    /// the column holds [`SimTime::ZERO`] (never a live flow's value,
    /// since `epoch_len >= min_epoch > 0`) for vacant slots and
    /// dummy-silent flows.
    pub fn active_flows(&self, now: SimTime) -> usize {
        let until = self.hot.active_until.iter();
        until.filter(|&&u| u != SimTime::ZERO && now <= u).count()
    }

    /// Observes a data-direction packet arriving at the middlebox.
    /// Returns whether it is a retransmission, plus the flow's state
    /// before this packet (classification input).
    pub fn observe_forward(&mut self, pkt: &Packet, now: SimTime) -> Observation {
        self.total_observed += 1;
        let (id, fresh) = self.interner.intern(pkt.flow);
        if id.index() >= self.slots.len() {
            self.slots.resize_with(id.index() + 1, || None);
            self.hot.grow(self.slots.len());
        }
        if fresh {
            self.slots[id.index()] = Some(FlowInfo::new(pkt.flow, now, &self.cfg));
        }
        let FlowTable {
            cfg,
            slots,
            hot,
            telemetry,
            ..
        } = self;
        // Invariant: a slot is filled when its id is interned and emptied
        // only when the GC releases that id.
        let flow = slots[id.index()].as_mut().expect("interned flow has state");
        flow.roll_epochs(now, telemetry);

        // One-way epoch refinement: a gap longer than half the current
        // estimate, followed by a burst, marks an epoch boundary; take
        // the gap between burst starts as an epoch sample.
        if let Some(prev) = flow.prev_packet_at {
            let gap = now.saturating_since(prev);
            if gap > flow.epoch_len / 2 && gap <= MAX_EPOCH {
                flow.epoch_len = blend_epoch(flow.epoch_len, gap, cfg.min_epoch);
            }
        }
        flow.prev_packet_at = Some(now);

        let end = pkt.seq_end();
        let retransmission =
            pkt.is_data() && seq_reuse_is_retransmission(end, flow.highest_seq_end);
        // A retransmission "repairs" a drop only if this queue owes the
        // flow one; go-back-N resends after a spurious timeout reuse old
        // sequence numbers without any drop here to repair.
        let repairs_our_drop = retransmission && flow.pending_repairs > 0;
        if retransmission {
            flow.current.retransmitted += 1;
            if flow.pending_repairs > 0 {
                flow.pending_repairs -= 1;
            }
        } else if pkt.is_data() {
            flow.current.new_packets += 1;
        }
        flow.total_packets += u64::from(pkt.is_data());
        flow.highest_seq_end = flow.highest_seq_end.max(end);
        flow.current.highest_seq = flow.highest_seq_end;
        flow.last_packet_at = now;
        if matches!(flow.state, FlowState::Normal | FlowState::SlowStart) {
            flow.last_normal_at = now;
        }
        if retransmission {
            telemetry.emit(now.as_nanos(), || Event::Retransmit {
                flow: telemetry_flow_id(&pkt.flow),
                repairs_local_drop: repairs_our_drop,
            });
        }
        // Immediate (not just epoch-boundary) reactions for recovery
        // detection: retransmissions from a silent flow mean timeout
        // recovery is underway.
        if retransmission && flow.state.is_silent() {
            let from = flow.state;
            flow.state = FlowState::TimeoutRecovery;
            flow.silent_epochs = 0;
            telemetry.emit(now.as_nanos(), || Event::FlowStateChanged {
                flow: telemetry_flow_id(&pkt.flow),
                from,
                to: FlowState::TimeoutRecovery,
                trigger: "retransmit-after-silence",
            });
        }
        hot.refresh(id.index(), flow);
        Observation {
            id,
            retransmission,
            repairs_our_drop,
            state: flow.state,
            silent_epochs: flow.silent_epochs,
            is_new: flow.is_new(),
            recent_drops: flow.recent_drops(),
            rate_bps: flow.rate_bps(),
            epoch_len: flow.epoch_len,
            last_normal_at: flow.last_normal_at,
            window_estimate: flow.window_estimate(),
            protected: flow.is_protected(),
            fq_only: cfg.fq_mode,
        }
    }

    /// Records, by dense id, that a packet was forwarded onto the link
    /// (rate accounting). The caller already holds the flow's id from
    /// classification, so no key hash is paid per forwarded packet.
    pub fn on_forwarded_id(&mut self, id: FlowId, bytes: u32, now: SimTime) {
        let FlowTable {
            slots,
            hot,
            telemetry,
            ..
        } = self;
        if let Some(flow) = slots.get_mut(id.index()).and_then(|s| s.as_mut()) {
            flow.roll_epochs(now, telemetry);
            flow.bytes_this_epoch += u64::from(bytes);
            // Arm a two-way RTT probe if none outstanding.
            if flow.rtt_probe.is_none() {
                flow.rtt_probe = Some((flow.highest_seq_end, now));
            }
            hot.refresh(id.index(), flow);
        }
    }

    /// Records, by dense id, that a packet was dropped at the TAQ
    /// queue. Updates the flow's expected next state (paper §4.1: the
    /// middlebox knows which losses it inflicted and adjusts its
    /// prediction).
    pub fn on_drop_id(&mut self, id: FlowId, retransmission: bool, now: SimTime) {
        let FlowTable {
            slots,
            hot,
            telemetry,
            ..
        } = self;
        if let Some(flow) = slots.get_mut(id.index()).and_then(|s| s.as_mut()) {
            flow.roll_epochs(now, telemetry);
            flow.current.drops += 1;
            flow.pending_repairs += 1;
            let old = flow.state;
            flow.state = if retransmission {
                // A dropped retransmission forces an RTO (and possibly a
                // repetitive one).
                FlowState::TimeoutSilence
            } else {
                match flow.state {
                    FlowState::SlowStart | FlowState::Normal | FlowState::DummySilence => {
                        FlowState::ExplicitLossRecovery
                    }
                    other => other,
                }
            };
            if flow.state != old {
                let (to, key) = (flow.state, flow.key);
                telemetry.emit(now.as_nanos(), || Event::FlowStateChanged {
                    flow: telemetry_flow_id(&key),
                    from: old,
                    to,
                    trigger: if retransmission {
                        "dropped-retransmission"
                    } else {
                        "local-drop"
                    },
                });
            }
            hot.refresh(id.index(), flow);
        }
    }

    /// Observes a reverse-direction (ACK) packet in two-way mode,
    /// closing any outstanding RTT probe for the matching flow.
    pub fn observe_reverse(&mut self, pkt: &Packet, now: SimTime) {
        if !pkt.flags.ack {
            return;
        }
        let data_key = pkt.flow.reversed();
        let Some(id) = self.interner.get(&data_key) else {
            return;
        };
        let FlowTable {
            cfg, slots, hot, ..
        } = self;
        let Some(flow) = slots[id.index()].as_mut() else {
            return;
        };
        let Some((probe_end, sent)) = flow.rtt_probe else {
            return;
        };
        if pkt.ack >= probe_end {
            let sample = now.saturating_since(sent);
            if sample >= SimDuration::from_millis(1) && sample <= MAX_EPOCH {
                flow.epoch_len = blend_epoch(flow.epoch_len, sample, cfg.min_epoch);
                hot.refresh(id.index(), flow);
            }
            flow.rtt_probe = None;
        }
    }

    /// Advances every flow's epoch window to `now` and drops flows idle
    /// past the GC horizon. Called periodically by the queue layer.
    ///
    /// `in_use` guards id recycling: a flow whose [`FlowId`] some other
    /// structure still indexes by (e.g. packets buffered in the TAQ
    /// queues) is kept alive even past the horizon, because releasing
    /// the id would let a later flow reuse it while the old state is
    /// still addressable. Pass `|_| false` when no such structure
    /// exists.
    pub fn tick(&mut self, now: SimTime, in_use: impl Fn(FlowId) -> bool) {
        let FlowTable {
            slots,
            hot,
            telemetry,
            interner,
            ..
        } = self;
        for (idx, slot) in slots.iter_mut().enumerate() {
            // Column fast path: before its epoch deadline a flow's
            // `roll_epochs` is a no-op, and unless it is GC-ripe the
            // collection check below cannot fire either — skip without
            // touching the `FlowInfo` cache lines. Vacant slots sit at
            // `(MAX, false)`, so they are skipped here too.
            if now < hot.epoch_deadline[idx] && !hot.gc_eligible[idx] {
                continue;
            }
            let Some(flow) = slot.as_mut() else {
                continue;
            };
            flow.roll_epochs(now, telemetry);
            let id = FlowId(idx as u32);
            if flow.silent_epochs >= FLOW_GC_EPOCHS && !in_use(id) {
                *slot = None;
                interner.release(id);
                hot.clear(idx);
            } else {
                hot.refresh(idx, flow);
            }
        }
    }

    /// Iterates over tracked flows in id order (diagnostics, metrics).
    pub fn iter(&self) -> impl Iterator<Item = &FlowInfo> {
        self.slots.iter().flatten()
    }
}

/// Blends an epoch `sample` into the estimate `cur` by EWMA, clamped
/// to `[min_epoch, MAX_EPOCH]`.
fn blend_epoch(cur: SimDuration, sample: SimDuration, min_epoch: SimDuration) -> SimDuration {
    let blended = (1.0 - EPOCH_ALPHA) * cur.as_secs_f64() + EPOCH_ALPHA * sample.as_secs_f64();
    SimDuration::from_secs_f64(blended)
        .max(min_epoch)
        .min(MAX_EPOCH)
}

/// What the tracker can say about a packet's flow at classification
/// time.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// The flow's dense id (slab index for every downstream structure).
    pub id: FlowId,
    /// The packet re-sends data already seen.
    pub retransmission: bool,
    /// The packet repairs a drop this queue inflicted (as opposed to a
    /// spurious or externally-caused retransmission).
    pub repairs_our_drop: bool,
    /// Flow state (after immediate reactions to this packet).
    pub state: FlowState,
    /// Consecutive silent epochs before this packet.
    pub silent_epochs: u32,
    /// The flow is still "new" (slow start, few packets).
    pub is_new: bool,
    /// Drops at this queue over the current + previous epochs.
    pub recent_drops: u32,
    /// Estimated flow rate in bits/sec.
    pub rate_bps: f64,
    /// Current epoch estimate.
    pub epoch_len: SimDuration,
    /// Last time the flow transmitted in a normal state.
    pub last_normal_at: SimTime,
    /// Recent-window size estimate (packets over two epochs).
    pub window_estimate: u32,
    /// Dropping this flow now would likely cause or extend a timeout.
    pub protected: bool,
    /// Ablation: the middlebox is configured for plain-FQ mode.
    pub fq_only: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq_sim::{Bandwidth, NodeId, PacketBuilder};

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

    fn data(port: u16, seq: u64) -> Packet {
        PacketBuilder::new(key(port)).seq(seq).payload(460).build()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A local drop of `port`'s flow, if the table tracks it.
    fn drop_on(tab: &mut FlowTable, port: u16, retransmission: bool, now: SimTime) {
        if let Some(id) = tab.id_of(&key(port)) {
            tab.on_drop_id(id, retransmission, now);
        }
    }

    /// `bytes` of `port`'s flow forwarded onto the link.
    fn forwarded(tab: &mut FlowTable, port: u16, bytes: u32, now: SimTime) {
        let id = tab.id_of(&key(port)).expect("tracked flow");
        tab.on_forwarded_id(id, bytes, now);
    }

    #[test]
    fn new_flow_starts_in_slow_start() {
        let mut tab = FlowTable::new(cfg());
        let obs = tab.observe_forward(&data(1, 1), t(0));
        assert_eq!(obs.state, FlowState::SlowStart);
        assert!(obs.is_new);
        assert!(!obs.retransmission);
        assert_eq!(tab.len(), 1);
    }

    /// The active-flow count read off the `HotColumns` expiry column
    /// must agree with a brute-force walk of the `FlowInfo` slots at
    /// every probe, through
    /// churn: interleaved arrivals across dozens of flows, local
    /// drops, maintenance ticks, and a long silence that expires (and
    /// eventually GCs) everything.
    #[test]
    fn active_flow_count_matches_brute_force_scan_through_churn() {
        fn brute_force(tab: &FlowTable, now: SimTime) -> usize {
            tab.slots
                .iter()
                .flatten()
                .filter(|f| {
                    f.state != FlowState::DummySilence
                        && now.saturating_since(f.last_packet_at) <= f.epoch_len * 4
                })
                .count()
        }

        let mut tab = FlowTable::new(cfg());
        let mut rng = taq_sim::SimRng::new(0xAC71_F10A);
        let mut now_ms = 0u64;
        let mut seqs = [0u64; 37];
        for step in 0..4000u64 {
            now_ms += rng.next_below(40);
            if step == 3500 {
                // Fall silent long enough for every flow to expire and
                // the GC to start reclaiming slots.
                now_ms += 30_000;
            }
            let now = t(now_ms);
            match rng.next_below(20) {
                0 => tab.tick(now, |_| false),
                1 => {
                    let port = 1 + rng.next_below(37) as u16;
                    drop_on(&mut tab, port, false, now);
                }
                _ => {
                    let i = rng.next_below(37) as usize;
                    seqs[i] += 460;
                    tab.observe_forward(&data(1 + i as u16, seqs[i]), now);
                }
            }
            if step % 7 == 0 {
                let expect = brute_force(&tab, now);
                assert_eq!(tab.active_flows(now), expect, "step {step} at {now_ms}ms");
            }
        }
    }

    #[test]
    fn retransmission_detected_by_sequence_reuse() {
        let mut tab = FlowTable::new(cfg());
        tab.observe_forward(&data(1, 1), t(0));
        tab.observe_forward(&data(1, 461), t(5));
        let obs = tab.observe_forward(&data(1, 1), t(10));
        assert!(obs.retransmission, "seq below high water is a retransmit");
        let fresh = tab.observe_forward(&data(1, 921), t(15));
        assert!(!fresh.retransmission);
    }

    #[test]
    fn sustained_steady_traffic_becomes_normal() {
        let mut tab = FlowTable::new(cfg());
        // 3 packets per 100 ms epoch for 10 epochs.
        let mut seq = 1;
        for epoch in 0..10u64 {
            for i in 0..3u64 {
                tab.observe_forward(&data(1, seq), t(epoch * 100 + i * 20));
                seq += 460;
            }
        }
        let flow = tab.get(&key(1)).unwrap();
        assert_eq!(flow.state, FlowState::Normal);
        assert!(!flow.is_new(), "past the new-flow horizon");
    }

    #[test]
    fn growth_keeps_slow_start() {
        let mut tab = FlowTable::new(cfg());
        let mut seq = 1;
        // Doubling per epoch: 1, 2, 4 packets.
        for (epoch, count) in [1u64, 2, 4].iter().enumerate() {
            for i in 0..*count {
                tab.observe_forward(&data(1, seq), t(epoch as u64 * 100 + i * 10));
                seq += 460;
            }
        }
        // Trigger a roll into the next epoch.
        tab.observe_forward(&data(1, seq), t(310));
        let flow = tab.get(&key(1)).unwrap();
        assert_eq!(flow.state, FlowState::SlowStart);
    }

    #[test]
    fn drop_moves_flow_to_explicit_recovery_then_normal() {
        let mut tab = FlowTable::new(cfg());
        let mut seq = 1;
        for epoch in 0..5u64 {
            for i in 0..3u64 {
                tab.observe_forward(&data(1, seq), t(epoch * 100 + i * 20));
                seq += 460;
            }
        }
        drop_on(&mut tab, 1, false, t(500));
        assert_eq!(
            tab.get(&key(1)).unwrap().state,
            FlowState::ExplicitLossRecovery
        );
        // The retransmission arrives; the repair completes; next epochs
        // are clean.
        let obs = tab.observe_forward(&data(1, 1), t(600));
        assert!(obs.retransmission);
        for epoch in 7..10u64 {
            for i in 0..3u64 {
                tab.observe_forward(&data(1, seq), t(epoch * 100 + i * 20));
                seq += 460;
            }
        }
        assert_eq!(tab.get(&key(1)).unwrap().state, FlowState::Normal);
    }

    #[test]
    fn dropped_retransmission_predicts_timeout_silence() {
        let mut tab = FlowTable::new(cfg());
        tab.observe_forward(&data(1, 1), t(0));
        tab.observe_forward(&data(1, 461), t(10));
        drop_on(&mut tab, 1, true, t(20));
        assert_eq!(tab.get(&key(1)).unwrap().state, FlowState::TimeoutSilence);
    }

    #[test]
    fn silence_after_loss_becomes_extended() {
        let mut tab = FlowTable::new(cfg());
        let mut seq = 1;
        for epoch in 0..3u64 {
            for i in 0..3u64 {
                tab.observe_forward(&data(1, seq), t(epoch * 100 + i * 20));
                seq += 460;
            }
        }
        drop_on(&mut tab, 1, false, t(310));
        // Nothing for many epochs; tick rolls the window.
        tab.tick(t(900), |_| false);
        let flow = tab.get(&key(1)).unwrap();
        assert_eq!(flow.state, FlowState::ExtendedSilence);
        assert!(flow.silent_epochs >= 2);
        // A retransmission arrives: timeout recovery.
        let obs = tab.observe_forward(&data(1, seq - 460), t(950));
        assert!(obs.retransmission);
        assert_eq!(obs.state, FlowState::TimeoutRecovery);
    }

    #[test]
    fn quiet_normal_flow_is_dummy_silence_not_timeout() {
        let mut tab = FlowTable::new(cfg());
        let mut seq = 1;
        for epoch in 0..5u64 {
            for i in 0..3u64 {
                tab.observe_forward(&data(1, seq), t(epoch * 100 + i * 20));
                seq += 460;
            }
        }
        // No losses; the flow just stops sending (e.g. between objects
        // on a persistent connection).
        tab.tick(t(1_000), |_| false);
        assert_eq!(tab.get(&key(1)).unwrap().state, FlowState::DummySilence);
    }

    #[test]
    fn timeout_recovery_completes_into_slow_start() {
        let mut tab = FlowTable::new(cfg());
        let mut seq = 1u64;
        for epoch in 0..3u64 {
            for i in 0..3u64 {
                tab.observe_forward(&data(1, seq), t(epoch * 100 + i * 20));
                seq += 460;
            }
        }
        drop_on(&mut tab, 1, false, t(310));
        tab.tick(t(700), |_| false); // Silence: timeout.
        assert!(tab.get(&key(1)).unwrap().state.is_timeout());
        // The retransmission repairs the loss...
        tab.observe_forward(&data(1, seq - 460), t(750));
        // ...and a clean epoch follows.
        tab.observe_forward(&data(1, seq), t(900));
        tab.observe_forward(&data(1, seq + 460), t(1_010));
        let flow = tab.get(&key(1)).unwrap();
        assert_eq!(flow.state, FlowState::SlowStart);
    }

    #[test]
    fn two_way_mode_refines_epoch_from_acks() {
        let mut tab = FlowTable::new(cfg());
        let initial = tab.config().min_epoch;
        tab.observe_forward(&data(1, 1), t(0));
        forwarded(&mut tab, 1, 500, t(1));
        // The ACK comes back 400 ms later.
        let ack = PacketBuilder::new(key(1).reversed())
            .seq(1)
            .ack(461)
            .build();
        tab.observe_reverse(&ack, t(401));
        let flow = tab.get(&key(1)).unwrap();
        assert!(
            flow.epoch_len > initial,
            "epoch blended upward: {} vs {}",
            flow.epoch_len,
            initial
        );
    }

    #[test]
    fn gc_removes_long_dead_flows() {
        let mut tab = FlowTable::new(cfg());
        tab.observe_forward(&data(1, 1), t(0));
        tab.observe_forward(&data(2, 1), t(0));
        assert_eq!(tab.len(), 2);
        // Keep flow 2 alive; let flow 1 rot.
        for i in 1..80u64 {
            tab.observe_forward(&data(2, 1 + i * 460), t(i * 100));
        }
        tab.tick(t(8_000), |_| false);
        assert_eq!(tab.len(), 1);
        assert!(tab.get(&key(2)).is_some());
    }

    /// Regression: a flow rotten past the GC horizon must keep its id
    /// while any downstream structure (e.g. a different hop's TAQ
    /// buffer, modelled here by the `in_use` closure) still indexes by
    /// it. Releasing early would hand the id to the next flow while old
    /// state is still addressable under it.
    #[test]
    fn gc_defers_id_release_while_queues_hold_packets() {
        let mut tab = FlowTable::new(cfg());
        tab.observe_forward(&data(1, 1), t(0));
        let dead = tab.id_of(&key(1)).unwrap();
        // Far past the horizon, but the queue still buffers packets.
        tab.tick(t(60_000), |id| id == dead);
        assert_eq!(tab.len(), 1, "in-use id survives the horizon");
        assert_eq!(tab.by_id(dead).unwrap().key, key(1));
        // While deferred, a brand-new flow must not steal the id.
        let obs = tab.observe_forward(&data(2, 1), t(60_001));
        assert_ne!(obs.id, dead, "live id handed to a second flow");
        // The queue drains; the next tick releases the slot.
        tab.tick(t(120_000), |_| false);
        assert!(tab.get(&key(1)).is_none());
        assert!(tab.by_id(dead).is_none());
    }

    /// Regression: a recycled id starts from a blank `FlowInfo`. If any
    /// state aliased across reuse, the new flow's first packet (low seq)
    /// would be misread as a retransmission against the old flow's
    /// high-water mark, and the old flow's drop history would follow it.
    #[test]
    fn recycled_id_carries_no_state_from_the_old_flow() {
        let mut tab = FlowTable::new(cfg());
        // Old flow accumulates history: packets, bytes, a local drop.
        tab.observe_forward(&data(1, 1), t(0));
        tab.observe_forward(&data(1, 461), t(10));
        tab.observe_forward(&data(1, 921), t(20));
        forwarded(&mut tab, 1, 500, t(20));
        drop_on(&mut tab, 1, false, t(30));
        let dead = tab.id_of(&key(1)).unwrap();
        assert!(tab.by_id(dead).unwrap().recent_drops() > 0);
        assert!(tab.by_id(dead).unwrap().pending_repairs > 0);
        tab.tick(t(60_000), |_| false);
        assert!(tab.by_id(dead).is_none());
        // A different flow interns next and takes the freed slot.
        let obs = tab.observe_forward(&data(9, 1), t(60_010));
        assert_eq!(obs.id, dead, "freed slot is recycled, slab stays dense");
        assert!(
            !obs.retransmission,
            "old high-water mark leaked into the new flow"
        );
        assert!(obs.is_new);
        assert_eq!(obs.state, FlowState::SlowStart);
        assert_eq!(obs.recent_drops, 0, "old drop history leaked");
        let flow = tab.by_id(dead).unwrap();
        assert_eq!(flow.key, key(9));
        assert_eq!(flow.pending_repairs, 0);
        assert_eq!(flow.silent_epochs, 0);
        assert_eq!(flow.total_packets, 1);
        assert_eq!(flow.bytes_prev_epoch, 0);
    }

    #[test]
    fn active_flow_count_excludes_idle() {
        let mut tab = FlowTable::new(cfg());
        tab.observe_forward(&data(1, 1), t(0));
        tab.observe_forward(&data(2, 1), t(0));
        assert_eq!(tab.active_flows(t(10)), 2);
        // Flow 1 goes quiet for far longer than 4 epochs.
        for i in 1..30u64 {
            tab.observe_forward(&data(2, 1 + i * 460), t(i * 100));
        }
        assert_eq!(tab.active_flows(t(2_950)), 1);
    }

    #[test]
    fn rate_estimate_tracks_throughput() {
        let mut tab = FlowTable::new(cfg());
        // 5 packets of 500 wire bytes per 100 ms epoch = 200 Kbps.
        let mut seq = 1;
        for epoch in 0..20u64 {
            for i in 0..5u64 {
                let now = t(epoch * 100 + i * 15);
                tab.observe_forward(&data(1, seq), now);
                forwarded(&mut tab, 1, 500, now);
                seq += 460;
            }
        }
        let rate = tab.get(&key(1)).unwrap().rate_bps();
        assert!(
            (rate - 200_000.0).abs() < 60_000.0,
            "rate estimate {rate} vs 200 Kbps"
        );
    }
}
