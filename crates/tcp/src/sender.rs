//! The TCP sender state machine.
//!
//! Implements the data-sending half of a connection: SYN-ACK handshake
//! reply, slow start, congestion avoidance, duplicate-ACK fast
//! retransmit, NewReno (RFC 6582) / SACK-scoreboard loss recovery,
//! and the RFC 6298 retransmission timer with exponential backoff.
//!
//! Two behaviours matter specially for the paper's small-packet-regime
//! analysis and are tested explicitly here:
//!
//! 1. **No fast retransmit below 4 segments in flight** — with fewer
//!    than [`DUPACK_THRESHOLD`] packets after a loss there are not enough
//!    duplicate ACKs, so the flow must wait for a timeout (the paper's
//!    model encodes this as timeout-only recovery from states S2/S3).
//! 2. **Backoff memory** — each consecutive timeout doubles the timer;
//!    the backoff collapses to 1 only when an RTT sample is taken from
//!    newly (not re-)transmitted data, per Karn's algorithm. Repetitive
//!    timeouts therefore produce the geometrically growing silences the
//!    paper models with its `b*` states.
//!
//! The connection model mirrors download-centric HTTP: the *client*
//! sends a SYN whose `meta` field carries the object size (standing in
//! for the GET), and this sender replies SYN-ACK and streams the object.
//! Sequence numbering: the SYN-ACK consumes sequence 0, data occupies
//! `[1, 1+len)`, and the FIN consumes `1+len`.

use crate::config::{TcpConfig, Variant, INITIAL_WINDOW, MSS};
use crate::io::{TcpIo, TimerKind};
use crate::rto::RttEstimator;
use taq_sim::{FlowKey, Packet, PacketBuilder, SimTime, TcpFlags, TimerId};

/// Duplicate-ACK threshold for fast retransmit (3 per RFC 5681).
pub(crate) const DUPACK_THRESHOLD: u32 = 3;

/// Lifecycle phase of the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderState {
    /// SYN received, SYN-ACK sent, waiting for the handshake ACK.
    SynReceived,
    /// Handshake complete; transferring data.
    Established,
    /// Everything (including FIN) acknowledged.
    Closed,
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Default, Clone)]
pub struct SenderStats {
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Data segments retransmitted.
    pub retransmits: u64,
    /// Retransmission timeouts experienced.
    pub timeouts: u64,
    /// Fast-retransmit episodes entered.
    pub fast_retransmits: u64,
    /// Largest consecutive-timeout backoff reached.
    pub max_backoff: u32,
}

/// A sequence field's "none": every comparison the sender makes against
/// a FIN or probe sequence (`snd_una > fin`, `ack >= probe_end`,
/// `fin == seq` for a sequence it sent) fails for it, so "not yet" takes
/// no flag of its own.
const UNSET: u64 = u64::MAX;

/// Where the handshake reply stands, for the first RTT sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SynAck {
    Unsent,
    /// Sent once, at `syn_ack_sent_at`: its ACK is an RTT sample.
    Sent,
    /// Sent again (Karn: its ACK samples nothing).
    Retransmitted,
}

/// The sending endpoint of one TCP connection.
#[derive(Debug)]
pub struct TcpSender {
    /// Data direction: this sender -> the receiver.
    flow: FlowKey,
    state: SenderState,
    /// `TcpConfig::variant`; the RTO bounds live in `rtt`.
    variant: Variant,
    app_closed: bool,
    in_recovery: bool,
    syn_ack: SynAck,
    dup_acks: u32,
    backoff: u32,

    // Sequence space (bytes; 0 is the SYN-ACK, data starts at 1).
    snd_una: u64,
    snd_nxt: u64,
    /// Highest sequence ever sent; segments below it are retransmissions
    /// (after a timeout pulls `snd_nxt` back for go-back-N recovery).
    high_water: u64,
    /// One past the last data byte: `1 + object_len`.
    data_end: u64,
    /// FIN sequence once the FIN has been sent, `UNSET` before.
    fin_seq: u64,

    // Congestion control.
    cwnd: f64,
    ssthresh: f64,
    /// `TcpConfig::max_window_bytes`: the window cap.
    max_window: u64,
    /// NewReno recovery point: recovery ends when `snd_una` passes it.
    recover: u64,

    // SACK scoreboard: sorted, disjoint sacked ranges above snd_una.
    sacked: Vec<(u64, u64)>,
    /// Highest sequence retransmitted in the current SACK recovery
    /// episode, so each hole is retransmitted once per episode.
    sack_retx_mark: u64,

    // RTO machinery.
    rtt: RttEstimator,
    rto_timer: Option<TimerId>,
    /// Outstanding RTT probe: the end of the probed segment (`UNSET`
    /// when there is none) and when it was sent. Invalidated by any
    /// retransmission overlapping it (Karn's algorithm).
    probe_end: u64,
    probe_sent_at: SimTime,
    syn_ack_sent_at: SimTime,

    /// Cumulative ACK value this sender places in its packets (the
    /// client's ISN + 1).
    rcv_ack: u64,

    /// When the final acknowledgement arrived; meaningful once `Closed`.
    closed_at: SimTime,

    /// Public statistics.
    pub stats: SenderStats,
}

// A server holds one per live connection.
const _: () = assert!(std::mem::size_of::<TcpSender>() <= 264);

impl TcpSender {
    /// Creates a sender that will serve `object_len` bytes on `flow`
    /// (oriented sender→receiver) and close afterwards.
    pub fn new(cfg: TcpConfig, flow: FlowKey, object_len: u64) -> Self {
        cfg.validate();
        let rtt = RttEstimator::new(cfg.min_rto, cfg.initial_rto);
        let cwnd = f64::from(INITIAL_WINDOW * MSS);
        let max_window = cfg.max_window_bytes();
        let ssthresh = max_window.min(1 << 30) as f64;
        TcpSender {
            flow,
            state: SenderState::SynReceived,
            variant: cfg.variant,
            app_closed: true,
            in_recovery: false,
            syn_ack: SynAck::Unsent,
            dup_acks: 0,
            backoff: 0,
            snd_una: 0,
            snd_nxt: 0,
            high_water: 0,
            data_end: 1 + object_len,
            fin_seq: UNSET,
            cwnd,
            ssthresh,
            max_window,
            recover: 0,
            sacked: Vec::new(),
            sack_retx_mark: 0,
            rtt,
            rto_timer: None,
            probe_end: UNSET,
            probe_sent_at: SimTime::ZERO,
            syn_ack_sent_at: SimTime::ZERO,
            rcv_ack: 0,
            closed_at: SimTime::ZERO,
            stats: SenderStats::default(),
        }
    }

    /// Marks the connection persistent: no FIN until
    /// [`TcpSender::app_close`] is called, and
    /// [`TcpSender::send_more`] may extend the object.
    pub fn persistent(mut self) -> Self {
        self.app_closed = false;
        self
    }

    /// The data-direction flow key.
    pub fn flow(&self) -> FlowKey {
        self.flow
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SenderState {
        self.state
    }

    /// `true` once the handshake ACK has arrived.
    pub fn is_established(&self) -> bool {
        self.state == SenderState::Established
    }

    /// `true` once all data (and the FIN, if closing) is acknowledged.
    pub fn is_closed(&self) -> bool {
        self.state == SenderState::Closed
    }

    /// Time the final acknowledgement arrived.
    pub fn closed_at(&self) -> Option<SimTime> {
        self.is_closed().then_some(self.closed_at)
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current consecutive-timeout backoff exponent.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Current smoothed RTT estimate in seconds, if sampled.
    pub fn srtt(&self) -> Option<f64> {
        self.rtt.srtt()
    }

    /// Bytes in flight (unacknowledged).
    pub fn flight_size(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Lowest unacknowledged sequence number.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next sequence number to send.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// `true` while in fast recovery.
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// `true` once the FIN has been sent: the object can no longer grow.
    pub fn fin_sent(&self) -> bool {
        self.fin_seq != UNSET
    }

    /// Responds to a (possibly retransmitted) SYN from the client: sends
    /// the SYN-ACK and arms the handshake timer.
    pub fn on_syn(&mut self, syn: &Packet, io: &mut dyn TcpIo) {
        debug_assert!(syn.flags.syn && !syn.flags.ack);
        self.rcv_ack = syn.seq_end();
        if self.state != SenderState::SynReceived {
            // Stale duplicate SYN after establishment; the cumulative ACK
            // we already send on every packet covers it.
            return;
        }
        self.syn_ack = match self.syn_ack {
            SynAck::Unsent => SynAck::Sent,
            SynAck::Sent | SynAck::Retransmitted => SynAck::Retransmitted,
        };
        self.syn_ack_sent_at = io.now();
        self.snd_nxt = 1;
        let pkt = PacketBuilder::new(self.flow)
            .seq(0)
            .ack(self.rcv_ack)
            .flags(TcpFlags::SYN_ACK)
            .build();
        io.emit(pkt);
        self.arm_timer(io);
    }

    /// Extends a persistent connection's object by `additional` bytes
    /// (the response to a pipelined request) and tries to transmit.
    ///
    /// # Panics
    ///
    /// Panics once the FIN has been sent ([`TcpSender::fin_sent`]): the
    /// object cannot grow past it.
    pub fn send_more(&mut self, additional: u64, io: &mut dyn TcpIo) {
        assert!(!self.fin_sent(), "cannot extend after FIN has been sent");
        self.data_end += additional;
        self.try_send(io);
    }

    /// Requests connection close: a FIN follows the remaining data.
    pub fn app_close(&mut self, io: &mut dyn TcpIo) {
        self.app_closed = true;
        self.try_send(io);
    }

    /// Processes an incoming ACK from the receiver.
    pub fn on_packet(&mut self, pkt: &Packet, io: &mut dyn TcpIo) {
        if !pkt.flags.ack || self.state == SenderState::Closed {
            return;
        }
        let ack = pkt.ack;
        if ack > self.high_water.max(1) {
            return; // Acks data never sent; ignore.
        }
        if self.variant == Variant::Sack && !pkt.sack.is_empty() {
            for &(s, e) in pkt.sack.as_slice() {
                self.mark_sacked(s, e);
            }
        }
        if self.state == SenderState::SynReceived {
            if ack >= 1 {
                self.establish(ack, io);
            }
            return;
        }
        if ack == self.snd_una && self.flight_size() > 0 && !pkt.is_data() {
            self.on_dup_ack(io);
            return;
        }
        if ack > self.snd_una {
            self.on_new_ack(ack, io);
        }
        // `ack < snd_una` is an old ACK: ignored.
    }

    /// Handles a fired timer.
    pub fn on_timer(&mut self, kind: TimerKind, io: &mut dyn TcpIo) {
        if kind != TimerKind::Rto || self.state == SenderState::Closed {
            return;
        }
        self.rto_timer = None;
        self.stats.timeouts += 1;
        self.backoff = (self.backoff + 1).min(16);
        self.stats.max_backoff = self.stats.max_backoff.max(self.backoff);
        // Karn: an RTO invalidates any outstanding probe.
        self.probe_end = UNSET;
        let flight = self.flight_size() as f64;
        self.ssthresh = (flight / 2.0).max(2.0 * f64::from(MSS));
        self.cwnd = f64::from(MSS);
        self.in_recovery = false;
        self.dup_acks = 0;
        self.sacked.clear();
        if self.state == SenderState::SynReceived {
            // Handshake never completed: resend the SYN-ACK.
            self.syn_ack = SynAck::Retransmitted;
            self.syn_ack_sent_at = io.now();
            let pkt = PacketBuilder::new(self.flow)
                .seq(0)
                .ack(self.rcv_ack)
                .flags(TcpFlags::SYN_ACK)
                .build();
            io.emit(pkt);
        } else {
            // Go-back-N (as ns2 and production stacks do after an RTO):
            // pull snd_nxt back to the cumulative ACK point and resend
            // from there under slow start. Without this, each hole
            // beyond the first would cost its own backed-off timeout.
            self.snd_nxt = self.snd_una;
            self.try_send(io);
        }
        self.arm_timer(io);
    }

    // ----- internals -------------------------------------------------

    fn establish(&mut self, ack: u64, io: &mut dyn TcpIo) {
        self.state = SenderState::Established;
        self.snd_una = ack.max(1);
        // The handshake provides the first RTT sample when the SYN-ACK
        // was not retransmitted.
        if self.syn_ack == SynAck::Sent {
            self.rtt.on_sample(
                io.now()
                    .saturating_since(self.syn_ack_sent_at)
                    .as_secs_f64(),
            );
            self.backoff = 0;
        }
        self.cancel_timer(io);
        self.maybe_close(io);
        self.try_send(io);
    }

    fn on_dup_ack(&mut self, io: &mut dyn TcpIo) {
        self.dup_acks += 1;
        if self.in_recovery {
            if self.dup_acks > DUPACK_THRESHOLD {
                // Window inflation: each dupACK signals a departure.
                self.cwnd += f64::from(MSS);
                self.try_send(io);
            }
            if self.variant == Variant::Sack {
                self.try_send(io);
            }
            return;
        }
        if self.dup_acks == DUPACK_THRESHOLD {
            self.enter_fast_recovery(io);
        }
    }

    fn enter_fast_recovery(&mut self, io: &mut dyn TcpIo) {
        self.stats.fast_retransmits += 1;
        let flight = self.flight_size() as f64;
        self.ssthresh = (flight / 2.0).max(2.0 * f64::from(MSS));
        self.recover = self.snd_nxt;
        self.in_recovery = true;
        self.sack_retx_mark = self.snd_una;
        self.retransmit_at(self.snd_una, io);
        self.cwnd = self.ssthresh + f64::from(DUPACK_THRESHOLD * MSS);
        self.arm_timer(io);
        self.try_send(io);
    }

    fn on_new_ack(&mut self, ack: u64, io: &mut dyn TcpIo) {
        let acked = ack - self.snd_una;
        self.snd_una = ack;
        // After a go-back-N pullback, an ACK can cover data sent before
        // the timeout that snd_nxt was pulled below; skip past it.
        self.snd_nxt = self.snd_nxt.max(ack);
        self.drop_sacked_below(ack);
        // RTT sampling + backoff collapse (timer "collapse" in the
        // paper's terms) when the probe segment is cumulatively acked.
        if ack >= self.probe_end {
            self.rtt
                .on_sample(io.now().saturating_since(self.probe_sent_at).as_secs_f64());
            self.backoff = 0;
            self.probe_end = UNSET;
        }
        if self.in_recovery {
            if ack >= self.recover {
                // Full acknowledgement: deflate and leave recovery.
                self.cwnd = self.ssthresh.max(f64::from(MSS));
                self.in_recovery = false;
                self.dup_acks = 0;
            } else {
                match self.variant {
                    Variant::NewReno => {
                        // Partial ACK: retransmit the next hole, deflate
                        // by the amount acked, stay in recovery.
                        self.retransmit_at(self.snd_una, io);
                        self.cwnd = (self.cwnd - acked as f64 + f64::from(MSS)).max(f64::from(MSS));
                        self.arm_timer(io);
                    }
                    Variant::Sack => {
                        self.sack_retx_mark = self.sack_retx_mark.max(self.snd_una);
                        self.arm_timer(io);
                    }
                }
                self.try_send(io);
                return;
            }
        } else {
            self.dup_acks = 0;
            // Window growth, capped.
            if self.cwnd < self.ssthresh {
                self.cwnd += f64::from(MSS);
            } else {
                self.cwnd += f64::from(MSS) * f64::from(MSS) / self.cwnd.max(1.0);
            }
        }
        self.cwnd = self.cwnd.min(self.max_window as f64);
        if self.flight_size() == 0 {
            self.cancel_timer(io);
        } else {
            self.arm_timer(io);
        }
        self.maybe_close(io);
        self.try_send(io);
    }

    fn maybe_close(&mut self, io: &mut dyn TcpIo) {
        if self.snd_una > self.fin_seq {
            self.state = SenderState::Closed;
            self.closed_at = io.now();
            self.cancel_timer(io);
        }
    }

    /// Effective send window in bytes.
    fn window(&self) -> u64 {
        (self.cwnd as u64).min(self.max_window)
    }

    /// Bytes counted against the window: in flight minus SACKed.
    fn pipe(&self) -> u64 {
        let sacked: u64 = self.sacked.iter().map(|(s, e)| e - s).sum();
        self.flight_size().saturating_sub(sacked)
    }

    /// Sends as much as the window allows: SACK hole repairs first (in
    /// recovery), then new data, then the FIN.
    fn try_send(&mut self, io: &mut dyn TcpIo) {
        if self.state != SenderState::Established {
            return;
        }
        // SACK recovery: repair holes the scoreboard identifies.
        if self.in_recovery && self.variant == Variant::Sack {
            while self.pipe() < self.window() {
                let Some(hole) = self.next_sack_hole() else {
                    break;
                };
                self.retransmit_at(hole, io);
                self.sack_retx_mark = hole + u64::from(MSS);
                self.arm_timer(io);
            }
        }
        loop {
            if self.snd_nxt < self.data_end {
                let seg = u64::from(MSS).min(self.data_end - self.snd_nxt);
                if self.pipe() + seg > self.window() {
                    break;
                }
                let seq = self.snd_nxt;
                let is_new = seq >= self.high_water;
                self.emit_data(seq, seg as u32, io);
                self.snd_nxt += seg;
                if is_new && self.probe_end == UNSET {
                    self.probe_end = seq + seg;
                    self.probe_sent_at = io.now();
                }
                self.arm_timer(io);
            } else if self.app_closed && (!self.fin_sent() || self.fin_seq == self.snd_nxt) {
                // Second disjunct: a timeout pulled snd_nxt back and the
                // walk forward has reached the already-sent FIN again.
                if self.pipe() >= self.window() && self.pipe() > 0 {
                    break;
                }
                let seq = self.snd_nxt;
                self.fin_seq = seq;
                self.snd_nxt += 1;
                let pkt = PacketBuilder::new(self.flow)
                    .seq(seq)
                    .ack(self.rcv_ack)
                    .flags(TcpFlags::FIN_ACK)
                    .build();
                io.emit(pkt);
                self.high_water = self.high_water.max(seq + 1);
                self.arm_timer(io);
                break;
            } else {
                break;
            }
        }
    }

    /// Lowest unsacked, un-retransmitted hole at or above `snd_una`.
    fn next_sack_hole(&self) -> Option<u64> {
        if self.sacked.is_empty() {
            return None;
        }
        let mut candidate = self.snd_una.max(self.sack_retx_mark);
        for &(s, e) in &self.sacked {
            if candidate < s {
                // There is un-sacked data ahead of this block.
                break;
            }
            candidate = candidate.max(e);
        }
        // Only holes below the highest sacked byte are "known lost".
        let high = self.sacked.last().map(|&(_, e)| e).unwrap_or(0);
        (candidate < high && candidate < self.snd_nxt).then_some(candidate)
    }

    fn emit_data(&mut self, seq: u64, len: u32, io: &mut dyn TcpIo) {
        self.stats.segments_sent += 1;
        if seq < self.high_water {
            self.stats.retransmits += 1;
            // Karn: retransmission overlapping the probe invalidates it.
            if seq < self.probe_end {
                self.probe_end = UNSET;
            }
        }
        let mut flags = TcpFlags::ACK;
        // If this segment is the FIN being retransmitted, keep the flag.
        if self.fin_seq == seq {
            flags = TcpFlags::FIN_ACK;
        }
        let pkt = PacketBuilder::new(self.flow)
            .seq(seq)
            .ack(self.rcv_ack)
            .flags(flags)
            .payload(len)
            .build();
        io.emit(pkt);
        self.high_water = self.high_water.max(seq + u64::from(len));
    }

    /// Retransmits the single segment starting at `seq` (fast retransmit
    /// and hole repair; timeout recovery uses go-back-N instead).
    fn retransmit_at(&mut self, seq: u64, io: &mut dyn TcpIo) {
        if self.fin_seq == seq {
            self.stats.retransmits += 1;
            let pkt = PacketBuilder::new(self.flow)
                .seq(seq)
                .ack(self.rcv_ack)
                .flags(TcpFlags::FIN_ACK)
                .build();
            io.emit(pkt);
            return;
        }
        let seg = u64::from(MSS).min(self.data_end.saturating_sub(seq)) as u32;
        if seg == 0 {
            return;
        }
        self.emit_data(seq, seg, io);
    }

    fn mark_sacked(&mut self, start: u64, end: u64) {
        if end <= start || end <= self.snd_una {
            return;
        }
        let start = start.max(self.snd_una);
        // The ranges are sorted and neither overlap nor touch, so those
        // the new one overlaps or touches are a run: from the first
        // ending at or after `start` to the last starting at or before
        // `end`. They merge in place into the run's first.
        let lo = self.sacked.partition_point(|&(_, e)| e < start);
        let hi = self.sacked.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.sacked.insert(lo, (start, end));
            return;
        }
        self.sacked[lo] = (self.sacked[lo].0.min(start), end.max(self.sacked[hi - 1].1));
        self.sacked.drain(lo + 1..hi);
    }

    fn drop_sacked_below(&mut self, ack: u64) {
        self.sacked.retain_mut(|r| {
            r.0 = r.0.max(ack);
            r.0 < r.1
        });
    }

    fn arm_timer(&mut self, io: &mut dyn TcpIo) {
        if let Some(t) = self.rto_timer.take() {
            io.cancel_timer(t);
        }
        let delay = self.rtt.backed_off_rto(self.backoff);
        self.rto_timer = Some(io.set_timer(delay, TimerKind::Rto));
    }

    fn cancel_timer(&mut self, io: &mut dyn TcpIo) {
        if let Some(t) = self.rto_timer.take() {
            io.cancel_timer(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MockIo;
    use taq_sim::{NodeId, SimDuration};

    fn flow() -> FlowKey {
        FlowKey {
            src: NodeId(1),
            src_port: 80,
            dst: NodeId(2),
            dst_port: 5000,
        }
    }

    fn syn() -> Packet {
        PacketBuilder::new(flow().reversed())
            .seq(0)
            .flags(TcpFlags::SYN)
            .meta(10_000)
            .build()
    }

    fn ack_pkt(ack: u64) -> Packet {
        PacketBuilder::new(flow().reversed())
            .seq(1)
            .ack(ack)
            .build()
    }

    fn sack_pkt(ack: u64, blocks: &[(u64, u64)]) -> Packet {
        PacketBuilder::new(flow().reversed())
            .seq(1)
            .ack(ack)
            .sack(taq_sim::SackBlocks::from_slice(blocks))
            .build()
    }

    /// Sender established with `len` bytes to send; returns (sender, io)
    /// after the handshake, with the initial window's packets drained.
    fn established(len: u64, cfg: TcpConfig) -> (TcpSender, MockIo) {
        let mut s = TcpSender::new(cfg, flow(), len);
        let mut io = MockIo::new();
        s.on_syn(&syn(), &mut io);
        let sent = io.take_sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].flags, TcpFlags::SYN_ACK);
        io.now += SimDuration::from_millis(200);
        s.on_packet(&ack_pkt(1), &mut io);
        assert!(s.is_established());
        (s, io)
    }

    #[test]
    fn handshake_then_initial_window() {
        let (mut s, mut io) = established(10_000, TcpConfig::default());
        let sent = io.take_sent();
        // IW = 2 segments.
        assert_eq!(sent.len(), 2);
        assert_eq!(sent[0].seq, 1);
        assert_eq!(sent[0].payload_len, 460);
        assert_eq!(sent[1].seq, 461);
        // Handshake RTT sample taken.
        assert!((s.srtt().unwrap() - 0.2).abs() < 1e-9);
        let _ = &mut s;
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let (mut s, mut io) = established(1_000_000, TcpConfig::default());
        let w1 = io.take_sent();
        assert_eq!(w1.len(), 2);
        // Ack both: cwnd 2 -> 4.
        for p in &w1 {
            s.on_packet(&ack_pkt(p.seq_end()), &mut io);
        }
        let w2 = io.take_sent();
        assert_eq!(w2.len(), 4);
        for p in &w2 {
            s.on_packet(&ack_pkt(p.seq_end()), &mut io);
        }
        let w3 = io.take_sent();
        assert_eq!(w3.len(), 8);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let cfg = TcpConfig::default();
        let (mut s, mut io) = established(10_000_000, cfg.clone());
        // Force CA: set ssthresh below cwnd via a timeout then regrow.
        // Simpler: drive until cwnd passes the default huge ssthresh is
        // impractical, so check the arithmetic directly.
        s.ssthresh = 2.0 * f64::from(MSS);
        let before = s.cwnd;
        let w = io.take_sent();
        s.on_packet(&ack_pkt(w[0].seq_end()), &mut io);
        let growth = s.cwnd - before;
        // One ACK in CA grows cwnd by ~mss^2/cwnd < mss.
        assert!(growth > 0.0 && growth < f64::from(MSS));
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let (mut s, mut io) = established(1_000_000, TcpConfig::default());
        // Grow the window so ≥4 packets are in flight.
        let w1 = io.take_sent();
        for p in &w1 {
            s.on_packet(&ack_pkt(p.seq_end()), &mut io);
        }
        let w2 = io.take_sent();
        assert_eq!(w2.len(), 4);
        let una = s.snd_una;
        // First segment of w2 lost: three dupACKs arrive.
        for _ in 0..3 {
            s.on_packet(&ack_pkt(una), &mut io);
        }
        let out = io.take_sent();
        assert!(
            out.iter().any(|p| p.seq == una && p.is_data()),
            "lost segment retransmitted"
        );
        assert_eq!(s.stats.fast_retransmits, 1);
        assert!(s.in_recovery);
        assert_eq!(s.stats.timeouts, 0);
    }

    #[test]
    fn two_dupacks_do_not_trigger_fast_retransmit() {
        let (mut s, mut io) = established(1_000_000, TcpConfig::default());
        let w1 = io.take_sent();
        for p in &w1 {
            s.on_packet(&ack_pkt(p.seq_end()), &mut io);
        }
        io.take_sent();
        let una = s.snd_una;
        for _ in 0..2 {
            s.on_packet(&ack_pkt(una), &mut io);
        }
        assert!(io.take_sent().is_empty());
        assert_eq!(s.stats.fast_retransmits, 0);
    }

    #[test]
    fn small_window_cannot_fast_retransmit_and_times_out() {
        // The paper's key small-packet-regime mechanism: with only 2
        // packets in flight, a loss cannot generate 3 dupACKs, so the
        // sender must wait for the RTO.
        let (mut s, mut io) = established(10_000, TcpConfig::default());
        let w1 = io.take_sent();
        assert_eq!(w1.len(), 2);
        // First packet lost; the second produces a single dupACK.
        s.on_packet(&ack_pkt(1), &mut io);
        assert!(io.take_sent().is_empty(), "no fast retransmit possible");
        // The RTO eventually fires.
        assert!(io.fire_timer(TimerKind::Rto).is_some());
        s.on_timer(TimerKind::Rto, &mut io);
        let out = io.take_sent();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, 1, "go-back to snd_una");
        assert_eq!(s.stats.timeouts, 1);
        assert_eq!(s.cwnd(), 460, "cwnd collapses to 1 MSS");
        assert_eq!(s.backoff(), 1);
    }

    #[test]
    fn repeated_timeouts_double_backoff_and_collapse_on_new_sample() {
        let (mut s, mut io) = established(10_000, TcpConfig::default());
        io.take_sent();
        let rto_base = s.rtt.backed_off_rto(0);
        // Three consecutive timeouts.
        for i in 1..=3u32 {
            assert!(io.fire_timer(TimerKind::Rto).is_some());
            s.on_timer(TimerKind::Rto, &mut io);
            assert_eq!(s.backoff(), i);
            io.take_sent();
        }
        // The armed timer reflects the backed-off RTO (8x base).
        let deadline = io.timer_deadline(TimerKind::Rto).unwrap();
        let delay = deadline.saturating_since(io.now);
        assert_eq!(delay, (rto_base * 8).min(SimDuration::from_secs(60)));
        // A new ACK covering fresh (post-timeout retransmission carries
        // old data, so ack the retransmitted segment: that sample is
        // Karn-suppressed) — send new data and ack it to collapse.
        s.on_packet(&ack_pkt(461), &mut io); // acks the retransmitted seg
        assert_eq!(s.backoff(), 3, "Karn: retransmitted data gives no sample");
        let fresh = io.take_sent();
        assert!(!fresh.is_empty(), "window reopens");
        // Cumulatively ack everything outstanding, including data beyond
        // the pre-timeout high-water mark (genuinely new, so sampled).
        let high = fresh.iter().map(|p| p.seq_end()).max().unwrap();
        io.now += SimDuration::from_millis(300);
        s.on_packet(&ack_pkt(high), &mut io);
        assert_eq!(s.backoff(), 0, "new RTT sample collapses the backoff");
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let (mut s, mut io) = established(1_000_000, TcpConfig::default());
        let w1 = io.take_sent();
        for p in &w1 {
            s.on_packet(&ack_pkt(p.seq_end()), &mut io);
        }
        let w2 = io.take_sent();
        assert_eq!(w2.len(), 4);
        let una = s.snd_una;
        // Lose segments 1 and 2 of w2; dupacks from 3 and 4 + one more.
        for _ in 0..3 {
            s.on_packet(&ack_pkt(una), &mut io);
        }
        let first_rtx = io.take_sent();
        assert!(first_rtx.iter().any(|p| p.seq == una));
        // Partial ACK: first hole repaired, second still missing.
        let second_hole = una + 460;
        s.on_packet(&ack_pkt(second_hole), &mut io);
        let out = io.take_sent();
        assert!(
            out.iter().any(|p| p.seq == second_hole && p.is_data()),
            "NewReno retransmits the next hole on a partial ACK"
        );
        assert!(s.in_recovery, "stays in recovery until full ACK");
        // Full ACK ends recovery.
        s.on_packet(&ack_pkt(s.recover), &mut io);
        assert!(!s.in_recovery);
        assert_eq!(s.stats.timeouts, 0);
    }

    /// A SACK block that overlaps or touches scoreboard ranges joins
    /// them; one that meets none goes in at its place.
    #[test]
    fn sack_blocks_merge_into_the_scoreboard_in_place() {
        let cfg = TcpConfig {
            variant: Variant::Sack,
            ..TcpConfig::default()
        };
        let (mut s, _) = established(100_000, cfg);
        for (start, end) in [
            (5_000, 6_000),
            (1_000, 2_000),
            (3_000, 4_000),
            (2_000, 2_500),
            (3_500, 5_500),
            (7_000, 8_000),
            (3_200, 3_300),
        ] {
            s.mark_sacked(start, end);
        }
        assert_eq!(s.sacked, [(1_000, 2_500), (3_000, 6_000), (7_000, 8_000)]);
    }

    #[test]
    fn sack_recovery_repairs_multiple_holes() {
        let cfg = TcpConfig {
            variant: Variant::Sack,
            ..TcpConfig::default()
        };
        let (mut s, mut io) = established(1_000_000, cfg);
        // Two slow-start rounds grow the window from 2 to 8 segments.
        for _ in 0..2 {
            for p in &io.take_sent() {
                s.on_packet(&ack_pkt(p.seq_end()), &mut io);
            }
        }
        assert_eq!(io.take_sent().len(), 8);
        let una = s.snd_una;
        // Segments 0 and 2 lost; receiver SACKs {1} then {1,3} then
        // {1,3,4}...
        let seg = 460u64;
        let b1 = (una + seg, una + 2 * seg);
        let b3 = (una + 3 * seg, una + 4 * seg);
        let b4 = (una + 3 * seg, una + 5 * seg);
        s.on_packet(&sack_pkt(una, &[b1]), &mut io);
        s.on_packet(&sack_pkt(una, &[b3, b1]), &mut io);
        s.on_packet(&sack_pkt(una, &[b4, b1]), &mut io);
        let out = io.take_sent();
        let rtx: Vec<u64> = out.iter().filter(|p| p.is_data()).map(|p| p.seq).collect();
        assert!(rtx.contains(&una), "first hole repaired: {rtx:?}");
        assert!(
            rtx.contains(&(una + 2 * seg)),
            "second hole repaired without timeout: {rtx:?}"
        );
        assert_eq!(s.stats.timeouts, 0);
    }

    #[test]
    fn transfer_completes_with_fin() {
        let (mut s, mut io) = established(1_000, TcpConfig::default());
        // 1000 bytes = 3 segments (460+460+80); IW=2 so two now.
        let w1 = io.take_sent();
        assert_eq!(w1.len(), 2);
        s.on_packet(&ack_pkt(w1[1].seq_end()), &mut io);
        let w2 = io.take_sent();
        // Remaining 80 bytes + FIN.
        assert_eq!(w2.len(), 2);
        assert_eq!(w2[0].payload_len, 80);
        assert!(w2[1].flags.fin);
        let fin_end = w2[1].seq_end();
        s.on_packet(&ack_pkt(fin_end), &mut io);
        assert!(s.is_closed());
        assert!(s.closed_at().is_some());
        assert!(io.timers.is_empty(), "all timers cancelled at close");
    }

    #[test]
    fn zero_byte_object_sends_only_fin() {
        let (mut s, mut io) = established(0, TcpConfig::default());
        let out = io.take_sent();
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.fin);
        s.on_packet(&ack_pkt(out[0].seq_end()), &mut io);
        assert!(s.is_closed());
    }

    #[test]
    fn persistent_connection_extends() {
        let mut s = TcpSender::new(TcpConfig::default(), flow(), 460).persistent();
        let mut io = MockIo::new();
        s.on_syn(&syn(), &mut io);
        io.take_sent();
        s.on_packet(&ack_pkt(1), &mut io);
        let w1 = io.take_sent();
        assert_eq!(w1.len(), 1, "no FIN while persistent");
        s.on_packet(&ack_pkt(w1[0].seq_end()), &mut io);
        assert!(io.take_sent().is_empty());
        assert!(!s.is_closed());
        // Pipelined request arrives: extend and send.
        s.send_more(460, &mut io);
        let w2 = io.take_sent();
        assert_eq!(w2.len(), 1);
        assert_eq!(w2[0].payload_len, 460);
        s.on_packet(&ack_pkt(w2[0].seq_end()), &mut io);
        s.app_close(&mut io);
        let fin = io.take_sent();
        assert!(fin[0].flags.fin);
        s.on_packet(&ack_pkt(fin[0].seq_end()), &mut io);
        assert!(s.is_closed());
    }

    #[test]
    fn syn_ack_retransmitted_on_handshake_timeout() {
        let mut s = TcpSender::new(TcpConfig::default(), flow(), 100);
        let mut io = MockIo::new();
        s.on_syn(&syn(), &mut io);
        io.take_sent();
        assert!(io.fire_timer(TimerKind::Rto).is_some());
        s.on_timer(TimerKind::Rto, &mut io);
        let out = io.take_sent();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].flags, TcpFlags::SYN_ACK);
        // Establishment after a retransmitted SYN-ACK takes no RTT
        // sample (Karn) and keeps the backoff.
        s.on_packet(&ack_pkt(1), &mut io);
        assert!(s.is_established());
        assert!(s.srtt().is_none());
    }

    #[test]
    fn window_cap_limits_flight() {
        let cfg = TcpConfig {
            max_window_segments: 3,
            ..TcpConfig::default()
        };
        let (mut s, mut io) = established(1_000_000, cfg);
        // Uncapped, slow start would send 4 and then 8 segments.
        for _ in 0..2 {
            for p in &io.take_sent() {
                s.on_packet(&ack_pkt(p.seq_end()), &mut io);
            }
            assert_eq!(io.sent.len(), 3, "window capped at 3 segments");
            assert_eq!(s.flight_size(), 3 * 460);
        }
    }

    #[test]
    fn old_and_bogus_acks_ignored() {
        let (mut s, mut io) = established(1_000_000, TcpConfig::default());
        let w1 = io.take_sent();
        s.on_packet(&ack_pkt(w1[1].seq_end()), &mut io);
        io.take_sent();
        let una = s.snd_una;
        // Old ACK (below snd_una).
        s.on_packet(&ack_pkt(1), &mut io);
        assert_eq!(s.snd_una, una);
        // ACK beyond snd_nxt.
        s.on_packet(&ack_pkt(u64::MAX / 2), &mut io);
        assert_eq!(s.snd_una, una);
        assert_eq!(s.dup_acks, 0);
    }
}
