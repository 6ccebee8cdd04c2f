//! The TCP receiver state machine.
//!
//! Generates cumulative acknowledgements, duplicate ACKs for out-of-order
//! arrivals, and SACK blocks (most recently received range first, as real
//! receivers do). Delayed ACKs are supported but off by default — the
//! paper disables them because they obscure congestion dynamics.

use crate::config::TcpConfig;
use crate::inline_vec::InlineVec;
use crate::io::{TcpIo, TimerKind};
use taq_sim::{FlowKey, Packet, PacketBuilder, SackBlocks, SimDuration, SimTime, TimerId};

/// Delayed-ACK flush timer, when `delayed_ack` is set (RFC 1122
/// §4.2.3.2: "the delay MUST be less than 0.5 seconds").
pub(crate) const DELAYED_ACK_TIMEOUT: SimDuration = SimDuration::from_millis(100);

/// Counters exposed for experiments and tests.
#[derive(Debug, Default, Clone)]
pub struct ReceiverStats {
    /// ACK packets sent (including duplicates).
    pub acks_sent: u64,
    /// Duplicate ACKs sent.
    pub dup_acks_sent: u64,
    /// Data segments received (including duplicates).
    pub segments_received: u64,
    /// Duplicate/overlapping segments received.
    pub duplicate_segments: u64,
    /// Segments dropped because their sequence range wraps past 2^64:
    /// no sender emits one, so only a forged header carries it.
    pub malformed_segments: u64,
}

/// A sequence field's "none": no comparison the receiver makes against
/// a FIN sequence (`rcv_nxt > fin`) holds for it, so "no FIN yet" takes
/// no flag of its own.
const UNSET: u64 = u64::MAX;

/// The receiving endpoint of one TCP connection.
#[derive(Debug)]
pub struct TcpReceiver {
    /// ACK direction: this receiver -> the sender.
    ack_flow: FlowKey,
    established: bool,
    /// Set when `complete_at` is.
    complete: bool,
    /// Whether to include SACK blocks in ACKs.
    sack_enabled: bool,
    /// `TcpConfig::delayed_ack`, the one setting a receiver reads.
    delayed_ack: bool,
    /// Next expected sequence from the sender (0 until the SYN-ACK).
    rcv_nxt: u64,
    /// Sequence of the sender's FIN once seen, `UNSET` before.
    fin_seq: u64,
    /// When the FIN arrived in order; meaningful once `complete`.
    complete_at: SimTime,
    /// Out-of-order ranges held above `rcv_nxt`, sorted and disjoint:
    /// one or two while a window's losses are repaired, so inline.
    ooo: InlineVec<(u64, u64), 2>,
    /// Most recently received out-of-order range, reported first in
    /// SACK; the empty range `(0, 0)` when there is none.
    latest_block: (u64, u64),
    /// The delayed-ACK timer, `Some` exactly while an ACK is held back.
    delack_timer: Option<TimerId>,
    /// Public statistics.
    pub stats: ReceiverStats,
}

// A bulk client holds its receiver in its connection slot for the
// whole transfer.
const _: () = assert!(std::mem::size_of::<TcpReceiver>() <= 152);

impl TcpReceiver {
    /// Creates a receiver whose ACKs travel on `ack_flow` (oriented
    /// receiver→sender). `sack_enabled` controls SACK block generation.
    pub fn new(cfg: TcpConfig, ack_flow: FlowKey, sack_enabled: bool) -> Self {
        cfg.validate();
        TcpReceiver::with_delayed_ack(cfg.delayed_ack, ack_flow, sack_enabled)
    }

    /// What [`TcpReceiver::new`] builds from a validated configuration,
    /// for a host that keeps only the setting a receiver reads.
    pub(crate) fn with_delayed_ack(
        delayed_ack: bool,
        ack_flow: FlowKey,
        sack_enabled: bool,
    ) -> Self {
        TcpReceiver {
            ack_flow,
            established: false,
            complete: false,
            sack_enabled,
            delayed_ack,
            rcv_nxt: 0,
            fin_seq: UNSET,
            complete_at: SimTime::ZERO,
            ooo: InlineVec::default(),
            latest_block: (0, 0),
            delack_timer: None,
            stats: ReceiverStats::default(),
        }
    }

    /// `true` once the SYN-ACK has been processed.
    pub fn is_established(&self) -> bool {
        self.established
    }

    /// `true` once all data and the FIN have been received in order.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Time the transfer completed (FIN received in order).
    pub fn complete_at(&self) -> Option<SimTime> {
        self.complete.then_some(self.complete_at)
    }

    /// In-order application bytes delivered so far.
    pub fn delivered_bytes(&self) -> u64 {
        if self.rcv_nxt == 0 {
            return 0;
        }
        // rcv_nxt counts the SYN (1) + data + possibly the FIN (1).
        let mut delivered = self.rcv_nxt - 1;
        if self.rcv_nxt > self.fin_seq {
            delivered -= 1;
        }
        delivered
    }

    /// Processes a packet from the sender (SYN-ACK, data, or FIN).
    pub fn on_packet(&mut self, pkt: &Packet, io: &mut dyn TcpIo) {
        if pkt.flags.syn && pkt.flags.ack {
            // SYN-ACK consumes one sequence number.
            if !self.established {
                self.established = true;
                self.rcv_nxt = pkt.seq_end();
            }
            self.send_ack(io);
            return;
        }
        if !pkt.is_data() && !pkt.flags.fin {
            return; // Pure ACKs from the sender carry nothing for us.
        }
        let ctl = u64::from(pkt.flags.syn) + u64::from(pkt.flags.fin);
        let Some(end) = pkt.seq.checked_add(u64::from(pkt.payload_len) + ctl) else {
            self.stats.malformed_segments += 1;
            return;
        };
        self.stats.segments_received += 1;
        if pkt.flags.fin {
            self.fin_seq = pkt.seq + u64::from(pkt.payload_len);
        }
        let start = pkt.seq;
        if end <= self.rcv_nxt {
            // Entirely old: immediate duplicate ACK so the sender can
            // detect the spurious retransmission.
            self.stats.duplicate_segments += 1;
            self.send_ack_now(io);
            return;
        }
        if start <= self.rcv_nxt {
            // In-order (possibly overlapping) delivery.
            self.rcv_nxt = end;
            self.absorb_ooo();
            self.maybe_complete(io);
            // Out-of-order data queued means the sender is recovering:
            // ack immediately. Otherwise honour delayed-ACK policy.
            if !self.ooo.is_empty() || !self.delayed_ack || self.is_complete() {
                self.send_ack_now(io);
            } else {
                self.delayed_ack(io);
            }
        } else {
            // Out of order: hole below. Record and duplicate-ACK.
            self.insert_ooo(start, end);
            self.latest_block = self.containing_block(start);
            self.send_ack_now(io);
        }
    }

    /// Handles the delayed-ACK timer.
    pub fn on_timer(&mut self, kind: TimerKind, io: &mut dyn TcpIo) {
        if kind == TimerKind::DelayedAck && self.delack_timer.is_some() {
            self.delack_timer = None;
            self.send_ack_now(io);
        }
    }

    // ----- internals -------------------------------------------------

    fn maybe_complete(&mut self, io: &mut dyn TcpIo) {
        if !self.complete && self.rcv_nxt > self.fin_seq {
            self.complete = true;
            self.complete_at = io.now();
        }
    }

    fn absorb_ooo(&mut self) {
        while let Some(&(s, e)) = self.ooo.first() {
            if s > self.rcv_nxt {
                break;
            }
            self.rcv_nxt = self.rcv_nxt.max(e);
            self.ooo.pop_front();
        }
        if self.ooo.is_empty() {
            self.latest_block = (0, 0);
        }
    }

    /// Adds `[start, end)` to the out-of-order ranges in place, merging
    /// every range it overlaps or touches.
    fn insert_ooo(&mut self, start: u64, end: u64) {
        // The ranges are sorted and disjoint, so those that meet the new
        // one are a run: from the first ending at or after `start` to
        // the last starting at or before `end`.
        let lo = self.ooo.partition_point(|&(_, e)| e < start);
        let hi = self.ooo.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ooo.insert(lo, (start, end));
            return;
        }
        let (s, e) = self.ooo[lo];
        if s <= start && end <= e {
            self.stats.duplicate_segments += 1;
            return;
        }
        self.ooo[lo] = (s.min(start), end.max(self.ooo[hi - 1].1));
        self.ooo.remove_range(lo + 1..hi);
    }

    /// The merged out-of-order block containing `seq`.
    fn containing_block(&self, seq: u64) -> (u64, u64) {
        *self
            .ooo
            .iter()
            .find(|&&(s, e)| s <= seq && seq < e)
            // Invariant: called right after `insert_ooo(seq, end)` with
            // `seq < end` (`on_packet` drops a range that wraps), and
            // the ranges then cover `[seq, end)`.
            .expect("just inserted")
    }

    fn sack_blocks(&self) -> SackBlocks {
        if !self.sack_enabled || self.ooo.is_empty() {
            return SackBlocks::EMPTY;
        }
        // The latest range first, then the highest others: three at most.
        let (mut blocks, mut n) = ([(0, 0); 3], 0);
        if self.latest_block.0 < self.latest_block.1 {
            blocks[0] = self.latest_block;
            n = 1;
        }
        for &b in self.ooo.iter().rev() {
            if n == blocks.len() {
                break;
            }
            if !blocks[..n].contains(&b) {
                blocks[n] = b;
                n += 1;
            }
        }
        SackBlocks::from_slice(&blocks[..n])
    }

    fn delayed_ack(&mut self, io: &mut dyn TcpIo) {
        if self.delack_timer.is_some() {
            // Second in-order segment: ack now (RFC 1122's "at least
            // every second segment").
            self.send_ack_now(io);
        } else {
            self.delack_timer = Some(io.set_timer(DELAYED_ACK_TIMEOUT, TimerKind::DelayedAck));
        }
    }

    fn send_ack_now(&mut self, io: &mut dyn TcpIo) {
        if let Some(t) = self.delack_timer.take() {
            io.cancel_timer(t);
        }
        self.send_ack(io);
    }

    fn send_ack(&mut self, io: &mut dyn TcpIo) {
        self.stats.acks_sent += 1;
        if !self.ooo.is_empty() {
            self.stats.dup_acks_sent += 1;
        }
        let pkt = PacketBuilder::new(self.ack_flow)
            .seq(1) // The client's SYN consumed sequence 0.
            .ack(self.rcv_nxt)
            .sack(self.sack_blocks())
            .build();
        io.emit(pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MockIo;
    use taq_sim::{NodeId, SimDuration, SimRng, TcpFlags};

    fn ack_flow() -> FlowKey {
        FlowKey {
            src: NodeId(2),
            src_port: 5000,
            dst: NodeId(1),
            dst_port: 80,
        }
    }

    fn data_flow() -> FlowKey {
        ack_flow().reversed()
    }

    fn recv(sack: bool) -> (TcpReceiver, MockIo) {
        let mut r = TcpReceiver::new(TcpConfig::default(), ack_flow(), sack);
        let mut io = MockIo::new();
        let synack = PacketBuilder::new(data_flow())
            .seq(0)
            .ack(1)
            .flags(TcpFlags::SYN_ACK)
            .build();
        r.on_packet(&synack, &mut io);
        assert!(r.is_established());
        let acks = io.take_sent();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, 1);
        (r, io)
    }

    fn data(seq: u64, len: u32) -> Packet {
        PacketBuilder::new(data_flow())
            .seq(seq)
            .ack(1)
            .payload(len)
            .build()
    }

    fn fin(seq: u64) -> Packet {
        PacketBuilder::new(data_flow())
            .seq(seq)
            .ack(1)
            .flags(TcpFlags::FIN_ACK)
            .build()
    }

    #[test]
    fn in_order_data_advances_cumulative_ack() {
        let (mut r, mut io) = recv(false);
        r.on_packet(&data(1, 460), &mut io);
        assert_eq!(io.take_sent()[0].ack, 461);
        r.on_packet(&data(461, 460), &mut io);
        assert_eq!(io.take_sent()[0].ack, 921);
        assert_eq!(r.delivered_bytes(), 920);
    }

    #[test]
    fn out_of_order_generates_dup_acks() {
        let (mut r, mut io) = recv(false);
        r.on_packet(&data(1, 460), &mut io);
        io.take_sent();
        // Segment 461 lost; 921 and 1381 arrive.
        r.on_packet(&data(921, 460), &mut io);
        r.on_packet(&data(1381, 460), &mut io);
        let acks = io.take_sent();
        assert_eq!(acks.len(), 2);
        assert!(acks.iter().all(|a| a.ack == 461), "dup acks at the hole");
        assert_eq!(r.stats.dup_acks_sent, 2);
        // The hole fills: cumulative ACK jumps past everything buffered.
        r.on_packet(&data(461, 460), &mut io);
        assert_eq!(io.take_sent()[0].ack, 1841);
        assert_eq!(r.delivered_bytes(), 4 * 460);
    }

    #[test]
    fn sack_blocks_report_most_recent_first() {
        let (mut r, mut io) = recv(true);
        r.on_packet(&data(1, 460), &mut io);
        io.take_sent();
        // Two separate holes.
        r.on_packet(&data(921, 460), &mut io);
        let a1 = io.take_sent();
        assert_eq!(a1[0].sack.as_slice(), &[(921, 1381)]);
        r.on_packet(&data(1841, 460), &mut io);
        let a2 = io.take_sent();
        assert_eq!(
            a2[0].sack.as_slice()[0],
            (1841, 2301),
            "most recent block first"
        );
        assert!(a2[0].sack.as_slice().contains(&(921, 1381)));
    }

    #[test]
    fn duplicate_segment_reacked_immediately() {
        let (mut r, mut io) = recv(false);
        r.on_packet(&data(1, 460), &mut io);
        io.take_sent();
        r.on_packet(&data(1, 460), &mut io);
        let acks = io.take_sent();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, 461);
        assert_eq!(r.stats.duplicate_segments, 1);
    }

    #[test]
    fn fin_completes_transfer() {
        let (mut r, mut io) = recv(false);
        r.on_packet(&data(1, 100), &mut io);
        io.take_sent();
        assert!(!r.is_complete());
        r.on_packet(&fin(101), &mut io);
        assert!(r.is_complete());
        assert_eq!(r.delivered_bytes(), 100);
        let acks = io.take_sent();
        assert_eq!(acks[0].ack, 102, "FIN consumed one sequence number");
    }

    #[test]
    fn fin_before_hole_does_not_complete() {
        let (mut r, mut io) = recv(false);
        r.on_packet(&data(1, 100), &mut io);
        // Data 101..201 lost, FIN at 201 arrives out of order.
        r.on_packet(&fin(201), &mut io);
        assert!(!r.is_complete(), "hole before FIN");
        r.on_packet(&data(101, 100), &mut io);
        assert!(r.is_complete());
    }

    #[test]
    fn delayed_ack_coalesces_and_times_out() {
        let cfg = TcpConfig {
            delayed_ack: true,
            ..TcpConfig::default()
        };
        let mut r = TcpReceiver::new(cfg, ack_flow(), false);
        let mut io = MockIo::new();
        let synack = PacketBuilder::new(data_flow())
            .seq(0)
            .ack(1)
            .flags(TcpFlags::SYN_ACK)
            .build();
        r.on_packet(&synack, &mut io);
        io.take_sent();
        // First in-order segment: ACK deferred.
        r.on_packet(&data(1, 460), &mut io);
        assert!(io.take_sent().is_empty());
        // Second segment: ACK released.
        r.on_packet(&data(461, 460), &mut io);
        assert_eq!(io.take_sent()[0].ack, 921);
        // A lone segment is eventually acked by the timer.
        r.on_packet(&data(921, 460), &mut io);
        assert!(io.take_sent().is_empty());
        assert!(io.fire_timer(TimerKind::DelayedAck).is_some());
        r.on_timer(TimerKind::DelayedAck, &mut io);
        assert_eq!(io.take_sent()[0].ack, 1381);
    }

    #[test]
    fn retransmitted_syn_ack_is_reacked() {
        let (mut r, mut io) = recv(false);
        let synack = PacketBuilder::new(data_flow())
            .seq(0)
            .ack(1)
            .flags(TcpFlags::SYN_ACK)
            .build();
        r.on_packet(&synack, &mut io);
        let acks = io.take_sent();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, 1, "rcv_nxt not double-advanced");
    }

    #[test]
    fn overlapping_ooo_ranges_merge() {
        let (mut r, mut io) = recv(true);
        r.on_packet(&data(461, 460), &mut io);
        r.on_packet(&data(921, 460), &mut io);
        let acks = io.take_sent();
        let last = acks.last().unwrap();
        assert_eq!(last.sack.as_slice()[0], (461, 1381), "adjacent merge");
        // Filling the hole delivers everything.
        r.on_packet(&data(1, 460), &mut io);
        assert_eq!(io.take_sent()[0].ack, 1381);
    }

    #[test]
    fn ooo_ranges_are_the_runs_of_received_bytes() {
        // Random segments above a hole, against a byte map: after each
        // insert the ranges must be exactly the maximal runs of received
        // bytes, and a segment counts as a duplicate exactly when it
        // brought no new byte.
        let mut rng = SimRng::new(0x00C5);
        for _ in 0..300 {
            let (mut r, _io) = recv(false);
            let mut got = [false; 128];
            for _ in 0..24 {
                let start = 1 + rng.next_below(100) as usize;
                let end = start + 1 + rng.next_below(24) as usize;
                let dups = r.stats.duplicate_segments;
                let old = got[start..end].iter().all(|&b| b);
                r.insert_ooo(start as u64, end as u64);
                got[start..end].fill(true);
                assert_eq!(r.stats.duplicate_segments - dups, u64::from(old));
                let mut runs = Vec::new();
                for (i, &b) in got.iter().enumerate() {
                    match runs.last_mut() {
                        Some((_, e)) if b && *e == i as u64 => *e += 1,
                        _ if b => runs.push((i as u64, i as u64 + 1)),
                        _ => {}
                    }
                }
                assert_eq!(*r.ooo, runs[..]);
            }
        }
    }

    /// A segment whose range wraps past 2^64 is no sender's: it is
    /// counted and dropped, sends nothing and moves nothing, and the
    /// transfer carries on.
    #[test]
    fn a_wrapping_segment_is_counted_and_dropped() {
        let (mut r, mut io) = recv(true);
        r.on_packet(&data(u64::MAX - 10, 460), &mut io);
        r.on_packet(&fin(u64::MAX), &mut io);
        assert_eq!(r.stats.malformed_segments, 2);
        assert_eq!(r.stats.segments_received, 0);
        assert!(io.take_sent().is_empty());
        r.on_packet(&data(1, 460), &mut io);
        assert_eq!(io.take_sent()[0].ack, 461);
        assert!(r.ooo.is_empty() && !r.is_complete());
    }

    #[test]
    fn delayed_ack_interrupted_by_ooo() {
        let cfg = TcpConfig {
            delayed_ack: true,
            ..TcpConfig::default()
        };
        let mut r = TcpReceiver::new(cfg, ack_flow(), false);
        let mut io = MockIo::new();
        let synack = PacketBuilder::new(data_flow())
            .seq(0)
            .ack(1)
            .flags(TcpFlags::SYN_ACK)
            .build();
        r.on_packet(&synack, &mut io);
        io.take_sent();
        r.on_packet(&data(1, 460), &mut io);
        assert!(io.take_sent().is_empty(), "first segment deferred");
        // Out-of-order arrival must force an immediate dup ACK.
        r.on_packet(&data(921, 460), &mut io);
        let acks = io.take_sent();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, 461);
        io.now += SimDuration::from_secs(1);
    }
}
