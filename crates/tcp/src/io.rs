//! The boundary between TCP state machines and whatever drives them.
//!
//! [`TcpIo`] is everything a sender or receiver needs from its
//! environment: the clock, a way to emit packets, and timers. Host
//! agents adapt their own environment ([`crate::HostEnv`]: the
//! simulator's `Ctx`, or the real-time testbed's wall clock and
//! channels) to this trait; unit tests use [`MockIo`] to drive the
//! state machines packet-by-packet without a simulator. Keeping the
//! state machines I/O-free is what lets the same TCP code run in all
//! three places.

use taq_sim::{Packet, SimDuration, SimTime, TimerId};

/// Timer kinds a TCP endpoint can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Retransmission timeout (sender).
    Rto,
    /// Delayed ACK flush (receiver).
    DelayedAck,
    /// SYN retry (connection initiator).
    SynRetry,
}

impl TimerKind {
    /// Compact encoding used by hosts to demultiplex timer tokens.
    pub fn code(self) -> u64 {
        match self {
            TimerKind::Rto => 0,
            TimerKind::DelayedAck => 1,
            TimerKind::SynRetry => 2,
        }
    }

    /// Inverse of [`TimerKind::code`].
    pub fn from_code(code: u64) -> Option<TimerKind> {
        match code {
            0 => Some(TimerKind::Rto),
            1 => Some(TimerKind::DelayedAck),
            2 => Some(TimerKind::SynRetry),
            _ => None,
        }
    }
}

/// Environment services for a TCP state machine.
pub trait TcpIo {
    /// Current time.
    fn now(&self) -> SimTime;

    /// Transmits a packet toward `pkt.flow.dst`.
    fn emit(&mut self, pkt: Packet);

    /// Arms a timer of the given kind; at most one timer per kind is live
    /// per connection, which the state machines maintain by cancelling
    /// before re-arming.
    fn set_timer(&mut self, delay: SimDuration, kind: TimerKind) -> TimerId;

    /// Cancels a previously armed timer.
    fn cancel_timer(&mut self, id: TimerId);
}

/// A scripted [`TcpIo`] for unit tests: collects emitted packets and
/// records timer requests; the test advances time manually.
#[derive(Debug)]
pub struct MockIo {
    /// Current mock time; tests set this directly.
    pub now: SimTime,
    /// Every packet emitted, in order.
    pub sent: Vec<Packet>,
    /// Live timers as `(id, deadline, kind)`.
    pub timers: Vec<(TimerId, SimTime, TimerKind)>,
    next_timer: u32,
}

impl MockIo {
    /// Creates a mock starting at t = 0.
    pub fn new() -> Self {
        MockIo {
            now: SimTime::ZERO,
            sent: Vec::new(),
            timers: Vec::new(),
            next_timer: 0,
        }
    }

    /// Drains and returns everything sent since the last call.
    pub fn take_sent(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.sent)
    }

    /// Deadline of the earliest live timer of `kind`, if armed.
    pub fn timer_deadline(&self, kind: TimerKind) -> Option<SimTime> {
        self.timers
            .iter()
            .filter(|(_, _, k)| *k == kind)
            .map(|(_, t, _)| *t)
            .min()
    }

    /// Fires (removes and returns) the earliest timer of `kind`,
    /// advancing the clock to its deadline.
    pub fn fire_timer(&mut self, kind: TimerKind) -> Option<TimerId> {
        let pos = self
            .timers
            .iter()
            .enumerate()
            .filter(|(_, (_, _, k))| *k == kind)
            .min_by_key(|(_, (_, t, _))| *t)
            .map(|(i, _)| i)?;
        let (id, deadline, _) = self.timers.remove(pos);
        self.now = self.now.max(deadline);
        Some(id)
    }
}

impl Default for MockIo {
    fn default() -> Self {
        MockIo::new()
    }
}

impl TcpIo for MockIo {
    fn now(&self) -> SimTime {
        self.now
    }

    fn emit(&mut self, mut pkt: Packet) {
        pkt.sent_at = self.now;
        self.sent.push(pkt);
    }

    fn set_timer(&mut self, delay: SimDuration, kind: TimerKind) -> TimerId {
        // Fabricate unique ids; MockIo is never mixed with engine timers.
        let id = TimerId::synthetic(self.next_timer);
        self.next_timer += 1;
        self.timers.push((id, self.now + delay, kind));
        id
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.timers.retain(|(t, _, _)| *t != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq_sim::{FlowKey, NodeId, PacketBuilder};

    #[test]
    fn timer_kind_codes_roundtrip() {
        for k in [TimerKind::Rto, TimerKind::DelayedAck, TimerKind::SynRetry] {
            assert_eq!(TimerKind::from_code(k.code()), Some(k));
        }
        assert_eq!(TimerKind::from_code(99), None);
    }

    #[test]
    fn mock_io_tracks_timers() {
        let mut io = MockIo::new();
        let a = io.set_timer(SimDuration::from_secs(1), TimerKind::Rto);
        let _b = io.set_timer(SimDuration::from_secs(2), TimerKind::Rto);
        assert_eq!(
            io.timer_deadline(TimerKind::Rto),
            Some(SimTime::from_secs(1))
        );
        io.cancel_timer(a);
        assert_eq!(
            io.timer_deadline(TimerKind::Rto),
            Some(SimTime::from_secs(2))
        );
        let fired = io.fire_timer(TimerKind::Rto);
        assert!(fired.is_some());
        assert_eq!(io.now, SimTime::from_secs(2));
        assert!(io.fire_timer(TimerKind::Rto).is_none());
    }

    #[test]
    fn mock_io_stamps_sent_packets() {
        let mut io = MockIo::new();
        io.now = SimTime::from_secs(5);
        io.emit(
            PacketBuilder::new(FlowKey {
                src: NodeId(0),
                src_port: 1,
                dst: NodeId(1),
                dst_port: 2,
            })
            .build(),
        );
        assert_eq!(io.sent[0].sent_at, SimTime::from_secs(5));
        assert_eq!(io.take_sent().len(), 1);
        assert!(io.sent.is_empty());
    }
}
