//! Real-time host threads: `taq-tcp`'s [`ServerHost`] and [`ClientHost`]
//! driven by wall clock instead of the simulator.
//!
//! The hosts are the simulator's own, unchanged: connection slots, SYN
//! retry, rejection notices, request pools, pipelining and flow records
//! all live in `taq-tcp`. This file owns only what they run in:
//! [`RtEnv`] (a [`HostEnv`] over a [`ScaledClock`], the channel into the
//! middlebox and a timer heap keyed by the hosts' own tokens) and
//! [`run_host`], the thread loop that fires due timers and delivers
//! packets. What simulation evaluates is what meets real jitter here.

use crate::clock::ScaledClock;
use crate::middlebox::{Crossing, Direction, MbInput};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::Duration;
use taq_sim::{NodeId, Packet, SimDuration, SimTime, TimerId};
use taq_tcp::{ClientHost, HostEnv, ServerHost};

/// A host's pending timers: a min-heap of `(deadline, serial, token)`,
/// the token being what the host's `on_timer` gets back. Cancelling
/// only unmarks the timer; its entry is skipped when it surfaces.
#[derive(Debug, Default)]
struct Timers {
    heap: BinaryHeap<Reverse<(SimTime, u32, u64)>>,
    alive: HashSet<TimerId>,
    next: u32,
}

impl Timers {
    fn set(&mut self, at: SimTime, token: u64) -> TimerId {
        let id = TimerId::synthetic(self.next);
        self.heap.push(Reverse((at, self.next, token)));
        self.next = self.next.wrapping_add(1);
        self.alive.insert(id);
        id
    }

    fn cancel(&mut self, id: TimerId) {
        self.alive.remove(&id);
    }

    /// Deadline of the earliest live timer.
    fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((at, serial, _))) = self.heap.peek() {
            if self.alive.contains(&TimerId::synthetic(serial)) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops the earliest live timer's token if it is due at `now`.
    fn pop_due(&mut self, now: SimTime) -> Option<u64> {
        if self.next_deadline()? > now {
            return None;
        }
        // Invariant: `next_deadline` just returned the top entry's time.
        let Reverse((_, serial, token)) = self.heap.pop().expect("live entry on top");
        self.alive.remove(&TimerId::synthetic(serial));
        Some(token)
    }
}

/// [`HostEnv`] over wall clock + channels: what one host thread owns.
struct RtEnv {
    clock: ScaledClock,
    /// The clock as read when the current callback began, so time
    /// stands still inside a callback as it does in the simulator.
    now: SimTime,
    node: NodeId,
    out: Sender<MbInput>,
    dir: Direction,
    timers: Timers,
}

impl RtEnv {
    fn new(clock: ScaledClock, node: NodeId, out: Sender<MbInput>, dir: Direction) -> Self {
        RtEnv {
            now: clock.now(),
            clock,
            node,
            out,
            dir,
            timers: Timers::default(),
        }
    }
}

impl HostEnv for RtEnv {
    fn now(&self) -> SimTime {
        self.now
    }

    fn node(&self) -> NodeId {
        self.node
    }

    fn send(&mut self, _dst: NodeId, pkt: Packet) {
        // The middlebox routes by `pkt.flow.dst` and stamps id and send
        // time on ingress. Lost channel = testbed shutting down.
        let crossing = Crossing { dir: self.dir, pkt };
        let _ = self.out.send(MbInput::Packet(crossing));
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.timers.set(self.now + delay, token)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.timers.cancel(id);
    }
}

/// Why a host thread woke up.
enum Wake {
    Start,
    Timer(u64),
    Packet(Packet),
}

/// Longest a host sleeps without rereading the clock.
const MAX_WAIT: Duration = Duration::from_millis(20);

/// One host thread: fire due timers, wait for a packet or the next
/// timer, hand each to `host`. Returns when `host` answers `false`
/// (nothing left to do), at `deadline`, or when `inbound` closes.
fn run_host(
    mut env: RtEnv,
    inbound: Receiver<Packet>,
    deadline: SimTime,
    mut host: impl FnMut(Wake, &mut RtEnv) -> bool,
) {
    let mut live = host(Wake::Start, &mut env);
    while live {
        env.now = env.clock.now();
        if env.now >= deadline {
            break;
        }
        while let Some(token) = env.timers.pop_due(env.now) {
            live = host(Wake::Timer(token), &mut env);
        }
        let next = env.timers.next_deadline();
        let wait = next.map_or(MAX_WAIT, |t| env.clock.real_until(t).min(MAX_WAIT));
        match inbound.recv_timeout(wait) {
            Ok(pkt) => {
                env.now = env.clock.now();
                live = host(Wake::Packet(pkt), &mut env);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Runs `server` as node `node` until the inbound channel closes, then
/// hands it back. Its segments cross the middlebox forward (congested).
pub fn run_server(
    clock: ScaledClock,
    mut server: ServerHost,
    node: NodeId,
    inbound: Receiver<Packet>,
    out: Sender<MbInput>,
) -> ServerHost {
    let env = RtEnv::new(clock, node, out, Direction::Forward);
    run_host(env, inbound, SimTime::MAX, |wake, env| {
        match wake {
            Wake::Start => {}
            Wake::Timer(token) => server.on_timer(token, env),
            Wake::Packet(pkt) => server.on_packet(pkt, env),
        }
        true
    });
    server
}

/// Runs `client` as node `node` until every request it holds has
/// completed or `deadline` passes, logs its unfinished transfers
/// ([`ClientHost::flush_incomplete`]) and hands it back.
pub fn run_client(
    clock: ScaledClock,
    mut client: ClientHost,
    node: NodeId,
    inbound: Receiver<Packet>,
    out: Sender<MbInput>,
    deadline: SimTime,
) -> ClientHost {
    let env = RtEnv::new(clock, node, out, Direction::Reverse);
    run_host(env, inbound, deadline, |wake, env| {
        match wake {
            Wake::Start => client.on_start(env),
            Wake::Timer(token) => client.on_timer(token, env),
            Wake::Packet(pkt) => client.on_packet(pkt, env),
        }
        client.outstanding() > 0
    });
    client.flush_incomplete();
    client
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_heap_orders_and_cancels() {
        let mut t = Timers::default();
        let a = t.set(SimTime::from_secs(2), 0);
        let _b = t.set(SimTime::from_secs(1), 10);
        assert_eq!(t.next_deadline(), Some(SimTime::from_secs(1)));
        assert_eq!(t.pop_due(SimTime::from_secs(1)), Some(10));
        assert!(t.pop_due(SimTime::from_secs(1)).is_none(), "2s not due");
        t.cancel(a);
        assert_eq!(t.next_deadline(), None);
        assert!(t.pop_due(SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn cancelled_timer_skipped_in_deadline_scan() {
        let mut t = Timers::default();
        let a = t.set(SimTime::from_secs(1), 0);
        let _b = t.set(SimTime::from_secs(3), 0);
        t.cancel(a);
        assert_eq!(t.next_deadline(), Some(SimTime::from_secs(3)));
    }
}
