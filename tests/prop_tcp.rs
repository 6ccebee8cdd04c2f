//! Randomized-property tests: the TCP state machines deliver every byte
//! exactly once, in order, under arbitrary finite loss patterns.
//!
//! A deterministic harness shuttles packets between a `TcpSender` and a
//! `TcpReceiver` through a lossy "wire" whose drop decisions come from a
//! [`SimRng`]-generated boolean schedule (exhausted schedules stop
//! dropping, so every run terminates). Timers fire in deadline order
//! whenever the wire goes idle — exactly the situations where real TCP
//! relies on its RTO. Cases come from fixed seeds, so a failure
//! reproduces exactly from its printed seed.

use taq_sim::{FlowKey, NodeId, PacketBuilder, SimDuration, SimRng, TcpFlags};
use taq_tcp::{MockIo, TcpConfig, TcpReceiver, TcpSender, TimerKind, Variant};

const CASES: u64 = 64;

fn flow() -> FlowKey {
    FlowKey {
        src: NodeId(1),
        src_port: 80,
        dst: NodeId(2),
        dst_port: 5_000,
    }
}

/// Runs a full transfer of `bytes` through a wire that drops data-path
/// packets per `drops` (one decision per forwarded packet, both
/// directions interleaved). Returns (delivered bytes, sender timeouts).
fn transfer(bytes: u64, variant: Variant, drops: Vec<bool>) -> (u64, u64) {
    let cfg = TcpConfig {
        variant,
        // Short timers keep iteration counts small; correctness must
        // not depend on timer magnitudes.
        min_rto: SimDuration::from_millis(100),
        initial_rto: SimDuration::from_millis(200),
        ..TcpConfig::default()
    };
    let mut sender = TcpSender::new(cfg.clone(), flow(), bytes);
    let mut receiver = TcpReceiver::new(cfg, flow().reversed(), variant == Variant::Sack);
    let mut io_s = MockIo::new();
    let mut io_r = MockIo::new();
    let mut drops = drops.into_iter();
    let mut drop_next = move || drops.next().unwrap_or(false);

    // Handshake: the client SYN reaches the sender out of band.
    let syn = PacketBuilder::new(flow().reversed())
        .seq(0)
        .flags(TcpFlags::SYN)
        .meta(bytes)
        .build();
    sender.on_syn(&syn, &mut io_s);

    for _round in 0..100_000 {
        if sender.is_closed() && receiver.is_complete() {
            break;
        }
        let mut moved = false;
        // Sender → receiver.
        for pkt in io_s.take_sent() {
            moved = true;
            if !drop_next() {
                io_r.now = io_r.now.max(io_s.now) + SimDuration::from_millis(10);
                receiver.on_packet(&pkt, &mut io_r);
            }
        }
        // Receiver → sender.
        for pkt in io_r.take_sent() {
            moved = true;
            if !drop_next() {
                io_s.now = io_s.now.max(io_r.now) + SimDuration::from_millis(10);
                sender.on_packet(&pkt, &mut io_s);
            }
        }
        if moved {
            continue;
        }
        // Wire idle: fire the earliest timer across both endpoints.
        let s_deadline = io_s.timer_deadline(TimerKind::Rto);
        let r_deadline = io_r.timer_deadline(TimerKind::DelayedAck);
        match (s_deadline, r_deadline) {
            (Some(s), Some(r)) if r < s => {
                io_r.fire_timer(TimerKind::DelayedAck);
                receiver.on_timer(TimerKind::DelayedAck, &mut io_r);
            }
            (None, Some(_)) => {
                io_r.fire_timer(TimerKind::DelayedAck);
                receiver.on_timer(TimerKind::DelayedAck, &mut io_r);
            }
            (Some(_), _) => {
                io_s.fire_timer(TimerKind::Rto);
                sender.on_timer(TimerKind::Rto, &mut io_s);
            }
            (None, None) => break, // Deadlock would fail the assertions.
        }
    }
    (receiver.delivered_bytes(), sender.stats.timeouts)
}

const VARIANTS: [Variant; 2] = [Variant::NewReno, Variant::Sack];

/// Every transfer completes with exactly the requested bytes, for
/// any variant and any finite drop schedule.
#[test]
fn lossy_transfer_delivers_exactly_once() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let bytes = rng.range_u64(0, 29_999);
        let variant = VARIANTS[rng.next_below(2) as usize];
        let n = rng.next_below(400) as usize;
        let drops: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let (delivered, _timeouts) = transfer(bytes, variant, drops);
        assert_eq!(delivered, bytes, "seed {seed}");
    }
}

/// A lossless wire never times out, regardless of variant or size.
#[test]
fn clean_transfer_has_no_timeouts() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(100 + seed);
        let bytes = rng.range_u64(1, 49_999);
        let variant = VARIANTS[rng.next_below(2) as usize];
        let (delivered, timeouts) = transfer(bytes, variant, vec![]);
        assert_eq!(delivered, bytes, "seed {seed}");
        assert_eq!(timeouts, 0, "seed {seed}");
    }
}

/// Bursty loss (drop the first k packets outright) still completes:
/// the handshake and first window survive arbitrary consecutive
/// loss through RTO retries.
#[test]
fn leading_burst_loss_recovers() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(200 + seed);
        let bytes = rng.range_u64(1, 9_999);
        let burst = rng.range_u64(1, 11) as usize;
        let (delivered, timeouts) = transfer(bytes, Variant::NewReno, vec![true; burst]);
        assert_eq!(delivered, bytes, "seed {seed}");
        assert!(
            timeouts > 0,
            "a leading burst forces at least one RTO (seed {seed})"
        );
    }
}
