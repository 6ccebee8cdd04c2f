//! A reference TAQ written from the paper, and two differential tests
//! that hold `taq`'s tracker and queues to it decision for decision:
//! random header streams through `TaqPair`'s `Qdisc` halves, and
//! class-directed churn straight into `TaqQueues`.
//!
//! It is slow on purpose: flows in a `HashMap` by 4-tuple, each class a
//! `VecDeque` of flows in round-robin order, every pick a linear
//! `max_by_key` over an explicit tuple. It follows Fig. 7 (§4.1) and
//! §4.2; where the paper leaves a choice open, the choice is a named
//! function under its DESIGN.md §8 number.

use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use taq::{FlowState, FlowTable, QueueClass, QueuedPkt, TaqConfig, TaqPair, TaqQueues};
use taq_sim::{Bandwidth, FlowId, FlowKey, NodeId, Packet, PacketArena, PacketBuilder, PacketId};
use taq_sim::{Qdisc, SimDuration, SimRng, SimTime, TcpFlags};
use taq_telemetry::{shared_sink, Event, RingBufferSink, Telemetry};
use FlowState::*;
use QueueClass::*;

/// Data packets a slow-starting flow counts as new for.
const NEW_HORIZON: u64 = 10;
/// Fig. 7: silent epochs in a row that make a timeout silence extended.
const EXTENDED: u32 = 2;
/// Silent epochs after which an unbuffered flow is forgotten.
const GC_EPOCHS: u32 = 60;
const MAX_EPOCH: SimDuration = SimDuration::from_secs(2);
/// A window above this repairs a loss by fast retransmit.
const FAST_RETX_WINDOW: u32 = 4;
/// The Recovery token bucket holds three full-size packets.
const TOKEN_CAP_BITS: f64 = 3.0 * 1500.0 * 8.0;
const LEVEL2: [QueueClass; 3] = [BelowFairShare, NewFlow, OverPenalized];

// ---- Choices the paper leaves open, numbered as in DESIGN.md §8 ------

/// §8.9: a full tie between flows goes to the smaller flow id.
fn tie(id: u32) -> Reverse<u32> {
    Reverse(id)
}

/// §8.10: a flow in Recovery stays there until its backlog drains.
fn sticky(current: QueueClass) -> bool {
    current == Recovery
}

/// §8.11: C/N is recomputed at most once per quarter `min_epoch`.
fn fair_share_ttl(cfg: &TaqConfig) -> SimDuration {
    cfg.min_epoch / 4
}

/// §8.12: above share is buffering what one fair share carries per epoch.
fn share_pkts(fair_bps: f64, epoch: SimDuration, wire: u32) -> usize {
    ((fair_bps * epoch.as_secs_f64() / (8.0 * f64::from(wire.max(1)))) as usize).max(1)
}

/// §8.13: epochs roll and idle flows go once per `min_epoch` of arrivals.
fn tick_period(cfg: &TaqConfig) -> SimDuration {
    cfg.min_epoch
}

/// §8.14: Recovery's silence is the one reported when the backlog began,
/// raised by each recovery packet since.
fn silence_key(held: u32, class: QueueClass, reported: u32) -> u32 {
    held.max(if class == Recovery { reported } else { 0 })
}

/// §8.15: a drop from the Recovery class is a lost retransmission.
fn dropped_retransmission(from_recovery: bool) -> bool {
    from_recovery
}

// ---- Fig. 7: the per-flow tracker (§4.1) -----------------------------

/// Three of the four per-epoch counters (the fourth, the highest
/// sequence, is `Flow::high`) and the bytes forwarded.
#[derive(Clone, Copy, Default)]
struct Counters {
    new: u32,
    retx: u32,
    drops: u32,
    bytes: u64,
}

struct Flow {
    id: u32,
    state: FlowState,
    epoch: SimDuration,
    epoch_start: SimTime,
    cur: Counters,
    prev: Counters,
    high: u64,
    silent: u32,
    /// Drops here not yet repaired.
    owed: u32,
    last_pkt: SimTime,
    last_normal: SimTime,
    data_pkts: u64,
    /// Smoothed forwarding rate, bytes per second.
    rate: f64,
    rtt_probe: Option<(u64, SimTime)>,
}

/// Fig. 7 at an epoch boundary, from the state and whether the closing
/// epoch carried anything (`f.silent` already counts it).
fn fig7(f: &Flow) -> FlowState {
    let c = f.cur;
    let repaired = f.owed == 0 && c.drops == 0;
    let grew = f64::from(c.new) >= 1.5 * f64::from(f.prev.new.max(1));
    match (f.state, c.new + c.retx > 0) {
        (ExplicitLossRecovery | TimeoutRecovery, false) => TimeoutSilence,
        (TimeoutSilence | ExtendedSilence, false) if f.silent >= EXTENDED => ExtendedSilence,
        (TimeoutSilence | ExtendedSilence, false) => TimeoutSilence,
        (_, false) if f.owed > 0 => TimeoutSilence,
        (_, false) => DummySilence,
        (ExplicitLossRecovery, true) if repaired => Normal,
        (TimeoutSilence | ExtendedSilence, true) => TimeoutRecovery,
        (TimeoutRecovery, true) if repaired => SlowStart,
        (s @ (ExplicitLossRecovery | TimeoutRecovery), true) => s,
        (_, true) if c.drops > 0 || c.retx > 0 => ExplicitLossRecovery,
        (_, true) if grew => SlowStart,
        (_, true) => Normal,
    }
}

impl Flow {
    fn new(id: u32, now: SimTime, epoch: SimDuration) -> Self {
        Flow {
            id,
            state: SlowStart,
            epoch,
            epoch_start: now,
            cur: Counters::default(),
            prev: Counters::default(),
            high: 0,
            silent: 0,
            owed: 0,
            last_pkt: now,
            last_normal: now,
            data_pkts: 0,
            rate: 0.0,
            rtt_probe: None,
        }
    }

    fn roll(&mut self, now: SimTime) {
        while now >= self.epoch_start + self.epoch {
            let sent = self.cur.new + self.cur.retx > 0;
            self.silent = if sent { 0 } else { self.silent + 1 };
            self.state = fig7(self);
            self.epoch_start += self.epoch;
            self.prev = std::mem::take(&mut self.cur);
            let rate = self.prev.bytes as f64 / self.epoch.as_secs_f64();
            self.rate = 0.5 * self.rate + 0.5 * rate;
        }
    }

    fn window(&self) -> u32 {
        self.cur.new + self.prev.new
    }

    /// §4.1: a drop would likely cause or extend a timeout: the window
    /// cannot fast-retransmit, and the flow is in a timeout or owes a
    /// drop taken this epoch or the last.
    fn protected(&self) -> bool {
        let s = self.state;
        let timeout = matches!(s, TimeoutSilence | TimeoutRecovery | ExtendedSilence);
        let owing = s == ExplicitLossRecovery && self.cur.drops + self.prev.drops > 0;
        self.window() <= FAST_RETX_WINDOW && (timeout || owing)
    }
}

/// The epoch estimate blended a quarter toward `sample`, clamped.
fn blend(cur: SimDuration, sample: SimDuration, floor: SimDuration) -> SimDuration {
    let secs = 0.75 * cur.as_secs_f64() + 0.25 * sample.as_secs_f64();
    SimDuration::from_secs_f64(secs).max(floor).min(MAX_EPOCH)
}

// ---- §4.2: five classes, three levels, staged victims ---------------

#[derive(Default)]
struct QFlow {
    id: u32,
    score: u32,
    silence: u32,
    last_normal: SimTime,
    pkts: VecDeque<QueuedPkt>,
}

type Key = (u32, usize, Reverse<u32>);

/// Per class, in `QueueClass::ALL` order, its flows in rotation order.
#[derive(Default)]
struct RefQueues {
    rings: [VecDeque<QFlow>; 5],
    len: usize,
    tokens: f64,
    recovery_bps: f64,
    refilled: SimTime,
    rotation: usize,
}

fn ix(class: QueueClass) -> usize {
    QueueClass::ALL.iter().position(|&c| c == class).unwrap()
}

impl RefQueues {
    /// Flow `id`'s class and place in its ring, if it buffers anything.
    fn at(&self, id: u32) -> Option<(QueueClass, usize)> {
        let place = |c| Some((c, self.rings[ix(c)].iter().position(|f| f.id == id)?));
        QueueClass::ALL.into_iter().find_map(place)
    }

    fn backlog(&self, id: u32) -> usize {
        self.at(id)
            .map_or(0, |(c, i)| self.rings[ix(c)][i].pkts.len())
    }

    fn class_pkts(&self, class: QueueClass) -> usize {
        self.rings[ix(class)].iter().map(|f| f.pkts.len()).sum()
    }

    fn argmax<K: Ord>(&self, class: QueueClass, key: impl Fn(&QFlow) -> K) -> Option<usize> {
        let ring = &self.rings[ix(class)];
        (0..ring.len()).max_by_key(|&i| key(&ring[i]))
    }

    /// Buffers `qp` under `class` with the flow's window, silence and
    /// last normal transmission as the tracker reports them now.
    fn push(&mut self, class: QueueClass, qp: QueuedPkt, keys: (u32, u32, SimTime)) {
        let (score, silence, last_normal) = keys;
        let id = qp.flow.0;
        let (held, i) = self.at(id).unwrap_or_else(|| {
            let ring = &mut self.rings[ix(class)];
            ring.push_back(QFlow {
                id,
                silence,
                ..QFlow::default()
            });
            (class, ring.len() - 1)
        });
        let f = &mut self.rings[ix(held)][i];
        (f.score, f.last_normal) = (score, last_normal);
        f.silence = silence_key(f.silence, class, silence);
        f.pkts.push_back(qp);
        self.len += 1;
        // A flow sits in one class: its whole backlog migrates, to the tail.
        if held != class && !sticky(held) {
            let f = self.rings[ix(held)].remove(i).unwrap();
            self.rings[ix(class)].push_back(f);
        }
    }

    /// Removes packet `k` of the `i`th flow of `class`.
    fn take(&mut self, class: QueueClass, i: usize, k: usize) -> QueuedPkt {
        let ring = &mut self.rings[ix(class)];
        let qp = ring[i].pkts.remove(k).unwrap();
        if ring[i].pkts.is_empty() {
            ring.remove(i);
        }
        self.len -= 1;
        qp
    }

    /// Serves the head flow of `class`, which then goes to the tail.
    fn round_robin(&mut self, class: QueueClass) -> Option<QueuedPkt> {
        let ring = &mut self.rings[ix(class)];
        ring.rotate_left(ring.len().min(1));
        let last = ring.len().checked_sub(1)?;
        Some(self.take(class, last, 0))
    }

    fn pop(&mut self, now: SimTime) -> Option<QueuedPkt> {
        // Level 1: Recovery, longest silence first, within its token
        // bucket, or regardless when nothing else waits.
        let dt = now.saturating_since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + dt * self.recovery_bps).min(TOKEN_CAP_BITS);
        self.refilled = now;
        let first = |f: &QFlow| (f.silence, Reverse(f.last_normal), tie(f.id));
        if let Some(i) = self.argmax(Recovery, first) {
            let bits = f64::from(self.rings[ix(Recovery)][i].pkts[0].wire) * 8.0;
            if self.tokens >= bits || self.len == self.class_pkts(Recovery) {
                self.tokens = (self.tokens - bits).max(0.0);
                return Some(self.take(Recovery, i, 0));
            }
        }
        // Level 2: the class holding most packets, ties to the earliest
        // in a rotation that advances with each level-2 service.
        let turn = |k: usize| LEVEL2[(self.rotation + k) % 3];
        let deepest = (0..3).max_by_key(|&k| (self.class_pkts(turn(k)), Reverse(k)));
        let class = turn(deepest.unwrap());
        if self.class_pkts(class) > 0 {
            self.rotation = (self.rotation + 1) % 3;
            return self.round_robin(class);
        }
        self.round_robin(AboveFairShare)
    }

    /// The victim, whether it was a Recovery flow's, and the stage.
    fn evict(&mut self) -> Option<(QueuedPkt, bool, u8)> {
        let window: fn(&QFlow) -> Key = |f| (f.score, f.pkts.len(), tie(f.id));
        let backlog: fn(&QFlow) -> Key = |f| (0, f.pkts.len(), tie(f.id));
        let below = &self.rings[ix(BelowFairShare)];
        let burst = below.iter().any(|f| f.pkts.len() >= 2);
        let stages = [
            (1, AboveFairShare, true, window), // can repair by fast retransmit
            (2, BelowFairShare, burst, backlog), // a trimmed burst lives on
            (3, NewFlow, true, backlog),
            (4, BelowFairShare, true, window),
            (5, OverPenalized, true, window),
        ];
        for (stage, class, open, key) in stages {
            let Some(i) = self.argmax(class, key).filter(|_| open) else {
                continue;
            };
            // Head drops; past stage 1 a handshake is spared while any
            // flow of the class holds data.
            let data = |f: &QFlow| f.pkts.iter().position(|p| !p.synack);
            let mut ring = self.rings[ix(class)].iter().enumerate();
            let (i, k) = match data(&self.rings[ix(class)][i]) {
                _ if stage == 1 => (i, 0),
                Some(k) => (i, k),
                None => ring
                    .find_map(|(j, f)| Some((j, data(f)?)))
                    .unwrap_or((i, 0)),
            };
            return Some((self.take(class, i, k), false, stage));
        }
        // 6. Recovery last: the shortest silence pays.
        let i = self.argmax(Recovery, |f| (Reverse(f.silence), f.last_normal, tie(f.id)))?;
        Some((self.take(Recovery, i, 0), true, 6))
    }
}

// ---- The middlebox: tracker, classifier, queues ---------------------

#[derive(Default)]
struct RefTaq {
    flows: HashMap<FlowKey, Flow>,
    /// Freed flow ids; the latest freed is handed out first.
    freed: Vec<u32>,
    issued: u32,
    q: RefQueues,
    /// What the last enqueue dropped: (packet id, stage).
    drops: Vec<(u64, u8)>,
    next_tick: SimTime,
    fair: f64,
    fair_until: SimTime,
}

impl RefTaq {
    fn flow(&mut self, id: u32) -> &mut Flow {
        self.flows.values_mut().find(|f| f.id == id).unwrap()
    }

    /// Offers a data-direction packet and returns its class.
    fn enqueue(&mut self, cfg: &TaqConfig, p: &Packet, pid: PacketId, now: SimTime) -> QueueClass {
        self.drops.clear();
        if now >= self.next_tick {
            self.next_tick = now + tick_period(cfg);
            self.tick(now);
        }
        let (retransmission, repairs) = self.observe(p, now, cfg.min_epoch);
        if now >= self.fair_until {
            // Flows heard from within four epochs, dummy-silent ones aside.
            let active = |f: &&Flow| f.state != DummySilence && now <= f.last_pkt + f.epoch * 4;
            let n = self.flows.values().filter(active).count();
            self.fair = cfg.link_rate.bps() as f64 / n.max(1) as f64;
            self.fair_until = now + fair_share_ttl(cfg);
        }
        let f = &self.flows[&p.flow];
        let deep = self.q.backlog(f.id) >= share_pkts(self.fair, f.epoch, p.wire_len());
        let class = if repairs || (retransmission && f.protected()) {
            Recovery
        } else if f.state == SlowStart && f.data_pkts <= NEW_HORIZON {
            NewFlow
        } else if f.protected() || f.cur.drops + f.prev.drops >= 2 {
            OverPenalized
        } else if f.rate * 8.0 > self.fair || deep {
            AboveFairShare
        } else {
            BelowFairShare
        };
        let qp = QueuedPkt::from_packet(pid, FlowId(f.id), p);
        let keys = (f.window(), f.silent, f.last_normal);
        if class == NewFlow && self.q.class_pkts(NewFlow) >= cfg.newflow_cap_pkts {
            self.on_drop(qp.flow.0, retransmission, now);
            self.drops.push((p.id, 7));
            return class;
        }
        self.q.push(class, qp, keys);
        while self.q.len > cfg.buffer_pkts {
            let (victim, from_recovery, stage) = self.q.evict().unwrap();
            self.on_drop(victim.flow.0, dropped_retransmission(from_recovery), now);
            self.drops.push((victim.pkt_id, stage));
        }
        class
    }

    /// Fig. 7's per-packet half: (retransmission, repairs a drop here).
    fn observe(&mut self, p: &Packet, now: SimTime, min_epoch: SimDuration) -> (bool, bool) {
        if !self.flows.contains_key(&p.flow) {
            self.issued += u32::from(self.freed.is_empty());
            let id = self.freed.pop().unwrap_or(self.issued - 1);
            self.flows.insert(p.flow, Flow::new(id, now, min_epoch));
        }
        let f = self.flows.get_mut(&p.flow).unwrap();
        f.roll(now);
        // One-way epoch sample: a gap of over half an epoch.
        let gap = now.saturating_since(f.last_pkt);
        if gap > f.epoch / 2 && gap <= MAX_EPOCH {
            f.epoch = blend(f.epoch, gap, min_epoch);
        }
        let retransmission = p.is_data() && p.seq_end() <= f.high;
        let repairs = retransmission && f.owed > 0;
        if retransmission {
            f.cur.retx += 1;
            f.owed = f.owed.saturating_sub(1);
        } else if p.is_data() {
            f.cur.new += 1;
        }
        f.data_pkts += u64::from(p.is_data());
        f.high = f.high.max(p.seq_end());
        f.last_pkt = now;
        if matches!(f.state, SlowStart | Normal) {
            f.last_normal = now;
        }
        // Fig. 7's immediate edge: a retransmission ends any silence.
        if retransmission && matches!(f.state, TimeoutSilence | ExtendedSilence | DummySilence) {
            (f.state, f.silent) = (TimeoutRecovery, 0);
        }
        (retransmission, repairs)
    }

    fn on_drop(&mut self, id: u32, retransmission: bool, now: SimTime) {
        let f = self.flow(id);
        f.roll(now);
        f.cur.drops += 1;
        f.owed += 1;
        f.state = match f.state {
            _ if retransmission => TimeoutSilence,
            SlowStart | Normal | DummySilence => ExplicitLossRecovery,
            s => s,
        };
    }

    fn dequeue(&mut self, now: SimTime) -> Option<QueuedPkt> {
        let qp = self.q.pop(now)?;
        let f = self.flow(qp.flow.0);
        f.roll(now);
        f.cur.bytes += u64::from(qp.wire);
        f.rtt_probe = f.rtt_probe.or(Some((f.high, now)));
        Some(qp)
    }

    /// A reverse-path ACK covering the probe is an RTT sample.
    fn reverse(&mut self, p: &Packet, now: SimTime, min_epoch: SimDuration) {
        let Some(f) = self.flows.get_mut(&p.flow.reversed()) else {
            return;
        };
        if let Some((_, sent)) = f.rtt_probe.filter(|&(end, _)| p.flags.ack && p.ack >= end) {
            let rtt = now.saturating_since(sent);
            if rtt >= SimDuration::from_millis(1) && rtt <= MAX_EPOCH {
                f.epoch = blend(f.epoch, rtt, min_epoch);
            }
            f.rtt_probe = None;
        }
    }

    fn tick(&mut self, now: SimTime) {
        let mut ids: Vec<(u32, FlowKey)> = self.flows.iter().map(|(k, f)| (f.id, *k)).collect();
        ids.sort_unstable();
        for (id, key) in ids {
            let f = self.flows.get_mut(&key).unwrap();
            f.roll(now);
            if f.silent >= GC_EPOCHS && self.q.backlog(id) == 0 {
                self.flows.remove(&key);
                self.freed.push(id);
            }
        }
    }
}

// ---- Header streams through the deployable pair ---------------------

fn data(port: u64) -> PacketBuilder {
    PacketBuilder::new(FlowKey {
        src: NodeId(1),
        src_port: 80,
        dst: NodeId(2),
        dst_port: port as u16,
    })
}

#[test]
fn taq_pair_matches_reference_on_random_header_streams() {
    let (mut states, mut stages) = (HashMap::new(), [0u32; 8]);
    for seed in [3u64, 17, 0xC0FFEE] {
        let mut cfg = TaqConfig::for_link(Bandwidth::from_kbps(600));
        (cfg.buffer_pkts, cfg.newflow_cap_pkts) = (16, 4);
        let pair = TaqPair::new(cfg.clone());
        let (mut forward, mut reverse) = (pair.forward, pair.reverse);
        let (ring, erased) = shared_sink(RingBufferSink::new(1024));
        let telemetry = Telemetry::new();
        telemetry.add_shared_sink(erased);
        pair.state.lock().unwrap().attach_telemetry(telemetry);
        let (mut rng, mut arena, mut r) =
            (SimRng::new(seed), PacketArena::new(), RefTaq::default());
        r.q.recovery_bps = cfg.link_rate.bps() as f64 * cfg.recovery_cap_fraction;
        // Per port, the next new sequence number; 0 while closed.
        let mut next = [0u64; 24];
        let (mut now, mut ports, mut serve, mut resend) = (SimTime::ZERO, 24, 0.5, 0.1);
        for step in 0..8_000u64 {
            if step % 400 == 0 {
                // A phase: how many flows send (the rest fall silent),
                // how often the link serves, how often senders resend.
                ports = 1 + rng.next_below(24);
                (serve, resend) = (0.9 * rng.next_f64(), 0.4 * rng.next_f64());
            }
            now += SimDuration::from_millis(rng.next_below(12));
            if rng.chance(0.002) {
                now += SimDuration::from_secs(130); // past the GC horizon
            }
            let port = rng.next_below(ports);
            let next = &mut next[port as usize];
            let old_seq = 1 + 460 * rng.next_below(*next / 460 + 1);
            let back = PacketBuilder::new(data(port).build().flow.reversed());
            let mut p = match rng.next_below(100) {
                _ if *next == 0 => {
                    *next = 1;
                    data(port).flags(TcpFlags::SYN_ACK)
                }
                0..=69 if rng.chance(resend) => data(port).seq(old_seq).payload(460),
                0..=69 => {
                    *next += 460;
                    data(port).seq(*next - 460).payload(460)
                }
                70..=89 => back.ack(1 + rng.next_below(*next)),
                90..=94 => back.flags(TcpFlags::SYN),
                _ => {
                    *next = 0; // the reopened flow reuses old sequence numbers
                    continue;
                }
            }
            .build();
            p.id = step + 1;
            let pid = arena.insert(p.clone());
            let at = format!("seed {seed} step {step}");
            if p.flow.src == NodeId(2) {
                reverse.enqueue(pid, &mut arena, now);
                let echoed = reverse.dequeue(&mut arena, now).unwrap();
                arena.remove(echoed);
                r.reverse(&p, now, cfg.min_epoch);
            } else {
                let out = forward.enqueue(pid, &mut arena, now);
                let class = r.enqueue(&cfg, &p, pid, now);
                let sink = std::mem::replace(&mut *ring.lock().unwrap(), RingBufferSink::new(1024));
                let (mut classes, mut dropped) = (Vec::new(), Vec::new());
                for (_, event) in sink.events() {
                    match *event {
                        Event::Classified { packet, class, .. } => classes.push((packet, class)),
                        Event::Dropped { packet, stage, .. } => dropped.push((packet, stage)),
                        _ => {}
                    }
                }
                assert_eq!(classes, [(p.id, class.name())], "{at}");
                assert_eq!(dropped, r.drops, "{at}");
                let ids = out.dropped.into_iter().map(|d| arena.remove(d).id);
                assert!(ids.eq(r.drops.iter().map(|d| d.0)), "{at}");
                for &(_, stage) in &r.drops {
                    stages[usize::from(stage)] += 1;
                }
            }
            while rng.chance(serve) {
                let got = forward.dequeue(&mut arena, now);
                assert_eq!(got, r.dequeue(now).map(|qp| qp.pid), "{at}");
                got.map(|pid| arena.remove(pid));
            }
            let st = pair.state.lock().unwrap();
            assert_eq!(st.flows.len(), r.flows.len(), "{at}");
            for (key, f) in &r.flows {
                let (g, id) = (st.flows.get(key).unwrap(), st.flows.id_of(key));
                let got = (id, g.state, g.silent_epochs, g.pending_repairs);
                let want = (Some(FlowId(f.id)), f.state, f.silent, f.owed);
                assert_eq!(got, want, "{at}");
                *states.entry(f.state).or_insert(0) += 1;
            }
        }
    }
    // Every Fig. 7 state occurs, and every drop stage fires.
    assert_eq!(states.len(), 7, "{states:?}");
    assert!(stages[1..].iter().all(|&n| n > 0), "{stages:?}");
}

// ---- Class-directed churn straight into the queues ------------------

#[test]
fn queues_match_reference_under_class_directed_churn() {
    // Six phases per seed, each growing one favoured class past 500
    // flows from empty, holding it at the buffer cap by eviction, then
    // draining everything. Small key ranges force ties on every field.
    const STEPS_PER_PHASE: u64 = 4_000;
    const CAP: usize = 1_100;
    let link = Bandwidth::from_kbps(600);
    let mut table = FlowTable::new(TaqConfig::for_link(link));
    let base = table.observe_forward(&data(0).build(), SimTime::ZERO);
    for seed in [7u64, 42, 0x1DE5] {
        let (mut arena, mut rng) = (PacketArena::new(), SimRng::new(seed));
        let (mut q, mut r) = (TaqQueues::new(link, 0.2), RefQueues::default());
        r.recovery_bps = link.bps() as f64 * 0.2;
        let (mut now, mut peak, mut stages, mut rekeyed) = (SimTime::ZERO, [0; 5], [0; 7], 0);
        for step in 0..6 * STEPS_PER_PHASE {
            let phase = (step / STEPS_PER_PHASE) as usize;
            now += SimDuration::from_millis(rng.next_below(3));
            if rng.chance(0.75) {
                // The last phase has no favourite; ports from 3800 up
                // only ever send SYN-ACKs.
                let (favoured, pick) = (phase < 5 && rng.chance(0.7), rng.next_below(5) as usize);
                let class = QueueClass::ALL[if favoured { phase } else { pick }];
                let port = rng.next_below(4_000);
                let mut p = data(port).payload(460).build();
                if port >= 3_800 || rng.chance(0.05) {
                    (p.flags, p.payload_len) = (TcpFlags::SYN_ACK, 0);
                }
                p.id = step;
                let pid = arena.insert(p);
                let qp = QueuedPkt::from_packet(pid, FlowId(port as u32), arena.get(pid));
                let (score, silence) = (rng.next_below(6) as u32, rng.next_below(5) as u32);
                let last_normal = SimTime::from_millis(10 * rng.next_below(8));
                let mut o = base;
                (o.window_estimate, o.silent_epochs, o.last_normal_at) =
                    (score, silence, last_normal);
                rekeyed += u32::from(r.at(qp.flow.0).is_some_and(|(c, _)| c == Recovery));
                q.push(class, qp, &o);
                r.push(class, qp, (score, silence, last_normal));
            }
            let pops = match rng.next_below(100) {
                0..=14 => 1,
                15..=18 => 1 + rng.next_below(6),
                _ => 0,
            };
            for _ in 0..pops {
                assert_eq!(q.pop(now), r.pop(now), "seed {seed} step {step}");
            }
            for _ in 0..q.len().saturating_sub(CAP) + usize::from(rng.chance(0.06)) {
                let got = q.evict_staged();
                assert_eq!(got, r.evict(), "seed {seed} step {step}");
                stages[got.map_or(0, |v| usize::from(v.2))] += 1;
            }
            assert_eq!(q.len(), r.len);
            for class in QueueClass::ALL {
                let flows = q.class_flows(class);
                assert_eq!(flows, r.rings[ix(class)].len(), "{class} at step {step}");
                assert!(step % 256 != 0 || q.class_len(class) == r.class_pkts(class));
                peak[ix(class)] = peak[ix(class)].max(flows);
            }
            if step % 256 == 0 {
                q.check_invariants();
            }
            if (step + 1) % STEPS_PER_PHASE == 0 {
                while let Some(qp) = q.pop(now) {
                    assert_eq!(Some(qp), r.pop(now));
                }
                assert_eq!(r.len, 0);
            }
        }
        // Every class past 500 flows, every eviction stage, and over 500
        // pushes to flows already in Recovery (each one a re-key).
        assert!(peak.iter().all(|&n| n >= 500), "{peak:?}");
        assert!(stages[1..].iter().all(|&n| n > 0), "{stages:?}");
        assert!(rekeyed > 500, "{rekeyed}");
    }
}
