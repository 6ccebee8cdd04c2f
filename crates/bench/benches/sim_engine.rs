//! Microbenchmark: end-to-end simulator event throughput on a contended
//! dumbbell (events processed per wall second is the quantity that
//! bounds every experiment's runtime), and below it an event-density
//! ladder that isolates the scheduler: no-op agents re-arming timers,
//! so a run is nothing but the event queue's push + pop (plus the timer
//! table and one dispatch). The rungs span the regimes the figures
//! live in — a sweep cell sits near 0.1 events per 65.5 µs wheel tick,
//! a many-flow run near 3 — because a queue tuned at one density can
//! degenerate at another without `dumbbell_*` moving much. A re-arm
//! ladder prices the RTO pattern — 300 and 5 000 timers each cancelled
//! and set again 1 s out every millisecond — per re-arm: a cancelled
//! timer that stayed queued would be walked, relinked and popped a
//! second later, so its cost would show here. Beside it a
//! hop ladder isolates forwarding: a fixed window of packets bouncing
//! between two hosts through 1, 2 and 4 routers over `UnboundedFifo`
//! links, reported per packet-hop (one link crossing: a `LinkFree`, an
//! `Arrival`, and whatever the node at the far end does with it), so
//! the cost of a router shows as the rungs' difference.
//!
//! Run with `cargo bench --bench sim_engine`.

use taq_bench::{measure, Discipline};
use taq_queues::DropTail;
use taq_sim::{
    Agent, Bandwidth, Ctx, DumbbellConfig, FlowKey, NodeId, Packet, PacketBuilder, SimDuration,
    SimTime, Simulator, TimerId, UnboundedFifo,
};
use taq_workloads::{DumbbellSpec, BULK_BYTES};

fn run_sim(flows: usize, secs: u64) -> u64 {
    let rate = Bandwidth::from_kbps(600);
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let mut sc = DumbbellSpec::new(topo).build(1, Box::new(DropTail::with_packets(buffer)));
    sc.add_bulk_clients(flows, BULK_BYTES, SimDuration::from_secs(1));
    sc.run_until(SimTime::from_secs(secs));
    sc.sim.events_processed()
}

/// The Figure 8 many-flow point: 300 bulk flows squeezed to a 2 kbps
/// fair share behind TAQ — the scenario that stresses classification,
/// flow-table GC, and the class rings.
fn run_taq_manyflow(secs: u64) -> u64 {
    let rate = Bandwidth::from_kbps(600);
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let built = Discipline::Taq.spec(buffer).build(rate, 1);
    let mut sc = DumbbellSpec::new(topo).build(1, built.forward);
    sc.add_bulk_clients(300, BULK_BYTES, SimDuration::from_secs(2));
    sc.run_until(SimTime::from_secs(secs));
    sc.sim.events_processed()
}

/// Keeps `timers` timers armed forever: every firing re-arms itself.
struct Rearm {
    timers: u64,
    /// Re-arm delays; a timer cycles through them.
    delays: &'static [SimDuration],
    fired: u64,
}

impl Rearm {
    /// The `n`-th delay of `timer`, skewed a little per timer so the
    /// population does not fire in lockstep.
    fn delay(&self, timer: u64, n: u64) -> SimDuration {
        self.delays[((timer + n) % self.delays.len() as u64) as usize]
            + SimDuration::from_nanos(timer * 97)
    }
}

impl Agent for Rearm {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for timer in 0..self.timers {
            ctx.set_timer(self.delay(timer, 0), timer);
        }
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<'_>) {
        self.fired += 1;
        ctx.set_timer(self.delay(timer, self.fired), timer);
    }
}

/// One rung of the density ladder: `timers` self-re-arming timers over
/// `delays`, run for about `EVENTS` events; prints ns per push + pop.
fn density_rung(name: &str, timers: u64, delays: &'static [SimDuration]) {
    const EVENTS: u64 = 2_000_000;
    let mean_ns = delays.iter().map(|d| d.as_nanos()).sum::<u64>() / delays.len() as u64;
    let horizon = SimTime::from_nanos(mean_ns / timers * EVENTS);
    let mut events = 0;
    let ns = measure(name, 1, 5, || {
        let mut sim = Simulator::new(1);
        let node = sim.add_agent(Box::new(Rearm {
            timers,
            delays,
            fired: 0,
        }));
        sim.schedule_start(node, SimTime::ZERO);
        sim.run_until(horizon);
        events = sim.events_processed();
    });
    let per_tick = timers as f64 * 65_536.0 / mean_ns as f64;
    println!(
        "#   {:.1} ns per push+pop at {per_tick:.2} events/tick ({events} events)",
        ns / events as f64
    );
}

/// The RTO pattern: `timers` retransmission timers, every one cancelled
/// and set again 1 s out each millisecond — what a sender does on every
/// segment sent and every new ACK — by one agent ticking at 1 ms. No
/// RTO ever fires.
struct RtoRearm {
    timers: usize,
    rtos: Vec<TimerId>,
    rearms: u64,
}

impl RtoRearm {
    const TICK: u64 = u64::MAX;

    /// Timer `i`'s RTO, skewed a little per timer so the population
    /// does not share one instant.
    fn rto(i: usize) -> SimDuration {
        SimDuration::from_secs(1) + SimDuration::from_nanos(i as u64 * 97)
    }
}

impl Agent for RtoRearm {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.rtos = (0..self.timers)
            .map(|i| ctx.set_timer(Self::rto(i), i as u64))
            .collect();
        ctx.set_timer(SimDuration::from_millis(1), Self::TICK);
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        assert_eq!(token, Self::TICK, "an RTO fired");
        for (i, id) in self.rtos.iter_mut().enumerate() {
            assert!(ctx.cancel_timer(*id));
            *id = ctx.set_timer(Self::rto(i), i as u64);
        }
        self.rearms += self.rtos.len() as u64;
        ctx.set_timer(SimDuration::from_millis(1), Self::TICK);
    }
}

/// One rung of the re-arm ladder: `timers` RTOs re-armed every 1 ms for
/// 3 simulated seconds (past the first second, when a cancelled timer
/// left in the queue would start to surface); prints ns per re-arm.
fn rearm_rung(name: &str, timers: usize) {
    let mut rearms = 0;
    let ns = measure(name, 1, 5, || {
        let mut sim = Simulator::new(1);
        let node = sim.add_agent(Box::new(RtoRearm {
            timers,
            rtos: Vec::new(),
            rearms: 0,
        }));
        sim.schedule_start(node, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(3));
        rearms = sim.agent::<RtoRearm>(node).expect("the agent").rearms;
    });
    println!(
        "#   {:.1} ns per re-arm ({rearms} re-arms)",
        ns / rearms as f64
    );
}

/// Answers every packet with a fresh one to `peer`; the host that is
/// started also launches the `window` packets that keep circulating.
struct Bounce {
    peer: NodeId,
    window: u32,
}

impl Bounce {
    fn send(&self, ctx: &mut Ctx<'_>) {
        let flow = FlowKey {
            src: ctx.node(),
            src_port: 1,
            dst: self.peer,
            dst_port: 2,
        };
        ctx.send(self.peer, PacketBuilder::new(flow).payload(500).build());
    }
}

impl Agent for Bounce {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.window {
            self.send(ctx);
        }
    }

    fn on_packet(&mut self, _pkt: Packet, ctx: &mut Ctx<'_>) {
        self.send(ctx);
    }
}

/// One rung of the hop ladder: two [`Bounce`] hosts `routers` routers
/// apart, 32 packets in flight for 30 simulated seconds (about 10^6
/// link crossings); prints ns per packet-hop.
fn hop_rung(name: &str, routers: usize) {
    let mut hops = 0;
    let ns = measure(name, 1, 5, || {
        let mut sim = Simulator::new(1);
        let far = NodeId(routers as u32 + 1);
        let a = sim.add_agent(Box::new(Bounce {
            peer: far,
            window: 32,
        }));
        let mut path = vec![a];
        path.extend((0..routers).map(|_| sim.add_router()));
        path.push(sim.add_agent(Box::new(Bounce { peer: a, window: 0 })));
        assert_eq!(path[routers + 1], far);
        let mut links = Vec::new();
        for pair in path.windows(2) {
            for (from, to, dst) in [(pair[0], pair[1], far), (pair[1], pair[0], a)] {
                let link = sim.add_link(
                    from,
                    to,
                    Bandwidth::from_mbps(100),
                    SimDuration::from_millis(1),
                    Box::new(UnboundedFifo::new()),
                );
                sim.add_route(from, dst, link);
                links.push(link);
            }
        }
        sim.schedule_start(a, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(30));
        hops = links
            .iter()
            .map(|&l| sim.link_stats(l).transmitted_pkts)
            .sum();
    });
    println!(
        "#   {:.1} ns per packet-hop ({hops} hops)",
        ns / hops as f64
    );
}

fn main() {
    println!("# sim_engine — dumbbell event throughput");
    // Events are those executed (a cancelled timer is not one), so a
    // change in how many events a run takes shows in ms per run, not
    // in Mevents/s.
    let mut events = 0;
    let throughput = |ns: f64, events: u64| {
        println!(
            "#   {:.2} Mevents/s, {:.1} ms per run",
            events as f64 / ns * 1e3,
            ns / 1e6
        );
    };
    let ns = measure("dumbbell_20flows_30s", 1, 5, || events = run_sim(20, 30));
    throughput(ns, events);
    let ns = measure("dumbbell_60flows_30s", 1, 5, || events = run_sim(60, 30));
    throughput(ns, events);
    let ns = measure("taq_300flows_30s", 1, 5, || events = run_taq_manyflow(30));
    throughput(ns, events);

    println!("# sim_engine — event-queue density ladder (timers only)");
    const SPARSE: &[SimDuration] = &[SimDuration::from_micros(10_486)];
    const MEDIUM: &[SimDuration] = &[SimDuration::from_micros(1_398)];
    const DENSE: &[SimDuration] = &[SimDuration::from_micros(1_342)];
    const MIXED: &[SimDuration] = &[
        SimDuration::from_millis(1),
        SimDuration::from_millis(96),
        SimDuration::from_secs(1),
    ];
    density_rung("timers_0.1_per_tick", 16, SPARSE);
    density_rung("timers_3_per_tick", 64, MEDIUM);
    density_rung("timers_50_per_tick", 1024, DENSE);
    density_rung("timers_mix_1ms_96ms_1s", 256, MIXED);

    println!("# sim_engine — RTO re-arm ladder (cancel + set 1 s out, every 1 ms)");
    rearm_rung("rearm_300_timers", 300);
    rearm_rung("rearm_5000_timers", 5_000);

    println!("# sim_engine — hop ladder (32 packets bouncing through n routers)");
    hop_rung("hop_1_routers", 1);
    hop_rung("hop_2_routers", 2);
    hop_rung("hop_4_routers", 4);
}
