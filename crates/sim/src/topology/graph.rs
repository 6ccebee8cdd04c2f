//! General multi-bottleneck topologies.
//!
//! The paper's motivating deployments are not single dumbbells: a
//! campus proxy sits behind a thin uplink that is itself fed by slow
//! access links, and rural WiLD relays chain several lossy bottlenecks
//! in series. [`Topology`] is an arbitrary directed graph of routers —
//! the paper's dumbbell is its two-router case: every inter-router link
//! carries its own rate, propagation delay, and queueing discipline, so
//! the discipline under study can sit at *any* hop (or several).
//!
//! Routing is static and computed once at build time: shortest path by
//! hop count, ties broken by link declaration order, so a topology is a
//! pure function of its construction — the same determinism contract
//! the rest of the simulator keeps. The routers are engine routers
//! ([`Simulator::add_router`]): a packet crossing one is forwarded by
//! id and never leaves the arena. Hosts attach to a router through a
//! pair of fast access links, and routes toward a host are installed on
//! every router that can reach its attachment point.

use crate::engine::Simulator;
use crate::packet::{LinkId, NodeId};
use crate::qdisc::{Qdisc, UnboundedFifo};
use crate::time::{Bandwidth, SimDuration};

/// One directed router-to-router link in a [`TopologyConfig`].
#[derive(Debug, Clone)]
pub struct TopoLinkConfig {
    /// Source router index.
    pub from: usize,
    /// Destination router index.
    pub to: usize,
    /// Link rate.
    pub rate: Bandwidth,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

/// Parameters for a general topology: the router count, the directed
/// inter-router links, and the access-link parameters used when hosts
/// attach.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Number of routers (indices `0..routers`).
    pub routers: usize,
    /// Directed links between routers, in declaration order. The n-th
    /// entry becomes the n-th [`LinkId`] the simulator allocates for
    /// this topology.
    pub links: Vec<TopoLinkConfig>,
    /// Rate of host access links (fast enough never to bottleneck).
    pub access_rate: Bandwidth,
    /// Default one-way delay of host access links.
    pub access_delay: SimDuration,
}

impl TopologyConfig {
    /// Validates router indices.
    fn check(&self) {
        for l in &self.links {
            assert!(
                l.from < self.routers && l.to < self.routers,
                "link {}→{} references a router outside 0..{}",
                l.from,
                l.to,
                self.routers
            );
            assert_ne!(l.from, l.to, "self-loop link on router {}", l.from);
        }
    }
}

/// A built topology: the routers, the inter-router links, and the
/// static next-hop table.
#[derive(Debug, Clone)]
pub struct Topology {
    routers: Vec<NodeId>,
    links: Vec<LinkId>,
    /// `next_hop[u][d]` = index into `links` of the first hop on a
    /// shortest `u → d` path, or `None` when `d` is unreachable from
    /// `u`.
    next_hop: Vec<Vec<Option<usize>>>,
    config: TopologyConfig,
}

impl Topology {
    /// Creates the routers and inter-router links inside `sim`.
    ///
    /// `qdiscs` supplies one discipline per entry of `config.links`, in
    /// the same order. Routers are created first (so router `i` gets
    /// the i-th [`NodeId`] this call allocates), then links in
    /// declaration order.
    pub fn build(
        sim: &mut Simulator,
        config: TopologyConfig,
        qdiscs: Vec<Box<dyn Qdisc>>,
    ) -> Topology {
        config.check();
        assert_eq!(
            qdiscs.len(),
            config.links.len(),
            "one qdisc per configured link"
        );
        let routers: Vec<NodeId> = (0..config.routers).map(|_| sim.add_router()).collect();
        let links: Vec<LinkId> = config
            .links
            .iter()
            .zip(qdiscs)
            .map(|(l, q)| sim.add_link(routers[l.from], routers[l.to], l.rate, l.delay, q))
            .collect();
        let next_hop = compute_next_hops(config.routers, &config.links);
        Topology {
            routers,
            links,
            next_hop,
            config,
        }
    }

    /// The configuration this topology was built with.
    pub fn config(&self) -> &TopologyConfig {
        &self.config
    }

    /// Number of routers.
    pub fn routers(&self) -> usize {
        self.routers.len()
    }

    /// The [`NodeId`] of router `i`.
    pub fn router(&self, i: usize) -> NodeId {
        self.routers[i]
    }

    /// The [`LinkId`] of the i-th configured inter-router link.
    pub fn link(&self, i: usize) -> LinkId {
        self.links[i]
    }

    /// The link indices of a shortest `from → to` router path, or
    /// `None` when unreachable. The walk is bounded by the router
    /// count, so a corrupted next-hop table (a routing loop) also
    /// returns `None` — the invariant suite leans on this.
    pub fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let mut hops = Vec::new();
        let mut at = from;
        while at != to {
            if hops.len() >= self.routers.len() {
                return None; // loop: a shortest path never revisits a router
            }
            let l = self.next_hop[at][to]?;
            hops.push(l);
            at = self.config.links[l].to;
        }
        Some(hops)
    }

    /// Attaches a host to router `r` with the default access delay, and
    /// returns its up (host→router) link.
    pub fn attach_host(&self, sim: &mut Simulator, host: NodeId, r: usize) -> LinkId {
        self.attach_host_with_delay(sim, host, r, self.config.access_delay)
    }

    /// Attaches a host to router `r` with a custom access delay
    /// (heterogeneous RTTs).
    ///
    /// Creates the up (host→router) and down (router→host) access
    /// links, points the host's default route up, and installs a route
    /// toward the host on every router that can reach `r`. Returns the
    /// up link.
    pub fn attach_host_with_delay(
        &self,
        sim: &mut Simulator,
        host: NodeId,
        r: usize,
        delay: SimDuration,
    ) -> LinkId {
        let up = sim.add_link(
            host,
            self.routers[r],
            self.config.access_rate,
            delay,
            Box::new(UnboundedFifo::new()),
        );
        let down = sim.add_link(
            self.routers[r],
            host,
            self.config.access_rate,
            delay,
            Box::new(UnboundedFifo::new()),
        );
        sim.set_default_route(host, up);
        sim.add_route(self.routers[r], host, down);
        for u in 0..self.routers.len() {
            if u == r {
                continue;
            }
            if let Some(l) = self.next_hop[u][r] {
                sim.add_route(self.routers[u], host, self.links[l]);
            }
        }
        up
    }
}

/// Shortest-path next hops by hop count, ties broken by link
/// declaration order. Runs a Bellman-Ford-style relaxation per
/// destination — topologies are a handful of routers, so clarity wins
/// over asymptotics.
fn compute_next_hops(n: usize, links: &[TopoLinkConfig]) -> Vec<Vec<Option<usize>>> {
    let mut table = vec![vec![None; n]; n];
    for d in 0..n {
        let mut dist = vec![usize::MAX; n];
        dist[d] = 0;
        loop {
            let mut changed = false;
            for l in links {
                if dist[l.to] != usize::MAX && dist[l.from] > dist[l.to] + 1 {
                    dist[l.from] = dist[l.to] + 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (u, row) in dist.iter().enumerate() {
            if u == d || *row == usize::MAX {
                continue;
            }
            table[u][d] = links
                .iter()
                .position(|l| l.from == u && dist[l.to] + 1 == *row);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Agent, Ctx};
    use crate::packet::{FlowKey, Packet, PacketBuilder};
    use crate::time::SimTime;
    use std::sync::{Arc, Mutex};

    fn fifo() -> Box<dyn Qdisc> {
        Box::new(UnboundedFifo::new())
    }

    struct Pinger {
        peer: Option<NodeId>,
        log: Arc<Mutex<Vec<SimTime>>>,
    }

    impl Agent for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(peer) = self.peer {
                let pkt = PacketBuilder::new(FlowKey {
                    src: ctx.node(),
                    src_port: 1,
                    dst: peer,
                    dst_port: 2,
                })
                .payload(500)
                .build();
                ctx.send(peer, pkt);
            }
        }

        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            self.log.lock().unwrap().push(ctx.now());
            if self.peer.is_none() {
                let reply = PacketBuilder::new(pkt.flow.reversed()).payload(500).build();
                let dst = pkt.flow.src;
                ctx.send(dst, reply);
            }
        }
    }

    /// A chain of `hops` bottlenecks with both directions wired.
    fn chain(hops: usize, rate: Bandwidth, delay: SimDuration) -> TopologyConfig {
        let mut links = Vec::new();
        for i in 0..hops {
            links.push(TopoLinkConfig {
                from: i,
                to: i + 1,
                rate,
                delay,
            });
            links.push(TopoLinkConfig {
                from: i + 1,
                to: i,
                rate,
                delay,
            });
        }
        TopologyConfig {
            routers: hops + 1,
            links,
            access_rate: Bandwidth::from_mbps(100),
            access_delay: SimDuration::from_millis(1),
        }
    }

    #[test]
    fn two_router_topology_matches_dumbbell_rtt() {
        let db = crate::DumbbellConfig::with_rtt_200ms(Bandwidth::from_mbps(1));
        let cfg = chain(1, db.bottleneck_rate, db.bottleneck_delay);
        let mut sim = Simulator::new(1);
        let topo = Topology::build(&mut sim, cfg, vec![fifo(), fifo()]);
        let recv_log = Arc::new(Mutex::new(Vec::new()));
        let send_log = Arc::new(Mutex::new(Vec::new()));
        let recv = sim.add_agent(Box::new(Pinger {
            peer: None,
            log: recv_log.clone(),
        }));
        let send = sim.add_agent(Box::new(Pinger {
            peer: Some(recv),
            log: send_log.clone(),
        }));
        topo.attach_host(&mut sim, send, 0);
        topo.attach_host(&mut sim, recv, 1);
        sim.schedule_start(send, SimTime::ZERO);
        sim.run();
        assert_eq!(recv_log.lock().unwrap().len(), 1);
        let rtt = send_log.lock().unwrap()[0].as_secs_f64();
        // Propagation 196 ms + serialization of two 540-byte crossings
        // of the 1 Mbps bottleneck (4.32 ms each) + fast-link
        // serialization.
        assert!(rtt > 0.196 && rtt < 0.215, "rtt = {rtt}");
    }

    #[test]
    fn heterogeneous_access_delays_change_rtt() {
        let cfg = chain(1, Bandwidth::from_mbps(1), SimDuration::from_millis(96));
        let mut sim = Simulator::new(2);
        let topo = Topology::build(&mut sim, cfg, vec![fifo(), fifo()]);
        let log_fast = Arc::new(Mutex::new(Vec::new()));
        let log_slow = Arc::new(Mutex::new(Vec::new()));
        let recv = sim.add_agent(Box::new(Pinger {
            peer: None,
            log: Arc::new(Mutex::new(Vec::new())),
        }));
        let fast = sim.add_agent(Box::new(Pinger {
            peer: Some(recv),
            log: log_fast.clone(),
        }));
        let slow = sim.add_agent(Box::new(Pinger {
            peer: Some(recv),
            log: log_slow.clone(),
        }));
        topo.attach_host(&mut sim, fast, 0);
        topo.attach_host_with_delay(&mut sim, slow, 0, SimDuration::from_millis(50));
        topo.attach_host(&mut sim, recv, 1);
        sim.schedule_start(fast, SimTime::ZERO);
        sim.schedule_start(slow, SimTime::ZERO);
        sim.run();
        let rtt_fast = log_fast.lock().unwrap()[0].as_secs_f64();
        let rtt_slow = log_slow.lock().unwrap()[0].as_secs_f64();
        // The slow host's RTT is ~98 ms longer (49 ms extra each way).
        assert!(rtt_slow - rtt_fast > 0.09, "{rtt_fast} vs {rtt_slow}");
    }

    #[test]
    fn chain_routes_span_every_hop() {
        let cfg = chain(3, Bandwidth::from_mbps(1), SimDuration::from_millis(10));
        let mut sim = Simulator::new(2);
        let topo = Topology::build(&mut sim, cfg, (0..6).map(|_| fifo()).collect());
        // Forward path 0→3 uses the forward link of every hop (even
        // link indices by construction).
        assert_eq!(topo.path(0, 3), Some(vec![0, 2, 4]));
        assert_eq!(topo.path(3, 0), Some(vec![5, 3, 1]));
        assert_eq!(topo.path(2, 2), Some(vec![]));

        let recv_log = Arc::new(Mutex::new(Vec::new()));
        let send_log = Arc::new(Mutex::new(Vec::new()));
        let recv = sim.add_agent(Box::new(Pinger {
            peer: None,
            log: recv_log.clone(),
        }));
        let send = sim.add_agent(Box::new(Pinger {
            peer: Some(recv),
            log: send_log.clone(),
        }));
        topo.attach_host(&mut sim, send, 0);
        topo.attach_host(&mut sim, recv, 3);
        sim.schedule_start(send, SimTime::ZERO);
        sim.run();
        assert_eq!(send_log.lock().unwrap().len(), 1, "echo crossed 3 hops");
        // Every hop link carried exactly one packet each way.
        for i in 0..6 {
            assert_eq!(sim.link_stats(topo.link(i)).transmitted_pkts, 1, "link {i}");
        }
    }

    #[test]
    fn ties_break_by_declaration_order() {
        // Two parallel 0→1 links: routing must pick the first declared.
        let cfg = TopologyConfig {
            routers: 2,
            links: vec![
                TopoLinkConfig {
                    from: 0,
                    to: 1,
                    rate: Bandwidth::from_mbps(1),
                    delay: SimDuration::from_millis(5),
                },
                TopoLinkConfig {
                    from: 0,
                    to: 1,
                    rate: Bandwidth::from_mbps(1),
                    delay: SimDuration::from_millis(5),
                },
                TopoLinkConfig {
                    from: 1,
                    to: 0,
                    rate: Bandwidth::from_mbps(1),
                    delay: SimDuration::from_millis(5),
                },
            ],
            access_rate: Bandwidth::from_mbps(100),
            access_delay: SimDuration::from_millis(1),
        };
        let mut sim = Simulator::new(3);
        let topo = Topology::build(&mut sim, cfg, vec![fifo(), fifo(), fifo()]);
        assert_eq!(topo.path(0, 1), Some(vec![0]));
    }

    #[test]
    fn unreachable_pairs_have_no_path() {
        // One-way chain: 0→1 exists, 1→0 does not.
        let cfg = TopologyConfig {
            routers: 3,
            links: vec![
                TopoLinkConfig {
                    from: 0,
                    to: 1,
                    rate: Bandwidth::from_mbps(1),
                    delay: SimDuration::from_millis(5),
                },
                TopoLinkConfig {
                    from: 1,
                    to: 2,
                    rate: Bandwidth::from_mbps(1),
                    delay: SimDuration::from_millis(5),
                },
            ],
            access_rate: Bandwidth::from_mbps(100),
            access_delay: SimDuration::from_millis(1),
        };
        let mut sim = Simulator::new(4);
        let topo = Topology::build(&mut sim, cfg, vec![fifo(), fifo()]);
        assert_eq!(topo.path(0, 2), Some(vec![0, 1]));
        assert_eq!(topo.path(2, 0), None);
        assert_eq!(topo.path(1, 0), None);
    }

    #[test]
    #[should_panic(expected = "references a router outside")]
    fn out_of_range_link_panics() {
        let cfg = TopologyConfig {
            routers: 2,
            links: vec![TopoLinkConfig {
                from: 0,
                to: 5,
                rate: Bandwidth::from_mbps(1),
                delay: SimDuration::from_millis(5),
            }],
            access_rate: Bandwidth::from_mbps(100),
            access_delay: SimDuration::from_millis(1),
        };
        let mut sim = Simulator::new(5);
        let _ = Topology::build(&mut sim, cfg, vec![fifo()]);
    }
}
