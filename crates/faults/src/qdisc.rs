//! The [`FaultyLink`] queue-discipline wrapper.
//!
//! Per-packet faults are applied at the ingress seam — between the link
//! offering a packet and the real discipline buffering it — so the
//! wrapped qdisc (DropTail, RED, SFQ, TAQ) never knows it is being
//! abused. Faults are evaluated in a fixed order per packet
//! (blackout → burst loss → corruption → duplication → reorder), each
//! from its own RNG stream, so a plan replays byte-identically and
//! enabling one class never shifts another's draws.
//!
//! The wrapper preserves the engine's two qdisc invariants:
//! conservation (a dropped packet is returned in the
//! [`EnqueueOutcome`]; a held packet is counted in `len()` and is
//! eventually re-offered or dequeued) and non-idling (if `len() > 0`,
//! `dequeue` returns `Some` — when the inner queue is empty the held
//! packet is released directly).

use crate::plan::{rng_for, salt, Blackout, FaultPlan, ReorderSpec};
use crate::GilbertChain;
use std::sync::{Arc, Mutex};
use taq_sim::{
    telemetry_flow_id, EnqueueOutcome, Packet, PacketArena, PacketId, Qdisc, SimRng, SimTime,
};
use taq_telemetry::{Event, FaultKind, Telemetry};

/// Counters for every fault the wrapper (and the driver) injected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets eaten by the Gilbert–Elliott chain.
    pub burst_losses: u64,
    /// Packets dropped as corrupted (checksum failure downstream).
    pub corrupted: u64,
    /// Extra copies enqueued by duplication.
    pub duplicated: u64,
    /// Packets held back and re-offered out of order.
    pub reordered: u64,
    /// Packets dropped inside a blackout window.
    pub blackout_drops: u64,
    /// Bandwidth changes applied by the fault driver.
    pub rate_changes: u64,
    /// Propagation-delay changes applied by the fault driver.
    pub delay_changes: u64,
}

impl FaultStats {
    /// Total packets removed from the traffic by per-packet faults
    /// (excludes duplicates, which add packets, and link-parameter
    /// changes, which touch no packet).
    pub fn total_injected_drops(&self) -> u64 {
        self.burst_losses + self.corrupted + self.blackout_drops
    }

    /// Total individual fault injections of any class.
    pub fn total(&self) -> u64 {
        self.total_injected_drops()
            + self.duplicated
            + self.reordered
            + self.rate_changes
            + self.delay_changes
    }
}

/// Fault counters shared between the wrapper, the driver, and the
/// harness that wants to report them after the run.
pub type SharedFaultStats = Arc<Mutex<FaultStats>>;

/// Creates a fresh zeroed [`SharedFaultStats`].
pub fn shared_fault_stats() -> SharedFaultStats {
    Arc::new(Mutex::new(FaultStats::default()))
}

struct ReorderState {
    spec: ReorderSpec,
    rng: SimRng,
    /// Held-back id with its cached wire length (for `byte_len`).
    held: Option<(PacketId, u32)>,
    /// Packets enqueued since the current packet was held.
    overtaken: u32,
}

/// A [`Qdisc`] wrapper injecting the per-packet faults of a
/// [`FaultPlan`] in front of any real discipline.
pub struct FaultyLink {
    inner: Box<dyn Qdisc>,
    /// Telemetry link label for emitted fault events.
    link: u32,
    telemetry: Telemetry,
    stats: SharedFaultStats,
    burst: Option<(GilbertChain, SimRng)>,
    corrupt: Option<(f64, SimRng)>,
    duplicate: Option<(f64, SimRng)>,
    reorder: Option<ReorderState>,
    blackouts: Vec<Blackout>,
}

impl FaultyLink {
    /// Wraps `inner` with the per-packet faults of `plan`. All RNG
    /// streams derive from `seed` via the per-source salts in
    /// [`salt`], so the same `(plan, seed)` replays identically.
    pub fn new(
        inner: Box<dyn Qdisc>,
        plan: &FaultPlan,
        link: u32,
        seed: u64,
        telemetry: Telemetry,
        stats: SharedFaultStats,
    ) -> Self {
        FaultyLink {
            inner,
            link,
            telemetry,
            stats,
            burst: plan
                .burst_loss
                .map(|ge| (GilbertChain::new(ge), rng_for(seed, salt::BURST_LOSS))),
            corrupt: (plan.corrupt_prob > 0.0)
                .then(|| (plan.corrupt_prob, rng_for(seed, salt::CORRUPT))),
            duplicate: (plan.duplicate_prob > 0.0)
                .then(|| (plan.duplicate_prob, rng_for(seed, salt::DUPLICATE))),
            reorder: plan.reorder.map(|spec| ReorderState {
                spec,
                rng: rng_for(seed, salt::REORDER),
                held: None,
                overtaken: 0,
            }),
            blackouts: plan.blackouts.clone(),
        }
    }

    /// Read access to the shared fault counters.
    pub fn stats(&self) -> SharedFaultStats {
        Arc::clone(&self.stats)
    }

    fn emit(&self, kind: FaultKind, pkt: &Packet, now: SimTime) {
        let link = self.link;
        let packet = pkt.id;
        let flow = telemetry_flow_id(&pkt.flow);
        let value = f64::from(pkt.wire_len());
        self.telemetry.emit(now.as_nanos(), || Event::Fault {
            link,
            kind,
            packet: Some(packet),
            flow: Some(flow),
            value,
        });
    }

    fn in_blackout(&self, now: SimTime) -> bool {
        self.blackouts.iter().any(|b| b.contains(now))
    }
}

impl Qdisc for FaultyLink {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: SimTime) -> EnqueueOutcome {
        // 1. Blackout: the link is dead, nothing gets through.
        if self.in_blackout(now) {
            self.stats.lock().unwrap().blackout_drops += 1;
            self.emit(FaultKind::Blackout, arena.get(pkt), now);
            return EnqueueOutcome::rejected(pkt);
        }
        // 2. Burst loss: step the Gilbert–Elliott chain once per packet.
        if let Some((chain, rng)) = &mut self.burst {
            if chain.step(rng) {
                self.stats.lock().unwrap().burst_losses += 1;
                self.emit(FaultKind::BurstLoss, arena.get(pkt), now);
                return EnqueueOutcome::rejected(pkt);
            }
        }
        // 3. Corruption: the checksum would fail downstream, so the
        //    packet is as good as dropped here.
        if let Some((p, rng)) = &mut self.corrupt {
            if rng.chance(*p) {
                self.stats.lock().unwrap().corrupted += 1;
                self.emit(FaultKind::Corrupt, arena.get(pkt), now);
                return EnqueueOutcome::rejected(pkt);
            }
        }
        let mut out = EnqueueOutcome::accepted();
        // 4. Duplication: offer an identical copy first, then the
        //    original, merging any resulting drops. The copy gets its
        //    own arena slot.
        if let Some((p, rng)) = &mut self.duplicate {
            if rng.chance(*p) {
                self.stats.lock().unwrap().duplicated += 1;
                self.emit(FaultKind::Duplicate, arena.get(pkt), now);
                let copy = arena.insert(arena.get(pkt).clone());
                out.dropped
                    .extend(self.inner.enqueue(copy, arena, now).dropped);
            }
        }
        // 5. Reordering: possibly hold this packet back; release a
        //    previously held packet once enough traffic has overtaken it.
        if let Some(re) = &mut self.reorder {
            if re.held.is_some() {
                re.overtaken += 1;
            } else if re.rng.chance(re.spec.prob) {
                re.held = Some((pkt, arena.get(pkt).wire_len()));
                re.overtaken = 0;
                return out;
            }
            let release = re.held.is_some() && re.overtaken >= re.spec.depth;
            out.dropped
                .extend(self.inner.enqueue(pkt, arena, now).dropped);
            if release {
                let (held, _) = self.reorder.as_mut().unwrap().held.take().unwrap();
                self.stats.lock().unwrap().reordered += 1;
                self.emit(FaultKind::Reorder, arena.get(held), now);
                out.dropped
                    .extend(self.inner.enqueue(held, arena, now).dropped);
            }
            return out;
        }
        out.dropped
            .extend(self.inner.enqueue(pkt, arena, now).dropped);
        out
    }

    fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketId> {
        if let Some(pkt) = self.inner.dequeue(arena, now) {
            return Some(pkt);
        }
        // Non-idling: if only the held packet remains, release it now
        // rather than stalling the link.
        if let Some(re) = &mut self.reorder {
            if let Some((held, _)) = re.held.take() {
                self.stats.lock().unwrap().reordered += 1;
                self.emit(FaultKind::Reorder, arena.get(held), now);
                return Some(held);
            }
        }
        None
    }

    fn len(&self) -> usize {
        let held = self
            .reorder
            .as_ref()
            .map_or(0, |re| usize::from(re.held.is_some()));
        self.inner.len() + held
    }

    fn byte_len(&self) -> usize {
        let held = self
            .reorder
            .as_ref()
            .and_then(|re| re.held)
            .map_or(0, |(_, wire)| wire as usize);
        self.inner.byte_len() + held
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GilbertElliott;
    use taq_sim::{FlowKey, NodeId, PacketBuilder, UnboundedFifo};

    fn pkt(arena: &mut PacketArena, n: u64) -> PacketId {
        let mut p = PacketBuilder::new(FlowKey {
            src: NodeId(0),
            src_port: 1,
            dst: NodeId(1),
            dst_port: 2,
        })
        .payload(100)
        .build();
        p.id = n;
        arena.insert(p)
    }

    fn wrap(plan: &FaultPlan, seed: u64) -> FaultyLink {
        FaultyLink::new(
            Box::new(UnboundedFifo::new()),
            plan,
            0,
            seed,
            Telemetry::disabled(),
            shared_fault_stats(),
        )
    }

    #[test]
    fn clean_plan_is_transparent() {
        let mut a = PacketArena::new();
        let mut q = wrap(&FaultPlan::none(), 1);
        for i in 0..10 {
            let id = pkt(&mut a, i);
            assert!(q.enqueue(id, &mut a, SimTime::ZERO).dropped.is_empty());
        }
        assert_eq!(q.len(), 10);
        for i in 0..10 {
            let id = q.dequeue(&mut a, SimTime::ZERO).unwrap();
            assert_eq!(a.remove(id).id, i);
        }
        assert_eq!(q.stats().lock().unwrap().total(), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn blackout_rejects_everything_in_window() {
        let mut a = PacketArena::new();
        let plan = FaultPlan::none().with_blackout(SimTime::from_secs(1), SimTime::from_secs(2));
        let mut q = wrap(&plan, 1);
        let p0 = pkt(&mut a, 0);
        assert!(q.enqueue(p0, &mut a, SimTime::ZERO).dropped.is_empty());
        let p1 = pkt(&mut a, 1);
        let out = q.enqueue(p1, &mut a, SimTime::from_millis(1_500));
        assert_eq!(out.dropped.len(), 1);
        assert_eq!(a.remove(out.dropped[0]).id, 1);
        let p2 = pkt(&mut a, 2);
        assert!(q
            .enqueue(p2, &mut a, SimTime::from_secs(3))
            .dropped
            .is_empty());
        assert_eq!(q.stats().lock().unwrap().blackout_drops, 1);
    }

    #[test]
    fn burst_loss_drops_and_counts() {
        let mut a = PacketArena::new();
        let plan = FaultPlan::none().with_burst_loss(GilbertElliott::bursts(0.2, 4.0));
        let mut q = wrap(&plan, 7);
        let mut dropped = 0u64;
        for i in 0..1_000 {
            let id = pkt(&mut a, i);
            for d in q.enqueue(id, &mut a, SimTime::ZERO).dropped {
                a.remove(d);
                dropped += 1;
            }
        }
        let s = q.stats().lock().unwrap().clone();
        assert_eq!(s.burst_losses, dropped);
        assert!(dropped > 0, "GE chain never fired");
        // Conservation: everything offered is buffered or dropped.
        assert_eq!(q.len() as u64 + dropped, 1_000);
        assert_eq!(a.len(), q.len(), "arena holds exactly the buffered ids");
    }

    #[test]
    fn duplication_adds_identical_copies() {
        let mut a = PacketArena::new();
        let plan = FaultPlan::none().with_duplicate(1.0);
        let mut q = wrap(&plan, 3);
        let id = pkt(&mut a, 5);
        q.enqueue(id, &mut a, SimTime::ZERO);
        assert_eq!(q.len(), 2);
        let first = q.dequeue(&mut a, SimTime::ZERO).unwrap();
        let second = q.dequeue(&mut a, SimTime::ZERO).unwrap();
        assert_ne!(first, second, "the copy lives in its own arena slot");
        let first = a.remove(first);
        let second = a.remove(second);
        assert_eq!(first, second, "copy is byte-identical to the original");
        assert_eq!(q.stats().lock().unwrap().duplicated, 1);
        assert!(a.is_empty());
    }

    #[test]
    fn reorder_holds_then_releases_behind_later_traffic() {
        let mut a = PacketArena::new();
        let plan = FaultPlan::none().with_reorder(1.0, 2);
        // prob 1.0 holds the very first packet; subsequent packets are
        // counted as overtakers (only one packet is held at a time).
        let mut q = wrap(&plan, 9);
        let p0 = pkt(&mut a, 0);
        q.enqueue(p0, &mut a, SimTime::ZERO); // held
        assert_eq!(q.len(), 1);
        let p1 = pkt(&mut a, 1);
        q.enqueue(p1, &mut a, SimTime::ZERO); // overtaken = 1
        let p2 = pkt(&mut a, 2);
        q.enqueue(p2, &mut a, SimTime::ZERO); // overtaken = 2 -> release
        let mut order = Vec::new();
        while let Some(id) = q.dequeue(&mut a, SimTime::ZERO) {
            order.push(a.remove(id).id);
        }
        assert_eq!(order, vec![1, 2, 0], "held packet must come out last");
        assert_eq!(q.stats().lock().unwrap().reordered, 1);
    }

    #[test]
    fn held_packet_released_on_dequeue_to_preserve_non_idling() {
        let mut a = PacketArena::new();
        let plan = FaultPlan::none().with_reorder(1.0, 100);
        let mut q = wrap(&plan, 9);
        let p0 = pkt(&mut a, 0);
        q.enqueue(p0, &mut a, SimTime::ZERO); // held, depth far away
        assert_eq!(q.len(), 1, "held packet must be visible in len()");
        assert!(q.byte_len() > 0);
        // Engine sees len() == 1 and polls dequeue: must not idle.
        let id = q.dequeue(&mut a, SimTime::ZERO).unwrap();
        assert_eq!(a.remove(id).id, 0);
        assert!(q.is_empty());
        assert_eq!(q.byte_len(), 0);
    }

    #[test]
    fn same_seed_same_fault_trace() {
        let plan = FaultPlan::none()
            .with_burst_loss(GilbertElliott::bursts(0.05, 3.0))
            .with_corrupt(0.02)
            .with_duplicate(0.02)
            .with_reorder(0.05, 3);
        let run = |seed: u64| {
            let mut a = PacketArena::new();
            let mut q = wrap(&plan, seed);
            let mut trace = Vec::new();
            for i in 0..500 {
                let id = pkt(&mut a, i);
                let out = q.enqueue(id, &mut a, SimTime::ZERO);
                trace.push(
                    out.dropped
                        .into_iter()
                        .map(|d| a.remove(d).id)
                        .collect::<Vec<_>>(),
                );
            }
            while let Some(id) = q.dequeue(&mut a, SimTime::ZERO) {
                trace.push(vec![a.remove(id).id]);
            }
            assert!(a.is_empty());
            (trace, q.stats().lock().unwrap().clone())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1);
    }

    #[test]
    fn enabling_corruption_does_not_shift_burst_stream() {
        // The burst-loss trace must be identical whether or not
        // corruption is also enabled: independent streams per source.
        let base = FaultPlan::none().with_burst_loss(GilbertElliott::bursts(0.05, 3.0));
        let both = base.clone().with_corrupt(0.0000001);
        let burst_victims = |plan: &FaultPlan| {
            let mut a = PacketArena::new();
            let mut q = wrap(plan, 11);
            for i in 0..2_000 {
                let id = pkt(&mut a, i);
                for d in q.enqueue(id, &mut a, SimTime::ZERO).dropped {
                    a.remove(d);
                }
            }
            q.stats().lock().unwrap().burst_losses
        };
        assert_eq!(burst_victims(&base), burst_victims(&both));
    }
}
