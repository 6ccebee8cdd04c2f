//! TAQ placement across multi-bottleneck topologies.
//!
//! The dumbbell experiments place TAQ *at* the bottleneck; a real path
//! has several candidate hops. This sweep asks where along the path the
//! discipline must sit to recover small-packet fairness:
//!
//! - **parking lot** — `hops` equal bottlenecks in series, main flows
//!   traversing all of them plus per-hop cross traffic. TAQ is placed
//!   at each hop in turn (and nowhere, for the DropTail baseline); each
//!   row reports one hop's mean 20-second-slice Jain index and
//!   timeout-silence (shutout) fraction, averaged over seeds.
//! - **access tree** — slow access links feeding one shared uplink.
//!   DropTail everywhere vs TAQ on the uplink vs TAQ on every leaf,
//!   reporting the uplink and the mean leaf fairness.
//!
//! Expected shape: fairness recovers only at the TAQ hop — upstream
//! DropTail hops keep shutting flows out, so placement at the *first*
//! saturated hop dominates; in the tree, uplink placement helps only
//! the aggregate while leaf placement fixes each neighbourhood.
//!
//! Usage: `taq-bench topo_placement [--seeds a,b,c | --runs N] [--threads N]
//! [--full | --smoke]`

use taq_bench::{sweep_seeds, SweepArgs};
use taq_metrics::SliceThroughput;
use taq_sim::{Bandwidth, LinkId, SimDuration, SimTime};
use taq_workloads::{AccessTreeSpec, ParkingLotSpec, QdiscSpec, TopoScenario};

/// One link's fairness summary over the steady part of a run.
#[derive(Debug, Clone, Copy)]
struct LinkReport {
    mean_jain: f64,
    shutout: f64,
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Attaches a slice monitor to every listed link, runs the scenario,
/// and summarizes each link across the post-transient slices.
fn run_with_monitors(
    mut sc: TopoScenario,
    links: &[(LinkId, usize)],
    duration: SimTime,
    slice: SimDuration,
) -> Vec<LinkReport> {
    let monitors: Vec<_> = links
        .iter()
        .map(|&(link, _)| {
            sc.sim
                .add_monitor(Box::new(SliceThroughput::new(link, slice)))
        })
        .collect();
    sc.run_until(duration);
    let n_slices = (duration.as_nanos() / slice.as_nanos()) as usize;
    let skip = 1.min(n_slices.saturating_sub(1));
    monitors
        .iter()
        .zip(links)
        .map(|(&id, &(_, flows))| {
            let m = sc
                .sim
                .monitor::<SliceThroughput>(id)
                .expect("slice monitor");
            LinkReport {
                mean_jain: m.mean_jain(skip, n_slices, flows),
                shutout: mean((skip..n_slices).map(|i| m.shutout_fraction(i, flows))),
            }
        })
        .collect()
}

fn parking_lot(args: &SweepArgs, duration: SimTime, slice: SimDuration) {
    let hops = if args.smoke { 2 } else { 3 };
    let rate = Bandwidth::from_kbps(400);
    let base = ParkingLotSpec::new(hops, rate);
    println!(
        "# TAQ placement — {hops}-hop parking lot, {} kbps per hop, \
         {} main flows + {} cross flows per hop, {} seed(s)",
        rate.bps() / 1_000,
        base.main_flows,
        base.cross_flows_per_hop,
        args.seeds.len()
    );
    println!("# placement      hop  mean_jain  shutout_fraction");
    let placements: Vec<Option<usize>> = std::iter::once(None).chain((0..hops).map(Some)).collect();
    for placement in placements {
        let mut spec = base.clone();
        if let Some(h) = placement {
            spec = spec.taq_at(h);
        }
        let per_seed = sweep_seeds(&args.seeds, args.threads, |seed| {
            let sc = spec.build(seed);
            let links: Vec<(LinkId, usize)> = (0..spec.hops)
                .map(|k| (sc.pipe_link(k), spec.flows_at_hop(k)))
                .collect();
            run_with_monitors(sc, &links, duration, slice)
        });
        let name = match placement {
            None => "droptail".to_string(),
            Some(h) => format!("taq@hop{h}"),
        };
        for k in 0..hops {
            println!(
                "{name:>11} {k:>8} {:>10.3} {:>17.3}",
                mean(per_seed.iter().map(|r| r[k].mean_jain)),
                mean(per_seed.iter().map(|r| r[k].shutout))
            );
        }
    }
}

fn access_tree(args: &SweepArgs, duration: SimTime, slice: SimDuration) {
    let leaves = if args.smoke { 2 } else { 3 };
    let uplink = Bandwidth::from_kbps(600);
    let leaf = Bandwidth::from_kbps(300);
    let base = AccessTreeSpec::new(leaves, uplink, leaf);
    let uplink_taq = QdiscSpec::taq(uplink.packets_per(SimDuration::from_millis(200), 500));
    let leaf_taq = QdiscSpec::taq(leaf.packets_per(SimDuration::from_millis(200), 500).max(8));
    println!();
    println!(
        "# TAQ placement — access tree, {leaves} leaves × {} clients, \
         uplink {} kbps, leaves {} kbps",
        base.clients_per_leaf,
        uplink.bps() / 1_000,
        leaf.bps() / 1_000
    );
    println!("# placement    uplink_jain  uplink_shutout  leaf_jain  leaf_shutout");
    let variants: Vec<(&str, AccessTreeSpec)> = vec![
        ("droptail", base.clone()),
        ("taq-uplink", {
            let mut s = base.clone();
            s.uplink_qdisc = uplink_taq;
            s
        }),
        ("taq-leaves", {
            let mut s = base.clone();
            s.leaf_qdisc = leaf_taq;
            s
        }),
    ];
    for (name, spec) in variants {
        let per_seed = sweep_seeds(&args.seeds, args.threads, |seed| {
            let sc = spec.build(seed);
            let total = spec.leaves * spec.clients_per_leaf;
            let mut links: Vec<(LinkId, usize)> = vec![(sc.pipe_link(0), total)];
            for i in 0..spec.leaves {
                links.push((sc.pipe_link(spec.leaf_pipe(i)), spec.clients_per_leaf));
            }
            run_with_monitors(sc, &links, duration, slice)
        });
        let uplink_jain = mean(per_seed.iter().map(|r| r[0].mean_jain));
        let uplink_shutout = mean(per_seed.iter().map(|r| r[0].shutout));
        let leaf_jain = mean(
            per_seed
                .iter()
                .flat_map(|r| r[1..].iter().map(|l| l.mean_jain)),
        );
        let leaf_shutout = mean(
            per_seed
                .iter()
                .flat_map(|r| r[1..].iter().map(|l| l.shutout)),
        );
        println!(
            "{name:>11} {uplink_jain:>13.3} {uplink_shutout:>15.3} {leaf_jain:>10.3} {leaf_shutout:>13.3}"
        );
    }
}

pub fn run(args: SweepArgs) {
    let duration = args.duration(40, 120, 600);
    let slice = SimDuration::from_secs(args.secs(10, 20, 20));
    parking_lot(&args, duration, slice);
    access_tree(&args, duration, slice);
}
