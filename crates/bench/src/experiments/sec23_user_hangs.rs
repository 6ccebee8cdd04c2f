//! §2.3: user-perceived hangs on a pathologically shared link.
//!
//! Users each hold a pool of 4 TCP connections browsing continuously
//! over a 1 Mbps bottleneck (200 ms RTT, one RTT of buffer). A hang is
//! an interval in which *none* of a user's connections delivers data.
//! Expected shape (paper): with 200 users every user sees at least one
//! hang longer than 20 s; with 400 users about half see a hang longer
//! than a minute. The TAQ column shows the same workload through TAQ.
//!
//! The (users × discipline × seed) grid fans across the sweep pool;
//! hang fractions are averaged over seeds per cell.
//!
//! Usage: `taq-bench sec23_user_hangs [--seeds a,b,c | --runs N]
//! [--threads N] [--full] [--smoke]`

use taq_bench::{mean, sweep_cells, Discipline, SweepArgs};
use taq_metrics::HangTracker;
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimRng, SimTime};
use taq_workloads::{generate_session, DumbbellSpec, SessionConfig};

fn hangs(
    spec: &DumbbellSpec,
    seed: u64,
    users: usize,
    discipline: Discipline,
    secs: u64,
) -> (f64, f64, usize) {
    let mut sc = spec.build(seed, &discipline.spec(spec.topo.buffer_pkts()));
    let horizon = SimTime::from_secs(secs);
    let bottleneck = sc.db.bottleneck;
    let hangs = sc.sim.add_monitor(Box::new(HangTracker::new(
        bottleneck,
        SimTime::from_secs(5),
        horizon,
    )));
    let mut rng = SimRng::new(seed ^ 99);
    let session_cfg = SessionConfig {
        pages_per_user: 10_000, // Effectively continuous browsing.
        mean_think_time: SimDuration::from_secs(3),
        ..SessionConfig::browsing_default()
    };
    for u in 0..users {
        let mut user_rng = rng.split(u as u64);
        let session = generate_session(&session_cfg, (u as u64) << 32, &mut user_rng);
        // Feed requests up to the horizon only.
        let reqs: Vec<_> = session
            .requests
            .into_iter()
            .take_while(|(t, _)| *t < horizon)
            .collect();
        let entries: Vec<taq_workloads::weblog::LogEntry> = reqs
            .iter()
            .map(|(t, r)| taq_workloads::weblog::LogEntry {
                at: *t,
                client: u as u32,
                bytes: r.bytes,
                tag: r.tag,
            })
            .collect();
        sc.add_scheduled_client(&entries, 4, SimTime::ZERO);
    }
    sc.run_until(horizon);
    let hangs = sc.sim.monitor::<HangTracker>(hangs).expect("hang monitor");
    let over_20 = hangs.fraction_with_hang(SimDuration::from_secs(20));
    let over_60 = hangs.fraction_with_hang(SimDuration::from_secs(60));
    (over_20, over_60, hangs.users())
}

pub fn run(args: SweepArgs) {
    let secs = args.secs(60, 300, 900);
    let user_counts: &[usize] = if args.smoke { &[100] } else { &[200, 400] };
    let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(Bandwidth::from_mbps(1)));

    // Grid order (users, discipline) fixes the merged output.
    let cells: Vec<(usize, Discipline)> = user_counts
        .iter()
        .flat_map(|&users| [Discipline::DropTail, Discipline::Taq].map(|d| (users, d)))
        .collect();
    let results = sweep_cells(&cells, &args.seeds, args.threads, |&(users, d), seed| {
        hangs(&spec, seed, users, d, secs)
    });

    println!("# §2.3 reproduction — user-perceived hangs (pool of 4 connections each)");
    println!("# users  discipline  frac_hang>20s  frac_hang>60s  users_seen");
    for (&(users, d), chunk) in cells.iter().zip(results) {
        let h20 = mean(chunk.iter().map(|r| r.0));
        let h60 = mean(chunk.iter().map(|r| r.1));
        let seen = chunk.iter().map(|r| r.2).sum::<usize>() / chunk.len();
        println!(
            "{users:>6} {:>11} {h20:>14.2} {h60:>14.2} {seen:>10}",
            d.name()
        );
    }
}
