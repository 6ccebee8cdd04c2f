//! Figure 10: behaviour of TAQ with short flows.
//!
//! Mixes short flows of 1–80 packets into a background of 50 long-lived
//! flows over a 1 Mbps bottleneck (the paper's setup: 32 short flows,
//! 20 Kbps fair share) and reports each short flow's download time
//! against its length. Expected shape: under TAQ, short-flow download
//! times grow roughly linearly with packet count while they fit the
//! NewFlow/slow-start classification, with variance blowing up once a
//! flow outgrows the "short" boundary.
//!
//! Usage: `taq-bench fig10_short_flows [--full] [discipline]`

use taq_bench::{Discipline, SweepArgs};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration};
use taq_workloads::{DumbbellSpec, BULK_BYTES};

pub fn run(args: SweepArgs) {
    let discipline = args.discipline.unwrap_or(Discipline::Taq);
    let seed = args.seeds[0];
    let topo = DumbbellConfig::with_rtt_200ms(Bandwidth::from_mbps(1));
    let qdisc = discipline.spec(topo.buffer_pkts());
    let mut sc = DumbbellSpec::new(topo).build(seed, &qdisc);
    // Background: 50 long-lived flows (20 Kbps fair share).
    sc.add_bulk_clients(50, BULK_BYTES, SimDuration::from_secs(2));
    // 32 short flows of varying length, staggered into the steady state.
    let start_base = args.duration(40, 40, 120);
    let mut short_tags = Vec::new();
    for i in 0..32u64 {
        let packets = 1 + (i * 80) / 31; // 1..=81 packets
        let bytes = packets * u64::from(taq_tcp::MSS);
        let start = start_base + SimDuration::from_secs(4 * i);
        sc.add_bulk_client(bytes, start);
        short_tags.push((sc.clients.len() as u64 - 1, packets));
    }
    let horizon = start_base + SimDuration::from_secs(4 * 32 + 240);
    sc.run_until(horizon);

    println!(
        "# Figure 10 reproduction — short flows over 50 long flows, 1 Mbps, {}",
        discipline.name()
    );
    println!("# packets  bytes  download_time_s  completed");
    let records = sc.log.lock().unwrap();
    for (tag, packets) in short_tags {
        let rec = records
            .records
            .iter()
            .find(|r| r.tag == tag)
            .expect("every short flow was requested");
        match rec.download_time() {
            Some(d) => println!(
                "{packets:>8} {:>6} {:>16.2} {:>9}",
                rec.bytes,
                d.as_secs_f64(),
                "yes"
            ),
            None => println!("{packets:>8} {:>6} {:>16} {:>9}", rec.bytes, "-", "no"),
        }
    }
}
