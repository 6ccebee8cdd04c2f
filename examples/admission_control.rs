//! Admission control under extreme contention (paper §4.3 / Figure 12).
//!
//! Pushes the link past the model's tipping point (loss > p_thresh =
//! 0.1), at which point plain queueing cannot save anyone — the paper's
//! own conclusion. TAQ's admission controller stops admitting *new*
//! flow pools, lets admitted ones finish predictably, and guarantees
//! waiting pools admission within Twait. The example prints completion
//! statistics with the admission wait charged to download time, plus
//! the controller's own counters.
//!
//! Run with: `cargo run --release --example admission_control`

use taq_metrics::Distribution;
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimRng, SimTime};
use taq_workloads::{generate_session, DumbbellSpec, ObjectSizeModel, QdiscSpec, SessionConfig};

struct Outcome {
    completed: usize,
    total: usize,
    times: Distribution,
    syns_rejected: u64,
}

fn run(admission: bool) -> Outcome {
    let topo = DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(600));
    let buffer_pkts = topo.buffer_pkts();
    let qdisc = if admission {
        QdiscSpec::taq_admission(buffer_pkts)
    } else {
        QdiscSpec::DropTail { buffer_pkts }
    };
    let mut sc = DumbbellSpec::new(topo).build(42, &qdisc);

    // 100 users browsing episodically — pages of a few objects
    // separated by think times longer than TAQ's pool window, so each
    // page load is a fresh flow pool the admission controller can pace.
    // Aggregate demand oversubscribes the 600 Kbps link.
    let session_cfg = SessionConfig {
        pages_per_user: 12,
        objects_per_page: (3, 5),
        mean_think_time: SimDuration::from_secs(15),
        sizes: ObjectSizeModel {
            mu: 9.4,
            sigma: 0.7,
            tail_prob: 0.0,
            tail_scale: 1.0,
            tail_alpha: 1.0,
            min_bytes: 5_000,
            max_bytes: 50_000,
        },
    };
    let mut rng = SimRng::new(3);
    for u in 0..100u64 {
        let mut user_rng = rng.split(u);
        let session = generate_session(&session_cfg, u << 20, &mut user_rng);
        let entries: Vec<taq_workloads::weblog::LogEntry> = session
            .requests
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
    let horizon = SimTime::from_secs(330);
    sc.run_until(horizon);

    let records = sc.log.lock().unwrap();
    let times = Distribution::from_samples(
        records
            .records
            .iter()
            .filter_map(|r| r.download_time().map(|d| d.as_secs_f64()))
            .collect(),
    );
    Outcome {
        completed: times.len(),
        total: records.records.len(),
        times,
        syns_rejected: sc
            .taq_state(0)
            .map_or(0, |s| s.lock().unwrap().stats.syns_rejected),
    }
}

fn main() {
    println!("100 browsing users (pools of 4) over 600 Kbps — past the tipping point\n");
    for admission in [false, true] {
        let label = if admission {
            "taq + admission control"
        } else {
            "droptail (no admission)"
        };
        let o = run(admission);
        println!("{label}:");
        println!(
            "  completed {}/{} objects; download time median {:.1}s, p90 {:.1}s, max {:.1}s",
            o.completed,
            o.total,
            o.times.median().unwrap_or(f64::NAN),
            o.times.quantile(0.9).unwrap_or(f64::NAN),
            o.times.max().unwrap_or(f64::NAN),
        );
        if admission {
            println!(
                "  admission controller rejected {} SYNs (clients retried until admitted)",
                o.syns_rejected
            );
        }
        println!();
    }
}
