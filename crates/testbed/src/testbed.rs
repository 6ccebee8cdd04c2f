//! The assembled real-time testbed: one middlebox, one server, N
//! clients, each on its own thread.
//!
//! Substitutes for the paper's 4-machine Ethernet testbed (§5): the
//! same `Qdisc` implementations and the same `taq-tcp` hosts run
//! against wall-clock time with genuine OS scheduling jitter, which is
//! the property the paper's testbed experiments establish (that TAQ
//! works outside the simulator on modest hardware). An optional speedup
//! factor compresses the experiment without changing any relative
//! timing.

use crate::clock::ScaledClock;
use crate::hosts::{run_client, run_server};
use crate::middlebox::{run_middlebox, MbInput, MiddleboxStats};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use taq_sim::{Bandwidth, NodeId, Packet, Qdisc, SimDuration, SimTime};
use taq_tcp::{new_flow_log, ClientHost, FlowRecord, Request, ServerHost, TcpConfig};

/// The server's address; client `i` is node `10 + i`.
const SERVER: NodeId = NodeId(1);
const SERVER_PORT: u16 = 80;

/// Testbed parameters.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Bottleneck rate (both directions are paced at this rate; the
    /// reverse direction stays uncongested as ACKs are small).
    pub rate: Bandwidth,
    /// One-way propagation delay.
    pub one_way_delay: SimDuration,
    /// TCP configuration for all hosts.
    pub tcp: TcpConfig,
    /// Simulated nanoseconds per real nanosecond (>1 runs the
    /// experiment faster than real time).
    pub speedup: f64,
    /// Experiment horizon in simulated time.
    pub horizon: SimTime,
    /// When set, the testbed builds a telemetry hub with a JSONL sink
    /// writing to this file on the caller thread and moves it into the
    /// middlebox thread (the hub is `Send`), where the qdisc
    /// constructor receives it — a TAQ pair that attaches then produces
    /// the same event stream (flow states, classification, drops, link
    /// records) as an instrumented simulator run. `None` keeps
    /// telemetry fully disabled.
    pub telemetry_jsonl: Option<std::path::PathBuf>,
    /// When set, a [`taq_trace::TraceCollector`] flight recorder rides
    /// the middlebox's telemetry hub and writes its post-mortem span
    /// dump (the last [`taq_trace::TraceConfig::flight_capacity`] packet
    /// lifecycles, plus any still in flight) to this file — immediately
    /// when a crash-restart drill fires, otherwise at shutdown. Feed the
    /// dump to `trace_report --input` for analysis. Works with or
    /// without `telemetry_jsonl`.
    pub trace_dump: Option<std::path::PathBuf>,
    /// When set, a crash-restart drill fires mid-run: at
    /// [`RestartDrill::at`] (simulated time) the middlebox discards
    /// everything buffered, rebuilds its disciplines from scratch —
    /// losing all per-flow TAQ state — and stalls for
    /// [`RestartDrill::stall`]. Flows must reconverge on their own.
    pub restart: Option<RestartDrill>,
}

/// Parameters of the middlebox crash-restart drill.
#[derive(Debug, Clone, Copy)]
pub struct RestartDrill {
    /// Simulated time at which the middlebox "crashes". Should be
    /// before the horizon, or the drill never fires.
    pub at: SimTime,
    /// Simulated downtime before the rebuilt middlebox transmits again.
    pub stall: SimDuration,
}

/// One client's workload specification.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Objects to fetch, in order.
    pub requests: Vec<Request>,
    /// Parallel connection limit (the browser pool size).
    pub max_parallel: usize,
}

/// Results of a testbed run.
#[derive(Debug)]
pub struct TestbedReport {
    /// Completion records from every client (unfinished transfers have
    /// `completed_at = None`).
    pub records: Vec<FlowRecord>,
    /// Bottleneck counters.
    pub stats: MiddleboxStats,
}

/// Runs a complete testbed experiment. `make_qdiscs` is called inside
/// the middlebox thread — all disciplines (including `taq::TaqPair`,
/// whose halves share an `Arc<Mutex<_>>` core) are `Send`, so this is
/// a locality choice that keeps the queues on the thread that drives
/// them. It must return the (forward, reverse) pair and receives the
/// middlebox's [`taq_telemetry::Telemetry`] handle — active when
/// [`TestbedConfig::telemetry_jsonl`] is set, disabled otherwise — so
/// the discipline can attach its instrumentation.
pub fn run_testbed(
    cfg: TestbedConfig,
    make_qdiscs: impl FnMut(&taq_telemetry::Telemetry) -> (Box<dyn Qdisc>, Box<dyn Qdisc>)
        + Send
        + 'static,
    clients: Vec<ClientSpec>,
) -> TestbedReport {
    // One log for every client, as in a simulator scenario: records
    // land in global completion order, and each client adds its
    // unfinished transfers when it stops at the horizon.
    let log = new_flow_log();
    let hosts = clients
        .into_iter()
        .map(|spec| {
            let tcp = cfg.tcp.clone();
            let mut host =
                ClientHost::new(tcp, SERVER, SERVER_PORT, spec.max_parallel, log.clone());
            for req in spec.requests {
                host.push_request(req);
            }
            host
        })
        .collect();
    let (stats, _server, _clients) = run_hosts(cfg, make_qdiscs, hosts);
    let records = std::mem::take(&mut log.lock().expect("a client panicked").records);
    TestbedReport { records, stats }
}

/// [`run_testbed`] below the workload: one thread per ready-made client
/// host, the server and the middlebox. Returns the bottleneck counters
/// and every host as its thread left it.
fn run_hosts(
    cfg: TestbedConfig,
    make_qdiscs: impl FnMut(&taq_telemetry::Telemetry) -> (Box<dyn Qdisc>, Box<dyn Qdisc>)
        + Send
        + 'static,
    clients: Vec<ClientHost>,
) -> (MiddleboxStats, ServerHost, Vec<ClientHost>) {
    assert!(!clients.is_empty(), "no clients");
    let clock = ScaledClock::new(cfg.speedup);
    let (mb_tx, mb_rx) = channel::<MbInput>();
    let (stats_tx, stats_rx) = channel();

    // Host inbound channels, registered with the middlebox.
    let mut host_channels: HashMap<NodeId, Sender<Packet>> = HashMap::new();
    let (server_in_tx, server_in_rx) = channel::<Packet>();
    host_channels.insert(SERVER, server_in_tx);

    let mut client_handles: Vec<JoinHandle<ClientHost>> = Vec::new();
    for (i, host) in clients.into_iter().enumerate() {
        let me = NodeId(10 + i as u32);
        let (in_tx, in_rx) = channel::<Packet>();
        host_channels.insert(me, in_tx);
        let clock = clock.clone();
        let out = mb_tx.clone();
        let horizon = cfg.horizon;
        client_handles.push(std::thread::spawn(move || {
            run_client(clock, host, me, in_rx, out, horizon)
        }));
    }

    let mb_clock = clock.clone();
    let rate = cfg.rate;
    let delay = cfg.one_way_delay;
    // The hub is Send: build it (and its sinks) here, move it into the
    // middlebox thread fully wired.
    let telemetry = if cfg.telemetry_jsonl.is_some() || cfg.trace_dump.is_some() {
        let t = taq_telemetry::Telemetry::new();
        if let Some(path) = &cfg.telemetry_jsonl {
            match taq_telemetry::JsonlSink::create(path) {
                Ok(sink) => t.add_sink(sink),
                Err(e) => eprintln!("testbed: cannot write {}: {e}", path.display()),
            }
        }
        if let Some(path) = &cfg.trace_dump {
            // The restart drill emits a "restart" fault event, which
            // trips the recorder and dumps the ring at the crash
            // instant; an undisturbed run dumps at middlebox shutdown.
            t.add_sink(taq_trace::TraceCollector::new(taq_trace::TraceConfig {
                dump_path: Some(path.clone()),
                ..taq_trace::TraceConfig::default()
            }));
        }
        t
    } else {
        taq_telemetry::Telemetry::disabled()
    };
    let middlebox = std::thread::spawn(move || {
        run_middlebox(
            mb_clock,
            rate,
            delay,
            make_qdiscs,
            mb_rx,
            host_channels,
            stats_tx,
            telemetry,
        );
    });

    let server_clock = clock.clone();
    let server_host = ServerHost::new(cfg.tcp.clone(), SERVER_PORT);
    let server_out = mb_tx.clone();
    let server = std::thread::spawn(move || {
        run_server(server_clock, server_host, SERVER, server_in_rx, server_out)
    });

    // The restart drill runs on its own thread: sleep (in real time)
    // until the drill instant, then signal the middlebox. If the run
    // finishes first the send lands in a closed channel, harmlessly.
    let drill = cfg.restart.map(|drill| {
        let drill_clock = clock.clone();
        let drill_tx = mb_tx.clone();
        std::thread::spawn(move || {
            std::thread::sleep(drill_clock.real_until(drill.at));
            let _ = drill_tx.send(MbInput::Restart { stall: drill.stall });
        })
    });

    // Clients exit when done or at the horizon.
    let clients = client_handles
        .into_iter()
        .map(|handle| handle.join().expect("client thread panicked"))
        .collect();
    // A client leaves the moment its last FIN arrives; give its final
    // ACK time to cross, so the server closes that connection too.
    std::thread::sleep(clock.real_offset(SimTime::ZERO + cfg.one_way_delay * 4));
    // Orderly shutdown: the explicit signal breaks the middlebox loop
    // (the server still holds an input sender, so channel closure alone
    // would never fire); dropping the middlebox's host channels then
    // stops the server.
    if let Some(handle) = drill {
        handle.join().expect("restart drill thread panicked");
    }
    let _ = mb_tx.send(MbInput::Shutdown);
    drop(mb_tx);
    middlebox.join().expect("middlebox thread panicked");
    let server = server.join().expect("server thread panicked");
    let stats = stats_rx.recv().expect("middlebox reports stats");
    (stats, server, clients)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq_queues::DropTail;
    use taq_sim::UnboundedFifo;

    fn base_cfg() -> TestbedConfig {
        TestbedConfig {
            rate: Bandwidth::from_kbps(600),
            one_way_delay: SimDuration::from_millis(100),
            tcp: TcpConfig::default(),
            // 20x real time: a 60 s experiment runs in 3 s.
            speedup: 20.0,
            horizon: SimTime::from_secs(120),
            telemetry_jsonl: None,
            trace_dump: None,
            restart: None,
        }
    }

    #[test]
    fn single_client_download_completes() {
        let report = run_testbed(
            base_cfg(),
            |_| {
                (
                    Box::new(DropTail::with_packets(30)),
                    Box::new(UnboundedFifo::new()),
                )
            },
            vec![ClientSpec {
                requests: vec![Request {
                    tag: 1,
                    bytes: 30_000,
                }],
                max_parallel: 1,
            }],
        );
        assert_eq!(report.records.len(), 1);
        let r = &report.records[0];
        assert!(r.completed_at.is_some(), "transfer finished: {report:?}");
        // 30 KB at 600 Kbps ≈ 0.4 s serialization + slow start RTTs.
        let dl = r.download_time().unwrap().as_secs_f64();
        assert!((0.3..30.0).contains(&dl), "download time {dl}");
        assert!(report.stats.fwd_transmitted > 60);
    }

    #[test]
    fn restart_drill_drops_state_and_flows_reconverge() {
        use taq::{TaqConfig, TaqPair};
        let rate = Bandwidth::from_kbps(600);
        let mut cfg = base_cfg();
        cfg.rate = rate;
        cfg.horizon = SimTime::from_secs(240);
        // Crash 15 s in — mid-transfer for every client — and stay down
        // for 2 s of simulated time.
        cfg.restart = Some(RestartDrill {
            at: SimTime::from_secs(15),
            stall: SimDuration::from_secs(2),
        });
        let specs: Vec<ClientSpec> = (0..4)
            .map(|i| ClientSpec {
                requests: vec![Request {
                    tag: i,
                    bytes: 40_000,
                }],
                max_parallel: 1,
            })
            .collect();
        let report = run_testbed(
            cfg,
            move |_| {
                // Each invocation builds a *fresh* TAQ pair: the restart
                // really does lose all per-flow state.
                let pair = TaqPair::new(TaqConfig::for_link(rate));
                (Box::new(pair.forward) as _, Box::new(pair.reverse) as _)
            },
            specs,
        );
        assert_eq!(report.stats.restarts, 1, "drill fired exactly once");
        // Every flow survived the state loss and finished.
        assert_eq!(report.records.len(), 4);
        let done = report
            .records
            .iter()
            .filter(|r| r.completed_at.is_some())
            .count();
        assert_eq!(done, 4, "flows reconverge after restart: {report:?}");
    }

    #[test]
    fn restart_drill_writes_trace_dump() {
        use taq::{TaqConfig, TaqPair};
        let dump =
            std::env::temp_dir().join(format!("taq_testbed_trace_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&dump);
        let rate = Bandwidth::from_kbps(600);
        let mut cfg = base_cfg();
        cfg.rate = rate;
        cfg.horizon = SimTime::from_secs(240);
        cfg.trace_dump = Some(dump.clone());
        cfg.restart = Some(RestartDrill {
            at: SimTime::from_secs(15),
            stall: SimDuration::from_secs(2),
        });
        let specs: Vec<ClientSpec> = (0..4)
            .map(|i| ClientSpec {
                requests: vec![Request {
                    tag: i,
                    bytes: 40_000,
                }],
                max_parallel: 1,
            })
            .collect();
        let report = run_testbed(
            cfg,
            move |telemetry| {
                let pair = TaqPair::new(TaqConfig::for_link(rate));
                pair.attach_telemetry(telemetry.clone());
                (Box::new(pair.forward) as _, Box::new(pair.reverse) as _)
            },
            specs,
        );
        assert_eq!(report.stats.restarts, 1, "drill fired exactly once");
        // The "restart" fault tripped the recorder: the post-mortem dump
        // exists, parses, and holds real packet lifecycles.
        let text = std::fs::read_to_string(&dump).expect("post-mortem dump written");
        let parsed = taq_trace::TraceReport::parse(&text);
        assert!(parsed.trip.is_some(), "restart tripped the flight recorder");
        assert!(!parsed.spans.is_empty(), "dump holds spans");
        assert!(
            parsed.spans.iter().any(|s| s.outcome == "delivered"),
            "spans carry delivery outcomes"
        );
        let _ = std::fs::remove_file(&dump);
    }

    #[test]
    fn concurrent_clients_all_finish() {
        let specs: Vec<ClientSpec> = (0..4)
            .map(|i| ClientSpec {
                requests: vec![Request {
                    tag: i,
                    bytes: 20_000,
                }],
                max_parallel: 1,
            })
            .collect();
        let report = run_testbed(
            base_cfg(),
            |_| {
                (
                    Box::new(DropTail::with_packets(30)),
                    Box::new(UnboundedFifo::new()),
                )
            },
            specs,
        );
        assert_eq!(report.records.len(), 4);
        let done = report
            .records
            .iter()
            .filter(|r| r.completed_at.is_some())
            .count();
        assert_eq!(done, 4, "all transfers finish: {report:?}");
    }
    /// The client a testbed thread runs is `taq-tcp`'s, so a TAQ
    /// rejection notice (the RST with a wait hint) reschedules its SYN
    /// at the hint instead of being discarded in favour of blind
    /// backoff (1 s, 2 s, 4 s — two retries before the 3 s hint).
    #[test]
    fn rejection_notice_moves_the_retry_to_the_hinted_wait() {
        use taq::{TaqConfig, TaqPair};
        let cfg = base_cfg();
        let rate = cfg.rate;
        let (handle_tx, handle_rx) = channel();
        let log = new_flow_log();
        let mut client = ClientHost::new(cfg.tcp.clone(), SERVER, SERVER_PORT, 1, log.clone());
        client.push_request(Request {
            tag: 1,
            bytes: 20_000,
        });
        let (stats, _server, clients) = run_hosts(
            cfg,
            move |_| {
                let mut taq = TaqConfig::for_link(rate).with_admission_control();
                taq.reject_feedback = true;
                let pair = TaqPair::new(taq);
                // Hold the loss meter far above `p_thresh` through the
                // shared handle: with no admitted traffic to dilute
                // them, these losses stay in its window until the pool
                // has waited out `admission_twait`, which releases it.
                let mut state = pair.state.lock().unwrap();
                for _ in 0..100 {
                    state.record_external_loss(SimTime::ZERO);
                }
                drop(state);
                handle_tx.send(pair.state.clone()).unwrap();
                (Box::new(pair.forward) as _, Box::new(pair.reverse) as _)
            },
            vec![client],
        );
        let taq = handle_rx.recv().unwrap();
        let rejected = taq.lock().unwrap().stats.syns_rejected;
        assert_eq!(rejected, 1, "first SYN refused, the retry admitted");
        assert_eq!(stats.rev_dropped, 1);
        assert_eq!(
            clients[0].rejections_seen, 1,
            "the notice reached the client"
        );
        let records = &log.lock().unwrap().records;
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert!(r.completed_at.is_some(), "completes once admitted: {r:?}");
        assert_eq!(r.syn_retries, 1, "one retry, at the hint: {r:?}");
        let wait = r.established_at.unwrap().saturating_since(r.first_syn_at);
        // Notice back (~0.1 s) + the 3 s hint + the handshake (~0.2 s).
        assert!(
            (3.0..4.5).contains(&wait.as_secs_f64()),
            "connected {wait:?} after the first SYN"
        );
    }

    /// Connection slots are `ServerHost`'s: 200 sequential connections
    /// leave 200 accepts and nothing behind.
    #[test]
    fn server_reuses_connection_slots_across_many_short_flows() {
        let mut cfg = base_cfg();
        cfg.horizon = SimTime::from_secs(600);
        let log = new_flow_log();
        let mut client = ClientHost::new(cfg.tcp.clone(), SERVER, SERVER_PORT, 2, log.clone());
        for tag in 0..200 {
            client.push_request(Request { tag, bytes: 1_500 });
        }
        let (_stats, server, clients) = run_hosts(
            cfg,
            |_| {
                (
                    Box::new(DropTail::with_packets(30)),
                    Box::new(UnboundedFifo::new()),
                )
            },
            vec![client],
        );
        assert_eq!(clients[0].completed, 200);
        assert_eq!(server.accepted, 200);
        assert_eq!(server.live_connections(), 0);
    }
}
