//! # taq-testbed — real-time emulation harness
//!
//! The testbed substitute for the paper's 4-machine physical setup
//! (§5's Click and C#/SharpPcap prototypes): a multi-threaded userspace
//! emulation in which the *same* `Qdisc` implementations (DropTail or
//! `taq::TaqPair`) and the *same* `taq-tcp` hosts (`ServerHost`,
//! `ClientHost` and the state machines under them) run against
//! wall-clock time, exposed to genuine OS scheduling jitter. Unlike the
//! deterministic simulator, testbed runs vary — which is exactly the
//! property the paper's testbed section demonstrates: the discipline
//! works outside the simulator on modest hardware.
//!
//! - [`ScaledClock`] — wall-clock → simulation-time mapping with an
//!   optional speedup so long experiments compress;
//! - [`run_middlebox`] — token-paced bidirectional bottleneck around a
//!   qdisc pair;
//! - [`run_server`] / [`run_client`] — host threads: a `taq-tcp` host
//!   driven through a wall-clock `taq_tcp::HostEnv` (clock, channel
//!   into the middlebox, timer heap);
//! - [`run_testbed`] — the one-call experiment assembly.

mod clock;
mod hosts;
mod middlebox;
mod testbed;

pub use clock::ScaledClock;
pub use hosts::{run_client, run_server};
pub use middlebox::{
    run_middlebox, Crossing, Direction, MbInput, MiddleboxStats, TELEMETRY_FORWARD_LINK,
};
pub use testbed::{run_testbed, ClientSpec, RestartDrill, TestbedConfig, TestbedReport};
