//! The dumbbell's parameters.
//!
//! All of the paper's simulations use a dumbbell: many sender hosts on
//! one side, many receiver hosts on the other, two routers, and a single
//! bottleneck link whose queueing discipline is the object under study.
//! That shape is the two-router, one-pipe case of [`crate::Topology`];
//! [`DumbbellConfig`] holds its rates and delays, and
//! `taq_workloads::DumbbellSpec` turns them into a topology.

use crate::time::{Bandwidth, SimDuration};

/// Parameters for a dumbbell topology.
#[derive(Debug, Clone)]
pub struct DumbbellConfig {
    /// Bottleneck link rate (the paper sweeps 200 Kbps – 2 Mbps).
    pub bottleneck_rate: Bandwidth,
    /// One-way propagation delay of the bottleneck link itself.
    pub bottleneck_delay: SimDuration,
    /// Access link rate (fast enough never to be the bottleneck).
    pub access_rate: Bandwidth,
    /// Default one-way access link delay (per side).
    pub access_delay: SimDuration,
}

impl DumbbellConfig {
    /// A configuration giving the paper's canonical 200 ms propagation
    /// RTT: 1 ms access links on both sides and a 96 ms bottleneck
    /// (2×(1+1) + 2×96 = 196 ms, plus serialization ≈ 200 ms observed).
    pub fn with_rtt_200ms(bottleneck_rate: Bandwidth) -> Self {
        DumbbellConfig {
            bottleneck_rate,
            bottleneck_delay: SimDuration::from_millis(96),
            access_rate: Bandwidth::from_mbps(100),
            access_delay: SimDuration::from_millis(1),
        }
    }

    /// Total one-way propagation delay host-to-host with default access
    /// delays.
    pub fn one_way_delay(&self) -> SimDuration {
        self.access_delay * 2 + self.bottleneck_delay
    }

    /// Propagation round-trip time with default access delays (excludes
    /// serialization and queueing).
    pub fn prop_rtt(&self) -> SimDuration {
        self.one_way_delay() * 2
    }
}
