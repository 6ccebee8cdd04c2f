//! The closed vocabularies events carry: the tracker's states, the
//! scheduler's classes, admission decisions and fault kinds. Each is an
//! enum, so a sink counts one in a fixed array indexed by the value and
//! only a reader that renders it spells its name.

use std::fmt;

/// Declares a fieldless enum with its names: `ALL` lists the
/// values in declaration order (a value's position in it is
/// `value as usize`), `name()` returns the string events and reports
/// spell it with, and `Display` writes that name.
macro_rules! vocabulary {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $($(#[$vmeta:meta])* $variant:ident => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $ty {
            $($(#[$vmeta])* $variant,)+
        }

        impl $ty {
            /// Every value, in declaration order.
            pub const ALL: [$ty; [$($ty::$variant),+].len()] = [$($ty::$variant),+];

            /// Stable human- and machine-readable name, used in
            /// telemetry output and report rendering.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

vocabulary! {
    /// The approximate per-flow state a middlebox tracks (paper Figure 7).
    pub enum FlowState {
        /// Exponential window growth: significant growth in new packets
        /// per epoch.
        SlowStart => "SlowStart",
        /// No losses, roughly steady or slowly growing packet counts.
        Normal => "Normal",
        /// The middlebox dropped (or observed the effects of) a loss and
        /// expects retransmissions.
        ExplicitLossRecovery => "ExplicitLossRecovery",
        /// A silent epoch following a loss: the sender is waiting out
        /// its RTO.
        TimeoutSilence => "TimeoutSilence",
        /// Retransmissions after a timeout.
        TimeoutRecovery => "TimeoutRecovery",
        /// Multiple consecutive silent epochs: repetitive timeouts.
        ExtendedSilence => "ExtendedSilence",
        /// Silence with no reason to suspect a timeout (no recent
        /// losses): the flow simply has nothing to send.
        DummySilence => "DummySilence",
    }
}

impl FlowState {
    /// `true` for the states in which the flow is transmitting nothing.
    pub fn is_silent(self) -> bool {
        matches!(
            self,
            FlowState::TimeoutSilence | FlowState::ExtendedSilence | FlowState::DummySilence
        )
    }

    /// `true` for states reached through a timeout.
    pub fn is_timeout(self) -> bool {
        matches!(
            self,
            FlowState::TimeoutSilence | FlowState::TimeoutRecovery | FlowState::ExtendedSilence
        )
    }
}

vocabulary! {
    /// Which TAQ class a flow is assigned to; `ALL` is scheduler-priority
    /// order.
    pub enum QueueClass {
        /// Flows retransmitting after losses (Level 1).
        Recovery => "Recovery",
        /// New flows in slow start (Level 2).
        NewFlow => "NewFlow",
        /// Flows recently dropped on or mid-recovery (Level 2).
        OverPenalized => "OverPenalized",
        /// Flows under their fair share (Level 2).
        BelowFairShare => "BelowFairShare",
        /// Flows over their fair share (Level 3).
        AboveFairShare => "AboveFairShare",
    }
}

impl QueueClass {
    /// The class's position in [`QueueClass::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

vocabulary! {
    /// Admission control's decision for one SYN.
    pub enum AdmissionDecision {
        /// Forward the SYN.
        Admit => "admit",
        /// Drop the SYN; the client will retry.
        Reject => "reject",
    }
}

vocabulary! {
    /// What the fault-injection layer did to traffic.
    pub enum FaultKind {
        /// A Gilbert–Elliott burst dropped the packet.
        BurstLoss => "burst_loss",
        /// The packet was held back and released after others.
        Reorder => "reorder",
        /// A copy of the packet was offered ahead of it.
        Duplicate => "duplicate",
        /// The packet was corrupted, so it is as good as dropped.
        Corrupt => "corrupt",
        /// The link was dead and dropped the packet.
        Blackout => "blackout",
        /// The link's rate changed.
        RateChange => "rate_change",
        /// The link's propagation delay changed.
        DelayChange => "delay_change",
        /// The middlebox restarted and lost its queues.
        Restart => "restart",
    }
}

impl FaultKind {
    /// `true` for the faults that end a packet: the fault layer rejects
    /// it and the engine records the drop.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            FaultKind::Blackout | FaultKind::BurstLoss | FaultKind::Corrupt
        )
    }
}
