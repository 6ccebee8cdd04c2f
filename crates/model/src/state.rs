//! The states of the paper's chains, as values.
//!
//! Both chains are made of three kinds of state: a window sending `n`
//! segments an epoch, a silent wait epoch of a backoff stage, and the
//! one-segment retransmission that ends a stage's wait. What a state
//! sends and which backoff stage it is in are read off its variant, so
//! every aggregation over a chain (packets sent per epoch, timeout mass,
//! backoff depth) is one match over [`State`]s.

use std::fmt;

/// A backoff stage: which timeout in a row a silent flow waits out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Stage `j`, waited out exactly: the full chain's stage `j ≥ 1` is
    /// `2^j − 1` silent epochs under the timer `2^j · T0/2`. The partial
    /// chain tracks no stage: its one-epoch simple-timeout wait `b0` is
    /// stage 0.
    At(u32),
    /// Every stage from the given one on, aggregated into one geometric
    /// wait: the full chain's tail past its deepest explicit stage `K`
    /// (`Tail(K + 1)`) and the partial chain's `b*` (`Tail(0)`).
    Tail(u32),
}

/// A state of the partial (Fig. 4) or the full (Fig. 5) chain. Its
/// [`Display`](fmt::Display) is the state's name in the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// `Window(n, tag)`: a window of `n` segments an epoch. `tag` is the
    /// backoff stage the full chain's windows 2 and 3 remember until new
    /// data is acknowledged (`Some(0)`: none); windows without one, the
    /// partial chain's among them, have `None`. The partial chain's
    /// timeout retransmission `S1` is window 1.
    Window(u32, Option<u32>),
    /// `Wait(stage, epoch)`: silent epoch `epoch` of `stage`, from 1 (1
    /// for an aggregated wait).
    Wait(Stage, u32),
    /// `Retransmit(stage)`: the one-segment retransmission that ends
    /// `stage`'s wait.
    Retransmit(Stage),
}

impl State {
    /// Segments sent in an epoch spent in this state.
    pub fn sends(self) -> u32 {
        match self {
            State::Window(n, _) => n,
            State::Wait(..) => 0,
            State::Retransmit(_) => 1,
        }
    }

    /// The backoff stage of a wait or retransmission (an aggregated tail
    /// counts as its first stage); `None` for a window.
    pub fn backoff_stage(self) -> Option<u32> {
        match self {
            State::Window(..) => None,
            State::Wait(stage, _) | State::Retransmit(stage) => match stage {
                Stage::At(j) | Stage::Tail(j) => Some(j),
            },
        }
    }
}

/// A distribution over `states` summed by segments sent per epoch
/// ([`State::sends`]): index 0 is silence, index `n` the states sending
/// `n`, up to the widest window.
pub(crate) fn n_sent(states: &[State], pi: &[f64]) -> Vec<f64> {
    let widest = states.iter().map(|s| s.sends()).max().unwrap_or(0);
    let mut out = vec![0.0; widest as usize + 1];
    for (state, mass) in states.iter().zip(pi) {
        out[state.sends() as usize] += mass;
    }
    out
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            State::Window(n, None) => write!(f, "S{n}"),
            State::Window(n, Some(j)) => write!(f, "S{n}^{j}"),
            // Stage 0 is the partial chain's, which names its waits b.
            State::Wait(Stage::At(0), _) => f.write_str("b0"),
            State::Wait(Stage::Tail(0), _) => f.write_str("b*"),
            State::Wait(Stage::At(j), epoch) => write!(f, "W{j},{epoch}"),
            State::Wait(Stage::Tail(_), _) => f.write_str("Wtail"),
            State::Retransmit(Stage::At(j)) => write!(f, "R{j}"),
            State::Retransmit(Stage::Tail(_)) => f.write_str("Rtail"),
        }
    }
}
