//! The run skeleton the batch workloads share: repeated set-up, a timed
//! phase, and the traced replay of the same operations.

use crate::layers::{self, SelfTimes, OP};
use crate::stats;
use std::time::Instant;

/// Set-ups before the timed phase; the operations use the state the
/// last one built.
pub const SETUP_REPS: usize = 5;
/// Further set-ups spread evenly over the timed phase, between
/// operations, so that `setup_s` does not hang on the host's load in
/// the run's first second.
pub const SETUP_SPREAD: usize = 30;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Root seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Durations of a run's set-ups, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Runs and times one set-up.
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let state = setup()?;
        self.0.push(t.elapsed().as_secs_f64());
        Ok(state)
    }

    /// Runs `setup` `reps` times; returns the last result.
    ///
    /// # Errors
    ///
    /// The first set-up error.
    pub fn repeat<T>(
        &mut self,
        reps: usize,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = self.time(&mut setup)?;
        for _ in 1..reps {
            last = self.time(&mut setup)?;
        }
        Ok(last)
    }

    /// `setup_s`: the set-ups read at their fast end, like every other
    /// timing (see [`stats::fast_time`]).
    #[must_use]
    pub fn value(&self) -> f64 {
        stats::fast_time(&self.0)
    }
}

/// The timed phase of a run: all of `seconds` untraced, or in a traced
/// run the `untraced_share` of it that the traced replay is measured
/// against.
#[must_use]
pub fn untraced_seconds(cfg: &RunConfig, untraced_share: f64) -> f64 {
    if cfg.trace {
        cfg.seconds * untraced_share
    } else {
        cfg.seconds
    }
}

/// Operations a phase ran and their summed wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    /// Operations completed.
    pub ops: u64,
    /// Summed wall time of the operations, in seconds.
    pub busy_s: f64,
}

/// Runs `op(0)`, `op(1)`, … until `seconds` have passed and at least
/// `min_ops` ran, with [`SETUP_SPREAD`] timed set-ups between them,
/// each once its share of `seconds` has passed.
///
/// # Errors
///
/// The first operation or set-up error.
pub fn run_for(
    seconds: f64,
    min_ops: u64,
    setups: &mut Setups,
    mut setup: impl FnMut() -> Result<(), String>,
    mut op: impl FnMut(u64) -> Result<(), String>,
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut spread = 0;
    while phase.ops < min_ops || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        op(phase.ops)?;
        phase.busy_s += t.elapsed().as_secs_f64();
        phase.ops += 1;
        let due = seconds * (spread as f64 + 0.5) / SETUP_SPREAD as f64;
        if spread < SETUP_SPREAD && start.elapsed().as_secs_f64() >= due {
            setups.time(&mut setup)?;
            spread += 1;
        }
    }
    Ok(phase)
}

/// Replays operations `0..n` with tracing on, each under the root
/// [`OP`] span, draining the recorder after every operation. Returns the
/// phase and the span totals.
///
/// # Errors
///
/// The first operation error.
pub fn traced_replay(
    n: u64,
    mut op: impl FnMut(u64) -> Result<(), String>,
) -> Result<(Phase, SelfTimes), String> {
    layers::start();
    let mut times = SelfTimes::default();
    let mut phase = Phase::default();
    for k in 0..n {
        let t = Instant::now();
        {
            let _root = OP.enter();
            op(k)?;
        }
        phase.busy_s += t.elapsed().as_secs_f64();
        phase.ops += 1;
        times.drain();
    }
    m7_trace::disable();
    Ok((phase, times))
}
