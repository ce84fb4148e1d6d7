//! Workload inputs, derived from the run seed alone.
//!
//! Every input a workload hands the program is a pure function of
//! `(seed, stream, index)`: the same seed gives the same inputs, and the
//! program under test receives nothing but them.

use m7_scen::Family;

/// One SplitMix64 step: a bijective 64-bit mixer.
#[must_use]
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th value of stream `stream` under `seed`.
#[must_use]
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(splitmix(splitmix(seed) ^ stream) ^ index)
}

/// A uniform draw in `[0, 1)` from 64 random bits.
#[must_use]
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

const CAMP: u64 = 1;
const ROVER: u64 = 2;
const SERVE: u64 = 3;
const FLOW: u64 = 4;

/// Root seed of the `op`-th campaign.
#[must_use]
pub fn campaign_seed(seed: u64, op: u64) -> u64 {
    derive(seed, CAMP, op)
}

/// Difficulty levels per family in one rover sweep.
pub const ROVER_LEVELS: usize = 10;

/// One rover mission: the generator arguments of its scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoverInput {
    /// Generator family.
    pub family: Family,
    /// Difficulty level in `[0, 1)`.
    pub level: f64,
    /// Generator seed (also the evaluation seed).
    pub world_seed: u64,
}

/// The `sweep`-th rover sweep: every family at [`ROVER_LEVELS`]
/// stratified difficulty levels, so each sweep carries the same mix of
/// easy and hard worlds whatever the seed.
#[must_use]
pub fn rover_sweep(seed: u64, sweep: u64) -> Vec<RoverInput> {
    let mut out = Vec::with_capacity(Family::ALL.len() * ROVER_LEVELS);
    let mut i = sweep * (Family::ALL.len() * ROVER_LEVELS) as u64;
    for family in Family::ALL {
        for level in 0..ROVER_LEVELS {
            let bits = derive(seed, ROVER, i);
            out.push(RoverInput {
                family,
                level: (level as f64 + unit(bits)) / ROVER_LEVELS as f64,
                world_seed: splitmix(bits),
            });
            i += 1;
        }
    }
    out
}

/// How a serve request's key relates to earlier requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    /// A key never requested before.
    Fresh,
    /// A repeat of one of the last [`NEAR_WINDOW`] fresh keys.
    Near,
    /// A repeat of a key older than [`HOT_CAPACITY`] fresh keys, when
    /// one exists.
    Far,
}

/// Fresh keys a near repeat may reach back.
pub const NEAR_WINDOW: usize = 16;
/// Hot-tier capacity of the served cache; far repeats reach past it.
pub const HOT_CAPACITY: usize = 256;
/// Share of requests that repeat an earlier key (half near, half far).
pub const REPEAT_SHARE: f64 = 0.4;

/// A serve key: an E9 design point and a simulation seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServeKey {
    /// Index into the enumerated E9 design space.
    pub point: usize,
    /// Mission simulation seed.
    pub sim_seed: u64,
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, seconds after the schedule starts.
    pub due_s: f64,
    /// The requested key.
    pub key: ServeKey,
    /// Novelty of the key.
    pub kind: KeyKind,
}

/// A seeded Poisson schedule of `n` requests at `rate_per_s`, over the
/// `points` E9 design points.
#[must_use]
pub fn serve_schedule(seed: u64, n: usize, rate_per_s: f64, points: usize) -> Vec<Arrival> {
    let mut fresh: Vec<ServeKey> = Vec::new();
    let mut out = Vec::with_capacity(n);
    let mut t = 0.0;
    for i in 0..n as u64 {
        let draw = |j: u64| derive(seed, SERVE, 4 * i + j);
        // Exponential inter-arrival gap; 1 - u lies in (0, 1].
        t += -(1.0 - unit(draw(0))).ln() / rate_per_s;
        let u = unit(draw(1));
        let kind = if fresh.is_empty() || u >= REPEAT_SHARE {
            KeyKind::Fresh
        } else if u < REPEAT_SHARE / 2.0 {
            KeyKind::Near
        } else {
            KeyKind::Far
        };
        let pick = draw(2);
        let key = match kind {
            KeyKind::Fresh => {
                let key = ServeKey { point: (pick % points as u64) as usize, sim_seed: draw(3) };
                fresh.push(key);
                key
            }
            KeyKind::Near => {
                let window = fresh.len().min(NEAR_WINDOW);
                fresh[fresh.len() - 1 - (pick % window as u64) as usize]
            }
            KeyKind::Far => {
                // Until the hot tier has been overrun, any earlier key.
                let old = match fresh.len() {
                    len if len > HOT_CAPACITY => len - HOT_CAPACITY,
                    len => len,
                };
                fresh[(pick % old as u64) as usize]
            }
        };
        out.push(Arrival { due_s: t, key, kind });
    }
    out
}

/// E15 deployments, in the order [`crate::flow`] builds them.
pub const FLOW_DEPLOYMENTS: u64 = 3;

/// One dataflow operation: which deployment to build and the seed its
/// run draws camera-link losses from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowInput {
    /// Deployment index in `0..FLOW_DEPLOYMENTS`.
    pub deployment: usize,
    /// `run_seeded` seed.
    pub run_seed: u64,
}

/// The `op`-th dataflow operation: deployments round-robin, so every
/// batch of three runs each placement once.
#[must_use]
pub fn flow_input(seed: u64, op: u64) -> FlowInput {
    FlowInput { deployment: (op % FLOW_DEPLOYMENTS) as usize, run_seed: derive(seed, FLOW, op) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(campaign_seed(7, 3), campaign_seed(7, 3));
        assert_ne!(campaign_seed(7, 3), campaign_seed(8, 3));

        assert_eq!(rover_sweep(7, 2), rover_sweep(7, 2));
        assert_ne!(rover_sweep(7, 2), rover_sweep(8, 2));
        assert_ne!(rover_sweep(7, 2), rover_sweep(7, 3));

        assert_eq!(serve_schedule(7, 500, 1000.0, 180), serve_schedule(7, 500, 1000.0, 180));
        assert_ne!(serve_schedule(7, 500, 1000.0, 180), serve_schedule(8, 500, 1000.0, 180));

        let flows = |seed| (0..9).map(|op| flow_input(seed, op)).collect::<Vec<_>>();
        assert_eq!(flows(7), flows(7));
        assert_ne!(flows(7), flows(8));
    }

    #[test]
    fn rover_sweeps_cover_every_family_at_stratified_levels() {
        let sweep = rover_sweep(11, 0);
        assert_eq!(sweep.len(), Family::ALL.len() * ROVER_LEVELS);
        for (i, input) in sweep.iter().enumerate() {
            assert_eq!(input.family, Family::ALL[i / ROVER_LEVELS]);
            let stratum = (i % ROVER_LEVELS) as f64 / ROVER_LEVELS as f64;
            assert!(input.level >= stratum && input.level < stratum + 0.1);
        }
    }

    #[test]
    fn serve_schedule_has_the_e9_reuse_mix() {
        let schedule = serve_schedule(5, 20_000, 1000.0, 180);
        let share = |kind| {
            schedule.iter().filter(|a| a.kind == kind).count() as f64 / schedule.len() as f64
        };
        assert!((share(KeyKind::Fresh) - 0.6).abs() < 0.02);
        assert!((share(KeyKind::Near) - 0.2).abs() < 0.02);
        assert!((share(KeyKind::Far) - 0.2).abs() < 0.02);
        // Poisson at 1000/s: 20 000 arrivals take about 20 s.
        let span = schedule.last().map_or(0.0, |a| a.due_s);
        assert!((span - 20.0).abs() < 1.0, "{span}");
        // Repeats name keys that were requested before; fresh keys are new.
        let mut seen = std::collections::HashSet::new();
        for a in &schedule {
            assert_eq!(seen.insert(a.key), a.kind == KeyKind::Fresh);
        }
    }
}
