//! `rover-rrt`: generate a scenario and drive the RRT-in-the-loop rover
//! through it, for every family at stratified difficulty levels.
//!
//! The only workload where the planning kernels do most of the work:
//! each mission flattens its scenario into an occupancy world, plans
//! with RRT plus shortcutting, and tracks the path on the embedded-GPU
//! tier. The UAV loop is absent.

use crate::gen::{self, RoverInput};
use crate::harness::{self, RunConfig, Setups};
use crate::layers;
use crate::report::Outcome;
use crate::stats::{self, Digest, Latency, Tally, MANY_OPS_WINDOWS};
use m7_kernels::planning::{Rrt, RrtConfig};
use m7_scen::{evaluate_rover, generate, Family, ScenOutcome};
use m7_sim::uav::ComputeTier;
use m7_trace::{MetricClass, SpanSite};
use std::hint::black_box;
use std::time::Instant;

const TIER: ComputeTier = ComputeTier::EmbeddedGpu;
const WARMUP_SEED: u64 = 0x5eed;

static WORLD: SpanSite = SpanSite::new("bench.world", MetricClass::Diagnostic);
static RRT: SpanSite = SpanSite::new("bench.rrt", MetricClass::Diagnostic);

/// Per-outcome invariants: a success is a completed mission within its
/// deadline, a deadline miss a completed one past it, and every number
/// is finite and non-negative.
pub fn check(out: &ScenOutcome) -> bool {
    let finite = [out.time_s, out.deadline_s, out.energy_j, out.distance_m]
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0);
    finite
        && out.success == (out.completed && out.time_s <= out.deadline_s)
        && out.deadline_miss == (out.completed && out.time_s > out.deadline_s)
}

fn digest(d: &mut Digest, out: &ScenOutcome) {
    d.u64(
        u64::from(out.success) | u64::from(out.completed) << 1 | u64::from(out.deadline_miss) << 2,
    );
    for v in [out.time_s, out.deadline_s, out.energy_j, out.distance_m] {
        d.f64(v);
    }
}

/// One mission through the public API.
pub fn mission(input: &RoverInput) -> ScenOutcome {
    let s = generate(input.family, input.level, input.world_seed);
    evaluate_rover(&s, TIER, s.seed)
}

/// One mission with the world build and the planner call `evaluate_rover`
/// makes inside repeated beside it under their own spans, on the same
/// world, endpoints and planner seed. Returns the outcome, whether the
/// planner found a path, and the seconds spent in the four public
/// calls, timed apart from any span.
fn traced_mission(input: &RoverInput) -> (ScenOutcome, bool, f64) {
    let t = Instant::now();
    let s = generate(input.family, input.level, input.world_seed);
    let mut calls_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let world = {
        let _span = WORLD.enter();
        s.collision_world()
    };
    let found = {
        let _span = RRT.enter();
        let path = Rrt::new(RrtConfig::default(), s.seed).plan(&world, s.start, s.goal);
        black_box(path.map(|p| p.shortcut(&world))).is_some()
    };
    let out = evaluate_rover(&s, TIER, s.seed);
    calls_s += t.elapsed().as_secs_f64();
    (out, found, calls_s)
}

fn setup() -> Result<(), String> {
    for family in Family::ALL {
        black_box(mission(&RoverInput { family, level: 0.5, world_seed: WARMUP_SEED }));
    }
    Ok(())
}

/// Runs the workload; one operation is one sweep of
/// [`gen::ROVER_LEVELS`] missions per family.
///
/// # Errors
///
/// Never at present; kept for the shared workload signature.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setups = Setups::default();
    setups.repeat(harness::SETUP_REPS, setup)?;
    let mut tally = Tally::default();
    let mut d = Digest::default();
    // Traced missions repeat the world build and planner call beside
    // `evaluate_rover`, so the traced replay takes about twice as long.
    let seconds = harness::untraced_seconds(cfg, 1.0 / 3.0);
    let mut rates = Vec::new();
    let mut latency = Latency::new(MANY_OPS_WINDOWS.0, MANY_OPS_WINDOWS.1);
    let mut op = |k: u64| {
        let sweep = gen::rover_sweep(cfg.seed, k);
        let start = Instant::now();
        for input in &sweep {
            let t = Instant::now();
            let out = mission(input);
            latency.push(stats::us(t.elapsed()));
            tally.record(check(&out));
            if k == 0 {
                digest(&mut d, &out);
            }
        }
        rates.push(sweep.len() as f64 / start.elapsed().as_secs_f64());
        Ok(())
    };
    let untraced = harness::run_for(seconds, 1, &mut setups, setup, &mut op)?;
    let missions = untraced.ops * (Family::ALL.len() * gen::ROVER_LEVELS) as u64;
    if !cfg.trace {
        let mut out = Outcome::new(tally);
        let sweep = (Family::ALL.len() * gen::ROVER_LEVELS) as u64;
        out.check_digest("rover-rrt", cfg.seed, d.value(), sweep);
        out.set("setup_s", setups.value());
        out.set("throughput_per_s", stats::fast_rate(&rates));
        out.set("latency_p50_us", latency.p50());
        out.set("latency_p99_us", latency.p99());
        out.set("peak_rss_mb", stats::peak_rss_mb()?);
        out.set("ok_ratio", out.tally.ok_ratio());
        eprintln!("rover-rrt: {} missions timed", latency.samples());
        return Ok(out);
    }

    let mut found = 0u64;
    let mut calls_s = 0.0;
    let (traced, times) = harness::traced_replay(untraced.ops, |k| {
        for input in gen::rover_sweep(cfg.seed, k) {
            let (out, path, call_s) = traced_mission(&input);
            tally.record(check(&out));
            found += u64::from(path);
            calls_s += call_s;
        }
        Ok(())
    })?;
    let mut out = Outcome::new(tally);
    let generate = times.get("scen.generate");
    let evaluate = times.get("scen.evaluate");
    let rrt = times.get("bench.rrt");
    out.set("phase.throughput_per_s", missions as f64 / untraced.busy_s);
    out.set("scen.generate.calls", generate.calls as f64);
    out.set("scen.generate.busy_s", times.incl_s("scen.generate"));
    out.set("scen.world.busy_s", times.incl_s("bench.world"));
    out.set("scen.evaluate.calls", evaluate.calls as f64);
    out.set("scen.evaluate.busy_s", times.incl_s("scen.evaluate"));
    out.set("scen.evaluate.mean_us", evaluate.incl_ns as f64 / 1e3 / evaluate.calls.max(1) as f64);
    out.set("kernels.rrt.calls", rrt.calls as f64);
    out.set("kernels.rrt.busy_s", times.incl_s("bench.rrt"));
    out.set("kernels.rrt.found_ratio", found as f64 / rrt.calls.max(1) as f64);
    out.set(
        "sim.rover.loop_s",
        times.incl_s("scen.evaluate") - times.incl_s("bench.world") - times.incl_s("bench.rrt"),
    );
    out.set("rover.mission_p50_us", latency.p50());
    out.set("rover.mission_p99_us", latency.p99());
    // The side calls repeat work on purpose; they are not tracing cost.
    let side_s = times.incl_s("bench.world") + times.incl_s("bench.rrt");
    let overhead = (traced.busy_s - side_s) / untraced.busy_s;
    layers::close(&mut out, times.covered_s(), calls_s, traced.busy_s, overhead, times.dropped);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_corrupted_output_lowers_ok_ratio() {
        let outs: Vec<ScenOutcome> = gen::rover_sweep(3, 0).iter().take(6).map(mission).collect();
        let ratio = |outs: &[ScenOutcome]| {
            let mut tally = Tally::default();
            for out in outs {
                tally.record(check(out));
            }
            tally.ok_ratio()
        };
        assert_eq!(ratio(&outs), 1.0);
        for corrupt in [
            |o: &mut ScenOutcome| o.time_s = f64::NAN,
            |o: &mut ScenOutcome| o.success = !o.success,
            |o: &mut ScenOutcome| o.energy_j = -1.0,
        ] {
            let mut bad = outs.clone();
            corrupt(&mut bad[2]);
            assert!(ratio(&bad) < 1.0);
        }
    }
}
