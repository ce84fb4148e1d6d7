//! `camp-uav`: one cold coverage campaign per operation.
//!
//! The user-facing campaign: `run_campaign` over
//! `CampaignPlan::new(ComputeTier::Micro, BUDGET)` with fresh in-memory
//! stores, serial. It runs the generator and the UAV closed loop and
//! writes work units to the `ResultStore`; it never reaches obstacle
//! geometry, the planning kernels, sockets or the dataflow engine.

use crate::gen;
use crate::harness::{self, RunConfig, Setups};
use crate::layers;
use crate::report::Outcome;
use crate::stats::{self, Digest, Latency, Tally};
use m7_camp::{run_campaign, CampaignOutcome, CampaignPlan};
use m7_par::ParConfig;
use m7_serve::{CacheKey, EvalCache, ResultStore};
use m7_sim::uav::ComputeTier;
use m7_trace::{MetricClass, SpanSite};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Closed-loop evaluations per campaign: small enough that a run holds
/// well over [`stats::DECILE_SAMPLES`] campaigns.
pub const BUDGET: usize = 200;
/// Campaigns per latency window: p50 over 5, so that a window fits in
/// the host's quiet moments; p99 over 60, so that a run holds two or
/// three windows (see README.md for why camp-uav's p99 has so few
/// samples beyond it).
const LATENCY_WINDOWS: (usize, usize) = (5, 60);
/// Budget of the untimed warm-up campaign inside set-up.
const WARMUP_BUDGET: usize = 60;
const WARMUP_SEED: u64 = 0x5eed;
/// Room for every unit and probe result of one campaign: nothing is
/// evicted, so a cold campaign stays cold.
const STORE_CAPACITY: usize = 4096;

static STORE: SpanSite = SpanSite::new("bench.store", MetricClass::Diagnostic);

/// An in-memory `EvalCache` whose lookups and writes run under a span.
/// The trait's `get_or_insert_with` goes through them, so the span
/// times the store apart from the compute the campaign hands it.
struct TimedStore<V>(EvalCache<V>);

impl<V: Clone> TimedStore<V> {
    fn new() -> Self {
        Self(EvalCache::new(STORE_CAPACITY))
    }
}

impl<V: Clone + Send + Sync> ResultStore<V> for TimedStore<V> {
    fn get(&self, key: CacheKey) -> Option<V> {
        let _span = STORE.enter();
        self.0.get(key)
    }

    fn insert(&self, key: CacheKey, value: V) {
        let _span = STORE.enter();
        self.0.insert(key, value);
    }

    fn hits(&self) -> u64 {
        self.0.stats().hits
    }
}

/// One cold campaign on fresh stores.
fn campaign(plan: &CampaignPlan, seed: u64) -> CampaignOutcome {
    run_campaign(plan, seed, ParConfig::serial(), &TimedStore::new(), &TimedStore::new())
}

/// A cold campaign spends exactly its budget, replays nothing, and its
/// per-stratum sketches conserve their trials.
fn check(plan: &CampaignPlan, out: &CampaignOutcome) -> bool {
    let budget = plan.budget as u64;
    out.evaluations == budget
        && out.units_from_store == 0
        && out.strata.len() == plan.strata()
        && out.strata.iter().map(|s| s.draws as u64).sum::<u64>() == budget
        && out.strata.iter().map(|s| s.sketch.trials).sum::<u64>() == budget
        && out.strata.iter().all(|s| {
            let k = s.sketch;
            k.trials == k.successes + k.deadline_misses + k.incompletes && s.wilson.0 <= s.wilson.1
        })
        && out.rounds.iter().map(|r| r.evaluations as u64).sum::<u64>() == budget
        && (0.0..=1.0).contains(&out.coverage)
        && out.anchor.is_finite()
}

fn digest(d: &mut Digest, out: &CampaignOutcome) {
    d.f64(out.coverage);
    d.f64(out.anchor);
    d.u64(out.evaluations);
    d.u64(out.units as u64);
    for s in &out.strata {
        let k = s.sketch;
        for v in [k.trials, k.successes, k.deadline_misses, k.incompletes, k.time_us] {
            d.u64(v);
        }
        d.u64(k.difficulty_ppm);
    }
}

fn setup() -> CampaignPlan {
    let plan = CampaignPlan::new(ComputeTier::Micro, BUDGET);
    let warm = CampaignPlan::new(ComputeTier::Micro, WARMUP_BUDGET);
    black_box(campaign(&warm, WARMUP_SEED));
    plan
}

/// Runs the workload.
///
/// # Errors
///
/// Never at present; kept for the shared workload signature.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setups = Setups::default();
    let plan = setups.repeat(harness::SETUP_REPS, || Ok(setup()))?;
    let mut tally = Tally::default();
    let mut d = Digest::default();
    let mut rates = Vec::new();
    let mut latency = Latency::new(LATENCY_WINDOWS.0, LATENCY_WINDOWS.1);
    // Wall time inside `run_campaign`, timed apart from any span.
    let calls_s = Cell::new(0.0);
    let mut op = |k: u64| {
        let t = Instant::now();
        let out = campaign(&plan, gen::campaign_seed(cfg.seed, k));
        let wall = t.elapsed();
        calls_s.set(calls_s.get() + wall.as_secs_f64());
        rates.push(out.evaluations as f64 / wall.as_secs_f64());
        latency.push(stats::us(wall));
        tally.record(check(&plan, &out));
        if k == 0 {
            digest(&mut d, &out);
        }
        Ok(())
    };
    let seconds = harness::untraced_seconds(cfg, 0.5);
    let untraced = harness::run_for(
        seconds,
        1,
        &mut setups,
        || {
            black_box(setup());
            Ok(())
        },
        &mut op,
    )?;
    let evaluations = (untraced.ops * BUDGET as u64) as f64;
    if !cfg.trace {
        let mut out = Outcome::new(tally);
        out.check_digest("camp-uav", cfg.seed, d.value(), 1);
        out.set("setup_s", setups.value());
        out.set("throughput_per_s", stats::fast_rate(&rates));
        out.set("latency_p50_us", latency.p50());
        out.set("latency_p99_us", latency.p99());
        out.set("peak_rss_mb", stats::peak_rss_mb()?);
        out.set("ok_ratio", out.tally.ok_ratio());
        eprintln!("camp-uav: {} campaigns timed", latency.samples());
        return Ok(out);
    }

    calls_s.set(0.0);
    let (traced, times) = harness::traced_replay(untraced.ops, &mut op)?;
    let units = m7_trace::snapshot().counter("camp.units").unwrap_or(0);
    let mut out = Outcome::new(tally);
    let generate = times.get("scen.generate");
    let evaluate = times.get("scen.evaluate");
    out.set("phase.throughput_per_s", evaluations / untraced.busy_s);
    out.set("scen.generate.calls", generate.calls as f64);
    out.set("scen.generate.busy_s", times.incl_s("scen.generate"));
    out.set("scen.evaluate.calls", evaluate.calls as f64);
    out.set("scen.evaluate.busy_s", times.incl_s("scen.evaluate"));
    out.set("scen.evaluate.mean_us", evaluate.incl_ns as f64 / 1e3 / evaluate.calls.max(1) as f64);
    out.set("scen.falsify.busy_s", times.incl_s("scen.falsify"));
    out.set("camp.units", units as f64);
    out.set("camp.self_s", times.self_s("camp.campaign") + times.self_s("par.batch"));
    out.set("camp.store.busy_s", times.incl_s("bench.store"));
    let overhead = traced.busy_s / untraced.busy_s;
    layers::close(
        &mut out,
        times.covered_s(),
        calls_s.get(),
        traced.busy_s,
        overhead,
        times.dropped,
    );
    Ok(out)
}
