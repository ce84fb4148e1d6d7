//! `serve-dse`: a loopback `EvalServer` serving E9's `mission_cost` to
//! one framed client under seeded Poisson arrivals.
//!
//! The open loop sends each request when it is due, whatever the state
//! of the last one, and times it from its due time, so a stall is
//! charged to every request it delays. One connection carries it, so a
//! request due while the last is still out is sent late; the generator
//! reports how late. The server keeps a 256-entry hot tier over a disk
//! tier in a fresh directory: near repeats hit hot, far repeats come
//! back from disk, fresh keys evaluate, insert and append.

use crate::gen::{self, Arrival, KeyKind, ServeKey};
use crate::harness::{self, RunConfig, Setups};
use crate::layers::{self, SelfTimes};
use crate::report::Outcome;
use crate::stats::{self, Digest, Latency, Tally};
use m7_par::ParConfig;
use m7_serve::wire::Response;
use m7_serve::{EvalRequest, EvalServer, Evaluator, FramedClient, ServeConfig, ServerHandle};
use m7_suite::experiments::e9_dse::{mission_cost, uav_design_space};
use m7_trace::{MetricClass, SpanSite};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load, requests per second.
pub const RATE_PER_S: f64 = 200.0;
const WORKLOAD: &str = "uav-mission";
/// Leading responses the output digest covers.
const DIGEST_REQUESTS: usize = 1000;
/// Requests of the untimed warm-up inside set-up.
const WARMUP_REQUESTS: u64 = 4;
const WARMUP_SEED: u64 = 0x5eed;
/// Idle time a set-up needs before the next request is due: a set-up
/// takes about 3 ms, so one never delays a request.
const SETUP_GAP: Duration = Duration::from_millis(20);
/// The generator sleeps until this close to a due time, then spins.
const SPIN: Duration = Duration::from_micros(100);
/// Scratch directories for the disk tier, relative to the working
/// directory (the benchmark runs from the repository root).
const SCRATCH: &str = ".bench_tmp";

static EVALUATOR: SpanSite = SpanSite::new("bench.evaluator", MetricClass::Diagnostic);
static RTT: SpanSite = SpanSite::new("bench.rtt", MetricClass::Diagnostic);

/// E9's mission objective behind the server's `Evaluator` interface.
struct MissionEvaluator;

impl Evaluator for MissionEvaluator {
    fn namespace_tag(&self) -> &str {
        "e9-mission"
    }

    fn evaluate(&self, request: &EvalRequest) -> Result<f64, String> {
        if request.workload != WORKLOAD || request.values.len() != 4 {
            return Err(format!("not a {WORKLOAD} request: {request:?}"));
        }
        let _span = EVALUATOR.enter();
        Ok(mission_cost(&request.values, request.seed))
    }
}

/// A directory under [`SCRATCH`], removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(SCRATCH).join(format!("serve-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only once it is empty.
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

/// A running server and its client; fields drop in order, so the
/// client hangs up before the server stops and the directory goes last.
struct Served {
    client: FramedClient,
    handle: ServerHandle,
    _dir: ScratchDir,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Set-up: spawn the server over a fresh disk tier, connect, and serve
/// a fixed warm-up.
fn spawn(points: &[Vec<f64>]) -> Result<Served, String> {
    let dir = ScratchDir::new()?;
    let config = ServeConfig {
        par: ParConfig::serial(),
        cache_capacity: gen::HOT_CAPACITY,
        disk_dir: Some(dir.0.clone()),
        ..ServeConfig::default()
    };
    let handle = EvalServer::spawn(config, Arc::new(MissionEvaluator)).map_err(io_err("spawn"))?;
    let mut client = FramedClient::connect(handle.addr()).map_err(io_err("connect"))?;
    for i in 0..WARMUP_REQUESTS {
        let request = EvalRequest::new(WORKLOAD, points[i as usize].clone(), WARMUP_SEED + i);
        match client.eval(&request).map_err(io_err("warm-up"))? {
            Response::Cost { .. } => {}
            other => return Err(format!("warm-up answered {other:?}")),
        }
    }
    Ok(Served { client, handle, _dir: dir })
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Whether a response is exactly the reference cost, flagged cached
/// exactly when the key was requested before.
pub fn check(response: &Response, reference: f64, kind: KeyKind) -> bool {
    matches!(response, Response::Cost { cost, cached }
        if cost.to_bits() == reference.to_bits() && *cached == (kind != KeyKind::Fresh))
}

/// What the client saw over one schedule.
#[derive(Default)]
struct Drive {
    tally: Tally,
    digest: Digest,
    /// Per request, from its due time to its response.
    latency_us: Vec<f64>,
    /// Per request, from send to response, with its key novelty.
    rtt_us: Vec<(KeyKind, f64)>,
    /// Per request, how late the generator sent it.
    late_us: Vec<f64>,
    /// First due time to last response.
    wall_s: f64,
}

/// Sends `schedule` open-loop over the server's one connection. With
/// `setups`, runs [`harness::SETUP_SPREAD`] timed set-ups spread over
/// the schedule, each in the first gap of at least [`SETUP_GAP`] before
/// a request after its share of the schedule has passed.
///
/// # Errors
///
/// A set-up error.
fn drive(
    served: &mut Served,
    schedule: &[Arrival],
    points: &[Vec<f64>],
    refs: &HashMap<ServeKey, f64>,
    mut setups: Option<&mut Setups>,
) -> Result<Drive, String> {
    let mut out = Drive::default();
    let span_s = schedule.last().map_or(0.0, |a| a.due_s);
    let mut spread = 0;
    let start = Instant::now() + Duration::from_millis(1);
    for (i, a) in schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(a.due_s);
        if let Some(setups) = setups.as_deref_mut() {
            let slot = span_s * (spread as f64 + 0.5) / harness::SETUP_SPREAD as f64;
            let now = Instant::now();
            if spread < harness::SETUP_SPREAD
                && now.saturating_duration_since(start).as_secs_f64() >= slot
                && due.saturating_duration_since(now) >= SETUP_GAP
            {
                drop(setups.time(|| spawn(points))?);
                spread += 1;
            }
        }
        wait_until(due);
        let request = EvalRequest::new(WORKLOAD, points[a.key.point].clone(), a.key.sim_seed);
        let sent = Instant::now();
        let response = {
            let _span = RTT.enter();
            served.client.eval(&request)
        };
        let done = Instant::now();
        out.latency_us.push(stats::us(done - due));
        out.rtt_us.push((a.kind, stats::us(done - sent)));
        out.late_us.push(stats::us(sent - due));
        out.wall_s = (done - start).as_secs_f64();
        let Ok(response) = response else {
            // The connection is gone: this and every later request fail.
            eprintln!("serve-dse: request {i} failed: {response:?}");
            for _ in i..schedule.len() {
                out.tally.record(false);
            }
            break;
        };
        out.tally.record(check(&response, refs[&a.key], a.kind));
        if let (true, Response::Cost { cost, .. }) = (i < DIGEST_REQUESTS, response) {
            out.digest.f64(cost);
        }
    }
    Ok(out)
}

/// Runs the workload.
///
/// # Errors
///
/// When the server cannot be spawned or reached during set-up.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let space = uav_design_space();
    let points: Vec<Vec<f64>> = space.enumerate().iter().map(|p| space.values(p)).collect();
    let mut setups = Setups::default();
    let mut served = setups.repeat(harness::SETUP_REPS, || spawn(&points))?;

    let seconds = harness::untraced_seconds(cfg, 0.5);
    let n = ((RATE_PER_S * seconds).ceil() as usize).max(DIGEST_REQUESTS);
    let schedule = gen::serve_schedule(cfg.seed, n, RATE_PER_S, points.len());
    // Reference costs, computed directly and outside the timed phase.
    let mut refs = HashMap::new();
    for a in &schedule {
        refs.entry(a.key).or_insert_with(|| mission_cost(&points[a.key.point], a.key.sim_seed));
    }

    let untraced = drive(&mut served, &schedule, &points, &refs, Some(&mut setups))?;
    if !cfg.trace {
        let hits: Vec<f64> =
            untraced.rtt_us.iter().filter(|(k, _)| *k != KeyKind::Fresh).map(|r| r.1).collect();
        eprintln!("serve.rtt.hit_p50_us {}", stats::median(&hits));
        let Drive { tally, digest, latency_us, wall_s, .. } = untraced;
        let mut out = Outcome::new(tally);
        out.check_digest("serve-dse", cfg.seed, digest.value(), DIGEST_REQUESTS as u64);
        out.set("setup_s", setups.value());
        out.set("throughput_per_s", (tally.attempted - tally.failed) as f64 / wall_s);
        let mut latency = Latency::new(100, 1000);
        latency_us.iter().for_each(|&us| latency.push(us));
        eprintln!("serve-dse: {} requests timed", latency.samples());
        out.set("latency_p50_us", latency.p50());
        out.set("latency_p99_us", latency.p99());
        out.set("peak_rss_mb", stats::peak_rss_mb()?);
        out.set("ok_ratio", out.tally.ok_ratio());
        return Ok(out);
    }

    // The traced half replays the same schedule against a fresh server.
    drop(served);
    let mut served = spawn(&points)?;
    let tier_before = served.handle.tier_stats();
    layers::start();
    let traced = drive(&mut served, &schedule, &points, &refs, None)?;
    m7_trace::disable();
    let mut times = SelfTimes::default();
    times.drain();
    let tier = served.handle.tier_stats();
    let server = served.handle.server_stats();
    let queue_wait = m7_trace::snapshot()
        .histogram("sched.serve.queue_wait_ns")
        .map_or(0, |h| h.quantile_upper_bound(0.99));

    let mut tally = untraced.tally;
    tally.attempted += traced.tally.attempted;
    tally.failed += traced.tally.failed;
    let mut out = Outcome::new(tally);
    let rtt = |pred: fn(KeyKind) -> bool| -> Vec<f64> {
        traced.rtt_us.iter().filter(|(k, _)| pred(*k)).map(|r| r.1).collect()
    };
    let (hit, miss) = (rtt(|k| k != KeyKind::Fresh), rtt(|k| k == KeyKind::Fresh));
    let completed = untraced.tally.attempted - untraced.tally.failed;
    out.set("phase.throughput_per_s", completed as f64 / untraced.wall_s);
    out.set("serve.rtt.hit_p50_us", stats::median(&hit));
    out.set("serve.rtt.miss_p50_us", stats::median(&miss));
    out.set("serve.rtt.miss_p99_us", stats::percentile(&miss, 0.99));
    out.set("serve.evaluator.calls", times.get("bench.evaluator").calls as f64);
    out.set("serve.evaluator.busy_s", times.incl_s("bench.evaluator"));
    let hot = tier.hot_hits - tier_before.hot_hits;
    let disk = tier.disk_hits - tier_before.disk_hits;
    let misses = tier.misses - tier_before.misses;
    out.set("serve.tier.hot_hits", hot as f64);
    out.set("serve.tier.disk_hits", disk as f64);
    out.set("serve.tier.misses", misses as f64);
    out.set("serve.hit_ratio", (hot + disk) as f64 / (hot + disk + misses).max(1) as f64);
    out.set("serve.phase.parse_p99_us", server.parse.p99_ns as f64 / 1e3);
    out.set("serve.phase.dispatch_p99_us", server.dispatch.p99_ns as f64 / 1e3);
    out.set("serve.phase.write_p99_us", server.write.p99_ns as f64 / 1e3);
    out.set("serve.queue_wait_p99_us", queue_wait as f64 / 1e3);
    out.set("serve.shed", server.shed as f64);
    out.set("serve.gen.late_p99_us", stats::percentile(&traced.late_us, 0.99));
    // The round trips, as the client timed them apart from the span.
    let calls_s = traced.rtt_us.iter().map(|r| r.1).sum::<f64>() * 1e-6;
    let in_system = |d: &Drive| d.latency_us.iter().sum::<f64>();
    let overhead = in_system(&traced) / in_system(&untraced);
    layers::close(
        &mut out,
        times.incl_s("bench.rtt"),
        calls_s,
        traced.wall_s,
        overhead,
        times.dropped,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_demands_exact_bits_and_honest_cache_flags() {
        let cost = mission_cost(&[1.0, 20.0, 0.25, 12.0], 7);
        let answer = |cost, cached| Response::Cost { cost, cached };
        assert!(check(&answer(cost, false), cost, KeyKind::Fresh));
        assert!(check(&answer(cost, true), cost, KeyKind::Far));
        assert!(!check(&answer(f64::from_bits(cost.to_bits() ^ 1), false), cost, KeyKind::Fresh));
        assert!(!check(&answer(cost, false), cost, KeyKind::Near));
        assert!(!check(&Response::Busy, cost, KeyKind::Fresh));
        assert!(!check(&Response::Error("x".into()), cost, KeyKind::Fresh));
    }
}
