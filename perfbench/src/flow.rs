//! `flow-fusion`: build, seal and run one of E15's three deployments of
//! the multi-rate fusion graph per operation, over a 60 s horizon.
//!
//! The only workload for the `m7-flow` event engine. The graph is E15's:
//! a 30 Hz HD camera and a 100 Hz IMU feed a fusion server, fused tracks
//! flow through a backpressured queue into a planner and on to the
//! control sink. The deployments place fusion and planner on a shared
//! CPU-SIMD SoC, on a GPU plus a planner ASIC, and on the same silicon
//! at half clock. Rates, payload, loss and the ASIC spec are E15's own
//! public constants; E15 keeps its graph-building code private, so
//! [`build`] restates it through the public `GraphBuilder`.

use crate::gen::{self, FlowInput};
use crate::harness::{self, RunConfig, Setups};
use crate::layers;
use crate::report::Outcome;
use crate::stats::{self, Digest, Latency, Tally, MANY_OPS_WINDOWS};
use m7_arch::dvfs::OperatingPoint;
use m7_arch::platform::PlatformKind;
use m7_arch::workload::KernelProfile;
use m7_flow::{
    EdgeSpec, FlowError, Graph, GraphBuilder, GraphReport, LossModel, MessageType, Placement,
    QueuePolicy, ServerSpec, Service, SinkSpec, SourceSpec,
};
use m7_par::ParConfig;
use m7_suite::experiments::e15_fusion::{
    CAMERA_BYTES, CAMERA_HZ, CAMERA_LOSS, IMU_HZ, PLANNER_ASIC_SPEC,
};
use m7_trace::{MetricClass, SpanSite};
use m7_units::{Bytes, BytesPerSecond, Hertz, Seconds};
use std::hint::black_box;
use std::time::Instant;

/// Simulated horizon of every run.
pub const HORIZON_S: f64 = 60.0;
/// Operations per throughput sample: ten of each deployment.
const BATCH: usize = 30;
const WARMUP_SEED: u64 = 0x5eed;

static BUILD: SpanSite = SpanSite::new("bench.build", MetricClass::Diagnostic);
static SEAL: SpanSite = SpanSite::new("bench.seal", MetricClass::Diagnostic);
static RUN: SpanSite = SpanSite::new("bench.run", MetricClass::Diagnostic);

struct CameraFrame;
impl MessageType for CameraFrame {
    const NAME: &'static str = "camera_frame";
}
struct ImuState;
impl MessageType for ImuState {
    const NAME: &'static str = "imu_state";
}
struct FusedTrack;
impl MessageType for FusedTrack {
    const NAME: &'static str = "fused_track";
}
struct TrajectoryPlan;
impl MessageType for TrajectoryPlan {
    const NAME: &'static str = "trajectory_plan";
}

/// The fusion graph under deployment `index`, unsealed.
fn build(index: usize) -> Result<GraphBuilder, FlowError> {
    let half = OperatingPoint { frequency_scale: 0.5, voltage_scale: 0.8 };
    let asic = || Placement::from_spec(PLANNER_ASIC_SPEC);
    let (site, fusion_at, planner_at) = match index {
        0 => (
            Some(("soc", BytesPerSecond::from_gigabytes_per_second(0.06))),
            Placement::preset(PlatformKind::CpuSimd).at_site("soc"),
            Placement::preset(PlatformKind::CpuSimd).at_site("soc"),
        ),
        1 => (None, Placement::preset(PlatformKind::Gpu), asic()?),
        _ => {
            (None, Placement::preset(PlatformKind::Gpu).with_point(half), asic()?.with_point(half))
        }
    };
    let mut g = GraphBuilder::new("e15");
    if let Some((name, capacity)) = site {
        g.shared_site(name, capacity);
    }
    let camera = g.source::<CameraFrame>(
        "camera",
        SourceSpec::new(Hertz::new(CAMERA_HZ), Bytes::new(CAMERA_BYTES)),
    )?;
    let imu = g.source::<ImuState>("imu", SourceSpec::new(Hertz::new(IMU_HZ), Bytes::new(24.0)))?;
    let fusion = g.fusion_server::<CameraFrame, ImuState, FusedTrack>(
        "fusion",
        ServerSpec::new(Service::kernel(KernelProfile::feature_extract(1920, 1080)))
            .output_bytes(Bytes::new(4096.0))
            .deadline(Seconds::from_millis(40.0)),
    )?;
    let planner = g.server::<FusedTrack, TrajectoryPlan>(
        "planner",
        ServerSpec::new(Service::kernel(KernelProfile::collision_batch(60_000, 2000)))
            .output_bytes(Bytes::new(512.0))
            .deadline(Seconds::from_millis(60.0)),
    )?;
    let control =
        g.sink::<TrajectoryPlan>("control", SinkSpec::new().deadline(Seconds::from_millis(100.0)))?;
    g.place(fusion, fusion_at)?;
    g.place(planner, planner_at)?;
    g.connect(camera, fusion, EdgeSpec::queue(2).loss(LossModel::constant(CAMERA_LOSS)))?;
    g.connect(imu, fusion, EdgeSpec::sampled())?;
    g.connect(fusion, planner, EdgeSpec::queue(1).policy(QueuePolicy::Block))?;
    g.connect(planner, control, EdgeSpec::wire().latency(Seconds::from_millis(2.0)))?;
    Ok(g)
}

fn seal(g: GraphBuilder) -> Result<Graph, FlowError> {
    g.seal(ParConfig::serial())
}

fn run_graph(graph: &Graph, seed: u64) -> Result<GraphReport, FlowError> {
    graph.run_seeded(Seconds::new(HORIZON_S), seed)
}

/// Simulated graph events of a run: Σ fired + processed + received.
#[must_use]
pub fn events(r: &GraphReport) -> u64 {
    r.nodes.iter().map(|n| n.fired + n.processed + n.received).sum()
}

fn flow_err(e: FlowError) -> String {
    format!("flow graph: {e}")
}

/// Report invariants that hold for every seed: sources fire on their
/// clocks, every camera frame is delivered, dropped or lost, nothing is
/// consumed that was not produced, and latencies and energy are finite.
pub fn check(deployment: usize, r: &GraphReport) -> bool {
    let node = |name| r.node(name);
    let edge = |a, b| r.edge(a, b);
    let (Some(camera), Some(imu), Some(fusion), Some(planner), Some(control)) =
        (node("camera"), node("imu"), node("fusion"), node("planner"), node("control"))
    else {
        return false;
    };
    let (Some(cam), Some(plan)) = (edge("camera", "fusion"), edge("fusion", "planner")) else {
        return false;
    };
    let ticks = |hz: f64| (HORIZON_S * hz) as u64;
    let finite = |v: f64| v.is_finite() && v >= 0.0;
    let latencies_ok = control.latencies.len() as u64 == control.received
        && control.latencies.iter().all(|&l| finite(l))
        && finite(control.mean_latency.value())
        && finite(control.p99_latency.value());
    let shared_bus = deployment == 0;
    (ticks(CAMERA_HZ)..=ticks(CAMERA_HZ) + 1).contains(&camera.fired)
        && (ticks(IMU_HZ)..=ticks(IMU_HZ) + 1).contains(&imu.fired)
        && cam.delivered + cam.dropped + cam.lost == camera.fired
        && fusion.processed <= cam.delivered
        && plan.delivered <= fusion.processed
        && planner.processed <= plan.delivered
        && control.received <= planner.processed
        && control.received > 0
        && latencies_ok
        && r.nodes.iter().all(|n| finite(n.energy_j))
        && (fusion.slowdown > 1.0) == shared_bus
}

fn digest(d: &mut Digest, r: &GraphReport) {
    for n in &r.nodes {
        for v in [n.fired, n.processed, n.received, n.deadline_misses] {
            d.u64(v);
        }
        d.f64(n.energy_j);
        d.f64(n.p99_latency.value());
    }
    for e in &r.edges {
        for v in [e.delivered, e.dropped, e.lost, e.superseded, e.blocked, e.max_depth] {
            d.u64(v);
        }
    }
}

fn setup() -> Result<(), String> {
    for deployment in 0..gen::FLOW_DEPLOYMENTS as usize {
        let graph = seal(build(deployment).map_err(flow_err)?).map_err(flow_err)?;
        black_box(run_graph(&graph, WARMUP_SEED).map_err(flow_err)?);
    }
    Ok(())
}

/// What the operations of a run have produced so far.
struct Tallies {
    tally: Tally,
    digest: Digest,
    /// Simulated events of every operation.
    events: u64,
    /// Event rates of full batches of [`BATCH`] operations.
    rates: Vec<f64>,
    /// Events and wall seconds of the batch being filled.
    batch: (u64, f64, usize),
    /// Summed wall time of build, seal and run, timed apart from any
    /// span.
    calls_s: f64,
    /// Per operation: build, seal and run.
    latency: Latency,
    /// Per `run_seeded` call.
    run_latency: Latency,
}

impl Default for Tallies {
    fn default() -> Self {
        Self {
            tally: Tally::default(),
            digest: Digest::default(),
            events: 0,
            calls_s: 0.0,
            rates: Vec::new(),
            batch: (0, 0.0, 0),
            latency: Latency::new(MANY_OPS_WINDOWS.0, MANY_OPS_WINDOWS.1),
            run_latency: Latency::new(MANY_OPS_WINDOWS.0, MANY_OPS_WINDOWS.1),
        }
    }
}

/// One operation: build, seal and run the `k`-th input, check and
/// count its report.
fn operation(cfg: &RunConfig, st: &mut Tallies, k: u64) -> Result<(), String> {
    let FlowInput { deployment, run_seed } = gen::flow_input(cfg.seed, k);
    let start = Instant::now();
    let g = {
        let _span = BUILD.enter();
        build(deployment).map_err(flow_err)?
    };
    let graph = {
        let _span = SEAL.enter();
        seal(g).map_err(flow_err)?
    };
    let t = Instant::now();
    let report = {
        let _span = RUN.enter();
        run_graph(&graph, run_seed).map_err(flow_err)?
    };
    st.run_latency.push(stats::us(t.elapsed()));
    let wall = start.elapsed();
    st.latency.push(stats::us(wall));
    st.calls_s += wall.as_secs_f64();
    let n = events(&report);
    st.events += n;
    st.batch = (st.batch.0 + n, st.batch.1 + wall.as_secs_f64(), st.batch.2 + 1);
    if st.batch.2 == BATCH {
        st.rates.push(st.batch.0 as f64 / st.batch.1);
        st.batch = (0, 0.0, 0);
    }
    st.tally.record(check(deployment, &report));
    if k < gen::FLOW_DEPLOYMENTS {
        digest(&mut st.digest, &report);
    }
    Ok(())
}

/// Runs the workload; one operation builds, seals and runs one
/// deployment.
///
/// # Errors
///
/// A graph the builder rejects, or a run the engine refuses.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setups = Setups::default();
    setups.repeat(harness::SETUP_REPS, setup)?;
    let mut st = Tallies::default();
    let seconds = harness::untraced_seconds(cfg, 0.5);
    let untraced = harness::run_for(seconds, BATCH as u64, &mut setups, setup, |k| {
        operation(cfg, &mut st, k)
    })?;
    if !cfg.trace {
        let mut out = Outcome::new(st.tally);
        out.check_digest("flow-fusion", cfg.seed, st.digest.value(), gen::FLOW_DEPLOYMENTS);
        out.set("setup_s", setups.value());
        out.set("throughput_per_s", stats::fast_rate(&st.rates));
        out.set("latency_p50_us", st.latency.p50());
        out.set("latency_p99_us", st.latency.p99());
        out.set("peak_rss_mb", stats::peak_rss_mb()?);
        out.set("ok_ratio", out.tally.ok_ratio());
        eprintln!("flow-fusion: {} operations timed", st.latency.samples());
        return Ok(out);
    }

    let (run_latency, untraced_events, untraced_calls_s) =
        (st.run_latency.clone(), st.events, st.calls_s);
    let (traced, times) = harness::traced_replay(untraced.ops, |k| operation(cfg, &mut st, k))?;
    let mut out = Outcome::new(st.tally);
    let (build_s, seal_s, run_s) =
        (times.incl_s("bench.build"), times.incl_s("bench.seal"), times.incl_s("bench.run"));
    out.set("phase.throughput_per_s", untraced_events as f64 / untraced.busy_s);
    out.set("flow.build.busy_s", build_s);
    out.set("flow.seal.busy_s", seal_s);
    out.set("flow.seal.share", seal_s / (build_s + seal_s + run_s));
    out.set("flow.run.busy_s", run_s);
    out.set("flow.events", (st.events - untraced_events) as f64);
    out.set("flow.run_p50_us", run_latency.p50());
    out.set("flow.run_p99_us", run_latency.p99());
    let overhead = traced.busy_s / untraced.busy_s;
    let calls_s = st.calls_s - untraced_calls_s;
    layers::close(&mut out, times.covered_s(), calls_s, traced.busy_s, overhead, times.dropped);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(deployment: usize, seed: u64) -> GraphReport {
        let graph = seal(build(deployment).expect("valid graph")).expect("seals");
        run_graph(&graph, seed).expect("valid horizon")
    }

    #[test]
    fn invariants_hold_across_seeds_and_deployments() {
        for seed in 0..4 {
            for deployment in 0..3 {
                assert!(check(deployment, &report(deployment, seed)), "{deployment} @ {seed}");
            }
        }
    }

    #[test]
    fn a_corrupted_report_fails_its_check() {
        let good = report(1, 9);
        let mut lost_frame = good.clone();
        lost_frame.edges[0].delivered -= 1;
        let mut phantom_plan = good.clone();
        let control = phantom_plan.nodes.len() - 1;
        phantom_plan.nodes[control].received += 1;
        for bad in [lost_frame, phantom_plan] {
            assert!(!check(1, &bad));
        }
    }
}
