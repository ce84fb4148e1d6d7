//! The metric catalogue and the one-line JSON result.

use crate::stats::Tally;
use std::collections::BTreeMap;

/// End-to-end metrics: every untraced run reports each of them.
/// Latency is per operation: one campaign, one rover mission, one graph
/// build-seal-run, one served request from its due time.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics: every traced run reports each of them. A layer a
/// workload never reaches reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("phase.throughput_per_s", "1/s"),
    ("scen.generate.calls", "count"),
    ("scen.generate.busy_s", "s"),
    ("scen.world.busy_s", "s"),
    ("scen.evaluate.calls", "count"),
    ("scen.evaluate.busy_s", "s"),
    ("scen.evaluate.mean_us", "us"),
    ("scen.falsify.busy_s", "s"),
    ("kernels.rrt.calls", "count"),
    ("kernels.rrt.busy_s", "s"),
    ("kernels.rrt.found_ratio", "ratio"),
    ("sim.rover.loop_s", "s"),
    ("rover.mission_p50_us", "us"),
    ("rover.mission_p99_us", "us"),
    ("camp.units", "count"),
    ("camp.self_s", "s"),
    ("camp.store.busy_s", "s"),
    ("flow.build.busy_s", "s"),
    ("flow.seal.busy_s", "s"),
    ("flow.seal.share", "ratio"),
    ("flow.run.busy_s", "s"),
    ("flow.events", "count"),
    ("flow.run_p50_us", "us"),
    ("flow.run_p99_us", "us"),
    ("serve.rtt.hit_p50_us", "us"),
    ("serve.rtt.miss_p50_us", "us"),
    ("serve.rtt.miss_p99_us", "us"),
    ("serve.evaluator.calls", "count"),
    ("serve.evaluator.busy_s", "s"),
    ("serve.tier.hot_hits", "count"),
    ("serve.tier.disk_hits", "count"),
    ("serve.tier.misses", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.phase.parse_p99_us", "us"),
    ("serve.phase.dispatch_p99_us", "us"),
    ("serve.phase.write_p99_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.shed", "count"),
    ("serve.gen.late_p99_us", "us"),
    ("trace.wall_s", "s"),
    ("trace.closure_ratio", "ratio"),
    ("trace.dropped_events", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Largest share by which the spans below the operations may miss the
/// public calls' own wall time (see [`crate::layers::close`]).
pub const CLOSURE_TOLERANCE: f64 = 0.05;

/// The metrics a run reports, in order.
#[must_use]
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Checks beyond per-operation outputs (digest, trace closure) held.
    pub checks_hold: bool,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// An outcome over `tally` with every extra check holding so far.
    #[must_use]
    pub fn new(tally: Tally) -> Self {
        Self { tally, checks_hold: true, metrics: BTreeMap::new() }
    }

    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Checks the workload's output digest against the stored one,
    /// at the default seed only. A mismatch fails every operation the
    /// digest covered.
    pub fn check_digest(&mut self, workload: &str, seed: u64, digest: u64, ops: u64) {
        eprintln!("digest {workload} seed {seed}: {digest:016x} over {ops} operations");
        if seed != crate::DEFAULT_SEED {
            return;
        }
        let stored = stored_digest(workload);
        if stored != Some(digest) {
            eprintln!("digest mismatch for {workload}: stored {stored:016x?}");
            self.checks_hold = false;
            self.tally.failed = (self.tally.failed + ops).min(self.tally.attempted);
        }
    }

    /// The result line over `catalogue` (see [`catalogue`]); `trace`
    /// lets layers the run never reached read 0.
    ///
    /// # Panics
    ///
    /// When the workload left an end-to-end metric unmeasured, or
    /// measured a name outside the catalogue — both benchmark bugs.
    #[must_use]
    pub fn to_json(&self, catalogue: &[(&str, &str)], trace: bool) -> String {
        for name in self.metrics.keys() {
            assert!(catalogue.iter().any(|(n, _)| n == name), "metric {name} not in catalogue");
        }
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied();
                assert!(trace || value.is_some(), "end-to-end metric {name} unmeasured");
                let value = value.unwrap_or(0.0);
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.checks_hold && self.tally.failed == 0 && self.tally.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// The digest stored for `workload` at the default seed.
fn stored_digest(workload: &str) -> Option<u64> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        // Pull the `name`/`unit` pairs of one BENCHMARK.json list.
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let list = &json[start..json[start..].find(']').map(|e| start + e).expect("list end")];
        list.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').expect("open quote") + 1;
                    let close = open + rest[open..].find('"').expect("close quote");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let own = |c: &[(&str, &str)]| {
            c.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect::<Vec<_>>()
        };
        assert_eq!(listed(json, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(json, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn every_workload_has_a_stored_digest() {
        for workload in crate::WORKLOADS {
            assert!(stored_digest(workload).is_some(), "{workload}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::new(Tally { attempted: 3, failed: 0 });
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = out.to_json(END_TO_END, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"throughput_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
        // Traced lines zero-fill layers the workload never reached.
        let traced = Outcome::new(Tally { attempted: 1, failed: 0 }).to_json(catalogue(true), true);
        assert!(traced.contains("\"serve.shed\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(traced.contains("\"flow.events\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }
}
