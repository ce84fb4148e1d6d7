//! End-to-end and per-layer benchmark of the magseven stack.
//!
//! ```text
//! m7-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as its last line of standard output: whether
//! every checked output was correct, how many operations were attempted
//! and failed, and the metrics — end-to-end with `--trace 0`, per layer
//! with `--trace 1`. Workloads, metrics and layers are described in
//! README.md beside this crate.

mod camp;
mod flow;
mod gen;
mod harness;
mod layers;
mod report;
mod rover;
mod serve;
mod stats;

use harness::RunConfig;

/// The seed whose output digests are stored in `digests.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// Workload names, as the command line takes them.
pub const WORKLOADS: [&str; 4] = ["camp-uav", "rover-rrt", "serve-dse", "flow-fusion"];

const USAGE: &str =
    "usage: m7-perfbench --workload <camp-uav|rover-rrt|serve-dse|flow-fusion> [--seed N] \
     [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig { seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad(&"must lie in (0, 600]"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, cfg))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cfg.trace {
        layers::configure_recorder(cfg.seconds);
    }
    let result = match workload.as_str() {
        "camp-uav" => camp::run(&cfg),
        "rover-rrt" => rover::run(&cfg),
        "serve-dse" => serve::run(&cfg),
        _ => flow::run(&cfg),
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json(report::catalogue(cfg.trace), cfg.trace));
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let (w, cfg) =
            parse_args(&args("--workload rover-rrt --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(w, "rover-rrt");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 10.0, true));
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload camp-uav --trace 2",
            "--workload camp-uav --seconds 0",
            "--workload camp-uav --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
