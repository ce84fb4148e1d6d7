#!/usr/bin/env python3
"""Steadiness record: run each workload with several seeds and report,
per end-to-end metric, the median, the quartiles and the quartile spread
as a share of the median, against the bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads camp-uav,serve-dse] [--json out.json]
    python3 perfbench/steadiness.py --compare first.json second.json

Runs are sequential, one process at a time, with the command and
`run_seconds` from BENCHMARK.json. A spread above a third of its bound
is flagged, `setup_s` included. For `serve-dse` the record also counts
runs whose cache-hit round trip p50 exceeded 100 us, the signature of
the server's idle park (see README.md).

`--compare` reads two records and flags every metric whose second
median is worse than the first by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    hit_p50 = None
    for line in proc.stderr.splitlines():
        if line.startswith("serve.rtt.hit_p50_us "):
            hit_p50 = float(line.split()[1])
    return result, hit_p50


def compare(bench, first_path, second_path):
    """Prints how far each median moved; returns whether all held."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    held = True
    print(f"  {'workload':12s} {'metric':18s} {'first':>14s} {'second':>14s}"
          f" {'worse by':>9s} {'bound':>6s}")
    for workload, record in first.items():
        for name, row in record["metrics"].items():
            a = row["median"]
            b = second[workload]["metrics"][name]["median"]
            change = (b - a) / a if a else 0.0
            worse = -change if better[name] == "higher" else change
            flag = ""
            if worse > bounds[name]:
                flag, held = "  <-- beyond bound", False
            print(f"  {workload:12s} {name:18s} {a:14.6g} {b:14.6g}"
                  f" {worse:+9.3f} {bounds[name]:6.3f}{flag}")
    return held


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    ap.add_argument("--compare", nargs=2, metavar="RECORD")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        sys.exit(0 if compare(bench, *args.compare) else 1)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]

    record = {}
    for workload in workloads:
        values = {}
        slow_hits = 0
        correct = True
        for i in range(args.runs):
            seed = args.first_seed + i
            result, hit_p50 = run_once(bench, workload, seed)
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if hit_p50 is not None and hit_p50 > 100.0:
                slow_hits += 1
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), file=sys.stderr)
        rows = {}
        print(f"\n{workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, all correct: {correct})")
        print(f"  {'metric':18s} {'median':>14s} {'q1':>14s} {'q3':>14s}"
              f" {'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": vals}
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            shown = "-" if bound is None else f"{bound:.3f}"
            print(f"  {name:18s} {med:14.6g} {q1:14.6g} {q3:14.6g}"
                  f" {spread:8.4f} {shown:>6s}{flag}")
        if workload == "serve-dse":
            print(f"  runs with serve.rtt.hit_p50_us > 100 us: {slow_hits} of {args.runs}")
        record[workload] = {"correct": correct, "metrics": rows,
                            "slow_hit_runs": slow_hits if workload == "serve-dse" else None}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
