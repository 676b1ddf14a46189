"""Paired benchmark of two source checkouts, written as a BENCH_<n>.json table.

    python scripts/bench_pairs.py --parent DIR --change DIR --seeds 11 12 ... \
        [--workloads NAME ...] [--seconds S] [--out BENCH_n.json]

For each seed and workload, `perfbench/run.py --trace 0` runs once in each
checkout, the parent first on even-indexed seeds and the change first on odd
ones, so neither side always takes the second (warmer) slot. The workloads
default to those of the change's BENCHMARK.json and the seconds to its
`run_seconds`. Each run's last line gives the end-to-end metrics and the line
before it the report (input digest, fail ratio). Then, per workload, `--trace 1` runs
once in each checkout on the first seed, to show in which layer a change
appears.

Per workload and end-to-end metric the table holds each side's q1, median,
q3 and IQR over the seeds, the ratio of the medians, the median paired ratio
(change over parent, per seed) and the number of seeds on which the change is
better in the metric's direction; per workload also whether every pair had
equal input digests, each side's highest fail ratio, and each side's median
over its runs of max/min of the run's set-up samples (`setup_s_samples` in
the report). Near 1, a run's set-ups took equal times; well above 1, the
machine changed speed within the run, which can move `setup_s` without any
change to the set-up code. Per workload `per_layer` holds the traced runs'
metrics as {name: {parent, change}}, null where one side has no such name.

Each metric also gets two verdicts:
- `claim_rule_met`: the change wins at least nine tenths of the pairs (ties
  count for neither side), and its median beats the parent's by more than
  the parent's IQR, the rule for claiming a gain;
- `within_bound`: the change's median is no worse than the parent's by more
  than the metric's `bound` in BENCHMARK.json, as a fraction of the
  parent's median.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds, trace=0):
    """(report, result) of one `perfbench/run.py --trace 0|1` in a checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6), "iqr": round(q3 - q1, 6)}


def summarize(runs, metrics):
    """The table of one workload from its runs: per seed, {side: (report,
    result)}; `metrics` maps each end-to-end metric to its direction, "lower"
    or "higher", and its bound."""
    n = len(runs)
    table = {
        "pairs": n,
        "input_digest_equal": all(r["parent"][0]["input_digest"] == r["change"][0]["input_digest"] for r in runs),
        "fail_ratio_max": {side: max(r[side][0]["fail_ratio"] for r in runs) for side in SIDES},
        "setup_max_over_min_median": {
            side: round(float(np.median([max(s) / min(s) for s in (r[side][0]["setup_s_samples"] for r in runs)])), 4)
            for side in SIDES
        },
        "metrics": {},
    }
    for name, (direction, bound) in metrics.items():
        values = {side: np.array([r[side][1]["metrics"][name]["value"] for r in runs]) for side in SIDES}
        ratios = values["change"] / values["parent"]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sign * values["change"] < sign * values["parent"]
        parent, change = np.median(values["parent"]), np.median(values["change"])
        q1, q3 = np.percentile(values["parent"], [25, 75])
        table["metrics"][name] = {
            **{side: spread(values[side]) for side in SIDES},
            "median_change_over_parent": round(float(change / parent), 4),
            "median_paired_ratio": round(float(np.median(ratios)), 4),
            f"change_wins_of_{n}": int(wins.sum()),
            "claim_rule_met": bool(wins.sum() >= 0.9 * n and sign * (parent - change) > q3 - q1),
            "within_bound": bool(sign * (change - parent) <= bound * parent),
        }
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}

    runs = {w: [] for w in workloads}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {side: run_once(checkouts[side], workload, seed, seconds) for side in order}
            runs[workload].append(pair)
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{side} solve_s {pair[side][1]['metrics']['solve_s']['value']:.4f}" for side in SIDES), flush=True)

    per_layer = {}
    for workload in workloads:
        traced = {side: run_once(checkouts[side], workload, args.seeds[0], seconds, trace=1)[1]["metrics"]
                  for side in SIDES}
        names = sorted(set(traced["parent"]) | set(traced["change"]))
        per_layer[workload] = {name: {side: traced[side].get(name, {}).get("value") for side in SIDES}
                               for name in names}

    env = runs[workloads[0]][0]["change"][0]["environment"]
    doc = {
        "environment": {key: env[key] for key in ("python", "numpy", "scipy", "blas_numpy", "nproc")},
        "procedure": (f"perfbench/run.py --seconds {seconds} --trace 0 in each checkout; parent and change "
                      "alternated per seed (parent first on even-indexed seeds), the workloads in the order "
                      f"{', '.join(workloads)} per seed; then --trace 1 once per side and workload on "
                      f"seed {args.seeds[0]} for per_layer; written by scripts/bench_pairs.py"),
        "held_out_seeds": args.seeds,
        "workloads": {w: {**summarize(runs[w], metrics), "per_layer": per_layer[w]} for w in workloads},
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
