"""Benchmark of the vpstab numerical checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. One closed-loop caller runs the workload's checked cases
in this process, BLAS at its default thread count. With `--trace 0` the last
line of standard output is the end-to-end result; with `--trace 1` the same
cases run once untraced and once with every layer wrapped, and the last line
holds the per-layer metrics. The line before it is the full report
(environment, input digest, gate margins, failures), also written with the
spans to `perfbench/results/`. See perfbench/README.md.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 6
WORKLOAD_NAMES = ("sweep", "lowerbound", "monotonicity", "spectrum")


def import_package():
    """Import `vpstab` from this checkout's src/, never from elsewhere."""
    if not (SRC / "vpstab" / "__init__.py").is_file():
        raise SystemExit(f"error: no vpstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vpstab

    if Path(vpstab.__file__).resolve().parent != SRC / "vpstab":
        raise SystemExit(f"error: imported vpstab from {vpstab.__file__}, not {SRC}")


# --- statistics --------------------------------------------------------------
def tail_rank(n):
    """Highest nearest-rank percentile with at least ten samples beyond it:
    (rank, percentile), or None below eleven samples."""
    if n < 11:
        return None
    return n - 10, 100.0 * (n - 10) / n


def latency_summary(seconds):
    """Median, p90 and the rule's tail of per-case latencies, in ms."""
    ms = sorted(1e3 * s for s in seconds)
    out = {
        "samples": len(ms),
        "p50_ms": statistics.median(ms),
        "p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0],
        "p90_supported": len(ms) >= 100,
    }
    tail = tail_rank(len(ms))
    if tail is not None:
        out["tail_percentile"] = tail[1]
        out["tail_ms"] = ms[tail[0] - 1]
    return out


# --- running cases -----------------------------------------------------------
def run_cases(cases, recorder=None):
    """Run every case once; an exception or a violated gate fails the case."""
    latencies, failures, margins = [], [], {}
    work = 0.0
    t0 = time.perf_counter()
    for index, case in enumerate(cases):
        if recorder is not None:
            recorder.case = index
        try:
            gates, call_s = case.run()
        except Exception as exc:  # the loop must go on; the failure is reported
            failures.append({"case": case.label, "error": "".join(traceback.format_exception_only(exc)).strip()})
            continue
        latencies.append(call_s)
        work += case.work
        for g in gates:
            margins[g.name] = min(margins.get(g.name, float("inf")), g.margin)
        violated = [f"{g.name}={g.value!r} (bound {g.op} {g.bound!r})" for g in gates if not g.ok]
        if violated:
            failures.append({"case": case.label, "violated": violated})
    return {
        "solve_s": time.perf_counter() - t0,
        "attempted": len(cases),
        "failed": len(failures),
        "work": work,
        "latencies": latencies,
        "failures": failures,
        "margins": margins,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- provenance --------------------------------------------------------------
def _openblas_threads(package):
    pattern = os.path.join(os.path.dirname(package.__file__), os.pardir, package.__name__ + ".libs", "*openblas*.so*")
    for path in sorted(glob.glob(pattern)):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _blas(package):
    deps = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": deps.get("name"), "version": deps.get("version"), "threads": _openblas_threads(package)}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "vpstab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }


def input_digest(workload, spec):
    doc = json.dumps({"workload": workload, "spec": spec}, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


# --- the two kinds of run ----------------------------------------------------
def end_to_end(setup, seed, seconds):
    def timed_setup():
        t0 = time.perf_counter()
        plan = setup(seed, seconds)
        return plan, time.perf_counter() - t0

    # The set-ups straddle the solve, so their median samples more than one
    # stretch of the machine's background load.
    before = [timed_setup() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    plan = before[-1][0]
    res = run_cases(plan.make_cases())
    setup_times = [t for _, t in before] + [timed_setup()[1] for _ in range(SETUP_REPEATS // 2)]
    lat = latency_summary(res["latencies"]) if res["latencies"] else None
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (res["solve_s"], "s"),
        "throughput": (res["work"] / res["solve_s"], "1/s"),
        "case_ms_p50": (lat["p50_ms"] if lat else 0.0, "ms"),
        "case_ms_p90": (lat["p90_ms"] if lat else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"setup_s_samples": setup_times, "latency": lat}
    return plan, [res], metrics, detail, None


def traced(setup, seed, seconds):
    import tracing

    rec = tracing.Recorder()
    with rec.installed("setup"):
        plan = setup(seed, seconds)
    rec.mark_derived(plan.model)
    plain = run_cases(plan.make_cases())
    with rec.installed("solve"):
        res = run_cases(plan.make_cases(), recorder=rec)
    values = tracing.layer_metrics(rec, res["attempted"], res["solve_s"], plain["solve_s"])
    metrics = {name: (value, tracing.unit_of(name)) for name, value in values.items()}
    detail = {"untraced_solve_s": plain["solve_s"], "traced_solve_s": res["solve_s"], "spans": len(rec.spans)}
    return plan, [plain, res], metrics, detail, rec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_package()
    import workloads

    setup = workloads.WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    plan, passes, metrics, detail, rec = run(setup, args.seed, args.seconds)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "input_digest": input_digest(args.workload, plan.spec),
        "throughput_item": plan.item,
        "fail_ratio": failed / attempted,
        "gate_margins": passes[-1]["margins"],
        "failures": [f for p in passes for f in p["failures"]][:20],
        **detail,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    if rec is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(rec.to_json()))

    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
