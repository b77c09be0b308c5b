#!/usr/bin/env python3
"""Build and run the repository benchmark (see benchmark/README.md).

One workload, one JSON result line (for scripted comparisons):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

A report over all workloads:

    python3 benchmark/run.py [--seed S] [--trace] [--runs K] [--quick]

Both build benchmark/CMakeLists.txt into benchmark/out/build first.  Each
workload runs in its own process.  Every window's work counts must be
identical and every golden output must match; otherwise the result is
marked incorrect and the exit code is 1.  The workloads and the metrics'
names and units are those of BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
BUILD = OUT / "build"
BINARY = BUILD / "canely_bench"
BASELINE = HERE / "baseline.json"

QUICK_SECONDS = 1
DEFAULT_SEED = 42
# Set-up-only processes started before and again after the measured one;
# setup_s is the median over all of them, spread over the run so that a
# slow phase of the host of a few seconds moves it little.
SETUP_ONLY_EACH_SIDE = 3


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    if not SPEC.is_file():
        raise BenchError(f"{SPEC} not found")
    spec = json.loads(SPEC.read_text())
    spec["end_to_end"] = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    spec["per_layer"] = {m["name"]: m["unit"] for m in spec["per_layer"]}
    spec["workloads"] = [w["name"] for w in spec["workloads"]]
    return spec


def build():
    """Configure once, then bring the build up to date (a no-op when it is)."""
    if not (SRC / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found at {SRC}")
    OUT.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=300).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=850).returncode:
        raise BenchError("build failed")


def spawn(workload, seed, seconds, trace, quick, setup_only=False):
    """One canely_bench process; adds its set-up time from process start."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(OUT)]
    if quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    # canely_bench reports `ready_at` on the same clock (CLOCK_MONOTONIC).
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=150)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: canely_bench exited {proc.returncode}")
    raw = json.loads(lines[-1])
    raw["setup_s"] = raw["ready_at"] - started
    if not 0 < raw["setup_s"] < time.monotonic() - started + 1e-3:
        raise BenchError(f"{workload}: set-up time {raw['setup_s']} s is "
                         "not on this process's clock")
    return raw


def run_workload(workload, seed, seconds, trace, quick):
    """One measured process between set-up-only ones, summarized."""
    def setup_only():
        return [spawn(workload, seed, seconds, False, quick,
                      setup_only=True)["setup_s"]
                for _ in range(SETUP_ONLY_EACH_SIDE)]

    before = setup_only()
    raw = spawn(workload, seed, seconds, trace, quick)
    return summarize(raw, before + [raw["setup_s"]] + setup_only())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(raw, setups):
    """Metrics, correctness and ledger of one canely_bench result."""
    windows = raw["windows"]
    errors = list(raw["errors"])
    first = windows[0]
    for i, w in enumerate(windows[1:], start=1):
        for key in ("units", "digest", "ledger"):
            if w[key] != first[key]:
                errors.append(f"window {i} {key} differs from window 0")
    rates = [w["units"] / w["secs"] for w in windows if not w["traced"]]
    traced = [w["units"] / w["secs"] for w in windows if w["traced"]]
    attempted = sum(w["units"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    s = {
        "workload": raw["workload"],
        "unit": raw["unit"],
        "threads": raw["threads"],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "correct": not errors and failed == 0,
        "rates": rates,
        "setups": setups,
        "metrics": {
            "work_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        },
        "ledger": dict(first["ledger"], digest=first["digest"],
                       units=first["units"]),
        "sim": {},
    }
    if raw["detect_ms"]:
        s["sim"]["sim_detect_ms_p50"] = statistics.median(raw["detect_ms"])
        s["sim"]["sim_detect_ms_max"] = max(raw["detect_ms"])
    if raw["formation_ms"]:
        s["sim"]["sim_formation_ms_p50"] = statistics.median(raw["formation_ms"])
    if "layers" in raw:
        layers = {k: v["value"] for k, v in raw["layers"].items()}
        layers["trace_overhead_pct"] = (
            statistics.median(rates) / statistics.median(traced) - 1) * 100
        s["layers"] = layers
    return s


def check_names(s, spec):
    """Every metric BENCHMARK.json names must have been measured."""
    for key, measured in (("end_to_end", s["metrics"]),
                          ("per_layer", s.get("layers"))):
        if measured is None:
            continue
        missing = sorted(set(spec[key]) - set(measured))
        if missing:
            s["errors"].append(f"{key} metrics not measured: {missing}")
            s["correct"] = False


def contract(args, spec):
    build()
    s = run_workload(args.workload, args.seed, args.seconds, args.trace,
                     args.quick)
    check_names(s, spec)
    for e in s["errors"]:
        log(f"error: {e}")
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = s["layers"] if args.trace else s["metrics"]
    result = {
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": source.get(k, 0.0), "unit": u}
                    for k, u in names.items()},
    }
    print(json.dumps(result))
    return 0 if s["correct"] else 1


def fmt(v):
    return f"{v:.6g}"


def report(args, spec):
    build()
    seconds = QUICK_SECONDS if args.quick else args.seconds
    recorded = {}
    if BASELINE.is_file() and args.seed == DEFAULT_SEED and not args.quick:
        recorded = json.loads(BASELINE.read_text())["ledger"]
    errors = []
    summary = {}
    for w in spec["workloads"]:
        runs = []
        for r in range(args.runs):
            log(f"[{w}] run {r + 1}/{args.runs} (seed {args.seed}, {seconds} s)")
            runs.append(run_workload(w, args.seed, seconds, False, args.quick))
        traced = None
        if args.trace:
            log(f"[{w}] traced run")
            traced = run_workload(w, args.seed, seconds, True, args.quick)
        for s in runs + ([traced] if traced else []):
            check_names(s, spec)
        summary[w] = print_workload(w, runs, traced, recorded.get(w), spec,
                                    errors)
    out = OUT / ("report.quick.json" if args.quick else "report.json")
    out.write_text(json.dumps({"seed": args.seed, "runs": args.runs,
                               "seconds": seconds, "workloads": summary},
                              indent=2) + "\n")
    log(f"report written to {out}")
    for e in errors:
        print(f"FAIL: {e}")
    print("all golden and work-count checks passed" if not errors
          else f"{len(errors)} check(s) failed")
    return 1 if errors else 0


def print_workload(w, runs, traced, recorded, spec, errors):
    first = runs[0]
    print(f"\n== {w}  ({first['threads']} thread(s), {len(runs)} run(s))")
    all_runs = runs + ([traced] if traced else [])
    for i, s in enumerate(all_runs):
        errors.extend(f"{w}: {e}" for e in s["errors"])
        if s["ledger"] != first["ledger"]:
            errors.append(f"{w}: run {i} work counts differ from run 0")
    samples_of = {"work_per_s": "rates", "setup_s": "setups"}
    print(f"  {'metric':38} {'unit':>6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>4} {'run spread':>10}")
    for name, unit in spec["end_to_end"].items():
        per_run = [s["metrics"][name] for s in runs]
        key = samples_of.get(name)
        samples = [x for s in runs for x in s[key]] if key else per_run
        q1, q3 = quartiles(samples)
        rq1, rq3 = quartiles(per_run)
        med = statistics.median(per_run)
        spread = (rq3 - rq1) / med if med else 0.0
        label = f"{name} ({first['unit']}/s)" if name == "work_per_s" else name
        print(f"  {label:38} {unit:>6} {fmt(statistics.median(samples)):>12} "
              f"{fmt(q1):>12} {fmt(q3):>12} {len(samples):>4} {spread:>10.2%}")
    attempted = sum(s["attempted"] for s in runs)
    failed = sum(s["failed"] for s in runs)
    print(f"  {'failed_frac':38} {'ratio':>6} {fmt(failed / attempted):>12}"
          f"   ({failed} of {attempted})")
    for name, v in first["sim"].items():
        print(f"  {name:38} {'sim ms':>6} {fmt(v):>12}")
    print(f"  work counts per window: {json.dumps(first['ledger'])}")
    if recorded is not None:
        diff = {k: (recorded.get(k), v) for k, v in first["ledger"].items()
                if recorded.get(k) != v}
        print("  work counts match benchmark/baseline.json" if not diff else
              f"  work counts differ from benchmark/baseline.json "
              f"(recorded, now): {diff}")
    if traced:
        print("  per-layer (traced run):")
        for name, unit in spec["per_layer"].items():
            print(f"    {name:38} {unit:>6} "
                  f"{fmt(traced['layers'].get(name, float('nan'))):>12}")
        print(f"  trace: {OUT / f'trace.{w}.json'}, "
              f"layers: {OUT / f'layers.{w}.json'}")
    return {"runs": runs, "traced": traced}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="run one workload, print one JSON line")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="measured seconds per run (default: BENCHMARK.json)")
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"], help="traced run: per-layer metrics")
    p.add_argument("--runs", type=int, default=1,
                   help="report: whole runs per workload")
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes, same golden and work-count checks")
    args = p.parse_args()
    args.trace = args.trace == "1"
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.runs < 1 or not args.seconds > 0:
            p.error("--runs and --seconds must be positive")
        if args.workload:
            if args.workload not in spec["workloads"]:
                p.error(f"unknown workload {args.workload}")
            return contract(args, spec)
        return report(args, spec)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            json.JSONDecodeError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
