#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

One workload, one run — the form BENCHMARK.json's command takes:

    python3 benchmark/run.py --workload lookup_twitter --seed 7 --seconds 10 --trace 0

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"} with the end-to-end metrics (--trace 0) or the per-layer metrics
of a traced run (--trace 1). The exit code is 0 only for a correct run.

All workloads (no --workload), optionally repeated, into one results file:

    python3 benchmark/run.py --repeat 5 --out results.json
    python3 benchmark/run.py --quick            # tiny inputs, under 30 s

The engine is built from the checkout's sources into $CARGO_TARGET_DIR (or
.bench_build) with CMake, Release only, before the first run.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out_dir):
    """Configures (once) and builds tc_bench; returns its path."""
    cmake_dir = out_dir / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "tc_bench",
                  "-j", jobs])
    # One build at a time per build directory.
    with open(out_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                fail(f"build step failed: {' '.join(cmd)}", 1)
    return cmake_dir / "tc_bench"


def run_tc_bench(exe, out_dir, workload, seed, seconds, quick, self_test,
                 trace_out=None, untraced_ops_per_s=None):
    """One process, one workload; returns tc_bench's JSON result."""
    data_dir = out_dir / "data" / f"{workload}-{os.getpid()}"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--data-dir", str(data_dir)]
    if quick:
        cmd.append("--quick")
    if self_test:
        cmd.append("--self-test")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out),
                "--untraced-ops-per-s", repr(untraced_ops_per_s)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} exited with {proc.returncode} and no result", 1)
    return json.loads(lines[-1])


def untraced_cache(out_dir, workload, seconds, quick):
    """Where the latest untraced ops_per_s with these settings is kept: the
    base of a traced run's trace.overhead_frac."""
    return out_dir / "untraced" / f"{workload}-{'quick' if quick else 'full'}-{seconds}s.json"


def remember_untraced(cache, result):
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps({"ops_per_s": result["metrics"]["ops_per_s"]["value"]}))


def untraced_ops_per_s(exe, out_dir, workload, seed, seconds, quick):
    """The remembered untraced ops_per_s, running one untraced first when
    there is none."""
    cache = untraced_cache(out_dir, workload, seconds, quick)
    if not cache.exists():
        remember_untraced(cache, run_tc_bench(exe, out_dir, workload, seed, seconds,
                                              quick, False))
    return json.loads(cache.read_text())["ops_per_s"]


def check_metrics(result, declared):
    """Every declared metric is present, finite and in its declared unit."""
    problems = []
    for m in declared:
        got = result.get(m["name"])
        if got is None:
            problems.append(f"{m['name']} missing")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{m['name']} is not a finite number")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']} in {got['unit']}, declared {m['unit']}")
    return problems


def fs_type(path):
    """File-system type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def provenance(out_dir, result):
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    data_dir = out_dir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    return {
        "git_rev": rev,
        "compiler": result["build"]["compiler"],
        "build_type": result["build"]["type"],
        "nproc": os.cpu_count(),
        "data_dir": str(data_dir),
        "data_dir_fs": fs_type(data_dir),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and 1 s timed phases")
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt one expected answer; the run must fail")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload when running all workloads")
    parser.add_argument("--out", help="results file (default: <build dir>/results.json)")
    args = parser.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("TC_"))
    if knobs:
        fail("refusing to run with engine knobs set: " + " ".join(knobs))
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"engine sources not found under {ROOT}")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {', '.join(names)}")
    if args.workload is None and args.trace:
        fail("--trace 1 runs one workload: add --workload")
    seconds = args.seconds or (1 if args.quick else spec["run_seconds"])
    out_dir = build_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    exe = build(out_dir)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.workload is not None:
        trace_out = untraced = None
        if args.trace:
            untraced = untraced_ops_per_s(exe, out_dir, args.workload, args.seed,
                                          seconds, args.quick)
            trace_out = out_dir / "traces" / f"{args.workload}.json"
            trace_out.parent.mkdir(parents=True, exist_ok=True)
        result = run_tc_bench(exe, out_dir, args.workload, args.seed, seconds,
                              args.quick, args.self_test, trace_out, untraced)
        if not args.trace and not args.self_test and result["correct"]:
            remember_untraced(untraced_cache(out_dir, args.workload, seconds, args.quick),
                              result)
        metrics = result["per_layer"] if args.trace else result["metrics"]
        problems = check_metrics(metrics, declared)
        if args.out:
            Path(args.out).write_text(json.dumps(
                {"provenance": provenance(out_dir, result), "runs": [result]}, indent=1))
        if problems:
            fail("; ".join(problems), 1)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                    "unit": metrics[m["name"]]["unit"]}
                        for m in declared},
        }))
        return 0 if result["correct"] else 1

    runs = []
    ok = True
    for r in range(args.repeat):
        for name in names:
            result = run_tc_bench(exe, out_dir, name, args.seed, seconds, args.quick,
                                  args.self_test)
            problems = check_metrics(result["metrics"], declared)
            if problems or not result["correct"]:
                ok = False
                print(f"{name}: {'; '.join(problems + result['failures'])}", file=sys.stderr)
            runs.append(result)
            print(f"[{r + 1}/{args.repeat}] {name}: " + ", ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                for m in declared if m["name"] in result["metrics"]), file=sys.stderr)
    out = Path(args.out) if args.out else out_dir / "results.json"
    out.write_text(json.dumps({"provenance": provenance(out_dir, runs[0]), "seconds": seconds,
                               "runs": runs}, indent=1))
    print(f"{'workload':16} " + " ".join(f"{m['name']:>26}" for m in declared))
    for name in names:
        vals = []
        for m in declared:
            xs = [x["metrics"][m["name"]]["value"] for x in runs if x["workload"] == name
                  and m["name"] in x["metrics"]]
            vals.append(f"{statistics.median(xs):>20.6g} {m['unit']:>5}" if xs else f"{'-':>26}")
        print(f"{name:16} " + " ".join(vals))
    print(f"results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
