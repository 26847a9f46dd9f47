#!/usr/bin/env python3
"""The end-to-end benchmark's one entry point.

Builds the benchmark (this directory's CMake package, which compiles the
rtlsat libraries from ../src) and runs one workload:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last stdout line is the result JSON; its metric names are checked
against BENCHMARK.json before it is printed. The exit code is non-zero when
the build fails, a job fails its verdict check, or the names do not match.

    python3 e2ebench/run.py --selftest              # the benchmark's own tests
    python3 e2ebench/run.py --write-benchmark-json  # regenerate BENCHMARK.json

Run from the repository root. Build products go to $CARGO_TARGET_DIR
(default .bench_build) under the root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
RUN_SECONDS = 25
# A run of --seconds 25 takes 25-35 s; a run still going after this is
# stuck and is stopped.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(PACKAGE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    command = ["cmake", "--build", str(out), "-j", BUILD_JOBS, "--target",
               "e2ebench", "e2ebench_selftest"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return out


def binary_catalogue(out):
    listing = subprocess.run([str(out / "e2ebench"), "--list-metrics"],
                             capture_output=True, text=True, check=True)
    return json.loads(listing.stdout)


def expected_names(trace):
    spec = json.loads(BENCHMARK_JSON.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_problem(line, trace):
    """Why `line` is not a valid result line ("" when it is)."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected result keys {sorted(result)}"
    names = list(result["metrics"])
    want = expected_names(trace)
    if names != want:
        missing = sorted(set(want) - set(names))
        extra = sorted(set(names) - set(want))
        return f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return ""


def run_workload(args):
    out = build()
    work = out / "work" / f"{args.workload}-{os.getpid()}"
    spans = out / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    command = [str(out / "e2ebench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work),
               "--spans-out", str(spans)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode} and no result")
        return proc.returncode or 1
    problem = result_problem(lines[-1], args.trace == 1)
    if problem:
        print("\n".join(lines[:-1]))
        log(problem)
        return 1
    print("\n".join(lines), flush=True)
    if proc.returncode != 0:
        log("some jobs failed their verdict checks (see FAILED lines)")
    if args.trace == 1:
        log(f"spans written to {spans}")
    return proc.returncode


def selftest():
    out = build()
    failures = 0
    proc = subprocess.run([str(out / "e2ebench_selftest")], cwd=out,
                          stdout=subprocess.PIPE, text=True)
    results = {}
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT"):
            results[int(line[6])] = line.split(" ", 1)[1]
        else:
            print(line)
    if proc.returncode != 0:
        failures += 1
    for trace in (0, 1):
        problem = result_problem(results.get(trace, ""), trace == 1)
        print(("FAIL " if problem else "ok   ") +
              f"printed trace-{trace} metric names match BENCHMARK.json"
              + (f": {problem}" if problem else ""))
        failures += bool(problem)
    catalogue = binary_catalogue(out)
    spec = json.loads(BENCHMARK_JSON.read_text())
    for key in ("workloads", "end_to_end", "per_layer"):
        same = catalogue[key] == spec[key]
        print(("ok   " if same else "FAIL ") +
              f"BENCHMARK.json {key} match the binary's catalogue")
        failures += not same
    return 1 if failures else 0


def write_benchmark_json():
    catalogue = binary_catalogue(build())
    spec = {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": catalogue["workloads"],
        "end_to_end": catalogue["end_to_end"],
        "per_layer": catalogue["per_layer"],
    }
    BENCHMARK_JSON.write_text(json.dumps(spec, indent=2) + "\n")
    log(f"wrote {BENCHMARK_JSON}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.write_benchmark_json:
            return write_benchmark_json()
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        return run_workload(args)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
