#!/usr/bin/env python3
"""Build collapois_bench from source, run it, and check its result line.

Run from the repository root:

    python3 bench/e2e/run.py --workload lenet-krum-sync --seed 1 \
        --seconds 20 --trace 0
    python3 bench/e2e/run.py --seed 1 --out report.json   # all four

Every argument is passed to collapois_bench (see README.md). Without a
--workload, or with --workload all, every workload of BENCHMARK.json runs
in a process of its own, one after another, so that peak_rss_mib belongs
to its workload alone; run.py then merges the result lines (each name
prefixed with its workload), the --out reports and the --trace-out
traces.

The build is the repository's own CMake configuration from the root,
with bench/e2e added by register.cmake, in .bench_build/e2e. The
stability bounds come from BENCHMARK.json, and the metric names and units
on each result line are checked against it. Build output and the report
go to stderr; the result object is the last line of stdout.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
WORK = os.path.join(BUILD, "work")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no repository CMakeLists.txt under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
         "-DCMAKE_PROJECT_collapois_INCLUDE="
         + os.path.join(HERE, "register.cmake")],
        ["cmake", "--build", BUILD, "--target", "collapois_bench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "collapois_bench")


def run(cmd, declared):
    """Runs one collapois_bench process; returns (exit code, result)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"collapois_bench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last line of collapois_bench's output is not a result")
    # A measuring run must report exactly the metrics BENCHMARK.json
    # declares for its mode, with the declared units.
    if declared is not None:
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if want != got:
            fail(f"metrics differ from BENCHMARK.json: {sorted(set(want) ^ set(got))}"
                 f" or units: {[k for k in want if got.get(k) != want[k]]}")
    return proc.returncode, result


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    args, rest = parser.parse_known_args()

    binary = build()
    bounds = ",".join(f"{m['name']}={m['bound']}" for m in spec["end_to_end"])
    base = [binary, "--work-dir", WORK, "--bounds", bounds, "--trace", args.trace,
            *rest]
    if args.smoke:
        code, result = run([*base, "--smoke", "--workload", args.workload], None)
        print(json.dumps(result))
        sys.exit(code)

    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    reports, traces, code = [], [], 0
    for i, name in enumerate(names):
        cmd = [*base, "--workload", name]
        out = trace_out = None
        if args.out:
            out = os.path.join(WORK, f"report-{name}.json")
            cmd += ["--out", out]
        if args.trace_out:
            trace_out = os.path.join(WORK, f"trace-{name}.json")
            cmd += ["--trace-out", trace_out]
        rc, result = run(cmd, declared)
        code = max(code, rc)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for k, v in result["metrics"].items():
            merged["metrics"][prefix + k] = v
        if out:
            with open(out) as f:
                reports.append(json.load(f))
        if trace_out:
            with open(trace_out) as f:
                events = json.load(f)["traceEvents"]
            for e in events:
                e["pid"] = i + 1
            traces.extend(events)

    if args.out:
        report = dict(reports[0])
        report["workloads"] = [w for r in reports for w in r["workloads"]]
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    if args.trace_out:
        with open(args.trace_out, "w") as f:
            json.dump({"traceEvents": traces}, f)
    print(json.dumps(merged))
    sys.exit(code)


if __name__ == "__main__":
    main()
