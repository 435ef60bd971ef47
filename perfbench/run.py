#!/usr/bin/env python3
"""Repo benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The driver is built with CMake into
.bench_build/perfbench (incremental after the first run). Each workload runs
in one process with the thread settings perfbench/workloads.json gives it.
With --trace 0 the last line of standard output carries every end-to-end
metric of BENCHMARK.json; with --trace 1 every per-layer metric, from a run
that also writes a Chrome trace. A full report, with sample counts and the
settings the numbers were taken under, goes to .bench_out/. The exit code is
non-zero, and no result line is printed, when the build fails, a
correctness check fails, or a metric is missing.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
DRIVER_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            return subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(target):
    """Configures once, then builds `target` incrementally."""
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                      log, 600) != 0:
            sys.stderr.write(open(log).read()[-4000:])
            fail("configure failed (see %s)" % log, 3)
    if run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target", target], log, 880) != 0:
        sys.stderr.write(open(log).read()[-4000:])
        fail("build failed (see %s)" % log, 3)
    return os.path.join(BUILD, target)


def provenance():
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"git_sha": sha, "build_type": build_type, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def omp_threads(setting):
    return str(os.cpu_count() or 1) if setting == "nproc" else str(int(setting))


def result_metrics(ledger, names, units, layer_map, workload):
    """Picks `names` from the ledger. A per-layer metric of a layer the
    workload does not exercise reads 0; any other missing metric fails."""
    out = {}
    for name in names:
        got = ledger["metrics"].get(name)
        if got is None:
            owners = layer_map.get(name, {}).get("workloads", [])
            if layer_map and workload not in owners:
                out[name] = {"value": 0.0, "unit": units[name]}
                continue
            fail("metric %s missing from the %s run" % (name, workload))
        if got["unit"] != units[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" % (name, got["unit"], units[name]))
        if got["value"] is None:
            fail("metric %s is not a number" % name)
        out[name] = {"value": got["value"], "unit": got["unit"]}
    return out


def print_table(ledger, names):
    print("%-44s %16s  %-8s %s" % ("metric", "value", "unit", "samples"))
    for name in names:
        m = ledger["metrics"].get(name)
        if m is None:
            print("%-44s %16s" % (name, "n/a (layer not on this workload's path)"))
        else:
            count = str(m["count"]) if m["count"] else ""
            print("%-44s %16.6g  %-8s %s" % (name, m["value"], m["unit"], count))


def self_test():
    binary = build("perfbench_tests")
    code = subprocess.run([binary], cwd=ROOT).returncode
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the driver's helpers")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    workloads = config["workloads"]
    if args.workload not in workloads:
        fail("unknown workload %s (have %s)" % (args.workload, ", ".join(workloads)), 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    wl = workloads[args.workload]
    layer_map = config["per_layer"]
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in layer_map]
    if missing:
        fail("per-layer metrics without a layer map entry: " + ", ".join(missing), 2)

    binary = build("perfbench_driver")
    os.makedirs(OUT, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT, stem + ".trace.json")]
    for key, value in wl["params"].items():
        cmd += ["--set", "%s=%s" % (key, value)]
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = omp_threads(wl["omp_threads"])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        ledger = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        fail("driver exited %d without a ledger" % proc.returncode)

    ledger["meta"].update(provenance())
    ledger["meta"]["omp_threads_setting"] = wl["omp_threads"]
    ledger["settings"] = {"threads": wl["threads"], "params": wl["params"]}
    with open(os.path.join(OUT, stem + ".json"), "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)

    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[kind]]
    units = {m["name"]: m["unit"] for m in bench[kind]}
    print("workload %s seed %d trace %d: nproc %s, OpenMP team %s, git %s, %s build" % (
        args.workload, args.seed, args.trace, ledger["meta"]["nproc"],
        ledger["meta"]["omp_threads"], ledger["meta"]["git_sha"], ledger["meta"]["build_type"]))
    print_table(ledger, names)
    print("checks: %d run, %d failed; operations: %d attempted, %d failed" % (
        ledger["checks"], len(ledger["failed_checks"]), ledger["attempted"], ledger["failed"]))
    for check in ledger["failed_checks"]:
        print("FAILED CHECK %s: %s" % (check["name"], check["detail"]), file=sys.stderr)
    if proc.returncode != 0 or ledger["failed_checks"]:
        sys.stderr.write(proc.stderr[-4000:])
        fail("correctness checks failed (driver exit %d)" % proc.returncode)

    metrics = result_metrics(ledger, names, units, layer_map if args.trace else {}, args.workload)
    print(json.dumps({"correct": True, "attempted": ledger["attempted"],
                      "failed": ledger["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
