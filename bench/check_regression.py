#!/usr/bin/env python3
"""Compare fresh bench JSON against the committed baselines.

Two report formats are understood:

* BENCH_micro.json — a flat ``{"BM_Name/arg": ns_per_op}`` map written by
  ``bench/bench_micro``. Lower is better.
* BENCH_serve.json — the report written by ``bench/bench_serve``: a list of
  points (sequential, closed loop, open loop, overload, and HTTP with its
  in-process twin), each with its blocks and the per-metric median over
  them. Only the medians are compared. The pinned signals of every point
  that has them are the speedup over sequential, the overload goodput
  ratio and the HTTP/in-process rows/s ratio (higher is better; each is
  formed per block against a block run just before it, so co-tenant load
  on the bench box cancels out), and the p95 latency: end to end through
  the service, or send to response over HTTP (lower is better). Absolute
  floors hold whatever the baseline says: the overload goodput ratio at
  2x offered load stays at or above 0.55 of the sequential rate, HTTP
  keeps at least half of the in-process rows/s on the same schedule, a
  keep-alive connection carries at least 16 requests, and completed work
  finishes within twice its deadline.

The check is direction-aware: only a change for the *worse* beyond the
tolerance band fails; improvements are reported and pass. Keys or points
present in only one file are reported but never fail the check, so adding
or removing a benchmark does not require touching this script.

A serve point is *skipped* (not failed) when its busy threads — clients,
serve workers and socket workers — outnumber the cores of either run
(``hardware_concurrency`` in the report). Such a point measures the
scheduler time-slicing the box, not the service, and failing the gate
there would only punish the hardware, not the code.

Usage:
    check_regression.py --kind micro --baseline BENCH_micro.json \
        --fresh build/bench/BENCH_micro.json [--tolerance 0.25]
    check_regression.py --kind serve --baseline BENCH_serve.json \
        --fresh build/bench/BENCH_serve.json

Exit status: 0 = within tolerance, 1 = regression, 2 = usage/input error.
"""

import argparse
import json
import sys

# Micro benchmarks gating the check (prefix match on "name/arg" keys):
# session-based inference and input gradients (forward plus the packed-W^T
# backward) are the hot path of every attack loop, the training step (the
# parameter sweep plus the Adam update) is the black-box substitute's loop
# and the only pinned bench of A^T*B, and the span/counter costs are the
# observability overhead contract. Everything else in BENCH_micro.json is
# informational.
PINNED_MICRO_PREFIXES = (
    "BM_SessionForward",
    "BM_SessionBackward",
    "BM_SessionInputGradient",
    "BM_AdamStep",
    "BM_ObsSpanEnabled",
    "BM_ObsCounterInc",
    "BM_ObsHistogramRecord",
    "BM_WindowRecord",
    "BM_SloUpdate",
)

# Serve medians compared with the baseline, higher is better. Each is a
# ratio formed per block against a block run just before it, so co-tenant
# load on the bench box cancels out.
SERVE_RATIOS = ("speedup_vs_sequential", "goodput_ratio",
                "http_vs_inproc_ratio")

# Serve medians compared with the baseline, lower is better: the p95
# latency end to end through the service, and from send to response read
# over HTTP.
SERVE_LATENCIES = ("e2e_p95_us", "http_p95_us")

# Serve floors, whatever the baseline says. The overload goodput ratio
# (2x offered load, shedding on) sits below the ratio the bench reports on
# an idle box, so only a real overload-behavior collapse trips it; the
# HTTP edge must keep half the in-process rows/s of the same schedule; and
# keep-alive reuse must carry many requests per connection.
SERVE_FLOORS = {
    "goodput_ratio": 0.55,
    "http_vs_inproc_ratio": 0.5,
    "requests_per_connection": 16,
}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)


class Comparison:
    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.regressions = []
        self.improvements = []
        self.skipped = []

    def check(self, key, baseline, fresh):
        """Record one lower-is-better comparison."""
        self._check(key, baseline, fresh, higher_is_better=False)

    def check_higher(self, key, baseline, fresh):
        """Record one higher-is-better comparison (throughput)."""
        self._check(key, baseline, fresh, higher_is_better=True)

    def _check(self, key, baseline, fresh, higher_is_better):
        if baseline is None or fresh is None or baseline <= 0:
            self.skip(key, "missing or zero in one file")
            return
        ratio = fresh / baseline
        line = f"{key}: {baseline:.6g} -> {fresh:.6g} ({ratio - 1.0:+.1%})"
        worse = ratio < 1.0 - self.tolerance if higher_is_better \
            else ratio > 1.0 + self.tolerance
        better = ratio > 1.0 + self.tolerance if higher_is_better \
            else ratio < 1.0 - self.tolerance
        if worse:
            self.regressions.append(line)
        elif better:
            self.improvements.append(line)

    def skip(self, key, reason):
        self.skipped.append(f"{key} ({reason})")

    def report(self, label):
        for line in self.improvements:
            print(f"  improved   {line}")
        for line in self.regressions:
            print(f"  REGRESSED  {line}")
        for line in self.skipped:
            print(f"  skipped    {line}")
        if self.regressions:
            print(
                f"{label}: {len(self.regressions)} pinned key(s) regressed "
                f"beyond {self.tolerance:.0%}"
            )
            return False
        print(
            f"{label}: ok ({len(self.improvements)} improved, "
            f"{len(self.skipped)} skipped)"
        )
        return True


def check_micro(baseline, fresh, tolerance):
    comparison = Comparison(tolerance)
    for key in sorted(baseline):
        if not key.startswith(PINNED_MICRO_PREFIXES):
            continue
        comparison.check(key, baseline.get(key), fresh.get(key))
    for key in sorted(set(fresh) - set(baseline)):
        if key.startswith(PINNED_MICRO_PREFIXES):
            comparison.skip(key, "new key, no baseline")
    return comparison


def check_serve(baseline, fresh, tolerance):
    if baseline.get("scale") != fresh.get("scale"):
        print(
            f"error: scale mismatch: baseline is "
            f"'{baseline.get('scale')}', fresh is '{fresh.get('scale')}' — "
            "rerun bench_serve at the baseline's scale",
            file=sys.stderr,
        )
        sys.exit(2)
    comparison = Comparison(tolerance)
    cores = min(baseline.get("hardware_concurrency") or 1,
                fresh.get("hardware_concurrency") or 1)
    fresh_points = {point["name"]: point for point in fresh.get("points", [])}
    base_names = set()
    for base in baseline.get("points", []):
        name = base["name"]
        base_names.add(name)
        point = fresh_points.get(name)
        if point is None:
            comparison.skip(name, "missing from fresh report")
            continue
        # A point whose busy threads outnumber the cores of either run
        # measures the scheduler's time-slicing, not the service.
        busy = max(base.get("busy_threads", 0), point.get("busy_threads", 0))
        if busy > cores:
            comparison.skip(name, f"{busy} busy threads on {cores} cores")
            continue
        check_serve_point(comparison, name, base["median"], point)
    for name in sorted(set(fresh_points) - base_names):
        comparison.skip(name, "new point, no baseline")
    return comparison


def check_serve_point(comparison, name, base_median, point):
    """Gate one point's medians: absolute floors, then the baseline."""
    median = point["median"]
    for metric, floor in SERVE_FLOORS.items():
        if metric in median and median[metric] < floor:
            comparison.regressions.append(
                f"{name}.{metric}: {median[metric]:.6g} below absolute "
                f"floor {floor}"
            )
    # Completed work must finish within the deadline the point sets, plus
    # one octave of histogram resolution (Log2Histogram percentiles are
    # bucket-interpolated).
    deadline_ms = point.get("config", {}).get("deadline_ms")
    p99 = median.get("e2e_p99_us")
    if deadline_ms and p99 is not None and p99 > 2.0 * deadline_ms * 1000.0:
        comparison.regressions.append(
            f"{name}.e2e_p99_us: {p99:.0f}us exceeds 2x the "
            f"{deadline_ms:g}ms deadline"
        )
    for metric in SERVE_RATIOS:
        if metric in base_median:
            comparison.check_higher(
                f"{name}.{metric}", base_median[metric], median.get(metric))
    for metric in SERVE_LATENCIES:
        if metric in base_median:
            comparison.check(
                f"{name}.{metric}", base_median[metric], median.get(metric))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--kind", choices=("micro", "serve"), required=True)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--fresh", required=True)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    options = parser.parse_args()
    if options.tolerance < 0:
        parser.error("--tolerance must be non-negative")

    baseline = load(options.baseline)
    fresh = load(options.fresh)
    # The "meta" provenance block (git SHA, build flags, core count) is
    # informational only — it must never make two reports incomparable.
    for report in (baseline, fresh):
        if isinstance(report, dict):
            report.pop("meta", None)
    checker = {"micro": check_micro, "serve": check_serve}[options.kind]
    comparison = checker(baseline, fresh, options.tolerance)
    sys.exit(0 if comparison.report(options.kind) else 1)


if __name__ == "__main__":
    main()
