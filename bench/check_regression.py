#!/usr/bin/env python3
"""Compare fresh bench JSON against the committed baselines.

Two report formats are understood:

* BENCH_micro.json — a flat ``{"BM_Name/arg": ns_per_op}`` map written by
  ``bench/bench_micro``. Lower is better.
* BENCH_serve.json — the structured report written by ``bench/bench_serve``
  with ``closed_loop`` / ``open_loop`` sweeps.
* BENCH_http.json — the report written by ``bench/bench_http``. The pinned
  signals are the HTTP-vs-in-process achieved-rows/s ratio at 1x offered
  load (higher is better, with an absolute floor: the network edge must
  keep at least half of the in-process open-loop throughput), the HTTP
  request latency p95 (lower is better), and the requests-per-connection
  count (absolute floor — proves keep-alive reuse rather than a
  connection per request). The pinned signals are the
  end-to-end latency p95 of each sweep point (lower is better), the
  closed-loop speedup-vs-sequential of each worker count (higher is
  better; the ratio, not absolute rows/s, so co-tenant load on the bench
  box cancels out), and the overload-phase goodput ratio (goodput at 2x
  offered load over measured sequential capacity, higher is better, with
  an absolute floor). Baselines written before the overload phase existed
  simply skip that gate.

The check is direction-aware: only a change for the *worse* beyond the
tolerance band fails; improvements are reported and pass. Keys present in
only one file are reported but never fail the check, so adding or removing
a benchmark does not require touching this script.

Multi-worker throughput gates are *skipped* (not failed) when either run
was under-provisioned — the sweep point uses more workers than the box has
cores (``hardware_concurrency`` in the report). A 1-core container cannot
multiply compute with a worker pool, and failing the gate there would only
punish the hardware, not the code.

Usage:
    check_regression.py --kind micro --baseline BENCH_micro.json \
        --fresh build/bench/BENCH_micro.json [--tolerance 0.25]
    check_regression.py --kind serve --baseline BENCH_serve.json \
        --fresh build/bench/BENCH_serve.json
    check_regression.py --kind http --baseline BENCH_http.json \
        --fresh build/bench/BENCH_http.json

Exit status: 0 = within tolerance, 1 = regression, 2 = usage/input error.
"""

import argparse
import json
import sys

# Micro benchmarks gating the check (prefix match on "name/arg" keys):
# session-based inference and input gradients (forward plus the packed-W^T
# backward) are the hot path of every attack loop, the training step is the
# black-box substitute's loop and the only pinned bench of A^T*B, and the
# span/counter costs are the observability overhead contract. Everything
# else in BENCH_micro.json is informational.
PINNED_MICRO_PREFIXES = (
    "BM_SessionForward",
    "BM_SessionBackward",
    "BM_SessionInputGradient",
    "BM_ObsSpanEnabled",
    "BM_ObsCounterInc",
    "BM_ObsHistogramRecord",
    "BM_WindowRecord",
    "BM_SloUpdate",
)

# Overload-phase absolute floor: at 2x offered load with shedding on, the
# service must still complete at least this fraction of its measured
# sequential capacity. Deliberately below the ~0.7 the bench reports on an
# idle box, so only a real overload-behavior collapse trips it, not
# co-tenant noise.
OVERLOAD_GOODPUT_FLOOR = 0.55

# HTTP frontend contract: achieved rows/s over HTTP at 1x offered load
# must stay at or above this fraction of the in-process open-loop rate
# measured in the same run (so box speed cancels out), and each of the
# bench's keep-alive connections must carry many requests.
HTTP_RATIO_FLOOR = 0.5
HTTP_REQUESTS_PER_CONNECTION_FLOOR = 16


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
    return comparison.report("micro")


def serve_points(report):
    """Yield (key, e2e p95) for every sweep point in a serve report."""
    for point in report.get("closed_loop", []):
        key = f"closed_loop[workers={point.get('workers')}].e2e_latency_us.p95"
        yield key, point.get("e2e_latency_us", {}).get("p95")
    for point in report.get("open_loop", []):
        key = (
            f"open_loop[rate={point.get('rate_multiplier')}]"
            ".e2e_latency_us.p95"
        )
        yield key, point.get("e2e_latency_us", {}).get("p95")


def serve_throughput_points(report):
    """Yield (key, speedup, workers) for every closed-loop sweep point.

    The gated number is ``speedup_vs_sequential``, not absolute rows/s:
    both are measured in the same process run, so the ratio cancels out
    how fast (or how loaded) the box happened to be — absolute rows/s
    swings with co-tenant load even when the service is unchanged.
    """
    for point in report.get("closed_loop", []):
        key = (
            f"closed_loop[workers={point.get('workers')}]"
            ".speedup_vs_sequential"
        )
        yield key, point.get("speedup_vs_sequential"), point.get("workers") or 0


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
    fresh_map = dict(serve_points(fresh))
    for key, base_value in serve_points(baseline):
        comparison.check(key, base_value, fresh_map.get(key))

    # Closed-loop throughput, higher is better. A point is gated only when
    # BOTH runs had at least as many cores as workers; otherwise the pool
    # was time-slicing one core and the number measures the scheduler, not
    # the service.
    base_cores = baseline.get("hardware_concurrency") or 1
    fresh_cores = fresh.get("hardware_concurrency") or 1
    fresh_tp = {key: value for key, value, _ in serve_throughput_points(fresh)}
    for key, base_value, workers in serve_throughput_points(baseline):
        if workers > base_cores or workers > fresh_cores:
            comparison.skip(
                key,
                f"under-provisioned: {workers} workers on "
                f"min({base_cores}, {fresh_cores}) cores",
            )
            continue
        comparison.check_higher(key, base_value, fresh_tp.get(key))

    check_overload(comparison, baseline, fresh)
    return comparison.report("serve")


def check_overload(comparison, baseline, fresh):
    """Gate the overload-phase goodput ratio (PR 7).

    Relative: compared against the baseline like any throughput key.
    Absolute: a fresh ratio below OVERLOAD_GOODPUT_FLOOR fails outright —
    that is the overload-resilience contract, not a perf delta. Reports
    written before the overload phase existed lack the key; those skip the
    relative gate instead of failing, so old baselines stay usable.
    """
    key = "overload_goodput_ratio"
    fresh_ratio = fresh.get(key)
    base_ratio = baseline.get(key)
    if fresh_ratio is None:
        comparison.skip(key, "fresh report has no overload phase")
        return
    if fresh_ratio < OVERLOAD_GOODPUT_FLOOR:
        comparison.regressions.append(
            f"{key}: {fresh_ratio:.3f} below absolute floor "
            f"{OVERLOAD_GOODPUT_FLOOR}"
        )
    if base_ratio is None:
        comparison.skip(key, "baseline predates the overload phase")
        return
    comparison.check_higher(key, base_ratio, fresh_ratio)

    # Deadline bound on completed work: p99 of what the overloaded service
    # DID complete must stay within the configured deadline (plus one
    # octave of histogram resolution — Log2Histogram percentiles are
    # bucket-interpolated).
    overload = fresh.get("overload", {})
    p99 = overload.get("e2e_latency_us", {}).get("p99")
    deadline_ms = overload.get("deadline_ms")
    if p99 is None or deadline_ms is None:
        comparison.skip("overload.e2e_latency_us.p99", "not in fresh report")
        return
    bound_us = 2.0 * deadline_ms * 1000.0
    if p99 > bound_us:
        comparison.regressions.append(
            f"overload.e2e_latency_us.p99: {p99:.0f}us exceeds "
            f"{bound_us:.0f}us (2x the {deadline_ms}ms deadline)"
        )


def check_http(baseline, fresh, tolerance):
    if baseline.get("scale") != fresh.get("scale"):
        print(
            f"error: scale mismatch: baseline is "
            f"'{baseline.get('scale')}', fresh is '{fresh.get('scale')}' — "
            "rerun bench_http at the baseline's scale",
            file=sys.stderr,
        )
        sys.exit(2)
    comparison = Comparison(tolerance)

    # The contract gate: absolute floor on the HTTP/in-process ratio.
    fresh_ratio = fresh.get("http_vs_inproc_ratio")
    if fresh_ratio is None:
        comparison.skip("http_vs_inproc_ratio", "missing from fresh report")
    elif fresh_ratio < HTTP_RATIO_FLOOR:
        comparison.regressions.append(
            f"http_vs_inproc_ratio: {fresh_ratio:.3f} below absolute "
            f"floor {HTTP_RATIO_FLOOR}"
        )
    comparison.check_higher(
        "http_vs_inproc_ratio",
        baseline.get("http_vs_inproc_ratio"),
        fresh_ratio,
    )

    # Keep-alive reuse: connections must be amortized over many requests.
    per_conn = fresh.get("requests_per_connection")
    if per_conn is None:
        comparison.skip("requests_per_connection", "missing from fresh report")
    elif per_conn < HTTP_REQUESTS_PER_CONNECTION_FLOOR:
        comparison.regressions.append(
            f"requests_per_connection: {per_conn} below absolute floor "
            f"{HTTP_REQUESTS_PER_CONNECTION_FLOOR} — keep-alive reuse broken"
        )

    # Latency of the HTTP path, lower is better.
    comparison.check(
        "http_open_loop.latency_us.p95",
        baseline.get("http_open_loop", {}).get("latency_us", {}).get("p95"),
        fresh.get("http_open_loop", {}).get("latency_us", {}).get("p95"),
    )
    return comparison.report("http")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--kind", choices=("micro", "serve", "http"), required=True)
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
    checkers = {"micro": check_micro, "serve": check_serve,
                "http": check_http}
    ok = checkers[options.kind](baseline, fresh, options.tolerance)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
