"""One workload in a fresh interpreter; prints its result as one JSON line.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR --setup-only
    python3 bench/worker.py --workload NAME --seed N --workdir DIR --seconds S --trace 0|1
    python3 bench/worker.py --import-probe

``run.py`` starts this with ``src`` on ``PYTHONPATH``; run that instead.
Every round replays the same requests. Untraced, rounds repeat until
``--seconds`` have passed (at least ``MIN_ROUNDS``), and each request is
reported at its shortest time over the rounds. Traced, after one
unrecorded warm-up round, pairs of an untraced and a traced round
repeat, each side first in turn, so the ratio of their mean times is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager

from layers import HOOKS, merge_summary, per_layer_metrics
from tracer import Tracer, install, summarize

MIN_ROUNDS = 3
# traced rounds stop once this many spans are held in memory
SPAN_BUDGET = 250_000


def keep_best(best: list[tuple[str, float]],
              requests: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Each request at the shorter of its two times, from two rounds that
    made the same requests."""
    if [k for k, _ in requests] != [k for k, _ in best]:
        raise RuntimeError("rounds did not replay the same requests")
    return [(k, min(a, b)) for (k, a), (_, b) in zip(best, requests)]


def round_stats(requests: list[tuple[str, float]], untimed_kinds) -> dict:
    """A round's time, its request p50 and p99, and each kind's median."""
    lat = [d for k, d in requests if k not in untimed_kinds]
    q = statistics.quantiles(lat, n=100, method="inclusive")
    kinds: dict[str, list[float]] = {}
    for k, d in requests:
        kinds.setdefault(k, []).append(d)
    return {"time": sum(d for _, d in requests), "p50": q[49], "p99": q[98],
            "requests": len(lat),
            "kinds": {k: statistics.median(v) for k, v in kinds.items()}}


class Runner:
    """Times requests and, in traced rounds, records their spans."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.traced = False
        self.requests: list[tuple[str, float]] = []
        self.external = {"self_s": {}, "durations": {}, "calls": {}}

    @contextmanager
    def timed(self, kind: str):
        self.tracer.active = self.traced
        span = self.tracer.span("bench." + kind)
        try:
            with span:
                yield
        finally:
            self.tracer.active = False
            self.requests.append((kind, span.duration))

    def add_summary(self, summary: dict, bench_span: str, wall: float) -> None:
        """Merge spans recorded in a child process.

        The child's work happened inside ``bench_span`` here, so the child
        span's wall time moves out of that span's self time.
        """
        merge_summary(self.external, summary)
        self.external["self_s"][bench_span] = (
            self.external["self_s"].get(bench_span, 0.0) - wall)
        self.tracer.counts.update(summary["counts"])

    def round(self, workload, traced: bool = False) -> dict:
        self.requests = []
        self.traced = traced
        workload.run_round(self)
        return round_stats(self.requests, workload.untimed_kinds)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(workload, runner, seconds: float) -> dict:
    """End-to-end metrics: with each request at its shortest time over the
    rounds (see README.md for why not the median), the round's time and
    the request p50 and p99; and the peak resident memory."""
    rounds, best = [], None
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(runner.round(workload))
        best = runner.requests if best is None else keep_best(best, runner.requests)
    best = round_stats(best, workload.untimed_kinds)
    metrics = {
        "round_min_s": best["time"],
        "request_p50_min_ms": best["p50"] * 1e3,
        "request_p99_min_ms": best["p99"] * 1e3,
        "peak_rss_mb": peak_rss_mb(children=workload.name == "cli"),
    }
    detail = workload.detail(rounds)
    detail["round_median_s"] = (statistics.median(r["time"] for r in rounds), "s")
    detail["rounds"] = (float(len(rounds)), "count")
    return {"metrics": metrics, "detail": detail}


def run_traced(workload, runner, seconds: float, trace_path: str) -> dict:
    """Per-layer metrics from traced rounds, alternated with untraced rounds
    of the same inputs so that both see the same machine."""
    import workloads

    tracer = runner.tracer
    install(tracer, HOOKS, also=(workloads,))
    # an unrecorded round first, so that neither side carries the cold one
    runner.round(workload)
    start = time.perf_counter()
    untraced, traced, per_round = [], [], []
    while (not traced
           or (time.perf_counter() - start < seconds
               and len(tracer.spans) < SPAN_BUDGET)):
        # which side of a pair runs first alternates, so that a trend in
        # the machine's speed favours neither
        if len(traced) % 2 == 0:
            untraced.append(runner.round(workload)["time"])
        before = dict(tracer.counts)
        traced.append(runner.round(workload, traced=True)["time"])
        per_round.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
        if len(traced) % 2 == 0:
            untraced.append(runner.round(workload)["time"])
    if any(c != per_round[0] for c in per_round):
        workload.fail(f"counters differ between identical rounds: {per_round}")
    self_s, durations, calls = summarize(tracer)
    summary = {"self_s": self_s, "durations": durations, "calls": dict(calls)}
    merge_summary(summary, runner.external)
    metrics = per_layer_metrics(summary, len(traced), per_round[0])
    metrics.update(workload.layer_extras())
    metrics["trace.traced_round_s"] = statistics.mean(traced)
    metrics["trace.untraced_round_s"] = statistics.mean(untraced)
    metrics["trace.overhead_ratio"] = (metrics["trace.traced_round_s"]
                                       / metrics["trace.untraced_round_s"])
    tracer.write_jsonl(trace_path)
    detail = {"traced_rounds": (float(len(traced)), "count"),
              "spans": (float(len(tracer.spans)), "count")}
    return {"metrics": metrics, "detail": detail}


def import_probe() -> None:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import nonrecip  # noqa: F401
    t2 = time.perf_counter()
    print(json.dumps({"numpy_import_s": t1 - t0, "nonrecip_import_s": t2 - t1}))


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "blas": blas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--import-probe", action="store_true")
    args = ap.parse_args(argv)
    if args.import_probe:
        import_probe()
        return 0
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.setup_only:
        return 0
    runner = Runner(Tracer())
    if args.trace:
        trace_path = os.path.join(args.workdir, f"trace-{args.workload}.jsonl")
        out = run_traced(workload, runner, args.seconds, trace_path)
    else:
        out = run_untraced(workload, runner, args.seconds)
    out.update(attempted=workload.attempted, failed=workload.failed,
               failures=workload.failures, outcomes=dict(workload.outcomes),
               environment=environment())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
