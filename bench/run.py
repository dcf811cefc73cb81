"""Benchmark of ``nonrecip``: one workload per run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --report [--seed N] [--seconds S]

Run from anywhere; the package is imported from the ``src`` tree next to
this directory, and scratch files go to ``.bench_work`` there. Each run
first times fresh-interpreter set-ups (untraced) or the start-up floors
(traced), then runs the workload in one fresh worker interpreter. The
last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the per-layer
metrics traced). The lines before it give the machine record, the
workload's figures under descriptive names, and a table of every metric
with its unit. ``--report`` runs every workload both ways and prints
every metric. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("dense_sweep", "point_queries", "cli")
SETUP_PROBES = 11
FLOOR_PROBES = 5
# a run must end within this many seconds, children included
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A child process failed or overran; the run has no result."""


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the end-to-end (untraced) or per-layer (traced)
    metrics, in ``BENCHMARK.json`` order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in (os.environ.get("PYTHONPATH"),) if p])
    return env


def run_child(args: list[str], deadline: float) -> tuple[float, str]:
    """Run ``python3 ARGS`` to completion; wall seconds and stdout.

    The child gets its own process group, so on overrun it is killed
    together with any process it started.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args[:3]} overran the {DEADLINE_S:.0f} s deadline")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"child {args[:3]} exited with {proc.returncode}:\n"
                         + err[-2000:])
    return wall, out


def src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_record(workload: str, seed: int, seconds: int, trace: int,
                   environment: dict) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **environment,
        "NONRECIP_THREADS": os.environ.get("NONRECIP_THREADS", "unset"),
        "commit": commit(), "src_sha256": src_digest(),
    }


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; raises BenchError when it has no result."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORKDIR)
    try:
        base = [WORKER, "--workload", workload, "--seed", str(seed),
                "--workdir", workdir]
        extra: dict[str, float] = {}
        if trace:
            floor = [run_child(["-c", "pass"], deadline)[0]
                     for _ in range(FLOOR_PROBES)]
            imports = [json.loads(run_child([WORKER, "--import-probe"], deadline)[1])
                       for _ in range(FLOOR_PROBES)]
            extra["cli.python_floor_s"] = statistics.median(floor)
            for key in ("numpy_import_s", "nonrecip_import_s"):
                extra[f"cli.{key}"] = statistics.median(i[key] for i in imports)
        else:
            setup = [run_child(base + ["--setup-only"], deadline)[0]
                     for _ in range(SETUP_PROBES // 2 + 1)]
        _, out = run_child(base + ["--seconds", str(seconds), "--trace", str(trace)],
                           deadline)
        if not trace:
            # the rest of the set-ups after the workload, so that the median
            # samples two moments of a machine whose speed drifts
            setup += [run_child(base + ["--setup-only"], deadline)[0]
                      for _ in range(SETUP_PROBES // 2)]
            extra["setup_s"] = statistics.median(setup)
        result = json.loads(out.splitlines()[-1])
        if trace:
            shutil.move(os.path.join(workdir, f"trace-{workload}.jsonl"),
                        os.path.join(WORKDIR, f"trace-{workload}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"].update(extra)
    units = metric_units(trace)
    unknown = set(result["metrics"]) - set(units)
    missing = set(units) - set(result["metrics"])
    if unknown or (missing and not trace):
        raise BenchError(f"worker reported unknown metrics {sorted(unknown)} "
                         f"and no {sorted(missing)}")
    # a layer that the workload does not reach reports 0
    result["metrics"] = {name: {"value": float(result["metrics"].get(name, 0.0)),
                                "unit": unit} for name, unit in units.items()}
    detail = {name: {"value": v, "unit": u} for name, (v, u) in result["detail"].items()}
    if not trace:
        for name in ("setup_s", "peak_rss_mb"):
            detail[name] = result["metrics"][name]
    detail["error_rate"] = {"value": result["failed"] / max(result["attempted"], 1),
                            "unit": "ratio"}
    for kind, n in result["outcomes"].items():
        detail[f"expected.{kind}"] = {"value": float(n), "unit": "count"}
    result["detail"] = detail
    result["machine"] = machine_record(workload, seed, seconds, trace,
                                       result["environment"])
    return result


def table(metrics: dict, title: str) -> list[str]:
    lines = [f"# {title}"]
    for name, m in metrics.items():
        lines.append(f"#   {name:<40} {m['value']:>16.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload untraced and traced; print every metric")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nonrecip", "__init__.py")):
        print(f"error: no nonrecip source tree at {SRC}", file=sys.stderr)
        return 2
    if not (1 <= args.seconds <= 60):
        print("error: --seconds must be between 1 and 60", file=sys.stderr)
        return 2
    if not args.report and args.workload is None:
        print("error: give --workload or --report", file=sys.stderr)
        return 2
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.report
            else [(args.workload, args.trace)])
    for workload, trace in runs:
        try:
            result = measure(workload, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        for msg in result["failures"]:
            print(f"check failed: {workload}: {msg}", file=sys.stderr)
        print("machine " + json.dumps(result["machine"], sort_keys=True))
        print("detail " + json.dumps(result["detail"], sort_keys=True))
        kind = "per-layer (traced)" if trace else "end-to-end"
        print("\n".join(table(result["detail"], f"{workload}: figures")
                        + table(result["metrics"], f"{workload}: {kind} metrics")))
        if not args.report:
            print(json.dumps({"correct": result["failed"] == 0,
                              "attempted": result["attempted"],
                              "failed": result["failed"],
                              "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
