"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed in ``__init__`` (timed as
set-up) and then runs rounds. A round is a fixed list of requests, the
same in every round, each timed through ``runner.timed(kind)``; output
checks run between requests, outside the timed regions, with tracing off.

* ``dense_sweep``: a 1e6-point y spectrum, a 1001x1001 theta x phi map and
  a 1e6-point ``transmission_grid`` at the fig4d operating point. Kernel
  only, nothing written. The spectrum (array y, scalar parameters) and the
  map (array theta and phi) drive the batched kernel differently.
* ``point_queries``: one closed-loop caller sending single-point queries,
  mostly transmission points with a minority of isolator designs and
  driven operating points, then one ``run_verification()``. Per-call
  overhead; the batched kernel is not used.
* ``cli``: a session of fresh ``python -m nonrecip`` processes, one per
  subcommand at default sizes. Cold start, argparse and JSON emission.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from nonrecip import (
    Axis,
    BareParams,
    Drives,
    NoValidDesign,
    NonConvergence,
    SingularMatrix,
    SolverConfig,
    SteadyState,
    SweepSpec,
    design_isolator,
    figure_ids,
    figure_preset,
    isolation_metrics,
    linearized_params,
    model_params_from_dict,
    model_params_to_dict,
    phasemap_spec,
    solve_response,
    solve_steady_state,
    spectrum_spec,
    steady_residual,
    sweep,
    transmission_grid,
    transmission_pair,
)
from nonrecip.design import DESIGN_TOL
from nonrecip.params import bare_params_to_dict, drives_to_dict
from nonrecip.verify import random_params, run_verification

HERE = os.path.dirname(os.path.abspath(__file__))

# sampled points must agree with the LU reference this tightly (relative,
# with an absolute floor for transmissions that cancel to ~0)
LU_RTOL = 1e-10
LU_ATOL = 1e-12
# stored figure landmarks: values may drift in the last digits
LANDMARK_RTOL = 1e-9
LANDMARK_ATOL = 1e-12

ISOLATION_DB_CAP = 300.0
MAX_KEPT_FAILURES = 20

# the weak-coupling operating point of the steady-state tests
BASE_BARE = BareParams(Delta1=10.0, Delta2=10.0, Delta_en=10.0, omega_m=10.0,
                       g1=4e-3, g2=4e-3, J1=0.5, J2=0.01, J3=4.476j,
                       kappa1=1.0, kappa2=1.0, gamma=1.0, f=10.0)
# drive amplitudes of the operating-point scan (log-uniform)
DRIVE_RANGE = (10.0, 200.0)
STEADY_TOL = SolverConfig().tol


def lu_pair(p, y: float) -> tuple[float, float]:
    """T12, T21 from two LU solves of the response (the reference path)."""
    pref = math.sqrt(p.kappa1 * p.kappa2)
    t12 = pref * abs(solve_response(p, y, 1.0, 0.0).da2)
    t21 = pref * abs(solve_response(p, y, 0.0, 1.0).da1)
    return t12, t21


def agree(a: float, b: float, rtol: float = LU_RTOL,
          atol: float = LU_ATOL) -> bool:
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


def isolation_db(t12: float, t21: float) -> float:
    """The documented isolation rule, for checking emitted dB values."""
    hi, lo = max(t12, t21), min(t12, t21)
    if abs(t12 - t21) <= 1e-9 * max(hi, 1e-30):
        return 0.0
    if lo == 0.0:
        return ISOLATION_DB_CAP
    return min(20.0 * math.log10(hi / lo), ISOLATION_DB_CAP)


def compare_landmarks(ref, got, path: str = "") -> list[str]:
    """Mismatches of ``got`` against stored reference landmarks."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key == "y" and set(ref) == {"y", "value"}:
                continue  # an extremum's location; see check_extrema
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(compare_landmarks(value, got[key], f"{path}.{key}"))
        return out
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(got, (int, float)):
            return [f"{path}: expected a number, got {got!r}"]
        if math.isnan(ref) and math.isnan(got):
            return []
        if not agree(ref, got, LANDMARK_RTOL, LANDMARK_ATOL):
            return [f"{path}: {got!r} != reference {ref!r}"]
        return []
    return [] if ref == got else [f"{path}: {got!r} != reference {ref!r}"]


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference_landmarks.json"), encoding="utf-8") as fh:
        return json.load(fh)


def row_params(spec: SweepSpec, values: dict[str, float]):
    """Parameters and detuning of one sweep row."""
    values = dict(values)
    y = values.pop("y", spec.y)
    return replace(spec.fixed, **values), y


class Workload:
    """Inputs, rounds and output checks of one workload."""

    name = ""
    # request kinds left out of the request-latency percentiles
    untimed_kinds: tuple[str, ...] = ()
    # rows of each emitted table checked against the LU reference
    SAMPLES = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outcomes: Counter = Counter()
        # whether the operation in progress has failed; None between operations
        self._op_failed: bool | None = None

    def fail(self, message: str) -> None:
        """Record a failed check. Outside an operation it counts as one."""
        if len(self.failures) < MAX_KEPT_FAILURES:
            self.failures.append(message)
        if self._op_failed is None:
            self.attempted += 1
            self.failed += 1
        else:
            self._op_failed = True

    def attempt(self, runner, kind: str, fn, check=None):
        """Run ``fn`` as one timed request, then ``check`` on its result.

        The operation fails once however many of its checks fail; a raise
        from ``fn`` or ``check`` fails it too. Returns the result, or None
        when ``fn`` raised.
        """
        self.attempted += 1
        self._op_failed = False
        result = None
        try:
            with runner.timed(kind):
                result = fn()
        except Exception as exc:
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
        else:
            if check is not None:
                try:
                    check(result)
                except Exception as exc:
                    self.fail(f"{kind} check: {type(exc).__name__}: {exc}")
        self.failed += self._op_failed
        self._op_failed = None
        return result

    def run_round(self, runner) -> None:
        raise NotImplementedError

    def detail(self, rounds: list[dict]) -> dict[str, tuple[float, str]]:
        """The workload's figures under their descriptive names.

        ``rounds`` holds per-round statistics (see ``worker.round_stats``);
        these are medians over the run's rounds.
        """
        return {}

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics measured by the workload itself, after the
        traced rounds."""
        return {}

    def check_csv(self, fid: str, path: str, spec: SweepSpec,
                  landmarks: dict | None = None) -> None:
        """Row count, sampled rows against LU, and extremum locations."""
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        points = spec.axis1.points * (spec.axis2.points if spec.axis2 else 1)
        if len(lines) - 1 != points:
            self.fail(f"{fid}: {len(lines) - 1} CSV rows, expected {points}")
            return
        if landmarks is not None and spec.axis2 is None:
            self.check_extrema(fid, header, lines, landmarks)
        axes = [a.name for a in (spec.axis1, spec.axis2) if a is not None]
        for i in self.rng.integers(1, len(lines), size=self.SAMPLES):
            row = dict(zip(header, lines[i].split(",")))
            p, y = row_params(spec, {a: float(row[a]) for a in axes})
            where = f"{fid} row {i}"
            if row["status"] == "singular":
                self.check_pole(where, p, y)
            else:
                self.check_point(where, p, y, float(row["T12"]), float(row["T21"]))

    def check_extrema(self, fid: str, header: list[str], lines: list[str],
                      landmarks: dict) -> None:
        # tied samples make an extremum's location ambiguous, so instead of
        # comparing it with the reference, check that the emitted spectrum
        # reaches the extreme value there
        rows = {line.split(",", 1)[0]: line.split(",") for line in lines[1:]}
        for key in ("max_T12", "max_T21", "min_T12", "min_T21"):
            point = landmarks[key]
            row = rows.get(f"{point['y']:.16e}")
            value = None if row is None else float(row[header.index(key[4:])])
            if value is None or not agree(value, point["value"],
                                          LANDMARK_RTOL, LANDMARK_ATOL):
                self.fail(f"{fid}: {key} {point['value']!r} is not reached "
                          f"at y={point['y']!r} (CSV has {value!r})")

    def check_point(self, where: str, p, y: float, t12: float, t21: float) -> None:
        try:
            r12, r21 = lu_pair(p, y)
        except SingularMatrix:
            self.fail(f"{where}: finite transmission where LU finds a pole")
            return
        if not (agree(t12, r12) and agree(t21, r21)):
            self.fail(f"{where}: T=({t12!r}, {t21!r}) but LU gives ({r12!r}, {r21!r})")

    def check_pole(self, where: str, p, y: float) -> None:
        self.outcomes["singular_point"] += 1
        try:
            lu_pair(p, y)
        except SingularMatrix:
            return
        self.fail(f"{where}: flagged singular but LU solves it")


def _median(rounds: list[dict], key: str, kind: str | None = None) -> float:
    if kind is None:
        return statistics.median(r[key] for r in rounds)
    return statistics.median(r[key][kind] for r in rounds)


class DenseSweep(Workload):
    name = "dense_sweep"
    SPECTRUM_POINTS = 1_000_000
    MAP_POINTS = 1001
    GRID_POINTS = 1_000_000
    SAMPLES = 32
    ONE_THREAD_PASSES = 3

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.p = figure_preset("fig4d").fixed
        half = 5.0 * self.p.gamma * rng.uniform(0.9, 1.1)
        self.spectrum = SweepSpec(
            fixed=self.p, axis1=Axis("y", -half, half, self.SPECTRUM_POINTS),
            observables=("T12", "T21", "isolation_db"))
        self.map = phasemap_spec(self.p, points=self.MAP_POINTS,
                                 y=rng.uniform(-0.25, 0.25) * self.p.gamma)
        self.ys = np.linspace(-half, half, self.GRID_POINTS)
        self.rng = np.random.default_rng([seed, 1])

    def run_round(self, runner) -> None:
        # results are checked and dropped one at a time, so peak memory is
        # that of the largest single request
        self.attempt(runner, "spectrum", lambda: sweep(self.spectrum),
                     lambda t: self.check_table("spectrum", t, self.spectrum))
        self.attempt(runner, "map", lambda: sweep(self.map),
                     lambda t: self.check_table("map", t, self.map))
        self.attempt(runner, "grid", lambda: transmission_grid(self.p, self.ys),
                     self.check_grid)

    def single_thread_pass(self) -> float:
        """Seconds for the same two sweeps with one worker thread."""
        old = os.environ.get("NONRECIP_THREADS")
        os.environ["NONRECIP_THREADS"] = "1"
        try:
            t0 = time.perf_counter()
            sweep(self.spectrum)
            sweep(self.map)
            return time.perf_counter() - t0
        finally:
            if old is None:
                del os.environ["NONRECIP_THREADS"]
            else:
                os.environ["NONRECIP_THREADS"] = old

    def check_table(self, kind: str, table, spec: SweepSpec) -> None:
        t12, t21 = table.data["T12"], table.data["T21"]
        singular = table.status == "singular"
        if not np.array_equal(singular, np.isnan(t12) | np.isnan(t21)):
            self.fail(f"{kind}: status column disagrees with empty cells")
        axes = [a.name for a in (spec.axis1, spec.axis2) if a is not None]
        for i in self.rng.integers(0, len(table), size=self.SAMPLES):
            p, y = row_params(spec, {a: float(table.data[a][i]) for a in axes})
            if singular[i]:
                self.check_pole(f"{kind} row {i}", p, y)
                continue
            self.check_point(f"{kind} row {i}", p, y, float(t12[i]), float(t21[i]))
            if "isolation_db" in table.data:
                db = float(table.data["isolation_db"][i])
                if not agree(db, isolation_db(t12[i], t21[i]), 1e-12, 1e-12):
                    self.fail(f"{kind} row {i}: isolation {db!r} dB does not "
                              f"match T12={t12[i]!r}, T21={t21[i]!r}")

    def check_grid(self, grid) -> None:
        t12, t21, singular = grid
        for i in self.rng.integers(0, len(self.ys), size=self.SAMPLES):
            y = float(self.ys[i])
            if singular[i]:
                self.check_pole(f"grid point {i}", self.p, y)
            else:
                self.check_point(f"grid point {i}", self.p, y,
                                 float(t12[i]), float(t21[i]))

    def detail(self, rounds):
        points = {"spectrum": self.SPECTRUM_POINTS, "map": self.MAP_POINTS ** 2,
                  "grid": self.GRID_POINTS}
        return {f"{kind}_points_per_s": (n / _median(rounds, "kinds", kind), "1/s")
                for kind, n in points.items()}

    def layer_extras(self):
        # after the traced rounds, so that these passes sit in no round
        # and between no pair of rounds whose times are compared
        one_thread = [self.single_thread_pass() for _ in range(self.ONE_THREAD_PASSES)]
        points = self.SPECTRUM_POINTS + self.MAP_POINTS ** 2
        return {"sweep.points_per_s_1thread": points / statistics.median(one_thread)}


class PointQueries(Workload):
    """Closed loop, one caller: the seeded query stream as a fixed block.

    The block holds exactly ``SHARES`` queries of each kind in seeded
    order, so p50 falls on transmission points and p99 on the design or
    operating-point tail, and ends with one ``run_verification()``. Every
    round replays the block.
    """

    name = "point_queries"
    SHARES = {"transmission": 1880, "design": 60, "steady": 60}
    LU_EVERY = 8
    untimed_kinds = ("verify",)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        kinds = [str(k) for k in np.repeat(list(self.SHARES), list(self.SHARES.values()))]
        rng.shuffle(kinds)
        self.kinds = kinds
        self.rates = [tuple(r) for r in
                      10.0 ** rng.uniform(-2.0, 2.0, size=(self.SHARES["design"], 4))]
        lo, hi = np.log10(DRIVE_RANGE)
        self.drives = [Drives(E1=e, E2=1j * e)
                       for e in 10.0 ** rng.uniform(lo, hi, size=self.SHARES["steady"])]

    def run_round(self, runner) -> None:
        # the transmission queries draw their points from this stream
        rng = np.random.default_rng([self.seed, 1])
        rates, drives = iter(self.rates), iter(self.drives)
        for n, kind in enumerate(self.kinds):
            if kind == "transmission":
                with_lu = n % self.LU_EVERY == 0
                self.attempt(runner, kind, lambda: self.transmission(rng),
                             lambda out: self.check_transmission(out, with_lu))
            elif kind == "design":
                rate = next(rates)
                self.attempt(runner, kind, lambda: self.design(*rate),
                             lambda out: self.check_design(rate, out))
            else:
                d = next(drives)
                self.attempt(runner, kind, lambda: self.operating_point(d),
                             lambda out: self.check_operating_point(d, out))
        self.attempt(runner, "verify", run_verification, self.check_verify)

    @staticmethod
    def transmission(rng):
        p = random_params(rng)
        y = float(rng.uniform(-5.0, 5.0))
        try:
            tp = transmission_pair(p, y)
        except SingularMatrix:
            return p, y, None, None
        return p, y, tp, isolation_metrics(tp)

    @staticmethod
    def design(k1, k2, gamma, f):
        try:
            return design_isolator(k1, k2, gamma, f)
        except NoValidDesign:
            return None

    @staticmethod
    def operating_point(d: Drives):
        # the detuning-compensation loop: move the laser detunings so the
        # drive-shifted ones land on omega_m, which linearization requires
        b = BASE_BARE
        try:
            s = solve_steady_state(b, d)
            for _ in range(3):
                shift = 2.0 * b.g1 * s.beta.real
                b = replace(BASE_BARE, Delta1=BASE_BARE.Delta1 - shift,
                            Delta2=BASE_BARE.Delta2 - shift)
                s = solve_steady_state(b, d)
        except NonConvergence:
            return None
        p = linearized_params(b, s)
        return b, s, p, transmission_pair(p, 0.0)

    def check_transmission(self, out, with_lu: bool) -> None:
        p, y, tp, im = out
        if tp is None:
            self.check_pole("transmission query", p, y)
            return
        if not agree(im.isolation_db, isolation_db(tp.T12, tp.T21), 1e-12, 1e-12):
            self.fail(f"isolation_metrics gives {im.isolation_db!r} dB for "
                      f"T12={tp.T12!r}, T21={tp.T21!r}")
        if with_lu:
            self.check_point("transmission query", p, y, tp.T12, tp.T21)

    def check_design(self, rate, design) -> None:
        if design is None:
            self.outcomes["no_valid_design"] += 1
            return
        check_one_way(self, f"design at {rate}", design.to_model_params())

    def check_operating_point(self, d: Drives, out) -> None:
        if out is None:
            self.outcomes["nonconvergence"] += 1
            return
        b, s, p, tp = out
        residual = float(np.linalg.norm(steady_residual(b, d, s)))
        if not residual < STEADY_TOL:
            self.fail(f"steady state at E1={d.E1!r}: residual {residual:.3e}")
        self.check_point(f"operating point E1={d.E1!r}", p, 0.0, tp.T12, tp.T21)

    def check_verify(self, results) -> None:
        bad = [r.name for r in results if not r.passed]
        if bad or len(results) != 8:
            self.fail(f"verify: {len(results) - len(bad)} of 8 checks passed "
                      f"(failed: {', '.join(bad)})")

    def detail(self, rounds):
        out = {
            "query_us_p50": (_median(rounds, "p50") * 1e6, "us"),
            "query_us_p99": (_median(rounds, "p99") * 1e6, "us"),
            "query_samples": (float(sum(r["requests"] for r in rounds)), "count"),
            "verify_s": (_median(rounds, "kinds", "verify"), "s"),
        }
        for kind in self.SHARES:
            out[f"{kind}_us_p50"] = (_median(rounds, "kinds", kind) * 1e6, "us")
        return out


def check_one_way(workload: Workload, where: str, p) -> None:
    """A design must transmit {0, 1} at resonance within DESIGN_TOL (by LU)."""
    t12, t21 = lu_pair(p, 0.0)
    if not (min(t12, t21) < DESIGN_TOL and abs(max(t12, t21) - 1.0) < DESIGN_TOL):
        workload.fail(f"{where}: resonance T=({t12!r}, {t21!r}) is not one-way")


# the design regimes of the invariant suite, all known to give valid designs
DESIGN_REGIMES = ((10.0, 1.0, 0.01, 0.1), (10.0, 1.0, 0.01, 1.0),
                  (10.0, 1.0, 0.01, 5.0), (10.0, 1.0, 0.001, 1.0),
                  (10.0, 1.0, 0.1, 1.0), (10.0, 1.0, 1.0, 1.0))


class Cli(Workload):
    """A session of fresh ``python -m nonrecip`` processes, one at a time."""

    name = "cli"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=os.path.abspath(workdir))
        self.fid = str(rng.choice([f for f in figure_ids() if f[:4] in ("fig3", "fig4")]))
        self.p = figure_preset(self.fid).fixed
        params_path = os.path.join(self.dir, "params.json")
        with open(params_path, "w", encoding="utf-8") as fh:
            json.dump(model_params_to_dict(self.p), fh)
        e = float(10.0 ** rng.uniform(*np.log10(DRIVE_RANGE)))
        self.drives = Drives(E1=e, E2=1j * e)
        steady_path = os.path.join(self.dir, "steady.json")
        with open(steady_path, "w", encoding="utf-8") as fh:
            json.dump({"bare": bare_params_to_dict(BASE_BARE),
                       "drives": drives_to_dict(self.drives)}, fh)
        self.regime = DESIGN_REGIMES[int(rng.integers(len(DESIGN_REGIMES)))]
        k1, k2, g, f = (repr(v) for v in self.regime)
        out = os.path.join(self.dir, "out")
        self.commands = {
            "spectrum": ["spectrum", "--params", params_path, "--out", out],
            "phasemap": ["phasemap", "--params", params_path, "--out", out,
                         "--format", "json"],
            "figure": ["figure", "fig3c", "--out", out],
            "design": ["design", "--kappa1", k1, "--kappa2", k2, "--gamma", g,
                       "--f", f, "--unit", "kappa2"],
            "steady": ["steady", "--params", steady_path],
            "verify": ["verify"],
        }
        self.reference = load_reference()["fig3c"]
        self.rng = np.random.default_rng([seed, 1])
        self.startup: list[float] = []

    def run_round(self, runner) -> None:
        startup = 0.0
        for kind, args in self.commands.items():
            # the worker's environment already has src on PYTHONPATH
            env = None
            argv = [sys.executable, "-m", "nonrecip", *args]
            if runner.traced:
                trace_file = os.path.join(self.dir, f"trace-{kind}.json")
                env = dict(os.environ, NONRECIP_BENCH_TRACE=trace_file)
                argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), *args]
            proc = self.attempt(runner, kind, lambda: subprocess.run(
                argv, capture_output=True, text=True, env=env, cwd=self.dir,
                timeout=120), lambda proc: self.check_command(kind, proc))
            if runner.traced and proc is not None and proc.returncode == 0:
                with open(trace_file, encoding="utf-8") as fh:
                    summary = json.load(fh)
                wall = runner.requests[-1][1]
                startup += wall - summary["cli_main_s"]
                runner.add_summary(summary, f"bench.{kind}", wall)
        if runner.traced:
            self.startup.append(startup)

    def check_command(self, kind: str, proc) -> None:
        if proc.returncode != 0:
            self.fail(f"{kind}: exit code {proc.returncode}: {proc.stderr.strip()}")
            return
        lines = proc.stdout.splitlines()
        if kind == "spectrum":
            self.check_csv(kind, lines[0], spectrum_spec(self.p))
        elif kind == "phasemap":
            with open(lines[0], encoding="utf-8") as fh:
                self.check_json_table(kind, json.load(fh), phasemap_spec(self.p))
        elif kind == "figure":
            with open(lines[1], encoding="utf-8") as fh:
                summary = json.load(fh)
            for msg in compare_landmarks(self.reference, summary["landmarks"], "fig3c"):
                self.fail(msg)
            self.check_csv("fig3c", lines[0], figure_preset("fig3c"),
                           summary["landmarks"])
        elif kind == "design":
            payload = json.loads(proc.stdout)
            check_one_way(self, f"design {self.regime}",
                          model_params_from_dict(payload["model_params"]))
        elif kind == "steady":
            st = json.loads(proc.stdout)["steady_state"]
            amps = {k: complex(st[k]["re"], st[k]["im"])
                    for k in ("alpha1", "alpha2", "rho", "beta")}
            s = SteadyState(Delta1_eff=st["Delta1_eff"], Delta2_eff=st["Delta2_eff"],
                            residual_norm=st["residual_norm"], **amps)
            residual = float(np.linalg.norm(steady_residual(BASE_BARE, self.drives, s)))
            if not residual < STEADY_TOL:
                self.fail(f"steady: residual {residual:.3e} of the printed state")
        elif len(lines) != 8 or not all(line.startswith("PASS ") for line in lines):
            self.fail(f"verify: output is not 8 PASS lines: {proc.stdout!r}")

    def check_json_table(self, kind: str, payload: dict, spec: SweepSpec) -> None:
        rows = payload["rows"]
        points = spec.axis1.points * spec.axis2.points
        if payload["columns"] != ["theta", "phi", "T12", "T21", "status"] \
                or len(rows) != points:
            self.fail(f"{kind}: table has columns {payload['columns']} and "
                      f"{len(rows)} rows, expected {points}")
            return
        for i in self.rng.integers(0, len(rows), size=self.SAMPLES):
            theta, phi, t12, t21, status = rows[i]
            p, y = row_params(spec, {"theta": theta, "phi": phi})
            if status == "singular":
                self.check_pole(f"{kind} row {i}", p, y)
            else:
                self.check_point(f"{kind} row {i}", p, y, t12, t21)

    def detail(self, rounds):
        out = {"session_s": (_median(rounds, "time"), "s")}
        for kind in self.commands:
            out[f"{kind}_s"] = (_median(rounds, "kinds", kind), "s")
        return out

    def layer_extras(self):
        return {"cli.startup_s": statistics.mean(self.startup)} if self.startup else {}


WORKLOADS = {w.name: w for w in (DenseSweep, PointQueries, Cli)}
