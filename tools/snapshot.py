"""Write every user-visible output of the package into one directory.

    python tools/snapshot.py OUT
    PYTHONPATH=/other/tree/src python tools/snapshot.py OUT2
    diff -r OUT OUT2

The package is imported as Python finds it, so ``PYTHONPATH`` selects the
tree; when it is not importable, the ``src`` tree next to this directory is
used. Two trees give the same outputs exactly when ``diff -r`` of their
directories is empty. OUT receives:

- ``figures/``: the 31 figure CSVs and summaries, with the ``figure``
  command's printed lines in ``figures.stdout``;
- ``spectrum*``, ``phasemap*``: the sweep commands in CSV and JSON, with
  ``--unit kappa2`` and ``--y``;
- ``design_*``: two ``design`` reports, printed and written;
- ``steady*``: the ``steady`` report, printed and written;
- ``verify.stdout``: the ``verify`` lines at the default draws and seed;
- ``steady_states.txt``: the ``repr`` of `solve_steady_state` at the
  tests' steady points;
- ``designs.jsonl``: `design_to_dict` over 400 seeded regimes;
- ``points.txt``: the ``repr`` of `transmission_pair` and
  `isolation_metrics` at 2000 seeded `random_params` draws, each at a
  detuning ``uniform(-5, 5)``, so the scalar kernel is gated away from
  y = 0 and from the designed points;
- ``draws.txt``: the ``repr`` of those 2000 `random_params` draws, in
  the same order, so the draw mapping and the `ModelParams`
  normalization are gated directly, not only through T;
- ``linearized.txt``: the ``repr`` of `linearized_params` at the tests'
  compensated points, the steady point and the omega_m = 1e3 point at
  g1 = 4e-3, 0 and -4e-3, so the steady-to-response bridge is gated.

Each ``.stdout`` file ends with the command's exit code. Commands run in
this process with OUT as the working directory, so the paths they print
are relative and OUT's location does not show in any output. Only the
standard library, numpy and the package are used.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys

# a model file away from kappa2 = 1, so that --unit kappa2 rescales it
MODEL = {
    "kappa1": 1.0, "kappa2": 2.0, "gamma": 1.0, "f": 10.0,
    "G1": 0.5, "G2": 0.5, "theta": math.pi / 2.0, "J1": 0.5, "J2": 0.01,
    "phi": math.pi / 2.0, "J3": {"re": 0.0, "im": 4.476},
    "unit": {"reference": "gamma", "value": 1.0},
}

# the bare point of the steady tests
BARE = {
    "Delta1": 10.0, "Delta2": 10.0, "Delta_en": 10.0, "omega_m": 10.0,
    "g1": 0.004, "g2": 0.004, "J1": 0.5, "J2": 0.01,
    "J3": {"re": 0.0, "im": 4.476},
    "kappa1": 1.0, "kappa2": 1.0, "gamma": 1.0, "f": 10.0,
}

STEADY = {"bare": BARE, "drives": {"E1": 100.0, "E2": {"re": 0.0, "im": 100.0}}}

# drives at BARE, as (E1, E2)
STEADY_DRIVES = ((100.0, 100.0j), (30.0, 20.0j), (400.0, 300.0j),
                 (50.0, 0.0), (1500.0, 1500.0j))

# a detuned point where direct Newton stalls and the drive ramp converges
RAMP_BARE = {
    "Delta1": 1.4, "Delta2": 1.4, "Delta_en": 1.4, "omega_m": 1.4,
    "g1": 0.0082, "g2": 0.0053, "J1": 1.0, "J2": 0.23, "J3": -0.59 - 0.073j,
    "kappa1": 0.25, "kappa2": 0.73, "gamma": 0.3, "f": 0.25,
}
RAMP_DRIVES = (-60.0 - 18.0j, 1.1 - 0.37j)

# output name -> command line
COMMANDS = (
    ("spectrum", ["spectrum", "--params", "model.json", "--out", "spectrum"]),
    ("spectrum_kappa2", ["spectrum", "--params", "model.json", "--out",
                         "spectrum_kappa2", "--format", "json",
                         "--unit", "kappa2"]),
    ("phasemap_y", ["phasemap", "--params", "model.json", "--out",
                    "phasemap_y", "--y", "0.3"]),
    ("phasemap_json", ["phasemap", "--params", "model.json", "--out",
                       "phasemap_json", "--format", "json"]),
    ("design_kappa2", ["design", "--kappa1", "10", "--kappa2", "1",
                       "--gamma", "0.01", "--f", "1", "--unit", "kappa2",
                       "--out", "design_kappa2"]),
    ("design_equal", ["design", "--kappa1", "1", "--kappa2", "1",
                      "--gamma", "1", "--f", "10", "--out", "design_equal"]),
    ("steady", ["steady", "--params", "steady.json", "--out", "steady"]),
    ("verify", ["verify"]),
)

DESIGN_REGIMES = 400
DESIGN_SEED = 0

POINT_DRAWS = 2000
POINT_SEED = 0

# (bare overrides, (E1, E2)) of the linearized points; the laser detunings
# are then compensated onto omega_m
LINEARIZED = (({}, (100.0, 100.0j)),) + tuple(
    (dict(J2=1.0, J3=2.225j, omega_m=1e3, g1=g1), (1e4, 1e4j))
    for g1 in (4e-3, 0.0, -4e-3))


def _import_package():
    try:
        import nonrecip  # noqa: F401
    except ImportError:
        here = os.path.dirname(os.path.abspath(__file__))
        sys.path.insert(0, os.path.join(here, os.pardir, "src"))


def _run(cli_main, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return out.getvalue() + f"exit {code}\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _steady_states() -> str:
    from nonrecip import BareParams, Drives, solve_steady_state

    bare = BareParams(**dict(BARE, J3=4.476j))
    cases = [(bare, Drives(E1, E2)) for E1, E2 in STEADY_DRIVES]
    cases.append((BareParams(**RAMP_BARE), Drives(*RAMP_DRIVES)))
    return "".join(repr(solve_steady_state(b, d)) + "\n" for b, d in cases)


def _designs() -> str:
    from nonrecip import NoValidDesign, design_isolator, design_to_dict

    rng = random.Random(DESIGN_SEED)
    lines = []
    for _ in range(DESIGN_REGIMES):
        rates = [10.0 ** rng.uniform(-2.0, 2.0) for _ in range(4)]
        try:
            record = design_to_dict(design_isolator(*rates))
        except NoValidDesign as exc:
            record = {"no_valid_design": design_to_dict(exc.design)}
        except (ArithmeticError, ValueError) as exc:
            record = {"error": f"{type(exc).__name__}: {exc}"}
        lines.append(json.dumps({"rates": rates, "design": record},
                                sort_keys=True) + "\n")
    return "".join(lines)


def _points() -> tuple[str, str]:
    """The texts of ``points.txt`` and ``draws.txt``."""
    import numpy as np
    from nonrecip import isolation_metrics, transmission_pair
    from nonrecip.verify import random_params

    rng = np.random.default_rng(POINT_SEED)
    lines, draws = [], []
    for _ in range(POINT_DRAWS):
        p = random_params(rng)
        tp = transmission_pair(p, rng.uniform(-5.0, 5.0))
        lines.append(f"{tp!r} {isolation_metrics(tp)!r}\n")
        draws.append(f"{p!r}\n")
    return "".join(lines), "".join(draws)


def _linearized() -> str:
    from dataclasses import replace

    from nonrecip import BareParams, Drives, linearized_params, solve_steady_state

    lines = []
    for overrides, drives in LINEARIZED:
        wm = overrides.get("omega_m", BARE["omega_m"])
        b = BareParams(**{**BARE, "J3": 4.476j, "Delta1": wm, "Delta2": wm,
                          "Delta_en": wm, **overrides})
        d = Drives(*drives)
        s = solve_steady_state(b, d)
        # three rounds put the drive-shifted detunings on omega_m
        for _ in range(3):
            b = replace(b, Delta1=wm - 2.0 * b.g1 * s.beta.real,
                        Delta2=wm - 2.0 * b.g2 * s.beta.real)
            s = solve_steady_state(b, d)
        lines.append(repr(linearized_params(b, s)) + "\n")
    return "".join(lines)


def snapshot(out: str) -> None:
    """Write every output listed in the module docstring under ``out``."""
    _import_package()
    from nonrecip import figure_ids
    from nonrecip.cli import cli_main

    os.makedirs(out, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        _write("model.json", json.dumps(MODEL, indent=2) + "\n")
        _write("steady.json", json.dumps(STEADY, indent=2) + "\n")
        _write("figures.stdout", "".join(
            _run(cli_main, ["figure", fid, "--out", "figures"])
            for fid in figure_ids()))
        for name, argv in COMMANDS:
            _write(f"{name}.stdout", _run(cli_main, argv))
        _write("steady_states.txt", _steady_states())
        _write("designs.jsonl", _designs())
        points, draws = _points()
        _write("points.txt", points)
        _write("draws.txt", draws)
        _write("linearized.txt", _linearized())
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    snapshot(sys.argv[1])
