"""Parameter sweeps, figure-regression presets, and dataset emission.

Grids are evaluated by the transmission kernel that `transmission_pair`
uses, over broadcast parameter arrays: the closed-form numerators and
determinant at every point, which also flag the poles, in fixed blocks
dispatched to a thread pool with one worker per CPU this process may run
on (see `nonrecip.transmission`). A 2-axis grid reaches the kernel as a
row of axis1 values against a column of axis2 values, so a quantity that
depends on one axis alone is computed once per axis value, not once per
point.
Row order is always axis2 outer, axis1 inner, CSV cells are printed with
a fixed 17-significant-digit scientific format, and JSON tables have the
layout of every JSON file the package writes (`params._json_text`), so
identical invocations produce byte-identical files.

The designed figure presets (fig5-8) are built by `design.design_isolator`,
the same path as the ``design`` command.

Grid points where the response matrix is singular are kept as rows with
status=singular and empty observable cells rather than aborting the sweep.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat

import numpy as np

from .design import design_isolator
from .params import (
    InvalidParams,
    ModelParams,
    _GAMMA_UNIT,
    _KAPPA2_UNIT,
    _json_text,
    _to_dict,
    _write_json,
)
from .transmission import _require_open_ports, transmission_arrays

SCHEMA_VERSION = 1

# fields of ModelParams that a sweep axis may address, plus the detuning y
_REAL_PATHS = ("kappa1", "kappa2", "gamma", "f", "G1", "G2",
               "theta", "J1", "J2", "phi", "y")

_OBSERVABLES = ("T12", "T21", "isolation_db")


class InvalidParameterPath(ValueError):
    """A sweep axis names something that is not a sweepable parameter."""


class UnknownFigure(ValueError):
    """No stored preset matches the requested figure id."""


@dataclass(frozen=True)
class Axis:
    """One linear sweep axis over a named parameter."""

    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        if self.name not in _REAL_PATHS:
            raise InvalidParameterPath(
                f"cannot sweep {self.name!r}; choose one of {', '.join(_REAL_PATHS)}")
        # bool subclasses int, but True is no point count
        if (isinstance(self.points, bool)
                or not isinstance(self.points, numbers.Integral)):
            raise ValueError("axis points must be an integer")
        if self.points < 1:
            raise ValueError("axis needs at least one point")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("axis endpoints must be finite")
        if self.start > self.stop:
            raise ValueError("axis start must not exceed stop")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """A 1- or 2-axis transmission sweep around a fixed parameter set.

    ``y`` is the probe detuning used when no axis sweeps y itself.
    """

    fixed: ModelParams
    axis1: Axis
    axis2: Axis | None = None
    observables: tuple[str, ...] = ("T12", "T21")
    y: float = 0.0

    def __post_init__(self) -> None:
        # tuple() would split a lone name into its letters
        if isinstance(self.observables, str):
            raise ValueError(
                "observables must be a tuple or list of names, not a str")
        object.__setattr__(self, "observables", tuple(self.observables))
        if not self.observables:
            raise ValueError("at least one observable is required")
        bad = [o for o in self.observables if o not in _OBSERVABLES]
        if bad:
            raise ValueError(
                f"unknown observables {bad}; choose from {', '.join(_OBSERVABLES)}")
        if len(set(self.observables)) != len(self.observables):
            raise ValueError("observables must not repeat")
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise InvalidParameterPath(
                f"both axes sweep {self.axis1.name!r}")
        if not math.isfinite(self.y):
            raise ValueError("y must be finite")


@dataclass
class SweepTable:
    """Columnar sweep result: per-column float arrays plus the pole mask.

    ``singular`` is a bool array, true at the rows whose response matrix
    is singular; the "status" column of ``columns`` is written from it.
    """

    columns: tuple[str, ...]
    data: dict[str, np.ndarray]
    singular: np.ndarray

    @property
    def status(self) -> np.ndarray:
        """The status column as a new ``<U8`` array of "ok" and "singular"."""
        status = np.full(len(self.singular), "ok", dtype="<U8")
        status[self.singular] = "singular"
        return status

    def __len__(self) -> int:
        return len(self.singular)


def sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the requested observables over the grid of ``spec``.

    Rows are ordered axis2 outer, axis1 inner. Singular grid points carry
    status "singular" and NaN observables (emitted as empty CSV cells).
    An axis end that makes an invalid set or closes a port raises
    InvalidParams; each rule is an interval, so the ends vouch for the axis.
    """
    _require_open_ports(spec.fixed)
    for axis in (spec.axis1, spec.axis2):
        if axis is not None and axis.name != "y":
            for value in (axis.start, axis.stop):
                _require_open_ports(replace(spec.fixed, **{axis.name: value}))
    grid1 = spec.axis1.grid()
    vals = dict(vars(spec.fixed), y=spec.y)
    if spec.axis2 is None:
        axis_cols = [(spec.axis1.name, grid1)]
        vals[spec.axis1.name] = grid1
    else:
        grid2 = spec.axis2.grid()
        # the kernel broadcasts a row of axis1 against a column of axis2;
        # the C order of that (n2, n1) grid is axis2 outer, axis1 inner
        vals[spec.axis1.name] = grid1[np.newaxis, :]
        vals[spec.axis2.name] = grid2[:, np.newaxis]
        g2, g1 = np.meshgrid(grid2, grid1, indexing="ij")
        axis_cols = [(spec.axis1.name, g1.ravel()),
                     (spec.axis2.name, g2.ravel())]
    t12, t21, singular, *db = (a.ravel() for a in transmission_arrays(
        vals, with_isolation_db="isolation_db" in spec.observables))

    observed = dict(zip(("T12", "T21", "isolation_db"), (t12, t21, *db)))
    data: dict[str, np.ndarray] = {name: arr for name, arr in axis_cols}
    for obs in spec.observables:
        data[obs] = observed[obs]
    columns = tuple(name for name, _ in axis_cols) + spec.observables + ("status",)
    return SweepTable(columns=columns, data=data, singular=singular)


# rows formatted per block, so emission never holds a whole table of
# strings in memory
_ROWS_PER_BLOCK = 1024

# a format: how it spells a list of floats, a non-finite float (by its str)
# and each status, then its cell separator, row opener, closer and separator
_CSV = (lambda vs: list(map(float.__format__, vs, repeat(".16e"))),
        {"nan": "", "inf": "inf", "-inf": "-inf"}, ("ok", "singular"),
        ",", "", "\n", "")
_JSON = (lambda vs: list(map(repr, vs)),
         {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"},
         ('"ok"', '"singular"'), ",\n      ", "\n    [\n      ", "\n    ]", ",")


def _status_cells(singular: np.ndarray, ok="ok", bad="singular") -> list[str]:
    # every row shares one of the two status strings
    cells = [ok] * len(singular)
    for i in np.flatnonzero(singular).tolist():
        cells[i] = bad
    return cells


def _blank_nan(cells: list, col: np.ndarray, blank) -> list:
    for i in np.flatnonzero(np.isnan(col)).tolist():
        cells[i] = blank
    return cells


def _write_rows(fh, table: SweepTable, dialect: tuple) -> None:
    """Write the rows of ``table`` in ``dialect``, status last, per block."""
    numbers, nonfinite, status, cell_sep, row_open, row_close, row_sep = dialect
    for start in range(0, len(table), _ROWS_PER_BLOCK):
        block = slice(start, start + _ROWS_PER_BLOCK)
        cells = []
        for name in (c for c in table.columns if c != "status"):
            values, inv = table.data[name][block], None
            if name not in _OBSERVABLES:
                # an axis repeats few values: format each once, keyed on its
                # bits, since np.unique on floats merges -0.0 and 0.0
                bits, inv = np.unique(values.view(f"u{values.itemsize}"),
                                      return_inverse=True)
                values = bits.view(values.dtype)
            col = numbers(values.tolist())
            for i in np.flatnonzero(~np.isfinite(values)).tolist():
                col[i] = nonfinite[col[i]]
            cells.append(col if inv is None
                         else list(map(col.__getitem__, inv.tolist())))
        cells.append(_status_cells(table.singular[block], *status))
        rows = map(cell_sep.join, zip(*cells))
        fh.write((row_sep if start else "") + row_open
                 + (row_close + row_sep + row_open).join(rows) + row_close)


def write_csv(table: SweepTable, path: str) -> None:
    """Emit a sweep table deterministically: %.16e cells, LF endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.columns) + "\n")
        _write_rows(fh, table, _CSV)


def table_to_json(table: SweepTable) -> dict:
    """The table as a JSON-ready payload; NaN cells become None."""
    cols = [_blank_nan(table.data[c].tolist(), table.data[c], None)
            for c in table.columns if c != "status"]
    cols.append(_status_cells(table.singular))
    return {"schema_version": SCHEMA_VERSION,
            "columns": list(table.columns),
            "rows": [list(row) for row in zip(*cols)]}


def write_json(table: SweepTable, path: str) -> None:
    """Emit the bytes of ``_json_text(table_to_json(table))``, formatting
    the rows per block."""
    empty = SweepTable(table.columns, {c: v[:0] for c, v in table.data.items()},
                       table.singular[:0])
    head, tail = _json_text(table_to_json(empty)).split('"rows": []')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '"rows": [')
        _write_rows(fh, table, _JSON)
        fh.write(("\n  ]" if len(table) else "]") + tail)


# ---------------------------------------------------------------------------
# Figure presets. Figures 2-4 are stored in gamma-referenced values,
# figures 5-8 in kappa2-referenced values; each dataset keeps its native
# unit so the emitted parameters read back without conversion.
# ---------------------------------------------------------------------------

# the common operating point of the phase/detuning studies (gamma units)
_BASE_GAMMA = dict(kappa1=1.0, kappa2=1.0, gamma=1.0, f=10.0,
                   G1=0.5, G2=0.5, J1=0.5, J2=0.01, J3=4.476j,
                   unit=_GAMMA_UNIT)

# design candidates behind fig5-8, in the candidate order of
# design_isolator: J3 = +sqrt((-R8 + sqrt(disc))/(2 R7)) (fig5, fig7) and
# J3 = -sqrt((-R8 - sqrt(disc))/(2 R7)) (fig6, fig8)
_ROOT_PLUS = 0
_ROOT_MINUS = 3

SPECTRUM_POINTS = 1001
PHASEMAP_POINTS = 201


def _phasemap_preset() -> SweepSpec:
    return phasemap_spec(ModelParams(theta=0.0, phi=0.0, **_BASE_GAMMA))


def _spectrum_preset(angle: float, **changes) -> SweepSpec:
    # theta = phi = angle at the common point, y over +-5 gamma
    return spectrum_spec(ModelParams(
        theta=angle, phi=angle, **{**_BASE_GAMMA, **changes}))


def _designed_preset(gamma: float, f: float, root: int) -> SweepSpec:
    # kappa1 = 10 kappa2, y over +-5 kappa2
    p = design_isolator(10.0, 1.0, gamma, f,
                        unit=_KAPPA2_UNIT).to_model_params(root)
    return SweepSpec(fixed=p, axis1=Axis("y", -5.0 * p.kappa2, 5.0 * p.kappa2,
                                         SPECTRUM_POINTS))


# every figure id, in order, with the builder of its preset
_FIGURES = {
    "fig2": _phasemap_preset,
    # the common theta = phi, in units of pi
    **{f"fig3{c}": partial(_spectrum_preset, eighths * math.pi)
       for c, eighths in zip("abcdefgh", (0.0, 0.25, 0.5, 0.75,
                                          1.0, 1.25, 1.5, 1.75))},
    # J2 rises in fig4a-d, J3 in fig4e-h, at theta = phi = pi/2
    **{f"fig4{c}": partial(_spectrum_preset, math.pi / 2.0, **change)
       for c, change in zip("abcdefgh", (
           *({"J2": v} for v in (0.01, 0.1, 0.3, 0.5)),
           *({"J3": v} for v in (0.476j, 1.476j, 2.476j, 4.476j))))},
    # f rises in fig5 and fig6 at gamma = 0.01 kappa2
    **{f"fig{n}{c}": partial(_designed_preset, 0.01, f, root)
       for n, root in ((5, _ROOT_PLUS), (6, _ROOT_MINUS))
       for c, f in zip("abc", (0.1, 1.0, 5.0))},
    # gamma rises in fig7 and fig8 at f = kappa2
    **{f"fig{n}{c}": partial(_designed_preset, gamma, 1.0, root)
       for n, root in ((7, _ROOT_PLUS), (8, _ROOT_MINUS))
       for c, gamma in zip("abcd", (0.001, 0.01, 0.1, 1.0))},
}


def figure_ids() -> tuple[str, ...]:
    return tuple(_FIGURES)


def figure_preset(fid: str) -> SweepSpec:
    """The stored sweep behind one regression dataset.

    Raises
    ------
    UnknownFigure
        For ids outside `figure_ids()`.
    """
    build = _FIGURES.get(fid)
    if build is None:
        raise UnknownFigure(f"no preset for {fid!r}; known ids: "
                            + ", ".join(_FIGURES))
    return build()


# ---------------------------------------------------------------------------
# Landmarks and figure reproduction
# ---------------------------------------------------------------------------

def _crossing(ys: np.ndarray, vs: np.ndarray, i: int, j: int,
              threshold: float) -> float:
    # linear interpolation of the threshold crossing between grid points
    y1, y2, v1, v2 = ys[i], ys[j], vs[i], vs[j]
    if math.isnan(v2):
        return float(y1)
    return float(y1 + (threshold - v1) * (y2 - y1) / (v2 - v1))


def threshold_band(ys: np.ndarray, vs: np.ndarray, threshold: float,
                   below: bool) -> dict:
    """Contiguous band around y = 0 where vs < threshold (or > if not below).

    Band edges between grid points are linearly interpolated; NaN samples
    terminate the band. Returns y_lo, y_hi, and the width (all 0.0-width at
    the center when the center sample fails the condition).
    """
    ys = np.asarray(ys, dtype=float)
    vs = np.asarray(vs, dtype=float)
    cond = np.where(np.isnan(vs), False,
                    (vs < threshold) if below else (vs > threshold))
    c = int(np.argmin(np.abs(ys)))
    if not cond[c]:
        return {"y_lo": float(ys[c]), "y_hi": float(ys[c]), "width": 0.0}
    i = c
    while i > 0 and cond[i - 1]:
        i -= 1
    j = c
    while j < len(ys) - 1 and cond[j + 1]:
        j += 1
    y_lo = float(ys[0]) if i == 0 else _crossing(ys, vs, i, i - 1, threshold)
    y_hi = float(ys[-1]) if j == len(ys) - 1 else _crossing(ys, vs, j, j + 1, threshold)
    return {"y_lo": y_lo, "y_hi": y_hi, "width": y_hi - y_lo}


def _extremum(ys: np.ndarray, vs: np.ndarray, biggest: bool) -> dict:
    a = np.where(np.isnan(vs), -np.inf if biggest else np.inf, vs)
    i = int(np.argmax(a) if biggest else np.argmin(a))
    return {"y": float(ys[i]), "value": float(vs[i])}


def _spectrum_landmarks(table: SweepTable) -> dict:
    ys = table.data["y"]
    t12 = table.data["T12"]
    t21 = table.data["T21"]
    c = int(np.argmin(np.abs(ys)))
    finite = ~(np.isnan(t12) | np.isnan(t21))
    gap = np.abs(t12[finite] - t21[finite])
    return {
        "resonance": {"y": float(ys[c]), "T12": float(t12[c]),
                      "T21": float(t21[c])},
        "max_T12": _extremum(ys, t12, biggest=True),
        "max_T21": _extremum(ys, t21, biggest=True),
        "min_T12": _extremum(ys, t12, biggest=False),
        "min_T21": _extremum(ys, t21, biggest=False),
        "max_abs_T12_minus_T21": float(np.max(gap)) if gap.size else math.nan,
        "T21_below_half_band": threshold_band(ys, t21, 0.5, below=True),
        "T12_above_half_band": threshold_band(ys, t12, 0.5, below=False),
        "T21_above_half_band": threshold_band(ys, t21, 0.5, below=False),
        "singular_points": int(np.count_nonzero(table.singular)),
    }


def _phasemap_landmarks(table: SweepTable, points: int) -> dict:
    t12 = table.data["T12"].reshape(points, points)  # [phi, theta]
    t21 = table.data["T21"].reshape(points, points)
    thetas = table.data["theta"].reshape(points, points)[0]
    # duality: swapping both phase signs transposes the directions
    residual = float(np.nanmax(np.abs(t12 - t21[::-1, ::-1])))
    i_half = int(np.argmin(np.abs(thetas - math.pi / 2.0)))
    i_three = int(np.argmin(np.abs(thetas - 3.0 * math.pi / 2.0)))
    return {
        "duality_max_abs_residual": residual,
        "theta_phi_pi_over_2": {"T12": float(t12[i_half, i_half]),
                                "T21": float(t21[i_half, i_half])},
        "theta_phi_3pi_over_2": {"T12": float(t12[i_three, i_three]),
                                 "T21": float(t21[i_three, i_three])},
        "singular_points": int(np.count_nonzero(table.singular)),
    }


def reproduce_figure(fid: str, out_dir: str = ".") -> dict:
    """Regenerate one figure dataset: CSV plus a JSON landmark summary.

    Returns the summary record (also written to ``<fid>_summary.json``).
    """
    spec = figure_preset(fid)
    table = sweep(spec)
    os.makedirs(out_dir, exist_ok=True)
    csv_name = f"{fid}.csv"
    write_csv(table, os.path.join(out_dir, csv_name))
    if fid == "fig2":
        landmarks = _phasemap_landmarks(table, PHASEMAP_POINTS)
    else:
        landmarks = _spectrum_landmarks(table)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "figure": fid,
        "csv": csv_name,
        "params": _to_dict(spec.fixed),
        "grid": {
            "axis1": _to_dict(spec.axis1),
            "axis2": None if spec.axis2 is None else _to_dict(spec.axis2),
            "y": spec.y,
        },
        "landmarks": landmarks,
    }
    _write_json(summary, os.path.join(out_dir, f"{fid}_summary.json"))
    return summary


def spectrum_spec(p: ModelParams, points: int = SPECTRUM_POINTS) -> SweepSpec:
    """Default 1-D spectrum: y in [-5 gamma, +5 gamma] of ``p``'s units.

    A `SweepSpec` with a y `Axis` takes any other window.
    """
    half_width = 5.0 * p.gamma
    if not (half_width > 0.0 and math.isfinite(half_width)):
        raise InvalidParams("spectrum window +-5 gamma needs a positive, "
                            f"finite gamma; got gamma={p.gamma}")
    return SweepSpec(fixed=p, axis1=Axis("y", -half_width, half_width, points))


def phasemap_spec(p: ModelParams, points: int = PHASEMAP_POINTS,
                  y: float = 0.0) -> SweepSpec:
    """Default 2-D phase map: theta x phi over [0, 2 pi] at fixed y."""
    return SweepSpec(
        fixed=p,
        axis1=Axis("theta", 0.0, 2.0 * math.pi, points),
        axis2=Axis("phi", 0.0, 2.0 * math.pi, points),
        observables=("T12", "T21"), y=y)


__all__ = [
    "Axis", "InvalidParameterPath", "PHASEMAP_POINTS", "SCHEMA_VERSION",
    "SPECTRUM_POINTS", "SweepSpec", "SweepTable", "UnknownFigure",
    "figure_ids", "figure_preset", "phasemap_spec", "reproduce_figure",
    "spectrum_spec", "sweep", "table_to_json", "threshold_band",
    "write_csv", "write_json",
]
