"""Parameter sweeps, figure-regression presets, and dataset emission.

Grids are evaluated by the transmission kernel that `transmission_pair`
uses, over broadcast parameter arrays: the closed-form cofactors and
determinant at every point, LU only inside the guard band around the
poles, in fixed blocks dispatched to the NONRECIP_THREADS thread pool (see
`nonrecip.transmission`). A 2-axis grid reaches the kernel as a row of
axis1 values against a column of axis2 values, so a quantity that depends
on one axis alone is computed once per axis value, not once per point.
Row order is always axis2 outer, axis1 inner, CSV cells are printed with
a fixed 17-significant-digit scientific format, and JSON tables have the
layout of ``json.dump(..., indent=2, sort_keys=True)``, so identical
invocations produce byte-identical files.

The designed figure presets (fig5-8) are built by `design.design_isolator`,
the same path as the ``design`` command.

Grid points where the response matrix is singular are kept as rows with
status=singular and empty observable cells rather than aborting the sweep.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .design import design_isolator
from .params import (
    InvalidParams,
    ModelParams,
    RateUnit,
    ensure_valid,
    model_params_to_dict,
)
from .transmission import isolation_db, transmission_arrays

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
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.name not in _REAL_PATHS:
            raise InvalidParameterPath(
                f"cannot sweep {self.name!r}; choose one of {', '.join(_REAL_PATHS)}")
        if self.scale != "linear":
            raise ValueError(f"unsupported axis scale {self.scale!r}")
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
    """Columnar sweep result: per-column float arrays plus a status column."""

    columns: tuple[str, ...]
    data: dict[str, np.ndarray]
    status: np.ndarray

    def __len__(self) -> int:
        return len(self.status)


def sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the requested observables over the grid of ``spec``.

    Rows are ordered axis2 outer, axis1 inner. Singular grid points carry
    status "singular" and NaN observables (emitted as empty CSV cells).
    """
    ensure_valid(spec.fixed)
    if spec.fixed.kappa1 <= 0.0 or spec.fixed.kappa2 <= 0.0:
        raise InvalidParams("sweeps need strictly positive cavity decay rates")
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
    t12, t21, singular = (a.ravel() for a in transmission_arrays(vals))

    data: dict[str, np.ndarray] = {name: arr for name, arr in axis_cols}
    for obs in spec.observables:
        if obs == "T12":
            data[obs] = t12
        elif obs == "T21":
            data[obs] = t21
        else:
            data[obs] = isolation_db(t12, t21)
    status = np.full(len(singular), "ok", dtype="<U8")
    status[singular] = "singular"
    columns = tuple(name for name, _ in axis_cols) + spec.observables + ("status",)
    return SweepTable(columns=columns, data=data, status=status)


# rows formatted or encoded per block, so emission never holds a whole
# table of strings in memory
_ROWS_PER_BLOCK = 1024

# a block of rows encoded with separators=(_JSON_CELL_SEP, ...) reads
# "[[a,<sep>b],<sep>[c,<sep>d]]"; rows hold only numbers, null and the
# two status strings, so _JSON_ROW_SEP occurs only between rows
_JSON_CELL_SEP = ",\n      "
_JSON_ROW_SEP = "]" + _JSON_CELL_SEP + "["
_JSON_ROW_OPEN = "    [\n      "
_JSON_ROW_CLOSE = "\n    ]"


def _status_cells(status: np.ndarray) -> list[str]:
    # every row shares one of the two status strings
    cells = ["ok"] * len(status)
    for i in np.flatnonzero(status == "singular").tolist():
        cells[i] = "singular"
    return cells


def _blank_nan(cells: list, col: np.ndarray, blank) -> list:
    for i in np.flatnonzero(np.isnan(col)).tolist():
        cells[i] = blank
    return cells


def write_csv(table: SweepTable, path: str) -> None:
    """Emit a sweep table deterministically: %.16e cells, LF endings."""
    cols = [table.data[c] for c in table.columns if c != "status"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.columns) + "\n")
        for start in range(0, len(table), _ROWS_PER_BLOCK):
            block = slice(start, start + _ROWS_PER_BLOCK)
            cells = [_blank_nan([f"{v:.16e}" for v in col[block].tolist()],
                                col[block], "")
                     for col in cols]
            cells.append(_status_cells(table.status[block]))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def table_to_json(table: SweepTable) -> dict:
    """The table as a JSON-ready payload; NaN cells become None."""
    cols = [_blank_nan(table.data[c].tolist(), table.data[c], None)
            for c in table.columns if c != "status"]
    cols.append(_status_cells(table.status))
    return {"schema_version": SCHEMA_VERSION,
            "columns": list(table.columns),
            "rows": [list(row) for row in zip(*cols)]}


def write_json(table: SweepTable, path: str) -> None:
    """Emit ``table_to_json(table)`` as indent-2 JSON with sorted keys.

    The bytes are those of ``json.dump(payload, fh, indent=2,
    sort_keys=True)`` plus a final newline, but the rows are encoded per
    block by the C encoder, which ``json.dump`` with an indent never uses.
    """
    payload = table_to_json(table)
    rows = payload["rows"]
    head, tail = json.dumps(dict(payload, rows=[]), indent=2,
                            sort_keys=True).split('"rows": []')
    encode = json.JSONEncoder(separators=(_JSON_CELL_SEP, ": ")).encode
    between_rows = _JSON_ROW_CLOSE + ",\n" + _JSON_ROW_OPEN
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '"rows": [')
        for start in range(0, len(rows), _ROWS_PER_BLOCK):
            text = encode(rows[start:start + _ROWS_PER_BLOCK])
            fh.write(("\n" if start == 0 else ",\n") + _JSON_ROW_OPEN
                     + text[2:-2].replace(_JSON_ROW_SEP, between_rows)
                     + _JSON_ROW_CLOSE)
        fh.write(("\n  ]" if rows else "]") + tail + "\n")


# ---------------------------------------------------------------------------
# Figure presets. Figures 2-4 are stored in gamma-referenced values,
# figures 5-8 in kappa2-referenced values; each dataset keeps its native
# unit so the emitted parameters read back without conversion.
# ---------------------------------------------------------------------------

_GAMMA_UNIT = RateUnit("gamma", 1.0)
_KAPPA2_UNIT = RateUnit("kappa2", 1.0)

# the common operating point of the phase/detuning studies (gamma units)
_BASE_GAMMA = dict(kappa1=1.0, kappa2=1.0, gamma=1.0, f=10.0,
                   G1=0.5, G2=0.5, J1=0.5, J2=0.01, J3=4.476j,
                   unit=_GAMMA_UNIT)

# the common theta = phi of fig3a-h, in units of pi
_EIGHTHS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)

_FIG4_J2 = (0.01, 0.1, 0.3, 0.5)
_FIG4_J3 = (0.476j, 1.476j, 2.476j, 4.476j)

_FIG56_F = (0.1, 1.0, 5.0)
_FIG78_GAMMA = (0.001, 0.01, 0.1, 1.0)

# design candidates behind fig5-8, in the candidate order of
# design_isolator: J3 = +sqrt((-R8 + sqrt(disc))/(2 R7)) (fig5, fig7) and
# J3 = -sqrt((-R8 - sqrt(disc))/(2 R7)) (fig6, fig8)
_ROOT_PLUS = 0
_ROOT_MINUS = 3

SPECTRUM_POINTS = 1001
PHASEMAP_POINTS = 201


def _y_axis(p: ModelParams, half_width_rates: float) -> Axis:
    return Axis("y", -half_width_rates, half_width_rates, SPECTRUM_POINTS)


def figure_ids() -> tuple[str, ...]:
    ids = ["fig2"]
    ids += [f"fig3{c}" for c in "abcdefgh"]
    ids += [f"fig4{c}" for c in "abcdefgh"]
    ids += [f"fig5{c}" for c in "abc"]
    ids += [f"fig6{c}" for c in "abc"]
    ids += [f"fig7{c}" for c in "abcd"]
    ids += [f"fig8{c}" for c in "abcd"]
    return tuple(ids)


def figure_preset(fid: str) -> SweepSpec:
    """The stored sweep behind one regression dataset.

    Raises
    ------
    UnknownFigure
        For ids outside `figure_ids()`.
    """
    if fid == "fig2":
        p = ModelParams(theta=0.0, phi=0.0, **_BASE_GAMMA)
        return SweepSpec(
            fixed=p,
            axis1=Axis("theta", 0.0, 2.0 * math.pi, PHASEMAP_POINTS),
            axis2=Axis("phi", 0.0, 2.0 * math.pi, PHASEMAP_POINTS),
            observables=("T12", "T21"), y=0.0)
    family, letter = fid[:4], fid[4:]
    if family == "fig3" and letter in "abcdefgh" and len(letter) == 1:
        k = "abcdefgh".index(letter)
        ang = _EIGHTHS[k] * math.pi
        p = ModelParams(theta=ang, phi=ang, **_BASE_GAMMA)
        return SweepSpec(fixed=p, axis1=_y_axis(p, 5.0 * p.gamma))
    if family == "fig4" and letter in "abcdefgh" and len(letter) == 1:
        k = "abcdefgh".index(letter)
        base = dict(_BASE_GAMMA)
        if k < 4:
            base["J2"] = _FIG4_J2[k]
        else:
            base["J3"] = _FIG4_J3[k - 4]
        p = ModelParams(theta=math.pi / 2.0, phi=math.pi / 2.0, **base)
        return SweepSpec(fixed=p, axis1=_y_axis(p, 5.0 * p.gamma))
    if family in ("fig5", "fig6") and letter in "abc" and len(letter) == 1:
        f = _FIG56_F["abc".index(letter)]
        design = design_isolator(10.0, 1.0, 0.01, f, unit=_KAPPA2_UNIT)
        p = design.to_model_params(
            _ROOT_PLUS if family == "fig5" else _ROOT_MINUS)
        return SweepSpec(fixed=p, axis1=_y_axis(p, 5.0 * p.kappa2))
    if family in ("fig7", "fig8") and letter in "abcd" and len(letter) == 1:
        gamma = _FIG78_GAMMA["abcd".index(letter)]
        design = design_isolator(10.0, 1.0, gamma, 1.0, unit=_KAPPA2_UNIT)
        p = design.to_model_params(
            _ROOT_PLUS if family == "fig7" else _ROOT_MINUS)
        return SweepSpec(fixed=p, axis1=_y_axis(p, 5.0 * p.kappa2))
    raise UnknownFigure(f"no preset for {fid!r}; known ids: "
                        + ", ".join(figure_ids()))


# ---------------------------------------------------------------------------
# Landmarks and figure reproduction
# ---------------------------------------------------------------------------

def _crossing(ys: np.ndarray, vs: np.ndarray, i: int, j: int,
              threshold: float) -> float:
    # linear interpolation of the threshold crossing between grid points
    y1, y2, v1, v2 = ys[i], ys[j], vs[i], vs[j]
    if math.isnan(v2) or v2 == v1:
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
        "singular_points": int(np.sum(table.status == "singular")),
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
        "singular_points": int(np.sum(table.status == "singular")),
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
        "params": model_params_to_dict(spec.fixed),
        "grid": {
            "axis1": {"name": spec.axis1.name, "start": spec.axis1.start,
                      "stop": spec.axis1.stop, "points": spec.axis1.points},
            "axis2": None if spec.axis2 is None else {
                "name": spec.axis2.name, "start": spec.axis2.start,
                "stop": spec.axis2.stop, "points": spec.axis2.points},
            "y": spec.y,
        },
        "landmarks": landmarks,
    }
    with open(os.path.join(out_dir, f"{fid}_summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def spectrum_spec(p: ModelParams, points: int = SPECTRUM_POINTS,
                  half_width: float | None = None) -> SweepSpec:
    """Default 1-D spectrum: y in [-5 gamma, +5 gamma] of ``p``'s units."""
    if half_width is None:
        half_width = 5.0 * p.gamma
    if not (half_width > 0.0 and math.isfinite(half_width)):
        raise InvalidParams("spectrum window must be positive; "
                            "is gamma zero? pass an explicit half width")
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
