"""Input-output conversion from fluctuation amplitudes to transmission.

The output probe fields follow Eout1 = sqrt(kappa1) da1 - Ep1/sqrt(kappa1)
and Eout2 = sqrt(kappa2) da2 - Ep2/sqrt(kappa2); the input amplitudes seen
by the transmission coefficients are Ep_j/sqrt(kappa_j). Driving port 1
alone therefore gives T12 = sqrt(kappa1 kappa2) |[A1^-1]_(2,1)| and driving
port 2 alone gives T21 = sqrt(kappa1 kappa2) |[A1^-1]_(1,2)|.

One kernel computes these for every caller: `transmission_pair` at one
point, `transmission_grid` over detunings and `nonrecip.sweep` over any
parameter grid. It reads both elements of the inverse from the closed-form
cofactors and determinant of `response.transfer_coefficients`,

    T12 = sqrt(kappa1 kappa2) |i chi1 - chi2| / |D|,
    T21 = sqrt(kappa1 kappa2) |i tau1 - tau2| / |D|,

broadcasting over scalars and arrays of any shape. Where |D| lies below
LU_GUARD_BAND times the pole threshold of `response.pole_thresholds`, it
builds those points' matrices and decides as the LU solve does: det
against `response.singularity_thresholds`, then the inverse. Pole flags
are therefore those of the LU rule. `transmission_arrays` cuts the
broadcast shape along its first axis into a fixed partition of about
_CHUNK points, whatever the thread count, and the blocks go to a thread
pool sized by the NONRECIP_THREADS environment variable (0 or unset =
auto), so results are the same bytes for any number of threads.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import ModelParams, TransmissionPoint, ensure_valid
from .response import (
    SingularMatrix,
    pole_thresholds,
    singularity_thresholds,
    solve_response,
    system_matrices,
    transfer_coefficients,
)

# transmission ratios above this many dB are reported as the cap itself
ISOLATION_DB_CAP = 300.0

# LU decides the points where |D| < LU_GUARD_BAND * pole threshold; see
# "Numerical notes" in the README for why the band is this wide
LU_GUARD_BAND = 1e6

_CHUNK = 32768


class Direction(str, Enum):
    FORWARD_1TO2 = "forward_1to2"
    FORWARD_2TO1 = "forward_2to1"
    RECIPROCAL = "reciprocal"


@dataclass(frozen=True)
class IsolationMetrics:
    """Derived isolator figures of merit for one transmission point."""

    T12: float
    T21: float
    isolation_db: float
    direction: Direction


def output_fields(p: ModelParams, y: float, Ep1: float, Ep2: float) -> tuple[complex, complex]:
    """Output probe-field amplitudes at both ports for given probe drives."""
    if p.kappa1 <= 0.0 or p.kappa2 <= 0.0:
        raise ValueError("output fields need strictly positive cavity decay rates")
    sol = solve_response(p, y, Ep1, Ep2)
    e1 = math.sqrt(p.kappa1) * sol.da1 - Ep1 / math.sqrt(p.kappa1)
    e2 = math.sqrt(p.kappa2) * sol.da2 - Ep2 / math.sqrt(p.kappa2)
    return e1, e2


def thread_count() -> int:
    """Worker count from NONRECIP_THREADS (0 or unset = auto)."""
    raw = os.environ.get("NONRECIP_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"NONRECIP_THREADS must be an integer, got {raw!r}") from exc
    if n < 0:
        raise ValueError("NONRECIP_THREADS must be nonnegative")
    if n == 0:
        return min(32, os.cpu_count() or 1)
    return n


def _lu_transmission(v: Mapping[str, object]):
    """T12, T21 and pole flags by LU, as 1-D arrays over the points of ``v``."""
    m = system_matrices(v).reshape(-1, 4, 4)
    singular = np.abs(np.linalg.det(m)) < singularity_thresholds(m)
    t12 = np.full(len(m), np.nan)
    t21 = np.full(len(m), np.nan)
    ok = ~singular
    if np.any(ok):
        inv = np.linalg.inv(m[ok])
        pref = np.broadcast_to(np.sqrt(np.abs(v["kappa1"] * v["kappa2"])),
                               singular.shape)[ok]
        t12[ok] = pref * np.abs(inv[:, 1, 0])
        t21[ok] = pref * np.abs(inv[:, 0, 1])
    return t12, t21, singular


def _kernel(v: Mapping[str, object]):
    """T12, T21 and pole flags at the points of ``v``.

    ``v`` maps each ModelParams field name, and ``"y"``, to a scalar or an
    array, the arrays broadcasting together. All scalars give floats and a
    bool; otherwise the results are arrays in the broadcast shape.
    """
    tau1, tau2, chi1, chi2, D = transfer_coefficients(v)
    abs_d = abs(D)
    band = abs_d < LU_GUARD_BAND * pole_thresholds(v)
    if isinstance(abs_d, float):
        if band:
            t12, t21, singular = _lu_transmission(v)
            return float(t12[0]), float(t21[0]), bool(singular[0])
        pref = math.sqrt(abs(v["kappa1"] * v["kappa2"]))
        return (pref * abs(1j * chi1 - chi2) / abs_d,
                pref * abs(1j * tau1 - tau2) / abs_d, False)
    pref = np.sqrt(np.abs(v["kappa1"] * v["kappa2"]))
    # band points may divide by D = 0; LU overwrites them below
    with np.errstate(divide="ignore", invalid="ignore"):
        t12 = pref * np.abs(1j * chi1 - chi2) / abs_d
        t21 = pref * np.abs(1j * tau1 - tau2) / abs_d
    singular = np.zeros(abs_d.shape, dtype=bool)
    if np.any(band):
        sub = {k: np.broadcast_to(x, band.shape)[band]
               if isinstance(x, np.ndarray) else x for k, x in v.items()}
        t12[band], t21[band], singular[band] = _lu_transmission(sub)
    return t12, t21, singular


def transmission_arrays(v: Mapping[str, object]
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel over parameter and detuning arrays, in blocks of rows.

    ``v`` maps each ModelParams field name, and ``"y"``, to a scalar or an
    array; at least one value is an array of one or more dimensions, and
    the arrays broadcast together. A 2-D grid is best passed as a row
    ``(1, n1)`` and a column ``(n2, 1)``, so that whatever depends on one
    axis alone is computed once per value. Values are not validated.

    The broadcast shape is cut along its first axis into blocks of
    ``max(1, _CHUNK // points per row)`` rows, whatever the thread count;
    a leading axis of length 1 is skipped.

    Returns
    -------
    (T12, T21, singular) : three arrays in the broadcast shape
        Transmission amplitudes, NaN at poles, and the pole mask.
    """
    shape = np.broadcast_shapes(*(np.shape(x) for x in v.values()
                                  if isinstance(x, np.ndarray)))
    if len(shape) > 1 and shape[0] == 1:
        # a single row would be a single block: cut the row instead
        row = transmission_arrays({
            k: x[0] if isinstance(x, np.ndarray) and x.ndim == len(shape)
            else x for k, x in v.items()})
        return tuple(a[np.newaxis] for a in row)
    t12 = np.empty(shape)
    t21 = np.empty(shape)
    singular = np.empty(shape, dtype=bool)

    def run(s: slice) -> None:
        # only arrays that span the first axis are cut; the others
        # broadcast along it
        sub = {k: x[s] if isinstance(x, np.ndarray) and x.ndim == len(shape)
               and x.shape[0] > 1 else x for k, x in v.items()}
        t12[s], t21[s], singular[s] = _kernel(sub)

    rows = max(1, _CHUNK // max(1, math.prod(shape[1:])))
    chunks = [slice(i, i + rows) for i in range(0, shape[0], rows)]
    workers = min(thread_count(), len(chunks))
    if workers <= 1:
        for s in chunks:
            run(s)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, chunks))
    return t12, t21, singular


def _require_open_ports(p: ModelParams) -> None:
    ensure_valid(p)
    if p.kappa1 <= 0.0 or p.kappa2 <= 0.0:
        raise ValueError("transmission needs strictly positive cavity decay rates")


def transmission_pair(p: ModelParams, y: float) -> TransmissionPoint:
    """Transmission amplitudes T12 (port 1 to 2) and T21 (port 2 to 1) at ``y``.

    Raises
    ------
    SingularMatrix
        At a response pole.
    """
    _require_open_ports(p)
    t12, t21, singular = _kernel(dict(vars(p), y=y))
    if singular:
        raise SingularMatrix(f"response matrix is singular at y={y}")
    return TransmissionPoint(y=float(y), T12=t12, T21=t21)


def transmission_grid(p: ModelParams, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized transmission over a detuning grid.

    Returns
    -------
    (T12, T21, singular) : three arrays over the grid
        Transmission amplitudes, with NaN at grid points where the response
        matrix is singular, and a boolean mask marking those points.
    """
    _require_open_ports(p)
    ys = np.asarray(ys, dtype=float)
    t12, t21, singular = transmission_arrays(dict(vars(p), y=ys.ravel()))
    return (t12.reshape(ys.shape), t21.reshape(ys.shape),
            singular.reshape(ys.shape))


def isolation_db(t12, t21):
    """Isolation 20 log10(max(T12, T21) / min(T12, T21)) in dB, elementwise.

    0 where the two directions agree to 1e-9 relative (reciprocal),
    ISOLATION_DB_CAP where the ratio exceeds the cap or the smaller one is
    0, NaN where either is NaN (a pole).
    """
    hi = np.maximum(t12, t21)
    with np.errstate(all="ignore"):
        db = np.minimum(20.0 * np.log10(hi / np.minimum(t12, t21)),
                        ISOLATION_DB_CAP)
    return np.where(np.abs(t12 - t21) <= 1e-9 * np.maximum(hi, 1e-30), 0.0, db)


def isolation_metrics(tp: TransmissionPoint) -> IsolationMetrics:
    """Classify a transmission point and compute the isolation ratio in dB."""
    db = float(isolation_db(tp.T12, tp.T21))
    # db is 0 exactly at reciprocal points: elsewhere the ratio exceeds
    # 1 + 1e-9, so its logarithm is positive
    if db == 0.0:
        direction = Direction.RECIPROCAL
    elif tp.T12 > tp.T21:
        direction = Direction.FORWARD_1TO2
    else:
        direction = Direction.FORWARD_2TO1
    return IsolationMetrics(T12=tp.T12, T21=tp.T21, isolation_db=db,
                            direction=direction)


__all__ = [
    "Direction", "ISOLATION_DB_CAP", "IsolationMetrics", "LU_GUARD_BAND",
    "isolation_db", "isolation_metrics", "output_fields", "thread_count",
    "transmission_arrays", "transmission_grid", "transmission_pair",
]
