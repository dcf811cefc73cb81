"""Transmission between the two cavity ports, from the linear response A1.

The transmission amplitudes are defined directly from the inverse of A1:
T12 = sqrt(kappa1 kappa2) |[A1^-1]_(2,1)| (port 1 to port 2) and
T21 = sqrt(kappa1 kappa2) |[A1^-1]_(1,2)| (port 2 to port 1). How this
relates to an energy-conserving scattering matrix (|S21| = 2 T at a
passive point) is set out in ROADMAP item 2.

One kernel computes these for every caller: `transmission_pair` at one
point, `transmission_grid` over detunings and `nonrecip.sweep` over any
parameter grid. It reads both elements of the inverse from the closed-form
numerators N12, N21 and determinant D of `response.transfer_coefficients`,

    T12 = sqrt(kappa1 kappa2) |N12| / |D|,
    T21 = sqrt(kappa1 kappa2) |N21| / |D|,

broadcasting over scalars and arrays of any shape. There is one pole
rule: a point whose |D| lies below its pole threshold,
`response.pole_thresholds`, is a pole, with NaN T12 and T21. Elsewhere
their relative error is of order eps times the product of A1's row
norms over |D| (see "Numerical notes" in the README). On an array block
the kernel first takes one threshold at the block's largest magnitudes,
which bounds every point's threshold from above; when the block's
smallest |D| clears that bound, no point is a pole and the per-point
thresholds are never computed. A point whose pole threshold is not
finite lies beyond the range the model evaluates and raises
InvalidParams: one comparison decides it at a point, and the bound on a
block (each point's threshold only when the bound is not finite).
`transmission_arrays` cuts the broadcast shape along its first axis into
blocks of whole rows, about _CHUNK points each (a row longer than
_CHUNK is one block), whatever the thread count, and the blocks go to a
thread pool with one worker per CPU this process may run on (its
affinity, so ``taskset`` sets it), so results are the same bytes for any
number of threads. Each block is written into its slices of the
outputs, in place: the closed form, |N| / |D| and the isolation in dB
each allocate their arrays once per block, and every later step writes
into them.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import InvalidParams, ModelParams, TransmissionPoint
from .response import (
    SingularMatrix,
    _out_of_range,
    pole_thresholds,
    transfer_coefficients,
)

# transmission ratios above this many dB are reported as the cap itself
ISOLATION_DB_CAP = 300.0

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


def thread_count() -> int:
    """Worker count: the CPUs this process may run on, at most 32."""
    # taskset or a cpuset can allow fewer CPUs than the host has
    if hasattr(os, "sched_getaffinity"):
        return min(32, len(os.sched_getaffinity(0)))
    return min(32, os.cpu_count() or 1)


def _threshold_bound(v: Mapping[str, object]) -> float:
    """A pole threshold no smaller than that of any point of ``v``.

    The threshold is a product of row norms built from squares of |y| and
    of each |parameter| by additions, square roots and products, each
    monotone under IEEE rounding, and it does not depend on theta or phi;
    so the threshold at the largest magnitudes bounds every point's from
    above. Array values become 1-element arrays and scalars stay scalars,
    so the bound takes the same operations as the points' thresholds.
    Every array of ``v`` must be nonempty.
    """
    peak = {k: np.abs(x).max(keepdims=True) if isinstance(x, np.ndarray)
            else x for k, x in v.items()}
    return float(np.max(pole_thresholds(peak)))


def _kernel(v: Mapping[str, object], out=None):
    """T12, T21 and pole flags at the points of ``v``.

    ``v`` maps each ModelParams field name, and ``"y"``, to a scalar or an
    array, the arrays broadcasting together. All scalars give floats and a
    bool; otherwise the results are written into ``out``, the caller's
    T12, T21 and bool pole-mask arrays in the broadcast shape, and ``out``
    is returned. A point with |D| below its pole threshold is a pole, with
    NaN T12 and T21. A point whose pole threshold is not finite raises
    InvalidParams. On arrays it expects numpy's divide, overflow and
    invalid warnings to be off (see `transmission_arrays`): a pole may
    divide by D = 0 before it is overwritten with NaN, and a point beyond
    the range overflows before the threshold test rejects it.
    """
    n12, n21, D = transfer_coefficients(v)
    if isinstance(D, complex):
        thresholds = pole_thresholds(v)
        if not thresholds < math.inf:
            raise _out_of_range(v)
        abs_d = abs(D)
        if abs_d < thresholds:
            return math.nan, math.nan, True
        pref = math.sqrt(abs(v["kappa1"] * v["kappa2"]))
        return pref * abs(n12) / abs_d, pref * abs(n21) / abs_d, False
    t12, t21, singular = out
    abs_d = np.abs(D)
    pref = np.sqrt(np.abs(v["kappa1"] * v["kappa2"]))
    # pref |N| / |D|, in place
    for t, n in ((t12, n12), (t21, n21)):
        np.abs(n, out=t)
        t *= pref
        t /= abs_d
    # no point is a pole when the smallest |D| clears a finite bound; a
    # NaN |D| or an infinite bound fails this test and leaves the block
    # to the exact per-point tests below
    if abs_d.size:
        bound = _threshold_bound(v)
        if bound < math.inf and abs_d.min() >= bound:
            singular.fill(False)
            return out
    thresholds = pole_thresholds(v)
    if not np.all(thresholds < math.inf):
        raise _out_of_range(v)
    np.less(abs_d, thresholds, out=singular)
    t12[singular] = t21[singular] = np.nan
    return out


def transmission_arrays(v: Mapping[str, object], *,
                        with_isolation_db: bool = False
                        ) -> tuple[np.ndarray, ...]:
    """The kernel over parameter and detuning arrays, in blocks of rows.

    ``v`` maps each ModelParams field name, and ``"y"``, to a scalar or an
    array; at least one value is an array of one or more dimensions, and
    the arrays broadcast together. A 2-D grid is best passed as a row
    ``(1, n1)`` and a column ``(n2, 1)``, so that whatever depends on one
    axis alone is computed once per value. At a scalar y the closed form
    is evaluated loop term by loop term (`response.transfer_coefficients`),
    so a theta x phi map pays only the theta - phi loop per point: about
    9 complex operations, against about 19 with the loop terms folded
    into the coefficients of y. Values are not validated.

    The broadcast shape is cut along its first axis into blocks of
    ``max(1, _CHUNK // points per row)`` whole rows, whatever the thread
    count, so a row longer than _CHUNK is one block. Each block is
    written into its slices of the outputs, in place. With
    ``with_isolation_db``, each block's `isolation_db` is taken in the
    same task as its transmissions.

    Returns
    -------
    (T12, T21, singular) : three arrays in the broadcast shape
        Transmission amplitudes, NaN at poles, and the pole mask; with
        ``with_isolation_db``, a fourth array holds the isolation in dB.
    """
    shape = np.broadcast_shapes(*(np.shape(x) for x in v.values()
                                  if isinstance(x, np.ndarray)))
    out = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool))
    if with_isolation_db:
        out += (np.empty(shape),)

    def run(s: slice) -> None:
        # only arrays that span the first axis are cut; the others
        # broadcast along it
        sub = {k: x[s] if isinstance(x, np.ndarray) and x.ndim == len(shape)
               and x.shape[0] > 1 else x for k, x in v.items()}
        block = tuple(o[s] for o in out)
        # the kernel's array branch relies on these warnings being off
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            _kernel(sub, out=block[:3])
        if with_isolation_db:
            _isolation_db_into(block[0], block[1], block[3])

    rows = max(1, _CHUNK // max(1, math.prod(shape[1:])))
    chunks = [slice(i, i + rows) for i in range(0, shape[0], rows)]
    workers = min(thread_count(), len(chunks))
    if workers <= 1:
        for s in chunks:
            run(s)
    else:
        # imported here, so that a process that never starts a pool does
        # not pay for concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, chunks))
    return out


def _require_open_ports(p: ModelParams) -> None:
    """Require both ports open (kappa1, kappa2 > 0)."""
    if p.kappa1 <= 0.0 or p.kappa2 <= 0.0:
        raise InvalidParams(
            "transmission needs strictly positive cavity decay rates "
            f"(got kappa1={p.kappa1}, kappa2={p.kappa2})")


def transmission_pair(p: ModelParams, y: float) -> TransmissionPoint:
    """Transmission amplitudes T12 (port 1 to 2) and T21 (port 2 to 1) at ``y``.

    Raises
    ------
    SingularMatrix
        At a response pole.
    """
    _require_open_ports(p)
    # numpy-scalar arithmetic would warn of an overflow that floats leave
    # to the range test
    y = float(y)
    t12, t21, singular = _kernel(dict(vars(p), y=y))
    if singular:
        raise SingularMatrix(f"response matrix is singular at y={y}")
    return TransmissionPoint(y=y, T12=t12, T21=t21)


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
    0, NaN where either is NaN (a pole). Two Python floats give a Python
    float, the value the array rule gives at that pair; anything else
    gives an array.
    """
    # exactly float: np.float64 scalars warn where a division overflows
    if type(t12) is float and type(t21) is float:
        hi, lo = (t12, t21) if t12 > t21 else (t21, t12)
        if abs(t12 - t21) <= 1e-9 * max(hi, 1e-30):
            return 0.0
        # np.log10 as for arrays: math.log10 differs in the last bit
        if lo > 0.0:
            db = np.log10(hi / lo)  # of a ratio >= 1, inf or NaN: no warning
        else:
            # a zero, negative or NaN side: IEEE division, as for arrays
            with np.errstate(all="ignore"):
                db = np.log10(np.float64(hi) / lo)
        return min(20.0 * float(db), ISOLATION_DB_CAP)
    out = np.empty(np.broadcast_shapes(np.shape(t12), np.shape(t21)))
    _isolation_db_into(t12, t21, out)
    return out


def _isolation_db_into(t12, t21, out: np.ndarray) -> None:
    """The array rule of `isolation_db`, written into ``out`` in place.

    ``out`` is a float array in the broadcast shape of ``t12`` and
    ``t21``, and shares no memory with either. The rule is
    0 where |T12 - T21| <= 1e-9 max(T12, T21, 1e-30), else
    min(20 log10(max(T12, T21) / min(T12, T21)), ISOLATION_DB_CAP).
    """
    scratch = np.empty_like(out)
    with np.errstate(all="ignore"):
        # the reciprocal points first, with the 1e-9 relative threshold
        # in out and |T12 - T21| in scratch
        np.maximum(t12, t21, out=out)
        np.maximum(out, 1e-30, out=out)
        out *= 1e-9
        np.subtract(t12, t21, out=scratch)
        np.abs(scratch, out=scratch)
        reciprocal = scratch <= out
        # then the capped dB of max / min
        np.maximum(t12, t21, out=scratch)
        np.minimum(t12, t21, out=out)
        np.divide(scratch, out, out=out)
        np.log10(out, out=out)
        out *= 20.0
        np.minimum(out, ISOLATION_DB_CAP, out=out)
    np.copyto(out, 0.0, where=reciprocal)


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
    "Direction", "ISOLATION_DB_CAP", "IsolationMetrics",
    "isolation_db", "isolation_metrics", "thread_count",
    "transmission_arrays", "transmission_grid", "transmission_pair",
]
