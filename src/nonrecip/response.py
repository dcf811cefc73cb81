"""Linearized probe response of the coupled cavity/mechanics/ensemble system.

The positive-frequency fluctuation amplitudes X = (da1, da2, dd, db) at probe
detuning y obey the 4x4 complex linear system A1(y) X = B with drive vector
B = (Ep1, Ep2, 0, 0). This module builds A1 and solves the system by LU
with partial pivoting, and it holds the one closed form of the response:
the numerators N12 and N21 of the two inter-cavity elements of A1^-1 and
their denominator, det A1 = D.

The closed form is the production path for transmission: the kernel in
`nonrecip.transmission` reads T12 and T21 and the pole flags from
`transfer_coefficients` at every point, over scalars or arrays, and
calls no LU. Each of N12, N21 and D is a phase-free polynomial in y plus
one term per coupling loop: e^{+-i theta} and e^{+-i(theta - phi)} in
the numerators, cos(theta), cos(phi) and cos(theta - phi) in D.
`_loop_terms` is the one place that writes their coefficients, which
hold only the parameters, and `transfer_coefficients` evaluates them in
one of two orders, chosen by the kind of y alone. When y is an array,
`transfer_polynomials` folds the loop terms into the coefficients of y
and Horner's rule evaluates those, so an array of detunings costs a few
operations per point. When y is a scalar, as at a single point or on a
theta x phi map, `_loop_order` evaluates the phase-free parts at y
first, joins each single-phase loop to them once per theta or phi value,
and pays only the theta - phi loop per point: about 9 complex operations
per map point, against about 19 in the folded order. The two orders
round differently, by a few ulp. LU is the independent reference the
closed form is compared against: the scalar solve
(`build_system_matrix`, `solve_response`) in the tests, and
`np.linalg.det` and `np.linalg.inv` on stacks of `system_matrices` in
`verify`.


A1 is written out once, in `system_matrices`, for scalars and arrays
alike. There is one pole rule: |det A1| below `pole_thresholds`, a
relative cutoff computed from the parameters. `solve_response` applies
it to the LU determinant and the kernel to the closed-form D, and both
reject a point whose cutoff is not finite (|y| or a rate above about
1e77) with InvalidParams: the model does not evaluate it.

Only the +y (e^{-i y t}) sideband is represented; the -y component vanishes
identically under the rotating-wave approximation used throughout.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .params import InvalidParams, ModelParams, _SCALED_FIELDS

# scale-invariant pole detection: |det| below this times the product of row
# norms is treated as singular
SINGULARITY_RTOL = 1e-12

_TINY = np.finfo(float).tiny


def _expi(x):
    """e^{i x} of a float or an array of floats."""
    return np.exp(1j * x) if isinstance(x, np.ndarray) else cmath.exp(1j * x)


class SingularMatrix(ArithmeticError):
    """The response matrix is singular at the requested detuning (a pole)."""


@dataclass(frozen=True)
class ResponseSolution:
    """Fluctuation amplitudes at one probe detuning, from the LU solve."""

    da1: complex
    da2: complex
    dd: complex
    db: complex
    y: float


def system_matrices(v: Mapping[str, object]) -> np.ndarray:
    """A1 at every point of broadcast parameter and detuning values.

    ``v`` maps each ModelParams field name, and ``"y"``, to a scalar or an
    array; arrays broadcast together and the result has their shape plus
    (4, 4), row order (da1, da2, dd, db). All scalars give one 4x4 matrix.
    The diagonal carries (kappa1 - iy, kappa2 - iy, f - iy, gamma - iy);
    couplings enter as i J1, i J2 e^{+-i phi}, i G1, i G2 e^{+-i theta},
    and i J3. The (2,3) and (3,2) entries are exactly zero: the ensemble
    couples to cavity 1 only.
    """
    y = v["y"]
    eth = _expi(v["theta"])
    eph = _expi(v["phi"])
    G2, J2, J3 = v["G2"], v["J2"], v["J3"]
    rows = (
        (v["kappa1"] - 1j * y, 1j * v["J1"], 1j * J2 * eph, 1j * v["G1"]),
        (1j * v["J1"], v["kappa2"] - 1j * y, 0.0, 1j * G2 * eth),
        (1j * J2 / eph, 0.0, v["f"] - 1j * y, 1j * J3),
        (1j * v["G1"], 1j * G2 / eth, 1j * J3, v["gamma"] - 1j * y),
    )
    shape = np.broadcast_shapes(*(np.shape(e) for row in rows for e in row))
    m = np.empty(shape + (4, 4), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            m[..., i, j] = entry
    return m


def build_system_matrix(p: ModelParams, y: float) -> np.ndarray:
    """The 4x4 system matrix A1 of ``p`` at detuning ``y``.

    ``y`` is the probe detuning from the mechanical frequency, in
    ``p.unit`` rates; the entries are those of :func:`system_matrices`.
    """
    return system_matrices(dict(vars(p), y=float(y)))


def pole_thresholds(v: Mapping[str, object]):
    """The pole cutoff: SINGULARITY_RTOL times the product of A1's row norms.

    The row norms are written out from the values in ``v`` (a mapping as in
    :func:`system_matrices`), so no matrix is built; they do not depend on
    theta or phi. The cutoff is floored at the smallest positive normal
    float, so that a matrix with an all-zero row (product 0, determinant
    exactly 0) is still flagged by a strict comparison. Scalars give a
    float, arrays an array. Squares are products, so a float overflows to
    inf as an array does; an infinite cutoff (|y| or a rate above about
    1e77 at unit rates) marks a point the model cannot evaluate.
    """
    y, J1, G1, G2 = v["y"], v["J1"], v["G1"], v["G2"]
    J2, J3 = abs(v["J2"]), abs(v["J3"])
    k1, k2, f, g = v["kappa1"], v["kappa2"], v["f"], v["gamma"]
    y2 = y * y
    J1s, G1s, G2s, J2s, J3s = J1 * J1, G1 * G1, G2 * G2, J2 * J2, J3 * J3
    # y last: the detuning is the usual array, the couplings scalars
    r0 = (k1 * k1 + J1s + J2s + G1s) + y2
    r1 = (J1s + k2 * k2 + G2s) + y2
    r2 = (J2s + f * f + J3s) + y2
    r3 = (G1s + G2s + J3s + g * g) + y2
    a, b = r0 * r1, r2 * r3
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(SINGULARITY_RTOL * np.sqrt(a) * np.sqrt(b), _TINY)
    return max(SINGULARITY_RTOL * math.sqrt(a) * math.sqrt(b), _TINY)


def _out_of_range(v: Mapping[str, object]) -> InvalidParams:
    """The error for the points of ``v`` whose pole threshold is not finite.

    It names the largest |y| and the parameter of largest magnitude, since
    either can be the cause; only this error path looks for them.
    """
    y = v["y"]
    at = (f"|y| up to {float(np.abs(y).max())}" if isinstance(y, np.ndarray)
          else f"y={y}")
    peak = {k: float(np.abs(v[k]).max()) for k in _SCALED_FIELDS}
    name = max(peak, key=peak.get)
    return InvalidParams(
        f"cannot evaluate the response at {at}: the pole threshold is not "
        f"finite (the largest parameter is |{name}| = {peak[name]}; |y| and "
        "every rate must stay below about 1e77)")


def solve_response(p: ModelParams, y: float, Ep1: float, Ep2: float) -> ResponseSolution:
    """Solve A1 X = B for the fluctuation amplitudes at one detuning.

    This LU solve is the independent reference for the closed form, which
    the transmission kernel uses in production.

    Raises
    ------
    InvalidParams
        If the pole threshold is not finite (see :func:`_out_of_range`).
    SingularMatrix
        If |det A1| falls below :func:`pole_thresholds`.
    """
    y = float(y)
    v = dict(vars(p), y=y)
    threshold = pole_thresholds(v)
    if not threshold < math.inf:
        raise _out_of_range(v)
    m = system_matrices(v)
    det = np.linalg.det(m)
    if abs(det) < threshold:
        raise SingularMatrix(
            f"response matrix is singular at y={y} (|det|={abs(det):.3e})")
    b = np.array([Ep1, Ep2, 0.0, 0.0], dtype=complex)
    x = np.linalg.solve(m, b)
    return ResponseSolution(da1=complex(x[0]), da2=complex(x[1]),
                            dd=complex(x[2]), db=complex(x[3]), y=y)


def _sum(a, b):
    """a + b, written into ``a`` when it is an array of the sum's shape.

    ``a`` must be a temporary of the caller.
    """
    if isinstance(a, np.ndarray) and a.shape == np.broadcast_shapes(
            a.shape, np.shape(b)):
        a += b
        return a
    return a + b


def _loop_terms(v: Mapping[str, object]):
    """The coefficients of N12, N21 and D, coupling loop by coupling loop.

    Each of N12, N21 and D is a phase-free polynomial in y plus one term
    per coupling loop. This is the one place that writes their
    coefficients; `transfer_polynomials` folds the loop terms into the
    powers of y, `_loop_order` evaluates each loop at y. The 15 values
    returned, one flat tuple, are

        J1, J1 (gamma + f), const1        N's phase-free part,
        G1 G2, G1 G2 f                    N's theta loop,
        G2 J2 J3                          N's theta - phi loop,
        c3, c2, c1, c0                    D's phase-free part,
        2 J2 J3 G1, 2i J2 J3 kappa2 G1    D's phi loop, times -cos(phi),
        2 J1 G1 G2, 2i J1 G1 G2 f         D's theta loop, times -cos(theta),
        2 J1 J2 J3 G2                     D's theta - phi loop, times
                                          -cos(theta - phi),

    so that N12 = i (J1 y^2 + const1) - J1 (gamma + f) y
    + G1 G2 (i y - f) e^{i theta} + i G2 J2 J3 e^{i(theta - phi)}, N21 the
    same at the conjugate phase factors, and
    D = y^4 + c3 y^3 + c2 y^2 + c1 y + c0 - (2 J2 J3 G1 y
    + 2i J2 J3 kappa2 G1) cos(phi) - (2 J1 G1 G2 y + 2i J1 G1 G2 f)
    cos(theta) - 2 J1 J2 J3 G2 cos(theta - phi): the compact D1..D9
    expansion, with the J1 factor in the theta loop's y term (see the
    README).
    """
    k1, k2, g, f = v["kappa1"], v["kappa2"], v["gamma"], v["f"]
    G1, G2, J1 = v["G1"], v["G2"], v["J1"]
    J2, J3 = v["J2"], v["J3"]
    G1G2 = G1 * G2
    G1s, G2s, J1s, J2s, J3s = G1 * G1, G2 * G2, J1 * J1, J2 * J2, J3 * J3
    gf, k1k2 = g * f, k1 * k2
    c3 = 1j * (k1 + k2 + g + f)
    c2 = (-(G1s + G2s + J1s + J2s + J3s)
          - (gf + g * k2 + f * k1 + k1k2 + f * k2 + g * k1))
    c1 = -1j * (G2s * (k1 + f) + G1s * (f + k2) + J2s * (g + k2)
                + J1s * (g + f) + J3s * (k1 + k2) + k1k2 * (f + g)
                + gf * (k1 + k2))
    c0 = (G2s * (J2s + f * k1) + G1s * f * k2 + J2s * g * k2
          + J1s * (J3s + gf) + J3s * k1k2 + k1k2 * gf)
    return (J1, J1 * (g + f), -J1 * J3s - J1 * gf, G1G2, G1G2 * f,
            G2 * J2 * J3, c3, c2, c1, c0,
            2 * J2 * J3 * G1, 2j * J2 * J3 * k2 * G1,
            2 * J1 * G1G2, 2j * J1 * G1G2 * f, 2 * J1 * J2 * J3 * G2)


def transfer_polynomials(v: Mapping[str, object]):
    """The coefficients of N12, N21 and D as polynomials in the detuning y.

    ``v`` maps each ModelParams field name to a scalar or an array, as in
    :func:`system_matrices`; a ``"y"`` entry is not read. The coefficients
    hold only the parameters, broadcast as those arrays do, and are Python
    numbers when every value is a scalar. The three tuples returned are

        (n2, n1, n0) of N12, (n2, n1, n0) of N21, (c3, c2, c1, c0) of D,

    the plain coefficients of the quadratics N = (n2 y + n1) y + n0, with
    n2 = i J1 in both, and of the monic quartic
    D = (((y + c3) y + c2) y + c1) y + c0, which is det(M - i y) with
    M = A1(0): the characteristic polynomial of M in lambda = i y. Each
    coefficient is a phase-free part of :func:`_loop_terms` plus its loop
    terms at the phases. For N12
    n1 = i G1 G2 e^{i theta} - J1 (gamma + f) and
    n0 = i (G2 J2 J3 e^{i(theta - phi)} - J1 J3^2 - J1 gamma f)
    - G1 G2 f e^{i theta}, and the same expression gives N21's at the
    conjugate phase factors; c1 and c0 take cos(theta) and cos(phi), c0
    also cos(theta - phi).
    """
    (J1, J1gf, const1, G1G2, G1G2f, G2J2J3, c3, c2, c1, c0,
     ph1, ph0, th1, th0, thph) = _loop_terms(v)
    eth = _expi(v["theta"])
    eph = _expi(v["phi"])
    # e^{i(theta - phi)}; its real part is cos(theta - phi)
    eth_ph = eth * eph.conjugate()
    cos_th, cos_ph = eth.real, eph.real
    n2 = 1j * J1
    n12, n21 = ((n2, 1j * G1G2 * e - J1gf,
                 1j * (const1 + G2J2J3 * e_ph) - G1G2f * e)
                for e, e_ph in ((eth, eth_ph),
                                (eth.conjugate(), eth_ph.conjugate())))
    # the phase terms go last, so that the scalar parts are summed first
    # and a term of one phase axis widens to the full grid only once
    c1 = c1 - ph1 * cos_ph - th1 * cos_th
    c0 = c0 - ph0 * cos_ph - th0 * cos_th - thph * eth_ph.real
    return n12, n21, (c3, c2, c1, c0)


def _loop_order(v: Mapping[str, object]):
    """N12, N21 and D at a scalar y, loop term by loop term.

    ``v`` is the mapping of :func:`transfer_coefficients`. The phase-free
    parts of :func:`_loop_terms` are evaluated at y first, each
    single-phase loop then joins them once per theta or phi value (a row
    or a column of a map), and only the theta - phi loop is paid per
    point: about 9 complex operations per point of a theta x phi map.
    """
    (J1, J1gf, const1, G1G2, G1G2f, G2J2J3, c3, c2, c1, c0,
     ph1, ph0, th1, th0, thph) = _loop_terms(v)
    y = v["y"]
    eth = _expi(v["theta"])
    eph = _expi(v["phi"])
    p = 1j * (J1 * y * y + const1) - J1gf * y
    s1 = 1j * (G1G2 * y) - G1G2f
    n12 = p + s1 * eth
    n21 = p + s1 * eth.conjugate()
    D = ((((((y + c3) * y + c2) * y + c1) * y + c0)
          - (ph1 * y + ph0) * eph.real) - (th1 * y + th0) * eth.real)
    # the theta - phi loop, per point. D holds every parameter and both
    # phases, so when any value is an array it already has the full shape
    # and takes the loop in place; each numerator is summed into its own
    # loop product
    eth_ph = eth * eph.conjugate()
    D -= thph * eth_ph.real
    s2 = 1j * G2J2J3
    return _sum(s2 * eth_ph, n12), _sum(s2 * eth_ph.conjugate(), n21), D


def transfer_coefficients(v: Mapping[str, object]):
    """The numerators N12, N21 and the determinant D of the transfer.

    ``v`` maps each ModelParams field name, and ``"y"``, to a scalar or an
    array, as in :func:`system_matrices`; the three results broadcast the
    same way and are Python complex numbers when every value is a scalar.
    They give the inter-cavity elements of the inverse,
    [A1^-1]_(2,1) = N12 / D and [A1^-1]_(1,2) = N21 / D. The kind of y
    alone sets the order of evaluation: an array y takes Horner's rule on
    :func:`transfer_polynomials`, a scalar y :func:`_loop_order`. The two
    orders round differently, by a few ulp. At an array y each result is
    allocated once, in the broadcast shape of y and its own coefficients,
    and Horner's rule runs in place in it, on y cast to complex once.
    """
    y = v["y"]
    if not isinstance(y, np.ndarray):
        return _loop_order(v)
    n12, n21, d = transfer_polynomials(v)
    # every step with y is complex and would cast a float y to complex
    # again; cast it once, to the same values
    y = y.astype(complex)
    shape = np.broadcast_shapes(y.shape, *map(np.shape, n12 + n21))
    N12, N21 = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    D = np.empty(np.broadcast_shapes(y.shape, *map(np.shape, d)),
                 dtype=complex)
    # n2 y is shared: both numerators have n2 = i J1
    np.multiply(n12[0], y, out=N12)
    np.add(N12, n21[1], out=N21)
    N12 += n12[1]
    for N, (_, _, n0) in ((N12, n12), (N21, n21)):
        N *= y
        N += n0
    np.add(y, d[0], out=D)
    for c in d[1:]:
        D *= y
        D += c
    return N12, N21, D


__all__ = [
    "ResponseSolution", "SINGULARITY_RTOL", "SingularMatrix",
    "build_system_matrix", "pole_thresholds", "solve_response",
    "system_matrices", "transfer_coefficients", "transfer_polynomials",
]
