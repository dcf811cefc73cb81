"""Linearized probe response of the coupled cavity/mechanics/ensemble system.

The positive-frequency fluctuation amplitudes X = (da1, da2, dd, db) at probe
detuning y obey the 4x4 complex linear system A1(y) X = B with drive vector
B = (Ep1, Ep2, 0, 0). This module builds A1 and solves the system by LU
with partial pivoting, and it evaluates the closed-form cofactors and
determinant of A1.

The closed form is the production path for transmission: the kernel in
`nonrecip.transmission` reads T12 and T21 from `transfer_coefficients` at
every point, over scalars or arrays, and falls back to LU on
`system_matrices` only inside a guard band around the poles.
`transfer_coefficients` writes the cofactors and the determinant as
polynomials in y whose coefficients hold only the parameters, and
evaluates them by Horner's rule, so an array of detunings costs a few
operations per point and a phase axis only what depends on it. The LU
solve (`build_system_matrix`, `solve_response`) stays the independent
reference that `verify` and the tests compare the closed form against.

Only the +y (e^{-i y t}) sideband is represented; the -y component vanishes
identically under the rotating-wave approximation used throughout.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .params import ModelParams, ensure_valid

# scale-invariant pole detection: |det| below this times the product of row
# norms is treated as singular
SINGULARITY_RTOL = 1e-12

_TINY = np.finfo(float).tiny


def _expi(x):
    """e^{i x} of a float or an array of floats."""
    return np.exp(1j * x) if isinstance(x, np.ndarray) else cmath.exp(1j * x)


class SingularMatrix(ArithmeticError):
    """The response matrix is singular at the requested detuning (a pole)."""


class SingularDeterminant(ArithmeticError):
    """The closed-form determinant vanishes at the requested detuning."""


@dataclass(frozen=True)
class ResponseMatrix:
    """The 4x4 system matrix at one detuning, row order (da1, da2, dd, db)."""

    entries: np.ndarray
    y: float


@dataclass(frozen=True)
class ResponseSolution:
    """Fluctuation amplitudes at one probe detuning.

    ``dd`` and ``db`` are None when produced by the closed form, which only
    expresses the two cavity components.
    """

    da1: complex
    da2: complex
    dd: complex | None
    db: complex | None
    y: float
    method: str


@dataclass(frozen=True)
class ClosedFormCoefficients:
    """The eight closed-form numerator coefficients and the determinant."""

    tau1: complex
    tau2: complex
    tau3: complex
    tau4: complex
    chi1: complex
    chi2: complex
    chi3: complex
    chi4: complex
    D: complex


def build_system_matrix(p: ModelParams, y: float) -> ResponseMatrix:
    """Fill the system matrix A1 at detuning ``y``.

    Parameters
    ----------
    p : ModelParams
        Validated model parameters.
    y : float
        Probe detuning from the mechanical frequency, in ``p.unit`` rates.

    Returns
    -------
    ResponseMatrix
        Dense complex 4x4 matrix. The diagonal carries (kappa1 - iy,
        kappa2 - iy, f - iy, gamma - iy); couplings enter as i J1,
        i J2 e^{+-i phi}, i G1, i G2 e^{+-i theta}, and i J3. The (2,3)
        and (3,2) entries are exactly zero: the ensemble couples to
        cavity 1 only.
    """
    ensure_valid(p)
    eth = cmath.exp(1j * p.theta)
    eph = cmath.exp(1j * p.phi)
    m = np.array([
        [p.kappa1 - 1j * y, 1j * p.J1, 1j * p.J2 * eph, 1j * p.G1],
        [1j * p.J1, p.kappa2 - 1j * y, 0.0, 1j * p.G2 * eth],
        [1j * p.J2 / eph, 0.0, p.f - 1j * y, 1j * p.J3],
        [1j * p.G1, 1j * p.G2 / eth, 1j * p.J3, p.gamma - 1j * y],
    ], dtype=complex)
    return ResponseMatrix(entries=m, y=float(y))


def system_matrices(v: Mapping[str, object]) -> np.ndarray:
    """A1 at every point of broadcast parameter and detuning values.

    ``v`` maps each ModelParams field name, and ``"y"``, to a scalar or an
    array; arrays broadcast together and the result has their shape plus
    (4, 4). Entries are those of :func:`build_system_matrix`, which stays
    the unbatched reference.
    """
    y = np.asarray(v["y"], dtype=float)
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


def singularity_thresholds(mats: np.ndarray) -> np.ndarray:
    """Per-matrix singularity cutoff: SINGULARITY_RTOL times prod of row norms.

    Floored at the smallest positive normal float so that a matrix with an
    all-zero row (threshold product 0, determinant exactly 0) is still
    flagged instead of slipping through a strict comparison into the solver.
    """
    row_norms = np.linalg.norm(mats, axis=2)
    return np.maximum(SINGULARITY_RTOL * np.prod(row_norms, axis=1), _TINY)


def pole_thresholds(v: Mapping[str, object]):
    """The cutoff of :func:`singularity_thresholds`, from the parameters.

    The row norms of A1 are written out from the values in ``v`` (a mapping
    as in :func:`system_matrices`) instead of being read off built matrices,
    so they agree with ``singularity_thresholds(system_matrices(v))`` up to
    rounding. Scalars give a float, arrays an array.
    """
    y2 = v["y"] ** 2
    J1s, G1s, G2s = v["J1"] ** 2, v["G1"] ** 2, v["G2"] ** 2
    J2s, J3s = abs(v["J2"]) ** 2, abs(v["J3"]) ** 2
    # y last: the detuning is the usual array, the couplings scalars
    r0 = (v["kappa1"] ** 2 + J1s + J2s + G1s) + y2
    r1 = (J1s + v["kappa2"] ** 2 + G2s) + y2
    r2 = (J2s + v["f"] ** 2 + J3s) + y2
    r3 = (G1s + G2s + J3s + v["gamma"] ** 2) + y2
    a, b = r0 * r1, r2 * r3
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(SINGULARITY_RTOL * np.sqrt(a) * np.sqrt(b), _TINY)
    return max(SINGULARITY_RTOL * math.sqrt(a) * math.sqrt(b), _TINY)


def _check_nonsingular(m: np.ndarray, y: float) -> None:
    det = np.linalg.det(m)
    if abs(det) < singularity_thresholds(m[np.newaxis])[0]:
        raise SingularMatrix(f"response matrix is singular at y={y} (|det|={abs(det):.3e})")


def solve_response(p: ModelParams, y: float, Ep1: float, Ep2: float) -> ResponseSolution:
    """Solve A1 X = B for the fluctuation amplitudes at one detuning.

    This LU solve is the independent reference for the closed form, which
    the transmission kernel uses in production.

    Raises
    ------
    SingularMatrix
        If |det A1| falls below the scale-invariant pole threshold.
    """
    m = build_system_matrix(p, y).entries
    _check_nonsingular(m, y)
    b = np.array([Ep1, Ep2, 0.0, 0.0], dtype=complex)
    x = np.linalg.solve(m, b)
    return ResponseSolution(da1=complex(x[0]), da2=complex(x[1]),
                            dd=complex(x[2]), db=complex(x[3]),
                            y=float(y), method="matrix_solve")


def transfer_coefficients(v: Mapping[str, object], as_printed: bool = False):
    """The cofactors tau1, tau2, chi1, chi2 and the determinant D.

    ``v`` maps each ModelParams field name, and ``"y"``, to a scalar or an
    array, as in :func:`system_matrices`; the five results broadcast the
    same way and are Python complex numbers when every value is a scalar.
    They give the inter-cavity elements of the inverse,
    [A1^-1]_(2,1) = (i chi1 - chi2) / D and [A1^-1]_(1,2) = (i tau1 - tau2) / D.

    All five are polynomials in y, evaluated by Horner's rule from
    coefficients that hold only the parameters:

        tau1 = (J1 y + G1 G2 e^{-i theta}) y
               - J1 J3^2 - J1 gamma f + G2 J2 J3 e^{i(phi - theta)},
        tau2 = J1 (gamma + f) y + G1 G2 f e^{-i theta},
        D = (((y + c3) y + c2) y + c1) y + c0,

    and chi1, chi2 the same with the signs of both phases flipped. The
    coefficients c3..c0 are the compact D1..D9 expansion of the
    determinant collected by powers of y. An earlier transcription of that
    expansion omitted the J1 factor in the ``-2 J1 G1 G2 y cos(theta)``
    cross term (in c1); the corrected term (default) restores exact
    agreement with the numeric determinant, and ``as_printed=True`` keeps
    the uncorrected variant for auditability. The two variants coincide at
    y = 0.
    """
    k1, k2, g, f = v["kappa1"], v["kappa2"], v["gamma"], v["f"]
    G1, G2, J1 = v["G1"], v["G2"], v["J1"]
    J2, J3 = v["J2"], v["J3"]
    y = v["y"]
    eth = _expi(v["theta"])
    eph = _expi(v["phi"])
    # e^{i(theta - phi)}; its real part is cos(theta - phi)
    eth_ph = eth * eph.conjugate()
    cos_th, cos_ph = eth.real, eph.real
    G1G2 = G1 * G2
    G1s, G2s, J1s, J2s, J3s = G1 * G1, G2 * G2, J1 * J1, J2 * J2, J3 * J3
    gf, k1k2 = g * f, k1 * k2
    cross = 1.0 if as_printed else J1

    # the phase terms go last, so that the scalar parts are summed first
    # and a term of one phase axis widens to the full grid only once
    J1y, J1gfy = J1 * y, J1 * (g + f) * y
    const1 = -J1 * J3s - J1 * gf
    tau1 = (J1y + G1G2 * eth.conjugate()) * y + (
        const1 + G2 * J2 * J3 * eth_ph.conjugate())
    chi1 = (J1y + G1G2 * eth) * y + (const1 + G2 * J2 * J3 * eth_ph)
    tau2 = J1gfy + G1G2 * f * eth.conjugate()
    chi2 = J1gfy + G1G2 * f * eth

    c3 = 1j * (k1 + k2 + g + f)
    c2 = (-(G1s + G2s + J1s + J2s + J3s)
          - (gf + g * k2 + f * k1 + k1k2 + f * k2 + g * k1))
    c1 = (-1j * (G2s * (k1 + f) + G1s * (f + k2) + J2s * (g + k2)
                 + J1s * (g + f) + J3s * (k1 + k2) + k1k2 * (f + g)
                 + gf * (k1 + k2))
          - 2 * J2 * J3 * G1 * cos_ph - 2 * cross * G1G2 * cos_th)
    c0 = (G2s * (J2s + f * k1) + G1s * f * k2 + J2s * g * k2
          + J1s * (J3s + gf) + J3s * k1k2 + k1k2 * gf
          - 2j * J2 * J3 * k2 * G1 * cos_ph - 2j * J1 * G1G2 * f * cos_th
          - 2 * J1 * J2 * J3 * G2 * eth_ph.real)
    D = (((y + c3) * y + c2) * y + c1) * y + c0
    return tau1, tau2, chi1, chi2, D


def closed_form_coefficients(p: ModelParams, y: float,
                             as_printed: bool = False) -> ClosedFormCoefficients:
    """Evaluate the closed-form numerators tau1..4, chi1..4 and determinant D.

    tau1, tau2, chi1, chi2 and D come from :func:`transfer_coefficients`;
    ``as_printed`` selects its determinant variant.
    """
    ensure_valid(p)
    k1, k2, g, f = p.kappa1, p.kappa2, p.gamma, p.f
    G1, G2 = p.G1, p.G2
    J2, J3 = p.J2, p.J3
    eph = cmath.exp(1j * p.phi)
    tau1, tau2, chi1, chi2, D = transfer_coefficients(dict(vars(p), y=y),
                                                      as_printed)
    tau3 = -G2**2 * y + y**3 - J3**2 * y - g * f * y - g * y * k2 - f * y * k2
    tau4 = G2**2 * f - g * y**2 - f * y**2 - y**2 * k2 + J3**2 * k2 + g * f * k2
    chi3 = (-G1**2 * y + y**3 - J2**2 * y - G1 * J2 * J3 * eph - J3**2 * y
            - g * f * y - J2 * G1 * J3 / eph - g * y * k1 - f * y * k1)
    chi4 = (-g * y**2 - f * y**2 - y**2 * k1 + J3**2 * k1 + g * f * k1
            + J2**2 * g + G1**2 * f)
    return ClosedFormCoefficients(tau1, tau2, tau3, tau4,
                                  chi1, chi2, chi3, chi4, complex(D))


def response_closed_form(p: ModelParams, y: float, Ep1: float, Ep2: float,
                         as_printed: bool = False) -> ResponseSolution:
    """Closed-form cavity amplitudes da1, da2.

    da1 = ((i tau3 + tau4) Ep1 + (i tau1 - tau2) Ep2) / D and
    da2 = ((i chi1 - chi2) Ep1 + (i chi3 + chi4) Ep2) / D. The ensemble and
    mechanical components are not expressed by the closed form and are
    returned as None.
    """
    c = closed_form_coefficients(p, y, as_printed=as_printed)
    if c.D == 0:
        raise SingularDeterminant(f"closed-form determinant vanishes at y={y}")
    da1 = ((1j * c.tau3 + c.tau4) * Ep1 + (1j * c.tau1 - c.tau2) * Ep2) / c.D
    da2 = ((1j * c.chi1 - c.chi2) * Ep1 + (1j * c.chi3 + c.chi4) * Ep2) / c.D
    return ResponseSolution(da1=da1, da2=da2, dd=None, db=None,
                            y=float(y), method="closed_form")


__all__ = [
    "ClosedFormCoefficients", "ResponseMatrix", "ResponseSolution",
    "SINGULARITY_RTOL", "SingularDeterminant", "SingularMatrix",
    "build_system_matrix", "closed_form_coefficients", "pole_thresholds",
    "response_closed_form", "singularity_thresholds", "solve_response",
    "system_matrices", "transfer_coefficients",
]
