"""Nonlinear steady state of the driven two-cavity/ensemble/mechanics system.

The mean amplitudes (alpha1, alpha2, rho, beta) satisfy four coupled
complex equations in which the cavity detunings are shifted by the
mechanical displacement, Delta_j_eff = Delta_j + 2 g_j Re(beta), making the
system nonlinear through |alpha_j|^2 and Re(beta). A damped Newton
iteration on the four complex amplitudes solves it. Its step is found by
block elimination in Python complex arithmetic, since the cavity and
ensemble rows of the Jacobian are complex-linear once Re(delta beta) is
fixed (`_step`); the real 8x8 Jacobian `_jacobian` is kept as the
reference. The zero state is the exact weak-drive limit and serves as the
initial guess, with a drive-ramp homotopy as the automatic retry. Under
strong drive the system can be multistable; the returned branch is the one
continuously connected to zero drive.

`effective_couplings` and `linearized_params` convert a converged state
into the parameter set consumed by the linear response machinery.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .params import (
    BareParams,
    Drives,
    InvalidParams,
    ModelParams,
    RateUnit,
    SteadyState,
    wrap_phase,
)


@dataclass(frozen=True)
class SolverConfig:
    """Newton solver knobs; defaults leave machine-precision headroom."""

    tol: float = 1e-12
    max_iter: int = 200
    damping: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be a positive finite number")
        # bool subclasses int, but True is no iteration budget
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, numbers.Integral)):
            raise ValueError("max_iter must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")


# frozen, so one instance serves every call that passes no config
_DEFAULT_CONFIG = SolverConfig()


class NonConvergence(RuntimeError):
    """Iteration budget exhausted; ``best_residual`` is the closest approach."""

    def __init__(self, message: str, best_residual: float) -> None:
        self.best_residual = best_residual
        super().__init__(f"{message} (best residual {best_residual:.3e})")


class SingularJacobian(ArithmeticError):
    """The Newton step is unsolvable; the operating point is degenerate."""


class ZeroAmplitude(ValueError):
    """The phase reference g1*alpha1 vanishes, leaving theta undefined."""


class ResonanceMisaligned(InvalidParams):
    """The steady state violates the aligned-resonance condition."""


def _pack(a1: complex, a2: complex, rho: complex, beta: complex) -> np.ndarray:
    return np.array([a1.real, a1.imag, a2.real, a2.imag,
                     rho.real, rho.imag, beta.real, beta.imag])


def _unpack(x: np.ndarray) -> tuple[complex, complex, complex, complex]:
    r1, i1, r2, i2, r3, i3, r4, i4 = x.tolist()
    return complex(r1, i1), complex(r2, i2), complex(r3, i3), complex(r4, i4)


Amplitudes = tuple[complex, complex, complex, complex]


def _residual(p: BareParams, d: Drives, a1: complex, a2: complex,
              rho: complex, beta: complex) -> Amplitudes:
    D1 = p.Delta1 + 2.0 * p.g1 * beta.real
    D2 = p.Delta2 + 2.0 * p.g2 * beta.real
    r1 = (1j * D1 + p.kappa1) * a1 + 1j * p.J1 * a2 + 1j * p.J2 * rho - d.E1
    r2 = (1j * D2 + p.kappa2) * a2 + 1j * p.J1 * a1 - d.E2
    r3 = ((1j * p.Delta_en + p.f) * rho + 1j * p.J2.conjugate() * a1
          + 2j * p.J3 * beta.real)
    r4 = ((1j * p.omega_m + p.gamma) * beta
          + 1j * p.g1 * (a1.real ** 2 + a1.imag ** 2)
          + 1j * p.g2 * (a2.real ** 2 + a2.imag ** 2)
          + 2j * p.J3 * rho.real)
    return r1, r2, r3, r4


def _residual_vec(p: BareParams, d: Drives, x: np.ndarray) -> np.ndarray:
    return _pack(*_residual(p, d, *_unpack(x)))


def steady_residual(p: BareParams, d: Drives, s: SteadyState) -> np.ndarray:
    """Eight real residual components of the mean-field equations at ``s``.

    The effective detunings are recomputed from the candidate beta, so any
    (possibly unconverged) state can be scored.
    """
    return _residual_vec(p, d, _pack(s.alpha1, s.alpha2, s.rho, s.beta))


def _jacobian(p: BareParams, x: np.ndarray) -> np.ndarray:
    """Real 8x8 Jacobian of ``_residual_vec``; the reference for ``_step``."""
    a1, a2, _, beta = _unpack(x)
    c1 = 1j * (p.Delta1 + 2.0 * p.g1 * beta.real) + p.kappa1
    c2 = 1j * (p.Delta2 + 2.0 * p.g2 * beta.real) + p.kappa2
    ce = 1j * p.Delta_en + p.f
    cm = 1j * p.omega_m + p.gamma
    j2c = p.J2.conjugate()
    jc = np.zeros((4, 8), dtype=complex)
    jc[0, 0] = c1
    jc[0, 1] = 1j * c1
    jc[0, 2] = 1j * p.J1
    jc[0, 3] = -p.J1
    jc[0, 4] = 1j * p.J2
    jc[0, 5] = -p.J2
    jc[0, 6] = 2j * p.g1 * a1  # detuning shift feeds back through Re(beta)
    jc[1, 0] = 1j * p.J1
    jc[1, 1] = -p.J1
    jc[1, 2] = c2
    jc[1, 3] = 1j * c2
    jc[1, 6] = 2j * p.g2 * a2
    jc[2, 0] = 1j * j2c
    jc[2, 1] = -j2c
    jc[2, 4] = ce
    jc[2, 5] = 1j * ce
    jc[2, 6] = 2j * p.J3
    jc[3, 0] = 2j * p.g1 * a1.real
    jc[3, 1] = 2j * p.g1 * a1.imag
    jc[3, 2] = 2j * p.g2 * a2.real
    jc[3, 3] = 2j * p.g2 * a2.imag
    jc[3, 4] = 2j * p.J3
    jc[3, 6] = cm
    jc[3, 7] = 1j * cm
    out = np.empty((8, 8))
    out[0::2] = jc.real
    out[1::2] = jc.imag
    return out


def _step(p: BareParams, u: Amplitudes, f: Amplitudes) -> Amplitudes:
    """Newton step J^-1 f at ``u`` by block elimination.

    With b = Re(delta beta) held fixed, the cavity and ensemble rows are
    complex-linear in du = (d alpha1, d alpha2, d rho): M du + b h = f[:3]
    with h = 2i (g1 alpha1, g2 alpha2, J3). M is solved by its adjugate,
    once for f[:3] and once for h, giving du = (p1, p2, p3) - b (q1, q2,
    q3); the mechanical row then gives delta beta = a + b g, and
    b = Re a / (1 - Re g). Since omega_m > 0, cm != 0 and J is singular
    exactly when det M = 0 or Re g = 1.
    """
    a1, a2, _, beta = u
    f1, f2, f3, f4 = f
    J1, J2, J3 = p.J1, p.J2, p.J3
    J2c = J2.conjugate()
    j1sq = J1 * J1
    j2sq = J2.real * J2.real + J2.imag * J2.imag
    c1 = 1j * (p.Delta1 + 2.0 * p.g1 * beta.real) + p.kappa1
    c2 = 1j * (p.Delta2 + 2.0 * p.g2 * beta.real) + p.kappa2
    ce = 1j * p.Delta_en + p.f
    cm = 1j * p.omega_m + p.gamma
    # adjugate of M = [[c1, iJ1, iJ2], [iJ1, c2, 0], [iJ2*, 0, ce]]
    m00 = c2 * ce
    m01 = -1j * J1 * ce
    m02 = -1j * J2 * c2
    m11 = c1 * ce + j2sq
    m12 = -J1 * J2
    m20 = -1j * J2c * c2
    m21 = -J1 * J2c
    m22 = c1 * c2 + j1sq
    det = c1 * m00 + j1sq * ce + j2sq * c2
    if det == 0:
        raise SingularJacobian("Newton step unsolvable: det M = 0")
    h1 = 2j * p.g1 * a1
    h2 = 2j * p.g2 * a2
    h3 = 2j * J3
    p1 = (m00 * f1 + m01 * f2 + m02 * f3) / det
    p2 = (m01 * f1 + m11 * f2 + m12 * f3) / det
    p3 = (m20 * f1 + m21 * f2 + m22 * f3) / det
    q1 = (m00 * h1 + m01 * h2 + m02 * h3) / det
    q2 = (m01 * h1 + m11 * h2 + m12 * h3) / det
    q3 = (m20 * h1 + m21 * h2 + m22 * h3) / det
    # mechanical row: cm d beta + L(du) = f4 with L real-linear in du
    g1, g2 = 2.0 * p.g1, 2.0 * p.g2
    lp = 1j * (g1 * (a1.real * p1.real + a1.imag * p1.imag)
               + g2 * (a2.real * p2.real + a2.imag * p2.imag)) + 2j * J3 * p3.real
    lq = 1j * (g1 * (a1.real * q1.real + a1.imag * q1.imag)
               + g2 * (a2.real * q2.real + a2.imag * q2.imag)) + 2j * J3 * q3.real
    a = (f4 - lp) / cm
    g = lq / cm
    den = 1.0 - g.real
    if den == 0.0:
        raise SingularJacobian("Newton step unsolvable: 1 - Re g = 0")
    b = a.real / den
    step = (p1 - b * q1, p2 - b * q2, p3 - b * q3, a + b * g)
    if not all(map(cmath.isfinite, step)):
        raise SingularJacobian("Newton step is not finite")
    return step


def _search_norm(r: Amplitudes) -> float:
    """Euclidean norm of the eight real residual components, in Python floats."""
    r1, r2, r3, r4 = r
    return math.sqrt(r1.real * r1.real + r1.imag * r1.imag
                     + r2.real * r2.real + r2.imag * r2.imag
                     + r3.real * r3.real + r3.imag * r3.imag
                     + r4.real * r4.real + r4.imag * r4.imag)


def _newton(p: BareParams, d: Drives, cfg: SolverConfig,
            u: Amplitudes) -> tuple[Amplitudes, float, int]:
    fu = _residual(p, d, *u)
    n = _search_norm(fu)
    best = n
    for it in range(cfg.max_iter + 1):
        # the line search compares Python-float norms; convergence is decided
        # on np.linalg.norm of the packed residual, which is the norm of
        # steady_residual at the returned state, the norm callers test
        if n < cfg.tol:
            exact = float(np.linalg.norm(_pack(*fu)))
            if exact < cfg.tol:
                return u, exact, it
        if it == cfg.max_iter:
            break
        s1, s2, s3, s4 = _step(p, u, fu)
        a1, a2, rho, beta = u
        lam = cfg.damping
        for _ in range(60):
            un = (a1 - lam * s1, a2 - lam * s2, rho - lam * s3, beta - lam * s4)
            fn = _residual(p, d, *un)
            nn = _search_norm(fn)
            if nn < n or nn < cfg.tol:
                break
            lam *= 0.5
        else:
            raise NonConvergence("line search stalled", best)
        u, fu, n = un, fn, nn
        best = min(best, n)
    raise NonConvergence("iteration budget exhausted", best)


def _state(p: BareParams, u: Amplitudes, n: float, its: int) -> SteadyState:
    a1, a2, rho, beta = u
    return SteadyState(
        alpha1=a1, alpha2=a2, rho=rho, beta=beta,
        Delta1_eff=p.Delta1 + 2.0 * p.g1 * beta.real,
        Delta2_eff=p.Delta2 + 2.0 * p.g2 * beta.real,
        residual_norm=n, iterations=its,
    )


def solve_steady_state(p: BareParams, d: Drives,
                       cfg: SolverConfig | None = None,
                       initial: SteadyState | None = None) -> SteadyState:
    """Solve the mean-field equations for the branch connected to zero drive.

    Newton iteration from the zero state (or from ``initial`` when a nearby
    converged state is available); on non-convergence the drives are ramped
    from zero in 10 homotopy steps, re-seeding each solve with the previous
    step's state.

    Raises
    ------
    NonConvergence
        Both the direct solve and the homotopy retry ran out of budget.
    SingularJacobian
        A Newton step, direct or within the ramp, was singular or not
        finite.
    """
    if cfg is None:
        cfg = _DEFAULT_CONFIG
    zero = (0j, 0j, 0j, 0j)
    u0 = zero if initial is None else (
        complex(initial.alpha1), complex(initial.alpha2),
        complex(initial.rho), complex(initial.beta))
    try:
        u, n, its = _newton(p, d, cfg, u0)
        return _state(p, u, n, its)
    except NonConvergence as err:
        best = err.best_residual
    u, total = zero, 0
    try:
        for k in range(1, 11):
            s = k / 10.0
            dk = replace(d, E1=d.E1 * s, E2=d.E2 * s)
            u, n, its = _newton(p, dk, cfg, u)
            total += its
    except NonConvergence as err:
        raise NonConvergence("drive-ramp homotopy failed",
                             min(best, err.best_residual)) from err
    return _state(p, u, n, total)


def effective_couplings(p: BareParams, s: SteadyState) -> tuple[float, float, float]:
    """Linearized coupling magnitudes and their relative phase.

    G1 = |g1 alpha1|, G2 = |g2 alpha2|, theta = arg(g2 alpha2) -
    arg(g1 alpha1) wrapped to [0, 2*pi); G1's own phase is gauged to zero.
    When either product vanishes the relative phase is immaterial (it can
    be absorbed into the decoupled mode) and is returned as 0.0.

    Raises
    ------
    ZeroAmplitude
        alpha1 = 0 while g1 and g2*alpha2 are nonzero: the phase reference
        is missing but theta would matter.
    """
    c1 = p.g1 * s.alpha1
    c2 = p.g2 * s.alpha2
    G1, G2 = abs(c1), abs(c2)
    if s.alpha1 == 0 and p.g1 != 0.0 and G2 != 0.0:
        raise ZeroAmplitude("alpha1 = 0 leaves the theta reference undefined")
    if G1 == 0.0 or G2 == 0.0:
        return G1, G2, 0.0
    return G1, G2, wrap_phase(cmath.phase(c2) - cmath.phase(c1))


ALIGNMENT_RTOL = 1e-6


def linearized_params(p: BareParams, s: SteadyState,
                      unit: RateUnit | None = None) -> ModelParams:
    """Linearized model parameters at a converged operating point.

    The linear response template drops the explicit detunings, which is
    exact only at the aligned operating point Delta1_eff = Delta2_eff =
    Delta_en = omega_m; states violating the alignment beyond 1e-6
    relative are rejected with a diagnostic listing each offender.
    """
    ref = p.omega_m
    bad = [
        f"{name} = {value:.12g}"
        for name, value in (("Delta1_eff", s.Delta1_eff),
                            ("Delta2_eff", s.Delta2_eff),
                            ("Delta_en", p.Delta_en))
        if abs(value - ref) > ALIGNMENT_RTOL * abs(ref)
    ]
    if bad:
        raise ResonanceMisaligned(
            "linearization requires Delta1_eff = Delta2_eff = Delta_en = "
            f"omega_m = {ref:.12g}; got " + ", ".join(bad))
    G1, G2, theta = effective_couplings(p, s)
    return ModelParams(
        kappa1=p.kappa1, kappa2=p.kappa2, gamma=p.gamma, f=p.f,
        G1=G1, G2=G2, theta=theta, J1=p.J1,
        J2=abs(p.J2), phi=wrap_phase(cmath.phase(p.J2)) if p.J2 != 0 else 0.0,
        J3=p.J3, unit=unit if unit is not None else RateUnit("absolute", 1.0),
    )


__all__ = [
    "ALIGNMENT_RTOL", "NonConvergence", "ResonanceMisaligned",
    "SingularJacobian", "SolverConfig", "ZeroAmplitude",
    "effective_couplings", "linearized_params", "solve_steady_state",
    "steady_residual",
]
