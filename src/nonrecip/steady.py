"""Nonlinear steady state of the driven two-cavity/ensemble/mechanics system.

The mean amplitudes (alpha1, alpha2, rho, beta) satisfy four coupled
complex equations in which the cavity detunings are shifted by the
mechanical displacement, Delta_j_eff = Delta_j + 2 g_j Re(beta), making the
system nonlinear through |alpha_j|^2 and Re(beta). A damped Newton
iteration on the four complex amplitudes solves it. Its step is found by
block elimination in Python complex arithmetic, since the cavity and
ensemble rows of the Jacobian are complex-linear once Re(delta beta) is
fixed (`_step`); the real 8x8 Jacobian `_jacobian` is kept as the
reference. The terms that only the parameters fix are computed once per
solve, in one `_Terms` that the residual and the step share. Newton
starts from the zero state, the exact weak-drive limit. Only when that
direct solve does not converge (`NonConvergence`) are the drives ramped
up from zero in 10 steps, each seeded with the previous step's state.
Under strong drive the system can be multistable, and the state returned
is the root that this iteration reaches: usually, but not always, the
branch continuously connected to zero drive (ROADMAP item 4 found it so
at 414 of 418 sampled multistable points).

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
    SteadyState,
    _ABSOLUTE_UNIT,
    wrap_phase,
)


@dataclass(frozen=True)
class SolverConfig:
    """Newton solver knobs; defaults leave machine-precision headroom."""

    tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be a positive finite number")
        # bool subclasses int, but True is no iteration budget
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, numbers.Integral)):
            raise ValueError("max_iter must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


# frozen, so one instance serves every call that passes no config
_DEFAULT_CONFIG = SolverConfig()


class NonConvergence(RuntimeError):
    """Iteration budget exhausted; ``best_residual`` is the closest approach."""

    def __init__(self, message: str, best_residual: float) -> None:
        self.best_residual = best_residual
        super().__init__(f"{message} (best residual {best_residual:.3e})")


class SingularJacobian(ArithmeticError):
    """The Newton step is unsolvable; the operating point is degenerate."""


class ResonanceMisaligned(InvalidParams):
    """The steady state violates the aligned-resonance condition."""


def _pack(a1: complex, a2: complex, rho: complex, beta: complex) -> np.ndarray:
    return np.array([a1.real, a1.imag, a2.real, a2.imag,
                     rho.real, rho.imag, beta.real, beta.imag])


def _unpack(x: np.ndarray) -> tuple[complex, complex, complex, complex]:
    r1, i1, r2, i2, r3, i3, r4, i4 = x.tolist()
    return complex(r1, i1), complex(r2, i2), complex(r3, i3), complex(r4, i4)


Amplitudes = tuple[complex, complex, complex, complex]


class _Terms:
    """The terms of the residual and of the Newton step that ``p`` alone fixes.

    Each is the expression the equations would otherwise evaluate at every
    call, so the iterates keep every bit. `solve_steady_state` builds one
    per solve, and `_residual` and `_step` share it across every Newton
    iteration, line-search trial and drive-ramp step; the drives, which the
    ramp scales, stay outside. `steady_residual` builds one per call.
    """

    __slots__ = ("Delta1", "Delta2", "kappa1", "kappa2", "g1x2", "g2x2",
                 "ig1", "ig2", "iJ1", "iJ2", "iJ2c", "i2J3", "ce", "cm",
                 "i2g1", "i2g2", "j1sq", "j2sq", "j1sq_ce",
                 "m01", "m12", "m21", "mJ2", "mJ2c")

    def __init__(self, p: BareParams) -> None:
        J1, J2 = p.J1, p.J2
        J2c = J2.conjugate()
        self.Delta1, self.Delta2 = p.Delta1, p.Delta2
        self.kappa1, self.kappa2 = p.kappa1, p.kappa2
        self.g1x2, self.g2x2 = 2.0 * p.g1, 2.0 * p.g2
        self.ig1, self.ig2 = 1j * p.g1, 1j * p.g2
        self.iJ1, self.iJ2, self.iJ2c = 1j * J1, 1j * J2, 1j * J2c
        self.i2J3 = 2j * p.J3
        self.ce = ce = 1j * p.Delta_en + p.f
        self.cm = 1j * p.omega_m + p.gamma
        self.i2g1, self.i2g2 = 2j * p.g1, 2j * p.g2
        self.j1sq = j1sq = J1 * J1
        self.j2sq = J2.real * J2.real + J2.imag * J2.imag
        self.j1sq_ce = j1sq * ce
        # the adjugate entries of M (see `_step`) that beta leaves alone,
        # and the factors -iJ2 and -iJ2* of the two that are multiples of c2
        self.m01 = -1j * J1 * ce
        self.m12 = -J1 * J2
        self.m21 = -J1 * J2c
        self.mJ2 = -1j * J2
        self.mJ2c = -1j * J2c


def _residual(t: _Terms, d: Drives, a1: complex, a2: complex,
              rho: complex, beta: complex) -> Amplitudes:
    D1 = t.Delta1 + t.g1x2 * beta.real
    D2 = t.Delta2 + t.g2x2 * beta.real
    r1 = (1j * D1 + t.kappa1) * a1 + t.iJ1 * a2 + t.iJ2 * rho - d.E1
    r2 = (1j * D2 + t.kappa2) * a2 + t.iJ1 * a1 - d.E2
    r3 = t.ce * rho + t.iJ2c * a1 + t.i2J3 * beta.real
    r4 = (t.cm * beta
          + t.ig1 * (a1.real * a1.real + a1.imag * a1.imag)
          + t.ig2 * (a2.real * a2.real + a2.imag * a2.imag)
          + t.i2J3 * rho.real)
    return r1, r2, r3, r4


def _residual_vec(p: BareParams, d: Drives, x: np.ndarray) -> np.ndarray:
    return _pack(*_residual(_Terms(p), d, *_unpack(x)))


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


def _step(t: _Terms, u: Amplitudes, f: Amplitudes) -> Amplitudes:
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
    j1sq, j2sq, ce = t.j1sq, t.j2sq, t.ce
    c1 = 1j * (t.Delta1 + t.g1x2 * beta.real) + t.kappa1
    c2 = 1j * (t.Delta2 + t.g2x2 * beta.real) + t.kappa2
    # adjugate of M = [[c1, iJ1, iJ2], [iJ1, c2, 0], [iJ2*, 0, ce]]
    m00 = c2 * ce
    m01 = t.m01
    m02 = t.mJ2 * c2
    m11 = c1 * ce + j2sq
    m12 = t.m12
    m20 = t.mJ2c * c2
    m21 = t.m21
    m22 = c1 * c2 + j1sq
    det = c1 * m00 + t.j1sq_ce + j2sq * c2
    if det == 0:
        raise SingularJacobian("Newton step unsolvable: det M = 0")
    h1 = t.i2g1 * a1
    h2 = t.i2g2 * a2
    h3 = t.i2J3
    p1 = (m00 * f1 + m01 * f2 + m02 * f3) / det
    p2 = (m01 * f1 + m11 * f2 + m12 * f3) / det
    p3 = (m20 * f1 + m21 * f2 + m22 * f3) / det
    q1 = (m00 * h1 + m01 * h2 + m02 * h3) / det
    q2 = (m01 * h1 + m11 * h2 + m12 * h3) / det
    q3 = (m20 * h1 + m21 * h2 + m22 * h3) / det
    # mechanical row: cm d beta + L(du) = f4 with L real-linear in du
    g1, g2 = t.g1x2, t.g2x2
    lp = 1j * (g1 * (a1.real * p1.real + a1.imag * p1.imag)
               + g2 * (a2.real * p2.real + a2.imag * p2.imag)) + h3 * p3.real
    lq = 1j * (g1 * (a1.real * q1.real + a1.imag * q1.imag)
               + g2 * (a2.real * q2.real + a2.imag * q2.imag)) + h3 * q3.real
    a = (f4 - lp) / t.cm
    g = lq / t.cm
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


def _newton(t: _Terms, d: Drives, cfg: SolverConfig,
            u: Amplitudes) -> tuple[Amplitudes, float, int]:
    tol = cfg.tol
    fu = _residual(t, d, *u)
    n = _search_norm(fu)
    best = n
    for it in range(cfg.max_iter + 1):
        # the line search compares Python-float norms; convergence is decided
        # on the packed residual's norm as np.linalg.norm computes it,
        # sqrt(v . v), which is the norm of steady_residual at the returned
        # state, the norm callers test
        if n < tol:
            v = _pack(*fu)
            exact = math.sqrt(v.dot(v))
            if exact < tol:
                return u, exact, it
        if it == cfg.max_iter:
            break
        s1, s2, s3, s4 = _step(t, u, fu)
        a1, a2, rho, beta = u
        lam = 1.0
        for _ in range(60):
            un = (a1 - lam * s1, a2 - lam * s2, rho - lam * s3, beta - lam * s4)
            fn = _residual(t, d, *un)
            nn = _search_norm(fn)
            if nn < n or nn < tol:
                break
            lam *= 0.5
        else:
            raise NonConvergence("line search stalled", best)
        u, fu, n = un, fn, nn
        best = min(best, n)
    raise NonConvergence("iteration budget exhausted", best)


def _state(t: _Terms, u: Amplitudes, n: float, its: int) -> SteadyState:
    a1, a2, rho, beta = u
    return SteadyState(
        alpha1=a1, alpha2=a2, rho=rho, beta=beta,
        Delta1_eff=t.Delta1 + t.g1x2 * beta.real,
        Delta2_eff=t.Delta2 + t.g2x2 * beta.real,
        residual_norm=n, iterations=its,
    )


def solve_steady_state(p: BareParams, d: Drives,
                       cfg: SolverConfig | None = None) -> SteadyState:
    """Solve the mean-field equations by damped Newton from the zero state.

    Only if that direct solve raises NonConvergence are the drives ramped
    from zero in 10 homotopy steps, re-seeding each solve with the previous
    step's state. Where several states exist, the one returned is the root
    this iteration reaches, which need not be the branch continuously
    connected to zero drive.

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
    t = _Terms(p)
    zero = (0j, 0j, 0j, 0j)
    try:
        u, n, its = _newton(t, d, cfg, zero)
        return _state(t, u, n, its)
    except NonConvergence as err:
        best = err.best_residual
    u, total = zero, 0
    try:
        for k in range(1, 11):
            s = k / 10.0
            dk = replace(d, E1=d.E1 * s, E2=d.E2 * s)
            u, n, its = _newton(t, dk, cfg, u)
            total += its
    except NonConvergence as err:
        raise NonConvergence("drive-ramp homotopy failed",
                             min(best, err.best_residual)) from err
    return _state(t, u, n, total)


def effective_couplings(p: BareParams, s: SteadyState) -> tuple[float, float, float]:
    """Linearized coupling magnitudes and their relative phase.

    G1 = |g1 alpha1|, G2 = |g2 alpha2|, theta = arg(g2 alpha2) -
    arg(g1 alpha1) wrapped to [0, 2*pi); G1's own phase is gauged to zero.
    When either product vanishes the relative phase is immaterial (it can
    be absorbed into the decoupled mode) and is returned as 0.0, whether
    g or alpha is the zero factor.
    """
    c1 = p.g1 * s.alpha1
    c2 = p.g2 * s.alpha2
    G1, G2 = abs(c1), abs(c2)
    if G1 == 0.0 or G2 == 0.0:
        return G1, G2, 0.0
    return G1, G2, wrap_phase(cmath.phase(c2) - cmath.phase(c1))


ALIGNMENT_RTOL = 1e-6


def linearized_params(p: BareParams, s: SteadyState) -> ModelParams:
    """Linearized model parameters at a converged operating point.

    The linear response template drops the explicit detunings, which is
    exact only at the aligned operating point Delta1_eff = Delta2_eff =
    Delta_en = omega_m; states violating the alignment beyond 1e-6
    relative are rejected with a diagnostic listing each offender. The
    rates keep the bare parameters' scale, so the unit is absolute.

    The phases are those of one gauge: both cavity fluctuations turn by
    arg(g1 alpha1), which makes G1 real (alpha1 real when g1 > 0), beta
    keeps its phase, and rho shares beta's, since J3 enters the rho-beta
    link unconjugated on both sides. The turn carries into the
    cavity-ensemble entry, so phi = arg J2 - arg(g1 alpha1). Where
    g1 alpha1 = 0, `effective_couplings` sets theta = 0, which turns the
    cavities by arg(g2 alpha2) instead; where both vanish, phi lies on no
    coupling loop and is returned as arg J2.
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
    turn = (cmath.phase(p.g1 * s.alpha1) if G1 != 0.0
            else cmath.phase(p.g2 * s.alpha2) if G2 != 0.0 else 0.0)
    return ModelParams(
        kappa1=p.kappa1, kappa2=p.kappa2, gamma=p.gamma, f=p.f,
        G1=G1, G2=G2, theta=theta, J1=p.J1, J2=abs(p.J2),
        phi=wrap_phase(cmath.phase(p.J2) - turn) if p.J2 != 0 else 0.0,
        J3=p.J3, unit=_ABSOLUTE_UNIT,
    )


__all__ = [
    "ALIGNMENT_RTOL", "NonConvergence", "ResonanceMisaligned",
    "SingularJacobian", "SolverConfig",
    "effective_couplings", "linearized_params", "solve_steady_state",
    "steady_residual",
]
