"""Self-contained invariant suite: the checks behind the `verify` command.

Each check draws random parameter sets (seeded, so runs are reproducible),
exercises one structural property of the model, and reports pass/fail with
a worst-case detail string. The properties are exact statements, so the
tolerances are tight: these are regression tripwires, not statistical
tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .design import NoValidDesign, design_isolator, j3_roots, r_coefficients
from .params import ModelParams, RateUnit, convert_unit
from .response import (
    build_system_matrix,
    closed_form_coefficients,
    response_closed_form,
    solve_response,
)
from .transmission import transmission_pair

DEFAULT_DRAWS = 200
DEFAULT_SEED = 20240817


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# (low, high - low) of each uniform draw of random_params, in draw order:
# log10 of kappa1, kappa2, f, G1, G2; theta; log10 of J1, J2; phi;
# log10 |J3|; arg J3
_LOG_RATE = (-2.0, 4.0)
_PHASE = (0.0, 2.0 * math.pi)
_DRAWS = (_LOG_RATE,) * 5 + (_PHASE, _LOG_RATE, _LOG_RATE, _PHASE,
                             _LOG_RATE, _PHASE)
_GAMMA_UNIT = RateUnit("gamma", 1.0)


def random_params(rng: np.random.Generator) -> ModelParams:
    """A random parameter draw: rates log-uniform over [1e-2, 1e2]*gamma.

    gamma itself is pinned to 1 (everything is quoted relative to it),
    phases are uniform, and J3 gets a log-uniform magnitude with a uniform
    complex phase.

    The 11 uniforms come from one ``rng.random`` call, each mapped to
    ``low + span * u`` as ``rng.uniform(low, high)`` maps its draw, and the
    powers of 10 are taken on Python floats; so the parameters and the
    generator's state afterwards are those of 11 ``rng.uniform`` calls.
    """
    k1, k2, f, G1, G2, theta, J1, J2, phi, J3, arg = (
        low + span * u for (low, span), u in zip(_DRAWS, rng.random(11).tolist()))
    return ModelParams(
        kappa1=10.0 ** k1, kappa2=10.0 ** k2, gamma=1.0, f=10.0 ** f,
        G1=10.0 ** G1, G2=10.0 ** G2, theta=theta,
        J1=10.0 ** J1, J2=10.0 ** J2, phi=phi,
        J3=10.0 ** J3 * cmath.exp(1j * arg), unit=_GAMMA_UNIT,
    )


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def _crel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def check_closed_form(draws: int, rng: np.random.Generator) -> CheckResult:
    """Closed-form cavity amplitudes match the LU solve to 1e-10 relative."""
    worst = 0.0
    done = 0
    while done < draws:
        p = random_params(rng)
        y = float(rng.uniform(-5.0, 5.0))
        try:
            ref = solve_response(p, y, Ep1=1.0, Ep2=0.7)
            cf = response_closed_form(p, y, Ep1=1.0, Ep2=0.7)
        except ArithmeticError:
            continue  # pole; redraw
        worst = max(worst, _crel(ref.da1, cf.da1), _crel(ref.da2, cf.da2))
        done += 1
    return CheckResult("closed_form_equivalence", worst < 1e-10,
                       f"worst relative error {worst:.3e} over {draws} draws")


def check_determinant(draws: int, rng: np.random.Generator) -> CheckResult:
    """The compact determinant expansion matches det(A1) to 1e-10 relative."""
    worst = 0.0
    for _ in range(draws):
        p = random_params(rng)
        y = float(rng.uniform(-5.0, 5.0))
        m = build_system_matrix(p, y)
        det = complex(np.linalg.det(m))
        d = closed_form_coefficients(p, y).D
        worst = max(worst, _crel(det, d))
    return CheckResult("determinant_identity", worst < 1e-10,
                       f"worst relative error {worst:.3e} over {draws} draws")


def check_duality(draws: int, rng: np.random.Generator) -> CheckResult:
    """T12(theta, phi) = T21(-theta, -phi) to 1e-12 relative, and vice versa."""
    worst = 0.0
    done = 0
    while done < draws:
        p = random_params(rng)
        q = replace(p, theta=-p.theta, phi=-p.phi)
        y = float(rng.uniform(-5.0, 5.0))
        try:
            tp = transmission_pair(p, y)
            tq = transmission_pair(q, y)
        except ArithmeticError:
            continue
        worst = max(worst, _rel(tp.T12, tq.T21), _rel(tp.T21, tq.T12))
        done += 1
    return CheckResult("phase_duality", worst < 1e-12,
                       f"worst relative error {worst:.3e} over {draws} draws")


def check_reciprocity(draws: int, rng: np.random.Generator) -> CheckResult:
    """At theta = phi in {0, pi} the matrix is complex-symmetric: T12 = T21."""
    worst = 0.0
    done = 0
    while done < draws:
        p = random_params(rng)
        ang = 0.0 if done % 2 == 0 else math.pi
        p = replace(p, theta=ang, phi=ang)
        y = float(rng.uniform(-5.0, 5.0))
        try:
            tp = transmission_pair(p, y)
        except ArithmeticError:
            continue
        worst = max(worst, abs(tp.T12 - tp.T21)
                    / max(tp.T12, tp.T21, 1e-30))
        done += 1
    return CheckResult("reciprocity_at_aligned_phases", worst < 1e-10,
                       f"worst relative gap {worst:.3e} over {draws} draws")


def check_transpose_structure(draws: int, rng: np.random.Generator) -> CheckResult:
    """A1(theta, phi)^T equals A1(-theta, -phi) entrywise (exact)."""
    worst = 0.0
    for _ in range(draws):
        p = random_params(rng)
        q = replace(p, theta=-p.theta, phi=-p.phi)
        y = float(rng.uniform(-5.0, 5.0))
        a = build_system_matrix(p, y)
        b = build_system_matrix(q, y)
        scale = float(np.max(np.abs(a))) or 1.0
        worst = max(worst, float(np.max(np.abs(a.T - b))) / scale)
    return CheckResult("transpose_structure", worst < 1e-12,
                       f"worst relative entry gap {worst:.3e}")


def check_root_consistency(draws: int, rng: np.random.Generator) -> CheckResult:
    """Every returned J3 root satisfies the quartic to 1e-10 relative."""
    worst = 0.0
    for _ in range(draws):
        k1 = float(10.0 ** rng.uniform(-2.0, 2.0))
        k2 = float(10.0 ** rng.uniform(-2.0, 2.0))
        g = float(10.0 ** rng.uniform(-2.0, 2.0))
        f = float(10.0 ** rng.uniform(-2.0, 2.0))
        G1 = math.sqrt(g * k1)
        G2 = math.sqrt(g * k2)
        J1 = G1 * G2 / (g + f)
        r = r_coefficients(k1, k2, g, f, G1, G2, J1)
        scale = max(abs(r.R7), abs(r.R8), abs(r.R9), 1e-30)
        for root in j3_roots(r):
            sq = root * root
            val = r.R7 * sq * sq + r.R8 * sq + r.R9
            mag = max(abs(r.R7 * sq * sq), abs(r.R8 * sq), abs(r.R9), scale)
            worst = max(worst, abs(val) / mag)
    return CheckResult("j3_root_consistency", worst < 1e-10,
                       f"worst relative quartic residual {worst:.3e}")


def check_design_validation(draws: int, rng: np.random.Generator) -> CheckResult:
    """Reference design regimes all produce a validated one-way candidate."""
    regimes = [
        (10.0, 1.0, 0.01, 0.1),
        (10.0, 1.0, 0.01, 1.0),
        (10.0, 1.0, 0.01, 5.0),
        (10.0, 1.0, 0.001, 1.0),
        (10.0, 1.0, 0.1, 1.0),
        (10.0, 1.0, 1.0, 1.0),
        (1.0, 1.0, 1.0, 1.0),
    ]
    worst = 0.0
    for k1, k2, g, f in regimes:
        try:
            d = design_isolator(k1, k2, g, f)
        except NoValidDesign as exc:
            return CheckResult(
                "design_validation", False,
                f"no valid design at (kappa1={k1}, kappa2={k2}, "
                f"gamma={g}, f={f}): {str(exc).splitlines()[0]}")
        c = d.chosen_candidate
        lo = min(c.T12_at_resonance, c.T21_at_resonance)
        hi = max(c.T12_at_resonance, c.T21_at_resonance)
        worst = max(worst, lo, abs(hi - 1.0))
    return CheckResult("design_validation", worst < 1e-6,
                       f"worst deviation from one-way resonance {worst:.3e} "
                       f"over {len(regimes)} regimes")


def check_unit_round_trip(draws: int, rng: np.random.Generator) -> CheckResult:
    """gamma -> kappa2 -> gamma unit conversion round-trips to 1e-14."""
    worst = 0.0
    for _ in range(draws):
        p = random_params(rng)
        q = convert_unit(convert_unit(p, "kappa2"), "gamma")
        for name in ("kappa1", "kappa2", "gamma", "f", "G1", "G2", "J1"):
            worst = max(worst, _rel(getattr(p, name), getattr(q, name)))
        worst = max(worst, _crel(p.J2, q.J2), _crel(p.J3, q.J3))
    return CheckResult("unit_round_trip", worst < 1e-14,
                       f"worst relative field error {worst:.3e}")


_CHECKS = (
    check_closed_form,
    check_determinant,
    check_duality,
    check_reciprocity,
    check_transpose_structure,
    check_root_consistency,
    check_design_validation,
    check_unit_round_trip,
)


def run_verification(draws: int = DEFAULT_DRAWS,
                     seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every invariant check with a fresh seeded generator per check.

    Raises
    ------
    ValueError
        If ``draws`` is below 1: a check over no draws passes vacuously.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    results = []
    for i, check in enumerate(_CHECKS):
        rng = np.random.default_rng(seed + i)
        results.append(check(draws, rng))
    return results


__all__ = [
    "CheckResult", "DEFAULT_DRAWS", "DEFAULT_SEED", "random_params",
    "run_verification",
]
