"""Self-contained invariant suite: the checks behind the `verify` command.

Each check draws random parameter sets (seeded, so runs are reproducible),
exercises one structural property of the model, and reports pass/fail with
a worst-case detail string. The properties are exact statements, so the
tolerances are tight: these are regression tripwires, not statistical
tests. A NaN error fails its check.

The five checks on random draws (closed form, determinant, phase duality,
reciprocity, transpose structure) share one pass rule, `_array_check`,
and differ only in name, errors function, bound and detail wording. They
evaluate their draws as arrays, in blocks of at most _BLOCK draws: one
`system_matrices` stack through stacked LAPACK (`np.linalg.det`,
`np.linalg.inv`), one `transfer_coefficients` pass and one
`transmission_arrays` call per block and phase setting. The draws are
those of alternating `random_params(rng)` and ``rng.uniform(-5, 5)``
calls, block after block of the same stream, and a pole draw is left out
of its check's worst error; so no result depends on the block size. The
J3 root, design and unit checks exercise scalar APIs and stay scalar.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .design import (
    DESIGN_TOL,
    NoValidDesign,
    _couplings,
    design_isolator,
    j3_roots,
    r_coefficients,
)
from .params import (
    TWO_PI, ModelParams, _GAMMA_UNIT, _SCALED_FIELDS, convert_unit)
from .response import pole_thresholds, system_matrices, transfer_coefficients
from .transmission import transmission_arrays

DEFAULT_DRAWS = 200
DEFAULT_SEED = 20240817

# draws evaluated per array pass: bounds the memory of a large draw count
_BLOCK = 4096


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# the detuning drawn after each parameter set: rng.uniform(-5, 5)
_Y_LOW, _Y_SPAN = -5.0, 10.0
# the fields of _draw_fields, in ModelParams order
_FIELDS = tuple(f.name for f in fields(ModelParams) if f.name != "unit")


def _draw_fields(u: list[float]) -> tuple:
    """The ModelParams fields of one draw, in order, from its 11 uniforms.

    Each uniform in [0, 1) is mapped to ``low + span * u`` as
    ``rng.uniform(low, high)`` maps its draw, and the powers of 10 are
    taken on Python floats. gamma is pinned to 1 (everything is quoted
    relative to it), phases are uniform, and J3 gets a log-uniform
    magnitude with a uniform complex phase.
    """
    k1, k2, f, G1, G2, theta, J1, J2, phi, J3, arg = u
    # low + span * x: log10 of a rate over [-2, 2), a phase over
    # [0, 2 pi), where 0.0 + TWO_PI * x is TWO_PI * x bit for bit
    return (10.0 ** (-2.0 + 4.0 * k1), 10.0 ** (-2.0 + 4.0 * k2), 1.0,
            10.0 ** (-2.0 + 4.0 * f), 10.0 ** (-2.0 + 4.0 * G1),
            10.0 ** (-2.0 + 4.0 * G2), TWO_PI * theta,
            10.0 ** (-2.0 + 4.0 * J1), 10.0 ** (-2.0 + 4.0 * J2),
            TWO_PI * phi,
            10.0 ** (-2.0 + 4.0 * J3) * cmath.exp(1j * (TWO_PI * arg)))


def random_params(rng: np.random.Generator) -> ModelParams:
    """A random parameter draw: rates log-uniform over [1e-2, 1e2]*gamma.

    The 11 uniforms come from one ``rng.random`` call; so the parameters
    and the generator's state afterwards are those of 11 ``rng.uniform``
    calls.
    """
    return ModelParams(*_draw_fields(rng.random(11).tolist()),
                       unit=_GAMMA_UNIT)


def _draw_values(u: np.ndarray) -> dict[str, object]:
    """The parameter and detuning values of the uniform rows ``u``.

    Row i of the (n, 12) array ``u`` holds the 11 uniforms of a draw and
    then the one of its detuning, so ``rng.random((n, 12))`` gives the
    draws of n alternating `random_params` and ``rng.uniform(-5, 5)``
    calls, bit for bit. Returns a mapping as for `system_matrices`, an
    array of n values per field and ``"y"``; J2 is complex, as ModelParams
    stores it. The phases already lie in [0, 2 pi), where ModelParams
    leaves them unchanged.
    """
    columns = zip(*map(_draw_fields, u[:, :11].tolist()))
    v = dict(zip(_FIELDS, map(np.array, columns)))
    v["J2"] = v["J2"].astype(complex)
    v["y"] = _Y_LOW + _Y_SPAN * u[:, 11]
    return v


def _negated_phases(v: dict[str, object]) -> dict[str, object]:
    """``v`` at (-theta, -phi), wrapped to [0, 2 pi) as ModelParams wraps.

    For a phase x in [0, 2 pi) that is 2 pi - x, or 0 where it rounds to
    2 pi (x = 0 among them).
    """
    out = dict(v)
    for name in ("theta", "phi"):
        w = TWO_PI - v[name]
        out[name] = np.where(w < TWO_PI, w, 0.0)
    return out


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def _rel_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_rel` elementwise; a NaN in ``a`` or ``b`` gives NaN."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-30)


def _worst(errors) -> float:
    """The largest of ``errors``, 0 for none and NaN if any is NaN.

    The builtin ``max(0.0, nan)`` returns 0.0, which would pass a NaN.
    """
    return float(np.max(errors, initial=0.0))


def _closed_form_errors(v, start):
    """The kernel's [A1^-1]_21 and [A1^-1]_12 match LU inversion.

    They are N12 / D and N21 / D, compared relative to ``np.linalg.inv``.
    A draw is left out when either the LU determinant or the kernel's D
    falls below the pole threshold of `solve_response`.
    """
    m = system_matrices(v)
    n12, n21, D = transfer_coefficients(v)
    thresholds = pole_thresholds(v)
    pole = (np.abs(np.linalg.det(m)) < thresholds) | (np.abs(D) < thresholds)
    ok = ~pole
    inv = np.linalg.inv(m[ok])
    err = np.zeros(len(pole))
    # a NaN D is no pole: its quotient is NaN, which fails the check, and
    # complex division would warn of it
    with np.errstate(invalid="ignore"):
        err[ok] = np.maximum(
            _rel_array(inv[:, 1, 0], n12[ok] / D[ok]),
            _rel_array(inv[:, 0, 1], n21[ok] / D[ok]))
    return err, pole


def _determinant_errors(v, start):
    """The kernel's D matches det(A1), relative to ``np.linalg.det``."""
    D = transfer_coefficients(v)[2]
    return _rel_array(np.linalg.det(system_matrices(v)), D), None


def _duality_errors(v, start):
    """T12(theta, phi) = T21(-theta, -phi), and vice versa."""
    t12p, t21p, pole_p = transmission_arrays(v)
    t12q, t21q, pole_q = transmission_arrays(_negated_phases(v))
    return (np.maximum(_rel_array(t12p, t21q), _rel_array(t21p, t12q)),
            pole_p | pole_q)


def _reciprocity_errors(v, start):
    """At theta = phi in {0, pi} the matrix is complex-symmetric: T12 = T21."""
    # theta = phi = 0 and pi by turns, by the draw's index in the stream
    ang = np.where((start + np.arange(len(v["y"]))) % 2 == 0, 0.0, math.pi)
    t12, t21, pole = transmission_arrays(dict(v, theta=ang, phi=ang))
    return _rel_array(t12, t21), pole


def _transpose_structure_errors(v, start):
    """A1(theta, phi)^T equals A1(-theta, -phi) entrywise (exact)."""
    a = system_matrices(v)
    b = system_matrices(_negated_phases(v))
    scale = np.abs(a).max(axis=(-2, -1))
    gap = np.abs(np.swapaxes(a, -2, -1) - b).max(axis=(-2, -1))
    return gap / np.where(scale == 0.0, 1.0, scale), None


def _array_check(name: str, evaluate, bound: float, detail: str):
    """The check ``name``: the worst error of ``evaluate`` is below ``bound``.

    ``evaluate(v, start)`` returns the errors of the draws of ``v`` (as
    from :func:`_draw_values`) and their pole mask, or None for a check
    without poles; ``start`` is the stream index of the block's first draw.
    The ``draws`` draws are taken in blocks of at most _BLOCK, a pole draw
    is left out, and a NaN error fails. The detail is ``detail`` formatted
    with ``worst`` and ``draws``, the count of draws evaluated. The check
    of ``_x_errors`` is named ``check_x`` and has its docstring.
    """
    def check(draws: int, rng: np.random.Generator) -> CheckResult:
        block_worst, evaluated = [], 0
        for start in range(0, draws, _BLOCK):
            u = rng.random((min(_BLOCK, draws - start), 12))
            err, pole = evaluate(_draw_values(u), start)
            if pole is not None:
                err = err[~pole]
            block_worst.append(_worst(err))
            evaluated += len(err)
        worst = _worst(block_worst)
        return CheckResult(name, worst < bound,
                           detail.format(worst=worst, draws=evaluated))
    check.__name__ = check.__qualname__ = (
        "check" + evaluate.__name__.removesuffix("_errors"))
    check.__doc__ = evaluate.__doc__
    return check


_RELATIVE_ERROR = "worst relative error {worst:.3e} over {draws} draws"

check_closed_form = _array_check(
    "closed_form_equivalence", _closed_form_errors, 1e-10, _RELATIVE_ERROR)
check_determinant = _array_check(
    "determinant_identity", _determinant_errors, 1e-10, _RELATIVE_ERROR)
check_duality = _array_check(
    "phase_duality", _duality_errors, 1e-12, _RELATIVE_ERROR)
check_reciprocity = _array_check(
    "reciprocity_at_aligned_phases", _reciprocity_errors, 1e-10,
    "worst relative gap {worst:.3e} over {draws} draws")
check_transpose_structure = _array_check(
    "transpose_structure", _transpose_structure_errors, 1e-12,
    "worst relative entry gap {worst:.3e}")


def check_root_consistency(draws: int, rng: np.random.Generator) -> CheckResult:
    """Every returned J3 root satisfies the quartic to 1e-10 relative.

    kappa1, kappa2, gamma and f are log-uniform over [1e-2, 1e2], their 4
    uniforms per draw taken from one ``rng.random`` block: the rates and
    the generator's state afterwards are those of 4 ``rng.uniform(-2, 2)``
    calls per draw.
    """
    errors = []
    for u in rng.random((draws, 4)).tolist():
        k1, k2, g, f = [10.0 ** (-2.0 + 4.0 * x) for x in u]
        r = r_coefficients(k1, k2, g, f, *_couplings(k1, k2, g, f))
        scale = max(abs(r.R7), abs(r.R8), abs(r.R9), 1e-30)
        for root in j3_roots(r):
            sq = root * root
            val = r.R7 * sq * sq + r.R8 * sq + r.R9
            mag = max(abs(r.R7 * sq * sq), abs(r.R8 * sq), abs(r.R9), scale)
            errors.append(abs(val) / mag)
    worst = _worst(errors)
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
    errors = []
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
        errors += [lo, abs(hi - 1.0)]
    worst = _worst(errors)
    return CheckResult("design_validation", worst < DESIGN_TOL,
                       f"worst deviation from one-way resonance {worst:.3e} "
                       f"over {len(regimes)} regimes")


def check_unit_round_trip(draws: int, rng: np.random.Generator) -> CheckResult:
    """gamma -> kappa2 -> gamma unit conversion round-trips to 1e-14."""
    errors = []
    for _ in range(draws):
        p = random_params(rng)
        q = convert_unit(convert_unit(p, "kappa2"), "gamma")
        errors += [_rel(getattr(p, name), getattr(q, name))
                   for name in _SCALED_FIELDS]
    worst = _worst(errors)
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
        If ``draws`` is below 1 (a check over no draws passes vacuously),
        or ``seed`` is negative.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    results = []
    for i, check in enumerate(_CHECKS):
        rng = np.random.default_rng(seed + i)
        results.append(check(draws, rng))
    return results


__all__ = [
    "CheckResult", "DEFAULT_DRAWS", "DEFAULT_SEED", "random_params",
    "run_verification",
]
