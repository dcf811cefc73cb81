"""Coupling design for perfect one-way transmission at theta = phi = pi/2.

With both coupling phases fixed at pi/2 the resonance (y = 0) transmission
can be driven exactly to zero in one direction while the other reaches
unity, provided

    G1 = sqrt(gamma kappa1),  G2 = sqrt(gamma kappa2),
    J1 = G1 G2 / (gamma + f),

J3 solves the quartic R7 J3^4 + R8 J3^2 + R9 = 0 assembled by
:func:`r_coefficients`, and the ensemble/cavity coupling equals the
quotient (J1 J3^2 + J1 gamma f - G1 G2 f) / (G2 J3).

For positive rates the quartic's J3^2 roots come out negative real, so
every J3 candidate is purely imaginary and the quotient evaluated there is
itself purely imaginary. Keeping only the real magnitude of either one caps
the transmitted direction well below unity; binding the literal complex
quotient into the J2 slot together with the literal root in J3 reproduces
{T = 1, T = 0} exactly. Candidates therefore carry both the literal slot
values and their magnitudes, non-real residues are reported instead of
truncated, and validity is decided operationally by evaluating the
transmission at resonance, never by the root algebra alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .params import (
    InvalidParams,
    ModelParams,
    RateUnit,
    _ABSOLUTE_UNIT,
    _RATE_FIELDS,
    _to_dict,
)
from .response import SingularMatrix, pole_thresholds
from .transmission import isolation_metrics, transmission_pair

HALF_PI = math.pi / 2.0

# a candidate's J2 quotient is reported as non-real past this relative residue
J2_RESIDUE_TOL = 1e-9

# resonance transmissions must hit {0, 1} this tightly for a candidate to pass
DESIGN_TOL = 1e-6


class DivisionByZero(ZeroDivisionError):
    """A coefficient formula divides by a rate or coupling that is zero."""


class DegenerateQuadratic(ArithmeticError):
    """Both leading coefficients of the J3 quartic vanish; no roots exist."""


class ZeroJ3(ZeroDivisionError):
    """The J2 quotient is undefined at J3 = 0."""


class NoValidDesign(RuntimeError):
    """No J3 candidate passed resonance validation.

    The failed :class:`IsolatorDesign` (with per-candidate verdicts) is
    attached as ``design``.
    """

    def __init__(self, design: "IsolatorDesign") -> None:
        self.design = design
        lines = ["no J3 candidate achieves one-way transmission at resonance"]
        for i, c in enumerate(design.root_candidates):
            lines.append(
                f"  candidate {i}: J3={c.J3:.6g} J2={c.J2:.6g} "
                f"T12={c.T12_at_resonance:.6g} T21={c.T21_at_resonance:.6g} "
                f"({c.direction})"
            )
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class RCoefficients:
    """Resonance-determinant coefficients at theta = phi = pi/2.

    The determinant at y = 0 collapses to R7*J3^4 + R8*J3^2 + R9 once the
    J2 quotient is substituted, so perfect designs sit on the roots of that
    quartic. R2p, R5, R6 are the stored parts from which R7 is composed;
    the generating rates and couplings are echoed for traceability.
    """

    R1: float
    R2: float
    R2p: float
    R3: float
    R4: float
    R5: float
    R6: float
    R7: float
    R8: float
    R9: float
    kappa1: float
    kappa2: float
    gamma: float
    f: float
    G1: float
    G2: float
    J1: float


def r_coefficients(
    kappa1: float, kappa2: float, gamma: float, f: float,
    G1: float, G2: float, J1: float,
) -> RCoefficients:
    """Assemble the R coefficients literally from their defining expressions.

    Raises
    ------
    DivisionByZero
        If G2 = 0 (R6 divides by G2^2) or kappa1*kappa2 = 0 (R1 diverges).
    """
    for name, v in zip(_RATE_FIELDS, (kappa1, kappa2, gamma, f, G1, G2, J1)):
        if not math.isfinite(v) or v < 0.0:
            raise InvalidParams(f"{name} must be finite and nonnegative, got {v}")
    if G2 == 0.0 or kappa1 * kappa2 == 0.0:
        raise DivisionByZero(
            "R coefficients need G2 > 0 and kappa1*kappa2 > 0 "
            f"(got G2={G2}, kappa1*kappa2={kappa1 * kappa2})"
        )
    R1 = 1.0 / math.sqrt(kappa1 * kappa2)
    R2 = -2.0 * G1 * G2 * f / R1
    R2p = J1 ** 2 + kappa1 * kappa2
    R3 = (G2 ** 2 * f * kappa1 + G1 ** 2 * f * kappa2
          + J1 ** 2 * gamma * f + kappa1 * kappa2 * gamma * f)
    R4 = -2.0 * J1 * f * (J1 * gamma - G1 * G2)
    R5 = -2.0 * J1 ** 2
    R6 = (G2 ** 2 + gamma * kappa2) / G2 ** 2
    R7 = R5 + R2p + R6 * J1 ** 2
    R8 = R4 - R2 + 2.0 * R6 * J1 ** 2 * gamma * f - 2.0 * R6 * J1 * G1 * G2 * f + R3
    R9 = R6 * (J1 * gamma * f - G1 * G2 * f) ** 2
    return RCoefficients(
        R1=R1, R2=R2, R2p=R2p, R3=R3, R4=R4, R5=R5, R6=R6, R7=R7, R8=R8, R9=R9,
        kappa1=kappa1, kappa2=kappa2, gamma=gamma, f=f, G1=G1, G2=G2, J1=J1,
    )


def j3_roots(r: RCoefficients) -> list[complex]:
    """All J3 roots of R7*J3^4 + R8*J3^2 + R9 = 0, principal branch.

    The J3^2 quadratic is solved first, for the squares
    x+- = (-R8 +- sqrt(R8^2 - 4 R7 R9))/(2 R7): the one of larger
    magnitude by that formula and the other from their product R9/R7, so
    that a small square is not lost to cancellation. Each square then
    yields a +/- root pair, enumerated in the stable order +sqrt(x+),
    -sqrt(x+), +sqrt(x-), -sqrt(x-), with exact duplicates removed.
    Purely imaginary and fully complex roots are retained. When |R7| falls below 1e-14 relative to
    |R8| the quartic degrades gracefully to the linear equation
    R8*J3^2 + R9 = 0; if R8 vanishes as well there is nothing to solve.

    Raises
    ------
    DegenerateQuadratic
        R7 and R8 are both (relatively) zero.
    """
    R7, R8, R9 = r.R7, r.R8, r.R9
    if abs(R7) <= 1e-14 * abs(R8):
        if R8 == 0.0:
            raise DegenerateQuadratic(
                f"leading coefficients vanish (R7={R7}, R8={R8}); "
                "the root equation is empty"
            )
        squares = [complex(-R9 / R8)]
    else:
        disc = cmath.sqrt(complex(R8 * R8 - 4.0 * R7 * R9))
        plus, minus = (-R8 + disc) / (2.0 * R7), (-R8 - disc) / (2.0 * R7)
        # -R8 +- disc cancels in the square of smaller magnitude, so that
        # one is taken from the product of the two, R9 / R7; + 0j turns a
        # -0.0 imaginary part into +0.0, the formula's branch of the root.
        # Both squares are 0 where R8 and R9 are, as when rates underflow
        if abs(minus) > abs(plus):
            plus = R9 / (R7 * minus) + 0j
        elif plus:
            minus = R9 / (R7 * plus) + 0j
        squares = [plus, minus]
    roots: list[complex] = []
    for sq in squares:
        root = cmath.sqrt(sq)
        for cand in (root, -root):
            if cand not in roots:
                roots.append(cand)
    return roots


def j2_literal(
    J1: float, J3: complex, gamma: float, f: float, G1: float, G2: float,
) -> complex:
    """The J2 design quotient (J1 J3^2 + J1 gamma f - G1 G2 f)/(G2 J3), literally.

    Complex for complex J3; :func:`design_isolator` binds this value into
    the J2 slot unmodified.
    """
    J3 = complex(J3)
    if J3 == 0:
        raise ZeroJ3("the J2 quotient divides by J3")
    if G2 == 0.0:
        raise DivisionByZero("the J2 quotient divides by G2")
    return (J1 * J3 * J3 + J1 * gamma * f - G1 * G2 * f) / (G2 * J3)


def nonreal_residue(q: complex) -> float:
    """Relative deviation of ``q`` from the nonnegative real value |q|.

    Zero for q >= 0 real, sqrt(2) for purely imaginary q, 2 for negative
    real q. Used to report how much information the magnitude |q| discards.
    """
    m = abs(q)
    if m == 0.0:
        return 0.0
    return abs(q - m) / m


def _couplings(kappa1: float, kappa2: float, gamma: float,
               f: float) -> tuple[float, float, float]:
    """G1 = sqrt(gamma kappa1), G2 = sqrt(gamma kappa2), J1 = G1 G2/(gamma + f)."""
    G1 = math.sqrt(gamma * kappa1)
    G2 = math.sqrt(gamma * kappa2)
    return G1, G2, G1 * G2 / (gamma + f)


def _candidate_params(kappa1: float, kappa2: float, gamma: float, f: float,
                      J2: complex, J3: complex, unit: RateUnit) -> ModelParams:
    """One candidate's parameter set: the design's couplings at these rates,
    theta = phi = pi/2, and the candidate's J2 and J3."""
    G1, G2, J1 = _couplings(kappa1, kappa2, gamma, f)
    return ModelParams(
        kappa1=kappa1, kappa2=kappa2, gamma=gamma, f=f, G1=G1, G2=G2,
        theta=HALF_PI, J1=J1, J2=J2, phi=HALF_PI, J3=J3, unit=unit)


@dataclass(frozen=True)
class DesignCandidate:
    """One J3 root candidate with its resonance validation verdict.

    J2 is the literal quotient bound during validation; J2_mag is its
    magnitude and J2_residue the relative non-real residue the magnitude
    discards. ``direction`` is the observed transmission direction, or
    "rejected"/"singular" when the candidate could not be evaluated.
    """

    J3: complex
    J2: complex
    J2_mag: float
    J2_residue: float
    T12_at_resonance: float
    T21_at_resonance: float
    valid: bool
    direction: str


@dataclass(frozen=True)
class IsolatorDesign:
    """Derived couplings plus per-root validation verdicts.

    ``chosen`` indexes the valid candidate with the smallest |J3|
    (tie-break: smallest |J2|), or is None when validation rejected all
    candidates.
    """

    kappa1: float
    kappa2: float
    gamma: float
    f: float
    G1: float
    G2: float
    J1: float
    theta: float
    phi: float
    r: RCoefficients
    root_candidates: tuple[DesignCandidate, ...]
    chosen: int | None
    unit: RateUnit

    @property
    def chosen_candidate(self) -> DesignCandidate | None:
        if self.chosen is None:
            return None
        return self.root_candidates[self.chosen]

    def to_model_params(self, index: int | None = None) -> ModelParams:
        """Parameter set reproducing a candidate (default: the chosen one)."""
        i = self.chosen if index is None else index
        if i is None:
            raise ValueError("design has no chosen candidate")
        c = self.root_candidates[i]
        return _candidate_params(self.kappa1, self.kappa2, self.gamma, self.f,
                                 c.J2, c.J3, self.unit)


def _beyond_range(kappa1: float, kappa2: float, gamma: float,
                  f: float) -> InvalidParams:
    return InvalidParams(
        f"the rates kappa1={kappa1}, kappa2={kappa2}, gamma={gamma}, f={f} "
        "are beyond the range the model evaluates")


def design_isolator(
    kappa1: float, kappa2: float, gamma: float, f: float,
    unit: RateUnit | None = None,
) -> IsolatorDesign:
    """Derive and validate couplings for perfect isolation at resonance.

    Sets G1 = sqrt(gamma kappa1), G2 = sqrt(gamma kappa2),
    J1 = G1 G2/(gamma + f) and theta = phi = pi/2, enumerates every J3 root
    of the quartic in the order of :func:`j3_roots`, binds the literal J2
    quotient per candidate, and accepts a candidate only if
    `transmission_pair` at y = 0 returns {<= 1e-6, within 1e-6 of 1} in
    some order. The rates are taken as Python floats, so numpy scalars
    give the design, and the report, that the same floats give.

    Raises
    ------
    InvalidParams
        When a rate is not finite and positive, or when the rates are
        beyond the range the model evaluates: a product of them overflows
        or underflows, a candidate's pole threshold is not finite, or no
        candidate is valid, one has J3 = 0 and R9 is 0. At f > 0
        R9 = R6 (G1 G2 f^2 / (gamma + f))^2 is positive, so the quartic
        has no zero root; R9 = 0, and with it the root J3 = 0, comes
        only from rounding or underflow.
    NoValidDesign
        When every candidate fails; the full report rides on the exception.
    """
    for name, v in (("kappa1", kappa1), ("kappa2", kappa2),
                    ("gamma", gamma), ("f", f)):
        if not (math.isfinite(v) and v > 0.0):
            raise InvalidParams(f"{name} must be finite and positive, got {v}")
    # numpy scalars would carry numpy's per-operation cost into every
    # candidate, and np.bool_ verdicts into the JSON report
    kappa1, kappa2, gamma, f = map(float, (kappa1, kappa2, gamma, f))
    if unit is None:
        unit = _ABSOLUTE_UNIT
    try:
        G1, G2, J1 = _couplings(kappa1, kappa2, gamma, f)
        r = r_coefficients(kappa1, kappa2, gamma, f, G1, G2, J1)
        roots = j3_roots(r)
    except (OverflowError, ZeroDivisionError, InvalidParams):
        # at finite positive rates only a product that overflows or
        # underflows fails here
        raise _beyond_range(kappa1, kappa2, gamma, f) from None
    records: list[DesignCandidate] = []
    zero_j3 = False
    for J3 in roots:
        J2 = complex("nan")
        T12 = T21 = math.nan
        valid, direction = False, "rejected"
        try:
            J2 = j2_literal(J1, J3, gamma, f, G1, G2)
            tp = transmission_pair(
                _candidate_params(kappa1, kappa2, gamma, f, J2, J3, unit), 0.0)
        except ZeroJ3:
            zero_j3 = True
        except InvalidParams:
            # beyond the range when the pole threshold is not finite (as at
            # a non-finite J2 or J3); else rejected, as a negative real J2 is
            if not pole_thresholds(dict(
                    kappa1=kappa1, kappa2=kappa2, gamma=gamma, f=f, G1=G1,
                    G2=G2, J1=J1, J2=J2, J3=J3, y=0.0)) < math.inf:
                raise _beyond_range(kappa1, kappa2, gamma, f) from None
        except SingularMatrix:
            direction = "singular"
        else:
            T12, T21 = tp.T12, tp.T21
            valid = bool(min(T12, T21) < DESIGN_TOL
                         and abs(max(T12, T21) - 1.0) < DESIGN_TOL)
            direction = isolation_metrics(tp).direction.value
        records.append(DesignCandidate(
            J3=J3, J2=J2, J2_mag=abs(J2), J2_residue=nonreal_residue(J2),
            T12_at_resonance=T12, T21_at_resonance=T21,
            valid=valid, direction=direction))
    chosen = min((i for i, c in enumerate(records) if c.valid),
                 key=lambda i: (abs(records[i].J3), records[i].J2_mag),
                 default=None)
    design = IsolatorDesign(
        kappa1=kappa1, kappa2=kappa2, gamma=gamma, f=f,
        G1=G1, G2=G2, J1=J1, theta=HALF_PI, phi=HALF_PI,
        r=r, root_candidates=tuple(records), chosen=chosen, unit=unit,
    )
    if chosen is None:
        if zero_j3 and r.R9 == 0.0:
            raise _beyond_range(kappa1, kappa2, gamma, f)
        raise NoValidDesign(design)
    return design


# ---------------------------------------------------------------------------
# JSON report encoding
# ---------------------------------------------------------------------------

def design_to_dict(d: IsolatorDesign) -> dict:
    """The JSON report of a design: `_to_dict` of its fields, plus three.

    ``r`` is written under the key ``r_coefficients``, each candidate gets
    its derived ``J2_nonreal`` verdict, and the chosen candidate's
    parameter set is added as ``model_params`` when there is one.
    """
    out = _to_dict(d)
    out["r_coefficients"] = out.pop("r")
    for rec, c in zip(out["root_candidates"], d.root_candidates):
        rec["J2_nonreal"] = (not math.isnan(c.J2_residue)
                             and c.J2_residue > J2_RESIDUE_TOL)
    if d.chosen is not None:
        out["model_params"] = _to_dict(d.to_model_params())
    return out


__all__ = [
    "DESIGN_TOL", "DegenerateQuadratic", "DesignCandidate", "DivisionByZero",
    "IsolatorDesign", "J2_RESIDUE_TOL", "NoValidDesign", "RCoefficients",
    "ZeroJ3", "design_isolator", "design_to_dict", "j2_literal",
    "j3_roots", "nonreal_residue", "r_coefficients",
]
