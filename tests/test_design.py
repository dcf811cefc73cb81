"""Coupling-design algebra: R coefficients, root candidates, validation."""

import cmath
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from nonrecip import (
    DegenerateQuadratic,
    DivisionByZero,
    InvalidParams,
    NoValidDesign,
    RateUnit,
    SingularMatrix,
    ZeroJ3,
    design_isolator,
    design_to_dict,
    j2_literal,
    j3_roots,
    nonreal_residue,
    r_coefficients,
    transmission_pair,
)
from nonrecip.design import DESIGN_TOL, J2_RESIDUE_TOL, RCoefficients
from nonrecip.response import transfer_coefficients, transfer_polynomials
from nonrecip.sweep import SPECTRUM_POINTS, figure_ids, figure_preset


def _rc(R7, R8, R9):
    # coefficient container for root tests; echoes are irrelevant there
    return RCoefficients(R1=1.0, R2=0.0, R2p=0.0, R3=0.0, R4=0.0, R5=0.0,
                         R6=1.0, R7=R7, R8=R8, R9=R9, kappa1=1.0, kappa2=1.0,
                         gamma=1.0, f=1.0, G1=1.0, G2=1.0, J1=0.0)


def test_r_coefficients_golden_unit_rates():
    r = r_coefficients(1.0, 1.0, 1.0, 1.0, G1=1.0, G2=1.0, J1=0.0)
    assert r.R1 == 1.0
    assert r.R2 == -2.0
    assert r.R2p == 1.0
    assert r.R3 == 3.0
    assert r.R4 == 0.0
    assert r.R5 == 0.0
    assert r.R6 == 2.0
    assert r.R7 == 1.0
    assert r.R8 == 5.0
    assert r.R9 == 2.0


def test_r_coefficient_composition_invariants():
    r = r_coefficients(3.0, 0.5, 0.2, 1.7, G1=0.9, G2=0.4, J1=0.3)
    assert r.R1 == pytest.approx(1.0 / math.sqrt(3.0 * 0.5), rel=1e-15)
    assert r.R7 == r.R5 + r.R2p + r.R6 * r.J1 ** 2
    assert r.kappa1 == 3.0 and r.G2 == 0.4  # inputs echoed


def test_r9_reduction_at_zero_j1():
    r = r_coefficients(2.0, 0.7, 0.3, 1.5, G1=0.8, G2=0.6, J1=0.0)
    assert r.R5 == 0.0
    assert r.R9 == pytest.approx(r.R6 * 0.8 ** 2 * 0.6 ** 2 * 1.5 ** 2,
                                 rel=1e-15)


def test_r_coefficients_isolator_regime():
    # kappa1/kappa2 = 10, gamma/kappa2 = 0.01, f/kappa2 = 1 with the designed
    # couplings; values pinned from extended-precision evaluation
    gamma, f = 0.01, 1.0
    G1, G2 = math.sqrt(0.1), 0.1
    J1 = G1 * G2 / (gamma + f)
    r = r_coefficients(10.0, 1.0, gamma, f, G1, G2, J1)
    assert r.R1 == pytest.approx(0.31622776601683794, rel=1e-14)
    assert r.R2 == pytest.approx(-0.2, rel=1e-14)
    assert r.R6 == pytest.approx(2.0, rel=1e-14)
    assert r.R7 == pytest.approx(10.000980296049407, rel=1e-12)
    assert r.R8 == pytest.approx(0.49804921086168025, rel=1e-12)
    assert r.R9 == pytest.approx(0.0019605920988138422, rel=1e-12)


def test_r_coefficients_division_errors():
    with pytest.raises(DivisionByZero):
        r_coefficients(1.0, 1.0, 1.0, 1.0, G1=1.0, G2=0.0, J1=0.0)
    with pytest.raises(DivisionByZero):
        r_coefficients(0.0, 1.0, 1.0, 1.0, G1=1.0, G2=1.0, J1=0.0)
    with pytest.raises(InvalidParams):
        r_coefficients(-1.0, 1.0, 1.0, 1.0, G1=1.0, G2=1.0, J1=0.0)


def test_j3_roots_factored_quadratic():
    roots = j3_roots(_rc(1.0, -5.0, 4.0))
    assert roots == [2.0 + 0.0j, -2.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j]


def test_j3_roots_complex_branch():
    # negative discriminant: the two J3^2 values are +-i
    roots = j3_roots(_rc(1.0, 0.0, 1.0))
    squares = sorted((z * z for z in roots), key=lambda w: (w.real, w.imag))
    assert squares[0] == pytest.approx(-1j)
    assert squares[1] == pytest.approx(-1j)
    assert squares[2] == pytest.approx(1j)
    assert squares[3] == pytest.approx(1j)
    for z in roots:
        assert abs(z ** 4 + 1.0) < 1e-14


def test_j3_roots_degenerate_linear_fallback():
    # R7 ~ 0 with R8 nonzero degrades to a linear equation in J3^2
    roots = j3_roots(_rc(0.0, 2.0, -8.0))
    assert sorted(z.real for z in roots) == [-2.0, 2.0]
    with pytest.raises(DegenerateQuadratic):
        j3_roots(_rc(0.0, 0.0, 1.0))


def test_j3_roots_satisfy_quartic(rng):
    for _ in range(50):
        k1, k2, gamma, f = (10.0 ** rng.uniform(-2, 2, size=4)).tolist()
        G1, G2 = math.sqrt(gamma * k1), math.sqrt(gamma * k2)
        J1 = G1 * G2 / (gamma + f)
        r = r_coefficients(k1, k2, gamma, f, G1, G2, J1)
        coeff = max(abs(r.R7), abs(r.R8), abs(r.R9))
        for z in j3_roots(r):
            lhs = r.R7 * z ** 4 + r.R8 * z ** 2 + r.R9
            # backward error: terms can cancel far below the coefficient
            # scale at a well-conditioned root, so the floor matters
            scale = max(abs(r.R7 * z ** 4), abs(r.R8 * z ** 2), abs(r.R9),
                        coeff)
            assert abs(lhs) <= 1e-10 * scale


def test_j2_vanishes_when_j3_equals_f():
    gamma, f, G1, G2 = 0.3, 2.0, 0.7, 0.5
    J1 = G1 * G2 / (gamma + f)
    assert abs(j2_literal(J1, f, gamma, f, G1, G2)) < 1e-15 * G1 * f


def test_j2_zero_j1_term_deletion():
    gamma, f, G1, G2, J3 = 0.3, 2.0, 0.7, 0.5, 1.25
    q = j2_literal(0.0, J3, gamma, f, G1, G2)
    assert q == pytest.approx(-G1 * f / J3, rel=1e-15)
    # the quotient is negative real here: the magnitude hides a sign flip,
    # which the residue must expose
    assert nonreal_residue(q) == pytest.approx(2.0)
    assert nonreal_residue(q) > J2_RESIDUE_TOL
    assert abs(j2_literal(0.0, J3, gamma, f, G1, G2)) == pytest.approx(
        G1 * f / J3, rel=1e-15)


def test_nonreal_residue_scale():
    assert nonreal_residue(3.0 + 0.0j) == 0.0
    assert nonreal_residue(0.0 + 0.0j) == 0.0
    assert nonreal_residue(2.5j) == pytest.approx(math.sqrt(2.0))
    assert nonreal_residue(-1.0 + 0.0j) == pytest.approx(2.0)


def test_j2_error_paths():
    with pytest.raises(ZeroJ3):
        j2_literal(0.1, 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DivisionByZero):
        j2_literal(0.1, 1.0, 1.0, 1.0, 1.0, 0.0)


def test_design_isolator_reference_regime():
    d = design_isolator(10.0, 1.0, 0.01, 1.0, unit=RateUnit("kappa2", 1.0))
    assert d.G1 == pytest.approx(0.316228, abs=1e-6)
    assert d.G2 == pytest.approx(0.1, rel=1e-15)
    assert d.J1 == pytest.approx(0.031310, abs=1e-6)
    assert d.G1 == pytest.approx(math.sqrt(d.gamma * d.kappa1), rel=1e-14)
    assert d.G2 == pytest.approx(math.sqrt(d.gamma * d.kappa2), rel=1e-14)
    assert d.J1 == pytest.approx(d.G1 * d.G2 / (d.gamma + d.f), rel=1e-14)
    assert d.theta == d.phi == math.pi / 2
    c = d.chosen_candidate
    assert c is not None and c.valid
    assert min(c.T12_at_resonance, c.T21_at_resonance) < DESIGN_TOL
    assert abs(max(c.T12_at_resonance, c.T21_at_resonance) - 1.0) < DESIGN_TOL
    # the chosen root and bound coupling are purely imaginary
    assert c.J3 == pytest.approx(0.0656465071569125j, rel=1e-12)
    assert c.J2_mag == pytest.approx(4.7899894602740005, rel=1e-12)
    assert abs(c.J2.real) < 1e-12 * abs(c.J2)
    assert c.J2_residue > J2_RESIDUE_TOL
    assert c.direction == "forward_1to2"


def test_design_candidates_revalidate():
    d = design_isolator(10.0, 1.0, 0.01, 5.0, unit=RateUnit("kappa2", 1.0))
    for i, c in enumerate(d.root_candidates):
        if not c.valid:
            continue
        tp = transmission_pair(d.to_model_params(i), 0.0)
        assert tp.T12 == pytest.approx(c.T12_at_resonance, abs=1e-12)
        assert tp.T21 == pytest.approx(c.T21_at_resonance, abs=1e-12)


def test_design_valid_across_f_range():
    for f in (0.1, 1.0, 5.0):
        d = design_isolator(10.0, 1.0, 0.01, f)
        c = d.chosen_candidate
        assert c.valid, f


def test_designed_presets_reduce_n21_to_j1_y_squared():
    # at theta = pi/2, J1 = G1 G2/(gamma + f) cancels N21's linear term and
    # the J2 quotient its constant term, so T21 = sqrt(kappa1 kappa2)
    # J1 y^2 / |D| over the whole window
    designed = [fid for fid in figure_ids() if fid[3] in "5678"]
    assert len(designed) == 14
    for fid in designed:
        spec = figure_preset(fid)
        p, ys = spec.fixed, spec.axis1.grid()
        assert len(ys) == SPECTRUM_POINTS
        n21 = transfer_coefficients(dict(vars(p), y=ys))[1]
        gap = np.abs(n21 - 1j * p.J1 * ys ** 2).max()
        assert gap <= 1e-14 * np.abs(n21).max(), fid
        # and on the coefficients: N21 = (n2 y + n1) y + n0 keeps only
        # its y^2 term, n2 = i J1
        n2, n1, n0 = transfer_polynomials(vars(p))[1]
        assert n2 == 1j * p.J1
        assert abs(n1) <= 1e-14 * p.J1, fid
        assert abs(n0) <= 1e-14 * p.J1, fid


def _optical_paths(p, y, sign):
    """The direct, mechanical and ensemble paths of N12 (sign +1) or N21
    (sign -1), written out from the paper's formulas."""
    direct = (1j * (p.J1 * y * y - p.J1 * p.J3 ** 2 - p.J1 * p.gamma * p.f)
              - p.J1 * (p.gamma + p.f) * y)
    mechanics = p.G1 * p.G2 * (1j * y - p.f) * np.exp(sign * 1j * p.theta)
    ensemble = (1j * p.G2 * p.J2 * p.J3
                * np.exp(sign * 1j * (p.theta - p.phi)))
    return direct, mechanics, ensemble


def test_designed_isolation_is_three_path_cancellation():
    # at the designed point the three paths of N21 cancel at resonance,
    # while those of N12 add up to |N12| = 20 (ROADMAP item 15)
    d = design_isolator(1.0, 1.0, 1.0, 10.0)
    assert len(d.root_candidates) == 4
    ys = figure_preset("fig5a").axis1.grid()
    for i, (mags, angles) in enumerate(
            [((0.5729, 10.0, 9.4271), (-90.0, 90.0, -90.0))] * 2
            + [((3.1214, 10.0, 13.1214), (90.0, 90.0, -90.0))] * 2):
        p = d.to_model_params(i)
        n12, n21, _ = transfer_coefficients(dict(vars(p), y=0.0))
        a12, a21 = _optical_paths(p, 0.0, 1), _optical_paths(p, 0.0, -1)
        for paths, n in ((a12, n12), (a21, n21)):
            assert abs(sum(paths) - n) <= 1e-14 * max(map(abs, paths)), i
        assert [abs(z) for z in a21] == pytest.approx(mags, abs=1e-4)
        assert [math.degrees(cmath.phase(z)) for z in a21] == (
            pytest.approx(angles, abs=1e-9))
        assert abs(n21) == pytest.approx(6.1e-16, abs=5e-17)
        assert abs(n12) == pytest.approx(20.0, rel=1e-14)
        # and over the fig5a window, where y is an array
        n12, n21, _ = transfer_coefficients(dict(vars(p), y=ys))
        for sign, n in ((1, n12), (-1, n21)):
            paths = _optical_paths(p, ys, sign)
            largest = np.max(np.broadcast_arrays(*map(np.abs, paths)), axis=0)
            assert np.all(np.abs(sum(paths) - n) <= 1e-14 * largest), i
    assert d.root_candidates[0].J3 == pytest.approx(1.9229j, abs=5e-5)
    assert d.root_candidates[1].J3 == pytest.approx(-1.9229j, abs=5e-5)


def test_chosen_candidate_minimizes_j3():
    d = design_isolator(10.0, 1.0, 0.01, 1.0)
    chosen = d.chosen_candidate
    for c in d.root_candidates:
        if c.valid:
            assert (abs(chosen.J3), chosen.J2_mag) <= (abs(c.J3), c.J2_mag)


def test_perfection_is_sharp_in_j1():
    # nudging J1 off the designed value must break validity at resonance
    d = design_isolator(10.0, 1.0, 0.01, 1.0, unit=RateUnit("kappa2", 1.0))
    p = d.to_model_params()
    for factor in (0.99, 1.01):
        tp = transmission_pair(replace(p, J1=p.J1 * factor), 0.0)
        assert min(tp.T12, tp.T21) > DESIGN_TOL


def test_design_rejects_nonpositive_rates():
    with pytest.raises(InvalidParams):
        design_isolator(10.0, 1.0, 0.0, 1.0)
    with pytest.raises(InvalidParams):
        design_isolator(10.0, 1.0, 0.01, math.inf)


@pytest.mark.parametrize("rates", [
    (1e150, 1.0, 1.0, 10.0),  # each candidate's pole threshold overflows
    (1e200, 1.0, 1.0, 10.0),  # the quartic's discriminant overflows
    (1e200, 1e200, 1.0, 1.0),  # kappa1 kappa2 overflows, so R1 = 0
    (1e-200,) * 4,  # gamma kappa2 underflows, so G2 = 0
    (10.0, 1.0, 1e16, 1.0),  # J1 gamma - G1 G2 rounds to 0, so R9 = 0
    (1e-160,) * 4,  # R9 underflows to 0: the quartic gains the root J3 = 0
], ids=["pole-threshold", "nan-roots", "zero-r1", "underflow",
        "zero-r9-rounding", "zero-r9-underflow"])
def test_rates_beyond_the_range_are_invalid(rates):
    named = re.escape("the rates kappa1={}, kappa2={}, gamma={}, f={} are "
                      "beyond the range the model evaluates".format(*rates))
    with pytest.raises(InvalidParams, match=named):
        design_isolator(*rates)


def test_the_small_j3_root_survives_cancellation():
    # 4 R7 R9 is below the rounding of R8^2 here, so the quadratic formula
    # would give J3^2 = 0; the small square comes from the product of the
    # two instead, and all four roots are valid designs
    d = design_isolator(10.0, 1.0, 1e8, 1.0)
    assert [c.direction for c in d.root_candidates] == ["forward_1to2"] * 4
    assert all(c.valid for c in d.root_candidates)
    J3 = [c.J3 for c in d.root_candidates]
    assert J3 == pytest.approx([5.7735e-5j, -5.7735e-5j, 17320.5j,
                                -17320.5j], rel=1e-5)
    assert d.chosen == 0


@pytest.mark.parametrize("kappa1", [1e20, 1e60, 1e100])
def test_large_rates_in_the_range_are_a_numerical_failure(kappa1):
    # every candidate is a pole: no valid design, not an invalid input
    with pytest.raises(NoValidDesign) as exc_info:
        design_isolator(kappa1, 1.0, 1.0, 10.0)
    directions = [c.direction for c in exc_info.value.design.root_candidates]
    assert directions == ["singular"] * 4


def test_no_valid_design_report(monkeypatch):
    import nonrecip.design as design_mod

    def always_opaque(p, y):
        from nonrecip.params import TransmissionPoint
        return TransmissionPoint(y=y, T12=0.5, T21=0.5)

    monkeypatch.setattr(design_mod, "transmission_pair", always_opaque)
    with pytest.raises(NoValidDesign) as exc_info:
        design_isolator(10.0, 1.0, 0.01, 1.0)
    err = exc_info.value
    assert err.design.chosen is None
    assert len(err.design.root_candidates) >= 4
    assert all(not c.valid for c in err.design.root_candidates)
    # one report line per candidate after the summary line
    assert len(str(err).splitlines()) == 1 + len(err.design.root_candidates)
    # the failed design has no candidate to pick or to build
    assert err.design.chosen_candidate is None
    with pytest.raises(ValueError, match="no chosen candidate"):
        err.design.to_model_params()


def test_invalid_quotient_is_recorded_as_rejected(monkeypatch):
    import nonrecip.design as design_mod

    # a small real root makes the J2 quotient a negative real, a set that
    # ModelParams refuses to build
    monkeypatch.setattr(design_mod, "j3_roots", lambda r: [0.1 + 0j])
    with pytest.raises(NoValidDesign) as exc_info:
        design_isolator(10.0, 1.0, 0.01, 1.0)
    (c,) = exc_info.value.design.root_candidates
    assert c.J2.imag == 0.0 and c.J2.real < 0.0
    assert c.direction == "rejected" and not c.valid
    assert math.isnan(c.T12_at_resonance) and math.isnan(c.T21_at_resonance)


def test_zero_root_is_recorded_as_rejected(monkeypatch):
    import nonrecip.design as design_mod

    # the J2 quotient divides by J3, so a zero root has no J2 to report
    monkeypatch.setattr(design_mod, "j3_roots", lambda r: [0j])
    with pytest.raises(NoValidDesign) as exc_info:
        design_isolator(10.0, 1.0, 0.01, 1.0)
    (c,) = exc_info.value.design.root_candidates
    assert c.J3 == 0 and c.direction == "rejected" and not c.valid
    assert cmath.isnan(c.J2) and math.isnan(c.J2_mag)
    assert math.isnan(c.J2_residue) and math.isnan(c.T12_at_resonance)


def test_design_report_serialization():
    d = design_isolator(10.0, 1.0, 0.01, 1.0, unit=RateUnit("kappa2", 1.0))
    rep = design_to_dict(d)
    assert rep["chosen"] == d.chosen
    assert rep["r_coefficients"]["R7"] == d.r.R7
    cand = rep["root_candidates"][d.chosen]
    assert cand["valid"] is True
    assert cand["J2_nonreal"] is True
    assert cand["J3"] == {"re": d.chosen_candidate.J3.real,
                          "im": d.chosen_candidate.J3.imag}
    assert rep["model_params"]["J2"]["im"] != 0.0
    # one candidate per root of the quartic
    assert len(rep["root_candidates"]) == 4


def test_design_report_serializes_missing_transmissions_as_null(monkeypatch):
    import nonrecip.design as design_mod

    def at_pole(p, y):
        raise SingularMatrix(f"response matrix is singular at y={y}")

    monkeypatch.setattr(design_mod, "transmission_pair", at_pole)
    with pytest.raises(NoValidDesign) as exc_info:
        design_isolator(10.0, 1.0, 0.01, 1.0)
    rep = design_to_dict(exc_info.value.design)
    assert rep["chosen"] is None and "model_params" not in rep
    singular = [c for c in rep["root_candidates"] if c["direction"] == "singular"]
    assert singular
    for c in singular:
        assert c["T12_at_resonance"] is None
        assert c["T21_at_resonance"] is None
    # NaN never reaches the JSON text
    json.dumps(rep, allow_nan=False)


def test_numpy_scalar_design_report_is_the_float_report():
    # numpy-scalar rates are taken as Python floats: the report serializes
    # without NaN and is the float-built report, byte for byte
    rates = (10.0, 1.0, 0.01, 1.0)
    ours = design_to_dict(design_isolator(*map(np.float64, rates)))
    ref = design_to_dict(design_isolator(*rates))
    assert (json.dumps(ours, allow_nan=False, indent=2, sort_keys=True)
            == json.dumps(ref, allow_nan=False, indent=2, sort_keys=True))
