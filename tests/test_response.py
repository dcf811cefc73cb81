"""Response matrix assembly, the LU solve, and the closed-form cross-check."""

import cmath
import math

import numpy as np
import pytest

from nonrecip import (
    SingularDeterminant,
    SingularMatrix,
    build_system_matrix,
    closed_form_coefficients,
    response_closed_form,
    solve_response,
)
from nonrecip.response import (
    singularity_thresholds,
    system_matrices,
    transfer_coefficients,
)
from nonrecip.verify import random_params


def _cofactor_det(m):
    # Laplace expansion along the first row; independent of LAPACK
    if m.shape == (1, 1):
        return m[0, 0]
    total = 0.0 + 0.0j
    for j in range(m.shape[1]):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * _cofactor_det(minor)
    return total


def _cofactor_inverse(m):
    det = _cofactor_det(m)
    adj = np.empty((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            minor = np.delete(np.delete(m, i, 0), j, 1)
            adj[j, i] = (-1) ** (i + j) * _cofactor_det(minor)
    return adj / det


def test_matrix_entries(base_params):
    th, ph = 0.7, 1.3
    p = base_params(th, ph, kappa1=1.5, kappa2=0.5, J3=2.0 - 0.3j)
    y = 0.25
    rm = build_system_matrix(p, y)
    assert rm.y == y
    m = rm.entries
    assert m[0, 0] == p.kappa1 - 1j * y
    assert m[1, 1] == p.kappa2 - 1j * y
    assert m[2, 2] == p.f - 1j * y
    assert m[3, 3] == p.gamma - 1j * y
    assert m[0, 1] == m[1, 0] == 1j * p.J1
    assert m[1, 2] == 0 and m[2, 1] == 0
    assert m[0, 2] == pytest.approx(1j * p.J2 * cmath.exp(1j * ph))
    assert m[2, 0] == pytest.approx(1j * p.J2 * cmath.exp(-1j * ph))
    assert m[0, 3] == m[3, 0] == 1j * p.G1
    assert m[1, 3] == pytest.approx(1j * p.G2 * cmath.exp(1j * th))
    assert m[3, 1] == pytest.approx(1j * p.G2 * cmath.exp(-1j * th))
    assert m[2, 3] == m[3, 2] == 1j * p.J3


def test_uncoupled_matrix_is_diagonal(base_params):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, f=3.0)
    m = build_system_matrix(p, 0.0).entries
    np.testing.assert_array_equal(
        m, np.diag([p.kappa1, p.kappa2, p.f, p.gamma]).astype(complex))


def test_quadrature_phase_first_row(base_params):
    # at theta = phi = pi/2 the J2 entry rotates onto the negative real axis
    # and the ensemble/mechanics entry i*J3 becomes real for imaginary J3
    p = base_params(math.pi / 2)
    m = build_system_matrix(p, 0.0).entries
    np.testing.assert_allclose(m[0], [1.0, 0.5j, -0.01, 0.5j],
                               rtol=0, atol=1e-15)
    assert m[2, 3] == pytest.approx(-4.476)


def test_determinant_matches_cofactor_oracle(rng):
    for _ in range(50):
        p = random_params(rng)
        m = build_system_matrix(p, float(rng.normal())).entries
        det = np.linalg.det(m)
        oracle = _cofactor_det(m)
        assert abs(det - oracle) <= 1e-12 * max(abs(det), abs(oracle))


def test_solve_response_zero_drive(base_params):
    sol = solve_response(base_params(1.0), 0.3, 0.0, 0.0)
    assert sol.da1 == sol.da2 == sol.dd == sol.db == 0


def test_solve_response_single_cavity(base_params):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0)
    y = 0.8
    sol = solve_response(p, y, 1.0, 0.0)
    assert sol.method == "matrix_solve"
    assert sol.da1 == pytest.approx(1.0 / (p.kappa1 - 1j * y))
    assert sol.da2 == 0 and sol.dd == 0 and sol.db == 0


def test_solve_matches_cofactor_inverse(base_params):
    p = base_params(math.pi / 2)
    m = build_system_matrix(p, 0.0).entries
    oracle = _cofactor_inverse(m) @ np.array([1.0, 0, 0, 0], dtype=complex)
    sol = solve_response(p, 0.0, 1.0, 0.0)
    got = np.array([sol.da1, sol.da2, sol.dd, sol.db])
    np.testing.assert_allclose(got, oracle, rtol=1e-10)


def test_solve_residual_small(base_params, rng):
    for _ in range(20):
        p = random_params(rng)
        sol = solve_response(p, float(rng.normal()), 1.0, 0.7)
        m = build_system_matrix(p, sol.y).entries
        x = np.array([sol.da1, sol.da2, sol.dd, sol.db])
        b = np.array([1.0, 0.7, 0.0, 0.0])
        assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) < 1e-10


def test_closed_form_uncoupled_reductions(base_params):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, f=3.0)
    y = 0.45
    c = closed_form_coefficients(p, y)
    assert c.tau1 == 0 and c.tau2 == 0
    assert c.D == pytest.approx(
        (p.kappa1 - 1j * y) * (p.kappa2 - 1j * y)
        * (p.f - 1j * y) * (p.gamma - 1j * y))
    sol = response_closed_form(p, y, 1.0, 0.0)
    assert sol.method == "closed_form"
    assert sol.da1 == pytest.approx(1.0 / (p.kappa1 - 1j * y))
    # the closed form only covers the two cavity components
    assert sol.dd is None and sol.db is None


def test_chi3_term_deletion(base_params):
    # with J3 = J2 = 0 the chi3 coefficient collapses to five terms
    p = base_params(0.9, 0.3, J2=0.0, J3=0.0, kappa1=1.7, f=3.0,
                    G1=0.8, G2=0.4)
    y = 0.65
    c = closed_form_coefficients(p, y)
    expect = (-p.G1 ** 2 * y + y ** 3 - p.gamma * p.f * y
              - p.gamma * y * p.kappa1 - p.f * y * p.kappa1)
    assert c.chi3 == pytest.approx(expect, rel=1e-13)


def test_closed_form_matches_solve(base_params, rng):
    for _ in range(100):
        p = random_params(rng)
        y = float(rng.normal())
        sol = solve_response(p, y, 1.0, 0.7)
        cf = response_closed_form(p, y, 1.0, 0.7)
        assert abs(cf.da1 - sol.da1) <= 1e-10 * abs(sol.da1)
        assert abs(cf.da2 - sol.da2) <= 1e-10 * abs(sol.da2)


def test_determinant_formula_matches_numeric(base_params, rng):
    for _ in range(100):
        p = random_params(rng)
        y = float(rng.normal())
        num = np.linalg.det(build_system_matrix(p, y).entries)
        assert abs(closed_form_coefficients(p, y).D - num) <= 1e-10 * abs(num)


def test_printed_determinant_variant(base_params):
    # the as-printed variant of one cross term lacks a J1 factor; the two
    # variants must coincide at y = 0 and split off resonance, where only
    # the corrected one tracks the numeric determinant
    p = base_params(0.4, 2.0, J1=0.7)
    y = 0.6
    corrected = closed_form_coefficients(p, y).D
    printed = closed_form_coefficients(p, y, as_printed=True).D
    assert corrected != printed
    num = np.linalg.det(build_system_matrix(p, y).entries)
    assert abs(corrected - num) <= 1e-12 * abs(num)
    assert abs(printed - num) > 1e-6 * abs(num)
    on_res = closed_form_coefficients(p, 0.0)
    on_res_printed = closed_form_coefficients(p, 0.0, as_printed=True)
    assert on_res_printed.D == pytest.approx(on_res.D, rel=1e-13)


def test_singular_pole_detected(base_params):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, kappa1=0.0)
    with pytest.raises(SingularMatrix):
        solve_response(p, 0.0, 1.0, 0.0)
    with pytest.raises(SingularDeterminant):
        response_closed_form(p, 0.0, 1.0, 0.0)


def test_far_detuned_response_decays(base_params):
    p = base_params(math.pi / 2)
    for y in (1e6, -1e6):
        sol = solve_response(p, y, 1.0, 0.0)
        assert max(abs(sol.da1), abs(sol.da2), abs(sol.dd), abs(sol.db)) < 1e-4


def test_batched_matrices_match_scalar(base_params):
    p = base_params(1.1, 0.2)
    ys = np.linspace(-3.0, 3.0, 7)
    mats = system_matrices(dict(vars(p), y=ys))
    assert mats.shape == (7, 4, 4)
    for k, y in enumerate(ys):
        np.testing.assert_array_equal(mats[k],
                                      build_system_matrix(p, float(y)).entries)
    thr = singularity_thresholds(mats)
    assert thr.shape == (7,) and np.all(thr > 0)


def _term_expansion(v, as_printed):
    """tau1, tau2, chi1, chi2, D term by term, through the auxiliary D1..D9."""
    k1, k2, g, f = v["kappa1"], v["kappa2"], v["gamma"], v["f"]
    G1, G2, J1, J2, J3 = v["G1"], v["G2"], v["J1"], v["J2"], v["J3"]
    th, ph, y = v["theta"], v["phi"], v["y"]
    eth, eph = cmath.exp(1j * th), cmath.exp(1j * ph)
    tau1 = (J1 * y**2 - J1 * J3**2 - J1 * g * f
            + G1 * G2 * y / eth + G2 * J2 * J3 * eph / eth)
    tau2 = J1 * g * y + J1 * f * y + G1 * G2 * f / eth
    chi1 = (J1 * y**2 - J1 * J3**2 - J1 * g * f
            + G1 * G2 * y * eth + G2 * J2 * J3 * eth / eph)
    chi2 = J1 * g * y + J1 * f * y + G1 * G2 * f * eth
    D1 = J2**2 - 1j * y * k1 - 1j * f * y + f * k1 - y**2
    D2 = -y**2 - 1j * f * y - 1j * y * k2 + f * k2
    D3 = -1j * g * y - 1j * y * k2 + g * k2 - y**2
    D4 = -y**2 + J3**2 - 1j * g * y - 1j * f * y + g * f
    D5 = -y**2 - 1j * y * k1 - 1j * y * k2 + k1 * k2
    D6 = 1j * (k1 + k2 + g + f)
    D7 = -g * f - g * k2 - f * k1 - k1 * k2 - f * k2 - g * k1
    D8 = g * f - 1j * f * y - 1j * g * y
    D9 = k1 + k2
    cross = 1.0 if as_printed else J1
    D = (-2 * J1 * J2 * J3 * G2 * math.cos(th - ph)
         - 2j * J2 * J3 * k2 * G1 * math.cos(ph)
         - 2j * J1 * G1 * G2 * f * math.cos(th)
         - 2 * J2 * J3 * G1 * y * math.cos(ph)
         - 2 * cross * G1 * G2 * y * math.cos(th)
         + G2**2 * D1 + G1**2 * D2 + J2**2 * D3 + J1**2 * D4 + J3**2 * D5
         + y**3 * D6 + y**2 * D7 + k1 * k2 * D8 - 1j * g * f * y * D9 + y**4)
    return tau1, tau2, chi1, chi2, D


@pytest.mark.parametrize("as_printed", [False, True])
def test_transfer_coefficients_match_term_expansion(as_printed):
    rng = np.random.default_rng(5150)
    ys = np.linspace(-5.0, 5.0, 201)
    for _ in range(20):
        p = random_params(rng)
        got = transfer_coefficients(dict(vars(p), y=ys), as_printed)
        for k, y in enumerate(ys.tolist()):
            ref = _term_expansion(dict(vars(p), y=y), as_printed)
            for name, a, b in zip(("tau1", "tau2", "chi1", "chi2", "D"),
                                  got, ref):
                assert abs(a[k] - b) <= 1e-10 * abs(b), (name, p, y)
