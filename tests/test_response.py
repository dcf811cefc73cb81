"""Response matrix assembly, the LU solve, and the kernel's closed form.

The closed form is `transfer_coefficients`: the numerators N12 and N21 of
the two inter-cavity elements of A1^-1 and the determinant D, checked here
against the LU solve and a term-by-term expansion. Their coefficients as
polynomials in y come from `transfer_polynomials`; D's are checked against
the eigenvalues of A1(0).
"""

import cmath
import itertools
import math

import numpy as np
import pytest

from nonrecip import (
    SingularMatrix,
    build_system_matrix,
    design_isolator,
    solve_response,
)
from nonrecip.response import (
    SINGULARITY_RTOL,
    pole_thresholds,
    system_matrices,
    transfer_coefficients,
    transfer_polynomials,
)
from nonrecip.sweep import figure_ids, figure_preset
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
    m = build_system_matrix(p, y)
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
    m = build_system_matrix(p, 0.0)
    np.testing.assert_array_equal(
        m, np.diag([p.kappa1, p.kappa2, p.f, p.gamma]).astype(complex))


def test_quadrature_phase_first_row(base_params):
    # at theta = phi = pi/2 the J2 entry rotates onto the negative real axis
    # and the ensemble/mechanics entry i*J3 becomes real for imaginary J3
    p = base_params(math.pi / 2)
    m = build_system_matrix(p, 0.0)
    np.testing.assert_allclose(m[0], [1.0, 0.5j, -0.01, 0.5j],
                               rtol=0, atol=1e-15)
    assert m[2, 3] == pytest.approx(-4.476)


def test_determinant_matches_cofactor_oracle(rng):
    for _ in range(50):
        p = random_params(rng)
        m = build_system_matrix(p, float(rng.normal()))
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
    assert sol.da1 == pytest.approx(1.0 / (p.kappa1 - 1j * y))
    assert sol.da2 == 0 and sol.dd == 0 and sol.db == 0


def test_solve_matches_cofactor_inverse(base_params):
    p = base_params(math.pi / 2)
    m = build_system_matrix(p, 0.0)
    oracle = _cofactor_inverse(m) @ np.array([1.0, 0, 0, 0], dtype=complex)
    sol = solve_response(p, 0.0, 1.0, 0.0)
    got = np.array([sol.da1, sol.da2, sol.dd, sol.db])
    np.testing.assert_allclose(got, oracle, rtol=1e-10)


def test_solve_residual_small(base_params, rng):
    for _ in range(20):
        p = random_params(rng)
        sol = solve_response(p, float(rng.normal()), 1.0, 0.7)
        m = build_system_matrix(p, sol.y)
        x = np.array([sol.da1, sol.da2, sol.dd, sol.db])
        b = np.array([1.0, 0.7, 0.0, 0.0])
        assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) < 1e-10


def test_closed_form_uncoupled_reductions(base_params):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, f=3.0)
    y = 0.45
    n12, n21, D = transfer_coefficients(dict(vars(p), y=y))
    assert n12 == 0 and n21 == 0
    assert D == pytest.approx(
        (p.kappa1 - 1j * y) * (p.kappa2 - 1j * y)
        * (p.f - 1j * y) * (p.gamma - 1j * y))
    # no path between the cavities: the LU solve agrees with the zero
    # inter-cavity element and leaves cavity 1 a lone cavity
    sol = solve_response(p, y, 1.0, 0.0)
    assert sol.da2 == n12 / D == 0
    assert sol.da1 == pytest.approx(1.0 / (p.kappa1 - 1j * y))


def test_cofactor_term_deletion(base_params):
    # with J3 = J2 = 0 the ensemble drops out of the numerators, leaving
    # i ((J1 y + G1 G2 e^{+-i theta}) y - J1 gamma f)
    #     - J1 (gamma + f) y - G1 G2 f e^{+-i theta}
    p = base_params(0.9, 0.3, J2=0.0, J3=0.0, kappa1=1.7, f=3.0,
                    G1=0.8, G2=0.4)
    y = 0.65
    n12, n21, _ = transfer_coefficients(dict(vars(p), y=y))
    for got, sign in ((n12, 1), (n21, -1)):
        e = cmath.exp(sign * 1j * p.theta)
        cofactor1 = (p.J1 * y + p.G1 * p.G2 * e) * y - p.J1 * p.gamma * p.f
        cofactor2 = p.J1 * (p.gamma + p.f) * y + p.G1 * p.G2 * p.f * e
        expect = 1j * cofactor1 - cofactor2
        assert got == pytest.approx(expect, rel=1e-13)


def test_closed_form_matches_solve(base_params, rng):
    # [A1^-1]_(2,1) is da2 under a drive of port 1 alone, and
    # [A1^-1]_(1,2) is da1 under a drive of port 2 alone
    for _ in range(100):
        p = random_params(rng)
        y = float(rng.normal())
        n12, n21, D = transfer_coefficients(dict(vars(p), y=y))
        lu21 = solve_response(p, y, 1.0, 0.0).da2
        lu12 = solve_response(p, y, 0.0, 1.0).da1
        assert abs(n12 / D - lu21) <= 1e-10 * abs(lu21)
        assert abs(n21 / D - lu12) <= 1e-10 * abs(lu12)


def test_determinant_formula_matches_numeric(base_params, rng):
    for _ in range(100):
        p = random_params(rng)
        y = float(rng.normal())
        num = np.linalg.det(build_system_matrix(p, y))
        D = transfer_coefficients(dict(vars(p), y=y))[2]
        assert abs(D - num) <= 1e-10 * abs(num)


def test_singular_pole_detected(base_params):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, kappa1=0.0)
    with pytest.raises(SingularMatrix):
        solve_response(p, 0.0, 1.0, 0.0)
    # the kernel's D falls under the same pole rule at the same point
    v = dict(vars(p), y=0.0)
    assert abs(transfer_coefficients(v)[2]) < pole_thresholds(v)


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
                                      build_system_matrix(p, float(y)))
    # the analytic row norms agree with the numeric ones of the built matrices
    thr = pole_thresholds(dict(vars(p), y=ys))
    ref = SINGULARITY_RTOL * np.prod(np.linalg.norm(mats, axis=2), axis=1)
    assert thr.shape == (7,) and np.all(thr > 0)
    np.testing.assert_allclose(thr, ref, rtol=1e-14, atol=0)


def _term_expansion(v):
    """N12, N21 and D term by term, through the cofactors and D1..D9.

    The numerators are combined here from this expansion's own cofactors,
    N12 = i chi1 - chi2 and N21 = i tau1 - tau2.
    """
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
    D = (-2 * J1 * J2 * J3 * G2 * math.cos(th - ph)
         - 2j * J2 * J3 * k2 * G1 * math.cos(ph)
         - 2j * J1 * G1 * G2 * f * math.cos(th)
         - 2 * J2 * J3 * G1 * y * math.cos(ph)
         - 2 * J1 * G1 * G2 * y * math.cos(th)
         + G2**2 * D1 + G1**2 * D2 + J2**2 * D3 + J1**2 * D4 + J3**2 * D5
         + y**3 * D6 + y**2 * D7 + k1 * k2 * D8 - 1j * g * f * y * D9 + y**4)
    return 1j * chi1 - chi2, 1j * tau1 - tau2, D


def test_transfer_coefficients_match_term_expansion():
    rng = np.random.default_rng(5150)
    ys = np.linspace(-5.0, 5.0, 201)
    thetas = np.linspace(0.0, 2.0 * math.pi, 9)
    phis = np.linspace(0.3, 6.0, 7)
    for _ in range(20):
        p = random_params(rng)
        got = transfer_coefficients(dict(vars(p), y=ys))
        for k, y in enumerate(ys.tolist()):
            ref = _term_expansion(dict(vars(p), y=y))
            for name, a, b in zip(("N12", "N21", "D"),
                                  got, ref):
                assert abs(a[k] - b) <= 1e-10 * abs(b), (name, p, y)
        # a scalar y with a theta row and a phi column: the loop order
        y = float(rng.uniform(-5.0, 5.0))
        got = transfer_coefficients(dict(vars(p), y=y, theta=thetas[None, :],
                                         phi=phis[:, None]))
        for (i, ph), (j, th) in itertools.product(enumerate(phis.tolist()),
                                                  enumerate(thetas.tolist())):
            ref = _term_expansion(dict(vars(p), y=y, theta=th, phi=ph))
            for name, a, b in zip(("N12", "N21", "D"), got, ref):
                assert a.shape == (len(phis), len(thetas))
                assert abs(a[i, j] - b) <= 1e-10 * abs(b), (name, p, y, th, ph)
        # a scalar y and scalar parameters, as at one point: the loop order
        got = transfer_coefficients(dict(vars(p), y=y))
        ref = _term_expansion(dict(vars(p), y=y))
        for name, a, b in zip(("N12", "N21", "D"), got, ref):
            assert type(a) is complex
            assert abs(a - b) <= 1e-10 * abs(b), (name, p, y)


def _horner(v):
    """N12, N21 and D by Horner's rule on `transfer_polynomials`, in the
    order of operations of `transfer_coefficients` at an array y."""
    y = v["y"]
    (J1, J1gf), n12, n21, (c3, c2, c1, c0) = transfer_polynomials(v)
    J1y, J1gfy = J1 * y, J1gf * y
    return tuple(1j * ((J1y + a1) * y + a0) - (J1gfy + b0)
                 for a1, a0, b0 in (n12, n21)) + (
        (((y + c3) * y + c2) * y + c1) * y + c0,)


def test_array_y_takes_horners_rule_bit_for_bit():
    # spectra, transmission_grid and verify read these bits
    rng = np.random.default_rng(2930)
    ys = np.linspace(-5.0, 5.0, 201)
    thetas = np.linspace(0.0, 2.0 * math.pi, 9)
    for _ in range(20):
        p = random_params(rng)
        for v in (dict(vars(p), y=ys),
                  dict(vars(p), y=ys[:, None], theta=thetas[None, :]),
                  dict(vars(p), y=ys, G1=rng.uniform(0.0, 2.0, ys.shape)),
                  dict(vars(p), y=np.array(float(rng.uniform(-5.0, 5.0))))):
            for got, ref in zip(transfer_coefficients(v), _horner(v)):
                assert got.shape == ref.shape
                assert np.array_equal(got, ref)


def test_transfer_polynomials_hold_only_the_parameters():
    rng = np.random.default_rng(27)
    p = random_params(rng)
    # no "y" is read, and scalars give Python numbers
    scalar = transfer_polynomials(vars(p))
    assert [len(part) for part in scalar] == [2, 3, 3, 4]
    assert all(type(c) in (float, complex) for part in scalar for c in part)
    # a phase array broadcasts, its first value giving the scalar's numbers
    thetas = np.array([p.theta, 0.3, 4.0])
    arrays = transfer_polynomials(dict(vars(p), theta=thetas))
    for s_part, a_part in zip(scalar, arrays):
        for s, a in zip(s_part, a_part):
            assert np.broadcast_to(a, thetas.shape)[0] == pytest.approx(
                s, rel=1e-14)
    # flipping both phases swaps the coefficients of N12 and N21
    flipped = transfer_polynomials(
        dict(vars(p), theta=-p.theta, phi=-p.phi))
    for a, b in zip(flipped[1] + flipped[2], scalar[2] + scalar[1]):
        assert a == pytest.approx(b, rel=1e-14, abs=1e-14)


def _d_roots(p):
    """The four roots of D, from the coefficients c3..c0 of the monic quartic."""
    c3, c2, c1, c0 = transfer_polynomials(vars(p))[3]
    return np.roots([1.0, c3, c2, c1, c0])


def _margin(p):
    """min Re(lambda) over M's eigenvalues lambda = i y_k: stable when > 0."""
    return float(-_d_roots(p).imag.max())


def test_determinant_is_the_characteristic_polynomial_of_m():
    # D(y) = det(M - i y) with M = A1(0), so the roots of D are -i times
    # the eigenvalues of M, as matched sets
    margins = {}
    for fid in figure_ids():
        p = figure_preset(fid).fixed
        lam = np.linalg.eigvals(build_system_matrix(p, 0.0))
        roots = _d_roots(p)
        gap = min(np.abs(roots - (-1j * lam)[list(order)]).max()
                  for order in itertools.permutations(range(4)))
        assert gap <= 1e-9 * np.abs(lam).max(), fid
        margins[fid] = _margin(p)
    assert len(margins) == 31
    # only three presets are linearly stable; the presets are not changed
    # to hide the other 28 (ROADMAP item 1)
    assert sum(m < 0.0 for m in margins.values()) == 28
    stable = {fid: m for fid, m in margins.items() if m > 0.0}
    assert stable == pytest.approx(
        {"fig4e": 0.9916, "fig4f": 0.9186, "fig4g": 0.7437}, abs=5e-5)


def test_criterion_point_candidates_are_unstable():
    # every candidate at criteria 01/02's designed point has a root of D in
    # the upper half plane; the criteria keep their point and thresholds
    d = design_isolator(1.0, 1.0, 1.0, 10.0)
    assert all(c.valid for c in d.root_candidates)
    margins = [_margin(d.to_model_params(i))
               for i in range(len(d.root_candidates))]
    assert margins == pytest.approx([-1.0195, -1.0195, -2.3223, -2.3223],
                                    abs=5e-5)
