"""Nonlinear operating-point solver and the linearization bridge."""

import cmath
import importlib
import math
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from nonrecip import (
    BareParams,
    Drives,
    ModelParams,
    ResonanceMisaligned,
    SolverConfig,
    SteadyState,
    effective_couplings,
    linearized_params,
    solve_steady_state,
    steady_residual,
    transmission_grid,
)
from nonrecip.steady import NonConvergence, SingularJacobian

steady_mod = importlib.import_module("nonrecip.steady")


def _bare(**overrides):
    fields = dict(Delta1=10.0, Delta2=10.0, Delta_en=10.0, omega_m=10.0,
                  g1=4e-3, g2=4e-3, J1=0.5, J2=0.01, J3=4.476j,
                  kappa1=1.0, kappa2=1.0, gamma=1.0, f=10.0)
    fields.update(overrides)
    return BareParams(**fields)


def _fixed_point_oracle(b, d, mix=0.4, tol=1e-13, max_sweeps=200000):
    # plain damped Jacobi iteration on the update maps; deliberately a
    # different algorithm from the package's Newton solver
    a1 = a2 = rho = beta = 0j
    den_r = 1j * b.Delta_en + b.f
    den_b = 1j * b.omega_m + b.gamma
    for k in range(1, max_sweeps + 1):
        D1 = b.Delta1 + 2.0 * b.g1 * beta.real
        D2 = b.Delta2 + 2.0 * b.g2 * beta.real
        na1 = (d.E1 - 1j * b.J1 * a2 - 1j * b.J2 * rho) / (1j * D1 + b.kappa1)
        na2 = (d.E2 - 1j * b.J1 * a1) / (1j * D2 + b.kappa2)
        nrho = -(1j * b.J2.conjugate() * a1 + 2j * b.J3 * beta.real) / den_r
        nbeta = -(1j * b.g1 * abs(a1) ** 2 + 1j * b.g2 * abs(a2) ** 2
                  + 2j * b.J3 * rho.real) / den_b
        a1 = (1 - mix) * a1 + mix * na1
        a2 = (1 - mix) * a2 + mix * na2
        rho = (1 - mix) * rho + mix * nrho
        beta = (1 - mix) * beta + mix * nbeta
        if k % 50 == 0:
            s = SteadyState(alpha1=a1, alpha2=a2, rho=rho, beta=beta,
                            Delta1_eff=0.0, Delta2_eff=0.0, residual_norm=0.0)
            if np.linalg.norm(steady_residual(b, d, s)) < tol:
                return a1, a2, rho, beta
    raise AssertionError("oracle iteration did not settle")


def test_zero_drive_returns_exact_zero():
    s = solve_steady_state(_bare(), Drives())
    assert s.alpha1 == 0 and s.alpha2 == 0 and s.rho == 0 and s.beta == 0
    assert s.residual_norm == 0.0
    assert s.iterations == 0
    assert s.Delta1_eff == 10.0 and s.Delta2_eff == 10.0


def test_zero_drive_candidate_has_zero_residual():
    s = SteadyState(alpha1=0, alpha2=0, rho=0, beta=0,
                    Delta1_eff=10.0, Delta2_eff=10.0, residual_norm=0.0)
    r = steady_residual(_bare(), Drives(), s)
    assert r.shape == (8,)
    assert np.all(r == 0.0)


def test_decoupled_cavity_analytic():
    b = _bare(g1=0.0, g2=0.0, J1=0.0, J2=0.0, J3=0.0, Delta1=2.0)
    d = Drives(E1=1.5 + 0.5j)
    s = solve_steady_state(b, d)
    assert s.alpha1 == pytest.approx((1.5 + 0.5j) / (1j * 2.0 + 1.0), rel=1e-14)
    assert abs(s.alpha2) < 1e-14 and abs(s.rho) < 1e-14 and abs(s.beta) < 1e-14


def test_decoupled_candidate_residual_zero():
    b = _bare(g1=0.0, g2=0.0, J1=0.0, J2=0.0, J3=0.0, Delta1=2.0)
    d = Drives(E1=1.5 + 0.5j)
    s = SteadyState(alpha1=(1.5 + 0.5j) / (1j * 2.0 + 1.0), alpha2=0,
                    rho=0, beta=0, Delta1_eff=2.0, Delta2_eff=10.0,
                    residual_norm=0.0)
    assert np.linalg.norm(steady_residual(b, d, s)) < 1e-15


def test_linear_tunneling_pair():
    b = _bare(g1=0.0, g2=0.0, J2=0.0, J3=0.0, J1=0.8,
              Delta1=2.0, Delta2=-1.0, kappa2=0.5)
    d = Drives(E1=1.0, E2=0.5 - 0.25j)
    s = solve_steady_state(b, d)
    m = np.array([[1j * 2.0 + 1.0, 1j * 0.8],
                  [1j * 0.8, 1j * -1.0 + 0.5]])
    alpha = np.linalg.solve(m, np.array([1.0, 0.5 - 0.25j]))
    assert s.alpha1 == pytest.approx(complex(alpha[0]), rel=1e-12)
    assert s.alpha2 == pytest.approx(complex(alpha[1]), rel=1e-12)
    assert abs(s.rho) < 1e-13 and abs(s.beta) < 1e-13


def test_nonlinear_state_matches_oracle():
    b = _bare()
    d = Drives(E1=30.0, E2=20.0j)
    s = solve_steady_state(b, d)
    assert s.residual_norm < 1e-10
    a1, a2, rho, beta = _fixed_point_oracle(b, d)
    assert abs(s.alpha1 - a1) <= 1e-8 * abs(a1)
    assert abs(s.alpha2 - a2) <= 1e-8 * abs(a2)
    assert abs(s.rho - rho) <= 1e-8 * abs(rho)
    assert abs(s.beta - beta) <= 1e-8 * abs(beta)
    # stored effective detunings are consistent with the returned beta
    assert s.Delta1_eff == pytest.approx(b.Delta1 + 2 * b.g1 * s.beta.real)


def test_residual_self_consistency():
    s = solve_steady_state(_bare(), Drives(E1=100.0, E2=100.0j))
    r = steady_residual(_bare(), Drives(E1=100.0, E2=100.0j), s)
    assert float(np.linalg.norm(r)) == pytest.approx(s.residual_norm, abs=1e-13)
    assert s.residual_norm < 1e-12


def test_drive_linearity():
    b = _bare(g1=0.0, g2=0.0, J3=0.0)
    d = Drives(E1=2.0, E2=1.0 - 0.5j)
    c = 3.7
    s1 = solve_steady_state(b, d)
    s2 = solve_steady_state(b, Drives(E1=c * d.E1, E2=c * d.E2))
    assert s2.alpha1 == pytest.approx(c * s1.alpha1, rel=1e-12)
    assert s2.alpha2 == pytest.approx(c * s1.alpha2, rel=1e-12)
    assert s2.rho == pytest.approx(c * s1.rho, rel=1e-12, abs=1e-15)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverConfig(max_iter=bad)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3


def test_nonconvergence_reports_best_residual():
    cfg = SolverConfig(tol=1e-30, max_iter=2)
    with pytest.raises(NonConvergence) as exc_info:
        solve_steady_state(_bare(), Drives(E1=50.0), cfg)
    assert exc_info.value.best_residual > 0.0


def test_effective_coupling_aligned_phases():
    b = _bare(g1=0.1, g2=0.2)
    s = SteadyState(alpha1=2.0, alpha2=3.0, rho=0, beta=0,
                    Delta1_eff=10.0, Delta2_eff=10.0, residual_norm=0.0)
    G1, G2, theta = effective_couplings(b, s)
    assert G1 == pytest.approx(0.2)
    assert G2 == pytest.approx(0.6)
    assert theta == 0.0
    # a zero coupling leaves no relative phase: theta is returned as 0
    s = SteadyState(alpha1=2.0, alpha2=3.0j, rho=0, beta=0,
                    Delta1_eff=10.0, Delta2_eff=10.0, residual_norm=0.0)
    assert effective_couplings(_bare(g1=0.1, g2=0.0), s) == (0.2, 0.0, 0.0)


def test_effective_coupling_quadrature():
    b = _bare(g1=0.1, g2=0.1)
    s = SteadyState(alpha1=2.0, alpha2=3.0j, rho=0, beta=0,
                    Delta1_eff=10.0, Delta2_eff=10.0, residual_norm=0.0)
    assert effective_couplings(b, s)[2] == pytest.approx(math.pi / 2)


def test_effective_coupling_matches_direct_arithmetic():
    b = _bare()
    s = solve_steady_state(b, Drives(E1=30.0, E2=20.0j))
    G1, G2, theta = effective_couplings(b, s)
    assert G1 == pytest.approx(abs(b.g1 * s.alpha1), rel=1e-12)
    assert G2 == pytest.approx(abs(b.g2 * s.alpha2), rel=1e-12)
    expected = cmath.phase(b.g2 * s.alpha2) - cmath.phase(b.g1 * s.alpha1)
    assert theta == pytest.approx(expected % (2 * math.pi), rel=1e-12)


def test_zero_amplitude_gives_theta_zero():
    # cavity 1 undriven and decoupled: alpha1 = 0 while g1 != 0, which is
    # the linear problem of g1 = 0, so theta is 0 as there
    b = _bare(J1=0.0, J2=0.0, J3=0.0)
    s = solve_steady_state(b, Drives(E2=5.0))
    assert s.alpha1 == 0
    assert effective_couplings(b, s) == (0.0, abs(b.g2 * s.alpha2), 0.0)


def _compensated_solve(drive, **overrides):
    # choose laser detunings so the drive-shifted detunings land on the
    # mechanical frequency, which the linearization requires
    wm = overrides.get("omega_m", 10.0)
    b = _bare(**{"Delta1": wm, "Delta2": wm, "Delta_en": wm, **overrides})
    s = solve_steady_state(b, drive)
    for _ in range(3):
        b = replace(b, Delta1=wm - 2.0 * b.g1 * s.beta.real,
                    Delta2=wm - 2.0 * b.g2 * s.beta.real)
        s = solve_steady_state(b, drive)
    return b, s


def _full_linearization_T(b, s, ys):
    """T12 and T21 of the full linearization about ``s``, at detunings ``ys``.

    The fluctuations obey dz/dt = -J z + input, with J the real 8x8
    `_jacobian`, which keeps both sidebands. In the complex basis
    (d alpha1, d alpha2, d rho, d beta and their conjugates) a probe at
    laser-frame frequency nu = omega_m + y gives
    T = sqrt(kappa1 kappa2) |[(J_c - i nu)^-1]| at (2,1) and (1,2).
    """
    jac = steady_mod._jacobian(
        b, steady_mod._pack(s.alpha1, s.alpha2, s.rho, s.beta))
    to_complex = np.zeros((8, 8), dtype=complex)
    for k in range(4):
        to_complex[k, 2 * k:2 * k + 2] = 1.0, 1j
        to_complex[k + 4, 2 * k:2 * k + 2] = 1.0, -1j
    jc = to_complex @ jac @ np.linalg.inv(to_complex)
    nu = b.omega_m + np.asarray(ys)
    inv = np.linalg.inv(jc - 1j * nu[:, None, None] * np.eye(8))
    pref = math.sqrt(b.kappa1 * b.kappa2)
    return pref * np.abs(inv[:, 1, 0]), pref * np.abs(inv[:, 0, 1])


def test_linearized_params_round_trip():
    d = Drives(E1=100.0, E2=100.0j)
    b, s = _compensated_solve(d)
    p = linearized_params(b, s)
    assert isinstance(p, ModelParams)
    G1, G2, theta = effective_couplings(b, s)
    assert p.G1 == pytest.approx(G1, rel=1e-12)
    assert p.G2 == pytest.approx(G2, rel=1e-12)
    assert p.theta == pytest.approx(theta, rel=1e-12)
    assert p.kappa1 == b.kappa1 and p.f == b.f
    assert p.J3 == b.J3
    assert p.J2 == abs(b.J2)


@pytest.mark.parametrize("couplings", [{}, {"g1": 0.0}, {"g1": -4e-3}],
                         ids=["g1-positive", "g1-zero", "g1-negative"])
def test_linearized_phi_matches_the_full_linearization(couplings):
    # with J3 != 0, rho's phase is tied to beta's, so phi carries the cavity
    # turn that makes G1 real (arg(g2 alpha2) where g1 = 0); phi = arg J2
    # alone misses T21 by 2.0e-2 here. The RWA gap is O(1/omega_m).
    b, s = _compensated_solve(Drives(E1=1e4, E2=1e4j), J2=1.0, J3=2.225j,
                              omega_m=1e3, **couplings)
    ys = np.linspace(-5.0, 5.0, 201)
    t12, t21, singular = transmission_grid(linearized_params(b, s), ys)
    full12, full21 = _full_linearization_T(b, s, ys)
    assert not singular.any()
    assert np.abs(t12 - full12).max() < 1e-3
    assert np.abs(t21 - full21).max() < 1e-3


def _alpha1_zero_point(alpha2, **overrides):
    """Bare point, drives and state with alpha1 = 0 exactly, at alignment.

    The backward map at aligned resonance: row 3 makes rho linear in
    x = Re beta, row 4 then fixes x by one linear equation, the laser
    detunings put Delta_j + 2 g_j x on omega_m, and rows 1 and 2 give the
    drives.
    """
    wm = overrides["omega_m"]
    b = _bare(**{"Delta_en": wm, **overrides})
    ce = 1j * b.Delta_en + b.f
    cm = 1j * b.omega_m + b.gamma
    rho_per_x = -2j * b.J3 / ce
    drive = -1j * b.g2 * abs(alpha2) ** 2 / cm
    x = drive.real / (1.0 - (-2j * b.J3 * rho_per_x.real / cm).real)
    rho = rho_per_x * x
    beta = drive - 2j * b.J3 * rho.real / cm
    b = replace(b, Delta1=wm - 2.0 * b.g1 * beta.real,
                Delta2=wm - 2.0 * b.g2 * beta.real)
    d = Drives(E1=1j * b.J1 * alpha2 + 1j * b.J2 * rho,
               E2=(1j * wm + b.kappa2) * alpha2)
    s = SteadyState(alpha1=0j, alpha2=alpha2, rho=rho, beta=beta,
                    Delta1_eff=b.Delta1 + 2.0 * b.g1 * beta.real,
                    Delta2_eff=b.Delta2 + 2.0 * b.g2 * beta.real,
                    residual_norm=0.0)
    return b, d, s


def test_exact_zero_alpha1_is_linearized():
    # alpha1 = 0 with g1 != 0 is the linear problem of g1 = 0: theta = 0 and
    # the cavities turn by arg(g2 alpha2). Newton from zero with the same
    # drives lands at |alpha1| ~ 6e-18, where theta and phi are rounding
    # noise but the loop phase phi - theta, and so T, is the same
    b, d, s = _alpha1_zero_point(10.0 * cmath.exp(0.7j), J2=1.0, J3=2.225j,
                                 omega_m=1e3)
    assert np.linalg.norm(steady_residual(b, d, s)) < SolverConfig().tol
    p = linearized_params(b, s)
    assert p.G1 == 0.0 and p.theta == 0.0
    ys = np.linspace(-5.0, 5.0, 201)
    t12, t21, singular = transmission_grid(p, ys)
    full12, full21 = _full_linearization_T(b, s, ys)
    assert not singular.any()
    assert np.abs(t12 - full12).max() < 1e-3
    assert np.abs(t21 - full21).max() < 1e-3

    near = solve_steady_state(b, d)
    assert 0.0 < abs(near.alpha1) < 1e-15
    q = linearized_params(b, near)
    assert q.G1 != 0.0
    loop = math.remainder(q.phi - q.theta - (p.phi - p.theta), 2.0 * math.pi)
    assert abs(loop) < 1e-12
    n12, n21, _ = transmission_grid(q, ys)
    assert np.abs(n12 - t12).max() < 1e-12
    assert np.abs(n21 - t21).max() < 1e-12


def _chain_draws(rng, n):
    # bare points with real J2 and both signs of g1; the drives, in units
    # of 10 omega_m, keep the amplitudes, and so G1 and G2, fixed in omega_m
    for _ in range(n):
        kappa1, kappa2, gamma = 10.0 ** rng.uniform(-0.5, 0.5, 3)
        f = 10.0 ** rng.uniform(-0.5, 1.0)
        J1, J2, J3_mag = rng.uniform(0.1, 2.0, 3)
        J3 = J3_mag * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        g1 = 4e-3 * rng.choice((-1.0, 1.0))
        e = rng.normal(size=4)
        yield (dict(kappa1=kappa1, kappa2=kappa2, gamma=gamma, f=f, J1=J1,
                    J2=J2, J3=J3, g1=g1, g2=4e-3),
               (complex(e[0], e[1]), complex(e[2], e[3])))


def test_drives_to_t_gap_is_the_rwa_gap():
    # drives -> Newton -> linearized_params -> kernel against the full 8x8
    # linearization: the RWA leaves a gap of O(1/omega_m), so it shrinks
    # tenfold from omega_m = 1e2 to 1e3; a wrong phase would not shrink
    ys = np.linspace(-5.0, 5.0, 201)
    for overrides, (n1, n2) in _chain_draws(np.random.default_rng(0), 20):
        gaps = []
        for wm in (1e2, 1e3):
            b, s = _compensated_solve(
                Drives(E1=10.0 * wm * n1, E2=10.0 * wm * n2),
                omega_m=wm, **overrides)
            t12, t21, singular = transmission_grid(linearized_params(b, s),
                                                   ys)
            full12, full21 = _full_linearization_T(b, s, ys)
            assert not singular.any()
            gaps.append(max(np.abs(t12 - full12).max(),
                            np.abs(t21 - full21).max()))
        assert 8.0 <= gaps[0] / gaps[1] <= 12.0, (overrides, gaps)


def test_linearized_params_rejects_misaligned_detunings():
    b = _bare(Delta1=9.0)  # shifted detuning cannot match omega_m
    s = solve_steady_state(b, Drives(E1=30.0))
    with pytest.raises(ResonanceMisaligned) as exc_info:
        linearized_params(b, s)
    assert "Delta1_eff" in str(exc_info.value)


def test_homotopy_handles_strong_drive():
    # strong enough that the radiation-pressure shift is macroscopic
    b = _bare(g1=0.02, g2=0.02)
    d = Drives(E1=400.0, E2=300.0j)
    s = solve_steady_state(b, d)
    assert s.residual_norm < 1e-10
    assert np.linalg.norm(steady_residual(b, d, s)) < 1e-10


# a detuned, complex-coupled point where direct Newton from zero drive
# stalls but the 10-step drive ramp converges
_RAMP_BARE = BareParams(
    Delta1=1.4, Delta2=1.4, Delta_en=1.4, omega_m=1.4, g1=0.0082, g2=0.0053,
    J1=1.0, J2=0.23, J3=-0.59 - 0.073j, kappa1=0.25, kappa2=0.73, gamma=0.3,
    f=0.25)
_RAMP_DRIVES = Drives(E1=-60.0 - 18.0j, E2=1.1 - 0.37j)


def test_drive_ramp_rescues_direct_failure(monkeypatch):
    b, d = _RAMP_BARE, _RAMP_DRIVES
    with pytest.raises(NonConvergence, match="line search stalled"):
        steady_mod._newton(steady_mod._Terms(b), d, SolverConfig(),
                           (0j, 0j, 0j, 0j))
    calls = []
    newton = steady_mod._newton

    def counted(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(steady_mod, "_newton", counted)
    s = solve_steady_state(b, d)
    assert len(calls) == 11  # the direct attempt plus 10 ramp steps
    assert np.linalg.norm(steady_residual(b, d, s)) < 1e-12


def test_residual_norm_is_numpy_norm_exactly():
    # convergence is decided on the norm steady_residual gives for the
    # returned state, so the reported residual_norm is that norm to the bit
    rng = np.random.default_rng(18)
    cases = [(_bare(), Drives(E1=e * cmath.exp(1j * a), E2=1j * e))
             for e, a in zip(10.0 ** rng.uniform(1.0, math.log10(1500.0), 30),
                             rng.uniform(0.0, 2.0 * math.pi, 30))]
    cases += [(_bare(g1=0.02, g2=0.02), Drives(E1=e, E2=-e))
              for e in 10.0 ** rng.uniform(1.0, math.log10(400.0), 10)]
    cases.append((_RAMP_BARE, _RAMP_DRIVES))
    for b, d in cases:
        s = solve_steady_state(b, d)
        assert s.residual_norm == float(np.linalg.norm(steady_residual(b, d, s)))


@pytest.mark.parametrize("b, d, expected", [
    # the steady point of tests/test_cli.py
    (_bare(), Drives(E1=100.0, E2=100.0j),
     "((0.5111203428396652-10.02379131941032j), "
     "(9.826698831617676+1.4839577009331981j), "
     "(-0.04231155929652378+0.04180043895368413j), "
     "(-0.08276162525781679+0.029601145356466414j), 3)"),
    (_RAMP_BARE, _RAMP_DRIVES,
     "((-50.99002756579344-29.067113962597183j), "
     "(13.407718971500639+57.22483477139657j), "
     "(-48.489044086108315-11.166115142564507j), "
     "(-69.83381088671632-20.021102644704797j), 47)"),
    (_bare(), Drives(E1=1500.0, E2=1500.0j),
     "((7.919517464251005-152.69649379287102j), "
     "(149.59474769945828+22.944803441180206j), "
     "(-8.627209625544118+8.619290108079866j), "
     "(-19.094954468086584+5.813582609978436j), 4)"),
], ids=["cli-point", "ramp-rescued", "drive-1500"])
def test_iterates_are_pinned_bit_for_bit(b, d, expected):
    # reprs recorded from the solver before its fixed terms were hoisted
    # out of the iteration; any reordering of its arithmetic shows here
    s = solve_steady_state(b, d)
    assert repr((s.alpha1, s.alpha2, s.rho, s.beta, s.iterations)) == expected


def _reference_newton(p, t, d, cfg, u0):
    # Newton on the eight real components with the real Jacobian, LAPACK's
    # solve, np.linalg.norm and np.all(np.isfinite(...)): the iteration
    # whose outcomes steady._newton must reproduce; it works from the
    # parameters p and leaves the solver's terms t unused
    x = steady_mod._pack(*u0)
    fx = steady_mod._residual_vec(p, d, x)
    n = float(np.linalg.norm(fx))
    best = n
    for it in range(cfg.max_iter):
        if n < cfg.tol:
            return steady_mod._unpack(x), n, it
        jac = steady_mod._jacobian(p, x)
        try:
            step = np.linalg.solve(jac, fx)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"Newton step unsolvable: {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("Newton step is not finite")
        lam = 1.0
        improved = False
        for _ in range(60):
            xn = x - lam * step
            fn = steady_mod._residual_vec(p, d, xn)
            nn = float(np.linalg.norm(fn))
            if nn < n or nn < cfg.tol:
                improved = True
                break
            lam *= 0.5
        if not improved:
            raise NonConvergence("line search stalled", best)
        x, fx, n = xn, fn, nn
        best = min(best, n)
    if n < cfg.tol:
        return steady_mod._unpack(x), n, cfg.max_iter
    raise NonConvergence("iteration budget exhausted", best)


def _outcome(b, d):
    try:
        return solve_steady_state(b, d)
    except (NonConvergence, SingularJacobian) as exc:
        return exc


def test_newton_iterates_are_the_reference_iterates(monkeypatch):
    rng = np.random.default_rng(2024)
    cases = [(_bare(), Drives(E1=e * cmath.exp(1j * a), E2=1j * e))
             for e, a in zip(10.0 ** rng.uniform(1.0, math.log10(200.0), 40),
                             rng.uniform(0.0, 2.0 * math.pi, 40))]
    cases += [(_bare(g1=0.02, g2=0.02), Drives(E1=e, E2=-e))
              for e in 10.0 ** rng.uniform(1.0, math.log10(200.0), 10)]
    # the ramp-rescued point
    cases.append((_RAMP_BARE, _RAMP_DRIVES))
    ours = [_outcome(b, d) for b, d in cases]
    refs = []
    for b, d in cases:
        monkeypatch.setattr(steady_mod, "_newton",
                            partial(_reference_newton, b))
        refs.append(_outcome(b, d))
    # the step is no longer LAPACK's, so the iterates agree to rounding, not
    # bit for bit: same outcome and iteration count, amplitudes to 1e-13
    for (b, d), s, r in zip(cases, ours, refs):
        assert type(s) is type(r) is SteadyState
        assert s.iterations == r.iterations
        for name in ("alpha1", "alpha2", "rho", "beta"):
            a, ref = getattr(s, name), getattr(r, name)
            assert abs(a - ref) <= 1e-13 * abs(ref), name
        # a converged residual is rounding noise of the equations' terms, so
        # it is compared relative to their scale, the drive, not to itself
        assert s.residual_norm < SolverConfig().tol
        assert abs(s.residual_norm - r.residual_norm) <= 1e-13 * math.hypot(
            abs(d.E1), abs(d.E2))


def test_elimination_step_matches_lapack():
    rng = np.random.default_rng(15)
    worst = 0.0
    for k in range(600):
        kw = dict(Delta1=rng.normal(), Delta2=rng.normal(),
                  Delta_en=rng.normal(), omega_m=rng.uniform(0.1, 2.0),
                  g1=rng.normal() * 0.1, g2=rng.normal() * 0.1,
                  J1=rng.normal(), J2=complex(*rng.normal(size=2)),
                  J3=complex(*rng.normal(size=2)),
                  kappa1=rng.uniform(0.0, 2.0), kappa2=rng.uniform(0.0, 2.0),
                  gamma=rng.uniform(0.0, 2.0), f=rng.uniform(0.0, 2.0))
        # c2 = 0 and ce = 0 with det M != 0: the adjugate never divides by them
        if k % 3 == 1:
            kw.update(kappa2=0.0, Delta2=-2.0 * kw["g2"] * 0.7)
        elif k % 3 == 2:
            kw.update(f=0.0, Delta_en=0.0)
        p = BareParams(**kw)
        d = Drives(E1=complex(*rng.normal(size=2)),
                   E2=complex(*rng.normal(size=2)))
        x = rng.normal(size=8)
        if k % 3 == 1:
            x[6] = 0.7  # Re(beta), so Delta2_eff = 0
        u = steady_mod._unpack(x)
        c2 = 1j * (p.Delta2 + 2.0 * p.g2 * x[6]) + p.kappa2
        ce = 1j * p.Delta_en + p.f
        assert (c2 == 0) == (k % 3 == 1) and (ce == 0) == (k % 3 == 2)
        fx = steady_mod._residual_vec(p, d, x)
        ref = np.linalg.solve(steady_mod._jacobian(p, x), fx)
        t = steady_mod._Terms(p)
        step = steady_mod._pack(*steady_mod._step(
            t, u, steady_mod._residual(t, d, *u)))
        worst = max(worst, float(np.linalg.norm(step - ref)
                                 / np.linalg.norm(ref)))
    assert worst <= 1e-10


def test_unpack_is_numpy_bit_for_bit():
    rng = np.random.default_rng(8)
    for k in range(400):
        v = rng.normal(size=8) * 10.0 ** rng.uniform(-200.0, 200.0, 8)
        if k % 4:
            v[rng.integers(8)] = (math.inf, -math.inf, math.nan)[k % 4 - 1]
        assert repr(steady_mod._unpack(v)) == repr(tuple(
            complex(v[i], v[i + 1]) for i in range(0, 8, 2)))


def test_singular_newton_step_raises():
    # cavity 1 decoupled, undamped and on resonance: its linear block of the
    # Jacobian is zero, so the very first Newton step is unsolvable
    b = _bare(kappa1=0.0, Delta1=0.0, J1=0.0, J2=0.0, g1=0.0)
    with pytest.raises(SingularJacobian):
        solve_steady_state(b, Drives(E1=30.0))


def test_non_finite_newton_step_raises():
    # a residual of 1e308 overflows the eliminated step to inf
    t = steady_mod._Terms(_bare())
    with pytest.raises(SingularJacobian, match="^Newton step is not finite$"):
        steady_mod._step(t, (0j,) * 4, (1e308 + 1e308j,) * 4)


def test_unsolvable_mechanical_row_raises():
    # c1 = c2 = ce = cm = 1 and only J3 couples: with u = 0 the eliminated
    # mechanical row gives Re g = 1, so b = Re a / (1 - Re g) divides by 0
    t = SimpleNamespace(
        Delta1=0.0, Delta2=0.0, kappa1=1.0, kappa2=1.0, g1x2=0.0, g2x2=0.0,
        ce=1.0, cm=1.0, j1sq=0.0, j2sq=0.0, j1sq_ce=0.0, m01=0.0, m12=0.0,
        m21=0.0, mJ2=0.0, mJ2c=0.0, i2g1=0.0, i2g2=0.0, i2J3=1.0)
    with pytest.raises(SingularJacobian,
                       match=r"^Newton step unsolvable: 1 - Re g = 0$"):
        steady_mod._step(t, (0j,) * 4, (1.0, 0.0, 0.0, 0.0))


def test_huge_trial_step_is_rejected_not_overflowed():
    # kappa1 = 0 with Delta1 = 1e-200 leaves cavity 1 nearly singular, so a
    # Newton step is finite but so large that squaring a trial amplitude
    # overflows; the line search must reject that trial, not raise
    # OverflowError from the residual
    b = _bare(Delta1=1e-200, J1=0.0, J2=0.0, kappa1=0.0)
    d = Drives(E1=30.0)
    cfg = SolverConfig()
    try:
        s = solve_steady_state(b, d, cfg)
    except (NonConvergence, SingularJacobian):
        return
    assert np.linalg.norm(steady_residual(b, d, s)) < cfg.tol
