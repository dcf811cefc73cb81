"""Nonlinear operating-point solver and the linearization bridge."""

import cmath
import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from nonrecip import (
    BareParams,
    Drives,
    ModelParams,
    ResonanceMisaligned,
    SolverConfig,
    SteadyState,
    ZeroAmplitude,
    effective_couplings,
    linearized_params,
    solve_steady_state,
    steady_residual,
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


def test_continuity_under_drive_halving():
    b = _bare()
    cfg = SolverConfig()
    s_full = solve_steady_state(b, Drives(E1=80.0, E2=50.0j), cfg)
    s_half = solve_steady_state(b, Drives(E1=40.0, E2=25.0j), cfg,
                                initial=s_full)
    assert s_half.residual_norm < cfg.tol
    assert s_half.iterations <= cfg.max_iter


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(damping=1.5)
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


def test_zero_amplitude_phase_undefined():
    # cavity 1 undriven and decoupled: alpha1 = 0 while g1 != 0, so the
    # relative phase of the couplings has no value
    b = _bare(J1=0.0, J2=0.0, J3=0.0)
    s = solve_steady_state(b, Drives(E2=5.0))
    assert s.alpha1 == 0
    with pytest.raises(ZeroAmplitude):
        effective_couplings(b, s)


def _compensated_solve(drive):
    # choose laser detunings so the drive-shifted detunings land on the
    # mechanical frequency, which the linearization requires
    b = _bare()
    s = solve_steady_state(b, drive)
    for _ in range(3):
        shift = 2.0 * b.g1 * s.beta.real
        b = _bare(Delta1=10.0 - shift, Delta2=10.0 - shift)
        s = solve_steady_state(b, drive)
    return b, s


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


def test_drive_ramp_rescues_direct_failure(monkeypatch):
    # detuned, complex-coupled point where direct Newton from zero drive
    # stalls but the 10-step drive ramp converges
    b = BareParams(Delta1=1.4, Delta2=1.4, Delta_en=1.4, omega_m=1.4,
                   g1=0.0082, g2=0.0053, J1=1.0, J2=0.23, J3=-0.59 - 0.073j,
                   kappa1=0.25, kappa2=0.73, gamma=0.3, f=0.25)
    d = Drives(E1=-60.0 - 18.0j, E2=1.1 - 0.37j)
    with pytest.raises(NonConvergence, match="line search stalled"):
        steady_mod._newton(b, d, SolverConfig(), (0j, 0j, 0j, 0j))
    calls = []
    newton = steady_mod._newton

    def counted(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(steady_mod, "_newton", counted)
    s = solve_steady_state(b, d)
    assert len(calls) == 11  # the direct attempt plus 10 ramp steps
    assert np.linalg.norm(steady_residual(b, d, s)) < 1e-12


def _reference_newton(p, d, cfg, u0):
    # Newton on the eight real components with the real Jacobian, LAPACK's
    # solve, np.linalg.norm and np.all(np.isfinite(...)): the iteration
    # whose outcomes steady._newton must reproduce
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
        lam = cfg.damping
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
    # the ramp-rescued point of test_drive_ramp_rescues_direct_failure
    cases.append((BareParams(
        Delta1=1.4, Delta2=1.4, Delta_en=1.4, omega_m=1.4, g1=0.0082,
        g2=0.0053, J1=1.0, J2=0.23, J3=-0.59 - 0.073j, kappa1=0.25,
        kappa2=0.73, gamma=0.3, f=0.25), Drives(E1=-60.0 - 18.0j,
                                                 E2=1.1 - 0.37j)))
    ours = [_outcome(b, d) for b, d in cases]
    monkeypatch.setattr(steady_mod, "_newton", _reference_newton)
    refs = [_outcome(b, d) for b, d in cases]
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
        step = steady_mod._pack(*steady_mod._step(
            p, u, steady_mod._residual(p, d, *u)))
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
