"""Acceptance gate: the numbered end-to-end criteria, one test each.

Every test prints one PASS/FAIL line carrying the measured figure, so the
suite output doubles as an acceptance report (run with -s or read captured
output on failure). The tolerances are contractual; a red test means the
pinned behavior is genuinely not met, not that the bound needs loosening.
"""

import cmath
import math
from dataclasses import replace

import numpy as np

from nonrecip.cli import cli_main
from nonrecip.design import design_isolator, j3_roots, r_coefficients
from nonrecip.params import BareParams, Drives, ModelParams, RateUnit
from nonrecip.response import (
    build_system_matrix,
    pole_thresholds,
    solve_response,
    transfer_coefficients,
)
from nonrecip.steady import NonConvergence, solve_steady_state, steady_residual
from nonrecip.sweep import figure_preset, sweep, threshold_band
from nonrecip.transmission import transmission_grid, transmission_pair
from nonrecip.verify import random_params

SEED = 20240817


def _base(theta: float, phi: float) -> ModelParams:
    return ModelParams(kappa1=1.0, kappa2=1.0, gamma=1.0, f=10.0,
                       G1=0.5, G2=0.5, theta=theta, J1=0.5, J2=0.01,
                       phi=phi, J3=4.476j, unit=RateUnit("gamma", 1.0))


def _designed(angle: float) -> ModelParams:
    # The figure 2-4 couplings in _base are not an isolating point: they miss
    # the design conditions (G_i = sqrt(gamma kappa_i), J1 = G1 G2/(gamma + f),
    # J3 a quartic root, J2 the j2_literal quotient), and T12 never falls
    # below 0.3327 over the theta x phi plane. The regression landmark
    # tests/test_transmission.py::test_resonance_landmarks_at_quadrature pins
    # that point (T12 = 0.3337, T21 = 0.9966 at pi/2). Criteria 01/02 check
    # the designed equal-decay point at the same rates instead. At y = 0 and
    # theta = phi = pi/2 the T21 numerator is
    #     N21 = i (G2 J2 J3 - J1 J3^2 - J1 gamma f + G1 G2 f),
    # which the J2 quotient makes zero, so port 2 -> 1 is blocked there; the
    # phase duality of criterion 07 moves the block to T12 at 3pi/2.
    d = design_isolator(1.0, 1.0, 1.0, 10.0, unit=RateUnit("gamma", 1.0))
    return replace(d.to_model_params(), theta=angle, phi=angle)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n:02d}: {detail}")
    assert ok, f"criterion {n:02d}: {detail}"


def test_criterion_01_forward_isolation_at_quadrature():
    tp = transmission_pair(_designed(math.pi / 2), 0.0)
    ok = tp.T21 < 0.05 and tp.T12 > 0.95
    _report(1, ok, f"designed point, theta=phi=pi/2, y=0: "
                   f"T21={tp.T21:.6f} (blocked 2->1, need <0.05), "
                   f"T12={tp.T12:.6f} (open 1->2, need >0.95)")


def test_criterion_02_mirrored_isolation_at_three_quarters():
    tp = transmission_pair(_designed(3 * math.pi / 2), 0.0)
    ok = tp.T12 < 0.05 and tp.T21 > 0.95
    _report(2, ok, f"designed point, theta=phi=3pi/2, y=0: "
                   f"T12={tp.T12:.6f} (blocked 1->2, need <0.05), "
                   f"T21={tp.T21:.6f} (open 2->1, need >0.95)")


def test_criterion_03_reciprocity_at_aligned_phases():
    ys = np.linspace(-5.0, 5.0, 1001)
    worst = 0.0
    for ang in (0.0, math.pi):
        t12, t21, singular = transmission_grid(_base(ang, ang), ys)
        assert not singular.any()
        worst = max(worst, float(np.max(np.abs(t12 - t21))))
    _report(3, worst < 1e-10,
            f"max |T12-T21| = {worst:.3e} over 1001 points, "
            f"theta=phi in {{0, pi}}")


def test_criterion_04_designed_perfect_isolation():
    worst_lo = worst_hi = 0.0
    for f in (0.1, 1.0, 5.0):
        d = design_isolator(10.0, 1.0, 0.01, f)
        tp = transmission_pair(d.to_model_params(), 0.0)
        worst_lo = max(worst_lo, min(tp.T12, tp.T21))
        worst_hi = max(worst_hi, abs(max(tp.T12, tp.T21) - 1.0))
    ok = worst_lo < 1e-6 and worst_hi < 1e-6
    _report(4, ok, f"worst min(T) = {worst_lo:.3e}, worst |max(T)-1| = "
                   f"{worst_hi:.3e} over f in {{0.1, 1, 5}} at y=0")


def test_criterion_05_closed_form_matches_matrix_solve():
    # the kernel's [A1^-1]_(2,1) and [A1^-1]_(1,2) against the LU solve
    # driven at one port; a pole of either is redrawn
    rng = np.random.default_rng(SEED)
    worst, done = 0.0, 0
    while done < 1000:
        p = random_params(rng)
        y = float(rng.uniform(-5.0, 5.0))
        v = dict(vars(p), y=y)
        n12, n21, D = transfer_coefficients(v)
        try:
            lu21 = solve_response(p, y, 1.0, 0.0).da2
            lu12 = solve_response(p, y, 0.0, 1.0).da1
        except ArithmeticError:
            continue
        if abs(D) < pole_thresholds(v):
            continue
        for a, b in ((lu21, n12 / D), (lu12, n21 / D)):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-30))
        done += 1
    _report(5, worst < 1e-10,
            f"worst relative inter-cavity element error {worst:.3e} "
            f"over 1000 draws")


def test_criterion_06_determinant_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        y = float(rng.uniform(-5.0, 5.0))
        det = complex(np.linalg.det(build_system_matrix(p, y)))
        d = transfer_coefficients(dict(vars(p), y=y))[2]
        worst = max(worst, abs(det - d) / max(abs(det), abs(d), 1e-30))
    _report(6, worst < 1e-10,
            f"worst relative determinant error {worst:.3e} over 1000 draws "
            f"(default expansion; truncated variant documented separately)")


def test_criterion_07_phase_duality():
    rng = np.random.default_rng(SEED + 7)
    worst, done = 0.0, 0
    while done < 1000:
        p = random_params(rng)
        q = replace(p, theta=-p.theta, phi=-p.phi)
        ys = rng.uniform(-5.0, 5.0, size=5)
        try:
            for y in ys:
                tp = transmission_pair(p, float(y))
                tq = transmission_pair(q, float(y))
                for a, b in ((tp.T12, tq.T21), (tp.T21, tq.T12)):
                    worst = max(worst, abs(a - b) / max(a, b, 1e-30))
        except ArithmeticError:
            continue
        done += 1
    _report(7, worst < 1e-12,
            f"worst relative duality gap {worst:.3e} over 1000 draws x 5 y")


def test_criterion_08_j3_root_consistency():
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for _ in range(200):
        k1, k2, g, f = (float(10.0 ** rng.uniform(-2.0, 2.0))
                        for _ in range(4))
        G1, G2 = math.sqrt(g * k1), math.sqrt(g * k2)
        J1 = G1 * G2 / (g + f)
        r = r_coefficients(k1, k2, g, f, G1, G2, J1)
        coeff = max(abs(r.R7), abs(r.R8), abs(r.R9), 1e-30)
        for root in j3_roots(r):
            sq = root * root
            val = r.R7 * sq * sq + r.R8 * sq + r.R9
            mag = max(abs(r.R7 * sq * sq), abs(r.R8 * sq), abs(r.R9), coeff)
            worst = max(worst, abs(val) / mag)
    _report(8, worst < 1e-10,
            f"worst relative quartic residual {worst:.3e} over 200 draws")


def _random_operating_point(rng):
    def lograte(lo: float, hi: float) -> float:
        return float(10.0 ** rng.uniform(lo, hi))

    def phase() -> complex:
        return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

    omega = lograte(0.0, 1.3)
    bare = BareParams(
        Delta1=omega, Delta2=omega, Delta_en=omega, omega_m=omega,
        g1=lograte(-3.0, -2.0), g2=lograte(-3.0, -2.0),
        J1=float(rng.uniform(0.0, 1.0)), J2=float(rng.uniform(0.0, 1.0)),
        J3=float(rng.uniform(0.0, 1.0)) * phase(),
        kappa1=lograte(-1.0, 1.0), kappa2=lograte(-1.0, 1.0),
        gamma=lograte(-1.0, 1.0), f=lograte(-1.0, 1.0))
    drives = Drives(E1=lograte(0.0, 2.0) * phase(),
                    E2=lograte(0.0, 2.0) * phase())
    return bare, drives


def _solve_tamed(bare, drives):
    # Some raw draws land beyond a fold of the nonlinear response, where no
    # steady state exists at all (root searches from 100+ starts find
    # nothing). Halving the drive walks back inside the existence region;
    # the self-consistency check below runs at full rigor on the operating
    # point that results.
    halved = 0
    for _ in range(7):
        try:
            return drives, solve_steady_state(bare, drives), halved
        except NonConvergence:
            drives = Drives(E1=0.5 * drives.E1, E2=0.5 * drives.E2)
            halved += 1
    return drives, solve_steady_state(bare, drives), halved


def test_criterion_09_steady_state_self_consistency():
    rng = np.random.default_rng(SEED + 9)
    worst, tamed = 0.0, 0
    for _ in range(100):
        bare, drives = _random_operating_point(rng)
        drives, s, halved = _solve_tamed(bare, drives)
        tamed += bool(halved)
        res = float(np.linalg.norm(steady_residual(bare, drives, s)))
        worst = max(worst, res, s.residual_norm)
    z = solve_steady_state(bare, Drives())
    zero_ok = (z.alpha1 == 0 and z.alpha2 == 0 and z.rho == 0
               and z.beta == 0 and z.residual_norm == 0.0)
    ok = worst < 1e-10 and zero_ok
    _report(9, ok, f"worst residual norm {worst:.3e} over 100 draws "
                   f"({tamed} drive-rescaled); zero drive exact: {zero_ok}")


def test_criterion_10_suppression_bandwidth_trend():
    def band_width(fid: str) -> float:
        table = sweep(figure_preset(fid))
        band = threshold_band(table.data["y"], table.data["T21"],
                              0.5, below=True)
        return band["width"]

    f_widths = [band_width(f"fig5{c}") for c in "abc"]
    g_widths = [band_width(f"fig7{c}") for c in "abcd"]
    ok = (all(b >= a - 1e-12 for a, b in zip(f_widths, f_widths[1:]))
          and all(b >= a - 1e-12 for a, b in zip(g_widths, g_widths[1:])))
    _report(10, ok,
            "T21<0.5 band widths nondecreasing: f-sweep "
            + str([f"{w:.3f}" for w in f_widths]) + ", gamma-sweep "
            + str([f"{w:.3f}" for w in g_widths]))


def test_criterion_11_figure_determinism(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["figure", "fig3c", "--out", str(d1)]) == 0
    assert cli_main(["figure", "fig3c", "--out", str(d2)]) == 0
    capsys.readouterr()
    b1 = (d1 / "fig3c.csv").read_bytes()
    b2 = (d2 / "fig3c.csv").read_bytes()
    same = b1 == b2
    _report(11, same, f"fig3c CSV bytes across two runs: "
                      f"{'identical' if same else 'DIFFER'} ({len(b1)} bytes)")
