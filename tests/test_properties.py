"""Property-based invariants over randomized parameter sets."""

import dataclasses
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from nonrecip.design import NoValidDesign, design_isolator
from nonrecip.params import (
    BareParams,
    Drives,
    ModelParams,
    RateUnit,
    TransmissionPoint,
    convert_unit,
    wrap_phase,
)
from nonrecip.response import (
    SingularMatrix,
    build_system_matrix,
    pole_thresholds,
    solve_response,
    transfer_coefficients,
)
from nonrecip.steady import solve_steady_state
from nonrecip.transmission import Direction, isolation_metrics, transmission_pair

TWO_PI = 2.0 * math.pi

rates = st.floats(min_value=0.05, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
couplings = st.floats(min_value=0.0, max_value=5.0,
                      allow_nan=False, allow_infinity=False)
phases = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
detunings = st.floats(min_value=-20.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False)


@st.composite
def model_params(draw):
    return ModelParams(
        kappa1=draw(rates), kappa2=draw(rates), gamma=draw(rates),
        f=draw(rates), G1=draw(couplings), G2=draw(couplings),
        theta=draw(phases), J1=draw(couplings), J2=draw(couplings),
        phi=draw(phases), J3=complex(0.0, draw(couplings)),
        unit=RateUnit("gamma", 1.0))


def _pair_or_skip(p, y):
    try:
        return transmission_pair(p, y)
    except SingularMatrix:
        assume(False)


def _assert_kernel_matches_lu(p, y, e1, e2):
    # the kernel's [A1^-1]_(2,1) and [A1^-1]_(1,2), times the drive of one
    # port, against the LU solve driven at that port alone
    v = dict(vars(p), y=y)
    n12, n21, D = transfer_coefficients(v)
    try:
        lu1 = solve_response(p, y, e1, 0.0)
        lu2 = solve_response(p, y, 0.0, e2)
    except SingularMatrix:
        assume(False)
    assume(abs(D) >= pole_thresholds(v))
    scale = max(abs(lu1.da1), abs(lu1.da2), abs(lu2.da1), abs(lu2.da2), 1e-30)
    assert abs(e1 * n12 / D - lu1.da2) <= 1e-10 * scale
    assert abs(e2 * n21 / D - lu2.da1) <= 1e-10 * scale


@given(x=st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False))
def test_wrap_phase_range_and_idempotence(x):
    w = wrap_phase(x)
    assert 0.0 <= w < TWO_PI
    assert wrap_phase(w) == w


@given(x=st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False),
       k=st.integers(min_value=-4, max_value=4))
def test_wrap_phase_periodic(x, k):
    a, b = wrap_phase(x), wrap_phase(x + k * TWO_PI)
    d = abs(a - b)
    # distance measured on the circle: values straddling the seam are fine
    assert min(d, TWO_PI - d) < 1e-12


@given(p=model_params())
@settings(max_examples=60, deadline=None)
def test_unit_round_trip(p):
    # one hop normalizes kappa2 to 1; the cycle through the other two
    # references must then restore every field
    p1 = convert_unit(p, "kappa2")
    p2 = convert_unit(convert_unit(convert_unit(p1, "absolute"), "gamma"),
                      "kappa2")
    for name in ("kappa1", "kappa2", "gamma", "f", "G1", "G2",
                 "J1", "J2", "J3"):
        a, b = getattr(p1, name), getattr(p2, name)
        assert abs(a - b) <= 1e-14 * max(abs(a), 1e-30)
    assert p2.theta == p1.theta and p2.phi == p1.phi
    assert abs(p2.unit.value - p1.unit.value) <= 1e-14 * p1.unit.value


@given(p=model_params(), y=detunings)
@settings(max_examples=80, deadline=None)
def test_matrix_transpose_mirrors_phases(p, y):
    m = build_system_matrix(p, y)
    q = dataclasses.replace(p, theta=TWO_PI - p.theta, phi=TWO_PI - p.phi)
    mt = build_system_matrix(q, y)
    scale = np.abs(m).max()
    assert np.allclose(m.T, mt, rtol=0.0, atol=1e-12 * max(scale, 1.0))


@given(p=model_params(), y=detunings)
@settings(max_examples=60, deadline=None)
def test_transmission_duality(p, y):
    q = dataclasses.replace(p, theta=TWO_PI - p.theta, phi=TWO_PI - p.phi)
    a = _pair_or_skip(p, y)
    b = _pair_or_skip(q, y)
    tol = 1e-11
    assert abs(a.T12 - b.T21) <= tol * max(a.T12, b.T21, 1e-30)
    assert abs(a.T21 - b.T12) <= tol * max(a.T21, b.T12, 1e-30)


@given(p=model_params(), y=detunings,
       e1=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
       e2=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_closed_form_matches_matrix_solve(p, y, e1, e2):
    _assert_kernel_matches_lu(p, y, e1, e2)


@given(kappa1=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
       gamma=st.floats(min_value=0.005, max_value=0.5, allow_nan=False),
       f=st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
       y=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_closed_form_handles_designed_couplings(kappa1, gamma, f, y):
    # designed parameter sets carry a complex J2 slot, the harder branch
    try:
        d = design_isolator(kappa1, 1.0, gamma, f,
                            unit=RateUnit("kappa2", 1.0))
    except NoValidDesign:
        assume(False)
    _assert_kernel_matches_lu(d.to_model_params(), y, 1.0, 1.0)


@given(t12=st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
       t21=st.floats(min_value=0.0, max_value=1.5, allow_nan=False))
def test_isolation_metrics_swap_symmetry(t12, t21):
    m = isolation_metrics(TransmissionPoint(T12=t12, T21=t21, y=0.0))
    w = isolation_metrics(TransmissionPoint(T12=t21, T21=t12, y=0.0))
    assert 0.0 <= m.isolation_db <= 300.0
    assert m.isolation_db == w.isolation_db
    if m.direction is Direction.FORWARD_1TO2:
        assert t12 > t21
        assert w.direction is Direction.FORWARD_2TO1
    elif m.direction is Direction.FORWARD_2TO1:
        assert t21 > t12
        assert w.direction is Direction.FORWARD_1TO2
    else:
        assert m.isolation_db == 0.0
        assert w.direction is Direction.RECIPROCAL


@given(c=st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
       e1=st.complex_numbers(max_magnitude=50.0, allow_nan=False,
                             allow_infinity=False),
       e2=st.complex_numbers(max_magnitude=50.0, allow_nan=False,
                             allow_infinity=False))
@settings(max_examples=25, deadline=None)
def test_steady_state_scales_with_drive_when_linear(c, e1, e2):
    bare = BareParams(Delta1=10.0, Delta2=10.0, Delta_en=10.0, omega_m=10.0,
                      g1=0.0, g2=0.0, J1=0.5, J2=0.01, J3=0.0,
                      kappa1=1.0, kappa2=1.0, gamma=1.0, f=10.0)
    s1 = solve_steady_state(bare, Drives(E1=e1, E2=e2))
    s2 = solve_steady_state(bare, Drives(E1=c * e1, E2=c * e2))
    for name in ("alpha1", "alpha2", "rho", "beta"):
        a, b = getattr(s1, name), getattr(s2, name)
        assert abs(c * a - b) <= 1e-10 * max(abs(c * a), 1.0)
