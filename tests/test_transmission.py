"""Input-output conversion and the two-direction transmission observables."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from nonrecip import (
    Axis,
    Direction,
    IsolationMetrics,
    SingularMatrix,
    SweepSpec,
    TransmissionPoint,
    isolation_metrics,
    output_fields,
    solve_response,
    sweep,
    transmission_grid,
    transmission_pair,
)
from nonrecip.response import pole_thresholds, transfer_coefficients
from nonrecip.transmission import (
    ISOLATION_DB_CAP,
    LU_GUARD_BAND,
    isolation_db,
    transmission_arrays,
)
from nonrecip.verify import random_params

# the module whose chunk size and kernel the partition test patches
transmission_mod = importlib.import_module("nonrecip.transmission")

HALF_PI = math.pi / 2

# the LU reference is the independent path; the closed form must meet it
LU_RTOL = 1e-10
LU_ATOL = 1e-12


def _lu_pair(p, y):
    """(T12, T21) from two LU solves, or None at a pole."""
    pref = math.sqrt(p.kappa1 * p.kappa2)
    try:
        return (pref * abs(solve_response(p, y, 1.0, 0.0).da2),
                pref * abs(solve_response(p, y, 0.0, 1.0).da1))
    except SingularMatrix:
        return None


def _assert_matches_lu(p, ys, t12, t21, singular):
    for k, y in enumerate(ys):
        ref = _lu_pair(p, float(y))
        assert singular[k] == (ref is None)
        if ref is not None:
            assert t12[k] == pytest.approx(ref[0], rel=LU_RTOL, abs=LU_ATOL)
            assert t21[k] == pytest.approx(ref[1], rel=LU_RTOL, abs=LU_ATOL)


def test_zero_probe_zero_output(base_params):
    assert output_fields(base_params(1.0), 0.2, 0.0, 0.0) == (0.0, 0.0)


def test_critically_coupled_cavity_absorbs_on_resonance(base_params):
    # a bare cavity driven at resonance returns nothing: the intracavity
    # response sqrt(k)*delta_a exactly cancels the reflected drive term
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0)
    e1, e2 = output_fields(p, 0.0, 1.0, 0.0)
    assert abs(e1) < 1e-15
    assert e2 == 0.0


def test_no_coupling_no_transmission(base_params):
    p = base_params(0.7, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0)
    tp = transmission_pair(p, 0.3)
    assert tp.T12 == 0.0 and tp.T21 == 0.0


def test_resonance_landmarks_at_quadrature(base_params):
    # pinned regression values for the base configuration
    tp = transmission_pair(base_params(HALF_PI), 0.0)
    assert tp.T12 == pytest.approx(0.3337325597775865, rel=1e-12)
    assert tp.T21 == pytest.approx(0.9965787554792680, rel=1e-12)


def test_mirror_phases_swap_directions(base_params):
    fwd = transmission_pair(base_params(HALF_PI), 0.0)
    rev = transmission_pair(base_params(3 * HALF_PI), 0.0)
    assert rev.T12 == pytest.approx(fwd.T21, rel=1e-12)
    assert rev.T21 == pytest.approx(fwd.T12, rel=1e-12)


def test_aligned_phases_are_reciprocal(base_params):
    for theta in (0.0, math.pi):
        for y in (-2.0, 0.0, 0.5, 3.1):
            tp = transmission_pair(base_params(theta), y)
            assert abs(tp.T12 - tp.T21) < 1e-13


def test_grid_matches_scalar(base_params):
    p = base_params(HALF_PI)
    ys = np.linspace(-5.0, 5.0, 41)
    t12, t21, singular = transmission_grid(p, ys)
    assert not singular.any()
    for k, y in enumerate(ys):
        tp = transmission_pair(p, float(y))
        assert t12[k] == pytest.approx(tp.T12, rel=1e-12)
        assert t21[k] == pytest.approx(tp.T21, rel=1e-12)


def test_grid_flags_singular_points(base_params):
    # fully decoupled, undamped ensemble: the matrix is diagonal and its
    # last entry gamma - i*y vanishes exactly at y = 0
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, gamma=0.0)
    t12, t21, singular = transmission_grid(p, np.array([-1.0, 0.0, 1.0]))
    assert singular.tolist() == [False, True, False]
    assert math.isnan(t12[1]) and math.isnan(t21[1])
    assert math.isfinite(t12[0]) and math.isfinite(t12[2])


def test_isolation_metrics_perfect_case():
    m = isolation_metrics(TransmissionPoint(y=0.0, T12=1.0, T21=0.0))
    assert isinstance(m, IsolationMetrics)
    assert m.direction is Direction.FORWARD_1TO2
    assert m.isolation_db == ISOLATION_DB_CAP == 300.0


def test_isolation_metrics_reciprocal_case():
    m = isolation_metrics(TransmissionPoint(y=0.0, T12=0.5, T21=0.5))
    assert m.direction is Direction.RECIPROCAL
    assert m.isolation_db == 0.0


def test_isolation_metrics_arithmetic():
    m = isolation_metrics(TransmissionPoint(y=0.0, T12=0.01, T21=0.99))
    assert m.direction is Direction.FORWARD_2TO1
    assert m.isolation_db == pytest.approx(20.0 * math.log10(99.0))


def test_reciprocal_classification_boundary():
    near = isolation_metrics(TransmissionPoint(y=0.0, T12=1.0, T21=1.0 - 1e-10))
    assert near.direction is Direction.RECIPROCAL
    apart = isolation_metrics(TransmissionPoint(y=0.0, T12=1.0, T21=1.0 - 1e-8))
    assert apart.direction is Direction.FORWARD_1TO2


def test_isolation_db_capped():
    m = isolation_metrics(TransmissionPoint(y=0.0, T12=1.0, T21=1e-300))
    assert m.isolation_db == ISOLATION_DB_CAP


def test_direction_enum_values():
    assert Direction.FORWARD_1TO2.value == "forward_1to2"
    assert Direction.FORWARD_2TO1.value == "forward_2to1"
    assert Direction.RECIPROCAL.value == "reciprocal"


def test_closed_form_grid_and_sweep_match_lu():
    rng = np.random.default_rng(20241030)
    ys = np.linspace(-5.0, 5.0, 201)
    for _ in range(25):
        p = random_params(rng)
        _assert_matches_lu(p, ys, *transmission_grid(p, ys))
        table = sweep(SweepSpec(fixed=p, axis1=Axis("y", -5.0, 5.0, 201)))
        _assert_matches_lu(p, table.data["y"], table.data["T12"],
                           table.data["T21"], table.status == "singular")


@pytest.mark.parametrize("axes", [
    (Axis("theta", 0.0, 6.0, 9), Axis("phi", 0.5, 6.5, 7)),
    (Axis("y", -4.0, 4.0, 9), Axis("J2", 0.01, 3.0, 7)),
    (Axis("J1", 0.1, 5.0, 9), Axis("y", -4.0, 4.0, 7)),
])
def test_two_axis_sweep_rows_match_lu(axes):
    axis1, axis2 = axes
    p = random_params(np.random.default_rng(8128))
    table = sweep(SweepSpec(fixed=p, axis1=axis1, axis2=axis2, y=0.3))
    # axis2 outer, axis1 inner
    assert table.data[axis2.name].tolist() == np.repeat(
        axis2.grid(), axis1.points).tolist()
    assert table.data[axis1.name].tolist() == np.tile(
        axis1.grid(), axis2.points).tolist()
    for k in range(len(table)):
        row = {a.name: float(table.data[a.name][k]) for a in axes}
        y = row.pop("y", 0.3)
        ref = _lu_pair(replace(p, **row), y)
        assert (table.status[k] == "singular") == (ref is None)
        if ref is None:
            continue
        assert table.data["T12"][k] == pytest.approx(ref[0], rel=LU_RTOL,
                                                     abs=LU_ATOL)
        assert table.data["T21"][k] == pytest.approx(ref[1], rel=LU_RTOL,
                                                     abs=LU_ATOL)


def test_transmission_arrays_broadcast_shape(base_params):
    p = base_params(HALF_PI)
    ys = np.linspace(-2.0, 2.0, 5)
    thetas = np.linspace(0.0, 3.0, 3)
    v = dict(vars(p), y=ys[np.newaxis, :], theta=thetas[:, np.newaxis])
    t12, t21, singular = transmission_arrays(v)
    assert t12.shape == t21.shape == singular.shape == (3, 5)
    for i, theta in enumerate(thetas):
        ref = transmission_grid(replace(p, theta=float(theta)), ys)
        np.testing.assert_allclose(t12[i], ref[0], rtol=1e-14)
        np.testing.assert_allclose(t21[i], ref[1], rtol=1e-14)


@pytest.mark.parametrize("shape, block", [
    ((9, 7), (2, 7)),      # 16 // 7 = 2 rows per block
    ((3, 40), (1, 40)),    # a row longer than a block is one block
    ((1, 40), (16,)),      # a single row is cut into 16-point blocks
])
def test_transmission_arrays_block_partition(base_params, monkeypatch,
                                             shape, block):
    monkeypatch.setattr(transmission_mod, "_CHUNK", 16)
    seen = []
    kernel = transmission_mod._kernel

    def recording(v):
        out = kernel(v)
        seen.append(out[0].shape)
        return out

    monkeypatch.setattr(transmission_mod, "_kernel", recording)
    monkeypatch.setenv("NONRECIP_THREADS", "1")
    p = base_params(HALF_PI)
    v = dict(vars(p), y=np.linspace(-2.0, 2.0, shape[1])[np.newaxis, :],
             phi=np.linspace(0.0, 6.0, shape[0])[:, np.newaxis])
    t12, t21, singular = transmission_arrays(v)
    assert t12.shape == t21.shape == singular.shape == shape
    assert seen[0] == block
    assert sum(math.prod(s) for s in seen) == math.prod(shape)


def test_guard_band_point_comes_from_lu(base_params):
    # an ensemble/mechanics block decoupled from the cavities, tuned 1e-7
    # off its pole at y = 0 (|J3|^2 = f gamma): |D| is about 1e5 times the
    # pole threshold, inside the guard band but not singular
    p = base_params(0.0, G1=0.0, G2=0.0, J2=0.0, f=1.0,
                    J3=1j * (1.0 + 1e-7))
    v = dict(vars(p), y=0.0)
    ratio = abs(transfer_coefficients(v)[4]) / pole_thresholds(v)
    assert 1.0 < ratio < LU_GUARD_BAND
    ys = np.array([-0.5, 0.0, 0.5])
    _assert_matches_lu(p, ys, *transmission_grid(p, ys))
    tp = transmission_pair(p, 0.0)
    ref = _lu_pair(p, 0.0)
    assert tp.T12 == pytest.approx(ref[0], rel=LU_RTOL)
    assert tp.T21 == pytest.approx(ref[1], rel=LU_RTOL)


def test_exact_pole_flagged_where_lu_raises(base_params):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, gamma=0.0)
    ys = np.array([-1.0, 0.0, 1.0])
    _assert_matches_lu(p, ys, *transmission_grid(p, ys))
    table = sweep(SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 3)))
    _assert_matches_lu(p, ys, table.data["T12"], table.data["T21"],
                       table.status == "singular")
    with pytest.raises(SingularMatrix):
        transmission_pair(p, 0.0)


def test_isolation_db_elementwise():
    t12 = np.array([1.0, 0.5, 0.01, 1.0, 1.0, np.nan])
    t21 = np.array([0.0, 0.5, 0.99, 1.0 - 1e-10, 1e-300, np.nan])
    db = isolation_db(t12, t21)
    assert db[[0, 1, 3, 4]].tolist() == [ISOLATION_DB_CAP, 0.0, 0.0,
                                         ISOLATION_DB_CAP]
    assert db[2] == pytest.approx(20.0 * math.log10(99.0))
    assert math.isnan(db[5])
