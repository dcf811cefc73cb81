"""The two-direction transmission observables and their kernel."""

import importlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from nonrecip import (
    Axis,
    Direction,
    InvalidParams,
    IsolationMetrics,
    SingularMatrix,
    SweepSpec,
    TransmissionPoint,
    isolation_metrics,
    solve_response,
    sweep,
    transmission_grid,
    transmission_pair,
)
from nonrecip.response import (
    pole_thresholds,
    system_matrices,
    transfer_coefficients,
)
from nonrecip.sweep import figure_ids, figure_preset
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


@pytest.mark.parametrize("closed", ["kappa1", "kappa2"])
def test_closed_port_rejected_everywhere(base_params, closed):
    # transmission needs both ports open
    p = base_params(HALF_PI, **{closed: 0.0})
    calls = (
        lambda: transmission_pair(p, 0.0),
        lambda: transmission_grid(p, np.linspace(-1.0, 1.0, 5)),
        lambda: sweep(SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 5))),
    )
    for call in calls:
        with pytest.raises(InvalidParams, match=f"{closed}=0.0"):
            call()


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


@pytest.mark.parametrize("y, overrides", [
    (1e160, {}),  # y * y overflows
    (-1e80, {}),  # the row-norm product overflows
    (math.nan, {}),
    (0.0, {"f": 1e200}),  # a rate, not y, overflows
    # numpy-scalar arithmetic would warn of the overflow first
    (np.float64(1e160), {}),
], ids=["1e160", "-1e80", "nan", "huge-rate", "numpy-1e160"])
def test_point_beyond_the_evaluable_range_is_rejected(base_params, y,
                                                      overrides):
    # the pole threshold is not finite there: the point path and LU both
    # raise InvalidParams naming y, not OverflowError or a NaN transmission
    p = base_params(HALF_PI, **overrides)
    named = re.escape(f"cannot evaluate the response at y={y}:")
    with pytest.raises(InvalidParams, match=named):
        transmission_pair(p, y)
    with pytest.raises(InvalidParams, match=named):
        solve_response(p, y, 1.0, 0.0)


def test_numpy_scalar_detuning_gives_the_float_transmissions():
    # every 10th point of each spectrum preset, y as numpy's float64
    points = 0
    for fid in figure_ids():
        spec = figure_preset(fid)
        if spec.axis1.name != "y" or spec.axis2 is not None:
            continue
        for y in spec.axis1.grid()[::10]:
            a = transmission_pair(spec.fixed, y)
            b = transmission_pair(spec.fixed, float(y))
            assert (a.y, a.T12, a.T21) == (b.y, b.T12, b.T21)
            points += 1
    assert points == 3030


def test_largest_evaluable_detuning_keeps_its_values(base_params):
    # at 1e77 the threshold is still finite, and the kernel matches LU
    p = base_params(HALF_PI)
    for y in (-1e77, 1e60):
        tp = transmission_pair(p, y)
        x = solve_response(p, y, 1.0, 0.0)
        assert tp.T12 > 0.0
        assert tp.T12 == pytest.approx(abs(x.da2), rel=1e-12)


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
    (Axis("theta", 0.0, 6.0, 9), Axis("J1", 0.1, 5.0, 7)),
    (Axis("J2", 0.01, 3.0, 9), Axis("phi", 0.5, 6.5, 7)),
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
def test_transmission_arrays_block_partition(base_params, monkeypatch, cpus,
                                             shape, block):
    monkeypatch.setattr(transmission_mod, "_CHUNK", 16)
    seen = []
    kernel = transmission_mod._kernel

    def recording(v):
        out = kernel(v)
        seen.append(out[0].shape)
        return out

    monkeypatch.setattr(transmission_mod, "_kernel", recording)
    cpus(1)
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
    ratio = abs(transfer_coefficients(v)[2]) / pole_thresholds(v)
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


def test_guard_band_point_in_a_large_block_comes_from_lu(base_params):
    # the point of test_guard_band_point_comes_from_lu at y = 0, inside a
    # block of _CHUNK points whose other points all clear the band
    p = base_params(0.0, G1=0.0, G2=0.0, J2=0.0, f=1.0,
                    J3=1j * (1.0 + 1e-7))
    ys = np.arange(-20000, 20001) * 5e-5
    v = dict(vars(p), y=ys)
    band = np.abs(transfer_coefficients(v)[2]) < (LU_GUARD_BAND
                                                  * pole_thresholds(v))
    assert np.flatnonzero(band).tolist() == [20000] and ys[20000] == 0.0
    assert 20000 < transmission_mod._CHUNK < len(ys)
    t12, t21, singular = transmission_grid(p, ys)
    assert not singular.any()
    # the LU value exactly: the closed form is 2e-10 off it here
    pref = math.sqrt(p.kappa1 * p.kappa2)
    assert t12[20000] == pref * abs(solve_response(p, 0.0, 1.0, 0.0).da2)
    assert t21[20000] == pref * abs(solve_response(p, 0.0, 0.0, 1.0).da1)
    inv = np.linalg.inv(system_matrices(v))
    np.testing.assert_allclose(t12, pref * np.abs(inv[:, 1, 0]),
                               rtol=LU_RTOL, atol=LU_ATOL)
    np.testing.assert_allclose(t21, pref * np.abs(inv[:, 0, 1]),
                               rtol=LU_RTOL, atol=LU_ATOL)


def test_block_bound_keeps_every_band_and_pole_decision(base_params,
                                                         monkeypatch):
    # blocks of two (J1, y) planes; the bound takes magnitudes, so the
    # axes cross zero
    monkeypatch.setattr(transmission_mod, "_CHUNK", 250)
    lu = transmission_mod._lu_transmission

    def marked(v, thresholds):
        # T12 = -1 marks the points that went to LU
        t12, t21, singular = lu(v, thresholds)
        return np.full_like(t12, -1.0), t21, singular

    monkeypatch.setattr(transmission_mod, "_lu_transmission", marked)
    rng = np.random.default_rng(4099)
    cases = [random_params(rng) for _ in range(20)]
    cases.append(base_params(0.0, G1=0.0, G2=0.0, f=1.0,
                             J3=1j * (1.0 + 1e-7)))  # band points at y = 0
    cases.append(base_params(0.0, G1=0.0, G2=0.0, J3=0.0,
                             gamma=0.0))  # poles at y = 0
    grid = dict(y=np.linspace(-6.0, 6.0, 25),
                J1=np.linspace(-3.0, 3.0, 5)[:, np.newaxis],
                J2=np.linspace(-2.0, 2.0, 5)[:, np.newaxis, np.newaxis])
    decided = 0
    for p in cases:
        v = dict(vars(p), **grid)
        thresholds = pole_thresholds(v)
        assert np.all(thresholds <= transmission_mod._threshold_bound(v))
        band = np.abs(transfer_coefficients(v)[2]) < (LU_GUARD_BAND
                                                      * thresholds)
        pole = band & (np.abs(np.linalg.det(system_matrices(v)))
                       < thresholds)
        t12, _, singular = transmission_arrays(v)
        assert np.array_equal(t12 == -1.0, band)
        assert np.array_equal(singular, pole)
        decided += int(band.sum()) + int(pole.sum())
    assert decided > 0


@pytest.mark.parametrize("shape", [(3, 0), (2, 1, 0)])
def test_transmission_arrays_zero_size(base_params, shape):
    v = dict(vars(base_params(HALF_PI)), y=np.empty(shape))
    t12, t21, singular = transmission_arrays(v)
    assert t12.shape == t21.shape == singular.shape == shape
    assert singular.dtype == bool
    *_, db = transmission_arrays(v, with_isolation_db=True)
    assert db.shape == shape


def test_isolation_db_elementwise():
    t12 = np.array([1.0, 0.5, 0.01, 1.0, 1.0, np.nan])
    t21 = np.array([0.0, 0.5, 0.99, 1.0 - 1e-10, 1e-300, np.nan])
    db = isolation_db(t12, t21)
    assert db[[0, 1, 3, 4]].tolist() == [ISOLATION_DB_CAP, 0.0, 0.0,
                                         ISOLATION_DB_CAP]
    assert db[2] == pytest.approx(20.0 * math.log10(99.0))
    assert math.isnan(db[5])


def _same(a, b):
    # elementwise equality with NaN equal to NaN
    return a == b or (math.isnan(a) and math.isnan(b))


def test_isolation_db_scalar_matches_array():
    rng = np.random.default_rng(20240817)
    t12 = 10.0 ** rng.uniform(-12.0, 1.0, 100_000)
    t21 = 10.0 ** rng.uniform(-12.0, 1.0, 100_000)
    # pairs within and just outside the 1e-9 reciprocal tolerance
    t21[:1000] = t12[:1000] * (1.0 + rng.uniform(-2e-9, 2e-9, 1000))
    edges = [0.0, 1e-300, 1e-30, 1.0, 1.0 + 0.9e-9, 1.0 + 1.1e-9,
             1.0 - 0.9e-9, 1.0 - 1.1e-9, 2.0, math.inf, math.nan]
    pairs = np.array([(a, b) for a in edges for b in edges]).T
    t12 = np.concatenate([t12, pairs[0]])
    t21 = np.concatenate([t21, pairs[1]])
    want = isolation_db(t12, t21).tolist()
    got = [isolation_db(a, b) for a, b in zip(t12.tolist(), t21.tolist())]
    assert all(type(g) is float for g in got)
    mismatched = [(a, b) for a, b, g, w in zip(t12.tolist(), t21.tolist(),
                                               got, want) if not _same(g, w)]
    assert mismatched == []
    # the isolation_metrics tests above cover the cap and the boundary
    assert math.isnan(isolation_db(1.0, math.nan))
    assert math.isnan(isolation_db(math.nan, 1.0))
    m = isolation_metrics(TransmissionPoint(y=0.0, T12=0.25, T21=0.5))
    assert type(m.isolation_db) is float
    assert m.isolation_db == float(isolation_db(np.array(0.25), np.array(0.5)))
