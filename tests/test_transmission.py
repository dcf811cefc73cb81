"""The two-direction transmission observables and their kernel."""

import importlib
import math
import re
from dataclasses import replace
from fractions import Fraction

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
    SINGULARITY_RTOL,
    pole_thresholds,
    system_matrices,
    transfer_coefficients,
    transfer_polynomials,
)
from nonrecip.sweep import figure_ids, figure_preset
from nonrecip.transmission import (
    ISOLATION_DB_CAP,
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


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _exact_pair(p, y):
    """(T12, T21) from the exact inverse of the float matrix A1 at ``y``.

    Gauss-Jordan elimination on (re, im) pairs of Fractions of the entries
    of `system_matrices`: only the final square roots round.
    """
    m = system_matrices(dict(vars(p), y=y))
    one, zero = Fraction(1), Fraction(0)
    rows = [[(Fraction(z.real), Fraction(z.imag)) for z in row]
            + [(one if i == j else zero, zero) for j in range(4)]
            for i, row in enumerate(m)]
    for c in range(4):
        k = next(r for r in range(c, 4) if rows[r][c] != (0, 0))
        rows[c], rows[k] = rows[k], rows[c]
        a, b = rows[c][c]
        norm = a * a + b * b
        rows[c] = [_cmul((a / norm, -b / norm), z) for z in rows[c]]
        for r in range(4):
            g = rows[r][c]
            if r != c and g != (0, 0):
                rows[r] = [(z[0] - gw[0], z[1] - gw[1]) for z, gw in
                           zip(rows[r], [_cmul(g, w) for w in rows[c]])]
    pref = math.sqrt(p.kappa1 * p.kappa2)

    def t(z):
        return pref * math.sqrt(float(z[0] * z[0] + z[1] * z[1]))
    # [A1^-1]_(2,1) and [A1^-1]_(1,2) in the right half of the rows
    return t(rows[1][4]), t(rows[0][5])


def _contract(p, y):
    """The kernel's relative error bound, eps (row-norm product) / |D|."""
    v = dict(vars(p), y=y)
    return (np.finfo(float).eps / SINGULARITY_RTOL * pole_thresholds(v)
            / abs(transfer_coefficients(v)[2]))


def _decoupled_block(base_params, coupling, delta):
    """The ensemble/mechanics block tuned ``delta`` off its pole at y = 0.

    |J3|^2 = f gamma there; T does not feel that pole, but N and D both
    carry its factor. ``coupling`` sets G1, G2 and J2, which join the
    block to the cavities.
    """
    return base_params(0.0, G1=coupling, G2=coupling, J2=coupling, f=1.0,
                       J3=1j * (1.0 + delta))


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
    ((1, 40), (1, 40)),    # a single row is one block too
])
def test_transmission_arrays_block_partition(base_params, monkeypatch, cpus,
                                             shape, block):
    monkeypatch.setattr(transmission_mod, "_CHUNK", 16)
    seen = []
    kernel = transmission_mod._kernel

    def recording(v, out=None):
        out = kernel(v, out=out)
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


def test_near_pole_points_meet_the_accuracy_contract(base_params):
    # |D| at 1e5, 1e3 and 2e6 pole thresholds, not poles; the first two
    # are where LU is more accurate than the closed form
    for coupling, delta, ratio in ((0.0, 1e-7, 1e5), (1e-6, 1e-9, 998.0),
                                   (1e-3, 1e-7, 2.06e6)):
        p = _decoupled_block(base_params, coupling, delta)
        v = dict(vars(p), y=0.0)
        assert abs(transfer_coefficients(v)[2]) / pole_thresholds(v) == (
            pytest.approx(ratio, rel=1e-3))
        bound = _contract(p, 0.0)
        ref = _exact_pair(p, 0.0)
        tp = transmission_pair(p, 0.0)
        assert tp.T12 == pytest.approx(ref[0], rel=bound, abs=0.0)
        assert tp.T21 == pytest.approx(ref[1], rel=bound, abs=0.0)
        ys = np.array([-0.5, 0.0, 0.5])
        t12, t21, singular = transmission_grid(p, ys)
        assert t12[1] == pytest.approx(ref[0], rel=bound, abs=0.0)
        assert t21[1] == pytest.approx(ref[1], rel=bound, abs=0.0)
        _assert_matches_lu(p, ys[::2], t12[::2], t21[::2], singular[::2])


def test_exact_pole_flagged_where_lu_raises(base_params):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, gamma=0.0)
    ys = np.array([-1.0, 0.0, 1.0])
    _assert_matches_lu(p, ys, *transmission_grid(p, ys))
    table = sweep(SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 3)))
    _assert_matches_lu(p, ys, table.data["T12"], table.data["T21"],
                       table.status == "singular")
    with pytest.raises(SingularMatrix):
        transmission_pair(p, 0.0)


def test_near_pole_point_in_a_large_block_meets_the_contract(base_params):
    # the first point of test_near_pole_points_meet_the_accuracy_contract
    # at y = 0, inside a block of _CHUNK points far from its pole
    p = _decoupled_block(base_params, 0.0, 1e-7)
    ys = np.arange(-20000, 20001) * 5e-5
    v = dict(vars(p), y=ys)
    ratio = np.abs(transfer_coefficients(v)[2]) / pole_thresholds(v)
    assert np.argmin(ratio) == 20000 and ys[20000] == 0.0
    assert 20000 < transmission_mod._CHUNK < len(ys)
    t12, t21, singular = transmission_grid(p, ys)
    assert not singular.any()
    # y = 0: the closed form is 2.2e-10 off LU there, within the contract
    bound = _contract(p, 0.0)
    ref = _exact_pair(p, 0.0)
    tp = transmission_pair(p, 0.0)
    assert t12[20000] == pytest.approx(ref[0], rel=bound, abs=0.0)
    assert t21[20000] == pytest.approx(ref[1], rel=bound, abs=0.0)
    assert t12[20000] == pytest.approx(tp.T12, rel=bound, abs=0.0)
    assert t21[20000] == pytest.approx(tp.T21, rel=bound, abs=0.0)
    pref = math.sqrt(p.kappa1 * p.kappa2)
    inv = np.linalg.inv(system_matrices(v))
    rest = ys != 0.0
    np.testing.assert_allclose(t12[rest], pref * np.abs(inv[rest, 1, 0]),
                               rtol=LU_RTOL, atol=LU_ATOL)
    np.testing.assert_allclose(t21[rest], pref * np.abs(inv[rest, 0, 1]),
                               rtol=LU_RTOL, atol=LU_ATOL)


def test_block_bound_keeps_every_pole_decision(base_params, monkeypatch):
    # blocks of two (J1, y) planes; the bound takes magnitudes, so the
    # axes cross zero
    monkeypatch.setattr(transmission_mod, "_CHUNK", 250)
    rng = np.random.default_rng(4099)
    cases = [random_params(rng) for _ in range(20)]
    cases.append(base_params(0.0, G1=0.0, G2=0.0, f=1.0,
                             J3=1j * (1.0 + 1e-7)))  # near poles at y = 0
    cases.append(base_params(0.0, G1=0.0, G2=0.0, J3=0.0,
                             gamma=0.0))  # poles at y = 0
    grid = dict(y=np.linspace(-6.0, 6.0, 25),
                J1=np.linspace(-3.0, 3.0, 5)[:, np.newaxis],
                J2=np.linspace(-2.0, 2.0, 5)[:, np.newaxis, np.newaxis])
    poles = 0
    for p in cases:
        v = dict(vars(p), **grid)
        thresholds = pole_thresholds(v)
        assert np.all(thresholds <= transmission_mod._threshold_bound(v))
        pole = np.abs(transfer_coefficients(v)[2]) < thresholds
        t12, t21, singular = transmission_arrays(v)
        assert np.array_equal(singular, pole)
        # the closed-form rule flags the points the LU det rule flags
        assert np.array_equal(
            singular, np.abs(np.linalg.det(system_matrices(v))) < thresholds)
        assert np.all(np.isnan(t12[singular]) & np.isnan(t21[singular]))
        poles += int(pole.sum())
    assert poles > 0


def test_kernel_calls_no_lapack(base_params, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel called LAPACK")

    for name in ("det", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    ys = np.array([-1.0, 0.0, 1.0])
    near = _decoupled_block(base_params, 0.0, 1e-7)
    pole = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0,
                       gamma=0.0)
    transmission_pair(near, 0.0)
    assert not transmission_grid(near, ys)[2].any()
    table = sweep(SweepSpec(fixed=near, axis1=Axis("y", -1.0, 1.0, 3)))
    assert not (table.status == "singular").any()
    with pytest.raises(SingularMatrix):
        transmission_pair(pole, 0.0)
    assert transmission_grid(pole, ys)[2].tolist() == [False, True, False]
    table = sweep(SweepSpec(fixed=pole, axis1=Axis("y", -1.0, 1.0, 3)))
    assert (table.status == "singular").tolist() == [False, True, False]


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


def _out_of_place_isolation_db(t12, t21):
    """The array rule of `isolation_db`, one new array per operation."""
    hi = np.maximum(t12, t21)
    with np.errstate(all="ignore"):
        db = np.minimum(20.0 * np.log10(hi / np.minimum(t12, t21)),
                        ISOLATION_DB_CAP)
        return np.where(np.abs(t12 - t21) <= 1e-9 * np.maximum(hi, 1e-30),
                        0.0, db)


def _out_of_place(v):
    """T12, T21, the pole mask and the isolation in dB over the whole of
    ``v``, each operation of the kernel writing a new array."""
    y = v["y"]
    if isinstance(y, np.ndarray):
        (n2, n1_12, n0_12), (_, n1_21, n0_21), (c3, c2, c1, c0) = (
            transfer_polynomials(v))
        n2y = n2 * y
        n12, n21, D = ((n2y + n1_12) * y + n0_12, (n2y + n1_21) * y + n0_21,
                       (((y + c3) * y + c2) * y + c1) * y + c0)
    else:
        # a scalar y takes the loop order, which writes no output slice
        n12, n21, D = transfer_coefficients(v)
    abs_d = np.abs(D)
    pref = np.sqrt(np.abs(v["kappa1"] * v["kappa2"]))
    with np.errstate(divide="ignore", invalid="ignore"):
        t12 = pref * np.abs(n12) / abs_d
        t21 = pref * np.abs(n21) / abs_d
    singular = abs_d < pole_thresholds(v)
    t12[singular] = t21[singular] = np.nan
    return t12, t21, singular, _out_of_place_isolation_db(t12, t21)


@pytest.mark.parametrize("case", ["spectrum", "map", "kappa1_by_y", "pole"])
def test_in_place_blocks_match_out_of_place_bit_for_bit(
        base_params, monkeypatch, cpus, case):
    # blocks of 250 points or fewer, on two threads
    monkeypatch.setattr(transmission_mod, "_CHUNK", 250)
    cpus(2)
    fig4d = figure_preset("fig4d").fixed
    phases = np.linspace(0.0, 2.0 * math.pi, 41)
    ys = np.arange(-1000, 1001) * 5e-3
    v = {
        "spectrum": dict(vars(fig4d), y=np.linspace(4.5, 5.5, 2001)),
        "map": dict(vars(fig4d), y=0.4, theta=phases[np.newaxis, :],
                    phi=phases[:, np.newaxis]),
        "kappa1_by_y": dict(vars(base_params(HALF_PI)),
                            y=ys[np.newaxis, ::10],
                            kappa1=np.linspace(0.2, 3.0, 30)[:, np.newaxis]),
        # mechanics decoupled and undamped: one pole, at y = 0
        "pole": dict(vars(base_params(0.0, G1=0.0, G2=0.0, J3=0.0,
                                      gamma=0.0)), y=ys),
    }[case]
    got = transmission_arrays(v, with_isolation_db=True)
    want = _out_of_place(v)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    if case == "kappa1_by_y":
        # N12 holds no kappa, so it broadcasts into each output slice
        assert transfer_coefficients(v)[0].shape == (1, 201)
    if case == "pole":
        assert np.flatnonzero(got[2]).tolist() == [1000]
        assert np.isnan(got[3][1000])


def test_isolation_db_in_place_matches_out_of_place():
    values = [0.0, 1e-300, 0.25, 0.5, 1.0, 1.0 + 0.9e-9, 1.0 + 1.1e-9,
              math.inf, math.nan]
    for a in values:
        for b in values:
            want = _out_of_place_isolation_db(np.float64(a), np.float64(b))
            for kind in (np.float64, np.array):
                got = isolation_db(kind(a), kind(b))
                assert type(got) is np.ndarray and got.shape == ()
                assert got.tobytes() == want.tobytes(), (a, b, kind)
            # two Python floats take the scalar rule, to the same value
            got = isolation_db(a, b)
            assert type(got) is float and _same(got, float(want)), (a, b)
