"""The seeded parameter draw behind `verify`, and the batched checks."""

import cmath
import importlib
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from nonrecip.cli import cli_main
from nonrecip.params import ModelParams, RateUnit, TransmissionPoint
from nonrecip.verify import random_params, run_verification

# the module whose names the batched checks read, patched below
verify = importlib.import_module("nonrecip.verify")

FIELDS = ("kappa1", "kappa2", "gamma", "f", "G1", "G2", "theta", "J1", "J2",
          "phi", "J3")


def _per_field_draw(rng):
    # one rng.uniform call per field, in field order: the generator that
    # random_params must reproduce bit for bit
    def rate():
        return float(10.0 ** rng.uniform(-2.0, 2.0))

    return ModelParams(
        kappa1=rate(), kappa2=rate(), gamma=1.0, f=rate(),
        G1=rate(), G2=rate(), theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        J1=rate(), J2=rate(), phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        J3=rate() * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
        unit=RateUnit("gamma", 1.0),
    )


def test_random_params_stream_is_pinned():
    for seed in range(250):
        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        for _ in range(5):
            assert random_params(ours) == _per_field_draw(ref)
        # the generator is left where the per-field draws leave it
        assert ours.uniform(-5.0, 5.0) == ref.uniform(-5.0, 5.0)


def test_block_draw_is_the_sequential_draw():
    for seed in range(200):
        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        v = verify._draw_values(ours.random((7, 12)))
        q = verify._negated_phases(v)
        for i in range(7):
            p = random_params(ref)
            y = ref.uniform(-5.0, 5.0)
            for name in FIELDS:
                assert v[name][i] == getattr(p, name)
            assert v["y"][i] == y
            r = replace(p, theta=-p.theta, phi=-p.phi)
            assert (q["theta"][i], q["phi"][i]) == (r.theta, r.phi)
        assert ours.bit_generator.state == ref.bit_generator.state


def test_root_consistency_draws_are_pinned(monkeypatch):
    # the rates of check_root_consistency are those of one
    # float(10.0 ** rng.uniform(-2, 2)) call per rate, in draw order
    seen = []
    real = verify.r_coefficients

    def recorded(*args):
        seen.append(args[:4])
        return real(*args)

    monkeypatch.setattr(verify, "r_coefficients", recorded)
    for seed in range(200):
        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        seen.clear()
        assert verify.check_root_consistency(9, ours).passed
        want = [tuple(float(10.0 ** ref.uniform(-2.0, 2.0)) for _ in range(4))
                for _ in range(9)]
        # repr shows every rate's type and bits
        assert repr(seen) == repr(want)
        assert ours.bit_generator.state == ref.bit_generator.state


def _stream(draws, rng, aligned):
    # the first ``draws`` draws of the stream taken one at a time: kappa1,
    # theta (0 and pi by turns of the stream index at aligned phases) and y
    out = []
    for i in range(draws):
        p = random_params(rng)
        theta = (0.0 if i % 2 == 0 else math.pi) if aligned else p.theta
        out.append((p.kappa1, theta, float(rng.uniform(-5.0, 5.0))))
    return out


@pytest.mark.parametrize("block", [verify._BLOCK, 7])
@pytest.mark.parametrize("poles", [(0,), (4, 5), (6, 13)])
@pytest.mark.parametrize("evaluate, aligned", [
    (verify._closed_form_errors, False),
    (verify._duality_errors, False),
    (verify._reciprocity_errors, True),
])
def test_a_pole_draw_is_left_out(monkeypatch, block, poles, evaluate,
                                 aligned):
    draws, seed = 20, 4
    default_block = verify._BLOCK
    want = _stream(draws, np.random.default_rng(seed), aligned)
    pole_kappa1 = [want[i][0] for i in poles]
    real_arrays = verify.transmission_arrays
    real_thresholds = verify.pole_thresholds
    seen_theta = {}

    def arrays(v, **kwargs):
        seen_theta["theta"] = v["theta"]
        t12, t21, pole = real_arrays(v, **kwargs)
        return t12, t21, pole | np.isin(v["kappa1"], pole_kappa1)

    def thresholds(v):
        return np.where(np.isin(v["kappa1"], pole_kappa1), np.inf,
                        real_thresholds(v))

    seen = []

    def tagged(v, start):
        # records each draw, its pole flag and its error; a pole draw's
        # error is made infinite, so that the check fails if it counts
        err, pole = evaluate(v, start)
        theta = seen_theta["theta"] if aligned else v["theta"]
        seen.extend(zip(zip(v["kappa1"].tolist(), theta.tolist(),
                            v["y"].tolist()), pole.tolist(), err.tolist()))
        return np.where(pole, np.inf, err), pole

    check = verify._array_check("tagged", tagged, 1.0, "{worst!r} {draws}")
    monkeypatch.setattr(verify, "transmission_arrays", arrays)
    monkeypatch.setattr(verify, "pole_thresholds", thresholds)

    def run(block_size):
        seen.clear()
        monkeypatch.setattr(verify, "_BLOCK", block_size)
        return check(draws, np.random.default_rng(seed))

    result = run(block)
    # every draw of the stream is evaluated once, in order: a pole shifts
    # no draw after it, and only the forced poles are poles
    assert [tag for tag, _, _ in seen] == want
    assert [i for i, (_, pole, _) in enumerate(seen) if pole] == list(poles)
    worst = max(err for _, pole, err in seen if not pole)
    assert result == verify.CheckResult(
        "tagged", True, f"{worst!r} {draws - len(poles)}")
    assert run(default_block) == result


def test_block_size_does_not_change_results(monkeypatch):
    default = run_verification()
    monkeypatch.setattr(verify, "_BLOCK", 7)
    assert run_verification() == default


def _scaled(index):
    # multiplies output ``index`` of the patched function by 1 + 1e-9
    def fault(real):
        def fake(v, **kwargs):
            out = list(real(v, **kwargs))
            out[index] = out[index] * (1.0 + 1e-9)
            return tuple(out)
        return fake
    return fault


def _negated_build_entry(real):
    # the transpose check builds A1 and then its negated-phase build
    calls = []

    def fake(v):
        m = real(v)
        calls.append(v)
        if len(calls) % 2 == 0:
            m[..., 0, 2] *= 1.0 + 1e-9
        return m
    return fake


@pytest.mark.parametrize("check, target, fault", [
    (verify.check_closed_form, "transfer_coefficients", _scaled(0)),  # N12
    (verify.check_determinant, "transfer_coefficients", _scaled(2)),  # D
    (verify.check_duality, "transmission_arrays", _scaled(0)),  # T12
    (verify.check_reciprocity, "transmission_arrays", _scaled(0)),
    (verify.check_transpose_structure, "system_matrices",
     _negated_build_entry),
])
def test_each_batched_check_catches_a_small_fault(monkeypatch, check, target,
                                                  fault):
    assert check(200, np.random.default_rng(11)).passed
    monkeypatch.setattr(verify, target, fault(getattr(verify, target)))
    result = check(200, np.random.default_rng(11))
    assert not result.passed, result


def test_nan_error_fails_the_check(monkeypatch, capsys):
    real = verify.transfer_coefficients

    def nan_d(v):
        n12, n21, D = real(v)
        D = D.copy()
        D[3] = complex("nan+nanj")
        return n12, n21, D

    monkeypatch.setattr(verify, "transfer_coefficients", nan_d)
    failed = [r.name for r in run_verification() if not r.passed]
    assert failed == ["closed_form_equivalence", "determinant_identity"]
    assert cli_main(["verify"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL determinant_identity: worst relative error nan over 200 "
            "draws\n") in out


def test_design_check_fails_naming_the_regime_without_a_design(monkeypatch):
    # every candidate reciprocal, so the first regime has no valid design
    monkeypatch.setattr(
        importlib.import_module("nonrecip.design"), "transmission_pair",
        lambda p, y: TransmissionPoint(y=y, T12=0.5, T21=0.5))
    assert verify.check_design_validation(
        1, np.random.default_rng(0)) == verify.CheckResult(
        "design_validation", False,
        "no valid design at (kappa1=10.0, kappa2=1.0, gamma=0.01, f=0.1): "
        "no J3 candidate achieves one-way transmission at resonance")


def _nan_design(*args):
    return SimpleNamespace(chosen_candidate=SimpleNamespace(
        T12_at_resonance=math.nan, T21_at_resonance=1.0))


def _nan_conversion(p, reference):
    return SimpleNamespace(**dict.fromkeys(FIELDS, math.nan))


@pytest.mark.parametrize("check, target, fake", [
    (verify.check_root_consistency, "j3_roots", lambda r: [complex("nan")]),
    (verify.check_design_validation, "design_isolator", _nan_design),
    (verify.check_unit_round_trip, "convert_unit", _nan_conversion),
])
def test_nan_error_fails_a_scalar_check(monkeypatch, check, target, fake):
    monkeypatch.setattr(verify, target, fake)
    result = check(5, np.random.default_rng(1))
    assert not result.passed
    assert "nan" in result.detail
