"""Parameter containers: validation, phase canonicalization, serialization."""

import copy
import inspect
import math
import pickle
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import numpy as np
import pytest

from nonrecip.params import (
    BareParams,
    Drives,
    InvalidParams,
    ModelParams,
    RateUnit,
    SteadyState,
    TransmissionPoint,
    bare_params_from_dict,
    bare_params_to_dict,
    convert_unit,
    drives_from_dict,
    drives_to_dict,
    model_params_from_dict,
    model_params_to_dict,
    steady_state_to_dict,
    wrap_phase,
)
from nonrecip.steady import solve_steady_state
from nonrecip.sweep import figure_ids, figure_preset
from nonrecip.transmission import transmission_pair
from nonrecip.verify import random_params

TWO_PI = 2.0 * math.pi


def test_wrap_phase_basics():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(TWO_PI) == 0.0
    assert wrap_phase(TWO_PI + 0.1) == pytest.approx(0.1, abs=1e-15)
    assert wrap_phase(-0.5) == pytest.approx(TWO_PI - 0.5)
    # -0.0 must normalize to +0.0 so serialized output is stable
    assert math.copysign(1.0, wrap_phase(-0.0)) == 1.0


def test_wrap_phase_idempotent():
    for x in (-1e6, -7.3, -0.1, 0.0, 1.0, 6.2, 12.7, 1e6):
        once = wrap_phase(x)
        assert 0.0 <= once < TWO_PI
        assert wrap_phase(once) == once


def test_phases_wrapped_at_construction(base_params):
    p = base_params(TWO_PI + 0.1, phi=-0.3)
    assert p.theta == pytest.approx(0.1, abs=1e-15)
    assert p.phi == pytest.approx(TWO_PI - 0.3)


def test_base_configuration_is_valid(base_params):
    p = base_params(math.pi / 2)
    assert (p.kappa1, p.J2, p.J3) == (1.0, 0.01 + 0j, 4.476j)


def test_negative_rate_reported(base_params):
    with pytest.raises(InvalidParams, match="kappa1 nonnegative"):
        base_params(math.pi / 2, kappa1=-1.0)


def test_nonfinite_fields_reported(base_params):
    # every violation is named in the one message
    with pytest.raises(InvalidParams) as exc:
        base_params(0.0, G2=math.inf, J3=complex(math.nan, 0.0))
    assert "G2 finite" in str(exc.value)
    assert "J3 finite" in str(exc.value)
    # phases are checked before they are wrapped
    with pytest.raises(InvalidParams) as exc:
        base_params(math.inf, phi=math.nan)
    assert "theta finite" in str(exc.value)
    assert "phi finite" in str(exc.value)


def test_negative_real_j2_rejected(base_params):
    with pytest.raises(InvalidParams, match="J2 nonnegative when real"):
        base_params(math.pi / 2, J2=-0.01)
    # complex values in the J2 slot are legitimate (designed configurations)
    assert base_params(math.pi / 2, J2=1.5j).J2 == 1.5j


def test_rate_unit_validation():
    with pytest.raises(ValueError):
        RateUnit("lightyears", 1.0)
    with pytest.raises(ValueError):
        RateUnit("gamma", 0.0)
    with pytest.raises(ValueError):
        RateUnit("gamma", -2.0)
    assert RateUnit("kappa2", 3.0).reference == "kappa2"


def test_unit_round_trip(base_params):
    p = base_params(1.0, 2.5, kappa1=3.0, kappa2=2.0, J3=1.0 + 2.0j)
    q = convert_unit(convert_unit(p, "kappa2"), "gamma")
    for name in ("kappa1", "kappa2", "gamma", "f", "G1", "G2", "J1"):
        assert getattr(q, name) == pytest.approx(getattr(p, name), rel=1e-14)
    assert q.J2 == pytest.approx(p.J2, rel=1e-14)
    assert q.J3 == pytest.approx(p.J3, rel=1e-14)
    assert q.theta == p.theta and q.phi == p.phi
    assert q.unit.reference == "gamma"
    assert q.unit.value == pytest.approx(p.unit.value, rel=1e-14)


def test_convert_unit_normalizes_reference_rate(base_params):
    p = base_params(0.0, kappa1=4.0, kappa2=2.0)
    q = convert_unit(p, "kappa2")
    assert q.kappa2 == 1.0
    assert q.kappa1 == pytest.approx(2.0)
    assert q.unit == RateUnit("kappa2", 2.0)
    assert convert_unit(p, "gamma") is p  # already gamma-referenced


def test_convert_unit_rejects_unknown_reference(base_params):
    with pytest.raises(ValueError):
        convert_unit(base_params(0.0), "hertz")
    # a zero reference rate has no rescaling
    p = base_params(0.0, gamma=0.0, unit=RateUnit("kappa2", 1.0))
    with pytest.raises(InvalidParams, match="reference rate is 0.0"):
        convert_unit(p, "gamma")


def test_model_params_json_round_trip(base_params):
    p = base_params(0.3, 5.1, J2=0.25j, J3=-1.5 + 0.25j,
                    unit=RateUnit("kappa2", 2.0))
    assert model_params_from_dict(model_params_to_dict(p)) == p


@pytest.mark.parametrize("change, error, match", [
    # tests/test_cli.py takes the other malformed inputs through the CLI
    ({"kapa1": 1.0}, ValueError, "unknown key 'kapa1' for ModelParams"),
    ({"unit": {"reference": "gamma", "scale": 2.0}}, ValueError,
     "unit: unknown key 'scale' for RateUnit"),
    ({"theta": [0.0]}, TypeError, "theta: "),
    # an int beyond the float range is bad input, not an OverflowError
    ({"kappa1": 10 ** 400}, ValueError,
     "^kappa1: int too large to convert to float$"),
    ({"J3": {"re": 0.0, "im": -10 ** 400}}, ValueError,
     "^J3: int too large to convert to float$"),
], ids=["unknown-key", "unknown-unit-key", "undecodable-float",
        "huge-int-float", "huge-int-complex-part"])
def test_from_dict_rejects_malformed_input(base_params, change, error, match):
    d = {**model_params_to_dict(base_params(0.3)), **change}
    with pytest.raises(error, match=match):
        model_params_from_dict(d)


def test_from_dict_requires_fields_without_default(base_params):
    d = model_params_to_dict(base_params(0.3))
    del d["unit"]
    assert model_params_from_dict(d).unit == RateUnit()
    del d["J3"]
    with pytest.raises(KeyError, match="J3"):
        model_params_from_dict(d)


def test_to_dict_writes_nan_as_null():
    s = SteadyState(alpha1=complex(math.nan, 0.0), alpha2=1j, rho=0j,
                    beta=2.0 + 0j, Delta1_eff=math.nan, Delta2_eff=1.0,
                    residual_norm=0.0)
    assert steady_state_to_dict(s) == {
        "alpha1": None, "alpha2": {"re": 0.0, "im": 1.0},
        "rho": {"re": 0.0, "im": 0.0}, "beta": {"re": 2.0, "im": 0.0},
        "Delta1_eff": None, "Delta2_eff": 1.0, "residual_norm": 0.0,
        "iterations": 0}


def test_bare_params_round_trip():
    b = BareParams(Delta1=10.0, Delta2=10.0, Delta_en=10.0, omega_m=10.0,
                   g1=4e-3, g2=4e-3, J1=0.5, J2=0.01, J3=4.476j,
                   kappa1=1.0, kappa2=1.0, gamma=1.0, f=10.0)
    assert bare_params_from_dict(bare_params_to_dict(b)) == b


def test_bare_params_constraints():
    with pytest.raises(ValueError):
        BareParams(Delta1=0.0, Delta2=0.0, Delta_en=0.0, omega_m=0.0,
                   g1=0.0, g2=0.0, J1=0.0, J2=0.0, J3=0.0,
                   kappa1=1.0, kappa2=1.0, gamma=1.0, f=1.0)
    with pytest.raises(ValueError):
        BareParams(Delta1=0.0, Delta2=0.0, Delta_en=0.0, omega_m=1.0,
                   g1=0.0, g2=0.0, J1=0.0, J2=0.0, J3=0.0,
                   kappa1=-1.0, kappa2=1.0, gamma=1.0, f=1.0)


_BARE = dict(Delta1=10.0, Delta2=10.0, Delta_en=10.0, omega_m=10.0,
             g1=4e-3, g2=4e-3, J1=0.5, J2=0.01, J3=4.476j,
             kappa1=1.0, kappa2=1.0, gamma=1.0, f=10.0)


@pytest.mark.parametrize("cls, base, field, value", [
    (BareParams, _BARE, "kappa1", math.nan),
    (BareParams, _BARE, "omega_m", math.inf),
    (BareParams, _BARE, "J3", complex(math.nan, 1.0)),
    (Drives, {}, "E1", math.nan),
], ids=["kappa1-nan", "omega_m-inf", "J3-nan", "E1-nan"])
def test_non_finite_field_rejected(cls, base, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        cls(**{**base, field: value})


_BARE_FIELDS = tuple(_BARE)
_BARE_REALS = tuple(n for n in _BARE_FIELDS if n not in ("J2", "J3"))
_DRIVE_FIELDS = ("E1", "E2")


def _message(cls, **kwargs):
    with pytest.raises(ValueError) as exc_info:
        cls(**kwargs)
    return str(exc_info.value)


@pytest.mark.parametrize("cls, base, names", [
    (BareParams, _BARE, _BARE_FIELDS),
    (Drives, {}, _DRIVE_FIELDS),
], ids=["BareParams", "Drives"])
def test_first_non_finite_field_is_named(cls, base, names):
    # every field from the k-th on is bad, and so are the sign checks that
    # come after the finiteness check: the k-th field is the one named
    for k, name in enumerate(names):
        bad = {n: (math.nan if n in ("kappa1", "E1") else
                   complex(math.inf, 0.0) if n in ("J2", "E2") else
                   -math.inf) for n in names[k:]}
        kwargs = {**base, "omega_m": -1.0, "kappa1": -1.0, **bad}
        kwargs = {n: v for n, v in kwargs.items() if n in names}
        assert _message(cls, **kwargs) == f"{name} must be finite"


@pytest.mark.parametrize("omega_m", [0.0, -0.0, -1.0, -1e-300])
def test_omega_m_must_be_positive_before_rates(omega_m):
    assert _message(BareParams, **{**_BARE, "omega_m": omega_m,
                                   "gamma": -1.0}) == "omega_m must be positive"


@pytest.mark.parametrize("k", range(4))
def test_first_negative_rate_is_named(k):
    rates = ("kappa1", "kappa2", "gamma", "f")
    kwargs = {**_BARE, **{n: -1e-300 for n in rates[k:]}}
    assert _message(BareParams, **kwargs) == f"{rates[k]} must be nonnegative"


def test_signed_zero_and_edge_values_are_valid():
    b = BareParams(**{**_BARE, "kappa1": -0.0, "kappa2": 0.0, "gamma": -0.0,
                      "f": 0.0, "omega_m": 5e-324, "Delta1": -1e308,
                      "g1": -1.0, "J1": -2.0})
    assert b.kappa1 == 0.0 and b.omega_m == 5e-324
    d = Drives(E1=-1e308 + 1e308j, E2=-0.0)
    assert d.E2 == 0.0 and d.E1 == complex(-1e308, 1e308)


@pytest.mark.parametrize("cls, base, field", [
    (BareParams, _BARE, "Delta1"), (BareParams, _BARE, "kappa2"),
    (Drives, {}, "E1"), (Drives, {}, "E2"),
    (BareParams, _BARE, "J2"), (BareParams, _BARE, "J3"),
])
def test_values_off_the_float_range_are_rejected(cls, base, field):
    # an int beyond the float range is not converted to inf, and a str is
    # not parsed as a number
    with pytest.raises(OverflowError):
        cls(**{**base, field: 10 ** 400})
    with pytest.raises(TypeError):
        cls(**{**base, field: "1.0"})


@pytest.mark.parametrize("decode, d, name, kind", [
    (model_params_from_dict, {"kappa2": True}, "kappa2", "bool"),
    (model_params_from_dict, {"theta": "0.5"}, "theta", "str"),
    (model_params_from_dict, {"J3": "4.476j"}, "J3", "str"),
    (model_params_from_dict, {"J2": {"re": True}}, "J2", "bool"),
    (model_params_from_dict, {"unit": {"reference": "gamma", "value": True}},
     "unit: value", "bool"),
    (bare_params_from_dict, {"g1": "0.004"}, "g1", "str"),
    (drives_from_dict, {"E1": "100"}, "E1", "str"),
    (drives_from_dict, {"E1": False}, "E1", "bool"),
    (drives_from_dict, {"E2": {"re": 0.0, "im": "1"}}, "E2", "str"),
    (drives_from_dict, {"E2": True}, "E2", "bool"),
], ids=["kappa2-bool", "theta-str", "J3-str", "J2-re-bool", "unit-value-bool",
        "g1-str", "E1-str", "E1-bool", "E2-im-str", "E2-bool"])
def test_number_fields_reject_str_and_bool(base_params, decode, d, name, kind):
    if decode is model_params_from_dict:
        d = {**model_params_to_dict(base_params(0.3)), **d}
    elif decode is bare_params_from_dict:
        d = {**bare_params_to_dict(BareParams(**_BARE)), **d}
    with pytest.raises(TypeError) as exc_info:
        decode(d)
    assert str(exc_info.value) == f"{name}: expected a number, not {kind}"


def test_number_fields_take_ints_and_floats():
    assert drives_from_dict({"E1": 100, "E2": {"re": 1, "im": -2.5}}) == \
        Drives(E1=100.0, E2=1 - 2.5j)

def test_drives_round_trip_and_constraints():
    d = Drives(E1=1.0 + 2.0j, E2=-0.5j)
    assert drives_from_dict(drives_to_dict(d)) == d
    assert drives_from_dict({}) == Drives()
    with pytest.raises(ValueError, match="unknown key 'Ep1' for Drives"):
        drives_from_dict({"E1": 1.0, "Ep1": 0.5})


def test_transmission_point_constraints():
    tp = TransmissionPoint(y=0.0, T12=0.2, T21=0.9)
    assert tp.T12 == 0.2
    with pytest.raises(ValueError):
        TransmissionPoint(y=0.0, T12=-0.1, T21=0.0)
    with pytest.raises(ValueError):
        TransmissionPoint(y=0.0, T12=math.nan, T21=0.0)
    # numpy scalars are stored as the Python floats of the same values
    tp = TransmissionPoint(y=np.float64(0.5), T12=np.float64(0.2),
                           T21=np.float32(0.25))
    assert (tp.y, tp.T12, tp.T21) == (0.5, 0.2, 0.25)
    assert type(tp.y) is type(tp.T12) is type(tp.T21) is float


@pytest.mark.parametrize("y", [math.nan, math.inf])
def test_transmission_point_needs_a_finite_detuning(y):
    with pytest.raises(ValueError, match="detuning y must be finite"):
        TransmissionPoint(y=y, T12=0.5, T21=0.25)


def test_unit_must_be_a_rate_unit():
    # a str unit would be written to a file its own decoder rejects
    with pytest.raises(TypeError, match="unit must be a RateUnit, not str"):
        ModelParams(1, 1, 1, 1, .5, .5, 0, .5, .01, 0, 1j, unit="gamma")


def test_every_draw_and_preset_round_trips_through_json():
    rng = np.random.default_rng(0)
    sets = [random_params(rng) for _ in range(2000)]
    sets += [figure_preset(fid).fixed for fid in figure_ids()]
    assert len(sets) == 2031
    for p in sets:
        assert model_params_from_dict(model_params_to_dict(p)) == p


def test_model_params_coerces_complex_slots(base_params):
    p = base_params(0.0, J2=0.01, J3=2)
    assert isinstance(p.J2, complex) and isinstance(p.J3, complex)
    assert p.J3 == 2.0 + 0.0j


RATES = ("kappa1", "kappa2", "gamma", "f", "G1", "G2", "J1")


@pytest.mark.parametrize("kind", [np.float64, int], ids=["float64", "int"])
def test_rates_are_stored_as_python_floats(base_params, kind):
    p = base_params(kind(1), **{name: kind(2) for name in RATES})
    for name in RATES + ("theta", "phi"):
        assert type(getattr(p, name)) is float
    assert p == base_params(1.0, **{name: 2.0 for name in RATES})


def test_numpy_scalar_params_give_the_float_transmissions():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_params(rng)
        y = float(rng.uniform(-5.0, 5.0))
        q = replace(p, **{name: np.float64(getattr(p, name)) for name in RATES})
        ours, ref = transmission_pair(q, y), transmission_pair(p, y)
        assert type(ours.T12) is float and type(ours.T21) is float
        assert (ours.T12.hex(), ours.T21.hex()) == (ref.T12.hex(), ref.T21.hex())


@pytest.mark.parametrize("name", RATES + ("theta", "phi", "J2", "J3"))
def test_str_field_raises_type_error(base_params, name):
    # a str is rejected, not parsed as a number
    with pytest.raises(TypeError):
        base_params(0.0, **{name: "1.0"})


def _replace_built(p, reference):
    # convert_unit as built field by field through dataclasses.replace:
    # the reference its direct construction must reproduce exactly
    if reference == p.unit.reference:
        return p
    scale = {"gamma": p.gamma, "kappa2": p.kappa2}.get(reference,
                                                      1.0 / p.unit.value)
    updates = {name: getattr(p, name) / scale for name in RATES + ("J2", "J3")}
    return replace(p, unit=RateUnit(reference, p.unit.value * scale),
                   **updates)


def test_convert_unit_is_the_replace_built_conversion():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = random_params(rng)
        for route in (("kappa2", "absolute"), ("kappa2", "gamma"),
                      ("absolute", "kappa2")):
            ours = ref = p
            for reference in route:
                ours = convert_unit(ours, reference)
                ref = _replace_built(ref, reference)
                # repr shows every field's type and bits
                assert repr(ours) == repr(ref)


# per hand-written constructor: valid arguments, and the type each field
# that the constructor converts is stored as
_CONSTRUCTED = {
    ModelParams: (
        dict(kappa1=1.0, kappa2=2.0, gamma=0.5, f=10.0, G1=0.5, G2=0.25,
             theta=7.0, J1=0.5, J2=0.01, phi=-0.3, J3=4.476j,
             unit=RateUnit("kappa2", 2.0)),
        {**dict.fromkeys(RATES + ("theta", "phi"), float),
         "J2": complex, "J3": complex}),
    BareParams: (dict(_BARE, J2=0.01 + 0.5j),
                 {**dict.fromkeys(_BARE_REALS, float),
                  "J2": complex, "J3": complex}),
    SteadyState: (
        dict(alpha1=1 - 2j, alpha2=0.5j, rho=3 + 0j, beta=-1.5 + 1j,
             Delta1_eff=9.5, Delta2_eff=-0.25, residual_norm=1e-12,
             iterations=7), {}),
    TransmissionPoint: (dict(y=-0.5, T12=0.2, T21=0.9),
                        dict.fromkeys(("y", "T12", "T21"), float)),
}


def _numpy_scalar(v):
    if isinstance(v, complex):
        return np.complex128(v)
    return np.float64(v) if isinstance(v, float) else v


@pytest.mark.parametrize("cls", list(_CONSTRUCTED),
                         ids=lambda cls: cls.__name__)
def test_hand_written_constructor_is_the_dataclass_one(cls):
    kwargs, converted = _CONSTRUCTED[cls]
    obj = cls(**kwargs)
    names = [f.name for f in fields(cls)]
    assert list(vars(obj)) == names
    params = inspect.signature(cls).parameters
    assert list(params) == names
    assert [p.default for p in params.values()] == [
        inspect.Parameter.empty if f.default is MISSING else f.default
        for f in fields(cls)]

    same = replace(obj)
    assert same == obj
    assert (hash(same), repr(same)) == (hash(obj), repr(obj))
    assert copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)

    # numpy scalars are subclasses of float and complex: test the type
    stored = vars(cls(**{k: _numpy_scalar(v) for k, v in kwargs.items()}))
    assert {name: type(stored[name]) for name in converted} == converted
    assert stored == vars(obj)


def _as_int(v):
    return int(v) if isinstance(v, float) and v.is_integer() else v


def _as_bool(v):
    return {1.0: True, 0.0: False}.get(v, v) if isinstance(v, float) else v


@pytest.mark.parametrize("convert", [_numpy_scalar, _as_int, _as_bool],
                         ids=["numpy", "int", "bool"])
def test_bare_params_store_floats_whatever_they_are_given(convert):
    # J1 = kappa = gamma = 1 and Delta_en = 0, so the bool set has bools
    floats = dict(_BARE, J1=1.0, Delta_en=0.0)
    given = BareParams(**{k: convert(v) for k, v in floats.items()})
    ref = BareParams(**floats)
    assert {n: type(v) for n, v in vars(given).items()} == \
        {n: type(v) for n, v in vars(ref).items()}
    assert bare_params_from_dict(bare_params_to_dict(given)) == given == ref
    drives = Drives(E1=1.5 + 0.5j)
    ours, theirs = solve_steady_state(given, drives), solve_steady_state(ref, drives)
    assert ours == theirs
    assert repr(ours) == repr(theirs)


@pytest.mark.parametrize("value", [True, 2, np.float64(2.0)],
                         ids=["bool", "int", "numpy"])
def test_rate_unit_stores_a_float(base_params, value):
    unit = RateUnit("gamma", value)
    assert type(unit.value) is float and unit.value == value
    p = base_params(0.3, unit=unit)
    assert model_params_from_dict(model_params_to_dict(p)) == p
