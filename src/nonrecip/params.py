"""Typed parameter sets for the two-cavity optomechanical isolator model.

The model couples two driven optical cavities (decay rates kappa1, kappa2)
through photon tunneling J1, a mechanical mode (damping gamma) driven by
radiation pressure in both cavities (effective couplings G1, G2 with relative
phase theta), and a bosonized atomic ensemble (decay f) that couples to
cavity 1 (coupling J2 with phase phi) and to the mechanical mode through a
complex, possibly dissipative coupling J3.

All rates are stored as dimensionless multiples of a declared reference rate
(``gamma`` or ``kappa2``, or an absolute rad/s scale); figures and design
routines quote both normalizations, so parameter sets round-trip between
them losslessly.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import partial

TWO_PI = 2.0 * math.pi

_REFERENCES = ("gamma", "kappa2", "absolute")

_INF = math.inf
# the real rate-valued fields of ModelParams
_RATE_FIELDS = ("kappa1", "kappa2", "gamma", "f", "G1", "G2", "J1")


class InvalidParams(ValueError):
    """Raised when a parameter set breaks the model's invariants."""


def wrap_phase(x: float) -> float:
    """Map a phase to [0, 2*pi). Idempotent; -0.0 normalizes to 0.0."""
    w = math.fmod(float(x), TWO_PI)
    if w < 0.0:
        w += TWO_PI
    if w >= TWO_PI:  # fmod can land exactly on 2*pi after the shift
        w -= TWO_PI
    return w + 0.0


def _require_finite(obj) -> None:
    for name, value in vars(obj).items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class RateUnit:
    """Reference rate that all rate-valued fields of a parameter set share.

    ``reference`` names the normalization ("gamma", "kappa2", or "absolute");
    ``value`` is the size of one unit in rad/s when it is known, else 1.0.
    """

    reference: str = "gamma"
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.reference not in _REFERENCES:
            raise ValueError(f"unknown rate reference {self.reference!r}")
        if not (self.value > 0.0) or not math.isfinite(self.value):
            raise ValueError("rate unit value must be a positive finite number")


# frozen, so one instance of each unit-valued reference serves every caller
_GAMMA_UNIT = RateUnit("gamma", 1.0)
_KAPPA2_UNIT = RateUnit("kappa2", 1.0)
_ABSOLUTE_UNIT = RateUnit("absolute", 1.0)


@dataclass(frozen=True)
class ModelParams:
    """Linearized-model parameters: the symbols of the 4x4 response matrix.

    Parameters
    ----------
    kappa1, kappa2 : float
        Cavity amplitude decay rates, >= 0.
    gamma : float
        Mechanical damping rate, >= 0.
    f : float
        Atomic-ensemble decay rate, >= 0.
    G1, G2 : float
        Effective optomechanical coupling magnitudes, >= 0. G1 is real by
        convention; the relative drive phase is carried by ``theta``.
    theta : float
        Phase of G2 relative to G1, stored wrapped to [0, 2*pi).
    J1 : float
        Photon tunneling rate between the cavities, >= 0.
    J2 : complex
        Value bound to the ensemble/cavity-1 coupling slot. Real and
        nonnegative in ordinary configurations; designed dissipative
        configurations legitimately carry a purely imaginary value here
        (for the same reason J3 is stored as a full complex number).
    phi : float
        Phase attached to the J2 slot via e^{+-i phi}, wrapped to [0, 2*pi).
    J3 : complex
        Ensemble/mechanics coupling; an imaginary part models dissipative
        (reservoir-mediated) coupling.
    unit : RateUnit
        Normalization shared by every rate-valued field above.

    Construction raises InvalidParams, naming every violation, for a
    negative or non-finite rate, a non-finite phase or coupling, or a
    negative real J2. A valid set stores the rates and phases as Python
    floats and J2, J3 as complex, whatever numeric type they came in as
    (numpy scalars included); a str raises TypeError.
    """

    kappa1: float
    kappa2: float
    gamma: float
    f: float
    G1: float
    G2: float
    theta: float
    J1: float
    J2: complex
    phi: float
    J3: complex
    unit: RateUnit = _GAMMA_UNIT

    def __post_init__(self) -> None:
        k1, k2, g, f, G1, G2, J1 = (self.kappa1, self.kappa2, self.gamma,
                                    self.f, self.G1, self.G2, self.J1)
        theta, phi = self.theta, self.phi
        J2, J3 = self.J2, self.J3
        # the valid case in one test: a NaN fails every comparison, and a
        # str raises TypeError in a comparison or in cmath.isfinite, which
        # come before complex(), so it is never parsed
        if not (0.0 <= k1 < _INF and 0.0 <= k2 < _INF and 0.0 <= g < _INF
                and 0.0 <= f < _INF and 0.0 <= G1 < _INF
                and 0.0 <= G2 < _INF and 0.0 <= J1 < _INF
                and -_INF < theta < _INF and -_INF < phi < _INF
                and cmath.isfinite(J2) and cmath.isfinite(J3)
                and (J2.real >= 0.0 or J2.imag != 0.0)):
            raise InvalidParams("invalid parameters: "
                                + "; ".join(self._violations(J2, J3)))
        # a numpy scalar would keep every later scalar operation at numpy
        # speed: store the rates as Python floats
        if not (type(k1) is type(k2) is type(g) is type(f) is type(G1)
                is type(G2) is type(J1) is float):
            for name in _RATE_FIELDS:
                object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "theta", wrap_phase(theta))
        object.__setattr__(self, "phi", wrap_phase(phi))
        object.__setattr__(self, "J2", complex(J2))
        object.__setattr__(self, "J3", complex(J3))

    def _violations(self, J2: complex, J3: complex) -> list[str]:
        violations: list[str] = []
        for name in _RATE_FIELDS:
            v = getattr(self, name)
            if not math.isfinite(v):
                violations.append(f"{name} finite")
            elif v < 0.0:
                violations.append(f"{name} nonnegative")
        # checked before wrapping, which cannot take a non-finite phase
        for name in ("theta", "phi"):
            if not math.isfinite(getattr(self, name)):
                violations.append(f"{name} finite")
        for name, z in (("J2", J2), ("J3", J3)):
            if not cmath.isfinite(z):
                violations.append(f"{name} finite")
        # the J2 slot may be complex (designed configurations), but a plain
        # negative real value is a sign error the phase phi should absorb
        if J2.imag == 0.0 and J2.real < 0.0:
            violations.append("J2 nonnegative when real")
        return violations


def convert_unit(p: ModelParams, reference: str) -> ModelParams:
    """Re-express every rate-valued field of ``p`` against a new reference.

    Converting to "kappa2" divides all rates by the current kappa2 value (so
    the stored kappa2 becomes 1); converting to "gamma" divides by gamma;
    converting to "absolute" multiplies by the current unit's rad/s value.
    Phases are untouched. Round-tripping reproduces the original fields to
    floating-point accuracy.
    """
    if reference not in _REFERENCES:
        raise ValueError(f"unknown rate reference {reference!r}")
    if reference == p.unit.reference:
        return p
    if reference == "gamma":
        scale = p.gamma
    elif reference == "kappa2":
        scale = p.kappa2
    else:
        scale = 1.0 / p.unit.value
    if not (scale > 0.0) or not math.isfinite(scale):
        raise InvalidParams(f"cannot rescale to {reference}: reference rate is {scale}")
    return ModelParams(
        p.kappa1 / scale, p.kappa2 / scale, p.gamma / scale, p.f / scale,
        p.G1 / scale, p.G2 / scale, p.theta, p.J1 / scale, p.J2 / scale,
        p.phi, p.J3 / scale, RateUnit(reference, p.unit.value * scale))


@dataclass(frozen=True)
class BareParams:
    """Pre-linearization quantities entering the steady-state equations."""

    Delta1: float
    Delta2: float
    Delta_en: float
    omega_m: float
    g1: float
    g2: float
    J1: float
    J2: complex
    J3: complex
    kappa1: float
    kappa2: float
    gamma: float
    f: float

    def __post_init__(self) -> None:
        # checked before complex(), which would parse a str
        _require_finite(self)
        object.__setattr__(self, "J2", complex(self.J2))
        object.__setattr__(self, "J3", complex(self.J3))
        if not self.omega_m > 0.0:
            raise ValueError("omega_m must be positive")
        for name in ("kappa1", "kappa2", "gamma", "f"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class Drives:
    """Pump amplitudes of the two cavities, which fix the operating point.

    The probe enters only the linear response, whose transmission is a
    ratio at the probe detuning y, so no probe amplitude is held here.
    """

    E1: complex = 0.0
    E2: complex = 0.0

    def __post_init__(self) -> None:
        # checked before complex(), which would parse a str
        _require_finite(self)
        object.__setattr__(self, "E1", complex(self.E1))
        object.__setattr__(self, "E2", complex(self.E2))


@dataclass(frozen=True)
class SteadyState:
    """Converged mean amplitudes and the drive-shifted effective detunings."""

    alpha1: complex
    alpha2: complex
    rho: complex
    beta: complex
    Delta1_eff: float
    Delta2_eff: float
    residual_norm: float
    iterations: int = 0


@dataclass(frozen=True)
class TransmissionPoint:
    """Transmission amplitudes in both directions at one probe detuning."""

    y: float
    T12: float
    T21: float

    def __post_init__(self) -> None:
        y, T12, T21 = self.y, self.T12, self.T21
        if not (0.0 <= T12 < _INF and 0.0 <= T21 < _INF):
            if not (math.isfinite(T12) and math.isfinite(T21)):
                raise ValueError("transmission amplitudes must be finite")
            raise ValueError("transmission amplitudes must be nonnegative")
        if not (type(y) is type(T12) is type(T21) is float):
            object.__setattr__(self, "y", float(y))
            object.__setattr__(self, "T12", float(T12))
            object.__setattr__(self, "T21", float(T21))


# ---------------------------------------------------------------------------
# JSON codec: one encoder and one decoder driven by the dataclass fields.
# ---------------------------------------------------------------------------

def _encode(v):
    if is_dataclass(v):
        return _to_dict(v)
    if isinstance(v, tuple):
        return [_encode(x) for x in v]
    if isinstance(v, complex):
        return None if cmath.isnan(v) else {"re": v.real, "im": v.imag}
    if isinstance(v, float) and math.isnan(v):
        return None
    return v


def _to_dict(obj) -> dict:
    """The JSON form of dataclass ``obj``, one key per field.

    A complex value becomes ``{"re", "im"}``, a NaN (or a complex with a
    NaN part) becomes None, and nested dataclasses and tuples are encoded
    the same way.
    """
    return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}


def _number(v):
    # float() and complex() would parse a str and read a bool as 0 or 1
    if isinstance(v, (bool, str)):
        raise TypeError(f"expected a number, not {type(v).__name__}")
    return v


def _decode_float(v) -> float:
    return float(_number(v))


def _decode_complex(v) -> complex:
    if isinstance(v, dict):
        unknown = v.keys() - {"re", "im"}
        if unknown:
            raise ValueError(f"unknown key {min(unknown)!r} in a complex "
                             "value; use 're' and 'im'")
        return complex(_number(v.get("re", 0.0)), _number(v.get("im", 0.0)))
    return complex(_number(v))


def _from_dict(cls, d):
    """Build dataclass ``cls`` from the JSON form `_to_dict` writes.

    Each field is decoded by its annotated type; a missing field takes its
    default, or raises KeyError naming it when it has none. A ``d`` that is
    not a JSON object raises TypeError, and a key that is not a field of
    ``cls``, or a field that does not decode, raises ValueError or
    TypeError naming it; a str or a bool in a number field does not decode,
    and an int beyond the float range raises ValueError.
    """
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__} must be a JSON object, "
                        f"not {type(d).__name__}")
    fs = fields(cls)
    unknown = d.keys() - {f.name for f in fs}
    if unknown:
        raise ValueError(f"unknown key {min(unknown)!r} for {cls.__name__}")
    kwargs = {}
    for f in fs:
        if f.name in d:
            decode = _DECODERS.get(f.type)
            try:
                kwargs[f.name] = d[f.name] if decode is None else decode(d[f.name])
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"{f.name}: {exc}") from None
            except OverflowError as exc:
                # an int beyond the float range: bad input, not arithmetic
                raise ValueError(f"{f.name}: {exc}") from None
        elif f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return cls(**kwargs)


# decoders by annotation, which is a str (annotations are postponed); a
# field of another type reaches the class unchanged, and the class checks it
_DECODERS = {"float": _decode_float, "complex": _decode_complex,
             "RateUnit": partial(_from_dict, RateUnit)}

model_params_to_dict = bare_params_to_dict = drives_to_dict = _to_dict
steady_state_to_dict = _to_dict
model_params_from_dict = partial(_from_dict, ModelParams)
bare_params_from_dict = partial(_from_dict, BareParams)
drives_from_dict = partial(_from_dict, Drives)


def _json_text(payload: dict) -> str:
    # the one layout of every JSON report, figure summary and sweep table
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload))


__all__ = [
    "BareParams", "Drives", "InvalidParams", "ModelParams", "RateUnit",
    "SteadyState", "TransmissionPoint", "bare_params_from_dict",
    "bare_params_to_dict", "convert_unit", "drives_from_dict",
    "drives_to_dict", "model_params_from_dict", "model_params_to_dict",
    "steady_state_to_dict", "wrap_phase",
]
