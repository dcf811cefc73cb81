"""The seeded parameter draw behind `verify`."""

import cmath
import math

import numpy as np

from nonrecip.params import ModelParams, RateUnit
from nonrecip.verify import random_params


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
