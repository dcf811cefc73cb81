import os

import numpy as np
import pytest

from nonrecip import ModelParams, RateUnit


@pytest.fixture
def base_params():
    """Factory for the gamma-referenced base configuration.

    Defaults match the regression-figure operating point (equal cavity
    decays, f ten times gamma, weak ensemble/cavity coupling, purely
    imaginary ensemble/mechanics coupling); any field can be overridden.
    """
    def make(theta, phi=None, **overrides):
        fields = dict(
            kappa1=1.0, kappa2=1.0, gamma=1.0, f=10.0,
            G1=0.5, G2=0.5, theta=theta, J1=0.5,
            J2=0.01, phi=theta if phi is None else phi,
            J3=4.476j, unit=RateUnit("gamma", 1.0),
        )
        fields.update(overrides)
        return ModelParams(**fields)
    return make


@pytest.fixture
def cpus(monkeypatch):
    """Pin the CPU affinity the thread pool is sized by to ``n`` CPUs."""
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
    return pin


@pytest.fixture
def rng():
    return np.random.default_rng(987123)
