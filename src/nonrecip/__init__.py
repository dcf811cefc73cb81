"""Nonreciprocal transmission in a two-cavity optomechanical network.

Two tunnel-coupled optical cavities share a mechanical mode; a bosonized
atomic ensemble couples to one cavity and, through a complex (dissipative)
coupling, to the mechanics. The relative phases of the coupling loops break
reciprocity: probe light can transmit fully one way and not at all the
other. This package computes the nonlinear steady state, the linearized
4x4 probe response, both-direction transmission spectra, analytical
coupling designs for perfect isolation, and the parameter sweeps behind
the reference figure datasets.
"""

# the package's public names are its modules' own __all__ lists, read
# before the star imports rebind ``sweep`` from the module to the function
from . import design, params, response, steady, sweep, transmission

__all__ = [name for module in (design, params, response, steady, sweep,
                               transmission) for name in module.__all__]

from .design import *  # noqa: E402,F401,F403
from .params import *  # noqa: E402,F401,F403
from .response import *  # noqa: E402,F401,F403
from .steady import *  # noqa: E402,F401,F403
from .sweep import *  # noqa: E402,F401,F403
from .transmission import *  # noqa: E402,F401,F403

__version__ = "0.1.0"
