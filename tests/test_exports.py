"""Public names: every exported name resolves, and none is listed twice.

The package's names are its six library modules' ``__all__`` lists, so a
name is made public once, in the module that defines it. The names the
README gives as `module.name` resolve too.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import nonrecip

MODULES = ["nonrecip"] + [
    f"nonrecip.{m.name}" for m in pkgutil.iter_modules(nonrecip.__path__)
    if m.name != "__main__"
]

# the modules `import nonrecip` loads; `verify` and `cli` stay out
LIBRARY = ("design", "params", "response", "steady", "sweep", "transmission")

# the package-level names of the release before the lists were joined;
# each stays exported (ZeroAmplitude left with the alpha1 = 0 refusal)
EARLIER_EXPORTS = (
    "Axis", "BareParams", "DegenerateQuadratic", "DesignCandidate",
    "Direction", "DivisionByZero", "Drives", "InvalidParameterPath",
    "InvalidParams", "IsolationMetrics", "IsolatorDesign", "ModelParams",
    "NoValidDesign", "NonConvergence", "RCoefficients", "RateUnit",
    "ResonanceMisaligned", "ResponseSolution", "SingularJacobian",
    "SingularMatrix", "SolverConfig", "SteadyState", "SweepSpec",
    "SweepTable", "TransmissionPoint", "UnknownFigure", "ZeroJ3",
    "build_system_matrix", "convert_unit", "design_isolator",
    "design_to_dict", "effective_couplings", "figure_ids", "figure_preset",
    "isolation_metrics", "j2_literal", "j3_roots", "linearized_params",
    "model_params_from_dict", "model_params_to_dict", "nonreal_residue",
    "phasemap_spec", "r_coefficients", "reproduce_figure", "solve_response",
    "solve_steady_state", "spectrum_spec", "steady_residual", "sweep",
    "transmission_grid", "transmission_pair", "wrap_phase", "write_csv",
    "write_json",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing


def test_package_exports_are_the_module_lists():
    modules = [importlib.import_module(f"nonrecip.{m}") for m in LIBRARY]
    assert nonrecip.__all__ == [n for m in modules for n in m.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(nonrecip, name) is getattr(module, name), name
    # the function, not the module, as before the lists were joined
    assert nonrecip.sweep is importlib.import_module("nonrecip.sweep").sweep
    assert len(EARLIER_EXPORTS) == 54
    assert not set(EARLIER_EXPORTS) - set(nonrecip.__all__)


# a backticked `module.name` of one of the package's modules
README_NAME = re.compile(
    r"`(?:nonrecip\.)?(design|params|response|steady|sweep|transmission"
    r"|verify|cli)\.([A-Za-z_]\w*)")


def test_readme_names_resolve():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    names = README_NAME.findall(text)
    assert names
    missing = [f"{m}.{n}" for m, n in names
               if not hasattr(importlib.import_module(f"nonrecip.{m}"), n)]
    assert not missing
