"""Command-line interface: subcommands, exit codes, emitted files."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys

import pytest

from nonrecip.cli import cli_main
from nonrecip.params import model_params_to_dict
from nonrecip.sweep import SPECTRUM_POINTS

# the module whose chunk size test_phasemap_json_threads_do_not_change_bytes
# patches
transmission_mod = importlib.import_module("nonrecip.transmission")


@pytest.fixture
def params_file(tmp_path, base_params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(model_params_to_dict(base_params(math.pi / 2))))
    return str(path)


def _steady_payload(**changes):
    # each keyword merges fields into that section, or drops it when None
    payload = {
        "bare": {"Delta1": 10.0, "Delta2": 10.0, "Delta_en": 10.0,
                 "omega_m": 10.0, "g1": 0.004, "g2": 0.004, "J1": 0.5,
                 "J2": 0.01, "J3": {"re": 0.0, "im": 4.476},
                 "kappa1": 1.0, "kappa2": 1.0, "gamma": 1.0, "f": 10.0},
        "drives": {"E1": 100.0},
    }
    for section, fields in changes.items():
        if fields is None:
            del payload[section]
        else:
            payload[section] = {**payload.get(section, {}), **fields}
    return payload


def _model_payload(**changes):
    return {"kappa1": 1.0, "kappa2": 1.0, "gamma": 1.0, "f": 10.0, "G1": 0.5,
            "G2": 0.5, "theta": 0.0, "J1": 0.5, "J2": 0.01, "phi": 0.0,
            "J3": {"re": 0.0, "im": 4.476}, **changes}


@pytest.fixture
def steady_file(tmp_path):
    payload = _steady_payload(drives={"E2": {"re": 0.0, "im": 100.0}})
    path = tmp_path / "steady.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_spectrum_writes_csv(tmp_path, params_file, capsys):
    rc = cli_main(["spectrum", "--params", params_file,
                   "--out", str(tmp_path), "--points", "11"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("spectrum.csv")
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "y,T12,T21,status"
    assert len(lines) == 12


def test_spectrum_default_points(tmp_path, params_file):
    rc = cli_main(["spectrum", "--params", params_file, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert len(lines) == SPECTRUM_POINTS + 1


def test_spectrum_json_format(tmp_path, params_file):
    rc = cli_main(["spectrum", "--params", params_file,
                   "--out", str(tmp_path), "--points", "5",
                   "--format", "json"])
    assert rc == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["columns"] == ["y", "T12", "T21", "status"]
    assert len(payload["rows"]) == 5


def test_spectrum_unit_conversion(tmp_path, params_file):
    # converting the gamma-referenced input to kappa2 units is a no-op here
    # (kappa2 = gamma = 1) so the dataset must be unchanged
    rc = cli_main(["spectrum", "--params", params_file, "--out", str(tmp_path),
                   "--points", "7", "--unit", "kappa2"])
    assert rc == 0
    ref_dir = tmp_path / "ref"
    cli_main(["spectrum", "--params", params_file, "--out", str(ref_dir),
              "--points", "7"])
    assert (tmp_path / "spectrum.csv").read_bytes() == \
        (ref_dir / "spectrum.csv").read_bytes()


def test_missing_params_file(tmp_path, capsys):
    rc = cli_main(["spectrum", "--params", str(tmp_path / "nope.json")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_malformed_params_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli_main(["spectrum", "--params", str(bad)])
    assert rc == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_invalid_params_content(tmp_path, base_params, capsys):
    payload = model_params_to_dict(base_params(0.0))
    payload["kappa1"] = -1.0
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(payload))
    rc = cli_main(["spectrum", "--params", str(path), "--out", str(tmp_path)])
    assert rc == 1
    assert "kappa1" in capsys.readouterr().err


@pytest.mark.parametrize("closed", ["kappa1", "kappa2"])
def test_closed_port_is_exit_1(tmp_path, base_params, capsys, closed):
    payload = model_params_to_dict(base_params(0.0))
    payload[closed] = 0.0
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(payload))
    rc = cli_main(["spectrum", "--params", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{closed}=0.0" in err
    assert not (tmp_path / "spectrum.csv").exists()


def test_usage_error_is_exit_1(capsys):
    assert cli_main(["spectrum"]) == 1  # --params is required
    assert cli_main([]) == 1
    assert cli_main(["no-such-command"]) == 1
    capsys.readouterr()


def test_phasemap_subcommand(tmp_path, params_file):
    rc = cli_main(["phasemap", "--params", params_file,
                   "--out", str(tmp_path), "--points", "5", "--y", "0.5"])
    assert rc == 0
    lines = (tmp_path / "phasemap.csv").read_text().splitlines()
    assert lines[0] == "theta,phi,T12,T21,status"
    assert len(lines) == 26


def test_phasemap_json_threads_do_not_change_bytes(tmp_path, params_file,
                                                   monkeypatch, cpus):
    # shrink the chunk size so the map actually splits across workers
    monkeypatch.setattr(transmission_mod, "_CHUNK", 16)
    written = []
    for threads in (1, 2):
        cpus(threads)
        out = tmp_path / str(threads)
        rc = cli_main(["phasemap", "--params", params_file, "--out", str(out),
                       "--points", "21", "--format", "json"])
        assert rc == 0
        written.append((out / "phasemap.json").read_bytes())
    assert written[0] == written[1]
    assert len(json.loads(written[0])["rows"]) == 21 * 21


def test_steady_subcommand(steady_file, capsys):
    rc = cli_main(["steady", "--params", steady_file])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["steady_state"]["residual_norm"] < 1e-10
    assert payload["steady_state"]["iterations"] >= 1
    assert payload["steady_state"]["alpha1"]["re"] != 0.0


def test_steady_writes_report(tmp_path, steady_file):
    rc = cli_main(["steady", "--params", steady_file, "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "steady.json").exists()


def test_steady_nonconvergence_is_exit_2(tmp_path, capsys):
    payload = _steady_payload(drives={"E1": 50.0},
                              solver={"tol": 1e-30, "max_iter": 2})
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(payload))
    rc = cli_main(["steady", "--params", str(path)])
    assert rc == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_steady_overflowing_step_is_exit_2(tmp_path, capsys):
    # a nearly singular cavity 1 makes a finite but huge Newton step; the
    # solver reports that, not an errno-style OverflowError text
    payload = _steady_payload(bare={"Delta1": 1e-200, "J1": 0.0, "J2": 0.0,
                                    "kappa1": 0.0}, drives={"E1": 30.0})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    rc = cli_main(["steady", "--params", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "out of range" not in err
    assert "Newton" in err or "homotopy" in err or "line search" in err


def test_phasemap_beyond_the_evaluable_range_is_exit_1(tmp_path, params_file,
                                                      capsys):
    # the pole threshold overflows at this detuning: a validation error
    # naming y, not the errno text of an OverflowError
    rc = cli_main(["phasemap", "--params", params_file, "--out",
                   str(tmp_path), "--points", "5", "--y", "1e200"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot evaluate the response at y=1e+200:")
    assert err.count("\n") == 1
    assert "out of range" not in err
    assert not (tmp_path / "phasemap.csv").exists()


def test_spectrum_beyond_the_range_names_the_rate(tmp_path, base_params,
                                                 capsys):
    # y is in range here: the message names the rate that overflows
    path = tmp_path / "params.json"
    path.write_text(json.dumps(model_params_to_dict(
        base_params(math.pi / 2, kappa1=1e200))))
    rc = cli_main(["spectrum", "--params", str(path), "--out", str(tmp_path),
                   "--points", "5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot evaluate the response at |y| up to "
                          "5.0: the pole threshold is not finite (the "
                          "largest parameter is |kappa1| = 1e+200;")
    assert err.count("\n") == 1
    assert not (tmp_path / "spectrum.csv").exists()


def test_interrupt_is_exit_2(monkeypatch, capsys):
    def interrupted(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(importlib.import_module("nonrecip.cli"),
                        "run_verification", interrupted)
    assert cli_main(["verify"]) == 2
    assert capsys.readouterr() == ("", "error: interrupted\n")


@pytest.mark.parametrize("command, payload, named", [
    ("spectrum", {"kappa2": 1.0, "gamma": 1.0, "f": 10.0, "G1": 0.5,
                  "G2": 0.5, "theta": 0.0, "J1": 0.5, "J2": 0.01, "phi": 0.0,
                  "J3": {"re": 0.0, "im": 4.476}}, "kappa1"),
    ("steady", _steady_payload(bare=None), "bare"),
    ("steady", _steady_payload(solver={"tol": 1e-12, "steps": 3}), "steps"),
    ("steady", _steady_payload(bare={"gamma": math.nan}), "gamma"),
    ("steady", _steady_payload(solver={"max_iter": 2.5}),
     "max_iter must be an integer"),
    ("steady", _steady_payload(solver={"max_iter": True}),
     "max_iter must be an integer"),
    ("spectrum", _model_payload(theta=math.inf), "theta finite"),
    ("phasemap", _model_payload(kappa1=-1.0), "kappa1 nonnegative"),
    ("steady", _steady_payload(solver={"damping": 0.5}), "'damping'"),
    ("steady", {**_steady_payload(drives=None), "drives": {"e1": 100.0}},
     "unknown key 'e1' for Drives"),
    ("steady", {**_steady_payload(drives=None), "drives": []},
     "Drives must be a JSON object, not list"),
    ("spectrum", _model_payload(J3={"Re": 0.0, "Im": 4.476}),
     "J3: unknown key 'Im' in a complex value"),
    ("spectrum --unit kappa2", _model_payload(unit="gamma"),
     "unit: RateUnit must be a JSON object, not str"),
    ("spectrum", _model_payload(kappa2=True),
     "kappa2: expected a number, not bool"),
    ("steady", {**_steady_payload(drives=None), "drives": {"E1": "100"}},
     "E1: expected a number, not str"),
    ("steady", {**_steady_payload(drives=None), "drives": {"E1": {"re": True}}},
     "E1: expected a number, not bool"),
    ("steady", _steady_payload(bare={"g1": "0.004"}),
     "g1: expected a number, not str"),
    ("steady", _steady_payload(solver={"tol": True}),
     "tol: expected a number, not bool"),
    # a 401-digit integer: beyond the float range, bad input, not exit 2
    ("steady", _steady_payload(bare={"Delta1": 10 ** 400}),
     "Delta1: int too large to convert to float"),
    ("steady", {**_steady_payload(drives=None),
                "drives": {"E1": {"re": 0.0, "im": 10 ** 400}}},
     "E1: int too large to convert to float"),
    ("steady", {**_steady_payload(drives=None),
                "drives": {"E1": 100.0, "Ep1": 1.0}},
     "unknown key 'Ep1' for Drives"),
    # a misspelled section used to be ignored, solving at zero drive
    ("steady", {**_steady_payload(drives=None), "drive": {"E1": 100.0}},
     "unknown key 'drive'; use 'bare', 'drives' and 'solver'"),
    ("steady", 3, "must be a JSON object, not int"),
], ids=["spectrum-missing-field", "steady-no-bare", "steady-unknown-solver-key",
        "steady-nan-rate", "steady-float-max-iter", "steady-bool-max-iter",
        "spectrum-infinite-theta", "phasemap-negative-rate",
        "steady-damping-is-not-a-solver-key", "steady-unknown-drive-key",
        "steady-drives-not-an-object", "spectrum-unknown-complex-key",
        "spectrum-unit-not-an-object", "spectrum-bool-rate",
        "steady-str-drive", "steady-bool-complex-part", "steady-str-rate",
        "steady-bool-tol", "steady-huge-int-rate", "steady-huge-int-drive-part",
        "steady-probe-amplitude-key", "steady-misspelled-section",
        "steady-not-an-object"])
def test_bad_input_file_is_exit_1(tmp_path, capsys, command, payload, named):
    path = tmp_path / "input.json"
    # NaN and Infinity are written as the bare literals
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    rc = cli_main([*command.split(), "--params", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists() or not os.listdir(out)


def test_module_entry_point():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "nonrecip", "verify", "--draws", "3"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    passed = [ln for ln in proc.stdout.splitlines() if ln.startswith("PASS ")]
    assert len(passed) == 8


# installed on some hosts, but not dependencies; concurrent.futures is
# imported only when a thread pool of two or more workers starts
_NEVER_LOADED = ("scipy", "sympy", "concurrent.futures")

_COMMANDS_CHILD = """
import contextlib, io, json, sys
from nonrecip.cli import cli_main
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli_main(argv))
print(json.dumps({"codes": codes,
                  "loaded": [m for m in json.loads(sys.argv[2])
                             if m in sys.modules]}))
"""


def test_runtime_needs_only_numpy(tmp_path, steady_file):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    imported = set()
    for root, _, names in os.walk(src):
        for name in names:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(a.name.partition(".")[0]
                                    for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.partition(".")[0])
    assert "numpy" in imported
    assert imported - set(sys.stdlib_module_names) - {"numpy"} == set()

    argvs = [
        ["verify"],
        ["design", "--kappa1", "1", "--kappa2", "1", "--gamma", "1",
         "--f", "10"],
        ["steady", "--params", steady_file],
        ["figure", "fig3c", "--out", str(tmp_path)],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _COMMANDS_CHILD, json.dumps(argvs),
         json.dumps(_NEVER_LOADED)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "loaded": []}


def test_design_subcommand(tmp_path, capsys):
    rc = cli_main(["design", "--kappa1", "10", "--kappa2", "1",
                   "--gamma", "0.01", "--f", "1", "--unit", "kappa2",
                   "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1
    assert report["chosen"] is not None
    chosen = report["root_candidates"][report["chosen"]]
    assert chosen["valid"] is True
    assert (tmp_path / "design.json").exists()
    # the emitted parameter set must reproduce the design end to end
    from nonrecip.params import model_params_from_dict
    from nonrecip.transmission import transmission_pair
    p = model_params_from_dict(report["model_params"])
    tp = transmission_pair(p, 0.0)
    assert min(tp.T12, tp.T21) < 1e-6
    assert abs(max(tp.T12, tp.T21) - 1.0) < 1e-6


def test_no_valid_design_is_exit_2(monkeypatch, capsys):
    # NoValidDesign is a RuntimeError: a numerical failure, reported by
    # the first line of its per-candidate report
    design_mod = importlib.import_module("nonrecip.design")
    cli_mod = importlib.import_module("nonrecip.cli")
    from nonrecip.params import TransmissionPoint
    with monkeypatch.context() as m:
        m.setattr(design_mod, "transmission_pair",
                  lambda p, y: TransmissionPoint(y=y, T12=0.5, T21=0.5))
        with pytest.raises(design_mod.NoValidDesign) as exc_info:
            design_mod.design_isolator(10.0, 1.0, 0.01, 1.0)
    failure = exc_info.value
    assert len(str(failure).splitlines()) > 1

    def no_design(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli_mod, "design_isolator", no_design)
    rc = cli_main(["design", "--kappa1", "10", "--kappa2", "1",
                   "--gamma", "0.01", "--f", "1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: no J3 candidate achieves one-way transmission "
                   "at resonance\n")


def test_design_rejects_bad_rates(capsys):
    rc = cli_main(["design", "--kappa1", "10", "--kappa2", "1",
                   "--gamma", "-0.01", "--f", "1"])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("rates", [
    ("1e150", "1", "1", "10"),
    ("1e200", "1", "1", "10"),
    ("1e200", "1e200", "1", "1"),
    ("1e-200",) * 4,
    ("10", "1", "1e16", "1"),
    ("1e-160",) * 4,
])
def test_design_beyond_the_range_is_exit_1(rates, capsys):
    # rates the model cannot evaluate are bad input, not a failed design
    argv = ["design"]
    for name, value in zip(("kappa1", "kappa2", "gamma", "f"), rates):
        argv += [f"--{name}", value]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: the rates kappa1=")
    assert err.endswith(" are beyond the range the model evaluates\n")


def test_figure_subcommand(tmp_path, capsys):
    rc = cli_main(["figure", "fig3c", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fig3c.csv").exists()
    assert (tmp_path / "fig3c_summary.json").exists()
    capsys.readouterr()


_RATES = {"kappa1", "kappa2", "gamma", "f", "G1", "G2", "J1"}
_MODEL_KEYS = _RATES | {"theta", "phi", "J2", "J3", "unit"}


def test_report_key_sets(tmp_path, steady_file, capsys):
    # the reports are written from the dataclass fields: a renamed or
    # dropped field changes a key set here
    assert cli_main(["design", "--kappa1", "10", "--kappa2", "1", "--gamma",
                     "0.01", "--f", "1", "--out", str(tmp_path)]) == 0
    assert cli_main(["steady", "--params", steady_file,
                     "--out", str(tmp_path)]) == 0
    assert cli_main(["figure", "fig2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    design = json.loads((tmp_path / "design.json").read_text())
    assert set(design) == _RATES | {
        "schema_version", "theta", "phi", "unit", "r_coefficients",
        "root_candidates", "chosen", "model_params"}
    assert set(design["r_coefficients"]) == _RATES | {
        "R1", "R2", "R2p", "R3", "R4", "R5", "R6", "R7", "R8", "R9"}
    for c in design["root_candidates"]:
        assert set(c) == {"J3", "J2", "J2_mag", "J2_residue", "J2_nonreal",
                          "T12_at_resonance", "T21_at_resonance", "valid",
                          "direction"}
    assert set(design["model_params"]) == _MODEL_KEYS
    assert set(design["unit"]) == {"reference", "value"}
    steady = json.loads((tmp_path / "steady.json").read_text())
    assert set(steady) == {"schema_version", "bare", "drives", "steady_state"}
    assert set(steady["bare"]) == {
        "Delta1", "Delta2", "Delta_en", "omega_m", "g1", "g2", "J1", "J2",
        "J3", "kappa1", "kappa2", "gamma", "f"}
    assert set(steady["drives"]) == {"E1", "E2"}
    assert set(steady["steady_state"]) == {
        "alpha1", "alpha2", "rho", "beta", "Delta1_eff", "Delta2_eff",
        "residual_norm", "iterations"}
    summary = json.loads((tmp_path / "fig2_summary.json").read_text())
    assert set(summary["params"]) == _MODEL_KEYS
    assert set(summary["grid"]) == {"axis1", "axis2", "y"}
    for axis in ("axis1", "axis2"):
        assert set(summary["grid"][axis]) == {"name", "start", "stop",
                                              "points"}


def test_figure_unknown_id(tmp_path, capsys):
    rc = cli_main(["figure", "fig99", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "fig99" in err


def test_figure_determinism(tmp_path, capsys):
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["figure", "fig3c", "--out", str(d1)]) == 0
    assert cli_main(["figure", "fig3c", "--out", str(d2)]) == 0
    assert (d1 / "fig3c.csv").read_bytes() == (d2 / "fig3c.csv").read_bytes()
    capsys.readouterr()


def test_verify_subcommand(capsys):
    rc = cli_main(["verify", "--draws", "10", "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) >= 8
    assert all(ln.startswith("PASS") for ln in lines)


@pytest.mark.parametrize("draws", ["0", "-5"])
def test_verify_rejects_draws_below_one(capsys, draws):
    rc = cli_main(["verify", "--draws", draws])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: draws must be at least 1\n"


@pytest.mark.parametrize("seed", ["-1", "-20240817"])
def test_verify_rejects_negative_seed(capsys, seed):
    rc = cli_main(["verify", "--seed", seed])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a nonnegative integer\n"
