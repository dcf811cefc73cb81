"""Command-line front end: spectra, phase maps, steady states, designs.

Exit codes: 0 success, 1 validation error (bad arguments, unreadable or
inconsistent input files), 2 numerical failure (poles, non-convergence, no
valid design). Every failure prints a one-line diagnostic to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .design import NoValidDesign, design_isolator, design_to_dict
from .params import (
    BareParams,
    Drives,
    ModelParams,
    RateUnit,
    _from_dict,
    _json_text,
    _to_dict,
    _write_json,
    convert_unit,
)
from .steady import SolverConfig, solve_steady_state
from .sweep import (
    PHASEMAP_POINTS,
    SCHEMA_VERSION,
    SPECTRUM_POINTS,
    phasemap_spec,
    reproduce_figure,
    spectrum_spec,
    sweep,
    write_csv,
    write_json,
)
from .verify import DEFAULT_DRAWS, DEFAULT_SEED, run_verification


class CliError(Exception):
    """Invalid invocation or input file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 is reserved for
    # numerical failures here, so remap to the validation path
    def error(self, message):
        raise CliError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"params file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"params file {path} is not valid JSON "
                       f"(line {exc.lineno})") from None


def _load_model_params(path: str, unit: str | None):
    d = _load_json(path)
    try:
        p = _from_dict(ModelParams, d)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad params file {path}: {exc}") from None
    if unit:
        p = convert_unit(p, unit)
    return p


def _emit_report(payload: dict, out_dir: str | None, name: str) -> int:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(payload, os.path.join(out_dir, name))
    sys.stdout.write(_json_text(payload))
    return 0


def _emit_table(table, args, name: str) -> int:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{name}.{args.format}")
    if args.format == "csv":
        write_csv(table, path)
    else:
        write_json(table, path)
    print(path)
    return 0


def _cmd_spectrum(args) -> int:
    p = _load_model_params(args.params, args.unit)
    table = sweep(spectrum_spec(p, points=args.points))
    return _emit_table(table, args, "spectrum")


def _cmd_phasemap(args) -> int:
    p = _load_model_params(args.params, args.unit)
    table = sweep(phasemap_spec(p, points=args.points, y=args.y))
    return _emit_table(table, args, "phasemap")


def _cmd_steady(args) -> int:
    d = _load_json(args.params)
    # the sections are checked as the codec checks a section's fields
    if not isinstance(d, dict):
        raise CliError(f"bad params file {args.params}: the steady input "
                       f"must be a JSON object, not {type(d).__name__}")
    unknown = d.keys() - {"bare", "drives", "solver"}
    if unknown:
        raise CliError(f"bad params file {args.params}: unknown key "
                       f"{min(unknown)!r}; use 'bare', 'drives' and 'solver'")
    if "bare" not in d:
        raise CliError(f"params file {args.params} needs a 'bare' section")
    try:
        bare = _from_dict(BareParams, d["bare"])
        drives = _from_dict(Drives, d.get("drives", {}))
        cfg = _from_dict(SolverConfig, d.get("solver", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad params file {args.params}: {exc}") from None
    state = solve_steady_state(bare, drives, cfg)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "bare": _to_dict(bare),
        "drives": _to_dict(drives),
        "steady_state": _to_dict(state),
    }
    return _emit_report(payload, args.out, "steady.json")


def _cmd_design(args) -> int:
    unit = RateUnit(args.unit, 1.0) if args.unit else None
    design = design_isolator(args.kappa1, args.kappa2, args.gamma, args.f,
                             unit=unit)
    payload = dict(schema_version=SCHEMA_VERSION, **design_to_dict(design))
    return _emit_report(payload, args.out, "design.json")


def _cmd_figure(args) -> int:
    summary = reproduce_figure(args.id, args.out)
    print(os.path.join(args.out, summary["csv"]))
    print(os.path.join(args.out, f"{args.id}_summary.json"))
    return 0


def _cmd_verify(args) -> int:
    results = run_verification(draws=args.draws, seed=args.seed)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{tag} {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    if failed:
        print(f"error: {failed} of {len(results)} invariant checks failed",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonrecip",
        description="Transmission spectra, phase maps, steady states, and "
                    "isolator designs for the two-cavity/ensemble model.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, points_default):
        sp.add_argument("--params", required=True,
                        help="JSON file with the model parameters")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--points", type=int, default=points_default)
        sp.add_argument("--unit", choices=("gamma", "kappa2"), default=None,
                        help="convert the parameters to this reference rate")

    sp = sub.add_parser("spectrum", help="1-D transmission spectrum over y")
    add_common(sp, SPECTRUM_POINTS)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("phasemap", help="2-D theta x phi transmission map")
    add_common(sp, PHASEMAP_POINTS)
    sp.add_argument("--y", type=float, default=0.0,
                    help="probe detuning of the map")
    sp.set_defaults(func=_cmd_phasemap)

    sp = sub.add_parser("steady", help="solve the nonlinear steady state")
    sp.add_argument("--params", required=True,
                    help="JSON file with 'bare' and optional 'drives'/'solver'")
    sp.add_argument("--out", default=None, help="also write steady.json here")
    sp.set_defaults(func=_cmd_steady)

    sp = sub.add_parser("design", help="derive perfect-isolation couplings")
    for name in ("kappa1", "kappa2", "gamma", "f"):
        sp.add_argument(f"--{name}", type=float, required=True)
    sp.add_argument("--unit", choices=("gamma", "kappa2"), default=None,
                    help="normalization the given rates are expressed in")
    sp.add_argument("--out", default=None, help="also write design.json here")
    sp.set_defaults(func=_cmd_design)

    sp = sub.add_parser("figure", help="regenerate a figure dataset")
    sp.add_argument("id", help="figure id, e.g. fig3c")
    sp.add_argument("--out", default=".", help="output directory")
    sp.set_defaults(func=_cmd_figure)

    sp = sub.add_parser("verify", help="run the invariant suite")
    sp.add_argument("--draws", type=int, default=DEFAULT_DRAWS)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.set_defaults(func=_cmd_verify)
    return parser


def _diagnostic(exc: BaseException) -> str:
    first = str(exc).splitlines()[0] if str(exc) else ""
    return first or exc.__class__.__name__


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {_diagnostic(exc)}", file=sys.stderr)
        return 1
    except (ArithmeticError, NoValidDesign, RuntimeError) as exc:
        print(f"error: {_diagnostic(exc)}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"error: {_diagnostic(exc)}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 2


__all__ = ["CliError", "build_parser", "cli_main"]
