"""Per-layer counters and metrics derived from traced spans.

The layers are the package's modules. Counters are taken by hooks at the
same wrapped call boundaries that record the spans. ``per_layer_metrics``
derives most of the benchmark's ``per_layer`` set (listed in
``BENCHMARK.json``; see README.md for which end-to-end metric each one
should move).
"""

from __future__ import annotations

import os
import statistics

from tracer import layer_of

LAYERS = ("params", "steady", "response", "transmission", "design",
          "sweep", "verify", "cli")


def _sweep(counts, args, kwargs, result, exc):
    if result is not None:
        counts["sweep.singular_points"] += int((result.status == "singular").sum())


def _write_csv(counts, args, kwargs, result, exc):
    if exc is None:
        table, path = args[0], args[1]
        counts["sweep.rows"] += len(table)
        counts["sweep.csv_bytes"] += os.path.getsize(path)


def _design_isolator(counts, args, kwargs, result, exc):
    design = result if exc is None else getattr(exc, "design", None)
    if exc is not None and design is not None:
        counts["design.no_valid_design"] += 1
    if design is not None:
        counts["design.candidates"] += len(design.root_candidates)
        counts["design.valid"] += sum(c.valid for c in design.root_candidates)


def _solve_steady_state(counts, args, kwargs, result, exc):
    counts["steady.solves"] += 1
    # by name: run.py imports this module without the package on its path
    if exc is not None and type(exc).__name__ == "NonConvergence":
        counts["steady.nonconvergence"] += 1
    if result is not None:
        counts["steady.iterations"] += result.iterations


def _transmission_pair(counts, args, kwargs, result, exc):
    counts["transmission.transmission_pair_calls"] += 1


def _run_verification(counts, args, kwargs, result, exc):
    if result is not None:
        counts["verify.checks_failed"] += sum(not r.passed for r in result)


HOOKS = {
    "sweep.sweep": _sweep,
    "sweep.write_csv": _write_csv,
    "design.design_isolator": _design_isolator,
    "steady.solve_steady_state": _solve_steady_state,
    "transmission.transmission_pair": _transmission_pair,
    "verify.run_verification": _run_verification,
}

# counters that must repeat exactly between runs with one seed
EXACT_COUNTS = ("sweep.rows", "sweep.csv_bytes", "sweep.singular_points",
                "design.candidates", "design.valid_ratio",
                "steady.iterations_per_solve",
                "transmission.transmission_pair_calls")


def merge_summary(into: dict, summary: dict) -> None:
    """Add one span summary (self times, durations, calls) into another."""
    for key in ("self_s", "calls"):
        for name, v in summary[key].items():
            into[key][name] = into[key].get(name, 0) + v
    for name, v in summary["durations"].items():
        into["durations"].setdefault(name, []).extend(v)


def per_layer_metrics(summary: dict, rounds: int, counts: dict) -> dict[str, float]:
    """Per-round layer metrics from traced spans and counters.

    ``summary`` holds ``self_s`` and ``durations`` (seconds) and ``calls``
    per span name over ``rounds`` traced rounds. ``counts`` are the hook
    counters of one traced round, whose inputs are the same seeded ones on
    every run, so they repeat exactly.
    """
    self_s, durations = summary["self_s"], summary["durations"]

    def total(name):
        return sum(durations.get(name, ())) / rounds

    def median_us(name):
        d = durations.get(name)
        return statistics.median(d) * 1e6 if d else 0.0

    def count(name):
        return counts.get(name, 0)

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    m = {
        "sweep.sweep_s": total("sweep.sweep"),
        "transmission.transmission_grid_s": total("transmission.transmission_grid"),
        "sweep.singular_points": count("sweep.singular_points"),
        "sweep.write_csv_s": total("sweep.write_csv"),
        "sweep.rows": count("sweep.rows"),
        "sweep.csv_bytes": count("sweep.csv_bytes"),
        "sweep.reproduce_figure_self_s":
            self_s.get("sweep.reproduce_figure", 0.0) / rounds,
        "sweep.table_to_json_s": total("sweep.table_to_json"),
        "cli.cli_main_self_s": (self_s.get("cli.cli_main", 0.0)
                                + self_s.get("cli.build_parser", 0.0)) / rounds,
        "transmission.transmission_pair_calls":
            count("transmission.transmission_pair_calls"),
        "design.candidates": count("design.candidates"),
        "design.valid_ratio": ratio("design.valid", "design.candidates"),
        "design.no_valid_design": count("design.no_valid_design"),
        "steady.iterations_per_solve": ratio("steady.iterations", "steady.solves"),
        "steady.nonconvergence": count("steady.nonconvergence"),
        "verify.run_verification_s": total("verify.run_verification"),
        "verify.checks_failed": count("verify.checks_failed"),
    }
    for name in ("transmission.transmission_pair", "transmission.isolation_metrics",
                 "response.build_system_matrix", "response.solve_response",
                 "response.closed_form_coefficients", "design.design_isolator",
                 "steady.solve_steady_state", "steady.linearized_params"):
        m[f"{name}_us"] = median_us(name)
    by_layer: dict[str, float] = {}
    for name, v in self_s.items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + v
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0) / rounds
    return m
