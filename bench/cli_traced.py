"""``python -m nonrecip`` with the package's public functions traced.

    NONRECIP_BENCH_TRACE=summary.json python3 bench/cli_traced.py ARGS...

The cli workload runs this in its traced rounds, in place of
``python -m nonrecip ARGS...``, with ``src`` on ``PYTHONPATH``. After the
command it writes a span summary to the file named by
``NONRECIP_BENCH_TRACE``: self times, durations and calls per span name,
the hook counters, and the inclusive time of ``cli_main``. The exit code
is the command's.
"""

from __future__ import annotations

import json
import os
import sys

import nonrecip.cli
from layers import HOOKS
from tracer import Tracer, install, summarize


def main() -> int:
    tracer = Tracer()
    install(tracer, HOOKS)
    tracer.active = True
    try:
        code = nonrecip.cli.cli_main(sys.argv[1:])
    finally:
        tracer.active = False
    self_s, durations, calls = summarize(tracer)
    summary = {"self_s": self_s, "durations": durations, "calls": dict(calls),
               "counts": dict(tracer.counts),
               "cli_main_s": sum(durations.get("cli.cli_main", ()))}
    with open(os.environ["NONRECIP_BENCH_TRACE"], "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
