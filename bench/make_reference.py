"""Regenerate ``reference_landmarks.json``: every figure preset's landmarks.

    PYTHONPATH=src python3 bench/make_reference.py

The benchmark compares the landmarks of each regenerated figure with this
file at ``LANDMARK_RTOL`` (workloads.py). Rewrite it only when a change to
the figures is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import tempfile

from nonrecip import figure_ids, reproduce_figure

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    work = os.path.join(os.path.dirname(HERE), ".bench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as out:
        reference = {fid: reproduce_figure(fid, out)["landmarks"]
                     for fid in figure_ids()}
    with open(os.path.join(HERE, "reference_landmarks.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
