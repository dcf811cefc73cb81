"""Compare two output directories of tools/snapshot.py cell by cell.

    python tools/snapshot_diff.py OLD NEW

For each file whose bytes differ it prints the number of numeric cells
that changed, the largest relative change among them, |new - old| over
the larger of |old| and |new|, and the largest absolute change,
|new - old|, each with the line it is on; last come the largest of each
over all files. The absolute change is the one to read where a cell is
near zero, as a blocked transmission is, and the relative change
elsewhere. A numeric cell is a decimal number standing alone between
separators, as in CSV, JSON or ``repr`` output, or one followed by
``j``: the imaginary part of a complex ``repr``, such as the
``-10.02j`` of ``(0.51-10.02j)`` or the ``2.225j`` of ``J3=2.225j``,
whose sign is part of the cell. Anything else, that ``j`` too, is
text. The exit code is 0 when the two directories differ in
numeric cells only, and 1 on any other difference: a file present in
one directory only, a different line count, or a line whose text
outside its numeric cells differs (a column name, a status cell, an
empty cell or a number of cells). Only the standard library is used.
"""

from __future__ import annotations

import os
import re
import sys

_DIGITS = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_END = r"(?![\w.])"
# a decimal number that is not part of a word, such as the 12 of T12, or
# the imaginary part of a complex repr, its sign following the real part
_NUMBER = re.compile(
    rf"(?<![\w.])[-+]?{_DIGITS}(?=j?{_END})"
    rf"|(?<=[\d.])[-+]{_DIGITS}(?=j{_END})")


def _files(top: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, n), top)
            for d, _, names in os.walk(top) for n in names}


def _compare(old: str, new: str):
    """(changed cells, (largest relative change, its line), (largest
    absolute change, its line)) of two texts, or a str naming their first
    non-numeric difference."""
    a, b = old.split("\n"), new.split("\n")
    if len(a) != len(b):
        return f"{len(a)} lines against {len(b)}"
    changed, rel, rel_at, ab, ab_at = 0, 0.0, 0, 0.0, 0
    for i, (la, lb) in enumerate(zip(a, b), 1):
        if la == lb:
            continue
        if _NUMBER.split(la) != _NUMBER.split(lb):
            return f"line {i} differs outside its numbers"
        for x, y in zip(_NUMBER.findall(la), _NUMBER.findall(lb)):
            if x != y:
                changed += 1
                fx, fy = float(x), float(y)
                d = abs(fy - fx)
                r = d / max(abs(fx), abs(fy)) if fx != fy else 0.0
                if r > rel:
                    rel, rel_at = r, i
                if d > ab:
                    ab, ab_at = d, i
    return changed, (rel, rel_at), (ab, ab_at)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_top, new_top = argv
    old_files, new_files = _files(old_top), _files(new_top)
    textual = False
    for name in sorted(old_files ^ new_files):
        where = old_top if name in old_files else new_top
        print(f"{name}: only in {where}")
        textual = True
    worst_rel = worst_abs = 0.0
    for name in sorted(old_files & new_files):
        old = _read(os.path.join(old_top, name))
        new = _read(os.path.join(new_top, name))
        if old == new:
            continue
        try:
            result = _compare(old.decode(), new.decode())
        except UnicodeDecodeError:
            result = "not text"
        if isinstance(result, str):
            print(f"{name}: {result}")
            textual = True
            continue
        changed, (rel, rel_at), (ab, ab_at) = result
        worst_rel, worst_abs = max(worst_rel, rel), max(worst_abs, ab)
        print(f"{name}: {changed} numeric cells changed, "
              f"largest relative change {rel:.3g} (line {rel_at}), "
              f"largest absolute change {ab:.3g} (line {ab_at})")
    print(f"largest relative change: {worst_rel:.3g}")
    print(f"largest absolute change: {worst_abs:.3g}")
    return 1 if textual else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
